//! A fixed, reused window over an instruction stream.
//!
//! The simulator never holds a whole run's `DynInst`s: [`SlicePwGen`]
//! and the pipeline read one [`InstWindow`] of at most
//! [`InstWindow::CAPACITY`] instructions, refilled from the run's source
//! (a walker, a packed recording, a borrowed slice). Sequence numbers
//! stay global — instruction `seq` of the stream sits at `seq - base` in
//! the window — so [`PwBatch`] ranges mean the same thing whatever the
//! window's position.
//!
//! [`SlicePwGen`]: crate::SlicePwGen
//! [`PwBatch`]: crate::PwBatch

use ucsim_model::DynInst;

/// A sliding window of a `DynInst` stream, indexed by global sequence
/// number.
///
/// [`InstWindow::slide_to`] runs before each prediction window: when
/// fewer than [`InstWindow::MIN_AHEAD`] instructions (one 64-byte line's
/// worth of 1-byte instructions, the longest a well-formed window can
/// be) remain from the window's start, the consumed prefix is dropped
/// and the window refilled. A stream whose prediction window never
/// reaches its line end (a malformed upload: non-sequential pcs) makes
/// [`InstWindow::get`] grow the buffer instead, so every window still
/// sees exactly the instructions it covers.
#[derive(Debug)]
pub struct InstWindow<I> {
    buf: Vec<DynInst>,
    /// Global sequence number of `buf[0]`.
    base: u64,
    src: I,
    /// The source returned `None`: `buf` ends where the stream ends.
    drained: bool,
}

impl<I: Iterator<Item = DynInst>> InstWindow<I> {
    /// Instructions a window holds between slides: 512 × 48 B = 24 KiB,
    /// an ordinary heap block (far under glibc's 128 KiB mmap threshold)
    /// reused for the whole run, small enough to stay in L1 while the
    /// generator and the pipeline read it. On a 2-vCPU host, PW
    /// generation over a 512-instruction window ran 5–10% faster than
    /// over a 2048-instruction one.
    pub const CAPACITY: usize = 512;
    /// Fewest instructions left ahead of a prediction window's start
    /// before the window slides.
    pub const MIN_AHEAD: usize = 64;

    /// An empty window over `src`; it fills on first use.
    pub fn new(src: I) -> Self {
        InstWindow {
            buf: Vec::with_capacity(Self::CAPACITY),
            base: 0,
            src,
            drained: false,
        }
    }

    /// A prediction window starts at `seq` (at most one past the last
    /// instruction handed out): slide forward and refill when fewer than
    /// [`Self::MIN_AHEAD`] instructions remain.
    #[inline]
    pub fn slide_to(&mut self, seq: u64) {
        let off = (seq - self.base) as usize;
        if self.drained || self.buf.len() - off >= Self::MIN_AHEAD {
            return;
        }
        self.buf.drain(..off);
        self.base = seq;
        self.fill(Self::CAPACITY);
    }

    /// Instruction `seq`, or `None` past the end of the stream. `seq` is
    /// at least the last [`Self::slide_to`] position.
    #[inline]
    pub fn get(&mut self, seq: u64) -> Option<DynInst> {
        let off = (seq - self.base) as usize;
        match self.buf.get(off) {
            Some(&inst) => Some(inst),
            None => self.grow(off),
        }
    }

    /// Instructions `first..end`, which [`Self::get`] has loaded.
    ///
    /// # Panics
    ///
    /// Panics when the range is not in the window.
    pub fn span(&self, first: u64, end: u64) -> &[DynInst] {
        &self.buf[(first - self.base) as usize..(end - self.base) as usize]
    }

    /// Appends source instructions until the buffer holds `len` (or the
    /// source ends).
    fn fill(&mut self, len: usize) {
        let want = len.saturating_sub(self.buf.len());
        self.buf.extend(self.src.by_ref().take(want));
        self.drained = self.buf.len() < len;
    }

    /// A window ran past the loaded instructions: keep everything and
    /// load another [`Self::MIN_AHEAD`] beyond `off`.
    #[cold]
    fn grow(&mut self, off: usize) -> Option<DynInst> {
        if !self.drained {
            self.fill(off + Self::MIN_AHEAD);
        }
        self.buf.get(off).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucsim_model::{Addr, InstClass};

    fn stream(n: u64) -> impl Iterator<Item = DynInst> {
        (0..n).map(|i| DynInst::simple(Addr::new(0x1000 + i), 1, InstClass::Nop))
    }

    type Window = InstWindow<Box<dyn Iterator<Item = DynInst>>>;

    fn window(n: u64) -> Window {
        InstWindow::new(Box::new(stream(n)))
    }

    #[test]
    fn global_sequence_numbers_survive_slides() {
        let mut w = window(10_000);
        let mut seq = 0u64;
        while seq < 10_000 {
            w.slide_to(seq);
            // Consume a 40-instruction window.
            let end = (seq + 40).min(10_000);
            for s in seq..end {
                assert_eq!(w.get(s).unwrap().pc, Addr::new(0x1000 + s));
            }
            assert_eq!(w.span(seq, end).len() as u64, end - seq);
            assert!(w.buf.len() <= Window::CAPACITY);
            seq = end;
        }
        w.slide_to(seq);
        assert_eq!(w.get(seq), None);
    }

    #[test]
    fn slides_only_when_little_is_left() {
        let mut w = window(5_000);
        w.slide_to(0);
        assert_eq!((w.base, w.buf.len()), (0, Window::CAPACITY));
        w.slide_to(Window::CAPACITY as u64 - 64);
        assert_eq!(w.base, 0, "64 left: no slide");
        w.slide_to(Window::CAPACITY as u64 - 63);
        assert_eq!(w.base, Window::CAPACITY as u64 - 63);
        assert_eq!(w.buf.len(), Window::CAPACITY);
    }

    #[test]
    fn a_window_longer_than_the_buffer_grows_it() {
        let mut w = window(10_000);
        w.slide_to(0);
        for s in 0..5_000 {
            assert!(w.get(s).is_some());
        }
        assert_eq!(w.span(0, 5_000).len(), 5_000);
        assert_eq!(w.base, 0);
    }

    #[test]
    fn a_short_stream_drains() {
        let mut w = window(3);
        w.slide_to(0);
        assert_eq!(w.span(0, 3).len(), 3);
        assert!(w.get(2).is_some());
        assert!(w.get(3).is_none());
        w.slide_to(3);
        assert!(w.get(3).is_none());
    }
}
