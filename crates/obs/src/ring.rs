//! Span events and the per-thread lock-free ring buffers that hold them.
//!
//! Every writing thread owns (at most) one ring at a time; rings are
//! pooled through a global free list so short-lived threads (the server
//! spawns one per connection) reuse rings instead of leaking them. Total
//! memory is bounded by [`MAX_RINGS`] × [`RING_SLOTS`] slots; a thread
//! that cannot acquire a ring silently drops its events.
//!
//! Each slot is a tiny seqlock: one version word (odd while a write is
//! in flight) plus five data words, all `AtomicU64`. Writers never
//! block; readers ([`drain_since`]) skip slots whose version changes
//! under them. Tracing is best-effort diagnostics — a dropped or torn
//! slot loses one event, never corrupts anything.

/// Slots per ring (one event per slot; older events are overwritten).
pub const RING_SLOTS: usize = 1024;

/// Maximum live rings — bounds total trace memory at
/// `MAX_RINGS * RING_SLOTS * 6 * 8` bytes (≈3 MiB at the defaults).
pub const MAX_RINGS: usize = 64;

/// What a span event describes. Request-scale operations only — the
/// pipeline's per-stage timings go to the job profile, not the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// A TCP connection was accepted.
    Accept = 0,
    /// An HTTP request head + body was read and parsed.
    Parse = 1,
    /// A routed handler ran (detail = HTTP status).
    Handle = 2,
    /// A result-store append (detail = 1 on failure).
    StoreIo = 3,
    /// Time a job spent queued before a worker picked it up
    /// (detail = worker index).
    QueueWait = 4,
    /// A worker executed a job (detail = 1 if the handler panicked).
    Execute = 5,
    /// A supervision event: worker panic observed or worker respawned
    /// (detail = worker index).
    Supervise = 6,
}

impl SpanKind {
    /// All kinds, in discriminant order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::Accept,
        SpanKind::Parse,
        SpanKind::Handle,
        SpanKind::StoreIo,
        SpanKind::QueueWait,
        SpanKind::Execute,
        SpanKind::Supervise,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Accept => "accept",
            SpanKind::Parse => "parse",
            SpanKind::Handle => "handle",
            SpanKind::StoreIo => "store_io",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Execute => "execute",
            SpanKind::Supervise => "supervise",
        }
    }

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn from_u8(b: u8) -> Option<SpanKind> {
        SpanKind::ALL.get(b as usize).copied()
    }
}

/// One drained span event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global monotone sequence number (drain cursor).
    pub seq: u64,
    /// What happened.
    pub kind: SpanKind,
    /// Microseconds since process start when the span began.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// FNV-1a hash of the originating request id (0 = none).
    pub request_id: u64,
    /// Kind-specific payload (status code, worker index, …).
    pub detail: u32,
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{Event, SpanKind, MAX_RINGS, RING_SLOTS};
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    /// version + (seq, kind|detail, start, dur, request) data words.
    const WORDS: usize = 6;

    struct Ring {
        slots: Box<[AtomicU64]>,
    }

    impl Ring {
        fn new() -> Ring {
            let mut v = Vec::with_capacity(RING_SLOTS * WORDS);
            v.resize_with(RING_SLOTS * WORDS, || AtomicU64::new(0));
            Ring {
                slots: v.into_boxed_slice(),
            }
        }

        /// Single-writer seqlock store: version goes odd, data lands,
        /// version goes even. Emit frequency is per request, not per
        /// instruction, so `SeqCst` simplicity beats cleverness here.
        fn write(&self, cursor: u64, ev: &Event) {
            let base = (cursor as usize % RING_SLOTS) * WORDS;
            let ver = self.slots[base].load(Ordering::SeqCst);
            self.slots[base].store(ver.wrapping_add(1), Ordering::SeqCst);
            self.slots[base + 1].store(ev.seq, Ordering::SeqCst);
            self.slots[base + 2].store(
                (u64::from(ev.kind as u8) << 32) | u64::from(ev.detail),
                Ordering::SeqCst,
            );
            self.slots[base + 3].store(ev.start_us, Ordering::SeqCst);
            self.slots[base + 4].store(ev.dur_us, Ordering::SeqCst);
            self.slots[base + 5].store(ev.request_id, Ordering::SeqCst);
            self.slots[base].store(ver.wrapping_add(2), Ordering::SeqCst);
        }

        /// Seqlock read of one slot; `None` when empty or torn.
        fn read(&self, slot: usize) -> Option<Event> {
            let base = slot * WORDS;
            let v1 = self.slots[base].load(Ordering::SeqCst);
            if v1 == 0 || v1 % 2 == 1 {
                return None; // never written, or a write is in flight
            }
            let seq = self.slots[base + 1].load(Ordering::SeqCst);
            let meta = self.slots[base + 2].load(Ordering::SeqCst);
            let start_us = self.slots[base + 3].load(Ordering::SeqCst);
            let dur_us = self.slots[base + 4].load(Ordering::SeqCst);
            let request_id = self.slots[base + 5].load(Ordering::SeqCst);
            let v2 = self.slots[base].load(Ordering::SeqCst);
            if v1 != v2 {
                return None; // overwritten while reading
            }
            let kind = SpanKind::from_u8((meta >> 32) as u8)?;
            Some(Event {
                seq,
                kind,
                start_us,
                dur_us,
                request_id,
                detail: meta as u32,
            })
        }
    }

    struct Registry {
        all: Vec<Arc<Ring>>,
        free: Vec<Arc<Ring>>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
        REG.get_or_init(|| {
            Mutex::new(Registry {
                all: Vec::new(),
                free: Vec::new(),
            })
        })
    }

    static SEQ: AtomicU64 = AtomicU64::new(1);

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    pub fn now_us() -> u64 {
        epoch().elapsed().as_micros() as u64
    }

    struct RingHandle {
        ring: Arc<Ring>,
        cursor: u64,
    }

    impl Drop for RingHandle {
        fn drop(&mut self) {
            // Return the ring to the pool so the next short-lived
            // thread reuses it instead of minting a new one.
            if let Ok(mut reg) = registry().lock() {
                reg.free.push(Arc::clone(&self.ring));
            }
        }
    }

    thread_local! {
        static RING: RefCell<Option<RingHandle>> = const { RefCell::new(None) };
        static REQUEST: Cell<u64> = const { Cell::new(0) };
    }

    fn acquire_ring() -> Option<RingHandle> {
        let mut reg = registry().lock().ok()?;
        let ring = if let Some(r) = reg.free.pop() {
            r
        } else if reg.all.len() < MAX_RINGS {
            let r = Arc::new(Ring::new());
            reg.all.push(Arc::clone(&r));
            r
        } else {
            return None; // at the cap: this thread drops its events
        };
        Some(RingHandle { ring, cursor: 0 })
    }

    pub fn current_request() -> u64 {
        REQUEST.with(Cell::get)
    }

    /// RAII restore of the previous request scope.
    pub struct ScopeGuard {
        prev: u64,
    }

    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            REQUEST.with(|r| r.set(self.prev));
        }
    }

    #[must_use = "dropping the guard immediately restores the previous scope"]
    pub fn request_scope(id: u64) -> ScopeGuard {
        let prev = REQUEST.with(|r| r.replace(id));
        ScopeGuard { prev }
    }

    pub fn emit_full(kind: SpanKind, start_us: u64, dur_us: u64, detail: u32, request_id: u64) {
        let ev = Event {
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            kind,
            start_us,
            dur_us,
            request_id,
            detail,
        };
        RING.with(|h| {
            let mut h = h.borrow_mut();
            if h.is_none() {
                *h = acquire_ring();
            }
            if let Some(handle) = h.as_mut() {
                handle.ring.write(handle.cursor, &ev);
                handle.cursor += 1;
            }
        });
    }

    pub fn emit(kind: SpanKind, start_us: u64, dur_us: u64, detail: u32) {
        emit_full(kind, start_us, dur_us, detail, current_request());
    }

    /// An open span; [`Span::finish`] emits the event.
    pub struct Span {
        kind: SpanKind,
        start_us: u64,
        t0: Instant,
    }

    pub fn span(kind: SpanKind) -> Span {
        Span {
            kind,
            start_us: now_us(),
            t0: Instant::now(),
        }
    }

    impl Span {
        pub fn finish(self, detail: u32) {
            emit(
                self.kind,
                self.start_us,
                self.t0.elapsed().as_micros() as u64,
                detail,
            );
        }
    }

    /// Queue-residency token: captures the enqueue time and the
    /// enqueuing thread's request scope, so the dequeuing worker can
    /// report the wait and inherit the request.
    #[derive(Debug)]
    pub struct QueueToken {
        enqueued_us: u64,
        request_id: u64,
    }

    impl QueueToken {
        pub fn capture() -> QueueToken {
            QueueToken {
                enqueued_us: now_us(),
                request_id: current_request(),
            }
        }

        pub fn on_dequeue(&self, worker: u32) -> ScopeGuard {
            let now = now_us();
            emit_full(
                SpanKind::QueueWait,
                self.enqueued_us,
                now.saturating_sub(self.enqueued_us),
                worker,
                self.request_id,
            );
            request_scope(self.request_id)
        }
    }

    pub fn drain_since(since: u64, max: usize) -> (Vec<Event>, u64) {
        let rings: Vec<Arc<Ring>> = match registry().lock() {
            Ok(reg) => reg.all.iter().map(Arc::clone).collect(),
            Err(_) => Vec::new(),
        };
        let mut events = Vec::new();
        for ring in &rings {
            for slot in 0..RING_SLOTS {
                if let Some(ev) = ring.read(slot) {
                    if ev.seq > since {
                        events.push(ev);
                    }
                }
            }
        }
        events.sort_by_key(|e| e.seq);
        events.truncate(max);
        let next = events.last().map_or(since, |e| e.seq);
        (events, next)
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    //! No-op mirrors: identical signatures, empty bodies. The optimizer
    //! erases every call site, which the tracked benchmark verifies.
    use super::{Event, SpanKind};

    #[inline(always)]
    pub fn now_us() -> u64 {
        0
    }

    #[inline(always)]
    pub fn current_request() -> u64 {
        0
    }

    /// Zero-sized stand-in for the enabled build's scope guard.
    pub struct ScopeGuard;

    #[inline(always)]
    #[must_use = "dropping the guard immediately restores the previous scope"]
    pub fn request_scope(_id: u64) -> ScopeGuard {
        ScopeGuard
    }

    #[inline(always)]
    pub fn emit(_kind: SpanKind, _start_us: u64, _dur_us: u64, _detail: u32) {}

    /// Zero-sized stand-in for an open span.
    pub struct Span;

    #[inline(always)]
    pub fn span(_kind: SpanKind) -> Span {
        Span
    }

    impl Span {
        #[inline(always)]
        pub fn finish(self, _detail: u32) {}
    }

    /// Zero-sized stand-in for the queue-residency token.
    #[derive(Debug)]
    pub struct QueueToken;

    impl QueueToken {
        #[inline(always)]
        pub fn capture() -> QueueToken {
            QueueToken
        }

        #[inline(always)]
        pub fn on_dequeue(&self, _worker: u32) -> ScopeGuard {
            ScopeGuard
        }
    }

    #[inline(always)]
    pub fn drain_since(since: u64, _max: usize) -> (Vec<Event>, u64) {
        (Vec::new(), since)
    }
}

pub use imp::{
    current_request, drain_since, emit, now_us, request_scope, span, QueueToken, ScopeGuard, Span,
};

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that read ring contents. Rings are
    /// process-global and recycled through the registry's free list, so
    /// one test's flood of events can overwrite another's.
    fn ring_gate() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn emit_drain_roundtrip() {
        let _gate = ring_gate();
        let (_, start) = drain_since(0, usize::MAX);
        emit(SpanKind::Handle, 10, 5, 200);
        emit(SpanKind::StoreIo, 20, 1, 0);
        let (events, next) = drain_since(start, usize::MAX);
        assert!(events.len() >= 2, "got {events:?}");
        assert!(next > start);
        let handle = events
            .iter()
            .find(|e| e.kind == SpanKind::Handle && e.start_us == 10)
            .expect("handle event present");
        assert_eq!(handle.dur_us, 5);
        assert_eq!(handle.detail, 200);
        // Seqs strictly increase in the drained order.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn request_scope_nests_and_restores() {
        assert_eq!(current_request(), 0);
        {
            let _a = request_scope(7);
            assert_eq!(current_request(), 7);
            {
                let _b = request_scope(9);
                assert_eq!(current_request(), 9);
            }
            assert_eq!(current_request(), 7);
        }
        assert_eq!(current_request(), 0);
    }

    #[test]
    fn queue_token_carries_request_across_threads() {
        let _gate = ring_gate();
        let (_, start) = drain_since(0, usize::MAX);
        let guard = request_scope(42);
        let token = QueueToken::capture();
        drop(guard);
        let handle = std::thread::spawn(move || {
            let _scope = token.on_dequeue(3);
            assert_eq!(current_request(), 42);
        });
        handle.join().unwrap();
        let (events, _) = drain_since(start, usize::MAX);
        let wait = events
            .iter()
            .find(|e| e.kind == SpanKind::QueueWait && e.request_id == 42)
            .expect("queue-wait event present");
        assert_eq!(wait.detail, 3);
    }

    #[test]
    fn ring_overwrite_keeps_newest() {
        let _gate = ring_gate();
        let (_, start) = drain_since(0, usize::MAX);
        for i in 0..(RING_SLOTS as u32 + 10) {
            emit(SpanKind::Accept, u64::from(i), 0, i);
        }
        let (events, _) = drain_since(start, usize::MAX);
        // The ring holds at most RING_SLOTS of them; the newest survive.
        let accepts: Vec<_> = events
            .iter()
            .filter(|e| e.kind == SpanKind::Accept)
            .collect();
        assert!(accepts.len() <= RING_SLOTS);
        assert!(accepts.iter().any(|e| e.detail == RING_SLOTS as u32 + 9));
    }

    #[test]
    fn drain_max_pages() {
        let _gate = ring_gate();
        let (_, mut cursor) = drain_since(0, usize::MAX);
        for i in 0..10 {
            emit(SpanKind::Parse, i, 1, 0);
        }
        let mut seen = 0;
        loop {
            let (page, next) = drain_since(cursor, 3);
            if page.is_empty() {
                break;
            }
            assert!(page.len() <= 3);
            seen += page.iter().filter(|e| e.kind == SpanKind::Parse).count();
            cursor = next;
        }
        assert!(seen >= 10);
    }

    #[test]
    fn kind_names_are_stable() {
        for k in SpanKind::ALL {
            assert!(!k.name().is_empty());
        }
        assert_eq!(SpanKind::QueueWait.name(), "queue_wait");
    }
}
