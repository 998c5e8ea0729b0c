//! Span events and the one process-wide ring that holds them.
//!
//! Every thread appends to the same ring under one `Mutex`. The lock
//! also hands out the sequence number, so the ring is always in `seq`
//! order with no gaps: a [`drain_since`] cursor finds its place by
//! offset, and a poller that keeps up sees every event. The ring keeps
//! the newest [`RING_SLOTS`] events and overwrites the oldest. Its
//! storage grows with use up to that bound; nothing is preallocated.
//!
//! Events are request-scale (accept, parse, handle, store I/O, queue
//! wait, execute, supervise), so one short critical section per event
//! costs nothing next to the work it describes.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Events the ring retains, across all threads; older events are
/// overwritten.
pub const RING_SLOTS: usize = 16_384;

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

struct Ring {
    /// Contiguous in `seq`: `events[i].seq == events[0].seq + i`.
    events: VecDeque<Event>,
    next_seq: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    events: VecDeque::new(),
    next_seq: 1,
});

/// Every update leaves the ring contiguous in `seq` (the counter moves
/// only after the event is in), so a lock poisoned by a panic elsewhere
/// still guards valid data.
fn ring() -> MutexGuard<'static, Ring> {
    RING.lock().unwrap_or_else(PoisonError::into_inner)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the first call in this process.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

thread_local! {
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// The request id installed on this thread by [`request_scope`]
/// (0 = none).
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

/// Installs `id` as this thread's request id until the guard drops.
#[must_use = "dropping the guard immediately restores the previous scope"]
pub fn request_scope(id: u64) -> ScopeGuard {
    let prev = REQUEST.with(|r| r.replace(id));
    ScopeGuard { prev }
}

fn emit_full(kind: SpanKind, start_us: u64, dur_us: u64, detail: u32, request_id: u64) {
    let mut ring = ring();
    if ring.events.len() >= RING_SLOTS {
        ring.events.pop_front();
    }
    let seq = ring.next_seq;
    ring.events.push_back(Event {
        seq,
        kind,
        start_us,
        dur_us,
        request_id,
        detail,
    });
    ring.next_seq += 1;
}

/// Appends one event tagged with this thread's request id.
pub fn emit(kind: SpanKind, start_us: u64, dur_us: u64, detail: u32) {
    emit_full(kind, start_us, dur_us, detail, current_request());
}

/// An open span; [`Span::finish`] emits the event.
#[derive(Debug)]
pub struct Span {
    kind: SpanKind,
    start_us: u64,
    t0: Instant,
}

/// Opens a span of `kind` starting now.
pub fn span(kind: SpanKind) -> Span {
    Span {
        kind,
        start_us: now_us(),
        t0: Instant::now(),
    }
}

impl Span {
    /// Emits the span with its elapsed duration and `detail`.
    pub fn finish(self, detail: u32) {
        emit(
            self.kind,
            self.start_us,
            self.t0.elapsed().as_micros() as u64,
            detail,
        );
    }
}

/// Queue-residency token: captures the enqueue time and the enqueuing
/// thread's request scope, so the dequeuing worker can report the wait
/// and inherit the request.
#[derive(Debug)]
pub struct QueueToken {
    enqueued_us: u64,
    request_id: u64,
}

impl QueueToken {
    /// Captures the current time and request scope at enqueue.
    pub fn capture() -> QueueToken {
        QueueToken {
            enqueued_us: now_us(),
            request_id: current_request(),
        }
    }

    /// Microseconds since [`capture`](QueueToken::capture).
    pub fn waited_us(&self) -> u64 {
        now_us().saturating_sub(self.enqueued_us)
    }

    /// Emits the queue-wait span for `worker` and installs the
    /// enqueuing request's scope on the dequeuing thread.
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

/// Up to `max` retained events with `seq > since`, in `seq` order, plus
/// the cursor for the next call (the last returned `seq`, or `since`
/// when nothing is new).
pub fn drain_since(since: u64, max: usize) -> (Vec<Event>, u64) {
    let ring = ring();
    let start = match ring.events.front() {
        Some(front) => since.saturating_add(1).saturating_sub(front.seq),
        None => 0,
    };
    let events: Vec<Event> = ring
        .events
        .iter()
        .skip(usize::try_from(start).unwrap_or(usize::MAX))
        .take(max)
        .cloned()
        .collect();
    drop(ring);
    let next = events.last().map_or(since, |e| e.seq);
    (events, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that read ring contents. The ring is
    /// process-global, so one test's flood of events can overwrite
    /// another's.
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
        // A cursor past every event (e.g. a hostile `since=`) is empty.
        assert_eq!(drain_since(u64::MAX, usize::MAX), (Vec::new(), u64::MAX));
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
    fn cursor_never_skips_an_event() {
        let _gate = ring_gate();
        for round in 0..200 {
            let (_, start) = drain_since(0, usize::MAX);
            let done = Arc::new(AtomicBool::new(false));
            let poller = {
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut cursor = start;
                    let mut seen = BTreeSet::new();
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let (page, next) = drain_since(cursor, usize::MAX);
                        seen.extend(page.iter().map(|e| e.seq));
                        cursor = next;
                        if finished && page.is_empty() {
                            return seen;
                        }
                    }
                })
            };
            let writers: Vec<_> = (0..4)
                .map(|t| {
                    std::thread::spawn(move || {
                        for i in 0..200 {
                            emit(SpanKind::Handle, i, 0, t);
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Release);
            let seen = poller.join().unwrap();
            let (all, _) = drain_since(start, usize::MAX);
            assert_eq!(all.len(), 800, "round {round}");
            let missed: Vec<u64> = all
                .iter()
                .map(|e| e.seq)
                .filter(|s| !seen.contains(s))
                .collect();
            assert!(
                missed.is_empty(),
                "round {round}: poller missed {} events",
                missed.len()
            );
        }
    }

    #[test]
    fn kind_names_are_stable() {
        for k in SpanKind::ALL {
            assert!(!k.name().is_empty());
        }
        assert_eq!(SpanKind::QueueWait.name(), "queue_wait");
    }
}
