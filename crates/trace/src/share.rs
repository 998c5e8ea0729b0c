//! Trace-once / replay-many sharing.
//!
//! The paper's evaluation is a workload × capacity × policy cross, and
//! every cell of the cross consumes the *same* dynamic instruction
//! stream — only the front-end configuration differs. Re-walking the
//! synthetic program for each cell re-pays the walker's hash-driven
//! branch/loop/data sampling C×P times per workload; recording the
//! stream once into a [`Trace`] and replaying it from memory pays it
//! once, and a replayed cell is bit-identical to a regenerated one (the
//! walker is deterministic, so the recorded stream *is* the stream).
//!
//! Two pieces:
//!
//! - [`SharedTrace`]: an `Arc<Trace>` alias — the unit handed to sweep
//!   cells, SMT threads and serve workers, which expand its packed stream
//!   into the simulator's instruction window as they go.
//! - [`TraceStore`]: a keyed record-once cache. The first caller for a
//!   [`TraceKey`] records; concurrent callers for the same key block on
//!   the same slot and share the recorded `Arc` — no duplicate
//!   recording, no duplicate memory.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use crate::{Program, Trace, WorkloadProfile};

/// A trace shared across sweep cells / threads without copying.
pub type SharedTrace = Arc<Trace>;

/// Records the first `insts` instructions of a workload into a shareable
/// trace — the canonical record-once entry point for sweep runners.
pub fn record_workload(profile: &WorkloadProfile, program: &Program, insts: u64) -> SharedTrace {
    Arc::new(Trace::record(program.walk(profile).take(insts as usize)))
}

/// Identity of a recorded stream: workload × generation seed × length.
///
/// Two sweep cells with the same key consume byte-for-byte the same
/// instruction stream, so they can share one recording. Run length is
/// part of the key because a recording is exact-length (a shorter
/// request could replay a prefix, but exact keys keep the equivalence
/// argument trivial — replay of key K *is* `walk().take(K.insts)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Workload name.
    pub workload: String,
    /// Generation seed.
    pub seed: u64,
    /// Total instructions recorded (warmup + measured).
    pub insts: u64,
}

/// A resident key: its record-once cell (set at most once, then
/// shared) and the instructions it adds to the store's resident total
/// (0 until its recording is charged).
struct Slot {
    cell: Arc<OnceLock<SharedTrace>>,
    charged: u64,
}

struct StoreInner {
    slots: HashMap<TraceKey, Slot>,
    /// Insertion order for budget eviction (oldest first).
    order: VecDeque<TraceKey>,
    /// Sum of `charged` over `slots`: the recorded instructions resident.
    resident: u64,
}

/// A keyed record-once trace cache with an instruction budget.
///
/// [`TraceStore::get_or_record`] resolves a key's slot under the map
/// lock, but records outside it, so a slow recording never blocks
/// lookups of other keys; concurrent callers for the same key block on
/// that one recording and share its `Arc`.
///
/// The budget bounds *resident recorded instructions*; when exceeded the
/// oldest keys are dropped (in-flight replays keep their `Arc`s alive —
/// eviction only stops new sharing). A recording counts against it from
/// when it finishes, by its actual length, so the bookkeeping is a
/// running total and a queue of keys: O(1) per key, however many are
/// resident.
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    budget_insts: u64,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("trace store");
        f.debug_struct("TraceStore")
            .field("budget_insts", &self.budget_insts)
            .field("keys", &inner.order.len())
            .field("resident_insts", &inner.resident)
            .finish()
    }
}

impl TraceStore {
    /// Creates a store bounded to roughly `budget_insts` resident
    /// recorded instructions.
    pub fn new(budget_insts: u64) -> Self {
        TraceStore {
            inner: Mutex::new(StoreInner {
                slots: HashMap::new(),
                order: VecDeque::new(),
                resident: 0,
            }),
            budget_insts: budget_insts.max(1),
        }
    }

    /// The record-once cell for `key`. All callers for the same key
    /// receive the same cell until it is evicted.
    fn cell(&self, key: &TraceKey) -> Arc<OnceLock<SharedTrace>> {
        let mut inner = self.inner.lock().expect("trace store");
        if let Some(s) = inner.slots.get(key) {
            return Arc::clone(&s.cell);
        }
        self.evict_for(&mut inner, key.insts);
        let cell = Arc::new(OnceLock::new());
        inner.slots.insert(
            key.clone(),
            Slot {
                cell: Arc::clone(&cell),
                charged: 0,
            },
        );
        inner.order.push_back(key.clone());
        cell
    }

    /// Returns the trace recorded for `key`, calling `record` if this is
    /// the first caller. Concurrent callers block until the first
    /// recording finishes and then share its `Arc`.
    pub fn get_or_record(&self, key: &TraceKey, record: impl FnOnce() -> Trace) -> SharedTrace {
        let cell = self.cell(key);
        let mut recorded = false;
        let trace = Arc::clone(cell.get_or_init(|| {
            recorded = true;
            Arc::new(record())
        }));
        if recorded {
            self.charge(key, &cell, trace.len() as u64);
        }
        trace
    }

    /// Adds a finished recording to the resident total, unless its key
    /// was evicted (or replaced) while it recorded.
    fn charge(&self, key: &TraceKey, cell: &Arc<OnceLock<SharedTrace>>, insts: u64) {
        let mut inner = self.inner.lock().expect("trace store");
        if let Some(s) = inner.slots.get_mut(key) {
            if Arc::ptr_eq(&s.cell, cell) {
                s.charged = insts;
                inner.resident += insts;
            }
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace store").order.len()
    }

    /// True when no traces are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops oldest keys until `incoming` more instructions fit the
    /// budget.
    fn evict_for(&self, inner: &mut StoreInner, incoming: u64) {
        while inner.resident + incoming > self.budget_insts {
            let Some(old) = inner.order.pop_front() else {
                break;
            };
            if let Some(s) = inner.slots.remove(&old) {
                inner.resident -= s.charged;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Program, WorkloadProfile};
    use ucsim_model::DynInst;

    fn key(name: &str, insts: u64) -> TraceKey {
        TraceKey {
            workload: name.to_owned(),
            seed: 7,
            insts,
        }
    }

    fn quick_stream(n: usize) -> Vec<DynInst> {
        let p = WorkloadProfile::quick_test();
        let prog = Program::generate(&p);
        prog.walk(&p).take(n).collect()
    }

    #[test]
    fn store_records_once_and_shares() {
        let store = TraceStore::new(1_000_000);
        let mut recordings = 0;
        let a = store.get_or_record(&key("q", 100), || {
            recordings += 1;
            Trace::record(quick_stream(100))
        });
        let b = store.get_or_record(&key("q", 100), || {
            recordings += 1;
            Trace::record(quick_stream(100))
        });
        assert_eq!(recordings, 1, "second call must replay, not record");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.len(), 1);
        // A different length is a different stream.
        let c = store.get_or_record(&key("q", 50), || Trace::record(quick_stream(50)));
        assert_eq!(c.len(), 50);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn budget_evicts_oldest() {
        let store = TraceStore::new(150);
        store.get_or_record(&key("a", 100), || Trace::record(quick_stream(100)));
        store.get_or_record(&key("b", 100), || Trace::record(quick_stream(100)));
        assert_eq!(store.len(), 1, "a must have been evicted for b");
        // `a` records again after eviction (correctness unaffected).
        let a2 = store.get_or_record(&key("a", 100), || Trace::record(quick_stream(100)));
        assert_eq!(a2.len(), 100);
    }

    /// The running total is the sum of the resident recordings' lengths
    /// through any mix of inserts, repeats and evictions.
    #[test]
    fn resident_total_tracks_inserts_and_evictions() {
        let store = TraceStore::new(1_000);
        let stream = quick_stream(400);
        let check = |store: &TraceStore| {
            let inner = store.inner.lock().unwrap();
            let sum: u64 = inner
                .slots
                .values()
                .filter_map(|s| s.cell.get())
                .map(|t| t.len() as u64)
                .sum();
            assert_eq!(inner.resident, sum);
            assert!(inner.resident <= 1_000);
            assert_eq!(inner.order.len(), inner.slots.len());
        };
        let mut x = 7u64;
        for _ in 0..300 {
            x = ucsim_model::mix64(x);
            let name = ["a", "b", "c", "d", "e", "f"][(x % 6) as usize];
            let insts = [10, 150, 400, 999, 1_000][(x >> 8) as usize % 5];
            // Some keys record fewer instructions than they ask for (a
            // short upload), some exactly as many.
            let short = (x >> 16).is_multiple_of(3);
            let n = if short {
                insts.min(400) / 2
            } else {
                insts.min(400)
            };
            let t = store.get_or_record(&key(name, insts), || {
                Trace::record(stream[..n as usize].iter().copied())
            });
            assert!(t.len() as u64 <= insts);
            check(&store);
        }
    }

    #[test]
    fn concurrent_callers_share_one_recording() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let store = Arc::new(TraceStore::new(1_000_000));
        let recordings = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = Arc::clone(&store);
            let recordings = Arc::clone(&recordings);
            handles.push(std::thread::spawn(move || {
                store.get_or_record(&key("q", 500), || {
                    recordings.fetch_add(1, Ordering::SeqCst);
                    Trace::record(quick_stream(500))
                })
            }));
        }
        let traces: Vec<SharedTrace> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(recordings.load(Ordering::SeqCst), 1);
        for t in &traces {
            assert!(Arc::ptr_eq(t, &traces[0]));
        }
    }
}
