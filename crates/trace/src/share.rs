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
//!   cells, SMT threads and serve workers, which run its instruction
//!   slice through the slice-driven prediction-window generator.
//! - [`TraceStore`]: a keyed record-once cache. The first caller for a
//!   [`TraceKey`] records; concurrent callers for the same key block on
//!   the same [`TraceHandle`] and share the recorded `Arc` — no
//!   duplicate recording, no duplicate memory.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use ucsim_model::DynInst;

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

/// One record-once slot: resolved at most once, then shared.
#[derive(Debug, Default)]
pub struct TraceHandle {
    slot: OnceLock<SharedTrace>,
}

impl TraceHandle {
    /// Returns the recorded trace, recording it via `record` if this is
    /// the first caller. Concurrent callers block until the first
    /// recording finishes and then share its `Arc`.
    pub fn get_or_record<I, F>(&self, record: F) -> SharedTrace
    where
        I: Iterator<Item = DynInst>,
        F: FnOnce() -> I,
    {
        Arc::clone(self.slot.get_or_init(|| Arc::new(Trace::record(record()))))
    }

    /// The recorded trace, if recording already happened.
    pub fn get(&self) -> Option<SharedTrace> {
        self.slot.get().map(Arc::clone)
    }
}

struct StoreInner {
    slots: HashMap<TraceKey, Arc<TraceHandle>>,
    /// Insertion order for budget eviction (oldest first).
    order: Vec<TraceKey>,
}

/// A keyed record-once trace cache with an instruction budget.
///
/// `handle(key)` is cheap and lock-scoped: it never records. Recording
/// happens outside the map lock through [`TraceHandle::get_or_record`],
/// so a slow recording never blocks lookups of other keys.
///
/// The budget bounds *resident recorded instructions*; when exceeded the
/// oldest keys are dropped (in-flight replays keep their `Arc`s alive —
/// eviction only stops new sharing).
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    budget_insts: u64,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("budget_insts", &self.budget_insts)
            .field("keys", &self.inner.lock().expect("trace store").order.len())
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
                order: Vec::new(),
            }),
            budget_insts: budget_insts.max(1),
        }
    }

    /// The record-once handle for `key`. All callers for the same key
    /// receive the same handle until it is evicted.
    pub fn handle(&self, key: &TraceKey) -> Arc<TraceHandle> {
        let mut inner = self.inner.lock().expect("trace store");
        if let Some(h) = inner.slots.get(key) {
            return Arc::clone(h);
        }
        self.evict_for(&mut inner, key.insts);
        let h = Arc::new(TraceHandle::default());
        inner.slots.insert(key.clone(), Arc::clone(&h));
        inner.order.push(key.clone());
        h
    }

    /// Convenience: resolve the handle and record/replay in one call.
    pub fn get_or_record<I, F>(&self, key: &TraceKey, record: F) -> SharedTrace
    where
        I: Iterator<Item = DynInst>,
        F: FnOnce() -> I,
    {
        self.handle(key).get_or_record(record)
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
    /// budget. Keys whose recording never happened count as empty.
    fn evict_for(&self, inner: &mut StoreInner, incoming: u64) {
        let resident = |inner: &StoreInner| -> u64 {
            inner
                .slots
                .values()
                .filter_map(|h| h.get())
                .map(|t| t.len() as u64)
                .sum()
        };
        while !inner.order.is_empty() && resident(inner) + incoming > self.budget_insts {
            let old = inner.order.remove(0);
            inner.slots.remove(&old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Program, WorkloadProfile};

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
            quick_stream(100).into_iter()
        });
        let b = store.get_or_record(&key("q", 100), || {
            recordings += 1;
            quick_stream(100).into_iter()
        });
        assert_eq!(recordings, 1, "second call must replay, not record");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.len(), 1);
        // A different length is a different stream.
        let c = store.get_or_record(&key("q", 50), || quick_stream(50).into_iter());
        assert_eq!(c.len(), 50);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn budget_evicts_oldest() {
        let store = TraceStore::new(150);
        store.get_or_record(&key("a", 100), || quick_stream(100).into_iter());
        store.get_or_record(&key("b", 100), || quick_stream(100).into_iter());
        assert_eq!(store.len(), 1, "a must have been evicted for b");
        // `a` records again after eviction (correctness unaffected).
        let a2 = store.get_or_record(&key("a", 100), || quick_stream(100).into_iter());
        assert_eq!(a2.len(), 100);
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
                    quick_stream(500).into_iter()
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
