//! Steady-state allocation discipline of the simulator hot loop.
//!
//! A counting global allocator wraps the system allocator and tallies
//! every `alloc`/`realloc`/`alloc_zeroed`. Two runs over the *same*
//! recorded trace differ only in how many measured batches they process;
//! if the decode→dispatch→retire loop is allocation-free in steady state
//! (all buffers pre-sized or reused: flat cache tag stores, eviction
//! scratch, the uop-kind template table, deferred stat folds), the two
//! runs perform *exactly* the same number of heap allocations — every
//! allocation belongs to setup (`RunState` construction) or teardown
//! (report building), neither of which scales with instructions.
//!
//! This is the regression gate for both simulation loops, the live one
//! behind `run_trace` and the `PwTrace` replay: any per-instruction or
//! per-batch allocation that creeps back in shows up as a count
//! difference proportional to the extra instructions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ucsim::pipeline::{PwTrace, SimConfig, Simulator};
use ucsim::trace::{record_workload, Program, WorkloadProfile};

/// System allocator wrapper counting allocation events (frees are not
/// counted: the assertion is about acquiring memory in the hot loop).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events during `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Allocation events of a short and a long run of `run`, and their
/// difference: 60k extra measured instructions must add none, save a
/// handful of amortized high-water grows of reused buffers (a larger
/// window late in the run). Anything per batch would show up as
/// thousands.
fn assert_steady<R>(what: &str, mut run: impl FnMut(bool) -> R) -> (R, R) {
    let (short_allocs, short) = allocs_during(|| run(false));
    let (long_allocs, long) = allocs_during(|| run(true));
    let delta = long_allocs.saturating_sub(short_allocs);
    assert!(
        delta <= 8,
        "{what} allocated in steady state: {short_allocs} allocs for the \
         short run vs {long_allocs} for the long one (+{delta})"
    );
    (short, long)
}

/// One test, so no other test in this binary allocates concurrently
/// with the counted sections.
#[test]
fn measured_batches_allocate_nothing() {
    const WARMUP: u64 = 5_000;
    const SHORT: u64 = 20_000;
    const LONG: u64 = 80_000;

    let profile = WorkloadProfile::by_name("redis").expect("known workload");
    let program = Program::generate(&profile);
    let trace = record_workload(&profile, &program, WARMUP + LONG);

    let short_cfg = SimConfig::table1().with_insts(WARMUP, SHORT);
    let long_cfg = SimConfig::table1().with_insts(WARMUP, LONG);
    let cfg = |long: bool| if long { &long_cfg } else { &short_cfg };

    // Touch every lazy global (uop-kind template table, stage-timer
    // rings, etc.) so the counted runs see only per-run allocations.
    Simulator::new(long_cfg.clone()).run_trace(profile.name, &trace);

    // A live run.
    let (short_report, long_report) = assert_steady("run_trace", |long| {
        Simulator::new(cfg(long).clone()).run_trace(profile.name, &trace)
    });
    // Sanity: the long run really did simulate ~4x the measured batches
    // (the measurement boundary snaps to a prediction-window edge, so
    // the counts can undershoot by a few instructions).
    assert!(short_report.insts.abs_diff(SHORT) < 100);
    assert!(long_report.insts.abs_diff(LONG) < 100);
    assert!(long_report.cycles > short_report.cycles);

    // A replay, over recordings made outside the counted runs.
    let recorded = [
        PwTrace::record(&trace, &short_cfg),
        PwTrace::record(&trace, &long_cfg),
    ];
    let (short_replay, long_replay) = assert_steady("replay", |long| {
        recorded[usize::from(long)].replay(profile.name, cfg(long))
    });
    assert_eq!(short_replay.cycles, short_report.cycles);
    assert_eq!(long_replay.cycles, long_report.cycles);
}
