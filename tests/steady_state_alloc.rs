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
//!
//! Setup itself is bounded too: every set-associative structure keeps its
//! sets in a fixed number of flat arrays, so an empty run makes the same
//! small number of allocations at every capacity, up to the largest
//! configuration `SimConfig::check` accepts; and the BTB and uop-cache
//! slots are allocated as sets are written, so an empty run's peak heap
//! holds none of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ucsim::mem::CacheConfig;
use ucsim::pipeline::{PwTrace, SimConfig, Simulator};
use ucsim::trace::{record_workload, Program, WorkloadProfile};
use ucsim::uopcache::{CompactionPolicy, UopCacheConfig};

/// System allocator wrapper counting allocation events (frees are not
/// counted: the assertion is about acquiring memory in the hot loop) and
/// tracking live heap bytes and their high-water mark.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(new_size);
        shrank(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The tests of this binary count process-wide allocator events, so they
/// take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocation events during `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Peak live heap bytes during `f`, above what was live when it began.
fn peak_heap_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = f();
    (PEAK.load(Ordering::Relaxed) - base, r)
}

/// Allocation events of a short and a long run of `run`, and their
/// difference: 60k extra measured instructions must add none, save a
/// handful of amortized high-water grows (a larger window late in the
/// run; a BTB or uop-cache slot array doubling for sets only the long run
/// writes). Anything per batch would show up as thousands.
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

/// Most allocations an empty run may make, whatever the geometry: a
/// fixed number per structure, none per set.
const SETUP_ALLOCS: u64 = 200;

/// The largest configuration [`SimConfig::check`] accepts in every
/// set-associative structure: four direct-mapped memory levels of 2^20
/// sets, two BTB levels of 2^16 sets × 4 ways (2^18 entries), and a
/// 2^20-uop F-PWAC uop cache.
fn largest_config() -> SimConfig {
    let oc =
        UopCacheConfig::baseline_with_capacity(1 << 20).with_compaction(CompactionPolicy::Fpwac, 2);
    let mut cfg = SimConfig::table1().with_uop_cache(oc);
    for level in [
        &mut cfg.mem.l1i,
        &mut cfg.mem.l1d,
        &mut cfg.mem.l2,
        &mut cfg.mem.l3,
    ] {
        *level = CacheConfig::new(&level.name, 1 << 20, 1, level.policy);
    }
    cfg.bpu.btb_l1_set_bits = 16;
    cfg.bpu.btb_l1_ways = 4;
    cfg.bpu.btb_l2_set_bits = 16;
    cfg.bpu.btb_l2_ways = 4;
    cfg
}

#[test]
fn measured_batches_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

    // Setup: an empty run builds every structure and reports, and the
    // count must not grow with any structure's set count.
    let fpwac = |uops| {
        SimConfig::table1().with_uop_cache(
            UopCacheConfig::baseline_with_capacity(uops)
                .with_compaction(CompactionPolicy::Fpwac, 2),
        )
    };
    let largest = largest_config();
    assert_eq!(largest.check(), Ok(()));
    for (what, cfg) in [
        ("2K F-PWAC", fpwac(2048)),
        ("8K F-PWAC", fpwac(8192)),
        ("64K F-PWAC", fpwac(65536)),
        ("largest accepted", largest),
    ] {
        let (allocs, report) = allocs_during(|| Simulator::new(cfg).run_slice(profile.name, &[]));
        assert_eq!(report.insts, 0);
        assert!(
            allocs <= SETUP_ALLOCS,
            "an empty {what} run made {allocs} allocations (at most {SETUP_ALLOCS})"
        );
    }
}

/// An empty run's heap grows with the sets it writes, not with the
/// configured capacity: the BTB levels and the uop-cache entry slots are
/// backed on demand, so what remains is the structures every lookup
/// reads (the memory caches' tags and replacement state, the uop cache's
/// start index, TAGE). Reserving every BTB and uop-cache set up front
/// took 1.82 MB for Table I and 112 MB for the largest configuration.
#[test]
fn an_empty_run_reserves_no_unwritten_sets() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let profile = WorkloadProfile::by_name("redis").expect("known workload");
    // Lazy globals first, as above.
    Simulator::new(SimConfig::table1()).run_slice(profile.name, &[]);
    for (what, cfg, budget) in [
        ("Table I", SimConfig::table1(), 768 << 10),
        ("largest accepted", largest_config(), 72 << 20),
    ] {
        let (peak, report) = peak_heap_during(|| Simulator::new(cfg).run_slice(profile.name, &[]));
        assert_eq!(report.insts, 0);
        println!("empty {what} run: peak heap {peak} B");
        assert!(
            peak <= budget,
            "an empty {what} run peaked at {peak} B of live heap (at most {budget})"
        );
    }
}

/// A live run holds one instruction window, not the walk: its peak heap
/// is the simulator's structures plus a 24 KiB window, whatever the
/// instruction budget. Recording the walk first (48 B per instruction)
/// would add 5 MB here.
#[test]
fn a_live_run_does_not_hold_its_walk() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const BUDGET: u64 = 4 << 20;
    let profile = WorkloadProfile::by_name("redis").expect("known workload");
    let program = Program::generate(&profile);
    let cfg = SimConfig::table1().with_insts(5_000, 100_000);
    // Lazy globals first, as above.
    Simulator::new(cfg.clone().with_insts(0, 1_000)).run(&profile, &program);
    let (peak, report) = peak_heap_during(|| Simulator::new(cfg).run(&profile, &program));
    assert!(report.insts.abs_diff(100_000) < 100);
    println!("live run: peak heap {peak} B");
    assert!(
        peak <= BUDGET,
        "a 105K-instruction run peaked at {peak} B of live heap (at most {BUDGET})"
    );
}
