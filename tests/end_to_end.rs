//! End-to-end invariants of the full simulator across workloads and uop
//! cache configurations.

use ucsim::model::ToJson;
use ucsim::pipeline::{SimConfig, SimReport, Simulator};
use ucsim::trace::{Program, WorkloadProfile};
use ucsim::uopcache::{CompactionPolicy, UopCacheConfig};

fn run(profile: &WorkloadProfile, oc: UopCacheConfig) -> SimReport {
    let program = Program::generate(profile);
    let cfg = SimConfig::table1()
        .with_uop_cache(oc)
        .with_insts(10_000, 80_000);
    Simulator::new(cfg).run(profile, &program)
}

fn pressured() -> WorkloadProfile {
    WorkloadProfile::by_name("bm-lla").expect("table2")
}

#[test]
fn uop_conservation() {
    // Every committed uop came from exactly one supply path.
    let r = run(&pressured(), UopCacheConfig::baseline_2k());
    assert_eq!(r.oc_uops + r.decoder_uops + r.loop_uops, r.uops);
}

#[test]
fn rates_are_rates() {
    for oc in [
        UopCacheConfig::baseline_2k(),
        UopCacheConfig::baseline_2k().with_clasp(),
        UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2),
    ] {
        let r = run(&pressured(), oc);
        assert!((0.0..=1.0).contains(&r.oc_fetch_ratio));
        assert!((0.0..=1.0).contains(&r.oc_hit_rate));
        assert!((0.0..=1.0).contains(&r.taken_term_frac));
        assert!((0.0..=1.0).contains(&r.spanning_frac));
        assert!((0.0..=1.0).contains(&r.compacted_fill_frac));
        let sum: f64 = r.entries_per_pw.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6 || sum == 0.0);
        assert!(r.upc > 0.0 && r.upc <= 8.0);
    }
}

#[test]
fn determinism_across_identical_runs() {
    let a = run(&pressured(), UopCacheConfig::baseline_2k());
    let b = run(&pressured(), UopCacheConfig::baseline_2k());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.uops, b.uops);
    assert_eq!(a.oc_uops, b.oc_uops);
    assert_eq!(a.oc_fills, b.oc_fills);
    assert_eq!(a.mispredicts, b.mispredicts);
    assert_eq!(a.decoded_insts, b.decoded_insts);
}

#[test]
fn trace_is_identical_across_configurations() {
    // The front-end configuration must not leak into the trace: the same
    // instruction count and branch behaviour feed every design.
    let a = run(&pressured(), UopCacheConfig::baseline_2k());
    let b = run(&pressured(), UopCacheConfig::baseline_with_capacity(65536));
    assert_eq!(a.insts, b.insts);
    assert_eq!(a.uops, b.uops);
    assert_eq!(a.mpki, b.mpki, "branch predictor sees the same stream");
}

#[test]
fn capacity_improves_fetch_ratio_and_power() {
    let small = run(&pressured(), UopCacheConfig::baseline_2k());
    let big = run(&pressured(), UopCacheConfig::baseline_with_capacity(65536));
    assert!(big.oc_fetch_ratio > small.oc_fetch_ratio);
    assert!(big.decoder_power < small.decoder_power);
    assert!(big.upc >= small.upc * 0.999);
    assert!(big.decoded_insts < small.decoded_insts);
}

#[test]
fn clasp_produces_spanning_entries_only_when_enabled() {
    let base = run(&pressured(), UopCacheConfig::baseline_2k());
    let clasp = run(&pressured(), UopCacheConfig::baseline_2k().with_clasp());
    assert_eq!(base.spanning_frac, 0.0);
    assert!(clasp.spanning_frac > 0.05, "{}", clasp.spanning_frac);
}

#[test]
fn compaction_improves_fetch_ratio_over_clasp() {
    let clasp = run(&pressured(), UopCacheConfig::baseline_2k().with_clasp());
    let fpwac = run(
        &pressured(),
        UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2),
    );
    assert!(fpwac.compacted_fill_frac > 0.0);
    assert!(
        fpwac.oc_fetch_ratio >= clasp.oc_fetch_ratio,
        "fpwac {} < clasp {}",
        fpwac.oc_fetch_ratio,
        clasp.oc_fetch_ratio
    );
    assert!(fpwac.decoder_power <= clasp.decoder_power * 1.001);
}

#[test]
fn optimization_ladder_ordering_holds_on_upc() {
    // The paper's headline ordering: F-PWAC >= RAC >= baseline (allowing
    // tiny noise between adjacent schemes).
    let base = run(&pressured(), UopCacheConfig::baseline_2k());
    let rac = run(
        &pressured(),
        UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Rac, 2),
    );
    let fpwac = run(
        &pressured(),
        UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2),
    );
    assert!(rac.upc >= base.upc, "rac {} < base {}", rac.upc, base.upc);
    assert!(
        fpwac.upc >= rac.upc * 0.995,
        "fpwac {} well below rac {}",
        fpwac.upc,
        rac.upc
    );
}

#[test]
fn three_entries_per_line_at_least_as_good() {
    let two = run(
        &pressured(),
        UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2),
    );
    let three = run(
        &pressured(),
        UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 3),
    );
    assert!(
        three.compacted_fill_frac >= two.compacted_fill_frac * 0.98,
        "three {} vs two {}",
        three.compacted_fill_frac,
        two.compacted_fill_frac
    );
    assert!(three.oc_fetch_ratio >= two.oc_fetch_ratio * 0.99);
}

#[test]
fn mpki_tracks_profile_ordering() {
    // Workloads the paper ranks as branchy must out-MPKI the tame ones.
    let hard = run(
        &WorkloadProfile::by_name("bm-lla").unwrap(),
        UopCacheConfig::baseline_2k(),
    );
    let easy = run(
        &WorkloadProfile::by_name("redis").unwrap(),
        UopCacheConfig::baseline_2k(),
    );
    assert!(
        hard.mpki > 2.0 * easy.mpki,
        "leela {} vs redis {}",
        hard.mpki,
        easy.mpki
    );
}

#[test]
fn all_table2_workloads_run() {
    for profile in WorkloadProfile::table2() {
        let program = Program::generate(&profile);
        let cfg = SimConfig::table1().with_insts(2_000, 15_000);
        let r = Simulator::new(cfg).run(&profile, &program);
        assert!(r.upc > 0.2, "{}: UPC {}", profile.name, r.upc);
        assert!(r.uops >= r.insts, "{}", profile.name);
        assert!(r.mpki < 40.0, "{}: mpki {}", profile.name, r.mpki);
    }
}

#[test]
fn recorded_trace_replays_identically() {
    // The paper's methodology: trace-driven simulation. Replaying a
    // recorded trace must produce bit-identical metrics to the live walk.
    use ucsim::trace::Trace;
    let profile = pressured();
    let program = Program::generate(&profile);
    let cfg = SimConfig::table1().with_insts(5_000, 40_000);
    let live = Simulator::new(cfg.clone()).run(&profile, &program);
    let trace = Trace::record(program.walk(&profile).take(45_000));
    let replay = Simulator::new(cfg.clone()).run_trace(profile.name, &trace);
    assert_eq!(live.cycles, replay.cycles);
    assert_eq!(live.uops, replay.uops);
    assert_eq!(live.oc_uops, replay.oc_uops);
    assert_eq!(live.mispredicts, replay.mispredicts);

    // A trace longer than the budget replays only `warmup + measure`
    // instructions of it, exactly like a live walk of that budget.
    let long = Trace::record(program.walk(&profile).take(90_000));
    let truncated = Simulator::new(cfg).run_trace(profile.name, &long);
    assert_eq!(live.to_json_string(), truncated.to_json_string());
}

#[test]
fn short_trace_reports_every_instruction() {
    // A trace that ends before the warmup boundary never opens the
    // measurement window, so the report covers (and counts) every
    // instruction, on one thread as on two.
    use ucsim::pipeline::SmtSimulator;
    use ucsim::trace::record_workload;
    let profile = pressured();
    let program = Program::generate(&profile);
    let cfg = SimConfig::table1().with_insts(10_000, 10_000);
    let trace = record_workload(&profile, &program, 3_000);
    let solo = Simulator::new(cfg.clone()).run_trace(profile.name, &trace);
    assert_eq!(solo.insts, 3_000);
    assert!(solo.uops >= solo.insts);
    let smt = SmtSimulator::new(cfg).run_traces((profile.name, &trace), (profile.name, &trace));
    assert_eq!(smt.insts, 6_000);
}
