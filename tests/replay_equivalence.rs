//! Record-once/replay-many equivalence: replaying one recorded trace
//! through every cell of a sweep must produce reports byte-identical (as
//! canonical JSON) to regenerating the instruction stream per cell.
//!
//! This is the contract the sweep runners (bench matrix, serve
//! `/v1/matrix`) rely on to share a single recording across a capacity ×
//! policy cross; the served-vs-direct byte equality of `/v1/sim` and
//! `/v1/matrix` responses is covered separately in `serve_integration.rs`,
//! and every run path is pinned to checked-in report digests in
//! `report_digests.rs`.

use proptest::prelude::*;
use ucsim_model::ToJson;
use ucsim_pipeline::{run_configs_on_trace, LabeledConfig, PwTrace, SimConfig, Simulator};
use ucsim_trace::{record_workload, Program, WorkloadProfile};
use ucsim_uopcache::{CompactionPolicy, UopCacheConfig};

const WORKLOADS: [&str; 3] = ["nutch", "bm-pb", "redis"];

fn policies(warmup: u64, measure: u64) -> Vec<LabeledConfig> {
    let base = SimConfig::table1().with_insts(warmup, measure);
    let mut clasp = base.clone();
    clasp.uop_cache.clasp = true;
    vec![
        LabeledConfig::new("baseline", base),
        LabeledConfig::new("CLASP", clasp),
    ]
}

#[test]
fn replayed_sweep_cells_match_per_cell_regeneration_byte_for_byte() {
    let (warmup, measure) = (2_000u64, 12_000u64);
    // A back-end change shares the recorded front end, so it replays too.
    let mut configs = policies(warmup, measure);
    let mut wide = SimConfig::table1().with_insts(warmup, measure);
    wide.core.dispatch_width = 8;
    configs.push(LabeledConfig::new("8-wide", wide));
    for w in WORKLOADS {
        let profile = WorkloadProfile::by_name(w).expect("known workload");
        let program = Program::generate(&profile);

        // Per-cell regeneration: fresh walk for every configuration.
        let regenerated: Vec<String> = configs
            .iter()
            .map(|lc| {
                Simulator::new(lc.config.clone())
                    .run(&profile, &program)
                    .to_json_string()
            })
            .collect();

        // Record once, replay through every configuration.
        let trace = record_workload(&profile, &program, warmup + measure);
        let replayed: Vec<String> = run_configs_on_trace(profile.name, &trace, &configs)
            .into_iter()
            .map(|r| r.to_json_string())
            .collect();

        assert_eq!(
            regenerated, replayed,
            "workload {w}: replayed reports diverged from regeneration"
        );
    }
}

#[test]
fn run_trace_alone_matches_run_for_every_workload_and_policy() {
    let (warmup, measure) = (1_000u64, 8_000u64);
    for w in WORKLOADS {
        let profile = WorkloadProfile::by_name(w).expect("known workload");
        let program = Program::generate(&profile);
        let trace = record_workload(&profile, &program, warmup + measure);
        for lc in policies(warmup, measure) {
            let sim = Simulator::new(lc.config.clone());
            let direct = sim.run(&profile, &program).to_json_string();
            let replayed = sim.run_trace(profile.name, &trace).to_json_string();
            assert_eq!(direct, replayed, "workload {w}, policy {}", lc.label);
        }
    }
}

#[test]
fn pw_trace_replay_matches_full_runs_across_policies() {
    let (warmup, measure) = (1_000u64, 8_000u64);
    let configs = policies(warmup, measure);
    let profile = WorkloadProfile::quick_test();
    let program = Program::generate(&profile);
    let trace = record_workload(&profile, &program, warmup + measure);
    let pwt = PwTrace::record(&trace, &configs[0].config);
    for lc in &configs {
        assert!(pwt.matches(&lc.config), "sweep cells share the front end");
        let direct = Simulator::new(lc.config.clone())
            .run(&profile, &program)
            .to_json_string();
        assert_eq!(
            pwt.replay(profile.name, &lc.config).to_json_string(),
            direct,
            "policy {}",
            lc.label
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// PW replay is the live run: for any warmup/measure budget (a warmup
    /// past the end of the trace and an empty measurement window
    /// included) and baseline, CLASP or F-PWAC, replaying a recording is
    /// byte-identical to `Simulator::run_trace` on the same trace. Both go
    /// through one run path, so the measurement window opens at the same
    /// boundary.
    #[test]
    fn pw_replay_is_the_live_run(
        trace_len in 500u64..5_000,
        warmup in 0u64..7_000,
        measure in (0u64..8_000).prop_map(|m| m.saturating_sub(2_000)),
        policy in 0usize..3,
    ) {
        let oc = [
            UopCacheConfig::baseline_2k(),
            UopCacheConfig::baseline_2k().with_clasp(),
            UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2),
        ][policy]
            .clone();
        let cfg = SimConfig::table1()
            .with_uop_cache(oc)
            .with_insts(warmup, measure);
        let profile = WorkloadProfile::quick_test();
        let program = Program::generate(&profile);
        let trace = record_workload(&profile, &program, trace_len);
        let live = Simulator::new(cfg.clone()).run_trace(profile.name, &trace);
        let replayed = PwTrace::record(&trace, &cfg).replay(profile.name, &cfg);
        prop_assert_eq!(replayed.to_json_string(), live.to_json_string());
    }
}
