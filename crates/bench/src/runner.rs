//! Workload × configuration matrix execution.

use ucsim_pipeline::{run_configs_on_trace, SimConfig, SimReport, Simulator};
use ucsim_pool::Progress;
use ucsim_trace::{record_workload, Program, WorkloadProfile};

use crate::RunOpts;

pub use ucsim_pipeline::LabeledConfig;

/// Runs one workload under one configuration.
pub fn run_one(profile: &WorkloadProfile, cfg: &SimConfig, opts: &RunOpts) -> SimReport {
    let program = Program::generate(profile);
    let cfg = cfg.clone().with_insts(opts.warmup, opts.insts);
    Simulator::new(cfg).run(profile, &program)
}

/// Runs every selected Table II workload under every configuration,
/// parallel across workloads. Returns, per workload (in Table II order),
/// the reports in configuration order.
pub fn run_matrix(
    configs: &[LabeledConfig],
    opts: &RunOpts,
) -> Vec<(WorkloadProfile, Vec<SimReport>)> {
    let profiles: Vec<WorkloadProfile> = WorkloadProfile::table2()
        .into_iter()
        .filter(|p| opts.selects(p.name))
        .collect();
    let progress = Progress::stderr();

    let reports = ucsim_pool::run_indexed(profiles.len(), opts.threads, |idx| {
        // Record each workload's instruction stream once; every
        // configuration cell replays the shared trace instead of
        // re-walking the program C×P times.
        let profile = &profiles[idx];
        let program = Program::generate(profile);
        let trace = record_workload(profile, &program, opts.warmup + opts.insts);
        let sized: Vec<LabeledConfig> = configs
            .iter()
            .map(|lc| {
                LabeledConfig::new(
                    &lc.label,
                    lc.config.clone().with_insts(opts.warmup, opts.insts),
                )
            })
            .collect();
        let reports = run_configs_on_trace(profile.name, &trace, &sized);
        progress.line(&format!(
            "  done {:<14} ({} configs)",
            profile.name,
            configs.len()
        ));
        reports
    });

    profiles.into_iter().zip(reports).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_produces_report() {
        let profile = WorkloadProfile::quick_test();
        let opts = RunOpts {
            warmup: 5_000,
            insts: 30_000,
            ..Default::default()
        };
        let r = run_one(&profile, &SimConfig::table1(), &opts);
        assert!(r.upc > 0.0);
        assert_eq!(r.workload, "quick-test");
    }

    #[test]
    fn matrix_respects_filter_and_order() {
        let opts = RunOpts {
            warmup: 2_000,
            insts: 10_000,
            workload_filter: vec!["redis".into(), "bm-lla".into()],
            threads: 2,
        };
        let configs = vec![
            LabeledConfig::new("a", SimConfig::table1()),
            LabeledConfig::new("b", SimConfig::table1()),
        ];
        let out = run_matrix(&configs, &opts);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0.name, "redis"); // Table II order preserved
        assert_eq!(out[1].0.name, "bm-lla");
        assert_eq!(out[0].1.len(), 2);
    }
}
