//! Tracked pipeline throughput suite.
//!
//! Measures end-to-end simulator throughput (instructions/second) for the
//! paper's headline configurations — baseline, CLASP, F-PWAC, and an
//! 8-wide dispatch variant — plus the sweep-level benefit of
//! record-once/replay-many: a workload × capacity × policy sweep run by
//! replaying one recorded trace per workload versus regenerating the
//! stream per cell, with a byte-identity check on every cell report.
//!
//! Results go to `BENCH_pipeline.json` (machine-readable, tracked in the
//! repository) and stdout (human-readable).
//!
//! ```text
//! cargo run --release -p ucsim-bench --bin bench_pipeline             # tracked budget
//! cargo run --release -p ucsim-bench --bin bench_pipeline -- --quick  # CI smoke
//! ```

use std::time::Instant;

use criterion::{Criterion, Throughput};
use ucsim_bench::{optimization_ladder, LabeledConfig, RunOpts};
use ucsim_model::json::Json;
use ucsim_model::ToJson;
use ucsim_pipeline::{run_configs_on_trace, SimConfig, Simulator};
use ucsim_trace::{record_workload, Program, WorkloadProfile};

/// Where the tracked results land (repository root under `cargo run`).
const OUT_PATH: &str = "BENCH_pipeline.json";

/// The workload the throughput group runs on (server-class, Table II).
const THROUGHPUT_WORKLOAD: &str = "redis";

/// Workloads of the sweep speedup comparison: the SPEC-like profiles
/// whose stream synthesis (CFG walk + branch-noise sampling) is most
/// expensive relative to simulating the resulting stream.
const SWEEP_WORKLOADS: [&str; 4] = ["bm-pb", "bm-cc", "bm-x64", "bm-z"];

/// Timing passes per sweep side; the reported time is the per-side
/// minimum across passes.
const SWEEP_SAMPLES: usize = 2;

fn main() {
    let opts = RunOpts::from_args();
    let total = opts.warmup + opts.insts;

    let throughput = throughput_suite(&opts, total);
    let sweep = sweep_speedup(&opts);

    let doc = Json::Obj(vec![
        (
            "schema".to_owned(),
            Json::Str("ucsim-bench-pipeline/v2".to_owned()),
        ),
        ("env".to_owned(), env_metadata()),
        ("warmup_insts".to_owned(), Json::Uint(opts.warmup)),
        ("measure_insts".to_owned(), Json::Uint(opts.insts)),
        (
            "throughput_workload".to_owned(),
            Json::Str(THROUGHPUT_WORKLOAD.to_owned()),
        ),
        ("throughput".to_owned(), throughput),
        ("sweep_replay".to_owned(), sweep),
    ]);
    std::fs::write(OUT_PATH, format!("{doc}\n")).expect("write BENCH_pipeline.json");
    println!("wrote {OUT_PATH}");
}

/// Provenance of a tracked result: which commit produced it, on how many
/// CPUs. Numbers from different machines are not comparable; the
/// metadata makes that visible in the checked-in file instead of leaving
/// reviewers to guess.
fn env_metadata() -> Json {
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    Json::Obj(vec![
        ("commit".to_owned(), Json::Str(commit)),
        ("cpus".to_owned(), Json::Uint(cpus)),
    ])
}

/// The paper's headline configurations, each measured as whole-run
/// simulator throughput over one shared recorded trace.
fn headline_configs() -> Vec<LabeledConfig> {
    let mut configs: Vec<LabeledConfig> = optimization_ladder(2048, 2)
        .into_iter()
        .filter(|lc| matches!(lc.label.as_str(), "baseline" | "CLASP" | "F-PWAC"))
        .collect();
    let mut wide = SimConfig::table1();
    wide.core.dispatch_width = 8;
    configs.push(LabeledConfig::new("8-wide", wide));
    configs
}

/// Runs the criterion throughput group and returns its JSON rows.
fn throughput_suite(opts: &RunOpts, total: u64) -> Json {
    let profile = WorkloadProfile::by_name(THROUGHPUT_WORKLOAD).expect("known workload");
    let program = Program::generate(&profile);
    let trace = record_workload(&profile, &program, total);

    let mut c = Criterion::default();
    {
        let mut g = c.benchmark_group("pipeline_throughput");
        g.throughput(Throughput::Elements(total)).sample_size(5);
        for lc in headline_configs() {
            let cfg = lc.config.clone().with_insts(opts.warmup, opts.insts);
            let trace = ucsim_trace::SharedTrace::clone(&trace);
            g.bench_function(&lc.label, move |b| {
                let sim = Simulator::new(cfg.clone());
                b.iter(|| sim.run_trace(THROUGHPUT_WORKLOAD, &trace));
            });
        }
        g.finish();
    }

    Json::Arr(
        c.measurements()
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("id".to_owned(), Json::Str(m.id.clone())),
                    (
                        "median_ns".to_owned(),
                        Json::Uint(m.median.as_nanos() as u64),
                    ),
                    (
                        "insts_per_sec".to_owned(),
                        Json::Float(m.rate().unwrap_or(0.0)),
                    ),
                ])
            })
            .collect(),
    )
}

/// Times a workload × capacity × policy sweep both ways — per-cell stream
/// regeneration versus record-once/replay-many — verifying every cell
/// report is byte-identical, and returns the comparison as JSON.
fn sweep_speedup(opts: &RunOpts) -> Json {
    let ladder: Vec<LabeledConfig> = [2048usize, 4096, 8192, 16384, 32768, 65536]
        .iter()
        .flat_map(|&cap| optimization_ladder(cap, 2))
        .map(|lc| {
            LabeledConfig::new(
                &lc.label,
                lc.config.clone().with_insts(opts.warmup, opts.insts),
            )
        })
        .collect();
    let profiles: Vec<WorkloadProfile> = SWEEP_WORKLOADS
        .iter()
        .map(|w| WorkloadProfile::by_name(w).expect("known workload"))
        .collect();

    // Both sides are timed over `SWEEP_SAMPLES` passes and reported as
    // the per-side minimum: wall-clock noise on a shared host only ever
    // adds time, so the minimum is the stable estimate of the true cost.
    // Within a pass the two sides alternate per workload, so slow drift
    // in host speed lands on both sides instead of skewing the ratio.
    let mut regen_s = f64::INFINITY;
    let mut replay_s = f64::INFINITY;
    let mut regen: Vec<Vec<_>> = Vec::new();
    let mut replayed: Vec<Vec<_>> = Vec::new();
    for _ in 0..SWEEP_SAMPLES {
        let mut pass_regen = 0.0;
        let mut pass_replay = 0.0;
        regen = Vec::new();
        replayed = Vec::new();
        for p in &profiles {
            // Per-cell regeneration: what the sweep paths did before
            // traces were shared — the serve-side `run_spec` built the
            // program and re-walked the stream for every single job,
            // i.e. once per |capacities| × |policies| cell.
            let t0 = Instant::now();
            regen.push(
                ladder
                    .iter()
                    .map(|lc| {
                        let prog = Program::generate(p);
                        Simulator::new(lc.config.clone()).run(p, &prog)
                    })
                    .collect(),
            );
            pass_regen += t0.elapsed().as_secs_f64();

            // Record-once/replay-many: one program build + one
            // recording per workload, shared by all cells.
            let t1 = Instant::now();
            let prog = Program::generate(p);
            let trace = record_workload(p, &prog, opts.warmup + opts.insts);
            replayed.push(run_configs_on_trace(p.name, &trace, &ladder));
            pass_replay += t1.elapsed().as_secs_f64();
        }
        regen_s = regen_s.min(pass_regen);
        replay_s = replay_s.min(pass_replay);
    }

    let byte_identical = regen
        .iter()
        .flatten()
        .zip(replayed.iter().flatten())
        .all(|(a, b)| a.to_json_string() == b.to_json_string());
    assert!(
        byte_identical,
        "replayed sweep reports diverged from regenerated ones"
    );

    let cells = (SWEEP_WORKLOADS.len() * ladder.len()) as u64;
    let speedup = regen_s / replay_s.max(1e-9);
    println!(
        "sweep {}x{} cells: regen {regen_s:.2}s, replay {replay_s:.2}s ({speedup:.2}x)",
        SWEEP_WORKLOADS.len(),
        ladder.len()
    );
    Json::Obj(vec![
        (
            "workloads".to_owned(),
            Json::Arr(
                SWEEP_WORKLOADS
                    .iter()
                    .map(|w| Json::Str((*w).to_owned()))
                    .collect(),
            ),
        ),
        ("cells".to_owned(), Json::Uint(cells)),
        ("regen_secs".to_owned(), Json::Float(regen_s)),
        ("replay_secs".to_owned(), Json::Float(replay_s)),
        ("speedup".to_owned(), Json::Float(speedup)),
        ("byte_identical".to_owned(), Json::Bool(byte_identical)),
    ])
}
