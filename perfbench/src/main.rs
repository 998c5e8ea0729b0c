//! Host-time benchmark of the ucsim workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-cells|sweep-replay|serve-mix|fed-sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures peak heap in an untimed pass, then sets the
//! workload up several times (reporting the median set-up time), each
//! time running an equal slice of the timed phase, checks the outputs
//! and prints the end-to-end metrics. `--trace 1` runs the same workload
//! in alternating untraced and traced slices, then the layer probes, and
//! prints the per-layer metrics; spans go to
//! `.perfbench/spans-<workload>-<seed>.json`.
//! The last line of standard output is always the JSON result.

mod common;
mod heap;
mod layers;
mod offline;
mod served;
mod spans;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ucsim_model::json::Json;

use common::{mean, median, nproc, peak_rss_mb, quantile, ref_loop_mops, Checks, Timed, Workload};
use spans::{Phase, Tracer};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Set-ups per `--trace 0` run; `setup_s` is their median, and each
/// times an equal slice of the timed phase.
const SETUPS: usize = 5;
/// Ops of the untimed pass that measures peak heap.
const HEAP_OPS: u64 = 48;
/// Upper bound on the heap pass, which normally ends after `HEAP_OPS`.
const HEAP_PASS_LIMIT: Duration = Duration::from_secs(60);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cold-cells" => Box::new(offline::ColdCells::new(seed)),
        "sweep-replay" => Box::new(offline::SweepReplay::new(seed)),
        "serve-mix" => Box::new(served::ServeMix::new(seed)),
        "fed-sweep" => Box::new(served::FedSweep::new(seed)),
        _ => return None,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(mut w) = workload(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let result = if args.trace {
        traced_run(&args, w.as_mut())
    } else {
        end_to_end_run(&args, w.as_mut())
    };
    w.teardown();
    match result {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

fn end_to_end_run(args: &Args, w: &mut dyn Workload) -> Result<(), String> {
    let tr = Tracer::new(false);
    let ref_before = ref_loop_mops();
    // Peak heap: one set-up plus a fixed number of ops, counted and
    // untimed. Counting then stops, so the timed phase runs on the plain
    // system allocator.
    w.setup(&tr)?;
    let heap_pass = w.timed(&tr, HEAP_PASS_LIMIT, HEAP_OPS);
    let heap_mb = heap::peak_mb();
    heap::stop_counting();
    // The timed phase is split over the set-ups: each fresh set-up (new
    // servers on new ports) times one slice, so whatever a single set-up
    // happens to get, such as the phase of its servers' accept-poll
    // cycles, cannot decide a whole run.
    let slice = Duration::from_secs_f64(args.seconds / SETUPS as f64);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut timed = Timed::default();
    for _ in 0..SETUPS {
        // Shutting the previous set-up's servers down is not set-up work.
        w.teardown();
        let t = Instant::now();
        w.setup(&tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let part = w.timed(&tr, slice, u64::MAX);
        let wall_s = part.wall_s;
        timed.merge(part);
        timed.wall_s += wall_s;
    }
    let rss = peak_rss_mb();
    timed.attempted += heap_pass.attempted;
    timed.failed += heap_pass.failed;
    let checks = w.check(&tr);
    let ref_after = ref_loop_mops();

    let ops = timed.lat_ms.len() as f64;
    let values = BTreeMap::from([
        ("setup_s", median(&setup_s)),
        (
            "sim_minsts_per_s",
            timed.sim_insts as f64 / timed.wall_s / 1e6,
        ),
        ("ops_per_s", ops / timed.wall_s),
        ("op_p50_ms", quantile(&timed.lat_ms, 0.50)),
        ("op_p90_ms", quantile(&timed.lat_ms, 0.90)),
        ("peak_heap_mb", heap_mb),
    ]);
    let ops_failed_frac =
        (timed.failed + checks.failed) as f64 / (timed.attempted + checks.run).max(1) as f64;
    print_provenance(args, w, &timed, &checks, (ref_before, ref_after));
    for (class, lat) in &timed.by_class {
        println!(
            "class {class:<6} n={:<6} p50={:.4}ms p90={:.4}ms",
            lat.len(),
            quantile(lat, 0.5),
            quantile(lat, 0.9)
        );
    }
    println!("metric ops_failed_frac ratio {ops_failed_frac}");
    println!("metric peak_rss_mb MB {rss}");
    // p99 needs ten samples beyond it.
    if timed.lat_ms.len() >= 1000 {
        println!("metric op_p99_ms ms {}", quantile(&timed.lat_ms, 0.99));
    }
    if timed.lat_ms.len() < 100 {
        eprintln!(
            "perfbench: only {} ops timed; op_p90_ms needs at least 100",
            timed.lat_ms.len()
        );
    }
    print_result(&timed, &checks, "end_to_end", &values)
}

fn traced_run(args: &Args, w: &mut dyn Workload) -> Result<(), String> {
    heap::stop_counting();
    let tr = Tracer::new(true);
    let ref_before = ref_loop_mops();
    tr.set_phase(Phase::Setup);
    w.setup(&tr)?;

    // Untraced and traced slices alternate so host drift lands on both.
    let slice = Duration::from_secs_f64(args.seconds / 4.0);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut all = Timed::default();
    for i in 0..4 {
        let on = i % 2 == 1;
        tr.set_enabled(on);
        tr.set_phase(Phase::Workload);
        let t = w.timed(&tr, slice, u64::MAX);
        if on { &mut traced_ms } else { &mut plain_ms }.extend_from_slice(&t.lat_ms);
        all.merge(t);
    }
    tr.set_enabled(false);
    let checks = w.check(&tr);
    let profiles = w.probe_profiles();
    w.teardown();

    tr.set_enabled(true);
    let mut m = layers::run_probes(&tr, &profiles, args.seed)?;
    let ref_after = ref_loop_mops();
    m.insert(
        "bench.trace_overhead_pct",
        100.0 * (mean(&traced_ms) / mean(&plain_ms) - 1.0),
    );
    m.insert("host.ref_loop_mops", median(&[ref_before, ref_after]));

    let spans = tr.snapshot();
    let dir = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
    spans::write_json(&spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;

    print_provenance(args, w, &all, &checks, (ref_before, ref_after));
    println!("spans {} written to {}", spans.len(), path.display());
    let workload_spans: Vec<spans::Span> = spans
        .iter()
        .filter(|s| s.phase == Phase::Workload)
        .cloned()
        .collect();
    println!("self_time {}", spans::self_times_json(&workload_spans));
    if let Some(f) = m.remove("peer.failovers") {
        println!("metric peer.failovers count {f}");
    }
    print_result(&all, &checks, "per_layer", &m)
}

/// The declared metrics; printed units come from here.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// (name, unit) of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
            (
                field("name").expect("metric name"),
                field("unit").expect("metric unit"),
            )
        })
        .collect()
}

fn print_provenance(
    args: &Args,
    w: &dyn Workload,
    timed: &Timed,
    checks: &Checks,
    ref_mops: (f64, f64),
) {
    let t = w.threads();
    println!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\"source_digest\":\"{}\",\"nproc\":{},\"obs_enabled\":{},\"threads\":{{\"clients\":{},\"nodes\":{},\"workers_per_node\":{},\"sim_threads\":{}}},\"host.ref_loop_mops\":{{\"before\":{:.3},\"after\":{:.3}}},\"input_digest\":\"{:016x}\",\"report_digest\":\"{:016x}\",\"ops\":{},\"checks_run\":{},\"checks_failed\":{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE_DIGEST"),
        nproc(),
        ucsim_obs::ENABLED,
        t.clients,
        t.nodes,
        t.workers_per_node,
        t.sim_threads,
        ref_mops.0,
        ref_mops.1,
        w.input_digest(),
        w.report_digest(),
        timed.lat_ms.len(),
        checks.run,
        checks.failed,
    );
}

/// Prints every metric of `list` (in declared order) from `values`, then
/// the result line. A declared metric that was not measured, or is not a
/// finite number, is an error and no result is printed.
fn print_result(
    timed: &Timed,
    checks: &Checks,
    list: &str,
    values: &BTreeMap<&str, f64>,
) -> Result<(), String> {
    let mut body = Vec::new();
    for (name, unit) in declared(list) {
        let v = values
            .get(name.as_str())
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        println!("metric {name} {unit} {v}");
        body.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    let failed = timed.failed + checks.failed;
    let attempted = timed.attempted + checks.run;
    let correct = failed == 0 && timed.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    Ok(())
}
