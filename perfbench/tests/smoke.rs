//! Tiny-budget pass over every workload: each run must print, as its last
//! line, a result whose metrics are exactly the ones `BENCHMARK.json`
//! names (with their units), with every op and check passing; another
//! seed must change the generated inputs but not the metric names.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::Command;

use ucsim_model::json::Json;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// name → unit of one metric list of `BENCHMARK.json`.
fn declared(doc: &Json, list: &str) -> BTreeMap<String, String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.to_owned(), unit.to_owned())
        })
        .collect()
}

struct Run {
    metrics: BTreeMap<String, String>,
    input_digest: String,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = Json::parse(lines.last().expect("a result line")).expect("result is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(v.is_finite(), "{workload}: {name} = {v}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect();
    let provenance = lines
        .iter()
        .find_map(|l| {
            Json::parse(l)
                .ok()
                .and_then(|j| j.get("provenance").cloned())
        })
        .expect("a provenance line");
    Run {
        metrics,
        input_digest: provenance
            .get("input_digest")
            .and_then(Json::as_str)
            .expect("input digest")
            .to_owned(),
    }
}

/// Workloads the binary keeps for hand-run A/B comparisons but
/// `BENCHMARK.json` does not declare (see the README).
const UNDECLARED: [&str; 2] = ["cold-cells", "sweep-replay"];

#[test]
fn every_workload_prints_every_declared_metric() {
    let doc = benchmark();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .chain(UNDECLARED.map(str::to_owned))
        .collect();
    for w in &workloads {
        let a = run(w, 1, 0);
        assert_eq!(a.metrics, end_to_end, "{w}: end-to-end metrics");
        let b = run(w, 2, 0);
        assert_eq!(b.metrics, end_to_end, "{w}: end-to-end metrics, seed 2");
        assert_ne!(
            a.input_digest, b.input_digest,
            "{w}: the seed must change the inputs"
        );
        let t = run(w, 1, 1);
        assert_eq!(t.metrics, per_layer, "{w}: per-layer metrics");
        assert_eq!(
            t.input_digest, a.input_digest,
            "{w}: same seed, same inputs"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "cold-cells",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "cold-cells", "--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
