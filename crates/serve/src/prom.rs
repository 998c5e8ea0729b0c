//! Prometheus text exposition (version 0.0.4) for the metrics document.
//!
//! [`render_prometheus`] mechanically flattens the same JSON document
//! that `GET /v1/metrics` serves — every numeric leaf at path
//! `a.b.c` becomes a `ucsim_a_b_c` series — so the JSON and Prometheus
//! forms cover the same counters *by construction*; there is no second
//! list of metrics to drift out of sync. The `latency_us` subtree is the
//! one special case: it renders as a native Prometheus histogram
//! (`ucsim_request_latency_us`) with an `endpoint` label, cumulative
//! `_bucket{le=...}` series, `+Inf`, `_sum`, and `_count`.

use std::fmt::Write as _;

use ucsim_model::json::Json;
use ucsim_model::FromJson;

use crate::metrics::HistogramBody;

/// Metric name prefix for every exported series.
const PREFIX: &str = "ucsim";

/// Leaf names whose series are monotonically non-decreasing over the
/// process lifetime (`# TYPE ... counter`); everything else is a gauge.
const COUNTER_LEAVES: &[&str] = &[
    "requests",
    "rejected_429",
    "jobs_executed",
    "jobs_failed",
    "jobs_deadline_exceeded",
    "workers_respawned",
    "write_errors",
    "hits",
    "misses",
    "coalesced",
    "insertions",
    "evictions",
    "uptime_us",
    // Peer-mode (federation) counters; configured/up/degraded/down in
    // the same section are point-in-time gauges and stay off this list.
    "forwarded",
    "failed_over",
    "probes",
    "pull_rounds",
    "pull_records",
];

/// Renders the metrics JSON document in Prometheus text format.
///
/// Non-numeric leaves (strings, booleans, nulls, arrays outside the
/// histogram subtree) are skipped; the metrics document has none today.
pub fn render_prometheus(doc: &Json) -> String {
    let mut out = String::new();
    let mut path: Vec<&str> = Vec::new();
    walk(doc, &mut path, &mut out);
    out
}

fn walk<'a>(node: &'a Json, path: &mut Vec<&'a str>, out: &mut String) {
    match node {
        Json::Obj(members) => {
            for (key, value) in members {
                if path.is_empty() && key == "latency_us" {
                    render_latency(value, out);
                    continue;
                }
                path.push(key.as_str());
                walk(value, path, out);
                path.pop();
            }
        }
        Json::Uint(v) => emit_scalar(path, &format_u64(*v), out),
        Json::Int(v) => emit_scalar(path, &v.to_string(), out),
        Json::Float(v) => emit_scalar(path, &format_f64(*v), out),
        // No strings/bools/arrays appear as numeric series.
        _ => {}
    }
}

fn metric_name(path: &[&str]) -> String {
    let mut name = String::from(PREFIX);
    for seg in path {
        name.push('_');
        name.push_str(seg);
    }
    name
}

fn emit_scalar(path: &[&str], value: &str, out: &mut String) {
    let name = metric_name(path);
    let kind = if path
        .last()
        .is_some_and(|leaf| COUNTER_LEAVES.contains(leaf))
    {
        "counter"
    } else {
        "gauge"
    };
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

/// Renders the `latency_us` subtree — one histogram per endpoint label.
fn render_latency(subtree: &Json, out: &mut String) {
    let Json::Obj(endpoints) = subtree else {
        return;
    };
    let name = format!("{PREFIX}_request_latency_us");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (endpoint, hist) in endpoints {
        let Ok(HistogramBody {
            bounds,
            counts,
            total,
            sum,
            ..
        }) = HistogramBody::from_json(hist)
        else {
            continue;
        };
        let label = escape_label_value(endpoint);
        let mut cumulative = 0u64;
        for (bound, count) in bounds.iter().zip(&counts) {
            cumulative += count;
            let _ = writeln!(
                out,
                "{name}_bucket{{endpoint=\"{label}\",le=\"{bound}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{endpoint=\"{label}\",le=\"+Inf\"}} {total}"
        );
        let _ = writeln!(out, "{name}_sum{{endpoint=\"{label}\"}} {sum}");
        let _ = writeln!(out, "{name}_count{{endpoint=\"{label}\"}} {total}");
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label_value(raw: &str) -> String {
    let mut esc = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => esc.push_str("\\\\"),
            '"' => esc.push_str("\\\""),
            '\n' => esc.push_str("\\n"),
            other => esc.push(other),
        }
    }
    esc
}

fn format_u64(v: u64) -> String {
    v.to_string()
}

/// Prometheus floats: plain decimal; make integral floats explicit so
/// `1` and `1.0` don't flip-flop between scrapes.
fn format_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.is_finite() {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Json {
        Json::parse(
            r#"{
              "uptime_us": 123,
              "requests": 4,
              "queue": {"depth": 1, "capacity": 8, "rejected_429": 0},
              "workers": {"count": 2, "utilization": 0.25},
              "latency_us": {
                "GET /v1/metrics": {
                  "bounds": [100, 500],
                  "counts": [2, 1, 1],
                  "total": 4,
                  "sum": 900,
                  "mean": 225.0
                }
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn scalars_flatten_with_types() {
        let text = render_prometheus(&sample_doc());
        assert!(text.contains("# TYPE ucsim_uptime_us counter"), "{text}");
        assert!(text.contains("ucsim_uptime_us 123\n"), "{text}");
        assert!(text.contains("# TYPE ucsim_queue_depth gauge"), "{text}");
        assert!(text.contains("ucsim_queue_depth 1\n"), "{text}");
        assert!(text.contains("ucsim_queue_rejected_429 0\n"), "{text}");
        assert!(text.contains("ucsim_workers_utilization 0.25\n"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = render_prometheus(&sample_doc());
        let label = "endpoint=\"GET /v1/metrics\"";
        assert!(
            text.contains(&format!(
                "ucsim_request_latency_us_bucket{{{label},le=\"100\"}} 2"
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "ucsim_request_latency_us_bucket{{{label},le=\"500\"}} 3"
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "ucsim_request_latency_us_bucket{{{label},le=\"+Inf\"}} 4"
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!("ucsim_request_latency_us_sum{{{label}}} 900")),
            "{text}"
        );
        assert!(
            text.contains(&format!("ucsim_request_latency_us_count{{{label}}} 4")),
            "{text}"
        );
        assert!(
            text.contains("# TYPE ucsim_request_latency_us histogram"),
            "{text}"
        );
    }

    #[test]
    fn every_numeric_leaf_is_exported() {
        let doc = sample_doc();
        let text = render_prometheus(&doc);
        fn check(node: &Json, path: &mut Vec<String>, text: &str) {
            match node {
                Json::Obj(members) => {
                    for (k, v) in members {
                        if path.is_empty() && k == "latency_us" {
                            continue; // histogram special case, checked above
                        }
                        path.push(k.clone());
                        check(v, path, text);
                        path.pop();
                    }
                }
                Json::Uint(_) | Json::Int(_) | Json::Float(_) => {
                    let name = format!("ucsim_{}", path.join("_"));
                    assert!(
                        text.contains(&format!("\n{name} "))
                            || text.starts_with(&format!("{name} ")),
                        "missing series {name} in:\n{text}"
                    );
                }
                _ => {}
            }
        }
        check(&doc, &mut Vec::new(), &text);
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(format_f64(1.0), "1.0");
        assert_eq!(format_f64(0.25), "0.25");
        assert_eq!(format_f64(0.0), "0.0");
    }
}
