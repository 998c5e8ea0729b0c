//! End-to-end tests of the observability surface: the Prometheus wire
//! contract for `GET /v1/metrics`, request-ID propagation from the HTTP
//! edge through the worker pool into failure envelopes, per-job
//! execution profiles, the trace ring endpoint, and the health/version
//! introspection pair.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ucsim::model::Json;
use ucsim::serve::{request, Client, Server, ServerConfig};

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 8,
        cache_budget_bytes: 8 * 1024 * 1024,
        retry_after_secs: 2,
        retain_jobs: 64,
        enable_test_workloads: true,
        ..ServerConfig::default()
    }
}

fn parse_json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON from server: {e}\n{body}"))
}

/// One-shot request with arbitrary extra headers (the library clients
/// only set their own); reads to EOF on a `Connection: close` socket.
fn raw_request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: {addr}\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!(
        "content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    ));
    // One write, like the library clients: a separate body write would
    // wait on Nagle for the server's delayed ACK.
    let mut msg = head.into_bytes();
    msg.extend_from_slice(body);
    stream.write_all(&msg).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = std::str::from_utf8(&raw[..split]).unwrap();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_lowercase(), v.trim().to_owned()))
        .collect();
    let body = String::from_utf8_lossy(&raw[split + 4..]).into_owned();
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Pulls the value of a single un-labeled series out of an exposition.
fn series_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

/// The Prometheus wire contract: text negotiation via `Accept`, every
/// numeric leaf of the JSON document exported as a `ucsim_*` series,
/// histogram series per endpoint label, and counters that only grow
/// between scrapes.
#[test]
fn prometheus_exposition_matches_json_and_counters_grow() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    // Generate some traffic first so the counters are non-trivial.
    let r = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:10","warmup":100,"insts":2000}"#,
    )
    .unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());

    // Default form is JSON...
    let json_resp = request(&addr, "GET", "/v1/metrics", b"").unwrap();
    assert_eq!(json_resp.header("content-type"), Some("application/json"));
    let doc = parse_json(&json_resp.body_str());

    // ...and `Accept: text/plain` switches to the exposition format.
    let (status, headers, text) = raw_request(
        &addr,
        "GET",
        "/v1/metrics",
        &[("accept", "text/plain")],
        b"",
    );
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );

    // Every numeric leaf of the JSON document (outside the latency
    // subtree, which renders as a native histogram) appears as a series.
    fn check_leaves(node: &Json, path: &mut Vec<String>, text: &str) {
        match node {
            Json::Obj(members) => {
                for (k, v) in members {
                    if path.is_empty() && k == "latency_us" {
                        continue;
                    }
                    path.push(k.clone());
                    check_leaves(v, path, text);
                    path.pop();
                }
            }
            Json::Uint(_) | Json::Int(_) | Json::Float(_) => {
                let name = format!("ucsim_{}", path.join("_"));
                assert!(
                    text.lines().any(|l| l.starts_with(&format!("{name} "))),
                    "JSON leaf {name} missing from exposition:\n{text}"
                );
            }
            _ => {}
        }
    }
    check_leaves(&doc, &mut Vec::new(), &text);

    // The latency subtree renders as a labeled histogram with cumulative
    // buckets, +Inf, _sum and _count.
    assert!(
        text.contains("# TYPE ucsim_request_latency_us histogram"),
        "{text}"
    );
    assert!(
        text.contains("ucsim_request_latency_us_bucket{endpoint=\"POST /v1/sim\",le=\"+Inf\"} "),
        "{text}"
    );
    assert!(
        text.contains("ucsim_request_latency_us_count{endpoint=\"POST /v1/sim\"} "),
        "{text}"
    );

    // Counters are monotone across scrapes: more traffic, second scrape,
    // strictly more requests and no counter went backwards.
    let first_requests = series_value(&text, "ucsim_requests").expect("requests series");
    for _ in 0..3 {
        let h = request(&addr, "GET", "/v1/healthz", b"").unwrap();
        assert_eq!(h.status, 200);
    }
    let (_, _, text2) = raw_request(
        &addr,
        "GET",
        "/v1/metrics",
        &[("accept", "text/plain")],
        b"",
    );
    let second_requests = series_value(&text2, "ucsim_requests").expect("requests series");
    assert!(
        second_requests >= first_requests + 3.0,
        "requests went from {first_requests} to {second_requests}"
    );
    for name in [
        "ucsim_workers_jobs_executed",
        "ucsim_queue_rejected_429",
        "ucsim_cache_hits",
        "ucsim_cache_misses",
    ] {
        let a = series_value(&text, name).unwrap_or_else(|| panic!("missing {name}"));
        let b = series_value(&text2, name).unwrap_or_else(|| panic!("missing {name}"));
        assert!(b >= a, "{name} went backwards: {a} -> {b}");
    }

    server.shutdown();
}

/// Request IDs: a client-supplied `X-Request-Id` is echoed on the
/// response; a server-minted one appears when the client sends none; and
/// the ID submitted with a job that panics its worker surfaces in the
/// job's failure envelope.
#[test]
fn request_ids_echo_and_reach_failure_envelopes() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    // Client-supplied ID round-trips on the response headers.
    let mut client = Client::new(&addr);
    client.set_request_id(Some("obs-echo-1".to_owned()));
    let r = client.request("GET", "/v1/healthz", b"").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-request-id"), Some("obs-echo-1"));

    // No ID supplied: the server mints one.
    let r = request(&addr, "GET", "/v1/healthz", b"").unwrap();
    let minted = r.header("x-request-id").expect("server-minted id");
    assert!(minted.starts_with("req-"), "minted id: {minted}");

    // A job whose worker panics carries the submitting request's ID all
    // the way into the failure envelope.
    client.set_request_id(Some("obs-panic-7".to_owned()));
    let r = client
        .request(
            "POST",
            "/v1/sim",
            br#"{"workload":"test-panic","warmup":100,"insts":2000,"background":true}"#,
        )
        .unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    assert_eq!(r.header("x-request-id"), Some("obs-panic-7"));
    let id = parse_json(&r.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    let failure = loop {
        let r = request(&addr, "GET", &format!("/v1/jobs/{id}"), b"").unwrap();
        assert_eq!(r.status, 200);
        let v = parse_json(&r.body_str());
        // The one-release `status` alias is gone in v1.1.
        assert!(v.get("status").is_none(), "v1.1 dropped the status alias");
        match v.get("state").unwrap().as_str().unwrap() {
            "failed" => break v.get("error").expect("failed job has an error").clone(),
            "done" => panic!("test-panic job finished without failing"),
            _ => {
                assert!(Instant::now() < deadline, "job never settled");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    assert_eq!(
        failure.get("code").unwrap().as_str(),
        Some("simulation_failed")
    );
    assert!(failure
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("worker panicked"));
    assert_eq!(
        failure.get("request_id").unwrap().as_str(),
        Some("obs-panic-7")
    );

    // The pool supervisor respawned the panicked worker.
    let m = parse_json(
        &request(&addr, "GET", "/v1/metrics", b"")
            .unwrap()
            .body_str(),
    );
    assert_eq!(
        m.get("workers")
            .unwrap()
            .get("workers_respawned")
            .unwrap()
            .as_u64(),
        Some(1)
    );
    drop(client);
    server.shutdown();
}

/// A synchronous `POST /v1/sim` whose job fails answers with the failure
/// envelope carrying the submitting request's ID, and the negative-cache
/// replay of that failure names the same request.
#[test]
fn synchronous_failure_envelopes_carry_the_request_id() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let body = br#"{"workload":"test-panic","warmup":100,"insts":2000}"#;
    let mut client = Client::new(&addr);
    for id in ["probe-sync-1", "probe-sync-2"] {
        client.set_request_id(Some(id.to_owned()));
        let r = client.request("POST", "/v1/sim", body).unwrap();
        assert_eq!(r.status, 500, "body: {}", r.body_str());
        assert_eq!(r.header("x-request-id"), Some(id));
        let v = parse_json(&r.body_str());
        let e = v.get("error").expect("error envelope");
        assert_eq!(e.get("code").unwrap().as_str(), Some("simulation_failed"));
        assert_eq!(
            e.get("request_id").and_then(Json::as_str),
            Some("probe-sync-1"),
            "the failure is attributable to the request that ran it: {v}"
        );
    }
    drop(client);
    server.shutdown();
}

/// A job that actually executed exposes a per-stage profile; cache hits
/// and unknown jobs answer honestly.
#[test]
fn job_profile_reports_stage_timings_and_counters() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    let r = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"bm-cc","seed":7,"warmup":1000,"insts":20000,"background":true}"#,
    )
    .unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    let id = parse_json(&r.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = request(&addr, "GET", &format!("/v1/jobs/{id}"), b"").unwrap();
        let v = parse_json(&r.body_str());
        match v.get("state").unwrap().as_str().unwrap() {
            "done" => {
                // v1.1: canonical `result` only — the `response` alias
                // from the v1 deprecation cycle no longer renders.
                assert!(v.get("result").is_some());
                assert!(v.get("response").is_none(), "response alias removed");
                assert!(v.get("created_at").unwrap().as_u64().is_some());
                break;
            }
            "failed" => panic!("job failed: {}", r.body_str()),
            _ => {
                assert!(Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    let r = request(&addr, "GET", &format!("/v1/jobs/{id}/profile"), b"").unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());
    let v = parse_json(&r.body_str());
    assert_eq!(v.get("state").unwrap().as_str(), Some("done"));
    let profile = v.get("profile").expect("profile key");
    assert_ne!(profile, &Json::Null, "executed job must carry a profile");
    assert_eq!(profile.get("jobs").unwrap().as_u64(), Some(1));
    assert!(profile.get("wall_ns").unwrap().as_u64().unwrap() > 0);
    let stages = profile.get("stages").unwrap();
    for stage in ["predict", "uc_lookup", "decode", "retire"] {
        let s = stages
            .get(stage)
            .unwrap_or_else(|| panic!("stage {stage} missing: {profile}"));
        assert!(
            s.get("count").unwrap().as_u64().unwrap() > 0,
            "stage {stage} never fired"
        );
    }
    // Every call is counted; the clock is read on the middle call of
    // each stride, and the histogram holds exactly those.
    for st in ucsim::obs::Stage::ALL {
        let (stage, stride) = (st.name(), st.stride());
        let s = stages.get(stage).unwrap();
        let count = s.get("count").unwrap().as_u64().unwrap();
        let timed = s.get("timed").unwrap().as_u64().unwrap();
        assert!(
            timed <= count,
            "stage {stage}: timed {timed} > count {count}"
        );
        assert_eq!(
            timed,
            (count + stride / 2 - 1) / stride,
            "stage {stage}: {s}"
        );
        let Some(Json::Arr(buckets)) = s.get("buckets") else {
            panic!("stage {stage}: no buckets: {s}");
        };
        let bucketed: u64 = buckets.iter().filter_map(Json::as_u64).sum();
        assert_eq!(
            bucketed, timed,
            "stage {stage}: buckets hold the timed calls"
        );
    }
    let counters = profile.get("counters").unwrap();
    let hits = counters.get("oc_hits").unwrap().as_u64().unwrap();
    let misses = counters.get("oc_misses").unwrap().as_u64().unwrap();
    assert!(hits + misses > 0, "uop-cache lookups unaccounted");

    // Unknown job: 404 envelope, not a panic.
    let r = request(&addr, "GET", "/v1/jobs/9999/profile", b"").unwrap();
    assert_eq!(r.status, 404);

    server.shutdown();
}

/// `/v1/healthz` reports queue/worker/store state and `/v1/version`
/// reports build identity; the legacy `/healthz` alias is gone in v1.1.
#[test]
fn healthz_and_version_describe_the_server() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    let r = request(&addr, "GET", "/v1/healthz", b"").unwrap();
    assert_eq!(r.status, 200);
    let v = parse_json(&r.body_str());
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
    let queue = v.get("queue").unwrap();
    assert_eq!(queue.get("capacity").unwrap().as_u64(), Some(8));
    let workers = v.get("workers").unwrap();
    assert_eq!(workers.get("alive").unwrap().as_u64(), Some(2));
    assert_eq!(workers.get("count").unwrap().as_u64(), Some(2));
    let store = v.get("store").unwrap();
    assert_eq!(store.get("present").unwrap().as_bool(), Some(false));
    assert_eq!(store.get("writable").unwrap().as_bool(), Some(true));

    // The deprecated alias completed its one-release cycle (DESIGN.md
    // §4.1) and was removed with the v1.1 contract.
    let legacy = request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(legacy.status, 404);

    let r = request(&addr, "GET", "/v1/version", b"").unwrap();
    assert_eq!(r.status, 200);
    let v = parse_json(&r.body_str());
    assert_eq!(
        v.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert_eq!(v.get("api").unwrap().as_str(), Some("v1.2"));
    assert_eq!(v.get("store_format").unwrap().as_str(), Some("UCSTOR03"));
    let features = v.get("features").unwrap();
    assert_eq!(features.get("observability").unwrap().as_bool(), Some(true));
    assert_eq!(
        features.get("test_workloads").unwrap().as_bool(),
        Some(true)
    );
    assert!(features.get("fault_injection").unwrap().as_bool().is_some());
    assert_eq!(features.get("programs").unwrap().as_bool(), Some(true));

    server.shutdown();
}

/// The trace endpoint drains span events with a resumable cursor.
#[test]
fn trace_endpoint_streams_span_events() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    // Traffic to trace, including a job execution.
    let r = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:10","warmup":100,"insts":2000}"#,
    )
    .unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());

    let r = request(&addr, "GET", "/v1/trace", b"").unwrap();
    assert_eq!(r.status, 200);
    let v = parse_json(&r.body_str());
    assert_eq!(v.get("enabled").unwrap().as_bool(), Some(true));
    let events = v.get("events").unwrap().as_arr().unwrap();
    assert!(!events.is_empty(), "no span events recorded");
    let kinds: Vec<&str> = events
        .iter()
        .map(|e| e.get("kind").unwrap().as_str().unwrap())
        .collect();
    for expected in ["accept", "parse", "handle", "queue_wait", "execute"] {
        assert!(kinds.contains(&expected), "no {expected} span in {kinds:?}");
    }
    for e in events {
        assert!(e.get("seq").unwrap().as_u64().is_some());
        assert!(e.get("start_us").unwrap().as_u64().is_some());
        assert_eq!(e.get("request_id").unwrap().as_str().unwrap().len(), 16);
    }
    let next = v.get("next_since").unwrap().as_u64().unwrap();
    assert!(next > 0);

    // Resuming from the cursor re-delivers nothing already consumed.
    let r = request(&addr, "GET", &format!("/v1/trace?since={next}"), b"").unwrap();
    let v2 = parse_json(&r.body_str());
    for e in v2.get("events").unwrap().as_arr().unwrap() {
        assert!(e.get("seq").unwrap().as_u64().unwrap() >= next);
    }

    server.shutdown();
}
