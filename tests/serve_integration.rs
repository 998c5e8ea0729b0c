//! End-to-end tests of the `ucsim-serve` job service: a real server on an
//! ephemeral port, real TCP clients, request coalescing, the content
//! cache, matrix sweeps, the persistent store, keep-alive connections,
//! the uniform error envelope, backpressure, and graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
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

/// Decodes the uniform error envelope, returning `(code, retry_after)`.
fn envelope_code(body: &str) -> (String, Option<u64>) {
    let v = parse_json(body);
    let e = v
        .get("error")
        .unwrap_or_else(|| panic!("no envelope in {body}"));
    assert!(e.get("message").and_then(Json::as_str).is_some());
    (
        e.get("code").unwrap().as_str().unwrap().to_owned(),
        e.get("retry_after").and_then(Json::as_u64),
    )
}

/// Polls `GET /v1/matrix/:id` on a kept-alive connection until the sweep
/// finishes, returning the final document.
fn poll_sweep(client: &mut Client, id: u64) -> Json {
    let path = format!("/v1/matrix/{id}");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let r = client.request("GET", &path, b"").unwrap();
        assert_eq!(r.status, 200, "body: {}", r.body_str());
        let v = parse_json(&r.body_str());
        match v.get("state").unwrap().as_str().unwrap() {
            "done" => return v,
            "failed" => panic!("sweep failed: {}", r.body_str()),
            _ => {
                assert!(Instant::now() < deadline, "sweep never finished");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// The acceptance-criteria test: the same job submitted from four
/// concurrent clients yields byte-identical responses, exactly one
/// simulation, and a consistent `/v1/metrics` document.
#[test]
fn concurrent_identical_jobs_coalesce_to_one_simulation() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    // The worker holds the job for 500 ms before simulating, so all four
    // clients are in flight together and coalesce deterministically.
    let body = br#"{"workload":"test-sleep:500","seed":1,"warmup":500,"insts":5000}"#;

    let responses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || request(&addr, "POST", "/v1/sim", body).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for r in &responses {
        assert_eq!(r.status, 200, "body: {}", r.body_str());
    }
    // All four responses are byte-identical.
    for r in &responses[1..] {
        assert_eq!(
            r.body, responses[0].body,
            "responses differ between clients"
        );
    }
    // Exactly one simulation ran.
    assert_eq!(server.simulations_executed(), 1);

    let env = parse_json(&responses[0].body_str());
    assert_eq!(env.get("cached").unwrap().as_bool(), Some(false));
    let report = env.get("report").expect("envelope carries the report");
    assert!(report.get("upc").unwrap().as_f64().unwrap() > 0.0);

    // A later identical request is served from the cache, same report.
    let again = request(&addr, "POST", "/v1/sim", body).unwrap();
    assert_eq!(again.status, 200);
    let env2 = parse_json(&again.body_str());
    assert_eq!(env2.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(env2.get("key").unwrap(), env.get("key").unwrap());
    assert_eq!(env2.get("report").unwrap(), report);
    assert_eq!(
        server.simulations_executed(),
        1,
        "cache hit must not re-run"
    );

    // /v1/metrics is consistent with what just happened.
    let m = request(&addr, "GET", "/v1/metrics", b"").unwrap();
    assert_eq!(m.status, 200);
    let m = parse_json(&m.body_str());
    let workers = m.get("workers").unwrap();
    assert_eq!(workers.get("count").unwrap().as_u64(), Some(2));
    assert_eq!(workers.get("jobs_executed").unwrap().as_u64(), Some(1));
    assert_eq!(workers.get("busy").unwrap().as_u64(), Some(0));
    let queue = m.get("queue").unwrap();
    assert_eq!(queue.get("depth").unwrap().as_u64(), Some(0));
    assert_eq!(queue.get("capacity").unwrap().as_u64(), Some(8));
    let cache = m.get("cache").unwrap();
    // Three coalesced joiners + one resident-cache hit.
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(4));
    assert_eq!(cache.get("coalesced").unwrap().as_u64(), Some(3));
    // Each of the four concurrent lookups missed before coalescing.
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(4));
    assert_eq!(cache.get("entries").unwrap().as_u64(), Some(1));
    // 4 coalesced + 1 cached = 5 (a request is counted after it is
    // answered, so this metrics read doesn't see itself).
    assert!(m.get("requests").unwrap().as_u64().unwrap() >= 5);
    let lat = m.get("latency_us").unwrap();
    assert_eq!(
        lat.get("POST /v1/sim")
            .unwrap()
            .get("total")
            .unwrap()
            .as_u64(),
        Some(5)
    );

    server.shutdown();
}

/// A full queue answers 429 + `Retry-After` immediately — it never blocks
/// the client or panics the server — and the drain still completes.
#[test]
fn full_queue_returns_429_with_retry_after() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..test_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    // Job A occupies the single worker for 600 ms.
    let a = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:600","warmup":100,"insts":2000,"background":true}"#,
    )
    .unwrap();
    assert_eq!(a.status, 202, "body: {}", a.body_str());
    let a_id = parse_json(&a.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    // Let the worker pop A off the queue.
    std::thread::sleep(Duration::from_millis(150));

    // Job B fills the (capacity-1) queue.
    let b = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:601","warmup":100,"insts":2000,"background":true}"#,
    )
    .unwrap();
    assert_eq!(b.status, 202, "body: {}", b.body_str());

    // Job C must be rejected immediately with backpressure headers.
    let t0 = Instant::now();
    let c = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:602","warmup":100,"insts":2000,"background":true}"#,
    )
    .unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(c.status, 429, "body: {}", c.body_str());
    assert_eq!(c.header("retry-after"), Some("2"));
    // The envelope mirrors the Retry-After header into the body.
    let (code, retry) = envelope_code(&c.body_str());
    assert_eq!(code, "queue_full");
    assert_eq!(retry, Some(2));
    assert!(
        elapsed < Duration::from_millis(500),
        "429 must not block (took {elapsed:?})"
    );
    let m = parse_json(
        &request(&addr, "GET", "/v1/metrics", b"")
            .unwrap()
            .body_str(),
    );
    assert_eq!(
        m.get("queue")
            .unwrap()
            .get("rejected_429")
            .unwrap()
            .as_u64(),
        Some(1)
    );

    // Poll job A until it completes.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let r = request(&addr, "GET", &format!("/v1/jobs/{a_id}"), b"").unwrap();
        assert_eq!(r.status, 200);
        let j = parse_json(&r.body_str());
        match j.get("state").unwrap().as_str().unwrap() {
            "done" => {
                let resp = j.get("result").expect("done job embeds its result");
                assert_eq!(resp.get("cached").unwrap().as_bool(), Some(false));
                assert!(resp.get("report").is_some());
                break;
            }
            "failed" => panic!("job failed: {}", r.body_str()),
            _ => {
                assert!(Instant::now() < deadline, "job never finished");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    // Graceful drain: B is still queued or running; shutdown waits for it.
    server.shutdown();
}

/// Sends one `POST /v1/sim` (with any `extra_headers` lines) on a fresh
/// connection and returns the status code of the response, or `None`
/// when no status line arrives within `timeout`.
fn sim_status_within(
    addr: &str,
    extra_headers: &str,
    body: &str,
    timeout: Duration,
) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    let head = format!(
        "POST /v1/sim HTTP/1.1\r\nHost: {addr}\r\n{extra_headers}Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(format!("{head}{body}").as_bytes()).ok()?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while !line.ends_with(b"\r\n") {
        if stream.read(&mut byte).ok()? == 0 {
            return None;
        }
        line.push(byte[0]);
    }
    // "HTTP/1.1 429 Too Many Requests"
    String::from_utf8(line)
        .ok()?
        .split(' ')
        .nth(1)?
        .parse()
        .ok()
}

/// Requests that coalesce onto a job the full queue is refusing still get
/// an answer: a fresh job only becomes joinable once the scheduler
/// accepted it, so nobody waits on a job no worker will run. One worker
/// is busy and the one-slot queue is full; rounds of eight concurrent
/// identical requests for a fresh key race the refusal, and every one of
/// them must get a status line.
#[test]
fn requests_racing_a_full_queue_all_get_a_status() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        drain_timeout: Duration::from_secs(1),
        ..test_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    // Job A holds the single worker; job B then fills the queue slot.
    let a = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:4000","warmup":100,"insts":2000,"background":true}"#,
    )
    .unwrap();
    assert_eq!(a.status, 202, "body: {}", a.body_str());
    let a_id = parse_json(&a.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let r = request(&addr, "GET", &format!("/v1/jobs/{a_id}"), b"").unwrap();
        if parse_json(&r.body_str()).get("state").unwrap().as_str() == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job A never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    let b = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:4001","warmup":100,"insts":2000,"background":true}"#,
    )
    .unwrap();
    assert_eq!(b.status, 202, "body: {}", b.body_str());

    let t0 = Instant::now();
    let mut round = 0u64;
    while t0.elapsed() < Duration::from_millis(2500) {
        round += 1;
        let body = format!(r#"{{"workload":"bm-cc","seed":{round},"warmup":100,"insts":2000}}"#);
        let barrier = Barrier::new(8);
        let statuses: Vec<Option<u16>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        sim_status_within(&addr, "", &body, Duration::from_secs(2))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            statuses.iter().all(Option::is_some),
            "round {round}: a request got no answer: {statuses:?}"
        );
    }
    server.shutdown();
}

/// Unknown workloads and malformed bodies are 400s; unknown paths 404;
/// wrong methods 405. None of them disturb the queue.
#[test]
fn error_paths_answer_without_side_effects() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    let r = request(&addr, "POST", "/v1/sim", br#"{"workload":"no-such-wl"}"#).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_str().contains("unknown workload"));
    assert_eq!(envelope_code(&r.body_str()).0, "unknown_workload");

    let r = request(&addr, "POST", "/v1/sim", b"{not json").unwrap();
    assert_eq!(r.status, 400);
    assert_eq!(envelope_code(&r.body_str()).0, "bad_request");

    // An unknown policy, and two axes that give no valid uop-cache
    // geometry: a capacity with a non-power-of-two set count, and
    // compaction with one entry per line.
    for body in [
        br#"{"workloads":["bm-cc"],"policies":["zap"]}"#.as_slice(),
        br#"{"workloads":["bm-cc"],"capacities":[3000]}"#,
        br#"{"workloads":["bm-cc"],"policies":["rac"],"max_entries":1}"#,
    ] {
        let r = request(&addr, "POST", "/v1/matrix", body).unwrap();
        assert_eq!(r.status, 400, "body: {}", r.body_str());
        assert_eq!(envelope_code(&r.body_str()).0, "bad_request");
    }

    let r = request(&addr, "GET", "/v1/jobs/999", b"").unwrap();
    assert_eq!(r.status, 404);
    assert_eq!(envelope_code(&r.body_str()).0, "not_found");

    let r = request(&addr, "GET", "/v1/matrix/999", b"").unwrap();
    assert_eq!(r.status, 404);
    assert_eq!(envelope_code(&r.body_str()).0, "not_found");

    let r = request(&addr, "GET", "/nope", b"").unwrap();
    assert_eq!(r.status, 404);
    assert_eq!(envelope_code(&r.body_str()).0, "not_found");

    let r = request(&addr, "GET", "/v1/sim", b"").unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(envelope_code(&r.body_str()).0, "method_not_allowed");

    let r = request(&addr, "DELETE", "/v1/matrix", b"").unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(envelope_code(&r.body_str()).0, "method_not_allowed");

    // The bare /healthz alias was removed in v1.1; only /v1/healthz lives.
    let r = request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(r.status, 404);
    assert_eq!(envelope_code(&r.body_str()).0, "not_found");
    let r = request(&addr, "GET", "/v1/healthz", b"").unwrap();
    assert_eq!(r.status, 200);

    assert_eq!(server.simulations_executed(), 0);
    let m = parse_json(
        &request(&addr, "GET", "/v1/metrics", b"")
            .unwrap()
            .body_str(),
    );
    assert_eq!(
        m.get("queue").unwrap().get("depth").unwrap().as_u64(),
        Some(0)
    );

    // The rejections left the server able to run a valid sweep.
    let mut client = Client::new(&addr);
    let body = br#"{"workloads":["bm-cc"],"capacities":[2048],"warmup":500,"insts":2000}"#;
    let r = client.request("POST", "/v1/matrix", body).unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    let id = parse_json(&r.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(
        poll_sweep(&mut client, id).get("done").unwrap().as_u64(),
        Some(1)
    );
    server.shutdown();
}

/// Configurations that would hang a worker, corrupt the uop cache or
/// allocate without bound, and run lengths past the trace budget, get a
/// prompt 400 `bad_request` on every path that admits a job (direct,
/// forwarded, matrix), and the node keeps serving.
#[test]
fn hostile_configs_and_run_lengths_are_refused_at_admission() {
    use ucsim::model::ToJson;
    use ucsim::pipeline::SimConfig;
    use ucsim::serve::JobSpec;

    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let edits: [fn(&mut SimConfig); 6] = [
        |c| c.core.decode_width = 0,
        |c| {
            c.uop_cache.sets = 1;
            c.uop_cache.ways = 300;
        },
        |c| c.uop_cache.sets = 1 << 40,
        |c| c.core.rob_size = 1 << 40,
        |c| c.bpu.tage.table_bits = 48,
        |c| c.mem.l3.sets = 1 << 40,
    ];
    for edit in edits {
        let mut config = SimConfig::table1().with_insts(1_000, 5_000);
        edit(&mut config);
        let body = format!(
            r#"{{"workload":"bm-cc","config":{}}}"#,
            config.to_json_string()
        );
        let t0 = Instant::now();
        let status = sim_status_within(&addr, "", &body, Duration::from_secs(10));
        assert_eq!(status, Some(400), "config {body}");
        assert!(t0.elapsed() < Duration::from_secs(5));
        let r = request(&addr, "POST", "/v1/sim", body.as_bytes()).unwrap();
        assert_eq!(envelope_code(&r.body_str()).0, "bad_request");

        // A peer's forwarded spec is checked by the same rule.
        let spec = JobSpec {
            workload: "bm-cc".to_owned(),
            seed: 1,
            config,
        };
        let status = sim_status_within(
            &addr,
            "x-ucsim-forwarded: 1\r\n",
            &spec.canonical(),
            Duration::from_secs(10),
        );
        assert_eq!(status, Some(400));
    }

    // Run lengths: past the 8M trace budget, and overflowing u64.
    for (warmup, insts) in [(8_000_000u64, 1u64), (u64::MAX, 1)] {
        let body = format!(r#"{{"workload":"bm-cc","warmup":{warmup},"insts":{insts}}}"#);
        let r = request(&addr, "POST", "/v1/sim", body.as_bytes()).unwrap();
        assert_eq!(r.status, 400, "body: {}", r.body_str());
        assert_eq!(envelope_code(&r.body_str()).0, "bad_request");
        let body = format!(
            r#"{{"workloads":["bm-cc"],"capacities":[2048],"warmup":{warmup},"insts":{insts}}}"#
        );
        let r = request(&addr, "POST", "/v1/matrix", body.as_bytes()).unwrap();
        assert_eq!(r.status, 400, "body: {}", r.body_str());
        assert_eq!(envelope_code(&r.body_str()).0, "bad_request");
    }
    // A capacity past the uop-cache cap is refused by matrix expansion.
    let body = br#"{"workloads":["bm-cc"],"capacities":[1099511627776]}"#;
    let r = request(&addr, "POST", "/v1/matrix", body).unwrap();
    assert_eq!(r.status, 400, "body: {}", r.body_str());
    assert_eq!(server.simulations_executed(), 0);

    // The node still serves a normal job.
    let body = br#"{"workload":"bm-cc","seed":7,"warmup":1000,"insts":6000}"#;
    let r = request(&addr, "POST", "/v1/sim", body).unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());
    server.shutdown();
}

/// A real Table II workload runs end to end through the service and the
/// returned report decodes as a SimReport.
#[test]
fn real_workload_round_trips_through_the_service() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    let body = br#"{"workload":"bm-cc","seed":7,"warmup":1000,"insts":20000}"#;
    let r = request(&addr, "POST", "/v1/sim", body).unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());
    let env = parse_json(&r.body_str());
    let report_text = env.get("report").unwrap().to_string();
    let report =
        <ucsim::pipeline::SimReport as ucsim::model::FromJson>::from_json_str(&report_text)
            .expect("report decodes as SimReport");
    // The simulator stops at a prediction-window boundary, so the count
    // lands a handful of instructions under the requested 20000.
    assert!(report.insts >= 19000, "insts = {}", report.insts);
    assert!(report.upc > 0.0);

    // Same spec again: cached, and the decoded report is identical.
    let r2 = request(&addr, "POST", "/v1/sim", body).unwrap();
    let env2 = parse_json(&r2.body_str());
    assert_eq!(env2.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(env2.get("report").unwrap().to_string(), report_text);
    assert_eq!(server.simulations_executed(), 1);
    server.shutdown();
}

/// The matrix acceptance test: a 2×2 capacity × policy sweep served via
/// `POST /v1/matrix` produces per-cell reports byte-identical (canonical
/// JSON) to direct `Simulator` runs over the same `MatrixCross`
/// expansion `run_matrix` uses offline — and the whole exchange rides a
/// single kept-alive connection.
#[test]
fn matrix_sweep_matches_direct_simulator_runs() {
    use ucsim::model::ToJson;
    use ucsim::pipeline::Simulator;
    use ucsim::trace::{Program, WorkloadProfile};
    use ucsim_bench::{MatrixCross, SweepPolicy};

    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::new(&addr);

    let body = br#"{"workloads":["bm-cc"],"capacities":[2048,4096],"policies":["baseline","clasp"],"seed":7,"warmup":1000,"insts":20000}"#;
    let r = client.request("POST", "/v1/matrix", body).unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    let accepted = parse_json(&r.body_str());
    let id = accepted.get("id").unwrap().as_u64().unwrap();
    assert_eq!(accepted.get("planned").unwrap().as_u64(), Some(4));

    let v = poll_sweep(&mut client, id);
    assert_eq!(v.get("done").unwrap().as_u64(), Some(4));
    assert_eq!(v.get("simulated").unwrap().as_u64(), Some(4));
    let sweep = v.get("report").expect("done sweep embeds the aggregate");
    assert_eq!(
        sweep.get("labels").unwrap().to_string(),
        r#"["OC_2K:baseline","OC_2K:CLASP","OC_4K:baseline","OC_4K:CLASP"]"#
    );

    // The offline reference: the same cross expanded through the same
    // shared code path, simulated directly.
    let cross = MatrixCross {
        capacities: vec![2048, 4096],
        policies: vec![SweepPolicy::Baseline, SweepPolicy::Clasp],
        max_entries: 2,
    };
    let mut profile = WorkloadProfile::by_name("bm-cc").unwrap();
    profile.seed = 7;
    let program = Program::generate(&profile);
    let cells = sweep.get("cells").unwrap().as_arr().unwrap();
    for (cell, lc) in cells.iter().zip(cross.expand()) {
        let mut cfg = lc.config.clone();
        cfg.warmup_insts = 1000;
        cfg.measure_insts = 20000;
        let expected = Simulator::new(cfg).run(&profile, &program).to_json_string();
        assert_eq!(
            cell.get("report").unwrap().to_string(),
            expected,
            "cell {} diverges from the direct run",
            lc.label
        );
        assert_eq!(cell.get("label").unwrap().as_str(), Some(lc.label.as_str()));
    }
    assert_eq!(server.simulations_executed(), 4);
    // Submit + every poll used one TCP connection.
    assert_eq!(client.connects(), 1);
    drop(client);
    server.shutdown();
}

/// A killed-and-restarted server answers a whole sweep from the
/// persistent store: zero re-simulations, all cells cache hits.
#[test]
fn restart_serves_sweep_from_persistent_store() {
    let data_dir = std::env::temp_dir().join(format!("ucsim-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let cfg = ServerConfig {
        data_dir: Some(data_dir.clone()),
        ..test_config()
    };
    let body = br#"{"workloads":["bm-cc"],"capacities":[2048],"policies":["baseline","clasp"],"seed":7,"warmup":1000,"insts":20000}"#;

    // First life: simulate the sweep and persist every cell.
    let first_sweep = {
        let server = Server::start(cfg.clone()).unwrap();
        let mut client = Client::new(&server.local_addr().to_string());
        let r = client.request("POST", "/v1/matrix", body).unwrap();
        assert_eq!(r.status, 202, "body: {}", r.body_str());
        let id = parse_json(&r.body_str())
            .get("id")
            .unwrap()
            .as_u64()
            .unwrap();
        let v = poll_sweep(&mut client, id);
        assert_eq!(server.simulations_executed(), 2);
        drop(client);
        server.shutdown();
        v.get("report").unwrap().to_string()
    };

    // Second life: same data dir. The same sweep completes without a
    // single simulation — every cell replays from the store.
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::new(&addr);
    let r = client.request("POST", "/v1/matrix", body).unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    let id = parse_json(&r.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    let v = poll_sweep(&mut client, id);
    assert_eq!(
        v.get("report").unwrap().to_string(),
        first_sweep,
        "restarted sweep must be byte-identical"
    );
    assert_eq!(server.simulations_executed(), 0, "no re-simulation");
    // Store-aware resume: the plan resolved every cell from the store.
    assert_eq!(v.get("planned").unwrap().as_u64(), Some(2));
    assert_eq!(v.get("skipped_from_store").unwrap().as_u64(), Some(2));
    assert_eq!(v.get("simulated").unwrap().as_u64(), Some(0));

    // The cache counters confirm both cells came from the replayed store.
    let m = parse_json(
        &client
            .request("GET", "/v1/metrics", b"")
            .unwrap()
            .body_str(),
    );
    let cache = m.get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(2));
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(0));
    assert_eq!(cache.get("insertions").unwrap().as_u64(), Some(2));
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A job that outlives the configured wall-clock deadline fails with a
/// 504 `deadline_exceeded` envelope; the worker survives (no respawn)
/// and keeps serving, and the late result is never treated as a job
/// success.
#[test]
fn deadline_exceeded_fails_the_job_with_504() {
    let server = Server::start(ServerConfig {
        workers: 1,
        job_deadline: Some(Duration::from_millis(200)),
        ..test_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    let t0 = Instant::now();
    let r = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:800","warmup":100,"insts":2000}"#,
    )
    .unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(r.status, 504, "body: {}", r.body_str());
    assert_eq!(envelope_code(&r.body_str()).0, "deadline_exceeded");
    // The waiter woke when the deadline fired, not when the sleep ended.
    assert!(
        elapsed < Duration::from_millis(700),
        "client should unblock at the deadline, took {elapsed:?}"
    );

    // The worker survived (cooperative cancellation, not a kill) and the
    // pool keeps serving fast jobs.
    let r2 = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:10","warmup":100,"insts":2000}"#,
    )
    .unwrap();
    assert_eq!(r2.status, 200, "body: {}", r2.body_str());

    let m = parse_json(
        &request(&addr, "GET", "/v1/metrics", b"")
            .unwrap()
            .body_str(),
    );
    let workers = m.get("workers").unwrap();
    assert_eq!(
        workers.get("jobs_deadline_exceeded").unwrap().as_u64(),
        Some(1)
    );
    assert_eq!(workers.get("jobs_failed").unwrap().as_u64(), Some(1));
    assert_eq!(workers.get("workers_respawned").unwrap().as_u64(), Some(0));
    assert_eq!(workers.get("alive").unwrap().as_u64(), Some(1));
    server.shutdown();
}

/// Shutdown with jobs still queued: after the drain timeout, queued jobs
/// fail with a `shutting_down` envelope instead of hanging their
/// waiters; the in-flight job still completes.
#[test]
fn shutdown_fails_queued_jobs_with_shutting_down() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        drain_timeout: Duration::from_millis(200),
        ..test_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    let (running, queued) = std::thread::scope(|s| {
        // Occupies the single worker for ~800 ms.
        let a = {
            let addr = addr.clone();
            s.spawn(move || {
                request(
                    &addr,
                    "POST",
                    "/v1/sim",
                    br#"{"workload":"test-sleep:800","warmup":100,"insts":2000}"#,
                )
                .unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(150));
        // Sits in the queue behind it, its client blocked on the result.
        let b = {
            let addr = addr.clone();
            s.spawn(move || {
                request(
                    &addr,
                    "POST",
                    "/v1/sim",
                    br#"{"workload":"test-sleep:900","warmup":100,"insts":2000}"#,
                )
                .unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown();
        (a.join().unwrap(), b.join().unwrap())
    });

    // The in-flight job drained normally.
    assert_eq!(running.status, 200, "body: {}", running.body_str());
    // The queued job was failed explicitly — a terminal envelope, not a
    // hung connection.
    assert_eq!(queued.status, 503, "body: {}", queued.body_str());
    assert_eq!(envelope_code(&queued.body_str()).0, "shutting_down");
}

/// Two sequential requests ride one kept-alive connection, and the
/// server honors `Connection: close` when asked.
#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::new(&addr);

    let a = client.request("GET", "/v1/healthz", b"").unwrap();
    assert_eq!(a.status, 200);
    assert_eq!(a.header("connection"), Some("keep-alive"));

    let b = client
        .request(
            "POST",
            "/v1/sim",
            br#"{"workload":"test-sleep:50","warmup":100,"insts":2000}"#,
        )
        .unwrap();
    assert_eq!(b.status, 200, "body: {}", b.body_str());

    let c = client.request("GET", "/v1/metrics", b"").unwrap();
    assert_eq!(c.status, 200);
    assert_eq!(client.connects(), 1, "all three requests on one connection");

    drop(client);
    server.shutdown();
}

/// Served latency is the service's own, not a TCP timer's: cached
/// answers over one kept-alive connection come back in well under the
/// ~40 ms a delayed ACK costs when Nagle holds a response body back.
#[test]
fn cached_keep_alive_requests_do_not_wait_on_delayed_acks() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::new(&addr);
    let body = br#"{"workload":"bm-cc","seed":7,"warmup":1000,"insts":20000}"#;
    let first = client.request("POST", "/v1/sim", body).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body_str());

    let t0 = Instant::now();
    for _ in 0..20 {
        let r = client.request("POST", "/v1/sim", body).unwrap();
        assert_eq!(r.status, 200, "body: {}", r.body_str());
        assert_eq!(
            parse_json(&r.body_str()).get("cached").unwrap().as_bool(),
            Some(true)
        );
    }
    let took = t0.elapsed();
    assert_eq!(client.connects(), 1, "every request on one connection");
    assert!(
        took < Duration::from_millis(400),
        "20 cached requests took {took:?}"
    );
    drop(client);
    server.shutdown();
}

/// One-shot requests are accepted as they arrive, not on an accept
/// poll tick.
#[test]
fn one_shot_requests_are_accepted_without_polling() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let t0 = Instant::now();
    for _ in 0..20 {
        let r = request(&addr, "GET", "/v1/healthz", b"").unwrap();
        assert_eq!(r.status, 200, "body: {}", r.body_str());
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "20 one-shot requests took {took:?}"
    );
    server.shutdown();
}

/// Shutdown wakes the blocking accept even when the server is bound to
/// the unspecified address (it dials loopback instead).
#[test]
fn shutdown_of_a_wildcard_bound_server_returns_promptly() {
    let server = Server::start(ServerConfig {
        addr: "0.0.0.0:0".to_owned(),
        ..test_config()
    })
    .unwrap();
    let port = server.local_addr().port();
    let r = request(&format!("127.0.0.1:{port}"), "GET", "/v1/healthz", b"").unwrap();
    assert_eq!(r.status, 200);
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
}
