//! End-to-end tests of sweep *plans*: the fair-share scheduler under
//! mixed tenants, store-aware resume (re-submitting a completed sweep
//! simulates nothing), adaptive capacity refinement vs the full grid,
//! overcommitted sweeps on the unbounded plan path, and the uniform
//! cancellation endpoints of the v1.1 contract.

use std::time::{Duration, Instant};

use ucsim::model::Json;
use ucsim::serve::{request, Server, ServerConfig};

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 8,
        cache_budget_bytes: 8 * 1024 * 1024,
        retry_after_secs: 2,
        retain_jobs: 256,
        enable_test_workloads: true,
        ..ServerConfig::default()
    }
}

fn parse_json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON from server: {e}\n{body}"))
}

fn envelope_code(body: &str) -> String {
    parse_json(body)
        .get("error")
        .unwrap_or_else(|| panic!("no envelope in {body}"))
        .get("code")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned()
}

fn post_matrix(addr: &str, body: &str) -> u64 {
    let r = request(addr, "POST", "/v1/matrix", body.as_bytes()).unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    parse_json(&r.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap()
}

/// Polls `GET /v1/matrix/:id` until the plan settles, returning the doc.
fn poll_settled(addr: &str, id: u64) -> Json {
    let path = format!("/v1/matrix/{id}");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let r = request(addr, "GET", &path, b"").unwrap();
        assert_eq!(r.status, 200, "body: {}", r.body_str());
        let v = parse_json(&r.body_str());
        if v.get("state").unwrap().as_str() != Some("running") {
            return v;
        }
        assert!(Instant::now() < deadline, "plan never settled");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A matrix body of `n` distinct `test-sleep` workloads starting at
/// `base` milliseconds — one cell each, every cell a distinct content
/// address, roughly uniform runtime.
fn sleep_sweep_body(base: u64, n: u64, tenant: &str) -> String {
    let workloads: Vec<String> = (base..base + n)
        .map(|ms| format!("\"test-sleep:{ms}\""))
        .collect();
    format!(
        r#"{{"workloads":[{}],"capacities":[2048],"policies":["baseline"],"seed":1,"warmup":100,"insts":1000,"tenant":"{tenant}"}}"#,
        workloads.join(",")
    )
}

/// The fairness acceptance test: two tenants share one worker at 1:4
/// weights; when the heavy tenant's plan completes, the light tenant has
/// completed roughly a quarter as many cells — neither starved nor
/// served FIFO.
#[test]
fn mixed_tenants_share_the_worker_by_weight() {
    let server = Server::start(ServerConfig {
        workers: 1,
        tenant_weights: vec![("alpha".to_owned(), 1), ("beta".to_owned(), 4)],
        ..test_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    // Park the single worker on a blocker job so both plans are fully
    // enqueued before any cell is served.
    let r = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:400","warmup":100,"insts":1000,"background":true}"#,
    )
    .unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    std::thread::sleep(Duration::from_millis(150));

    let a_id = post_matrix(&addr, &sleep_sweep_body(11, 12, "alpha"));
    let b_id = post_matrix(&addr, &sleep_sweep_body(31, 12, "beta"));

    // Wait the heavy tenant out, then read the light tenant's progress.
    let b_doc = poll_settled(&addr, b_id);
    assert_eq!(b_doc.get("state").unwrap().as_str(), Some("done"));
    let r = request(&addr, "GET", &format!("/v1/matrix/{a_id}"), b"").unwrap();
    let a_done = parse_json(&r.body_str())
        .get("done")
        .unwrap()
        .as_u64()
        .unwrap();
    // Deficit fair share at 1:4 serves ~1 alpha cell per 4 beta cells, so
    // alpha sits near 12/4 = 3 when beta finishes. A wide band keeps the
    // test robust to scheduling jitter while still rejecting both FIFO
    // (alpha would be 12 or 0) and round-robin (alpha would be ~12).
    assert!(
        (1..=6).contains(&a_done),
        "alpha finished {a_done}/12 cells when beta completed; expected ~3 under 1:4 weights"
    );

    // The starved-side guarantee: alpha still finishes.
    let a_doc = poll_settled(&addr, a_id);
    assert_eq!(a_doc.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(a_doc.get("failed").unwrap().as_u64(), Some(0));

    // The scheduler section of /v1/metrics accounted the traffic.
    let m = parse_json(
        &request(&addr, "GET", "/v1/metrics", b"")
            .unwrap()
            .body_str(),
    );
    let sched = m.get("scheduler").unwrap();
    assert!(sched.get("served").unwrap().as_u64().unwrap() >= 25);
    assert!(sched.get("tenants_active").unwrap().as_u64().unwrap() >= 3);

    server.shutdown();
}

/// A sweep 10× over the bounded queue capacity neither 429s nor
/// deadlocks: plan cells ride the scheduler's unbounded path, so the POST
/// is a prompt 202 and every cell eventually simulates.
#[test]
fn overcommitted_sweep_never_rejects_or_deadlocks() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..test_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    // 10 workloads × 2 capacities × 2 policies = 40 cells against a
    // 4-deep bounded queue: 10× overcommitted.
    let workloads: Vec<String> = (1..=10).map(|ms| format!("\"test-sleep:{ms}\"")).collect();
    let body = format!(
        r#"{{"workloads":[{}],"capacities":[2048,4096],"policies":["baseline","clasp"],"seed":1,"warmup":100,"insts":1000}}"#,
        workloads.join(",")
    );
    let t0 = Instant::now();
    let r = request(&addr, "POST", "/v1/matrix", body.as_bytes()).unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "matrix POST must not block on queue capacity"
    );
    let accepted = parse_json(&r.body_str());
    assert_eq!(accepted.get("planned").unwrap().as_u64(), Some(40));
    let id = accepted.get("id").unwrap().as_u64().unwrap();

    let doc = poll_settled(&addr, id);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(doc.get("done").unwrap().as_u64(), Some(40));
    assert_eq!(doc.get("failed").unwrap().as_u64(), Some(0));
    assert_eq!(server.simulations_executed(), 40);

    // Nothing was bounced: the 429 path is for direct jobs only.
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
        Some(0)
    );
    server.shutdown();
}

/// Store-aware resume on a live server: re-submitting a completed sweep
/// plans the same cells but simulates none — every cell resolves from
/// the result cache (`skipped_from_store == planned`).
#[test]
fn resubmitted_sweep_resolves_every_cell_from_the_store() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let body = r#"{"workloads":["bm-cc"],"capacities":[2048],"policies":["baseline","clasp"],"seed":7,"warmup":1000,"insts":20000}"#;

    let first = post_matrix(&addr, body);
    let doc = poll_settled(&addr, first);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(doc.get("planned").unwrap().as_u64(), Some(2));
    assert_eq!(doc.get("skipped_from_store").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("simulated").unwrap().as_u64(), Some(2));
    assert_eq!(server.simulations_executed(), 2);

    // Same plan again: planned == skipped, zero simulations.
    let second = post_matrix(&addr, body);
    let doc2 = poll_settled(&addr, second);
    assert_eq!(doc2.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(doc2.get("planned").unwrap().as_u64(), Some(2));
    assert_eq!(doc2.get("skipped_from_store").unwrap().as_u64(), Some(2));
    assert_eq!(doc2.get("simulated").unwrap().as_u64(), Some(0));
    assert_eq!(server.simulations_executed(), 2, "resume re-ran a cell");
    assert_eq!(
        doc2.get("report").unwrap().to_string(),
        doc.get("report").unwrap().to_string(),
        "store-resolved aggregate must be byte-identical"
    );

    // v1.1 envelope-shape regression: the v1.0 aliases are gone for good.
    for d in [&doc, &doc2] {
        assert!(d.get("status").is_none(), "status alias removed in v1.1");
        assert!(d.get("sweep").is_none(), "sweep alias removed in v1.1");
    }

    // The listing endpoint sees both plans, and the state filter works.
    let r = request(&addr, "GET", "/v1/matrix", b"").unwrap();
    let listed = parse_json(&r.body_str());
    let sweeps = listed.get("sweeps").unwrap().as_arr().unwrap();
    assert_eq!(sweeps.len(), 2);
    for s in sweeps {
        assert_eq!(s.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(s.get("mode").unwrap().as_str(), Some("full"));
    }
    let r = request(&addr, "GET", "/v1/matrix?state=running", b"").unwrap();
    assert!(parse_json(&r.body_str())
        .get("sweeps")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());
    // A filter naming no state is a 400 that lists the states, not an
    // empty list.
    let r = request(&addr, "GET", "/v1/matrix?state=bogus", b"").unwrap();
    assert_eq!(r.status, 400);
    assert_eq!(envelope_code(&r.body_str()), "bad_request");
    assert!(r.body_str().contains("running, done, partial, failed"));
    server.shutdown();
}

/// The adaptive acceptance test: refining a 12-point capacity axis
/// brackets the same UPC knee the full grid finds, while simulating at
/// most half of the full cross — and every cell it does simulate is
/// byte-identical to a direct `Simulator` run.
#[test]
fn adaptive_plan_brackets_the_full_grid_knee_at_half_the_cost() {
    use ucsim::model::ToJson;
    use ucsim::pipeline::{KneeBisector, Simulator};
    use ucsim::trace::{Program, WorkloadProfile};
    use ucsim_bench::{MatrixCross, SweepPolicy};

    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    // 64..=128K uops: small capacities genuinely thrash on redis, so the
    // UPC curve rises and the knee lands at an interior axis point.
    let caps: Vec<u64> = (0..12).map(|k| 64u64 << k).collect();
    let caps_json = caps
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");

    // Phase 1 — adaptive, on a cold server: only the probed waves exist.
    let adaptive_body = format!(
        r#"{{"workloads":["redis"],"capacities":[{caps_json}],"policies":["baseline"],"seed":7,"warmup":1000,"insts":20000,"mode":{{"adaptive":{{"axis":"capacity"}}}}}}"#
    );
    let id = post_matrix(&addr, &adaptive_body);
    let doc = poll_settled(&addr, id);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(doc.get("mode").unwrap().as_str(), Some("adaptive"));
    let probed = doc.get("planned").unwrap().as_u64().unwrap();
    assert_eq!(doc.get("simulated").unwrap().as_u64(), Some(probed));
    assert!(
        probed * 2 <= caps.len() as u64,
        "adaptive simulated {probed} of {} cells; must be at most half",
        caps.len()
    );
    let frontier = doc
        .get("frontier")
        .expect("adaptive plans report a frontier");
    assert_eq!(frontier.get("axis").unwrap().as_str(), Some("capacity"));
    let adaptive_knee = frontier
        .get("knee")
        .unwrap_or_else(|| panic!("converged frontier carries the knee: {doc}"))
        .as_u64()
        .unwrap();
    match frontier.get("bracket") {
        Some(bracket) => {
            let bracket = bracket.as_arr().unwrap();
            assert_eq!(bracket[1].as_u64(), Some(adaptive_knee));
        }
        // The bisector omits the bracket only when the curve is flat
        // enough that the first axis point already meets the tolerance.
        None => assert_eq!(adaptive_knee, caps[0]),
    }

    // Phase 2 — the full grid on the same server. The probed cells
    // resolve from the store (shared content addresses), only the rest
    // simulate.
    let full_body = format!(
        r#"{{"workloads":["redis"],"capacities":[{caps_json}],"policies":["baseline"],"seed":7,"warmup":1000,"insts":20000}}"#
    );
    let full_id = post_matrix(&addr, &full_body);
    let full_doc = poll_settled(&addr, full_id);
    assert_eq!(full_doc.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(full_doc.get("planned").unwrap().as_u64(), Some(12));
    assert_eq!(
        full_doc.get("skipped_from_store").unwrap().as_u64(),
        Some(probed)
    );
    assert_eq!(
        full_doc.get("simulated").unwrap().as_u64(),
        Some(12 - probed)
    );
    assert_eq!(server.simulations_executed(), 12);

    // The full-grid knee (the offline definition: smallest capacity whose
    // UPC reaches within tolerance of the axis maximum) must be the
    // capacity the bisector bracketed.
    let full_cells = full_doc
        .get("report")
        .unwrap()
        .get("cells")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(full_cells.len(), 12);
    let upcs: Vec<f64> = full_cells
        .iter()
        .map(|c| {
            c.get("report")
                .unwrap()
                .get("upc")
                .unwrap()
                .as_f64()
                .unwrap()
        })
        .collect();
    let knee_idx = KneeBisector::linear_knee(&upcs, 0.05).expect("non-empty axis");
    assert_eq!(
        caps[knee_idx], adaptive_knee,
        "adaptive knee diverges from the full grid (UPCs: {upcs:?})"
    );

    // Byte-identity: every cell the adaptive plan simulated matches a
    // direct Simulator run over the same expanded config.
    let cross = MatrixCross {
        capacities: caps.iter().map(|&c| c as usize).collect(),
        policies: vec![SweepPolicy::Baseline],
        max_entries: 2,
    };
    let configs = cross.expand();
    let mut profile = WorkloadProfile::by_name("redis").unwrap();
    profile.seed = 7;
    let program = Program::generate(&profile);
    let adaptive_cells = doc
        .get("report")
        .unwrap()
        .get("cells")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(adaptive_cells.len() as u64, probed);
    for cell in adaptive_cells {
        let label = cell.get("label").unwrap().as_str().unwrap();
        let lc = configs
            .iter()
            .find(|lc| lc.label == label)
            .unwrap_or_else(|| panic!("label {label} missing from the cross"));
        let mut cfg = lc.config.clone();
        cfg.warmup_insts = 1000;
        cfg.measure_insts = 20000;
        let expected = Simulator::new(cfg).run(&profile, &program).to_json_string();
        assert_eq!(
            cell.get("report").unwrap().to_string(),
            expected,
            "adaptive cell {label} diverges from the direct run"
        );
    }
    server.shutdown();
}

/// Uniform cancellation: `DELETE /v1/matrix/:id` preempts queued plan
/// cells with the stable `cancelled` code; a second DELETE and a DELETE
/// of a settled or unknown target answer honestly.
#[test]
fn cancelling_a_sweep_preempts_its_queued_cells() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..test_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    // Park the worker so every plan cell is still queued at DELETE time.
    let r = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:500","warmup":100,"insts":1000,"background":true}"#,
    )
    .unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    std::thread::sleep(Duration::from_millis(150));

    let id = post_matrix(&addr, &sleep_sweep_body(51, 4, "default"));
    let r = request(&addr, "DELETE", &format!("/v1/matrix/{id}"), b"").unwrap();
    assert_eq!(r.status, 409, "body: {}", r.body_str());
    assert_eq!(envelope_code(&r.body_str()), "cancelled");

    let doc = poll_settled(&addr, id);
    assert_eq!(doc.get("state").unwrap().as_str(), Some("failed"));
    for cell in doc.get("cells").unwrap().as_arr().unwrap() {
        assert_eq!(cell.get("state").unwrap().as_str(), Some("failed"));
        assert_eq!(
            cell.get("error").unwrap().get("code").unwrap().as_str(),
            Some("cancelled")
        );
    }

    // Cancelling a settled sweep is a 400; an unknown one a 404.
    let r = request(&addr, "DELETE", &format!("/v1/matrix/{id}"), b"").unwrap();
    assert_eq!(r.status, 400);
    assert_eq!(envelope_code(&r.body_str()), "bad_request");
    let r = request(&addr, "DELETE", "/v1/matrix/999", b"").unwrap();
    assert_eq!(r.status, 404);

    // The preempted cells never reached a worker: only the blocker ran.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.simulations_executed() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(server.simulations_executed(), 1);
    let m = parse_json(
        &request(&addr, "GET", "/v1/metrics", b"")
            .unwrap()
            .body_str(),
    );
    let sched = m.get("scheduler").unwrap();
    assert_eq!(sched.get("jobs_cancelled").unwrap().as_u64(), Some(4));
    server.shutdown();
}

/// `DELETE /v1/jobs/:id` mirrors the sweep endpoint for single jobs: a
/// queued job fails with the `cancelled` code and never simulates.
#[test]
fn cancelling_a_queued_job_fails_it_without_running() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..test_config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    let r = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:400","warmup":100,"insts":1000,"background":true}"#,
    )
    .unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    std::thread::sleep(Duration::from_millis(150));

    // The victim queues behind the blocker.
    let r = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"test-sleep:401","warmup":100,"insts":1000,"background":true}"#,
    )
    .unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    let victim = parse_json(&r.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();

    let r = request(&addr, "DELETE", &format!("/v1/jobs/{victim}"), b"").unwrap();
    assert_eq!(r.status, 409, "body: {}", r.body_str());
    assert_eq!(envelope_code(&r.body_str()), "cancelled");

    let r = request(&addr, "GET", &format!("/v1/jobs/{victim}"), b"").unwrap();
    let v = parse_json(&r.body_str());
    assert_eq!(v.get("state").unwrap().as_str(), Some("failed"));
    assert_eq!(
        v.get("error").unwrap().get("code").unwrap().as_str(),
        Some("cancelled")
    );

    // Idempotence boundaries: settled 400, unknown 404.
    let r = request(&addr, "DELETE", &format!("/v1/jobs/{victim}"), b"").unwrap();
    assert_eq!(r.status, 400);
    let r = request(&addr, "DELETE", "/v1/jobs/4242", b"").unwrap();
    assert_eq!(r.status, 404);

    // The listing endpoint sees both jobs; the filter isolates the kill.
    let r = request(&addr, "GET", "/v1/jobs?state=failed", b"").unwrap();
    let failed = parse_json(&r.body_str());
    let failed = failed.get("jobs").unwrap().as_arr().unwrap();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].get("id").unwrap().as_u64(), Some(victim));
    let r = request(&addr, "GET", "/v1/jobs?state=bogus", b"").unwrap();
    assert_eq!(r.status, 400);
    assert_eq!(envelope_code(&r.body_str()), "bad_request");
    assert!(r.body_str().contains("queued, running, done, failed"));

    // Only the blocker ever simulates.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.simulations_executed() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(server.simulations_executed(), 1);
    server.shutdown();
}
