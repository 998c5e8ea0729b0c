//! End-to-end tests of the bring-your-own-workload path (API v1.2):
//! ucasm/trace upload through `POST /v1/programs`, content-addressed
//! `program:`/`trace:` workload refs through `/v1/sim` and `/v1/matrix`,
//! byte-identity of served reports against direct in-process runs,
//! stable 422 envelopes for malformed uploads, store-backed resume, and
//! cross-node program fetch + replication in a two-node cluster.

use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ucsim::isa::assemble;
use ucsim::model::{Json, ToJson};
use ucsim::pipeline::Simulator;
use ucsim::serve::{fnv1a, format_key, request, Client, Server, ServerConfig, SimRequest};
use ucsim::trace::{load_asm, record_workload, Program, Trace, WorkloadProfile};

/// A small hand-written ucasm program: a hot loop calling two handlers.
const LOOP_ASM: &str = "\
.func main
top: alu 3
     load 4 imm=1
     calli f1,f2
     jcc top trip=16
     jmp top
.end
.func f1
     alu 3
     ret
.end
.func f2
     store 7 imm=2 uops=2
     ret
.end
";

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 8,
        cache_budget_bytes: 8 * 1024 * 1024,
        ..ServerConfig::default()
    }
}

fn parse_json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON from server: {e}\n{body}"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ucsim-byow-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Uploads raw program bytes, asserting success, and returns the
/// response document.
fn upload(addr: &str, bytes: &[u8]) -> Json {
    let resp = request(addr, "POST", "/v1/programs", bytes).unwrap();
    assert!(
        resp.status == 201 || resp.status == 200,
        "upload failed: {} {}",
        resp.status,
        resp.body_str()
    );
    parse_json(&resp.body_str())
}

/// Polls `GET /v1/matrix/:id` until the sweep finishes.
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

/// Replicates the server's execution of `body` (a `/v1/sim` request whose
/// workload is a `program:` ref over `asm_src`) and returns the report
/// payload the server must splice into its envelope, byte for byte.
fn direct_program_report(body: &str, asm_src: &str) -> String {
    let req = SimRequest::parse(body).expect("test body parses");
    let spec = req.resolve(fnv1a(asm_src.as_bytes()));
    let profile = WorkloadProfile::user_program(spec.seed);
    let total = spec.config.warmup_insts + spec.config.measure_insts;
    let program = load_asm(&assemble(asm_src).unwrap(), spec.seed);
    let trace = record_workload(&profile, &program, total);
    let report = Simulator::new(spec.config.clone()).run_trace(&spec.workload, &trace);
    report.to_json_string()
}

#[test]
fn uploaded_asm_simulates_byte_identically_to_a_direct_run() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    let doc = upload(&addr, LOOP_ASM.as_bytes());
    let id = format_key(fnv1a(LOOP_ASM.as_bytes()));
    assert_eq!(doc.get("id").unwrap().as_str(), Some(id.as_str()));
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("asm"));
    assert_eq!(doc.get("created").unwrap().as_bool(), Some(true));
    let wref = doc.get("ref").unwrap().as_str().unwrap().to_owned();
    assert_eq!(wref, format!("program:{id}"));

    // v1.2 tagged-object form. The seed is omitted, so the server must
    // default it to the program's content address.
    let body = format!(r#"{{"workload":{{"program":"{id}"}},"warmup":500,"insts":3000}}"#);
    let resp = request(&addr, "POST", "/v1/sim", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    let direct = direct_program_report(&body, LOOP_ASM);
    assert!(
        resp.body_str().contains(&format!("\"report\":{direct}")),
        "served report is not byte-identical to the direct run\nserved: {}\ndirect: {direct}",
        resp.body_str()
    );

    // Plain string spelling: same content address, so the second
    // submission answers from cache with the identical report.
    let alias = format!(r#"{{"workload":"{wref}","warmup":500,"insts":3000}}"#);
    let resp2 = request(&addr, "POST", "/v1/sim", alias.as_bytes()).unwrap();
    assert_eq!(resp2.status, 200);
    let v2 = parse_json(&resp2.body_str());
    assert_eq!(v2.get("cached").unwrap().as_bool(), Some(true));
    assert!(resp2.body_str().contains(&format!("\"report\":{direct}")));

    server.shutdown();
}

#[test]
fn uploaded_trace_replays_byte_identically_and_matches_profile_cells() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    // Record exactly the stream a "bm-cc" job of warmup 500 + insts 3000
    // would synthesize (the walker is deterministic in the profile seed).
    let profile = WorkloadProfile::by_name("bm-cc").unwrap();
    let program = Program::generate(&profile);
    let trace = Trace::record(program.walk(&profile).take(3500));
    let bytes = trace.to_bytes();

    let doc = upload(&addr, &bytes);
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("trace"));
    let id = format_key(fnv1a(&bytes));
    let body = format!(r#"{{"workload":{{"trace":"{id}"}},"warmup":500,"insts":3000}}"#);
    let resp = request(&addr, "POST", "/v1/sim", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());

    // Byte-identity against a direct in-process replay of the upload.
    let req = SimRequest::parse(&body).unwrap();
    let spec = req.resolve(0); // trace refs default the (unused) seed to 0
    let direct = Simulator::new(spec.config.clone())
        .run_trace(&spec.workload, &trace)
        .to_json_string();
    assert!(
        resp.body_str().contains(&format!("\"report\":{direct}")),
        "served trace replay differs from the direct replay\nserved: {}",
        resp.body_str()
    );

    // The replayed upload must agree with the profile-synthesized cell on
    // every metric — only the workload name may differ.
    let prof_body = br#"{"workload":"bm-cc","warmup":500,"insts":3000}"#;
    let prof = request(&addr, "POST", "/v1/sim", prof_body).unwrap();
    assert_eq!(prof.status, 200);
    let trace_report = parse_json(&resp.body_str());
    let prof_report = parse_json(&prof.body_str());
    let (Some(Json::Obj(a)), Some(Json::Obj(b))) =
        (trace_report.get("report"), prof_report.get("report"))
    else {
        panic!("reports must be objects");
    };
    assert_eq!(a.len(), b.len());
    for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
        assert_eq!(ka, kb);
        if ka == "workload" {
            assert_eq!(va.as_str(), Some(format!("trace:{id}").as_str()));
            assert_eq!(vb.as_str(), Some("bm-cc"));
        } else {
            assert_eq!(va.to_string(), vb.to_string(), "field {ka} diverged");
        }
    }

    server.shutdown();
}

/// Decodes the uniform error envelope, returning the stable code.
fn envelope_code(body: &str) -> String {
    parse_json(body)
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no envelope in {body}"))
        .to_owned()
}

#[test]
fn malformed_uploads_and_unknown_refs_get_stable_envelopes() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    // Malformed ucasm: instruction outside .func/.end.
    let r = request(&addr, "POST", "/v1/programs", b"alu 3\n").unwrap();
    assert_eq!(r.status, 422, "body: {}", r.body_str());
    assert_eq!(envelope_code(&r.body_str()), "invalid_program");

    // An entry function that returns is structurally invalid.
    let r = request(&addr, "POST", "/v1/programs", b".func m\nret\n.end\n").unwrap();
    assert_eq!(r.status, 422);
    assert_eq!(envelope_code(&r.body_str()), "invalid_program");

    // A truncated UCT1 trace: magic intact, body cut off.
    let profile = WorkloadProfile::by_name("bm-cc").unwrap();
    let program = Program::generate(&profile);
    let bytes = Trace::record(program.walk(&profile).take(64)).to_bytes();
    let r = request(&addr, "POST", "/v1/programs", &bytes[..12]).unwrap();
    assert_eq!(r.status, 422, "body: {}", r.body_str());
    assert_eq!(envelope_code(&r.body_str()), "invalid_program");

    // A UCT1 trace with a 0-byte instruction (its prediction window
    // would never reach a line end): rejected like any malformed trace.
    let mut zero_len = bytes.clone();
    zero_len[12 + 16] = 0;
    let r = request(&addr, "POST", "/v1/programs", &zero_len).unwrap();
    assert_eq!(r.status, 422, "body: {}", r.body_str());
    assert_eq!(envelope_code(&r.body_str()), "invalid_program");
    assert!(
        r.body_str().contains("instruction length outside 1..=15"),
        "{}",
        r.body_str()
    );

    // A well-formed ref to a program nobody uploaded.
    let r = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":"program:ffff","insts":1000}"#,
    )
    .unwrap();
    assert_eq!(r.status, 422, "body: {}", r.body_str());
    assert_eq!(envelope_code(&r.body_str()), "invalid_program");

    // An ambiguous tagged object is a plain bad request.
    let r = request(
        &addr,
        "POST",
        "/v1/sim",
        br#"{"workload":{"profile":"bm-cc","program":"ff"},"insts":1000}"#,
    )
    .unwrap();
    assert_eq!(r.status, 400, "body: {}", r.body_str());
    assert_eq!(envelope_code(&r.body_str()), "bad_request");

    server.shutdown();
}

#[test]
fn program_endpoints_list_show_and_serve_raw_bytes() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    let asm_id = upload(&addr, LOOP_ASM.as_bytes())
        .get("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    let profile = WorkloadProfile::by_name("bm-cc").unwrap();
    let program = Program::generate(&profile);
    let trace_bytes = Trace::record(program.walk(&profile).take(256)).to_bytes();
    upload(&addr, &trace_bytes);

    // Re-uploading the identical source is idempotent: 200, created=false.
    let resp = request(&addr, "POST", "/v1/programs", LOOP_ASM.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        parse_json(&resp.body_str())
            .get("created")
            .unwrap()
            .as_bool(),
        Some(false)
    );

    let all = request(&addr, "GET", "/v1/programs", b"").unwrap();
    let listed = parse_json(&all.body_str());
    assert_eq!(
        listed.get("programs").unwrap().as_arr().unwrap().len(),
        2,
        "body: {}",
        all.body_str()
    );
    let asm_only = request(&addr, "GET", "/v1/programs?kind=asm", b"").unwrap();
    let listed = parse_json(&asm_only.body_str());
    let arr = listed.get("programs").unwrap().as_arr().unwrap();
    assert_eq!(arr.len(), 1);
    assert_eq!(arr[0].get("kind").unwrap().as_str(), Some("asm"));
    let bogus = request(&addr, "GET", "/v1/programs?kind=bogus", b"").unwrap();
    assert_eq!(bogus.status, 400);

    let meta = request(&addr, "GET", &format!("/v1/programs/{asm_id}"), b"").unwrap();
    assert_eq!(meta.status, 200);
    let meta = parse_json(&meta.body_str());
    assert_eq!(meta.get("kind").unwrap().as_str(), Some("asm"));
    assert_eq!(
        meta.get("bytes").unwrap().as_u64(),
        Some(LOOP_ASM.len() as u64)
    );

    // /raw serves the exact uploaded bytes.
    let raw = request(&addr, "GET", &format!("/v1/programs/{asm_id}/raw"), b"").unwrap();
    assert_eq!(raw.status, 200);
    assert_eq!(raw.body, LOOP_ASM.as_bytes());

    let missing = request(&addr, "GET", "/v1/programs/00000000000000ff", b"").unwrap();
    assert_eq!(missing.status, 404);
    assert_eq!(envelope_code(&missing.body_str()), "not_found");

    server.shutdown();
}

#[test]
fn program_sweeps_resume_from_the_store_without_resimulating() {
    let dir = temp_dir("resume");
    let cfg = ServerConfig {
        data_dir: Some(dir.clone()),
        ..test_config()
    };
    let server = Server::start(cfg.clone()).unwrap();
    let addr = server.local_addr().to_string();

    let doc = upload(&addr, LOOP_ASM.as_bytes());
    let wref = doc.get("ref").unwrap().as_str().unwrap().to_owned();
    let body = format!(
        r#"{{"workloads":["{wref}"],"capacities":[2048,4096],"policies":["baseline"],"warmup":200,"insts":2000}}"#
    );

    let mut client = Client::new(&addr);
    let resp = client
        .request("POST", "/v1/matrix", body.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 202, "body: {}", resp.body_str());
    let id = parse_json(&resp.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    let done = poll_sweep(&mut client, id);
    assert_eq!(done.get("planned").unwrap().as_u64(), Some(2));
    assert_eq!(done.get("simulated").unwrap().as_u64(), Some(2));
    // Ledger labels derive from the ref's short hash prefix.
    let cells = done.get("cells").unwrap().as_arr().unwrap();
    let short = &wref["program:".len().."program:".len() + 8];
    for c in cells {
        let label = c.get("label").unwrap().as_str().unwrap();
        assert!(
            label.starts_with(&format!("prog-{short}")),
            "cell label {label:?} does not carry the ref prefix"
        );
    }
    drop(client);
    server.shutdown();

    // Restart on the same store: the program record replays into the
    // registry and every cell resolves from the store — zero re-sims.
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();
    let pid = doc.get("id").unwrap().as_str().unwrap();
    let meta = request(&addr, "GET", &format!("/v1/programs/{pid}"), b"").unwrap();
    assert_eq!(meta.status, 200, "program lost across restart");

    let mut client = Client::new(&addr);
    let resp = client
        .request("POST", "/v1/matrix", body.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 202, "body: {}", resp.body_str());
    let id = parse_json(&resp.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    let done = poll_sweep(&mut client, id);
    assert_eq!(done.get("simulated").unwrap().as_u64(), Some(0));
    assert_eq!(done.get("skipped_from_store").unwrap().as_u64(), Some(2));

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reserves `n` distinct loopback addresses by binding ephemeral
/// listeners, then releasing them for the servers to rebind.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("reserved addr").to_string())
        .collect()
}

/// Starts one node, retrying briefly if the reserved port is still held.
fn start_node(cfg: ServerConfig) -> Server {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match Server::start(cfg.clone()) {
            Ok(s) => return s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("node failed to start on {}: {e}", cfg.addr),
        }
    }
}

#[test]
fn cluster_routes_program_jobs_by_content_address() {
    let addrs = reserve_addrs(2);
    let dirs = [temp_dir("fed-a"), temp_dir("fed-b")];
    let member = |i: usize| ServerConfig {
        addr: addrs[i].clone(),
        advertise: Some(addrs[i].clone()),
        peers: addrs.clone(),
        data_dir: Some(dirs[i].clone()),
        anti_entropy_interval: Duration::from_millis(150),
        ..test_config()
    };
    let a = start_node(member(0));
    let b = start_node(member(1));

    // Upload to node A only.
    let doc = upload(&addrs[0], LOOP_ASM.as_bytes());
    let id = doc.get("id").unwrap().as_str().unwrap().to_owned();
    let wref = doc.get("ref").unwrap().as_str().unwrap().to_owned();

    // Submitting the ref to node B works: B fetches the program from its
    // peer by content address before accepting the job.
    let body = format!(r#"{{"workload":"{wref}","warmup":200,"insts":2000}}"#);
    let via_b = request(&addrs[1], "POST", "/v1/sim", body.as_bytes()).unwrap();
    assert_eq!(via_b.status, 200, "body: {}", via_b.body_str());
    // ...and B now serves the program itself.
    let meta = request(&addrs[1], "GET", &format!("/v1/programs/{id}"), b"").unwrap();
    assert_eq!(meta.status, 200, "program not fetched to node B");

    // Node A answers the same spec with a byte-identical report.
    let via_a = request(&addrs[0], "POST", "/v1/sim", body.as_bytes()).unwrap();
    assert_eq!(via_a.status, 200, "body: {}", via_a.body_str());
    let report_a = parse_json(&via_a.body_str());
    let report_b = parse_json(&via_b.body_str());
    assert_eq!(
        report_a.get("report").unwrap().to_string(),
        report_b.get("report").unwrap().to_string(),
        "reports must be byte-identical across nodes"
    );
    // The cluster simulated the spec exactly once.
    assert_eq!(a.simulations_executed() + b.simulations_executed(), 1);

    // Anti-entropy replicates a program uploaded later to A over to B
    // without any job referencing it.
    let doc2 = upload(&addrs[0], b".func m\nl: alu 3\n jmp l\n.end\n");
    let id2 = doc2.get("id").unwrap().as_str().unwrap().to_owned();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = request(&addrs[1], "GET", &format!("/v1/programs/{id2}"), b"").unwrap();
        if r.status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "program never replicated to node B"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    a.shutdown();
    b.shutdown();
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Anti-entropy replicates programs whose store records are too big to
/// share one `GET /v1/store` page. Quotes in a comment are escaped once
/// in the stored record and again in the page, so each of these two
/// programs takes about 4.5 MiB of log and 9 MiB of page. The server
/// bounds a page by log bytes (8 MiB), since a handful of such records
/// in one page would pass the client's 64 MiB response cap and break
/// every pull of it, and the peer walks the pages.
#[test]
fn anti_entropy_pages_through_large_programs() {
    let addrs = reserve_addrs(2);
    let dirs = [temp_dir("big-a"), temp_dir("big-b")];
    let member = |i: usize| ServerConfig {
        addr: addrs[i].clone(),
        advertise: Some(addrs[i].clone()),
        peers: addrs.clone(),
        data_dir: Some(dirs[i].clone()),
        anti_entropy_interval: Duration::from_millis(150),
        ..test_config()
    };
    let a = start_node(member(0));
    let b = start_node(member(1));

    let comment = format!("; {}\n", "\"".repeat(1000));
    let ids: Vec<String> = (0..2)
        .map(|i| {
            let mut src = format!(".func m{i}\nl: alu 3\n jmp l\n.end\n");
            while src.len() + comment.len() <= 2304 * 1024 {
                src.push_str(&comment);
            }
            let doc = upload(&addrs[0], src.as_bytes());
            doc.get("id").unwrap().as_str().unwrap().to_owned()
        })
        .collect();

    // The largest page node A will serve stops short of the log.
    let page = request(&addrs[0], "GET", "/v1/store?max=4096", b"").unwrap();
    assert_eq!(page.status, 200);
    let doc = parse_json(&page.body_str());
    let records = doc.get("records").unwrap().as_arr().unwrap().len();
    assert_eq!(records, 1, "one large record per page");
    assert_eq!(doc.get("eof").unwrap().as_bool(), Some(false));

    let deadline = Instant::now() + Duration::from_secs(60);
    for id in &ids {
        loop {
            let r = request(&addrs[1], "GET", &format!("/v1/programs/{id}"), b"").unwrap();
            if r.status == 200 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "program {id} never replicated to node B"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    a.shutdown();
    b.shutdown();
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn shipped_examples_assemble_upload_and_simulate() {
    let server = Server::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let base = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/asm");

    for name in ["dense_loop.asm", "fragmenter.asm", "dispatcher.asm"] {
        let src = std::fs::read_to_string(base.join(name))
            .unwrap_or_else(|e| panic!("cannot read example {name}: {e}"));
        let asm = assemble(&src).unwrap_or_else(|e| panic!("{name} does not assemble: {e}"));
        assert!(asm.static_insts() >= 3, "{name} is trivially small");

        // Offline: the example runs and commits uops.
        let seed = fnv1a(src.as_bytes());
        let profile = WorkloadProfile::user_program(seed);
        let program = load_asm(&asm, seed);
        let cfg = ucsim::pipeline::SimConfig::table1().with_insts(500, 5000);
        let trace = record_workload(&profile, &program, 5500);
        let report =
            Simulator::new(cfg).run_trace(&format!("program:{}", format_key(seed)), &trace);
        assert!(report.upc > 0.0, "{name} made no progress");

        // Served: the example uploads as a fresh asm program.
        let doc = upload(&addr, src.as_bytes());
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("asm"), "{name}");
        assert_eq!(doc.get("created").unwrap().as_bool(), Some(true), "{name}");
    }

    server.shutdown();
}
