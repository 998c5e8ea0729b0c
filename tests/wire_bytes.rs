//! Byte pins of every JSON body the job service serves.
//!
//! Each test drives an in-process server through a fixed request
//! sequence and compares the response bodies byte for byte with the
//! strings below: member names, member order, omitted members and number
//! formatting. Only volatile members are replaced before comparing —
//! timestamps, uptimes, latency histograms, queue waits, probe ages,
//! utilization and profile timings become `"~"` — and large payloads
//! whose own bytes are pinned elsewhere (reports, store payloads) become
//! `"#<len>:<fnv1a>"`, which still pins them exactly.
//!
//! The span ring behind `GET /v1/trace` is process-wide, so the tests
//! take one lock and run one at a time.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ucsim::model::{fnv1a, Json};
use ucsim::serve::{Server, ServerConfig};
use ucsim::trace::{Program, Trace, WorkloadProfile};

/// Serializes the tests of this file (see the module docs).
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_capacity: 8,
        cache_budget_bytes: 8 * 1024 * 1024,
        retry_after_secs: 2,
        retain_jobs: 64,
        enable_test_workloads: true,
        ..ServerConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ucsim-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One `Connection: close` exchange; returns the status and the body.
fn call(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_owned())
}

fn get(addr: &str, path: &str) -> (u16, String) {
    call(addr, "GET", path, &[], b"")
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    call(addr, "POST", path, &[], body.as_bytes())
}

fn member(body: &str, path: &[&str]) -> Json {
    let mut v = Json::parse(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"));
    for name in path {
        v = v
            .get(name)
            .unwrap_or_else(|| panic!("no {name} in {body}"))
            .clone();
    }
    v
}

/// Polls `path` until its `state` member is `want`.
fn wait_state(addr: &str, path: &str, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = get(addr, path);
        if member(&body, &["state"]).as_str() == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{path} never reached {want}: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls a sweep until it leaves `running`.
fn wait_settled(addr: &str, path: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = get(addr, path);
        if member(&body, &["state"]).as_str() != Some("running") {
            return;
        }
        assert!(Instant::now() < deadline, "{path} never settled: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[derive(Clone, Copy)]
enum Mask {
    /// Replace the value with `"~"`.
    Volatile,
    /// Replace the value with `"#<len>:<fnv1a of its bytes>"`.
    Digest,
}

/// Members masked in every body.
const COMMON: &[(&str, Mask)] = &[
    ("created_at", Mask::Volatile),
    ("uptime_us", Mask::Volatile),
    ("latency_us", Mask::Volatile),
    ("utilization", Mask::Volatile),
    ("wait_us", Mask::Volatile),
    ("last_probe_age_us", Mask::Volatile),
    ("wall_ns", Mask::Volatile),
    ("total_ns", Mask::Volatile),
    ("buckets", Mask::Volatile),
    ("report", Mask::Digest),
];

/// The end of the JSON value starting at `i`.
fn value_end(b: &[u8], mut i: usize) -> usize {
    match b[i] {
        b'"' => string_end(b, i),
        b'{' | b'[' => {
            let mut depth = 0usize;
            loop {
                match b[i] {
                    b'"' => {
                        i = string_end(b, i);
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return i + 1;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        _ => {
            while i < b.len() && !matches!(b[i], b',' | b'}' | b']') {
                i += 1;
            }
            i
        }
    }
}

/// The end of the string token starting at `i` (one past its quote).
fn string_end(b: &[u8], mut i: usize) -> usize {
    i += 1;
    while b[i] != b'"' {
        i += if b[i] == b'\\' { 2 } else { 1 };
    }
    i + 1
}

/// `#<len>:<fnv1a>` of `text`: short, and as exact as the bytes.
fn digest(text: &str) -> String {
    format!("#{}:{:016x}", text.len(), fnv1a(text.as_bytes()))
}

/// `text` with the value of every member named in `COMMON` or `extra`
/// replaced as its [`Mask`] says; everything else is kept byte for byte.
fn mask(text: &str, extra: &[(&str, Mask)]) -> String {
    let b = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'"' {
            out.push(b[i] as char);
            i += 1;
            continue;
        }
        let end = string_end(b, i);
        out.push_str(&text[i..end]);
        let name = &text[i + 1..end - 1];
        let rule = COMMON.iter().chain(extra).find(|(n, _)| *n == name);
        match (rule, b.get(end)) {
            (Some(&(_, how)), Some(b':')) => {
                let stop = value_end(b, end + 1);
                let value = &text[end + 1..stop];
                out.push(':');
                match how {
                    Mask::Volatile => out.push_str("\"~\""),
                    Mask::Digest => out.push_str(&format!("\"{}\"", digest(value))),
                }
                i = stop;
            }
            _ => i = end,
        }
    }
    out
}

/// Collects mismatches so one run reports every changed body.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn check(&mut self, what: &str, actual: &str, expected: &str) {
        if actual != expected {
            self.0.push(format!(
                "{what}:\n  actual:   {actual}\n  expected: {expected}"
            ));
        }
    }

    fn finish(self) {
        assert!(
            self.0.is_empty(),
            "{} bodies changed:\n{}",
            self.0.len(),
            self.0.join("\n")
        );
    }
}

const LOOP_ASM: &str = ".func main\ntop: alu 3\n jcc top trip=8\n jmp top\n.end\n";

/// Jobs, sweeps, programs, the store page, health and version on one
/// store-backed single-worker server.
#[test]
fn job_sweep_program_and_store_bodies_keep_their_bytes() {
    let _gate = gate();
    let dir = temp_dir("jobs");
    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut pins = Pins::default();

    // A background job: the 202, then its done body and profile.
    let (status, body) = post(
        &addr,
        "/v1/sim",
        r#"{"workload":"bm-cc","seed":7,"warmup":1000,"insts":5000,"background":true}"#,
    );
    assert_eq!(status, 202);
    pins.check(
        "POST /v1/sim 202",
        &mask(&body, &[]),
        r##"{"id":1,"key":"0d456854a09f272e","poll":"/v1/jobs/1"}"##,
    );
    wait_state(&addr, "/v1/jobs/1", "done");
    let (_, body) = get(&addr, "/v1/jobs/1");
    pins.check("GET /v1/jobs/1 done", &mask(&body, &[]), r##"{"id":1,"key":"0d456854a09f272e","state":"done","created_at":"~","result":{"key":"0d456854a09f272e","cached":false,"report":"#1792:0ba851d49f6f8916"}}"##);
    let (_, body) = get(&addr, "/v1/jobs/1/profile");
    pins.check("GET /v1/jobs/1/profile", &mask(&body, &[]), r##"{"id":1,"state":"done","profile":{"jobs":1,"wall_ns":"~","stages":{"predict":{"count":1164,"timed":18,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"uc_lookup":{"count":1324,"timed":21,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"uc_fill":{"count":957,"timed":15,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"decode":{"count":701,"timed":88,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"retire":{"count":1163,"timed":18,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"}},"counters":{"oc_hits":580,"oc_misses":540,"oc_evictions":679,"oc_compactions":0,"pws_dispatched":967}}}"##);

    // A failed job: the synchronous envelope and the job body.
    let (status, body) = call(
        &addr,
        "POST",
        "/v1/sim",
        &[("x-request-id", "wire-panic")],
        br#"{"workload":"test-panic","warmup":100,"insts":1000}"#,
    );
    assert_eq!(status, 500);
    pins.check("POST /v1/sim 500", &mask(&body, &[]), r##"{"error":{"code":"simulation_failed","message":"worker panicked: test-panic workload requested a worker panic","request_id":"wire-panic"}}"##);
    let (_, body) = get(&addr, "/v1/jobs/2");
    pins.check("GET /v1/jobs/2 failed", &mask(&body, &[]), r##"{"id":2,"key":"1a5625c28aa1be55","state":"failed","created_at":"~","error":{"code":"simulation_failed","message":"worker panicked: test-panic workload requested a worker panic","request_id":"wire-panic"}}"##);

    // Hold the single worker so later jobs and sweep cells stay queued.
    let (status, _) = post(
        &addr,
        "/v1/sim",
        r#"{"workload":"test-sleep:2000","warmup":100,"insts":1000,"background":true}"#,
    );
    assert_eq!(status, 202);
    wait_state(&addr, "/v1/jobs/3", "running");
    let (status, _) = post(
        &addr,
        "/v1/sim",
        r#"{"workload":"bm-cc","seed":8,"warmup":1000,"insts":5000,"background":true}"#,
    );
    assert_eq!(status, 202);
    let (_, body) = get(&addr, "/v1/jobs/4");
    pins.check(
        "GET /v1/jobs/4 queued",
        &mask(&body, &[]),
        r##"{"id":4,"key":"7940ef116c97546b","state":"queued","created_at":"~"}"##,
    );
    let (_, body) = get(&addr, "/v1/jobs/4/profile");
    pins.check(
        "GET /v1/jobs/4/profile queued",
        &mask(&body, &[]),
        r##"{"id":4,"state":"queued","profile":null}"##,
    );
    let (_, body) = get(&addr, "/v1/jobs");
    pins.check("GET /v1/jobs", &mask(&body, &[]), r##"{"jobs":[{"id":1,"key":"0d456854a09f272e","state":"done","created_at":"~"},{"id":2,"key":"1a5625c28aa1be55","state":"failed","created_at":"~"},{"id":3,"key":"25fea98d3da09043","state":"running","created_at":"~"},{"id":4,"key":"7940ef116c97546b","state":"queued","created_at":"~"}]}"##);
    let (_, body) = get(&addr, "/v1/jobs?state=queued");
    pins.check(
        "GET /v1/jobs?state=queued",
        &mask(&body, &[]),
        r##"{"jobs":[{"id":4,"key":"7940ef116c97546b","state":"queued","created_at":"~"}]}"##,
    );

    // A full sweep: the 202, running (cells queued behind the sleeper),
    // the listing, then done.
    let (status, body) = post(
        &addr,
        "/v1/matrix",
        r#"{"workloads":["bm-cc"],"capacities":[2048],"policies":["baseline","clasp"],"seed":3,"warmup":1000,"insts":5000}"#,
    );
    assert_eq!(status, 202);
    pins.check(
        "POST /v1/matrix 202",
        &mask(&body, &[]),
        r##"{"id":1,"planned":2,"poll":"/v1/matrix/1"}"##,
    );
    let (_, body) = get(&addr, "/v1/matrix/1");
    pins.check("GET /v1/matrix/1 running", &mask(&body, &[]), r##"{"id":1,"state":"running","created_at":"~","tenant":"default","priority":0,"mode":"full","total":2,"planned":2,"skipped_from_store":0,"remote_done":0,"simulated":0,"done":0,"failed":0,"cells":[{"workload":"bm-cc","label":"baseline","seed":3,"key":"cc64bad5e7a8d40a","state":"queued"},{"workload":"bm-cc","label":"CLASP","seed":3,"key":"cd781ae0ada3ef1d","state":"queued"}]}"##);
    let (_, body) = get(&addr, "/v1/matrix");
    pins.check("GET /v1/matrix running", &mask(&body, &[]), r##"{"sweeps":[{"id":1,"state":"running","created_at":"~","tenant":"default","priority":0,"mode":"full","planned":2}]}"##);
    wait_state(&addr, "/v1/jobs/4", "done");
    wait_settled(&addr, "/v1/matrix/1");
    let (_, body) = get(&addr, "/v1/matrix/1");
    pins.check("GET /v1/matrix/1 done", &mask(&body, &[]), r##"{"id":1,"state":"done","created_at":"~","tenant":"default","priority":0,"mode":"full","total":2,"planned":2,"skipped_from_store":0,"remote_done":0,"simulated":2,"done":2,"failed":0,"profile":{"jobs":2,"wall_ns":"~","stages":{"predict":{"count":2326,"timed":36,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"uc_lookup":{"count":2609,"timed":41,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"uc_fill":{"count":1758,"timed":28,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"decode":{"count":1361,"timed":170,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"retire":{"count":2324,"timed":36,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"}},"counters":{"oc_hits":1135,"oc_misses":1067,"oc_evictions":1148,"oc_compactions":0,"pws_dispatched":1930}},"cells":[{"workload":"bm-cc","label":"baseline","seed":3,"key":"cc64bad5e7a8d40a","state":"done"},{"workload":"bm-cc","label":"CLASP","seed":3,"key":"cd781ae0ada3ef1d","state":"done"}],"report":"#3843:82fe23b0a98a25e4"}"##);

    // A partial sweep: one cell panics, one succeeds.
    let (status, _) = call(
        &addr,
        "POST",
        "/v1/matrix",
        &[("x-request-id", "wire-partial")],
        br#"{"workloads":["test-panic","test-sleep:1"],"capacities":[2048],"seed":1,"warmup":100,"insts":1000}"#,
    );
    assert_eq!(status, 202);
    wait_settled(&addr, "/v1/matrix/2");
    let (_, body) = get(&addr, "/v1/matrix/2");
    pins.check("GET /v1/matrix/2 partial", &mask(&body, &[]), r##"{"id":2,"state":"partial","created_at":"~","tenant":"default","priority":0,"mode":"full","total":2,"planned":2,"skipped_from_store":0,"remote_done":0,"simulated":1,"done":1,"failed":1,"profile":{"jobs":1,"wall_ns":"~","stages":{"predict":{"count":217,"timed":3,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"uc_lookup":{"count":274,"timed":4,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"uc_fill":{"count":45,"timed":1,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"decode":{"count":33,"timed":4,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"retire":{"count":216,"timed":3,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"}},"counters":{"oc_hits":230,"oc_misses":17,"oc_evictions":0,"oc_compactions":0,"pws_dispatched":189}},"cells":[{"workload":"test-panic","label":"OC_2K","seed":1,"key":"e4086a0ed96e5344","state":"failed","error":{"code":"simulation_failed","message":"worker panicked: test-panic workload requested a worker panic","request_id":"wire-partial"}},{"workload":"test-sleep:1","label":"OC_2K","seed":1,"key":"9880a72e7937852b","state":"done"}],"report":"#1738:d229d6bedfa7e11b"}"##);
    let (_, body) = get(&addr, "/v1/matrix");
    pins.check("GET /v1/matrix", &mask(&body, &[]), r##"{"sweeps":[{"id":1,"state":"done","created_at":"~","tenant":"default","priority":0,"mode":"full","planned":2},{"id":2,"state":"partial","created_at":"~","tenant":"default","priority":0,"mode":"full","planned":2}]}"##);
    let (_, body) = get(&addr, "/v1/matrix?state=done");
    pins.check("GET /v1/matrix?state=done", &mask(&body, &[]), r##"{"sweeps":[{"id":1,"state":"done","created_at":"~","tenant":"default","priority":0,"mode":"full","planned":2}]}"##);

    // Programs: an asm upload (201, then 200), a trace upload, the list,
    // a filtered list and one resource.
    let (status, body) = post(&addr, "/v1/programs", LOOP_ASM);
    assert_eq!(status, 201);
    pins.check("POST /v1/programs 201", &mask(&body, &[]), r##"{"id":"5b8da44c23addba4","ref":"program:5b8da44c23addba4","kind":"asm","insts":3,"bytes":52,"created":true}"##);
    let (status, body) = post(&addr, "/v1/programs", LOOP_ASM);
    assert_eq!(status, 200);
    pins.check("POST /v1/programs 200", &mask(&body, &[]), r##"{"id":"5b8da44c23addba4","ref":"program:5b8da44c23addba4","kind":"asm","insts":3,"bytes":52,"created":false}"##);
    let profile = WorkloadProfile::quick_test();
    let trace = Trace::record(Program::generate(&profile).walk(&profile).take(64));
    let (status, body) = call(&addr, "POST", "/v1/programs", &[], &trace.to_bytes());
    assert_eq!(status, 201);
    pins.check("POST /v1/programs trace", &mask(&body, &[]), r##"{"id":"48a1ffca9acb9928","ref":"trace:48a1ffca9acb9928","kind":"trace","insts":64,"bytes":1356,"created":true}"##);
    let (_, body) = get(&addr, "/v1/programs");
    pins.check("GET /v1/programs", &mask(&body, &[]), r##"{"programs":[{"id":"48a1ffca9acb9928","ref":"trace:48a1ffca9acb9928","kind":"trace","insts":64,"bytes":1356},{"id":"5b8da44c23addba4","ref":"program:5b8da44c23addba4","kind":"asm","insts":3,"bytes":52}]}"##);
    let (_, body) = get(&addr, "/v1/programs?kind=asm");
    pins.check("GET /v1/programs?kind=asm", &mask(&body, &[]), r##"{"programs":[{"id":"5b8da44c23addba4","ref":"program:5b8da44c23addba4","kind":"asm","insts":3,"bytes":52}]}"##);
    let id = member(&body, &["programs"]).as_arr().unwrap()[0]
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    let (_, body) = get(&addr, &format!("/v1/programs/{id}"));
    pins.check("GET /v1/programs/:id", &mask(&body, &[]), r##"{"id":"5b8da44c23addba4","ref":"program:5b8da44c23addba4","kind":"asm","insts":3,"bytes":52}"##);

    // The store page, and the exact FAILED and PROGRAM payloads in it.
    let (_, body) = get(&addr, "/v1/store?since=0&max=64");
    pins.check(
        "GET /v1/store",
        &mask(&body, &[("canonical", Mask::Digest), ("payload", Mask::Digest)]),
        r##"{"format":"UCSTOR03","since":0,"next":24893,"eof":true,"records":[{"kind":"result","key":"0d456854a09f272e","canonical":"#1576:a3d773a23bc73f5a","payload":"#1948:17cbb1fb0d6c9dcc"},{"kind":"failed","key":"1a5625c28aa1be55","canonical":"#1580:58b0d9fb220a059f","payload":"#142:e698b3e5456a0dee"},{"kind":"result","key":"25fea98d3da09043","canonical":"#1585:fcddce9304f73dd9","payload":"#1837:82adfe52437a18a7"},{"kind":"result","key":"7940ef116c97546b","canonical":"#1576:5bbaacc82a008e5d","payload":"#1951:5b425a3e6c5be7e8"},{"kind":"result","key":"cc64bad5e7a8d40a","canonical":"#1576:385dd69acbb6c6ae","payload":"#1947:b93d278338ba58bc"},{"kind":"result","key":"cd781ae0ada3ef1d","canonical":"#1575:5bae18e26f7ac95f","payload":"#1928:b2df4b1d78ae5136"},{"kind":"failed","key":"e4086a0ed96e5344","canonical":"#1580:70478f397bd84468","payload":"#144:55f7081d92b04ed4"},{"kind":"result","key":"9880a72e7937852b","canonical":"#1582:ff68247d304255af","payload":"#1710:d7eb0274a80cd885"},{"kind":"program","key":"5b8da44c23addba4","canonical":"#26:1a8477ff27a9eb11","payload":"#98:aa5325880b6fd5c6"},{"kind":"program","key":"48a1ffca9acb9928","canonical":"#24:ce31f0a7f52e5885","payload":"#2747:770b2bae08fd2d79"}]}"##,
    );
    let records = member(&body, &["records"]);
    // The trace program's hex payload is long: pin it by digest.
    let payloads: Vec<String> = records
        .as_arr()
        .unwrap()
        .iter()
        .filter(|r| r.get("kind").and_then(Json::as_str) != Some("RESULT"))
        .map(|r| r.get("payload").and_then(Json::as_str).unwrap())
        .map(|p| {
            if p.len() > 200 {
                digest(p)
            } else {
                p.to_owned()
            }
        })
        .collect();
    pins.check("store FAILED/PROGRAM payloads", &payloads.join("\n"), r##"#1792:0ba851d49f6f8916
{"code":"simulation_failed","message":"worker panicked: test-panic workload requested a worker panic","request_id":"wire-panic"}
#1681:5d821125361e6887
#1795:6c4452273869e16a
#1791:6ccc6cc4fee03fda
#1772:354b482d9602b9a4
{"code":"simulation_failed","message":"worker panicked: test-panic workload requested a worker panic","request_id":"wire-partial"}
#1554:3e972e8250b2199d
{"kind":"asm","source":".func main\ntop: alu 3\n jcc top trip=8\n jmp top\n.end\n"}
#2737:4c90691792438635"##);

    // Health and version.
    let (status, body) = get(&addr, "/v1/healthz");
    assert_eq!(status, 200);
    pins.check("GET /v1/healthz", &mask(&body, &[]), r##"{"ok":true,"queue":{"depth":0,"capacity":8},"workers":{"alive":1,"count":1},"store":{"present":true,"writable":true}}"##);
    let (_, body) = get(&addr, "/v1/version");
    pins.check("GET /v1/version", &mask(&body, &[]), r##"{"version":"0.1.0","api":"v1.2","store_format":"UCSTOR03","features":{"observability":true,"fault_injection":false,"test_workloads":true,"durable_store":false,"cluster":false,"programs":true}}"##);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    pins.finish();
}

/// An adaptive sweep's settled body, frontier included.
#[test]
fn adaptive_sweep_body_keeps_its_bytes() {
    let _gate = gate();
    let server = Server::start(ServerConfig {
        workers: 2,
        ..config()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut pins = Pins::default();
    let (status, body) = post(
        &addr,
        "/v1/matrix",
        r#"{"workloads":["bm-cc"],"capacities":[2048,4096,8192,16384],"seed":5,"warmup":1000,"insts":5000,"mode":{"adaptive":{"axis":"capacity","tolerance":0.05}}}"#,
    );
    assert_eq!(status, 202);
    pins.check(
        "POST /v1/matrix adaptive 202",
        &mask(&body, &[]),
        r##"{"id":1,"planned":0,"poll":"/v1/matrix/1"}"##,
    );
    wait_settled(&addr, "/v1/matrix/1");
    let (_, body) = get(&addr, "/v1/matrix/1");
    pins.check("GET /v1/matrix/1 adaptive", &mask(&body, &[]), r##"{"id":1,"state":"done","created_at":"~","tenant":"default","priority":0,"mode":"adaptive","total":2,"planned":2,"skipped_from_store":0,"remote_done":0,"simulated":2,"done":2,"failed":0,"frontier":{"axis":"capacity","tolerance":0.05,"capacities":[2048,4096,8192,16384],"probed":[2048,16384],"knee":2048},"profile":{"jobs":2,"wall_ns":"~","stages":{"predict":{"count":2410,"timed":38,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"uc_lookup":{"count":2845,"timed":44,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"uc_fill":{"count":1127,"timed":18,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"decode":{"count":826,"timed":103,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"},"retire":{"count":2408,"timed":38,"total_ns":"~","bounds_ns":[1000,4000,16000,65000,262000],"buckets":"~"}},"counters":{"oc_hits":1841,"oc_misses":550,"oc_evictions":301,"oc_compactions":0,"pws_dispatched":1972}},"cells":[{"workload":"bm-cc","label":"OC_2K","seed":5,"key":"a11816419ceddc4c","state":"done"},{"workload":"bm-cc","label":"OC_16K","seed":5,"key":"3bc5f9233d6d5e6a","state":"done"}],"report":"#3847:89cae99a3b2f3821"}"##);
    server.shutdown();
    pins.finish();
}

/// The metrics document in both encodings, after a fixed request mix.
#[test]
fn metrics_bodies_keep_their_bytes() {
    let _gate = gate();
    let server = Server::start(config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut pins = Pins::default();
    let sim = r#"{"workload":"bm-cc","seed":9,"warmup":1000,"insts":5000}"#;
    let (status, body) = post(&addr, "/v1/sim", sim);
    assert_eq!(status, 200);
    pins.check(
        "POST /v1/sim 200",
        &mask(&body, &[]),
        r##"{"key":"c83c490941cb6f80","cached":false,"report":"#1792:dacd5f03364d0cf4"}"##,
    );
    let (status, body) = post(&addr, "/v1/sim", sim);
    assert_eq!(status, 200);
    pins.check(
        "POST /v1/sim 200 cached",
        &mask(&body, &[]),
        r##"{"key":"c83c490941cb6f80","cached":true,"report":"#1792:dacd5f03364d0cf4"}"##,
    );
    let (status, _) = post(&addr, "/v1/sim", r#"{"workload":"nope"}"#);
    assert_eq!(status, 400);
    let (status, _) = get(&addr, "/v1/nope");
    assert_eq!(status, 404);

    let (_, body) = get(&addr, "/v1/metrics");
    pins.check("GET /v1/metrics", &mask(&body, &[]), r##"{"uptime_us":"~","requests":4,"queue":{"depth":0,"capacity":8,"rejected_429":0},"scheduler":{"served":1,"preempted":0,"tenants_active":1,"jobs_cancelled":0,"wait_by_priority":{"p0":{"pops":1,"wait_us":"~"}}},"workers":{"count":1,"alive":1,"busy":0,"utilization":"~","jobs_executed":1,"jobs_failed":0,"jobs_deadline_exceeded":0,"workers_respawned":0},"store":{"write_errors":0},"cache":{"entries":1,"bytes":3180,"budget_bytes":8388608,"hits":1,"coalesced":0,"misses":1,"insertions":1,"evictions":0,"hit_rate":0.5},"latency_us":"~"}"##);
    let (_, text) = call(
        &addr,
        "GET",
        "/v1/metrics",
        &[("accept", "text/plain")],
        b"",
    );
    // Timing series read `~`; the per-endpoint latency histograms
    // collapse into one line that pins their series names by digest.
    let mut masked = Vec::new();
    let mut latency = Vec::new();
    for line in text.lines() {
        let (series, _) = line.rsplit_once(' ').unwrap();
        if line.contains("ucsim_request_latency_us") {
            latency.push(if line.starts_with('#') { line } else { series });
        } else if [
            "ucsim_uptime_us ",
            "ucsim_workers_utilization ",
            "_wait_us ",
        ]
        .iter()
        .any(|t| line.contains(t) && !line.starts_with('#'))
        {
            masked.push(format!("{series} ~"));
        } else {
            masked.push(line.to_owned());
        }
    }
    masked.push(format!(
        "latency: {} lines {}",
        latency.len(),
        digest(&latency.join("\n"))
    ));
    pins.check(
        "GET /v1/metrics text",
        &masked.join("\n"),
        r##"# TYPE ucsim_uptime_us counter
ucsim_uptime_us ~
# TYPE ucsim_requests counter
ucsim_requests 5
# TYPE ucsim_queue_depth gauge
ucsim_queue_depth 0
# TYPE ucsim_queue_capacity gauge
ucsim_queue_capacity 8
# TYPE ucsim_queue_rejected_429 counter
ucsim_queue_rejected_429 0
# TYPE ucsim_scheduler_served gauge
ucsim_scheduler_served 1
# TYPE ucsim_scheduler_preempted gauge
ucsim_scheduler_preempted 0
# TYPE ucsim_scheduler_tenants_active gauge
ucsim_scheduler_tenants_active 1
# TYPE ucsim_scheduler_jobs_cancelled gauge
ucsim_scheduler_jobs_cancelled 0
# TYPE ucsim_scheduler_wait_by_priority_p0_pops gauge
ucsim_scheduler_wait_by_priority_p0_pops 1
# TYPE ucsim_scheduler_wait_by_priority_p0_wait_us gauge
ucsim_scheduler_wait_by_priority_p0_wait_us ~
# TYPE ucsim_workers_count gauge
ucsim_workers_count 1
# TYPE ucsim_workers_alive gauge
ucsim_workers_alive 1
# TYPE ucsim_workers_busy gauge
ucsim_workers_busy 0
# TYPE ucsim_workers_utilization gauge
ucsim_workers_utilization ~
# TYPE ucsim_workers_jobs_executed counter
ucsim_workers_jobs_executed 1
# TYPE ucsim_workers_jobs_failed counter
ucsim_workers_jobs_failed 0
# TYPE ucsim_workers_jobs_deadline_exceeded counter
ucsim_workers_jobs_deadline_exceeded 0
# TYPE ucsim_workers_workers_respawned counter
ucsim_workers_workers_respawned 0
# TYPE ucsim_store_write_errors counter
ucsim_store_write_errors 0
# TYPE ucsim_cache_entries gauge
ucsim_cache_entries 1
# TYPE ucsim_cache_bytes gauge
ucsim_cache_bytes 3180
# TYPE ucsim_cache_budget_bytes gauge
ucsim_cache_budget_bytes 8388608
# TYPE ucsim_cache_hits counter
ucsim_cache_hits 1
# TYPE ucsim_cache_coalesced counter
ucsim_cache_coalesced 0
# TYPE ucsim_cache_misses counter
ucsim_cache_misses 1
# TYPE ucsim_cache_insertions counter
ucsim_cache_insertions 1
# TYPE ucsim_cache_evictions counter
ucsim_cache_evictions 0
# TYPE ucsim_cache_hit_rate gauge
ucsim_cache_hit_rate 0.5
latency: 341 lines #23550:060d230a06806d31"##,
    );
    server.shutdown();
    pins.finish();
}

/// A `GET /v1/trace` page: the events a previous request left behind.
#[test]
fn trace_page_keeps_its_bytes() {
    let _gate = gate();
    let server = Server::start(config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut pins = Pins::default();
    // Drain everything so far; the next page then holds exactly this
    // request's handle span and the next request's accept.
    let (_, body) = call(
        &addr,
        "GET",
        "/v1/trace?since=0&max=1000000",
        &[("x-request-id", "wire-trace")],
        b"",
    );
    let next = member(&body, &["next_since"]).as_u64().unwrap();
    let (_, body) = get(&addr, &format!("/v1/trace?since={next}"));
    let extra = [
        ("seq", Mask::Volatile),
        ("start_us", Mask::Volatile),
        ("dur_us", Mask::Volatile),
        ("next_since", Mask::Volatile),
    ];
    pins.check("GET /v1/trace", &mask(&body, &extra), r##"{"enabled":true,"events":[{"seq":"~","kind":"handle","start_us":"~","dur_us":"~","request_id":"97a5039859a0f54c","detail":200},{"seq":"~","kind":"accept","start_us":"~","dur_us":"~","request_id":"0000000000000000","detail":0},{"seq":"~","kind":"parse","start_us":"~","dur_us":"~","request_id":"0000000000000000","detail":0}],"next_since":"~"}"##);
    server.shutdown();
    pins.finish();
}

/// `GET /v1/healthz` of a node with one live peer.
#[test]
fn healthz_with_peers_keeps_its_bytes() {
    let _gate = gate();
    let addrs: Vec<String> = {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect()
    };
    let node = |i: usize| ServerConfig {
        addr: addrs[i].clone(),
        advertise: Some(addrs[i].clone()),
        peers: addrs.clone(),
        ..config()
    };
    let start = |cfg: ServerConfig| {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match Server::start(cfg.clone()) {
                Ok(s) => return s,
                Err(e) => {
                    assert!(Instant::now() < deadline, "{}: {e}", cfg.addr);
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };
    let b = start(node(1));
    let a = start(node(0));
    let mut pins = Pins::default();
    // Wait for A's first probe of B.
    let deadline = Instant::now() + Duration::from_secs(10);
    let body = loop {
        let (_, body) = get(&addrs[0], "/v1/healthz");
        if body.contains("last_probe_age_us") {
            break body;
        }
        assert!(Instant::now() < deadline, "no probe: {body}");
        std::thread::sleep(Duration::from_millis(20));
    };
    let extra = [("addr", Mask::Volatile), ("advertise", Mask::Volatile)];
    pins.check("GET /v1/healthz peers", &mask(&body, &extra), r##"{"ok":true,"queue":{"depth":0,"capacity":8},"workers":{"alive":1,"count":1},"store":{"present":false,"writable":true},"peers":{"advertise":"~","state":"ok","members":[{"addr":"~","state":"up","last_probe_age_us":"~","forwarded":0,"failed_over":0}]}}"##);
    a.shutdown();
    b.shutdown();
    pins.finish();
}
