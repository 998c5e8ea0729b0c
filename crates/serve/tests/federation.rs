//! Federation integration suite: multi-node clusters assembled
//! in-process — rendezvous job routing, scatter-gather sweeps,
//! anti-entropy store replication, and the peers sections of the
//! introspection endpoints. Fault-free paths only; the kill/partition
//! scenarios live in `cluster_chaos.rs` (feature-gated).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ucsim_model::json::Json;
use ucsim_serve::{fnv1a, request, Client, PeerSet, Server, ServerConfig, SimRequest};

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

/// A cluster member's configuration: every node gets the identical
/// membership list; its own advertised address is filtered out.
fn member_cfg(addr: &str, members: &[String]) -> ServerConfig {
    ServerConfig {
        addr: addr.to_owned(),
        advertise: Some(addr.to_owned()),
        peers: members.to_vec(),
        workers: 2,
        anti_entropy_interval: Duration::from_millis(150),
        ..ServerConfig::default()
    }
}

/// Starts one node, retrying briefly if the reserved port is still in
/// TIME_WAIT from the reservation probe.
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

fn parse_json(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON from server: {e}\n{body}"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ucsim-fed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls `GET /v1/matrix/:id` until the sweep settles, returning the
/// final document.
fn poll_settled(client: &mut Client, id: u64) -> Json {
    let path = format!("/v1/matrix/{id}");
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let r = client.request("GET", &path, b"").unwrap();
        assert_eq!(r.status, 200, "body: {}", r.body_str());
        let v = parse_json(&r.body_str());
        if v.get("state").unwrap().as_str() != Some("running") {
            return v;
        }
        assert!(Instant::now() < deadline, "sweep never settled");
        std::thread::sleep(Duration::from_millis(50));
    }
}

const SIM_BODY: &[u8] = br#"{"workload":"bm-cc","seed":11,"warmup":100,"insts":500}"#;

#[test]
fn routed_job_executes_once_and_both_nodes_answer_it() {
    let addrs = reserve_addrs(2);
    let a = start_node(member_cfg(&addrs[0], &addrs));
    let b = start_node(member_cfg(&addrs[1], &addrs));

    let mut client = Client::new(&addrs[0]);
    client.set_request_id(Some("fed-route-1".to_owned()));
    let first = client.request("POST", "/v1/sim", SIM_BODY).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body_str());
    // The request id survives the hop to the owner and back.
    assert_eq!(first.header("x-request-id"), Some("fed-route-1"));
    let first_doc = parse_json(&first.body_str());
    assert_eq!(first_doc.get("cached").unwrap().as_bool(), Some(false));

    // Exactly one node simulated, regardless of which one owns the key.
    assert_eq!(a.simulations_executed() + b.simulations_executed(), 1);

    // The other node answers the same spec without re-simulating, with a
    // byte-identical report.
    let mut client_b = Client::new(&addrs[1]);
    let second = client_b.request("POST", "/v1/sim", SIM_BODY).unwrap();
    assert_eq!(second.status, 200, "body: {}", second.body_str());
    let second_doc = parse_json(&second.body_str());
    assert_eq!(second_doc.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(
        first_doc.get("report").unwrap().to_string(),
        second_doc.get("report").unwrap().to_string(),
        "reports must be byte-identical across nodes"
    );
    assert_eq!(a.simulations_executed() + b.simulations_executed(), 1);

    a.shutdown();
    b.shutdown();
}

/// A fake cluster member: answers `GET /v1/healthz` with 200 and every
/// other request with a canned status line, extra headers and body,
/// counting the `POST /v1/sim`s it gets.
struct FakePeer {
    addr: String,
    sims: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl FakePeer {
    fn start(status: &str, headers: &str, body: &str) -> FakePeer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
        let addr = listener.local_addr().unwrap().to_string();
        let sims = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (counter, stopping) = (Arc::clone(&sims), Arc::clone(&stop));
        let (status, headers, body) = (status.to_owned(), headers.to_owned(), body.to_owned());
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(mut stream) = stream else { continue };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut request_line = String::new();
                let mut content_length = 0;
                let _ = reader.read_line(&mut request_line);
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 || line == "\r\n" {
                        break;
                    }
                    if let Some((k, v)) = line.split_once(':') {
                        if k.eq_ignore_ascii_case("content-length") {
                            content_length = v.trim().parse().unwrap_or(0);
                        }
                    }
                }
                let mut request_body = vec![0u8; content_length];
                let _ = reader.read_exact(&mut request_body);
                let (status, headers, body) = if request_line.starts_with("GET /v1/healthz") {
                    ("200 OK", "", r#"{"ok":true}"#)
                } else {
                    if request_line.starts_with("POST /v1/sim") {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }
                    (status.as_str(), headers.as_str(), body.as_str())
                };
                let _ = stream.write_all(
                    format!(
                        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
                         Content-Length: {}\r\n{headers}Connection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
            }
        });
        FakePeer {
            addr,
            sims,
            stop,
            thread,
        }
    }

    /// Stops the accept loop (one dial wakes it) and joins its thread.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
        self.thread.join().expect("fake peer thread");
    }
}

/// Starts a node peered with `fake`, sends it a `POST /v1/sim` for a
/// spec the fake owns, and checks the node ran the job itself after the
/// fake's answer failed it over.
fn assert_owner_answer_fails_over(fake: FakePeer) {
    let addr = reserve_addrs(1).remove(0);
    let members = vec![addr.clone(), fake.addr.clone()];
    let node = start_node(ServerConfig {
        workers: 1,
        ..member_cfg(&addr, &members)
    });
    // A spec whose rendezvous primary owner is the fake.
    let view = PeerSet::new(addr.clone(), members.clone(), Duration::from_secs(5));
    let body = (1u64..)
        .map(|seed| format!(r#"{{"workload":"bm-cc","seed":{seed},"warmup":100,"insts":500}}"#))
        .find(|body| {
            let spec = SimRequest::parse(body).unwrap().resolve(0);
            !view.owns(fnv1a(spec.canonical().as_bytes()))
        })
        .unwrap();

    let r = request(&addr, "POST", "/v1/sim", body.as_bytes()).unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());
    let doc = parse_json(&r.body_str());
    assert_eq!(doc.get("cached").unwrap().as_bool(), Some(false));
    assert!(doc.get("report").is_some(), "no report: {}", r.body_str());
    assert_eq!(
        fake.sims.load(Ordering::SeqCst),
        1,
        "the owner was asked first"
    );
    assert_eq!(node.simulations_executed(), 1, "the job ran locally");
    node.shutdown();
    fake.stop();
}

#[test]
fn routed_sim_fails_over_when_the_owner_answers_429() {
    assert_owner_answer_fails_over(FakePeer::start(
        "429 Too Many Requests",
        "Retry-After: 1\r\n",
        r#"{"error":{"code":"queue_full","message":"job queue full; retry later","retry_after":1}}"#,
    ));
}

#[test]
fn routed_sim_fails_over_when_the_owner_answers_200_without_json() {
    assert_owner_answer_fails_over(FakePeer::start("200 OK", "", "this is not an envelope"));
}

const SWEEP_BODY: &[u8] = br#"{"workloads":["redis","jvm","bm-cc"],"capacities":[2048,4096,8192,16384],"policies":["baseline","clasp","rac","pwac","fpwac"],"seed":7,"warmup":200,"insts":2000}"#;
const SWEEP_CELLS: u64 = 60;

#[test]
fn scatter_gather_sweep_is_byte_identical_to_single_node() {
    // The single-node oracle first: same cross, no peers.
    let reference = start_node(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        ..ServerConfig::default()
    });
    let ref_addr = reference.local_addr().to_string();
    let mut ref_client = Client::new(&ref_addr);
    let r = ref_client
        .request("POST", "/v1/matrix", SWEEP_BODY)
        .unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    let id = parse_json(&r.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    let ref_doc = poll_settled(&mut ref_client, id);
    assert_eq!(ref_doc.get("state").unwrap().as_str(), Some("done"));
    let ref_report = ref_doc.get("report").unwrap().to_string();
    reference.shutdown();

    let addrs = reserve_addrs(2);
    let a = start_node(member_cfg(&addrs[0], &addrs));
    let b = start_node(member_cfg(&addrs[1], &addrs));

    let mut client = Client::new(&addrs[0]);
    let r = client.request("POST", "/v1/matrix", SWEEP_BODY).unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    let accepted = parse_json(&r.body_str());
    assert_eq!(accepted.get("planned").unwrap().as_u64(), Some(SWEEP_CELLS));
    let id = accepted.get("id").unwrap().as_u64().unwrap();
    let doc = poll_settled(&mut client, id);

    assert_eq!(doc.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(doc.get("failed").unwrap().as_u64(), Some(0));
    // Fresh cluster: every planned cell simulated exactly once, spread
    // across the members by ownership.
    assert_eq!(doc.get("simulated").unwrap().as_u64(), Some(SWEEP_CELLS));
    assert_eq!(doc.get("skipped_from_store").unwrap().as_u64(), Some(0));
    let exec_a = a.simulations_executed();
    let exec_b = b.simulations_executed();
    assert_eq!(exec_a + exec_b, SWEEP_CELLS, "no cell simulated twice");
    assert!(exec_a > 0, "coordinator kept its owned cells");
    assert!(exec_b > 0, "peer received its owned cells");
    let remote = doc.get("remote_done").unwrap().as_u64().unwrap();
    assert_eq!(remote, exec_b, "every peer-owned cell gathered remotely");

    // The merged aggregate is byte-identical to the single-node run.
    assert_eq!(
        doc.get("report").unwrap().to_string(),
        ref_report,
        "scatter-gather must merge to the single-node report bytes"
    );

    a.shutdown();
    b.shutdown();
}

/// Polls a node's `GET /v1/store` until it holds `want` verified
/// records, returning the final document.
fn poll_store_records(addr: &str, want: usize) -> Json {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let r = ucsim_serve::request(addr, "GET", "/v1/store?since=0&max=64", b"").unwrap();
        assert_eq!(r.status, 200, "body: {}", r.body_str());
        let v = parse_json(&r.body_str());
        let n = v.get("records").unwrap().as_arr().unwrap().len();
        if n >= want {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "store never reached {want} records (at {n})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn anti_entropy_replicates_results_and_survives_restart() {
    let dirs = [temp_dir("ae-a"), temp_dir("ae-b")];
    let addrs = reserve_addrs(2);
    let mk = |i: usize| ServerConfig {
        data_dir: Some(dirs[i].clone()),
        ..member_cfg(&addrs[i], &addrs)
    };
    let a = start_node(mk(0));
    let b = start_node(mk(1));

    // Two distinct jobs, submitted to different nodes: each executes on
    // its owner, and anti-entropy pulls carry the records to the other
    // member — including records appended while the pull loop is already
    // cycling.
    let mut client_a = Client::new(&addrs[0]);
    let mut client_b = Client::new(&addrs[1]);
    let r = client_a.request("POST", "/v1/sim", SIM_BODY).unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());
    let second_body: &[u8] = br#"{"workload":"bm-cc","seed":12,"warmup":100,"insts":500}"#;
    let r = client_b.request("POST", "/v1/sim", second_body).unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());
    assert_eq!(a.simulations_executed() + b.simulations_executed(), 2);

    let doc_a = poll_store_records(&addrs[0], 2);
    let doc_b = poll_store_records(&addrs[1], 2);
    let keys = |doc: &Json| -> Vec<String> {
        let mut ks: Vec<String> = doc
            .get("records")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.get("key").unwrap().as_str().unwrap().to_owned())
            .collect();
        ks.sort();
        ks
    };
    assert_eq!(keys(&doc_a), keys(&doc_b), "stores converged on both keys");

    // Crash mid-append on both nodes: torn garbage at each log tail. The
    // delta endpoint stops at the checksum mismatch, so the garbage is
    // never served — and never replicated.
    for dir in &dirs {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("results.log"))
            .unwrap();
        f.write_all(&[0x01, 0xde, 0xad, 0xbe]).unwrap();
    }
    std::thread::sleep(Duration::from_millis(500)); // a few pull cycles
    for addr in &addrs {
        let r = ucsim_serve::request(addr, "GET", "/v1/store?since=0&max=64", b"").unwrap();
        let v = parse_json(&r.body_str());
        assert_eq!(
            v.get("records").unwrap().as_arr().unwrap().len(),
            2,
            "torn tail must not be served or replicated"
        );
        assert_eq!(v.get("eof").unwrap().as_bool(), Some(true));
    }

    a.shutdown();
    b.shutdown();

    // Restart one member standalone on its pulled store: both jobs —
    // including the one its peer executed — answer from replay with zero
    // re-simulation, torn tail notwithstanding.
    let restarted = start_node(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        data_dir: Some(dirs[1].clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::new(&restarted.local_addr().to_string());
    for body in [SIM_BODY, second_body] {
        let r = client.request("POST", "/v1/sim", body).unwrap();
        assert_eq!(r.status, 200, "body: {}", r.body_str());
        let v = parse_json(&r.body_str());
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
    }
    assert_eq!(restarted.simulations_executed(), 0, "zero re-sims");
    restarted.shutdown();

    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn introspection_endpoints_expose_cluster_state() {
    let addrs = reserve_addrs(2);
    let a = start_node(member_cfg(&addrs[0], &addrs));
    let b = start_node(member_cfg(&addrs[1], &addrs));

    let r = ucsim_serve::request(&addrs[0], "GET", "/v1/healthz", b"").unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());
    let health = parse_json(&r.body_str());
    let peers = health.get("peers").expect("peers section in healthz");
    assert_eq!(
        peers.get("advertise").unwrap().as_str(),
        Some(addrs[0].as_str())
    );
    let members = peers.get("members").unwrap().as_arr().unwrap();
    assert_eq!(members.len(), 1, "self filtered from the member list");
    assert_eq!(
        members[0].get("addr").unwrap().as_str(),
        Some(addrs[1].as_str())
    );

    // Give the probe loop a beat: a live peer must be reported up and
    // the cluster state ok.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = ucsim_serve::request(&addrs[0], "GET", "/v1/healthz", b"").unwrap();
        let peers = parse_json(&r.body_str()).get("peers").unwrap().clone();
        let state = peers.get("state").unwrap().as_str().unwrap().to_owned();
        if state == "ok" {
            break;
        }
        assert!(Instant::now() < deadline, "cluster never converged to ok");
        std::thread::sleep(Duration::from_millis(50));
    }

    let r = ucsim_serve::request(&addrs[0], "GET", "/v1/metrics", b"").unwrap();
    let metrics = parse_json(&r.body_str());
    let peers = metrics.get("peers").expect("peers section in metrics");
    assert_eq!(peers.get("configured").unwrap().as_u64(), Some(1));
    for leaf in ["forwarded", "failed_over", "probes", "pull_rounds"] {
        assert!(peers.get(leaf).is_some(), "missing peers.{leaf}");
    }
    // The Prometheus exposition flattens the same section mechanically.
    let prom = ucsim_serve::render_prometheus(&metrics);
    assert!(prom.contains("ucsim_peers_probes"), "{prom}");
    assert!(prom.contains("# TYPE ucsim_peers_probes counter"), "{prom}");
    assert!(
        prom.contains("# TYPE ucsim_peers_configured gauge"),
        "{prom}"
    );

    let r = ucsim_serve::request(&addrs[0], "GET", "/v1/version", b"").unwrap();
    let version = parse_json(&r.body_str());
    assert_eq!(
        version
            .get("features")
            .unwrap()
            .get("cluster")
            .unwrap()
            .as_bool(),
        Some(true)
    );

    a.shutdown();
    b.shutdown();
}
