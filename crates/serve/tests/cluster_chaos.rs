//! Cluster chaos suite: multi-node federation driven through the
//! deterministic fault-injection harness. Compiled only under
//! `--features fault-injection`.
//!
//! The acceptance scenario: a three-node cluster runs a 60-cell sweep
//! while one owner is killed outright and another is partitioned away
//! and later healed — the sweep must still settle complete, simulate
//! every planned cell exactly once (by the coordinator's ledger), and
//! merge to a report byte-identical to a single-node run.
//!
//! The injection harness is process-global state, so every test holds a
//! local serialization gate for its whole body; CI additionally runs
//! this suite with `--test-threads=1`.
#![cfg(feature = "fault-injection")]

use std::net::TcpListener;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use ucsim_model::json::Json;
use ucsim_pool::faults::{self, FaultAction, FaultRule, FireMode};
use ucsim_serve::{request, Client, Server, ServerConfig};

/// Serializes tests that arm the process-global fault harness.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
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

fn member_cfg(addr: &str, members: &[String]) -> ServerConfig {
    ServerConfig {
        addr: addr.to_owned(),
        advertise: Some(addr.to_owned()),
        peers: members.to_vec(),
        workers: 2,
        ..ServerConfig::default()
    }
}

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

/// Polls `GET /v1/matrix/:id` until the sweep settles, returning the
/// final document.
fn poll_settled(client: &mut Client, id: u64) -> Json {
    poll_until_done(client, id, u64::MAX)
}

/// Polls `GET /v1/matrix/:id` until at least `cells` cells are done or
/// the sweep settles, returning the last document.
fn poll_until_done(client: &mut Client, id: u64, cells: u64) -> Json {
    let path = format!("/v1/matrix/{id}");
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let r = client.request("GET", &path, b"").unwrap();
        assert_eq!(r.status, 200, "body: {}", r.body_str());
        let v = parse_json(&r.body_str());
        let done = v.get("done").unwrap().as_u64().unwrap();
        if done >= cells || v.get("state").unwrap().as_str() != Some("running") {
            return v;
        }
        assert!(Instant::now() < deadline, "sweep never settled");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A floor on every cell's run time, whatever the host's speed: each
/// job sleeps this long before it simulates, so a sweep spans enough
/// wall time for each chaos phase to land while cells are outstanding.
/// Delays never change reports.
fn cell_floor() -> FaultRule {
    FaultRule {
        site: "worker.pre_sim",
        action: FaultAction::DelayMs(100),
        mode: FireMode::EveryNth(1),
        target: None,
    }
}

/// A partition of `victim`: every connect to it — forwards, pulls, and
/// health probes alike — is refused at the transport fault site. The
/// cell floor stays installed beside it, since installing replaces the
/// whole rule set.
fn partition(victim: &str) {
    faults::install(
        0xC1A0,
        vec![
            cell_floor(),
            FaultRule {
                site: "peer.connect",
                action: FaultAction::IoError,
                mode: FireMode::EveryNth(1),
                target: Some(victim.to_owned()),
            },
        ],
    );
}

/// Lifts any partition, keeping the cell floor.
fn heal() {
    faults::install(0xC1A0, vec![cell_floor()]);
}

// 60 cells (3 workloads × 4 capacities × 5 policies). With the cell
// floor the federated sweep runs for seconds on any host — long enough
// to kill and partition nodes while it is demonstrably still in flight.
const SWEEP_BODY: &[u8] = br#"{"workloads":["redis","jvm","bm-cc"],"capacities":[2048,4096,8192,16384],"policies":["baseline","clasp","rac","pwac","fpwac"],"seed":7,"warmup":500,"insts":20000}"#;
const SWEEP_CELLS: u64 = 60;

/// The acceptance-criteria chaos test: kill one owner mid-sweep,
/// partition another and heal it, and the scatter-gather sweep still
/// settles with every cell simulated exactly once and a merged report
/// byte-identical to a single-node run.
#[test]
fn sweep_survives_a_killed_owner_and_a_healed_partition() {
    let _gate = serial();
    faults::clear();

    // Single-node oracle for the report bytes.
    let reference = start_node(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        ..ServerConfig::default()
    });
    let mut ref_client = Client::new(&reference.local_addr().to_string());
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

    let addrs = reserve_addrs(3);
    let a = start_node(member_cfg(&addrs[0], &addrs));
    let b = start_node(member_cfg(&addrs[1], &addrs));
    let c = start_node(member_cfg(&addrs[2], &addrs));

    faults::install(0xC1A0, vec![cell_floor()]);
    let mut client = Client::new(&addrs[0]);
    let r = client.request("POST", "/v1/matrix", SWEEP_BODY).unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    let accepted = parse_json(&r.body_str());
    assert_eq!(accepted.get("planned").unwrap().as_u64(), Some(SWEEP_CELLS));
    let id = accepted.get("id").unwrap().as_u64().unwrap();

    // Mid-sweep, once the first cells are in: partition node C away from
    // everyone, then kill node B outright. The coordinator keeps only
    // itself.
    let doc = poll_until_done(&mut client, id, 5);
    assert_eq!(
        doc.get("state").unwrap().as_str(),
        Some("running"),
        "chaos must land mid-sweep: {doc}"
    );
    partition(&addrs[2]);
    b.shutdown();

    // Let the sweep grind against the degraded cluster until half the
    // cells are in, then heal the partition while the rest are still
    // outstanding.
    let doc = poll_until_done(&mut client, id, SWEEP_CELLS / 2);
    assert_eq!(
        doc.get("state").unwrap().as_str(),
        Some("running"),
        "heal must land mid-sweep: {doc}"
    );
    heal();

    let doc = poll_settled(&mut client, id);
    assert_eq!(
        doc.get("state").unwrap().as_str(),
        Some("done"),
        "doc: {doc}"
    );
    assert_eq!(doc.get("failed").unwrap().as_u64(), Some(0));
    // The coordinator's ledger: every planned cell simulated exactly
    // once — failovers re-route cells, they never double-count them.
    assert_eq!(doc.get("simulated").unwrap().as_u64(), Some(SWEEP_CELLS));
    assert_eq!(doc.get("done").unwrap().as_u64(), Some(SWEEP_CELLS));

    // And the merged report is byte-identical to the single-node run.
    assert_eq!(
        doc.get("report").unwrap().to_string(),
        ref_report,
        "degraded-cluster report must match the single-node bytes"
    );

    // The coordinator recorded the failovers it performed around the
    // dead and partitioned members.
    let r = request(&addrs[0], "GET", "/v1/metrics", b"").unwrap();
    let peers = parse_json(&r.body_str()).get("peers").unwrap().clone();
    assert!(
        peers.get("failed_over").unwrap().as_u64().unwrap() > 0,
        "metrics: {peers}"
    );

    a.shutdown();
    c.shutdown();
    faults::clear();
}

/// Torn peer responses and injected request delays: the gather path
/// treats a response that dies mid-body as a failed hop and re-routes
/// the cell, so the sweep still completes every cell.
#[test]
fn torn_peer_responses_and_delays_fail_over_without_losing_cells() {
    let _gate = serial();
    faults::clear();

    let addrs = reserve_addrs(2);
    let a = start_node(member_cfg(&addrs[0], &addrs));
    let b = start_node(member_cfg(&addrs[1], &addrs));

    faults::install(
        0xFEED,
        vec![
            // Responses from node B die 12 bytes in, four times.
            FaultRule {
                site: "peer.recv",
                action: FaultAction::TornWrite { keep: 12 },
                mode: FireMode::First(4),
                target: Some(addrs[1].clone()),
            },
            // And a couple of transport stalls for good measure.
            FaultRule {
                site: "peer.request",
                action: FaultAction::DelayMs(150),
                mode: FireMode::First(2),
                target: None,
            },
        ],
    );

    let body: &[u8] = br#"{"workloads":["bm-cc"],"capacities":[2048,4096,8192,16384],"policies":["baseline","clasp","rac","pwac","fpwac"],"seed":7,"warmup":200,"insts":2000}"#;
    let mut client = Client::new(&addrs[0]);
    let r = client.request("POST", "/v1/matrix", body).unwrap();
    assert_eq!(r.status, 202, "body: {}", r.body_str());
    let id = parse_json(&r.body_str())
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    let doc = poll_settled(&mut client, id);

    assert_eq!(
        doc.get("state").unwrap().as_str(),
        Some("done"),
        "doc: {doc}"
    );
    assert_eq!(doc.get("failed").unwrap().as_u64(), Some(0));
    assert_eq!(doc.get("done").unwrap().as_u64(), Some(20));
    // A torn response can arrive *after* the peer executed the cell;
    // the retried hop then answers from the peer's cache, so the cell
    // lands as skipped-from-store rather than simulated. Either way,
    // every cell is accounted for exactly once.
    let simulated = doc.get("simulated").unwrap().as_u64().unwrap();
    let skipped = doc.get("skipped_from_store").unwrap().as_u64().unwrap();
    assert_eq!(simulated + skipped, 20, "doc: {doc}");
    assert!(
        faults::fired("peer.recv") >= 1,
        "the torn-response site never fired"
    );

    a.shutdown();
    b.shutdown();
    faults::clear();
}

/// A fully partitioned peer is marked down by the breaker, the cluster
/// reports degraded while still serving what it owns, and a healed
/// partition closes the breaker again.
#[test]
fn partitioned_peer_reports_degraded_and_recovers() {
    let _gate = serial();
    faults::clear();

    let addrs = reserve_addrs(2);
    let a = start_node(member_cfg(&addrs[0], &addrs));
    let b = start_node(member_cfg(&addrs[1], &addrs));
    partition(&addrs[1]);

    // Probe failures trip the breaker: node A reports the cluster
    // degraded with the victim down.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let r = request(&addrs[0], "GET", "/v1/healthz", b"").unwrap();
        let peers = parse_json(&r.body_str()).get("peers").unwrap().clone();
        let member = peers.get("members").unwrap().as_arr().unwrap()[0].clone();
        if peers.get("state").unwrap().as_str() == Some("degraded")
            && member.get("state").unwrap().as_str() == Some("down")
        {
            break;
        }
        assert!(Instant::now() < deadline, "breaker never opened: {peers}");
        std::thread::sleep(Duration::from_millis(100));
    }

    // Degraded mode still serves: a job whose owner may well be the
    // unreachable peer is simulated locally instead of erroring.
    let mut client = Client::new(&addrs[0]);
    let r = client
        .request(
            "POST",
            "/v1/sim",
            br#"{"workload":"bm-cc","seed":3,"warmup":100,"insts":500}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200, "body: {}", r.body_str());
    assert_eq!(
        a.simulations_executed(),
        1,
        "served locally despite the partition"
    );

    // Heal: the next successful probe closes the breaker.
    faults::clear();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let r = request(&addrs[0], "GET", "/v1/healthz", b"").unwrap();
        let peers = parse_json(&r.body_str()).get("peers").unwrap().clone();
        if peers.get("state").unwrap().as_str() == Some("ok") {
            break;
        }
        assert!(Instant::now() < deadline, "breaker never closed: {peers}");
        std::thread::sleep(Duration::from_millis(100));
    }

    a.shutdown();
    b.shutdown();
    faults::clear();
}
