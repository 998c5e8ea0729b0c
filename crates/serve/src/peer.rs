//! Static-membership federation: rendezvous ownership, a fault-
//! instrumented peer transport, and per-peer health tracking.
//!
//! A cluster is a set of `ucsim-serve` nodes, each started with the same
//! (order-independent) `--peer` list and its own `--advertise` address.
//! There is no coordinator election and no dynamic membership: ownership
//! of a content-addressed job is decided by rendezvous (highest-random-
//! weight) hashing over the member addresses, so every node computes the
//! same owner chain for a key without talking to anyone.
//!
//! Health is tracked per peer with a consecutive-failure circuit
//! breaker: a peer that fails [`DOWN_AFTER_FAILURES`] times in a row is
//! `down` and skipped by routing until a background probe (driven by the
//! server, with exponential backoff per peer) sees it answer again.
//! One or two recent failures leave it `degraded` — still routed to,
//! on the theory that a single timeout shouldn't exile a healthy node.
//!
//! Every transport call is a named fault site (`peer.connect`,
//! `peer.request`, `peer.recv`) with the peer address as the instance
//! target, so cluster chaos tests can refuse connections to *one* node
//! of an in-process cluster (see `ucsim_pool::faults`).

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ucsim_model::{fnv1a, SplitMix64, ToJson};
use ucsim_pool::faults;

use crate::client::HttpResponse;

/// Consecutive transport failures after which a peer is `down` (circuit
/// open: routing skips it until a probe succeeds).
pub const DOWN_AFTER_FAILURES: u32 = 3;
/// First probe backoff after a peer goes unhealthy.
const PROBE_BACKOFF_MIN: Duration = Duration::from_millis(500);
/// Probe backoff ceiling.
const PROBE_BACKOFF_MAX: Duration = Duration::from_secs(8);
/// Probe cadence for a healthy peer (keeps `last_probe_age_us` fresh).
const PROBE_INTERVAL_UP: Duration = Duration::from_secs(2);
/// Connect/read/write timeout for probes (shorter than forwards — a
/// probe answers "is it there", not "what is the answer").
const PROBE_TIMEOUT: Duration = Duration::from_millis(750);
/// Retries per forward attempt to one peer (after the first try).
const FORWARD_RETRIES: u32 = 2;
/// Base backoff between forward retries (jittered ×[0.5, 1.5), doubled
/// per retry).
const FORWARD_BACKOFF: Duration = Duration::from_millis(50);

/// Peer health as reported by `/v1/healthz` and `/v1/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Last contact succeeded; routed to normally.
    Up,
    /// Recent failures below the breaker threshold; still routed to.
    Degraded,
    /// Breaker open: skipped by routing until a probe succeeds.
    Down,
}

impl PeerState {
    /// The wire name (`up` / `degraded` / `down`).
    pub fn as_str(self) -> &'static str {
        match self {
            PeerState::Up => "up",
            PeerState::Degraded => "degraded",
            PeerState::Down => "down",
        }
    }
}

#[derive(Debug)]
struct Health {
    consecutive_failures: u32,
    state: PeerState,
    last_probe: Option<Instant>,
    next_probe: Instant,
    backoff: Duration,
}

/// One cluster member (not self): address, breaker state, counters.
#[derive(Debug)]
pub struct Peer {
    addr: String,
    health: Mutex<Health>,
    /// Requests forwarded to this peer (attempts that reached transport).
    forwarded: AtomicU64,
    /// Times routing gave up on this peer and moved to the next owner.
    failed_over: AtomicU64,
    /// Health probes sent.
    probes: AtomicU64,
    /// Anti-entropy byte cursor into this peer's `results.log`.
    pull_cursor: AtomicU64,
}

impl Peer {
    fn new(addr: String) -> Peer {
        Peer {
            addr,
            health: Mutex::new(Health {
                consecutive_failures: 0,
                state: PeerState::Up,
                last_probe: None,
                next_probe: Instant::now(),
                backoff: PROBE_BACKOFF_MIN,
            }),
            forwarded: AtomicU64::new(0),
            failed_over: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            pull_cursor: AtomicU64::new(0),
        }
    }

    /// The peer's `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Current breaker state.
    pub fn state(&self) -> PeerState {
        self.health.lock().expect("peer health lock").state
    }

    /// Whether routing should try this peer (breaker not open).
    pub fn available(&self) -> bool {
        self.state() != PeerState::Down
    }

    /// Records a successful contact: breaker closes, peer is `up`.
    pub fn note_success(&self) {
        let mut h = self.health.lock().expect("peer health lock");
        h.consecutive_failures = 0;
        h.state = PeerState::Up;
        h.backoff = PROBE_BACKOFF_MIN;
    }

    /// Records a failed contact; after [`DOWN_AFTER_FAILURES`] in a row
    /// the breaker opens.
    pub fn note_failure(&self) {
        let mut h = self.health.lock().expect("peer health lock");
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        h.state = if h.consecutive_failures >= DOWN_AFTER_FAILURES {
            PeerState::Down
        } else {
            PeerState::Degraded
        };
    }

    /// Counts a failover away from this peer.
    pub fn note_failed_over(&self) {
        self.failed_over.fetch_add(1, Ordering::Relaxed);
    }

    /// The anti-entropy cursor (byte offset into the peer's log).
    pub fn pull_cursor(&self) -> u64 {
        self.pull_cursor.load(Ordering::Relaxed)
    }

    /// Advances the anti-entropy cursor.
    pub fn set_pull_cursor(&self, offset: u64) {
        self.pull_cursor.store(offset, Ordering::Relaxed);
    }
}

/// The cluster view of one node: its own advertised address plus every
/// peer, with routing, transport, and health probing.
#[derive(Debug)]
pub struct PeerSet {
    self_addr: String,
    peers: Vec<Peer>,
    deadline: Duration,
    /// Jitter stream for forward-retry backoff.
    jitter: Mutex<SplitMix64>,
    /// Anti-entropy pull rounds completed (all peers polled once).
    pull_rounds: AtomicU64,
    /// Records replicated in by anti-entropy.
    pull_records: AtomicU64,
}

impl PeerSet {
    /// Builds the cluster view. `self_addr` is this node's advertised
    /// address; `peers` the other members (self is filtered out if
    /// listed, so every node can be started with the identical list).
    pub fn new(self_addr: String, peers: Vec<String>, deadline: Duration) -> PeerSet {
        let mut seen = Vec::new();
        let peers = peers
            .into_iter()
            .filter(|p| {
                *p != self_addr && !seen.contains(p) && {
                    seen.push(p.clone());
                    true
                }
            })
            .map(Peer::new)
            .collect();
        PeerSet {
            jitter: Mutex::new(SplitMix64::new(fnv1a(self_addr.as_bytes()) ^ 0x9e37)),
            self_addr,
            peers,
            deadline,
            pull_rounds: AtomicU64::new(0),
            pull_records: AtomicU64::new(0),
        }
    }

    /// This node's advertised address.
    pub fn self_addr(&self) -> &str {
        &self.self_addr
    }

    /// All peers (not including self).
    pub fn peers(&self) -> &[Peer] {
        &self.peers
    }

    /// The owner chain for a content address: every member (self
    /// included) ranked by rendezvous score, best first. `None` entries
    /// mean "this node". All members compute the identical chain because
    /// the score depends only on `(key, member address)`.
    pub fn owner_chain(&self, key_hash: u64) -> Vec<Option<&Peer>> {
        let mut ranked: Vec<(u64, &str, Option<&Peer>)> = self
            .peers
            .iter()
            .map(|p| {
                (
                    rendezvous_score(key_hash, &p.addr),
                    p.addr.as_str(),
                    Some(p),
                )
            })
            .chain(std::iter::once((
                rendezvous_score(key_hash, &self.self_addr),
                self.self_addr.as_str(),
                None,
            )))
            .collect();
        // Tie-break on address so the order is total and identical
        // everywhere even in the (vanishing) case of equal scores.
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
        ranked.into_iter().map(|(_, _, m)| m).collect()
    }

    /// Whether this node is the primary owner of `key_hash`.
    pub fn owns(&self, key_hash: u64) -> bool {
        matches!(self.owner_chain(key_hash).first(), Some(None))
    }

    /// Sends one request to `peer` with bounded, jittered retries and
    /// the set's deadline, maintaining the peer's breaker state. The
    /// `forwarded` counter ticks once per call.
    ///
    /// # Errors
    ///
    /// The last transport error once retries are exhausted. Any parsed
    /// HTTP response (including 5xx) is `Ok` — the caller decides
    /// whether a status is a failover reason.
    pub fn forward(
        &self,
        peer: &Peer,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<HttpResponse> {
        peer.forwarded.fetch_add(1, Ordering::Relaxed);
        let mut attempt = 0u32;
        loop {
            match http_once(&peer.addr, method, path, extra_headers, body, self.deadline) {
                Ok(resp) => {
                    peer.note_success();
                    return Ok(resp);
                }
                Err(e) if attempt < FORWARD_RETRIES => {
                    let _ = e;
                    let backoff = {
                        let mut rng = self.jitter.lock().expect("jitter lock");
                        FORWARD_BACKOFF
                            .saturating_mul(1 << attempt.min(8))
                            .mul_f64(0.5 + rng.unit_f64())
                    };
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                Err(e) => {
                    peer.note_failure();
                    return Err(e);
                }
            }
        }
    }

    /// One bookkeeping-light `GET` against a peer, used by the
    /// anti-entropy pull loop: no retries and no `forwarded` counter
    /// (pulls are steady-state background traffic, not routed client
    /// requests), but success and failure still feed the breaker so a
    /// dead peer stops being pulled until a probe revives it.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures from the transport.
    pub fn fetch(&self, peer: &Peer, path: &str) -> io::Result<HttpResponse> {
        let res = http_once(&peer.addr, "GET", path, &[], b"", self.deadline);
        match &res {
            Ok(_) => peer.note_success(),
            Err(_) => peer.note_failure(),
        }
        res
    }

    /// Probes every peer whose schedule is due: `GET /v1/healthz` with a
    /// short timeout. Success closes the breaker; failure backs the next
    /// probe off exponentially. Returns how many probes were sent.
    /// The server calls this from a background thread a few times per
    /// second; the per-peer schedule keeps the actual probe rate low.
    pub fn probe_due(&self) -> usize {
        let now = Instant::now();
        let mut sent = 0;
        for peer in &self.peers {
            let due = {
                let h = peer.health.lock().expect("peer health lock");
                now >= h.next_probe
            };
            if !due {
                continue;
            }
            peer.probes.fetch_add(1, Ordering::Relaxed);
            sent += 1;
            let ok = http_once(&peer.addr, "GET", "/v1/healthz", &[], b"", PROBE_TIMEOUT).is_ok();
            let mut h = peer.health.lock().expect("peer health lock");
            h.last_probe = Some(now);
            if ok {
                h.consecutive_failures = 0;
                h.state = PeerState::Up;
                h.backoff = PROBE_BACKOFF_MIN;
                h.next_probe = now + PROBE_INTERVAL_UP;
            } else {
                h.consecutive_failures = h.consecutive_failures.saturating_add(1);
                h.state = if h.consecutive_failures >= DOWN_AFTER_FAILURES {
                    PeerState::Down
                } else {
                    PeerState::Degraded
                };
                h.next_probe = now + h.backoff;
                h.backoff = (h.backoff * 2).min(PROBE_BACKOFF_MAX);
            }
        }
        sent
    }

    /// Whether any peer is not `up` — the cluster `degraded` signal in
    /// `/v1/healthz` (the node itself still serves what it owns).
    pub fn degraded(&self) -> bool {
        self.peers.iter().any(|p| p.state() != PeerState::Up)
    }

    /// Counts an anti-entropy round.
    pub fn note_pull_round(&self, records: u64) {
        self.pull_rounds.fetch_add(1, Ordering::Relaxed);
        self.pull_records.fetch_add(records, Ordering::Relaxed);
    }

    /// Records replicated in by anti-entropy so far.
    pub fn pull_records(&self) -> u64 {
        self.pull_records.load(Ordering::Relaxed)
    }

    /// The `peers` member for `/v1/healthz`: per-peer state, last-probe
    /// age, and forward/failover counters, plus the cluster summary.
    pub(crate) fn health(&self) -> ClusterHealth {
        let now = Instant::now();
        let members = self
            .peers
            .iter()
            .map(|p| {
                let h = p.health.lock().expect("peer health lock");
                MemberHealth {
                    addr: p.addr.clone(),
                    state: h.state.as_str(),
                    last_probe_age_us: h.last_probe.map(|at| {
                        let age = now.saturating_duration_since(at).as_micros();
                        u64::try_from(age).unwrap_or(u64::MAX)
                    }),
                    forwarded: p.forwarded.load(Ordering::Relaxed),
                    failed_over: p.failed_over.load(Ordering::Relaxed),
                }
            })
            .collect();
        ClusterHealth {
            advertise: self.self_addr.clone(),
            state: if self.degraded() { "degraded" } else { "ok" },
            members,
        }
    }

    /// The `peers` section for `/v1/metrics`: aggregate numeric leaves
    /// only, so the mechanical Prometheus flattening picks every one up
    /// (peer addresses contain `:` and can't be series names).
    pub(crate) fn counters(&self) -> PeerCounters {
        let mut c = PeerCounters {
            configured: self.peers.len() as u64,
            pull_rounds: self.pull_rounds.load(Ordering::Relaxed),
            pull_records: self.pull_records.load(Ordering::Relaxed),
            ..PeerCounters::default()
        };
        for p in &self.peers {
            match p.state() {
                PeerState::Up => c.up += 1,
                PeerState::Degraded => c.degraded += 1,
                PeerState::Down => c.down += 1,
            }
            c.forwarded += p.forwarded.load(Ordering::Relaxed);
            c.failed_over += p.failed_over.load(Ordering::Relaxed);
            c.probes += p.probes.load(Ordering::Relaxed);
        }
        c
    }
}

/// The `peers` member of `/v1/healthz`.
#[derive(ToJson)]
pub(crate) struct ClusterHealth {
    advertise: String,
    state: &'static str,
    members: Vec<MemberHealth>,
}

/// One peer of a [`ClusterHealth`].
#[derive(ToJson)]
pub(crate) struct MemberHealth {
    addr: String,
    state: &'static str,
    last_probe_age_us: Option<u64>,
    forwarded: u64,
    failed_over: u64,
}

/// The `peers` section of `/v1/metrics`.
#[derive(Default, ToJson)]
pub(crate) struct PeerCounters {
    configured: u64,
    up: u64,
    degraded: u64,
    down: u64,
    forwarded: u64,
    failed_over: u64,
    probes: u64,
    pull_rounds: u64,
    pull_records: u64,
}

/// The rendezvous score of `member` for `key`: a splitmix draw seeded by
/// both, so each (key, member) pair gets an independent uniform weight
/// and removing one member only moves that member's keys.
fn rendezvous_score(key_hash: u64, member: &str) -> u64 {
    SplitMix64::new(key_hash ^ fnv1a(member.as_bytes())).next_u64()
}

/// One `Connection: close` HTTP exchange with `deadline` applied to
/// connect, write, and read. The three `peer.*` fault sites fire here
/// with `addr` as the instance target.
fn http_once(
    addr: &str,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    deadline: Duration,
) -> io::Result<HttpResponse> {
    if faults::take_io_at("peer.connect", addr).is_some() {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("injected connect refusal to {addr}"),
        ));
    }
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, format!("bad addr {addr}")))?;
    let mut stream = TcpStream::connect_timeout(&sock, deadline)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(deadline))?;
    stream.set_write_timeout(Some(deadline))?;

    faults::check_at("peer.request", addr);

    crate::client::write_request(&mut stream, method, path, addr, true, extra_headers, body)?;

    let resp = crate::client::read_framed_response(&mut BufReader::new(stream))?;
    match faults::take_io_at("peer.recv", addr) {
        Some(faults::IoFault::Error) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("injected receive error from {addr}"),
        )),
        // A mid-body drop: the response died partway through, exactly
        // as if the peer crashed while answering.
        Some(faults::IoFault::Torn { keep }) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "injected mid-body drop from {addr} ({} of {} body bytes)",
                keep.min(resp.body.len()),
                resp.body.len()
            ),
        )),
        None => Ok(resp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use ucsim_model::Json;

    fn set(self_addr: &str, peers: &[&str]) -> PeerSet {
        PeerSet::new(
            self_addr.to_owned(),
            peers.iter().map(|s| (*s).to_owned()).collect(),
            Duration::from_secs(1),
        )
    }

    #[test]
    fn owner_chain_is_membership_order_independent() {
        let a = set("h:1", &["h:2", "h:3"]);
        let b = set("h:2", &["h:3", "h:1"]);
        let c = set("h:3", &["h:1", "h:2"]);
        let addr_of = |ps: &PeerSet, m: Option<&Peer>| {
            m.map_or_else(|| ps.self_addr().to_owned(), |p| p.addr().to_owned())
        };
        for key in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
            let ca: Vec<_> = a
                .owner_chain(key)
                .into_iter()
                .map(|m| addr_of(&a, m))
                .collect();
            let cb: Vec<_> = b
                .owner_chain(key)
                .into_iter()
                .map(|m| addr_of(&b, m))
                .collect();
            let cc: Vec<_> = c
                .owner_chain(key)
                .into_iter()
                .map(|m| addr_of(&c, m))
                .collect();
            assert_eq!(ca, cb, "key {key}: nodes disagree on the chain");
            assert_eq!(cb, cc, "key {key}: nodes disagree on the chain");
            assert_eq!(ca.len(), 3);
        }
    }

    #[test]
    fn ownership_spreads_across_members() {
        let ps = set("h:1", &["h:2", "h:3"]);
        let mut owned = 0;
        for key in 0..300u64 {
            if ps.owns(key) {
                owned += 1;
            }
        }
        // Rendezvous over 3 members: roughly a third each.
        assert!((50..250).contains(&owned), "self owns {owned}/300");
    }

    #[test]
    fn self_and_duplicates_are_filtered_from_the_peer_list() {
        let ps = set("h:1", &["h:1", "h:2", "h:2", "h:3"]);
        let addrs: Vec<_> = ps.peers().iter().map(Peer::addr).collect();
        assert_eq!(addrs, vec!["h:2", "h:3"]);
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_closes_on_success() {
        let ps = set("h:1", &["h:2"]);
        let peer = &ps.peers()[0];
        assert_eq!(peer.state(), PeerState::Up);
        peer.note_failure();
        assert_eq!(peer.state(), PeerState::Degraded);
        assert!(peer.available(), "degraded peers are still routed to");
        peer.note_failure();
        peer.note_failure();
        assert_eq!(peer.state(), PeerState::Down);
        assert!(!peer.available());
        peer.note_success();
        assert_eq!(peer.state(), PeerState::Up);
    }

    #[test]
    fn degraded_cluster_signal_follows_peer_state() {
        let ps = set("h:1", &["h:2", "h:3"]);
        assert!(!ps.degraded());
        ps.peers()[1].note_failure();
        assert!(ps.degraded());
        ps.peers()[1].note_success();
        assert!(!ps.degraded());
    }

    #[test]
    fn healthz_and_metrics_shapes() {
        let ps = set("h:1", &["h:2"]);
        ps.peers()[0].note_failure();
        let h = ps.health().to_json();
        assert_eq!(h.get("state").and_then(Json::as_str), Some("degraded"));
        let members = h.get("members").and_then(Json::as_arr).unwrap();
        assert_eq!(members.len(), 1);
        assert_eq!(
            members[0].get("state").and_then(Json::as_str),
            Some("degraded")
        );
        let m = ps.counters().to_json();
        assert_eq!(m.get("configured").and_then(Json::as_u64), Some(1));
        assert_eq!(m.get("degraded").and_then(Json::as_u64), Some(1));
        assert_eq!(m.get("up").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn forward_reaches_a_live_listener_and_notes_success() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = s.read(&mut buf);
            s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok")
                .unwrap();
        });
        let ps = set("h:1", &[addr.as_str()]);
        let peer = &ps.peers()[0];
        peer.note_failure();
        let resp = ps.forward(peer, "GET", "/v1/healthz", &[], b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(peer.state(), PeerState::Up, "success closes the breaker");
        h.join().unwrap();
    }
}
