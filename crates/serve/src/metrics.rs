//! Server-side observability: queue depth, worker utilization, cache
//! counters, and per-endpoint latency histograms.
//!
//! Latency histograms reuse [`ucsim_model::Histogram`] — the same
//! bucketed counter every stats module in the simulator uses — with
//! microsecond bounds spanning sub-millisecond metric reads to
//! multi-second simulations.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ucsim_model::json::Json;
use ucsim_model::{FromJson, Histogram, ToJson};
use ucsim_pool::SchedStats;

use crate::cache::CacheStats;
use crate::peer::PeerCounters;
use crate::router::LabelId;

/// Histogram bucket upper bounds, in microseconds.
const LATENCY_BOUNDS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000,
];

/// Shared server counters. All methods take `&self`.
///
/// Latency histograms are keyed by the router's interned [`LabelId`]s:
/// the label table is handed over once at construction, so the
/// per-request [`observe`](Metrics::observe) path is a direct array
/// index, not a string search.
pub struct Metrics {
    started: Instant,
    workers: usize,
    /// Endpoint labels, indexed by `LabelId` (owned copy of the
    /// router's table).
    labels: Vec<&'static str>,
    /// Workers currently simulating.
    busy_workers: AtomicUsize,
    /// Total microseconds workers spent simulating.
    busy_us: AtomicU64,
    /// Simulations actually executed (cache misses that ran).
    jobs_executed: AtomicU64,
    /// Jobs that failed.
    jobs_failed: AtomicU64,
    /// Jobs failed specifically by the deadline watchdog.
    jobs_deadline_exceeded: AtomicU64,
    /// Failed appends to the persistent result store.
    store_write_errors: AtomicU64,
    /// Requests rejected with 429.
    rejected_429: AtomicU64,
    /// Jobs cancelled by explicit client `DELETE` (cells of cancelled
    /// sweeps included).
    jobs_cancelled: AtomicU64,
    /// HTTP requests served, any endpoint/status.
    requests: AtomicU64,
    latency: Mutex<Vec<Histogram>>,
}

impl Metrics {
    /// Creates counters for a pool of `workers` workers, with one
    /// latency histogram per label in `labels` (the router's interned
    /// label table, including the reserved `404`/`405` entries).
    pub fn new(workers: usize, labels: Vec<&'static str>) -> Self {
        let latency = Mutex::new(
            labels
                .iter()
                .map(|_| Histogram::new(LATENCY_BOUNDS_US))
                .collect(),
        );
        Metrics {
            started: Instant::now(),
            workers,
            labels,
            busy_workers: AtomicUsize::new(0),
            busy_us: AtomicU64::new(0),
            jobs_executed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_deadline_exceeded: AtomicU64::new(0),
            store_write_errors: AtomicU64::new(0),
            rejected_429: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            latency,
        }
    }

    /// Marks a worker busy; call before simulating.
    pub fn worker_started(&self) {
        self.busy_workers.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a worker idle again, accounting `us` microseconds of work.
    pub fn worker_finished(&self, us: u64, failed: bool) {
        self.busy_workers.fetch_sub(1, Ordering::Relaxed);
        self.busy_us.fetch_add(us, Ordering::Relaxed);
        self.jobs_executed.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accounts a worker that died mid-job (panic caught by the
    /// supervisor): balances [`worker_started`](Self::worker_started) and
    /// counts the job as executed-and-failed.
    pub fn worker_panicked(&self, us: u64) {
        self.worker_finished(us, true);
    }

    /// Counts a job failed by the deadline watchdog. The executed/failed
    /// accounting still flows through
    /// [`worker_finished`](Self::worker_finished) when the cancelled
    /// worker unwinds; this tracks the deadline-specific count.
    pub fn deadline_exceeded(&self) {
        self.jobs_deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job failed without ever executing (drained at shutdown).
    pub fn job_failed_unexecuted(&self) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a failed append to the persistent result store.
    pub fn store_write_error(&self) {
        self.store_write_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a 429 rejection.
    pub fn rejected(&self) {
        self.rejected_429.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` jobs cancelled by explicit client `DELETE`.
    pub fn record_cancelled(&self, n: u64) {
        self.jobs_cancelled.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one served request on the endpoint named by the interned
    /// `label`, taking `us` microseconds. Direct index — no per-request
    /// label search.
    pub fn observe(&self, label: LabelId, us: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = self.latency.lock().expect("latency lock").get_mut(label.0) {
            h.record(us);
        }
    }

    /// Simulations executed so far.
    pub fn executed(&self) -> u64 {
        self.jobs_executed.load(Ordering::Relaxed)
    }

    /// Builds the `GET /v1/metrics` document. `sched` is the fair-share
    /// scheduler's point-in-time statistics, `workers_alive` and
    /// `workers_respawned` come from the supervised pool's monitor (the
    /// pool and scheduler own those counters; metrics only reports them).
    /// `peers` is the peer-mode counter section ([`crate::PeerSet`]
    /// owns those counters); `None` on a standalone node omits it.
    pub(crate) fn to_json(
        &self,
        sched: &SchedStats,
        queue_capacity: usize,
        cache: &CacheStats,
        workers_alive: usize,
        workers_respawned: u64,
        peers: Option<PeerCounters>,
    ) -> Json {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let uptime_us = self.started.elapsed().as_micros() as u64;
        let utilization = if uptime_us == 0 {
            0.0
        } else {
            load(&self.busy_us) as f64 / (uptime_us as f64 * self.workers as f64)
        };
        let lookups = cache.hits + cache.misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        };
        // Scalar scheduler counters plus a *bounded* queue-wait breakdown:
        // the Prometheus exposition renders every numeric leaf generically,
        // so per-tenant breakdowns (unbounded label cardinality) stay out
        // of this document, and the per-priority wait series is capped at
        // the eight busiest priorities.
        let mut waits: Vec<(u64, u64, u64)> = sched.wait_by_priority.clone();
        waits.sort_by_key(|&(_, pops, _)| std::cmp::Reverse(pops));
        waits.truncate(8);
        waits.sort_by_key(|&(priority, ..)| priority);
        let wait_by_priority = waits
            .into_iter()
            .map(|(priority, pops, wait_us)| {
                (
                    format!("p{priority}"),
                    PriorityWait { pops, wait_us }.to_json(),
                )
            })
            .collect();
        let latency_us = {
            let hists = self.latency.lock().expect("latency lock");
            self.labels
                .iter()
                .zip(hists.iter())
                .map(|(name, h)| ((*name).to_owned(), HistogramBody::of(h).to_json()))
                .collect()
        };
        MetricsBody {
            uptime_us,
            requests: load(&self.requests),
            queue: QueueStats {
                depth: sched.depth,
                capacity: queue_capacity,
                rejected_429: Some(load(&self.rejected_429)),
            },
            scheduler: SchedulerStats {
                served: sched.served,
                preempted: sched.preempted,
                tenants_active: sched.tenants.len(),
                jobs_cancelled: load(&self.jobs_cancelled),
                wait_by_priority: Json::Obj(wait_by_priority),
            },
            workers: WorkerStats {
                count: self.workers,
                alive: workers_alive,
                busy: self.busy_workers.load(Ordering::Relaxed),
                utilization,
                jobs_executed: load(&self.jobs_executed),
                jobs_failed: load(&self.jobs_failed),
                jobs_deadline_exceeded: load(&self.jobs_deadline_exceeded),
                workers_respawned,
            },
            store: StoreStats {
                write_errors: load(&self.store_write_errors),
            },
            cache: CacheBody {
                entries: cache.entries,
                bytes: cache.bytes,
                budget_bytes: cache.budget,
                hits: cache.hits,
                coalesced: cache.coalesced,
                misses: cache.misses,
                insertions: cache.insertions,
                evictions: cache.evictions,
                hit_rate,
            },
            latency_us: Json::Obj(latency_us),
            peers,
        }
        .to_json()
    }
}

/// The `GET /v1/metrics` document. `wait_by_priority` (keyed `p<n>`)
/// and `latency_us` (keyed by endpoint label) are maps whose member
/// names are data.
#[derive(ToJson)]
struct MetricsBody {
    uptime_us: u64,
    requests: u64,
    queue: QueueStats,
    scheduler: SchedulerStats,
    workers: WorkerStats,
    store: StoreStats,
    cache: CacheBody,
    latency_us: Json,
    peers: Option<PeerCounters>,
}

/// The `queue` member of `/v1/metrics`, and — without `rejected_429` —
/// of `/v1/healthz`.
#[derive(ToJson)]
pub(crate) struct QueueStats {
    pub(crate) depth: usize,
    pub(crate) capacity: usize,
    pub(crate) rejected_429: Option<u64>,
}

#[derive(ToJson)]
struct SchedulerStats {
    served: u64,
    preempted: u64,
    tenants_active: usize,
    jobs_cancelled: u64,
    wait_by_priority: Json,
}

#[derive(ToJson)]
struct PriorityWait {
    pops: u64,
    wait_us: u64,
}

#[derive(ToJson)]
struct WorkerStats {
    count: usize,
    alive: usize,
    busy: usize,
    utilization: f64,
    jobs_executed: u64,
    jobs_failed: u64,
    jobs_deadline_exceeded: u64,
    workers_respawned: u64,
}

#[derive(ToJson)]
struct StoreStats {
    write_errors: u64,
}

#[derive(ToJson)]
struct CacheBody {
    entries: usize,
    bytes: usize,
    budget_bytes: usize,
    hits: u64,
    coalesced: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    hit_rate: f64,
}

/// One endpoint's latency histogram, as the Prometheus exposition
/// reads it back.
#[derive(ToJson, FromJson)]
pub(crate) struct HistogramBody {
    pub(crate) bounds: Vec<u64>,
    pub(crate) counts: Vec<u64>,
    pub(crate) total: u64,
    pub(crate) sum: u64,
    pub(crate) mean: f64,
}

impl HistogramBody {
    fn of(h: &Histogram) -> HistogramBody {
        HistogramBody {
            bounds: h.bounds().to_vec(),
            counts: h.counts().to_vec(),
            total: h.total(),
            sum: h.sum() as u64,
            mean: h.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_LABELS: &[&str] = &["POST /v1/sim", "GET /v1/metrics", "404", "405"];

    fn sched(depth: usize) -> SchedStats {
        SchedStats {
            depth,
            served: 0,
            preempted: 0,
            tenants: Vec::new(),
            wait_by_priority: Vec::new(),
        }
    }

    fn metrics(workers: usize) -> Metrics {
        Metrics::new(workers, TEST_LABELS.to_vec())
    }

    fn label(name: &str) -> LabelId {
        LabelId(TEST_LABELS.iter().position(|l| *l == name).unwrap())
    }

    #[test]
    fn wait_by_priority_is_bounded_and_keyed() {
        let m = metrics(1);
        let mut s = sched(0);
        // Ten distinct priorities; the busiest eight survive the cap.
        s.wait_by_priority = (0..10u64).map(|p| (p, p + 1, p * 100)).collect();
        let j = m.to_json(&s, 1, &CacheStats::default(), 1, 0, None);
        let waits = j.get("scheduler").unwrap().get("wait_by_priority").unwrap();
        assert!(waits.get("p0").is_none(), "fewest pops, capped out");
        assert!(waits.get("p1").is_none());
        let p9 = waits.get("p9").unwrap();
        assert_eq!(p9.get("pops").unwrap().as_u64(), Some(10));
        assert_eq!(p9.get("wait_us").unwrap().as_u64(), Some(900));
    }

    #[test]
    fn worker_accounting_balances() {
        let m = metrics(2);
        m.worker_started();
        m.worker_finished(1000, false);
        m.worker_started();
        m.worker_finished(500, true);
        m.worker_started();
        m.worker_panicked(200);
        assert_eq!(m.executed(), 3);
        let j = m.to_json(&sched(0), 4, &CacheStats::default(), 2, 1, None);
        let workers = j.get("workers").unwrap();
        assert_eq!(workers.get("busy").unwrap().as_u64(), Some(0));
        assert_eq!(workers.get("alive").unwrap().as_u64(), Some(2));
        assert_eq!(workers.get("jobs_executed").unwrap().as_u64(), Some(3));
        assert_eq!(workers.get("jobs_failed").unwrap().as_u64(), Some(2));
        assert_eq!(workers.get("workers_respawned").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn failure_counters_land_in_the_document() {
        let m = metrics(1);
        m.deadline_exceeded();
        m.deadline_exceeded();
        m.job_failed_unexecuted();
        m.store_write_error();
        let j = m.to_json(&sched(0), 1, &CacheStats::default(), 1, 0, None);
        let workers = j.get("workers").unwrap();
        assert_eq!(
            workers.get("jobs_deadline_exceeded").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(workers.get("jobs_failed").unwrap().as_u64(), Some(1));
        assert_eq!(
            j.get("store")
                .unwrap()
                .get("write_errors")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn latency_lands_in_the_right_endpoint() {
        let m = metrics(1);
        m.observe(label("POST /v1/sim"), 700);
        m.observe(label("POST /v1/sim"), 700);
        m.observe(label("GET /v1/metrics"), 10);
        // Out-of-range id: counted as a request, no histogram.
        m.observe(LabelId(usize::MAX), 10);
        let j = m.to_json(&sched(0), 1, &CacheStats::default(), 1, 0, None);
        assert_eq!(j.get("requests").unwrap().as_u64(), Some(4));
        let lat = j.get("latency_us").unwrap();
        let sim = lat.get("POST /v1/sim").unwrap();
        assert_eq!(sim.get("total").unwrap().as_u64(), Some(2));
        assert_eq!(sim.get("sum").unwrap().as_u64(), Some(1400));
        let met = lat.get("GET /v1/metrics").unwrap();
        assert_eq!(met.get("total").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn metrics_document_shape() {
        let m = metrics(3);
        m.rejected();
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        let j = m.to_json(&sched(2), 8, &stats, 3, 0, None);
        let q = j.get("queue").unwrap();
        assert_eq!(q.get("depth").unwrap().as_u64(), Some(2));
        assert_eq!(q.get("capacity").unwrap().as_u64(), Some(8));
        assert_eq!(q.get("rejected_429").unwrap().as_u64(), Some(1));
        let rate = j.get("cache").unwrap().get("hit_rate").unwrap().as_f64();
        assert_eq!(rate, Some(0.75));
        // Whole document survives the wire format.
        let text = j.to_string();
        assert_eq!(ucsim_model::Json::parse(&text).unwrap(), j);
    }
}
