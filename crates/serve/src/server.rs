//! The server proper: accept loop, the typed route table, keep-alive
//! connection handling, the fair-share scheduler feeding the supervised
//! worker pool, per-job deadlines, sweep *plans* (store-aware full
//! expansion and adaptive knee refinement), uniform cancellation, the
//! persistent result store, and graceful shutdown.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ucsim_model::json::Json;
use ucsim_model::{CancelToken, FailureKind, FromJson, ToJson, WorkloadRef};
use ucsim_pipeline::{Cancelled, KneeBisector, SimReport, Simulator};
use ucsim_pool::{faults, PoolMonitor, PushError, Scheduler, SupervisedPool, Watchdog};
use ucsim_trace::{load_asm, Program, Trace, TraceStore, WorkloadProfile};

use crate::api::{
    self, bad_request, ErrorCode, ErrorObject, JobAccepted, JobList, JobProfileBody, JobRow,
    JobSpec, MatrixRequest, ReportEnvelope, SimRequest, SweepMode,
};
use crate::cache::ResultCache;
use crate::client::HttpResponse;
use crate::http::{HttpConn, ReadOutcome, Request, Response};
use crate::jobs::{JobCell, JobFailure, JobState, JobTable, Submit};
use crate::metrics::{Metrics, QueueStats};
use crate::peer::{ClusterHealth, Peer, PeerSet};
use crate::programs::{self, ProgramKind, ProgramList, ProgramRegistry, StoredProgram};
use crate::router::{Answer, Params, Route, Router};
use crate::store::{RecordKind, ResultStore, StoreRecord};
use crate::sweep::{
    self, Frontier, PlanAxes, PlanOptions, Sweep, SweepAccepted, SweepList, SweepTable,
};
use crate::{jobs, signal};

/// Poll interval of [`Server::run_until_shutdown`]'s wait for the
/// shutdown signal, and the accept loop's backoff after an accept error
/// (fd exhaustion and the like). The accept itself blocks.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Sweeps retained for `GET /v1/matrix/:id`.
const RETAIN_SWEEPS: usize = 64;

/// How long a kept-alive connection may sit idle between requests before
/// the server closes it.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(30);

/// Max records per anti-entropy pull request.
const ANTI_ENTROPY_BATCH: usize = 256;

/// The persistent store's log format, as `/v1/store` and `/v1/version`
/// name it.
const STORE_FORMAT: &str = "UCSTOR03";

/// The wire states a job can be in, for `GET /v1/jobs?state=`.
const JOB_STATES: [&str; 4] = ["queued", "running", "done", "failed"];

/// The wire states a sweep can be in, for `GET /v1/matrix?state=`.
const SWEEP_STATES: [&str; 4] = ["running", "done", "partial", "failed"];

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Fixed worker-pool size.
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue answers 429.
    pub queue_capacity: usize,
    /// Result-cache byte budget.
    pub cache_budget_bytes: usize,
    /// `Retry-After` seconds advertised on 429.
    pub retry_after_secs: u32,
    /// Finished jobs retained for `GET /v1/jobs/:id`.
    pub retain_jobs: usize,
    /// When set, completed results are appended to
    /// `<data_dir>/results.log` and replayed into the cache on startup,
    /// so a restarted server re-simulates nothing it already computed.
    pub data_dir: Option<PathBuf>,
    /// Accept `test-sleep:<ms>` pseudo-workloads (integration tests use
    /// them to hold workers busy deterministically).
    pub enable_test_workloads: bool,
    /// Per-job wall-clock deadline. When a job exceeds it, the watchdog
    /// cancels the simulation cooperatively and fails the job with
    /// `deadline_exceeded`; `None` disables deadlines.
    pub job_deadline: Option<Duration>,
    /// How long [`Server::shutdown`] waits for open connections before
    /// failing still-queued jobs with `shutting_down`.
    pub drain_timeout: Duration,
    /// Fsync the persistent store after every appended record (slower,
    /// but survives power loss, not just process death).
    pub durable_store: bool,
    /// Fair-share weights per tenant (`(name, weight)`); tenants not
    /// listed here are created on first use with weight 1.
    pub tenant_weights: Vec<(String, u64)>,
    /// Cluster members (`host:port`, repeatable `--peer`). Non-empty
    /// turns on peer mode: rendezvous routing of jobs, scatter-gather
    /// sweeps, health probing, and (with a store) anti-entropy. Every
    /// node can be given the identical list — its own advertised address
    /// is filtered out.
    pub peers: Vec<String>,
    /// The address other members reach *this* node at (`--advertise`).
    /// Defaults to the resolved bind address, which is only right when
    /// binding a concrete host and port.
    pub advertise: Option<String>,
    /// How often the anti-entropy loop pulls each peer's store delta.
    pub anti_entropy_interval: Duration,
    /// Connect/read/write deadline for forwarded peer requests. Must
    /// comfortably exceed the longest simulation a forwarded job can
    /// run, or the coordinator fails over and re-simulates elsewhere.
    pub peer_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7199".to_owned(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            queue_capacity: 64,
            cache_budget_bytes: 64 * 1024 * 1024,
            retry_after_secs: 1,
            retain_jobs: 1024,
            data_dir: None,
            enable_test_workloads: false,
            job_deadline: None,
            drain_timeout: Duration::from_secs(30),
            durable_store: false,
            tenant_weights: Vec::new(),
            peers: Vec::new(),
            advertise: None,
            anti_entropy_interval: Duration::from_secs(5),
            peer_deadline: Duration::from_secs(30),
        }
    }
}

/// One queued unit of work.
struct Work {
    cell: Arc<jobs::JobCell>,
    spec: JobSpec,
    canonical: String,
    /// Correlation id of the request that submitted this job; carried
    /// into every failure envelope the job can produce.
    request_id: String,
    /// The job's shared cancel token (the same one the scheduler entry
    /// holds): flipped by the watchdog on deadline expiry or by a client
    /// `DELETE`; the simulation loop polls it at PW-batch boundaries and
    /// bails out, and the scheduler preempts still-queued entries.
    cancel: CancelToken,
}

/// Shared state every connection handler, worker, and plan driver sees.
struct Inner {
    cfg: ServerConfig,
    router: Router<Arc<Inner>>,
    queue: Arc<Scheduler<Work>>,
    jobs: JobTable,
    sweeps: SweepTable,
    cache: ResultCache,
    /// Negative cache: content keys whose simulation failed
    /// *deterministically* (a panic is a pure function of the spec, like
    /// a result). Deadline and shutdown failures are environmental and
    /// never land here.
    failed: Mutex<HashMap<u64, (String, JobFailure)>>,
    store: Option<ResultStore>,
    traces: TraceStore,
    /// Uploaded user programs (`POST /v1/programs`), content-addressed;
    /// replayed from the store on startup and replicated by anti-entropy.
    programs: ProgramRegistry,
    metrics: Metrics,
    watchdog: Watchdog,
    /// Health view of the supervised pool (set once at startup).
    pool_monitor: OnceLock<PoolMonitor>,
    /// Cluster view in peer mode (`--peer`); `None` on a standalone node.
    peers: Option<PeerSet>,
    stopping: AtomicBool,
    open_conns: AtomicUsize,
}

impl Inner {
    /// Looks up a deterministic failure for this exact canonical spec.
    fn failed_for(&self, hash: u64, canonical: &str) -> Option<JobFailure> {
        let map = self.failed.lock().expect("failed cache lock");
        map.get(&hash)
            .and_then(|(c, f)| (c == canonical).then(|| f.clone()))
    }

    /// Applies one terminal record: a result goes to the cache, a
    /// deterministic failure to the negative cache, and a program to the
    /// registry once its content address checks out. Then, when
    /// `append()` says so and the store holds no record for the key yet,
    /// appends the record. `append` runs after the record is applied, so
    /// a worker can complete its job there: waiters wake to a warm
    /// cache, and only the completion that wins is persisted. A failed
    /// append costs durability, not the answer: it is counted
    /// (`store.write_errors`) and logged.
    ///
    /// Returns whether the record was new: `false` when it was rejected
    /// (a non-deterministic failure, a program whose address does not
    /// match) or the registry already held the program.
    fn record(
        &self,
        key: u64,
        canonical: &str,
        record: Record,
        append: impl FnOnce() -> bool,
    ) -> bool {
        let (kind, payload, new) = match record {
            Record::Result(payload) => {
                self.cache
                    .put(key, canonical.to_owned(), Arc::clone(&payload));
                (RecordKind::Result, payload, true)
            }
            Record::Failed(failure) => {
                if !failure.kind.is_deterministic() {
                    return false;
                }
                let payload = Arc::new(ErrorObject::of_failure(&failure).to_json_string());
                self.failed
                    .lock()
                    .expect("failed cache lock")
                    .insert(key, (canonical.to_owned(), failure));
                (RecordKind::Failed, payload, true)
            }
            Record::Program(program, payload) => {
                if program.hash() != key || program.ref_string() != canonical {
                    return false;
                }
                let (_, created) = self.programs.insert(program);
                (RecordKind::Program, Arc::new(payload), created)
            }
        };
        if !append() {
            return new;
        }
        let Some(store) = self.store.as_ref().filter(|s| !s.contains(key)) else {
            return new;
        };
        let span = ucsim_obs::span(ucsim_obs::SpanKind::StoreIo);
        let appended = store.append_record(kind, key, canonical, &payload);
        span.finish(u32::from(appended.is_err()));
        if let Err(e) = appended {
            self.metrics.store_write_error();
            eprintln!(
                "ucsim-serve: appending a {} record to {} failed: {e}",
                kind.name(),
                store.path().display()
            );
        }
        new
    }
}

/// A terminal record as [`Inner::record`] applies it.
enum Record {
    /// A report payload.
    Result(Arc<String>),
    /// A failure; only deterministic ones are kept.
    Failed(JobFailure),
    /// An uploaded program and its resource JSON.
    Program(StoredProgram, String),
}

impl Record {
    /// Decodes a record read from a store log (local or a peer's).
    fn decode(kind: RecordKind, payload: String) -> Result<Record, String> {
        match kind {
            RecordKind::Result => Ok(Record::Result(Arc::new(payload))),
            RecordKind::Failed => ErrorObject::from_json_str(&payload)
                .ok()
                .and_then(ErrorObject::into_failure)
                .map(Record::Failed)
                .ok_or_else(|| "undecodable failure".to_owned()),
            RecordKind::Program => {
                programs::decode_program_payload(&payload).map(|p| Record::Program(p, payload))
            }
        }
    }
}

/// A running server. Dropping it does **not** stop the threads; call
/// [`Server::shutdown`] (or let [`Server::run_until_shutdown`] return).
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    pool: Option<SupervisedPool>,
}

impl Server {
    /// Binds, opens the persistent store (replaying it into the cache),
    /// spawns the worker pool and accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Propagates bind errors and store open/replay errors.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;

        let (store, replayed) = match &cfg.data_dir {
            Some(dir) => {
                let (store, records) = ResultStore::open(dir, cfg.durable_store)?;
                (Some(store), records)
            }
            None => (None, Vec::new()),
        };

        let queue = Arc::new(Scheduler::new(cfg.queue_capacity));
        for (tenant, weight) in &cfg.tenant_weights {
            queue.set_weight(tenant, *weight);
        }
        // Peer mode: the advertised address defaults to the resolved bind
        // address (which has the real port even when binding port 0).
        let peers = if cfg.peers.is_empty() {
            None
        } else {
            let advertise = cfg
                .advertise
                .clone()
                .unwrap_or_else(|| local_addr.to_string());
            Some(PeerSet::new(
                advertise,
                cfg.peers.clone(),
                cfg.peer_deadline,
            ))
        };

        // The router is built first so its interned label table seeds the
        // metrics histograms — observe() is then a direct array index.
        let router = routes();
        let metrics = Metrics::new(cfg.workers.max(1), router.labels().to_vec());
        let inner = Arc::new(Inner {
            router,
            queue: Arc::clone(&queue),
            jobs: JobTable::new(cfg.retain_jobs),
            sweeps: SweepTable::new(RETAIN_SWEEPS),
            cache: ResultCache::new(cfg.cache_budget_bytes),
            failed: Mutex::new(HashMap::new()),
            store,
            traces: TraceStore::new(api::TRACE_BUDGET_INSTS),
            programs: ProgramRegistry::new(),
            metrics,
            watchdog: Watchdog::new(),
            pool_monitor: OnceLock::new(),
            peers,
            stopping: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            cfg,
        });

        // Warm the caches from the store: a restarted server answers every
        // previously computed job (and whole sweeps) without simulating,
        // and every deterministic failure without re-panicking a worker.
        for StoreRecord {
            kind,
            key_hash,
            canonical,
            payload,
        } in replayed
        {
            match Record::decode(kind, payload) {
                Ok(record) => {
                    inner.record(key_hash, &canonical, record, || false);
                }
                Err(e) => eprintln!(
                    "ucsim-serve: dropping undecodable {} record {}: {e}",
                    kind.name(),
                    api::format_key(key_hash)
                ),
            }
        }

        let worker_inner = Arc::clone(&inner);
        let panic_inner = Arc::clone(&inner);
        let pool = SupervisedPool::spawn(
            "sim-worker",
            inner.cfg.workers,
            queue,
            Arc::new(move |work: &Work| execute(&worker_inner, work)),
            Arc::new(move |work: &Work, payload: &str| job_panicked(&panic_inner, work, payload)),
        );
        inner
            .pool_monitor
            .set(pool.monitor())
            .unwrap_or_else(|_| unreachable!("pool monitor set once"));

        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("http-accept".to_owned())
            .spawn(move || accept_loop(listener, accept_inner))
            .expect("spawn accept thread");

        if inner.peers.is_some() {
            // Health probes: a fast tick; the per-peer schedule inside
            // probe_due() keeps the real probe rate low. Detached — exits
            // within one tick of the stopping flag.
            let probe_inner = Arc::clone(&inner);
            let _ = std::thread::Builder::new()
                .name("peer-probe".to_owned())
                .spawn(move || {
                    while !probe_inner.stopping.load(Ordering::SeqCst) {
                        if let Some(ps) = &probe_inner.peers {
                            ps.probe_due();
                        }
                        std::thread::sleep(Duration::from_millis(100));
                    }
                });
            if inner.store.is_some() {
                let pull_inner = Arc::clone(&inner);
                let _ = std::thread::Builder::new()
                    .name("anti-entropy".to_owned())
                    .spawn(move || anti_entropy_loop(&pull_inner));
            }
        }

        Ok(Server {
            inner,
            local_addr,
            accept_thread: Some(accept_thread),
            pool: Some(pool),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Simulations executed so far (for tests).
    pub fn simulations_executed(&self) -> u64 {
        self.inner.metrics.executed()
    }

    /// Blocks until a shutdown signal (SIGTERM/ctrl-c via
    /// [`crate::install_signal_handlers`], or
    /// [`crate::signal::request_shutdown`]), then drains gracefully.
    pub fn run_until_shutdown(self) {
        while !signal::signalled() && !self.inner.stopping.load(Ordering::SeqCst) {
            std::thread::sleep(ACCEPT_POLL);
        }
        self.shutdown();
    }

    /// Number of workers currently alive (for tests).
    pub fn workers_alive(&self) -> usize {
        self.inner
            .pool_monitor
            .get()
            .map_or(0, ucsim_pool::PoolMonitor::alive)
    }

    /// Replacement workers spawned after panics so far (for tests).
    pub fn workers_respawned(&self) -> u64 {
        self.inner
            .pool_monitor
            .get()
            .map_or(0, ucsim_pool::PoolMonitor::respawned)
    }

    /// Graceful shutdown: stop accepting, wait up to the configured drain
    /// timeout for open connections, fail whatever is still queued with
    /// `shutting_down` (waiters get an explicit envelope instead of a
    /// hang), then join all threads.
    pub fn shutdown(mut self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            // The accept blocks: one connection to our own listener wakes
            // it to see the stopping flag. A refused dial means the loop
            // already returned (it also stops on the signal flag).
            let _ = TcpStream::connect_timeout(&wake_addr(self.local_addr), Duration::from_secs(1));
            let _ = h.join();
        }
        // No new connections now; kept-alive handlers notice the stopping
        // flag at their next idle poll (≤ 200 ms). Existing handlers may
        // still enqueue; wait for them to finish before closing the
        // scheduler so their jobs are either queued (and will drain) or
        // rejected consistently. Adaptive drivers check the stopping flag
        // between waves, and waves in flight fail below, so their waits
        // return.
        let deadline = Instant::now() + self.inner.cfg.drain_timeout;
        while self.inner.open_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Sweep out jobs that never reached a worker: fail them now so
        // pollers and joined waiters observe a terminal state. These are
        // environmental failures — never persisted or negatively cached.
        while let Some(work) = self.inner.queue.try_pop() {
            let failure = JobFailure::new(
                FailureKind::ShuttingDown,
                "server shut down before the job ran",
            )
            .with_request_id(work.request_id.clone());
            if work.cell.fail(failure) {
                self.inner.metrics.job_failed_unexecuted();
                self.inner.jobs.finish(&work.cell);
            }
        }
        self.inner.queue.close();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        // The watchdog stops when the last `Inner` reference drops;
        // deadlines only arm once a worker picks a job up, so the swept
        // jobs never had one.
    }
}

/// The v1 route table. Adding an endpoint is one entry here: dispatch,
/// 404/405 handling, and the metrics label all follow from it.
fn routes() -> Router<Arc<Inner>> {
    Router::new(vec![
        Route {
            method: "POST",
            pattern: "/v1/sim",
            label: "POST /v1/sim",
            handler: handle_sim,
        },
        Route {
            method: "POST",
            pattern: "/v1/matrix",
            label: "POST /v1/matrix",
            handler: handle_matrix_post,
        },
        Route {
            method: "GET",
            pattern: "/v1/matrix",
            label: "GET /v1/matrix",
            handler: handle_matrix_list,
        },
        Route {
            method: "GET",
            pattern: "/v1/matrix/:id",
            label: "GET /v1/matrix/:id",
            handler: handle_matrix_get,
        },
        Route {
            method: "DELETE",
            pattern: "/v1/matrix/:id",
            label: "DELETE /v1/matrix/:id",
            handler: handle_matrix_delete,
        },
        Route {
            method: "POST",
            pattern: "/v1/programs",
            label: "POST /v1/programs",
            handler: handle_program_post,
        },
        Route {
            method: "GET",
            pattern: "/v1/programs",
            label: "GET /v1/programs",
            handler: handle_program_list,
        },
        Route {
            method: "GET",
            pattern: "/v1/programs/:id",
            label: "GET /v1/programs/:id",
            handler: handle_program_get,
        },
        Route {
            method: "GET",
            pattern: "/v1/programs/:id/raw",
            label: "GET /v1/programs/raw",
            handler: handle_program_raw,
        },
        Route {
            method: "GET",
            pattern: "/v1/jobs",
            label: "GET /v1/jobs",
            handler: handle_jobs_list,
        },
        Route {
            method: "GET",
            pattern: "/v1/jobs/:id",
            label: "GET /v1/jobs/:id",
            handler: handle_job_get,
        },
        Route {
            method: "DELETE",
            pattern: "/v1/jobs/:id",
            label: "DELETE /v1/jobs/:id",
            handler: handle_job_delete,
        },
        Route {
            method: "GET",
            pattern: "/v1/jobs/:id/profile",
            label: "GET /v1/jobs/profile",
            handler: handle_job_profile,
        },
        Route {
            method: "GET",
            pattern: "/v1/metrics",
            label: "GET /v1/metrics",
            handler: handle_metrics,
        },
        Route {
            method: "GET",
            pattern: "/v1/trace",
            label: "GET /v1/trace",
            handler: handle_trace,
        },
        Route {
            method: "GET",
            pattern: "/v1/store",
            label: "GET /v1/store",
            handler: handle_store,
        },
        Route {
            method: "GET",
            pattern: "/v1/healthz",
            label: "GET /v1/healthz",
            handler: handle_healthz,
        },
        Route {
            method: "GET",
            pattern: "/v1/version",
            label: "GET /v1/version",
            handler: handle_version,
        },
    ])
}

/// Runs one job on a worker thread: arm the deadline, simulate (with
/// cooperative cancellation), encode, persist, cache, wake.
///
/// Runs under `catch_unwind` in the supervised pool; a panic anywhere in
/// here lands in [`job_panicked`] on the same thread, then the supervisor
/// respawns the worker.
fn execute(inner: &Arc<Inner>, work: &Work) {
    work.cell.set_running();
    inner.metrics.worker_started();
    let t0 = Instant::now();

    // Arm the per-job deadline. The guard disarms on every exit from this
    // function — including a panic's unwind — so the watchdog only fires
    // for jobs still genuinely in flight.
    let _guard = inner.cfg.job_deadline.map(|limit| {
        let cell = Arc::clone(&work.cell);
        let cancel = work.cancel.clone();
        let wd_inner = Arc::clone(inner);
        let request_id = work.request_id.clone();
        let ms = limit.as_millis();
        inner.watchdog.watch(Instant::now() + limit, move || {
            cancel.cancel();
            let failure = JobFailure::new(
                FailureKind::DeadlineExceeded,
                format!("job exceeded the {ms}ms deadline"),
            )
            .with_request_id(request_id.clone());
            if cell.fail(failure) {
                wd_inner.metrics.deadline_exceeded();
            }
        })
    });

    faults::check("worker.pre_sim");
    // Profile this job: the pipeline's stage timers and counter deltas
    // accumulate into a thread-local profile between begin and end.
    ucsim_obs::profile_begin();
    let result = run_spec(
        &work.spec,
        inner.cfg.enable_test_workloads,
        &inner.traces,
        &inner.programs,
        &work.cancel,
    );
    if let Some(profile) = ucsim_obs::profile_end() {
        work.cell.set_profile(Arc::new(profile));
    }
    let us = t0.elapsed().as_micros() as u64;
    match result {
        Ok(report) => {
            let payload = Arc::new(api::encode_report(&report));
            inner.metrics.worker_finished(us, false);
            // Cache, then complete, then append. First-wins: if the
            // deadline already failed this job, the failure stands and
            // nothing is appended — but the result is still cached (it
            // is correct and deterministic; the *job* was late, the
            // *value* is fine).
            let result = Record::Result(Arc::clone(&payload));
            inner.record(work.cell.key_hash, &work.canonical, result, || {
                work.cell.complete(payload)
            });
        }
        Err(RunError::Cancelled) => {
            // The watchdog already failed the cell and counted the
            // deadline; account the worker time as a failed execution.
            inner.metrics.worker_finished(us, true);
        }
        Err(RunError::Rejected(msg)) => {
            inner.metrics.worker_finished(us, true);
            work.cell.fail(
                JobFailure::new(FailureKind::SimulationFailed, msg)
                    .with_request_id(work.request_id.clone()),
            );
        }
    }
    inner.jobs.finish(&work.cell);
}

/// Runs on the dying worker thread after a caught panic: fail the job
/// with the captured payload, persist + negatively cache the failure
/// (panics are deterministic — a pure function of the spec), and release
/// the job's key.
fn job_panicked(inner: &Arc<Inner>, work: &Work, payload: &str) {
    let failure = JobFailure::new(
        FailureKind::SimulationFailed,
        format!("worker panicked: {payload}"),
    )
    .with_request_id(work.request_id.clone());
    inner.metrics.worker_panicked(0);
    if work.cell.fail(failure.clone()) {
        let failed = Record::Failed(failure);
        inner.record(work.cell.key_hash, &work.canonical, failed, || true);
    }
    inner.jobs.finish(&work.cell);
}

/// Why [`run_spec`] didn't produce a report.
enum RunError {
    /// The cancel token flipped (deadline expired) mid-simulation.
    Cancelled,
    /// The spec itself is unrunnable (unknown workload).
    Rejected(String),
}

/// Runs the simulation described by `spec`, replaying the workload's
/// recorded instruction stream from the shared [`TraceStore`]: the first
/// job for a workload × seed × run length records, every later cell of
/// any sweep replays the same `Arc`'d trace (byte-identical reports —
/// the walker is deterministic, so the recording *is* the stream).
///
/// The spec's workload may be a Table II profile name or an
/// uploaded-program ref: `program:<id>` lays the ucasm out per-seed with
/// [`load_asm`] and walks it under the fixed user-program profile;
/// `trace:<id>` replays the uploaded recording verbatim, straight from
/// the registry (it is already packed and shared, so the trace store
/// keeps no second copy per seed and length). Ref reports are
/// named after the ref string itself, so responses stay self-describing.
///
/// With test workloads enabled, `test-sleep:<ms>` sleeps that long and
/// then simulates the quick-test profile — a deterministic way for tests
/// to keep workers busy.
fn run_spec(
    spec: &JobSpec,
    test_workloads: bool,
    traces: &TraceStore,
    programs: &ProgramRegistry,
    cancel: &CancelToken,
) -> Result<SimReport, RunError> {
    let total = spec.config.warmup_insts + spec.config.measure_insts;
    let wref = WorkloadRef::parse(&spec.workload)
        .map_err(|e| RunError::Rejected(format!("bad workload ref {:?}: {e}", spec.workload)))?;
    let (name, trace) = match &wref {
        WorkloadRef::Program(_) | WorkloadRef::Trace(_) => {
            let stored = programs
                .resolve(&wref)
                .ok_or_else(|| RunError::Rejected(format!("unknown program: {}", spec.workload)))?;
            faults::check("worker.simulate");
            let trace = match stored.asm() {
                // ucasm: lay the arena out for this seed and walk it.
                Some(asm) => traces.get_or_record(&spec.trace_key(), || {
                    let profile = WorkloadProfile::user_program(spec.seed);
                    let program = load_asm(asm, spec.seed);
                    Trace::record(program.walk(&profile).take(total as usize))
                }),
                // Recorded trace: the upload *is* the stream, already
                // packed and shared.
                None => Arc::clone(stored.trace().expect("resolve() kind-checks the ref")),
            };
            (spec.workload.as_str(), trace)
        }
        WorkloadRef::Profile(_) => {
            if !api::workload_known(&spec.workload, test_workloads) {
                return Err(RunError::Rejected(format!(
                    "unknown workload: {}",
                    spec.workload
                )));
            }
            let mut profile = if let Some(ms) = api::test_sleep_ms(&spec.workload) {
                std::thread::sleep(Duration::from_millis(ms));
                WorkloadProfile::quick_test()
            } else if api::test_panic(&spec.workload) {
                // Deterministic worker panic: integration tests exercise the
                // panic → supervise → failure-envelope path with this.
                panic!("test-panic workload requested a worker panic");
            } else {
                WorkloadProfile::by_name(&spec.workload).expect("a known workload")
            };
            profile.seed = spec.seed;
            faults::check("worker.simulate");
            let trace = traces.get_or_record(&spec.trace_key(), || {
                let program = Program::generate(&profile);
                Trace::record(program.walk(&profile).take(total as usize))
            });
            (profile.name, trace)
        }
    };
    // A recording already stops at `warmup + measure` instructions; an
    // upload may run longer.
    Simulator::new(spec.config.clone())
        .run_slice_cancellable(name, trace.iter().take(total as usize), cancel)
        .map_err(|Cancelled| RunError::Cancelled)
}

/// Generates a server-side request id: process-start micros plus a
/// monotone counter, both in hex. Unique per process and cheap — no
/// dependency on a random source.
fn next_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    static EPOCH_US: OnceLock<u64> = OnceLock::new();
    let epoch = *EPOCH_US.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64)
    });
    format!(
        "req-{epoch:x}-{:x}",
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Where [`Server::shutdown`] dials to wake the blocking accept: the
/// bound address, with an unspecified IP (`0.0.0.0`, `[::]`) replaced by
/// loopback of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Once stopping, whatever woke the accept — normally
                // shutdown's own wake dial — is dropped unserved and
                // never counted in `open_conns`.
                if inner.stopping.load(Ordering::SeqCst) || signal::signalled() {
                    return;
                }
                ucsim_obs::emit(ucsim_obs::SpanKind::Accept, ucsim_obs::now_us(), 0, 0);
                // Responses are single writes; with Nagle off each one
                // leaves at once instead of waiting out a delayed ACK.
                let _ = stream.set_nodelay(true);
                inner.open_conns.fetch_add(1, Ordering::SeqCst);
                let inner = Arc::clone(&inner);
                let _ = std::thread::Builder::new()
                    .name("http-conn".to_owned())
                    .spawn(move || {
                        handle_connection(stream, &inner);
                        inner.open_conns.fetch_sub(1, Ordering::SeqCst);
                    });
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Serves one connection for its whole keep-alive lifetime: read a
/// request, dispatch through the route table, respond, repeat — until the
/// peer closes, asks `Connection: close`, goes idle past the limit, or
/// the server starts draining.
fn handle_connection(stream: TcpStream, inner: &Arc<Inner>) {
    let mut conn = HttpConn::new(stream);
    let stop = || inner.stopping.load(Ordering::SeqCst) || signal::signalled();
    loop {
        let (mut req, parse) = match conn.read_request(KEEP_ALIVE_IDLE, &stop) {
            Ok(ReadOutcome::Request(req, parse)) => (req, parse),
            Ok(ReadOutcome::Malformed(msg)) => {
                let _ = conn.respond(&bad_request(&msg), true);
                return;
            }
            Ok(ReadOutcome::Closed | ReadOutcome::Stopped) | Err(_) => return,
        };
        // Request-id edge: honor the client's `X-Request-Id` or mint one,
        // scope this thread's trace events to it, and echo it back.
        let request_id = req
            .header("x-request-id")
            .map(str::to_owned)
            .filter(|id| !id.is_empty())
            .unwrap_or_else(next_request_id);
        req.request_id.clone_from(&request_id);
        let _scope = ucsim_obs::request_scope(ucsim_obs::hash_id(&request_id));
        parse.finish(0);
        let t0 = Instant::now();
        let span = ucsim_obs::span(ucsim_obs::SpanKind::Handle);
        let (label, resp) = inner.router.dispatch(inner, &req);
        span.finish(u32::from(resp.status));
        inner
            .metrics
            .observe(label, t0.elapsed().as_micros() as u64);
        let resp = resp.with_header("x-request-id", request_id);
        let close = req.wants_close() || stop();
        if conn.respond(&resp, close).is_err() || close {
            return;
        }
    }
}

/// The `draining` error answer to new work once shutdown has begun.
fn draining() -> Response {
    api::error_response(ErrorCode::Draining, "server shutting down", None)
}

/// Refuses new work while the server drains.
fn refuse_while_draining(inner: &Inner) -> Answer<()> {
    if inner.stopping.load(Ordering::SeqCst) {
        return Err(draining());
    }
    Ok(())
}

/// The request body as UTF-8 text, or a `code` error answer.
fn body_text(req: &Request, code: ErrorCode) -> Answer<&str> {
    std::str::from_utf8(&req.body)
        .map_err(|_| api::error_response(code, "request body is not valid UTF-8", None))
}

/// Parses the `:id` route param and looks it up with `get`: a 400
/// `bad <what> id` when it is not a number, a 404 `no such <what>` when
/// `get` finds nothing.
fn lookup<T>(params: &Params, what: &str, get: impl FnOnce(u64) -> Option<T>) -> Answer<T> {
    let id = params
        .get("id")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_request(&format!("bad {what} id")))?;
    get(id)
        .ok_or_else(|| api::error_response(ErrorCode::NotFound, &format!("no such {what}"), None))
}

fn handle_sim(inner: &Arc<Inner>, req: &Request, _params: &Params) -> Answer {
    refuse_while_draining(inner)?;
    let body = body_text(req, ErrorCode::BadRequest)?;
    // Forwarded peer traffic (`x-ucsim-forwarded`) carries the sender's
    // fully-resolved canonical spec; parse it verbatim so this node's
    // content hash matches the sender's exactly — and never re-route it
    // (no forwarding loops: the owner executes locally).
    let forwarded = req.header("x-ucsim-forwarded").is_some();
    let (spec, background, tenant, priority) = if forwarded {
        let spec = JobSpec::from_json_str(body)
            .map_err(|e| bad_request(&format!("bad forwarded spec: {e}")))?;
        (spec, false, None, None)
    } else {
        let sim_req =
            SimRequest::parse(body).map_err(|e| bad_request(&format!("bad request: {e}")))?;
        let spec = sim_req.resolve(api::default_seed(&sim_req.workload));
        (
            spec,
            sim_req.background.unwrap_or(false),
            sim_req.tenant,
            sim_req.priority,
        )
    };
    api::check_config(&spec.config).map_err(|e| bad_request(&format!("bad config: {e}")))?;
    workload_available(inner, &spec.workload)?;
    let canonical = spec.canonical();
    let hash = api::content_hash(&canonical);
    // Peer mode routes foreground requests to the key's owner. A
    // forwarded request never re-routes (the owner executes locally, so
    // there are no forwarding loops), and background jobs stay local so
    // their `/v1/jobs/:id` poll URL stays valid.
    let job = Admit {
        spec: &spec,
        canonical: &canonical,
        hash,
        request_id: &req.request_id,
        tenant: tenant.as_deref().unwrap_or("default"),
        priority: priority.unwrap_or(0),
        bounded: true,
        route: !forwarded && !background,
    };
    let cell = match admit(inner, &job) {
        Admission::Hit(payload) => {
            return Ok(Response::json(200, api::envelope(hash, true, &payload)))
        }
        Admission::Known(failure) => return Err(api::failure_response(&failure)),
        Admission::Remote(Forwarded::Report { body, .. }) => return Ok(Response::json(200, body)),
        Admission::Remote(Forwarded::Refusal(resp)) => {
            return Err(Response::json(resp.status, resp.body))
        }
        Admission::Refused { full: true } => {
            inner.metrics.rejected();
            return Err(api::error_response(
                ErrorCode::QueueFull,
                "job queue full; retry later",
                Some(inner.cfg.retry_after_secs),
            ));
        }
        Admission::Refused { full: false } => return Err(draining()),
        Admission::Job(cell) => cell,
    };

    if background {
        let accepted = JobAccepted {
            id: cell.id,
            key: api::format_key(hash),
            poll: format!("/v1/jobs/{}", cell.id),
        };
        return Ok(Response::encode(202, &accepted));
    }

    let payload = cell
        .wait()
        .map_err(|failure| api::failure_response(&failure))?;
    Ok(Response::json(200, api::envelope(hash, false, &payload)))
}

/// A job on its way in: what [`admit`] needs to answer, forward or queue
/// it.
struct Admit<'a> {
    spec: &'a JobSpec,
    canonical: &'a str,
    hash: u64,
    request_id: &'a str,
    tenant: &'a str,
    priority: u64,
    /// Direct jobs take the scheduler's bounded path (a full queue
    /// refuses them: admission control stays a 429 + Retry-After); plan
    /// cells take the unbounded path, so an overcommitted sweep queues
    /// instead of erroring.
    bounded: bool,
    /// In peer mode, offer the job to its remote owners first.
    route: bool,
}

/// What [`admit`] made of a job: the outcomes DESIGN.md §8 lists for
/// plan cells, plus a remote owner's answer for routed jobs.
enum Admission {
    /// The result cache holds the report.
    Hit(Arc<String>),
    /// The spec is known to fail deterministically.
    Known(JobFailure),
    /// A remote owner answered.
    Remote(Forwarded),
    /// The job is in flight here: joined, or created and queued.
    Job(Arc<JobCell>),
    /// The scheduler refused a fresh job: its bounded queue was `full`,
    /// or it is closed for shutdown.
    Refused { full: bool },
}

/// Admits one job: the result cache, then the negative cache, then (for
/// routed jobs) the owner chain, then coalescing onto the in-flight job
/// for the same key or creating one. A fresh job becomes joinable only
/// once the scheduler accepted it ([`JobTable::submit`] pushes under the
/// table lock; lock order table → scheduler), so nobody ever waits on a
/// job that no worker will run.
fn admit(inner: &Inner, job: &Admit<'_>) -> Admission {
    if let Some(payload) = inner.cache.get(job.hash, job.canonical) {
        return Admission::Hit(payload);
    }
    if let Some(failure) = inner.failed_for(job.hash, job.canonical) {
        return Admission::Known(failure);
    }
    if job.route {
        if let Some(answer) = inner.peers.as_ref().and_then(|ps| forward(inner, ps, job)) {
            return Admission::Remote(answer);
        }
    }
    let submitted = inner.jobs.submit(job.hash, |cell| {
        let cancel = cell.cancel_token();
        let work = Work {
            cell: Arc::clone(cell),
            spec: job.spec.clone(),
            canonical: job.canonical.to_owned(),
            request_id: job.request_id.to_owned(),
            cancel: cancel.clone(),
        };
        let pushed = if job.bounded {
            inner
                .queue
                .try_submit(job.tenant, job.priority, cancel, work)
        } else {
            inner.queue.enqueue(job.tenant, job.priority, cancel, work)
        };
        pushed.map_err(|e| matches!(e, PushError::Full(_)))
    });
    match submitted {
        Submit::New(cell) => Admission::Job(cell),
        Submit::Joined(cell) => {
            inner.cache.record_coalesced();
            Admission::Job(cell)
        }
        Submit::Refused(full) => Admission::Refused { full },
    }
}

/// A remote owner's answer to a forwarded job.
enum Forwarded {
    /// The owner's report: its payload, whether the owner answered from
    /// its cache, and the owner's response body.
    Report {
        payload: Arc<String>,
        cached: bool,
        body: Vec<u8>,
    },
    /// A definitive refusal (a bad spec, a deterministic failure):
    /// retrying elsewhere would only recompute it.
    Refusal(HttpResponse),
}

/// Walks the rendezvous owner chain for a job and forwards it to the
/// first remote owner that answers. A transport error, a 429 or 503
/// (overload, drain), or a 200 whose envelope does not parse fails over
/// to the next owner; any other status is definitive. Returns `None`
/// when the job should run here: this node comes first in what is left
/// of the chain, or every remote owner failed (graceful degradation — a
/// partitioned node still answers what it can). A report is cached
/// locally, so repeat requests stay node-local.
fn forward(inner: &Inner, ps: &PeerSet, job: &Admit<'_>) -> Option<Forwarded> {
    let headers = [("x-ucsim-forwarded", "1"), ("x-request-id", job.request_id)];
    for owner in ps.owner_chain(job.hash) {
        // `None` in the chain is this node: execute locally.
        let peer = owner?;
        if peer.available() {
            match ps.forward(peer, "POST", "/v1/sim", &headers, job.canonical.as_bytes()) {
                Ok(resp) if resp.status == 200 => {
                    let env = std::str::from_utf8(&resp.body)
                        .ok()
                        .and_then(|b| ReportEnvelope::from_json_str(b).ok());
                    if let Some(env) = env {
                        let payload = Arc::new(env.report.to_string());
                        let canonical = job.canonical.to_owned();
                        inner.cache.put(job.hash, canonical, Arc::clone(&payload));
                        return Some(Forwarded::Report {
                            payload,
                            cached: env.cached,
                            body: resp.body,
                        });
                    }
                }
                Ok(resp) if resp.status == 429 || resp.status == 503 => {}
                Ok(resp) => return Some(Forwarded::Refusal(resp)),
                Err(_) => {}
            }
        }
        peer.note_failed_over();
    }
    None
}

/// Validates a job's workload ref against what this node can actually
/// run: profile names must be Table II (or enabled test workloads);
/// `program:`/`trace:` refs must resolve in the registry — falling back
/// to an on-demand fetch from cluster peers when the upload landed on a
/// different node than rendezvous routing sent the job to.
fn workload_available(inner: &Arc<Inner>, workload: &str) -> Answer<()> {
    match WorkloadRef::parse(workload) {
        Ok(WorkloadRef::Profile(_)) => {
            if api::workload_known(workload, inner.cfg.enable_test_workloads) {
                Ok(())
            } else {
                Err(api::unknown_workload(workload))
            }
        }
        Ok(wref) => {
            if inner.programs.resolve(&wref).is_some() || fetch_program_from_peers(inner, &wref) {
                Ok(())
            } else {
                Err(api::error_response(
                    ErrorCode::InvalidProgram,
                    &format!(
                        "no uploaded program matches {workload}; POST it to /v1/programs first"
                    ),
                    None,
                ))
            }
        }
        Err(e) => Err(bad_request(&format!("bad workload ref {workload:?}: {e}"))),
    }
}

/// Pulls a missing program from cluster peers (`GET /v1/programs/:id/raw`)
/// and registers it locally. The fetched bytes are re-validated and
/// re-hashed here, so a peer cannot plant a program whose content address
/// lies — a mismatch is simply treated as not-found.
fn fetch_program_from_peers(inner: &Arc<Inner>, wref: &WorkloadRef) -> bool {
    let (Some(ps), Some(hash)) = (&inner.peers, wref.resource_hash()) else {
        return false;
    };
    let path = format!("/v1/programs/{}/raw", api::format_key(hash));
    let fetch = |peer: &Peer| {
        let resp = ps.fetch(peer, &path).ok().filter(|r| r.status == 200)?;
        let program = programs::validate_program_bytes(&resp.body).ok()?;
        (program.workload_ref() == *wref).then_some(program)
    };
    let mut available = ps.peers().iter().filter(|peer| peer.available());
    let Some(program) = available.find_map(fetch) else {
        return false;
    };
    register_program(inner, program);
    true
}

/// Registers a validated program: inserts it into the registry and — on
/// first sight — persists it to the store so restarts replay it and
/// anti-entropy replicates it.
fn register_program(inner: &Inner, program: StoredProgram) -> (Arc<StoredProgram>, bool) {
    let hash = program.hash();
    let canonical = program.ref_string();
    let payload = program.payload_json();
    let created = inner.record(hash, &canonical, Record::Program(program, payload), || true);
    let entry = inner
        .programs
        .get(hash)
        .expect("a recorded program is registered");
    (entry, created)
}

fn handle_matrix_post(inner: &Arc<Inner>, req: &Request, _params: &Params) -> Answer {
    refuse_while_draining(inner)?;
    let body = body_text(req, ErrorCode::BadRequest)?;
    let matrix_req =
        MatrixRequest::parse(body).map_err(|e| bad_request(&format!("bad request: {e}")))?;
    let mode = SweepMode::parse(matrix_req.mode.as_ref()).map_err(|msg| bad_request(&msg))?;
    let axes = PlanAxes::resolve(&matrix_req, inner.cfg.enable_test_workloads)?;
    // Every uploaded-program ref must resolve (locally, or fetched from
    // its upload node) before the plan is accepted — a plan never
    // enqueues cells it cannot run.
    for w in &matrix_req.workloads {
        workload_available(inner, w)?;
    }
    let opts = PlanOptions {
        tenant: matrix_req
            .tenant
            .clone()
            .unwrap_or_else(|| "default".to_owned()),
        priority: matrix_req.priority.unwrap_or(0),
        adaptive: matches!(mode, SweepMode::Adaptive { .. }),
    };
    let sweep = inner.sweeps.create(opts);
    let id = sweep.id;
    let request_id = req.request_id.clone();

    match mode {
        SweepMode::Full => {
            // Materialize the whole cross up front and resolve every cell
            // against the store right here — cheap (no simulation), so the
            // 202 still returns promptly and `planned` is exact from the
            // first poll.
            // In peer mode the cells scatter to their rendezvous owners;
            // adaptive plans below stay coordinator-local (the bisector
            // is sequential).
            let metas = axes.full_metas();
            let start = sweep.push_cells(metas.clone());
            scatter_cells(inner, &sweep, &metas, start, &request_id);
            sweep.mark_materialized();
        }
        SweepMode::Adaptive { tolerance, .. } => {
            // Adaptive plans materialize capacity waves as the bisector
            // asks for them; a detached driver owns that loop.
            let driver_inner = Arc::clone(inner);
            let driver_sweep = Arc::clone(&sweep);
            let _ = std::thread::Builder::new()
                .name("plan-driver".to_owned())
                .spawn(move || {
                    // The driver inherits the submitting request's trace
                    // scope so wave enqueues correlate to the POST.
                    let _scope = ucsim_obs::request_scope(ucsim_obs::hash_id(&request_id));
                    drive_adaptive(&driver_inner, &driver_sweep, &axes, tolerance, &request_id);
                });
        }
    }

    let accepted = SweepAccepted {
        id,
        planned: sweep.total() as u64,
        poll: format!("/v1/matrix/{id}"),
    };
    Ok(Response::encode(202, &accepted))
}

/// Resolves one plan cell through [`admit`]: a store/cache hit fulfills
/// the cell without simulating (counted in `skipped_from_store`), a
/// known-deterministic failure settles it immediately, a routed cell may
/// be answered by its remote owner, and anything else joins or creates a
/// job — fresh jobs go to the scheduler's *unbounded* path under the
/// plan's tenant and priority.
fn resolve_cell(
    inner: &Inner,
    sweep: &Sweep,
    idx: usize,
    meta: &sweep::CellMeta,
    request_id: &str,
    route: bool,
) {
    let job = Admit {
        spec: &meta.spec,
        canonical: &meta.canonical,
        hash: meta.key_hash,
        request_id,
        tenant: &sweep.tenant,
        priority: sweep.priority,
        bounded: false,
        route,
    };
    match admit(inner, &job) {
        Admission::Hit(payload) => sweep.fulfill_from_store(idx, payload),
        Admission::Known(failure) => sweep.fail(idx, failure),
        Admission::Remote(Forwarded::Report {
            payload, cached, ..
        }) => sweep.fulfill_remote(idx, payload, cached),
        Admission::Remote(Forwarded::Refusal(resp)) => {
            sweep.fail(idx, peer_error_failure(&resp, request_id));
        }
        Admission::Job(job) => sweep.attach(idx, job),
        Admission::Refused { .. } => {
            inner.metrics.job_failed_unexecuted();
            let failure = JobFailure::new(FailureKind::ShuttingDown, "server shutting down")
                .with_request_id(request_id);
            sweep.fail(idx, failure);
        }
    }
}

/// Per-gather-group fan-out width: how many cells a single peer is asked
/// to simulate concurrently during a scatter-gather sweep.
const GATHER_WORKERS: usize = 4;

/// Resolves the plan cells `start..start + metas.len()` exactly once
/// each, scatter-gather in peer mode: cells are partitioned by their
/// rendezvous primary owner; locally-owned cells (every cell on a
/// standalone node) resolve right here, and each remote group is driven by a detached gather thread that forwards cells down
/// the owner chain with bounded per-peer concurrency, failing over to
/// secondary owners and finally to local execution, so a dead or
/// partitioned peer can delay a sweep but never wedge it. First-wins
/// resolution in [`Sweep`] guarantees no cell is counted twice even if
/// a retried forward races a local fallback.
fn scatter_cells(
    inner: &Arc<Inner>,
    sweep: &Arc<Sweep>,
    metas: &[sweep::CellMeta],
    start: usize,
    request_id: &str,
) {
    let mut remote: HashMap<String, Vec<usize>> = HashMap::new();
    for (offset, meta) in metas.iter().enumerate() {
        let idx = start + offset;
        let chain = inner.peers.as_ref().map(|ps| ps.owner_chain(meta.key_hash));
        match chain.as_ref().and_then(|c| c.first()) {
            Some(Some(peer)) => remote.entry(peer.addr().to_owned()).or_default().push(idx),
            _ => resolve_cell(inner, sweep, idx, meta, request_id, false),
        }
    }
    for (addr, indices) in remote {
        let queue = Arc::new(Mutex::new(indices.into_iter().collect::<VecDeque<_>>()));
        let workers = GATHER_WORKERS.min(queue.lock().expect("gather queue").len());
        for _ in 0..workers {
            let inner = Arc::clone(inner);
            let sweep = Arc::clone(sweep);
            let metas = metas.to_vec();
            let queue = Arc::clone(&queue);
            let request_id = request_id.to_owned();
            let addr = addr.clone();
            let _ = std::thread::Builder::new()
                .name(format!("sweep-gather-{addr}"))
                .spawn(move || {
                    let _scope = ucsim_obs::request_scope(ucsim_obs::hash_id(&request_id));
                    loop {
                        let idx = match queue.lock().expect("gather queue").pop_front() {
                            Some(i) => i,
                            None => break,
                        };
                        // cancel() already failed every Planned cell.
                        if !sweep.is_cancelled() {
                            let meta = &metas[idx - start];
                            resolve_cell(&inner, &sweep, idx, meta, &request_id, true);
                        }
                    }
                });
        }
    }
}

/// Maps a peer's definitive error response back to a [`JobFailure`],
/// preserving the stable failure code when the envelope carries one.
fn peer_error_failure(resp: &HttpResponse, request_id: &str) -> JobFailure {
    let err = ErrorObject::from_envelope(&resp.body);
    let kind = err
        .as_ref()
        .and_then(|e| FailureKind::parse(&e.code))
        .unwrap_or(FailureKind::SimulationFailed);
    let message = err.map_or_else(
        || format!("peer answered status {}", resp.status),
        |e| e.message,
    );
    JobFailure::new(kind, message).with_request_id(request_id)
}

/// The anti-entropy pull loop (peer mode with a store): periodically
/// pulls each live peer's store delta via `GET /v1/store?since=…` and
/// replays unknown records through the local append path — results land
/// in the store *and* the cache, deterministic failures in the store
/// and the negative cache — so any node can answer any known job after
/// a crash, not just the keys it owns. Cursors are per-peer byte
/// offsets into the remote log; the remote's `read_since` stops before
/// a corrupt tail, so torn records are truncated there and never
/// replicate.
fn anti_entropy_loop(inner: &Arc<Inner>) {
    let (Some(ps), Some(store)) = (&inner.peers, &inner.store) else {
        return;
    };
    while !inner.stopping.load(Ordering::SeqCst) {
        for peer in ps.peers() {
            if inner.stopping.load(Ordering::SeqCst) {
                return;
            }
            if !peer.available() {
                continue;
            }
            let mut pulled = 0u64;
            loop {
                let path = format!(
                    "/v1/store?since={}&max={}",
                    peer.pull_cursor(),
                    ANTI_ENTROPY_BATCH
                );
                let resp = ps.fetch(peer, &path).ok().filter(|r| r.status == 200);
                let Some(page) = resp
                    .as_ref()
                    .and_then(|r| std::str::from_utf8(&r.body).ok())
                    .and_then(|b| StorePage::from_json_str(b).ok())
                else {
                    break;
                };
                let (pulled_any, next, eof) = (!page.records.is_empty(), page.next, page.eof);
                pulled += page.records.len() as u64;
                for rec in page.records {
                    apply_pull_record(inner, store, rec);
                }
                if next > peer.pull_cursor() {
                    peer.set_pull_cursor(next);
                } else if pulled_any {
                    break; // no cursor progress despite records: bail out
                }
                if eof {
                    break;
                }
            }
            ps.note_pull_round(pulled);
        }
        // Interruptible sleep so shutdown isn't held up by the interval.
        let deadline = Instant::now() + inner.cfg.anti_entropy_interval;
        while Instant::now() < deadline && !inner.stopping.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

/// Replays one record pulled from a peer through [`Inner::record`], which
/// appends it locally. Keys the local store already holds are skipped, so
/// repeated pulls and overlapping peers stay idempotent; malformed
/// records are dropped (the source log is checksummed, so these only
/// arise from a peer speaking a different wire version).
fn apply_pull_record(inner: &Inner, store: &ResultStore, rec: StoreRow) {
    let (Some(kind), Ok(key)) = (
        RecordKind::parse(&rec.kind),
        u64::from_str_radix(&rec.key, 16),
    ) else {
        return;
    };
    if store.contains(key) {
        return;
    }
    if let Ok(record) = Record::decode(kind, rec.payload) {
        inner.record(key, &rec.canonical, record, || true);
    }
}

/// The adaptive-plan driver: bisects the capacity axis until the UPC
/// knee is bracketed to adjacent axis points, materializing one wave of
/// cells (every workload × policy at one capacity) per probe. Runs
/// detached; terminates when the bisector converges, the plan is
/// cancelled, a whole wave fails, or the server drains (shutdown fails
/// queued cells, so waits always return).
fn drive_adaptive(
    inner: &Arc<Inner>,
    sweep: &Arc<Sweep>,
    axes: &PlanAxes,
    tolerance: f64,
    request_id: &str,
) {
    let capacities: Vec<u64> = axes.capacities().iter().map(|&c| c as u64).collect();
    let mut bisector = KneeBisector::new(capacities.len(), tolerance);
    let publish = |b: &KneeBisector| {
        sweep.set_frontier(Frontier {
            axis: "capacity".to_owned(),
            tolerance,
            capacities: capacities.clone(),
            probed: b.probed_indices().iter().map(|&i| capacities[i]).collect(),
            bracket: b.bracket().map(|(lo, hi)| (capacities[lo], capacities[hi])),
            knee: b.knee().map(|i| capacities[i]),
        });
    };
    publish(&bisector);
    loop {
        let probes = bisector.next_probes();
        if probes.is_empty() {
            break;
        }
        if sweep.is_cancelled() || inner.stopping.load(Ordering::SeqCst) {
            break;
        }
        for cap_idx in probes {
            let metas = axes.capacity_metas(cap_idx);
            let start = sweep.push_cells(metas.clone());
            for (offset, meta) in metas.iter().enumerate() {
                resolve_cell(inner, sweep, start + offset, meta, request_id, false);
            }
            // Wait the wave out, then fold its UPCs into one knee metric.
            let cells = sweep.cells();
            let mut upcs = Vec::with_capacity(metas.len());
            for cell in &cells[start..start + metas.len()] {
                let (payload, _failure) = cell.wait_settled();
                if let Some(payload) = payload {
                    if let Ok(report) = SimReport::from_json_str(&payload) {
                        if report.upc > 0.0 {
                            upcs.push(report.upc);
                        }
                    }
                }
            }
            if upcs.is_empty() {
                // The whole wave failed: no metric to steer by. Leave the
                // failed cells in place and stop refining.
                sweep.mark_materialized();
                publish(&bisector);
                return;
            }
            let geomean = (upcs.iter().map(|u| u.ln()).sum::<f64>() / upcs.len() as f64).exp();
            bisector.record(cap_idx, geomean);
            publish(&bisector);
        }
    }
    sweep.mark_materialized();
    publish(&bisector);
}

/// The `?state=` filter of a listing, as a test of a row's state that
/// every state passes when the filter is absent; a 400 naming the
/// accepted values when it is none of `states`.
fn state_filter<'a>(req: &'a Request, states: &[&str]) -> Answer<impl Fn(&str) -> bool + 'a> {
    match req.query("state") {
        Some(f) if !states.contains(&f) => Err(bad_request(&format!(
            "unknown state filter {f:?} (want {})",
            states.join(", ")
        ))),
        filter => Ok(move |state: &str| filter.is_none_or(|f| f == state)),
    }
}

fn handle_matrix_list(inner: &Arc<Inner>, req: &Request, _params: &Params) -> Answer {
    let keep = state_filter(req, &SWEEP_STATES)?;
    let sweeps = inner
        .sweeps
        .list()
        .into_iter()
        .filter_map(|s| {
            let state = s.state_name();
            keep(state).then(|| s.row(state))
        })
        .collect();
    Ok(Response::encode(200, &SweepList { sweeps }))
}

fn handle_matrix_delete(inner: &Arc<Inner>, _req: &Request, params: &Params) -> Answer {
    let sweep = lookup(params, "sweep", |id| inner.sweeps.get(id))?;
    let id = sweep.id;
    if sweep.state_name() != "running" {
        return Err(bad_request(&format!(
            "sweep {id} already settled; nothing to cancel"
        )));
    }
    // Fail every unsettled cell (first-wins) and flip the cancel tokens:
    // the scheduler preempts still-queued entries before they reach a
    // worker, running simulations bail at the next cancellation check,
    // and the adaptive driver stops materializing waves.
    let flipped = sweep.cancel();
    for job in &flipped {
        inner.jobs.finish(job);
    }
    inner.metrics.record_cancelled(flipped.len() as u64);
    Ok(api::error_response(
        ErrorCode::Cancelled,
        &format!("sweep {id} cancelled; {} cells preempted", flipped.len()),
        None,
    ))
}

/// `POST /v1/programs` — upload a user program: ucasm text or a binary
/// `UCT1` trace (sniffed by content), or the JSON envelope
/// `{"kind":"asm","source":…}` / `{"kind":"trace","hex":…}` for clients
/// that prefer a pure-JSON wire. The id is the FNV-1a hash of the
/// program bytes, so uploads are idempotent and agree across nodes:
/// 201 on first upload, 200 on re-upload, 422 `invalid_program` when
/// validation fails.
fn handle_program_post(inner: &Arc<Inner>, req: &Request, _params: &Params) -> Answer {
    refuse_while_draining(inner)?;
    let first = req.body.iter().find(|b| !b.is_ascii_whitespace());
    let program = if first == Some(&b'{') {
        // ucasm can't start with '{', so this is the JSON envelope form.
        programs::decode_program_payload(body_text(req, ErrorCode::InvalidProgram)?)
    } else {
        programs::validate_program_bytes(&req.body)
    }
    .map_err(|msg| api::error_response(ErrorCode::InvalidProgram, &msg, None))?;
    let (entry, created) = register_program(inner, program);
    let mut meta = entry.meta();
    meta.created = Some(created);
    Ok(Response::encode(if created { 201 } else { 200 }, &meta))
}

/// Resolves the `:id` route param (the 16-hex content address) against
/// the program registry.
fn lookup_program(inner: &Inner, params: &Params) -> Answer<Arc<StoredProgram>> {
    let hash = params
        .get("id")
        .filter(|s| !s.is_empty() && s.len() <= 16)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| bad_request("bad program id"))?;
    inner
        .programs
        .get(hash)
        .ok_or_else(|| api::error_response(ErrorCode::NotFound, "no such program", None))
}

fn handle_program_list(inner: &Arc<Inner>, req: &Request, _params: &Params) -> Answer {
    let kind = req.query("kind").map(|v| {
        ProgramKind::parse(v)
            .ok_or_else(|| bad_request(&format!("unknown kind filter {v:?} (want asm or trace)")))
    });
    let programs = inner.programs.list(kind.transpose()?);
    let programs = programs.iter().map(|p| p.meta()).collect();
    Ok(Response::encode(200, &ProgramList { programs }))
}

fn handle_program_get(inner: &Arc<Inner>, _req: &Request, params: &Params) -> Answer {
    let meta = lookup_program(inner, params)?.meta();
    Ok(Response::encode(200, &meta))
}

/// `GET /v1/programs/:id/raw` — the exact uploaded bytes. Peers use this
/// for on-demand fetch (re-uploading the body anywhere reproduces the
/// id); humans use it to recover a source file.
fn handle_program_raw(inner: &Arc<Inner>, _req: &Request, params: &Params) -> Answer {
    let p = lookup_program(inner, params)?;
    Ok(Response {
        status: 200,
        headers: Vec::new(),
        body: p.raw().to_vec(),
        content_type: match p.kind() {
            ProgramKind::Asm => "text/plain; charset=utf-8",
            ProgramKind::Trace => "application/octet-stream",
        },
    })
}

fn handle_jobs_list(inner: &Arc<Inner>, req: &Request, _params: &Params) -> Answer {
    let keep = state_filter(req, &JOB_STATES)?;
    let jobs = inner
        .jobs
        .snapshot()
        .into_iter()
        .filter_map(|cell| {
            let state = cell.state().name();
            keep(state).then(|| JobRow::new(&cell, state))
        })
        .collect();
    Ok(Response::encode(200, &JobList { jobs }))
}

fn handle_job_delete(inner: &Arc<Inner>, req: &Request, params: &Params) -> Answer {
    let cell = lookup(params, "job", |id| inner.jobs.get(id))?;
    let id = cell.id;
    let failure = JobFailure::new(FailureKind::Cancelled, format!("job {id} cancelled"))
        .with_request_id(&req.request_id);
    if !cell.fail(failure) {
        return Err(bad_request(&format!(
            "job {id} already settled; nothing to cancel"
        )));
    }
    cell.cancel_token().cancel();
    inner.jobs.finish(&cell);
    inner.metrics.record_cancelled(1);
    Ok(api::error_response(
        ErrorCode::Cancelled,
        &format!("job {id} cancelled"),
        None,
    ))
}

fn handle_matrix_get(inner: &Arc<Inner>, _req: &Request, params: &Params) -> Answer {
    let sweep = lookup(params, "sweep", |id| inner.sweeps.get(id))?;
    Ok(Response::json(200, sweep.status_body().to_vec()))
}

fn handle_job_get(inner: &Arc<Inner>, _req: &Request, params: &Params) -> Answer {
    let cell = lookup(params, "job", |id| inner.jobs.get(id))?;
    let state = cell.state();
    let mut row = JobRow::new(&cell, state.name());
    Ok(match state {
        JobState::Done(payload) => {
            // Splice the finished job's response envelope in verbatim.
            let mut out = row.to_json_string().into_bytes();
            out.pop(); // trailing '}'
            out.extend_from_slice(b",\"result\":");
            out.extend(api::envelope(cell.key_hash, false, &payload));
            out.push(b'}');
            Response::json(200, out)
        }
        JobState::Failed(failure) => {
            row.error = Some(ErrorObject::of_failure(&failure));
            Response::encode(200, &row)
        }
        _ => Response::encode(200, &row),
    })
}

fn handle_job_profile(inner: &Arc<Inner>, _req: &Request, params: &Params) -> Answer {
    let cell = lookup(params, "job", |id| inner.jobs.get(id))?;
    let body = JobProfileBody {
        id: cell.id,
        state: cell.state().name(),
        profile: cell.profile().map_or(Json::Null, |p| p.to_json()),
    };
    Ok(Response::encode(200, &body))
}

fn handle_metrics(inner: &Arc<Inner>, req: &Request, _params: &Params) -> Answer {
    let stats = inner.cache.stats();
    let (alive, respawned) = inner
        .pool_monitor
        .get()
        .map_or((0, 0), |m| (m.alive(), m.respawned()));
    let doc = inner.metrics.to_json(
        &inner.queue.stats(),
        inner.queue.capacity(),
        &stats,
        alive,
        respawned,
        inner.peers.as_ref().map(PeerSet::counters),
    );
    // Content negotiation: Prometheus scrapers ask for text/plain; the
    // exposition covers the same counters as the JSON document by
    // construction (see `prom`).
    let prometheus = req
        .header("accept")
        .is_some_and(|a| a.contains("text/plain"));
    Ok(if prometheus {
        Response::text(200, crate::prom::render_prometheus(&doc).into_bytes())
    } else {
        Response::json(200, doc.to_string().into_bytes())
    })
}

fn handle_trace(_inner: &Arc<Inner>, req: &Request, _params: &Params) -> Answer {
    let since = req.query("since").and_then(|v| v.parse().ok()).unwrap_or(0);
    let max = req
        .query("max")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096);
    let (events, next_since) = ucsim_obs::drain_since(since, max);
    let events = events
        .iter()
        .map(|e| TraceEvent {
            seq: e.seq,
            kind: e.kind.name(),
            start_us: e.start_us,
            dur_us: e.dur_us,
            request_id: format!("{:016x}", e.request_id),
            detail: e.detail,
        })
        .collect();
    let page = TracePage {
        enabled: ucsim_obs::ENABLED,
        events,
        next_since,
    };
    Ok(Response::encode(200, &page))
}

/// `GET /v1/trace`: span events after a cursor.
#[derive(ToJson)]
struct TracePage {
    enabled: bool,
    events: Vec<TraceEvent>,
    next_since: u64,
}

/// One span event of a [`TracePage`].
#[derive(ToJson)]
struct TraceEvent {
    seq: u64,
    kind: &'static str,
    start_us: u64,
    dur_us: u64,
    request_id: String,
    detail: u32,
}

/// `GET /v1/store`: a page of store records, and what anti-entropy
/// decodes from a peer.
#[derive(ToJson, FromJson)]
struct StorePage {
    format: String,
    since: u64,
    /// The cursor of the following page.
    next: u64,
    /// True when the page reaches the end of the verified log.
    eof: bool,
    records: Vec<StoreRow>,
}

/// One record of a [`StorePage`].
#[derive(ToJson, FromJson)]
struct StoreRow {
    kind: String,
    key: String,
    canonical: String,
    payload: String,
}

/// Largest `GET /v1/store` page, in bytes of log (record headers
/// included). JSON escaping writes at most six bytes per stored byte
/// (`\u00XX`), and a record's 25-byte header outweighs the ~73 bytes of
/// field names it gets in the page, so a page's JSON is at most about
/// six times this (48 MiB), inside the client's 64 MiB response cap
/// ([`MAX_RESPONSE_BODY_BYTES`](crate::client::MAX_RESPONSE_BODY_BYTES)).
/// The first record of a page goes out whatever its size; the largest
/// a server writes, a 4 MiB uploaded program, escapes to under 32 MiB.
const STORE_PAGE_BYTES: u64 = (crate::client::MAX_RESPONSE_BODY_BYTES / 8) as u64;

/// `GET /v1/store?since=N&max=M` — a page of verified store records
/// starting at byte offset `since`, for peer anti-entropy pulls (and
/// offline log inspection). `next` is the cursor for the following
/// page; `eof` is true when the page reaches the end of the verified
/// log, so pollers know to back off. Torn tail records are excluded —
/// the reader stops at the first checksum mismatch, exactly like
/// startup replay.
fn handle_store(inner: &Arc<Inner>, req: &Request, _params: &Params) -> Answer {
    let store = inner.store.as_ref().ok_or_else(|| {
        let msg = "no persistent store (start with --data-dir)";
        api::error_response(ErrorCode::NotFound, msg, None)
    })?;
    let since = req.query("since").and_then(|v| v.parse().ok()).unwrap_or(0);
    let max = req
        .query("max")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024);
    let (records, next, eof) = store
        .read_since(since, max.min(4096), STORE_PAGE_BYTES)
        .map_err(|e| {
            api::error_response(
                ErrorCode::Internal,
                &format!("store read failed: {e}"),
                None,
            )
        })?;
    let records = records
        .into_iter()
        .map(|r| StoreRow {
            kind: r.kind.name().to_owned(),
            key: api::format_key(r.key_hash),
            canonical: r.canonical,
            payload: r.payload,
        })
        .collect();
    let page = StorePage {
        format: STORE_FORMAT.to_owned(),
        since,
        next,
        eof,
        records,
    };
    Ok(Response::encode(200, &page))
}

fn handle_healthz(inner: &Arc<Inner>, _req: &Request, _params: &Params) -> Answer {
    let alive = inner
        .pool_monitor
        .get()
        .map_or(0, ucsim_pool::PoolMonitor::alive);
    let (store_present, store_writable) = match &inner.store {
        Some(s) => (true, s.writable()),
        None => (false, true),
    };
    let ok = alive > 0 && store_writable && !inner.stopping.load(Ordering::SeqCst);
    let health = Health {
        ok,
        queue: QueueStats {
            depth: inner.queue.len(),
            capacity: inner.queue.capacity(),
            rejected_429: None,
        },
        workers: WorkersAlive {
            alive,
            count: inner.cfg.workers,
        },
        store: StoreHealth {
            present: store_present,
            writable: store_writable,
        },
        // Peer mode: per-member breaker state plus the cluster-level
        // "ok"/"degraded" signal. Local `ok` is deliberately unaffected —
        // a node that can serve what it owns stays healthy even when the
        // cluster around it is partitioned.
        peers: inner.peers.as_ref().map(PeerSet::health),
    };
    Ok(Response::encode(if ok { 200 } else { 503 }, &health))
}

/// `GET /v1/healthz`.
#[derive(ToJson)]
struct Health {
    ok: bool,
    queue: QueueStats,
    workers: WorkersAlive,
    store: StoreHealth,
    peers: Option<ClusterHealth>,
}

#[derive(ToJson)]
struct WorkersAlive {
    alive: usize,
    count: usize,
}

#[derive(ToJson)]
struct StoreHealth {
    present: bool,
    writable: bool,
}

fn handle_version(inner: &Arc<Inner>, _req: &Request, _params: &Params) -> Answer {
    let version = Version {
        version: env!("CARGO_PKG_VERSION"),
        // Wire-contract version: v1.2 added user programs (`/v1/programs`,
        // the tagged workload-ref object in sim/matrix requests beside the
        // plain ref string, which stays a supported spelling) on top of
        // the v1.1 plans/cancellation/listing surface.
        api: "v1.2",
        store_format: STORE_FORMAT,
        features: Features {
            observability: ucsim_obs::ENABLED,
            fault_injection: cfg!(feature = "fault-injection"),
            test_workloads: inner.cfg.enable_test_workloads,
            durable_store: inner.cfg.durable_store,
            cluster: inner.peers.is_some(),
            programs: true,
        },
    };
    Ok(Response::encode(200, &version))
}

/// `GET /v1/version`.
#[derive(ToJson)]
struct Version {
    version: &'static str,
    api: &'static str,
    store_format: &'static str,
    features: Features,
}

#[derive(ToJson)]
struct Features {
    observability: bool,
    fault_injection: bool,
    test_workloads: bool,
    durable_store: bool,
    cluster: bool,
    programs: bool,
}
