//! Sweep *plans* for `POST /v1/matrix`: request expansion into per-cell
//! job specs, store-aware cell resolution, per-plan progress counters,
//! adaptive-refinement frontier tracking, and final aggregation into a
//! [`SweepReport`].
//!
//! A plan is a set of content-addressed cells scheduled through the same
//! fair-share scheduler as single jobs. At materialization time each cell
//! independently resolves from the result cache/store (counted as
//! *skipped*), joins an in-flight job for the same key, or enqueues a
//! fresh simulation — so overlapping sweeps, repeated sweeps, and
//! restarts (via the persistent store) all dedup cell-by-cell, and a
//! re-submitted completed sweep simulates zero cells.
//!
//! Full-mode plans materialize every cell of the capacity × policy cross
//! up front. Adaptive plans materialize one capacity *wave* at a time,
//! driven by a [`KneeBisector`](ucsim_pipeline::KneeBisector) until the
//! UPC knee is bracketed; the probed frontier is reported by
//! `GET /v1/matrix/:id`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ucsim_bench::{MatrixCross, SweepPolicy};
use ucsim_model::json::Json;
use ucsim_model::{FromJson, ToJson, WorkloadRef};
use ucsim_obs::JobProfile;
use ucsim_pipeline::{LabeledConfig, SimConfig, SimReport, SweepCellReport, SweepReport};

use crate::api::{self, ErrorCode, ErrorObject, JobSpec, MatrixRequest};
use crate::jobs::{JobCell, JobFailure, JobState};

/// Hard ceiling on cells per sweep (guards against a typo'd cross
/// exploding the scheduler; the unbounded plan path relies on it).
pub const MAX_SWEEP_CELLS: usize = 1024;

/// Immutable identity of one sweep cell.
#[derive(Debug, Clone)]
pub struct CellMeta {
    /// Workload name.
    pub workload: String,
    /// Configuration label from the matrix cross (`OC_2K`, `F-PWAC`, …).
    pub label: String,
    /// Effective generation seed.
    pub seed: u64,
    /// The fully-resolved job spec.
    pub spec: JobSpec,
    /// The spec's canonical encoding.
    pub canonical: String,
    /// FNV-1a content address of `canonical`.
    pub key_hash: u64,
}

impl CellMeta {
    /// The recorded-stream identity of this cell: cells sharing a
    /// workload × seed × run length replay one trace from the server's
    /// [`ucsim_trace::TraceStore`], whatever their configuration axes.
    pub fn trace_key(&self) -> ucsim_trace::TraceKey {
        self.spec.trace_key()
    }
}

/// Where a cell currently stands.
enum CellSlot {
    /// Materialized but not yet resolved against store/job table (a
    /// momentary state inside plan construction).
    Planned,
    /// Riding a queued/running job.
    Waiting(Arc<JobCell>),
    /// Finished; holds the bare report payload and — when the cell
    /// actually executed (not a cache hit) — its execution profile.
    Done(Arc<String>, Option<Arc<ucsim_obs::JobProfile>>),
    /// Failed; holds the stable error code and message.
    Failed(JobFailure),
}

/// One cell: identity plus mutable progress.
pub struct SweepCell {
    /// The cell's identity.
    pub meta: CellMeta,
    slot: Mutex<CellSlot>,
}

/// One `SweepCell::poll` observation:
/// `(state_name, payload_if_done, failure_if_failed, profile)`.
type CellPoll = (
    &'static str,
    Option<Arc<String>>,
    Option<JobFailure>,
    Option<Arc<ucsim_obs::JobProfile>>,
);

impl SweepCell {
    /// Advances `Waiting` cells whose job has settled, then reports
    /// `(state_name, payload_if_done, failure_if_failed, profile)`.
    fn poll(&self) -> CellPoll {
        let mut slot = self.slot.lock().expect("cell lock");
        if let CellSlot::Waiting(job) = &*slot {
            match job.state() {
                JobState::Done(payload) => *slot = CellSlot::Done(payload, job.profile()),
                JobState::Failed(failure) => *slot = CellSlot::Failed(failure),
                _ => {}
            }
        }
        match &*slot {
            CellSlot::Planned => ("queued", None, None, None),
            CellSlot::Waiting(job) => (job.state().name(), None, None, None),
            CellSlot::Done(p, prof) => ("done", Some(Arc::clone(p)), None, prof.clone()),
            CellSlot::Failed(failure) => ("failed", None, Some(failure.clone()), None),
        }
    }

    /// Blocks until the cell settles (its job completes/fails, or it was
    /// fulfilled/failed directly) and returns the final poll. The
    /// adaptive-plan driver waits on whole waves with this.
    pub fn wait_settled(&self) -> (Option<Arc<String>>, Option<JobFailure>) {
        loop {
            let job = match &*self.slot.lock().expect("cell lock") {
                CellSlot::Waiting(job) => Some(Arc::clone(job)),
                _ => None,
            };
            if let Some(job) = job {
                let _ = job.wait();
            }
            let (state, payload, failure, _) = self.poll();
            if state == "done" || state == "failed" {
                return (payload, failure);
            }
            // Still `Planned` (materialized but mid-resolution): back off
            // until the resolver attaches or settles it.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// The refinement frontier of an adaptive plan, for `GET /v1/matrix/:id`.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct Frontier {
    /// The refined axis (`"capacity"`).
    pub axis: String,
    /// Relative knee tolerance.
    pub tolerance: f64,
    /// The full capacity axis, ascending (uops).
    pub capacities: Vec<u64>,
    /// Capacities probed (simulated or resolved from store) so far.
    pub probed: Vec<u64>,
    /// Current open bracket `(below, at-or-above)` in uops.
    pub bracket: Option<(u64, u64)>,
    /// The knee capacity once bracketed to adjacent axis points.
    pub knee: Option<u64>,
}

/// The 202 of `POST /v1/matrix`.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct SweepAccepted {
    /// The sweep id.
    pub id: u64,
    /// Cells materialized so far (0 for an adaptive plan).
    pub planned: u64,
    /// The status path, `/v1/matrix/<id>`.
    pub poll: String,
}

/// The `GET /v1/matrix/:id` body: plan counters, the adaptive frontier
/// and the aggregated profile when present, per-cell state, and — once
/// the plan settles — the aggregated report over the cells that
/// succeeded.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct SweepStatus {
    /// The sweep id.
    pub id: u64,
    /// `running`, then `done`, `partial` or `failed`.
    pub state: String,
    /// Unix seconds when the sweep was registered.
    pub created_at: u64,
    /// Fair-share tenant.
    pub tenant: String,
    /// Scheduling priority within the tenant.
    pub priority: u64,
    /// `full` or `adaptive`.
    pub mode: String,
    /// Cells materialized so far (the same count as `planned`).
    pub total: u64,
    /// Cells materialized so far.
    pub planned: u64,
    /// Cells resolved from the result cache/store, never simulated.
    pub skipped_from_store: u64,
    /// Cells fulfilled by a peer node.
    pub remote_done: u64,
    /// Done cells that were simulated for this plan.
    pub simulated: u64,
    /// Cells done.
    pub done: u64,
    /// Cells failed.
    pub failed: u64,
    /// The refinement frontier of an adaptive plan.
    pub frontier: Option<Frontier>,
    /// The merged execution profile of the cells that ran here.
    pub profile: Option<Json>,
    /// Per-cell state, in materialization order.
    pub cells: Vec<CellStatus>,
    /// Why a settled plan has no report (a cell payload did not decode).
    pub aggregate_error: Option<String>,
    /// The aggregate over the done cells, once the plan settles.
    pub report: Option<SweepReport>,
}

/// One cell of a [`SweepStatus`].
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct CellStatus {
    /// Workload name.
    pub workload: String,
    /// Configuration label.
    pub label: String,
    /// Effective generation seed.
    pub seed: u64,
    /// The cell's content key.
    pub key: String,
    /// `queued`, `running`, `done` or `failed`.
    pub state: String,
    /// A failed cell's error.
    pub error: Option<ErrorObject>,
}

/// One `GET /v1/matrix` row.
#[derive(ToJson)]
pub(crate) struct SweepRow {
    id: u64,
    state: &'static str,
    created_at: u64,
    tenant: String,
    priority: u64,
    mode: &'static str,
    planned: u64,
}

/// `GET /v1/matrix`.
#[derive(ToJson)]
pub(crate) struct SweepList {
    pub(crate) sweeps: Vec<SweepRow>,
}

/// Creation-time options of a plan.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Fair-share tenant the plan's cells are charged to.
    pub tenant: String,
    /// Scheduling priority within the tenant (higher first).
    pub priority: u64,
    /// True for adaptive-refinement plans (cells arrive in waves).
    pub adaptive: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            tenant: "default".to_owned(),
            priority: 0,
            adaptive: false,
        }
    }
}

/// A sweep plan in flight (or finished).
pub struct Sweep {
    /// Sweep identifier, monotonically assigned per server.
    pub id: u64,
    /// Unix seconds when the sweep was registered.
    pub created_at: u64,
    /// Fair-share tenant the plan's cells are charged to.
    pub tenant: String,
    /// Scheduling priority within the tenant (higher first).
    pub priority: u64,
    /// True for adaptive plans.
    pub adaptive: bool,
    cells: Mutex<Vec<Arc<SweepCell>>>,
    /// Cells resolved from the result cache/store at materialization —
    /// never simulated by this plan.
    skipped_from_store: AtomicU64,
    /// Cells fulfilled by a peer node (scatter-gather federation); they
    /// still count as simulated unless the peer answered from its cache.
    remote_done: AtomicU64,
    /// True once no further cells will be materialized (immediately for
    /// full plans; when the driver finishes for adaptive ones).
    materialized: AtomicBool,
    cancelled: AtomicBool,
    frontier: Mutex<Option<Frontier>>,
    /// Memoized final response body, built once the plan settles.
    final_body: Mutex<Option<Arc<Vec<u8>>>>,
}

impl Sweep {
    fn new(id: u64, opts: PlanOptions) -> Sweep {
        Sweep {
            id,
            created_at: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            tenant: opts.tenant,
            priority: opts.priority,
            adaptive: opts.adaptive,
            cells: Mutex::new(Vec::new()),
            skipped_from_store: AtomicU64::new(0),
            remote_done: AtomicU64::new(0),
            materialized: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            frontier: Mutex::new(None),
            final_body: Mutex::new(None),
        }
    }

    /// Appends a wave of cells, returning the index of the first. The
    /// caller resolves each appended cell (attach / fulfill / fail).
    pub fn push_cells(&self, metas: Vec<CellMeta>) -> usize {
        let mut cells = self.cells.lock().expect("sweep lock");
        let start = cells.len();
        cells.extend(metas.into_iter().map(|meta| {
            Arc::new(SweepCell {
                meta,
                slot: Mutex::new(CellSlot::Planned),
            })
        }));
        start
    }

    /// A snapshot of the cells, in materialization order.
    pub fn cells(&self) -> Vec<Arc<SweepCell>> {
        self.cells.lock().expect("sweep lock").clone()
    }

    /// Number of cells materialized so far.
    pub fn total(&self) -> usize {
        self.cells.lock().expect("sweep lock").len()
    }

    /// Resolves cell `idx` from `Planned` to `slot`; a no-op when the
    /// cell already resolved (e.g. a concurrent cancel beat us to it).
    /// Returns whether the resolution applied.
    fn resolve(&self, idx: usize, slot: CellSlot) -> bool {
        let cell = Arc::clone(&self.cells.lock().expect("sweep lock")[idx]);
        let mut guard = cell.slot.lock().expect("cell lock");
        if matches!(*guard, CellSlot::Planned) {
            *guard = slot;
            true
        } else {
            false
        }
    }

    /// Marks cell `idx` as riding `job`.
    pub fn attach(&self, idx: usize, job: Arc<JobCell>) {
        self.resolve(idx, CellSlot::Waiting(job));
    }

    /// Marks cell `idx` as done with its payload (a fresh cache hit made
    /// by another in-flight job, so no execution profile).
    pub fn fulfill(&self, idx: usize, payload: Arc<String>) {
        self.resolve(idx, CellSlot::Done(payload, None));
    }

    /// Marks cell `idx` as resolved from the result cache/store at
    /// materialization: done without simulating, counted in
    /// `skipped_from_store`.
    pub fn fulfill_from_store(&self, idx: usize, payload: Arc<String>) {
        if self.resolve(idx, CellSlot::Done(payload, None)) {
            self.skipped_from_store.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Marks cell `idx` as done with a payload simulated by a peer node
    /// (scatter-gather): counted in `remote_done`, and in
    /// `skipped_from_store` too when the peer answered from its cache —
    /// nobody simulated anything for it this time.
    pub fn fulfill_remote(&self, idx: usize, payload: Arc<String>, peer_cached: bool) {
        if self.resolve(idx, CellSlot::Done(payload, None)) {
            self.remote_done.fetch_add(1, Ordering::AcqRel);
            if peer_cached {
                self.skipped_from_store.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Marks cell `idx` as failed with a stable error code and message.
    pub fn fail(&self, idx: usize, failure: JobFailure) {
        self.resolve(idx, CellSlot::Failed(failure));
    }

    /// Declares the plan fully materialized: no further cells will be
    /// appended, so the plan settles once every present cell does.
    pub fn mark_materialized(&self) {
        self.materialized.store(true, Ordering::Release);
    }

    /// Publishes the adaptive driver's current refinement frontier.
    pub fn set_frontier(&self, frontier: Frontier) {
        *self.frontier.lock().expect("sweep lock") = Some(frontier);
    }

    /// True once [`cancel`](Self::cancel) ran.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Cancels the plan: every unsettled cell fails with the stable
    /// `cancelled` code, its job's cancel token flips (the scheduler
    /// preempts still-queued entries; running simulations bail
    /// cooperatively), and adaptive drivers stop materializing waves.
    ///
    /// Returns the jobs whose tokens were flipped, so the caller can
    /// release their content keys in the job table. Idempotent.
    pub fn cancel(&self) -> Vec<Arc<JobCell>> {
        self.cancelled.store(true, Ordering::Release);
        let mut flipped = Vec::new();
        for cell in self.cells() {
            let job = {
                let mut slot = cell.slot.lock().expect("cell lock");
                match &*slot {
                    CellSlot::Planned => {
                        // Mid-materialization: settle it here; the
                        // resolver's later attach/fulfill will no-op.
                        *slot = CellSlot::Failed(JobFailure::new(
                            ucsim_model::FailureKind::Cancelled,
                            format!("sweep {} cancelled", self.id),
                        ));
                        None
                    }
                    CellSlot::Waiting(job) => Some(Arc::clone(job)),
                    _ => None,
                }
            };
            let Some(job) = job else { continue };
            if job.fail(JobFailure::new(
                ucsim_model::FailureKind::Cancelled,
                format!("sweep {} cancelled", self.id),
            )) {
                job.cancel_token().cancel();
                flipped.push(job);
            }
        }
        self.mark_materialized();
        flipped
    }

    /// The plan's state over one poll of its cells, with the done and
    /// failed counts: `running` until every materialized cell settled,
    /// then `done` when every cell succeeded, `failed` when every cell
    /// failed, and `partial` otherwise.
    fn state_of(&self, polls: &[CellPoll]) -> (&'static str, usize, usize) {
        let done = polls.iter().filter(|(s, _, _, _)| *s == "done").count();
        let failed = polls.iter().filter(|(s, _, _, _)| *s == "failed").count();
        let settled = self.materialized.load(Ordering::Acquire) && done + failed == polls.len();
        let state = if !settled {
            "running"
        } else if failed == 0 {
            "done"
        } else if done == 0 {
            "failed"
        } else {
            "partial"
        };
        (state, done, failed)
    }

    /// The plan's lifecycle name as [`status_body`](Self::status_body)
    /// reports it, for `GET /v1/matrix` without building full bodies.
    pub fn state_name(&self) -> &'static str {
        let polls: Vec<CellPoll> = self.cells().iter().map(|c| c.poll()).collect();
        self.state_of(&polls).0
    }

    /// The `GET /v1/matrix` row of this plan in `state`.
    pub(crate) fn row(&self, state: &'static str) -> SweepRow {
        SweepRow {
            id: self.id,
            state,
            created_at: self.created_at,
            tenant: self.tenant.clone(),
            priority: self.priority,
            mode: self.mode(),
            planned: self.total() as u64,
        }
    }

    fn mode(&self) -> &'static str {
        if self.adaptive {
            "adaptive"
        } else {
            "full"
        }
    }

    /// Builds the encoded [`SweepStatus`] of `GET /v1/matrix/:id`. Failed
    /// cells carry an [`ErrorObject`] with a stable code; a sweep with
    /// failures still completes rather than hanging its pollers. The
    /// settled body is built once and kept.
    pub fn status_body(&self) -> Arc<Vec<u8>> {
        if let Some(body) = self.final_body.lock().expect("sweep lock").clone() {
            return body;
        }
        let cells = self.cells();
        let polls: Vec<CellPoll> = cells.iter().map(|c| c.poll()).collect();
        let (state, done, failed) = self.state_of(&polls);
        let skipped = self.skipped_from_store.load(Ordering::Acquire);
        // Aggregate the execution profiles of every cell that actually ran
        // (cache hits carry none). Omitted entirely when nothing ran.
        let mut profile: Option<JobProfile> = None;
        for prof in polls.iter().filter_map(|(_, _, _, prof)| prof.as_ref()) {
            profile.get_or_insert_with(JobProfile::default).merge(prof);
        }
        let mut status = SweepStatus {
            id: self.id,
            state: state.to_owned(),
            created_at: self.created_at,
            tenant: self.tenant.clone(),
            priority: self.priority,
            mode: self.mode().to_owned(),
            total: cells.len() as u64,
            planned: cells.len() as u64,
            skipped_from_store: skipped,
            remote_done: self.remote_done.load(Ordering::Acquire),
            simulated: (done as u64).saturating_sub(skipped),
            done: done as u64,
            failed: failed as u64,
            frontier: self.frontier.lock().expect("sweep lock").clone(),
            profile: profile.map(|p| p.to_json()),
            cells: cells
                .iter()
                .zip(&polls)
                .map(|(cell, (state, _, err, _))| CellStatus {
                    workload: cell.meta.workload.clone(),
                    label: cell.meta.label.clone(),
                    seed: cell.meta.seed,
                    key: api::format_key(cell.meta.key_hash),
                    state: (*state).to_owned(),
                    error: err.as_ref().map(ErrorObject::of_failure),
                })
                .collect(),
            aggregate_error: None,
            report: None,
        };
        if state == "running" {
            return Arc::new(status.to_json_string().into_bytes());
        }

        // Every cell settled: aggregate the successful ones. Decode the
        // canonical payloads back into reports; re-encoding is
        // byte-identical (canonical JSON, bit-exact f64 round-trips), so
        // served cells equal offline `run_matrix` output.
        let mut report_cells = Vec::with_capacity(done);
        for (cell, (_, payload, _, _)) in cells.iter().zip(&polls) {
            let Some(payload) = payload.as_ref() else {
                continue;
            };
            match SimReport::from_json_str(payload) {
                Ok(report) => report_cells.push(SweepCellReport {
                    workload: cell.meta.workload.clone(),
                    label: cell.meta.label.clone(),
                    seed: cell.meta.seed,
                    report,
                }),
                Err(e) => {
                    // Undecodable payload (should be impossible): report
                    // the sweep as failed rather than panicking a handler.
                    status.aggregate_error = Some(format!("cell {} payload: {e}", cell.meta.label));
                    return Arc::new(status.to_json_string().into_bytes());
                }
            }
        }
        if !report_cells.is_empty() {
            status.report = Some(SweepReport::from_cells(report_cells));
        }
        let body = Arc::new(status.to_json_string().into_bytes());
        *self.final_body.lock().expect("sweep lock") = Some(Arc::clone(&body));
        body
    }
}

struct TableInner {
    sweeps: HashMap<u64, Arc<Sweep>>,
    order: Vec<u64>,
    next_id: u64,
}

/// The server's sweep registry; retains the most recent `retain` sweeps.
pub struct SweepTable {
    inner: Mutex<TableInner>,
    retain: usize,
}

impl SweepTable {
    /// Creates a table retaining at most `retain` sweeps.
    pub fn new(retain: usize) -> SweepTable {
        SweepTable {
            inner: Mutex::new(TableInner {
                sweeps: HashMap::new(),
                order: Vec::new(),
                next_id: 1,
            }),
            retain: retain.max(1),
        }
    }

    /// Registers a new plan. The caller materializes cells with
    /// [`Sweep::push_cells`] and resolves them; full-mode plans should
    /// then [`Sweep::mark_materialized`] immediately.
    pub fn create(&self, opts: PlanOptions) -> Arc<Sweep> {
        let mut t = self.inner.lock().expect("sweep table lock");
        let id = t.next_id;
        t.next_id += 1;
        let sweep = Arc::new(Sweep::new(id, opts));
        t.sweeps.insert(id, Arc::clone(&sweep));
        t.order.push(id);
        while t.order.len() > self.retain {
            let old = t.order.remove(0);
            t.sweeps.remove(&old);
        }
        sweep
    }

    /// Looks up a sweep by id.
    pub fn get(&self, id: u64) -> Option<Arc<Sweep>> {
        self.inner
            .lock()
            .expect("sweep table lock")
            .sweeps
            .get(&id)
            .map(Arc::clone)
    }

    /// Every retained sweep, ascending by id — the `GET /v1/matrix`
    /// listing; state filtering is the handler's.
    pub fn list(&self) -> Vec<Arc<Sweep>> {
        let t = self.inner.lock().expect("sweep table lock");
        let mut sweeps: Vec<Arc<Sweep>> = t.sweeps.values().map(Arc::clone).collect();
        sweeps.sort_by_key(|s| s.id);
        sweeps
    }
}

/// The validated axes of a matrix request, able to expand the full cross
/// or a single-capacity wave with labels identical to the full cross.
pub struct PlanAxes {
    workloads: Vec<String>,
    capacities: Vec<usize>,
    /// The full cross's labeled configurations, capacity-major (the
    /// order [`MatrixCross::expand`] produces).
    configs: Vec<LabeledConfig>,
    policies_per_capacity: usize,
    seed: Option<u64>,
    warmup: Option<u64>,
    insts: Option<u64>,
}

impl PlanAxes {
    /// Validates a [`MatrixRequest`]'s axes, resolving defaults (Table I
    /// capacities, baseline policy).
    ///
    /// # Errors
    ///
    /// Returns the envelope error code and message for invalid axes.
    pub fn resolve(
        req: &MatrixRequest,
        test_workloads: bool,
    ) -> Result<PlanAxes, (ErrorCode, String)> {
        if req.workloads.is_empty() {
            return Err((
                ErrorCode::BadRequest,
                "workloads must name at least one workload".to_owned(),
            ));
        }
        for w in &req.workloads {
            match WorkloadRef::parse(w) {
                // Profile names must be in Table II here; uploaded-program
                // refs pass through — the server resolves them against its
                // registry (with a peer fetch) before accepting the plan.
                Ok(WorkloadRef::Profile(_)) if !api::workload_known(w, test_workloads) => {
                    return Err((ErrorCode::UnknownWorkload, format!("unknown workload: {w}")));
                }
                Ok(_) => {}
                Err(e) => return Err((ErrorCode::BadRequest, format!("workload {w:?}: {e}"))),
            }
        }
        let capacities: Vec<usize> = match &req.capacities {
            Some(caps) if caps.is_empty() => {
                return Err((
                    ErrorCode::BadRequest,
                    "capacities must not be empty".to_owned(),
                ))
            }
            Some(caps) => caps.iter().map(|&c| c as usize).collect(),
            None => MatrixCross::table1_capacities(),
        };
        let policies: Vec<SweepPolicy> = match &req.policies {
            Some(names) if names.is_empty() => {
                return Err((
                    ErrorCode::BadRequest,
                    "policies must not be empty".to_owned(),
                ))
            }
            Some(names) => names
                .iter()
                .map(|n| {
                    SweepPolicy::parse(n)
                        .ok_or_else(|| (ErrorCode::BadRequest, format!("unknown policy: {n}")))
                })
                .collect::<Result<_, _>>()?,
            None => vec![SweepPolicy::Baseline],
        };
        let cross = MatrixCross {
            capacities,
            policies,
            max_entries: req.max_entries.unwrap_or(2),
        };
        let total = req.workloads.len() * cross.len();
        if total > MAX_SWEEP_CELLS {
            return Err((
                ErrorCode::BadRequest,
                format!("sweep would expand to {total} cells (max {MAX_SWEEP_CELLS})"),
            ));
        }
        let policies_per_capacity = cross.policies.len();
        let capacities = cross.capacities.clone();
        let configs = cross.try_expand().map_err(|e| (ErrorCode::BadRequest, e))?;
        let axes = PlanAxes {
            workloads: req.workloads.clone(),
            capacities,
            configs,
            policies_per_capacity,
            seed: req.seed,
            warmup: req.warmup,
            insts: req.insts,
        };
        for lc in &axes.configs {
            api::check_config(&axes.cell_config(lc))
                .map_err(|e| (ErrorCode::BadRequest, format!("{}: {e}", lc.label)))?;
        }
        Ok(axes)
    }

    /// The capacity axis, ascending request order (uops).
    pub fn capacities(&self) -> &[usize] {
        &self.capacities
    }

    /// A cell's configuration: `lc` with the plan's run lengths.
    fn cell_config(&self, lc: &LabeledConfig) -> SimConfig {
        let mut config = lc.config.clone();
        if let Some(w) = self.warmup {
            config.warmup_insts = w;
        }
        if let Some(n) = self.insts {
            config.measure_insts = n;
        }
        config
    }

    fn build_meta(&self, workload: &str, lc: &LabeledConfig) -> CellMeta {
        let seed = self.seed.unwrap_or_else(|| api::default_seed(workload));
        let spec = JobSpec {
            workload: workload.to_owned(),
            seed,
            config: self.cell_config(lc),
        };
        let canonical = spec.canonical();
        let key_hash = api::content_hash(&canonical);
        // Uploaded-program cells carry the ref's short hash in the label
        // (`prog-1a2b3c4d:OC_2K:CLASP`), so two programs swept in one plan
        // stay distinguishable in `GET /v1/matrix/:id` and in Prometheus
        // label values. Profile cells keep the bare cross label.
        let label = match WorkloadRef::parse(workload) {
            Ok(r @ (WorkloadRef::Program(_) | WorkloadRef::Trace(_))) => {
                format!("{}:{}", r.short_label(), lc.label)
            }
            _ => lc.label.clone(),
        };
        CellMeta {
            workload: workload.to_owned(),
            label,
            seed,
            spec,
            canonical,
            key_hash,
        }
    }

    /// Expands the full cross: workload-major, then the capacity × policy
    /// cross in [`MatrixCross::expand`] order — the exact cell order
    /// `run_matrix` produces offline.
    pub fn full_metas(&self) -> Vec<CellMeta> {
        let mut metas = Vec::with_capacity(self.workloads.len() * self.configs.len());
        for workload in &self.workloads {
            for lc in &self.configs {
                metas.push(self.build_meta(workload, lc));
            }
        }
        metas
    }

    /// Expands one capacity *wave*: every workload × policy at capacity
    /// index `cap_idx`, with the same labels (and therefore the same
    /// content addresses) those cells have in [`full_metas`](Self::full_metas).
    pub fn capacity_metas(&self, cap_idx: usize) -> Vec<CellMeta> {
        let start = cap_idx * self.policies_per_capacity;
        let slice = &self.configs[start..start + self.policies_per_capacity];
        let mut metas = Vec::with_capacity(self.workloads.len() * slice.len());
        for workload in &self.workloads {
            for lc in slice {
                metas.push(self.build_meta(workload, lc));
            }
        }
        metas
    }
}

/// Expands a [`MatrixRequest`] into the full cross's per-cell metas (see
/// [`PlanAxes::full_metas`]).
///
/// # Errors
///
/// Returns the envelope error code and message for invalid axes.
pub fn expand_request(
    req: &MatrixRequest,
    test_workloads: bool,
) -> Result<Vec<CellMeta>, (ErrorCode, String)> {
    Ok(PlanAxes::resolve(req, test_workloads)?.full_metas())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> MatrixRequest {
        MatrixRequest::parse(body).unwrap()
    }

    /// Creates a full-mode plan over `metas` the way the POST handler
    /// does: push, resolve nothing (tests fulfill/fail directly), seal.
    fn create_full(table: &SweepTable, metas: Vec<CellMeta>) -> Arc<Sweep> {
        let sweep = table.create(PlanOptions::default());
        sweep.push_cells(metas);
        sweep.mark_materialized();
        sweep
    }

    #[test]
    fn expansion_is_workload_major_and_content_addressed() {
        let req = parse(
            r#"{"workloads":["redis","bm-cc"],"capacities":[2048,4096],"policies":["baseline","clasp"],"warmup":100,"insts":2000}"#,
        );
        let metas = expand_request(&req, false).unwrap();
        assert_eq!(metas.len(), 8);
        assert_eq!(metas[0].workload, "redis");
        assert_eq!(metas[0].label, "OC_2K:baseline");
        assert_eq!(metas[1].label, "OC_2K:CLASP");
        assert_eq!(metas[4].workload, "bm-cc");
        // Every cell gets a distinct content address, and run lengths fold
        // into the spec.
        let mut keys: Vec<u64> = metas.iter().map(|m| m.key_hash).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 8);
        assert_eq!(metas[0].spec.config.warmup_insts, 100);
        assert_eq!(metas[0].spec.config.measure_insts, 2000);
    }

    #[test]
    fn program_ref_cells_expand_with_hash_prefixed_labels() {
        // Refs pass axis validation without being Table II names, default
        // their seed to the content hash, and prefix the cell label with
        // the ref's short hash so two programs in one plan stay distinct.
        let req = parse(
            r#"{"workloads":[{"program":"1a2b3c4d000000ab"},"redis"],"capacities":[2048],"policies":["baseline","clasp"]}"#,
        );
        let metas = expand_request(&req, false).unwrap();
        assert_eq!(metas.len(), 4);
        assert_eq!(metas[0].workload, "program:1a2b3c4d000000ab");
        assert_eq!(metas[0].label, "prog-1a2b3c4d:baseline");
        assert_eq!(metas[1].label, "prog-1a2b3c4d:CLASP");
        assert_eq!(metas[0].seed, 0x1a2b_3c4d_0000_00ab);
        // Profile cells keep the bare cross label — pinned elsewhere.
        assert_eq!(metas[2].label, "baseline");

        // Trace refs too; malformed refs are bad requests at parse time.
        let req = parse(r#"{"workloads":["trace:5e6f7089000000cd"],"capacities":[2048,4096]}"#);
        let metas = expand_request(&req, false).unwrap();
        assert_eq!(metas[0].label, "trace-5e6f7089:OC_2K");
        assert_eq!(metas[0].seed, 0);
        assert!(MatrixRequest::parse(r#"{"workloads":["program:zz"]}"#).is_err());
    }

    #[test]
    fn capacity_waves_match_the_full_cross_cell_for_cell() {
        let req = parse(
            r#"{"workloads":["redis","bm-cc"],"capacities":[2048,4096,8192],"policies":["baseline","clasp"]}"#,
        );
        let axes = PlanAxes::resolve(&req, false).unwrap();
        let full = axes.full_metas();
        // Wave k must reproduce exactly the full-cross cells at capacity
        // k — same labels, same content addresses — so adaptive plans
        // stay byte-identical to full ones on every cell they simulate.
        for (k, _) in axes.capacities().iter().enumerate() {
            let wave = axes.capacity_metas(k);
            assert_eq!(wave.len(), 4); // 2 workloads × 2 policies
            for m in &wave {
                let twin = full
                    .iter()
                    .find(|f| f.key_hash == m.key_hash)
                    .unwrap_or_else(|| panic!("wave cell {} missing from full cross", m.label));
                assert_eq!(twin.label, m.label);
                assert_eq!(twin.canonical, m.canonical);
            }
        }
    }

    #[test]
    fn cells_of_one_workload_share_a_trace_key() {
        let req = parse(
            r#"{"workloads":["redis","bm-cc"],"capacities":[2048,4096],"policies":["baseline","clasp"],"warmup":100,"insts":2000}"#,
        );
        let metas = expand_request(&req, false).unwrap();
        // All four redis cells replay one recording; bm-cc records its own.
        let k0 = metas[0].trace_key();
        assert!(metas[..4].iter().all(|m| m.trace_key() == k0));
        assert_ne!(metas[4].trace_key(), k0);
        assert_eq!(k0.insts, 2100);
        // ...even though every cell has a distinct content address.
        assert_ne!(metas[0].key_hash, metas[1].key_hash);
    }

    #[test]
    fn default_axes_are_table1_capacities_and_baseline() {
        let req = parse(r#"{"workloads":["redis"]}"#);
        let metas = expand_request(&req, false).unwrap();
        assert_eq!(metas.len(), 6);
        assert_eq!(metas[0].label, "OC_2K");
        assert_eq!(metas[5].label, "OC_64K");
    }

    #[test]
    fn invalid_axes_map_to_envelope_codes() {
        let e = expand_request(&parse(r#"{"workloads":["nope"]}"#), false).unwrap_err();
        assert_eq!(e.0, ErrorCode::UnknownWorkload);
        let e = expand_request(&parse(r#"{"workloads":[]}"#), false).unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
        let e = expand_request(
            &parse(r#"{"workloads":["redis"],"policies":["zap"]}"#),
            false,
        )
        .unwrap_err();
        assert_eq!(e.0, ErrorCode::BadRequest);
        // Test workloads only expand when enabled.
        assert!(expand_request(&parse(r#"{"workloads":["test-sleep:5"]}"#), true).is_ok());
        assert!(expand_request(&parse(r#"{"workloads":["test-sleep:5"]}"#), false).is_err());
    }

    #[test]
    fn run_lengths_and_oversized_axes_are_bad_requests() {
        for body in [
            r#"{"workloads":["redis"],"warmup":8000000,"insts":1}"#,
            r#"{"workloads":["redis"],"warmup":18446744073709551615,"insts":1}"#,
            r#"{"workloads":["redis"],"capacities":[1099511627776]}"#,
            r#"{"workloads":["redis"],"policies":["rac"],"max_entries":300}"#,
        ] {
            let e = expand_request(&parse(body), false).unwrap_err();
            assert_eq!(e.0, ErrorCode::BadRequest, "{body}: {}", e.1);
        }
        let at_cap = parse(r#"{"workloads":["redis"],"warmup":0,"insts":8000000}"#);
        assert!(expand_request(&at_cap, false).is_ok());
    }

    #[test]
    fn sweep_tracks_progress_to_done() {
        let req = parse(r#"{"workloads":["redis"],"capacities":[2048],"policies":["baseline"]}"#);
        let metas = expand_request(&req, false).unwrap();
        let table = SweepTable::new(8);
        let sweep = table.create(PlanOptions::default());
        sweep.push_cells(metas);
        sweep.mark_materialized();
        assert_eq!(sweep.total(), 1);
        let cell_meta = sweep.cells()[0].meta.clone();
        let jobs = crate::jobs::JobTable::new(4);
        let crate::jobs::Submit::<()>::New(job) = jobs.submit(cell_meta.key_hash, |_| Ok(()))
        else {
            panic!()
        };
        sweep.attach(0, Arc::clone(&job));
        let body = String::from_utf8(sweep.status_body().to_vec()).unwrap();
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("running"));
        assert!(body.contains("\"state\":\"queued\""), "{body}");
        // v1.1: the pre-unification aliases are gone for good.
        assert!(v.get("status").is_none(), "status alias removed in v1.1");
        assert!(!body.contains("\"pending\""), "{body}");

        // Settle the cell through its job, as a worker would: complete
        // it with the report payload.
        let report = SimReport {
            workload: "redis".to_owned(),
            upc: 2.5,
            ..SimReport::default()
        };
        assert!(job.complete(Arc::new(report.to_json_string())));
        let body = String::from_utf8(sweep.status_body().to_vec()).unwrap();
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("done"));
        assert!(v.get("status").is_none() && v.get("sweep").is_none());
        let agg = v.get("report").unwrap();
        assert_eq!(agg.get("geomean_upc").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("created_at").unwrap().as_u64().is_some());
        // Plan counters: one cell, simulated-not-skipped.
        assert_eq!(v.get("planned").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("skipped_from_store").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("simulated").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("default"));
        assert_eq!(v.get("priority").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("mode").unwrap().as_str(), Some("full"));
        // The memoized final body is stable.
        assert_eq!(sweep.status_body().as_slice(), body.as_bytes());
        assert_eq!(table.get(sweep.id).unwrap().id, sweep.id);
        assert!(table.get(999).is_none());
    }

    #[test]
    fn store_resolved_cells_count_as_skipped_not_simulated() {
        let req = parse(r#"{"workloads":["redis"],"capacities":[2048,4096]}"#);
        let metas = expand_request(&req, false).unwrap();
        let sweep = create_full(&SweepTable::new(8), metas);
        let report = SimReport {
            workload: "redis".to_owned(),
            upc: 2.5,
            ..SimReport::default()
        };
        sweep.fulfill_from_store(0, Arc::new(report.to_json_string()));
        sweep.fulfill(1, Arc::new(report.to_json_string()));
        let v = Json::parse(core::str::from_utf8(&sweep.status_body()).unwrap()).unwrap();
        assert_eq!(v.get("planned").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("skipped_from_store").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("simulated").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("state").unwrap().as_str(), Some("done"));
    }

    #[test]
    fn an_all_failed_sweep_reports_failed_with_stable_codes() {
        let req = parse(r#"{"workloads":["redis"],"capacities":[2048]}"#);
        let metas = expand_request(&req, false).unwrap();
        let sweep = create_full(&SweepTable::new(8), metas);
        sweep.fail(
            0,
            JobFailure::new(ucsim_model::FailureKind::SimulationFailed, "boom"),
        );
        let body = String::from_utf8(sweep.status_body().to_vec()).unwrap();
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("failed"));
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(1));
        assert!(v.get("report").is_none());
        let cell = &v.get("cells").unwrap().as_arr().unwrap()[0];
        let err = cell.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("simulation_failed"));
        assert_eq!(err.get("message").unwrap().as_str(), Some("boom"));
        // The settled body is memoized even without an aggregate.
        assert_eq!(sweep.status_body().as_slice(), body.as_bytes());
    }

    #[test]
    fn a_mixed_sweep_is_partial_and_aggregates_the_survivors() {
        let req = parse(r#"{"workloads":["redis"],"capacities":[2048,4096]}"#);
        let metas = expand_request(&req, false).unwrap();
        let sweep = create_full(&SweepTable::new(8), metas);
        let report = SimReport {
            workload: "redis".to_owned(),
            upc: 2.5,
            ..SimReport::default()
        };
        sweep.fulfill(0, Arc::new(report.to_json_string()));
        sweep.fail(
            1,
            JobFailure::new(ucsim_model::FailureKind::DeadlineExceeded, "too slow"),
        );
        let body = String::from_utf8(sweep.status_body().to_vec()).unwrap();
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("partial"));
        assert_eq!(v.get("done").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(1));
        // The aggregate covers only the surviving cell.
        let agg = v.get("report").unwrap();
        assert_eq!(agg.get("geomean_upc").unwrap().as_arr().unwrap().len(), 1);
        let cells = v.get("cells").unwrap().as_arr().unwrap();
        let err = cells[1].get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("deadline_exceeded"));
        // Settled bodies memoize.
        assert_eq!(sweep.status_body().as_slice(), body.as_bytes());
    }

    #[test]
    fn cancel_fails_unsettled_cells_and_flips_their_tokens() {
        let req = parse(r#"{"workloads":["redis"],"capacities":[2048,4096]}"#);
        let metas = expand_request(&req, false).unwrap();
        let sweep = create_full(&SweepTable::new(8), metas);
        let jobs = crate::jobs::JobTable::new(8);
        let report = SimReport {
            workload: "redis".to_owned(),
            upc: 2.5,
            ..SimReport::default()
        };
        // Cell 0 already done; cell 1 still riding a queued job.
        sweep.fulfill(0, Arc::new(report.to_json_string()));
        let key = sweep.cells()[1].meta.key_hash;
        let crate::jobs::Submit::<()>::New(job) = jobs.submit(key, |_| Ok(())) else {
            panic!()
        };
        sweep.attach(1, Arc::clone(&job));

        let flipped = sweep.cancel();
        assert!(sweep.is_cancelled());
        assert_eq!(flipped.len(), 1);
        assert!(job.cancel_token().is_cancelled());
        let v = Json::parse(core::str::from_utf8(&sweep.status_body()).unwrap()).unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("partial"));
        let cells = v.get("cells").unwrap().as_arr().unwrap();
        let err = cells[1].get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("cancelled"));
        // Idempotent: a second cancel flips nothing new.
        assert!(sweep.cancel().is_empty());
    }

    #[test]
    fn frontier_renders_in_the_status_body() {
        let req = parse(r#"{"workloads":["redis"],"capacities":[2048,4096]}"#);
        let metas = expand_request(&req, false).unwrap();
        let table = SweepTable::new(8);
        let sweep = table.create(PlanOptions {
            tenant: "team-a".to_owned(),
            priority: 2,
            adaptive: true,
        });
        sweep.push_cells(metas);
        sweep.set_frontier(Frontier {
            axis: "capacity".to_owned(),
            tolerance: 0.05,
            capacities: vec![2048, 4096],
            probed: vec![2048, 4096],
            bracket: Some((2048, 4096)),
            knee: Some(4096),
        });
        let v = Json::parse(core::str::from_utf8(&sweep.status_body()).unwrap()).unwrap();
        assert_eq!(v.get("mode").unwrap().as_str(), Some("adaptive"));
        assert_eq!(v.get("state").unwrap().as_str(), Some("running"));
        let f = v.get("frontier").unwrap();
        assert_eq!(f.get("axis").unwrap().as_str(), Some("capacity"));
        assert_eq!(f.get("knee").unwrap().as_u64(), Some(4096));
        assert_eq!(f.get("bracket").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("team-a"));
        assert_eq!(v.get("priority").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn an_unmaterialized_plan_never_reports_settled() {
        // An adaptive plan whose present cells have all settled is still
        // "running" until the driver seals it — more waves may come.
        let req = parse(r#"{"workloads":["redis"],"capacities":[2048]}"#);
        let metas = expand_request(&req, false).unwrap();
        let sweep = SweepTable::new(8).create(PlanOptions {
            adaptive: true,
            ..PlanOptions::default()
        });
        sweep.push_cells(metas);
        let report = SimReport {
            workload: "redis".to_owned(),
            upc: 1.0,
            ..SimReport::default()
        };
        sweep.fulfill(0, Arc::new(report.to_json_string()));
        assert_eq!(sweep.state_name(), "running");
        sweep.mark_materialized();
        assert_eq!(sweep.state_name(), "done");
    }

    #[test]
    fn list_returns_sweeps_in_id_order() {
        let table = SweepTable::new(8);
        let a = table.create(PlanOptions::default());
        let b = table.create(PlanOptions::default());
        let ids: Vec<u64> = table.list().iter().map(|s| s.id).collect();
        assert_eq!(ids, [a.id, b.id]);
    }

    #[test]
    fn retention_prunes_oldest_sweeps() {
        let table = SweepTable::new(2);
        let req = parse(r#"{"workloads":["redis"],"capacities":[2048]}"#);
        let ids: Vec<u64> = (0..3)
            .map(|_| create_full(&table, expand_request(&req, false).unwrap()).id)
            .collect();
        assert!(table.get(ids[0]).is_none());
        assert!(table.get(ids[1]).is_some());
        assert!(table.get(ids[2]).is_some());
    }
}
