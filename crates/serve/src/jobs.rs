//! Job lifecycle: identifiers, states, completion wake-ups, and
//! same-key coalescing.
//!
//! The table answers two questions: "what happened to job N?" (polling
//! via `GET /v1/jobs/:id`) and "is a job for this content key already in
//! flight?" (request coalescing — N concurrent identical submissions run
//! one simulation, and the N−1 joiners wait on the same [`JobCell`]).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

use ucsim_model::{CancelToken, FailureKind};

/// Job identifier, monotonically assigned per server.
pub type JobId = u64;

/// A terminal failure: the stable [`FailureKind`] code plus a
/// human-readable message (e.g. the captured panic payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Why the job failed (the wire `code`).
    pub kind: FailureKind,
    /// Human-readable detail.
    pub message: String,
    /// Correlation id of the request that submitted the job, when known.
    /// Carried into the failure envelope so a client can tie a failed
    /// job back to its originating request.
    pub request_id: Option<String>,
}

impl JobFailure {
    /// Convenience constructor (no request id).
    pub fn new(kind: FailureKind, message: impl Into<String>) -> Self {
        JobFailure {
            kind,
            message: message.into(),
            request_id: None,
        }
    }

    /// Attaches the originating request's correlation id.
    #[must_use]
    pub fn with_request_id(mut self, id: impl Into<String>) -> Self {
        self.request_id = Some(id.into());
        self
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Accepted, waiting in the bounded queue.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished; holds the bare report payload. Handlers render the
    /// response envelope around it when they answer.
    Done(Arc<String>),
    /// Failed; holds the stable error code and message.
    Failed(JobFailure),
}

impl JobState {
    /// Wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Shared completion cell for one job: every thread interested in the
/// result (the submitting connection, coalesced joiners, pollers) holds
/// an `Arc` to the same cell.
pub struct JobCell {
    /// The job's id.
    pub id: JobId,
    /// Content hash of the job's canonical spec.
    pub key_hash: u64,
    /// Unix timestamp (seconds) when the job was accepted.
    pub created_at: u64,
    state: Mutex<JobState>,
    /// Per-job execution profile (stage-time histogram + counter
    /// deltas), set by the worker that ran the simulation. `None` for
    /// cache hits and jobs that never executed.
    profile: Mutex<Option<Arc<ucsim_obs::JobProfile>>>,
    /// Cooperative cancellation flag for this job. The worker polls it
    /// mid-simulation, the scheduler drops still-queued entries whose
    /// flag is set, and `DELETE /v1/jobs/:id` flips it.
    cancel: CancelToken,
    done: Condvar,
}

impl JobCell {
    fn new(id: JobId, key_hash: u64) -> Self {
        let created_at = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        JobCell {
            id,
            key_hash,
            created_at,
            state: Mutex::new(JobState::Queued),
            profile: Mutex::new(None),
            cancel: CancelToken::new(),
            done: Condvar::new(),
        }
    }

    /// The job's cancellation token (cloning shares the flag).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Attaches the per-job execution profile (worker side).
    pub fn set_profile(&self, profile: Arc<ucsim_obs::JobProfile>) {
        *self.profile.lock().expect("job lock") = Some(profile);
    }

    /// The per-job execution profile, if the job actually executed under
    /// profiling.
    pub fn profile(&self) -> Option<Arc<ucsim_obs::JobProfile>> {
        self.profile.lock().expect("job lock").clone()
    }

    /// Current state snapshot.
    pub fn state(&self) -> JobState {
        self.state.lock().expect("job lock").clone()
    }

    /// Marks the job running.
    pub fn set_running(&self) {
        *self.state.lock().expect("job lock") = JobState::Running;
    }

    /// Completes the job with its report payload and wakes waiters.
    ///
    /// First-wins: if the job already settled (e.g. a deadline fired it
    /// into `Failed` while the worker was finishing anyway), the terminal
    /// state is kept and this returns `false`.
    pub fn complete(&self, payload: Arc<String>) -> bool {
        let mut st = self.state.lock().expect("job lock");
        if matches!(*st, JobState::Done(_) | JobState::Failed(_)) {
            return false;
        }
        *st = JobState::Done(payload);
        drop(st);
        self.done.notify_all();
        true
    }

    /// Fails the job and wakes waiters. First-wins like
    /// [`complete`](Self::complete): returns `false` if the job already
    /// settled (the watchdog and a panicking worker can race; exactly one
    /// terminal state survives).
    pub fn fail(&self, failure: JobFailure) -> bool {
        let mut st = self.state.lock().expect("job lock");
        if matches!(*st, JobState::Done(_) | JobState::Failed(_)) {
            return false;
        }
        *st = JobState::Failed(failure);
        drop(st);
        self.done.notify_all();
        true
    }

    /// True once the job reached `Done` or `Failed`.
    pub fn settled(&self) -> bool {
        matches!(
            *self.state.lock().expect("job lock"),
            JobState::Done(_) | JobState::Failed(_)
        )
    }

    /// Blocks until the job is done or failed, returning its report
    /// payload.
    ///
    /// # Errors
    ///
    /// Returns the failure (stable code + message) if the job failed.
    pub fn wait(&self) -> Result<Arc<String>, JobFailure> {
        let mut st = self.state.lock().expect("job lock");
        loop {
            match &*st {
                JobState::Done(b) => return Ok(Arc::clone(b)),
                JobState::Failed(e) => return Err(e.clone()),
                _ => st = self.done.wait(st).expect("job lock"),
            }
        }
    }
}

/// Result of submitting a content key to the table.
pub enum Submit<E> {
    /// No job with this key was in flight; the push accepted this fresh
    /// cell, and it is now joinable.
    New(Arc<JobCell>),
    /// A job with the same key is already queued/running; the caller
    /// should wait on the returned cell instead of enqueueing.
    Joined(Arc<JobCell>),
    /// The push refused the fresh cell; it never became visible.
    Refused(E),
}

struct TableInner {
    jobs: HashMap<JobId, Arc<JobCell>>,
    /// Completed job ids in completion order, for pruning.
    finished_order: VecDeque<JobId>,
    /// key hash → in-flight (queued or running) job id.
    inflight: HashMap<u64, JobId>,
    next_id: JobId,
}

/// The server's job registry. Retains the most recent completed jobs for
/// polling; prunes beyond `retain`.
pub struct JobTable {
    inner: Mutex<TableInner>,
    retain: usize,
}

impl JobTable {
    /// Creates a table retaining at most `retain` finished jobs.
    pub fn new(retain: usize) -> Self {
        JobTable {
            inner: Mutex::new(TableInner {
                jobs: HashMap::new(),
                finished_order: VecDeque::new(),
                inflight: HashMap::new(),
                next_id: 1,
            }),
            retain: retain.max(1),
        }
    }

    /// Registers interest in `key_hash`: returns the in-flight job for
    /// it ([`Submit::Joined`]), or creates one and hands it to `push`.
    /// `push` runs under the table lock, and the fresh cell is
    /// registered — pollable and joinable — only when it returns `Ok`
    /// ([`Submit::New`]); an `Err` leaves no trace ([`Submit::Refused`]).
    /// So no request can join a job that never reached the queue.
    pub fn submit<E>(
        &self,
        key_hash: u64,
        push: impl FnOnce(&Arc<JobCell>) -> Result<(), E>,
    ) -> Submit<E> {
        let mut t = self.inner.lock().expect("job table lock");
        if let Some(&id) = t.inflight.get(&key_hash) {
            if let Some(cell) = t.jobs.get(&id) {
                return Submit::Joined(Arc::clone(cell));
            }
        }
        let id = t.next_id;
        t.next_id += 1;
        let cell = Arc::new(JobCell::new(id, key_hash));
        if let Err(e) = push(&cell) {
            return Submit::Refused(e);
        }
        t.jobs.insert(id, Arc::clone(&cell));
        t.inflight.insert(key_hash, id);
        Submit::New(cell)
    }

    /// Marks a job's key no longer in flight (worker finished it, in
    /// success or failure, or a client cancelled it) and prunes old
    /// finished jobs. Only the call that releases the key counts the job
    /// as finished, so a job finished twice is retained once.
    pub fn finish(&self, cell: &JobCell) {
        let mut t = self.inner.lock().expect("job table lock");
        if t.inflight.get(&cell.key_hash) != Some(&cell.id) {
            return;
        }
        t.inflight.remove(&cell.key_hash);
        t.finished_order.push_back(cell.id);
        while t.finished_order.len() > self.retain {
            if let Some(old) = t.finished_order.pop_front() {
                t.jobs.remove(&old);
            }
        }
    }

    /// Looks up a job by id.
    pub fn get(&self, id: JobId) -> Option<Arc<JobCell>> {
        self.inner
            .lock()
            .expect("job table lock")
            .jobs
            .get(&id)
            .map(Arc::clone)
    }

    /// Every registered job (in flight + retained), ascending by id —
    /// the `GET /v1/jobs` listing; state filtering is the handler's.
    pub fn snapshot(&self) -> Vec<Arc<JobCell>> {
        let t = self.inner.lock().expect("job table lock");
        let mut cells: Vec<Arc<JobCell>> = t.jobs.values().map(Arc::clone).collect();
        cells.sort_by_key(|c| c.id);
        cells
    }

    /// Number of jobs currently registered (in flight + retained).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("job table lock").jobs.len()
    }

    /// True when no jobs are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Submits `key` with a push that always accepts.
    fn submit(t: &JobTable, key: u64) -> Submit<()> {
        t.submit(key, |_| Ok(()))
    }

    /// Creates a fresh job for `key`.
    fn new_job(t: &JobTable, key: u64) -> Arc<JobCell> {
        match submit(t, key) {
            Submit::New(c) => c,
            _ => panic!("key {key} must be new"),
        }
    }

    fn done(payload: &str) -> Arc<String> {
        Arc::new(payload.to_owned())
    }

    #[test]
    fn second_submit_of_same_key_joins() {
        let t = JobTable::new(16);
        let a = new_job(&t, 42);
        let Submit::Joined(b) = submit(&t, 42) else {
            panic!("second submit must join")
        };
        assert_eq!(a.id, b.id);
        // A different key is a new job.
        assert!(matches!(submit(&t, 43), Submit::New(_)));
    }

    #[test]
    fn finish_releases_the_key() {
        let t = JobTable::new(16);
        let a = new_job(&t, 42);
        a.complete(done("r"));
        t.finish(&a);
        assert!(matches!(submit(&t, 42), Submit::New(_)));
        // The finished job remains pollable.
        assert!(matches!(t.get(a.id).unwrap().state(), JobState::Done(_)));
    }

    #[test]
    fn a_refused_push_leaves_no_job() {
        let t = JobTable::new(16);
        let mut pushed = None;
        let refused = t.submit(42, |cell| {
            pushed = Some(cell.id);
            Err("full")
        });
        assert!(matches!(refused, Submit::Refused("full")));
        // The refused cell was never registered: not pollable, not
        // joinable — the next submit creates a fresh job.
        assert!(t.get(pushed.unwrap()).is_none());
        assert!(t.is_empty());
        assert!(matches!(submit(&t, 42), Submit::New(_)));
    }

    #[test]
    fn retention_prunes_oldest_finished() {
        let t = JobTable::new(2);
        let mut ids = Vec::new();
        for key in 0..4u64 {
            let c = new_job(&t, key);
            c.complete(done(""));
            t.finish(&c);
            ids.push(c.id);
        }
        assert!(t.get(ids[0]).is_none());
        assert!(t.get(ids[1]).is_none());
        assert!(t.get(ids[2]).is_some());
        assert!(t.get(ids[3]).is_some());
    }

    #[test]
    fn finishing_a_job_twice_counts_it_once() {
        // A cancelled job is finished by the canceller and again by the
        // worker that was running it; retention must count it once.
        let t = JobTable::new(2);
        let a = new_job(&t, 1);
        t.finish(&a);
        t.finish(&a);
        let b = new_job(&t, 2);
        t.finish(&b);
        assert!(t.get(a.id).is_some(), "two finished jobs fit in retain 2");
        assert!(t.get(b.id).is_some());
    }

    #[test]
    fn snapshot_lists_every_job_in_id_order() {
        let t = JobTable::new(16);
        let a = new_job(&t, 1);
        let b = new_job(&t, 2);
        a.complete(done(""));
        t.finish(&a);
        let ids: Vec<JobId> = t.snapshot().iter().map(|c| c.id).collect();
        assert_eq!(ids, [a.id, b.id]);
    }

    #[test]
    fn cancel_token_is_shared_per_cell() {
        let t = JobTable::new(4);
        let c = new_job(&t, 1);
        let token = c.cancel_token();
        assert!(!token.is_cancelled());
        c.cancel_token().cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn wait_blocks_until_complete() {
        let t = JobTable::new(4);
        let c = new_job(&t, 1);
        let waiter = Arc::clone(&c);
        let h = std::thread::spawn(move || waiter.wait());
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.set_running();
        c.complete(done("body"));
        assert_eq!(h.join().unwrap().unwrap().as_str(), "body");
    }

    #[test]
    fn failure_propagates_to_waiters() {
        let t = JobTable::new(4);
        let c = new_job(&t, 1);
        c.fail(JobFailure::new(FailureKind::SimulationFailed, "boom"));
        let err = c.wait().unwrap_err();
        assert_eq!(err.kind, FailureKind::SimulationFailed);
        assert_eq!(err.message, "boom");
        assert_eq!(c.state().name(), "failed");
    }

    #[test]
    fn terminal_state_is_first_wins() {
        let t = JobTable::new(4);
        let c = new_job(&t, 1);
        // Deadline fires first…
        assert!(c.fail(JobFailure::new(FailureKind::DeadlineExceeded, "late")));
        // …then the worker finishes anyway: the completion is discarded.
        assert!(!c.complete(done("r")));
        assert!(!c.fail(JobFailure::new(FailureKind::SimulationFailed, "again")));
        let err = c.wait().unwrap_err();
        assert_eq!(err.kind, FailureKind::DeadlineExceeded);
        assert!(c.settled());

        // And the mirror image: completion first, failure discarded.
        let d = new_job(&t, 2);
        assert!(d.complete(done("ok")));
        assert!(!d.fail(JobFailure::new(FailureKind::DeadlineExceeded, "late")));
        assert_eq!(d.wait().unwrap().as_str(), "ok");
    }
}
