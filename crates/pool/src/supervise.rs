//! Supervised worker pools: catch panics, fail the job, respawn the
//! worker.
//!
//! A plain worker thread dies with the first panicking job — the pool's
//! capacity silently decays until the service wedges. A
//! [`SupervisedPool`] runs every job under
//! [`std::panic::catch_unwind`]; a panic is reported to the caller's
//! `on_panic` hook (which marks the job failed), then the worker thread
//! *exits* and a supervisor thread spawns a replacement. The
//! let-it-crash discipline — tear down the possibly-wedged thread rather
//! than reuse it — costs one thread spawn per panic and guarantees the
//! pool ends every storm at full strength.
//!
//! The handler borrows its item (`Fn(&T)`) so a panic cannot consume it:
//! `on_panic` receives the same `&T` and can still reach the job cell,
//! progress reporter, or anything else the item carries.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::Scheduler;

/// Shared counters a [`SupervisedPool`] exposes through [`PoolMonitor`].
#[derive(Debug, Default)]
struct Counters {
    /// Worker threads currently alive.
    alive: AtomicUsize,
    /// Replacement workers spawned after panics.
    respawned: AtomicU64,
}

/// A cloneable, read-only view of a [`SupervisedPool`]'s health. Safe to
/// stash in server state and poll from a metrics endpoint; outlives the
/// pool itself (counters freeze at their final values).
#[derive(Debug, Clone)]
pub struct PoolMonitor {
    counters: Arc<Counters>,
}

impl PoolMonitor {
    /// Worker threads currently alive.
    pub fn alive(&self) -> usize {
        self.counters.alive.load(Ordering::Acquire)
    }

    /// Replacement workers spawned after panics.
    pub fn respawned(&self) -> u64 {
        self.counters.respawned.load(Ordering::Acquire)
    }
}

/// How a worker thread ended, reported to the supervisor.
enum WorkerExit {
    /// The queue closed and drained; no replacement needed.
    Drained,
    /// The handler panicked; the thread self-terminated and index `i`
    /// needs a replacement.
    Panicked(usize),
}

struct SupState {
    exits: Vec<WorkerExit>,
    handles: Vec<JoinHandle<()>>,
}

struct Control {
    state: Mutex<SupState>,
    exited: Condvar,
    counters: Arc<Counters>,
}

/// A fixed set of worker threads draining a [`Scheduler`] whose workers
/// survive panicking handlers: the panic is caught, reported via
/// `on_panic`, and the thread is replaced by a supervisor so capacity
/// never decays.
pub struct SupervisedPool {
    supervisor: JoinHandle<()>,
    control: Arc<Control>,
    workers: usize,
}

impl SupervisedPool {
    /// Spawns `workers` supervised threads named `{name}-{i}` (respawns
    /// are `{name}-{i}r{generation}`) draining `queue` until it is
    /// closed and empty.
    ///
    /// `handler` runs each item by reference under `catch_unwind`. On a
    /// panic, `on_panic(item, payload)` runs on the dying worker thread
    /// with the panic payload rendered to a string — mark the job failed
    /// there; it must not panic itself.
    pub fn spawn<T, F, P>(
        name: &str,
        workers: usize,
        queue: Arc<Scheduler<T>>,
        handler: Arc<F>,
        on_panic: Arc<P>,
    ) -> Self
    where
        T: Send + 'static,
        F: Fn(&T) + Send + Sync + 'static,
        P: Fn(&T, &str) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let counters = Arc::new(Counters::default());
        let control = Arc::new(Control {
            state: Mutex::new(SupState {
                exits: Vec::new(),
                handles: Vec::with_capacity(workers),
            }),
            exited: Condvar::new(),
            counters: Arc::clone(&counters),
        });

        {
            let mut st = control.state.lock().expect("supervisor lock");
            for i in 0..workers {
                let h = spawn_worker(
                    format!("{name}-{i}"),
                    i,
                    Arc::clone(&queue),
                    Arc::clone(&handler),
                    Arc::clone(&on_panic),
                    Arc::clone(&control),
                );
                st.handles.push(h);
            }
        }

        let supervisor = {
            let name = name.to_owned();
            let control = Arc::clone(&control);
            std::thread::Builder::new()
                .name(format!("{name}-supervisor"))
                .spawn(move || {
                    let mut drained = 0usize;
                    let mut generation = 0u64;
                    let mut st = control.state.lock().expect("supervisor lock");
                    while drained < workers {
                        while let Some(exit) = st.exits.pop() {
                            match exit {
                                WorkerExit::Drained => drained += 1,
                                WorkerExit::Panicked(i) => {
                                    generation += 1;
                                    control.counters.respawned.fetch_add(1, Ordering::AcqRel);
                                    ucsim_obs::emit(
                                        ucsim_obs::SpanKind::Supervise,
                                        ucsim_obs::now_us(),
                                        0,
                                        i as u32,
                                    );
                                    let h = spawn_worker(
                                        format!("{name}-{i}r{generation}"),
                                        i,
                                        Arc::clone(&queue),
                                        Arc::clone(&handler),
                                        Arc::clone(&on_panic),
                                        Arc::clone(&control),
                                    );
                                    st.handles.push(h);
                                }
                            }
                        }
                        if drained < workers {
                            st = control.exited.wait(st).expect("supervisor lock");
                        }
                    }
                })
                .expect("spawn supervisor thread")
        };

        SupervisedPool {
            supervisor,
            control,
            workers,
        }
    }

    /// The pool's nominal worker count (the supervisor holds it there).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A cloneable health view (alive / respawned).
    pub fn monitor(&self) -> PoolMonitor {
        PoolMonitor {
            counters: Arc::clone(&self.control.counters),
        }
    }

    /// Waits for the supervisor and every worker — including respawns —
    /// to finish. Close the queue first, or this blocks forever.
    pub fn join(self) {
        let _ = self.supervisor.join();
        let handles =
            std::mem::take(&mut self.control.state.lock().expect("supervisor lock").handles);
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Spawns one worker thread. Split out so the initial spawn and the
/// supervisor's respawn path are the same code.
fn spawn_worker<T, F, P>(
    thread_name: String,
    index: usize,
    queue: Arc<Scheduler<T>>,
    handler: Arc<F>,
    on_panic: Arc<P>,
    control: Arc<Control>,
) -> JoinHandle<()>
where
    T: Send + 'static,
    F: Fn(&T) + Send + Sync + 'static,
    P: Fn(&T, &str) + Send + Sync + 'static,
{
    control.counters.alive.fetch_add(1, Ordering::AcqRel);
    std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || {
            let exit = loop {
                let Some((item, token)) = queue.pop_with_obs() else {
                    break WorkerExit::Drained;
                };
                // Reports the queue wait and installs the enqueuing
                // request's scope for the handler, so spans emitted
                // below (and inside the handler) carry its id.
                let _scope = token.on_dequeue(index as u32);
                let span = ucsim_obs::span(ucsim_obs::SpanKind::Execute);
                let result = catch_unwind(AssertUnwindSafe(|| handler(&item)));
                span.finish(u32::from(result.is_err()));
                if let Err(payload) = result {
                    ucsim_obs::emit(
                        ucsim_obs::SpanKind::Supervise,
                        ucsim_obs::now_us(),
                        0,
                        index as u32,
                    );
                    on_panic(&item, &payload_to_string(&*payload));
                    break WorkerExit::Panicked(index);
                }
            };
            control.counters.alive.fetch_sub(1, Ordering::AcqRel);
            let mut st = control.state.lock().expect("supervisor lock");
            st.exits.push(exit);
            drop(st);
            control.exited.notify_all();
        })
        .expect("spawn supervised worker")
}

/// Renders a panic payload the way the default hook does: `&str` and
/// `String` payloads verbatim, anything else a placeholder.
fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Progress;
    use std::sync::atomic::AtomicU64;
    use ucsim_model::CancelToken;

    /// Suppresses the default panic hook's backtrace spam for panics on
    /// threads whose name starts with `prefix`; other panics still print.
    fn quiet_worker_panics(prefix: &'static str) {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let on_worker = std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with(prefix));
                if !on_worker {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn respawn_accounting_across_injected_panics() {
        quiet_worker_panics("sup-test");
        let queue = Arc::new(Scheduler::new(64));
        let progress = Arc::new(Progress::sink());
        let done = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));

        let pool = SupervisedPool::spawn(
            "sup-test",
            3,
            Arc::clone(&queue),
            Arc::new({
                let progress = Arc::clone(&progress);
                let done = Arc::clone(&done);
                move |v: &u64| {
                    if *v % 10 == 3 {
                        panic!("poisoned item {v}");
                    }
                    done.fetch_add(1, Ordering::AcqRel);
                    progress.line(&format!("item {v} done"));
                }
            }),
            Arc::new({
                let progress = Arc::clone(&progress);
                let failed = Arc::clone(&failed);
                move |v: &u64, payload: &str| {
                    assert!(payload.contains("poisoned item"), "payload: {payload}");
                    failed.fetch_add(1, Ordering::AcqRel);
                    progress.line(&format!("item {v} failed"));
                }
            }),
        );
        assert_eq!(pool.workers(), 3);
        let monitor = pool.monitor();

        // 100 items, 10 of which (3, 13, …, 93) panic the handler.
        for v in 0..100u64 {
            while queue.try_submit("t", 0, CancelToken::new(), v).is_err() {
                std::thread::yield_now();
            }
        }
        queue.close();
        pool.join();

        // Every item was handled exactly once: panics became failures,
        // nothing was dropped, and the queue fully drained.
        assert_eq!(done.load(Ordering::Acquire), 90);
        assert_eq!(failed.load(Ordering::Acquire), 10);
        assert!(queue.is_empty());

        // Capacity never decayed: one respawn per panic, and all workers
        // (original or replacement) exited only because the queue
        // drained.
        assert_eq!(monitor.respawned(), 10);
        assert_eq!(monitor.alive(), 0, "post-join: all workers exited");

        // Serialized progress survived the panic storm: one whole line
        // per item, none torn, none duplicated.
        let text = progress.captured();
        let mut seen = std::collections::HashSet::new();
        for line in text.lines() {
            let (item, status) = line
                .strip_prefix("item ")
                .and_then(|r| r.split_once(' '))
                .expect("well-formed line");
            let v: u64 = item.parse().expect("item number");
            assert_eq!(status, if v % 10 == 3 { "failed" } else { "done" });
            assert!(seen.insert(v), "item {v} reported twice");
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn pool_without_panics_drains_every_item() {
        let queue = Arc::new(Scheduler::new(16));
        let sum = Arc::new(AtomicU64::new(0));
        let panics = Arc::new(AtomicU64::new(0));
        let pool = SupervisedPool::spawn(
            "sup-plain",
            2,
            Arc::clone(&queue),
            Arc::new({
                let sum = Arc::clone(&sum);
                move |v: &u64| {
                    sum.fetch_add(*v, Ordering::AcqRel);
                }
            }),
            Arc::new({
                let panics = Arc::clone(&panics);
                move |_: &u64, _: &str| {
                    panics.fetch_add(1, Ordering::AcqRel);
                }
            }),
        );
        let monitor = pool.monitor();
        for v in 1..=20u64 {
            while queue.try_submit("t", 0, CancelToken::new(), v).is_err() {
                std::thread::yield_now();
            }
        }
        queue.close();
        pool.join();
        assert_eq!(sum.load(Ordering::Acquire), 20 * 21 / 2);
        assert_eq!(panics.load(Ordering::Acquire), 0);
        assert_eq!(monitor.respawned(), 0);
    }

    #[test]
    fn alive_holds_at_nominal_while_running() {
        quiet_worker_panics("sup-alive");
        let queue = Arc::new(Scheduler::new(8));
        let pool = SupervisedPool::spawn(
            "sup-alive",
            2,
            Arc::clone(&queue),
            Arc::new(|v: &u64| {
                if *v == 0 {
                    panic!("boom");
                }
            }),
            Arc::new(|_: &u64, _: &str| {}),
        );
        let monitor = pool.monitor();
        // Panic one worker, wait for the respawn to land, then confirm
        // strength restored.
        queue.try_submit("t", 0, CancelToken::new(), 0u64).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while monitor.respawned() < 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(monitor.respawned(), 1);
        while monitor.alive() < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(monitor.alive(), 2, "replacement restored pool strength");
        queue.close();
        pool.join();
    }
}
