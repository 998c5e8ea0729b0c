//! # ucsim-pool
//!
//! Shared work-queue primitives for the workspace, extracted from the
//! hand-rolled `Mutex<usize>` scheduler that used to live in
//! `ucsim-bench`'s matrix runner. Std-only (threads + `Mutex`/`Condvar`),
//! matching the workspace's no-async stance (DESIGN.md §5).
//!
//! * [`run_indexed`] — fan a fixed index range out over a scoped thread
//!   pool and collect results in index order. `ucsim-bench`'s `run_matrix`
//!   is built on this.
//! * [`Scheduler`] — a priority + weighted-fair-share scheduler over
//!   per-tenant queues with cancel-token preemption. `ucsim-serve`'s job
//!   scheduling (HTTP 429 on the bounded interactive path, unbounded
//!   pull-based sweep plans) is built on this.
//! * [`SupervisedPool`] — a fixed set of named worker threads draining a
//!   [`Scheduler`] whose workers survive panicking handlers: the panic
//!   is caught and reported, and a supervisor thread respawns the worker
//!   so capacity never decays.
//! * [`Watchdog`] — one timer thread enforcing wall-clock deadlines on
//!   any number of in-flight jobs via disarm-on-drop guards.
//! * [`faults`] — named-site deterministic fault injection, compiled to
//!   no-ops unless the `fault-injection` feature is enabled.
//! * [`Progress`] — a mutex-serialized line reporter so progress output
//!   from concurrent workers never interleaves mid-line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
mod sched;
mod supervise;
mod watchdog;

pub use sched::{SchedStats, Scheduler};
pub use supervise::{PoolMonitor, SupervisedPool};
pub use watchdog::{WatchGuard, Watchdog};

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..count)` across at most `threads` scoped worker threads and
/// returns the results in index order.
///
/// Work is claimed dynamically (an atomic next-index counter), so uneven
/// item costs balance across workers. With `threads <= 1` or `count <= 1`
/// the work still runs, on a single worker.
///
/// # Example
///
/// ```
/// let squares = ucsim_pool::run_indexed(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn run_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|s| {
        for _ in 0..threads.max(1).min(count.max(1)) {
            s.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= count {
                    break;
                }
                let out = f(idx);
                results.lock().expect("results lock").push((idx, out));
            });
        }
    });
    let mut collected = results.into_inner().expect("results");
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, t)| t).collect()
}

/// Error returned by [`Scheduler::try_submit`] and
/// [`Scheduler::enqueue`]; hands the rejected item back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The bounded path was at capacity.
    Full(T),
    /// The scheduler has been closed; no further items are accepted.
    Closed(T),
}

/// A mutex-serialized progress reporter.
///
/// Concurrent workers that report progress with bare `eprintln!` interleave
/// nondeterministically; routing lines through one `Progress` guarantees
/// each line is written whole, in one `write_all`, under one lock.
pub struct Progress {
    sink: Mutex<Sink>,
}

enum Sink {
    Stderr,
    /// Capture buffer for tests.
    Buffer(Vec<u8>),
}

impl Progress {
    /// A reporter writing whole lines to stderr.
    pub fn stderr() -> Self {
        Progress {
            sink: Mutex::new(Sink::Stderr),
        }
    }

    /// A reporter capturing lines in memory (for tests).
    pub fn sink() -> Self {
        Progress {
            sink: Mutex::new(Sink::Buffer(Vec::new())),
        }
    }

    /// Writes one line atomically (a trailing newline is added).
    pub fn line(&self, msg: &str) {
        let mut out = Vec::with_capacity(msg.len() + 1);
        out.extend_from_slice(msg.as_bytes());
        out.push(b'\n');
        let mut sink = self.sink.lock().expect("progress lock");
        match &mut *sink {
            Sink::Stderr => {
                let _ = std::io::stderr().write_all(&out);
            }
            Sink::Buffer(buf) => buf.extend_from_slice(&out),
        }
    }

    /// The captured output of a [`Progress::sink`] reporter.
    pub fn captured(&self) -> String {
        match &*self.sink.lock().expect("progress lock") {
            Sink::Stderr => String::new(),
            Sink::Buffer(buf) => String::from_utf8_lossy(buf).into_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn run_indexed_preserves_order() {
        let out = run_indexed(100, 7, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_handles_degenerate_sizes() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 0, |i| i + 1), vec![1]);
        assert_eq!(run_indexed(3, 100, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn progress_lines_never_tear() {
        let p = Arc::new(Progress::sink());
        std::thread::scope(|s| {
            for t in 0..8 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for i in 0..50 {
                        p.line(&format!("worker {t} item {i} done"));
                    }
                });
            }
        });
        let text = p.captured();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8 * 50);
        for l in lines {
            assert!(
                l.starts_with("worker ") && l.ends_with(" done"),
                "torn line: {l:?}"
            );
        }
    }
}
