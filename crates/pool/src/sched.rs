//! Priority + weighted-fair-share scheduling over cancellable work items.
//!
//! [`Scheduler`] replaces the single bounded FIFO for workloads where
//! independent submitters (tenants) compete for the same worker pool. It
//! keeps one queue per tenant and serves them by **virtual-time weighted
//! fair queueing**: every pop charges the chosen tenant's virtual clock
//! `SCALE / weight`, and the next pop goes to the backlogged tenant with
//! the smallest clock. A tenant with weight 4 therefore drains 4× as fast
//! as a weight-1 tenant under contention, and an idle tenant's clock is
//! clamped forward on re-activation so it can never hoard credit — every
//! backlogged tenant keeps making progress (starvation-free).
//!
//! Within one tenant, entries are served strictly by descending
//! [`priority`](Scheduler::enqueue) and FIFO within equal priority.
//!
//! Two submission paths share the structure:
//!
//! * [`try_submit`](Scheduler::try_submit) — bounded: rejects with
//!   [`PushError::Full`] once the *total* backlog reaches the configured
//!   capacity. This is the explicit backpressure point for interactive
//!   single-job submissions (HTTP 429).
//! * [`enqueue`](Scheduler::enqueue) — unbounded: sweep *plans* enqueue
//!   their cells without blocking or bouncing; the planner itself bounds
//!   the cell count, so a plan many times larger than the interactive
//!   capacity flows through without a feeder thread.
//!
//! Every entry carries a [`CancelToken`]. Cancelled entries are dropped at
//! pop time without ever reaching a worker (counted as *preempted*), which
//! is how `DELETE /v1/matrix/:id` preempts still-queued cells.
//!
//! Workers drain the scheduler through
//! [`SupervisedPool`](crate::SupervisedPool).

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

use ucsim_model::CancelToken;

use crate::PushError;

/// Virtual-time scale: one pop charges `SCALE / weight`, so integer
/// division keeps sub-unit precision for weights up to ~one million.
const VTIME_SCALE: u64 = 1 << 20;

struct Entry<T> {
    item: T,
    priority: u64,
    seq: u64,
    cancel: CancelToken,
    token: ucsim_obs::QueueToken,
}

struct TenantQueue<T> {
    name: String,
    weight: u64,
    /// Virtual clock: total normalized service this tenant has received.
    vtime: u64,
    entries: Vec<Entry<T>>,
}

struct SchedState<T> {
    tenants: Vec<TenantQueue<T>>,
    closed: bool,
    next_seq: u64,
    total: usize,
    served: u64,
    preempted: u64,
    /// Monotone floor for re-activating tenants when no one is backlogged.
    vtime_floor: u64,
    /// priority → (pops, total queue-wait µs).
    wait_by_priority: BTreeMap<u64, (u64, u64)>,
}

/// Point-in-time scheduler statistics for metrics endpoints.
#[derive(Debug, Clone)]
pub struct SchedStats {
    /// Entries currently queued across all tenants (cancelled-but-not-yet
    /// -dropped entries included).
    pub depth: usize,
    /// Entries handed to workers since construction.
    pub served: u64,
    /// Cancelled entries dropped at pop time without reaching a worker.
    pub preempted: u64,
    /// Per-tenant `(name, weight, queued-entry count)`.
    pub tenants: Vec<(String, u64, usize)>,
    /// Per-priority `(priority, pops, total queue-wait µs)`.
    pub wait_by_priority: Vec<(u64, u64, u64)>,
}

/// A multi-tenant priority scheduler (see the module docs for the
/// algorithm). Construct with [`new`](Self::new), configure weights with
/// [`set_weight`](Self::set_weight), submit with
/// [`try_submit`](Self::try_submit) / [`enqueue`](Self::enqueue), and
/// drain with a [`SupervisedPool`](crate::SupervisedPool).
pub struct Scheduler<T> {
    state: Mutex<SchedState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> Scheduler<T> {
    /// Creates a scheduler whose *bounded* path
    /// ([`try_submit`](Self::try_submit)) rejects once the total backlog
    /// reaches `capacity` (minimum 1). Tenants are created on first use
    /// with weight 1.
    pub fn new(capacity: usize) -> Self {
        Scheduler {
            state: Mutex::new(SchedState {
                tenants: Vec::new(),
                closed: false,
                next_seq: 0,
                total: 0,
                served: 0,
                preempted: 0,
                vtime_floor: 0,
                wait_by_priority: BTreeMap::new(),
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Sets `tenant`'s fair-share weight (clamped to ≥ 1), creating the
    /// tenant if it does not exist yet. Under contention a tenant drains
    /// in proportion to its weight.
    pub fn set_weight(&self, tenant: &str, weight: u64) {
        let mut st = self.state.lock().expect("sched lock");
        let idx = Self::tenant_index(&mut st, tenant);
        st.tenants[idx].weight = weight.max(1);
    }

    fn tenant_index(st: &mut SchedState<T>, tenant: &str) -> usize {
        if let Some(i) = st.tenants.iter().position(|t| t.name == tenant) {
            return i;
        }
        st.tenants.push(TenantQueue {
            name: tenant.to_owned(),
            weight: 1,
            vtime: st.vtime_floor,
            entries: Vec::new(),
        });
        st.tenants.len() - 1
    }

    fn push_entry(
        st: &mut SchedState<T>,
        tenant: &str,
        priority: u64,
        cancel: CancelToken,
        item: T,
    ) {
        let idx = Self::tenant_index(st, tenant);
        if st.tenants[idx].entries.is_empty() {
            // Re-activation clamp: an idle tenant's clock catches up to
            // the busiest-progressed floor so idling never banks credit.
            let min_backlogged = st
                .tenants
                .iter()
                .filter(|t| !t.entries.is_empty())
                .map(|t| t.vtime)
                .min()
                .unwrap_or(st.vtime_floor);
            let t = &mut st.tenants[idx];
            t.vtime = t.vtime.max(min_backlogged);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.tenants[idx].entries.push(Entry {
            item,
            priority,
            seq,
            cancel,
            token: ucsim_obs::QueueToken::capture(),
        });
        st.total += 1;
    }

    /// Bounded submission: enqueues `item` for `tenant` at `priority`
    /// (higher is served first within the tenant), or hands it back.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] once the total backlog is at capacity,
    /// [`PushError::Closed`] after [`close`](Self::close).
    pub fn try_submit(
        &self,
        tenant: &str,
        priority: u64,
        cancel: CancelToken,
        item: T,
    ) -> Result<(), PushError<T>> {
        let mut st = self.state.lock().expect("sched lock");
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.total >= self.capacity {
            return Err(PushError::Full(item));
        }
        Self::push_entry(&mut st, tenant, priority, cancel, item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Unbounded submission for plan cells: never blocks and never
    /// reports `Full` — the planner bounds how many cells exist, so the
    /// scheduler accepts them all and workers pull at their own pace.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] after [`close`](Self::close).
    pub fn enqueue(
        &self,
        tenant: &str,
        priority: u64,
        cancel: CancelToken,
        item: T,
    ) -> Result<(), PushError<T>> {
        let mut st = self.state.lock().expect("sched lock");
        if st.closed {
            return Err(PushError::Closed(item));
        }
        Self::push_entry(&mut st, tenant, priority, cancel, item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Picks the next entry under the lock: drop cancelled entries, then
    /// serve the min-vtime backlogged tenant's best (priority, seq) entry.
    fn take_next(st: &mut SchedState<T>) -> Option<(T, ucsim_obs::QueueToken)> {
        loop {
            // Preemption: purge cancelled entries everywhere first so a
            // fully-cancelled tenant cannot win the vtime race.
            let mut dropped = 0usize;
            for t in &mut st.tenants {
                let before = t.entries.len();
                t.entries.retain(|e| !e.cancel.is_cancelled());
                dropped += before - t.entries.len();
            }
            st.total -= dropped;
            st.preempted += dropped as u64;

            let idx = st
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.entries.is_empty())
                .min_by_key(|(_, t)| t.vtime)
                .map(|(i, _)| i)?;

            st.vtime_floor = st.vtime_floor.max(st.tenants[idx].vtime);
            let t = &mut st.tenants[idx];
            let best = t
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (std::cmp::Reverse(e.priority), e.seq))
                .map(|(i, _)| i)
                .expect("non-empty tenant queue");
            let entry = t.entries.remove(best);
            t.vtime += VTIME_SCALE / t.weight;
            st.total -= 1;
            if entry.cancel.is_cancelled() {
                // Raced with a cancel after the purge; uncharge and retry.
                let t = &mut st.tenants[idx];
                t.vtime -= VTIME_SCALE / t.weight;
                st.preempted += 1;
                continue;
            }
            st.served += 1;
            let wait_us = entry.token.waited_us();
            let slot = st.wait_by_priority.entry(entry.priority).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += wait_us;
            return Some((entry.item, entry.token));
        }
    }

    /// Dequeues the next schedulable item if one is ready; never blocks.
    /// A draining server uses this to sweep out still-queued jobs and
    /// fail them explicitly rather than abandoning them at close.
    pub fn try_pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("sched lock");
        Self::take_next(&mut st).map(|(item, _)| item)
    }

    /// Dequeues the next item, blocking while the scheduler is empty.
    /// Returns `None` once it is closed **and** drained — the
    /// worker-loop termination signal. The returned
    /// [`QueueToken`](ucsim_obs::QueueToken) reports the queue wait and
    /// re-installs the enqueuing request's scope on
    /// [`on_dequeue`](ucsim_obs::QueueToken::on_dequeue).
    pub(crate) fn pop_with_obs(&self) -> Option<(T, ucsim_obs::QueueToken)> {
        let mut st = self.state.lock().expect("sched lock");
        loop {
            if let Some(out) = Self::take_next(&mut st) {
                return Some(out);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("sched lock");
        }
    }

    /// Closes the scheduler: future submissions fail, and consumers drain
    /// what remains then receive `None`. Idempotent.
    pub fn close(&self) {
        self.state.lock().expect("sched lock").closed = true;
        self.not_empty.notify_all();
    }

    /// Entries currently queued across all tenants.
    pub fn len(&self) -> usize {
        self.state.lock().expect("sched lock").total
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bounded-path capacity ([`try_submit`](Self::try_submit) only).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("sched lock").closed
    }

    /// A point-in-time snapshot of depths, counters, and per-priority
    /// queue-wait aggregates.
    pub fn stats(&self) -> SchedStats {
        let st = self.state.lock().expect("sched lock");
        SchedStats {
            depth: st.total,
            served: st.served,
            preempted: st.preempted,
            tenants: st
                .tenants
                .iter()
                .map(|t| (t.name.clone(), t.weight, t.entries.len()))
                .collect(),
            wait_by_priority: st
                .wait_by_priority
                .iter()
                .map(|(&p, &(n, us))| (p, n, us))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pop<T: Send>(s: &Scheduler<T>) -> Option<T> {
        s.pop_with_obs().map(|(item, _)| item)
    }

    #[test]
    fn fair_share_serves_in_weight_proportion() {
        let s = Scheduler::new(64);
        s.set_weight("a", 1);
        s.set_weight("b", 4);
        for i in 0..20u32 {
            s.enqueue("a", 0, CancelToken::new(), ("a", i)).unwrap();
            s.enqueue("b", 0, CancelToken::new(), ("b", i)).unwrap();
        }
        // Over the first 10 pops, b (weight 4) should get ~4× a's service.
        let first: Vec<&str> = (0..10).map(|_| pop(&s).unwrap().0).collect();
        let b_count = first.iter().filter(|t| **t == "b").count();
        assert!(
            (7..=9).contains(&b_count),
            "weight-4 tenant got {b_count}/10, expected ~8"
        );
        // And nobody starves: both tenants fully drain.
        while pop_nonblocking(&s).is_some() {}
        assert!(s.is_empty());
    }

    fn pop_nonblocking<T: Send>(s: &Scheduler<T>) -> Option<T> {
        s.try_pop()
    }

    #[test]
    fn priority_orders_within_tenant_fifo_within_priority() {
        let s = Scheduler::new(16);
        s.enqueue("t", 0, CancelToken::new(), "low-1").unwrap();
        s.enqueue("t", 5, CancelToken::new(), "high-1").unwrap();
        s.enqueue("t", 0, CancelToken::new(), "low-2").unwrap();
        s.enqueue("t", 5, CancelToken::new(), "high-2").unwrap();
        let order: Vec<&str> = (0..4).map(|_| pop(&s).unwrap()).collect();
        assert_eq!(order, ["high-1", "high-2", "low-1", "low-2"]);
    }

    #[test]
    fn cancelled_entries_are_preempted_before_reaching_a_worker() {
        let s = Scheduler::new(16);
        let doomed = CancelToken::new();
        s.enqueue("t", 0, CancelToken::new(), 1u32).unwrap();
        s.enqueue("t", 9, doomed.clone(), 2).unwrap();
        s.enqueue("t", 0, CancelToken::new(), 3).unwrap();
        doomed.cancel();
        assert_eq!(pop(&s), Some(1));
        assert_eq!(pop(&s), Some(3));
        let stats = s.stats();
        assert_eq!(stats.preempted, 1);
        assert_eq!(stats.served, 2);
        assert!(s.is_empty());
    }

    #[test]
    fn bounded_path_rejects_at_capacity_unbounded_path_never_does() {
        let s = Scheduler::new(2);
        s.try_submit("t", 0, CancelToken::new(), 1u32).unwrap();
        s.try_submit("t", 0, CancelToken::new(), 2).unwrap();
        assert!(matches!(
            s.try_submit("t", 0, CancelToken::new(), 3),
            Err(PushError::Full(3))
        ));
        // Plan cells bypass the interactive bound entirely.
        for i in 10..30u32 {
            s.enqueue("t", 0, CancelToken::new(), i).unwrap();
        }
        assert_eq!(s.len(), 22);
        s.close();
        assert!(matches!(
            s.try_submit("t", 0, CancelToken::new(), 4),
            Err(PushError::Closed(4))
        ));
        assert!(matches!(
            s.enqueue("t", 0, CancelToken::new(), 5),
            Err(PushError::Closed(5))
        ));
        // Closed-but-not-drained still pops, then signals termination.
        let mut drained = 0;
        while pop(&s).is_some() {
            drained += 1;
        }
        assert_eq!(drained, 22);
    }

    #[test]
    fn reactivated_tenant_cannot_bank_credit_while_idle() {
        let s = Scheduler::new(64);
        s.set_weight("busy", 1);
        s.set_weight("idler", 1);
        // `busy` runs alone for a while, advancing its clock.
        for i in 0..8u32 {
            s.enqueue("busy", 0, CancelToken::new(), ("busy", i))
                .unwrap();
        }
        for _ in 0..8 {
            pop(&s).unwrap();
        }
        // Now both backlog equally; `idler` must not monopolize despite
        // having never been charged.
        for i in 0..6u32 {
            s.enqueue("busy", 0, CancelToken::new(), ("busy", i))
                .unwrap();
            s.enqueue("idler", 0, CancelToken::new(), ("idler", i))
                .unwrap();
        }
        let first: Vec<&str> = (0..6).map(|_| pop(&s).unwrap().0).collect();
        let idler = first.iter().filter(|t| **t == "idler").count();
        assert!(
            (2..=4).contains(&idler),
            "re-activated tenant took {idler}/6, expected ~3"
        );
    }

    #[test]
    fn mixed_load_is_starvation_free() {
        // One consumer drains while two producers keep submitting at
        // skewed weights; the light tenant must still finish everything.
        let s = Arc::new(Scheduler::new(1024));
        s.set_weight("heavy", 8);
        s.set_weight("light", 1);
        for i in 0..200u32 {
            s.enqueue("heavy", 1, CancelToken::new(), ("heavy", i))
                .unwrap();
        }
        for i in 0..25u32 {
            s.enqueue("light", 0, CancelToken::new(), ("light", i))
                .unwrap();
        }
        let s2 = Arc::clone(&s);
        let consumer = std::thread::spawn(move || {
            let mut light = 0u32;
            let mut heavy = 0u32;
            while let Some((who, _)) = pop(&s2) {
                match who {
                    "light" => light += 1,
                    _ => heavy += 1,
                }
            }
            (light, heavy)
        });
        // Close once everything is queued; the consumer must drain all of
        // both tenants (no starvation, no loss).
        while !s.is_empty() {
            std::thread::yield_now();
        }
        s.close();
        let (light, heavy) = consumer.join().unwrap();
        assert_eq!(light, 25);
        assert_eq!(heavy, 200);
        let stats = s.stats();
        assert_eq!(stats.served, 225);
        assert_eq!(stats.depth, 0);
        // Wait aggregates recorded under both priorities.
        assert_eq!(stats.wait_by_priority.len(), 2);
        assert_eq!(stats.wait_by_priority[0].0, 0);
        assert_eq!(stats.wait_by_priority[0].1, 25);
        assert_eq!(stats.wait_by_priority[1].1, 200);
    }

    #[test]
    fn stats_report_tenant_depths_and_weights() {
        let s = Scheduler::new(16);
        s.set_weight("a", 3);
        s.enqueue("a", 0, CancelToken::new(), 1u32).unwrap();
        s.enqueue("a", 0, CancelToken::new(), 2).unwrap();
        s.enqueue("b", 0, CancelToken::new(), 3).unwrap();
        let stats = s.stats();
        assert_eq!(stats.depth, 3);
        let a = stats.tenants.iter().find(|t| t.0 == "a").unwrap();
        assert_eq!((a.1, a.2), (3, 2));
        let b = stats.tenants.iter().find(|t| t.0 == "b").unwrap();
        assert_eq!((b.1, b.2), (1, 1));
    }
}
