//! The front-end simulator: PW stream → uop supply (uop cache / decoder /
//! loop cache) → back end, with all the paper's metrics.

use std::borrow::Borrow;

use ucsim_bpu::{BpuStats, PwBatch, SlicePwGen};
use ucsim_isa::UopKindTable;
use ucsim_mem::{AccessKind, FetchDirectedPrefetcher, MemoryHierarchy};
use ucsim_model::{mix64, Addr, CancelToken, DynInst};
use ucsim_obs::Stage;
use ucsim_trace::{Program, Trace, WorkloadProfile};
use ucsim_uopcache::{AccumulationBuffer, UopCache, UopCacheEntry};

use crate::{Backend, BackendConfig, FrontEndEnergy, LoopCache, SimConfig, SimReport, UopSource};

/// Fixed front-end depth (predict → fetch → queue → rename) charged to
/// every branch's fetch-to-resolve latency, on top of the decode pipe for
/// decoder-path branches and the measured execution path.
const BASE_FRONT_DEPTH: u64 = 6;

/// How many rounds of PW batches (one per hardware thread) the loop
/// processes between cancellation checks. Polling an atomic every batch
/// would be noise in the hot loop; every 128 rounds (a few thousand
/// instructions per thread) bounds the response latency to well under a
/// millisecond of simulated work.
const CANCEL_CHECK_BATCHES: u32 = 128;

/// A cancellable run was stopped before completion (see
/// [`Simulator::run_slice_cancellable`]). No partial report is produced:
/// a report over an arbitrary prefix would not be the deterministic
/// function of (workload, seed, config) that callers cache and persist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("simulation cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Which supply path fed the back end last (switch-penalty tracking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    OpCache,
    Icache,
    LoopCache,
}

/// Carry-over coverage when a uop cache entry extends past the current PW
/// into sequential successors.
#[derive(Debug, Clone, Copy)]
struct Carry {
    /// Coverage extends up to (exclusive) this address.
    until: Addr,
    /// Delivery cycle of the covering entry.
    time: u64,
    /// The next instruction must start exactly here.
    expect: Addr,
}

/// Per-hardware-thread front-end context: the accumulation buffer and
/// entry-coverage carry are private to a thread; the uop cache, memory
/// hierarchy, fetch clock and back end are shared (SMT sharing, paper
/// Section V-B1).
struct FrontThread {
    acc: AccumulationBuffer,
    carry: Option<Carry>,
}

/// The assembled simulator.
///
/// One `Simulator` value is a configuration; [`Simulator::run`] executes a
/// workload and produces a [`SimReport`] over the measurement window.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator for the given configuration. Every run
    /// checks it first ([`SimConfig::check`]) and panics when it is
    /// invalid.
    pub fn new(cfg: SimConfig) -> Self {
        Simulator { cfg }
    }

    /// Runs `warmup + measure` instructions of the workload and reports
    /// metrics over the measurement window. The walker feeds the
    /// simulator's instruction window directly: nothing is recorded.
    pub fn run(&self, profile: &WorkloadProfile, program: &Program) -> SimReport {
        let total = self.cfg.warmup_insts + self.cfg.measure_insts;
        self.run_stream(
            profile.name,
            program.walk(profile).take(total as usize),
            None,
        )
        .expect("never cancelled")
    }

    /// Replays a recorded trace: byte-identical to [`Simulator::run`] on
    /// the workload the trace was recorded from (the walker is
    /// deterministic, so the recording *is* the stream), without paying
    /// the walker's per-instruction synthesis again. This is how sweep
    /// runners share one recording across every cell of a capacity ×
    /// policy cross.
    ///
    /// Only the first `warmup + measure` instructions are simulated. A
    /// shorter trace simulates what is there (the measurement window
    /// degrades exactly as a short walk would).
    pub fn run_trace(&self, name: &str, trace: &Trace) -> SimReport {
        let total = (self.cfg.warmup_insts + self.cfg.measure_insts) as usize;
        self.run_stream(name, trace.iter().take(total), None)
            .expect("never cancelled")
    }

    /// Runs every instruction of a borrowed, control-flow consistent
    /// slice (each instruction starts at the previous one's `next_pc`):
    /// the paper's own methodology, trace-driven simulation.
    pub fn run_slice(&self, name: &str, insts: &[DynInst]) -> SimReport {
        let never = CancelToken::new();
        match self.run_slice_cancellable(name, insts, &never) {
            Ok(report) => report,
            Err(Cancelled) => unreachable!("token is never cancelled"),
        }
    }

    /// Runs every instruction of a recorded stream — a borrowed slice as
    /// [`Simulator::run_slice`] does, or a packed [`Trace`] as a served
    /// job does — with cooperative cancellation. The token is polled
    /// every `CANCEL_CHECK_BATCHES` prediction-window batches — a PW
    /// boundary is the only safe stopping point in the decoupled front
    /// end, and checking every batch would tax the hot loop. When the
    /// token fires the run stops promptly and returns `Err(Cancelled)`;
    /// an un-cancelled run is byte-identical to [`Simulator::run_slice`].
    pub fn run_slice_cancellable<R>(
        &self,
        name: &str,
        insts: R,
        cancel: &CancelToken,
    ) -> Result<SimReport, Cancelled>
    where
        R: IntoIterator,
        R::Item: Borrow<DynInst>,
    {
        let stream = insts.into_iter().map(|i| *i.borrow());
        self.run_stream(name, stream, Some(cancel))
    }

    /// The one single-thread run: `src` refills the instruction window
    /// that [`SlicePwGen`] walks.
    fn run_stream<I: Iterator<Item = DynInst>>(
        &self,
        name: &str,
        src: I,
        cancel: Option<&CancelToken>,
    ) -> Result<SimReport, Cancelled> {
        let gen = SlicePwGen::over(self.cfg.bpu.clone(), src);
        run(&self.cfg, name, &mut [gen], cancel, |st| st)
    }
}

/// The one run path behind every report: [`Simulator`], [`crate::SmtSimulator`]
/// and [`crate::PwTrace`] replay all end here. It checks `cfg`, builds
/// the pipeline for `threads.len()` hardware threads, drives each
/// thread's windows into it, and builds the report. `sink` may wrap the
/// pipeline for the run (identity for every caller but
/// `PwTrace::replay_parallel`).
///
/// # Panics
///
/// Panics if `cfg` fails [`SimConfig::check`].
pub(crate) fn run<W: Windows, S: PwSink + Into<RunState>>(
    cfg: &SimConfig,
    name: &str,
    threads: &mut [W],
    cancel: Option<&CancelToken>,
    sink: impl FnOnce(RunState) -> S,
) -> Result<SimReport, Cancelled> {
    if let Err(e) = cfg.check() {
        panic!("invalid simulator configuration: {e}");
    }
    let mut sink = sink(RunState::with_threads(cfg, threads.len()));
    let bpu = drive(cfg, threads, &mut sink, cancel)?;
    Ok(sink.into().finish(name, bpu, cfg))
}

/// Where one hardware thread's prediction windows come from: the live
/// generator, or a recording of it ([`crate::PwTrace`]). Either reads its
/// instructions through one reused [`ucsim_bpu::InstWindow`].
pub(crate) trait Windows {
    /// Slides the instruction window to the next prediction window's
    /// start, refilling it from the run's source when little is left.
    fn slide(&mut self);
    /// The next window, or `None` once the stream is exhausted.
    fn next_batch(&mut self) -> Option<PwBatch>;
    /// The instructions of `batch`, the window returned last.
    fn insts(&self, batch: &PwBatch) -> &[DynInst];
    /// The measurement window opens: branch counters restart.
    fn begin_measurement(&mut self);
    /// Branch counters since the measurement window opened (since the
    /// start when it never did).
    fn stats(&self) -> BpuStats;
}

impl<I: Iterator<Item = DynInst>> Windows for SlicePwGen<I> {
    fn slide(&mut self) {
        SlicePwGen::slide(self);
    }

    fn next_batch(&mut self) -> Option<PwBatch> {
        SlicePwGen::next_batch(self)
    }

    fn insts(&self, batch: &PwBatch) -> &[DynInst] {
        SlicePwGen::insts(self, batch)
    }

    fn begin_measurement(&mut self) {
        self.reset_stats();
    }

    fn stats(&self) -> BpuStats {
        SlicePwGen::stats(self)
    }
}

/// Where the loop delivers prediction windows: the pipeline
/// ([`RunState`]) or a PW-stream recording ([`crate::PwTrace::record`]).
pub(crate) trait PwSink {
    /// The measurement window opens before the next window.
    fn begin_measurement(&mut self);
    /// One prediction window fetched by hardware thread `tid`, with the
    /// instructions it covers.
    fn window(&mut self, batch: &PwBatch, insts: &[DynInst], tid: usize);
}

/// The simulation loop: fetches one prediction window from each hardware
/// thread in turn into `sink` (round-robin SMT; a single-thread run is
/// the one-thread case), with the instructions it covers out of the
/// thread's instruction window. Before each fetch the thread's window
/// slides forward when fewer than one line's worth of instructions
/// remain, so a run holds at most `InstWindow::CAPACITY` instructions
/// per thread however long it is. Returns the summed branch statistics
/// of every thread.
///
/// The measurement window opens at the first PW boundary after
/// `threads.len() × warmup_insts` instructions, where the sink and every
/// thread's windows reset their counters. A run that never reaches that
/// boundary measures everything. `cancel` is polled every
/// `CANCEL_CHECK_BATCHES` rounds.
pub(crate) fn drive<W: Windows, S: PwSink>(
    cfg: &SimConfig,
    threads: &mut [W],
    sink: &mut S,
    cancel: Option<&CancelToken>,
) -> Result<BpuStats, Cancelled> {
    let warmup_total = threads.len() as u64 * cfg.warmup_insts;
    let mut insts_done: u64 = 0;
    let mut measured = false;
    let mut check_in: u32 = 0;
    loop {
        if check_in == 0 {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(Cancelled);
            }
            check_in = CANCEL_CHECK_BATCHES;
        }
        check_in -= 1;
        if !measured && insts_done >= warmup_total {
            sink.begin_measurement();
            threads.iter_mut().for_each(Windows::begin_measurement);
            measured = true;
        }
        // An exhausted stream keeps returning `None`; the run ends when a
        // whole round produces no window.
        let mut progressed = false;
        for (tid, windows) in threads.iter_mut().enumerate() {
            // The refill is the source's work (walking, expanding), not
            // prediction: it stays outside the predict timer.
            windows.slide();
            // Stage timers feed the thread-local job profile (when one is
            // active); they read wall clocks only and never touch
            // simulated state, so reports stay byte-identical.
            let timer = ucsim_obs::stage_start(Stage::Predict);
            let advanced = windows.next_batch();
            timer.stop();
            let Some(batch) = advanced else { continue };
            insts_done += u64::from(batch.pw.inst_count);
            sink.window(&batch, windows.insts(&batch), tid);
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    let mut bpu = BpuStats::default();
    for windows in threads.iter() {
        bpu += windows.stats();
    }
    Ok(bpu)
}

pub(crate) struct RunState {
    // Substrates.
    oc: UopCache,
    threads: Vec<FrontThread>,
    cur: usize,
    mem: MemoryHierarchy,
    prefetcher: FetchDirectedPrefetcher,
    backend: Backend,
    loop_cache: LoopCache,
    // Front-end clock.
    fe_ready: u64,
    last_path: Option<Path>,
    // Sources.
    oc_uops: u64,
    decoder_uops: u64,
    loop_uops: u64,
    // Branch resolution bookkeeping.
    last_branch_resolve: u64,
    last_branch_fetch_to_resolve: u64,
    mispredicts: u64,
    mispredict_latency_sum: u64,
    // Energy.
    energy: FrontEndEnergy,
    // Self-modifying-code probes observed / entries invalidated.
    smc_probes: u64,
    smc_invalidated: u64,
    // Uop cache fill port occupancy (paper Section V-B fill-time model).
    fill_busy_until: u64,
    fill_stall_cycles: u64,
    // Global uop counter (config-independent identity for dep hashing).
    uop_seq: u64,
    // Precomputed class × uop-count → uop-kind templates: one table
    // lookup per instruction instead of re-deriving the kinds.
    kinds: &'static UopKindTable,
    // Identity hashes staged by a parallel pre-pass (see
    // `PwTrace::replay_parallel`). While `staged_pos <
    // staged_hashes.len()`, `deliver_one` consumes one staged hash per uop
    // instead of mixing it inline; empty outside parallel replay.
    staged_hashes: Vec<u64>,
    staged_pos: usize,
    // Measurement baselines.
    cycle_base: u64,
    uops_base: u64,
    busy_base: u64,
    // Config extracts.
    decode_width: usize,
    decode_latency: u64,
    l1_latency: u32,
    redirect_penalty: u64,
    decode_redirect_penalty: u64,
    btb_promote_penalty: u64,
    path_switch_penalty: u64,
    fill_port_cost: u64,
    forced_move_cost: u64,
    acc_backlog: u64,
}

impl RunState {
    /// Creates state for an `n_threads`-way SMT core sharing one uop
    /// cache, memory hierarchy, fetch engine and back end.
    pub(crate) fn with_threads(cfg: &SimConfig, n_threads: usize) -> Self {
        assert!(n_threads >= 1);
        RunState {
            oc: UopCache::new(cfg.uop_cache.clone()),
            threads: (0..n_threads)
                .map(|_| FrontThread {
                    acc: AccumulationBuffer::new(cfg.uop_cache.clone()),
                    carry: None,
                })
                .collect(),
            cur: 0,
            mem: MemoryHierarchy::new(cfg.mem.clone()),
            prefetcher: FetchDirectedPrefetcher::new(1),
            backend: Backend::new(BackendConfig {
                dispatch_width: cfg.core.dispatch_width,
                retire_width: cfg.core.retire_width,
                rob_size: cfg.core.rob_size,
                uop_queue_size: cfg.core.uop_queue_size,
                dep_prob: cfg.core.dep_prob,
            }),
            loop_cache: LoopCache::new(cfg.core.loop_cache_uops),
            fe_ready: 0,
            last_path: None,
            oc_uops: 0,
            decoder_uops: 0,
            loop_uops: 0,
            last_branch_resolve: 0,
            last_branch_fetch_to_resolve: 0,
            mispredicts: 0,
            mispredict_latency_sum: 0,
            energy: FrontEndEnergy::default(),
            smc_probes: 0,
            smc_invalidated: 0,
            fill_busy_until: 0,
            fill_stall_cycles: 0,
            uop_seq: 0,
            kinds: UopKindTable::get(),
            staged_hashes: Vec::new(),
            staged_pos: 0,
            cycle_base: 0,
            uops_base: 0,
            busy_base: 0,
            decode_width: cfg.core.decode_width as usize,
            decode_latency: cfg.core.decode_latency as u64,
            l1_latency: cfg.mem.l1_latency,
            redirect_penalty: cfg.core.redirect_penalty as u64,
            decode_redirect_penalty: cfg.core.decode_redirect_penalty as u64,
            btb_promote_penalty: cfg.core.btb_promote_penalty as u64,
            path_switch_penalty: cfg.core.path_switch_penalty as u64,
            fill_port_cost: cfg.core.fill_port_cost as u64,
            forced_move_cost: cfg.core.forced_move_cost as u64,
            acc_backlog: cfg.core.acc_backlog,
        }
    }

    fn switch_to(&mut self, path: Path) {
        if let Some(prev) = self.last_path {
            if prev != path {
                self.fe_ready += self.path_switch_penalty;
                // Leaving the IC path closes any in-flight entry build.
                if prev == Path::Icache {
                    if let Some(e) = self.threads[self.cur].acc.flush() {
                        self.fill(e);
                    }
                }
            }
        }
        self.last_path = Some(path);
    }

    /// Writes a completed entry through the single uop cache fill port.
    /// Fill time matters (paper Section V-B): when fills back up beyond
    /// the accumulation-buffer depth, the decoder stalls. The F-PWAC
    /// forced move occupies the port longer (extra read + write).
    fn fill(&mut self, e: UopCacheEntry) {
        let timer = ucsim_obs::stage_start(Stage::UcFill);
        self.fill_inner(e);
        timer.stop();
    }

    fn fill_inner(&mut self, e: UopCacheEntry) {
        self.energy.oc_fills += 1;
        let outcome = self.oc.fill(e);
        let cost =
            if outcome.placement == ucsim_uopcache::PlacementKind::Fpwac && outcome.evicted > 0 {
                self.fill_port_cost + self.forced_move_cost
            } else {
                self.fill_port_cost
            };
        let start = self.fill_busy_until.max(self.fe_ready);
        self.fill_busy_until = start + cost;
        // Backlog beyond the accumulation buffer stalls the front end.
        let backlog = self.fill_busy_until.saturating_sub(self.fe_ready);
        let slack = self.acc_backlog * self.fill_port_cost.max(1);
        if backlog > slack {
            let stall = backlog - slack;
            self.fe_ready += stall;
            self.fill_stall_cycles += stall;
        }
    }

    /// Code region bound: store addresses below this are code writes
    /// (self-modifying code) and trigger invalidation probes.
    const CODE_CEILING: u64 = 0x1_0000_0000;

    /// Delivers all uops of one instruction to the back end, deferring
    /// the `fe_ready` back-pressure fold to the caller.
    ///
    /// `run_max` carries the largest queue-entry time seen so far in the
    /// current delivery run (0 at run start). Folding it into `fe_ready`
    /// once per *run* instead of once per instruction is what lets
    /// [`RunState::deliver_run`] batch whole uop-cache-entry and
    /// loop-cache runs; the fold is a monotone `max`, so deferring it is
    /// exact — except across a fill, which reads `fe_ready`. The one
    /// mid-run fill site is the SMC drain below, and it folds `run_max`
    /// in first, so a batched run and a per-instruction loop see
    /// byte-identical state everywhere it matters. Returns the uop count.
    #[inline]
    fn deliver_one(
        &mut self,
        inst: &DynInst,
        delivery: u64,
        source: UopSource,
        run_max: &mut u64,
    ) -> u32 {
        let tpl = self.kinds.template(inst.class, inst.uops);
        let n = tpl.len as usize;
        let mem_lat = inst
            .mem_addr
            .map(|a| self.mem.access(AccessKind::Data, a.line()))
            .unwrap_or(0);
        // Self-modifying code: a store into the code region invalidates
        // every uop cache entry and I-cache line it touches (paper Section
        // II-B4 — the design constraint motivating per-set SMC probes).
        if inst.class == ucsim_model::InstClass::Store {
            if let Some(a) = inst.mem_addr {
                if a.get() < Self::CODE_CEILING {
                    // The fill below reads `fe_ready`: settle the deferred
                    // back-pressure from earlier instructions in this run
                    // first (see the method comment).
                    self.fe_ready = self.fe_ready.max(*run_max);
                    self.smc_probes += 1;
                    self.smc_invalidated += self.oc.invalidate_icache_line(a.line()) as u64;
                    self.mem.invalidate_inst(a.line());
                    // Drain any in-flight entry build: its bytes may be stale.
                    if let Some(e) = self.threads[self.cur].acc.flush() {
                        self.fill(e);
                    }
                }
            }
        }
        let mut max_entered = delivery;
        for (slot, kind) in tpl.kinds[..n].iter().enumerate() {
            let identity = if self.staged_pos < self.staged_hashes.len() {
                let h = self.staged_hashes[self.staged_pos];
                self.staged_pos += 1;
                debug_assert_eq!(
                    h,
                    mix64(self.uop_seq ^ inst.pc.get().rotate_left(23) ^ (slot as u64) << 57),
                    "staged identity hash diverged from inline computation"
                );
                h
            } else {
                mix64(self.uop_seq ^ inst.pc.get().rotate_left(23) ^ (slot as u64) << 57)
            };
            self.uop_seq += 1;
            let lat = if kind.is_load() { mem_lat } else { 0 };
            let out = self.backend.admit(delivery, *kind, identity, lat);
            max_entered = max_entered.max(out.entered);
            if kind.is_branch() {
                self.last_branch_resolve = out.completed;
                // Misprediction latency (paper Section III-C): cycles from
                // branch fetch to detection, through the pipeline the
                // branch actually took. Front-end run-ahead queueing is
                // excluded (a decoupled fetch unit stalls when the queue
                // fills, so queue occupancy is not part of the branch's
                // own resolution path); the decoder path pays its decode
                // pipe on top — the uop cache's early-detection benefit.
                let exec_path = out.completed - out.dispatched;
                let front_depth = BASE_FRONT_DEPTH
                    + if source == UopSource::Decoder {
                        self.decode_latency
                    } else {
                        0
                    };
                self.last_branch_fetch_to_resolve = exec_path + front_depth;
            }
        }
        *run_max = (*run_max).max(max_entered);
        n as u32
    }

    /// Delivers a run of instructions that share one delivery cycle (a
    /// uop-cache entry's coverage, a loop-cache window, a carry-over)
    /// with the per-instruction counter bumps and `fe_ready` folds
    /// batched into per-run deltas. The fold is the queue back-pressure
    /// that stalls the front end.
    fn deliver_run(&mut self, insts: &[DynInst], delivery: u64, source: UopSource) {
        let mut run_max = 0u64;
        let mut uops: u64 = 0;
        for inst in insts {
            uops += self.deliver_one(inst, delivery, source, &mut run_max) as u64;
        }
        self.fe_ready = self.fe_ready.max(run_max);
        match source {
            UopSource::OpCache => self.oc_uops += uops,
            UopSource::Decoder => self.decoder_uops += uops,
            UopSource::LoopCache => self.loop_uops += uops,
        }
    }

    /// Installs a chunk of precomputed uop identity hashes, reclaiming
    /// the previous (fully consumed) chunk's buffer through the swap.
    /// `deliver_one` consumes them in uop order; the hashes are a pure
    /// function of `(uop_seq, pc, slot)`, so a worker thread can compute
    /// a chunk ahead of the sequential consumer (debug builds assert
    /// each staged hash against the inline computation).
    pub(crate) fn stage_hashes(&mut self, chunk: &mut Vec<u64>) {
        debug_assert!(
            self.staged_fully_consumed(),
            "staged a new hash chunk while {} hashes were still pending",
            self.staged_hashes.len() - self.staged_pos
        );
        std::mem::swap(&mut self.staged_hashes, chunk);
        self.staged_pos = 0;
    }

    /// Whether every staged hash has been consumed (chunk-boundary
    /// invariant of the parallel replay).
    pub(crate) fn staged_fully_consumed(&self) -> bool {
        self.staged_pos == self.staged_hashes.len()
    }

    /// Runs one prediction window of hardware thread `tid` through the
    /// pipeline.
    fn process_batch(&mut self, batch: &PwBatch, insts: &[DynInst], tid: usize) {
        debug_assert!(tid < self.threads.len());
        self.cur = tid;
        debug_assert!(!insts.is_empty());

        // Feed the fetch-directed prefetcher with the predicted PW line.
        self.prefetcher
            .observe_pw(batch.pw.start.line(), &mut self.mem);

        // --- Loop cache: serve a captured tight loop without touching the
        // OC or the decoder. The window summary (uop total, taken target)
        // is only computed when a loop cache exists — it feeds nothing
        // else, and summing uops per window is pure hot-loop tax when the
        // structure is configured off.
        if self.loop_cache.enabled() && batch.mispredict.is_none() {
            let taken_target = if batch.pw.ends_in_taken_branch {
                insts.last().and_then(|i| i.branch).map(|b| b.target)
            } else {
                None
            };
            let window_uops: u32 = insts.iter().map(|i| i.uops as u32).sum();
            if self.loop_cache.observe_window(
                batch.pw.start,
                batch.pw.end,
                window_uops,
                taken_target,
            ) {
                self.switch_to(Path::LoopCache);
                let t = self.fe_ready;
                self.fe_ready += 1;
                self.deliver_run(insts, t, UopSource::LoopCache);
                let timer = ucsim_obs::stage_start(Stage::Retire);
                self.end_of_batch(batch);
                timer.stop();
                return;
            }
        }

        // --- Main fetch walk.
        let mut idx = 0;

        // Carry-over: a previously dispatched entry covered the start of
        // this window (entry built across sequential PWs).
        if let Some(c) = self.threads[self.cur].carry {
            if insts[0].pc == c.expect {
                while idx < insts.len() && insts[idx].pc.get() < c.until.get() {
                    idx += 1;
                }
                self.deliver_run(&insts[..idx], c.time, UopSource::OpCache);
                if idx < insts.len() {
                    self.threads[self.cur].carry = None;
                } else {
                    // Whole window covered; extend expectation.
                    let last = insts[insts.len() - 1];
                    self.threads[self.cur].carry = Some(Carry {
                        until: c.until,
                        time: c.time,
                        expect: last.end(),
                    });
                }
            } else {
                self.threads[self.cur].carry = None;
            }
        }

        while idx < insts.len() {
            let cursor = insts[idx].pc;
            self.energy.oc_lookups += 1;
            let timer = ucsim_obs::stage_start(Stage::UcLookup);
            let looked_up = self.oc.lookup(cursor);
            if let Some(entry) = looked_up {
                self.switch_to(Path::OpCache);
                let t = self.fe_ready;
                self.fe_ready += 1; // one entry per cycle
                let mut j = idx;
                while j < insts.len() && insts[j].pc.get() < entry.end.get() {
                    j += 1;
                }
                self.deliver_run(&insts[idx..j], t, UopSource::OpCache);
                if j >= insts.len() {
                    let last = insts[insts.len() - 1];
                    if entry.end.get() > last.end().get()
                        && batch.mispredict.is_none()
                        && !batch.pw.ends_in_taken_branch
                    {
                        // Entry covers into the next sequential window.
                        self.threads[self.cur].carry = Some(Carry {
                            until: entry.end,
                            time: t,
                            expect: last.end(),
                        });
                    }
                }
                timer.stop();
                idx = j;
            } else {
                timer.stop();
                // IC path for the remainder of the window.
                let timer = ucsim_obs::stage_start(Stage::Decode);
                self.ic_path(&insts[idx..], batch);
                timer.stop();
                idx = insts.len();
            }
        }

        let timer = ucsim_obs::stage_start(Stage::Retire);
        self.end_of_batch(batch);
        timer.stop();
    }

    fn ic_path(&mut self, insts: &[DynInst], batch: &PwBatch) {
        self.switch_to(Path::Icache);
        let pw_id = batch.pw.id;
        let ends_taken = batch.pw.ends_in_taken_branch;
        let total = insts.len();
        let mut line_cursor = None;
        let mut i = 0;
        while i < total {
            let group_end = (i + self.decode_width).min(total);
            // Demand-fetch the I-cache lines of this group.
            for inst in &insts[i..group_end] {
                let l = inst.pc.line();
                if Some(l) != line_cursor {
                    let lat = self.mem.access(AccessKind::Fetch, l);
                    self.energy.icache_accesses += 1;
                    if lat > self.l1_latency {
                        // Miss: bubble for the beyond-L1 latency.
                        self.fe_ready += (lat - self.l1_latency) as u64;
                    }
                    line_cursor = Some(l);
                }
            }
            let base = self.fe_ready;
            self.fe_ready += 1; // one decode group per cycle
            self.energy.decoder_active_cycles += 1;
            let delivery = base + self.decode_latency;
            for (j, inst) in insts[i..group_end].iter().enumerate() {
                let is_last = i + j == total - 1;
                let pred_taken = is_last && ends_taken;
                self.deliver_run(std::slice::from_ref(inst), delivery, UopSource::Decoder);
                self.energy.decoded_insts += 1;
                for e in self.threads[self.cur].acc.push(inst, pw_id, pred_taken) {
                    self.fill(e);
                }
            }
            i = group_end;
        }
    }

    fn end_of_batch(&mut self, batch: &PwBatch) {
        if batch.mispredict.is_some() {
            let resolve = self.last_branch_resolve;
            self.mispredicts += 1;
            self.mispredict_latency_sum += self.last_branch_fetch_to_resolve;
            self.fe_ready = self.fe_ready.max(resolve + self.redirect_penalty);
            self.threads[self.cur].carry = None;
            if let Some(e) = self.threads[self.cur].acc.flush() {
                self.fill(e);
            }
        }
        if batch.decode_redirect {
            self.fe_ready += self.decode_redirect_penalty;
        }
        if batch.btb_promote {
            self.fe_ready += self.btb_promote_penalty;
        }
    }

    /// Builds the report. `bpu` covers the measurement window, or every
    /// instruction when the window never opened, so `bpu.insts` is the
    /// measured instruction count either way.
    pub(crate) fn finish(mut self, workload: &str, bpu: BpuStats, cfg: &SimConfig) -> SimReport {
        // Close any open entries so their stats are recorded.
        for t in 0..self.threads.len() {
            if let Some(e) = self.threads[t].acc.flush() {
                self.fill(e);
            }
        }
        let cycles = self
            .backend
            .last_retire_time()
            .saturating_sub(self.cycle_base)
            .max(1);
        let (uops_now, busy_now) = self.backend.counters();
        let uops = uops_now - self.uops_base;
        let busy = (busy_now - self.busy_base).max(1);
        let oc_stats = self.oc.stats().clone();
        let (coverage_total_bytes, coverage_unique_bytes) = self.oc.coverage();
        // Structure-counter deltas for the active job profile, if any
        // (no-ops otherwise). Reads finished stats only.
        ucsim_obs::counter_add(ucsim_obs::Counter::OcHits, oc_stats.hits);
        ucsim_obs::counter_add(
            ucsim_obs::Counter::OcMisses,
            oc_stats.lookups - oc_stats.hits,
        );
        ucsim_obs::counter_add(ucsim_obs::Counter::OcEvictions, oc_stats.evicted_entries);
        ucsim_obs::counter_add(
            ucsim_obs::Counter::OcCompactions,
            oc_stats.placement_counts.compacted(),
        );
        ucsim_obs::counter_add(ucsim_obs::Counter::PwsDispatched, bpu.pws);
        let entries_per_pw = self.oc.stats_mut().entries_per_pw_dist();
        let supply = (self.oc_uops + self.decoder_uops).max(1);
        SimReport {
            workload: workload.to_owned(),
            insts: bpu.insts,
            uops,
            cycles,
            upc: uops as f64 / cycles as f64,
            dispatch_bw: uops as f64 / busy as f64,
            oc_uops: self.oc_uops,
            decoder_uops: self.decoder_uops,
            loop_uops: self.loop_uops,
            oc_fetch_ratio: self.oc_uops as f64 / supply as f64,
            oc_hit_rate: oc_stats.hit_rate(),
            interior_misses: oc_stats.interior_misses,
            oc_lookup_misses: oc_stats.lookups - oc_stats.hits,
            mispredicts: self.mispredicts,
            direction_mispredicts: bpu.direction_mispredicts,
            target_mispredicts: bpu.target_mispredicts,
            decode_redirects: bpu.decode_redirects,
            mpki: bpu.mpki(),
            avg_mispredict_latency: if self.mispredicts == 0 {
                0.0
            } else {
                self.mispredict_latency_sum as f64 / self.mispredicts as f64
            },
            decoder_power: self.energy.decoder_power(&cfg.power, cycles),
            front_end_power: self.energy.front_end_power(&cfg.power, cycles),
            decoded_insts: self.energy.decoded_insts,
            energy: self.energy,
            entry_size_dist: oc_stats.entry_size_fractions(),
            taken_term_frac: oc_stats.taken_branch_term_frac(),
            term_fracs: {
                let mut t = [0.0; 8];
                for r in ucsim_model::EntryTermination::ALL {
                    t[r.index()] = oc_stats.term_frac(r);
                }
                t
            },
            mean_entry_uops: oc_stats.mean_entry_uops(),
            spanning_frac: oc_stats.spanning_frac(),
            entries_per_pw,
            compacted_fill_frac: oc_stats.compacted_fill_frac(),
            compaction_dist: oc_stats.compaction_technique_dist(),
            oc_fills: oc_stats.fills,
            mean_entry_bytes: oc_stats.mean_entry_bytes(),
            resident_uops_end: self.oc.resident_uops(),
            valid_lines_end: self.oc.valid_lines() as u64,
            resident_entries_end: self.oc.resident_entries() as u64,
            smc_probes: self.smc_probes,
            smc_invalidated_entries: self.smc_invalidated,
            fill_stall_cycles: self.fill_stall_cycles,
            coverage_total_bytes,
            coverage_unique_bytes,
            mem: self.mem.stats(),
        }
    }
}

impl PwSink for RunState {
    fn begin_measurement(&mut self) {
        self.oc.stats_mut().reset();
        self.mem.reset_stats();
        self.prefetcher.reset_stats();
        self.loop_cache.reset_stats();
        self.oc_uops = 0;
        self.decoder_uops = 0;
        self.loop_uops = 0;
        self.mispredicts = 0;
        self.mispredict_latency_sum = 0;
        self.energy = FrontEndEnergy::default();
        self.smc_probes = 0;
        self.smc_invalidated = 0;
        self.fill_stall_cycles = 0;
        self.cycle_base = self.backend.last_retire_time();
        let (uops, busy) = self.backend.counters();
        self.uops_base = uops;
        self.busy_base = busy;
    }

    fn window(&mut self, batch: &PwBatch, insts: &[DynInst], tid: usize) {
        self.process_batch(batch, insts, tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucsim_uopcache::{CompactionPolicy, UopCacheConfig};

    fn run_with(oc: UopCacheConfig) -> SimReport {
        let profile = WorkloadProfile::quick_test();
        let program = Program::generate(&profile);
        let cfg = SimConfig::table1().with_uop_cache(oc).quick();
        Simulator::new(cfg).run(&profile, &program)
    }

    #[test]
    fn baseline_run_is_sane() {
        let r = run_with(UopCacheConfig::baseline_2k());
        assert!(r.upc > 0.3 && r.upc < 6.0, "UPC {}", r.upc);
        assert!(r.oc_fetch_ratio > 0.0 && r.oc_fetch_ratio <= 1.0);
        assert!(r.cycles > 0);
        assert!(r.uops >= r.insts);
        assert!(r.decoded_insts > 0);
        assert!(r.oc_fills > 0);
        assert!(r.mean_entry_bytes > 0.0);
    }

    #[test]
    fn trace_replay_matches_regeneration() {
        use ucsim_model::ToJson;
        let profile = WorkloadProfile::quick_test();
        let program = Program::generate(&profile);
        let cfg = SimConfig::table1().quick();
        let sim = Simulator::new(cfg.clone());
        let walked = sim.run(&profile, &program);
        let trace =
            ucsim_trace::record_workload(&profile, &program, cfg.warmup_insts + cfg.measure_insts);
        let replayed = sim.run_trace(profile.name, &trace);
        assert_eq!(
            walked.to_json_string(),
            replayed.to_json_string(),
            "replayed report must be byte-identical canonical JSON"
        );
    }

    #[test]
    fn cancellable_run_matches_plain_run_when_uncancelled() {
        use ucsim_model::{CancelToken, ToJson};
        let profile = WorkloadProfile::quick_test();
        let program = Program::generate(&profile);
        let cfg = SimConfig::table1().quick();
        let sim = Simulator::new(cfg.clone());
        let plain = sim.run(&profile, &program);
        let trace =
            ucsim_trace::record_workload(&profile, &program, cfg.warmup_insts + cfg.measure_insts);
        let cancellable = sim
            .run_slice_cancellable(profile.name, &*trace, &CancelToken::new())
            .expect("un-cancelled run completes");
        assert_eq!(
            plain.to_json_string(),
            cancellable.to_json_string(),
            "cancellable path must be byte-identical when the token never fires"
        );
    }

    #[test]
    fn pre_cancelled_run_stops_immediately() {
        use ucsim_model::CancelToken;
        let profile = WorkloadProfile::quick_test();
        let program = Program::generate(&profile);
        let cfg = SimConfig::table1().quick();
        let token = CancelToken::new();
        token.cancel();
        let total = cfg.warmup_insts + cfg.measure_insts;
        let trace = ucsim_trace::record_workload(&profile, &program, total);
        let r = Simulator::new(cfg).run_slice_cancellable(profile.name, &*trace, &token);
        assert_eq!(r.err(), Some(Cancelled));
    }

    #[test]
    fn determinism_across_runs() {
        let a = run_with(UopCacheConfig::baseline_2k());
        let b = run_with(UopCacheConfig::baseline_2k());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.uops, b.uops);
        assert_eq!(a.oc_uops, b.oc_uops);
        assert_eq!(a.mispredicts, b.mispredicts);
    }

    #[test]
    fn bigger_cache_fetches_more_from_oc() {
        let small = run_with(UopCacheConfig::baseline_2k());
        let big = run_with(UopCacheConfig::baseline_with_capacity(65536));
        assert!(
            big.oc_fetch_ratio >= small.oc_fetch_ratio,
            "64K ratio {} < 2K ratio {}",
            big.oc_fetch_ratio,
            small.oc_fetch_ratio
        );
        assert!(big.decoder_power <= small.decoder_power * 1.001);
    }

    #[test]
    fn clasp_does_not_regress() {
        let base = run_with(UopCacheConfig::baseline_2k());
        let clasp = run_with(UopCacheConfig::baseline_2k().with_clasp());
        // CLASP produces spanning entries; baseline cannot.
        assert_eq!(base.spanning_frac, 0.0);
        assert!(clasp.spanning_frac > 0.0);
    }

    #[test]
    fn compaction_compacts() {
        // quick-test's footprint fits the 2K cache (no steady-state
        // fills), so use a capacity-pressured Table II workload.
        let profile = WorkloadProfile::by_name("bm-lla").expect("table2 profile");
        let program = Program::generate(&profile);
        let cfg = SimConfig::table1()
            .with_uop_cache(
                UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2),
            )
            .quick();
        let r = Simulator::new(cfg).run(&profile, &program);
        assert!(r.compacted_fill_frac > 0.0, "some fills must compact");
        let (rac, pwac, fpwac) = r.compaction_dist;
        assert!(rac + pwac + fpwac > 0.99);
    }

    #[test]
    fn loop_cache_serves_uops_when_enabled() {
        let profile = WorkloadProfile::quick_test();
        let program = Program::generate(&profile);
        let mut cfg = SimConfig::table1().quick();
        cfg.core.loop_cache_uops = 32;
        let r = Simulator::new(cfg).run(&profile, &program);
        // quick_test has loops; at least some should be captured.
        assert!(r.loop_uops > 0, "loop cache never engaged");
    }

    #[test]
    fn slow_fill_port_stalls_the_front_end() {
        let profile = WorkloadProfile::by_name("bm-lla").expect("table2");
        let program = Program::generate(&profile);
        let fast = SimConfig::table1().quick();
        let mut slow = SimConfig::table1().quick();
        slow.core.fill_port_cost = 12;
        slow.core.acc_backlog = 0;
        let rf = Simulator::new(fast).run(&profile, &program);
        let rs = Simulator::new(slow).run(&profile, &program);
        assert_eq!(rf.fill_stall_cycles, 0, "default backlog absorbs fills");
        assert!(
            rs.fill_stall_cycles > 0,
            "pathological fill port must stall"
        );
        assert!(rs.cycles > rf.cycles, "stalls cost cycles");
    }

    #[test]
    fn mispredict_latency_is_positive() {
        let r = run_with(UopCacheConfig::baseline_2k());
        assert!(r.mispredicts > 0, "quick_test has noisy branches");
        assert!(
            r.avg_mispredict_latency > 3.0,
            "{}",
            r.avg_mispredict_latency
        );
        assert!(r.mpki > 0.0);
    }
}
