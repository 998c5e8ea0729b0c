//! Record-once/replay-many at the prediction-window level.
//!
//! The front end is decoupled: [`ucsim_bpu::SlicePwGen`] consumes only
//! the architectural instruction stream and its own predictor state —
//! nothing downstream (uop cache, decoder, back end) ever feeds back into
//! it. Every cell of a sweep that shares the BPU configuration and run
//! length therefore sees the *same* sequence of prediction windows,
//! branch events, and BPU statistics. A [`PwTrace`] records that sequence
//! once per workload and replays it into each cell, so the per-cell cost
//! is the uop-cache/decode/back-end simulation alone: the TAGE, BTB and
//! RAS work is paid once instead of `cells` times, on top of the
//! instruction stream itself already being shared via
//! [`ucsim_trace::SharedTrace`].
//!
//! A recording is a `Vec` of [`ucsim_bpu::PwBatch`]es, and replay feeds it
//! through the same run path and loop as a live run, so replayed reports
//! are byte-identical to [`crate::Simulator::run_trace`] for any
//! configuration whose front end [`PwTrace::matches`] the recording;
//! mismatched configurations must fall back to a full run.

use ucsim_bpu::{BpuStats, InstWindow, PwBatch, SlicePwGen};
use ucsim_isa::UopKindTable;
use ucsim_model::{mix64, DynInst, ToJson};
use ucsim_trace::SharedTrace;

use crate::sim::{drive, run, PwSink, RunState, Windows};
use crate::{SimConfig, SimReport};

/// A recorded prediction-window stream over a shared instruction trace.
#[derive(Debug, Clone)]
pub struct PwTrace {
    trace: SharedTrace,
    batches: Vec<PwBatch>,
    /// BPU counters over the measurement window (over everything when the
    /// run never reached the warmup boundary — exactly what
    /// [`crate::Simulator::run_trace`] reports in that degenerate case).
    bpu: BpuStats,
    warmup: u64,
    total: u64,
    /// Canonical JSON of the recorded BPU configuration, for
    /// [`Self::matches`].
    bpu_json: String,
}

impl PwTrace {
    /// Runs PW generation once over `trace` under `cfg`'s front end and
    /// run length, recording every window and the measurement-window BPU
    /// statistics.
    pub fn record(trace: &SharedTrace, cfg: &SimConfig) -> PwTrace {
        let total = cfg.warmup_insts + cfg.measure_insts;
        let mut batches = Vec::new();
        let gen = SlicePwGen::over(cfg.bpu.clone(), trace.iter().take(total as usize));
        let bpu = drive(cfg, &mut [gen], &mut batches, None).expect("never cancelled");
        PwTrace {
            trace: SharedTrace::clone(trace),
            batches,
            bpu,
            warmup: cfg.warmup_insts,
            total,
            bpu_json: cfg.bpu.to_json_string(),
        }
    }

    /// Whether `cfg` would produce exactly this PW stream: same front-end
    /// configuration and same warmup/total instruction budget.
    pub fn matches(&self, cfg: &SimConfig) -> bool {
        cfg.warmup_insts == self.warmup
            && cfg.warmup_insts + cfg.measure_insts == self.total
            && cfg.bpu.to_json_string() == self.bpu_json
    }

    /// Number of recorded prediction windows.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True when the recording holds no windows.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Replays the recorded windows through a fresh pipeline under `cfg`,
    /// producing a report byte-identical to
    /// [`crate::Simulator::run_trace`] with the same configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` does not [`Self::matches`] the recording, or if it
    /// fails [`SimConfig::check`].
    pub fn replay(&self, name: &str, cfg: &SimConfig) -> SimReport {
        self.replay_with(name, cfg, |st| st)
    }

    /// [`Self::replay`] with PW-granular intra-cell parallelism:
    /// byte-identical output, with `threads` workers offloading the
    /// parallelizable share of the hot loop.
    ///
    /// Nothing in the simulator, the bench binaries or the server calls
    /// this. It is kept, with its staged-hash support in `RunState`, only
    /// because the perfbench `pipeline.replay_par2_ns_per_inst` probe
    /// calls it. On a 2-vCPU host, `threads = 2` is 9–25% slower than
    /// [`Self::replay`] in the median at the default 200K+2M budget
    /// (redis, bm-cc, bm-pb; EXPERIMENTS.md), so the staged hashes do not
    /// pay for themselves there.
    ///
    /// The pipeline itself is a sequential dependency chain (every batch
    /// reads the uop cache, memory hierarchy and back end state its
    /// predecessor left behind), so it cannot be split without changing
    /// results. What *is* pure is the per-uop identity hash: a function
    /// of `(uop_seq, pc, slot)` only, and `uop_seq` is a prefix sum of
    /// per-instruction template lengths over the recorded trace. Workers
    /// therefore precompute the hash stream in batch-aligned chunks
    /// (two parallel passes: per-chunk uop counts, then the hashes from
    /// each chunk's prefix-sum base), and the sequential consumer stages
    /// each chunk into the pipeline (the `Staged` sink wrapper), which
    /// consumes one staged hash per uop instead of mixing inline. Debug
    /// builds assert every staged hash against the inline computation.
    ///
    /// `threads <= 1` (or a recording too small to chunk) falls back to
    /// the plain sequential [`Self::replay`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` does not [`Self::matches`] the recording, or if it
    /// fails [`SimConfig::check`].
    pub fn replay_parallel(&self, name: &str, cfg: &SimConfig, threads: usize) -> SimReport {
        let n_chunks = (threads * 4).min(self.batches.len());
        if threads <= 1 || n_chunks < 2 {
            return self.replay(name, cfg);
        }
        // Batch-aligned chunk bounds as instruction indices: chunk `k`
        // covers instructions `bounds[k]..bounds[k + 1]`. Batch ends
        // strictly increase, so the bounds do too.
        let mut bounds = Vec::with_capacity(n_chunks + 1);
        bounds.push(0usize);
        for k in 1..=n_chunks {
            let b_end = k * self.batches.len() / n_chunks;
            bounds.push(self.batches[b_end - 1].pw.end_seq() as usize);
        }

        let kinds = UopKindTable::get();
        // Pass 1: per-chunk uop counts, prefix-summed into per-chunk
        // `uop_seq` bases.
        let chunk = |k: usize| {
            self.trace
                .iter()
                .skip(bounds[k])
                .take(bounds[k + 1] - bounds[k])
        };
        let counts = ucsim_pool::run_indexed(n_chunks, threads, |k| {
            chunk(k)
                .map(|i| kinds.template(i.class, i.uops).len as u64)
                .sum::<u64>()
        });
        let mut bases = Vec::with_capacity(n_chunks);
        let mut acc = 0u64;
        for c in &counts {
            bases.push(acc);
            acc += c;
        }
        // Pass 2: the identity-hash stream of each chunk.
        let mut chunks = ucsim_pool::run_indexed(n_chunks, threads, |k| {
            let mut seq = bases[k];
            let mut v = Vec::with_capacity(counts[k] as usize);
            for inst in chunk(k) {
                let tpl = kinds.template(inst.class, inst.uops);
                for slot in 0..tpl.len as u64 {
                    v.push(mix64(seq ^ inst.pc.get().rotate_left(23) ^ (slot << 57)));
                    seq += 1;
                }
            }
            v
        });

        self.replay_with(name, cfg, |st| Staged {
            st,
            bounds: &bounds,
            chunks: &mut chunks,
            next: 0,
        })
    }

    /// Feeds the recorded windows through the one run path, into the
    /// pipeline as `sink` wraps it.
    fn replay_with<S: PwSink + Into<RunState>>(
        &self,
        name: &str,
        cfg: &SimConfig,
        sink: impl FnOnce(RunState) -> S,
    ) -> SimReport {
        assert!(
            self.matches(cfg),
            "config front end or run length differs from the recording"
        );
        let windows = Playback {
            batches: self.batches.iter(),
            window: InstWindow::new(self.trace.iter().take(self.total as usize)),
            bpu: self.bpu,
        };
        run(cfg, name, &mut [windows], None, sink).expect("never cancelled")
    }
}

/// A recorded window stream played back as one hardware thread, its
/// instructions expanded from the packed trace into a reused window.
struct Playback<'a> {
    batches: std::slice::Iter<'a, PwBatch>,
    window: InstWindow<std::iter::Take<ucsim_trace::Iter<'a>>>,
    /// The recording's counters, which already cover the measurement
    /// window.
    bpu: BpuStats,
}

impl Windows for Playback<'_> {
    fn slide(&mut self) {
        if let Some(next) = self.batches.as_slice().first() {
            self.window.slide_to(next.pw.first_seq);
        }
    }

    fn next_batch(&mut self) -> Option<PwBatch> {
        let batch = *self.batches.next()?;
        self.window.slide_to(batch.pw.first_seq);
        // Load through the window's last instruction: a window longer
        // than what is left in the buffer grows it.
        self.window.get(batch.pw.end_seq() - 1);
        Some(batch)
    }

    fn insts(&self, batch: &PwBatch) -> &[DynInst] {
        self.window.span(batch.pw.first_seq, batch.pw.end_seq())
    }

    fn begin_measurement(&mut self) {}

    fn stats(&self) -> BpuStats {
        self.bpu
    }
}

/// Recording is the simulation loop with the recording as its sink.
impl PwSink for Vec<PwBatch> {
    fn begin_measurement(&mut self) {}

    fn window(&mut self, batch: &PwBatch, _insts: &[DynInst], _tid: usize) {
        self.push(*batch);
    }
}

/// The pipeline with precomputed identity hashes
/// ([`PwTrace::replay_parallel`]): before the window starting at
/// instruction `bounds[k]` it stages `chunks[k]`.
struct Staged<'a> {
    st: RunState,
    bounds: &'a [usize],
    chunks: &'a mut [Vec<u64>],
    next: usize,
}

impl PwSink for Staged<'_> {
    fn begin_measurement(&mut self) {
        self.st.begin_measurement();
    }

    fn window(&mut self, batch: &PwBatch, insts: &[DynInst], tid: usize) {
        if self.next < self.chunks.len() && batch.pw.first_seq as usize == self.bounds[self.next] {
            self.st.stage_hashes(&mut self.chunks[self.next]);
            self.next += 1;
        }
        self.st.window(batch, insts, tid);
    }
}

impl From<Staged<'_>> for RunState {
    fn from(staged: Staged<'_>) -> RunState {
        debug_assert!(staged.st.staged_fully_consumed(), "hash chunks misaligned");
        staged.st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use ucsim_trace::{record_workload, Program, WorkloadProfile};

    fn quick_trace(total: u64) -> SharedTrace {
        let p = WorkloadProfile::quick_test();
        let prog = Program::generate(&p);
        record_workload(&p, &prog, total)
    }

    #[test]
    fn pw_replay_is_byte_identical_to_run_trace() {
        let cfg = SimConfig::table1().with_insts(2_000, 10_000);
        let trace = quick_trace(12_000);
        let pwt = PwTrace::record(&trace, &cfg);
        assert!(!pwt.is_empty());

        // Same config, and a different uop-cache config sharing the front
        // end — both must replay byte-identically.
        let mut clasp = cfg.clone();
        clasp.uop_cache.clasp = true;
        for c in [&cfg, &clasp] {
            let direct = Simulator::new((*c).clone()).run_trace("quick-test", &trace);
            let replayed = pwt.replay("quick-test", c);
            assert_eq!(replayed.to_json_string(), direct.to_json_string());
        }
    }

    #[test]
    fn parallel_replay_is_byte_identical() {
        let cfg = SimConfig::table1().with_insts(2_000, 10_000);
        let trace = quick_trace(12_000);
        let pwt = PwTrace::record(&trace, &cfg);
        let sequential = pwt.replay("quick-test", &cfg);
        for threads in [1, 2, 4] {
            let parallel = pwt.replay_parallel("quick-test", &cfg, threads);
            assert_eq!(
                parallel.to_json_string(),
                sequential.to_json_string(),
                "threads={threads} must not change the report"
            );
        }
    }

    #[test]
    fn mismatched_front_end_is_rejected() {
        let cfg = SimConfig::table1().with_insts(1_000, 4_000);
        let trace = quick_trace(5_000);
        let pwt = PwTrace::record(&trace, &cfg);
        let longer = SimConfig::table1().with_insts(1_000, 4_500);
        assert!(!pwt.matches(&longer));
        let mut other_bpu = cfg.clone();
        other_bpu.bpu.ras_depth += 8;
        assert!(!pwt.matches(&other_bpu));
        assert!(pwt.matches(&cfg));
    }

    #[test]
    fn degenerate_short_trace_still_matches_run_trace() {
        // Trace shorter than warmup: the measurement window never opens.
        let cfg = SimConfig::table1().with_insts(10_000, 10_000);
        let trace = quick_trace(3_000);
        let pwt = PwTrace::record(&trace, &cfg);
        let direct = Simulator::new(cfg.clone()).run_trace("quick-test", &trace);
        let replayed = pwt.replay("quick-test", &cfg);
        assert_eq!(replayed.to_json_string(), direct.to_json_string());
    }
}
