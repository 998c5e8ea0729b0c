//! The prediction-window generator: the heart of the decoupled front end.
//!
//! Walks the architecturally-correct dynamic instruction stream (through
//! an [`InstWindow`]) and produces [`PwBatch`]es — prediction windows
//! whose sequence numbers index that stream, plus any branch-prediction
//! events attached to them. The pipeline (in `ucsim-pipeline`) consumes them;
//! the uop cache is indexed by PW start addresses exactly as the paper
//! describes (Section II-B3).
//!
//! ## Wrong-path modeling
//!
//! Like the paper's own trace-driven simulator, we cannot fetch wrong
//! paths. A mispredicted branch terminates its PW with
//! [`PwTermination::Redirect`] and carries a [`Mispredict`] marker; the
//! pipeline stalls uop supply past the branch until it resolves in the
//! back end, which reproduces the *latency* effect of the flush (this is
//! the effect measured in the paper's Figure 4/17 misprediction-latency
//! curves).

use ucsim_model::{Addr, DynInst, InstClass, PredictionWindow, PwId, PwTermination};

use crate::btb::BtbOutcome;
use crate::{BpuConfig, BranchKind, Btb, InstWindow, ReturnAddressStack, Tage};

/// A misprediction attached to the final branch of a PW.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mispredict {
    /// Direction mispredict of a conditional branch.
    Direction,
    /// Target mispredict (indirect jump or return).
    Target,
}

/// Counters for the whole BPU + PW generation.
#[derive(Debug, Clone, Copy, Default)]
pub struct BpuStats {
    /// Dynamic instructions consumed.
    pub insts: u64,
    /// PWs emitted.
    pub pws: u64,
    /// Conditional branches seen.
    pub cond_branches: u64,
    /// Actually-taken branches (any kind).
    pub taken_branches: u64,
    /// Conditional direction mispredictions.
    pub direction_mispredicts: u64,
    /// Indirect/return target mispredictions.
    pub target_mispredicts: u64,
    /// Taken branches discovered only at decode (BTB miss).
    pub decode_redirects: u64,
}

impl BpuStats {
    /// Branch mispredictions (direction + target) per kilo-instruction —
    /// the Table II metric.
    pub fn mpki(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            (self.direction_mispredicts + self.target_mispredicts) as f64 / self.insts as f64
                * 1000.0
        }
    }
}

/// Sums per-thread counters into one combined report (SMT).
impl std::ops::AddAssign for BpuStats {
    fn add_assign(&mut self, o: BpuStats) {
        self.insts += o.insts;
        self.pws += o.pws;
        self.cond_branches += o.cond_branches;
        self.taken_branches += o.taken_branches;
        self.direction_mispredicts += o.direction_mispredicts;
        self.target_mispredicts += o.target_mispredicts;
        self.decode_redirects += o.decode_redirects;
    }
}

/// All predictor state plus the per-window event flags: the state
/// machine [`SlicePwGen`] drives one instruction at a time.
#[derive(Debug)]
struct PredictorCore {
    cfg: BpuConfig,
    tage: Tage,
    btb: Btb,
    ras: ReturnAddressStack,
    stats: BpuStats,
    /// Taken branch discovered only at decode (BTB miss), this window.
    decode_redirect: bool,
    /// BTB L2→L1 promotion bubble, this window.
    btb_promote: bool,
}

/// How one instruction step affects the window being built.
enum StepOutcome {
    /// Keep extending the window.
    Continue,
    /// The window ends at this instruction.
    End {
        termination: PwTermination,
        ends_taken: bool,
        mispredict: Option<Mispredict>,
    },
}

impl PredictorCore {
    fn new(cfg: BpuConfig) -> Self {
        PredictorCore {
            tage: Tage::new(cfg.tage.clone()),
            btb: Btb::new(
                cfg.btb_l1_set_bits,
                cfg.btb_l1_ways,
                cfg.btb_l2_set_bits,
                cfg.btb_l2_ways,
            ),
            ras: ReturnAddressStack::new(cfg.ras_depth),
            cfg,
            stats: BpuStats::default(),
            decode_redirect: false,
            btb_promote: false,
        }
    }

    fn reset_stats(&mut self) {
        self.stats = BpuStats::default();
        self.tage.reset_stats();
        self.btb.reset_stats();
    }

    /// One instruction's effect on the window being built: branch
    /// prediction/training if it is a branch, then the I-cache line
    /// boundary check. `pw_line_end` is the line boundary the window may
    /// not cross; `nt_count` counts correctly-predicted not-taken
    /// branches in this window.
    #[inline]
    fn step(&mut self, cur: &DynInst, pw_line_end: Addr, nt_count: &mut u32) -> StepOutcome {
        self.stats.insts += 1;
        if let Some(exec) = cur.branch {
            if exec.taken {
                self.stats.taken_branches += 1;
            }
            match self.process_branch(cur, exec.taken, exec.target, nt_count) {
                BranchVerdict::Continue => {
                    // Correctly-predicted not-taken branch: PW goes on
                    // unless the NT budget is exhausted.
                    if *nt_count >= self.cfg.max_not_taken_per_pw {
                        return StepOutcome::End {
                            termination: PwTermination::MaxNotTakenBranches,
                            ends_taken: false,
                            mispredict: None,
                        };
                    }
                }
                BranchVerdict::PredictedTaken => {
                    return StepOutcome::End {
                        termination: PwTermination::TakenBranch,
                        ends_taken: true,
                        mispredict: None,
                    };
                }
                BranchVerdict::Mispredicted {
                    believed_taken,
                    kind,
                } => {
                    return StepOutcome::End {
                        termination: PwTermination::Redirect,
                        ends_taken: believed_taken,
                        mispredict: Some(kind),
                    };
                }
            }
        }
        // I-cache line boundary check (paper Figure 2): the PW never
        // proceeds past the end of the line it started in.
        if cur.end().get() >= pw_line_end.get() {
            return StepOutcome::End {
                termination: PwTermination::IcacheLineEnd,
                ends_taken: false,
                mispredict: None,
            };
        }
        StepOutcome::Continue
    }
}

/// One prediction window: the descriptor and the branch events the
/// pipeline charges for. It borrows nothing: the window's instructions
/// are `pw.inst_count` entries of the walked stream from `pw.first_seq`
/// on ([`PwBatch::insts`], [`SlicePwGen::insts`]), so a recording of
/// batches is just a `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PwBatch {
    /// The window descriptor.
    pub pw: PredictionWindow,
    /// Misprediction on the final branch, if any.
    pub mispredict: Option<Mispredict>,
    /// Taken branch discovered only at decode (BTB miss in both levels).
    pub decode_redirect: bool,
    /// BTB L2→L1 promotion bubble.
    pub btb_promote: bool,
}

impl PwBatch {
    /// The instructions this window covers, in fetch order, out of the
    /// slice the generator walked.
    pub fn insts<'a>(&self, walked: &'a [DynInst]) -> &'a [DynInst] {
        &walked[self.pw.first_seq as usize..self.pw.end_seq() as usize]
    }
}

/// The prediction-window generator: walks the correct-path instruction
/// stream through the TAGE/BTB/RAS state machine and emits each window as
/// a [`PwBatch`] whose sequence numbers index that stream.
///
/// The generator reads its stream through one [`InstWindow`] of at most
/// [`InstWindow::CAPACITY`] instructions, slid forward before each
/// prediction window, so it never holds the whole stream:
/// [`SlicePwGen::new`] walks a borrowed slice, [`SlicePwGen::over`] any
/// `DynInst` iterator (a trace walker, a packed recording).
/// [`SlicePwGen::insts`] lends the window's instructions of the batch
/// just produced.
///
/// # Example
///
/// ```
/// use ucsim_bpu::{BpuConfig, SlicePwGen};
/// use ucsim_model::{Addr, BranchExec, DynInst, InstClass};
///
/// // Two insts then a taken branch: one PW ending in the branch.
/// let insts = vec![
///     DynInst::simple(Addr::new(0x1000), 4, InstClass::IntAlu),
///     DynInst::branch(Addr::new(0x1004), 2, InstClass::JumpDirect,
///                     BranchExec { taken: true, target: Addr::new(0x2000) }),
///     DynInst::simple(Addr::new(0x2000), 4, InstClass::IntAlu),
/// ];
/// let mut gen = SlicePwGen::new(BpuConfig::default(), &insts);
/// let batch = gen.next_batch().unwrap();
/// assert!(batch.pw.ends_in_taken_branch);
/// assert_eq!(batch.insts(&insts).len(), 2);
/// assert_eq!(gen.insts(&batch), batch.insts(&insts));
/// let batch2 = gen.next_batch().unwrap();
/// assert_eq!(batch2.pw.start, Addr::new(0x2000));
/// ```
#[derive(Debug)]
pub struct SlicePwGen<I> {
    core: PredictorCore,
    window: InstWindow<I>,
    /// Global sequence number of the next instruction.
    pos: u64,
    next_pw_id: u64,
}

impl<'a> SlicePwGen<std::iter::Copied<std::slice::Iter<'a, DynInst>>> {
    /// Creates a generator over a borrowed correct-path instruction slice.
    pub fn new(cfg: BpuConfig, insts: &'a [DynInst]) -> Self {
        SlicePwGen::over(cfg, insts.iter().copied())
    }
}

impl<I: Iterator<Item = DynInst>> SlicePwGen<I> {
    /// Creates a generator over a correct-path instruction stream.
    pub fn over(cfg: BpuConfig, src: I) -> Self {
        SlicePwGen {
            core: PredictorCore::new(cfg),
            window: InstWindow::new(src),
            pos: 0,
            next_pw_id: 0,
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BpuStats {
        self.core.stats
    }

    /// Resets counters (not predictor state) at the warmup boundary.
    pub fn reset_stats(&mut self) {
        self.core.reset_stats();
    }

    /// Slides the window to the next prediction window's start (see
    /// [`InstWindow::slide_to`]). [`Self::next_batch`] does this itself;
    /// calling it first keeps the refill out of a timed `next_batch`.
    #[inline]
    pub fn slide(&mut self) {
        self.window.slide_to(self.pos);
    }

    /// The instructions of `batch`, the window [`Self::next_batch`]
    /// returned last.
    pub fn insts(&self, batch: &PwBatch) -> &[DynInst] {
        self.window.span(batch.pw.first_seq, batch.pw.end_seq())
    }

    /// Produces the next prediction window, or `None` at stream end.
    pub fn next_batch(&mut self) -> Option<PwBatch> {
        self.window.slide_to(self.pos);
        let first = self.window.get(self.pos)?;
        self.core.decode_redirect = false;
        self.core.btb_promote = false;

        let start = self.pos;
        let pw_line_end = first.pc.line().end();
        let termination;
        let mut ends_taken = false;
        let mut mispredict = None;
        let mut nt_count = 0u32;
        let mut cur = first;

        loop {
            self.pos += 1;
            match self.core.step(&cur, pw_line_end, &mut nt_count) {
                StepOutcome::Continue => {}
                StepOutcome::End {
                    termination: t,
                    ends_taken: et,
                    mispredict: m,
                } => {
                    termination = t;
                    ends_taken = et;
                    mispredict = m;
                    break;
                }
            }
            match self.window.get(self.pos) {
                Some(next) => {
                    debug_assert_eq!(
                        next.pc,
                        cur.end(),
                        "non-branch instructions must be sequential"
                    );
                    cur = next;
                }
                None => {
                    termination = PwTermination::Redirect;
                    break;
                }
            }
        }

        let pw = PredictionWindow {
            id: PwId(self.next_pw_id),
            start: first.pc,
            end: cur.end(),
            first_seq: start,
            inst_count: (self.pos - start) as u32,
            termination,
            ends_in_taken_branch: ends_taken,
        };
        self.next_pw_id += 1;
        self.core.stats.pws += 1;

        Some(PwBatch {
            pw,
            mispredict,
            decode_redirect: self.core.decode_redirect,
            btb_promote: self.core.btb_promote,
        })
    }
}

impl PredictorCore {
    fn process_branch(
        &mut self,
        inst: &DynInst,
        actual_taken: bool,
        actual_target: Addr,
        nt_count: &mut u32,
    ) -> BranchVerdict {
        let pc = inst.pc;
        let fallthrough = inst.end();
        match inst.class {
            InstClass::CondBranch => {
                self.stats.cond_branches += 1;
                let pred = self.tage.predict(pc);
                self.tage.update(pc, actual_taken, pred);
                let (btb_outcome, _) = self.btb.lookup(pc);
                self.btb.update(pc, BranchKind::Conditional, actual_target);
                if pred != actual_taken {
                    self.stats.direction_mispredicts += 1;
                    return BranchVerdict::Mispredicted {
                        believed_taken: pred,
                        kind: Mispredict::Direction,
                    };
                }
                if pred {
                    // Correctly predicted taken: needs a target from BTB.
                    match btb_outcome {
                        BtbOutcome::Miss => {
                            self.stats.decode_redirects += 1;
                            self.decode_redirect = true;
                        }
                        BtbOutcome::L2Hit => self.btb_promote = true,
                        BtbOutcome::L1Hit => {}
                    }
                    BranchVerdict::PredictedTaken
                } else {
                    *nt_count += 1;
                    BranchVerdict::Continue
                }
            }
            InstClass::JumpDirect => {
                let (btb_outcome, _) = self.btb.lookup(pc);
                self.btb.update(pc, BranchKind::Direct, actual_target);
                match btb_outcome {
                    BtbOutcome::Miss => {
                        // Direct target is computed at decode: bubble only.
                        self.stats.decode_redirects += 1;
                        self.decode_redirect = true;
                    }
                    BtbOutcome::L2Hit => self.btb_promote = true,
                    BtbOutcome::L1Hit => {}
                }
                BranchVerdict::PredictedTaken
            }
            InstClass::Call => {
                let (btb_outcome, _) = self.btb.lookup(pc);
                self.btb.update(pc, BranchKind::Call, actual_target);
                self.ras.push(fallthrough);
                match btb_outcome {
                    BtbOutcome::Miss => {
                        self.stats.decode_redirects += 1;
                        self.decode_redirect = true;
                    }
                    BtbOutcome::L2Hit => self.btb_promote = true,
                    BtbOutcome::L1Hit => {}
                }
                BranchVerdict::PredictedTaken
            }
            InstClass::Ret => {
                let predicted = self.ras.pop();
                if predicted == Some(actual_target) {
                    BranchVerdict::PredictedTaken
                } else {
                    self.stats.target_mispredicts += 1;
                    self.btb.note_target_mispredict();
                    BranchVerdict::Mispredicted {
                        believed_taken: true,
                        kind: Mispredict::Target,
                    }
                }
            }
            InstClass::JumpIndirect => {
                let (btb_outcome, predicted) = self.btb.lookup(pc);
                self.btb.update(pc, BranchKind::Indirect, actual_target);
                match predicted {
                    Some(t) if t == actual_target => {
                        if btb_outcome == BtbOutcome::L2Hit {
                            self.btb_promote = true;
                        }
                        BranchVerdict::PredictedTaken
                    }
                    _ => {
                        self.stats.target_mispredicts += 1;
                        self.btb.note_target_mispredict();
                        BranchVerdict::Mispredicted {
                            believed_taken: true,
                            kind: Mispredict::Target,
                        }
                    }
                }
            }
            _ => unreachable!("process_branch called on non-branch {:?}", inst.class),
        }
    }
}

enum BranchVerdict {
    /// Correctly predicted not-taken: keep building the PW.
    Continue,
    /// Correctly predicted taken: PW ends here.
    PredictedTaken,
    /// Mispredicted: PW ends, pipeline charges resolution.
    Mispredicted {
        believed_taken: bool,
        kind: Mispredict,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucsim_model::BranchExec;

    fn alu(pc: u64, len: u8) -> DynInst {
        DynInst::simple(Addr::new(pc), len, InstClass::IntAlu)
    }

    fn jmp(pc: u64, target: u64) -> DynInst {
        DynInst::branch(
            Addr::new(pc),
            2,
            InstClass::JumpDirect,
            BranchExec {
                taken: true,
                target: Addr::new(target),
            },
        )
    }

    fn jcc(pc: u64, taken: bool, target: u64) -> DynInst {
        DynInst::branch(
            Addr::new(pc),
            2,
            InstClass::CondBranch,
            BranchExec {
                taken,
                target: Addr::new(target),
            },
        )
    }

    fn gen(insts: &[DynInst]) -> SlicePwGen<std::iter::Copied<std::slice::Iter<'_, DynInst>>> {
        SlicePwGen::new(BpuConfig::default(), insts)
    }

    #[test]
    fn straight_line_ends_at_icache_boundary() {
        // 16 4-byte insts from 0x1000 fill exactly one line.
        let mut insts: Vec<_> = (0..16).map(|i| alu(0x1000 + i * 4, 4)).collect();
        insts.extend((0..4).map(|i| alu(0x1040 + i * 4, 4)));
        let mut g = gen(&insts);
        let b = g.next_batch().unwrap();
        assert_eq!(b.pw.termination, PwTermination::IcacheLineEnd);
        assert_eq!(b.pw.start, Addr::new(0x1000));
        assert_eq!(b.pw.end, Addr::new(0x1040));
        assert_eq!(b.insts(&insts).len(), 16);
        let b2 = g.next_batch().unwrap();
        assert_eq!(b2.pw.start, Addr::new(0x1040));
    }

    #[test]
    fn pw_starting_mid_line_ends_at_same_boundary() {
        // Figure 2(b): start mid-line, terminate at line end.
        let insts: Vec<_> = (0..8).map(|i| alu(0x1020 + i * 4, 4)).collect();
        let mut g = gen(&insts);
        let b = g.next_batch().unwrap();
        assert_eq!(b.pw.start, Addr::new(0x1020));
        assert_eq!(b.pw.end, Addr::new(0x1040));
        assert_eq!(b.insts(&insts).len(), 8);
    }

    #[test]
    fn taken_branch_terminates_pw() {
        // Figure 2(c): predicted taken branch mid-line ends the PW. A
        // direct jump is statically taken, so no training needed.
        let insts = vec![alu(0x1000, 4), jmp(0x1004, 0x2000), alu(0x2000, 4)];
        let mut g = gen(&insts);
        let b = g.next_batch().unwrap();
        assert_eq!(b.pw.termination, PwTermination::TakenBranch);
        assert!(b.pw.ends_in_taken_branch);
        assert_eq!(b.insts(&insts).len(), 2);
        // First sighting of the jump: BTB cold → decode redirect bubble.
        assert!(b.decode_redirect);
        let b2 = g.next_batch().unwrap();
        assert!(!b2.decode_redirect, "trained BTB on second window");
        assert_eq!(b2.pw.start, Addr::new(0x2000));
    }

    #[test]
    fn max_not_taken_branches_terminates_pw() {
        // Train TAGE so three NT branches are correctly predicted, then
        // check the NT budget (default 3) ends the window.
        let block = || {
            vec![
                jcc(0x1000, false, 0x3000),
                jcc(0x1002, false, 0x3000),
                jcc(0x1004, false, 0x3000),
                alu(0x1006, 4),
                jmp(0x100a, 0x1000),
            ]
        };
        let mut insts = Vec::new();
        for _ in 0..50 {
            insts.extend(block());
        }
        let mut g = gen(&insts);
        // Skip warmup windows; inspect a late one starting at 0x1000.
        let mut found = false;
        for _ in 0..120 {
            match g.next_batch() {
                Some(b)
                    if b.pw.start == Addr::new(0x1000)
                        && b.pw.termination == PwTermination::MaxNotTakenBranches =>
                {
                    assert_eq!(b.insts(&insts).len(), 3, "ends right at the 3rd NT branch");
                    found = true;
                    break;
                }
                Some(_) => {}
                None => break,
            }
        }
        assert!(found, "never saw a MaxNotTakenBranches termination");
    }

    #[test]
    fn mispredicted_direction_flags_batch() {
        // A branch alternates T/NT with no warmup: first encounters
        // mispredict. Find at least one Direction mispredict.
        let insts = vec![alu(0x1000, 4), jcc(0x1004, true, 0x2000), alu(0x2000, 4)];
        let mut g = gen(&insts);
        let b = g.next_batch().unwrap();
        // Cold TAGE predicts not-taken (bimodal weakly taken is >= 0 ...)
        // Either way the flags must be consistent:
        match b.mispredict {
            Some(Mispredict::Direction) => {
                assert_eq!(b.pw.termination, PwTermination::Redirect);
            }
            None => {
                assert_eq!(b.pw.termination, PwTermination::TakenBranch);
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = g.stats();
        assert_eq!(s.cond_branches, 1);
    }

    #[test]
    fn return_predicted_by_ras() {
        let insts = vec![
            DynInst::branch(
                Addr::new(0x1000),
                5,
                InstClass::Call,
                BranchExec {
                    taken: true,
                    target: Addr::new(0x4000),
                },
            ),
            alu(0x4000, 4),
            DynInst::branch(
                Addr::new(0x4004),
                1,
                InstClass::Ret,
                BranchExec {
                    taken: true,
                    target: Addr::new(0x1005), // call fallthrough
                },
            ),
            alu(0x1005, 4),
        ];
        let mut g = gen(&insts);
        let _call = g.next_batch().unwrap();
        let body = g.next_batch().unwrap();
        assert!(body.mispredict.is_none(), "RAS must predict the return");
        assert_eq!(body.pw.termination, PwTermination::TakenBranch);
        assert_eq!(g.stats().target_mispredicts, 0);
    }

    #[test]
    fn corrupted_ras_mispredicts_return() {
        // Return without a matching call.
        let insts = vec![
            DynInst::branch(
                Addr::new(0x4004),
                1,
                InstClass::Ret,
                BranchExec {
                    taken: true,
                    target: Addr::new(0x1005),
                },
            ),
            alu(0x1005, 4),
        ];
        let mut g = gen(&insts);
        let b = g.next_batch().unwrap();
        assert_eq!(b.mispredict, Some(Mispredict::Target));
        assert_eq!(g.stats().target_mispredicts, 1);
    }

    #[test]
    fn indirect_jump_learns_target() {
        let hop = |_: u64| {
            vec![
                DynInst::branch(
                    Addr::new(0x1000),
                    3,
                    InstClass::JumpIndirect,
                    BranchExec {
                        taken: true,
                        target: Addr::new(0x5000),
                    },
                ),
                alu(0x5000, 4),
                jmp(0x5004, 0x1000),
            ]
        };
        let mut insts = Vec::new();
        for i in 0..4 {
            insts.extend(hop(i));
        }
        let mut g = gen(&insts);
        let first = g.next_batch().unwrap();
        assert_eq!(first.mispredict, Some(Mispredict::Target), "cold BTB");
        // Walk the rest; the indirect target should now be predicted.
        let mut later_mispredicts = 0;
        while let Some(b) = g.next_batch() {
            if b.pw.start == Addr::new(0x1000) && b.mispredict.is_some() {
                later_mispredicts += 1;
            }
        }
        assert_eq!(later_mispredicts, 0, "stable indirect target must train");
    }

    #[test]
    fn mpki_accounting() {
        let s = BpuStats {
            insts: 2000,
            direction_mispredicts: 8,
            target_mispredicts: 2,
            ..Default::default()
        };
        assert!((s.mpki() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn windows_tile_a_mixed_stream() {
        // A stressful mix: lines crossed, trained + cold branches, calls,
        // returns, indirect jumps, NT-budget loops.
        let mut insts = Vec::new();
        for round in 0..40u64 {
            insts.push(alu(0x1000, 4));
            insts.push(jcc(0x1004, round % 3 == 0, 0x2000));
            if round % 3 == 0 {
                insts.push(alu(0x2000, 4));
                insts.push(jmp(0x2004, 0x1008));
            } else {
                insts.push(alu(0x1006, 2));
            }
            insts.push(DynInst::branch(
                Addr::new(0x1008),
                5,
                InstClass::Call,
                BranchExec {
                    taken: true,
                    target: Addr::new(0x4000),
                },
            ));
            insts.push(alu(0x4000, 12));
            insts.push(DynInst::branch(
                Addr::new(0x400c),
                1,
                InstClass::Ret,
                BranchExec {
                    taken: true,
                    target: Addr::new(0x100d),
                },
            ));
            insts.push(jmp(0x100d, 0x1000));
        }

        let mut g = gen(&insts);
        let mut next_start = 0usize;
        let mut pws = 0u64;
        while let Some(b) = g.next_batch() {
            let covered = b.insts(&insts);
            assert_eq!(b.pw.first_seq, next_start as u64, "windows tile the slice");
            assert_eq!(b.pw.id, PwId(pws));
            assert!(!covered.is_empty());
            assert_eq!(b.pw.start, covered[0].pc);
            assert_eq!(b.pw.end, covered[covered.len() - 1].end());
            next_start = b.pw.end_seq() as usize;
            pws += 1;
        }
        assert_eq!(next_start, insts.len());
        let s = g.stats();
        assert_eq!(s.insts, insts.len() as u64);
        assert_eq!(s.pws, pws);
        assert!(
            s.direction_mispredicts > 0,
            "alternating branch mispredicts"
        );
    }

    #[test]
    fn a_window_that_never_reaches_its_line_end_grows_the_buffer() {
        // Zero-byte instructions never leave 0x1000's line: one window
        // covers the whole stream, far past the buffer's capacity.
        let n = 3 * InstWindow::<std::iter::Empty<DynInst>>::CAPACITY;
        let insts = vec![alu(0x1000, 0); n];
        let mut g = SlicePwGen::over(BpuConfig::default(), insts.iter().copied());
        let b = g.next_batch().unwrap();
        assert_eq!(b.pw.termination, PwTermination::Redirect);
        assert_eq!(b.pw.inst_count as usize, n);
        assert_eq!(g.insts(&b), &insts[..]);
        assert!(g.next_batch().is_none());
    }

    #[test]
    fn slides_keep_batches_and_their_insts_exact() {
        let mut insts = Vec::new();
        for round in 0..900u64 {
            insts.extend((0..5).map(|i| alu(0x1000 + i * 4, 4)));
            insts.push(jcc(0x1014, round % 4 == 0, 0x1000));
            if round % 4 != 0 {
                insts.push(jmp(0x1016, 0x1000));
            }
        }
        let mut windowed = SlicePwGen::over(BpuConfig::default(), insts.iter().copied());
        let mut sliced = gen(&insts);
        while let Some(b) = sliced.next_batch() {
            windowed.slide();
            let w = windowed.next_batch().unwrap();
            assert_eq!(w, b);
            assert_eq!(windowed.insts(&w), b.insts(&insts));
        }
        assert!(windowed.next_batch().is_none());
        assert!(insts.len() > 2 * InstWindow::<std::iter::Empty<DynInst>>::CAPACITY);
    }

    #[test]
    fn inst_crossing_line_boundary_ends_pw() {
        // 8-byte inst at 0x103c spills into the next line → PW ends there.
        let insts = vec![alu(0x1038, 4), alu(0x103c, 8), alu(0x1044, 4)];
        let mut g = gen(&insts);
        let b = g.next_batch().unwrap();
        assert_eq!(b.pw.termination, PwTermination::IcacheLineEnd);
        assert_eq!(b.insts(&insts).len(), 2);
        assert_eq!(b.pw.end, Addr::new(0x1044));
        let b2 = g.next_batch().unwrap();
        assert_eq!(b2.pw.start, Addr::new(0x1044));
    }
}
