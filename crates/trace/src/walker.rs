//! Deterministic dynamic execution of a synthetic program.

use ucsim_model::{mix64, unit_from_bits, Addr, BranchExec, DynInst, SplitMix64, Zipf};

use crate::{Program, TermKind, WorkloadProfile};

/// Executes a [`Program`], yielding the architecturally-correct dynamic
/// instruction stream (an infinite iterator — bound it with `take`).
///
/// All branch outcomes, loop trip counts, indirect targets and data
/// addresses derive from stateless hashes of (branch seed, execution
/// count), so the trace is a pure function of the profile.
///
/// # Example
///
/// ```
/// use ucsim_trace::{Program, WorkloadProfile};
///
/// let p = WorkloadProfile::quick_test();
/// let prog = Program::generate(&p);
/// let a: Vec<_> = prog.walk(&p).take(500).collect();
/// let b: Vec<_> = prog.walk(&p).take(500).collect();
/// assert_eq!(a, b); // deterministic replay
/// ```
#[derive(Debug)]
pub struct TraceWalker<'p> {
    prog: &'p Program,
    p_smc_store: f64,
    func_zipf_s: f64,
    /// Dispatcher skew over the last indirect call's callee count.
    call_zipf: Zipf,
    phase_insts: Option<u64>,
    /// Skew over the data footprint's lines.
    data_zipf: Zipf,
    data_seed: u64,
    /// Call stack of resume block indices.
    stack: Vec<usize>,
    cur_block: usize,
    inst_idx: usize,
    /// Address of instruction `inst_idx` of `cur_block`.
    pc: Addr,
    /// Per-block dynamic state, indexed by arena block id.
    blocks: Vec<BlockState>,
    mem_count: u64,
    emitted: u64,
}

/// What the walker remembers about one block's terminator.
#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    /// Executions so far (outcome hashing).
    exec: u64,
    /// Loop back-edges: taken count left in this activation.
    trips_left: u64,
    /// Loop back-edges: activations so far.
    activations: u64,
}

impl Program {
    /// Creates a walker over this program using the profile's dynamic
    /// knobs (Zipf skew, phases, data footprint).
    pub fn walk<'p>(&'p self, profile: &WorkloadProfile) -> TraceWalker<'p> {
        TraceWalker {
            prog: self,
            p_smc_store: profile.p_smc_store,
            func_zipf_s: profile.func_zipf_s,
            call_zipf: Zipf::new(1, profile.func_zipf_s),
            phase_insts: profile.phase_insts,
            data_zipf: Zipf::new(profile.data_lines.max(1), profile.data_zipf_s),
            data_seed: mix64(profile.seed ^ 0xDA7A_5EED),
            stack: Vec::with_capacity(64),
            cur_block: self.funcs[0].entry_block,
            inst_idx: 0,
            pc: self.blocks[self.funcs[0].entry_block].start,
            blocks: vec![BlockState::default(); self.blocks.len()],
            mem_count: 0,
            emitted: 0,
        }
    }
}

/// Stateless geometric sample (mean `m`, min 1) from a hash.
fn hash_geometric(h: u64, m: f64) -> u64 {
    if m <= 1.0 {
        return 1;
    }
    let p = 1.0 / m;
    let u = unit_from_bits(h).max(f64::MIN_POSITIVE);
    ((u.ln() / (1.0 - p).ln()).floor() as u64 + 1).min(100_000)
}

impl TraceWalker<'_> {
    /// Number of instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn data_addr(&mut self, is_store: bool) -> Addr {
        self.mem_count += 1;
        let mut r = SplitMix64::new(mix64(self.data_seed ^ self.mem_count));
        if is_store && self.p_smc_store > 0.0 && r.chance(self.p_smc_store) {
            // Self-modifying code: the store targets the entry of some
            // function (JIT patching). The front end must invalidate every
            // cached uop derived from that I-cache line.
            let f = 1 + r.index(self.prog.funcs.len() - 1);
            return self.prog.blocks[self.prog.funcs[f].entry_block].start;
        }
        let line = self.data_zipf.sample(&mut r) as u64;
        // Data region sits far above code, seed-spaced like the code
        // region so SMT threads do not falsely share data lines.
        let base = 0x1_0000_0000 + (self.data_seed % 256) * 0x1000_0000;
        Addr::new(base + line * 64 + r.below(64))
    }

    fn current_phase(&self) -> u64 {
        match self.phase_insts {
            Some(p) if p > 0 => self.emitted / p,
            _ => 0,
        }
    }

    /// Emits the instruction at (cur_block, inst_idx) and advances control
    /// flow. Returns the emitted instruction.
    fn step(&mut self) -> DynInst {
        loop {
            let block = &self.prog.blocks[self.cur_block];
            if self.inst_idx < block.body.len() {
                // Body instruction.
                let s = block.body[self.inst_idx];
                let pc = self.pc;
                self.pc = pc.offset(s.len as u64);
                let mem = s
                    .class
                    .is_mem()
                    .then(|| self.data_addr(s.class == ucsim_model::InstClass::Store));
                self.inst_idx += 1;
                self.emitted += 1;
                return s.instantiate(pc, None, mem);
            }

            match &block.terminator {
                None => {
                    // Pure fall-through: next arena block.
                    self.cur_block += 1;
                    self.inst_idx = 0;
                    self.pc = self.prog.blocks[self.cur_block].start;
                    continue;
                }
                Some(term) => {
                    let pc = self.pc;
                    let fallthrough = block.id + 1;
                    let state = &mut self.blocks[block.id];
                    state.exec += 1;
                    let count = state.exec;
                    let (taken, target_block, target_addr, push, pop) = match &term.kind {
                        TermKind::CondForward {
                            target_block,
                            p_taken,
                            seed,
                        } => {
                            let taken =
                                unit_from_bits(mix64(seed ^ count.rotate_left(32))) < *p_taken;
                            let t_addr = self.prog.blocks[*target_block].start;
                            (taken, *target_block, t_addr, false, false)
                        }
                        TermKind::CondLoop {
                            target_block,
                            trip_mean,
                            seed,
                        } => {
                            if state.trips_left == 0 {
                                state.activations += 1;
                                // Real loops have mostly-stable trip counts:
                                // 90% of activations use the loop's base
                                // trip (learnable by TAGE), the rest
                                // re-draw (data-dependent exits).
                                let base = hash_geometric(mix64(*seed), *trip_mean);
                                let h = mix64(seed ^ state.activations);
                                state.trips_left = if h % 100 < 90 {
                                    base
                                } else {
                                    hash_geometric(h, *trip_mean)
                                };
                            }
                            state.trips_left -= 1;
                            let taken = state.trips_left > 0;
                            let t_addr = self.prog.blocks[*target_block].start;
                            (taken, *target_block, t_addr, false, false)
                        }
                        TermKind::Jump { target_block } => (
                            true,
                            *target_block,
                            self.prog.blocks[*target_block].start,
                            false,
                            false,
                        ),
                        TermKind::IndirectJump { targets, seed } => {
                            // Switch-like indirect jumps are sticky in real
                            // code: the hot case dominates for stretches,
                            // with occasional churn (re-pick every ~16
                            // executions plus 10% noise).
                            let stable = mix64(seed ^ (count / 16));
                            let noise = mix64(seed ^ count.rotate_left(41));
                            let pick = if noise.is_multiple_of(10) {
                                (noise as usize / 16) % targets.len()
                            } else {
                                (stable as usize) % targets.len()
                            };
                            let tb = targets[pick];
                            (true, tb, self.prog.blocks[tb].start, false, false)
                        }
                        TermKind::Call { callee_func } => {
                            let tb = self.prog.funcs[*callee_func].entry_block;
                            (true, tb, self.prog.blocks[tb].start, true, false)
                        }
                        TermKind::IndirectCall { callees, seed } => {
                            let mut r = SplitMix64::new(mix64(seed ^ count.rotate_left(17)));
                            // Zipf's inverse-power transform never yields
                            // rank 0, so a skew of 0 (user programs) means
                            // "uniform over the listed callees" instead.
                            let raw = if self.func_zipf_s <= 0.0 {
                                r.below(callees.len() as u64) as usize
                            } else {
                                if self.call_zipf.n() != callees.len() {
                                    self.call_zipf = Zipf::new(callees.len(), self.func_zipf_s);
                                }
                                self.call_zipf.sample(&mut r)
                            };
                            let stride = callees.len() / 7 + 1;
                            let idx =
                                (raw + (self.current_phase() as usize * stride)) % callees.len();
                            let tb = self.prog.funcs[callees[idx]].entry_block;
                            (true, tb, self.prog.blocks[tb].start, true, false)
                        }
                        TermKind::Ret => {
                            let resume = self
                                .stack
                                .last()
                                .copied()
                                .expect("ret with empty stack: dispatcher never rets");
                            (true, resume, self.prog.blocks[resume].start, false, true)
                        }
                    };

                    if push {
                        self.stack.push(fallthrough);
                    }
                    if pop {
                        self.stack.pop();
                    }

                    let inst = term.inst.instantiate(
                        pc,
                        Some(BranchExec {
                            taken,
                            target: target_addr,
                        }),
                        None,
                    );
                    self.cur_block = if taken { target_block } else { fallthrough };
                    self.inst_idx = 0;
                    self.pc = self.prog.blocks[self.cur_block].start;
                    self.emitted += 1;
                    return inst;
                }
            }
        }
    }
}

impl Iterator for TraceWalker<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        Some(self.step())
    }

    /// The walk never ends, so `walk().take(n).collect()` sizes its
    /// buffer for exactly `n` instructions instead of growing by
    /// doubling.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use ucsim_model::InstClass;

    fn quick() -> (WorkloadProfile, Program) {
        let p = WorkloadProfile::quick_test();
        let prog = Program::generate(&p);
        (p, prog)
    }

    #[test]
    fn control_flow_is_consistent() {
        let (p, prog) = quick();
        let trace: Vec<_> = prog.walk(&p).take(20_000).collect();
        for (i, w) in trace.windows(2).enumerate() {
            assert_eq!(
                w[1].pc,
                w[0].next_pc(),
                "discontinuity after inst {i}: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn deterministic_replay() {
        let (p, prog) = quick();
        let a: Vec<_> = prog.walk(&p).take(5_000).collect();
        let b: Vec<_> = prog.walk(&p).take(5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn branch_density_is_realistic() {
        let (p, prog) = quick();
        let trace: Vec<_> = prog.walk(&p).take(50_000).collect();
        let branches = trace.iter().filter(|i| i.class.is_branch()).count();
        let frac = branches as f64 / trace.len() as f64;
        // x86 integer code runs ~15-25% branches.
        assert!((0.08..0.35).contains(&frac), "branch frac {frac}");
    }

    #[test]
    fn calls_and_rets_balance() {
        let (p, prog) = quick();
        let trace: Vec<_> = prog.walk(&p).take(50_000).collect();
        let calls = trace.iter().filter(|i| i.class == InstClass::Call).count();
        let rets = trace.iter().filter(|i| i.class == InstClass::Ret).count();
        let diff = calls as i64 - rets as i64;
        // In-flight activations bound the imbalance.
        assert!(diff.unsigned_abs() < 200, "calls {calls} vs rets {rets}");
        assert!(calls > 10, "dispatcher must drive calls");
    }

    #[test]
    fn loads_have_data_addresses() {
        let (p, prog) = quick();
        let trace: Vec<_> = prog.walk(&p).take(20_000).collect();
        for i in &trace {
            assert_eq!(i.class.is_mem(), i.mem_addr.is_some());
            if let Some(a) = i.mem_addr {
                assert!(a.get() >= 0x1_0000_0000, "data separated from code");
            }
        }
        assert!(trace.iter().any(|i| i.class.is_mem()));
    }

    #[test]
    fn loop_back_edges_execute_multiple_trips() {
        let (p, prog) = quick();
        // Find a loop branch pc and count consecutive taken streaks.
        let trace: Vec<_> = prog.walk(&p).take(100_000).collect();
        let mut max_streak = 0u32;
        let mut cur: HashMap<Addr, u32> = HashMap::new();
        for i in &trace {
            if i.class == InstClass::CondBranch {
                if let Some(b) = i.branch {
                    if b.target.get() < i.pc.get() {
                        // back-edge
                        let e = cur.entry(i.pc).or_insert(0);
                        if b.taken {
                            *e += 1;
                            max_streak = max_streak.max(*e);
                        } else {
                            *e = 0;
                        }
                    }
                }
            }
        }
        assert!(
            max_streak >= 3,
            "loops should iterate, max streak {max_streak}"
        );
    }

    #[test]
    fn hot_code_reuse_is_skewed() {
        let (p, prog) = quick();
        let trace: Vec<_> = prog.walk(&p).take(100_000).collect();
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for i in &trace {
            *counts.entry(i.pc.get()).or_insert(0) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = freqs.iter().take(freqs.len() / 10 + 1).sum();
        let total: u64 = freqs.iter().sum();
        assert!(
            top_decile as f64 / total as f64 > 0.3,
            "top-10% static insts should dominate execution"
        );
    }

    #[test]
    fn stateless_helpers_are_pure() {
        assert_eq!(hash_geometric(42, 8.0), hash_geometric(42, 8.0));
        assert_eq!(hash_geometric(9, 0.5), 1);
    }
}
