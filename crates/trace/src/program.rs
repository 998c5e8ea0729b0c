//! Synthetic program (CFG) generation and physical layout.
//!
//! A [`Program`] is a flat arena of basic blocks grouped into functions and
//! laid out contiguously in physical address space, x86-style: the
//! fall-through successor of a block starts at the block's last byte + 1,
//! so I-cache-line-boundary effects (the heart of the paper) emerge
//! naturally from variable-length instructions.
//!
//! Function 0 is a *dispatcher*: an indirect-call loop that models a
//! driver/interpreter selecting hot functions by a Zipf distribution —
//! this produces the strong code-reuse skew of real workloads while
//! keeping return prediction well-defined (returns always match calls).

use ucsim_isa::{InstSynthesizer, StaticInst};
use ucsim_model::{Addr, InstClass, SplitMix64};

use crate::WorkloadProfile;

/// Terminator variants of a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum TermKind {
    /// Conditional forward branch to `target_block` with the given taken
    /// probability; `seed` makes per-execution outcomes deterministic.
    CondForward {
        /// Arena index of the taken-path block.
        target_block: usize,
        /// Taken probability per execution.
        p_taken: f64,
        /// Per-branch outcome seed.
        seed: u64,
    },
    /// Conditional loop back-edge to `target_block` (a dominator of this
    /// block); taken `trip-1` times per activation.
    CondLoop {
        /// Arena index of the loop head.
        target_block: usize,
        /// Mean trip count (geometric, per activation).
        trip_mean: f64,
        /// Per-loop trip-count seed.
        seed: u64,
    },
    /// Unconditional direct jump.
    Jump {
        /// Arena index of the target.
        target_block: usize,
    },
    /// Indirect jump (switch) choosing among `targets` per execution.
    IndirectJump {
        /// Candidate arena indices.
        targets: Vec<usize>,
        /// Per-execution selection seed.
        seed: u64,
    },
    /// Direct call; execution resumes at the next block after return.
    Call {
        /// Callee function index.
        callee_func: usize,
    },
    /// Indirect call through a table of function entries (the dispatcher
    /// uses this; Zipf-weighted selection happens in the walker).
    IndirectCall {
        /// Candidate callee function indices.
        callees: Vec<usize>,
        /// Per-execution selection seed.
        seed: u64,
    },
    /// Return to the caller.
    Ret,
}

/// A block terminator: the branch instruction plus its semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct TermInst {
    /// The branch instruction itself (class/len/uops).
    pub inst: StaticInst,
    /// What it does.
    pub kind: TermKind,
}

/// A basic block: straight-line body then an optional terminator.
/// `terminator == None` means pure fall-through into the next block.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Arena index.
    pub id: usize,
    /// Address of the first instruction.
    pub start: Addr,
    /// Straight-line body (no branches).
    pub body: Vec<StaticInst>,
    /// Terminating branch, if any.
    pub terminator: Option<TermInst>,
}

impl BasicBlock {
    /// Total byte length of the block.
    pub fn byte_len(&self) -> u64 {
        let body: u64 = self.body.iter().map(|i| i.len as u64).sum();
        body + self
            .terminator
            .as_ref()
            .map(|t| t.inst.len as u64)
            .unwrap_or(0)
    }

    /// One past the last byte of the block (= fall-through address).
    pub fn end(&self) -> Addr {
        self.start.offset(self.byte_len())
    }

    /// Number of instructions including the terminator.
    pub fn inst_count(&self) -> usize {
        self.body.len() + usize::from(self.terminator.is_some())
    }
}

/// A function: a contiguous range of arena blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function index.
    pub id: usize,
    /// Arena index of the entry block.
    pub entry_block: usize,
    /// Arena index one past the last block.
    pub end_block: usize,
}

impl Function {
    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.end_block - self.entry_block
    }
}

/// The synthetic binary.
#[derive(Debug, Clone)]
pub struct Program {
    /// Functions; index 0 is the dispatcher.
    pub funcs: Vec<Function>,
    /// Global block arena in address order.
    pub blocks: Vec<BasicBlock>,
}

/// Base of the code region; each workload is offset by its seed so that
/// distinct programs never alias (required for SMT sharing, where two
/// threads' code coexists in one physically-indexed uop cache).
const CODE_BASE: u64 = 0x40_0000;

/// Per-seed spacing between workload images (4 MB ≫ any footprint).
const CODE_STRIDE: u64 = 0x40_0000;

/// Computes the code base address for a profile. All code stays below
/// the 4 GiB code ceiling; the data region starts above it, so
/// store-address classification (self-modifying code detection) is a
/// single compare.
pub(crate) fn code_base_for(seed: u64) -> u64 {
    CODE_BASE + (seed % 960) * CODE_STRIDE
}

impl Program {
    /// Expands a profile into a concrete program (deterministic in
    /// `profile.seed`).
    pub fn generate(profile: &WorkloadProfile) -> Program {
        let mut rng = SplitMix64::new(profile.seed);
        let synth = InstSynthesizer::new(profile.mix.to_mix());
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut funcs: Vec<Function> = Vec::new();
        let mut cursor = Addr::new(code_base_for(profile.seed));

        // ---- Function 0: dispatcher (2 blocks) -------------------------
        // B0: small body + IndirectCall over all real function entries.
        // B1: small body + Jump back to B0.
        // Real entries are patched in after all functions are placed.
        {
            let entry = blocks.len();
            let mut body = Vec::new();
            for _ in 0..3 {
                body.push(synth.sample(&mut rng));
            }
            let call_inst = synth.sample_branch(InstClass::Call, &mut rng);
            let b0 = BasicBlock {
                id: entry,
                start: cursor,
                body,
                terminator: Some(TermInst {
                    inst: call_inst,
                    kind: TermKind::IndirectCall {
                        callees: Vec::new(), // patched below
                        seed: rng.next_u64(),
                    },
                }),
            };
            cursor = b0.end();
            blocks.push(b0);

            let mut body = Vec::new();
            for _ in 0..2 {
                body.push(synth.sample(&mut rng));
            }
            let jump_inst = synth.sample_branch(InstClass::JumpDirect, &mut rng);
            let b1 = BasicBlock {
                id: entry + 1,
                start: cursor,
                body,
                terminator: Some(TermInst {
                    inst: jump_inst,
                    kind: TermKind::Jump {
                        target_block: entry,
                    },
                }),
            };
            cursor = b1.end();
            blocks.push(b1);
            funcs.push(Function {
                id: 0,
                entry_block: entry,
                end_block: entry + 2,
            });
        }

        // ---- Real functions --------------------------------------------
        for f in 1..=profile.num_funcs {
            // 16-byte function alignment, like real linkers.
            let aligned = (cursor.get() + 15) & !15;
            cursor = Addr::new(aligned);
            let n_blocks = rng.geometric_mean(profile.blocks_per_func_mean).max(2) as usize;
            let first = blocks.len();

            for b in 0..n_blocks {
                // Cap the geometric tail: without the cap, long blocks
                // dominate *dynamic* instruction counts (length-biased
                // sampling) and stretch branch-free runs far beyond the
                // static mean, inflating uop cache entries.
                let cap = profile.insts_per_block_mean.ceil() as u64 + 2;
                let body_len = rng.geometric_mean(profile.insts_per_block_mean).min(cap) as usize;
                let mut body = Vec::with_capacity(body_len);
                for _ in 0..body_len {
                    body.push(synth.sample(&mut rng));
                }
                let is_last = b == n_blocks - 1;
                let id = blocks.len();

                let terminator = if is_last {
                    Some(TermInst {
                        inst: synth.sample_branch(InstClass::Ret, &mut rng),
                        kind: TermKind::Ret,
                    })
                } else {
                    Self::pick_terminator(profile, &synth, &mut rng, f, id, first, first + n_blocks)
                };

                let block = BasicBlock {
                    id,
                    start: cursor,
                    body,
                    terminator,
                };
                cursor = block.end();
                blocks.push(block);
            }
            funcs.push(Function {
                id: f,
                entry_block: first,
                end_block: first + n_blocks,
            });
        }

        // Patch the dispatcher's callee table with all real entries.
        if let Some(TermInst {
            kind: TermKind::IndirectCall { callees, .. },
            ..
        }) = blocks[0].terminator.as_mut()
        {
            *callees = (1..=profile.num_funcs).collect();
        }

        let program = Program { funcs, blocks };
        program.validate();
        program
    }

    /// Chooses a non-final block terminator per the profile probabilities.
    #[allow(clippy::too_many_arguments)]
    fn pick_terminator(
        profile: &WorkloadProfile,
        synth: &InstSynthesizer,
        rng: &mut SplitMix64,
        func_id: usize,
        block_id: usize,
        func_first: usize,
        func_end: usize,
    ) -> Option<TermInst> {
        let u = rng.unit_f64();
        let mut acc = profile.p_loop;
        if u < acc && block_id > func_first {
            // Loop back-edge to a previous block of this function (up to 3
            // blocks back, so loop bodies span 1–3 blocks).
            let span = 1 + rng.below(3.min((block_id - func_first) as u64)) as usize;
            let target = block_id + 1 - span;
            return Some(TermInst {
                inst: synth.sample_branch(InstClass::CondBranch, rng),
                kind: TermKind::CondLoop {
                    target_block: target,
                    trip_mean: profile.loop_trip_mean,
                    seed: rng.next_u64(),
                },
            });
        }
        acc += profile.p_call;
        if u < acc && func_id < profile.num_funcs {
            // Static acyclic call graph: callee index > caller index.
            // A flat-ish selection spreads utility-function reuse.
            let remaining = profile.num_funcs - func_id;
            let callee = func_id + 1 + rng.zipf(remaining, 0.9);
            return Some(TermInst {
                inst: synth.sample_branch(InstClass::Call, rng),
                kind: TermKind::Call {
                    callee_func: callee.min(profile.num_funcs),
                },
            });
        }
        acc += profile.p_jump;
        if u < acc && block_id + 2 < func_end {
            let skip = 1 + rng.below(2) as usize;
            return Some(TermInst {
                inst: synth.sample_branch(InstClass::JumpDirect, rng),
                kind: TermKind::Jump {
                    target_block: (block_id + 1 + skip).min(func_end - 1),
                },
            });
        }
        acc += profile.p_indirect;
        if u < acc && block_id + 3 < func_end {
            let targets: Vec<usize> = (1..=3)
                .map(|s| (block_id + s + 1).min(func_end - 1))
                .collect();
            return Some(TermInst {
                inst: synth.sample_branch(InstClass::JumpIndirect, rng),
                kind: TermKind::IndirectJump {
                    targets,
                    seed: rng.next_u64(),
                },
            });
        }
        acc += profile.p_cond;
        if u < acc && block_id + 2 < func_end {
            let skip = 1 + rng.below(3) as usize;
            let noisy = rng.chance(profile.noisy_frac);
            let p_taken = if noisy {
                profile.noisy_bias
            } else if rng.chance(0.75) {
                // Most predictable conditionals are mostly-taken (loop-like
                // and error-check-inverted branches dominate real x86
                // traces), which keeps dynamic runs between taken branches
                // short — the fragmentation precondition of the paper.
                // Predictable, mostly-taken (e.g. error-checks inverted).
                1.0 - profile.cond_taken_bias * rng.unit_f64() * 0.16
            } else {
                // Predictable, mostly-not-taken.
                profile.cond_taken_bias * rng.unit_f64() * 0.16
            };
            return Some(TermInst {
                inst: synth.sample_branch(InstClass::CondBranch, rng),
                kind: TermKind::CondForward {
                    target_block: (block_id + 1 + skip).min(func_end - 1),
                    p_taken,
                    seed: rng.next_u64(),
                },
            });
        }
        // Fall-through.
        None
    }

    /// Total static instruction count.
    pub fn static_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.inst_count()).sum()
    }

    /// Total static uop count (the unit of the paper's capacity axis).
    pub fn static_uops(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                b.body.iter().map(|i| i.uops as usize).sum::<usize>()
                    + b.terminator
                        .as_ref()
                        .map(|t| t.inst.uops as usize)
                        .unwrap_or(0)
            })
            .sum()
    }

    /// Code footprint in bytes.
    pub fn code_bytes(&self) -> u64 {
        let last = self.blocks.last().expect("non-empty program");
        let first = self.blocks.first().expect("non-empty program");
        last.end().get() - first.start.get()
    }

    /// Checks structural invariants (layout contiguity, target validity).
    ///
    /// # Panics
    ///
    /// Panics on violation — generation bugs must not produce silently
    /// inconsistent traces.
    pub fn validate(&self) {
        assert!(!self.blocks.is_empty());
        // Code must stay below the 4 GiB ceiling that separates it from
        // the data region (self-modifying-code detection relies on it).
        assert!(
            self.blocks.last().expect("non-empty").end().get() < 0x1_0000_0000,
            "code image crosses into the data region"
        );
        // Functions tile the arena in order, so every block has exactly
        // one owner and a fall-through stays inside it iff it is not the
        // owner's last block.
        let mut next = 0;
        for f in &self.funcs {
            assert!(f.entry_block < f.end_block, "empty function {}", f.id);
            assert_eq!(
                f.entry_block, next,
                "function {} does not follow its predecessor",
                f.id
            );
            next = f.end_block;
            // Blocks within a function are contiguous in memory.
            for b in f.entry_block..f.end_block - 1 {
                assert_eq!(
                    self.blocks[b].end(),
                    self.blocks[b + 1].start,
                    "function {} blocks {} and {} not contiguous",
                    f.id,
                    b,
                    b + 1
                );
            }
            assert!(
                self.blocks[f.end_block - 1].terminator.is_some(),
                "fall-through out of function {}",
                f.id
            );
        }
        assert_eq!(next, self.blocks.len(), "blocks outside every function");
        for (i, block) in self.blocks.iter().enumerate() {
            assert_eq!(block.id, i, "block id is not its arena index");
            if let Some(t) = &block.terminator {
                assert!(t.inst.class.is_branch(), "terminator must be a branch");
                match &t.kind {
                    TermKind::CondForward {
                        target_block,
                        p_taken,
                        ..
                    } => {
                        assert!(*target_block < self.blocks.len());
                        assert!((0.0..=1.0).contains(p_taken));
                    }
                    TermKind::CondLoop { target_block, .. } => {
                        assert!(*target_block <= block.id, "back-edge must go backwards");
                    }
                    TermKind::Jump { target_block } => {
                        assert!(*target_block < self.blocks.len());
                    }
                    TermKind::IndirectJump { targets, .. } => {
                        assert!(!targets.is_empty());
                        assert!(targets.iter().all(|&t| t < self.blocks.len()));
                    }
                    TermKind::Call { callee_func } => {
                        assert!(*callee_func < self.funcs.len());
                    }
                    TermKind::IndirectCall { callees, .. } => {
                        assert!(!callees.is_empty());
                        assert!(callees.iter().all(|&c| c < self.funcs.len()));
                    }
                    TermKind::Ret => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = WorkloadProfile::quick_test();
        let a = Program::generate(&p);
        let b = Program::generate(&p);
        assert_eq!(a.blocks.len(), b.blocks.len());
        assert_eq!(a.static_insts(), b.static_insts());
        for (x, y) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn validates_and_has_dispatcher() {
        let p = WorkloadProfile::quick_test();
        let prog = Program::generate(&p);
        assert_eq!(prog.funcs[0].num_blocks(), 2);
        match &prog.blocks[0].terminator {
            Some(TermInst {
                kind: TermKind::IndirectCall { callees, .. },
                ..
            }) => assert_eq!(callees.len(), p.num_funcs),
            other => panic!("dispatcher B0 must IndirectCall, got {other:?}"),
        }
    }

    #[test]
    fn every_function_ends_in_ret() {
        let prog = Program::generate(&WorkloadProfile::quick_test());
        for f in prog.funcs.iter().skip(1) {
            let last = &prog.blocks[f.end_block - 1];
            assert!(matches!(
                last.terminator.as_ref().map(|t| &t.kind),
                Some(TermKind::Ret)
            ));
        }
    }

    #[test]
    fn footprint_scales_with_profile() {
        let small = Program::generate(&WorkloadProfile::quick_test());
        let big_profile = WorkloadProfile::by_name("bm-cc").unwrap();
        let big = Program::generate(&big_profile);
        assert!(big.static_uops() > 20 * small.static_uops());
        // gcc-like footprint must exceed the 64K-uop top of the sweep...
        // divided by reuse; at minimum it must far exceed 2K uops.
        assert!(big.static_uops() > 16_000, "{}", big.static_uops());
    }

    #[test]
    fn functions_are_16b_aligned() {
        let prog = Program::generate(&WorkloadProfile::quick_test());
        for f in prog.funcs.iter().skip(1) {
            assert_eq!(prog.blocks[f.entry_block].start.get() % 16, 0);
        }
    }

    #[test]
    fn all_seeds_stay_below_code_ceiling() {
        for seed in [0u64, 1, 959, 960, 0xDEAD_BEEF, u64::MAX] {
            assert!(code_base_for(seed) < 0x1_0000_0000 - 0x40_0000);
        }
    }

    #[test]
    fn distinct_seeds_get_distinct_bases() {
        let a = code_base_for(101);
        let b = code_base_for(102);
        assert_ne!(a, b);
        assert!(a.abs_diff(b) >= 0x40_0000);
    }

    #[test]
    fn call_graph_is_acyclic() {
        let prog = Program::generate(&WorkloadProfile::quick_test());
        for f in prog.funcs.iter().skip(1) {
            for b in f.entry_block..f.end_block {
                if let Some(TermInst {
                    kind: TermKind::Call { callee_func },
                    ..
                }) = &prog.blocks[b].terminator
                {
                    assert!(*callee_func > f.id, "call graph must descend");
                }
            }
        }
    }
}
