//! Trace characterization.
//!
//! [`TraceStats`] summarizes the properties the figures depend on: branch
//! density, taken fraction, dynamic basic-block length, instruction byte
//! lengths, uop expansion rate, and code footprint in I-cache lines /
//! uops. The Table II harness prints these per workload next to the
//! paper's reference values.

use std::collections::HashSet;

use ucsim_model::{DynInst, Histogram, RunningStat};

/// Streaming trace statistics.
#[derive(Debug, Clone)]
pub struct TraceStats {
    insts: u64,
    uops: u64,
    branches: u64,
    cond_branches: u64,
    taken_branches: u64,
    len_hist: Histogram,
    block_len: RunningStat,
    cur_block: u64,
    code_lines: HashSet<u64>,
    static_pcs: HashSet<u64>,
    static_uops: u64,
}

impl Default for TraceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TraceStats {
            insts: 0,
            uops: 0,
            branches: 0,
            cond_branches: 0,
            taken_branches: 0,
            len_hist: Histogram::new(&[1, 2, 3, 4, 5, 6, 8, 10, 15]),
            block_len: RunningStat::new(),
            cur_block: 0,
            code_lines: HashSet::new(),
            static_pcs: HashSet::new(),
            static_uops: 0,
        }
    }

    /// Consumes one instruction.
    pub fn observe(&mut self, i: &DynInst) {
        self.insts += 1;
        self.uops += i.uops as u64;
        self.len_hist.record(i.len as u64);
        self.cur_block += 1;
        if i.class.is_branch() {
            self.branches += 1;
            if i.class.is_cond_branch() {
                self.cond_branches += 1;
            }
            if i.is_taken_branch() {
                self.taken_branches += 1;
            }
            self.block_len.push(self.cur_block as f64);
            self.cur_block = 0;
        }
        self.code_lines.insert(i.pc.line().number());
        if self.static_pcs.insert(i.pc.get()) {
            self.static_uops += i.uops as u64;
        }
    }

    /// Builds statistics from a full pass over a stream.
    pub fn from_stream<I: IntoIterator<Item = DynInst>>(src: I) -> Self {
        let mut s = Self::new();
        for i in src {
            s.observe(&i);
        }
        s
    }

    /// Dynamic instruction count.
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// Dynamic uop count.
    pub fn uops(&self) -> u64 {
        self.uops
    }

    /// Mean uops per instruction.
    pub fn uops_per_inst(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.uops as f64 / self.insts as f64
        }
    }

    /// Fraction of instructions that are branches.
    pub fn branch_frac(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.branches as f64 / self.insts as f64
        }
    }

    /// Fraction of executed branches that were taken.
    pub fn taken_frac(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.taken_branches as f64 / self.branches as f64
        }
    }

    /// Mean dynamic basic-block length in instructions.
    pub fn mean_block_len(&self) -> f64 {
        self.block_len.mean()
    }

    /// Mean instruction byte length.
    pub fn mean_inst_len(&self) -> f64 {
        self.len_hist.mean()
    }

    /// Touched code footprint in 64-byte I-cache lines.
    pub fn code_footprint_lines(&self) -> usize {
        self.code_lines.len()
    }

    /// Touched static uop footprint (the unit of the OC capacity axis:
    /// how many uops the hot code would occupy if fully cached).
    pub fn static_uop_footprint(&self) -> u64 {
        self.static_uops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Program, WorkloadProfile};

    fn stats(n: usize) -> TraceStats {
        let p = WorkloadProfile::quick_test();
        let prog = Program::generate(&p);
        TraceStats::from_stream(prog.walk(&p).take(n))
    }

    #[test]
    fn counts_add_up() {
        let s = stats(30_000);
        assert_eq!(s.insts(), 30_000);
        assert!(s.uops() >= s.insts());
        assert!(s.uops_per_inst() >= 1.0 && s.uops_per_inst() < 2.0);
    }

    #[test]
    fn block_lengths_match_profile_scale() {
        let s = stats(50_000);
        // quick_test mean body ~5 + terminator ⇒ dynamic blocks ~3-9.
        assert!(
            (2.0..12.0).contains(&s.mean_block_len()),
            "block len {}",
            s.mean_block_len()
        );
    }

    #[test]
    fn x86_like_lengths() {
        let s = stats(50_000);
        assert!(
            (2.5..5.5).contains(&s.mean_inst_len()),
            "mean len {}",
            s.mean_inst_len()
        );
    }

    #[test]
    fn taken_fraction_realistic() {
        let s = stats(50_000);
        // Calls/jumps/rets are always taken; conditionals mixed.
        assert!(
            (0.3..0.95).contains(&s.taken_frac()),
            "taken frac {}",
            s.taken_frac()
        );
    }

    #[test]
    fn footprint_is_positive_and_bounded() {
        let s = stats(50_000);
        assert!(s.code_footprint_lines() > 10);
        assert!(s.static_uop_footprint() > 100);
        // Footprint can't exceed dynamic stream size.
        assert!(s.static_uop_footprint() <= s.uops());
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = TraceStats::new();
        assert_eq!(s.insts(), 0);
        assert_eq!(s.branch_frac(), 0.0);
        assert_eq!(s.uops_per_inst(), 0.0);
        assert_eq!(s.mean_block_len(), 0.0);
    }
}
