//! Statistical synthesis of static instructions.

use ucsim_model::{unit_from_bits, InstClass, SplitMix64};

use crate::lengths::{self, BASE_BUCKETS};
use crate::{InstMix, StaticInst};

/// Synthesizes statistically realistic non-branch instructions from an
/// [`InstMix`].
///
/// The CFG generator in `ucsim-trace` uses one synthesizer per workload to
/// fill basic-block bodies and separately emits the terminating branch.
///
/// # Table-driven, draw for draw
///
/// Every decision a sample makes — the class, the base length, and each
/// coin (micro-coded, two-uop, imm/disp, second imm, rel8 branch forms) —
/// compares [`unit_from_bits`] of one draw against the mix's float
/// definitions ([`InstMix`]'s weight walk, the length CDF, `chance(p)`).
/// That float is exactly `k / 2⁵³` for the draw's top 53 bits `k`, and
/// the weight walk only multiplies by the total and subtracts weights,
/// both of which round monotonically, so each outcome is a monotone step
/// function of `k`. [`InstSynthesizer::new`] finds every step by binary
/// search over those same float expressions and stores the integer
/// thresholds; a sample then counts thresholds `≤ k` with integer
/// compares and no float operation. It consumes exactly the draws the
/// float comparisons would, in the same order, so the instructions and
/// the generator state after each one are those of the float
/// definitions, bit for bit.
///
/// # Example
///
/// ```
/// use ucsim_isa::{InstMix, InstSynthesizer};
/// use ucsim_model::SplitMix64;
///
/// let synth = InstSynthesizer::new(InstMix::analytics());
/// let mut rng = SplitMix64::new(9);
/// let block: Vec<_> = (0..6).map(|_| synth.sample(&mut rng)).collect();
/// assert!(block.iter().all(|i| !i.class.is_branch()));
/// ```
#[derive(Debug, Clone)]
pub struct InstSynthesizer {
    mix: InstMix,
    /// `class_cuts[i]`: the first draw whose weight slot is past `i`; the
    /// slot of draw `k` is the number of cuts `≤ k`.
    class_cuts: Vec<u64>,
    /// Per weight slot: its class and its length for each base bucket.
    slots: Vec<Slot>,
    /// `base_cuts[b]`: the first draw whose base-length bucket is past `b`.
    base_cuts: [u64; BASE_BUCKETS - 1],
    /// `chance(p)` holds for draws below these.
    microcode_cut: u64,
    two_uop_cut: u64,
    imm_disp_cut: u64,
    second_imm_cut: u64,
    jcc_rel8_cut: u64,
    jmp_rel8_cut: u64,
}

/// One `(class, weight)` slot of the mix, with its lengths precomputed.
#[derive(Debug, Clone)]
struct Slot {
    class: InstClass,
    lens: [u8; BASE_BUCKETS],
}

/// The top 53 bits of a raw draw: the `k` of [`unit_from_bits`].
fn bits53(raw: u64) -> u64 {
    raw >> 11
}

/// Number of 53-bit draws `k` for which `holds(unit_from_bits(k << 11))`,
/// where `holds` is true on a prefix of draws (a monotone decision).
fn cut(holds: impl Fn(f64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0u64, 1u64 << 53);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(unit_from_bits(mid << 11)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Threshold of `rng.chance(p)`: it holds exactly for draws below it.
fn chance_cut(p: f64) -> u64 {
    cut(|u| u < p)
}

impl InstSynthesizer {
    /// Creates a synthesizer over the given mix, deriving its sampling
    /// thresholds from the mix's float definitions.
    pub fn new(mix: InstMix) -> Self {
        let slots: Vec<Slot> = mix
            .weights()
            .iter()
            .map(|&(class, _)| Slot {
                class,
                lens: std::array::from_fn(|b| {
                    lengths::class_len(class, lengths::base_len(b), false)
                }),
            })
            .collect();
        let class_cuts = (0..slots.len() - 1)
            .map(|i| cut(|u| mix.slot_at(u) <= i))
            .collect();
        InstSynthesizer {
            class_cuts,
            slots,
            base_cuts: std::array::from_fn(|b| cut(|u| lengths::base_bucket_at(u) <= b)),
            microcode_cut: chance_cut(mix.microcode_prob),
            two_uop_cut: chance_cut(mix.two_uop_prob),
            imm_disp_cut: chance_cut(mix.imm_disp_prob),
            second_imm_cut: chance_cut(mix.second_imm_prob),
            jcc_rel8_cut: chance_cut(lengths::JCC_REL8_PROB),
            jmp_rel8_cut: chance_cut(lengths::JMP_REL8_PROB),
            mix,
        }
    }

    /// The underlying mix.
    pub fn mix(&self) -> &InstMix {
        &self.mix
    }

    /// The base-length bucket of one draw.
    fn base_bucket(&self, raw: u64) -> usize {
        let k = bits53(raw);
        self.base_cuts.iter().map(|&c| usize::from(c <= k)).sum()
    }

    /// Samples one non-branch static instruction.
    ///
    /// Draws, in order: the class, the base length, the micro-coded coin
    /// and then either the micro-code uop count or (unless the class is a
    /// divide) the two-uop coin, and finally the imm/disp coin and, when
    /// it holds, the second-imm coin.
    pub fn sample(&self, rng: &mut SplitMix64) -> StaticInst {
        let k = bits53(rng.next_u64());
        let slot = &self.slots[self
            .class_cuts
            .iter()
            .map(|&c| usize::from(c <= k))
            .sum::<usize>()];
        let len = slot.lens[self.base_bucket(rng.next_u64())];

        // Micro-coded instructions expand to 4–8 uops (a second draw);
        // divides are 3 uops even when not micro-coded (no second draw);
        // otherwise a second coin makes load-op / op-store cases 2 uops.
        let [a, b] = rng.peek();
        let microcoded = bits53(a) < self.microcode_cut;
        let div = slot.class == InstClass::IntDiv;
        let uops = if microcoded {
            4 + ((b as u128 * 5) >> 64) as u8 // SplitMix64::below(5)
        } else if div {
            3
        } else {
            1 + u8::from(bits53(b) < self.two_uop_cut)
        };
        rng.advance(2 - u64::from(div && !microcoded));

        // Immediate/displacement fields: a second field is only drawn for
        // an instruction that carries a first.
        let [a, b] = rng.peek();
        let first = bits53(a) < self.imm_disp_cut;
        let second = first && bits53(b) < self.second_imm_cut;
        rng.advance(1 + u64::from(first));

        StaticInst {
            class: slot.class,
            len,
            uops,
            imm_disp: u8::from(first) + u8::from(second),
            microcoded,
        }
    }

    /// Samples a branch instruction of the given class (CFG terminators).
    ///
    /// Draws the base length (which no branch class uses) and, for Jcc
    /// and direct JMP, the short-encoding coin.
    pub fn sample_branch(&self, class: InstClass, rng: &mut SplitMix64) -> StaticInst {
        assert!(class.is_branch(), "sample_branch needs a branch class");
        let base = lengths::base_len(self.base_bucket(rng.next_u64()));
        let rel8 = match class {
            InstClass::CondBranch => bits53(rng.next_u64()) < self.jcc_rel8_cut,
            InstClass::JumpDirect => bits53(rng.next_u64()) < self.jmp_rel8_cut,
            _ => false,
        };
        let len = lengths::class_len(class, base, rel8);
        let mut inst = StaticInst::new(class, len);
        match class {
            InstClass::Call | InstClass::Ret => {
                inst = inst.with_uops(2);
            }
            InstClass::CondBranch
                // Jcc rel32 carries a displacement field.
                if len > 4 => {
                    inst = inst.with_imm_disp(1);
                }
            InstClass::JumpDirect if len >= 5 => {
                inst = inst.with_imm_disp(1);
            }
            _ => {}
        }
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_branch_free_and_legal() {
        let synth = InstSynthesizer::new(InstMix::integer_heavy());
        let mut rng = SplitMix64::new(1);
        for _ in 0..5000 {
            let i = synth.sample(&mut rng);
            assert!(!i.class.is_branch());
            assert!((1..=15).contains(&i.len));
            assert!(i.uops >= 1 && i.uops <= 8);
            assert!(i.imm_disp <= 2);
        }
    }

    #[test]
    fn microcoded_rate_tracks_mix() {
        let mut mix = InstMix::integer_heavy();
        mix.microcode_prob = 0.2;
        let synth = InstSynthesizer::new(mix);
        let mut rng = SplitMix64::new(2);
        let n = 20_000;
        let mc = (0..n).filter(|_| synth.sample(&mut rng).microcoded).count();
        let frac = mc as f64 / n as f64;
        assert!((0.17..0.23).contains(&frac), "frac={frac}");
    }

    #[test]
    fn microcoded_uops_in_range() {
        let mut mix = InstMix::integer_heavy();
        mix.microcode_prob = 1.0;
        let synth = InstSynthesizer::new(mix);
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let i = synth.sample(&mut rng);
            assert!(i.microcoded);
            assert!((4..=8).contains(&i.uops), "{}", i.uops);
        }
    }

    #[test]
    #[should_panic(expected = "needs a branch class")]
    fn sample_branch_rejects_nonbranch() {
        let synth = InstSynthesizer::new(InstMix::integer_heavy());
        let mut rng = SplitMix64::new(3);
        let _ = synth.sample_branch(InstClass::Load, &mut rng);
    }

    #[test]
    fn call_ret_two_uops() {
        let synth = InstSynthesizer::new(InstMix::server());
        let mut rng = SplitMix64::new(4);
        let c = synth.sample_branch(InstClass::Call, &mut rng);
        let r = synth.sample_branch(InstClass::Ret, &mut rng);
        assert_eq!(c.uops, 2);
        assert_eq!(r.uops, 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let synth = InstSynthesizer::new(InstMix::server());
        let mut a = SplitMix64::new(50);
        let mut b = SplitMix64::new(50);
        for _ in 0..100 {
            assert_eq!(synth.sample(&mut a), synth.sample(&mut b));
        }
    }
}
