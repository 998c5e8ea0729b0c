//! Instruction-class mix distributions.
//!
//! A workload's instruction mix determines uop expansion pressure,
//! imm/disp density and branch density — the raw inputs of uop cache entry
//! fragmentation. Presets are calibrated to published SPEC CPU / server
//! workload characterizations.

use ucsim_model::InstClass;

/// A categorical distribution over [`InstClass`] for non-control
/// instructions, plus knobs for imm/disp density and micro-coded frequency.
///
/// Control-flow density itself is owned by the CFG generator (branches end
/// basic blocks); `InstMix` only describes the *body* of a block.
///
/// # Example
///
/// ```
/// use ucsim_isa::InstMix;
/// let mix = InstMix::server();
/// // Block bodies never contain branches.
/// assert!(mix.weights().iter().all(|(c, _)| !c.is_branch()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InstMix {
    /// (class, weight) pairs; weights need not be normalized.
    weights: Vec<(InstClass, f64)>,
    total: f64,
    /// Probability a sampled instruction carries ≥1 imm/disp field.
    pub imm_disp_prob: f64,
    /// Probability an imm/disp-carrying instruction carries a second field.
    pub second_imm_prob: f64,
    /// Probability a sampled instruction is micro-coded.
    pub microcode_prob: f64,
    /// Probability a multi-uop (but not micro-coded) expansion (2 uops).
    pub two_uop_prob: f64,
}

impl InstMix {
    /// Creates a mix from raw `(class, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, any weight is negative/non-finite, the
    /// total weight is zero, or any class is a branch (block bodies are
    /// branch-free by construction).
    pub fn new(weights: Vec<(InstClass, f64)>) -> Self {
        assert!(!weights.is_empty(), "instruction mix cannot be empty");
        for &(c, w) in &weights {
            assert!(w.is_finite() && w >= 0.0, "bad weight {w} for {c}");
            assert!(!c.is_branch(), "branches belong to the CFG, not the mix");
        }
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        assert!(total > 0.0, "total weight must be positive");
        InstMix {
            weights,
            total,
            imm_disp_prob: 0.45,
            second_imm_prob: 0.06,
            microcode_prob: 0.008,
            two_uop_prob: 0.05,
        }
    }

    /// Integer-dominated mix (compilers, interpreters, compression —
    /// e.g. gcc, perlbench, xz, deepsjeng, leela).
    pub fn integer_heavy() -> Self {
        InstMix::new(vec![
            (InstClass::IntAlu, 52.0),
            (InstClass::Load, 24.0),
            (InstClass::Store, 11.0),
            (InstClass::IntMul, 1.5),
            (InstClass::IntDiv, 0.3),
            (InstClass::Fp, 0.5),
            (InstClass::Simd, 1.5),
            (InstClass::Nop, 1.2),
        ])
    }

    /// Server/managed-runtime mix (JITted Java, key-value stores): more
    /// loads/stores, more micro-coded ops, denser immediates.
    pub fn server() -> Self {
        let mut m = InstMix::new(vec![
            (InstClass::IntAlu, 45.0),
            (InstClass::Load, 28.0),
            (InstClass::Store, 14.0),
            (InstClass::IntMul, 1.0),
            (InstClass::IntDiv, 0.2),
            (InstClass::Fp, 0.3),
            (InstClass::Simd, 1.0),
            (InstClass::Nop, 2.0),
        ]);
        m.imm_disp_prob = 0.50;
        m.microcode_prob = 0.015;
        m.two_uop_prob = 0.07;
        m
    }

    /// Media/vector mix (x264): SIMD-heavy with larger instructions.
    pub fn vector_heavy() -> Self {
        let mut m = InstMix::new(vec![
            (InstClass::IntAlu, 34.0),
            (InstClass::Load, 22.0),
            (InstClass::Store, 10.0),
            (InstClass::IntMul, 2.0),
            (InstClass::Simd, 22.0),
            (InstClass::Fp, 3.0),
            (InstClass::Nop, 1.0),
        ]);
        m.imm_disp_prob = 0.40;
        m.two_uop_prob = 0.10;
        m
    }

    /// Analytics mix (Spark/Mahout): FP + loads.
    pub fn analytics() -> Self {
        let mut m = InstMix::new(vec![
            (InstClass::IntAlu, 40.0),
            (InstClass::Load, 27.0),
            (InstClass::Store, 12.0),
            (InstClass::Fp, 8.0),
            (InstClass::Simd, 4.0),
            (InstClass::IntMul, 2.0),
            (InstClass::IntDiv, 0.4),
            (InstClass::Nop, 1.5),
        ]);
        m.imm_disp_prob = 0.46;
        m.microcode_prob = 0.012;
        m
    }

    /// The weight slot a unit draw `u ∈ [0, 1)` selects: walk the
    /// `(class, weight)` pairs subtracting each weight from `u · total`
    /// until the remainder falls below one.
    ///
    /// This is the definition of the class distribution;
    /// [`crate::InstSynthesizer`] derives its integer thresholds from it.
    pub(crate) fn slot_at(&self, u: f64) -> usize {
        let mut x = u * self.total;
        for (i, &(_, w)) in self.weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        self.weights.len() - 1
    }

    /// The configured `(class, weight)` pairs.
    pub fn weights(&self) -> &[(InstClass, f64)] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn rejects_empty() {
        let _ = InstMix::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "branches belong to the CFG")]
    fn rejects_branches() {
        let _ = InstMix::new(vec![(InstClass::CondBranch, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "bad weight")]
    fn rejects_negative_weight() {
        let _ = InstMix::new(vec![(InstClass::IntAlu, -1.0)]);
    }

    #[test]
    fn sampling_respects_weights() {
        let mix = InstMix::new(vec![(InstClass::IntAlu, 9.0), (InstClass::Load, 1.0)]);
        assert_eq!(mix.slot_at(0.0), 0);
        assert_eq!(mix.slot_at(0.899_999), 0);
        assert_eq!(mix.slot_at(0.9), 1);
        assert_eq!(mix.slot_at(0.999_999), 1);
    }

    #[test]
    fn zero_weights_are_never_selected() {
        let mix = InstMix::new(vec![
            (InstClass::Nop, 0.0),
            (InstClass::IntAlu, 1.0),
            (InstClass::Load, 0.0),
        ]);
        for u in [0.0, 0.25, 0.5, 0.999_999] {
            assert_eq!(mix.slot_at(u), 1);
        }
    }

    #[test]
    fn presets_sample_without_branches() {
        for mix in [
            InstMix::integer_heavy(),
            InstMix::server(),
            InstMix::vector_heavy(),
            InstMix::analytics(),
        ] {
            for i in 0..1000 {
                let slot = mix.slot_at(i as f64 / 1000.0);
                assert!(!mix.weights()[slot].0.is_branch());
            }
        }
    }

    #[test]
    fn preset_probabilities_sane() {
        for mix in [
            InstMix::integer_heavy(),
            InstMix::server(),
            InstMix::vector_heavy(),
            InstMix::analytics(),
        ] {
            assert!((0.0..=1.0).contains(&mix.imm_disp_prob));
            assert!((0.0..=1.0).contains(&mix.microcode_prob));
            assert!((0.0..=1.0).contains(&mix.two_uop_prob));
        }
    }
}
