//! x86-like instruction length model.
//!
//! Measured x86-64 code has a mean instruction length around 3.7–4.2 bytes
//! with a long tail to 15 (REX/VEX/EVEX prefixes, SIB, disp32, imm32).
//! The uop cache study is sensitive to this distribution because it
//! determines how many instructions fit in a 64-byte I-cache line and thus
//! where the line-boundary termination bites.

use ucsim_model::InstClass;

/// Cumulative length distribution for "plain" integer code, calibrated to
/// published x86-64 length histograms: P(len ≤ k).
const BASE_CDF: [(u8, f64); 11] = [
    (1, 0.03),
    (2, 0.11),
    (3, 0.32),
    (4, 0.54),
    (5, 0.70),
    (6, 0.81),
    (7, 0.89),
    (8, 0.94),
    (10, 0.98),
    (12, 0.994),
    (15, 1.0),
];

/// Typical (modal) length for an instruction class, used when a
/// deterministic layout is needed (tests, hand-built blocks).
pub const fn typical_len(class: InstClass) -> u8 {
    match class {
        InstClass::IntAlu => 3,
        InstClass::IntMul => 4,
        InstClass::IntDiv => 3,
        InstClass::Load => 4,
        InstClass::Store => 4,
        InstClass::CondBranch => 2,
        InstClass::JumpDirect => 2,
        InstClass::JumpIndirect => 3,
        InstClass::Call => 5,
        InstClass::Ret => 1,
        InstClass::Fp => 5,
        InstClass::Simd => 6,
        InstClass::Nop => 1,
    }
}

/// Probability that a conditional branch uses its short `Jcc rel8`
/// (2-byte) encoding rather than `rel32` (6 bytes).
pub(crate) const JCC_REL8_PROB: f64 = 0.75;

/// Probability that a direct jump uses its short `JMP rel8` (2-byte)
/// encoding rather than `rel32` (5 bytes).
pub(crate) const JMP_REL8_PROB: f64 = 0.6;

/// Number of base-length buckets: one per [`BASE_CDF`] row.
pub(crate) const BASE_BUCKETS: usize = BASE_CDF.len();

/// The base length of each bucket.
pub(crate) const fn base_len(bucket: usize) -> u8 {
    BASE_CDF[bucket].0
}

/// The base-length bucket a unit draw `u ∈ [0, 1)` selects: the first
/// [`BASE_CDF`] row with `u ≤ P(len ≤ k)`.
///
/// This is the definition of the length distribution;
/// [`crate::InstSynthesizer`] derives its integer thresholds from it.
pub(crate) fn base_bucket_at(u: f64) -> usize {
    BASE_CDF
        .iter()
        .position(|&(_, c)| u <= c)
        .unwrap_or(BASE_BUCKETS - 1)
}

/// The byte length of a `class` instruction whose base draw gave `base`
/// and, for Jcc and direct JMP, whose short-encoding coin ([`JCC_REL8_PROB`],
/// [`JMP_REL8_PROB`]) came up `rel8`.
///
/// Branches, SIMD and FP shift the base distribution to match their typical
/// encodings (short Jcc rel8/rel32; long VEX/EVEX vector ops).
pub(crate) fn class_len(class: InstClass, base: u8, rel8: bool) -> u8 {
    let adjusted: i16 = match class {
        // Jcc rel8 = 2B, rel32 = 6B; calls are 5B; ret 1B.
        InstClass::CondBranch => {
            if rel8 {
                2
            } else {
                6
            }
        }
        InstClass::JumpDirect => {
            if rel8 {
                2
            } else {
                5
            }
        }
        InstClass::JumpIndirect => 3,
        InstClass::Call => 5,
        InstClass::Ret => 1,
        // Vector encodings carry VEX/EVEX prefixes.
        InstClass::Simd => (base as i16 + 2).min(11),
        InstClass::Fp => (base as i16 + 1).min(10),
        // Memory ops frequently carry ModRM+SIB+disp.
        InstClass::Load | InstClass::Store => (base as i16 + 1).min(9),
        InstClass::Nop => 1,
        _ => base as i16,
    };
    adjusted.clamp(1, 15) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_terminates_at_one() {
        let mut prev = 0.0;
        for &(_, c) in &BASE_CDF {
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(BASE_CDF.last().unwrap().1, 1.0);
    }

    /// Exact expected length of a non-branch `class` under [`BASE_CDF`].
    fn mean_len(class: InstClass) -> f64 {
        let mut prev = 0.0;
        let mut mean = 0.0;
        for (b, &(_, c)) in BASE_CDF.iter().enumerate() {
            mean += (c - prev) * class_len(class, base_len(b), false) as f64;
            prev = c;
        }
        mean
    }

    #[test]
    fn all_lengths_legal() {
        for class in [
            InstClass::IntAlu,
            InstClass::Load,
            InstClass::Store,
            InstClass::CondBranch,
            InstClass::Call,
            InstClass::Ret,
            InstClass::Fp,
            InstClass::Simd,
            InstClass::JumpDirect,
            InstClass::JumpIndirect,
            InstClass::Nop,
        ] {
            for b in 0..BASE_BUCKETS {
                for rel8 in [false, true] {
                    let l = class_len(class, base_len(b), rel8);
                    assert!((1..=15).contains(&l), "{class}: {l}");
                }
            }
        }
    }

    #[test]
    fn buckets_follow_the_cdf() {
        assert_eq!(base_bucket_at(0.0), 0);
        assert_eq!(base_bucket_at(0.03), 0);
        assert_eq!(base_bucket_at(0.030_000_001), 1);
        assert_eq!(base_bucket_at(0.999_999), BASE_BUCKETS - 1);
    }

    #[test]
    fn mean_length_is_x86_like() {
        let mean = mean_len(InstClass::IntAlu);
        assert!(
            (3.0..5.0).contains(&mean),
            "mean x86 length should be ~3.5-4.5, got {mean}"
        );
    }

    #[test]
    fn branches_are_short() {
        let mean = JCC_REL8_PROB * class_len(InstClass::CondBranch, 1, true) as f64
            + (1.0 - JCC_REL8_PROB) * class_len(InstClass::CondBranch, 1, false) as f64;
        assert!(mean < 4.0, "Jcc mean should be short, got {mean}");
    }

    #[test]
    fn typical_lengths_legal() {
        for class in [
            InstClass::IntAlu,
            InstClass::Ret,
            InstClass::Simd,
            InstClass::Call,
        ] {
            assert!((1..=15).contains(&typical_len(class)));
        }
    }
}
