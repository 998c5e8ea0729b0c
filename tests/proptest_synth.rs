//! Differential test of the table-driven instruction synthesizer against
//! the float sampler it replaced.
//!
//! `InstSynthesizer` turns every float comparison of the sampler into an
//! integer threshold on the draw. This file keeps that float sampler as an
//! executable specification and checks, over random mixes, that the two
//! produce identical instructions and leave the generator in an identical
//! state after every draw — both from random seeds and from seeds crafted
//! so that a chosen draw lands exactly on either side of each decision's
//! edge, where an off-by-one threshold would show.

use proptest::prelude::*;
use ucsim::isa::{InstMix, InstSynthesizer, StaticInst};
use ucsim::model::{InstClass, SplitMix64};

// ---- The float specification -------------------------------------------

/// Cumulative base-length distribution: P(len ≤ k).
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

fn spec_slot(mix: &InstMix, u: f64) -> usize {
    let total: f64 = mix.weights().iter().map(|&(_, w)| w).sum();
    let mut x = u * total;
    for (i, &(_, w)) in mix.weights().iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    mix.weights().len() - 1
}

fn spec_bucket(u: f64) -> usize {
    BASE_CDF
        .iter()
        .position(|&(_, c)| u <= c)
        .unwrap_or(BASE_CDF.len() - 1)
}

fn spec_len(class: InstClass, rng: &mut SplitMix64) -> u8 {
    let base = BASE_CDF[spec_bucket(rng.unit_f64())].0;
    let adjusted: i16 = match class {
        InstClass::CondBranch => {
            if rng.chance(0.75) {
                2
            } else {
                6
            }
        }
        InstClass::JumpDirect => {
            if rng.chance(0.6) {
                2
            } else {
                5
            }
        }
        InstClass::JumpIndirect => 3,
        InstClass::Call => 5,
        InstClass::Ret => 1,
        InstClass::Simd => (base as i16 + 2).min(11),
        InstClass::Fp => (base as i16 + 1).min(10),
        InstClass::Load | InstClass::Store => (base as i16 + 1).min(9),
        InstClass::Nop => 1,
        _ => base as i16,
    };
    adjusted.clamp(1, 15) as u8
}

fn spec_sample(mix: &InstMix, rng: &mut SplitMix64) -> StaticInst {
    let class = mix.weights()[spec_slot(mix, rng.unit_f64())].0;
    let len = spec_len(class, rng);
    let mut inst = StaticInst::new(class, len);
    if rng.chance(mix.microcode_prob) {
        let uops = 4 + rng.below(5) as u8;
        inst = inst.with_uops(uops).with_microcoded(true);
    } else if matches!(class, InstClass::IntDiv) {
        inst = inst.with_uops(3);
    } else if rng.chance(mix.two_uop_prob) {
        inst = inst.with_uops(2);
    }
    if rng.chance(mix.imm_disp_prob) {
        let n = if rng.chance(mix.second_imm_prob) {
            2
        } else {
            1
        };
        inst = inst.with_imm_disp(n);
    }
    inst
}

fn spec_sample_branch(class: InstClass, rng: &mut SplitMix64) -> StaticInst {
    let len = spec_len(class, rng);
    let mut inst = StaticInst::new(class, len);
    match class {
        InstClass::Call | InstClass::Ret => inst = inst.with_uops(2),
        InstClass::CondBranch if len > 4 => inst = inst.with_imm_disp(1),
        InstClass::JumpDirect if len >= 5 => inst = inst.with_imm_disp(1),
        _ => {}
    }
    inst
}

// ---- Edge draws ---------------------------------------------------------

const DRAWS: u64 = 1 << 53;

fn unit(k: u64) -> f64 {
    k as f64 / DRAWS as f64
}

/// First 53-bit draw at which a monotone `outcome` exceeds `i`.
fn first_past(i: usize, outcome: impl Fn(f64) -> usize) -> u64 {
    let (mut lo, mut hi) = (0, DRAWS);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if outcome(unit(mid)) > i {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// First draw at which `chance(p)` fails: `u < p ⇔ k < p·2⁵³`, and the
/// product is exact, so this is its ceiling clamped to the draw range.
fn chance_edge(p: f64) -> u64 {
    if p.is_nan() || p <= 0.0 {
        0
    } else if p >= 1.0 {
        DRAWS
    } else {
        (p * DRAWS as f64).ceil() as u64
    }
}

/// Every draw value on either side of an outcome change of `mix`.
fn edge_draws(mix: &InstMix) -> Vec<u64> {
    let mut edges = Vec::new();
    for i in 0..mix.weights().len() - 1 {
        edges.push(first_past(i, |u| spec_slot(mix, u)));
    }
    for b in 0..BASE_CDF.len() - 1 {
        edges.push(first_past(b, spec_bucket));
    }
    for p in [
        mix.microcode_prob,
        mix.two_uop_prob,
        mix.imm_disp_prob,
        mix.second_imm_prob,
        0.75,
        0.6,
    ] {
        edges.push(chance_edge(p));
    }
    let mut draws: Vec<u64> = edges
        .into_iter()
        .flat_map(|e| [e.saturating_sub(1), e])
        .filter(|&k| k < DRAWS)
        .chain([0, DRAWS - 1])
        .collect();
    draws.sort_unstable();
    draws.dedup();
    draws
}

// ---- Crafting a generator whose j-th draw is a chosen value -------------

const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

fn mul_inverse(c: u64) -> u64 {
    // Newton's iteration doubles the correct low bits each step.
    let mut x = c;
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)));
    }
    x
}

fn undo_xorshift(y: u64, s: u32) -> u64 {
    let mut x = y;
    for _ in 0..64 / s + 1 {
        x = y ^ (x >> s);
    }
    x
}

/// The generator state whose SplitMix64 output is `z`.
fn state_of_output(z: u64) -> u64 {
    let x = undo_xorshift(z, 31).wrapping_mul(mul_inverse(0x94d0_49bb_1331_11eb));
    let x = undo_xorshift(x, 27).wrapping_mul(mul_inverse(0xbf58_476d_1ce4_e5b9));
    undo_xorshift(x, 30)
}

/// A generator whose `j`-th draw (from 0) is `k << 11 | low`.
fn rng_with_draw(j: u64, k: u64, low: u64) -> SplitMix64 {
    let z = k << 11 | (low & 0x7ff);
    SplitMix64::new(state_of_output(z).wrapping_sub(GAMMA.wrapping_mul(j + 1)))
}

#[test]
fn crafted_generators_hit_their_draw() {
    for (j, k) in [(0, 0), (3, DRAWS - 1), (5, 12_345)] {
        let mut r = rng_with_draw(j, k, 0x5a5);
        for _ in 0..j {
            r.next_u64();
        }
        assert_eq!(r.next_u64(), k << 11 | 0x5a5);
    }
}

// ---- Random mixes ---------------------------------------------------------

const BODY_CLASSES: [InstClass; 8] = [
    InstClass::IntAlu,
    InstClass::IntMul,
    InstClass::IntDiv,
    InstClass::Load,
    InstClass::Store,
    InstClass::Fp,
    InstClass::Simd,
    InstClass::Nop,
];

const BRANCH_CLASSES: [InstClass; 5] = [
    InstClass::CondBranch,
    InstClass::JumpDirect,
    InstClass::JumpIndirect,
    InstClass::Call,
    InstClass::Ret,
];

/// A weight: zero, tiny, or in `[0, 100)`.
fn weight() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0f64..100.0).prop_map(|(pick, x)| match pick {
        0 => 0.0,
        1 => x * 1e-9,
        _ => x,
    })
}

/// A probability: exactly 0, exactly 1, or in `[0, 1)`.
fn probability() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0f64..1.0).prop_map(|(pick, x)| match pick {
        0 => 0.0,
        1 => 1.0,
        _ => x,
    })
}

/// A mix of 1–10 weights (classes may repeat; at least one positive).
fn mix() -> impl Strategy<Value = InstMix> {
    (
        prop::collection::vec((0usize..BODY_CLASSES.len(), weight()), 1..11),
        0.0f64..100.0,
        (probability(), probability(), probability(), probability()),
    )
        .prop_map(|(weights, rescue, (imm, second, micro, two))| {
            let mut weights: Vec<(InstClass, f64)> = weights
                .into_iter()
                .map(|(c, w)| (BODY_CLASSES[c], w))
                .collect();
            if weights.iter().all(|&(_, w)| w == 0.0) {
                weights[0].1 = rescue + 1.0;
            }
            let mut m = InstMix::new(weights);
            m.imm_disp_prob = imm;
            m.second_imm_prob = second;
            m.microcode_prob = micro;
            m.two_uop_prob = two;
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// From random seeds: identical instructions and generator state after
    /// every body and branch sample.
    #[test]
    fn table_sampler_matches_float_spec(mix in mix(), seed in any::<u64>()) {
        let synth = InstSynthesizer::new(mix.clone());
        let mut fast = SplitMix64::new(seed);
        let mut spec = SplitMix64::new(seed);
        for i in 0..400 {
            prop_assert_eq!(synth.sample(&mut fast), spec_sample(&mix, &mut spec), "body {}", i);
            prop_assert_eq!(&fast, &spec, "state after body {}", i);
            let class = BRANCH_CLASSES[i % BRANCH_CLASSES.len()];
            prop_assert_eq!(
                synth.sample_branch(class, &mut fast),
                spec_sample_branch(class, &mut spec),
                "{} {}", class, i
            );
            prop_assert_eq!(&fast, &spec, "state after {} {}", class, i);
        }
    }

    /// Each of a sample's up to six draws set to either side of every
    /// decision edge of the mix: the table must flip exactly where the
    /// float comparison does.
    #[test]
    fn table_sampler_flips_at_the_float_edges(mix in mix(), low in any::<u64>()) {
        let synth = InstSynthesizer::new(mix.clone());
        for k in edge_draws(&mix) {
            for j in 0..6 {
                let mut fast = rng_with_draw(j, k, low);
                let mut spec = fast.clone();
                prop_assert_eq!(
                    synth.sample(&mut fast),
                    spec_sample(&mix, &mut spec),
                    "draw {} = {:#x}", j, k
                );
                prop_assert_eq!(&fast, &spec, "state, draw {} = {:#x}", j, k);
            }
            for class in BRANCH_CLASSES {
                for j in 0..2 {
                    let mut fast = rng_with_draw(j, k, low);
                    let mut spec = fast.clone();
                    prop_assert_eq!(
                        synth.sample_branch(class, &mut fast),
                        spec_sample_branch(class, &mut spec),
                        "{} draw {} = {:#x}", class, j, k
                    );
                    prop_assert_eq!(&fast, &spec);
                }
            }
        }
    }
}

/// The preset mixes the Table II profiles use, over many draws.
#[test]
fn preset_mixes_match_float_spec() {
    for mix in [
        InstMix::integer_heavy(),
        InstMix::server(),
        InstMix::vector_heavy(),
        InstMix::analytics(),
    ] {
        let synth = InstSynthesizer::new(mix.clone());
        let mut fast = SplitMix64::new(0xC0FFEE);
        let mut spec = fast.clone();
        for _ in 0..50_000 {
            assert_eq!(synth.sample(&mut fast), spec_sample(&mix, &mut spec));
        }
        assert_eq!(fast, spec);
    }
}
