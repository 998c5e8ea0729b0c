//! Deterministic randomness utilities.
//!
//! The whole simulator is reproducible from a single seed. Workload
//! synthesis uses [`SplitMix64`]; per-uop decisions in the back-end use the
//! stateless [`mix64`] hash so that identical traces produce identical
//! back-end behaviour regardless of front-end configuration (A/B
//! comparisons between uop cache designs are then not confounded by RNG
//! stream drift).

/// Finalizing 64-bit mix function (SplitMix64 / Murmur3 finalizer family).
///
/// Stateless, bijective, avalanching. Used to derive per-item pseudo-random
/// decisions from stable identities.
///
/// # Example
///
/// ```
/// use ucsim_model::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(42), mix64(42));
/// ```
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit hash over raw bytes.
///
/// The workspace's one content hash: store record checksums, uploaded
/// program ids, request-id span tags and fault-injection rule seeds all
/// go through it, so its output is part of on-disk and wire formats.
///
/// # Example
///
/// ```
/// use ucsim_model::fnv1a;
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The unit float `[0, 1)` of a 64-bit value's top 53 bits: `k · 2⁻⁵³`
/// with `k = bits >> 11`.
///
/// Both factors are exact in `f64` (`k < 2⁵³`, and the scale is a power
/// of two), so the result is exactly `k / 2⁵³` and strictly increasing
/// in `k`. Every decision made by comparing it against a constant is
/// therefore a threshold on `k` — the fact table-driven samplers rely on.
///
/// # Example
///
/// ```
/// use ucsim_model::unit_from_bits;
/// assert_eq!(unit_from_bits(0), 0.0);
/// assert_eq!(unit_from_bits(1 << 63), 0.5);
/// assert!(unit_from_bits(u64::MAX) < 1.0);
/// ```
pub fn unit_from_bits(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The Weyl-sequence increment SplitMix64 adds to its state per draw.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 pseudo-random number generator.
///
/// Small, fast, with a full 2^64 period — more than adequate for workload
/// synthesis, and trivially reproducible. Not cryptographic.
///
/// # Example
///
/// ```
/// use ucsim_model::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next `N` raw values, without advancing the generator.
    ///
    /// With [`Self::advance`] this lets a caller compute a decision that
    /// consumes a data-dependent number of draws without branching on it.
    ///
    /// ```
    /// use ucsim_model::SplitMix64;
    /// let mut a = SplitMix64::new(7);
    /// let [x, y] = a.peek();
    /// a.advance(2);
    /// let mut b = SplitMix64::new(7);
    /// assert_eq!((x, y), (b.next_u64(), b.next_u64()));
    /// assert_eq!(a, b);
    /// ```
    pub fn peek<const N: usize>(&self) -> [u64; N] {
        let mut ahead = self.clone();
        std::array::from_fn(|_| ahead.next_u64())
    }

    /// Skips `n` draws: the state `n` calls of [`Self::next_u64`] would
    /// leave, without computing their values.
    pub fn advance(&mut self, n: u64) {
        self.state = self.state.wrapping_add(GAMMA.wrapping_mul(n));
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift; bias is negligible for simulator purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        unit_from_bits(self.next_u64())
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Geometric-ish positive sample with the given mean (rounded, min 1).
    ///
    /// Used by workload generators for basic-block lengths and loop trip
    /// counts. Mean values below 1 return 1.
    pub fn geometric_mean(&mut self, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        // Inverse-CDF sampling of a geometric distribution with success
        // probability 1/mean, shifted to start at 1.
        let p = 1.0 / mean;
        let u = self.unit_f64().max(f64::MIN_POSITIVE);
        let val = (u.ln() / (1.0 - p).ln()).floor() as u64 + 1;
        val.min(100_000)
    }

    /// Derives an independent child generator (e.g. one per workload
    /// subsystem) from this generator's stream.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(mix64(self.next_u64()))
    }

    /// Zipf-distributed index in `[0, n)` with exponent `s`: one
    /// [`Zipf::sample`] of a fresh [`Zipf::new`]`(n, s)`.
    ///
    /// Hot-code selection in the workload generator uses this to model the
    /// strong code-reuse skew real applications show.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        Zipf::new(n, s).sample(self)
    }
}

/// A Zipf-like index distribution over `[0, n)` with exponent `s`, its
/// per-domain constants computed once.
///
/// A simple inverse-power transform: adequate statistical quality for
/// workload skew, cheap, and deterministic. A caller that draws many
/// indices from one domain (the walker's data addresses and dispatcher)
/// builds one `Zipf` and pays one `powf` per draw instead of two. The
/// constants are the transform's own subexpressions, evaluated by the
/// same `f64` operations in the same order, so a draw is bit-identical
/// to evaluating the whole transform per draw.
///
/// # Example
///
/// ```
/// use ucsim_model::{SplitMix64, Zipf};
/// let z = Zipf::new(1000, 1.2);
/// let (mut a, mut b) = (SplitMix64::new(3), SplitMix64::new(3));
/// assert_eq!(z.sample(&mut a), b.zipf(1000, 1.2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: usize,
    shape: ZipfShape,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ZipfShape {
    /// One-element domain: always index 0, without a draw.
    Single,
    /// `s ≈ 1`: `x = expm1(u·ln n) / scale`.
    Log { ln_n: f64, scale: f64 },
    /// `x = (u·span + 1)^(1/(1−s))` with `span = n^(1−s) − 1`.
    Power { span: f64, inv_exp: f64 },
}

impl Zipf {
    /// The distribution over `[0, n)` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over empty domain");
        let nf = n as f64;
        let shape = if n == 1 {
            ZipfShape::Single
        } else if (s - 1.0).abs() < 1e-9 {
            let ln_n = nf.ln();
            ZipfShape::Log {
                ln_n,
                scale: ln_n.exp_m1() / (nf - 1.0).max(1.0),
            }
        } else {
            let exp = 1.0 - s;
            ZipfShape::Power {
                span: nf.powf(exp) - 1.0,
                inv_exp: 1.0 / exp,
            }
        };
        Zipf { n, shape }
    }

    /// Size of the domain.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Draws one index; a one-element domain answers 0 without a draw.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let x = match self.shape {
            ZipfShape::Single => return 0,
            ZipfShape::Log { ln_n, scale } => {
                let u = rng.unit_f64().max(1e-12);
                (u * ln_n).exp_m1() / scale
            }
            ZipfShape::Power { span, inv_exp } => {
                let u = rng.unit_f64().max(1e-12);
                ((u * span) + 1.0).powf(inv_exp)
            }
        };
        (x as usize).min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn unit_in_range() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.1));
    }

    #[test]
    fn geometric_mean_is_close() {
        let mut r = SplitMix64::new(77);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.geometric_mean(6.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.5, "mean was {mean}");
    }

    #[test]
    fn geometric_min_one() {
        let mut r = SplitMix64::new(77);
        for _ in 0..100 {
            assert!(r.geometric_mean(0.2) == 1);
            assert!(r.geometric_mean(3.0) >= 1);
        }
    }

    #[test]
    fn zipf_skews_to_low_indices() {
        let mut r = SplitMix64::new(3);
        let n = 1000usize;
        let mut lows = 0;
        let trials = 10_000;
        for _ in 0..trials {
            let z = r.zipf(n, 1.2);
            assert!(z < n);
            if z < n / 10 {
                lows += 1;
            }
        }
        // With s=1.2 the first decile should dominate heavily.
        assert!(lows > trials / 2, "lows={lows}");
    }

    #[test]
    fn zipf_single_element() {
        let mut r = SplitMix64::new(3);
        assert_eq!(r.zipf(1, 1.1), 0);
    }

    #[test]
    fn zipf_table_matches_the_inline_transform() {
        // The transform as written before its constants were hoisted.
        fn inline(r: &mut SplitMix64, n: usize, s: f64) -> usize {
            if n == 1 {
                return 0;
            }
            let u = r.unit_f64().max(1e-12);
            if (s - 1.0).abs() < 1e-9 {
                let hn = (n as f64).ln();
                let x = (u * hn).exp_m1() / ((hn).exp_m1() / (n as f64 - 1.0).max(1.0));
                (x as usize).min(n - 1)
            } else {
                let exp = 1.0 - s;
                let nf = n as f64;
                let x = ((u * (nf.powf(exp) - 1.0)) + 1.0).powf(1.0 / exp);
                (x as usize).min(n - 1)
            }
        }
        for (n, s) in [
            (1, 1.1),
            (2, 0.0),
            (7, 1.0),
            (1000, 1.2),
            (4096, 0.9),
            (33, 1.5),
        ] {
            let z = Zipf::new(n, s);
            let (mut a, mut b) = (SplitMix64::new(n as u64), SplitMix64::new(n as u64));
            for _ in 0..2000 {
                assert_eq!(z.sample(&mut a), inline(&mut b, n, s), "n={n} s={s}");
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn advance_matches_discarded_draws() {
        let mut a = SplitMix64::new(11);
        let mut b = a.clone();
        a.advance(5);
        for _ in 0..5 {
            b.next_u64();
        }
        assert_eq!(a, b);
        assert_eq!(a.peek::<3>(), [b.next_u64(), b.next_u64(), b.next_u64()]);
    }

    #[test]
    fn fork_diverges_from_parent() {
        let mut a = SplitMix64::new(123);
        let mut child = a.fork();
        assert_ne!(a.next_u64(), child.next_u64());
    }

    #[test]
    fn mix64_is_bijective_sample() {
        // Spot-check injectivity over a small domain.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }
}
