//! Replacement policies for set-associative structures.
//!
//! Table I of the paper prescribes true LRU for the L1/L2 and uop cache and
//! RRIP for the L3. Tree-PLRU is included for ablation studies.

use std::ops::Range;

use ucsim_model::{FromJson, ToJson};

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used (per-way timestamps).
    #[default]
    Lru,
    /// Tree pseudo-LRU (one bit per internal node).
    TreePlru,
    /// Static RRIP (2-bit re-reference interval prediction, hit-promotion).
    Srrip,
}

/// The policy's per-way state for every set, set-major: set `s` owns
/// `ways` slots starting at `s * ways` (tree-PLRU: `ways - 1` node bits
/// starting at `s * (ways - 1)`).
#[derive(Debug, Clone)]
enum Meta {
    /// Logical timestamps. One clock serves every set: stamps are only
    /// ever compared within a set, and a single increasing counter orders
    /// each set exactly as a per-set one would.
    Lru { stamps: Vec<u64>, clock: u64 },
    /// Internal node bits; a set's tree is stored in heap order.
    TreePlru { bits: Vec<bool> },
    /// Re-reference prediction values, 0 (near) to 3 (distant).
    Srrip { rrpv: Vec<u8> },
}

/// Replacement state of every set of one set-associative structure, for
/// any [`ReplacementPolicy`].
///
/// The state lives in one array for the whole structure, so building a
/// cache costs one allocation rather than one or two per set. The same
/// state machine drives the I/D caches and (via `ucsim-uopcache`) the uop
/// cache's per-line replacement, so the paper's "replacement state per
/// line, independent of the number of compacted uop cache entries"
/// (Section V-B) reuses this type directly.
///
/// # Example
///
/// ```
/// use ucsim_mem::{ReplacementPolicy, ReplacementState};
/// let mut r = ReplacementState::new(ReplacementPolicy::Lru, 2, 4);
/// r.on_fill(1, 0); r.on_fill(1, 1); r.on_fill(1, 2); r.on_fill(1, 3);
/// r.on_hit(1, 0); // 0 is now MRU in set 1
/// assert_eq!(r.victim(1, &[true, true, true, true]), 1);
/// assert_eq!(r.victim(0, &[true, false, true, true]), 1); // empty way first
/// ```
#[derive(Debug, Clone)]
pub struct ReplacementState {
    ways: usize,
    meta: Meta,
}

impl ReplacementState {
    /// Creates state for `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`, or if `TreePlru` is requested with a
    /// non-power-of-two way count.
    pub fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        let meta = match policy {
            ReplacementPolicy::Lru => Meta::Lru {
                stamps: vec![0; sets * ways],
                clock: 0,
            },
            ReplacementPolicy::TreePlru => {
                assert!(ways.is_power_of_two(), "tree-PLRU needs power-of-two ways");
                Meta::TreePlru {
                    bits: vec![false; sets * (ways - 1)],
                }
            }
            ReplacementPolicy::Srrip => Meta::Srrip {
                rrpv: vec![3; sets * ways], // distant re-reference
            },
        };
        ReplacementState { ways, meta }
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The per-way slots of `set`.
    #[inline]
    fn span(&self, set: usize) -> Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Notes a hit on `way` of `set`.
    pub fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way, true);
    }

    /// Notes a fill into `way` of `set`.
    pub fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way, false);
    }

    fn touch(&mut self, set: usize, way: usize, hit: bool) {
        let ways = self.ways;
        assert!(way < ways, "way {way} out of range {ways}");
        match &mut self.meta {
            Meta::Lru { stamps, clock } => {
                *clock += 1;
                stamps[set * ways + way] = *clock;
            }
            Meta::TreePlru { bits } => {
                // Flip internal nodes to point away from `way`.
                let tree = &mut bits[set * (ways - 1)..(set + 1) * (ways - 1)];
                let mut idx = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let right = way >= mid;
                    tree[idx] = !right; // point away
                    idx = 2 * idx + if right { 2 } else { 1 };
                    if right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
            Meta::Srrip { rrpv } => {
                // Hit promotion to RRPV 0; fills insert at RRPV 2.
                rrpv[set * ways + way] = if hit { 0 } else { 2 };
            }
        }
    }

    /// Chooses a victim way of `set`. Invalid ways (per `valid`) win
    /// immediately.
    ///
    /// # Panics
    ///
    /// Panics if `valid.len() != ways`.
    pub fn victim(&mut self, set: usize, valid: &[bool]) -> usize {
        assert_eq!(valid.len(), self.ways, "valid mask length mismatch");
        if let Some(w) = valid.iter().position(|v| !v) {
            return w;
        }
        let span = self.span(set);
        let ways = self.ways;
        match &mut self.meta {
            Meta::Lru { stamps, .. } => stamps[span]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(w, _)| w)
                .expect("ways > 0"),
            Meta::TreePlru { bits } => {
                let tree = &bits[set * (ways - 1)..(set + 1) * (ways - 1)];
                let mut idx = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let right = tree[idx];
                    idx = 2 * idx + if right { 2 } else { 1 };
                    if right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            Meta::Srrip { rrpv } => {
                // Age until something reaches RRPV 3.
                let rrpv = &mut rrpv[span];
                loop {
                    if let Some(w) = rrpv.iter().position(|&v| v >= 3) {
                        return w;
                    }
                    for v in rrpv.iter_mut() {
                        *v += 1;
                    }
                }
            }
        }
    }

    /// Writes the valid ways of `set` into `out` (cleared first), ranked
    /// from most- to least-recently used: exact for LRU, by RRPV for
    /// SRRIP, way order for tree-PLRU. RAC compaction (paper Section
    /// V-B1) tries targets in this order; the caller's buffer is reused
    /// across fills, so the fill path does not allocate.
    pub fn recency_order(&self, set: usize, valid: &[bool], out: &mut Vec<usize>) {
        assert_eq!(valid.len(), self.ways, "valid mask length mismatch");
        out.clear();
        out.extend((0..self.ways).filter(|&w| valid[w]));
        let base = set * self.ways;
        match &self.meta {
            Meta::Lru { stamps, .. } => out.sort_by_key(|&w| std::cmp::Reverse(stamps[base + w])),
            Meta::Srrip { rrpv } => out.sort_by_key(|&w| rrpv[base + w]),
            Meta::TreePlru { .. } => {} // arbitrary order
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(r: &ReplacementState, set: usize, valid: &[bool]) -> Vec<usize> {
        let mut out = Vec::new();
        r.recency_order(set, valid, &mut out);
        out
    }

    #[test]
    fn lru_victim_is_oldest() {
        let mut r = ReplacementState::new(ReplacementPolicy::Lru, 1, 4);
        for w in 0..4 {
            r.on_fill(0, w);
        }
        r.on_hit(0, 0);
        r.on_hit(0, 2);
        assert_eq!(r.victim(0, &[true; 4]), 1);
    }

    #[test]
    fn invalid_way_preferred() {
        let mut r = ReplacementState::new(ReplacementPolicy::Lru, 1, 4);
        r.on_fill(0, 0);
        assert_eq!(r.victim(0, &[true, false, true, true]), 1);
    }

    #[test]
    fn lru_full_cycle() {
        let mut r = ReplacementState::new(ReplacementPolicy::Lru, 1, 2);
        r.on_fill(0, 0);
        r.on_fill(0, 1);
        assert_eq!(r.victim(0, &[true, true]), 0);
        r.on_hit(0, 0);
        assert_eq!(r.victim(0, &[true, true]), 1);
    }

    #[test]
    fn sets_are_independent() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Srrip,
        ] {
            let mut r = ReplacementState::new(policy, 3, 4);
            let mut alone = ReplacementState::new(policy, 1, 4);
            // Set 1 sees the same traffic as a lone set; sets 0 and 2 see
            // other traffic that must not leak into it.
            for (i, w) in [0, 1, 2, 3, 1, 0, 2].into_iter().enumerate() {
                r.on_fill(0, 3 - w);
                r.on_hit(2, (w + i) % 4);
                if i % 2 == 0 {
                    r.on_hit(1, w);
                    alone.on_hit(0, w);
                } else {
                    r.on_fill(1, w);
                    alone.on_fill(0, w);
                }
                assert_eq!(r.victim(1, &[true; 4]), alone.victim(0, &[true; 4]));
                assert_eq!(order(&r, 1, &[true; 4]), order(&alone, 0, &[true; 4]));
            }
        }
    }

    #[test]
    fn plru_never_victimizes_just_touched() {
        let mut r = ReplacementState::new(ReplacementPolicy::TreePlru, 2, 8);
        for w in 0..8 {
            r.on_fill(1, w);
        }
        for w in 0..8 {
            r.on_hit(1, w);
            assert_ne!(r.victim(1, &[true; 8]), w, "victim == just-touched way {w}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_pow2() {
        let _ = ReplacementState::new(ReplacementPolicy::TreePlru, 1, 6);
    }

    #[test]
    fn srrip_promotes_on_hit() {
        let mut r = ReplacementState::new(ReplacementPolicy::Srrip, 1, 2);
        r.on_fill(0, 0);
        r.on_fill(0, 1);
        r.on_hit(0, 0);
        // way 1 (RRPV 2) should age out before way 0 (RRPV 0).
        assert_eq!(r.victim(0, &[true, true]), 1);
    }

    #[test]
    fn recency_order_lru_exact() {
        let mut r = ReplacementState::new(ReplacementPolicy::Lru, 1, 4);
        for w in 0..4 {
            r.on_fill(0, w);
        }
        r.on_hit(0, 1);
        r.on_hit(0, 3);
        assert_eq!(order(&r, 0, &[true; 4]), vec![3, 1, 2, 0]);
        // Only valid ways are ranked.
        assert_eq!(order(&r, 0, &[true, false, true, false]), vec![2, 0]);
        assert!(order(&r, 0, &[false; 4]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn rejects_zero_ways() {
        let _ = ReplacementState::new(ReplacementPolicy::Lru, 1, 0);
    }
}
