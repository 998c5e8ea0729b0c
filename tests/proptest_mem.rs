//! Property-based tests of the cache/replacement substrate, including a
//! differential test of the flat set-major `Cache` against a per-set
//! reference model.

use proptest::prelude::*;
use ucsim::mem::{AccessKind, Cache, CacheConfig, MemoryHierarchy, ReplacementPolicy};
use ucsim::model::LineAddr;

fn line(n: u64) -> LineAddr {
    LineAddr::from_line_number(n)
}

/// The policy `pick` names, with a way count it accepts: tree-PLRU is
/// drawn with `2^way_bits` ways, the others with `ways`.
fn pick(pick: u8, ways: usize, way_bits: u32) -> (ReplacementPolicy, usize) {
    match pick {
        0 => (ReplacementPolicy::Lru, ways),
        1 => (ReplacementPolicy::Srrip, ways),
        _ => (ReplacementPolicy::TreePlru, 1 << way_bits),
    }
}

/// Reference replacement state for one set: the per-set state machine
/// the flat `ReplacementState` replaced, kept as the model it must agree
/// with.
struct RefRepl {
    policy: ReplacementPolicy,
    ways: usize,
    /// LRU: logical timestamps. SRRIP: RRPV values.
    meta: Vec<u64>,
    /// Tree-PLRU internal node bits.
    tree: Vec<bool>,
    clock: u64,
}

impl RefRepl {
    fn new(policy: ReplacementPolicy, ways: usize) -> Self {
        let init = if policy == ReplacementPolicy::Srrip {
            3
        } else {
            0
        };
        RefRepl {
            policy,
            ways,
            meta: vec![init; ways],
            tree: vec![false; ways - 1],
            clock: 0,
        }
    }

    fn touch(&mut self, way: usize, hit: bool) {
        match self.policy {
            ReplacementPolicy::Lru => {
                self.clock += 1;
                self.meta[way] = self.clock;
            }
            ReplacementPolicy::TreePlru => {
                let (mut idx, mut lo, mut hi) = (0, 0, self.ways);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let right = way >= mid;
                    self.tree[idx] = !right;
                    idx = 2 * idx + if right { 2 } else { 1 };
                    if right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
            ReplacementPolicy::Srrip => self.meta[way] = if hit { 0 } else { 2 },
        }
    }

    fn victim(&mut self, valid: &[bool]) -> usize {
        if let Some(w) = valid.iter().position(|v| !v) {
            return w;
        }
        match self.policy {
            ReplacementPolicy::Lru => (0..self.ways).min_by_key(|&w| self.meta[w]).unwrap(),
            ReplacementPolicy::TreePlru => {
                let (mut idx, mut lo, mut hi) = (0, 0, self.ways);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let right = self.tree[idx];
                    idx = 2 * idx + if right { 2 } else { 1 };
                    if right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            ReplacementPolicy::Srrip => loop {
                if let Some(w) = self.meta.iter().position(|&v| v >= 3) {
                    return w;
                }
                for v in &mut self.meta {
                    *v += 1;
                }
            },
        }
    }
}

/// Reference cache: a `Vec` of ways and a [`RefRepl`] per set.
struct RefCache {
    sets: Vec<(Vec<Option<LineAddr>>, RefRepl)>,
    /// accesses, hits, fills, evictions, prefetch fills, invalidations.
    stats: [u64; 6],
}

impl RefCache {
    fn new(sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        RefCache {
            sets: (0..sets)
                .map(|_| (vec![None; ways], RefRepl::new(policy, ways)))
                .collect(),
            stats: [0; 6],
        }
    }

    fn set(&mut self, l: LineAddr) -> &mut (Vec<Option<LineAddr>>, RefRepl) {
        let n = self.sets.len();
        &mut self.sets[l.number() as usize % n]
    }

    fn access(&mut self, l: LineAddr) -> bool {
        self.stats[0] += 1;
        let (ways, repl) = self.set(l);
        let Some(w) = ways.iter().position(|&t| t == Some(l)) else {
            return false;
        };
        repl.touch(w, true);
        self.stats[1] += 1;
        true
    }

    fn probe(&mut self, l: LineAddr) -> bool {
        self.set(l).0.contains(&Some(l))
    }

    fn fill(&mut self, l: LineAddr, prefetch: bool) -> Option<LineAddr> {
        let (ways, repl) = self.set(l);
        if let Some(w) = ways.iter().position(|&t| t == Some(l)) {
            repl.touch(w, false);
            return None;
        }
        let valid: Vec<bool> = ways.iter().map(Option::is_some).collect();
        let w = repl.victim(&valid);
        let evicted = ways[w].replace(l);
        repl.touch(w, false);
        self.stats[2] += 1;
        self.stats[4] += u64::from(prefetch);
        self.stats[3] += u64::from(evicted.is_some());
        evicted
    }

    fn invalidate(&mut self, l: LineAddr) -> bool {
        let (ways, _) = self.set(l);
        let Some(w) = ways.iter().position(|&t| t == Some(l)) else {
            return false;
        };
        ways[w] = None;
        self.stats[5] += 1;
        true
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().flat_map(|(w, _)| w).flatten().count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Occupancy never exceeds capacity, and a line is resident right
    /// after its fill, under arbitrary access/fill/invalidate traffic.
    #[test]
    fn cache_occupancy_and_residency(
        ops in prop::collection::vec((0u8..3, 0u64..200), 1..500),
        set_bits in 1u32..5,
        (ways, way_bits) in (1usize..9, 0u32..4),
        policy_pick in 0u8..3,
    ) {
        let (policy, ways) = pick(policy_pick, ways, way_bits);
        let sets = 1usize << set_bits;
        let mut c = Cache::new(CacheConfig::new("t", sets, ways, policy));
        for (op, n) in ops {
            match op {
                0 => {
                    let _ = c.access(line(n));
                }
                1 => {
                    c.fill(line(n));
                    prop_assert!(c.probe(line(n)), "fill must make resident");
                }
                _ => {
                    c.invalidate(line(n));
                    prop_assert!(!c.probe(line(n)), "invalidate must remove");
                }
            }
            prop_assert!(c.resident_lines() <= sets * ways);
        }
    }

    /// The flat cache makes exactly the decisions of the per-set
    /// reference model: the same hits, the same victims, the same
    /// residency and the same counters, under every policy.
    #[test]
    fn cache_matches_the_per_set_reference(
        ops in prop::collection::vec((0u8..5, 0u64..160), 1..600),
        set_bits in 0u32..4,
        (ways, way_bits) in (1usize..9, 0u32..4),
        policy_pick in 0u8..3,
    ) {
        let (policy, ways) = pick(policy_pick, ways, way_bits);
        let sets = 1usize << set_bits;
        let mut c = Cache::new(CacheConfig::new("t", sets, ways, policy));
        let mut r = RefCache::new(sets, ways, policy);
        for (i, (op, n)) in ops.into_iter().enumerate() {
            let l = line(n);
            match op {
                0 => prop_assert_eq!(c.access(l), r.access(l), "op {}: access {}", i, n),
                1 => prop_assert_eq!(c.fill(l), r.fill(l, false), "op {}: fill {}", i, n),
                2 => prop_assert_eq!(
                    c.prefetch_fill(l),
                    r.fill(l, true),
                    "op {}: prefetch fill {}", i, n
                ),
                3 => prop_assert_eq!(c.invalidate(l), r.invalidate(l), "op {}: invalidate {}", i, n),
                _ => prop_assert_eq!(c.probe(l), r.probe(l), "op {}: probe {}", i, n),
            }
        }
        let s = c.stats();
        prop_assert_eq!(
            [s.accesses, s.hits, s.fills, s.evictions, s.prefetch_fills, s.invalidations],
            r.stats
        );
        prop_assert_eq!(c.resident_lines(), r.resident_lines());
    }

    /// LRU never evicts the line that was just touched when the set has
    /// more than one way.
    #[test]
    fn lru_protects_the_mru_line(
        lines in prop::collection::vec(0u64..64, 2..200),
        ways in 2usize..9,
    ) {
        // Single set: every line conflicts.
        let mut c = Cache::new(CacheConfig::new("t", 1, ways, ReplacementPolicy::Lru));
        let mut last: Option<LineAddr> = None;
        for n in lines {
            let l = line(n);
            if !c.access(l) {
                let evicted = c.fill(l);
                if let (Some(prev), Some(ev)) = (last, evicted) {
                    prop_assert_ne!(ev, prev, "evicted the MRU line");
                    prop_assert_ne!(ev, l);
                }
            }
            last = Some(l);
        }
    }

    /// Hierarchy latencies always come from the configured ladder, and a
    /// repeat access is never slower than the first.
    #[test]
    fn hierarchy_latency_ladder(addrs in prop::collection::vec(0u64..5000, 1..300)) {
        let mut mem = MemoryHierarchy::new(Default::default());
        let cfg = mem.config().clone();
        let valid = [cfg.l1_latency, cfg.l2_latency, cfg.l3_latency, cfg.dram_latency];
        for n in addrs {
            let first = mem.access(AccessKind::Fetch, line(n));
            prop_assert!(valid.contains(&first), "latency {first} not in ladder");
            let second = mem.access(AccessKind::Fetch, line(n));
            prop_assert!(second <= first, "repeat slower: {second} > {first}");
            prop_assert_eq!(second, cfg.l1_latency, "repeat must hit L1");
        }
    }
}
