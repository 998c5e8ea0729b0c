//! Generic set-associative cache over 64-byte lines.

use ucsim_model::LineAddr;
use ucsim_model::{FromJson, ToJson};

use crate::{ReplacementPolicy, ReplacementState};

/// Static geometry and policy of one cache level.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct CacheConfig {
    /// Human-readable name ("L1I", "L2", ...).
    pub name: String,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways == 0`.
    pub fn new(name: &str, sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be positive");
        CacheConfig {
            name: name.to_owned(),
            sets,
            ways,
            policy,
        }
    }

    /// Capacity in bytes (64-byte lines).
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * 64
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, ToJson, FromJson)]
pub struct CacheStats {
    /// Demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Lines filled (demand + prefetch).
    pub fills: u64,
    /// Fills that evicted a valid line.
    pub evictions: u64,
    /// Prefetch fills.
    pub prefetch_fills: u64,
    /// Invalidation probes that removed a line.
    pub invalidations: u64,
}

impl CacheStats {
    /// Demand misses.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Demand hit rate in `[0,1]` (1.0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache of 64-byte lines (tags only; the simulator never
/// stores data bytes).
///
/// # Example
///
/// ```
/// use ucsim_mem::{Cache, CacheConfig, ReplacementPolicy};
/// use ucsim_model::Addr;
///
/// let mut c = Cache::new(CacheConfig::new("L1D", 64, 4, ReplacementPolicy::Lru));
/// let line = Addr::new(0x1234_5678).line();
/// assert!(!c.access(line));
/// c.fill(line);
/// assert!(c.access(line));
/// assert_eq!(c.stats().misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Flat `sets × ways` tag store of line *numbers* ([`INVALID_TAG`] when
    /// empty). One contiguous array keeps a whole set's scan inside one or
    /// two hardware cache lines; the nested-`Vec`-of-`Option` layout this
    /// replaces cost a pointer chase plus 16-byte compares per way on the
    /// hottest path in the simulator.
    tags: Vec<u64>,
    /// Replacement state of every set, in one allocation.
    repl: ReplacementState,
    stats: CacheStats,
    /// Reusable victim-selection buffer; fills happen on every miss in
    /// every level, so the valid-way snapshot must not allocate.
    valid_scratch: Vec<bool>,
}

/// Tag value marking an empty way. Line numbers are addresses shifted right
/// by 6, so no reachable line can collide with it.
const INVALID_TAG: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache {
            valid_scratch: Vec::with_capacity(cfg.ways),
            tags: vec![INVALID_TAG; cfg.sets * cfg.ways],
            repl: ReplacementState::new(cfg.policy, cfg.sets, cfg.ways),
            cfg,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets counters (not contents) — used at the warmup/measure boundary.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.number() as usize) & (self.cfg.sets - 1)
    }

    /// The contiguous tag slice of `set`.
    #[inline]
    fn set_tags(&self, set: usize) -> &[u64] {
        &self.tags[set * self.cfg.ways..(set + 1) * self.cfg.ways]
    }

    /// Demand access: returns `true` on hit and updates replacement state.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> bool {
        self.stats.accesses += 1;
        let tag = line.number();
        let set = self.set_of(line);
        if let Some(way) = self.set_tags(set).iter().position(|&t| t == tag) {
            self.stats.hits += 1;
            self.repl.on_hit(set, way);
            true
        } else {
            false
        }
    }

    /// Non-updating lookup.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        self.set_tags(self.set_of(line)).contains(&line.number())
    }

    /// Fills `line`, returning the evicted line if a valid one was displaced.
    ///
    /// Filling an already-present line refreshes its replacement state and
    /// evicts nothing.
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.fill_inner(line, false)
    }

    /// Prefetch fill (tracked separately in the stats).
    pub fn prefetch_fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.fill_inner(line, true)
    }

    fn fill_inner(&mut self, line: LineAddr, prefetch: bool) -> Option<LineAddr> {
        let tag = line.number();
        debug_assert_ne!(tag, INVALID_TAG, "line number collides with sentinel");
        let set = self.set_of(line);
        if let Some(way) = self.set_tags(set).iter().position(|&t| t == tag) {
            // Already resident (e.g. race between demand and prefetch).
            self.repl.on_fill(set, way);
            return None;
        }
        let mut valid = std::mem::take(&mut self.valid_scratch);
        valid.clear();
        valid.extend(self.set_tags(set).iter().map(|&t| t != INVALID_TAG));
        let way = self.repl.victim(set, &valid);
        self.valid_scratch = valid;
        let slot = &mut self.tags[set * self.cfg.ways + way];
        let evicted = (*slot != INVALID_TAG).then(|| LineAddr::from_line_number(*slot));
        *slot = tag;
        self.repl.on_fill(set, way);
        self.stats.fills += 1;
        if prefetch {
            self.stats.prefetch_fills += 1;
        }
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// Invalidates `line` if present; returns whether it was.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let tag = line.number();
        let set = self.set_of(line);
        if let Some(way) = self.set_tags(set).iter().position(|&t| t == tag) {
            self.tags[set * self.cfg.ways + way] = INVALID_TAG;
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Number of currently valid lines (test/diagnostic helper).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    fn small() -> Cache {
        Cache::new(CacheConfig::new("t", 4, 2, ReplacementPolicy::Lru))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(line(5)));
        c.fill(line(5));
        assert!(c.access(line(5)));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn conflict_eviction_lru_order() {
        let mut c = small(); // 4 sets → lines 0,4,8 share set 0; 2 ways
        c.fill(line(0));
        c.fill(line(4));
        c.access(line(0)); // 0 MRU, 4 LRU
        let ev = c.fill(line(8));
        assert_eq!(ev, Some(line(4)));
        assert!(c.probe(line(0)));
        assert!(c.probe(line(8)));
    }

    #[test]
    fn refill_resident_is_noop() {
        let mut c = small();
        c.fill(line(3));
        assert_eq!(c.fill(line(3)), None);
        assert_eq!(c.resident_lines(), 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.fill(line(7));
        assert!(c.invalidate(line(7)));
        assert!(!c.invalidate(line(7)));
        assert!(!c.probe(line(7)));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn prefetch_counted_separately() {
        let mut c = small();
        c.prefetch_fill(line(1));
        c.fill(line(2));
        assert_eq!(c.stats().fills, 2);
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn capacity_bytes() {
        let cfg = CacheConfig::new("L1I", 64, 8, ReplacementPolicy::Lru);
        assert_eq!(cfg.capacity_bytes(), 32 * 1024);
    }

    #[test]
    fn hit_rate_edges() {
        let c = small();
        assert_eq!(c.stats().hit_rate(), 1.0);
        let mut c = small();
        c.access(line(0));
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = CacheConfig::new("x", 3, 2, ReplacementPolicy::Lru);
    }

    #[test]
    fn sets_are_isolated() {
        let mut c = small();
        // Fill set 0 far beyond capacity; set 1 lines must survive.
        c.fill(line(1));
        for i in 0..32 {
            c.fill(line(i * 4));
        }
        assert!(c.probe(line(1)));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.fill(line(9));
        c.access(line(9));
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.probe(line(9)));
    }
}
