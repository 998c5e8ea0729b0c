//! TAGE conditional branch predictor (Seznec, "A new case for the TAGE
//! branch predictor", MICRO 2011 — reference [49] of the paper).
//!
//! A bimodal base table plus `N` partially-tagged tables indexed by
//! geometrically increasing global-history lengths. The longest-history
//! matching table provides the prediction; allocation on mispredictions
//! moves hard branches into longer-history tables.

use ucsim_model::{mix64, Addr, FromJson, SplitMix64, ToJson};

/// Geometry of the TAGE predictor.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct TageConfig {
    /// log2 entries of the bimodal base table.
    pub bimodal_bits: u32,
    /// log2 entries of each tagged table.
    pub table_bits: u32,
    /// Tag width in bits for tagged tables.
    pub tag_bits: u32,
    /// Global-history lengths per tagged table (geometric series).
    pub history_lengths: Vec<u32>,
}

impl Default for TageConfig {
    fn default() -> Self {
        TageConfig {
            bimodal_bits: 13,
            table_bits: 11,
            tag_bits: 9,
            history_lengths: vec![4, 9, 18, 36, 64],
        }
    }
}

/// Counters for predictor accuracy.
#[derive(Debug, Clone, Copy, Default)]
pub struct TageStats {
    /// Conditional-branch predictions made.
    pub predictions: u64,
    /// Direction mispredictions.
    pub mispredictions: u64,
    /// Predictions provided by a tagged table (vs bimodal).
    pub tagged_provided: u64,
}

impl TageStats {
    /// Misprediction rate in `[0,1]`.
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    ctr: i8, // 3-bit signed counter: -4..=3, taken when >= 0
    useful: u8,
}

/// The predictor.
///
/// # Example
///
/// ```
/// use ucsim_bpu::Tage;
/// use ucsim_model::Addr;
///
/// let mut t = Tage::new(Default::default());
/// let pc = Addr::new(0x400);
/// // A strongly-biased branch trains quickly.
/// for _ in 0..64 {
///     let p = t.predict(pc);
///     t.update(pc, true, p);
/// }
/// assert!(t.predict(pc));
/// ```
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    bimodal: Vec<i8>, // 2-bit: -2..=1, taken when >= 0
    /// Every tagged table in one array, table by table: entry `i` of
    /// table `t` is at `t << table_bits | i` (see [`Self::slot`]).
    tables: Vec<TaggedEntry>,
    /// Number of tagged tables (`cfg.history_lengths.len()`).
    n_tables: usize,
    /// Global history as a shift register (bit 0 = most recent).
    ghr: u128,
    alloc_rng: SplitMix64,
    stats: TageStats,
    /// Provider of the most recent [`Self::predict`] call, consumed by the
    /// following [`Self::update`] for the same pc so the predict-then-update
    /// protocol costs one table scan instead of two. Nothing that affects a
    /// lookup (tables, ghr) mutates between the two calls, so the cached
    /// provider is exactly what a fresh scan would return.
    last_lookup: Option<(u64, Provider)>,
}

/// Which component provided a prediction (fed back into `update`).
#[derive(Debug, Clone, Copy)]
struct Provider {
    /// Table index (`n_tables` == bimodal).
    table: usize,
    /// The entry's position: in `tables` for a tagged provider, in
    /// `bimodal` for the bimodal one.
    index: usize,
    /// Alternate prediction (used for the `useful` heuristic).
    alt_taken: bool,
}

impl Tage {
    /// Creates a predictor with all counters neutral.
    pub fn new(cfg: TageConfig) -> Self {
        assert!(
            !cfg.history_lengths.is_empty(),
            "need at least one tagged table"
        );
        assert!(
            cfg.history_lengths.windows(2).all(|w| w[0] < w[1]),
            "history lengths must increase"
        );
        assert!(
            *cfg.history_lengths.last().unwrap() <= 128,
            "history capped at 128 bits"
        );
        let n_tables = cfg.history_lengths.len();
        let tables = vec![TaggedEntry::default(); n_tables << cfg.table_bits];
        Tage {
            // Cold branches predict weakly not-taken (the conventional
            // static default; also what Figure 2(a)-style sequential PWs
            // assume for unseen branches).
            bimodal: vec![-1; 1 << cfg.bimodal_bits],
            tables,
            n_tables,
            ghr: 0,
            alloc_rng: SplitMix64::new(0x7a6e_1dea),
            cfg,
            stats: TageStats::default(),
            last_lookup: None,
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> TageStats {
        self.stats
    }

    /// Resets counters (not predictor state).
    pub fn reset_stats(&mut self) {
        self.stats = TageStats::default();
    }

    /// The position of entry `index` of table `t` in `tables`.
    fn slot(&self, t: usize, index: usize) -> usize {
        t << self.cfg.table_bits | index
    }

    fn folded_history(&self, len: u32, out_bits: u32) -> u64 {
        let mask = if len >= 128 {
            u128::MAX
        } else {
            (1u128 << len) - 1
        };
        let mut h = self.ghr & mask;
        let mut folded: u64 = 0;
        while h != 0 {
            folded ^= (h as u64) & ((1u64 << out_bits) - 1);
            h >>= out_bits;
        }
        folded
    }

    fn index_of(&self, pc: Addr, t: usize) -> usize {
        let hl = self.cfg.history_lengths[t];
        let fh = self.folded_history(hl, self.cfg.table_bits);
        let mixed = mix64(pc.get() ^ (t as u64).wrapping_mul(0x9e3779b1) ^ fh << 1);
        (mixed as usize) & ((1 << self.cfg.table_bits) - 1)
    }

    fn tag_of(&self, pc: Addr, t: usize) -> u16 {
        let hl = self.cfg.history_lengths[t];
        let fh = self.folded_history(hl, self.cfg.tag_bits);
        let mixed = mix64(pc.get().rotate_left(7) ^ (t as u64) << 33 ^ fh);
        (mixed as u16) & ((1 << self.cfg.tag_bits) - 1)
    }

    fn bimodal_index(&self, pc: Addr) -> usize {
        (mix64(pc.get()) as usize) & ((1 << self.cfg.bimodal_bits) - 1)
    }

    fn lookup(&self, pc: Addr) -> (bool, Provider) {
        let mut provider: Option<(usize, usize)> = None;
        let mut alt: Option<bool> = None;
        // Scan longest → shortest.
        for t in (0..self.n_tables).rev() {
            let slot = self.slot(t, self.index_of(pc, t));
            let e = &self.tables[slot];
            if e.tag == self.tag_of(pc, t) {
                if provider.is_none() {
                    provider = Some((t, slot));
                } else if alt.is_none() {
                    alt = Some(e.ctr >= 0);
                    break;
                }
            }
        }
        let bim_taken = self.bimodal[self.bimodal_index(pc)] >= 0;
        match provider {
            Some((t, slot)) => {
                let taken = self.tables[slot].ctr >= 0;
                (
                    taken,
                    Provider {
                        table: t,
                        index: slot,
                        alt_taken: alt.unwrap_or(bim_taken),
                    },
                )
            }
            None => (
                bim_taken,
                Provider {
                    table: self.n_tables,
                    index: self.bimodal_index(pc),
                    alt_taken: bim_taken,
                },
            ),
        }
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&mut self, pc: Addr) -> bool {
        self.stats.predictions += 1;
        let (taken, provider) = self.lookup(pc);
        if provider.table < self.n_tables {
            self.stats.tagged_provided += 1;
        }
        self.last_lookup = Some((pc.get(), provider));
        taken
    }

    /// Trains on the actual outcome. `predicted` must be the value returned
    /// by the immediately preceding [`Self::predict`] call for this branch
    /// (the standard predict-then-update protocol).
    pub fn update(&mut self, pc: Addr, taken: bool, predicted: bool) {
        let provider = match self.last_lookup.take() {
            Some((cached_pc, p)) if cached_pc == pc.get() => p,
            _ => self.lookup(pc).1,
        };
        let mispredicted = predicted != taken;
        if mispredicted {
            self.stats.mispredictions += 1;
        }

        // Update the provider's counter.
        if provider.table < self.n_tables {
            let e = &mut self.tables[provider.index];
            e.ctr = if taken {
                (e.ctr + 1).min(3)
            } else {
                (e.ctr - 1).max(-4)
            };
            // Useful bit: provider differed from alt and was correct.
            let was_correct = !mispredicted;
            if provider.alt_taken != predicted {
                if was_correct {
                    e.useful = e.useful.saturating_add(1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        } else {
            let b = &mut self.bimodal[provider.index];
            *b = if taken {
                (*b + 1).min(1)
            } else {
                (*b - 1).max(-2)
            };
        }

        // On a misprediction, allocate in a table with *longer* history
        // than the provider (bimodal provider ⇒ any tagged table).
        let start = if provider.table >= self.n_tables {
            0
        } else {
            provider.table + 1
        };
        if mispredicted && start < self.n_tables {
            // Prefer a candidate with useful == 0; decay a random one
            // otherwise.
            let pick = (start..self.n_tables).find(|&t| {
                let idx = self.index_of(pc, t);
                self.tables[self.slot(t, idx)].useful == 0
            });
            match pick {
                Some(t) => {
                    let idx = self.index_of(pc, t);
                    let tag = self.tag_of(pc, t);
                    let slot = self.slot(t, idx);
                    self.tables[slot] = TaggedEntry {
                        tag,
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                }
                None => {
                    let t = start + self.alloc_rng.index(self.n_tables - start);
                    let slot = self.slot(t, self.index_of(pc, t));
                    self.tables[slot].useful = self.tables[slot].useful.saturating_sub(1);
                }
            }
        }

        // Shift the outcome into global history.
        self.ghr = (self.ghr << 1) | (taken as u128);
    }

    /// Convenience: predict + update in one call, returning the prediction.
    pub fn predict_and_update(&mut self, pc: Addr, taken: bool) -> bool {
        let p = self.predict(pc);
        self.update(pc, taken, p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biased_branch_converges() {
        let mut t = Tage::new(TageConfig::default());
        let pc = Addr::new(0x1000);
        for _ in 0..100 {
            let p = t.predict(pc);
            t.update(pc, true, p);
        }
        t.reset_stats();
        for _ in 0..100 {
            let p = t.predict(pc);
            t.update(pc, true, p);
        }
        assert_eq!(t.stats().mispredictions, 0);
    }

    #[test]
    fn alternating_pattern_learned_via_history() {
        let mut t = Tage::new(TageConfig::default());
        let pc = Addr::new(0x2000);
        let mut taken = false;
        for _ in 0..4000 {
            taken = !taken;
            let p = t.predict(pc);
            t.update(pc, taken, p);
        }
        t.reset_stats();
        for _ in 0..1000 {
            taken = !taken;
            let p = t.predict(pc);
            t.update(pc, taken, p);
        }
        assert!(
            t.stats().mispredict_rate() < 0.05,
            "alternating branch should be near-perfect, rate={}",
            t.stats().mispredict_rate()
        );
    }

    #[test]
    fn loop_exit_pattern() {
        // taken x7 then not-taken, repeated: classic loop branch.
        let mut t = Tage::new(TageConfig::default());
        let pc = Addr::new(0x3000);
        for i in 0..16_000u64 {
            let taken = i % 8 != 7;
            let p = t.predict(pc);
            t.update(pc, taken, p);
        }
        t.reset_stats();
        for i in 0..8000u64 {
            let taken = i % 8 != 7;
            let p = t.predict(pc);
            t.update(pc, taken, p);
        }
        assert!(
            t.stats().mispredict_rate() < 0.08,
            "loop-exit rate={}",
            t.stats().mispredict_rate()
        );
    }

    #[test]
    fn random_branch_is_hard() {
        let mut t = Tage::new(TageConfig::default());
        let pc = Addr::new(0x4000);
        let mut rng = SplitMix64::new(99);
        for _ in 0..4000 {
            let taken = rng.chance(0.5);
            let p = t.predict(pc);
            t.update(pc, taken, p);
        }
        assert!(
            t.stats().mispredict_rate() > 0.3,
            "random branch cannot be predicted, rate={}",
            t.stats().mispredict_rate()
        );
    }

    #[test]
    fn distinct_branches_do_not_destructively_alias() {
        let mut t = Tage::new(TageConfig::default());
        // 64 branches, alternating bias by pc parity.
        for round in 0..200 {
            for b in 0..64u64 {
                let pc = Addr::new(0x8000 + b * 16);
                let taken = b % 2 == 0;
                let p = t.predict(pc);
                t.update(pc, taken, p);
                let _ = round;
            }
        }
        t.reset_stats();
        for b in 0..64u64 {
            let pc = Addr::new(0x8000 + b * 16);
            let taken = b % 2 == 0;
            let p = t.predict(pc);
            t.update(pc, taken, p);
        }
        assert!(
            t.stats().mispredict_rate() < 0.05,
            "rate={}",
            t.stats().mispredict_rate()
        );
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn rejects_unordered_histories() {
        let _ = Tage::new(TageConfig {
            history_lengths: vec![8, 8],
            ..Default::default()
        });
    }

    #[test]
    fn folded_history_changes_index() {
        let mut t = Tage::new(TageConfig::default());
        let pc = Addr::new(0x123450);
        let i0 = t.index_of(pc, 4);
        // Push 64 taken outcomes: history now all-ones.
        for _ in 0..64 {
            let p = t.predict(pc);
            t.update(pc, true, p);
        }
        let i1 = t.index_of(pc, 4);
        assert_ne!(i0, i1, "long-history index must depend on GHR");
    }
}
