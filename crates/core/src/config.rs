//! Uop cache geometry and policy configuration.

use ucsim_mem::ReplacementPolicy;
use ucsim_model::{FromJson, ToJson};

/// Which compaction allocation policy the cache uses (paper Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum CompactionPolicy {
    /// No compaction: one entry per line (baseline / CLASP-only).
    None,
    /// Replacement-Aware Compaction: compact into the most recently used
    /// line with room.
    Rac,
    /// Prediction-Window-Aware Compaction: prefer a line already holding
    /// an entry of the same PW; fall back to RAC.
    Pwac,
    /// Forced PWAC: when the same-PW entry is stuck in a line with foreign
    /// entries and no room, evict the foreigners to the LRU line and unite
    /// the PW's entries; falls back to PWAC → RAC.
    Fpwac,
}

impl CompactionPolicy {
    /// True if any compaction is enabled.
    pub const fn enabled(self) -> bool {
        !matches!(self, CompactionPolicy::None)
    }
}

/// How a fill was placed (the Figure 19 statistic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum PlacementKind {
    /// Allocated a fresh (or victimized) line of its own.
    NewLine,
    /// Compacted by RAC.
    Rac,
    /// Compacted by PWAC.
    Pwac,
    /// Compacted by the forced F-PWAC move.
    Fpwac,
}

/// Largest capacity [`UopCacheConfig::check`] accepts, in uops, and the
/// largest number of entry slots (`sets × ways × max_entries_per_line`)
/// it lets a cache preallocate: 16× the 64K-uop top of the paper's
/// capacity sweep.
const MAX_CAPACITY_UOPS: usize = 1 << 20;

/// Full uop cache configuration.
///
/// The paper's baseline (Table I): 32 sets × 8 ways, 64-byte lines,
/// 56-bit uops, max 8 uops / 4 imm-disp fields / 4 micro-coded insts per
/// entry ⇒ a 2K-uop capacity. The capacity sweeps scale `sets`.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct UopCacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Physical line size in bytes.
    pub line_bytes: u32,
    /// Per-line error-protection field ("ctr", paper Figure 11).
    pub ctr_bytes: u32,
    /// Maximum uops per entry.
    pub max_uops_per_entry: u32,
    /// Maximum immediate/displacement fields per entry.
    pub max_imm_disp_per_entry: u32,
    /// Maximum micro-coded instructions per entry.
    pub max_ucoded_per_entry: u32,
    /// Maximum entries compacted into one line (1 = no compaction).
    pub max_entries_per_line: u32,
    /// CLASP: allow entries to span sequential I-cache lines.
    pub clasp: bool,
    /// Maximum I-cache lines a CLASP entry may span.
    pub clasp_max_lines: u32,
    /// Compaction allocation policy.
    pub compaction: CompactionPolicy,
    /// Per-line replacement policy (Table I: true LRU; others for
    /// ablation studies).
    pub replacement: ReplacementPolicy,
    /// Build-rule ablation: terminate entries at prediction-window
    /// boundaries instead of letting them span sequential PWs. The
    /// paper's baseline spans PWs (Section II-B2); terminating yields
    /// smaller entries, which raises the compaction rate at the cost of
    /// lower per-entry dispatch bandwidth.
    pub terminate_at_pw_end: bool,
}

impl UopCacheConfig {
    /// The paper's 2K-uop baseline.
    pub fn baseline_2k() -> Self {
        UopCacheConfig {
            sets: 32,
            ways: 8,
            line_bytes: 64,
            ctr_bytes: 2,
            max_uops_per_entry: 8,
            max_imm_disp_per_entry: 4,
            max_ucoded_per_entry: 4,
            max_entries_per_line: 1,
            clasp: false,
            clasp_max_lines: 2,
            compaction: CompactionPolicy::None,
            replacement: ReplacementPolicy::Lru,
            terminate_at_pw_end: false,
        }
    }

    /// A baseline scaled to hold `uops` uops (2K/4K/.../64K in the paper's
    /// Figures 3–4); capacity scales by set count at fixed associativity.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_baseline_with_capacity`] returns an error.
    pub fn baseline_with_capacity(uops: usize) -> Self {
        Self::try_baseline_with_capacity(uops).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::baseline_with_capacity`] for untrusted input.
    ///
    /// # Errors
    ///
    /// Fails [`Self::check`] unless `uops / (ways * max_uops_per_entry)`
    /// is a power-of-two set count, so `uops` below one set fails too.
    pub fn try_baseline_with_capacity(uops: usize) -> Result<Self, String> {
        let base = Self::baseline_2k();
        let per_set = base.ways * base.max_uops_per_entry as usize;
        let c = UopCacheConfig {
            sets: uops / per_set,
            ..base
        };
        c.check()
            .map(|()| c)
            .map_err(|e| format!("capacity {uops} uops: {e}"))
    }

    /// Builder-style: terminate entries at PW boundaries (ablation).
    pub fn with_pw_end_termination(mut self) -> Self {
        self.terminate_at_pw_end = true;
        self
    }

    /// Builder-style: set the per-line replacement policy (ablation).
    pub fn with_replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.replacement = policy;
        self
    }

    /// Builder-style: enable CLASP.
    pub fn with_clasp(mut self) -> Self {
        self.clasp = true;
        self
    }

    /// Builder-style: enable compaction with the given policy and per-line
    /// entry bound (paper default 2, sensitivity study 3). Compaction in
    /// the paper's evaluation always runs on top of CLASP; this helper
    /// enables both. A bound below 2 fails [`Self::check`].
    pub fn with_compaction(mut self, policy: CompactionPolicy, max_entries: u32) -> Self {
        self.compaction = policy;
        self.max_entries_per_line = max_entries;
        self.clasp = true;
        self
    }

    /// Nominal capacity in uops.
    pub fn capacity_uops(&self) -> usize {
        self.sets * self.ways * self.max_uops_per_entry as usize
    }

    /// Byte budget available to entries in one line.
    pub fn entry_byte_budget(&self) -> u32 {
        self.line_bytes - self.ctr_bytes
    }

    /// Checks invariants.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::check`] returns an error.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Checks invariants: the one geometry rule behind [`Self::validate`]
    /// and [`Self::try_baseline_with_capacity`].
    ///
    /// # Errors
    ///
    /// Names the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        if !self.sets.is_power_of_two() {
            return Err(format!("{} sets is not a power-of-two count", self.sets));
        }
        if self.ways == 0 || self.max_uops_per_entry == 0 || self.max_entries_per_line == 0 {
            return Err("ways, uops per entry and entries per line must be positive".to_owned());
        }
        // Caps the per-set scans of lookups, fills and SMC probes.
        if self.ways > 256 || self.max_entries_per_line > 256 {
            return Err("ways and entries per line must be at most 256".to_owned());
        }
        let lines = self.sets.saturating_mul(self.ways);
        let capacity = lines.saturating_mul(self.max_uops_per_entry as usize);
        let slots = lines.saturating_mul(self.max_entries_per_line as usize);
        if capacity > MAX_CAPACITY_UOPS || slots > MAX_CAPACITY_UOPS {
            return Err(format!(
                "capacity and entry slots must be at most {MAX_CAPACITY_UOPS}"
            ));
        }
        if self.replacement == ReplacementPolicy::TreePlru && !self.ways.is_power_of_two() {
            return Err("tree-PLRU needs a power-of-two way count".to_owned());
        }
        if self.ctr_bytes >= self.line_bytes {
            return Err("counter bytes leave no room in the line".to_owned());
        }
        if !(2..=64).contains(&self.clasp_max_lines) {
            return Err("CLASP entries must be allowed to span 2 to 64 lines".to_owned());
        }
        if self.compaction.enabled() && self.max_entries_per_line < 2 {
            return Err(format!(
                "compaction needs >= 2 entries per line, got {}",
                self.max_entries_per_line
            ));
        }
        // An entry of max uops and no imm fields must fit a line.
        if u64::from(self.max_uops_per_entry) * u64::from(ucsim_model::UOP_BYTES)
            > u64::from(self.entry_byte_budget())
        {
            return Err("max-uop entry cannot fit the line budget".to_owned());
        }
        Ok(())
    }
}

impl Default for UopCacheConfig {
    fn default() -> Self {
        Self::baseline_2k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_2k_uops() {
        let c = UopCacheConfig::baseline_2k();
        c.validate();
        assert_eq!(c.capacity_uops(), 2048);
        assert_eq!(c.entry_byte_budget(), 62);
    }

    #[test]
    fn capacity_sweep_scales_sets() {
        for (uops, sets) in [
            (2048, 32),
            (4096, 64),
            (8192, 128),
            (16384, 256),
            (32768, 512),
            (65536, 1024),
        ] {
            let c = UopCacheConfig::baseline_with_capacity(uops);
            c.validate();
            assert_eq!(c.sets, sets);
            assert_eq!(c.capacity_uops(), uops);
        }
    }

    #[test]
    fn compaction_implies_clasp() {
        let c = UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2);
        c.validate();
        assert!(c.clasp);
        assert_eq!(c.max_entries_per_line, 2);
    }

    #[test]
    #[should_panic(expected = ">= 2 entries")]
    fn compaction_rejects_single_entry() {
        UopCacheConfig::baseline_2k()
            .with_compaction(CompactionPolicy::Rac, 1)
            .validate();
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_odd_capacity() {
        let _ = UopCacheConfig::baseline_with_capacity(3000);
    }

    #[test]
    fn bad_geometry_is_an_error_not_a_panic() {
        for uops in [0, 10, 3000] {
            let e = UopCacheConfig::try_baseline_with_capacity(uops).unwrap_err();
            assert!(e.starts_with(&format!("capacity {uops} uops: ")), "{e}");
        }
        let rac1 = UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Rac, 1);
        assert!(rac1.check().unwrap_err().contains(">= 2 entries"));
        assert_eq!(
            UopCacheConfig::try_baseline_with_capacity(4096).map(|c| c.sets),
            Ok(64)
        );
    }

    #[test]
    fn oversized_geometry_is_rejected() {
        let base = UopCacheConfig::baseline_2k();
        // Way and slot indices are stored as u8.
        for c in [
            UopCacheConfig {
                sets: 1,
                ways: 300,
                ..base.clone()
            },
            UopCacheConfig {
                max_entries_per_line: 257,
                ..base.clone()
            },
        ] {
            assert!(c.check().unwrap_err().contains("at most 256"));
        }
        // Sizes that set an allocation are capped.
        let huge = UopCacheConfig {
            sets: 1 << 40,
            ..base.clone()
        };
        assert!(huge.check().unwrap_err().contains("capacity"));
        assert!(UopCacheConfig::try_baseline_with_capacity(MAX_CAPACITY_UOPS).is_ok());
        assert!(UopCacheConfig::try_baseline_with_capacity(2 * MAX_CAPACITY_UOPS).is_err());
        let span = UopCacheConfig {
            clasp_max_lines: u32::MAX,
            ..base.clone()
        };
        assert!(span.check().is_err());
        let plru = base.with_replacement(ReplacementPolicy::TreePlru);
        assert!(plru.check().is_ok());
        let plru6 = UopCacheConfig { ways: 6, ..plru };
        assert!(plru6.check().unwrap_err().contains("tree-PLRU"));
    }

    #[test]
    fn policy_enabled_predicate() {
        assert!(!CompactionPolicy::None.enabled());
        assert!(CompactionPolicy::Rac.enabled());
        assert!(CompactionPolicy::Pwac.enabled());
        assert!(CompactionPolicy::Fpwac.enabled());
    }
}
