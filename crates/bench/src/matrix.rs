//! The capacity × policy configuration cross, extracted from the figure
//! binaries' hand-built config sets into one shared, serve-callable form.
//!
//! A [`MatrixCross`] names the two axes the paper sweeps — uop-cache
//! capacities (Table I sizes) and entry-construction policies (baseline,
//! CLASP, RAC, PWAC, F-PWAC) — and expands into the [`LabeledConfig`]
//! list `run_matrix` consumes. `ucsim-serve`'s `POST /v1/matrix` endpoint
//! expands requests through the same code path, so a served sweep and an
//! offline figure run are cell-for-cell identical.

use ucsim_pipeline::SimConfig;
use ucsim_uopcache::{CompactionPolicy, UopCacheConfig};

use crate::LabeledConfig;

/// One point on the policy axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPolicy {
    /// The paper's baseline entry construction.
    Baseline,
    /// CLASP (cache-line-boundary-agnostic entries).
    Clasp,
    /// Replacement-aware compaction.
    Rac,
    /// Prediction-window-aware compaction.
    Pwac,
    /// Forced prediction-window-aware compaction.
    Fpwac,
}

impl SweepPolicy {
    /// Every policy, in the paper's optimization-ladder order.
    pub const ALL: [SweepPolicy; 5] = [
        SweepPolicy::Baseline,
        SweepPolicy::Clasp,
        SweepPolicy::Rac,
        SweepPolicy::Pwac,
        SweepPolicy::Fpwac,
    ];

    /// Parses a wire/CLI name (case-insensitive; `"f-pwac"` and `"fpwac"`
    /// both name F-PWAC).
    pub fn parse(name: &str) -> Option<SweepPolicy> {
        match name.to_lowercase().as_str() {
            "baseline" => Some(SweepPolicy::Baseline),
            "clasp" => Some(SweepPolicy::Clasp),
            "rac" => Some(SweepPolicy::Rac),
            "pwac" => Some(SweepPolicy::Pwac),
            "fpwac" | "f-pwac" => Some(SweepPolicy::Fpwac),
            _ => None,
        }
    }

    /// The figure-legend display name.
    pub fn name(self) -> &'static str {
        match self {
            SweepPolicy::Baseline => "baseline",
            SweepPolicy::Clasp => "CLASP",
            SweepPolicy::Rac => "RAC",
            SweepPolicy::Pwac => "PWAC",
            SweepPolicy::Fpwac => "F-PWAC",
        }
    }

    /// Applies the policy to a baseline uop-cache configuration.
    pub fn apply(self, base: UopCacheConfig, max_entries: u32) -> UopCacheConfig {
        match self {
            SweepPolicy::Baseline => base,
            SweepPolicy::Clasp => base.with_clasp(),
            SweepPolicy::Rac => base.with_compaction(CompactionPolicy::Rac, max_entries),
            SweepPolicy::Pwac => base.with_compaction(CompactionPolicy::Pwac, max_entries),
            SweepPolicy::Fpwac => base.with_compaction(CompactionPolicy::Fpwac, max_entries),
        }
    }
}

/// A capacity × policy cross ready to expand into labeled configurations.
#[derive(Debug, Clone)]
pub struct MatrixCross {
    /// Uop-cache capacities, in uops (Table I sizes: 2048 … 65536).
    pub capacities: Vec<usize>,
    /// Entry-construction policies.
    pub policies: Vec<SweepPolicy>,
    /// Compacted entries per physical line (2 or 3) for RAC/PWAC/F-PWAC.
    pub max_entries: u32,
}

impl MatrixCross {
    /// The paper's Table I capacity axis: 2K … 64K uops.
    pub fn table1_capacities() -> Vec<usize> {
        vec![2048, 4096, 8192, 16384, 32768, 65536]
    }

    /// Cells in the cross (capacities × policies).
    pub fn len(&self) -> usize {
        self.capacities.len() * self.policies.len()
    }

    /// True when either axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The label of one cell. Degenerate axes keep the historical figure
    /// labels — a baseline-only capacity sweep is `OC_2K` … `OC_64K`, a
    /// single-capacity ladder is `baseline`/`CLASP`/…; a full cross
    /// combines both (`OC_4K:PWAC`).
    pub fn label(&self, capacity_uops: usize, policy: SweepPolicy) -> String {
        // Sub-1K capacities keep the raw uop count: integer division
        // would otherwise collapse 64..512 into one ambiguous "OC_0K".
        let cap = if capacity_uops >= 1024 {
            format!("OC_{}K", capacity_uops / 1024)
        } else {
            format!("OC_{capacity_uops}")
        };
        if self.policies.len() == 1 && self.policies[0] == SweepPolicy::Baseline {
            cap
        } else if self.capacities.len() == 1 {
            policy.name().to_owned()
        } else {
            format!("{cap}:{}", policy.name())
        }
    }

    /// Expands into labeled configurations, capacity-major then policy,
    /// on top of the paper's Table I core configuration.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_expand`] returns an error.
    pub fn expand(&self) -> Vec<LabeledConfig> {
        self.try_expand().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::expand`] for untrusted axes.
    ///
    /// # Errors
    ///
    /// Names the first cell whose uop-cache geometry fails
    /// [`UopCacheConfig::check`].
    pub fn try_expand(&self) -> Result<Vec<LabeledConfig>, String> {
        let mut out = Vec::with_capacity(self.len());
        for &cap in &self.capacities {
            let base = UopCacheConfig::try_baseline_with_capacity(cap)?;
            for &policy in &self.policies {
                let uop_cache = policy.apply(base.clone(), self.max_entries);
                uop_cache
                    .check()
                    .map_err(|e| format!("policy {}: {e}", policy.name()))?;
                out.push(LabeledConfig {
                    label: self.label(cap, policy),
                    config: SimConfig::table1().with_uop_cache(uop_cache),
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip_through_parse() {
        for p in SweepPolicy::ALL {
            assert_eq!(SweepPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(SweepPolicy::parse("F-PWAC"), Some(SweepPolicy::Fpwac));
        assert_eq!(SweepPolicy::parse("nope"), None);
    }

    #[test]
    fn full_cross_expands_capacity_major() {
        let cross = MatrixCross {
            capacities: vec![2048, 4096],
            policies: vec![SweepPolicy::Baseline, SweepPolicy::Clasp],
            max_entries: 2,
        };
        let cells = cross.expand();
        let labels: Vec<_> = cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "OC_2K:baseline",
                "OC_2K:CLASP",
                "OC_4K:baseline",
                "OC_4K:CLASP"
            ]
        );
        assert_eq!(cells[0].config.uop_cache.capacity_uops(), 2048);
        assert_eq!(cells[3].config.uop_cache.capacity_uops(), 4096);
        assert!(cells[1].config.uop_cache.clasp);
    }

    #[test]
    fn degenerate_axes_keep_figure_labels() {
        let caps = MatrixCross {
            capacities: MatrixCross::table1_capacities(),
            policies: vec![SweepPolicy::Baseline],
            max_entries: 2,
        };
        assert_eq!(caps.expand()[0].label, "OC_2K");
        let ladder = MatrixCross {
            capacities: vec![2048],
            policies: SweepPolicy::ALL.to_vec(),
            max_entries: 2,
        };
        let labels: Vec<_> = ladder.expand().iter().map(|c| c.label.clone()).collect();
        assert_eq!(labels, ["baseline", "CLASP", "RAC", "PWAC", "F-PWAC"]);
    }

    #[test]
    fn sub_1k_capacities_get_distinct_labels() {
        let cross = MatrixCross {
            capacities: vec![64, 512, 1024],
            policies: vec![SweepPolicy::Baseline],
            max_entries: 2,
        };
        let labels: Vec<_> = cross.expand().iter().map(|c| c.label.clone()).collect();
        assert_eq!(labels, ["OC_64", "OC_512", "OC_1K"]);
    }
}
