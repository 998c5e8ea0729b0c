//! Whole-simulator configuration (paper Table I).

use ucsim_bpu::BpuConfig;
use ucsim_mem::{HierarchyConfig, ReplacementPolicy};
use ucsim_model::{FromJson, ToJson};
use ucsim_uopcache::UopCacheConfig;

use crate::PowerConfig;

/// Core pipeline widths and latencies (Table I).
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct CoreConfig {
    /// Uops dispatched to the back-end per cycle (Table I: 6).
    pub dispatch_width: u32,
    /// Uops retired per cycle (Table I: 8).
    pub retire_width: u32,
    /// Reorder-buffer entries (Table I: 256).
    pub rob_size: usize,
    /// Uop queue entries (Table I: 120).
    pub uop_queue_size: usize,
    /// Issue width of the simplified back-end (issue queue: 160 entries;
    /// we model width, not occupancy).
    pub issue_width: u32,
    /// x86 decoder throughput in instructions/cycle (Table I: 4).
    pub decode_width: u32,
    /// x86 decoder pipeline latency in cycles (Table I: 3).
    pub decode_latency: u32,
    /// Uop cache read bandwidth in uops/cycle (Table I: 8). One entry is
    /// dispatched per cycle; entries never exceed 8 uops.
    pub oc_dispatch_bw: u32,
    /// I-cache fetch bandwidth in bytes/cycle (Table I: 32).
    pub fetch_bytes_per_cycle: u32,
    /// Front-end refill bubble after a resolved misprediction redirect.
    pub redirect_penalty: u32,
    /// Bubble when a taken branch is discovered at decode (BTB miss).
    pub decode_redirect_penalty: u32,
    /// Bubble when a BTB entry is promoted from the second level.
    pub btb_promote_penalty: u32,
    /// Bubble when fetch switches between the OC and IC paths.
    pub path_switch_penalty: u32,
    /// Loop cache capacity in uops (0 disables the loop cache, matching
    /// the paper's OC-centric accounting).
    pub loop_cache_uops: u32,
    /// Probability a uop depends on a recent uop (synthetic dataflow).
    pub dep_prob: f64,
    /// Uop cache fill-port occupancy per entry write, in cycles (paper
    /// Section V-B: fill time is critical because the accumulation buffer
    /// backs up into the decoder).
    pub fill_port_cost: u32,
    /// Extra fill-port cycles for an F-PWAC forced move (one additional
    /// read + write of the previously compacted entry).
    pub forced_move_cost: u32,
    /// Fill backlog (entries) the accumulation buffer absorbs before the
    /// decoder stalls.
    pub acc_backlog: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            dispatch_width: 6,
            retire_width: 8,
            rob_size: 256,
            uop_queue_size: 120,
            issue_width: 8,
            decode_width: 4,
            decode_latency: 3,
            oc_dispatch_bw: 8,
            fetch_bytes_per_cycle: 32,
            redirect_penalty: 5,
            decode_redirect_penalty: 2,
            btb_promote_penalty: 1,
            path_switch_penalty: 1,
            loop_cache_uops: 0,
            dep_prob: 0.35,
            fill_port_cost: 1,
            forced_move_cost: 2,
            acc_backlog: 8,
        }
    }
}

/// Complete simulation configuration.
///
/// This type is part of the `ucsim-serve` wire contract: it round-trips
/// through `ucsim_model::json` exactly, and its canonical encoding feeds
/// the service's content-addressed result cache.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct SimConfig {
    /// Uop cache geometry and policies.
    pub uop_cache: UopCacheConfig,
    /// Branch prediction unit.
    pub bpu: BpuConfig,
    /// Memory hierarchy.
    pub mem: HierarchyConfig,
    /// Core widths/latencies.
    pub core: CoreConfig,
    /// Power model parameters.
    pub power: PowerConfig,
    /// Instructions to run before statistics are reset.
    pub warmup_insts: u64,
    /// Instructions measured after warmup.
    pub measure_insts: u64,
}

impl SimConfig {
    /// The paper's Table I configuration with the 2K-uop baseline cache.
    pub fn table1() -> Self {
        SimConfig {
            uop_cache: UopCacheConfig::baseline_2k(),
            bpu: BpuConfig::default(),
            mem: HierarchyConfig::default(),
            core: CoreConfig::default(),
            power: PowerConfig::default(),
            warmup_insts: 200_000,
            measure_insts: 2_000_000,
        }
    }

    /// Builder-style: swap the uop cache configuration.
    pub fn with_uop_cache(mut self, oc: UopCacheConfig) -> Self {
        self.uop_cache = oc;
        self
    }

    /// Builder-style: set run length.
    pub fn with_insts(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup_insts = warmup;
        self.measure_insts = measure;
        self
    }

    /// Shrinks run length for unit tests and examples.
    pub fn quick(self) -> Self {
        self.with_insts(20_000, 120_000)
    }

    /// The one validity rule for a whole configuration, checked before
    /// every run: the uop cache geometry ([`UopCacheConfig::check`]),
    /// positive widths and loop steps, and a cap on every size that sets
    /// an allocation, so an untrusted configuration can neither hang a
    /// run nor make it allocate without bound. Every cap is at least 16×
    /// its Table I value.
    ///
    /// # Errors
    ///
    /// Names the first violated rule.
    pub fn check(&self) -> Result<(), String> {
        self.uop_cache
            .check()
            .map_err(|e| format!("uop_cache: {e}"))?;
        let c = &self.core;
        for (name, v) in [
            ("dispatch_width", c.dispatch_width),
            ("retire_width", c.retire_width),
            ("issue_width", c.issue_width),
            ("decode_width", c.decode_width),
            ("oc_dispatch_bw", c.oc_dispatch_bw),
            ("fetch_bytes_per_cycle", c.fetch_bytes_per_cycle),
        ] {
            if v == 0 {
                return Err(format!("core.{name} must be positive"));
            }
        }
        for (name, v) in [
            ("rob_size", c.rob_size),
            ("uop_queue_size", c.uop_queue_size),
        ] {
            if !(1..=1 << 16).contains(&v) {
                return Err(format!("core.{name} must be in 1..=65536"));
            }
        }
        if !(0.0..=1.0).contains(&c.dep_prob) {
            return Err("core.dep_prob must be in [0, 1]".to_owned());
        }

        let b = &self.bpu;
        let t = &b.tage;
        // Table sizes are `1 << bits`; tags are u16, and folding the
        // history steps by the bit width.
        if !(1..=16).contains(&t.bimodal_bits) || !(1..=16).contains(&t.table_bits) {
            return Err("bpu.tage bimodal_bits and table_bits must be in 1..=16".to_owned());
        }
        if !(1..=16).contains(&t.tag_bits) {
            return Err("bpu.tage.tag_bits must be in 1..=16".to_owned());
        }
        let h = &t.history_lengths;
        if h.is_empty()
            || h.len() > 16
            || !h.windows(2).all(|w| w[0] < w[1])
            || h[h.len() - 1] > 128
        {
            return Err(
                "bpu.tage.history_lengths must be 1 to 16 increasing lengths of at most 128"
                    .to_owned(),
            );
        }
        if !(1..=1 << 12).contains(&b.ras_depth) {
            return Err("bpu.ras_depth must be in 1..=4096".to_owned());
        }
        for (name, bits, ways) in [
            ("l1", b.btb_l1_set_bits, b.btb_l1_ways),
            ("l2", b.btb_l2_set_bits, b.btb_l2_ways),
        ] {
            if bits > 16 || ways == 0 || (1usize << bits).saturating_mul(ways) > 1 << 18 {
                return Err(format!(
                    "bpu.btb_{name}: set bits must be at most 16, ways positive, and entries at most 262144"
                ));
            }
        }

        let m = &self.mem;
        for level in [&m.l1i, &m.l1d, &m.l2, &m.l3] {
            if !level.sets.is_power_of_two()
                || level.ways == 0
                || level.sets.saturating_mul(level.ways) > 1 << 20
            {
                return Err(format!(
                    "mem.{}: sets must be a power of two, ways positive, and lines at most 1048576",
                    level.name
                ));
            }
            if level.policy == ReplacementPolicy::TreePlru && !level.ways.is_power_of_two() {
                return Err(format!(
                    "mem.{}: tree-PLRU needs a power-of-two way count",
                    level.name
                ));
            }
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = SimConfig::table1();
        assert_eq!(c.core.dispatch_width, 6);
        assert_eq!(c.core.retire_width, 8);
        assert_eq!(c.core.rob_size, 256);
        assert_eq!(c.core.uop_queue_size, 120);
        assert_eq!(c.core.decode_width, 4);
        assert_eq!(c.core.decode_latency, 3);
        assert_eq!(c.core.oc_dispatch_bw, 8);
        assert_eq!(c.uop_cache.sets, 32);
        assert_eq!(c.uop_cache.ways, 8);
        assert_eq!(c.uop_cache.capacity_uops(), 2048);
    }

    #[test]
    fn check_accepts_table1_and_every_in_repo_capacity() {
        assert_eq!(SimConfig::table1().check(), Ok(()));
        let big = SimConfig::table1().with_uop_cache(UopCacheConfig::baseline_with_capacity(65536));
        assert_eq!(big.check(), Ok(()));
    }

    fn rejects(edit: impl FnOnce(&mut SimConfig), needle: &str) {
        let mut c = SimConfig::table1();
        edit(&mut c);
        let e = c.check().expect_err(needle);
        assert!(e.contains(needle), "{e:?} should name {needle:?}");
    }

    #[test]
    fn check_rejects_zero_widths() {
        rejects(|c| c.core.decode_width = 0, "decode_width");
        rejects(|c| c.core.dispatch_width = 0, "dispatch_width");
        rejects(|c| c.core.retire_width = 0, "retire_width");
        rejects(|c| c.core.dep_prob = f64::NAN, "dep_prob");
    }

    #[test]
    fn check_rejects_uop_cache_index_overflow() {
        rejects(
            |c| {
                c.uop_cache.sets = 1;
                c.uop_cache.ways = 300;
            },
            "uop_cache",
        );
        rejects(|c| c.uop_cache.max_entries_per_line = 300, "uop_cache");
    }

    #[test]
    fn check_caps_allocation_sizes() {
        rejects(|c| c.uop_cache.sets = 1 << 30, "uop_cache");
        rejects(|c| c.core.rob_size = usize::MAX, "rob_size");
        rejects(|c| c.core.uop_queue_size = 0, "uop_queue_size");
        rejects(|c| c.bpu.tage.table_bits = 40, "table_bits");
        rejects(|c| c.bpu.tage.tag_bits = 0, "tag_bits");
        rejects(
            |c| c.bpu.tage.history_lengths = vec![8, 4],
            "history_lengths",
        );
        rejects(|c| c.bpu.ras_depth = 0, "ras_depth");
        rejects(|c| c.bpu.btb_l2_set_bits = 40, "btb_l2");
        rejects(|c| c.bpu.btb_l1_ways = 1 << 20, "btb_l1");
        rejects(|c| c.mem.l3.sets = 1 << 40, "mem.L3");
        rejects(|c| c.mem.l1d.sets = 3, "mem.L1D");
        rejects(|c| c.mem.l2.ways = 0, "mem.L2");
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::table1()
            .with_uop_cache(UopCacheConfig::baseline_with_capacity(8192))
            .with_insts(10, 20);
        assert_eq!(c.uop_cache.capacity_uops(), 8192);
        assert_eq!(c.warmup_insts, 10);
        assert_eq!(c.measure_insts, 20);
    }
}
