//! Two-way SMT sharing of the front end.
//!
//! The paper motivates PWAC with multithreading (Section V-B1): "the
//! replacement state can be updated by another thread because the uop
//! cache is shared across all threads in a multithreaded core. Hence, RAC
//! cannot guarantee compacting OC entries of the same thread together."
//! This module reproduces that setting: two hardware threads with private
//! accumulation buffers and branch predictors, sharing one uop cache,
//! I-cache hierarchy, fetch engine and back end, fetching alternate
//! prediction windows round-robin.

use ucsim_bpu::SlicePwGen;
use ucsim_model::DynInst;
use ucsim_trace::{Program, SharedTrace, WorkloadProfile};

use crate::sim::run;
use crate::{SimConfig, SimReport};

/// A two-thread SMT simulator sharing one front end.
///
/// # Example
///
/// ```
/// use ucsim_pipeline::{SimConfig, SmtSimulator};
/// use ucsim_trace::{Program, WorkloadProfile};
///
/// let p = WorkloadProfile::quick_test();
/// let prog = Program::generate(&p);
/// let sim = SmtSimulator::new(SimConfig::table1().with_insts(2_000, 20_000));
/// let r = sim.run((&p, &prog), (&p, &prog));
/// assert!(r.upc > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SmtSimulator {
    cfg: SimConfig,
}

impl SmtSimulator {
    /// Creates an SMT simulator for the given configuration. The
    /// instruction budgets (`warmup_insts`, `measure_insts`) apply *per
    /// thread*. Every run checks it first ([`SimConfig::check`]) and
    /// panics when it is invalid.
    pub fn new(cfg: SimConfig) -> Self {
        SmtSimulator { cfg }
    }

    /// Runs two workloads on the shared front end, alternating prediction
    /// windows round-robin, and reports combined metrics. Each thread's
    /// walker feeds its instruction window directly: nothing is
    /// recorded. Callers sweeping several configurations over the same
    /// pair can record once with [`ucsim_trace::record_workload`] and call
    /// [`SmtSimulator::run_traces`] instead.
    pub fn run(
        &self,
        a: (&WorkloadProfile, &Program),
        b: (&WorkloadProfile, &Program),
    ) -> SimReport {
        let per_thread = (self.cfg.warmup_insts + self.cfg.measure_insts) as usize;
        let mut threads = [a, b]
            .map(|(p, prog)| SlicePwGen::over(self.cfg.bpu.clone(), prog.walk(p).take(per_thread)));
        self.run_threads(a.0.name, b.0.name, &mut threads)
    }

    /// Runs two recorded workload traces on the shared front end —
    /// byte-identical to [`SmtSimulator::run`] on the workloads the
    /// traces were recorded from. Each thread replays at most
    /// `warmup + measure` instructions of its trace.
    pub fn run_traces(&self, a: (&str, &SharedTrace), b: (&str, &SharedTrace)) -> SimReport {
        let per_thread = (self.cfg.warmup_insts + self.cfg.measure_insts) as usize;
        let mut threads =
            [a.1, b.1].map(|t| SlicePwGen::over(self.cfg.bpu.clone(), t.iter().take(per_thread)));
        self.run_threads(a.0, b.0, &mut threads)
    }

    fn run_threads<I: Iterator<Item = DynInst>>(
        &self,
        a: &str,
        b: &str,
        threads: &mut [SlicePwGen<I>; 2],
    ) -> SimReport {
        let name = format!("smt:{a}+{b}");
        run(&self.cfg, &name, threads, None, |st| st).expect("never cancelled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucsim_uopcache::{CompactionPolicy, UopCacheConfig};

    fn pair() -> (WorkloadProfile, Program, WorkloadProfile, Program) {
        let a = WorkloadProfile::by_name("bm-lla").unwrap();
        let pa = Program::generate(&a);
        let b = WorkloadProfile::by_name("bm-ds").unwrap();
        let pb = Program::generate(&b);
        (a, pa, b, pb)
    }

    fn run_smt(oc: UopCacheConfig) -> SimReport {
        let (a, pa, b, pb) = pair();
        let sim = SmtSimulator::new(
            SimConfig::table1()
                .with_uop_cache(oc)
                .with_insts(5_000, 50_000),
        );
        sim.run((&a, &pa), (&b, &pb))
    }

    #[test]
    fn smt_runs_and_conserves_uops() {
        let r = run_smt(UopCacheConfig::baseline_2k());
        assert!(r.insts >= 95_000, "both threads measured: {}", r.insts);
        assert_eq!(r.oc_uops + r.decoder_uops + r.loop_uops, r.uops);
        assert!(r.upc > 0.3);
    }

    #[test]
    fn smt_is_deterministic() {
        let a = run_smt(UopCacheConfig::baseline_2k());
        let b = run_smt(UopCacheConfig::baseline_2k());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.uops, b.uops);
        assert_eq!(a.oc_fills, b.oc_fills);
    }

    #[test]
    fn smt_sharing_hurts_hit_ratio_vs_solo() {
        // Two threads competing for 2K uops must see a lower fetch ratio
        // than either thread running alone.
        let (a, pa, _, _) = pair();
        let solo =
            crate::Simulator::new(SimConfig::table1().with_insts(5_000, 50_000)).run(&a, &pa);
        let smt = run_smt(UopCacheConfig::baseline_2k());
        assert!(
            smt.oc_fetch_ratio < solo.oc_fetch_ratio,
            "smt {} !< solo {}",
            smt.oc_fetch_ratio,
            solo.oc_fetch_ratio
        );
    }

    #[test]
    fn pwac_at_least_matches_rac_under_smt() {
        // The paper's SMT argument: PW-aware compaction is immune to the
        // other thread scrambling recency. PWAC must never do worse than
        // RAC here (and often does slightly better).
        let rac = run_smt(UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Rac, 2));
        let pwac =
            run_smt(UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Pwac, 2));
        assert!(
            pwac.oc_fetch_ratio >= rac.oc_fetch_ratio * 0.995,
            "pwac {} well below rac {}",
            pwac.oc_fetch_ratio,
            rac.oc_fetch_ratio
        );
    }
}
