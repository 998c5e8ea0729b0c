//! One function per table/figure of the paper. Each runs the necessary
//! workload × configuration matrix, prints the same rows/series the paper
//! reports, and writes `target/experiments/<id>.tsv`.

use ucsim_pipeline::{SimConfig, SimReport};
use ucsim_trace::{Program, TraceStats, WorkloadProfile};

use crate::{
    capacity_sweep, geomean, normalize, optimization_ladder, percent_improvement, run_matrix,
    ExperimentTable, LabeledConfig, RunOpts,
};

/// Table I: prints the simulated processor configuration.
pub fn table1() {
    let cfg = SimConfig::table1();
    println!("== Table I: Simulated Processor Configuration ==");
    println!("Core        3 GHz, x86 CISC-like ISA");
    println!(
        "            dispatch width: {} uops/cycle",
        cfg.core.dispatch_width
    );
    println!(
        "            retire width:   {} uops/cycle",
        cfg.core.retire_width
    );
    println!(
        "            ROB: {}  uop queue: {}",
        cfg.core.rob_size, cfg.core.uop_queue_size
    );
    println!(
        "Decoder     latency {} cycles, bandwidth {} insts/cycle",
        cfg.core.decode_latency, cfg.core.decode_width
    );
    println!(
        "Uop cache   {} sets, {}-way, true LRU, {} uops capacity",
        cfg.uop_cache.sets,
        cfg.uop_cache.ways,
        cfg.uop_cache.capacity_uops()
    );
    println!(
        "            bandwidth {} uops/cycle; uop size 56 bits",
        cfg.core.oc_dispatch_bw
    );
    println!(
        "            max/entry: {} uops, {} imm/disp (32-bit), {} micro-coded",
        cfg.uop_cache.max_uops_per_entry,
        cfg.uop_cache.max_imm_disp_per_entry,
        cfg.uop_cache.max_ucoded_per_entry
    );
    println!("Branch pred TAGE + 2-level BTB (2 branches/entry) + RAS");
    println!(
        "L1-I        {} KB, {}-way, 64 B lines, LRU, prediction-directed prefetch",
        cfg.mem.l1i.capacity_bytes() / 1024,
        cfg.mem.l1i.ways
    );
    println!(
        "L1-D        {} KB, {}-way, LRU",
        cfg.mem.l1d.capacity_bytes() / 1024,
        cfg.mem.l1d.ways
    );
    println!(
        "L2          {} KB private unified, {}-way, LRU",
        cfg.mem.l2.capacity_bytes() / 1024,
        cfg.mem.l2.ways
    );
    println!(
        "L3          {} MB shared, {}-way, RRIP",
        cfg.mem.l3.capacity_bytes() / 1024 / 1024,
        cfg.mem.l3.ways
    );
    println!(
        "DRAM        2400 MHz (≈{} core cycles)",
        cfg.mem.dram_latency
    );
}

/// Table II: the thirteen workloads with paper-target vs measured branch
/// MPKI plus trace characterization.
pub fn table2(opts: &RunOpts) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "table2",
        "Workloads: target vs measured branch MPKI",
        &[
            "target_mpki",
            "measured_mpki",
            "branch_frac",
            "block_len",
            "inst_len",
            "uops_per_inst",
            "code_lines",
        ],
    );
    let configs = vec![LabeledConfig::new("baseline", SimConfig::table1())];
    let results = run_matrix(&configs, opts);
    for (profile, reports) in &results {
        let program = Program::generate(profile);
        let stats =
            TraceStats::from_stream(program.walk(profile).take(200_000.min(opts.insts as usize)));
        let r = &reports[0];
        t.row(
            profile.name,
            &[
                profile.target_mpki,
                r.mpki,
                stats.branch_frac(),
                stats.mean_block_len(),
                stats.mean_inst_len(),
                stats.uops_per_inst(),
                stats.code_footprint_lines() as f64,
            ],
        );
    }
    t.emit();
    t
}

fn sweep_results(opts: &RunOpts) -> Vec<(WorkloadProfile, Vec<SimReport>)> {
    run_matrix(&capacity_sweep(), opts)
}

/// Figure 3: normalized UPC (bars) and normalized decoder power (line) as
/// capacity grows 2K → 64K. Everything normalized to OC_2K.
pub fn fig03(opts: &RunOpts) -> (ExperimentTable, ExperimentTable) {
    let results = sweep_results(opts);
    let labels: Vec<String> = capacity_sweep().iter().map(|c| c.label.clone()).collect();
    let cols: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let mut upc = ExperimentTable::new("fig03_upc", "Normalized UPC vs OC capacity", &cols);
    let mut pow = ExperimentTable::new(
        "fig03_power",
        "Normalized decoder power vs OC capacity",
        &cols,
    );
    for (profile, reports) in &results {
        let base = &reports[0];
        let u: Vec<f64> = reports.iter().map(|r| normalize(r.upc, base.upc)).collect();
        let p: Vec<f64> = reports
            .iter()
            .map(|r| normalize(r.decoder_power, base.decoder_power))
            .collect();
        upc.row(profile.name, &u);
        pow.row(profile.name, &p);
    }
    upc.emit();
    pow.emit();
    (upc, pow)
}

/// Figure 4: normalized OC fetch ratio (bars), dispatched uops/cycle and
/// branch misprediction latency (lines) vs capacity, normalized to OC_2K.
pub fn fig04(opts: &RunOpts) -> (ExperimentTable, ExperimentTable, ExperimentTable) {
    let results = sweep_results(opts);
    let labels: Vec<String> = capacity_sweep().iter().map(|c| c.label.clone()).collect();
    let cols: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let mut ratio = ExperimentTable::new("fig04_fetch_ratio", "Normalized OC fetch ratio", &cols);
    let mut disp = ExperimentTable::new(
        "fig04_dispatch",
        "Normalized avg dispatched uops/cycle",
        &cols,
    );
    let mut mlat = ExperimentTable::new(
        "fig04_mispredict_latency",
        "Normalized avg branch misprediction latency",
        &cols,
    );
    for (profile, reports) in &results {
        let base = &reports[0];
        ratio.row(
            profile.name,
            &reports
                .iter()
                .map(|r| normalize(r.oc_fetch_ratio, base.oc_fetch_ratio))
                .collect::<Vec<_>>(),
        );
        disp.row(
            profile.name,
            &reports
                .iter()
                .map(|r| normalize(r.dispatch_bw, base.dispatch_bw))
                .collect::<Vec<_>>(),
        );
        mlat.row(
            profile.name,
            &reports
                .iter()
                .map(|r| normalize(r.avg_mispredict_latency, base.avg_mispredict_latency))
                .collect::<Vec<_>>(),
        );
    }
    ratio.emit();
    disp.emit();
    mlat.emit();
    (ratio, disp, mlat)
}

/// Figure 5: uop cache entry size distribution at the 2K baseline.
pub fn fig05(opts: &RunOpts) -> ExperimentTable {
    let configs = vec![LabeledConfig::new("baseline", SimConfig::table1())];
    let results = run_matrix(&configs, opts);
    let mut t = ExperimentTable::new(
        "fig05",
        "OC entry size distribution (bytes)",
        &["b1_19", "b20_39", "b40_64"],
    );
    for (profile, reports) in &results {
        let d = &reports[0].entry_size_dist;
        t.row(profile.name, &[d[0], d[1], d[2]]);
    }
    t.emit();
    t
}

/// Figure 6: fraction of entries terminated by a predicted-taken branch.
pub fn fig06(opts: &RunOpts) -> ExperimentTable {
    let configs = vec![LabeledConfig::new("baseline", SimConfig::table1())];
    let results = run_matrix(&configs, opts);
    let mut t = ExperimentTable::new(
        "fig06",
        "% OC entries terminated by predicted-taken branch",
        &["taken_term_frac"],
    );
    for (profile, reports) in &results {
        t.row(profile.name, &[reports[0].taken_term_frac]);
    }
    t.emit();
    t
}

/// Figure 9: fraction of entries spanning I-cache line boundaries under
/// CLASP.
pub fn fig09(opts: &RunOpts) -> ExperimentTable {
    let clasp = optimization_ladder(2048, 2).remove(1);
    let results = run_matrix(&[clasp], opts);
    let mut t = ExperimentTable::new(
        "fig09",
        "% OC entries spanning I-cache line boundaries (CLASP)",
        &["spanning_frac"],
    );
    for (profile, reports) in &results {
        t.row(profile.name, &[reports[0].spanning_frac]);
    }
    t.emit();
    t
}

/// Figure 12: distribution of uop cache entries per PW at the baseline.
pub fn fig12(opts: &RunOpts) -> ExperimentTable {
    let configs = vec![LabeledConfig::new("baseline", SimConfig::table1())];
    let results = run_matrix(&configs, opts);
    let mut t = ExperimentTable::new(
        "fig12",
        "OC entries per PW distribution",
        &["one", "two", "three", "four_plus"],
    );
    for (profile, reports) in &results {
        let d = reports[0].entries_per_pw;
        t.row(profile.name, &d);
    }
    t.emit();
    t
}

/// Figures 15–17 share the 2K optimization-ladder matrix.
fn ladder_results(
    opts: &RunOpts,
    capacity: usize,
    max_entries: u32,
) -> Vec<(WorkloadProfile, Vec<SimReport>)> {
    run_matrix(&optimization_ladder(capacity, max_entries), opts)
}

/// Figure 15: normalized decoder power per scheme.
pub fn fig15(opts: &RunOpts) -> ExperimentTable {
    let results = ladder_results(opts, 2048, 2);
    let mut t = ExperimentTable::new(
        "fig15",
        "Normalized decoder power",
        &["baseline", "CLASP", "RAC", "PWAC", "F-PWAC"],
    );
    for (profile, reports) in &results {
        let base = reports[0].decoder_power;
        t.row(
            profile.name,
            &reports
                .iter()
                .map(|r| normalize(r.decoder_power, base))
                .collect::<Vec<_>>(),
        );
    }
    t.emit();
    t
}

fn upc_improvement_table(
    id: &str,
    title: &str,
    results: &[(WorkloadProfile, Vec<SimReport>)],
) -> ExperimentTable {
    let mut t = ExperimentTable::new(id, title, &["CLASP", "RAC", "PWAC", "F-PWAC"]);
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for (profile, reports) in results {
        let base = reports[0].upc;
        let vals: Vec<f64> = reports[1..]
            .iter()
            .map(|r| percent_improvement(r.upc, base))
            .collect();
        for (i, r) in reports[1..].iter().enumerate() {
            ratios[i].push(r.upc / base);
        }
        t.row(profile.name, &vals);
    }
    let g: Vec<f64> = ratios.iter().map(|v| (geomean(v) - 1.0) * 100.0).collect();
    t.row("G.Mean", &g);
    t
}

/// Figure 16: % UPC improvement per scheme (≤2 entries/line).
pub fn fig16(opts: &RunOpts) -> ExperimentTable {
    let results = ladder_results(opts, 2048, 2);
    let t = upc_improvement_table(
        "fig16",
        "% UPC improvement over baseline (max 2 entries/line)",
        &results,
    );
    t.emit();
    t
}

/// Figure 17: normalized fetch ratio, dispatch bandwidth and misprediction
/// latency per scheme.
pub fn fig17(opts: &RunOpts) -> (ExperimentTable, ExperimentTable, ExperimentTable) {
    let results = ladder_results(opts, 2048, 2);
    let cols = ["baseline", "CLASP", "RAC", "PWAC", "F-PWAC"];
    let mut ratio = ExperimentTable::new("fig17_fetch_ratio", "Normalized OC fetch ratio", &cols);
    let mut disp = ExperimentTable::new(
        "fig17_dispatch",
        "Normalized avg dispatched uops/cycle",
        &cols,
    );
    let mut mlat = ExperimentTable::new(
        "fig17_mispredict_latency",
        "Normalized avg branch misprediction latency",
        &cols,
    );
    for (profile, reports) in &results {
        let b = &reports[0];
        ratio.row(
            profile.name,
            &reports
                .iter()
                .map(|r| normalize(r.oc_fetch_ratio, b.oc_fetch_ratio))
                .collect::<Vec<_>>(),
        );
        disp.row(
            profile.name,
            &reports
                .iter()
                .map(|r| normalize(r.dispatch_bw, b.dispatch_bw))
                .collect::<Vec<_>>(),
        );
        mlat.row(
            profile.name,
            &reports
                .iter()
                .map(|r| normalize(r.avg_mispredict_latency, b.avg_mispredict_latency))
                .collect::<Vec<_>>(),
        );
    }
    ratio.emit();
    disp.emit();
    mlat.emit();
    (ratio, disp, mlat)
}

/// Figure 18: fraction of entries compacted (placed into an existing
/// line) under the full F-PWAC configuration.
pub fn fig18(opts: &RunOpts) -> ExperimentTable {
    let fpwac = optimization_ladder(2048, 2).remove(4);
    let results = run_matrix(&[fpwac], opts);
    let mut t = ExperimentTable::new(
        "fig18",
        "% OC entries compacted without eviction (F-PWAC)",
        &["compacted_frac"],
    );
    for (profile, reports) in &results {
        t.row(profile.name, &[reports[0].compacted_fill_frac]);
    }
    t.emit();
    t
}

/// Figure 19: distribution of compacted entries across RAC / PWAC /
/// F-PWAC under the full F-PWAC configuration.
pub fn fig19(opts: &RunOpts) -> ExperimentTable {
    let fpwac = optimization_ladder(2048, 2).remove(4);
    let results = run_matrix(&[fpwac], opts);
    let mut t = ExperimentTable::new(
        "fig19",
        "Compacted entries by allocation technique",
        &["RAC", "PWAC", "F-PWAC"],
    );
    for (profile, reports) in &results {
        let (rac, pwac, fp) = reports[0].compaction_dist;
        t.row(profile.name, &[rac, pwac, fp]);
    }
    t.emit();
    t
}

/// Figure 20: % UPC improvement with up to three entries per line.
pub fn fig20(opts: &RunOpts) -> ExperimentTable {
    let results = ladder_results(opts, 2048, 3);
    let t = upc_improvement_table(
        "fig20",
        "% UPC improvement over baseline (max 3 entries/line)",
        &results,
    );
    t.emit();
    t
}

/// Figure 21: normalized OC fetch ratio with up to three entries per line.
pub fn fig21(opts: &RunOpts) -> ExperimentTable {
    let results = ladder_results(opts, 2048, 3);
    let mut t = ExperimentTable::new(
        "fig21",
        "Normalized OC fetch ratio (max 3 entries/line)",
        &["CLASP", "RAC", "PWAC", "F-PWAC"],
    );
    for (profile, reports) in &results {
        let base = reports[0].oc_fetch_ratio;
        t.row(
            profile.name,
            &reports[1..]
                .iter()
                .map(|r| normalize(r.oc_fetch_ratio, base))
                .collect::<Vec<_>>(),
        );
    }
    t.emit();
    t
}

/// Figure 22: % UPC improvement over a 4K-uop baseline.
pub fn fig22(opts: &RunOpts) -> ExperimentTable {
    let results = ladder_results(opts, 4096, 2);
    let t = upc_improvement_table(
        "fig22",
        "% UPC improvement over a 4K-uop baseline",
        &results,
    );
    t.emit();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> RunOpts {
        RunOpts {
            warmup: 2_000,
            insts: 12_000,
            workload_filter: vec!["redis".into()],
            threads: 2,
        }
    }

    #[test]
    fn fig05_fractions_sum_to_one() {
        let t = fig05(&tiny_opts());
        for (_, row) in t.rows() {
            let sum: f64 = row.iter().sum();
            assert!(sum > 0.95 && sum <= 1.001, "sum={sum}");
        }
    }

    #[test]
    fn fig16_has_gmean_row() {
        let t = fig16(&tiny_opts());
        let labels: Vec<_> = t.rows().iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"G.Mean"));
        assert!(labels.contains(&"redis"));
    }

    #[test]
    fn fig03_baseline_column_is_one() {
        let (upc, pow) = fig03(&tiny_opts());
        for (_, row) in upc.rows() {
            assert!((row[0] - 1.0).abs() < 1e-9);
        }
        for (_, row) in pow.rows() {
            assert!((row[0] - 1.0).abs() < 1e-9);
        }
    }
}
