//! Pinned report digests: every public run path must reproduce a
//! checked-in table of report digests.
//!
//! Each row is the `fnv1a` digest of one report's canonical JSON. The
//! table was captured while the per-instruction streamed walk and the
//! slice-driven hot path still coexisted and agreed byte for byte, so it
//! stands in for that second implementation: the run loop, the replay
//! loop and the SMT round-robin are all held to the same bytes.
//!
//! A change that moves simulated behaviour on purpose updates the table
//! in the same commit. On a mismatch the test prints every case with its
//! pinned and observed digest, and paste-ready rows for the new table.

use ucsim::mem::{CacheConfig, ReplacementPolicy};
use ucsim::model::{CancelToken, ToJson};
use ucsim::pipeline::{PwTrace, SimConfig, SimReport, Simulator, SmtSimulator};
use ucsim::serve::fnv1a;
use ucsim::trace::{load_asm, record_workload, Program, SharedTrace, WorkloadProfile};
use ucsim::uopcache::{CompactionPolicy, UopCacheConfig};

/// `(case, digest)`: the canonical-JSON report digest every path must
/// produce for that case.
const PINNED: &[(&str, u64)] = &[
    ("sp(log_regr)/baseline", 0x2d72138bcb2f481a),
    ("sp(log_regr)/clasp", 0x6598a6f366f256b8),
    ("sp(log_regr)/fpwac", 0x80ef68956b9dd920),
    ("sp(tr_cnt)/baseline", 0xb78dc1dd76fb97b4),
    ("sp(tr_cnt)/clasp", 0x71a6cc5187acd84f),
    ("sp(tr_cnt)/fpwac", 0x041586f75c4a956f),
    ("sp(pg_rnk)/baseline", 0x7de591bca794dac9),
    ("sp(pg_rnk)/clasp", 0x31fd2fc24149f786),
    ("sp(pg_rnk)/fpwac", 0xad0a8839c128f02a),
    ("nutch/baseline", 0xeb9326ed90fcd7bc),
    ("nutch/clasp", 0xcd4a0dbe91ced9e4),
    ("nutch/fpwac", 0xb1b258bd992989e7),
    ("mahout/baseline", 0xf0a3dd6c3c9578e8),
    ("mahout/clasp", 0xd1364ca4c096e8ca),
    ("mahout/fpwac", 0xb5153532c20e0384),
    ("redis/baseline", 0x798ffbb6dbda9c8a),
    ("redis/clasp", 0xa43cf5911bdcefdc),
    ("redis/fpwac", 0xa768940de803d5d2),
    ("jvm/baseline", 0x8150c8540914e2f6),
    ("jvm/clasp", 0x3d933d7e90e8fd85),
    ("jvm/fpwac", 0x226e4732993794d3),
    ("bm-pb/baseline", 0xb5a0851aa9f4a02d),
    ("bm-pb/clasp", 0x40ab0f7d8cc526ca),
    ("bm-pb/fpwac", 0x83113360d792d485),
    ("bm-cc/baseline", 0x997be19a1d629eaf),
    ("bm-cc/clasp", 0x5cec82242f2f7c01),
    ("bm-cc/fpwac", 0xc22d59d67fe13ea6),
    ("bm-x64/baseline", 0x365bad1a650b3e9a),
    ("bm-x64/clasp", 0x3fdb397b6c3d5239),
    ("bm-x64/fpwac", 0xc968f70f018f346a),
    ("bm-ds/baseline", 0x2c2cb4f124fab1db),
    ("bm-ds/clasp", 0x0ce2c08fcea0b2b3),
    ("bm-ds/fpwac", 0xdd0bac74ba409091),
    ("bm-lla/baseline", 0xacf134e0c9f32c31),
    ("bm-lla/clasp", 0x90661078d769a372),
    ("bm-lla/fpwac", 0x9c5c4bcfb329a085),
    ("bm-z/baseline", 0x46a41b5afb619afe),
    ("bm-z/clasp", 0x77027f01f75febcd),
    ("bm-z/fpwac", 0xe92e837fb522375a),
    ("smt:redis+bm-pb/baseline", 0x43e65305c6f23258),
    ("smt:redis+bm-pb/clasp", 0x9dca4f17b1600f72),
    ("smt:redis+bm-pb/fpwac", 0xd69ed965baf4a32f),
    ("short/bm-pb", 0xec4b6dd462115c3a),
    ("boundary/bm-pb", 0xc9ed43c633c67a5e),
    ("short/smt:bm-pb+redis", 0x2d3c2d3f08be4d4b),
    ("asm:fragmenter/baseline", 0x5a27202a721a083a),
    ("asm:fragmenter/clasp", 0x3fd70afedd54d6f2),
    ("asm:fragmenter/fpwac", 0xc4c262ee2163bb18),
    ("redis/rac", 0x18e5c746f8c9e9ed),
    ("redis/pwac", 0xc358d397fd7082c8),
    ("redis/fpwac3", 0x1eaf04ec3f43e2af),
    ("redis/64k", 0x2d19b978ccc7a467),
    ("redis/64k-fpwac", 0x8d2eb931d349ec2d),
    ("redis/plru-oc", 0x44a69546d651995e),
    ("redis/srrip-oc", 0x9cad1dbab96f8921),
    ("redis/plru-l2", 0xb2d1a8bcb9214c8b),
    ("redis/btb-l1-1way", 0x9ad38f0e1e87ee1e),
    ("bm-cc/rac", 0xba37ee1fb7535673),
    ("bm-cc/pwac", 0xe0c4d0c072ed6fa3),
    ("bm-cc/fpwac3", 0x9eb09ec5050d55a6),
    ("bm-cc/64k", 0x5b02d0e38e5155a5),
    ("bm-cc/64k-fpwac", 0x69e67e6b394d3834),
    ("bm-cc/plru-oc", 0xe6365cf0c34261d0),
    ("bm-cc/srrip-oc", 0x4e732d8742255d61),
    ("bm-cc/plru-l2", 0x473bcb6b73cfcced),
    ("bm-cc/btb-l1-1way", 0x4192a371347f9323),
];

/// One observed report: which case, through which path.
struct Observed {
    case: String,
    path: &'static str,
    digest: u64,
}

fn digest(report: &SimReport) -> u64 {
    fnv1a(report.to_json_string().as_bytes())
}

fn pinned(case: &str) -> Option<u64> {
    PINNED.iter().find(|(c, _)| *c == case).map(|&(_, d)| d)
}

/// Asserts every observation against [`PINNED`]. On any mismatch, panics
/// with a per-case table (pinned vs observed for every path) and the
/// rows a deliberate behaviour change would check in.
fn check(observed: &[Observed]) {
    let bad: Vec<&Observed> = observed
        .iter()
        .filter(|o| pinned(&o.case) != Some(o.digest))
        .collect();
    if bad.is_empty() {
        return;
    }
    let mut table = format!(
        "{} of {} reports differ from the pinned digests\n{:<28} {:<22} {:<18} {:<18}\n",
        bad.len(),
        observed.len(),
        "case",
        "path",
        "pinned",
        "observed"
    );
    for o in observed {
        let old = pinned(&o.case).map_or_else(|| "-".to_owned(), |d| format!("{d:016x}"));
        let mark = if pinned(&o.case) == Some(o.digest) {
            ""
        } else {
            "  <- differs"
        };
        table += &format!(
            "{:<28} {:<22} {old:<18} {:016x}{mark}\n",
            o.case, o.path, o.digest
        );
    }
    table += "\nrows for PINNED (first path of each case):\n";
    let mut seen: Vec<&str> = Vec::new();
    for o in observed {
        if !seen.contains(&o.case.as_str()) {
            seen.push(&o.case);
            table += &format!("    (\"{}\", 0x{:016x}),\n", o.case, o.digest);
        }
    }
    panic!("{table}");
}

/// Short but non-trivial budget: crosses the warmup boundary, fills the
/// uop cache and exercises evictions.
fn cfg(oc: UopCacheConfig) -> SimConfig {
    SimConfig::table1()
        .with_uop_cache(oc)
        .with_insts(2_000, 10_000)
}

fn policies() -> [(&'static str, UopCacheConfig); 3] {
    [
        ("baseline", UopCacheConfig::baseline_2k()),
        ("clasp", UopCacheConfig::baseline_2k().with_clasp()),
        (
            "fpwac",
            UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2),
        ),
    ]
}

/// Every single-thread path over one recorded trace: the slice entry
/// points, the cancellable one with a token that never fires, and the
/// PW replay sequentially and with 1 and 4 hash-staging workers.
fn trace_paths(case: &str, name: &str, trace: &SharedTrace, cfg: &SimConfig) -> Vec<Observed> {
    let sim = Simulator::new(cfg.clone());
    let total = (cfg.warmup_insts + cfg.measure_insts) as usize;
    let insts = &trace.insts()[..total.min(trace.len())];
    let pwt = PwTrace::record(trace, cfg);
    let never = CancelToken::new();
    let cancellable = sim
        .run_slice_cancellable(name, insts, &never)
        .expect("token never fires");
    [
        ("run_trace", sim.run_trace(name, trace)),
        ("run_slice", sim.run_slice(name, insts)),
        ("run_slice_cancellable", cancellable),
        ("replay", pwt.replay(name, cfg)),
        ("replay_parallel(1)", pwt.replay_parallel(name, cfg, 1)),
        ("replay_parallel(4)", pwt.replay_parallel(name, cfg, 4)),
    ]
    .into_iter()
    .map(|(path, r)| Observed {
        case: case.to_owned(),
        path,
        digest: digest(&r),
    })
    .collect()
}

#[test]
fn table2_workloads_match_pinned_digests() {
    let mut observed = Vec::new();
    for profile in WorkloadProfile::table2() {
        let program = Program::generate(&profile);
        for (policy, oc) in policies() {
            let cfg = cfg(oc);
            let case = format!("{}/{policy}", profile.name);
            let total = cfg.warmup_insts + cfg.measure_insts;
            observed.push(Observed {
                case: case.clone(),
                path: "run",
                digest: digest(&Simulator::new(cfg.clone()).run(&profile, &program)),
            });
            let trace = record_workload(&profile, &program, total);
            observed.extend(trace_paths(&case, profile.name, &trace, &cfg));
        }
    }
    assert_eq!(observed.len(), 13 * 3 * 7);
    check(&observed);
}

#[test]
fn smt_pair_matches_pinned_digests() {
    let pa = WorkloadProfile::by_name("redis").expect("known workload");
    let pb = WorkloadProfile::by_name("bm-pb").expect("known workload");
    let (ga, gb) = (Program::generate(&pa), Program::generate(&pb));
    let mut observed = Vec::new();
    for (policy, oc) in policies() {
        let cfg = cfg(oc);
        let case = format!("smt:redis+bm-pb/{policy}");
        let per_thread = cfg.warmup_insts + cfg.measure_insts;
        let smt = SmtSimulator::new(cfg);
        let (ta, tb) = (
            record_workload(&pa, &ga, per_thread),
            record_workload(&pb, &gb, per_thread),
        );
        for (path, r) in [
            ("smt.run", smt.run((&pa, &ga), (&pb, &gb))),
            (
                "smt.run_traces",
                smt.run_traces((pa.name, &ta), (pb.name, &tb)),
            ),
        ] {
            observed.push(Observed {
                case: case.clone(),
                path,
                digest: digest(&r),
            });
        }
    }
    check(&observed);
}

/// Traces that end before the warmup boundary: the measurement window
/// never opens, so the report covers everything that ran (and counts it
/// in `insts`).
#[test]
fn short_traces_match_pinned_digests() {
    let cfg = SimConfig::table1().with_insts(10_000, 10_000);
    let profile = WorkloadProfile::by_name("bm-pb").expect("known workload");
    let program = Program::generate(&profile);
    let trace = record_workload(&profile, &program, 3_000);
    let mut observed = trace_paths("short/bm-pb", profile.name, &trace, &cfg);
    // Ends inside the window that crosses the warmup boundary: the
    // measurement window opens after it, with nothing left to measure.
    let boundary = record_workload(&profile, &program, 10_003);
    observed.extend(trace_paths("boundary/bm-pb", profile.name, &boundary, &cfg));

    let other = WorkloadProfile::by_name("redis").expect("known workload");
    let other_trace = record_workload(&other, &Program::generate(&other), 3_000);
    let smt = SmtSimulator::new(cfg).run_traces((profile.name, &trace), (other.name, &other_trace));
    observed.push(Observed {
        case: "short/smt:bm-pb+redis".to_owned(),
        path: "smt.run_traces",
        digest: digest(&smt),
    });
    check(&observed);
}

#[test]
fn asm_example_matches_pinned_digests() {
    let src = include_str!("../examples/asm/fragmenter.asm");
    let asm = ucsim::isa::assemble(src).expect("example assembles");
    let seed = fnv1a(src.as_bytes());
    let profile = WorkloadProfile::user_program(seed);
    let program = load_asm(&asm, seed);
    let mut observed = Vec::new();
    for (policy, oc) in policies() {
        let cfg = cfg(oc);
        let case = format!("asm:fragmenter/{policy}");
        observed.push(Observed {
            case: case.clone(),
            path: "run",
            digest: digest(&Simulator::new(cfg.clone()).run(&profile, &program)),
        });
        let trace = record_workload(&profile, &program, cfg.warmup_insts + cfg.measure_insts);
        observed.extend(trace_paths(&case, profile.name, &trace, &cfg));
    }
    check(&observed);
}

/// Geometries and policies beyond the three Table I uop caches: the other
/// compaction policies, three entries per line, the 64K top of the
/// capacity sweep, tree-PLRU and SRRIP uop caches, a small tree-PLRU L2
/// that actually evicts, and a small direct-mapped BTB L1. Each touches a
/// replacement or set-storage path the Table I cases leave cold.
fn variants() -> Vec<(&'static str, SimConfig)> {
    // Long enough that every variant's digest differs from the others'
    // and from the same workload's Table I baseline at this budget.
    let cfg = |oc| {
        SimConfig::table1()
            .with_uop_cache(oc)
            .with_insts(5_000, 25_000)
    };
    let fpwac = UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2);
    let k64 = UopCacheConfig::baseline_with_capacity(65536);
    let mut plru_l2 = cfg(UopCacheConfig::baseline_2k());
    plru_l2.mem.l2 = CacheConfig::new("L2", 64, 8, ReplacementPolicy::TreePlru);
    let mut btb_1way = cfg(UopCacheConfig::baseline_2k());
    btb_1way.bpu.btb_l1_set_bits = 5;
    btb_1way.bpu.btb_l1_ways = 1;
    vec![
        (
            "rac",
            cfg(UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Rac, 2)),
        ),
        (
            "pwac",
            cfg(UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Pwac, 2)),
        ),
        (
            "fpwac3",
            cfg(UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 3)),
        ),
        ("64k", cfg(k64.clone())),
        (
            "64k-fpwac",
            cfg(k64.with_compaction(CompactionPolicy::Fpwac, 2)),
        ),
        (
            "plru-oc",
            cfg(fpwac.clone().with_replacement(ReplacementPolicy::TreePlru)),
        ),
        (
            "srrip-oc",
            cfg(fpwac.with_replacement(ReplacementPolicy::Srrip)),
        ),
        ("plru-l2", plru_l2),
        ("btb-l1-1way", btb_1way),
    ]
}

#[test]
fn geometry_variants_match_pinned_digests() {
    let mut observed = Vec::new();
    for name in ["redis", "bm-cc"] {
        let profile = WorkloadProfile::by_name(name).expect("known workload");
        let program = Program::generate(&profile);
        for (variant, cfg) in variants() {
            let case = format!("{name}/{variant}");
            observed.push(Observed {
                case: case.clone(),
                path: "run",
                digest: digest(&Simulator::new(cfg.clone()).run(&profile, &program)),
            });
            let trace = record_workload(&profile, &program, cfg.warmup_insts + cfg.measure_insts);
            observed.extend(trace_paths(&case, profile.name, &trace, &cfg));
        }
    }
    check(&observed);
}
