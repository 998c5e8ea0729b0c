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

use ucsim::isa::StaticInst;
use ucsim::mem::{CacheConfig, ReplacementPolicy};
use ucsim::model::{CancelToken, ToJson};
use ucsim::pipeline::{PwTrace, SimConfig, SimReport, Simulator, SmtSimulator};
use ucsim::serve::fnv1a;
use ucsim::trace::{load_asm, record_workload, Program, SharedTrace, TermKind, WorkloadProfile};
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

/// `(case, digest)` for workload synthesis itself: the generated
/// program (every block's start, body and terminator) and the first
/// [`SYNTH_WALK`] instructions of its walk, per Table II profile at two
/// seeds, plus each `examples/asm` program through `load_asm` and a walk.
///
/// The report pins above see synthesis only through simulated reports at
/// each profile's default seed; a sampler that moved one draw value's
/// outcome could leave those unmoved. These pin the streams directly.
const SYNTH_PINNED: &[(&str, u64)] = &[
    ("sp(log_regr)@65/program", 0x4cae1312d7da97da),
    ("sp(log_regr)@65/walk", 0x40745fa7355bcb63),
    ("sp(log_regr)@5eed0f3b/program", 0x9ac0d657b8e5defc),
    ("sp(log_regr)@5eed0f3b/walk", 0xbcaa4966006d36ba),
    ("sp(tr_cnt)@66/program", 0x143e0e3fce778a77),
    ("sp(tr_cnt)@66/walk", 0xf1f551b2088a8f5c),
    ("sp(tr_cnt)@5eed0f38/program", 0x7887f2bf15d44c51),
    ("sp(tr_cnt)@5eed0f38/walk", 0xc3f0589c89005343),
    ("sp(pg_rnk)@67/program", 0xf668d78560b3d95d),
    ("sp(pg_rnk)@67/walk", 0x1ab86e3e1c76d294),
    ("sp(pg_rnk)@5eed0f39/program", 0xb5389047e38a07f1),
    ("sp(pg_rnk)@5eed0f39/walk", 0xcf94cd7a45375d52),
    ("nutch@68/program", 0x12c032a8a1088dc1),
    ("nutch@68/walk", 0x4a4e80d3180d752d),
    ("nutch@5eed0f36/program", 0x1bef75f0d8a2386a),
    ("nutch@5eed0f36/walk", 0x2ed5d0a604f8dcf6),
    ("mahout@69/program", 0x98ff56d9d7ebd548),
    ("mahout@69/walk", 0x81a1be3d1e601b26),
    ("mahout@5eed0f37/program", 0xdf599bc9d00da549),
    ("mahout@5eed0f37/walk", 0xe7c1ee4cbf9e4d52),
    ("redis@6a/program", 0x23752ae6b4d4d182),
    ("redis@6a/walk", 0xd87d16e0abfbc205),
    ("redis@5eed0f34/program", 0x2c49f8ce8d78c6c8),
    ("redis@5eed0f34/walk", 0x20f6ff8a55ed2ab8),
    ("jvm@6b/program", 0x896496da8f3c27fa),
    ("jvm@6b/walk", 0x5b7ae83901142a1c),
    ("jvm@5eed0f35/program", 0x2422730b807d254a),
    ("jvm@5eed0f35/walk", 0x6cb8b35af37b0892),
    ("bm-pb@6c/program", 0xa81f9e81c870dc9b),
    ("bm-pb@6c/walk", 0x93c75473d4b51af8),
    ("bm-pb@5eed0f32/program", 0x4daec87cf9e56c92),
    ("bm-pb@5eed0f32/walk", 0xd6a96d4630bac2bd),
    ("bm-cc@6d/program", 0x194dbd53ac65b4a3),
    ("bm-cc@6d/walk", 0xd4ef9af426559198),
    ("bm-cc@5eed0f33/program", 0x330c7a6457f6de4b),
    ("bm-cc@5eed0f33/walk", 0x60d4906bc2fba285),
    ("bm-x64@6e/program", 0x814ee907c5065301),
    ("bm-x64@6e/walk", 0x2fd1c801aef3520e),
    ("bm-x64@5eed0f30/program", 0x7052fe2bf399a6ff),
    ("bm-x64@5eed0f30/walk", 0xc610ec242a23a041),
    ("bm-ds@6f/program", 0xc576952b3f542ef8),
    ("bm-ds@6f/walk", 0xb7b22d79da739e7c),
    ("bm-ds@5eed0f31/program", 0x5bb49cec84964a90),
    ("bm-ds@5eed0f31/walk", 0xa31a5d8d101cb6e0),
    ("bm-lla@70/program", 0x3bf89f6b23713880),
    ("bm-lla@70/walk", 0x2b8247b7755d119f),
    ("bm-lla@5eed0f2e/program", 0x13407e355db9d9b6),
    ("bm-lla@5eed0f2e/walk", 0x68fa2fa9697f4ac8),
    ("bm-z@71/program", 0x74f0892e736558df),
    ("bm-z@71/walk", 0x6599b4af0f6f7684),
    ("bm-z@5eed0f2f/program", 0xeb8300ed5d1c3b97),
    ("bm-z@5eed0f2f/walk", 0xcbfeebd9981f3c9a),
    ("asm:dense_loop/program", 0xd4a8e866fe2a690a),
    ("asm:dense_loop/walk", 0x895498dd216a1008),
    ("asm:dispatcher/program", 0xaa81c6580529f8e1),
    ("asm:dispatcher/walk", 0xb62743ae36c6dde5),
    ("asm:fragmenter/program", 0xf1e470926fbfaeac),
    ("asm:fragmenter/walk", 0x95fd8694867f3e1f),
];

/// Instructions of each pinned walk.
const SYNTH_WALK: usize = 20_000;

/// Appends a little-endian field to a digest buffer.
fn put(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_static(buf: &mut Vec<u8>, i: &StaticInst) {
    put(buf, i.class as u64);
    put(buf, u64::from(i.len));
    put(buf, u64::from(i.uops));
    put(buf, u64::from(i.imm_disp));
    put(buf, u64::from(i.microcoded));
}

/// Digest of a program's layout: every block's start, body instructions
/// and terminator (instruction and semantics, seeds included).
fn program_digest(program: &Program) -> u64 {
    let mut buf = Vec::new();
    for f in &program.funcs {
        put(&mut buf, f.entry_block as u64);
        put(&mut buf, f.end_block as u64);
    }
    for b in &program.blocks {
        put(&mut buf, b.start.get());
        put(&mut buf, b.body.len() as u64);
        for i in &b.body {
            put_static(&mut buf, i);
        }
        let Some(t) = &b.terminator else {
            put(&mut buf, u64::MAX);
            continue;
        };
        put_static(&mut buf, &t.inst);
        match &t.kind {
            TermKind::CondForward {
                target_block,
                p_taken,
                seed,
            } => {
                buf.push(0);
                put(&mut buf, *target_block as u64);
                put(&mut buf, p_taken.to_bits());
                put(&mut buf, *seed);
            }
            TermKind::CondLoop {
                target_block,
                trip_mean,
                seed,
            } => {
                buf.push(1);
                put(&mut buf, *target_block as u64);
                put(&mut buf, trip_mean.to_bits());
                put(&mut buf, *seed);
            }
            TermKind::Jump { target_block } => {
                buf.push(2);
                put(&mut buf, *target_block as u64);
            }
            TermKind::IndirectJump { targets, seed } => {
                buf.push(3);
                targets.iter().for_each(|&t| put(&mut buf, t as u64));
                put(&mut buf, *seed);
            }
            TermKind::Call { callee_func } => {
                buf.push(4);
                put(&mut buf, *callee_func as u64);
            }
            TermKind::IndirectCall { callees, seed } => {
                buf.push(5);
                callees.iter().for_each(|&c| put(&mut buf, c as u64));
                put(&mut buf, *seed);
            }
            TermKind::Ret => buf.push(6),
        }
    }
    fnv1a(&buf)
}

/// Digest of a walk's first [`SYNTH_WALK`] instructions: pc, length,
/// uops, imm/disp, class, memory address and branch outcome.
fn walk_digest(program: &Program, profile: &WorkloadProfile) -> u64 {
    let mut buf = Vec::new();
    for d in program.walk(profile).take(SYNTH_WALK) {
        put(&mut buf, d.pc.get());
        put(&mut buf, u64::from(d.len));
        put(&mut buf, u64::from(d.uops));
        put(&mut buf, u64::from(d.imm_disp));
        put(&mut buf, u64::from(d.microcoded));
        put(&mut buf, d.class as u64);
        put(&mut buf, d.mem_addr.map_or(u64::MAX, |a| a.get()));
        match d.branch {
            Some(b) => {
                put(&mut buf, u64::from(b.taken));
                put(&mut buf, b.target.get());
            }
            None => put(&mut buf, u64::MAX),
        }
    }
    fnv1a(&buf)
}

#[test]
fn synthesis_matches_pinned_digests() {
    let mut observed: Vec<(String, u64)> = Vec::new();
    for base in WorkloadProfile::table2() {
        for seed in [base.seed, base.seed ^ 0x5EED_0F5E] {
            let profile = WorkloadProfile {
                seed,
                ..base.clone()
            };
            let program = Program::generate(&profile);
            let case = format!("{}@{seed:x}", profile.name);
            observed.push((format!("{case}/program"), program_digest(&program)));
            observed.push((format!("{case}/walk"), walk_digest(&program, &profile)));
        }
    }
    for (name, src) in [
        ("dense_loop", include_str!("../examples/asm/dense_loop.asm")),
        ("dispatcher", include_str!("../examples/asm/dispatcher.asm")),
        ("fragmenter", include_str!("../examples/asm/fragmenter.asm")),
    ] {
        let asm = ucsim::isa::assemble(src).expect("example assembles");
        let seed = fnv1a(src.as_bytes());
        let program = load_asm(&asm, seed);
        let profile = WorkloadProfile::user_program(seed);
        observed.push((format!("asm:{name}/program"), program_digest(&program)));
        observed.push((format!("asm:{name}/walk"), walk_digest(&program, &profile)));
    }
    let pinned = |case: &str| {
        SYNTH_PINNED
            .iter()
            .find(|(c, _)| *c == case)
            .map(|&(_, d)| d)
    };
    let bad: Vec<_> = observed
        .iter()
        .filter(|(case, d)| pinned(case) != Some(*d))
        .collect();
    if bad.is_empty() {
        return;
    }
    let mut table = format!(
        "{} of {} synthesis digests differ from the pinned ones\n",
        bad.len(),
        observed.len()
    );
    for (case, d) in &bad {
        let old = pinned(case).map_or_else(|| "-".to_owned(), |p| format!("{p:016x}"));
        table += &format!("{case:<32} pinned {old:<18} observed {d:016x}\n");
    }
    table += "\nrows for SYNTH_PINNED:\n";
    for (case, d) in &observed {
        table += &format!("    (\"{case}\", 0x{d:016x}),\n");
    }
    panic!("{table}");
}
