//! The paper's schematic figures (2, 7, 8, 10, 13, 14) as concrete,
//! executable scenarios.

use ucsim::bpu::{BpuConfig, SlicePwGen};
use ucsim::model::{Addr, BranchExec, DynInst, EntryTermination, InstClass, PwId, PwTermination};
use ucsim::uopcache::{
    AccumulationBuffer, CompactionPolicy, PlacementKind, UopCache, UopCacheConfig, UopCacheEntry,
};

fn alu(pc: u64, len: u8) -> DynInst {
    DynInst::simple(Addr::new(pc), len, InstClass::IntAlu)
}

fn taken_jmp(pc: u64, target: u64) -> DynInst {
    DynInst::branch(
        Addr::new(pc),
        2,
        InstClass::JumpDirect,
        BranchExec {
            taken: true,
            target: Addr::new(target),
        },
    )
}

fn nt_jcc(pc: u64, target: u64) -> DynInst {
    DynInst::branch(
        Addr::new(pc),
        2,
        InstClass::CondBranch,
        BranchExec {
            taken: false,
            target: Addr::new(target),
        },
    )
}

fn entry(start: u64, uops: u32, pw: u64) -> UopCacheEntry {
    UopCacheEntry {
        start: Addr::new(start),
        end: Addr::new(start + uops as u64 * 4),
        pw_id: PwId(pw),
        first_pw: PwId(pw),
        uops,
        imm_disp: 0,
        ucoded_insts: 0,
        insts: uops,
        term: EntryTermination::TakenBranch,
        ends_in_taken_branch: true,
        pc_lines: 1,
    }
}

/// Figure 2(a): a PW that starts at the beginning of an I-cache line and
/// terminates at its end, with a not-taken branch in the middle.
#[test]
fn fig2a_pw_full_line_with_nt_branch() {
    let mut insts: Vec<DynInst> = Vec::new();
    let mut pc = 0x1000u64;
    for i in 0..10 {
        if i == 3 {
            insts.push(nt_jcc(pc, 0x4000));
            pc += 2;
        } else {
            insts.push(alu(pc, 7));
            pc += 7;
        }
    }
    let mut gen = SlicePwGen::new(BpuConfig::default(), &insts);
    let b = gen.next_batch().unwrap();
    assert_eq!(b.pw.start, Addr::new(0x1000));
    assert_eq!(b.pw.termination, PwTermination::IcacheLineEnd);
    assert!(b.pw.end.get() >= 0x1040, "PW runs to the line boundary");
    assert!(!b.pw.ends_in_taken_branch);
}

/// Figure 2(b): a PW starting mid-line (a branch target) terminates at
/// the end of the same line.
#[test]
fn fig2b_pw_starts_mid_line() {
    let insts = vec![
        taken_jmp(0x0800, 0x1020),
        alu(0x1020, 8),
        alu(0x1028, 8),
        alu(0x1030, 8),
        alu(0x1038, 8),
        alu(0x1040, 4),
    ];
    let mut gen = SlicePwGen::new(BpuConfig::default(), &insts);
    let _jump_pw = gen.next_batch().unwrap();
    let b = gen.next_batch().unwrap();
    assert_eq!(b.pw.start, Addr::new(0x1020));
    assert_eq!(b.pw.end, Addr::new(0x1040));
    assert_eq!(b.pw.termination, PwTermination::IcacheLineEnd);
}

/// Figure 2(c): a PW starting mid-line ends early at a predicted-taken
/// branch.
#[test]
fn fig2c_pw_ends_at_taken_branch() {
    // Train the jump into the BTB first via a warmup pass.
    let loop_body = |base: u64| {
        vec![
            alu(base + 0x20, 4),
            nt_jcc(base + 0x24, 0x7000),
            taken_jmp(base + 0x26, base + 0x20),
        ]
    };
    let mut insts = Vec::new();
    for _ in 0..8 {
        insts.extend(loop_body(0x1000));
    }
    let mut gen = SlicePwGen::new(BpuConfig::default(), &insts);
    let mut saw = false;
    while let Some(b) = gen.next_batch() {
        if b.pw.start == Addr::new(0x1020) && b.pw.termination == PwTermination::TakenBranch {
            assert!(b.pw.ends_in_taken_branch);
            assert!(b.pw.end.get() < 0x1040, "ends before the line boundary");
            saw = true;
        }
    }
    assert!(saw, "never saw the Figure 2(c) window");
}

/// Figure 7: baseline termination at the I-cache boundary splits
/// sequential code into entries mapped to *different* (consecutive) sets.
#[test]
fn fig7_baseline_split_maps_to_consecutive_sets() {
    let cfg = UopCacheConfig::baseline_2k();
    let mut acc = AccumulationBuffer::new(cfg.clone());
    let oc = UopCache::new(cfg);
    let mut entries = Vec::new();
    // 4-byte insts crossing a line boundary at 0x1040.
    for i in 0..20u64 {
        entries.extend(acc.push(&alu(0x1030 + i * 4, 4), PwId(0), false));
    }
    entries.extend(acc.flush());
    assert!(entries.len() >= 2);
    assert_eq!(entries[0].term, EntryTermination::IcacheBoundary);
    let set0 = oc.set_index_of(entries[0].start);
    let set1 = oc.set_index_of(entries[1].start);
    assert_eq!(
        (set0 + 1) % 32,
        set1,
        "split entries land in consecutive sets"
    );
}

/// Figure 8: with CLASP the same sequential code forms one entry spanning
/// the boundary, resident in a single set.
#[test]
fn fig8_clasp_merges_across_boundary() {
    let cfg = UopCacheConfig::baseline_2k().with_clasp();
    let mut acc = AccumulationBuffer::new(cfg.clone());
    let mut oc = UopCache::new(cfg);
    let mut entries = Vec::new();
    for i in 0..20u64 {
        entries.extend(acc.push(&alu(0x1030 + i * 4, 4), PwId(0), false));
    }
    entries.extend(acc.flush());
    let first = &entries[0];
    assert!(first.spans_boundary(), "CLASP entry crosses the boundary");
    assert_ne!(first.term, EntryTermination::IcacheBoundary);
    oc.fill(*first);
    // Dispatched in one lookup from the set of its *start* address.
    assert!(oc.lookup(Addr::new(0x1030)).is_some());
}

/// Figure 10: two small entries share one physical line after compaction.
#[test]
fn fig10_compaction_shares_a_line() {
    let mut oc =
        UopCache::new(UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Rac, 2));
    oc.fill(entry(0x1000, 4, 1)); // 28 B
    let out = oc.fill(entry(0x1010, 4, 2)); // 28 B → fits (56 ≤ 62)
    assert_eq!(out.placement, PlacementKind::Rac);
    assert_eq!(oc.valid_lines(), 1, "both entries in one line");
    assert_eq!(oc.compacted_lines(), 1);
}

/// Figure 13: PWAC prefers the line holding an entry of the same PW over
/// the PW-agnostic (RAC/MRU) choice.
#[test]
fn fig13_pwac_unites_same_pw() {
    let mut oc =
        UopCache::new(UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Pwac, 2));
    // PW-A's entry and PW-B's first entry, in separate lines (too big to
    // pair with each other).
    oc.fill(entry(0x1000, 6, 100)); // PW-A, 42 B
    oc.fill(entry(0x1010, 6, 200)); // PW-B1, 42 B
                                    // Touch PW-A's line so RAC would pick it (MRU).
    oc.lookup(Addr::new(0x1000));
    // PW-B2 (small) must still join PW-B1.
    let out = oc.fill(entry(0x1020, 2, 200));
    assert_eq!(out.placement, PlacementKind::Pwac);
}

/// Figure 14: F-PWAC forcibly reunites a PW whose first entry was
/// compacted with a foreign entry, moving the foreigner to the LRU line.
#[test]
fn fig14_fpwac_forced_move() {
    let mut oc =
        UopCache::new(UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Fpwac, 2));
    oc.fill(entry(0x1000, 4, 100)); // PW-A
    oc.fill(entry(0x1010, 4, 200)); // PW-B1: compacted with PW-A (t0)
    assert_eq!(oc.valid_lines(), 1);
    let out = oc.fill(entry(0x1020, 4, 200)); // PW-B2 (t1): no room
    assert_eq!(out.placement, PlacementKind::Fpwac);
    // All three survive; B1+B2 share a line, A was rewritten elsewhere.
    assert!(oc.probe(Addr::new(0x1000)));
    assert!(oc.probe(Addr::new(0x1010)));
    assert!(oc.probe(Addr::new(0x1020)));
    assert_eq!(oc.valid_lines(), 2);
    assert_eq!(oc.stats().forced_moves, 1);
}
