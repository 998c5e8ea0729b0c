//! Property-based tests of the workload substrate and the decoupled
//! front end: arbitrary profiles must produce structurally valid programs,
//! control-flow-consistent traces, and PW streams that tile the trace;
//! and the flat BTB must agree with a per-set reference model.

use proptest::prelude::*;
use ucsim::bpu::{BpuConfig, BranchKind, Btb, BtbOutcome, SlicePwGen};
use ucsim::model::Addr;
use ucsim::trace::{Program, Trace, WorkloadProfile};

/// Strategy over small random-but-valid workload profiles.
fn small_profile() -> impl Strategy<Value = WorkloadProfile> {
    (
        1u64..1_000_000,
        4usize..40,
        2.0f64..8.0,
        1.5f64..5.0,
        0.0f64..0.15,
        0.0f64..0.15,
        0.0f64..0.45,
        0.3f64..1.6,
    )
        .prop_map(
            |(seed, funcs, blocks, insts, p_loop, p_call, p_cond, zipf)| {
                let mut p = WorkloadProfile::quick_test();
                p.seed = seed;
                p.num_funcs = funcs;
                p.blocks_per_func_mean = blocks;
                p.insts_per_block_mean = insts;
                p.p_loop = p_loop;
                p.p_call = p_call;
                p.p_cond = p_cond;
                p.func_zipf_s = zipf;
                p
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generation never violates structural invariants (Program::generate
    /// panics internally on violation) and is deterministic.
    #[test]
    fn programs_validate_and_replay(profile in small_profile()) {
        let a = Program::generate(&profile);
        let b = Program::generate(&profile);
        prop_assert_eq!(a.static_insts(), b.static_insts());
        prop_assert!(a.static_uops() >= a.static_insts());
    }

    /// The dynamic stream is control-flow consistent: every instruction
    /// starts where the previous one ended (or at its taken target).
    #[test]
    fn traces_are_control_flow_consistent(profile in small_profile()) {
        let prog = Program::generate(&profile);
        let trace: Vec<_> = prog.walk(&profile).take(4_000).collect();
        for w in trace.windows(2) {
            prop_assert_eq!(w[1].pc, w[0].next_pc());
        }
    }

    /// Trace serialization is lossless for arbitrary workloads.
    #[test]
    fn trace_roundtrip(profile in small_profile()) {
        let prog = Program::generate(&profile);
        let t = Trace::record(prog.walk(&profile).take(1_500));
        let back = Trace::from_bytes(&t.to_bytes()).unwrap();
        prop_assert_eq!(t, back);
    }

    /// Prediction windows tile the dynamic stream exactly: concatenating
    /// PW instruction batches reproduces the trace, windows never span an
    /// I-cache line, and every termination rule is respected.
    #[test]
    fn pws_tile_the_trace(profile in small_profile()) {
        let prog = Program::generate(&profile);
        let trace: Vec<_> = prog.walk(&profile).take(3_000).collect();
        let mut gen = SlicePwGen::new(BpuConfig::default(), &trace);
        let mut replayed = Vec::new();
        let max_nt = BpuConfig::default().max_not_taken_per_pw;
        while let Some(b) = gen.next_batch() {
            let insts = b.insts(&trace);
            // Window geometry: starts where its first inst starts, ends
            // where its last inst ends, stays within one I-cache line.
            prop_assert_eq!(b.pw.start, insts[0].pc);
            prop_assert_eq!(b.pw.end, insts[insts.len() - 1].end());
            prop_assert!(
                b.pw.start.line() == insts[insts.len() - 1].pc.line()
                    || b.pw.inst_count >= 1
            );
            prop_assert_eq!(b.pw.inst_count as usize, insts.len());
            // Not-taken budget: at most max_nt NT conditionals inside.
            let nt = insts
                .iter()
                .filter(|i| i.class.is_cond_branch() && !i.is_taken_branch())
                .count();
            prop_assert!(nt <= max_nt as usize + 1, "NT budget exceeded: {nt}");
            replayed.extend_from_slice(insts);
        }
        prop_assert_eq!(replayed, trace);
    }

    /// PW ids are strictly monotonic and sequence numbers line up.
    #[test]
    fn pw_ids_are_monotonic(profile in small_profile()) {
        let prog = Program::generate(&profile);
        let trace: Vec<_> = prog.walk(&profile).take(2_000).collect();
        let mut gen = SlicePwGen::new(BpuConfig::default(), &trace);
        let mut last_id = None;
        let mut next_seq = 0u64;
        while let Some(b) = gen.next_batch() {
            if let Some(prev) = last_id {
                prop_assert_eq!(b.pw.id.0, prev + 1);
            }
            prop_assert_eq!(b.pw.first_seq, next_seq);
            next_seq = b.pw.end_seq();
            last_id = Some(b.pw.id.0);
        }
    }
}

/// Reference two-level BTB: a `Vec` of entries per set, with the same
/// insertion order, two branches per 32-byte block and first-minimum LRU
/// eviction the flat `Btb` must reproduce.
struct RefBtb {
    levels: [(Vec<Vec<RefEntry>>, usize); 2],
    clock: u64,
    /// lookups, L1 hits, L2 hits, misses, target mispredicts.
    stats: [u64; 5],
}

#[derive(Clone)]
struct RefEntry {
    block: u64,
    /// `(pc, target)` in pc order, at most two.
    branches: Vec<(Addr, Addr)>,
    lru: u64,
}

impl RefBtb {
    fn new(l1_set_bits: u32, l1_ways: usize, l2_set_bits: u32, l2_ways: usize) -> Self {
        let level = |bits: u32, ways| (vec![Vec::new(); 1 << bits], ways);
        RefBtb {
            levels: [level(l1_set_bits, l1_ways), level(l2_set_bits, l2_ways)],
            clock: 0,
            stats: [0; 5],
        }
    }

    fn set(&mut self, level: usize, block: u64) -> &mut Vec<RefEntry> {
        let sets = &mut self.levels[level].0;
        let n = sets.len();
        &mut sets[block as usize % n]
    }

    fn lookup(&mut self, pc: Addr) -> (BtbOutcome, Option<Addr>) {
        self.stats[0] += 1;
        self.clock += 1;
        let (block, clock) = (pc.get() >> 5, self.clock);
        for (level, outcome) in [(0, BtbOutcome::L1Hit), (1, BtbOutcome::L2Hit)] {
            let found = self.set(level, block).iter_mut().find(|e| e.block == block);
            let hit = found.and_then(|e| {
                e.lru = clock;
                e.branches.iter().find(|b| b.0 == pc).copied()
            });
            if let Some((pc, target)) = hit {
                self.stats[1 + level] += 1;
                if level == 1 {
                    self.insert(0, pc, target);
                }
                return (outcome, Some(target));
            }
        }
        self.stats[3] += 1;
        (BtbOutcome::Miss, None)
    }

    fn predict_target(&mut self, pc: Addr) -> Option<Addr> {
        let block = pc.get() >> 5;
        (0..2).find_map(|level| {
            let e = self.set(level, block).iter().find(|e| e.block == block)?;
            e.branches.iter().find(|b| b.0 == pc).map(|b| b.1)
        })
    }

    fn update(&mut self, pc: Addr, target: Addr) {
        self.clock += 1;
        self.insert(0, pc, target);
        self.insert(1, pc, target);
    }

    fn insert(&mut self, level: usize, pc: Addr, target: Addr) {
        let (block, clock, ways) = (pc.get() >> 5, self.clock, self.levels[level].1);
        let set = self.set(level, block);
        if let Some(e) = set.iter_mut().find(|e| e.block == block) {
            e.lru = clock;
            if let Some(b) = e.branches.iter_mut().find(|b| b.0 == pc) {
                b.1 = target;
            } else {
                if e.branches.len() == 2 {
                    e.branches.pop(); // displace the later branch
                }
                e.branches.push((pc, target));
                e.branches.sort_by_key(|b| b.0);
            }
            return;
        }
        let entry = RefEntry {
            block,
            branches: vec![(pc, target)],
            lru: clock,
        };
        if set.len() < ways {
            set.push(entry);
        } else {
            let victim = (0..set.len()).min_by_key(|&i| set[i].lru).unwrap();
            set[victim] = entry;
        }
    }
}

const KINDS: [BranchKind; 5] = [
    BranchKind::Conditional,
    BranchKind::Direct,
    BranchKind::Indirect,
    BranchKind::Call,
    BranchKind::Ret,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flat BTB makes exactly the decisions of the per-set reference
    /// model: the same level outcomes, targets, predictions and counters
    /// under random training and lookup traffic, for geometries down to
    /// a single direct-mapped set.
    #[test]
    fn btb_matches_the_per_set_reference(
        ops in prop::collection::vec((0u8..4, 0u64..400, 0u64..8), 1..800),
        (l1_bits, l1_ways) in (0u32..4, 1usize..5),
        (l2_bits, l2_ways) in (0u32..6, 1usize..5),
    ) {
        let mut btb = Btb::new(l1_bits, l1_ways, l2_bits, l2_ways);
        let mut r = RefBtb::new(l1_bits, l1_ways, l2_bits, l2_ways);
        for (i, (op, slot, t)) in ops.into_iter().enumerate() {
            // 8-byte branch slots: four per 32-byte block, so blocks
            // overflow their two branch places as well as their sets.
            let pc = Addr::new(0x1000 + slot * 8);
            match op {
                0 => prop_assert_eq!(btb.lookup(pc), r.lookup(pc), "op {}: lookup {}", i, pc),
                1 => prop_assert_eq!(
                    btb.predict_target(pc),
                    r.predict_target(pc),
                    "op {}: predict {}", i, pc
                ),
                2 => {
                    btb.note_target_mispredict();
                    r.stats[4] += 1;
                }
                _ => {
                    let target = Addr::new(0x8000 + t * 0x40);
                    btb.update(pc, KINDS[t as usize % KINDS.len()], target);
                    r.update(pc, target);
                }
            }
        }
        let s = btb.stats();
        prop_assert_eq!(
            [s.lookups, s.l1_hits, s.l2_hits, s.misses, s.target_mispredicts],
            r.stats
        );
    }
}
