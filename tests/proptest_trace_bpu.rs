//! Property-based tests of the workload substrate and the decoupled
//! front end: arbitrary profiles must produce structurally valid programs,
//! control-flow-consistent traces, and PW streams that tile the trace.

use proptest::prelude::*;
use ucsim::bpu::{BpuConfig, SlicePwGen};
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
