//! Differential tests of the packed [`Trace`] against its executable
//! spec, the plain `DynInst` stream: packing must expand back to exactly
//! the recorded instructions, and its UCT1 bytes must equal the
//! historical encoder's (reproduced here over a `&[DynInst]`).

use proptest::prelude::*;
use std::time::{Duration, Instant};
use ucsim::model::{Addr, BranchExec, DynInst, InstClass};

use ucsim::trace::{Program, Trace, WorkloadProfile};

const CLASSES: [InstClass; 13] = [
    InstClass::IntAlu,
    InstClass::IntMul,
    InstClass::IntDiv,
    InstClass::Load,
    InstClass::Store,
    InstClass::CondBranch,
    InstClass::JumpDirect,
    InstClass::JumpIndirect,
    InstClass::Call,
    InstClass::Ret,
    InstClass::Fp,
    InstClass::Simd,
    InstClass::Nop,
];

/// The UCT1 encoder as it stood over a `Vec<DynInst>`.
fn spec_encode(insts: &[DynInst]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&0x5543_5431u32.to_be_bytes());
    buf.extend_from_slice(&(insts.len() as u64).to_be_bytes());
    for i in insts {
        buf.extend_from_slice(&i.pc.get().to_be_bytes());
        let (flags, aux) = match (i.branch, i.mem_addr) {
            (Some(b), _) => (0b01 | ((b.taken as u8) << 2), b.target.get()),
            (None, Some(m)) => (0b10, m.get()),
            (None, None) => (0, 0),
        };
        buf.extend_from_slice(&aux.to_be_bytes());
        buf.push(i.len);
        buf.push(i.uops);
        buf.push(i.imm_disp);
        buf.push(flags | ((i.microcoded as u8) << 3));
        buf.push(CLASSES.iter().position(|&c| c == i.class).unwrap() as u8);
    }
    buf
}

/// Random instruction streams: a small pool of pcs, each of which may
/// reappear with different static fields; random classes; every mix of
/// branch and data-address presence UCT1 can carry; and stream lengths
/// from empty to 6000 instructions, a quarter of them under 64.
struct Streams;

impl Strategy for Streams {
    type Value = Vec<DynInst>;

    fn sample(&self, rng: &mut TestRng) -> Vec<DynInst> {
        let len = match rng.below(4) {
            0 => rng.below(64) as usize,
            _ => rng.below(6000) as usize,
        };
        let pcs: Vec<u64> = (0..1 + rng.below(96))
            .map(|_| rng.next_u64() >> rng.below(40))
            .collect();
        // A few static shapes per pc, so repeats mostly hit the table.
        let shapes = 1 + rng.below(3);
        (0..len)
            .map(|_| {
                let pc = pcs[rng.below(pcs.len() as u64) as usize];
                let mut shape = ucsim::model::SplitMix64::new(pc ^ rng.below(shapes));
                let mut i = DynInst::simple(
                    Addr::new(pc),
                    1 + shape.below(15) as u8,
                    CLASSES[shape.below(13) as usize],
                )
                .with_uops(shape.below(256) as u8)
                .with_imm_disp(shape.below(3) as u8)
                .with_microcoded(shape.below(2) == 1);
                let aux = Addr::new(rng.next_u64());
                let branch = BranchExec {
                    taken: rng.below(2) == 1,
                    target: aux,
                };
                match rng.below(4) {
                    0 => {}
                    1 => i.branch = Some(branch),
                    2 => i.mem_addr = Some(aux),
                    // UCT1's flags 0b011: one aux read as both.
                    _ => (i.branch, i.mem_addr) = (Some(branch), Some(aux)),
                }
                i
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn packing_expands_to_the_recorded_stream(xs in Streams, cut in 0usize..7000) {
        let t = Trace::record(xs.iter().copied());
        prop_assert_eq!(t.len(), xs.len());
        prop_assert!(t.iter().eq(xs.iter().copied()), "expansion differs");
        // Skipping steps over packed words and their aux values.
        prop_assert!(t.iter().skip(cut).eq(xs.iter().skip(cut).copied()));
    }

    #[test]
    fn packed_uct1_bytes_match_the_spec_encoder(xs in Streams) {
        let t = Trace::record(xs.iter().copied());
        let bytes = t.to_bytes();
        prop_assert_eq!(&bytes, &spec_encode(&xs));
        // UCT1 writes a branch's target as `aux` and no data address.
        let uct1: Vec<DynInst> = xs
            .iter()
            .map(|&i| DynInst {
                mem_addr: if i.branch.is_some() { None } else { i.mem_addr },
                ..i
            })
            .collect();
        let back = Trace::from_bytes(&bytes).unwrap();
        prop_assert!(back == Trace::record(uct1.iter().copied()), "decode packs differently");
        prop_assert!(back.iter().eq(uct1.iter().copied()));
    }
}

/// The served profiles' 4500-instruction walks (`serve-mix` requests
/// 500 warmup + 4000 measured) pack into at most 16 bytes per
/// instruction, against 48 as `DynInst`s.
#[test]
fn served_walks_pack_into_16_bytes_per_instruction() {
    for name in ["bm-x64", "bm-lla", "redis", "bm-pb"] {
        let profile = WorkloadProfile::by_name(name).expect("Table II profile");
        let program = Program::generate(&profile);
        let t = Trace::record(program.walk(&profile).take(4500));
        let per_inst = t.heap_bytes() as f64 / 4500.0;
        assert!(per_inst <= 16.0, "{name}: {per_inst:.1} B/inst");
        assert!(t.iter().eq(program.walk(&profile).take(4500)));
    }
}

/// An upload may repeat one pc under many static shapes. 199K records
/// at one pc, each with its own `len`/`uops`/`imm_disp`/`microcoded`/
/// `class` (a UCT1 body just inside the 4 MiB upload limit), must decode in
/// bounded time: interning hashes every static field, so these do not
/// share one probe chain (a hash of the pc alone would make the decode
/// quadratic, about 2 * 10^10 probes).
#[test]
fn one_pc_under_many_static_shapes_decodes_in_bounded_time() {
    let pc = Addr::new(0x40_1000);
    let xs: Vec<DynInst> = (0..199_000u64)
        .map(|k| {
            DynInst::simple(pc, 1 + (k % 15) as u8, CLASSES[(k / 15 % 13) as usize])
                .with_uops((k / 195 % 256) as u8)
                .with_imm_disp((k / 49_920) as u8)
                .with_microcoded(k % 2 == 1)
        })
        .collect();
    let bytes = spec_encode(&xs);
    assert!(bytes.len() <= 4 << 20);
    let start = Instant::now();
    let t = Trace::from_bytes(&bytes).unwrap();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(10), "decode took {took:?}");
    assert!(t.iter().eq(xs.iter().copied()));
}
