//! Recorded traces: a packed in-memory form and the UCT1 byte format.
//!
//! A dynamic instruction is mostly static: `pc`, `len`, `uops`,
//! `imm_disp`, `microcoded` and `class` repeat every time the same
//! instruction executes, and only the branch outcome and target and the
//! data address change. A [`Trace`] therefore stores
//!
//! - a table of the distinct static instructions, in first-seen order
//!   (16 B each);
//! - one `u32` per dynamic instruction: the static index plus branch,
//!   taken and memory flags;
//! - one `u64` per instruction that has a branch or a data address: the
//!   branch target, or else the data address — the `aux` field of a UCT1
//!   record, under the same rule.
//!
//! A served 4500-instruction walk packs into 10–16 B per instruction,
//! against 48 B as `DynInst`s. [`Trace::iter`] expands the stream back,
//! instruction by instruction, into the window the simulator reads.

use std::hash::{BuildHasher, RandomState};
use std::io::{self, Read, Write};
use std::sync::OnceLock;

use ucsim_model::{Addr, BranchExec, DynInst, InstClass};

/// Magic bytes of the trace format ("UCT1").
const MAGIC: u32 = 0x5543_5431;

/// Bytes of one UCT1 record.
const RECORD_BYTES: usize = 21;

/// Low bits of a packed instruction: the static-table index.
const INDEX_BITS: u32 = 29;
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;
/// The instruction carries a branch outcome (target in `aux`).
const BRANCH: u32 = 1 << 29;
/// The branch was taken.
const TAKEN: u32 = 1 << 30;
/// The instruction carries a data address (in `aux`).
const MEM: u32 = 1 << 31;

/// The fields of an instruction that do not change between executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StaticInst {
    pc: Addr,
    len: u8,
    uops: u8,
    imm_disp: u8,
    microcoded: bool,
    class: InstClass,
}

impl StaticInst {
    fn of(i: &DynInst) -> Self {
        StaticInst {
            pc: i.pc,
            len: i.len,
            uops: i.uops,
            imm_disp: i.imm_disp,
            microcoded: i.microcoded,
            class: i.class,
        }
    }

    /// Every field but the pc, one byte each.
    fn fields(&self) -> u64 {
        u64::from(self.len)
            | u64::from(self.uops) << 8
            | u64::from(self.imm_disp) << 16
            | u64::from(self.microcoded) << 24
            | u64::from(class_code(self.class)) << 32
    }
}

/// A recorded dynamic trace, stored packed (see the module docs).
///
/// An instruction keeps at most one `aux` value: a branch outcome wins
/// over a data address, as in UCT1, so an instruction carrying both
/// expands with its data address only when it equals the branch target.
/// The trace walker never emits both.
///
/// # Example
///
/// ```
/// use ucsim_trace::{Program, Trace, WorkloadProfile};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = WorkloadProfile::quick_test();
/// let prog = Program::generate(&p);
/// let t = Trace::record(prog.walk(&p).take(256));
/// let bytes = t.to_bytes();
/// let back = Trace::from_bytes(&bytes)?;
/// assert!(t.iter().eq(back.iter()));
/// assert!(t.iter().eq(prog.walk(&p).take(256)));
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Trace {
    statics: Vec<StaticInst>,
    /// One per instruction: static index | `BRANCH` | `TAKEN` | `MEM`.
    packed: Vec<u32>,
    /// Branch target or data address of each instruction with `BRANCH`
    /// or `MEM` set, in stream order.
    aux: Vec<u64>,
    /// The expanded stream, built on the first [`Trace::insts`] call.
    expanded: OnceLock<Vec<DynInst>>,
}

impl Trace {
    /// Records all instructions from an iterator.
    ///
    /// # Panics
    ///
    /// Panics past 2^29 distinct static instructions.
    pub fn record<I: IntoIterator<Item = DynInst>>(src: I) -> Self {
        let src = src.into_iter();
        let mut packer = Packer::with_capacity(src.size_hint().0);
        for inst in src {
            if let Err(e) = packer.push(&inst) {
                panic!("cannot record trace: {e}");
            }
        }
        packer.finish()
    }

    /// The recorded instructions, expanded on first use and kept with the
    /// trace (48 B per instruction on top of the packed form). Prefer
    /// [`Self::iter`], which expands one instruction at a time.
    pub fn insts(&self) -> &[DynInst] {
        self.expanded.get_or_init(|| self.iter().collect())
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Heap bytes of the packed form (allocated capacity, excluding an
    /// [`Self::insts`] expansion).
    pub fn heap_bytes(&self) -> usize {
        self.statics.capacity() * std::mem::size_of::<StaticInst>()
            + self.packed.capacity() * std::mem::size_of::<u32>()
            + self.aux.capacity() * std::mem::size_of::<u64>()
    }

    /// Expands the instructions in order, by value (for feeding the
    /// simulator). `skip(n)` and `nth(n)` step over packed words without
    /// expanding them.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            statics: &self.statics,
            packed: self.packed.iter(),
            aux: &self.aux,
            aux_pos: 0,
        }
    }

    /// Serializes into the UCT1 binary format (big-endian fields,
    /// byte-identical to the historical encoder).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12 + self.len() * RECORD_BYTES);
        buf.extend_from_slice(&MAGIC.to_be_bytes());
        buf.extend_from_slice(&(self.len() as u64).to_be_bytes());
        for i in self.iter() {
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
            buf.push(class_code(i.class));
        }
        buf
    }

    /// Deserializes from [`Self::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on bad magic, truncation, an instruction
    /// length outside 1..=15, an unknown class code, or more than 2^29
    /// distinct static instructions.
    pub fn from_bytes(data: &[u8]) -> io::Result<Self> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_owned());
        let mut r = Reader { data, pos: 0 };
        if r.remaining() < 12 {
            return Err(bad("truncated header"));
        }
        if r.get_u32() != MAGIC {
            return Err(bad("bad magic"));
        }
        let n = r.get_u64() as usize;
        let mut packer = Packer::with_capacity(n.min(r.remaining() / RECORD_BYTES));
        for _ in 0..n {
            if r.remaining() < RECORD_BYTES {
                return Err(bad("truncated record"));
            }
            let pc = Addr::new(r.get_u64());
            let aux = r.get_u64();
            let len = r.get_u8();
            let uops = r.get_u8();
            let imm_disp = r.get_u8();
            let flags = r.get_u8();
            let class = class_from_code(r.get_u8()).ok_or_else(|| bad("bad class"))?;
            if !(1..=15).contains(&len) {
                return Err(bad("instruction length outside 1..=15"));
            }
            let branch = (flags & 0b01 != 0).then(|| BranchExec {
                taken: flags & 0b100 != 0,
                target: Addr::new(aux),
            });
            let mem_addr = (flags & 0b10 != 0).then(|| Addr::new(aux));
            packer
                .push(&DynInst {
                    pc,
                    len,
                    uops,
                    imm_disp,
                    microcoded: flags & 0b1000 != 0,
                    class,
                    branch,
                    mem_addr,
                })
                .map_err(bad)?;
        }
        Ok(packer.finish())
    }

    /// Writes the binary format to `w`. A `&mut` reference works as the
    /// writer (`W: Write` by value, per the usual std convention).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&self.to_bytes())
    }

    /// Reads the binary format from `r`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and format errors.
    pub fn load<R: Read>(mut r: R) -> io::Result<Self> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        Self::from_bytes(&buf)
    }
}

impl Clone for Trace {
    fn clone(&self) -> Self {
        Trace {
            statics: self.statics.clone(),
            packed: self.packed.clone(),
            aux: self.aux.clone(),
            expanded: OnceLock::new(),
        }
    }
}

/// Equal traces hold equal instruction streams: packing is canonical
/// (first-seen static order), so the packed parts decide.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.statics == other.statics && self.packed == other.packed && self.aux == other.aux
    }
}

impl Eq for Trace {}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("len", &self.len())
            .field("statics", &self.statics.len())
            .field("aux", &self.aux.len())
            .finish()
    }
}

impl FromIterator<DynInst> for Trace {
    fn from_iter<I: IntoIterator<Item = DynInst>>(iter: I) -> Self {
        Trace::record(iter)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = DynInst;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Expands a [`Trace`] in order ([`Trace::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    statics: &'a [StaticInst],
    packed: std::slice::Iter<'a, u32>,
    aux: &'a [u64],
    aux_pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = DynInst;

    #[inline]
    fn next(&mut self) -> Option<DynInst> {
        let word = *self.packed.next()?;
        let s = self.statics[(word & INDEX_MASK) as usize];
        let aux = if word & (BRANCH | MEM) != 0 {
            let a = self.aux[self.aux_pos];
            self.aux_pos += 1;
            Addr::new(a)
        } else {
            Addr::new(0)
        };
        Some(DynInst {
            pc: s.pc,
            len: s.len,
            uops: s.uops,
            imm_disp: s.imm_disp,
            microcoded: s.microcoded,
            class: s.class,
            branch: (word & BRANCH != 0).then_some(BranchExec {
                taken: word & TAKEN != 0,
                target: aux,
            }),
            mem_addr: (word & MEM != 0).then_some(aux),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.packed.size_hint()
    }

    /// Steps over `n` packed words, counting their `aux` values, without
    /// expanding them.
    fn nth(&mut self, n: usize) -> Option<DynInst> {
        let skip = n.min(self.packed.len());
        let skipped = &self.packed.as_slice()[..skip];
        self.aux_pos += skipped.iter().filter(|&&w| w & (BRANCH | MEM) != 0).count();
        self.packed = self.packed.as_slice()[skip..].iter();
        self.next()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Builds a [`Trace`], interning each instruction's static fields.
///
/// Most instructions are predicted rather than looked up: each static
/// instruction remembers the one that followed it last time, and a
/// stream mostly repeats its own successions (straight-line code, loop
/// back-edges, the same call targets), so one comparison against the
/// remembered successor settles most instructions. The rest go through
/// an open-addressing table keyed by a hash of the whole static
/// instruction: the pc and the other fields each times its own random
/// odd multiplier per packer, summed and then mixed by the MurmurHash3
/// finalizer. The random multipliers keep an uploaded trace from being
/// crafted so that its statics collide (one pc under many static shapes
/// included) and each insertion walks a long probe sequence; the
/// finalizer spreads structured keys (pcs in a stride, fields differing
/// byte by byte) evenly over the table.
struct Packer {
    trace: Trace,
    /// Per static index: the static index that followed it last.
    succ: Vec<u32>,
    /// Static index of the previous instruction (`NONE` at the start).
    last: u32,
    /// Static index + 1 per slot (0 = empty); a power-of-two length.
    slots: Vec<u32>,
    /// Odd hash multipliers of the pc and of [`StaticInst::fields`].
    mult_pc: u64,
    mult_fields: u64,
    /// `64 - log2(slots.len())`: a slot is the hash's top bits.
    shift: u32,
}

/// No static index.
const NONE: u32 = u32::MAX;

impl Packer {
    const INITIAL_SLOTS: usize = 1024;

    /// A packer sized for `insts` instructions: room for all of them in
    /// the stream, and for half as many static instructions (a short walk
    /// is largely first executions) and `aux` values.
    fn with_capacity(insts: usize) -> Self {
        let insts = insts.min(1 << 24);
        let statics = (insts / 2).min(1 << 16);
        let slots = (2 * statics).next_power_of_two().max(Self::INITIAL_SLOTS);
        let keys = RandomState::new();
        let mut trace = Trace::default();
        trace.packed.reserve(insts);
        trace.statics.reserve(statics);
        trace.aux.reserve(insts / 2);
        Packer {
            trace,
            succ: Vec::with_capacity(statics),
            last: NONE,
            slots: vec![0; slots],
            mult_pc: keys.hash_one(0u8) | 1,
            mult_fields: keys.hash_one(1u8) | 1,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    #[inline]
    fn slot_of(&self, s: &StaticInst) -> usize {
        let mut h =
            s.pc.get()
                .wrapping_mul(self.mult_pc)
                .wrapping_add(s.fields().wrapping_mul(self.mult_fields));
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        (h >> self.shift) as usize
    }

    /// The static-table index of `s`, interning it when new.
    #[inline]
    fn intern(&mut self, s: StaticInst) -> Result<u32, &'static str> {
        if let Some(&next) = self.succ.get(self.last as usize) {
            if self.trace.statics.get(next as usize) == Some(&s) {
                self.last = next;
                return Ok(next);
            }
        }
        // Hash here, while `s` is still in registers: inside `lookup` its
        // bytes would be read back from a fresh stack copy, and the failed
        // store forwarding costs about 4 ns per recorded instruction.
        let index = self.lookup(s, self.slot_of(&s))?;
        if let Some(next) = self.succ.get_mut(self.last as usize) {
            *next = index;
        }
        self.last = index;
        Ok(index)
    }

    /// The hash-table path of [`Self::intern`], from `s`'s home slot.
    fn lookup(&mut self, s: StaticInst, mut slot: usize) -> Result<u32, &'static str> {
        let mask = self.slots.len() - 1;
        loop {
            match self.slots[slot] {
                0 => break,
                held if self.trace.statics[(held - 1) as usize] == s => return Ok(held - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
        let index = self.trace.statics.len();
        if index > INDEX_MASK as usize {
            return Err("more than 2^29 distinct instructions");
        }
        self.trace.statics.push(s);
        self.succ.push(NONE);
        self.slots[slot] = index as u32 + 1;
        // Keep the table at most half full.
        if self.trace.statics.len() * 2 > self.slots.len() {
            self.rehash();
        }
        Ok(index as u32)
    }

    #[cold]
    fn rehash(&mut self) {
        let len = self.slots.len() * 2;
        self.slots = vec![0; len];
        self.shift = 64 - len.trailing_zeros();
        let mask = len - 1;
        for index in 0..self.trace.statics.len() {
            let mut slot = self.slot_of(&self.trace.statics[index]);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = index as u32 + 1;
        }
    }

    #[inline]
    fn push(&mut self, i: &DynInst) -> Result<(), &'static str> {
        let mut word = self.intern(StaticInst::of(i))?;
        match (i.branch, i.mem_addr) {
            (Some(b), mem) => {
                word |= BRANCH | if b.taken { TAKEN } else { 0 };
                if mem == Some(b.target) {
                    word |= MEM;
                }
                self.trace.aux.push(b.target.get());
            }
            (None, Some(m)) => {
                word |= MEM;
                self.trace.aux.push(m.get());
            }
            (None, None) => {}
        }
        self.trace.packed.push(word);
        Ok(())
    }

    fn finish(mut self) -> Trace {
        self.trace.statics.shrink_to_fit();
        self.trace.packed.shrink_to_fit();
        self.trace.aux.shrink_to_fit();
        self.trace
    }
}

/// Big-endian cursor over a byte slice; callers bounds-check via
/// [`Reader::remaining`] before each record.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn get_u8(&mut self) -> u8 {
        let v = self.data[self.pos];
        self.pos += 1;
        v
    }

    fn get_u32(&mut self) -> u32 {
        let v = u32::from_be_bytes(
            self.data[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        );
        self.pos += 4;
        v
    }

    fn get_u64(&mut self) -> u64 {
        let v = u64::from_be_bytes(
            self.data[self.pos..self.pos + 8]
                .try_into()
                .expect("8 bytes"),
        );
        self.pos += 8;
        v
    }
}

fn class_code(c: InstClass) -> u8 {
    match c {
        InstClass::IntAlu => 0,
        InstClass::IntMul => 1,
        InstClass::IntDiv => 2,
        InstClass::Load => 3,
        InstClass::Store => 4,
        InstClass::CondBranch => 5,
        InstClass::JumpDirect => 6,
        InstClass::JumpIndirect => 7,
        InstClass::Call => 8,
        InstClass::Ret => 9,
        InstClass::Fp => 10,
        InstClass::Simd => 11,
        InstClass::Nop => 12,
    }
}

fn class_from_code(code: u8) -> Option<InstClass> {
    Some(match code {
        0 => InstClass::IntAlu,
        1 => InstClass::IntMul,
        2 => InstClass::IntDiv,
        3 => InstClass::Load,
        4 => InstClass::Store,
        5 => InstClass::CondBranch,
        6 => InstClass::JumpDirect,
        7 => InstClass::JumpIndirect,
        8 => InstClass::Call,
        9 => InstClass::Ret,
        10 => InstClass::Fp,
        11 => InstClass::Simd,
        12 => InstClass::Nop,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Program, WorkloadProfile};

    fn walk(n: usize) -> Vec<DynInst> {
        let p = WorkloadProfile::quick_test();
        let prog = Program::generate(&p);
        prog.walk(&p).take(n).collect()
    }

    fn sample() -> Trace {
        Trace::record(walk(2000))
    }

    #[test]
    fn roundtrip_is_lossless() {
        let t = sample();
        let back = Trace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn packed_stream_expands_to_the_recorded_one() {
        let insts = walk(5000);
        let t = Trace::record(insts.iter().copied());
        assert_eq!(t.len(), insts.len());
        assert!(t.iter().eq(insts.iter().copied()));
        assert_eq!(t.insts(), &insts[..]);
        assert!(t.statics.len() < insts.len() / 2, "loops repeat statics");
        for skip in [0, 1, 7, 1000, 4999, 5000, 6000] {
            assert!(
                t.iter().skip(skip).eq(insts.iter().skip(skip).copied()),
                "skip {skip}"
            );
        }
    }

    #[test]
    fn save_load_via_io() {
        let t = sample();
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let back = Trace::load(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes[0] ^= 0xff;
        assert!(Trace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let bytes = sample().to_bytes();
        assert!(Trace::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    /// A one-instruction UCT1 file whose instruction is `len` bytes long.
    fn one_inst_bytes(len: u8) -> Vec<u8> {
        let mut bytes =
            Trace::record([DynInst::simple(Addr::new(0x1000), 4, InstClass::Nop)]).to_bytes();
        bytes[12 + 16] = len;
        bytes
    }

    #[test]
    fn instruction_length_must_be_1_to_15() {
        for len in [1, 15] {
            let t = Trace::from_bytes(&one_inst_bytes(len)).unwrap();
            assert_eq!(t.iter().next().unwrap().len, len);
        }
        for len in [0, 16] {
            let e = Trace::from_bytes(&one_inst_bytes(len)).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert_eq!(e.to_string(), "instruction length outside 1..=15");
        }
    }

    #[test]
    fn statics_sharing_a_pc_spread_over_the_table() {
        let packer = Packer::with_capacity(1 << 13);
        assert_eq!(packer.slots.len(), 1 << 13);
        let slots: std::collections::HashSet<usize> = (0..4096u32)
            .map(|k| {
                packer.slot_of(&StaticInst {
                    pc: Addr::new(0x1000),
                    len: 1 + (k % 15) as u8,
                    uops: (k / 15 % 256) as u8,
                    imm_disp: (k / 3840) as u8,
                    microcoded: false,
                    class: InstClass::Nop,
                })
            })
            .collect();
        // 4096 keys thrown at random into 8192 slots fill about 3200.
        assert!(slots.len() > 3000, "{} distinct slots", slots.len());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::default();
        assert!(t.is_empty());
        let back = Trace::from_bytes(&t.to_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let p = WorkloadProfile::quick_test();
        let prog = Program::generate(&p);
        let t: Trace = prog.walk(&p).take(10).collect();
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn all_class_codes_roundtrip() {
        for code in 0..=12u8 {
            let c = class_from_code(code).unwrap();
            assert_eq!(class_code(c), code);
        }
        assert!(class_from_code(13).is_none());
    }

    #[test]
    fn a_branch_with_its_target_as_data_address_keeps_both() {
        // UCT1 flags 0b011: the decoder hands out both from one aux.
        let mut bytes = one_inst_bytes(2);
        bytes[12 + 8..12 + 16].copy_from_slice(&0x40u64.to_be_bytes());
        bytes[12 + 19] = 0b111;
        let t = Trace::from_bytes(&bytes).unwrap();
        let i = t.iter().next().unwrap();
        assert_eq!(i.mem_addr, Some(Addr::new(0x40)));
        assert_eq!(
            i.branch,
            Some(BranchExec {
                taken: true,
                target: Addr::new(0x40)
            })
        );
        assert_eq!(Trace::record([i]), t);
    }
}
