//! Two-level branch target buffer with two branches per entry (Table I).
//!
//! Entries are keyed by 32-byte fetch block; each entry tracks up to two
//! branches inside the block (offset, kind, last target). A miss in the
//! first level that hits in the second promotes the entry and costs the
//! front end a small bubble; a miss in both levels means a taken branch is
//! discovered only at decode, a larger bubble.

use ucsim_model::{Addr, SetSlots};

/// Static classification of a branch for the BTB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// Conditional direct.
    Conditional,
    /// Unconditional direct jump.
    Direct,
    /// Indirect jump.
    Indirect,
    /// Call (pushes RAS).
    Call,
    /// Return (pops RAS).
    Ret,
}

/// One branch on its way into an entry.
#[derive(Debug, Clone, Copy)]
struct BtbBranch {
    /// Byte offset of the branch inside its 32-byte block.
    offset: u8,
    kind: BranchKind,
    target: Addr,
}

/// One block's branches, stored field by field: each branch is its
/// offset inside the block, its kind and its target, since its pc is
/// `block << 5 | offset`. That packs an entry into 40 bytes.
#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    /// 32-byte block number this entry covers.
    block: u64,
    lru: u64,
    /// Up to two branches, kept in offset (that is, pc) order; only the
    /// first `n_branches` slots are live. Inline storage: entries are
    /// created and evicted continuously in steady state, so they must
    /// not own heap memory.
    targets: [Addr; BRANCHES_PER_ENTRY],
    offsets: [u8; BRANCHES_PER_ENTRY],
    kinds: [BranchKind; BRANCHES_PER_ENTRY],
    n_branches: u8,
}

impl BtbEntry {
    /// An entry holding `b` alone.
    const fn new(block: u64, b: BtbBranch, lru: u64) -> Self {
        BtbEntry {
            block,
            lru,
            targets: [b.target; BRANCHES_PER_ENTRY],
            offsets: [b.offset; BRANCHES_PER_ENTRY],
            kinds: [b.kind; BRANCHES_PER_ENTRY],
            n_branches: 1,
        }
    }

    /// The live slot of the branch at `offset`, if any.
    fn find(&self, offset: u8) -> Option<usize> {
        self.offsets[..self.n_branches as usize]
            .iter()
            .position(|&o| o == offset)
    }

    /// The branch in slot `i`.
    fn branch(&self, i: usize) -> BtbBranch {
        BtbBranch {
            offset: self.offsets[i],
            kind: self.kinds[i],
            target: self.targets[i],
        }
    }

    /// Trains the branch `b`: updates it in place if resident, else adds
    /// it, displacing the later branch of a full entry (two branches per
    /// entry, Table I); the live branches stay in offset order.
    fn train(&mut self, b: BtbBranch) {
        if let Some(i) = self.find(b.offset) {
            self.kinds[i] = b.kind;
            self.targets[i] = b.target;
            return;
        }
        let n = self.n_branches as usize;
        if n < BRANCHES_PER_ENTRY {
            self.n_branches += 1;
        }
        let last = n.min(BRANCHES_PER_ENTRY - 1);
        self.offsets[last] = b.offset;
        self.kinds[last] = b.kind;
        self.targets[last] = b.target;
        // The only slot out of order is the one just written.
        for i in (1..=last).rev() {
            if self.offsets[i - 1] < self.offsets[i] {
                break;
            }
            self.offsets.swap(i - 1, i);
            self.kinds.swap(i - 1, i);
            self.targets.swap(i - 1, i);
        }
    }
}

/// Counters for one BTB level pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct BtbStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Hits in L1.
    pub l1_hits: u64,
    /// Hits in L2 (L1 miss).
    pub l2_hits: u64,
    /// Complete misses.
    pub misses: u64,
    /// Target mispredictions reported by callers (indirects).
    pub target_mispredicts: u64,
}

/// Result of a BTB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtbOutcome {
    /// Found in the first level: no bubble.
    L1Hit,
    /// Found in the second level: small promotion bubble.
    L2Hit,
    /// Unknown branch: discovered at decode.
    Miss,
}

const BLOCK_SHIFT: u32 = 5; // 32-byte blocks
const BRANCHES_PER_ENTRY: usize = 2;

/// A placeholder for slots past a set's live prefix; never read.
const EMPTY_ENTRY: BtbEntry = BtbEntry::new(
    0,
    BtbBranch {
        offset: 0,
        kind: BranchKind::Conditional,
        target: Addr::new(0),
    },
    0,
);

/// One BTB level: every set's entries in one set-major [`SetSlots`].
///
/// Each set has `ways` slots; its first `lens[set]` are live, in
/// insertion order, and the rest are unused. The storage grows with the
/// sets a run trains, up to a full level, so entries churn continuously
/// once the predictor warms without a steady-state allocation, and
/// building a level costs a fixed three allocations however many sets it
/// has.
#[derive(Debug, Clone)]
struct BtbLevel {
    entries: SetSlots<BtbEntry>,
    /// Live entries per set (`u32`: one set may hold up to 2^18 ways).
    lens: Vec<u32>,
    ways: usize,
    set_mask: usize,
}

impl BtbLevel {
    fn new(set_bits: u32, ways: usize) -> Self {
        let sets = 1usize << set_bits;
        BtbLevel {
            entries: SetSlots::new(sets, ways, EMPTY_ENTRY),
            lens: vec![0; sets],
            ways,
            set_mask: sets - 1,
        }
    }

    fn set_of(&self, block: u64) -> usize {
        (block as usize) & self.set_mask
    }

    /// The live entries of `block`'s set.
    fn live(&self, block: u64) -> &[BtbEntry] {
        let set = self.set_of(block);
        &self.entries.set(set)[..self.lens[set] as usize]
    }

    /// The live entry for `block`, if resident.
    fn entry_mut(&mut self, block: u64) -> Option<&mut BtbEntry> {
        let i = self.live(block).iter().position(|e| e.block == block)?;
        Some(&mut self.entries.set_mut(self.set_of(block))[i])
    }

    fn insert(&mut self, b: BtbBranch, block: u64, clock: u64) {
        if let Some(e) = self.entry_mut(block) {
            e.lru = clock;
            e.train(b);
            return;
        }
        let entry = BtbEntry::new(block, b, clock);
        let set = self.set_of(block);
        let len = self.lens[set] as usize;
        let slots = self.entries.set_mut(set);
        if len < self.ways {
            slots[len] = entry;
            self.lens[set] += 1;
        } else {
            // Evict the LRU entry (the first, on a tie).
            let (victim, _) = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .expect("non-empty set");
            slots[victim] = entry;
        }
    }
}

/// The two-level BTB.
///
/// # Example
///
/// ```
/// use ucsim_bpu::{Btb, BranchKind};
/// use ucsim_model::Addr;
///
/// let mut btb = Btb::new(9, 4, 12, 8);
/// let pc = Addr::new(0x1004);
/// assert!(btb.predict_target(pc).is_none());
/// btb.update(pc, BranchKind::Direct, Addr::new(0x2000));
/// assert_eq!(btb.predict_target(pc), Some(Addr::new(0x2000)));
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    l1: BtbLevel,
    l2: BtbLevel,
    clock: u64,
    stats: BtbStats,
}

impl Btb {
    /// Creates a BTB with `2^l1_set_bits × l1_ways` L1 entries and
    /// `2^l2_set_bits × l2_ways` L2 entries.
    pub fn new(l1_set_bits: u32, l1_ways: usize, l2_set_bits: u32, l2_ways: usize) -> Self {
        assert!(l1_ways > 0 && l2_ways > 0, "BTB needs at least one way");
        Btb {
            l1: BtbLevel::new(l1_set_bits, l1_ways),
            l2: BtbLevel::new(l2_set_bits, l2_ways),
            clock: 0,
            stats: BtbStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = BtbStats::default();
    }

    fn block_of(pc: Addr) -> u64 {
        pc.get() >> BLOCK_SHIFT
    }

    fn offset_of(pc: Addr) -> u8 {
        (pc.get() & ((1 << BLOCK_SHIFT) - 1)) as u8
    }

    /// Looks up the branch at `pc`, promoting L2 hits into L1.
    /// Returns the level outcome and the stored target, if any.
    pub fn lookup(&mut self, pc: Addr) -> (BtbOutcome, Option<Addr>) {
        self.stats.lookups += 1;
        self.clock += 1;
        let block = Self::block_of(pc);
        let clock = self.clock;

        let offset = Self::offset_of(pc);

        if let Some(e) = self.l1.entry_mut(block) {
            e.lru = clock;
            if let Some(i) = e.find(offset) {
                self.stats.l1_hits += 1;
                return (BtbOutcome::L1Hit, Some(e.targets[i]));
            }
        }

        let found = self.l2.entry_mut(block).and_then(|e| {
            e.lru = clock;
            e.find(offset).map(|i| e.branch(i))
        });
        if let Some(b) = found {
            self.stats.l2_hits += 1;
            // Promote the whole block entry into L1.
            self.l1.insert(b, block, clock);
            return (BtbOutcome::L2Hit, Some(b.target));
        }

        self.stats.misses += 1;
        (BtbOutcome::Miss, None)
    }

    /// Predicted target without updating stats or recency (peek).
    pub fn predict_target(&self, pc: Addr) -> Option<Addr> {
        let (block, offset) = (Self::block_of(pc), Self::offset_of(pc));
        [&self.l1, &self.l2].into_iter().find_map(|level| {
            let e = level.live(block).iter().find(|e| e.block == block)?;
            e.find(offset).map(|i| e.targets[i])
        })
    }

    /// Installs/updates the branch at `pc` with its latest `target` in both
    /// levels (write-through training on every executed branch).
    pub fn update(&mut self, pc: Addr, kind: BranchKind, target: Addr) {
        self.clock += 1;
        let b = BtbBranch {
            offset: Self::offset_of(pc),
            kind,
            target,
        };
        let block = Self::block_of(pc);
        self.l1.insert(b, block, self.clock);
        self.l2.insert(b, block, self.clock);
    }

    /// Records an indirect-target misprediction (bookkeeping for MPKI).
    pub fn note_target_mispredict(&mut self) {
        self.stats.target_mispredicts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_entry_packs_into_40_bytes() {
        assert_eq!(std::mem::size_of::<BtbEntry>(), 40);
    }

    #[test]
    fn miss_then_train_then_l1_hit() {
        let mut btb = Btb::new(4, 2, 6, 2);
        let pc = Addr::new(0x100);
        assert_eq!(btb.lookup(pc).0, BtbOutcome::Miss);
        btb.update(pc, BranchKind::Direct, Addr::new(0x800));
        let (o, t) = btb.lookup(pc);
        assert_eq!(o, BtbOutcome::L1Hit);
        assert_eq!(t, Some(Addr::new(0x800)));
    }

    #[test]
    fn l2_backstop_and_promotion() {
        let mut btb = Btb::new(2, 1, 8, 4); // tiny L1: 4 sets x 1 way
        let pc = Addr::new(0x100);
        btb.update(pc, BranchKind::Direct, Addr::new(0x800));
        // Evict from L1 by training conflicting blocks (same L1 set).
        for i in 1..=4u64 {
            btb.update(
                Addr::new(0x100 + i * 4 * 32),
                BranchKind::Direct,
                Addr::new(0x900),
            );
        }
        let (o, t) = btb.lookup(pc);
        assert_eq!(o, BtbOutcome::L2Hit);
        assert_eq!(t, Some(Addr::new(0x800)));
        // Promoted: next lookup hits L1.
        assert_eq!(btb.lookup(pc).0, BtbOutcome::L1Hit);
    }

    #[test]
    fn two_branches_share_a_block() {
        let mut btb = Btb::new(4, 2, 6, 2);
        let a = Addr::new(0x200); // block 0x10
        let b = Addr::new(0x210); // same 32B block
        btb.update(a, BranchKind::Conditional, Addr::new(0x300));
        btb.update(b, BranchKind::Direct, Addr::new(0x400));
        assert_eq!(btb.predict_target(a), Some(Addr::new(0x300)));
        assert_eq!(btb.predict_target(b), Some(Addr::new(0x400)));
    }

    #[test]
    fn third_branch_displaces_second() {
        let mut btb = Btb::new(4, 2, 6, 2);
        let a = Addr::new(0x200);
        let b = Addr::new(0x208);
        let c = Addr::new(0x210);
        btb.update(a, BranchKind::Conditional, Addr::new(0x300));
        btb.update(b, BranchKind::Conditional, Addr::new(0x400));
        btb.update(c, BranchKind::Conditional, Addr::new(0x500));
        assert_eq!(btb.predict_target(a), Some(Addr::new(0x300)));
        assert_eq!(btb.predict_target(c), Some(Addr::new(0x500)));
        assert_eq!(btb.predict_target(b), None, "displaced by third branch");
    }

    #[test]
    fn target_update_for_indirect() {
        let mut btb = Btb::new(4, 2, 6, 2);
        let pc = Addr::new(0x340);
        btb.update(pc, BranchKind::Indirect, Addr::new(0x1000));
        btb.update(pc, BranchKind::Indirect, Addr::new(0x2000));
        assert_eq!(btb.predict_target(pc), Some(Addr::new(0x2000)));
    }

    #[test]
    fn stats_track_levels() {
        let mut btb = Btb::new(4, 2, 6, 2);
        let pc = Addr::new(0x100);
        btb.lookup(pc); // miss
        btb.update(pc, BranchKind::Direct, Addr::new(0x800));
        btb.lookup(pc); // l1 hit
        let s = btb.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
    }
}
