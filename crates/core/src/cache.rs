//! The uop cache proper: lookup, fill (with CLASP + compaction), and
//! self-modifying-code invalidation.

use ucsim_mem::ReplacementState;
use ucsim_model::{Addr, EntryTermination, LineAddr, PwId, SetSlots};

use crate::{CompactionPolicy, PlacementKind, UopCacheConfig, UopCacheEntry, UopCacheStats};

/// Result of a fill operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// How the entry was placed.
    pub placement: PlacementKind,
    /// Number of entries displaced from the cache by this fill. A count
    /// rather than the entries themselves: no caller consumes the
    /// displaced entries, and returning them would allocate on every
    /// conflicting fill — i.e. continuously once the cache warms up.
    pub evicted: usize,
    /// True if the fill was dropped because an identical-start entry is
    /// already resident.
    pub duplicate: bool,
}

/// Per-set occupancy/coverage summary, maintained at fill/invalidate
/// time so the per-miss interior-coverage scan can short-circuit without
/// walking the set's lines. `min_start`/`max_end` bound the union of all
/// resident entries' `[start, end)` ranges.
#[derive(Debug, Clone, Copy, Default)]
struct SetSummary {
    /// Resident entries in the set.
    entries: u32,
    /// Smallest resident `start` byte.
    min_start: u64,
    /// Largest resident `end` byte (exclusive).
    max_end: u64,
}

impl SetSummary {
    /// True when no resident entry can *cover* `addr` strictly in its
    /// interior (`start < addr < end`) — the interior-miss scan is
    /// provably empty and can be skipped.
    fn rules_out_interior(&self, addr: u64) -> bool {
        self.entries == 0 || addr <= self.min_start || addr >= self.max_end
    }
}

/// The start index's key for an entry starting at `addr`: the address
/// plus one, so that 0 can mark a free slot.
fn start_key(addr: Addr) -> u64 {
    addr.get().wrapping_add(1)
}

/// Placeholder for slots past a line's live entries; never read.
const EMPTY_SLOT: UopCacheEntry = UopCacheEntry {
    start: Addr::new(0),
    end: Addr::new(0),
    pw_id: PwId(0),
    first_pw: PwId(0),
    uops: 0,
    imm_disp: 0,
    ucoded_insts: 0,
    insts: 0,
    term: EntryTermination::Flush,
    ends_in_taken_branch: false,
    pc_lines: 0,
};

/// The micro-operation cache.
///
/// Indexing follows the paper (Section II-B3): the set is derived from the
/// entry's starting physical address at I-cache-line granularity, so all
/// entries born in one I-cache line share a set and one SMC probe per line
/// suffices; the tag is the full starting byte address. Compaction only
/// co-locates entries of the same set, preserving that invariant.
///
/// Storage is set-major and flat: one array per field for the whole
/// cache, so building a cache costs a fixed handful of allocations at any
/// capacity. Way `w` of a set owns the set's `max_entries_per_line` entry
/// slots from `w × max_entries_per_line`, of which the first
/// `line_len[set × ways + w]` hold its entries in insertion order. A
/// physical line's replacement state is per *line* regardless of how many
/// entries it holds (paper Section V-B).
///
/// # Example
///
/// ```
/// use ucsim_model::{Addr, EntryTermination, PwId};
/// use ucsim_uopcache::{UopCache, UopCacheConfig, UopCacheEntry};
///
/// let mut oc = UopCache::new(UopCacheConfig::baseline_2k());
/// let e = UopCacheEntry {
///     start: Addr::new(0x1000), end: Addr::new(0x1020),
///     pw_id: PwId(0), first_pw: PwId(0),
///     uops: 6, imm_disp: 0, ucoded_insts: 0, insts: 6,
///     term: EntryTermination::TakenBranch, ends_in_taken_branch: true,
///     pc_lines: 1,
/// };
/// oc.fill(e);
/// assert_eq!(oc.lookup(Addr::new(0x1000)).map(|e| e.uops), Some(6));
/// assert!(oc.lookup(Addr::new(0x1004)).is_none()); // tag is the start byte
/// ```
pub struct UopCache {
    cfg: UopCacheConfig,
    /// Entry slots of every set (see the type docs for the layout),
    /// backed set by set as sets are first filled.
    slots: SetSlots<UopCacheEntry>,
    /// Live entries per line, indexed `set × ways + way`.
    line_len: Vec<u32>,
    /// Per-line replacement state of every set.
    repl: ReplacementState,
    /// Coverage summary per set.
    summary: Vec<SetSummary>,
    /// The lookup index: the [`start_key`] of every slot's entry, 0 for
    /// a free slot, at `(set × ways + way) × max_entries_per_line + slot`.
    /// A set's keys are contiguous, so the hot lookup scans one short
    /// `u64` array instead of the entries themselves, and a match's
    /// position names its way and slot. Zero-initialised, so building it
    /// writes nothing.
    starts: Vec<u64>,
    /// `cfg.max_entries_per_line`: entry slots per line.
    line_slots: usize,
    /// `cfg.sets - 1`, precomputed: the set-index mask is applied on
    /// every lookup/fill/probe.
    set_mask: usize,
    stats: UopCacheStats,
    /// Reusable per-fill scratch (the way-validity mask handed to the
    /// replacement policy) so the no-eviction fill path allocates
    /// nothing.
    valid_scratch: Vec<bool>,
    /// Reusable recency-order scratch for compacting fills.
    order_scratch: Vec<usize>,
    /// Reusable scratch for F-PWAC forced moves (foreign entries pulled
    /// out of the PW line before rewriting them to the victim line).
    foreign_scratch: Vec<UopCacheEntry>,
    /// Reusable scratch of set indices probed by an SMC invalidation.
    probe_scratch: Vec<usize>,
}

impl std::fmt::Debug for UopCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UopCache")
            .field("cfg", &self.cfg)
            .field("resident_entries", &self.resident_entries())
            .finish()
    }
}

impl UopCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: UopCacheConfig) -> Self {
        cfg.validate();
        let line_slots = cfg.max_entries_per_line as usize;
        let set_slots = cfg.ways * line_slots;
        UopCache {
            slots: SetSlots::new(cfg.sets, set_slots, EMPTY_SLOT),
            line_len: vec![0; cfg.sets * cfg.ways],
            repl: ReplacementState::new(cfg.replacement, cfg.sets, cfg.ways),
            summary: vec![SetSummary::default(); cfg.sets],
            starts: vec![0; cfg.sets * set_slots],
            line_slots,
            set_mask: cfg.sets - 1,
            stats: UopCacheStats::new(),
            valid_scratch: Vec::with_capacity(cfg.ways),
            order_scratch: Vec::with_capacity(cfg.ways),
            foreign_scratch: Vec::with_capacity(line_slots),
            probe_scratch: Vec::with_capacity(cfg.clasp_max_lines as usize + 1),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &UopCacheConfig {
        &self.cfg
    }

    /// Utilization statistics.
    pub fn stats(&self) -> &UopCacheStats {
        &self.stats
    }

    /// Mutable statistics access (warmup-boundary reset).
    pub fn stats_mut(&mut self) -> &mut UopCacheStats {
        &mut self.stats
    }

    fn set_of(&self, addr: Addr) -> usize {
        (addr.line().number() as usize) & self.set_mask
    }

    /// The index of `way` of set `si` in `line_len`.
    fn line_of(&self, si: usize, way: usize) -> usize {
        si * self.cfg.ways + way
    }

    /// The entries of `way` in set `si`, in insertion order.
    fn line(&self, si: usize, way: usize) -> &[UopCacheEntry] {
        let first = way * self.line_slots;
        let len = self.line_len[self.line_of(si, way)] as usize;
        &self.slots.set(si)[first..first + len]
    }

    /// The resident entries of set `si`, way by way.
    fn set_entries(&self, si: usize) -> impl Iterator<Item = &UopCacheEntry> {
        let (slots, line_slots) = (self.slots.set(si), self.line_slots);
        let lens = &self.line_len[self.line_of(si, 0)..][..self.cfg.ways];
        lens.iter().enumerate().flat_map(move |(way, &len)| {
            let first = way * line_slots;
            &slots[first..first + len as usize]
        })
    }

    /// The way of set `si` holding the entry that starts at `addr`, and
    /// that entry's slot within the set, via the start index.
    #[inline]
    fn find(&self, si: usize, addr: Addr) -> Option<(usize, usize)> {
        let first = self.line_of(si, 0);
        let starts = &self.starts[first * self.line_slots..][..self.cfg.ways * self.line_slots];
        let lens = &self.line_len[first..][..self.cfg.ways];
        let key = start_key(addr);
        // Free slots hold 0, which is also the key of the last byte of
        // the address space: a match counts only in a line's live prefix.
        let mut found = None;
        let mut from = 0;
        while let Some(i) = starts[from..].iter().position(|&s| s == key) {
            let p = from + i;
            let (way, slot) = (p / self.line_slots, p % self.line_slots);
            if slot < lens[way] as usize {
                found = Some((way, p));
                break;
            }
            from = p + 1;
        }
        debug_assert_eq!(
            found.is_some(),
            self.set_entries(si).any(|e| e.start == addr),
            "start index out of sync with line contents"
        );
        found
    }

    /// True if a resident entry of set `si` covers `addr` strictly inside
    /// its `[start, end)`. Plain loops: this runs on most misses, and the
    /// `set_entries` iterator chain measured 30–40% slower here.
    fn covers_interior(&self, si: usize, addr: Addr) -> bool {
        let a = addr.get();
        let slots = self.slots.set(si);
        let lens = &self.line_len[self.line_of(si, 0)..][..self.cfg.ways];
        for (way, &len) in lens.iter().enumerate() {
            let first = way * self.line_slots;
            for e in &slots[first..first + len as usize] {
                if e.start.get() < a && a < e.end.get() {
                    return true;
                }
            }
        }
        false
    }

    /// True if `entry` fits `way` of set `si`: byte budget and per-line
    /// entry bound.
    fn fits(&self, si: usize, way: usize, entry: &UopCacheEntry) -> bool {
        let entries = self.line(si, way);
        let used: u32 = entries.iter().map(UopCacheEntry::bytes).sum();
        entries.len() < self.line_slots
            && entry.bytes() <= self.cfg.entry_byte_budget().saturating_sub(used)
    }

    /// Appends `entry` to `way` of set `si` (the caller has checked
    /// [`Self::fits`] or emptied the line).
    ///
    /// # Panics
    ///
    /// Panics if the line is full or already holds an entry with the same
    /// start address.
    fn push(&mut self, si: usize, way: usize, entry: UopCacheEntry) {
        let line = self.line_of(si, way);
        let len = self.line_len[line] as usize;
        assert!(len < self.line_slots, "line {line} is full");
        assert!(
            self.line(si, way).iter().all(|e| e.start != entry.start),
            "duplicate entry start {}",
            entry.start
        );
        self.slots.set_mut(si)[way * self.line_slots + len] = entry;
        self.starts[line * self.line_slots + len] = start_key(entry.start);
        self.line_len[line] += 1;
    }

    /// Empties `way` of set `si` (whole-line eviction — the paper's
    /// fill-time victim semantics), returning how many entries it held.
    fn clear_line(&mut self, si: usize, way: usize) -> usize {
        let line = self.line_of(si, way);
        let len = std::mem::take(&mut self.line_len[line]) as usize;
        self.starts[line * self.line_slots..][..len].fill(0);
        len
    }

    /// Removes the entries of `way` in set `si` matching `pred`, handing
    /// each to `removed` and keeping the rest in order. Returns how many
    /// were removed.
    fn remove_from_line(
        &mut self,
        si: usize,
        way: usize,
        mut pred: impl FnMut(&UopCacheEntry) -> bool,
        mut removed: impl FnMut(UopCacheEntry),
    ) -> usize {
        let line = self.line_of(si, way);
        let len = self.line_len[line] as usize;
        if len == 0 {
            return 0;
        }
        let first = way * self.line_slots;
        let entries = &mut self.slots.set_mut(si)[first..first + len];
        let starts = &mut self.starts[line * self.line_slots..][..len];
        let mut kept = 0;
        for i in 0..len {
            let e = entries[i];
            if pred(&e) {
                removed(e);
            } else {
                entries[kept] = e;
                starts[kept] = start_key(e.start);
                kept += 1;
            }
        }
        starts[kept..].fill(0);
        self.line_len[line] = kept as u32;
        len - kept
    }

    /// Recomputes set `si`'s summary from its resident entries. Called on
    /// mutation (fills, invalidations) — rare next to lookups, and a set
    /// holds at most `ways × max_entries_per_line` entries.
    fn refresh_summary(&mut self, si: usize) {
        let mut s = SetSummary {
            entries: 0,
            min_start: u64::MAX,
            max_end: 0,
        };
        for e in self.set_entries(si) {
            s.entries += 1;
            s.min_start = s.min_start.min(e.start.get());
            s.max_end = s.max_end.max(e.end.get());
        }
        self.summary[si] = s;
    }

    /// Looks up an entry starting exactly at `addr`, updating replacement
    /// and hit statistics.
    pub fn lookup(&mut self, addr: Addr) -> Option<UopCacheEntry> {
        let si = self.set_of(addr);
        if let Some((way, slot)) = self.find(si, addr) {
            let e = self.slots.set(si)[slot];
            debug_assert_eq!(e.start, addr);
            self.repl.on_hit(si, way);
            self.stats.note_lookup(true, e.uops as u64);
            return Some(e);
        }
        // Interior-coverage diagnostic: only scan the set when the
        // summary says some resident entry could actually cover `addr`
        // (empty and disjoint sets — the overwhelmingly common miss —
        // skip the walk entirely).
        if !self.summary[si].rules_out_interior(addr.get()) && self.covers_interior(si, addr) {
            self.stats.note_interior_miss();
        }
        self.stats.note_lookup(false, 0);
        None
    }

    /// Read-only lookup: the entry starting exactly at `addr`, without
    /// touching replacement state or statistics. Diagnostics and
    /// external observers (metrics endpoints, tests) use this so
    /// inspecting the cache never perturbs the simulated replacement
    /// recency — and never needs exclusive access.
    pub fn lookup_ref(&self, addr: Addr) -> Option<&UopCacheEntry> {
        let si = self.set_of(addr);
        let (_, slot) = self.find(si, addr)?;
        Some(&self.slots.set(si)[slot])
    }

    /// Non-updating presence check.
    pub fn probe(&self, addr: Addr) -> bool {
        self.lookup_ref(addr).is_some()
    }

    /// Fills a completed entry, applying the configured compaction policy
    /// chain: F-PWAC → PWAC → RAC → plain whole-line allocation.
    pub fn fill(&mut self, entry: UopCacheEntry) -> FillOutcome {
        debug_assert!(entry.bytes() <= self.cfg.entry_byte_budget());
        let si = self.set_of(entry.start);

        // Duplicate suppression: a resident entry with the same start is
        // refreshed, not re-filled (the IC path can rebuild hot code while
        // an identical entry sits in the cache).
        if let Some((way, _)) = self.find(si, entry.start) {
            self.repl.on_hit(si, way);
            self.stats.note_duplicate_fill();
            return FillOutcome {
                placement: PlacementKind::NewLine,
                evicted: 0,
                duplicate: true,
            };
        }

        let policy = self.cfg.compaction;
        let outcome = if policy.enabled() {
            self.fill_compacting(si, entry, policy)
        } else {
            self.fill_new_line(si, entry)
        };
        self.refresh_summary(si);
        self.stats
            .note_fill(&entry, outcome.placement, outcome.evicted);
        outcome
    }

    /// Writes set `si`'s way-validity mask into the reusable scratch and
    /// hands it out; the caller gives it back by assigning
    /// `self.valid_scratch`.
    fn valid_ways(&mut self, si: usize) -> Vec<bool> {
        let mut valid = std::mem::take(&mut self.valid_scratch);
        valid.clear();
        let first = self.line_of(si, 0);
        valid.extend(
            self.line_len[first..first + self.cfg.ways]
                .iter()
                .map(|&n| n != 0),
        );
        valid
    }

    /// Chooses the replacement victim of set `si`, reusing the validity
    /// scratch buffer (no per-fill allocation).
    fn victim_of(&mut self, si: usize) -> usize {
        let valid = self.valid_ways(si);
        let way = self.repl.victim(si, &valid);
        self.valid_scratch = valid;
        way
    }

    /// The set's valid ways in recency order, written into the reusable
    /// order scratch. The caller must hand the buffer back by assigning
    /// `self.order_scratch` when done with it.
    fn recency_order_of(&mut self, si: usize) -> Vec<usize> {
        let valid = self.valid_ways(si);
        let mut order = std::mem::take(&mut self.order_scratch);
        self.repl.recency_order(si, &valid, &mut order);
        self.valid_scratch = valid;
        order
    }

    fn fill_new_line(&mut self, si: usize, entry: UopCacheEntry) -> FillOutcome {
        let way = self.victim_of(si);
        let evicted = self.clear_line(si, way);
        self.push(si, way, entry);
        self.repl.on_fill(si, way);
        FillOutcome {
            placement: PlacementKind::NewLine,
            evicted,
            duplicate: false,
        }
    }

    fn fill_compacting(
        &mut self,
        si: usize,
        entry: UopCacheEntry,
        policy: CompactionPolicy,
    ) -> FillOutcome {
        // --- PWAC: prefer the line already holding this entry's PW.
        if matches!(policy, CompactionPolicy::Pwac | CompactionPolicy::Fpwac) {
            let pw_way = (0..self.cfg.ways).find(|&way| {
                self.line(si, way)
                    .iter()
                    .any(|e| e.first_pw == entry.first_pw)
            });
            if let Some(way) = pw_way {
                if self.fits(si, way, &entry) {
                    self.push(si, way, entry);
                    self.repl.on_fill(si, way);
                    return FillOutcome {
                        placement: PlacementKind::Pwac,
                        evicted: 0,
                        duplicate: false,
                    };
                }
                // --- F-PWAC: the same-PW entry is compacted with foreign
                // entries and there is no room (paper Figure 14). Pull the
                // PW's entries together and move the foreigners to the LRU
                // victim line.
                if policy == CompactionPolicy::Fpwac {
                    if let Some(outcome) = self.forced_pwac(si, way, entry) {
                        return outcome;
                    }
                }
            }
        }

        // --- RAC: most-recently-used line with room (recency order).
        let order = self.recency_order_of(si);
        let target = order
            .iter()
            .copied()
            .find(|&way| self.fits(si, way, &entry));
        self.order_scratch = order;
        if let Some(way) = target {
            self.push(si, way, entry);
            self.repl.on_fill(si, way);
            return FillOutcome {
                placement: PlacementKind::Rac,
                evicted: 0,
                duplicate: false,
            };
        }

        // --- Fall back: own line.
        self.fill_new_line(si, entry)
    }

    /// The forced F-PWAC move. Returns `None` when the united same-PW
    /// entries would not fit one line (fall back to RAC).
    fn forced_pwac(
        &mut self,
        si: usize,
        pw_way: usize,
        entry: UopCacheEntry,
    ) -> Option<FillOutcome> {
        let pw = entry.first_pw;
        let same = self.line(si, pw_way).iter().filter(|e| e.first_pw == pw);
        let same_bytes: u32 = same.clone().map(UopCacheEntry::bytes).sum();
        let same_count = same.count();
        if same_bytes + entry.bytes() > self.cfg.entry_byte_budget()
            || same_count + 1 > self.line_slots
        {
            return None;
        }

        // Split the line: same-PW entries stay, foreigners move out
        // through the reusable scratch buffer (forced moves recur in
        // steady state, so this path must not allocate).
        let mut foreign = std::mem::take(&mut self.foreign_scratch);
        foreign.clear();
        self.remove_from_line(si, pw_way, |e| e.first_pw != pw, |e| foreign.push(e));
        self.push(si, pw_way, entry);
        self.repl.on_fill(si, pw_way);

        let mut evicted = 0;
        if !foreign.is_empty() {
            // Foreign entries are rewritten to the current LRU line (paper:
            // "written to the LRU line after the victim entries are
            // evicted"), whose replacement state is then refreshed.
            let vway = self.victim_of(si);
            debug_assert_ne!(vway, pw_way, "pw line just became MRU");
            evicted = self.clear_line(si, vway);
            for f in foreign.drain(..) {
                self.push(si, vway, f);
            }
            self.repl.on_fill(si, vway);
        }
        self.foreign_scratch = foreign;
        self.stats.note_forced_move();
        Some(FillOutcome {
            placement: PlacementKind::Fpwac,
            evicted,
            duplicate: false,
        })
    }

    /// Self-modifying-code invalidation probe for one I-cache line: drops
    /// every entry whose covered bytes overlap `line`. The probe also
    /// searches the sets of preceding lines, because an entry starting in
    /// an earlier line can extend into `line`: one line back in the
    /// baseline (a boundary-crossing x86 instruction spills its bytes),
    /// `clasp_max_lines` back with CLASP (paper Section V-A). Returns the
    /// number of entries invalidated.
    pub fn invalidate_icache_line(&mut self, line: LineAddr) -> usize {
        let mut removed = 0;
        let depth = if self.cfg.clasp {
            self.cfg.clasp_max_lines as u64
        } else {
            1
        };
        let mut probe_sets = std::mem::take(&mut self.probe_scratch);
        probe_sets.clear();
        for back in 0..=depth {
            let l = LineAddr::from_line_number(line.number().saturating_sub(back));
            let si = (l.number() as usize) & self.set_mask;
            if !probe_sets.contains(&si) {
                probe_sets.push(si);
            }
        }
        for &si in &probe_sets {
            let before = removed;
            for way in 0..self.cfg.ways {
                removed += self.remove_from_line(si, way, |e| e.overlaps_line(line), drop);
            }
            if removed != before {
                self.refresh_summary(si);
            }
        }
        self.probe_scratch = probe_sets;
        self.stats.note_invalidation(removed as u64);
        removed
    }

    /// Flushes the whole cache (used between experiment phases/tests).
    pub fn flush_all(&mut self) {
        self.line_len.fill(0);
        self.starts.fill(0);
        self.summary.fill(SetSummary::default());
    }

    /// Total resident entries.
    pub fn resident_entries(&self) -> usize {
        self.line_len.iter().map(|&n| n as usize).sum()
    }

    /// Total resident uops.
    pub fn resident_uops(&self) -> u64 {
        self.iter_entries().map(|e| e.uops as u64).sum()
    }

    /// Number of valid (non-empty) physical lines.
    pub fn valid_lines(&self) -> usize {
        self.line_len.iter().filter(|&&n| n != 0).count()
    }

    /// Number of valid lines holding ≥ 2 compacted entries (Figure 18's
    /// structural view).
    pub fn compacted_lines(&self) -> usize {
        self.line_len.iter().filter(|&&n| n >= 2).count()
    }

    /// Iterates over all resident entries, set by set and way by way
    /// (diagnostics).
    pub fn iter_entries(&self) -> impl Iterator<Item = &UopCacheEntry> {
        (0..self.cfg.sets).flat_map(move |si| self.set_entries(si))
    }

    /// Returns `(total_code_bytes, unique_code_bytes)` over all resident
    /// entries — a duplication diagnostic: total > unique means the same
    /// instruction bytes are cached in multiple overlapping entries
    /// (multi-entry-point code, paper Section II-B4).
    pub fn coverage(&self) -> (u64, u64) {
        let mut ranges: Vec<(u64, u64)> = self
            .iter_entries()
            .map(|e| (e.start.get(), e.end.get()))
            .collect();
        let total: u64 = ranges.iter().map(|(s, e)| e - s).sum();
        ranges.sort_unstable();
        let mut unique = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in ranges {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    unique += ce - cs;
                    cur = Some((s, e));
                    let _ = cs;
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            unique += ce - cs;
        }
        (total, unique)
    }

    /// The set index an address maps to (exposed for tests/diagnostics).
    pub fn set_index_of(&self, addr: Addr) -> usize {
        self.set_of(addr)
    }

    /// Looks up any resident entry tagged with `pw` in the set of `addr`
    /// (diagnostics for PWAC tests).
    pub fn has_pw_in_set(&self, addr: Addr, pw: PwId) -> bool {
        self.set_entries(self.set_of(addr))
            .any(|e| e.first_pw == pw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_at(start: u64, uops: u32, pw: u64) -> UopCacheEntry {
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

    #[test]
    fn invalidation_reaches_the_last_line_of_the_address_space() {
        let mut oc = baseline();
        let e = UopCacheEntry {
            start: Addr::new(u64::MAX - 15),
            end: Addr::new(u64::MAX - 7),
            ..entry_at(0, 2, 0)
        };
        oc.fill(e);
        assert_eq!(oc.lookup(e.start), Some(e));
        assert_eq!(oc.invalidate_icache_line(Addr::new(u64::MAX).line()), 1);
        assert!(oc.lookup(e.start).is_none());
    }

    fn baseline() -> UopCache {
        UopCache::new(UopCacheConfig::baseline_2k())
    }

    fn compacting(policy: CompactionPolicy) -> UopCache {
        UopCache::new(UopCacheConfig::baseline_2k().with_compaction(policy, 2))
    }

    #[test]
    fn fill_lookup_roundtrip() {
        let mut oc = baseline();
        let e = entry_at(0x1008, 4, 0);
        oc.fill(e);
        assert_eq!(oc.lookup(Addr::new(0x1008)), Some(e));
        assert!(oc.lookup(Addr::new(0x1000)).is_none());
        assert_eq!(oc.stats().lookups, 2);
        assert_eq!(oc.stats().hits, 1);
    }

    #[test]
    fn same_icache_line_same_set() {
        let oc = baseline();
        // Any two byte addresses in one I-cache line map to one set (the
        // SMC single-probe invariant, paper Section II-B4).
        assert_eq!(
            oc.set_index_of(Addr::new(0x1000)),
            oc.set_index_of(Addr::new(0x103f))
        );
        assert_ne!(
            oc.set_index_of(Addr::new(0x1000)),
            oc.set_index_of(Addr::new(0x1040))
        );
    }

    #[test]
    fn duplicate_fill_is_suppressed() {
        let mut oc = baseline();
        oc.fill(entry_at(0x1000, 4, 0));
        let out = oc.fill(entry_at(0x1000, 4, 0));
        assert!(out.duplicate);
        assert_eq!(oc.resident_entries(), 1);
        assert_eq!(oc.stats().duplicate_fills, 1);
    }

    #[test]
    fn conflict_evicts_lru_whole_line() {
        let mut oc = baseline(); // 32 sets, 8 ways
                                 // 9 entries in distinct I-cache lines mapping to set of 0x1000:
                                 // lines 0x40, 0x60, 0x80... step 32 lines (0x800 bytes).
        for i in 0..9u64 {
            oc.fill(entry_at(0x1000 + i * 0x800, 4, i));
        }
        // The first-filled entry is the LRU victim.
        assert!(!oc.probe(Addr::new(0x1000)));
        assert!(oc.probe(Addr::new(0x1800)));
        assert_eq!(oc.resident_entries(), 8);
    }

    #[test]
    fn baseline_never_compacts() {
        let mut oc = baseline();
        oc.fill(entry_at(0x1000, 2, 0));
        oc.fill(entry_at(0x1010, 2, 0)); // same set, small entries
        assert_eq!(oc.compacted_lines(), 0);
        assert_eq!(oc.resident_entries(), 2);
        assert_eq!(oc.valid_lines(), 2);
    }

    #[test]
    fn rac_compacts_into_mru_line() {
        let mut oc = compacting(CompactionPolicy::Rac);
        let a = entry_at(0x1000, 4, 1); // 28 B
        let b = entry_at(0x1010, 4, 2); // 28 B → fits alongside a (56 ≤ 62)
        oc.fill(a);
        let out = oc.fill(b);
        assert_eq!(out.placement, PlacementKind::Rac);
        assert_eq!(oc.valid_lines(), 1);
        assert_eq!(oc.compacted_lines(), 1);
        assert_eq!(oc.lookup(Addr::new(0x1000)), Some(a));
        assert_eq!(oc.lookup(Addr::new(0x1010)), Some(b));
    }

    #[test]
    fn rac_respects_byte_budget() {
        let mut oc = compacting(CompactionPolicy::Rac);
        oc.fill(entry_at(0x1000, 6, 1)); // 42 B
        let out = oc.fill(entry_at(0x1010, 4, 2)); // 28 B → 70 > 62
        assert_eq!(out.placement, PlacementKind::NewLine);
        assert_eq!(oc.valid_lines(), 2);
    }

    #[test]
    fn pwac_prefers_same_pw_line() {
        let mut oc = compacting(CompactionPolicy::Pwac);
        // Three small entries: PW 7, PW 9, then another PW 9. RAC would
        // put the third with the MRU (PW 9's line only if MRU) — make PW 7
        // the MRU by touching it, then check PWAC still unites PW 9.
        oc.fill(entry_at(0x1000, 2, 7)); // line A
        oc.fill(entry_at(0x1008, 2, 9)); // compacted into A (RAC, MRU)...
                                         // Force separation: fill something big under PW 9 that cannot fit
                                         // line A.
        let mut oc = compacting(CompactionPolicy::Pwac);
        oc.fill(entry_at(0x1000, 6, 7)); // line A: 42 B
        oc.fill(entry_at(0x1010, 6, 9)); // line B: 42 B (can't fit A)
        oc.lookup(Addr::new(0x1000)); // make line A MRU
        let out = oc.fill(entry_at(0x1020, 2, 9)); // 14 B: fits either
        assert_eq!(out.placement, PlacementKind::Pwac, "must pick PW 9's line");
        // Verify co-residency: the PW-9 line holds both PW-9 entries.
        let si = oc.set_index_of(Addr::new(0x1020));
        let _ = si;
        assert!(oc.has_pw_in_set(Addr::new(0x1020), PwId(9)));
        assert_eq!(oc.valid_lines(), 2);
    }

    #[test]
    fn fpwac_forces_reunion() {
        let mut oc = compacting(CompactionPolicy::Fpwac);
        // Figure 14 scenario: PWA + PWB1 compacted in one line; PWB2
        // arrives and cannot fit; F-PWAC moves PWA out and unites PWB1+2.
        let pwa = entry_at(0x1000, 4, 100); // 28 B
        let pwb1 = entry_at(0x1010, 4, 200); // 28 B → compacted with PWA
        oc.fill(pwa);
        let o1 = oc.fill(pwb1);
        assert_ne!(o1.placement, PlacementKind::NewLine);
        let pwb2 = entry_at(0x1020, 4, 200); // 28 B: line is 56/62 → no room
        let out = oc.fill(pwb2);
        assert_eq!(out.placement, PlacementKind::Fpwac);
        // All three remain resident: PWB1+PWB2 together, PWA relocated.
        assert!(oc.probe(Addr::new(0x1000)));
        assert!(oc.probe(Addr::new(0x1010)));
        assert!(oc.probe(Addr::new(0x1020)));
        assert_eq!(oc.stats().forced_moves, 1);
        assert_eq!(oc.valid_lines(), 2);
    }

    #[test]
    fn fpwac_falls_back_when_union_too_big() {
        let mut oc = compacting(CompactionPolicy::Fpwac);
        let pwa = entry_at(0x1000, 2, 100); // 14 B
        let pwb1 = entry_at(0x1010, 6, 200); // 42 B → compacted (56/62)
        oc.fill(pwa);
        oc.fill(pwb1);
        let pwb2 = entry_at(0x1020, 6, 200); // 42 B: union 84 > 62
        let out = oc.fill(pwb2);
        assert_ne!(out.placement, PlacementKind::Fpwac);
        assert!(oc.probe(Addr::new(0x1020)));
    }

    #[test]
    fn invalidation_drops_overlapping_entries() {
        let mut oc = baseline();
        oc.fill(entry_at(0x1000, 4, 0)); // line 0x40
        oc.fill(entry_at(0x1040, 4, 1)); // line 0x41
        let n = oc.invalidate_icache_line(Addr::new(0x1000).line());
        assert_eq!(n, 1);
        assert!(!oc.probe(Addr::new(0x1000)));
        assert!(oc.probe(Addr::new(0x1040)));
    }

    #[test]
    fn clasp_invalidation_probes_previous_set() {
        let mut cfg = UopCacheConfig::baseline_2k().with_clasp();
        cfg.compaction = CompactionPolicy::None;
        let mut oc = UopCache::new(cfg);
        // A CLASP entry starting in line 0x40 spanning into line 0x41:
        let mut e = entry_at(0x1030, 8, 0);
        e.end = Addr::new(0x1050);
        oc.fill(e);
        // SMC write to line 0x41 must find and kill it via the prev-set
        // probe.
        let n = oc.invalidate_icache_line(Addr::new(0x1040).line());
        assert_eq!(n, 1);
        assert!(!oc.probe(Addr::new(0x1030)));
    }

    #[test]
    fn flush_all_empties() {
        let mut oc = baseline();
        oc.fill(entry_at(0x1000, 4, 0));
        oc.flush_all();
        assert_eq!(oc.resident_entries(), 0);
        assert_eq!(oc.resident_uops(), 0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut oc = baseline();
        // Fill far beyond capacity with unique max-size entries.
        for i in 0..2000u64 {
            oc.fill(entry_at(0x10_0000 + i * 64, 8, i));
        }
        assert!(oc.resident_uops() <= oc.config().capacity_uops() as u64);
        assert_eq!(oc.valid_lines(), 32 * 8);
    }

    #[test]
    fn line_entry_bound_enforced() {
        let mut oc = compacting(CompactionPolicy::Rac);
        // Three 7-byte entries of one set: bytes allow all three in one
        // line, the two-entry bound does not.
        for i in 0..3u64 {
            oc.fill(entry_at(0x1000 + i * 0x800, 1, i));
        }
        assert_eq!(oc.resident_entries(), 3);
        assert_eq!(oc.valid_lines(), 2);
        assert_eq!(oc.compacted_lines(), 1);
    }

    #[test]
    fn invalidation_keeps_line_survivors_in_order() {
        let mut cfg = UopCacheConfig::baseline_2k().with_compaction(CompactionPolicy::Rac, 3);
        cfg.clasp = false;
        let mut oc = UopCache::new(cfg);
        // Three entries from three I-cache lines of one set, compacted
        // into one physical line.
        let entries = [0x1000, 0x1800, 0x2000].map(|a| entry_at(a, 2, a));
        for e in entries {
            oc.fill(e);
        }
        assert_eq!(oc.valid_lines(), 1);
        assert_eq!(oc.invalidate_icache_line(Addr::new(0x1800).line()), 1);
        let left: Vec<_> = oc.iter_entries().copied().collect();
        assert_eq!(left, [entries[0], entries[2]]);
        assert_eq!(oc.lookup(Addr::new(0x2000)), Some(entries[2]));
        assert!(oc.lookup(Addr::new(0x1800)).is_none());
        // The freed slot takes a new entry.
        oc.fill(entry_at(0x2800, 2, 9));
        assert_eq!(oc.valid_lines(), 1);
        assert_eq!(oc.resident_entries(), 3);
    }

    #[test]
    fn free_slots_never_match_the_last_address() {
        // Free slots hold key 0, the key of address u64::MAX.
        let mut oc = compacting(CompactionPolicy::Rac);
        let top = Addr::new(u64::MAX);
        oc.fill(entry_at(0x7c0, 2, 0)); // the same set as `top`
        assert_eq!(oc.set_index_of(top), oc.set_index_of(Addr::new(0x7c0)));
        assert!(oc.lookup(top).is_none());
        let mut e = entry_at(0, 2, 1);
        (e.start, e.end) = (top, top);
        oc.fill(e);
        assert_eq!(oc.lookup(top), Some(e));
        assert_eq!(oc.resident_entries(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate entry start")]
    fn push_rejects_duplicate_start() {
        let mut oc = compacting(CompactionPolicy::Rac);
        oc.push(0, 0, entry_at(0x1000, 2, 0));
        oc.push(0, 0, entry_at(0x1000, 3, 1));
    }

    #[test]
    #[should_panic(expected = "is full")]
    fn push_rejects_a_full_line() {
        let mut oc = baseline();
        oc.push(0, 0, entry_at(0x1000, 2, 0));
        oc.push(0, 0, entry_at(0x1010, 2, 0));
    }

    #[test]
    fn unfilled_sets_read_empty() {
        let oc = UopCache::new(UopCacheConfig::baseline_with_capacity(65536));
        assert_eq!(oc.resident_entries(), 0);
        assert!(oc.lookup_ref(Addr::new(0x1000)).is_none());
        let mut oc = oc;
        oc.fill(entry_at(0x1000, 4, 0));
        let si = oc.set_index_of(Addr::new(0x1000));
        assert_eq!(oc.line(si, 0).len(), 1);
        assert!(oc.line(si + 1, 0).is_empty());
    }
}
