//! Physical uop cache lines (possibly holding several compacted entries).

use ucsim_model::Addr;
use ucsim_model::{FromJson, ToJson};

use crate::{PlacementKind, UopCacheConfig, UopCacheEntry};

/// One physical 64-byte uop cache line.
///
/// In the baseline a line holds exactly one entry; with compaction it
/// holds up to `max_entries_per_line`, each remembered together with the
/// policy that placed it (the Figure 19 statistic). Replacement state is
/// per *line* regardless of how many entries it holds (paper Section V-B).
#[derive(Debug, Clone, Default, PartialEq, ToJson, FromJson)]
pub struct UopCacheLine {
    entries: Vec<(UopCacheEntry, PlacementKind)>,
}

impl UopCacheLine {
    /// An empty (invalid) line.
    pub fn new() -> Self {
        UopCacheLine::default()
    }

    /// An empty line with entry storage pre-sized to the per-line entry
    /// bound, so steady-state fills never grow the backing vector.
    pub fn with_entry_capacity(max_entries: usize) -> Self {
        UopCacheLine {
            entries: Vec::with_capacity(max_entries),
        }
    }

    /// True when the line holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of resident entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Bytes consumed by resident entries (excluding the ctr field, which
    /// the config accounts for in [`UopCacheConfig::entry_byte_budget`]).
    pub fn used_bytes(&self) -> u32 {
        self.entries.iter().map(|(e, _)| e.bytes()).sum()
    }

    /// Free bytes available for a further compacted entry.
    pub fn free_bytes(&self, cfg: &UopCacheConfig) -> u32 {
        cfg.entry_byte_budget().saturating_sub(self.used_bytes())
    }

    /// True if `entry` fits: byte budget and per-line entry bound.
    pub fn fits(&self, cfg: &UopCacheConfig, entry: &UopCacheEntry) -> bool {
        self.entry_count() < cfg.max_entries_per_line as usize
            && entry.bytes() <= self.free_bytes(cfg)
    }

    /// Adds an entry (caller must have checked [`Self::fits`]).
    ///
    /// # Panics
    ///
    /// Panics if an entry with the same start address is already resident.
    pub fn insert(&mut self, entry: UopCacheEntry, placement: PlacementKind) {
        assert!(
            self.entry_with_start(entry.start).is_none(),
            "duplicate entry start {}",
            entry.start
        );
        self.entries.push((entry, placement));
    }

    /// The resident entry at slot `i` (insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn entry_at(&self, i: usize) -> &UopCacheEntry {
        &self.entries[i].0
    }

    /// The resident entry starting exactly at `addr`, if any.
    pub fn entry_with_start(&self, addr: Addr) -> Option<&UopCacheEntry> {
        self.entries
            .iter()
            .find(|(e, _)| e.start == addr)
            .map(|(e, _)| e)
    }

    /// Iterates over resident entries.
    pub fn entries(&self) -> impl Iterator<Item = &UopCacheEntry> {
        self.entries.iter().map(|(e, _)| e)
    }

    /// Removes all entries (whole-line eviction — the paper's fill-time
    /// victim semantics), returning how many were resident. Allocation
    /// free: evictions happen on every conflicting fill in steady state,
    /// and no caller needs the displaced entries themselves.
    pub fn evict_all(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        n
    }

    /// Removes entries matching `pred`, appending them to `out` (a
    /// caller-owned scratch buffer, so the steady-state fill path never
    /// allocates) and returning how many were removed.
    pub fn remove_matching_into<F: FnMut(&UopCacheEntry) -> bool>(
        &mut self,
        mut pred: F,
        out: &mut Vec<UopCacheEntry>,
    ) -> usize {
        let before = out.len();
        self.entries.retain(|(e, _)| {
            if pred(e) {
                out.push(*e);
                false
            } else {
                true
            }
        });
        out.len() - before
    }

    /// Removes entries matching `pred`, returning only the count.
    pub fn remove_matching_count<F: FnMut(&UopCacheEntry) -> bool>(
        &mut self,
        mut pred: F,
    ) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(e, _)| !pred(e));
        before - self.entries.len()
    }

    /// True if any resident entry was created by the given PW (the PW-ID
    /// tag of PWAC/F-PWAC is the PW in which the entry *started*; a split
    /// PW's second entry often closes one or more sequential PWs later,
    /// so matching on the closing PW would never unite them).
    pub fn has_pw(&self, pw: ucsim_model::PwId) -> bool {
        self.entries.iter().any(|(e, _)| e.first_pw == pw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucsim_model::{EntryTermination, PwId};

    fn entry(start: u64, uops: u32) -> UopCacheEntry {
        UopCacheEntry {
            start: Addr::new(start),
            end: Addr::new(start + uops as u64 * 4),
            pw_id: PwId(1),
            first_pw: PwId(1),
            uops,
            imm_disp: 0,
            ucoded_insts: 0,
            insts: uops,
            term: EntryTermination::TakenBranch,
            ends_in_taken_branch: true,
            pc_lines: 1,
        }
    }

    fn cfg2() -> UopCacheConfig {
        let mut c = UopCacheConfig::baseline_2k();
        c.max_entries_per_line = 2;
        c
    }

    #[test]
    fn byte_budget_enforced() {
        let cfg = cfg2();
        let mut line = UopCacheLine::new();
        line.insert(entry(0x100, 5), PlacementKind::NewLine); // 35 B
        assert_eq!(line.used_bytes(), 35);
        assert_eq!(line.free_bytes(&cfg), 27);
        assert!(line.fits(&cfg, &entry(0x200, 3))); // 21 B
        assert!(!line.fits(&cfg, &entry(0x300, 4))); // 28 B > 27
    }

    #[test]
    fn entry_count_enforced() {
        let cfg = cfg2();
        let mut line = UopCacheLine::new();
        line.insert(entry(0x100, 2), PlacementKind::NewLine);
        line.insert(entry(0x200, 2), PlacementKind::Rac);
        assert!(!line.fits(&cfg, &entry(0x300, 1)), "max 2 entries");
    }

    #[test]
    fn lookup_by_start() {
        let mut line = UopCacheLine::new();
        line.insert(entry(0x100, 2), PlacementKind::NewLine);
        assert!(line.entry_with_start(Addr::new(0x100)).is_some());
        assert!(line.entry_with_start(Addr::new(0x104)).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate entry")]
    fn rejects_duplicate_start() {
        let mut line = UopCacheLine::new();
        line.insert(entry(0x100, 2), PlacementKind::NewLine);
        line.insert(entry(0x100, 3), PlacementKind::Rac);
    }

    #[test]
    fn evict_all_empties() {
        let mut line = UopCacheLine::new();
        line.insert(entry(0x100, 2), PlacementKind::NewLine);
        line.insert(entry(0x200, 2), PlacementKind::Pwac);
        assert_eq!(line.evict_all(), 2);
        assert!(line.is_empty());
    }

    #[test]
    fn remove_matching_filters() {
        let mut line = UopCacheLine::new();
        line.insert(entry(0x100, 2), PlacementKind::NewLine);
        let mut other = entry(0x200, 2);
        other.pw_id = PwId(9);
        other.first_pw = PwId(9);
        line.insert(other, PlacementKind::Rac);
        let mut removed = Vec::new();
        assert_eq!(
            line.remove_matching_into(|e| e.pw_id == PwId(9), &mut removed),
            1
        );
        assert_eq!(removed.len(), 1);
        assert_eq!(line.entry_count(), 1);
        assert!(line.has_pw(PwId(1)));
        assert!(!line.has_pw(PwId(9)));
    }
}
