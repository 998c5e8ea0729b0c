//! Uop cache entries.

use ucsim_model::{Addr, EntryTermination, LineAddr, PwId, IMM_DISP_BYTES, UOP_BYTES};
use ucsim_model::{FromJson, ToJson};

/// One uop cache entry: a run of decoded uops covering the instruction
/// bytes `[start, end)`, plus the metadata the tag array keeps (paper
/// Section II-B2 / Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub struct UopCacheEntry {
    /// Address of the first instruction byte covered.
    pub start: Addr,
    /// One past the last instruction byte covered.
    pub end: Addr,
    /// PW-ID tag for PWAC/F-PWAC (the PW active when the entry closed).
    pub pw_id: PwId,
    /// First PW that contributed instructions (PW ids are sequential, so
    /// `first_pw..=pw_id` is the covered PW range — Figure 12 statistic).
    pub first_pw: PwId,
    /// Number of uops stored.
    pub uops: u32,
    /// Number of 32-bit immediate/displacement fields stored.
    pub imm_disp: u32,
    /// Number of micro-coded instructions contained.
    pub ucoded_insts: u32,
    /// Number of x86 instructions covered.
    pub insts: u32,
    /// Why the entry terminated.
    pub term: EntryTermination,
    /// True if the entry ends in a branch that was predicted taken.
    pub ends_in_taken_branch: bool,
    /// Number of I-cache lines holding instruction *start* bytes (1 in
    /// the baseline; up to `clasp_max_lines` with CLASP). The final
    /// instruction's tail bytes may spill one line further — that spill
    /// does not count here (it is an I-cache artifact, not a CLASP merge)
    /// but is covered by [`Self::overlaps_line`] for invalidation.
    pub pc_lines: u32,
}

impl UopCacheEntry {
    /// Storage footprint in line bytes: uops on the left, imm/disp fields
    /// on the right of the line (paper Section II-B2).
    pub fn bytes(&self) -> u32 {
        self.uops * UOP_BYTES + self.imm_disp * IMM_DISP_BYTES
    }

    /// Instruction-byte length covered.
    pub fn code_bytes(&self) -> u64 {
        self.end.distance_from(self.start)
    }

    /// Number of I-cache lines the covered bytes touch (1 for baseline
    /// entries, up to `clasp_max_lines` with CLASP).
    pub fn lines_spanned(&self) -> u32 {
        if self.code_bytes() == 0 {
            return 1;
        }
        let first = self.start.line().number();
        let last = self.end.offset(u64::MAX).line().number(); // end-1
        (last - first + 1) as u32
    }

    /// True if the entry's covered bytes overlap the given I-cache line
    /// (used by SMC invalidation probes).
    pub fn overlaps_line(&self, line: LineAddr) -> bool {
        // Closed ranges of first and last bytes: neither side wraps for the
        // last line of the address space, where `end()` values do.
        let last = self.end.offset(u64::MAX);
        self.start.get() <= line.last().get() && last.get() >= line.base().get()
    }

    /// True if the entry holds instructions from more than one I-cache
    /// line — a CLASP merge (the Figure 9 statistic).
    pub fn spans_boundary(&self) -> bool {
        self.pc_lines > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(start: u64, end: u64, uops: u32, imm: u32) -> UopCacheEntry {
        UopCacheEntry {
            start: Addr::new(start),
            end: Addr::new(end),
            pw_id: PwId(0),
            first_pw: PwId(0),
            uops,
            imm_disp: imm,
            ucoded_insts: 0,
            insts: uops,
            term: EntryTermination::IcacheBoundary,
            ends_in_taken_branch: false,
            pc_lines: 1,
        }
    }

    #[test]
    fn byte_accounting() {
        assert_eq!(entry(0, 16, 4, 2).bytes(), 4 * 7 + 2 * 4);
        assert_eq!(entry(0, 16, 8, 0).bytes(), 56);
    }

    #[test]
    fn line_spanning() {
        assert_eq!(entry(0x1000, 0x1040, 8, 0).lines_spanned(), 1);
        assert_eq!(entry(0x1000, 0x1041, 8, 0).lines_spanned(), 2);
        assert_eq!(entry(0x103e, 0x1042, 2, 0).lines_spanned(), 2);
        // Boundary spanning is PC-attribution-based, not byte-based.
        assert!(!entry(0x1000, 0x1040, 8, 0).spans_boundary());
        assert!(!entry(0x103e, 0x1042, 2, 0).spans_boundary());
        let mut clasp = entry(0x1030, 0x1050, 6, 0);
        clasp.pc_lines = 2;
        assert!(clasp.spans_boundary());
    }

    #[test]
    fn overlap_probe() {
        let e = entry(0x1030, 0x1050, 6, 0); // spans lines 0x40 and 0x41
        assert!(e.overlaps_line(Addr::new(0x1000).line()));
        assert!(e.overlaps_line(Addr::new(0x1040).line()));
        assert!(!e.overlaps_line(Addr::new(0x1080).line()));
        assert!(!e.overlaps_line(Addr::new(0x0fc0).line()));
    }

    #[test]
    fn exact_line_end_does_not_overlap_next() {
        let e = entry(0x1000, 0x1040, 8, 0);
        assert!(!e.overlaps_line(Addr::new(0x1040).line()));
    }

    #[test]
    fn last_line_of_the_address_space_overlaps() {
        let top = Addr::new(u64::MAX).line();
        // Ends one byte short of the top, and ends at it (`end` wraps to 0).
        let inner = entry(u64::MAX - 15, u64::MAX - 7, 2, 0);
        let to_top = entry(u64::MAX - 7, 0, 2, 0);
        assert!(inner.overlaps_line(top));
        assert!(to_top.overlaps_line(top));
        assert!(!to_top.overlaps_line(top.prev()));
        assert!(!to_top.overlaps_line(Addr::new(0).line()));
    }
}
