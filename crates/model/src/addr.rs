//! Physical addresses and I-cache line arithmetic.
//!
//! The paper's uop cache entry construction is defined in terms of 64-byte
//! I-cache line boundaries (Section II-B2), so line arithmetic shows up in
//! nearly every crate. [`Addr`] is a byte-granular physical address;
//! [`LineAddr`] is an address normalized to its 64-byte line.

use std::fmt;

use crate::{FromJson, ToJson};

/// Number of bytes in an I-cache line (and a uop cache physical line).
pub const ICACHE_LINE_BYTES: u64 = 64;

/// `log2(ICACHE_LINE_BYTES)`.
pub const ICACHE_LINE_SHIFT: u32 = 6;

/// A byte-granular physical address.
///
/// Newtype over `u64` so instruction addresses, data addresses and line
/// numbers cannot be confused (C-NEWTYPE).
///
/// # Example
///
/// ```
/// use ucsim_model::Addr;
/// let a = Addr::new(0x1000).offset(70);
/// assert_eq!(a.get(), 0x1046);
/// assert_eq!(a.line_offset(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, ToJson, FromJson)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the 64-byte I-cache line this byte falls in.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> ICACHE_LINE_SHIFT)
    }

    /// Byte offset within the containing I-cache line (`0..64`).
    pub const fn line_offset(self) -> u64 {
        self.0 & (ICACHE_LINE_BYTES - 1)
    }

    /// The address advanced by `bytes`.
    pub const fn offset(self, bytes: u64) -> Self {
        Addr(self.0.wrapping_add(bytes))
    }

    /// Distance in bytes from `origin` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `origin > self`.
    pub fn distance_from(self, origin: Addr) -> u64 {
        debug_assert!(origin.0 <= self.0, "distance_from: origin after self");
        self.0.wrapping_sub(origin.0)
    }

    /// True if `self` and `other` fall in the same I-cache line.
    pub const fn same_line(self, other: Addr) -> bool {
        self.line().0 == other.line().0
    }

    /// First byte of the next I-cache line after this address.
    pub const fn next_line_start(self) -> Addr {
        Addr((self.0 | (ICACHE_LINE_BYTES - 1)) + 1)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A 64-byte-line-granular address (an I-cache line number).
///
/// # Example
///
/// ```
/// use ucsim_model::{Addr, LineAddr};
/// let l: LineAddr = Addr::new(0x1046).line();
/// assert_eq!(l.base(), Addr::new(0x1040));
/// assert_eq!(l.next().base(), Addr::new(0x1080));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, ToJson, FromJson)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number (byte address >> 6).
    pub const fn from_line_number(n: u64) -> Self {
        LineAddr(n)
    }

    /// The raw line number.
    pub const fn number(self) -> u64 {
        self.0
    }

    /// First byte address of the line.
    pub const fn base(self) -> Addr {
        Addr(self.0 << ICACHE_LINE_SHIFT)
    }

    /// Last byte address of the line. Unlike [`Self::end`] it does not
    /// wrap for the last line of the address space.
    pub const fn last(self) -> Addr {
        Addr((self.0 << ICACHE_LINE_SHIFT) | (ICACHE_LINE_BYTES - 1))
    }

    /// One past the last byte address of the line; wraps to 0 for the
    /// last line of the address space.
    pub const fn end(self) -> Addr {
        Addr((self.0 + 1) << ICACHE_LINE_SHIFT)
    }

    /// The immediately following line.
    pub const fn next(self) -> LineAddr {
        LineAddr(self.0 + 1)
    }

    /// The immediately preceding line, saturating at line zero.
    pub const fn prev(self) -> LineAddr {
        LineAddr(self.0.saturating_sub(1))
    }

    /// True if byte address `a` falls inside this line.
    pub const fn contains(self, a: Addr) -> bool {
        a.line().0 == self.0
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl From<Addr> for LineAddr {
    fn from(a: Addr) -> Self {
        a.line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_offset_and_base() {
        let a = Addr::new(0x40_0123);
        assert_eq!(a.line_offset(), 0x23);
        assert_eq!(a.line().base(), Addr::new(0x40_0100));
        assert_eq!(a.line().end(), Addr::new(0x40_0140));
        assert_eq!(a.line().last(), Addr::new(0x40_013f));
        assert_eq!(Addr::new(u64::MAX).line().last(), Addr::new(u64::MAX));
    }

    #[test]
    fn same_line_detection() {
        let a = Addr::new(0x1000);
        assert!(a.same_line(Addr::new(0x103f)));
        assert!(!a.same_line(Addr::new(0x1040)));
    }

    #[test]
    fn next_line_start_at_boundary() {
        // An address exactly on a boundary advances to the *next* line.
        assert_eq!(Addr::new(0x1040).next_line_start(), Addr::new(0x1080));
        assert_eq!(Addr::new(0x1041).next_line_start(), Addr::new(0x1080));
        assert_eq!(Addr::new(0x107f).next_line_start(), Addr::new(0x1080));
    }

    #[test]
    fn line_neighbours() {
        let l = Addr::new(0x2000).line();
        assert_eq!(l.next().prev(), l);
        assert_eq!(LineAddr::from_line_number(0).prev().number(), 0);
    }

    #[test]
    fn distance() {
        assert_eq!(Addr::new(0x105).distance_from(Addr::new(0x100)), 5);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(0xdead).to_string(), "0xdead");
        assert_eq!(Addr::new(0x40).line().to_string(), "L0x1");
    }

    #[test]
    fn contains_line() {
        let l = Addr::new(0x1040).line();
        assert!(l.contains(Addr::new(0x1040)));
        assert!(l.contains(Addr::new(0x107f)));
        assert!(!l.contains(Addr::new(0x1080)));
        assert!(!l.contains(Addr::new(0x103f)));
    }
}
