//! Differential test of `SetSlots`, the set-major storage behind the BTB
//! and the uop cache, against a plain `Vec` per set.
//!
//! `SetSlots` backs a set on its first write and grows its one
//! allocation as sets are backed, clamped to a full structure. The
//! reference fills every set up front, so any slot lost or misplaced by
//! a grow, any write that leaks into another set, and any unwritten set
//! that does not read as the fill value shows up as a difference.

use proptest::prelude::*;
use ucsim::model::SetSlots;

const FILL: u32 = 0xdead_beef;

/// Every set of `s` reads as in the reference.
fn agrees(s: &SetSlots<u32>, r: &[Vec<u32>]) -> Result<(), TestCaseError> {
    for (set, want) in r.iter().enumerate() {
        prop_assert_eq!(s.set(set), &want[..], "set {}", set);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random writes, reads, reads through `set_mut` and clones agree
    /// with the reference. Up to 600 sets and 1500 writes cross several
    /// grows; writing every set of each clone reaches the clamp.
    #[test]
    fn set_slots_match_a_vec_per_set(
        (sets, per_set) in (1usize..600, 1usize..6),
        ops in prop::collection::vec((0u8..8, any::<u64>(), any::<u32>()), 1..3000),
    ) {
        let full = (sets + 1) * per_set;
        let mut s = SetSlots::new(sets, per_set, FILL);
        let mut r = vec![vec![FILL; per_set]; sets];
        let mut clones = Vec::new();
        for (i, (op, at, v)) in ops.into_iter().enumerate() {
            let set = at as usize % sets;
            let slot = (at >> 32) as usize % per_set;
            match op {
                0..=3 => {
                    s.set_mut(set)[slot] = v;
                    r[set][slot] = v;
                }
                // Reads, of written and never-written sets alike.
                4 | 5 => prop_assert_eq!(s.set(set), &r[set][..], "op {}: set {}", i, set),
                // Backing a set without writing it changes nothing.
                6 => prop_assert_eq!(&*s.set_mut(set), &r[set][..], "op {}: set {}", i, set),
                _ if clones.len() < 4 => clones.push((s.clone(), r.clone())),
                _ => {}
            }
            prop_assert!(s.reserved() <= full, "op {}: {} > {} slots", i, s.reserved(), full);
        }
        agrees(&s, &r)?;

        // A clone is an independent copy: it reads as its snapshot, grows
        // to exactly a full structure when every set is written, and its
        // writes never reach the original.
        for (mut c, mut cr) in clones {
            agrees(&c, &cr)?;
            for set in (0..sets).rev() {
                c.set_mut(set)[set % per_set] ^= 1;
                cr[set][set % per_set] ^= 1;
            }
            prop_assert_eq!(c.reserved(), full);
            agrees(&c, &cr)?;
        }
        agrees(&s, &r)?;
    }
}
