//! Set-major slot storage that is backed set by set on first write.

/// `per_set` slots for each of `sets` sets in one allocation, handed out
/// to sets as they are first written.
///
/// A set's slots are initialised (to the fill value) the first time it
/// is written, in first-write order, and unwritten sets read as `per_set`
/// copies of the fill value. The allocation grows with the sets written,
/// not with the configured capacity: it starts at `FIRST_BLOCKS` set
/// blocks and doubles whenever a newly written set does not fit, clamped
/// so a fully backed structure holds exactly the `(sets + 1) × per_set`
/// slots it needs. A short run over a large cache therefore pays, in
/// memory and in writes, only for the sets it uses. Offsets into the
/// slots are indices, so a grow that moves the slots leaves every set's
/// block valid. Once every set is backed, writes never allocate; before
/// that, a run of `n` first writes allocates `O(log n)` times.
///
/// # Example
///
/// ```
/// use ucsim_model::SetSlots;
/// let mut s = SetSlots::new(1024, 4, 0u64);
/// assert_eq!(s.set(7), &[0, 0, 0, 0]);
/// s.set_mut(7)[2] = 9;
/// assert_eq!(s.set(7), &[0, 0, 9, 0]);
/// assert_eq!(s.set(8), &[0, 0, 0, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct SetSlots<T> {
    /// Slot storage: a blank block of fill values first, then one block
    /// per written set.
    slots: Vec<T>,
    /// Offset of each set's block in `slots`; 0 (the blank block) until
    /// the set is first written.
    base: Vec<u32>,
    per_set: usize,
}

/// Set blocks (the blank block included) reserved by the first write.
const FIRST_BLOCKS: usize = 16;

impl<T: Copy> SetSlots<T> {
    /// Storage for `sets × per_set` slots, every one reading as `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `(sets + 1) × per_set` does not fit a `u32` offset.
    pub fn new(sets: usize, per_set: usize, fill: T) -> Self {
        let total = (sets + 1) * per_set;
        assert!(u32::try_from(total).is_ok(), "{total} slots overflow u32");
        SetSlots {
            slots: vec![fill; per_set],
            base: vec![0; sets],
            per_set,
        }
    }

    /// The `per_set` slots of `set`.
    #[inline]
    pub fn set(&self, set: usize) -> &[T] {
        let b = self.base[set] as usize;
        &self.slots[b..b + self.per_set]
    }

    /// The `per_set` slots of `set`, for writing; backs the set with its
    /// own block on first use, growing the storage if it is full.
    #[inline]
    pub fn set_mut(&mut self, set: usize) -> &mut [T] {
        if self.base[set] == 0 {
            self.back(set);
        }
        let b = self.base[set] as usize;
        &mut self.slots[b..b + self.per_set]
    }

    /// Slots allocated so far, backed or reserved for the next sets; at
    /// most `(sets + 1) × per_set`.
    pub fn reserved(&self) -> usize {
        self.slots.capacity()
    }

    /// Gives `set` a block of fill values at the end of `slots`.
    #[cold]
    fn back(&mut self, set: usize) {
        if self.slots.len() + self.per_set > self.slots.capacity() {
            let total = (self.base.len() + 1) * self.per_set;
            let want = (self.slots.capacity() * 2)
                .max(FIRST_BLOCKS * self.per_set)
                .min(total);
            self.slots.reserve_exact(want - self.slots.len());
        }
        self.base[set] = self.slots.len() as u32;
        self.slots.extend_from_within(..self.per_set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_sets_read_as_the_fill_value() {
        let mut s = SetSlots::new(8, 3, -1i32);
        s.set_mut(5)[1] = 4;
        for set in (0..8).filter(|&set| set != 5) {
            assert_eq!(s.set(set), &[-1; 3]);
        }
        assert_eq!(s.set(5), &[-1, 4, -1]);
    }

    #[test]
    fn written_sets_keep_their_contents_across_grows() {
        let sets = 1000;
        let mut s = SetSlots::new(sets, 3, -1i32);
        let mut caps = vec![s.slots.capacity()];
        for set in (0..sets).rev() {
            s.set_mut(set)[set % 3] = set as i32;
            if caps.last() != Some(&s.slots.capacity()) {
                caps.push(s.slots.capacity());
            }
        }
        assert!(caps.len() > 4, "too few grows: {caps:?}");
        for set in 0..sets {
            let mut want = [-1; 3];
            want[set % 3] = set as i32;
            assert_eq!(s.set(set), want);
        }
        // The blank block is never written.
        assert_eq!(&s.slots[..3], &[-1; 3]);
    }

    #[test]
    fn capacity_never_exceeds_a_full_structure() {
        for sets in [1, 2, 15, 16, 17, 100, 1 << 12] {
            let total = (sets + 1) * 5;
            let mut s = SetSlots::new(sets, 5, 0u8);
            for set in 0..sets {
                s.set_mut(set)[0] = 1;
                assert!(s.slots.capacity() <= total, "{sets} sets");
            }
            assert_eq!(s.slots.len(), total);
            assert_eq!(s.slots.capacity(), total, "{sets} sets: clamped");
            // A full structure writes without allocating.
            let before = s.slots.as_ptr();
            s.set_mut(0)[1] = 2;
            assert_eq!(s.slots.as_ptr(), before);
        }
    }

    #[test]
    fn unwritten_sets_touch_nothing() {
        let s = SetSlots::new(1 << 16, 16, 0u64);
        assert_eq!(s.slots.len(), 16);
        assert_eq!(s.slots.capacity(), 16);
        assert!(s.set(12345).iter().all(|&v| v == 0));
    }
}
