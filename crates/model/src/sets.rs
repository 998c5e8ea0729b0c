//! Set-major slot storage that is backed set by set on first write.

/// `per_set` slots for each of `sets` sets in one allocation, handed out
/// to sets as they are first written.
///
/// The allocation is reserved whole at construction but left unwritten:
/// a set's slots are initialised (to the fill value) the first time it
/// is written, in first-write order. Building a structure therefore
/// costs two allocations (the slots and the per-set offsets) and writes
/// no slot memory in proportion to its capacity — a short run over a
/// large cache pays only for the sets it uses — and once every set is
/// backed, writes never allocate. Unwritten sets read as `per_set`
/// copies of the fill value.
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
#[derive(Debug)]
pub struct SetSlots<T> {
    /// Slot storage: a blank block of fill values first, then one block
    /// per written set. Capacity for every set is reserved up front.
    slots: Vec<T>,
    /// Offset of each set's block in `slots`; 0 (the blank block) until
    /// the set is first written.
    base: Vec<u32>,
    per_set: usize,
}

impl<T: Copy> SetSlots<T> {
    /// Storage for `sets × per_set` slots, every one reading as `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `(sets + 1) × per_set` does not fit a `u32` offset.
    pub fn new(sets: usize, per_set: usize, fill: T) -> Self {
        let total = (sets + 1) * per_set;
        assert!(u32::try_from(total).is_ok(), "{total} slots overflow u32");
        let mut slots = Vec::with_capacity(total);
        slots.resize(per_set, fill);
        SetSlots {
            slots,
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
    /// own block on first use (within the reserved capacity, so this
    /// never reallocates).
    #[inline]
    pub fn set_mut(&mut self, set: usize) -> &mut [T] {
        if self.base[set] == 0 {
            self.base[set] = self.slots.len() as u32;
            self.slots.extend_from_within(..self.per_set);
        }
        let b = self.base[set] as usize;
        &mut self.slots[b..b + self.per_set]
    }
}

/// Keeps the whole reservation: a derived clone would allocate only the
/// blocks already backed, and backing the next set would reallocate.
impl<T: Copy> Clone for SetSlots<T> {
    fn clone(&self) -> Self {
        let mut slots = Vec::with_capacity(self.slots.capacity());
        slots.extend_from_slice(&self.slots);
        SetSlots {
            slots,
            base: self.base.clone(),
            per_set: self.per_set,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_are_backed_independently_without_reallocating() {
        let mut s = SetSlots::new(8, 3, -1i32);
        let cap = s.slots.capacity();
        for set in (0..8).rev() {
            s.set_mut(set)[set % 3] = set as i32;
        }
        assert_eq!(s.slots.capacity(), cap, "backing a set reallocated");
        for set in 0..8 {
            let mut want = [-1; 3];
            want[set % 3] = set as i32;
            assert_eq!(s.set(set), want);
        }
        // The blank block is never written.
        assert_eq!(&s.slots[..3], &[-1; 3]);
    }

    #[test]
    fn a_clone_keeps_the_reservation() {
        let mut s = SetSlots::new(4, 2, 0u8);
        s.set_mut(1)[0] = 7;
        let mut c = s.clone();
        let cap = c.slots.capacity();
        for set in 0..4 {
            c.set_mut(set)[1] = 1;
        }
        assert_eq!(c.slots.capacity(), cap);
        assert_eq!(c.set(1), &[7, 1]);
        assert_eq!(s.set(1), &[7, 0]);
    }

    #[test]
    fn unwritten_sets_touch_nothing() {
        let s = SetSlots::new(1 << 16, 16, 0u64);
        assert_eq!(s.slots.len(), 16);
        assert!(s.set(12345).iter().all(|&v| v == 0));
    }
}
