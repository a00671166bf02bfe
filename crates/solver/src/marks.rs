//! Epoch-stamped marks over dense indices.
//!
//! A set that is emptied in O(1): each index carries the epoch that last
//! marked it, and starting a new set bumps the epoch. Traversals that run
//! many times over the same index space (core extraction over CDG nodes,
//! core variables over solver variables) reuse one table instead of
//! allocating and zeroing a fresh one per call. A stamp is one byte, as
//! the `bool` tables it replaces were, so the epoch wraps every 255 sets
//! and the wrap clears the table once.

/// A reusable set of indices, cleared by bumping an epoch.
#[derive(Clone, Debug, Default)]
pub(crate) struct Marks {
    /// `stamp[i] == epoch` means index `i` is in the current set.
    stamp: Vec<u8>,
    epoch: u8,
}

impl Marks {
    /// Empties the set and makes room for indices `0..len`.
    pub(crate) fn clear(&mut self, len: usize) {
        if self.stamp.len() < len {
            self.stamp.resize(len, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The epoch wrapped: forget every old stamp once.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Adds index `i`; returns whether it was new.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        fresh
    }

    /// Whether index `i` is in the set.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_forgets_and_grows() {
        let mut marks = Marks::default();
        marks.clear(3);
        assert!(marks.insert(1) && !marks.insert(1));
        assert!(marks.contains(1) && !marks.contains(0));
        marks.clear(5);
        assert!(!marks.contains(1));
        assert!(marks.insert(4) && marks.contains(4));
    }

    #[test]
    fn a_wrapped_epoch_forgets_old_marks() {
        let mut marks = Marks::default();
        marks.clear(2);
        marks.insert(0);
        // The 255th set after it wraps the one-byte epoch back to the
        // value that marked index 0.
        for _ in 0..255 {
            marks.clear(2);
            assert!(!marks.contains(0) && !marks.contains(1));
        }
    }
}
