//! Flat clause storage: a MiniSat-style arena.
//!
//! All clauses — original and learned — live in one contiguous `Vec<u32>` as
//! `[header | lits…]` records addressed by a [`ClauseRef`] (the word offset
//! of the header). BCP therefore touches one cache line per clause instead
//! of chasing `Vec<ClauseData>` → per-clause `Vec<Lit>` pointers, and
//! database reduction *compacts* the learned region (relocating the
//! survivors) instead of leaving tombstones the hot path must skip. BCP and
//! conflict analysis read a body as one slice of literal codes
//! ([`ClauseArena::lits`], [`ClauseArena::lits_mut`]): one bounds check per
//! clause, not one per literal.
//!
//! Record layout (all `u32` words):
//!
//! ```text
//! word 0   len << 3 | removed << 2 | deleted << 1 | learned
//! word 1   activity (times used as a conflict antecedent)
//! word 2   CDG pseudo-ID (original: input position; learned: assigned id)
//! word 3…  literal codes (Lit::code), len of them
//! ```
//!
//! The clauses present before the first learned record are never deleted
//! and never move. Every record from the first learned one on may move
//! during [`ClauseArena::compact_learned`]: learned records, and original
//! clauses added mid-session, which live interleaved with them (they are
//! never deleted, but they shift down with the survivors). The compaction
//! reports the relocation map, and the solver patches its `reasons`, its
//! original-clause references, and exactly the two watch entries of each
//! relocated clause in place.
//!
//! An original clause the caller removed (`Solver::remove_clause`) keeps its
//! record, flagged `removed`: it has no watch entries, but reasons, cores
//! and proof hints may still cite it.

use rbmc_cnf::Lit;

/// Reference to a stored clause: the word offset of its header.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct ClauseRef(u32);

impl ClauseRef {
    /// Re-creates a reference from a known-valid header offset (used when
    /// relocating references after compaction).
    #[inline]
    pub(crate) fn at(offset: u32) -> ClauseRef {
        ClauseRef(offset)
    }

    /// The arena word offset of the clause header.
    #[inline]
    pub(crate) fn offset(self) -> u32 {
        self.0
    }
}

const HEADER_WORDS: u32 = 3;
const LEARNED_BIT: u32 = 0b01;
const DELETED_BIT: u32 = 0b10;
const REMOVED_BIT: u32 = 0b100;
const LEN_SHIFT: u32 = 3;

/// The flat clause database.
#[derive(Debug, Default)]
pub(crate) struct ClauseArena {
    data: Vec<u32>,
}

impl ClauseArena {
    /// Creates an empty arena.
    pub(crate) fn new() -> ClauseArena {
        ClauseArena::default()
    }

    /// Appends a clause record and returns its reference.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learned: bool, cdg_id: u32) -> ClauseRef {
        let cref = ClauseRef(self.data.len() as u32);
        let flags = if learned { LEARNED_BIT } else { 0 };
        self.data.reserve(HEADER_WORDS as usize + lits.len());
        self.data.push((lits.len() as u32) << LEN_SHIFT | flags);
        self.data.push(0); // activity
        self.data.push(cdg_id);
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        cref
    }

    /// One-past-the-end offset (where the next record will be allocated).
    #[inline]
    pub(crate) fn end_offset(&self) -> u32 {
        self.data.len() as u32
    }

    /// Number of literals in the clause.
    #[inline]
    pub(crate) fn len(&self, c: ClauseRef) -> usize {
        (self.data[c.0 as usize] >> LEN_SHIFT) as usize
    }

    /// Whether the clause was learned (vs original).
    #[inline]
    pub(crate) fn is_learned(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize] & LEARNED_BIT != 0
    }

    /// Whether the clause is marked for deletion (transient: only between
    /// [`Self::mark_deleted`] and the next [`Self::compact_learned`]).
    #[inline]
    pub(crate) fn is_deleted(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize] & DELETED_BIT != 0
    }

    /// Marks the clause for deletion by the next compaction.
    #[inline]
    pub(crate) fn mark_deleted(&mut self, c: ClauseRef) {
        self.data[c.0 as usize] |= DELETED_BIT;
    }

    /// Whether the original clause was removed from BCP (permanent; the
    /// record and its body stay).
    #[inline]
    pub(crate) fn is_removed(&self, c: ClauseRef) -> bool {
        self.data[c.0 as usize] & REMOVED_BIT != 0
    }

    /// Flags the clause as removed from BCP.
    #[inline]
    pub(crate) fn mark_removed(&mut self, c: ClauseRef) {
        self.data[c.0 as usize] |= REMOVED_BIT;
    }

    /// The `i`-th literal of the clause.
    #[inline]
    pub(crate) fn lit(&self, c: ClauseRef, i: usize) -> Lit {
        Lit::from_code(self.data[(c.0 + HEADER_WORDS) as usize + i] as usize)
    }

    /// The clause body: its literal codes ([`Lit::code`]) in slot order.
    #[inline]
    pub(crate) fn lits(&self, c: ClauseRef) -> &[u32] {
        let base = (c.0 + HEADER_WORDS) as usize;
        &self.data[base..base + self.len(c)]
    }

    /// The clause body, mutably (BCP keeps the watched literals in slots 0
    /// and 1 by swapping them there).
    #[inline]
    pub(crate) fn lits_mut(&mut self, c: ClauseRef) -> &mut [u32] {
        let base = (c.0 + HEADER_WORDS) as usize;
        let len = self.len(c);
        &mut self.data[base..base + len]
    }

    /// Current activity counter of the clause.
    #[inline]
    pub(crate) fn activity(&self, c: ClauseRef) -> u32 {
        self.data[c.0 as usize + 1]
    }

    /// Sets the activity counter.
    #[inline]
    pub(crate) fn set_activity(&mut self, c: ClauseRef, value: u32) {
        self.data[c.0 as usize + 1] = value;
    }

    /// Increments the activity counter (saturating).
    #[inline]
    pub(crate) fn bump_activity(&mut self, c: ClauseRef) {
        let slot = &mut self.data[c.0 as usize + 1];
        *slot = slot.saturating_add(1);
    }

    /// The clause's CDG pseudo-ID (for originals, the input position).
    #[inline]
    pub(crate) fn cdg_id(&self, c: ClauseRef) -> u32 {
        self.data[c.0 as usize + 2]
    }

    /// Overwrites the clause's CDG pseudo-ID (CDG pruning renumbers nodes).
    #[inline]
    pub(crate) fn set_cdg_id(&mut self, c: ClauseRef, id: u32) {
        self.data[c.0 as usize + 2] = id;
    }

    /// The first clause record, if any.
    pub(crate) fn first(&self) -> Option<ClauseRef> {
        if self.data.is_empty() {
            None
        } else {
            Some(ClauseRef(0))
        }
    }

    /// The record following `c`, if any.
    pub(crate) fn next(&self, c: ClauseRef) -> Option<ClauseRef> {
        let next = c.0 + HEADER_WORDS + self.len(c) as u32;
        if next < self.data.len() as u32 {
            Some(ClauseRef(next))
        } else {
            None
        }
    }

    /// Removes the records marked deleted at or after `first_learned`,
    /// shifting the survivors down, and returns the relocation map
    /// `(old offset, new offset)` of the moved survivors in increasing old
    /// order (suitable for binary search).
    ///
    /// Records below `first_learned` never move; records from it on may,
    /// including original clauses added after the first learned one.
    pub(crate) fn compact_learned(&mut self, first_learned: u32) -> Vec<(u32, u32)> {
        let mut remap = Vec::new();
        let mut read = first_learned as usize;
        let mut write = first_learned as usize;
        let end = self.data.len();
        while read < end {
            let header = self.data[read];
            let record = HEADER_WORDS as usize + (header >> LEN_SHIFT) as usize;
            if header & DELETED_BIT == 0 {
                if read != write {
                    self.data.copy_within(read..read + record, write);
                    remap.push((read as u32, write as u32));
                }
                write += record;
            }
            read += record;
        }
        self.data.truncate(write);
        remap
    }

    /// Halves the activity of every record at or after `first_learned`
    /// (applied after each reduction so future reductions favour recent
    /// relevance).
    pub(crate) fn halve_learned_activities(&mut self, first_learned: u32) {
        let mut cursor = first_learned as usize;
        while cursor < self.data.len() {
            let len = (self.data[cursor] >> LEN_SHIFT) as usize;
            self.data[cursor + 1] /= 2;
            cursor += HEADER_WORDS as usize + len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_cnf::Var;

    fn lits(ns: &[i64]) -> Vec<Lit> {
        ns.iter().map(|&n| Lit::from_dimacs(n)).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut arena = ClauseArena::new();
        let a = arena.alloc(&lits(&[1, -2, 3]), false, 0);
        let b = arena.alloc(&lits(&[-1, 4]), true, 7);
        assert_eq!(arena.len(a), 3);
        assert_eq!(arena.lit(a, 1), Var::new(1).negative());
        assert!(!arena.is_learned(a));
        assert!(arena.is_learned(b));
        assert_eq!(arena.cdg_id(b), 7);
        assert_eq!(arena.first(), Some(a));
        assert_eq!(arena.next(a), Some(b));
        assert_eq!(arena.next(b), None);
    }

    #[test]
    fn swap_and_activity() {
        let mut arena = ClauseArena::new();
        let c = arena.alloc(&lits(&[1, 2, 3]), true, 0);
        arena.lits_mut(c).swap(0, 2);
        assert_eq!(arena.lit(c, 0), Lit::from_dimacs(3));
        assert_eq!(arena.lit(c, 2), Lit::from_dimacs(1));
        let codes: Vec<u32> = lits(&[3, 2, 1]).iter().map(|l| l.code() as u32).collect();
        assert_eq!(arena.lits(c), &codes[..]);
        arena.bump_activity(c);
        arena.bump_activity(c);
        assert_eq!(arena.activity(c), 2);
        arena.set_activity(c, 9);
        assert_eq!(arena.activity(c), 9);
    }

    #[test]
    fn compaction_relocates_survivors() {
        let mut arena = ClauseArena::new();
        let orig = arena.alloc(&lits(&[1, 2]), false, 0);
        let first_learned = arena.end_offset();
        let l1 = arena.alloc(&lits(&[3, 4, 5]), true, 1);
        let l2 = arena.alloc(&lits(&[-3, -4, -5]), true, 2);
        // An original added mid-session and since removed from BCP.
        let l3 = arena.alloc(&lits(&[1, 5]), false, 3);
        arena.mark_removed(l3);
        arena.mark_deleted(l1);
        let remap = arena.compact_learned(first_learned);
        // l2 and l3 shift down by one record; orig is untouched.
        assert_eq!(remap.len(), 2);
        assert_eq!(remap[0].0, l2.offset());
        assert_eq!(remap[1].0, l3.offset());
        let new_l2 = ClauseRef(remap[0].1);
        let new_l3 = ClauseRef(remap[1].1);
        assert_eq!(arena.lit(new_l2, 0), Lit::from_dimacs(-3));
        assert_eq!(arena.cdg_id(new_l2), 2);
        assert_eq!(arena.lit(new_l3, 1), Lit::from_dimacs(5));
        assert!(arena.is_removed(new_l3) && !arena.is_removed(new_l2));
        assert_eq!(arena.lit(orig, 0), Lit::from_dimacs(1));
        assert_eq!(arena.next(new_l3), None);
    }

    #[test]
    fn empty_records_iterate() {
        let mut arena = ClauseArena::new();
        let t = arena.alloc(&[], false, 0); // tautology / empty clause record
        let c = arena.alloc(&lits(&[1]), false, 1);
        assert_eq!(arena.len(t), 0);
        assert_eq!(arena.next(t), Some(c));
    }

    #[test]
    fn halving_applies_to_learned_region() {
        let mut arena = ClauseArena::new();
        arena.alloc(&lits(&[1, 2]), false, 0);
        let first_learned = arena.end_offset();
        let l = arena.alloc(&lits(&[3, 4]), true, 1);
        arena.set_activity(l, 9);
        arena.halve_learned_activities(first_learned);
        assert_eq!(arena.activity(l), 4);
    }
}
