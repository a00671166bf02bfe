//! The frame sequence `F_0 = I, F_1, …, F_K`: blocked-cube storage with
//! syntactic subsumption.
//!
//! A *cube* is a conjunction of register literals, stored as a sorted
//! `Vec<(latch_position, value)>` over the working model's
//! [`latches()`](rbmc_circuit::Netlist::latches) order. Blocking cube `c` at
//! level `j` adds the clause `¬c` to frames `F_1..=F_j`; the solver-side
//! encoding (one activation literal per level, clause asserted under
//! `act_j`) lives in the engine — this module tracks *which* cubes are
//! blocked *where*, which is what the convergence check, the push phase, and
//! the invariant extraction read, together with the solver ID of each
//! cube's clause, so the engine can remove every clause a newer one
//! supersedes. An index from latches to the cubes holding them gives each
//! query the lemmas its decision domain must include.

/// A conjunction of register literals: `(latch position, value)` pairs,
/// sorted by position, at most one literal per latch.
pub(crate) type Cube = Vec<(usize, bool)>;

/// Whether `a ⊆ b` as literal sets (then `¬a` subsumes `¬b`: blocking `a`
/// blocks every state of `b`). Both cubes must be sorted by latch position.
pub(crate) fn cube_subsumes(a: &Cube, b: &Cube) -> bool {
    let mut it = b.iter();
    'outer: for lit in a {
        for other in it.by_ref() {
            if other == lit {
                continue 'outer;
            }
            if other.0 > lit.0 {
                return false;
            }
        }
        return false;
    }
    true
}

/// A blocked cube: its level and the solver ID of its clause.
#[derive(Debug)]
struct Lemma {
    cube: Cube,
    level: usize,
    clause: usize,
}

/// Blocked cubes per frame level, each next to the solver ID of its clause,
/// and indexed by the latches they hold. A cube blocked at exactly level `j`
/// has its clause in `F_1..=F_j` but not `F_{j+1}`; level 0 is `I` and
/// never stores cubes.
#[derive(Debug)]
pub(crate) struct Frames {
    /// Every stored lemma by slot; a dropped lemma's slot is `None` until
    /// the next lemma takes it.
    lemmas: Vec<Option<Lemma>>,
    /// The free slots, taken before `lemmas` grows.
    free: Vec<usize>,
    /// `levels[j]`: the slots of the lemmas at exactly level `j`, in the
    /// order the push phase visits them.
    levels: Vec<Vec<usize>>,
    /// `occurrences[pos]`: the slots of the lemmas whose cube holds latch
    /// `pos`.
    occurrences: Vec<Vec<usize>>,
    /// [`Frames::connect`]'s marks: `latch_mark[pos] == epoch` and
    /// `lemma_mark[slot] == epoch` for what the current search reached.
    latch_mark: Vec<u32>,
    lemma_mark: Vec<u32>,
    epoch: u32,
}

impl Frames {
    /// Empty frames over `num_latches` latch positions.
    pub(crate) fn new(num_latches: usize) -> Frames {
        Frames {
            lemmas: Vec::new(),
            free: Vec::new(),
            levels: vec![Vec::new()],
            occurrences: vec![Vec::new(); num_latches],
            latch_mark: vec![0; num_latches],
            lemma_mark: Vec::new(),
            epoch: 0,
        }
    }

    fn lemma(&self, slot: usize) -> &Lemma {
        self.lemmas[slot]
            .as_ref()
            .expect("indexed slots hold lemmas")
    }

    /// Grows the level vector through `level`.
    pub(crate) fn ensure_level(&mut self, level: usize) {
        while self.levels.len() <= level {
            self.levels.push(Vec::new());
        }
    }

    /// The cubes blocked at exactly `level`.
    pub(crate) fn cubes_at(&self, level: usize) -> impl ExactSizeIterator<Item = &Cube> {
        self.levels[level]
            .iter()
            .map(|&slot| &self.lemma(slot).cube)
    }

    /// Whether `cube` (or a generalization of it) is already blocked at
    /// `level` — some stored cube at level `≥ level` subsumes it.
    pub(crate) fn is_blocked(&self, cube: &Cube, level: usize) -> bool {
        self.cubes_from(level).any(|c| cube_subsumes(c, cube))
    }

    /// Records `cube`, whose clause has solver ID `clause`, as blocked at
    /// `level`. Drops every stored cube at levels `≤ level` the new cube
    /// subsumes, so pushing and invariant extraction stay small, and returns
    /// the clause IDs of the dropped cubes: the new clause implies each of
    /// them wherever it is active, so the engine removes them from the
    /// solver.
    pub(crate) fn add(&mut self, level: usize, cube: Cube, clause: usize) -> Vec<usize> {
        self.ensure_level(level);
        let mut dropped = Vec::new();
        let lemmas = &self.lemmas;
        for stored in &mut self.levels[1..=level] {
            stored.retain(|&slot| {
                let subsumed = cube_subsumes(&cube, &lemmas[slot].as_ref().expect("stored").cube);
                if subsumed {
                    dropped.push(slot);
                }
                !subsumed
            });
        }
        let dropped = dropped.into_iter().map(|slot| self.release(slot)).collect();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.lemmas.push(None);
            self.lemma_mark.push(0);
            self.lemmas.len() - 1
        });
        for &(pos, _) in &cube {
            self.occurrences[pos].push(slot);
        }
        self.levels[level].push(slot);
        self.lemmas[slot] = Some(Lemma {
            cube,
            level,
            clause,
        });
        dropped
    }

    /// Frees the slot of a lemma already taken off its level, unindexes it,
    /// and returns its clause ID.
    fn release(&mut self, slot: usize) -> usize {
        let lemma = self.lemmas[slot]
            .take()
            .expect("released slots hold lemmas");
        for &(pos, _) in &lemma.cube {
            let list = &mut self.occurrences[pos];
            let at = list.iter().position(|&s| s == slot).expect("indexed");
            list.swap_remove(at);
        }
        self.free.push(slot);
        lemma.clause
    }

    /// Moves `cube` from `level` to `level + 1`, where its clause has solver
    /// ID `clause` (the push phase's UNSAT case). Returns the clause IDs the
    /// move supersedes — the level-`level` copy first, then those
    /// [`Frames::add`] drops — or `None` when the cube is no longer at
    /// `level`.
    pub(crate) fn push_up(
        &mut self,
        level: usize,
        cube: &Cube,
        clause: usize,
    ) -> Option<Vec<usize>> {
        let at = self.levels[level]
            .iter()
            .position(|&slot| self.lemma(slot).cube == *cube)?;
        let slot = self.levels[level].swap_remove(at);
        let mut superseded = vec![self.release(slot)];
        superseded.extend(self.add(level + 1, cube.clone(), clause));
        Some(superseded)
    }

    /// The cubes at every level `≥ level` — the clause set of `F_level`,
    /// which the invariant extractor negates.
    pub(crate) fn cubes_from(&self, level: usize) -> impl Iterator<Item = &Cube> {
        self.levels[level..]
            .iter()
            .flatten()
            .map(|&slot| &self.lemma(slot).cube)
    }

    /// Extends `latches` (positions) with the latches of every lemma at
    /// level `≥ level` that shares a latch with them, directly or through
    /// other such lemmas: the lemmas of `F_level` a query over `latches`
    /// can see. Only the lemmas on the way are visited, through the
    /// latch index.
    pub(crate) fn connect(&mut self, latches: &mut Vec<usize>, level: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.latch_mark.fill(0);
            self.lemma_mark.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        for &pos in latches.iter() {
            self.latch_mark[pos] = epoch;
        }
        let mut next = 0;
        while let Some(&pos) = latches.get(next) {
            next += 1;
            for &slot in &self.occurrences[pos] {
                let lemma = self.lemmas[slot]
                    .as_ref()
                    .expect("indexed slots hold lemmas");
                if lemma.level < level || self.lemma_mark[slot] == epoch {
                    continue;
                }
                self.lemma_mark[slot] = epoch;
                for &(other, _) in &lemma.cube {
                    if self.latch_mark[other] != epoch {
                        self.latch_mark[other] = epoch;
                        latches.push(other);
                    }
                }
            }
        }
    }

    /// The solver IDs of every stored cube's clause.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn clause_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.levels
            .iter()
            .flatten()
            .map(|&slot| self.lemma(slot).clause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsumption_is_subset_of_literals() {
        let small: Cube = vec![(1, true), (3, false)];
        let big: Cube = vec![(0, false), (1, true), (3, false), (4, true)];
        assert!(cube_subsumes(&small, &big));
        assert!(!cube_subsumes(&big, &small));
        // Same latch, different polarity: no subsumption.
        let flipped: Cube = vec![(1, false), (3, false)];
        assert!(!cube_subsumes(&flipped, &big));
        // Every cube subsumes itself; the empty cube subsumes everything.
        assert!(cube_subsumes(&big, &big));
        assert!(cube_subsumes(&Vec::new(), &small));
    }

    #[test]
    fn add_drops_subsumed_cubes_at_lower_levels() {
        let mut frames = Frames::new(5);
        assert!(frames.add(2, vec![(0, true), (1, false)], 10).is_empty());
        assert!(frames
            .add(1, vec![(0, true), (1, false), (2, true)], 11)
            .is_empty());
        assert_eq!(frames.clause_ids().collect::<Vec<_>>(), [11, 10]);
        // A more general cube at a higher level subsumes both, and their
        // clause IDs come back, lowest level first.
        assert_eq!(frames.add(3, vec![(0, true)], 12), [11, 10]);
        assert_eq!(frames.clause_ids().collect::<Vec<_>>(), [12]);
        assert_eq!(frames.cubes_at(3).len(), 1);
        // A cube at a lower level never drops one above it, even an equal
        // one.
        assert!(frames.add(1, vec![(0, true)], 13).is_empty());
        assert_eq!(frames.clause_ids().collect::<Vec<_>>(), [13, 12]);
    }

    #[test]
    fn is_blocked_looks_at_this_level_and_above() {
        let mut frames = Frames::new(5);
        frames.add(2, vec![(1, true)], 0);
        let state: Cube = vec![(0, false), (1, true)];
        assert!(frames.is_blocked(&state, 1));
        assert!(frames.is_blocked(&state, 2));
        frames.ensure_level(3);
        assert!(!frames.is_blocked(&state, 3));
    }

    #[test]
    fn push_up_moves_a_cube_one_level() {
        let mut frames = Frames::new(5);
        let cube: Cube = vec![(0, true)];
        frames.add(1, cube.clone(), 5);
        // A weaker cube at the target level, which the pushed one subsumes.
        frames.add(2, vec![(0, true), (3, false)], 6);
        // The level-1 copy's ID first, then the subsumed cube's.
        assert_eq!(frames.push_up(1, &cube, 7), Some(vec![5, 6]));
        assert_eq!(frames.cubes_at(1).len(), 0);
        assert_eq!(frames.cubes_at(2).collect::<Vec<_>>(), [&cube]);
        assert_eq!(frames.clause_ids().collect::<Vec<_>>(), [7]);
        // Already moved: a second push finds nothing at the old level.
        assert_eq!(frames.push_up(1, &cube, 8), None);
        assert_eq!(frames.cubes_from(2).collect::<Vec<_>>(), [&cube]);
    }

    #[test]
    fn connect_follows_shared_latches_through_active_lemmas() {
        let mut frames = Frames::new(6);
        // Level 2: {0, 1} and {1, 2}; level 1: {2, 3}; level 3: {4}.
        frames.add(2, vec![(0, true), (1, false)], 0);
        frames.add(2, vec![(1, true), (2, true)], 1);
        frames.add(1, vec![(2, false), (3, true)], 2);
        frames.add(3, vec![(4, true)], 3);
        let reach = |frames: &mut Frames, seeds: &[usize], level: usize| {
            let mut latches = seeds.to_vec();
            frames.connect(&mut latches, level);
            latches.sort_unstable();
            latches
        };
        // From latch 0 at level 2: {0, 1}, then through latch 1 to {1, 2};
        // {2, 3} is below level 2.
        assert_eq!(reach(&mut frames, &[0], 2), [0, 1, 2]);
        assert_eq!(reach(&mut frames, &[0], 1), [0, 1, 2, 3]);
        assert_eq!(reach(&mut frames, &[0], 3), [0]);
        assert_eq!(reach(&mut frames, &[5], 1), [5]);
        // A dropped lemma leaves the index: {1} subsumes both cubes that
        // held latch 1.
        assert_eq!(frames.add(2, vec![(1, true)], 4), [1]);
        assert_eq!(frames.add(2, vec![(1, false)], 5), [0]);
        assert_eq!(reach(&mut frames, &[0], 1), [0]);
        assert_eq!(reach(&mut frames, &[3], 1), [2, 3]);
        // A pushed lemma is indexed at its new level.
        frames.push_up(1, &vec![(2, false), (3, true)], 6);
        assert_eq!(reach(&mut frames, &[3], 2), [2, 3]);
    }
}
