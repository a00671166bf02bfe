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
//! supersedes.

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

/// Blocked cubes per frame level, each next to the solver ID of its clause.
/// `levels[j]` holds the cubes blocked at exactly level `j` (i.e. whose
/// clause is part of `F_1..=F_j` but not `F_{j+1}`); level 0 is `I` and
/// never stores cubes.
#[derive(Debug, Default)]
pub(crate) struct Frames {
    levels: Vec<Vec<(Cube, usize)>>,
}

impl Frames {
    pub(crate) fn new() -> Frames {
        Frames {
            levels: vec![Vec::new()],
        }
    }

    /// Grows the level vector through `level`.
    pub(crate) fn ensure_level(&mut self, level: usize) {
        while self.levels.len() <= level {
            self.levels.push(Vec::new());
        }
    }

    /// The cubes blocked at exactly `level`.
    pub(crate) fn cubes_at(&self, level: usize) -> impl ExactSizeIterator<Item = &Cube> {
        self.levels[level].iter().map(|(cube, _)| cube)
    }

    /// Whether `cube` (or a generalization of it) is already blocked at
    /// `level` — some stored cube at level `≥ level` subsumes it.
    pub(crate) fn is_blocked(&self, cube: &Cube, level: usize) -> bool {
        self.levels[level..]
            .iter()
            .flatten()
            .any(|(c, _)| cube_subsumes(c, cube))
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
        for stored in &mut self.levels[1..=level] {
            stored.retain(|(c, id)| {
                let subsumed = cube_subsumes(&cube, c);
                if subsumed {
                    dropped.push(*id);
                }
                !subsumed
            });
        }
        self.levels[level].push((cube, clause));
        dropped
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
        let stored = &mut self.levels[level];
        let pos = stored.iter().position(|(c, _)| c == cube)?;
        let (cube, copy) = stored.swap_remove(pos);
        let mut superseded = vec![copy];
        superseded.extend(self.add(level + 1, cube, clause));
        Some(superseded)
    }

    /// The union of cubes at every level `≥ level` — the clause set of
    /// `F_level`, which the invariant extractor negates.
    pub(crate) fn cubes_from(&self, level: usize) -> Vec<Cube> {
        self.levels[level..]
            .iter()
            .flatten()
            .map(|(cube, _)| cube.clone())
            .collect()
    }

    /// The solver IDs of every stored cube's clause.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn clause_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.levels.iter().flatten().map(|&(_, id)| id)
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
        let mut frames = Frames::new();
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
        let mut frames = Frames::new();
        frames.add(2, vec![(1, true)], 0);
        let state: Cube = vec![(0, false), (1, true)];
        assert!(frames.is_blocked(&state, 1));
        assert!(frames.is_blocked(&state, 2));
        frames.ensure_level(3);
        assert!(!frames.is_blocked(&state, 3));
    }

    #[test]
    fn push_up_moves_a_cube_one_level() {
        let mut frames = Frames::new();
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
        assert_eq!(frames.cubes_from(2), vec![cube]);
    }
}
