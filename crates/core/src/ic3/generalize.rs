//! Cube generalization from failed-assumption cores, plus the cube/literal
//! arithmetic the queries share.
//!
//! When a relative-induction query `F_{j-1} ∧ ¬s ∧ T ∧ s'` comes back UNSAT,
//! the solver's [`failed_assumptions`](rbmc_solver::Solver::failed_assumptions)
//! name the subset of the primed cube literals the refutation actually used
//! — the per-query analog of the paper's `unsatVars`. Dropping the unused
//! literals blocks a *set* of states instead of one, which is where IC3's
//! convergence comes from. Two repairs keep the generalization sound:
//!
//! - **Empty-core fallback**: a refutation that closes at decision level 0
//!   reports no failed assumptions at all (the conflict is in the permanent
//!   clauses); the full cube is kept in that case.
//! - **Init repair**: the generalized cube must still exclude every initial
//!   state (otherwise the blocking clause would cut `I` out of `F_j`). If
//!   the core dropped all initial-state-conflicting literals, one is added
//!   back from the original cube.

use rbmc_circuit::LatchInit;

use super::frames::Cube;

/// Whether a cube literal `(position, value)` conflicts with the latch's
/// initial value — the literal alone proves the cube excludes `I`.
/// `Free`-initialized latches can take either value initially, so only
/// `Zero`/`One` latches can conflict.
fn conflicts_init(init: LatchInit, value: bool) -> bool {
    match init {
        LatchInit::Zero => value,
        LatchInit::One => !value,
        LatchInit::Free => false,
    }
}

/// Whether `cube` excludes every initial state: some literal pins a latch to
/// the opposite of its (non-free) initial value. Exact for netlists whose
/// initial states are the product of per-latch `Zero`/`One`/`Free` values —
/// the only initial-state shape the circuit layer has.
pub(crate) fn excludes_init(cube: &Cube, inits: &[LatchInit]) -> bool {
    cube.iter()
        .any(|&(pos, value)| conflicts_init(inits[pos], value))
}

/// Shrinks `cube` to the literals named by the query's failed-assumption
/// core (`core_positions`, as latch positions), then repairs:
///
/// - an empty core keeps the full cube (level-0 refutation — see module
///   docs);
/// - if the shrunken cube no longer excludes the initial states, one
///   initial-state-conflicting literal of the original cube is added back
///   (one always exists: every state of an obligation at level `j ≥ 1`
///   reaches `bad` in `k − j` steps and no counterexample is shorter than
///   `k`, so the cube excludes `I`, that is, it conflicts `I` on at least
///   one `Zero`/`One` latch).
///
/// The result is sorted by latch position (the cube invariant).
pub(crate) fn generalize_from_core(
    cube: &Cube,
    core_positions: &[usize],
    inits: &[LatchInit],
) -> Cube {
    if core_positions.is_empty() {
        return cube.clone();
    }
    let mut generalized: Cube = cube
        .iter()
        .copied()
        .filter(|(pos, _)| core_positions.contains(pos))
        .collect();
    if !excludes_init(&generalized, inits) {
        let repair = cube
            .iter()
            .copied()
            .find(|&(pos, value)| conflicts_init(inits[pos], value));
        debug_assert!(
            repair.is_some(),
            "an IC3 obligation cube must exclude the initial states"
        );
        if let Some(lit) = repair {
            generalized.push(lit);
            generalized.sort_unstable();
        } else {
            // Defensive: without a conflicting literal the cube cannot be
            // soundly generalized at all — keep it whole.
            return cube.clone();
        }
    }
    generalized
}

#[cfg(test)]
mod tests {
    use super::*;

    const INITS: &[LatchInit] = &[
        LatchInit::Zero,
        LatchInit::Zero,
        LatchInit::One,
        LatchInit::Free,
    ];

    #[test]
    fn init_exclusion_is_per_literal() {
        // Latch 0 (init 0) held at 1: conflicts.
        assert!(excludes_init(&vec![(0, true)], INITS));
        // Latch 2 (init 1) held at 0: conflicts.
        assert!(excludes_init(&vec![(2, false)], INITS));
        // Everything at its initial value (free latch either way): no.
        assert!(!excludes_init(
            &vec![(0, false), (1, false), (2, true), (3, true)],
            INITS
        ));
        assert!(!excludes_init(&Vec::new(), INITS));
    }

    #[test]
    fn empty_core_keeps_the_full_cube() {
        let cube: Cube = vec![(0, true), (1, false)];
        assert_eq!(generalize_from_core(&cube, &[], INITS), cube);
    }

    #[test]
    fn core_drops_unused_literals() {
        let cube: Cube = vec![(0, true), (1, false), (3, true)];
        // Core cites only latch 0, which conflicts init — no repair needed.
        assert_eq!(generalize_from_core(&cube, &[0], INITS), vec![(0, true)]);
    }

    #[test]
    fn init_repair_restores_a_conflicting_literal() {
        // Core keeps only the free latch: the result would contain the
        // initial state, so the conflicting literal (0, true) comes back.
        let cube: Cube = vec![(0, true), (3, true)];
        assert_eq!(
            generalize_from_core(&cube, &[3], INITS),
            vec![(0, true), (3, true)]
        );
    }
}
