//! Inductive-invariant extraction and the independent machine check.
//!
//! When IC3 converges (some frame equals its successor), the clauses at and
//! above the fixpoint level form an inductive invariant certifying the
//! proof. The certificate is only as good as its checker, so this module
//! re-verifies every extracted invariant with **three fresh solver
//! queries** that share nothing with the IC3 session (new [`Unroller`], new
//! [`Solver`]s, direct encoding):
//!
//! 1. **Initiation** — `I ⊆ inv`: for each clause `c`, `I ∧ ¬c` is UNSAT.
//! 2. **Consecution** — `inv ∧ T ⇒ inv'`: one unrolled step from any
//!    `inv`-state lands in `inv` (no initial-state constraint).
//! 3. **Safety** — `inv ⇒ ¬bad`: no `inv`-state is bad under any input.
//!
//! Together these imply `G ¬bad` by induction on reachability.

use std::fmt;

use rbmc_circuit::{Node, NodeId, Signal};
use rbmc_cnf::{CnfFormula, Lit};
use rbmc_solver::{SolveResult, Solver, SolverOptions};

use super::frames::Cube;
use crate::{Model, Unroller};

/// One clause of an inductive invariant: a disjunction of "latch at this
/// position has this value" literals (the working model's
/// [`latches()`](rbmc_circuit::Netlist::latches) order).
pub type InvariantClause = Vec<(usize, bool)>;

/// Negates blocked cubes into invariant clauses: cube `⋀ (latch_i = b_i)`
/// becomes clause `⋁ (latch_i = ¬b_i)`.
pub(crate) fn invariant_clauses_from(cubes: &[Cube]) -> Vec<InvariantClause> {
    cubes
        .iter()
        .map(|cube| cube.iter().map(|&(pos, value)| (pos, !value)).collect())
        .collect()
}

/// Why an invariant candidate failed the machine check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantError {
    /// Some initial state falsifies this clause (0-based index).
    NotInitial(usize),
    /// A transition leads from an invariant state out of the invariant.
    NotInductive,
    /// An invariant state satisfies the bad predicate under some input.
    NotSafe,
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantError::NotInitial(i) => {
                write!(f, "invariant clause {i} excludes an initial state")
            }
            InvariantError::NotInductive => {
                write!(f, "invariant is not closed under the transition relation")
            }
            InvariantError::NotSafe => write!(f, "invariant admits a bad state"),
        }
    }
}

/// The literal asserting "latch at `pos` has value `value`" at `frame`.
fn latch_lit(
    unroller: &Unroller<'_>,
    latches: &[NodeId],
    pos: usize,
    value: bool,
    frame: usize,
) -> Lit {
    let var = unroller.var_of(latches[pos], frame);
    if value {
        var.positive()
    } else {
        var.negative()
    }
}

/// Emits the combinational logic of one frame (constant pinning plus every
/// gate), leaving latches and inputs free, and — for `frame ≥ 1` — the
/// transition clauses tying this frame's latches to the previous frame.
fn emit_step_frame(unroller: &Unroller<'_>, frame: usize, formula: &mut CnfFormula) {
    let netlist = unroller.model().netlist();
    formula.add_clause([unroller.var_of(NodeId::CONST, frame).negative()]);
    for id in netlist.node_ids() {
        match netlist.node(id) {
            Node::Latch {
                next: Some(next), ..
            } if frame > 0 => {
                let cur = unroller.var_of(id, frame).positive();
                let prev = unroller.lit_of(next, frame - 1);
                formula.add_clause([!cur, prev]);
                formula.add_clause([cur, !prev]);
            }
            Node::Gate { .. } => unroller.emit_gate_for(id, frame, formula),
            _ => {}
        }
    }
}

fn solve(formula: &CnfFormula) -> SolveResult {
    Solver::from_formula_with(formula, SolverOptions::default()).solve()
}

/// Machine-checks an invariant candidate against `model`'s transition
/// system and the `bad` predicate, with three independent solver queries
/// (see the module docs). `clauses` is in the model's latch order; the
/// empty conjunction is the invariant *true*, for which only the safety
/// query is non-vacuous (it then demands `bad` be combinationally
/// unsatisfiable).
///
/// # Errors
///
/// Returns the first failing obligation as an [`InvariantError`].
pub fn check_invariant(
    model: &Model,
    bad: Signal,
    clauses: &[InvariantClause],
) -> Result<(), InvariantError> {
    let unroller = Unroller::new(model);
    let latches = model.netlist().latches().clone();

    // 1. Initiation: I ∧ ¬c is UNSAT for every clause c. ¬c pins each of
    // the clause's latches to the literal's complement; the initial-state
    // predicate is the per-latch init units (free latches unconstrained).
    for (i, clause) in clauses.iter().enumerate() {
        let mut formula = CnfFormula::with_vars(unroller.num_vars_at(0));
        for &id in &latches {
            if let Node::Latch { init, .. } = model.netlist().node(id) {
                match init {
                    rbmc_circuit::LatchInit::Zero => {
                        formula.add_clause([unroller.var_of(id, 0).negative()]);
                    }
                    rbmc_circuit::LatchInit::One => {
                        formula.add_clause([unroller.var_of(id, 0).positive()]);
                    }
                    rbmc_circuit::LatchInit::Free => {}
                }
            }
        }
        for &(pos, value) in clause {
            formula.add_clause([latch_lit(&unroller, &latches, pos, !value, 0)]);
        }
        if solve(&formula) != SolveResult::Unsat {
            return Err(InvariantError::NotInitial(i));
        }
    }

    // 2. Consecution: inv ∧ T ∧ ¬inv' is UNSAT. Frame 0 carries the
    // combinational logic (for the next-state functions), frame 1 the
    // latch transitions; ¬inv' is a disjunction over per-clause selectors.
    if !clauses.is_empty() {
        let mut formula = CnfFormula::with_vars(unroller.num_vars_at(1));
        emit_step_frame(&unroller, 0, &mut formula);
        emit_step_frame(&unroller, 1, &mut formula);
        for clause in clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&(pos, value)| latch_lit(&unroller, &latches, pos, value, 0))
                .collect();
            formula.add_clause(lits);
        }
        let mut selectors: Vec<Lit> = Vec::with_capacity(clauses.len());
        for clause in clauses {
            // d → ¬c': when d holds, every literal of c is false at frame 1.
            let d = formula.new_var().positive();
            for &(pos, value) in clause {
                formula.add_clause([!d, latch_lit(&unroller, &latches, pos, !value, 1)]);
            }
            selectors.push(d);
        }
        formula.add_clause(selectors);
        if solve(&formula) != SolveResult::Unsat {
            return Err(InvariantError::NotInductive);
        }
    }

    // 3. Safety: inv ∧ bad is UNSAT, inputs free.
    let mut formula = CnfFormula::with_vars(unroller.num_vars_at(0));
    emit_step_frame(&unroller, 0, &mut formula);
    for clause in clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(pos, value)| latch_lit(&unroller, &latches, pos, value, 0))
            .collect();
        formula.add_clause(lits);
    }
    formula.add_clause([unroller.lit_of(bad, 0)]);
    if solve(&formula) != SolveResult::Unsat {
        return Err(InvariantError::NotSafe);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_circuit::{LatchInit, Netlist};

    /// Sticky latch: l' = l, init 0, bad = l. Invariant "¬l" certifies it.
    fn sticky() -> Model {
        let mut n = Netlist::new();
        let l = n.add_latch("l", LatchInit::Zero);
        n.set_next(l, l);
        Model::new("sticky", n, l)
    }

    #[test]
    fn accepts_a_valid_invariant() {
        let model = sticky();
        let bad = model.bad();
        // Clause: latch 0 has value false.
        assert_eq!(check_invariant(&model, bad, &[vec![(0, false)]]), Ok(()));
    }

    #[test]
    fn rejects_unsafe_and_noninitial_invariants() {
        let model = sticky();
        let bad = model.bad();
        // The empty invariant (true) admits the bad state l=1.
        assert_eq!(
            check_invariant(&model, bad, &[]),
            Err(InvariantError::NotSafe)
        );
        // "l" excludes the initial state l=0.
        assert_eq!(
            check_invariant(&model, bad, &[vec![(0, true)]]),
            Err(InvariantError::NotInitial(0))
        );
    }

    #[test]
    fn rejects_a_noninductive_invariant() {
        // Toggle: l' = ¬l, init 0, bad never (constant false signal is not
        // expressible here, use a second latch). Candidate "¬l" is initial
        // but not inductive (0 → 1 leaves it).
        let mut n = Netlist::new();
        let l = n.add_latch("l", LatchInit::Zero);
        n.set_next(l, !l);
        let m = n.add_latch("m", LatchInit::Zero);
        n.set_next(m, m);
        let model = Model::new("toggle", n, m);
        let bad = model.bad();
        assert_eq!(
            check_invariant(&model, bad, &[vec![(0, false)], vec![(1, false)]]),
            Err(InvariantError::NotInductive)
        );
    }

    #[test]
    fn negating_cubes_flips_every_literal() {
        let cubes: Vec<Cube> = vec![vec![(0, true), (2, false)]];
        assert_eq!(
            invariant_clauses_from(&cubes),
            vec![vec![(0, false), (2, true)]]
        );
    }
}
