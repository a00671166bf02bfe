//! Inductive-invariant extraction and the independent machine check.
//!
//! When IC3 converges (some frame equals its successor), the clauses at and
//! above the fixpoint level form an inductive invariant certifying the
//! proof. The certificate is only as good as its checker, so this module
//! re-verifies every extracted invariant outside the IC3 session, against
//! its three obligations:
//!
//! 1. **Initiation** — `I ⊆ inv`: every clause holds in every initial
//!    state. Resets are per latch (`Zero`, `One` or `Free`), so this is
//!    read off the reset values without a solver.
//! 2. **Consecution** — `inv ∧ T ⇒ inv'`: one step from any `inv`-state
//!    lands in `inv` (no initial-state constraint).
//! 3. **Safety** — `inv ⇒ ¬bad`: no `inv`-state is bad under any input.
//!
//! Consecution and safety share one fresh [`Solver`] (new [`Unroller`],
//! nothing shared with the session), loaded once with the one-step relation
//! and `inv` at frame 0 and then asked one assumption query per clause and
//! one for `bad`. Together the three imply `G ¬bad` by induction on
//! reachability.

use std::fmt;

use rbmc_circuit::{LatchInit, Node, Signal};
use rbmc_cnf::Lit;
use rbmc_solver::{SolveResult, Solver, SolverOptions};

use super::frames::Cube;
use crate::{Model, Unroller};

/// One clause of an inductive invariant: a disjunction of "latch at this
/// position has this value" literals (the working model's
/// [`latches()`](rbmc_circuit::Netlist::latches) order).
pub type InvariantClause = Vec<(usize, bool)>;

/// Negates blocked cubes into invariant clauses: cube `⋀ (latch_i = b_i)`
/// becomes clause `⋁ (latch_i = ¬b_i)`.
pub(crate) fn invariant_clauses_from<'c>(
    cubes: impl IntoIterator<Item = &'c Cube>,
) -> Vec<InvariantClause> {
    cubes
        .into_iter()
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

/// Whether `clause` holds in every initial state: one of its literals
/// agrees with its latch's `Zero`/`One` reset, or it holds both polarities
/// of one latch. A `Free` latch starts at either value, so no literal of
/// its own suffices; the empty clause holds in no state.
fn holds_initially(clause: &[(usize, bool)], resets: &[LatchInit]) -> bool {
    clause.iter().any(|&(pos, value)| match resets[pos] {
        LatchInit::Zero => !value,
        LatchInit::One => value,
        LatchInit::Free => clause.contains(&(pos, !value)),
    })
}

/// Machine-checks an invariant candidate against `model`'s transition
/// system and the `bad` predicate: initiation from the reset values, then
/// consecution and safety on one fresh solver (see the module docs), which
/// is the only solver a call builds. `clauses` is in the model's latch
/// order; the empty conjunction is the invariant *true*, for which only
/// the safety query is non-vacuous (it then demands `bad` be
/// combinationally unsatisfiable).
///
/// # Errors
///
/// Returns the first failing obligation as an [`InvariantError`]:
/// [`NotInitial`](InvariantError::NotInitial) for the first clause some
/// initial state falsifies, then
/// [`NotInductive`](InvariantError::NotInductive), then
/// [`NotSafe`](InvariantError::NotSafe).
pub fn check_invariant(
    model: &Model,
    bad: Signal,
    clauses: &[InvariantClause],
) -> Result<(), InvariantError> {
    let netlist = model.netlist();
    let latches = netlist.latches();

    // 1. Initiation: I ∧ ¬c is UNSAT for every clause c.
    let resets: Vec<LatchInit> = latches
        .iter()
        .map(|&id| match netlist.node(id) {
            Node::Latch { init, .. } => init,
            _ => unreachable!("latches() lists latches"),
        })
        .collect();
    if let Some(i) = clauses.iter().position(|c| !holds_initially(c, &resets)) {
        return Err(InvariantError::NotInitial(i));
    }

    // One session for the other two: the one-step relation (frame-0 logic,
    // latch transitions into frame 1) and inv at frame 0. Nothing reads a
    // core, so no CDG is recorded.
    let unroller = Unroller::new(model);
    let latch_lit = |pos: usize, value: bool, frame: usize| {
        let var = unroller.var_of(latches[pos], frame);
        if value {
            var.positive()
        } else {
            var.negative()
        }
    };
    let mut solver = Solver::with_options(SolverOptions {
        record_cdg: false,
        ..SolverOptions::default()
    });
    super::load_step_relation(&unroller, &mut solver);
    for clause in clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(pos, value)| latch_lit(pos, value, 0))
            .collect();
        solver.add_clause(&lits);
    }

    // 2. Consecution: inv ∧ T ∧ ¬c' is UNSAT for every clause c; ¬c' is
    // assumed, pinning each of c's latches at frame 1 to the complement.
    for clause in clauses {
        let negated: Vec<Lit> = clause
            .iter()
            .map(|&(pos, value)| latch_lit(pos, !value, 1))
            .collect();
        if solver.solve_under(&negated) != SolveResult::Unsat {
            return Err(InvariantError::NotInductive);
        }
    }

    // 3. Safety: inv ∧ bad is UNSAT, inputs free.
    if solver.solve_under(&[unroller.lit_of(bad, 0)]) != SolveResult::Unsat {
        return Err(InvariantError::NotSafe);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BmcOptions, Ic3Engine, OrderingStrategy, PropertyVerdict};
    use rbmc_circuit::{Netlist, NodeId};
    use rbmc_cnf::CnfFormula;

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

    /// The reference check: each obligation as its own fresh solver query
    /// over a direct encoding — initiation one solver per clause over the
    /// reset units, consecution one solve over a selector per clause with
    /// two frames of logic, safety one more solve.
    fn reference_check(
        model: &Model,
        bad: Signal,
        clauses: &[InvariantClause],
    ) -> Result<(), InvariantError> {
        let unroller = Unroller::new(model);
        let latches = model.netlist().latches();
        let latch_lit = |pos: usize, value: bool, frame: usize| {
            let var = unroller.var_of(latches[pos], frame);
            if value {
                var.positive()
            } else {
                var.negative()
            }
        };

        for (i, clause) in clauses.iter().enumerate() {
            let mut formula = CnfFormula::with_vars(unroller.num_vars_at(0));
            for &id in &latches {
                if let Node::Latch { init, .. } = model.netlist().node(id) {
                    match init {
                        LatchInit::Zero => formula.add_clause([unroller.var_of(id, 0).negative()]),
                        LatchInit::One => formula.add_clause([unroller.var_of(id, 0).positive()]),
                        LatchInit::Free => {}
                    }
                }
            }
            for &(pos, value) in clause {
                formula.add_clause([latch_lit(pos, !value, 0)]);
            }
            if solve(&formula) != SolveResult::Unsat {
                return Err(InvariantError::NotInitial(i));
            }
        }

        let inv_at_0 = |formula: &mut CnfFormula| {
            for clause in clauses {
                let lits: Vec<Lit> = clause
                    .iter()
                    .map(|&(pos, value)| latch_lit(pos, value, 0))
                    .collect();
                formula.add_clause(lits);
            }
        };
        if !clauses.is_empty() {
            let mut formula = CnfFormula::with_vars(unroller.num_vars_at(1));
            emit_step_frame(&unroller, 0, &mut formula);
            emit_step_frame(&unroller, 1, &mut formula);
            inv_at_0(&mut formula);
            let mut selectors: Vec<Lit> = Vec::with_capacity(clauses.len());
            for clause in clauses {
                // d → ¬c': when d holds, every literal of c is false at frame 1.
                let d = formula.new_var().positive();
                for &(pos, value) in clause {
                    formula.add_clause([!d, latch_lit(pos, !value, 1)]);
                }
                selectors.push(d);
            }
            formula.add_clause(selectors);
            if solve(&formula) != SolveResult::Unsat {
                return Err(InvariantError::NotInductive);
            }
        }

        let mut formula = CnfFormula::with_vars(unroller.num_vars_at(0));
        emit_step_frame(&unroller, 0, &mut formula);
        inv_at_0(&mut formula);
        formula.add_clause([unroller.lit_of(bad, 0)]);
        if solve(&formula) != SolveResult::Unsat {
            return Err(InvariantError::NotSafe);
        }
        Ok(())
    }

    /// Sticky latch: l' = l, init 0, bad = l. Invariant "¬l" certifies it.
    fn sticky() -> Model {
        let mut n = Netlist::new();
        let l = n.add_latch("l", LatchInit::Zero);
        n.set_next(l, l);
        Model::new("sticky", n, l)
    }

    /// `Free`-reset latches `f_i` that keep their value and `Zero`-reset
    /// latches `a_i' = a_i ∨ f_i`; bad when some `a_i ∧ ¬f_i`. Holds, with
    /// the invariant `⋀ (¬a_i ∨ f_i)`.
    fn free_guarded(width: usize) -> Model {
        let mut n = Netlist::new();
        let mut terms = Vec::with_capacity(width);
        for i in 0..width {
            let f = n.add_latch(&format!("f{i}"), LatchInit::Free);
            n.set_next(f, f);
            let a = n.add_latch(&format!("a{i}"), LatchInit::Zero);
            let grow = n.or2(a, f);
            n.set_next(a, grow);
            terms.push(n.and2(a, !f));
        }
        let bad = n.or_many(&terms);
        Model::new("free_guarded", n, bad)
    }

    /// A 4-bit counter reset to 5 (`One` on bits 0 and 2), wrapping back
    /// to 5 on reaching 10; bad at 3 or 12, neither of which it reaches.
    fn offset_counter() -> Model {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..4)
            .map(|i| {
                let init = if 5 >> i & 1 == 1 {
                    LatchInit::One
                } else {
                    LatchInit::Zero
                };
                n.add_latch(&format!("b{i}"), init)
            })
            .collect();
        let inc = n.bus_increment(&bits);
        let wrap = n.bus_eq_const(&bits, 10);
        for (i, (&b, &up)) in bits.iter().zip(&inc).enumerate() {
            let reset = if 5 >> i & 1 == 1 {
                Signal::TRUE
            } else {
                Signal::FALSE
            };
            let next = n.mux(wrap, reset, up);
            n.set_next(b, next);
        }
        let low = n.bus_eq_const(&bits, 3);
        let high = n.bus_eq_const(&bits, 12);
        let bad = n.or2(low, high);
        Model::new("offset_counter", n, bad)
    }

    /// Two shift chains per bank fed the same bit, as in the drift family:
    /// a phase counter selects which bank shifts the input (the others
    /// shift noise), and bad is the selected bank's chain ends differing.
    fn twin(banks: usize, width: usize) -> Model {
        let mut n = Netlist::new();
        let input = n.add_input("in");
        let noise = n.add_input("noise");
        let phase: Vec<Signal> = (0..banks.trailing_zeros())
            .map(|i| n.add_latch(&format!("ph{i}"), LatchInit::Zero))
            .collect();
        let tick = n.bus_increment(&phase);
        for (&p, &t) in phase.iter().zip(&tick) {
            n.set_next(p, t);
        }
        let mut mismatches = Vec::with_capacity(banks);
        for b in 0..banks {
            let selected = n.bus_eq_const(&phase, b as u64);
            let feed = n.mux(selected, input, noise);
            let (mut a, mut c) = (feed, feed);
            for j in 0..width {
                let next_a = n.add_latch(&format!("b{b}a{j}"), LatchInit::Zero);
                let next_c = n.add_latch(&format!("b{b}c{j}"), LatchInit::Zero);
                n.set_next(next_a, a);
                n.set_next(next_c, c);
                (a, c) = (next_a, next_c);
            }
            let diff = n.xor2(a, c);
            mismatches.push(n.and2(selected, diff));
        }
        let bad = n.or_many(&mismatches);
        Model::new("twin", n, bad)
    }

    /// A fixed-seed xorshift generator for the random mutants.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
    }

    /// The candidate and its mutants: each clause dropped, each literal
    /// flipped, a tautological clause over each latch prepended, a few
    /// random clauses appended, and the empty invariant.
    fn mutants(clauses: &[InvariantClause], num_latches: usize) -> Vec<Vec<InvariantClause>> {
        let mut out = vec![clauses.to_vec(), Vec::new()];
        for i in 0..clauses.len() {
            let mut dropped = clauses.to_vec();
            dropped.remove(i);
            out.push(dropped);
            for j in 0..clauses[i].len() {
                let mut flipped = clauses.to_vec();
                flipped[i][j].1 = !flipped[i][j].1;
                out.push(flipped);
            }
        }
        for pos in 0..num_latches {
            let mut prepended = vec![vec![(pos, true), (pos, false)]];
            prepended.extend_from_slice(clauses);
            out.push(prepended);
        }
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..8 {
            let len = 1 + rng.below(3);
            let random: InvariantClause = (0..len)
                .map(|_| (rng.below(num_latches), rng.below(2) == 1))
                .collect();
            let mut appended = clauses.to_vec();
            appended.push(random);
            out.push(appended);
        }
        out
    }

    #[test]
    fn agrees_with_the_reference_on_ic3_invariants_and_their_mutants() {
        let fixtures = [free_guarded(3), offset_counter(), twin(2, 3)];
        let strategies = [
            OrderingStrategy::Standard,
            OrderingStrategy::RefinedDynamic { divisor: 64 },
        ];
        let (mut cases, mut rejected) = (0, 0);
        for model in fixtures {
            for strategy in strategies {
                let name = format!("{} under {strategy:?}", model.name());
                let mut engine = Ic3Engine::new(
                    model.clone(),
                    BmcOptions {
                        max_depth: 20,
                        strategy,
                        ..BmcOptions::default()
                    },
                );
                let run = engine.run_collecting();
                let PropertyVerdict::Proved {
                    invariant_clauses: Some(clauses),
                    ..
                } = &run.properties[0].verdict
                else {
                    panic!(
                        "{name}: expected a proof, got {}",
                        run.properties[0].verdict
                    );
                };
                let working = engine.working_model();
                let bad = working.bad();
                assert_eq!(check_invariant(working, bad, clauses), Ok(()), "{name}");
                for candidate in mutants(clauses, working.netlist().num_latches()) {
                    let got = check_invariant(working, bad, &candidate);
                    let want = reference_check(working, bad, &candidate);
                    assert_eq!(got, want, "{name}: {candidate:?}");
                    cases += 1;
                    rejected += usize::from(got.is_err());
                }
            }
        }
        // Every fixture's mutants reach each verdict.
        assert!(rejected > 0 && rejected < cases, "{rejected} of {cases}");
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
        // So does the empty clause.
        assert_eq!(
            check_invariant(&model, bad, &[vec![(0, false)], vec![]]),
            Err(InvariantError::NotInitial(1))
        );
    }

    #[test]
    fn a_clause_over_free_latches_only_is_not_initial() {
        let model = free_guarded(2);
        let bad = model.bad();
        // Latches in order f0, a0, f1, a1: f0 and f1 start at either value.
        for clause in [vec![(0, true)], vec![(0, false), (2, true)]] {
            assert_eq!(
                check_invariant(&model, bad, &[vec![(1, false)], clause]),
                Err(InvariantError::NotInitial(1))
            );
        }
    }

    #[test]
    fn a_tautological_clause_passes_initiation() {
        let model = free_guarded(1);
        let bad = model.bad();
        // Over the free latch f0 and over the zero-reset latch a0; the
        // invariant fails later, at safety, since a0 ∧ ¬f0 is bad.
        for pos in [0, 1] {
            assert_eq!(
                check_invariant(&model, bad, &[vec![(pos, true), (pos, false)]]),
                Err(InvariantError::NotSafe)
            );
        }
        let invariant = vec![vec![(0, true), (0, false)], vec![(1, false), (0, true)]];
        assert_eq!(check_invariant(&model, bad, &invariant), Ok(()));
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
    fn consecution_is_reported_before_safety() {
        // Toggle l with bad = ¬l: "¬l" is initial, leaves itself in one
        // step, and admits the bad state l=0.
        let mut n = Netlist::new();
        let l = n.add_latch("l", LatchInit::Zero);
        n.set_next(l, !l);
        let model = Model::new("toggle", n, !l);
        let bad = model.bad();
        let invariant = [vec![(0, false)]];
        assert_eq!(
            reference_check(&model, bad, &invariant),
            Err(InvariantError::NotInductive)
        );
        assert_eq!(
            check_invariant(&model, bad, &invariant),
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
