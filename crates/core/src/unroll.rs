//! Tseitin unrolling of the model into the CNF instances of Eq. 1, with
//! frame-stable variable numbering.
//!
//! Every netlist node gets one CNF variable per time frame, at the fixed
//! index `frame · num_nodes + node`. The variable standing for a given
//! (node, frame) pair is therefore **identical in every instance `F_k`** —
//! exactly the invariant the paper relies on when it transfers `varRank`
//! from one BMC instance to the next.
//!
//! The same invariant makes the instances *append-only*: the clauses of
//! frame `f` depend only on `f`, so `F_k` is the clauses of `F_{k-1}` minus
//! its final bad-state unit, plus one new frame, plus a new bad-state unit.
//! A run over increasing depths therefore encodes each frame once:
//! [`Unroller::with_frame_delta`] lends frame `k` alone, which a persistent
//! session solver appends per depth (see its docs for why the deltas
//! concatenate exactly to the prefix), and a fresh-per-depth run appends
//! frame `k` to the prefix formula it owns. [`Unroller::with_prefix`]
//! encodes frames `0..=k` at once, for a caller that loads one whole
//! instance.

use std::fmt;

use rbmc_circuit::{GateOp, LatchInit, Node, NodeId, Signal};
use rbmc_cnf::{Clauses, CnfFormula, Lit, Var};

use crate::Model;

/// The Eq. 1 encoder (`gen_cnf_formula` in the paper's Fig. 5).
///
/// # Examples
///
/// ```
/// use rbmc_circuit::{LatchInit, Netlist};
/// use rbmc_core::{Model, Unroller};
///
/// let mut n = Netlist::new();
/// let t = n.add_latch("t", LatchInit::Zero);
/// n.set_next(t, !t);
/// let model = Model::new("toggle", n, t);
/// let unroller = Unroller::new(&model);
/// let f0 = unroller.formula(0);
/// let f3 = unroller.formula(3);
/// // Frame-stable numbering: deeper instances only append variables.
/// assert!(f0.num_vars() < f3.num_vars());
/// assert_eq!(unroller.var_of(t.node(), 2), unroller.var_of(t.node(), 2));
/// ```
#[derive(Clone)]
pub struct Unroller<'a> {
    model: &'a Model,
    num_nodes: usize,
}

impl fmt::Debug for Unroller<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Unroller")
            .field("model", &self.model.name())
            .field("num_nodes", &self.num_nodes)
            .finish()
    }
}

impl<'a> Unroller<'a> {
    /// Creates an unroller for the model.
    pub fn new(model: &'a Model) -> Unroller<'a> {
        Unroller {
            model,
            num_nodes: model.netlist().num_nodes(),
        }
    }

    /// The model being unrolled.
    pub fn model(&self) -> &Model {
        self.model
    }

    /// The CNF variable of `node` at time `frame` (stable across instances).
    pub fn var_of(&self, node: NodeId, frame: usize) -> Var {
        Var::new(frame * self.num_nodes + node.index())
    }

    /// The CNF literal of `signal` at time `frame`.
    pub fn lit_of(&self, signal: Signal, frame: usize) -> Lit {
        Lit::new(self.var_of(signal.node(), frame), signal.is_inverted())
    }

    /// The (node, frame) pair a CNF variable stands for.
    pub fn origin_of(&self, var: Var) -> (NodeId, usize) {
        (
            NodeId::new(var.index() % self.num_nodes),
            var.index() / self.num_nodes,
        )
    }

    /// Number of CNF variables in the instance of depth `k`.
    pub fn num_vars_at(&self, k: usize) -> usize {
        (k + 1) * self.num_nodes
    }

    /// Builds `F_k`: `I(V⁰) ∧ ⋀_{1≤i≤k} T(V^{i-1}, Wⁱ, Vⁱ) ∧ ¬P(V^k)`.
    ///
    /// All instances share their clause prefix (except the final unit clause
    /// asserting the bad state), and their variables coincide on common
    /// frames. The model's primary property is the bad state.
    pub fn formula(&self, k: usize) -> CnfFormula {
        let mut formula = self.frames(k);
        // ¬P(V^k): the bad signal holds at the last frame.
        formula.add_clause([self.lit_of(self.model.bad(), k)]);
        formula
    }

    /// Runs `consume` on the clauses of frames `0..=k` — everything in
    /// `F_k` except the final unit clause asserting a property's bad state
    /// (`lit_of(bad, k)`; the frames are shared by every property of a
    /// [`VerificationProblem`](crate::VerificationProblem)). The frames are
    /// encoded on each call; a run over increasing depths appends
    /// [`Unroller::with_frame_delta`]'s one frame per depth instead.
    pub fn with_prefix<R>(&self, k: usize, consume: impl FnOnce(Clauses<'_>) -> R) -> R {
        consume(self.frames(k).clauses())
    }

    /// Frames `0..=k`, encoded into a new formula.
    fn frames(&self, k: usize) -> CnfFormula {
        let mut formula = CnfFormula::with_vars(self.num_vars_at(k));
        for frame in 0..=k {
            self.emit_frame(frame, &mut formula);
        }
        formula
    }

    /// Runs `consume` on the clauses of frame `k` **alone** — the
    /// difference between `F_k` and `F_{k-1}` (ignoring the bad-state
    /// units). This is what the incremental solving session appends per
    /// depth: the persistent solver already holds frames `0..k`, so each
    /// depth costs one frame of encoding and loading instead of `k + 1`.
    /// The frame is encoded into a scratch formula: the session solver
    /// reads it once and keeps it.
    ///
    /// Appending deltas is sound **because frame numbering is stable**: the
    /// variable of `(node, frame)` is `frame · num_nodes + node`,
    /// independent of the depth bound, so the clauses of frame `k` are
    /// byte-identical in every instance `F_j` with `j ≥ k`. The deltas
    /// therefore concatenate exactly to the prefix —
    /// `prefix(k) = delta(0) ++ … ++ delta(k)` — and a solver fed deltas
    /// incrementally holds, clause for clause, the formula a fresh solver
    /// would load via [`Unroller::with_prefix`]. Without stable numbering
    /// (e.g. had variables been numbered per-instance), earlier frames would
    /// need re-encoding at every depth and no delta could exist.
    pub fn with_frame_delta<R>(&self, k: usize, consume: impl FnOnce(Clauses<'_>) -> R) -> R {
        let mut formula = CnfFormula::with_vars(self.num_vars_at(k));
        self.emit_frame(k, &mut formula);
        consume(formula.clauses_in(0..formula.num_clauses()))
    }

    /// Appends the constraints of one time frame to `formula`: constant
    /// pinning, gate relations, the initial-state predicate (frame 0), and
    /// the transition linking to the previous frame (frames ≥ 1).
    pub(crate) fn emit_frame(&self, frame: usize, formula: &mut CnfFormula) {
        let netlist = self.model.netlist();
        // The constant node is false in every frame.
        formula.add_clause([self.var_of(NodeId::CONST, frame).negative()]);
        for id in netlist.node_ids() {
            match netlist.node(id) {
                Node::Const | Node::Input => {}
                Node::Latch { init, next } => {
                    if frame == 0 {
                        match init {
                            LatchInit::Zero => {
                                formula.add_clause([self.var_of(id, 0).negative()]);
                            }
                            LatchInit::One => {
                                formula.add_clause([self.var_of(id, 0).positive()]);
                            }
                            LatchInit::Free => {}
                        }
                    } else {
                        // V^frame = next(V^{frame-1}, W^{frame-1}).
                        let next = next.expect("validated netlist");
                        let cur = self.var_of(id, frame).positive();
                        let prev = self.lit_of(next, frame - 1);
                        formula.add_clause([!cur, prev]);
                        formula.add_clause([cur, !prev]);
                    }
                }
                Node::Gate { op, fanins } => {
                    self.emit_gate(id, op, fanins, frame, formula);
                }
            }
        }
    }

    /// Full Tseitin encoding of one gate (output variable ⟷ gate function).
    fn emit_gate(
        &self,
        id: NodeId,
        op: GateOp,
        fanins: &[Signal],
        frame: usize,
        formula: &mut CnfFormula,
    ) {
        let out = self.var_of(id, frame).positive();
        let ins: Vec<Lit> = fanins.iter().map(|&s| self.lit_of(s, frame)).collect();
        match op {
            GateOp::And => {
                // out → each input; all inputs → out.
                let mut long = Vec::with_capacity(ins.len() + 1);
                for &lit in &ins {
                    formula.add_clause([!out, lit]);
                    long.push(!lit);
                }
                long.push(out);
                formula.add_clause(long);
            }
            GateOp::Xor => {
                // Forbid each input pair with out ≠ a ⊕ b.
                let (a, b) = (ins[0], ins[1]);
                formula.add_clause([a, b, !out]);
                formula.add_clause([!a, b, out]);
                formula.add_clause([a, !b, out]);
                formula.add_clause([!a, !b, !out]);
            }
            GateOp::Mux => {
                let (s, a, b) = (ins[0], ins[1], ins[2]);
                formula.add_clause([!s, !a, out]);
                formula.add_clause([!s, a, !out]);
                formula.add_clause([s, !b, out]);
                formula.add_clause([s, b, !out]);
                // Redundant but propagation-friendly: both branches agree.
                formula.add_clause([!a, !b, out]);
                formula.add_clause([a, b, !out]);
            }
        }
    }

    /// Emits the Tseitin clauses of a single gate at `frame` (used by the
    /// IC3 engine and its invariant checker to assemble uninitialized
    /// one-step encodings).
    pub(crate) fn emit_gate_for(&self, id: NodeId, frame: usize, formula: &mut CnfFormula) {
        if let Node::Gate { op, fanins } = self.model.netlist().node(id) {
            self.emit_gate(id, op, fanins, frame, formula);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_circuit::Netlist;
    use rbmc_solver::{SolveResult, Solver};

    /// Counter model: `width`-bit counter, bad when it equals `target`.
    fn counter_model(width: usize, target: u64) -> Model {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..width)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let bad = n.bus_eq_const(&bits, target);
        Model::new("counter", n, bad)
    }

    #[test]
    fn instance_sat_exactly_at_target_depth() {
        let model = counter_model(4, 6);
        let unroller = Unroller::new(&model);
        for k in 0..10 {
            let f = unroller.formula(k);
            let mut solver = Solver::from_formula(&f);
            let expected = if k == 6 {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(solver.solve(), expected, "depth {k}");
        }
    }

    #[test]
    fn variables_are_frame_stable() {
        let model = counter_model(3, 7);
        let unroller = Unroller::new(&model);
        let n = model.netlist().num_nodes();
        for frame in 0..5 {
            for node in model.netlist().node_ids() {
                let v = unroller.var_of(node, frame);
                assert_eq!(v.index(), frame * n + node.index());
                assert_eq!(unroller.origin_of(v), (node, frame));
            }
        }
    }

    #[test]
    fn with_prefix_matches_formula_minus_bad_unit() {
        let model = counter_model(3, 5);
        let unroller = Unroller::new(&model);
        for k in [0usize, 2, 5, 3] {
            let f = unroller.formula(k);
            unroller.with_prefix(k, |clauses| {
                assert_eq!(clauses.len() + 1, f.num_clauses(), "depth {k}");
                for (i, clause) in clauses.iter().enumerate() {
                    assert_eq!(clause, f.clause(i), "clause {i} at depth {k}");
                }
            });
            assert_eq!(
                f.clause(f.num_clauses() - 1).lits(),
                &[unroller.lit_of(model.bad(), k)],
                "final unit at depth {k}"
            );
        }
    }

    #[test]
    fn frame_deltas_concatenate_to_the_prefix() {
        // prefix(k) = delta(0) ++ … ++ delta(k): the property that makes the
        // incremental session's per-depth appends sound (frame-stable
        // numbering; see `with_frame_delta`).
        let model = counter_model(4, 9);
        let unroller = Unroller::new(&model);
        for k in [3usize, 1, 5] {
            let mut rebuilt = CnfFormula::with_vars(unroller.num_vars_at(k));
            for frame in 0..=k {
                unroller.with_frame_delta(frame, |clauses| {
                    for clause in clauses {
                        rebuilt.add_clause(clause);
                    }
                });
            }
            unroller.with_prefix(k, |prefix| {
                assert_eq!(prefix.len(), rebuilt.num_clauses(), "depth {k}");
                for (i, clause) in prefix.iter().enumerate() {
                    assert_eq!(clause, rebuilt.clause(i), "clause {i} at depth {k}");
                }
            });
        }
    }

    #[test]
    fn formulas_share_clause_prefix() {
        let model = counter_model(3, 7);
        let unroller = Unroller::new(&model);
        let f2 = unroller.formula(2);
        let f3 = unroller.formula(3);
        // All clauses of F_2 except its final (bad) unit clause reappear
        // verbatim, in order, at the start of F_3.
        for i in 0..f2.num_clauses() - 1 {
            assert_eq!(f2.clause(i), f3.clause(i), "clause {i} differs");
        }
    }

    #[test]
    fn model_assignment_matches_simulation() {
        // SAT at depth 6; the satisfying assignment's gate values must agree
        // with the simulator run under the extracted inputs (full Tseitin).
        let model = counter_model(4, 6);
        let unroller = Unroller::new(&model);
        let f = unroller.formula(6);
        let mut solver = Solver::from_formula(&f);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let assignment = solver.model().unwrap();
        let trace = crate::Trace::from_assignment(&unroller, assignment, 6);
        let mut state = trace.initial_state().to_vec();
        for (frame, inputs) in trace.inputs().iter().enumerate() {
            let values = rbmc_circuit::sim::eval_frame(model.netlist(), &state, inputs);
            for id in model.netlist().node_ids() {
                assert_eq!(
                    values[id.index()],
                    assignment[unroller.var_of(id, frame).index()],
                    "node {id:?} at frame {frame}"
                );
            }
            // Advance the state.
            state = model
                .netlist()
                .latches()
                .iter()
                .map(|&l| match model.netlist().node(l) {
                    Node::Latch { next: Some(nx), .. } => {
                        rbmc_circuit::sim::read_signal(&values, nx)
                    }
                    _ => unreachable!(),
                })
                .collect();
        }
    }

    #[test]
    fn gate_clauses_are_pinned_in_order() {
        // One frame of an And of three, an Xor and a Mux, with inverted
        // fanins: every clause and every literal in emission order.
        let mut n = Netlist::new();
        let [a, b, c] = ["a", "b", "c"].map(|name| n.add_input(name));
        let and = n.and_many(&[a, !b, c]);
        let xor = n.xor2(a, !c);
        let mux = n.mux(and, xor, !b);
        let model = Model::new("gates", n, mux);
        let unroller = Unroller::new(&model);
        let [a, b, c, and, xor, mux] = [a, b, c, and, xor, mux].map(|s| unroller.lit_of(s, 0));
        let expected = [
            vec![unroller.var_of(NodeId::CONST, 0).negative()],
            vec![!and, a],
            vec![!and, !b],
            vec![!and, c],
            vec![!a, b, !c, and],
            vec![a, !c, !xor],
            vec![!a, !c, xor],
            vec![a, c, xor],
            vec![!a, c, !xor],
            vec![!and, !xor, mux],
            vec![!and, xor, !mux],
            vec![and, b, mux],
            vec![and, !b, !mux],
            vec![!xor, b, mux],
            vec![xor, !b, !mux],
        ];
        unroller.with_frame_delta(0, |clauses| {
            let emitted: Vec<Vec<Lit>> = clauses.iter().map(|c| c.lits().to_vec()).collect();
            assert_eq!(emitted, expected);
        });
    }

    #[test]
    fn free_latches_are_unconstrained() {
        // A free-init latch that feeds the bad signal directly: SAT at k=0.
        let mut n = Netlist::new();
        let l = n.add_latch("l", LatchInit::Free);
        n.set_next(l, l);
        let model = Model::new("free", n, l);
        let unroller = Unroller::new(&model);
        let mut solver = Solver::from_formula(&unroller.formula(0));
        assert_eq!(solver.solve(), SolveResult::Sat);
    }

    #[test]
    fn num_vars_scales_linearly() {
        let model = counter_model(2, 3);
        let unroller = Unroller::new(&model);
        let n = model.netlist().num_nodes();
        assert_eq!(unroller.num_vars_at(0), n);
        assert_eq!(unroller.num_vars_at(4), 5 * n);
        assert_eq!(unroller.formula(4).num_vars(), 5 * n);
    }
}
