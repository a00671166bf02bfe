//! Tseitin unrolling of the model into the CNF instances of Eq. 1, with
//! frame-stable variable numbering and an incremental clause-prefix cache.
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
//! Consumers read frames two ways: [`Unroller::with_prefix`] lends all of
//! frames `0..=k` (a fresh solver loading one whole instance) from a clause
//! prefix the unroller caches, so each frame is encoded once and the total
//! encoding work of a fresh-per-depth run is linear in the depth bound; and
//! [`Unroller::with_frame_delta`] lends frame `k` alone (a persistent
//! session solver appending just the new frame — see its docs for why the
//! deltas concatenate exactly to the prefix), encoded without caching,
//! because the session solver reads each frame once and keeps it.

use std::cell::RefCell;
use std::fmt;

use rbmc_circuit::{GateOp, LatchInit, Node, NodeId, Signal};
use rbmc_cnf::{Clauses, CnfFormula, Lit, Var};

use crate::Model;

/// The cached clause prefix: every frame encoded so far, in emission order,
/// without any bad-state unit clause.
#[derive(Clone, Default)]
struct PrefixCache {
    formula: CnfFormula,
    /// Clause count after each encoded frame: `frame_end[f]` is the number
    /// of clauses encoding frames `0..=f`.
    frame_end: Vec<usize>,
}

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
    prefix: RefCell<PrefixCache>,
}

impl fmt::Debug for Unroller<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Unroller")
            .field("model", &self.model.name())
            .field("num_nodes", &self.num_nodes)
            .field("cached_frames", &self.prefix.borrow().frame_end.len())
            .finish()
    }
}

impl<'a> Unroller<'a> {
    /// Creates an unroller for the model (with an empty prefix cache).
    pub fn new(model: &'a Model) -> Unroller<'a> {
        Unroller {
            model,
            num_nodes: model.netlist().num_nodes(),
            prefix: RefCell::new(PrefixCache::default()),
        }
    }

    /// Extends the cached clause prefix through frame `k`. Each frame is
    /// encoded exactly once per unroller, which is sound because frame
    /// numbering is stable: the clauses of frame `f` are the same in every
    /// instance `F_k` with `k ≥ f`.
    fn ensure_frames(&self, k: usize) {
        let mut cache = self.prefix.borrow_mut();
        while cache.frame_end.len() <= k {
            let frame = cache.frame_end.len();
            self.emit_frame(frame, &mut cache.formula);
            let end = cache.formula.num_clauses();
            cache.frame_end.push(end);
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
    /// frames.
    ///
    /// This materializes a fresh owned `CnfFormula`, which costs one
    /// allocation per clause — as much as encoding it — so it deliberately
    /// bypasses the prefix cache. Callers that build one instance per depth
    /// (fresh-per-depth BMC) should consume [`Unroller::with_prefix`] instead: that
    /// path encodes every frame exactly once per unroller and lends out the
    /// cached clauses without copying.
    pub fn formula(&self, k: usize) -> CnfFormula {
        let mut formula = CnfFormula::with_vars(self.num_vars_at(k));
        for frame in 0..=k {
            self.emit_frame(frame, &mut formula);
        }
        // ¬P(V^k): the bad signal holds at the last frame.
        formula.add_clause([self.lit_of(self.model.bad(), k)]);
        formula
    }

    /// Runs `consume` on the cached clauses of frames `0..=k` — everything
    /// in `F_k` except the final unit clause [`Unroller::bad_lit`] asserts.
    /// This is the zero-copy path fresh-per-depth consumers (the
    /// [`SolverReuse::Fresh`](crate::SolverReuse) differential path, tests,
    /// benches) load whole instances from.
    ///
    /// `consume` must not call back into [`Unroller::with_prefix`] on the
    /// same unroller: the cache is borrowed for the duration of the call.
    /// The pure index arithmetic (`var_of`, `lit_of`, `num_vars_at`, …) is
    /// fine.
    pub fn with_prefix<R>(&self, k: usize, consume: impl FnOnce(Clauses<'_>) -> R) -> R {
        self.ensure_frames(k);
        let cache = self.prefix.borrow();
        consume(cache.formula.clauses_in(0..cache.frame_end[k]))
    }

    /// Runs `consume` on the clauses of frame `k` **alone** — the
    /// difference between `F_k` and `F_{k-1}` (ignoring the bad-state
    /// units). This is what the incremental solving session appends per
    /// depth: the persistent solver already holds frames `0..k`, so each
    /// depth costs one frame of encoding and loading instead of `k + 1`.
    /// The frame is encoded into a scratch formula, not the prefix cache:
    /// the session solver reads it once and keeps it.
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

    /// The unit literal `¬P(V^k)` that turns the frame prefix into `F_k`,
    /// for the model's **primary** property. The frame prefix itself is
    /// property-independent — all properties of a
    /// [`VerificationProblem`](crate::VerificationProblem) share it — so the
    /// multi-property engine derives each property's literal with
    /// [`Unroller::lit_of`] on the property's own bad signal instead.
    pub fn bad_lit(&self, k: usize) -> Lit {
        self.lit_of(self.model.bad(), k)
    }

    /// Emits the constraints of one time frame: constant pinning, gate
    /// relations, the initial-state predicate (frame 0), and the transition
    /// linking to the previous frame (frames ≥ 1).
    fn emit_frame(&self, frame: usize, formula: &mut CnfFormula) {
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

    /// Reads the initial register state out of a satisfying assignment of
    /// some `F_k` (in [`Netlist::latches`](rbmc_circuit::Netlist::latches) order).
    pub fn initial_state_from(&self, assignment: &[bool]) -> Vec<bool> {
        self.model
            .netlist()
            .latches()
            .iter()
            .map(|&id| assignment[self.var_of(id, 0).index()])
            .collect()
    }

    /// Reads the input vector of `frame` out of a satisfying assignment (in
    /// [`Netlist::inputs`](rbmc_circuit::Netlist::inputs) order).
    pub fn inputs_at_from(&self, assignment: &[bool], frame: usize) -> Vec<bool> {
        self.model
            .netlist()
            .inputs()
            .iter()
            .map(|&id| assignment[self.var_of(id, frame).index()])
            .collect()
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
    fn incremental_prefix_identical_to_fresh_encode() {
        // The instance assembled from one long-lived unroller's prefix cache
        // (the path BmcEngine drives) must be clause-for-clause identical to
        // a fresh encode at every depth — ascending, then descending, so
        // cache hits and partial reads are both covered.
        let model = counter_model(4, 9);
        let shared = Unroller::new(&model);
        let rebuild = |k: usize| {
            shared.with_prefix(k, |clauses| {
                let mut f = CnfFormula::with_vars(shared.num_vars_at(k));
                for clause in clauses {
                    f.add_clause(clause);
                }
                f.add_clause([shared.bad_lit(k)]);
                f
            })
        };
        for k in 0..12 {
            let fresh = Unroller::new(&model).formula(k);
            assert_eq!(rebuild(k), fresh, "ascending depth {k}");
        }
        for k in (0..12).rev() {
            let fresh = Unroller::new(&model).formula(k);
            assert_eq!(rebuild(k), fresh, "descending depth {k}");
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
                &[unroller.bad_lit(k)],
                "final unit at depth {k}"
            );
        }
    }

    #[test]
    fn frame_deltas_concatenate_to_the_prefix() {
        // prefix(k) = delta(0) ++ … ++ delta(k): the property that makes the
        // incremental session's per-depth appends sound (frame-stable
        // numbering; see `with_frame_delta`). Out-of-order depths exercise
        // partial cache reads.
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
        let mut state = unroller.initial_state_from(assignment);
        for frame in 0..=6 {
            let inputs = unroller.inputs_at_from(assignment, frame);
            let values = rbmc_circuit::sim::eval_frame(model.netlist(), &state, &inputs);
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
