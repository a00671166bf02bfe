//! Decision ordering: Chaff's literal-based VSIDS combined with the
//! externally supplied `bmc_score` ranking (paper §3.3).
//!
//! Every literal `l` carries `cha_score(l)`, initialized to its literal count
//! in the original CNF. After every `halve_interval` conflicts the solver
//! applies `cha_score(l) = cha_score(l) / 2 + new_lit_counts(l)` where
//! `new_lit_counts(l)` is the number of conflict clauses learned since the
//! last update that contain `l`.
//!
//! The BMC refinement supplies a per-variable `bmc_score`. In the **static**
//! configuration the decision key is `(bmc_score, cha_score)` throughout; in
//! the **dynamic** configuration it starts that way and collapses to
//! `(0, cha_score)` — pure VSIDS — once the number of decisions exceeds
//! `#original_literals / divisor` (the paper uses 64).
//!
//! Scores only change at halving boundaries, at BMC-rank installation, and at
//! the dynamic switch, so the max-heap caches its keys and is rebuilt whole at
//! those (rare) points.

use rbmc_cnf::{Lit, Var};

use crate::LBool;

/// How the decision ordering combines `bmc_score` and `cha_score` (§3.3).
///
/// # Examples
///
/// ```
/// use rbmc_solver::OrderMode;
///
/// let mode = OrderMode::Dynamic { divisor: 64 };
/// assert_ne!(mode, OrderMode::Standard);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum OrderMode {
    /// Chaff's default: sort exclusively by `cha_score` (VSIDS).
    #[default]
    Standard,
    /// Paper's static configuration: `bmc_score` primary, `cha_score`
    /// tiebreaker, for the whole solve.
    Static,
    /// Paper's dynamic configuration: like [`OrderMode::Static`] until the
    /// number of decisions exceeds `#original_literals / divisor`, then pure
    /// VSIDS. The paper fixes `divisor = 64`.
    Dynamic {
        /// Denominator of the decision-count threshold.
        divisor: u32,
    },
}

/// The decision key of a literal: primary score, secondary score, and a
/// deterministic tiebreaker (lower literal code wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    primary: u64,
    secondary: u64,
    code: u32,
}

impl Key {
    /// Total order: larger scores first; between equal scores, the literal
    /// with the *smaller* code is considered greater (deterministic and
    /// stable across runs).
    fn beats(&self, other: &Key) -> bool {
        (self.primary, self.secondary, std::cmp::Reverse(self.code))
            > (
                other.primary,
                other.secondary,
                std::cmp::Reverse(other.code),
            )
    }
}

/// Indexed binary max-heap over literals with cached keys.
///
/// Keys are recomputed wholesale by [`LitOrder::rebuild`]; between rebuilds
/// they are frozen, which mirrors Chaff's "sort periodically" behaviour.
pub(crate) struct LitOrder {
    /// Heap of literal codes, ordered by `key`.
    heap: Vec<u32>,
    /// `pos[code]` = index in `heap`, or `NOT_IN_HEAP`.
    pos: Vec<u32>,
    /// Cached decision key per literal code.
    key: Vec<Key>,
    /// Current `cha_score` per literal code.
    cha: Vec<u64>,
    /// Conflict-clause literal counts since the last halving.
    new_counts: Vec<u64>,
    /// Externally supplied per-variable ranking (the BMC refinement).
    bmc: Vec<u64>,
    /// Whether `bmc` participates as the primary key.
    use_bmc: bool,
    /// Whether the variable occurs in some clause. Reserved-but-unused
    /// variables (an incremental session reserves the whole future variable
    /// range up front) are never decision candidates: no clause constrains
    /// them, so any model extends to them trivially.
    active: Vec<bool>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl std::fmt::Debug for LitOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LitOrder")
            .field("len", &self.heap.len())
            .field("use_bmc", &self.use_bmc)
            .finish()
    }
}

impl LitOrder {
    /// Creates an ordering over `num_vars` variables with all-zero scores.
    pub(crate) fn new(num_vars: usize) -> LitOrder {
        let n = 2 * num_vars;
        LitOrder {
            heap: Vec::with_capacity(n),
            pos: vec![NOT_IN_HEAP; n],
            key: vec![
                Key {
                    primary: 0,
                    secondary: 0,
                    code: 0
                };
                n
            ],
            cha: vec![0; n],
            new_counts: vec![0; n],
            bmc: vec![0; num_vars],
            use_bmc: false,
            active: vec![false; num_vars],
        }
    }

    /// Grows the ordering to cover `num_vars` variables.
    pub(crate) fn grow(&mut self, num_vars: usize) {
        let n = 2 * num_vars;
        if n <= self.pos.len() {
            return;
        }
        self.pos.resize(n, NOT_IN_HEAP);
        self.key.resize(
            n,
            Key {
                primary: 0,
                secondary: 0,
                code: 0,
            },
        );
        self.cha.resize(n, 0);
        self.new_counts.resize(n, 0);
        self.bmc.resize(num_vars, 0);
        self.active.resize(num_vars, false);
    }

    /// Number of variables covered.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn num_vars(&self) -> usize {
        self.bmc.len()
    }

    /// Marks a variable as occurring in some clause, making it a decision
    /// candidate at the next [`LitOrder::rebuild`] (and at backtracking
    /// reinsertion).
    pub(crate) fn mark_active(&mut self, var: Var) {
        self.active[var.index()] = true;
    }

    /// Adds `delta` to the initial `cha_score` of `lit` (used while loading
    /// the original formula: the initial value is the literal count). Also
    /// marks the literal's variable active.
    pub(crate) fn add_initial_count(&mut self, lit: Lit, delta: u64) {
        self.cha[lit.code()] += delta;
        self.mark_active(lit.var());
    }

    /// Records the literals of a newly learned conflict clause
    /// (`new_lit_counts` in the paper).
    pub(crate) fn on_learned_clause(&mut self, lits: &[Lit]) {
        for lit in lits {
            self.new_counts[lit.code()] += 1;
        }
    }

    /// Installs the per-variable BMC ranking and enables/disables its use as
    /// the primary key. Callers must [`LitOrder::rebuild`] afterwards.
    pub(crate) fn set_bmc_scores(&mut self, scores: &[u64], use_bmc: bool) {
        assert!(
            scores.len() <= self.bmc.len(),
            "rank table larger than variable range"
        );
        self.bmc[..scores.len()].copy_from_slice(scores);
        for slot in &mut self.bmc[scores.len()..] {
            *slot = 0;
        }
        self.use_bmc = use_bmc;
    }

    /// Returns whether `bmc_score` is currently the primary key.
    pub(crate) fn uses_bmc(&self) -> bool {
        self.use_bmc
    }

    /// Switches to pure VSIDS (the dynamic fallback). Callers must
    /// [`LitOrder::rebuild`] afterwards.
    pub(crate) fn disable_bmc(&mut self) {
        self.use_bmc = false;
    }

    /// Applies the periodic update `cha = cha/2 + new_counts` and clears the
    /// per-period counters. Callers must [`LitOrder::rebuild`] afterwards.
    pub(crate) fn halve_scores(&mut self) {
        for (score, fresh) in self.cha.iter_mut().zip(self.new_counts.iter_mut()) {
            *score = *score / 2 + *fresh;
            *fresh = 0;
        }
    }

    /// Recomputes every key and rebuilds the heap from the literals of
    /// active variables unassigned in `values` (indexed by variable).
    pub(crate) fn rebuild(&mut self, values: &[LBool]) {
        for code in 0..self.key.len() {
            self.key[code] = self.make_key(code);
        }
        self.heap.clear();
        for p in &mut self.pos {
            *p = NOT_IN_HEAP;
        }
        for code in 0..self.key.len() {
            let lit = Lit::from_code(code);
            let v = lit.var().index();
            if self.active[v] && values[v].is_undef() {
                self.pos[code] = self.heap.len() as u32;
                self.heap.push(code as u32);
            }
        }
        if !self.heap.is_empty() {
            for i in (0..self.heap.len() / 2).rev() {
                self.sift_down(i);
            }
        }
    }

    fn make_key(&self, code: usize) -> Key {
        let var_index = code >> 1;
        Key {
            primary: if self.use_bmc { self.bmc[var_index] } else { 0 },
            secondary: self.cha[code],
            code: code as u32,
        }
    }

    /// Inserts both literals of `var` (if absent and the variable is
    /// active). Called when a variable is unassigned during backtracking.
    pub(crate) fn reinsert_var(&mut self, var: Var) {
        if !self.active[var.index()] {
            return;
        }
        for lit in [var.positive(), var.negative()] {
            let code = lit.code();
            if self.pos[code] == NOT_IN_HEAP {
                self.pos[code] = self.heap.len() as u32;
                self.heap.push(code as u32);
                self.sift_up(self.heap.len() - 1);
            }
        }
    }

    /// Pops the unassigned literal with the greatest key (according to
    /// `values`, indexed by variable).
    ///
    /// Literals of assigned variables encountered on the way are discarded
    /// (they are reinserted by [`LitOrder::reinsert_var`] when unassigned).
    pub(crate) fn pop_best(&mut self, values: &[LBool]) -> Option<Lit> {
        while let Some(&top) = self.heap.first() {
            let lit = Lit::from_code(top as usize);
            self.remove_top();
            if values[lit.var().index()].is_undef() {
                return Some(lit);
            }
        }
        None
    }

    fn remove_top(&mut self) {
        let top = self.heap[0];
        self.pos[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("heap is nonempty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let (ci, cp) = (self.heap[i] as usize, self.heap[parent] as usize);
            if self.key[ci].beats(&self.key[cp]) {
                self.heap.swap(i, parent);
                self.pos[ci] = parent as u32;
                self.pos[cp] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            let right = 2 * i + 2;
            let mut best = i;
            if left < self.heap.len()
                && self.key[self.heap[left] as usize].beats(&self.key[self.heap[best] as usize])
            {
                best = left;
            }
            if right < self.heap.len()
                && self.key[self.heap[right] as usize].beats(&self.key[self.heap[best] as usize])
            {
                best = right;
            }
            if best == i {
                break;
            }
            let (ci, cb) = (self.heap[i] as usize, self.heap[best] as usize);
            self.heap.swap(i, best);
            self.pos[ci] = best as u32;
            self.pos[cb] = i as u32;
            i = best;
        }
    }

    /// Exposes the current `cha_score` of a literal (tests, diagnostics).
    #[cfg(test)]
    pub(crate) fn cha_score(&self, lit: Lit) -> u64 {
        self.cha[lit.code()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    /// All `n` variables unassigned.
    fn free(n: usize) -> Vec<LBool> {
        vec![LBool::Undef; n]
    }

    #[test]
    fn pop_order_follows_cha_scores() {
        let mut ord = LitOrder::new(3);
        let v = free(3);
        ord.add_initial_count(lit(1), 5);
        ord.add_initial_count(lit(-2), 9);
        ord.add_initial_count(lit(3), 1);
        ord.rebuild(&v);
        assert_eq!(ord.pop_best(&v), Some(lit(-2)));
        assert_eq!(ord.pop_best(&v), Some(lit(1)));
        assert_eq!(ord.pop_best(&v), Some(lit(3)));
    }

    #[test]
    fn bmc_score_takes_priority_in_static_mode() {
        let mut ord = LitOrder::new(2);
        let v = free(2);
        ord.add_initial_count(lit(1), 100); // huge cha score
        ord.add_initial_count(lit(2), 1);
        ord.set_bmc_scores(&[0, 50], true); // but var 1 is ranked
        ord.rebuild(&v);
        // Both phases of the ranked variable come before the unranked one.
        let first = ord.pop_best(&v).unwrap();
        assert_eq!(first.var(), Var::new(1));
    }

    #[test]
    fn disabling_bmc_restores_vsids() {
        let mut ord = LitOrder::new(2);
        let v = free(2);
        ord.add_initial_count(lit(1), 100);
        ord.mark_active(Var::new(1));
        ord.set_bmc_scores(&[0, 50], true);
        ord.rebuild(&v);
        assert_eq!(ord.pop_best(&v).unwrap().var(), Var::new(1));
        ord.disable_bmc();
        ord.rebuild(&v);
        assert_eq!(ord.pop_best(&v), Some(lit(1)));
    }

    #[test]
    fn halving_applies_paper_formula() {
        let mut ord = LitOrder::new(1);
        ord.add_initial_count(lit(1), 9);
        ord.on_learned_clause(&[lit(1)]);
        ord.on_learned_clause(&[lit(1)]);
        ord.halve_scores();
        // 9/2 + 2 = 6 (integer division).
        assert_eq!(ord.cha_score(lit(1)), 6);
        // Counts are cleared after the update.
        ord.halve_scores();
        assert_eq!(ord.cha_score(lit(1)), 3);
    }

    #[test]
    fn pop_skips_assigned_vars() {
        let mut ord = LitOrder::new(2);
        ord.add_initial_count(lit(1), 10);
        ord.add_initial_count(lit(2), 5);
        let mut v = free(2);
        ord.rebuild(&v);
        // Variable 0 is assigned: its two literals are discarded.
        v[0] = LBool::True;
        let got = ord.pop_best(&v).unwrap();
        assert_eq!(got, lit(2));
    }

    #[test]
    fn reinsert_makes_var_poppable_again() {
        let mut ord = LitOrder::new(2);
        let v = free(2);
        ord.add_initial_count(lit(1), 10);
        ord.rebuild(&v);
        // Discard everything.
        while ord.pop_best(&v).is_some() {}
        assert_eq!(ord.pop_best(&v), None);
        ord.reinsert_var(Var::new(0));
        assert_eq!(ord.pop_best(&v), Some(lit(1)));
    }

    #[test]
    fn deterministic_tiebreak_prefers_smaller_code() {
        let mut ord = LitOrder::new(3);
        let v = free(3);
        for i in 0..3 {
            ord.mark_active(Var::new(i));
        }
        ord.rebuild(&v);
        // All scores equal: positive literal of variable 0 first.
        assert_eq!(ord.pop_best(&v), Some(Var::new(0).positive()));
        assert_eq!(ord.pop_best(&v), Some(Var::new(0).negative()));
        assert_eq!(ord.pop_best(&v), Some(Var::new(1).positive()));
    }

    #[test]
    fn grow_extends_tables() {
        let mut ord = LitOrder::new(1);
        ord.grow(4);
        let v = free(4);
        assert_eq!(ord.num_vars(), 4);
        ord.add_initial_count(lit(4), 3);
        ord.rebuild(&v);
        let mut seen = Vec::new();
        while let Some(l) = ord.pop_best(&v) {
            seen.push(l);
        }
        // Only the active (occurring) variable's literals are candidates.
        assert_eq!(seen, vec![lit(4), lit(-4)]);
    }

    #[test]
    fn inactive_vars_are_never_candidates() {
        let mut ord = LitOrder::new(3);
        let v = free(3);
        ord.add_initial_count(lit(2), 1);
        ord.rebuild(&v);
        assert_eq!(ord.pop_best(&v), Some(lit(2)));
        assert_eq!(ord.pop_best(&v), Some(lit(-2)));
        assert_eq!(ord.pop_best(&v), None);
        // Reinsertion of an inactive variable is a no-op.
        ord.reinsert_var(Var::new(0));
        assert_eq!(ord.pop_best(&v), None);
        ord.reinsert_var(Var::new(1));
        assert_eq!(ord.pop_best(&v), Some(lit(2)));
    }
}
