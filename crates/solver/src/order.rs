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
//! The next decision is the literal with the greatest key among the literals
//! of unassigned active variables. The max-heap holds one entry per variable,
//! keyed by the greater of its two literal keys, and lives across solve
//! episodes: loading a clause, installing a ranking and the dynamic switch
//! each refresh just the keys they change, in place. Only a halving, which
//! changes every `cha_score`, rebuilds the heap whole. Keys form a strict
//! total order (the literal code breaks ties), so the choice depends on the
//! candidates and their keys alone, never on the heap's layout.

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
/// deterministic tiebreaker (lower literal code wins). A variable's heap
/// entry carries the key of its better literal.
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

/// Indexed binary max-heap over variables that persists across solve
/// episodes.
///
/// Each variable's key is the greater of its two literal keys and is kept
/// current in place: every score change refreshes exactly the keys it
/// affects. Entries of assigned variables stay in the heap until they
/// surface at the top; the count of unassigned active variables, not the
/// heap's size, says whether a decision is left to make.
pub(crate) struct LitOrder {
    /// Heap of variable indices, ordered by `key`.
    heap: Vec<u32>,
    /// `pos[var]` = index in `heap`, or `NOT_IN_HEAP`.
    pos: Vec<u32>,
    /// Decision key per variable: the key of its better literal.
    key: Vec<Key>,
    /// Current `cha_score` per literal code.
    cha: Vec<u64>,
    /// Conflict-clause literal counts since the last halving.
    new_counts: Vec<u64>,
    /// Externally supplied per-variable ranking (the BMC refinement).
    bmc: Vec<u64>,
    /// Length of the installed ranking; `bmc` is zero from here on.
    ranked_len: usize,
    /// Whether `bmc` participates as the primary key.
    use_bmc: bool,
    /// Whether the variable occurs in some clause. Reserved-but-unused
    /// variables (an incremental session reserves the whole future variable
    /// range up front) are never decision candidates: no clause constrains
    /// them, so any model extends to them trivially.
    active: Vec<bool>,
    /// Number of active variables that are unassigned. At a decision point
    /// a count of 0 means the assignment is a model.
    unassigned: usize,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl std::fmt::Debug for LitOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LitOrder")
            .field("len", &self.heap.len())
            .field("unassigned", &self.unassigned)
            .field("use_bmc", &self.use_bmc)
            .finish()
    }
}

impl LitOrder {
    /// Creates an ordering over `num_vars` variables with all-zero scores.
    pub(crate) fn new(num_vars: usize) -> LitOrder {
        let mut order = LitOrder {
            heap: Vec::new(),
            pos: Vec::new(),
            key: Vec::new(),
            cha: Vec::new(),
            new_counts: Vec::new(),
            bmc: Vec::new(),
            ranked_len: 0,
            use_bmc: false,
            active: Vec::new(),
            unassigned: 0,
        };
        order.grow(num_vars);
        order
    }

    /// Grows the ordering to cover `num_vars` variables.
    pub(crate) fn grow(&mut self, num_vars: usize) {
        let old = self.bmc.len();
        if num_vars <= old {
            return;
        }
        self.pos.resize(num_vars, NOT_IN_HEAP);
        self.cha.resize(2 * num_vars, 0);
        self.new_counts.resize(2 * num_vars, 0);
        self.bmc.resize(num_vars, 0);
        self.active.resize(num_vars, false);
        // One reservation, as `resize` makes for the other tables: sessions
        // grow by whole frames, and push-by-push growth would reallocate.
        self.key.reserve(num_vars - old);
        for v in old..num_vars {
            let key = self.make_key(v);
            self.key.push(key);
        }
    }

    /// Number of variables covered.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn num_vars(&self) -> usize {
        self.bmc.len()
    }

    /// Marks a variable as occurring in some clause. A newly active
    /// variable is a decision candidate at once: it enters the heap and the
    /// unassigned count. Clauses are loaded at decision level 0, where a
    /// variable that no clause mentioned before is unassigned.
    fn mark_active(&mut self, var: Var) {
        let v = var.index();
        if !self.active[v] {
            self.active[v] = true;
            self.unassigned += 1;
            self.insert(v);
        }
    }

    /// Adds `delta` to the initial `cha_score` of `lit` (used while loading
    /// the original formula: the initial value is the literal count). Also
    /// marks the literal's variable active.
    pub(crate) fn add_initial_count(&mut self, lit: Lit, delta: u64) {
        self.cha[lit.code()] += delta;
        self.refresh(lit.var().index());
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
    /// the primary key. Only the variables whose primary key changed are
    /// refreshed.
    pub(crate) fn set_bmc_scores(&mut self, scores: &[u64], use_bmc: bool) {
        assert!(
            scores.len() <= self.bmc.len(),
            "rank table larger than variable range"
        );
        let was = self.use_bmc;
        self.use_bmc = use_bmc;
        // Past both the old and the new table every score is 0.
        for v in 0..self.ranked_len.max(scores.len()) {
            let before = if was { self.bmc[v] } else { 0 };
            self.bmc[v] = scores.get(v).copied().unwrap_or(0);
            if self.primary(v) != before {
                self.refresh(v);
            }
        }
        self.ranked_len = scores.len();
    }

    /// Returns whether `bmc_score` is currently the primary key.
    pub(crate) fn uses_bmc(&self) -> bool {
        self.use_bmc
    }

    /// Switches to pure VSIDS (the dynamic fallback), refreshing the ranked
    /// variables, the only ones whose key changes.
    pub(crate) fn disable_bmc(&mut self) {
        self.use_bmc = false;
        for v in 0..self.ranked_len {
            if self.bmc[v] != 0 {
                self.refresh(v);
            }
        }
    }

    /// Applies the periodic update `cha = cha/2 + new_counts` and clears the
    /// per-period counters. Callers must [`LitOrder::rebuild`] afterwards.
    pub(crate) fn halve_scores(&mut self) {
        for (score, fresh) in self.cha.iter_mut().zip(self.new_counts.iter_mut()) {
            *score = *score / 2 + *fresh;
            *fresh = 0;
        }
    }

    /// Recomputes every key and rebuilds the heap from the active variables
    /// unassigned in `values` (indexed by variable). Needed only after
    /// [`LitOrder::halve_scores`], which changes every `cha_score`.
    pub(crate) fn rebuild(&mut self, values: &[LBool]) {
        debug_assert_eq!(values.len(), self.key.len());
        self.heap.clear();
        for (v, value) in values.iter().enumerate() {
            self.key[v] = self.make_key(v);
            if self.active[v] && value.is_undef() {
                self.pos[v] = self.heap.len() as u32;
                self.heap.push(v as u32);
            } else {
                self.pos[v] = NOT_IN_HEAP;
            }
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// The primary key of variable `v`: its `bmc_score` while the ranking
    /// is in use, else 0.
    fn primary(&self, v: usize) -> u64 {
        if self.use_bmc {
            self.bmc[v]
        } else {
            0
        }
    }

    /// The key of variable `v`'s better literal: more `cha_score`, the
    /// positive literal (the smaller code) on a tie.
    fn make_key(&self, v: usize) -> Key {
        let positive = Var::new(v).positive().code();
        let code = if self.cha[positive + 1] > self.cha[positive] {
            positive + 1
        } else {
            positive
        };
        Key {
            primary: self.primary(v),
            secondary: self.cha[code],
            code: code as u32,
        }
    }

    /// Recomputes variable `v`'s key and restores heap order around its
    /// entry, if it has one.
    fn refresh(&mut self, v: usize) {
        let old = self.key[v];
        let new = self.make_key(v);
        self.key[v] = new;
        let i = self.pos[v];
        if i != NOT_IN_HEAP {
            if new.beats(&old) {
                self.sift_up(i as usize);
            } else {
                self.sift_down(i as usize);
            }
        }
    }

    /// Records that `var` was assigned. Its heap entry stays until it
    /// surfaces at the top, where [`LitOrder::pop_best`] discards it.
    #[inline]
    pub(crate) fn note_assigned(&mut self, var: Var) {
        if self.active[var.index()] {
            self.unassigned -= 1;
        }
    }

    /// Records that `var` was unassigned during backtracking, and puts it
    /// back in the heap if its entry was popped meanwhile.
    pub(crate) fn reinsert_var(&mut self, var: Var) {
        let v = var.index();
        if self.active[v] {
            self.unassigned += 1;
            self.insert(v);
        }
    }

    fn insert(&mut self, v: usize) {
        if self.pos[v] == NOT_IN_HEAP {
            self.pos[v] = self.heap.len() as u32;
            self.heap.push(v as u32);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Pops the greatest-key literal over the active variables unassigned
    /// in `values` (indexed by variable), or returns `None` when every
    /// active variable is assigned.
    ///
    /// Entries of assigned variables met on the way are discarded (they are
    /// reinserted by [`LitOrder::reinsert_var`] when unassigned).
    pub(crate) fn pop_best(&mut self, values: &[LBool]) -> Option<Lit> {
        if self.unassigned == 0 {
            return None;
        }
        loop {
            let v = *self
                .heap
                .first()
                .expect("every unassigned active variable is in the heap")
                as usize;
            self.remove_top();
            if values[v].is_undef() {
                return Some(Lit::from_code(self.key[v].code as usize));
            }
        }
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

    /// Checks the heap against a recomputation from the scores and
    /// `values` (indexed by variable): positions and heap order hold, every
    /// cached key is current, every unassigned active variable has an
    /// entry, and the unassigned count matches a recount.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn audit(&self, values: &[LBool]) -> Result<(), String> {
        for (i, &v) in self.heap.iter().enumerate() {
            let v = v as usize;
            if self.pos[v] as usize != i {
                return Err(format!(
                    "heap slot {i} holds var {v}, whose pos is {}",
                    self.pos[v]
                ));
            }
            if i > 0 && self.key[v].beats(&self.key[self.heap[(i - 1) / 2] as usize]) {
                return Err(format!("heap slot {i} (var {v}) beats its parent"));
            }
        }
        if values.len() != self.key.len() {
            return Err(format!(
                "{} values for {} vars",
                values.len(),
                self.key.len()
            ));
        }
        let mut unassigned = 0;
        for (v, value) in values.iter().enumerate() {
            if self.key[v] != self.make_key(v) {
                return Err(format!("var {v} caches a stale key"));
            }
            if self.pos[v] != NOT_IN_HEAP
                && self.heap.get(self.pos[v] as usize) != Some(&(v as u32))
            {
                return Err(format!("var {v} has a dangling heap position"));
            }
            if self.active[v] && value.is_undef() {
                unassigned += 1;
                if self.pos[v] == NOT_IN_HEAP {
                    return Err(format!(
                        "unassigned active var {v} is missing from the heap"
                    ));
                }
            }
        }
        if unassigned != self.unassigned {
            return Err(format!(
                "unassigned count {} but {unassigned} unassigned active vars",
                self.unassigned
            ));
        }
        Ok(())
    }

    /// Exposes the current `cha_score` of a literal (tests, diagnostics).
    #[cfg(test)]
    pub(crate) fn cha_score(&self, lit: Lit) -> u64 {
        self.cha[lit.code()]
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    /// All `n` variables unassigned.
    fn free(n: usize) -> Vec<LBool> {
        vec![LBool::Undef; n]
    }

    /// Pops the next decision and assigns it, as the solver does.
    fn decide(ord: &mut LitOrder, values: &mut [LBool]) -> Option<Lit> {
        let lit = ord.pop_best(values)?;
        values[lit.var().index()] = LBool::from(lit.is_positive());
        ord.note_assigned(lit.var());
        Some(lit)
    }

    /// Unassigns `var`, as backtracking does.
    fn unassign(ord: &mut LitOrder, values: &mut [LBool], var: Var) {
        values[var.index()] = LBool::Undef;
        ord.reinsert_var(var);
    }

    #[test]
    fn pop_order_follows_cha_scores() {
        let mut ord = LitOrder::new(3);
        let mut v = free(3);
        ord.add_initial_count(lit(1), 5);
        ord.add_initial_count(lit(-2), 9);
        ord.add_initial_count(lit(3), 1);
        assert_eq!(decide(&mut ord, &mut v), Some(lit(-2)));
        assert_eq!(decide(&mut ord, &mut v), Some(lit(1)));
        assert_eq!(decide(&mut ord, &mut v), Some(lit(3)));
        assert_eq!(decide(&mut ord, &mut v), None);
    }

    #[test]
    fn bmc_score_takes_priority_in_static_mode() {
        let mut ord = LitOrder::new(2);
        let mut v = free(2);
        ord.add_initial_count(lit(1), 100); // huge cha score
        ord.add_initial_count(lit(2), 1);
        ord.set_bmc_scores(&[0, 50], true); // but var 1 is ranked
        let first = decide(&mut ord, &mut v).unwrap();
        assert_eq!(first.var(), Var::new(1));
    }

    #[test]
    fn disabling_bmc_restores_vsids() {
        let mut ord = LitOrder::new(2);
        let mut v = free(2);
        ord.add_initial_count(lit(1), 100);
        ord.mark_active(Var::new(1));
        ord.set_bmc_scores(&[0, 50], true);
        assert_eq!(decide(&mut ord, &mut v), Some(lit(2)));
        // The switch refreshes the ranked variable's key while it is
        // assigned and out of the heap; reinsertion uses the new key.
        ord.disable_bmc();
        unassign(&mut ord, &mut v, Var::new(1));
        assert_eq!(decide(&mut ord, &mut v), Some(lit(1)));
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
        // Variable 0 is assigned (say, by propagation): its entry is
        // discarded on the way to variable 1.
        v[0] = LBool::True;
        ord.note_assigned(Var::new(0));
        assert_eq!(decide(&mut ord, &mut v), Some(lit(2)));
        assert_eq!(decide(&mut ord, &mut v), None);
    }

    #[test]
    fn reinsert_makes_var_poppable_again() {
        let mut ord = LitOrder::new(2);
        let mut v = free(2);
        ord.add_initial_count(lit(1), 10);
        assert_eq!(decide(&mut ord, &mut v), Some(lit(1)));
        assert_eq!(decide(&mut ord, &mut v), None);
        unassign(&mut ord, &mut v, Var::new(0));
        assert_eq!(decide(&mut ord, &mut v), Some(lit(1)));
    }

    #[test]
    fn deterministic_tiebreak_prefers_smaller_code() {
        let mut ord = LitOrder::new(3);
        let mut v = free(3);
        for i in 0..3 {
            ord.mark_active(Var::new(i));
        }
        // All scores equal: the positive literal beats the negative one of
        // the same variable, and smaller variables come first.
        assert_eq!(decide(&mut ord, &mut v), Some(Var::new(0).positive()));
        assert_eq!(decide(&mut ord, &mut v), Some(Var::new(1).positive()));
        assert_eq!(decide(&mut ord, &mut v), Some(Var::new(2).positive()));
        assert_eq!(decide(&mut ord, &mut v), None);
    }

    #[test]
    fn grow_extends_tables() {
        let mut ord = LitOrder::new(1);
        ord.grow(4);
        let mut v = free(4);
        assert_eq!(ord.num_vars(), 4);
        ord.add_initial_count(lit(4), 3);
        // Only the active (occurring) variable is a candidate.
        assert_eq!(decide(&mut ord, &mut v), Some(lit(4)));
        assert_eq!(decide(&mut ord, &mut v), None);
        // A grown variable's key names its own positive literal.
        ord.mark_active(Var::new(1));
        assert_eq!(decide(&mut ord, &mut v), Some(lit(2)));
    }

    #[test]
    fn inactive_vars_are_never_candidates() {
        let mut ord = LitOrder::new(3);
        let mut v = free(3);
        ord.add_initial_count(lit(2), 1);
        assert_eq!(decide(&mut ord, &mut v), Some(lit(2)));
        assert_eq!(decide(&mut ord, &mut v), None);
        // Reinsertion of an inactive variable is a no-op.
        ord.reinsert_var(Var::new(0));
        assert_eq!(decide(&mut ord, &mut v), None);
        unassign(&mut ord, &mut v, Var::new(1));
        assert_eq!(decide(&mut ord, &mut v), Some(lit(2)));
    }

    /// The persistent heap against a reference that rebuilds before every
    /// pop: random score updates, rankings, switches, halvings,
    /// assignments and backtracks must never make the two choose
    /// differently, and the heap must audit clean after every step.
    #[test]
    fn persistent_heap_matches_a_rebuilt_reference() {
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..24usize);
            let mut live = LitOrder::new(n);
            let mut reference = LitOrder::new(n);
            let mut values = free(n);
            let mut trail: Vec<Var> = Vec::new();
            let random_lit =
                |rng: &mut StdRng| Lit::new(Var::new(rng.gen_range(0..n)), rng.gen_bool(0.5));
            for _ in 0..300 {
                match rng.gen_range(0..9u32) {
                    0 => {
                        // Clauses are loaded at the root, as `add_clause`
                        // backtracks to level 0 first.
                        for var in trail.drain(..).rev() {
                            values[var.index()] = LBool::Undef;
                            live.reinsert_var(var);
                            reference.reinsert_var(var);
                        }
                        let l = random_lit(&mut rng);
                        let delta = rng.gen_range(1..4u64);
                        live.add_initial_count(l, delta);
                        reference.add_initial_count(l, delta);
                    }
                    1 => {
                        let len = rng.gen_range(0..=n);
                        let scores: Vec<u64> = (0..len).map(|_| rng.gen_range(0..4u64)).collect();
                        let use_bmc = rng.gen_bool(0.7);
                        live.set_bmc_scores(&scores, use_bmc);
                        reference.set_bmc_scores(&scores, use_bmc);
                    }
                    2 => {
                        live.disable_bmc();
                        reference.disable_bmc();
                    }
                    3 => {
                        let learned: Vec<Lit> = (0..3).map(|_| random_lit(&mut rng)).collect();
                        for ord in [&mut live, &mut reference] {
                            ord.on_learned_clause(&learned);
                            ord.halve_scores();
                        }
                        live.rebuild(&values);
                    }
                    4 => {
                        // An implied or assumed assignment, active or not.
                        let var = Var::new(rng.gen_range(0..n));
                        if values[var.index()].is_undef() {
                            values[var.index()] = LBool::from(rng.gen_bool(0.5));
                            live.note_assigned(var);
                            reference.note_assigned(var);
                            trail.push(var);
                        }
                    }
                    5 => {
                        let keep = rng.gen_range(0..=trail.len());
                        for var in trail.drain(keep..).rev() {
                            values[var.index()] = LBool::Undef;
                            live.reinsert_var(var);
                            reference.reinsert_var(var);
                        }
                    }
                    _ => {
                        reference.rebuild(&values);
                        let want = reference.pop_best(&values);
                        assert_eq!(live.pop_best(&values), want, "seed {seed}");
                        if let Some(l) = want {
                            values[l.var().index()] = LBool::from(l.is_positive());
                            live.note_assigned(l.var());
                            reference.note_assigned(l.var());
                            trail.push(l.var());
                        }
                    }
                }
                live.audit(&values)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
        }
    }
}
