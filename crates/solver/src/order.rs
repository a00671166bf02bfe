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
//!
//! One episode may decide within a *domain* instead (IC3's per-query cone,
//! after *Deeply Optimizing the SAT Solver for the IC3 Algorithm*): a
//! second heap over the domain's unassigned variables supplies the
//! decisions, and the episode has a model once they are all assigned.
//!
//! The ordering reads the assignment from the solver's value table, which
//! is indexed by literal code: a variable `v` is unassigned when its
//! positive literal, code `2v`, reads `Undef`.

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

/// Whether variable `v` is unassigned in `values`, a value table indexed by
/// literal code (see the module docs).
#[inline]
fn is_unassigned(values: &[LBool], v: usize) -> bool {
    values[2 * v].is_undef()
}

/// An indexed binary max-heap of variables, ordered by keys kept outside
/// it (`key[v]` is variable `v`'s key).
#[derive(Debug, Default)]
struct VarHeap {
    /// Heap of variable indices, ordered by key.
    heap: Vec<u32>,
    /// `pos[var]` = index in `heap`, or `NOT_IN_HEAP`.
    pos: Vec<u32>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl VarHeap {
    fn grow(&mut self, num_vars: usize) {
        self.pos.resize(num_vars, NOT_IN_HEAP);
    }

    fn contains(&self, v: usize) -> bool {
        self.pos[v] != NOT_IN_HEAP
    }

    fn insert(&mut self, v: usize, key: &[Key]) {
        if !self.contains(v) {
            self.pos[v] = self.heap.len() as u32;
            self.heap.push(v as u32);
            self.sift_up(self.heap.len() - 1, key);
        }
    }

    /// Restores heap order around `v`'s entry, if it has one, after its key
    /// changed from `old`.
    fn update(&mut self, v: usize, old: &Key, key: &[Key]) {
        let i = self.pos[v];
        if i != NOT_IN_HEAP {
            if key[v].beats(old) {
                self.sift_up(i as usize, key);
            } else {
                self.sift_down(i as usize, key);
            }
        }
    }

    /// Removes and returns the greatest-key variable.
    fn pop(&mut self, key: &[Key]) -> Option<usize> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("heap is nonempty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, key);
        }
        Some(top as usize)
    }

    /// Empties the heap.
    fn clear(&mut self) {
        for &v in &self.heap {
            self.pos[v as usize] = NOT_IN_HEAP;
        }
        self.heap.clear();
    }

    /// Refills the heap with exactly `vars`, in one heapify.
    fn rebuild(&mut self, vars: impl Iterator<Item = usize>, key: &[Key]) {
        self.clear();
        for v in vars {
            self.pos[v] = self.heap.len() as u32;
            self.heap.push(v as u32);
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, key);
        }
    }

    fn sift_up(&mut self, mut i: usize, key: &[Key]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            let (ci, cp) = (self.heap[i] as usize, self.heap[parent] as usize);
            if key[ci].beats(&key[cp]) {
                self.heap.swap(i, parent);
                self.pos[ci] = parent as u32;
                self.pos[cp] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, key: &[Key]) {
        loop {
            let left = 2 * i + 1;
            let right = 2 * i + 2;
            let mut best = i;
            if left < self.heap.len()
                && key[self.heap[left] as usize].beats(&key[self.heap[best] as usize])
            {
                best = left;
            }
            if right < self.heap.len()
                && key[self.heap[right] as usize].beats(&key[self.heap[best] as usize])
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

    /// Positions and heap order hold, and every position points back at
    /// its variable.
    #[cfg(any(test, feature = "debug-invariants"))]
    fn audit(&self, key: &[Key]) -> Result<(), String> {
        for (i, &v) in self.heap.iter().enumerate() {
            let v = v as usize;
            if self.pos[v] as usize != i {
                return Err(format!(
                    "heap slot {i} holds var {v}, whose pos is {}",
                    self.pos[v]
                ));
            }
            if i > 0 && key[v].beats(&key[self.heap[(i - 1) / 2] as usize]) {
                return Err(format!("heap slot {i} (var {v}) beats its parent"));
            }
        }
        for (v, &p) in self.pos.iter().enumerate() {
            if p != NOT_IN_HEAP && self.heap.get(p as usize) != Some(&(v as u32)) {
                return Err(format!("var {v} has a dangling heap position"));
            }
        }
        Ok(())
    }
}

/// The decision ordering: a max-heap over variables that persists across
/// solve episodes, plus the decision domain of the current episode.
///
/// Each variable's key is the greater of its two literal keys and is kept
/// current in place: every score change refreshes exactly the keys it
/// affects. Entries of assigned variables stay in the heap until they
/// surface at the top; the count of unassigned active variables, not the
/// heap's size, says whether a decision is left to make.
///
/// An episode may restrict its decisions to a *domain*
/// ([`LitOrder::set_domain`]): a second heap, built over the domain's
/// unassigned variables, then supplies every decision, and its own
/// unassigned count says when the episode has a model. The main heap is
/// kept current meanwhile, so the next episode without a domain decides
/// exactly as if there had been none.
pub(crate) struct LitOrder {
    /// Every unassigned active variable, ordered by `key`.
    heap: VarHeap,
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
    /// without a domain, a count of 0 means the assignment is a model.
    unassigned: usize,
    /// Whether the current episode has a domain.
    domain_on: bool,
    /// The domain's active variables; empty without a domain.
    domain: Vec<u32>,
    /// Whether the variable is in the domain (always active).
    in_domain: Vec<bool>,
    /// The domain's unassigned variables, ordered by `key`.
    domain_heap: VarHeap,
    /// Number of domain variables that are unassigned: the domain twin of
    /// `unassigned`.
    domain_unassigned: usize,
}

impl std::fmt::Debug for LitOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LitOrder")
            .field("len", &self.heap.heap.len())
            .field("unassigned", &self.unassigned)
            .field("use_bmc", &self.use_bmc)
            .field("domain", &self.domain.len())
            .finish()
    }
}

impl LitOrder {
    /// Creates an ordering over `num_vars` variables with all-zero scores.
    pub(crate) fn new(num_vars: usize) -> LitOrder {
        let mut order = LitOrder {
            heap: VarHeap::default(),
            key: Vec::new(),
            cha: Vec::new(),
            new_counts: Vec::new(),
            bmc: Vec::new(),
            ranked_len: 0,
            use_bmc: false,
            active: Vec::new(),
            unassigned: 0,
            domain_on: false,
            domain: Vec::new(),
            in_domain: Vec::new(),
            domain_heap: VarHeap::default(),
            domain_unassigned: 0,
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
        self.heap.grow(num_vars);
        self.domain_heap.grow(num_vars);
        self.cha.resize(2 * num_vars, 0);
        self.new_counts.resize(2 * num_vars, 0);
        self.bmc.resize(num_vars, 0);
        self.active.resize(num_vars, false);
        self.in_domain.resize(num_vars, false);
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
            self.heap.insert(v, &self.key);
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

    /// Recomputes every key and rebuilds both heaps from the active (and
    /// domain) variables unassigned in `values`. Needed only after
    /// [`LitOrder::halve_scores`], which changes every `cha_score`.
    pub(crate) fn rebuild(&mut self, values: &[LBool]) {
        debug_assert_eq!(values.len(), 2 * self.key.len());
        for v in 0..self.key.len() {
            self.key[v] = self.make_key(v);
        }
        let candidates =
            (0..self.key.len()).filter(|&v| self.active[v] && is_unassigned(values, v));
        self.heap.rebuild(candidates, &self.key);
        let in_domain = self.domain.iter().map(|&v| v as usize);
        self.domain_heap
            .rebuild(in_domain.filter(|&v| is_unassigned(values, v)), &self.key);
    }

    /// Restricts decisions to `vars`: builds the domain heap over those of
    /// them that are active and unassigned in `values`, and keeps it as
    /// assignments come and go. Until [`LitOrder::clear_domain`],
    /// [`LitOrder::pop_best`] decides only domain variables and reports a
    /// model once they are all assigned.
    pub(crate) fn set_domain(&mut self, vars: &[Var], values: &[LBool]) {
        self.clear_domain();
        self.domain_on = true;
        for var in vars {
            let v = var.index();
            if self.active.get(v) == Some(&true) && !self.in_domain[v] {
                self.in_domain[v] = true;
                self.domain.push(v as u32);
                if is_unassigned(values, v) {
                    self.domain_unassigned += 1;
                }
            }
        }
        let in_domain = self.domain.iter().map(|&v| v as usize);
        self.domain_heap
            .rebuild(in_domain.filter(|&v| is_unassigned(values, v)), &self.key);
    }

    /// Ends the episode's domain, if it has one.
    pub(crate) fn clear_domain(&mut self) {
        for &v in &self.domain {
            self.in_domain[v as usize] = false;
        }
        self.domain.clear();
        self.domain_heap.clear();
        self.domain_unassigned = 0;
        self.domain_on = false;
    }

    /// Whether the episode has a domain and `var` lies outside it.
    #[inline]
    pub(crate) fn outside_domain(&self, var: Var) -> bool {
        self.domain_on && !self.in_domain[var.index()]
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
    /// entries.
    fn refresh(&mut self, v: usize) {
        let old = self.key[v];
        self.key[v] = self.make_key(v);
        self.heap.update(v, &old, &self.key);
        if self.domain_on {
            self.domain_heap.update(v, &old, &self.key);
        }
    }

    /// Records that `var` was assigned. Its heap entries stay until they
    /// surface at the top, where [`LitOrder::pop_best`] discards them.
    #[inline]
    pub(crate) fn note_assigned(&mut self, var: Var) {
        let v = var.index();
        if self.active[v] {
            self.unassigned -= 1;
            // Without a domain, the domain tables are not read.
            if self.domain_on && self.in_domain[v] {
                self.domain_unassigned -= 1;
            }
        }
    }

    /// Records that `var` was unassigned during backtracking, and puts it
    /// back in the heaps whose entry was popped meanwhile.
    pub(crate) fn reinsert_var(&mut self, var: Var) {
        let v = var.index();
        if self.active[v] {
            self.unassigned += 1;
            self.heap.insert(v, &self.key);
            if self.domain_on && self.in_domain[v] {
                self.domain_unassigned += 1;
                self.domain_heap.insert(v, &self.key);
            }
        }
    }

    /// Pops the greatest-key literal over the active variables unassigned
    /// in `values`, or returns `None` when every
    /// active variable is assigned. With a domain set, both are over the
    /// domain's variables only.
    ///
    /// Entries of assigned variables met on the way are discarded (they are
    /// reinserted by [`LitOrder::reinsert_var`] when unassigned).
    pub(crate) fn pop_best(&mut self, values: &[LBool]) -> Option<Lit> {
        let (heap, unassigned) = if self.domain_on {
            (&mut self.domain_heap, self.domain_unassigned)
        } else {
            (&mut self.heap, self.unassigned)
        };
        if unassigned == 0 {
            return None;
        }
        loop {
            let v = heap
                .pop(&self.key)
                .expect("every unassigned candidate is in the heap");
            if is_unassigned(values, v) {
                return Some(Lit::from_code(self.key[v].code as usize));
            }
        }
    }

    /// Checks both heaps against a recomputation from the scores and
    /// `values`: positions and heap order hold, every
    /// cached key is current, every unassigned active variable has an
    /// entry in the main heap and every unassigned domain variable one in
    /// the domain heap, which holds nothing else, and both unassigned
    /// counts match a recount.
    #[cfg(any(test, feature = "debug-invariants"))]
    pub(crate) fn audit(&self, values: &[LBool]) -> Result<(), String> {
        self.heap.audit(&self.key)?;
        self.domain_heap
            .audit(&self.key)
            .map_err(|e| format!("domain {e}"))?;
        if values.len() != 2 * self.key.len() {
            return Err(format!(
                "{} literal values for {} vars",
                values.len(),
                self.key.len()
            ));
        }
        let (mut unassigned, mut domain_unassigned, mut domain_size) = (0, 0, 0);
        for v in 0..self.key.len() {
            if self.key[v] != self.make_key(v) {
                return Err(format!("var {v} caches a stale key"));
            }
            let free = is_unassigned(values, v);
            if self.active[v] && free {
                unassigned += 1;
                if !self.heap.contains(v) {
                    return Err(format!(
                        "unassigned active var {v} is missing from the heap"
                    ));
                }
            }
            if self.in_domain[v] {
                domain_size += 1;
                if !self.active[v] {
                    return Err(format!("domain var {v} is not active"));
                }
                if free {
                    domain_unassigned += 1;
                    if !self.domain_heap.contains(v) {
                        return Err(format!(
                            "unassigned domain var {v} is missing from the domain heap"
                        ));
                    }
                }
            } else if self.domain_heap.contains(v) {
                return Err(format!("var {v} is in the domain heap but not the domain"));
            }
        }
        if unassigned != self.unassigned {
            return Err(format!(
                "unassigned count {} but {unassigned} unassigned active vars",
                self.unassigned
            ));
        }
        if domain_size != self.domain.len() || (!self.domain_on && domain_size != 0) {
            return Err(format!(
                "{domain_size} vars marked in a domain of {} (on: {})",
                self.domain.len(),
                self.domain_on
            ));
        }
        if domain_unassigned != self.domain_unassigned {
            return Err(format!(
                "domain unassigned count {} but {domain_unassigned} unassigned domain vars",
                self.domain_unassigned
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

    /// All `n` variables unassigned, in a table indexed by literal code.
    fn free(n: usize) -> Vec<LBool> {
        vec![LBool::Undef; 2 * n]
    }

    /// Makes `lit` true in `values`, as the solver's `enqueue` does.
    fn set_true(values: &mut [LBool], lit: Lit) {
        values[lit.code()] = LBool::True;
        values[(!lit).code()] = LBool::False;
    }

    /// Makes `var` unassigned in `values`.
    fn set_free(values: &mut [LBool], var: Var) {
        values[var.positive().code()] = LBool::Undef;
        values[var.negative().code()] = LBool::Undef;
    }

    /// Pops the next decision and assigns it, as the solver does.
    fn decide(ord: &mut LitOrder, values: &mut [LBool]) -> Option<Lit> {
        let lit = ord.pop_best(values)?;
        set_true(values, lit);
        ord.note_assigned(lit.var());
        Some(lit)
    }

    /// Unassigns `var`, as backtracking does.
    fn unassign(ord: &mut LitOrder, values: &mut [LBool], var: Var) {
        set_free(values, var);
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
        set_true(&mut v, lit(1));
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
    /// assignments, backtracks and domains set and cleared must never make
    /// the two choose differently, and the heap must audit clean after
    /// every step.
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
                match rng.gen_range(0..11u32) {
                    0 => {
                        // Clauses are loaded at the root, as `add_clause`
                        // backtracks to level 0 first.
                        for var in trail.drain(..).rev() {
                            set_free(&mut values, var);
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
                        if is_unassigned(&values, var.index()) {
                            set_true(&mut values, var.lit(rng.gen_bool(0.5)));
                            live.note_assigned(var);
                            reference.note_assigned(var);
                            trail.push(var);
                        }
                    }
                    5 => {
                        let keep = rng.gen_range(0..=trail.len());
                        for var in trail.drain(keep..).rev() {
                            set_free(&mut values, var);
                            live.reinsert_var(var);
                            reference.reinsert_var(var);
                        }
                    }
                    6 => {
                        // A domain over random variables, assigned or not,
                        // active or not.
                        let domain: Vec<Var> = (0..rng.gen_range(0..=n))
                            .map(|_| Var::new(rng.gen_range(0..n)))
                            .collect();
                        live.set_domain(&domain, &values);
                        reference.set_domain(&domain, &values);
                    }
                    7 => {
                        live.clear_domain();
                        reference.clear_domain();
                    }
                    _ => {
                        reference.rebuild(&values);
                        let want = reference.pop_best(&values);
                        assert_eq!(live.pop_best(&values), want, "seed {seed}");
                        if let Some(l) = want {
                            set_true(&mut values, l);
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
