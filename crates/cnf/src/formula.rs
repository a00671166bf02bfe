//! Whole CNF formulas, stored flat.

use std::fmt;
use std::ops::Range;

use crate::clause::ClauseView;
use crate::{Clause, Lit, Var};

/// A CNF formula: a conjunction of clauses over a dense variable range.
///
/// Clauses are stored **flat** — one contiguous literal array plus one end
/// offset per clause — so appending a clause is two `Vec` appends and cloning
/// a formula is two `memcpy`s, with no per-clause allocation. Clause access
/// goes through borrowed [`ClauseView`]s (and the [`Clauses`] range view), so
/// the familiar clause-level API is preserved without materializing owned
/// [`Clause`]s.
///
/// The formula tracks how many variables exist; [`CnfFormula::add_clause`]
/// automatically grows the range to cover the literals it sees, and
/// [`CnfFormula::new_var`] reserves a fresh variable explicitly.
///
/// # Examples
///
/// ```
/// use rbmc_cnf::CnfFormula;
///
/// let mut f = CnfFormula::new();
/// let a = f.new_var();
/// let b = f.new_var();
/// f.add_clause([a.positive(), b.positive()]);
/// f.add_clause([a.negative()]);
/// assert_eq!(f.num_vars(), 2);
/// assert_eq!(f.num_clauses(), 2);
/// assert_eq!(f.num_literals(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CnfFormula {
    num_vars: usize,
    /// Concatenated literals of all clauses, in insertion order.
    lits: Vec<Lit>,
    /// `ends[i]` is the end offset in `lits` of clause `i` (its start is
    /// `ends[i - 1]`, or 0).
    ends: Vec<u32>,
}

impl CnfFormula {
    /// Creates an empty formula with no variables and no clauses.
    ///
    /// An empty conjunction is trivially satisfiable.
    pub fn new() -> CnfFormula {
        CnfFormula::default()
    }

    /// Creates an empty formula that already has `num_vars` variables.
    pub fn with_vars(num_vars: usize) -> CnfFormula {
        CnfFormula {
            num_vars,
            lits: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Reserves and returns a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let var = Var::new(self.num_vars);
        self.num_vars += 1;
        var
    }

    /// Grows the variable range to at least `num_vars` (no-op if the formula
    /// already has that many variables).
    pub fn ensure_vars(&mut self, num_vars: usize) {
        self.num_vars = self.num_vars.max(num_vars);
    }

    /// Returns the number of variables (the valid indices are `0..num_vars`).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Returns the number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Returns the total number of literal occurrences over all clauses.
    ///
    /// This is the paper's "number of original literals": the dynamic
    /// configuration of §3.3 switches back to VSIDS once the number of
    /// decisions exceeds `num_literals / 64`.
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }

    /// Appends a clause, growing the variable range to cover its literals.
    ///
    /// The clause is stored as given (no normalization); an empty clause makes
    /// the formula trivially unsatisfiable. Accepts anything that exposes a
    /// literal slice: arrays, `Vec<Lit>`, [`Clause`], [`ClauseView`], …
    pub fn add_clause<C: AsRef<[Lit]>>(&mut self, clause: C) {
        let lits = clause.as_ref();
        for lit in lits {
            self.num_vars = self.num_vars.max(lit.var().index() + 1);
        }
        self.lits.extend_from_slice(lits);
        debug_assert!(self.lits.len() <= u32::MAX as usize, "formula too large");
        self.ends.push(self.lits.len() as u32);
    }

    /// The start offset of clause `index` in the flat literal array.
    #[inline]
    fn start(&self, index: usize) -> usize {
        if index == 0 {
            0
        } else {
            self.ends[index - 1] as usize
        }
    }

    /// Returns a borrowed view of the clause at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_clauses()`.
    pub fn clause(&self, index: usize) -> ClauseView<'_> {
        ClauseView::new(&self.lits[self.start(index)..self.ends[index] as usize])
    }

    /// Iterates over the clauses in insertion order.
    pub fn iter(&self) -> ClausesIter<'_> {
        self.clauses().into_iter()
    }

    /// Returns a range view over all clauses.
    pub fn clauses(&self) -> Clauses<'_> {
        self.clauses_in(0..self.num_clauses())
    }

    /// Returns a range view over the clauses at `range` (insertion order).
    ///
    /// This lends contiguous clause runs without copying — the zero-copy
    /// path incremental consumers (the unroller's frame deltas) are built on.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn clauses_in(&self, range: Range<usize>) -> Clauses<'_> {
        let base = self.start(range.start) as u32;
        Clauses {
            lits: &self.lits,
            ends: &self.ends[range],
            base,
        }
    }

    /// Evaluates the formula under a total assignment (`assignment[v]` is the
    /// value of variable `v`).
    ///
    /// Returns `None` if `assignment` is shorter than [`Self::num_vars`] or
    /// mentions none for a used variable.
    pub fn evaluate(&self, assignment: &[bool]) -> Option<bool> {
        let mut value = true;
        for clause in self {
            value &= clause.evaluate(assignment)?;
        }
        Some(value)
    }

    /// Evaluates the formula under a partial assignment.
    ///
    /// Returns `Some(false)` if some clause is falsified, `Some(true)` if all
    /// clauses are satisfied, and `None` otherwise.
    pub fn evaluate_partial(&self, assignment: &[Option<bool>]) -> Option<bool> {
        let mut all_true = true;
        for clause in self {
            match clause.evaluate_partial(assignment) {
                Some(false) => return Some(false),
                Some(true) => {}
                None => all_true = false,
            }
        }
        if all_true {
            Some(true)
        } else {
            None
        }
    }

    /// Returns the sub-formula formed by the clauses at the given indices,
    /// over the same variable range.
    ///
    /// This is how an unsatisfiable core (a set of original clause indices
    /// reported by the solver) is turned back into a formula, e.g. to re-check
    /// that the core alone is unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subformula(&self, clause_indices: &[usize]) -> CnfFormula {
        let mut sub = CnfFormula::with_vars(self.num_vars);
        for &i in clause_indices {
            sub.add_clause(self.clause(i));
        }
        sub
    }
}

impl<'a> IntoIterator for &'a CnfFormula {
    type Item = ClauseView<'a>;
    type IntoIter = ClausesIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Extend<Clause> for CnfFormula {
    fn extend<I: IntoIterator<Item = Clause>>(&mut self, iter: I) {
        for clause in iter {
            self.add_clause(clause);
        }
    }
}

impl FromIterator<Clause> for CnfFormula {
    fn from_iter<I: IntoIterator<Item = Clause>>(iter: I) -> CnfFormula {
        let mut f = CnfFormula::new();
        f.extend(iter);
        f
    }
}

impl fmt::Debug for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CnfFormula")
            .field("num_vars", &self.num_vars)
            .field("clauses", &self.clauses())
            .finish()
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ends.is_empty() {
            return write!(f, "⊤");
        }
        for (i, clause) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{clause}")?;
        }
        Ok(())
    }
}

/// A borrowed, contiguous run of clauses inside a [`CnfFormula`].
///
/// Compares by clause content (not by position in the parent formula), so two
/// views over different formulas are equal iff they hold the same clauses.
///
/// # Examples
///
/// ```
/// use rbmc_cnf::parse_dimacs;
///
/// let f = parse_dimacs("p cnf 3 3\n1 0\n2 3 0\n-1 0\n")?;
/// let mid = f.clauses_in(1..3);
/// assert_eq!(mid.len(), 2);
/// assert_eq!(mid.get(0), f.clause(1));
/// # Ok::<(), rbmc_cnf::ParseDimacsError>(())
/// ```
#[derive(Clone, Copy)]
pub struct Clauses<'a> {
    /// The parent formula's full literal array.
    lits: &'a [Lit],
    /// End offsets of the clauses in this run.
    ends: &'a [u32],
    /// Start offset of the first clause in the run.
    base: u32,
}

impl<'a> Clauses<'a> {
    /// Number of clauses in the run.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the run holds no clauses.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th clause of the run.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> ClauseView<'a> {
        let start = if i == 0 { self.base } else { self.ends[i - 1] } as usize;
        ClauseView::new(&self.lits[start..self.ends[i] as usize])
    }

    /// Iterates over the clauses of the run.
    pub fn iter(&self) -> ClausesIter<'a> {
        ClausesIter {
            lits: self.lits,
            ends: self.ends.iter(),
            start: self.base,
        }
    }
}

impl PartialEq for Clauses<'_> {
    fn eq(&self, other: &Clauses<'_>) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for Clauses<'_> {}

impl fmt::Debug for Clauses<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Clauses<'a> {
    type Item = ClauseView<'a>;
    type IntoIter = ClausesIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &Clauses<'a> {
    type Item = ClauseView<'a>;
    type IntoIter = ClausesIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the clauses of a [`Clauses`] run (and of a whole
/// [`CnfFormula`]).
#[derive(Clone, Debug)]
pub struct ClausesIter<'a> {
    lits: &'a [Lit],
    ends: std::slice::Iter<'a, u32>,
    start: u32,
}

impl<'a> Iterator for ClausesIter<'a> {
    type Item = ClauseView<'a>;

    fn next(&mut self) -> Option<ClauseView<'a>> {
        let &end = self.ends.next()?;
        let start = self.start as usize;
        self.start = end;
        Some(ClauseView::new(&self.lits[start..end as usize]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for ClausesIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn clause(ns: &[i64]) -> Clause {
        ns.iter().map(|&n| Lit::from_dimacs(n)).collect()
    }

    #[test]
    fn empty_formula_is_true() {
        let f = CnfFormula::new();
        assert_eq!(f.evaluate(&[]), Some(true));
        assert_eq!(f.to_string(), "⊤");
    }

    #[test]
    fn add_clause_grows_vars() {
        let mut f = CnfFormula::new();
        f.add_clause(clause(&[5]));
        assert_eq!(f.num_vars(), 5);
        f.add_clause(clause(&[-2]));
        assert_eq!(f.num_vars(), 5);
    }

    #[test]
    fn ensure_vars_only_grows() {
        let mut f = CnfFormula::with_vars(3);
        f.ensure_vars(7);
        assert_eq!(f.num_vars(), 7);
        f.ensure_vars(2);
        assert_eq!(f.num_vars(), 7);
    }

    #[test]
    fn literal_count_accumulates() {
        let mut f = CnfFormula::new();
        f.add_clause(clause(&[1, 2, 3]));
        f.add_clause(clause(&[-1, -2]));
        assert_eq!(f.num_literals(), 5);
    }

    #[test]
    fn evaluation_conjunction() {
        let mut f = CnfFormula::new();
        f.add_clause(clause(&[1, 2]));
        f.add_clause(clause(&[-1, 2]));
        assert_eq!(f.evaluate(&[true, true]), Some(true));
        assert_eq!(f.evaluate(&[true, false]), Some(false));
        assert_eq!(f.evaluate(&[false, false]), Some(false));
    }

    #[test]
    fn partial_evaluation_three_valued() {
        let mut f = CnfFormula::new();
        f.add_clause(clause(&[1, 2]));
        f.add_clause(clause(&[-1]));
        assert_eq!(f.evaluate_partial(&[Some(true), None]), Some(false));
        assert_eq!(f.evaluate_partial(&[Some(false), None]), None);
        assert_eq!(f.evaluate_partial(&[Some(false), Some(true)]), Some(true));
    }

    #[test]
    fn subformula_selects_clauses() {
        let mut f = CnfFormula::new();
        f.add_clause(clause(&[1]));
        f.add_clause(clause(&[2]));
        f.add_clause(clause(&[3]));
        let sub = f.subformula(&[0, 2]);
        assert_eq!(sub.num_clauses(), 2);
        assert_eq!(sub.num_vars(), f.num_vars());
        assert_eq!(sub.clause(0), f.clause(0));
        assert_eq!(sub.clause(1), f.clause(2));
    }

    #[test]
    fn collect_from_clauses() {
        let f: CnfFormula = vec![clause(&[1]), clause(&[-1, 2])].into_iter().collect();
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.num_vars(), 2);
    }

    #[test]
    fn clause_ranges_lend_contiguous_runs() {
        let mut f = CnfFormula::new();
        f.add_clause(clause(&[1]));
        f.add_clause(clause(&[2, 3]));
        f.add_clause(clause(&[-3]));
        let all = f.clauses();
        assert_eq!(all.len(), 3);
        let tail = f.clauses_in(1..3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.get(0).lits(), f.clause(1).lits());
        assert_eq!(tail.get(1).lits(), f.clause(2).lits());
        let collected: Vec<usize> = tail.iter().map(|c| c.len()).collect();
        assert_eq!(collected, vec![2, 1]);
        // Empty range at either end.
        assert!(f.clauses_in(0..0).is_empty());
        assert!(f.clauses_in(3..3).is_empty());
    }

    #[test]
    fn clauses_compare_by_content() {
        let mut f = CnfFormula::new();
        f.add_clause(clause(&[1, 2]));
        f.add_clause(clause(&[1, 2]));
        // Same clause at different offsets: content-equal views.
        assert_eq!(f.clauses_in(0..1), f.clauses_in(1..2));
        let mut g = CnfFormula::new();
        g.add_clause(clause(&[1, 2]));
        assert_eq!(f.clauses_in(0..1), g.clauses());
        assert_ne!(f.clauses(), g.clauses());
    }

    #[test]
    fn flat_clone_preserves_equality() {
        let mut f = CnfFormula::new();
        f.add_clause(clause(&[1, -2, 3]));
        f.add_clause(clause(&[]));
        let g = f.clone();
        assert_eq!(f, g);
        assert_eq!(g.clause(1).len(), 0);
    }
}
