//! Clauses: disjunctions of literals.
//!
//! [`Clause`] owns its literals; [`ClauseView`] borrows them from a flat
//! [`CnfFormula`](crate::CnfFormula) store. Both expose the same clause-level
//! queries through shared slice-based helpers.

use std::fmt;
use std::ops::Deref;

use crate::Lit;

/// Evaluates a literal slice as a disjunction under a total assignment.
/// Returns `None` if any variable is out of range of `assignment`.
pub(crate) fn eval_lits(lits: &[Lit], assignment: &[bool]) -> Option<bool> {
    let mut value = false;
    for &lit in lits {
        let var_value = *assignment.get(lit.var().index())?;
        value |= lit.apply(var_value);
    }
    Some(value)
}

/// Evaluates a literal slice as a disjunction under a partial assignment
/// (out-of-range variables count as unassigned).
pub(crate) fn eval_lits_partial(lits: &[Lit], assignment: &[Option<bool>]) -> Option<bool> {
    let mut undetermined = false;
    for &lit in lits {
        match assignment.get(lit.var().index()).copied().flatten() {
            Some(value) => {
                if lit.apply(value) {
                    return Some(true);
                }
            }
            None => undetermined = true,
        }
    }
    if undetermined {
        None
    } else {
        Some(false)
    }
}

/// Returns true if the literal slice contains both phases of some variable.
pub(crate) fn lits_are_tautology(lits: &[Lit]) -> bool {
    let mut sorted: Vec<Lit> = lits.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == !w[1])
}

/// Renders a literal slice as `(l₁ ∨ l₂ ∨ …)`, or `⊥` when empty.
pub(crate) fn fmt_lits(lits: &[Lit], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if lits.is_empty() {
        return write!(f, "⊥");
    }
    write!(f, "(")?;
    for (i, lit) in lits.iter().enumerate() {
        if i > 0 {
            write!(f, " ∨ ")?;
        }
        write!(f, "{lit}")?;
    }
    write!(f, ")")
}

/// A borrowed clause: a view into the flat literal store of a
/// [`CnfFormula`](crate::CnfFormula).
///
/// Dereferences to `[Lit]` and offers the same queries as [`Clause`], so
/// most call sites work identically on owned and borrowed clauses.
///
/// # Examples
///
/// ```
/// use rbmc_cnf::parse_dimacs;
///
/// let f = parse_dimacs("p cnf 2 1\n1 -2 0\n")?;
/// let view = f.clause(0);
/// assert_eq!(view.len(), 2);
/// assert_eq!(view.evaluate(&[true, true]), Some(true));
/// # Ok::<(), rbmc_cnf::ParseDimacsError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClauseView<'a> {
    lits: &'a [Lit],
}

impl<'a> ClauseView<'a> {
    /// Wraps a literal slice as a clause view.
    pub fn new(lits: &'a [Lit]) -> ClauseView<'a> {
        ClauseView { lits }
    }

    /// Returns the literals as a slice (with the view's full lifetime).
    pub fn lits(&self) -> &'a [Lit] {
        self.lits
    }

    /// Returns true if the clause contains both phases of some variable.
    pub fn is_tautology(&self) -> bool {
        lits_are_tautology(self.lits)
    }

    /// Evaluates the clause under a total assignment (see
    /// [`Clause::evaluate`]).
    pub fn evaluate(&self, assignment: &[bool]) -> Option<bool> {
        eval_lits(self.lits, assignment)
    }

    /// Evaluates the clause under a partial assignment (see
    /// [`Clause::evaluate_partial`]).
    pub fn evaluate_partial(&self, assignment: &[Option<bool>]) -> Option<bool> {
        eval_lits_partial(self.lits, assignment)
    }
}

impl Deref for ClauseView<'_> {
    type Target = [Lit];

    fn deref(&self) -> &[Lit] {
        self.lits
    }
}

impl AsRef<[Lit]> for ClauseView<'_> {
    fn as_ref(&self) -> &[Lit] {
        self.lits
    }
}

impl PartialEq<Clause> for ClauseView<'_> {
    fn eq(&self, other: &Clause) -> bool {
        self.lits == other.lits()
    }
}

impl PartialEq<ClauseView<'_>> for Clause {
    fn eq(&self, other: &ClauseView<'_>) -> bool {
        self.lits() == other.lits
    }
}

impl fmt::Debug for ClauseView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lits.iter()).finish()
    }
}

impl fmt::Display for ClauseView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_lits(self.lits, f)
    }
}

/// A disjunction of literals.
///
/// `Clause` is a thin wrapper over `Vec<Lit>` that adds clause-level queries
/// (tautology detection, normalization, evaluation). It dereferences to
/// `[Lit]`, so all slice methods are available.
///
/// # Examples
///
/// ```
/// use rbmc_cnf::{Clause, Var};
///
/// let x = Var::new(0);
/// let y = Var::new(1);
/// let c = Clause::new(vec![x.positive(), y.negative(), x.positive()]);
/// assert_eq!(c.len(), 3);
/// let n = c.normalized().expect("not a tautology");
/// assert_eq!(n.len(), 2); // duplicate removed
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates a clause from literals, preserving order and duplicates.
    pub fn new(lits: Vec<Lit>) -> Clause {
        Clause { lits }
    }

    /// The empty clause (always false). In a resolution proof this is the
    /// final conflict.
    pub fn empty() -> Clause {
        Clause { lits: Vec::new() }
    }

    /// Returns the literals as a slice.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Consumes the clause and returns the underlying literal vector.
    pub fn into_lits(self) -> Vec<Lit> {
        self.lits
    }

    /// Returns true if the clause contains both phases of some variable and
    /// is therefore always satisfied.
    ///
    /// # Examples
    ///
    /// ```
    /// use rbmc_cnf::{Clause, Var};
    ///
    /// let x = Var::new(0);
    /// assert!(Clause::new(vec![x.positive(), x.negative()]).is_tautology());
    /// assert!(!Clause::new(vec![x.positive()]).is_tautology());
    /// ```
    pub fn is_tautology(&self) -> bool {
        lits_are_tautology(&self.lits)
    }

    /// Returns a sorted, duplicate-free copy, or `None` if the clause is a
    /// tautology (and thus can be dropped from any formula).
    pub fn normalized(&self) -> Option<Clause> {
        let mut sorted: Vec<Lit> = self.lits.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.windows(2).any(|w| w[0] == !w[1]) {
            None
        } else {
            Some(Clause { lits: sorted })
        }
    }

    /// Evaluates the clause under a (possibly partial) assignment.
    ///
    /// `assignment[v]` is the value of variable `v`, or `None` if unassigned.
    /// Returns `Some(true)` as soon as any literal is satisfied, `Some(false)`
    /// if every literal is falsified, and `None` otherwise (undetermined).
    ///
    /// Variables with indices beyond the end of `assignment` are treated as
    /// unassigned.
    pub fn evaluate_partial(&self, assignment: &[Option<bool>]) -> Option<bool> {
        eval_lits_partial(&self.lits, assignment)
    }

    /// Evaluates the clause under a total assignment.
    ///
    /// Returns `None` if any variable of the clause is out of range of
    /// `assignment`.
    pub fn evaluate(&self, assignment: &[bool]) -> Option<bool> {
        eval_lits(&self.lits, assignment)
    }
}

impl AsRef<[Lit]> for Clause {
    fn as_ref(&self) -> &[Lit] {
        &self.lits
    }
}

impl Deref for Clause {
    type Target = [Lit];

    fn deref(&self) -> &[Lit] {
        &self.lits
    }
}

impl From<Vec<Lit>> for Clause {
    fn from(lits: Vec<Lit>) -> Clause {
        Clause::new(lits)
    }
}

impl<const N: usize> From<[Lit; N]> for Clause {
    fn from(lits: [Lit; N]) -> Clause {
        Clause::new(lits.to_vec())
    }
}

impl From<&[Lit]> for Clause {
    fn from(lits: &[Lit]) -> Clause {
        Clause::new(lits.to_vec())
    }
}

impl From<Lit> for Clause {
    fn from(lit: Lit) -> Clause {
        Clause::new(vec![lit])
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Clause {
        Clause::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lits.iter()).finish()
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_lits(&self.lits, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lits(ns: &[i64]) -> Vec<Lit> {
        ns.iter().map(|&n| Lit::from_dimacs(n)).collect()
    }

    #[test]
    fn empty_clause_is_false() {
        let c = Clause::empty();
        assert_eq!(c.evaluate(&[]), Some(false));
        assert_eq!(c.evaluate_partial(&[]), Some(false));
        assert_eq!(c.to_string(), "⊥");
    }

    #[test]
    fn tautology_detection() {
        assert!(Clause::new(lits(&[1, 2, -1])).is_tautology());
        assert!(!Clause::new(lits(&[1, 2, -3])).is_tautology());
        assert!(Clause::new(lits(&[1, 2, -1])).normalized().is_none());
    }

    #[test]
    fn normalization_sorts_and_dedups() {
        let c = Clause::new(lits(&[3, 1, 3, 2, 1]));
        let n = c.normalized().unwrap();
        assert_eq!(n.lits(), lits(&[1, 2, 3]).as_slice());
    }

    #[test]
    fn partial_evaluation() {
        let c = Clause::new(lits(&[1, -2]));
        // x0 unassigned, x1 = true: undetermined.
        assert_eq!(c.evaluate_partial(&[None, Some(true)]), None);
        // x0 = true: satisfied regardless.
        assert_eq!(c.evaluate_partial(&[Some(true), None]), Some(true));
        // x0 = false, x1 = true: falsified.
        assert_eq!(c.evaluate_partial(&[Some(false), Some(true)]), Some(false));
        // Out-of-range variables count as unassigned.
        assert_eq!(c.evaluate_partial(&[Some(false)]), None);
    }

    #[test]
    fn total_evaluation() {
        let c = Clause::new(lits(&[1, -2]));
        assert_eq!(c.evaluate(&[false, true]), Some(false));
        assert_eq!(c.evaluate(&[true, true]), Some(true));
        assert_eq!(c.evaluate(&[false, false]), Some(true));
        assert_eq!(c.evaluate(&[false]), None); // x1 out of range
    }

    #[test]
    fn deref_gives_slice_ops() {
        let c = Clause::new(lits(&[1, -2, 3]));
        assert_eq!(c.len(), 3);
        assert!(c.contains(&Var::new(1).negative()));
        assert!(!c.is_empty());
    }

    #[test]
    fn display_joins_with_or() {
        let c = Clause::new(lits(&[1, -2]));
        assert_eq!(c.to_string(), "(x0 ∨ ¬x1)");
    }

    #[test]
    fn from_iterator_collects() {
        let c: Clause = lits(&[1, 2]).into_iter().collect();
        assert_eq!(c.len(), 2);
    }
}
