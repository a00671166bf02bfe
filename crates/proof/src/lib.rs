//! Independent checker for the session solver's clausal UNSAT certificates.
//!
//! The solver (`rbmc-solver`) can log every original clause, every derived
//! clause with LRAT-style antecedent hints, every deletion, and a final
//! clause per UNSAT episode. This crate replays such a log **without any
//! dependency on the solver** — it consumes only [`rbmc_cnf`] literals — and
//! accepts a certificate only if every step it depends on is a genuine
//! reverse-unit-propagation (RUP) consequence of the clauses before it. The
//! dependency runs the other way: the solver depends on this crate and owns
//! a [`ProofRecorder`] as its log, while this crate still depends on
//! `rbmc-cnf` alone.
//!
//! - A [`ProofRecorder`] accumulates the step log (one per solver) in a
//!   line table indexed by proof id, lends it read-only
//!   ([`ProofRecorder::steps`], [`ProofRecorder::final_clause`]), and checks
//!   the current episode in place.
//! - The recorder checks **forward and incrementally**:
//!   [`ProofRecorder::check_current`] verifies only the lines logged since
//!   its previous call, then the episode's final clause in time linear in
//!   its hints. Each derived line is verified exactly once per session, so
//!   checking a session costs time linear in its proof however many
//!   episodes it has. Every derived line is verified, whether or not a
//!   final clause depends on it, and the first rejection is latched for the
//!   rest of the session.
//! - Hint verification is **strict LRAT**: hints are processed in order and
//!   each cited clause must be unit (propagating one literal) until a
//!   conflict closes the step. A satisfied or non-unit hint rejects the
//!   certificate — the checker is deliberately intolerant, so corrupted or
//!   reordered hint lists cannot slip through. Steps with no hints fall back
//!   to full-database RUP over the live lines, in id order.
//!
//! The repository's integration tests hold a second, backward checker that
//! shares no code with this one and serves as its reference: it verifies
//! only the final clause's dependency cone of a copied log, and every
//! corrupted certificate it rejects the forward checker must reject too.
//!
//! # Examples
//!
//! A two-step refutation of `x ∧ ¬x`, checked end to end:
//!
//! ```
//! use rbmc_cnf::Lit;
//! use rbmc_proof::ProofRecorder;
//!
//! let x = Lit::from_dimacs(1);
//! let mut rec = ProofRecorder::new();
//! rec.axiom(1, &[x]);
//! rec.axiom(2, &[!x]);
//! // The solver derives the empty clause from both units.
//! rec.finalize(&[], &[1, 2]);
//! let stats = rec.check_current().expect("valid certificate");
//! assert_eq!(stats.steps_verified, 1); // just the final clause
//! assert_eq!(rec.steps().len(), 2); // the two axiom lines
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod forward;

use rbmc_cnf::Lit;

use forward::Forward;

pub use forward::{CheckStats, ProofError};

/// One line of a clausal proof log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// An original clause of the input formula, in `add_clause` order.
    Axiom {
        /// Proof line id (shared, strictly increasing sequence).
        id: u64,
        /// The clause as given.
        lits: Vec<Lit>,
    },
    /// A derived clause: RUP under the hints (processed in order, each hint
    /// must be unit until one conflicts).
    Derived {
        /// Proof line id.
        id: u64,
        /// The derived clause.
        lits: Vec<Lit>,
        /// Earlier proof lines justifying the derivation.
        hints: Vec<u64>,
    },
    /// The derived clause with the given id left the database.
    Delete {
        /// Proof line id of the deleted derived clause.
        id: u64,
    },
}

impl ProofStep {
    /// The proof line id this step declares or retracts.
    pub fn id(&self) -> u64 {
        match self {
            ProofStep::Axiom { id, .. }
            | ProofStep::Derived { id, .. }
            | ProofStep::Delete { id } => *id,
        }
    }
}

/// The final clause of one UNSAT episode: the negation of the episode's
/// failed assumptions, or empty when the clause database is unsatisfiable
/// outright. Not part of the database; justified like a derived step.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FinalClause {
    /// The episode's final clause.
    pub lits: Vec<Lit>,
    /// Hints justifying it (same semantics as [`ProofStep::Derived`]).
    pub hints: Vec<u64>,
}

/// Accumulates a solver's proof log and checks episodes in place.
///
/// One recorder serves one solver for its whole incremental session; each
/// UNSAT episode overwrites the final clause, and checking always refers to
/// the most recent one. Checking is forward and incremental (see
/// [`ProofRecorder::check_current`]). See the crate docs for an example.
#[derive(Clone, Debug, Default)]
pub struct ProofRecorder {
    steps: Vec<ProofStep>,
    final_clause: Option<FinalClause>,
    num_axioms: u64,
    /// The line table by proof id, and the checker's cursor into `steps`.
    forward: Forward,
}

impl ProofRecorder {
    /// Creates an empty recorder.
    pub fn new() -> ProofRecorder {
        ProofRecorder::default()
    }

    /// Records an axiom line (original clause).
    pub fn axiom(&mut self, id: u64, lits: &[Lit]) {
        self.num_axioms += 1;
        self.forward.declare(id, self.steps.len());
        self.steps.push(ProofStep::Axiom {
            id,
            lits: lits.to_vec(),
        });
    }

    /// Records a derived line (learned clause or root-level unit fact).
    pub fn derived(&mut self, id: u64, lits: &[Lit], hints: &[u64]) {
        self.forward.declare(id, self.steps.len());
        self.steps.push(ProofStep::Derived {
            id,
            lits: lits.to_vec(),
            hints: hints.to_vec(),
        });
    }

    /// Records the deletion of a derived line.
    pub fn delete(&mut self, id: u64) {
        self.forward.retract(id, self.steps.len(), &self.steps);
        self.steps.push(ProofStep::Delete { id });
    }

    /// Records (or replaces) the current episode's final clause.
    pub fn finalize(&mut self, lits: &[Lit], hints: &[u64]) {
        self.final_clause = Some(FinalClause {
            lits: lits.to_vec(),
            hints: hints.to_vec(),
        });
    }

    /// The proof lines recorded so far, in emission order (the final clause
    /// is not among them).
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Number of axiom lines recorded so far.
    pub fn num_axioms(&self) -> u64 {
        self.num_axioms
    }

    /// The most recent episode's final clause, if any episode ended UNSAT.
    pub fn final_clause(&self) -> Option<&FinalClause> {
        self.final_clause.as_ref()
    }

    /// Derived line ids without a deletion record, sorted ascending — what
    /// the solver's audit compares with its live clauses.
    pub fn live_derived_sorted(&self) -> Vec<u64> {
        self.forward.live_derived(&self.steps)
    }

    /// Checks the current episode in place (no copy of the log), forward
    /// and incrementally: verifies every derived line recorded since the
    /// previous call, then the most recent final clause against the whole
    /// log. Over a session each derived line is verified exactly once, so
    /// the total cost is linear in the proof, however many episodes it
    /// spans. [`CheckStats::steps_verified`] counts this call's lines.
    ///
    /// Every derived line is checked, not just those the final clause
    /// depends on. The first rejection is latched: it rejects this episode
    /// and every later one, since a later final clause may rest on the bad
    /// line. Ids out of order and bad deletions are caught as they are
    /// recorded.
    ///
    /// Returns [`ProofError::NoFinal`] if no episode has ended UNSAT yet.
    pub fn check_current(&mut self) -> Result<CheckStats, ProofError> {
        let final_clause = self.final_clause.as_ref().ok_or(ProofError::NoFinal)?;
        self.forward.check(&self.steps, final_clause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    /// x ∧ (¬x ∨ y) ∧ ¬y: unit propagation refutes; the recorder logs the
    /// two root facts as derived lines and the empty final.
    fn chain_recorder() -> ProofRecorder {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        rec.axiom(2, &[lit(-1), lit(2)]);
        rec.axiom(3, &[lit(-2)]);
        // Root facts, hints in propagation order.
        rec.derived(4, &[lit(1)], &[1]);
        rec.derived(5, &[lit(2)], &[4, 2]);
        rec.finalize(&[], &[5, 3]);
        rec
    }

    #[test]
    fn valid_chain_checks() {
        let mut rec = chain_recorder();
        let stats = rec.check_current().unwrap();
        assert_eq!(stats.steps_total, 5);
        assert_eq!(stats.steps_verified, 3); // both derived lines + final
    }

    #[test]
    fn each_line_is_checked_once_across_episodes() {
        let mut rec = chain_recorder();
        assert_eq!(rec.check_current().unwrap().steps_verified, 3);
        // A second episode on the same log: only its new line is checked,
        // and its final clause cites a line the first episode verified.
        rec.derived(6, &[lit(-1), lit(2)], &[2]);
        rec.finalize(&[lit(-1)], &[6, 3]);
        let stats = rec.check_current().unwrap();
        assert_eq!((stats.steps_total, stats.steps_verified), (6, 2));
        // Nothing new: the final clause alone.
        assert_eq!(rec.check_current().unwrap().steps_verified, 1);
    }

    #[test]
    fn the_first_rejection_is_latched() {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1), lit(2)]);
        rec.axiom(2, &[lit(-1)]);
        rec.derived(3, &[lit(3)], &[1]); // not unit: 1 and 2 are open
        rec.finalize(&[lit(-1)], &[2]);
        let first = rec.check_current().unwrap_err();
        assert_eq!(first, ProofError::HintNotUnit { step: 3, hint: 1 });
        // A later episode with a valid final clause is still rejected.
        rec.axiom(4, &[lit(-2)]);
        rec.finalize(&[], &[2, 1, 4]);
        assert_eq!(rec.check_current(), Err(first));

        // So is every episode after a rejected final clause.
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        rec.axiom(2, &[lit(-1)]);
        rec.finalize(&[], &[2]);
        let first = rec.check_current().unwrap_err();
        assert_eq!(first, ProofError::NoConflict { step: 0 });
        rec.finalize(&[], &[1, 2]);
        assert_eq!(rec.check_current(), Err(first));
    }

    #[test]
    fn structural_errors_are_caught_as_recorded() {
        let mut rec = ProofRecorder::new();
        rec.axiom(2, &[lit(1)]);
        rec.axiom(2, &[lit(-1)]);
        rec.finalize(&[], &[2]);
        assert_eq!(rec.check_current(), Err(ProofError::IdOrder { id: 2 }));

        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        rec.delete(1); // an axiom cannot be deleted
        rec.derived(2, &[lit(1)], &[1]);
        rec.delete(2);
        rec.delete(2); // nor a line twice
        rec.finalize(&[lit(1)], &[1]);
        assert_eq!(rec.check_current(), Err(ProofError::BadDelete { id: 1 }));
        assert_eq!(rec.live_derived_sorted(), Vec::<u64>::new());
    }

    #[test]
    fn hintless_lines_use_the_lines_live_at_their_position() {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(-3)]);
        rec.derived(2, &[lit(-2)], &[]);
        rec.finalize(&[lit(-1)], &[]);
        // ¬2 is not RUP over {¬3}.
        assert_eq!(rec.check_current(), Err(ProofError::NoConflict { step: 2 }));

        // x1 follows from the four clauses over x1..x3 below, but not by
        // unit propagation alone: it needs the two derived lemmas.
        let mut rec = ProofRecorder::new();
        for (id, (b, c)) in [(2, 3), (2, -3), (-2, 3), (-2, -3)].into_iter().enumerate() {
            rec.axiom(id as u64 + 1, &[lit(1), lit(b), lit(c)]);
        }
        rec.derived(5, &[lit(1), lit(2)], &[]);
        rec.derived(6, &[lit(1), lit(-2)], &[]);
        rec.finalize(&[lit(1)], &[]);
        assert_eq!(rec.check_current().unwrap().steps_verified, 3);
        // Deleted, the lemmas no longer support the same final clause.
        rec.delete(5);
        rec.delete(6);
        rec.finalize(&[lit(1)], &[]);
        assert_eq!(rec.check_current(), Err(ProofError::NoConflict { step: 0 }));
    }

    #[test]
    fn assumption_episode_final() {
        // (¬a ∨ x) ∧ (¬a ∨ ¬x) refutes the assumption a: final = [¬a].
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(-3), lit(1)]);
        rec.axiom(2, &[lit(-3), lit(-1)]);
        rec.finalize(&[lit(-3)], &[1, 2]);
        assert!(rec.check_current().is_ok());
    }

    #[test]
    fn tautological_final_is_trivially_valid() {
        // Self-contradictory assumptions: final [¬a, a], no hints.
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1), lit(2)]);
        rec.finalize(&[lit(-3), lit(3)], &[]);
        assert!(rec.check_current().is_ok());
    }

    #[test]
    fn no_final_is_an_error() {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        assert!(matches!(rec.check_current(), Err(ProofError::NoFinal)));
    }

    #[test]
    fn deleted_lines_leave_the_live_set() {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1), lit(2)]);
        rec.derived(2, &[lit(1)], &[]);
        rec.derived(3, &[lit(2)], &[]);
        rec.delete(2);
        assert_eq!(rec.live_derived_sorted(), vec![3]);
        assert_eq!(rec.num_axioms(), 1);
    }

    #[test]
    fn citing_a_deleted_line_is_rejected() {
        let mut rec = ProofRecorder::new();
        rec.axiom(1, &[lit(1)]);
        rec.derived(2, &[lit(1)], &[1]);
        rec.delete(2);
        rec.finalize(&[lit(1)], &[2]);
        assert!(matches!(
            rec.check_current(),
            Err(ProofError::UnknownHint { .. })
        ));
    }
}
