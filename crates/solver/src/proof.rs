//! Clause-level proof logging: the solver-side half of the DRAT/LRAT
//! certificate machinery.
//!
//! A [`ProofLog`] attached to a [`Solver`](crate::Solver) receives every
//! event a clausal proof checker needs to replay the run:
//!
//! - **axioms** — every original clause, in `add_clause` order (the input
//!   formula the certificate is *about*);
//! - **derived clauses** — every learned clause and every root-level unit
//!   fact, each with LRAT-style antecedent hints sourced from the conflict
//!   dependency graph (§3.1): the hint list names earlier proof lines whose
//!   sequential unit propagation under the negated clause yields a conflict,
//!   which is exactly the RUP property;
//! - **deletions** — every learned clause removed by database reduction
//!   (root-satisfied removal and the activity-ranked half), emitted *before*
//!   compaction frees the body, so the log mirrors the live clause set at
//!   every point in time;
//! - **episode finals** — each UNSAT answer of the incremental session API
//!   closes with a final clause that is not added to the database: the
//!   negation of the failed assumptions (an assumption episode), or the
//!   empty clause (the database is unsatisfiable outright). Together with
//!   the cumulative log up to that point, the final clause is a
//!   self-contained certificate for that episode's verdict.
//!
//! Hints are emitted in **propagation order** (reverse of the conflict
//! analysis walk, deduplicated): a strict LRAT checker can process them
//! sequentially, requiring each cited clause to be unit until the last one
//! conflicts. The independent checker lives in the `rbmc-proof` crate, which
//! deliberately depends only on `rbmc-cnf` — implementations of this trait
//! bridge the two without the checker ever seeing solver internals.
//!
//! Proof logging requires CDG recording (the hints are the CDG antecedent
//! lists) and must be attached before the first clause so every clause in
//! the database has a proof line; [`Solver::set_proof_log`] enforces both.
//!
//! [`Solver::set_proof_log`]: crate::Solver::set_proof_log

use rbmc_cnf::Lit;

/// A sink for the solver's clausal proof events. See the module docs for
/// the event vocabulary and ordering guarantees.
///
/// The `Send` supertrait keeps a [`Solver`](crate::Solver) with an attached
/// log transferable across threads.
pub trait ProofLog: Send {
    /// An original clause entered the database. `id` is the clause's proof
    /// line number (one shared sequence with derived clauses, strictly
    /// increasing); `lits` is the clause as given.
    fn axiom(&mut self, id: u64, lits: &[Lit]);

    /// A clause was derived: a learned conflict clause, or a root-level
    /// unit fact (emitted as a one-literal clause so later hints can cite
    /// it). `hints` names earlier proof lines in propagation order; under
    /// the negation of `lits`, propagating them sequentially conflicts.
    fn derived(&mut self, id: u64, lits: &[Lit], hints: &[u64]);

    /// The derived clause with proof line `id` left the database (learned
    /// clause deletion). Deleted lines must no longer be cited by later
    /// hints.
    fn delete(&mut self, id: u64);

    /// The current solve episode ended UNSAT with this final clause —
    /// the negation of the failed assumptions, or empty when the database
    /// itself is unsatisfiable. The clause is *not* added to the database;
    /// `hints` justify it exactly as in [`ProofLog::derived`].
    fn finalize(&mut self, lits: &[Lit], hints: &[u64]);

    /// A snapshot of the log's live-line bookkeeping for coherence audits
    /// (see the `debug-invariants` feature), or `None` when the
    /// implementation does not track one. The default tracks none.
    fn audit_snapshot(&self) -> Option<ProofAuditSnapshot> {
        None
    }
}

/// What a [`ProofLog`] implementation knows about its own live lines, for
/// cross-checking against the solver's clause database: every live learned
/// clause and every root-level unit fact must have an unretracted derived
/// line, and nothing else may.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProofAuditSnapshot {
    /// Proof line ids of derived clauses without a deletion record, sorted
    /// ascending.
    pub live_derived: Vec<u64>,
    /// Number of axiom lines recorded.
    pub num_axioms: u64,
}
