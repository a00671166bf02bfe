//! UNSAT certification bookkeeping: what a run's proof mode asks of each
//! solver it provisions, and what it reports.
//!
//! Each solver owns its proof log, the `ProofRecorder` of `rbmc-proof`
//! started by [`Solver::start_proof`] before the first clause, and the
//! engines reach the recorder's independent checker through the solver
//! ([`Solver::proof_mut`]). This module only books: [`ProofMode::solver`]
//! provisions a solver with its log started, and one [`ProofSummary`] per
//! run counts each UNSAT episode the engine has checked and the lines every
//! solver logged. Under [`ProofMode::Check`] every UNSAT verdict of a run is
//! re-derived by the checker before it is trusted; a rejection is counted
//! (and described) rather than panicking, so the fail-closed decision stays
//! with the caller (the `rbmc` sweep exits non-zero on any rejection).

use std::time::{Duration, Instant};

use rbmc_solver::{Solver, SolverOptions};

/// Whether (and how strictly) a run certifies its UNSAT verdicts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProofMode {
    /// No proof logging (the default; zero overhead).
    #[default]
    Off,
    /// Log every clause derivation and deletion, but do not check: the
    /// in-memory log is available for export and the run reports its size.
    Log,
    /// Log and re-derive every UNSAT episode through the independent
    /// checker; rejections surface in the run's [`ProofSummary`].
    Check,
}

impl ProofMode {
    /// Whether proof logging is enabled at all.
    pub fn is_on(self) -> bool {
        self != ProofMode::Off
    }

    /// Whether UNSAT episodes are checked, not just logged.
    pub fn checks(self) -> bool {
        self == ProofMode::Check
    }

    /// Stable name (CLI vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            ProofMode::Off => "off",
            ProofMode::Log => "log",
            ProofMode::Check => "check",
        }
    }

    /// A fresh solver with `opts`, its proof log started when this mode
    /// logs (`opts` must then record the CDG).
    pub(crate) fn solver(self, opts: SolverOptions) -> Solver {
        let mut solver = Solver::with_options(opts);
        if self.is_on() {
            solver.start_proof();
        }
        solver
    }
}

/// What a run's proof logging amounted to, booked once per run over every
/// solver the run provisioned (the session solver, the fresh-per-depth
/// ones, or IC3's one per property).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProofSummary {
    /// UNSAT episodes whose certificate the checker accepted.
    pub episodes_certified: u64,
    /// UNSAT episodes whose certificate the checker **rejected**. Always 0
    /// on a healthy run; the `rbmc` sweep fails closed on anything else.
    pub rejections: u64,
    /// Total proof lines logged (axioms + derivations + deletions).
    pub steps_logged: u64,
    /// Wall-clock time spent checking (zero under [`ProofMode::Log`]).
    pub check_time: Duration,
    /// Human-readable description of the first rejection, if any.
    pub first_rejection: Option<String>,
}

impl ProofSummary {
    /// Whether any certificate was rejected.
    pub fn rejected(&self) -> bool {
        self.rejections > 0
    }

    /// Checks the UNSAT episode `solver` just ended: the lines its log
    /// gained since the previous check, then the episode's final clause.
    /// Books the verdict and the time it took.
    pub(crate) fn check_episode(&mut self, solver: &mut Solver) {
        let log = solver
            .proof_mut()
            .expect("a checked run starts every solver's proof log");
        let start = Instant::now();
        let verdict = log.check_current();
        self.check_time += start.elapsed();
        match verdict {
            Ok(_) => self.episodes_certified += 1,
            Err(e) => {
                self.rejections += 1;
                if self.first_rejection.is_none() {
                    self.first_rejection = Some(e.to_string());
                }
            }
        }
    }

    /// Books the lines `solver` logged; call once, when the run is done
    /// with the solver.
    pub(crate) fn add_steps(&mut self, solver: &Solver) {
        if let Some(log) = solver.proof() {
            self.steps_logged += log.steps().len() as u64;
        }
    }
}
