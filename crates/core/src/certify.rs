//! UNSAT certification glue: wires the solver's [`ProofLog`] emission into
//! the independent checker of [`rbmc_proof`].
//!
//! The solver emits; [`rbmc_proof`] records and checks; this module owns the
//! plumbing between them — a [`SharedRecorder`] the solver writes through,
//! an [`EpisodeCertifier`] the engines drive once per UNSAT episode, and a
//! [`ProofSummary`] the run reports. Under [`ProofMode::Check`] every UNSAT
//! verdict of a run is re-derived by the checker before it is trusted; a
//! rejection is counted (and described) rather than panicking, so the
//! fail-closed decision stays with the caller (the `rbmc` sweep exits
//! non-zero on any rejection).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rbmc_proof::ProofRecorder;
use rbmc_solver::{ProofAuditSnapshot, ProofLog, Solver};

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
}

/// What a run's proof logging amounted to, aggregated over every solver the
/// run provisioned (the session solver or the fresh-per-depth ones).
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

    /// Folds another solver's summary into this one (first rejection wins
    /// the description slot).
    pub fn merge(&mut self, other: &ProofSummary) {
        self.episodes_certified += other.episodes_certified;
        self.rejections += other.rejections;
        self.steps_logged += other.steps_logged;
        self.check_time += other.check_time;
        if self.first_rejection.is_none() {
            self.first_rejection.clone_from(&other.first_rejection);
        }
    }
}

/// A [`ProofRecorder`] behind `Arc<Mutex>`: the solver's boxed [`ProofLog`]
/// sink and the certifier's checking handle are clones of the same
/// recorder. The mutex is uncontended — solver emission and certification
/// never overlap (both run on the solver's thread).
#[derive(Clone, Debug, Default)]
pub struct SharedRecorder(Arc<Mutex<ProofRecorder>>);

impl SharedRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> SharedRecorder {
        SharedRecorder::default()
    }

    /// Runs `f` with the locked recorder.
    pub fn with<R>(&self, f: impl FnOnce(&ProofRecorder) -> R) -> R {
        f(&self.0.lock().expect("proof recorder lock"))
    }

    /// Runs `f` with the locked recorder, mutably (checking advances the
    /// recorder's cursor).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut ProofRecorder) -> R) -> R {
        f(&mut self.0.lock().expect("proof recorder lock"))
    }
}

impl ProofLog for SharedRecorder {
    fn axiom(&mut self, id: u64, lits: &[rbmc_cnf::Lit]) {
        self.0.lock().expect("proof recorder lock").axiom(id, lits);
    }

    fn derived(&mut self, id: u64, lits: &[rbmc_cnf::Lit], hints: &[u64]) {
        self.0
            .lock()
            .expect("proof recorder lock")
            .derived(id, lits, hints);
    }

    fn delete(&mut self, id: u64) {
        self.0.lock().expect("proof recorder lock").delete(id);
    }

    fn finalize(&mut self, lits: &[rbmc_cnf::Lit], hints: &[u64]) {
        self.0
            .lock()
            .expect("proof recorder lock")
            .finalize(lits, hints);
    }

    fn audit_snapshot(&self) -> Option<ProofAuditSnapshot> {
        let rec = self.0.lock().expect("proof recorder lock");
        Some(ProofAuditSnapshot {
            live_derived: rec.live_derived_sorted(),
            num_axioms: rec.num_axioms(),
        })
    }
}

/// Per-solver certification driver: attaches a [`SharedRecorder`] to a
/// freshly provisioned solver and, under [`ProofMode::Check`], replays each
/// UNSAT episode's certificate through the independent checker.
#[derive(Debug)]
pub(crate) struct EpisodeCertifier {
    mode: ProofMode,
    recorder: SharedRecorder,
    summary: ProofSummary,
}

impl EpisodeCertifier {
    /// Attaches a recorder to `solver` (which must be freshly provisioned —
    /// no clauses yet — and configured with `record_cdg`). Returns `None`
    /// under [`ProofMode::Off`].
    pub(crate) fn attach(mode: ProofMode, solver: &mut Solver) -> Option<EpisodeCertifier> {
        if !mode.is_on() {
            return None;
        }
        let recorder = SharedRecorder::new();
        solver.set_proof_log(Box::new(recorder.clone()));
        Some(EpisodeCertifier {
            mode,
            recorder,
            summary: ProofSummary::default(),
        })
    }

    /// Certifies the UNSAT episode that just ended: under
    /// [`ProofMode::Check`], verifies the lines logged since the previous
    /// UNSAT episode and the episode's final clause through the checker and
    /// books the verdict; under [`ProofMode::Log`] this is a no-op (the log
    /// keeps growing either way).
    pub(crate) fn observe_unsat(&mut self) {
        if !self.mode.checks() {
            return;
        }
        let start = Instant::now();
        let verdict = self.recorder.with_mut(ProofRecorder::check_current);
        self.summary.check_time += start.elapsed();
        match verdict {
            Ok(_) => self.summary.episodes_certified += 1,
            Err(e) => {
                self.summary.rejections += 1;
                if self.summary.first_rejection.is_none() {
                    self.summary.first_rejection = Some(e.to_string());
                }
            }
        }
    }

    /// Closes the solver's certification and returns its summary (step
    /// count read off the recorder at its final size).
    pub(crate) fn into_summary(self) -> ProofSummary {
        let mut summary = self.summary;
        summary.steps_logged = self.recorder.with(ProofRecorder::num_steps) as u64;
        summary
    }
}

/// Folds an optional solver summary into an optional run summary in place.
pub(crate) fn merge_opt(into: &mut Option<ProofSummary>, from: Option<ProofSummary>) {
    if let Some(from) = from {
        match into {
            Some(acc) => acc.merge(&from),
            None => *into = Some(from),
        }
    }
}

/// `debug-invariants` coherence audit between a solver and its proof log:
/// the recorder's live derived lines must be exactly the proof ids the
/// solver still holds (live learned clauses and root-level unit facts), and
/// the axiom count must match the originals added. Run from the engines'
/// depth-boundary audit hook.
#[cfg(feature = "debug-invariants")]
pub(crate) fn audit_proof_coherence(solver: &Solver) -> Result<(), ProofAuditError> {
    let Some(log) = solver.proof_log() else {
        return Ok(());
    };
    let Some(snapshot) = log.audit_snapshot() else {
        return Ok(());
    };
    solver.audit_proof(&snapshot).map_err(ProofAuditError)
}

/// Error wrapper for the proof coherence audit (a plain description — the
/// audit is a debug facility, not an API).
#[derive(Clone, Debug)]
pub struct ProofAuditError(pub String);

impl std::fmt::Display for ProofAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proof-log coherence violated: {}", self.0)
    }
}

impl std::error::Error for ProofAuditError {}
