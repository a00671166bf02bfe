//! Forward, incremental LRAT checking of a [`ProofRecorder`]'s log.
//!
//! The recorder keeps a line table indexed by proof id and a cursor into its
//! step list. Each [`ProofRecorder::check_current`] call verifies the steps
//! logged since the previous call, then the current final clause, so every
//! derived line is checked exactly once over a whole session:
//!
//! - a hinted line by strict LRAT, in time linear in its hint clauses;
//! - a hintless line by full-database RUP over the lines live at its
//!   position, in id order;
//! - the final clause like any other line, against the lines live at the
//!   end of the log.
//!
//! The assignment is dense (one slot per variable) and undone through a
//! trail after each line, so nothing on the per-line path hashes or
//! allocates. The first rejection is latched: it answers every later call.
//! What a check reports, [`ProofError`] or [`CheckStats`], is defined here
//! too.
//!
//! [`ProofRecorder`]: crate::ProofRecorder
//! [`ProofRecorder::check_current`]: crate::ProofRecorder::check_current

use std::fmt;

use rbmc_cnf::Lit;

use crate::{FinalClause, ProofStep};

/// Why a certificate was rejected. Every variant names the offending line
/// so a fail-closed gate can report something actionable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// The log has no final clause: no episode ended UNSAT, so there is
    /// nothing to certify.
    NoFinal,
    /// Proof line ids must be strictly increasing.
    IdOrder {
        /// The offending line id.
        id: u64,
    },
    /// A hint cites a line that does not exist, is not yet declared, or was
    /// deleted before the citing step.
    UnknownHint {
        /// The citing line (0 stands for the final clause).
        step: u64,
        /// The cited line.
        hint: u64,
    },
    /// A deletion names a line that is not a live derived clause.
    BadDelete {
        /// The offending deletion target.
        id: u64,
    },
    /// Strict LRAT: a hint clause was already satisfied under the
    /// accumulated assignment — it cannot participate in the propagation.
    SatisfiedHint {
        /// The citing line (0 stands for the final clause).
        step: u64,
        /// The offending hint.
        hint: u64,
    },
    /// Strict LRAT: a hint clause had two or more unassigned literals —
    /// the hint order does not describe a unit propagation.
    HintNotUnit {
        /// The citing line (0 stands for the final clause).
        step: u64,
        /// The offending hint.
        hint: u64,
    },
    /// The hint list ran out without reaching a conflict: the clause is not
    /// RUP under its hints.
    NoConflict {
        /// The unjustified line (0 stands for the final clause).
        step: u64,
    },
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn line(id: u64) -> String {
            if id == 0 {
                "the final clause".to_string()
            } else {
                format!("line {id}")
            }
        }
        match self {
            ProofError::NoFinal => write!(f, "no UNSAT episode to certify"),
            ProofError::IdOrder { id } => {
                write!(f, "proof line ids not strictly increasing at id {id}")
            }
            ProofError::UnknownHint { step, hint } => {
                write!(f, "{} cites unknown or deleted line {hint}", line(*step))
            }
            ProofError::BadDelete { id } => {
                write!(f, "deletion of {id}, which is not a live derived line")
            }
            ProofError::SatisfiedHint { step, hint } => {
                write!(f, "{} cites satisfied clause {hint}", line(*step))
            }
            ProofError::HintNotUnit { step, hint } => {
                write!(f, "{} cites non-unit clause {hint}", line(*step))
            }
            ProofError::NoConflict { step } => {
                write!(
                    f,
                    "{} is not RUP: hints end without a conflict",
                    line(*step)
                )
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// What a successful check covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Total proof lines in the log.
    pub steps_total: usize,
    /// Lines propagation-verified by this check, the final clause included:
    /// the derived lines logged since the previous
    /// [`ProofRecorder::check_current`] call, plus the final clause, so the
    /// counts of a session sum to its derived lines plus one per call.
    ///
    /// [`ProofRecorder::check_current`]: crate::ProofRecorder::check_current
    pub steps_verified: usize,
}

/// In the strict hint walk, processing one clause yields one of these.
enum HintState {
    /// All literals false: the propagation reached its conflict.
    Conflict,
    /// Exactly one literal unassigned: propagate it.
    Unit(Lit),
    /// Some literal is already true.
    Satisfied,
    /// Two or more literals unassigned.
    Open,
}

/// Table position of an id that no step declared, or of a line that no
/// step deleted. It exceeds every real position.
const NONE: u32 = u32::MAX;

/// Where one proof id lives in the step list.
#[derive(Clone, Copy, Debug)]
struct Line {
    /// Position of the step that declared the id.
    declared: u32,
    /// Position of the step that deleted it, `NONE` while it is live.
    deleted: u32,
}

const UNDECLARED: Line = Line {
    declared: NONE,
    deleted: NONE,
};

impl Line {
    /// Whether the line is live at step position `pos`: declared before it
    /// and not deleted before it.
    fn live_at(self, pos: usize) -> bool {
        (self.declared as usize) < pos && pos < self.deleted as usize
    }

    /// Whether the line is a derived one that no step has deleted yet.
    fn live_derived(self, steps: &[ProofStep]) -> bool {
        self.declared != NONE
            && self.deleted == NONE
            && matches!(steps[self.declared as usize], ProofStep::Derived { .. })
    }
}

/// A step-list position as stored in the line table.
fn position(pos: usize) -> u32 {
    u32::try_from(pos)
        .ok()
        .filter(|&p| p != NONE)
        .expect("proof logs hold fewer than 2^32 - 1 steps")
}

/// The literals of the axiom or derived step at `pos`.
fn body(steps: &[ProofStep], pos: u32) -> &[Lit] {
    match &steps[pos as usize] {
        ProofStep::Axiom { lits, .. } | ProofStep::Derived { lits, .. } => lits,
        ProofStep::Delete { .. } => unreachable!("the line table never points at a deletion"),
    }
}

/// The recorder's line table plus the forward checker's state.
#[derive(Clone, Debug, Default)]
pub(crate) struct Forward {
    /// Indexed by proof id; memory grows with the largest id (the solver
    /// numbers its lines consecutively from 1).
    lines: Vec<Line>,
    last_id: u64,
    /// Steps before this position have been verified.
    cursor: usize,
    /// Per variable: 1 true, -1 false, 0 unassigned.
    values: Vec<i8>,
    /// Variables the clause under check assigned, for the undo.
    trail: Vec<usize>,
    /// The first rejection; every later check returns it.
    error: Option<ProofError>,
}

impl Forward {
    fn latch(&mut self, error: ProofError) {
        self.error.get_or_insert(error);
    }

    /// Records that the step at `pos` declares `id`. Ids must be strictly
    /// increasing; a repeated or decreasing one is rejected on the spot,
    /// since it could not be told apart in the table.
    pub(crate) fn declare(&mut self, id: u64, pos: usize) {
        if id <= self.last_id {
            self.latch(ProofError::IdOrder { id });
            return;
        }
        self.last_id = id;
        let idx = usize::try_from(id).expect("proof id fits in usize");
        if idx >= self.lines.len() {
            self.lines.resize(idx + 1, UNDECLARED);
        }
        self.lines[idx] = Line {
            declared: position(pos),
            deleted: NONE,
        };
    }

    /// Records that the step at `pos` deletes `id`, which must be a live
    /// derived line.
    pub(crate) fn retract(&mut self, id: u64, pos: usize, steps: &[ProofStep]) {
        let slot = usize::try_from(id).ok().and_then(|i| self.lines.get_mut(i));
        match slot {
            Some(line) if line.live_derived(steps) => line.deleted = position(pos),
            _ => self.latch(ProofError::BadDelete { id }),
        }
    }

    /// Derived line ids without a deletion record, ascending.
    pub(crate) fn live_derived(&self, steps: &[ProofStep]) -> Vec<u64> {
        (0..self.lines.len())
            .filter(|&id| self.lines[id].live_derived(steps))
            .map(|id| id as u64)
            .collect()
    }

    /// Verifies the steps logged since the previous call, then
    /// `final_clause` against the whole log. Latches the first rejection.
    pub(crate) fn check(
        &mut self,
        steps: &[ProofStep],
        final_clause: &FinalClause,
    ) -> Result<CheckStats, ProofError> {
        if let Some(error) = &self.error {
            return Err(error.clone());
        }
        let verdict = self.check_pending(steps, final_clause);
        if let Err(error) = &verdict {
            self.latch(error.clone());
        }
        verdict
    }

    fn check_pending(
        &mut self,
        steps: &[ProofStep],
        final_clause: &FinalClause,
    ) -> Result<CheckStats, ProofError> {
        let mut verified = 0;
        for pos in self.cursor..steps.len() {
            match &steps[pos] {
                ProofStep::Axiom { lits, .. } => self.fit(lits),
                ProofStep::Derived { id, lits, hints } => {
                    self.fit(lits);
                    self.verify(steps, *id, pos, lits, hints)?;
                    verified += 1;
                }
                ProofStep::Delete { .. } => {}
            }
        }
        self.cursor = steps.len();
        self.fit(&final_clause.lits);
        self.verify(
            steps,
            0,
            steps.len(),
            &final_clause.lits,
            &final_clause.hints,
        )?;
        Ok(CheckStats {
            steps_total: steps.len(),
            steps_verified: verified + 1,
        })
    }

    /// Grows the assignment to cover `lits`' variables.
    fn fit(&mut self, lits: &[Lit]) {
        if let Some(max) = lits.iter().map(|l| l.var().index()).max() {
            if max >= self.values.len() {
                self.values.resize(max + 1, 0);
            }
        }
    }

    /// The body of `id` if the line is live at step position `pos`.
    fn live_body<'s>(&self, steps: &'s [ProofStep], id: u64, pos: usize) -> Option<&'s [Lit]> {
        let line = *self.lines.get(usize::try_from(id).ok()?)?;
        line.live_at(pos).then(|| body(steps, line.declared))
    }

    /// Checks that `clause`, logged at `pos` as line `step` (0 for the
    /// final clause), is RUP: under its hints if it has any, over the whole
    /// live database if not.
    fn verify(
        &mut self,
        steps: &[ProofStep],
        step: u64,
        pos: usize,
        clause: &[Lit],
        hints: &[u64],
    ) -> Result<(), ProofError> {
        let verdict = if !self.assume_negation(clause) {
            Ok(()) // a tautology is trivially RUP
        } else if hints.is_empty() {
            self.propagate_all(steps, step, pos)
        } else {
            self.propagate_hints(steps, step, pos, hints)
        };
        for &var in &self.trail {
            self.values[var] = 0;
        }
        self.trail.clear();
        verdict
    }

    /// Strict LRAT: each hint, in order, must be unit until one conflicts.
    fn propagate_hints(
        &mut self,
        steps: &[ProofStep],
        step: u64,
        pos: usize,
        hints: &[u64],
    ) -> Result<(), ProofError> {
        for &hint in hints {
            let body = self
                .live_body(steps, hint, pos)
                .ok_or(ProofError::UnknownHint { step, hint })?;
            match self.classify(body) {
                HintState::Conflict => return Ok(()),
                HintState::Unit(lit) => self.assign(lit),
                HintState::Satisfied => return Err(ProofError::SatisfiedHint { step, hint }),
                HintState::Open => return Err(ProofError::HintNotUnit { step, hint }),
            }
        }
        Err(ProofError::NoConflict { step })
    }

    /// Full-database RUP: sweeps the lines live at `pos` in id order until
    /// a conflict, or a sweep that propagates nothing.
    fn propagate_all(
        &mut self,
        steps: &[ProofStep],
        step: u64,
        pos: usize,
    ) -> Result<(), ProofError> {
        loop {
            let mut progressed = false;
            for id in 1..self.lines.len() as u64 {
                let Some(body) = self.live_body(steps, id, pos) else {
                    continue;
                };
                match self.classify(body) {
                    HintState::Conflict => return Ok(()),
                    HintState::Unit(lit) => {
                        self.assign(lit);
                        progressed = true;
                    }
                    HintState::Satisfied | HintState::Open => {}
                }
            }
            if !progressed {
                return Err(ProofError::NoConflict { step });
            }
        }
    }

    /// 1 if `lit` is true, -1 if false, 0 if unassigned.
    fn value(&self, lit: Lit) -> i8 {
        let value = self.values[lit.var().index()];
        if lit.is_positive() {
            value
        } else {
            -value
        }
    }

    fn assign(&mut self, lit: Lit) {
        let var = lit.var().index();
        self.values[var] = if lit.is_positive() { 1 } else { -1 };
        self.trail.push(var);
    }

    /// Assigns every literal of `clause` false. Returns `false` when the
    /// clause holds both phases of a variable (a tautology).
    fn assume_negation(&mut self, clause: &[Lit]) -> bool {
        for &lit in clause {
            match self.value(lit) {
                1 => return false,
                -1 => {} // a repeated literal
                _ => self.assign(!lit),
            }
        }
        true
    }

    fn classify(&self, clause: &[Lit]) -> HintState {
        let mut unassigned = None;
        for &lit in clause {
            match self.value(lit) {
                1 => return HintState::Satisfied,
                -1 => {}
                _ => {
                    if unassigned.is_some() {
                        return HintState::Open;
                    }
                    unassigned = Some(lit);
                }
            }
        }
        match unassigned {
            None => HintState::Conflict,
            Some(lit) => HintState::Unit(lit),
        }
    }
}
