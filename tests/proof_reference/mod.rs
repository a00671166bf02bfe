//! The reference checker the product's forward checker is tested against:
//! backward RUP/LRAT checking of an owned copy of a proof log.
//!
//! It shares no code with `rbmc-proof`'s checker, only the log's types and
//! its error vocabulary. Where the forward checker verifies every derived
//! line as a session's episodes end, this one verifies one episode at a
//! time, and only what its final clause depends on:
//!
//! 1. a structural pass: ids strictly increasing, every hint citing a line
//!    declared earlier and not yet deleted, deletions naming live derived
//!    lines;
//! 2. backward marking from the final clause's hints;
//! 3. strict LRAT (or, for a hintless line, full-database RUP in id order)
//!    over the marked lines and the final clause. The rest get the
//!    structural checks only.

use std::collections::{BTreeMap, HashMap, HashSet};

use refined_bmc::cnf::Lit;
use refined_bmc::proof::{CheckStats, FinalClause, ProofError, ProofRecorder, ProofStep};

/// An owned UNSAT certificate: a log's lines up to one episode's final
/// clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Bundle {
    /// The proof lines, in emission order.
    pub(crate) steps: Vec<ProofStep>,
    /// The episode's final clause.
    pub(crate) final_clause: FinalClause,
}

impl Bundle {
    /// Copies `rec`'s log and its most recent final clause.
    ///
    /// # Panics
    ///
    /// Panics if no episode has ended UNSAT (there is nothing to certify).
    pub(crate) fn of(rec: &ProofRecorder) -> Bundle {
        Bundle {
            steps: rec.steps().to_vec(),
            final_clause: rec
                .final_clause()
                .cloned()
                .expect("a bundle needs an UNSAT episode"),
        }
    }

    /// Checks the certificate backward: structure, then strict LRAT over
    /// the final clause's dependency cone.
    pub(crate) fn check(&self) -> Result<CheckStats, ProofError> {
        check_certificate(&self.steps, &self.final_clause)
    }
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

/// Partial assignment keyed by variable index; `true` means the positive
/// literal holds.
type Assignment = HashMap<usize, bool>;

fn lit_state(assignment: &Assignment, lit: Lit) -> Option<bool> {
    assignment
        .get(&lit.var().index())
        .map(|&v| v == lit.is_positive())
}

fn classify(assignment: &Assignment, clause: &[Lit]) -> HintState {
    let mut unassigned: Option<Lit> = None;
    for &lit in clause {
        match lit_state(assignment, lit) {
            Some(true) => return HintState::Satisfied,
            Some(false) => {}
            None => {
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

/// Asserts the negation of `clause` into a fresh assignment. Returns `None`
/// when the clause is a tautology (contains both phases of a variable):
/// such a clause is trivially RUP and needs no propagation.
fn negate_into_assignment(clause: &[Lit]) -> Option<Assignment> {
    let mut assignment = Assignment::new();
    for &lit in clause {
        // ¬clause asserts the negation of every literal.
        let want = !lit.is_positive();
        match assignment.insert(lit.var().index(), want) {
            Some(prev) if prev != want => return None,
            _ => {}
        }
    }
    Some(assignment)
}

/// The active clauses by id. Ordered, so that a full-database sweep does
/// the same work in every process.
type Database<'a> = BTreeMap<u64, &'a [Lit]>;

/// Strict LRAT verification of one clause under its hints: sequential
/// processing, every cited clause unit until a conflict. `step` is the
/// citing line id for error reporting (0 = final clause).
fn verify_hinted(
    step: u64,
    clause: &[Lit],
    hints: &[u64],
    db: &Database<'_>,
) -> Result<(), ProofError> {
    let Some(mut assignment) = negate_into_assignment(clause) else {
        return Ok(());
    };
    for &hint in hints {
        let body = *db
            .get(&hint)
            .ok_or(ProofError::UnknownHint { step, hint })?;
        match classify(&assignment, body) {
            HintState::Conflict => return Ok(()),
            HintState::Unit(lit) => {
                assignment.insert(lit.var().index(), lit.is_positive());
            }
            HintState::Satisfied => return Err(ProofError::SatisfiedHint { step, hint }),
            HintState::Open => return Err(ProofError::HintNotUnit { step, hint }),
        }
    }
    Err(ProofError::NoConflict { step })
}

/// Full-database RUP for hintless clauses: saturate unit propagation over
/// every active clause, in id order, until a conflict or a fixpoint.
fn verify_full_db(step: u64, clause: &[Lit], db: &Database<'_>) -> Result<(), ProofError> {
    let Some(mut assignment) = negate_into_assignment(clause) else {
        return Ok(());
    };
    loop {
        let mut progressed = false;
        for body in db.values() {
            match classify(&assignment, body) {
                HintState::Conflict => return Ok(()),
                HintState::Unit(lit) => {
                    assignment.insert(lit.var().index(), lit.is_positive());
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

/// The whole acceptance procedure: structural coherence, backward marking
/// from the final clause, and propagation verification of the marked cone.
/// [`CheckStats::steps_verified`] counts the marked derived lines plus the
/// final clause.
fn check_certificate(
    steps: &[ProofStep],
    final_clause: &FinalClause,
) -> Result<CheckStats, ProofError> {
    // --- structural pass -------------------------------------------------
    // Ids strictly increasing; every hint of every step cites a line that
    // is declared earlier and still active (not deleted) at that point.
    let mut last_id = 0u64;
    let mut active: HashSet<u64> = HashSet::new();
    let mut derived_ids: HashSet<u64> = HashSet::new();
    for step in steps {
        match step {
            ProofStep::Axiom { id, .. } => {
                if *id <= last_id {
                    return Err(ProofError::IdOrder { id: *id });
                }
                last_id = *id;
                active.insert(*id);
            }
            ProofStep::Derived { id, hints, .. } => {
                if *id <= last_id {
                    return Err(ProofError::IdOrder { id: *id });
                }
                last_id = *id;
                for &hint in hints {
                    if !active.contains(&hint) {
                        return Err(ProofError::UnknownHint { step: *id, hint });
                    }
                }
                active.insert(*id);
                derived_ids.insert(*id);
            }
            ProofStep::Delete { id } => {
                if !derived_ids.contains(id) || !active.remove(id) {
                    return Err(ProofError::BadDelete { id: *id });
                }
            }
        }
    }
    for &hint in &final_clause.hints {
        if !active.contains(&hint) {
            return Err(ProofError::UnknownHint { step: 0, hint });
        }
    }

    // --- backward marking ------------------------------------------------
    // Only derived lines reachable from the final clause's hints need
    // propagation verification. A hintless marked line falls back to
    // full-database RUP, which may use anything — mark everything then.
    let mut marked: HashSet<u64> = final_clause.hints.iter().copied().collect();
    // A hintless, non-tautological final clause goes through full-database
    // RUP, which may lean on any derived line — verify them all.
    let mut mark_all =
        final_clause.hints.is_empty() && negate_into_assignment(&final_clause.lits).is_some();
    for step in steps.iter().rev() {
        if let ProofStep::Derived { id, hints, .. } = step {
            if mark_all || marked.contains(id) {
                if hints.is_empty() {
                    mark_all = true;
                } else {
                    marked.extend(hints.iter().copied());
                }
            }
        }
    }

    // --- forward verification over the marked cone -----------------------
    let mut db = Database::new();
    let mut verified = 0usize;
    for step in steps {
        match step {
            ProofStep::Axiom { id, lits } => {
                db.insert(*id, lits);
            }
            ProofStep::Derived { id, lits, hints } => {
                if mark_all || marked.contains(id) {
                    if hints.is_empty() {
                        verify_full_db(*id, lits, &db)?;
                    } else {
                        verify_hinted(*id, lits, hints, &db)?;
                    }
                    verified += 1;
                }
                db.insert(*id, lits);
            }
            ProofStep::Delete { id } => {
                db.remove(id);
            }
        }
    }
    if final_clause.hints.is_empty() {
        if negate_into_assignment(&final_clause.lits).is_some() {
            verify_full_db(0, &final_clause.lits, &db)?;
        }
    } else {
        verify_hinted(0, &final_clause.lits, &final_clause.hints, &db)?;
    }
    verified += 1;

    Ok(CheckStats {
        steps_total: steps.len(),
        steps_verified: verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    fn axiom(id: u64, lits: &[i64]) -> ProofStep {
        ProofStep::Axiom {
            id,
            lits: lits.iter().map(|&n| lit(n)).collect(),
        }
    }

    fn derived(id: u64, lits: &[i64], hints: &[u64]) -> ProofStep {
        ProofStep::Derived {
            id,
            lits: lits.iter().map(|&n| lit(n)).collect(),
            hints: hints.to_vec(),
        }
    }

    fn fin(lits: &[i64], hints: &[u64]) -> FinalClause {
        FinalClause {
            lits: lits.iter().map(|&n| lit(n)).collect(),
            hints: hints.to_vec(),
        }
    }

    #[test]
    fn strict_rejects_out_of_order_hints() {
        // a ∧ b ∧ (¬a ∨ ¬b ∨ c) ⊢ c. The wide clause is unit only after
        // both units have propagated.
        let steps = vec![axiom(1, &[1]), axiom(2, &[2]), axiom(3, &[-1, -2, 3])];
        let good = fin(&[3], &[1, 2, 3]);
        assert!(check_certificate(&steps, &good).is_ok());
        // Cited first, the wide clause has two unassigned literals, and a
        // saturating checker would silently accept — strictness rejects.
        let bad = fin(&[3], &[3, 1, 2]);
        assert!(matches!(
            check_certificate(&steps, &bad),
            Err(ProofError::HintNotUnit { step: 0, hint: 3 })
        ));
    }

    #[test]
    fn satisfied_hint_is_rejected() {
        let steps = vec![axiom(1, &[1]), axiom(2, &[-1, 2]), axiom(3, &[1, 2])];
        // Assert ¬2: hint 3 = [1∨2]… after hint 1 propagates x, clause 3 is
        // satisfied → strict rejection.
        let bad = fin(&[2], &[1, 3]);
        assert!(matches!(
            check_certificate(&steps, &bad),
            Err(ProofError::SatisfiedHint { .. })
        ));
    }

    #[test]
    fn unknown_and_future_hints_are_rejected() {
        let steps = vec![axiom(1, &[1]), derived(2, &[1], &[7])];
        let f = fin(&[], &[1]);
        assert!(matches!(
            check_certificate(&steps, &f),
            Err(ProofError::UnknownHint { step: 2, hint: 7 })
        ));
    }

    #[test]
    fn ids_must_increase() {
        let steps = vec![axiom(2, &[1]), axiom(2, &[-1])];
        let f = fin(&[], &[2]);
        assert!(matches!(
            check_certificate(&steps, &f),
            Err(ProofError::IdOrder { id: 2 })
        ));
    }

    #[test]
    fn deleting_an_axiom_is_rejected() {
        let steps = vec![axiom(1, &[1]), ProofStep::Delete { id: 1 }];
        let f = fin(&[], &[1]);
        assert!(matches!(
            check_certificate(&steps, &f),
            Err(ProofError::BadDelete { id: 1 })
        ));
    }

    #[test]
    fn unmarked_garbage_is_structurally_checked_only() {
        // A bogus derived line outside the final cone: hints must still
        // resolve (structural), but its RUP is not checked.
        let steps = vec![
            axiom(1, &[1]),
            axiom(2, &[-1]),
            derived(3, &[2], &[1]), // not RUP, unmarked
        ];
        let f = fin(&[], &[1, 2]);
        assert!(check_certificate(&steps, &f).is_ok());
    }

    #[test]
    fn full_db_rup_propagates_through_the_live_lines() {
        // ¬3 ∧ (3 ∨ ¬2) ∧ (2 ∨ ¬1) ⊢ ¬1 needs two propagations; in id order
        // the first sweep finds both, and the third clause conflicts.
        let steps = vec![axiom(1, &[-3]), axiom(2, &[3, -2]), axiom(3, &[2, -1])];
        let stats = check_certificate(&steps, &fin(&[-1], &[])).unwrap();
        assert_eq!(stats.steps_verified, 1);
        // Without the middle link ¬1 is not RUP.
        let steps = vec![axiom(1, &[-3]), axiom(3, &[2, -1])];
        assert!(matches!(
            check_certificate(&steps, &fin(&[-1], &[])),
            Err(ProofError::NoConflict { step: 0 })
        ));
    }

    #[test]
    fn hintless_derived_falls_back_to_full_db() {
        let steps = vec![axiom(1, &[1]), axiom(2, &[-1, 2]), derived(3, &[2], &[])];
        let f = fin(&[-2], &[3]);
        // Final [¬2] cites 3; 3 is hintless → full-DB RUP (propagates x
        // from 1, conflicts on 2)… and the final itself: assert 2; hint 3 =
        // [2] satisfied → strict rejection. Use a fuller final instead.
        assert!(check_certificate(&steps, &f).is_err());
        let f = fin(&[], &[]);
        // Empty final with no hints: full-DB RUP over {x, ¬x∨y, y} — no
        // conflict (it is satisfiable), so rejected.
        assert!(matches!(
            check_certificate(&steps, &f),
            Err(ProofError::NoConflict { step: 0 })
        ));
    }
}
