//! Mutation and differential testing of UNSAT certificates.
//!
//! Real certificates — produced by the CDCL solver's proof log on randomly
//! generated unsatisfiable formulas — must pass two independent checkers,
//! and corrupted ones must not:
//!
//! - the **forward** checker of `rbmc-proof`,
//!   [`ProofRecorder::check_current`], which verifies every line once as a
//!   session's episodes end. Mutations reach it by replaying the corrupted
//!   bundle line by line into a fresh recorder;
//! - the **backward** reference checker of [`proof_reference`], which
//!   verifies the final clause's dependency cone of a [`Bundle`]: a copy of
//!   a recorder's [`steps`](ProofRecorder::steps) and final clause.
//!
//! Each corruption class the checkers claim to catch is exercised:
//!
//! - **dropped line**: removing a step the final clause's hints cite breaks
//!   structural coherence;
//! - **flipped literal**: editing a clause body invalidates its (strict,
//!   sequential) hint replay;
//! - **reordered antecedents**: LRAT hints are checked in propagation
//!   order, so a permutation that asks a not-yet-unit clause to propagate
//!   is rejected.
//!
//! Not every mutation of a class is invalid — a flipped literal can weaken
//! a clause that stays RUP, and reversing a symmetric two-hint chain can
//! yield another valid propagation order. The flip sweep therefore asserts
//! over all positions (*some* flip must be rejected, and the forward
//! checker rejects every flip the reference rejects), while the reorder
//! sweep only applies mutations that are invalid by construction: citing a
//! clause first when the negated target leaves two or more of its literals
//! unfalsified, which can neither conflict nor propagate. Deterministic
//! fixtures pin one concrete rejected mutation for each class besides.
//!
//! Multi-episode sessions with assumptions and frequent clause-database
//! reductions check that both checkers accept every UNSAT episode, and that
//! the forward checker verifies each derived line exactly once.
//!
//! [`ProofRecorder::check_current`]: refined_bmc::proof::ProofRecorder::check_current

mod proof_reference;

use proof_reference::Bundle;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use refined_bmc::cnf::Lit;
use refined_bmc::proof::{CheckStats, FinalClause, ProofError, ProofRecorder, ProofStep};
use refined_bmc::solver::{SolveResult, Solver, SolverOptions};

fn lit(n: i64) -> Lit {
    Lit::from_dimacs(n)
}

/// Solves `clauses` (DIMACS-style literals) with its proof log started and
/// returns the episode certificate if the formula is UNSAT.
fn certify(num_vars: usize, clauses: &[Vec<i64>]) -> Option<Bundle> {
    let mut solver = Solver::with_options(SolverOptions::default());
    solver.start_proof();
    solver.reserve_vars(num_vars);
    for clause in clauses {
        let lits: Vec<Lit> = clause.iter().map(|&d| lit(d)).collect();
        solver.add_clause(&lits);
    }
    if solver.solve() != SolveResult::Unsat {
        return None;
    }
    solver.proof().map(Bundle::of)
}

/// Feeds a bundle's lines, then its final clause, into a fresh recorder:
/// the certificate as the forward checker sees it during a session.
fn replay(bundle: &Bundle) -> ProofRecorder {
    let mut rec = ProofRecorder::new();
    for step in &bundle.steps {
        match step {
            ProofStep::Axiom { id, lits } => rec.axiom(*id, lits),
            ProofStep::Derived { id, lits, hints } => rec.derived(*id, lits, hints),
            ProofStep::Delete { id } => rec.delete(*id),
        }
    }
    rec.finalize(&bundle.final_clause.lits, &bundle.final_clause.hints);
    rec
}

/// The forward checker's verdict on a bundle.
fn check_forward(bundle: &Bundle) -> Result<CheckStats, ProofError> {
    replay(bundle).check_current()
}

/// Both checkers must reject `corrupt`.
fn rejected_by_both(corrupt: &Bundle) -> bool {
    corrupt.check().is_err() && check_forward(corrupt).is_err()
}

/// Dense random 1-to-3-literal clauses over a handful of variables: at this
/// density most samples are unsatisfiable, and refuting them takes real
/// propagation (non-trivial certificates). SAT samples are discarded.
fn arb_clauses() -> impl Strategy<Value = (usize, Vec<Vec<i64>>)> {
    (3usize..=5).prop_flat_map(|num_vars| {
        let literal =
            (1..=num_vars, 0u8..=1)
                .prop_map(|(var, neg)| if neg == 1 { -(var as i64) } else { var as i64 });
        let clause = prop::collection::vec(literal, 1..=3).prop_map(|mut c| {
            c.sort_unstable();
            c.dedup();
            c
        });
        (
            Just(num_vars),
            prop::collection::vec(clause, 4 * num_vars..8 * num_vars),
        )
    })
}

/// The ids the final clause's hints cite (the steps whose removal must be
/// structurally fatal).
fn cited_by_final(bundle: &Bundle) -> Vec<u64> {
    bundle.final_clause.hints.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solver_certificates_check_clean(input in arb_clauses()) {
        let (num_vars, clauses) = input;
        let Some(bundle) = certify(num_vars, &clauses) else {
            return Ok(()); // satisfiable sample
        };
        let stats = bundle.check().expect("genuine certificate must check");
        prop_assert!(stats.steps_verified <= stats.steps_total);
        // The forward checker accepts it too, and sees every derived line.
        let mut rec = replay(&bundle);
        let forward = rec.check_current().expect("forward checker must accept");
        let derived = bundle
            .steps
            .iter()
            .filter(|s| matches!(s, ProofStep::Derived { .. }))
            .count();
        prop_assert_eq!(forward.steps_verified, derived + 1);
        prop_assert_eq!(&Bundle::of(&rec), &bundle);
    }

    #[test]
    fn dropping_a_cited_line_is_rejected(input in arb_clauses()) {
        let (num_vars, clauses) = input;
        let Some(bundle) = certify(num_vars, &clauses) else {
            return Ok(());
        };
        // Every step the final clause cites is load-bearing: removing any
        // one of them must be rejected (structurally if the dangling id is
        // caught, semantically otherwise).
        for cited in cited_by_final(&bundle) {
            let mut corrupt = bundle.clone();
            corrupt.steps.retain(|s| s.id() != cited);
            prop_assert!(
                rejected_by_both(&corrupt),
                "dropping cited line {cited} must invalidate the certificate"
            );
        }
    }

    #[test]
    fn some_literal_flip_is_rejected(input in arb_clauses()) {
        let (num_vars, clauses) = input;
        let Some(bundle) = certify(num_vars, &clauses) else {
            return Ok(());
        };
        // Flip each literal of each derived step (and of the final clause)
        // in turn; at least one flip must be rejected. (Not every single
        // flip is invalid — a weakened clause can still be RUP — but a
        // checker that accepts *every* flip checks nothing.) The forward
        // checker verifies every line the reference does, so it must
        // reject whatever the reference rejects.
        let mut rejected = 0usize;
        let mut attempted = 0usize;
        let mut judge = |corrupt: &Bundle| -> Result<(), TestCaseError> {
            let backward = corrupt.check().is_err();
            prop_assert!(
                !backward || check_forward(corrupt).is_err(),
                "the forward checker accepts a flip the reference rejects"
            );
            rejected += usize::from(backward);
            Ok(())
        };
        for (si, step) in bundle.steps.iter().enumerate() {
            let ProofStep::Derived { lits, .. } = step else {
                continue;
            };
            for li in 0..lits.len() {
                attempted += 1;
                let mut corrupt = bundle.clone();
                if let ProofStep::Derived { lits, .. } = &mut corrupt.steps[si] {
                    lits[li] = !lits[li];
                }
                judge(&corrupt)?;
            }
        }
        for li in 0..bundle.final_clause.lits.len() {
            attempted += 1;
            let mut corrupt = bundle.clone();
            corrupt.final_clause.lits[li] = !corrupt.final_clause.lits[li];
            judge(&corrupt)?;
        }
        prop_assert!(
            attempted == 0 || rejected > 0,
            "no literal flip among {attempted} was rejected"
        );
    }

    #[test]
    fn front_loading_a_blocked_hint_is_rejected(input in arb_clauses()) {
        let (num_vars, clauses) = input;
        let Some(bundle) = certify(num_vars, &clauses) else {
            return Ok(());
        };
        // Clause bodies by proof line id (ids are unique, so deletions can
        // be ignored for the lookup).
        let mut db: std::collections::HashMap<u64, &[Lit]> =
            std::collections::HashMap::new();
        for step in &bundle.steps {
            match step {
                ProofStep::Axiom { id, lits } | ProofStep::Derived { id, lits, .. } => {
                    db.insert(*id, lits);
                }
                ProofStep::Delete { .. } => {}
            }
        }
        // Targets guaranteed to be propagation-verified: the final clause
        // itself, plus every derived step it cites directly (those are in
        // the checker's marked cone by construction). `None` marks the
        // final clause, `Some(si)` a step index.
        let mut targets: Vec<(Option<usize>, &[Lit], &[u64])> = vec![(
            None,
            &bundle.final_clause.lits[..],
            &bundle.final_clause.hints[..],
        )];
        for (si, step) in bundle.steps.iter().enumerate() {
            if let ProofStep::Derived { id, lits, hints } = step {
                if bundle.final_clause.hints.contains(id) {
                    targets.push((Some(si), lits, hints));
                }
            }
        }
        for (si, lits, hints) in targets {
            if lits.iter().any(|&l| lits.contains(&!l)) {
                continue; // tautological target: vacuously RUP, any order
            }
            for (j, &hint) in hints.iter().enumerate() {
                // Under ¬target alone, the cited clause's literals that the
                // target does not falsify are unassigned or true. With two
                // or more of them, citing this clause *first* can neither
                // conflict nor propagate — the strict sequential checker
                // must reject (HintNotUnit or SatisfiedHint). A genuine
                // certificate never has such a clause in front, so the
                // mutation below is a real reorder, never the identity.
                let nonfalsified = db[&hint]
                    .iter()
                    .filter(|&&c| !lits.contains(&c))
                    .count();
                if nonfalsified < 2 {
                    continue;
                }
                let mut reordered = hints.to_vec();
                reordered.remove(j);
                reordered.insert(0, hint);
                let mut corrupt = bundle.clone();
                match si {
                    None => corrupt.final_clause.hints = reordered,
                    Some(si) => {
                        if let ProofStep::Derived { hints, .. } = &mut corrupt.steps[si] {
                            *hints = reordered;
                        }
                    }
                }
                prop_assert!(
                    rejected_by_both(&corrupt),
                    "front-loading blocked hint {hint} must be rejected"
                );
            }
        }
    }
}

/// Deterministic fixture for the flip class: one specific literal flip in a
/// hand-built certificate is rejected.
#[test]
fn flipping_one_specific_literal_is_rejected() {
    // a ∧ ¬a, final empty clause.
    let bundle = Bundle {
        steps: vec![
            ProofStep::Axiom {
                id: 1,
                lits: vec![lit(1)],
            },
            ProofStep::Axiom {
                id: 2,
                lits: vec![lit(-1)],
            },
        ],
        final_clause: FinalClause {
            lits: Vec::new(),
            hints: vec![1, 2],
        },
    };
    bundle.check().expect("fixture is valid");
    check_forward(&bundle).expect("fixture is valid");
    let mut corrupt = bundle;
    if let ProofStep::Axiom { lits, .. } = &mut corrupt.steps[1] {
        lits[0] = !lits[0];
    }
    // a ∧ a: the second hint is satisfied, not conflicting.
    assert!(matches!(
        corrupt.check(),
        Err(ProofError::NoConflict { .. } | ProofError::SatisfiedHint { .. })
    ));
    assert!(matches!(
        check_forward(&corrupt),
        Err(ProofError::NoConflict { .. } | ProofError::SatisfiedHint { .. })
    ));
}

/// Deterministic fixture for the reorder class: a propagation chain through
/// a wide clause (unit only after two earlier hints) has exactly one valid
/// order, so the rotated hint list must be rejected.
#[test]
fn one_specific_hint_reorder_is_rejected() {
    // a ∧ b ∧ (¬a ∨ ¬b ∨ c) ∧ ¬c: refuting needs a, b first, then the wide
    // clause (now unit on c), then ¬c conflicts.
    let mut rec = ProofRecorder::new();
    rec.axiom(1, &[lit(1)]);
    rec.axiom(2, &[lit(2)]);
    rec.axiom(3, &[lit(-1), lit(-2), lit(3)]);
    rec.axiom(4, &[lit(-3)]);
    rec.finalize(&[], &[1, 2, 3, 4]);
    let good = Bundle::of(&rec);
    good.check().expect("propagation order is valid");
    let mut corrupt = good;
    // Ask the wide clause to propagate first: it still has two unassigned
    // literals, so the strict sequential checker must reject.
    corrupt.final_clause.hints = vec![3, 1, 2, 4];
    assert!(matches!(
        corrupt.check(),
        Err(ProofError::HintNotUnit { hint: 3, .. })
    ));
    assert_eq!(
        check_forward(&corrupt),
        Err(ProofError::HintNotUnit { step: 0, hint: 3 })
    );
}

/// The forward twin of the reference's
/// `unmarked_garbage_is_structurally_checked_only`: a bogus derived line
/// that no final clause depends on passes the reference, which only
/// verifies the final clause's cone, but the forward checker verifies every
/// line and rejects it.
#[test]
fn garbage_outside_every_cone_is_rejected_forward() {
    let mut rec = ProofRecorder::new();
    rec.axiom(1, &[lit(1)]);
    rec.axiom(2, &[lit(-1)]);
    rec.derived(3, &[lit(2)], &[1]); // not RUP, and cited by nothing
    rec.finalize(&[], &[1, 2]);
    assert!(Bundle::of(&rec).check().is_ok());
    assert_eq!(rec.check_current(), Err(ProofError::NoConflict { step: 3 }));
}

/// The forward checker latches its first rejection, a bad line or a bad
/// final clause, while the reference judges each episode on its own: a
/// later final clause that the reference accepts stays rejected forward.
#[test]
fn a_latched_rejection_outlasts_a_valid_final_clause() {
    let mut rec = ProofRecorder::new();
    rec.axiom(1, &[lit(1), lit(2)]);
    rec.axiom(2, &[lit(-1)]);
    rec.derived(3, &[lit(3)], &[1]); // not unit: 1 and 2 are open
    rec.finalize(&[lit(-1)], &[2]);
    let first = rec.check_current().unwrap_err();
    assert_eq!(first, ProofError::HintNotUnit { step: 3, hint: 1 });
    rec.axiom(4, &[lit(-2)]);
    rec.finalize(&[], &[2, 1, 4]);
    assert!(Bundle::of(&rec).check().is_ok());
    assert_eq!(rec.check_current(), Err(first));

    let mut rec = ProofRecorder::new();
    rec.axiom(1, &[lit(1)]);
    rec.axiom(2, &[lit(-1)]);
    rec.finalize(&[], &[2]);
    let first = rec.check_current().unwrap_err();
    assert_eq!(first, ProofError::NoConflict { step: 0 });
    rec.finalize(&[], &[1, 2]);
    assert!(Bundle::of(&rec).check().is_ok());
    assert_eq!(rec.check_current(), Err(first));
}

/// A hintless final clause is RUP over the lines live at the end of the
/// log: once the two lemmas it needs are deleted, both checkers reject it.
#[test]
fn deleted_lemmas_no_longer_support_a_hintless_final_clause() {
    // x1 follows from the four clauses over x1..x3 below, but not by unit
    // propagation alone: it needs the two derived lemmas.
    let mut rec = ProofRecorder::new();
    for (id, (b, c)) in [(2, 3), (2, -3), (-2, 3), (-2, -3)].into_iter().enumerate() {
        rec.axiom(id as u64 + 1, &[lit(1), lit(b), lit(c)]);
    }
    rec.derived(5, &[lit(1), lit(2)], &[]);
    rec.derived(6, &[lit(1), lit(-2)], &[]);
    rec.finalize(&[lit(1)], &[]);
    assert!(Bundle::of(&rec).check().is_ok());
    assert!(rec.check_current().is_ok());
    rec.delete(5);
    rec.delete(6);
    rec.finalize(&[lit(1)], &[]);
    let rejected = Err(ProofError::NoConflict { step: 0 });
    assert_eq!(Bundle::of(&rec).check(), rejected);
    assert_eq!(rec.check_current(), rejected);
}

/// One incremental session: a base formula, then episodes that each add a
/// few clauses and solve under assumptions.
#[derive(Debug)]
struct Session {
    num_vars: usize,
    base: Vec<Vec<i64>>,
    episodes: Vec<(Vec<Vec<i64>>, Vec<i64>)>,
}

/// What certifying a session amounted to.
#[derive(Debug, Default)]
struct Tally {
    unsat_episodes: usize,
    /// Sum of the forward checker's `steps_verified` over the session.
    verified: usize,
    /// Derived lines logged up to the last UNSAT episode.
    derived: usize,
    deletions: usize,
}

/// Runs `session` on one solver with a proof log and a reduction base of
/// two learned clauses, so that deletions are frequent. After every UNSAT
/// episode, both the forward checker (in place, on the live recorder) and
/// the reference (on a bundle of the log so far) must accept.
fn certify_session(session: &Session) -> Tally {
    let mut solver = Solver::with_options(SolverOptions {
        reduce_base: 2,
        reduce_inc: 1,
        ..SolverOptions::default()
    });
    solver.start_proof();
    solver.reserve_vars(session.num_vars);
    let add = |solver: &mut Solver, clauses: &[Vec<i64>]| {
        for clause in clauses {
            let lits: Vec<Lit> = clause.iter().map(|&d| lit(d)).collect();
            solver.add_clause(&lits);
        }
    };
    add(&mut solver, &session.base);
    let mut tally = Tally::default();
    for (clauses, assumptions) in &session.episodes {
        add(&mut solver, clauses);
        let assumptions: Vec<Lit> = assumptions.iter().map(|&d| lit(d)).collect();
        if solver.solve_under(&assumptions) != SolveResult::Unsat {
            continue;
        }
        tally.unsat_episodes += 1;
        let log = solver.proof_mut().expect("log started");
        let stats = log
            .check_current()
            .unwrap_or_else(|e| panic!("forward checker rejects episode: {e}"));
        tally.verified += stats.steps_verified;
        let bundle = Bundle::of(log);
        bundle
            .check()
            .unwrap_or_else(|e| panic!("reference checker rejects episode: {e}"));
        let count = |f: fn(&ProofStep) -> bool| bundle.steps.iter().filter(|s| f(s)).count();
        tally.derived = count(|s| matches!(s, ProofStep::Derived { .. }));
        tally.deletions = count(|s| matches!(s, ProofStep::Delete { .. }));
    }
    tally
}

/// Sessions of 3-literal clauses over 8–14 variables, starting at about
/// three clauses per variable and growing by a few clauses per episode, so
/// that answers mix SAT and UNSAT, with 1–6 random assumptions each.
fn arb_session() -> impl Strategy<Value = Session> {
    (8usize..=14).prop_flat_map(|num_vars| {
        let literal = move || {
            (1..=num_vars, 0u8..=1)
                .prop_map(|(var, neg)| if neg == 1 { -(var as i64) } else { var as i64 })
        };
        let clause = move || {
            prop::collection::vec(literal(), 3..=3).prop_map(|mut c| {
                c.sort_unstable();
                c.dedup();
                c
            })
        };
        let episode = (
            prop::collection::vec(clause(), 0..=3),
            prop::collection::vec(literal(), 1..=6),
        );
        (
            Just(num_vars),
            prop::collection::vec(clause(), 3 * num_vars..4 * num_vars),
            prop::collection::vec(episode, 4..=12),
        )
            .prop_map(|(num_vars, base, episodes)| Session {
                num_vars,
                base,
                episodes,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn session_episodes_pass_both_checkers(session in arb_session()) {
        let tally = certify_session(&session);
        // Linearity: over the session each derived line is verified exactly
        // once, and each UNSAT episode adds its final clause.
        prop_assert_eq!(tally.verified, tally.derived + tally.unsat_episodes);
    }
}

/// A fixed, larger session from a deterministic generator: it must reach
/// many UNSAT episodes with deletions in the log, so the random sessions
/// above are known to exercise the reduction path, and the linearity count
/// must hold there too.
#[test]
fn long_session_with_deletions_checks_each_line_once() {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let num_vars = 40;
    let mut literal = || {
        let var = 1 + next(num_vars as u64) as i64;
        if next(2) == 1 {
            -var
        } else {
            var
        }
    };
    let base: Vec<Vec<i64>> = (0..150)
        .map(|_| (0..3).map(|_| literal()).collect())
        .collect();
    let episodes = (0..40)
        .map(|_| {
            let clauses = (0..2)
                .map(|_| (0..3).map(|_| literal()).collect())
                .collect();
            let assumptions = (0..4).map(|_| literal()).collect();
            (clauses, assumptions)
        })
        .collect();
    let tally = certify_session(&Session {
        num_vars,
        base,
        episodes,
    });
    assert!(tally.unsat_episodes >= 10, "{tally:?}");
    assert!(tally.deletions > 0, "{tally:?}");
    assert_eq!(tally.verified, tally.derived + tally.unsat_episodes);
}
