//! Structural-audit runs (the `debug-invariants` feature).
//!
//! With the feature enabled, the solver audits its watch lists, trail,
//! arena, CDG, decision heap and proof log after every learned-database
//! compaction and CDG prune, the BMC engine re-audits the session solver at
//! every depth boundary, and IC3 re-audits its session solver at every
//! frontier boundary — any violation panics. These tests drive search-heavy
//! session sweeps with compaction-aggressive settings so the hooks fire
//! many times; they pass exactly when every audit along the way does.
//!
//! Run with `cargo test --features debug-invariants`.

#![cfg(feature = "debug-invariants")]

use refined_bmc::bmc::{
    check_invariant, BmcEngine, BmcOptions, Ic3Engine, Model, OrderingStrategy, ProofMode,
    PropertyVerdict, SolverReuse,
};
use refined_bmc::gens::families;
use refined_bmc::solver::SolverOptions;

/// Compaction-heavy engine options: reduction after a handful of learned
/// clauses and session reuse, whose solver prunes its CDG at every depth
/// boundary — the configuration that exercises every audited hook. Proof
/// checking rides along so every audit also covers the proof log (its live
/// lines must mirror the solver's learned database exactly).
fn audited_options(max_depth: usize, strategy: OrderingStrategy) -> BmcOptions {
    BmcOptions {
        max_depth,
        strategy,
        reuse: SolverReuse::Session,
        proof: ProofMode::Check,
        solver: SolverOptions {
            reduce_base: 4,
            reduce_inc: 2,
            ..SolverOptions::default()
        },
        ..BmcOptions::default()
    }
}

fn run(model: Model, max_depth: usize, strategy: OrderingStrategy) -> PropertyVerdict {
    let mut engine = BmcEngine::new(model, audited_options(max_depth, strategy));
    let bmc_run = engine.run_collecting();
    assert!(
        bmc_run.solver_stats.compactions > 0 || bmc_run.solver_stats.conflicts < 50,
        "compaction-heavy settings should compact on a search-heavy run"
    );
    bmc_run
        .properties
        .into_iter()
        .next()
        .expect("one property")
        .verdict
}

#[test]
fn holding_sweep_passes_every_audit() {
    // TMR voter: UNSAT at every depth, search-heavy — many compactions and
    // depth-boundary prunes, each followed by a full structural audit.
    let verdict = run(
        families::tmr_voter(3, 1),
        16,
        OrderingStrategy::RefinedStatic,
    );
    assert!(matches!(verdict, PropertyVerdict::OpenAt { depth: 16 }));
}

#[test]
fn falsified_sweep_passes_every_audit() {
    // A counterexample run: UNSAT prefixes (audited) then a SAT instance.
    let verdict = run(
        families::token_ring_buggy(3, 6),
        12,
        OrderingStrategy::RefinedStatic,
    );
    assert!(
        matches!(verdict, PropertyVerdict::Falsified { .. }),
        "buggy token ring must fall within the bound, got {verdict}"
    );
}

#[test]
fn dynamic_ordering_sweep_passes_every_audit() {
    let verdict = run(
        families::mutex_arbiter(3),
        10,
        OrderingStrategy::RefinedDynamic { divisor: 64 },
    );
    assert!(matches!(verdict, PropertyVerdict::OpenAt { .. }));
}

/// IC3 under the same audited options: its session solver serves one
/// query after another, and the engine audits it at every frontier
/// boundary.
fn run_ic3(model: Model, max_depth: usize) -> (Ic3Engine, PropertyVerdict) {
    let options = audited_options(max_depth, OrderingStrategy::RefinedDynamic { divisor: 64 });
    let mut engine = Ic3Engine::new(model, options);
    let run = engine.run_collecting();
    assert!(
        run.solver_stats.solve_calls > 20,
        "too few queries to audit"
    );
    let verdict = run
        .properties
        .into_iter()
        .next()
        .expect("one property")
        .verdict;
    (engine, verdict)
}

#[test]
fn ic3_proof_passes_every_audit() {
    let (engine, verdict) = run_ic3(families::mutex_arbiter(4), 12);
    let PropertyVerdict::Proved {
        invariant_clauses: Some(clauses),
        ..
    } = &verdict
    else {
        panic!("the mutex holds, got {verdict}");
    };
    let working = engine.working_model();
    assert_eq!(check_invariant(working, working.bad(), clauses), Ok(()));
}

#[test]
fn ic3_falsification_passes_every_audit() {
    let (_, verdict) = run_ic3(families::token_ring_buggy(3, 6), 12);
    assert!(
        matches!(verdict, PropertyVerdict::Falsified { .. }),
        "the buggy token ring fails, got {verdict}"
    );
}
