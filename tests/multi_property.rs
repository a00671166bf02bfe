//! End-to-end multi-property acceptance gates.
//!
//! The scenario of the PR's acceptance criterion: a multi-property AIGER
//! benchmark with one falsifiable and one deep-open property, checked in a
//! single incremental session, must yield one validated witness plus one
//! `OpenAt` verdict — and the session's per-depth verdicts must be identical
//! to fresh-per-depth single-property runs (the paper's regime), for every
//! ordering strategy.

use refined_bmc::bmc::{
    BmcEngine, BmcOptions, OrderingStrategy, ProblemBuilder, PropertyVerdict, SolveResult,
    SolverReuse, VerificationProblem,
};
use refined_bmc::circuit::aiger::{write_aag, write_aig};
use refined_bmc::gens::corpus::{multi_even_counter, problem_to_aig};

fn all_strategies() -> Vec<OrderingStrategy> {
    vec![
        OrderingStrategy::Standard,
        OrderingStrategy::RefinedStatic,
        OrderingStrategy::RefinedDynamic { divisor: 64 },
        OrderingStrategy::Shtrichman,
    ]
}

/// Runs the session engine on a problem ingested from AIGER bytes and
/// checks the witness + open verdict shape.
fn check_ingested(bytes: &[u8], strategy: OrderingStrategy) {
    let problem = VerificationProblem::from_aiger("multi", bytes).expect("parses");
    assert_eq!(problem.num_properties(), 2);
    let mut engine = BmcEngine::for_problem(
        problem.clone(),
        BmcOptions {
            max_depth: 9,
            strategy,
            reuse: SolverReuse::Session,
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();

    // One validated witness…
    match &run.property("reach6").expect("report exists").verdict {
        PropertyVerdict::Falsified { depth, trace } => {
            assert_eq!(*depth, 3, "{strategy:?}");
            trace
                .validate_against(problem.netlist(), problem.property(0).bad())
                .expect("witness replays on the netlist");
        }
        other => panic!("{strategy:?}: reach6 expected falsified, got {other}"),
    }
    // …plus one OpenAt verdict, in the same single run.
    match &run.property("reach7").expect("report exists").verdict {
        PropertyVerdict::OpenAt { depth } => assert_eq!(*depth, 9, "{strategy:?}"),
        other => panic!("{strategy:?}: reach7 expected open, got {other}"),
    }

    // Per-depth verdicts identical to fresh-per-depth single-property runs.
    for (idx, report) in run.properties.iter().enumerate() {
        let single = ProblemBuilder::new("single", problem.netlist().clone())
            .property(&report.name, problem.property(idx).bad())
            .build();
        let mut fresh = BmcEngine::for_problem(
            single,
            BmcOptions {
                max_depth: 9,
                strategy,
                reuse: SolverReuse::Fresh,
                ..BmcOptions::default()
            },
        );
        let fresh_run = fresh.run_collecting();
        let fresh_verdicts: Vec<SolveResult> =
            fresh_run.per_depth.iter().map(|d| d.result).collect();
        assert_eq!(
            report.depth_results, fresh_verdicts,
            "{strategy:?} property {}",
            report.name
        );
    }
}

#[test]
fn ascii_ingestion_yields_witness_and_open_verdict() {
    let aig = problem_to_aig(&multi_even_counter());
    let bytes = write_aag(&aig).into_bytes();
    for strategy in all_strategies() {
        check_ingested(&bytes, strategy);
    }
}

#[test]
fn binary_ingestion_yields_witness_and_open_verdict() {
    let aig = problem_to_aig(&multi_even_counter());
    let bytes = write_aig(&aig);
    for strategy in all_strategies() {
        check_ingested(&bytes, strategy);
    }
}

#[test]
fn session_stats_cover_both_properties() {
    let problem = multi_even_counter();
    let mut engine = BmcEngine::for_problem(
        problem,
        BmcOptions {
            max_depth: 9,
            strategy: OrderingStrategy::RefinedStatic,
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();
    let r6 = run.property("reach6").unwrap();
    let r7 = run.property("reach7").unwrap();
    // reach6 retires at depth 3: episodes for depths 0..=3 only.
    assert_eq!(r6.episodes, 4);
    assert!(matches!(
        r6.verdict,
        PropertyVerdict::Falsified { depth: 3, .. }
    ));
    assert_eq!(r6.assumption_conflicts, 3);
    // reach7 sweeps the whole bound: depths 0..=9, all UNSAT.
    assert_eq!(r7.episodes, 10);
    assert!(matches!(r7.verdict, PropertyVerdict::OpenAt { depth: 9 }));
    assert_eq!(r7.assumption_conflicts, 10);
    // The shared session solver saw every episode.
    assert_eq!(run.solver_stats.solve_calls, r6.episodes + r7.episodes);
    // Per-depth aggregates cover both properties' episodes at each depth.
    assert_eq!(run.per_depth.len(), 10);
}
