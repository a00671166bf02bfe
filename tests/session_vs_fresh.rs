//! Differential testing of the two solver-reuse regimes: on random
//! sequential circuits, a persistent incremental session and the paper's
//! fresh-solver-per-depth setup must produce identical verdicts — per depth,
//! not just at the end — and every SAT verdict must come with a
//! simulation-valid counterexample in both regimes. On the same circuits
//! with one to three properties, both regimes must also agree property by
//! property, and every UNSAT episode of either must pass the independent
//! proof checker.

#[path = "random_models/multi_bad.rs"]
mod random_models;

use proptest::prelude::*;
use random_models::{arb_recipe, build as build_problem, ProblemRecipe};
use refined_bmc::bmc::{
    BmcEngine, BmcOptions, BmcRun, Model, OrderingStrategy, ProofMode, PropertyVerdict,
    SolveResult, SolverReuse, VerificationProblem,
};

/// The single-property view: the recipe's first bad signal.
fn build(recipe: &ProblemRecipe) -> Model {
    let problem = build_problem(recipe);
    Model::new(
        "random",
        problem.netlist().clone(),
        problem.property(0).bad(),
    )
}

fn run(model: &Model, strategy: OrderingStrategy, reuse: SolverReuse, depth: usize) -> BmcRun {
    let mut engine = BmcEngine::new(
        model.clone(),
        BmcOptions {
            max_depth: depth,
            strategy,
            reuse,
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();
    // A SAT verdict must carry a counterexample that replays on the
    // circuit simulator, in either regime.
    if let PropertyVerdict::Falsified { trace, .. } = &run.properties[0].verdict {
        trace.validate(model).expect("trace must replay");
    }
    run
}

/// A certified multi-property run: every UNSAT episode must pass the proof
/// checker with zero rejections, and every counterexample must replay on
/// the netlist.
fn run_certified(
    problem: &VerificationProblem,
    strategy: OrderingStrategy,
    reuse: SolverReuse,
    depth: usize,
) -> BmcRun {
    let mut engine = BmcEngine::for_problem(
        problem.clone(),
        BmcOptions {
            max_depth: depth,
            strategy,
            reuse,
            proof: ProofMode::Check,
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();
    let proof = run.proof.as_ref().expect("proof checking was enabled");
    assert_eq!(
        proof.rejections, 0,
        "{strategy:?} {reuse:?}: certificate rejected: {:?}",
        proof.first_rejection
    );
    let unsat_episodes = run
        .properties
        .iter()
        .flat_map(|p| &p.depth_results)
        .filter(|&&r| r == SolveResult::Unsat)
        .count() as u64;
    assert_eq!(
        proof.episodes_certified, unsat_episodes,
        "{strategy:?} {reuse:?}: every UNSAT episode must be certified"
    );
    for (idx, prop) in run.properties.iter().enumerate() {
        if let PropertyVerdict::Falsified { trace, .. } = &prop.verdict {
            trace
                .validate_against(problem.netlist(), problem.property(idx).bad())
                .unwrap_or_else(|e| panic!("{strategy:?} {reuse:?} p{idx}: trace invalid: {e}"));
        }
    }
    run
}

/// Per-property per-depth verdict sequences plus falsification depths.
type Signature = Vec<(Vec<SolveResult>, Option<usize>)>;

fn signature(run: &BmcRun) -> Signature {
    run.properties
        .iter()
        .map(|p| {
            let falsified = match p.verdict {
                PropertyVerdict::Falsified { depth, .. } => Some(depth),
                _ => None,
            };
            (p.depth_results.clone(), falsified)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn session_and_fresh_verdicts_are_identical(recipe in arb_recipe()) {
        const DEPTH: usize = 7;
        let model = build(&recipe);
        for strategy in [
            OrderingStrategy::Standard,
            OrderingStrategy::RefinedStatic,
            OrderingStrategy::RefinedDynamic { divisor: 64 },
        ] {
            let fresh = run(&model, strategy, SolverReuse::Fresh, DEPTH);
            let session = run(&model, strategy, SolverReuse::Session, DEPTH);
            let verdicts = |r: &BmcRun| -> Vec<SolveResult> {
                r.per_depth.iter().map(|d| d.result).collect()
            };
            prop_assert_eq!(
                verdicts(&fresh),
                verdicts(&session),
                "per-depth divergence under {:?}",
                strategy
            );
            // Identical verdict sequences imply identical verdict kinds;
            // counterexamples must agree on the (minimal-per-regime) depth.
            match (&fresh.properties[0].verdict, &session.properties[0].verdict) {
                (
                    PropertyVerdict::Falsified { depth: df, .. },
                    PropertyVerdict::Falsified { depth: ds, .. },
                )
                | (PropertyVerdict::OpenAt { depth: df }, PropertyVerdict::OpenAt { depth: ds }) => {
                    prop_assert_eq!(df, ds);
                }
                (f, s) => prop_assert!(false, "verdict kinds diverged: {f} vs {s}"),
            }
        }
    }

    #[test]
    fn multi_property_session_and_fresh_agree_under_proof_check(recipe in arb_recipe()) {
        const DEPTH: usize = 6;
        let problem = build_problem(&recipe);
        for strategy in [
            OrderingStrategy::Standard,
            OrderingStrategy::RefinedStatic,
            OrderingStrategy::RefinedDynamic { divisor: 64 },
        ] {
            let session = run_certified(&problem, strategy, SolverReuse::Session, DEPTH);
            let fresh = run_certified(&problem, strategy, SolverReuse::Fresh, DEPTH);
            prop_assert_eq!(signature(&session), signature(&fresh), "{:?}", strategy);
        }
    }
}
