//! Differential testing of the two solver-reuse regimes: on random
//! sequential circuits, a persistent incremental session and the paper's
//! fresh-solver-per-depth setup must produce identical verdicts — per depth,
//! not just at the end — and every SAT verdict must come with a
//! simulation-valid counterexample in both regimes. On the same circuits
//! with one to three properties, both regimes must also agree property by
//! property, and every UNSAT episode of either must pass the independent
//! proof checker.

use proptest::prelude::*;
use refined_bmc::bmc::{
    BmcEngine, BmcOptions, BmcOutcome, BmcRun, Model, OrderingStrategy, ProblemBuilder, ProofMode,
    PropertyVerdict, SolveResult, SolverReuse, VerificationProblem,
};
use refined_bmc::circuit::{LatchInit, Netlist, Signal};

/// Construction steps over a signal pool (inputs, latches, then gates) —
/// the same recipe shape as `proptest_random_models`, with one to three bad
/// signals.
#[derive(Debug, Clone)]
enum Step {
    And(usize, usize),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

#[derive(Debug, Clone)]
struct ModelRecipe {
    num_inputs: usize,
    latch_inits: Vec<LatchInit>,
    steps: Vec<Step>,
    nexts: Vec<usize>,
    bads: Vec<usize>,
}

fn arb_recipe() -> impl Strategy<Value = ModelRecipe> {
    let init = prop_oneof![
        Just(LatchInit::Zero),
        Just(LatchInit::One),
        Just(LatchInit::Free)
    ];
    (1usize..3, prop::collection::vec(init, 1..5)).prop_flat_map(|(num_inputs, latch_inits)| {
        let steps = prop::collection::vec(
            prop_oneof![
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::And(a, b)),
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::Xor(a, b)),
                (0usize..64, 0usize..64, 0usize..64).prop_map(|(s, a, b)| Step::Mux(s, a, b)),
            ],
            1..12,
        );
        let nl = latch_inits.len();
        (steps, Just(latch_inits)).prop_flat_map(move |(steps, latch_inits)| {
            let pool = 1 + num_inputs + nl + steps.len();
            (
                prop::collection::vec(0usize..pool, nl),
                prop::collection::vec(0usize..pool, 1..4),
                Just(steps),
                Just(latch_inits),
            )
                .prop_map(move |(nexts, bads, steps, latch_inits)| ModelRecipe {
                    num_inputs,
                    latch_inits,
                    steps,
                    nexts,
                    bads,
                })
        })
    })
}

/// Every bad signal of the recipe as one property set.
fn build_problem(recipe: &ModelRecipe) -> VerificationProblem {
    let mut n = Netlist::new();
    let mut pool: Vec<Signal> = vec![Signal::TRUE];
    for i in 0..recipe.num_inputs {
        pool.push(n.add_input(&format!("i{i}")));
    }
    let latches: Vec<Signal> = recipe
        .latch_inits
        .iter()
        .enumerate()
        .map(|(i, &init)| {
            let l = n.add_latch(&format!("l{i}"), init);
            pool.push(l);
            l
        })
        .collect();
    for step in &recipe.steps {
        let pick = |i: usize, pool: &Vec<Signal>| pool[i % pool.len()];
        let s = match *step {
            Step::And(a, b) => {
                let (x, y) = (pick(a, &pool), pick(b, &pool));
                n.and2(x, y)
            }
            Step::Xor(a, b) => {
                let (x, y) = (pick(a, &pool), pick(b, &pool));
                n.xor2(x, y)
            }
            Step::Mux(s, a, b) => {
                let (c, x, y) = (pick(s, &pool), pick(a, &pool), pick(b, &pool));
                n.mux(c, x, y)
            }
        };
        pool.push(s);
    }
    for (&l, &nx) in latches.iter().zip(&recipe.nexts) {
        n.set_next(l, pool[nx % pool.len()]);
    }
    let mut builder = ProblemBuilder::new("random", n);
    for (i, &b) in recipe.bads.iter().enumerate() {
        builder = builder.property(&format!("p{i}"), pool[b % pool.len()]);
    }
    builder.build()
}

/// The single-property view: the recipe's first bad signal.
fn build(recipe: &ModelRecipe) -> Model {
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
    if let BmcOutcome::Counterexample { trace, .. } = &run.outcome {
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

/// Per-property per-depth verdict sequences plus retirement depths.
type Signature = Vec<(Vec<SolveResult>, Option<usize>)>;

fn signature(run: &BmcRun) -> Signature {
    run.properties
        .iter()
        .map(|p| (p.depth_results.clone(), p.retirement_depth))
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
            // Identical verdict sequences imply identical outcome kinds;
            // counterexamples must agree on the (minimal-per-regime) depth.
            match (&fresh.outcome, &session.outcome) {
                (
                    BmcOutcome::Counterexample { depth: df, .. },
                    BmcOutcome::Counterexample { depth: ds, .. },
                ) => prop_assert_eq!(df, ds),
                (
                    BmcOutcome::BoundReached { depth_completed: df },
                    BmcOutcome::BoundReached { depth_completed: ds },
                ) => prop_assert_eq!(df, ds),
                (f, s) => prop_assert!(false, "outcome kinds diverged: {f} vs {s}"),
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
