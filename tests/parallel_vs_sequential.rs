//! Differential testing of the parallel dispatch layer: on random
//! multi-property sequential circuits, both sharding grains (by property
//! under the session regime, by depth under the fresh one) at every worker
//! budget must reproduce the sequential engine's per-depth verdicts and
//! retirement depths, be bit-identical across `jobs` values (the
//! commit-order merge makes scheduling invisible), and — where the
//! decomposition coincides with a sequential regime — reproduce its
//! `varRank` table bit for bit.

use proptest::prelude::*;
use refined_bmc::bmc::{
    BmcEngine, BmcOptions, BmcRun, OrderingStrategy, ParallelConfig, ProblemBuilder, SolveResult,
    SolverReuse, VerificationProblem,
};
use refined_bmc::circuit::{LatchInit, Netlist, Signal};

/// Construction steps over a signal pool (inputs, latches, then gates) —
/// the same recipe shape as `session_vs_fresh`, plus a property-count knob.
#[derive(Debug, Clone)]
enum Step {
    And(usize, usize),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

#[derive(Debug, Clone)]
struct ProblemRecipe {
    num_inputs: usize,
    latch_inits: Vec<LatchInit>,
    steps: Vec<Step>,
    nexts: Vec<usize>,
    bads: Vec<usize>,
}

fn arb_recipe() -> impl Strategy<Value = ProblemRecipe> {
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
                .prop_map(move |(nexts, bads, steps, latch_inits)| ProblemRecipe {
                    num_inputs,
                    latch_inits,
                    steps,
                    nexts,
                    bads,
                })
        })
    })
}

fn build(recipe: &ProblemRecipe) -> VerificationProblem {
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

fn run(
    problem: &VerificationProblem,
    strategy: OrderingStrategy,
    reuse: SolverReuse,
    parallel: Option<ParallelConfig>,
    depth: usize,
) -> (BmcRun, Vec<u64>) {
    let mut engine = BmcEngine::for_problem(
        problem.clone(),
        BmcOptions {
            max_depth: depth,
            strategy,
            reuse,
            parallel,
            // Certify every UNSAT along the way: a parallel grain that
            // merely *agrees* with the oracle but derives its verdicts
            // unsoundly is caught here, not just a verdict divergence.
            proof: refined_bmc::bmc::ProofMode::Check,
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();
    let proof = run.proof.as_ref().expect("proof checking was enabled");
    assert!(
        !proof.rejected(),
        "certificate rejected: {:?}",
        proof.first_rejection
    );
    (run, engine.rank().snapshot())
}

/// The cross-run comparison currency: per-property per-depth verdict
/// sequences plus retirement depths.
type Signature = Vec<(Vec<SolveResult>, Option<usize>)>;

fn signature(run: &BmcRun) -> Signature {
    run.properties
        .iter()
        .map(|p| (p.depth_results.clone(), p.retirement_depth))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_runs_match_sequential_at_every_jobs_count(recipe in arb_recipe()) {
        const DEPTH: usize = 6;
        let problem = build(&recipe);
        for strategy in [
            OrderingStrategy::Standard,
            OrderingStrategy::RefinedStatic,
            OrderingStrategy::RefinedDynamic { divisor: 64 },
        ] {
            let (session, session_rank) =
                run(&problem, strategy, SolverReuse::Session, None, DEPTH);
            let (fresh, fresh_rank) = run(&problem, strategy, SolverReuse::Fresh, None, DEPTH);
            // Every SAT verdict carries a validating trace in every mode;
            // validate the sequential ones once up front.
            for (idx, prop) in session.properties.iter().enumerate() {
                if let refined_bmc::bmc::PropertyVerdict::Falsified { trace, .. } = &prop.verdict {
                    prop_assert!(trace
                        .validate_against(problem.netlist(), problem.property(idx).bad())
                        .is_ok());
                }
            }
            for reuse in [SolverReuse::Session, SolverReuse::Fresh] {
                let mut jobs_baseline: Option<(Signature, Vec<u64>)> = None;
                for jobs in [1usize, 2, 4] {
                    let (par, par_rank) = run(
                        &problem,
                        strategy,
                        reuse,
                        Some(ParallelConfig::new(jobs)),
                        DEPTH,
                    );
                    // Verdicts and retirement depths are semantic: identical
                    // to the sequential session engine in every mode.
                    prop_assert_eq!(
                        signature(&par),
                        signature(&session),
                        "{:?} {:?} jobs={}",
                        strategy,
                        reuse,
                        jobs
                    );
                    // The whole result — rank table included — is invariant
                    // in the worker budget.
                    match &jobs_baseline {
                        None => jobs_baseline = Some((signature(&par), par_rank.clone())),
                        Some((sig, rank)) => {
                            prop_assert_eq!(&signature(&par), sig);
                            prop_assert_eq!(&par_rank, rank, "{:?} {:?} jobs={}", strategy, reuse, jobs);
                        }
                    }
                    // Where the decomposition coincides with a sequential
                    // regime, the rank table is bit-identical to it:
                    // depth-sharding is the fresh regime (any property
                    // count), property-sharding is the session regime for
                    // single-property problems.
                    match reuse {
                        SolverReuse::Fresh => {
                            prop_assert_eq!(&par_rank, &fresh_rank, "{:?} jobs={}", strategy, jobs);
                        }
                        SolverReuse::Session if problem.num_properties() == 1 => {
                            prop_assert_eq!(&par_rank, &session_rank, "{:?} jobs={}", strategy, jobs);
                        }
                        SolverReuse::Session => {}
                    }
                }
            }
            // The two sequential regimes agree on verdicts too (the PR 3/4
            // gate, re-checked here on multi-property problems).
            prop_assert_eq!(signature(&fresh), signature(&session), "{:?}", strategy);
        }
    }
}

/// Far more workers than work items: the pool clamps to the item count, and
/// the result is still the sequential one, rank table included.
#[test]
fn oversubscribed_parallel_runs_match_sequential() {
    let mut n = Netlist::new();
    let bits: Vec<Signal> = (0..4)
        .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
        .collect();
    let next = n.bus_increment(&bits);
    for (&b, &nx) in bits.iter().zip(&next) {
        n.set_next(b, nx);
    }
    let targets = [3u64, 14, 9, 6];
    let props: Vec<Signal> = targets.iter().map(|&t| n.bus_eq_const(&bits, t)).collect();
    let mut builder = ProblemBuilder::new("counter", n);
    for (t, bad) in targets.iter().zip(props) {
        builder = builder.property(&format!("reach_{t}"), bad);
    }
    let problem = builder.build();
    let strategy = OrderingStrategy::RefinedDynamic { divisor: 64 };
    for reuse in [SolverReuse::Session, SolverReuse::Fresh] {
        let (seq, _) = run(&problem, strategy, reuse, None, 12);
        let (base, base_rank) = run(&problem, strategy, reuse, Some(ParallelConfig::new(1)), 12);
        assert_eq!(signature(&base), signature(&seq), "{reuse:?}");
        for jobs in [64, 256] {
            let (par, par_rank) = run(
                &problem,
                strategy,
                reuse,
                Some(ParallelConfig::new(jobs)),
                12,
            );
            assert_eq!(signature(&par), signature(&seq), "{reuse:?} jobs={jobs}");
            assert_eq!(par_rank, base_rank, "{reuse:?} jobs={jobs}");
            assert!(par.workers.len() <= targets.len(), "{reuse:?} jobs={jobs}");
        }
    }
}
