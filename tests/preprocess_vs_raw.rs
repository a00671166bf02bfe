//! Differential gate of the structural preprocessing pass: on random
//! multi-property sequential circuits, the preprocessed engine must
//! reproduce the raw engine's per-depth verdicts and retirement depths in
//! both reuse regimes, and every counterexample it returns — lifted back to
//! original coordinates — must replay on the *original* netlist.

use proptest::prelude::*;
use refined_bmc::bmc::{
    BmcEngine, BmcOptions, BmcRun, OrderingStrategy, ProblemBuilder, PropertyVerdict, SolveResult,
    SolverReuse, VerificationProblem,
};
use refined_bmc::circuit::{LatchInit, Netlist, Signal};

/// Construction steps over a signal pool (inputs, latches, then gates) —
/// the multi-property recipe shape of `session_vs_fresh`. Random `nexts`
/// routinely produce self-looping (stuck) latches and out-of-cone logic, so
/// the pass has real work on most cases.
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

/// Disjoint-cone fixture: one 4-bit counter per property plus shared stuck
/// latches, so preprocessing provably shrinks every property's instance.
fn disjoint_cones_problem() -> VerificationProblem {
    let mut n = Netlist::new();
    let stuck: Vec<Signal> = (0..4)
        .map(|i| {
            let s = n.add_latch(&format!("stuck{i}"), LatchInit::Zero);
            n.set_next(s, s);
            s
        })
        .collect();
    let mut props: Vec<(String, Signal)> = Vec::new();
    for (p, target) in [3u64, 9, 14].into_iter().enumerate() {
        let bits: Vec<Signal> = (0..4)
            .map(|i| n.add_latch(&format!("c{p}_{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        // OR-ing a stuck-at-0 latch into the property is behavior-neutral
        // but puts it in the cone: sweeping (not COI) must remove it.
        // stuck[3] stays out of every cone and is dropped instead.
        let eq = n.bus_eq_const(&bits, target);
        props.push((format!("reach_{target}"), n.or2(eq, stuck[p])));
    }
    let mut builder = ProblemBuilder::new("disjoint", n);
    for (name, sig) in props {
        builder = builder.property(&name, sig);
    }
    builder.build()
}

fn run(
    problem: &VerificationProblem,
    preprocess: bool,
    reuse: SolverReuse,
    depth: usize,
) -> BmcRun {
    let mut engine = BmcEngine::for_problem(
        problem.clone(),
        BmcOptions {
            max_depth: depth,
            strategy: OrderingStrategy::RefinedStatic,
            reuse,
            preprocess,
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();
    // Every trace the engine hands back must be in *original* coordinates,
    // preprocessed or not.
    for (idx, prop) in run.properties.iter().enumerate() {
        if let PropertyVerdict::Falsified { trace, .. } = &prop.verdict {
            trace
                .validate_against(problem.netlist(), problem.property(idx).bad())
                .unwrap_or_else(|e| {
                    panic!(
                        "property {idx} trace invalid (preprocess={preprocess}, \
                         reuse={reuse:?}): {e}"
                    )
                });
        }
    }
    run
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
    fn preprocessed_runs_match_raw_on_random_problems(recipe in arb_recipe()) {
        const DEPTH: usize = 6;
        let problem = build(&recipe);
        for reuse in [SolverReuse::Session, SolverReuse::Fresh] {
            let raw = run(&problem, false, reuse, DEPTH);
            let pp = run(&problem, true, reuse, DEPTH);
            prop_assert_eq!(signature(&pp), signature(&raw), "{:?}", reuse);
        }
    }
}

#[test]
fn preprocessing_agrees_across_reuse_regimes_on_disjoint_cones() {
    const DEPTH: usize = 15;
    let problem = disjoint_cones_problem();
    let baseline = run(&problem, false, SolverReuse::Session, DEPTH);
    // reach_3 and reach_9 falsified, reach_14 falsified at 14.
    assert_eq!(baseline.num_falsified(), 3);
    for reuse in [SolverReuse::Session, SolverReuse::Fresh] {
        let pp = run(&problem, true, reuse, DEPTH);
        assert_eq!(
            signature(&pp),
            signature(&baseline),
            "{reuse:?} diverged from the raw session engine"
        );
    }
}

#[test]
fn preprocessing_shrinks_the_encoded_problem() {
    let problem = disjoint_cones_problem();
    let mut engine = BmcEngine::for_problem(problem.clone(), BmcOptions::default());
    // 16 original latches (4 stuck + 3 × 4 counter bits): the union cone
    // keeps the 12 counter bits, sweeps the 3 in-cone stuck latches, and
    // drops the out-of-cone one.
    assert_eq!(engine.model().netlist().num_latches(), 16);
    assert_eq!(engine.working_model().netlist().num_latches(), 12);
    let report = engine.preprocess_report().expect("preprocessing on");
    assert_eq!(report.swept_latches, 3);
    assert_eq!(report.dropped_latches, 1);
    assert!(report.after.gates <= report.before.gates);
    let lift = engine.trace_lift().expect("preprocessing on");
    assert!(!lift.is_identity());
    // Only the dropped latch is don't-care; swept in-cone latches are not.
    assert_eq!(
        lift.dontcare_latches().iter().filter(|&&d| d).count(),
        1,
        "exactly the out-of-cone stuck latch may print x"
    );
    assert!(lift.dontcare_latches()[3]);
    let run = engine.run_collecting();
    assert_eq!(run.num_falsified(), 3);

    // Space contract, on instances the pass can reduce: fewer peak encoded
    // clauses than the raw engine at the same depth bound.
    let mut raw = BmcEngine::for_problem(
        problem,
        BmcOptions {
            preprocess: false,
            ..BmcOptions::default()
        },
    );
    let raw_run = raw.run_collecting();
    assert!(
        run.solver_stats.arena_peak_bytes < raw_run.solver_stats.arena_peak_bytes,
        "reduced encoding must peak below the raw one ({} vs {})",
        run.solver_stats.arena_peak_bytes,
        raw_run.solver_stats.arena_peak_bytes
    );
}

#[test]
fn bounded_prefix_keeps_session_cache_below_fresh() {
    let problem = disjoint_cones_problem();
    let run_with = |reuse: SolverReuse| {
        let mut engine = BmcEngine::for_problem(
            problem.clone(),
            BmcOptions {
                max_depth: 15,
                reuse,
                ..BmcOptions::default()
            },
        );
        engine.run_collecting()
    };
    let session = run_with(SolverReuse::Session);
    let fresh = run_with(SolverReuse::Fresh);
    assert_eq!(signature(&session), signature(&fresh));
    // The sequential session retires each frame after appending it, so its
    // cache peaks at one frame; fresh-per-depth runs keep the whole prefix.
    assert!(session.solver_stats.prefix_peak_clauses > 0);
    assert!(
        session.solver_stats.prefix_peak_clauses * 4 < fresh.solver_stats.prefix_peak_clauses,
        "bounded prefix peak {} vs full prefix {}",
        session.solver_stats.prefix_peak_clauses,
        fresh.solver_stats.prefix_peak_clauses
    );
}
