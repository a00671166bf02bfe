//! Differential gate of the structural preprocessing pass: on random
//! multi-property sequential circuits, the preprocessed engine must
//! reproduce the raw engine's per-depth verdicts and retirement depths in
//! both reuse regimes, and every counterexample it returns — lifted back to
//! original coordinates — must replay on the *original* netlist. On a
//! deterministic disjoint-cone fixture, where each counterexample is unique,
//! the lifted traces must also equal the raw ones bit for bit.

#[path = "random_models/multi_bad.rs"]
mod random_models;

use proptest::prelude::*;
use random_models::{arb_recipe, build};
use refined_bmc::bmc::{
    BmcEngine, BmcOptions, BmcRun, OrderingStrategy, ProblemBuilder, PropertyVerdict, SolveResult,
    SolverReuse, Trace, VerificationProblem,
};
use refined_bmc::circuit::{LatchInit, Netlist, Signal};

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
/// sequences plus falsification depths.
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

/// Each property's counterexample, if it has one.
fn traces(run: &BmcRun) -> Vec<Option<Trace>> {
    run.properties
        .iter()
        .map(|p| match &p.verdict {
            PropertyVerdict::Falsified { trace, .. } => Some(trace.clone()),
            _ => None,
        })
        .collect()
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
        // No inputs and binary latch inits: each counterexample is unique,
        // so the lifted trace must equal the raw one bit for bit.
        assert_eq!(
            traces(&pp),
            traces(&baseline),
            "{reuse:?} lifted a different trace than the raw session engine found"
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
