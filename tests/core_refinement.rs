//! Integration tests of the refinement mechanism itself: unsatisfiable cores
//! flow from the solver through `varRank` into the next instance, stay
//! semantically valid, and actually shrink the search on the instances the
//! paper's argument targets.

use refined_bmc::bmc::{
    BmcEngine, BmcOptions, BmcRun, Model, OrderingStrategy, PropertyVerdict, SolverReuse, Unroller,
    VarRank, Weighting,
};
use refined_bmc::gens::families;
use refined_bmc::solver::{SolveResult, Solver, SolverOptions};

/// For a passing instance, re-derive each depth's core by hand and check the
/// invariant that justifies the whole method: the core clauses alone are
/// UNSAT, and their variables map to coherent (node, frame) pairs.
#[test]
fn cores_are_unsat_and_map_to_frames() {
    let model = families::shift_twin(5);
    let unroller = Unroller::new(&model);
    for k in 0..8 {
        let formula = unroller.formula(k);
        let mut solver = Solver::from_formula(&formula);
        assert_eq!(solver.solve(), SolveResult::Unsat, "depth {k}");
        let core = solver.core_clauses().expect("core").to_vec();
        // Core subset must stay UNSAT.
        let mut check = Solver::from_formula(&formula.subformula(&core));
        assert_eq!(check.solve(), SolveResult::Unsat, "core at depth {k}");
        // Every core variable decodes to a frame within 0..=k.
        for var in solver.core_vars().expect("core vars") {
            let (node, frame) = unroller.origin_of(var);
            assert!(frame <= k, "frame {frame} beyond depth {k}");
            assert!(node.index() < model.netlist().num_nodes());
        }
    }
}

/// Each run ranks from its own cores: a second run on the same engine makes
/// the same decisions as the first, and as a new engine.
#[test]
fn a_second_run_on_one_engine_searches_like_a_new_engine() {
    let options = BmcOptions {
        max_depth: 12,
        strategy: OrderingStrategy::RefinedStatic,
        ..BmcOptions::default()
    };
    let counts = |run: &BmcRun| {
        let stats = &run.solver_stats;
        (stats.decisions, stats.conflicts, stats.propagations)
    };
    let mut fresh = BmcEngine::new(families::tmr_voter(3, 1), options);
    let want = counts(&fresh.run_collecting());
    let mut engine = BmcEngine::new(families::tmr_voter(3, 1), options);
    for run_no in 1..=2 {
        let run = engine.run_collecting();
        assert!(matches!(
            run.properties[0].verdict,
            PropertyVerdict::OpenAt { depth: 12 }
        ));
        assert_eq!(counts(&run), want, "run {run_no}");
        assert_eq!(
            engine.rank().scores(),
            fresh.rank().scores(),
            "run {run_no}"
        );
    }
}

/// The ranking grows monotonically along the run and ranks a strict subset
/// of all variables (the paper's point: cores are small relative to the
/// formula).
#[test]
fn rank_grows_and_stays_sparse() {
    let model = families::fifo_guarded(3);
    let mut engine = BmcEngine::new(
        model,
        BmcOptions {
            max_depth: 12,
            strategy: OrderingStrategy::RefinedStatic,
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();
    assert!(matches!(
        run.properties[0].verdict,
        PropertyVerdict::OpenAt { depth: 12 }
    ));
    assert_eq!(engine.rank().num_updates(), 13);
    let ranked = engine.rank().num_ranked();
    let total_vars = run.per_depth.last().unwrap().num_vars;
    assert!(ranked > 0, "some variables must be ranked");
    assert!(
        ranked < total_vars,
        "ranking must be a strict subset: {ranked} vs {total_vars}"
    );
}

/// The headline effect on a search-heavy passing instance: the refined
/// static ordering needs several times fewer decisions than plain VSIDS.
/// Measured in the paper's fresh-per-depth regime — an incremental session
/// carries learned clauses across depths, which already collapses the search
/// for *both* orderings and compresses the gap the refinement exploits.
#[test]
fn refined_ordering_shrinks_search_trees() {
    let run_with = |strategy, reuse| {
        let mut engine = BmcEngine::new(
            families::shift_twin(10),
            BmcOptions {
                max_depth: 14,
                strategy,
                reuse,
                ..BmcOptions::default()
            },
        );
        engine.run_collecting().total_decisions()
    };
    let standard = run_with(OrderingStrategy::Standard, SolverReuse::Fresh);
    let refined = run_with(OrderingStrategy::RefinedStatic, SolverReuse::Fresh);
    assert!(
        refined * 2 < standard,
        "expected at least 2x fewer decisions, got {refined} vs {standard}"
    );
    // The session's own headline effect: retaining learned clauses across
    // depths beats re-searching every prefix from scratch, even under the
    // plain VSIDS ordering.
    let session = run_with(OrderingStrategy::Standard, SolverReuse::Session);
    assert!(
        session * 2 < standard,
        "expected at least 2x fewer decisions from solver reuse, \
         got {session} vs {standard}"
    );
}

/// All three weighting schemes still produce correct verdicts.
#[test]
fn weighting_schemes_agree_on_verdicts() {
    for weighting in [Weighting::Linear, Weighting::Uniform, Weighting::LastOnly] {
        let mut engine = BmcEngine::new(
            families::gated_counter(4, 1, 9),
            BmcOptions {
                max_depth: 12,
                strategy: OrderingStrategy::RefinedStatic,
                weighting,
                ..BmcOptions::default()
            },
        );
        match engine.run_collecting().properties[0].verdict {
            PropertyVerdict::Falsified { depth, .. } => assert_eq!(depth, 9, "{weighting:?}"),
            ref other => panic!("{weighting:?}: {other}"),
        }
    }
}

/// `VarRank` can be driven directly (library use without the engine): feed
/// it the cores of a hand-rolled loop and install it into a solver.
#[test]
fn manual_refine_loop_matches_engine() {
    let model = families::shift_twin(6);
    let unroller = Unroller::new(&model);
    let mut rank = VarRank::new(Weighting::Linear);
    for k in 0..8 {
        let formula = unroller.formula(k);
        let mut solver = Solver::from_formula_with(
            &formula,
            SolverOptions {
                order_mode: rbmc_solver::OrderMode::Static,
                ..SolverOptions::default()
            },
        );
        solver.set_var_ranking(rank.scores());
        assert_eq!(solver.solve(), SolveResult::Unsat);
        rank.update(&solver.core_vars().unwrap(), k);
    }
    // The engine's rank after the same run consumed as many cores.
    let mut engine = BmcEngine::new(
        families::shift_twin(6),
        BmcOptions {
            max_depth: 7,
            strategy: OrderingStrategy::RefinedStatic,
            ..BmcOptions::default()
        },
    );
    engine.run_collecting();
    assert_eq!(engine.rank().num_updates(), rank.num_updates());
}

/// Free-initial-state latches survive the whole pipeline (encode, solve,
/// trace extraction, replay).
#[test]
fn free_latches_end_to_end() {
    use refined_bmc::circuit::{LatchInit, Netlist};
    let mut n = Netlist::new();
    let a = n.add_latch("a", LatchInit::Free);
    let b = n.add_latch("b", LatchInit::Zero);
    n.set_next(a, a);
    let b_next = n.xor2(b, a);
    n.set_next(b, b_next);
    // bad: b has been toggled twice in a row — needs a = 1 initially.
    let bad = n.and2(b, a);
    let model = Model::new("free_toggle", n, bad);
    let mut engine = BmcEngine::new(
        model,
        BmcOptions {
            max_depth: 5,
            ..BmcOptions::default()
        },
    );
    match &engine.run_collecting().properties[0].verdict {
        PropertyVerdict::Falsified { depth, trace } => {
            assert_eq!(*depth, 1);
            assert!(trace.initial_state()[0], "a must start at 1");
            trace.validate(engine.model()).unwrap();
        }
        other => panic!("expected counterexample, got {other}"),
    }
}
