//! Session-memory bound: depth-boundary CDG pruning keeps a deep sweep's
//! conflict-dependency graph smaller than a much shallower unpruned sweep's,
//! without perturbing the search in any observable way.

use refined_bmc::bmc::{
    BmcEngine, BmcOptions, BmcRun, OrderingStrategy, PropertyVerdict, SolverReuse, Unroller,
    VarRank, Weighting,
};
use refined_bmc::cnf::Var;
use refined_bmc::gens::families;
use refined_bmc::solver::{OrderMode, SolveResult, Solver, SolverOptions, SolverStats};

/// A session sweep of the TMR voter (holds at every depth, search-heavy) at
/// `max_depth`, with an aggressive flat clause-deletion threshold so
/// retired depths' learned clauses actually leave the database — the
/// workload whose CDG garbage pruning exists to reclaim. The engine prunes
/// the session solver's CDG at every depth boundary.
fn sweep(max_depth: usize) -> BmcRun {
    sweep_with_reduce_base(max_depth, 20)
}

/// [`sweep`] with the given flat clause-deletion threshold.
fn sweep_with_reduce_base(max_depth: usize, reduce_base: u64) -> BmcRun {
    let mut engine = BmcEngine::new(
        families::tmr_voter(3, 1),
        BmcOptions {
            max_depth,
            strategy: OrderingStrategy::RefinedStatic,
            reuse: SolverReuse::Session,
            solver: SolverOptions {
                reduce_base,
                reduce_inc: 0,
                ..SolverOptions::default()
            },
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();
    let verdict = &run.properties[0].verdict;
    assert!(
        matches!(verdict, PropertyVerdict::OpenAt { depth } if *depth == max_depth),
        "tmr voter must hold to depth {max_depth}, got {verdict}"
    );
    run
}

#[test]
fn pruned_deep_sweep_peaks_below_unpruned_shallow_sweep() {
    // The acceptance bound: a depth-40 sweep with depth-boundary pruning
    // must peak below what an *unpruned* depth-20 sweep accumulates.
    // Without pruning the CDG only ever grows, so it would hold every node
    // the shallow sweep recorded: those still in its graph plus those its
    // prunes discarded. Doubling the depth roughly doubles that count; with
    // pruning, each depth boundary discards everything unreachable from
    // live clauses.
    let shallow = sweep(20);
    let deep = sweep(40);
    let shallow_recorded = shallow.solver_stats.cdg_nodes + shallow.solver_stats.cdg_pruned_nodes;
    let deep_peak = deep.solver_stats.cdg_peak_nodes;
    assert!(deep.solver_stats.cdg_pruned_nodes > 0, "pruning ran");
    assert!(
        deep_peak < shallow_recorded,
        "depth-40 pruned peak ({deep_peak}) must stay below the nodes the \
         depth-20 sweep recorded ({shallow_recorded})"
    );
}

/// What one session episode answered: its verdict and, when UNSAT, its core.
type Episode = (SolveResult, Option<Vec<usize>>);

/// A session sweep of the TMR voter to `max_depth`, driven straight on a
/// solver the way the BMC engine drives its session solver: each depth adds
/// its frame delta, installs the static `varRank` ordering, and asks the
/// bad state under a fresh activation literal that a unit clause retires
/// after the episode; the episode's core updates the ranking. With `prune`,
/// the solver prunes its CDG at each depth boundary, as the engine does.
fn session_episodes(max_depth: usize, prune: bool) -> (Vec<Episode>, SolverStats) {
    let model = families::tmr_voter(3, 1);
    let unroller = Unroller::new(&model);
    let mut solver = Solver::with_options(SolverOptions {
        order_mode: OrderMode::Static,
        record_cdg: true,
        reduce_base: 20,
        reduce_inc: 0,
        ..SolverOptions::default()
    });
    let mut rank = VarRank::new(Weighting::Linear);
    let activation_base = unroller.num_vars_at(max_depth);
    let mut episodes = Vec::new();
    for k in 0..=max_depth {
        unroller.with_frame_delta(k, |clauses| {
            for clause in clauses {
                solver.add_clause(clause.lits());
            }
        });
        let act = Var::new(activation_base + k).positive();
        solver.add_clause(&[!act, unroller.lit_of(model.bad(), k)]);
        solver.set_var_ranking(rank.scores());
        let result = solver.solve_under(&[act]);
        let core = solver.core_clauses().map(<[usize]>::to_vec);
        if result == SolveResult::Unsat {
            let bound = unroller.num_vars_at(k);
            let core_vars: Vec<Var> = solver
                .core_vars()
                .unwrap_or_default()
                .into_iter()
                .filter(|v| v.index() < bound)
                .collect();
            rank.update(&core_vars, k);
        }
        episodes.push((result, core));
        solver.add_clause(&[!act]);
        if prune {
            solver.prune_cdg();
        }
    }
    (episodes, solver.stats().clone())
}

#[test]
fn pruning_does_not_perturb_the_search() {
    // Same instance, same depth, pruning on vs off: identical verdicts,
    // cores and search effort — pruning only reclaims memory.
    let (pruned_episodes, pruned) = session_episodes(40, true);
    let (unpruned_episodes, unpruned) = session_episodes(40, false);
    assert!(pruned_episodes
        .iter()
        .all(|(result, core)| *result == SolveResult::Unsat && core.is_some()));
    assert_eq!(pruned_episodes, unpruned_episodes);
    assert_eq!(pruned.conflicts, unpruned.conflicts);
    assert_eq!(pruned.decisions, unpruned.decisions);
    assert_eq!(pruned.propagations, unpruned.propagations);
    // And the memory win at equal depth is real.
    assert!(pruned.cdg_pruned_nodes > 0, "pruning ran");
    assert!(
        pruned.cdg_peak_nodes < unpruned.cdg_peak_nodes,
        "pruned peak {} vs unpruned {}",
        pruned.cdg_peak_nodes,
        unpruned.cdg_peak_nodes
    );
    // The lazy compaction repair was exercised along the way: compactions
    // happened, and only relocated clauses' entries were rewritten.
    assert!(unpruned.compactions > 0);
}

#[test]
fn depths_without_a_compaction_skip_the_prune_and_keep_every_count() {
    // A ten times higher deletion threshold compacts at only 11 of the 40
    // depth boundaries, so most `prune_cdg` calls find no compaction since
    // the previous one and return early (in `debug-invariants` builds,
    // asserting that every CDG node is still reachable). The counts are
    // those of a prune that walks the graph at every boundary.
    let run = sweep_with_reduce_base(40, 200);
    let stats = &run.solver_stats;
    assert_eq!(stats.compactions, 11);
    assert_eq!(
        (
            stats.cdg_peak_nodes,
            stats.cdg_pruned_nodes,
            stats.cdg_nodes
        ),
        (548, 452, 523)
    );
    assert_eq!((stats.conflicts, stats.decisions), (768, 12_155));
}
