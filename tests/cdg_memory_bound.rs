//! Session-memory bound: depth-boundary CDG pruning keeps a deep sweep's
//! conflict-dependency graph smaller than a much shallower unpruned sweep's,
//! without perturbing the search in any observable way.

use refined_bmc::bmc::{
    BmcEngine, BmcOptions, BmcRun, OrderingStrategy, PropertyVerdict, SolverReuse,
};
use refined_bmc::gens::families;
use refined_bmc::solver::SolverOptions;

/// A session sweep of the TMR voter (holds at every depth, search-heavy) at
/// `max_depth`, with an aggressive flat clause-deletion threshold so
/// retired depths' learned clauses actually leave the database — the
/// workload whose CDG garbage pruning exists to reclaim.
fn sweep(max_depth: usize, cdg_prune: bool) -> BmcRun {
    sweep_with_reduce_base(max_depth, cdg_prune, 20)
}

/// [`sweep`] with the given flat clause-deletion threshold.
fn sweep_with_reduce_base(max_depth: usize, cdg_prune: bool, reduce_base: u64) -> BmcRun {
    let mut engine = BmcEngine::new(
        families::tmr_voter(3, 1),
        BmcOptions {
            max_depth,
            strategy: OrderingStrategy::RefinedStatic,
            reuse: SolverReuse::Session,
            cdg_prune,
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
    // must peak below what an *unpruned* depth-20 sweep accumulates. Without
    // pruning the CDG only ever grows, so doubling the depth roughly doubles
    // the node count; with pruning, each depth boundary discards everything
    // unreachable from live clauses.
    let shallow_unpruned = sweep(20, false);
    let deep_pruned = sweep(40, true);
    let shallow_nodes = shallow_unpruned.solver_stats.cdg_peak_nodes;
    let deep_peak = deep_pruned.solver_stats.cdg_peak_nodes;
    assert!(deep_pruned.solver_stats.cdg_pruned_nodes > 0, "pruning ran");
    assert!(
        deep_peak < shallow_nodes,
        "depth-40 pruned peak ({deep_peak}) must stay below the unpruned \
         depth-20 count ({shallow_nodes})"
    );
}

#[test]
fn pruning_does_not_perturb_the_search() {
    // Same instance, same depth, pruning on vs off: identical verdicts and
    // identical search effort — pruning only reclaims memory.
    let pruned = sweep(40, true);
    let unpruned = sweep(40, false);
    assert_eq!(
        pruned.solver_stats.conflicts,
        unpruned.solver_stats.conflicts
    );
    assert_eq!(
        pruned.solver_stats.decisions,
        unpruned.solver_stats.decisions
    );
    assert_eq!(
        pruned.solver_stats.propagations,
        unpruned.solver_stats.propagations
    );
    let verdicts = |r: &BmcRun| -> Vec<_> { r.per_depth.iter().map(|d| d.result).collect() };
    assert_eq!(verdicts(&pruned), verdicts(&unpruned));
    // And the memory win at equal depth is real.
    assert!(
        pruned.solver_stats.cdg_peak_nodes < unpruned.solver_stats.cdg_peak_nodes,
        "pruned peak {} vs unpruned {}",
        pruned.solver_stats.cdg_peak_nodes,
        unpruned.solver_stats.cdg_peak_nodes
    );
    // The lazy compaction repair was exercised along the way: compactions
    // happened, and only relocated clauses' entries were rewritten.
    assert!(unpruned.solver_stats.compactions > 0);
}

#[test]
fn depths_without_a_compaction_skip_the_prune_and_keep_every_count() {
    // A ten times higher deletion threshold compacts at only 11 of the 40
    // depth boundaries, so most `prune_cdg` calls find no compaction since
    // the previous one and return early (in `debug-invariants` builds,
    // asserting that every CDG node is still reachable). The counts are
    // those of a prune that walks the graph at every boundary.
    let run = sweep_with_reduce_base(40, true, 200);
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
