//! Parallel dispatch of the refinement loop: shard a sweep across a scoped
//! worker pool, then merge the results — `varRank` updates included — in
//! **commit order** (lowest depth first, then property order), so a
//! parallel run is deterministic and reproduces the sequential engine's
//! verdicts exactly.
//!
//! Two sharding grains, one per solver-reuse regime
//! ([`BmcOptions::reuse`]), each the parallel twin of its sequential loop:
//!
//! - **By property** ([`SolverReuse::Session`](crate::SolverReuse)) — one
//!   incremental **session solver per property**, each sweeping depths
//!   `0..=max_depth` on its own and
//!   consuming the one shared encoded clause prefix zero-copy (the
//!   [`SharedPrefix`] view of the unroller cache). Workers pick properties
//!   off a queue; `jobs` only sets the concurrency, never the decomposition,
//!   so results are identical for every `jobs` value. A single-property
//!   problem degenerates to exactly the sequential session run —
//!   bit-identical verdicts, cores, and rank table.
//! - **By depth** ([`SolverReuse::Fresh`](crate::SolverReuse)) — the
//!   paper's **fresh solver per (property, depth)** instances dispatched
//!   across workers. The refined strategies
//!   chain each depth's ranking to the previous depths' cores, so instances
//!   are launched as a per-depth wavefront: all open properties of depth `k`
//!   solve concurrently against the same rank snapshot the sequential
//!   fresh engine would install, and
//!   their cores are committed in property order before depth `k+1` starts.
//!   Core-free strategies (`Standard`, `Shtrichman`) have no such chain, so
//!   their whole `(depth × property)` lattice is dispatched at once — the
//!   embarrassingly parallel case. Either way the committed results are
//!   bit-identical to the sequential fresh engine (each instance is solved
//!   by an identically configured, identically seeded fresh solver);
//!   episodes the sequential loop would never have run (a depth beyond a
//!   property's retirement, or past a budget exhaustion) are discarded at
//!   commit time.
//!
//! Determinism contract: per-property verdicts, per-depth verdict
//! sequences, retirement depths, counterexample traces, and the final
//! `varRank` table do not depend on `jobs` or thread scheduling. Wall-clock
//! and the per-worker breakdown ([`BmcRun::workers`]) of course do. Two
//! qualifications:
//!
//! - **Wall-clock deadlines** ([`BmcOptions::deadline`]) are excluded: a
//!   deadline makes verdicts depend on elapsed time in *any* mode (the
//!   sequential engine included), so deadline-limited runs are
//!   reproducible in neither. The deterministic budget is
//!   [`BmcOptions::max_conflicts_per_depth`].
//! - **Conflict budgets** are honored per episode, and an exhaustion
//!   truncates the run at the sequential loop's `(depth, property)` commit
//!   rule — though work already done past that point (and its aggregate
//!   solver counters) cannot be un-spent. By depth, the episodes themselves
//!   are bit-identical to the sequential fresh engine's, so the truncation
//!   point matches it exactly; by property, each property's session lacks
//!   the clauses the sequential *shared* session would have learned from
//!   its siblings, so with a tight conflict budget an episode may exhaust
//!   it where the shared session would not (or vice versa) and the cut can
//!   land at a different point than sequential `Session` mode.
//!   Jobs-invariance holds regardless — the decomposition never depends on
//!   `jobs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rbmc_cnf::Var;
use rbmc_solver::{SolveResult, Solver, SolverStats};

use crate::certify::EpisodeCertifier;
use crate::engine::{
    core_model_vars, depth_limits, install_strategy_ranking, strategy_solver_options, BmcEngine,
    BmcOptions, BmcOutcome, BmcRun, DepthStats, PropState,
};
use crate::unroll::SharedPrefix;
use crate::{Model, SolverReuse, Trace, Unroller, VarRank};

/// Configuration of a parallel run ([`BmcOptions::parallel`]). The grain
/// follows [`BmcOptions::reuse`]: session runs shard by property, fresh
/// runs by depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Worker-thread budget (clamped to at least 1). The decomposition is
    /// independent of this value — only the wall clock changes.
    pub jobs: usize,
}

impl ParallelConfig {
    /// A parallel run with `jobs` workers.
    pub fn new(jobs: usize) -> ParallelConfig {
        ParallelConfig { jobs }
    }
}

/// One worker's share of a parallel run (see [`BmcRun::workers`]).
#[derive(Clone, Debug, Default)]
pub struct WorkerReport {
    /// Worker index (`0..jobs`).
    pub worker: usize,
    /// Work items claimed: property sessions in session runs, solve
    /// instances in fresh runs.
    pub items: u64,
    /// Solve episodes run by this worker.
    pub episodes: u64,
    /// Decisions over this worker's episodes.
    pub decisions: u64,
    /// Conflicts over this worker's episodes.
    pub conflicts: u64,
    /// Propagations over this worker's episodes.
    pub propagations: u64,
    /// Busy wall-clock time of this worker (summed over its items).
    pub time: Duration,
}

/// Entry point from [`BmcEngine::run_collecting`].
pub(crate) fn run_parallel(engine: &mut BmcEngine, config: ParallelConfig) -> BmcRun {
    let jobs = config.jobs.max(1);
    match engine.opts().reuse {
        SolverReuse::Session => run_by_property(engine, jobs),
        SolverReuse::Fresh => run_by_depth(engine, jobs),
    }
}

/// Everything one solve episode produced, buffered for commit-order merge.
struct Episode {
    result: SolveResult,
    decisions: u64,
    implications: u64,
    conflicts: u64,
    cdg_nodes: u64,
    cdg_edges: u64,
    num_clauses: usize,
    switched: bool,
    /// The frame-stable core variables of an UNSAT episode (already sorted
    /// and deduplicated), empty otherwise.
    core: Vec<Var>,
    /// The validated counterexample of a SAT episode.
    trace: Option<Trace>,
    /// Full stats of the fresh solver that ran this episode (fresh runs
    /// only; what the sequential fresh engine accumulates per episode).
    solver_stats: Option<SolverStats>,
    /// Proof-logging summary of a fresh episode's solver (`None` for
    /// session episodes, whose summary lives on the group).
    proof: Option<crate::ProofSummary>,
    time: Duration,
}

/// One property's committed episodes: a session's complete sweep, or the
/// fresh instances committed for it so far.
struct GroupOutcome {
    prop: PropState,
    /// One entry per attempted depth, in depth order.
    episodes: Vec<Episode>,
    /// The solver counters (the session's final ones, or the sum over
    /// fresh episodes).
    stats: SolverStats,
    /// The proof-logging summary (`None` with proof off).
    proof: Option<crate::ProofSummary>,
}

impl GroupOutcome {
    /// An empty group for property `p_idx` of `model` (no episodes yet).
    fn fresh(model: &Model, p_idx: usize) -> GroupOutcome {
        let property = model.problem().property(p_idx);
        GroupOutcome {
            prop: PropState::fresh(property.name().to_string(), property.bad()),
            episodes: Vec::new(),
            stats: SolverStats::new(),
            proof: None,
        }
    }
}

/// One work item's contribution to its worker's counters.
struct WorkerShare {
    episodes: u64,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
}

impl WorkerShare {
    fn of_episode(episode: &Episode) -> WorkerShare {
        WorkerShare {
            episodes: 1,
            decisions: episode.decisions,
            conflicts: episode.conflicts,
            propagations: episode.implications,
        }
    }

    fn of_group(prop: &PropState) -> WorkerShare {
        WorkerShare {
            episodes: prop.episodes,
            decisions: prop.decisions,
            conflicts: prop.conflicts,
            propagations: prop.propagations,
        }
    }
}

/// The one fan-out primitive every striped sweep in the workspace runs on:
/// up to `workers` scoped threads claim indices `0..len` off one atomic
/// queue, `f(worker, index)` runs each item, and the results come back in
/// **index order** regardless of which worker claimed what (inline on the
/// calling thread when the effective worker count is 1). The worker index
/// lets callers keep per-worker accounting without a second queue
/// implementation; plain sweeps can ignore it.
pub fn striped_map<R: Send>(
    len: usize,
    workers: usize,
    f: impl Fn(usize, usize) -> R + Sync,
) -> Vec<R> {
    let worker_count = workers.min(len).max(1);
    if worker_count == 1 {
        return (0..len).map(|i| f(0, i)).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..worker_count {
            let (next, slots, f) = (&next, &slots, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                *slots[i].lock().expect("slot lock") = Some(f(w, i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every index mapped")
        })
        .collect()
}

/// [`striped_map`] with the per-worker accounting the dispatch modes need:
/// `f` may return `None` to skip an item (its slot stays empty and no
/// `items` credit is given), and each item's counters and wall time
/// accumulate into its worker's [`WorkerReport`]. `workers` is grown to the
/// number of threads actually spawned — so [`BmcRun::workers`] reports real
/// concurrency, not the requested budget.
fn striped_dispatch<R: Send>(
    len: usize,
    budget: usize,
    workers: &mut Vec<WorkerReport>,
    f: impl Fn(usize) -> Option<(R, WorkerShare)> + Sync,
) -> Vec<Option<R>> {
    let spawn = budget.min(len).max(1);
    while workers.len() < spawn {
        workers.push(WorkerReport {
            worker: workers.len(),
            ..WorkerReport::default()
        });
    }
    let shares: Vec<Mutex<WorkerReport>> = (0..spawn)
        .map(|_| Mutex::new(WorkerReport::default()))
        .collect();
    let results = striped_map(len, spawn, |w, i| {
        let start = Instant::now();
        let out = f(i);
        let mut share = shares[w].lock().expect("share lock");
        share.time += start.elapsed();
        if let Some((_, counters)) = &out {
            share.items += 1;
            share.episodes += counters.episodes;
            share.decisions += counters.decisions;
            share.conflicts += counters.conflicts;
            share.propagations += counters.propagations;
        }
        out.map(|(result, _)| result)
    });
    for (w, share) in shares.into_iter().enumerate() {
        absorb_worker_share(&mut workers[w], &share.into_inner().expect("share lock"));
    }
    results
}

// ---------------------------------------------------------------------------
// ByProperty: one session solver per property.
// ---------------------------------------------------------------------------

fn run_by_property(engine: &mut BmcEngine, jobs: usize) -> BmcRun {
    let run_start = Instant::now();
    let options = *engine.opts();
    let model = engine.working_model().clone();
    let num_props = model.problem().num_properties();
    let unroller = Unroller::new(&model);

    let (mut groups, workers) = unroller.with_shared_prefix(options.max_depth, |prefix| {
        let mut workers = Vec::new();
        let results = striped_dispatch(num_props, jobs, &mut workers, |p| {
            let group = run_property_session(&model, &options, &prefix, p);
            let share = WorkerShare::of_group(&group.prop);
            Some((group, share))
        });
        let groups: Vec<GroupOutcome> = results
            .into_iter()
            .map(|group| group.expect("every property was dispatched"))
            .collect();
        (groups, workers)
    });

    // Emulate the sequential control flow: the earliest (depth, property)
    // budget exhaustion stops the whole run, so episodes past that commit
    // point are discarded before the committed remainder merges.
    let cut = groups
        .iter()
        .enumerate()
        .filter_map(|(p, g)| {
            g.episodes
                .iter()
                .position(|e| e.result == SolveResult::Unknown)
                .map(|k| (k, p))
        })
        .min();
    if let Some((cut_depth, cut_prop)) = cut {
        for (p, group) in groups.iter_mut().enumerate() {
            let keep = if p <= cut_prop {
                cut_depth + 1
            } else {
                cut_depth
            };
            truncate_group(group, keep);
        }
    }

    merge_committed(engine, &options, &unroller, groups, workers, run_start)
}

/// Trims a per-property session result to its first `keep` episodes,
/// recomputing the derived per-property counters (used when a budget
/// exhaustion elsewhere stops the run before this property's later depths
/// would have been reached sequentially).
fn truncate_group(group: &mut GroupOutcome, keep: usize) {
    if group.episodes.len() <= keep {
        return;
    }
    group.episodes.truncate(keep);
    group.prop.depth_results.truncate(keep);
    group.prop.episodes = keep as u64;
    group.prop.decisions = group.episodes.iter().map(|e| e.decisions).sum();
    group.prop.conflicts = group.episodes.iter().map(|e| e.conflicts).sum();
    group.prop.propagations = group.episodes.iter().map(|e| e.implications).sum();
    group.prop.assumption_conflicts = group
        .episodes
        .iter()
        .filter(|e| e.result == SolveResult::Unsat)
        .count() as u64;
    group.prop.completed = group
        .episodes
        .iter()
        .rposition(|e| e.result == SolveResult::Unsat);
    if matches!(group.prop.falsified, Some((d, _)) if d >= keep) {
        group.prop.falsified = None;
        group.prop.open = true;
    }
}

/// One property's full sweep on its own session solver — the parallel twin
/// of the sequential [`SolverReuse::Session`](crate::SolverReuse) loop,
/// specialized to a single property (same episode structure, same
/// activation-literal scheme, same per-depth rank refresh from its own
/// cores, same depth-boundary CDG pruning).
fn run_property_session(
    model: &Model,
    options: &BmcOptions,
    prefix: &SharedPrefix<'_>,
    p_idx: usize,
) -> GroupOutcome {
    let property = model.problem().property(p_idx);
    // Thread-local unroller for the pure index arithmetic; clauses come from
    // the shared pre-encoded prefix.
    let unroller = Unroller::new(model);
    let mut prop = PropState::fresh(property.name().to_string(), property.bad());
    let mut rank = VarRank::new(options.weighting);
    let mut solver = Solver::with_options(strategy_solver_options(options));
    let mut certifier = EpisodeCertifier::attach(options.proof, &mut solver);
    let limits = depth_limits(options);
    let mut episodes = Vec::new();

    for k in 0..=options.max_depth {
        let depth_start = Instant::now();
        let base = solver.stats().clone();
        for clause in prefix.frame_delta(k) {
            solver.add_clause(clause.lits());
        }
        let act = BmcEngine::activation_lit(&unroller, options, 1, k, 0);
        solver.add_clause(&[!act, unroller.lit_of(prop.bad, k)]);
        install_strategy_ranking(
            options.strategy,
            &rank.snapshot(),
            &mut solver,
            &unroller,
            k,
        );
        let result = solver.solve_under_limited(&[act], &limits);

        let stats = solver.stats();
        prop.episodes += 1;
        prop.decisions += stats.decisions - base.decisions;
        prop.conflicts += stats.conflicts - base.conflicts;
        prop.propagations += stats.propagations - base.propagations;
        prop.depth_results.push(result);
        let mut episode = Episode {
            result,
            decisions: stats.decisions - base.decisions,
            implications: stats.propagations - base.propagations,
            conflicts: stats.conflicts - base.conflicts,
            cdg_nodes: stats.cdg_nodes - base.cdg_nodes,
            cdg_edges: stats.cdg_edges - base.cdg_edges,
            num_clauses: solver.num_original_clauses(),
            switched: stats.switched_to_vsids,
            core: Vec::new(),
            trace: None,
            solver_stats: None,
            proof: None,
            time: Duration::ZERO,
        };
        match result {
            SolveResult::Sat => {
                let assignment = solver.model().expect("model after SAT");
                let trace = Trace::from_assignment(&unroller, assignment, k);
                debug_assert!(
                    trace.validate_against(model.netlist(), prop.bad).is_ok(),
                    "solver returned an invalid counterexample for `{}`",
                    prop.name
                );
                prop.falsified = Some((k, trace));
                prop.open = false;
                solver.add_clause(&[!act]);
            }
            SolveResult::Unsat => {
                episode.core = core_model_vars(&solver, unroller.num_vars_at(k));
                prop.completed = Some(k);
                solver.add_clause(&[!act]);
                prop.assumption_conflicts += 1;
                if options.strategy.needs_cores() && !episode.core.is_empty() {
                    rank.update(&episode.core, k);
                }
                if let Some(cert) = certifier.as_mut() {
                    cert.observe_unsat();
                }
            }
            SolveResult::Unknown => {}
        }
        episode.time = depth_start.elapsed();
        episodes.push(episode);
        if options.cdg_prune {
            solver.prune_cdg();
        }
        if result == SolveResult::Unknown || !prop.open {
            break;
        }
    }
    GroupOutcome {
        prop,
        episodes,
        stats: solver.stats().clone(),
        proof: certifier.map(EpisodeCertifier::into_summary),
    }
}

// ---------------------------------------------------------------------------
// By depth: fresh solver per (property, depth) instance.
// ---------------------------------------------------------------------------

fn run_by_depth(engine: &mut BmcEngine, jobs: usize) -> BmcRun {
    let run_start = Instant::now();
    let options = *engine.opts();
    let model = engine.working_model().clone();
    let unroller = Unroller::new(&model);
    let bads: Vec<_> = model
        .problem()
        .properties()
        .iter()
        .map(super::problem::Property::bad)
        .collect();

    let mut rank = engine.rank().clone();
    // Grown by the dispatch helper to the concurrency actually reached.
    let mut workers: Vec<WorkerReport> = Vec::new();

    let groups = unroller.with_shared_prefix(options.max_depth, |prefix| {
        if options.strategy.needs_cores() {
            // The refined strategies chain depth k's ranking to the cores of
            // depths < k: dispatch one depth at a time, all open properties
            // concurrently, each against the same rank snapshot the
            // sequential fresh engine would install.
            run_depth_wavefront(
                &model,
                &options,
                &prefix,
                &bads,
                &mut rank,
                &mut workers,
                jobs,
            )
        } else {
            // No rank chaining: the whole (depth × property) lattice is
            // independent. Dispatch everything; commit order sorts it out.
            run_depth_lattice(&model, &options, &prefix, &bads, &mut workers, jobs)
        }
    });
    *engine.rank_mut() = rank;

    merge_committed(engine, &options, &unroller, groups, workers, run_start)
}

/// One fresh-per-depth instance: the parallel twin of the sequential
/// [`SolverReuse::Fresh`](crate::SolverReuse) episode (same prefix load
/// order, same bad-state unit, same ranking, same limits — an identical
/// deterministic solver, so an identical result).
fn run_fresh_episode(
    model: &Model,
    options: &BmcOptions,
    prefix: &SharedPrefix<'_>,
    rank: &[u64],
    bad: rbmc_circuit::Signal,
    k: usize,
) -> Episode {
    let start = Instant::now();
    let unroller = Unroller::new(model);
    let mut solver = Solver::with_options(strategy_solver_options(options));
    let mut certifier = EpisodeCertifier::attach(options.proof, &mut solver);
    solver.reserve_vars(unroller.num_vars_at(k));
    for clause in prefix.prefix(k) {
        solver.add_clause(clause.lits());
    }
    solver.add_clause(&[unroller.lit_of(bad, k)]);
    install_strategy_ranking(options.strategy, rank, &mut solver, &unroller, k);
    let result = solver.solve_limited(&depth_limits(options));
    let stats = solver.stats().clone();
    let mut episode = Episode {
        result,
        decisions: stats.decisions,
        implications: stats.propagations,
        conflicts: stats.conflicts,
        cdg_nodes: stats.cdg_nodes,
        cdg_edges: stats.cdg_edges,
        num_clauses: solver.num_original_clauses(),
        switched: stats.switched_to_vsids,
        core: Vec::new(),
        trace: None,
        solver_stats: Some(stats),
        proof: None,
        time: Duration::ZERO,
    };
    match result {
        SolveResult::Sat => {
            let assignment = solver.model().expect("model after SAT");
            episode.trace = Some(Trace::from_assignment(&unroller, assignment, k));
        }
        SolveResult::Unsat => {
            episode.core = core_model_vars(&solver, unroller.num_vars_at(k));
            if let Some(cert) = certifier.as_mut() {
                cert.observe_unsat();
            }
        }
        SolveResult::Unknown => {}
    }
    episode.proof = certifier.map(EpisodeCertifier::into_summary);
    episode.time = start.elapsed();
    episode
}

/// Depth-synchronized dispatch for the core-chained strategies: solve all
/// open properties of each depth concurrently, then commit their cores (in
/// property order) into the rank table before the next depth launches.
fn run_depth_wavefront(
    model: &Model,
    options: &BmcOptions,
    prefix: &SharedPrefix<'_>,
    bads: &[rbmc_circuit::Signal],
    rank: &mut VarRank,
    workers: &mut Vec<WorkerReport>,
    jobs: usize,
) -> Vec<GroupOutcome> {
    let num_props = bads.len();
    let mut groups: Vec<GroupOutcome> = (0..num_props)
        .map(|p| GroupOutcome::fresh(model, p))
        .collect();

    for k in 0..=options.max_depth {
        let open: Vec<usize> = (0..num_props).filter(|&p| groups[p].prop.open).collect();
        if open.is_empty() {
            break;
        }
        let rank_snapshot = rank.snapshot();
        let mut episodes = striped_dispatch(open.len(), jobs, workers, |i| {
            let episode =
                run_fresh_episode(model, options, prefix, &rank_snapshot, bads[open[i]], k);
            let share = WorkerShare::of_episode(&episode);
            Some((episode, share))
        });
        // Commit this depth in property order — exactly the sequential
        // within-depth walk, including the stop-at-first-Unknown rule.
        let mut stop = false;
        for (i, &p) in open.iter().enumerate() {
            let episode = episodes[i].take().expect("episode solved");
            let unknown = episode.result == SolveResult::Unknown;
            commit_episode(&mut groups[p], episode, k);
            if unknown {
                stop = true;
                break;
            }
        }
        commit_depth_rank(options, rank, &groups, k);
        if stop {
            break;
        }
    }
    groups
}

/// Whole-lattice dispatch for the core-free strategies: every (depth,
/// property) instance is independent, so workers drain one global queue.
/// A SAT result publishes the property's provisional retirement depth so
/// deeper instances of the same property are skipped instead of solved —
/// commit order retires the property at its *shallowest* SAT depth, and a
/// skipped instance is by construction deeper than that.
fn run_depth_lattice(
    model: &Model,
    options: &BmcOptions,
    prefix: &SharedPrefix<'_>,
    bads: &[rbmc_circuit::Signal],
    workers: &mut Vec<WorkerReport>,
    jobs: usize,
) -> Vec<GroupOutcome> {
    let num_props = bads.len();
    let num_depths = options.max_depth + 1;
    let total = num_depths * num_props;
    let sat_seen: Vec<AtomicUsize> = (0..num_props)
        .map(|_| AtomicUsize::new(usize::MAX))
        .collect();
    let mut episodes = striped_dispatch(total, jobs, workers, |idx| {
        let (k, p) = (idx / num_props, idx % num_props);
        // Skip instances provably beyond the property's retirement (a
        // shallower SAT is already known).
        if k > sat_seen[p].load(Ordering::Relaxed) {
            return None;
        }
        let episode = run_fresh_episode(model, options, prefix, &[], bads[p], k);
        if episode.result == SolveResult::Sat {
            sat_seen[p].fetch_min(k, Ordering::Relaxed);
        }
        let share = WorkerShare::of_episode(&episode);
        Some((episode, share))
    });

    // Commit in (depth, property) order, reproducing the sequential loop's
    // retirement and stop rules; uncommitted episodes are speculative waste.
    let mut groups: Vec<GroupOutcome> = (0..num_props)
        .map(|p| GroupOutcome::fresh(model, p))
        .collect();
    'depths: for k in 0..num_depths {
        if groups.iter().all(|g| !g.prop.open) {
            break;
        }
        for p in 0..num_props {
            if !groups[p].prop.open {
                continue;
            }
            let episode = episodes[k * num_props + p]
                .take()
                .expect("open property's instance was dispatched");
            let unknown = episode.result == SolveResult::Unknown;
            commit_episode(&mut groups[p], episode, k);
            if unknown {
                break 'depths;
            }
        }
    }
    groups
}

fn absorb_worker_share(report: &mut WorkerReport, share: &WorkerReport) {
    report.items += share.items;
    report.episodes += share.episodes;
    report.decisions += share.decisions;
    report.conflicts += share.conflicts;
    report.propagations += share.propagations;
    report.time += share.time;
}

/// Folds one committed fresh episode into its property's running state
/// (mirrors the sequential fresh path's per-episode bookkeeping).
fn commit_episode(group: &mut GroupOutcome, mut episode: Episode, k: usize) {
    let prop = &mut group.prop;
    prop.episodes += 1;
    prop.decisions += episode.decisions;
    prop.conflicts += episode.conflicts;
    prop.propagations += episode.implications;
    prop.depth_results.push(episode.result);
    match episode.result {
        SolveResult::Sat => {
            prop.falsified = Some((
                k,
                episode.trace.take().expect("SAT episode carries a trace"),
            ));
            prop.open = false;
        }
        SolveResult::Unsat => {
            prop.completed = Some(k);
        }
        SolveResult::Unknown => {}
    }
    if let Some(stats) = &episode.solver_stats {
        group.stats.accumulate(stats);
    }
    crate::certify::merge_opt(&mut group.proof, episode.proof.take());
    group.episodes.push(episode);
}

/// The commit-order `varRank` update of one depth: the union of the open
/// properties' cores at that depth, deduplicated, exactly as the sequential
/// engine's `update_ranking` consumes it.
fn commit_depth_rank(options: &BmcOptions, rank: &mut VarRank, groups: &[GroupOutcome], k: usize) {
    if !options.strategy.needs_cores() {
        return;
    }
    rank.update_union(
        groups
            .iter()
            .filter_map(|g| g.episodes.get(k).map(|e| e.core.as_slice())),
        k,
    );
}

// ---------------------------------------------------------------------------
// Merge: committed per-property results -> one BmcRun.
// ---------------------------------------------------------------------------

/// Merges the committed per-property results into a [`BmcRun`], replaying
/// the sequential engine's aggregation: per-depth stats summed over that
/// depth's episodes, the commit-order rank merge for property-sharded runs,
/// and the sequential outcome precedence (shallowest counterexample first,
/// then budget exhaustion, then bound reached).
fn merge_committed(
    engine: &mut BmcEngine,
    options: &BmcOptions,
    unroller: &Unroller<'_>,
    groups: Vec<GroupOutcome>,
    workers: Vec<WorkerReport>,
    run_start: Instant,
) -> BmcRun {
    let max_attempted = groups.iter().map(|g| g.episodes.len()).max().unwrap_or(0);
    let mut per_depth = Vec::with_capacity(max_attempted);
    let mut resource_out: Option<usize> = None;
    let mut depth_completed = 0usize;
    let by_property = options.reuse == SolverReuse::Session;
    for k in 0..max_attempted {
        let mut depth = DepthStats {
            depth: k,
            result: SolveResult::Unsat,
            decisions: 0,
            implications: 0,
            conflicts: 0,
            num_vars: unroller.num_vars_at(k),
            num_clauses: 0,
            core_vars: 0,
            switched_to_vsids: false,
            cdg_nodes: 0,
            cdg_edges: 0,
            time: Duration::ZERO,
        };
        let mut core_union: Vec<Var> = Vec::new();
        for group in &groups {
            let Some(episode) = group.episodes.get(k) else {
                continue;
            };
            depth.decisions += episode.decisions;
            depth.implications += episode.implications;
            depth.conflicts += episode.conflicts;
            depth.cdg_nodes += episode.cdg_nodes;
            depth.cdg_edges += episode.cdg_edges;
            depth.num_clauses = depth.num_clauses.max(episode.num_clauses);
            depth.switched_to_vsids |= episode.switched;
            depth.time += episode.time;
            match episode.result {
                SolveResult::Sat => depth.result = SolveResult::Sat,
                SolveResult::Unsat => core_union.extend(episode.core.iter().copied()),
                SolveResult::Unknown => {
                    depth.result = SolveResult::Unknown;
                    resource_out = Some(k);
                }
            }
        }
        core_union.sort_unstable();
        core_union.dedup();
        depth.core_vars = core_union.len();
        // Fresh runs already committed the rank per wavefront round; the
        // property-sharded merge commits it here, lowest depth first.
        if by_property && options.strategy.needs_cores() && !core_union.is_empty() {
            engine.rank_mut().update(&core_union, k);
        }
        per_depth.push(depth);
        if resource_out.is_some() {
            break;
        }
        depth_completed = k;
    }

    let first_falsified = groups
        .iter()
        .enumerate()
        .filter_map(|(p, g)| g.prop.falsified.as_ref().map(|(d, _)| (*d, p)))
        .min();
    let mut aggregate = SolverStats::new();
    let mut proof_acc: Option<crate::ProofSummary> = None;
    for group in &groups {
        aggregate.accumulate(&group.stats);
        crate::certify::merge_opt(&mut proof_acc, group.proof.clone());
    }
    // Parallel runs eagerly encode the whole shared prefix, so the cache
    // peak is its full size (bounded prefix mode is sequential-session-only).
    aggregate.prefix_peak_clauses = aggregate
        .prefix_peak_clauses
        .max(unroller.peak_cached_clauses() as u64);
    let outcome = match (resource_out, first_falsified) {
        (_, Some((_, p))) => {
            let (depth, trace) = groups[p]
                .prop
                .falsified
                .clone()
                .expect("falsified recorded");
            BmcOutcome::Counterexample { depth, trace }
        }
        (Some(at_depth), None) => BmcOutcome::ResourceOut { at_depth },
        (None, None) => BmcOutcome::BoundReached { depth_completed },
    };
    BmcRun {
        outcome,
        properties: groups.into_iter().map(|g| g.prop.into_report()).collect(),
        per_depth,
        solver_stats: aggregate,
        workers,
        total_time: run_start.elapsed(),
        proof: proof_acc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        OrderingStrategy, ProblemBuilder, PropertyVerdict, SolverReuse, VerificationProblem,
    };
    use rbmc_circuit::{LatchInit, Netlist, Signal};

    fn counter_problem(width: usize, targets: &[u64]) -> VerificationProblem {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..width)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let props: Vec<(String, Signal)> = targets
            .iter()
            .map(|&t| (format!("reach_{t}"), n.bus_eq_const(&bits, t)))
            .collect();
        let mut builder = ProblemBuilder::new("multi_counter", n);
        for (name, sig) in props {
            builder = builder.property(&name, sig);
        }
        builder.build()
    }

    fn all_strategies() -> Vec<OrderingStrategy> {
        vec![
            OrderingStrategy::Standard,
            OrderingStrategy::RefinedStatic,
            OrderingStrategy::RefinedDynamic { divisor: 64 },
            OrderingStrategy::Shtrichman,
        ]
    }

    fn run(
        problem: VerificationProblem,
        strategy: OrderingStrategy,
        reuse: SolverReuse,
        parallel: Option<ParallelConfig>,
    ) -> (BmcRun, Vec<u64>) {
        let mut engine = BmcEngine::for_problem(
            problem,
            BmcOptions {
                max_depth: 12,
                strategy,
                reuse,
                parallel,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        (run, engine.rank().snapshot())
    }

    type Signature = Vec<(Vec<SolveResult>, Option<usize>)>;

    fn prop_verdicts(run: &BmcRun) -> Signature {
        run.properties
            .iter()
            .map(|p| (p.depth_results.clone(), p.retirement_depth))
            .collect()
    }

    #[test]
    fn by_property_single_property_matches_sequential_session_exactly() {
        for strategy in all_strategies() {
            let (seq, seq_rank) = run(
                counter_problem(4, &[11]),
                strategy,
                SolverReuse::Session,
                None,
            );
            for jobs in [1, 2, 4] {
                let (par, par_rank) = run(
                    counter_problem(4, &[11]),
                    strategy,
                    SolverReuse::Session,
                    Some(ParallelConfig::new(jobs)),
                );
                assert_eq!(
                    prop_verdicts(&par),
                    prop_verdicts(&seq),
                    "{strategy:?} j{jobs}"
                );
                assert_eq!(par_rank, seq_rank, "{strategy:?} j{jobs} rank table");
                let depth = |r: &BmcRun| -> Vec<SolveResult> {
                    r.per_depth.iter().map(|d| d.result).collect()
                };
                assert_eq!(depth(&par), depth(&seq), "{strategy:?} j{jobs}");
                assert!(matches!(
                    par.outcome,
                    BmcOutcome::Counterexample { depth: 11, .. }
                ));
            }
        }
    }

    #[test]
    fn by_depth_single_property_matches_sequential_fresh_exactly() {
        for strategy in all_strategies() {
            let (seq, seq_rank) = run(counter_problem(4, &[9]), strategy, SolverReuse::Fresh, None);
            for jobs in [1, 2, 4] {
                let (par, par_rank) = run(
                    counter_problem(4, &[9]),
                    strategy,
                    SolverReuse::Fresh,
                    Some(ParallelConfig::new(jobs)),
                );
                assert_eq!(
                    prop_verdicts(&par),
                    prop_verdicts(&seq),
                    "{strategy:?} j{jobs}"
                );
                assert_eq!(par_rank, seq_rank, "{strategy:?} j{jobs} rank table");
                assert_eq!(
                    par.total_decisions(),
                    seq.total_decisions(),
                    "{strategy:?} j{jobs}"
                );
            }
        }
    }

    #[test]
    fn multi_property_parallel_verdicts_match_sequential_and_are_jobs_invariant() {
        // 3 and 9 falsified; 14 unreachable within depth 12 of a 4-bit
        // counter (wraps at 16).
        let targets: &[u64] = &[3, 14, 9];
        for strategy in all_strategies() {
            let (seq, _) = run(
                counter_problem(4, targets),
                strategy,
                SolverReuse::Session,
                None,
            );
            for reuse in [SolverReuse::Session, SolverReuse::Fresh] {
                let mut baseline: Option<(Signature, Vec<u64>)> = None;
                for jobs in [1, 2, 4] {
                    let (par, par_rank) = run(
                        counter_problem(4, targets),
                        strategy,
                        reuse,
                        Some(ParallelConfig::new(jobs)),
                    );
                    assert_eq!(
                        prop_verdicts(&par),
                        prop_verdicts(&seq),
                        "{strategy:?} {reuse:?} j{jobs}"
                    );
                    assert!(
                        matches!(par.outcome, BmcOutcome::Counterexample { depth: 3, .. }),
                        "{strategy:?} {reuse:?} j{jobs}"
                    );
                    match &baseline {
                        None => baseline = Some((prop_verdicts(&par), par_rank)),
                        Some((v, r)) => {
                            assert_eq!(&prop_verdicts(&par), v, "{strategy:?} {reuse:?} j{jobs}");
                            assert_eq!(&par_rank, r, "{strategy:?} {reuse:?} j{jobs} rank");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multi_property_by_depth_matches_sequential_fresh_rank_table() {
        // The depth-wavefront commits cores in the same order the sequential
        // fresh engine does, so even the multi-property rank table is
        // bit-identical to SolverReuse::Fresh.
        let targets: &[u64] = &[5, 14, 11];
        for strategy in all_strategies() {
            let (seq, seq_rank) = run(
                counter_problem(4, targets),
                strategy,
                SolverReuse::Fresh,
                None,
            );
            let (par, par_rank) = run(
                counter_problem(4, targets),
                strategy,
                SolverReuse::Fresh,
                Some(ParallelConfig::new(3)),
            );
            assert_eq!(prop_verdicts(&par), prop_verdicts(&seq), "{strategy:?}");
            assert_eq!(par_rank, seq_rank, "{strategy:?}");
        }
    }

    #[test]
    fn worker_reports_cover_all_items() {
        let (par, _) = run(
            counter_problem(4, &[3, 14, 9]),
            OrderingStrategy::RefinedStatic,
            SolverReuse::Session,
            Some(ParallelConfig::new(2)),
        );
        assert_eq!(par.workers.len(), 2);
        assert_eq!(par.workers.iter().map(|w| w.items).sum::<u64>(), 3);
        let episodes: u64 = par.properties.iter().map(|p| p.episodes).sum();
        assert_eq!(
            par.workers.iter().map(|w| w.episodes).sum::<u64>(),
            episodes
        );
        // Sequential runs never report workers.
        let (seq, _) = run(
            counter_problem(4, &[3]),
            OrderingStrategy::Standard,
            SolverReuse::Session,
            None,
        );
        assert!(seq.workers.is_empty());
    }

    #[test]
    fn parallel_budget_exhaustion_matches_sequential_commit_point() {
        // A zero conflict budget: the session engine reports ResourceOut at
        // depth 0 with the property Unknown; the fresh engine completes the
        // propagation-only UNSAT depths and stops at the SAT depth.
        let mk = |reuse, parallel| {
            let mut engine = BmcEngine::for_problem(
                counter_problem(3, &[5]),
                BmcOptions {
                    max_depth: 12,
                    reuse,
                    parallel,
                    max_conflicts_per_depth: Some(0),
                    ..BmcOptions::default()
                },
            );
            engine.run_collecting()
        };
        let par = mk(SolverReuse::Session, Some(ParallelConfig::new(2)));
        assert!(matches!(
            par.outcome,
            BmcOutcome::ResourceOut { at_depth: 0 }
        ));
        assert!(matches!(
            par.properties[0].verdict,
            PropertyVerdict::Unknown
        ));
        let seq = mk(SolverReuse::Fresh, None);
        let par = mk(SolverReuse::Fresh, Some(ParallelConfig::new(4)));
        match (&seq.outcome, &par.outcome) {
            (BmcOutcome::ResourceOut { at_depth: a }, BmcOutcome::ResourceOut { at_depth: b }) => {
                assert_eq!(a, b);
            }
            other => panic!("expected matching resource-out, got {other:?}"),
        }
        assert_eq!(prop_verdicts(&par), prop_verdicts(&seq));
    }
}
