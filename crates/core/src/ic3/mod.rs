//! IC3 over the incremental session solver, with **core-ordered
//! assumptions** — the paper's varRank idea transplanted to the algorithm
//! where it pays off today.
//!
//! IC3 (Bradley 2011) maintains frames `F_0 = I ⊆ F_1 ⊆ … ⊆ F_K`, each an
//! overapproximation of the states reachable in that many steps, as sets of
//! blocked cubes. Bad states found in the frontier are pushed back as
//! *obligations* and refuted by **relative induction** queries
//! `F_{j-1} ∧ ¬s ∧ T ∧ s'`; each UNSAT answer is generalized from the
//! query's failed-assumption core and blocked as a clause; when some frame
//! equals its successor the clauses at and above it form an inductive
//! invariant and the property is [`Proved`](PropertyVerdict::Proved) —
//! unboundedly, not merely up to a depth.
//!
//! The engine runs over the same session [`Solver`] as BMC, using exactly
//! the incremental surface PR 3 built: the transition relation and the
//! frame clauses are loaded once, frames are *activated* per query by
//! assumption literals (one per level, plus one for `I`), blocked clauses
//! are added live, and cubes are asserted through assumptions so the
//! solver's [`failed_assumptions`](Solver::failed_assumptions) deliver the
//! unsat core that drives generalization.
//!
//! **Where the paper's idea lands.** BMC's varRank orders *decisions* by
//! unsat-core membership across instances. IC3's solver sees thousands of
//! tiny, highly correlated queries per frame instead of one growing
//! instance per depth — and its assumption mechanism gives core feedback
//! per query for free. Under the refined strategies
//! ([`RefinedStatic`](crate::OrderingStrategy::RefinedStatic) /
//! [`RefinedDynamic`](crate::OrderingStrategy::RefinedDynamic)),
//! the engine keeps one [`VarRank`] table **per frame level**, updated from
//! every core of a query against that frame, and uses it two ways:
//!
//! - **assumption ordering**: the primed cube literals of each query are
//!   assumed highest-score first, steering conflict analysis toward
//!   registers that refuted earlier queries at the same frame (and thereby
//!   toward smaller failed-assumption cores);
//! - **decision ordering**: the frame's score table is installed as the
//!   solver's variable ranking for the query, exactly as BMC does per
//!   depth.
//!
//! [`Standard`](crate::OrderingStrategy::Standard) runs both unordered (the
//! ablation baseline); [`Shtrichman`](crate::OrderingStrategy::Shtrichman)
//! has no IC3 analog (there is
//! no time axis inside a 1-step query) and behaves as `Standard`.
//!
//! Falsifications are reported at the exact depth BMC would find: the
//! frontier only advances past `K` once `F_K ∧ bad` is UNSAT (no
//! counterexample of length `≤ K`), and an obligation chain reaching `I`
//! at frontier `K` witnesses a counterexample of exactly `K` transitions —
//! which a fresh BMC-style solve at depth `K` then reconstructs as a
//! validated [`Trace`]. This is what makes the engine differentially
//! testable against the BMC oracle.

mod frames;
mod generalize;
mod invariant;

pub use invariant::{check_invariant, InvariantClause, InvariantError};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::Instant;

use rbmc_circuit::preprocess::PreprocessReport;
use rbmc_circuit::{LatchInit, Node, NodeId, Signal};
use rbmc_cnf::{CnfFormula, Lit, Var};
use rbmc_solver::{Limits, SolveResult, Solver, SolverOptions, SolverStats};

use crate::certify::EpisodeCertifier;
use crate::engine::{
    depth_limits, strategy_solver_options, BmcOptions, BmcOutcome, BmcRun, DepthStats,
    PropertyReport, PropertyVerdict,
};
use crate::preprocess::preprocess_problem;
use crate::{Model, Trace, TraceLift, Unroller, VarRank, VerificationProblem};

use frames::{Cube, Frames};
use generalize::generalize_from_core;
use invariant::invariant_clauses_from;

/// The IC3 engine: unbounded proofs with extracted inductive invariants,
/// shortest counterexamples otherwise. Configured by the same
/// [`BmcOptions`] as [`BmcEngine`](crate::BmcEngine) — `max_depth` bounds
/// the *frontier* (a property still unresolved there reports
/// [`OpenAt`](PropertyVerdict::OpenAt)), `strategy` selects the
/// core-ordered assumption/decision scheme, `max_conflicts_per_depth`
/// budgets each individual query, and `preprocess` applies the same
/// structural reduction with trace lifting.
///
/// # Examples
///
/// ```
/// use rbmc_core::{BmcOptions, Ic3Engine, Model, PropertyVerdict};
/// use rbmc_circuit::{LatchInit, Netlist};
///
/// // A sticky latch (l' = l, init 0) never becomes 1: IC3 proves it.
/// let mut n = Netlist::new();
/// let l = n.add_latch("l", LatchInit::Zero);
/// n.set_next(l, l);
/// let model = Model::new("sticky", n, l);
/// let mut engine = Ic3Engine::new(model, BmcOptions::default());
/// let run = engine.run_collecting();
/// assert!(matches!(
///     run.properties[0].verdict,
///     PropertyVerdict::Proved { .. }
/// ));
/// ```
pub struct Ic3Engine {
    /// The working model the solver sees (preprocessed when
    /// [`BmcOptions::preprocess`] is on).
    model: Model,
    /// The problem as given, when preprocessing rebuilt it.
    original: Option<Model>,
    /// Trace map from working to original coordinates.
    lift: Option<TraceLift>,
    /// Shape accounting of the preprocessing pass.
    pp_report: Option<PreprocessReport>,
    options: BmcOptions,
}

impl fmt::Debug for Ic3Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ic3Engine")
            .field("problem", &self.model.name())
            .field("properties", &self.model.problem().num_properties())
            .field("options", &self.options)
            .finish()
    }
}

impl Ic3Engine {
    /// Creates an engine for a single-property `model` — the same
    /// preprocessing split as [`BmcEngine::new`](crate::BmcEngine::new):
    /// with [`BmcOptions::preprocess`] on, the model is structurally
    /// reduced once here and every verdict is lifted back.
    pub fn new(model: Model, options: BmcOptions) -> Ic3Engine {
        let (model, original, lift, pp_report) = if options.preprocess {
            let problem = model.into_problem();
            let pp = preprocess_problem(&problem);
            (
                Model::from_problem(pp.problem),
                Some(Model::from_problem(problem)),
                Some(pp.lift),
                Some(pp.report),
            )
        } else {
            (model, None, None, None)
        };
        Ic3Engine {
            model,
            original,
            lift,
            pp_report,
            options,
        }
    }

    /// Creates an engine checking every property of `problem`, one IC3
    /// instance per property over one shared working model.
    pub fn for_problem(problem: VerificationProblem, options: BmcOptions) -> Ic3Engine {
        Ic3Engine::new(Model::from_problem(problem), options)
    }

    /// The model under check **as given** (traces are in its coordinates).
    pub fn model(&self) -> &Model {
        self.original.as_ref().unwrap_or(&self.model)
    }

    /// The working model the solver actually encodes — the coordinate
    /// system of [`PropertyVerdict::Proved`] invariant clauses.
    pub fn working_model(&self) -> &Model {
        &self.model
    }

    /// The full problem under check, as given.
    pub fn problem(&self) -> &VerificationProblem {
        self.model().problem()
    }

    /// Shape accounting of the preprocessing pass (`None` when off).
    pub fn preprocess_report(&self) -> Option<&PreprocessReport> {
        self.pp_report.as_ref()
    }

    /// The trace map from working to original coordinates (`None` when
    /// preprocessing is off).
    pub fn trace_lift(&self) -> Option<&TraceLift> {
        self.lift.as_ref()
    }

    /// Runs IC3 and returns only the summary outcome.
    pub fn run(&mut self) -> BmcOutcome {
        self.run_collecting().outcome
    }

    /// Runs IC3 on every property, collecting per-property reports and
    /// per-frontier statistics (shaped exactly like BMC's per-depth
    /// statistics: entry `k` is the verdict for counterexamples of length
    /// `k`, which is what the differential harnesses compare).
    pub fn run_collecting(&mut self) -> BmcRun {
        let run_start = Instant::now();
        let props: Vec<(String, Signal)> = self
            .model
            .problem()
            .properties()
            .iter()
            .map(|p| (p.name().to_string(), p.bad()))
            .collect();
        let mut aggregate = SolverStats::new();
        let mut reports: Vec<PropertyReport> = Vec::new();
        let mut per_depth: Vec<DepthStats> = Vec::new();
        let mut proof_acc: Option<crate::ProofSummary> = None;
        for (name, bad) in props {
            let mut runner = PropRunner::new(&self.model, bad, &self.options);
            let (report, frontier_stats) = runner.run(name);
            aggregate.accumulate(runner.solver.stats());
            crate::certify::merge_opt(
                &mut proof_acc,
                runner.certifier.take().map(EpisodeCertifier::into_summary),
            );
            merge_depth_stats(&mut per_depth, frontier_stats);
            reports.push(report);
        }

        let outcome = summarize(&reports, self.options.max_depth);
        let mut run = BmcRun {
            outcome,
            properties: reports,
            per_depth,
            solver_stats: aggregate,
            total_time: run_start.elapsed(),
            proof: proof_acc,
        };
        // Lift traces out of the working model's coordinates, as BMC does.
        if let Some(lift) = self.lift.as_ref().filter(|l| !l.is_identity()) {
            if let BmcOutcome::Counterexample { trace, .. } = &mut run.outcome {
                *trace = lift.lift(trace);
            }
            for prop in &mut run.properties {
                if let PropertyVerdict::Falsified { trace, .. } = &mut prop.verdict {
                    *trace = lift.lift(trace);
                }
            }
        }
        run
    }
}

/// The summary outcome over the per-property reports, with BMC's
/// precedence: a counterexample outranks a truncation outranks completion.
fn summarize(reports: &[PropertyReport], max_depth: usize) -> BmcOutcome {
    let mut best: Option<(usize, &Trace)> = None;
    for report in reports {
        if let PropertyVerdict::Falsified { depth, trace } = &report.verdict {
            if best.is_none_or(|(d, _)| *depth < d) {
                best = Some((*depth, trace));
            }
        }
    }
    if let Some((depth, trace)) = best {
        return BmcOutcome::Counterexample {
            depth,
            trace: trace.clone(),
        };
    }
    if let Some(at_depth) = reports
        .iter()
        .filter_map(|r| match r.verdict {
            PropertyVerdict::Unknown => Some(r.depth_results.len()),
            _ => None,
        })
        .min()
    {
        return BmcOutcome::ResourceOut { at_depth };
    }
    // Every property proved or open: the depth through which *no*
    // counterexample exists is bounded by the open properties' frontiers
    // (a proof bounds nothing — it holds at every depth).
    let depth_completed = reports
        .iter()
        .filter_map(|r| match r.verdict {
            PropertyVerdict::OpenAt { depth } => Some(depth),
            _ => None,
        })
        .min()
        .unwrap_or_else(|| {
            reports
                .iter()
                .filter_map(|r| match r.verdict {
                    PropertyVerdict::Proved { depth, .. } => Some(depth),
                    _ => None,
                })
                .max()
                .unwrap_or(max_depth)
        });
    BmcOutcome::BoundReached { depth_completed }
}

/// Folds one property's per-frontier statistics into the run-level
/// per-depth table (summed counters, worst result).
fn merge_depth_stats(all: &mut Vec<DepthStats>, prop: Vec<DepthStats>) {
    for (k, stats) in prop.into_iter().enumerate() {
        if k == all.len() {
            all.push(stats);
            continue;
        }
        let slot = &mut all[k];
        slot.decisions += stats.decisions;
        slot.implications += stats.implications;
        slot.conflicts += stats.conflicts;
        slot.core_vars += stats.core_vars;
        slot.num_vars = slot.num_vars.max(stats.num_vars);
        slot.num_clauses = slot.num_clauses.max(stats.num_clauses);
        slot.switched_to_vsids |= stats.switched_to_vsids;
        slot.time += stats.time;
        slot.result = match (slot.result, stats.result) {
            (SolveResult::Sat, _) | (_, SolveResult::Sat) => SolveResult::Sat,
            (SolveResult::Unknown, _) | (_, SolveResult::Unknown) => SolveResult::Unknown,
            _ => SolveResult::Unsat,
        };
    }
}

/// How one property's IC3 run ended (pre-report form).
enum PropOutcome {
    Falsified {
        depth: usize,
        trace: Trace,
    },
    Proved {
        depth: usize,
        invariant: Vec<InvariantClause>,
    },
    Open {
        completed: usize,
    },
    ResourceOut,
}

/// How one obligation-blocking campaign ended.
enum BlockResult {
    /// Every obligation was discharged; re-ask the frontier bad query.
    Blocked,
    /// An obligation chain reached the initial states: counterexample of
    /// exactly the frontier's length.
    Cex,
    /// A query budget or deadline truncated the campaign.
    ResourceOut,
}

/// One property's IC3 instance: session solver, frames, per-level rank
/// tables, and the query machinery.
struct PropRunner<'a> {
    model: &'a Model,
    unroller: Unroller<'a>,
    solver: Solver,
    bad: Signal,
    latches: Vec<NodeId>,
    inits: Vec<LatchInit>,
    /// node index → latch position (for mapping failed assumptions back).
    latch_pos: Vec<Option<usize>>,
    num_nodes: usize,
    /// Whether the strategy orders assumptions/decisions by core counts.
    ordered: bool,
    /// Next free solver variable (activation literals and query selectors).
    next_var: usize,
    /// Activation literal of the initial-state clauses (`F_0`).
    act_init: Lit,
    /// `level_acts[j-1]` activates the clauses blocked at exactly level `j`.
    level_acts: Vec<Lit>,
    frames: Frames,
    /// `ranks[m]`: core-membership scores from queries against `F_m` (the
    /// frame-local varRank of the refined strategies).
    ranks: Vec<VarRank>,
    limits: Limits,
    options: &'a BmcOptions,
    seq: u64,
    episodes: u64,
    assumption_conflicts: u64,
    /// Distinct latch positions cited by cores, per frontier (DepthStats).
    frontier_core_positions: Vec<usize>,
    /// Proof sink and per-episode checker of the session solver (attached
    /// when [`BmcOptions::proof`] is on).
    certifier: Option<EpisodeCertifier>,
}

impl<'a> PropRunner<'a> {
    fn new(model: &'a Model, bad: Signal, options: &'a BmcOptions) -> PropRunner<'a> {
        let unroller = Unroller::new(model);
        let num_nodes = model.netlist().num_nodes();
        let latches = model.netlist().latches();
        let mut latch_pos = vec![None; num_nodes];
        let mut inits = Vec::with_capacity(latches.len());
        for (pos, &id) in latches.iter().enumerate() {
            latch_pos[id.index()] = Some(pos);
            if let Node::Latch { init, .. } = model.netlist().node(id) {
                inits.push(*init);
            }
        }
        // Same solver configuration as BMC's strategy mapping, except the
        // CDG is normally not recorded: IC3's cores come from failed
        // assumptions, which the session machinery tracks for free. Proof
        // logging re-enables it — the LRAT hints are CDG antecedents.
        let mut solver_opts: SolverOptions = strategy_solver_options(options);
        solver_opts.record_cdg = options.proof.is_on();
        let mut solver = Solver::with_options(solver_opts);
        let certifier = EpisodeCertifier::attach(options.proof, &mut solver);
        solver.reserve_vars(2 * num_nodes);

        // Load the 1-step transition relation once: frame 0 is the
        // combinational logic with latches and inputs free (no `I`), frame
        // 1 only the latch transition clauses (queries never read frame-1
        // gates — primed cubes and the bad predicate are over latches and
        // frame-0 logic).
        let mut formula = CnfFormula::with_vars(2 * num_nodes);
        formula.add_clause([unroller.var_of(NodeId::CONST, 0).negative()]);
        formula.add_clause([unroller.var_of(NodeId::CONST, 1).negative()]);
        for id in model.netlist().node_ids() {
            match model.netlist().node(id) {
                Node::Gate { .. } => unroller.emit_gate_for(id, 0, &mut formula),
                Node::Latch {
                    next: Some(next), ..
                } => {
                    let cur = unroller.var_of(id, 1).positive();
                    let prev = unroller.lit_of(*next, 0);
                    formula.add_clause([!cur, prev]);
                    formula.add_clause([cur, !prev]);
                }
                _ => {}
            }
        }
        let total = formula.num_clauses();
        for clause in formula.clauses_in(0..total) {
            solver.add_clause(clause.lits());
        }

        let mut runner = PropRunner {
            model,
            unroller,
            solver,
            bad,
            latches,
            inits,
            latch_pos,
            num_nodes,
            ordered: options.strategy.needs_cores(),
            next_var: 2 * num_nodes,
            act_init: Lit::new(Var::new(0), false), // placeholder
            level_acts: Vec::new(),
            frames: Frames::new(),
            ranks: Vec::new(),
            limits: depth_limits(options),
            options,
            seq: 0,
            episodes: 0,
            assumption_conflicts: 0,
            frontier_core_positions: Vec::new(),
            certifier,
        };
        runner.act_init = runner.alloc_lit();
        // I(V⁰), gated: ¬act_init ∨ (latch at its initial value).
        for (pos, &init) in runner.inits.clone().iter().enumerate() {
            let lit = match init {
                LatchInit::Zero => runner.latch_lit(pos, false, 0),
                LatchInit::One => runner.latch_lit(pos, true, 0),
                LatchInit::Free => continue,
            };
            let act = runner.act_init;
            runner.solver.add_clause(&[!act, lit]);
        }
        runner
    }

    fn alloc_lit(&mut self) -> Lit {
        let var = Var::new(self.next_var);
        self.next_var += 1;
        var.positive()
    }

    /// The literal "latch at `pos` has value `value`" at `frame`.
    fn latch_lit(&self, pos: usize, value: bool, frame: usize) -> Lit {
        let var = self.unroller.var_of(self.latches[pos], frame);
        if value {
            var.positive()
        } else {
            var.negative()
        }
    }

    fn act_of(&self, level: usize) -> Lit {
        self.level_acts[level - 1]
    }

    /// Grows activation literals, frames, and rank tables through frontier
    /// `k`.
    fn ensure_frontier(&mut self, k: usize) {
        while self.level_acts.len() < k {
            let act = self.alloc_lit();
            self.level_acts.push(act);
        }
        self.frames.ensure_level(k);
        while self.ranks.len() <= k {
            self.ranks.push(VarRank::new(self.options.weighting));
        }
    }

    /// The assumptions activating `F_m`: every level's clauses from `m` up
    /// (clause sets are downward-nested), plus the initial-state clauses
    /// for `F_0`.
    fn frame_assumptions(&self, m: usize) -> Vec<Lit> {
        let mut acts = Vec::with_capacity(self.level_acts.len() + 2);
        if m == 0 {
            acts.push(self.act_init);
        }
        for j in m.max(1)..=self.level_acts.len() {
            acts.push(self.act_of(j));
        }
        acts
    }

    /// The primed literals of `cube` (its latches at frame 1), ordered —
    /// under the refined strategies — by descending core-membership score
    /// of the *unprimed* latch variable in frame `m`'s rank table, ties by
    /// latch position. Unordered strategies keep latch order.
    fn primed_lits(&self, cube: &Cube, m: usize) -> Vec<Lit> {
        let mut entries: Vec<(u64, usize, bool)> = cube
            .iter()
            .map(|&(pos, value)| {
                let score = if self.ordered {
                    self.ranks[m].score(self.unroller.var_of(self.latches[pos], 0))
                } else {
                    0
                };
                (score, pos, value)
            })
            .collect();
        if self.ordered {
            entries.sort_by_key(|&(score, pos, _)| (Reverse(score), pos));
        }
        entries
            .into_iter()
            .map(|(_, pos, value)| self.latch_lit(pos, value, 1))
            .collect()
    }

    /// Installs frame `m`'s rank table as the solver's decision ordering
    /// (refined strategies only — the per-query analog of BMC's per-depth
    /// `set_var_ranking` refresh).
    fn install_ranking(&mut self, m: usize) {
        if self.ordered {
            self.solver.set_var_ranking(&self.ranks[m].snapshot());
        }
    }

    fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.episodes += 1;
        let result = self.solver.solve_under_limited(assumptions, &self.limits);
        // Every IC3 query funnels through here, so every UNSAT verdict the
        // algorithm acts on (blocked cube, converged frontier) is certified.
        if result == SolveResult::Unsat {
            if let Some(cert) = self.certifier.as_mut() {
                cert.observe_unsat();
            }
        }
        result
    }

    /// The full register cube of the solver's satisfying assignment.
    fn cube_from_model(&self) -> Cube {
        let assignment = self.solver.model().expect("model after SAT");
        self.latches
            .iter()
            .enumerate()
            .map(|(pos, &id)| (pos, assignment[self.unroller.var_of(id, 0).index()]))
            .collect()
    }

    /// The latch positions cited by the last UNSAT core (failed primed
    /// assumption literals mapped back to unprimed latches). Empty when the
    /// refutation closed at decision level 0.
    fn core_positions(&self) -> Vec<usize> {
        self.solver
            .failed_assumptions()
            .iter()
            .filter_map(|lit| {
                let idx = lit.var().index();
                if (self.num_nodes..2 * self.num_nodes).contains(&idx) {
                    self.latch_pos[idx - self.num_nodes]
                } else {
                    None
                }
            })
            .collect()
    }

    /// Records a core in frame `m`'s rank table (weight `m + 1`, so level-0
    /// cores still score) and in the frontier's core accounting.
    fn record_core(&mut self, m: usize, positions: &[usize]) {
        self.frontier_core_positions.extend_from_slice(positions);
        if self.ordered && !positions.is_empty() {
            let vars: Vec<Var> = positions
                .iter()
                .map(|&pos| self.unroller.var_of(self.latches[pos], 0))
                .collect();
            self.ranks[m].update(&vars, m + 1);
        }
    }

    /// Blocks `cube` at `level`: the clause `¬cube` is added under the
    /// level's activation literal and the bookkeeping subsumes.
    fn add_blocked(&mut self, level: usize, cube: Cube) {
        let mut clause = Vec::with_capacity(cube.len() + 1);
        clause.push(!self.act_of(level));
        for &(pos, value) in &cube {
            clause.push(self.latch_lit(pos, !value, 0));
        }
        self.solver.add_clause(&clause);
        self.frames.add(level, cube);
    }

    /// Discharges the obligation queue seeded with the frontier bad cube
    /// `s0`: relative-induction queries, core generalization, predecessor
    /// extraction — the heart of IC3.
    fn block_state(&mut self, s0: Cube, k: usize) -> BlockResult {
        let mut queue: BinaryHeap<Reverse<(usize, u64, Cube)>> = BinaryHeap::new();
        self.seq += 1;
        queue.push(Reverse((k, self.seq, s0)));
        while let Some(Reverse((j, _, s))) = queue.pop() {
            if j == 0 {
                // The chain reached an initial state: counterexample of
                // exactly k transitions (shorter ones were excluded when
                // earlier frontiers passed).
                return BlockResult::Cex;
            }
            if self.frames.is_blocked(&s, j) {
                continue;
            }
            // F_{j-1} ∧ ¬s ∧ T ∧ s': ¬s under a one-shot selector, s'
            // assumed literal by literal (core-ordered), frame acts first.
            let selector = self.alloc_lit();
            let mut not_s = Vec::with_capacity(s.len() + 1);
            not_s.push(!selector);
            for &(pos, value) in &s {
                not_s.push(self.latch_lit(pos, !value, 0));
            }
            self.solver.add_clause(&not_s);
            let mut assumptions = self.frame_assumptions(j - 1);
            assumptions.push(selector);
            assumptions.extend(self.primed_lits(&s, j - 1));
            self.install_ranking(j - 1);
            let result = self.solve(&assumptions);
            match result {
                SolveResult::Unsat => {
                    self.assumption_conflicts += 1;
                    let core = self.core_positions();
                    self.record_core(j - 1, &core);
                    let cube = generalize_from_core(&s, &core, &self.inits);
                    self.solver.add_clause(&[!selector]);
                    self.add_blocked(j, cube);
                }
                SolveResult::Sat => {
                    let predecessor = self.cube_from_model();
                    self.solver.add_clause(&[!selector]);
                    self.seq += 1;
                    queue.push(Reverse((j - 1, self.seq, predecessor)));
                    self.seq += 1;
                    queue.push(Reverse((j, self.seq, s)));
                }
                SolveResult::Unknown => {
                    self.solver.add_clause(&[!selector]);
                    return BlockResult::ResourceOut;
                }
            }
        }
        BlockResult::Blocked
    }

    /// The push phase after frontier `k` passed: every cube at levels
    /// `1..k` that is inductive relative to its own frame moves up one
    /// level. Returns `false` on a truncated query.
    fn push_phase(&mut self, k: usize) -> bool {
        for j in 1..k {
            let cubes: Vec<Cube> = self.frames.cubes_at(j).to_vec();
            for cube in cubes {
                if !self.frames.cubes_at(j).contains(&cube) {
                    continue; // subsumed away earlier in this phase
                }
                let mut assumptions = self.frame_assumptions(j);
                assumptions.extend(self.primed_lits(&cube, j));
                self.install_ranking(j);
                match self.solve(&assumptions) {
                    SolveResult::Unsat => {
                        self.assumption_conflicts += 1;
                        let core = self.core_positions();
                        self.record_core(j, &core);
                        if self.frames.push_up(j, &cube) {
                            let mut clause = Vec::with_capacity(cube.len() + 1);
                            clause.push(!self.act_of(j + 1));
                            for &(pos, value) in &cube {
                                clause.push(self.latch_lit(pos, !value, 0));
                            }
                            self.solver.add_clause(&clause);
                        }
                    }
                    SolveResult::Sat => {}
                    SolveResult::Unknown => return false,
                }
            }
        }
        true
    }

    /// Reconstructs the depth-`k` counterexample as a validated trace via a
    /// fresh BMC-style solve (shares nothing with the IC3 session). `None`
    /// only when a budget or deadline truncated the reconstruction.
    fn extract_trace(&self, k: usize) -> Option<Trace> {
        let unroller = Unroller::new(self.model);
        let mut solver = Solver::with_options(SolverOptions::default());
        solver.reserve_vars(unroller.num_vars_at(k));
        unroller.with_prefix(k, |clauses| {
            for clause in clauses {
                solver.add_clause(clause.lits());
            }
        });
        solver.add_clause(&[unroller.lit_of(self.bad, k)]);
        match solver.solve_limited(&self.limits) {
            SolveResult::Sat => {
                let assignment = solver.model().expect("model after SAT");
                let trace = Trace::from_assignment(&unroller, assignment, k);
                debug_assert!(
                    trace
                        .validate_against(self.model.netlist(), self.bad)
                        .is_ok(),
                    "IC3 counterexample reconstruction produced an invalid trace"
                );
                Some(trace)
            }
            SolveResult::Unknown => None,
            SolveResult::Unsat => unreachable!(
                "IC3 derived a depth-{k} counterexample that BMC refutes — soundness bug"
            ),
        }
    }

    /// The main IC3 loop for one property. Returns the per-property report
    /// and per-frontier statistics (BMC `DepthStats` shape).
    fn run(&mut self, name: String) -> (PropertyReport, Vec<DepthStats>) {
        let mut depth_results: Vec<SolveResult> = Vec::new();
        let mut per_frontier: Vec<DepthStats> = Vec::new();
        let mut completed: Option<usize> = None;
        let mut outcome: Option<PropOutcome> = None;

        'frontiers: for k in 0..=self.options.max_depth {
            self.ensure_frontier(k);
            self.frontier_core_positions.clear();
            let frontier_start = Instant::now();
            let base = self.solver.stats().clone();
            let mut frontier_result = SolveResult::Unsat;
            loop {
                // SAT?[F_k ∧ bad]: a frontier state reaching bad under some
                // input — inputs are free in the frame-0 logic.
                let mut assumptions = self.frame_assumptions(k);
                assumptions.push(self.unroller.lit_of(self.bad, 0));
                self.install_ranking(k);
                match self.solve(&assumptions) {
                    SolveResult::Unsat => {
                        self.assumption_conflicts += 1;
                        break;
                    }
                    SolveResult::Sat => {
                        if self.latches.is_empty() {
                            // Combinational counterexample: depth 0.
                            frontier_result = SolveResult::Sat;
                            outcome = match self.extract_trace(0) {
                                Some(trace) => Some(PropOutcome::Falsified { depth: 0, trace }),
                                None => Some(PropOutcome::ResourceOut),
                            };
                        } else {
                            let s = self.cube_from_model();
                            match self.block_state(s, k) {
                                BlockResult::Blocked => continue,
                                BlockResult::Cex => {
                                    frontier_result = SolveResult::Sat;
                                    outcome = match self.extract_trace(k) {
                                        Some(trace) => {
                                            Some(PropOutcome::Falsified { depth: k, trace })
                                        }
                                        None => Some(PropOutcome::ResourceOut),
                                    };
                                }
                                BlockResult::ResourceOut => {
                                    frontier_result = SolveResult::Unknown;
                                    outcome = Some(PropOutcome::ResourceOut);
                                }
                            }
                        }
                    }
                    SolveResult::Unknown => {
                        frontier_result = SolveResult::Unknown;
                        outcome = Some(PropOutcome::ResourceOut);
                    }
                }
                break;
            }

            // Frontier k decided (or truncated): propagate and check for a
            // fixpoint only on the passing path.
            if frontier_result == SolveResult::Unsat {
                completed = Some(k);
                if self.latches.is_empty() {
                    // No registers and bad unsatisfiable: proved outright
                    // with the trivial invariant.
                    outcome = Some(PropOutcome::Proved {
                        depth: k,
                        invariant: Vec::new(),
                    });
                } else if !self.push_phase(k) {
                    frontier_result = SolveResult::Unknown;
                    outcome = Some(PropOutcome::ResourceOut);
                } else if let Some(fix) = (1..k).find(|&j| self.frames.cubes_at(j).is_empty()) {
                    let invariant = invariant_clauses_from(&self.frames.cubes_from(fix + 1));
                    outcome = Some(PropOutcome::Proved {
                        depth: k,
                        invariant,
                    });
                }
            }

            // Per-frontier statistics, in the shape BMC reports per depth.
            let stats = self.solver.stats();
            let mut cores = std::mem::take(&mut self.frontier_core_positions);
            cores.sort_unstable();
            cores.dedup();
            depth_results.push(frontier_result);
            per_frontier.push(DepthStats {
                depth: k,
                result: frontier_result,
                decisions: stats.decisions - base.decisions,
                implications: stats.propagations - base.propagations,
                conflicts: stats.conflicts - base.conflicts,
                num_vars: self.solver.num_vars(),
                num_clauses: self.solver.num_original_clauses(),
                core_vars: cores.len(),
                switched_to_vsids: stats.switched_to_vsids,
                cdg_nodes: 0,
                cdg_edges: 0,
                time: frontier_start.elapsed(),
            });
            if outcome.is_some() {
                break 'frontiers;
            }
        }

        let outcome = outcome.unwrap_or(PropOutcome::Open {
            completed: completed.unwrap_or(0),
        });
        // An extracted proof is only reported after the independent
        // machine check accepts its invariant — soundness is asserted, not
        // assumed.
        if let PropOutcome::Proved { invariant, .. } = &outcome {
            if let Err(err) = check_invariant(self.model, self.bad, invariant) {
                panic!("IC3 proof of `{name}` failed the invariant check: {err}");
            }
        }

        let stats = self.solver.stats();
        let (verdict, retirement_depth) = match outcome {
            PropOutcome::Falsified { depth, trace } => {
                (PropertyVerdict::Falsified { depth, trace }, Some(depth))
            }
            PropOutcome::Proved { depth, invariant } => (
                PropertyVerdict::Proved {
                    depth,
                    invariant_clauses: Some(invariant),
                },
                None,
            ),
            PropOutcome::Open { completed } => (PropertyVerdict::OpenAt { depth: completed }, None),
            PropOutcome::ResourceOut => match completed {
                Some(depth) => (PropertyVerdict::OpenAt { depth }, None),
                None => (PropertyVerdict::Unknown, None),
            },
        };
        let report = PropertyReport {
            name,
            verdict,
            episodes: self.episodes,
            assumption_conflicts: self.assumption_conflicts,
            decisions: stats.decisions,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            retirement_depth,
            depth_results,
        };
        (report, per_frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_reachable, OracleVerdict};
    use crate::{OrderingStrategy, ProblemBuilder};
    use rbmc_circuit::Netlist;

    fn counter_model(width: usize, target: u64) -> Model {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..width)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let bad = n.bus_eq_const(&bits, target);
        Model::new("counter", n, bad)
    }

    /// Counter that resets to 0 upon reaching `reset_at`; values above
    /// `reset_at` are unreachable.
    fn reset_counter(width: usize, reset_at: u64, target: u64) -> Model {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..width)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let inc = n.bus_increment(&bits);
        let at = n.bus_eq_const(&bits, reset_at);
        let next: Vec<Signal> = inc.iter().map(|&s| n.mux(at, Signal::FALSE, s)).collect();
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let bad = n.bus_eq_const(&bits, target);
        Model::new("reset_counter", n, bad)
    }

    fn strategies() -> Vec<OrderingStrategy> {
        vec![
            OrderingStrategy::Standard,
            OrderingStrategy::RefinedStatic,
            OrderingStrategy::RefinedDynamic { divisor: 64 },
        ]
    }

    #[test]
    fn falsifies_at_the_oracle_depth() {
        let model = counter_model(4, 11);
        assert_eq!(check_reachable(&model, 20), OracleVerdict::FailsAt(11));
        for strategy in strategies() {
            let mut engine = Ic3Engine::new(
                counter_model(4, 11),
                BmcOptions {
                    max_depth: 20,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            match engine.run() {
                BmcOutcome::Counterexample { depth, trace } => {
                    assert_eq!(depth, 11, "{strategy:?}");
                    assert!(trace.validate(engine.model()).is_ok(), "{strategy:?}");
                }
                other => panic!("{strategy:?}: expected cex, got {other:?}"),
            }
        }
    }

    #[test]
    fn proves_an_unreachable_value_with_checked_invariant() {
        // 4-bit counter resetting at 10: values 11..15 unreachable.
        for strategy in strategies() {
            let mut engine = Ic3Engine::new(
                reset_counter(4, 10, 13),
                BmcOptions {
                    max_depth: 30,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let run = engine.run_collecting();
            match &run.properties[0].verdict {
                PropertyVerdict::Proved {
                    depth,
                    invariant_clauses,
                } => {
                    let clauses = invariant_clauses.as_ref().expect("IC3 extracts invariants");
                    // The engine already asserted the check; re-run it here
                    // against the engine's working model as an independent
                    // witness of the test's own expectation.
                    let working = engine.working_model();
                    let bad = working.bad();
                    assert_eq!(check_invariant(working, bad, clauses), Ok(()));
                    assert!(*depth <= 30);
                }
                other => panic!("{strategy:?}: expected proof, got {other}"),
            }
            assert!(matches!(run.outcome, BmcOutcome::BoundReached { .. }));
        }
    }

    #[test]
    fn depth_results_match_bmc_per_depth_verdicts() {
        // The differential currency: IC3's per-frontier sequence equals
        // BMC's per-depth sequence on the shared prefix.
        for target in [6u64, 13] {
            let mut bmc = crate::BmcEngine::new(
                counter_model(4, target),
                BmcOptions {
                    max_depth: 16,
                    ..BmcOptions::default()
                },
            );
            let bmc_run = bmc.run_collecting();
            let bmc_verdicts: Vec<SolveResult> =
                bmc_run.per_depth.iter().map(|d| d.result).collect();
            let mut ic3 = Ic3Engine::new(
                counter_model(4, target),
                BmcOptions {
                    max_depth: 16,
                    strategy: OrderingStrategy::RefinedStatic,
                    ..BmcOptions::default()
                },
            );
            let ic3_run = ic3.run_collecting();
            let shared = bmc_verdicts
                .len()
                .min(ic3_run.properties[0].depth_results.len());
            assert_eq!(
                ic3_run.properties[0].depth_results[..shared],
                bmc_verdicts[..shared],
                "target {target}"
            );
        }
    }

    #[test]
    fn multi_property_mixes_proofs_and_counterexamples() {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..4)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let inc = n.bus_increment(&bits);
        let at10 = n.bus_eq_const(&bits, 10);
        let next: Vec<Signal> = inc.iter().map(|&s| n.mux(at10, Signal::FALSE, s)).collect();
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let reach7 = n.bus_eq_const(&bits, 7);
        let reach13 = n.bus_eq_const(&bits, 13);
        let problem = ProblemBuilder::new("mixed", n)
            .property("reach_7", reach7)
            .property("reach_13", reach13)
            .build();
        let mut engine = Ic3Engine::for_problem(
            problem,
            BmcOptions {
                max_depth: 30,
                strategy: OrderingStrategy::RefinedStatic,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        match &run.property("reach_7").unwrap().verdict {
            PropertyVerdict::Falsified { depth, .. } => assert_eq!(*depth, 7),
            other => panic!("reach_7: expected falsified, got {other}"),
        }
        assert!(matches!(
            run.property("reach_13").unwrap().verdict,
            PropertyVerdict::Proved { .. }
        ));
        assert!(matches!(
            run.outcome,
            BmcOutcome::Counterexample { depth: 7, .. }
        ));
    }

    #[test]
    fn frontier_bound_reports_open() {
        // Deep counterexample (depth 13) with a frontier bound of 4: the
        // run stays open at the bound, exactly like BMC's OpenAt.
        let mut engine = Ic3Engine::new(
            counter_model(4, 13),
            BmcOptions {
                max_depth: 4,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        match &run.properties[0].verdict {
            PropertyVerdict::OpenAt { depth } => assert_eq!(*depth, 4),
            other => panic!("expected open, got {other}"),
        }
    }

    #[test]
    fn expired_deadline_truncates_the_run() {
        let options = BmcOptions {
            deadline: Some(std::time::Instant::now()),
            ..BmcOptions::default()
        };
        let mut engine = Ic3Engine::new(counter_model(4, 13), options);
        let run = engine.run_collecting();
        assert!(matches!(run.outcome, BmcOutcome::ResourceOut { .. }));
        assert!(matches!(
            run.properties[0].verdict,
            PropertyVerdict::Unknown
        ));
    }

    #[test]
    fn preprocessing_lifts_traces_to_original_coordinates() {
        // A model with dead logic the preprocessor removes: the returned
        // trace must still validate on the *original* netlist.
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..3)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let dead = n.add_latch("dead", LatchInit::Free);
        n.set_next(dead, dead);
        let bad = n.bus_eq_const(&bits, 5);
        let model = Model::new("with_dead", n, bad);
        let mut engine = Ic3Engine::new(model, BmcOptions::default());
        match engine.run() {
            BmcOutcome::Counterexample { depth, trace } => {
                assert_eq!(depth, 5);
                assert!(trace.validate(engine.model()).is_ok());
            }
            other => panic!("expected cex, got {other:?}"),
        }
    }
}
