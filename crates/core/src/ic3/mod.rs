//! IC3 over the incremental session solver, with **core-ordered
//! assumptions** — the paper's varRank idea transplanted to the algorithm
//! where it pays off today.
//!
//! IC3 (Bradley 2011) maintains frames `F_0 = I ⊆ F_1 ⊆ … ⊆ F_K`, each an
//! overapproximation of the states reachable in that many steps, as sets of
//! blocked cubes. Bad states found in the frontier are pushed back as
//! *obligations* and refuted by **relative induction** queries
//! `F_{j-1} ∧ ¬s ∧ T ∧ s'`; each SAT answer's state (a bad state, or a
//! predecessor of `s`) is first lifted by ternary simulation to the latches
//! the answer needs (`lift.rs`), so an obligation covers a set of states,
//! not one; each UNSAT answer is generalized from the
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
//! at frontier `K` witnesses a counterexample of exactly `K` transitions.
//! The chain itself is the [`Trace`], as in PDR (Eén, Mishchenko and
//! Brayton, FMCAD 2011): each obligation records the frame-0 inputs of the
//! SAT answer it was lifted under and the obligation it steps into, so the
//! level-0 obligation's cube (every other latch at its reset value)
//! followed by those inputs in chain order replays into `bad`. This is
//! what makes the engine differentially testable against the BMC oracle.

mod frames;
mod generalize;
mod invariant;
mod lift;

pub use invariant::{check_invariant, InvariantClause, InvariantError};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::Instant;

use rbmc_circuit::coi::init_value;
use rbmc_circuit::preprocess::PreprocessReport;
use rbmc_circuit::{LatchInit, Node, NodeId, Signal};
use rbmc_cnf::{CnfFormula, Lit, Var};
use rbmc_solver::{Limits, SolveResult, Solver, SolverStats};

use crate::engine::{
    depth_limits, strategy_solver_options, BmcOptions, BmcRun, DepthStats, PropertyReport,
    PropertyVerdict,
};
use crate::preprocess::EngineModel;
use crate::{Model, ProofSummary, Trace, TraceLift, Unroller, VarRank, VerificationProblem};

use frames::{Cube, Frames};
use generalize::generalize_from_core;
use invariant::invariant_clauses_from;
use lift::Lifter;

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
/// use rbmc_core::{check_invariant, BmcOptions, Ic3Engine, Model, PropertyVerdict};
/// use rbmc_circuit::{LatchInit, Netlist};
///
/// // A sticky latch (l' = l, init 0) never becomes 1: IC3 proves it.
/// let mut n = Netlist::new();
/// let l = n.add_latch("l", LatchInit::Zero);
/// n.set_next(l, l);
/// let model = Model::new("sticky", n, l);
/// let mut engine = Ic3Engine::new(model, BmcOptions::default());
/// let run = engine.run_collecting();
/// let PropertyVerdict::Proved { invariant_clauses: Some(clauses), .. } =
///     &run.properties[0].verdict
/// else {
///     panic!("expected a proof");
/// };
/// // A proof is trusted once its invariant passes the independent check.
/// let working = engine.working_model();
/// assert_eq!(check_invariant(working, working.bad(), clauses), Ok(()));
/// ```
pub struct Ic3Engine {
    /// The working model the solver sees (preprocessed when
    /// [`BmcOptions::preprocess`] is on) and the way back to the original.
    model: EngineModel,
    options: BmcOptions,
}

impl fmt::Debug for Ic3Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ic3Engine")
            .field("problem", &self.model.working().name())
            .field(
                "properties",
                &self.model.working().problem().num_properties(),
            )
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
        Ic3Engine {
            model: EngineModel::new(model, options.preprocess),
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
        self.model.original()
    }

    /// The working model the solver actually encodes — the coordinate
    /// system of [`PropertyVerdict::Proved`] invariant clauses.
    pub fn working_model(&self) -> &Model {
        self.model.working()
    }

    /// The full problem under check, as given.
    pub fn problem(&self) -> &VerificationProblem {
        self.model().problem()
    }

    /// Shape accounting of the preprocessing pass (`None` when off).
    pub fn preprocess_report(&self) -> Option<&PreprocessReport> {
        self.model.report()
    }

    /// The trace map from working to original coordinates (`None` when
    /// preprocessing is off).
    pub fn trace_lift(&self) -> Option<&TraceLift> {
        self.model.lift()
    }

    /// Runs IC3 on every property, collecting per-property reports and
    /// per-frontier statistics (shaped exactly like BMC's per-depth
    /// statistics: entry `k` is the verdict for counterexamples of length
    /// `k`, which is what the differential harnesses compare).
    pub fn run_collecting(&mut self) -> BmcRun {
        let run_start = Instant::now();
        let working = self.model.working();
        let props: Vec<(String, Signal)> = working
            .problem()
            .properties()
            .iter()
            .map(|p| (p.name().to_string(), p.bad()))
            .collect();
        let mut aggregate = SolverStats::new();
        let mut reports: Vec<PropertyReport> = Vec::new();
        let mut per_depth: Vec<DepthStats> = Vec::new();
        let mut proof = ProofSummary::default();
        let mut lifter = Lifter::new(working.netlist());
        for (name, bad) in props {
            let mut runner = PropRunner::new(working, bad, &self.options, &mut proof, &mut lifter);
            let (report, frontier_stats) = runner.run(name);
            aggregate.accumulate(runner.solver.stats());
            // Runners run one after another, and each holds all its frames'
            // rank tables at once until it is dropped; a table never
            // shrinks, so a runner's final total is its high-water mark.
            let rank_entries: usize = runner.ranks.iter().map(VarRank::num_entries).sum();
            aggregate.rank_peak_entries = aggregate.rank_peak_entries.max(rank_entries as u64);
            runner.proof.add_steps(&runner.solver);
            merge_depth_stats(&mut per_depth, frontier_stats);
            reports.push(report);
        }

        let mut run = BmcRun {
            properties: reports,
            per_depth,
            solver_stats: aggregate,
            total_time: run_start.elapsed(),
            proof: self.options.proof.is_on().then_some(proof),
        };
        self.model.lift_traces(&mut run);
        run
    }
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

/// Loads the 1-step transition relation into `solver`: frame 0 is the
/// combinational logic with latches and inputs free (no `I`), frame 1 only
/// the latch transition clauses (queries never read frame-1 gates — primed
/// cubes and the bad predicate are over latches and frame-0 logic). The
/// session solver loads it once, and so does the invariant check.
fn load_step_relation(unroller: &Unroller<'_>, solver: &mut Solver) {
    let netlist = unroller.model().netlist();
    solver.reserve_vars(unroller.num_vars_at(1));
    let mut formula = CnfFormula::with_vars(unroller.num_vars_at(1));
    formula.add_clause([unroller.var_of(NodeId::CONST, 0).negative()]);
    formula.add_clause([unroller.var_of(NodeId::CONST, 1).negative()]);
    for id in netlist.node_ids() {
        match netlist.node(id) {
            Node::Gate { .. } => unroller.emit_gate_for(id, 0, &mut formula),
            Node::Latch {
                next: Some(next), ..
            } => {
                let cur = unroller.var_of(id, 1).positive();
                let prev = unroller.lit_of(next, 0);
                formula.add_clause([!cur, prev]);
                formula.add_clause([cur, !prev]);
            }
            _ => {}
        }
    }
    for clause in formula.clauses() {
        solver.add_clause(clause.lits());
    }
}

/// How one obligation-blocking campaign ended.
enum BlockResult {
    /// Every obligation was discharged; re-ask the frontier bad query.
    Blocked,
    /// An obligation chain reached the initial states: the counterexample
    /// it spells, of exactly the frontier's length.
    Cex(Trace),
    /// A query budget or deadline truncated the campaign.
    ResourceOut,
}

/// How one query ended.
enum Answer {
    /// UNSAT, with the latch positions its core cites.
    Unsat(Vec<usize>),
    /// SAT: the solver's model is a domain answer.
    Sat,
    /// A budget or deadline truncated the query.
    Unknown,
}

/// One obligation's step of a counterexample: the frame-0 inputs of the
/// SAT answer it was lifted under, and the obligation its states step into
/// under them (`None` for the frontier's bad cube, whose states reach
/// `bad`).
struct Link {
    inputs: Vec<bool>,
    next: Option<usize>,
}

/// One property's IC3 instance: session solver, frames, per-level rank
/// tables, and the query machinery.
struct PropRunner<'a> {
    model: &'a Model,
    unroller: Unroller<'a>,
    solver: Solver,
    bad: Signal,
    latches: Vec<NodeId>,
    inputs: Vec<NodeId>,
    inits: Vec<LatchInit>,
    /// Next-state signal per latch position: a predecessor's lifting targets.
    nexts: Vec<Signal>,
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
    /// The run's proof summary, which books each UNSAT query the session
    /// solver's log certifies under [`ProofMode::Check`](crate::ProofMode).
    proof: &'a mut ProofSummary,
    /// The run's lifting tables, which mark every query's cone and shrink
    /// every obligation cube.
    lifter: &'a mut Lifter,
    /// The current query's decision domain (solver variables).
    domain: Vec<Var>,
    /// The latch positions whose frame-0 variables are in the domain.
    domain_latches: Vec<usize>,
    /// Solver clauses added by set-up (transition relation and `I`); every
    /// later one is a lemma, a query's `¬s`, or a selector unit.
    #[cfg(feature = "debug-invariants")]
    setup_clauses: usize,
}

impl<'a> PropRunner<'a> {
    fn new(
        model: &'a Model,
        bad: Signal,
        options: &'a BmcOptions,
        proof: &'a mut ProofSummary,
        lifter: &'a mut Lifter,
    ) -> PropRunner<'a> {
        let unroller = Unroller::new(model);
        let num_nodes = model.netlist().num_nodes();
        let latches = model.netlist().latches();
        let num_latches = latches.len();
        let mut latch_pos = vec![None; num_nodes];
        let mut inits = Vec::with_capacity(latches.len());
        let mut nexts = Vec::with_capacity(latches.len());
        for (pos, &id) in latches.iter().enumerate() {
            latch_pos[id.index()] = Some(pos);
            if let Node::Latch { init, next } = model.netlist().node(id) {
                inits.push(init);
                nexts.push(next.expect("a built problem connects every latch"));
            }
        }
        // Same solver configuration as BMC's strategy mapping, except the
        // CDG is normally not recorded: IC3's cores come from failed
        // assumptions, which the session machinery tracks for free. Proof
        // logging re-enables it — the LRAT hints are CDG antecedents — and
        // so does `force_record_cdg`, for the recording-overhead A/B.
        let mut solver_opts = strategy_solver_options(options);
        solver_opts.record_cdg = options.force_record_cdg || options.proof.is_on();
        let mut solver = options.proof.solver(solver_opts);
        load_step_relation(&unroller, &mut solver);

        let mut runner = PropRunner {
            model,
            unroller,
            solver,
            bad,
            latches,
            inputs: model.netlist().inputs(),
            inits,
            nexts,
            latch_pos,
            num_nodes,
            ordered: options.strategy.needs_cores(),
            next_var: 2 * num_nodes,
            act_init: Lit::new(Var::new(0), false), // placeholder
            level_acts: Vec::new(),
            frames: Frames::new(num_latches),
            ranks: Vec::new(),
            limits: depth_limits(options),
            options,
            seq: 0,
            episodes: 0,
            assumption_conflicts: 0,
            frontier_core_positions: Vec::new(),
            proof,
            lifter,
            domain: Vec::new(),
            domain_latches: Vec::new(),
            #[cfg(feature = "debug-invariants")]
            setup_clauses: 0,
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
        #[cfg(feature = "debug-invariants")]
        {
            runner.setup_clauses = runner.solver.num_original_clauses();
        }
        runner
    }

    fn alloc_lit(&mut self) -> Lit {
        let var = Var::new(self.next_var);
        self.next_var += 1;
        var.positive()
    }

    /// The variable of the latch at `pos` at `frame`.
    fn latch_var(&self, pos: usize, frame: usize) -> Var {
        self.unroller.var_of(self.latches[pos], frame)
    }

    /// The literal "latch at `pos` has value `value`" at `frame`.
    fn latch_lit(&self, pos: usize, value: bool, frame: usize) -> Lit {
        let var = self.latch_var(pos, frame);
        if value {
            var.positive()
        } else {
            var.negative()
        }
    }

    /// A query's targets for `cube`: the next-state signal of each of its
    /// latches, paired with the latch's value in the cube.
    fn next_targets(&self, cube: &Cube) -> Vec<(Signal, bool)> {
        cube.iter()
            .map(|&(pos, value)| (self.nexts[pos], value))
            .collect()
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
    fn primed_lits(&self, cube: &[(usize, bool)], m: usize) -> Vec<Lit> {
        let mut entries: Vec<(u64, usize, bool)> = cube
            .iter()
            .map(|&(pos, value)| {
                let score = if self.ordered {
                    self.ranks[m].score(self.latch_var(pos, 0))
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
            self.solver.set_var_ranking(self.ranks[m].scores());
        }
    }

    /// Gives the next query, one against `F_m`, its solver domain: the
    /// frame-0 fan-in cone of the `targets` (marked in the lifter, which
    /// lifts a SAT answer over the same cone), the frame-1 latches of
    /// `cube`, the frame-0 latches of `¬cube` for a blocking query
    /// (`negated`), and the latches of every lemma of `F_m` connected to
    /// those through lemmas of `F_m`.
    ///
    /// Every other clause holds once a domain assignment is completed with
    /// the inputs outside it at 0, the latches outside it at their reset
    /// value (`Free` at 0), the gates and frame-1 latches at their
    /// evaluation, and the activation literals not assumed at false: the
    /// lemmas outside the closure see only reset values, and no lemma
    /// excludes an initial state (generalization's init repair), so a SAT
    /// answer restricted to the domain is a SAT answer. Its lift reads only
    /// the cone.
    fn set_domain(
        &mut self,
        m: usize,
        targets: &[(Signal, bool)],
        cube: &[(usize, bool)],
        negated: bool,
    ) {
        let netlist = self.model.netlist();
        let cone = self
            .lifter
            .mark_cone(netlist, targets.iter().map(|&(signal, _)| signal));
        self.domain.clear();
        self.domain_latches.clear();
        for &node in cone {
            self.domain.push(self.unroller.var_of(node, 0));
            if let Some(pos) = self.latch_pos[node.index()] {
                self.domain_latches.push(pos);
            }
        }
        for &(pos, _) in cube {
            self.domain.push(self.latch_var(pos, 1));
            if negated {
                self.domain.push(self.latch_var(pos, 0));
                self.domain_latches.push(pos);
            }
        }
        let seeded = self.domain_latches.len();
        self.frames.connect(&mut self.domain_latches, m.max(1));
        for &pos in &self.domain_latches[seeded..] {
            self.domain.push(self.latch_var(pos, 0));
        }
        self.solver.set_domain(&self.domain);
    }

    /// `debug-invariants` check of a SAT answer to a query against `F_m`
    /// under [`Self::set_domain`]: completes the answer's domain part
    /// (inputs outside at 0, latches outside at their reset value, gates by
    /// simulation) and checks that the completed frame agrees with the
    /// answer on the domain, satisfies every lemma of `F_m`, the query's
    /// `¬s` (`negated`) and, for `F_0`, `I`, and gives every target its
    /// value.
    #[cfg(feature = "debug-invariants")]
    fn check_domain_answer(
        &self,
        m: usize,
        targets: &[(Signal, bool)],
        negated: Option<&[(usize, bool)]>,
    ) -> Result<(), String> {
        let netlist = self.model.netlist();
        let answer = &self.solver.model().expect("model after SAT")[..self.num_nodes];
        let mut inside = vec![false; self.num_nodes];
        for var in self.domain.iter().filter(|v| v.index() < self.num_nodes) {
            inside[var.index()] = true;
        }
        let state: Vec<bool> = (self.latches.iter().zip(&self.inits))
            .map(|(&id, &init)| {
                if inside[id.index()] {
                    answer[id.index()]
                } else {
                    init == LatchInit::One
                }
            })
            .collect();
        let inputs: Vec<bool> = (netlist.inputs().iter())
            .map(|&id| inside[id.index()] && answer[id.index()])
            .collect();
        let values = rbmc_circuit::sim::eval_frame(netlist, &state, &inputs);
        if let Some(id) = (netlist.node_ids())
            .find(|&id| inside[id.index()] && values[id.index()] != answer[id.index()])
        {
            return Err(format!(
                "the completion disagrees with the answer at {id:?}"
            ));
        }
        let within = |cube: &[(usize, bool)]| cube.iter().all(|&(pos, value)| state[pos] == value);
        if let Some(lemma) = self.frames.cubes_from(m.max(1)).find(|c| within(c)) {
            return Err(format!(
                "the completed state lies in the lemma cube {lemma:?}"
            ));
        }
        if negated.is_some_and(within) {
            return Err("the completed state lies in the query's own cube".to_string());
        }
        let full: Cube = state.iter().copied().enumerate().collect();
        if m == 0 && generalize::excludes_init(&full, &self.inits) {
            return Err("the completed state of an F_0 query is not initial".to_string());
        }
        match targets
            .iter()
            .find(|&&(signal, value)| rbmc_circuit::sim::read_signal(&values, signal) != value)
        {
            Some(target) => Err(format!("the completion misses the target {target:?}")),
            None => Ok(()),
        }
    }

    /// Asks whether `F_m ∧ T ∧ gate ∧ cube'` is satisfiable — every IC3
    /// query in one form: the frontier's (`gate` is `bad`, no cube), a
    /// blocking query's (`gate` selects the clause `¬cube`, so `negated`)
    /// and a push query's (no gate). The assumptions are `F_m`'s activation
    /// literals, then `gate`, then the primed cube in core order; the solver
    /// decides under frame `m`'s ranking inside [`Self::set_domain`]'s
    /// domain for `targets`. Every UNSAT answer the algorithm acts on is
    /// certified under proof checking and its core recorded for frame `m`.
    fn query(
        &mut self,
        m: usize,
        gate: Option<Lit>,
        cube: &[(usize, bool)],
        negated: bool,
        targets: &[(Signal, bool)],
    ) -> Answer {
        let mut assumptions = self.frame_assumptions(m);
        assumptions.extend(gate);
        assumptions.extend(self.primed_lits(cube, m));
        self.install_ranking(m);
        self.set_domain(m, targets, cube, negated);
        self.episodes += 1;
        match self.solver.solve_under_limited(&assumptions, &self.limits) {
            SolveResult::Unsat => {
                if self.options.proof.checks() {
                    self.proof.check_episode(&mut self.solver);
                }
                self.assumption_conflicts += 1;
                let core = self.core_positions();
                self.record_core(m, &core);
                Answer::Unsat(core)
            }
            SolveResult::Sat => {
                #[cfg(feature = "debug-invariants")]
                self.check_domain_answer(m, targets, negated.then_some(cube))
                    .expect("a query's domain answer completes");
                Answer::Sat
            }
            SolveResult::Unknown => Answer::Unknown,
        }
    }

    /// The obligation of the solver's SAT answer: its register cube lifted
    /// by ternary simulation, under the answer's frame-0 inputs, to the
    /// latches that keep each target signal at its paired value, and the
    /// index of the link `chain` gains for it — those inputs, and `next`,
    /// the obligation its states step into.
    fn obligation(
        &mut self,
        targets: &[(Signal, bool)],
        next: Option<usize>,
        chain: &mut Vec<Link>,
    ) -> (Cube, usize) {
        let frame0 = &self.solver.model().expect("model after SAT")[..self.num_nodes];
        let full: Cube = (self.latches.iter().enumerate())
            .map(|(pos, &id)| (pos, frame0[id.index()]))
            .collect();
        let netlist = self.model.netlist();
        let cube = self
            .lifter
            .lift(netlist, &self.latches, frame0, full, targets);
        // `debug-invariants` builds: the event-driven lift against a
        // full ternary re-evaluation with the dropped latches at X.
        #[cfg(feature = "debug-invariants")]
        lift::check_lift(netlist, &self.latches, frame0, &cube, targets)
            .expect("a lifted cube reaches its targets");
        // An input outside the query's domain reads 0, and none of those
        // is in the targets' cone.
        let inputs = self.inputs.iter().map(|&id| frame0[id.index()]).collect();
        chain.push(Link { inputs, next });
        (cube, chain.len() - 1)
    }

    /// The counterexample the chain spells from `link`, a level-0
    /// obligation with `cube`: the cube's latches at their values and
    /// every other latch at its reset value (`Free` as 0), then each link's
    /// inputs in chain order. The answer's own values outside the cube are
    /// no witness: outside a query's domain they read 0.
    fn chain_trace(&self, cube: &Cube, link: usize, chain: &mut [Link]) -> Trace {
        let mut state: Vec<bool> = self.inits.iter().map(|&init| init_value(init)).collect();
        for &(pos, value) in cube {
            state[pos] = value;
        }
        let mut inputs = Vec::new();
        let mut at = Some(link);
        while let Some(i) = at {
            inputs.push(std::mem::take(&mut chain[i].inputs));
            at = chain[i].next;
        }
        let trace = Trace::from_parts(state, inputs);
        #[cfg(any(debug_assertions, feature = "debug-invariants"))]
        assert_eq!(
            trace.validate_against(self.model.netlist(), self.bad),
            Ok(()),
            "an obligation chain spells an invalid counterexample"
        );
        trace
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
                .map(|&pos| self.latch_var(pos, 0))
                .collect();
            self.ranks[m].update(&vars, m + 1);
        }
    }

    /// Adds the clause `¬gate ∨ ¬cube` over unprimed latches and returns its
    /// solver ID: a lemma when `gate` is a level's activation literal, a
    /// blocking query's `¬s` when it is the query's selector.
    fn add_gated_negation(&mut self, gate: Lit, cube: &Cube) -> usize {
        let mut clause = Vec::with_capacity(cube.len() + 1);
        clause.push(!gate);
        for &(pos, value) in cube {
            clause.push(self.latch_lit(pos, !value, 0));
        }
        self.solver.add_clause(&clause)
    }

    /// Blocks `cube` at `level`: the clause `¬cube` is added under the
    /// level's activation literal, and the clauses of the stored cubes it
    /// subsumes are removed.
    fn add_blocked(&mut self, level: usize, cube: Cube) {
        let clause = self.add_gated_negation(self.act_of(level), &cube);
        for dropped in self.frames.add(level, cube, clause) {
            self.solver.remove_clause(dropped);
        }
    }

    /// Discharges the obligation queue seeded with the bad cube of the
    /// frontier query's SAT answer (its `targets`): relative-induction
    /// queries, core generalization, predecessor extraction — the heart of
    /// IC3. Each queued obligation carries its link in the campaign's
    /// chain.
    fn block_state(&mut self, k: usize, targets: &[(Signal, bool)]) -> BlockResult {
        let mut chain = Vec::new();
        let (s0, link0) = self.obligation(targets, None, &mut chain);
        let mut queue: BinaryHeap<Reverse<(usize, u64, Cube, usize)>> = BinaryHeap::new();
        self.seq += 1;
        queue.push(Reverse((k, self.seq, s0, link0)));
        while let Some(Reverse((j, _, s, link))) = queue.pop() {
            if j == 0 {
                // The chain reached an initial state: counterexample of
                // exactly k transitions (shorter ones were excluded when
                // earlier frontiers passed).
                return BlockResult::Cex(self.chain_trace(&s, link, &mut chain));
            }
            // Every state of `s` reaches `bad` in `k - j` steps, and no
            // counterexample is shorter than `k`: so `s` excludes `I`, which
            // generalization's init repair relies on.
            #[cfg(feature = "debug-invariants")]
            assert!(
                generalize::excludes_init(&s, &self.inits),
                "the level-{j} obligation {s:?} meets the initial states"
            );
            if self.frames.is_blocked(&s, j) {
                continue;
            }
            // F_{j-1} ∧ ¬s ∧ T ∧ s': ¬s under a one-shot selector, s'
            // assumed literal by literal (core-ordered), frame acts first.
            // A SAT answer is lifted to the states that step into `s` under
            // its inputs.
            let targets = self.next_targets(&s);
            let selector = self.alloc_lit();
            let query = self.add_gated_negation(selector, &s);
            let answer = self.query(j - 1, Some(selector), &s, true, &targets);
            // Answered: the `¬selector` unit retires the selector for good
            // (it is never decided again) and satisfies `¬s` at the root,
            // so BCP need not visit that clause any more. The answer's
            // model stays readable.
            self.solver.add_clause(&[!selector]);
            self.solver.remove_clause(query);
            match answer {
                Answer::Unsat(core) => {
                    let cube = generalize_from_core(&s, &core, &self.inits);
                    self.add_blocked(j, cube);
                }
                Answer::Sat => {
                    let (predecessor, step) = self.obligation(&targets, Some(link), &mut chain);
                    self.seq += 1;
                    queue.push(Reverse((j - 1, self.seq, predecessor, step)));
                    self.seq += 1;
                    queue.push(Reverse((j, self.seq, s, link)));
                }
                Answer::Unknown => return BlockResult::ResourceOut,
            }
        }
        BlockResult::Blocked
    }

    /// The push phase after frontier `k` passed: every cube at levels
    /// `1..k` that is inductive relative to its own frame moves up one
    /// level. Its level-`j` clause is removed, since the level-`j + 1` copy
    /// is active wherever it is. Returns `false` on a truncated query.
    fn push_phase(&mut self, k: usize) -> bool {
        for j in 1..k {
            let cubes: Vec<Cube> = self.frames.cubes_at(j).cloned().collect();
            for cube in cubes {
                if !self.frames.cubes_at(j).any(|c| *c == cube) {
                    continue; // subsumed away earlier in this phase
                }
                let targets = self.next_targets(&cube);
                match self.query(j, None, &cube, false, &targets) {
                    Answer::Unsat(_) => {
                        let clause = self.add_gated_negation(self.act_of(j + 1), &cube);
                        let superseded = self
                            .frames
                            .push_up(j, &cube, clause)
                            .expect("the cube was at level j when its query was asked");
                        for id in superseded {
                            self.solver.remove_clause(id);
                        }
                    }
                    Answer::Sat => {}
                    Answer::Unknown => return false,
                }
            }
        }
        true
    }

    /// `debug-invariants` audit: the solver watches exactly the clauses IC3
    /// still needs. Every stored cube's clause is attached, and of the
    /// clauses added after set-up only those and one `¬selector` unit per
    /// blocking query are — so every query's `¬s` clause and every
    /// superseded lemma copy has been removed.
    #[cfg(feature = "debug-invariants")]
    fn audit_clauses(&self) -> Result<(), String> {
        let stored: Vec<usize> = self.frames.clause_ids().collect();
        if let Some(id) = stored.iter().find(|&&id| self.solver.is_removed(id)) {
            return Err(format!("clause {id} of a stored cube is removed"));
        }
        let attached = (self.setup_clauses..self.solver.num_original_clauses())
            .filter(|&id| !self.solver.is_removed(id))
            .count();
        // Every variable allocated after `act_init` is a level's
        // activation literal or a blocking query's selector.
        let selectors = self.next_var - self.act_init.var().index() - 1 - self.level_acts.len();
        if attached != stored.len() + selectors {
            return Err(format!(
                "{attached} clauses added after set-up are attached, want {} stored cubes \
                 plus {selectors} selector units",
                stored.len()
            ));
        }
        Ok(())
    }

    /// The main IC3 loop for one property. Returns the per-property report
    /// and per-frontier statistics (BMC `DepthStats` shape).
    fn run(&mut self, name: String) -> (PropertyReport, Vec<DepthStats>) {
        let mut depth_results: Vec<SolveResult> = Vec::new();
        let mut per_frontier: Vec<DepthStats> = Vec::new();
        let mut completed: Option<usize> = None;
        let mut verdict: Option<PropertyVerdict> = None;

        for k in 0..=self.options.max_depth {
            self.ensure_frontier(k);
            self.frontier_core_positions.clear();
            let frontier_start = Instant::now();
            let base = self.solver.stats().clone();
            // SAT?[F_k ∧ bad]: a frontier state reaching bad under some
            // input — inputs are free in the frame-0 logic. Asked again
            // after every campaign that blocks its answer.
            let targets = [(self.bad, true)];
            let bad = self.unroller.lit_of(self.bad, 0);
            let mut frontier_result = loop {
                match self.query(k, Some(bad), &[], false, &targets) {
                    Answer::Unsat(_) => break SolveResult::Unsat,
                    Answer::Sat => match self.block_state(k, &targets) {
                        BlockResult::Blocked => {}
                        BlockResult::Cex(trace) => {
                            verdict = Some(PropertyVerdict::Falsified { depth: k, trace });
                            break SolveResult::Sat;
                        }
                        BlockResult::ResourceOut => break SolveResult::Unknown,
                    },
                    Answer::Unknown => break SolveResult::Unknown,
                }
            };

            // Frontier k passed: propagate and check for a fixpoint.
            if frontier_result == SolveResult::Unsat {
                completed = Some(k);
                let invariant = if self.latches.is_empty() {
                    // No registers and bad unsatisfiable: proved outright
                    // with the trivial invariant.
                    Some(Vec::new())
                } else if !self.push_phase(k) {
                    frontier_result = SolveResult::Unknown;
                    None
                } else {
                    (1..k)
                        .find(|&j| self.frames.cubes_at(j).len() == 0)
                        .map(|fix| invariant_clauses_from(self.frames.cubes_from(fix + 1)))
                };
                verdict = invariant.map(|clauses| PropertyVerdict::Proved {
                    depth: k,
                    invariant_clauses: Some(clauses),
                });
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
            // Frontier boundary, `debug-invariants` builds: full structural
            // audit of the session solver (watches, trail, arena, CDG,
            // decision heap, proof log), and of which clauses IC3 left
            // attached.
            #[cfg(feature = "debug-invariants")]
            {
                self.solver
                    .audit()
                    .expect("solver invariants at frontier boundary");
                self.audit_clauses()
                    .expect("IC3 clause removal at frontier boundary");
            }
            if verdict.is_some() || frontier_result == SolveResult::Unknown {
                break;
            }
        }

        // Open at the last frontier that passed: the bound, or the one
        // before a truncated query.
        let verdict = verdict.unwrap_or(match completed {
            Some(depth) => PropertyVerdict::OpenAt { depth },
            None => PropertyVerdict::Unknown,
        });
        let stats = self.solver.stats();
        let report = PropertyReport {
            name,
            verdict,
            episodes: self.episodes,
            assumption_conflicts: self.assumption_conflicts,
            decisions: stats.decisions,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
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

    /// The netlist of a counter that resets to 0 upon reaching `reset_at`
    /// (values above `reset_at` are unreachable), and its bits.
    fn reset_counter_netlist(width: usize, reset_at: u64) -> (Netlist, Vec<Signal>) {
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
        (n, bits)
    }

    /// The resetting counter with the property "never equals `target`".
    fn reset_counter(width: usize, reset_at: u64, target: u64) -> Model {
        let (mut n, bits) = reset_counter_netlist(width, reset_at);
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
            let run = engine.run_collecting();
            match &run.properties[0].verdict {
                PropertyVerdict::Falsified { depth, trace } => {
                    assert_eq!(*depth, 11, "{strategy:?}");
                    assert!(trace.validate(engine.model()).is_ok(), "{strategy:?}");
                }
                other => panic!("{strategy:?}: expected cex, got {other}"),
            }
        }
    }

    #[test]
    fn chain_traces_set_latches_outside_every_query_to_reset() {
        // A 2-bit counter that counts while the input `en` is 1 reaches 3 at
        // depth 3, under `en` = 1, 1, 1. The `One`-reset latch `on` feeds no
        // query, and the solver's answers read 0 outside a query's domain:
        // only its reset value makes the trace initial.
        let mut n = Netlist::new();
        let en = n.add_input("en");
        let bits: Vec<Signal> = (0..2)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let inc = n.bus_increment(&bits);
        for (&b, &up) in bits.iter().zip(&inc) {
            let next = n.mux(en, up, b);
            n.set_next(b, next);
        }
        let on = n.add_latch("on", LatchInit::One);
        n.set_next(on, on);
        let bad = n.bus_eq_const(&bits, 3);
        let model = Model::new("enabled_counter", n, bad);
        for strategy in strategies() {
            let options = BmcOptions {
                max_depth: 10,
                strategy,
                preprocess: false,
                ..BmcOptions::default()
            };
            let run = Ic3Engine::new(model.clone(), options).run_collecting();
            let PropertyVerdict::Falsified { depth: 3, trace } = &run.properties[0].verdict else {
                panic!("{strategy:?}: expected a depth-3 cex");
            };
            assert_eq!(trace.initial_state(), [false, false, true], "{strategy:?}");
            assert_eq!(
                trace.validate_against(model.netlist(), bad),
                Ok(()),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn latch_free_models_falsify_at_the_bmc_depth() {
        let mut n = Netlist::new();
        let i = n.add_input("i");
        let model = Model::new("input", n, i);
        let options = BmcOptions {
            max_depth: 5,
            preprocess: false,
            ..BmcOptions::default()
        };
        let bmc = crate::BmcEngine::new(model.clone(), options).run_collecting();
        assert!(matches!(
            bmc.properties[0].verdict,
            PropertyVerdict::Falsified { depth: 0, .. }
        ));
        let run = Ic3Engine::new(model.clone(), options).run_collecting();
        let PropertyVerdict::Falsified { depth: 0, trace } = &run.properties[0].verdict else {
            panic!("expected a depth-0 cex");
        };
        assert_eq!(trace.inputs(), [vec![true]]);
        assert_eq!(trace.validate(&model), Ok(()));
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
                    // The invariant is in the working model's coordinates.
                    let working = engine.working_model();
                    let bad = working.bad();
                    assert_eq!(check_invariant(working, bad, clauses), Ok(()));
                    assert!(*depth <= 30);
                }
                other => panic!("{strategy:?}: expected proof, got {other}"),
            }
        }
    }

    #[test]
    fn ordered_runs_report_their_rank_tables_peak() {
        // Blocking queries on the resetting counter yield cores. The ordered
        // strategies record them in per-frame rank tables; the unordered
        // baseline keeps its tables empty.
        let peak = |strategy| {
            let mut engine = Ic3Engine::new(
                reset_counter(4, 10, 13),
                BmcOptions {
                    max_depth: 30,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let run = engine.run_collecting();
            assert!(
                run.per_depth.iter().any(|d| d.core_vars > 0),
                "{strategy:?}: no query yielded a core"
            );
            run.solver_stats.rank_peak_entries
        };
        assert!(peak(OrderingStrategy::RefinedDynamic { divisor: 64 }) > 0);
        assert_eq!(peak(OrderingStrategy::Standard), 0);
    }

    #[test]
    fn forced_cdg_recording_changes_no_decision() {
        // One falsifying and one proving model: recording the CDG on
        // request costs nodes, and nothing else.
        for model in [counter_model(4, 11), reset_counter(4, 10, 13)] {
            let run = |force_record_cdg| {
                let mut engine = Ic3Engine::new(
                    model.clone(),
                    BmcOptions {
                        max_depth: 30,
                        strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
                        force_record_cdg,
                        ..BmcOptions::default()
                    },
                );
                engine.run_collecting()
            };
            let (plain, forced) = (run(false), run(true));
            assert_eq!(
                plain.properties[0].verdict.to_string(),
                forced.properties[0].verdict.to_string()
            );
            let counts = |run: &BmcRun| (run.solver_stats.decisions, run.solver_stats.conflicts);
            assert_eq!(counts(&plain), counts(&forced));
            assert!(plain.solver_stats.conflicts > 0);
            assert_eq!(plain.solver_stats.cdg_peak_nodes, 0);
            assert!(forced.solver_stats.cdg_peak_nodes > 0);
        }
    }

    #[test]
    fn rank_peak_is_the_largest_single_property_total() {
        // One runner per property, one after another: the run's peak is the
        // larger of the two runners' totals, not their sum. Without
        // preprocessing each runner sees the same netlist it would alone.
        let (mut n, bits) = reset_counter_netlist(4, 10);
        let bads = [n.bus_eq_const(&bits, 12), n.bus_eq_const(&bits, 13)];
        let peak = |props: &[usize]| {
            let mut builder = ProblemBuilder::new("pair", n.clone());
            for &p in props {
                builder = builder.property(&format!("p{p}"), bads[p]);
            }
            let mut engine = Ic3Engine::for_problem(
                builder.build(),
                BmcOptions {
                    max_depth: 30,
                    strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
                    preprocess: false,
                    ..BmcOptions::default()
                },
            );
            engine.run_collecting().solver_stats.rank_peak_entries
        };
        let (first, second) = (peak(&[0]), peak(&[1]));
        assert!(first > 0 && second > 0, "{first}, {second}");
        assert_eq!(peak(&[0, 1]), first.max(second));
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
        let (mut n, bits) = reset_counter_netlist(4, 10);
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
        match &run.property("reach_13").unwrap().verdict {
            PropertyVerdict::Proved {
                invariant_clauses: Some(clauses),
                ..
            } => {
                let working = engine.working_model();
                let bad = working.problem().property(1).bad();
                assert_eq!(check_invariant(working, bad, clauses), Ok(()));
            }
            other => panic!("reach_13: expected proof, got {other}"),
        }
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
        assert_eq!(run.per_depth.len(), 1);
        assert_eq!(run.per_depth[0].result, SolveResult::Unknown);
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
        match &engine.run_collecting().properties[0].verdict {
            PropertyVerdict::Falsified { depth, trace } => {
                assert_eq!(*depth, 5);
                assert!(trace.validate(engine.model()).is_ok());
            }
            other => panic!("expected cex, got {other}"),
        }
    }
}
