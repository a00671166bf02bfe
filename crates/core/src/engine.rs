//! `refine_order_bmc` — the main loop of the paper's Fig. 5, generalized to
//! property sets.
//!
//! ```text
//! refine_order_bmc(M, P) {
//!     initialize varRank;
//!     for each k {
//!         F = gen_cnf_formula(M, P, k);
//!         (isSat, unsatVars) = sat_check(F, varRank);
//!         if (isSat) return FALSE;              // counterexample found
//!         else update_ranking(unsatVars, varRank);
//!     }
//!     return TRUE;                              // bound reached
//! }
//! ```
//!
//! By default the engine runs the loop as one **incremental solving
//! session** ([`SolverReuse::Session`]): a single persistent [`Solver`]
//! serves every depth. Each depth appends only the new frame's clauses
//! (via [`Unroller::with_frame_delta`]) and then solves **every still-open
//! property** under its own *activation literal*: for property `p` at depth
//! `k` the clause `a_{p,k} → bad_p^k` is added permanently, `a_{p,k}` is
//! assumed for that property's episode, and a `¬a_{p,k}` unit retires it
//! afterwards. All properties of a [`VerificationProblem`] share the one
//! unrolled transition relation, the solver's learned clauses, and the
//! `varRank` table — which each depth refreshes from the **union** of the
//! open properties' UNSAT cores ([`Solver::set_var_ranking`] between
//! episodes). Properties retire individually: a SAT episode yields a
//! validated [`Trace`] and removes the property from the sweep while the
//! rest continue to the depth bound. The paper's original regime — a fresh
//! solver per property per depth, loading the whole prefix and discarding
//! everything after the verdict — is preserved as [`SolverReuse::Fresh`]
//! for differential testing and overhead measurements (the method is
//! orthogonal to incremental SAT, so both regimes reach identical
//! verdicts).

use std::fmt;
use std::time::{Duration, Instant};

use rbmc_circuit::Signal;
use rbmc_solver::{Limits, OrderMode, SolveResult, Solver, SolverOptions, SolverStats};

use crate::certify::{self, EpisodeCertifier};
use crate::preprocess::preprocess_problem;
use crate::{
    shtrichman_rank, Model, Trace, TraceLift, Unroller, VarRank, VerificationProblem, Weighting,
};
use rbmc_circuit::preprocess::PreprocessReport;

/// Which decision-ordering scheme `sat_check` uses (§3.3 plus baselines).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum OrderingStrategy {
    /// Plain Chaff: pure VSIDS, no core bookkeeping. The paper's baseline
    /// ("BMC" column of Table 1).
    #[default]
    Standard,
    /// Refined ordering, static configuration: `bmc_score` primary for the
    /// whole solve ("new bmc, sta." column).
    RefinedStatic,
    /// Refined ordering, dynamic configuration: falls back to VSIDS once
    /// `#decisions > #original_literals / divisor` ("new bmc, dyn." column;
    /// the paper uses 64).
    RefinedDynamic {
        /// Denominator of the switch threshold.
        divisor: u32,
    },
    /// Shtrichman's time-axis static ordering (related work; for the
    /// register-axis vs time-axis ablation).
    Shtrichman,
}

impl OrderingStrategy {
    /// Whether this strategy needs unsat cores (and hence CDG recording).
    pub fn needs_cores(self) -> bool {
        matches!(
            self,
            OrderingStrategy::RefinedStatic | OrderingStrategy::RefinedDynamic { .. }
        )
    }

    /// Short name used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            OrderingStrategy::Standard => "bmc",
            OrderingStrategy::RefinedStatic => "sta",
            OrderingStrategy::RefinedDynamic { .. } => "dyn",
            OrderingStrategy::Shtrichman => "sht",
        }
    }
}

/// How [`BmcEngine`] provisions SAT solvers across depths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SolverReuse {
    /// One persistent solver for the whole run: frames are appended
    /// incrementally, bad states are asserted via assumed per-property
    /// activation literals, and learned clauses survive between depths and
    /// between properties.
    #[default]
    Session,
    /// A fresh solver per property per depth, loading the full clause prefix
    /// and the bad-state unit — the paper's original (seed-identical) regime,
    /// kept for differential testing against the session path.
    Fresh,
}

impl SolverReuse {
    /// Short name used in benchmark tables and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            SolverReuse::Session => "session",
            SolverReuse::Fresh => "fresh",
        }
    }
}

/// Configuration of a [`BmcEngine`] run.
#[derive(Clone, Copy, Debug)]
pub struct BmcOptions {
    /// Highest unrolling depth to try (the completeness-threshold stand-in).
    pub max_depth: usize,
    /// Decision-ordering scheme.
    pub strategy: OrderingStrategy,
    /// Solver provisioning across depths (persistent session vs fresh per
    /// depth).
    pub reuse: SolverReuse,
    /// How past cores are weighted (§3.2; ablation knob).
    pub weighting: Weighting,
    /// Base solver configuration. `order_mode` and `record_cdg` are
    /// overridden per [`BmcOptions::strategy`]; the rest (restarts, clause
    /// deletion, halving interval) applies as given.
    pub solver: SolverOptions,
    /// Optional conflict budget per depth (deterministic timeout stand-in).
    /// With several open properties, the budget applies to each property's
    /// episode at that depth.
    pub max_conflicts_per_depth: Option<u64>,
    /// Optional wall-clock deadline for the whole run.
    pub deadline: Option<Instant>,
    /// Also record cores under [`OrderingStrategy::Standard`] (for the CDG
    /// overhead measurements of §3.1; off by default to keep the baseline
    /// honest).
    pub force_record_cdg: bool,
    /// Structurally preprocess the problem before solving (on by default):
    /// constant sweeping, structural hashing, and restriction to the union
    /// of the properties' cones of influence
    /// ([`preprocess_problem`](crate::preprocess_problem)). Verdicts,
    /// retirement depths, and (lifted) traces are identical to the raw
    /// engine's; every removed node shrinks every frame of the unrolling.
    /// Turn off for differential testing against the raw encoding.
    pub preprocess: bool,
    /// Prune the session solver's conflict dependency graph at each depth
    /// boundary ([`Solver::prune_cdg`]), bounding the CDG's growth over a
    /// deep sweep. On by default; the ablation tests turn it off to measure
    /// the unpruned growth. Fresh-per-depth solvers discard their CDG with
    /// the solver and never prune.
    pub cdg_prune: bool,
    /// Clause-level proof logging of every provisioned solver, and — under
    /// [`ProofMode::Check`](crate::ProofMode) — independent re-derivation of
    /// every UNSAT episode's certificate. Forces `record_cdg` (the proof
    /// hints come from the conflict dependency graph). Results land in
    /// [`BmcRun::proof`].
    pub proof: crate::ProofMode,
}

impl Default for BmcOptions {
    fn default() -> BmcOptions {
        BmcOptions {
            max_depth: 20,
            strategy: OrderingStrategy::Standard,
            reuse: SolverReuse::Session,
            weighting: Weighting::Linear,
            solver: SolverOptions::default(),
            max_conflicts_per_depth: None,
            deadline: None,
            force_record_cdg: false,
            preprocess: true,
            cdg_prune: true,
            proof: crate::ProofMode::Off,
        }
    }
}

/// Statistics of one depth's `sat_check` (the per-`k` data behind Fig. 7).
/// With several open properties, counters aggregate over every episode the
/// depth ran (one per open property).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepthStats {
    /// The unrolling depth `k`.
    pub depth: usize,
    /// Verdict at this depth: `Sat` if any property's episode was SAT,
    /// `Unknown` if a budget ran out, `Unsat` otherwise.
    pub result: SolveResult,
    /// Number of decisions (Fig. 7 left).
    pub decisions: u64,
    /// Number of implications/propagations (Fig. 7 right).
    pub implications: u64,
    /// Number of conflicts.
    pub conflicts: u64,
    /// CNF size: variables.
    pub num_vars: usize,
    /// CNF size: clauses.
    pub num_clauses: usize,
    /// Variables in the union of this depth's unsatisfiable cores (0 if SAT
    /// or untracked).
    pub core_vars: usize,
    /// Whether the dynamic configuration fell back to VSIDS at this depth.
    pub switched_to_vsids: bool,
    /// Nodes recorded in the simplified CDG (0 when recording is off).
    pub cdg_nodes: u64,
    /// Antecedent edges recorded in the simplified CDG.
    pub cdg_edges: u64,
    /// Wall-clock time of this depth's solve episodes.
    pub time: Duration,
}

/// The per-property verdict of a BMC run.
#[derive(Clone, Debug)]
pub enum PropertyVerdict {
    /// The property fails: a validated counterexample of length `depth`.
    Falsified {
        /// Length of the counterexample (bad state at this frame).
        depth: usize,
        /// The counterexample itself, validated against this property's
        /// bad-state signal.
        trace: Trace,
    },
    /// Still open: no counterexample of length `≤ depth` exists.
    OpenAt {
        /// The deepest depth this property was proven UNSAT at.
        depth: usize,
    },
    /// The property holds in **all** reachable states — an unbounded proof,
    /// not merely a bound. Produced by [`Ic3Engine`](crate::Ic3Engine);
    /// plain BMC never returns it.
    Proved {
        /// The frame depth at which the proof converged.
        depth: usize,
        /// The inductive invariant certifying the proof, as clauses over the
        /// **working model's** latches: each inner vector is a disjunction of
        /// "latch `i` has value `b`" literals, and the conjunction of all
        /// clauses contains the initial states, is closed under the
        /// transition relation, and excludes every bad state. IC3 always
        /// supplies one; `Some(vec![])` is the trivial invariant *true* (the
        /// bad state is combinationally unsatisfiable).
        invariant_clauses: Option<Vec<Vec<(usize, bool)>>>,
    },
    /// No depth completed for this property (a resource budget ran out
    /// before its first verdict).
    Unknown,
}

impl PropertyVerdict {
    /// Whether this verdict is conclusive for the *unbounded* question — a
    /// counterexample or a proof, as opposed to a bounded or truncated
    /// answer.
    pub fn is_conclusive(&self) -> bool {
        matches!(
            self,
            PropertyVerdict::Falsified { .. } | PropertyVerdict::Proved { .. }
        )
    }
}

impl fmt::Display for PropertyVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyVerdict::Falsified { depth, .. } => {
                write!(f, "falsified at depth {depth}")
            }
            PropertyVerdict::OpenAt { depth } => write!(f, "open at depth {depth}"),
            PropertyVerdict::Proved {
                depth,
                invariant_clauses,
            } => match invariant_clauses {
                Some(clauses) => write!(
                    f,
                    "proved at depth {depth} ({} invariant clauses)",
                    clauses.len()
                ),
                None => write!(f, "proved at depth {depth}"),
            },
            PropertyVerdict::Unknown => write!(f, "unknown"),
        }
    }
}

/// Per-property report of a run: the verdict plus this property's share of
/// the solver work (the per-property analog of [`DepthStats`]).
#[derive(Clone, Debug)]
pub struct PropertyReport {
    /// Property name (from the problem's property set).
    pub name: String,
    /// The verdict.
    pub verdict: PropertyVerdict,
    /// Solve episodes run for this property (one per attempted depth).
    pub episodes: u64,
    /// Episodes that ended UNSAT as a failed-assumption conflict (session
    /// runs only; fresh solvers assert the bad state as a unit instead).
    pub assumption_conflicts: u64,
    /// Decisions over this property's episodes.
    pub decisions: u64,
    /// Conflicts over this property's episodes.
    pub conflicts: u64,
    /// Propagations over this property's episodes.
    pub propagations: u64,
    /// Depth at which the property retired with a counterexample (`None`
    /// while open).
    pub retirement_depth: Option<usize>,
    /// This property's per-depth verdict sequence (index = depth). The
    /// differential gates compare these against fresh single-property runs.
    pub depth_results: Vec<SolveResult>,
}

/// The overall outcome of a BMC run — the summary over the property set.
/// Per-property verdicts live in [`BmcRun::properties`].
#[derive(Clone, Debug)]
pub enum BmcOutcome {
    /// Some property fails; this is the shallowest counterexample found
    /// (ties broken by property order). Other properties may still be open —
    /// see the per-property reports.
    Counterexample {
        /// Length of the counterexample (bad state at this frame).
        depth: usize,
        /// The counterexample itself.
        trace: Trace,
    },
    /// Every depth up to `max_depth` is UNSAT for every (non-falsified)
    /// property: no counterexample of bounded length exists (the paper's
    /// "property proven true up to the completeness threshold").
    BoundReached {
        /// The last depth proven UNSAT.
        depth_completed: usize,
    },
    /// A per-depth conflict budget or the deadline ran out at `at_depth`
    /// before any property was falsified (a found counterexample outranks a
    /// later budget exhaustion in this summary).
    ResourceOut {
        /// Depth whose solve did not finish.
        at_depth: usize,
    },
}

impl fmt::Display for BmcOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmcOutcome::Counterexample { depth, .. } => {
                write!(f, "counterexample at depth {depth}")
            }
            BmcOutcome::BoundReached { depth_completed } => {
                write!(f, "no counterexample up to depth {depth_completed}")
            }
            BmcOutcome::ResourceOut { at_depth } => {
                write!(f, "resources exhausted at depth {at_depth}")
            }
        }
    }
}

/// Summary of a finished run: outcome, per-property reports, and all
/// per-depth statistics.
#[derive(Clone, Debug)]
pub struct BmcRun {
    /// The summary verdict (single-property runs: the property's verdict).
    pub outcome: BmcOutcome,
    /// One report per property of the problem, in property order.
    pub properties: Vec<PropertyReport>,
    /// One entry per attempted depth, in order.
    pub per_depth: Vec<DepthStats>,
    /// Aggregate solver statistics over the whole run: the session solver's
    /// final counters under [`SolverReuse::Session`], the per-episode
    /// solvers' counters summed under [`SolverReuse::Fresh`]. Carries the
    /// incremental-session counters (`solve_calls`, `assumption_conflicts`,
    /// `learned_retained`) the per-depth deltas cannot express.
    pub solver_stats: SolverStats,
    /// Total wall-clock time.
    pub total_time: Duration,
    /// Proof-logging summary, aggregated over every solver the run
    /// provisioned. `None` when [`BmcOptions::proof`] is
    /// [`ProofMode::Off`](crate::ProofMode).
    pub proof: Option<crate::ProofSummary>,
}

impl BmcRun {
    /// Sum of decisions over all depths.
    pub fn total_decisions(&self) -> u64 {
        self.per_depth.iter().map(|d| d.decisions).sum()
    }

    /// Sum of implications over all depths.
    pub fn total_implications(&self) -> u64 {
        self.per_depth.iter().map(|d| d.implications).sum()
    }

    /// Sum of conflicts over all depths.
    pub fn total_conflicts(&self) -> u64 {
        self.per_depth.iter().map(|d| d.conflicts).sum()
    }

    /// The deepest depth whose solve completed (SAT or UNSAT).
    pub fn max_completed_depth(&self) -> Option<usize> {
        self.per_depth
            .iter()
            .filter(|d| d.result != SolveResult::Unknown)
            .map(|d| d.depth)
            .max()
    }

    /// The report of a property, by name.
    pub fn property(&self, name: &str) -> Option<&PropertyReport> {
        self.properties.iter().find(|p| p.name == name)
    }

    /// Number of falsified properties.
    pub fn num_falsified(&self) -> usize {
        self.properties
            .iter()
            .filter(|p| matches!(p.verdict, PropertyVerdict::Falsified { .. }))
            .count()
    }
}

/// Per-property live state during a run.
struct PropState {
    name: String,
    bad: Signal,
    open: bool,
    episodes: u64,
    assumption_conflicts: u64,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
    completed: Option<usize>,
    falsified: Option<(usize, Trace)>,
    depth_results: Vec<SolveResult>,
}

impl PropState {
    fn fresh(name: String, bad: Signal) -> PropState {
        PropState {
            name,
            bad,
            open: true,
            episodes: 0,
            assumption_conflicts: 0,
            decisions: 0,
            conflicts: 0,
            propagations: 0,
            completed: None,
            falsified: None,
            depth_results: Vec::new(),
        }
    }

    fn into_report(self) -> PropertyReport {
        let verdict = match (self.falsified, self.completed) {
            (Some((depth, trace)), _) => PropertyVerdict::Falsified { depth, trace },
            (None, Some(depth)) => PropertyVerdict::OpenAt { depth },
            (None, None) => PropertyVerdict::Unknown,
        };
        let retirement_depth = match &verdict {
            PropertyVerdict::Falsified { depth, .. } => Some(*depth),
            _ => None,
        };
        PropertyReport {
            name: self.name,
            verdict,
            episodes: self.episodes,
            assumption_conflicts: self.assumption_conflicts,
            decisions: self.decisions,
            conflicts: self.conflicts,
            propagations: self.propagations,
            retirement_depth,
            depth_results: self.depth_results,
        }
    }
}

/// The `refine_order_bmc` engine (Fig. 5), generalized to property sets.
///
/// Construct it from a single-property [`Model`] ([`BmcEngine::new`] — the
/// paper's setup, used by the figure-reproducing binaries) or from a
/// multi-property [`VerificationProblem`] ([`BmcEngine::for_problem`] — the
/// AIGER/HWMCC front door). See the [crate docs](crate) for a complete
/// example.
pub struct BmcEngine {
    /// The working model the solver sees (preprocessed when
    /// [`BmcOptions::preprocess`] is on).
    model: Model,
    /// The problem as given, when preprocessing rebuilt it (`None` means the
    /// working model *is* the original).
    original: Option<Model>,
    /// Trace map from working to original coordinates.
    lift: Option<TraceLift>,
    /// Shape accounting of the preprocessing pass.
    pp_report: Option<PreprocessReport>,
    options: BmcOptions,
    rank: VarRank,
    per_depth: Vec<DepthStats>,
}

impl fmt::Debug for BmcEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BmcEngine")
            .field("problem", &self.model.name())
            .field("properties", &self.model.problem().num_properties())
            .field("options", &self.options)
            .field("depths_done", &self.per_depth.len())
            .finish()
    }
}

impl BmcEngine {
    /// Creates an engine for a single-property `model` with the given
    /// options. With [`BmcOptions::preprocess`] on (the default) the model
    /// is structurally reduced here, once, before any encoding.
    pub fn new(model: Model, options: BmcOptions) -> BmcEngine {
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
        BmcEngine {
            model,
            original,
            lift,
            pp_report,
            options,
            rank: VarRank::new(options.weighting),
            per_depth: Vec::new(),
        }
    }

    /// Creates an engine checking every property of `problem` in one run
    /// (one persistent session solver, one shared unrolling, per-property
    /// activation literals).
    pub fn for_problem(problem: VerificationProblem, options: BmcOptions) -> BmcEngine {
        BmcEngine::new(Model::from_problem(problem), options)
    }

    /// The model under check **as given** (the single-property view of the
    /// problem; its `bad()` is the primary property). Traces the engine
    /// returns are in this model's coordinates, whether or not
    /// preprocessing reduced the working copy.
    pub fn model(&self) -> &Model {
        self.original.as_ref().unwrap_or(&self.model)
    }

    /// The working model the solver actually encodes: the preprocessed
    /// reduction when [`BmcOptions::preprocess`] is on (and changed
    /// anything), otherwise the model as given. Its netlist sizes are the
    /// ones per-depth CNF statistics refer to.
    pub fn working_model(&self) -> &Model {
        &self.model
    }

    /// The full problem under check, as given.
    pub fn problem(&self) -> &VerificationProblem {
        self.model().problem()
    }

    /// Shape accounting of the preprocessing pass (`None` when
    /// [`BmcOptions::preprocess`] is off).
    pub fn preprocess_report(&self) -> Option<&PreprocessReport> {
        self.pp_report.as_ref()
    }

    /// The trace map from working to original coordinates (`None` when
    /// preprocessing is off). Witness printers use its don't-care masks to
    /// emit `x` for state no property can observe.
    pub fn trace_lift(&self) -> Option<&TraceLift> {
        self.lift.as_ref()
    }

    /// The accumulated `varRank` (inspect after a run).
    pub fn rank(&self) -> &VarRank {
        &self.rank
    }

    /// Runs the loop of Fig. 5 and returns only the summary outcome.
    pub fn run(&mut self) -> BmcOutcome {
        self.run_collecting().outcome
    }

    /// Runs the loop of Fig. 5 over every property, collecting per-depth and
    /// per-property statistics.
    pub fn run_collecting(&mut self) -> BmcRun {
        let mut run = self.refine_order_bmc();
        // Peak varRank storage. The table only ever shrinks on a
        // LastOnly-weighting reset, whose next update immediately refills it
        // with the newest core, so the post-run size is the high-water mark.
        let stats = &mut run.solver_stats;
        stats.rank_peak_entries = stats.rank_peak_entries.max(self.rank.num_entries() as u64);
        stats.rank_peak_bytes = stats.rank_peak_bytes.max(self.rank.approx_bytes() as u64);
        // Lift traces out of the working model's coordinates: callers only
        // ever see the problem they posed.
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

    /// The loop of Fig. 5, in working-model coordinates —
    /// [`BmcEngine::run_collecting`] lifts its traces.
    fn refine_order_bmc(&mut self) -> BmcRun {
        let run_start = Instant::now();
        let unroller = Unroller::new(&self.model);
        let mut props: Vec<PropState> = self
            .model
            .problem()
            .properties()
            .iter()
            .map(|p| PropState::fresh(p.name().to_string(), p.bad()))
            .collect();
        let num_props = props.len();
        // The activation literal a_{p,k} of property `p_idx` at depth `k` in
        // a session run. Activation variables live **above** the whole
        // unrolling's variable range (`num_vars_at(max_depth)`), so they can
        // never collide with the frame-stable model variables of any depth
        // the run will reach; each depth owns one consecutive block of
        // `num_props` of them.
        let activation_base = unroller.num_vars_at(self.options.max_depth);
        let activation = |k: usize, p_idx: usize| {
            rbmc_cnf::Var::new(activation_base + k * num_props + p_idx).positive()
        };
        // The persistent solver of a session run (frames appended per depth).
        let mut session: Option<Solver> = match self.options.reuse {
            SolverReuse::Session => {
                Some(Solver::with_options(strategy_solver_options(&self.options)))
            }
            SolverReuse::Fresh => None,
        };
        // Proof sink of the session solver (attached before any clause), and
        // the running aggregate over every solver the run provisions.
        let mut session_certifier = session
            .as_mut()
            .and_then(|s| EpisodeCertifier::attach(self.options.proof, s));
        let mut proof_acc: Option<crate::ProofSummary> = None;
        let mut aggregate = SolverStats::new();
        let mut first_falsified: Option<usize> = None;
        let mut resource_out: Option<usize> = None;
        let mut depth_completed = 0usize;
        'depths: for k in 0..=self.options.max_depth {
            let depth_start = Instant::now();
            let limits = depth_limits(&self.options);
            // gen_cnf_formula(M, P, k): the unroller only ever encodes the
            // one new frame; the session solver consumes exactly that delta
            // once per depth, fresh solvers replay the cached prefix per
            // episode. sat_check(F, varRank) is one solve episode per open
            // property.
            if let Some(solver) = session.as_mut() {
                unroller.with_frame_delta(k, |clauses| {
                    for clause in clauses {
                        solver.add_clause(clause.lits());
                    }
                });
                // Bounded prefix mode: the persistent solver now holds this
                // frame for the rest of the run, so the cache copy is pure
                // duplication — drop it and keep the cache at one frame
                // instead of `max_depth`. (Fresh-per-depth runs reload the
                // whole prefix per episode and never retire.)
                unroller.retire_frames_through(k);
            }
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
            // The paper's unsatVars: union of the open properties' cores at
            // this depth, deduplicated before the ranking update.
            let mut core_union: Vec<rbmc_cnf::Var> = Vec::new();
            let mut ranking_installed = false;
            // Indexing instead of iterating: the episode needs simultaneous
            // `&mut props[p_idx]` mutation and whole-`props` reads while the
            // session solver stays mutably borrowed.
            #[allow(clippy::needless_range_loop)]
            for p_idx in 0..num_props {
                if !props[p_idx].open {
                    continue;
                }
                let bad = props[p_idx].bad;
                let mut fresh: Option<Solver> = None;
                let mut fresh_certifier: Option<EpisodeCertifier> = None;
                let (solver, result, base) = match session.as_mut() {
                    Some(solver) => {
                        let base = solver.stats().clone();
                        // a_{p,k} → bad_p^k; a_{p,k} is assumed for this
                        // episode only.
                        let act = activation(k, p_idx);
                        solver.add_clause(&[!act, unroller.lit_of(bad, k)]);
                        if !ranking_installed {
                            self.install_ranking(solver, &unroller, k);
                            ranking_installed = true;
                        }
                        let result = solver.solve_under_limited(&[act], &limits);
                        (&mut *solver, result, base)
                    }
                    None => {
                        let (provisioned, certifier) = self.fresh_solver(&unroller, k, bad);
                        fresh_certifier = certifier;
                        let solver = fresh.insert(provisioned);
                        let result = solver.solve_limited(&limits);
                        (&mut *solver, result, SolverStats::new())
                    }
                };
                let stats = solver.stats();
                let prop = &mut props[p_idx];
                prop.episodes += 1;
                prop.decisions += stats.decisions - base.decisions;
                prop.conflicts += stats.conflicts - base.conflicts;
                prop.propagations += stats.propagations - base.propagations;
                prop.depth_results.push(result);
                depth.decisions += stats.decisions - base.decisions;
                depth.implications += stats.propagations - base.propagations;
                depth.conflicts += stats.conflicts - base.conflicts;
                depth.cdg_nodes += stats.cdg_nodes - base.cdg_nodes;
                depth.cdg_edges += stats.cdg_edges - base.cdg_edges;
                depth.num_clauses = solver.num_original_clauses();
                depth.switched_to_vsids |= stats.switched_to_vsids;
                match result {
                    SolveResult::Sat => {
                        depth.result = SolveResult::Sat;
                        let assignment = solver.model().expect("model after SAT");
                        let trace = Trace::from_assignment(&unroller, assignment, k);
                        debug_assert!(
                            trace.validate_against(self.model.netlist(), bad).is_ok(),
                            "solver returned an invalid counterexample for `{}`",
                            props[p_idx].name
                        );
                        props[p_idx].falsified = Some((k, trace));
                        props[p_idx].open = false;
                        first_falsified = first_falsified.or(Some(p_idx));
                        if let Some(solver) = session.as_mut() {
                            // Retire the activation literal: the property
                            // leaves the sweep, so its bad-state clause must
                            // never constrain later episodes.
                            solver.add_clause(&[!activation(k, p_idx)]);
                        }
                    }
                    SolveResult::Unsat => {
                        // This property's share of the paper's unsatVars,
                        // filtered to the frame-stable model variables
                        // (`< num_vars_at(k)`): a session core may also cite
                        // activation literals, which are bookkeeping of the
                        // session encoding, not part of the paper's unsatVars.
                        let bound = unroller.num_vars_at(k);
                        core_union.extend(
                            solver
                                .core_vars()
                                .unwrap_or_default()
                                .into_iter()
                                .filter(|v| v.index() < bound),
                        );
                        props[p_idx].completed = Some(k);
                        if let Some(solver) = session.as_mut() {
                            // Retire this depth's activation literal for
                            // good: the a_{p,k} → bad_p^k clause is satisfied
                            // forever, and clause-database reduction reclaims
                            // everything learned against a_{p,k}.
                            solver.add_clause(&[!activation(k, p_idx)]);
                            props[p_idx].assumption_conflicts += 1;
                        }
                        // Certify the episode's UNSAT verdict against its
                        // just-recorded final clause.
                        if let Some(cert) = session_certifier.as_mut().or(fresh_certifier.as_mut())
                        {
                            cert.observe_unsat();
                        }
                    }
                    SolveResult::Unknown => {
                        depth.result = SolveResult::Unknown;
                        resource_out = Some(k);
                    }
                }
                if let Some(f) = fresh.as_ref() {
                    aggregate.accumulate(f.stats());
                }
                certify::merge_opt(
                    &mut proof_acc,
                    fresh_certifier.map(EpisodeCertifier::into_summary),
                );
                if resource_out.is_some() {
                    break;
                }
            }
            // update_ranking(unsatVars, varRank) — the union over this
            // depth's UNSAT episodes.
            core_union.sort_unstable();
            core_union.dedup();
            depth.core_vars = core_union.len();
            if self.options.strategy.needs_cores() && !core_union.is_empty() {
                self.rank.update(&core_union, k);
            }
            depth.time = depth_start.elapsed();
            self.per_depth.push(depth);
            // Depth boundary: the ¬a_{p,k} retirements above have just cut a
            // batch of learned clauses loose; drop the CDG nodes nothing
            // live can reach any more (bounds session memory on deep
            // sweeps). IDs are opaque and cores cite input positions, so
            // search behaviour and future cores are unchanged.
            if self.options.cdg_prune {
                if let Some(solver) = session.as_mut() {
                    solver.prune_cdg();
                }
            }
            // Depth boundary, `debug-invariants` builds: full structural
            // audit of the session solver (watches, trail, arena, CDG) and
            // of the rank table's sparse/dense agreement.
            #[cfg(feature = "debug-invariants")]
            {
                if let Some(solver) = session.as_ref() {
                    solver.audit().expect("solver invariants at depth boundary");
                    certify::audit_proof_coherence(solver)
                        .expect("proof-log coherence at depth boundary");
                }
                self.rank
                    .audit()
                    .expect("rank-table invariants at depth boundary");
            }
            if resource_out.is_some() {
                break 'depths;
            }
            depth_completed = k;
            if props.iter().all(|p| !p.open) {
                break 'depths;
            }
        }
        if let Some(solver) = session.as_ref() {
            aggregate = solver.stats().clone();
        }
        certify::merge_opt(
            &mut proof_acc,
            session_certifier.map(EpisodeCertifier::into_summary),
        );
        aggregate.prefix_peak_clauses = unroller.peak_cached_clauses() as u64;
        let outcome = match (resource_out, first_falsified) {
            // A definite counterexample outranks a later budget exhaustion:
            // the summary keeps its documented meaning (some property fails),
            // and the per-property reports still record who ran out.
            (_, Some(p_idx)) => {
                let (depth, trace) = props[p_idx].falsified.clone().expect("falsified recorded");
                BmcOutcome::Counterexample { depth, trace }
            }
            (Some(at_depth), None) => BmcOutcome::ResourceOut { at_depth },
            (None, None) => BmcOutcome::BoundReached { depth_completed },
        };
        BmcRun {
            outcome,
            properties: props.into_iter().map(PropState::into_report).collect(),
            per_depth: std::mem::take(&mut self.per_depth),
            solver_stats: aggregate,
            total_time: run_start.elapsed(),
            proof: proof_acc,
        }
    }

    /// Installs the strategy's ranking for the depth-`k` episodes (the
    /// paper's per-depth `varRank` refresh; re-seedable on a live solver):
    /// nothing for Chaff's baseline, the time-axis table for Shtrichman, and
    /// the accumulated `varRank` for the refined modes.
    fn install_ranking(&self, solver: &mut Solver, unroller: &Unroller<'_>, k: usize) {
        match self.options.strategy {
            OrderingStrategy::Standard => {}
            OrderingStrategy::Shtrichman => {
                solver.set_var_ranking(&shtrichman_rank(unroller, k));
            }
            _ => solver.set_var_ranking(&self.rank.snapshot()),
        }
    }

    /// Builds the paper's per-depth solver (the [`SolverReuse::Fresh`]
    /// differential path): loads `F_k` from the unroller's cached clause
    /// prefix plus the depth-`k` bad-state unit of one property — no
    /// activation literals, no assumptions — then installs the strategy's
    /// ranking. The proof certifier (attached before any clause) rides
    /// along when [`BmcOptions::proof`] is on.
    fn fresh_solver(
        &self,
        unroller: &Unroller<'_>,
        k: usize,
        bad: Signal,
    ) -> (Solver, Option<EpisodeCertifier>) {
        let mut solver = Solver::with_options(strategy_solver_options(&self.options));
        let certifier = EpisodeCertifier::attach(self.options.proof, &mut solver);
        solver.reserve_vars(unroller.num_vars_at(k));
        unroller.with_prefix(k, |clauses| {
            for clause in clauses {
                solver.add_clause(clause.lits());
            }
        });
        solver.add_clause(&[unroller.lit_of(bad, k)]);
        self.install_ranking(&mut solver, unroller, k);
        (solver, certifier)
    }
}

/// The solver configuration [`BmcOptions`] dictate: `order_mode` and
/// `record_cdg` are derived from the strategy, the rest is taken from
/// [`BmcOptions::solver`] (shared by the BMC and IC3 engines, so every
/// provisioned solver is configured identically).
pub(crate) fn strategy_solver_options(options: &BmcOptions) -> SolverOptions {
    let mut opts = options.solver;
    opts.order_mode = match options.strategy {
        OrderingStrategy::Standard => OrderMode::Standard,
        OrderingStrategy::RefinedStatic | OrderingStrategy::Shtrichman => OrderMode::Static,
        OrderingStrategy::RefinedDynamic { divisor } => OrderMode::Dynamic { divisor },
    };
    opts.record_cdg =
        options.strategy.needs_cores() || options.force_record_cdg || options.proof.is_on();
    opts
}

/// The per-depth resource limits [`BmcOptions`] dictate.
pub(crate) fn depth_limits(options: &BmcOptions) -> Limits {
    let mut limits = Limits::new();
    if let Some(n) = options.max_conflicts_per_depth {
        limits = limits.with_max_conflicts(n);
    }
    if let Some(deadline) = options.deadline {
        limits = limits.with_deadline(deadline);
    }
    limits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_reachable, OracleVerdict};
    use crate::ProblemBuilder;
    use rbmc_circuit::{LatchInit, Netlist, Signal};

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

    /// Counter with one property per target: `reach_t` is falsified exactly
    /// at depth `t` (for a `width`-bit counter starting at zero).
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

    #[test]
    fn finds_counterexample_at_oracle_depth() {
        let model = counter_model(4, 11);
        let expected = check_reachable(&model, 20);
        assert_eq!(expected, OracleVerdict::FailsAt(11));
        for strategy in all_strategies() {
            let mut engine = BmcEngine::new(
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
    fn passing_property_reaches_bound() {
        // 3-bit counter never equals 12.
        let model = counter_model(3, 12);
        for strategy in all_strategies() {
            let mut engine = BmcEngine::new(
                model.clone(),
                BmcOptions {
                    max_depth: 12,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            match engine.run() {
                BmcOutcome::BoundReached { depth_completed } => {
                    assert_eq!(depth_completed, 12, "{strategy:?}");
                }
                other => panic!("{strategy:?}: expected bound reached, got {other:?}"),
            }
        }
    }

    #[test]
    fn refined_strategies_accumulate_rank() {
        let model = counter_model(4, 9);
        let mut engine = BmcEngine::new(
            model,
            BmcOptions {
                max_depth: 9,
                strategy: OrderingStrategy::RefinedStatic,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        assert!(matches!(
            run.outcome,
            BmcOutcome::Counterexample { depth: 9, .. }
        ));
        // Nine UNSAT instances were consumed (k = 0..8).
        assert_eq!(engine.rank().num_updates(), 9);
        assert!(engine.rank().num_ranked() > 0);
    }

    #[test]
    fn per_depth_stats_are_complete() {
        let model = counter_model(3, 5);
        let mut engine = BmcEngine::new(
            model,
            BmcOptions {
                max_depth: 10,
                strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        // Depths 0..=5 attempted; 5 is SAT.
        assert_eq!(run.per_depth.len(), 6);
        for (i, d) in run.per_depth.iter().enumerate() {
            assert_eq!(d.depth, i);
            assert!(d.num_vars > 0 && d.num_clauses > 0);
            let expected = if i == 5 {
                SolveResult::Sat
            } else {
                SolveResult::Unsat
            };
            assert_eq!(d.result, expected);
        }
        // An input-free counter is fully determined by propagation, so
        // decisions may legitimately be zero; implications never are.
        assert!(run.total_implications() > 0);
        assert_eq!(run.max_completed_depth(), Some(5));
    }

    #[test]
    fn conflict_budget_reports_resource_out() {
        // Fresh mode: with a zero conflict budget, the UNSAT depths of the
        // input-free counter still complete (level-0 propagation refutes
        // them before the budget is consulted), but the SAT depth hits the
        // budget check in the decision loop and reports ResourceOut there.
        let model = counter_model(3, 5);
        let mut engine = BmcEngine::new(
            model.clone(),
            BmcOptions {
                max_depth: 12,
                strategy: OrderingStrategy::Standard,
                reuse: SolverReuse::Fresh,
                max_conflicts_per_depth: Some(0),
                ..BmcOptions::default()
            },
        );
        match engine.run() {
            BmcOutcome::ResourceOut { at_depth } => assert_eq!(at_depth, 5),
            other => panic!("expected resource-out, got {other:?}"),
        }
        // Session mode asserts the bad state through an assumed activation
        // literal, so even depth 0 needs one pseudo-decision — which a zero
        // budget forbids: ResourceOut immediately, and the property reports
        // Unknown (no depth completed).
        let mut engine = BmcEngine::new(
            model,
            BmcOptions {
                max_depth: 12,
                strategy: OrderingStrategy::Standard,
                reuse: SolverReuse::Session,
                max_conflicts_per_depth: Some(0),
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        match &run.outcome {
            BmcOutcome::ResourceOut { at_depth } => assert_eq!(*at_depth, 0),
            other => panic!("expected resource-out, got {other:?}"),
        }
        assert!(matches!(
            run.properties[0].verdict,
            PropertyVerdict::Unknown
        ));
    }

    #[test]
    fn session_and_fresh_agree_per_depth() {
        // Same model, both reuse modes, every strategy: identical per-depth
        // verdict sequences and identical counterexample depth.
        for target in [5u64, 12] {
            let model = counter_model(4, target);
            for strategy in all_strategies() {
                let mut runs = Vec::new();
                for reuse in [SolverReuse::Fresh, SolverReuse::Session] {
                    let mut engine = BmcEngine::new(
                        model.clone(),
                        BmcOptions {
                            max_depth: 14,
                            strategy,
                            reuse,
                            ..BmcOptions::default()
                        },
                    );
                    runs.push(engine.run_collecting());
                }
                let verdicts = |run: &BmcRun| -> Vec<SolveResult> {
                    run.per_depth.iter().map(|d| d.result).collect()
                };
                assert_eq!(
                    verdicts(&runs[0]),
                    verdicts(&runs[1]),
                    "{strategy:?} target {target}"
                );
            }
        }
    }

    #[test]
    fn session_run_reports_incremental_stats() {
        let model = counter_model(4, 11);
        let mut engine = BmcEngine::new(
            model,
            BmcOptions {
                max_depth: 20,
                strategy: OrderingStrategy::RefinedStatic,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        assert!(matches!(
            run.outcome,
            BmcOutcome::Counterexample { depth: 11, .. }
        ));
        let stats = &run.solver_stats;
        // One solve episode per attempted depth (0..=11).
        assert_eq!(stats.solve_calls, 12);
        // Every UNSAT depth ended as a failed-assumption conflict.
        assert_eq!(stats.assumption_conflicts, 11);
        // The per-property report carries the same counters.
        assert_eq!(run.properties.len(), 1);
        assert_eq!(run.properties[0].episodes, 12);
        assert_eq!(run.properties[0].assumption_conflicts, 11);
        assert_eq!(run.properties[0].retirement_depth, Some(11));
        // Fresh mode never reports incremental counters.
        let mut engine = BmcEngine::new(
            counter_model(4, 11),
            BmcOptions {
                max_depth: 20,
                strategy: OrderingStrategy::RefinedStatic,
                reuse: SolverReuse::Fresh,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        assert_eq!(run.solver_stats.assumption_conflicts, 0);
        assert_eq!(run.solver_stats.learned_retained, 0);
        // Each fresh solver counts its single episode.
        assert_eq!(run.solver_stats.solve_calls, 12);
        assert_eq!(run.properties[0].assumption_conflicts, 0);
    }

    #[test]
    fn multi_property_session_retires_individually() {
        // Three targets: falsified at depths 3 and 9; 4-bit counter wraps at
        // 16, so with max_depth 12 target 14 stays open.
        let problem = counter_problem(4, &[3, 14, 9]);
        for strategy in all_strategies() {
            let mut engine = BmcEngine::for_problem(
                counter_problem(4, &[3, 14, 9]),
                BmcOptions {
                    max_depth: 12,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let run = engine.run_collecting();
            assert_eq!(run.properties.len(), 3, "{strategy:?}");
            match &run.property("reach_3").unwrap().verdict {
                PropertyVerdict::Falsified { depth, trace } => {
                    assert_eq!(*depth, 3, "{strategy:?}");
                    assert!(trace
                        .validate_against(problem.netlist(), problem.property(0).bad())
                        .is_ok());
                }
                other => panic!("{strategy:?}: reach_3 expected falsified, got {other}"),
            }
            match &run.property("reach_9").unwrap().verdict {
                PropertyVerdict::Falsified { depth, .. } => assert_eq!(*depth, 9),
                other => panic!("{strategy:?}: reach_9 expected falsified, got {other}"),
            }
            match &run.property("reach_14").unwrap().verdict {
                PropertyVerdict::OpenAt { depth } => assert_eq!(*depth, 12),
                other => panic!("{strategy:?}: reach_14 expected open, got {other}"),
            }
            // Summary outcome is the shallowest counterexample.
            assert!(
                matches!(run.outcome, BmcOutcome::Counterexample { depth: 3, .. }),
                "{strategy:?}"
            );
            assert_eq!(run.num_falsified(), 2);
            // Retired properties stop consuming episodes: reach_3 ran
            // depths 0..=3 only.
            assert_eq!(run.property("reach_3").unwrap().episodes, 4);
            assert_eq!(run.property("reach_14").unwrap().episodes, 13);
        }
    }

    #[test]
    fn multi_property_session_matches_fresh_single_property_runs() {
        // The acceptance gate: per-depth verdicts of one multi-property
        // session run equal those of per-property fresh-per-depth runs.
        let targets: &[u64] = &[5, 11, 13];
        for strategy in all_strategies() {
            let mut engine = BmcEngine::for_problem(
                counter_problem(4, targets),
                BmcOptions {
                    max_depth: 12,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let session_run = engine.run_collecting();
            for (i, &t) in targets.iter().enumerate() {
                let mut fresh_engine = BmcEngine::new(
                    counter_model(4, t),
                    BmcOptions {
                        max_depth: 12,
                        strategy,
                        reuse: SolverReuse::Fresh,
                        ..BmcOptions::default()
                    },
                );
                let fresh_run = fresh_engine.run_collecting();
                let fresh_verdicts: Vec<SolveResult> =
                    fresh_run.per_depth.iter().map(|d| d.result).collect();
                assert_eq!(
                    session_run.properties[i].depth_results, fresh_verdicts,
                    "{strategy:?} target {t}"
                );
            }
        }
    }

    #[test]
    fn all_properties_falsified_ends_run_early() {
        let mut engine = BmcEngine::for_problem(
            counter_problem(4, &[2, 4]),
            BmcOptions {
                max_depth: 15,
                ..BmcOptions::default()
            },
        );
        let run = engine.run_collecting();
        // The sweep stops at depth 4 (last property retired), not 15.
        assert_eq!(run.per_depth.len(), 5);
        assert_eq!(run.num_falsified(), 2);
        assert!(matches!(
            run.outcome,
            BmcOutcome::Counterexample { depth: 2, .. }
        ));
    }

    #[test]
    fn outcome_display_is_informative() {
        let model = counter_model(3, 5);
        let mut engine = BmcEngine::new(model, BmcOptions::default());
        let outcome = engine.run();
        assert!(outcome.to_string().contains("depth 5"));
        assert!(PropertyVerdict::OpenAt { depth: 7 }
            .to_string()
            .contains("open at depth 7"));
    }
}
