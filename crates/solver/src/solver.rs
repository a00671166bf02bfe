//! The CDCL solver: DLL search with watched-literal BCP, first-UIP learning,
//! restarts, clause-database reduction, and CDG-based core extraction.

use std::fmt;
use std::time::Instant;

use rbmc_cnf::{Clause, CnfFormula, Lit, Var};

use crate::arena::{ClauseArena, ClauseRef};
use crate::cdg::{Cdg, ClauseId};
use crate::order::LitOrder;
use crate::proof::ProofLog;
use crate::{LBool, Limits, OrderMode, SolverStats};

// The auditor is a child module so it can read the solver's private fields
// directly instead of a sanitized accessor view.
#[cfg(feature = "debug-invariants")]
#[path = "audit.rs"]
mod audit;

/// Outcome of a solve call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// A satisfying assignment was found (see [`Solver::model`]).
    Sat,
    /// The formula was proven unsatisfiable (see [`Solver::core_clauses`]).
    Unsat,
    /// A resource limit was hit before an answer was found; the search can be
    /// resumed by calling [`Solver::solve_limited`] again.
    Unknown,
}

/// Configuration of the solver.
///
/// The defaults replicate the paper's Chaff setup: literal-based VSIDS with
/// periodic halving, restarts, learned-clause deletion, and CDG recording on
/// (the refinement needs cores; disable it to measure the §3.1 overhead).
///
/// # Examples
///
/// ```
/// use rbmc_solver::{OrderMode, SolverOptions};
///
/// let opts = SolverOptions {
///     order_mode: OrderMode::Dynamic { divisor: 64 },
///     ..SolverOptions::default()
/// };
/// assert!(opts.record_cdg);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SolverOptions {
    /// How decisions combine `bmc_score` and `cha_score` (§3.3).
    pub order_mode: OrderMode,
    /// Record the simplified conflict dependency graph so an unsatisfiable
    /// core can be extracted (§3.1). Costs a few percent of runtime.
    pub record_cdg: bool,
    /// Conflicts between `cha_score` halvings (Chaff updated periodically;
    /// 256 is the conventional period).
    pub halve_interval: u64,
    /// Luby restart unit in conflicts; `0` disables restarts.
    pub luby_unit: u64,
    /// Enable periodic deletion of irrelevant learned clauses.
    pub reduce_db: bool,
    /// Learned clauses kept before the first reduction.
    pub reduce_base: u64,
    /// Additional learned clauses allowed after each reduction.
    pub reduce_inc: u64,
}

impl Default for SolverOptions {
    fn default() -> SolverOptions {
        SolverOptions {
            order_mode: OrderMode::Standard,
            record_cdg: true,
            halve_interval: 256,
            luby_unit: 128,
            reduce_db: true,
            reduce_base: 2000,
            reduce_inc: 1000,
        }
    }
}

/// A long-clause watch entry: the watching clause and a blocker literal
/// whose truth lets BCP skip the clause without touching its body.
#[derive(Clone, Copy, Debug)]
struct LongWatch {
    clause: ClauseRef,
    blocker: Lit,
}

/// A binary-clause watch entry: the *other* literal of the clause is stored
/// inline, so BCP decides unit/conflict from the watcher alone — zero clause
/// dereferences. `clause` is only consulted as the reason/conflict reference.
#[derive(Clone, Copy, Debug)]
struct BinWatch {
    clause: ClauseRef,
    implied: Lit,
}

/// The two-tier watch lists of one literal: binary clauses (implied literal
/// inline) and long clauses (blocker watches over the arena).
#[derive(Debug, Default)]
struct WatchLists {
    bins: Vec<BinWatch>,
    longs: Vec<LongWatch>,
}

/// A Chaff-style CDCL SAT solver (see the crate docs for the feature list).
///
/// # Examples
///
/// Finding a model:
///
/// ```
/// use rbmc_cnf::{CnfFormula, Lit};
/// use rbmc_solver::{SolveResult, Solver};
///
/// let mut f = CnfFormula::new();
/// let x = f.new_var();
/// let y = f.new_var();
/// f.add_clause([x.positive(), y.positive()]);
/// f.add_clause([x.negative()]);
/// let mut solver = Solver::from_formula(&f);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// let model = solver.model().expect("model after SAT");
/// assert!(!model[x.index()] && model[y.index()]);
/// ```
pub struct Solver {
    opts: SolverOptions,
    /// Flat clause storage: the pre-session originals first (offset-stable),
    /// then learned clauses interleaved with originals added between solve
    /// episodes. CDG pseudo-IDs live in the record headers.
    clauses: ClauseArena,
    /// Arena reference of each original clause, indexed by input position.
    /// Entries at or above `first_learned` are patched after compaction.
    original_refs: Vec<ClauseRef>,
    /// Number of original (input) clauses.
    num_original: usize,
    /// Arena offset where the compactable region starts (set at the first
    /// solve call; the region below it never moves). Learned clauses and
    /// originals added mid-session live above it and may be relocated by
    /// compaction — only learned records are ever deleted.
    first_learned: u32,
    /// Total literal occurrences in the original formula — the paper's
    /// "number of original literals" used by the dynamic switch.
    num_original_lits: u64,
    watches: Vec<WatchLists>,
    values: Vec<LBool>,
    levels: Vec<u32>,
    reasons: Vec<Option<ClauseRef>>,
    /// CDG node standing for the level-0 unit fact of a variable.
    unit_node: Vec<Option<ClauseId>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    order: LitOrder,
    cdg: Cdg,
    stats: SolverStats,
    /// Ranking installed by [`Solver::set_var_ranking`], applied at setup.
    bmc_scores: Vec<u64>,
    /// Pending unit original clauses, enqueued at setup.
    pending_units: Vec<ClauseRef>,
    /// An empty original clause, if one was added.
    empty_clause: Option<ClauseRef>,
    result: Option<SolveResult>,
    model: Option<Vec<bool>>,
    core: Option<Vec<usize>>,
    /// Assumption literals of the current solve episode, in order; each is
    /// decided as a pseudo-decision at levels `1..=assumptions.len()` before
    /// any heuristic decision.
    assumptions: Vec<Lit>,
    /// The subset of the current episode's assumptions involved in the final
    /// conflict, when the episode ended UNSAT because an assumption failed.
    failed: Vec<Lit>,
    /// False once the clause database alone (no assumptions) was proven
    /// unsatisfiable; every later episode returns UNSAT immediately.
    ok: bool,
    started: bool,
    /// Dynamic mode has fallen back to pure VSIDS (this episode).
    switched: bool,
    /// `stats.decisions` at the start of the current episode (the dynamic
    /// switch of §3.3 counts decisions per instance, i.e. per episode).
    episode_decisions_base: u64,
    conflicts_at_last_halve: u64,
    conflicts_at_restart: u64,
    restart_number: u64,
    live_learned: u64,
    reduce_threshold: u64,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Scratch antecedent list of level-0 unit-fact CDG nodes (reused so a
    /// level-0 implication records its node allocation-free).
    unit_ants: Vec<ClauseId>,
    /// Scratch antecedent list of conflict analysis.
    conflict_ants: Vec<ClauseId>,
    /// Attached clausal proof log, if any (see [`Solver::set_proof_log`]).
    proof: Option<Box<dyn ProofLog>>,
    /// Next proof line id to hand out (ids start at 1, LRAT-style).
    next_proof_id: u64,
    /// Proof line id of each CDG node, indexed by node id. Compacted in
    /// lockstep with the CDG by [`Solver::prune_cdg`]; proof ids themselves
    /// are never renumbered, so emitted hints stay valid forever.
    proof_of_cdg: Vec<u64>,
}

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("num_vars", &self.num_vars())
            .field("num_original", &self.num_original)
            .field("result", &self.result)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with default options.
    pub fn new() -> Solver {
        Solver::with_options(SolverOptions::default())
    }

    /// Creates an empty solver with the given options.
    pub fn with_options(opts: SolverOptions) -> Solver {
        Solver {
            opts,
            clauses: ClauseArena::new(),
            original_refs: Vec::new(),
            num_original: 0,
            first_learned: 0,
            num_original_lits: 0,
            watches: Vec::new(),
            values: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            unit_node: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: LitOrder::new(0),
            cdg: Cdg::new(),
            stats: SolverStats::new(),
            bmc_scores: Vec::new(),
            pending_units: Vec::new(),
            empty_clause: None,
            result: None,
            model: None,
            core: None,
            assumptions: Vec::new(),
            failed: Vec::new(),
            ok: true,
            started: false,
            switched: false,
            episode_decisions_base: 0,
            conflicts_at_last_halve: 0,
            conflicts_at_restart: 0,
            restart_number: 0,
            live_learned: 0,
            reduce_threshold: opts.reduce_base,
            seen: Vec::new(),
            unit_ants: Vec::new(),
            conflict_ants: Vec::new(),
            proof: None,
            next_proof_id: 0,
            proof_of_cdg: Vec::new(),
        }
    }

    /// Creates a solver loaded with `formula` (default options).
    pub fn from_formula(formula: &CnfFormula) -> Solver {
        Solver::from_formula_with(formula, SolverOptions::default())
    }

    /// Creates a solver loaded with `formula` and the given options.
    pub fn from_formula_with(formula: &CnfFormula, opts: SolverOptions) -> Solver {
        let mut solver = Solver::with_options(opts);
        solver.reserve_vars(formula.num_vars());
        for clause in formula {
            solver.add_clause(clause.lits());
        }
        solver
    }

    /// Ensures the solver knows about variables `0..num_vars`.
    pub fn reserve_vars(&mut self, num_vars: usize) {
        if num_vars <= self.values.len() {
            return;
        }
        self.values.resize(num_vars, LBool::Undef);
        self.levels.resize(num_vars, 0);
        self.reasons.resize(num_vars, None);
        self.unit_node.resize(num_vars, None);
        self.seen.resize(num_vars, false);
        self.watches.resize_with(2 * num_vars, WatchLists::default);
        self.order.grow(num_vars);
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Number of original (input) clauses.
    pub fn num_original_clauses(&self) -> usize {
        self.num_original
    }

    /// Total literal occurrences over the original clauses (the paper's
    /// `#original literals`, the base of the dynamic-switch threshold).
    pub fn num_original_literals(&self) -> u64 {
        self.num_original_lits
    }

    /// The options this solver was built with.
    pub fn options(&self) -> &SolverOptions {
        &self.opts
    }

    /// Adds an original clause. The clause's ID for core reporting is its
    /// 0-based position in the order of `add_clause` calls.
    ///
    /// Duplicate literals are removed internally; a clause containing both
    /// phases of a variable is stored but ignored by the search (it is a
    /// tautology and can never be part of an unsatisfiable core).
    ///
    /// May be called at any time, including **between solve episodes** — the
    /// incremental session API the BMC engine appends each new frame through.
    /// A mid-session addition undoes any search decisions (backtracks to
    /// level 0), then attaches the clause against the current root-level
    /// assignment: already-falsified literals are skipped when choosing
    /// watches, a clause left unit propagates immediately, and a clause with
    /// no true or free literal makes the solver permanently unsatisfiable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.backtrack(0);
        // The raw literal count feeds both the initial cha_score and the
        // dynamic-switch threshold.
        self.num_original_lits += lits.len() as u64;
        let max_var = lits.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
        self.reserve_vars(max_var);
        for &lit in lits {
            self.order.add_initial_count(lit, 1);
        }

        let clause = Clause::new(lits.to_vec());
        let (mut stored, tautology) = match clause.normalized() {
            None => (Vec::new(), true),
            Some(n) => (n.into_lits(), false),
        };
        let input_pos = self.original_refs.len() as u32;
        let cdg_id = if self.opts.record_cdg {
            self.cdg.record_original(input_pos)
        } else {
            // Recording is off: the header slot is never read.
            u32::MAX
        };
        if self.proof.is_some() {
            let pid = self.fresh_proof_id();
            self.map_proof(cdg_id, pid);
            // A tautology is stored body-less; its axiom line keeps the
            // literals as given (harmless to a checker, and the axiom
            // sequence must mirror `add_clause` order exactly for the
            // formula hash to bind the certificate to this input).
            let body: &[Lit] = if tautology { lits } else { &stored };
            self.proof.as_mut().expect("checked above").axiom(pid, body);
        }
        if tautology {
            let cref = self.clauses.alloc(&stored, false, cdg_id);
            self.original_refs.push(cref);
            self.stats.tautologies += 1;
        } else if !self.started {
            let cref = self.clauses.alloc(&stored, false, cdg_id);
            self.original_refs.push(cref);
            match stored.len() {
                0 => {
                    self.empty_clause.get_or_insert(cref);
                }
                1 => self.pending_units.push(cref),
                _ => self.watch_clause(cref, stored.len(), stored[0], stored[1]),
            }
        } else {
            // Mid-session: bring up to two non-falsified literals to the
            // watch slots before storing.
            let mut watchable = [0usize; 2];
            let mut found = 0;
            for (i, &lit) in stored.iter().enumerate() {
                if self.lit_value(lit) != LBool::False {
                    watchable[found] = i;
                    found += 1;
                    if found == 2 {
                        break;
                    }
                }
            }
            if found >= 1 {
                stored.swap(0, watchable[0]);
            }
            if found == 2 {
                // `watchable` is strictly increasing, so slot `watchable[1]`
                // was not disturbed by the first swap.
                stored.swap(1, watchable[1]);
            }
            let cref = self.clauses.alloc(&stored, false, cdg_id);
            self.original_refs.push(cref);
            if stored.len() >= 2 {
                self.watch_clause(cref, stored.len(), stored[0], stored[1]);
            }
            match found {
                0 => {
                    // Every literal is false at the root (or the clause is
                    // empty): unsatisfiable no matter the assumptions.
                    self.record_conflict_clause_final(cref);
                }
                1 if self.lit_value(stored[0]) == LBool::Undef => {
                    // Unit under the root-level assignment.
                    self.enqueue(stored[0], Some(cref));
                }
                _ => {}
            }
        }
        self.num_original = self.original_refs.len();
        self.note_arena_peak();
    }

    /// Records the arena's current size into the peak-bytes high-water mark
    /// (called after every clause allocation; one compare per clause).
    fn note_arena_peak(&mut self) {
        let bytes = u64::from(self.clauses.end_offset()) * 4;
        if bytes > self.stats.arena_peak_bytes {
            self.stats.arena_peak_bytes = bytes;
        }
    }

    /// Installs the per-variable `bmc_score` ranking (§3.2). Scores default
    /// to zero for variables beyond the end of `scores`. The ranking matters
    /// only when [`SolverOptions::order_mode`] is static or dynamic.
    ///
    /// May be called **between solve episodes**: each episode re-seeds the
    /// decision ordering from the ranking installed last, which is how the
    /// paper's per-depth `varRank` refresh reaches a live session solver.
    pub fn set_var_ranking(&mut self, scores: &[u64]) {
        self.bmc_scores = scores.to_vec();
    }

    /// Attaches a clausal proof log (see the [`crate::ProofLog`] docs for
    /// the event vocabulary). From here on every original clause, learned
    /// clause, root-level unit fact, deletion, and per-episode UNSAT final
    /// is recorded, with LRAT antecedent hints sourced from the CDG.
    ///
    /// # Panics
    ///
    /// Panics if CDG recording is disabled (hints come from the CDG) or if
    /// clauses were already added (earlier clauses would have no proof
    /// lines, leaving every certificate incomplete).
    pub fn set_proof_log(&mut self, log: Box<dyn ProofLog>) {
        assert!(
            self.opts.record_cdg,
            "proof logging requires CDG recording (SolverOptions::record_cdg)"
        );
        assert!(
            self.original_refs.is_empty() && !self.started,
            "proof log must be attached before the first clause"
        );
        self.proof = Some(log);
    }

    /// The attached proof log, if any (the auditor and tests cross-check
    /// its live-line bookkeeping against the clause database).
    pub fn proof_log(&self) -> Option<&dyn ProofLog> {
        self.proof.as_deref()
    }

    /// Hands out the next proof line id (strictly increasing from 1).
    fn fresh_proof_id(&mut self) -> u64 {
        self.next_proof_id += 1;
        self.next_proof_id
    }

    /// Records `pid` as the proof line of CDG node `cdg_id`.
    fn map_proof(&mut self, cdg_id: ClauseId, pid: u64) {
        let idx = cdg_id as usize;
        if idx >= self.proof_of_cdg.len() {
            self.proof_of_cdg.resize(idx + 1, 0);
        }
        self.proof_of_cdg[idx] = pid;
    }

    /// Maps a CDG antecedent list to proof-line hints in propagation order:
    /// conflict analysis walks the trail backward, so the list is reversed,
    /// and duplicate citations (a root fact dropped from several clauses)
    /// keep only their earliest position.
    fn hints_from(&self, ants: &[ClauseId]) -> Vec<u64> {
        let mut hints: Vec<u64> = Vec::with_capacity(ants.len());
        for &ant in ants.iter().rev() {
            let pid = self.proof_of_cdg[ant as usize];
            if !hints.contains(&pid) {
                hints.push(pid);
            }
        }
        hints
    }

    /// Emits the deletion line of an arena clause (called at mark time,
    /// while the header still resolves the CDG node).
    fn emit_proof_delete(&mut self, cref: ClauseRef) {
        if self.proof.is_none() {
            return;
        }
        let pid = self.proof_of_cdg[self.clauses.cdg_id(cref) as usize];
        if let Some(proof) = self.proof.as_mut() {
            proof.delete(pid);
        }
    }

    /// Emits the final clause of an UNSAT assumption episode: the negation
    /// of the failed assumptions, justified by the antecedents collected by
    /// [`Solver::analyze_final`].
    fn emit_proof_final_failed(&mut self) {
        if self.proof.is_some() {
            let clause: Vec<Lit> = self.failed.iter().map(|&a| !a).collect();
            let hints = self.hints_from(&self.conflict_ants);
            if let Some(proof) = self.proof.as_mut() {
                proof.finalize(&clause, &hints);
            }
        }
    }

    /// Solves without limits.
    ///
    /// # Panics
    ///
    /// Never returns [`SolveResult::Unknown`]; panics if it would (cannot
    /// happen without limits).
    pub fn solve(&mut self) -> SolveResult {
        self.solve_under(&[])
    }

    /// Solves under the given assumption literals, without resource limits.
    ///
    /// Assumptions are handled IPASIR-style, as pseudo-decisions above level
    /// 0: each is decided (in order) before any heuristic decision, and the
    /// search never backtracks past an assumption without first deriving its
    /// negation. The answer is therefore relative to the assumptions —
    /// [`SolveResult::Sat`] means the clauses **and** the assumptions hold
    /// together, [`SolveResult::Unsat`] means they cannot; in the latter
    /// case [`Solver::failed_assumptions`] names the assumption subset the
    /// final conflict used. Assumptions hold for one episode only; clauses,
    /// learned clauses, and heuristic state persist across episodes.
    ///
    /// # Panics
    ///
    /// Never returns [`SolveResult::Unknown`]; panics if it would (cannot
    /// happen without limits).
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        let result = self.solve_under_limited(assumptions, &Limits::default());
        assert_ne!(
            result,
            SolveResult::Unknown,
            "unlimited solve cannot time out"
        );
        result
    }

    /// Solves under resource limits. Returns [`SolveResult::Unknown`] when a
    /// limit is exceeded; calling again (with fresh limits) resumes the
    /// search with everything learned so far.
    pub fn solve_limited(&mut self, limits: &Limits) -> SolveResult {
        self.solve_under_limited(&[], limits)
    }

    /// Solves under assumption literals **and** resource limits (see
    /// [`Solver::solve_under`] and [`Solver::solve_limited`]).
    pub fn solve_under_limited(&mut self, assumptions: &[Lit], limits: &Limits) -> SolveResult {
        self.stats.solve_calls += 1;
        if !self.ok {
            // The clause database is unsatisfiable outright; the permanent
            // core (if recorded) stays available.
            self.failed.clear();
            self.model = None;
            self.result = Some(SolveResult::Unsat);
            return SolveResult::Unsat;
        }

        // --- episode setup -------------------------------------------------
        self.backtrack(0);
        self.result = None;
        self.model = None;
        self.core = None;
        self.failed.clear();
        self.assumptions.clear();
        self.assumptions.extend_from_slice(assumptions);
        for &a in assumptions {
            self.reserve_vars(a.var().index() + 1);
        }
        self.switched = false;
        self.stats.switched_to_vsids = false;
        self.episode_decisions_base = self.stats.decisions;
        let base_conflicts = self.stats.conflicts;
        let base_decisions = self.stats.decisions;
        let base_propagations = self.stats.propagations;

        if !self.started {
            self.started = true;
            self.first_learned = self.clauses.end_offset();
            if let Some(empty) = self.empty_clause {
                self.record_conflict_clause_final(empty);
                return SolveResult::Unsat;
            }
            // Enqueue the input unit clauses at level 0.
            for i in 0..self.pending_units.len() {
                let cref = self.pending_units[i];
                let lit = self.clauses.lit(cref, 0);
                match self.lit_value(lit) {
                    LBool::Undef => self.enqueue(lit, Some(cref)),
                    LBool::True => {}
                    LBool::False => {
                        self.record_conflict_clause_final(cref);
                        return SolveResult::Unsat;
                    }
                }
            }
        } else {
            self.stats.learned_retained += self.live_learned;
        }
        // Re-seed the decision ordering: the ranking may have been replaced
        // between episodes (the per-depth varRank refresh), and the dynamic
        // configuration starts every episode in refined mode.
        let use_bmc = !matches!(self.opts.order_mode, OrderMode::Standard);
        let scores = std::mem::take(&mut self.bmc_scores);
        self.order.set_bmc_scores(&scores, use_bmc);
        self.bmc_scores = scores;
        self.order.rebuild(&self.values);

        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.record_conflict_clause_final(conflict);
                    return SolveResult::Unsat;
                }
                self.handle_conflict(conflict);
                self.after_conflict_housekeeping();
                if self.limit_exceeded(limits, base_conflicts, base_decisions, base_propagations) {
                    return SolveResult::Unknown;
                }
            } else {
                self.maybe_switch_to_vsids();
                if self.limit_exceeded(limits, base_conflicts, base_decisions, base_propagations) {
                    return SolveResult::Unknown;
                }
                let next_assumption = self.trail_lim.len();
                if next_assumption < self.assumptions.len() {
                    let a = self.assumptions[next_assumption];
                    match self.lit_value(a) {
                        // Already implied: open an empty pseudo-level so
                        // assumption index and decision level stay aligned.
                        LBool::True => self.trail_lim.push(self.trail.len()),
                        LBool::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, None);
                        }
                        LBool::False => {
                            // The clauses force the assumption's negation.
                            self.analyze_final(a);
                            return SolveResult::Unsat;
                        }
                    }
                } else {
                    match self.order.pop_best(&self.values) {
                        Some(lit) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(lit, None);
                        }
                        None => {
                            self.finish_sat();
                            return SolveResult::Sat;
                        }
                    }
                }
            }
        }
    }

    /// The satisfying assignment, if the last solve returned SAT.
    /// `model()[v]` is the value of variable `v`.
    pub fn model(&self) -> Option<&[bool]> {
        self.model.as_deref()
    }

    /// The unsatisfiable core, if the last solve returned UNSAT and CDG
    /// recording was enabled: sorted IDs (input positions) of the original
    /// clauses responsible for the final conflict (§3.1). For an UNSAT
    /// answer under assumptions this is the core of the proof that the
    /// assumptions contradict the clauses.
    pub fn core_clauses(&self) -> Option<&[usize]> {
        self.core.as_deref()
    }

    /// The subset of the last episode's assumptions involved in the final
    /// conflict, when the episode returned [`SolveResult::Unsat`] because an
    /// assumption failed. Empty after SAT, and empty when the clauses are
    /// unsatisfiable regardless of the assumptions.
    ///
    /// The subset is the one traced by conflict analysis — small in
    /// practice, though (as in IPASIR) not guaranteed to be minimal.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// The variables appearing in the unsatisfiable core (§3.2 feeds these
    /// into `update_ranking`). Sorted, no duplicates.
    pub fn core_vars(&self) -> Option<Vec<Var>> {
        let core = self.core.as_ref()?;
        let mut seen = vec![false; self.num_vars()];
        for &ci in core {
            let cref = self.original_refs[ci];
            for i in 0..self.clauses.len(cref) {
                seen[self.clauses.lit(cref, i).var().index()] = true;
            }
        }
        Some(
            seen.iter()
                .enumerate()
                .filter(|&(_, &s)| s)
                .map(|(i, _)| Var::new(i))
                .collect(),
        )
    }

    /// Search statistics so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Prunes the conflict dependency graph down to the nodes still
    /// reachable from live clauses, returning how many nodes were discarded.
    ///
    /// Without this, a long incremental session grows the CDG without bound:
    /// nodes are recorded per learned clause *and per level-0 implication*
    /// and never freed, because a future core extraction may reach
    /// arbitrarily far back. But every future extraction starts from the CDG
    /// IDs of clauses that are still *alive* — arena records (original and
    /// learned) plus the unit-fact nodes of root-level assignments — so
    /// anything unreachable from those roots is garbage. The BMC engine
    /// calls this at depth boundaries, where each retired activation literal
    /// has just turned a batch of learned clauses root-satisfied (deleted at
    /// the next reduction), cutting their proof chains loose.
    ///
    /// Pruning rewrites node IDs; the copies stored outside the graph (arena
    /// clause headers, per-variable unit-fact nodes) are rewritten here too.
    /// Search state, verdicts, and future cores are unaffected — IDs are
    /// opaque, and cores are reported as input positions, which leaves keep.
    ///
    /// No-op (returning 0) when CDG recording is off.
    pub fn prune_cdg(&mut self) -> u64 {
        if !self.opts.record_cdg {
            return 0;
        }
        let before = self.cdg.num_total_nodes();
        self.stats.cdg_peak_nodes = self.stats.cdg_peak_nodes.max(self.cdg.num_nodes());
        let mut roots: Vec<ClauseId> = Vec::new();
        let mut cursor = self.clauses.first();
        while let Some(cref) = cursor {
            cursor = self.clauses.next(cref);
            if !self.clauses.is_deleted(cref) {
                roots.push(self.clauses.cdg_id(cref));
            }
        }
        roots.extend(self.unit_node.iter().flatten().copied());
        let remap = self.cdg.prune_reachable(&roots);
        let pruned = (before - self.cdg.num_total_nodes()) as u64;
        if pruned > 0 {
            let mut cursor = self.clauses.first();
            while let Some(cref) = cursor {
                cursor = self.clauses.next(cref);
                if !self.clauses.is_deleted(cref) {
                    let old = self.clauses.cdg_id(cref);
                    self.clauses.set_cdg_id(cref, remap[old as usize]);
                }
            }
            for node in self.unit_node.iter_mut().flatten() {
                *node = remap[*node as usize];
            }
        }
        if self.proof.is_some() {
            // Compact the node → proof-line map by the same remap. Proof
            // line ids are never renumbered — only the CDG-side index moves.
            let mut compacted = vec![0u64; self.cdg.num_total_nodes()];
            for (old, &pid) in self.proof_of_cdg.iter().enumerate() {
                let new = remap[old];
                if new != ClauseId::MAX {
                    compacted[new as usize] = pid;
                }
            }
            self.proof_of_cdg = compacted;
        }
        self.stats.cdg_pruned_nodes += pruned;
        self.stats.cdg_nodes = self.cdg.num_nodes();
        self.stats.cdg_edges = self.cdg.num_edges();
        #[cfg(feature = "debug-invariants")]
        self.audit()
            .expect("solver invariants violated after CDG prune");
        pruned
    }

    /// The result of the last solve call, if any.
    pub fn result(&self) -> Option<SolveResult> {
        self.result
    }

    // ----- internals -------------------------------------------------------

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    #[inline]
    fn lit_value(&self, lit: Lit) -> LBool {
        self.values[lit.var().index()].xor(lit.is_negative())
    }

    /// Registers the watches of a `len`-literal clause whose current watch
    /// pair is `l0`/`l1`: binary clauses go to the inline tier, longer
    /// clauses to the blocker tier.
    fn watch_clause(&mut self, cref: ClauseRef, len: usize, l0: Lit, l1: Lit) {
        debug_assert!(len >= 2);
        if len == 2 {
            self.watches[l0.code()].bins.push(BinWatch {
                clause: cref,
                implied: l1,
            });
            self.watches[l1.code()].bins.push(BinWatch {
                clause: cref,
                implied: l0,
            });
        } else {
            self.watches[l0.code()].longs.push(LongWatch {
                clause: cref,
                blocker: l1,
            });
            self.watches[l1.code()].longs.push(LongWatch {
                clause: cref,
                blocker: l0,
            });
        }
    }

    /// Assigns `lit` true at the current level with the given reason clause.
    ///
    /// At level 0 this also materializes the literal's unit node in the CDG
    /// so later proofs can cite the fact (see module docs of `cdg`).
    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        let v = lit.var().index();
        debug_assert!(self.values[v].is_undef());
        self.values[v] = LBool::from(lit.is_positive());
        self.levels[v] = self.decision_level();
        self.reasons[v] = reason;
        self.trail.push(lit);
        if reason.is_some() {
            self.stats.propagations += 1;
        }
        if self.opts.record_cdg && self.decision_level() == 0 {
            let reason = reason.expect("level-0 assignments are always implied");
            self.unit_ants.clear();
            self.unit_ants.push(self.clauses.cdg_id(reason));
            for i in 0..self.clauses.len(reason) {
                let other = self.clauses.lit(reason, i);
                if other.var() != lit.var() {
                    let node = self.unit_node[other.var().index()]
                        .expect("supporting level-0 fact was recorded earlier");
                    self.unit_ants.push(node);
                }
            }
            let node = self.cdg.record_learned(&self.unit_ants);
            self.unit_node[v] = Some(node);
            if self.proof.is_some() {
                let hints = self.hints_from(&self.unit_ants);
                let pid = self.fresh_proof_id();
                self.map_proof(node, pid);
                self.proof
                    .as_mut()
                    .expect("checked above")
                    .derived(pid, &[lit], &hints);
            }
        }
    }

    /// Watched-literal BCP. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut conflict = None;

            // Binary tier: unit/conflict decided from the watcher alone.
            let bins = std::mem::take(&mut self.watches[false_lit.code()].bins);
            for w in &bins {
                match self.lit_value(w.implied) {
                    LBool::True => {}
                    LBool::Undef => self.enqueue(w.implied, Some(w.clause)),
                    LBool::False => {
                        conflict = Some(w.clause);
                        break;
                    }
                }
            }
            self.watches[false_lit.code()].bins = bins;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }

            // Long tier: blocker watches over the arena.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()].longs);
            let mut i = 0;
            'watches: while i < ws.len() {
                let w = ws[i];
                // A true blocker satisfies the clause.
                if self.lit_value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = w.clause;
                // Put the false literal in slot 1.
                if self.clauses.lit(cref, 0) == false_lit {
                    self.clauses.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.clauses.lit(cref, 1), false_lit);
                let first = self.clauses.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in 2..self.clauses.len(cref) {
                    let candidate = self.clauses.lit(cref, k);
                    if self.lit_value(candidate) != LBool::False {
                        self.clauses.swap_lits(cref, 1, k);
                        self.watches[candidate.code()].longs.push(LongWatch {
                            clause: cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watches;
                    }
                }
                // No replacement: unit or conflict on `first`.
                if self.lit_value(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[false_lit.code()].longs = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis, clause learning, and backjumping.
    fn handle_conflict(&mut self, conflict: ClauseRef) {
        let current_level = self.decision_level();
        self.conflict_ants.clear();
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // slot 0 = asserting literal
        let mut path_count = 0usize;
        let mut index = self.trail.len();
        let mut confl = conflict;
        let mut resolve_lit: Option<Lit> = None;

        loop {
            if self.opts.record_cdg {
                self.conflict_ants.push(self.clauses.cdg_id(confl));
            }
            self.clauses.bump_activity(confl);
            // The clause body is present: reasons of assigned literals and the
            // conflicting clause are never deleted (locked or just used).
            for j in 0..self.clauses.len(confl) {
                let q = self.clauses.lit(confl, j);
                if Some(q) == resolve_lit {
                    continue;
                }
                let v = q.var().index();
                if self.seen[v] {
                    continue;
                }
                if self.levels[v] == 0 {
                    // Dropping a root-level literal: cite its unit fact so the
                    // CDG still derives the learned clause by pure resolution.
                    if self.opts.record_cdg {
                        let node =
                            self.unit_node[v].expect("root-level assignment has a unit node");
                        self.conflict_ants.push(node);
                    }
                    continue;
                }
                self.seen[v] = true;
                if self.levels[v] == current_level {
                    path_count += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Next seen literal on the trail (at the current level).
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let l = self.trail[index];
            self.seen[l.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = !l;
                break;
            }
            confl = self.reasons[l.var().index()]
                .expect("implied literal at the conflict level has a reason");
            resolve_lit = Some(l);
        }
        for lit in &learnt[1..] {
            self.seen[lit.var().index()] = false;
        }

        // Backjump level: highest level among the non-asserting literals.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.levels[learnt[i].var().index()] > self.levels[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.levels[learnt[1].var().index()]
        };
        self.backtrack(backtrack_level);

        // Store the learned clause, watch it, propagate its asserting literal.
        self.stats.learned += 1;
        self.stats.learned_literals += learnt.len() as u64;
        self.live_learned += 1;
        self.order.on_learned_clause(&learnt);
        let cdg_id = if self.opts.record_cdg {
            let id = self.cdg.record_learned(&self.conflict_ants);
            self.stats.cdg_nodes = self.cdg.num_nodes();
            self.stats.cdg_edges = self.cdg.num_edges();
            self.stats.cdg_peak_nodes = self.stats.cdg_peak_nodes.max(self.stats.cdg_nodes);
            id
        } else {
            ClauseId::MAX
        };
        if self.proof.is_some() {
            let hints = self.hints_from(&self.conflict_ants);
            let pid = self.fresh_proof_id();
            self.map_proof(cdg_id, pid);
            self.proof
                .as_mut()
                .expect("checked above")
                .derived(pid, &learnt, &hints);
        }
        let cref = self.clauses.alloc(&learnt, true, cdg_id);
        self.note_arena_peak();
        self.clauses.set_activity(cref, 1);
        if learnt.len() >= 2 {
            self.watch_clause(cref, learnt.len(), learnt[0], learnt[1]);
        }
        let asserting = learnt[0];
        self.enqueue(asserting, Some(cref));
    }

    /// Undoes all assignments above `level`.
    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let new_len = self.trail_lim[level as usize];
        for i in (new_len..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.values[v.index()] = LBool::Undef;
            self.reasons[v.index()] = None;
            self.order.reinsert_var(v);
        }
        self.trail.truncate(new_len);
        self.trail_lim.truncate(level as usize);
        self.qhead = new_len;
    }

    /// Periodic work after each conflict: score halving, restarts, clause
    /// database reduction.
    fn after_conflict_housekeeping(&mut self) {
        if self.stats.conflicts - self.conflicts_at_last_halve >= self.opts.halve_interval {
            self.conflicts_at_last_halve = self.stats.conflicts;
            self.order.halve_scores();
            self.order.rebuild(&self.values);
            self.stats.score_halvings += 1;
        }
        if self.opts.luby_unit > 0 {
            let budget = luby(self.restart_number) * self.opts.luby_unit;
            if self.stats.conflicts - self.conflicts_at_restart >= budget {
                self.restart_number += 1;
                self.conflicts_at_restart = self.stats.conflicts;
                self.stats.restarts += 1;
                self.backtrack(0);
            }
        }
        if self.opts.reduce_db && self.live_learned >= self.reduce_threshold {
            self.reduce_learned_db();
            self.reduce_threshold += self.opts.reduce_inc;
        }
    }

    /// A learned clause satisfied by a root-level fact is satisfied forever
    /// (root assignments are never undone). In an incremental session this
    /// is how each depth's garbage is identified: once the engine retires an
    /// activation literal with a `¬a_k` unit, every clause that learned
    /// `…∨ ¬a_k` from the depth-`k` conflicts matches this test.
    fn root_satisfied(&self, cref: ClauseRef) -> bool {
        (0..self.clauses.len(cref)).any(|i| {
            let lit = self.clauses.lit(cref, i);
            self.lit_value(lit) == LBool::True && self.levels[lit.var().index()] == 0
        })
    }

    /// Deletes learned clauses that can never matter again (satisfied at the
    /// root — see [`Solver::root_satisfied`]) plus the less relevant half of
    /// the remaining learned clauses (by activity, then recency), and
    /// compacts the arena, relocating the survivors so the region stays
    /// contiguous — no tombstones for BCP to skip. Locked clauses (reasons
    /// of current assignments) and short clauses are kept. Bodies are freed;
    /// CDG pseudo-IDs survive in the headers. Original clauses added
    /// mid-session live interleaved with the learned records; they are never
    /// deleted, but they may be relocated, so `original_refs` is patched
    /// alongside `reasons`.
    ///
    /// Watch lists are repaired **incrementally**: a deleted clause is
    /// detached from the two lists watching it (while its body is still
    /// readable), and a relocated survivor has exactly its two entries
    /// rewritten to the new offset. Every other watch list — in particular
    /// the binary lists of the original clauses, which never move — survives
    /// the compaction untouched, instead of the previous whole-solver
    /// rebuild. `SolverStats::watch_entries_repaired` counts the rewrites.
    fn reduce_learned_db(&mut self) {
        // (activity, cref) over unlocked long learned clauses.
        let mut candidates: Vec<(u32, ClauseRef)> = Vec::new();
        let mut doomed: Vec<ClauseRef> = Vec::new();
        let mut cursor = if self.first_learned < self.clauses.end_offset() {
            Some(ClauseRef::at(self.first_learned))
        } else {
            None
        };
        while let Some(cref) = cursor {
            cursor = self.clauses.next(cref);
            if !self.clauses.is_learned(cref) || self.is_locked(cref) {
                continue;
            }
            if self.root_satisfied(cref) {
                self.emit_proof_delete(cref);
                self.clauses.mark_deleted(cref);
                doomed.push(cref);
                self.live_learned -= 1;
                self.stats.deleted += 1;
                self.stats.root_satisfied_deleted += 1;
                continue;
            }
            if self.clauses.len(cref) <= 2 {
                continue;
            }
            candidates.push((self.clauses.activity(cref), cref));
        }
        candidates.sort_unstable();
        let to_delete = candidates.len() / 2;
        for &(_, cref) in candidates.iter().take(to_delete) {
            self.emit_proof_delete(cref);
            self.clauses.mark_deleted(cref);
            doomed.push(cref);
            self.live_learned -= 1;
            self.stats.deleted += 1;
        }
        // Detach the deleted clauses from their watch lists before
        // compaction frees the bodies (the watch pair is slots 0/1 — an
        // invariant BCP maintains).
        for &cref in &doomed {
            self.detach_watches(cref);
        }

        // Compact the learned region and patch the relocated references.
        let remap = self.clauses.compact_learned(self.first_learned);
        self.stats.compactions += 1;
        if !remap.is_empty() {
            let first_learned = self.first_learned;
            let patch = |r: &mut ClauseRef| {
                if r.offset() >= first_learned {
                    if let Ok(i) = remap.binary_search_by_key(&r.offset(), |&(old, _)| old) {
                        *r = ClauseRef::at(remap[i].1);
                    }
                }
            };
            for reason in self.reasons.iter_mut().flatten() {
                patch(reason);
            }
            for original in &mut self.original_refs {
                patch(original);
            }
            // Rewrite the two watch entries of each relocated clause.
            // Ascending old-offset order makes the scan unambiguous: every
            // new offset is strictly below its own old offset, and hence
            // below all old offsets still waiting to be patched.
            for &(old, new) in &remap {
                let cref = ClauseRef::at(new);
                let len = self.clauses.len(cref);
                if len < 2 {
                    continue;
                }
                let (l0, l1) = (self.clauses.lit(cref, 0), self.clauses.lit(cref, 1));
                self.repair_watch(l0, len, old, new);
                self.repair_watch(l1, len, old, new);
            }
        }
        // Halve activities so future reductions favour recent relevance.
        self.clauses.halve_learned_activities(self.first_learned);
        #[cfg(feature = "debug-invariants")]
        self.audit()
            .expect("solver invariants violated after compaction");
    }

    /// Removes the two watch entries of `cref` (about to be deleted). Its
    /// watched literals are slots 0 and 1 by the BCP invariant; unit and
    /// empty clauses are never watched.
    fn detach_watches(&mut self, cref: ClauseRef) {
        let len = self.clauses.len(cref);
        if len < 2 {
            return;
        }
        for slot in 0..2 {
            let lit = self.clauses.lit(cref, slot);
            let wl = &mut self.watches[lit.code()];
            if len == 2 {
                let i = wl
                    .bins
                    .iter()
                    .position(|w| w.clause == cref)
                    .expect("deleted binary clause is watched on slots 0/1");
                wl.bins.swap_remove(i);
            } else {
                let i = wl
                    .longs
                    .iter()
                    .position(|w| w.clause == cref)
                    .expect("deleted long clause is watched on slots 0/1");
                wl.longs.swap_remove(i);
            }
        }
    }

    /// Rewrites the watch entry of a relocated clause in `lit`'s list from
    /// arena offset `old` to `new`.
    fn repair_watch(&mut self, lit: Lit, len: usize, old: u32, new: u32) {
        let old_ref = ClauseRef::at(old);
        let wl = &mut self.watches[lit.code()];
        if len == 2 {
            let w = wl
                .bins
                .iter_mut()
                .find(|w| w.clause == old_ref)
                .expect("relocated binary clause is watched on slots 0/1");
            w.clause = ClauseRef::at(new);
        } else {
            let w = wl
                .longs
                .iter_mut()
                .find(|w| w.clause == old_ref)
                .expect("relocated long clause is watched on slots 0/1");
            w.clause = ClauseRef::at(new);
        }
        self.stats.watch_entries_repaired += 1;
    }

    /// A clause is locked while it is the reason of its asserting literal.
    fn is_locked(&self, cref: ClauseRef) -> bool {
        if self.clauses.len(cref) == 0 {
            return false;
        }
        let first = self.clauses.lit(cref, 0);
        self.lit_value(first) == LBool::True && self.reasons[first.var().index()] == Some(cref)
    }

    /// Dynamic configuration: fall back to pure VSIDS once the decision count
    /// betrays an inaccurate estimation (§3.3).
    fn maybe_switch_to_vsids(&mut self) {
        if self.switched || !self.order.uses_bmc() {
            return;
        }
        if let OrderMode::Dynamic { divisor } = self.opts.order_mode {
            let episode_decisions = self.stats.decisions - self.episode_decisions_base;
            if episode_decisions > self.num_original_lits / u64::from(divisor.max(1)) {
                self.switched = true;
                self.stats.switched_to_vsids = true;
                self.order.disable_bmc();
                self.order.rebuild(&self.values);
            }
        }
    }

    fn limit_exceeded(
        &self,
        limits: &Limits,
        base_conflicts: u64,
        base_decisions: u64,
        base_propagations: u64,
    ) -> bool {
        if let Some(n) = limits.max_conflicts {
            if self.stats.conflicts - base_conflicts >= n {
                return true;
            }
        }
        if let Some(n) = limits.max_decisions {
            if self.stats.decisions - base_decisions >= n {
                return true;
            }
        }
        if let Some(n) = limits.max_propagations {
            if self.stats.propagations - base_propagations >= n {
                return true;
            }
        }
        if let Some(deadline) = limits.deadline {
            // Coarse check: only every 64 conflicts to keep `Instant::now`
            // off the hot path.
            if (self.stats.conflicts - base_conflicts).is_multiple_of(64)
                && Instant::now() >= deadline
            {
                return true;
            }
        }
        false
    }

    fn finish_sat(&mut self) {
        // Variables no clause mentions (an incremental session reserves the
        // whole future variable range up front) are never decided; they
        // default to false in the model.
        let model = self
            .values
            .iter()
            .map(|v| v.to_bool().unwrap_or(false))
            .collect();
        self.model = Some(model);
        self.result = Some(SolveResult::Sat);
    }

    /// The episode's failing assumption `a` is falsified by the current
    /// trail: walks the reason chain of `¬a` back through the assumption
    /// levels, collecting (a) the assumption pseudo-decisions the refutation
    /// rests on — the *failed assumptions* — and (b) the CDG antecedents of
    /// every reason clause crossed, from which the per-episode unsatisfiable
    /// core is extracted. This is the assumption-based analogue of the final
    /// empty-clause conflict: nothing is recorded permanently, because the
    /// clause database itself stays satisfiable.
    fn analyze_final(&mut self, failing: Lit) {
        self.stats.assumption_conflicts += 1;
        self.failed.clear();
        self.failed.push(failing);
        self.conflict_ants.clear();
        let v0 = failing.var().index();
        if self.levels[v0] == 0 {
            // The clauses alone already imply ¬a at the root.
            if self.opts.record_cdg {
                let node = self.unit_node[v0].expect("root-level assignment has a unit node");
                self.conflict_ants.push(node);
                self.core = Some(self.cdg.core_from(&self.conflict_ants));
            }
            self.emit_proof_final_failed();
            self.result = Some(SolveResult::Unsat);
            return;
        }
        self.seen[v0] = true;
        let bottom = self.trail_lim[0];
        for i in (bottom..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().index();
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reasons[v] {
                None => {
                    // A pseudo-decision: only assumptions are decided while
                    // assumption levels are still being established.
                    self.failed.push(lit);
                }
                Some(reason) => {
                    if self.opts.record_cdg {
                        self.conflict_ants.push(self.clauses.cdg_id(reason));
                    }
                    for j in 0..self.clauses.len(reason) {
                        let q = self.clauses.lit(reason, j);
                        let qv = q.var().index();
                        if qv == v {
                            continue;
                        }
                        if self.levels[qv] == 0 {
                            if self.opts.record_cdg {
                                let node = self.unit_node[qv]
                                    .expect("root-level assignment has a unit node");
                                self.conflict_ants.push(node);
                            }
                        } else {
                            self.seen[qv] = true;
                        }
                    }
                }
            }
        }
        if self.opts.record_cdg {
            self.core = Some(self.cdg.core_from(&self.conflict_ants));
        }
        self.emit_proof_final_failed();
        self.result = Some(SolveResult::Unsat);
    }

    /// Records the final (empty-clause) conflict: the conflicting clause plus
    /// the root-level unit facts of each of its literals, then extracts the
    /// core. The clause database itself is unsatisfiable, so the solver is
    /// finished for good: every later episode answers UNSAT immediately.
    fn record_conflict_clause_final(&mut self, conflict: ClauseRef) {
        if self.opts.record_cdg {
            let mut ants = vec![self.clauses.cdg_id(conflict)];
            for i in 0..self.clauses.len(conflict) {
                let lit = self.clauses.lit(conflict, i);
                if let Some(node) = self.unit_node[lit.var().index()] {
                    ants.push(node);
                }
            }
            self.finish_unsat(ants);
        } else {
            self.finish_unsat(Vec::new());
        }
    }

    fn finish_unsat(&mut self, final_antecedents: Vec<ClauseId>) {
        self.ok = false;
        if self.proof.is_some() {
            let hints = self.hints_from(&final_antecedents);
            if let Some(proof) = self.proof.as_mut() {
                proof.finalize(&[], &hints);
            }
        }
        // A mid-episode (or mid-session `add_clause`) refutation invalidates
        // any previously published episode results.
        self.model = None;
        self.failed.clear();
        if self.opts.record_cdg {
            self.cdg.record_final(final_antecedents);
            self.core = self.cdg.extract_core();
            self.stats.cdg_nodes = self.cdg.num_nodes();
            self.stats.cdg_edges = self.cdg.num_edges();
            self.stats.cdg_peak_nodes = self.stats.cdg_peak_nodes.max(self.stats.cdg_nodes);
        }
        self.result = Some(SolveResult::Unsat);
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
/// (`x` is the 0-based restart number).
fn luby(x: u64) -> u64 {
    // Find the finite subsequence that contains index x and its size.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_cnf::parse_dimacs;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    fn solve_text(text: &str) -> (SolveResult, Solver) {
        let f = parse_dimacs(text).unwrap();
        let mut s = Solver::from_formula(&f);
        let r = s.solve();
        (r, s)
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn empty_formula_is_sat() {
        let (r, s) = solve_text("p cnf 0 0\n");
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(s.model().unwrap().len(), 0);
    }

    #[test]
    fn single_unit_clause() {
        let (r, s) = solve_text("p cnf 1 1\n-1 0\n");
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(s.model().unwrap(), &[false]);
    }

    #[test]
    fn contradictory_units_are_unsat_with_exact_core() {
        let (r, s) = solve_text("p cnf 2 3\n1 0\n-1 0\n2 0\n");
        assert_eq!(r, SolveResult::Unsat);
        // Clause 2 (x2) is irrelevant: the core is exactly the two units.
        assert_eq!(s.core_clauses().unwrap(), &[0, 1]);
        assert_eq!(s.core_vars().unwrap(), vec![Var::new(0)]);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let (r, s) = solve_text("p cnf 1 2\n1 0\n0\n");
        assert_eq!(r, SolveResult::Unsat);
        assert_eq!(s.core_clauses().unwrap(), &[1]);
    }

    #[test]
    fn simple_propagation_chain_unsat() {
        // x1, x1->x2, x2->x3, ¬x3: UNSAT involving all four clauses.
        let (r, s) = solve_text("p cnf 3 4\n1 0\n-1 2 0\n-2 3 0\n-3 0\n");
        assert_eq!(r, SolveResult::Unsat);
        assert_eq!(s.core_clauses().unwrap(), &[0, 1, 2, 3]);
    }

    #[test]
    fn sat_model_satisfies_formula() {
        let text = "p cnf 4 5\n1 2 0\n-1 3 0\n-2 -3 0\n3 4 0\n-4 1 0\n";
        let f = parse_dimacs(text).unwrap();
        let (r, s) = solve_text(text);
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(f.evaluate(s.model().unwrap()), Some(true));
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole() {
        // p1 in hole, p2 in hole, not both: UNSAT.
        let (r, s) = solve_text("p cnf 2 3\n1 0\n2 0\n-1 -2 0\n");
        assert_eq!(r, SolveResult::Unsat);
        assert_eq!(s.core_clauses().unwrap(), &[0, 1, 2]);
    }

    #[test]
    fn unsat_needs_search() {
        // All eight clauses over three variables: classically UNSAT and
        // requires actual conflict-driven search.
        let text = "p cnf 3 8\n1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n\
                    -1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n";
        let (r, s) = solve_text(text);
        assert_eq!(r, SolveResult::Unsat);
        let core = s.core_clauses().unwrap();
        assert!(!core.is_empty());
        // The core must itself be UNSAT.
        let f = parse_dimacs(text).unwrap();
        let sub = f.subformula(core);
        let mut s2 = Solver::from_formula(&sub);
        assert_eq!(s2.solve(), SolveResult::Unsat);
    }

    #[test]
    fn decision_limit_reports_unknown_and_resumes() {
        // A formula that needs at least a couple of decisions.
        let text = "p cnf 6 4\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n";
        let f = parse_dimacs(text).unwrap();
        let mut s = Solver::from_formula(&f);
        let r = s.solve_limited(&Limits::new().with_max_decisions(1));
        assert_eq!(r, SolveResult::Unknown);
        // Resuming without limits finishes the job.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(f.evaluate(s.model().unwrap()), Some(true));
    }

    #[test]
    fn tautology_never_in_core() {
        let (r, s) = solve_text("p cnf 2 4\n1 -1 0\n2 0\n-2 0\n1 0\n");
        assert_eq!(r, SolveResult::Unsat);
        assert_eq!(s.core_clauses().unwrap(), &[1, 2]);
    }

    #[test]
    fn duplicate_literals_are_handled() {
        let (r, s) = solve_text("p cnf 1 2\n1 1 0\n-1 -1 0\n");
        assert_eq!(r, SolveResult::Unsat);
        assert_eq!(s.core_clauses().unwrap(), &[0, 1]);
    }

    #[test]
    fn static_order_decides_ranked_vars_first() {
        // SAT formula; ranked variable should be the first decision.
        let f = parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0\n").unwrap();
        let mut s = Solver::from_formula_with(
            &f,
            SolverOptions {
                order_mode: OrderMode::Static,
                ..SolverOptions::default()
            },
        );
        s.set_var_ranking(&[0, 0, 0, 7]); // rank x4 highest
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model().unwrap();
        // x4 was decided first; its positive literal was chosen, so true.
        assert!(model[3]);
    }

    #[test]
    fn cached_result_is_returned() {
        let (r, mut s) = solve_text("p cnf 1 1\n1 0\n");
        assert_eq!(r, SolveResult::Sat);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.result(), Some(SolveResult::Sat));
    }

    #[test]
    fn clauses_can_be_added_between_episodes() {
        let (r, mut s) = solve_text("p cnf 2 1\n1 2 0\n");
        assert_eq!(r, SolveResult::Sat);
        s.add_clause(&[lit(-1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model = s.model().unwrap();
        assert!(!model[0] && model[1]);
        s.add_clause(&[lit(-2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // All three clauses participate in the refutation.
        assert_eq!(s.core_clauses().unwrap(), &[0, 1, 2]);
        // The database itself is unsatisfiable: later episodes answer
        // immediately, whatever the assumptions.
        assert_eq!(s.solve_under(&[lit(1)]), SolveResult::Unsat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn refuting_add_clause_clears_stale_model() {
        let (r, mut s) = solve_text("p cnf 1 1\n1 0\n");
        assert_eq!(r, SolveResult::Sat);
        assert!(s.model().is_some());
        // The contradicting unit refutes the database at add time; the
        // previous episode's model must not survive next to an Unsat result.
        s.add_clause(&[lit(-1)]);
        assert_eq!(s.result(), Some(SolveResult::Unsat));
        assert!(s.model().is_none());
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn assumptions_restrict_a_single_episode() {
        let f = parse_dimacs("p cnf 2 1\n1 2 0\n").unwrap();
        let mut s = Solver::from_formula(&f);
        assert_eq!(s.solve_under(&[lit(-1), lit(-2)]), SolveResult::Unsat);
        // Both assumptions are needed to contradict (x1 ∨ x2).
        let mut failed = s.failed_assumptions().to_vec();
        failed.sort_unstable();
        assert_eq!(failed, vec![lit(-1), lit(-2)]);
        assert_eq!(s.core_clauses().unwrap(), &[0]);
        // The same solver, under the opposite assumption: SAT, with the
        // assumption reflected in the model.
        assert_eq!(s.solve_under(&[lit(-1)]), SolveResult::Sat);
        let model = s.model().unwrap();
        assert!(!model[0] && model[1]);
        assert!(s.failed_assumptions().is_empty());
        // And with no assumptions at all the formula stays SAT.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn failed_assumptions_exclude_irrelevant_ones() {
        // x3 is constrained only against x4; assuming it is harmless.
        let f = parse_dimacs("p cnf 4 2\n-1 -2 0\n-3 4 0\n").unwrap();
        let mut s = Solver::from_formula(&f);
        assert_eq!(s.solve_under(&[lit(3), lit(1), lit(2)]), SolveResult::Unsat);
        let mut failed = s.failed_assumptions().to_vec();
        failed.sort_unstable();
        assert_eq!(failed, vec![lit(1), lit(2)], "x3 must not be blamed");
        // The core names only the clause linking the failed assumptions.
        assert_eq!(s.core_clauses().unwrap(), &[0]);
    }

    #[test]
    fn root_implied_assumption_failure_has_unit_core() {
        // Units force ¬x2 outright; assuming x2 fails with core {x1, x1→¬x2}.
        let f = parse_dimacs("p cnf 2 2\n1 0\n-1 -2 0\n").unwrap();
        let mut s = Solver::from_formula(&f);
        assert_eq!(s.solve_under(&[lit(2)]), SolveResult::Unsat);
        assert_eq!(s.failed_assumptions(), &[lit(2)]);
        assert_eq!(s.core_clauses().unwrap(), &[0, 1]);
    }

    #[test]
    fn contradictory_assumptions_fail_against_each_other() {
        let f = parse_dimacs("p cnf 1 0\n").unwrap();
        let mut s = Solver::from_formula(&f);
        assert_eq!(s.solve_under(&[lit(1), lit(-1)]), SolveResult::Unsat);
        let mut failed = s.failed_assumptions().to_vec();
        failed.sort_unstable();
        assert_eq!(failed, vec![lit(1), lit(-1)]);
        // No clause is involved: the assumptions refute themselves.
        assert_eq!(s.core_clauses().unwrap(), &[] as &[usize]);
    }

    #[test]
    fn ranking_can_be_reseeded_between_episodes() {
        let f = parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0\n").unwrap();
        let mut s = Solver::from_formula_with(
            &f,
            SolverOptions {
                order_mode: OrderMode::Static,
                ..SolverOptions::default()
            },
        );
        s.set_var_ranking(&[0, 0, 0, 7]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model().unwrap()[3], "x4 decided first");
        // Re-rank on the live solver: the next episode decides x3 first.
        s.set_var_ranking(&[0, 0, 9, 0]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model().unwrap()[2], "x3 decided first after re-ranking");
    }

    #[test]
    fn activation_literal_pattern_drives_session() {
        // The BMC engine's scheme in miniature: a_k → bad_k, assume a_k,
        // then retire it with ¬a_k. Here x3/x4 are two "bad" flags with
        // x1-chained consequences, x5/x6 the activation literals.
        let f = parse_dimacs("p cnf 6 3\n1 0\n-5 -1 0\n-6 2 0\n").unwrap();
        let mut s = Solver::from_formula(&f);
        // Depth 0: a_0 = x5 forces ¬x1, contradicting the unit x1.
        assert_eq!(s.solve_under(&[lit(5)]), SolveResult::Unsat);
        assert_eq!(s.failed_assumptions(), &[lit(5)]);
        assert_eq!(s.core_clauses().unwrap(), &[0, 1]);
        // Retire a_0 and move to depth 1: a_1 = x6 is satisfiable.
        s.add_clause(&[lit(-5)]);
        assert_eq!(s.solve_under(&[lit(6)]), SolveResult::Sat);
        let model = s.model().unwrap();
        assert!(model[5] && model[1] && !model[4]);
        let stats = s.stats();
        assert_eq!(stats.assumption_conflicts, 1);
        assert!(stats.solve_calls >= 2);
    }

    #[test]
    fn prune_cdg_keeps_future_cores_exact() {
        // The activation-literal session shape, pruned at each "depth
        // boundary": cores extracted after pruning must match the unpruned
        // solver's exactly.
        let f = parse_dimacs("p cnf 6 3\n1 0\n-5 -1 0\n-6 2 0\n").unwrap();
        let mut pruned = Solver::from_formula(&f);
        let mut plain = Solver::from_formula(&f);
        for s in [&mut pruned, &mut plain] {
            assert_eq!(s.solve_under(&[lit(5)]), SolveResult::Unsat);
        }
        pruned.prune_cdg();
        for s in [&mut pruned, &mut plain] {
            s.add_clause(&[lit(-5)]);
            assert_eq!(s.solve_under(&[lit(6), lit(-2)]), SolveResult::Unsat);
        }
        assert_eq!(pruned.core_clauses(), plain.core_clauses());
        assert_eq!(pruned.core_clauses().unwrap(), &[2]);
        pruned.prune_cdg();
        // A final outright refutation still extracts its core post-prune.
        for s in [&mut pruned, &mut plain] {
            s.add_clause(&[lit(-2)]);
            s.add_clause(&[lit(2)]);
            assert_eq!(s.solve(), SolveResult::Unsat);
        }
        assert_eq!(pruned.core_clauses(), plain.core_clauses());
    }

    #[test]
    fn compaction_repairs_only_relocated_watches() {
        // A formula needing real search, with an aggressive reduction
        // threshold: compactions relocate learned clauses mid-search, and
        // the incremental repair must keep BCP sound to the (known) verdict.
        let text = "p cnf 3 8\n1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n\
                    -1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n";
        let f = parse_dimacs(text).unwrap();
        let mut s = Solver::from_formula_with(
            &f,
            SolverOptions {
                reduce_base: 2,
                reduce_inc: 0,
                luby_unit: 1,
                ..SolverOptions::default()
            },
        );
        assert_eq!(s.solve(), SolveResult::Unsat);
        let stats = s.stats();
        assert!(stats.compactions > 0, "reduction must have run");
        assert!(
            stats.deleted > 0,
            "reduction must have deleted learned clauses"
        );
        // The core is still exact through all the relocation.
        let core = s.core_clauses().unwrap();
        let mut s2 = Solver::from_formula(&f.subformula(core));
        assert_eq!(s2.solve(), SolveResult::Unsat);
    }

    #[test]
    fn prune_cdg_is_noop_without_recording() {
        let f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n").unwrap();
        let mut s = Solver::from_formula_with(
            &f,
            SolverOptions {
                record_cdg: false,
                ..SolverOptions::default()
            },
        );
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.prune_cdg(), 0);
        assert_eq!(s.stats().cdg_pruned_nodes, 0);
    }

    #[test]
    fn stats_count_decisions_and_propagations() {
        let (_, s) = solve_text("p cnf 3 3\n1 2 0\n-1 3 0\n-3 -2 0\n");
        let stats = s.stats();
        assert!(stats.decisions >= 1);
        // At least the implied assignments were counted.
        assert!(stats.decisions + stats.propagations >= 3);
    }
}
