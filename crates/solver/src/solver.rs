//! The CDCL solver: DLL search with watched-literal BCP, first-UIP learning,
//! restarts, clause-database reduction, and CDG-based core extraction.
//!
//! The hot loops read a literal's value with one load from a table indexed
//! by literal code (`lit_values`, both literals of every variable) and a
//! clause body as one arena slice. No episode allocates scratch space per
//! conflict, per added clause or per core: the learned clause, the clause
//! `add_clause` sorts and deduplicates, the proof hints and the
//! core-variable marks all live in buffers the solver owns and reuses.
//! (What outlives the call is still allocated: a core, a model, and the
//! proof log's own copy of each line.)

use std::fmt;
use std::time::Instant;

use rbmc_cnf::{CnfFormula, Lit, Var};
use rbmc_proof::ProofRecorder;

use crate::arena::{ClauseArena, ClauseRef};
use crate::cdg::{Cdg, ClauseId};
use crate::marks::Marks;
use crate::order::LitOrder;
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
    /// "number of original literals" used by the dynamic switch. Removed
    /// clauses keep counting.
    num_original_lits: u64,
    watches: Vec<WatchLists>,
    /// The value of each literal, indexed by literal code: an assigned
    /// variable's true literal reads `True` and its other literal `False`,
    /// and both literals of an unassigned variable read `Undef`.
    lit_values: Vec<LBool>,
    levels: Vec<u32>,
    reasons: Vec<Option<ClauseRef>>,
    /// CDG node standing for the level-0 unit fact of a variable.
    unit_node: Vec<Option<ClauseId>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    order: LitOrder,
    cdg: Cdg,
    /// A compaction has run since the last [`Solver::prune_cdg`]. Only a
    /// compaction drops arena records, so only then can a CDG root have
    /// gone and left nodes unreachable.
    cdg_garbage: bool,
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
    /// Scratch clause: the learned clause under construction, the clause
    /// `add_clause` normalizes, or a failed-assumption episode's final
    /// clause.
    clause_buf: Vec<Lit>,
    /// Scratch of [`Solver::core_vars`]: the variables collected so far.
    var_marks: Marks,
    /// Scratch antecedent list of level-0 unit-fact CDG nodes (reused so a
    /// level-0 implication records its node allocation-free).
    unit_ants: Vec<ClauseId>,
    /// Scratch antecedent list of conflict analysis.
    conflict_ants: Vec<ClauseId>,
    /// The clausal proof log, once started (see [`Solver::start_proof`]).
    proof: Option<ProofRecorder>,
    /// Next proof line id to hand out (ids start at 1, LRAT-style).
    next_proof_id: u64,
    /// Proof line id of each CDG node, indexed by node id. Compacted in
    /// lockstep with the CDG by [`Solver::prune_cdg`]; proof ids themselves
    /// are never renumbered, so emitted hints stay valid forever.
    proof_of_cdg: Vec<u64>,
    /// Scratch of [`proof_hints`], indexed by CDG node id: the nodes already
    /// cited by the hint list being built. All false between calls.
    cited: Vec<bool>,
    /// Scratch of [`proof_hints`]: the hint list being built.
    hints: Vec<u64>,
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
            lit_values: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            unit_node: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: LitOrder::new(0),
            cdg: Cdg::new(),
            cdg_garbage: false,
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
            clause_buf: Vec::new(),
            var_marks: Marks::default(),
            unit_ants: Vec::new(),
            conflict_ants: Vec::new(),
            proof: None,
            next_proof_id: 0,
            proof_of_cdg: Vec::new(),
            cited: Vec::new(),
            hints: Vec::new(),
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
        if num_vars <= self.num_vars() {
            return;
        }
        self.lit_values.resize(2 * num_vars, LBool::Undef);
        self.levels.resize(num_vars, 0);
        self.reasons.resize(num_vars, None);
        self.unit_node.resize(num_vars, None);
        self.seen.resize(num_vars, false);
        self.watches.resize_with(2 * num_vars, WatchLists::default);
        self.order.grow(num_vars);
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.levels.len()
    }

    /// Number of original (input) clauses.
    pub fn num_original_clauses(&self) -> usize {
        self.num_original
    }

    /// Total literal occurrences over the original clauses (the paper's
    /// `#original literals`, the base of the dynamic-switch threshold).
    /// Clauses removed by [`Solver::remove_clause`] still count, so a
    /// removal never moves the threshold.
    pub fn num_original_literals(&self) -> u64 {
        self.num_original_lits
    }

    /// Adds an original clause and returns its ID: its 0-based position in
    /// the order of `add_clause` calls. Cores ([`Solver::core_clauses`]) are
    /// reported in these IDs, and [`Solver::remove_clause`] takes one.
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
    pub fn add_clause(&mut self, lits: &[Lit]) -> usize {
        self.backtrack(0);
        // The raw literal count feeds both the initial cha_score and the
        // dynamic-switch threshold.
        self.num_original_lits += lits.len() as u64;
        let max_var = lits.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
        self.reserve_vars(max_var);
        for &lit in lits {
            self.order.add_initial_count(lit, 1);
        }

        // Sorted and deduplicated in the reused scratch clause; a clause with
        // both phases of a variable (adjacent once sorted) is a tautology,
        // stored body-less.
        let mut stored = std::mem::take(&mut self.clause_buf);
        stored.clear();
        stored.extend_from_slice(lits);
        stored.sort_unstable();
        stored.dedup();
        let tautology = stored.windows(2).any(|w| w[0] == !w[1]);
        if tautology {
            stored.clear();
        }
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
            // literals as given (harmless to a checker), so the axiom
            // sequence mirrors `add_clause` order exactly: one line per
            // clause added, as the audit's axiom count expects.
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
        self.clause_buf = stored;
        self.num_original = self.original_refs.len();
        self.note_arena_peak();
        input_pos as usize
    }

    /// Removes original clause `id` (as returned by [`Solver::add_clause`])
    /// from the search: its two watch entries are detached, so BCP never
    /// visits it again.
    ///
    /// The clause keeps its arena record, its proof axiom line and its ID.
    /// A reason, a core or a proof hint that cites it stays valid, and
    /// [`Solver::core_vars`] still reads its literals. Scores do not change:
    /// `cha_score` and [`Solver::num_original_literals`] keep counting the
    /// clause, so the only change to the search is which clauses BCP visits.
    /// A unit or empty clause has no watches; the root-level fact or the
    /// refutation it produced stands. Removing a clause twice is a no-op.
    ///
    /// # Soundness
    ///
    /// Learned clauses derived from a removed clause stay in the solver, so
    /// an UNSAT answer is still implied by every clause ever added, removed
    /// ones included. The caller may remove only clauses that no later SAT
    /// answer depends on: for example a clause satisfied at the root, or one
    /// that a clause still present implies under every assumption set that
    /// activates it.
    ///
    /// # Panics
    ///
    /// Panics if no clause with ID `id` was added.
    pub fn remove_clause(&mut self, id: usize) {
        let cref = self.original_refs[id];
        if self.clauses.is_removed(cref) {
            return;
        }
        self.detach_watches(cref);
        self.clauses.mark_removed(cref);
    }

    /// Whether original clause `id` was removed by [`Solver::remove_clause`].
    ///
    /// # Panics
    ///
    /// Panics if no clause with ID `id` was added.
    pub fn is_removed(&self, id: usize) -> bool {
        self.clauses.is_removed(self.original_refs[id])
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
    /// May be called **between solve episodes**: the next episode installs
    /// the ranking passed last, refreshing in place the decision keys of the
    /// variables whose score changed. This is how the paper's per-depth
    /// `varRank` refresh reaches a live session solver.
    pub fn set_var_ranking(&mut self, scores: &[u64]) {
        self.bmc_scores.clear();
        self.bmc_scores.extend_from_slice(scores);
    }

    /// Starts the solver's clausal proof log, a [`ProofRecorder`] the
    /// solver owns from here on. It records, under one strictly increasing
    /// sequence of line ids starting at 1:
    ///
    /// - **axioms**: every original clause, in `add_clause` order (the
    ///   input formula the certificate is about);
    /// - **derived lines**: every learned clause and every root-level unit
    ///   fact, each with LRAT hints taken from the conflict dependency
    ///   graph (§3.1) and listed in propagation order, so that a strict
    ///   checker can require each cited line to be unit until the last one
    ///   conflicts;
    /// - **deletions**: every learned clause that database reduction
    ///   removes, recorded before compaction frees its body, so the log's
    ///   live lines mirror the live clause set;
    /// - **finals**: each UNSAT episode's final clause, which is not added
    ///   to the database: the negated failed assumptions, or the empty
    ///   clause when the database itself is unsatisfiable. A later episode
    ///   overwrites it.
    ///
    /// [`ProofRecorder::check_current`] then verifies the latest episode
    /// through [`Solver::proof_mut`], and the `debug-invariants` auditor
    /// (`Solver::audit`) checks the log's live lines against the clause
    /// database.
    ///
    /// # Panics
    ///
    /// Panics if CDG recording is disabled (hints come from the CDG) or if
    /// clauses were already added (earlier clauses would have no proof
    /// lines, leaving every certificate incomplete).
    pub fn start_proof(&mut self) {
        assert!(
            self.opts.record_cdg,
            "proof logging requires CDG recording (SolverOptions::record_cdg)"
        );
        assert!(
            self.original_refs.is_empty() && !self.started,
            "proof log must be started before the first clause"
        );
        self.proof = Some(ProofRecorder::new());
    }

    /// The proof log, if [`Solver::start_proof`] started one.
    pub fn proof(&self) -> Option<&ProofRecorder> {
        self.proof.as_ref()
    }

    /// The proof log, mutably: checking an episode advances the log's
    /// checking cursor ([`ProofRecorder::check_current`]).
    pub fn proof_mut(&mut self) -> Option<&mut ProofRecorder> {
        self.proof.as_mut()
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

    /// Emits the deletion line of an arena clause (called at mark time,
    /// while the header still resolves the CDG node).
    fn emit_proof_delete(&mut self, cref: ClauseRef) {
        if let Some(proof) = self.proof.as_mut() {
            proof.delete(self.proof_of_cdg[self.clauses.cdg_id(cref) as usize]);
        }
    }

    /// Emits the final clause of an UNSAT assumption episode: the negation
    /// of the failed assumptions, justified by the antecedents collected by
    /// [`Solver::analyze_final`].
    fn emit_proof_final_failed(&mut self) {
        if let Some(proof) = self.proof.as_mut() {
            self.clause_buf.clear();
            self.clause_buf.extend(self.failed.iter().map(|&a| !a));
            proof_hints(
                &self.proof_of_cdg,
                &mut self.cited,
                &self.conflict_ants,
                &mut self.hints,
            );
            proof.finalize(&self.clause_buf, &self.hints);
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

    /// Restricts the next solve episode's decisions to `vars` (IC3's
    /// domain restriction, after *Deeply Optimizing the SAT Solver for the
    /// IC3 Algorithm*). The episode then decides only domain variables and
    /// answers [`SolveResult::Sat`] once they are all assigned. Above the
    /// root it does not propagate onto a variable outside the domain either,
    /// so the model assigns those only where the root level or an
    /// assumption does ([`Solver::model`] reads the rest as false).
    ///
    /// A SAT answer is then a model of the domain's part of the formula
    /// only. The caller must make every clause that reaches outside the
    /// domain satisfiable by extending any assignment of the domain, for
    /// example by taking the fan-in cone of every gate it includes. UNSAT
    /// answers, failed assumptions, cores and proof lines keep their
    /// meaning. The domain holds for the next `solve*` call only. Call it
    /// after that episode's clauses are added: a variable no clause
    /// mentions yet is left out of the domain.
    pub fn set_domain(&mut self, vars: &[Var]) {
        self.order.set_domain(vars, &self.lit_values);
    }

    /// Solves under assumption literals **and** resource limits (see
    /// [`Solver::solve_under`] and [`Solver::solve_limited`]).
    pub fn solve_under_limited(&mut self, assumptions: &[Lit], limits: &Limits) -> SolveResult {
        let result = self.search(assumptions, limits);
        // Every return of the episode ends its domain.
        self.order.clear_domain();
        result
    }

    /// One solve episode.
    fn search(&mut self, assumptions: &[Lit], limits: &Limits) -> SolveResult {
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
        // Install the ranking: it may have been replaced between episodes
        // (the per-depth varRank refresh), and the dynamic configuration
        // starts every episode in refined mode. Only the keys that change
        // are refreshed; the heap itself carries over.
        let use_bmc = !matches!(self.opts.order_mode, OrderMode::Standard);
        self.order.set_bmc_scores(&self.bmc_scores, use_bmc);

        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.record_conflict_clause_final(conflict);
                    return SolveResult::Unsat;
                }
                self.handle_conflict(conflict);
                self.after_conflict_housekeeping();
                if self.limit_exceeded(limits, base_conflicts) {
                    return SolveResult::Unknown;
                }
            } else {
                self.maybe_switch_to_vsids();
                if self.limit_exceeded(limits, base_conflicts) {
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
                    match self.order.pop_best(&self.lit_values) {
                        Some(lit) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(lit, None);
                        }
                        // Every active (domain) variable is assigned: a
                        // model.
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
    ///
    /// Takes `&mut self` only to reuse the solver's variable marks.
    pub fn core_vars(&mut self) -> Option<Vec<Var>> {
        let core = self.core.as_ref()?;
        self.var_marks.clear(self.levels.len());
        let mut vars = Vec::new();
        for &ci in core {
            for &code in self.clauses.lits(self.original_refs[ci]) {
                let var = Lit::from_code(code as usize).var();
                if self.var_marks.insert(var.index()) {
                    vars.push(var);
                }
            }
        }
        vars.sort_unstable();
        Some(vars)
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
    /// A root leaves only when a compaction drops its arena record, so a
    /// call with no compaction since the previous one finds nothing to
    /// discard: it returns 0 at once, after refreshing the CDG size
    /// statistics (`debug-invariants` builds first assert that every node is
    /// still reachable).
    ///
    /// No-op (returning 0) when CDG recording is off.
    pub fn prune_cdg(&mut self) -> u64 {
        if !self.opts.record_cdg {
            return 0;
        }
        self.stats.cdg_peak_nodes = self.stats.cdg_peak_nodes.max(self.cdg.num_nodes());
        if !self.cdg_garbage {
            #[cfg(feature = "debug-invariants")]
            {
                let reachable = self
                    .cdg
                    .audit_reachable(&self.cdg_roots())
                    .expect("CDG invariants violated before a skipped prune");
                assert_eq!(
                    reachable,
                    self.cdg.num_total_nodes(),
                    "CDG garbage without a compaction since the last prune"
                );
            }
            self.stats.cdg_nodes = self.cdg.num_nodes();
            self.stats.cdg_edges = self.cdg.num_edges();
            return 0;
        }
        self.cdg_garbage = false;
        let before = self.cdg.num_total_nodes();
        let remap = self.cdg.prune_reachable(&self.cdg_roots());
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
            // Compact the node → proof-line map in place by the same remap,
            // which never moves an entry up. Proof line ids are never
            // renumbered — only the CDG-side index moves.
            let map = &mut self.proof_of_cdg;
            for (old, &new) in remap.iter().enumerate().take(map.len()) {
                if new != ClauseId::MAX {
                    map[new as usize] = map[old];
                }
            }
            map.truncate(self.cdg.num_total_nodes());
        }
        self.stats.cdg_pruned_nodes += pruned;
        self.stats.cdg_nodes = self.cdg.num_nodes();
        self.stats.cdg_edges = self.cdg.num_edges();
        #[cfg(feature = "debug-invariants")]
        self.audit()
            .expect("solver invariants violated after CDG prune");
        pruned
    }

    /// The CDG IDs every future core extraction starts from: those of the
    /// live arena records (original and learned) plus the unit-fact nodes
    /// of root-level assignments.
    pub(crate) fn cdg_roots(&self) -> Vec<ClauseId> {
        let mut roots: Vec<ClauseId> = Vec::new();
        let mut cursor = self.clauses.first();
        while let Some(cref) = cursor {
            cursor = self.clauses.next(cref);
            if !self.clauses.is_deleted(cref) {
                roots.push(self.clauses.cdg_id(cref));
            }
        }
        roots.extend(self.unit_node.iter().flatten().copied());
        roots
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
        self.lit_values[lit.code()]
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
        debug_assert!(self.lit_values[lit.code()].is_undef());
        self.lit_values[lit.code()] = LBool::True;
        self.lit_values[(!lit).code()] = LBool::False;
        self.levels[v] = self.decision_level();
        self.reasons[v] = reason;
        self.trail.push(lit);
        self.order.note_assigned(lit.var());
        if reason.is_some() {
            self.stats.propagations += 1;
        }
        if self.opts.record_cdg && self.decision_level() == 0 {
            let reason = reason.expect("level-0 assignments are always implied");
            self.unit_ants.clear();
            self.unit_ants.push(self.clauses.cdg_id(reason));
            for &code in self.clauses.lits(reason) {
                let other = Lit::from_code(code as usize).var().index();
                if other != v {
                    let node = self.unit_node[other]
                        .expect("supporting level-0 fact was recorded earlier");
                    self.unit_ants.push(node);
                }
            }
            let node = self.cdg.record_learned(&self.unit_ants);
            self.unit_node[v] = Some(node);
            if self.proof.is_some() {
                proof_hints(
                    &self.proof_of_cdg,
                    &mut self.cited,
                    &self.unit_ants,
                    &mut self.hints,
                );
                let pid = self.fresh_proof_id();
                self.map_proof(node, pid);
                self.proof
                    .as_mut()
                    .expect("checked above")
                    .derived(pid, &[lit], &self.hints);
            }
        }
    }

    /// Whether BCP leaves `var` unassigned: above the root, in an episode
    /// with a domain, outside it. The clause that would imply it stays
    /// watched on its false literal, so only an assumption can assign the
    /// variable later, and assigning it revisits the clause.
    #[inline]
    fn outside_domain(&self, var: Var) -> bool {
        self.order.outside_domain(var) && !self.trail_lim.is_empty()
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
                match self.lit_values[w.implied.code()] {
                    LBool::True => {}
                    LBool::Undef if self.outside_domain(w.implied.var()) => {}
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
            let false_code = false_lit.code() as u32;
            let mut i = 0;
            'watches: while i < ws.len() {
                let w = ws[i];
                // A true blocker satisfies the clause.
                if self.lit_values[w.blocker.code()] == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = w.clause;
                let body = self.clauses.lits_mut(cref);
                // Put the false literal in slot 1.
                if body[0] == false_code {
                    body.swap(0, 1);
                }
                debug_assert_eq!(body[1], false_code);
                let first = Lit::from_code(body[0] as usize);
                if first != w.blocker && self.lit_values[first.code()] == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in 2..body.len() {
                    let candidate = body[k] as usize;
                    if self.lit_values[candidate] != LBool::False {
                        body.swap(1, k);
                        self.watches[candidate].longs.push(LongWatch {
                            clause: cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watches;
                    }
                }
                // No replacement: unit or conflict on `first`.
                if self.lit_values[first.code()] == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                }
                if !self.outside_domain(first.var()) {
                    self.enqueue(first, Some(cref));
                }
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
        // The learned clause is built in `clause_buf`; slot 0 is the
        // asserting literal.
        self.clause_buf.clear();
        self.clause_buf.push(Lit::from_code(0));
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
            for &code in self.clauses.lits(confl) {
                let q = Lit::from_code(code as usize);
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
                    self.clause_buf.push(q);
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
                self.clause_buf[0] = !l;
                break;
            }
            confl = self.reasons[l.var().index()]
                .expect("implied literal at the conflict level has a reason");
            resolve_lit = Some(l);
        }
        let learnt = &mut self.clause_buf;
        for lit in &learnt[1..] {
            self.seen[lit.var().index()] = false;
        }

        // Backjump level: highest level among the non-asserting literals.
        let level_of = |lit: Lit| self.levels[lit.var().index()];
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if level_of(learnt[i]) > level_of(learnt[max_i]) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            level_of(learnt[1])
        };
        let len = learnt.len();
        self.backtrack(backtrack_level);

        // Store the learned clause, watch it, propagate its asserting literal.
        self.stats.learned += 1;
        self.stats.learned_literals += len as u64;
        self.live_learned += 1;
        self.order.on_learned_clause(&self.clause_buf);
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
            proof_hints(
                &self.proof_of_cdg,
                &mut self.cited,
                &self.conflict_ants,
                &mut self.hints,
            );
            let pid = self.fresh_proof_id();
            self.map_proof(cdg_id, pid);
            self.proof
                .as_mut()
                .expect("checked above")
                .derived(pid, &self.clause_buf, &self.hints);
        }
        let cref = self.clauses.alloc(&self.clause_buf, true, cdg_id);
        self.note_arena_peak();
        self.clauses.set_activity(cref, 1);
        let asserting = self.clause_buf[0];
        if len >= 2 {
            let other = self.clause_buf[1];
            self.watch_clause(cref, len, asserting, other);
        }
        self.enqueue(asserting, Some(cref));
    }

    /// Undoes all assignments above `level`.
    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let new_len = self.trail_lim[level as usize];
        for i in (new_len..self.trail.len()).rev() {
            let lit = self.trail[i];
            self.lit_values[lit.code()] = LBool::Undef;
            self.lit_values[(!lit).code()] = LBool::Undef;
            self.reasons[lit.var().index()] = None;
            self.order.reinsert_var(lit.var());
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
            self.order.rebuild(&self.lit_values);
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
        self.clauses.lits(cref).iter().any(|&code| {
            let lit = Lit::from_code(code as usize);
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
        self.cdg_garbage = true;
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
            // below all old offsets still waiting to be patched. A removed
            // clause has no entries to rewrite.
            for &(old, new) in &remap {
                let cref = ClauseRef::at(new);
                let len = self.clauses.len(cref);
                if len < 2 || self.clauses.is_removed(cref) {
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

    /// Removes the two watch entries of `cref` (about to be deleted or
    /// removed). Its watched literals are slots 0 and 1 by the BCP
    /// invariant; unit and empty clauses are never watched.
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
                    .expect("detached binary clause is watched on slots 0/1");
                wl.bins.swap_remove(i);
            } else {
                let i = wl
                    .longs
                    .iter()
                    .position(|w| w.clause == cref)
                    .expect("detached long clause is watched on slots 0/1");
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
            }
        }
    }

    fn limit_exceeded(&self, limits: &Limits, base_conflicts: u64) -> bool {
        if let Some(n) = limits.max_conflicts {
            if self.stats.conflicts - base_conflicts >= n {
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
        // default to false in the model. A variable's value is that of its
        // positive literal, the first of its pair.
        let model = self
            .lit_values
            .chunks_exact(2)
            .map(|pair| pair[0] == LBool::True)
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
                    for &code in self.clauses.lits(reason) {
                        let qv = Lit::from_code(code as usize).var().index();
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
            for &code in self.clauses.lits(conflict) {
                if let Some(node) = self.unit_node[Lit::from_code(code as usize).var().index()] {
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
        if let Some(proof) = self.proof.as_mut() {
            proof_hints(
                &self.proof_of_cdg,
                &mut self.cited,
                &final_antecedents,
                &mut self.hints,
            );
            proof.finalize(&[], &self.hints);
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

/// Maps a CDG antecedent list to proof-line hints in propagation order,
/// into `hints`: conflict analysis walks the trail backward, so the list is
/// reversed, and duplicate citations (a root fact dropped from several
/// clauses) keep only their earliest position. Nodes and proof lines
/// correspond one to one, so `cited` (all false on entry and on return)
/// deduplicates per node in linear time.
fn proof_hints(
    proof_of_cdg: &[u64],
    cited: &mut Vec<bool>,
    ants: &[ClauseId],
    hints: &mut Vec<u64>,
) {
    if cited.len() < proof_of_cdg.len() {
        cited.resize(proof_of_cdg.len(), false);
    }
    hints.clear();
    for &ant in ants.iter().rev() {
        let node = ant as usize;
        if !cited[node] {
            cited[node] = true;
            hints.push(proof_of_cdg[node]);
        }
    }
    for &ant in ants {
        cited[ant as usize] = false;
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
        let (r, mut s) = solve_text("p cnf 2 3\n1 0\n-1 0\n2 0\n");
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
        // A formula that needs at least a couple of decisions; a zero
        // conflict budget stops the search at its first decision.
        let text = "p cnf 6 4\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n";
        let f = parse_dimacs(text).unwrap();
        let mut s = Solver::from_formula(&f);
        let r = s.solve_limited(&Limits::new().with_max_conflicts(0));
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
        // The eight clauses over x1..x3 come twice, gated by x4 ∧ x5 and by
        // x6, so a second episode searches again after a mid-session clause
        // was added and removed.
        let full = [
            "1 2 3", "1 2 -3", "1 -2 3", "1 -2 -3", "-1 2 3", "-1 2 -3", "-1 -2 3", "-1 -2 -3",
        ];
        let mut text = String::from("p cnf 6 16\n");
        for gate in ["-4 -5", "-6"] {
            for clause in full {
                text.push_str(&format!("{gate} {clause} 0\n"));
            }
        }
        let f = parse_dimacs(&text).unwrap();
        let mut s = Solver::from_formula_with(
            &f,
            SolverOptions {
                reduce_base: 2,
                reduce_inc: 0,
                luby_unit: 1,
                ..SolverOptions::default()
            },
        );
        assert_eq!(s.solve_under(&[lit(4), lit(5)]), SolveResult::Unsat);
        let stats = s.stats();
        assert!(stats.compactions > 0, "reduction must have run");
        assert!(
            stats.deleted > 0,
            "reduction must have deleted learned clauses"
        );
        // A mid-session clause lands after the learned records; removed at
        // once, it must stay unwatched wherever compaction moves it.
        let removed = s.add_clause(&[lit(7), lit(8), lit(9)]);
        s.remove_clause(removed);
        let before = s.original_refs[removed];
        // Retiring x4 satisfies the first episode's learned clauses at the
        // root; the second episode's reductions delete them, moving the
        // removed clause down.
        s.add_clause(&[lit(-4)]);
        assert_eq!(s.solve_under(&[lit(6)]), SolveResult::Unsat);
        assert!(s.original_refs[removed] < before, "compaction relocated it");
        assert!(s.is_removed(removed));
        // The core is still exact through all the relocation.
        let core = s.core_clauses().unwrap();
        let mut sub = f.subformula(core);
        sub.add_clause([lit(6)]);
        let mut s2 = Solver::from_formula(&sub);
        assert_eq!(s2.solve(), SolveResult::Unsat);
        // BCP still ignores the relocated clause.
        assert_eq!(
            s.solve_under(&[lit(-7), lit(-8), lit(-9)]),
            SolveResult::Sat
        );
    }

    #[test]
    fn removed_clause_stops_constraining_later_episodes() {
        // A long and a binary clause, each refuting its assumption pair.
        let f = parse_dimacs("p cnf 5 3\n-1 -2 -3 0\n-4 5 0\n1 4 0\n").unwrap();
        let mut s = Solver::from_formula(&f);
        assert_eq!(s.solve_under(&[lit(1), lit(2), lit(3)]), SolveResult::Unsat);
        assert_eq!(s.core_clauses().unwrap(), &[0]);
        assert_eq!(s.solve_under(&[lit(4), lit(-5)]), SolveResult::Unsat);
        assert_eq!(s.core_clauses().unwrap(), &[1]);
        s.remove_clause(0);
        s.remove_clause(1);
        s.remove_clause(1); // a second removal is a no-op
        assert!(s.is_removed(0) && s.is_removed(1) && !s.is_removed(2));
        assert_eq!(s.solve_under(&[lit(1), lit(2), lit(3)]), SolveResult::Sat);
        assert_eq!(s.solve_under(&[lit(4), lit(-5)]), SolveResult::Sat);
        // The clause that stays still binds, and the threshold base keeps
        // counting the removed clauses.
        assert_eq!(s.solve_under(&[lit(-1), lit(-4)]), SolveResult::Unsat);
        assert_eq!(s.core_clauses().unwrap(), &[2]);
        assert_eq!(s.num_original_literals(), 7);
    }

    #[test]
    fn core_after_removal_may_cite_the_removed_clause() {
        // x1 and x1 → x2 fix x2 at the root; removing x1 → x2 afterwards
        // keeps the fact, and the core of a refutation through it still
        // names the removed clause, whose literals `core_vars` reads.
        let f = parse_dimacs("p cnf 3 3\n1 0\n-1 2 0\n-3 1 0\n").unwrap();
        let mut s = Solver::from_formula(&f);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.remove_clause(1);
        assert_eq!(s.solve_under(&[lit(-2)]), SolveResult::Unsat);
        assert_eq!(s.core_clauses().unwrap(), &[0, 1]);
        assert_eq!(s.core_vars().unwrap(), vec![Var::new(0), Var::new(1)]);
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

    /// A domain of variables 1..=3 (DIMACS) next to an outside clause over
    /// 4 and 5, and two gates outside over domain fanins: `6 = 1 ∧ 2` and
    /// `7 = 1 ∨ 3`.
    fn domain_formula() -> rbmc_cnf::CnfFormula {
        let text = "p cnf 7 9\n1 2 0\n-2 3 0\n4 5 0\n\
                    -6 1 0\n-6 2 0\n6 -1 -2 0\n7 -1 0\n7 -3 0\n-7 1 3 0\n";
        parse_dimacs(text).unwrap()
    }

    fn domain(vars: &[i64]) -> Vec<Var> {
        vars.iter().map(|&v| lit(v).var()).collect()
    }

    #[test]
    fn domain_episode_decides_only_inside_its_domain() {
        let mut s = Solver::from_formula(&domain_formula());
        s.set_domain(&domain(&[1, 2, 3]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.stats().decisions <= 3);
        // Nothing outside the domain was decided or implied, so the
        // outside clause `4 ∨ 5` stays unsatisfied in the model.
        for v in 3..7 {
            assert!(
                s.lit_value(Var::new(v).positive()).is_undef(),
                "var {v} was assigned"
            );
        }
        let model = s.model().unwrap().to_vec();
        assert!(!model[3] && !model[4]);
        // The domain's own clauses hold.
        assert!(model[0] || model[1]);
        assert!(!model[1] || model[2]);
        // The domain lasts one episode, and an UNSAT answer under a domain
        // keeps its failed assumptions.
        s.set_domain(&domain(&[1, 2, 3]));
        assert_eq!(s.solve_under(&[lit(-1), lit(-3)]), SolveResult::Unsat);
        assert!(!s.failed_assumptions().is_empty());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model().unwrap()[3] || s.model().unwrap()[4]);
    }

    #[test]
    fn episode_after_domain_episodes_decides_every_active_variable() {
        let f = domain_formula();
        let mut s = Solver::from_formula(&f);
        for vars in [&[1, 2, 3][..], &[2, 3], &[1]] {
            s.set_domain(&domain(vars));
            assert_eq!(s.solve_under(&[lit(-1)]), SolveResult::Sat);
            s.order.audit(&s.lit_values).unwrap();
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.lit_values.iter().all(|v| !v.is_undef()));
        assert_eq!(f.evaluate(s.model().unwrap()), Some(true));
        s.order.audit(&s.lit_values).unwrap();
    }

    /// Domain episodes on random sessions whose outside clauses every
    /// domain assignment extends to (AND gates over earlier literals, and
    /// clauses over the domain gated by an outside activation literal)
    /// answer as the reference does, interleaved with episodes without a
    /// domain.
    #[test]
    fn domain_answers_match_the_reference() {
        use crate::reference_dpll;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rbmc_cnf::CnfFormula;

        const DOMAIN: usize = 6;
        const GATES: usize = 5;
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut f = CnfFormula::with_vars(DOMAIN + GATES + 1);
            let act = Var::new(DOMAIN + GATES).positive();
            let domain_lit =
                |rng: &mut StdRng| Lit::new(Var::new(rng.gen_range(0..DOMAIN)), rng.gen_bool(0.5));
            for _ in 0..rng.gen_range(2..10) {
                let clause: Vec<Lit> = (0..3).map(|_| domain_lit(&mut rng)).collect();
                if rng.gen_bool(0.5) {
                    f.add_clause(clause);
                } else {
                    f.add_clause([&[!act][..], &clause].concat());
                }
            }
            for g in 0..GATES {
                let out = Var::new(DOMAIN + g).positive();
                let fanin = |rng: &mut StdRng| {
                    let v = rng.gen_range(0..DOMAIN + g);
                    Lit::new(Var::new(v), rng.gen_bool(0.5))
                };
                let (a, b) = (fanin(&mut rng), fanin(&mut rng));
                f.add_clause([!out, a]);
                f.add_clause([!out, b]);
                f.add_clause([out, !a, !b]);
            }
            let mut s = Solver::from_formula(&f);
            let domain: Vec<Var> = (0..DOMAIN).map(Var::new).collect();
            for episode in 0..6 {
                let mut assumptions: Vec<Lit> = (0..rng.gen_range(0..3))
                    .map(|_| domain_lit(&mut rng))
                    .collect();
                if rng.gen_bool(0.5) {
                    assumptions.insert(0, act);
                }
                let with_domain = episode % 3 != 2;
                if with_domain {
                    s.set_domain(&domain);
                }
                let mut reference = f.clone();
                for &a in &assumptions {
                    reference.add_clause([a]);
                }
                let want = reference_dpll(&reference).is_some();
                let got = s.solve_under(&assumptions);
                assert_eq!(
                    got == SolveResult::Sat,
                    want,
                    "seed {seed}, episode {episode}"
                );
                if got == SolveResult::Sat {
                    let model = s.model().unwrap();
                    assert!(assumptions
                        .iter()
                        .all(|a| model[a.var().index()] == a.is_positive()));
                    let inside = |c: &[Lit]| {
                        c.iter().all(|l| {
                            l.var().index() < DOMAIN
                                || (l.var() == act.var() && assumptions.contains(&act))
                        })
                    };
                    for clause in &f {
                        if with_domain && !inside(clause.lits()) {
                            continue;
                        }
                        assert!(
                            clause
                                .lits()
                                .iter()
                                .any(|l| model[l.var().index()] == l.is_positive()),
                            "seed {seed}, episode {episode}: {clause:?}"
                        );
                    }
                }
                s.order.audit(&s.lit_values).unwrap();
            }
        }
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
