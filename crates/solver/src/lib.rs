//! A Chaff-style CDCL SAT solver with refinable decision ordering and
//! unsatisfiable-core extraction.
//!
//! This crate reproduces the solver side of *"Refining the SAT Decision
//! Ordering for Bounded Model Checking"* (DAC 2004):
//!
//! - **DLL/CDCL search** (paper Fig. 1): watched-literal Boolean constraint
//!   propagation, first-UIP conflict analysis, non-chronological backtracking,
//!   Luby restarts, and periodic deletion of irrelevant learned clauses —
//!   the behaviour of Chaff that §3.1 works around.
//! - **Literal-based VSIDS** exactly as §3.3 describes Chaff's heuristic:
//!   every literal carries `cha_score(l)`, initialized to its literal count in
//!   the original CNF and periodically updated to
//!   `cha_score(l)/2 + new_lit_counts(l)`.
//! - **Simplified Conflict Dependency Graph** (§3.1): every learned clause is
//!   represented in the CDG by a pseudo-ID plus the IDs of its antecedent
//!   clauses. Deleting learned clause *bodies* does not break the CDG, so a
//!   complete unsatisfiable core is always recoverable.
//! - **Refined decision ordering** (§3.3): an externally supplied per-variable
//!   `bmc_score` can be combined with `cha_score` in a *static* mode
//!   (`bmc_score` primary, `cha_score` tiebreaker throughout) or a *dynamic*
//!   mode (static until `#decisions > #original_literals / divisor`, then
//!   fall back to pure VSIDS).
//! - **Decision domains**: [`Solver::set_domain`] restricts one episode's
//!   decisions and above-root propagation to a set of variables, and the
//!   episode answers SAT once they are all assigned (IC3's per-query cone;
//!   the BMC engine never sets one).
//! - **Proof logging**: [`Solver::start_proof`] makes the solver keep a
//!   clausal proof log, an [`rbmc_proof::ProofRecorder`], with LRAT hints
//!   taken from the CDG. The recorder's independent checker certifies each
//!   UNSAT episode; `rbmc-proof` depends on nothing but `rbmc-cnf`, so the
//!   checker never sees solver internals.
//!
//! # Examples
//!
//! ```
//! use rbmc_cnf::parse_dimacs;
//! use rbmc_solver::{Solver, SolveResult};
//!
//! // (x1 ∨ x2) ∧ (¬x1 ∨ x2) ∧ (¬x2) is unsatisfiable: the last two clauses
//! // force x2 = false and x1 = false, falsifying the first clause.
//! let f = parse_dimacs("p cnf 2 3\n1 2 0\n-1 2 0\n-2 0\n")?;
//! let mut solver = Solver::from_formula(&f);
//! assert_eq!(solver.solve(), SolveResult::Unsat);
//! let core = solver.core_clauses().expect("core is available after UNSAT");
//! assert!(!core.is_empty());
//! # Ok::<(), rbmc_cnf::ParseDimacsError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod cdg;
mod lbool;
mod limits;
mod marks;
mod order;
mod reference;
mod solver;
mod stats;

pub use lbool::LBool;
pub use limits::Limits;
pub use order::OrderMode;
pub use reference::{brute_force_sat, reference_dpll};
pub use solver::{SolveResult, Solver, SolverOptions};
pub use stats::SolverStats;
