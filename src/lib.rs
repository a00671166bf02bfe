//! # refined-bmc
//!
//! A from-scratch Rust reproduction of *"Refining the SAT Decision Ordering
//! for Bounded Model Checking"* (Wang, Jin, Hachtel, Somenzi — DAC 2004).
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`cnf`] — variables, literals, clauses, formulas, DIMACS I/O.
//! - [`solver`] — a Chaff-style CDCL SAT solver with literal-based VSIDS,
//!   learned-clause deletion, and unsat-core extraction through a simplified
//!   conflict dependency graph (the paper's §3.1).
//! - [`circuit`] — sequential gate-level netlists, AIGs, simulation,
//!   cone-of-influence, AIGER I/O.
//! - [`bmc`] — the paper's contribution: Tseitin unrolling with frame-stable
//!   variable numbering, the `refine_order_bmc` engine (Fig. 5), `bmc_score`
//!   ranking (§3.2), and the static/dynamic ordering application (§3.3).
//! - [`proof`] — the independent DRAT/LRAT certificate checker: UNSAT
//!   verdicts of the solver are re-derived from its clausal proof log with
//!   no access to solver internals (`rbmc --proof check`).
//! - [`gens`] — the synthetic benchmark suite standing in for the IBM Formal
//!   Verification benchmarks of §4.
//!
//! # Quickstart
//!
//! Check an invariant on a small sequential circuit:
//!
//! ```
//! use refined_bmc::bmc::{BmcEngine, BmcOptions, OrderingStrategy, PropertyVerdict};
//! use refined_bmc::gens::families;
//!
//! // An 8-bit enable-gated counter stepping by 2: it only ever holds even
//! // values, so the property "counter != 21" holds at every depth.
//! let model = families::gated_counter(8, 2, 21);
//! let mut engine = BmcEngine::new(model, BmcOptions {
//!     max_depth: 20,
//!     strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
//!     ..BmcOptions::default()
//! });
//! let run = engine.run_collecting();
//! assert!(matches!(run.properties[0].verdict, PropertyVerdict::OpenAt { depth: 20 }));
//! ```

pub use rbmc_circuit as circuit;
pub use rbmc_cnf as cnf;
pub use rbmc_core as bmc;
pub use rbmc_gens as gens;
pub use rbmc_proof as proof;
pub use rbmc_solver as solver;
