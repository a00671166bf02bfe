//! The DAC 2004 contribution: BMC with a successively *refined* SAT decision
//! ordering.
//!
//! Bounded model checking of an invariant `G P` unrolls the model
//! `⟨V, W, I, T⟩` into the satisfiability question of Eq. 1:
//!
//! ```text
//! F_k  =  I(V⁰) ∧ ⋀_{1≤i≤k} T(V^{i-1}, Wⁱ, Vⁱ) ∧ ¬P(V^k)
//! ```
//!
//! `F_k` is satisfiable iff a length-`k` counterexample exists. The paper's
//! observation: the `F_k` are highly correlated and almost all UNSAT, and
//! each UNSAT proof yields an unsatisfiable core whose variables form an
//! abstract model sufficient to refute length-`k` counterexamples. Ranking
//! variables by how often (and how recently) they appeared in previous cores
//! — `bmc_score(x) = Σ_j in_unsat(x, j) · j` — and deciding them first makes
//! the next instance much easier (§3.2, Fig. 5).
//!
//! This crate provides:
//!
//! - [`VerificationProblem`] / [`ProblemBuilder`]: a sequential netlist plus
//!   a *set* of named bad-state properties, built from a netlist, an AIG, an
//!   AIGER file (`VerificationProblem::from_aiger`, both encodings), or a
//!   [`Model`]. All properties share one unrolled transition relation and
//!   one solving session.
//! - [`Model`]: the thin single-property view (netlist + one bad-state
//!   predicate `¬P`) the paper's per-run setup and the figure-reproducing
//!   binaries use.
//! - [`Unroller`]: Tseitin encoding of Eq. 1 with **frame-stable variable
//!   numbering**, so variable identities (and hence `varRank`) transfer
//!   between instances.
//! - [`VarRank`]: the paper's score table with the linear weighting of §3.2
//!   (plus uniform / last-core-only ablations).
//! - [`BmcEngine`]: the `refine_order_bmc` loop of Fig. 5 with the
//!   [`OrderingStrategy`] variants of §3.3 (standard VSIDS, refined static,
//!   refined dynamic, and Shtrichman's time-axis ordering as the related-work
//!   baseline), generalized to property sets: every still-open property is
//!   solved per depth under its own activation literal, retires individually
//!   with a validated witness ([`PropertyVerdict`]), and `varRank` refreshes
//!   from the union of the open properties' cores.
//! - [`Trace`]: counterexample extraction and replay validation on the
//!   circuit simulator.
//! - [`preprocess_problem`] / [`TraceLift`]: engine-path structural
//!   preprocessing — constant sweeping, structural hashing, and restriction
//!   to the union of the properties' cones of influence — with trace lifting
//!   back to original coordinates. On by default
//!   ([`BmcOptions::preprocess`]); every node removed is removed from every
//!   frame of the unrolling.
//! - [`oracle`]: an explicit-state BFS reachability checker used as ground
//!   truth in tests.
//! - [`ic3`]: an IC3 engine over the same session solver, with the paper's
//!   core ranking transplanted to per-frame **assumption ordering** (see
//!   the module docs), and [`PropertyVerdict::Proved`] verdicts carrying
//!   extracted inductive invariants that [`check_invariant`] machine-checks
//!   — the "combine with other techniques" extension the paper's
//!   conclusion anticipates.
//!
//! # Examples
//!
//! ```
//! use rbmc_circuit::{LatchInit, Netlist};
//! use rbmc_core::{BmcEngine, BmcOptions, Model, OrderingStrategy, PropertyVerdict};
//!
//! // A 3-bit counter; "counter never reaches 5" fails at depth 5.
//! let mut n = Netlist::new();
//! let bits: Vec<_> = (0..3).map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero)).collect();
//! let next = n.bus_increment(&bits);
//! for (&b, &nx) in bits.iter().zip(&next) { n.set_next(b, nx); }
//! let bad = n.bus_eq_const(&bits, 5);
//! let model = Model::new("counter3", n, bad);
//!
//! let mut engine = BmcEngine::new(model, BmcOptions {
//!     max_depth: 10,
//!     strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
//!     ..BmcOptions::default()
//! });
//! let run = engine.run_collecting();
//! match &run.properties[0].verdict {
//!     PropertyVerdict::Falsified { depth, trace } => {
//!         assert_eq!(*depth, 5);
//!         assert!(trace.validate(engine.model()).is_ok());
//!     }
//!     other => panic!("expected a counterexample, got {other}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ic3;
pub mod oracle;

mod certify;
mod engine;
mod model;
mod preprocess;
mod problem;
mod ranking;
mod shtrichman;
mod trace;
mod unroll;

pub use certify::{ProofMode, ProofSummary};
pub use engine::{
    BmcEngine, BmcOptions, BmcRun, DepthStats, OrderingStrategy, PropertyReport, PropertyVerdict,
    SolverReuse,
};
pub use ic3::{check_invariant, Ic3Engine, InvariantClause, InvariantError};
pub use model::Model;
pub use preprocess::{preprocess_problem, PreprocessedProblem, TraceLift};
pub use problem::{FromAigerError, ProblemBuilder, Property, VerificationProblem};
pub use ranking::{VarRank, Weighting};
// Re-exported because it appears throughout the engine's public API
// (`DepthStats::result`, per-depth verdict comparisons).
pub use rbmc_solver::SolveResult;
pub use shtrichman::shtrichman_rank;
pub use trace::{Trace, TraceError};
pub use unroll::Unroller;
