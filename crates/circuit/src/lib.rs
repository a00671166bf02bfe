//! Sequential gate-level circuits for the `refined-bmc` workspace.
//!
//! BMC (the `rbmc-core` crate) checks invariants of *models*
//! `⟨V, W, I, T⟩` — registers, inputs, an initial-state predicate, and a
//! transition relation. This crate provides the concrete representation of
//! such models and every operation the pipeline needs:
//!
//! - [`Netlist`]: a multi-operator sequential netlist (inputs, latches with
//!   initial values, n-ary AND/OR/XOR, MUX) with signal-level negation,
//!   light constant folding, and well-formedness validation.
//! - [`sim`]: a cycle-accurate two-valued simulator, used as the test oracle
//!   and to replay BMC counterexample traces.
//! - [`coi`]: cone-of-influence analysis.
//! - [`preprocess`]: the engine-path structural pass — constant sweeping,
//!   structural hashing, and COI restriction to a fixpoint, with maps for
//!   lifting traces back to original coordinates.
//! - [`Aig`]: an and-inverter-graph form with structural hashing, plus
//!   lowering from [`Netlist`].
//! - [`aiger`]: the AIGER reader and writer (both encodings), the one
//!   interchange format the pipeline reads.
//! - [`lint`]: static checks on raw AIGER bytes before they are solved.
//! - [`stats`]: input, latch and gate counts.
//!
//! # Examples
//!
//! A 2-bit counter with an overflow flag:
//!
//! ```
//! use rbmc_circuit::{LatchInit, Netlist};
//!
//! let mut n = Netlist::new();
//! let b0 = n.add_latch("b0", LatchInit::Zero);
//! let b1 = n.add_latch("b1", LatchInit::Zero);
//! // b0' = !b0; b1' = b1 ^ b0.
//! n.set_next(b0, !b0);
//! let sum = n.xor2(b1, b0);
//! n.set_next(b1, sum);
//! let overflow = n.and2(b0, b1);
//! n.add_output("overflow", overflow);
//! n.validate().expect("well-formed");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aiger;
pub mod coi;
pub mod lint;
pub mod preprocess;
pub mod sim;
pub mod stats;

mod aig;
mod netlist;

pub use aig::{Aig, AigLit, AigToNetlist, NetlistToAig};
pub use netlist::{GateOp, LatchInit, Netlist, NetlistError, Node, NodeId, Signal};
