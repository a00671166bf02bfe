//! Synthetic benchmark circuits standing in for the IBM Formal Verification
//! benchmarks of the paper's §4.
//!
//! The original 37 industrial model/property instances are no longer
//! distributable, so this crate generates parameterized sequential circuits
//! with the property *structure* the refinement exploits: correlated SAT
//! instances whose UNSAT cores concentrate on a stable sub-cone of the model
//! (control registers, interlocks, invariant-carrying state). Families:
//!
//! | family | failing variant | passing variant |
//! |---|---|---|
//! | gated counter | reaches an even target | odd target unreachable (step = 2) |
//! | shift register | all-ones window observed | twin copies never diverge |
//! | token ring | injection bug double-grants | one-hot token mutual exclusion |
//! | FIFO | unguarded push overflows | guarded counter never overflows |
//! | combination lock | code sequence opens it | impossible code step |
//! | TMR voter | two faults per cycle break it | one fault per cycle is masked |
//! | valid pipeline | token emerges at the end | no token without insertion |
//! | gray counter | binary flips ≥ 3 bits | gray flips exactly 1 bit |
//! | traffic light | sensor bug double-greens | interlock holds |
//! | LFSR | tap state reached | zero state unreachable from seed |
//!
//! Each [`BenchInstance`] carries its ground truth ([`Expectation`]) so the
//! harness can verify verdicts, and [`suite_table1`] assembles 37 named
//! instances mirroring the shape of the paper's Table 1 (a mix of failing
//! properties and passing properties checked up to a depth bound).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod families;

mod lint_suite;
mod suite;

pub use lint_suite::{lint_suite, LintSpecimen};
pub use suite::{proof_suite, small_suite, suite_table1, BenchInstance, Expectation};
