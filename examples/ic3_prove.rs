//! Prove a property outright with IC3 (the "combine with other techniques"
//! extension the paper's conclusion anticipates), instead of only refuting
//! bounded counterexamples — and check the extracted invariant
//! independently before believing the proof.
//!
//! Run with: `cargo run --example ic3_prove`

use refined_bmc::bmc::{check_invariant, BmcOptions, Ic3Engine, PropertyVerdict};
use refined_bmc::gens::families;

fn main() {
    // A passing property BMC alone can never settle: the guarded FIFO never
    // overflows, at ANY depth — IC3 proves it for good.
    let model = families::fifo_guarded(3);
    println!(
        "proving `{}` ({} registers) with IC3…",
        model.name(),
        model.num_registers()
    );
    let mut engine = Ic3Engine::new(model, BmcOptions::default());
    let run = engine.run_collecting();
    match &run.properties[0].verdict {
        PropertyVerdict::Proved {
            depth,
            invariant_clauses: Some(clauses),
        } => {
            let working = engine.working_model();
            match check_invariant(working, working.bad(), clauses) {
                Ok(()) => println!(
                    "PROVED at frame {depth}: a {}-clause inductive invariant, \
                     independently checked (holds in all reachable states)",
                    clauses.len()
                ),
                Err(e) => println!("invariant REJECTED: {e}"),
            }
        }
        other => println!("no proof: {other}"),
    }

    // And a failing property yields a depth-exact, replayable witness.
    let buggy = families::fifo_unguarded(2);
    println!("\nchecking `{}` the same way…", buggy.name());
    let mut engine = Ic3Engine::new(buggy, BmcOptions::default());
    let run = engine.run_collecting();
    match &run.properties[0].verdict {
        PropertyVerdict::Falsified { depth, trace } => {
            println!("FALSIFIED at depth {depth}; replaying the trace:");
            print!("{}", trace.render(engine.model()));
        }
        other => println!("unexpected outcome: {other}"),
    }
}
