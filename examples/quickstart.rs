//! Quickstart: check an invariant on a small sequential circuit with the
//! refined decision ordering.
//!
//! Run with: `cargo run --example quickstart`

use refined_bmc::bmc::{BmcEngine, BmcOptions, Model, OrderingStrategy, PropertyVerdict};
use refined_bmc::circuit::{LatchInit, Netlist};

fn main() {
    // Build the model: an 8-bit counter that only counts when `en` is high.
    // Property: "the counter never reaches 42".
    let mut netlist = Netlist::new();
    let en = netlist.add_input("en");
    let bits: Vec<_> = (0..8)
        .map(|i| netlist.add_latch(&format!("c{i}"), LatchInit::Zero))
        .collect();
    let incremented = netlist.bus_increment(&bits);
    for (&bit, &inc) in bits.iter().zip(&incremented) {
        let next = netlist.mux(en, inc, bit);
        netlist.set_next(bit, next);
    }
    let bad = netlist.bus_eq_const(&bits, 42);
    let model = Model::new("counter8", netlist, bad);

    // Run refine_order_bmc (paper Fig. 5) with the dynamic configuration.
    let mut engine = BmcEngine::new(
        model,
        BmcOptions {
            max_depth: 50,
            strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();

    match &run.properties[0].verdict {
        PropertyVerdict::Falsified { depth, trace } => {
            println!("property FAILS: counterexample of length {depth}");
            println!(
                "trace validates: {:?}",
                trace.validate(engine.model()).is_ok()
            );
        }
        other => println!("property not falsified: {other}"),
    }
    println!(
        "work: {} decisions, {} implications, {} conflicts over {} depths in {:?}",
        run.total_decisions(),
        run.total_implications(),
        run.total_conflicts(),
        run.per_depth.len(),
        run.total_time
    );
    println!(
        "varRank after the run: {} variables carry a non-zero bmc_score",
        engine.rank().num_ranked()
    );
}
