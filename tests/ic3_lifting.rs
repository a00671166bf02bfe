//! What lifting obligation cubes buys IC3, pinned on the drift twins.
//!
//! `drifting_twin(banks, width)` holds because each bank's two shift
//! registers carry the same bits: the invariant `a_j ⇔ c_j` at every stage
//! of every bank, two two-literal clauses per stage. With every obligation a
//! full register state, IC3 blocks states one phase and bank content at a
//! time and returns hundreds of clauses. Lifted by ternary simulation, the
//! frontier's bad cube keeps only the phase and the mismatching taps, and
//! each predecessor only the stages that shift into its cube, so IC3 finds
//! the construction's invariant, under the unordered and the core-ordered
//! strategy alike.

use refined_bmc::bmc::{check_invariant, BmcOptions, Ic3Engine, OrderingStrategy, PropertyVerdict};
use refined_bmc::gens::families::drifting_twin;

#[test]
fn drift_twins_prove_with_two_clauses_per_stage() {
    for (banks, width) in [(4, 6), (4, 8)] {
        for strategy in [
            OrderingStrategy::Standard,
            OrderingStrategy::RefinedDynamic { divisor: 64 },
        ] {
            let mut engine = Ic3Engine::new(
                drifting_twin(banks, width),
                BmcOptions {
                    max_depth: 20,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let run = engine.run_collecting();
            let label = format!("drifting_twin({banks}, {width}) under {strategy:?}");
            let PropertyVerdict::Proved {
                invariant_clauses: Some(clauses),
                ..
            } = &run.properties[0].verdict
            else {
                panic!(
                    "{label}: expected a proof, got {}",
                    run.properties[0].verdict
                );
            };
            let working = engine.working_model();
            assert_eq!(
                check_invariant(working, working.bad(), clauses),
                Ok(()),
                "{label}"
            );
            assert!(
                clauses.len() <= 2 * banks * width,
                "{label}: {} invariant clauses, the construction needs {}",
                clauses.len(),
                2 * banks * width
            );
        }
    }
}
