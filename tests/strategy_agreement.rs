//! Cross-crate integration: every ordering strategy must reach the oracle's
//! verdict (and the exact minimal counterexample depth) on the whole small
//! suite.

use refined_bmc::bmc::oracle::{check_reachable, OracleVerdict};
use refined_bmc::bmc::{BmcEngine, BmcOptions, OrderingStrategy, PropertyVerdict};
use refined_bmc::gens::{small_suite, Expectation};

fn strategies() -> [OrderingStrategy; 5] {
    [
        OrderingStrategy::Standard,
        OrderingStrategy::RefinedStatic,
        OrderingStrategy::RefinedDynamic { divisor: 64 },
        OrderingStrategy::RefinedDynamic { divisor: 1 },
        OrderingStrategy::Shtrichman,
    ]
}

#[test]
fn all_strategies_match_the_oracle_on_the_small_suite() {
    for instance in small_suite() {
        // The suite's ground truth is itself verified against the oracle.
        let oracle = check_reachable(&instance.model, instance.max_depth);
        match (instance.expectation, oracle) {
            (Expectation::FailsAt(d), OracleVerdict::FailsAt(o)) => {
                assert_eq!(d, o, "{}: suite ground truth is wrong", instance.name);
            }
            (Expectation::Holds, OracleVerdict::HoldsUpTo(_)) => {}
            (e, o) => panic!("{}: expectation {e:?} vs oracle {o:?}", instance.name),
        }
        for strategy in strategies() {
            let mut engine = BmcEngine::new(
                instance.model.clone(),
                BmcOptions {
                    max_depth: instance.max_depth,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let run = engine.run_collecting();
            match (instance.expectation, &run.properties[0].verdict) {
                (Expectation::FailsAt(d), PropertyVerdict::Falsified { depth, trace }) => {
                    assert_eq!(*depth, d, "{} [{strategy:?}]", instance.name);
                    trace
                        .validate(engine.model())
                        .unwrap_or_else(|e| panic!("{} [{strategy:?}]: {e}", instance.name));
                }
                (Expectation::Holds, PropertyVerdict::OpenAt { depth }) => {
                    assert_eq!(*depth, instance.max_depth);
                }
                (e, o) => panic!("{} [{strategy:?}]: {e:?} vs {o}", instance.name),
            }
        }
    }
}

#[test]
fn per_depth_verdicts_are_identical_across_strategies() {
    // Not just the final verdict: the per-depth SAT/UNSAT sequence must be
    // identical, since the ordering only steers the search.
    for instance in small_suite().into_iter().take(5) {
        let mut reference: Option<Vec<rbmc_solver::SolveResult>> = None;
        for strategy in strategies() {
            let mut engine = BmcEngine::new(
                instance.model.clone(),
                BmcOptions {
                    max_depth: instance.max_depth,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let run = engine.run_collecting();
            let verdicts: Vec<_> = run.per_depth.iter().map(|d| d.result).collect();
            match &reference {
                None => reference = Some(verdicts),
                Some(expected) => {
                    assert_eq!(expected, &verdicts, "{} [{strategy:?}]", instance.name);
                }
            }
        }
    }
}
