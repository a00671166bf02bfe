//! Differential property test: the IC3 engine against the BMC oracle.
//!
//! Random sequential circuits are checked by both engines to the same bound.
//! Wherever BMC finds a counterexample, IC3 must falsify at the **same**
//! depth with a validated trace; wherever BMC leaves the property open, IC3
//! may either agree (open at the bound) or close it with a proof — and every
//! proof must carry an invariant that passes [`check_invariant`]'s
//! initiation, consecution and safety checks. A second,
//! deterministic test runs the proving specimens of `proof_suite` and the
//! holding instances of `small_suite` end to end: all of them must prove,
//! under both the unordered and the core-ordered assumption ranking.

#[path = "random_models/single_bad.rs"]
mod random_models;

use proptest::prelude::*;
use random_models::{arb_recipe, build};
use refined_bmc::bmc::{
    check_invariant, BmcEngine, BmcOptions, Ic3Engine, OrderingStrategy, PropertyVerdict,
};
use refined_bmc::gens::{proof_suite, small_suite, Expectation};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ic3_agrees_with_the_bmc_oracle_on_random_models(recipe in arb_recipe()) {
        const DEPTH: usize = 6;
        let model = build(&recipe);
        let mut bmc = BmcEngine::new(
            model.clone(),
            BmcOptions { max_depth: DEPTH, ..BmcOptions::default() },
        );
        let bmc_run = bmc.run_collecting();
        let bmc_verdict = &bmc_run.properties[0].verdict;
        for strategy in [OrderingStrategy::Standard, OrderingStrategy::RefinedStatic] {
            let mut engine = Ic3Engine::new(
                model.clone(),
                BmcOptions { max_depth: DEPTH, strategy, ..BmcOptions::default() },
            );
            let run = engine.run_collecting();
            let verdict = &run.properties[0].verdict;
            match bmc_verdict {
                PropertyVerdict::Falsified { depth: oracle_depth, .. } => match verdict {
                    PropertyVerdict::Falsified { depth, trace } => {
                        prop_assert_eq!(depth, oracle_depth, "{:?}", strategy);
                        prop_assert!(
                            trace.validate(engine.model()).is_ok(),
                            "{:?}: ic3 trace fails replay", strategy
                        );
                    }
                    other => prop_assert!(
                        false,
                        "bmc falsified at {oracle_depth} but ic3 said {other} under {strategy:?}"
                    ),
                },
                PropertyVerdict::OpenAt { .. } => match verdict {
                    PropertyVerdict::Proved { invariant_clauses: Some(clauses), .. } => {
                        let working = engine.working_model();
                        let checked = check_invariant(working, working.bad(), clauses);
                        prop_assert!(
                            checked.is_ok(),
                            "{strategy:?}: proof invariant rejected: {checked:?}"
                        );
                    }
                    PropertyVerdict::OpenAt { depth } => {
                        prop_assert_eq!(*depth, DEPTH, "{:?}", strategy);
                    }
                    other => prop_assert!(
                        false,
                        "bmc left the property open but ic3 said {other} under {strategy:?}"
                    ),
                },
                other => prop_assert!(false, "unexpected bmc verdict {other}"),
            }
        }
    }
}

/// The dedicated proving specimens and the small suite's holding instances
/// all close under IC3 — with either assumption order — and every extracted
/// invariant survives the independent inductive check.
#[test]
fn proof_suite_proves_under_both_assumption_orders() {
    let holding = small_suite()
        .into_iter()
        .filter(|instance| instance.expectation == Expectation::Holds);
    for instance in proof_suite().into_iter().chain(holding) {
        assert_eq!(
            instance.expectation,
            Expectation::Holds,
            "{}",
            instance.name
        );
        for strategy in [OrderingStrategy::Standard, OrderingStrategy::RefinedStatic] {
            let mut engine = Ic3Engine::new(
                instance.model.clone(),
                BmcOptions {
                    max_depth: 20,
                    strategy,
                    ..BmcOptions::default()
                },
            );
            let run = engine.run_collecting();
            match &run.properties[0].verdict {
                PropertyVerdict::Proved {
                    invariant_clauses: Some(clauses),
                    ..
                } => {
                    let working = engine.working_model();
                    check_invariant(working, working.bad(), clauses).unwrap_or_else(|e| {
                        panic!("{} [{strategy:?}]: invariant rejected: {e}", instance.name)
                    });
                }
                other => panic!(
                    "{} [{strategy:?}]: expected a proof, got {other}",
                    instance.name
                ),
            }
        }
    }
}
