//! Property-based integration: random sequential circuits are checked by
//! BMC under every strategy and compared against the explicit-state oracle.

#[path = "random_models/single_bad.rs"]
mod random_models;

use proptest::prelude::*;
use random_models::{arb_recipe, build};
use refined_bmc::bmc::oracle::{check_reachable, OracleVerdict};
use refined_bmc::bmc::{BmcEngine, BmcOptions, OrderingStrategy, PropertyVerdict};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bmc_matches_oracle_on_random_models(recipe in arb_recipe()) {
        const DEPTH: usize = 6;
        let model = build(&recipe);
        let oracle = check_reachable(&model, DEPTH);
        for strategy in [
            OrderingStrategy::Standard,
            OrderingStrategy::RefinedStatic,
            OrderingStrategy::RefinedDynamic { divisor: 64 },
            OrderingStrategy::Shtrichman,
        ] {
            let mut engine = BmcEngine::new(
                model.clone(),
                BmcOptions { max_depth: DEPTH, strategy, ..BmcOptions::default() },
            );
            let run = engine.run_collecting();
            match (oracle, &run.properties[0].verdict) {
                (OracleVerdict::FailsAt(d), PropertyVerdict::Falsified { depth, trace }) => {
                    prop_assert_eq!(*depth, d, "{:?}", strategy);
                    prop_assert!(trace.validate(engine.model()).is_ok());
                }
                (OracleVerdict::HoldsUpTo(_), PropertyVerdict::OpenAt { depth }) => {
                    prop_assert_eq!(*depth, DEPTH);
                }
                (o, b) => prop_assert!(false, "oracle {o:?} vs bmc {b} under {strategy:?}"),
            }
        }
    }
}
