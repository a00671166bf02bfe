//! Property-based integration: random sequential circuits are checked by
//! BMC under every strategy and compared against the explicit-state oracle.

use proptest::prelude::*;
use refined_bmc::bmc::oracle::{check_reachable, OracleVerdict};
use refined_bmc::bmc::{BmcEngine, BmcOptions, Model, OrderingStrategy, PropertyVerdict};
use refined_bmc::circuit::{LatchInit, Netlist, Signal};

/// Construction steps over a signal pool (inputs, latches, then gates).
#[derive(Debug, Clone)]
enum Step {
    And(usize, usize),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

#[derive(Debug, Clone)]
struct ModelRecipe {
    num_inputs: usize,
    latch_inits: Vec<LatchInit>,
    steps: Vec<Step>,
    nexts: Vec<usize>,
    bad: usize,
}

fn arb_recipe() -> impl Strategy<Value = ModelRecipe> {
    let init = prop_oneof![
        Just(LatchInit::Zero),
        Just(LatchInit::One),
        Just(LatchInit::Free)
    ];
    (1usize..3, prop::collection::vec(init, 1..4)).prop_flat_map(|(num_inputs, latch_inits)| {
        let steps = prop::collection::vec(
            prop_oneof![
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::And(a, b)),
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::Xor(a, b)),
                (0usize..64, 0usize..64, 0usize..64).prop_map(|(s, a, b)| Step::Mux(s, a, b)),
            ],
            1..10,
        );
        let nl = latch_inits.len();
        (steps, Just(latch_inits)).prop_flat_map(move |(steps, latch_inits)| {
            let pool = 1 + num_inputs + nl + steps.len();
            (
                prop::collection::vec(0usize..pool, nl),
                0usize..pool,
                Just(steps),
                Just(latch_inits),
            )
                .prop_map(move |(nexts, bad, steps, latch_inits)| ModelRecipe {
                    num_inputs,
                    latch_inits,
                    steps,
                    nexts,
                    bad,
                })
        })
    })
}

fn build(recipe: &ModelRecipe) -> Model {
    let mut n = Netlist::new();
    let mut pool: Vec<Signal> = vec![Signal::TRUE];
    for i in 0..recipe.num_inputs {
        pool.push(n.add_input(&format!("i{i}")));
    }
    let latches: Vec<Signal> = recipe
        .latch_inits
        .iter()
        .enumerate()
        .map(|(i, &init)| {
            let l = n.add_latch(&format!("l{i}"), init);
            pool.push(l);
            l
        })
        .collect();
    for step in &recipe.steps {
        let pick = |i: usize, pool: &Vec<Signal>| pool[i % pool.len()];
        let s = match *step {
            Step::And(a, b) => {
                let (x, y) = (pick(a, &pool), pick(b, &pool));
                n.and2(x, y)
            }
            Step::Xor(a, b) => {
                let (x, y) = (pick(a, &pool), pick(b, &pool));
                n.xor2(x, y)
            }
            Step::Mux(s, a, b) => {
                let (c, x, y) = (pick(s, &pool), pick(a, &pool), pick(b, &pool));
                n.mux(c, x, y)
            }
        };
        pool.push(s);
    }
    for (&l, &nx) in latches.iter().zip(&recipe.nexts) {
        n.set_next(l, pool[nx % pool.len()]);
    }
    let bad = pool[recipe.bad % pool.len()];
    Model::new("random", n, bad)
}

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
