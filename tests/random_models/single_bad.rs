//! Random sequential circuits with one bad signal, for the differential
//! proptests that check a single property (`ic3_vs_bmc`,
//! `proptest_random_models`). Each test includes this file with `#[path]`.
//! The vendored proptest runner seeds every test alike, so each samples
//! the same recipes from run to run.

use proptest::prelude::*;
use refined_bmc::bmc::Model;
use refined_bmc::circuit::{LatchInit, Netlist, Signal};

/// Construction steps over a signal pool (inputs, latches, then gates).
#[derive(Debug, Clone)]
pub(crate) enum Step {
    And(usize, usize),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

#[derive(Debug, Clone)]
pub(crate) struct ModelRecipe {
    num_inputs: usize,
    latch_inits: Vec<LatchInit>,
    steps: Vec<Step>,
    nexts: Vec<usize>,
    bad: usize,
}

pub(crate) fn arb_recipe() -> impl Strategy<Value = ModelRecipe> {
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

pub(crate) fn build(recipe: &ModelRecipe) -> Model {
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
