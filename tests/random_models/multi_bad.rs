//! Random sequential circuits with one to three bad signals, as one
//! property set each, for the multi-property differential proptests
//! (`session_vs_fresh`, `preprocess_vs_raw`). Random `nexts` routinely
//! produce self-looping (stuck) latches and out-of-cone logic, so
//! preprocessing has real work on most cases. Each test includes this file
//! with `#[path]`. The vendored proptest runner seeds every test alike, so
//! each samples the same recipes from run to run.

use proptest::prelude::*;
use refined_bmc::bmc::{ProblemBuilder, VerificationProblem};
use refined_bmc::circuit::{LatchInit, Netlist, Signal};

/// Construction steps over a signal pool (inputs, latches, then gates).
#[derive(Debug, Clone)]
pub(crate) enum Step {
    And(usize, usize),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

#[derive(Debug, Clone)]
pub(crate) struct ProblemRecipe {
    num_inputs: usize,
    latch_inits: Vec<LatchInit>,
    steps: Vec<Step>,
    nexts: Vec<usize>,
    bads: Vec<usize>,
}

pub(crate) fn arb_recipe() -> impl Strategy<Value = ProblemRecipe> {
    let init = prop_oneof![
        Just(LatchInit::Zero),
        Just(LatchInit::One),
        Just(LatchInit::Free)
    ];
    (1usize..3, prop::collection::vec(init, 1..5)).prop_flat_map(|(num_inputs, latch_inits)| {
        let steps = prop::collection::vec(
            prop_oneof![
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::And(a, b)),
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::Xor(a, b)),
                (0usize..64, 0usize..64, 0usize..64).prop_map(|(s, a, b)| Step::Mux(s, a, b)),
            ],
            1..12,
        );
        let nl = latch_inits.len();
        (steps, Just(latch_inits)).prop_flat_map(move |(steps, latch_inits)| {
            let pool = 1 + num_inputs + nl + steps.len();
            (
                prop::collection::vec(0usize..pool, nl),
                prop::collection::vec(0usize..pool, 1..4),
                Just(steps),
                Just(latch_inits),
            )
                .prop_map(move |(nexts, bads, steps, latch_inits)| ProblemRecipe {
                    num_inputs,
                    latch_inits,
                    steps,
                    nexts,
                    bads,
                })
        })
    })
}

/// Every bad signal of the recipe as one property set.
pub(crate) fn build(recipe: &ProblemRecipe) -> VerificationProblem {
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
    let mut builder = ProblemBuilder::new("random", n);
    for (i, &b) in recipe.bads.iter().enumerate() {
        builder = builder.property(&format!("p{i}"), pool[b % pool.len()]);
    }
    builder.build()
}
