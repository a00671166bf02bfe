//! Property-based tests: random netlists survive AIG lowering and AIGER
//! roundtrips with identical sequential behaviour.

use proptest::prelude::*;
use rbmc_circuit::aiger::{parse_aag, parse_aig, parse_aiger, write_aag, write_aig};
use rbmc_circuit::sim::{read_signal, Simulator};
use rbmc_circuit::{Aig, LatchInit, Netlist, Signal};

/// A recipe for one random netlist: a list of gate-construction steps over a
/// pool of existing signals.
#[derive(Debug, Clone)]
enum Step {
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Mux(usize, usize, usize),
    NotOf(usize),
}

#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    latch_inits: Vec<bool>,
    steps: Vec<Step>,
    /// For each latch: which pool signal drives its next state.
    nexts: Vec<usize>,
    /// Which pool signals become outputs.
    outputs: Vec<usize>,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (1usize..4, 1usize..4).prop_flat_map(|(num_inputs, num_latches)| {
        let pool0 = num_inputs + num_latches + 1; // +1 for constant TRUE
        let steps = prop::collection::vec(
            prop_oneof![
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::And(a, b)),
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::Or(a, b)),
                (0usize..64, 0usize..64).prop_map(|(a, b)| Step::Xor(a, b)),
                (0usize..64, 0usize..64, 0usize..64).prop_map(|(s, a, b)| Step::Mux(s, a, b)),
                (0usize..64).prop_map(Step::NotOf),
            ],
            1..12,
        );
        let inits = prop::collection::vec(any::<bool>(), num_latches);
        (steps, inits).prop_flat_map(move |(steps, latch_inits)| {
            let pool_size = pool0 + steps.len();
            let nexts = prop::collection::vec(0usize..pool_size, num_latches);
            let outputs = prop::collection::vec(0usize..pool_size, 1..3);
            (nexts, outputs).prop_map({
                let steps = steps.clone();
                let latch_inits = latch_inits.clone();
                move |(nexts, outputs)| Recipe {
                    num_inputs,
                    latch_inits: latch_inits.clone(),
                    steps: steps.clone(),
                    nexts,
                    outputs,
                }
            })
        })
    })
}

/// Materializes the recipe into a netlist.
fn build(recipe: &Recipe) -> Netlist {
    let mut n = Netlist::new();
    let mut pool: Vec<Signal> = vec![Signal::TRUE];
    for i in 0..recipe.num_inputs {
        pool.push(n.add_input(&format!("in{i}")));
    }
    let mut latch_sigs = Vec::new();
    for (i, &one) in recipe.latch_inits.iter().enumerate() {
        let init = if one { LatchInit::One } else { LatchInit::Zero };
        let l = n.add_latch(&format!("r{i}"), init);
        latch_sigs.push(l);
        pool.push(l);
    }
    for step in &recipe.steps {
        let pick = |i: usize, pool: &Vec<Signal>| pool[i % pool.len()];
        let s = match *step {
            Step::And(a, b) => {
                let (x, y) = (pick(a, &pool), pick(b, &pool));
                n.and2(x, y)
            }
            Step::Or(a, b) => {
                let (x, y) = (pick(a, &pool), pick(b, &pool));
                n.or2(x, y)
            }
            Step::Xor(a, b) => {
                let (x, y) = (pick(a, &pool), pick(b, &pool));
                n.xor2(x, y)
            }
            Step::Mux(s, a, b) => {
                let (c, x, y) = (pick(s, &pool), pick(a, &pool), pick(b, &pool));
                n.mux(c, x, y)
            }
            Step::NotOf(a) => !pick(a, &pool),
        };
        pool.push(s);
    }
    for (latch, &nx) in latch_sigs.iter().zip(&recipe.nexts) {
        n.set_next(*latch, pool[nx % pool.len()]);
    }
    for (i, &o) in recipe.outputs.iter().enumerate() {
        n.add_output(&format!("y{i}"), pool[o % pool.len()]);
    }
    n
}

/// Deterministic pseudo-random input sequence.
fn input_at(step: usize, k: usize) -> bool {
    (step * 7 + k * 13) % 5 < 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn netlist_validates(recipe in arb_recipe()) {
        let n = build(&recipe);
        prop_assert!(n.validate().is_ok());
    }

    #[test]
    fn aig_lowering_preserves_behaviour(recipe in arb_recipe()) {
        let n = build(&recipe);
        let lowered = Aig::from_netlist(&n);
        let aig = &lowered.aig;
        // Step both side by side.
        let mut sim = Simulator::new(&n);
        let mut aig_state: Vec<bool> = aig
            .latches()
            .iter()
            .map(|&l| matches!(aig.init_of(l), Some(LatchInit::One)))
            .collect();
        for s in 0..12 {
            let inputs: Vec<bool> = (0..n.num_inputs()).map(|k| input_at(s, k)).collect();
            let net_vals = sim.frame_values(&inputs);
            let aig_vals = aig.eval_frame(&aig_state, &inputs);
            for ((_, sig), (_, lit)) in n.outputs().iter().zip(aig.outputs()) {
                prop_assert_eq!(
                    read_signal(&net_vals, *sig),
                    lit.apply(aig_vals[lit.node()]),
                    "output diverged at step {}", s
                );
            }
            sim.step(&inputs);
            aig_state = aig
                .latches()
                .iter()
                .map(|&l| {
                    let nx = aig.next_of(l).unwrap();
                    nx.apply(aig_vals[nx.node()])
                })
                .collect();
        }
    }

    #[test]
    fn binary_and_ascii_aiger_roundtrips_agree(recipe in arb_recipe()) {
        // Lower a random netlist, promote its outputs to bad-state
        // properties (the multi-property ingestion path), and round-trip
        // through BOTH encodings: the canonical ASCII re-serialization of
        // either parse must be byte-identical, and behaviour (outputs and
        // bads) must be preserved through the binary format.
        let n = build(&recipe);
        let lowered = Aig::from_netlist(&n);
        let mut aig = lowered.aig;
        let outs: Vec<(String, rbmc_circuit::AigLit)> = aig.outputs().to_vec();
        for (name, lit) in &outs {
            aig.add_bad(&format!("bad_{name}"), *lit);
        }
        let ascii = write_aag(&aig);
        let binary = write_aig(&aig);
        let via_ascii = parse_aag(&ascii).unwrap();
        let via_binary = parse_aig(&binary).unwrap();
        prop_assert_eq!(write_aag(&via_ascii), write_aag(&via_binary));
        prop_assert_eq!(via_binary.bads().len(), outs.len());
        // The auto-detecting entry point picks the right parser for both.
        prop_assert_eq!(
            write_aag(&parse_aiger(ascii.as_bytes()).unwrap()),
            write_aag(&parse_aiger(&binary).unwrap())
        );
        // Behaviour of outputs and bads through the binary roundtrip.
        let init_state = |aig: &Aig| -> Vec<bool> {
            aig.latches()
                .iter()
                .map(|&l| matches!(aig.init_of(l), Some(LatchInit::One)))
                .collect()
        };
        let mut sa = init_state(&aig);
        let mut sb = init_state(&via_binary);
        for s in 0..12 {
            let inputs: Vec<bool> = (0..n.num_inputs()).map(|k| input_at(s, k)).collect();
            let va = aig.eval_frame(&sa, &inputs);
            let vb = via_binary.eval_frame(&sb, &inputs);
            for ((_, la), (_, lb)) in aig.outputs().iter().zip(via_binary.outputs()) {
                prop_assert_eq!(la.apply(va[la.node()]), lb.apply(vb[lb.node()]));
            }
            for ((_, la), (_, lb)) in aig.bads().iter().zip(via_binary.bads()) {
                prop_assert_eq!(la.apply(va[la.node()]), lb.apply(vb[lb.node()]));
            }
            sa = aig
                .latches()
                .iter()
                .map(|&l| {
                    let nx = aig.next_of(l).unwrap();
                    nx.apply(va[nx.node()])
                })
                .collect();
            sb = via_binary
                .latches()
                .iter()
                .map(|&l| {
                    let nx = via_binary.next_of(l).unwrap();
                    nx.apply(vb[nx.node()])
                })
                .collect();
        }
    }

    #[test]
    fn aiger_roundtrip_preserves_behaviour(recipe in arb_recipe()) {
        let n = build(&recipe);
        let lowered = Aig::from_netlist(&n);
        let text = write_aag(&lowered.aig);
        let back = parse_aag(&text).unwrap();
        // Compare the AIGs against each other over 12 steps.
        let init_state = |aig: &Aig| -> Vec<bool> {
            aig.latches()
                .iter()
                .map(|&l| matches!(aig.init_of(l), Some(LatchInit::One)))
                .collect()
        };
        let mut sa = init_state(&lowered.aig);
        let mut sb = init_state(&back);
        for s in 0..12 {
            let inputs: Vec<bool> = (0..n.num_inputs()).map(|k| input_at(s, k)).collect();
            let va = lowered.aig.eval_frame(&sa, &inputs);
            let vb = back.eval_frame(&sb, &inputs);
            for ((_, la), (_, lb)) in lowered.aig.outputs().iter().zip(back.outputs()) {
                prop_assert_eq!(la.apply(va[la.node()]), lb.apply(vb[lb.node()]));
            }
            sa = lowered
                .aig
                .latches()
                .iter()
                .map(|&l| {
                    let nx = lowered.aig.next_of(l).unwrap();
                    nx.apply(va[nx.node()])
                })
                .collect();
            sb = back
                .latches()
                .iter()
                .map(|&l| {
                    let nx = back.next_of(l).unwrap();
                    nx.apply(vb[nx.node()])
                })
                .collect();
        }
    }
}
