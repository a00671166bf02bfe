//! Seeded random sequential circuits, for fuzzing the whole pipeline.
//!
//! Unlike the named [`families`](crate::families), these models have no
//! designed property — the bad signal is a random function of the state, so
//! ground truth comes from the explicit-state oracle. The generator is
//! deterministic per seed, which keeps failures reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbmc_circuit::{LatchInit, Netlist, Signal};
use rbmc_core::Model;

/// Shape parameters of a random model.
#[derive(Clone, Copy, Debug)]
pub struct RandomModelConfig {
    /// Number of primary inputs (≥ 0).
    pub num_inputs: usize,
    /// Number of registers (≥ 1).
    pub num_latches: usize,
    /// Number of random gates layered on top.
    pub num_gates: usize,
    /// Probability that a latch starts [`LatchInit::Free`].
    pub free_init_prob: f64,
}

impl Default for RandomModelConfig {
    fn default() -> RandomModelConfig {
        RandomModelConfig {
            num_inputs: 2,
            num_latches: 4,
            num_gates: 12,
            free_init_prob: 0.2,
        }
    }
}

/// Generates a random well-formed sequential model from a seed.
///
/// # Examples
///
/// ```
/// use rbmc_gens::random::{random_model, RandomModelConfig};
///
/// let a = random_model(7, RandomModelConfig::default());
/// let b = random_model(7, RandomModelConfig::default());
/// // Determinism: the same seed gives the same circuit.
/// assert_eq!(a.netlist().num_nodes(), b.netlist().num_nodes());
/// assert!(a.netlist().validate().is_ok());
/// ```
pub fn random_model(seed: u64, config: RandomModelConfig) -> Model {
    assert!(config.num_latches >= 1, "need at least one register");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = Netlist::new();
    let mut pool: Vec<Signal> = vec![Signal::TRUE, Signal::FALSE];
    for i in 0..config.num_inputs {
        pool.push(n.add_input(&format!("i{i}")));
    }
    let latches: Vec<Signal> = (0..config.num_latches)
        .map(|i| {
            let init = if rng.gen_bool(config.free_init_prob) {
                LatchInit::Free
            } else if rng.gen_bool(0.5) {
                LatchInit::One
            } else {
                LatchInit::Zero
            };
            let l = n.add_latch(&format!("r{i}"), init);
            pool.push(l);
            l
        })
        .collect();
    for _ in 0..config.num_gates {
        let pick = |rng: &mut StdRng, pool: &Vec<Signal>| {
            let s = pool[rng.gen_range(0..pool.len())];
            if rng.gen_bool(0.3) {
                !s
            } else {
                s
            }
        };
        let gate = match rng.gen_range(0..4) {
            0 => {
                let (a, b) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
                n.and2(a, b)
            }
            1 => {
                let (a, b) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
                n.or2(a, b)
            }
            2 => {
                let (a, b) = (pick(&mut rng, &pool), pick(&mut rng, &pool));
                n.xor2(a, b)
            }
            _ => {
                let (s, a, b) = (
                    pick(&mut rng, &pool),
                    pick(&mut rng, &pool),
                    pick(&mut rng, &pool),
                );
                n.mux(s, a, b)
            }
        };
        pool.push(gate);
    }
    for &l in &latches {
        let next = pool[rng.gen_range(0..pool.len())];
        n.set_next(l, next);
    }
    let bad = loop {
        let candidate = pool[rng.gen_range(0..pool.len())];
        // A constant bad signal makes a degenerate (but legal) property;
        // retry a few times for an interesting one, then accept whatever.
        if !candidate.is_const() || rng.gen_bool(0.1) {
            break candidate;
        }
    };
    Model::new(&format!("rand{seed}"), n, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_core::oracle::{check_reachable, OracleVerdict};
    use rbmc_core::{BmcEngine, BmcOptions, OrderingStrategy, PropertyVerdict};

    #[test]
    fn generator_is_deterministic() {
        let a = random_model(123, RandomModelConfig::default());
        let b = random_model(123, RandomModelConfig::default());
        assert_eq!(a.netlist().num_nodes(), b.netlist().num_nodes());
        assert_eq!(a.bad(), b.bad());
    }

    #[test]
    fn different_seeds_differ() {
        let shapes: Vec<usize> = (0..10)
            .map(|s| {
                random_model(s, RandomModelConfig::default())
                    .netlist()
                    .num_nodes()
            })
            .collect();
        let distinct: std::collections::HashSet<_> = shapes.iter().collect();
        assert!(distinct.len() > 1, "all seeds produced identical shapes");
    }

    #[test]
    fn fuzz_bmc_against_oracle() {
        const DEPTH: usize = 5;
        for seed in 0..30 {
            let model = random_model(seed, RandomModelConfig::default());
            let oracle = check_reachable(&model, DEPTH);
            let mut engine = BmcEngine::new(
                model.clone(),
                BmcOptions {
                    max_depth: DEPTH,
                    strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
                    ..BmcOptions::default()
                },
            );
            match (oracle, &engine.run_collecting().properties[0].verdict) {
                (OracleVerdict::FailsAt(d), PropertyVerdict::Falsified { depth, trace }) => {
                    assert_eq!(*depth, d, "seed {seed}");
                    assert!(trace.validate(&model).is_ok(), "seed {seed}");
                }
                (OracleVerdict::HoldsUpTo(_), PropertyVerdict::OpenAt { .. }) => {}
                (o, b) => panic!("seed {seed}: oracle {o:?} vs bmc {b}"),
            }
        }
    }
}
