//! Explicit-state breadth-first reachability — the ground-truth oracle.
//!
//! For small models (≲ 20 latches + inputs) the state space can be explored
//! exhaustively. The oracle answers exactly the question BMC answers — "is a
//! bad state reachable within `k` steps, and at which minimal depth?" — so
//! the test suites use it to validate verdicts and counterexample depths of
//! every ordering strategy.

use std::collections::HashSet;

use rbmc_circuit::sim::{eval_frame, read_signal};
use rbmc_circuit::{LatchInit, Node};

use crate::Model;

/// The oracle's answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleVerdict {
    /// A bad state is reachable; the minimal counterexample has this length
    /// (a length-0 counterexample is an initial bad state).
    FailsAt(usize),
    /// No bad state is reachable within the explored bound.
    HoldsUpTo(usize),
}

/// Explores the state space breadth-first up to `max_depth` transitions.
///
/// Initial states enumerate every combination of [`LatchInit::Free`]
/// latches. Each BFS level tries every input combination.
///
/// # Panics
///
/// Panics if `inputs + free latches` exceeds 24 or latches exceed 24 (the
/// enumeration would be impractical).
///
/// # Examples
///
/// ```
/// use rbmc_circuit::{LatchInit, Netlist};
/// use rbmc_core::oracle::{check_reachable, OracleVerdict};
/// use rbmc_core::Model;
///
/// let mut n = Netlist::new();
/// let t = n.add_latch("t", LatchInit::Zero);
/// n.set_next(t, !t);
/// let model = Model::new("toggle", n, t);
/// assert_eq!(check_reachable(&model, 10), OracleVerdict::FailsAt(1));
/// ```
pub fn check_reachable(model: &Model, max_depth: usize) -> OracleVerdict {
    let netlist = model.netlist();
    let latches = netlist.latches();
    let inputs = netlist.inputs();
    assert!(latches.len() <= 24, "too many latches for the oracle");
    assert!(inputs.len() <= 24, "too many inputs for the oracle");

    // Enumerate initial states (free latches vary).
    let free_positions: Vec<usize> = latches
        .iter()
        .enumerate()
        .filter(|&(_, &id)| {
            matches!(
                netlist.node(id),
                Node::Latch {
                    init: LatchInit::Free,
                    ..
                }
            )
        })
        .map(|(i, _)| i)
        .collect();
    assert!(free_positions.len() <= 24, "too many free latches");
    let base_state: Vec<bool> = latches
        .iter()
        .map(|&id| {
            matches!(
                netlist.node(id),
                Node::Latch {
                    init: LatchInit::One,
                    ..
                }
            )
        })
        .collect();

    let encode = |state: &[bool]| -> u32 {
        state
            .iter()
            .enumerate()
            .fold(0u32, |acc, (i, &b)| acc | (b as u32) << i)
    };

    let mut frontier: Vec<Vec<bool>> = Vec::new();
    let mut seen: HashSet<u32> = HashSet::new();
    for bits in 0u32..1 << free_positions.len() {
        let mut state = base_state.clone();
        for (j, &pos) in free_positions.iter().enumerate() {
            state[pos] = bits >> j & 1 == 1;
        }
        if seen.insert(encode(&state)) {
            frontier.push(state);
        }
    }

    let num_inputs = inputs.len();
    for depth in 0..=max_depth {
        let mut next_frontier: Vec<Vec<bool>> = Vec::new();
        for state in &frontier {
            for input_bits in 0u32..1 << num_inputs {
                let input_values: Vec<bool> =
                    (0..num_inputs).map(|i| input_bits >> i & 1 == 1).collect();
                let values = eval_frame(netlist, state, &input_values);
                if read_signal(&values, model.bad()) {
                    return OracleVerdict::FailsAt(depth);
                }
                if depth == max_depth {
                    continue; // no need to expand the last level
                }
                let successor: Vec<bool> = latches
                    .iter()
                    .map(|&id| match netlist.node(id) {
                        Node::Latch { next: Some(nx), .. } => read_signal(&values, nx),
                        _ => unreachable!("latches are connected"),
                    })
                    .collect();
                if seen.insert(encode(&successor)) {
                    next_frontier.push(successor);
                }
            }
        }
        frontier = next_frontier;
        if frontier.is_empty() && depth < max_depth {
            // Fixed point: nothing new is reachable, the property holds for
            // any bound.
            return OracleVerdict::HoldsUpTo(max_depth);
        }
    }
    OracleVerdict::HoldsUpTo(max_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_circuit::{Netlist, Signal};

    fn counter_model(width: usize, target: u64) -> Model {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..width)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let bad = n.bus_eq_const(&bits, target);
        Model::new("counter", n, bad)
    }

    #[test]
    fn counter_fails_at_target() {
        let model = counter_model(4, 9);
        assert_eq!(check_reachable(&model, 20), OracleVerdict::FailsAt(9));
    }

    #[test]
    fn unreachable_value_holds() {
        // 3-bit counter wrapping at 8 never equals 9.
        let model = counter_model(3, 9);
        assert_eq!(check_reachable(&model, 30), OracleVerdict::HoldsUpTo(30));
    }

    #[test]
    fn bound_cuts_off_detection() {
        let model = counter_model(4, 9);
        assert_eq!(check_reachable(&model, 5), OracleVerdict::HoldsUpTo(5));
    }

    #[test]
    fn free_latch_initial_states_explored() {
        let mut n = Netlist::new();
        let l = n.add_latch("l", LatchInit::Free);
        n.set_next(l, l);
        let model = Model::new("free", n, l);
        assert_eq!(check_reachable(&model, 3), OracleVerdict::FailsAt(0));
    }

    #[test]
    fn inputs_are_quantified() {
        // bad := input AND latch; latch := latch OR input (sticky).
        let mut n = Netlist::new();
        let i = n.add_input("i");
        let l = n.add_latch("l", LatchInit::Zero);
        let sticky = n.or2(l, i);
        n.set_next(l, sticky);
        let bad = n.and2(i, l);
        let model = Model::new("sticky", n, bad);
        // Needs i=1 at step 0 (sets latch), then i=1 at step 1 -> bad at 1.
        assert_eq!(check_reachable(&model, 5), OracleVerdict::FailsAt(1));
    }
}
