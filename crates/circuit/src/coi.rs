//! Cone-of-influence analysis.
//!
//! The cone of influence of a signal is everything that can affect it:
//! transitively, the fanins of its node, and — through latches — the fanins
//! of their next-state functions. Nodes outside the cone cannot influence a
//! property and can be dropped before encoding, which [`crate::preprocess`]
//! does for the engine. (The paper's abstractions of §3 are *subsets of the
//! COI* discovered semantically via unsatisfiable cores; COI is the coarser,
//! purely structural bound.)

use crate::{LatchInit, Netlist, Node, NodeId, Signal};

/// Computes the set of node ids in the cone of influence of `seeds`.
///
/// The returned vector is sorted by node index and always contains the
/// constant node.
///
/// # Examples
///
/// ```
/// use rbmc_circuit::coi::cone_of_influence;
/// use rbmc_circuit::{LatchInit, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.add_latch("a", LatchInit::Zero);
/// let b = n.add_latch("b", LatchInit::Zero); // irrelevant to `a`
/// n.set_next(a, !a);
/// n.set_next(b, !b);
/// let cone = cone_of_influence(&n, &[a]);
/// assert!(cone.contains(&a.node()));
/// assert!(!cone.contains(&b.node()));
/// ```
pub fn cone_of_influence(netlist: &Netlist, seeds: &[Signal]) -> Vec<NodeId> {
    let mut in_cone = vec![false; netlist.num_nodes()];
    in_cone[NodeId::CONST.index()] = true;
    let mut stack: Vec<NodeId> = seeds.iter().map(|s| s.node()).collect();
    while let Some(id) = stack.pop() {
        if in_cone[id.index()] {
            continue;
        }
        in_cone[id.index()] = true;
        match netlist.node(id) {
            Node::Gate { fanins, .. } => {
                stack.extend(fanins.iter().map(|s| s.node()));
            }
            Node::Latch {
                next: Some(next), ..
            } => stack.push(next.node()),
            _ => {}
        }
    }
    (0..netlist.num_nodes())
        .filter(|&i| in_cone[i])
        .map(NodeId::new)
        .collect()
}

/// Counts the registers inside the cone of influence of `seeds` (the paper
/// plots circuits on a "register axis"; this is the model-size metric BMC
/// reports).
pub fn registers_in_cone(netlist: &Netlist, seeds: &[Signal]) -> usize {
    cone_of_influence(netlist, seeds)
        .iter()
        .filter(|&&id| matches!(netlist.node(id), Node::Latch { .. }))
        .count()
}

/// Convenience: latch initial value as a `bool` (Free defaults to 0).
pub fn init_value(init: LatchInit) -> bool {
    matches!(init, LatchInit::One)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two independent counters; a property about one should drop the other.
    fn two_counters(width: usize) -> (Netlist, Vec<Signal>, Vec<Signal>) {
        let mut n = Netlist::new();
        let a: Vec<Signal> = (0..width)
            .map(|i| n.add_latch(&format!("a{i}"), LatchInit::Zero))
            .collect();
        let b: Vec<Signal> = (0..width)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let an = n.bus_increment(&a);
        let bn = n.bus_increment(&b);
        for (&l, &nx) in a.iter().zip(&an) {
            n.set_next(l, nx);
        }
        for (&l, &nx) in b.iter().zip(&bn) {
            n.set_next(l, nx);
        }
        (n, a, b)
    }

    #[test]
    fn cone_excludes_independent_logic() {
        let (n, a, b) = two_counters(4);
        let target = a[3];
        let cone = cone_of_influence(&n, &[target]);
        for &sig in &a {
            assert!(cone.contains(&sig.node()), "own counter in cone");
        }
        for &sig in &b {
            assert!(!cone.contains(&sig.node()), "other counter out of cone");
        }
    }

    #[test]
    fn register_count_in_cone() {
        let (n, a, _) = two_counters(5);
        assert_eq!(registers_in_cone(&n, &[a[4]]), 5);
        assert_eq!(n.num_latches(), 10);
    }
}
