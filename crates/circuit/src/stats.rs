//! Netlist statistics: the input, latch and gate counts a preprocessing
//! report compares before and after.

use crate::{Netlist, Node};

/// Node counts of a netlist.
///
/// # Examples
///
/// ```
/// use rbmc_circuit::stats::NetlistStats;
/// use rbmc_circuit::{LatchInit, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let l = n.add_latch("l", LatchInit::Zero);
/// let g = n.and2(a, l);
/// n.set_next(l, g);
/// let stats = NetlistStats::of(&n);
/// assert_eq!(stats.inputs, 1);
/// assert_eq!(stats.latches, 1);
/// assert_eq!(stats.gates, 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetlistStats {
    /// Primary inputs.
    pub inputs: usize,
    /// Registers.
    pub latches: usize,
    /// Logic gates (all operators).
    pub gates: usize,
}

impl NetlistStats {
    /// Counts the inputs, latches and gates of a netlist in one pass over
    /// its nodes.
    pub fn of(netlist: &Netlist) -> NetlistStats {
        let mut stats = NetlistStats {
            inputs: 0,
            latches: 0,
            gates: 0,
        };
        for id in netlist.node_ids() {
            match netlist.node(id) {
                Node::Input => stats.inputs += 1,
                Node::Latch { .. } => stats.latches += 1,
                Node::Gate { .. } => stats.gates += 1,
                Node::Const => {}
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatchInit;

    #[test]
    fn counts_are_correct() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let l = n.add_latch("l", LatchInit::Zero);
        let g1 = n.and2(a, b);
        let g2 = n.xor2(g1, l);
        let g3 = n.mux(a, g2, !l);
        n.set_next(l, g3);
        let stats = NetlistStats::of(&n);
        assert_eq!(
            stats,
            NetlistStats {
                inputs: 2,
                latches: 1,
                gates: 3
            }
        );
        let empty = NetlistStats::of(&Netlist::new());
        assert_eq!(empty.inputs + empty.latches + empty.gates, 0);
    }
}
