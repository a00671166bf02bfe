//! Netlist statistics and Graphviz export.
//!
//! `report` gives the numbers a BMC frontend prints when loading a design
//! (gate counts by type, logic depth, fanout); `to_dot` renders the netlist
//! for inspection.

use std::fmt;

use crate::{GateOp, Netlist, Node, NodeId};

/// Aggregate statistics of a netlist.
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
/// assert_eq!(stats.logic_depth, 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetlistStats {
    /// Primary inputs.
    pub inputs: usize,
    /// Registers.
    pub latches: usize,
    /// Logic gates (all operators).
    pub gates: usize,
    /// Gate count per operator, indexed by `op as usize` (`And`, `Or`,
    /// `Xor`, `Mux`).
    pub gates_by_op: [usize; 4],
    /// Longest combinational path, in gates.
    pub logic_depth: usize,
    /// Maximum fanout of any node.
    pub max_fanout: usize,
    /// Total fanin edges.
    pub edges: usize,
}

impl NetlistStats {
    /// Computes the statistics of a netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has combinational cycles.
    pub fn of(netlist: &Netlist) -> NetlistStats {
        let (mut inputs, mut latches) = (0usize, 0usize);
        let mut gates_by_op = [0usize; 4];
        let mut fanout = vec![0usize; netlist.num_nodes()];
        let mut edges = 0usize;
        let mut depth = vec![0usize; netlist.num_nodes()];
        let mut logic_depth = 0usize;
        // The order holds every node once, so one walk counts them all.
        for id in netlist.topo_order() {
            match netlist.node(id) {
                Node::Gate { op, fanins } => {
                    gates_by_op[op as usize] += 1;
                    let mut d = 0;
                    for s in fanins {
                        fanout[s.node().index()] += 1;
                        edges += 1;
                        d = d.max(depth[s.node().index()]);
                    }
                    depth[id.index()] = d + 1;
                    logic_depth = logic_depth.max(d + 1);
                }
                Node::Latch { next, .. } => {
                    latches += 1;
                    if let Some(next) = next {
                        fanout[next.node().index()] += 1;
                        edges += 1;
                    }
                }
                Node::Input => inputs += 1,
                Node::Const => {}
            }
        }
        NetlistStats {
            inputs,
            latches,
            gates: gates_by_op.iter().sum(),
            gates_by_op,
            logic_depth,
            max_fanout: fanout.into_iter().max().unwrap_or(0),
            edges,
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "inputs={} latches={} gates={} depth={} max_fanout={} edges={}",
            self.inputs, self.latches, self.gates, self.logic_depth, self.max_fanout, self.edges
        )?;
        // Operators in name order; absent ones are not listed.
        for (op, name) in [
            (GateOp::And, "and"),
            (GateOp::Mux, "mux"),
            (GateOp::Or, "or"),
            (GateOp::Xor, "xor"),
        ] {
            let count = self.gates_by_op[op as usize];
            if count > 0 {
                writeln!(f, "  {name}: {count}")?;
            }
        }
        Ok(())
    }
}

/// Renders the netlist as a Graphviz `dot` digraph (gates as boxes, latches
/// as double circles, inverted fanins as dashed edges).
pub fn to_dot(netlist: &Netlist, graph_name: &str) -> String {
    let mut out = format!("digraph {graph_name} {{\n  rankdir=LR;\n");
    let label = |id: NodeId| -> String {
        match netlist.name(id) {
            Some(name) => name.to_string(),
            None => format!("n{}", id.index()),
        }
    };
    for id in netlist.node_ids() {
        match netlist.node(id) {
            Node::Const => {
                out.push_str(&format!(
                    "  n{} [label=\"0\" shape=plaintext];\n",
                    id.index()
                ));
            }
            Node::Input => {
                out.push_str(&format!(
                    "  n{} [label=\"{}\" shape=triangle];\n",
                    id.index(),
                    label(id)
                ));
            }
            Node::Latch { next, .. } => {
                out.push_str(&format!(
                    "  n{} [label=\"{}\" shape=doublecircle];\n",
                    id.index(),
                    label(id)
                ));
                if let Some(next) = next {
                    out.push_str(&format!(
                        "  n{} -> n{} [style={}];\n",
                        next.node().index(),
                        id.index(),
                        if next.is_inverted() {
                            "dashed"
                        } else {
                            "solid"
                        }
                    ));
                }
            }
            Node::Gate { op, fanins } => {
                out.push_str(&format!(
                    "  n{} [label=\"{op:?}\" shape=box];\n",
                    id.index()
                ));
                for s in fanins {
                    out.push_str(&format!(
                        "  n{} -> n{} [style={}];\n",
                        s.node().index(),
                        id.index(),
                        if s.is_inverted() { "dashed" } else { "solid" }
                    ));
                }
            }
        }
    }
    for (name, sig) in netlist.outputs() {
        out.push_str(&format!(
            "  out_{name} [label=\"{name}\" shape=invtriangle];\n  n{} -> out_{name};\n",
            sig.node().index()
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LatchInit, Signal};

    fn sample() -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let l = n.add_latch("l", LatchInit::Zero);
        let g1 = n.and2(a, b);
        let g2 = n.xor2(g1, l);
        let g3 = n.mux(a, g2, !l);
        n.set_next(l, g3);
        n.add_output("f", g2);
        n
    }

    #[test]
    fn counts_are_correct() {
        let n = sample();
        let stats = NetlistStats::of(&n);
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.latches, 1);
        assert_eq!(stats.gates, 3);
        assert_eq!(stats.gates_by_op[GateOp::And as usize], 1);
        assert_eq!(stats.gates_by_op[GateOp::Or as usize], 0);
        assert_eq!(stats.gates_by_op[GateOp::Xor as usize], 1);
        assert_eq!(stats.gates_by_op[GateOp::Mux as usize], 1);
        // g1 depth 1, g2 depth 2, g3 depth 3.
        assert_eq!(stats.logic_depth, 3);
    }

    #[test]
    fn fanout_counts_all_references() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let mut gates = Vec::new();
        for _ in 0..5 {
            let b = n.add_input("b");
            gates.push(n.and2(a, b));
        }
        let stats = NetlistStats::of(&n);
        assert_eq!(stats.max_fanout, 5, "input a feeds five gates");
    }

    #[test]
    fn display_renders_summary() {
        let text = NetlistStats::of(&sample()).to_string();
        assert!(text.contains("inputs=2"));
        assert!(text.contains("mux: 1"));
    }

    #[test]
    fn dot_output_is_well_formed() {
        let dot = to_dot(&sample(), "g");
        assert!(dot.starts_with("digraph g {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("out_f"));
        // Inverted fanin of the mux renders dashed.
        assert!(dot.contains("dashed"));
    }

    #[test]
    fn empty_netlist_stats() {
        let n = Netlist::new();
        let stats = NetlistStats::of(&n);
        assert_eq!(stats.gates, 0);
        assert_eq!(stats.logic_depth, 0);
        assert_eq!(stats.max_fanout, 0);
        let _ = Signal::TRUE; // silence unused import in some cfgs
    }
}
