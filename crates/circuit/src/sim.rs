//! Cycle-accurate two-valued simulation, and the three-valued gate rule.
//!
//! The simulator is the ground-truth oracle of the workspace: BMC
//! counterexamples are replayed on it, and the explicit-state reachability
//! oracle in `rbmc-core` steps it exhaustively. [`ternary_gate`] is the
//! same gate semantics with an unknown value X, tested against the
//! simulator on every completion of its X inputs.

use crate::{GateOp, LatchInit, Netlist, Node, NodeId, Signal};

/// Everything a frame evaluation derives from the netlist alone: the latches
/// and inputs in creation order, and the gates in topological order.
#[derive(Debug, Clone)]
struct Plan<'a> {
    netlist: &'a Netlist,
    latches: Vec<NodeId>,
    inputs: Vec<NodeId>,
    gates: Vec<NodeId>,
}

impl<'a> Plan<'a> {
    fn new(netlist: &'a Netlist) -> Plan<'a> {
        let (mut latches, mut inputs) = (Vec::new(), Vec::new());
        for id in netlist.node_ids() {
            match netlist.node(id) {
                Node::Latch { .. } => latches.push(id),
                Node::Input => inputs.push(id),
                _ => {}
            }
        }
        let gates = netlist
            .topo_order()
            .into_iter()
            .filter(|&id| matches!(netlist.node(id), Node::Gate { .. }))
            .collect();
        Plan {
            netlist,
            latches,
            inputs,
            gates,
        }
    }

    /// The frame-evaluation loop behind [`eval_frame`] and [`Simulator`].
    fn eval(&self, latch_values: &[bool], input_values: &[bool]) -> Vec<bool> {
        assert_eq!(latch_values.len(), self.latches.len(), "latch value count");
        assert_eq!(input_values.len(), self.inputs.len(), "input value count");
        let mut values = vec![false; self.netlist.num_nodes()];
        for (id, &v) in self.latches.iter().zip(latch_values) {
            values[id.index()] = v;
        }
        for (id, &v) in self.inputs.iter().zip(input_values) {
            values[id.index()] = v;
        }
        for &id in &self.gates {
            if let Node::Gate { op, fanins } = self.netlist.node(id) {
                let read = |s: Signal| s.apply(values[s.node().index()]);
                values[id.index()] = match op {
                    GateOp::And => fanins.iter().all(|&s| read(s)),
                    GateOp::Xor => read(fanins[0]) != read(fanins[1]),
                    GateOp::Mux => {
                        if read(fanins[0]) {
                            read(fanins[1])
                        } else {
                            read(fanins[2])
                        }
                    }
                };
            }
        }
        values
    }
}

/// Evaluates all node values for one time frame, given current latch values
/// and input values.
///
/// `latch_values` and `input_values` are consulted in the creation order of
/// [`Netlist::latches`] / [`Netlist::inputs`]. The result is indexed by
/// [`NodeId::index`](crate::NodeId::index).
///
/// Every call derives the netlist's gate order afresh; to evaluate many
/// frames of one netlist, step a [`Simulator`], which derives it once.
///
/// # Panics
///
/// Panics if a value vector is shorter than the corresponding node list, or
/// if the netlist has combinational cycles.
pub fn eval_frame(netlist: &Netlist, latch_values: &[bool], input_values: &[bool]) -> Vec<bool> {
    Plan::new(netlist).eval(latch_values, input_values)
}

/// Reads a signal out of a node-value vector produced by [`eval_frame`].
pub fn read_signal(values: &[bool], signal: Signal) -> bool {
    signal.apply(values[signal.node().index()])
}

/// The three-valued value of a gate from its fanins' node values, indexed
/// by [`NodeId::index`](crate::NodeId::index), with `None` for X (either
/// value):
///
/// - `And` is 0 if any fanin is 0, else X if any fanin is X, else 1;
/// - `Xor` is X as soon as a fanin is X;
/// - `Mux` under an X select is its branches' common value, or X.
///
/// Each rule is exact: the result is determined iff every completion of the
/// X fanins gives the same two-valued result, and then it is that result.
/// Lint's reset-state propagation and IC3's cube lifting both evaluate gates
/// with it.
///
/// # Panics
///
/// Panics if `fanins` has fewer entries than [`Netlist::validate`] requires
/// of `op`, or if `values` does not cover a fanin's node.
#[inline]
pub fn ternary_gate(op: GateOp, fanins: &[Signal], values: &[Option<bool>]) -> Option<bool> {
    let read = |s: Signal| values[s.node().index()].map(|v| s.apply(v));
    match op {
        GateOp::And => {
            let mut result = Some(true);
            for &fanin in fanins {
                match read(fanin) {
                    Some(false) => return Some(false),
                    Some(true) => {}
                    None => result = None,
                }
            }
            result
        }
        GateOp::Xor => Some(read(fanins[0])? != read(fanins[1])?),
        GateOp::Mux => match read(fanins[0]) {
            Some(true) => read(fanins[1]),
            Some(false) => read(fanins[2]),
            None => {
                let then = read(fanins[1]);
                if then == read(fanins[2]) {
                    then
                } else {
                    None
                }
            }
        },
    }
}

/// A stepping simulator holding the current register state.
///
/// The simulator builds its evaluation plan — the latch and input lists and
/// the gates' topological order — once, when it is created; every frame it
/// evaluates afterwards only reads that plan.
///
/// # Examples
///
/// A toggle flip-flop:
///
/// ```
/// use rbmc_circuit::sim::Simulator;
/// use rbmc_circuit::{LatchInit, Netlist};
///
/// let mut n = Netlist::new();
/// let t = n.add_latch("t", LatchInit::Zero);
/// n.set_next(t, !t);
///
/// let mut sim = Simulator::new(&n);
/// assert_eq!(sim.state(), &[false]);
/// sim.step(&[]);
/// assert_eq!(sim.state(), &[true]);
/// sim.step(&[]);
/// assert_eq!(sim.state(), &[false]);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    plan: Plan<'a>,
    state: Vec<bool>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with every latch at its initial value
    /// ([`LatchInit::Free`] latches start at 0).
    pub fn new(netlist: &'a Netlist) -> Simulator<'a> {
        let plan = Plan::new(netlist);
        let state = plan
            .latches
            .iter()
            .map(|&id| match netlist.node(id) {
                Node::Latch { init, .. } => matches!(init, LatchInit::One),
                _ => unreachable!("the plan lists latches"),
            })
            .collect();
        Simulator { plan, state }
    }

    /// Creates a simulator starting from an explicit register state (in
    /// [`Netlist::latches`] order).
    pub fn with_state(netlist: &'a Netlist, state: Vec<bool>) -> Simulator<'a> {
        let plan = Plan::new(netlist);
        assert_eq!(state.len(), plan.latches.len(), "state width");
        Simulator { plan, state }
    }

    /// Current register state (in [`Netlist::latches`] order).
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Evaluates the whole frame under `inputs` without advancing time.
    pub fn frame_values(&self, inputs: &[bool]) -> Vec<bool> {
        self.plan.eval(&self.state, inputs)
    }

    /// Advances one clock cycle under `inputs`, returning the frame values
    /// that were latched from — the same values [`Simulator::frame_values`]
    /// returns before the step, so a caller that needs both evaluates the
    /// frame once.
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        let values = self.frame_values(inputs);
        for (bit, &id) in self.state.iter_mut().zip(&self.plan.latches) {
            match self.plan.netlist.node(id) {
                Node::Latch {
                    next: Some(next), ..
                } => *bit = read_signal(&values, next),
                _ => panic!("latch {id:?} not connected (validate the netlist)"),
            }
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3-bit ripple counter netlist.
    fn counter3() -> (Netlist, Vec<Signal>) {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..3)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        (n, bits)
    }

    fn state_as_u8(sim: &Simulator<'_>) -> u8 {
        sim.state()
            .iter()
            .enumerate()
            .map(|(i, &b)| (b as u8) << i)
            .sum()
    }

    #[test]
    fn counter_counts() {
        let (n, _) = counter3();
        n.validate().unwrap();
        let mut sim = Simulator::new(&n);
        for expected in 0..20u8 {
            assert_eq!(state_as_u8(&sim), expected % 8);
            sim.step(&[]);
        }
    }

    #[test]
    fn init_one_latches_start_high() {
        let mut n = Netlist::new();
        let l = n.add_latch("l", LatchInit::One);
        n.set_next(l, l);
        let sim = Simulator::new(&n);
        assert_eq!(sim.state(), &[true]);
    }

    #[test]
    fn inputs_drive_logic() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let l = n.add_latch("l", LatchInit::Zero);
        let d = n.and2(a, b);
        n.set_next(l, d);
        let mut sim = Simulator::new(&n);
        sim.step(&[true, true]);
        assert_eq!(sim.state(), &[true]);
        sim.step(&[true, false]);
        assert_eq!(sim.state(), &[false]);
    }

    #[test]
    fn gate_semantics_match_truth_tables() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let and3 = n.and_many(&[a, b, c]);
        let or3 = n.or_many(&[a, b, c]);
        let xor3 = n.xor_many(&[a, b, c]);
        let mx = n.mux(a, b, c);
        for bits in 0..8u8 {
            let inputs = [bits & 1 == 1, bits & 2 != 0, bits & 4 != 0];
            let values = eval_frame(&n, &[], &inputs);
            let (x, y, z) = (inputs[0], inputs[1], inputs[2]);
            assert_eq!(read_signal(&values, and3), x && y && z);
            assert_eq!(read_signal(&values, or3), x || y || z);
            assert_eq!(read_signal(&values, xor3), x ^ y ^ z);
            assert_eq!(read_signal(&values, mx), if x { y } else { z });
        }
    }

    #[test]
    fn gate_rules_are_exact_at_every_arity() {
        // Each operator at each arity a netlist holds, under every inversion
        // of its fanins and every 0/1/X value of their nodes: the ternary
        // rule is determined iff the simulator gives every completion of the
        // X inputs one value, and then it is that value.
        let cases = [
            (GateOp::And, 2),
            (GateOp::And, 3),
            (GateOp::And, 4),
            (GateOp::Xor, 2),
            (GateOp::Mux, 3),
        ];
        for (op, arity) in cases {
            for inversions in 0..1usize << arity {
                let mut n = Netlist::new();
                let fanins: Vec<Signal> = (0..arity)
                    .map(|i| {
                        let input = n.add_input(&format!("i{i}"));
                        if inversions >> i & 1 == 1 {
                            !input
                        } else {
                            input
                        }
                    })
                    .collect();
                let gate = match op {
                    GateOp::And => n.and_many(&fanins),
                    GateOp::Xor => n.xor2(fanins[0], fanins[1]),
                    GateOp::Mux => n.mux(fanins[0], fanins[1], fanins[2]),
                };
                let fanins = &fanins[..];
                assert_eq!(n.node(gate.node()), Node::Gate { op, fanins });
                let sim = Simulator::new(&n);
                for code in 0..3usize.pow(arity as u32) {
                    // Node values: the constant, then each input's 0, 1 or X.
                    let values: Vec<Option<bool>> = [Some(false)]
                        .into_iter()
                        .chain((0..arity).map(|i| {
                            [Some(false), Some(true), None][code / 3usize.pow(i as u32) % 3]
                        }))
                        .collect();
                    let mut completions = (0..1usize << arity)
                        .map(|word| (0..arity).map(|i| word >> i & 1 == 1).collect::<Vec<_>>())
                        .filter(|full| full.iter().zip(&values[1..]).all(|(&b, &v)| v != Some(!b)))
                        .map(|full| read_signal(&sim.frame_values(&full), gate));
                    let first = completions.next().expect("one completion at least");
                    let exact = completions.all(|value| value == first).then_some(first);
                    assert_eq!(
                        ternary_gate(op, fanins, &values),
                        exact,
                        "{op:?} over {fanins:?} at {values:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bus_add_matches_arithmetic() {
        let mut n = Netlist::new();
        let a: Vec<Signal> = (0..4).map(|i| n.add_input(&format!("a{i}"))).collect();
        let b: Vec<Signal> = (0..4).map(|i| n.add_input(&format!("b{i}"))).collect();
        let sum = n.bus_add(&a, &b);
        for x in 0..16u8 {
            for y in 0..16u8 {
                let mut inputs = Vec::new();
                inputs.extend((0..4).map(|i| x >> i & 1 == 1));
                inputs.extend((0..4).map(|i| y >> i & 1 == 1));
                let values = eval_frame(&n, &[], &inputs);
                let got: u8 = sum
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (read_signal(&values, s) as u8) << i)
                    .sum();
                assert_eq!(got, x.wrapping_add(y) & 0xF, "{x} + {y}");
            }
        }
    }

    #[test]
    fn with_state_resumes() {
        let (n, _) = counter3();
        let mut sim = Simulator::with_state(&n, vec![true, false, true]); // 5
        assert_eq!(state_as_u8(&sim), 5);
        sim.step(&[]);
        assert_eq!(state_as_u8(&sim), 6);
    }
}
