//! Cube lifting by ternary simulation (Eén, Mishchenko and Brayton,
//! *Efficient Implementation of Property Directed Reachability*, FMCAD 2011).
//!
//! A SAT answer names one full register state, and IC3 turns it into an
//! obligation cube. Lifting shrinks that cube to the latches the answer
//! needs: under the answer's frame-0 inputs, every latch left out may take
//! either value and the *targets* keep theirs. The targets are `bad` for the
//! frontier's bad cube, and for a predecessor the next-state signal of each
//! latch of the cube it steps into. So every state of a lifted cube reaches
//! what the full one reached, under the same inputs.
//!
//! The query marks the targets' fan-in cone before it is asked, for its
//! solver domain ([`Lifter::mark_cone`]). A lift of its SAT answer starts
//! from the answer's own values in that cone, which are one two-valued
//! evaluation of the cone (0 and 1; the third value, X, is "either"). It
//! then tries the cube's latches in position order: a candidate is set to X
//! and the X is pushed forward through the [fanout table](Lifter), each
//! changed value logged. If a target turns X, the log is rolled back and the
//! latch stays in the cube; otherwise it stays X and leaves the cube. A latch
//! outside the cone leaves at no cost. Ternary simulation is monotone — an X fanin only ever turns a
//! determined value into X — so each node changes at most once per
//! candidate, and a worklist in any order reaches the same values as a
//! topological re-evaluation.

use rbmc_circuit::{GateOp, Netlist, Node, NodeId, Signal};

use super::frames::Cube;

/// A three-valued signal value: 0, 1, or X (either).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ternary {
    Zero,
    One,
    X,
}

impl Ternary {
    fn of(value: bool) -> Ternary {
        if value {
            Ternary::One
        } else {
            Ternary::Zero
        }
    }

    /// The value of `signal` given its node's value.
    fn through(self, signal: Signal) -> Ternary {
        match (self, signal.is_inverted()) {
            (Ternary::Zero, true) => Ternary::One,
            (Ternary::One, true) => Ternary::Zero,
            (value, _) => value,
        }
    }
}

/// `values[s.node()]`, through the signal's inversion.
fn read(values: &[Ternary], signal: Signal) -> Ternary {
    values[signal.node().index()].through(signal)
}

/// The ternary value of a gate from its fanins' values:
///
/// - `And`/`Or` take their controlling value (0 resp. 1) if any fanin has
///   it, else X if any fanin is X;
/// - `Xor` is X as soon as any fanin is X;
/// - `Mux` under an X select is its branches' common value, or X.
///
/// Each rule is exact: the result is determined iff every completion of the
/// X fanins gives the same two-valued result.
fn eval_gate(op: GateOp, fanins: &[Signal], values: &[Ternary]) -> Ternary {
    let settle = |controlling: Ternary, otherwise: Ternary| {
        let mut result = otherwise;
        for &fanin in fanins {
            match read(values, fanin) {
                value if value == controlling => return controlling,
                Ternary::X => result = Ternary::X,
                _ => {}
            }
        }
        result
    };
    match op {
        GateOp::And => settle(Ternary::Zero, Ternary::One),
        GateOp::Or => settle(Ternary::One, Ternary::Zero),
        GateOp::Xor => fanins
            .iter()
            .try_fold(false, |parity, &fanin| match read(values, fanin) {
                Ternary::X => None,
                value => Some(parity ^ (value == Ternary::One)),
            })
            .map_or(Ternary::X, Ternary::of),
        GateOp::Mux => match read(values, fanins[0]) {
            Ternary::One => read(values, fanins[1]),
            Ternary::Zero => read(values, fanins[2]),
            Ternary::X => {
                let (then, other) = (read(values, fanins[1]), read(values, fanins[2]));
                if then == other {
                    then
                } else {
                    Ternary::X
                }
            }
        },
    }
}

/// The lifting tables of one working netlist, built once per IC3 run and
/// lent to every property's runner: a flat (CSR) fanout table, one value per
/// node, the marks of the current query's cone, and the buffers a lift
/// reuses. The netlist itself is passed to each call, so the tables borrow
/// nothing.
#[derive(Debug)]
pub(crate) struct Lifter {
    /// The gates reading node `n` are
    /// `fanouts[fanout_start[n]..fanout_start[n + 1]]`.
    fanout_start: Vec<u32>,
    fanouts: Vec<NodeId>,
    /// Node values under the current lift; meaningful in its cone only.
    values: Vec<Ternary>,
    /// `cone[n] == epoch`: node `n` is in the current query's cone.
    cone: Vec<u32>,
    /// `target[n] == epoch`: node `n` is a current target's node.
    target: Vec<u32>,
    /// One per marked cone, so the marks never need clearing.
    epoch: u32,
    /// The current cone's nodes, in the order the search reached them.
    cone_nodes: Vec<NodeId>,
    /// Nodes the pending candidate turned X, with their previous values.
    undo: Vec<(NodeId, Ternary)>,
    /// Nodes turned X whose fanouts still need re-evaluating.
    worklist: Vec<NodeId>,
}

impl Lifter {
    /// Builds the fanout table and sizes the buffers for `netlist`.
    pub(crate) fn new(netlist: &Netlist) -> Lifter {
        let num_nodes = netlist.num_nodes();
        let gate_fanins = || {
            netlist
                .node_ids()
                .filter_map(move |id| match netlist.node(id) {
                    Node::Gate { fanins, .. } => Some((id, fanins)),
                    _ => None,
                })
        };
        let mut fanout_start = vec![0u32; num_nodes + 1];
        for (_, fanins) in gate_fanins() {
            for fanin in fanins {
                fanout_start[fanin.node().index() + 1] += 1;
            }
        }
        for n in 0..num_nodes {
            fanout_start[n + 1] += fanout_start[n];
        }
        let mut fill = fanout_start.clone();
        let mut fanouts = vec![NodeId::CONST; fanout_start[num_nodes] as usize];
        for (id, fanins) in gate_fanins() {
            for fanin in fanins {
                let slot = &mut fill[fanin.node().index()];
                fanouts[*slot as usize] = id;
                *slot += 1;
            }
        }
        Lifter {
            fanout_start,
            fanouts,
            values: vec![Ternary::X; num_nodes],
            cone: vec![0; num_nodes],
            target: vec![0; num_nodes],
            epoch: 0,
            cone_nodes: Vec::new(),
            undo: Vec::new(),
            worklist: Vec::new(),
        }
    }

    /// Marks the targets and their fan-in cone, and returns the cone's
    /// nodes: a query's domain, and what a lift of its answer reads.
    pub(crate) fn mark_cone(
        &mut self,
        netlist: &Netlist,
        targets: impl IntoIterator<Item = Signal>,
    ) -> &[NodeId] {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.cone.fill(0);
            self.target.fill(0);
            self.epoch = 1;
        }
        self.cone_nodes.clear();
        for signal in targets {
            self.target[signal.node().index()] = self.epoch;
            self.enter(signal.node());
        }
        let mut next = 0;
        while let Some(&node) = self.cone_nodes.get(next) {
            next += 1;
            if let Node::Gate { fanins, .. } = netlist.node(node) {
                for fanin in fanins {
                    self.enter(fanin.node());
                }
            }
        }
        &self.cone_nodes
    }

    /// Adds `node` to the cone unless it is already there; the search then
    /// visits its fanins.
    fn enter(&mut self, node: NodeId) {
        if self.cone[node.index()] != self.epoch {
            self.cone[node.index()] = self.epoch;
            self.cone_nodes.push(node);
        }
    }

    /// Lifts `cube`, the full register cube of a SAT answer whose frame-0
    /// node values are `frame0` (indexed by node; `latches[pos]` is the node
    /// of cube position `pos`), over the cone [`Lifter::mark_cone`] marked
    /// for `targets`. Drops, in position order, every latch that can turn X
    /// while each target signal keeps its value; `targets` pairs each target
    /// with the value the answer gives it. The result keeps the cube's
    /// order.
    pub(crate) fn lift(
        &mut self,
        netlist: &Netlist,
        latches: &[NodeId],
        frame0: &[bool],
        mut cube: Cube,
        targets: &[(Signal, bool)],
    ) -> Cube {
        self.evaluate(netlist, frame0, targets);
        cube.retain(|&(pos, _)| !self.try_drop(netlist, latches[pos]));
        cube
    }

    /// Starts a lift: gives every cone node its value in the SAT answer.
    /// The step relation encodes every frame-0 gate in both directions, so
    /// the answer's values are already one evaluation of the cone from its
    /// leaves; debug builds check that gate by gate.
    fn evaluate(&mut self, netlist: &Netlist, frame0: &[bool], targets: &[(Signal, bool)]) {
        debug_assert!(
            targets
                .iter()
                .all(|&(signal, _)| self.target[signal.node().index()] == self.epoch),
            "the lift's targets are not the marked cone's"
        );
        for &node in &self.cone_nodes {
            self.values[node.index()] = Ternary::of(frame0[node.index()]);
        }
        debug_assert!(
            netlist.node_ids().all(|id| match netlist.node(id) {
                Node::Gate { op, fanins } if self.cone[id.index()] == self.epoch => {
                    eval_gate(op, fanins, &self.values) == self.values[id.index()]
                }
                _ => true,
            }),
            "the SAT answer's frame-0 values are not a gate-by-gate evaluation"
        );
        debug_assert!(
            targets
                .iter()
                .all(|&(signal, value)| read(&self.values, signal) == Ternary::of(value)),
            "the SAT answer does not give the targets their values"
        );
    }

    /// Sets `latch` to X and propagates it. Returns `true`, leaving the X
    /// in place, when every target stays determined; otherwise rolls the
    /// change back and returns `false`. A latch outside the cone drops for
    /// free.
    fn try_drop(&mut self, netlist: &Netlist, latch: NodeId) -> bool {
        if self.cone[latch.index()] != self.epoch {
            return true;
        }
        let kept = self.turn_x(latch) && self.propagate(netlist);
        if kept {
            self.undo.clear();
        } else {
            self.worklist.clear();
            for (node, value) in self.undo.drain(..).rev() {
                self.values[node.index()] = value;
            }
        }
        kept
    }

    /// Logs and sets `node` to X; `false` if it drives a target.
    fn turn_x(&mut self, node: NodeId) -> bool {
        self.undo.push((node, self.values[node.index()]));
        self.values[node.index()] = Ternary::X;
        self.worklist.push(node);
        self.target[node.index()] != self.epoch
    }

    /// Re-evaluates the cone fanouts of every node on the worklist until no
    /// value changes; `false` as soon as a target turns X.
    fn propagate(&mut self, netlist: &Netlist) -> bool {
        while let Some(node) = self.worklist.pop() {
            let range = self.fanout_start[node.index()] as usize
                ..self.fanout_start[node.index() + 1] as usize;
            for i in range {
                let gate = self.fanouts[i];
                let index = gate.index();
                if self.cone[index] != self.epoch || self.values[index] == Ternary::X {
                    continue;
                }
                let Node::Gate { op, fanins } = netlist.node(gate) else {
                    unreachable!("fanouts are gates")
                };
                if eval_gate(op, fanins, &self.values) == Ternary::X && !self.turn_x(gate) {
                    return false;
                }
            }
        }
        true
    }
}

/// Re-evaluates all of `netlist`, in topological order, with each
/// latch of `cube` at its value, every other latch at X and the inputs at
/// `frame0`'s values, and checks that every target has its value. This is
/// the reference the event-driven [`Lifter`] is checked against: after every
/// lift in `debug-invariants` builds, and in the tests.
#[cfg(any(test, feature = "debug-invariants"))]
pub(crate) fn check_lift(
    netlist: &Netlist,
    latches: &[NodeId],
    frame0: &[bool],
    cube: &Cube,
    targets: &[(Signal, bool)],
) -> Result<(), String> {
    let values = ternary_frame(netlist, latches, frame0, cube);
    match targets
        .iter()
        .find(|&&(signal, value)| read(&values, signal) != Ternary::of(value))
    {
        Some(&(signal, value)) => Err(format!(
            "lifted cube {cube:?} leaves target {signal:?} at {:?}, want {value}",
            read(&values, signal)
        )),
        None => Ok(()),
    }
}

/// Every node's ternary value with the latches of `cube` at their values,
/// the other latches at X, and the inputs at `frame0`'s values.
#[cfg(any(test, feature = "debug-invariants"))]
fn ternary_frame(
    netlist: &Netlist,
    latches: &[NodeId],
    frame0: &[bool],
    cube: &Cube,
) -> Vec<Ternary> {
    let mut values = vec![Ternary::X; netlist.num_nodes()];
    for &(pos, value) in cube {
        values[latches[pos].index()] = Ternary::of(value);
    }
    for id in netlist.topo_order() {
        values[id.index()] = match netlist.node(id) {
            Node::Const => Ternary::Zero,
            Node::Input => Ternary::of(frame0[id.index()]),
            Node::Latch { .. } => values[id.index()],
            Node::Gate { op, fanins } => eval_gate(op, fanins, &values),
        };
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_circuit::sim::eval_frame;
    use rbmc_circuit::LatchInit;

    /// xorshift64: the tests' only source of randomness, seeded per case.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn coin(&mut self) -> bool {
            self.below(2) == 1
        }
    }

    /// A random netlist over `latches` latches (`Zero`/`One`/`Free` inits)
    /// and `inputs` inputs, with `gates` gate constructions drawn from
    /// `and_many` (2–4 fanins), `or_many`, `xor2`, `xor_many` and `mux` over
    /// random, randomly inverted earlier signals, and random next-state
    /// functions. Returns the netlist and its latch signals.
    fn random_netlist(
        rng: &mut Rng,
        latches: usize,
        inputs: usize,
        gates: usize,
    ) -> (Netlist, Vec<Signal>) {
        let mut n = Netlist::new();
        let inits = [LatchInit::Zero, LatchInit::One, LatchInit::Free];
        let regs: Vec<Signal> = (0..latches)
            .map(|i| n.add_latch(&format!("l{i}"), inits[rng.below(3)]))
            .collect();
        let mut pool: Vec<Signal> = regs.clone();
        pool.extend((0..inputs).map(|i| n.add_input(&format!("i{i}"))));
        for _ in 0..gates {
            let pick = |rng: &mut Rng| {
                let s = pool[rng.below(pool.len())];
                if rng.coin() {
                    !s
                } else {
                    s
                }
            };
            let arity = 2 + rng.below(3);
            let fanins: Vec<Signal> = (0..arity).map(|_| pick(rng)).collect();
            let gate = match rng.below(5) {
                0 => n.and_many(&fanins),
                1 => n.or_many(&fanins),
                2 => n.xor2(fanins[0], fanins[1]),
                3 => n.xor_many(&fanins),
                _ => n.mux(fanins[0], fanins[1], pick(rng)),
            };
            pool.push(gate);
        }
        for &reg in &regs {
            let next = pool[pool.len() - 1 - rng.below(pool.len().min(6))];
            n.set_next(reg, if rng.coin() { !next } else { next });
        }
        (n, regs)
    }

    /// The bits of `word` as `count` booleans, lowest first.
    fn bits(word: usize, count: usize) -> Vec<bool> {
        (0..count).map(|i| word >> i & 1 == 1).collect()
    }

    /// A query's two steps: mark the targets' cone, then lift over it.
    fn lift_for(
        lifter: &mut Lifter,
        netlist: &Netlist,
        latches: &[NodeId],
        frame0: &[bool],
        cube: Cube,
        targets: &[(Signal, bool)],
    ) -> Cube {
        lifter.mark_cone(netlist, targets.iter().map(|&(signal, _)| signal));
        lifter.lift(netlist, latches, frame0, cube, targets)
    }

    fn next_of(netlist: &Netlist, latch: NodeId) -> Signal {
        match netlist.node(latch) {
            Node::Latch {
                next: Some(next), ..
            } => next,
            _ => panic!("connected latch expected"),
        }
    }

    #[test]
    fn gate_rules_are_exact_at_every_arity() {
        // For each operator and arity, each ternary value and inversion of
        // the fanins: the gate is determined iff every completion of its X
        // fanins gives one two-valued result, and then it is that result.
        let two_valued = |op: GateOp, inputs: &[bool]| match op {
            GateOp::And => inputs.iter().all(|&b| b),
            GateOp::Or => inputs.iter().any(|&b| b),
            GateOp::Xor => inputs.iter().filter(|&&b| b).count() % 2 == 1,
            GateOp::Mux => {
                if inputs[0] {
                    inputs[1]
                } else {
                    inputs[2]
                }
            }
        };
        let cases = [GateOp::And, GateOp::Or, GateOp::Xor]
            .into_iter()
            .flat_map(|op| (1..=4).map(move |arity| (op, arity)))
            .chain([(GateOp::Mux, 3)]);
        for (op, arity) in cases {
            for inversions in 0..1usize << arity {
                let fanins: Vec<Signal> = (0..arity)
                    .map(|i| Signal::new(NodeId::new(i + 1), inversions >> i & 1 == 1))
                    .collect();
                for code in 0..3usize.pow(arity as u32) {
                    let mut values = vec![Ternary::Zero];
                    values.extend((0..arity).map(|i| {
                        [Ternary::Zero, Ternary::One, Ternary::X][code / 3usize.pow(i as u32) % 3]
                    }));
                    let xs: Vec<usize> = (0..arity)
                        .filter(|&i| values[i + 1] == Ternary::X)
                        .collect();
                    let mut results = (0..1usize << xs.len()).map(|fill| {
                        let inputs: Vec<bool> = fanins
                            .iter()
                            .enumerate()
                            .map(|(i, &s)| {
                                let node = match xs.iter().position(|&x| x == i) {
                                    Some(k) => fill >> k & 1 == 1,
                                    None => values[i + 1] == Ternary::One,
                                };
                                s.apply(node)
                            })
                            .collect();
                        two_valued(op, &inputs)
                    });
                    let first = results.next().expect("one completion at least");
                    let exact = if results.all(|r| r == first) {
                        Ternary::of(first)
                    } else {
                        Ternary::X
                    };
                    assert_eq!(
                        eval_gate(op, &fanins, &values),
                        exact,
                        "{op:?} over {fanins:?} at {values:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lifting_keeps_what_a_mux_and_an_xor_need() {
        // mux(s, p, q), a ⊕ b and their disjunction, in the state s = 0,
        // p = q = 1, a = 1, b = 0, where all three are 1.
        let mut n = Netlist::new();
        let regs: Vec<Signal> = ["s", "p", "q", "a", "b"]
            .iter()
            .map(|name| n.add_latch(name, LatchInit::Zero))
            .collect();
        let [s, p, q, a, b] = regs[..] else {
            unreachable!()
        };
        let mux = n.mux(s, p, q);
        let parity = n.xor2(a, b);
        let either = n.or2(mux, parity);
        for &reg in &regs {
            n.set_next(reg, reg);
        }
        let latches = n.latches();
        let state = [false, true, true, true, false];
        let frame0 = eval_frame(&n, &state, &[]);
        let full: Cube = state.iter().copied().enumerate().collect();
        let mut lifter = Lifter::new(&n);
        let lift = |lifter: &mut Lifter, target: Signal| {
            let targets = [(target, frame0[target.node().index()] ^ target.is_inverted())];
            let cube = lift_for(lifter, &n, &latches, &frame0, full.clone(), &targets);
            assert_eq!(check_lift(&n, &latches, &frame0, &cube, &targets), Ok(()));
            cube
        };
        // The mux alone: its select drops (both branches are 1), the branches
        // stay, and the parity's latches are outside the cone.
        assert_eq!(lift(&mut lifter, mux), vec![(1, true), (2, true)]);
        // The parity alone: one X fanin makes it X, so both fanins stay.
        assert_eq!(lift(&mut lifter, parity), vec![(3, true), (4, false)]);
        // Their disjunction is 1 through either; position order tries the
        // mux's latches first and keeps the parity's whole.
        assert_eq!(lift(&mut lifter, either), vec![(3, true), (4, false)]);
    }

    #[test]
    fn full_assignments_evaluate_as_the_two_valued_simulator() {
        // The full ternary evaluation, the reference every lift is
        // audited against, is the simulator's two-valued one when no latch
        // is X.
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let (n, _) = random_netlist(&mut rng, 5, 3, 14);
            let latches = n.latches();
            for _ in 0..8 {
                let state = bits(rng.below(1 << 5), 5);
                let inputs = bits(rng.below(1 << 3), 3);
                let frame0 = eval_frame(&n, &state, &inputs);
                let full: Cube = state.iter().copied().enumerate().collect();
                let values = ternary_frame(&n, &latches, &frame0, &full);
                for id in n.node_ids() {
                    assert_eq!(
                        values[id.index()],
                        Ternary::of(frame0[id.index()]),
                        "seed {seed}, {id:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn propagation_leaves_the_values_a_fresh_evaluation_gives() {
        // After a lift, every node of the targets' cone holds the value a
        // full re-evaluation gives with the dropped latches at X: the
        // event-driven propagation and its rollbacks miss nothing.
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0xd1b5_4a32_d192_ed03));
            let (n, _) = random_netlist(&mut rng, 6, 2, 16);
            let latches = n.latches();
            let mut lifter = Lifter::new(&n);
            for _ in 0..16 {
                let state = bits(rng.below(1 << 6), 6);
                let inputs = bits(rng.below(1 << 2), 2);
                let frame0 = eval_frame(&n, &state, &inputs);
                let targets: Vec<(Signal, bool)> = (0..1 + rng.below(3))
                    .map(|_| {
                        let node = NodeId::new(rng.below(n.num_nodes()));
                        (node.signal(), frame0[node.index()])
                    })
                    .collect();
                let full: Cube = state.iter().copied().enumerate().collect();
                let cube = lift_for(&mut lifter, &n, &latches, &frame0, full, &targets);
                let fresh = ternary_frame(&n, &latches, &frame0, &cube);
                for id in n.node_ids() {
                    if lifter.cone[id.index()] == lifter.epoch {
                        assert_eq!(
                            lifter.values[id.index()],
                            fresh[id.index()],
                            "seed {seed}, {id:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_completion_of_a_lifted_cube_reaches_its_targets() {
        // Exhaustively over states, inputs and successor cubes of small
        // random netlists: every completion of a lifted bad cube is bad, and
        // every completion of a lifted predecessor steps into the cube it
        // was lifted for, under the answer's inputs.
        const LATCHES: usize = 4;
        const INPUTS: usize = 2;
        let (mut lifts, mut dropped) = (0usize, 0usize);
        for seed in 1..=12u64 {
            let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
            let (n, _) = random_netlist(&mut rng, LATCHES, INPUTS, 10);
            let latches = n.latches();
            let bad = Signal::new(NodeId::new(rng.below(n.num_nodes())), rng.coin());
            let mut lifter = Lifter::new(&n);
            let completions = |cube: &Cube| {
                (0..1usize << LATCHES)
                    .map(|word| bits(word, LATCHES))
                    .filter(|state| cube.iter().all(|&(pos, v)| state[pos] == v))
                    .collect::<Vec<_>>()
            };
            for word in 0..1usize << LATCHES {
                let state = bits(word, LATCHES);
                let full: Cube = state.iter().copied().enumerate().collect();
                for input_word in 0..1usize << INPUTS {
                    let inputs = bits(input_word, INPUTS);
                    let frame0 = eval_frame(&n, &state, &inputs);
                    let successor: Vec<bool> = latches
                        .iter()
                        .map(|&l| {
                            let next = next_of(&n, l);
                            next.apply(frame0[next.node().index()])
                        })
                        .collect();
                    if bad.apply(frame0[bad.node().index()]) {
                        let targets = [(bad, true)];
                        let cube =
                            lift_for(&mut lifter, &n, &latches, &frame0, full.clone(), &targets);
                        assert_eq!(check_lift(&n, &latches, &frame0, &cube, &targets), Ok(()));
                        for completion in completions(&cube) {
                            let values = eval_frame(&n, &completion, &inputs);
                            assert!(bad.apply(values[bad.node().index()]), "seed {seed}");
                        }
                        lifts += 1;
                        dropped += LATCHES - cube.len();
                    }
                    // Every sub-cube of the successor state as the target.
                    for mask in 1..1usize << LATCHES {
                        let target_cube: Cube = (0..LATCHES)
                            .filter(|&pos| mask >> pos & 1 == 1)
                            .map(|pos| (pos, successor[pos]))
                            .collect();
                        let targets: Vec<(Signal, bool)> = target_cube
                            .iter()
                            .map(|&(pos, v)| (next_of(&n, latches[pos]), v))
                            .collect();
                        let cube =
                            lift_for(&mut lifter, &n, &latches, &frame0, full.clone(), &targets);
                        assert_eq!(check_lift(&n, &latches, &frame0, &cube, &targets), Ok(()));
                        assert!(cube.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
                        for completion in completions(&cube) {
                            let values = eval_frame(&n, &completion, &inputs);
                            for &(pos, v) in &target_cube {
                                let next = next_of(&n, latches[pos]);
                                assert_eq!(next.apply(values[next.node().index()]), v);
                            }
                        }
                        lifts += 1;
                        dropped += LATCHES - cube.len();
                    }
                }
            }
        }
        // Not vacuous: lifting dropped literals, and not every one.
        assert!(
            dropped > 0 && dropped < lifts * LATCHES,
            "{dropped} of {lifts}"
        );
    }
}
