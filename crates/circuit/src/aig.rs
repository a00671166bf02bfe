//! And-inverter graphs with structural hashing.
//!
//! The AIG is the normalized two-input form of a netlist: every gate becomes
//! a tree of AND nodes with complemented edges. Structural hashing merges
//! identical nodes, which keeps unrolled BMC formulas small. The AIGER
//! reader/writer ([`crate::aiger`]) works on this form.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::ops::Not;
use std::sync::OnceLock;

use crate::{GateOp, LatchInit, Netlist, Node, Signal};

/// An AIG edge: a node index with a complement bit (node 0 is constant
/// false, so code 0 = FALSE and code 1 = TRUE — the AIGER convention).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AigLit(u32);

impl AigLit {
    /// Constant false (AIGER literal 0).
    pub const FALSE: AigLit = AigLit(0);
    /// Constant true (AIGER literal 1).
    pub const TRUE: AigLit = AigLit(1);

    /// Builds an edge to `node`, complemented if `inverted`.
    pub fn new(node: usize, inverted: bool) -> AigLit {
        AigLit((node as u32) << 1 | inverted as u32)
    }

    /// Reconstructs an edge from its AIGER integer code.
    pub fn from_code(code: usize) -> AigLit {
        AigLit(code as u32)
    }

    /// The AIGER integer code (`2·node + complement`).
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// The node index.
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the edge is complemented.
    pub fn is_inverted(self) -> bool {
        self.0 & 1 != 0
    }

    /// Applies the complement bit to a node value.
    pub fn apply(self, node_value: bool) -> bool {
        node_value ^ self.is_inverted()
    }
}

impl Not for AigLit {
    type Output = AigLit;

    fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }
}

impl fmt::Debug for AigLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{}{}",
            if self.is_inverted() { "!" } else { "" },
            self.node()
        )
    }
}

/// Kind of an AIG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AigNodeKind {
    Const,
    Input,
    /// A latch carries its reset value and, once connected, its next-state
    /// function.
    Latch {
        init: LatchInit,
        next: Option<AigLit>,
    },
    And(AigLit, AigLit),
}

/// An and-inverter graph.
///
/// # Examples
///
/// ```
/// use rbmc_circuit::{Aig, AigLit};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.and2(a, b);
/// // Structural hashing: the same AND is not duplicated.
/// assert_eq!(aig.and2(a, b), f);
/// assert_eq!(aig.and2(b, a), f); // commutativity normalized
/// assert_eq!(aig.num_ands(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<AigNodeKind>,
    /// AND node by its operand codes, the smaller one in the high half.
    strash: HashMap<u64, usize, StrashHash>,
    inputs: Vec<usize>,
    latches: Vec<usize>,
    outputs: Vec<(String, AigLit)>,
    bads: Vec<(String, AigLit)>,
}

impl Aig {
    /// Creates an AIG containing only the constant node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![AigNodeKind::Const],
            ..Aig::default()
        }
    }

    /// Adds a primary input.
    pub fn add_input(&mut self) -> AigLit {
        let id = self.nodes.len();
        self.nodes.push(AigNodeKind::Input);
        self.inputs.push(id);
        AigLit::new(id, false)
    }

    /// Adds a latch with the given reset value.
    pub fn add_latch(&mut self, init: LatchInit) -> AigLit {
        let id = self.nodes.len();
        self.nodes.push(AigNodeKind::Latch { init, next: None });
        self.latches.push(id);
        AigLit::new(id, false)
    }

    /// Connects the next-state function of a latch.
    ///
    /// # Panics
    ///
    /// Panics if `latch` is complemented, is not a latch, or is already
    /// connected.
    pub fn set_next(&mut self, latch: AigLit, next: AigLit) {
        assert!(!latch.is_inverted(), "latch reference must be plain");
        let AigNodeKind::Latch { next: slot, .. } = &mut self.nodes[latch.node()] else {
            panic!("set_next on a non-latch");
        };
        assert!(slot.replace(next).is_none(), "latch already connected");
    }

    /// Two-input AND with constant folding and structural hashing.
    pub fn and2(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Folding.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == !b {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE || a == b {
            return b;
        }
        if b == AigLit::TRUE {
            return a;
        }
        // Normalize operand order for hashing; one hash per lookup.
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let id = match self.strash.entry(u64::from(a.0) << 32 | u64::from(b.0)) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(slot) => {
                let id = self.nodes.len();
                self.nodes.push(AigNodeKind::And(a, b));
                *slot.insert(id)
            }
        };
        AigLit::new(id, false)
    }

    /// Makes room for `nodes` more nodes, `ands` of them AND nodes, so a
    /// reader that has counted its gates builds the graph without regrowing
    /// the node list or rehashing the structural-hash table.
    pub(crate) fn reserve(&mut self, nodes: usize, ands: usize) {
        self.nodes.reserve(nodes);
        self.strash.reserve(ands);
    }

    /// Two-input OR (`¬(¬a ∧ ¬b)`).
    pub fn or2(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and2(!a, !b)
    }

    /// Two-input XOR (two ANDs plus an OR).
    pub fn xor2(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let l = self.and2(a, !b);
        let r = self.and2(!a, b);
        self.or2(l, r)
    }

    /// Multiplexer `if s then a else b`.
    pub fn mux(&mut self, s: AigLit, a: AigLit, b: AigLit) -> AigLit {
        let t = self.and2(s, a);
        let e = self.and2(!s, b);
        self.or2(t, e)
    }

    /// Declares a named output.
    pub fn add_output(&mut self, name: &str, lit: AigLit) {
        self.outputs.push((name.to_string(), lit));
    }

    /// Number of nodes (constant included).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, AigNodeKind::And(..)))
            .count()
    }

    /// Input node indices in creation order.
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// Latch node indices in creation order.
    pub fn latches(&self) -> &[usize] {
        &self.latches
    }

    /// Next-state function of a latch node.
    pub fn next_of(&self, latch_node: usize) -> Option<AigLit> {
        match self.nodes[latch_node] {
            AigNodeKind::Latch { next, .. } => next,
            _ => None,
        }
    }

    /// Reset value of a latch node.
    pub fn init_of(&self, latch_node: usize) -> Option<LatchInit> {
        match self.nodes[latch_node] {
            AigNodeKind::Latch { init, .. } => Some(init),
            _ => None,
        }
    }

    /// The fanins of an AND node (`None` for other nodes).
    pub fn and_fanins(&self, node: usize) -> Option<(AigLit, AigLit)> {
        match self.nodes[node] {
            AigNodeKind::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Declared outputs.
    pub fn outputs(&self) -> &[(String, AigLit)] {
        &self.outputs
    }

    /// Declares a named bad-state property (an AIGER 1.9 `B` line): the
    /// literal is 1 exactly in the bad states of one safety property.
    pub fn add_bad(&mut self, name: &str, lit: AigLit) {
        self.bads.push((name.to_string(), lit));
    }

    /// Declared bad-state properties, in declaration order.
    pub fn bads(&self) -> &[(String, AigLit)] {
        &self.bads
    }

    /// Evaluates one frame: node values from latch and input values (both in
    /// creation order).
    ///
    /// # Panics
    ///
    /// Panics if the value slices do not match the latch/input counts.
    pub fn eval_frame(&self, latch_values: &[bool], input_values: &[bool]) -> Vec<bool> {
        assert_eq!(latch_values.len(), self.latches.len());
        assert_eq!(input_values.len(), self.inputs.len());
        let mut values = vec![false; self.nodes.len()];
        for (&id, &v) in self.inputs.iter().zip(input_values) {
            values[id] = v;
        }
        for (&id, &v) in self.latches.iter().zip(latch_values) {
            values[id] = v;
        }
        // Nodes are created fanin-first, so index order is topological.
        for id in 0..self.nodes.len() {
            if let AigNodeKind::And(a, b) = self.nodes[id] {
                values[id] = a.apply(values[a.node()]) && b.apply(values[b.node()]);
            }
        }
        values
    }
}

/// The strash table's hashing: multiply-shift over the packed operand
/// codes. A parsed file chooses every key, so the multiplier is drawn at
/// random, once per process, from [`RandomState`]. The high half of the
/// 128-bit product, which every key bit reaches, is folded onto the low
/// half the table indexes by.
#[derive(Clone, Copy, Debug)]
struct StrashHash {
    multiplier: u64,
}

impl Default for StrashHash {
    fn default() -> StrashHash {
        static MULTIPLIER: OnceLock<u64> = OnceLock::new();
        StrashHash {
            multiplier: *MULTIPLIER.get_or_init(|| RandomState::new().hash_one(0u64) | 1),
        }
    }
}

impl BuildHasher for StrashHash {
    type Hasher = StrashHasher;

    fn build_hasher(&self) -> StrashHasher {
        StrashHasher {
            multiplier: self.multiplier,
            hash: 0,
        }
    }
}

/// The hasher of one strash key (a single `u64`).
struct StrashHasher {
    multiplier: u64,
    hash: u64,
}

impl Hasher for StrashHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.hash << 8 | u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key) * u128::from(self.multiplier);
        self.hash = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The result of lowering a [`Netlist`] to an [`Aig`].
#[derive(Debug, Clone)]
pub struct NetlistToAig {
    /// The lowered AIG.
    pub aig: Aig,
    /// For each netlist node index, the corresponding AIG literal.
    pub map: Vec<AigLit>,
}

impl Aig {
    /// Lowers a netlist to AIG form (an `And` becomes a balanced tree of
    /// binary ANDs; an `Xor` or a `Mux` expands to three ANDs). Outputs and
    /// latch connectivity are carried over.
    ///
    /// The node list and the structural-hash table are sized once, for as
    /// many ANDs as the lowering can create, and one fanin buffer serves
    /// every gate. Validation and the gate order share one search.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails validation.
    pub fn from_netlist(netlist: &Netlist) -> NetlistToAig {
        let order = netlist
            .validated_order()
            .expect("netlist must be well-formed");
        let mut aig = Aig::new();
        // An n-ary And lowers to at most n − 1 ANDs, an Xor or a Mux to 3;
        // folding and hashing only ever make fewer.
        let (mut leaves, mut ands) = (0, 0);
        for id in netlist.node_ids() {
            match netlist.node(id) {
                Node::Input | Node::Latch { .. } => leaves += 1,
                Node::Gate { op, fanins } => {
                    ands += match op {
                        GateOp::And => fanins.len() - 1,
                        GateOp::Xor | GateOp::Mux => 3,
                    }
                }
                Node::Const => {}
            }
        }
        aig.reserve(leaves + ands, ands);
        let mut map: Vec<AigLit> = vec![AigLit::FALSE; netlist.num_nodes()];
        // Inputs and latches first (stable order).
        for id in netlist.node_ids() {
            match netlist.node(id) {
                Node::Input => map[id.index()] = aig.add_input(),
                Node::Latch { init, .. } => map[id.index()] = aig.add_latch(init),
                _ => {}
            }
        }
        let read = |map: &Vec<AigLit>, s: Signal| -> AigLit {
            let lit = map[s.node().index()];
            if s.is_inverted() {
                !lit
            } else {
                lit
            }
        };
        let mut lits: Vec<AigLit> = Vec::new();
        for id in order {
            if let Node::Gate { op, fanins } = netlist.node(id) {
                lits.clear();
                lits.extend(fanins.iter().map(|&s| read(&map, s)));
                let result = match op {
                    GateOp::And => and_tree(&mut aig, &lits),
                    GateOp::Xor => aig.xor2(lits[0], lits[1]),
                    GateOp::Mux => aig.mux(lits[0], lits[1], lits[2]),
                };
                map[id.index()] = result;
            }
        }
        for id in netlist.node_ids() {
            if let Node::Latch {
                next: Some(next), ..
            } = netlist.node(id)
            {
                let latch_lit = map[id.index()];
                let next_lit = read(&map, next);
                aig.set_next(latch_lit, next_lit);
            }
        }
        for (name, sig) in netlist.outputs() {
            let lit = read(&map, *sig);
            aig.add_output(name, lit);
        }
        NetlistToAig { aig, map }
    }
}

/// The result of raising an [`Aig`] back to a [`Netlist`].
#[derive(Debug, Clone)]
pub struct AigToNetlist {
    /// The resulting netlist (one binary AND gate per AIG AND node).
    pub netlist: Netlist,
    /// For each AIG node index, the corresponding netlist signal. Read an
    /// [`AigLit`] through it with [`AigToNetlist::signal_of`].
    pub map: Vec<Signal>,
}

impl AigToNetlist {
    /// The netlist signal an AIG literal corresponds to.
    pub fn signal_of(&self, lit: AigLit) -> Signal {
        let s = self.map[lit.node()];
        if lit.is_inverted() {
            !s
        } else {
            s
        }
    }
}

impl Aig {
    /// Raises the AIG to a [`Netlist`] (the form the BMC pipeline consumes):
    /// inputs, latches, and AND nodes are recreated in index order, so latch
    /// and input *positions* are preserved — a trace extracted from the
    /// netlist replays directly on [`Aig::eval_frame`]. Outputs are carried
    /// over; bad-state properties are *not* netlist outputs — resolve them
    /// through the returned map ([`AigToNetlist::signal_of`]).
    ///
    /// Nodes are generated fanin-first, so the netlist's folding may alias a
    /// gate to a constant or an existing signal; the map always holds the
    /// semantically equal signal.
    ///
    /// The netlist's tables are sized once from the AIG's counts and the
    /// generated `i<n>`/`l<n>` names are formatted straight into its name
    /// buffer, so raising takes a constant number of allocations however
    /// large the AIG is.
    ///
    /// # Panics
    ///
    /// Panics if some latch has no next-state function.
    pub fn to_netlist(&self) -> AigToNetlist {
        fn read(map: &[Signal], lit: AigLit) -> Signal {
            let s = map[lit.node()];
            if lit.is_inverted() {
                !s
            } else {
                s
            }
        }
        // `i<n>`/`l<n>`: a prefix byte and at most as many digits as the
        // count has.
        fn names_len(count: usize) -> usize {
            count * (1 + count.checked_ilog10().map_or(1, |d| d as usize + 1))
        }
        // One node per AIG node at most (folding may alias an AND), two
        // fanins per AND: the tables never regrow.
        let named = self.inputs.len() + self.latches.len();
        let mut netlist = Netlist::with_capacity(
            self.nodes.len(),
            2 * self.nodes.len().saturating_sub(1 + named),
            "false".len() + names_len(self.inputs.len()) + names_len(self.latches.len()),
        );
        let mut map: Vec<Signal> = vec![Signal::FALSE; self.nodes.len()];
        let mut next_input = 0usize;
        let mut next_latch = 0usize;
        for (id, node) in self.nodes.iter().enumerate() {
            map[id] = match node {
                AigNodeKind::Const => Signal::FALSE,
                AigNodeKind::Input => {
                    let s = netlist.add_input_fmt(format_args!("i{next_input}"));
                    next_input += 1;
                    s
                }
                AigNodeKind::Latch { init, .. } => {
                    let s = netlist.add_latch_fmt(format_args!("l{next_latch}"), *init);
                    next_latch += 1;
                    s
                }
                AigNodeKind::And(a, b) => {
                    let (sa, sb) = (read(&map, *a), read(&map, *b));
                    netlist.and2(sa, sb)
                }
            };
        }
        for &latch in &self.latches {
            let next = self.next_of(latch).expect("latch connected");
            netlist.set_next(map[latch], read(&map, next));
        }
        for (name, lit) in &self.outputs {
            let s = read(&map, *lit);
            netlist.add_output(name, s);
        }
        AigToNetlist { netlist, map }
    }
}

/// Conjoins a non-empty literal list as a balanced tree of `and2`s (keeps
/// depth logarithmic).
fn and_tree(aig: &mut Aig, lits: &[AigLit]) -> AigLit {
    match lits {
        [lit] => *lit,
        _ => {
            let (l, r) = lits.split_at(lits.len() / 2);
            let left = and_tree(aig, l);
            let right = and_tree(aig, r);
            aig.and2(left, right)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{eval_frame, read_signal};
    use crate::LatchInit;

    #[test]
    fn constant_folding() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        assert_eq!(aig.and2(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(aig.and2(a, AigLit::TRUE), a);
        assert_eq!(aig.and2(a, a), a);
        assert_eq!(aig.and2(a, !a), AigLit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn strashing_shares_structure() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab1 = aig.and2(a, b);
        let ab2 = aig.and2(b, a);
        assert_eq!(ab1, ab2);
        let abc1 = aig.and2(ab1, c);
        let abc2 = aig.and2(c, ab2);
        assert_eq!(abc1, abc2);
        assert_eq!(aig.num_ands(), 2);
    }

    #[test]
    fn xor_and_mux_semantics() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let s = aig.add_input();
        let x = aig.xor2(a, b);
        let m = aig.mux(s, a, b);
        for bits in 0..8 {
            let inputs = [bits & 1 == 1, bits & 2 != 0, bits & 4 != 0];
            let values = aig.eval_frame(&[], &inputs);
            let (av, bv, sv) = (inputs[0], inputs[1], inputs[2]);
            assert_eq!(x.apply(values[x.node()]), av ^ bv);
            assert_eq!(m.apply(values[m.node()]), if sv { av } else { bv });
        }
    }

    #[test]
    fn lowering_preserves_combinational_semantics() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.and_many(&[a, b, c]);
        let g2 = n.xor_many(&[a, b, c]);
        let g3 = n.mux(a, g1, g2);
        n.add_output("o", g3);
        let lowered = Aig::from_netlist(&n);
        for bits in 0..8u8 {
            let inputs = [bits & 1 == 1, bits & 2 != 0, bits & 4 != 0];
            let net_vals = eval_frame(&n, &[], &inputs);
            let aig_vals = lowered.aig.eval_frame(&[], &inputs);
            let (_, out_lit) = &lowered.aig.outputs()[0];
            assert_eq!(
                out_lit.apply(aig_vals[out_lit.node()]),
                read_signal(&net_vals, g3),
                "inputs {inputs:?}"
            );
        }
    }

    #[test]
    fn lowering_preserves_sequential_semantics() {
        // 3-bit counter; compare netlist and AIG state evolution.
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..3)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&b, &nx) in bits.iter().zip(&next) {
            n.set_next(b, nx);
        }
        let lowered = Aig::from_netlist(&n);
        let aig = &lowered.aig;
        let mut net_state = vec![false; 3];
        let mut aig_state = vec![false; 3];
        for _ in 0..10 {
            assert_eq!(net_state, aig_state);
            let net_vals = eval_frame(&n, &net_state, &[]);
            let aig_vals = aig.eval_frame(&aig_state, &[]);
            net_state = n
                .latches()
                .iter()
                .map(|&id| match n.node(id) {
                    Node::Latch { next: Some(nx), .. } => read_signal(&net_vals, nx),
                    _ => unreachable!(),
                })
                .collect();
            aig_state = aig
                .latches()
                .iter()
                .map(|&id| {
                    let nx = aig.next_of(id).unwrap();
                    nx.apply(aig_vals[nx.node()])
                })
                .collect();
        }
    }

    #[test]
    fn to_netlist_preserves_behaviour_and_positions() {
        // AIG with an input, two latches, shared AND structure, and an
        // inverted output; raise it to a netlist and co-simulate.
        let mut aig = Aig::new();
        let x = aig.add_input();
        let l0 = aig.add_latch(LatchInit::Zero);
        let l1 = aig.add_latch(LatchInit::One);
        let g = aig.xor2(x, l0);
        let h = aig.mux(g, l1, !l0);
        aig.set_next(l0, g);
        aig.set_next(l1, !h);
        aig.add_output("h", h);
        let raised = aig.to_netlist();
        let n = &raised.netlist;
        assert!(n.validate().is_ok());
        // Latch and input positions line up one-to-one.
        assert_eq!(n.num_inputs(), aig.inputs().len());
        assert_eq!(n.num_latches(), aig.latches().len());
        let mut aig_state = vec![false, true];
        let mut net_state = vec![false, true];
        for step in 0..12 {
            let inputs = [step % 3 == 1];
            let av = aig.eval_frame(&aig_state, &inputs);
            let nv = crate::sim::eval_frame(n, &net_state, &inputs);
            let (_, out_lit) = &aig.outputs()[0];
            let (_, out_sig) = &n.outputs()[0];
            assert_eq!(
                out_lit.apply(av[out_lit.node()]),
                read_signal(&nv, *out_sig),
                "step {step}"
            );
            aig_state = aig
                .latches()
                .iter()
                .map(|&l| {
                    let nx = aig.next_of(l).unwrap();
                    nx.apply(av[nx.node()])
                })
                .collect();
            net_state = n
                .latches()
                .iter()
                .map(|&id| match n.node(id) {
                    Node::Latch { next: Some(nx), .. } => read_signal(&nv, nx),
                    _ => unreachable!(),
                })
                .collect();
        }
    }

    #[test]
    fn to_netlist_maps_bad_literals() {
        let mut aig = Aig::new();
        let l = aig.add_latch(LatchInit::Zero);
        aig.set_next(l, !l);
        aig.add_bad("high", l);
        let raised = aig.to_netlist();
        let bad = raised.signal_of(aig.bads()[0].1);
        // The bad literal is the latch itself: frame 0 value is the reset.
        let vals = crate::sim::eval_frame(&raised.netlist, &[false], &[]);
        assert!(!read_signal(&vals, bad));
        let vals = crate::sim::eval_frame(&raised.netlist, &[true], &[]);
        assert!(read_signal(&vals, bad));
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_rejected() {
        let mut aig = Aig::new();
        let l = aig.add_latch(LatchInit::Zero);
        aig.set_next(l, AigLit::TRUE);
        aig.set_next(l, AigLit::FALSE);
    }
}
