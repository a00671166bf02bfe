//! The sequential gate-level netlist.

use std::error::Error;
use std::fmt::{self, Write as _};
use std::ops::{Not, Range};

/// Index of a node in a [`Netlist`].
///
/// Node 0 is always the constant-false node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The constant-false node present in every netlist.
    pub const CONST: NodeId = NodeId(0);

    /// Creates a node id from a dense index.
    pub fn new(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node index fits in u32"))
    }

    /// The dense 0-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive (non-inverted) signal of this node.
    pub fn signal(self) -> Signal {
        Signal(self.0 << 1)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A signal: a reference to a node, possibly inverted.
///
/// Signals are the wires of the netlist. Negation is free (an inversion bit,
/// like an AIG edge), so there is no NOT gate.
///
/// # Examples
///
/// ```
/// use rbmc_circuit::Signal;
///
/// let t = Signal::TRUE;
/// assert_eq!(!t, Signal::FALSE);
/// assert_eq!(t.node(), Signal::FALSE.node()); // both refer to the const node
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signal(u32);

impl Signal {
    /// The constant-false signal.
    pub const FALSE: Signal = Signal(0);
    /// The constant-true signal.
    pub const TRUE: Signal = Signal(1);

    /// Creates a signal referring to `node`, inverted if `inverted`.
    pub fn new(node: NodeId, inverted: bool) -> Signal {
        Signal(node.0 << 1 | inverted as u32)
    }

    /// The node this signal refers to.
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// Whether the signal is inverted.
    pub fn is_inverted(self) -> bool {
        self.0 & 1 != 0
    }

    /// True if this signal is one of the two constants.
    pub fn is_const(self) -> bool {
        self.node() == NodeId::CONST
    }

    /// Applies the inversion bit to a node value.
    pub fn apply(self, node_value: bool) -> bool {
        node_value ^ self.is_inverted()
    }

    /// A dense code (`2·node + inverted`), usable as a table index.
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl Not for Signal {
    type Output = Signal;

    fn not(self) -> Signal {
        Signal(self.0 ^ 1)
    }
}

impl From<NodeId> for Signal {
    fn from(node: NodeId) -> Signal {
        node.signal()
    }
}

impl fmt::Debug for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Signal::FALSE {
            write!(f, "0")
        } else if *self == Signal::TRUE {
            write!(f, "1")
        } else if self.is_inverted() {
            write!(f, "!n{}", self.node().0)
        } else {
            write!(f, "n{}", self.node().0)
        }
    }
}

/// Initial value of a latch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum LatchInit {
    /// Starts at 0 (the common reset value).
    #[default]
    Zero,
    /// Starts at 1.
    One,
    /// Unconstrained: BMC leaves the initial value free; the simulator
    /// defaults it to 0.
    Free,
}

/// Operator of a logic gate.
///
/// `And` has at least two fanins, `Xor` exactly two, and `Mux` exactly three
/// `[sel, then, else]`; [`Netlist::validate`] rejects every other arity.
/// Disjunction is an inverted `And`, and wider parity a chain of `Xor`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateOp {
    /// Conjunction of all fanins.
    And,
    /// `fanin0 ≠ fanin1`.
    Xor,
    /// `if fanin0 then fanin1 else fanin2`.
    Mux,
}

/// A node of the netlist, as [`Netlist::node`] reads it out of the
/// netlist's flat tables: a `Copy` view, whose gate arm borrows the gate's
/// fanins from the netlist's shared fanin array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Node<'a> {
    /// The constant-false node (only node 0).
    Const,
    /// A primary input.
    Input,
    /// A register with an initial value and (once connected) a next-state
    /// function.
    Latch {
        /// Reset value.
        init: LatchInit,
        /// Next-state signal; `None` until [`Netlist::set_next`] is called.
        next: Option<Signal>,
    },
    /// A logic gate.
    Gate {
        /// The operator.
        op: GateOp,
        /// The operands, in construction order.
        fanins: &'a [Signal],
    },
}

/// Validation error for a [`Netlist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A latch was never connected to a next-state signal.
    UnconnectedLatch(NodeId),
    /// Combinational logic forms a cycle through the given node.
    CombinationalCycle(NodeId),
    /// A gate has the wrong number of fanins for its operator.
    BadArity(NodeId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnconnectedLatch(n) => {
                write!(f, "latch {n:?} has no next-state function")
            }
            NetlistError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through {n:?}")
            }
            NetlistError::BadArity(n) => write!(f, "gate {n:?} has invalid fanin arity"),
        }
    }
}

impl Error for NetlistError {}

/// One node's fixed-size record in a [`Netlist`]'s node table: 12 bytes.
///
/// A gate's span is its fanin range in the shared fanin array; every other
/// node's span is its name's byte range in the name buffer (gates have no
/// names, and every other node has one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Record {
    /// The kind tag in the low [`Record::KIND_BITS`] bits, the span's
    /// length above them.
    head: u32,
    /// Where the span starts.
    start: u32,
    /// A latch's next-state signal code plus one; 0 while unconnected and
    /// for every other node.
    next: u32,
}

impl Record {
    const KIND_BITS: u32 = 4;
    const CONST: u32 = 0;
    const INPUT: u32 = 1;
    /// Latch tags are `LATCH + init`, in [`LATCH_INITS`] order.
    const LATCH: u32 = 2;
    /// Gate tags are `GATE + op`, in [`GATE_OPS`] order.
    const GATE: u32 = 5;

    fn new(kind: u32, start: usize, len: usize) -> Record {
        let len = u32::try_from(len)
            .ok()
            .filter(|&len| len < 1 << (32 - Record::KIND_BITS))
            .expect("node span length fits in 28 bits");
        Record {
            head: kind | len << Record::KIND_BITS,
            start: u32::try_from(start).expect("node span start fits in u32"),
            next: 0,
        }
    }

    fn kind(self) -> u32 {
        self.head & ((1 << Record::KIND_BITS) - 1)
    }

    fn is_latch(self) -> bool {
        (Record::LATCH..Record::GATE).contains(&self.kind())
    }

    fn is_gate(self) -> bool {
        self.kind() >= Record::GATE
    }

    fn span(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + (self.head >> Record::KIND_BITS) as usize
    }
}

const _: () = assert!(std::mem::size_of::<Record>() == 12);

/// Latch initial values by their offset from [`Record::LATCH`].
const LATCH_INITS: [LatchInit; 3] = [LatchInit::Zero, LatchInit::One, LatchInit::Free];
/// Gate operators by their offset from [`Record::GATE`].
const GATE_OPS: [GateOp; 3] = [GateOp::And, GateOp::Xor, GateOp::Mux];

/// A sequential gate-level netlist.
///
/// See the [crate docs](crate) for an example. Gate constructors perform
/// light constant folding (`x ∧ 0 = 0`, `x ⊕ x = 0`, …), so generated
/// circuits stay lean without a separate optimization pass.
///
/// # Layout
///
/// The netlist is three flat tables: one fixed-size record per node, one
/// fanin array shared by all gates, and one buffer holding the names of the
/// inputs, latches and constant (gates have none). Building, cloning and
/// dropping a netlist therefore takes a handful of allocations however
/// large it is, and [`Netlist::node`] hands out a `Copy` [`Node`] view that
/// borrows a gate's fanins from the shared array.
///
/// A node's [`NodeId`] is its position in the record table, and the
/// unroller numbers variables `frame · num_nodes + node` from it, so the
/// layout never renumbers nodes: ids, fanin order and names are exactly
/// those of construction.
#[derive(Clone, Default)]
pub struct Netlist {
    records: Vec<Record>,
    fanins: Vec<Signal>,
    names: String,
    outputs: Vec<(String, Signal)>,
}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Node by node as the views and names read, then the outputs.
        f.debug_map()
            .entries(
                self.node_ids()
                    .map(|id| (id, (self.node(id), self.name(id)))),
            )
            .entries(self.outputs.iter().map(|(name, signal)| (name, signal)))
            .finish()
    }
}

impl Netlist {
    /// Creates a netlist containing only the constant node.
    pub fn new() -> Netlist {
        Netlist::with_capacity(1, 0, "false".len())
    }

    /// A netlist containing only the constant node, with room for `nodes`
    /// nodes, `fanins` gate fanins and `name_bytes` bytes of names, so a
    /// builder that has counted them fills the tables without regrowing
    /// them.
    pub(crate) fn with_capacity(nodes: usize, fanins: usize, name_bytes: usize) -> Netlist {
        let mut netlist = Netlist {
            records: Vec::with_capacity(nodes),
            fanins: Vec::with_capacity(fanins),
            names: String::with_capacity(name_bytes),
            outputs: Vec::new(),
        };
        netlist.push_named(Record::CONST, |names| names.push_str("false"));
        netlist
    }

    /// Appends a node whose name `name` writes onto the name buffer.
    fn push_named(&mut self, kind: u32, name: impl FnOnce(&mut String)) -> NodeId {
        let id = NodeId::new(self.records.len());
        let start = self.names.len();
        name(&mut self.names);
        self.records
            .push(Record::new(kind, start, self.names.len() - start));
        id
    }

    /// Adds a primary input and returns its signal.
    pub fn add_input(&mut self, name: &str) -> Signal {
        self.push_named(Record::INPUT, |names| names.push_str(name))
            .signal()
    }

    /// [`Netlist::add_input`] with a name formatted straight into the name
    /// buffer, so a generated name (`format_args!("i{n}")`) needs no
    /// `String` of its own.
    pub(crate) fn add_input_fmt(&mut self, name: fmt::Arguments<'_>) -> Signal {
        self.push_named(Record::INPUT, |names| write_name(names, name))
            .signal()
    }

    /// Adds a latch (register) with the given initial value; connect its
    /// next-state function later with [`Netlist::set_next`].
    pub fn add_latch(&mut self, name: &str, init: LatchInit) -> Signal {
        self.push_named(Record::LATCH + init as u32, |names| names.push_str(name))
            .signal()
    }

    /// [`Netlist::add_latch`] with a name formatted as
    /// [`Netlist::add_input_fmt`] formats it.
    pub(crate) fn add_latch_fmt(&mut self, name: fmt::Arguments<'_>, init: LatchInit) -> Signal {
        self.push_named(Record::LATCH + init as u32, |names| write_name(names, name))
            .signal()
    }

    /// Connects the next-state function of `latch`.
    ///
    /// # Panics
    ///
    /// Panics if `latch` is inverted, does not refer to a latch, or was
    /// already connected.
    pub fn set_next(&mut self, latch: Signal, next: Signal) {
        assert!(!latch.is_inverted(), "latch reference must be plain");
        let record = self.records[latch.node().index()];
        if !record.is_latch() {
            panic!("set_next on non-latch node {:?}", self.node(latch.node()));
        }
        assert_eq!(record.next, 0, "latch already connected");
        self.records[latch.node().index()].next =
            next.0.checked_add(1).expect("signal code fits in u32");
    }

    /// Declares a named primary output.
    pub fn add_output(&mut self, name: &str, signal: Signal) {
        self.outputs.push((name.to_string(), signal));
    }

    // ----- gate constructors (with light folding) --------------------------

    fn gate(&mut self, op: GateOp, fanins: &[Signal]) -> Signal {
        let id = NodeId::new(self.records.len());
        let start = self.fanins.len();
        self.fanins.extend_from_slice(fanins);
        self.records
            .push(Record::new(Record::GATE + op as u32, start, fanins.len()));
        id.signal()
    }

    /// Binary AND.
    pub fn and2(&mut self, a: Signal, b: Signal) -> Signal {
        if a == Signal::FALSE || b == Signal::FALSE || a == !b {
            return Signal::FALSE;
        }
        if a == Signal::TRUE || a == b {
            return b;
        }
        if b == Signal::TRUE {
            return a;
        }
        self.gate(GateOp::And, &[a, b])
    }

    /// Binary OR.
    pub fn or2(&mut self, a: Signal, b: Signal) -> Signal {
        !self.and2(!a, !b)
    }

    /// Binary XOR.
    pub fn xor2(&mut self, a: Signal, b: Signal) -> Signal {
        if a == Signal::FALSE {
            return b;
        }
        if b == Signal::FALSE {
            return a;
        }
        if a == Signal::TRUE {
            return !b;
        }
        if b == Signal::TRUE {
            return !a;
        }
        if a == b {
            return Signal::FALSE;
        }
        if a == !b {
            return Signal::TRUE;
        }
        self.gate(GateOp::Xor, &[a, b])
    }

    /// `if sel then a else b`.
    pub fn mux(&mut self, sel: Signal, a: Signal, b: Signal) -> Signal {
        if sel == Signal::TRUE || a == b {
            return a;
        }
        if sel == Signal::FALSE {
            return b;
        }
        self.gate(GateOp::Mux, &[sel, a, b])
    }

    /// `a → b` (implication).
    pub fn implies(&mut self, a: Signal, b: Signal) -> Signal {
        !self.and2(a, !b)
    }

    /// N-ary AND (`AND()` of an empty list is true).
    pub fn and_many(&mut self, signals: &[Signal]) -> Signal {
        let mut fanins: Vec<Signal> = Vec::with_capacity(signals.len());
        for &s in signals {
            if s == Signal::FALSE {
                return Signal::FALSE;
            }
            if s == Signal::TRUE || fanins.contains(&s) {
                continue;
            }
            if fanins.contains(&!s) {
                return Signal::FALSE;
            }
            fanins.push(s);
        }
        match fanins.len() {
            0 => Signal::TRUE,
            1 => fanins[0],
            _ => self.gate(GateOp::And, &fanins),
        }
    }

    /// N-ary OR (`OR()` of an empty list is false).
    pub fn or_many(&mut self, signals: &[Signal]) -> Signal {
        let negated: Vec<Signal> = signals.iter().map(|&s| !s).collect();
        !self.and_many(&negated)
    }

    /// N-ary XOR (parity; empty list is false).
    pub fn xor_many(&mut self, signals: &[Signal]) -> Signal {
        let mut acc = Signal::FALSE;
        for &s in signals {
            acc = self.xor2(acc, s);
        }
        acc
    }

    /// Compares a bus (LSB first) against a constant. A value that does not
    /// fit in the bus width yields [`Signal::FALSE`] (the comparison can
    /// never hold).
    pub fn bus_eq_const(&mut self, bus: &[Signal], value: u64) -> Signal {
        if bus.len() < 64 && value >> bus.len() != 0 {
            return Signal::FALSE;
        }
        let bits: Vec<Signal> = bus
            .iter()
            .enumerate()
            .map(|(i, &s)| if value >> i & 1 == 1 { s } else { !s })
            .collect();
        self.and_many(&bits)
    }

    /// Ripple-carry incrementer: returns `bus + 1` (LSB first), dropping the
    /// final carry (wrap-around).
    pub fn bus_increment(&mut self, bus: &[Signal]) -> Vec<Signal> {
        let mut carry = Signal::TRUE;
        let mut out = Vec::with_capacity(bus.len());
        for &b in bus {
            out.push(self.xor2(b, carry));
            carry = self.and2(b, carry);
        }
        out
    }

    /// Ripple-carry adder: returns `a + b` (LSB first, wrap-around).
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width.
    pub fn bus_add(&mut self, a: &[Signal], b: &[Signal]) -> Vec<Signal> {
        assert_eq!(a.len(), b.len(), "bus widths differ");
        let mut carry = Signal::FALSE;
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor2(x, y);
            out.push(self.xor2(xy, carry));
            let c1 = self.and2(x, y);
            let c2 = self.and2(xy, carry);
            carry = self.or2(c1, c2);
        }
        out
    }

    // ----- accessors --------------------------------------------------------

    /// Number of nodes (including the constant node).
    pub fn num_nodes(&self) -> usize {
        self.records.len()
    }

    /// The node behind an id, read out of the netlist's tables.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        let record = self.records[id.index()];
        match record.kind() {
            Record::CONST => Node::Const,
            Record::INPUT => Node::Input,
            kind if kind < Record::GATE => Node::Latch {
                init: LATCH_INITS[(kind - Record::LATCH) as usize],
                next: record.next.checked_sub(1).map(Signal),
            },
            kind => Node::Gate {
                op: GATE_OPS[(kind - Record::GATE) as usize],
                fanins: &self.fanins[record.span()],
            },
        }
    }

    /// The declared name of a node: `None` for gates, which have none.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        let record = self.records[id.index()];
        (!record.is_gate()).then(|| &self.names[record.span()])
    }

    /// The named outputs in declaration order.
    pub fn outputs(&self) -> &[(String, Signal)] {
        &self.outputs
    }

    /// Looks up an output by name.
    pub fn output(&self, name: &str) -> Option<Signal> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.records.len()).map(NodeId::new)
    }

    /// The ids of all primary inputs, in creation order.
    pub fn inputs(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.records[id.index()].kind() == Record::INPUT)
            .collect()
    }

    /// The ids of all latches, in creation order.
    pub fn latches(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.records[id.index()].is_latch())
            .collect()
    }

    /// Number of latches (the model's registers).
    pub fn num_latches(&self) -> usize {
        self.records.iter().filter(|r| r.is_latch()).count()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.kind() == Record::INPUT)
            .count()
    }

    /// The fanins of a gate; empty for every other node.
    fn gate_fanins(&self, id: NodeId) -> &[Signal] {
        let record = self.records[id.index()];
        if record.is_gate() {
            &self.fanins[record.span()]
        } else {
            &[]
        }
    }

    /// Rewires one fanin of a gate behind the constructors' back, so tests
    /// can build what they cannot (a combinational cycle).
    #[cfg(test)]
    fn set_fanin(&mut self, gate: NodeId, pos: usize, signal: Signal) {
        let record = self.records[gate.index()];
        assert!(record.is_gate(), "set_fanin on a non-gate");
        self.fanins[record.span()][pos] = signal;
    }

    /// Checks well-formedness: every latch connected, gate arities valid, and
    /// no combinational cycles (paths through gates only; latches break
    /// cycles by construction).
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.check_structure()?;
        self.search(|_| {})
            .map_err(NetlistError::CombinationalCycle)
    }

    /// [`Netlist::validate`] and [`Netlist::topo_order`] from one search.
    pub(crate) fn validated_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        self.check_structure()?;
        self.order().map_err(NetlistError::CombinationalCycle)
    }

    /// Every latch connected and every gate arity valid.
    fn check_structure(&self) -> Result<(), NetlistError> {
        for id in self.node_ids() {
            match self.node(id) {
                Node::Latch { next: None, .. } => {
                    return Err(NetlistError::UnconnectedLatch(id));
                }
                Node::Gate { op, fanins } => {
                    let ok = match op {
                        GateOp::And => fanins.len() >= 2,
                        GateOp::Xor => fanins.len() == 2,
                        GateOp::Mux => fanins.len() == 3,
                    };
                    if !ok {
                        return Err(NetlistError::BadArity(id));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Returns the nodes in a topological order of the combinational logic:
    /// every gate appears after all of its fanins. Inputs, latches, and the
    /// constant come first.
    ///
    /// Each call is a fresh depth-first search over the whole netlist: it
    /// takes time linear in nodes plus fanin edges, and allocates the order
    /// and one byte of state per node. Callers that evaluate the netlist
    /// repeatedly compute it once and keep it, as
    /// [`Simulator`](crate::sim::Simulator) does.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has combinational cycles (call
    /// [`Netlist::validate`] first).
    pub fn topo_order(&self) -> Vec<NodeId> {
        self.order()
            .unwrap_or_else(|node| panic!("combinational cycle through {node:?}"))
    }

    /// The topological order, or the gate a cycle runs through.
    fn order(&self) -> Result<Vec<NodeId>, NodeId> {
        let mut order = Vec::with_capacity(self.num_nodes());
        self.search(|id| order.push(id)).map(|()| order)
    }

    /// The depth-first search over combinational edges (gate → fanin)
    /// behind [`Netlist::validate`] and [`Netlist::topo_order`]: `visit`
    /// sees every node after its fanins. Stops at the first gate it finds
    /// on a cycle.
    fn search(&self, mut visit: impl FnMut(NodeId)) -> Result<(), NodeId> {
        // One DFS stack of (node, fanin position), emptied by every search
        // and reused by the next.
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        let mut state = vec![0u8; self.num_nodes()]; // 0 new, 1 open, 2 done
        for start in self.node_ids() {
            if state[start.index()] != 0 {
                continue;
            }
            stack.push((start, 0));
            state[start.index()] = 1;
            while let Some(&mut (id, ref mut pos)) = stack.last_mut() {
                let fanins = self.gate_fanins(id);
                if *pos < fanins.len() {
                    let child = fanins[*pos].node();
                    *pos += 1;
                    match state[child.index()] {
                        // Only gates propagate combinational paths.
                        0 if self.records[child.index()].is_gate() => {
                            state[child.index()] = 1;
                            stack.push((child, 0));
                        }
                        0 => {
                            state[child.index()] = 2;
                            visit(child);
                        }
                        1 => return Err(child),
                        _ => {}
                    }
                } else {
                    state[id.index()] = 2;
                    visit(id);
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

/// Formats a generated name onto the name buffer.
fn write_name(names: &mut String, name: fmt::Arguments<'_>) {
    names
        .write_fmt(name)
        .expect("writing to a String cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(Signal::TRUE, !Signal::FALSE);
        assert!(Signal::TRUE.is_const());
        assert_eq!(Signal::TRUE.node(), NodeId::CONST);
    }

    #[test]
    fn building_a_counter_validates() {
        let mut n = Netlist::new();
        let b0 = n.add_latch("b0", LatchInit::Zero);
        let b1 = n.add_latch("b1", LatchInit::Zero);
        n.set_next(b0, !b0);
        let s = n.xor2(b1, b0);
        n.set_next(b1, s);
        assert_eq!(n.num_latches(), 2);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn unconnected_latch_rejected() {
        let mut n = Netlist::new();
        let l = n.add_latch("l", LatchInit::Zero);
        assert_eq!(n.validate(), Err(NetlistError::UnconnectedLatch(l.node())));
    }

    #[test]
    fn and_folding() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        assert_eq!(n.and2(a, Signal::FALSE), Signal::FALSE);
        assert_eq!(n.and2(Signal::TRUE, a), a);
        assert_eq!(n.and2(a, a), a);
        assert_eq!(n.and2(a, !a), Signal::FALSE);
        let b = n.add_input("b");
        let g = n.and2(a, b);
        assert!(matches!(
            n.node(g.node()),
            Node::Gate {
                op: GateOp::And,
                ..
            }
        ));
    }

    #[test]
    fn xor_folding() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        assert_eq!(n.xor2(a, Signal::FALSE), a);
        assert_eq!(n.xor2(a, Signal::TRUE), !a);
        assert_eq!(n.xor2(a, a), Signal::FALSE);
        assert_eq!(n.xor2(a, !a), Signal::TRUE);
    }

    #[test]
    fn mux_folding() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let s = n.add_input("s");
        assert_eq!(n.mux(Signal::TRUE, a, b), a);
        assert_eq!(n.mux(Signal::FALSE, a, b), b);
        assert_eq!(n.mux(s, a, a), a);
        let g = n.mux(s, a, b);
        assert!(matches!(
            n.node(g.node()),
            Node::Gate {
                op: GateOp::Mux,
                ..
            }
        ));
    }

    #[test]
    fn and_many_edge_cases() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        assert_eq!(n.and_many(&[]), Signal::TRUE);
        assert_eq!(n.and_many(&[a]), a);
        assert_eq!(n.and_many(&[a, Signal::TRUE, a]), a);
        assert_eq!(n.and_many(&[a, !a, b]), Signal::FALSE);
    }

    #[test]
    fn or_many_dual() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        assert_eq!(n.or_many(&[]), Signal::FALSE);
        assert_eq!(n.or_many(&[a, Signal::FALSE]), a);
        assert_eq!(n.or_many(&[a, Signal::TRUE]), Signal::TRUE);
    }

    #[test]
    fn gates_of_an_invalid_arity_are_rejected() {
        // No constructor builds these shapes; `validate` names each gate.
        let shapes = [
            (GateOp::And, 1),
            (GateOp::Xor, 1),
            (GateOp::Xor, 3),
            (GateOp::Mux, 2),
        ];
        for (op, arity) in shapes {
            let mut n = Netlist::new();
            let fanins: Vec<Signal> = (0..arity).map(|i| n.add_input(&format!("i{i}"))).collect();
            let gate = n.gate(op, &fanins).node();
            let error = n.validate().expect_err("an invalid arity");
            assert_eq!(error, NetlistError::BadArity(gate), "{op:?} of {arity}");
            let message = error.to_string();
            assert!(message.contains(&format!("gate {gate:?} ")), "{message}");
        }
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        // Build a gate, then force a self-referential fanin by hand.
        let g = n.and2(a, a.node().signal()); // folded: a == a -> a
        assert_eq!(g, a);
        // Construct an actual cycle: g1 = AND(a, g2), g2 = AND(a, g1).
        let g1 = n.gate(GateOp::And, &[a, Signal::FALSE]); // placeholder fanin
        let g2 = n.gate(GateOp::And, &[a, g1]);
        n.set_fanin(g1.node(), 1, g2);
        assert!(matches!(
            n.validate(),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn topo_order_respects_fanins() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.and2(a, b);
        let g2 = n.xor2(g1, a);
        let order = n.topo_order();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a.node()) < pos(g1.node()));
        assert!(pos(b.node()) < pos(g1.node()));
        assert!(pos(g1.node()) < pos(g2.node()));
        assert_eq!(order.len(), n.num_nodes());
    }

    #[test]
    fn bus_increment_semantics() {
        let mut n = Netlist::new();
        // Constant bus 0b011 (LSB first: [1,1,0]).
        let bus = [Signal::TRUE, Signal::TRUE, Signal::FALSE];
        let inc = n.bus_increment(&bus);
        // 3 + 1 = 4 = 0b100 (LSB first: [0,0,1]) — fully folded to constants.
        assert_eq!(inc, vec![Signal::FALSE, Signal::FALSE, Signal::TRUE]);
    }

    #[test]
    fn bus_eq_const_on_constants() {
        let mut n = Netlist::new();
        let bus = [Signal::TRUE, Signal::FALSE, Signal::TRUE]; // 0b101 = 5
        assert_eq!(n.bus_eq_const(&bus, 5), Signal::TRUE);
        assert_eq!(n.bus_eq_const(&bus, 4), Signal::FALSE);
    }

    #[test]
    fn outputs_lookup() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        n.add_output("out", !a);
        assert_eq!(n.output("out"), Some(!a));
        assert_eq!(n.output("missing"), None);
        assert_eq!(n.outputs().len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-latch")]
    fn set_next_on_input_panics() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        n.set_next(a, Signal::TRUE);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut n = Netlist::new();
        let l = n.add_latch("l", LatchInit::Zero);
        n.set_next(l, Signal::TRUE);
        n.set_next(l, Signal::FALSE);
    }
}
