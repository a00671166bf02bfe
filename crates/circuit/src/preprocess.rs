//! Structural preprocessing: constant sweeping + structural hashing + COI.
//!
//! BMC encodes one copy of the netlist per frame, so every node removed
//! here is removed from *every* frame of the unrolling — the Intel
//! "space-efficient BMC" recipe of shrinking the model before the solver
//! ever sees it. Three reductions run together, to a fixpoint:
//!
//! - **Constant sweeping**: a latch whose next-state function can never
//!   change its (binary) initial value — `next = self`, or `next` a constant
//!   equal to the initial value — is *stuck*; every use is replaced by the
//!   constant, which the gate constructors then fold through the fanout.
//! - **Structural hashing**: two gates with the same operator and the same
//!   (canonicalized) fanins are merged into one node.
//! - **Cone of influence**: only nodes that can reach a seed survive (see
//!   [`crate::coi`]); sweeping makes the cone strictly smaller because
//!   traversal stops at stuck latches.
//!
//! The pass is *behavior-preserving for the seeds*: the reduced netlist's
//! seed signals take exactly the value sequence of the originals on every
//! input sequence (tested against the simulator). The returned maps say
//! which original latches/inputs survived, so counterexample traces found
//! on the reduced netlist can be lifted back to original coordinates.

use std::collections::HashMap;

use crate::coi::init_value;
use crate::stats::NetlistStats;
use crate::{GateOp, LatchInit, Netlist, Node, NodeId, Signal};

/// Shape delta of a [`preprocess`] run, for logs and BENCH extras.
#[derive(Clone, Debug)]
pub struct PreprocessReport {
    /// Node counts of the netlist as given.
    pub before: NetlistStats,
    /// Node counts of the reduced netlist.
    pub after: NetlistStats,
    /// Latches replaced by constants (stuck at their initial value).
    pub swept_latches: usize,
    /// Gate constructions answered by the structural hash table instead of
    /// creating a new node.
    pub hashed_gates: usize,
    /// Latches dropped because no seed depends on them.
    pub dropped_latches: usize,
    /// Inputs dropped because no seed depends on them.
    pub dropped_inputs: usize,
    /// Rebuild rounds until the fixpoint (≥ 1).
    pub rounds: usize,
}

/// Result of [`preprocess`]: the reduced netlist plus every map needed to
/// relate it back to the original.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// The reduced netlist (validated; latches all connected).
    pub netlist: Netlist,
    /// For each seed passed in, the equivalent signal over the reduced
    /// netlist (possibly a constant if the seed swept away entirely).
    pub seed_signals: Vec<Signal>,
    /// For each latch of the reduced netlist, in creation order, the
    /// creation-order index of the original latch it came from
    /// (strictly increasing).
    pub kept_latches: Vec<usize>,
    /// Same map for primary inputs.
    pub kept_inputs: Vec<usize>,
    /// For each *original* latch (creation order): `true` when the latch is
    /// outside the structural cone of every seed, so its value is
    /// irrelevant to all seeds and a witness may print `x` for it. Swept
    /// (stuck) latches inside a cone are **not** don't-care — their constant
    /// value matters.
    pub dontcare_latches: Vec<bool>,
    /// Same flag for original inputs.
    pub dontcare_inputs: Vec<bool>,
    /// Shape accounting.
    pub report: PreprocessReport,
}

/// One rebuild round: sweep + hash + cone-restrict `current` for `seeds`.
struct Round {
    netlist: Netlist,
    seed_signals: Vec<Signal>,
    /// reduced latch index → `current` latch index (creation order).
    kept_latches: Vec<usize>,
    kept_inputs: Vec<usize>,
    /// Per `current` latch/input index: visited by the cone traversal.
    visited_latches: Vec<bool>,
    visited_inputs: Vec<bool>,
    swept: usize,
    hashed: usize,
}

/// The constant a latch is stuck at: its next-state function can never
/// change its (binary) initial value. `None` for every other node.
fn stuck_value(id: NodeId, node: Node<'_>) -> Option<bool> {
    let Node::Latch {
        init,
        next: Some(next),
    } = node
    else {
        return None;
    };
    if init == LatchInit::Free {
        return None;
    }
    let value = init_value(init);
    // next = self (same polarity): holds its initial value forever.
    let holds = next == id.signal();
    // next = constant equal to the initial value.
    let const_same = next.is_const() && next.apply(false) == value;
    (holds || const_same).then_some(value)
}

fn canonical_key(op: GateOp, fanins: &[Signal]) -> (GateOp, Vec<usize>) {
    let mut codes: Vec<usize> = fanins.iter().map(|s| s.code()).collect();
    // AND and XOR are commutative; MUX operands are positional.
    if op != GateOp::Mux {
        codes.sort_unstable();
    }
    (op, codes)
}

fn rebuild_round(current: &Netlist, seeds: &[Signal]) -> Round {
    // Cone traversal from the seeds; stuck latches are visited (their
    // constant matters) but not traversed (nothing upstream matters).
    let mut visited = vec![false; current.num_nodes()];
    visited[NodeId::CONST.index()] = true;
    let mut stack: Vec<NodeId> = seeds.iter().map(|s| s.node()).collect();
    while let Some(id) = stack.pop() {
        if visited[id.index()] {
            continue;
        }
        visited[id.index()] = true;
        match current.node(id) {
            Node::Gate { fanins, .. } => stack.extend(fanins.iter().map(|s| s.node())),
            node @ Node::Latch {
                next: Some(next), ..
            } if stuck_value(id, node).is_none() => stack.push(next.node()),
            _ => {}
        }
    }

    let mut reduced = Netlist::new();
    // Per `current` node, its signal in `reduced` (read only for nodes the
    // traversal visited, and for stuck latches).
    let mut map: Vec<Signal> = vec![Signal::FALSE; current.num_nodes()];
    let mut kept_latches = Vec::new();
    let mut kept_inputs = Vec::new();
    let mut visited_latches = Vec::new();
    let mut visited_inputs = Vec::new();
    let mut swept = 0usize;

    // Pass 1: surviving inputs and latches, in original creation order so
    // the kept maps are strictly increasing.
    for id in current.node_ids() {
        match current.node(id) {
            Node::Input => {
                let keep = visited[id.index()];
                if keep {
                    kept_inputs.push(visited_inputs.len());
                    let name = current.name(id).unwrap_or("in");
                    map[id.index()] = reduced.add_input(name);
                }
                visited_inputs.push(keep);
            }
            node @ Node::Latch { init, .. } => {
                let in_cone = visited[id.index()];
                if let Some(value) = stuck_value(id, node) {
                    if in_cone {
                        swept += 1;
                    }
                    map[id.index()] = if value { Signal::TRUE } else { Signal::FALSE };
                } else if in_cone {
                    kept_latches.push(visited_latches.len());
                    let name = current.name(id).unwrap_or("latch");
                    map[id.index()] = reduced.add_latch(name, init);
                }
                visited_latches.push(in_cone);
            }
            _ => {}
        }
    }

    let translate = |map: &[Signal], s: Signal| -> Signal {
        let base = map[s.node().index()];
        if s.is_inverted() {
            !base
        } else {
            base
        }
    };

    // Pass 2: gates in topological order, consulting the structural hash
    // table before constructing (the constructors additionally fold
    // constants, so substituted stuck latches evaporate here).
    let mut hash: HashMap<(GateOp, Vec<usize>), Signal> = HashMap::new();
    let mut hashed = 0usize;
    for id in current.topo_order() {
        if !visited[id.index()] {
            continue;
        }
        if let Node::Gate { op, fanins } = current.node(id) {
            let new_fanins: Vec<Signal> = fanins.iter().map(|&s| translate(&map, s)).collect();
            let key = canonical_key(op, &new_fanins);
            let new_sig = match hash.get(&key) {
                Some(&sig) => {
                    hashed += 1;
                    sig
                }
                None => {
                    let sig = match op {
                        GateOp::And => reduced.and_many(&new_fanins),
                        GateOp::Xor => reduced.xor2(new_fanins[0], new_fanins[1]),
                        GateOp::Mux => reduced.mux(new_fanins[0], new_fanins[1], new_fanins[2]),
                    };
                    hash.insert(key, sig);
                    sig
                }
            };
            map[id.index()] = new_sig;
        }
    }

    // Pass 3: connect surviving latches.
    for id in current.node_ids() {
        let node = current.node(id);
        if let Node::Latch {
            next: Some(next), ..
        } = node
        {
            if visited[id.index()] && stuck_value(id, node).is_none() {
                reduced.set_next(map[id.index()], translate(&map, next));
            }
        }
    }

    let seed_signals: Vec<Signal> = seeds.iter().map(|&s| translate(&map, s)).collect();
    Round {
        netlist: reduced,
        seed_signals,
        kept_latches,
        kept_inputs,
        visited_latches,
        visited_inputs,
        swept,
        hashed,
    }
}

/// Runs the full pass — constant sweeping, structural hashing, and COI
/// restriction — to a fixpoint, seeded by `seeds` (typically the bad-state
/// signals of every property over the netlist).
///
/// # Panics
///
/// Panics if the netlist fails [`Netlist::validate`] (unconnected latches).
///
/// # Examples
///
/// ```
/// use rbmc_circuit::preprocess::preprocess;
/// use rbmc_circuit::{LatchInit, Netlist};
///
/// let mut n = Netlist::new();
/// let stuck = n.add_latch("stuck", LatchInit::Zero);
/// n.set_next(stuck, stuck); // can never leave 0
/// let live = n.add_latch("live", LatchInit::Zero);
/// n.set_next(live, !live);
/// let bad = n.or2(stuck, live);
/// let pp = preprocess(&n, &[bad]);
/// assert_eq!(pp.netlist.num_latches(), 1); // `stuck` swept away
/// assert_eq!(pp.report.swept_latches, 1);
/// ```
pub fn preprocess(netlist: &Netlist, seeds: &[Signal]) -> Preprocessed {
    netlist.validate().expect("netlist must be well-formed");
    let before = NetlistStats::of(netlist);

    // The netlist of the latest round; round 1 reads the caller's netlist
    // in place.
    let mut current: Option<Netlist> = None;
    let mut cur_seeds = seeds.to_vec();
    // Composition of the per-round kept maps, in original indices.
    let mut latch_back: Vec<usize> = (0..before.latches).collect();
    let mut input_back: Vec<usize> = (0..before.inputs).collect();
    let mut dontcare_latches = vec![false; before.latches];
    let mut dontcare_inputs = vec![false; before.inputs];
    let mut swept = 0usize;
    let mut hashed = 0usize;
    let mut rounds = 0usize;

    loop {
        rounds += 1;
        let input = current.as_ref().unwrap_or(netlist);
        let round = rebuild_round(input, &cur_seeds);
        if rounds == 1 {
            // Round 1 traverses the *original* netlist, so its visited sets
            // are the exact structural cones: anything unvisited can take
            // any value without affecting a seed (witnesses may print `x`).
            for (i, &v) in round.visited_latches.iter().enumerate() {
                dontcare_latches[i] = !v;
            }
            for (i, &v) in round.visited_inputs.iter().enumerate() {
                dontcare_inputs[i] = !v;
            }
        }
        swept += round.swept;
        hashed += round.hashed;
        latch_back = round.kept_latches.iter().map(|&i| latch_back[i]).collect();
        input_back = round.kept_inputs.iter().map(|&i| input_back[i]).collect();
        let changed = round.swept > 0 || round.netlist.num_nodes() != input.num_nodes();
        current = Some(round.netlist);
        cur_seeds = round.seed_signals;
        // Each shrinking round removes at least one node, so this always
        // terminates; the cap is a belt-and-braces guard.
        if !changed || rounds > netlist.num_nodes() {
            break;
        }
    }
    let mut current = current.expect("the loop runs at least one round");

    for (i, &s) in cur_seeds.iter().enumerate() {
        current.add_output(&format!("pp{i}"), s);
    }
    let after = NetlistStats::of(&current);
    let report = PreprocessReport {
        dropped_latches: before.latches - after.latches - swept,
        dropped_inputs: before.inputs - after.inputs,
        before,
        after,
        swept_latches: swept,
        hashed_gates: hashed,
        rounds,
    };
    Preprocessed {
        netlist: current,
        seed_signals: cur_seeds,
        kept_latches: latch_back,
        kept_inputs: input_back,
        dontcare_latches,
        dontcare_inputs,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{read_signal, Simulator};
    use crate::LatchInit;

    /// Two independent counters plus a stuck latch OR-ed into the property.
    fn mixed_netlist() -> (Netlist, Signal) {
        let mut n = Netlist::new();
        let stuck = n.add_latch("stuck", LatchInit::Zero);
        n.set_next(stuck, stuck);
        let a: Vec<Signal> = (0..3)
            .map(|i| n.add_latch(&format!("a{i}"), LatchInit::Zero))
            .collect();
        let b: Vec<Signal> = (0..3)
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
        let bad = n.or2(stuck, a[2]);
        (n, bad)
    }

    #[test]
    fn sweeps_stuck_and_drops_out_of_cone() {
        let (n, bad) = mixed_netlist();
        let pp = preprocess(&n, &[bad]);
        pp.netlist.validate().unwrap();
        // `stuck` swept, counter b out of cone: 3 latches survive.
        assert_eq!(pp.netlist.num_latches(), 3);
        assert_eq!(pp.report.swept_latches, 1);
        assert_eq!(pp.report.dropped_latches, 3);
        // `stuck` is latch 0, counter a is 1..=3: kept map skips 0.
        assert_eq!(pp.kept_latches, vec![1, 2, 3]);
        // `stuck` is in the cone (its constant matters); b is don't-care.
        assert_eq!(
            pp.dontcare_latches,
            vec![false, false, false, false, true, true, true]
        );
    }

    #[test]
    fn stuck_at_one_and_const_next_forms() {
        let mut n = Netlist::new();
        let one = n.add_latch("one", LatchInit::One);
        n.set_next(one, one);
        let zero = n.add_latch("zero", LatchInit::Zero);
        n.set_next(zero, Signal::FALSE);
        let toggling = n.add_latch("toggling", LatchInit::Zero);
        n.set_next(toggling, !toggling); // NOT stuck
        let free = n.add_latch("free", LatchInit::Free);
        n.set_next(free, free); // NOT stuck: initial value is unconstrained
        let g1 = n.and2(one, toggling);
        let g2 = n.or2(zero, free);
        let bad = n.and2(g1, g2);
        let pp = preprocess(&n, &[bad]);
        assert_eq!(pp.report.swept_latches, 2);
        assert_eq!(pp.netlist.num_latches(), 2);
        assert_eq!(pp.kept_latches, vec![2, 3]);
    }

    #[test]
    fn sweeping_cascades_to_fixpoint() {
        let mut n = Netlist::new();
        let a = n.add_latch("a", LatchInit::Zero);
        n.set_next(a, a); // stuck at 0
        let x = n.add_input("x");
        let b = n.add_latch("b", LatchInit::Zero);
        let bn = n.and2(a, x); // folds to 0 once a sweeps
        n.set_next(b, bn);
        let pp = preprocess(&n, &[b]);
        // Round 1 sweeps `a`; round 2 then finds b's next constant-0.
        assert_eq!(pp.seed_signals[0], Signal::FALSE);
        assert_eq!(pp.netlist.num_latches(), 0);
        assert_eq!(pp.report.swept_latches, 2);
        assert!(pp.report.rounds >= 2);
    }

    #[test]
    fn structural_hashing_merges_duplicate_gates() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        // Two identical ANDs, built separately (commuted operands too).
        let g1 = n.and2(a, b);
        let g2 = n.and2(b, a);
        let bad = n.xor2(g1, !g2); // xor(g, !g) would fold if merged
        let pp = preprocess(&n, &[bad]);
        assert!(pp.report.hashed_gates >= 1);
        // After merging, xor(g, !g) folds to constant true.
        assert_eq!(pp.seed_signals[0], Signal::TRUE);
    }

    #[test]
    fn preserves_seed_behaviour() {
        let (n, bad) = mixed_netlist();
        let pp = preprocess(&n, &[bad]);
        let mut sim_full = Simulator::new(&n);
        let mut sim_red = Simulator::new(&pp.netlist);
        for step in 0..20 {
            let full = read_signal(&sim_full.frame_values(&[]), bad);
            let red = read_signal(&sim_red.frame_values(&[]), pp.seed_signals[0]);
            assert_eq!(full, red, "diverged at step {step}");
            sim_full.step(&[]);
            sim_red.step(&[]);
        }
    }

    #[test]
    fn identity_on_fully_live_netlist() {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..4)
            .map(|i| n.add_latch(&format!("c{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&l, &nx) in bits.iter().zip(&next) {
            n.set_next(l, nx);
        }
        let bad = n.bus_eq_const(&bits, 11);
        let pp = preprocess(&n, &[bad]);
        assert_eq!(pp.netlist.num_latches(), 4);
        assert_eq!(pp.kept_latches, vec![0, 1, 2, 3]);
        assert_eq!(pp.report.swept_latches, 0);
        assert!(pp.dontcare_latches.iter().all(|&d| !d));
    }

    #[test]
    fn multi_seed_union_keeps_both_cones() {
        let (n, bad) = mixed_netlist();
        // Second seed over counter b's MSB keeps b's cone alive as well
        // (b2's next depends on every b bit through the ripple carry).
        let b2 = n.latches()[6].signal();
        let pp = preprocess(&n, &[bad, b2]);
        assert_eq!(pp.netlist.num_latches(), 6);
        assert_eq!(pp.seed_signals.len(), 2);
        assert!(pp.dontcare_latches[4..7].iter().all(|&d| !d));
    }
}
