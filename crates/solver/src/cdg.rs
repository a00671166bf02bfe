//! The simplified Conflict Dependency Graph (paper §3.1).
//!
//! To extract an unsatisfiable core, every conflict clause must remember
//! which clauses its resolution used. Chaff-style solvers periodically delete
//! learned clauses, which would break that dependency chain — so, exactly as
//! the paper proposes, we keep a *separate, simplified* CDG: each conflict
//! clause is represented only by a pseudo-ID (an integer) and the list of
//! antecedent pseudo-IDs. The clause database can then delete clause bodies
//! freely; the CDG retains everything needed to identify the unsatisfiable
//! core by a backward traversal from the final conflict.
//!
//! Node IDs are allocated from a single sequence shared by original clauses
//! (leaves, carrying their input position) and learned clauses (inner nodes,
//! carrying antecedent lists). The shared sequence is what lets the
//! incremental session API interleave [`Cdg::record_original`] (clauses added
//! between solve calls) with [`Cdg::record_learned`] without the two ID
//! spaces colliding — the fixed `num_original` split of the per-instance
//! design cannot express late originals.
//!
//! The graph is held once. Pruning ([`Cdg::prune_reachable`]) compacts the
//! flat antecedent store in place, in one forward pass, and core extraction
//! marks its visited nodes in a reused epoch-stamped table, so neither
//! copies the graph nor allocates a node-sized scratch table per call.

use crate::marks::Marks;

/// Pseudo-ID of a CDG node (original clauses and conflict clauses share one
/// allocation sequence).
pub(crate) type ClauseId = u32;

/// Leaf marker in the `leaf` table: the node is a learned (inner) node.
const LEARNED: u32 = u32::MAX;

/// The simplified conflict dependency graph.
///
/// Nodes are clause pseudo-IDs; the antecedent lists are the edges. The
/// "empty clause" node of the paper's Fig. 2 is stored separately as
/// `final_antecedents`.
///
/// Antecedent lists are stored flat (one data array plus per-node end
/// offsets) rather than as one `Vec` per node: recording a node is then an
/// allocation-free append, which matters because the solver records a node
/// for every level-0 implication and every learned clause.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Cdg {
    /// Concatenated antecedent lists, in node order (leaves contribute an
    /// empty list).
    ant_data: Vec<ClauseId>,
    /// `ant_ends[id]` is the end offset in `ant_data` of node `id`'s list
    /// (its start is `ant_ends[id - 1]`, or 0).
    ant_ends: Vec<u32>,
    /// Input position of the original clause a leaf node stands for, or
    /// [`LEARNED`] for inner nodes.
    leaf: Vec<u32>,
    /// Number of learned (inner) nodes recorded so far.
    num_learned: u64,
    /// Antecedents of the final (empty-clause) conflict, once UNSAT is
    /// established outright (not merely under assumptions).
    final_antecedents: Option<Vec<ClauseId>>,
    /// Scratch of the backward traversals: the nodes visited so far.
    marks: Marks,
    /// Scratch of the backward traversals: the nodes still to visit.
    stack: Vec<ClauseId>,
}

impl Cdg {
    /// Creates an empty CDG.
    pub(crate) fn new() -> Cdg {
        Cdg::default()
    }

    /// Records an original clause (a leaf) and returns its pseudo-ID.
    /// `input_pos` is the clause's position in `add_clause` order — what
    /// core extraction reports back.
    pub(crate) fn record_original(&mut self, input_pos: u32) -> ClauseId {
        let id = self.ant_ends.len() as ClauseId;
        self.ant_ends.push(self.ant_data.len() as u32);
        self.leaf.push(input_pos);
        id
    }

    /// Records a learned clause and returns its pseudo-ID.
    pub(crate) fn record_learned(&mut self, antecedents: &[ClauseId]) -> ClauseId {
        let id = self.ant_ends.len() as ClauseId;
        self.ant_data.extend_from_slice(antecedents);
        self.ant_ends.push(self.ant_data.len() as u32);
        self.leaf.push(LEARNED);
        self.num_learned += 1;
        id
    }

    /// The antecedent list of the node with `id`.
    fn antecedents_of(&self, id: usize) -> &[ClauseId] {
        let start = if id == 0 {
            0
        } else {
            self.ant_ends[id - 1] as usize
        };
        &self.ant_data[start..self.ant_ends[id] as usize]
    }

    /// Records the antecedents of the final conflict (the empty-clause node).
    pub(crate) fn record_final(&mut self, antecedents: Vec<ClauseId>) {
        self.final_antecedents = Some(antecedents);
    }

    /// Returns true once the final conflict has been recorded.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn has_final(&self) -> bool {
        self.final_antecedents.is_some()
    }

    /// Number of learned-clause (inner) nodes.
    pub(crate) fn num_nodes(&self) -> u64 {
        self.num_learned
    }

    /// Number of antecedent edges.
    pub(crate) fn num_edges(&self) -> u64 {
        self.ant_data.len() as u64
            + self
                .final_antecedents
                .as_ref()
                .map_or(0, |a| a.len() as u64)
    }

    /// Traverses the CDG backward from `roots` and returns the sorted input
    /// positions of the original clauses that are reachable — the
    /// unsatisfiable core of the conflict those roots derive.
    ///
    /// This is the per-call core of the incremental session API: an UNSAT
    /// answer under assumptions has no final empty clause, so the engine
    /// extracts the core from the antecedents of the failing-assumption
    /// analysis instead of a recorded final conflict.
    pub(crate) fn core_from(&mut self, roots: &[ClauseId]) -> Vec<usize> {
        self.core_of(roots, false)
    }

    /// Extracts the core of the recorded final conflict, or `None` if no
    /// final conflict was recorded (the instance was not proved outright
    /// unsatisfiable, or CDG recording was disabled).
    pub(crate) fn extract_core(&mut self) -> Option<Vec<usize>> {
        self.final_antecedents
            .is_some()
            .then(|| self.core_of(&[], true))
    }

    /// The sorted input positions of the leaves reachable from `roots` (and
    /// from the final conflict, if `with_final`).
    fn core_of(&mut self, roots: &[ClauseId], with_final: bool) -> Vec<usize> {
        let mut core = Vec::new();
        self.mark_reachable(roots, with_final, |pos| core.push(pos as usize));
        core.sort_unstable();
        core.dedup();
        core
    }

    /// Marks, in a new epoch of `marks`, every node reachable from `roots`
    /// (and from the final conflict, if `with_final`), calling `on_leaf`
    /// with the input position of each reachable leaf.
    fn mark_reachable(
        &mut self,
        roots: &[ClauseId],
        with_final: bool,
        mut on_leaf: impl FnMut(u32),
    ) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        stack.extend_from_slice(roots);
        if with_final {
            stack.extend(self.final_antecedents.iter().flatten());
        }
        self.marks.clear(self.ant_ends.len());
        while let Some(id) = stack.pop() {
            let idx = id as usize;
            if !self.marks.insert(idx) {
                continue;
            }
            match self.leaf[idx] {
                LEARNED => stack.extend_from_slice(self.antecedents_of(idx)),
                input_pos => on_leaf(input_pos),
            }
        }
        self.stack = stack;
    }

    /// Discards every node unreachable from `roots` (and from the recorded
    /// final conflict, if any), compacting the remaining nodes down and
    /// returning the ID remap: `remap[old_id]` is the surviving node's new
    /// ID, or [`ClauseId::MAX`] for a discarded node.
    ///
    /// This is the session-memory bound of a long BMC run: every future core
    /// extraction starts from the CDG IDs of *live* clauses (arena records
    /// plus level-0 unit facts), so once a node is unreachable from all of
    /// them it can never appear in another proof and its antecedent storage
    /// is pure garbage. The caller owns the live-root inventory — see
    /// [`Solver::prune_cdg`](crate::Solver::prune_cdg), which also rewrites
    /// the IDs stored outside the graph.
    ///
    /// Node order (and hence the relative order of surviving IDs) is
    /// preserved, so interleaved original/learned recording keeps working
    /// after a prune. The compaction runs in place, in one forward pass:
    /// a node's antecedents were recorded before it, so they are renumbered
    /// by the time it is read, and every write lands at or below the
    /// position it reads from (as in `ClauseArena::compact_learned`). The
    /// stores keep their buffers; no second copy of the graph is made.
    pub(crate) fn prune_reachable(&mut self, roots: &[ClauseId]) -> Vec<ClauseId> {
        self.mark_reachable(roots, true, |_| {});
        let num_nodes = self.ant_ends.len();
        let mut remap = vec![ClauseId::MAX; num_nodes];
        let (mut kept, mut words, mut start) = (0usize, 0usize, 0usize);
        let mut num_learned = 0u64;
        for old in 0..num_nodes {
            let end = self.ant_ends[old] as usize;
            if self.marks.contains(old) {
                for read in start..end {
                    let ant = remap[self.ant_data[read] as usize];
                    debug_assert_ne!(ant, ClauseId::MAX, "kept node cites kept node");
                    self.ant_data[words] = ant;
                    words += 1;
                }
                remap[old] = kept as ClauseId;
                self.ant_ends[kept] = words as u32;
                self.leaf[kept] = self.leaf[old];
                num_learned += u64::from(self.leaf[old] == LEARNED);
                kept += 1;
            }
            start = end;
        }
        self.ant_data.truncate(words);
        self.ant_ends.truncate(kept);
        self.leaf.truncate(kept);
        self.num_learned = num_learned;
        if let Some(final_ants) = self.final_antecedents.as_mut() {
            for ant in final_ants.iter_mut() {
                *ant = remap[*ant as usize];
            }
        }
        remap
    }

    /// Total number of nodes (leaves and inner) currently stored.
    pub(crate) fn num_total_nodes(&self) -> usize {
        self.ant_ends.len()
    }

    /// Audit helper: traverses backward from `roots` (plus the recorded
    /// final conflict, if any), checking that every visited ID and every
    /// antecedent edge stays in bounds and that the flat antecedent storage
    /// is internally consistent. Returns the number of reachable nodes.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn audit_reachable(&self, roots: &[ClauseId]) -> Result<usize, String> {
        let total = self.ant_ends.len();
        if self.leaf.len() != total {
            return Err(format!(
                "cdg: {} leaf markers for {} nodes",
                self.leaf.len(),
                total
            ));
        }
        let mut prev = 0u32;
        for (id, &end) in self.ant_ends.iter().enumerate() {
            if end < prev || end as usize > self.ant_data.len() {
                return Err(format!("cdg: antecedent end of node {id} is not monotone"));
            }
            prev = end;
        }
        if prev as usize != self.ant_data.len() {
            return Err(format!(
                "cdg: {} antecedent words stored, ends account for {prev}",
                self.ant_data.len()
            ));
        }
        let mut seen = vec![false; total];
        let mut stack: Vec<ClauseId> = roots.to_vec();
        if let Some(final_ants) = &self.final_antecedents {
            stack.extend_from_slice(final_ants);
        }
        let mut reachable = 0usize;
        while let Some(id) = stack.pop() {
            let idx = id as usize;
            if idx >= total {
                return Err(format!("cdg: node id {id} out of bounds ({total} nodes)"));
            }
            if seen[idx] {
                continue;
            }
            seen[idx] = true;
            reachable += 1;
            if self.leaf[idx] == LEARNED {
                for &ant in self.antecedents_of(idx) {
                    if ant as usize >= total {
                        return Err(format!(
                            "cdg: node {idx} cites antecedent {ant} out of bounds ({total} nodes)"
                        ));
                    }
                    if ant >= id {
                        return Err(format!(
                            "cdg: node {idx} cites antecedent {ant} recorded no earlier than itself"
                        ));
                    }
                    stack.push(ant);
                }
            }
        }
        Ok(reachable)
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// Registers `n` original clauses with input positions `0..n`.
    fn with_originals(n: u32) -> (Cdg, Vec<ClauseId>) {
        let mut cdg = Cdg::new();
        let ids = (0..n).map(|i| cdg.record_original(i)).collect();
        (cdg, ids)
    }

    #[test]
    fn core_of_direct_final_conflict() {
        // Two original clauses resolve directly to the empty clause.
        let (mut cdg, ids) = with_originals(3);
        cdg.record_final(vec![ids[0], ids[2]]);
        assert_eq!(cdg.extract_core(), Some(vec![0, 2]));
    }

    #[test]
    fn core_traverses_learned_chain() {
        // originals: 0,1,2,3. learned a <- {0,1}; learned b <- {a,2};
        // final <- {b}. Core = {0,1,2}; clause 3 is not involved.
        let (mut cdg, ids) = with_originals(4);
        let a = cdg.record_learned(&[ids[0], ids[1]]);
        let b = cdg.record_learned(&[a, ids[2]]);
        cdg.record_final(vec![b]);
        assert_eq!(cdg.extract_core(), Some(vec![0, 1, 2]));
    }

    #[test]
    fn shared_antecedents_visited_once() {
        let (mut cdg, ids) = with_originals(2);
        let a = cdg.record_learned(&[ids[0], ids[1]]);
        let b = cdg.record_learned(&[a, ids[0]]);
        let c = cdg.record_learned(&[a, b, ids[1]]);
        cdg.record_final(vec![b, c]);
        assert_eq!(cdg.extract_core(), Some(vec![0, 1]));
        assert_eq!(cdg.num_nodes(), 3);
        assert_eq!(cdg.num_edges(), 2 + 2 + 3 + 2);
    }

    #[test]
    fn no_final_no_core() {
        let (mut cdg, ids) = with_originals(2);
        cdg.record_learned(&[ids[0]]);
        assert_eq!(cdg.extract_core(), None);
        assert!(!cdg.has_final());
    }

    #[test]
    fn originals_interleave_with_learned_nodes() {
        // The incremental session interleaves: original, learned, original.
        let mut cdg = Cdg::new();
        let o0 = cdg.record_original(0);
        let l = cdg.record_learned(&[o0]);
        let o1 = cdg.record_original(1);
        assert!(o0 < l && l < o1, "ids are allocated from one sequence");
        // A per-call core rooted in both the learned node and the late leaf.
        assert_eq!(cdg.core_from(&[l, o1]), vec![0, 1]);
        assert_eq!(cdg.num_nodes(), 1);
    }

    #[test]
    fn core_from_dedupes_roots() {
        let (mut cdg, ids) = with_originals(1);
        let a = cdg.record_learned(&[ids[0], ids[0]]);
        assert_eq!(cdg.core_from(&[a, a, ids[0]]), vec![0]);
    }

    #[test]
    fn prune_drops_unreachable_chains() {
        // originals 0..3; a <- {0,1}; b <- {a,2}; dead <- {b,3}.
        // Keeping only {a, leaves} must drop b and dead but keep a's chain.
        let (mut cdg, ids) = with_originals(4);
        let a = cdg.record_learned(&[ids[0], ids[1]]);
        let b = cdg.record_learned(&[a, ids[2]]);
        let _dead = cdg.record_learned(&[b, ids[3]]);
        assert_eq!(cdg.num_total_nodes(), 7);
        let roots: Vec<ClauseId> = ids.iter().copied().chain([a]).collect();
        let remap = cdg.prune_reachable(&roots);
        assert_eq!(cdg.num_total_nodes(), 5);
        assert_eq!(cdg.num_nodes(), 1);
        assert_eq!(remap[b as usize], ClauseId::MAX);
        // The surviving node still derives its original core via the
        // remapped IDs.
        let new_a = remap[a as usize];
        assert_eq!(cdg.core_from(&[new_a]), vec![0, 1]);
        // Recording continues seamlessly after a prune.
        let c = cdg.record_learned(&[new_a, remap[ids[3] as usize]]);
        assert_eq!(cdg.core_from(&[c]), vec![0, 1, 3]);
    }

    #[test]
    fn prune_keeps_final_conflict_reachable() {
        let (mut cdg, ids) = with_originals(3);
        let a = cdg.record_learned(&[ids[0], ids[2]]);
        cdg.record_final(vec![a]);
        // No explicit roots: the final conflict alone keeps its chain.
        let remap = cdg.prune_reachable(&ids);
        assert_ne!(remap[a as usize], ClauseId::MAX);
        assert_eq!(cdg.extract_core(), Some(vec![0, 2]));
    }

    /// The copying prune `prune_reachable` replaced, kept as the reference
    /// of the in-place one: it builds the compacted graph as a second copy.
    fn prune_by_copy(cdg: &Cdg, roots: &[ClauseId]) -> (Cdg, Vec<ClauseId>) {
        let num_nodes = cdg.ant_ends.len();
        let mut keep = vec![false; num_nodes];
        let mut stack: Vec<ClauseId> = roots.to_vec();
        if let Some(final_ants) = &cdg.final_antecedents {
            stack.extend_from_slice(final_ants);
        }
        while let Some(id) = stack.pop() {
            let idx = id as usize;
            if !keep[idx] {
                keep[idx] = true;
                if cdg.leaf[idx] == LEARNED {
                    stack.extend_from_slice(cdg.antecedents_of(idx));
                }
            }
        }
        let mut remap = vec![ClauseId::MAX; num_nodes];
        let mut pruned = Cdg::new();
        for old in (0..num_nodes).filter(|&old| keep[old]) {
            remap[old] = pruned.ant_ends.len() as ClauseId;
            for &ant in cdg.antecedents_of(old) {
                pruned.ant_data.push(remap[ant as usize]);
            }
            pruned.ant_ends.push(pruned.ant_data.len() as u32);
            pruned.leaf.push(cdg.leaf[old]);
            pruned.num_learned += u64::from(cdg.leaf[old] == LEARNED);
        }
        pruned.final_antecedents = cdg
            .final_antecedents
            .as_ref()
            .map(|ants| ants.iter().map(|&ant| remap[ant as usize]).collect());
        (pruned, remap)
    }

    /// Records `count` random nodes: leaves with fresh input positions and
    /// learned nodes citing one to four earlier nodes.
    fn record_random(cdg: &mut Cdg, rng: &mut StdRng, count: usize, next_pos: &mut u32) {
        for _ in 0..count {
            let total = cdg.num_total_nodes();
            if total == 0 || rng.gen_bool(0.3) {
                cdg.record_original(*next_pos);
                *next_pos += 1;
            } else {
                let ants: Vec<ClauseId> = (0..rng.gen_range(1..5usize))
                    .map(|_| rng.gen_range(0..total) as ClauseId)
                    .collect();
                cdg.record_learned(&ants);
            }
        }
    }

    #[test]
    fn in_place_prune_matches_the_copying_prune() {
        let seeds = if cfg!(miri) { 4 } else { 200 };
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next_pos = 0;
            let mut cdg = Cdg::new();
            let count = rng.gen_range(1..60usize);
            record_random(&mut cdg, &mut rng, count, &mut next_pos);
            let total = cdg.num_total_nodes();
            if rng.gen_bool(0.5) {
                let ants = (0..rng.gen_range(1..4usize))
                    .map(|_| rng.gen_range(0..total) as ClauseId)
                    .collect();
                cdg.record_final(ants);
            }
            let roots: Vec<ClauseId> = (0..total as ClauseId)
                .filter(|_| rng.gen_bool(0.2))
                .collect();
            // A core extraction first, so the prune starts from a used
            // scratch table.
            cdg.core_from(&roots);
            let (mut reference, want_remap) = prune_by_copy(&cdg, &roots);
            let mut before = cdg.clone();
            let buffer = (cdg.ant_data.as_ptr(), cdg.ant_data.capacity());

            let remap = cdg.prune_reachable(&roots);
            assert_eq!(remap, want_remap, "seed {seed}");
            assert_eq!(cdg.ant_data, reference.ant_data, "seed {seed}");
            assert_eq!(cdg.ant_ends, reference.ant_ends, "seed {seed}");
            assert_eq!(cdg.leaf, reference.leaf, "seed {seed}");
            assert_eq!(cdg.num_learned, reference.num_learned, "seed {seed}");
            assert_eq!(cdg.final_antecedents, reference.final_antecedents);
            assert_eq!(
                (cdg.ant_data.as_ptr(), cdg.ant_data.capacity()),
                buffer,
                "seed {seed}: the antecedent store was reallocated"
            );
            for (old, &new) in remap.iter().enumerate() {
                if new != ClauseId::MAX {
                    let want = before.core_from(&[old as ClauseId]);
                    assert_eq!(cdg.core_from(&[new]), want, "seed {seed}, node {old}");
                    assert_eq!(reference.core_from(&[new]), want, "seed {seed}");
                }
            }
            assert_eq!(cdg.extract_core(), before.extract_core(), "seed {seed}");

            // Recording continues on the compacted graph as on the copy.
            let mut reference_pos = next_pos;
            let mut replay = rng.clone();
            record_random(&mut cdg, &mut rng, 20, &mut next_pos);
            record_random(&mut reference, &mut replay, 20, &mut reference_pos);
            for id in 0..cdg.num_total_nodes() as ClauseId {
                assert_eq!(cdg.core_from(&[id]), reference.core_from(&[id]));
            }
        }
    }
}
