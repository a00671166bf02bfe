//! Search statistics.

/// Counters collected during a solve.
///
/// `decisions` and `propagations` correspond to the paper's
/// "Number of Decisions" and "Number of Implications" (Fig. 7); the size of
/// the search tree is proportional to `decisions`.
///
/// # Examples
///
/// ```
/// use rbmc_cnf::parse_dimacs;
/// use rbmc_solver::Solver;
///
/// let f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")?;
/// let mut solver = Solver::from_formula(&f);
/// solver.solve();
/// assert!(solver.stats().propagations >= 1);
/// # Ok::<(), rbmc_cnf::ParseDimacsError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made (paper: number of decisions; Fig. 7 left).
    pub decisions: u64,
    /// Number of implied assignments made by BCP (paper: implications;
    /// Fig. 7 right).
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned (conflict) clauses added.
    pub learned: u64,
    /// Number of learned clauses whose bodies were deleted by clause-database
    /// reduction. Their CDG pseudo-IDs survive (§3.1).
    pub deleted: u64,
    /// Number of input clauses skipped as tautologies (both phases of a
    /// variable); they are never watched and never enter cores.
    pub tautologies: u64,
    /// Number of arena compactions performed by clause-database reduction
    /// (each one relocates the surviving learned clauses and rebuilds the
    /// watch lists).
    pub compactions: u64,
    /// Number of learned clauses deleted because a level-0 fact (typically a
    /// retired activation literal of the incremental session) satisfies them
    /// forever.
    pub root_satisfied_deleted: u64,
    /// Number of literals in all learned clauses (for overhead accounting).
    pub learned_literals: u64,
    /// Number of solve episodes
    /// ([`Solver::solve_under`](crate::Solver::solve_under) /
    /// [`Solver::solve_limited`](crate::Solver::solve_limited) calls) run on
    /// this solver.
    pub solve_calls: u64,
    /// Number of solve episodes that ended UNSAT because an assumption
    /// failed (the incremental session's per-depth UNSAT verdicts).
    pub assumption_conflicts: u64,
    /// Total learned clauses alive at the start of each solve episode after
    /// the first — the work an incremental session carries across calls that
    /// a fresh-per-depth setup would discard.
    pub learned_retained: u64,
    /// Number of VSIDS halving rounds applied to `cha_score`.
    pub score_halvings: u64,
    /// True if the dynamic configuration gave up on the refined ordering and
    /// switched back to pure VSIDS (§3.3).
    pub switched_to_vsids: bool,
    /// Number of nodes recorded in the simplified conflict dependency graph.
    pub cdg_nodes: u64,
    /// Number of antecedent edges recorded in the simplified CDG.
    pub cdg_edges: u64,
    /// Highest number of learned CDG nodes alive at once. Without pruning
    /// this equals the final `cdg_nodes`; with depth-boundary pruning
    /// ([`Solver::prune_cdg`](crate::Solver::prune_cdg)) it is the session's
    /// actual memory high-water mark.
    pub cdg_peak_nodes: u64,
    /// Number of CDG nodes discarded by [`Solver::prune_cdg`](crate::Solver::prune_cdg)
    /// (unreachable from every live clause and root-level fact).
    pub cdg_pruned_nodes: u64,
    /// Number of watch-list entries rewritten by arena compaction. Only the
    /// entries of clauses that actually relocated are touched; every other
    /// watch list survives a compaction byte-for-byte.
    pub watch_entries_repaired: u64,
    /// High-water mark of the clause arena, in bytes (original + learned
    /// clause storage; updated at allocation and compaction).
    pub arena_peak_bytes: u64,
    /// High-water mark of stored `varRank` entries, filled in by the
    /// engines, not the solver. BMC keeps one table, whose length is one
    /// past the highest variable any core cited; IC3 keeps one table per
    /// frame for each property and counts the largest total of one
    /// property's tables. 0 under a strategy that ranks by no cores.
    pub rank_peak_entries: u64,
}

impl SolverStats {
    /// Creates zeroed statistics.
    pub fn new() -> SolverStats {
        SolverStats::default()
    }

    /// Adds the counters of `other` into `self` (used to accumulate per-depth
    /// statistics over a whole BMC run). `switched_to_vsids` is OR-ed.
    pub fn accumulate(&mut self, other: &SolverStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learned += other.learned;
        self.deleted += other.deleted;
        self.tautologies += other.tautologies;
        self.compactions += other.compactions;
        self.root_satisfied_deleted += other.root_satisfied_deleted;
        self.learned_literals += other.learned_literals;
        self.solve_calls += other.solve_calls;
        self.assumption_conflicts += other.assumption_conflicts;
        self.learned_retained += other.learned_retained;
        self.score_halvings += other.score_halvings;
        self.switched_to_vsids |= other.switched_to_vsids;
        self.cdg_nodes += other.cdg_nodes;
        self.cdg_edges += other.cdg_edges;
        // A peak is a high-water mark, not a flow: over independent solvers
        // the aggregate peak is the largest individual one.
        self.cdg_peak_nodes = self.cdg_peak_nodes.max(other.cdg_peak_nodes);
        self.cdg_pruned_nodes += other.cdg_pruned_nodes;
        self.watch_entries_repaired += other.watch_entries_repaired;
        self.arena_peak_bytes = self.arena_peak_bytes.max(other.arena_peak_bytes);
        self.rank_peak_entries = self.rank_peak_entries.max(other.rank_peak_entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_counters() {
        let mut a = SolverStats {
            decisions: 3,
            propagations: 10,
            conflicts: 1,
            ..SolverStats::default()
        };
        let b = SolverStats {
            decisions: 2,
            propagations: 5,
            switched_to_vsids: true,
            ..SolverStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.decisions, 5);
        assert_eq!(a.propagations, 15);
        assert_eq!(a.conflicts, 1);
        assert!(a.switched_to_vsids);
    }

    #[test]
    fn accumulate_maxes_peaks() {
        let mut a = SolverStats {
            cdg_peak_nodes: 7,
            arena_peak_bytes: 100,
            rank_peak_entries: 9,
            ..SolverStats::default()
        };
        let b = SolverStats {
            cdg_peak_nodes: 3,
            arena_peak_bytes: 250,
            rank_peak_entries: 2,
            ..SolverStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.cdg_peak_nodes, 7);
        assert_eq!(a.arena_peak_bytes, 250);
        assert_eq!(a.rank_peak_entries, 9);
    }
}
