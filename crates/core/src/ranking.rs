//! The `varRank` score table of §3.2.
//!
//! After instance `j` is proven UNSAT, every variable in its unsatisfiable
//! core receives additional weight. The paper's choice (here
//! [`Weighting::Linear`]) is
//!
//! ```text
//! bmc_score(x) = Σ_{1≤j≤k} in_unsat(x, j) · j
//! ```
//!
//! so recent cores — better correlated with the next instance — weigh more,
//! while no single core is trusted exclusively. The [`Weighting::Uniform`]
//! and [`Weighting::LastOnly`] variants exist for the ablation benches.

use std::collections::HashMap;

use rbmc_cnf::Var;

/// How core membership at each depth contributes to `bmc_score` (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Weighting {
    /// The paper's scheme: instance `j` contributes weight `j` (1-based).
    #[default]
    Linear,
    /// Every past core contributes weight 1.
    Uniform,
    /// Only the most recent core matters (scores reset each instance).
    LastOnly,
}

/// How [`VarRank`] physically stores scores.
///
/// Cores cite a small fraction of a deep unrolling's variables, so a dense
/// `Vec<u64>` indexed by variable (linear in `depth × netlist`) wastes most
/// of its length on zeros. The table therefore starts as a hash map of only
/// the non-zero entries and **promotes itself to dense storage** when the
/// occupancy crosses [`DENSE_PROMOTION_DIVISOR`] (at that density the flat
/// array is both smaller and faster). The representation is an internal
/// detail: every observable ([`VarRank::score`], [`VarRank::snapshot`], …)
/// is identical in both forms, and [`Weighting::LastOnly`] — which clears
/// the table on every update — resets to the sparse form each time.
#[derive(Clone, Debug)]
enum RankStore {
    /// Only non-zero entries, keyed by variable index.
    Sparse(HashMap<usize, u64>),
    /// Flat array indexed by variable (the original representation).
    Dense(Vec<u64>),
}

impl Default for RankStore {
    fn default() -> RankStore {
        RankStore::Sparse(HashMap::new())
    }
}

/// Promote sparse → dense when more than `1/DENSE_PROMOTION_DIVISOR` of the
/// index range is occupied: beyond that a flat `u64` array is smaller than
/// the hash map's per-entry overhead.
const DENSE_PROMOTION_DIVISOR: usize = 4;

/// The mutable `varRank` list of Fig. 5.
///
/// Indexed by the frame-stable CNF variables of the
/// [`Unroller`](crate::Unroller); grows on demand as deeper instances add
/// variables. Storage is sparse until the table fills up (see
/// [`VarRank::is_sparse`]), so a deep unrolling whose cores touch few
/// variables costs memory proportional to the cores, not the encoding.
///
/// # Examples
///
/// ```
/// use rbmc_cnf::Var;
/// use rbmc_core::{VarRank, Weighting};
///
/// let mut rank = VarRank::new(Weighting::Linear);
/// rank.update(&[Var::new(0), Var::new(2)], 0); // core of instance k=0
/// rank.update(&[Var::new(2)], 1);              // core of instance k=1
/// // Weights are (k+1): x0 got 1, x2 got 1 + 2 = 3.
/// assert_eq!(rank.score(Var::new(0)), 1);
/// assert_eq!(rank.score(Var::new(2)), 3);
/// assert_eq!(rank.score(Var::new(1)), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarRank {
    store: RankStore,
    /// One past the highest variable index ever credited (the length the
    /// dense form has / would have).
    len: usize,
    weighting: Weighting,
    updates: usize,
}

impl VarRank {
    /// Creates an empty ranking.
    pub fn new(weighting: Weighting) -> VarRank {
        VarRank {
            store: RankStore::default(),
            len: 0,
            weighting,
            updates: 0,
        }
    }

    /// The paper's `update_ranking`: credits every variable of the core of
    /// the depth-`k` instance. In a multi-property run the engine passes the
    /// deduplicated **union** of the open properties' cores at that depth,
    /// so one table serves every property's next episode (each variable is
    /// credited once per depth regardless of how many cores cite it).
    ///
    /// Depths are 0-based here; the contribution is `k + 1` so the first
    /// instance still counts (the paper writes the sum 1-based).
    pub fn update(&mut self, core_vars: &[Var], depth: usize) {
        let weight = match self.weighting {
            Weighting::Linear => depth as u64 + 1,
            Weighting::Uniform => 1,
            Weighting::LastOnly => {
                self.store = RankStore::default();
                self.len = 0;
                1
            }
        };
        for &v in core_vars {
            let index = v.index();
            self.len = self.len.max(index + 1);
            match &mut self.store {
                RankStore::Sparse(map) => {
                    *map.entry(index).or_insert(0) += weight;
                }
                RankStore::Dense(scores) => {
                    if index >= scores.len() {
                        scores.resize(index + 1, 0);
                    }
                    scores[index] += weight;
                }
            }
        }
        if let RankStore::Sparse(map) = &self.store {
            if map.len() * DENSE_PROMOTION_DIVISOR >= self.len && self.len > 0 {
                let mut scores = vec![0u64; self.len];
                for (&index, &score) in map {
                    scores[index] = score;
                }
                self.store = RankStore::Dense(scores);
            }
        }
        self.updates += 1;
    }

    /// The accumulated `bmc_score` of a variable.
    pub fn score(&self, var: Var) -> u64 {
        match &self.store {
            RankStore::Sparse(map) => map.get(&var.index()).copied().unwrap_or(0),
            RankStore::Dense(scores) => scores.get(var.index()).copied().unwrap_or(0),
        }
    }

    /// A dense copy of the score table (what
    /// [`Solver::set_var_ranking`](rbmc_solver::Solver::set_var_ranking)
    /// consumes), of length one past the highest credited variable.
    /// Variables beyond the end score 0.
    pub fn snapshot(&self) -> Vec<u64> {
        match &self.store {
            RankStore::Sparse(map) => {
                let mut scores = vec![0u64; self.len];
                for (&index, &score) in map {
                    scores[index] = score;
                }
                scores
            }
            RankStore::Dense(scores) => {
                let mut scores = scores.clone();
                scores.resize(self.len, 0);
                scores
            }
        }
    }

    /// Number of `update` calls so far (i.e. UNSAT instances consumed).
    pub fn num_updates(&self) -> usize {
        self.updates
    }

    /// Number of variables with a non-zero score.
    pub fn num_ranked(&self) -> usize {
        match &self.store {
            RankStore::Sparse(map) => map.len(),
            RankStore::Dense(scores) => scores.iter().filter(|&&s| s > 0).count(),
        }
    }

    /// Number of score entries physically stored (the space the table
    /// occupies: hash entries when sparse, array length when dense).
    pub fn num_entries(&self) -> usize {
        match &self.store {
            RankStore::Sparse(map) => map.len(),
            RankStore::Dense(scores) => scores.len(),
        }
    }

    /// Whether the table is currently in its sparse (hash) form.
    pub fn is_sparse(&self) -> bool {
        matches!(self.store, RankStore::Sparse(_))
    }

    /// The weighting scheme in use.
    pub fn weighting(&self) -> Weighting {
        self.weighting
    }

    /// Structural self-check of the table: the current representation must
    /// be internally consistent (sparse keys in bounds and non-zero, dense
    /// storage no longer than the advertised length), and every observable
    /// — [`VarRank::score`], [`VarRank::snapshot`], [`VarRank::num_ranked`]
    /// — must agree with a freshly materialized dense view, which is the
    /// sparse/dense equivalence contract the promotion machinery promises.
    ///
    /// O(len); called at depth boundaries by the engine's
    /// `debug-invariants` builds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        match &self.store {
            RankStore::Sparse(map) => {
                for (&index, &score) in map {
                    if index >= self.len {
                        return Err(format!(
                            "rank: sparse key {index} beyond advertised length {}",
                            self.len
                        ));
                    }
                    if score == 0 {
                        return Err(format!("rank: sparse entry {index} stores a zero score"));
                    }
                }
            }
            RankStore::Dense(scores) => {
                if scores.len() > self.len {
                    return Err(format!(
                        "rank: dense storage of {} entries exceeds advertised length {}",
                        scores.len(),
                        self.len
                    ));
                }
            }
        }
        let snapshot = self.snapshot();
        if snapshot.len() != self.len {
            return Err(format!(
                "rank: snapshot length {} != advertised length {}",
                snapshot.len(),
                self.len
            ));
        }
        let mut nonzero = 0usize;
        for (index, &score) in snapshot.iter().enumerate() {
            if self.score(Var::new(index)) != score {
                return Err(format!(
                    "rank: score({index}) = {} disagrees with snapshot {score}",
                    self.score(Var::new(index))
                ));
            }
            if score > 0 {
                nonzero += 1;
            }
        }
        if nonzero != self.num_ranked() {
            return Err(format!(
                "rank: num_ranked() = {} but the snapshot has {nonzero} non-zero scores",
                self.num_ranked()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(ids: &[usize]) -> Vec<Var> {
        ids.iter().map(|&i| Var::new(i)).collect()
    }

    #[test]
    fn linear_weights_recent_cores_more() {
        let mut rank = VarRank::new(Weighting::Linear);
        rank.update(&vars(&[0, 1]), 0);
        rank.update(&vars(&[1, 2]), 1);
        rank.update(&vars(&[2]), 2);
        assert_eq!(rank.score(Var::new(0)), 1);
        assert_eq!(rank.score(Var::new(1)), 1 + 2);
        assert_eq!(rank.score(Var::new(2)), 2 + 3);
        assert_eq!(rank.num_updates(), 3);
        assert_eq!(rank.num_ranked(), 3);
    }

    #[test]
    fn uniform_ignores_depth() {
        let mut rank = VarRank::new(Weighting::Uniform);
        rank.update(&vars(&[0]), 0);
        rank.update(&vars(&[0]), 9);
        assert_eq!(rank.score(Var::new(0)), 2);
    }

    #[test]
    fn last_only_resets() {
        let mut rank = VarRank::new(Weighting::LastOnly);
        rank.update(&vars(&[0, 1]), 0);
        rank.update(&vars(&[1]), 1);
        assert_eq!(rank.score(Var::new(0)), 0);
        assert_eq!(rank.score(Var::new(1)), 1);
    }

    #[test]
    fn sparse_store_promotes_to_dense_by_density() {
        // A single far-out variable keeps the table sparse…
        let mut rank = VarRank::new(Weighting::Linear);
        rank.update(&vars(&[9999]), 0);
        assert!(rank.is_sparse());
        assert_eq!(rank.num_entries(), 1);
        assert_eq!(rank.snapshot().len(), 10_000);
        // …while a dense block of credits crosses the promotion threshold.
        let mut rank = VarRank::new(Weighting::Linear);
        let block: Vec<Var> = (0..64).map(Var::new).collect();
        rank.update(&block, 0);
        assert!(!rank.is_sparse());
        assert_eq!(rank.num_entries(), 64);
        assert_eq!(rank.num_ranked(), 64);
    }

    #[test]
    fn sparse_and_dense_forms_agree_on_every_observable() {
        // Same update batch; one table driven over the promotion threshold
        // first, the other kept sparse. Scores and snapshots must agree
        // with a plain dense reference regardless of representation.
        let batch = update_batch();
        let mut reference: Vec<u64> = Vec::new();
        let mut rank = VarRank::new(Weighting::Linear);
        for (core, depth) in &batch {
            rank.update(core, *depth);
            for v in core {
                if v.index() >= reference.len() {
                    reference.resize(v.index() + 1, 0);
                }
                reference[v.index()] += *depth as u64 + 1;
            }
        }
        assert_eq!(rank.snapshot(), reference);
        for (i, &score) in reference.iter().enumerate() {
            assert_eq!(rank.score(Var::new(i)), score);
        }
    }

    #[test]
    fn last_only_resets_to_sparse() {
        let mut rank = VarRank::new(Weighting::LastOnly);
        let block: Vec<Var> = (0..64).map(Var::new).collect();
        rank.update(&block, 0);
        assert!(!rank.is_sparse(), "dense after a full block");
        rank.update(&vars(&[70_000]), 1);
        assert!(rank.is_sparse(), "cleared table restarts sparse");
        assert_eq!(rank.num_entries(), 1);
        assert_eq!(rank.score(Var::new(3)), 0);
    }

    #[test]
    fn unknown_vars_score_zero() {
        let rank = VarRank::new(Weighting::Linear);
        assert_eq!(rank.score(Var::new(1000)), 0);
        assert_eq!(rank.num_ranked(), 0);
    }

    /// Per-depth core unions with overlapping variables.
    fn update_batch() -> Vec<(Vec<Var>, usize)> {
        vec![
            (vars(&[0, 2, 5]), 0),
            (vars(&[1, 2]), 1),
            (vars(&[2, 3, 5]), 2),
            (vars(&[0, 4]), 3),
            (vars(&[5]), 4),
        ]
    }
}
