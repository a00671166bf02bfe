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

/// The mutable `varRank` list of Fig. 5.
///
/// One score per frame-stable CNF variable of the
/// [`Unroller`](crate::Unroller), held densely up to the highest variable
/// any core has cited, which is the slice
/// [`Solver::set_var_ranking`](rbmc_solver::Solver::set_var_ranking) reads.
/// The table grows on demand as deeper instances add variables, and never
/// shrinks.
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
/// assert_eq!(rank.scores(), &[1, 0, 3]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarRank {
    /// `scores[v]` is variable `v`'s `bmc_score`; variables past the end
    /// score 0.
    scores: Vec<u64>,
    weighting: Weighting,
    updates: usize,
}

impl VarRank {
    /// Creates an empty ranking.
    pub fn new(weighting: Weighting) -> VarRank {
        VarRank {
            scores: Vec::new(),
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
                self.scores.fill(0);
                1
            }
        };
        for &v in core_vars {
            let index = v.index();
            if index >= self.scores.len() {
                self.scores.resize(index + 1, 0);
            }
            self.scores[index] += weight;
        }
        self.updates += 1;
    }

    /// The accumulated `bmc_score` of a variable.
    pub fn score(&self, var: Var) -> u64 {
        self.scores.get(var.index()).copied().unwrap_or(0)
    }

    /// The score table, indexed by variable, through the highest variable
    /// ever credited (what
    /// [`Solver::set_var_ranking`](rbmc_solver::Solver::set_var_ranking)
    /// consumes). Variables beyond the end score 0.
    pub fn scores(&self) -> &[u64] {
        &self.scores
    }

    /// Number of `update` calls so far (i.e. UNSAT instances consumed).
    pub fn num_updates(&self) -> usize {
        self.updates
    }

    /// Number of variables with a non-zero score.
    pub fn num_ranked(&self) -> usize {
        self.scores.iter().filter(|&&s| s > 0).count()
    }

    /// Number of score entries stored (the space the table occupies).
    pub fn num_entries(&self) -> usize {
        self.scores.len()
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
    fn table_is_dense_through_the_highest_credited_variable() {
        let mut rank = VarRank::new(Weighting::Linear);
        rank.update(&vars(&[3, 1]), 0);
        assert_eq!(rank.scores(), &[0, 1, 0, 1]);
        assert_eq!(rank.num_entries(), 4);
        assert_eq!(rank.num_ranked(), 2);
    }

    #[test]
    fn last_only_reset_keeps_the_table_length() {
        let mut rank = VarRank::new(Weighting::LastOnly);
        rank.update(&vars(&[0, 5]), 0);
        rank.update(&vars(&[2]), 1);
        assert_eq!(rank.scores(), &[0, 0, 1, 0, 0, 0]);
        assert_eq!(rank.num_ranked(), 1);
    }

    #[test]
    fn unknown_vars_score_zero() {
        let rank = VarRank::new(Weighting::Linear);
        assert_eq!(rank.score(Var::new(1000)), 0);
        assert_eq!(rank.num_ranked(), 0);
    }
}
