//! Shtrichman's time-axis static ordering (related work, CAV 2000).
//!
//! Shtrichman viewed the unrolled BMC instance as a circuit on a plane whose
//! x-axis is the time frames and whose y-axis is the registers, and sorted
//! the decision variables by their position on the *time* axis (a BFS over
//! the variable dependency graph starting from the initial state). The DAC'04
//! paper positions its refinement as sorting along the *register* axis
//! instead. We implement the time-axis ordering as a ranking over the same
//! frame-stable variables, so the two philosophies can be compared head to
//! head (the register- vs time-axis section of the `ablations` bench).

use crate::Unroller;

/// Builds a per-variable ranking that prefers earlier time frames: all
/// variables of frame 0 outrank all of frame 1, and so on. Within a frame
/// the solver's `cha_score` tiebreaks, as in the static scheme of §3.3.
///
/// `k` is the current unrolling depth (frames `0..=k` exist).
///
/// # Examples
///
/// ```
/// use rbmc_circuit::{LatchInit, Netlist};
/// use rbmc_core::{shtrichman_rank, Model, Unroller};
///
/// let mut n = Netlist::new();
/// let t = n.add_latch("t", LatchInit::Zero);
/// n.set_next(t, !t);
/// let model = Model::new("toggle", n, t);
/// let unroller = Unroller::new(&model);
/// let rank = shtrichman_rank(&unroller, 2);
/// let nodes = model.netlist().num_nodes();
/// // Frame 0 variables outrank frame 2 variables.
/// assert!(rank[0] > rank[2 * nodes]);
/// ```
pub fn shtrichman_rank(unroller: &Unroller<'_>, k: usize) -> Vec<u64> {
    let num_vars = unroller.num_vars_at(k);
    (0..num_vars)
        .map(|v| {
            let frame = v / unroller.model().netlist().num_nodes();
            (k + 1 - frame) as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use rbmc_circuit::{LatchInit, Netlist};

    #[test]
    fn earlier_frames_rank_higher() {
        let mut n = Netlist::new();
        let t = n.add_latch("t", LatchInit::Zero);
        n.set_next(t, !t);
        let model = Model::new("m", n, t);
        let unroller = Unroller::new(&model);
        let rank = shtrichman_rank(&unroller, 3);
        let nodes = model.netlist().num_nodes();
        assert_eq!(rank.len(), 4 * nodes);
        for frame in 0..3 {
            assert!(
                rank[frame * nodes] > rank[(frame + 1) * nodes],
                "frame {frame} must outrank frame {}",
                frame + 1
            );
        }
        // Within a frame all scores are equal.
        assert_eq!(rank[0], rank[nodes - 1]);
    }
}
