//! The 37-instance benchmark suite mirroring the shape of the paper's
//! Table 1.

use rbmc_core::Model;

use crate::families;

/// Ground truth for one benchmark instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// The property fails; the minimal counterexample has this length.
    FailsAt(usize),
    /// The property holds at every depth the harness will try.
    Holds,
}

/// One row of the benchmark table: a model, its ground truth, and the depth
/// bound the harness should explore (the analog of Table 1's `(k)` column).
#[derive(Debug)]
pub struct BenchInstance {
    /// Table name (ordinal prefix mirrors the paper's `01_b`, `02_1_b1`, …).
    pub name: String,
    /// The model/property pair.
    pub model: Model,
    /// Ground truth.
    pub expectation: Expectation,
    /// Depth bound for passing properties (failing ones stop at the
    /// counterexample).
    pub max_depth: usize,
}

impl BenchInstance {
    fn new(name: &str, model: Model, expectation: Expectation, max_depth: usize) -> BenchInstance {
        BenchInstance {
            name: name.to_string(),
            model,
            expectation,
            max_depth,
        }
    }

    /// `T` for passing properties, `F` for failing ones (Table 1's second
    /// column).
    pub fn verdict_label(&self) -> &'static str {
        match self.expectation {
            Expectation::FailsAt(_) => "F",
            Expectation::Holds => "T",
        }
    }
}

/// The full 37-instance suite standing in for the IBM benchmark set used in
/// §4 (PAPER.md, *§4 — experiments*, gives the substitution rationale).
/// Instances mix failing (`F`) and passing (`T`) properties across ten
/// circuit families, with search-heavy inputs so decision ordering matters.
pub fn suite_table1() -> Vec<BenchInstance> {
    use Expectation::{FailsAt, Holds};
    let mut v: Vec<BenchInstance> = Vec::with_capacity(37);
    let mut add = |name: &str, model: Model, e: Expectation, d: usize| {
        v.push(BenchInstance::new(name, model, e, d));
    };

    // Combination locks: the search-heavy failing family (+ passing twins).
    add(
        "01_lock8",
        families::combination_lock(&[2, 1, 3, 0, 2, 3, 1, 2], 2),
        FailsAt(8),
        12,
    );
    add(
        "02_1_lock10",
        families::combination_lock(&[1, 2, 0, 3, 1, 0, 2, 3, 0, 1], 2),
        FailsAt(10),
        14,
    );
    add(
        "02_2_lock12",
        families::combination_lock(&[3, 1, 0, 2, 3, 0, 1, 2, 3, 1, 0, 2], 2),
        FailsAt(12),
        16,
    );
    add(
        "02_3_lock14",
        families::combination_lock(&[1, 3, 2, 0, 1, 2, 3, 0, 2, 1, 0, 3, 1, 2], 2),
        FailsAt(14),
        18,
    );
    add(
        "03_lock10_imp",
        families::combination_lock_impossible(&[1, 2, 0, 3, 1, 0, 2, 3, 0, 1], 2),
        Holds,
        14,
    );

    // Token rings: mutual exclusion (passing) and injection bugs (failing).
    add("05_ring8", families::token_ring(8), Holds, 16);
    add("06_ring12", families::token_ring(12), Holds, 14);
    add(
        "08_1_ring8_bug4",
        families::token_ring_buggy(8, 4),
        FailsAt(5),
        10,
    );
    add(
        "08_2_ring12_bug6",
        families::token_ring_buggy(12, 6),
        FailsAt(7),
        12,
    );

    // Shift registers.
    add(
        "09_shift12_ones",
        families::shift_all_ones(12),
        FailsAt(12),
        16,
    );
    add("10_1_drift4x6", families::drifting_twin(4, 6), Holds, 16);
    add("10_2_drift4x8", families::drifting_twin(4, 8), Holds, 14);
    add("11_1_shift10_twin", families::shift_twin(10), Holds, 18);
    add("11_2_shift14_twin", families::shift_twin(14), Holds, 16);

    // FIFOs.
    add("12_fifo8_guard", families::fifo_guarded(3), Holds, 16);
    add("13_fifo16_guard", families::fifo_guarded(4), Holds, 14);
    add(
        "14_1_fifo8_over",
        families::fifo_unguarded(3),
        FailsAt(9),
        12,
    );
    add(
        "14_2_fifo16_over",
        families::fifo_unguarded(4),
        FailsAt(17),
        20,
    );

    // Gated counters.
    add(
        "15_cnt8",
        families::gated_counter(8, 1, 11),
        FailsAt(11),
        15,
    );
    add(
        "16_1_cnt10",
        families::gated_counter(10, 1, 13),
        FailsAt(13),
        16,
    );
    add(
        "17_1_cnt12_odd",
        families::gated_counter(12, 2, 15),
        Holds,
        14,
    );
    add(
        "17_2_cnt12",
        families::gated_counter(12, 1, 14),
        FailsAt(14),
        18,
    );

    // TMR voters.
    add("18_tmr3_f1", families::tmr_voter(3, 1), Holds, 12);
    add("19_tmr4_f1", families::tmr_voter(4, 1), Holds, 10);
    add("20_tmr3_f2", families::tmr_voter(3, 2), FailsAt(1), 8);

    // Pipelines.
    add("21_pipe12", families::pipeline_emerge(12), FailsAt(12), 16);
    add("22_pipe16", families::pipeline_emerge(16), FailsAt(16), 20);
    add(
        "23_pipe12_ghost",
        families::pipeline_no_ghost(12),
        Holds,
        16,
    );

    // Counters under flip bounds (binary fails, gray holds).
    add(
        "24_1_bin8_flip3",
        families::binary_flips(8, 3),
        FailsAt(3),
        12,
    );
    add(
        "24_2_bin8_flip4",
        families::binary_flips(8, 4),
        FailsAt(7),
        14,
    );
    add("25_gray8", families::gray_flips(8), Holds, 16);

    // Drifting cores: the adversarial case for the static refinement.
    add("26_1_drift8x6", families::drifting_twin(8, 6), Holds, 16);
    add("26_2_drift8x8", families::drifting_twin(8, 8), Holds, 14);

    // Traffic controllers (the bug window opens when the timer saturates).
    add("27_traffic3", families::traffic_interlock(3), Holds, 18);
    add(
        "28_traffic3_bug",
        families::traffic_buggy(3),
        FailsAt(8),
        12,
    );

    // LFSRs.
    add("29_lfsr10_zero", families::lfsr(10, &[9, 6], 0), Holds, 16);
    add(
        "31_1_lfsr10",
        families::lfsr(10, &[9, 6], 4),
        FailsAt(2),
        10,
    );

    assert_eq!(v.len(), 37, "the suite mirrors Table 1's 37 instances");
    v
}

/// UNSAT-heavy specimens for the proving engine: every instance **holds**,
/// with a counterexample-free frontier at every depth, so BMC alone can
/// never close them — they exist to exercise IC3 proofs (and
/// the core-ordered assumption ranking) rather than bug hunting. Exported
/// into the corpus alongside [`suite_table1`] / [`small_suite`].
pub fn proof_suite() -> Vec<BenchInstance> {
    use Expectation::Holds;
    vec![
        // Token conservation across capture/release: the proof needs the
        // quadratic one-hotness invariant over token AND lock registers.
        BenchInstance::new("p1_mutex4", families::mutex_arbiter(4), Holds, 12),
        // The counter saturates at 10; reaching 12 is unreachable, but only
        // an inductive proof (carving out the band above the cap) shows it.
        BenchInstance::new(
            "p2_satcnt4",
            families::saturating_counter(4, 10, 12),
            Holds,
            16,
        ),
        // Sticky error register guarded by a per-stage relational invariant
        // (twin data chains agree under shared stalls).
        BenchInstance::new("p3_hshake6", families::pipelined_handshake(6), Holds, 12),
        // A wider mutex: more stations, quadratically more invariant
        // clauses — the stress case for the assumption ordering.
        BenchInstance::new("p4_mutex6", families::mutex_arbiter(6), Holds, 10),
    ]
}

/// A fast subset (small parameters) for unit tests and smoke runs.
pub fn small_suite() -> Vec<BenchInstance> {
    use Expectation::{FailsAt, Holds};
    vec![
        BenchInstance::new(
            "s1_lock4",
            families::combination_lock(&[2, 0, 3, 1], 2),
            FailsAt(4),
            8,
        ),
        BenchInstance::new(
            "s2_lock3_imp",
            families::combination_lock_impossible(&[2, 0, 3], 2),
            Holds,
            8,
        ),
        BenchInstance::new("s3_ring5", families::token_ring(5), Holds, 8),
        BenchInstance::new(
            "s4_ring4_bug2",
            families::token_ring_buggy(4, 2),
            FailsAt(3),
            8,
        ),
        BenchInstance::new("s5_shift5", families::shift_all_ones(5), FailsAt(5), 8),
        BenchInstance::new("s6_twin4", families::shift_twin(4), Holds, 8),
        BenchInstance::new("s7_fifo4_over", families::fifo_unguarded(2), FailsAt(5), 8),
        BenchInstance::new("s8_fifo4_guard", families::fifo_guarded(2), Holds, 8),
        BenchInstance::new("s9_tmr2_f1", families::tmr_voter(2, 1), Holds, 6),
        BenchInstance::new("s10_pipe4", families::pipeline_emerge(4), FailsAt(4), 8),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_suite_has_37_instances_with_unique_names() {
        let suite = suite_table1();
        assert_eq!(suite.len(), 37);
        let mut names: Vec<&str> = suite.iter().map(|b| b.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 37, "names must be unique");
    }

    #[test]
    fn suite_mixes_passing_and_failing() {
        let suite = suite_table1();
        let failing = suite
            .iter()
            .filter(|b| matches!(b.expectation, Expectation::FailsAt(_)))
            .count();
        let passing = suite.len() - failing;
        assert!(
            failing >= 10,
            "at least 10 failing instances, got {failing}"
        );
        assert!(
            passing >= 10,
            "at least 10 passing instances, got {passing}"
        );
    }

    #[test]
    fn failing_depths_fit_in_bounds() {
        for b in suite_table1() {
            if let Expectation::FailsAt(d) = b.expectation {
                assert!(
                    d <= b.max_depth,
                    "{}: counterexample depth {d} beyond bound {}",
                    b.name,
                    b.max_depth
                );
            }
        }
    }

    #[test]
    fn all_models_validate() {
        for b in suite_table1() {
            assert!(b.model.netlist().validate().is_ok(), "{}", b.name);
        }
        for b in small_suite() {
            assert!(b.model.netlist().validate().is_ok(), "{}", b.name);
        }
        for b in proof_suite() {
            assert!(b.model.netlist().validate().is_ok(), "{}", b.name);
        }
    }

    #[test]
    fn proof_suite_is_all_holding() {
        let suite = proof_suite();
        assert!(suite.len() >= 3);
        for b in &suite {
            assert_eq!(b.expectation, Expectation::Holds, "{}", b.name);
            assert_eq!(b.verdict_label(), "T", "{}", b.name);
        }
        let mut names: Vec<&str> = suite.iter().map(|b| b.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len(), "names must be unique");
    }

    #[test]
    fn verdict_labels() {
        let suite = small_suite();
        assert_eq!(suite[0].verdict_label(), "F");
        assert_eq!(suite[1].verdict_label(), "T");
    }
}
