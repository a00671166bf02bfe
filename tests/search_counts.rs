//! Exact search counts on the small suite.
//!
//! Decisions, propagations, conflicts and solve calls repeat exactly from
//! run to run, so any change to them is a change to the search. This test
//! pins them for every `small_suite()` instance under the paper's dynamic
//! ordering (`RefinedDynamic { divisor: 64 }`), once for the BMC session
//! engine and once for IC3. A third table runs the BMC session engine on the
//! same instances after a trip through the AIGER front end — written in both
//! encodings, read back, raised to a netlist — so the reader, `Aig` and
//! `Aig::to_netlist` are pinned by what they build, not only by how it
//! behaves.
//!
//! At this scale `dyn/64` hands the search to VSIDS almost at once, so a
//! fourth table pins the `varRank` table itself: the paper's static ordering
//! (`RefinedStatic`, which never falls back) in its fresh-per-depth regime,
//! under each of the three core weightings of §3.2.
//!
//! None of those runs reaches the solver's periodic work: a Luby restart
//! (128 conflicts), a score halving (256), a database reduction (2,000
//! learned clauses) or a CDG prune. A fifth table runs two FIFOs of
//! `suite_table1()` deep enough to reach all four, pinning how many times
//! each ran, and pins the same runs' proof logs under `ProofMode::Check`.
//!
//! A change that is meant to leave the search alone must pass unchanged.
//! A change that alters the search replaces the tables below with the ones
//! the failure message prints, so the new counts show up in review.

use refined_bmc::bmc::{
    BmcEngine, BmcOptions, BmcRun, Ic3Engine, OrderingStrategy, ProblemBuilder, ProofMode,
    SolverReuse, Weighting,
};
use refined_bmc::circuit::aiger::{parse_aiger, write_aag, write_aig};
use refined_bmc::gens::corpus::problem_to_aig;
use refined_bmc::gens::{small_suite, suite_table1};

/// `(instance, [decisions, propagations, conflicts, solve_calls])`.
type CountTable = [(&'static str, [u64; 4])];

/// BMC, one session solver per instance, to the instance's depth bound.
const BMC_SESSION: &CountTable = &[
    ("s1_lock4", [4, 198, 1, 5]),
    ("s2_lock3_imp", [7, 310, 7, 9]),
    ("s3_ring5", [0, 198, 0, 9]),
    ("s4_ring4_bug2", [13, 88, 0, 4]),
    ("s5_shift5", [1, 53, 0, 6]),
    ("s6_twin4", [126, 965, 52, 9]),
    ("s7_fifo4_over", [31, 715, 15, 6]),
    ("s8_fifo4_guard", [127, 5344, 97, 9]),
    ("s9_tmr2_f1", [85, 772, 17, 7]),
    ("s10_pipe4", [6, 55, 0, 5]),
];

/// IC3 to the instance's frame bound.
const IC3: &CountTable = &[
    ("s1_lock4", [92, 416, 3, 23]),
    ("s2_lock3_imp", [31, 132, 2, 12]),
    ("s3_ring5", [469, 1315, 21, 87]),
    ("s4_ring4_bug2", [106, 269, 4, 25]),
    ("s5_shift5", [99, 101, 0, 25]),
    ("s6_twin4", [540, 670, 28, 104]),
    ("s7_fifo4_over", [311, 1033, 24, 49]),
    ("s8_fifo4_guard", [178, 722, 23, 32]),
    ("s9_tmr2_f1", [162, 432, 9, 34]),
    ("s10_pipe4", [79, 83, 0, 24]),
];

/// BMC, one session solver per instance, on the problem read back from the
/// instance's AIGER file (`problem_to_aig`, then `write_aag` or `write_aig`,
/// then `parse_aiger` and `ProblemBuilder::from_aig`).
const AIGER_BMC_SESSION: &CountTable = &[
    ("s1_lock4.aag", [4, 303, 1, 5]),
    ("s1_lock4.aig", [4, 303, 1, 5]),
    ("s2_lock3_imp.aag", [7, 498, 7, 9]),
    ("s2_lock3_imp.aig", [7, 498, 7, 9]),
    ("s3_ring5.aag", [0, 270, 0, 9]),
    ("s3_ring5.aig", [0, 270, 0, 9]),
    ("s4_ring4_bug2.aag", [13, 104, 0, 4]),
    ("s4_ring4_bug2.aig", [13, 104, 0, 4]),
    ("s5_shift5.aag", [1, 71, 0, 6]),
    ("s5_shift5.aig", [1, 71, 0, 6]),
    ("s6_twin4.aag", [126, 1275, 52, 9]),
    ("s6_twin4.aig", [126, 1275, 52, 9]),
    ("s7_fifo4_over.aag", [37, 1844, 20, 6]),
    ("s7_fifo4_over.aig", [37, 1844, 20, 6]),
    ("s8_fifo4_guard.aag", [88, 8401, 64, 9]),
    ("s8_fifo4_guard.aig", [88, 8401, 64, 9]),
    ("s9_tmr2_f1.aag", [79, 1495, 17, 7]),
    ("s9_tmr2_f1.aig", [79, 1495, 17, 7]),
    ("s10_pipe4.aag", [6, 95, 0, 5]),
    ("s10_pipe4.aig", [6, 95, 0, 5]),
];

/// BMC under `RefinedStatic`, a fresh solver per depth, once per core
/// weighting (`instance/weighting`).
const STATIC_FRESH_BY_WEIGHTING: &CountTable = &[
    ("s1_lock4/linear", [3, 337, 4, 5]),
    ("s1_lock4/uniform", [3, 337, 4, 5]),
    ("s1_lock4/last", [3, 337, 4, 5]),
    ("s2_lock3_imp/linear", [38, 2216, 32, 9]),
    ("s2_lock3_imp/uniform", [38, 2216, 32, 9]),
    ("s2_lock3_imp/last", [34, 2237, 34, 9]),
    ("s3_ring5/linear", [0, 945, 9, 9]),
    ("s3_ring5/uniform", [0, 945, 9, 9]),
    ("s3_ring5/last", [0, 945, 9, 9]),
    ("s4_ring4_bug2/linear", [12, 190, 3, 4]),
    ("s4_ring4_bug2/uniform", [12, 190, 3, 4]),
    ("s4_ring4_bug2/last", [12, 190, 3, 4]),
    ("s5_shift5/linear", [0, 146, 5, 6]),
    ("s5_shift5/uniform", [0, 146, 5, 6]),
    ("s5_shift5/last", [0, 146, 5, 6]),
    ("s6_twin4/linear", [95, 1458, 53, 9]),
    ("s6_twin4/uniform", [100, 1534, 53, 9]),
    ("s6_twin4/last", [82, 1279, 53, 9]),
    ("s7_fifo4_over/linear", [25, 857, 15, 6]),
    ("s7_fifo4_over/uniform", [25, 857, 15, 6]),
    ("s7_fifo4_over/last", [28, 938, 17, 6]),
    ("s8_fifo4_guard/linear", [116, 5739, 96, 9]),
    ("s8_fifo4_guard/uniform", [116, 5739, 96, 9]),
    ("s8_fifo4_guard/last", [165, 7580, 131, 9]),
    ("s9_tmr2_f1/linear", [79, 998, 18, 7]),
    ("s9_tmr2_f1/uniform", [76, 1001, 18, 7]),
    ("s9_tmr2_f1/last", [159, 1573, 36, 7]),
    ("s10_pipe4/linear", [5, 100, 3, 5]),
    ("s10_pipe4/uniform", [5, 100, 3, 5]),
    ("s10_pipe4/last", [5, 100, 3, 5]),
];

/// BMC, one session solver per instance, to depth 22: `[decisions,
/// propagations, conflicts, solve_calls, restarts, score_halvings,
/// compactions, cdg_pruned_nodes]`.
const PERIODIC_BMC_SESSION: &[(&str, [u64; 8])] = &[
    ("12_fifo8_guard", [3909, 180683, 2181, 23, 11, 8, 1, 184]),
    ("13_fifo16_guard", [4330, 220887, 2261, 23, 11, 8, 1, 163]),
];

/// The same runs under `ProofMode::Check`: `[proof steps logged, episodes
/// certified]`.
const PERIODIC_PROOF_CHECK: &[(&str, [u64; 2])] = &[
    ("12_fifo8_guard", [7101, 23]),
    ("13_fifo16_guard", [7963, 23]),
];

/// The `suite_table1()` instances of the periodic table, and its depth.
const PERIODIC_INSTANCES: [&str; 2] = ["12_fifo8_guard", "13_fifo16_guard"];
const PERIODIC_DEPTH: usize = 22;

fn options(max_depth: usize) -> BmcOptions {
    BmcOptions {
        max_depth,
        strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
        reuse: SolverReuse::Session,
        ..BmcOptions::default()
    }
}

fn counts(run: &BmcRun) -> [u64; 4] {
    let s = &run.solver_stats;
    [s.decisions, s.propagations, s.conflicts, s.solve_calls]
}

/// Compares the measured rows with `expected`; on a mismatch the panic
/// message carries the whole measured table in source form.
fn assert_pinned<const N: usize>(
    table: &str,
    expected: &[(&str, [u64; N])],
    measured: &[(String, [u64; N])],
) {
    let matches = expected.len() == measured.len()
        && expected
            .iter()
            .zip(measured)
            .all(|((name, want), (got_name, got))| name == got_name && want == got);
    if !matches {
        let mut listing = String::new();
        for (name, c) in measured {
            listing.push_str(&format!("    (\"{name}\", {c:?}),\n"));
        }
        panic!("{table}: search counts changed; measured table:\n{listing}");
    }
}

#[test]
fn bmc_session_counts_are_pinned() {
    let measured: Vec<(String, [u64; 4])> = small_suite()
        .into_iter()
        .map(|instance| {
            let mut engine = BmcEngine::new(instance.model, options(instance.max_depth));
            (instance.name, counts(&engine.run_collecting()))
        })
        .collect();
    assert_pinned("BMC_SESSION", BMC_SESSION, &measured);
}

#[test]
fn ic3_counts_are_pinned() {
    let measured: Vec<(String, [u64; 4])> = small_suite()
        .into_iter()
        .map(|instance| {
            let mut engine = Ic3Engine::new(instance.model, options(instance.max_depth));
            (instance.name, counts(&engine.run_collecting()))
        })
        .collect();
    assert_pinned("IC3", IC3, &measured);
}

#[test]
fn aiger_front_end_counts_are_pinned() {
    let mut measured: Vec<(String, [u64; 4])> = Vec::new();
    for instance in small_suite() {
        let aig = problem_to_aig(&ProblemBuilder::from_model(&instance.model).build());
        for (encoding, bytes) in [
            ("aag", write_aag(&aig).into_bytes()),
            ("aig", write_aig(&aig)),
        ] {
            let name = format!("{}.{encoding}", instance.name);
            let parsed = parse_aiger(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            let problem = ProblemBuilder::from_aig(&instance.name, &parsed).build();
            let mut engine = BmcEngine::for_problem(problem, options(instance.max_depth));
            measured.push((name, counts(&engine.run_collecting())));
        }
    }
    assert_pinned("AIGER_BMC_SESSION", AIGER_BMC_SESSION, &measured);
}

#[test]
fn static_fresh_counts_are_pinned_per_weighting() {
    let mut measured: Vec<(String, [u64; 4])> = Vec::new();
    for instance in small_suite() {
        for (label, weighting) in [
            ("linear", Weighting::Linear),
            ("uniform", Weighting::Uniform),
            ("last", Weighting::LastOnly),
        ] {
            let options = BmcOptions {
                max_depth: instance.max_depth,
                strategy: OrderingStrategy::RefinedStatic,
                reuse: SolverReuse::Fresh,
                weighting,
                ..BmcOptions::default()
            };
            let mut engine = BmcEngine::new(instance.model.clone(), options);
            let name = format!("{}/{label}", instance.name);
            measured.push((name, counts(&engine.run_collecting())));
        }
    }
    assert_pinned(
        "STATIC_FRESH_BY_WEIGHTING",
        STATIC_FRESH_BY_WEIGHTING,
        &measured,
    );
}

#[test]
fn periodic_paths_counts_are_pinned() {
    let mut searches: Vec<(String, [u64; 8])> = Vec::new();
    let mut proofs: Vec<(String, [u64; 2])> = Vec::new();
    for instance in suite_table1() {
        let name = instance.name.as_str();
        if !PERIODIC_INSTANCES.contains(&name) {
            continue;
        }
        let mut search = None;
        for proof in [ProofMode::Off, ProofMode::Check] {
            let options = BmcOptions {
                proof,
                ..options(PERIODIC_DEPTH)
            };
            let run = BmcEngine::new(instance.model.clone(), options).run_collecting();
            let s = &run.solver_stats;
            let row = [
                s.decisions,
                s.propagations,
                s.conflicts,
                s.solve_calls,
                s.restarts,
                s.score_halvings,
                s.compactions,
                s.cdg_pruned_nodes,
            ];
            // Restarts, halvings, compactions and prunes must all have run,
            // or the table no longer covers the periodic paths.
            assert!(
                row[4..].iter().all(|&n| n > 0),
                "{name}: a periodic path never ran: {row:?}"
            );
            match run.proof {
                None => search = Some(row),
                Some(summary) => {
                    assert_eq!(Some(row), search, "{name}: checking changed the search");
                    assert_eq!(summary.rejections, 0, "{name}: a certificate was rejected");
                    proofs.push((
                        name.to_string(),
                        [summary.steps_logged, summary.episodes_certified],
                    ));
                }
            }
        }
        searches.push((
            name.to_string(),
            search.expect("the unchecked run came first"),
        ));
    }
    assert_pinned("PERIODIC_BMC_SESSION", PERIODIC_BMC_SESSION, &searches);
    assert_pinned("PERIODIC_PROOF_CHECK", PERIODIC_PROOF_CHECK, &proofs);
}
