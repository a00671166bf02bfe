//! Shared harness code for the experiment binaries (`table1`, `fig6`,
//! `fig7`, `overhead`, and the ablations) and the `rbmc` corpus runner.
//!
//! Every experiment binary regenerates one table or figure of the paper; the
//! README's *Reproducing the paper's tables and figures* section lists them,
//! and PAPER.md (*§4 — experiments*) maps them to the paper.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rbmc_core::{
    BmcEngine, BmcOptions, BmcOutcome, BmcRun, OrderingStrategy, SolverReuse, Weighting,
};
use rbmc_gens::{BenchInstance, Expectation};

pub mod report;

pub use report::{BenchCase, BenchReport};

/// Result of running one instance under one strategy.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// Instance name.
    pub name: String,
    /// `T`/`F` ground truth label.
    pub verdict: &'static str,
    /// Strategy label (`bmc`, `sta`, `dyn`, `sht`).
    pub strategy: &'static str,
    /// Wall-clock time of the whole run.
    pub time: Duration,
    /// Total decisions over all depths.
    pub decisions: u64,
    /// Total implications over all depths.
    pub implications: u64,
    /// Total conflicts over all depths.
    pub conflicts: u64,
    /// Deepest completed depth.
    pub completed_depth: usize,
    /// Whether the verdict matched the instance's ground truth.
    pub verdict_ok: bool,
    /// The full run (per-depth statistics).
    pub run: BmcRun,
}

/// Runs one benchmark instance under the given strategy in the paper's
/// fresh-solver-per-depth regime and verifies the verdict against the
/// instance's ground truth. The experiment binaries that regenerate the
/// paper's tables and figures go through this entry point, so their numbers
/// stay comparable with the paper (and with `BENCH_baseline.json`); pass a
/// reuse mode explicitly via [`run_instance_with`] to measure the
/// incremental session instead.
///
/// # Panics
///
/// Panics if the verdict contradicts the ground truth (the harness treats
/// that as a correctness bug, not a data point).
pub fn run_instance(
    instance: &BenchInstance,
    strategy: OrderingStrategy,
    weighting: Weighting,
) -> InstanceResult {
    run_instance_with(instance, strategy, weighting, SolverReuse::Fresh)
}

/// [`run_instance`] with an explicit solver-reuse mode.
///
/// # Panics
///
/// Panics if the verdict contradicts the ground truth.
pub fn run_instance_with(
    instance: &BenchInstance,
    strategy: OrderingStrategy,
    weighting: Weighting,
    reuse: SolverReuse,
) -> InstanceResult {
    let start = Instant::now();
    let mut engine = BmcEngine::new(
        instance.model.clone(),
        BmcOptions {
            max_depth: instance.max_depth,
            strategy,
            weighting,
            reuse,
            ..BmcOptions::default()
        },
    );
    let run = engine.run_collecting();
    let time = start.elapsed();
    let verdict_ok = match (&run.outcome, instance.expectation) {
        (BmcOutcome::Counterexample { depth, trace }, Expectation::FailsAt(d)) => {
            assert!(
                trace.validate(&instance.model).is_ok(),
                "{}: invalid trace",
                instance.name
            );
            *depth == d
        }
        (BmcOutcome::BoundReached { depth_completed }, Expectation::Holds) => {
            *depth_completed == instance.max_depth
        }
        _ => false,
    };
    assert!(
        verdict_ok,
        "{} [{}]: verdict {:?} contradicts ground truth {:?}",
        instance.name,
        strategy.label(),
        run.outcome,
        instance.expectation
    );
    InstanceResult {
        name: instance.name.clone(),
        verdict: instance.verdict_label(),
        strategy: strategy.label(),
        time,
        decisions: run.total_decisions(),
        implications: run.total_implications(),
        conflicts: run.total_conflicts(),
        completed_depth: run.max_completed_depth().unwrap_or(0),
        verdict_ok,
        run,
    }
}

/// Selects the suite a binary runs on: `--smoke` (or `--small`) picks the
/// fast [`rbmc_gens::small_suite`], anything else the full 37-instance
/// [`rbmc_gens::suite_table1`]. Smoke mode exists so CI can exercise the
/// JSON-emitting binaries end-to-end in seconds.
pub fn cli_suite(args: &[String]) -> Vec<BenchInstance> {
    if args.iter().any(|a| a == "--smoke" || a == "--small") {
        rbmc_gens::small_suite()
    } else {
        rbmc_gens::suite_table1()
    }
}

/// Parses `--reuse fresh|session` from a binary's arguments; `default` when
/// the flag is absent. A malformed value aborts the binary (a typo silently
/// measuring the wrong regime would poison the artifact).
pub fn cli_reuse(args: &[String], default: SolverReuse) -> SolverReuse {
    match args
        .iter()
        .position(|a| a == "--reuse")
        .map(|i| args.get(i + 1).map(String::as_str))
    {
        None => default,
        Some(Some("fresh")) => SolverReuse::Fresh,
        Some(Some("session")) => SolverReuse::Session,
        Some(other) => {
            eprintln!(
                "error: --reuse requires `fresh` or `session`, got {:?}",
                other.unwrap_or("<missing>")
            );
            std::process::exit(2);
        }
    }
}

/// The three Table 1 strategies in column order.
pub fn table1_strategies() -> [OrderingStrategy; 3] {
    [
        OrderingStrategy::Standard,
        OrderingStrategy::RefinedStatic,
        OrderingStrategy::RefinedDynamic { divisor: 64 },
    ]
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Percentage of `part` relative to `whole` (100% when `whole` is zero).
pub fn ratio_percent(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        100.0
    } else {
        part / whole * 100.0
    }
}

/// Maps `f` over `0..len` on up to `workers` scoped threads that claim
/// indices off one atomic queue, and returns the results in **index order**
/// regardless of which thread ran what. With one effective worker the items
/// run inline on the calling thread. This is how `rbmc --jobs N` stripes
/// files across workers.
pub fn striped_map<R: Send>(len: usize, workers: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let worker_count = workers.min(len).max(1);
    if worker_count == 1 {
        return (0..len).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..worker_count {
            let (next, slots, f) = (&next, &slots, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                *slots[i].lock().expect("slot lock") = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every index mapped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::striped_map;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn striped_map_returns_results_in_index_order_and_runs_each_index_once() {
        for len in [0usize, 1, 37] {
            for workers in [1usize, 2, 8, 64] {
                let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let out = striped_map(len, workers, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * i
                });
                let expect: Vec<usize> = (0..len).map(|i| i * i).collect();
                assert_eq!(out, expect, "len {len}, workers {workers}");
                for (i, n) in runs.iter().enumerate() {
                    assert_eq!(
                        n.load(Ordering::Relaxed),
                        1,
                        "index {i} (len {len}, workers {workers})"
                    );
                }
            }
        }
    }
}
