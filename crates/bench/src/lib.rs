//! Shared harness code for the experiment binaries (`table1`, `overhead`
//! and `ablations`) and the `rbmc` corpus runner: one way to run a suite
//! instance ([`run_instance`]), one strict argument reader ([`number`],
//! [`choice`], [`path`], [`json_out`]), and the file striping of `rbmc
//! --jobs` ([`striped_map`]).
//!
//! Every experiment binary runs each of its configurations once per
//! instance and prints every view of the paper it reproduces from those
//! runs; the README's *Reproducing the paper's tables and figures* section
//! lists them, and PAPER.md (*§4 — experiments*) maps them to the paper.

#![warn(missing_docs)]

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rbmc_core::{BmcEngine, BmcOptions, BmcRun, PropertyVerdict};
use rbmc_gens::{BenchInstance, Expectation};

pub mod report;

pub use report::{BenchCase, BenchReport};

/// Result of running one instance under one strategy.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// Instance name.
    pub name: String,
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
    /// The full run (per-depth statistics).
    pub run: BmcRun,
}

/// Runs one benchmark instance to its own depth bound under `options` (its
/// `max_depth` is replaced by the instance's) and verifies the verdict
/// against the instance's ground truth. Every experiment binary goes
/// through this entry point. [`BmcOptions::default`] runs the incremental
/// session, so an experiment names its `reuse` regime explicitly: the
/// paper's tables and figures come from [`SolverReuse::Fresh`], a solver
/// per depth.
///
/// [`SolverReuse::Fresh`]: rbmc_core::SolverReuse::Fresh
///
/// # Panics
///
/// Panics if the verdict contradicts the ground truth (the harness treats
/// that as a correctness bug, not a data point).
pub fn run_instance(instance: &BenchInstance, options: BmcOptions) -> InstanceResult {
    let start = Instant::now();
    let mut engine = BmcEngine::new(
        instance.model.clone(),
        BmcOptions {
            max_depth: instance.max_depth,
            ..options
        },
    );
    let run = engine.run_collecting();
    let time = start.elapsed();
    assert!(
        verdict_matches(instance, &run),
        "{} [{}]: verdict {} contradicts ground truth {:?}",
        instance.name,
        options.strategy.label(),
        run.properties[0].verdict,
        instance.expectation
    );
    InstanceResult {
        name: instance.name.clone(),
        strategy: options.strategy.label(),
        time,
        decisions: run.total_decisions(),
        implications: run.total_implications(),
        conflicts: run.total_conflicts(),
        completed_depth: run.max_completed_depth().unwrap_or(0),
        run,
    }
}

/// Whether a run of `instance`'s single property reached its ground truth:
/// a counterexample of the expected length that replays on the model, or
/// the property still open at the instance's depth bound.
fn verdict_matches(instance: &BenchInstance, run: &BmcRun) -> bool {
    match (&run.properties[0].verdict, instance.expectation) {
        (PropertyVerdict::Falsified { depth, trace }, Expectation::FailsAt(d)) => {
            *depth == d && trace.validate(&instance.model).is_ok()
        }
        (PropertyVerdict::OpenAt { depth }, Expectation::Holds) => *depth == instance.max_depth,
        _ => false,
    }
}

/// The value of a numeric flag. A following flag is not a value:
/// `--jobs --no-json` is missing one, and `--depth 2O` cannot run at the
/// default depth. Like the other argument readers, the error is the whole
/// message the binary prints before it exits 2.
pub fn number<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> Result<T, String> {
    let value = value.filter(|v| !v.starts_with("--"));
    value.and_then(|v| v.parse().ok()).ok_or_else(|| {
        format!(
            "error: {flag} requires a non-negative integer, got {:?}",
            value.unwrap_or("<missing>")
        )
    })
}

/// The value of a flag that takes one of a fixed set of names.
pub fn choice<T: Copy>(
    flag: &str,
    value: Option<&str>,
    choices: &[(&str, T)],
) -> Result<T, String> {
    let found = choices.iter().find(|(name, _)| Some(*name) == value);
    found.map(|&(_, choice)| choice).ok_or_else(|| {
        let names: Vec<&str> = choices.iter().map(|&(name, _)| name).collect();
        format!(
            "error: {flag} requires {}, got `{}`",
            names.join("|"),
            value.unwrap_or("<missing>")
        )
    })
}

/// The value of a path flag; a following flag is not a path.
pub fn path(flag: &str, value: Option<&str>, what: &str) -> Result<PathBuf, String> {
    match value {
        Some(v) if !v.starts_with("--") => Ok(PathBuf::from(v)),
        _ => Err(format!("error: {flag} requires {what} argument")),
    }
}

/// Where a binary writes its JSON artifact: nowhere under `--no-json`
/// (whatever the order of the flags), else the `--json-out` path, else
/// `BENCH_<name>.json` in the current directory.
pub fn json_out(json_out: Option<PathBuf>, no_json: bool, name: &str) -> Option<PathBuf> {
    match (json_out, no_json) {
        (_, true) => None,
        (path, false) => Some(path.unwrap_or_else(|| format!("BENCH_{name}.json").into())),
    }
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
///
/// Every call is isolated: a panic inside `f(i)` is caught where it happens
/// and becomes `Err` holding the panic's message at index `i`, while every
/// other index still runs and returns in order. One file whose check panics
/// thus fails on its own, instead of unwinding through the thread scope and
/// losing the whole sweep.
pub fn striped_map<R: Send>(
    len: usize,
    workers: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<Result<R, String>> {
    let run = |i: usize| {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with a non-string payload".to_string())
        })
    };
    let worker_count = workers.min(len).max(1);
    if worker_count == 1 {
        return (0..len).map(run).collect();
    }
    let slots: Vec<Mutex<Option<Result<R, String>>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..worker_count {
            let (next, slots, run) = (&next, &slots, &run);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                let result = run(i);
                *slots[i]
                    .lock()
                    .expect("no worker panics while holding a slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics while holding a slot")
                .expect("every index mapped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::striped_map;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_panicking_index_fails_alone_and_the_rest_return_in_order() {
        for workers in [1usize, 2] {
            let out = striped_map(7, workers, |i| {
                if i == 3 {
                    panic!("index {i} is broken");
                }
                i * 10
            });
            assert_eq!(out.len(), 7, "workers {workers}");
            for (i, result) in out.iter().enumerate() {
                if i == 3 {
                    assert_eq!(result, &Err("index 3 is broken".to_string()));
                } else {
                    assert_eq!(result, &Ok(i * 10), "workers {workers}");
                }
            }
        }
        // A `&str` payload carries its message too.
        let out = striped_map(1, 1, |_| -> usize { panic!("static message") });
        assert_eq!(out, vec![Err("static message".to_string())]);
    }

    #[test]
    fn striped_map_returns_results_in_index_order_and_runs_each_index_once() {
        for len in [0usize, 1, 37] {
            for workers in [1usize, 2, 8, 64] {
                let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let out = striped_map(len, workers, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * i
                });
                let expect: Vec<Result<usize, String>> = (0..len).map(|i| Ok(i * i)).collect();
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
