//! `parallel_sweep` — sequential vs `--jobs` sweep over the exported
//! corpus, recorded as `BENCH_parallel.json`.
//!
//! For each worker budget in the jobs list (default `1,2,4`) the binary
//! sweeps every AIGER benchmark of the corpus the way `rbmc --jobs N` does:
//! files striped across `N` workers, each file's engine running with
//! [`ParallelConfig`] once the budget exceeds the file count
//! (property-sharded sessions). The `jobs=1`
//! configuration is the plain sequential engine and serves as the baseline;
//! every configuration's verdicts are cross-checked against it, so the
//! artifact doubles as a determinism gate.
//!
//! One report case per configuration: total wall time, summed solver
//! counters, and the speedup over the sequential baseline — plus
//! `host_cpus`, because a wall-clock win needs hardware parallelism (on a
//! single-core host every configuration degenerates to ~1×; the CI artifact
//! records what the runner hardware actually delivers).
//!
//! Usage:
//!
//! ```text
//! parallel_sweep [DIR] [--smoke] [--depth N] [--jobs-list 1,2,4]
//!                [--no-preprocess]
//!                [--json-out PATH | --no-json]
//! ```
//!
//! `--no-preprocess` turns off the engine's structural preprocessing in
//! every configuration of the sweep (the cross-checks then compare raw
//! engines against raw engines); by default all configurations run the
//! reduced model, like `rbmc` does.
//!
//! Without a positional corpus directory, the gens suite is exported to
//! `target/parallel-corpus` and swept from there.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rbmc_bench::{BenchCase, BenchReport};
use rbmc_core::{
    BmcEngine, BmcOptions, BmcRun, OrderingStrategy, ParallelConfig, ProblemBuilder, SolveResult,
};

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// One configuration's sweep over the whole corpus: returns the per-file
/// runs (in file order) and the aggregate wall time.
fn sweep(
    problems: &[rbmc_core::VerificationProblem],
    options: &BmcOptions,
    file_workers: usize,
) -> (Vec<BmcRun>, f64) {
    let start = Instant::now();
    let runs = rbmc_core::striped_map(problems.len(), file_workers, |_w, i| {
        let mut engine = BmcEngine::for_problem(problems[i].clone(), *options);
        engine.run_collecting()
    });
    (runs, start.elapsed().as_secs_f64())
}

/// The cross-check currency: every property's per-depth verdict sequence,
/// flattened over the corpus in file order.
fn all_verdicts(runs: &[BmcRun]) -> Vec<Vec<SolveResult>> {
    runs.iter()
        .flat_map(|r| r.properties.iter().map(|p| p.depth_results.clone()))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--small");
    let preprocess = !args.iter().any(|a| a == "--no-preprocess");
    let depth: usize = flag_value(&args, "--depth")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 10 } else { 20 });
    let mut jobs_list: Vec<usize> = flag_value(&args, "--jobs-list").map_or_else(
        || vec![1, 2, 4],
        |v| {
            v.split(',')
                .filter_map(|j| j.parse().ok())
                .filter(|&j| j > 0)
                .collect()
        },
    );
    if jobs_list.is_empty() {
        eprintln!("error: --jobs-list requires a comma-separated list of positive integers");
        return ExitCode::from(2);
    }
    // The first configuration is the speedup baseline and the verdict
    // reference; it must be the genuinely sequential sweep.
    if jobs_list[0] != 1 {
        jobs_list.insert(0, 1);
    }

    // Corpus: the positional directory, or a fresh export of the gens suite.
    let value_flags = ["--depth", "--jobs-list", "--json-out"];
    let mut positional: Option<PathBuf> = None;
    let mut skip = false;
    for arg in &args[1..] {
        if skip {
            skip = false;
            continue;
        }
        if value_flags.contains(&arg.as_str()) {
            skip = true;
            continue;
        }
        if arg.starts_with("--") {
            continue;
        }
        positional = Some(PathBuf::from(arg));
        break;
    }
    let corpus_dir = match positional {
        Some(dir) => dir,
        None => {
            let dir = PathBuf::from("target/parallel-corpus");
            // A stale mix of earlier exports would silently change the
            // sweep's workload; start from a clean directory.
            let _ = std::fs::remove_dir_all(&dir);
            let suite = if smoke {
                rbmc_gens::small_suite()
            } else {
                rbmc_gens::suite_table1()
            };
            if let Err(e) = rbmc_gens::corpus::export_corpus(&dir, &suite) {
                eprintln!("error: corpus export failed: {e}");
                return ExitCode::from(1);
            }
            dir
        }
    };

    let mut files: Vec<PathBuf> = match std::fs::read_dir(&corpus_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("aag") | Some("aig")
                )
            })
            .collect(),
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", corpus_dir.display());
            return ExitCode::from(1);
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("error: no .aag/.aig benchmarks in {}", corpus_dir.display());
        return ExitCode::from(1);
    }
    let problems: Vec<rbmc_core::VerificationProblem> = match files
        .iter()
        .map(|path| {
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("benchmark")
                .to_string();
            let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let aig = rbmc_circuit::aiger::parse_aiger(&bytes)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let builder = ProblemBuilder::from_aig(&stem, &aig);
            if builder.num_properties() == 0 {
                return Err(format!("{}: no properties", path.display()));
            }
            Ok(builder.build())
        })
        .collect()
    {
        Ok(problems) => problems,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let num_properties: usize = problems
        .iter()
        .map(rbmc_core::VerificationProblem::num_properties)
        .sum();

    println!(
        "parallel sweep: {} files / {num_properties} properties to depth {depth} \
         (host cpus {host_cpus})",
        problems.len(),
    );

    let mut report = BenchReport::new(format!(
        "parallel corpus sweep ({}, depth={depth}, host_cpus={host_cpus})",
        corpus_dir.display(),
    ));
    let mut baseline: Option<(Vec<Vec<SolveResult>>, f64)> = None;
    for &jobs in &jobs_list {
        // Same budget split as `rbmc --jobs`: file striping first, leftover
        // budget to each file's engine (never jobs² threads).
        let file_workers = jobs.min(problems.len()).max(1);
        let engine_jobs = (jobs / file_workers).max(1);
        let options = BmcOptions {
            max_depth: depth,
            strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
            preprocess,
            parallel: (engine_jobs > 1).then_some(ParallelConfig::new(engine_jobs)),
            ..BmcOptions::default()
        };
        let (runs, wall_s) = sweep(&problems, &options, file_workers);
        let verdicts = all_verdicts(&runs);
        let speedup = match &baseline {
            None => {
                baseline = Some((verdicts, wall_s));
                1.0
            }
            Some((expected, base_wall)) => {
                if &verdicts != expected {
                    eprintln!("error: jobs={jobs} verdicts diverge from the sequential sweep");
                    return ExitCode::from(1);
                }
                base_wall / wall_s
            }
        };
        let conflicts: u64 = runs.iter().map(rbmc_core::BmcRun::total_conflicts).sum();
        let decisions: u64 = runs.iter().map(rbmc_core::BmcRun::total_decisions).sum();
        let propagations: u64 = runs.iter().map(rbmc_core::BmcRun::total_implications).sum();
        let falsified: usize = runs.iter().map(rbmc_core::BmcRun::num_falsified).sum();
        println!("  jobs={jobs}: {wall_s:.3}s wall, {falsified} falsified, speedup {speedup:.2}x");
        report.push(BenchCase {
            name: "corpus_sweep".into(),
            strategy: format!("jobs={jobs}"),
            wall_s,
            conflicts,
            decisions,
            propagations,
            completed_depth: depth,
            verdict_ok: true,
            extra: vec![
                ("jobs".into(), jobs as f64),
                ("host_cpus".into(), host_cpus as f64),
                ("files".into(), problems.len() as f64),
                ("properties".into(), num_properties as f64),
                ("falsified".into(), falsified as f64),
                ("speedup_vs_seq".into(), speedup),
            ],
        });
    }
    rbmc_bench::report::emit(&args, "parallel", &report);
    ExitCode::SUCCESS
}
