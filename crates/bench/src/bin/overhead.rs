//! Measures the **§3.1 claim**: maintaining the simplified conflict
//! dependency graph costs about 5% runtime and negligible memory.
//!
//! Runs standard BMC (pure VSIDS) on the suite twice — CDG recording off
//! (plain Chaff) and on (`force_record_cdg`) — and reports the per-instance
//! and aggregate overhead, plus the CDG sizes (nodes/edges are the memory
//! proxy: each node stores only integer pseudo-IDs).
//!
//! `--smoke` runs the small suite once per configuration. Its instances take
//! well under a millisecond, so one run times noise: the smoke output keeps
//! the CDG sizes and the JSON artifact and prints no overhead figure.
//!
//! Usage: `cargo run -p rbmc-bench --release --bin overhead [-- --smoke]
//! [--json-out PATH | --no-json]`
//!
//! An unknown flag, a flag `overhead` does not take, or a missing value
//! exits 2 before any instance runs; an artifact that cannot be written
//! exits 2 after the run.

use std::path::PathBuf;
use std::process::ExitCode;

use rbmc_bench::{run_instance, BenchCase, BenchReport};
use rbmc_core::{BmcOptions, OrderingStrategy, SolverReuse};

const USAGE: &str = "usage: overhead [--smoke] [--json-out PATH | --no-json]";

/// Everything one `overhead` run was asked to do, parsed before any
/// instance runs.
struct Config {
    smoke: bool,
    /// Where the `BENCH_overhead.json` report goes; `None` under `--no-json`.
    json_out: Option<PathBuf>,
}

impl Config {
    /// Parses the arguments after the program name. An error is the message
    /// to print, above the usage line, before exiting 2.
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut smoke = false;
        let (mut json_out, mut no_json) = (None, false);
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            match arg {
                "--smoke" => smoke = true,
                "--no-json" => no_json = true,
                "--json-out" => json_out = Some(rbmc_bench::path(arg, rest.next(), "a path")?),
                other => return Err(format!("error: unknown argument `{other}`")),
            }
        }
        Ok(Config {
            smoke,
            json_out: rbmc_bench::json_out(json_out, no_json, "overhead"),
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match Config::parse(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let suite = if config.smoke {
        rbmc_gens::small_suite()
    } else {
        rbmc_gens::suite_table1()
    };
    // Average over repetitions to stabilize sub-millisecond rows (once in
    // smoke mode, where only the CDG sizes and the artifact are under test).
    let reps: u32 = if config.smoke { 1 } else { 5 };
    let mut report = BenchReport::new("overhead (cdg recording off vs on)");
    if config.smoke {
        println!(
            "CDG sizes on the smoke suite (one run each, too short to time: no overhead figure)\n"
        );
        println!("{:<20} {:>12} {:>12}", "model", "cdg nodes", "cdg edges");
    } else {
        println!("CDG bookkeeping overhead (paper §3.1: ~5% runtime, negligible memory)\n");
        println!(
            "{:<20} {:>10} {:>10} {:>9} {:>12} {:>12}",
            "model", "off (s)", "on (s)", "overhead", "cdg nodes", "cdg edges"
        );
    }
    let mut total_off = 0.0;
    let mut total_on = 0.0;
    for instance in &suite {
        let mut time = [0.0f64; 2];
        let mut nodes = 0u64;
        let mut edges = 0u64;
        for (i, record) in [false, true].into_iter().enumerate() {
            let options = BmcOptions {
                strategy: OrderingStrategy::Standard,
                // The §3.1 overhead claim is about the paper's
                // fresh-per-depth regime.
                reuse: SolverReuse::Fresh,
                force_record_cdg: record,
                ..BmcOptions::default()
            };
            let runs: Vec<_> = (0..reps).map(|_| run_instance(instance, options)).collect();
            time[i] = runs.iter().map(|r| r.time.as_secs_f64()).sum::<f64>() / f64::from(reps);
            let result = runs.last().expect("at least one repetition ran");
            let mut extra = Vec::new();
            if record {
                nodes = result.run.per_depth.iter().map(|d| d.cdg_nodes).sum();
                edges = result.run.per_depth.iter().map(|d| d.cdg_edges).sum();
                extra.push(("cdg_nodes".to_string(), nodes as f64));
                extra.push(("cdg_edges".to_string(), edges as f64));
            }
            report.push(BenchCase {
                strategy: if record { "cdg_on" } else { "cdg_off" }.to_string(),
                wall_s: time[i],
                extra,
                ..BenchCase::from(result)
            });
        }
        total_off += time[0];
        total_on += time[1];
        if config.smoke {
            println!("{:<20} {:>12} {:>12}", instance.name, nodes, edges);
        } else {
            println!(
                "{:<20} {:>10.4} {:>10.4} {:>8.1}% {:>12} {:>12}",
                instance.name,
                time[0],
                time[1],
                (time[1] - time[0]) / time[0].max(1e-9) * 100.0,
                nodes,
                edges
            );
        }
    }
    if !config.smoke {
        println!(
            "\nTOTAL: off {total_off:.3} s, on {total_on:.3} s -> overhead {:.1}% (paper: ~5%)",
            (total_on - total_off) / total_off.max(1e-9) * 100.0
        );
    }
    if rbmc_bench::report::emit(config.json_out.as_deref(), || report.to_json()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
