//! Measures the **§3.1 claim**: maintaining the simplified conflict
//! dependency graph costs about 5% runtime and negligible memory.
//!
//! Runs standard BMC (pure VSIDS) on the suite twice — CDG recording off
//! (plain Chaff) and on (`force_record_cdg`) — and reports the per-instance
//! and aggregate overhead, plus the CDG sizes (nodes/edges are the memory
//! proxy: each node stores only integer pseudo-IDs).
//!
//! Usage: `cargo run -p rbmc-bench --release --bin overhead [-- --smoke]
//! [--json-out PATH | --no-json]`

use std::time::Instant;

use rbmc_bench::{BenchCase, BenchReport};
use rbmc_core::{BmcEngine, BmcOptions, OrderingStrategy, SolverReuse};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--small");
    // Average over repetitions to stabilize sub-millisecond rows (once in
    // smoke mode, where only the artifact plumbing is under test).
    let reps: usize = if smoke { 1 } else { 5 };
    let mut report = BenchReport::new("overhead (cdg recording off vs on)");
    println!("CDG bookkeeping overhead (paper §3.1: ~5% runtime, negligible memory)\n");
    println!(
        "{:<20} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "model", "off (s)", "on (s)", "overhead", "cdg nodes", "cdg edges"
    );
    let mut total_off = 0.0;
    let mut total_on = 0.0;
    for instance in rbmc_bench::cli_suite(&args) {
        let mut time = [0.0f64; 2];
        let mut nodes = 0u64;
        let mut edges = 0u64;
        for (i, record) in [false, true].into_iter().enumerate() {
            let start = Instant::now();
            let mut last_run = None;
            for _ in 0..reps {
                let mut engine = BmcEngine::new(
                    instance.model.clone(),
                    BmcOptions {
                        max_depth: instance.max_depth,
                        strategy: OrderingStrategy::Standard,
                        // The §3.1 overhead claim is about the paper's
                        // fresh-per-depth regime.
                        reuse: SolverReuse::Fresh,
                        force_record_cdg: record,
                        ..BmcOptions::default()
                    },
                );
                last_run = Some(engine.run_collecting());
            }
            time[i] = start.elapsed().as_secs_f64() / reps as f64;
            let run = last_run.expect("at least one repetition ran");
            if record {
                nodes = run.per_depth.iter().map(|d| d.cdg_nodes).sum();
                edges = run.per_depth.iter().map(|d| d.cdg_edges).sum();
            }
            // The ground-truth check run_instance does for the other
            // binaries: a verdict regression must not hide in the artifact.
            let verdict_ok = rbmc_bench::verdict_matches(&instance, &run);
            assert!(
                verdict_ok,
                "{}: verdict {} contradicts ground truth {:?}",
                instance.name, run.properties[0].verdict, instance.expectation
            );
            report.push(BenchCase {
                name: instance.name.clone(),
                strategy: if record { "cdg_on" } else { "cdg_off" }.to_string(),
                wall_s: time[i],
                conflicts: run.total_conflicts(),
                decisions: run.total_decisions(),
                propagations: run.total_implications(),
                completed_depth: run.max_completed_depth().unwrap_or(0),
                verdict_ok,
                extra: if record {
                    vec![
                        ("cdg_nodes".to_string(), nodes as f64),
                        ("cdg_edges".to_string(), edges as f64),
                    ]
                } else {
                    Vec::new()
                },
            });
        }
        total_off += time[0];
        total_on += time[1];
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
    println!(
        "\nTOTAL: off {total_off:.3} s, on {total_on:.3} s -> overhead {:.1}% (paper: ~5%)",
        (total_on - total_off) / total_off.max(1e-9) * 100.0
    );
    rbmc_bench::report::emit(&args, "overhead", &report);
}
