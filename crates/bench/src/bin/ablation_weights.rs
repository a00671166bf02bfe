//! Ablation for the **§3.2 weighting choice**: the paper weights the core of
//! instance `j` by `j` (recent cores matter more, but none exclusively).
//! This bench compares that linear weighting against uniform weights and
//! against trusting only the most recent core, under the static strategy.
//!
//! Usage: `cargo run -p rbmc-bench --release --bin ablation_weights` (no arguments;
//! given any, it prints its usage line and exits with status 2)

use rbmc_bench::{ratio_percent, run_instance};
use rbmc_core::{OrderingStrategy, Weighting};
use rbmc_gens::suite_table1;

fn main() {
    rbmc_bench::cli_no_args("ablation_weights");
    println!("Score-weighting ablation (static strategy; §3.2)\n");
    let schemes = [
        ("linear (paper)", Weighting::Linear),
        ("uniform", Weighting::Uniform),
        ("last-core-only", Weighting::LastOnly),
    ];
    println!(
        "{:<20} {:>14} {:>14} {:>14}",
        "model", "linear", "uniform", "last-only"
    );
    let mut totals_dec = [0u64; 3];
    let mut totals_time = [0.0f64; 3];
    for instance in suite_table1() {
        let mut cells = Vec::new();
        for (i, (_, weighting)) in schemes.iter().enumerate() {
            let r = run_instance(&instance, OrderingStrategy::RefinedStatic, *weighting);
            totals_dec[i] += r.decisions;
            totals_time[i] += r.time.as_secs_f64();
            cells.push(format!("{}", r.decisions));
        }
        println!(
            "{:<20} {:>14} {:>14} {:>14}",
            instance.name, cells[0], cells[1], cells[2]
        );
    }
    println!("\ntotals (decisions):");
    for (i, (name, _)) in schemes.iter().enumerate() {
        println!(
            "  {name:<16} {:>10} decisions, {:>8.3} s  ({:.0}% of linear)",
            totals_dec[i],
            totals_time[i],
            ratio_percent(totals_dec[i] as f64, totals_dec[0] as f64)
        );
    }
    println!(
        "\npaper's position: all previous cores with recency weighting — no single\n\
         core is trusted exclusively (§3.2's two justifications)."
    );
}
