//! Ablation for the **§1 related-work contrast**: the paper positions its
//! refinement as ordering along the *register axis*, versus Shtrichman's
//! CAV'00 ordering along the *time axis* (earlier frames first). This bench
//! runs both against standard VSIDS on the suite.
//!
//! Usage: `cargo run -p rbmc-bench --release --bin ablation_axis` (no arguments;
//! given any, it prints its usage line and exits with status 2)

use rbmc_bench::{ratio_percent, run_instance};
use rbmc_core::{OrderingStrategy, Weighting};
use rbmc_gens::suite_table1;

fn main() {
    rbmc_bench::cli_no_args("ablation_axis");
    println!("Register-axis (this paper) vs time-axis (Shtrichman) ordering\n");
    println!(
        "{:<20} {:>12} {:>14} {:>14}",
        "model", "vsids", "register-axis", "time-axis"
    );
    let strategies = [
        OrderingStrategy::Standard,
        OrderingStrategy::RefinedStatic,
        OrderingStrategy::Shtrichman,
    ];
    let mut totals = [0u64; 3];
    let mut times = [0.0f64; 3];
    for instance in suite_table1() {
        let mut cells = Vec::new();
        for (i, strategy) in strategies.into_iter().enumerate() {
            let r = run_instance(&instance, strategy, Weighting::Linear);
            totals[i] += r.decisions;
            times[i] += r.time.as_secs_f64();
            cells.push(r.decisions.to_string());
        }
        println!(
            "{:<20} {:>12} {:>14} {:>14}",
            instance.name, cells[0], cells[1], cells[2]
        );
    }
    println!("\ntotals:");
    for (i, name) in ["vsids", "register-axis", "time-axis"].iter().enumerate() {
        println!(
            "  {name:<14} {:>10} decisions, {:>8.3} s  ({:.0}% of vsids)",
            totals[i],
            times[i],
            ratio_percent(totals[i] as f64, totals[0] as f64)
        );
    }
}
