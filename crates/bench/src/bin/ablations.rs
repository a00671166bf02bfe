//! The paper's ablations, printed from one run of each configuration per
//! instance of the full suite, in the paper's fresh-solver-per-depth regime.
//! Eleven configurations run: `bmc`, `sta` under each [`Weighting`], `sht`,
//! and `dyn` at each divisor of the sweep. Three sections follow:
//!
//! - **§3.2 weighting choice.** The paper weights the core of instance `j`
//!   by `j` (recent cores matter more, but none exclusively). The static
//!   strategy under that linear weighting, against uniform weights and
//!   against trusting only the most recent core.
//! - **§3.3 dynamic-switch threshold.** The paper falls back to plain VSIDS
//!   once `#decisions > #original_literals / 64`. The divisor sweep, between
//!   the two fixed references (standard, static): small divisors keep the
//!   refined ordering longer (approaching the static configuration), large
//!   divisors give up earlier (approaching standard BMC). It shows where the
//!   paper's 64 lands at this formula scale (10³–10⁴ literals here, 10⁵–10⁶
//!   in the paper).
//! - **§1 related-work contrast.** The paper positions its refinement as
//!   ordering along the *register axis*, versus Shtrichman's CAV'00 ordering
//!   along the *time axis* (earlier frames first). Both against standard
//!   VSIDS.
//!
//! Usage: `cargo run -p rbmc-bench --release --bin ablations` (no arguments;
//! given any, it names it, prints its usage line and exits with status 2)

use std::process::ExitCode;

use rbmc_bench::{ratio_percent, run_instance, InstanceResult};
use rbmc_core::{BmcOptions, OrderingStrategy, SolverReuse, Weighting};

const USAGE: &str = "usage: ablations (takes no arguments)";

/// The §3.2 weighting schemes, each under the static strategy.
const WEIGHTINGS: [(&str, Weighting); 3] = [
    ("linear (paper)", Weighting::Linear),
    ("uniform", Weighting::Uniform),
    ("last-core-only", Weighting::LastOnly),
];

/// The §3.3 divisor sweep of the dynamic strategy.
const DIVISORS: [u32; 6] = [2, 8, 16, 64, 256, 1024];

// Where each configuration's run sits among an instance's runs: `bmc`,
// then `sta` under each of `WEIGHTINGS` (linear first), `sht`, and `dyn`
// under each of `DIVISORS`.
const BMC: usize = 0;
const STA: usize = 1;
const SHT: usize = STA + WEIGHTINGS.len();
const DYN: usize = SHT + 1;

/// Every configuration, in run order.
fn configurations() -> Vec<(OrderingStrategy, Weighting)> {
    let mut configurations = vec![(OrderingStrategy::Standard, Weighting::Linear)];
    configurations.extend(WEIGHTINGS.map(|(_, w)| (OrderingStrategy::RefinedStatic, w)));
    configurations.push((OrderingStrategy::Shtrichman, Weighting::Linear));
    configurations.extend(DIVISORS.map(|divisor| {
        (
            OrderingStrategy::RefinedDynamic { divisor },
            Weighting::Linear,
        )
    }));
    configurations
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument `{arg}`\n{USAGE}");
        return ExitCode::from(2);
    }
    let configurations = configurations();
    let runs: Vec<Vec<InstanceResult>> = rbmc_gens::suite_table1()
        .iter()
        .map(|instance| {
            let run = |&(strategy, weighting)| {
                let options = BmcOptions {
                    strategy,
                    weighting,
                    reuse: SolverReuse::Fresh,
                    ..BmcOptions::default()
                };
                run_instance(instance, options)
            };
            configurations.iter().map(run).collect()
        })
        .collect();
    print_weights(&runs);
    println!();
    print_switch(&runs);
    println!();
    print_axis(&runs);
    ExitCode::SUCCESS
}

/// Total decisions and seconds of one configuration over the suite.
fn total(runs: &[Vec<InstanceResult>], column: usize) -> (u64, f64) {
    runs.iter().fold((0, 0.0), |(decisions, time), row| {
        let r = &row[column];
        (decisions + r.decisions, time + r.time.as_secs_f64())
    })
}

/// §3.2: the static strategy's decisions under each weighting.
fn print_weights(runs: &[Vec<InstanceResult>]) {
    println!("Score-weighting ablation (static strategy; §3.2)\n");
    println!(
        "{:<20} {:>14} {:>14} {:>14}",
        "model", "linear", "uniform", "last-only"
    );
    for row in runs {
        println!(
            "{:<20} {:>14} {:>14} {:>14}",
            row[BMC].name,
            row[STA].decisions,
            row[STA + 1].decisions,
            row[STA + 2].decisions
        );
    }
    println!("\ntotals (decisions):");
    let (linear, _) = total(runs, STA);
    for (i, (name, _)) in WEIGHTINGS.iter().enumerate() {
        let (decisions, time) = total(runs, STA + i);
        println!(
            "  {name:<16} {decisions:>10} decisions, {time:>8.3} s  ({:.0}% of linear)",
            ratio_percent(decisions as f64, linear as f64)
        );
    }
    println!(
        "\npaper's position: all previous cores with recency weighting — no single\n\
         core is trusted exclusively (§3.2's two justifications)."
    );
}

/// §3.3: suite totals of the divisor sweep between `bmc` and `sta`.
fn print_switch(runs: &[Vec<InstanceResult>]) {
    println!("Dynamic-switch divisor sweep (§3.3; threshold = #literals / divisor)\n");
    let mut rows = vec![
        ("standard (VSIDS)".to_string(), BMC),
        ("refined static".to_string(), STA),
    ];
    for (i, divisor) in DIVISORS.into_iter().enumerate() {
        let paper = if divisor == 64 { " (paper)" } else { "" };
        rows.push((format!("dynamic /{divisor}{paper}"), DYN + i));
    }
    let (base, _) = total(runs, BMC);
    for (label, column) in rows {
        let (decisions, time) = total(runs, column);
        println!(
            "{label:<22} {time:>10.3} s {decisions:>12} decisions  ({:.0}%)",
            ratio_percent(decisions as f64, base as f64)
        );
    }
    println!(
        "\nreading: divisor -> 0 approaches the static configuration; divisor -> inf\n\
         approaches standard BMC. The paper's 64 is calibrated to industrial\n\
         formulas (1e5-1e6 literals); at this suite's ~1e3-1e4 literals the same\n\
         divisor switches too early and forfeits an accurate ordering."
    );
}

/// §1: register-axis (`sta`) against time-axis (`sht`) ordering.
fn print_axis(runs: &[Vec<InstanceResult>]) {
    println!("Register-axis (this paper) vs time-axis (Shtrichman) ordering\n");
    println!(
        "{:<20} {:>12} {:>14} {:>14}",
        "model", "vsids", "register-axis", "time-axis"
    );
    for row in runs {
        println!(
            "{:<20} {:>12} {:>14} {:>14}",
            row[BMC].name, row[BMC].decisions, row[STA].decisions, row[SHT].decisions
        );
    }
    println!("\ntotals:");
    let (vsids, _) = total(runs, BMC);
    for (name, column) in [("vsids", BMC), ("register-axis", STA), ("time-axis", SHT)] {
        let (decisions, time) = total(runs, column);
        println!(
            "  {name:<14} {decisions:>10} decisions, {time:>8.3} s  ({:.0}% of vsids)",
            ratio_percent(decisions as f64, vsids as f64)
        );
    }
}
