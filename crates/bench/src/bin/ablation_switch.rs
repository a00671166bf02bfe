//! Ablation for the **§3.3 dynamic-switch threshold**: the paper falls back
//! to plain VSIDS once `#decisions > #original_literals / 64`. This bench
//! sweeps the divisor: small divisors keep the refined ordering longer
//! (approaching the static configuration), large divisors give up earlier
//! (approaching standard BMC).
//!
//! Also prints the two fixed references (standard, static) so the sweep can
//! be read as an interpolation — and shows where the paper's 64 lands at
//! this formula scale (10³–10⁴ literals here, 10⁵–10⁶ in the paper).
//!
//! Usage: `cargo run -p rbmc-bench --release --bin ablation_switch`

use rbmc_bench::{ratio_percent, run_instance};
use rbmc_core::{OrderingStrategy, Weighting};
use rbmc_gens::suite_table1;

fn main() {
    println!("Dynamic-switch divisor sweep (§3.3; threshold = #literals / divisor)\n");
    let suite = suite_table1();

    let run_total = |strategy: OrderingStrategy| -> (f64, u64) {
        let mut time = 0.0;
        let mut decisions = 0;
        for instance in &suite {
            let r = run_instance(instance, strategy, Weighting::Linear);
            time += r.time.as_secs_f64();
            decisions += r.decisions;
        }
        (time, decisions)
    };

    let (base_time, base_dec) = run_total(OrderingStrategy::Standard);
    println!(
        "{:<22} {:>10.3} s {:>12} decisions  (100%)",
        "standard (VSIDS)", base_time, base_dec
    );
    let (sta_time, sta_dec) = run_total(OrderingStrategy::RefinedStatic);
    println!(
        "{:<22} {:>10.3} s {:>12} decisions  ({:.0}%)",
        "refined static",
        sta_time,
        sta_dec,
        ratio_percent(sta_dec as f64, base_dec as f64)
    );
    for divisor in [2u32, 8, 16, 64, 256, 1024] {
        let label = if divisor == 64 {
            format!("dynamic /{divisor} (paper)")
        } else {
            format!("dynamic /{divisor}")
        };
        let (time, dec) = run_total(OrderingStrategy::RefinedDynamic { divisor });
        println!(
            "{:<22} {:>10.3} s {:>12} decisions  ({:.0}%)",
            label,
            time,
            dec,
            ratio_percent(dec as f64, base_dec as f64)
        );
    }
    println!(
        "\nreading: divisor -> 0 approaches the static configuration; divisor -> inf\n\
         approaches standard BMC. The paper's 64 is calibrated to industrial\n\
         formulas (1e5-1e6 literals); at this suite's ~1e3-1e4 literals the same\n\
         divisor switches too early and forfeits an accurate ordering."
    );
}
