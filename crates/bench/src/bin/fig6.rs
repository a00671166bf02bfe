//! Regenerates **Fig. 6**: the scatter plots of standard-BMC time (x-axis)
//! vs refine-order-BMC time (y-axis), one plot for the static and one for
//! the dynamic configuration. Dots below the diagonal are wins for the new
//! method.
//!
//! Output is CSV (`instance,x,y,winner`) for both configurations, followed
//! by an ASCII rendering of the scatter and the win counts.
//!
//! Usage: `cargo run -p rbmc-bench --release --bin fig6 [-- --divisor N] [--smoke]
//! [--json-out PATH | --no-json]`

use rbmc_bench::{run_instance, BenchCase, BenchReport};
use rbmc_core::{OrderingStrategy, Weighting};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let divisor = rbmc_bench::cli_divisor(&args);
    let suite = rbmc_bench::cli_suite(&args);
    let mut report = BenchReport::new(format!("fig6 (divisor={divisor})"));

    let configs = [
        ("static", OrderingStrategy::RefinedStatic),
        ("dynamic", OrderingStrategy::RefinedDynamic { divisor }),
    ];
    for (ci, (label, strategy)) in configs.into_iter().enumerate() {
        println!("# Fig 6 ({label}): x = standard BMC seconds, y = refine_order seconds");
        println!("instance,x,y,decisions_bmc,decisions_new,winner");
        let mut points = Vec::new();
        let mut wins = 0usize;
        let mut dec_wins = 0usize;
        let mut nontrivial = 0usize;
        for instance in &suite {
            let base = run_instance(instance, OrderingStrategy::Standard, Weighting::Linear);
            let new = run_instance(instance, strategy, Weighting::Linear);
            // The baseline is (re-)measured for every config's scatter;
            // record it in the artifact only on the first config pass.
            if ci == 0 {
                report.push(BenchCase::from(&base));
            }
            report.push(BenchCase::from(&new));
            let x = base.time.as_secs_f64();
            let y = new.time.as_secs_f64();
            let winner = if y < x { "new" } else { "bmc" };
            if y < x {
                wins += 1;
            }
            // Sub-millisecond rows are overhead-dominated; track the
            // machine-independent decision comparison on non-trivial rows.
            if base.decisions >= 50 {
                nontrivial += 1;
                if new.decisions < base.decisions {
                    dec_wins += 1;
                }
            }
            println!(
                "{},{x:.6},{y:.6},{},{},{winner}",
                instance.name, base.decisions, new.decisions
            );
            points.push((x, y));
        }
        render_scatter(&points);
        println!(
            "# {label}: {wins}/{} dots below the diagonal by wall time; \
             {dec_wins}/{nontrivial} non-trivial rows improve by decisions \
             (paper: 26/37 static, 32/37 dynamic by time)\n",
            suite.len()
        );
    }
    rbmc_bench::report::emit(&args, "fig6", &report);
}

/// ASCII scatter with a log-log grid, mirroring the paper's log-scale plot.
fn render_scatter(points: &[(f64, f64)]) {
    const SIZE: usize = 30;
    let min = points
        .iter()
        .flat_map(|&(x, y)| [x, y])
        .filter(|v| *v > 0.0)
        .fold(f64::INFINITY, f64::min)
        .max(1e-6);
    let max = points
        .iter()
        .flat_map(|&(x, y)| [x, y])
        .fold(0.0f64, f64::max)
        .max(min * 10.0);
    let scale = |v: f64| -> usize {
        let v = v.max(min);
        let t = (v.ln() - min.ln()) / (max.ln() - min.ln());
        ((t * (SIZE - 1) as f64).round() as usize).min(SIZE - 1)
    };
    let mut grid = vec![vec![' '; SIZE]; SIZE];
    for i in 0..SIZE {
        // The y axis is drawn top-down, so x = y is the anti-diagonal.
        grid[SIZE - 1 - i][i] = '.';
    }
    for &(x, y) in points {
        let (cx, cy) = (scale(x), scale(y));
        grid[SIZE - 1 - cy][cx] = 'o';
    }
    println!("# log-log scatter ({min:.1e} s .. {max:.1e} s), 'o' = instance, '.' = diagonal");
    for row in grid {
        println!("# |{}|", row.into_iter().collect::<String>());
    }
}
