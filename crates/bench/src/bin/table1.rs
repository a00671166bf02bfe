//! Regenerates **Table 1**: CPU time of standard BMC vs refine-order BMC
//! (static and dynamic) on the 37-instance suite, plus the TOTAL and RATIO
//! footer rows and the paper's §4 summary lines (win counts, average
//! speedup). From the same runs it then prints the two views the paper
//! draws of that experiment:
//!
//! - **Fig. 6**: per instance, standard-BMC time (x) against refine-order
//!   time (y), once for the static and once for the dynamic column, as CSV
//!   (`instance,x,y,decisions_bmc,decisions_new,winner`) plus an ASCII
//!   log-log scatter. Dots below the diagonal are wins for the new method.
//! - **Fig. 7**: the per-depth decisions and implications of the standard
//!   and static runs of one circuit. The paper uses `02_3_b2`, its slowest
//!   lock-style instance; the analog here is the deepest search-heavy
//!   passing instance, `11_1_shift10_twin` (`s6_twin4` under `--smoke`).
//!   Smaller values mean smaller search trees, the paper's explanation for
//!   the speedup.
//!
//! The paper reports wall-clock seconds on a 400 MHz Pentium II with a
//! two-hour timeout; our instances are scaled so every run completes, and we
//! additionally report decision counts (machine-independent; the quantity
//! Fig. 7 uses to explain the speedup).
//!
//! Usage: `cargo run -p rbmc-bench --release --bin table1 [-- --smoke] [--divisor N]
//! [--reuse fresh|session] [--json-out PATH | --no-json]`
//!
//! `--smoke` runs the small suite. `--divisor N` sets the dynamic switch
//! denominator (`#decisions > #literals / N` falls back to VSIDS). The
//! paper's value is 64, tuned for industrial formulas of 10⁵–10⁶ literals;
//! at this suite's scale (10³–10⁴ literals) `#literals / 64` switches to
//! VSIDS almost at once, so the matching threshold needs a smaller divisor
//! (see the `ablations` binary). `--reuse` selects the solver regime of
//! every run, the figures' included: `fresh` (default — the paper's
//! fresh-solver-per-depth setup) or `session` (one incremental solver across
//! all depths; the ground-truth assertion inside `run_instance` guarantees
//! both regimes reach identical verdicts and completed depths, and CI runs
//! the smoke suite in both). An unknown flag, a flag `table1` does not take,
//! or a missing or malformed value exits 2 before any instance runs.
//! Besides the stdout table, the run is recorded as a machine-readable
//! `BENCH_table1.json` artifact (see `rbmc_bench::report`); an artifact that
//! cannot be written exits 2 after the run.

use std::path::PathBuf;
use std::process::ExitCode;

use rbmc_bench::{ratio_percent, run_instance, secs, BenchCase, BenchReport, InstanceResult};
use rbmc_core::{BmcOptions, OrderingStrategy, SolverReuse};

const USAGE: &str = "usage: table1 [--smoke] [--divisor N] [--reuse fresh|session] \
     [--json-out PATH | --no-json]";

/// One instance's runs, in the table's column order: `bmc`, `sta`, `dyn`.
type Row = [InstanceResult; 3];

/// Everything one `table1` run was asked to do, parsed before any
/// instance runs.
struct Config {
    smoke: bool,
    divisor: u32,
    reuse: SolverReuse,
    /// Where the `BENCH_table1.json` report goes; `None` under `--no-json`.
    json_out: Option<PathBuf>,
}

impl Config {
    /// Parses the arguments after the program name. An error is the message
    /// to print, above the usage line, before exiting 2.
    fn parse(args: &[String]) -> Result<Config, String> {
        let (mut smoke, mut divisor, mut reuse) = (false, 64, SolverReuse::Fresh);
        let (mut json_out, mut no_json) = (None, false);
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            match arg {
                "--smoke" => smoke = true,
                "--no-json" => no_json = true,
                "--divisor" => divisor = rbmc_bench::number(arg, rest.next())?,
                "--reuse" => {
                    let choices = [
                        ("fresh", SolverReuse::Fresh),
                        ("session", SolverReuse::Session),
                    ];
                    reuse = rbmc_bench::choice(arg, rest.next(), &choices)?;
                }
                "--json-out" => json_out = Some(rbmc_bench::path(arg, rest.next(), "a path")?),
                other => return Err(format!("error: unknown argument `{other}`")),
            }
        }
        Ok(Config {
            smoke,
            divisor,
            reuse,
            json_out: rbmc_bench::json_out(json_out, no_json, "table1"),
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
    let (divisor, reuse) = (config.divisor, config.reuse.label());
    let suite = if config.smoke {
        rbmc_gens::small_suite()
    } else {
        rbmc_gens::suite_table1()
    };
    let strategies = [
        OrderingStrategy::Standard,
        OrderingStrategy::RefinedStatic,
        OrderingStrategy::RefinedDynamic { divisor },
    ];

    println!(
        "Table 1: BMC vs refine_order BMC (static and dynamic, divisor={divisor}, reuse={reuse})"
    );
    println!("(times in seconds; decisions in parentheses; (k) = depth bound)\n");
    println!(
        "{:<20} {:>3} {:>5}  {:>12} {:>14} {:>14}",
        "model", "T/F", "(k)", "bmc", "new bmc (sta)", "new bmc (dyn)"
    );
    let mut rows: Vec<Row> = Vec::with_capacity(suite.len());
    for instance in &suite {
        let row = strategies.map(|strategy| {
            let options = BmcOptions {
                strategy,
                reuse: config.reuse,
                ..BmcOptions::default()
            };
            run_instance(instance, options)
        });
        let cell = |r: &InstanceResult| format!("{} ({})", secs(r.time), r.decisions);
        println!(
            "{:<20} {:>3} {:>5}  {:>12} {:>14} {:>14}",
            instance.name,
            instance.verdict_label(),
            format!("({})", instance.max_depth),
            cell(&row[0]),
            cell(&row[1]),
            cell(&row[2])
        );
        rows.push(row);
    }
    print_footer(&rows);

    println!();
    print_fig6(&rows, 1, "static", reuse);
    print_fig6(&rows, 2, &format!("dynamic /{divisor}"), reuse);
    let fig7 = if config.smoke {
        "s6_twin4"
    } else {
        "11_1_shift10_twin"
    };
    let row = rows.iter().find(|row| row[0].name == fig7);
    print_fig7(row.expect("the Fig. 7 instance is in the suite"), reuse);

    let mut report = BenchReport::new(format!("table1 (divisor={divisor}, reuse={reuse})"));
    for result in rows.iter().flatten() {
        report.push(BenchCase::from(result));
    }
    if rbmc_bench::report::emit(config.json_out.as_deref(), || report.to_json()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// The TOTAL and RATIO rows and the paper's §4 summary lines.
fn print_footer(rows: &[Row]) {
    let column_sum = |value: fn(&InstanceResult) -> f64| -> [f64; 3] {
        std::array::from_fn(|i| rows.iter().map(|row| value(&row[i])).sum())
    };
    let time = column_sum(|r| r.time.as_secs_f64());
    let decisions = column_sum(|r| r.decisions as f64);
    let line = |label: &str, cells: [String; 3]| {
        let [bmc, sta, dyn_] = cells;
        println!(
            "{label:<20} {:>3} {:>5}  {bmc:>12} {sta:>14} {dyn_:>14}",
            "", ""
        );
    };
    let percent = |totals: [f64; 3]| totals.map(|t| format!("{:.0}%", ratio_percent(t, totals[0])));
    println!();
    line("TOTAL time (s)", time.map(|t| format!("{t:.2}")));
    line("RATIO (time)", percent(time));
    line("TOTAL decisions", decisions.map(|d| format!("{d}")));
    line("RATIO (decisions)", percent(decisions));

    // Like the paper, exclude trivial rows from the win/speedup summary
    // (the paper dropped experiments finishing under 10 s everywhere; we
    // drop rows the baseline solves with fewer than 50 decisions, where
    // only constant overhead remains to compare).
    let nontrivial: Vec<&Row> = rows.iter().filter(|row| row[0].decisions >= 50).collect();
    let n = nontrivial.len();
    let wins = |i: usize| {
        let won = nontrivial
            .iter()
            .filter(|row| row[i].decisions < row[0].decisions);
        won.count()
    };
    let speedup = |i: usize| {
        let per_row = nontrivial.iter().map(|row| {
            let (base, new) = (row[0].time.as_secs_f64(), row[i].time.as_secs_f64());
            (base - new) / base.max(1e-9) * 100.0
        });
        per_row.sum::<f64>() / n.max(1) as f64
    };
    println!();
    println!(
        "paper §4 summary analog (over the {n} non-trivial rows): \
         static wins {}/{n}, dynamic wins {}/{n} (by decisions)",
        wins(1),
        wins(2)
    );
    println!(
        "average per-instance time speedup: static {:.0}%, dynamic {:.0}% (paper: 38%, 42%)",
        speedup(1),
        speedup(2)
    );
    println!(
        "paper's totals for reference: 138k s / 86k s (62%) / 79k s (57%) on 37 IBM instances"
    );
}

/// Fig. 6 for one refined column against the `bmc` column: CSV, scatter,
/// and the win counts.
fn print_fig6(rows: &[Row], column: usize, label: &str, reuse: &str) {
    println!(
        "# Fig 6 ({label}, reuse={reuse}): x = standard BMC seconds, y = refine_order seconds"
    );
    println!("instance,x,y,decisions_bmc,decisions_new,winner");
    let mut points = Vec::new();
    let (mut wins, mut dec_wins, mut nontrivial) = (0usize, 0usize, 0usize);
    for row in rows {
        let (base, new) = (&row[0], &row[column]);
        let (x, y) = (base.time.as_secs_f64(), new.time.as_secs_f64());
        let winner = if y < x { "new" } else { "bmc" };
        wins += usize::from(y < x);
        // Sub-millisecond rows are overhead-dominated; track the
        // machine-independent decision comparison on non-trivial rows.
        if base.decisions >= 50 {
            nontrivial += 1;
            dec_wins += usize::from(new.decisions < base.decisions);
        }
        println!(
            "{},{x:.6},{y:.6},{},{},{winner}",
            base.name, base.decisions, new.decisions
        );
        points.push((x, y));
    }
    render_scatter(&points);
    println!(
        "# {label}: {wins}/{} dots below the diagonal by wall time; \
         {dec_wins}/{nontrivial} non-trivial rows improve by decisions \
         (paper: 26/37 static, 32/37 dynamic by time)\n",
        rows.len()
    );
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

/// Fig. 7: the per-depth profile of one instance's `bmc` and `sta` runs.
fn print_fig7(row: &Row, reuse: &str) {
    let (base, refined) = (&row[0].run, &row[1].run);
    println!(
        "# Fig 7 analog on {}, reuse={reuse} (paper: 02_3_b2)",
        row[0].name
    );
    println!("# x-axis: unrolling depth; series: BMC vs ref_ord_BMC");
    println!("k,decisions_bmc,decisions_ref,implications_bmc,implications_ref");
    let mut smaller = 0usize;
    for (b, r) in base.per_depth.iter().zip(&refined.per_depth) {
        println!(
            "{},{},{},{},{}",
            b.depth, b.decisions, r.decisions, b.implications, r.implications
        );
        smaller += usize::from(r.decisions < b.decisions);
    }
    println!(
        "# totals: decisions {} -> {}, implications {} -> {}",
        base.total_decisions(),
        refined.total_decisions(),
        base.total_implications(),
        refined.total_implications()
    );
    println!(
        "# shape check: refined decisions smaller at {smaller} of {} depths",
        base.per_depth.len().min(refined.per_depth.len())
    );
}
