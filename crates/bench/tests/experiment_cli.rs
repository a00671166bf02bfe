//! End-to-end tests of the experiment binaries (`table1`, `overhead` and
//! `ablations`): an unknown flag, a missing or malformed value, or a flag the
//! binary does not take stops it with its usage line before any instance
//! runs; a requested artifact that cannot be written fails the run after it;
//! and `table1` prints Fig. 6 and Fig. 7 from its own runs.

use std::path::Path;
use std::process::{Command, Output};

use rbmc_bench::run_instance;
use rbmc_core::{BmcOptions, OrderingStrategy, SolverReuse};

const TABLE1: &str = env!("CARGO_BIN_EXE_table1");
const OVERHEAD: &str = env!("CARGO_BIN_EXE_overhead");
const ABLATIONS: &str = env!("CARGO_BIN_EXE_ablations");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn bad_arguments_exit_2_before_any_instance_runs() {
    // (binary, arguments, what stderr must name)
    for (bin, args, named) in [
        (TABLE1, "--smoke --no-json --divsor 8", "--divsor"),
        (TABLE1, "--smoke --json-out", "--json-out"),
        (TABLE1, "--smoke --no-json --divisor 8x", "--divisor"),
        (TABLE1, "--smoke --no-json --reuse both", "--reuse"),
        (OVERHEAD, "--smoke --no-json --divsor 8", "--divsor"),
        (OVERHEAD, "--smoke --json-out", "--json-out"),
        (OVERHEAD, "--smoke --no-json --divisor 8x", "--divisor"),
        (OVERHEAD, "--smoke --no-json --reuse session", "--reuse"),
        (ABLATIONS, "--divsor 8", "--divsor"),
        (ABLATIONS, "--json-out", "--json-out"),
        (ABLATIONS, "--divisor 8x", "--divisor"),
        (ABLATIONS, "--smoke", "--smoke"),
    ] {
        let args: Vec<&str> = args.split(' ').collect();
        let out = run(bin, &args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{bin} {args:?} ran:\n{}",
            stdout(&out)
        );
        let name = Path::new(bin).file_stem().and_then(|s| s.to_str());
        let usage = format!("usage: {}", name.expect("utf-8 binary name"));
        assert!(
            err.contains(named) && err.contains(&usage),
            "{bin} {args:?}: {err}"
        );
    }
}

#[test]
fn an_artifact_that_cannot_be_written_exits_2_after_the_run() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiment_cli_artifact");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("scratch dir");
    let file = root.join("a_file");
    std::fs::write(&file, "").expect("write");
    let artifact = file.join("BENCH_table1.json");
    let out = run(
        TABLE1,
        &["--smoke", "--json-out", artifact.to_str().expect("utf-8")],
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(stdout(&out).contains("TOTAL decisions"), "the run was cut");
    assert!(err.contains("cannot write"), "{err}");
}

#[test]
fn table1_prints_fig6_and_fig7_from_its_own_runs() {
    let out = run(TABLE1, &["--smoke", "--no-json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = stdout(&out);
    for header in [
        "# Fig 6 (static, reuse=fresh)",
        "# Fig 6 (dynamic /64, reuse=fresh)",
        "# Fig 7 analog on s6_twin4, reuse=fresh",
    ] {
        assert!(report.contains(header), "no `{header}` in:\n{report}");
    }
    // One Fig. 6 row per instance and refined column.
    let suite = rbmc_gens::small_suite();
    let fig6_rows = report
        .lines()
        .filter(|l| l.ends_with(",new") || l.ends_with(",bmc"));
    assert_eq!(fig6_rows.count(), 2 * suite.len());

    // Fig. 7's rows are the per-depth counts of the `bmc` and `sta` runs.
    let fig7: Vec<&str> = report
        .lines()
        .skip_while(|l| !l.starts_with("k,decisions_bmc"))
        .skip(1)
        .take_while(|l| !l.starts_with('#'))
        .collect();
    let twin = suite
        .iter()
        .find(|b| b.name == "s6_twin4")
        .expect("in suite");
    let [base, refined] =
        [OrderingStrategy::Standard, OrderingStrategy::RefinedStatic].map(|strategy| {
            let options = BmcOptions {
                strategy,
                reuse: SolverReuse::Fresh,
                ..BmcOptions::default()
            };
            run_instance(twin, options).run
        });
    let expected: Vec<String> = base
        .per_depth
        .iter()
        .zip(&refined.per_depth)
        .map(|(b, r)| {
            let (k, db, dr) = (b.depth, b.decisions, r.decisions);
            format!("{k},{db},{dr},{},{}", b.implications, r.implications)
        })
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(fig7, expected);
}
