//! Smoke tests: every workload's code path, on the small suite at depth 6
//! and one 20k-latch wide instance, through the real binary.

use std::process::{Command, Output};

const WORKLOADS: [&str; 5] = [
    "bmc-deep",
    "bmc-certified",
    "ic3-prove",
    "ic3-certified",
    "frontend-wide",
];

fn run_benchmark(args: &[&str]) -> (Output, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rbmc-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out, stdout)
}

fn benchmark(args: &[&str]) -> String {
    let (out, stdout) = run_benchmark(args);
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn smoke_run_checks_every_workload_and_diffs_against_itself() {
    let stdout = benchmark(&["run", "--seed", "1", "--reps", "1", "--smoke"]);
    for w in WORKLOADS {
        assert!(
            stdout.contains(&format!("{w}: counts: identical")),
            "{w} missing:\n{stdout}"
        );
    }
    // Against itself every median is unchanged; a metric whose samples
    // spread wider than its bound is still reported as unresolved.
    let result = concat!(env!("CARGO_MANIFEST_DIR"), "/out/smoke-1.json");
    let (_, diff) = run_benchmark(&["diff", result, result]);
    let rows: Vec<&str> = diff.lines().filter(|l| l.contains("new/base")).collect();
    assert_eq!(rows.len(), 5 * 6, "{diff}");
    for row in rows {
        assert!(row.contains("new/base 1.0000x"), "{row}");
        assert!(
            !row.ends_with(" worse") && !row.ends_with(" better"),
            "{row}"
        );
    }
    assert_eq!(diff.matches("counts: identical").count(), 5, "{diff}");
}

#[test]
fn a_single_workload_run_ends_with_one_json_result() {
    for (trace, metrics) in [
        (
            "0",
            &["setup_s", "wall_s", "file_p90_ms", "peak_rss_mb"][..],
        ),
        (
            "1",
            &["aiger.parse_s", "proof.check_s", "trace.overhead_share"][..],
        ),
    ] {
        let args = [
            "--workload",
            "ic3-certified",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ];
        let stdout = benchmark(&args);
        let last = stdout.lines().last().unwrap_or_default();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{last}");
        for m in metrics {
            assert!(
                last.contains(&format!("\"{m}\": {{\"value\": ")),
                "{m}: {last}"
            );
        }
    }
}
