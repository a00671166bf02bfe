//! End-to-end tests of the `rbmc` binary on the exported smoke corpus:
//! striping files across workers must not change a byte of the report, and
//! a flag the runner does not know must stop it before it sweeps anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `rbmc` with `args` and no JSON artifact.
fn rbmc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rbmc"))
        .args(args)
        .arg("--no-json")
        .output()
        .expect("rbmc runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exports the smoke corpus into a directory of the test's own, so tests
/// running concurrently never share one.
fn smoke_corpus(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("rbmc_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = rbmc(&[
        "--export-corpus",
        dir.to_str().expect("utf-8 path"),
        "--smoke",
        "--depth",
        "0",
    ]);
    assert!(out.status.success(), "export failed: {}", stderr(&out));
    dir
}

/// The report without its one timed line, the `checked … in Ns` summary.
fn untimed(report: &str) -> String {
    report
        .lines()
        .filter(|line| !line.starts_with("checked "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn jobs_do_not_change_the_report() {
    let dir = smoke_corpus("jobs");
    let dir = dir.to_str().expect("utf-8 path");
    for extra in [&[][..], &["--reuse", "fresh"], &["--engine", "ic3"]] {
        let run = |jobs: &str| {
            let mut args = vec![dir, "--smoke", "--jobs", jobs];
            args.extend_from_slice(extra);
            let out = rbmc(&args);
            assert!(
                out.status.success(),
                "{extra:?} --jobs {jobs}: {}",
                stderr(&out)
            );
            stdout(&out)
        };
        let (one, two) = (run("1"), run("2"));
        assert!(
            one.contains("checked 16 files / 18 properties"),
            "{extra:?}: unexpected report:\n{one}"
        );
        assert_eq!(untimed(&one), untimed(&two), "{extra:?}");
    }
}

#[test]
fn unknown_flags_exit_2_before_sweeping() {
    let dir = smoke_corpus("unknown");
    let dir = dir.to_str().expect("utf-8 path");
    // A misspelt certificate gate must not sweep with certification off.
    for typo in [&["--proff", "check"][..], &["--selfchek"], &["--jobs=2"]] {
        let mut args = vec![dir, "--smoke"];
        args.extend_from_slice(typo);
        let out = rbmc(&args);
        assert_eq!(out.status.code(), Some(2), "{typo:?}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{typo:?} swept:\n{}", stdout(&out));
        let err = stderr(&out);
        assert!(err.contains(typo[0]), "{typo:?}: {err}");
        assert!(err.contains("usage: rbmc"), "{typo:?}: {err}");
    }
    let out = rbmc(&[dir, "--smoke", "--proof", "check"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("UNSAT episodes certified"));
}

#[test]
fn quiet_witnesses_is_documented_and_drops_the_witness_blocks() {
    let usage = rbmc(&[]);
    assert_eq!(usage.status.code(), Some(2));
    assert!(
        stderr(&usage).contains("[--quiet-witnesses]"),
        "{}",
        stderr(&usage)
    );

    let dir = smoke_corpus("quiet");
    let dir = dir.to_str().expect("utf-8 path");
    let loud = rbmc(&[dir, "--smoke"]);
    let quiet = rbmc(&[dir, "--smoke", "--quiet-witnesses"]);
    assert!(loud.status.success() && quiet.status.success());
    let (loud, quiet) = (stdout(&loud), stdout(&quiet));
    // Every witness block ends in a lone `.` line.
    assert!(loud.lines().any(|line| line == "."));
    assert!(!quiet.lines().any(|line| line == "."), "{quiet}");
    // The verdict lines are the same either way.
    let verdicts = |report: &str| -> Vec<String> {
        report
            .lines()
            .filter(|line| line.starts_with("  b"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(verdicts(&loud), verdicts(&quiet));
    assert_eq!(verdicts(&quiet).len(), 18);
}
