//! End-to-end tests of the `rbmc` binary on the exported smoke corpus:
//! striping files across workers must not change a byte of the report, a
//! flag the runner does not know, or one the chosen engine or strategy would
//! ignore, must stop it before it sweeps anything, two files that differ
//! only in their extension are reported apart, the `--lint-json`
//! artifact holds each file's own lint report, and an artifact that cannot
//! be written fails the run after the sweep.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rbmc_circuit::lint::lint_aiger;

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
    // A malformed or missing number must not sweep at the default either.
    for bad in [
        &["--depth", "2O"][..],
        &["--divisor", "x"],
        &["--jobs", "x"],
        &["--depth", "-1"],
        &["--jobs"],
        &["--lint", "off"],
    ] {
        let mut args = vec![dir, "--smoke"];
        args.extend_from_slice(bad);
        let out = rbmc(&args);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{bad:?} swept:\n{}", stdout(&out));
        let err = stderr(&out);
        let value = bad.get(1).copied().unwrap_or("<missing>");
        assert!(
            err.contains(bad[0]) && err.contains(value),
            "{bad:?}: {err}"
        );
    }
    // Nor must an option the engine or strategy would ignore, in any order.
    for (ignored, named) in [
        (&["--engine", "ic3", "--reuse", "fresh"][..], "--reuse"),
        (&["--reuse", "fresh", "--engine", "ic3"], "--reuse"),
        (&["--strategy", "sht", "--engine", "ic3"], "sht"),
        (&["--engine", "ic3", "--strategy", "sht"], "sht"),
        (&["--strategy", "sta", "--divisor", "8"], "--divisor"),
        (&["--divisor", "64", "--strategy", "bmc"], "--divisor"),
    ] {
        let mut args = vec![dir, "--smoke"];
        args.extend_from_slice(ignored);
        let out = rbmc(&args);
        assert_eq!(out.status.code(), Some(2), "{ignored:?}: {}", stderr(&out));
        assert!(
            out.stdout.is_empty(),
            "{ignored:?} swept:\n{}",
            stdout(&out)
        );
        let err = stderr(&out);
        assert!(err.contains(named), "{ignored:?}: {err}");
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

/// The witness files `--witness-dir` wrote, sorted by name.
fn witness_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("witness dir exists")
        .map(|entry| {
            let entry = entry.expect("readable entry");
            entry.file_name().into_string().expect("utf-8 name")
        })
        .collect();
    names.sort();
    names
}

#[test]
fn files_sharing_a_stem_keep_their_witnesses_and_lint_counts() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("rbmc_cli_stems");
    let _ = std::fs::remove_dir_all(&root);
    let (corpus, witnesses) = (root.join("corpus"), root.join("witnesses"));
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    // A toggling latch that the bad line observes, and one input outside
    // every cone: each copy fails at depth 1 with one L003 warning.
    for name in ["t.aag", "t.aig"] {
        std::fs::write(corpus.join(name), "aag 2 1 1 0 0 1\n2\n4 5\n4\n").expect("write");
    }
    let out = rbmc(&[
        corpus.to_str().expect("utf-8 path"),
        "--witness-dir",
        witnesses.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let report = stdout(&out);
    assert!(
        report.contains("2 falsified") && report.contains("lint: 2 warnings, 0 errors"),
        "{report}"
    );
    assert_eq!(witness_files(&witnesses), ["t.aag.b0.wit", "t.aig.b0.wit"]);

    // The smoke export holds such a pair too; every property gets a file.
    let dir = smoke_corpus("witness_dir");
    let witnesses = root.join("smoke_witnesses");
    let out = rbmc(&[
        dir.to_str().expect("utf-8 path"),
        "--smoke",
        "--jobs",
        "2",
        "--witness-dir",
        witnesses.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("checked 16 files / 18 properties"));
    assert_eq!(witness_files(&witnesses).len(), 18);
}

#[test]
fn lint_json_holds_each_files_own_lint_report() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("rbmc_cli_lint_json");
    let _ = std::fs::remove_dir_all(&root);
    let corpus = root.join("corpus");
    std::fs::create_dir_all(&corpus).expect("corpus dir");
    let files: [(&str, &[u8]); 4] = [
        // A toggling latch that the bad line observes: no finding.
        ("a_clean.aag", b"aag 1 0 1 0 0 1\n2 3\n2\n"),
        // A header the parser rejects, with no finding: the file is skipped.
        ("b_garbled.aag", b"aag 1 0 x\n"),
        // An invariant-constraint section, which only the raw-byte lint
        // sees (the parser rejects the file): an error, which `deny` fails.
        ("c_constrained.aag", b"aag 1 0 1 0 0 0 1\n2 3\n2\n"),
        // A bad line that is constant true, which only the lint of the
        // parsed AIG sees: an error, which `deny` fails.
        ("d_constant.aag", b"aag 0 0 0 0 0 1\n1\n"),
    ];
    for (name, bytes) in files {
        std::fs::write(corpus.join(name), bytes).expect("write");
    }
    let artifact = root.join("lint.json");
    let out = rbmc(&[
        corpus.to_str().expect("utf-8 path"),
        "--lint",
        "deny",
        "--lint-json",
        artifact.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("SKIP b_garbled"), "{err}");
    assert_eq!(err.matches("lint denied").count(), 2, "{err}");
    // The artifact is what linting each file's bytes on its own builds.
    let expected: Vec<_> = files
        .iter()
        .map(|(name, bytes)| (name.to_string(), lint_aiger(bytes)))
        .collect();
    assert!(expected[0].1.diagnostics().is_empty());
    assert!(expected[1].1.diagnostics().is_empty());
    assert!(expected[2].1.num_errors() > 0 && expected[3].1.num_errors() > 0);
    let written = std::fs::read_to_string(&artifact).expect("artifact written");
    assert_eq!(written, rbmc_bench::report::lint_json(&expected));
}

#[test]
fn an_artifact_that_cannot_be_written_exits_2_after_the_sweep() {
    let dir = smoke_corpus("artifact");
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("rbmc_cli_artifact_file");
    std::fs::write(&file, "").expect("write");
    let artifact = file.join("x.json");
    let artifact = artifact.to_str().expect("utf-8 path");
    let dir = dir.to_str().expect("utf-8 path");
    let json_out = Command::new(env!("CARGO_BIN_EXE_rbmc"))
        .args([dir, "--smoke", "--quiet-witnesses", "--json-out", artifact])
        .output()
        .expect("rbmc runs");
    let lint_json = rbmc(&[dir, "--smoke", "--quiet-witnesses", "--lint-json", artifact]);
    for out in [json_out, lint_json] {
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stdout(&out).contains("checked 16 files / 18 properties"));
        assert!(stderr(&out).contains("cannot write"), "{}", stderr(&out));
    }
}
