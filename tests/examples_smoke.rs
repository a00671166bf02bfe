//! Smoke tests executing every example binary end-to-end, so the doc-facing
//! entry points in `examples/` cannot silently rot.
//!
//! `cargo test` builds all examples before running integration tests, so the
//! binaries are found next to this test's own executable (`target/<profile>/
//! examples/`). Each test asserts a stable marker of the example's expected
//! verdict, not exact output, to stay robust against formatting tweaks.

use std::path::PathBuf;
use std::process::Command;

/// Locates a built example binary relative to this test executable
/// (`target/<profile>/deps/examples_smoke-*` → `target/<profile>/examples/`).
fn example_path(name: &str) -> PathBuf {
    let mut dir = std::env::current_exe().expect("test executable path");
    dir.pop(); // strip the test binary name -> deps/
    if dir.ends_with("deps") {
        dir.pop(); // -> target/<profile>/
    }
    let path = dir
        .join("examples")
        .join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.is_file(),
        "example binary `{name}` not found at {path:?}; run `cargo build --examples` first \
         (plain `cargo test` builds them automatically)"
    );
    path
}

/// Runs one example with no arguments and returns its stdout.
fn run_example(name: &str) -> String {
    let path = example_path(name);
    let output = Command::new(&path)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {path:?}: {e}"));
    assert!(
        output.status.success(),
        "example `{name}` exited with {:?}\nstderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        !stdout.trim().is_empty(),
        "example `{name}` printed nothing"
    );
    stdout
}

#[test]
fn quickstart_finds_the_planted_counterexample() {
    let out = run_example("quickstart");
    assert!(out.contains("property FAILS"), "unexpected output:\n{out}");
    assert!(
        out.contains("trace validates: true"),
        "unexpected output:\n{out}"
    );
}

#[test]
fn dimacs_solve_refutes_the_pigeonhole_instance() {
    let out = run_example("dimacs_solve");
    assert!(out.contains("UNSAT"), "unexpected output:\n{out}");
    assert!(out.contains("core"), "unexpected output:\n{out}");
}

#[test]
fn ordering_comparison_reports_all_strategies() {
    let out = run_example("ordering_comparison");
    for label in [
        "standard VSIDS",
        "refined static",
        "refined dynamic",
        "shtrichman",
    ] {
        assert!(out.contains(label), "missing strategy `{label}`:\n{out}");
    }
}

#[test]
fn ic3_prove_proves_the_guarded_fifo() {
    let out = run_example("ic3_prove");
    assert!(
        out.contains("PROVED") && out.contains("independently checked"),
        "unexpected output:\n{out}"
    );
    assert!(out.contains("FALSIFIED"), "unexpected output:\n{out}");
}

#[test]
fn aiger_multi_prop_checks_both_properties_in_one_session() {
    let out = run_example("aiger_multi_prop");
    assert!(out.contains("2 properties"), "unexpected output:\n{out}");
    assert!(
        out.contains("falsified at depth 3") && out.contains("witness validates: true"),
        "unexpected output:\n{out}"
    );
    assert!(
        out.contains("open at depth 12"),
        "unexpected output:\n{out}"
    );
    assert!(out.contains("1 falsified / 2"), "unexpected output:\n{out}");
}
