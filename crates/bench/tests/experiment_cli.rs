//! End-to-end tests of the experiment binaries' shared flags: a malformed or
//! missing `--divisor` must stop `table1` and `fig6` before they print a
//! table, instead of sweeping at the paper's default of 64.

use std::process::Command;

#[test]
fn a_malformed_divisor_exits_2_before_sweeping() {
    for (bin, value) in [
        (env!("CARGO_BIN_EXE_table1"), Some("x")),
        (env!("CARGO_BIN_EXE_fig6"), Some("8x")),
        (env!("CARGO_BIN_EXE_table1"), None),
    ] {
        let mut command = Command::new(bin);
        command.args(["--smoke", "--no-json", "--divisor"]);
        command.args(value);
        let out = command.output().expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {value:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{bin} {value:?} swept:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let shown = value.unwrap_or("<missing>");
        assert!(err.contains("--divisor") && err.contains(shown), "{err}");
    }
}
