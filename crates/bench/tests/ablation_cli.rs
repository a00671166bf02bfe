//! The ablation binaries read no arguments, so each must refuse any with
//! its usage line and exit status 2 before it runs a sweep the arguments do
//! not describe.

use std::process::Command;

#[test]
fn ablation_binaries_reject_any_argument() {
    for (bin, path) in [
        ("ablation_weights", env!("CARGO_BIN_EXE_ablation_weights")),
        ("ablation_switch", env!("CARGO_BIN_EXE_ablation_switch")),
        ("ablation_axis", env!("CARGO_BIN_EXE_ablation_axis")),
    ] {
        let out = Command::new(path).arg("--smoke").output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{bin}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("usage: {bin}")),
            "{bin}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} printed before refusing");
    }
}
