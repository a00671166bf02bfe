//! Machine-readable benchmark artifacts (`BENCH_*.json`).
//!
//! Every experiment binary but `ablations` writes one JSON report per run
//! via [`emit`], so two runs can be diffed instead of compared by eye from
//! their stdout tables. Timed comparisons across commits belong to the
//! benchmark under `benchmark/`; these artifacts record what one run did.
//!
//! The format is deliberately flat and dependency-free (the workspace builds
//! offline, so no serde): a report is a label plus a list of cases, each case
//! carrying the per-run wall time and the machine-independent counters
//! (conflicts, decisions, propagations), plus free-form numeric extras.

use std::fmt::Write as _;
use std::path::Path;

use crate::InstanceResult;

/// One measured case inside a [`BenchReport`].
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Instance (or micro-benchmark) name.
    pub name: String,
    /// Strategy or configuration label (`bmc`, `sta`, `dyn`, `cdg_on`, …).
    pub strategy: String,
    /// Wall-clock seconds of the run.
    pub wall_s: f64,
    /// Total conflicts over the run.
    pub conflicts: u64,
    /// Total decisions over the run.
    pub decisions: u64,
    /// Total propagations (implications) over the run.
    pub propagations: u64,
    /// Deepest completed unrolling depth.
    pub completed_depth: usize,
    /// Whether the verdict matched the instance's ground truth.
    pub verdict_ok: bool,
    /// Additional numeric metrics (name, value), e.g. CDG sizes.
    pub extra: Vec<(String, f64)>,
}

impl From<&InstanceResult> for BenchCase {
    fn from(r: &InstanceResult) -> BenchCase {
        // The incremental-session counters ride along as extras, so runs in
        // `SolverReuse::Session` mode are distinguishable in the artifact
        // (fresh runs report one solve call per depth and zeros otherwise).
        let stats = &r.run.solver_stats;
        BenchCase {
            name: r.name.clone(),
            strategy: r.strategy.to_string(),
            wall_s: r.time.as_secs_f64(),
            conflicts: r.conflicts,
            decisions: r.decisions,
            propagations: r.implications,
            completed_depth: r.completed_depth,
            // `run_instance` asserts the verdict against ground truth before
            // it returns a result, so every result it hands out matched.
            verdict_ok: true,
            extra: vec![
                ("solve_calls".into(), stats.solve_calls as f64),
                (
                    "assumption_conflicts".into(),
                    stats.assumption_conflicts as f64,
                ),
                ("learned_retained".into(), stats.learned_retained as f64),
            ],
        }
    }
}

/// A full benchmark report: a label plus the measured cases.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    /// Which binary (and mode) produced the report.
    pub label: String,
    /// The measured cases, in run order.
    pub cases: Vec<BenchCase>,
}

impl BenchReport {
    /// Creates an empty report with the given label.
    pub fn new(label: impl Into<String>) -> BenchReport {
        BenchReport {
            label: label.into(),
            cases: Vec::new(),
        }
    }

    /// Appends one measured case.
    pub fn push(&mut self, case: BenchCase) {
        self.cases.push(case);
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"rbmc-bench/v1\",");
        let _ = writeln!(out, "  \"label\": {},", json_string(&self.label));
        out.push_str("  \"cases\": [\n");
        for (i, case) in self.cases.iter().enumerate() {
            out.push_str("    {");
            let _ = write!(
                out,
                "\"name\": {}, \"strategy\": {}, \"wall_s\": {}, \
                 \"conflicts\": {}, \"decisions\": {}, \"propagations\": {}, \
                 \"completed_depth\": {}, \"verdict_ok\": {}",
                json_string(&case.name),
                json_string(&case.strategy),
                json_f64(case.wall_s),
                case.conflicts,
                case.decisions,
                case.propagations,
                case.completed_depth,
                case.verdict_ok
            );
            for (key, value) in &case.extra {
                let _ = write!(out, ", {}: {}", json_string(key), json_f64(*value));
            }
            out.push('}');
            out.push_str(if i + 1 < self.cases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string into a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON number (finite; 6 significant decimals).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Renders per-file lint findings as the machine-readable `rbmc-lint/v1`
/// artifact (`rbmc --lint-json PATH`): one entry per swept file with its
/// full diagnostic list (code, severity, location, message, hint) and
/// warning/error counts, plus corpus-wide totals. The shape CI annotators
/// and dashboards consume instead of scraping the sweep's stdout.
pub fn lint_json(entries: &[(String, rbmc_circuit::lint::LintReport)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"rbmc-lint/v1\",");
    let _ = writeln!(
        out,
        "  \"total_warnings\": {},",
        entries.iter().map(|(_, r)| r.num_warnings()).sum::<usize>()
    );
    let _ = writeln!(
        out,
        "  \"total_errors\": {},",
        entries.iter().map(|(_, r)| r.num_errors()).sum::<usize>()
    );
    out.push_str("  \"files\": [\n");
    for (i, (file, report)) in entries.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"file\": {},", json_string(file));
        let _ = writeln!(out, "      \"warnings\": {},", report.num_warnings());
        let _ = writeln!(out, "      \"errors\": {},", report.num_errors());
        out.push_str("      \"diagnostics\": [");
        for (j, d) in report.diagnostics().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n        {{\"code\": {}, \"severity\": {}, \"location\": {}, \
                 \"message\": {}, \"hint\": {}}}",
                json_string(d.code.code()),
                json_string(&d.severity.to_string()),
                json_string(&d.location),
                json_string(&d.message),
                json_string(&d.hint),
            );
        }
        if !report.diagnostics().is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n");
        out.push_str(if i + 1 < entries.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes an artifact the run was asked for (`path` is `None` when it was
/// not), creating parent directories as needed, and says on stderr where it
/// went or why it could not. Returns `false` only when a requested artifact
/// could not be written: the binary then exits 2 after the rest of its run,
/// so a CI step that reads the artifact fails where the cause is printed.
pub fn emit(path: Option<&Path>, contents: impl FnOnce() -> String) -> bool {
    let Some(path) = path else {
        return true;
    };
    let written = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => std::fs::create_dir_all(parent),
        _ => Ok(()),
    }
    .and_then(|()| std::fs::write(path, contents()));
    match &written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("error: cannot write {}: {err}", path.display()),
    }
    written.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_structure() {
        let mut report = BenchReport::new("test \"quoted\"");
        report.push(BenchCase {
            name: "case\n1".into(),
            strategy: "bmc".into(),
            wall_s: 0.25,
            conflicts: 3,
            decisions: 7,
            propagations: 11,
            completed_depth: 5,
            verdict_ok: true,
            extra: vec![("cdg_nodes".into(), 42.0)],
        });
        let json = report.to_json();
        assert!(json.contains("\"label\": \"test \\\"quoted\\\"\""));
        assert!(json.contains("\"case\\n1\""));
        assert!(json.contains("\"wall_s\": 0.250000"));
        assert!(json.contains("\"cdg_nodes\": 42.000000"));
        assert!(json.contains("\"verdict_ok\": true"));
    }

    #[test]
    fn lint_json_schema() {
        // One file with a constant-property error (doc example of the
        // linter), one clean file: the artifact must carry the schema tag,
        // corpus totals, per-file counts, and fully structured diagnostics.
        let dirty = rbmc_circuit::lint::lint_aiger(b"aag 0 0 0 0 0 1\n1\n");
        assert_eq!(dirty.num_errors(), 1);
        let clean = rbmc_circuit::lint::LintReport::default();
        let json = lint_json(&[("dirty.aag".into(), dirty), ("clean.aag".into(), clean)]);
        assert!(json.contains("\"schema\": \"rbmc-lint/v1\""));
        assert!(json.contains("\"total_warnings\": 0"));
        assert!(json.contains("\"total_errors\": 1"));
        assert!(json.contains("\"file\": \"dirty.aag\""));
        assert!(json.contains("\"code\": \"L001\""));
        assert!(json.contains("\"severity\": \"error\""));
        assert!(json.contains("\"location\":"));
        assert!(json.contains("\"hint\":"));
        // The clean file's diagnostics array is present and empty.
        assert!(json.contains("\"diagnostics\": []"));
        // The artifact is one self-contained JSON object (balanced braces as
        // a cheap structural check, since the workspace has no JSON parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
