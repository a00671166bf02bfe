//! `rbmc` — the HWMCC-style corpus runner.
//!
//! Sweeps a directory of AIGER benchmarks (`.aag` ASCII and `.aig` binary),
//! checks **every** bad-state property of each file in one incremental
//! solving session ([`BmcEngine::for_problem`]), and reports per property in
//! the HWMCC output convention: status `1` plus an AIGER witness
//! (initial-state line, one input line per frame, terminated by `.`) for a
//! falsified property, status `2` for a property still open at the depth
//! bound. Every witness is soundness-gated before it is printed: the trace
//! is validated on the netlist ([`Trace::validate_against`]) *and* replayed
//! through the original AIG ([`rbmc_circuit::Aig::eval_frame`]); a failure
//! of either aborts the run with a non-zero exit code.
//!
//! Usage:
//!
//! ```text
//! rbmc [DIR] [--export-corpus DIR] [--depth N] [--reuse fresh|session]
//!      [--engine bmc|ic3] [--strategy bmc|sta|dyn|sht] [--divisor N]
//!      [--jobs N] [--no-preprocess]
//!      [--lint off|warn|deny] [--lint-json PATH]
//!      [--proof off|log|check] [--selfcheck] [--smoke]
//!      [--witness-dir DIR] [--quiet-witnesses] [--json-out PATH | --no-json]
//! ```
//!
//! Any other `--flag` is rejected with the usage line and exit code 2, so a
//! misspelt gate (say `--proff check`) cannot silently sweep without it.
//!
//! - `--export-corpus DIR` first writes the gens suite as a fallback corpus
//!   (`rbmc_gens::corpus`) into DIR; when no positional corpus directory is
//!   given, the exported directory is then swept.
//! - `--jobs N` stripes benchmark files across `min(N, files)` workers
//!   ([`rbmc_bench::striped_map`]); each file's engine runs its one
//!   sequential loop. Verdicts and witnesses are independent of `N`, and
//!   the per-file output is buffered and printed in file order, so the
//!   whole report is byte-stable apart from the timed summary line.
//! - `--engine` picks the verification algorithm: `bmc` (default) or `ic3`
//!   (unbounded proofs — a holding property reports HWMCC status `0` with
//!   the extracted invariant machine-checked before it is claimed, a
//!   failing one the same depth-exact witness as BMC).
//! - `--selfcheck` is the differential harness: the main run, the
//!   *opposite* solver-reuse regime, and the *opposite* preprocessing
//!   regime must agree on every property's per-depth verdict sequence, and
//!   every property is additionally re-checked with
//!   fresh-per-depth single-property runs ([`SolverReuse::Fresh`]). **All**
//!   mismatching properties across all modes are reported before the
//!   non-zero exit — a failure names every offender, not just the first.
//!   Under `--engine ic3` the harness is
//!   differential against BMC instead: the prover's per-frontier verdict
//!   sequence must equal the BMC oracle's per-depth sequence on their
//!   shared prefix — falsification depths match exactly, and a proof
//!   implies BMC finds no counterexample within its whole bound.
//! - `--no-preprocess` turns off the engine's structural preprocessing
//!   ([`rbmc_core::preprocess_problem`]) and solves the netlist as given.
//!   Verdicts are identical either way (the selfcheck harness cross-checks
//!   the two regimes against each other); the flag exists to measure the
//!   reduction and to reproduce raw-engine behavior. With preprocessing on,
//!   witness positions for latches/inputs outside every property's cone
//!   print as `x` (their value is irrelevant; the validated trace replays
//!   them at the declared reset value / `false`).
//! - `--lint {off,warn,deny}` (default `warn`) runs the static linter
//!   ([`rbmc_circuit::lint`]) over every file's raw AIGER bytes before
//!   solving. `warn` prints diagnostics per file and counts them in the
//!   report extras (`lint_warnings`/`lint_errors`); `deny` additionally
//!   fails any file with an error-severity diagnostic (the fail-closed CI
//!   shape); `off` stays silent. Verdicts and witnesses are byte-identical
//!   across all three modes. Independently of the mode, a file the pipeline
//!   cannot check at all — unparseable bytes, unsupported `C`/`J`/`F`
//!   sections, no properties, duplicate property names — is recorded as a
//!   *skipped* entry (strategy `skipped` in `BENCH_corpus.json`, with its
//!   diagnostic) and the sweep continues with a clean exit code.
//! - `--lint-json PATH` additionally writes the full lint findings of every
//!   swept file as a machine-readable artifact (`rbmc-lint/v1`: per-file
//!   diagnostics with code, severity, location, message, hint, plus
//!   warning/error totals) — the shape CI annotators and dashboards consume
//!   instead of scraping stdout. Independent of `--lint` mode.
//! - `--proof {off,log,check}` (default `off`) turns on clause-level
//!   DRAT/LRAT proof logging in the solver. `log` records every axiom,
//!   derivation (with CDG-sourced antecedent hints), and deletion, and
//!   reports certificate sizes in the `BENCH_corpus.json` extras
//!   (`proof_steps`); `check` additionally re-derives **every UNSAT
//!   episode** through the independent checker of `rbmc-proof` — a
//!   rejected certificate fails the file and the sweep exits non-zero (the
//!   fail-closed CI shape, symmetric to the witness and invariant gates).
//!   Under `--selfcheck`, the differential cross-runs inherit the proof
//!   mode, so every cross-run is certified too.
//! - `--smoke` (alias `--small`) shrinks the export to the small suite and
//!   the default depth bound to 10 (CI mode).
//! - `--quiet-witnesses` leaves the status/witness blocks out of stdout
//!   (the gates still run; `--witness-dir` still writes them).
//!
//! The run is recorded as a machine-readable `BENCH_corpus.json` artifact
//! with one case per (file, property), carrying the per-property session
//! counters (episodes, assumption conflicts, retirement depth).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rbmc_bench::{BenchCase, BenchReport};
use rbmc_circuit::aiger::parse_aiger;
use rbmc_circuit::coi::registers_in_cone;
use rbmc_circuit::lint::{lint_aiger, LintCode, LintReport};
use rbmc_circuit::preprocess::PreprocessReport;
use rbmc_circuit::Aig;
use rbmc_core::{
    check_invariant, BmcEngine, BmcOptions, BmcRun, Ic3Engine, Model, OrderingStrategy,
    ProblemBuilder, ProofMode, PropertyVerdict, SolveResult, SolverReuse, Trace, TraceLift,
    VerificationProblem,
};

const USAGE: &str = "usage: rbmc [DIR] [--export-corpus DIR] [--depth N] [--engine bmc|ic3] \
     [--reuse fresh|session] [--strategy bmc|sta|dyn|sht] [--divisor N] \
     [--jobs N] [--no-preprocess] [--lint off|warn|deny] [--lint-json PATH] \
     [--proof off|log|check] [--selfcheck] [--smoke] [--witness-dir DIR] \
     [--quiet-witnesses] [--json-out PATH | --no-json]";

/// Flags that take a value (the next argument).
const VALUE_FLAGS: [&str; 12] = [
    "--depth",
    "--divisor",
    "--strategy",
    "--engine",
    "--reuse",
    "--jobs",
    "--witness-dir",
    "--json-out",
    "--export-corpus",
    "--lint",
    "--lint-json",
    "--proof",
];

/// Flags that stand alone.
const SWITCH_FLAGS: [&str; 6] = [
    "--smoke",
    "--small",
    "--selfcheck",
    "--quiet-witnesses",
    "--no-preprocess",
    "--no-json",
];

/// Checks every `--flag` against the known set and returns the first
/// positional argument (the corpus directory), or the unknown flag.
fn scan_args(args: &[String]) -> Result<Option<PathBuf>, String> {
    let mut positional = None;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            rest.next();
        } else if arg.starts_with("--") {
            if !SWITCH_FLAGS.contains(&arg.as_str()) {
                return Err(arg.clone());
            }
        } else if positional.is_none() {
            positional = Some(PathBuf::from(arg));
        }
    }
    Ok(positional)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Which algorithm answers each file (`--engine`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EngineKind {
    /// Bounded model checking to the depth bound. The default.
    Bmc,
    /// IC3: unbounded proofs with machine-checked invariants.
    Ic3,
}

impl EngineKind {
    fn label(self) -> &'static str {
        match self {
            EngineKind::Bmc => "bmc",
            EngineKind::Ic3 => "ic3",
        }
    }
}

/// How `--lint` diagnostics gate the sweep (`rbmc_circuit::lint`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LintMode {
    /// Lint runs (its structural facts still guard the skip path) but
    /// reports nothing.
    Off,
    /// Diagnostics are printed per file and counted in the report extras;
    /// nothing fails. The default.
    Warn,
    /// Like `warn`, but any error-severity diagnostic fails the file — the
    /// fail-closed CI shape. Warnings stay non-fatal.
    Deny,
}

fn parse_lint_mode(args: &[String]) -> LintMode {
    match flag_value(args, "--lint") {
        None | Some("warn") => LintMode::Warn,
        Some("off") => LintMode::Off,
        Some("deny") => LintMode::Deny,
        Some(other) => {
            eprintln!("error: --lint requires off|warn|deny, got `{other}`");
            std::process::exit(2);
        }
    }
}

fn parse_proof_mode(args: &[String]) -> ProofMode {
    match flag_value(args, "--proof") {
        None | Some("off") => ProofMode::Off,
        Some("log") => ProofMode::Log,
        Some("check") => ProofMode::Check,
        Some(other) => {
            eprintln!("error: --proof requires off|log|check, got `{other}`");
            std::process::exit(2);
        }
    }
}

/// How a swept file ended: fully checked, or set aside with a diagnostic
/// (unparseable, unsupported sections, no properties, or a structural defect
/// the engine cannot represent). Skips keep the sweep going and the exit
/// code clean; under `--lint deny` the same files fail instead.
enum FileDisposition {
    /// The file was solved and all its gates passed.
    Checked,
    /// The file was recorded as skipped, with this reason.
    Skipped(String),
}

/// Records a skipped file: a diagnostic line in the per-file output and one
/// `BENCH_corpus.json` case with the distinct `skipped` strategy label, so a
/// sweep over a corpus with defective members still reports every file.
fn skip_file(
    stem: &str,
    reason: String,
    lint: &LintReport,
    lint_lines: &str,
    out: &mut String,
    cases: &mut Vec<BenchCase>,
) -> FileDisposition {
    let _ = writeln!(out, "{stem}: skipped ({reason})");
    let _ = write!(out, "{lint_lines}");
    cases.push(BenchCase {
        name: format!("{stem}::file"),
        strategy: "skipped".into(),
        wall_s: 0.0,
        conflicts: 0,
        decisions: 0,
        propagations: 0,
        completed_depth: 0,
        verdict_ok: true,
        extra: vec![
            ("skipped".into(), 1.0),
            ("lint_warnings".into(), lint.num_warnings() as f64),
            ("lint_errors".into(), lint.num_errors() as f64),
        ],
    });
    FileDisposition::Skipped(format!("{stem}: {reason}"))
}

fn parse_strategy(args: &[String], divisor: u32) -> OrderingStrategy {
    match flag_value(args, "--strategy") {
        None | Some("dyn") => OrderingStrategy::RefinedDynamic { divisor },
        Some("bmc") => OrderingStrategy::Standard,
        Some("sta") => OrderingStrategy::RefinedStatic,
        Some("sht") => OrderingStrategy::Shtrichman,
        Some(other) => {
            eprintln!("error: --strategy requires bmc|sta|dyn|sht, got `{other}`");
            std::process::exit(2);
        }
    }
}

/// Renders one property's HWMCC-style result block: `1` + witness + `.` for
/// a counterexample, `0` for a proved property (unbounded engines), `2` for
/// a property the bounded sweep leaves open.
///
/// `dontcare` (latch mask, input mask) marks positions outside every
/// property's structural cone: they print as `x` in the AIGER witness
/// convention. The trace itself — the one the soundness gates replayed —
/// carries concrete defaults at exactly those positions (declared reset for
/// latches, `false` for inputs), so any reader resolving `x` to those
/// defaults reproduces the validated replay.
fn witness_text(
    prop_index: usize,
    verdict: &PropertyVerdict,
    trace: Option<&Trace>,
    dontcare: Option<(&[bool], &[bool])>,
) -> String {
    let mut out = String::new();
    match verdict {
        PropertyVerdict::Falsified { .. } => {
            let trace = trace.expect("falsified verdict carries a trace");
            out.push_str("1\n");
            out.push_str(&format!("b{prop_index}\n"));
            let bits = |v: &[bool], mask: Option<&[bool]>| -> String {
                v.iter()
                    .enumerate()
                    .map(|(i, &b)| {
                        if mask.is_some_and(|m| m.get(i).copied().unwrap_or(false)) {
                            'x'
                        } else if b {
                            '1'
                        } else {
                            '0'
                        }
                    })
                    .collect()
            };
            let (latch_mask, input_mask) = match dontcare {
                Some((latches, inputs)) => (Some(latches), Some(inputs)),
                None => (None, None),
            };
            out.push_str(&format!("{}\n", bits(trace.initial_state(), latch_mask)));
            for frame in trace.inputs() {
                out.push_str(&format!("{}\n", bits(frame, input_mask)));
            }
            out.push_str(".\n");
        }
        PropertyVerdict::Proved { .. } => {
            out.push_str("0\n");
            out.push_str(&format!("b{prop_index}\n"));
            out.push_str(".\n");
        }
        PropertyVerdict::OpenAt { .. } | PropertyVerdict::Unknown => {
            out.push_str("2\n");
            out.push_str(&format!("b{prop_index}\n"));
            out.push_str(".\n");
        }
    }
    out
}

/// Replays a trace through the *original AIG* (not the raised netlist the
/// engine solved) and checks that the property's bad literal holds at the
/// final frame — the second half of the witness soundness gate.
fn replay_on_aig(aig: &Aig, prop_index: usize, trace: &Trace) -> Result<(), String> {
    let props = if aig.bads().is_empty() {
        aig.outputs()
    } else {
        aig.bads()
    };
    let (_, bad_lit) = &props[prop_index];
    if trace.initial_state().len() != aig.latches().len() {
        return Err("trace initial state does not match the AIG's latch count".into());
    }
    let mut state = trace.initial_state().to_vec();
    for (frame, inputs) in trace.inputs().iter().enumerate() {
        if inputs.len() != aig.inputs().len() {
            return Err(format!(
                "frame {frame} inputs do not match the AIG's input count"
            ));
        }
        let values = aig.eval_frame(&state, inputs);
        let bad = bad_lit.apply(values[bad_lit.node()]);
        if frame == trace.depth() {
            return if bad {
                Ok(())
            } else {
                Err(format!("bad literal is false at final frame {frame}"))
            };
        }
        if frame + 1 < trace.inputs().len() {
            state = aig
                .latches()
                .iter()
                .map(|&l| {
                    let nx = aig.next_of(l).expect("latch connected");
                    nx.apply(values[nx.node()])
                })
                .collect();
        }
    }
    Err("trace has no frames".into())
}

/// Per-property per-depth verdict sequences of a run — the cross-check
/// currency of `--selfcheck` (verdicts are semantic, so every regime and
/// every dispatch mode must produce the same sequences).
fn verdict_sequences(run: &BmcRun) -> Vec<Vec<SolveResult>> {
    run.properties
        .iter()
        .map(|p| p.depth_results.clone())
        .collect()
}

/// The pure comparison at the heart of `--selfcheck`: every property whose
/// per-depth verdict sequence differs between the main run and a
/// cross-check run yields one diagnostic naming the property and the
/// cross-check mode. Returns **all** offenders, not just the first, so a
/// failing selfcheck reports the complete mismatch set before exiting.
fn verdict_mismatches(
    stem: &str,
    names: &[&str],
    main: &[Vec<SolveResult>],
    other: &[Vec<SolveResult>],
    mode_label: &str,
) -> Vec<String> {
    names
        .iter()
        .enumerate()
        .filter_map(|(idx, name)| {
            let a = main.get(idx);
            let b = other.get(idx);
            if a != b {
                Some(format!(
                    "{stem}::{name}: {mode_label} verdicts {:?} != main run verdicts {:?}",
                    b.map_or(&[][..], Vec::as_slice),
                    a.map_or(&[][..], Vec::as_slice),
                ))
            } else {
                None
            }
        })
        .collect()
}

/// The prover differential (`--selfcheck` under `--engine ic3`): a BMC
/// oracle run must agree with the prover's per-frontier verdict sequence on
/// their shared prefix, a falsification must land at the exact same depth,
/// and a proof must stay counterexample-free for BMC's whole bound.
fn prover_cross_check(
    stem: &str,
    problem: &VerificationProblem,
    run: &BmcRun,
    options: &BmcOptions,
) -> Vec<String> {
    let label = EngineKind::Ic3.label();
    let mut engine = BmcEngine::for_problem(problem.clone(), *options);
    let oracle = engine.run_collecting();
    let mut mismatches = Vec::new();
    for (p, o) in run.properties.iter().zip(&oracle.properties) {
        let shared = p.depth_results.len().min(o.depth_results.len());
        if p.depth_results[..shared] != o.depth_results[..shared] {
            mismatches.push(format!(
                "{stem}::{}: {label} frontier verdicts {:?} != bmc oracle verdicts {:?}",
                p.name,
                &p.depth_results[..shared],
                &o.depth_results[..shared]
            ));
        }
        match (&p.verdict, &o.verdict) {
            (
                PropertyVerdict::Falsified { depth: a, .. },
                PropertyVerdict::Falsified { depth: b, .. },
            ) if a != b => {
                mismatches.push(format!(
                    "{stem}::{}: {label} counterexample depth {a} != bmc oracle depth {b}",
                    p.name
                ));
            }
            (PropertyVerdict::Falsified { .. }, PropertyVerdict::Falsified { .. }) => {}
            (PropertyVerdict::Falsified { depth, .. }, other) => {
                mismatches.push(format!(
                    "{stem}::{}: {label} finds a depth-{depth} counterexample \
                     but the bmc oracle reports: {other}",
                    p.name
                ));
            }
            (PropertyVerdict::Proved { .. }, PropertyVerdict::Falsified { depth, .. }) => {
                mismatches.push(format!(
                    "{stem}::{}: {label} claims a proof but the bmc oracle finds a \
                     counterexample at depth {depth}",
                    p.name
                ));
            }
            _ => {}
        }
    }
    mismatches.extend(proof_mismatch(stem, &oracle, "bmc oracle"));
    mismatches
}

/// One diagnostic when a differential cross-run's own proof check rejected
/// a certificate (the cross-runs inherit the main run's `--proof` mode, so
/// every configuration is certified, not just the one the sweep reports).
fn proof_mismatch(stem: &str, run: &BmcRun, mode_label: &str) -> Option<String> {
    let proof = run.proof.as_ref().filter(|p| p.rejected())?;
    Some(format!(
        "{stem}: {mode_label} proof check rejected {} certificate{}: {}",
        proof.rejections,
        if proof.rejections == 1 { "" } else { "s" },
        proof
            .first_rejection
            .as_deref()
            .unwrap_or("(no description)"),
    ))
}

/// Re-runs the whole problem under an alternative configuration and returns
/// one diagnostic per property whose per-depth verdict sequence differs
/// from the main run's.
fn cross_check(
    stem: &str,
    problem: &VerificationProblem,
    run: &BmcRun,
    options: &BmcOptions,
    mode_label: &str,
) -> Vec<String> {
    let mut engine = BmcEngine::for_problem(problem.clone(), *options);
    let other = engine.run_collecting();
    let names: Vec<&str> = (0..problem.num_properties())
        .map(|idx| problem.property(idx).name())
        .collect();
    let mut mismatches = verdict_mismatches(
        stem,
        &names,
        &verdict_sequences(run),
        &verdict_sequences(&other),
        mode_label,
    );
    mismatches.extend(proof_mismatch(stem, &other, mode_label));
    mismatches
}

/// An engine's preprocessing view, owned (`None` with preprocessing off).
fn preprocess_view(
    report: Option<&PreprocessReport>,
    lift: Option<&TraceLift>,
) -> Option<(PreprocessReport, TraceLift)> {
    Some((report?.clone(), lift?.clone()))
}

/// A checked file's buffered stdout block, its report cases, and whether
/// the check succeeded — output and cases survive a failure, so the
/// diagnostics printed for a failing file are no poorer than an eager
/// sequential sweep's.
type FileOutcome = (String, Vec<BenchCase>, Result<FileDisposition, String>);

/// The per-file check: one run over all properties, witness gates, optional
/// differential cross-checks, report cases. Output is written to `out` so a
/// file-striped sweep can print per-file blocks in deterministic file order;
/// whatever was produced before an error is kept by the caller.
#[allow(clippy::too_many_arguments)]
fn check_file(
    path: &Path,
    options: &BmcOptions,
    engine_kind: EngineKind,
    selfcheck: bool,
    witness_dir: Option<&Path>,
    reuse_label: &str,
    strategy_label: &str,
    quiet_witnesses: bool,
    lint_mode: LintMode,
    out: &mut String,
    cases: &mut Vec<BenchCase>,
) -> Result<FileDisposition, String> {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("benchmark")
        .to_string();
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // The lint pass runs on the raw bytes regardless of mode — its
    // structural facts also guard the skip path below — but only `warn` and
    // `deny` report it. Verdicts and traces never depend on the mode.
    let lint = lint_aiger(&bytes);
    let mut lint_lines = String::new();
    if lint_mode != LintMode::Off {
        for diagnostic in lint.diagnostics() {
            let _ = writeln!(lint_lines, "  lint: {diagnostic}");
        }
    }
    if lint_mode == LintMode::Deny && lint.num_errors() > 0 {
        let _ = writeln!(out, "{stem}: lint errors:");
        let _ = write!(out, "{lint_lines}");
        return Err(format!(
            "{}: lint denied: {} error{} (rerun with --lint warn to triage)",
            path.display(),
            lint.num_errors(),
            if lint.num_errors() == 1 { "" } else { "s" },
        ));
    }
    // Input defects stop this file, not the sweep: unparseable bytes and
    // unsupported sections become a skipped entry with a diagnostic.
    let aig = match parse_aiger(&bytes) {
        Ok(aig) => aig,
        Err(e) => {
            let reason = format!("unparseable: {e}");
            return Ok(skip_file(&stem, reason, &lint, &lint_lines, out, cases));
        }
    };
    // One decode serves both the problem construction and the witness
    // replay gate (VerificationProblem::from_aiger would re-parse).
    let builder = ProblemBuilder::from_aig(&stem, &aig);
    if builder.num_properties() == 0 {
        return Ok(skip_file(
            &stem,
            "aiger file declares no bad-state lines and no outputs".into(),
            &lint,
            &lint_lines,
            out,
            cases,
        ));
    }
    if lint.codes().contains(&LintCode::DuplicateProperty) {
        // `ProblemBuilder::build` rejects duplicate names outright; surface
        // the lint diagnostic instead of dying inside the builder.
        return Ok(skip_file(
            &stem,
            "duplicate property names (lint L005)".into(),
            &lint,
            &lint_lines,
            out,
            cases,
        ));
    }
    let problem = builder.build();
    let wall = Instant::now();
    // Besides the run, the engine hands back its preprocessing view of the
    // file (shape report for the log line and BENCH extras, don't-care
    // masks for witness `x` positions) and, for IC3, its working model —
    // the coordinate system its invariant clauses live in, kept around for
    // the invariant machine-check gate below.
    let (run, pp, working): (BmcRun, Option<(PreprocessReport, TraceLift)>, Option<Model>) =
        match engine_kind {
            EngineKind::Bmc => {
                let mut engine = BmcEngine::for_problem(problem.clone(), *options);
                let run = engine.run_collecting();
                (
                    run,
                    preprocess_view(engine.preprocess_report(), engine.trace_lift()),
                    None,
                )
            }
            EngineKind::Ic3 => {
                let mut engine = Ic3Engine::for_problem(problem.clone(), *options);
                let run = engine.run_collecting();
                let pp = preprocess_view(engine.preprocess_report(), engine.trace_lift());
                (run, pp, Some(engine.working_model().clone()))
            }
        };
    let wall = wall.elapsed();

    let _ = writeln!(
        out,
        "{}: {} propert{} to depth {} ({} vars, {} ands)",
        stem,
        problem.num_properties(),
        if problem.num_properties() == 1 {
            "y"
        } else {
            "ies"
        },
        options.max_depth,
        problem.netlist().num_nodes(),
        aig.num_ands(),
    );
    let _ = write!(out, "{lint_lines}");
    // The netlist-vs-cone shape line: how much of the file the union of the
    // property cones actually uses, and what the engine encoded after
    // sweeping/hashing when preprocessing is on.
    let cone_registers = registers_in_cone(
        problem.netlist(),
        &problem
            .properties()
            .iter()
            .map(rbmc_core::Property::bad)
            .collect::<Vec<_>>(),
    );
    if let Some((report, _)) = &pp {
        let _ = writeln!(
            out,
            "  cone: {cone_registers}/{} registers; encoded {} registers / {} gates \
             ({} swept, {} dropped, {} inputs dropped, {} gates hashed)",
            problem.netlist().num_latches(),
            report.after.latches,
            report.after.gates,
            report.swept_latches,
            report.dropped_latches,
            report.dropped_inputs,
            report.hashed_gates,
        );
    } else {
        let _ = writeln!(
            out,
            "  cone: {cone_registers}/{} registers (preprocessing off)",
            problem.netlist().num_latches(),
        );
    }
    // The UNSAT certification gate, symmetric to the witness and invariant
    // gates below: under `--proof check` every UNSAT episode of the run was
    // re-derived by the independent checker as it closed; any rejection
    // fails the file (and with it the sweep).
    if let Some(proof) = &run.proof {
        if options.proof.checks() {
            let _ = writeln!(
                out,
                "  proof: {} UNSAT episode{} certified, {} steps logged ({:.1} ms check)",
                proof.episodes_certified,
                if proof.episodes_certified == 1 {
                    ""
                } else {
                    "s"
                },
                proof.steps_logged,
                proof.check_time.as_secs_f64() * 1e3,
            );
        } else {
            let _ = writeln!(out, "  proof: {} steps logged", proof.steps_logged);
        }
        if proof.rejected() {
            return Err(format!(
                "{}: proof check rejected {} certificate{}: {}",
                path.display(),
                proof.rejections,
                if proof.rejections == 1 { "" } else { "s" },
                proof
                    .first_rejection
                    .as_deref()
                    .unwrap_or("(no description)"),
            ));
        }
    }
    for (idx, prop_report) in run.properties.iter().enumerate() {
        let (status, detail) = match &prop_report.verdict {
            PropertyVerdict::Falsified { depth, .. } => {
                ("1", format!("counterexample at depth {depth}"))
            }
            PropertyVerdict::Proved {
                depth,
                invariant_clauses,
            } => {
                let clauses = invariant_clauses.as_ref().map_or(0, Vec::len);
                (
                    "0",
                    format!(
                        "proved at depth {depth}, {clauses} invariant clause{}",
                        if clauses == 1 { "" } else { "s" }
                    ),
                )
            }
            PropertyVerdict::OpenAt { depth } => ("2", format!("open at depth {depth}")),
            PropertyVerdict::Unknown => ("2", "unknown (budget exhausted)".to_string()),
        };
        let _ = writeln!(
            out,
            "  b{idx} {}: {} ({})",
            prop_report.name, status, detail
        );

        // Witness soundness gate: netlist replay and AIG replay must both
        // accept every counterexample before it is emitted.
        let trace = match &prop_report.verdict {
            PropertyVerdict::Falsified { trace, .. } => {
                trace
                    .validate_against(problem.netlist(), problem.property(idx).bad())
                    .map_err(|e| {
                        format!(
                            "{stem}::{}: witness fails netlist replay: {e}",
                            prop_report.name
                        )
                    })?;
                replay_on_aig(&aig, idx, trace).map_err(|e| {
                    format!(
                        "{stem}::{}: witness fails AIG replay: {e}",
                        prop_report.name
                    )
                })?;
                Some(trace)
            }
            _ => None,
        };
        // Proof soundness gate, symmetric to the witness gate: an IC3
        // invariant must pass the independent inductive check (init ⊆ inv,
        // inv ∧ T ⇒ inv', inv ⇒ ¬bad) against the engine's working model
        // before the proved status is emitted. A proof without an invariant
        // fails the gate.
        if let PropertyVerdict::Proved {
            invariant_clauses, ..
        } = &prop_report.verdict
        {
            let (Some(working), Some(clauses)) = (working.as_ref(), invariant_clauses) else {
                return Err(format!(
                    "{stem}::{}: proved verdict without an invariant to check",
                    prop_report.name
                ));
            };
            let bad = working.problem().property(idx).bad();
            check_invariant(working, bad, clauses).map_err(|e| {
                format!(
                    "{stem}::{}: invariant fails the inductive check: {e}",
                    prop_report.name
                )
            })?;
        }
        let dontcare = pp
            .as_ref()
            .filter(|(_, lift)| !lift.is_identity())
            .map(|(_, lift)| (lift.dontcare_latches(), lift.dontcare_inputs()));
        let text = witness_text(idx, &prop_report.verdict, trace, dontcare);
        if let Some(dir) = witness_dir {
            let wpath = dir.join(format!("{stem}.b{idx}.wit"));
            std::fs::write(&wpath, &text).map_err(|e| format!("{}: {e}", wpath.display()))?;
        } else if !quiet_witnesses {
            let _ = write!(out, "{text}");
        }

        let (completed_depth, verdict_ok) = match &prop_report.verdict {
            PropertyVerdict::Falsified { depth, .. } => (*depth, true),
            PropertyVerdict::Proved { depth, .. } => (*depth, true),
            PropertyVerdict::OpenAt { depth } => (*depth, true),
            PropertyVerdict::Unknown => (0, false),
        };
        let mut extra = vec![
            (
                "proved".into(),
                matches!(prop_report.verdict, PropertyVerdict::Proved { .. }) as u8 as f64,
            ),
            (
                "invariant_clauses".into(),
                match &prop_report.verdict {
                    PropertyVerdict::Proved {
                        invariant_clauses: Some(clauses),
                        ..
                    } => clauses.len() as f64,
                    _ => -1.0,
                },
            ),
            ("properties".into(), run.properties.len() as f64),
            ("file_wall_s".into(), wall.as_secs_f64()),
            ("episodes".into(), prop_report.episodes as f64),
            (
                "assumption_conflicts".into(),
                prop_report.assumption_conflicts as f64,
            ),
            (
                "retirement_depth".into(),
                prop_report.retirement_depth.map_or(-1.0, |d| d as f64),
            ),
            ("solve_calls".into(), run.solver_stats.solve_calls as f64),
            (
                "learned_retained".into(),
                run.solver_stats.learned_retained as f64,
            ),
            // Netlist-vs-cone sizes: this property's own cone against the
            // file's register total, plus the space high-water marks of the
            // run (shared by all of the file's properties).
            (
                "registers_in_cone".into(),
                registers_in_cone(problem.netlist(), &[problem.property(idx).bad()]) as f64,
            ),
            (
                "registers_netlist".into(),
                problem.netlist().num_latches() as f64,
            ),
            (
                "arena_peak_bytes".into(),
                run.solver_stats.arena_peak_bytes as f64,
            ),
            (
                "prefix_peak_clauses".into(),
                run.solver_stats.prefix_peak_clauses as f64,
            ),
            (
                "rank_peak_entries".into(),
                run.solver_stats.rank_peak_entries as f64,
            ),
            // Lint counts of the containing file (shared by its properties).
            ("lint_warnings".into(), lint.num_warnings() as f64),
            ("lint_errors".into(), lint.num_errors() as f64),
        ];
        if let Some((report, _)) = &pp {
            extra.push(("registers_encoded".into(), report.after.latches as f64));
            extra.push(("gates_encoded".into(), report.after.gates as f64));
            extra.push(("swept_latches".into(), report.swept_latches as f64));
            extra.push(("dropped_latches".into(), report.dropped_latches as f64));
        }
        if let Some(proof) = &run.proof {
            // Certificate sizes and check cost (shared by the file's
            // properties, like the lint counts above).
            extra.push(("proof_steps".into(), proof.steps_logged as f64));
            extra.push(("proof_certified".into(), proof.episodes_certified as f64));
            extra.push(("proof_rejections".into(), proof.rejections as f64));
            extra.push((
                "proof_check_ms".into(),
                proof.check_time.as_secs_f64() * 1e3,
            ));
        }
        cases.push(BenchCase {
            name: format!("{stem}::{}", prop_report.name),
            strategy: match engine_kind {
                EngineKind::Bmc => format!("{strategy_label}/{reuse_label}"),
                _ => format!("{}/{strategy_label}", engine_kind.label()),
            },
            // The session run is shared by all of the file's properties, so
            // the per-case wall time is the file's share — summing the cases
            // of a file (or the whole artifact) yields real wall time. The
            // undivided figure rides along as `file_wall_s`.
            wall_s: wall.as_secs_f64() / run.properties.len() as f64,
            conflicts: prop_report.conflicts,
            decisions: prop_report.decisions,
            propagations: prop_report.propagations,
            completed_depth,
            verdict_ok,
            extra,
        });
    }

    if selfcheck && engine_kind == EngineKind::Ic3 {
        // A run carrying prover verdicts: the differential is against a BMC
        // oracle on the shared frontier prefix instead of the BMC-shaped
        // regime cross-checks below.
        let mismatches = prover_cross_check(&stem, &problem, &run, options);
        if !mismatches.is_empty() {
            return Err(format!(
                "selfcheck found {} mismatch{}:\n  {}",
                mismatches.len(),
                if mismatches.len() == 1 { "" } else { "es" },
                mismatches.join("\n  ")
            ));
        }
        let _ = writeln!(
            out,
            "  selfcheck: ic3 verdicts match the bmc oracle on the shared \
             frontier prefix (falsification depths exact, proofs counterexample-free)"
        );
    } else if selfcheck {
        // The differential harness: the opposite solver-reuse regime and
        // the opposite preprocessing regime must both reproduce the main
        // run's per-depth verdicts property for property. All mismatches
        // across all modes are collected before failing, so one bad file
        // reports its complete offender set.
        let other_reuse = match options.reuse {
            SolverReuse::Session => SolverReuse::Fresh,
            SolverReuse::Fresh => SolverReuse::Session,
        };
        let mut mismatches = cross_check(
            &stem,
            &problem,
            &run,
            &BmcOptions {
                reuse: other_reuse,
                ..*options
            },
            other_reuse.label(),
        );
        // The preprocessing differential: the opposite regime (raw netlist
        // vs structurally reduced) must reproduce the per-depth verdicts
        // exactly — the reduction is behavior-preserving for every
        // property's bad signal, so a divergence is an engine bug.
        mismatches.extend(cross_check(
            &stem,
            &problem,
            &run,
            &BmcOptions {
                preprocess: !options.preprocess,
                ..*options
            },
            if options.preprocess {
                "preprocessing off"
            } else {
                "preprocessing on"
            },
        ));
        // The per-property differential gate: each property re-checked
        // alone, with a fresh solver per depth; per-depth verdicts must be
        // identical.
        for (idx, prop_report) in run.properties.iter().enumerate() {
            let single = ProblemBuilder::new(&stem, problem.netlist().clone())
                .property(&prop_report.name, problem.property(idx).bad())
                .build();
            let mut fresh_engine = BmcEngine::for_problem(
                single,
                BmcOptions {
                    reuse: SolverReuse::Fresh,
                    ..*options
                },
            );
            let fresh_run = fresh_engine.run_collecting();
            let fresh_verdicts: Vec<SolveResult> =
                fresh_run.per_depth.iter().map(|d| d.result).collect();
            if prop_report.depth_results != fresh_verdicts {
                mismatches.push(format!(
                    "{stem}::{}: session verdicts {:?} != fresh verdicts {:?}",
                    prop_report.name, prop_report.depth_results, fresh_verdicts
                ));
            }
            mismatches.extend(proof_mismatch(
                &stem,
                &fresh_run,
                &format!("fresh single-property ({})", prop_report.name),
            ));
        }
        if !mismatches.is_empty() {
            return Err(format!(
                "selfcheck found {} mismatch{}:\n  {}",
                mismatches.len(),
                if mismatches.len() == 1 { "" } else { "es" },
                mismatches.join("\n  ")
            ));
        }
        let _ = writeln!(
            out,
            "  selfcheck: verdicts match across fresh/session runs \
             and both preprocessing regimes"
        );
    }
    Ok(FileDisposition::Checked)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let positional = match scan_args(&args[1..]) {
        Ok(positional) => positional,
        Err(flag) => {
            eprintln!("error: unknown flag `{flag}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--small");
    let selfcheck = args.iter().any(|a| a == "--selfcheck");
    let quiet_witnesses = args.iter().any(|a| a == "--quiet-witnesses");
    let depth: usize = flag_value(&args, "--depth")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 10 } else { 20 });
    let divisor: u32 = flag_value(&args, "--divisor")
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let strategy = parse_strategy(&args, divisor);
    let reuse = rbmc_bench::cli_reuse(&args, SolverReuse::Session);
    let jobs: usize = flag_value(&args, "--jobs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);
    let no_preprocess = args.iter().any(|a| a == "--no-preprocess");
    let lint_mode = parse_lint_mode(&args);
    let lint_json = flag_value(&args, "--lint-json").map(PathBuf::from);
    let proof_mode = parse_proof_mode(&args);
    let engine_kind = match flag_value(&args, "--engine") {
        None | Some("bmc") => EngineKind::Bmc,
        Some("ic3") => EngineKind::Ic3,
        Some(other) => {
            eprintln!("error: --engine requires bmc|ic3, got `{other}`");
            return ExitCode::from(2);
        }
    };
    let witness_dir = flag_value(&args, "--witness-dir").map(PathBuf::from);
    if let Some(dir) = &witness_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create witness dir {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }

    let export_dir = match args.iter().position(|a| a == "--export-corpus") {
        Some(i) => match args.get(i + 1) {
            Some(dir) if !dir.starts_with("--") => Some(PathBuf::from(dir)),
            _ => {
                eprintln!("error: --export-corpus requires a directory argument");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    if let Some(dir) = &export_dir {
        let mut suite = if smoke {
            rbmc_gens::small_suite()
        } else {
            rbmc_gens::suite_table1()
        };
        // The proving-engine specimens ride along in both flavors: they are
        // small, they all hold, and they are the instances `--engine ic3`
        // exists to close.
        suite.extend(rbmc_gens::proof_suite());
        match rbmc_gens::corpus::export_corpus(dir, &suite) {
            Ok(written) => eprintln!(
                "exported {} corpus files to {}",
                written.len(),
                dir.display()
            ),
            Err(e) => {
                eprintln!("error: corpus export failed: {e}");
                return ExitCode::from(1);
            }
        }
    }

    // The corpus directory: first positional (non-flag) argument, falling
    // back to a directory just exported.
    let Some(corpus_dir) = positional.or(export_dir) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let mut files: Vec<PathBuf> = match std::fs::read_dir(&corpus_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("aag") | Some("aig")
                )
            })
            .collect(),
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", corpus_dir.display());
            return ExitCode::from(1);
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!(
            "error: no .aag/.aig benchmarks in {} (try --export-corpus)",
            corpus_dir.display()
        );
        return ExitCode::from(1);
    }

    // `--lint-json`: the machine-readable lint artifact, written before the
    // sweep (the lint pass is a cheap static analysis over raw bytes, and
    // the artifact should exist even when the sweep itself fails).
    if let Some(path) = &lint_json {
        let entries: Vec<(String, LintReport)> = files
            .iter()
            .map(|p| {
                let name = p
                    .file_name()
                    .and_then(|s| s.to_str())
                    .unwrap_or("benchmark")
                    .to_string();
                let report = match std::fs::read(p) {
                    Ok(bytes) => lint_aiger(&bytes),
                    Err(_) => LintReport::default(),
                };
                (name, report)
            })
            .collect();
        if let Err(e) = std::fs::write(path, rbmc_bench::report::lint_json(&entries)) {
            eprintln!("error: cannot write lint artifact {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {}", path.display());
    }

    let options = BmcOptions {
        max_depth: depth,
        strategy,
        reuse,
        preprocess: !no_preprocess,
        proof: proof_mode,
        ..BmcOptions::default()
    };
    let mut report = BenchReport::new(format!(
        "rbmc corpus ({}, depth={depth}, engine={}, strategy={}, reuse={}, jobs={jobs}{})",
        corpus_dir.display(),
        engine_kind.label(),
        strategy.label(),
        reuse.label(),
        if selfcheck { ", selfcheck" } else { "" }
    ));
    let start = Instant::now();
    let mut failures = 0usize;
    // Files are claimed off a shared queue, and each file's output block is
    // buffered so stdout comes out in file order no matter who solved what.
    let outcomes: Vec<FileOutcome> = rbmc_bench::striped_map(files.len(), jobs, |i| {
        let mut out = String::new();
        let mut cases = Vec::new();
        let result = check_file(
            &files[i],
            &options,
            engine_kind,
            selfcheck,
            witness_dir.as_deref(),
            reuse.label(),
            strategy.label(),
            quiet_witnesses,
            lint_mode,
            &mut out,
            &mut cases,
        );
        (out, cases, result)
    });
    let mut skipped = 0usize;
    for (out, cases, result) in outcomes {
        print!("{out}");
        for case in cases {
            report.push(case);
        }
        match result {
            Ok(FileDisposition::Checked) => {}
            Ok(FileDisposition::Skipped(reason)) => {
                eprintln!("SKIP {reason}");
                skipped += 1;
            }
            Err(e) => {
                eprintln!("FAIL {e}");
                failures += 1;
            }
        }
    }
    let falsified = report
        .cases
        .iter()
        .filter(|c| {
            c.extra
                .iter()
                .any(|(k, v)| k == "retirement_depth" && *v >= 0.0)
        })
        .count();
    let proved = report
        .cases
        .iter()
        .filter(|c| c.extra.iter().any(|(k, v)| k == "proved" && *v > 0.0))
        .count();
    // Lint totals, one contribution per file (every property of a file
    // carries the same counts; skipped files contribute via their one case).
    let (mut lint_warnings, mut lint_errors) = (0u64, 0u64);
    let mut seen_stems = std::collections::HashSet::new();
    for case in &report.cases {
        let stem = case.name.split("::").next().unwrap_or(&case.name);
        if seen_stems.insert(stem.to_string()) {
            for (k, v) in &case.extra {
                match k.as_str() {
                    "lint_warnings" => lint_warnings += *v as u64,
                    "lint_errors" => lint_errors += *v as u64,
                    _ => {}
                }
            }
        }
    }
    let properties = report.cases.len() - skipped;
    println!(
        "\nchecked {} files / {} properties in {:.3}s: {} falsified (witnesses validated), \
         {} proved (invariants checked), {} open, {} skipped, {} failures; \
         lint: {} warning{}, {} error{}",
        files.len() - skipped,
        properties,
        start.elapsed().as_secs_f64(),
        falsified,
        proved,
        properties - falsified - proved,
        skipped,
        failures,
        lint_warnings,
        if lint_warnings == 1 { "" } else { "s" },
        lint_errors,
        if lint_errors == 1 { "" } else { "s" },
    );
    rbmc_bench::report::emit(&args, "corpus", &report);
    if failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::{verdict_mismatches, witness_text};
    use rbmc_core::SolveResult::{Sat, Unsat};
    use rbmc_core::{PropertyVerdict, Trace};

    #[test]
    fn witness_text_prints_x_at_dontcare_positions_only() {
        let trace = Trace::from_parts(vec![false, true], vec![vec![true], vec![false]]);
        let verdict = PropertyVerdict::Falsified {
            depth: 1,
            trace: trace.clone(),
        };
        let masked = witness_text(0, &verdict, Some(&trace), Some((&[false, true], &[true])));
        assert_eq!(masked, "1\nb0\n0x\nx\nx\n.\n");
        let plain = witness_text(0, &verdict, Some(&trace), None);
        assert_eq!(plain, "1\nb0\n01\n1\n0\n.\n");
    }

    #[test]
    fn proved_properties_print_hwmcc_status_zero() {
        let verdict = PropertyVerdict::Proved {
            depth: 3,
            invariant_clauses: Some(vec![vec![(0, false)]]),
        };
        assert_eq!(witness_text(2, &verdict, None, None), "0\nb2\n.\n");
    }

    #[test]
    fn verdict_mismatches_reports_every_offender_not_just_the_first() {
        let main = vec![vec![Unsat, Sat], vec![Unsat, Unsat], vec![Unsat]];
        let other = vec![vec![Unsat, Unsat], vec![Unsat, Unsat], vec![Sat]];
        let found = verdict_mismatches("file", &["p0", "p1", "p2"], &main, &other, "fresh");
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].contains("file::p0") && found[0].contains("fresh"));
        assert!(found[1].contains("file::p2"));
    }

    #[test]
    fn verdict_mismatches_is_empty_on_agreement() {
        let seqs = vec![vec![Unsat, Sat]];
        assert!(verdict_mismatches("file", &["p0"], &seqs, &seqs, "mode").is_empty());
    }

    #[test]
    fn verdict_mismatches_flags_missing_properties() {
        let main = vec![vec![Unsat], vec![Unsat]];
        let other = vec![vec![Unsat]];
        let found = verdict_mismatches("file", &["p0", "p1"], &main, &other, "mode");
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("file::p1"));
    }
}
