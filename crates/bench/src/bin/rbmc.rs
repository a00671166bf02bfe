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
//!      [--lint warn|deny] [--lint-json PATH]
//!      [--proof off|log|check] [--selfcheck] [--smoke]
//!      [--witness-dir DIR] [--quiet-witnesses] [--json-out PATH | --no-json]
//! ```
//!
//! The arguments are parsed once, into a [`Config`], before anything is
//! exported or swept. Any other `--flag` is rejected with the usage line and
//! exit code 2, so a misspelt gate (say `--proff check`) cannot silently
//! sweep without it. A malformed or missing value exits 2 as well — a bad
//! number after `--depth`, `--divisor` or `--jobs`, say, instead of
//! sweeping at the default. So does an option the run would ignore, in any
//! flag order: `--reuse` or `--strategy sht` with `--engine ic3` (IC3 always
//! queries one session solver, and a one-step query has no time axis to
//! order by), and `--divisor` with any strategy but `dyn`.
//!
//! - `--export-corpus DIR` first writes the gens suite as a fallback corpus
//!   (`rbmc_gens::corpus`) into DIR; when no positional corpus directory is
//!   given, the exported directory is then swept.
//! - `--jobs N` stripes benchmark files across `min(N, files)` workers
//!   ([`rbmc_bench::striped_map`]); each file's engine runs its one
//!   sequential loop. Verdicts and witnesses are independent of `N`, and
//!   the per-file output is buffered and printed in file order, so the
//!   whole report is byte-stable apart from the timed summary line. A file
//!   whose check panics, at any `N`, becomes a `FAIL` line naming the file
//!   and the panic message; the other files are still checked and
//!   reported, and the run exits 1.
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
//! - `--lint {warn,deny}` (default `warn`) runs the static linter
//!   ([`rbmc_circuit::lint`]) over every file's raw AIGER bytes before
//!   solving. `warn` prints diagnostics per file and counts them in the
//!   report extras (`lint_warnings`/`lint_errors`) and the summary line;
//!   `deny` additionally fails any file with an error-severity diagnostic
//!   (the fail-closed CI shape). Verdicts and witnesses are byte-identical
//!   across both modes. Independently of the mode, a file the pipeline
//!   cannot check at all — unparseable bytes, unsupported `C`/`J`/`F`
//!   sections, no properties, duplicate property names — is recorded as a
//!   *skipped* entry (strategy `skipped` in `BENCH_corpus.json`, with its
//!   diagnostic) and the sweep continues with a clean exit code.
//! - `--lint-json PATH` additionally writes the full lint findings of every
//!   swept file as a machine-readable artifact (`rbmc-lint/v1`: per-file
//!   diagnostics with code, severity, location, message, hint, plus
//!   warning/error totals) — the shape CI annotators and dashboards consume
//!   instead of scraping stdout. Independent of `--lint` mode. It is written
//!   after the sweep, from the findings of each file's own lint pass, so no
//!   file is read or parsed twice (a file whose check panicked is linted
//!   again).
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
//! - `--smoke` shrinks the export to the small suite and the default depth
//!   bound to 10 (CI mode).
//! - `--witness-dir DIR` writes each property's status/witness block to
//!   `DIR/{file name}.b{index}.wit` instead of stdout; the file name keeps
//!   its extension, so `x.aag` and `x.aig` never share a witness file.
//!   `--quiet-witnesses` leaves the blocks out of stdout without writing
//!   them anywhere (the gates still run). With both, the directory wins.
//!
//! The run is recorded as a machine-readable `BENCH_corpus.json` artifact
//! (`--json-out PATH` elsewhere, `--no-json` not at all) with one case per
//! (file, property), carrying the per-property session counters (episodes,
//! assumption conflicts, retirement depth). An artifact the run was asked
//! for (this one or `--lint-json`) that cannot be written exits 2 after the
//! sweep, whatever the sweep found.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rbmc_bench::{choice, number, path, BenchCase, BenchReport};
use rbmc_circuit::aiger::parse_aiger;
use rbmc_circuit::coi::registers_in_cone;
use rbmc_circuit::lint::{lint_aig, lint_aiger, lint_aiger_bytes, LintCode, LintReport};
use rbmc_circuit::Aig;
use rbmc_core::{
    check_invariant, BmcEngine, BmcOptions, BmcRun, Ic3Engine, OrderingStrategy, ProblemBuilder,
    ProofMode, PropertyVerdict, SolveResult, SolverReuse, Trace, VerificationProblem,
};

const USAGE: &str = "usage: rbmc [DIR] [--export-corpus DIR] [--depth N] [--engine bmc|ic3] \
     [--reuse fresh|session] [--strategy bmc|sta|dyn|sht] [--divisor N] \
     [--jobs N] [--no-preprocess] [--lint warn|deny] [--lint-json PATH] \
     [--proof off|log|check] [--selfcheck] [--smoke] [--witness-dir DIR] \
     [--quiet-witnesses] [--json-out PATH | --no-json]";

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
    /// Diagnostics are printed per file and counted in the report extras;
    /// nothing fails. The default.
    Warn,
    /// Like `warn`, but any error-severity diagnostic fails the file — the
    /// fail-closed CI shape. Warnings stay non-fatal.
    Deny,
}

/// Where each property's status/witness block goes.
#[derive(Debug, PartialEq, Eq)]
enum WitnessOutput {
    /// Into the per-file stdout block. The default.
    Print,
    /// Nowhere (`--quiet-witnesses`); the soundness gates still run.
    Quiet,
    /// One file per property in this directory (`--witness-dir`).
    Dir(PathBuf),
}

/// Everything one `rbmc` run was asked to do, parsed once from its
/// arguments. The engine options carry depth, strategy, reuse regime,
/// preprocessing and proof mode; the rest says what to sweep, how many
/// workers to use, and where the results go.
#[derive(Debug)]
struct Config {
    /// The directory swept: the positional argument, else the export
    /// directory.
    corpus: PathBuf,
    /// Where `--export-corpus` writes the gens suite before the sweep.
    export: Option<PathBuf>,
    /// `--smoke`: export the small suite (and default to depth 10).
    smoke: bool,
    engine: EngineKind,
    options: BmcOptions,
    jobs: usize,
    selfcheck: bool,
    lint: LintMode,
    lint_json: Option<PathBuf>,
    witnesses: WitnessOutput,
    /// Where the `BENCH_corpus.json` report goes; `None` under `--no-json`.
    json_out: Option<PathBuf>,
}

impl Config {
    /// Parses the arguments after the program name. An error is the whole
    /// message to print before exiting 2.
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut corpus = None;
        let mut export = None;
        let mut smoke = false;
        let mut depth = None;
        // Kept apart until every flag is read: each may name an option the
        // chosen engine or strategy would ignore.
        let (mut divisor, mut reuse) = (None, None);
        let mut options = BmcOptions {
            strategy: OrderingStrategy::RefinedDynamic { divisor: 64 },
            ..BmcOptions::default()
        };
        let mut engine = EngineKind::Bmc;
        let mut jobs = 1;
        let mut selfcheck = false;
        let mut lint = LintMode::Warn;
        let mut lint_json = None;
        let (mut witness_dir, mut quiet_witnesses) = (None, false);
        let (mut json_out, mut no_json) = (None, false);
        // A value flag takes the next argument, whatever it is.
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            match arg {
                "--smoke" => smoke = true,
                "--selfcheck" => selfcheck = true,
                "--no-preprocess" => options.preprocess = false,
                "--quiet-witnesses" => quiet_witnesses = true,
                "--no-json" => no_json = true,
                "--depth" => depth = Some(number(arg, rest.next())?),
                "--divisor" => divisor = Some(number(arg, rest.next())?),
                "--jobs" => jobs = number::<usize>(arg, rest.next())?.max(1),
                "--strategy" => {
                    options.strategy = choice(
                        arg,
                        rest.next(),
                        &[
                            ("bmc", OrderingStrategy::Standard),
                            ("sta", OrderingStrategy::RefinedStatic),
                            ("dyn", OrderingStrategy::RefinedDynamic { divisor: 64 }),
                            ("sht", OrderingStrategy::Shtrichman),
                        ],
                    )?;
                }
                "--engine" => {
                    let choices = [("bmc", EngineKind::Bmc), ("ic3", EngineKind::Ic3)];
                    engine = choice(arg, rest.next(), &choices)?;
                }
                "--reuse" => {
                    let choices = [
                        ("fresh", SolverReuse::Fresh),
                        ("session", SolverReuse::Session),
                    ];
                    reuse = Some(choice(arg, rest.next(), &choices)?);
                }
                "--lint" => {
                    let choices = [("warn", LintMode::Warn), ("deny", LintMode::Deny)];
                    lint = choice(arg, rest.next(), &choices)?;
                }
                "--proof" => {
                    let choices = [
                        ("off", ProofMode::Off),
                        ("log", ProofMode::Log),
                        ("check", ProofMode::Check),
                    ];
                    options.proof = choice(arg, rest.next(), &choices)?;
                }
                "--export-corpus" => export = Some(path(arg, rest.next(), "a directory")?),
                "--witness-dir" => witness_dir = Some(path(arg, rest.next(), "a directory")?),
                "--lint-json" => lint_json = Some(path(arg, rest.next(), "a path")?),
                "--json-out" => json_out = Some(path(arg, rest.next(), "a path")?),
                flag if flag.starts_with("--") => {
                    return Err(format!("error: unknown flag `{flag}`\n{USAGE}"));
                }
                dir => {
                    corpus.get_or_insert_with(|| PathBuf::from(dir));
                }
            }
        }
        // `--divisor` may follow `--strategy dyn`, and `--smoke` `--depth`.
        // An option the run would ignore is an error, not a silent no-op.
        if let Some(divisor) = divisor {
            let OrderingStrategy::RefinedDynamic { divisor: d } = &mut options.strategy else {
                return Err(format!(
                    "error: --divisor applies only to --strategy dyn, not `{}`",
                    options.strategy.label()
                ));
            };
            *d = divisor;
        }
        if engine == EngineKind::Ic3 {
            if reuse.is_some() {
                return Err("error: --reuse applies only to --engine bmc; \
                            IC3 always queries one session solver"
                    .to_string());
            }
            if options.strategy == OrderingStrategy::Shtrichman {
                return Err("error: --strategy sht has no --engine ic3 analog \
                            (a one-step query has no time axis)"
                    .to_string());
            }
        }
        options.reuse = reuse.unwrap_or(options.reuse);
        options.max_depth = depth.unwrap_or(if smoke { 10 } else { 20 });
        let Some(corpus) = corpus.or_else(|| export.clone()) else {
            return Err(USAGE.to_string());
        };
        Ok(Config {
            corpus,
            export,
            smoke,
            engine,
            options,
            jobs,
            selfcheck,
            lint,
            lint_json,
            witnesses: match (witness_dir, quiet_witnesses) {
                (Some(dir), _) => WitnessOutput::Dir(dir),
                (None, true) => WitnessOutput::Quiet,
                (None, false) => WitnessOutput::Print,
            },
            json_out: rbmc_bench::json_out(json_out, no_json, "corpus"),
        })
    }
}

/// What one file adds to the summary line.
#[derive(Clone, Copy, Default)]
struct Tally {
    properties: usize,
    falsified: usize,
    proved: usize,
    lint_warnings: usize,
    lint_errors: usize,
}

impl Tally {
    /// A file's lint counts, before any property is checked.
    fn lint(lint: &LintReport) -> Tally {
        Tally {
            lint_warnings: lint.num_warnings(),
            lint_errors: lint.num_errors(),
            ..Tally::default()
        }
    }

    fn add(&mut self, other: Tally) {
        self.properties += other.properties;
        self.falsified += other.falsified;
        self.proved += other.proved;
        self.lint_warnings += other.lint_warnings;
        self.lint_errors += other.lint_errors;
    }
}

/// How a swept file ended — fully checked, or set aside with a diagnostic
/// (unparseable, unsupported sections, no properties, or a structural defect
/// the engine cannot represent) — and what it adds to the summary line.
/// Skips keep the sweep going and the exit code clean; under `--lint deny`
/// the same files fail instead.
enum FileDisposition {
    /// The file was solved and all its gates passed.
    Checked(Tally),
    /// The file was recorded as skipped, with this reason; only its lint
    /// counts reach the summary.
    Skipped(String, Tally),
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
    FileDisposition::Skipped(format!("{stem}: {reason}"), Tally::lint(lint))
}

/// Renders one property's HWMCC-style result block: `1` + witness + `.` for
/// a counterexample, `0` for a proved property (unbounded engines), `2` for
/// a property the bounded sweep leaves open.
///
/// `dontcare` (latch mask, input mask) marks positions outside every
/// property's structural cone: they print as `x` in the AIGER witness
/// convention. The verdict's trace — the one the soundness gates replayed —
/// carries concrete defaults at exactly those positions (declared reset for
/// latches, `false` for inputs), so any reader resolving `x` to those
/// defaults reproduces the validated replay.
fn witness_text(
    prop_index: usize,
    verdict: &PropertyVerdict,
    dontcare: Option<(&[bool], &[bool])>,
) -> String {
    let mut out = String::new();
    match verdict {
        PropertyVerdict::Falsified { trace, .. } => {
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
    let (_, bad_lit) = &aig.properties()[prop_index];
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

/// A checked file's buffered stdout block, its report cases, its lint
/// report, and whether the check succeeded — output, cases and lint survive
/// a failure, so the diagnostics printed for a failing file are no poorer
/// than an eager sequential sweep's.
type FileOutcome = (
    String,
    Vec<BenchCase>,
    LintReport,
    Result<FileDisposition, String>,
);

/// The per-file check: one run over all properties, witness gates, optional
/// differential cross-checks, report cases. Output is written to `out` so a
/// file-striped sweep can print per-file blocks in deterministic file order,
/// and the file's lint findings to `lint` for the `--lint-json` artifact;
/// whatever was produced before an error is kept by the caller.
fn check_file(
    path: &Path,
    config: &Config,
    out: &mut String,
    cases: &mut Vec<BenchCase>,
    lint: &mut LintReport,
) -> Result<FileDisposition, String> {
    let options = &config.options;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("benchmark")
        .to_string();
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // The file is parsed once: the raw-byte lint, then the parse, then the
    // lint of the parsed AIG build exactly the report `lint_aiger` builds.
    // Lint's structural facts also guard the skip path below. Verdicts and
    // traces never depend on the lint mode.
    *lint = lint_aiger_bytes(&bytes);
    let parsed = parse_aiger(&bytes);
    if let Ok(aig) = &parsed {
        lint.merge(lint_aig(aig));
    }
    let lint = &*lint;
    let mut lint_lines = String::new();
    for diagnostic in lint.diagnostics() {
        let _ = writeln!(lint_lines, "  lint: {diagnostic}");
    }
    if config.lint == LintMode::Deny && lint.num_errors() > 0 {
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
    let aig = match parsed {
        Ok(aig) => aig,
        Err(e) => {
            let reason = format!("unparseable: {e}");
            return Ok(skip_file(&stem, reason, lint, &lint_lines, out, cases));
        }
    };
    // One decode serves both the problem construction and the witness
    // replay gate (VerificationProblem::from_aiger would re-parse).
    let builder = ProblemBuilder::from_aig(&stem, &aig);
    if builder.num_properties() == 0 {
        return Ok(skip_file(
            &stem,
            "aiger file declares no bad-state lines and no outputs".into(),
            lint,
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
            lint,
            &lint_lines,
            out,
            cases,
        ));
    }
    let problem = builder.build();
    let wall = Instant::now();
    // The engine lives until the check ends. Besides the run, it lends the
    // problem, its preprocessing view of the file (shape report for the log
    // line and BENCH extras, don't-care masks for witness `x` positions)
    // and, for IC3, its working model — the coordinate system its invariant
    // clauses live in, for the invariant machine-check gate below.
    let (mut bmc, mut ic3);
    let (run, problem, report, lift, working) = match config.engine {
        EngineKind::Bmc => {
            bmc = BmcEngine::for_problem(problem, *options);
            let run = bmc.run_collecting();
            let (report, lift) = (bmc.preprocess_report(), bmc.trace_lift());
            (run, bmc.problem(), report, lift, None)
        }
        EngineKind::Ic3 => {
            ic3 = Ic3Engine::for_problem(problem, *options);
            let run = ic3.run_collecting();
            let (report, lift) = (ic3.preprocess_report(), ic3.trace_lift());
            (run, ic3.problem(), report, lift, Some(ic3.working_model()))
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
    if let Some(report) = report {
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
        if let PropertyVerdict::Falsified { trace, .. } = &prop_report.verdict {
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
        }
        // Proof soundness gate, symmetric to the witness gate: an IC3
        // invariant must pass the independent inductive check (init ⊆ inv,
        // inv ∧ T ⇒ inv', inv ⇒ ¬bad) against the engine's working model
        // before the proved status is emitted. A proof without an invariant
        // fails the gate.
        if let PropertyVerdict::Proved {
            invariant_clauses, ..
        } = &prop_report.verdict
        {
            let (Some(working), Some(clauses)) = (working, invariant_clauses) else {
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
        let dontcare = lift
            .filter(|lift| !lift.is_identity())
            .map(|lift| (lift.dontcare_latches(), lift.dontcare_inputs()));
        let text = witness_text(idx, &prop_report.verdict, dontcare);
        match &config.witnesses {
            WitnessOutput::Print => {
                let _ = write!(out, "{text}");
            }
            WitnessOutput::Quiet => {}
            WitnessOutput::Dir(dir) => {
                // The whole file name, so `x.aag` and `x.aig` keep apart.
                let file_name = path.file_name().and_then(|s| s.to_str()).unwrap_or(&stem);
                let wpath = dir.join(format!("{file_name}.b{idx}.wit"));
                std::fs::write(&wpath, &text).map_err(|e| format!("{}: {e}", wpath.display()))?;
            }
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
                match &prop_report.verdict {
                    PropertyVerdict::Falsified { depth, .. } => *depth as f64,
                    _ => -1.0,
                },
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
                "rank_peak_entries".into(),
                run.solver_stats.rank_peak_entries as f64,
            ),
            // Lint counts of the containing file (shared by its properties).
            ("lint_warnings".into(), lint.num_warnings() as f64),
            ("lint_errors".into(), lint.num_errors() as f64),
        ];
        if let Some(report) = report {
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
        let strategy_label = options.strategy.label();
        cases.push(BenchCase {
            name: format!("{stem}::{}", prop_report.name),
            strategy: match config.engine {
                EngineKind::Bmc => format!("{strategy_label}/{}", options.reuse.label()),
                EngineKind::Ic3 => format!("{}/{strategy_label}", config.engine.label()),
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
    let tally = Tally {
        properties: run.properties.len(),
        falsified: run.num_falsified(),
        proved: run
            .properties
            .iter()
            .filter(|p| matches!(p.verdict, PropertyVerdict::Proved { .. }))
            .count(),
        ..Tally::lint(lint)
    };

    if config.selfcheck && config.engine == EngineKind::Ic3 {
        // A run carrying prover verdicts: the differential is against a BMC
        // oracle on the shared frontier prefix instead of the BMC-shaped
        // regime cross-checks below.
        let mismatches = prover_cross_check(&stem, problem, &run, options);
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
    } else if config.selfcheck {
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
            problem,
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
            problem,
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
    Ok(FileDisposition::Checked(tally))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match Config::parse(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let WitnessOutput::Dir(dir) = &config.witnesses {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create witness dir {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }

    if let Some(dir) = &config.export {
        let mut suite = if config.smoke {
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

    let corpus_dir = &config.corpus;
    let mut files: Vec<PathBuf> = match std::fs::read_dir(corpus_dir) {
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

    let options = &config.options;
    let mut report = BenchReport::new(format!(
        "rbmc corpus ({}, depth={}, engine={}, strategy={}, reuse={}, jobs={}{})",
        corpus_dir.display(),
        options.max_depth,
        config.engine.label(),
        options.strategy.label(),
        options.reuse.label(),
        config.jobs,
        if config.selfcheck { ", selfcheck" } else { "" }
    ));
    let start = Instant::now();
    // Files are claimed off a shared queue, and each file's output block is
    // buffered so stdout comes out in file order no matter who solved what.
    // A file whose check panics fails on its own: the panic becomes that
    // file's `FAIL` line, and the sweep goes on.
    let outcomes = rbmc_bench::striped_map(files.len(), config.jobs, |i| {
        let mut out = String::new();
        let mut cases = Vec::new();
        let mut lint = LintReport::default();
        let result = check_file(&files[i], &config, &mut out, &mut cases, &mut lint);
        (out, cases, lint, result)
    });
    let mut total = Tally::default();
    let (mut skipped, mut failures) = (0usize, 0usize);
    // `--lint-json` entries: the report each file's check handed back.
    let mut lints: Vec<(String, LintReport)> = Vec::new();
    for (outcome, path) in outcomes.into_iter().zip(&files) {
        let (out, cases, lint, result): FileOutcome = outcome.unwrap_or_else(|panic| {
            let failure = format!("{}: panicked: {panic}", path.display());
            // A panicked check hands back no report, so only the artifact
            // lints such a file again.
            let lint = config
                .lint_json
                .as_ref()
                .and_then(|_| std::fs::read(path).ok())
                .map(|bytes| lint_aiger(&bytes))
                .unwrap_or_default();
            (String::new(), Vec::new(), lint, Err(failure))
        });
        let name = path.file_name().and_then(|s| s.to_str());
        lints.push((name.unwrap_or("benchmark").to_string(), lint));
        print!("{out}");
        for case in cases {
            report.push(case);
        }
        match result {
            Ok(FileDisposition::Checked(tally)) => total.add(tally),
            Ok(FileDisposition::Skipped(reason, tally)) => {
                eprintln!("SKIP {reason}");
                skipped += 1;
                total.add(tally);
            }
            Err(e) => {
                eprintln!("FAIL {e}");
                failures += 1;
            }
        }
    }
    println!(
        "\nchecked {} files / {} properties in {:.3}s: {} falsified (witnesses validated), \
         {} proved (invariants checked), {} open, {} skipped, {} failures; \
         lint: {} warning{}, {} error{}",
        files.len() - skipped,
        total.properties,
        start.elapsed().as_secs_f64(),
        total.falsified,
        total.proved,
        total.properties - total.falsified - total.proved,
        skipped,
        failures,
        total.lint_warnings,
        if total.lint_warnings == 1 { "" } else { "s" },
        total.lint_errors,
        if total.lint_errors == 1 { "" } else { "s" },
    );
    // Both artifacts are written even when the sweep fails; the `--lint-json`
    // one is built from the sweep's own findings.
    let written = rbmc_bench::report::emit(config.json_out.as_deref(), || report.to_json());
    let lint_written = rbmc_bench::report::emit(config.lint_json.as_deref(), || {
        rbmc_bench::report::lint_json(&lints)
    });
    if !(written && lint_written) {
        ExitCode::from(2)
    } else if failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::{verdict_mismatches, witness_text, Config, WitnessOutput, USAGE};
    use rbmc_core::SolveResult::{Sat, Unsat};
    use rbmc_core::{OrderingStrategy, PropertyVerdict, Trace};
    use std::path::PathBuf;

    fn parse(args: &[&str]) -> Result<Config, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        Config::parse(&args)
    }

    #[test]
    fn config_defaults_and_modifiers_in_any_order() {
        let config = parse(&["corpus"]).expect("parses");
        assert_eq!(config.corpus, PathBuf::from("corpus"));
        assert_eq!(config.options.max_depth, 20);
        let dynamic = |divisor| OrderingStrategy::RefinedDynamic { divisor };
        assert_eq!(config.options.strategy, dynamic(64));
        assert_eq!(config.witnesses, WitnessOutput::Print);
        assert_eq!(config.json_out, Some(PathBuf::from("BENCH_corpus.json")));
        // `--divisor` after `--strategy`, `--smoke` after the corpus.
        let args = ["--strategy", "dyn", "--divisor", "8", "corpus", "--smoke"];
        let config = parse(&args).expect("parses");
        assert_eq!(config.options.strategy, dynamic(8));
        assert_eq!(config.options.max_depth, 10);
        // With no corpus named, the export directory is swept.
        let config = parse(&["--export-corpus", "out"]).expect("parses");
        assert_eq!(config.corpus, PathBuf::from("out"));
    }

    #[test]
    fn each_output_has_one_destination() {
        let quiet = parse(&["c", "--quiet-witnesses"]).expect("parses");
        assert_eq!(quiet.witnesses, WitnessOutput::Quiet);
        // A witness directory makes `--quiet-witnesses` moot, and
        // `--no-json` overrides `--json-out`, in either order.
        let args = ["c", "--no-json", "--quiet-witnesses", "--witness-dir", "w"];
        let config = parse(&[&args[..], &["--json-out", "x.json"]].concat()).expect("parses");
        assert_eq!(config.witnesses, WitnessOutput::Dir(PathBuf::from("w")));
        assert_eq!(config.json_out, None);
    }

    #[test]
    fn a_missing_value_or_corpus_is_an_error() {
        for flag in ["--strategy", "--engine", "--reuse", "--lint", "--proof"] {
            let err = parse(&["c", flag]).expect_err(flag);
            assert!(err.contains(flag) && err.contains("<missing>"), "{err}");
        }
        for flag in [
            "--witness-dir",
            "--lint-json",
            "--json-out",
            "--export-corpus",
        ] {
            let err = parse(&["c", flag, "--smoke"]).expect_err(flag);
            assert!(err.contains(flag), "{err}");
        }
        assert_eq!(parse(&["--smoke"]).expect_err("no corpus"), USAGE);
    }

    #[test]
    fn witness_text_prints_x_at_dontcare_positions_only() {
        let trace = Trace::from_parts(vec![false, true], vec![vec![true], vec![false]]);
        let verdict = PropertyVerdict::Falsified { depth: 1, trace };
        let masked = witness_text(0, &verdict, Some((&[false, true], &[true])));
        assert_eq!(masked, "1\nb0\n0x\nx\nx\n.\n");
        let plain = witness_text(0, &verdict, None);
        assert_eq!(plain, "1\nb0\n01\n1\n0\n.\n");
    }

    #[test]
    fn proved_properties_print_hwmcc_status_zero() {
        let verdict = PropertyVerdict::Proved {
            depth: 3,
            invariant_clauses: Some(vec![vec![(0, false)]]),
        };
        assert_eq!(witness_text(2, &verdict, None), "0\nb2\n.\n");
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
