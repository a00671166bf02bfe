//! One pass over a workload's inputs, run in a process of its own so that
//! its peak memory is its own.
//!
//! Each file goes through the steps `rbmc` takes for it (`check_file` in
//! `crates/bench/src/bin/rbmc.rs`), through public library calls: read the
//! bytes, lint them, parse them, build the problem, run the display-time
//! preprocessing and cone count, build and run the engine, then pass every
//! verdict through the witness, invariant and proof gates and compare it
//! with ground truth. A traced pass also reads the clock at each step
//! boundary; nothing inside the program is instrumented.
//!
//! The A/B process ([`ab`]) runs extra engine calls outside any pass: an
//! outside encode of the unrolling, the engine under each proof mode the
//! workload uses, and plain VSIDS with and without conflict-graph recording.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use rbmc_circuit::aiger::parse_aiger;
use rbmc_circuit::coi::registers_in_cone;
use rbmc_circuit::lint::lint_aiger;
use rbmc_circuit::{Aig, Signal};
use rbmc_core::{
    check_invariant, preprocess_problem, BmcEngine, BmcOptions, BmcRun, Ic3Engine, Model,
    OrderingStrategy, ProblemBuilder, ProofMode, Property, PropertyVerdict, Trace, Unroller,
    VerificationProblem,
};

use crate::json::Json;
use crate::workloads::{read_manifest, EngineSel, Entry, Expect, Workload};

/// The pipeline steps a traced pass times, in order, with the per-layer
/// metric each one feeds. Reading the bytes counts as AIGER parsing.
#[derive(Clone, Copy)]
enum Layer {
    Parse,
    Lint,
    Build,
    Preprocess,
    EngineNew,
    Engine,
    Validate,
}

const LAYER_NAMES: [&str; 7] = [
    "aiger.parse_s",
    "lint.s",
    "problem.build_s",
    "preprocess.s",
    "engine.new_s",
    "engine.s",
    "validate.s",
];

/// Step-boundary clock reads: each mark charges the time since the previous
/// one to a layer. Off, it reads no clock at all.
struct Tracer {
    last: Option<Instant>,
    on: bool,
    spans: [Duration; LAYER_NAMES.len()],
}

impl Tracer {
    fn start(&mut self) {
        if self.on {
            self.last = Some(Instant::now());
        }
    }

    fn mark(&mut self, layer: Layer) {
        if let Some(last) = self.last.as_mut() {
            let now = Instant::now();
            self.spans[layer as usize] += now - *last;
            *last = now;
        }
    }
}

/// Either engine, behind the calls a pass makes.
enum Engine {
    Bmc(BmcEngine),
    Ic3(Ic3Engine),
}

impl Engine {
    fn new(sel: EngineSel, problem: VerificationProblem, options: BmcOptions) -> Engine {
        match sel {
            EngineSel::Bmc => Engine::Bmc(BmcEngine::for_problem(problem, options)),
            EngineSel::Ic3 => Engine::Ic3(Ic3Engine::for_problem(problem, options)),
        }
    }

    fn run(&mut self) -> BmcRun {
        match self {
            Engine::Bmc(e) => e.run_collecting(),
            Engine::Ic3(e) => e.run_collecting(),
        }
    }

    fn working_model(&self) -> &Model {
        match self {
            Engine::Bmc(e) => e.working_model(),
            Engine::Ic3(e) => e.working_model(),
        }
    }
}

/// What a pass attempted and how it went. Every count is exact and must
/// repeat from pass to pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    decided: u64,
    failed: u64,
    failures: Vec<String>,
    files_ms: Vec<f64>,
    counts: BTreeMap<&'static str, u64>,
    check_reported: Duration,
}

impl Tally {
    fn add(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }

    fn max(&mut self, key: &'static str, n: u64) {
        let slot = self.counts.entry(key).or_default();
        *slot = (*slot).max(n);
    }

    fn record(&mut self, name: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(format!("{name}: {e}"));
        }
    }
}

/// Runs one pass over the inputs in `dir` and returns its record.
pub fn pass(w: &Workload, smoke: bool, dir: &Path, traced: bool) -> Result<Json, String> {
    let entries = read_manifest(dir)?;
    let options = w.options(smoke);
    let mut tally = Tally::default();
    let mut tracer = Tracer {
        last: None,
        on: traced,
        spans: Default::default(),
    };
    let wall = Instant::now();
    for entry in &entries {
        let file_start = Instant::now();
        tracer.start();
        let props = entry.expect.len() as u64;
        tally.attempted += props;
        if let Err(e) = check_file(dir, entry, w.engine, &options, &mut tracer, &mut tally) {
            tally.failed += props;
            tally.failures.push(format!("{}: {e}", entry.file));
        }
        tally
            .files_ms
            .push(file_start.elapsed().as_secs_f64() * 1e3);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let mut fields = vec![
        ("wall_s", wall_s.into()),
        ("vmhwm_kb", (peak_rss_kb()? as f64).into()),
        ("attempted", (tally.attempted as f64).into()),
        ("decided", (tally.decided as f64).into()),
        ("failed", (tally.failed as f64).into()),
        (
            "failures",
            Json::Arr(tally.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        (
            "files_ms",
            Json::Arr(tally.files_ms.iter().map(|&ms| ms.into()).collect()),
        ),
        (
            "counts",
            Json::Obj(
                tally
                    .counts
                    .iter()
                    .map(|(k, &v)| (k.to_string(), (v as f64).into()))
                    .collect(),
            ),
        ),
        (
            "check_s_reported",
            tally.check_reported.as_secs_f64().into(),
        ),
    ];
    if traced {
        let spans = LAYER_NAMES
            .iter()
            .zip(tracer.spans)
            .map(|(name, d)| (name.to_string(), d.as_secs_f64().into()))
            .collect();
        fields.push(("spans", Json::Obj(spans)));
    }
    Ok(Json::obj(fields))
}

fn stem(file: &str) -> &str {
    file.rsplit_once('.').map_or(file, |(stem, _)| stem)
}

/// The per-file pipeline. An `Err` fails every property of the file;
/// per-property failures are recorded in `tally` directly.
fn check_file(
    dir: &Path,
    entry: &Entry,
    engine: EngineSel,
    options: &BmcOptions,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let bytes = std::fs::read(dir.join(&entry.file)).map_err(|e| e.to_string())?;
    tally.add("aiger.bytes", bytes.len() as u64);
    tracer.mark(Layer::Parse);
    let lint = lint_aiger(&bytes);
    tally.add("lint.diagnostics", lint.diagnostics().len() as u64);
    tracer.mark(Layer::Lint);
    let aig = parse_aiger(&bytes).map_err(|e| format!("unparseable: {e}"))?;
    tracer.mark(Layer::Parse);
    let stem = stem(&entry.file);
    let builder = ProblemBuilder::from_aig(stem, &aig);
    if builder.num_properties() != entry.expect.len() {
        return Err(format!(
            "{} properties, the manifest expects {}",
            builder.num_properties(),
            entry.expect.len()
        ));
    }
    let problem = builder.build();
    tracer.mark(Layer::Build);
    // `rbmc` runs the pass once more for its log line and witness masks,
    // and counts the registers in the properties' cones.
    let pp = preprocess_problem(&problem);
    let bads: Vec<Signal> = problem.properties().iter().map(Property::bad).collect();
    black_box(registers_in_cone(problem.netlist(), &bads));
    tally.add("preprocess.latches_before", pp.report.before.latches as u64);
    tally.add("preprocess.latches_after", pp.report.after.latches as u64);
    tracer.mark(Layer::Preprocess);
    let mut engine = Engine::new(engine, problem.clone(), *options);
    tracer.mark(Layer::EngineNew);
    let run = engine.run();
    tracer.mark(Layer::Engine);

    let stats = &run.solver_stats;
    tally.add("solver.decisions", stats.decisions);
    tally.add("solver.propagations", stats.propagations);
    tally.add("solver.conflicts", stats.conflicts);
    tally.add("solver.solve_calls", stats.solve_calls);
    tally.max("solver.arena_peak_bytes", stats.arena_peak_bytes);
    tally.max("ranking.rank_peak_entries", stats.rank_peak_entries);
    tally.max("cdg.peak_nodes", stats.cdg_peak_nodes);
    let core_vars: usize = run.per_depth.iter().map(|d| d.core_vars).sum();
    tally.add("ranking.core_vars", core_vars as u64);
    tally.add("ranking.depths", run.per_depth.len() as u64);
    let switched = run.per_depth.iter().filter(|d| d.switched_to_vsids).count();
    tally.add("ranking.switched_depths", switched as u64);
    if let Some(proof) = &run.proof {
        tally.add("proof.steps", proof.steps_logged);
        tally.add("proof.episodes", proof.episodes_certified);
        tally.check_reported += proof.check_time;
        if proof.rejected() {
            return Err(format!(
                "proof check rejected {} certificate(s): {}",
                proof.rejections,
                proof
                    .first_rejection
                    .as_deref()
                    .unwrap_or("(no description)")
            ));
        }
    }
    for (idx, (report, &expect)) in run.properties.iter().zip(&entry.expect).enumerate() {
        match &report.verdict {
            PropertyVerdict::Falsified { .. } => tally.add("validate.witnesses", 1),
            PropertyVerdict::Proved {
                invariant_clauses: Some(clauses),
                ..
            } => {
                tally.add("validate.invariants", 1);
                tally.add("ic3.invariant_clauses", clauses.len() as u64);
            }
            _ => {}
        }
        if report.verdict.is_conclusive() {
            tally.decided += 1;
        }
        let outcome = check_property(
            &aig,
            &problem,
            engine.working_model(),
            idx,
            &report.verdict,
            expect,
        );
        tally.record(&format!("{stem}::{}", report.name), outcome);
    }
    tracer.mark(Layer::Validate);
    Ok(())
}

/// The gates `rbmc` passes a verdict through before reporting it, and the
/// comparison with ground truth. `working` is the engine's working model,
/// the coordinates of an IC3 invariant.
fn check_property(
    aig: &Aig,
    problem: &VerificationProblem,
    working: &Model,
    idx: usize,
    verdict: &PropertyVerdict,
    expect: Expect,
) -> Result<(), String> {
    let got = match verdict {
        PropertyVerdict::Falsified { depth, .. } => Expect::Falsified(*depth),
        PropertyVerdict::OpenAt { depth } => Expect::OpenAt(*depth),
        PropertyVerdict::Proved { .. } => Expect::Proved,
        PropertyVerdict::Unknown => return Err("no verdict".into()),
    };
    if got != expect {
        return Err(format!("{verdict}, expected {expect:?}"));
    }
    match verdict {
        PropertyVerdict::Falsified { trace, .. } => {
            trace
                .validate_against(problem.netlist(), problem.property(idx).bad())
                .map_err(|e| format!("witness fails netlist replay: {e}"))?;
            replay_on_aig(aig, idx, trace).map_err(|e| format!("witness fails AIG replay: {e}"))
        }
        PropertyVerdict::Proved {
            invariant_clauses: Some(clauses),
            ..
        } => check_invariant(working, working.problem().property(idx).bad(), clauses)
            .map_err(|e| format!("invariant fails the inductive check: {e}")),
        PropertyVerdict::Proved { .. } => Err("proved without an invariant to check".into()),
        _ => Ok(()),
    }
}

/// Replays a witness on the original AIG and checks that the property's bad
/// literal holds at the final frame.
fn replay_on_aig(aig: &Aig, prop_index: usize, trace: &Trace) -> Result<(), String> {
    let props = if aig.bads().is_empty() {
        aig.outputs()
    } else {
        aig.bads()
    };
    let (_, bad) = props.get(prop_index).ok_or("no such property in the AIG")?;
    if trace.initial_state().len() != aig.latches().len() {
        return Err("initial state does not match the AIG's latch count".into());
    }
    let mut state = trace.initial_state().to_vec();
    for (frame, inputs) in trace.inputs().iter().enumerate() {
        if inputs.len() != aig.inputs().len() {
            return Err(format!(
                "frame {frame} does not match the AIG's input count"
            ));
        }
        let values = aig.eval_frame(&state, inputs);
        if frame == trace.depth() {
            return if bad.apply(values[bad.node()]) {
                Ok(())
            } else {
                Err(format!("bad literal is false at final frame {frame}"))
            };
        }
        state = aig
            .latches()
            .iter()
            .map(|&l| {
                let next = aig.next_of(l).expect("parsed latches are connected");
                next.apply(values[next.node()])
            })
            .collect();
    }
    Err(format!(
        "{} frames end before depth {}",
        trace.inputs().len(),
        trace.depth()
    ))
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Reads, parses and builds one manifest entry, untimed.
fn load(dir: &Path, entry: &Entry) -> Result<VerificationProblem, String> {
    let bytes = std::fs::read(dir.join(&entry.file)).map_err(|e| e.to_string())?;
    let aig = parse_aiger(&bytes).map_err(|e| e.to_string())?;
    Ok(ProblemBuilder::from_aig(stem(&entry.file), &aig).build())
}

/// Runs one engine call and returns its run and the time it took.
fn timed_run(sel: EngineSel, problem: &VerificationProblem, options: BmcOptions) -> (BmcRun, f64) {
    let mut engine = Engine::new(sel, problem.clone(), options);
    let start = Instant::now();
    let run = engine.run();
    (run, start.elapsed().as_secs_f64())
}

/// The A/B calls, summed over the workload's files:
/// - an outside encode of frames `0..=k` of the working model (`k` is the
///   depth bound for BMC and 1, the one-step relation, for IC3);
/// - the engine call under no proof, under at most logging, and under the
///   workload's own proof mode — a workload without proofs runs the same
///   call three times, so its proof deltas measure noise around 0;
/// - plain VSIDS with and without conflict-graph recording, which must make
///   the same decisions.
pub fn ab(w: &Workload, smoke: bool, dir: &Path) -> Result<Json, String> {
    let base = w.options(smoke);
    let log = if w.proof == ProofMode::Off {
        ProofMode::Off
    } else {
        ProofMode::Log
    };
    let modes = [ProofMode::Off, log, w.proof];
    let frames = match w.engine {
        EngineSel::Bmc => w.depth(smoke),
        EngineSel::Ic3 => 1,
    };
    let (mut encode_s, mut clauses) = (0.0, 0usize);
    let mut proof_s = [0.0; 3];
    let mut cdg_s = [0.0; 2];
    let mut failures = Vec::new();
    for entry in read_manifest(dir)? {
        let problem = load(dir, &entry)?;
        let engine = Engine::new(w.engine, problem.clone(), base);
        let start = Instant::now();
        clauses +=
            Unroller::new(engine.working_model()).with_prefix(frames, |c| c.into_iter().len());
        encode_s += start.elapsed().as_secs_f64();
        for (slot, mode) in proof_s.iter_mut().zip(modes) {
            *slot += timed_run(
                w.engine,
                &problem,
                BmcOptions {
                    proof: mode,
                    ..base
                },
            )
            .1;
        }
        let mut decisions = [0; 2];
        for (i, record) in [false, true].into_iter().enumerate() {
            let options = BmcOptions {
                strategy: OrderingStrategy::Standard,
                proof: ProofMode::Off,
                force_record_cdg: record,
                ..base
            };
            let (run, secs) = timed_run(w.engine, &problem, options);
            cdg_s[i] += secs;
            decisions[i] = run.solver_stats.decisions;
        }
        if decisions[0] != decisions[1] {
            failures.push(format!(
                "{}: conflict-graph recording changed the decisions ({} vs {})",
                entry.file, decisions[0], decisions[1]
            ));
        }
    }
    Ok(Json::obj(vec![
        ("unroll.encode_s", encode_s.into()),
        ("unroll.clauses", (clauses as f64).into()),
        ("proof.off_s", proof_s[0].into()),
        ("proof.log_s", proof_s[1].into()),
        ("proof.own_s", proof_s[2].into()),
        ("cdg.plain_s", cdg_s[0].into()),
        ("cdg.record_s", cdg_s[1].into()),
        (
            "failures",
            Json::Arr(failures.iter().map(|f| f.as_str().into()).collect()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_gens::corpus::{multi_even_counter, problem_to_aig};

    #[test]
    fn a_flipped_expectation_and_a_truncated_witness_are_failures() {
        let aig = problem_to_aig(&multi_even_counter());
        let problem = ProblemBuilder::from_aig("multi", &aig).build();
        let options = BmcOptions {
            max_depth: 6,
            ..BmcOptions::default()
        };
        let mut engine = Engine::new(EngineSel::Bmc, problem.clone(), options);
        let run = engine.run();
        let verdict = &run.properties[0].verdict;
        let mut tally = Tally::default();
        let mut check = |verdict: &PropertyVerdict, expect| {
            let outcome =
                check_property(&aig, &problem, engine.working_model(), 0, verdict, expect);
            tally.record("multi::reach6", outcome);
            tally.failed
        };
        assert_eq!(
            check(verdict, Expect::Falsified(3)),
            0,
            "the true verdict passes"
        );
        assert_eq!(
            check(verdict, Expect::OpenAt(6)),
            1,
            "a flipped expectation fails"
        );
        let PropertyVerdict::Falsified { depth, trace } = verdict else {
            panic!("reach6 falsifies, got {verdict}");
        };
        let truncated = PropertyVerdict::Falsified {
            depth: *depth,
            trace: Trace::from_parts(
                trace.initial_state().to_vec(),
                trace.inputs()[..*depth].to_vec(),
            ),
        };
        assert_eq!(
            check(&truncated, Expect::Falsified(3)),
            2,
            "a truncated witness fails"
        );
    }

    #[test]
    fn a_truncated_witness_fails_the_aig_replay_on_its_own() {
        let aig = problem_to_aig(&multi_even_counter());
        let problem = ProblemBuilder::from_aig("multi", &aig).build();
        let mut engine = Engine::new(EngineSel::Bmc, problem, BmcOptions::default());
        let run = engine.run();
        let PropertyVerdict::Falsified { trace, .. } = &run.properties[0].verdict else {
            panic!("reach6 falsifies");
        };
        assert!(replay_on_aig(&aig, 0, trace).is_ok());
        let short = Trace::from_parts(
            trace.initial_state().to_vec(),
            trace.inputs()[..trace.depth()].to_vec(),
        );
        assert!(replay_on_aig(&aig, 0, &short).is_err());
    }
}
