//! `rbmc-benchmark`: end-to-end and per-layer measurements of the verifier
//! on five ground-truth-checked workloads. See `README.md` in this
//! directory for the workloads, the metrics and the method.
//!
//! ```text
//! rbmc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! rbmc-benchmark run --seed N --reps R [--smoke]
//! rbmc-benchmark diff BASE.json NEW.json
//! ```
//!
//! The first form sets one workload up, runs passes over it for about `S`
//! seconds, and prints its end-to-end metrics (`--trace 0`) or its
//! per-layer metrics (`--trace 1`) as a JSON object on the last line.
//! `run` sets every workload up, runs `R` passes of each with the workloads
//! interleaved, then per workload `R` pairs of an untraced and a traced pass
//! and the A/B calls, and writes `out/<seed>.json` here. `diff` compares two
//! such files metric by metric against the regression bounds.
//!
//! Every pass runs in a child process of this binary (`pass`, and `ab` for
//! the A/B calls), one at a time and single-threaded.

mod json;
mod metrics;
mod pipeline;
mod runner;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::str::FromStr;
use std::time::{Duration, Instant};

use json::Json;
use metrics::{end_to_end, judge, per_layer, Spec, Stat, Verdict, END_TO_END, PER_LAYER};
use runner::Session;
use workloads::{Workload, WORKLOADS};

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn required<T: FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let value = flag(args, name).ok_or_else(|| format!("{name} is required"))?;
    value
        .parse()
        .map_err(|_| format!("{name}: cannot parse `{value}`"))
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn workload(args: &[String]) -> Result<&'static Workload, String> {
    let name: String = required(args, "--workload")?;
    workloads::find(&name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("pass") => child(&args, |w, smoke, dir| {
            pipeline::pass(w, smoke, dir, has(&args, "--trace"))
        }),
        Some("ab") => child(&args, pipeline::ab),
        Some("run") => run(&args),
        Some("diff") => diff(&args),
        _ => drive(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// A child process: one pass or the A/B calls over a set-up directory,
/// printing its record as one JSON line.
fn child(
    args: &[String],
    body: impl FnOnce(&Workload, bool, &Path) -> Result<Json, String>,
) -> Result<ExitCode, String> {
    let w = workload(args)?;
    let dir: PathBuf = required(args, "--dir")?;
    println!("{}", body(w, has(args, "--smoke"), &dir)?);
    Ok(ExitCode::SUCCESS)
}

fn metrics_json(specs: &[Spec], stats: &[Stat], full: bool) -> Json {
    Json::Obj(
        specs
            .iter()
            .zip(stats)
            .map(|(spec, st)| {
                let mut fields = vec![("value", st.value.into()), ("unit", spec.unit.into())];
                if full {
                    fields.extend([
                        ("q1", st.q1.into()),
                        ("q3", st.q3.into()),
                        ("n", (st.n as f64).into()),
                    ]);
                }
                (spec.name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

fn print_table(specs: &[Spec], stats: &[Stat]) {
    for (spec, st) in specs.iter().zip(stats) {
        println!(
            "  {:<28} {:>14.6} {:<6} [{:.6}, {:.6}]  n={}",
            spec.name, st.value, spec.unit, st.q1, st.q3, st.n
        );
    }
}

/// Prints what went wrong in a session; returns whether all went right.
fn report_problems(s: &Session) -> bool {
    let failures = s.failures();
    let diffs = s.determinism();
    for line in failures.iter().chain(&diffs) {
        eprintln!("FAIL {line}");
    }
    if diffs.is_empty() {
        println!("{}: counts: identical", s.w.name);
    }
    failures.is_empty() && diffs.is_empty()
}

/// One workload for about `--seconds` of passes, ending with the JSON
/// result line: the form `BENCHMARK.json`'s command is run in.
fn drive(args: &[String]) -> Result<ExitCode, String> {
    let w = workload(args)?;
    let seed: u64 = required(args, "--seed")?;
    let budget = Duration::from_secs_f64(required(args, "--seconds")?);
    let trace = match required::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let mut s = Session::new(w, seed, has(args, "--smoke"))?;
    // A traced run alternates untraced and traced passes, so that the
    // tracing overhead compares passes taken under the same load.
    let min_passes = if trace { 2 } else { 3 };
    let start = Instant::now();
    loop {
        let round = Instant::now();
        s.run_pass(false);
        if trace {
            s.run_pass(true);
        }
        if s.passes.len() >= min_passes && start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    if trace {
        s.run_ab();
    }
    s.cleanup();
    let ok = report_problems(&s);
    let (specs, stats) = if trace {
        (&PER_LAYER[..], per_layer(&s))
    } else {
        (&END_TO_END[..], end_to_end(&s))
    };
    println!("{} (seed {seed}, {} passes):", w.name, s.passes.len());
    print_table(specs, &stats);
    let (attempted, failed) = s.attempted_failed();
    let result = Json::obj(vec![
        ("correct", Json::Bool(ok)),
        ("attempted", (attempted as f64).into()),
        ("failed", (failed as f64).into()),
        ("metrics", metrics_json(specs, &stats, false)),
    ]);
    println!("{result}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// Every workload, `--reps` interleaved passes each; then per workload
/// `--reps` pairs of an untraced and a traced pass, and the A/B calls.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = required(args, "--seed")?;
    let reps: usize = required(args, "--reps")?;
    let smoke = has(args, "--smoke");
    let load_before = loadavg();
    let mut sessions = WORKLOADS
        .iter()
        .map(|w| Session::new(w, seed, smoke))
        .collect::<Result<Vec<_>, _>>()?;
    for _ in 0..reps {
        for s in &mut sessions {
            s.run_pass(false);
        }
    }
    for s in &mut sessions {
        for _ in 0..reps {
            s.run_pass(false);
            s.run_pass(true);
        }
        s.run_ab();
        s.cleanup();
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = Json::obj(vec![
        ("nproc", (nproc as f64).into()),
        ("loadavg_before", load_before.as_str().into()),
        ("loadavg_after", loadavg().as_str().into()),
        ("rustc", command_line("rustc", &["-V"]).as_str().into()),
        (
            "git_head",
            command_line("git", &["rev-parse", "HEAD"]).as_str().into(),
        ),
    ]);
    let mut ok = true;
    let mut results = Vec::new();
    for s in &sessions {
        ok &= report_problems(s);
        let (e2e, layers) = (end_to_end(s), per_layer(s));
        println!("{} ({} passes):", s.w.name, s.passes.len());
        print_table(&END_TO_END, &e2e);
        println!("  per layer (traced pass and A/B calls):");
        print_table(&PER_LAYER, &layers);
        let (attempted, failed) = s.attempted_failed();
        let counts = s.passes.first().map_or_else(Vec::new, |p| p.counts.clone());
        results.push((
            s.w.name.to_string(),
            Json::obj(vec![
                ("end_to_end", metrics_json(&END_TO_END, &e2e, true)),
                ("per_layer", metrics_json(&PER_LAYER, &layers, true)),
                (
                    "counts",
                    Json::Obj(counts.into_iter().map(|(k, v)| (k, v.into())).collect()),
                ),
                ("attempted", (attempted as f64).into()),
                ("failed", (failed as f64).into()),
            ]),
        ));
    }
    let out = Json::obj(vec![
        ("schema", "rbmc-benchmark/v1".into()),
        ("seed", (seed as f64).into()),
        ("reps", (reps as f64).into()),
        ("smoke", Json::Bool(smoke)),
        ("host", host),
        ("workloads", Json::Obj(results)),
    ]);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}{seed}.json", if smoke { "smoke-" } else { "" }));
    std::fs::write(&path, format!("{out}\n")).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn stat(j: &Json) -> Result<Stat, String> {
    Ok(Stat {
        value: j.num_at("value")?,
        q1: j.num_at("q1")?,
        q3: j.num_at("q3")?,
        n: j.num_at("n")? as usize,
    })
}

/// Compares two `run` result files: per workload and end-to-end metric, the
/// values with their quartiles, the ratio, and a verdict against the
/// metric's bound; then whether the exact counts agree.
fn diff(args: &[String]) -> Result<ExitCode, String> {
    let [_, base_path, new_path] = args else {
        return Err("usage: diff BASE.json NEW.json".into());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut regressions = 0;
    for (name, b) in base.get("workloads").map(Json::fields).unwrap_or_default() {
        let Some(n) = new.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name}: missing from {new_path}");
            regressions += 1;
            continue;
        };
        println!("{name}:");
        for spec in &END_TO_END {
            let side = |j: &Json| {
                j.get("end_to_end")
                    .and_then(|m| m.get(spec.name))
                    .ok_or_else(|| format!("{name}: no {}", spec.name))
                    .and_then(stat)
            };
            let (bs, ns) = (side(b)?, side(n)?);
            let verdict = judge(spec, &bs, &ns);
            if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
                regressions += 1;
            }
            println!(
                "  {:<16} base {:.6} [{:.6}, {:.6}]  new {:.6} [{:.6}, {:.6}]  \
                 new/base {:.4}x (base {:.6} {}, {} is better)  bound {}  {}",
                spec.name,
                bs.value,
                bs.q1,
                bs.q3,
                ns.value,
                ns.q1,
                ns.q3,
                ns.value / bs.value,
                bs.value,
                spec.unit,
                spec.better.label(),
                spec.bound,
                verdict.label()
            );
        }
        let counts = |j: &Json| j.get("counts").cloned().unwrap_or(Json::Null);
        if counts(b) == counts(n) {
            println!("  counts: identical");
        } else {
            for (key, v) in counts(b).fields() {
                let other = counts(n).get(key).and_then(Json::num);
                if v.num() != other {
                    println!("  counts: {key} {v} -> {}", other.unwrap_or(f64::NAN));
                }
            }
        }
    }
    println!(
        "{regressions} worse or unresolved metric{}",
        if regressions == 1 { "" } else { "s" }
    );
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
