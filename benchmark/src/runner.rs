//! The parent process: times set-up, starts one process per pass, and keeps
//! the records they send back.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::json::{self, Json};
use crate::workloads::{self, read_manifest, Workload};

/// Set-up repeats back to back at least `SETUP_MIN_REPS` times and until it
/// has taken `SETUP_SECONDS` in all, at most `SETUP_MAX_REPS` times;
/// `setup_s` is the median. A corpus set-up takes milliseconds and needs
/// many samples; a wide one takes a fraction of a second and needs few.
///
/// Most of a corpus set-up is creating 43 small files, and on a shared disk
/// that latency drifts. Samples spread between passes drifted upwards by a
/// factor of three over ten runs; back-to-back samples did not.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_SECONDS: f64 = 1.0;

/// The record of one pass process.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub rss_mb: f64,
    pub files_ms: Vec<f64>,
    pub attempted: u64,
    pub decided: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Exact counts, which must repeat from pass to pass. Empty when the
    /// process failed.
    pub counts: Vec<(String, f64)>,
    pub check_s_reported: f64,
    /// Per-layer seconds; traced passes only.
    pub spans: Vec<(String, f64)>,
}

fn pairs(j: Option<&Json>) -> Vec<(String, f64)> {
    j.map(Json::fields)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.num()?)))
        .collect()
}

fn lookup(pairs: &[(String, f64)], key: &str) -> f64 {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0.0, |&(_, v)| v)
}

impl Pass {
    fn from_json(j: &Json) -> Result<Pass, String> {
        Ok(Pass {
            wall_s: j.num_at("wall_s")?,
            rss_mb: j.num_at("vmhwm_kb")? / 1024.0,
            files_ms: j
                .get("files_ms")
                .map(Json::arr)
                .unwrap_or_default()
                .iter()
                .filter_map(Json::num)
                .collect(),
            attempted: j.num_at("attempted")? as u64,
            decided: j.num_at("decided")? as u64,
            failed: j.num_at("failed")? as u64,
            failures: failures(j),
            counts: pairs(j.get("counts")),
            check_s_reported: j.num_at("check_s_reported")?,
            spans: pairs(j.get("spans")),
        })
    }

    pub fn count(&self, key: &str) -> f64 {
        lookup(&self.counts, key)
    }

    pub fn span(&self, key: &str) -> f64 {
        lookup(&self.spans, key)
    }
}

fn failures(j: &Json) -> Vec<String> {
    j.get("failures")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|f| f.str().map(str::to_string))
        .collect()
}

/// The record of the A/B process (see `pipeline::ab`).
#[derive(Clone, Debug, Default)]
pub struct Ab {
    pub values: Vec<(String, f64)>,
    pub failures: Vec<String>,
}

impl Ab {
    pub fn get(&self, key: &str) -> f64 {
        lookup(&self.values, key)
    }
}

/// One workload's inputs and everything measured on them.
pub struct Session {
    pub w: &'static Workload,
    smoke: bool,
    dir: PathBuf,
    /// Properties in the inputs; a failed pass process fails all of them.
    properties: u64,
    pub setup_s: Vec<f64>,
    pub passes: Vec<Pass>,
    pub traced: Vec<Pass>,
    pub ab: Option<Ab>,
}

/// Generated inputs live here, inside the benchmark's own directory.
fn work_dir(w: &Workload, seed: u64, smoke: bool) -> PathBuf {
    let name = format!("{}-{seed}{}", w.name, if smoke { "-smoke" } else { "" });
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(name)
}

/// Generates the workload's inputs into a fresh `dir`; returns the seconds
/// that took.
fn timed_setup(w: &Workload, seed: u64, smoke: bool, dir: &Path) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    std::fs::create_dir_all(dir).map_err(io)?;
    let start = Instant::now();
    workloads::setup(w, seed, smoke, dir).map_err(|e| format!("set-up: {e}"))?;
    Ok(start.elapsed().as_secs_f64())
}

impl Session {
    /// Sets the workload up repeatedly, timing each, and keeps the last set
    /// of inputs.
    pub fn new(w: &'static Workload, seed: u64, smoke: bool) -> Result<Session, String> {
        let dir = work_dir(w, seed, smoke);
        let mut setup_s: Vec<f64> = Vec::new();
        while setup_s.len() < SETUP_MIN_REPS
            || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
        {
            setup_s.push(timed_setup(w, seed, smoke, &dir)?);
        }
        let properties = read_manifest(&dir)?
            .iter()
            .map(|e| e.expect.len() as u64)
            .sum();
        Ok(Session {
            w,
            smoke,
            dir,
            properties,
            setup_s,
            passes: Vec::new(),
            traced: Vec::new(),
            ab: None,
        })
    }

    /// Runs `subcommand` of this binary on the session's inputs in a child
    /// process and returns the record it prints last.
    fn child(&self, subcommand: &str, extra: &[&str]) -> Result<Json, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = self.dir.to_str().ok_or("work directory is not UTF-8")?;
        let mut cmd = Command::new(exe);
        cmd.args([subcommand, "--workload", self.w.name, "--dir", dir])
            .args(extra);
        if self.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| e.to_string())?;
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            return Err(format!(
                "{subcommand} process {}: {}",
                out.status,
                tail.join(" | ")
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        json::parse(stdout.lines().last().unwrap_or_default())
    }

    /// Runs one pass; a failed process counts as every property failing.
    pub fn run_pass(&mut self, traced: bool) {
        let args: &[&str] = if traced { &["--trace"] } else { &[] };
        let pass = self
            .child("pass", args)
            .and_then(|j| Pass::from_json(&j))
            .unwrap_or_else(|e| Pass {
                attempted: self.properties,
                failed: self.properties,
                failures: vec![e],
                ..Pass::default()
            });
        if traced {
            self.traced.push(pass);
        } else {
            self.passes.push(pass);
        }
    }

    pub fn run_ab(&mut self) {
        self.ab = Some(match self.child("ab", &[]) {
            Ok(j) => Ab {
                values: pairs(Some(&j)),
                failures: failures(&j),
            },
            Err(e) => Ab {
                values: Vec::new(),
                failures: vec![e],
            },
        });
    }

    fn all_passes(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().chain(&self.traced)
    }

    /// Properties attempted and failed over every pass, plus failed A/B
    /// checks.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let ab_failed = self.ab.as_ref().map_or(0, |ab| ab.failures.len() as u64);
        self.all_passes()
            .fold((0, ab_failed), |(a, f), p| (a + p.attempted, f + p.failed))
    }

    pub fn failures(&self) -> Vec<String> {
        let ab = self.ab.iter().flat_map(|ab| &ab.failures);
        self.all_passes()
            .flat_map(|p| &p.failures)
            .chain(ab)
            .map(|f| format!("{}: {f}", self.w.name))
            .collect()
    }

    /// Every exact count must be the same in every pass, traced or not.
    /// Returns one line per count that differs.
    pub fn determinism(&self) -> Vec<String> {
        let mut runs = self.all_passes().filter(|p| !p.counts.is_empty());
        let Some(first) = runs.next() else {
            return Vec::new();
        };
        let mut diffs = Vec::new();
        for (i, other) in runs.enumerate() {
            let keys: BTreeSet<&str> = first
                .counts
                .iter()
                .chain(&other.counts)
                .map(|(k, _)| k.as_str())
                .collect();
            for key in keys {
                let (a, b) = (first.count(key), other.count(key));
                if a != b {
                    diffs.push(format!(
                        "{}: {key} is {a} in the first pass, {b} in pass {}",
                        self.w.name,
                        i + 2
                    ));
                }
            }
        }
        diffs
    }

    /// Removes the generated inputs.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
