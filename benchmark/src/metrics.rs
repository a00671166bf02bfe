//! The metrics: their names, units, directions and regression bounds, how
//! each is computed from a session's records, and the regression verdict
//! `diff` gives a pair of them.

use crate::runner::{Pass, Session};
use crate::stats::{median, quantile, quartiles};
use Better::{Higher, Lower};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the base median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the verifier sees, per workload. `failed_share` has no
/// row of its own because it is 0 on a healthy run: `verified_share` is its
/// complement, and the result line carries the failure count.
///
/// On a shared 2-core host a core runs up to half again slower for minutes
/// at a time while neighbours load it. A pass does the same work every
/// time, so that noise only ever adds time: `wall_s` and `file_p90_ms` are
/// the fastest pass of a run. Over ten runs in such a spell, the fastest
/// pass spread by 15% where the median pass spread by 36%. Their bounds are
/// the 25% a regression gate may allow, not the 10% a quiet host would
/// support. Peak memory varies by ±5% from one pass process to the next
/// with the heap's layout, and on the wide instances by up to 5% from seed
/// to seed. The shares are exact.
pub const END_TO_END: [Spec; 6] = [
    spec("setup_s", "s", Lower, 0.25),
    spec("wall_s", "s", Lower, 0.25),
    spec("file_p90_ms", "ms", Lower, 0.25),
    spec("peak_rss_mb", "MB", Lower, 0.15),
    spec("decided_share", "ratio", Higher, 0.01),
    spec("verified_share", "ratio", Higher, 0.01),
];

/// Per-layer metrics of the traced passes and the A/B calls. They carry no
/// bound.
pub const PER_LAYER: [Spec; 37] = [
    spec("aiger.parse_s", "s", Lower, 0.0),
    spec("aiger.mb_per_s", "MB/s", Higher, 0.0),
    spec("lint.s", "s", Lower, 0.0),
    spec("lint.diagnostics", "count", Lower, 0.0),
    spec("problem.build_s", "s", Lower, 0.0),
    spec("preprocess.s", "s", Lower, 0.0),
    spec("preprocess.latch_keep_share", "ratio", Lower, 0.0),
    spec("frontend.share", "ratio", Lower, 0.0),
    spec("engine.new_s", "s", Lower, 0.0),
    spec("engine.s", "s", Lower, 0.0),
    spec("engine.share", "ratio", Lower, 0.0),
    spec("unroll.encode_s", "s", Lower, 0.0),
    spec("unroll.clauses", "count", Lower, 0.0),
    spec("solver.decisions", "count", Lower, 0.0),
    spec("solver.propagations", "count", Lower, 0.0),
    spec("solver.conflicts", "count", Lower, 0.0),
    spec("solver.solve_calls", "count", Lower, 0.0),
    spec("solver.props_per_s", "1/s", Higher, 0.0),
    spec("solver.us_per_call", "us", Lower, 0.0),
    spec("solver.arena_peak_mb", "MB", Lower, 0.0),
    spec("ranking.core_vars", "count", Lower, 0.0),
    spec("ranking.switch_share", "ratio", Lower, 0.0),
    spec("ranking.rank_peak_entries", "count", Lower, 0.0),
    spec("cdg.peak_nodes", "count", Lower, 0.0),
    spec("cdg.record_s", "s", Lower, 0.0),
    spec("ic3.invariant_clauses", "count", Lower, 0.0),
    spec("proof.log_s", "s", Lower, 0.0),
    spec("proof.check_s", "s", Lower, 0.0),
    spec("proof.check_share", "ratio", Lower, 0.0),
    spec("proof.check_share_reported", "ratio", Lower, 0.0),
    spec("proof.steps", "count", Lower, 0.0),
    spec("proof.episodes", "count", Higher, 0.0),
    spec("proof.check_steps_per_s", "1/s", Higher, 0.0),
    spec("validate.s", "s", Lower, 0.0),
    spec("validate.witnesses", "count", Higher, 0.0),
    spec("validate.invariants", "count", Higher, 0.0),
    spec("trace.overhead_share", "ratio", Lower, 0.0),
];

/// A metric's value with the spread of the samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stat {
    /// The median of `samples`, with their quartiles.
    pub fn of(samples: &[f64]) -> Stat {
        let (q1, value, q3) = quartiles(samples);
        Stat {
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// The smallest of `samples`, with their quartiles: a wide quartile
    /// range still marks the run as noisy.
    fn fastest(samples: &[f64]) -> Stat {
        Stat {
            value: samples.iter().copied().fold(f64::INFINITY, f64::min),
            ..Stat::of(samples)
        }
    }

    fn exact(value: f64, n: usize) -> Stat {
        Stat {
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// Interquartile distance as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.q3 == self.q1 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of a session's untraced passes, in
/// [`END_TO_END`] order.
pub fn end_to_end(s: &Session) -> Vec<Stat> {
    let passes = &s.passes;
    let n = passes.len();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    // Per-file times cluster by file, so a percentile pooled over passes
    // jumps from one file's cluster to the next as the pass count changes.
    // Each pass's own p90 sits at a fixed rank among its files instead.
    let p90s: Vec<f64> = passes.iter().map(|p| quantile(&p.files_ms, 0.9)).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.rss_mb).collect();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let decided: u64 = passes.iter().map(|p| p.decided).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    vec![
        Stat::of(&s.setup_s),
        Stat::fastest(&walls),
        Stat::fastest(&p90s),
        Stat::of(&rss),
        Stat::exact(ratio(decided as f64, attempted as f64), n),
        Stat::exact(ratio((attempted - failed) as f64, attempted as f64), n),
    ]
}

/// The per-layer metrics, in [`PER_LAYER`] order: layer times are medians
/// over the traced passes, counts come from the first traced pass (they are
/// the same in every pass), and the rest from the A/B calls.
pub fn per_layer(s: &Session) -> Vec<Stat> {
    let traced = &s.traced;
    let n = traced.len();
    let first = traced.first().cloned().unwrap_or_default();
    let ab = s.ab.clone().unwrap_or_default();
    let span = |name: &str| Stat::of(&traced.iter().map(|p| p.span(name)).collect::<Vec<_>>());
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let count = |name: &str| Stat::exact(first.count(name), n);
    let exact = |value: f64| Stat::exact(value, n);

    let traced_wall = med(&|p| p.wall_s);
    let untraced_wall = median(&s.passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    // Each traced pass runs right after an untraced one; comparing within
    // these pairs cancels the host's drift between them.
    let paired = &s.passes[s.passes.len().saturating_sub(n)..];
    let overheads: Vec<f64> = traced
        .iter()
        .zip(paired)
        .map(|(t, u)| ratio(t.wall_s, u.wall_s) - 1.0)
        .collect();
    let parse = span("aiger.parse_s");
    let engine = span("engine.s");
    let frontend = med(&|p| {
        ["aiger.parse_s", "lint.s", "problem.build_s", "preprocess.s"]
            .iter()
            .map(|l| p.span(l))
            .sum::<f64>()
            / p.wall_s
    });
    let check_s = ab.get("proof.own_s") - ab.get("proof.log_s");
    let check_reported = med(&|p| p.check_s_reported);
    let propagations = first.count("solver.propagations");
    let solve_calls = first.count("solver.solve_calls");
    let stats = vec![
        parse,
        exact(ratio(first.count("aiger.bytes") / 1e6, parse.value)),
        span("lint.s"),
        count("lint.diagnostics"),
        span("problem.build_s"),
        span("preprocess.s"),
        exact(ratio(
            first.count("preprocess.latches_after"),
            first.count("preprocess.latches_before"),
        )),
        exact(frontend),
        span("engine.new_s"),
        engine,
        exact(med(&|p| ratio(p.span("engine.s"), p.wall_s))),
        exact(ab.get("unroll.encode_s")),
        exact(ab.get("unroll.clauses")),
        count("solver.decisions"),
        count("solver.propagations"),
        count("solver.conflicts"),
        count("solver.solve_calls"),
        exact(ratio(propagations, engine.value)),
        exact(ratio(engine.value, solve_calls) * 1e6),
        exact(first.count("solver.arena_peak_bytes") / (1024.0 * 1024.0)),
        count("ranking.core_vars"),
        exact(ratio(
            first.count("ranking.switched_depths"),
            first.count("ranking.depths"),
        )),
        count("ranking.rank_peak_entries"),
        count("cdg.peak_nodes"),
        exact(ab.get("cdg.record_s") - ab.get("cdg.plain_s")),
        count("ic3.invariant_clauses"),
        exact(ab.get("proof.log_s") - ab.get("proof.off_s")),
        exact(check_s),
        exact(ratio(check_s, untraced_wall)),
        exact(ratio(check_reported, traced_wall)),
        count("proof.steps"),
        count("proof.episodes"),
        exact(ratio(first.count("proof.steps"), check_reported)),
        span("validate.s"),
        count("validate.witnesses"),
        count("validate.invariants"),
        Stat::of(&overheads),
    ];
    assert_eq!(
        stats.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    stats
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` by the metric's bound: unresolved when
/// either side's interquartile spread exceeds the bound, otherwise worse or
/// better when the medians differ by more than the bound.
pub fn judge(spec: &Spec, base: &Stat, new: &Stat) -> Verdict {
    if base.spread() > spec.bound || new.spread() > spec.bound {
        return Verdict::Unresolved;
    }
    let change = ratio(new.value - base.value, base.value.abs());
    let worsening = match spec.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > spec.bound {
        Verdict::Worse
    } else if worsening < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn stat(value: f64, spread: f64) -> Stat {
        Stat {
            value,
            q1: value * (1.0 - spread / 2.0),
            q3: value * (1.0 + spread / 2.0),
            n: 10,
        }
    }

    #[test]
    fn judge_applies_the_bound_both_ways() {
        let wall = &END_TO_END[1];
        assert_eq!(wall.bound, 0.25);
        assert_eq!(
            judge(wall, &stat(2.0, 0.05), &stat(2.4, 0.05)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(wall, &stat(2.0, 0.05), &stat(2.6, 0.05)),
            Verdict::Worse
        );
        assert_eq!(
            judge(wall, &stat(2.0, 0.05), &stat(1.4, 0.05)),
            Verdict::Better
        );
        assert_eq!(
            judge(wall, &stat(2.0, 0.30), &stat(2.0, 0.05)),
            Verdict::Unresolved
        );
        let decided = &END_TO_END[4];
        let (base, new) = (Stat::exact(1.0, 3), Stat::exact(44.0 / 45.0, 3));
        assert_eq!(judge(decided, &base, &new), Verdict::Worse);
    }

    fn names(list: &Json) -> Vec<String> {
        list.arr()
            .iter()
            .map(|m| m.get("name").and_then(Json::str).unwrap_or("").to_string())
            .collect()
    }

    /// `BENCHMARK.json` at the repository root lists the same workloads and
    /// metrics, with the same units, directions and bounds, as the code.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        let bench = json::parse(&text).expect("BENCHMARK.json parses");
        let workloads = names(bench.get("workloads").unwrap());
        let expected: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, expected);
        for (key, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = bench.get(key).unwrap().arr();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (m, s) in listed.iter().zip(specs) {
                assert_eq!(m.get("name").and_then(Json::str), Some(s.name));
                assert_eq!(
                    m.get("unit").and_then(Json::str),
                    Some(s.unit),
                    "{}",
                    s.name
                );
                assert_eq!(m.get("better").and_then(Json::str), Some(s.better.label()));
                if key == "end_to_end" {
                    assert_eq!(
                        m.get("bound").and_then(Json::num),
                        Some(s.bound),
                        "{}",
                        s.name
                    );
                }
            }
        }
    }
}
