//! The five workloads: what each one feeds the verifier, how it is
//! configured, and the verdict every property must reach.
//!
//! Set-up writes a workload's inputs into a directory together with a
//! manifest that lists the files in the order a pass checks them (sorted by
//! name, as `rbmc` sweeps a directory) and each property's expected
//! verdict. The corpus is fixed. For the wide instances the seed picks the
//! falsifying property, the other targets and the ring taps; the amount of
//! work stays the same from seed to seed.
//!
//! The file order is fixed because it moves peak memory: the same files in
//! another order fragment the heap differently, by up to a fifth.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use rbmc_circuit::aiger::{write_aag, write_aig};
use rbmc_circuit::{LatchInit, Netlist, Signal};
use rbmc_core::{BmcOptions, OrderingStrategy, ProblemBuilder, ProofMode, VerificationProblem};
use rbmc_gens::corpus::{export_corpus, problem_to_aig};
use rbmc_gens::{proof_suite, small_suite, suite_table1, Expectation};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSel {
    Bmc,
    Ic3,
}

#[derive(Clone, Copy, Debug)]
pub enum Inputs {
    /// The corpus `rbmc --export-corpus` writes, minus the named instances.
    Corpus { exclude: &'static [&'static str] },
    /// Seeded wide instances: `files` of them, each with a `ring`-latch
    /// XOR ring outside every property's cone.
    Wide { files: usize, ring: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub engine: EngineSel,
    /// BMC depth bound, or IC3 frame bound.
    pub depth: usize,
    pub proof: ProofMode,
    pub inputs: Inputs,
}

/// The paper's dynamic configuration with its divisor of 64, as `rbmc` runs
/// it by default.
const STRATEGY: OrderingStrategy = OrderingStrategy::RefinedDynamic { divisor: 64 };

/// Sizes are chosen so one pass takes about 1–2 s on a 2-core host, which
/// fits ten or more passes into a 20 s run: on a shared host the speed of a
/// core swings by a fifth from second to second, and a median needs many
/// passes to settle. The reason for each workload is in the README.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bmc-deep",
        engine: EngineSel::Bmc,
        depth: 22,
        proof: ProofMode::Off,
        inputs: Inputs::Corpus { exclude: &[] },
    },
    Workload {
        name: "bmc-certified",
        engine: EngineSel::Bmc,
        depth: 18,
        proof: ProofMode::Check,
        inputs: Inputs::Corpus { exclude: &[] },
    },
    Workload {
        name: "ic3-prove",
        engine: EngineSel::Ic3,
        depth: 20,
        proof: ProofMode::Off,
        inputs: Inputs::Corpus {
            exclude: &["26_2_drift8x8"],
        },
    },
    Workload {
        name: "ic3-certified",
        engine: EngineSel::Ic3,
        depth: 20,
        proof: ProofMode::Check,
        inputs: Inputs::Corpus {
            exclude: &["10_2_drift4x8", "26_1_drift8x6", "26_2_drift8x8"],
        },
    },
    Workload {
        name: "frontend-wide",
        engine: EngineSel::Bmc,
        depth: 6,
        proof: ProofMode::Off,
        inputs: Inputs::Wide {
            files: 4,
            ring: 50_000,
        },
    },
];

/// Smoke mode: every workload's code path on the small suite at depth 6,
/// and one wide instance with a 20k-latch ring.
const SMOKE_DEPTH: usize = 6;
const SMOKE_RING: usize = 20_000;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn depth(&self, smoke: bool) -> usize {
        if smoke {
            SMOKE_DEPTH
        } else {
            self.depth
        }
    }

    /// The engine options of a pass: single-threaded, preprocessing on.
    pub fn options(&self, smoke: bool) -> BmcOptions {
        BmcOptions {
            max_depth: self.depth(smoke),
            strategy: STRATEGY,
            proof: self.proof,
            ..BmcOptions::default()
        }
    }
}

/// The verdict a property must reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Falsified(usize),
    OpenAt(usize),
    Proved,
}

impl Expect {
    /// Ground truth of a generated instance under `engine` with bound
    /// `depth`: a failing property falsifies at its depth when the bound
    /// reaches it; a holding one stays open under BMC and is proved by IC3.
    pub fn of(expectation: Expectation, engine: EngineSel, depth: usize) -> Expect {
        match expectation {
            Expectation::FailsAt(d) if d <= depth => Expect::Falsified(d),
            Expectation::FailsAt(_) => Expect::OpenAt(depth),
            Expectation::Holds if engine == EngineSel::Ic3 => Expect::Proved,
            Expectation::Holds => Expect::OpenAt(depth),
        }
    }

    fn token(self) -> String {
        match self {
            Expect::Falsified(d) => format!("F{d}"),
            Expect::OpenAt(d) => format!("O{d}"),
            Expect::Proved => "P".into(),
        }
    }

    fn parse(token: &str) -> Option<Expect> {
        let (tag, depth) = token.split_at_checked(1)?;
        match tag {
            "F" => depth.parse().ok().map(Expect::Falsified),
            "O" => depth.parse().ok().map(Expect::OpenAt),
            "P" if depth.is_empty() => Some(Expect::Proved),
            _ => None,
        }
    }
}

/// One input file and the expected verdict of each of its properties.
#[derive(Clone, Debug)]
pub struct Entry {
    pub file: String,
    pub expect: Vec<Expect>,
}

const MANIFEST: &str = "manifest.tsv";

/// Reads the manifest set-up wrote into `dir`.
pub fn read_manifest(dir: &Path) -> Result<Vec<Entry>, String> {
    let path = dir.join(MANIFEST);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let (file, expects) = line
                .split_once('\t')
                .ok_or_else(|| format!("bad manifest line `{line}`"))?;
            let expect = expects
                .split(',')
                .map(|t| Expect::parse(t).ok_or_else(|| format!("bad expectation `{t}`")))
                .collect::<Result<_, _>>()?;
            Ok(Entry {
                file: file.to_string(),
                expect,
            })
        })
        .collect()
}

/// SplitMix64: the benchmark's seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Generates the workload's inputs into `dir` (which must exist and be
/// empty) and writes the manifest.
pub fn setup(w: &Workload, seed: u64, smoke: bool, dir: &Path) -> io::Result<()> {
    let mut rng = Rng(seed);
    let depth = w.depth(smoke);
    let mut entries = match w.inputs {
        Inputs::Corpus { exclude } => {
            // The proof suite needs more than the smoke depth's frames for
            // IC3 to converge, so smoke mode leaves it out.
            let mut suite = if smoke {
                small_suite()
            } else {
                let mut suite = suite_table1();
                suite.extend(proof_suite());
                suite
            };
            suite.retain(|b| !exclude.contains(&b.name.as_str()));
            export_corpus(dir, &suite)?;
            let mut entries: Vec<Entry> = suite
                .iter()
                .map(|b| Entry {
                    file: format!("{}.aag", b.name),
                    expect: vec![Expect::of(b.expectation, w.engine, depth)],
                })
                .collect();
            // `export_corpus` adds the two-property counter in both
            // encodings: `reach6` fails at depth 3, `reach7` holds.
            let multi = [Expectation::FailsAt(3), Expectation::Holds]
                .map(|e| Expect::of(e, w.engine, depth))
                .to_vec();
            for ext in ["aag", "aig"] {
                entries.push(Entry {
                    file: format!("zz_multi_even_counter.{ext}"),
                    expect: multi.clone(),
                });
            }
            entries
        }
        Inputs::Wide { files, ring } => {
            let (files, ring) = if smoke {
                (1, SMOKE_RING)
            } else {
                (files, ring)
            };
            (0..files)
                .map(|i| {
                    let (problem, expect) =
                        wide_instance(&mut rng, &format!("wide{i}"), ring, depth);
                    let aig = problem_to_aig(&problem);
                    // Half the files in each encoding.
                    let (file, bytes) = if i % 2 == 0 {
                        (format!("wide{i}.aag"), write_aag(&aig).into_bytes())
                    } else {
                        (format!("wide{i}.aig"), write_aig(&aig))
                    };
                    std::fs::write(dir.join(&file), bytes)?;
                    Ok(Entry { file, expect })
                })
                .collect::<io::Result<_>>()?
        }
    };
    entries.sort_by(|a, b| a.file.cmp(&b.file));
    let mut manifest = String::new();
    for e in &entries {
        let expects: Vec<String> = e.expect.iter().map(|x| x.token()).collect();
        let _ = writeln!(manifest, "{}\t{}", e.file, expects.join(","));
    }
    std::fs::write(dir.join(MANIFEST), manifest)
}

/// Properties per wide instance, counter width, and the target of the one
/// property per instance that falsifies.
const WIDE_PROPS: usize = 16;
const COUNTER_BITS: usize = 16;
const SHALLOW_TARGET: u64 = 2;

/// A wide instance: 16 properties, each `counter == target` over its own
/// 16-bit enable-gated counter, plus a `ring`-latch XOR ring that no
/// property reads. A counter reaches `target` first at depth `target`, so a
/// property falsifies there when `target ≤ depth` and is open at `depth`
/// otherwise. One property, picked by the seed, has target 2; the seed also
/// picks the other targets, all above `depth`, and the ring taps.
///
/// Replaying a witness simulates the whole ring once per frame, so the
/// instance has one short witness: more would bury the front end, which
/// this workload exists to measure, under witness replay.
fn wide_instance(
    rng: &mut Rng,
    name: &str,
    ring: usize,
    depth: usize,
) -> (VerificationProblem, Vec<Expect>) {
    let mut n = Netlist::new();
    let shallow = rng.below(WIDE_PROPS as u64) as usize;
    let mut props = Vec::with_capacity(WIDE_PROPS);
    let mut expect = Vec::with_capacity(WIDE_PROPS);
    for p in 0..WIDE_PROPS {
        let is_shallow = p == shallow;
        let enable = n.add_input(&format!("en{p}"));
        let bits: Vec<Signal> = (0..COUNTER_BITS)
            .map(|i| n.add_latch(&format!("c{p}_{i}"), LatchInit::Zero))
            .collect();
        let incremented = n.bus_increment(&bits);
        for (&b, &inc) in bits.iter().zip(&incremented) {
            let next = n.mux(enable, inc, b);
            n.set_next(b, next);
        }
        let target = if is_shallow {
            SHALLOW_TARGET
        } else {
            depth as u64 + 1 + rng.below((1 << COUNTER_BITS) - depth as u64 - 1)
        };
        props.push((format!("p{p}"), n.bus_eq_const(&bits, target)));
        expect.push(if is_shallow {
            Expect::Falsified(target as usize)
        } else {
            Expect::OpenAt(depth)
        });
    }
    let feed = n.add_input("ring_in");
    let cells: Vec<Signal> = (0..ring)
        .map(|i| n.add_latch(&format!("r{i}"), LatchInit::Zero))
        .collect();
    for i in 0..ring {
        let prev = if i == 0 { feed } else { cells[i - 1] };
        let tap = cells[rng.below(ring as u64) as usize];
        let next = n.xor2(prev, tap);
        n.set_next(cells[i], next);
    }
    let mut builder = ProblemBuilder::new(name, n);
    for (prop, bad) in props {
        builder = builder.property(&prop, bad);
    }
    (builder.build(), expect)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_tokens_round_trip() {
        for e in [Expect::Falsified(3), Expect::OpenAt(26), Expect::Proved] {
            assert_eq!(Expect::parse(&e.token()), Some(e));
        }
        assert_eq!(Expect::parse("X1"), None);
        assert_eq!(Expect::parse(""), None);
    }

    #[test]
    fn holding_properties_are_proved_only_by_ic3() {
        let holds = Expectation::Holds;
        assert_eq!(Expect::of(holds, EngineSel::Ic3, 20), Expect::Proved);
        assert_eq!(Expect::of(holds, EngineSel::Bmc, 20), Expect::OpenAt(20));
        let fails = Expectation::FailsAt(17);
        assert_eq!(Expect::of(fails, EngineSel::Bmc, 19), Expect::Falsified(17));
        assert_eq!(Expect::of(fails, EngineSel::Bmc, 6), Expect::OpenAt(6));
    }

    #[test]
    fn the_seed_fixes_the_wide_instance() {
        let make = |seed| {
            let (problem, expect) = wide_instance(&mut Rng(seed), "w", 64, 6);
            (write_aag(&problem_to_aig(&problem)), expect)
        };
        let (text, expect) = make(7);
        assert_eq!(make(7), (text.clone(), expect.clone()));
        assert_ne!(make(8).0, text);
        let shallow: Vec<&Expect> = expect
            .iter()
            .filter(|e| matches!(e, Expect::Falsified(_)))
            .collect();
        assert_eq!(shallow, [&Expect::Falsified(SHALLOW_TARGET as usize)]);
    }
}
