//! Problem-level structural preprocessing and trace lifting.
//!
//! [`preprocess_problem`] runs the circuit-level pass
//! ([`rbmc_circuit::preprocess`]) over a whole [`VerificationProblem`],
//! seeding the cone-of-influence with **every** property's bad signal, and
//! rebuilds an equivalent problem over the reduced netlist. Because BMC
//! encodes one netlist copy per frame, every node removed here is removed
//! from every frame of every instance — the space savings multiply by the
//! depth bound.
//!
//! The reduced problem speaks reduced coordinates (fewer latches/inputs,
//! renumbered nodes). [`TraceLift`] maps counterexample traces found on it
//! back to the original problem's coordinates, so callers never see the
//! reduction: dropped latches replay at their declared reset value, dropped
//! inputs at `false` — sound because the pass only drops state the seeds
//! structurally cannot observe. Lifted traces validate on the *original*
//! netlist.

use rbmc_circuit::preprocess::{preprocess, PreprocessReport};
use rbmc_circuit::{LatchInit, Netlist, Node};

use crate::{BmcRun, Model, ProblemBuilder, PropertyVerdict, Trace, VerificationProblem};

/// Maps traces found on a preprocessed (reduced) problem back to the
/// original problem's latch/input coordinates.
#[derive(Clone, Debug)]
pub struct TraceLift {
    /// Reduced latch index → original latch index (strictly increasing).
    kept_latches: Vec<usize>,
    /// Reduced input index → original input index (strictly increasing).
    kept_inputs: Vec<usize>,
    /// Declared reset value per original latch (`Free` → `false`): what a
    /// dropped latch replays as.
    default_latch: Vec<bool>,
    /// Number of original inputs.
    num_inputs: usize,
    /// Per original latch: outside every seed's structural cone, so a
    /// witness may print `x` for it.
    dontcare_latches: Vec<bool>,
    /// Same flag per original input.
    dontcare_inputs: Vec<bool>,
}

impl TraceLift {
    /// Builds the lift from the circuit pass's kept/don't-care maps and the
    /// original netlist's declared resets.
    fn new(original: &Netlist, pp: &rbmc_circuit::preprocess::Preprocessed) -> TraceLift {
        let default_latch = original
            .latches()
            .iter()
            .map(|&id| {
                matches!(
                    original.node(id),
                    Node::Latch {
                        init: LatchInit::One,
                        ..
                    }
                )
            })
            .collect();
        TraceLift {
            kept_latches: pp.kept_latches.clone(),
            kept_inputs: pp.kept_inputs.clone(),
            default_latch,
            num_inputs: original.num_inputs(),
            dontcare_latches: pp.dontcare_latches.clone(),
            dontcare_inputs: pp.dontcare_inputs.clone(),
        }
    }

    /// `true` when preprocessing kept every latch and input: lifted traces
    /// equal their reduced originals, coordinate for coordinate.
    pub fn is_identity(&self) -> bool {
        self.kept_latches.len() == self.default_latch.len()
            && self.kept_inputs.len() == self.num_inputs
    }

    /// Per **original** latch (creation order): `true` when no property's
    /// cone contains it, so its value is irrelevant and a witness may print
    /// `x`. Swept (stuck-at-reset) latches inside a cone are *not*
    /// don't-care.
    pub fn dontcare_latches(&self) -> &[bool] {
        &self.dontcare_latches
    }

    /// Same flag per original input.
    pub fn dontcare_inputs(&self) -> &[bool] {
        &self.dontcare_inputs
    }

    /// Lifts a trace over the reduced problem to original coordinates:
    /// surviving latches/inputs copy their values across, dropped latches
    /// take their declared reset value, dropped inputs `false`. The result
    /// validates against the original netlist and bad signal.
    pub fn lift(&self, trace: &Trace) -> Trace {
        if self.is_identity() {
            return trace.clone();
        }
        let mut initial = self.default_latch.clone();
        for (reduced_idx, &orig_idx) in self.kept_latches.iter().enumerate() {
            initial[orig_idx] = trace.initial_state()[reduced_idx];
        }
        let inputs = trace
            .inputs()
            .iter()
            .map(|frame| {
                let mut full = vec![false; self.num_inputs];
                for (reduced_idx, &orig_idx) in self.kept_inputs.iter().enumerate() {
                    full[orig_idx] = frame[reduced_idx];
                }
                full
            })
            .collect();
        Trace::from_parts(initial, inputs)
    }
}

/// A [`VerificationProblem`] after structural preprocessing: the reduced
/// problem (same name, same property names, equivalent verdicts at every
/// depth), the [`TraceLift`] back to original coordinates, and the shape
/// accounting.
#[derive(Clone, Debug)]
pub struct PreprocessedProblem {
    /// The reduced problem.
    pub problem: VerificationProblem,
    /// Trace map back to the original coordinates.
    pub lift: TraceLift,
    /// Before/after node counts and per-reduction tallies.
    pub report: PreprocessReport,
}

/// Runs constant sweeping, structural hashing, and COI restriction over
/// `problem`'s netlist, seeded by the union of all property bad signals, and
/// rebuilds the problem over the reduced netlist.
///
/// Per-depth BMC verdicts of the reduced problem equal the original's for
/// every property — the cone union keeps everything any property can
/// observe, sweeping only replaces latches provably stuck at their reset
/// value, and hashing merges gates computing identical functions.
pub fn preprocess_problem(problem: &VerificationProblem) -> PreprocessedProblem {
    let seeds: Vec<_> = problem
        .properties()
        .iter()
        .map(super::problem::Property::bad)
        .collect();
    let pp = preprocess(problem.netlist(), &seeds);
    let lift = TraceLift::new(problem.netlist(), &pp);
    let mut builder = ProblemBuilder::new(problem.name(), pp.netlist.clone());
    for (property, &seed) in problem.properties().iter().zip(&pp.seed_signals) {
        builder = builder.property(property.name(), seed);
    }
    PreprocessedProblem {
        problem: builder.build(),
        lift,
        report: pp.report,
    }
}

/// The model an engine encodes, and — when
/// [`BmcOptions::preprocess`](crate::BmcOptions::preprocess) is on — the
/// problem as given plus the way back to it. Both engines hold one, so they
/// preprocess and lift traces the same way.
pub(crate) struct EngineModel {
    /// The model the solver sees.
    working: Model,
    /// The model as given, the trace map back to it, and the pass's shape
    /// accounting (`None`: the working model *is* the model as given).
    reduced: Option<(Model, TraceLift, PreprocessReport)>,
}

impl EngineModel {
    /// Reduces `model` once, here, when `preprocess` is set.
    pub(crate) fn new(model: Model, preprocess: bool) -> EngineModel {
        if !preprocess {
            return EngineModel {
                working: model,
                reduced: None,
            };
        }
        let problem = model.into_problem();
        let pp = preprocess_problem(&problem);
        EngineModel {
            working: Model::from_problem(pp.problem),
            reduced: Some((Model::from_problem(problem), pp.lift, pp.report)),
        }
    }

    /// The model as given (the coordinates of every returned trace).
    pub(crate) fn original(&self) -> &Model {
        self.reduced.as_ref().map_or(&self.working, |(m, _, _)| m)
    }

    /// The model the solver encodes.
    pub(crate) fn working(&self) -> &Model {
        &self.working
    }

    /// The trace map back to the model as given.
    pub(crate) fn lift(&self) -> Option<&TraceLift> {
        self.reduced.as_ref().map(|(_, lift, _)| lift)
    }

    /// The preprocessing pass's shape accounting.
    pub(crate) fn report(&self) -> Option<&PreprocessReport> {
        self.reduced.as_ref().map(|(_, _, report)| report)
    }

    /// Lifts every counterexample of `run` out of working coordinates:
    /// callers only ever see the problem they posed.
    pub(crate) fn lift_traces(&self, run: &mut BmcRun) {
        let Some(lift) = self.lift().filter(|l| !l.is_identity()) else {
            return;
        };
        for prop in &mut run.properties {
            if let PropertyVerdict::Falsified { trace, .. } = &mut prop.verdict {
                *trace = lift.lift(trace);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_circuit::{Netlist, Signal};

    /// Stuck latch + two 3-bit counters; `bad = stuck ∨ a₂` ignores counter
    /// b entirely, and a primary input feeds only counter b.
    fn mixed_problem() -> VerificationProblem {
        let mut n = Netlist::new();
        let stuck = n.add_latch("stuck", LatchInit::Zero);
        n.set_next(stuck, stuck);
        let a: Vec<Signal> = (0..3)
            .map(|i| n.add_latch(&format!("a{i}"), LatchInit::Zero))
            .collect();
        let b: Vec<Signal> = (0..3)
            .map(|i| n.add_latch(&format!("b{i}"), LatchInit::Zero))
            .collect();
        let enable = n.add_input("enable");
        let an = n.bus_increment(&a);
        for (&l, &nx) in a.iter().zip(&an) {
            n.set_next(l, nx);
        }
        let bn = n.bus_increment(&b);
        for (&l, &nx) in b.iter().zip(&bn) {
            let gated = n.mux(enable, nx, l);
            n.set_next(l, gated);
        }
        let bad = n.or2(stuck, a[2]);
        ProblemBuilder::new("mixed", n).property("bad", bad).build()
    }

    #[test]
    fn reduces_problem_and_keeps_names() {
        let problem = mixed_problem();
        let pp = preprocess_problem(&problem);
        assert_eq!(pp.problem.name(), "mixed");
        assert_eq!(pp.problem.num_properties(), 1);
        assert_eq!(pp.problem.property(0).name(), "bad");
        // `stuck` swept, counter b and its enable input out of cone.
        assert_eq!(pp.problem.netlist().num_latches(), 3);
        assert_eq!(pp.problem.netlist().num_inputs(), 0);
        assert_eq!(pp.report.swept_latches, 1);
        assert!(!pp.lift.is_identity());
    }

    #[test]
    fn lift_restores_original_coordinates() {
        let problem = mixed_problem();
        let pp = preprocess_problem(&problem);
        // A counterexample of the reduced 3-latch problem: counter a reaches
        // 4 (a₂ set) after four steps from reset.
        let reduced_trace = Trace::from_parts(
            vec![false, false, false],
            vec![vec![]; 5], // reduced problem has no inputs
        );
        reduced_trace
            .validate_against(pp.problem.netlist(), pp.problem.primary().bad())
            .expect("reduced trace is genuine");
        let lifted = pp.lift.lift(&reduced_trace);
        assert_eq!(lifted.initial_state().len(), 7);
        assert_eq!(lifted.inputs()[0].len(), 1);
        lifted
            .validate_against(problem.netlist(), problem.primary().bad())
            .expect("lifted trace replays on the original netlist");
    }

    #[test]
    fn dontcare_masks_cover_dropped_state_only() {
        let problem = mixed_problem();
        let pp = preprocess_problem(&problem);
        // stuck (swept, in cone) and counter a: not don't-care; counter b: is.
        assert_eq!(
            pp.lift.dontcare_latches(),
            &[false, false, false, false, true, true, true]
        );
        assert_eq!(pp.lift.dontcare_inputs(), &[true]);
    }

    #[test]
    fn identity_lift_on_fully_live_problem() {
        let mut n = Netlist::new();
        let bits: Vec<Signal> = (0..4)
            .map(|i| n.add_latch(&format!("c{i}"), LatchInit::Zero))
            .collect();
        let next = n.bus_increment(&bits);
        for (&l, &nx) in bits.iter().zip(&next) {
            n.set_next(l, nx);
        }
        let bad = n.bus_eq_const(&bits, 11);
        let problem = ProblemBuilder::new("live", n).property("bad", bad).build();
        let pp = preprocess_problem(&problem);
        assert!(pp.lift.is_identity());
        assert_eq!(pp.problem.netlist().num_latches(), 4);
        let trace = Trace::from_parts(vec![false; 4], vec![vec![]; 3]);
        assert_eq!(pp.lift.lift(&trace), trace);
    }

    #[test]
    fn one_init_latches_lift_to_one() {
        // A dropped latch with One reset must replay as 1, not 0, or the
        // lifted trace fails initial-state validation.
        let mut n = Netlist::new();
        let hi = n.add_latch("hi", LatchInit::One);
        n.set_next(hi, !hi); // live shape, but out of the property cone
        let t = n.add_latch("t", LatchInit::Zero);
        n.set_next(t, !t);
        let problem = ProblemBuilder::new("p", n).property("bad", t).build();
        let pp = preprocess_problem(&problem);
        assert_eq!(pp.problem.netlist().num_latches(), 1);
        let lifted = pp
            .lift
            .lift(&Trace::from_parts(vec![false], vec![vec![], vec![]]));
        assert_eq!(lifted.initial_state(), &[true, false]);
        lifted
            .validate_against(problem.netlist(), problem.primary().bad())
            .expect("lifted trace valid");
    }
}
