//! Counterexample traces and their validation.

use std::error::Error;
use std::fmt;

use rbmc_circuit::sim::{read_signal, Simulator};
use rbmc_circuit::NodeId;

use crate::{Model, Unroller};

/// A counterexample to an invariant: an initial register state and an input
/// vector per frame, ending in a frame where the bad signal holds.
///
/// # Examples
///
/// ```
/// use rbmc_circuit::{LatchInit, Netlist};
/// use rbmc_core::{BmcEngine, BmcOptions, Model, PropertyVerdict};
///
/// let mut n = Netlist::new();
/// let t = n.add_latch("t", LatchInit::Zero);
/// n.set_next(t, !t);
/// let model = Model::new("toggle", n, t);
/// let mut engine = BmcEngine::new(model, BmcOptions { max_depth: 4, ..Default::default() });
/// let run = engine.run_collecting();
/// if let PropertyVerdict::Falsified { trace, .. } = &run.properties[0].verdict {
///     assert_eq!(trace.depth(), 1);
///     assert!(trace.validate(engine.model()).is_ok());
/// } else {
///     panic!("toggle reaches 1 at depth 1");
/// }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    initial_state: Vec<bool>,
    inputs: Vec<Vec<bool>>,
}

/// Why a trace failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The initial state disagrees with a latch's declared reset value.
    BadInitialState {
        /// Index into [`rbmc_circuit::Netlist::latches`].
        latch_index: usize,
    },
    /// Replaying the trace does not make the bad signal true at the final
    /// frame.
    BadNotReached,
    /// The trace's vector sizes do not match the model.
    ShapeMismatch,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadInitialState { latch_index } => {
                write!(
                    f,
                    "initial value of latch {latch_index} contradicts its reset"
                )
            }
            TraceError::BadNotReached => {
                write!(f, "replay does not reach a bad state at the final frame")
            }
            TraceError::ShapeMismatch => write!(f, "trace shape does not match the model"),
        }
    }
}

impl Error for TraceError {}

impl Trace {
    /// Builds a trace from raw parts: an initial state and one input vector
    /// per frame (IC3 reads them off its obligation chain; BMC extracts
    /// traces with [`Trace::from_assignment`]).
    pub fn from_parts(initial_state: Vec<bool>, inputs: Vec<Vec<bool>>) -> Trace {
        Trace {
            initial_state,
            inputs,
        }
    }

    /// Extracts the trace from a satisfying assignment of `F_k`: the
    /// frame-0 latch values (in [`Netlist::latches`] order) and each frame's
    /// input values (in [`Netlist::inputs`] order). The netlist's id lists
    /// are read once per trace, not once per frame.
    ///
    /// [`Netlist::latches`]: rbmc_circuit::Netlist::latches
    /// [`Netlist::inputs`]: rbmc_circuit::Netlist::inputs
    pub fn from_assignment(unroller: &Unroller<'_>, assignment: &[bool], depth: usize) -> Trace {
        let netlist = unroller.model().netlist();
        let read = |ids: &[NodeId], frame: usize| -> Vec<bool> {
            ids.iter()
                .map(|&id| assignment[unroller.var_of(id, frame).index()])
                .collect()
        };
        let inputs = netlist.inputs();
        Trace {
            initial_state: read(&netlist.latches(), 0),
            inputs: (0..=depth).map(|frame| read(&inputs, frame)).collect(),
        }
    }

    /// The counterexample length `k` (bad state reached at frame `k`).
    pub fn depth(&self) -> usize {
        self.inputs.len().saturating_sub(1)
    }

    /// The initial register state (in latch order).
    pub fn initial_state(&self) -> &[bool] {
        &self.initial_state
    }

    /// The input vectors, one per frame `0..=depth` (in input order).
    pub fn inputs(&self) -> &[Vec<bool>] {
        &self.inputs
    }

    /// Replays the trace on the simulator and checks that it is a genuine
    /// counterexample: consistent with the reset values, and driving the
    /// model into a bad state at the final frame.
    ///
    /// For a multi-property [`VerificationProblem`](crate::VerificationProblem),
    /// validate against the falsified property's own signal with
    /// [`Trace::validate_against`]; this method checks the model's primary
    /// property.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first inconsistency.
    pub fn validate(&self, model: &Model) -> Result<(), TraceError> {
        self.validate_against(model.netlist(), model.bad())
    }

    /// [`Trace::validate`] against an explicit netlist and bad-state signal
    /// (one property of a multi-property problem).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first inconsistency.
    pub fn validate_against(
        &self,
        netlist: &rbmc_circuit::Netlist,
        bad: rbmc_circuit::Signal,
    ) -> Result<(), TraceError> {
        if self.initial_state.len() != netlist.num_latches() || self.inputs.is_empty() {
            return Err(TraceError::ShapeMismatch);
        }
        for (i, (&id, &value)) in netlist
            .latches()
            .iter()
            .zip(&self.initial_state)
            .enumerate()
        {
            use rbmc_circuit::{LatchInit, Node};
            if let Node::Latch { init, .. } = netlist.node(id) {
                let consistent = match init {
                    LatchInit::Zero => !value,
                    LatchInit::One => value,
                    LatchInit::Free => true,
                };
                if !consistent {
                    return Err(TraceError::BadInitialState { latch_index: i });
                }
            }
        }
        // One simulator, so the gate order is derived once for the whole
        // trace, and one evaluation per frame: stepping returns the values
        // of the frame it leaves, and only the final frame reads `bad`.
        let num_inputs = netlist.num_inputs();
        let mut sim = Simulator::with_state(netlist, self.initial_state.clone());
        for (frame, inputs) in self.inputs.iter().enumerate() {
            if inputs.len() != num_inputs {
                return Err(TraceError::ShapeMismatch);
            }
            if frame == self.depth() {
                if !read_signal(&sim.frame_values(inputs), bad) {
                    return Err(TraceError::BadNotReached);
                }
            } else {
                sim.step(inputs);
            }
        }
        Ok(())
    }

    /// Pretty-prints the trace as one line per frame (registers then inputs
    /// as 0/1 strings), for the examples and diagnostics.
    pub fn render(&self, model: &Model) -> String {
        let netlist = model.netlist();
        let mut out = String::new();
        let mut sim = Simulator::with_state(netlist, self.initial_state.clone());
        for (frame, inputs) in self.inputs.iter().enumerate() {
            let state: String = sim
                .state()
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            let ins: String = inputs.iter().map(|&b| if b { '1' } else { '0' }).collect();
            let values = sim.step(inputs);
            let bad = read_signal(&values, model.bad());
            out.push_str(&format!(
                "frame {frame:>3}: state={state} inputs={ins}{}\n",
                if bad { "  <- bad" } else { "" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_circuit::{LatchInit, Netlist};

    /// Toggle latch; bad when it is 1 — fails at depth 1.
    fn toggle_model() -> Model {
        let mut n = Netlist::new();
        let t = n.add_latch("t", LatchInit::Zero);
        n.set_next(t, !t);
        Model::new("toggle", n, t)
    }

    #[test]
    fn valid_trace_accepted() {
        let model = toggle_model();
        let trace = Trace::from_parts(vec![false], vec![vec![], vec![]]);
        assert_eq!(trace.depth(), 1);
        assert!(trace.validate(&model).is_ok());
    }

    #[test]
    fn wrong_initial_state_rejected() {
        let model = toggle_model();
        let trace = Trace::from_parts(vec![true], vec![vec![]]);
        assert_eq!(
            trace.validate(&model),
            Err(TraceError::BadInitialState { latch_index: 0 })
        );
    }

    #[test]
    fn non_failing_trace_rejected() {
        let model = toggle_model();
        // At depth 0 the toggle is still 0: not a counterexample.
        let trace = Trace::from_parts(vec![false], vec![vec![]]);
        assert_eq!(trace.validate(&model), Err(TraceError::BadNotReached));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let model = toggle_model();
        let trace = Trace::from_parts(vec![false, true], vec![vec![]]);
        assert_eq!(trace.validate(&model), Err(TraceError::ShapeMismatch));
        let empty = Trace::from_parts(vec![false], vec![]);
        assert_eq!(empty.validate(&model), Err(TraceError::ShapeMismatch));
    }

    #[test]
    fn render_marks_bad_frame() {
        let model = toggle_model();
        let trace = Trace::from_parts(vec![false], vec![vec![], vec![]]);
        let text = trace.render(&model);
        assert!(text.contains("frame   1"));
        assert!(text.contains("<- bad"));
    }
}
