//! The model `⟨V, W, I, T⟩` plus the invariant under check.

use rbmc_circuit::{Netlist, Signal};

use crate::{ProblemBuilder, Property, VerificationProblem};

/// A single-property view of a [`VerificationProblem`]: a sequential netlist
/// and a *bad-state* predicate (`bad = ¬P` for the invariant `G P`).
///
/// The netlist supplies the registers `V` (latches with initial values,
/// i.e. `I`), the inputs `W`, and the transition relation `T` (the latches'
/// next-state functions). `bad` is a signal over the current frame; a
/// counterexample is an initialized path that makes it true.
///
/// `Model` is the historical front door of the engine and is kept as the
/// entry point of the figure-reproducing binaries (the paper checks one
/// property per run). It is a thin wrapper: constructors build a one-property
/// [`VerificationProblem`], and the accessors expose that problem's *primary*
/// (first) property. Multi-property work goes through [`ProblemBuilder`] and
/// [`BmcEngine::for_problem`](crate::BmcEngine::for_problem) instead.
///
/// # Examples
///
/// ```
/// use rbmc_circuit::{LatchInit, Netlist};
/// use rbmc_core::Model;
///
/// let mut n = Netlist::new();
/// let t = n.add_latch("t", LatchInit::Zero);
/// n.set_next(t, !t);
/// // Invariant "t is never 1 at an even step" is violated at depth 1.
/// let model = Model::new("toggle", n, t);
/// assert_eq!(model.name(), "toggle");
/// assert_eq!(model.num_registers(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    problem: VerificationProblem,
}

impl Model {
    /// Creates a model from a netlist and a bad-state signal.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::validate`].
    pub fn new(name: &str, netlist: Netlist, bad: Signal) -> Model {
        Model {
            problem: ProblemBuilder::new(name, netlist)
                .property("bad", bad)
                .build(),
        }
    }

    /// Wraps an existing problem in the single-property view. The wrapped
    /// problem may carry more properties (the engine stores the model it was
    /// given and this is how [`BmcEngine::for_problem`](crate::BmcEngine::for_problem)
    /// threads one through); [`Model::bad`] then exposes the primary one.
    pub fn from_problem(problem: VerificationProblem) -> Model {
        Model { problem }
    }

    /// The underlying (possibly multi-property) problem.
    pub fn problem(&self) -> &VerificationProblem {
        &self.problem
    }

    /// Unwraps into the underlying problem.
    pub fn into_problem(self) -> VerificationProblem {
        self.problem
    }

    /// The instance name (used in benchmark tables).
    pub fn name(&self) -> &str {
        self.problem.name()
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        self.problem.netlist()
    }

    /// The primary property.
    pub fn primary(&self) -> &Property {
        self.problem.primary()
    }

    /// The bad-state signal (`¬P`) of the primary property.
    pub fn bad(&self) -> Signal {
        self.problem.primary().bad()
    }

    /// Number of registers (`|V|`).
    pub fn num_registers(&self) -> usize {
        self.netlist().num_latches()
    }

    /// Number of primary inputs (`|W|`).
    pub fn num_inputs(&self) -> usize {
        self.netlist().num_inputs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_circuit::LatchInit;

    #[test]
    #[should_panic(expected = "well-formed")]
    fn invalid_netlist_rejected() {
        let mut n = Netlist::new();
        let _ = n.add_latch("l", LatchInit::Zero); // never connected
        let _ = Model::new("m", n, rbmc_circuit::Signal::FALSE);
    }
}
