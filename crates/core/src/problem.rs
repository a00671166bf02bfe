//! Multi-property verification problems: one netlist, many safety
//! properties, one shared unrolled transition relation.
//!
//! The paper checks one property per run, but its industrial inputs (and
//! the HWMCC benchmarks the AIGER front end ingests) attach *sets* of
//! bad-state signals to one circuit. All properties of a circuit share the
//! initial-state predicate and transition relation, so the incremental
//! solving session can unroll once and solve every still-open property per
//! depth under its own assumption — see
//! [`BmcEngine::for_problem`](crate::BmcEngine::for_problem).

use std::fmt;

use rbmc_circuit::aiger::{parse_aiger, ParseAigerError};
use rbmc_circuit::{Aig, Netlist, Signal};

/// One named safety property: a *bad-state* signal over the current frame
/// (`bad = ¬P` for the invariant `G P`). A counterexample is an initialized
/// path that makes the signal true.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    name: String,
    bad: Signal,
}

impl Property {
    /// Creates a property from its name and bad-state signal.
    pub fn new(name: &str, bad: Signal) -> Property {
        Property {
            name: name.to_string(),
            bad,
        }
    }

    /// The property name (AIGER `b<i>` symbol, output name, or user-given).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bad-state signal (`¬P`).
    pub fn bad(&self) -> Signal {
        self.bad
    }
}

/// A multi-property model-checking instance: a sequential netlist plus a
/// non-empty set of named bad-state properties.
///
/// Build one with [`ProblemBuilder`] (from a [`Netlist`], an [`Aig`], an
/// AIGER file, or a single-property [`Model`](crate::Model)), then hand it
/// to [`BmcEngine::for_problem`](crate::BmcEngine::for_problem), which
/// checks every property in one incremental solving session.
///
/// # Examples
///
/// ```
/// use rbmc_circuit::{LatchInit, Netlist};
/// use rbmc_core::ProblemBuilder;
///
/// let mut n = Netlist::new();
/// let t = n.add_latch("t", LatchInit::Zero);
/// n.set_next(t, !t);
/// let problem = ProblemBuilder::new("toggle", n)
///     .property("reaches_one", t)
///     .property("reaches_zero", !t)
///     .build();
/// assert_eq!(problem.num_properties(), 2);
/// assert_eq!(problem.property(0).name(), "reaches_one");
/// ```
#[derive(Debug, Clone)]
pub struct VerificationProblem {
    name: String,
    netlist: Netlist,
    properties: Vec<Property>,
}

impl VerificationProblem {
    /// The instance name (used in benchmark tables and runner output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared netlist all properties are checked against.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The property set (never empty).
    pub fn properties(&self) -> &[Property] {
        &self.properties
    }

    /// Number of properties.
    pub fn num_properties(&self) -> usize {
        self.properties.len()
    }

    /// The property at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn property(&self, index: usize) -> &Property {
        &self.properties[index]
    }

    /// The primary (first) property — what the single-property
    /// [`Model`](crate::Model) view exposes.
    pub fn primary(&self) -> &Property {
        &self.properties[0]
    }

    /// Parses an AIGER file (either encoding, auto-detected) into a problem,
    /// taking the bad-state (`B`) lines as the properties; files without a
    /// `B` section fall back to the pre-1.9 convention of reading every
    /// output as a bad-state property.
    ///
    /// # Errors
    ///
    /// Returns [`FromAigerError`] if parsing fails or the file declares
    /// neither bad-state lines nor outputs.
    pub fn from_aiger(name: &str, bytes: &[u8]) -> Result<VerificationProblem, FromAigerError> {
        let aig = parse_aiger(bytes).map_err(FromAigerError::Parse)?;
        let builder = ProblemBuilder::from_aig(name, &aig);
        if builder.num_properties() == 0 {
            return Err(FromAigerError::NoProperties);
        }
        Ok(builder.build())
    }
}

/// Why an AIGER file could not become a [`VerificationProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FromAigerError {
    /// The file does not parse.
    Parse(ParseAigerError),
    /// The file has neither bad-state lines nor outputs to check.
    NoProperties,
}

impl fmt::Display for FromAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromAigerError::Parse(e) => write!(f, "{e}"),
            FromAigerError::NoProperties => {
                write!(f, "aiger file declares no bad-state lines and no outputs")
            }
        }
    }
}

impl std::error::Error for FromAigerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FromAigerError::Parse(e) => Some(e),
            FromAigerError::NoProperties => None,
        }
    }
}

/// Builder for [`VerificationProblem`]s.
///
/// Entry points mirror the front ends: [`ProblemBuilder::new`] for a
/// hand-built [`Netlist`], [`ProblemBuilder::from_aig`] for an [`Aig`]
/// (e.g. freshly parsed AIGER), and
/// [`ProblemBuilder::from_model`] for the single-property
/// [`Model`](crate::Model) the figure-reproducing binaries use.
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    name: String,
    netlist: Netlist,
    properties: Vec<Property>,
}

impl ProblemBuilder {
    /// Starts a problem over a hand-built netlist with no properties yet.
    pub fn new(name: &str, netlist: Netlist) -> ProblemBuilder {
        ProblemBuilder {
            name: name.to_string(),
            netlist,
            properties: Vec::new(),
        }
    }

    /// Starts a problem from an AIG: the netlist is the raised
    /// ([`Aig::to_netlist`]) form, and the property set is pre-populated
    /// from the AIG's bad-state declarations — or, when it has none, from
    /// its outputs (the pre-AIGER-1.9 property convention).
    pub fn from_aig(name: &str, aig: &Aig) -> ProblemBuilder {
        let raised = aig.to_netlist();
        let properties = (aig.properties().iter())
            .map(|(prop_name, lit)| Property::new(prop_name, raised.signal_of(*lit)))
            .collect();
        ProblemBuilder {
            name: name.to_string(),
            netlist: raised.netlist,
            properties,
        }
    }

    /// Starts a problem from a single-property [`Model`](crate::Model),
    /// keeping its netlist and its primary property (name included).
    pub fn from_model(model: &crate::Model) -> ProblemBuilder {
        ProblemBuilder {
            name: model.name().to_string(),
            netlist: model.netlist().clone(),
            properties: vec![model.primary().clone()],
        }
    }

    /// Adds a named property over the builder's netlist.
    pub fn property(mut self, name: &str, bad: Signal) -> ProblemBuilder {
        self.properties.push(Property::new(name, bad));
        self
    }

    /// Number of properties queued so far.
    pub fn num_properties(&self) -> usize {
        self.properties.len()
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::validate`], the property set
    /// is empty, or two properties share a name (per-property reports and
    /// witness files are keyed by name).
    pub fn build(self) -> VerificationProblem {
        self.netlist
            .validate()
            .expect("problem netlist must be well-formed");
        assert!(
            !self.properties.is_empty(),
            "a verification problem needs at least one property"
        );
        for (i, p) in self.properties.iter().enumerate() {
            assert!(
                self.properties[..i].iter().all(|q| q.name() != p.name()),
                "duplicate property name `{}`",
                p.name()
            );
        }
        VerificationProblem {
            name: self.name,
            netlist: self.netlist,
            properties: self.properties,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_circuit::aiger::{write_aag, write_aig};
    use rbmc_circuit::LatchInit;

    fn toggle_netlist() -> (Netlist, Signal) {
        let mut n = Netlist::new();
        let t = n.add_latch("t", LatchInit::Zero);
        n.set_next(t, !t);
        (n, t)
    }

    #[test]
    fn builder_from_netlist() {
        let (n, t) = toggle_netlist();
        let p = ProblemBuilder::new("toggle", n)
            .property("high", t)
            .property("low", !t)
            .build();
        assert_eq!(p.name(), "toggle");
        assert_eq!(p.num_properties(), 2);
        assert_eq!(p.primary().name(), "high");
        assert_eq!(p.property(1).bad(), !t);
    }

    #[test]
    #[should_panic(expected = "at least one property")]
    fn empty_property_set_rejected() {
        let (n, _) = toggle_netlist();
        let _ = ProblemBuilder::new("toggle", n).build();
    }

    #[test]
    #[should_panic(expected = "duplicate property name")]
    fn duplicate_names_rejected() {
        let (n, t) = toggle_netlist();
        let _ = ProblemBuilder::new("toggle", n)
            .property("p", t)
            .property("p", !t)
            .build();
    }

    fn two_property_aig() -> Aig {
        let mut aig = Aig::new();
        let l = aig.add_latch(LatchInit::Zero);
        aig.set_next(l, !l);
        aig.add_bad("high", l);
        aig.add_bad("always_low", !l);
        aig
    }

    #[test]
    fn from_aiger_prefers_bad_lines() {
        let aig = two_property_aig();
        for bytes in [write_aag(&aig).into_bytes(), write_aig(&aig)] {
            let p = VerificationProblem::from_aiger("toggle", &bytes).unwrap();
            assert_eq!(p.num_properties(), 2);
            assert_eq!(p.property(0).name(), "high");
            assert_eq!(p.property(1).name(), "always_low");
        }
    }

    #[test]
    fn from_aiger_falls_back_to_outputs() {
        let mut aig = Aig::new();
        let l = aig.add_latch(LatchInit::Zero);
        aig.set_next(l, !l);
        aig.add_output("bad", l);
        let p = VerificationProblem::from_aiger("toggle", write_aag(&aig).as_bytes()).unwrap();
        assert_eq!(p.num_properties(), 1);
        assert_eq!(p.primary().name(), "bad");
    }

    #[test]
    fn from_aiger_rejects_propertyless_files() {
        let aig = {
            let mut aig = Aig::new();
            let l = aig.add_latch(LatchInit::Zero);
            aig.set_next(l, !l);
            aig
        };
        let err = VerificationProblem::from_aiger("x", write_aag(&aig).as_bytes()).unwrap_err();
        assert_eq!(err, FromAigerError::NoProperties);
        assert!(VerificationProblem::from_aiger("x", b"not aiger").is_err());
    }
}
