//! Static-analysis lint pass over circuits and raw AIGER files.
//!
//! The linter surfaces, as structured [`Diagnostic`]s, the structural facts
//! the BMC pipeline otherwise computes silently (constants, cones of
//! influence) or rejects opaquely (unsupported AIGER sections): a property
//! that folds to a constant needs no solver, a register-free cone needs no
//! unrolling, and logic outside every property cone is dead weight the
//! preprocessor will drop. Each diagnostic carries a stable code (`L001`…),
//! a severity, a location, and a fix hint, so a runner can print them
//! per-file and a CI gate can fail closed on errors (`rbmc --lint deny`).
//!
//! Entry points:
//!
//! - [`lint_properties`]: the core pass over a [`Netlist`] plus named
//!   property signals.
//! - [`lint_aig`]: the same pass over an [`Aig`] (properties are the
//!   bad-state literals, or the outputs when no `B` lines exist — the same
//!   selection the BMC front door makes).
//! - [`lint_aiger_bytes`]: raw-file checks that are invisible after parsing
//!   (unsupported `C`/`J`/`F` sections, non-normalized ASCII AND lines —
//!   the parser folds and strashes, so the parsed [`Aig`] is always
//!   normalized).
//! - [`lint_aiger`]: both of the above over one byte buffer.
//!
//! # Examples
//!
//! ```
//! use rbmc_circuit::lint::{lint_aiger, LintCode};
//!
//! // A single bad-state property that is constant true.
//! let report = lint_aiger(b"aag 0 0 0 0 0 1\n1\n");
//! assert_eq!(report.codes(), vec![LintCode::ConstantProperty]);
//! assert_eq!(report.num_errors(), 1);
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::coi::cone_of_influence;
use crate::sim::ternary_gate;
use crate::{aiger, Aig, Netlist, Node, NodeId, Signal};

/// How serious a diagnostic is.
///
/// Errors describe inputs the pipeline cannot check faithfully (or would
/// reject later with a worse message); warnings describe structure that is
/// legal but almost certainly unintended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but checkable; the run proceeds.
    Warning,
    /// The input is broken or vacuous; `--lint deny` fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identity of one lint check. The numeric codes (`L001`…) are part
/// of the tool's interface: tests, CI filters, and the README table key off
/// them, so codes are never renumbered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `L001`: a property literal folds to constant true or false without
    /// solving — trivially failing, or vacuous.
    ConstantProperty,
    /// `L002`: no register in the property's cone of influence; the property
    /// is purely combinational and needs no unrolling.
    RegisterFreeCoi,
    /// `L003`: primary inputs outside every property cone.
    FloatingInput,
    /// `L004`: latches outside every property cone.
    DeadLatch,
    /// `L005`: two properties share a name (downstream reporting keys on
    /// names, so this is an error).
    DuplicateProperty,
    /// `L006`: two properties are the same literal.
    AliasedProperty,
    /// `L007`: the property already holds in the reset state (provable by
    /// ternary constant propagation, before any transition).
    ResetViolation,
    /// `L008`: ASCII AND lines violating the normalized `lhs > rhs0 ≥ rhs1`
    /// form or carrying foldable (constant/duplicate/complementary) fanins.
    NonNormalizedAnd,
    /// `L009`: the header declares `C`/`J`/`F` sections, which this tool
    /// does not support; the file cannot be checked faithfully.
    UnsupportedSection,
}

impl LintCode {
    /// The stable `L###` code string.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::ConstantProperty => "L001",
            LintCode::RegisterFreeCoi => "L002",
            LintCode::FloatingInput => "L003",
            LintCode::DeadLatch => "L004",
            LintCode::DuplicateProperty => "L005",
            LintCode::AliasedProperty => "L006",
            LintCode::ResetViolation => "L007",
            LintCode::NonNormalizedAnd => "L008",
            LintCode::UnsupportedSection => "L009",
        }
    }

    /// The default severity of this check.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::ConstantProperty
            | LintCode::DuplicateProperty
            | LintCode::UnsupportedSection => Severity::Error,
            LintCode::RegisterFreeCoi
            | LintCode::FloatingInput
            | LintCode::DeadLatch
            | LintCode::AliasedProperty
            | LintCode::ResetViolation
            | LintCode::NonNormalizedAnd => Severity::Warning,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One finding of the lint pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: LintCode,
    /// Severity (the check's default; callers may escalate).
    pub severity: Severity,
    /// Where: a property name, a section, or a line reference.
    pub location: String,
    /// What was found.
    pub message: String,
    /// How to fix it (empty when there is nothing useful to say).
    pub hint: String,
}

impl Diagnostic {
    fn new(code: LintCode, location: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            location: location.into(),
            message: message.into(),
            hint: String::new(),
        }
    }

    fn hint(mut self, hint: impl Into<String>) -> Diagnostic {
        self.hint = hint.into();
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )?;
        if !self.hint.is_empty() {
            write!(f, " (hint: {})", self.hint)?;
        }
        Ok(())
    }
}

/// The collected diagnostics of one lint run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// The diagnostics, in the order the checks ran.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The codes that fired, in order (convenient for tests).
    pub fn codes(&self) -> Vec<LintCode> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Number of error-severity diagnostics.
    pub fn num_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn num_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Appends all diagnostics of `other`.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }
}

/// How many names a diagnostic prints before its ellipsis.
const SHOW: usize = 4;

/// Formats the first [`SHOW`] of `total` names, followed by an ellipsis
/// marker when there are more ("a, b, c, d, …"). `shown` holds at least
/// those first names.
fn name_sample<S: AsRef<str>>(shown: &[S], total: usize) -> String {
    let mut s = shown
        .iter()
        .take(SHOW)
        .map(AsRef::as_ref)
        .collect::<Vec<_>>()
        .join(", ");
    if total > SHOW {
        s.push_str(", …");
    }
    s
}

/// Counts the nodes of one kind outside the union cone, keeping the names
/// of only the first [`SHOW`], which are all a diagnostic prints.
fn outside_cone(
    netlist: &Netlist,
    in_union: impl Fn(NodeId) -> bool,
    of_kind: impl Fn(Node<'_>) -> bool,
) -> (usize, Vec<&str>) {
    let mut count = 0;
    let mut shown = Vec::with_capacity(SHOW);
    for id in netlist.node_ids() {
        if of_kind(netlist.node(id)) && !in_union(id) {
            count += 1;
            if shown.len() < SHOW {
                shown.push(netlist.name(id).unwrap_or("?"));
            }
        }
    }
    (count, shown)
}

/// Whether a latch is reachable from `seed` through gate fanins, that is,
/// whether the seed's cone of influence holds a register. The search stops
/// at the first latch. `marks` is node-sized scratch shared by every call:
/// a node counts as visited when its mark equals this call's `stamp`, so
/// each call passes a stamp no earlier call used and nothing is cleared.
fn reaches_latch(
    netlist: &Netlist,
    seed: Signal,
    stamp: u32,
    marks: &mut [u32],
    stack: &mut Vec<NodeId>,
) -> bool {
    stack.clear();
    stack.push(seed.node());
    while let Some(id) = stack.pop() {
        if marks[id.index()] == stamp {
            continue;
        }
        marks[id.index()] = stamp;
        match netlist.node(id) {
            Node::Latch { .. } => return true,
            Node::Gate { fanins, .. } => stack.extend(fanins.iter().map(|s| s.node())),
            Node::Const | Node::Input => {}
        }
    }
    false
}

/// Evaluates every node in three-valued logic at the reset state: latches
/// take their reset values ([`crate::LatchInit::Free`] is unknown), inputs
/// are unknown, and gates propagate constants by [`ternary_gate`] where the
/// operator allows (`x ∧ 0 = 0` even when `x` is unknown).
fn ternary_reset_values(netlist: &Netlist) -> Vec<Option<bool>> {
    use crate::LatchInit;
    let mut vals: Vec<Option<bool>> = vec![None; netlist.num_nodes()];
    for id in netlist.topo_order() {
        vals[id.index()] = match netlist.node(id) {
            Node::Const => Some(false),
            Node::Input => None,
            Node::Latch { init, .. } => match init {
                LatchInit::Zero => Some(false),
                LatchInit::One => Some(true),
                LatchInit::Free => None,
            },
            Node::Gate { op, fanins } => ternary_gate(op, fanins, &vals),
        };
    }
    vals
}

/// Lints a [`Netlist`] against a set of named property signals (the
/// bad-state literals BMC would check). This is the core pass behind
/// [`lint_aig`]; call it directly when the properties do not come from an
/// AIGER file.
///
/// Runs the checks `L001`–`L007`. Cone and reset checks need a well-formed
/// netlist; when [`Netlist::validate`] fails, only the purely property-level
/// checks (constants, duplicates, aliases) run.
pub fn lint_properties(netlist: &Netlist, props: &[(String, Signal)]) -> LintReport {
    let mut report = LintReport::default();

    // L001: structurally constant properties.
    for (name, sig) in props {
        if *sig == Signal::TRUE {
            report.push(
                Diagnostic::new(
                    LintCode::ConstantProperty,
                    format!("property `{name}`"),
                    "bad-state literal is constant true: every run fails at depth 0",
                )
                .hint("check the property polarity (AIGER bad literals are 1 when violated)"),
            );
        } else if *sig == Signal::FALSE {
            report.push(
                Diagnostic::new(
                    LintCode::ConstantProperty,
                    format!("property `{name}`"),
                    "bad-state literal is constant false: the property is vacuous",
                )
                .hint("the property can never fail; drop it or fix the generator"),
            );
        }
    }

    // L005: duplicate names. L006: aliased literals.
    let mut by_name: HashMap<&str, usize> = HashMap::new();
    for (name, _) in props {
        *by_name.entry(name.as_str()).or_insert(0) += 1;
    }
    let mut dups: Vec<&str> = by_name
        .iter()
        .filter(|&(_, &n)| n > 1)
        .map(|(&name, _)| name)
        .collect();
    dups.sort_unstable();
    for name in dups {
        report.push(
            Diagnostic::new(
                LintCode::DuplicateProperty,
                format!("property `{name}`"),
                format!("{} properties share the name `{name}`", by_name[name]),
            )
            .hint("rename via the symbol table (`b<i> name` lines) so verdicts stay attributable"),
        );
    }
    let mut by_signal: HashMap<Signal, &str> = HashMap::new();
    for (name, sig) in props {
        if sig.is_const() {
            continue; // already reported as L001
        }
        if let Some(first) = by_signal.get(sig) {
            report.push(
                Diagnostic::new(
                    LintCode::AliasedProperty,
                    format!("property `{name}`"),
                    format!("same bad-state literal as property `{first}`"),
                )
                .hint("duplicate properties are solved twice; keep one"),
            );
        } else {
            by_signal.insert(*sig, name);
        }
    }

    if netlist.validate().is_err() {
        return report;
    }

    // L002: register-free cones (per property; constants already reported).
    // One mark buffer serves every property's search, stamped with the
    // property's position.
    let mut marks = vec![0u32; netlist.num_nodes()];
    let mut stack = Vec::new();
    for ((name, sig), stamp) in props.iter().zip(1u32..) {
        if sig.is_const() {
            continue;
        }
        if !reaches_latch(netlist, *sig, stamp, &mut marks, &mut stack) {
            report.push(
                Diagnostic::new(
                    LintCode::RegisterFreeCoi,
                    format!("property `{name}`"),
                    "no register in the cone of influence",
                )
                .hint("the property is purely combinational; depth 0 decides it"),
            );
        }
    }

    // L003/L004: inputs and latches outside the union cone of all properties.
    let seeds: Vec<Signal> = props.iter().map(|&(_, s)| s).collect();
    let union = cone_of_influence(netlist, &seeds);
    let in_union = |id: NodeId| union.binary_search(&id).is_ok();
    let (floating, shown) = outside_cone(netlist, in_union, |node| node == Node::Input);
    if floating > 0 {
        report.push(
            Diagnostic::new(
                LintCode::FloatingInput,
                "inputs",
                format!(
                    "{floating} input(s) outside every property cone: {}",
                    name_sample(&shown, floating)
                ),
            )
            .hint("they cannot affect any verdict; COI reduction drops them"),
        );
    }
    let (dead, shown) = outside_cone(netlist, in_union, |node| matches!(node, Node::Latch { .. }));
    if dead > 0 {
        report.push(
            Diagnostic::new(
                LintCode::DeadLatch,
                "latches",
                format!(
                    "{dead} latch(es) outside every property cone: {}",
                    name_sample(&shown, dead)
                ),
            )
            .hint("dead state adds frame clauses but no reachable behaviour"),
        );
    }

    // L007: properties that already hold (fail) in the reset state.
    let reset = ternary_reset_values(netlist);
    for (name, sig) in props {
        if sig.is_const() {
            continue;
        }
        let value = reset[sig.node().index()].map(|b| b ^ sig.is_inverted());
        if value == Some(true) {
            report.push(
                Diagnostic::new(
                    LintCode::ResetViolation,
                    format!("property `{name}`"),
                    "bad state is reached in the reset state itself",
                )
                .hint("the counterexample has depth 0; check the latch reset values"),
            );
        }
    }

    report
}

/// Lints an [`Aig`] (checks `L001`–`L007`) over [`Aig::properties`], the
/// property set the BMC front door reads.
pub fn lint_aig(aig: &Aig) -> LintReport {
    let raised = aig.to_netlist();
    let props: Vec<(String, Signal)> = (aig.properties().iter())
        .map(|(name, lit)| (name.clone(), raised.signal_of(*lit)))
        .collect();
    lint_properties(&raised.netlist, &props)
}

/// Tolerantly splits the first line of an AIGER buffer into numeric header
/// fields (`M I L O A B C J F`), padding missing fields with zero. Returns
/// `None` when the buffer has no parseable `aag`/`aig` header — the parser
/// will report that as a hard error, so the linter stays silent.
fn scan_header(bytes: &[u8]) -> Option<(bool, [usize; 9])> {
    let ascii = if bytes.starts_with(b"aag ") {
        true
    } else if bytes.starts_with(b"aig ") {
        false
    } else {
        return None;
    };
    let end = bytes.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&bytes[..end]).ok()?;
    let mut fields = [0usize; 9];
    for (i, tok) in line.split_whitespace().skip(1).take(9).enumerate() {
        fields[i] = tok.parse().ok()?;
    }
    Some((ascii, fields))
}

/// Raw-file lint over an AIGER byte buffer: checks that are only visible
/// *before* parsing (`L008`, `L009`). The parser constant-folds and strashes
/// every AND it assembles, so a parsed [`Aig`] is always normalized; the
/// binary encoding enforces `lhs > rhs0 ≥ rhs1` structurally, so `L008` is
/// an ASCII-only diagnostic.
pub fn lint_aiger_bytes(bytes: &[u8]) -> LintReport {
    let mut report = LintReport::default();
    let Some((ascii, fields)) = scan_header(bytes) else {
        return report;
    };
    let [_m, i, l, o, b, a, c, j, f] = fields;

    // L009: C/J/F sections declared in the header.
    let unsupported: Vec<String> = [
        (c, "constraint (C)"),
        (j, "justice (J)"),
        (f, "fairness (F)"),
    ]
    .iter()
    .filter(|&&(n, _)| n > 0)
    .map(|&(n, what)| format!("{n} {what}"))
    .collect();
    if !unsupported.is_empty() {
        report.push(
            Diagnostic::new(
                LintCode::UnsupportedSection,
                "header",
                format!("unsupported sections declared: {}", unsupported.join(", ")),
            )
            .hint("only safety properties (B lines / outputs) are checked; strip or translate the file"),
        );
    }

    // L008: non-normalized ASCII AND lines.
    if ascii {
        if let Ok(text) = std::str::from_utf8(bytes) {
            let mut counts = [i, l, o, b, a];
            let mut section = 0usize;
            let mut bad_lines: Vec<usize> = Vec::new();
            let mut total = 0usize;
            'lines: for (lineno, raw) in text.lines().enumerate().skip(1) {
                let line = raw.trim();
                if line.is_empty() {
                    continue;
                }
                if line == "c" {
                    break;
                }
                if matches!(line.as_bytes()[0], b'i' | b'l' | b'o' | b'b') {
                    if let Some((key, _)) = line.split_once(' ') {
                        if key.len() >= 2 && key[1..].chars().all(|ch| ch.is_ascii_digit()) {
                            continue; // symbol table entry
                        }
                    }
                }
                while section < 5 && counts[section] == 0 {
                    section += 1;
                }
                if section == 5 {
                    break;
                }
                counts[section] -= 1;
                if section != 4 {
                    continue;
                }
                let mut nums = [0usize; 3];
                let mut toks = line.split_whitespace();
                for slot in &mut nums {
                    match toks.next().and_then(|t| t.parse().ok()) {
                        Some(n) => *slot = n,
                        None => break 'lines, // malformed: the parser reports it
                    }
                }
                let [lhs, r0, r1] = nums;
                let ordered = lhs > r0 && r0 >= r1;
                let foldable = r1 < 2 || r0 / 2 == r1 / 2;
                if !ordered || foldable {
                    total += 1;
                    if bad_lines.len() < 4 {
                        bad_lines.push(lineno + 1);
                    }
                }
            }
            if total > 0 {
                let lines: Vec<String> = bad_lines
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect();
                report.push(
                    Diagnostic::new(
                        LintCode::NonNormalizedAnd,
                        format!("line {}", name_sample(&lines, lines.len())),
                        format!(
                            "{total} AND gate(s) not in normalized form \
                             (lhs > rhs0 ≥ rhs1, non-foldable fanins)"
                        ),
                    )
                    .hint("the reader folds them; re-emit the file to keep it canonical"),
                );
            }
        }
    }
    report
}

/// Lints one AIGER byte buffer end to end: the raw-file checks
/// ([`lint_aiger_bytes`]), plus the circuit-level checks ([`lint_aig`]) when
/// the buffer parses. Parse failures are not diagnostics — the caller sees
/// them from [`aiger::parse_aiger`] directly.
pub fn lint_aiger(bytes: &[u8]) -> LintReport {
    let mut report = lint_aiger_bytes(bytes);
    if let Ok(aig) = aiger::parse_aiger(bytes) {
        report.merge(lint_aig(&aig));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatchInit;

    fn codes(bytes: &[u8]) -> Vec<LintCode> {
        lint_aiger(bytes).codes()
    }

    #[test]
    fn clean_model_is_clean() {
        // Toggling latch with its own literal as the bad property.
        assert_eq!(codes(b"aag 1 0 1 0 0 1\n2 3\n2\n"), vec![]);
    }

    #[test]
    fn constant_true_property() {
        let report = lint_aiger(b"aag 0 0 0 0 0 1\n1\n");
        assert_eq!(report.codes(), vec![LintCode::ConstantProperty]);
        assert_eq!(report.num_errors(), 1);
        assert!(report.diagnostics()[0].message.contains("constant true"));
    }

    #[test]
    fn constant_false_property_is_vacuous() {
        let report = lint_aiger(b"aag 0 0 0 0 0 1\n0\n");
        assert_eq!(report.codes(), vec![LintCode::ConstantProperty]);
        assert!(report.diagnostics()[0].message.contains("vacuous"));
    }

    #[test]
    fn register_free_cone() {
        assert_eq!(
            codes(b"aag 1 1 0 0 0 1\n2\n2\n"),
            vec![LintCode::RegisterFreeCoi]
        );
    }

    #[test]
    fn floating_input_and_dead_latch() {
        assert_eq!(
            codes(b"aag 2 1 1 0 0 1\n2\n4 5\n4\n"),
            vec![LintCode::FloatingInput]
        );
        assert_eq!(
            codes(b"aag 2 0 2 0 0 1\n2 3\n4 5\n2\n"),
            vec![LintCode::DeadLatch]
        );
    }

    #[test]
    fn duplicate_and_aliased_properties() {
        assert_eq!(
            codes(b"aag 1 0 1 0 0 2\n2 3 2\n2\n3\nb0 p\nb1 p\n"),
            vec![LintCode::DuplicateProperty]
        );
        assert_eq!(
            codes(b"aag 1 0 1 0 0 2\n2 3\n2\n2\n"),
            vec![LintCode::AliasedProperty]
        );
    }

    #[test]
    fn reset_violation() {
        assert_eq!(
            codes(b"aag 1 0 1 0 0 1\n2 3 1\n2\n"),
            vec![LintCode::ResetViolation]
        );
    }

    #[test]
    fn non_normalized_ascii_and() {
        // AND `6 2 4` breaks rhs0 >= rhs1.
        assert_eq!(
            codes(b"aag 3 1 1 0 1 1\n2\n4 5\n6\n6 2 4\n"),
            vec![LintCode::NonNormalizedAnd]
        );
    }

    #[test]
    fn unsupported_sections_reported_with_counts() {
        let report = lint_aiger(b"aag 1 0 1 0 0 1 1\n2 3\n2\n0\n");
        assert_eq!(report.codes(), vec![LintCode::UnsupportedSection]);
        assert!(report.diagnostics()[0].message.contains("1 constraint"));
    }

    #[test]
    fn ternary_reset_propagates_constants() {
        let mut n = Netlist::new();
        let x = n.add_input("x");
        let l = n.add_latch("l", LatchInit::Zero);
        n.set_next(l, x);
        // AND(x, l): l is 0 at reset, so the gate is 0 despite the unknown x.
        let g = n.and2(x, l);
        let vals = ternary_reset_values(&n);
        assert_eq!(vals[g.node().index()], Some(false));
        assert_eq!(vals[x.node().index()], None);
        // OR(x, !l): !l is 1 at reset, so the OR is known true.
        // o = !(AND(!x, l)) — the AND is Some(false), so o reads Some(true).
        let o = n.or2(x, !l);
        let vals = ternary_reset_values(&n);
        let read = vals[o.node().index()];
        assert_eq!(read.map(|b| b ^ o.is_inverted()), Some(true));
    }

    #[test]
    fn diagnostics_render_with_code_and_hint() {
        let report = lint_aiger(b"aag 0 0 0 0 0 1\n1\n");
        let line = report.diagnostics()[0].to_string();
        assert!(line.starts_with("error[L001]"), "{line}");
        assert!(line.contains("hint:"), "{line}");
    }

    #[test]
    fn garbage_bytes_lint_clean() {
        // Unparseable input is the parser's problem, not the linter's.
        assert!(lint_aiger(b"not an aiger file").diagnostics().is_empty());
    }
}
