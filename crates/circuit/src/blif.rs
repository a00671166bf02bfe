//! BLIF reading and writing (the subset VIS-era tools exchange).
//!
//! Supported constructs: `.model`, `.inputs`, `.outputs`, `.latch`
//! (with optional type/control and an initial value), single-output `.names`
//! covers, and `.end`. Unsupported: hierarchies (`.subckt`), don't-care
//! covers (`.exdc`), and multiple models per file.
//!
//! # Examples
//!
//! ```
//! use rbmc_circuit::blif::parse_blif;
//!
//! let text = "\
//! .model toggle
//! .outputs q
//! .latch nq q 0
//! .names q nq
//! 0 1
//! .end
//! ";
//! let netlist = parse_blif(text)?;
//! assert_eq!(netlist.num_latches(), 1);
//! # Ok::<(), rbmc_circuit::blif::ParseBlifError>(())
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::{GateOp, LatchInit, Netlist, Node, NodeId, Signal};

/// Error produced when parsing BLIF fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBlifError {
    line: usize,
    message: String,
}

impl ParseBlifError {
    fn new(line: usize, message: impl Into<String>) -> ParseBlifError {
        ParseBlifError {
            line,
            message: message.into(),
        }
    }

    /// The 1-based line number where the error was detected (0 when the error
    /// is about the file as a whole).
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "blif error: {}", self.message)
        } else {
            write!(f, "blif error on line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseBlifError {}

#[derive(Debug)]
struct NamesBlock {
    line: usize,
    inputs: Vec<String>,
    output: String,
    cover: Vec<(String, char)>,
}

#[derive(Debug)]
struct LatchDecl {
    line: usize,
    next: String,
    output: String,
    init: LatchInit,
}

/// Parses BLIF text into a [`Netlist`].
///
/// `.names` functions become OR-of-AND gate trees; latches keep their
/// declared initial value (`2`/`3` map to [`LatchInit::Free`]).
///
/// # Errors
///
/// Returns [`ParseBlifError`] on syntax errors, undefined signals, duplicate
/// definitions, or combinational cycles among `.names` blocks.
pub fn parse_blif(text: &str) -> Result<Netlist, ParseBlifError> {
    // Join continuation lines (trailing backslash).
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let without_comment = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let trimmed = without_comment.trim_end();
        let (content, continues) = match trimmed.strip_suffix('\\') {
            Some(head) => (head, true),
            None => (trimmed, false),
        };
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(content);
                if continues {
                    pending = Some((start, acc));
                } else {
                    lines.push((start, acc));
                }
            }
            None => {
                if continues {
                    pending = Some((lineno, content.to_string()));
                } else if !content.trim().is_empty() {
                    lines.push((lineno, content.to_string()));
                }
            }
        }
    }
    if let Some((start, acc)) = pending {
        lines.push((start, acc));
    }

    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut latches: Vec<LatchDecl> = Vec::new();
    let mut names: Vec<NamesBlock> = Vec::new();
    let mut current_names: Option<NamesBlock> = None;
    let mut saw_model = false;

    for (lineno, line) in &lines {
        let lineno = *lineno;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        if tokens[0].starts_with('.') {
            if let Some(block) = current_names.take() {
                names.push(block);
            }
            match tokens[0] {
                ".model" => {
                    if saw_model {
                        return Err(ParseBlifError::new(lineno, "multiple .model sections"));
                    }
                    saw_model = true;
                }
                ".inputs" => {
                    inputs.extend(tokens[1..].iter().map(std::string::ToString::to_string));
                }
                ".outputs" => {
                    outputs.extend(tokens[1..].iter().map(std::string::ToString::to_string));
                }
                ".latch" => {
                    // .latch input output [type control] [init]
                    let (next, output, init_tok) = match tokens.len() {
                        3 => (tokens[1], tokens[2], None),
                        4 => (tokens[1], tokens[2], Some(tokens[3])),
                        5 => (tokens[1], tokens[2], None),
                        6 => (tokens[1], tokens[2], Some(tokens[5])),
                        _ => {
                            return Err(ParseBlifError::new(lineno, "malformed .latch"));
                        }
                    };
                    let init = match init_tok {
                        None | Some("2") | Some("3") => LatchInit::Free,
                        Some("0") => LatchInit::Zero,
                        Some("1") => LatchInit::One,
                        Some(other) => {
                            return Err(ParseBlifError::new(
                                lineno,
                                format!("bad latch init `{other}`"),
                            ));
                        }
                    };
                    latches.push(LatchDecl {
                        line: lineno,
                        next: next.to_string(),
                        output: output.to_string(),
                        init,
                    });
                }
                ".names" => {
                    if tokens.len() < 2 {
                        return Err(ParseBlifError::new(lineno, ".names needs an output"));
                    }
                    let output = tokens[tokens.len() - 1].to_string();
                    let ins = tokens[1..tokens.len() - 1]
                        .iter()
                        .map(std::string::ToString::to_string)
                        .collect();
                    current_names = Some(NamesBlock {
                        line: lineno,
                        inputs: ins,
                        output,
                        cover: Vec::new(),
                    });
                }
                ".end" => break,
                other => {
                    return Err(ParseBlifError::new(
                        lineno,
                        format!("unsupported construct `{other}`"),
                    ));
                }
            }
        } else {
            // A cover line of the current .names block.
            let block = current_names
                .as_mut()
                .ok_or_else(|| ParseBlifError::new(lineno, "cover line outside .names"))?;
            let (plane, out) = if block.inputs.is_empty() {
                if tokens.len() != 1 || tokens[0].len() != 1 {
                    return Err(ParseBlifError::new(lineno, "malformed constant cover"));
                }
                (String::new(), tokens[0].chars().next().unwrap())
            } else {
                if tokens.len() != 2 || tokens[1].len() != 1 {
                    return Err(ParseBlifError::new(lineno, "malformed cover line"));
                }
                (tokens[0].to_string(), tokens[1].chars().next().unwrap())
            };
            if plane.len() != block.inputs.len() {
                return Err(ParseBlifError::new(lineno, "cover width mismatch"));
            }
            if !plane.chars().all(|c| matches!(c, '0' | '1' | '-')) {
                return Err(ParseBlifError::new(lineno, "bad cover character"));
            }
            if !matches!(out, '0' | '1') {
                return Err(ParseBlifError::new(lineno, "bad cover output"));
            }
            block.cover.push((plane, out));
        }
    }
    if let Some(block) = current_names.take() {
        names.push(block);
    }

    // Build the netlist: inputs and latches first.
    let mut netlist = Netlist::new();
    let mut signals: HashMap<String, Signal> = HashMap::new();
    for name in &inputs {
        if signals.contains_key(name) {
            return Err(ParseBlifError::new(0, format!("duplicate signal `{name}`")));
        }
        let s = netlist.add_input(name);
        signals.insert(name.clone(), s);
    }
    for decl in &latches {
        if signals.contains_key(&decl.output) {
            return Err(ParseBlifError::new(
                decl.line,
                format!("duplicate signal `{}`", decl.output),
            ));
        }
        let s = netlist.add_latch(&decl.output, decl.init);
        signals.insert(decl.output.clone(), s);
    }

    // Resolve .names blocks in dependency order.
    let mut by_output: HashMap<&str, usize> = HashMap::new();
    for (i, block) in names.iter().enumerate() {
        if signals.contains_key(&block.output) || by_output.contains_key(block.output.as_str()) {
            return Err(ParseBlifError::new(
                block.line,
                format!("duplicate signal `{}`", block.output),
            ));
        }
        by_output.insert(&block.output, i);
    }
    // DFS with cycle detection.
    let mut state = vec![0u8; names.len()]; // 0 new, 1 open, 2 done
    let mut order: Vec<usize> = Vec::new();
    for start in 0..names.len() {
        if state[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        state[start] = 1;
        while let Some(&mut (idx, ref mut pos)) = stack.last_mut() {
            let block = &names[idx];
            if *pos < block.inputs.len() {
                let dep = &block.inputs[*pos];
                *pos += 1;
                if signals.contains_key(dep) {
                    continue;
                }
                match by_output.get(dep.as_str()) {
                    None => {
                        return Err(ParseBlifError::new(
                            block.line,
                            format!("undefined signal `{dep}`"),
                        ));
                    }
                    Some(&j) => match state[j] {
                        0 => {
                            state[j] = 1;
                            stack.push((j, 0));
                        }
                        1 => {
                            return Err(ParseBlifError::new(
                                block.line,
                                format!("combinational cycle through `{dep}`"),
                            ));
                        }
                        _ => {}
                    },
                }
            } else {
                state[idx] = 2;
                order.push(idx);
                stack.pop();
            }
        }
    }

    for idx in order {
        let block = &names[idx];
        let fanins: Vec<Signal> = block
            .inputs
            .iter()
            .map(|name| signals[name.as_str()])
            .collect();
        let signal = build_cover(&mut netlist, &fanins, &block.cover, block.line)?;
        signals.insert(block.output.clone(), signal);
    }

    // Connect latches.
    for decl in &latches {
        let next = *signals.get(&decl.next).ok_or_else(|| {
            ParseBlifError::new(decl.line, format!("undefined signal `{}`", decl.next))
        })?;
        netlist.set_next(signals[&decl.output], next);
    }
    // Declare outputs.
    for name in &outputs {
        let s = *signals
            .get(name)
            .ok_or_else(|| ParseBlifError::new(0, format!("undefined output `{name}`")))?;
        netlist.add_output(name, s);
    }
    Ok(netlist)
}

/// Builds the function of a single-output cover.
fn build_cover(
    netlist: &mut Netlist,
    fanins: &[Signal],
    cover: &[(String, char)],
    line: usize,
) -> Result<Signal, ParseBlifError> {
    if cover.is_empty() {
        return Ok(Signal::FALSE);
    }
    let polarity = cover[0].1;
    if cover.iter().any(|&(_, o)| o != polarity) {
        return Err(ParseBlifError::new(
            line,
            "mixed on-set/off-set cover not supported",
        ));
    }
    let mut cubes = Vec::with_capacity(cover.len());
    for (plane, _) in cover {
        let lits: Vec<Signal> = plane
            .chars()
            .zip(fanins)
            .filter_map(|(c, &s)| match c {
                '1' => Some(s),
                '0' => Some(!s),
                _ => None,
            })
            .collect();
        cubes.push(netlist.and_many(&lits));
    }
    let on = netlist.or_many(&cubes);
    Ok(if polarity == '1' { on } else { !on })
}

/// Writes a netlist in BLIF format.
///
/// Gates are emitted as `.names` covers; XOR gates are enumerated
/// exhaustively and are therefore limited to 16 fanins.
///
/// # Panics
///
/// Panics if an XOR gate has more than 16 fanins or the netlist fails
/// validation.
pub fn write_blif(netlist: &Netlist, model_name: &str) -> String {
    netlist.validate().expect("netlist must be well-formed");
    let mut out = String::new();
    out.push_str(&format!(".model {model_name}\n"));

    let signal_name = |id: NodeId| -> String {
        if id == NodeId::CONST {
            "const0".to_string()
        } else {
            match netlist.name(id) {
                Some(name) => name.to_string(),
                None => format!("n{}", id.index()),
            }
        }
    };
    // A referenced signal: plain name, or a derived inverter wire.
    let mut inverters: Vec<NodeId> = Vec::new();
    let reference = |s: Signal, inverters: &mut Vec<NodeId>| -> String {
        if s == Signal::FALSE {
            "const0".to_string()
        } else if s == Signal::TRUE {
            "const1".to_string()
        } else if s.is_inverted() {
            if !inverters.contains(&s.node()) {
                inverters.push(s.node());
            }
            format!("{}_bar", signal_name(s.node()))
        } else {
            signal_name(s.node())
        }
    };

    let input_ids = netlist.inputs();
    if !input_ids.is_empty() {
        out.push_str(".inputs");
        for &id in &input_ids {
            out.push_str(&format!(" {}", signal_name(id)));
        }
        out.push('\n');
    }
    if !netlist.outputs().is_empty() {
        out.push_str(".outputs");
        for (name, _) in netlist.outputs() {
            out.push_str(&format!(" {name}"));
        }
        out.push('\n');
    }

    let mut body = String::new();
    // Latches.
    for &id in &netlist.latches() {
        if let Node::Latch {
            init,
            next: Some(next),
        } = netlist.node(id)
        {
            let init_code = match init {
                LatchInit::Zero => 0,
                LatchInit::One => 1,
                LatchInit::Free => 2,
            };
            let next_name = reference(next, &mut inverters);
            body.push_str(&format!(
                ".latch {next_name} {} {init_code}\n",
                signal_name(id)
            ));
        }
    }
    // Gates.
    for id in netlist.topo_order() {
        if let Node::Gate { op, fanins } = netlist.node(id) {
            let in_names: Vec<String> = fanins
                .iter()
                .map(|&s| reference(s, &mut inverters))
                .collect();
            body.push_str(&format!(
                ".names {} {}\n",
                in_names.join(" "),
                signal_name(id)
            ));
            match op {
                GateOp::And => {
                    body.push_str(&"1".repeat(fanins.len()));
                    body.push_str(" 1\n");
                }
                GateOp::Or => {
                    for i in 0..fanins.len() {
                        let mut cube = vec!['-'; fanins.len()];
                        cube[i] = '1';
                        body.push_str(&cube.iter().collect::<String>());
                        body.push_str(" 1\n");
                    }
                }
                GateOp::Xor => {
                    assert!(fanins.len() <= 16, "XOR too wide for BLIF enumeration");
                    for bits in 0u32..1 << fanins.len() {
                        if bits.count_ones() % 2 == 1 {
                            let cube: String = (0..fanins.len())
                                .map(|i| if bits >> i & 1 == 1 { '1' } else { '0' })
                                .collect();
                            body.push_str(&format!("{cube} 1\n"));
                        }
                    }
                }
                GateOp::Mux => {
                    body.push_str("11- 1\n0-1 1\n");
                }
            }
        }
    }
    // Output drivers that are inverted, constant, or renamed.
    for (name, sig) in netlist.outputs() {
        let driver = reference(*sig, &mut inverters);
        if *name != driver {
            body.push_str(&format!(".names {driver} {name}\n1 1\n"));
        }
    }
    // Emit inverter wires and constants used anywhere.
    let needs_const0 = body.contains("const0") || out.contains("const0");
    let needs_const1 = body.contains("const1");
    for id in inverters {
        body.push_str(&format!(".names {0} {0}_bar\n0 1\n", signal_name(id)));
    }
    if needs_const0 {
        body.push_str(".names const0\n");
    }
    if needs_const1 {
        body.push_str(".names const1\n1\n");
    }

    out.push_str(&body);
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{eval_frame, read_signal};

    #[test]
    fn parses_combinational_gate() {
        let text = ".model and2\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
        let n = parse_blif(text).unwrap();
        assert_eq!(n.num_inputs(), 2);
        let f = n.output("f").unwrap();
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            let vals = eval_frame(&n, &[], &[a, b]);
            assert_eq!(read_signal(&vals, f), a && b);
        }
    }

    #[test]
    fn parses_multi_cube_cover() {
        // f = a XOR b as a 2-cube cover.
        let text = ".model x\n.inputs a b\n.outputs f\n.names a b f\n10 1\n01 1\n.end\n";
        let n = parse_blif(text).unwrap();
        let f = n.output("f").unwrap();
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            let vals = eval_frame(&n, &[], &[a, b]);
            assert_eq!(read_signal(&vals, f), a ^ b);
        }
    }

    #[test]
    fn parses_offset_cover() {
        // f = NOT(a AND b) via off-set.
        let text = ".model nand\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n";
        let n = parse_blif(text).unwrap();
        let f = n.output("f").unwrap();
        let vals = eval_frame(&n, &[], &[true, true]);
        assert!(!read_signal(&vals, f));
        let vals = eval_frame(&n, &[], &[true, false]);
        assert!(read_signal(&vals, f));
    }

    #[test]
    fn parses_toggle_latch() {
        let text = ".model t\n.outputs q\n.latch nq q 0\n.names q nq\n0 1\n.end\n";
        let n = parse_blif(text).unwrap();
        n.validate().unwrap();
        let mut sim = crate::sim::Simulator::new(&n);
        let seq: Vec<bool> = (0..4)
            .map(|_| {
                let v = sim.output_values(&[])[0];
                sim.step(&[]);
                v
            })
            .collect();
        assert_eq!(seq, vec![false, true, false, true]);
    }

    #[test]
    fn parses_constant_cover() {
        let text = ".model c\n.outputs f g\n.names f\n1\n.names g\n.end\n";
        let n = parse_blif(text).unwrap();
        assert_eq!(n.output("f"), Some(Signal::TRUE));
        assert_eq!(n.output("g"), Some(Signal::FALSE));
    }

    #[test]
    fn rejects_undefined_signal() {
        let text = ".model m\n.outputs f\n.names ghost f\n1 1\n.end\n";
        let err = parse_blif(text).unwrap_err();
        assert!(err.to_string().contains("undefined"));
    }

    #[test]
    fn rejects_combinational_cycle() {
        let text = ".model m\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n";
        let err = parse_blif(text).unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn rejects_mixed_cover() {
        let text = ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n0 0\n.end\n";
        let err = parse_blif(text).unwrap_err();
        assert!(err.to_string().contains("mixed"));
    }

    #[test]
    fn write_then_parse_roundtrips_behaviour() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let l = n.add_latch("q", LatchInit::One);
        let g1 = n.and2(a, !b);
        let g2 = n.xor2(g1, l);
        let g3 = n.mux(a, g2, !l);
        n.set_next(l, g3);
        n.add_output("f", g2);
        n.validate().unwrap();

        let text = write_blif(&n, "round");
        let back = parse_blif(&text).unwrap();
        back.validate().unwrap();
        assert_eq!(back.num_latches(), 1);

        // Compare 16 steps of behaviour under a fixed input sequence.
        let mut sim1 = crate::sim::Simulator::new(&n);
        let mut sim2 = crate::sim::Simulator::new(&back);
        for step in 0..16 {
            let inputs = [step % 3 == 0, step % 2 == 0];
            assert_eq!(
                sim1.output_values(&inputs),
                sim2.output_values(&inputs),
                "diverged at step {step}"
            );
            sim1.step(&inputs);
            sim2.step(&inputs);
        }
    }

    #[test]
    fn continuation_lines_are_joined() {
        let text = ".model m\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n";
        let n = parse_blif(text).unwrap();
        assert_eq!(n.num_inputs(), 2);
    }
}
