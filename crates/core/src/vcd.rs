//! VCD (Value Change Dump) export of counterexample traces.
//!
//! Waveform viewers (GTKWave & co.) are how verification engineers actually
//! consume counterexamples; this module renders a [`Trace`] as an IEEE-1364
//! VCD document with one signal per register, input, and the bad flag.

use std::fmt::Write as _;

use rbmc_circuit::sim::{read_signal, Simulator};

use crate::{Model, Trace};

/// Renders the trace as a VCD document.
///
/// One timescale unit corresponds to one clock cycle (frame). Registers are
/// dumped under scope `regs`, inputs under `inputs`, and the bad-state flag
/// as `bad` at top level.
///
/// # Examples
///
/// ```
/// use rbmc_circuit::{LatchInit, Netlist};
/// use rbmc_core::{vcd, Model, Trace};
///
/// let mut n = Netlist::new();
/// let t = n.add_latch("t", LatchInit::Zero);
/// n.set_next(t, !t);
/// let model = Model::new("toggle", n, t);
/// let trace = Trace::from_parts(vec![false], vec![vec![], vec![]]);
/// let doc = vcd::render_vcd(&model, &trace);
/// assert!(doc.contains("$enddefinitions"));
/// assert!(doc.contains("#1"));
/// ```
pub fn render_vcd(model: &Model, trace: &Trace) -> String {
    let netlist = model.netlist();
    let latches = netlist.latches();
    let inputs = netlist.inputs();

    // Identifier codes: VCD allows any printable ASCII; generate !, ", #, …
    let code = |index: usize| -> String {
        let mut s = String::new();
        let mut i = index;
        loop {
            s.push((33 + (i % 94)) as u8 as char);
            i /= 94;
            if i == 0 {
                break;
            }
            i -= 1;
        }
        s
    };
    let latch_code = |i: usize| code(i);
    let input_code = |i: usize| code(latches.len() + i);
    let bad_code = code(latches.len() + inputs.len());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "$comment refined-bmc counterexample for {} $end",
        model.name()
    );
    let _ = writeln!(out, "$timescale 1ns $end");
    let _ = writeln!(out, "$scope module {} $end", sanitize(model.name()));
    let _ = writeln!(out, "$scope module regs $end");
    for (i, &id) in latches.iter().enumerate() {
        let name = netlist.name(id).unwrap_or("reg");
        let _ = writeln!(out, "$var reg 1 {} {} $end", latch_code(i), sanitize(name));
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$scope module inputs $end");
    for (i, &id) in inputs.iter().enumerate() {
        let name = netlist.name(id).unwrap_or("in");
        let _ = writeln!(out, "$var wire 1 {} {} $end", input_code(i), sanitize(name));
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$var wire 1 {bad_code} bad $end");
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Walk the trace, dumping changes frame by frame.
    let mut sim = Simulator::with_state(netlist, trace.initial_state().to_vec());
    let mut last_regs: Vec<Option<bool>> = vec![None; latches.len()];
    let mut last_inputs: Vec<Option<bool>> = vec![None; inputs.len()];
    let mut last_bad: Option<bool> = None;
    for (frame, frame_inputs) in trace.inputs().iter().enumerate() {
        let _ = writeln!(out, "#{frame}");
        for (i, (&value, last)) in sim
            .state()
            .to_vec()
            .iter()
            .zip(last_regs.iter_mut())
            .enumerate()
        {
            if *last != Some(value) {
                let _ = writeln!(out, "{}{}", value as u8, latch_code(i));
                *last = Some(value);
            }
        }
        for (i, (&value, last)) in frame_inputs.iter().zip(last_inputs.iter_mut()).enumerate() {
            if *last != Some(value) {
                let _ = writeln!(out, "{}{}", value as u8, input_code(i));
                *last = Some(value);
            }
        }
        let values = sim.step(frame_inputs);
        let bad = read_signal(&values, model.bad());
        if last_bad != Some(bad) {
            let _ = writeln!(out, "{}{bad_code}", bad as u8);
            last_bad = Some(bad);
        }
    }
    let _ = writeln!(out, "#{}", trace.inputs().len());
    out
}

/// Replaces characters VCD identifiers dislike.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbmc_circuit::{LatchInit, Netlist};

    fn toggle_model() -> Model {
        let mut n = Netlist::new();
        let t = n.add_latch("t", LatchInit::Zero);
        n.set_next(t, !t);
        Model::new("toggle", n, t)
    }

    #[test]
    fn header_declares_all_signals() {
        let mut n = Netlist::new();
        let i = n.add_input("go");
        let l = n.add_latch("state", LatchInit::Zero);
        let nx = n.or2(l, i);
        n.set_next(l, nx);
        let model = Model::new("m", n, l);
        let trace = Trace::from_parts(vec![false], vec![vec![true], vec![false]]);
        let doc = render_vcd(&model, &trace);
        assert!(doc.contains("$var reg 1"));
        assert!(doc.contains("state"));
        assert!(doc.contains("go"));
        assert!(doc.contains("bad"));
        assert!(doc.contains("$enddefinitions"));
    }

    #[test]
    fn value_changes_are_emitted_per_frame() {
        let model = toggle_model();
        let trace = Trace::from_parts(vec![false], vec![vec![], vec![], vec![]]);
        let doc = render_vcd(&model, &trace);
        // The toggle flips every frame: a change line after each timestamp.
        assert!(doc.contains("#0"));
        assert!(doc.contains("#1"));
        assert!(doc.contains("#2"));
        let zeros = doc.matches("\n0!").count();
        let ones = doc.matches("\n1!").count();
        assert!(zeros >= 2 && ones >= 1, "{doc}");
    }

    #[test]
    fn unchanged_values_are_not_repeated() {
        // Constant-zero register: exactly one dump of its value.
        let mut n = Netlist::new();
        let l = n.add_latch("zero", LatchInit::Zero);
        n.set_next(l, l);
        let model = Model::new("m", n, !l);
        let trace = Trace::from_parts(vec![false], vec![vec![], vec![], vec![]]);
        let doc = render_vcd(&model, &trace);
        assert_eq!(doc.matches("\n0!").count(), 1, "{doc}");
    }

    #[test]
    fn identifier_codes_stay_printable_for_many_signals() {
        let mut n = Netlist::new();
        let regs: Vec<_> = (0..200)
            .map(|i| n.add_latch(&format!("r{i}"), LatchInit::Zero))
            .collect();
        for &r in &regs {
            n.set_next(r, r);
        }
        let model = Model::new("wide", n, regs[0]);
        let trace = Trace::from_parts(vec![false; 200], vec![vec![]]);
        let doc = render_vcd(&model, &trace);
        for ch in doc.chars() {
            assert!(ch == '\n' || (' '..='~').contains(&ch), "bad char {ch:?}");
        }
    }
}
