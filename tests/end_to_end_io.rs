//! Integration across the I/O formats: a generated model written to AIGER,
//! read back, and model-checked must give the same verdict at the same
//! depth; a BMC instance exported as DIMACS stays solvable; and the AIGER
//! writers reproduce, byte for byte, what the reader read from them.

use refined_bmc::bmc::{BmcEngine, BmcOptions, Model, PropertyVerdict};
use refined_bmc::circuit::aiger::{parse_aag, parse_aiger, write_aag, write_aig};
use refined_bmc::circuit::Aig;
use refined_bmc::gens::corpus::export_corpus;
use refined_bmc::gens::{families, proof_suite, suite_table1};

/// Runs BMC and summarizes the verdict as `Some(depth)` / `None`.
fn bmc_verdict(model: Model, max_depth: usize) -> Option<usize> {
    let mut engine = BmcEngine::new(
        model,
        BmcOptions {
            max_depth,
            ..BmcOptions::default()
        },
    );
    match engine.run_collecting().properties[0].verdict {
        PropertyVerdict::Falsified { depth, .. } => Some(depth),
        PropertyVerdict::OpenAt { depth } if depth == max_depth => None,
        ref other => panic!("no verdict at the bound: {other}"),
    }
}

#[test]
fn aiger_roundtrip_preserves_bmc_verdict() {
    for (model, max_depth) in [
        (families::token_ring_buggy(4, 2), 8),
        (families::pipeline_emerge(5), 8),
    ] {
        let mut netlist = model.netlist().clone();
        netlist.add_output("bad_property", model.bad());
        let lowered = Aig::from_netlist(&netlist);
        let text = write_aag(&lowered.aig);
        let back = parse_aag(&text).unwrap();

        // Raise the parsed AIG the way `VerificationProblem::from_aiger`
        // does; the output keeps its name through the symbol table.
        let raised = back.to_netlist();
        let bad = raised
            .netlist
            .output("bad_property")
            .expect("property output survives");
        let roundtripped = Model::new(model.name(), raised.netlist, bad);

        let original = bmc_verdict(model.clone(), max_depth);
        let after = bmc_verdict(roundtripped, max_depth);
        assert_eq!(original, after, "{} verdict changed", model.name());
    }
}

#[test]
fn dimacs_export_of_bmc_instance_is_solvable_by_reference() {
    use refined_bmc::bmc::Unroller;
    use refined_bmc::cnf::{parse_dimacs, to_dimacs_string};
    use refined_bmc::solver::reference_dpll;

    // A small failing instance: the DIMACS text of F_k must be SAT from the
    // failure depth on (the enable input lets the counter hold at the bad
    // value), even for an independent solver.
    let model = families::gated_counter(3, 1, 5);
    let unroller = Unroller::new(&model);
    for k in 3..=6 {
        let formula = unroller.formula(k);
        let text = to_dimacs_string(&formula);
        let reparsed = parse_dimacs(&text).unwrap();
        let sat = reference_dpll(&reparsed).is_some();
        assert_eq!(sat, k >= 5, "depth {k}");
    }
}

/// Every file of the exported corpus (the set `rbmc --export-corpus`
/// writes) is a fixed point of reader and writer: it equals the writer's
/// rendering of what the reader makes of it, apart from the ground-truth
/// comment section the reader skips, and reading then writing again changes
/// no byte, in either encoding.
#[test]
fn exported_corpus_rewrites_to_identical_bytes() {
    let dir = std::env::temp_dir().join(format!("rbmc_rewrite_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut suite = suite_table1();
    suite.extend(proof_suite());
    let written = export_corpus(&dir, &suite).unwrap();
    assert_eq!(written.len(), suite.len() + 2);
    for file in &written {
        let name = file.path.display().to_string();
        let bytes = std::fs::read(&file.path).unwrap();
        let aig = parse_aiger(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        let ascii = name.ends_with(".aag");
        let own = if ascii {
            write_aag(&aig).into_bytes()
        } else {
            write_aig(&aig)
        };
        let body = match bytes.windows(3).position(|w| w == b"\nc\n") {
            Some(at) if ascii => &bytes[..=at],
            _ => &bytes[..],
        };
        assert_eq!(own, body, "{name}: the writer changed the file");
        let aag = write_aag(&aig);
        let aag_again = write_aag(&parse_aiger(aag.as_bytes()).unwrap());
        assert_eq!(aag_again, aag, "{name}: write_aag is not stable");
        let aig_bytes = write_aig(&aig);
        let aig_again = write_aig(&parse_aiger(&aig_bytes).unwrap());
        assert_eq!(aig_again, aig_bytes, "{name}: write_aig is not stable");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
