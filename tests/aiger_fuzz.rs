//! Parser robustness fuzzing: AIGER, BLIF and DIMACS.
//!
//! Valid AIGER files in both encodings are mutilated — truncated at an
//! arbitrary byte, hit with random byte flips, or both — and fed back to
//! [`parse_aiger`]. The contract under test: the parser never panics on
//! corrupted input, and every rejection is a [`ParseAigerError`] whose byte
//! offset points into (or just past the end of) the input, so a damaged
//! benchmark file surfaces as a positioned per-file diagnostic in the
//! corpus runner instead of a crash. Valid BLIF netlists and DIMACS
//! formulas get the same truncations and byte flips, and [`parse_blif`] and
//! [`parse_dimacs`] must likewise return, with any error naming a line of
//! the input.
//!
//! [`parse_aiger`]: refined_bmc::circuit::aiger::parse_aiger
//! [`ParseAigerError`]: refined_bmc::circuit::aiger::ParseAigerError
//! [`parse_blif`]: refined_bmc::circuit::blif::parse_blif
//! [`parse_dimacs`]: refined_bmc::cnf::parse_dimacs

use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use refined_bmc::bmc::{ProblemBuilder, Unroller};
use refined_bmc::circuit::aiger::{parse_aiger, write_aag, write_aig};
use refined_bmc::circuit::blif::{parse_blif, write_blif};
use refined_bmc::cnf::{parse_dimacs, to_dimacs_string};
use refined_bmc::gens::corpus::{multi_even_counter, problem_to_aig};
use refined_bmc::gens::families;

/// Valid seed files in both encodings from a spread of generator families,
/// including the multi-property instance (extra `B` lines and symbols).
fn seeds() -> &'static Vec<Vec<u8>> {
    static SEEDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let models = [
            families::gated_counter(4, 2, 7),
            families::token_ring(3),
            families::tmr_voter(2, 1),
            families::mutex_arbiter(2),
        ];
        let mut files = Vec::new();
        for model in &models {
            let aig = problem_to_aig(&ProblemBuilder::from_model(model).build());
            files.push(write_aag(&aig).into_bytes());
            files.push(write_aig(&aig));
        }
        let multi = problem_to_aig(&multi_even_counter());
        files.push(write_aag(&multi).into_bytes());
        files.push(write_aig(&multi));
        files
    })
}

/// The text formats fuzzed alongside AIGER.
#[derive(Clone, Copy, Debug)]
enum Text {
    Blif,
    Dimacs,
}

/// Valid BLIF netlists and DIMACS formulas (BMC instances of the same
/// families, with a header) to mutate.
fn text_seeds() -> &'static Vec<(Text, Vec<u8>)> {
    static SEEDS: OnceLock<Vec<(Text, Vec<u8>)>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let models = [
            families::gated_counter(4, 2, 7),
            families::token_ring(3),
            families::tmr_voter(2, 1),
            families::mutex_arbiter(2),
        ];
        let mut files = Vec::new();
        for model in &models {
            let blif = write_blif(model.netlist(), model.name());
            let cnf = format!(
                "c {}\n{}",
                model.name(),
                to_dimacs_string(&Unroller::new(model).formula(2))
            );
            assert!(parse_blif(&blif).is_ok() && parse_dimacs(&cnf).is_ok());
            files.push((Text::Blif, blif.into_bytes()));
            files.push((Text::Dimacs, cnf.into_bytes()));
        }
        files
    })
}

/// The robustness contract for one mutated BLIF or DIMACS text: parsing must
/// return, and any error must name a line of the input (BLIF reports line 0
/// for errors about the file as a whole).
fn text_parses_or_positions_error(format: Text, bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    let error = match format {
        Text::Blif => parse_blif(&text).err().map(|e| (e.line(), e.to_string())),
        Text::Dimacs => parse_dimacs(&text).err().map(|e| (e.line(), e.to_string())),
    };
    if let Some((line, message)) = error {
        let lines = text.lines().count();
        prop_assert!(
            line <= lines,
            "{format:?}: line {line} outside the {lines}-line input: {message}"
        );
        prop_assert!(
            line == 0 || message.contains(&format!("line {line}")),
            "{format:?}: display must carry the position: {message}"
        );
    }
    Ok(())
}

/// The robustness contract for one mutated input: parsing must return (a
/// benign mutation may still parse), and any error must carry a byte offset
/// inside the input and render it.
fn parses_or_positions_error(bytes: &[u8]) -> Result<(), TestCaseError> {
    match parse_aiger(bytes) {
        Ok(_) => {}
        Err(e) => {
            prop_assert!(
                e.offset() <= bytes.len(),
                "offset {} outside the {}-byte input: {e}",
                e.offset(),
                bytes.len()
            );
            prop_assert!(
                e.to_string().contains("at byte"),
                "display must carry the position: {e}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncations_never_panic(file in 0usize..64, cut in 0usize..1 << 20) {
        let files = seeds();
        let bytes = &files[file % files.len()];
        let cut = cut % (bytes.len() + 1);
        parses_or_positions_error(&bytes[..cut])?;
    }

    #[test]
    fn byte_flips_never_panic(
        file in 0usize..64,
        at in 0usize..1 << 20,
        mask in 1u8..=255,
    ) {
        let files = seeds();
        let mut bytes = files[file % files.len()].clone();
        let i = at % bytes.len();
        bytes[i] ^= mask;
        parses_or_positions_error(&bytes)?;
    }

    #[test]
    fn truncated_and_flipped_never_panic(
        file in 0usize..64,
        cut in 0usize..1 << 20,
        at in 0usize..1 << 20,
        mask in 1u8..=255,
    ) {
        let files = seeds();
        let bytes = &files[file % files.len()];
        // Keep at least the magic so both parser front ends get exercised.
        let cut = 4 + cut % (bytes.len() - 3);
        let mut mutant = bytes[..cut].to_vec();
        let i = at % mutant.len();
        mutant[i] ^= mask;
        parses_or_positions_error(&mutant)?;
    }

    #[test]
    fn blif_and_dimacs_truncations_never_panic(file in 0usize..64, cut in 0usize..1 << 20) {
        let files = text_seeds();
        let (format, bytes) = &files[file % files.len()];
        let cut = cut % (bytes.len() + 1);
        text_parses_or_positions_error(*format, &bytes[..cut])?;
    }

    #[test]
    fn blif_and_dimacs_byte_flips_never_panic(
        file in 0usize..64,
        at in 0usize..1 << 20,
        mask in 1u8..=255,
    ) {
        let files = text_seeds();
        let (format, bytes) = &files[file % files.len()];
        let mut bytes = bytes.clone();
        let i = at % bytes.len();
        bytes[i] ^= mask;
        text_parses_or_positions_error(*format, &bytes)?;
    }
}
