//! Parser robustness fuzzing: AIGER and DIMACS.
//!
//! Valid AIGER files in both encodings are mutilated — truncated at an
//! arbitrary byte, hit with random byte flips, or both — and fed back to
//! [`parse_aiger`]. The contract under test: the parser never panics on
//! corrupted input, and every rejection is a [`ParseAigerError`] whose byte
//! offset points into (or just past the end of) the input, so a damaged
//! benchmark file surfaces as a positioned per-file diagnostic in the
//! corpus runner instead of a crash. A header-inflation class rewrites one
//! header count of every seed to a huge value: a count the reader trusted
//! for an allocation would abort the process, which no caller can catch,
//! so the reader (and the linter `rbmc` runs before it) must answer with a
//! value or a positioned error here too. Valid DIMACS formulas get the
//! same truncations and byte flips, and [`parse_dimacs`] must likewise
//! return, with any error naming a line of the input.
//!
//! [`parse_aiger`]: refined_bmc::circuit::aiger::parse_aiger
//! [`ParseAigerError`]: refined_bmc::circuit::aiger::ParseAigerError
//! [`parse_dimacs`]: refined_bmc::cnf::parse_dimacs

use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use refined_bmc::bmc::{ProblemBuilder, Unroller};
use refined_bmc::circuit::aiger::{parse_aiger, write_aag, write_aig};
use refined_bmc::circuit::lint::lint_aiger;
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

/// Valid DIMACS formulas (BMC instances of the same families, with a
/// header) to mutate.
fn dimacs_seeds() -> &'static Vec<Vec<u8>> {
    static SEEDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let models = [
            families::gated_counter(4, 2, 7),
            families::token_ring(3),
            families::tmr_voter(2, 1),
            families::mutex_arbiter(2),
        ];
        models
            .iter()
            .map(|model| {
                let cnf = format!(
                    "c {}\n{}",
                    model.name(),
                    to_dimacs_string(&Unroller::new(model).formula(2))
                );
                assert!(parse_dimacs(&cnf).is_ok());
                cnf.into_bytes()
            })
            .collect()
    })
}

/// The robustness contract for one mutated DIMACS text: parsing must
/// return, and any error must name a line of the input.
fn dimacs_parses_or_positions_error(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    if let Err(e) = parse_dimacs(&text) {
        let (line, lines) = (e.line(), text.lines().count());
        prop_assert!(
            (1..=lines).contains(&line),
            "line {line} outside the {lines}-line input: {e}"
        );
        prop_assert!(
            e.to_string().contains(&format!("line {line}")),
            "display must carry the position: {e}"
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

/// Header counts the inflation class writes: a million, a billion, a
/// trillion, and the largest count the header accepts.
const INFLATED: [usize; 4] = [1 << 20, 1_000_000_000, 1 << 40, usize::MAX / 8];

/// Rewrites header count `field` (0 = `M`, 1 = `I`, 2 = `L`, 3 = `O`,
/// 4 = `A`, 5 = `B`) of an AIGER file to `value` and leaves every other
/// byte alone. A binary header must keep `M = I + L + A`, or every
/// inflation would stop at that check, so inflating `I`, `L` or `A` there
/// re-derives `M` as well.
fn inflate_header(bytes: &[u8], field: usize, value: usize) -> Vec<u8> {
    let end = bytes.iter().position(|&b| b == b'\n').expect("header line");
    let header = std::str::from_utf8(&bytes[..end]).expect("ASCII header");
    let mut tokens = header.split(' ');
    let magic = tokens.next().expect("magic");
    let mut counts: Vec<usize> = tokens.map(|t| t.parse().expect("count")).collect();
    counts[field] = value;
    if magic == "aig" && matches!(field, 1 | 2 | 4) {
        counts[0] = counts[1] + counts[2] + counts[4];
    }
    let mut out = magic.as_bytes().to_vec();
    for count in counts {
        out.extend_from_slice(format!(" {count}").as_bytes());
    }
    out.extend_from_slice(&bytes[end..]);
    out
}

#[test]
fn header_inflation_never_aborts() {
    for bytes in seeds() {
        let fields = bytes
            .iter()
            .take_while(|&&b| b != b'\n')
            .filter(|&&b| b == b' ')
            .count();
        for field in 0..fields {
            for value in INFLATED {
                let mutant = inflate_header(bytes, field, value);
                let header = String::from_utf8_lossy(&mutant[..mutant.len().min(60)]).into_owned();
                lint_aiger(&mutant);
                parses_or_positions_error(&mutant)
                    .unwrap_or_else(|e| panic!("header `{header}`…: {e}"));
            }
        }
    }
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
    fn dimacs_truncations_never_panic(file in 0usize..64, cut in 0usize..1 << 20) {
        let files = dimacs_seeds();
        let bytes = &files[file % files.len()];
        let cut = cut % (bytes.len() + 1);
        dimacs_parses_or_positions_error(&bytes[..cut])?;
    }

    #[test]
    fn dimacs_byte_flips_never_panic(
        file in 0usize..64,
        at in 0usize..1 << 20,
        mask in 1u8..=255,
    ) {
        let files = dimacs_seeds();
        let mut bytes = files[file % files.len()].clone();
        let i = at % bytes.len();
        bytes[i] ^= mask;
        dimacs_parses_or_positions_error(&bytes)?;
    }
}
