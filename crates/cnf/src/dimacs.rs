//! DIMACS CNF reading and writing.
//!
//! The parser accepts the common relaxed dialect: comment lines (`c …`),
//! an optional `p cnf <vars> <clauses>` header, clauses spanning multiple
//! lines, and multiple clauses per line, each terminated by `0`.

use std::error::Error;
use std::fmt;
use std::io::{self, Write};

use crate::{CnfFormula, Lit, Var};

/// The largest variable a DIMACS file may name or declare (`Var::MAX_INDEX`
/// is 0-based, DIMACS variables are 1-based).
const MAX_DIMACS_VAR: u64 = Var::MAX_INDEX as u64 + 1;

/// Error produced when parsing DIMACS text fails.
///
/// # Examples
///
/// ```
/// use rbmc_cnf::parse_dimacs;
///
/// let err = parse_dimacs("p cnf 2 1\n1 x 0\n").unwrap_err();
/// assert!(err.to_string().contains("line 2"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    line: usize,
    kind: ErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ErrorKind {
    BadHeader,
    BadToken(String),
    /// A literal or header count beyond [`MAX_DIMACS_VAR`].
    OutOfRange(String),
    UnterminatedClause,
}

impl ParseDimacsError {
    /// The 1-based line number where the error was detected.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::BadHeader => {
                write!(f, "malformed problem header on line {}", self.line)
            }
            ErrorKind::BadToken(tok) => {
                write!(f, "unexpected token `{tok}` on line {}", self.line)
            }
            ErrorKind::OutOfRange(tok) => write!(
                f,
                "`{tok}` on line {} exceeds the largest supported variable {MAX_DIMACS_VAR}",
                self.line
            ),
            ErrorKind::UnterminatedClause => {
                write!(
                    f,
                    "clause not terminated by 0 at end of input (line {})",
                    self.line
                )
            }
        }
    }
}

impl Error for ParseDimacsError {}

/// Parses DIMACS CNF text into a [`CnfFormula`].
///
/// If a `p cnf` header is present its variable count is honoured as a lower
/// bound (clauses may still grow the range beyond it, as some generators
/// under-report).
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on a malformed header, a non-integer token,
/// a literal or header count beyond the largest supported variable
/// ([`Var::MAX_INDEX`]` + 1`), or a final clause missing its `0`
/// terminator.
///
/// # Examples
///
/// ```
/// use rbmc_cnf::parse_dimacs;
///
/// let f = parse_dimacs("c example\np cnf 3 2\n1 -2 0\n2 3 0\n")?;
/// assert_eq!(f.num_vars(), 3);
/// assert_eq!(f.num_clauses(), 2);
/// # Ok::<(), rbmc_cnf::ParseDimacsError>(())
/// ```
pub fn parse_dimacs(text: &str) -> Result<CnfFormula, ParseDimacsError> {
    let mut formula = CnfFormula::new();
    let mut header_vars: usize = 0;
    let mut current: Vec<Lit> = Vec::new();
    let mut last_line = 0;

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        last_line = lineno;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('p') {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let ok = fields.len() == 3 && fields[0] == "cnf";
            let vars = ok.then(|| fields[1].parse::<u64>().ok()).flatten();
            let clauses = ok.then(|| fields[2].parse::<u64>().ok()).flatten();
            match (vars, clauses) {
                (Some(v), Some(c)) => {
                    for (count, tok) in [(v, fields[1]), (c, fields[2])] {
                        if count > MAX_DIMACS_VAR {
                            return Err(ParseDimacsError {
                                line: lineno,
                                kind: ErrorKind::OutOfRange(tok.to_string()),
                            });
                        }
                    }
                    header_vars = v as usize;
                }
                _ => {
                    return Err(ParseDimacsError {
                        line: lineno,
                        kind: ErrorKind::BadHeader,
                    })
                }
            }
            continue;
        }
        for tok in trimmed.split_whitespace() {
            let n: i64 = tok.parse().map_err(|_| ParseDimacsError {
                line: lineno,
                kind: ErrorKind::BadToken(tok.to_string()),
            })?;
            if n.unsigned_abs() > MAX_DIMACS_VAR {
                return Err(ParseDimacsError {
                    line: lineno,
                    kind: ErrorKind::OutOfRange(tok.to_string()),
                });
            }
            if n == 0 {
                formula.add_clause(std::mem::take(&mut current));
            } else {
                current.push(Lit::from_dimacs(n));
            }
        }
    }

    if !current.is_empty() {
        return Err(ParseDimacsError {
            line: last_line,
            kind: ErrorKind::UnterminatedClause,
        });
    }
    // Honour the header's variable count as a lower bound.
    formula.ensure_vars(header_vars);
    Ok(formula)
}

/// Writes a formula in DIMACS CNF format.
///
/// A mutable reference to any `Write` can be passed (e.g. `&mut Vec<u8>` or a
/// file).
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
///
/// # Examples
///
/// ```
/// use rbmc_cnf::{parse_dimacs, write_dimacs};
///
/// let f = parse_dimacs("p cnf 2 1\n1 -2 0\n")?;
/// let mut out = Vec::new();
/// write_dimacs(&mut out, &f)?;
/// let text = String::from_utf8(out)?;
/// assert!(text.contains("p cnf 2 1"));
/// assert!(text.contains("1 -2 0"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_dimacs<W: Write>(mut writer: W, formula: &CnfFormula) -> io::Result<()> {
    writeln!(
        writer,
        "p cnf {} {}",
        formula.num_vars(),
        formula.num_clauses()
    )?;
    for clause in formula {
        for lit in clause.lits() {
            write!(writer, "{} ", lit.to_dimacs())?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

/// Renders a formula as a DIMACS string (convenience wrapper over
/// [`write_dimacs`]).
pub fn to_dimacs_string(formula: &CnfFormula) -> String {
    let mut out = Vec::new();
    write_dimacs(&mut out, formula).expect("writing to Vec cannot fail");
    String::from_utf8(out).expect("DIMACS output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_file() {
        let f = parse_dimacs("c hi\np cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        assert_eq!(f.num_vars(), 3);
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(
            f.clause(0).lits(),
            &[Lit::from_dimacs(1), Lit::from_dimacs(-2)]
        );
    }

    #[test]
    fn parses_multiline_and_multiclause_lines() {
        let f = parse_dimacs("1 2\n-3 0 3 0\n").unwrap();
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.clause(0).len(), 3);
        assert_eq!(f.clause(1).len(), 1);
    }

    #[test]
    fn parses_empty_clause() {
        let f = parse_dimacs("p cnf 1 1\n0\n").unwrap();
        assert_eq!(f.num_clauses(), 1);
        assert!(f.clause(0).is_empty());
    }

    #[test]
    fn header_pads_variable_range() {
        let f = parse_dimacs("p cnf 10 1\n1 0\n").unwrap();
        assert_eq!(f.num_vars(), 10);
    }

    #[test]
    fn rejects_bad_header() {
        let err = parse_dimacs("p cnf x 1\n").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn rejects_bad_token() {
        let err = parse_dimacs("p cnf 2 1\n1 x 0\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains('x'));
    }

    #[test]
    fn rejects_a_literal_beyond_the_largest_variable() {
        // An error, not a panic in `Var::new`.
        let err = parse_dimacs("p cnf 1 1\n3000000000 0\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("3000000000"), "{err}");
        let err = parse_dimacs("-3000000000 0\n").unwrap_err();
        assert_eq!(err.line(), 1);
        // The largest variable itself is fine.
        let max = MAX_DIMACS_VAR;
        let f = parse_dimacs(&format!("-{max} 0\n")).unwrap();
        assert_eq!(f.num_vars(), Var::MAX_INDEX + 1);
    }

    #[test]
    fn rejects_a_header_count_beyond_the_largest_variable() {
        // An error, not a formula whose solver would allocate for three
        // billion variables.
        let err = parse_dimacs("p cnf 3000000000 1\n1 0\n").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("3000000000"), "{err}");
        let err = parse_dimacs("p cnf 1 3000000000\n1 0\n").unwrap_err();
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn rejects_unterminated_clause() {
        let err = parse_dimacs("p cnf 2 1\n1 2\n").unwrap_err();
        assert!(err.to_string().contains("not terminated"));
    }

    #[test]
    fn roundtrip_through_dimacs() {
        let original = parse_dimacs("p cnf 4 3\n1 -2 0\n-3 4 0\n2 0\n").unwrap();
        let text = to_dimacs_string(&original);
        let reparsed = parse_dimacs(&text).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let f = parse_dimacs("\nc one\n\nc two\n1 0\n").unwrap();
        assert_eq!(f.num_clauses(), 1);
    }
}
