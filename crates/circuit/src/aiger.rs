//! AIGER reading and writing for [`Aig`]s — ASCII (`aag`) and binary (`aig`).
//!
//! Supports the sequential subset of AIGER 1.9 in both encodings: the
//! header, inputs, latches with optional reset values, outputs, **bad-state
//! properties** (`B` lines — the HWMCC property convention), AND gates, and
//! the symbol table. The binary format stores AND gates as delta-encoded
//! varint pairs ([`parse_aig`]/[`write_aig`]); [`parse_aiger`] auto-detects
//! the encoding from the header magic. Invariant-constraint, justice, and
//! fairness sections (`C`/`J`/`F`) are rejected as unsupported rather than
//! silently misread: ignoring them would change the model's semantics.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::{Aig, AigLit, LatchInit};

/// Error produced when parsing an AIGER file fails.
///
/// Every error carries the byte offset of the failure — the only position
/// that stays meaningful inside the delta-encoded binary AND section, and
/// the robustness contract the fuzz suite enforces: truncated, bit-flipped,
/// or otherwise adversarial input must yield a positioned error, never a
/// panic. ASCII-attributable failures additionally carry the 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAigerError {
    line: usize,
    offset: usize,
    message: String,
}

impl ParseAigerError {
    fn at_byte(offset: usize, line: usize, message: impl Into<String>) -> ParseAigerError {
        ParseAigerError {
            line,
            offset,
            message: message.into(),
        }
    }

    /// The 1-based line of the error (0 when the failure is not attributable
    /// to a single line, e.g. a section count mismatch noticed at the end).
    pub fn line(&self) -> usize {
        self.line
    }

    /// The byte offset of the failure within the input (the input length
    /// when the problem is that the file ended too early).
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "aiger error at byte {}: {}", self.offset, self.message)
        } else {
            write!(
                f,
                "aiger error at byte {} (line {}): {}",
                self.offset, self.line, self.message
            )
        }
    }
}

impl Error for ParseAigerError {}

/// A parse position — byte offset plus 1-based line — threaded through the
/// section model so errors discovered during assembly (dangling literals,
/// redefined variables) still point at the source bytes that caused them.
#[derive(Clone, Copy, Debug)]
struct Pos {
    offset: usize,
    line: usize,
}

impl Pos {
    fn err(self, message: impl Into<String>) -> ParseAigerError {
        ParseAigerError::at_byte(self.offset, self.line, message)
    }
}

// ---------------------------------------------------------------------------
// Shared section model: both parsers collect these and assemble one way.
// ---------------------------------------------------------------------------

struct LatchLine {
    own_var: usize,
    next_code: usize,
    reset: usize,
    pos: Pos,
}

struct AndLine {
    lhs_var: usize,
    rhs0: usize,
    rhs1: usize,
    pos: Pos,
}

/// Everything both encodings share once their sections are tokenized. Each
/// entry keeps the position of the line (or varint pair) that declared it.
struct Sections {
    input_vars: Vec<(usize, Pos)>,
    latches: Vec<LatchLine>,
    output_codes: Vec<(usize, Pos)>,
    bad_codes: Vec<(usize, Pos)>,
    ands: Vec<AndLine>,
    symbols: HashMap<String, String>,
}

/// Builds the [`Aig`] out of tokenized sections (shared between the `aag`
/// and `aig` readers). AND definitions may arrive in any order in ASCII
/// files, so resolution iterates to a fixed point; well-formed binary files
/// resolve in one pass.
///
/// `num_vars` sizes the dense variable table: every variable the sections
/// name must be below it. Callers derive it only from counts they have
/// checked against the input, so an inflated header cannot size it.
fn assemble(sections: Sections, num_vars: usize) -> Result<Aig, ParseAigerError> {
    let Sections {
        input_vars,
        latches,
        output_codes,
        bad_codes,
        ands,
        symbols,
    } = sections;
    let mut aig = Aig::new();
    aig.reserve(input_vars.len() + latches.len() + ands.len(), ands.len());
    let mut lit_of_var: Vec<Option<AigLit>> = vec![None; num_vars];
    lit_of_var[0] = Some(AigLit::FALSE);
    for &(v, pos) in &input_vars {
        let lit = aig.add_input();
        if lit_of_var[v].replace(lit).is_some() {
            return Err(pos.err(format!("variable {v} redefined")));
        }
    }
    for line in &latches {
        let init = match line.reset {
            0 => LatchInit::Zero,
            1 => LatchInit::One,
            r if r == line.own_var * 2 => LatchInit::Free,
            other => {
                return Err(line.pos.err(format!("bad reset {other}")));
            }
        };
        let lit = aig.add_latch(init);
        if lit_of_var[line.own_var].replace(lit).is_some() {
            return Err(line.pos.err(format!("variable {} redefined", line.own_var)));
        }
    }
    let read = |table: &[Option<AigLit>], code: usize| -> Option<AigLit> {
        table[code / 2].map(|lit| if code % 2 == 1 { !lit } else { lit })
    };
    // Resolve AND gates; AIGER guarantees rhs < lhs in well-formed files, but
    // be liberal: iterate until a fixed point, then fail on leftovers.
    let mut remaining: Vec<&AndLine> = ands.iter().collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        let mut kept = 0;
        for idx in 0..before {
            let line = remaining[idx];
            match (read(&lit_of_var, line.rhs0), read(&lit_of_var, line.rhs1)) {
                (Some(a), Some(b)) => {
                    let lit = aig.and2(a, b);
                    if lit_of_var[line.lhs_var].replace(lit).is_some() {
                        return Err(line.pos.err(format!("variable {} redefined", line.lhs_var)));
                    }
                }
                _ => {
                    remaining[kept] = line;
                    kept += 1;
                }
            }
        }
        remaining.truncate(kept);
        if kept == before {
            return Err(remaining[0].pos.err("cyclic or dangling AND definitions"));
        }
    }
    let resolve = |code: usize, pos: Pos| -> Result<AigLit, ParseAigerError> {
        read(&lit_of_var, code).ok_or_else(|| pos.err(format!("undefined literal {code}")))
    };
    for line in &latches {
        let own = lit_of_var[line.own_var].expect("latch variables are defined");
        aig.set_next(own, resolve(line.next_code, line.pos)?);
    }
    for (idx, &(code, pos)) in output_codes.iter().enumerate() {
        let name = symbols
            .get(&format!("o{idx}"))
            .cloned()
            .unwrap_or_else(|| format!("o{idx}"));
        let lit = resolve(code, pos)?;
        aig.add_output(&name, lit);
    }
    for (idx, &(code, pos)) in bad_codes.iter().enumerate() {
        let name = symbols
            .get(&format!("b{idx}"))
            .cloned()
            .unwrap_or_else(|| format!("b{idx}"));
        let lit = resolve(code, pos)?;
        aig.add_bad(&name, lit);
    }
    Ok(aig)
}

/// Parsed `M I L O A [B [C [J [F]]]]` counts of either header.
struct Header {
    m: usize,
    i: usize,
    l: usize,
    o: usize,
    a: usize,
    b: usize,
}

/// Every header count is capped far below `usize::MAX` so downstream
/// arithmetic — literal codes `2v + 1`, the binary `M = I + L + A` check,
/// the implicit binary lhs `2 * (I + L + 1 + idx)` — can never overflow no
/// matter what an adversarial header declares.
const MAX_HEADER_COUNT: usize = usize::MAX / 8;

fn parse_header(line: &str, magic: &str) -> Result<Header, ParseAigerError> {
    let at_header = |message: String| ParseAigerError::at_byte(0, 1, message);
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 6 || fields.len() > 10 || fields[0] != magic {
        return Err(at_header(format!(
            "malformed header (want `{magic} M I L O A [B [C [J [F]]]]`)"
        )));
    }
    let num = |idx: usize| -> Result<usize, ParseAigerError> {
        match fields.get(idx) {
            None => Ok(0),
            Some(s) => {
                let n: usize = s
                    .parse()
                    .map_err(|_| at_header(format!("bad number `{s}`")))?;
                if n > MAX_HEADER_COUNT {
                    return Err(at_header(format!("header count {n} is too large")));
                }
                Ok(n)
            }
        }
    };
    let header = Header {
        m: num(1)?,
        i: num(2)?,
        l: num(3)?,
        o: num(4)?,
        a: num(5)?,
        b: num(6)?,
    };
    for (idx, section) in [(7, "constraint"), (8, "justice"), (9, "fairness")] {
        if num(idx)? != 0 {
            return Err(at_header(format!("{section} sections are not supported")));
        }
    }
    Ok(header)
}

// ---------------------------------------------------------------------------
// ASCII (`aag`)
// ---------------------------------------------------------------------------

/// Renumbering shared by both writers: inputs first, then latches, then ANDs
/// in index order (which is topological, so AND fanins always get smaller
/// variables — the invariant the binary delta encoding requires). Returns
/// each node's AIGER variable, indexed by node (the constant keeps 0), and
/// the AND nodes in order.
fn writer_numbering(aig: &Aig) -> (Vec<usize>, Vec<usize>) {
    let mut var_of = vec![0; aig.num_nodes()];
    let mut next_var = 1;
    for &id in aig.inputs().iter().chain(aig.latches()) {
        var_of[id] = next_var;
        next_var += 1;
    }
    let mut and_nodes: Vec<usize> = Vec::new();
    for (node, var) in var_of.iter_mut().enumerate() {
        if aig.and_fanins(node).is_some() {
            *var = next_var;
            and_nodes.push(node);
            next_var += 1;
        }
    }
    (var_of, and_nodes)
}

/// Both encodings, into one buffer sized once. They differ only in the
/// magic, in the ASCII encoding's input lines and latch literals, and in how
/// AND gates are written. Numbers are formatted by hand.
fn write_aiger(aig: &Aig, binary: bool) -> Vec<u8> {
    let (var_of, and_nodes) = writer_numbering(aig);
    let lit_of = |lit: AigLit| -> usize { var_of[lit.node()] * 2 + lit.is_inverted() as usize };
    let (inputs, latches, ands) = (aig.inputs().len(), aig.latches().len(), and_nodes.len());
    let m = inputs + latches + ands;
    let properties = aig.outputs().len() + aig.bads().len();

    // Every number but a symbol's index is at most `2m + 1` and takes at
    // most `width` bytes with its separator; a binary AND takes two deltas
    // of at most 5 bytes each, and a symbol line its name and 3 bytes more
    // than its index.
    let digits = |n: usize| n.checked_ilog10().unwrap_or(0) as usize + 1;
    let width = digits(2 * m + 1) + 1;
    let names: usize = (aig.outputs().iter().chain(aig.bads()))
        .map(|(name, _)| name.len() + digits(properties) + 3)
        .sum();
    let and_bytes = if binary { 10 } else { 3 * width };
    let input_lines = if binary { 0 } else { inputs };
    let capacity =
        4 + (6 + input_lines + 3 * latches + properties) * width + ands * and_bytes + names;
    let mut out: Vec<u8> = Vec::with_capacity(capacity);
    out.extend_from_slice(if binary { b"aig " } else { b"aag " });
    let counts = [
        m,
        inputs,
        latches,
        aig.outputs().len(),
        ands,
        aig.bads().len(),
    ];
    push_line(
        &mut out,
        &counts[..if aig.bads().is_empty() { 5 } else { 6 }],
    );
    if !binary {
        for &id in aig.inputs() {
            push_line(&mut out, &[var_of[id] * 2]);
        }
    }
    for &id in aig.latches() {
        let next = aig.next_of(id).expect("latch connected");
        let own = var_of[id] * 2;
        let reset = match aig.init_of(id).unwrap_or(LatchInit::Zero) {
            LatchInit::Zero => 0,
            LatchInit::One => 1,
            LatchInit::Free => own,
        };
        let line = [own, lit_of(next), reset];
        push_line(
            &mut out,
            &line[usize::from(binary)..if reset != 0 { 3 } else { 2 }],
        );
    }
    for (_, lit) in aig.outputs().iter().chain(aig.bads()) {
        push_line(&mut out, &[lit_of(*lit)]);
    }
    for &node in &and_nodes {
        let (a, b) = aig.and_fanins(node).expect("node is an AND");
        let lhs = var_of[node] * 2;
        // AIGER convention: lhs > rhs0 >= rhs1.
        let (mut r0, mut r1) = (lit_of(a), lit_of(b));
        if r0 < r1 {
            std::mem::swap(&mut r0, &mut r1);
        }
        if binary {
            debug_assert!(lhs > r0 && r0 >= r1, "writer numbering is topological");
            push_delta(&mut out, lhs - r0);
            push_delta(&mut out, r0 - r1);
        } else {
            push_line(&mut out, &[lhs, r0, r1]);
        }
    }
    // The symbol table names every output and bad-state property, default
    // `o<i>`/`b<i>` names included, so re-serialization is
    // position-independent and byte-stable.
    let symbols = (aig.outputs().iter().enumerate().map(|entry| (b'o', entry)))
        .chain(aig.bads().iter().enumerate().map(|entry| (b'b', entry)));
    for (kind, (i, (name, _))) in symbols {
        out.push(kind);
        push_num(&mut out, i);
        out.push(b' ');
        out.extend_from_slice(name.as_bytes());
        out.push(b'\n');
    }
    debug_assert!(out.len() <= capacity, "the buffer was sized once");
    out
}

/// Appends `nums` in decimal, separated by spaces, and a newline.
fn push_line(out: &mut Vec<u8>, nums: &[usize]) {
    for (i, &n) in nums.iter().enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        push_num(out, n);
    }
    out.push(b'\n');
}

/// Appends `n` in decimal.
fn push_num(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Writes an [`Aig`] as an ASCII AIGER (`aag`) string, including a symbol
/// table for the outputs and bad-state properties. The `B` count appears in
/// the header only when the AIG declares bad-state properties, so AIGER 1.0
/// consumers keep reading property-free files.
///
/// Latch resets follow AIGER 1.9: `0`, `1`, or the latch's own literal for
/// an uninitialized ([`LatchInit::Free`]) latch.
///
/// # Panics
///
/// Panics if some latch has no next-state function.
pub fn write_aag(aig: &Aig) -> String {
    String::from_utf8(write_aiger(aig, false)).expect("ASCII AIGER is UTF-8")
}

/// Parses an ASCII AIGER (`aag`) string into an [`Aig`].
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed headers, out-of-range literals,
/// counts that do not match the header, variables defined twice, or AND
/// definitions that form a cycle. A literal is out of range when its
/// variable exceeds `M` or the file's length in bytes: the reader keeps one
/// table entry per variable, and a gapless file spends at least two bytes
/// per variable, so only gapped numbering can name a variable that far out.
pub fn parse_aag(text: &str) -> Result<Aig, ParseAigerError> {
    // Line iterator that tracks the byte offset of every line start, so each
    // diagnostic can point into the raw input.
    let mut byte = 0usize;
    let mut lines = text.split_inclusive('\n').enumerate().map(move |(i, raw)| {
        let pos = Pos {
            offset: byte,
            line: i + 1,
        };
        byte += raw.len();
        (pos, raw.strip_suffix('\n').unwrap_or(raw))
    });
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseAigerError::at_byte(0, 1, "empty file"))?;
    let header = parse_header(header, "aag")?;
    let Header { m, i, l, o, a, b } = header;
    let parse_num = |s: &str, pos: Pos| -> Result<usize, ParseAigerError> {
        s.parse().map_err(|_| pos.err(format!("bad number `{s}`")))
    };
    // Every variable sizes the dense table in `assemble`, so besides `M` it
    // is bounded by the file's length. Only gapped numbering can exceed
    // that bound: a gapless file spends at least two bytes per variable.
    let max_var = m.min(text.len());
    let check_lit = |code: usize, pos: Pos| -> Result<usize, ParseAigerError> {
        if code / 2 > m {
            Err(pos.err(format!("literal {code} exceeds M")))
        } else if code / 2 > max_var {
            Err(pos.err(format!(
                "literal {code} names a variable beyond the file's {} bytes",
                text.len()
            )))
        } else {
            Ok(code)
        }
    };

    // Cap pre-allocation: the header is untrusted, so a declared count buys
    // at most a modest reservation up front.
    let cap = |n: usize| n.min(1 << 16);
    let mut sections = Sections {
        input_vars: Vec::with_capacity(cap(i)),
        latches: Vec::with_capacity(cap(l)),
        output_codes: Vec::with_capacity(cap(o)),
        bad_codes: Vec::with_capacity(cap(b)),
        ands: Vec::with_capacity(cap(a)),
        symbols: HashMap::new(),
    };

    let mut section_counts = [i, l, o, b, a];
    let mut section = 0usize;
    for (pos, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line == "c" {
            break; // comment section: ignore the rest
        }
        // Symbol table entries.
        if line.starts_with('i')
            || line.starts_with('l')
            || line.starts_with('o')
            || line.starts_with('b')
        {
            if let Some((key, name)) = line.split_once(' ') {
                if key.len() >= 2 && key[1..].chars().all(|c| c.is_ascii_digit()) {
                    sections.symbols.insert(key.to_string(), name.to_string());
                    continue;
                }
            }
        }
        while section < 5 && section_counts[section] == 0 {
            section += 1;
        }
        if section == 5 {
            return Err(pos.err("unexpected extra line"));
        }
        section_counts[section] -= 1;
        // No line of any section holds more than three numbers; the rest
        // are still parsed so a bad token is reported as such.
        let mut nums = [0usize; 3];
        let mut len = 0usize;
        for tok in line.split_whitespace() {
            let n = parse_num(tok, pos)?;
            if let Some(slot) = nums.get_mut(len) {
                *slot = n;
            }
            len += 1;
        }
        match section {
            0 => {
                if len != 1 || !nums[0].is_multiple_of(2) || nums[0] == 0 {
                    return Err(pos.err("malformed input line"));
                }
                sections
                    .input_vars
                    .push((check_lit(nums[0], pos)? / 2, pos));
            }
            1 => {
                if !(len == 2 || len == 3) || !nums[0].is_multiple_of(2) || nums[0] == 0 {
                    return Err(pos.err("malformed latch line"));
                }
                sections.latches.push(LatchLine {
                    own_var: check_lit(nums[0], pos)? / 2,
                    next_code: check_lit(nums[1], pos)?,
                    reset: nums[2],
                    pos,
                });
            }
            2 | 3 => {
                if len != 1 {
                    return Err(pos.err(if section == 2 {
                        "malformed output line"
                    } else {
                        "malformed bad-state line"
                    }));
                }
                let code = check_lit(nums[0], pos)?;
                if section == 2 {
                    sections.output_codes.push((code, pos));
                } else {
                    sections.bad_codes.push((code, pos));
                }
            }
            4 => {
                if len != 3 || !nums[0].is_multiple_of(2) || nums[0] == 0 {
                    return Err(pos.err("malformed and line"));
                }
                sections.ands.push(AndLine {
                    lhs_var: check_lit(nums[0], pos)? / 2,
                    rhs0: check_lit(nums[1], pos)?,
                    rhs1: check_lit(nums[2], pos)?,
                    pos,
                });
            }
            _ => unreachable!(),
        }
    }
    if section_counts.iter().any(|&c| c != 0) {
        return Err(ParseAigerError::at_byte(
            text.len(),
            0,
            "fewer lines than the header declares",
        ));
    }
    assemble(sections, max_var + 1)
}

// ---------------------------------------------------------------------------
// Binary (`aig`)
// ---------------------------------------------------------------------------

/// Appends an unsigned delta in the AIGER varint encoding: 7 bits per byte,
/// high bit set on every byte but the last.
fn push_delta(out: &mut Vec<u8>, mut delta: usize) {
    while delta >= 0x80 {
        out.push((delta as u8 & 0x7f) | 0x80);
        delta >>= 7;
    }
    out.push(delta as u8);
}

/// Writes an [`Aig`] in the binary AIGER (`aig`) format: latch/output/bad
/// lines stay ASCII, AND gates become delta-encoded varint pairs, and the
/// symbol table follows the binary section.
///
/// The writer renumbers nodes as inputs, latches, then ANDs in index order;
/// AIG indices are topological, so every AND's `lhs` exceeds both fanin
/// literals, which is exactly what the delta encoding requires.
///
/// # Panics
///
/// Panics if some latch has no next-state function.
pub fn write_aig(aig: &Aig) -> Vec<u8> {
    write_aiger(aig, true)
}

/// Byte cursor over a binary AIGER file, tracking offset and line for error
/// positions.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor {
            bytes,
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseAigerError {
        ParseAigerError::at_byte(self.pos, self.line, message)
    }

    /// The current position as a [`Pos`], recorded into section entries so
    /// assembly-stage errors can point back at their source bytes.
    fn mark(&self) -> Pos {
        Pos {
            offset: self.pos,
            line: self.line,
        }
    }

    /// Reads one `\n`-terminated ASCII line (without the terminator).
    fn ascii_line(&mut self) -> Result<&'a str, ParseAigerError> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
        if self.pos == self.bytes.len() {
            return Err(self.error("unexpected end of file inside an ASCII section"));
        }
        let line = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("non-UTF-8 bytes in an ASCII section"))?;
        self.pos += 1; // consume the newline
        self.line += 1;
        Ok(line)
    }

    /// Decodes one varint delta of the binary AND section.
    fn delta(&mut self) -> Result<usize, ParseAigerError> {
        let mut value = 0usize;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(self.error("unexpected end of file inside the binary AND section"));
            };
            self.pos += 1;
            if shift >= usize::BITS {
                return Err(self.error("varint delta overflows"));
            }
            value |= ((byte & 0x7f) as usize) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
}

/// Parses a binary AIGER (`aig`) file into an [`Aig`].
///
/// # Errors
///
/// Returns [`ParseAigerError`] on malformed headers, inconsistent counts
/// (`M ≠ I + L + A`), an input count above the file's length in bytes,
/// out-of-range literals, truncated varints, or deltas that break the
/// `lhs > rhs0 ≥ rhs1` ordering the format guarantees. Inputs are the one
/// section the binary encoding stores no bytes for, so the length bound is
/// what keeps a short file from declaring a billion of them. Errors inside
/// the binary AND section report the byte offset of the offending varint.
pub fn parse_aig(bytes: &[u8]) -> Result<Aig, ParseAigerError> {
    let mut cur = Cursor::new(bytes);
    if bytes.is_empty() {
        return Err(ParseAigerError::at_byte(0, 1, "empty file"));
    }
    let header = parse_header(cur.ascii_line()?, "aig")?;
    let Header { m, i, l, o, a, b } = header;
    if m != i + l + a {
        return Err(ParseAigerError::at_byte(
            0,
            1,
            format!("binary header requires M = I + L + A, got {m} != {i} + {l} + {a}"),
        ));
    }
    // Inputs are the one implicit section: they take no bytes, so nothing
    // below would bound their count. Every other variable is backed by a
    // line or a varint pair that has been read by the time it is used.
    if i > bytes.len() {
        return Err(ParseAigerError::at_byte(
            0,
            1,
            format!(
                "header declares {i} inputs, more than the file's {} bytes",
                bytes.len()
            ),
        ));
    }
    let parse_num = |cur: &Cursor<'_>, s: &str| -> Result<usize, ParseAigerError> {
        s.parse()
            .map_err(|_| ParseAigerError::at_byte(cur.pos, cur.line, format!("bad number `{s}`")))
    };
    let check_lit = |cur: &Cursor<'_>, code: usize| -> Result<usize, ParseAigerError> {
        if code / 2 > m {
            Err(ParseAigerError::at_byte(
                cur.pos,
                cur.line,
                format!("literal {code} exceeds M"),
            ))
        } else {
            Ok(code)
        }
    };

    let cap = |n: usize| n.min(1 << 16);
    let header_pos = Pos { offset: 0, line: 1 };
    let mut sections = Sections {
        // Binary numbering is implicit and dense: inputs are variables
        // 1..=I, latches I+1..=I+L, ANDs I+L+1..=M. Implicit inputs have no
        // bytes of their own, so they all point at the header.
        input_vars: (1..=i).map(|v| (v, header_pos)).collect(),
        latches: Vec::with_capacity(cap(l)),
        output_codes: Vec::with_capacity(cap(o)),
        bad_codes: Vec::with_capacity(cap(b)),
        ands: Vec::with_capacity(cap(a)),
        symbols: HashMap::new(),
    };
    for j in 0..l {
        let own_var = i + 1 + j;
        let pos = cur.mark();
        let line = cur.ascii_line()?;
        let mut toks = line.split_whitespace();
        let (Some(next), reset, None) = (toks.next(), toks.next(), toks.next()) else {
            return Err(cur.error("malformed latch line"));
        };
        sections.latches.push(LatchLine {
            own_var,
            next_code: check_lit(&cur, parse_num(&cur, next)?)?,
            reset: match reset {
                Some(tok) => parse_num(&cur, tok)?,
                None => 0,
            },
            pos,
        });
    }
    for _ in 0..o {
        let pos = cur.mark();
        let line = cur.ascii_line()?;
        let code = check_lit(&cur, parse_num(&cur, line.trim())?)?;
        sections.output_codes.push((code, pos));
    }
    for _ in 0..b {
        let pos = cur.mark();
        let line = cur.ascii_line()?;
        let code = check_lit(&cur, parse_num(&cur, line.trim())?)?;
        sections.bad_codes.push((code, pos));
    }
    for idx in 0..a {
        let lhs = 2 * (i + l + 1 + idx);
        let pos = cur.mark();
        let delta0 = cur.delta()?;
        if delta0 == 0 || delta0 > lhs {
            return Err(cur.error(format!("delta {delta0} breaks lhs > rhs0 at gate {idx}")));
        }
        let rhs0 = lhs - delta0;
        let delta1 = cur.delta()?;
        if delta1 > rhs0 {
            return Err(cur.error(format!("delta {delta1} breaks rhs0 >= rhs1 at gate {idx}")));
        }
        sections.ands.push(AndLine {
            lhs_var: lhs / 2,
            rhs0,
            rhs1: rhs0 - delta1,
            pos,
        });
    }
    // Symbol table and comments (both optional, both ASCII).
    while cur.pos < cur.bytes.len() {
        let line = cur.ascii_line()?;
        let trimmed = line.trim();
        if trimmed == "c" {
            break;
        }
        if trimmed.is_empty() {
            continue;
        }
        match trimmed.split_once(' ') {
            Some((key, name))
                if key.len() >= 2
                    && matches!(key.as_bytes()[0], b'i' | b'l' | b'o' | b'b')
                    && key[1..].chars().all(|c| c.is_ascii_digit()) =>
            {
                sections.symbols.insert(key.to_string(), name.to_string());
            }
            _ => return Err(cur.error("unexpected line after the binary AND section")),
        }
    }
    assemble(sections, m + 1)
}

/// Parses an AIGER file in either encoding, auto-detected from the header
/// magic (`aag` → ASCII, `aig` → binary).
///
/// Memory is bounded by the input, not by the header: every table the
/// reader allocates is sized from counts checked against the file's length.
///
/// # Errors
///
/// Returns [`ParseAigerError`] if the magic is neither, or from the
/// underlying parser ([`parse_aag`], [`parse_aig`]). Beyond malformed
/// syntax, that includes a header or literal that outgrows the file: a
/// binary header declaring more inputs than the file has bytes, and an
/// ASCII literal naming a variable above the file's length in bytes.
pub fn parse_aiger(bytes: &[u8]) -> Result<Aig, ParseAigerError> {
    if bytes.starts_with(b"aig ") {
        parse_aig(bytes)
    } else if bytes.starts_with(b"aag ") {
        let text = std::str::from_utf8(bytes).map_err(|e| {
            let at = e.valid_up_to();
            let line = bytes[..at].iter().filter(|&&c| c == b'\n').count() + 1;
            ParseAigerError::at_byte(at, line, "aag file is not valid UTF-8")
        })?;
        parse_aag(text)
    } else {
        Err(ParseAigerError::at_byte(
            0,
            1,
            "unrecognized header (want `aag` or `aig` magic)",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LatchInit, Netlist};

    fn behaviourally_equal(a: &Aig, b: &Aig, steps: usize) {
        assert_eq!(a.inputs().len(), b.inputs().len());
        assert_eq!(a.latches().len(), b.latches().len());
        assert_eq!(a.outputs().len(), b.outputs().len());
        assert_eq!(a.bads().len(), b.bads().len());
        let init = |aig: &Aig| -> Vec<bool> {
            aig.latches()
                .iter()
                .map(|&l| matches!(aig.init_of(l), Some(LatchInit::One)))
                .collect()
        };
        let mut sa = init(a);
        let mut sb = init(b);
        for step in 0..steps {
            let inputs: Vec<bool> = (0..a.inputs().len()).map(|k| (step + k) % 3 == 0).collect();
            let va = a.eval_frame(&sa, &inputs);
            let vb = b.eval_frame(&sb, &inputs);
            for ((_, la), (_, lb)) in a.outputs().iter().zip(b.outputs()) {
                assert_eq!(
                    la.apply(va[la.node()]),
                    lb.apply(vb[lb.node()]),
                    "output diverged at step {step}"
                );
            }
            for ((_, la), (_, lb)) in a.bads().iter().zip(b.bads()) {
                assert_eq!(
                    la.apply(va[la.node()]),
                    lb.apply(vb[lb.node()]),
                    "bad property diverged at step {step}"
                );
            }
            sa = a
                .latches()
                .iter()
                .map(|&l| {
                    let nx = a.next_of(l).unwrap();
                    nx.apply(va[nx.node()])
                })
                .collect();
            sb = b
                .latches()
                .iter()
                .map(|&l| {
                    let nx = b.next_of(l).unwrap();
                    nx.apply(vb[nx.node()])
                })
                .collect();
        }
    }

    fn sample_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let l = aig.add_latch(LatchInit::One);
        let g = aig.xor2(a, l);
        let h = aig.and2(g, !b);
        aig.set_next(l, h);
        aig.add_output("out", g);
        aig
    }

    fn sample_aig_with_bads() -> Aig {
        let mut aig = sample_aig();
        let l = aig.latches()[0];
        let land = aig.and2(AigLit::new(l, false), aig.outputs()[0].1);
        aig.add_bad("never_both", land);
        aig.add_bad("latch_high", AigLit::new(l, false));
        aig
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        let aig = sample_aig();
        let text = write_aag(&aig);
        let back = parse_aag(&text).unwrap();
        behaviourally_equal(&aig, &back, 16);
        // Output name carried through the symbol table.
        assert_eq!(back.outputs()[0].0, "out");
    }

    #[test]
    fn roundtrip_from_netlist() {
        let mut n = Netlist::new();
        let x = n.add_input("x");
        let l0 = n.add_latch("l0", LatchInit::Zero);
        let l1 = n.add_latch("l1", LatchInit::Free);
        let g = n.mux(x, l0, !l1);
        n.set_next(l0, g);
        n.set_next(l1, !g);
        n.add_output("g", g);
        let lowered = Aig::from_netlist(&n);
        let text = write_aag(&lowered.aig);
        let back = parse_aag(&text).unwrap();
        behaviourally_equal(&lowered.aig, &back, 12);
        // Free latch reset survives the roundtrip.
        let free_latches = back
            .latches()
            .iter()
            .filter(|&&l| matches!(back.init_of(l), Some(LatchInit::Free)))
            .count();
        assert_eq!(free_latches, 1);
    }

    #[test]
    fn parses_minimal_file() {
        // Single AND of two inputs.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n";
        let aig = parse_aag(text).unwrap();
        assert_eq!(aig.inputs().len(), 2);
        assert_eq!(aig.num_ands(), 1);
        let vals = aig.eval_frame(&[], &[true, true]);
        let (_, out) = &aig.outputs()[0];
        assert!(out.apply(vals[out.node()]));
    }

    #[test]
    fn parses_constant_output() {
        let text = "aag 0 0 0 1 0\n1\n";
        let aig = parse_aag(text).unwrap();
        assert_eq!(aig.outputs()[0].1, AigLit::TRUE);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse_aag("aig 1 1 0 0 0\n2\n").is_err());
        assert!(parse_aag("aag 1 1\n").is_err());
    }

    #[test]
    fn rejects_truncated_file() {
        let err = parse_aag("aag 2 2 0 0 0\n2\n").unwrap_err();
        assert!(err.to_string().contains("fewer lines"));
    }

    #[test]
    fn rejects_out_of_range_literal() {
        let err = parse_aag("aag 1 0 0 1 0\n99\n").unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn comment_section_is_ignored() {
        let text = "aag 1 1 0 1 0\n2\n2\nc\nanything goes here\n";
        let aig = parse_aag(text).unwrap();
        assert_eq!(aig.inputs().len(), 1);
    }

    #[test]
    fn bad_section_roundtrips_with_names() {
        let aig = sample_aig_with_bads();
        let text = write_aag(&aig);
        // The header grows a B column and the symbol table names the bads.
        assert!(text.starts_with("aag "));
        assert!(text.contains("b0 never_both\n"));
        assert!(text.contains("b1 latch_high\n"));
        let back = parse_aag(&text).unwrap();
        assert_eq!(back.bads().len(), 2);
        assert_eq!(back.bads()[0].0, "never_both");
        assert_eq!(back.bads()[1].0, "latch_high");
        behaviourally_equal(&aig, &back, 16);
    }

    #[test]
    fn parses_bad_lines_without_symbols() {
        // One latch toggling, its own literal as a bad property.
        let text = "aag 1 0 1 0 0 1\n2 3\n2\n";
        let aig = parse_aag(text).unwrap();
        assert_eq!(aig.bads().len(), 1);
        assert_eq!(aig.bads()[0].0, "b0");
    }

    #[test]
    fn rejects_unsupported_sections() {
        // C (constraint) count of 1.
        let err = parse_aag("aag 1 0 1 0 0 0 1\n2 3\n2\n").unwrap_err();
        assert!(err.to_string().contains("not supported"));
    }

    #[test]
    fn binary_roundtrip_preserves_behaviour() {
        let aig = sample_aig_with_bads();
        let bytes = write_aig(&aig);
        assert!(bytes.starts_with(b"aig "));
        let back = parse_aig(&bytes).unwrap();
        behaviourally_equal(&aig, &back, 16);
        assert_eq!(back.outputs()[0].0, "out");
        assert_eq!(back.bads()[0].0, "never_both");
    }

    #[test]
    fn binary_and_ascii_agree() {
        let aig = sample_aig_with_bads();
        let via_ascii = parse_aag(&write_aag(&aig)).unwrap();
        let via_binary = parse_aig(&write_aig(&aig)).unwrap();
        behaviourally_equal(&via_ascii, &via_binary, 16);
        // Same renumbering on both paths: re-serializing to ASCII from either
        // side yields identical bytes.
        assert_eq!(write_aag(&via_ascii), write_aag(&via_binary));
    }

    #[test]
    fn parse_aiger_auto_detects() {
        let aig = sample_aig();
        let ascii = write_aag(&aig);
        let binary = write_aig(&aig);
        behaviourally_equal(
            &parse_aiger(ascii.as_bytes()).unwrap(),
            &parse_aiger(&binary).unwrap(),
            12,
        );
        assert!(parse_aiger(b"garbage").is_err());
    }

    #[test]
    fn binary_errors_carry_byte_offsets() {
        // Truncate inside the AND section: the error must point past the
        // ASCII prefix, at the byte where the varint ran out.
        let aig = sample_aig();
        let bytes = write_aig(&aig);
        let truncated = &bytes[..bytes.len().min(14)];
        let err = parse_aig(truncated).unwrap_err();
        assert!(
            err.offset() > 0 && err.offset() <= truncated.len(),
            "binary error must point into the input, got byte {}",
            err.offset()
        );
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn ascii_errors_carry_byte_offsets() {
        // The malformed latch line starts right after "aag 1 0 1 0 0\n".
        let text = "aag 1 0 1 0 0\n2 bogus\n";
        let err = parse_aag(text).unwrap_err();
        assert_eq!(err.offset(), 14);
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn assembly_errors_point_at_the_offending_line() {
        // Output literal 4 names a variable the file never defines; the
        // error surfaces during assembly but must cite the output line,
        // which starts at byte 16 ("aag 2 1 0 1 0\n2\n").
        let err = parse_aag("aag 2 1 0 1 0\n2\n4\n").unwrap_err();
        assert!(err.to_string().contains("undefined literal"));
        assert_eq!(err.offset(), 16);
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn truncation_error_points_at_end_of_file() {
        let text = "aag 2 2 0 0 0\n2\n";
        let err = parse_aag(text).unwrap_err();
        assert!(err.to_string().contains("fewer lines"));
        assert_eq!(err.offset(), text.len());
    }

    #[test]
    fn invalid_utf8_error_points_at_first_bad_byte() {
        let mut bytes = b"aag 1 0 1 0 0 1\n2 3\n2\n".to_vec();
        bytes[17] = 0xff;
        let err = parse_aiger(&bytes).unwrap_err();
        assert!(err.to_string().contains("UTF-8"));
        assert_eq!(err.offset(), 17);
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn oversized_header_counts_are_rejected() {
        let text = format!("aag {0} {0} 0 0 0\n", usize::MAX / 2);
        let err = parse_aag(&text).unwrap_err();
        assert!(err.to_string().contains("too large"));
    }

    #[test]
    fn binary_input_count_beyond_the_file_is_rejected() {
        // 32 bytes declaring 10^9 inputs: the implicit input section would
        // take no bytes at all, so only the file's length bounds it.
        let bytes = b"aig 1000000000 1000000000 0 0 0\n";
        assert_eq!(bytes.len(), 32);
        let err = parse_aiger(bytes).unwrap_err();
        assert!(err.to_string().contains("inputs"), "{err}");
        assert_eq!((err.offset(), err.line()), (0, 1));
        // As many inputs as bytes is still fine.
        let aig = parse_aiger(b"aig 3 3 0 0 0\n").unwrap();
        assert_eq!(aig.inputs().len(), 3);
    }

    #[test]
    fn ascii_variable_beyond_the_file_is_rejected() {
        // Gapped numbering names variable 10^9 in 33 bytes; the error
        // points at the input line that names it.
        let text = "aag 1000000000 1 0 0 0\n2000000000\n";
        assert_eq!(text.len(), 34);
        let err = parse_aiger(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("beyond the file"), "{err}");
        assert_eq!((err.offset(), err.line()), (23, 2));
        // A huge `M` alone sizes nothing.
        let aig = parse_aag("aag 1000000000 1 0 1 0\n2\n3\n").unwrap();
        assert_eq!(aig.outputs()[0].1, !AigLit::new(aig.inputs()[0], false));
    }

    #[test]
    fn gapped_ascii_numbering_resolves() {
        // Variables 2, 5 and 9 of M = 12; the AND is variable 9.
        let aig = parse_aag("aag 12 2 0 1 1\n4\n10\n18\n18 10 5\n").unwrap();
        assert_eq!(aig.inputs().len(), 2);
        assert_eq!(aig.num_ands(), 1);
        let (_, out) = aig.outputs()[0];
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let values = aig.eval_frame(&[], &[a, b]);
            assert_eq!(out.apply(values[out.node()]), !a && b, "inputs {a} {b}");
        }
    }

    #[test]
    fn and_defined_before_its_fanin_resolves() {
        // Gate 8 reads gate 6, whose line comes after it.
        let aig = parse_aag("aag 4 2 0 1 2\n2\n4\n8\n8 6 2\n6 4 2\n").unwrap();
        assert_eq!(aig.num_ands(), 2);
        let (_, out) = aig.outputs()[0];
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let values = aig.eval_frame(&[], &[a, b]);
            assert_eq!(out.apply(values[out.node()]), a && b, "inputs {a} {b}");
        }
    }

    #[test]
    fn and_redefining_a_variable_is_rejected() {
        // The AND line reuses the latch's variable 1: an error at that
        // line, not a latch that silently becomes a gate.
        let err = parse_aag("aag 2 0 1 0 1\n2 3\n2 3 3\n").unwrap_err();
        assert!(err.to_string().contains("variable 1 redefined"), "{err}");
        assert_eq!(err.line(), 3);
        let err = parse_aag("aag 2 1 0 0 1\n2\n2 1 1\n").unwrap_err();
        assert!(err.to_string().contains("variable 1 redefined"), "{err}");
    }

    #[test]
    fn binary_rejects_inconsistent_header() {
        // M must equal I + L + A in the binary format.
        let err = parse_aig(b"aig 5 2 0 1 1\n6\n").unwrap_err();
        assert!(err.to_string().contains("M = I + L + A"));
    }

    #[test]
    fn binary_rejects_breaking_deltas() {
        // Header: M=1 I=0 L=0 O=0 A=1 → single AND with lhs literal 2.
        // delta0 = 0 would make rhs0 == lhs.
        let err = parse_aig(b"aig 1 0 0 0 1\n\x00\x00").unwrap_err();
        assert!(err.to_string().contains("lhs > rhs0"));
        assert!(err.offset() >= 14, "must point into the AND section");
    }
}
