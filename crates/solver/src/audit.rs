//! Solver-state auditor (the `debug-invariants` feature).
//!
//! [`Solver::audit`] cross-checks the redundant data structures of the
//! solver against each other: the watch lists against the clause arena, the
//! trail against the literal-value table, levels and reasons, the arena
//! record chain against its
//! own headers, the CDG against the live-clause roots that
//! [`Solver::prune_cdg`] keeps, the decision heap against its scores and
//! the assignment, and a started proof log's live lines against the clause
//! database. The checks are O(database) and allocate flat tables indexed
//! by arena offset, so they live behind a cargo feature and are invoked
//! from the differential test suites (and internally after compaction and
//! CDG pruning) rather than from production runs.
//!
//! The auditor is deliberately a *child module* of `solver`: it reads the
//! private fields directly, so it can never drift into testing a sanitized
//! accessor view instead of the real state.

use rbmc_cnf::{Lit, Var};

use crate::cdg::ClauseId;
use crate::lbool::LBool;

use super::Solver;

/// Shorthand: formats an audit failure.
macro_rules! fail {
    ($($arg:tt)*) => {
        return Err(format!($($arg)*))
    };
}

/// The arena's record offsets: `true` at each offset where the record
/// chain puts a header.
struct Headers(Vec<bool>);

impl Headers {
    fn contains(&self, offset: u32) -> bool {
        self.0.get(offset as usize).copied().unwrap_or(false)
    }
}

/// An empty slot of the watch tally (no literal has this code).
const NO_CODE: u32 = u32::MAX;

/// The filled slots of a watch tally, for reports.
fn watch_codes(slots: [u32; 2]) -> Vec<u32> {
    slots.into_iter().filter(|&code| code != NO_CODE).collect()
}

impl Solver {
    /// Checks every internal invariant of the solver state, returning a
    /// description of the first violation found. With a proof log started
    /// ([`Solver::start_proof`]), that includes the log: its derived lines
    /// without a deletion must be exactly the live learned clauses and
    /// root-level unit facts, and its axiom count the originals added.
    ///
    /// Intended for tests and the `debug-invariants` builds of the BMC and
    /// IC3 engines; with the feature enabled the solver also calls it after
    /// each learned-database compaction and each CDG prune, turning every
    /// differential test into a structural one.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        let headers = self.audit_arena()?;
        self.audit_watches(&headers)?;
        self.audit_trail(&headers)?;
        self.audit_cdg()?;
        self.order
            .audit(&self.lit_values)
            .map_err(|e| format!("order: {e}"))?;
        if let Some(proof) = &self.proof {
            self.audit_proof(&proof.live_derived_sorted(), proof.num_axioms())?;
        }
        Ok(())
    }

    /// Walks the arena record chain: every header length must land the
    /// cursor exactly on the next header (ending at `end_offset`), every
    /// stored literal must name a known variable, and the patched
    /// `original_refs` table must point at live original records. Returns
    /// the valid header offsets for the cross-checks.
    fn audit_arena(&self) -> Result<Headers, String> {
        // The chain never leaves the arena: `next` stops at its end.
        let mut headers = Headers(vec![false; self.clauses.end_offset() as usize]);
        let mut cursor = self.clauses.first();
        let mut last_end = 0u32;
        while let Some(cref) = cursor {
            let len = self.clauses.len(cref);
            for i in 0..len {
                let lit = self.clauses.lit(cref, i);
                if lit.var().index() >= self.num_vars() {
                    fail!(
                        "arena: clause at {} holds literal of unknown var {}",
                        cref.offset(),
                        lit.var().index()
                    );
                }
            }
            if self.clauses.is_deleted(cref) && !self.clauses.is_learned(cref) {
                fail!("arena: original clause at {} marked deleted", cref.offset());
            }
            if self.clauses.is_removed(cref) && self.clauses.is_learned(cref) {
                fail!("arena: learned clause at {} marked removed", cref.offset());
            }
            headers.0[cref.offset() as usize] = true;
            last_end = cref.offset() + 3 + len as u32;
            cursor = self.clauses.next(cref);
        }
        if last_end != self.clauses.end_offset() {
            fail!(
                "arena: record chain ends at {last_end}, arena at {}",
                self.clauses.end_offset()
            );
        }
        if self.original_refs.len() != self.num_original {
            fail!(
                "arena: {} original refs vs num_original {}",
                self.original_refs.len(),
                self.num_original
            );
        }
        for (pos, &cref) in self.original_refs.iter().enumerate() {
            if !headers.contains(cref.offset()) {
                fail!(
                    "arena: original {pos} points at non-header offset {}",
                    cref.offset()
                );
            }
            if self.clauses.is_learned(cref) {
                fail!("arena: original {pos} resolved to a learned record");
            }
        }
        for &cref in &self.pending_units {
            if !headers.contains(cref.offset()) {
                fail!("arena: pending unit at non-header offset {}", cref.offset());
            }
        }
        if let Some(empty) = self.empty_clause {
            if !headers.contains(empty.offset()) || self.clauses.len(empty) != 0 {
                fail!("arena: empty-clause ref is not a length-0 record");
            }
        }
        Ok(headers)
    }

    /// Watch-list consistency: every live clause of length ≥ 2 is watched
    /// exactly once under each of its slot-0/slot-1 literals — in the binary
    /// tier with the *other* literal inlined as `implied`, or in the long
    /// tier with a blocker drawn from the clause body — and nothing else in
    /// any list references it. A removed clause is not live: no entry may
    /// point at it.
    fn audit_watches(&self, headers: &Headers) -> Result<(), String> {
        if self.watches.len() != 2 * self.num_vars() {
            fail!(
                "watches: {} lists for {} vars",
                self.watches.len(),
                self.num_vars()
            );
        }
        // Per arena offset, the codes of the literals watching the record
        // there: a live clause has exactly two watches, so a third entry is
        // a violation by itself.
        let mut seen = vec![[NO_CODE; 2]; headers.0.len()];
        let mut tally = |offset: u32, code: usize| -> Result<(), String> {
            match seen[offset as usize]
                .iter_mut()
                .find(|slot| **slot == NO_CODE)
            {
                Some(slot) => *slot = code as u32,
                None => fail!("watches: clause at {offset} has more than two watch entries"),
            }
            Ok(())
        };
        for (code, lists) in self.watches.iter().enumerate() {
            let watcher = Lit::from_code(code);
            for w in &lists.bins {
                let cref = w.clause;
                if !headers.contains(cref.offset()) {
                    fail!("watches: bin entry at non-header offset {}", cref.offset());
                }
                if self.clauses.is_deleted(cref) || self.clauses.is_removed(cref) {
                    fail!(
                        "watches: bin entry references deleted or removed clause at {}",
                        cref.offset()
                    );
                }
                if self.clauses.len(cref) != 2 {
                    fail!(
                        "watches: length-{} clause at {} in the binary tier",
                        self.clauses.len(cref),
                        cref.offset()
                    );
                }
                let (l0, l1) = (self.clauses.lit(cref, 0), self.clauses.lit(cref, 1));
                let other = if watcher == l0 {
                    l1
                } else if watcher == l1 {
                    l0
                } else {
                    fail!(
                        "watches: {watcher:?} watches binary clause at {} without being in it",
                        cref.offset()
                    );
                };
                if w.implied != other {
                    fail!(
                        "watches: binary clause at {} caches implied {:?}, body says {:?}",
                        cref.offset(),
                        w.implied,
                        other
                    );
                }
                tally(cref.offset(), code)?;
            }
            for w in &lists.longs {
                let cref = w.clause;
                if !headers.contains(cref.offset()) {
                    fail!("watches: long entry at non-header offset {}", cref.offset());
                }
                if self.clauses.is_deleted(cref) || self.clauses.is_removed(cref) {
                    fail!(
                        "watches: long entry references deleted or removed clause at {}",
                        cref.offset()
                    );
                }
                let len = self.clauses.len(cref);
                if len < 3 {
                    fail!(
                        "watches: length-{len} clause at {} in the long tier",
                        cref.offset()
                    );
                }
                let (l0, l1) = (self.clauses.lit(cref, 0), self.clauses.lit(cref, 1));
                if watcher != l0 && watcher != l1 {
                    fail!(
                        "watches: {watcher:?} watches clause at {} but slots 0/1 are {l0:?}/{l1:?}",
                        cref.offset()
                    );
                }
                let blocker_in_body = (0..len).any(|i| self.clauses.lit(cref, i) == w.blocker);
                if !blocker_in_body {
                    fail!(
                        "watches: blocker {:?} of clause at {} is not in the clause",
                        w.blocker,
                        cref.offset()
                    );
                }
                tally(cref.offset(), code)?;
            }
        }
        // Forward direction: every live clause of length >= 2 is watched on
        // exactly its two leading literals.
        let mut cursor = self.clauses.first();
        while let Some(cref) = cursor {
            cursor = self.clauses.next(cref);
            let len = self.clauses.len(cref);
            let live = !self.clauses.is_deleted(cref) && !self.clauses.is_removed(cref);
            let mut want = if len >= 2 && live {
                [
                    self.clauses.lit(cref, 0).code() as u32,
                    self.clauses.lit(cref, 1).code() as u32,
                ]
            } else {
                [NO_CODE; 2]
            };
            let mut got = seen[cref.offset() as usize];
            got.sort_unstable();
            want.sort_unstable();
            if got != want {
                let (got, want) = (watch_codes(got), watch_codes(want));
                fail!(
                    "watches: clause at {} (len {len}) watched under codes {got:?}, want {want:?}",
                    cref.offset()
                );
            }
        }
        Ok(())
    }

    /// Trail coherence: the literal-value table, levels, reasons, and the
    /// trail agree. Both table entries of an assigned variable agree with
    /// its trail literal (that literal `True`, its negation `False`), and
    /// both entries of an unassigned variable are `Undef`.
    /// Reasons of variables assigned **above** level 0 must be live clauses
    /// asserting exactly that variable; level-0 reasons are exempt from the
    /// liveness check — a learned clause that implied a root fact is itself
    /// root-satisfied and may legitimately be compacted away, and the search
    /// never dereferences root-level reasons (conflict analysis cites the
    /// CDG unit-fact node instead).
    fn audit_trail(&self, headers: &Headers) -> Result<(), String> {
        let n = self.num_vars();
        if self.lit_values.len() != 2 * n
            || self.levels.len() != n
            || self.reasons.len() != n
            || self.unit_node.len() != n
        {
            fail!("trail: per-variable table lengths disagree with num_vars {n}");
        }
        if self.qhead > self.trail.len() {
            fail!(
                "trail: qhead {} beyond trail {}",
                self.qhead,
                self.trail.len()
            );
        }
        let mut prev = 0usize;
        for (lvl, &lim) in self.trail_lim.iter().enumerate() {
            if lim < prev || lim > self.trail.len() {
                fail!("trail: trail_lim[{lvl}] = {lim} is not monotone within the trail");
            }
            prev = lim;
        }
        let mut pos: Vec<Option<usize>> = vec![None; n];
        // The decision level at trail position `i`: how many segments start
        // at or before it (`trail_lim` is monotone, checked above).
        let mut level = 0usize;
        for (i, &lit) in self.trail.iter().enumerate() {
            while level < self.trail_lim.len() && self.trail_lim[level] <= i {
                level += 1;
            }
            let v = lit.var().index();
            if pos[v].is_some() {
                fail!("trail: variable {v} assigned twice");
            }
            pos[v] = Some(i);
            if self.levels[v] as usize != level {
                fail!(
                    "trail: var {v} at trail position {i} has level {}, segments say {level}",
                    self.levels[v]
                );
            }
        }
        for (v, p) in pos.iter().enumerate() {
            let var = Var::new(v);
            let want = match p {
                Some(i) => {
                    let lit = self.trail[*i];
                    (
                        LBool::from(lit.is_positive()),
                        LBool::from(lit.is_negative()),
                    )
                }
                None => (LBool::Undef, LBool::Undef),
            };
            let got = (
                self.lit_values[var.positive().code()],
                self.lit_values[var.negative().code()],
            );
            if got != want {
                fail!("trail: literal values of var {v} read {got:?}, the trail says {want:?}");
            }
            if p.is_none() && self.reasons[v].is_some() {
                fail!("trail: unassigned var {v} keeps a stale reason");
            }
            if let Some(node) = self.unit_node[v] {
                if (node as usize) >= self.cdg.num_total_nodes() {
                    fail!("trail: unit node {node} of var {v} is out of CDG bounds");
                }
                if p.is_none() || self.levels[v] != 0 {
                    fail!("trail: var {v} has a unit-fact node but is not a root assignment");
                }
            }
        }
        for (i, &lit) in self.trail.iter().enumerate() {
            let v = lit.var().index();
            if self.levels[v] == 0 {
                continue; // reasons of root facts may be compacted away
            }
            let Some(reason) = self.reasons[v] else {
                continue; // decision or assumption pseudo-decision
            };
            if !headers.contains(reason.offset()) {
                fail!(
                    "trail: reason of var {v} points at non-header offset {}",
                    reason.offset()
                );
            }
            if self.clauses.is_deleted(reason) {
                fail!("trail: reason of var {v} is a deleted clause");
            }
            let len = self.clauses.len(reason);
            let mut found = false;
            for j in 0..len {
                let q = self.clauses.lit(reason, j);
                if q == lit {
                    found = true;
                    continue;
                }
                if q.var().index() == v {
                    fail!("trail: reason of var {v} contains its negation");
                }
                if self.lit_value(q) != LBool::False {
                    fail!("trail: reason of var {v} has non-false side literal {q:?}");
                }
                match pos[q.var().index()] {
                    Some(p) if p < i => {}
                    _ => fail!("trail: reason of var {v} cites {q:?}, not assigned before it"),
                }
            }
            if !found {
                fail!("trail: reason of var {v} does not contain its literal");
            }
        }
        if self.seen.iter().any(|&s| s) {
            fail!("trail: conflict-analysis scratch `seen` is dirty");
        }
        Ok(())
    }

    /// CDG-node reachability: recomputes the root set exactly as
    /// [`Solver::prune_cdg`] does — the CDG IDs of live arena records plus
    /// the per-variable unit-fact nodes — and checks every root and every
    /// antecedent edge reachable from them stays inside the graph. After a
    /// prune this is precisely the kept node set, so a dangling edge means
    /// the prune and its external ID rewrites disagreed.
    fn audit_cdg(&self) -> Result<(), String> {
        if !self.opts.record_cdg {
            return Ok(());
        }
        let total = self.cdg.num_total_nodes();
        let reachable = self.cdg.audit_reachable(&self.cdg_roots())?;
        debug_assert!(reachable <= total);
        Ok(())
    }

    /// Compares a proof log's bookkeeping with the clause database: the
    /// log's derived lines without a deletion (`live_derived`, sorted
    /// ascending) must be exactly the proof ids of the live learned clauses
    /// plus the root-level unit facts (nothing missing, nothing extra), and
    /// `num_axioms` must match the originals added.
    fn audit_proof(&self, live_derived: &[u64], num_axioms: u64) -> Result<(), String> {
        if num_axioms != self.original_refs.len() as u64 {
            fail!(
                "proof: log holds {num_axioms} axiom lines, database {} original clauses",
                self.original_refs.len()
            );
        }
        let pid_of =
            |id: ClauseId| -> u64 { self.proof_of_cdg.get(id as usize).copied().unwrap_or(0) };
        let mut expected: Vec<u64> = Vec::new();
        let mut cursor = self.clauses.first();
        while let Some(cref) = cursor {
            if self.clauses.is_learned(cref) && !self.clauses.is_deleted(cref) {
                let pid = pid_of(self.clauses.cdg_id(cref));
                if pid == 0 {
                    fail!(
                        "proof: live learned clause at {} has no proof line",
                        cref.offset()
                    );
                }
                expected.push(pid);
            }
            cursor = self.clauses.next(cref);
        }
        for &node in self.unit_node.iter().flatten() {
            let pid = pid_of(node);
            if pid == 0 {
                fail!("proof: root-level unit fact (CDG node {node}) has no proof line");
            }
            expected.push(pid);
        }
        expected.sort_unstable();
        if expected != live_derived {
            let rank = expected
                .iter()
                .zip(live_derived)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| expected.len().min(live_derived.len()));
            let in_log = live_derived.get(rank);
            let in_db = expected.get(rank);
            fail!(
                "proof: live lines diverge at rank {rank}: log has {in_log:?}, database \
                 {in_db:?} ({} log lines vs {} database clauses)",
                live_derived.len(),
                expected.len()
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use rbmc_cnf::{CnfFormula, Lit, Var};

    use super::super::{SolveResult, Solver, SolverOptions};
    use crate::LBool;

    fn lit(v: usize, neg: bool) -> Lit {
        Lit::new(Var::new(v), neg)
    }

    /// (x ∨ y) ∧ (¬x ∨ y) ∧ (x ∨ ¬y ∨ z): satisfiable, with binary and
    /// ternary clauses so both watch tiers are populated.
    fn sat_formula() -> CnfFormula {
        let mut f = CnfFormula::with_vars(3);
        f.add_clause([lit(0, false), lit(1, false)]);
        f.add_clause([lit(0, true), lit(1, false)]);
        f.add_clause([lit(0, false), lit(1, true), lit(2, false)]);
        f
    }

    #[test]
    fn clean_solver_passes_audit() {
        let mut s = Solver::from_formula(&sat_formula());
        s.audit().expect("fresh solver audits clean");
        assert_eq!(s.solve(), SolveResult::Sat);
        s.audit().expect("solved solver audits clean");
    }

    #[test]
    fn unsat_solver_passes_audit() {
        let mut f = CnfFormula::with_vars(2);
        f.add_clause([lit(0, false), lit(1, false)]);
        f.add_clause([lit(0, true), lit(1, false)]);
        f.add_clause([lit(0, false), lit(1, true)]);
        f.add_clause([lit(0, true), lit(1, true)]);
        let mut s = Solver::from_formula(&f);
        assert_eq!(s.solve(), SolveResult::Unsat);
        s.audit().expect("UNSAT solver audits clean");
    }

    #[test]
    fn audit_flags_corrupted_literal_value() {
        let mut s = Solver::from_formula(&sat_formula());
        // A fourth variable no clause mentions stays unassigned.
        s.reserve_vars(4);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.audit().expect("clean before tampering");
        // Each entry of an assigned variable, and of an unassigned one.
        let assigned = s.trail[0];
        for code in [
            assigned.code(),
            (!assigned).code(),
            lit(3, false).code(),
            lit(3, true).code(),
        ] {
            let kept = s.lit_values[code];
            s.lit_values[code] = if kept == LBool::True {
                LBool::False
            } else {
                LBool::True
            };
            let err = s.audit().expect_err("flipped table entry must fail");
            assert!(err.contains("literal values"), "unexpected report: {err}");
            s.lit_values[code] = kept;
            s.audit().expect("clean once restored");
        }
    }

    #[test]
    fn audit_flags_missing_watch_entry() {
        let mut s = Solver::from_formula(&sat_formula());
        s.audit().expect("clean before tampering");
        for wl in &mut s.watches {
            if wl.bins.pop().is_some() {
                break;
            }
        }
        let err = s.audit().expect_err("dropped watch must fail");
        assert!(err.contains("watches"), "unexpected report: {err}");
    }

    #[test]
    fn audit_flags_bad_implied_literal() {
        let mut s = Solver::from_formula(&sat_formula());
        for wl in &mut s.watches {
            if let Some(w) = wl.bins.first_mut() {
                w.implied = !w.implied;
                break;
            }
        }
        let err = s.audit().expect_err("wrong implied literal must fail");
        assert!(err.contains("implied"), "unexpected report: {err}");
    }

    #[test]
    fn audit_flags_watch_entry_of_removed_clause() {
        let mut s = Solver::from_formula(&sat_formula());
        s.remove_clause(2);
        s.audit().expect("a removed clause leaves no watch entry");
        assert_eq!(s.solve(), SolveResult::Sat);
        s.audit().expect("clean after an episode");
        // Flag a still-watched clause as removed without detaching it.
        let binary = s.original_refs[0];
        s.clauses.mark_removed(binary);
        let err = s.audit().expect_err("entry pointing at a removed clause");
        assert!(err.contains("removed"), "unexpected report: {err}");
    }

    /// Solves an UNSAT formula with its proof log started and returns the
    /// solver together with the log's live derived lines and axiom count.
    fn logged_unsat_solver() -> (Solver, Vec<u64>, u64) {
        let mut s = Solver::with_options(SolverOptions::default());
        s.start_proof();
        s.reserve_vars(2);
        s.add_clause(&[lit(0, false), lit(1, false)]);
        s.add_clause(&[lit(0, true), lit(1, false)]);
        s.add_clause(&[lit(0, false), lit(1, true)]);
        s.add_clause(&[lit(0, true), lit(1, true)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.proof().expect("log started");
        let (live, axioms) = (proof.live_derived_sorted(), proof.num_axioms());
        (s, live, axioms)
    }

    #[test]
    fn proof_audit_accepts_coherent_log() {
        let (s, live, axioms) = logged_unsat_solver();
        s.audit_proof(&live, axioms)
            .expect("coherent log audits clean");
        s.audit().expect("the full audit checks the log too");
        assert!(axioms == 4 && !live.is_empty());
    }

    #[test]
    fn proof_audit_flags_missing_and_extra_lines() {
        let (mut s, live, axioms) = logged_unsat_solver();
        let dropped = &live[..live.len() - 1];
        let err = s
            .audit_proof(dropped, axioms)
            .expect_err("retracted live line");
        assert!(err.contains("diverge"), "unexpected report: {err}");
        let mut extra = live.clone();
        extra.push(u64::MAX);
        let err = s
            .audit_proof(&extra, axioms)
            .expect_err("phantom live line");
        assert!(err.contains("diverge"), "unexpected report: {err}");
        // The full audit reads the solver's own log: a line retracted there
        // alone is caught too.
        s.proof_mut().expect("log started").delete(live[0]);
        let err = s.audit().expect_err("log drifted from the database");
        assert!(err.contains("diverge"), "unexpected report: {err}");
    }

    #[test]
    fn proof_audit_flags_axiom_count_mismatch() {
        let (s, live, axioms) = logged_unsat_solver();
        let err = s
            .audit_proof(&live, axioms + 1)
            .expect_err("axiom count drift");
        assert!(err.contains("axiom"), "unexpected report: {err}");
    }

    #[test]
    fn audit_survives_heavy_reduction_run() {
        // The compaction-time hook already audits mid-search; this pins an
        // end-state audit after a run that actually compacts and prunes.
        let opts = SolverOptions {
            reduce_base: 2,
            reduce_inc: 1,
            ..SolverOptions::default()
        };
        let mut f = CnfFormula::with_vars(8);
        let lits = |bits: u32, width: usize| -> Vec<Lit> {
            (0..width)
                .map(|i| lit((7 * i + 3) % 8, bits & (1 << i) != 0))
                .collect()
        };
        for c in 0..34u32 {
            f.add_clause(lits(c.wrapping_mul(0x9E37), 3));
        }
        let mut s = Solver::from_formula_with(&f, opts);
        let _ = s.solve();
        s.prune_cdg();
        s.audit().expect("post-run audit");
    }
}
