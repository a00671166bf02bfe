//! Use the solver standalone on DIMACS input: report SAT with a model, or
//! UNSAT with the unsatisfiable core extracted through the simplified CDG.
//!
//! Run with: `cargo run --example dimacs_solve [-- path/to/file.cnf]`
//! Without an argument, a built-in pigeonhole instance (PHP_3^4: 4 pigeons,
//! 3 holes — UNSAT) is solved.

use refined_bmc::cnf::{parse_dimacs, CnfFormula, Var};
use refined_bmc::solver::{SolveResult, Solver};

/// The pigeonhole principle PHP_{holes}^{pigeons} as CNF: every pigeon gets
/// a hole; no two pigeons share one. UNSAT whenever pigeons > holes.
fn pigeonhole(pigeons: usize, holes: usize) -> CnfFormula {
    let mut f = CnfFormula::with_vars(pigeons * holes);
    let var = |p: usize, h: usize| Var::new(p * holes + h);
    for p in 0..pigeons {
        f.add_clause((0..holes).map(|h| var(p, h).positive()).collect::<Vec<_>>());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                f.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    f
}

fn main() {
    let formula = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            parse_dimacs(&text).unwrap_or_else(|e| panic!("parse error: {e}"))
        }
        None => {
            println!(
                "no file given; solving the built-in pigeonhole instance PHP(4 pigeons, 3 holes)"
            );
            pigeonhole(4, 3)
        }
    };
    println!(
        "formula: {} variables, {} clauses, {} literals",
        formula.num_vars(),
        formula.num_clauses(),
        formula.num_literals()
    );
    let mut solver = Solver::from_formula(&formula);
    match solver.solve() {
        SolveResult::Sat => {
            let model = solver.model().expect("model after SAT");
            println!("SAT");
            let assignment: Vec<String> = model
                .iter()
                .enumerate()
                .take(20)
                .map(|(i, &v)| format!("x{}={}", i + 1, v as u8))
                .collect();
            println!("model (first 20 vars): {}", assignment.join(" "));
        }
        SolveResult::Unsat => {
            println!("UNSAT");
            let core_vars = solver.core_vars().expect("core vars");
            let core = solver.core_clauses().expect("core after UNSAT");
            println!(
                "unsatisfiable core: {} of {} original clauses",
                core.len(),
                formula.num_clauses()
            );
            println!("variables in the core: {}", core_vars.len());
            // Double-check the core is itself UNSAT.
            let sub = formula.subformula(core);
            let mut check = Solver::from_formula(&sub);
            assert_eq!(check.solve(), SolveResult::Unsat);
            println!("core re-solve confirms UNSAT");
        }
        SolveResult::Unknown => unreachable!("no limits were set"),
    }
    let stats = solver.stats();
    println!(
        "stats: {} decisions, {} propagations, {} conflicts, {} learned ({} deleted), {} restarts",
        stats.decisions,
        stats.propagations,
        stats.conflicts,
        stats.learned,
        stats.deleted,
        stats.restarts
    );
}
