//! The position-hard scenario from the paper's evaluation: primitiveness-style
//! constraints combining disequalities and ¬contains over flat languages —
//! the instances that only the position-aware procedure solves.
//!
//! Run with `cargo run --release --example primitive_words`.

use posr_core::ast::{StringFormula, StringTerm};
use posr_core::baselines::{EnumerationSolver, Strategy};
use posr_core::solver::{answer_status, StringSolver};
use posr_core::CancelToken;

fn main() {
    let x = StringTerm::var("x");
    let y = StringTerm::var("y");

    // xy ≠ yx over commuting languages is unsatisfiable …
    let commuting = StringFormula::new()
        .in_re("x", "a*")
        .in_re("y", "a*")
        .diseq(
            StringTerm::concat(vec![x.clone(), y.clone()]),
            StringTerm::concat(vec![y.clone(), x.clone()]),
        );
    println!(
        "xy ≠ yx over a*           : {}",
        answer_status(&StringSolver::new().solve(&commuting))
    );
    println!(
        "  (enumeration baseline    : {})",
        answer_status(&EnumerationSolver.solve(&commuting, &CancelToken::none()))
    );

    // … but satisfiable once the languages stop commuting.
    let non_commuting = StringFormula::new()
        .in_re("x", "(ab)*")
        .in_re("y", "(ba)*")
        .diseq(
            StringTerm::concat(vec![x.clone(), y.clone()]),
            StringTerm::concat(vec![y.clone(), x.clone()]),
        );
    let answer = StringSolver::new().solve(&non_commuting);
    println!("xy ≠ yx over (ab)*, (ba)* : {}", answer_status(&answer));
    if let Some(model) = answer.model() {
        println!("  x = {:?}, y = {:?}", model.string("x"), model.string("y"));
    }

    // ¬contains(xx, x) is unsatisfiable for every x — a ¬contains instance no
    // enumeration-based solver can refute.
    let contains = StringFormula::new()
        .in_re("x", "(ab)*")
        .not_contains(StringTerm::concat(vec![x.clone(), x.clone()]), x.clone());
    println!(
        "¬contains(xx, x)          : {}",
        answer_status(&StringSolver::new().solve(&contains))
    );

    // ¬contains(y, x) over flat languages, decided by the instantiation loop.
    let hard = StringFormula::new()
        .in_re("x", "(ab)+")
        .in_re("y", "(ba)+")
        .not_contains(y.clone(), x.clone());
    let answer = StringSolver::new().solve(&hard);
    println!("¬contains(y, x) flat       : {}", answer_status(&answer));
    if let Some(model) = answer.model() {
        println!("  x = {:?}, y = {:?}", model.string("x"), model.string("y"));
    }
}
