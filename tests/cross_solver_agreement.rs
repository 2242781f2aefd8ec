//! Cross-solver agreement: the production solver, the baselines and the
//! PTime one-counter procedure must never contradict each other.  This is
//! the strongest soundness check in the repository: the engines share almost
//! no code paths.

use std::collections::BTreeMap;
use std::time::Duration;

use posr_bench::runner::{contradictions, SolverKind};
use posr_bench::{run_suite, suite, suite_names};
use posr_core::ast::{StringFormula, StringTerm};
use posr_core::solver::StringSolver;
use posr_tagauto::onecounter_diseq::single_diseq_satisfiable;
use posr_tagauto::tags::VarTable;

#[test]
fn no_contradictions_on_benchmark_samples() {
    for name in suite_names() {
        let instances = suite(name, 3, 99);
        let results = run_suite(
            &instances,
            &[
                SolverKind::CdclPos,
                SolverKind::Enumeration,
                SolverKind::LengthAbstraction,
            ],
            Duration::from_secs(20),
        );
        let bad = contradictions(&results);
        assert!(bad.is_empty(), "contradictory verdicts on {name}: {bad:?}");
    }
}

#[test]
fn one_counter_agrees_with_full_pipeline_on_single_disequalities() {
    let cases = [
        ("(ab)*", "(ac)*"),
        ("abab", "abab"),
        ("a*", "a*"),
        ("(ab)+", "(ba)+"),
        ("abc", "abd"),
    ];
    for (rx, ry) in cases {
        // full pipeline answer
        let formula = StringFormula::new()
            .in_re("x", rx)
            .in_re("y", ry)
            .diseq(StringTerm::var("x"), StringTerm::var("y"));
        let pipeline = StringSolver::new().solve(&formula);

        // PTime one-counter answer
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let mut automata = BTreeMap::new();
        automata.insert(x, posr_automata::Regex::parse(rx).unwrap().compile());
        automata.insert(y, posr_automata::Regex::parse(ry).unwrap().compile());
        let oca = single_diseq_satisfiable(&[x], &[y], &automata);

        assert_eq!(
            pipeline.is_sat(),
            oca,
            "disagreement on x ∈ {rx}, y ∈ {ry}: pipeline {pipeline:?}, one-counter {oca}"
        );
    }
}
