//! Portfolio ↔ sequential agreement and cancellation, end to end.
//!
//! The portfolio races engines that share almost no code paths, so verdict
//! agreement with the sequential `StringSolver` over randomized instances
//! from all four benchmark families is a strong soundness check — and the
//! cancellation tests prove that losing/hung strategies are actually
//! abandoned rather than joined to completion.

use std::sync::Arc;
use std::time::{Duration, Instant};

use posr_bench::{suite, suite_names};
use posr_core::ast::{StringFormula, StringTerm};
use posr_core::solver::{answer_status, Answer, SolverOptions, StringSolver};
use posr_core::CancelToken;
use posr_portfolio::{
    solve_batch, BatchItem, BatchOptions, CdclPosStrategy, PortfolioSolver, Strategy,
    StrategyOutcome,
};

const PER_PROBLEM: Duration = Duration::from_secs(10);

fn sequential_verdict(formula: &StringFormula) -> &'static str {
    let options = SolverOptions {
        deadline: Some(Instant::now() + PER_PROBLEM),
        ..SolverOptions::default()
    };
    answer_status(&StringSolver::with_options(options).solve(formula))
}

#[test]
fn randomized_agreement_with_sequential_solver() {
    let portfolio = PortfolioSolver::new();
    for family in suite_names() {
        for instance in suite(family, 4, 20_257) {
            let sequential = sequential_verdict(&instance.formula);
            let result = portfolio.solve_with(&instance.formula, Some(PER_PROBLEM), None);
            let parallel = answer_status(&result.answer);
            // definite answers must agree; unknowns may flip either way
            // (engines have different resource limits)
            assert!(
                !matches!((sequential, parallel), ("sat", "unsat") | ("unsat", "sat")),
                "{}: sequential={sequential}, portfolio={parallel}",
                instance.name
            );
            if let Answer::Sat(model) = &result.answer {
                assert!(
                    model.satisfies(&instance.formula),
                    "{}: portfolio model must validate",
                    instance.name
                );
            }
        }
    }
}

#[test]
fn batch_driver_agrees_and_aggregates() {
    let mut items = Vec::new();
    for family in suite_names() {
        for instance in suite(family, 3, 911) {
            items.push(BatchItem::new(instance.name, instance.formula));
        }
    }
    let expected: Vec<&'static str> = items
        .iter()
        .map(|i| sequential_verdict(&i.formula))
        .collect();

    let report = solve_batch(
        &items,
        &PortfolioSolver::new(),
        &BatchOptions {
            workers: 0,
            timeout: Some(PER_PROBLEM),
        },
    );
    assert_eq!(report.stats.total, items.len());
    assert_eq!(
        report.stats.sat + report.stats.unsat + report.stats.unknown,
        report.stats.total
    );
    for (outcome, sequential) in report.outcomes.iter().zip(expected) {
        let parallel = outcome.status();
        assert!(
            !matches!((sequential, parallel), ("sat", "unsat") | ("unsat", "sat")),
            "{}: sequential={sequential}, batch={parallel}",
            outcome.name
        );
    }
}

/// Never answers until its token fires; proves losers are truly abandoned.
struct HangingStrategy;

impl Strategy for HangingStrategy {
    fn name(&self) -> &'static str {
        "hanging"
    }

    fn solve(&self, _formula: &StringFormula, cancel: &CancelToken) -> Answer {
        while !cancel.is_cancelled() {
            std::thread::sleep(Duration::from_millis(1));
        }
        Answer::Unknown(cancel.unknown_reason())
    }
}

#[test]
fn hung_strategy_is_abandoned_after_the_winner_finishes() {
    // pin the concurrent race: on a 1-core host the auto-detected mode
    // would be the sequential schedule, which abandons by slice expiry
    // rather than by losing a race
    let portfolio = PortfolioSolver::with_strategies(vec![
        Arc::new(CdclPosStrategy::default()),
        Arc::new(HangingStrategy),
    ])
    .with_parallelism(2);
    let unsat = StringFormula::new()
        .in_re("x", "abc")
        .diseq(StringTerm::var("x"), StringTerm::lit("abc"));
    let start = Instant::now();
    let result = portfolio.solve_with(&unsat, None, None);
    assert!(result.answer.is_unsat(), "got {:?}", result.answer);
    assert_eq!(result.winner, Some("cdcl-pos"));
    // without cooperative cancellation the hung strategy would block forever
    assert!(start.elapsed() < Duration::from_secs(60));
    let hanging = result.reports.iter().find(|r| r.name == "hanging").unwrap();
    assert_eq!(hanging.outcome, StrategyOutcome::Cancelled);
}

#[test]
fn deadline_abandons_every_hung_strategy() {
    let portfolio = PortfolioSolver::with_strategies(vec![
        Arc::new(HangingStrategy),
        Arc::new(HangingStrategy),
        Arc::new(HangingStrategy),
    ])
    .with_parallelism(3);
    let formula = StringFormula::new().in_re("x", "(ab)*");
    let start = Instant::now();
    let result = portfolio.solve_with(&formula, Some(Duration::from_millis(150)), None);
    // the race says it ran out of time
    assert_eq!(
        result.answer,
        Answer::Unknown(posr_lia::cancel::DEADLINE_MSG.to_string())
    );
    assert!(start.elapsed() < Duration::from_secs(60));
    assert!(result
        .reports
        .iter()
        .all(|r| r.outcome == StrategyOutcome::Cancelled));
}
