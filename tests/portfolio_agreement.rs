//! Portfolio ↔ sequential agreement, cancellation and deadlines, end to end.
//!
//! A race of `cdcl-pos` against guess-and-check enumeration pits engines
//! that share almost no code paths, so its verdict agreement with the
//! sequential `StringSolver` over randomized instances from all four
//! benchmark families is a strong soundness check; the batch driver runs
//! the default one-lane portfolio.  The cancellation tests prove that
//! losing/hung strategies are actually abandoned rather than joined to
//! completion.  Every race, and every strategy run alone, must end within
//! its deadline plus [`LATE_SLACK`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use posr_bench::{suite, suite_names};
use posr_core::ast::{StringFormula, StringTerm};
use posr_core::baselines::{EnumerationSolver, LengthAbstractionSolver, NaiveOrderSolver};
use posr_core::solver::{answer_status, Answer, SolverOptions, StringSolver};
use posr_core::CancelToken;
use posr_portfolio::{
    solve_batch, BatchItem, BatchOptions, CdclPosStrategy, PortfolioSolver, Strategy,
    StrategyOutcome,
};

const PER_PROBLEM: Duration = Duration::from_secs(10);

/// How far past its deadline a race or a lane may return (the end-to-end
/// benchmark's tolerance for a late answer).
const LATE_SLACK: Duration = Duration::from_secs(1);

fn sequential_verdict(formula: &StringFormula) -> &'static str {
    let options = SolverOptions {
        deadline: Some(Instant::now() + PER_PROBLEM),
        ..SolverOptions::default()
    };
    answer_status(&StringSolver::with_options(options).solve(formula))
}

#[test]
fn randomized_agreement_with_sequential_solver() {
    let portfolio = PortfolioSolver::with_strategies(vec![
        Arc::new(CdclPosStrategy),
        Arc::new(EnumerationSolver),
    ]);
    for family in suite_names() {
        for instance in suite(family, 4, 20_257) {
            let sequential = sequential_verdict(&instance.formula);
            let result = portfolio.solve_with(&instance.formula, Some(PER_PROBLEM), None);
            assert!(
                result.elapsed <= PER_PROBLEM + LATE_SLACK,
                "{}: the race took {:?}",
                instance.name,
                result.elapsed
            );
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
        assert!(
            outcome.result.elapsed <= PER_PROBLEM + LATE_SLACK,
            "{}: the race took {:?}",
            outcome.name,
            outcome.result.elapsed
        );
        let parallel = outcome.status();
        assert!(
            !matches!((sequential, parallel), ("sat", "unsat") | ("unsat", "sat")),
            "{}: sequential={sequential}, batch={parallel}",
            outcome.name
        );
    }
}

#[test]
fn every_lane_returns_at_its_deadline() {
    let lanes: [Arc<dyn Strategy>; 4] = [
        Arc::new(CdclPosStrategy),
        Arc::new(EnumerationSolver),
        Arc::new(NaiveOrderSolver),
        Arc::new(LengthAbstractionSolver),
    ];
    for family in suite_names() {
        for instance in suite(family, 3, 911) {
            for lane in &lanes {
                let deadline = Instant::now() + Duration::from_millis(300);
                lane.solve(&instance.formula, &CancelToken::with_deadline(deadline));
                let late = Instant::now().saturating_duration_since(deadline);
                assert!(
                    late <= LATE_SLACK,
                    "{} on {}: returned {late:?} past its deadline",
                    lane.name(),
                    instance.name
                );
            }
        }
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
    let portfolio = PortfolioSolver::with_strategies(vec![
        Arc::new(CdclPosStrategy),
        Arc::new(HangingStrategy),
    ]);
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
    ]);
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
