//! Drives the production solver and the baselines over benchmark instances
//! with a per-instance wall-clock timeout.

use std::time::{Duration, Instant};

use posr_core::baselines::{
    EnumerationSolver, LengthAbstractionSolver, NaiveOrderSolver, Strategy,
};
use posr_core::solver::{Answer, SolverOptions, StringSolver};
use posr_lia::cancel::CancelToken;
use posr_portfolio::PortfolioSolver;

use crate::gen::Instance;

/// The solvers compared in the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolverKind {
    /// The paper's procedure (`posr` with the tag-automaton position engine,
    /// CDCL(T) LIA core — the production configuration).
    CdclPos,
    /// Guess-and-check enumeration (cvc5-like on satisfiable inputs).
    Enumeration,
    /// The naive mismatch-order automata baseline.
    NaiveOrder,
    /// Length-abstraction-only solver.
    LengthAbstraction,
    /// The default portfolio through `PortfolioSolver::solve_with`: the
    /// `cdcl-pos` lane on the calling thread, under the race's deadline.
    Portfolio,
}

impl SolverKind {
    /// All solvers, production solver first.
    pub fn all() -> Vec<SolverKind> {
        vec![
            SolverKind::CdclPos,
            SolverKind::Enumeration,
            SolverKind::NaiveOrder,
            SolverKind::LengthAbstraction,
            SolverKind::Portfolio,
        ]
    }

    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::CdclPos => "cdcl-pos",
            SolverKind::Enumeration => "enumeration",
            SolverKind::NaiveOrder => "naive-order",
            SolverKind::LengthAbstraction => "length-abstraction",
            SolverKind::Portfolio => "portfolio",
        }
    }

    fn solve(&self, instance: &Instance, deadline: Instant) -> Answer {
        match self {
            SolverKind::CdclPos => StringSolver::with_options(SolverOptions {
                deadline: Some(deadline),
                ..SolverOptions::default()
            })
            .solve(&instance.formula),
            SolverKind::Enumeration => {
                EnumerationSolver.solve(&instance.formula, &CancelToken::with_deadline(deadline))
            }
            SolverKind::NaiveOrder => {
                NaiveOrderSolver.solve(&instance.formula, &CancelToken::with_deadline(deadline))
            }
            SolverKind::LengthAbstraction => LengthAbstractionSolver
                .solve(&instance.formula, &CancelToken::with_deadline(deadline)),
            SolverKind::Portfolio => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                PortfolioSolver::new()
                    .solve_with(&instance.formula, Some(timeout), None)
                    .answer
            }
        }
    }
}

/// The outcome of one solver on one instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// A definite `sat` answer.
    Sat,
    /// A definite `unsat` answer.
    Unsat,
    /// Gave up for a reason other than the timeout (incomplete fragment,
    /// resource limits below the timeout).
    Unknown,
    /// Hit the per-instance timeout (the paper's "OOR" column).
    Timeout,
}

/// One (instance, solver) measurement.
#[derive(Clone, Debug)]
pub struct InstanceResult {
    /// Family name.
    pub suite: String,
    /// Instance name.
    pub instance: String,
    /// Solver name.
    pub solver: &'static str,
    /// Outcome.
    pub status: Status,
    /// Wall-clock time (capped at the timeout for [`Status::Timeout`]).
    pub time: Duration,
}

/// Runs every requested solver over every instance.
pub fn run_suite(
    instances: &[Instance],
    solvers: &[SolverKind],
    timeout: Duration,
) -> Vec<InstanceResult> {
    let mut results = Vec::new();
    for instance in instances {
        for &solver in solvers {
            let start = Instant::now();
            let answer = solver.solve(instance, start + timeout);
            let elapsed = start.elapsed();
            let timed_out = elapsed >= timeout;
            let status = match answer {
                Answer::Sat(model) => {
                    // never trust an unvalidated model in the measurements
                    if model.strings().is_empty() || model.satisfies(&instance.formula) {
                        Status::Sat
                    } else {
                        Status::Unknown
                    }
                }
                Answer::Unsat => Status::Unsat,
                Answer::Unknown(_) if timed_out => Status::Timeout,
                Answer::Unknown(_) => Status::Unknown,
            };
            results.push(InstanceResult {
                suite: instance.suite.clone(),
                instance: instance.name.clone(),
                solver: solver.name(),
                status,
                time: elapsed.min(timeout),
            });
        }
    }
    results
}

/// Cross-checks that no two solvers give contradictory definite answers on
/// the same instance; returns the offending instance names (used by tests —
/// an empty result is a strong soundness signal across engines).
pub fn contradictions(results: &[InstanceResult]) -> Vec<String> {
    use std::collections::BTreeMap;
    let mut verdicts: BTreeMap<&str, (bool, bool)> = BTreeMap::new();
    for r in results {
        let entry = verdicts
            .entry(r.instance.as_str())
            .or_insert((false, false));
        match r.status {
            Status::Sat => entry.0 = true,
            Status::Unsat => entry.1 = true,
            _ => {}
        }
    }
    verdicts
        .into_iter()
        .filter(|(_, (sat, unsat))| *sat && *unsat)
        .map(|(name, _)| name.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::suite;

    #[test]
    fn small_run_has_no_contradictions() {
        let instances = suite("biopython", 4, 11);
        let results = run_suite(
            &instances,
            &[
                SolverKind::CdclPos,
                SolverKind::Enumeration,
                SolverKind::LengthAbstraction,
            ],
            Duration::from_secs(10),
        );
        assert_eq!(results.len(), 4 * 3);
        let names: Vec<_> = results[..3].iter().map(|r| r.solver).collect();
        assert_eq!(names, ["cdcl-pos", "enumeration", "length-abstraction"]);
        assert!(contradictions(&results).is_empty());
    }
}
