//! `posr-portfolio`: a concurrent portfolio engine for the posr string
//! solver.
//!
//! The default [`PortfolioSolver`] is one lane: the paper's tag-automaton
//! position pipeline under the clause-learning CDCL(T) LIA core
//! (`cdcl-pos`, the production lane), run on the caller's thread.  It
//! decides the whole position fragment by itself, and it samples short
//! witnesses before it encodes, so on the measured workloads a second lane
//! changed no verdict and only cost throughput.
//!
//! [`PortfolioSolver::with_strategies`] builds a race over any [`Strategy`]
//! list, the baselines of `posr_core::baselines` included.  The caller's
//! thread runs the first lane and scoped threads run the others; the race
//! accepts the first *validated* answer and fires the [`CancelToken`]s of
//! the losers, which unwind cooperatively from the branch points of their
//! searches (the LIA engine's decision loop, the position procedure's CEGAR
//! loop, the enumeration baseline's sampling loop).
//!
//! Soundness policy: `Unsat` is accepted from any strategy (each one is
//! individually sound for refutations), while `Sat` is accepted only when
//! the attached model re-validates against the input formula — strategies
//! that answer `Sat` without a reconstructible model (the naive-order
//! baseline) can therefore never win with a wrong model.
//!
//! The [`batch`] module drives many problems concurrently over a worker
//! pool with per-problem timeouts and aggregate statistics, including the
//! hit ratio of the shared automaton cache that makes workers reuse
//! compiled patterns.
//!
//! ```
//! use posr_core::ast::{StringFormula, StringTerm};
//! use posr_portfolio::PortfolioSolver;
//!
//! let formula = StringFormula::new()
//!     .in_re("x", "(ab)*")
//!     .in_re("y", "(ba)*")
//!     .diseq(StringTerm::var("x"), StringTerm::var("y"))
//!     .len_eq("x", "y");
//! let result = PortfolioSolver::new().solve_with(&formula, None, None);
//! assert!(result.answer.is_sat());
//! assert_eq!(result.winner, Some("cdcl-pos"));
//!
//! // a race: this thread runs `cdcl-pos`, a scoped thread runs enumeration
//! use posr_core::baselines::EnumerationSolver;
//! use posr_portfolio::CdclPosStrategy;
//! use std::sync::Arc;
//! let race = PortfolioSolver::with_strategies(vec![
//!     Arc::new(CdclPosStrategy),
//!     Arc::new(EnumerationSolver),
//! ]);
//! assert!(race.solve(&formula).is_sat());
//! ```

pub mod batch;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use posr_core::ast::StringFormula;
pub use posr_core::baselines::Strategy;
use posr_core::solver::{Answer, SolverOptions, StringSolver};
use posr_lia::cancel::{CancelToken, DEADLINE_MSG};
use posr_smtfmt::ParsedScript;

pub use batch::{
    solve_batch, solve_scripts, BatchItem, BatchOptions, BatchOutcome, BatchReport, BatchStats,
};

/// Distribution of lane solve times (one strategy run each), µs — the
/// race's per-lane latency profile, p99-queryable via
/// [`posr_obs::HistogramSnapshot`].
static HIST_LANE_WALL: std::sync::LazyLock<posr_obs::Histogram> =
    std::sync::LazyLock::new(|| posr_obs::histogram("portfolio.lane_wall_us"));

/// Lanes (and batch workers) that panicked and were absorbed by the
/// isolation boundary instead of aborting the race.  Lands in the black-box
/// dump via the watchdog's counter snapshot.
static OBS_LANE_CRASHES: std::sync::LazyLock<posr_obs::Counter> =
    std::sync::LazyLock::new(|| posr_obs::counter("portfolio.lane_crashes"));

static CRASH_HOOK: std::sync::Once = std::sync::Once::new();

/// Installs (once, process-wide) a panic hook that silences the default
/// stderr report for *expected* panics — injected faults and the
/// arithmetic overflow that the slow lane already turned into control
/// flow — so a chaos run doesn't drown the terminal.  Genuine panics still
/// print through the previous hook.
fn install_crash_hook() {
    CRASH_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = panic_message(info.payload());
            let expected =
                msg.contains(posr_obs::INJECTED_PANIC_MSG) || msg.contains(posr_lia::OVERFLOW_MSG);
            if !expected {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one lane (or batch-worker) body under `catch_unwind`: a panic is
/// counted, marked in the trace, and returned as its message, and the
/// caller's race or batch goes on without the crashed participant.
pub(crate) fn run_isolated<T>(name: &str, body: impl FnOnce() -> T) -> Result<T, String> {
    install_crash_hook();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).map_err(|payload| {
        OBS_LANE_CRASHES.incr();
        posr_obs::instant("portfolio", format!("lane.crash:{name}"));
        panic_message(payload.as_ref())
    })
}

/// The paper's tag-automaton position pipeline with the clause-learning
/// CDCL(T) LIA core (the production solver; the only lane that closes the
/// loopy unsat families).  The CEGAR loops run on one persistent
/// incremental LIA session per query, under the racing token alone.
#[derive(Clone, Debug, Default)]
pub struct CdclPosStrategy;

impl Strategy for CdclPosStrategy {
    fn name(&self) -> &'static str {
        "cdcl-pos"
    }

    fn solve(&self, formula: &StringFormula, cancel: &CancelToken) -> Answer {
        let options = SolverOptions {
            cancel: cancel.clone(),
            ..SolverOptions::default()
        };
        StringSolver::with_options(options).solve(formula)
    }
}

/// What happened to one strategy during a race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrategyOutcome {
    /// Produced the accepted answer.
    Won,
    /// Finished with a definite answer after the race was already decided,
    /// or with an answer the portfolio did not accept (e.g. an unvalidated
    /// `Sat`).
    Finished(String),
    /// Abandoned: returned `Unknown` because its cancellation token fired.
    Cancelled,
    /// Panicked; the crash was absorbed at the isolation boundary and the
    /// race went on without this lane.
    Crashed {
        /// The panic message.
        message: String,
    },
}

/// Per-strategy telemetry of one race.
#[derive(Clone, Debug)]
pub struct StrategyReport {
    /// Strategy name.
    pub name: &'static str,
    /// Wall-clock time until the strategy returned.
    pub elapsed: Duration,
    /// How the strategy ended.
    pub outcome: StrategyOutcome,
}

/// The result of one portfolio race.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// The accepted answer (`Unknown` if no strategy produced a validated
    /// answer before the timeout).
    pub answer: Answer,
    /// Name of the winning strategy, if any.
    pub winner: Option<&'static str>,
    /// Wall-clock time of the whole race, including the cooperative
    /// shutdown of the losers.
    pub elapsed: Duration,
    /// One report per strategy, in portfolio order.
    pub reports: Vec<StrategyReport>,
}

/// Runs one [`Strategy`], or races several, over each query.
#[derive(Clone)]
pub struct PortfolioSolver {
    strategies: Vec<Arc<dyn Strategy>>,
}

impl Default for PortfolioSolver {
    fn default() -> PortfolioSolver {
        PortfolioSolver::new()
    }
}

impl PortfolioSolver {
    /// The default portfolio: the production CDCL(T) position solver alone,
    /// run on the caller's thread.
    pub fn new() -> PortfolioSolver {
        PortfolioSolver {
            strategies: vec![Arc::new(CdclPosStrategy)],
        }
    }

    /// A portfolio over an explicit strategy list.
    ///
    /// # Panics
    /// Panics if `strategies` is empty.
    pub fn with_strategies(strategies: Vec<Arc<dyn Strategy>>) -> PortfolioSolver {
        assert!(
            !strategies.is_empty(),
            "a portfolio needs at least one strategy"
        );
        PortfolioSolver { strategies }
    }

    /// The strategy names in racing order.
    pub fn strategy_names(&self) -> Vec<&'static str> {
        self.strategies.iter().map(|s| s.name()).collect()
    }

    /// Convenience entry point: race with no timeout and no hint.
    pub fn solve(&self, formula: &StringFormula) -> Answer {
        self.solve_with(formula, None, None).answer
    }

    /// Solves a parsed SMT-LIB script, honouring its strategy hint: a hint
    /// restricts the race to the hinted strategy plus the production solver
    /// (the hint is advice, not a soundness waiver).
    pub fn solve_script(
        &self,
        script: &ParsedScript,
        timeout: Option<Duration>,
    ) -> PortfolioResult {
        self.solve_with(&script.formula, timeout, script.strategy_hint.as_deref())
    }

    /// The full racing entry point.
    ///
    /// * The caller's thread runs the first lane and scoped threads run the
    ///   others, so a one-lane portfolio spawns no thread.  The lane whose
    ///   validated answer arrives first claims the race and fires the other
    ///   lanes' tokens; the call returns once every lane has returned.
    /// * `timeout` bounds the race; on expiry every strategy is cancelled
    ///   and, unless an answer was accepted, the answer is `Unknown` with
    ///   the deadline message.
    /// * `hint` (usually from `(set-info :posr-strategy …)`) restricts the
    ///   race to the named strategy plus the production `cdcl-pos` lane; a
    ///   hint naming no strategy of this portfolio is ignored.
    pub fn solve_with(
        &self,
        formula: &StringFormula,
        timeout: Option<Duration>,
        hint: Option<&str>,
    ) -> PortfolioResult {
        let start = Instant::now();
        let deadline = timeout.map(|t| start + t);

        let racers: Vec<&dyn Strategy> = match hint {
            Some(h) if self.strategies.iter().any(|s| s.name() == h) => self
                .strategies
                .iter()
                .filter(|s| s.name() == h || s.name() == "cdcl-pos")
                .map(|s| s.as_ref())
                .collect(),
            _ => self.strategies.iter().map(|s| s.as_ref()).collect(),
        };
        let tokens: Vec<CancelToken> = racers
            .iter()
            .map(|_| match deadline {
                Some(d) => CancelToken::with_deadline(d),
                None => CancelToken::new(),
            })
            .collect();
        let claimed = AtomicBool::new(false);

        // one lane, on whichever thread runs it: `catch_unwind` at the lane
        // boundary makes a panicking strategy lose the race instead of
        // poisoning the scope (`std::thread::scope` re-raises panics on
        // join), and a decisive answer claims the race if no lane has yet
        let run_lane = |index: usize| -> LaneEnd {
            let strategy = racers[index];
            let begin = Instant::now();
            let answer = run_isolated(strategy.name(), || {
                posr_obs::fault::fire(
                    "portfolio.lane",
                    &[posr_obs::FaultKind::Panic, posr_obs::FaultKind::Delay],
                );
                let _span = posr_obs::span!("portfolio", "lane.solve");
                strategy.solve(formula, &tokens[index])
            });
            let elapsed = begin.elapsed();
            HIST_LANE_WALL.record_duration(elapsed);
            let won = answer
                .as_ref()
                .is_ok_and(|a| !claimed.load(Ordering::Acquire) && answer_is_decisive(a, formula))
                && !claimed.swap(true, Ordering::AcqRel);
            if won {
                posr_obs::instant("portfolio", format!("lane.win:{}", strategy.name()));
                for (j, token) in tokens.iter().enumerate() {
                    if j != index {
                        token.cancel();
                        posr_obs::instant("portfolio", format!("lane.cancel:{}", racers[j].name()));
                    }
                }
            }
            LaneEnd {
                answer,
                elapsed,
                won,
            }
        };

        // counter scopes are thread-local: a spawned lane re-attaches the
        // caller's (e.g. the batch driver's per-batch scope), while the
        // caller's own thread already counts into them
        let inherited = posr_obs::attached_scopes();
        let ends: Vec<LaneEnd> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..racers.len())
                .map(|index| {
                    let (run_lane, inherited) = (&run_lane, &inherited);
                    let name = racers[index].name();
                    scope.spawn(move || {
                        let _attached: Vec<_> = inherited.iter().map(|s| s.attach()).collect();
                        posr_obs::set_thread_track(format!("lane:{name}"));
                        posr_obs::instant("portfolio", "lane.spawn");
                        run_lane(index)
                    })
                })
                .collect();
            let mut ends = vec![run_lane(0)];
            ends.extend(spawned.into_iter().map(|lane| {
                lane.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }));
            ends
        });

        let mut winner: Option<&'static str> = None;
        let mut accepted: Option<Answer> = None;
        let mut fallback: Option<Answer> = None;
        let mut reports = Vec::with_capacity(racers.len());
        for ((strategy, token), end) in racers.iter().zip(&tokens).zip(ends) {
            let name = strategy.name();
            let outcome = match end.answer {
                Err(message) => StrategyOutcome::Crashed { message },
                Ok(answer) if end.won => {
                    winner = Some(name);
                    accepted = Some(answer);
                    StrategyOutcome::Won
                }
                // `Unknown` after the token fired (flag or deadline) means
                // the strategy was abandoned, not that it genuinely gave up
                Ok(answer) if answer.is_unknown() && token.is_cancelled() => {
                    StrategyOutcome::Cancelled
                }
                Ok(answer) => {
                    let described = describe(&answer);
                    // remember the first lane's give-up reason (an Unknown
                    // reason beats a generic "portfolio undecided").  A `Sat`
                    // that failed validation is *not* kept: reporting it
                    // would violate the validated-models-only policy
                    if fallback.is_none() && !matches!(answer, Answer::Sat(_)) {
                        fallback = Some(answer);
                    }
                    StrategyOutcome::Finished(described)
                }
            };
            reports.push(StrategyReport {
                name,
                elapsed: end.elapsed,
                outcome,
            });
        }

        let answer = accepted.unwrap_or_else(|| undecided(deadline, fallback));
        PortfolioResult {
            answer,
            winner,
            elapsed: start.elapsed(),
            reports,
        }
    }
}

/// How one lane ended: its answer (or panic message), how long it ran, and
/// whether its answer claimed the race.
struct LaneEnd {
    answer: Result<Answer, String>,
    elapsed: Duration,
    won: bool,
}

/// The answer of a race that accepted nothing.  Once the deadline has
/// passed the race ran out of time, and says so whatever reason an early
/// give-up left behind; before it, the first give-up reason stands.
fn undecided(deadline: Option<Instant>, fallback: Option<Answer>) -> Answer {
    match deadline {
        Some(d) if Instant::now() >= d => Answer::Unknown(DEADLINE_MSG.to_string()),
        _ => fallback.unwrap_or_else(|| {
            Answer::Unknown("portfolio: no strategy produced an answer".to_string())
        }),
    }
}

/// `Unsat` is trusted from every (individually sound) strategy; `Sat` only
/// with a model that re-validates against the original formula.
fn answer_is_decisive(answer: &Answer, formula: &StringFormula) -> bool {
    match answer {
        Answer::Unsat => true,
        Answer::Sat(model) => model.satisfies(formula),
        Answer::Unknown(_) => false,
    }
}

fn describe(answer: &Answer) -> String {
    match answer {
        Answer::Sat(model) if model.strings().is_empty() => {
            "sat (unvalidated, no model)".to_string()
        }
        Answer::Sat(_) => "sat".to_string(),
        Answer::Unsat => "unsat".to_string(),
        Answer::Unknown(reason) => format!("unknown: {reason}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posr_core::ast::StringTerm;
    use posr_core::baselines::EnumerationSolver;

    fn sat_formula() -> StringFormula {
        StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("y", "(ba)*")
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "y")
    }

    fn unsat_formula() -> StringFormula {
        StringFormula::new()
            .in_re("x", "abc")
            .diseq(StringTerm::var("x"), StringTerm::lit("abc"))
    }

    /// A two-lane race: the production lane against guess-and-check
    /// enumeration.
    fn two_lane_race() -> PortfolioSolver {
        PortfolioSolver::with_strategies(vec![
            Arc::new(CdclPosStrategy),
            Arc::new(EnumerationSolver),
        ])
    }

    #[test]
    fn default_portfolio_races_the_measured_lanes() {
        assert_eq!(PortfolioSolver::new().strategy_names(), ["cdcl-pos"]);
    }

    #[test]
    fn racing_portfolio_decides_sat() {
        let result = two_lane_race().solve_with(&sat_formula(), None, None);
        match &result.answer {
            Answer::Sat(model) => assert!(model.satisfies(&sat_formula())),
            other => panic!("expected sat, got {other:?}"),
        }
        assert!(result.winner.is_some());
        assert_eq!(result.reports.len(), 2);
    }

    #[test]
    fn racing_portfolio_decides_unsat() {
        let result = PortfolioSolver::new().solve_with(&unsat_formula(), None, None);
        assert!(result.answer.is_unsat(), "got {:?}", result.answer);
    }

    /// A strategy that never answers until its token fires — the direct test
    /// that losers are abandoned instead of joined to completion.
    pub(crate) struct HangingStrategy;

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

    /// Records the thread it ran on.
    struct ThreadRecorder(std::sync::Mutex<Option<std::thread::ThreadId>>);

    impl Strategy for ThreadRecorder {
        fn name(&self) -> &'static str {
            "thread-recorder"
        }

        fn solve(&self, formula: &StringFormula, cancel: &CancelToken) -> Answer {
            *self.0.lock().unwrap() = Some(std::thread::current().id());
            CdclPosStrategy.solve(formula, cancel)
        }
    }

    #[test]
    fn a_one_strategy_portfolio_runs_on_the_callers_thread() {
        let lane = Arc::new(ThreadRecorder(std::sync::Mutex::new(None)));
        let portfolio =
            PortfolioSolver::with_strategies(vec![Arc::clone(&lane) as Arc<dyn Strategy>]);
        let result = portfolio.solve_with(&sat_formula(), None, None);
        assert!(result.answer.is_sat());
        assert_eq!(result.winner, Some("thread-recorder"));
        assert_eq!(*lane.0.lock().unwrap(), Some(std::thread::current().id()));
    }

    #[test]
    fn every_lane_counts_once_into_the_callers_scopes() {
        /// Counts one solve and gives up.
        struct Counting;
        impl Strategy for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn solve(&self, _formula: &StringFormula, _cancel: &CancelToken) -> Answer {
                posr_obs::counter("portfolio.test.lane_solves").incr();
                Answer::Unknown("counted".to_string())
            }
        }
        let scope = posr_obs::CounterScope::new();
        let _attached = scope.attach();
        let portfolio =
            PortfolioSolver::with_strategies(vec![Arc::new(Counting), Arc::new(Counting)]);
        portfolio.solve(&sat_formula());
        // the spawned lane attaches the caller's scope, and the caller's
        // lane counts through the attachment it already has
        assert_eq!(
            scope.get(posr_obs::counter("portfolio.test.lane_solves")),
            2
        );
    }

    #[test]
    fn the_callers_lane_is_cancelled_when_a_spawned_lane_wins() {
        let portfolio = PortfolioSolver::with_strategies(vec![
            Arc::new(HangingStrategy),
            Arc::new(CdclPosStrategy),
        ]);
        let result = portfolio.solve_with(&unsat_formula(), None, None);
        assert!(result.answer.is_unsat(), "got {:?}", result.answer);
        assert_eq!(result.winner, Some("cdcl-pos"));
        // without the winner firing its token the hanging lane, which runs
        // on this thread, would never return
        assert_eq!(result.reports[0].name, "hanging");
        assert_eq!(result.reports[0].outcome, StrategyOutcome::Cancelled);
        assert_eq!(result.reports[1].outcome, StrategyOutcome::Won);
    }

    #[test]
    fn losing_strategy_is_cancelled_once_the_race_is_decided() {
        let portfolio = PortfolioSolver::with_strategies(vec![
            Arc::new(CdclPosStrategy),
            Arc::new(HangingStrategy),
        ]);
        let start = Instant::now();
        let result = portfolio.solve_with(&unsat_formula(), None, None);
        assert!(result.answer.is_unsat());
        assert_eq!(result.winner, Some("cdcl-pos"));
        // without cancellation this would hang forever
        assert!(start.elapsed() < Duration::from_secs(30));
        let hanging = result.reports.iter().find(|r| r.name == "hanging").unwrap();
        assert_eq!(hanging.outcome, StrategyOutcome::Cancelled);
    }

    /// A strategy that gives up at once, the way a baseline does outside
    /// its fragment.
    struct GivingUpStrategy;

    impl Strategy for GivingUpStrategy {
        fn name(&self) -> &'static str {
            "giving-up"
        }

        fn solve(&self, _formula: &StringFormula, _cancel: &CancelToken) -> Answer {
            Answer::Unknown("outside this lane's fragment".to_string())
        }
    }

    #[test]
    fn timeout_abandons_a_portfolio_of_hungs() {
        let deadline_out = Answer::Unknown(posr_lia::cancel::DEADLINE_MSG.to_string());
        // one hung lane on the caller's thread, and a race of two
        for lanes in [1, 2] {
            let portfolio = PortfolioSolver::with_strategies(
                (0..lanes)
                    .map(|_| Arc::new(HangingStrategy) as Arc<dyn Strategy>)
                    .collect(),
            );
            let result =
                portfolio.solve_with(&sat_formula(), Some(Duration::from_millis(100)), None);
            assert_eq!(result.answer, deadline_out);
            assert!(result.elapsed < Duration::from_secs(30));
            assert_eq!(result.reports.len(), lanes);
            assert!(result
                .reports
                .iter()
                .all(|r| r.outcome == StrategyOutcome::Cancelled));
        }

        // a lane that gave up early does not hide that the race timed out
        let portfolio = PortfolioSolver::with_strategies(vec![
            Arc::new(GivingUpStrategy),
            Arc::new(HangingStrategy),
        ]);
        let result = portfolio.solve_with(&sat_formula(), Some(Duration::from_millis(100)), None);
        assert_eq!(result.answer, deadline_out);

        // when every lane gave up before the deadline, the give-up reason
        // stands
        let portfolio = PortfolioSolver::with_strategies(vec![
            Arc::new(GivingUpStrategy),
            Arc::new(GivingUpStrategy),
        ]);
        let result = portfolio.solve_with(&sat_formula(), Some(Duration::from_secs(30)), None);
        assert_eq!(
            result.answer,
            Answer::Unknown("outside this lane's fragment".to_string())
        );
    }

    #[test]
    fn hint_restricts_the_race() {
        let portfolio = two_lane_race();
        let result = portfolio.solve_with(&sat_formula(), None, Some("cdcl-pos"));
        assert!(result.answer.is_sat());
        let names: Vec<_> = result.reports.iter().map(|r| r.name).collect();
        assert_eq!(names, ["cdcl-pos"]);
        // unknown hints fall back to the full portfolio
        let full = portfolio.solve_with(&sat_formula(), None, Some("no-such-strategy"));
        assert_eq!(full.reports.len(), 2);
    }

    /// A strategy that panics unconditionally — the stand-in for an
    /// injected lane crash (the fault injector panics at exactly this kind
    /// of point, nondeterministically; this pins the deterministic worst
    /// case where a whole lane dies).
    struct PanickingStrategy;

    impl Strategy for PanickingStrategy {
        fn name(&self) -> &'static str {
            "panicky"
        }

        fn solve(&self, _formula: &StringFormula, _cancel: &CancelToken) -> Answer {
            panic!("lane blew up mid-solve");
        }
    }

    #[test]
    fn crashed_lane_loses_but_the_race_still_answers() {
        let crashes_before = OBS_LANE_CRASHES.value();
        let portfolio = PortfolioSolver::with_strategies(vec![
            Arc::new(PanickingStrategy),
            Arc::new(CdclPosStrategy),
        ]);
        let result = portfolio.solve_with(&unsat_formula(), None, None);
        // the surviving lane's validated answer is returned …
        assert!(result.answer.is_unsat(), "got {:?}", result.answer);
        assert_eq!(result.winner, Some("cdcl-pos"));
        // … and the crash is visible, not swallowed
        let crashed = result.reports.iter().find(|r| r.name == "panicky").unwrap();
        match &crashed.outcome {
            StrategyOutcome::Crashed { message } => {
                assert!(message.contains("lane blew up"), "message: {message}");
            }
            other => panic!("expected a crash record, got {other:?}"),
        }
        assert!(OBS_LANE_CRASHES.value() > crashes_before);
    }

    #[test]
    fn unvalidated_sat_cannot_win() {
        /// Always answers `Sat` with an empty model, which validates only on
        /// formulas satisfied by the all-ε assignment.
        struct LiarStrategy;
        impl Strategy for LiarStrategy {
            fn name(&self) -> &'static str {
                "liar"
            }
            fn solve(&self, _formula: &StringFormula, _cancel: &CancelToken) -> Answer {
                Answer::Sat(posr_core::solver::StringModel::default())
            }
        }
        // x must be non-empty, so the liar's ε-model does not validate
        let formula = StringFormula::new().in_re("x", "(ab)+");
        let portfolio = PortfolioSolver::with_strategies(vec![
            Arc::new(LiarStrategy),
            Arc::new(CdclPosStrategy),
        ]);
        let result = portfolio.solve_with(&formula, None, None);
        match &result.answer {
            Answer::Sat(model) => {
                assert!(model.satisfies(&formula));
                assert_eq!(result.winner, Some("cdcl-pos"));
            }
            other => panic!("expected sat from cdcl-pos, got {other:?}"),
        }
        // the liar finished and lost
        let liar = result.reports.iter().find(|r| r.name == "liar").unwrap();
        assert_eq!(
            liar.outcome,
            StrategyOutcome::Finished("sat (unvalidated, no model)".to_string())
        );
    }
}
