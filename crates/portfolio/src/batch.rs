//! The batch driver: many problems, one worker pool, per-problem timeouts.
//!
//! Workers pull problems off a shared queue and run the portfolio once per
//! problem, on the worker's own thread.  The parallelism is between
//! problems (the pool); a portfolio built with more than one strategy adds
//! a race inside each problem, whose extra lanes run on scoped threads of
//! their own.  Problems parsed from SMT-LIB scripts carry their
//! `(set-info :posr-strategy …)` hints into the portfolio.  The report
//! aggregates verdict counts, wall-clock vs. summed solve time (the speedup
//! the pool bought), and the shared automaton cache counters (the reuse the
//! pattern cache bought).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use posr_core::ast::StringFormula;
use posr_core::solver::{answer_status, Answer};
use posr_smtfmt::{parse_script, ParseError};

use crate::{run_isolated, PortfolioResult, PortfolioSolver, StrategyOutcome, StrategyReport};

/// First backoff delay of the retry pass; doubles per retried item (capped),
/// so a burst of crashed items does not immediately re-hammer a struggling
/// host.
const RETRY_BACKOFF: Duration = Duration::from_millis(25);

/// The lane the retry pass pins: the production lane alone (a hint keeps
/// only the hinted lane and `cdcl-pos`, see [`PortfolioSolver::solve_with`]).
const RETRY_HINT: &str = "cdcl-pos";

/// Distribution of per-item wall times (one portfolio run each), µs.  Scoped:
/// a batch's own percentiles come out of its `CounterScope`.
static HIST_ITEM_WALL: std::sync::LazyLock<posr_obs::Histogram> =
    std::sync::LazyLock::new(|| posr_obs::histogram("batch.item_wall_us"));

/// One problem of a batch.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// Display name (file name, generated instance id, …).
    pub name: String,
    /// The formula to decide.
    pub formula: StringFormula,
    /// Optional strategy hint (see [`PortfolioSolver::solve_with`]).
    pub hint: Option<String>,
}

impl BatchItem {
    /// An item with no hint.
    pub fn new(name: impl Into<String>, formula: StringFormula) -> BatchItem {
        BatchItem {
            name: name.into(),
            formula,
            hint: None,
        }
    }
}

/// Tuning of the batch driver.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Worker threads; `0` means one per available CPU.
    pub workers: usize,
    /// Per-problem timeout (each race is cancelled on expiry).
    pub timeout: Option<Duration>,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            workers: 0,
            timeout: Some(Duration::from_secs(10)),
        }
    }
}

impl BatchOptions {
    fn effective_workers(&self, problems: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let requested = if self.workers == 0 {
            auto
        } else {
            self.workers
        };
        requested.clamp(1, problems.max(1))
    }
}

/// The outcome of one problem.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Problem name.
    pub name: String,
    /// The race result (answer, winner, per-strategy reports).
    pub result: PortfolioResult,
}

impl BatchOutcome {
    /// The SMT-LIB status string of the answer.
    pub fn status(&self) -> &'static str {
        answer_status(&self.result.answer)
    }
}

/// Aggregate statistics of a batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Number of problems.
    pub total: usize,
    /// Definite `sat` verdicts.
    pub sat: usize,
    /// Definite `unsat` verdicts.
    pub unsat: usize,
    /// Undecided problems (including per-problem timeouts).
    pub unknown: usize,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
    /// Sum of the individual race times — `solve_time / wall_time` is the
    /// parallel speedup the worker pool achieved.
    pub solve_time: Duration,
    /// Automaton-cache hits made by *this batch's* workers, counted via a
    /// per-batch `posr_obs::CounterScope` — exact even when several batches
    /// (or unrelated solves) share the process.  The process-wide
    /// cumulative view stays available as `posr_automata::cache::stats()`.
    pub cache_hits: u64,
    /// Automaton-cache misses made by this batch's workers (same scoping
    /// as [`BatchStats::cache_hits`]).
    pub cache_misses: u64,
    /// Items whose final result records at least one crashed lane or a
    /// crashed worker (the crash was absorbed; the item still has an
    /// outcome).
    pub crashed: usize,
    /// Items re-run once on the `cdcl-pos` lane because an absorbed crash
    /// left them undecided.  A retry gets only what is left of the item's
    /// timeout, with exponential backoff between retries.
    pub retried: usize,
    /// Wins per strategy name.
    pub wins: std::collections::BTreeMap<&'static str, usize>,
    /// Distribution of per-item wall times for *this batch's* items
    /// (same per-batch scoping as the cache counters); `None` when the
    /// batch was empty.  `item_wall_us.p99()` is the batch's tail latency.
    pub item_wall_us: Option<posr_obs::HistogramSnapshot>,
}

impl BatchStats {
    /// `solve_time / wall_time`: >1 on a multi-core runner.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if wall == 0.0 {
            1.0
        } else {
            self.solve_time.as_secs_f64() / wall
        }
    }
}

/// A completed batch: per-problem outcomes (in input order) plus aggregates.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One outcome per input problem, in input order.
    pub outcomes: Vec<BatchOutcome>,
    /// Aggregate statistics.
    pub stats: BatchStats,
}

/// Solves every item concurrently with the given portfolio.
pub fn solve_batch(
    items: &[BatchItem],
    portfolio: &PortfolioSolver,
    options: &BatchOptions,
) -> BatchReport {
    let start = Instant::now();
    // per-batch counter scope: each worker attaches, so the cache numbers
    // below count exactly this batch's lookups (global deltas were corrupted
    // by concurrent batches in the same process)
    let counters = posr_obs::CounterScope::new();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<BatchOutcome>>> = items.iter().map(|_| Mutex::new(None)).collect();

    // one flow per item, started at submit on this thread and ended by
    // the worker that picks the item up — in Perfetto the queue-wait of
    // every item is the arrow from the submit span to its worker span
    let flows: Vec<u64> = {
        let _span = posr_obs::span!("batch", "batch.submit");
        items
            .iter()
            .map(|item| {
                let flow = posr_obs::flow_id();
                posr_obs::flow_start("batch", format!("batch.item:{}", item.name), flow);
                flow
            })
            .collect()
    };

    let workers = options.effective_workers(items.len());
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (counters, next, slots, flows) = (&counters, &next, &slots, &flows);
            scope.spawn(move || {
                let _attached = counters.attach();
                posr_obs::set_thread_track(format!("worker:{worker}"));
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else { break };
                    let _span = posr_obs::span("batch", item.name.clone());
                    posr_obs::flow_end("batch", format!("batch.item:{}", item.name), flows[index]);
                    let item_start = Instant::now();
                    let result = solve_item_isolated(
                        portfolio,
                        item,
                        options.timeout,
                        item.hint.as_deref(),
                        item_start,
                    );
                    HIST_ITEM_WALL.record_duration(item_start.elapsed());
                    *slots[index]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(BatchOutcome {
                        name: item.name.clone(),
                        result,
                    });
                }
            });
        }
    });

    let mut outcomes: Vec<BatchOutcome> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("worker filled slot")
        })
        .collect();

    // retry pass: an item whose race saw a crash and still ended undecided
    // gets exactly one more chance, pinned to the production lane, within
    // what is left of its timeout, with exponential backoff between retries;
    // the backoff is spent out of that time, so an item with no more left
    // than the backoff is not retried at all
    let mut retried = 0usize;
    for (outcome, item) in outcomes.iter_mut().zip(items) {
        if !wants_retry(&outcome.result) {
            continue;
        }
        let backoff = RETRY_BACKOFF.saturating_mul(1 << retried.min(6));
        let left = options
            .timeout
            .map(|t| t.saturating_sub(outcome.result.elapsed));
        if left.is_some_and(|left| left <= backoff) {
            continue;
        }
        let left = left.map(|left| left - backoff);
        retried += 1;
        std::thread::sleep(backoff);
        posr_obs::instant("batch", format!("batch.retry:{}", outcome.name));
        let retry_start = Instant::now();
        let retry = run_isolated(&outcome.name, || {
            portfolio.solve_with(&item.formula, left, Some(RETRY_HINT))
        });
        if let Ok(result) = retry {
            if matches!(result.answer, Answer::Sat(_) | Answer::Unsat) {
                // keep the original (crash-annotated) reports visible by
                // appending, not replacing, the retry's
                let mut merged = outcome.result.reports.clone();
                merged.extend(result.reports.clone());
                outcome.result = PortfolioResult {
                    reports: merged,
                    elapsed: outcome.result.elapsed + retry_start.elapsed(),
                    ..result
                };
            }
        }
    }

    let mut stats = BatchStats {
        total: outcomes.len(),
        wall_time: start.elapsed(),
        cache_hits: counters.get(*posr_automata::cache::OBS_HITS),
        cache_misses: counters.get(*posr_automata::cache::OBS_MISSES),
        item_wall_us: counters.histogram(*HIST_ITEM_WALL),
        ..BatchStats::default()
    };
    stats.retried = retried;
    for outcome in &outcomes {
        match &outcome.result.answer {
            Answer::Sat(_) => stats.sat += 1,
            Answer::Unsat => stats.unsat += 1,
            Answer::Unknown(_) => stats.unknown += 1,
        }
        if crashed_somewhere(&outcome.result) {
            stats.crashed += 1;
        }
        stats.solve_time += outcome.result.elapsed;
        if let Some(winner) = outcome.result.winner {
            *stats.wins.entry(winner).or_insert(0) += 1;
        }
    }
    BatchReport { outcomes, stats }
}

/// One item's full race under the worker isolation boundary: a panic that
/// escapes the per-lane boundary (or is injected at the worker itself)
/// yields an `Unknown` outcome with a crash record instead of tearing down
/// the whole pool (`std::thread::scope` re-raises worker panics on join).
fn solve_item_isolated(
    portfolio: &PortfolioSolver,
    item: &BatchItem,
    timeout: Option<Duration>,
    hint: Option<&str>,
    begin: Instant,
) -> PortfolioResult {
    let solved = run_isolated(&item.name, || {
        posr_obs::fault::fire(
            "portfolio.batch_worker",
            &[posr_obs::FaultKind::Panic, posr_obs::FaultKind::Delay],
        );
        portfolio.solve_with(&item.formula, timeout, hint)
    });
    match solved {
        Ok(result) => result,
        Err(message) => PortfolioResult {
            answer: Answer::Unknown(format!("batch worker crashed: {message}")),
            winner: None,
            elapsed: begin.elapsed(),
            reports: vec![StrategyReport {
                name: "batch-worker",
                elapsed: begin.elapsed(),
                outcome: StrategyOutcome::Crashed { message },
            }],
        },
    }
}

fn crashed_somewhere(result: &PortfolioResult) -> bool {
    result
        .reports
        .iter()
        .any(|r| matches!(r.outcome, StrategyOutcome::Crashed { .. }))
}

/// An item is retried when it ended *undecided* after an absorbed crash.
/// Decided items never retry — a crash that lost the race to a validated
/// answer needs no second opinion — and neither do items that ran out of
/// time: a second run would only meet the same deadline again.
fn wants_retry(result: &PortfolioResult) -> bool {
    matches!(result.answer, Answer::Unknown(_)) && crashed_somewhere(result)
}

/// Parses named SMT-LIB sources and solves them as one batch, carrying each
/// script's strategy hint into its race.
///
/// # Errors
/// Returns the first parse error together with the offending source's name.
pub fn solve_scripts(
    sources: &[(String, String)],
    portfolio: &PortfolioSolver,
    options: &BatchOptions,
) -> Result<BatchReport, (String, ParseError)> {
    let mut items = Vec::with_capacity(sources.len());
    for (name, text) in sources {
        let script = parse_script(text).map_err(|e| (name.clone(), e))?;
        items.push(BatchItem {
            name: name.clone(),
            formula: script.formula,
            hint: script.strategy_hint,
        });
    }
    Ok(solve_batch(&items, portfolio, options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use posr_core::ast::StringTerm;

    fn items() -> Vec<BatchItem> {
        let sat = StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("y", "(ba)*")
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "y");
        let unsat = StringFormula::new()
            .in_re("x", "abc")
            .diseq(StringTerm::var("x"), StringTerm::lit("abc"));
        vec![
            BatchItem::new("sat-0", sat.clone()),
            BatchItem::new("unsat-0", unsat.clone()),
            BatchItem::new("sat-1", sat),
            BatchItem::new("unsat-1", unsat),
        ]
    }

    #[test]
    fn batch_preserves_order_and_counts_verdicts() {
        let report = solve_batch(&items(), &PortfolioSolver::new(), &BatchOptions::default());
        let names: Vec<&str> = report.outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["sat-0", "unsat-0", "sat-1", "unsat-1"]);
        assert_eq!(report.stats.total, 4);
        assert_eq!(report.stats.sat, 2);
        assert_eq!(report.stats.unsat, 2);
        assert_eq!(report.stats.unknown, 0);
        assert!(report.stats.speedup() > 0.0);
    }

    #[test]
    fn scripts_batch_carries_hints() {
        let sources = vec![(
            "hinted.smt2".to_string(),
            r#"
              (set-info :posr-strategy cdcl-pos)
              (declare-const x String)
              (declare-const y String)
              (assert (str.in_re x (re.* (str.to_re "ab"))))
              (assert (str.in_re y (re.* (str.to_re "ab"))))
              (assert (not (= x y)))
              (check-sat)
            "#
            .to_string(),
        )];
        let race = PortfolioSolver::with_strategies(vec![
            std::sync::Arc::new(crate::CdclPosStrategy),
            std::sync::Arc::new(posr_core::baselines::EnumerationSolver),
        ]);
        let report = solve_scripts(&sources, &race, &BatchOptions::default()).unwrap();
        assert_eq!(report.stats.sat, 1);
        // the hint restricted the race to the cdcl-pos lane
        let lanes: Vec<_> = report.outcomes[0]
            .result
            .reports
            .iter()
            .map(|r| r.name)
            .collect();
        assert_eq!(lanes, ["cdcl-pos"]);
    }

    #[test]
    fn crashed_lane_is_visible_in_the_report_and_decided_items_skip_retry() {
        use crate::{CdclPosStrategy, Strategy};
        use posr_lia::cancel::CancelToken;
        use std::sync::Arc;

        struct PanickingStrategy;
        impl Strategy for PanickingStrategy {
            fn name(&self) -> &'static str {
                "panicky"
            }
            fn solve(&self, _f: &StringFormula, _c: &CancelToken) -> Answer {
                panic!("worker lane blew up");
            }
        }

        let unsat = StringFormula::new()
            .in_re("x", "abc")
            .diseq(StringTerm::var("x"), StringTerm::lit("abc"));
        let portfolio = crate::PortfolioSolver::with_strategies(vec![
            Arc::new(PanickingStrategy),
            Arc::new(CdclPosStrategy),
        ]);
        let report = solve_batch(
            &[BatchItem::new("crashy", unsat.clone())],
            &portfolio,
            &BatchOptions::default(),
        );
        // the surviving lane decided the item, so no retry happened …
        assert_eq!(report.stats.unsat, 1);
        assert_eq!(report.stats.retried, 0);
        // … but the crash is counted and visible in the outcome's reports
        assert_eq!(report.stats.crashed, 1);
        assert!(report.outcomes[0]
            .result
            .reports
            .iter()
            .any(|r| matches!(r.outcome, crate::StrategyOutcome::Crashed { .. })));

        // with no surviving lane the item stays undecided and is retried
        // exactly once
        let all_crash = crate::PortfolioSolver::with_strategies(vec![Arc::new(PanickingStrategy)]);
        let report = solve_batch(
            &[BatchItem::new("hopeless", unsat)],
            &all_crash,
            &BatchOptions::default(),
        );
        assert_eq!(report.stats.unknown, 1);
        assert_eq!(report.stats.crashed, 1);
        assert_eq!(report.stats.retried, 1);
    }

    #[test]
    fn deadline_outs_are_not_retried() {
        use crate::tests::HangingStrategy;
        use posr_lia::cancel::DEADLINE_MSG;
        use std::sync::Arc;

        let portfolio = crate::PortfolioSolver::with_strategies(vec![
            Arc::new(HangingStrategy),
            Arc::new(HangingStrategy),
        ]);
        let report = solve_batch(
            &[BatchItem::new(
                "hung",
                StringFormula::new().in_re("x", "(ab)*"),
            )],
            &portfolio,
            &BatchOptions {
                workers: 1,
                timeout: Some(Duration::from_millis(100)),
            },
        );
        let outcome = &report.outcomes[0];
        assert_eq!(
            outcome.result.answer,
            Answer::Unknown(DEADLINE_MSG.to_string())
        );
        assert_eq!(report.stats.retried, 0);
        // the item ends at its own timeout, not a second one later
        assert!(
            outcome.result.elapsed < Duration::from_secs(1),
            "item took {:?}",
            outcome.result.elapsed
        );
        assert!(report.stats.wall_time < Duration::from_secs(1));
    }

    #[test]
    fn crash_retries_fit_in_the_item_timeout() {
        use posr_lia::cancel::CancelToken;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        /// Crashes on its first call; afterwards gives up at once and
        /// records how much time its token still allowed.
        #[derive(Default)]
        struct CrashOnce {
            crashed: AtomicBool,
            retry_budget: Mutex<Option<Duration>>,
        }
        impl crate::Strategy for CrashOnce {
            fn name(&self) -> &'static str {
                "crash-once"
            }
            fn solve(&self, _f: &StringFormula, cancel: &CancelToken) -> Answer {
                if !self.crashed.swap(true, Ordering::SeqCst) {
                    panic!("first call blew up");
                }
                *self.retry_budget.lock().unwrap() = cancel.deadline().map(|d| d - Instant::now());
                Answer::Unknown("gave up".to_string())
            }
        }

        let run = |timeout: Duration| {
            let lane = Arc::new(CrashOnce::default());
            let portfolio = crate::PortfolioSolver::with_strategies(vec![
                Arc::clone(&lane) as Arc<dyn crate::Strategy>
            ]);
            let report = solve_batch(
                &[BatchItem::new(
                    "crashy",
                    StringFormula::new().in_re("x", "(ab)*"),
                )],
                &portfolio,
                &BatchOptions {
                    workers: 1,
                    timeout: Some(timeout),
                },
            );
            let budget = *lane.retry_budget.lock().unwrap();
            // the retry decided nothing, so this is the first race's time
            let first = report.outcomes[0].result.elapsed;
            (report.stats.retried, first, budget)
        };

        // the retry's race gets the item's timeout minus the time the first
        // race spent and the backoff slept before it
        let timeout = Duration::from_secs(2);
        let (retried, first, budget) = run(timeout);
        assert_eq!(retried, 1);
        let budget = budget.expect("the retry ran under the item's deadline");
        assert!(
            first + RETRY_BACKOFF + budget <= timeout,
            "first race {first:?}, retry allowed {budget:?} of a {timeout:?} timeout"
        );

        // an item with no more time left than the backoff is not retried
        let (retried, _, budget) = run(RETRY_BACKOFF / 2);
        assert_eq!(retried, 0);
        assert_eq!(budget, None);
    }

    #[test]
    fn retry_re_solves_the_crashed_item_when_names_repeat() {
        use crate::{CdclPosStrategy, Strategy};
        use posr_lia::cancel::CancelToken;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        /// The production lane, except that its first call on `target`
        /// panics.
        struct CrashOnceOn {
            target: StringFormula,
            crashed: AtomicBool,
        }
        impl Strategy for CrashOnceOn {
            fn name(&self) -> &'static str {
                "crash-once-on"
            }
            fn solve(&self, f: &StringFormula, cancel: &CancelToken) -> Answer {
                if *f == self.target && !self.crashed.swap(true, Ordering::SeqCst) {
                    panic!("first call on the target blew up");
                }
                CdclPosStrategy.solve(f, cancel)
            }
        }

        let items = items();
        let (sat, unsat) = (items[0].formula.clone(), items[1].formula.clone());
        let lane = CrashOnceOn {
            target: unsat.clone(),
            crashed: AtomicBool::new(false),
        };
        let report = solve_batch(
            &[BatchItem::new("dup", sat), BatchItem::new("dup", unsat)],
            &PortfolioSolver::with_strategies(vec![Arc::new(lane)]),
            &BatchOptions::default(),
        );
        assert_eq!(report.stats.retried, 1);
        assert!(report.outcomes[0].result.answer.is_sat());
        assert_eq!(report.outcomes[1].result.answer, Answer::Unsat);
    }

    #[test]
    fn parse_errors_name_the_source() {
        let sources = vec![("broken.smt2".to_string(), "(assert".to_string())];
        let err = solve_scripts(&sources, &PortfolioSolver::new(), &BatchOptions::default());
        assert_eq!(err.unwrap_err().0, "broken.smt2");
    }
}
