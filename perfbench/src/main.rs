//! The end-to-end solve benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload symexec --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One client thread sends the workload's queries in a closed loop with no
//! think time, in whole passes until `--seconds` have elapsed, then checks
//! every answer against a reference that is not the solver.  The last line
//! of standard output is one JSON object: `--trace 0` reports the
//! end-to-end metrics, `--trace 1` replays the same queries with span
//! recording on and reports the per-layer metrics.  A wrong answer prints
//! `"correct": false` and exits with code 1.

mod alloc;
mod layers;
mod oracle;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use posr_core::solver::{Answer, SolverOptions, StringSolver};
use posr_lia::CancelToken;
use posr_portfolio::{PortfolioSolver, StrategyReport};

use workloads::{Query, Verdict, Workload};

#[global_allocator]
static HEAP: alloc::CountingAlloc = alloc::CountingAlloc;

/// Times the set-up is repeated to report its median.
const SETUP_REPEATS: usize = 9;

/// An answer later than this past its query's deadline counts as late.
const LATE_SLACK: Duration = Duration::from_secs(1);

/// The latency tail is the highest percentile with this many queries
/// beyond it.
const TAIL_BEYOND: usize = 10;

/// The renaming of the warm-up pass; measured passes count up from 0.
const WARM_UP_PASS: u64 = u64::MAX;

/// Per-query deadline of the warm-up pass: enough to touch every layer,
/// short enough that the pass costs about a second.
const WARM_UP_DEADLINE: Duration = Duration::from_millis(50);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Keep only this many templates (the self-test's tiny runs).
    max_queries: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut max_queries = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--max-queries" => {
                let n: usize = value.parse().map_err(|_| bad("expected an integer"))?;
                if n == 0 {
                    return Err(bad("expected at least 1"));
                }
                max_queries = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        max_queries,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 [--max-queries <n>]"
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;

    // set-up: generate and rename the first pass, several times for a
    // steady median; the first result is the one sent
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let begin = Instant::now();
        let templates = workloads::templates(workload, args.max_queries);
        let first = workloads::pass(&templates, args.seed, 0);
        setup_times.push(begin.elapsed().as_secs_f64());
        built.get_or_insert((templates, first));
    }
    let (templates, first_pass) = built.expect("at least one set-up");
    println!(
        "input workload={} seed={} deadline_ms={} queries_per_pass={} fingerprint={:016x}",
        workload.name(),
        args.seed,
        workload.deadline().as_millis(),
        first_pass.len(),
        workloads::fingerprint(&first_pass),
    );

    // warm-up: one differently renamed pass under a short deadline, so
    // lazy initialisation and first-touch page faults land outside the
    // measured loop; the automaton cache is then cleared, since it is
    // process-wide and every measured loop starts it cold
    let engine = Engine::new(workload);
    let warm_up = workloads::pass(&templates, args.seed, WARM_UP_PASS);
    let begin = Instant::now();
    for query in &warm_up {
        engine.solve(query, WARM_UP_DEADLINE);
    }
    println!(
        "warm-up: {} queries in {:.3} s",
        warm_up.len(),
        begin.elapsed().as_secs_f64()
    );
    posr_automata::cache::clear();
    let timed = closed_loop(&engine, &templates, first_pass, &args);
    println!(
        "sent {} queries in {} passes in {:.3} s, fingerprint={:016x}",
        timed.queries.len(),
        timed.passes,
        timed.wall.as_secs_f64(),
        workloads::fingerprint(&timed.queries),
    );

    let begin = Instant::now();
    let mut correct = check_answers(&timed.queries, &timed.outcomes);
    println!(
        "checked {} answers in {:.3} s",
        timed.outcomes.len(),
        begin.elapsed().as_secs_f64()
    );
    let (outcomes, metrics) = if args.trace {
        posr_automata::cache::clear();
        let busy = timed.outcomes.iter().map(|o| o.latency).sum();
        let traced = layers::traced_replay(&engine, workload, &timed.queries, busy);
        correct &= check_answers(&timed.queries, &traced.outcomes);
        (traced.outcomes, traced.metrics)
    } else {
        let metrics = end_to_end(workload, &timed, median(&mut setup_times));
        (timed.outcomes, metrics)
    };

    let attempted = outcomes.len();
    let decided = outcomes.iter().filter(|o| !o.answer.is_unknown()).count();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted - decided,
        metrics
            .iter()
            .map(|m| format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One reported metric.
pub(crate) struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub(crate) fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// JSON has no NaN or infinity; a metric with no samples reads 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The solver entry point a workload sends its queries to.
pub(crate) enum Engine {
    /// `StringSolver::solve`, the production cdcl-pos pipeline.
    Solver,
    /// `PortfolioSolver::new().solve_with` at its defaults.
    Portfolio(PortfolioSolver),
}

/// What one query's public call returned.
pub(crate) struct Outcome {
    pub(crate) answer: Answer,
    /// Call to answer.
    pub(crate) latency: Duration,
    /// The deadline the call was given.
    pub(crate) deadline: Duration,
    /// `Budget::mem_used` after the call (sequential workloads only: the
    /// race gives its lanes fresh tokens).
    pub(crate) charged_bytes: u64,
    /// The race's winner and lane reports (portfolio only).
    pub(crate) race: Option<Race>,
}

pub(crate) struct Race {
    pub(crate) winner: Option<&'static str>,
    pub(crate) reports: Vec<StrategyReport>,
}

impl Engine {
    fn new(workload: Workload) -> Engine {
        match workload {
            Workload::Symexec | Workload::PositionSystems => Engine::Solver,
            Workload::SymexecPortfolio => Engine::Portfolio(PortfolioSolver::new()),
        }
    }

    pub(crate) fn solve(&self, query: &Query, deadline: Duration) -> Outcome {
        match self {
            Engine::Solver => {
                let budget = Arc::new(posr_obs::Budget::unlimited());
                let begin = Instant::now();
                let options = SolverOptions {
                    deadline: Some(begin + deadline),
                    cancel: CancelToken::none().with_budget(Arc::clone(&budget)),
                    ..SolverOptions::default()
                };
                let answer = StringSolver::with_options(options).solve(&query.formula);
                let latency = begin.elapsed();
                Outcome {
                    answer,
                    latency,
                    deadline,
                    charged_bytes: budget.mem_used(),
                    race: None,
                }
            }
            Engine::Portfolio(portfolio) => {
                let begin = Instant::now();
                let result = portfolio.solve_with(&query.formula, Some(deadline), None);
                let latency = begin.elapsed();
                Outcome {
                    answer: result.answer,
                    latency,
                    deadline,
                    charged_bytes: 0,
                    race: Some(Race {
                        winner: result.winner,
                        reports: result.reports,
                    }),
                }
            }
        }
    }
}

/// The untraced closed loop and what it measured.
struct Timed {
    /// Every query sent, in order.
    queries: Vec<Query>,
    outcomes: Vec<Outcome>,
    passes: u64,
    /// Wall time of the query loop.
    wall: Duration,
    /// Process CPU time (all threads) over the loop.
    cpu: Duration,
    /// Peak live heap over the loop.
    peak_heap_bytes: usize,
}

/// Sends whole passes until `--seconds` have elapsed.
fn closed_loop(engine: &Engine, templates: &[Query], first: Vec<Query>, args: &Args) -> Timed {
    let mut queries = Vec::new();
    let mut outcomes = Vec::new();
    let mut next = first;
    let mut passes = 0;
    alloc::reset_peak();
    let cpu_before = process_cpu();
    let begin = Instant::now();
    loop {
        for query in &next {
            outcomes.push(engine.solve(query, args.workload.deadline()));
        }
        queries.append(&mut next);
        passes += 1;
        if begin.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        next = workloads::pass(templates, args.seed, passes);
    }
    let wall = begin.elapsed();
    Timed {
        queries,
        outcomes,
        passes,
        wall,
        cpu: process_cpu().saturating_sub(cpu_before),
        peak_heap_bytes: alloc::peak_bytes(),
    }
}

/// User plus system CPU time of the whole process, every thread included,
/// from `/proc/self/stat` (Linux clock ticks of 10 ms).
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // fields after the parenthesised command name, starting at field 3
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11..13]
        .iter()
        .map(|f| f.parse::<u64>().expect("utime and stime are integers"))
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Checks every answer against a reference that is not the solver: Sat
/// models are re-validated with `StringModel::satisfies`, position systems
/// have hand-written verdicts, and every Unsat on a generated query must
/// survive the bounded brute-force search.  Prints each contradiction.
fn check_answers(queries: &[Query], outcomes: &[Outcome]) -> bool {
    let mut correct = true;
    for (query, outcome) in queries.iter().zip(outcomes) {
        let problem = match (&outcome.answer, query.expected) {
            (Answer::Sat(_), Some(Verdict::Unsat)) | (Answer::Unsat, Some(Verdict::Sat)) => {
                Some("contradicts the verdict known by construction".to_string())
            }
            (Answer::Sat(model), _) if !model.satisfies(&query.formula) => {
                Some("returned a model that violates the formula".to_string())
            }
            (Answer::Unsat, None) => match oracle::bounded_model(&query.formula) {
                Ok(None) => None,
                Ok(Some(witness)) => Some(format!(
                    "answered unsat, but {:?} {:?} satisfies it",
                    witness.strings, witness.ints
                )),
                Err(e) => Some(format!("unsat could not be cross-checked: {e}")),
            },
            _ => None,
        };
        if let Some(problem) = problem {
            correct = false;
            println!("WRONG {}: {problem}\n{}", query.name, query.formula);
        }
    }
    correct
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(workload: Workload, timed: &Timed, setup_s: f64) -> Vec<Metric> {
    let n = timed.outcomes.len();
    let decided = timed
        .outcomes
        .iter()
        .filter(|o| !o.answer.is_unknown())
        .count();
    let on_time = timed
        .outcomes
        .iter()
        .filter(|o| o.latency <= o.deadline + LATE_SLACK)
        .count();
    let mut latencies: Vec<f64> = timed
        .outcomes
        .iter()
        .map(|o| o.latency.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let (tail, tail_index) = tail(&latencies);
    println!(
        "{} latency tail: p{:.1} over {n} queries ({} beyond it)",
        workload.name(),
        100.0 * (tail_index + 1) as f64 / n as f64,
        n - tail_index - 1,
    );
    let sum = |f: fn(&&Outcome) -> bool| timed.outcomes.iter().filter(f).count();
    println!(
        "{} verdicts: {} sat, {} unsat, {} unknown",
        workload.name(),
        sum(|o| o.answer.is_sat()),
        sum(|o| o.answer.is_unsat()),
        sum(|o| o.answer.is_unknown()),
    );
    vec![
        Metric::new("decided_frac", decided as f64 / n as f64, "ratio"),
        Metric::new("queries_per_s", n as f64 / timed.wall.as_secs_f64(), "1/s"),
        Metric::new("latency_p50_ms", median(&mut latencies), "ms"),
        Metric::new("latency_tail_ms", tail, "ms"),
        Metric::new("on_time_frac", on_time as f64 / n as f64, "ratio"),
        Metric::new(
            "cpu_ms_per_query",
            timed.cpu.as_secs_f64() * 1e3 / n as f64,
            "ms",
        ),
        Metric::new(
            "peak_heap_mb",
            timed.peak_heap_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        Metric::new("setup_s", setup_s, "s"),
    ]
}

/// The value of the highest percentile with `TAIL_BEYOND` queries beyond
/// it, with its index in `sorted`; the maximum when there are too few.
fn tail(sorted: &[f64]) -> (f64, usize) {
    let n = sorted.len();
    let index = if n > TAIL_BEYOND {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    (sorted[index], index)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
