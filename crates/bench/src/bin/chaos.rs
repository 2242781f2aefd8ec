//! Chaos-mode differential smoke testing: the fault-injected twin of
//! `smokefuzz`, solving the benchmark generators' string formulas through
//! a two-lane portfolio race (`cdcl-pos` on the calling thread, enumeration
//! on a scoped one) twice per round — once clean (the reference), once
//! with seeded fault injection armed — and asserting the three chaos
//! invariants:
//!
//! * **no wrong verdict** — the injected run may degrade to `Unknown`, but
//!   a definite answer must match the reference's definite answer, and an
//!   injected `Sat` must carry a model that validates against the formula;
//! * **no hang** — the injected solve must return within its deadline plus
//!   a fixed slack (injected delays and crash recovery included);
//! * **no process abort** — injected panics must be absorbed by the lane /
//!   worker isolation boundaries; one escaping to this harness (or killing
//!   the process, which CI sees as a non-zero exit) fails the gate.
//!
//! Seeding follows `smokefuzz`: `POSR_FUZZ_SEED`, else `GITHUB_RUN_ID`,
//! else a fixed constant, so every CI failure is replayable locally.  The
//! budget is `POSR_CHAOS_SECONDS` (default 300) with a floor of 200 rounds,
//! the injection rate `POSR_CHAOS_RATE` (default 0.02), and the JSON
//! summary lands at `POSR_CHAOS_SUMMARY` (default
//! `target/CHAOS_summary.json`).

use std::fmt::Write as _;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use posr_bench::gen;
use posr_core::baselines::EnumerationSolver;
use posr_core::solver::Answer;
use posr_portfolio::{CdclPosStrategy, PortfolioSolver};

/// Extra wall-clock allowance past the per-solve deadline before a round
/// counts as a hang: covers injected delays, crash-retry backoff and the
/// cooperative unwind of losing lanes.
const HANG_SLACK: Duration = Duration::from_secs(2);

/// Rounds run even when the time budget is tiny.
const MIN_ROUNDS: u64 = 200;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn main() {
    let seconds = env_u64("POSR_CHAOS_SECONDS").unwrap_or(300);
    let seed = env_u64("POSR_FUZZ_SEED")
        .or_else(|| env_u64("GITHUB_RUN_ID"))
        .unwrap_or(0xC4A0_5EED);
    let rate = env_f64("POSR_CHAOS_RATE").unwrap_or(0.02).clamp(0.0, 1.0);
    let per_solve = Duration::from_secs(env_u64("POSR_CHAOS_SOLVE_SECONDS").unwrap_or(5));
    let deadline = Instant::now() + Duration::from_secs(seconds);
    println!("chaos: base seed {seed}, rate {rate}, budget {seconds}s, per-solve {per_solve:?}");

    // arm the injector but keep the gate closed: each round opens it only
    // around the injected solve
    posr_obs::fault::configure(seed, rate);
    posr_obs::fault::set_injection_enabled(false);

    let instances: Vec<gen::Instance> = gen::suite_names()
        .iter()
        .flat_map(|name| gen::suite(name, 25, seed))
        .collect();
    // an explicit race, not the one-lane default: lane isolation,
    // cancellation of the loser and crash absorption on both the calling
    // and a spawned thread are what this gate injects faults into
    let portfolio = PortfolioSolver::with_strategies(vec![
        Arc::new(CdclPosStrategy),
        Arc::new(EnumerationSolver),
    ]);

    let mut round = 0u64;
    let mut sat = 0usize;
    let mut unsat = 0usize;
    let mut unknown = 0usize;
    let mut degraded = 0usize;
    let mut wrong_verdicts = 0usize;
    let mut hangs = 0usize;
    let mut escapes = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let slow_lane = posr_obs::counter("lia.rat.slow_lane");
    let slow_lane_before = slow_lane.value();

    while (Instant::now() < deadline || round < MIN_ROUNDS) && failures.len() < 10 {
        let instance = &instances[(round as usize) % instances.len()];
        round += 1;

        // reference solve, injection gated off
        posr_obs::fault::set_injection_enabled(false);
        let reference = portfolio
            .solve_with(&instance.formula, Some(per_solve), None)
            .answer;

        // injected solve under the deadline; a panic reaching this frame
        // means the isolation boundaries leaked
        posr_obs::fault::set_injection_enabled(true);
        let begin = Instant::now();
        let injected = std::panic::catch_unwind(AssertUnwindSafe(|| {
            portfolio
                .solve_with(&instance.formula, Some(per_solve), None)
                .answer
        }));
        let wall = begin.elapsed();
        posr_obs::fault::set_injection_enabled(false);

        if wall > per_solve + HANG_SLACK {
            hangs += 1;
            failures.push(format!(
                "round {round} ({}): injected solve took {wall:?}, deadline {per_solve:?} + {HANG_SLACK:?} slack",
                instance.name
            ));
        }
        let injected = match injected {
            Ok(answer) => answer,
            Err(_) => {
                escapes += 1;
                failures.push(format!(
                    "round {round} ({}): a panic escaped the solver's isolation boundaries",
                    instance.name
                ));
                continue;
            }
        };

        match &injected {
            Answer::Sat(model) => {
                sat += 1;
                if !model.satisfies(&instance.formula) {
                    wrong_verdicts += 1;
                    failures.push(format!(
                        "round {round} ({}): injected sat model fails its formula",
                        instance.name
                    ));
                } else if reference.is_unsat() {
                    wrong_verdicts += 1;
                    failures.push(format!(
                        "round {round} ({}): injected sat (validated) vs reference unsat",
                        instance.name
                    ));
                }
            }
            Answer::Unsat => {
                unsat += 1;
                if reference.is_sat() {
                    wrong_verdicts += 1;
                    failures.push(format!(
                        "round {round} ({}): injected unsat vs reference sat",
                        instance.name
                    ));
                }
            }
            Answer::Unknown(_) => {
                unknown += 1;
                if !reference.is_unknown() {
                    // correct-or-Unknown: a clean degradation, not a failure
                    degraded += 1;
                }
            }
        }
    }

    let injected_faults = posr_obs::fault::injected_total();
    if injected_faults == 0 {
        failures.push(format!(
            "vacuous chaos run: {round} rounds at rate {rate} injected no faults at all"
        ));
    }

    let mut json = String::from("{\n  \"schema\": \"posr-chaos/v1\",\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"rate\": {rate},");
    let _ = writeln!(json, "  \"budget_seconds\": {seconds},");
    let _ = writeln!(json, "  \"rounds\": {round},");
    let _ = writeln!(json, "  \"faults_injected\": {injected_faults},");
    let _ = writeln!(
        json,
        "  \"verdicts\": {{\"sat\":{sat},\"unsat\":{unsat},\"unknown\":{unknown}}},"
    );
    let _ = writeln!(json, "  \"degraded_to_unknown\": {degraded},");
    let _ = writeln!(json, "  \"wrong_verdicts\": {wrong_verdicts},");
    let _ = writeln!(json, "  \"hangs\": {hangs},");
    let _ = writeln!(json, "  \"panic_escapes\": {escapes},");
    let slow_lane_trips = slow_lane.value() - slow_lane_before;
    let _ = writeln!(json, "  \"slow_lane\": {slow_lane_trips},");
    let _ = writeln!(json, "  \"failures\": {},", failures.len());
    let _ = writeln!(json, "  \"ok\": {}", failures.is_empty());
    json.push_str("}\n");
    let summary_path = std::env::var("POSR_CHAOS_SUMMARY")
        .unwrap_or_else(|_| "target/CHAOS_summary.json".to_string());
    if let Some(parent) = std::path::Path::new(&summary_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&summary_path, &json) {
        Ok(()) => println!("summary written to {summary_path}"),
        Err(e) => eprintln!("could not write summary to {summary_path}: {e}"),
    }

    println!(
        "{round} rounds, {injected_faults} faults injected: {sat} sat / {unsat} unsat / \
         {unknown} unknown ({degraded} clean degradations); \
         {wrong_verdicts} wrong verdicts, {hangs} hangs, {escapes} panic escapes; \
         {slow_lane_trips} slow-lane trips"
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("chaos gate clean: every injected solve answered correctly or degraded to Unknown");
}
