//! End-to-end portfolio demo: solves a generated multi-family batch both
//! sequentially (the paper's pipeline, one problem at a time) and through
//! the concurrent portfolio batch driver, then compares verdicts and
//! wall-clock time.
//!
//! Run with `cargo run --release --example portfolio -- [--count N] [--timeout-ms MS] [--stats]`.
//!
//! `--stats` prints the process-wide cumulative CDCL(T) engine counters
//! (conflicts, decisions, propagations, restarts, learned clauses, GC) at
//! the end — every engine across both drivers flushes into them — plus
//! per-lane solve time from the batch's lane reports, and what `posr-obs`
//! recorded: the phase self-time table (summed by span name over both
//! drivers), the automaton-cache hit ratio, and the robustness counters
//! (absorbed lane crashes, cache poison recoveries, injected faults,
//! big-rational slow-lane trips).  `POSR_TRACE` / `POSR_TRACE_FOLDED`
//! additionally export the run as a Chrome trace / folded-stack profile.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use posr_bench::{suite, suite_names};
use posr_core::solver::{answer_status, SolverOptions, StringSolver};
use posr_portfolio::{solve_batch, BatchItem, BatchOptions, PortfolioSolver};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let count = get("--count", 25) as usize;
    let timeout = Duration::from_millis(get("--timeout-ms", 5000));
    let show_stats = args.iter().any(|a| a == "--stats");

    posr_obs::init_from_env();
    if show_stats {
        // the lane and phase tables are built from recorded spans
        posr_obs::set_enabled(true);
    }
    posr_obs::set_thread_track("portfolio-example");

    // the four benchmark families of the paper's evaluation, `count` each
    let mut items = Vec::new();
    for family in suite_names() {
        for instance in suite(family, count, 2025) {
            items.push(BatchItem::new(instance.name, instance.formula));
        }
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "batch: {} problems, per-problem timeout {timeout:?}, {cores} core(s)",
        items.len()
    );

    // sequential reference: the paper's pipeline, one problem at a time
    let sequential_start = Instant::now();
    let mut sequential_status = Vec::with_capacity(items.len());
    for item in &items {
        let options = SolverOptions {
            deadline: Some(Instant::now() + timeout),
            ..SolverOptions::default()
        };
        let answer = StringSolver::with_options(options).solve(&item.formula);
        sequential_status.push(answer_status(&answer));
    }
    let sequential_time = sequential_start.elapsed();

    // concurrent portfolio batch
    let portfolio = PortfolioSolver::new();
    let options = BatchOptions {
        workers: 0,
        timeout: Some(timeout),
    };
    let report = solve_batch(&items, &portfolio, &options);

    // verdict comparison: a definite answer may never contradict the other
    // engine; unknowns may flip either way (different resource limits)
    let mut agreements = 0usize;
    let mut contradictions = Vec::new();
    let mut portfolio_decided_more = 0usize;
    for (outcome, seq) in report.outcomes.iter().zip(&sequential_status) {
        let par = outcome.status();
        match (par, *seq) {
            ("sat", "unsat") | ("unsat", "sat") => contradictions.push(outcome.name.clone()),
            (p, s) if p == s => agreements += 1,
            ("sat" | "unsat", "unknown") => portfolio_decided_more += 1,
            _ => {}
        }
    }

    println!("\n== verdicts ==");
    println!("  agree: {agreements}/{}", report.outcomes.len());
    println!("  portfolio decided where sequential gave up: {portfolio_decided_more}");
    if contradictions.is_empty() {
        println!("  contradictions: none");
    } else {
        println!("  CONTRADICTIONS (soundness bug!): {contradictions:?}");
        std::process::exit(1);
    }

    println!("\n== timing ==");
    println!("  sequential loop : {sequential_time:?}");
    println!("  portfolio batch : {:?} wall", report.stats.wall_time);
    println!(
        "  batch speedup   : {:.2}x over its own summed race time, {:.2}x over the sequential loop",
        report.stats.speedup(),
        sequential_time.as_secs_f64() / report.stats.wall_time.as_secs_f64()
    );

    println!("\n== portfolio ==");
    println!(
        "  verdicts: {} sat / {} unsat / {} unknown",
        report.stats.sat, report.stats.unsat, report.stats.unknown
    );
    for (strategy, wins) in &report.stats.wins {
        println!("  wins[{strategy}] = {wins}");
    }
    println!(
        "  automaton cache: {} hits / {} misses ({:.0}% reuse)",
        report.stats.cache_hits,
        report.stats.cache_misses,
        100.0 * report.stats.cache_hits as f64
            / (report.stats.cache_hits + report.stats.cache_misses).max(1) as f64
    );
    println!(
        "  crashed lanes: {} absorbed, {} items retried",
        report.stats.crashed, report.stats.retried
    );

    if show_stats {
        let s = posr_lia::global_stats();
        println!("\n== cdcl engine (cumulative, all lanes) ==");
        println!("  conflicts    : {}", s.conflicts);
        println!("  decisions    : {}", s.decisions);
        println!("  propagations : {}", s.propagations);
        println!("  restarts     : {}", s.restarts);
        println!(
            "  learned      : {} total, {} dropped by GC",
            s.learned_total, s.gc_dropped
        );
        println!(
            "  theory checks: {} bound / {} gcd / {} simplex / {} final",
            s.bound_checks, s.gcd_checks, s.simplex_checks, s.final_checks
        );
        println!(
            "  theory props : {} literals enqueued, {} simplex pivots",
            s.theory_props, s.simplex_pivots
        );

        // per-lane busy time, from each item's lane reports (a lane that
        // runs on its worker's thread records on no track of its own)
        let mut lane_busy: BTreeMap<&str, (usize, Duration)> = BTreeMap::new();
        for lane in report.outcomes.iter().flat_map(|o| &o.result.reports) {
            let entry = lane_busy.entry(lane.name).or_default();
            entry.0 += 1;
            entry.1 += lane.elapsed;
        }
        println!("\n== lanes ==");
        for (lane, (solves, busy)) in &lane_busy {
            println!(
                "  {lane:<20} {solves:>5} solves, {:>10.2} ms busy",
                busy.as_secs_f64() * 1e3
            );
        }
        println!("\n== robustness (posr-obs) ==");
        for name in [
            "portfolio.lane_crashes",
            "cache.poison_recovered",
            "fault.injected",
            "lia.rat.slow_lane",
        ] {
            println!("  {name:<24} : {}", posr_obs::counter(name).value());
        }

        let cache = posr_automata::cache::stats();
        match cache.hit_ratio() {
            Some(ratio) => println!(
                "  automaton cache (process-wide): {:.0}% of {} lookups hit",
                ratio * 100.0,
                cache.lookups()
            ),
            None => println!("  automaton cache (process-wide): no lookups"),
        }

        // flight-recorder percentiles: the batch's own item-wall
        // distribution (scoped to this batch) plus every process-wide
        // latency histogram the stack recorded (lane walls, CEGAR rounds,
        // simplex pivot counts, clause LBDs)
        println!("\n== latency percentiles (posr-obs) ==");
        if let Some(hist) = &report.stats.item_wall_us {
            println!(
                "  batch item wall      : p50 {:>8.2} ms, p90 {:>8.2} ms, p99 {:>8.2} ms, max {:>8.2} ms ({} items)",
                hist.p50() as f64 / 1e3,
                hist.p90() as f64 / 1e3,
                hist.p99() as f64 / 1e3,
                hist.max as f64 / 1e3,
                hist.count,
            );
        }
        for hist in posr_obs::histograms_snapshot() {
            println!(
                "  {:<20} : p50 {:>8} p90 {:>8} p99 {:>8} max {:>8} ({} samples)",
                hist.name,
                hist.p50(),
                hist.p90(),
                hist.p99(),
                hist.max,
                hist.count,
            );
        }

        // one row per span name: the same phase under the sequential loop
        // and under a batch worker sums into one total
        let tracks = posr_obs::snapshot_tracks();
        let mut phases: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for phase in posr_obs::phase_totals(&tracks) {
            let row = phases.entry(phase.name).or_default();
            row.0 += phase.count;
            row.1 += phase.total_us;
            row.2 += phase.self_us;
        }
        let mut phases: Vec<_> = phases.into_iter().collect();
        phases.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(&b.0)));
        println!("\n== phase self-time (posr-obs) ==");
        println!(
            "  {:<40} {:>8} {:>12} {:>12}",
            "phase", "count", "total ms", "self ms"
        );
        for (name, (count, total_us, self_us)) in phases.iter().take(15) {
            println!(
                "  {name:<40} {count:>8} {:>12.2} {:>12.2}",
                *total_us as f64 / 1e3,
                *self_us as f64 / 1e3,
            );
        }
        let dropped: u64 = tracks.iter().map(|t| t.dropped).sum();
        if dropped > 0 {
            println!(
                "  warning: {dropped} events dropped by the ring cap; early phases under-counted"
            );
        }
    }

    match posr_obs::flush_env_trace() {
        Ok(Some(path)) => println!("\nchrome trace written to {path}"),
        Ok(None) => {}
        Err(e) => eprintln!("could not write trace: {e}"),
    }
}
