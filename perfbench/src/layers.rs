//! The traced run: the timed loop's queries replayed with span recording
//! on, folded into per-layer metrics through the program's public
//! observability APIs only — `posr_obs::phase_totals` over the drained
//! spans, `posr_lia::global_stats`, `posr_automata::cache::stats` and the
//! race's lane reports.

use std::collections::BTreeMap;
use std::time::Duration;

use posr_portfolio::StrategyOutcome;

use crate::workloads::{Query, Workload};
use crate::{Engine, Metric, Outcome};

/// The lanes of the default portfolio, in racing order.
const LANES: [&str; 5] = [
    "cdcl-pos",
    "tag-pos",
    "enumeration",
    "naive-order",
    "length-abstraction",
];

/// The layers whose self time is reported, keyed by metric prefix.
const LAYERS: [&str; 7] = [
    "normalize",
    "decompose",
    "automata",
    "encode",
    "cegar",
    "cdcl",
    "simplex",
];

/// The layer a span belongs to, by its name.
fn layer(span: &str) -> Option<&'static str> {
    Some(match span {
        "normalize" => "normalize",
        "decompose" => "decompose",
        "encode" => "encode",
        "cegar.round" => "cegar",
        "cdcl.solve" => "cdcl",
        "simplex.check" | "simplex.pivot-session" => "simplex",
        s if s.starts_with("automata.") => "automata",
        _ => return None,
    })
}

/// Spans that only group others (the benchmark's own `query` span, a
/// solve, a monadic case, a lane): their self time is not attributed to
/// any named layer.
fn is_container(span: &str) -> bool {
    matches!(span, "query" | "solve" | "lane.solve")
        || span.starts_with("case:")
        || span.starts_with("slice:")
}

pub(crate) struct Traced {
    pub(crate) outcomes: Vec<Outcome>,
    pub(crate) metrics: Vec<Metric>,
}

/// Replays `queries` with span recording on, draining the rings after
/// every query so none drop.  `untraced_busy` is the summed latency of the
/// same queries in the untraced loop.
pub(crate) fn traced_replay(
    engine: &Engine,
    workload: Workload,
    queries: &[Query],
    untraced_busy: Duration,
) -> Traced {
    let portfolio = matches!(engine, Engine::Portfolio(_));
    posr_obs::set_enabled(true);
    let _ = posr_obs::drain_tracks();
    let lia_before = posr_lia::global_stats();
    let cache_before = posr_automata::cache::stats();

    let mut self_us: BTreeMap<&str, u64> = BTreeMap::new();
    let mut cases = 0;
    let mut cegar_rounds = 0;
    let mut encoded = 0;
    let mut attributed_us = 0;
    let mut root_us = 0;
    let mut dropped: BTreeMap<u64, u64> = BTreeMap::new();
    let mut outcomes = Vec::with_capacity(queries.len());
    for query in queries {
        let stats_before = posr_lia::global_stats();
        let outcome = {
            let _span = posr_obs::span("perfbench", "query");
            engine.solve(query, workload.deadline())
        };
        let stats = posr_lia::global_stats().since(&stats_before);
        let tracks = posr_obs::drain_tracks();
        for track in &tracks {
            let worst = dropped.entry(track.tid).or_default();
            *worst = (*worst).max(track.dropped);
        }
        let mut reached_encoding = false;
        for phase in posr_obs::phase_totals(&tracks) {
            let name = phase.name.as_str();
            if let Some(layer) = layer(name) {
                *self_us.entry(layer).or_default() += phase.self_us;
            }
            if !is_container(name) {
                attributed_us += phase.self_us;
            }
            // the lanes run concurrently, so a race is measured against
            // their summed busy time rather than its wall
            if name == if portfolio { "lane.solve" } else { "query" } {
                root_us += phase.total_us;
            }
            if name.starts_with("case:") {
                cases += phase.count;
            }
            if name == "cegar.round" {
                cegar_rounds += phase.count;
            }
            reached_encoding |= name == "encode";
        }
        encoded += u64::from(reached_encoding);
        let lane = outcome
            .race
            .as_ref()
            .and_then(|race| race.winner)
            .map_or("null".to_string(), |w| format!("\"{w}\""));
        println!(
            "row {{\"name\": \"{}\", \"family\": \"{}\", \"verdict\": \"{}\", \"wall_ms\": {}, \
             \"lane\": {lane}, \"conflicts\": {}, \"pivots\": {}, \"encoded\": {reached_encoding}}}",
            query.name,
            query.family,
            posr_core::solver::answer_status(&outcome.answer),
            outcome.latency.as_secs_f64() * 1e3,
            stats.conflicts,
            stats.simplex_pivots,
        );
        outcomes.push(outcome);
    }
    posr_obs::set_enabled(false);

    let n = queries.len() as f64;
    let traced_busy: Duration = outcomes.iter().map(|o| o.latency).sum();
    let lia = posr_lia::global_stats().since(&lia_before);
    let cache = posr_automata::cache::stats().since(cache_before);
    let ms = |us: u64| us as f64 / 1e3;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut metrics = Vec::new();
    for layer in LAYERS {
        let us = self_us.get(layer).copied().unwrap_or(0);
        metrics.push(Metric::new(format!("{layer}.self_ms"), ms(us), "ms"));
    }
    metrics.extend([
        Metric::new("decompose.cases_per_query", cases as f64 / n, "count"),
        Metric::new("automata.cache_hits", cache.hits as f64, "count"),
        Metric::new("automata.cache_misses", cache.misses as f64, "count"),
        Metric::new(
            "automata.cache_hit_ratio",
            cache.hit_ratio().unwrap_or(0.0),
            "ratio",
        ),
        Metric::new("position.encoded_frac", encoded as f64 / n, "ratio"),
        Metric::new("cegar.rounds", cegar_rounds as f64, "count"),
        Metric::new(
            "cegar.rounds_per_encoded_query",
            ratio(cegar_rounds as f64, encoded as f64),
            "count",
        ),
        Metric::new("lia.conflicts", lia.conflicts as f64, "count"),
        Metric::new("lia.decisions", lia.decisions as f64, "count"),
        Metric::new("lia.propagations", lia.propagations as f64, "count"),
        Metric::new("lia.learned", lia.learned_total as f64, "count"),
        Metric::new("lia.restarts", lia.restarts as f64, "count"),
        Metric::new("lia.gc_dropped", lia.gc_dropped as f64, "count"),
        Metric::new("lia.theory_checks", lia.bound_checks as f64, "count"),
        Metric::new("lia.theory_props", lia.theory_props as f64, "count"),
        Metric::new("lia.tprop_entailed", lia.tprop_entailed as f64, "count"),
        Metric::new("simplex.checks", lia.simplex_checks as f64, "count"),
        Metric::new("simplex.pivots", lia.simplex_pivots as f64, "count"),
        Metric::new("simplex.row_touches", lia.row_touches as f64, "count"),
        Metric::new(
            "simplex.pivots_per_check",
            ratio(lia.simplex_pivots as f64, lia.simplex_checks as f64),
            "count",
        ),
    ]);
    metrics.extend(portfolio_metrics(&outcomes));
    let charged = outcomes.iter().map(|o| o.charged_bytes).max().unwrap_or(0);
    metrics.extend([
        Metric::new(
            "obs.trace_overhead_ratio",
            ratio(traced_busy.as_secs_f64(), untraced_busy.as_secs_f64()),
            "ratio",
        ),
        Metric::new(
            "obs.dropped_events",
            dropped.values().sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "trace.attributed_frac",
            ratio(attributed_us as f64, root_us as f64),
            "ratio",
        ),
        Metric::new(
            "budget.charged_mb",
            charged as f64 / (1 << 20) as f64,
            "MiB",
        ),
    ]);
    Traced { outcomes, metrics }
}

/// Per-lane wins, busy time and worst overshoot past the deadline, the
/// time races waited on losers after their winner answered, and crashed
/// lanes.  All zero when no race ran.
fn portfolio_metrics(outcomes: &[Outcome]) -> Vec<Metric> {
    let mut wins = [0u64; LANES.len()];
    let mut busy = [Duration::ZERO; LANES.len()];
    let mut late = [Duration::ZERO; LANES.len()];
    let mut join_wait = Duration::ZERO;
    let mut crashed = 0u64;
    for outcome in outcomes {
        let Some(race) = &outcome.race else {
            continue;
        };
        for report in &race.reports {
            let Some(lane) = LANES.iter().position(|&l| l == report.name) else {
                continue;
            };
            busy[lane] += report.elapsed;
            late[lane] = late[lane].max(report.elapsed.saturating_sub(outcome.deadline));
            match &report.outcome {
                StrategyOutcome::Won => {
                    wins[lane] += 1;
                    join_wait += outcome.latency.saturating_sub(report.elapsed);
                }
                StrategyOutcome::Crashed { .. } => crashed += 1,
                _ => {}
            }
        }
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut metrics = Vec::new();
    for (i, lane) in LANES.iter().enumerate() {
        metrics.push(Metric::new(
            format!("portfolio.wins.{lane}"),
            wins[i] as f64,
            "count",
        ));
        metrics.push(Metric::new(
            format!("portfolio.busy_ms.{lane}"),
            ms(busy[i]),
            "ms",
        ));
        metrics.push(Metric::new(
            format!("portfolio.late_max_ms.{lane}"),
            ms(late[i]),
            "ms",
        ));
    }
    metrics.push(Metric::new("portfolio.join_wait_ms", ms(join_wait), "ms"));
    metrics.push(Metric::new("portfolio.crashed", crashed as f64, "count"));
    metrics
}
