//! Renders flight-recorder artefacts into terminal tables: black-box dumps
//! (`posr-blackbox/v1`, written by the stall watchdog), per-solve JSONL logs
//! (`POSR_SOLVE_LOG`), and diffs of two `BENCH_lia.json` documents.  The
//! `obs-report` binary is a thin CLI over these functions; they live in the
//! library so the integration tests can drive the exact rendering code.

use std::fmt::Write as _;

use crate::json::{parse, Json};

/// Pads `s` to `width` columns (left-aligned).
fn pad(s: &str, width: usize) -> String {
    format!("{s:<width$}")
}

/// `1234567` µs → `"1.23s"`, `4321` µs → `"4.3ms"`.
fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.1}ms", us / 1e3)
    } else {
        format!("{us:.0}µs")
    }
}

/// Renders a `posr-blackbox/v1` dump: header, progress gauges, phase
/// table, histogram percentiles, non-zero counters, and the trace tail's
/// shape (events per track, drops).
///
/// # Errors
/// Returns a message when `text` is not JSON or not a blackbox dump.
pub fn render_blackbox(text: &str) -> Result<String, String> {
    let doc = parse(text)?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "posr-blackbox/v1" {
        return Err(format!(
            "not a black-box dump (schema {schema:?}, expected \"posr-blackbox/v1\")"
        ));
    }
    let mut out = String::new();
    let label = doc.get("label").and_then(Json::as_str).unwrap_or("?");
    let reason = doc.get("reason").and_then(Json::as_str).unwrap_or("?");
    let soft_ms = doc
        .get("soft_deadline_ms")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let _ = writeln!(out, "black-box dump: {label}");
    let _ = writeln!(out, "  fired: {reason} (soft deadline {soft_ms} ms)");
    let _ = writeln!(out);

    let progress = doc.get("progress").map(Json::entries).unwrap_or_default();
    if !progress.is_empty() {
        let _ = writeln!(out, "progress at dump time:");
        for (name, v) in progress {
            let _ = writeln!(out, "  {} {}", pad(name, 24), v.as_u64().unwrap_or(0));
        }
        let _ = writeln!(out);
    }

    let phases = doc.get("phases").map(Json::items).unwrap_or_default();
    if !phases.is_empty() {
        let _ = writeln!(
            out,
            "{} {:>7} {:>12} {:>12}",
            pad("phase", 40),
            "count",
            "total",
            "self"
        );
        for p in phases {
            let _ = writeln!(
                out,
                "{} {:>7} {:>12} {:>12}",
                pad(p.get("path").and_then(Json::as_str).unwrap_or("?"), 40),
                p.get("count").and_then(Json::as_u64).unwrap_or(0),
                fmt_us(p.get("total_us").and_then(Json::as_f64).unwrap_or(0.0)),
                fmt_us(p.get("self_us").and_then(Json::as_f64).unwrap_or(0.0)),
            );
        }
        let _ = writeln!(out);
    }

    let hists = doc.get("histograms").map(Json::items).unwrap_or_default();
    if !hists.is_empty() {
        let _ = writeln!(
            out,
            "{} {:>9} {:>9} {:>9} {:>9} {:>9}",
            pad("histogram", 28),
            "count",
            "p50",
            "p90",
            "p99",
            "max"
        );
        for h in hists {
            let _ = writeln!(
                out,
                "{} {:>9} {:>9} {:>9} {:>9} {:>9}",
                pad(h.get("name").and_then(Json::as_str).unwrap_or("?"), 28),
                h.get("count").and_then(Json::as_u64).unwrap_or(0),
                h.get("p50").and_then(Json::as_u64).unwrap_or(0),
                h.get("p90").and_then(Json::as_u64).unwrap_or(0),
                h.get("p99").and_then(Json::as_u64).unwrap_or(0),
                h.get("max").and_then(Json::as_u64).unwrap_or(0),
            );
        }
        let _ = writeln!(out);
    }

    let counters: Vec<_> = doc
        .get("counters")
        .map(Json::entries)
        .unwrap_or_default()
        .into_iter()
        .filter(|(_, v)| v.as_u64().unwrap_or(0) > 0)
        .collect();
    if !counters.is_empty() {
        let _ = writeln!(out, "counters (non-zero):");
        for (name, v) in counters {
            let _ = writeln!(out, "  {} {}", pad(name, 32), v.as_u64().unwrap_or(0));
        }
        let _ = writeln!(out);
    }

    let tracks = doc.get("trace_tail").map(Json::items).unwrap_or_default();
    if !tracks.is_empty() {
        let _ = writeln!(out, "trace tail:");
        for t in tracks {
            let events = t.get("events").map(Json::items).unwrap_or_default();
            let dropped = t.get("dropped").and_then(Json::as_u64).unwrap_or(0);
            let last = events
                .last()
                .and_then(|e| e.get("name"))
                .and_then(Json::as_str)
                .unwrap_or("-");
            let _ = writeln!(
                out,
                "  {} {:>5} events{}  last: {}",
                pad(t.get("track").and_then(Json::as_str).unwrap_or("?"), 24),
                events.len(),
                if dropped > 0 {
                    format!(" ({dropped} dropped)")
                } else {
                    String::new()
                },
                last,
            );
        }
    }
    Ok(out)
}

/// Renders a `POSR_SOLVE_LOG` JSONL stream: one line per event with its
/// timestamp (relative to the first event) and flattened fields.
///
/// # Errors
/// Returns a message naming the first malformed line, if any.
pub fn render_solve_log(text: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut first_ts: Option<f64> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ts = doc.get("ts_us").and_then(Json::as_f64).unwrap_or(0.0);
        let base = *first_ts.get_or_insert(ts);
        let event = doc.get("event").and_then(Json::as_str).unwrap_or("?");
        let mut fields = String::new();
        for (key, value) in doc.entries() {
            if key == "ts_us" || key == "event" {
                continue;
            }
            let rendered = match value {
                Json::Str(s) => s.clone(),
                Json::Num(n) => {
                    if n.fract() == 0.0 {
                        format!("{}", *n as i64)
                    } else {
                        format!("{n:.3}")
                    }
                }
                other => format!("{other:?}"),
            };
            let _ = write!(fields, " {key}={rendered}");
        }
        let _ = writeln!(
            out,
            "{:>10} {}{}",
            fmt_us(ts - base),
            pad(event, 18),
            fields
        );
    }
    if out.is_empty() {
        return Err("empty solve log".to_string());
    }
    Ok(out)
}

/// Diffs two `BENCH_lia.json` documents family-by-family: the wall time,
/// conflicts, and theory checks of each family's `full` record, with the
/// relative change.  Families present in only one document are listed as
/// added/removed.  Every schema version so far (v3–v6) keeps the `full`
/// record with these three fields, so any two snapshots compare.
///
/// # Errors
/// Returns a message when either document is not a BENCH_lia report.
pub fn diff_bench(old_text: &str, new_text: &str) -> Result<String, String> {
    let old = parse(old_text).map_err(|e| format!("old: {e}"))?;
    let new = parse(new_text).map_err(|e| format!("new: {e}"))?;
    for (side, doc) in [("old", &old), ("new", &new)] {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if !schema.starts_with("posr-bench-lia/") {
            return Err(format!(
                "{side}: not a BENCH_lia report (schema {schema:?})"
            ));
        }
    }
    let families = |doc: &Json| -> Vec<(String, f64, u64, u64)> {
        doc.get("families")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .map(|f| {
                let full = f.get("full");
                let get_u64 = |key| {
                    full.and_then(|j| j.get(key))
                        .and_then(Json::as_u64)
                        .unwrap_or(0)
                };
                (
                    f.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    full.and_then(|j| j.get("wall_ms"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                    get_u64("conflicts"),
                    get_u64("theory_checks"),
                )
            })
            .collect()
    };
    let old_rows = families(&old);
    let new_rows = families(&new);
    // the family column fits the longest name of either document
    let width = old_rows
        .iter()
        .chain(&new_rows)
        .map(|(name, ..)| name.chars().count())
        .fold("family".len(), usize::max);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} {:>24} {:>18} {:>22}",
        pad("family", width),
        "wall ms (old→new)",
        "conflicts",
        "theory checks"
    );
    for (name, new_wall, new_conf, new_checks) in &new_rows {
        match old_rows.iter().find(|(n, _, _, _)| n == name) {
            Some((_, old_wall, old_conf, old_checks)) => {
                let pct = if *old_wall > 0.0 {
                    format!("{:+.0}%", (new_wall - old_wall) / old_wall * 100.0)
                } else {
                    "-".to_string()
                };
                let _ = writeln!(
                    out,
                    "{} {:>9.2}→{:<8.2}{:>6} {:>8}→{:<9} {:>10}→{:<11}",
                    pad(name, width),
                    old_wall,
                    new_wall,
                    pct,
                    old_conf,
                    new_conf,
                    old_checks,
                    new_checks,
                );
            }
            None => {
                let _ = writeln!(out, "{} (added: {new_wall:.2} ms)", pad(name, width));
            }
        }
    }
    for (name, ..) in &old_rows {
        if !new_rows.iter().any(|(n, ..)| n == name) {
            let _ = writeln!(out, "{} (removed)", pad(name, width));
        }
    }
    for (side, doc) in [("old", &old), ("new", &new)] {
        if let Some(overhead) = doc.get("tracing_overhead") {
            let _ = writeln!(
                out,
                "tracing overhead ({side}): ratio {:.3} ({})",
                overhead.get("ratio").and_then(Json::as_f64).unwrap_or(0.0),
                if matches!(overhead.get("ok"), Some(Json::Bool(true))) {
                    "ok"
                } else {
                    "EXCEEDED"
                },
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_real_dump() {
        let dump = posr_obs::blackbox_json("unit-test-solve", "stall", 1234);
        let rendered = render_blackbox(&dump).unwrap();
        assert!(rendered.contains("unit-test-solve"));
        assert!(rendered.contains("soft deadline 1234 ms"));
    }

    #[test]
    fn rejects_non_dumps() {
        assert!(render_blackbox("{\"schema\":\"other\"}").is_err());
        assert!(render_blackbox("not json").is_err());
    }

    #[test]
    fn renders_a_solve_log() {
        let log = concat!(
            "{\"ts_us\":100,\"event\":\"solve.start\"}\n",
            "{\"ts_us\":2100,\"event\":\"phase.case\",\"case\":3}\n",
            "{\"ts_us\":5100,\"event\":\"solve.verdict\",\"verdict\":\"sat\"}\n",
        );
        let rendered = render_solve_log(log).unwrap();
        assert!(rendered.contains("solve.start"));
        assert!(rendered.contains("case=3"));
        assert!(rendered.contains("verdict=sat"));
        assert!(render_solve_log("").is_err());
    }

    #[test]
    fn diffs_bench_documents() {
        let old = r#"{"schema":"posr-bench-lia/v3","families":[
            {"name":"f1","full":{"wall_ms":10.0,"conflicts":5,"theory_checks":20}},
            {"name":"gone","full":{"wall_ms":1.0,"conflicts":1,"theory_checks":1}}]}"#;
        let new = r#"{"schema":"posr-bench-lia/v5","families":[
            {"name":"f1","full":{"wall_ms":5.0,"conflicts":4,"theory_checks":10}},
            {"name":"fresh","full":{"wall_ms":2.0,"conflicts":0,"theory_checks":3}}]}"#;
        let diff = diff_bench(old, new).unwrap();
        assert!(diff.contains("f1"));
        assert!(diff.contains("-50%"));
        assert!(diff.contains("(added: 2.00 ms)"));
        assert!(diff.contains("(removed)"));
        assert!(diff_bench("{}", new).is_err());
    }

    #[test]
    fn diff_columns_fit_the_longest_family() {
        let doc = |schema: &str| {
            format!(
                r#"{{"schema":"posr-bench-lia/{schema}","families":[
                {{"name":"k2","full":{{"wall_ms":10.0,"conflicts":5,"theory_checks":20}}}},
                {{"name":"tagauto-diseq-eqlen-mismatch-sat","full":{{"wall_ms":12.5,"conflicts":6,"theory_checks":21}}}},
                {{"name":"product-cycle-320-unsat","full":{{"wall_ms":99.0,"conflicts":7,"theory_checks":22}}}},
                {{"name":"product-cycle-480-sat","full":{{"wall_ms":1098.44,"conflicts":8,"theory_checks":23}}}}]}}"#
            )
        };
        let diff = diff_bench(&doc("v5"), &doc("v6")).unwrap();
        let rows: Vec<&str> = diff
            .lines()
            .skip(1)
            .filter(|line| line.contains('→'))
            .collect();
        assert_eq!(rows.len(), 4, "{diff}");
        // each family row: the name, its padding, then the old wall time
        // (two digits before the point in the first three rows)
        let starts: Vec<usize> = rows[..3]
            .iter()
            .map(|line| {
                let name_end = line.find(' ').unwrap();
                name_end + line[name_end..].find(|c: char| c != ' ').unwrap()
            })
            .collect();
        assert!(starts.iter().all(|&s| s == starts[0]), "{diff}");
        assert!(
            starts[0] > "tagauto-diseq-eqlen-mismatch-sat".len(),
            "{diff}"
        );
        // the old→new arrow of every column lines up in every row, the
        // four-digit wall time included
        let arrows = |line: &str| -> Vec<usize> {
            line.chars()
                .enumerate()
                .filter(|&(_, c)| c == '→')
                .map(|(i, _)| i)
                .collect()
        };
        assert!(
            rows.iter().all(|row| arrows(row) == arrows(rows[0])),
            "{diff}"
        );
    }
}
