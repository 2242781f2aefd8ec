//! Rendering of the evaluation artefacts: Table-1-style rows, the scatter
//! series of Fig. 6 and the cactus series of Fig. 7.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::runner::{InstanceResult, Status};

/// Aggregated Table-1 row for one (suite, solver) pair.
#[derive(Clone, Debug, Default)]
pub struct TableRow {
    /// Number of timeouts / resource-outs.
    pub oor: usize,
    /// Number of non-timeout unknowns.
    pub unknown: usize,
    /// Number of solved instances (sat + unsat).
    pub solved: usize,
    /// Total time on solved instances.
    pub time: Duration,
    /// Total time counting unsolved instances at the timeout.
    pub time_all: Duration,
}

/// Aggregates raw results into Table-1 rows keyed by `(suite, solver)`.
pub fn table1(
    results: &[InstanceResult],
    timeout: Duration,
) -> BTreeMap<(String, String), TableRow> {
    let mut rows: BTreeMap<(String, String), TableRow> = BTreeMap::new();
    for r in results {
        let row = rows
            .entry((r.suite.clone(), r.solver.to_string()))
            .or_default();
        match r.status {
            Status::Sat | Status::Unsat => {
                row.solved += 1;
                row.time += r.time;
                row.time_all += r.time;
            }
            Status::Unknown => {
                row.unknown += 1;
                row.time_all += timeout;
            }
            Status::Timeout => {
                row.oor += 1;
                row.time_all += timeout;
            }
        }
    }
    rows
}

/// Renders the Table-1 rows as an aligned text table (one block per suite).
pub fn render_table1(
    rows: &BTreeMap<(String, String), TableRow>,
    suites: &[&str],
    solvers: &[&str],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16}{:<20}{:>7}{:>7}{:>9}{:>12}{:>12}\n",
        "suite", "solver", "OOR", "Unk", "solved", "Time[s]", "TimeAll[s]"
    ));
    for suite in suites {
        for solver in solvers {
            let key = (suite.to_string(), solver.to_string());
            let row = rows.get(&key).cloned().unwrap_or_default();
            out.push_str(&format!(
                "{:<16}{:<20}{:>7}{:>7}{:>9}{:>12.2}{:>12.2}\n",
                suite,
                solver,
                row.oor,
                row.unknown,
                row.solved,
                row.time.as_secs_f64(),
                row.time_all.as_secs_f64()
            ));
        }
        out.push('\n');
    }
    out
}

/// The per-instance time pairs behind one scatter plot of Fig. 6 (our solver
/// on the x-axis, a competitor on the y-axis), rendered as CSV.
pub fn fig6_csv(results: &[InstanceResult], ours: &str, other: &str, timeout: Duration) -> String {
    let mut ours_times: BTreeMap<&str, (f64, Status)> = BTreeMap::new();
    let mut other_times: BTreeMap<&str, (f64, Status)> = BTreeMap::new();
    for r in results {
        let time = match r.status {
            Status::Sat | Status::Unsat => r.time.as_secs_f64(),
            _ => timeout.as_secs_f64(),
        };
        if r.solver == ours {
            ours_times.insert(r.instance.as_str(), (time, r.status));
        } else if r.solver == other {
            other_times.insert(r.instance.as_str(), (time, r.status));
        }
    }
    let mut csv =
        String::from("suite,instance,ours_seconds,other_seconds,ours_status,other_status\n");
    for r in results {
        if r.solver != ours {
            continue;
        }
        if let (Some((to, so)), Some((tt, st))) = (
            ours_times.get(r.instance.as_str()),
            other_times.get(r.instance.as_str()),
        ) {
            csv.push_str(&format!(
                "{},{},{:.4},{:.4},{:?},{:?}\n",
                r.suite, r.instance, to, tt, so, st
            ));
        }
    }
    csv
}

/// Summary of a Fig. 6 scatter: on how many instances each solver wins.
pub fn fig6_summary(
    results: &[InstanceResult],
    ours: &str,
    other: &str,
    timeout: Duration,
) -> String {
    let csv = fig6_csv(results, ours, other, timeout);
    let mut ours_wins = 0usize;
    let mut other_wins = 0usize;
    let mut ties = 0usize;
    for line in csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let to: f64 = fields[2].parse().unwrap_or(0.0);
        let tt: f64 = fields[3].parse().unwrap_or(0.0);
        if (to - tt).abs() < 1e-3 {
            ties += 1;
        } else if to < tt {
            ours_wins += 1;
        } else {
            other_wins += 1;
        }
    }
    format!(
        "{ours} vs {other}: {ours_wins} won by {ours}, {other_wins} won by {other}, {ties} ties"
    )
}

/// The cactus-plot series of Fig. 7: for every solver the sorted times of its
/// solved instances, as cumulative CSV rows `solver,rank,seconds`.
pub fn fig7_csv(results: &[InstanceResult]) -> String {
    let mut by_solver: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in results {
        if matches!(r.status, Status::Sat | Status::Unsat) {
            by_solver
                .entry(r.solver)
                .or_default()
                .push(r.time.as_secs_f64());
        }
    }
    let mut csv = String::from("solver,solved_rank,seconds\n");
    for (solver, mut times) in by_solver {
        times.sort_by(f64::total_cmp);
        for (rank, t) in times.iter().enumerate() {
            csv.push_str(&format!("{},{},{:.4}\n", solver, rank + 1, t));
        }
    }
    csv
}

/// Counts solved instances per solver (the headline of the cactus plot).
pub fn solved_counts(results: &[InstanceResult]) -> BTreeMap<&str, usize> {
    let mut out = BTreeMap::new();
    for r in results {
        if matches!(r.status, Status::Sat | Status::Unsat) {
            *out.entry(r.solver).or_insert(0) += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_results() -> Vec<InstanceResult> {
        vec![
            InstanceResult {
                suite: "s".into(),
                instance: "i0".into(),
                solver: "cdcl-pos",
                status: Status::Sat,
                time: Duration::from_millis(10),
            },
            InstanceResult {
                suite: "s".into(),
                instance: "i0".into(),
                solver: "enumeration",
                status: Status::Timeout,
                time: Duration::from_secs(2),
            },
            InstanceResult {
                suite: "s".into(),
                instance: "i1".into(),
                solver: "cdcl-pos",
                status: Status::Unsat,
                time: Duration::from_millis(20),
            },
            InstanceResult {
                suite: "s".into(),
                instance: "i1".into(),
                solver: "enumeration",
                status: Status::Unknown,
                time: Duration::from_millis(5),
            },
        ]
    }

    #[test]
    fn table_aggregation() {
        let rows = table1(&sample_results(), Duration::from_secs(2));
        let ours = &rows[&("s".to_string(), "cdcl-pos".to_string())];
        assert_eq!(ours.solved, 2);
        assert_eq!(ours.oor, 0);
        let enumeration = &rows[&("s".to_string(), "enumeration".to_string())];
        assert_eq!(enumeration.oor, 1);
        assert_eq!(enumeration.unknown, 1);
        let rendered = render_table1(&rows, &["s"], &["cdcl-pos", "enumeration"]);
        assert!(rendered.contains("cdcl-pos"));
        assert!(rendered.contains("enumeration"));
    }

    #[test]
    fn scatter_and_cactus_csv() {
        let results = sample_results();
        let csv = fig6_csv(&results, "cdcl-pos", "enumeration", Duration::from_secs(2));
        assert_eq!(csv.lines().count(), 3);
        let summary = fig6_summary(&results, "cdcl-pos", "enumeration", Duration::from_secs(2));
        assert!(summary.contains("won by cdcl-pos"));
        let cactus = fig7_csv(&results);
        assert!(cactus.contains("cdcl-pos,1,"));
        let counts = solved_counts(&results);
        assert_eq!(counts["cdcl-pos"], 2);
        assert_eq!(counts.get("enumeration"), None);
    }
}
