//! Regenerates the data behind Fig. 6: per-instance scatter comparisons of
//! the production solver against each baseline.  CSV files are written to
//! `bench-results/`.

use std::time::Duration;

use posr_bench::report::{fig6_csv, fig6_summary};
use posr_bench::{run_suite, suite, suite_names, SolverKind};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let count: usize = args
        .iter()
        .position(|a| a == "--count")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let timeout = Duration::from_millis(3000);
    let solvers = SolverKind::all();
    let mut results = Vec::new();
    for name in suite_names() {
        results.extend(run_suite(&suite(name, count, 2025), &solvers, timeout));
    }
    std::fs::create_dir_all("bench-results").expect("create bench-results directory");
    for other in ["enumeration", "naive-order", "length-abstraction"] {
        let csv = fig6_csv(&results, "cdcl-pos", other, timeout);
        let path = format!("bench-results/fig6_posr_vs_{other}.csv");
        std::fs::write(&path, csv).expect("write CSV");
        println!("{}", fig6_summary(&results, "cdcl-pos", other, timeout));
        println!("  -> {path}");
    }
}
