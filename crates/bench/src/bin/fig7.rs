//! Regenerates the data behind Fig. 7: the cactus plot of sorted runtimes of
//! all solvers over all families.  CSV is written to `bench-results/`.
//! Usage: `fig7 [--count N]`; a bad argument exits 2.

use std::time::Duration;

use posr_bench::report::{fig7_csv, solved_counts};
use posr_bench::{run_suite, suite, BinArgs, SolverKind};

fn main() {
    let BinArgs {
        count,
        timeout,
        suites,
    } = BinArgs::defaults(20, Duration::from_millis(3000)).from_env_or_exit("fig7", false);
    let solvers = SolverKind::all();
    let mut results = Vec::new();
    for name in suites {
        results.extend(run_suite(&suite(name, count, 2025), &solvers, timeout));
    }
    std::fs::create_dir_all("bench-results").expect("create bench-results directory");
    let csv = fig7_csv(&results);
    std::fs::write("bench-results/fig7_cactus.csv", csv).expect("write CSV");
    println!("solved instances per solver (cactus headline):");
    for (solver, solved) in solved_counts(&results) {
        println!("  {solver:<14} {solved}");
    }
    println!("  -> bench-results/fig7_cactus.csv");
}
