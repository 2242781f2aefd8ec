//! Regenerates the shape of Table 1: per-family OOR / Unk / Time / TimeAll
//! for the production solver and the three baselines.
//!
//! Usage: `table1 [--count N] [--timeout-ms MS] [--suite NAME]`; a bad
//! argument exits 2 with a usage line that names the suites.

use std::time::Duration;

use posr_bench::report::{render_table1, table1};
use posr_bench::{run_suite, suite, BinArgs, SolverKind};

fn main() {
    let BinArgs {
        count,
        timeout,
        suites,
    } = BinArgs::defaults(30, Duration::from_millis(3000)).from_env_or_exit("table1", true);
    let solvers = SolverKind::all();
    let mut all_results = Vec::new();
    for name in &suites {
        let instances = suite(name, count, 2025);
        eprintln!(
            "running {} instances of {name} with {} solvers ...",
            instances.len(),
            solvers.len()
        );
        all_results.extend(run_suite(&instances, &solvers, timeout));
    }
    let rows = table1(&all_results, timeout);
    let solver_names: Vec<&str> = solvers.iter().map(|s| s.name()).collect();
    println!("Table 1 (reproduction shape): per-family results, timeout {timeout:?}, {count} instances per family\n");
    println!("{}", render_table1(&rows, &suites, &solver_names));
}
