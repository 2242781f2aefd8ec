//! Criterion benchmark: end-to-end solver throughput on small samples of the
//! four benchmark families (the micro view of Table 1 / Fig. 7).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use posr_bench::{run_suite, suite, suite_names, SolverKind};

fn bench_suites(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_suites");
    group.sample_size(10);
    for name in suite_names() {
        let instances = suite(name, 3, 7);
        for solver in [SolverKind::CdclPos, SolverKind::Enumeration] {
            group.bench_with_input(
                BenchmarkId::new(solver.name(), name),
                &instances,
                |b, instances| {
                    b.iter(|| run_suite(instances, &[solver], Duration::from_secs(5)).len())
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_suites);
criterion_main!(benches);
