//! Criterion benchmark: construction time and size of the polynomial
//! copy-tag encoding as the number of disequalities grows, plus the naive
//! order-enumeration ablation (Sec. 5.3 size argument).

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use posr_lia::cancel::CancelToken;
use posr_lia::term::VarPool;
use posr_tagauto::cache::prepared_automata;
use posr_tagauto::system::{PositionConstraint, SystemEncoder};
use posr_tagauto::system_naive::encode_naive;
use posr_tagauto::tags::VarTable;

fn setup() -> (
    VarTable,
    BTreeMap<posr_tagauto::tags::StrVar, posr_automata::Nfa>,
    Vec<posr_tagauto::tags::StrVar>,
) {
    let mut vars = VarTable::new();
    let specs = [("x", "(ab)*"), ("y", "(ac)*"), ("z", "(ad)*")];
    let automata = prepared_automata(&specs, &mut vars).unwrap();
    let ids: Vec<_> = specs.iter().map(|(n, _)| vars.lookup(n).unwrap()).collect();
    (vars, automata, ids)
}

fn bench_encoding(c: &mut Criterion) {
    let (vars, automata, ids) = setup();
    let mut group = c.benchmark_group("encoding_size");
    group.sample_size(10);
    for k in 1..=2usize {
        let constraints: Vec<PositionConstraint> = (0..k)
            .map(|i| PositionConstraint::diseq(vec![ids[i % 3]], vec![ids[(i + 1) % 3]]))
            .collect();
        group.bench_with_input(BenchmarkId::new("polynomial", k), &constraints, |b, cs| {
            b.iter(|| {
                let mut pool = VarPool::new();
                SystemEncoder::new(&automata, &vars)
                    .encode(cs, &mut pool)
                    .formula
                    .size()
            })
        });
        group.bench_with_input(BenchmarkId::new("naive-order", k), &constraints, |b, cs| {
            b.iter(|| {
                let mut pool = VarPool::new();
                encode_naive(cs, &automata, &vars, &mut pool, &CancelToken::none())
                    .expect("no deadline")
                    .total_formula_size
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
