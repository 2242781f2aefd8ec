//! Tiny-size self-test of the benchmark: every workload of
//! `BENCHMARK.json`, untraced and traced, on a few queries.  The last
//! output line must parse with the repository's own JSON reader and carry
//! every declared metric with its declared unit.

use std::process::{Command, Output};

use posr_bench::json::{self, Json};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_posr-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn str_field<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string field {key}"))
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    let spec = spec();
    for workload in spec.get("workloads").expect("workloads").items() {
        let name = str_field(workload, "name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let tiny = ["--seed", "7", "--seconds", "0.1", "--max-queries", "4"];
            let out = benchmark(&[&["--workload", name, "--trace", trace][..], &tiny].concat());
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("some output");
            let result = json::parse(last).expect("the last line is JSON");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            assert!(result.get("failed").and_then(Json::as_f64).is_some());

            let metrics = result.get("metrics").expect("metrics");
            let declared = spec.get(section).expect("metric section").items();
            assert_eq!(
                metrics.entries().len(),
                declared.len(),
                "{name} --trace {trace} reports exactly the {section} metrics"
            );
            for metric in declared {
                let metric_name = str_field(metric, "name");
                let reported = metrics
                    .get(metric_name)
                    .unwrap_or_else(|| panic!("{name} --trace {trace} lacks {metric_name}"));
                assert_eq!(
                    reported.get("unit").and_then(Json::as_str),
                    Some(str_field(metric, "unit")),
                    "unit of {metric_name}"
                );
                assert!(
                    reported.get("value").and_then(Json::as_f64).is_some(),
                    "{metric_name} has a numeric value"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload symexec --seed 1 --seconds 1",
        "--workload symexec --seed x --seconds 1 --trace 0",
    ] {
        let out = benchmark(&args.split(' ').collect::<Vec<_>>());
        assert!(!out.status.success(), "{args} was accepted");
        assert!(out.stdout.is_empty(), "{args} printed a result");
    }
}
