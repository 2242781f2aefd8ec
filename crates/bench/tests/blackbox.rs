//! End-to-end flight-recorder check: a deadline-killed solve leaves a
//! black-box dump behind, and the `obs-report` rendering code turns the
//! dump into a readable report.
//!
//! The scenario configures the recorder through `POSR_BLACKBOX_DIR`, which
//! is process-global, so this file is its own test binary and no other
//! test races the variable.

use std::collections::BTreeMap;

use posr_automata::Regex;
use posr_bench::obsreport::render_blackbox;
use posr_core::ast::{LenCmp, LenTerm};
use posr_core::normal::{PositionAtom, PositionKind};
use posr_core::position::{solve_position, PositionOptions, PositionProblem};
use posr_lia::CancelToken;

#[test]
fn killed_solve_leaves_a_dump_that_obs_report_renders() {
    let scratch = std::env::temp_dir().join(format!("posr-blackbox-it-{}", std::process::id()));
    let dump_dir = scratch.join("dumps");
    let _ = std::fs::remove_dir_all(&scratch);
    std::env::set_var("POSR_BLACKBOX_DIR", &dump_dir);

    // a deadline-killed position solve: the deadline is already past when
    // the CEGAR loop starts, so its watchdog fires "deadline …" on the
    // first cancellation poll — deterministically, with no sleeping.
    // The instance is the flagship unsat family, which the short-witness
    // sampler cannot discharge, so the CEGAR loop is genuinely entered.
    let mut languages = BTreeMap::new();
    for name in ["x", "y"] {
        languages.insert(name.to_string(), Regex::parse("(ab)*").unwrap().compile());
    }
    let positions = vec![PositionAtom::new(
        PositionKind::Diseq,
        vec!["x".to_string()],
        vec!["y".to_string()],
    )];
    let lengths = vec![(LenTerm::len("x"), LenCmp::Eq, LenTerm::len("y"))];
    let problem = PositionProblem {
        languages: &languages,
        positions: &positions,
        lengths: &lengths,
    };
    let options = PositionOptions {
        cancel: CancelToken::with_deadline(std::time::Instant::now()),
        ..PositionOptions::default()
    };
    let outcome = solve_position(&problem, &options);
    assert!(!outcome.is_sat(), "the killed solve cannot claim sat");

    // the dump exists and the library rendering (the code behind
    // `obs-report DUMP.json`) produces the phase/percentile report
    let dumps: Vec<_> = std::fs::read_dir(&dump_dir)
        .expect("the watchdog created the dump directory")
        .map(|e| e.expect("readable entry").path())
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one dump for the killed solve");
    let body = std::fs::read_to_string(&dumps[0]).expect("dump is readable");
    let rendered = render_blackbox(&body).expect("obs-report renders the dump");
    assert!(
        rendered.contains("position-solve"),
        "the dump names the solve that died:\n{rendered}"
    );
    assert!(
        rendered.contains("fired: deadline"),
        "the dump records why it fired:\n{rendered}"
    );

    std::env::remove_var("POSR_BLACKBOX_DIR");
    let _ = std::fs::remove_dir_all(&scratch);
}
