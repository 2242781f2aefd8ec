//! End-to-end flight-recorder check: a deadline-killed solve leaves a
//! black-box dump behind, and the `obs-report` rendering code turns both
//! the dump and the structured solve log into readable reports.
//!
//! Everything lives in one `#[test]` because the scenario configures the
//! recorder through environment variables (`POSR_BLACKBOX_DIR`,
//! `POSR_SOLVE_LOG`), which are process-global — this file is its own test
//! binary so no other test races the variables.

use std::collections::BTreeMap;

use posr_automata::Regex;
use posr_bench::obsreport::{render_blackbox, render_solve_log};
use posr_core::ast::{LenCmp, LenTerm, StringFormula, StringTerm};
use posr_core::normal::PositionAtom;
use posr_core::position::{solve_position, PositionOptions, PositionProblem};
use posr_core::solver::StringSolver;
use posr_lia::CancelToken;

#[test]
fn killed_solve_leaves_a_dump_that_obs_report_renders() {
    let scratch = std::env::temp_dir().join(format!("posr-blackbox-it-{}", std::process::id()));
    let dump_dir = scratch.join("dumps");
    let log_path = scratch.join("solve.log");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    std::env::set_var("POSR_BLACKBOX_DIR", &dump_dir);
    std::env::set_var("POSR_SOLVE_LOG", &log_path);

    // a complete solve first, so the structured log has a full
    // start → phases → verdict trajectory
    let sat = StringFormula::new()
        .in_re("x", "(ab)*")
        .in_re("y", "(ba)*")
        .diseq(StringTerm::var("x"), StringTerm::var("y"))
        .len_eq("x", "y");
    let answer = StringSolver::new().solve(&sat);
    assert!(matches!(answer, posr_core::Answer::Sat(_)));

    // now a deadline-killed position solve: the deadline is already past
    // when the CEGAR loop starts, so its watchdog fires "deadline …" on
    // the first cancellation poll — deterministically, with no sleeping.
    // The instance is the flagship unsat family, which the short-witness
    // sampler cannot discharge, so the CEGAR loop is genuinely entered.
    let mut languages = BTreeMap::new();
    for name in ["x", "y"] {
        languages.insert(name.to_string(), Regex::parse("(ab)*").unwrap().compile());
    }
    let positions = vec![PositionAtom::Diseq(
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

    // the structured solve log captured the earlier complete solve and
    // renders as a timeline
    let log = std::fs::read_to_string(&log_path).expect("solve log written");
    let timeline = render_solve_log(&log).expect("obs-report renders the log");
    assert!(
        timeline.contains("solve.start"),
        "log timeline:\n{timeline}"
    );
    assert!(
        timeline.contains("verdict=sat"),
        "the completed solve logged its verdict:\n{timeline}"
    );

    std::env::remove_var("POSR_BLACKBOX_DIR");
    std::env::remove_var("POSR_SOLVE_LOG");
    let _ = std::fs::remove_dir_all(&scratch);
}
