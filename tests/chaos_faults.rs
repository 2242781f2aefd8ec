//! Fault-injection and budget integration tests: overflow forced through
//! every public solve entry point must come back as a clean answer (never a
//! panic escaping to the caller), the BigInt slow lane must rescue
//! coefficient systems past the machine-word boundary, and a budget axis
//! running out must degrade to a self-describing `Unknown`.
//!
//! Injection state is process-global, so every test here takes the same
//! lock and disarms on exit (including panicking exits, via the guard).
//! This file is its own test binary; cargo runs binaries sequentially, so
//! the armed windows never overlap the rest of the suite.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use posr_core::ast::{StringFormula, StringTerm};
use posr_core::solver::{Answer, SolverOptions, StringSolver};
use posr_lia::formula::Formula;
use posr_lia::solver::{Solver, SolverResult};
use posr_lia::term::{LinExpr, VarPool};
use posr_lia::{CancelToken, IncrementalSolver};

static SERIAL: Mutex<()> = Mutex::new(());

/// Disarms injection on drop, so a failing assertion cannot leave the
/// injector armed for the next test.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        posr_obs::fault::configure(0, 0.0);
    }
}

fn arm_overflow_everywhere() -> Disarm {
    posr_obs::fault::configure(0xFA17, 1.0);
    posr_obs::fault::set_allowed(&[posr_obs::FaultKind::Overflow]);
    Disarm
}

fn lia_formula() -> (VarPool, Formula) {
    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let y = pool.fresh("y");
    let f = Formula::and(vec![
        Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(5)),
        Formula::ge(LinExpr::var(x), LinExpr::constant(2)),
        Formula::ge(LinExpr::var(y), LinExpr::constant(2)),
    ]);
    (pool, f)
}

fn string_formula() -> StringFormula {
    StringFormula::new()
        .in_re("x", "(ab)*")
        .in_re("y", "(ba)*")
        .diseq(StringTerm::var("x"), StringTerm::var("y"))
        .len_eq("x", "y")
}

/// Forces [`posr_obs::FaultKind::Overflow`] through every public solve
/// entry point at rate 1.0 and requires each to come back with an answer —
/// `Unknown` is fine, an escaped `OVERFLOW_MSG` panic is the regression
/// this guards against.
#[test]
fn forced_overflow_degrades_every_entry_point_cleanly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _disarm = arm_overflow_everywhere();

    type Entry = (&'static str, Box<dyn Fn() -> String>);
    let entries: Vec<Entry> = vec![
        (
            "posr_lia::Solver::solve",
            Box::new(|| {
                let (_, f) = lia_formula();
                format!("{:?}", Solver::new().solve(&f))
            }),
        ),
        (
            "posr_lia::IncrementalSolver::solve",
            Box::new(|| {
                let (_, f) = lia_formula();
                let mut session = IncrementalSolver::new();
                session.assert_formula(&f);
                format!("{:?}", session.solve())
            }),
        ),
        (
            "posr_tagauto::CutLoop::solve",
            Box::new(|| {
                use posr_tagauto::{CutLoop, PositionConstraint, SystemEncoder, VarTable};
                let mut vars = VarTable::new();
                let x = vars.intern("x");
                let y = vars.intern("y");
                let mut automata = BTreeMap::new();
                automata.insert(x, posr_automata::Regex::parse("abc").unwrap().compile());
                automata.insert(y, posr_automata::Regex::parse("abc").unwrap().compile());
                let encoder = SystemEncoder::new(&automata, &vars);
                let mut pool = VarPool::new();
                let encoding =
                    encoder.encode(&[PositionConstraint::diseq(vec![x], vec![y])], &mut pool);
                let mut session = IncrementalSolver::new();
                session.assert_formula(&encoding.formula);
                format!(
                    "{:?}",
                    CutLoop::new(&encoding, CancelToken::none()).solve(&mut session)
                )
            }),
        ),
        (
            "posr_core::StringSolver::solve",
            Box::new(|| format!("{:?}", StringSolver::new().solve(&string_formula()))),
        ),
        (
            "posr_core::SolverSession::check_sat",
            Box::new(|| {
                let mut session = posr_core::session::SolverSession::new();
                session.assert_all(string_formula().atoms);
                format!("{:?}", session.check_sat())
            }),
        ),
        (
            "posr_portfolio::solve_batch",
            Box::new(|| {
                let report = posr_portfolio::solve_batch(
                    &[posr_portfolio::BatchItem::new(
                        "chaos-item",
                        string_formula(),
                    )],
                    &posr_portfolio::PortfolioSolver::new(),
                    &posr_portfolio::BatchOptions::default(),
                );
                report.outcomes[0].status().to_string()
            }),
        ),
    ];

    for (name, run) in entries {
        // the assertion is the absence of a panic: each entry point's
        // overflow guard must turn the injected overflow into an answer
        let answer = run();
        assert!(!answer.is_empty(), "{name} returned nothing");
    }
}

/// The BigInt slow lane: coefficient systems past the `i64` boundary used
/// to drown in `OVERFLOW_MSG` panics (reported as `Unknown`); the checked
/// arbitrary-precision fallback now decides them both ways.
#[test]
fn huge_coefficient_systems_answer_definitely_via_the_slow_lane() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let slow_lane = posr_obs::counter("lia.rat.slow_lane");
    let before = slow_lane.value();

    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let y = pool.fresh("y");
    let sym = |a: i128, b: i128, c: i128| {
        Formula::eq(
            LinExpr::scaled_var(x, a) + LinExpr::scaled_var(y, b),
            LinExpr::constant(c),
        )
    };
    // a·x + b·y = a + b ∧ c·x + d·y = c + d has the unique rational
    // solution x = y = 1 (the determinants below are nonzero) …
    let decides_both_ways = |[a, b]: [i128; 2], [c, d]: [i128; 2]| {
        let base = vec![sym(a, b, a + b), sym(c, d, c + d)];
        let sat = Formula::and(base.clone());
        match Solver::new().solve(&sat) {
            SolverResult::Sat(model) => {
                assert_eq!(model.value(x), 1);
                assert_eq!(model.value(y), 1);
            }
            other => panic!("expected sat past the i64 boundary, got {other:?}"),
        }

        // … so forcing x + y = 3 on top is a refutation, not a resource-out
        let mut parts = base;
        parts.push(Formula::eq(
            LinExpr::var(x) + LinExpr::var(y),
            LinExpr::constant(3),
        ));
        let unsat = Formula::and(parts);
        assert_eq!(Solver::new().solve(&unsat), SolverResult::Unsat);
    };

    // both past i64::MAX, sharing a power-of-2 factor: the integer tableau
    // rows stay inside i128 here, only the rationals around them grow
    let c1: i128 = 1i128 << 63;
    let c2: i128 = (1i128 << 63) + 2;
    decides_both_ways([c1, c2], [c2, c1]);

    // all four past i64::MAX with no shared factor (drawn by a random
    // search over [2^63, 2^67]): the pivot's row merge needs ~130 bits and
    // is recomputed exactly, then divided by its content back into range
    let mid = slow_lane.value();
    decides_both_ways(
        [12_933_556_954_801_530_028, 10_409_901_856_419_683_819],
        [22_818_310_772_371_801_235, 77_509_770_081_162_479_014],
    );
    assert!(
        slow_lane.value() > mid,
        "the second system decided without taking the slow lane"
    );

    assert!(
        slow_lane.value() > before,
        "the system decided without ever taking the slow lane — \
         coefficients no longer stress the fast path"
    );
}

/// A conflict budget running out degrades to `Unknown` naming the axis.
#[test]
fn conflict_budget_exhaustion_reports_its_axis() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let budget = Arc::new(posr_obs::Budget::unlimited().with_conflict_limit(1));
    let token = CancelToken::new().with_budget(Arc::clone(&budget));
    let options = SolverOptions {
        cancel: token,
        ..SolverOptions::default()
    };
    // the flagship loopy refutation needs far more than one conflict
    let f = StringFormula::new()
        .in_re("x", "(ab)*")
        .in_re("y", "(ab)*")
        .diseq(StringTerm::var("x"), StringTerm::var("y"))
        .len_eq("x", "y");
    match StringSolver::with_options(options).solve(&f) {
        Answer::Unknown(reason) => {
            assert!(
                reason.contains(posr_obs::CONFLICT_BUDGET_MSG),
                "reason should name the conflict axis, got: {reason}"
            );
        }
        other => panic!("expected a budgeted Unknown, got {other:?}"),
    }
    assert!(budget.conflicts() > 1);
}

/// A memory budget running out degrades to `Unknown` naming the axis.
#[test]
fn memory_budget_exhaustion_reports_its_axis() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let budget = Arc::new(posr_obs::Budget::unlimited().with_mem_limit(1));
    let token = CancelToken::new().with_budget(Arc::clone(&budget));
    let options = SolverOptions {
        cancel: token,
        ..SolverOptions::default()
    };
    let f = StringFormula::new()
        .in_re("x", "(ab)*")
        .in_re("y", "(ab)*")
        .diseq(StringTerm::var("x"), StringTerm::var("y"))
        .len_eq("x", "y");
    match StringSolver::with_options(options).solve(&f) {
        Answer::Unknown(reason) => {
            assert!(
                reason.contains(posr_obs::MEM_BUDGET_MSG),
                "reason should name the memory axis, got: {reason}"
            );
        }
        other => panic!("expected a budgeted Unknown, got {other:?}"),
    }
}
