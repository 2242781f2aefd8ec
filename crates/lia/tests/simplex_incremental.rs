//! Randomized differential testing of the incremental theory layer.
//!
//! The **persistent tableau** ([`IncrementalSimplex`]) is driven through
//! random `assert` / `retract_to` sequences and compared, after every
//! step, against a from-scratch [`check_feasibility`] over the flattened
//! live constraint set — the warm basis and the undo trail must never
//! change a verdict.  The engine's pivot
//! statistics must match an external counter scope over the same session.
//!
//! Seeds are fixed xorshift states, so failures reproduce exactly.

use std::collections::BTreeMap;

mod common;

use common::{boxed, random_formula, Rng};
use posr_lia::rational::Rat;
use posr_lia::simplex::{
    check_feasibility, IncrementalSimplex, Rel, SimplexConstraint, SimplexResult,
};
use posr_lia::term::{LinExpr, Var, VarPool};
use posr_lia::IncrementalSolver;

fn random_constraint(rng: &mut Rng, vars: &[Var]) -> SimplexConstraint {
    let mut expr = LinExpr::constant(rng.int(-8, 8));
    let terms = 1 + rng.below(3);
    for _ in 0..terms {
        let v = vars[rng.below(vars.len() as u64) as usize];
        let coeff = loop {
            let c = rng.int(-3, 3);
            if c != 0 {
                break c;
            }
        };
        expr += LinExpr::scaled_var(v, coeff);
    }
    let rel = match rng.below(4) {
        0 => Rel::Ge,
        1 => Rel::Eq,
        _ => Rel::Le,
    };
    SimplexConstraint { expr, rel }
}

fn rational_model_satisfies(constraints: &[SimplexConstraint], model: &BTreeMap<Var, Rat>) {
    for c in constraints {
        let mut value = Rat::from_int(c.expr.constant_part());
        for (v, coeff) in c.expr.terms() {
            value += Rat::from_int(coeff) * model.get(&v).copied().unwrap_or(Rat::ZERO);
        }
        let ok = match c.rel {
            Rel::Le => value <= Rat::ZERO,
            Rel::Ge => value >= Rat::ZERO,
            Rel::Eq => value == Rat::ZERO,
        };
        assert!(ok, "warm-started model violates {c:?} (value {value})");
    }
}

#[test]
fn incremental_tableau_agrees_with_scratch_over_random_retraction() {
    let mut rng = Rng(0x1234_5678_9ABC_DEF1);
    let mut pool = VarPool::new();
    let vars: Vec<Var> = (0..4).map(|i| pool.fresh(&format!("v{i}"))).collect();

    for round in 0..60 {
        let mut simplex = IncrementalSimplex::new();
        // the mirror: one Vec per open frame (index 0 = root assertions)
        let mut frames: Vec<Vec<SimplexConstraint>> = vec![Vec::new()];
        for step in 0..60 {
            match rng.below(10) {
                // open a frame
                0 | 1 => frames.push(Vec::new()),
                // retract the innermost frame (if one is open)
                2 | 3 => {
                    if frames.len() > 1 {
                        frames.pop();
                        simplex.retract_to(frames.iter().map(Vec::len).sum());
                    }
                }
                // assert a random constraint into the innermost frame
                _ => {
                    let c = random_constraint(&mut rng, &vars);
                    let live: Vec<SimplexConstraint> = frames.iter().flatten().cloned().collect();
                    match simplex.assert_constraint(&c, step as u32) {
                        Ok(()) => frames.last_mut().expect("root frame").push(c),
                        Err(_) => {
                            // a rejected assertion must be genuinely
                            // inconsistent with the live set
                            let mut with = live.clone();
                            with.push(c);
                            assert_eq!(
                                check_feasibility(&with),
                                SimplexResult::Infeasible,
                                "round {round} step {step}: assert rejected a feasible set"
                            );
                        }
                    }
                }
            }
            // after every operation the warm-started verdict must match a
            // from-scratch solve of the flattened live set
            let live: Vec<SimplexConstraint> = frames.iter().flatten().cloned().collect();
            let scratch = check_feasibility(&live);
            match simplex.check() {
                Ok(()) => {
                    assert!(
                        scratch.is_feasible(),
                        "round {round} step {step}: incremental feasible, scratch infeasible on {live:?}"
                    );
                    rational_model_satisfies(&live, &simplex.model());
                }
                Err(core) => {
                    assert!(
                        !scratch.is_feasible(),
                        "round {round} step {step}: incremental infeasible, scratch feasible on {live:?}"
                    );
                    assert!(!core.is_empty(), "empty conflict core");
                }
            }
        }
    }
}

#[test]
fn incremental_conflict_cores_are_infeasible_subsets() {
    let mut rng = Rng(0xFEED_FACE_0BAD_CAFE);
    let mut pool = VarPool::new();
    let vars: Vec<Var> = (0..3).map(|i| pool.fresh(&format!("c{i}"))).collect();

    let mut cores_seen = 0usize;
    for _ in 0..200 {
        let mut simplex = IncrementalSimplex::new();
        let mut asserted: Vec<SimplexConstraint> = Vec::new();
        let mut core: Option<Vec<u32>> = None;
        for i in 0..10 {
            let c = random_constraint(&mut rng, &vars);
            match simplex.assert_constraint(&c, i as u32) {
                Ok(()) => asserted.push(c),
                Err(tags) => {
                    asserted.push(c);
                    core = Some(tags);
                    break;
                }
            }
        }
        if core.is_none() {
            core = simplex.check().err();
        }
        let Some(core) = core else { continue };
        cores_seen += 1;
        // every tag indexes an asserted constraint, and the tagged subset
        // alone is infeasible (the Farkas certificate really certifies)
        let subset: Vec<SimplexConstraint> =
            core.iter().map(|&t| asserted[t as usize].clone()).collect();
        assert_eq!(
            check_feasibility(&subset),
            SimplexResult::Infeasible,
            "core {core:?} of {asserted:?} is not a certificate"
        );
    }
    assert!(
        cores_seen >= 30,
        "too few conflicts generated: {cores_seen}"
    );
}

/// The pivot-accounting contract of the satellite fix: the engine's
/// `SolverStats::simplex_pivots` / `row_touches` are *derived* from the
/// obs counters through the engine's own [`posr_obs::CounterScope`] — so
/// an independent scope attached around the whole session must see
/// exactly the same totals.  Any second counting site (the drift the old
/// manual accounting allowed) would break this equality.
#[test]
fn engine_pivot_stats_agree_with_an_external_counter_scope() {
    let mut rng = Rng(0x5CA1_AB1E_0BB0_0042);
    let mut pool = VarPool::new();
    let vars: Vec<Var> = (0..4).map(|i| pool.fresh(&format!("p{i}"))).collect();

    let scope = posr_obs::CounterScope::new();
    let mut session = IncrementalSolver::new();
    {
        let _attached = scope.attach();
        for round in 0..60 {
            match rng.below(5) {
                0 => session.push(),
                1 => {
                    session.pop();
                }
                _ => {
                    let formula = boxed(&vars, random_formula(&mut rng, &vars, 2));
                    session.assert_formula(&formula);
                }
            }
            if round % 3 == 0 {
                let _ = session.solve();
            }
        }
        let _ = session.solve();
    }

    let stats = session.stats();
    assert!(stats.simplex_pivots > 0, "the session must actually pivot");
    assert_eq!(
        stats.simplex_pivots,
        scope.get(posr_lia::simplex::obs_pivot_counter()),
        "engine stats and the obs pivot counter drifted"
    );
    assert_eq!(
        stats.row_touches,
        scope.get(posr_lia::simplex::obs_row_touch_counter()),
        "engine stats and the obs row-touch counter drifted"
    );
}
