//! LIA verdicts checked against exhaustive enumeration.
//!
//! Every random formula is conjoined with a box that bounds each variable,
//! so its satisfiability is decided by trying every point of the box
//! ([`Formula::box_witness`], which shares nothing with the solver but
//! `Formula::eval`).  Each formula is solved with the default configuration
//! and with theory propagation off; a `Sat` must come with a model that
//! re-evaluates to true, an `Unsat` must mean the box holds no point.
//!
//! Seeds are fixed xorshift states, so failures reproduce exactly.

mod common;

use common::{boxed, random_formula, Rng, HI, LO};
use posr_lia::formula::Formula;
use posr_lia::solver::{Solver, SolverConfig, SolverResult};
use posr_lia::term::{LinExpr, Var, VarPool};

/// A solver configuration and the verdicts it gave over one suite.
struct Config {
    name: &'static str,
    solver: Solver,
    sat: usize,
    unsat: usize,
    unknown: usize,
}

impl Config {
    fn new(name: &'static str, solver: Solver) -> Config {
        Config {
            name,
            solver,
            sat: 0,
            unsat: 0,
            unknown: 0,
        }
    }
}

/// The configurations every formula is solved under.
fn configs() -> Vec<Config> {
    vec![
        Config::new("default", Solver::new()),
        Config::new(
            "no-theory-propagation",
            Solver::with_config(SolverConfig {
                theory_propagation: false,
                ..SolverConfig::default()
            }),
        ),
    ]
}

/// Solves `formula` under every configuration, checks each answer against
/// whether the box holds a satisfying point, and counts it.
fn check(formula: &Formula, vars: &[Var], lo: i128, hi: i128, what: &str, configs: &mut [Config]) {
    let witness = formula.box_witness(vars, lo, hi);
    for config in configs.iter_mut() {
        let name = config.name;
        match config.solver.solve(formula) {
            SolverResult::Sat(model) => {
                assert!(
                    model.satisfies(formula),
                    "{what} ({name}): model fails on {formula:?}"
                );
                assert!(
                    witness.is_some(),
                    "{what} ({name}): sat, but the box holds no point: {formula:?}"
                );
                config.sat += 1;
            }
            SolverResult::Unsat => {
                assert!(
                    witness.is_none(),
                    "{what} ({name}): unsat, but {witness:?} satisfies {formula:?}"
                );
                config.unsat += 1;
            }
            // a resource-out contradicts nothing, it only reduces coverage
            SolverResult::Unknown(_) => config.unknown += 1,
        }
    }
}

/// Every configuration decided at least `sat` formulas Sat and `unsat`
/// Unsat itself, and left at most `unknown` undecided.
fn assert_floors(configs: &[Config], sat: usize, unsat: usize, unknown: usize) {
    for c in configs {
        assert!(c.sat >= sat, "{}: too few sat answers: {}", c.name, c.sat);
        assert!(
            c.unsat >= unsat,
            "{}: too few unsat answers: {}",
            c.name,
            c.unsat
        );
        assert!(
            c.unknown <= unknown,
            "{}: too many unknowns ({}) — instances are supposed to be easy",
            c.name,
            c.unknown
        );
    }
}

/// `rounds` random boxed formulas over four variables from `seed`, each
/// checked under every configuration.
fn random_suite(seed: u64, prefix: &str, rounds: usize) -> Vec<Config> {
    let mut rng = Rng(seed);
    let mut pool = VarPool::new();
    let vars: Vec<Var> = (0..4)
        .map(|i| pool.fresh(&format!("{prefix}{i}")))
        .collect();
    let mut configs = configs();
    for round in 0..rounds {
        let formula = boxed(&vars, random_formula(&mut rng, &vars, 3));
        check(
            &formula,
            &vars,
            LO,
            HI,
            &format!("round {round}"),
            &mut configs,
        );
    }
    configs
}

// The floors count each configuration's own Sat / Unsat answers, so they
// hold the solver to deciding the generated formulas, not only the
// generator to producing both kinds.

#[test]
fn random_formulas_match_enumeration_200_rounds() {
    let configs = random_suite(0x5EED_0123_4567_89AB, "v", 200);
    assert_floors(&configs, 20, 15, 20);
}

#[test]
fn random_formulas_match_enumeration_250_rounds() {
    let configs = random_suite(0x0D15_EA5E_5EED_0007, "m", 250);
    assert_floors(&configs, 30, 15, 20);
}

#[test]
fn parity_families_match_enumeration() {
    // targeted family: k·x − k·y = z + c with z ∈ {0, 1}, with and without
    // divisibility conflicts — the shape the tag-automaton flow formulas
    // take after the Boolean abstraction.  Every model lies in [0, 50]³.
    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let y = pool.fresh("y");
    let z = pool.fresh("z");
    let mut configs = configs();
    for k in 2..=5i128 {
        for c in 0..=3i128 {
            let formula = Formula::and(vec![
                Formula::eq(
                    LinExpr::scaled_var(x, k) - LinExpr::scaled_var(y, k),
                    LinExpr::scaled_var(z, 1) + LinExpr::constant(c),
                ),
                Formula::or(vec![
                    Formula::eq(LinExpr::var(z), LinExpr::constant(0)),
                    Formula::eq(LinExpr::var(z), LinExpr::constant(1)),
                ]),
                Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
                Formula::ge(LinExpr::var(y), LinExpr::constant(0)),
                Formula::le(LinExpr::var(x), LinExpr::constant(50)),
                Formula::le(LinExpr::var(y), LinExpr::constant(50)),
            ]);
            check(
                &formula,
                &[x, y, z],
                0,
                50,
                &format!("k={k} c={c}"),
                &mut configs,
            );
        }
    }
    assert_floors(&configs, 1, 1, 0);
}
