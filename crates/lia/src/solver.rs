//! The public satisfiability API for quantifier-free LIA formulas with
//! arbitrary Boolean structure.
//!
//! [`Solver::solve`] puts the formula into negation normal form and hands
//! it to the clause-learning CDCL(T) engine of [`crate::cdcl`]; persistent
//! sessions with push/pop and assumptions live in [`crate::incremental`].
//!
//! The solver is sound for both answers: `Sat` comes with a model that the
//! caller can (and the tests do) re-evaluate, and `Unsat` is only reported
//! when the search space was exhausted without hitting a resource limit.
//! Resource exhaustion and arithmetic overflow yield
//! [`SolverResult::Unknown`].

use std::collections::BTreeMap;

use crate::cancel::CancelToken;
use crate::formula::Formula;
use crate::rational::catch_overflow;
use crate::term::Var;

/// An integer model: a total assignment of the formula's variables
/// (variables the solver never had to constrain default to 0).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    values: BTreeMap<Var, i128>,
}

impl Model {
    /// Creates a model from explicit values.
    pub fn from_values(values: BTreeMap<Var, i128>) -> Model {
        Model { values }
    }

    /// The value of a variable (0 if unconstrained).
    pub fn value(&self, var: Var) -> i128 {
        self.values.get(&var).copied().unwrap_or(0)
    }

    /// Sets the value of a variable.
    pub fn set(&mut self, var: Var, value: i128) {
        self.values.insert(var, value);
    }

    /// Iterates over the explicitly assigned variables.
    pub fn iter(&self) -> impl Iterator<Item = (Var, i128)> + '_ {
        self.values.iter().map(|(&v, &k)| (v, k))
    }

    /// Evaluates a quantifier-free formula under this model.
    pub fn satisfies(&self, formula: &Formula) -> bool {
        formula.eval(&|v| self.value(v))
    }
}

/// Result of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverResult {
    /// The formula is satisfiable; a model is attached.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
    /// The solver could not decide within its resource limits (or the input
    /// was outside the supported fragment); the string describes why.
    Unknown(String),
}

impl SolverResult {
    /// Returns `true` for [`SolverResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolverResult::Sat(_))
    }

    /// Returns `true` for [`SolverResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolverResult::Unsat)
    }

    /// Extracts the model of a `Sat` result.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolverResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Tuning knobs of the solver.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Live learned clauses beyond which the CDCL engine's LBD-ranked GC
    /// fires (at restarts and between incremental solves); the threshold
    /// then grows geometrically.
    pub learnt_cap: usize,
    /// Theory propagation in the CDCL engine: after each bound fixpoint,
    /// literals entailed by the current intervals (and, before each
    /// decision, the multi-variable atoms the persistent tableau's rows
    /// entail) are enqueued with lazy explanations instead of being
    /// rediscovered as conflicts.  On by default.  No tracked workload
    /// restarts or garbage-collects learned clauses, so those paths are
    /// exercised only by unit tests that turn this off to keep small
    /// formulas conflict-driven: `reduce_db_keeps_verdicts_and_drops_clauses`
    /// reaches restarts and the GC, and
    /// `resolve_after_blocking_cut_retains_learned_clauses` learns the
    /// clauses an incremental session must carry across re-solves.
    pub theory_propagation: bool,
    /// Record a replayable proof of every Unsat answer into a
    /// [`crate::proof::ProofBuilder`]: root clauses, theory lemmas with
    /// arithmetic certificates, and the RUP hint chain of every learned
    /// clause.  Off by default — logging costs memory proportional to the
    /// search and makes conflict explanations slightly more eager (leaf
    /// cores are minimised so Farkas certificates exist).  The log is
    /// retrieved through [`crate::incremental::IncrementalSolver::proof`].
    pub proof_logging: bool,
    /// Cooperative cancellation/deadline token, polled at every decision
    /// and periodically along unit-propagation chains.  The default token
    /// never fires.
    pub cancel: CancelToken,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            // far above what one query learns; long incremental sessions
            // are what the GC exists for
            learnt_cap: 8_000,
            theory_propagation: true,
            proof_logging: false,
            cancel: CancelToken::none(),
        }
    }
}

/// The LIA solver: a one-shot front end to the CDCL(T) engine.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Solver {
        Solver {
            config: SolverConfig::default(),
        }
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Decides satisfiability of a quantifier-free LIA formula.
    ///
    /// Quantified formulas yield `Unknown` (the `¬contains` front end in
    /// `posr-core` performs its own instantiation before calling this).
    /// Arithmetic overflow inside the theory solver is caught and reported
    /// as `Unknown` rather than producing a wrong answer.
    pub fn solve(&self, formula: &Formula) -> SolverResult {
        if !formula.is_quantifier_free() {
            return SolverResult::Unknown("formula contains quantifiers".to_string());
        }
        let nnf = formula.nnf().simplify();
        catch_overflow(|| crate::cdcl::solve_cdcl(&nnf, &self.config))
            .unwrap_or_else(SolverResult::Unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CANCELLED_MSG;
    use crate::term::{LinExpr, VarPool};

    fn solve(formula: &Formula) -> SolverResult {
        Solver::new().solve(formula)
    }

    fn assert_sat_and_model_checks(formula: &Formula) {
        match solve(formula) {
            SolverResult::Sat(model) => assert!(model.satisfies(formula), "model must satisfy"),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn simple_conjunction_sat() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let phi = Formula::and(vec![
            Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(5)),
            Formula::ge(LinExpr::var(x), LinExpr::constant(2)),
            Formula::ge(LinExpr::var(y), LinExpr::constant(2)),
        ]);
        assert_sat_and_model_checks(&phi);
    }

    #[test]
    fn simple_conjunction_unsat() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let phi = Formula::and(vec![
            Formula::gt(LinExpr::var(x), LinExpr::constant(3)),
            Formula::lt(LinExpr::var(x), LinExpr::constant(4)),
        ]);
        assert_eq!(solve(&phi), SolverResult::Unsat);
    }

    #[test]
    fn disjunction_explores_branches() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        // (x = 3 ∧ x = 4) ∨ x = 7
        let phi = Formula::or(vec![
            Formula::and(vec![
                Formula::eq(LinExpr::var(x), LinExpr::constant(3)),
                Formula::eq(LinExpr::var(x), LinExpr::constant(4)),
            ]),
            Formula::eq(LinExpr::var(x), LinExpr::constant(7)),
        ]);
        match solve(&phi) {
            SolverResult::Sat(m) => assert_eq!(m.value(x), 7),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn disequality_atom_is_split() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let phi = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(1)),
            Formula::ne(LinExpr::var(x), LinExpr::constant(0)),
        ]);
        match solve(&phi) {
            SolverResult::Sat(m) => assert_eq!(m.value(x), 1),
            other => panic!("expected sat, got {other:?}"),
        }
        let phi_unsat = Formula::and(vec![
            phi,
            Formula::ne(LinExpr::var(x), LinExpr::constant(1)),
        ]);
        assert_eq!(solve(&phi_unsat), SolverResult::Unsat);
    }

    #[test]
    fn negation_of_complex_formula() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // ¬(x ≤ y ∨ x ≤ 0) ∧ y = 5  ⟹ x > y = 5
        let phi = Formula::and(vec![
            Formula::not(Formula::or(vec![
                Formula::le(LinExpr::var(x), LinExpr::var(y)),
                Formula::le(LinExpr::var(x), LinExpr::constant(0)),
            ])),
            Formula::eq(LinExpr::var(y), LinExpr::constant(5)),
        ]);
        match solve(&phi) {
            SolverResult::Sat(m) => {
                assert!(m.value(x) > 5);
                assert_eq!(m.value(y), 5);
                assert!(m.satisfies(&phi));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn integrality_matters() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        // 1 ≤ 3x ≤ 2 has rational but no integer solutions
        let phi = Formula::and(vec![
            Formula::ge(LinExpr::scaled_var(x, 3), LinExpr::constant(1)),
            Formula::le(LinExpr::scaled_var(x, 3), LinExpr::constant(2)),
        ]);
        assert_eq!(solve(&phi), SolverResult::Unsat);
    }

    #[test]
    fn integral_relaxation_is_accepted() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        match solve(&Formula::eq(LinExpr::var(x), LinExpr::constant(4))) {
            SolverResult::Sat(m) => assert_eq!(m.value(x), 4),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn fractional_relaxation_is_split_to_an_integer_model() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // 2x + 2y = 6, x ≥ 1, y ≥ 1: integral models exist (x = 1, y = 2)
        assert_sat_and_model_checks(&Formula::and(vec![
            Formula::eq(
                LinExpr::scaled_var(x, 2) + LinExpr::scaled_var(y, 2),
                LinExpr::constant(6),
            ),
            Formula::ge(LinExpr::var(x), LinExpr::constant(1)),
            Formula::ge(LinExpr::var(y), LinExpr::constant(1)),
        ]));
        // Σ (i+1)·nᵢ = 20 with nᵢ ≥ 0: a knapsack with many models
        let vars: Vec<Var> = (0..6).map(|i| pool.fresh(&format!("n{i}"))).collect();
        let mut sum = LinExpr::zero();
        for (i, &v) in vars.iter().enumerate() {
            sum += LinExpr::scaled_var(v, (i + 1) as i128);
        }
        let mut knapsack = vec![Formula::eq(sum, LinExpr::constant(20))];
        for &v in &vars {
            knapsack.push(Formula::ge(LinExpr::var(v), LinExpr::constant(0)));
        }
        assert_sat_and_model_checks(&Formula::and(knapsack));
    }

    #[test]
    fn parity_conflicts_are_unsat_bounded_or_not() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // 2x = 2y + 1: rationally feasible, no integer point, and along
        // the unbounded counters ever-larger fractional vertices exist
        let parity = Formula::eq(
            LinExpr::scaled_var(x, 2),
            LinExpr::scaled_var(y, 2) + LinExpr::constant(1),
        );
        assert_eq!(solve(&parity), SolverResult::Unsat);
        let mut bounded = vec![parity];
        for v in [x, y] {
            bounded.push(Formula::ge(LinExpr::var(v), LinExpr::constant(0)));
            bounded.push(Formula::le(LinExpr::var(v), LinExpr::constant(50)));
        }
        assert_eq!(solve(&Formula::and(bounded)), SolverResult::Unsat);
    }

    #[test]
    fn fractional_values_past_the_magnitude_bound_are_never_unsat() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // 2x = 3y + 1 with x ≥ 10⁸: satisfiable (x = 10⁸ + 1), but the
        // relaxation's fractional y lies far past the branching bound
        let f = Formula::and(vec![
            Formula::eq(
                LinExpr::scaled_var(x, 2),
                LinExpr::scaled_var(y, 3) + LinExpr::constant(1),
            ),
            Formula::ge(LinExpr::var(x), LinExpr::constant(100_000_000)),
        ]);
        match solve(&f) {
            SolverResult::Sat(m) => assert!(m.satisfies(&f)),
            SolverResult::Unknown(_) => {}
            SolverResult::Unsat => panic!("a satisfiable formula answered unsat"),
        }
    }

    #[test]
    fn trivial_formulas() {
        assert!(solve(&Formula::True).is_sat());
        assert_eq!(solve(&Formula::False), SolverResult::Unsat);
    }

    #[test]
    fn quantified_input_is_rejected() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let phi = Formula::forall(vec![x], Formula::ge(LinExpr::var(x), LinExpr::constant(0)));
        match solve(&phi) {
            SolverResult::Unknown(_) => {}
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn nested_boolean_structure() {
        let mut pool = VarPool::new();
        let a = pool.fresh("a");
        let b = pool.fresh("b");
        let c = pool.fresh("c");
        // (a=1 ∨ a=2) ∧ (b = a + 1 ∨ b = a + 2) ∧ c = a + b ∧ c = 5
        let phi = Formula::and(vec![
            Formula::or(vec![
                Formula::eq(LinExpr::var(a), LinExpr::constant(1)),
                Formula::eq(LinExpr::var(a), LinExpr::constant(2)),
            ]),
            Formula::or(vec![
                Formula::eq(LinExpr::var(b), LinExpr::var(a) + LinExpr::constant(1)),
                Formula::eq(LinExpr::var(b), LinExpr::var(a) + LinExpr::constant(2)),
            ]),
            Formula::eq(LinExpr::var(c), LinExpr::var(a) + LinExpr::var(b)),
            Formula::eq(LinExpr::var(c), LinExpr::constant(5)),
        ]);
        match solve(&phi) {
            SolverResult::Sat(m) => {
                assert!(m.satisfies(&phi));
                assert_eq!(m.value(a) + m.value(b), 5);
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // forcing c = 100 makes it unsat
        let phi_unsat = Formula::and(vec![
            phi,
            Formula::eq(LinExpr::var(c), LinExpr::constant(100)),
        ]);
        assert_eq!(solve(&phi_unsat), SolverResult::Unsat);
    }

    #[test]
    fn cancelled_token_yields_unknown() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..10).map(|i| pool.fresh(&format!("x{i}"))).collect();
        let mut conjuncts = Vec::new();
        for &v in &vars {
            conjuncts.push(Formula::or(vec![
                Formula::eq(LinExpr::var(v), LinExpr::constant(0)),
                Formula::eq(LinExpr::var(v), LinExpr::constant(1)),
            ]));
        }
        conjuncts.push(Formula::ge(
            LinExpr::sum_of_vars(vars.iter().copied()),
            LinExpr::constant(100),
        ));
        let config = SolverConfig {
            cancel: CancelToken::new(),
            ..SolverConfig::default()
        };
        config.cancel.cancel();
        match Solver::with_config(config).solve(&Formula::and(conjuncts)) {
            SolverResult::Unknown(reason) => assert_eq!(reason, CANCELLED_MSG),
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn model_defaults_unmentioned_variables_to_zero() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let unused = pool.fresh("unused");
        let phi = Formula::eq(LinExpr::var(x), LinExpr::constant(2));
        match solve(&phi) {
            SolverResult::Sat(m) => {
                assert_eq!(m.value(x), 2);
                assert_eq!(m.value(unused), 0);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
