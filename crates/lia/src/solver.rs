//! A DPLL(T)-style satisfiability solver for quantifier-free LIA formulas.
//!
//! The search walks the Boolean structure of the (negation-normal-form)
//! formula, accumulating a conjunction of asserted linear constraints.  At
//! every disjunction it branches; before branching and at every leaf it asks
//! the theory solver ([`crate::simplex`] for the rational relaxation,
//! [`crate::intfeas`] for integer feasibility) whether the current
//! conjunction is still consistent.  This "structural DPLL(T)" is well suited
//! to the formulas produced by the paper's reductions, whose disjunctions are
//! few and shallow (the `φ_len ∨ (φ_sym ∧ φ_mis)` split, the per-pair
//! disjunction of `φ_mis`, and the spanning-tree disjunctions of the Parikh
//! formula).
//!
//! The solver is sound for both answers: `Sat` comes with a model that the
//! caller can (and the tests do) re-evaluate, and `Unsat` is only reported
//! when every branch was refuted by the theory without hitting a resource
//! limit.  Resource exhaustion and arithmetic overflow yield
//! [`SolverResult::Unknown`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::bounds::{BoundEnv, BoundOutcome, ConstraintIndex};
use crate::cancel::{CancelToken, CANCELLED_MSG, DEADLINE_MSG};
use crate::formula::{Atom, Cmp, Formula};
use crate::intfeas::{solve_integer, IntFeasConfig, IntFeasResult};
use crate::rational::OVERFLOW_MSG;
use crate::simplex::{Rel, SessionSimplex, SimplexConstraint};
use crate::term::{LinExpr, Var};

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

/// Which search core decides the Boolean structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SearchEngine {
    /// The clause-learning CDCL(T) engine of [`crate::cdcl`]: clausification
    /// with structural hashing, two-watched-literal propagation, 1UIP
    /// learning, backjumping, restarts.  The default — it is the only engine
    /// that closes the loopy unsat families (conflict learning prunes the
    /// symmetric mismatch case splits).
    #[default]
    Cdcl,
    /// The recursive structural DPLL(T) walk below.  Kept as a
    /// differential-testing oracle and for the ablation benchmarks.
    Structural,
}

/// Tuning knobs of the solver.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// The search core ([`SearchEngine::Cdcl`] by default).
    pub engine: SearchEngine,
    /// Prune disjunction branches whose asserted prefix is already
    /// rationally infeasible.  (Structural engine only; the
    /// `early_pruning_and_exhaustive_agree` test exercises both settings.)
    pub early_pruning: bool,
    /// Maximum number of disjunction branches explored (structural engine).
    pub max_decisions: usize,
    /// Maximum number of conflicts before the CDCL engine reports
    /// `Unknown` (its analogue of `max_decisions`).  In an incremental
    /// session the budget applies per `solve` call.
    pub max_conflicts: usize,
    /// Live learned clauses beyond which the CDCL engine's LBD-ranked GC
    /// fires (at restarts and between incremental solves); the threshold
    /// then grows geometrically.
    pub learnt_cap: usize,
    /// Theory propagation in the CDCL engine: after each bound fixpoint,
    /// literals entailed by the current intervals are enqueued (with lazy
    /// explanations) instead of being rediscovered as conflicts.  On by
    /// default; the off setting is kept as a differential oracle.
    pub theory_propagation: bool,
    /// Persistent Dutertre–de Moura tableau for the CDCL engine's leaf
    /// feasibility checks (atoms registered once, O(1) backtrackable bound
    /// assertions, warm-started pivoting).  On by default; off rebuilds a
    /// tableau per leaf check — the PR-4 behaviour of *this* path, kept
    /// as a differential oracle and as the ablation baseline.  The switch
    /// governs only the engine's rational leaf checks: branch-and-bound
    /// ([`crate::intfeas`]) and the structural engine's pre-branch checks
    /// always run their own incremental tableaux.
    pub incremental_simplex: bool,
    /// Assignment-guided theory propagation in the CDCL engine: at the
    /// propagation fixpoint before each decision, a pivot-budgeted check of
    /// the persistent tableau runs eagerly and, when feasible, the bounds
    /// its rows imply are scanned for entailed multi-variable atoms (the
    /// ones the interval fixpoint cannot see), which are enqueued through
    /// the lazy-explanation path.  On by default; requires
    /// `incremental_simplex` and `theory_propagation`.  Off is the
    /// ablation baseline isolating the tableau-layout win from the
    /// propagation win.
    pub guided_propagation: bool,
    /// Record a replayable proof of every Unsat answer into a
    /// [`crate::proof::ProofBuilder`]: root clauses, theory lemmas with
    /// arithmetic certificates, and the RUP hint chain of every learned
    /// clause.  Off by default — logging costs memory proportional to the
    /// search and makes conflict explanations slightly more eager (leaf
    /// cores are minimised so Farkas certificates exist).  The log is
    /// retrieved through [`crate::incremental::IncrementalSolver::proof`].
    pub proof_logging: bool,
    /// Limits of the integer feasibility backend.
    pub int_config: IntFeasConfig,
    /// Cooperative cancellation/deadline token, polled at every disjunction
    /// decision and periodically along unit-propagation chains.  The default
    /// token never fires.
    pub cancel: CancelToken,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            engine: SearchEngine::default(),
            early_pruning: true,
            // A backstop against runaway searches; wall clocks are governed
            // by the `cancel` token's deadline.  Bound propagation keeps
            // decisions cheap, so this sits above what the benchmark
            // families need while keeping resource-outs at a few seconds.
            max_decisions: 4_000,
            // the learner converges in far fewer conflicts than the
            // structural engine takes decisions, but each conflict does more
            // work; this keeps resource-outs at a few seconds as well
            max_conflicts: 50_000,
            // far above what one query learns; long incremental sessions
            // are what the GC exists for
            learnt_cap: 8_000,
            theory_propagation: true,
            incremental_simplex: true,
            guided_propagation: true,
            proof_logging: false,
            int_config: IntFeasConfig::default(),
            cancel: CancelToken::none(),
        }
    }
}

impl SolverConfig {
    /// This configuration with the given engine selected.
    pub fn with_engine(mut self, engine: SearchEngine) -> SolverConfig {
        self.engine = engine;
        self
    }
}

/// The DPLL(T) solver.
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
        let result = catch_unwind(AssertUnwindSafe(|| self.solve_nnf(&nnf)));
        match result {
            Ok(r) => r,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                if msg.contains(OVERFLOW_MSG) {
                    SolverResult::Unknown("arithmetic overflow in theory solver".to_string())
                } else {
                    // re-raise unrelated panics: they indicate bugs, not resource limits
                    std::panic::panic_any(msg.to_string())
                }
            }
        }
    }

    fn solve_nnf(&self, formula: &Formula) -> SolverResult {
        if self.config.engine == SearchEngine::Cdcl {
            return crate::cdcl::solve_cdcl(formula, &self.config);
        }
        let mut search = Search {
            config: &self.config,
            decisions: 0,
            steps: 0,
            saw_resource_out: false,
            cancelled: false,
            tableau: SessionSimplex::new(),
        };
        let mut asserted = Vec::new();
        match search.explore(&mut asserted, &mut vec![formula.clone()]) {
            Some(model) => SolverResult::Sat(model),
            None => {
                if search.cancelled {
                    let reason = if self.config.cancel.flag_raised() {
                        CANCELLED_MSG
                    } else {
                        DEADLINE_MSG
                    };
                    SolverResult::Unknown(reason.to_string())
                } else if search.saw_resource_out {
                    SolverResult::Unknown("resource limit reached".to_string())
                } else {
                    SolverResult::Unsat
                }
            }
        }
    }
}

/// How many worklist steps pass between cancellation polls on straight-line
/// (disjunction-free) stretches.  Disjunction decisions always poll.
const CANCEL_POLL_INTERVAL: usize = 64;

struct Search<'a> {
    config: &'a SolverConfig,
    decisions: usize,
    steps: usize,
    saw_resource_out: bool,
    cancelled: bool,
    /// Session-local incremental tableau for the pre-branch rational
    /// feasibility checks: the DFS re-checks clone-and-extend prefixes of
    /// the same asserted conjunction, so each check retracts to the common
    /// prefix with the previous one and asserts only the new suffix,
    /// warm-starting the pivoting from the shared basis.
    tableau: SessionSimplex,
}

impl Search<'_> {
    /// Explores the remaining `worklist` under the constraints already in
    /// `asserted`; returns a model if a satisfying leaf is found.
    fn explore(
        &mut self,
        asserted: &mut Vec<SimplexConstraint>,
        worklist: &mut Vec<Formula>,
    ) -> Option<Model> {
        loop {
            if self.config.cancel.can_fire() {
                self.steps += 1;
                if self.steps.is_multiple_of(CANCEL_POLL_INTERVAL)
                    && self.config.cancel.is_cancelled()
                {
                    self.cancelled = true;
                    return None;
                }
            }
            // assert unit conjuncts before branching on any disjunction: the
            // theory-level pruning then has the full conjunctive context and
            // cuts refuted branches much earlier
            let next_index = worklist.iter().rposition(|f| !matches!(f, Formula::Or(_)));
            let Some(next) = next_index.map(|i| worklist.remove(i)) else {
                if worklist.is_empty() {
                    // leaf: integer feasibility of the asserted conjunction,
                    // with a cheap bound-propagation refutation first
                    if let (_, BoundOutcome::Refuted) = BoundEnv::from_constraints(asserted) {
                        return None;
                    }
                    return match solve_integer(asserted, &self.config.int_config) {
                        IntFeasResult::Sat(values) => Some(Model::from_values(values)),
                        IntFeasResult::Unsat => None,
                        IntFeasResult::ResourceOut => {
                            self.saw_resource_out = true;
                            None
                        }
                    };
                }
                // only disjunctions left: propagate, then branch.  Unit
                // propagation drops every disjunct whose implied unit atoms
                // contradict the asserted bounds (sound: bound refutation
                // implies integer infeasibility) and asserts disjuncts that
                // became forced, without consuming decisions.  Without this
                // the flow formulas of the Parikh encodings — many binary
                // disjunctions coupled through shared counters — take
                // exponential search to refute.
                if self.config.early_pruning {
                    let (mut env, outcome) = BoundEnv::from_constraints(asserted);
                    if outcome == BoundOutcome::Refuted {
                        return None;
                    }
                    let mut index = ConstraintIndex::build(asserted);
                    let mut forced = false;
                    let mut i = 0;
                    while i < worklist.len() {
                        let Formula::Or(parts) = &mut worklist[i] else {
                            unreachable!("all-Or worklist")
                        };
                        // an entailed disjunct makes the whole disjunction
                        // vacuous — drop it instead of branching on it
                        if parts.iter().any(|part| satisfied_by_bounds(&env, part)) {
                            worklist.swap_remove(i);
                            continue;
                        }
                        parts.retain(|part| {
                            !falsified_by_bounds(&env, part)
                                && !refuted_by_bounds(&mut env, asserted, &mut index, part)
                        });
                        match parts.len() {
                            0 => return None,
                            1 => forced = true,
                            _ => {}
                        }
                        i += 1;
                    }
                    if worklist.is_empty() {
                        continue;
                    }
                    if forced {
                        for entry in worklist.iter_mut() {
                            let Formula::Or(parts) = entry else { continue };
                            if parts.len() == 1 {
                                *entry = parts.pop().expect("singleton disjunction");
                            }
                        }
                        continue;
                    }
                    if self.tableau.infeasible(asserted) {
                        return None;
                    }
                }
                // branch on the smallest surviving disjunction
                let pick = worklist
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, f)| match f {
                        Formula::Or(parts) => parts.len(),
                        _ => usize::MAX,
                    })
                    .map(|(i, _)| i)
                    .expect("worklist is non-empty");
                let Formula::Or(parts) = worklist.remove(pick) else {
                    unreachable!("all-Or worklist")
                };
                for part in parts {
                    if self.config.cancel.is_cancelled() {
                        self.cancelled = true;
                        return None;
                    }
                    self.decisions += 1;
                    if self.decisions > self.config.max_decisions {
                        self.saw_resource_out = true;
                        return None;
                    }
                    let mut branch_asserted = asserted.clone();
                    let mut branch_worklist = worklist.clone();
                    branch_worklist.push(part);
                    if let Some(model) = self.explore(&mut branch_asserted, &mut branch_worklist) {
                        return Some(model);
                    }
                }
                return None;
            };
            match next {
                Formula::True => {}
                Formula::False => return None,
                Formula::And(parts) => worklist.extend(parts),
                Formula::Atom(atom) => match atom_to_constraints(&atom) {
                    AtomConstraints::Single(c) => asserted.push(c),
                    AtomConstraints::Split(left, right) => {
                        // a disequality: branch on the two half-spaces
                        let disjunction =
                            Formula::Or(vec![Formula::Atom(left), Formula::Atom(right)]);
                        worklist.push(disjunction);
                    }
                },
                Formula::Not(inner) => worklist.push(Formula::not(*inner)),
                Formula::Or(_) => unreachable!("disjunctions are handled above"),
                Formula::Forall(_, _) | Formula::Exists(_, _) => {
                    // unreachable: `solve` rejects quantified formulas upfront
                    self.saw_resource_out = true;
                    return None;
                }
            }
        }
    }
}

/// `true` only when every point of the current bound box satisfies the
/// formula — the disjunction containing such a disjunct is entailed and can
/// be dropped without branching.  This is what eliminates vacuous
/// implications (`Σ = 1 → …` where the counters are already pinned to 0:
/// the negated premise is certainly true).
fn satisfied_by_bounds(env: &BoundEnv, formula: &Formula) -> bool {
    match formula {
        Formula::True => true,
        Formula::Atom(atom) => {
            let (min, max) = env.expr_range(&atom.expr);
            match atom.cmp {
                Cmp::Le => max.is_some_and(|m| m <= 0),
                Cmp::Lt => max.is_some_and(|m| m < 0),
                Cmp::Ge => min.is_some_and(|m| m >= 0),
                Cmp::Gt => min.is_some_and(|m| m > 0),
                Cmp::Eq => (min == Some(0)) && (max == Some(0)),
                Cmp::Ne => max.is_some_and(|m| m < 0) || min.is_some_and(|m| m > 0),
            }
        }
        Formula::And(parts) => parts.iter().all(|p| satisfied_by_bounds(env, p)),
        Formula::Or(parts) => parts.iter().any(|p| satisfied_by_bounds(env, p)),
        _ => false,
    }
}

/// The dual of [`satisfied_by_bounds`]: `true` only when *no* point of the
/// current bound box satisfies the formula.  This is what kills `≠`
/// disjuncts whose expression the bounds pin to zero (e.g. the `φ_len`
/// branch of a disequality once the lengths are forced equal) — atoms the
/// unit-probe path must skip because disequalities contribute no simplex
/// constraint.
fn falsified_by_bounds(env: &BoundEnv, formula: &Formula) -> bool {
    match formula {
        Formula::False => true,
        Formula::Atom(atom) => {
            let (min, max) = env.expr_range(&atom.expr);
            match atom.cmp {
                Cmp::Le => min.is_some_and(|m| m > 0),
                Cmp::Lt => min.is_some_and(|m| m >= 0),
                Cmp::Ge => max.is_some_and(|m| m < 0),
                Cmp::Gt => max.is_some_and(|m| m <= 0),
                Cmp::Eq => max.is_some_and(|m| m < 0) || min.is_some_and(|m| m > 0),
                Cmp::Ne => (min == Some(0)) && (max == Some(0)),
            }
        }
        Formula::And(parts) => parts.iter().any(|p| falsified_by_bounds(env, p)),
        Formula::Or(parts) => parts.iter().all(|p| falsified_by_bounds(env, p)),
        _ => false,
    }
}

/// Collects the unit simplex constraints a formula *implies* (top-level
/// atoms of conjunctions; disequalities and nested disjunctions contribute
/// nothing).  Returns `false` if the formula is syntactically `False`.
fn collect_probe(formula: &Formula, out: &mut Vec<SimplexConstraint>) -> bool {
    match formula {
        Formula::False => false,
        Formula::Atom(atom) => {
            if let AtomConstraints::Single(c) = atom_to_constraints(atom) {
                out.push(c);
            }
            true
        }
        Formula::And(parts) => parts.iter().all(|p| collect_probe(p, out)),
        _ => true,
    }
}

/// `true` if asserting the disjunct's unit atoms into the bound environment
/// of the current node derives a contradiction — a sound reason to drop the
/// disjunct (bound refutation implies integer infeasibility).  The asserted
/// context is re-propagated under the tightened bounds so the probe can
/// cascade through the flow equalities, which is where most refutations of
/// the Parikh encodings come from.  The probe atoms are pushed onto the
/// context and its index, propagated on a trail level of their own, and
/// popped again, so all three are left as they were.
fn refuted_by_bounds(
    env: &mut BoundEnv,
    asserted: &mut Vec<SimplexConstraint>,
    index: &mut ConstraintIndex,
    disjunct: &Formula,
) -> bool {
    let mut probe = Vec::new();
    if !collect_probe(disjunct, &mut probe) {
        return true;
    }
    if probe.is_empty() {
        return false;
    }
    let base = asserted.len();
    for c in probe {
        index.push(&c);
        asserted.push(c);
    }
    let budget = 8 * base.max(8);
    let level = env.level();
    env.push_level();
    let outcome = env.propagate_from(asserted, base..asserted.len(), index, budget);
    env.pop_to_level(level);
    while asserted.len() > base {
        index.pop(&asserted.pop().expect("probe constraint"));
    }
    outcome == BoundOutcome::Refuted
}

enum AtomConstraints {
    Single(SimplexConstraint),
    Split(Atom, Atom),
}

/// Translates an atom `expr ⋈ 0` over integers into simplex constraints:
/// strict comparisons are shifted by one, disequality splits into two atoms.
fn atom_to_constraints(atom: &Atom) -> AtomConstraints {
    let expr = atom.expr.clone();
    match atom.cmp {
        Cmp::Le => AtomConstraints::Single(SimplexConstraint { expr, rel: Rel::Le }),
        Cmp::Ge => AtomConstraints::Single(SimplexConstraint { expr, rel: Rel::Ge }),
        Cmp::Eq => AtomConstraints::Single(SimplexConstraint { expr, rel: Rel::Eq }),
        Cmp::Lt => AtomConstraints::Single(SimplexConstraint {
            expr: expr + LinExpr::constant(1),
            rel: Rel::Le,
        }),
        Cmp::Gt => AtomConstraints::Single(SimplexConstraint {
            expr: expr - LinExpr::constant(1),
            rel: Rel::Ge,
        }),
        Cmp::Ne => AtomConstraints::Split(
            Atom {
                expr: expr.clone(),
                cmp: Cmp::Lt,
            },
            Atom { expr, cmp: Cmp::Gt },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::VarPool;

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
    fn decision_limit_yields_unknown() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..10).map(|i| pool.fresh(&format!("x{i}"))).collect();
        // a conjunction of 10 binary disjunctions with no solution, so the
        // solver has to enumerate all of them
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
            engine: SearchEngine::Structural,
            max_decisions: 3,
            ..SolverConfig::default()
        };
        match Solver::with_config(config).solve(&Formula::and(conjuncts)) {
            SolverResult::Unknown(_) => {}
            other => panic!("expected unknown, got {other:?}"),
        }
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
    fn early_pruning_and_exhaustive_agree() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let phi = Formula::and(vec![
            Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(4)),
            Formula::or(vec![
                Formula::ge(LinExpr::var(x), LinExpr::constant(10)),
                Formula::eq(LinExpr::var(x), LinExpr::var(y)),
            ]),
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(4)),
        ]);
        // `early_pruning` only affects the structural engine, so pin it —
        // with the CDCL default this test would compare CDCL to itself
        let pruned = Solver::with_config(SolverConfig {
            engine: SearchEngine::Structural,
            early_pruning: true,
            ..Default::default()
        })
        .solve(&phi);
        let exhaustive = Solver::with_config(SolverConfig {
            engine: SearchEngine::Structural,
            early_pruning: false,
            ..Default::default()
        })
        .solve(&phi);
        assert!(pruned.is_sat());
        assert!(exhaustive.is_sat());
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
