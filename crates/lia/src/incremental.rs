//! Incremental LIA solving: persistent CDCL(T) sessions with an assertion
//! stack, assumption solving, and clause retention across calls.
//!
//! A one-shot [`crate::solver::Solver`] re-clausifies and re-searches from
//! scratch on every query.  Iterative-refinement callers — the
//! connectivity-cut loop of the tag-automaton encodings, the `¬contains`
//! CEGAR loop, multi-`(check-sat)` SMT-LIB scripts — solve long chains of
//! *almost identical* formulas, each extending the previous one by a cut or
//! a blocking clause.  An [`IncrementalSolver`] keeps everything those
//! re-solves would otherwise rebuild:
//!
//! * the engine's **clausifier state** (atom and gate interning) survives,
//!   so a new increment only clausifies what is genuinely new;
//! * the **clause database** persists — including **learned clauses**, so
//!   conflicts derived in round *n* keep pruning the search in round *n+1*;
//! * **VSIDS activities and saved phases** persist, so the search resumes
//!   where the previous one left off instead of re-warming from nothing;
//! * the **theory state** persists too: the engine's incremental simplex
//!   ([`crate::simplex::IncrementalSimplex`]) keeps its registered atoms,
//!   slack rows and warm basis across solves — root-level theory literals
//!   stay asserted between calls, so a re-solve's leaf checks start from
//!   the previous solution instead of an empty tableau;
//! * an LBD-ranked learned-clause GC keeps unbounded sessions bounded.
//!
//! # Assertion stack
//!
//! [`IncrementalSolver::push`] opens a frame guarded by a fresh *selector*
//! variable `s`: every assertion clause of the frame is extended with `¬s`,
//! and [`IncrementalSolver::solve`] assumes `s` for each live frame.
//! [`IncrementalSolver::pop`] retracts the frame by fixing `¬s` at the
//! root, which permanently satisfies (and lets the GC reclaim) the frame's
//! clauses.  The clause-retention semantics come for free from resolution:
//! a learned clause that resolved against a frame's clauses contains the
//! frame's `¬s` literal, so after the pop it is vacuously true — only
//! lemmas depending exclusively on surviving frames remain active.
//! Tseitin *gate definitions* are globally valid implications (`g → …`)
//! and are deliberately left unguarded: interning may resurrect a gate in
//! a later frame, and its definition must still be in force.
//!
//! # Example
//!
//! ```
//! use posr_lia::formula::Formula;
//! use posr_lia::incremental::IncrementalSolver;
//! use posr_lia::term::{LinExpr, VarPool};
//!
//! let mut pool = VarPool::new();
//! let x = pool.fresh("x");
//! let mut solver = IncrementalSolver::new();
//! solver.assert_formula(&Formula::ge(LinExpr::var(x), LinExpr::constant(0)));
//! assert!(solver.solve().is_sat());
//! solver.push();
//! solver.assert_formula(&Formula::le(LinExpr::var(x), LinExpr::constant(-1)));
//! assert!(solver.solve().is_unsat());
//! solver.pop();
//! assert!(solver.solve().is_sat());
//! ```

use crate::cdcl::{Engine, SolverStats};
use crate::cnf::{BoolVar, Lit, LitOrConst};
use crate::formula::Formula;
use crate::rational::{catch_overflow, OVERFLOW_UNKNOWN};
use crate::solver::{SolverConfig, SolverResult};

/// A persistent CDCL(T) session over a growing formula.
pub struct IncrementalSolver {
    engine: Engine,
    /// Selector variable of every open assertion frame, oldest first.
    frames: Vec<BoolVar>,
    /// A quantified formula was asserted: everything after that is outside
    /// the decidable fragment, every solve answers `Unknown`.
    saw_quantifier: bool,
    /// A theory panic (arithmetic overflow) unwound mid-search; the engine
    /// state is unusable and every further solve answers `Unknown`.
    poisoned: bool,
}

impl Default for IncrementalSolver {
    fn default() -> IncrementalSolver {
        IncrementalSolver::new()
    }
}

impl IncrementalSolver {
    /// A session with the default configuration.
    pub fn new() -> IncrementalSolver {
        IncrementalSolver::with_config(SolverConfig::default())
    }

    /// A session with an explicit configuration (cancellation token,
    /// conflict budget, learned-clause cap, …).
    pub fn with_config(config: SolverConfig) -> IncrementalSolver {
        IncrementalSolver {
            engine: Engine::empty(config),
            frames: Vec::new(),
            saw_quantifier: false,
            poisoned: false,
        }
    }

    /// The number of open assertion frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Conjoins `formula` at the current assertion level: clausified
    /// incrementally into the live database (interning reused), guarded by
    /// the current frame's selector so a later [`IncrementalSolver::pop`]
    /// retracts exactly this increment.
    pub fn assert_formula(&mut self, formula: &Formula) {
        if !formula.is_quantifier_free() {
            self.saw_quantifier = true;
            return;
        }
        let guard = self.frames.last().map(|&s| Lit::negative(s));
        self.engine.assert_nnf(&formula.nnf().simplify(), guard);
    }

    /// Opens a new assertion frame.
    pub fn push(&mut self) {
        let selector = self.engine.fresh_selector();
        self.frames.push(selector);
    }

    /// Retracts the most recent frame; `false` when no frame is open.
    /// Learned clauses that depend only on surviving frames stay active;
    /// the retracted frame's clauses (and the lemmas resolved against
    /// them) become vacuously true and are reclaimed by the next GC pass.
    pub fn pop(&mut self) -> bool {
        match self.frames.pop() {
            Some(selector) => {
                self.engine.add_root_clause(vec![Lit::negative(selector)]);
                true
            }
            None => false,
        }
    }

    /// The literal form of a formula — the handle for
    /// [`IncrementalSolver::solve_under_assumptions`].  Gate definitions
    /// created on the way are added to the database (they constrain
    /// nothing until the literal is assumed or asserted).
    pub fn literal(&mut self, formula: &Formula) -> LitOrConst {
        if !formula.is_quantifier_free() {
            self.saw_quantifier = true;
            return LitOrConst::False;
        }
        self.engine.literal_of_nnf(&formula.nnf().simplify())
    }

    /// Decides the conjunction of every live assertion.
    pub fn solve(&mut self) -> SolverResult {
        self.solve_under_assumptions(&[])
    }

    /// Decides the live assertions under additional assumption literals
    /// (see [`IncrementalSolver::literal`]); `Unsat` means *unsat under
    /// the assumptions* and retracts nothing.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> SolverResult {
        if self.saw_quantifier {
            return SolverResult::Unknown("formula contains quantifiers".to_string());
        }
        if self.poisoned {
            return SolverResult::Unknown(OVERFLOW_UNKNOWN.to_string());
        }
        let mut all: Vec<Lit> = self.frames.iter().map(|&s| Lit::positive(s)).collect();
        all.extend_from_slice(assumptions);
        let engine = &mut self.engine;
        catch_overflow(|| engine.solve(&all)).unwrap_or_else(|reason| {
            // the unwind left trail/environment in an arbitrary state:
            // refuse to reuse the session
            self.poisoned = true;
            SolverResult::Unknown(reason)
        })
    }

    /// Cumulative engine counters for the whole session (conflicts,
    /// decisions, propagations, restarts, learned-clause totals and the
    /// live learned-clause gauge).
    pub fn stats(&self) -> SolverStats {
        self.engine.stats()
    }

    /// The unsat core of the last `Unsat` answer: the subset of the
    /// *caller's* assumption literals the refutation depends on (frame
    /// selectors are filtered out — a core that is empty even though
    /// assumptions were passed means the live assertions alone are
    /// unsatisfiable).  `None` unless the last solve answered `Unsat`.
    pub fn last_unsat_core(&self) -> Option<Vec<Lit>> {
        let core = self.engine.last_core()?;
        let selectors: std::collections::HashSet<BoolVar> = self.frames.iter().copied().collect();
        Some(
            core.iter()
                .copied()
                .filter(|l| !selectors.contains(&l.var()))
                .collect(),
        )
    }

    /// The proof log serialized in the `posr-proof` text format, when the
    /// session was created with `SolverConfig::proof_logging` on.  The
    /// document covers every query of the session; each `Unsat` answer is
    /// sealed with a `final` step `posr-check` can replay.
    pub fn proof(&self) -> Option<String> {
        self.engine.proof().map(|p| p.serialize())
    }

    /// `false` when the engine took a step it cannot certify (a bounded
    /// explanation fall-back): the dumped proof would be rejected by the
    /// checker.  `true` when logging is on and every step so far is
    /// replayable.
    pub fn proof_is_complete(&self) -> bool {
        self.engine.proof().is_some_and(|p| p.is_complete())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{LinExpr, Var, VarPool};

    fn setup() -> (VarPool, Var, Var) {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        (pool, x, y)
    }

    #[test]
    fn incremental_assertions_accumulate() {
        let (_, x, y) = setup();
        let mut solver = IncrementalSolver::new();
        solver.assert_formula(&Formula::ge(LinExpr::var(x), LinExpr::constant(0)));
        assert!(solver.solve().is_sat());
        solver.assert_formula(&Formula::eq(
            LinExpr::var(x) + LinExpr::var(y),
            LinExpr::constant(3),
        ));
        match solver.solve() {
            SolverResult::Sat(m) => assert_eq!(m.value(x) + m.value(y), 3),
            other => panic!("expected sat, got {other:?}"),
        }
        solver.assert_formula(&Formula::le(LinExpr::var(x), LinExpr::constant(-1)));
        assert!(solver.solve().is_unsat());
        // the contradiction was asserted at the root: it is permanent
        assert!(solver.solve().is_unsat());
    }

    #[test]
    fn push_pop_restores_satisfiability() {
        let (_, x, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.assert_formula(&Formula::ge(LinExpr::var(x), LinExpr::constant(0)));
        solver.assert_formula(&Formula::le(LinExpr::var(x), LinExpr::constant(9)));
        assert!(solver.solve().is_sat());
        solver.push();
        solver.assert_formula(&Formula::ge(LinExpr::var(x), LinExpr::constant(10)));
        assert!(solver.solve().is_unsat());
        assert!(solver.pop());
        assert!(solver.solve().is_sat());
        assert!(!solver.pop(), "no frame left");
    }

    #[test]
    fn nested_frames_retract_in_order() {
        let (_, x, y) = setup();
        let mut solver = IncrementalSolver::new();
        solver.assert_formula(&Formula::ge(LinExpr::var(x), LinExpr::constant(0)));
        solver.push();
        solver.assert_formula(&Formula::le(LinExpr::var(x), LinExpr::constant(5)));
        solver.push();
        solver.assert_formula(&Formula::and(vec![
            Formula::ge(LinExpr::var(y), LinExpr::var(x)),
            Formula::ge(LinExpr::var(x), LinExpr::constant(6)),
        ]));
        assert!(solver.solve().is_unsat(), "x ≤ 5 ∧ x ≥ 6");
        assert!(solver.pop());
        assert!(solver.solve().is_sat(), "only x ∈ [0, 5] remains");
        assert!(solver.pop());
        solver.assert_formula(&Formula::ge(LinExpr::var(x), LinExpr::constant(100)));
        assert!(solver.solve().is_sat(), "upper bound was popped");
    }

    #[test]
    fn constant_false_assertion_is_scoped_to_its_frame() {
        let (_, x, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.assert_formula(&Formula::ge(LinExpr::var(x), LinExpr::constant(0)));
        solver.push();
        solver.assert_formula(&Formula::False);
        assert!(solver.solve().is_unsat());
        assert!(solver.pop());
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn assumption_literals_scope_without_frames() {
        let (_, x, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.assert_formula(&Formula::ge(LinExpr::var(x), LinExpr::constant(0)));
        solver.assert_formula(&Formula::le(LinExpr::var(x), LinExpr::constant(4)));
        let even_gap = solver.literal(&Formula::ge(LinExpr::var(x), LinExpr::constant(5)));
        let LitOrConst::Lit(gap) = even_gap else {
            panic!("expected a literal, got {even_gap:?}");
        };
        assert!(solver.solve_under_assumptions(&[gap]).is_unsat());
        assert!(solver.solve().is_sat());
        match solver.solve_under_assumptions(&[gap.negate()]) {
            SolverResult::Sat(m) => assert!(m.value(x) <= 4),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn disjunctive_assertions_share_interned_gates() {
        let (_, x, y) = setup();
        let block = Formula::or(vec![
            Formula::eq(LinExpr::var(x), LinExpr::constant(1)),
            Formula::eq(LinExpr::var(x), LinExpr::constant(2)),
        ]);
        let mut solver = IncrementalSolver::new();
        solver.push();
        solver.assert_formula(&block);
        assert!(solver.solve().is_sat());
        solver.pop();
        // re-asserting the same disjunction after the pop resurrects the
        // interned gates; their definitions must still be in force
        solver.push();
        solver.assert_formula(&block);
        solver.assert_formula(&Formula::eq(LinExpr::var(y), LinExpr::var(x)));
        match solver.solve() {
            SolverResult::Sat(m) => {
                assert!(m.value(x) == 1 || m.value(x) == 2, "x = {}", m.value(x));
                assert_eq!(m.value(x), m.value(y));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn learned_clauses_survive_new_assertions() {
        // an unsat-prone 0/1 system: the first solve learns clauses, a new
        // root assertion arrives, and the session keeps its lemmas
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..6).map(|i| pool.fresh(&format!("v{i}"))).collect();
        let mut solver = IncrementalSolver::new();
        for &v in &vars {
            solver.assert_formula(&Formula::or(vec![
                Formula::eq(LinExpr::var(v), LinExpr::constant(0)),
                Formula::eq(LinExpr::var(v), LinExpr::constant(1)),
            ]));
        }
        solver.assert_formula(&Formula::ge(
            LinExpr::sum_of_vars(vars.iter().copied()),
            LinExpr::constant(5),
        ));
        assert!(solver.solve().is_sat());
        let learned_before = solver.stats().learned_live;
        solver.assert_formula(&Formula::le(
            LinExpr::sum_of_vars(vars.iter().copied()),
            LinExpr::constant(5),
        ));
        assert!(solver.solve().is_sat());
        assert!(
            solver.stats().learned_live >= learned_before,
            "lemmas must survive the new assertion: {} < {learned_before}",
            solver.stats().learned_live
        );
    }

    #[test]
    fn negated_composite_assumption_forces_the_formula_false() {
        // x ∈ [0, 2]; l ⟺ (x = 1 ∨ x = 2).  Assuming ¬l must force x = 0:
        // this needs the *biconditional* gate encoding of `literal` — with
        // one-sided Plaisted–Greenbaum gates the engine could answer Sat
        // with x = 2, a model satisfying the formula assumed false.
        let (_, x, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.assert_formula(&Formula::ge(LinExpr::var(x), LinExpr::constant(0)));
        solver.assert_formula(&Formula::le(LinExpr::var(x), LinExpr::constant(2)));
        let disjunction = Formula::or(vec![
            Formula::eq(LinExpr::var(x), LinExpr::constant(1)),
            Formula::eq(LinExpr::var(x), LinExpr::constant(2)),
        ]);
        let LitOrConst::Lit(l) = solver.literal(&disjunction) else {
            panic!("expected a literal");
        };
        match solver.solve_under_assumptions(&[l.negate()]) {
            SolverResult::Sat(m) => {
                assert!(
                    !m.satisfies(&disjunction),
                    "model satisfies the formula assumed false: x = {}",
                    m.value(x)
                );
                assert_eq!(m.value(x), 0);
            }
            other => panic!("expected sat with x = 0, got {other:?}"),
        }
        // positive polarity still works
        match solver.solve_under_assumptions(&[l]) {
            SolverResult::Sat(m) => assert!(m.satisfies(&disjunction)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn quantified_assertions_yield_unknown() {
        let (_, x, _) = setup();
        let mut solver = IncrementalSolver::new();
        solver.assert_formula(&Formula::forall(
            vec![x],
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
        ));
        assert!(matches!(solver.solve(), SolverResult::Unknown(_)));
    }

    #[test]
    fn literal_of_constant_formulas() {
        let mut solver = IncrementalSolver::new();
        assert_eq!(solver.literal(&Formula::True), LitOrConst::True);
        assert_eq!(solver.literal(&Formula::False), LitOrConst::False);
    }
}
