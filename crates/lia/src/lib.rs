//! Linear integer arithmetic (LIA) for the `posr` string solver.
//!
//! The decision procedure of *"A Uniform Framework for Handling Position
//! Constraints in String Solving"* reduces position constraints over regular
//! languages to (possibly quantified) LIA formulas built from Parikh images
//! of tag automata.  This crate is the arithmetic substrate of that
//! reduction:
//!
//! * [`rational`] — exact rational arithmetic over checked `i128`,
//! * [`term`] — integer variables and linear expressions,
//! * [`formula`] — quantifier-free and ∀/∃-quantified LIA formulas with
//!   evaluation, substitution and normal forms,
//! * [`simplex`] — the **incremental Dutertre–de Moura simplex**: a
//!   persistent, backtrackable tableau ([`simplex::IncrementalSimplex`])
//!   with one-time atom registration, O(1) bound assertions, warm-started
//!   pivoting and Farkas-style infeasibility cores (one-shot wrappers
//!   included),
//! * [`bounds`] — interval (bound) propagation with integer rounding on
//!   one backtrackable bound trail that records which constraint produced
//!   every bound, the cheap propagation layer of the CDCL(T) engine,
//! * [`cnf`] — clausification for the CDCL engine: structural hashing,
//!   Plaisted–Greenbaum Tseitin encoding, half-space atom canonicalisation,
//! * [`cdcl`] — the clause-learning **CDCL(T)** search engine (trail,
//!   two-watched-literal propagation, 1UIP learning, backjumping, Luby
//!   restarts, VSIDS), the one search engine of [`solver::Solver`] and the
//!   only integer search: a fractional rational model is split by
//!   deciding a fresh branch atom `x ≤ ⌊β(x)⌋`.  The theory side is
//!   equally incremental — **theory propagation** with lazy explanations
//!   and the persistent simplex asserted in lock-step with the trail — and
//!   the engine is persistent, exporting cumulative [`cdcl::SolverStats`],
//! * [`incremental`] — the **incremental solving layer**: persistent
//!   [`incremental::IncrementalSolver`] sessions with an assertion stack
//!   (`push`/`pop` via selector-guarded frames), assumption solving, and
//!   learned-clause retention across calls — what the CEGAR loops and the
//!   SMT-LIB `(check-sat)` streams run on,
//! * [`explain`] / [`eqelim`] — theory-conflict *explanations*:
//!   deletion-minimised cores, and the GCD/elimination refutation of
//!   parity-infeasible equality systems,
//! * [`solver`] — the public satisfiability API for quantifier-free LIA
//!   formulas with arbitrary Boolean structure (the stand-in for the LIA
//!   backend of Z3 used by Z3-Noodler in the paper's implementation), a
//!   thin front end to the CDCL(T) engine.
//!
//! # The explanation interface
//!
//! The CDCL(T) loop asks the theory three questions, each answered with a
//! *core* — indices of a (small, ideally minimal) jointly-infeasible subset
//! of the asserted constraints — which the engine negates into a learned
//! clause:
//!
//! 1. is the asserted conjunction bound-consistent?
//!    ([`bounds::BoundEnv`]; cores read off the trail by
//!    [`bounds::BoundEnv::conflict_core`]),
//! 2. does the equality subsystem admit integer solutions?
//!    ([`eqelim::conflict_core_pinned`], after substituting bound-pinned
//!    variables, whose pins [`bounds::BoundEnv::explain_pinned`] explains),
//! 3. is it rationally feasible at a leaf?
//!    ([`simplex::IncrementalSimplex::check`] Farkas cores).  Integer
//!    infeasibility needs no fourth question: a fractional leaf model is
//!    split by a branch decision, and each refuted branch is answered by
//!    one of the three.
//!
//! # Example
//!
//! ```
//! use posr_lia::formula::Formula;
//! use posr_lia::term::{LinExpr, VarPool};
//! use posr_lia::solver::{Solver, SolverResult};
//!
//! let mut pool = VarPool::new();
//! let x = pool.fresh("x");
//! let y = pool.fresh("y");
//! // x + y = 5  ∧  x ≥ 2  ∧  y ≥ 2
//! let phi = Formula::and(vec![
//!     Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(5)),
//!     Formula::ge(LinExpr::var(x), LinExpr::constant(2)),
//!     Formula::ge(LinExpr::var(y), LinExpr::constant(2)),
//! ]);
//! let result = Solver::new().solve(&phi);
//! match result {
//!     SolverResult::Sat(model) => {
//!         assert_eq!(model.value(x) + model.value(y), 5);
//!     }
//!     _ => panic!("expected sat"),
//! }
//! ```

pub mod bigint;
pub mod bounds;
pub mod cancel;
pub mod cdcl;
pub mod cnf;
pub mod eqelim;
pub mod explain;
pub mod formula;
pub mod incremental;
pub mod proof;
pub mod rational;
pub mod simplex;
pub mod solver;
pub mod term;

pub use cancel::CancelToken;
pub use cdcl::{global_stats, scope_stats, SolverStats};
pub use cnf::{Lit, LitOrConst};
pub use formula::{Atom, Cmp, Formula};
pub use incremental::IncrementalSolver;
pub use proof::{CertKind, ProofBuilder, ProofStep};
pub use rational::{catch_overflow, Rat, OVERFLOW_MSG, OVERFLOW_UNKNOWN};
pub use solver::{Model, Solver, SolverConfig, SolverResult};
pub use term::{LinExpr, Var, VarPool};
