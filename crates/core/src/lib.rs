//! `posr-core`: a string-constraint solver built around the uniform
//! framework for position constraints of Chen, Havlena, Hečko, Holík and
//! Lengál (PLDI 2025).
//!
//! The crate accepts conjunctions of string literals — word equations,
//! regular memberships, length constraints and *position constraints*
//! (disequalities, `¬prefixof`, `¬suffixof`, `str.at`, `¬str.at`,
//! `¬contains`) — and decides satisfiability with the pipeline of Sec. 3 of
//! the paper:
//!
//! 1. [`normal`] rewrites the input into the normal form `E ∧ R ∧ I ∧ P`,
//! 2. [`monadic`] processes the word equations `E` into a disjunction of
//!    monadic decompositions (refined regular constraints plus a substitution
//!    map), a simplified stabilisation procedure in the spirit of the paper's
//!    reference \[24\],
//! 3. [`position`] encodes `R′ ∧ I′ ∧ P′` into linear integer arithmetic via
//!    the tag automata of `posr-tagauto` and discharges the result with the
//!    DPLL(T) LIA solver of `posr-lia`, handling `¬contains` with a
//!    model-based instantiation loop ([`notcontains`]),
//! 4. models are mapped back through the substitution and re-validated
//!    against the original formula before being reported.
//!
//! Three baseline solvers ([`baselines`]) reproduce the comparison points of
//! the paper's evaluation: guess-and-check enumeration (cvc5-like), the
//! naive mismatch-order encoding (the pre-copy-tag automata strategy) and a
//! length-abstraction solver that gives up on genuine position reasoning.
//! They implement [`baselines::Strategy`], the one solver interface that
//! the portfolio of `posr-portfolio` races and the evaluation harness
//! drives.
//!
//! # Quick start
//!
//! ```
//! use posr_core::ast::{StringFormula, StringTerm};
//! use posr_core::solver::{Answer, StringSolver};
//!
//! // x ∈ (ab)*, y ∈ (ba)*, x ≠ y, len(x) = len(y) — satisfiable, e.g. by
//! // x = "ab", y = "ba" (over (ab)* on both sides it would be unsat: equal
//! // lengths force equal words)
//! let formula = StringFormula::new()
//!     .in_re("x", "(ab)*")
//!     .in_re("y", "(ba)*")
//!     .diseq(StringTerm::var("x"), StringTerm::var("y"))
//!     .len_eq("x", "y");
//! let answer = StringSolver::new().solve(&formula);
//! match answer {
//!     Answer::Sat(model) => {
//!         assert_ne!(model.string("x"), model.string("y"));
//!         assert_eq!(model.string("x").len(), model.string("y").len());
//!     }
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

pub mod ast;
pub mod baselines;
pub mod monadic;
pub mod normal;
pub mod notcontains;
pub mod position;
pub mod session;
pub mod solver;

pub use ast::{StringAtom, StringFormula, StringTerm};
pub use posr_lia::cancel::CancelToken;
pub use session::SolverSession;
pub use solver::{Answer, SolverOptions, StringModel, StringSolver};
