//! `posr`: a reproduction of *"A Uniform Framework for Handling Position
//! Constraints in String Solving"* (Chen, Havlena, Hečko, Holík, Lengál —
//! PLDI 2025), grown into a concurrent portfolio solving engine.
//!
//! This facade crate re-exports every layer of the workspace:
//!
//! ```text
//!                 ┌──────────────┐   ┌───────────────┐
//!   SMT-LIB text ─▶  posr-smtfmt │   │ posr-portfolio │◀─ batches, races,
//!                 └──────┬───────┘   └───────┬───────┘   cancellation
//!                        ▼                   ▼
//!                 ┌──────────────────────────────────┐
//!                 │            posr-core             │
//!                 │ normalise ▶ monadic ▶ position   │
//!                 └───┬───────────────┬──────────┬───┘
//!                     ▼               ▼          ▼
//!              ┌────────────┐  ┌────────────┐ ┌──────────┐
//!              │posr-automata│ │ posr-tagauto│ │ posr-lia │
//!              └────────────┘  └────────────┘ └──────────┘
//! ```
//!
//! * [`automata`] — NFAs, regex compilation, Parikh images, flatness, the
//!   shared pattern-keyed and content-keyed automaton caches,
//! * [`lia`] — the LIA solver with cooperative cancellation: the
//!   clause-learning CDCL(T) engine and the incremental layer
//!   (`lia::incremental`: persistent sessions, push/pop, assumptions),
//! * [`tagauto`] — tag automata and the position-constraint encodings,
//! * [`core`] — the solving pipeline (with the incremental CEGAR loops and
//!   the `SolverSession` assertion stack) and the baseline solvers,
//! * [`smtfmt`] — the SMT-LIB-flavoured front end with strategy hints,
//!   including the `run_script` command stream (`push`/`pop`, multiple
//!   `check-sat`, `get-model`),
//! * [`bench`](mod@bench) — workload generators and the evaluation harness,
//! * [`portfolio`] — the portfolio engine (one lane by default, explicit
//!   races) and the concurrent batch driver.
//!
//! # Quick start
//!
//! ```
//! use posr::core::{Answer, StringSolver};
//! use posr::core::ast::{StringFormula, StringTerm};
//! use posr::portfolio::PortfolioSolver;
//!
//! let formula = StringFormula::new()
//!     .in_re("x", "(ab)*")
//!     .in_re("y", "(ba)*")
//!     .diseq(StringTerm::var("x"), StringTerm::var("y"))
//!     .len_eq("x", "y");
//!
//! // sequential pipeline
//! assert!(StringSolver::new().solve(&formula).is_sat());
//! // the default portfolio: the same pipeline as one lane on this thread
//! // (`PortfolioSolver::with_strategies` builds a race of several)
//! assert!(PortfolioSolver::new().solve(&formula).is_sat());
//! ```

pub use posr_automata as automata;
pub use posr_bench as bench;
pub use posr_core as core;
pub use posr_lia as lia;
pub use posr_portfolio as portfolio;
pub use posr_smtfmt as smtfmt;
pub use posr_tagauto as tagauto;
