//! Workload generators and the benchmark harness reproducing the shape of
//! the paper's evaluation (Table 1, Fig. 6, Fig. 7) plus the ablation
//! experiments of DESIGN.md.
//!
//! The original benchmark sets (biopython / django / thefuck, obtained by
//! symbolic execution with PyCT, and the hand-crafted position-hard set) are
//! not redistributable; [`gen`] synthesises families with the same
//! statistical character at laptop scale — see DESIGN.md §2 for the
//! substitution argument.  [`runner`] drives the production solver and the
//! three baselines over those families with a per-instance timeout, and
//! [`report`] renders Table-1-style rows and the CSV series behind the
//! scatter (Fig. 6) and cactus (Fig. 7) plots; [`args`] is the command
//! line of the bins that print them.

pub mod args;
pub mod gen;
pub mod json;
pub mod obsreport;
pub mod report;
pub mod runner;

pub use args::BinArgs;
pub use gen::{suite, suite_names, Instance};
pub use runner::{run_suite, InstanceResult, SolverKind, Status};
