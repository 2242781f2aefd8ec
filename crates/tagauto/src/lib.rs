//! Tag automata and the LIA encodings of position constraints.
//!
//! This crate implements Sections 4–7 of *"A Uniform Framework for Handling
//! Position Constraints in String Solving"* (PLDI 2025):
//!
//! * [`tags`] — the tag vocabulary (`⟨S,a⟩`, `⟨L,x⟩`, `⟨Pᵢ,x⟩`,
//!   `⟨Mᵢ,x,D,s,a⟩`, `⟨Cᵢ,x,D,s⟩`) and string-variable identifiers,
//! * [`ta`] — tag automata, the `LenTag` decoration of an NFA and the
//!   ε-concatenation `A∘` of the per-variable automata (Sec. 4),
//! * [`parikh_tag`] — the Parikh formula `PF(T)` (Appendix A) and the Parikh
//!   tag formula `PF_tag(T)` (Eq. 2),
//! * [`system`] — the general construction with `2K+1` copies, copy tags and
//!   the consistency formulas `φ_Fair`, `φ_Consistent`, `φ_Copies`
//!   (Sec. 5.3, Sec. 6 and Appendix C); used with `K = 1` it coincides with
//!   the single-predicate construction `A^II` of Sec. 5.2 (which subsumes
//!   the two-variable `A^I` of Sec. 5.1).  [`system::CutLoop`] is the one
//!   loop that turns its Parikh models into runs: it adds the connectivity
//!   constraints of Appendix A lazily, as cuts,
//! * [`system_naive`] — the naive mismatch-order enumeration the paper argues
//!   against in Sec. 5.3 (the `2^Θ(n log n)` ablation baseline),
//! * [`onecounter_diseq`] — the PTime reduction of a single disequality to
//!   0-reachability in a one-counter automaton (Sec. 7.1 and Appendix B).
//!
//! The crate is deliberately independent of the string-formula front end: its
//! inputs are lists of *occurrences* of string variables together with one
//! NFA per variable, exactly the `R′ ∧ I′ ∧ P′` interface of Sec. 3.

pub mod cache;
pub mod onecounter_diseq;
pub mod parikh_tag;
pub mod system;
pub mod system_naive;
pub mod ta;
pub mod tags;

pub use system::{
    Connected, CutLoop, PositionConstraint, PredicateKind, SystemEncoder, SystemEncoding,
};
pub use ta::TagAutomaton;
pub use tags::{Side, StrVar, Tag, VarTable};
