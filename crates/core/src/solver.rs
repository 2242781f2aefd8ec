//! The public solver API: the full pipeline from surface formulas to
//! validated models.

use std::collections::BTreeMap;
use std::time::Instant;

use posr_lia::cancel::CancelToken;

use crate::ast::StringFormula;
use crate::monadic::{self, MonadicCase};
use crate::normal::{self, NormalForm, PositionAtom, PositionKind};
use crate::position::{
    solve_position, PositionOptions, PositionOutcome, PositionProblem, ProofSink,
};

/// A model of a string formula: concrete strings and integers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StringModel {
    strings: BTreeMap<String, String>,
    ints: BTreeMap<String, i64>,
}

impl StringModel {
    /// Creates a model from explicit assignments.
    pub fn new(strings: BTreeMap<String, String>, ints: BTreeMap<String, i64>) -> StringModel {
        StringModel { strings, ints }
    }

    /// The value of a string variable (ε if unassigned).
    pub fn string(&self, var: &str) -> &str {
        self.strings.get(var).map(String::as_str).unwrap_or("")
    }

    /// The value of an integer variable (0 if unassigned).
    pub fn int(&self, var: &str) -> i64 {
        self.ints.get(var).copied().unwrap_or(0)
    }

    /// All string assignments.
    pub fn strings(&self) -> &BTreeMap<String, String> {
        &self.strings
    }

    /// All integer assignments.
    pub fn ints(&self) -> &BTreeMap<String, i64> {
        &self.ints
    }

    /// Checks the model against a formula.
    pub fn satisfies(&self, formula: &StringFormula) -> bool {
        formula.eval(&self.strings, &self.ints)
    }
}

/// The answer of the solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Satisfiable, with a validated model.
    Sat(StringModel),
    /// Unsatisfiable.
    Unsat,
    /// Not decided within the solver's fragment or resource limits.
    Unknown(String),
}

impl Answer {
    /// Returns `true` for [`Answer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Answer::Sat(_))
    }

    /// Returns `true` for [`Answer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Answer::Unsat)
    }

    /// Returns `true` for [`Answer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, Answer::Unknown(_))
    }

    /// The model of a `Sat` answer.
    pub fn model(&self) -> Option<&StringModel> {
        match self {
            Answer::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// What the caller controls of a solve.
#[derive(Clone, Debug, Default)]
pub struct SolverOptions {
    /// Optional wall-clock deadline for the whole query.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation token for the whole query: polled between
    /// monadic cases here and threaded down through the position procedure
    /// into the DPLL(T) branch points.  The portfolio engine fires it to
    /// abandon losing strategies.
    pub cancel: CancelToken,
    /// When set, every certified LIA-level Unsat pushes its serialized
    /// proof here (see [`PositionOptions::proof_sink`]).
    pub proof_sink: Option<ProofSink>,
}

/// The string solver implementing the paper's pipeline.
#[derive(Clone, Debug, Default)]
pub struct StringSolver {
    options: SolverOptions,
}

impl StringSolver {
    /// Creates a solver with default options.
    pub fn new() -> StringSolver {
        StringSolver::default()
    }

    /// Creates a solver with explicit options.
    pub fn with_options(options: SolverOptions) -> StringSolver {
        StringSolver { options }
    }

    /// The options in use.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Decides satisfiability of a conjunction of string atoms.
    ///
    /// `Sat` answers always carry a model that has been re-validated against
    /// the original formula; `Unsat` is reported only when every monadic case
    /// was refuted without hitting a resource limit.
    pub fn solve(&self, formula: &StringFormula) -> Answer {
        // fold the query-level deadline and cancellation flag into one token
        // and hand the same token to the position procedure
        let token = self
            .options
            .cancel
            .merged_with_deadline(self.options.deadline);
        // attach the budget so allocation charges from this thread (clause
        // DB, tableau, proof sink, automaton cache) land on this solve
        let _budget_scope = token.budget().map(|budget| budget.attach());
        let position_options = PositionOptions {
            proof_sink: self.options.proof_sink.clone(),
            cancel: token.clone(),
        };

        let _solve_span = posr_obs::span!("core", "solve");
        // the arithmetic substrate signals unrecoverable overflow by panic;
        // after the BigInt slow lane has given up, degrade to Unknown here
        // rather than aborting the caller
        match posr_lia::catch_overflow(|| self.solve_phases(formula, &token, &position_options)) {
            Ok(answer) => answer,
            Err(reason) => Answer::Unknown(reason),
        }
    }

    fn solve_phases(
        &self,
        formula: &StringFormula,
        token: &posr_lia::cancel::CancelToken,
        position_options: &PositionOptions,
    ) -> Answer {
        let nf = {
            let _span = posr_obs::span!("core", "normalize");
            match normal::normalize(formula) {
                Ok(nf) => nf,
                Err(e) => return Answer::Unknown(e.to_string()),
            }
        };
        let cases = {
            let _span = posr_obs::span!("core", "decompose");
            match monadic::decompose(&nf, monadic::DEFAULT_CASE_LIMIT) {
                Ok(cases) => cases,
                Err(e) => return Answer::Unknown(e.to_string()),
            }
        };
        if cases.is_empty() {
            return Answer::Unsat;
        }

        let mut saw_unknown: Option<String> = None;
        for (case_index, case) in cases.iter().enumerate() {
            if token.is_cancelled() {
                return Answer::Unknown(token.unknown_reason());
            }
            let _span = posr_obs::span("core", format!("case:{case_index}"));
            match self.solve_case(formula, &nf, case, position_options) {
                Answer::Sat(model) => return Answer::Sat(model),
                Answer::Unsat => {}
                Answer::Unknown(reason) => saw_unknown = Some(reason),
            }
        }
        match saw_unknown {
            Some(reason) => Answer::Unknown(reason),
            None => Answer::Unsat,
        }
    }

    fn solve_case(
        &self,
        original: &StringFormula,
        nf: &NormalForm,
        case: &MonadicCase,
        position_options: &PositionOptions,
    ) -> Answer {
        // `str.at` left-hand variables must survive substitution: if the
        // variable was eliminated by an equation we fall outside the fragment
        let eliminated_str_at = nf.positions.iter().any(|p| {
            matches!(p.kind, PositionKind::StrAt { .. })
                && p.left.iter().any(|v| case.substitution.contains_key(v))
        });
        if eliminated_str_at {
            return Answer::Unknown(
                "str.at applied to a variable eliminated by an equation".to_string(),
            );
        }
        let positions: Vec<PositionAtom> =
            nf.positions.iter().map(|p| p.substituted(case)).collect();
        let lengths: Vec<_> = nf
            .lengths
            .iter()
            .map(|(l, c, r)| (case.apply_len(l), *c, case.apply_len(r)))
            .collect();

        let problem = PositionProblem {
            languages: &case.languages,
            positions: &positions,
            lengths: &lengths,
        };
        match solve_position(&problem, position_options) {
            PositionOutcome::Unsat => Answer::Unsat,
            PositionOutcome::Unknown(reason) => Answer::Unknown(reason),
            PositionOutcome::Sat(strings, ints) => {
                let strings = nf.reported_strings(strings, &case.substitution);
                let model = StringModel::new(strings, ints);
                if model.satisfies(original) {
                    Answer::Sat(model)
                } else {
                    // a failed validation indicates an internal soundness bug;
                    // report Unknown rather than a wrong answer
                    Answer::Unknown("internal error: model failed validation".to_string())
                }
            }
        }
    }
}

/// Convenience helper used by examples and the benchmark harness: renders an
/// answer as the usual SMT-LIB result string.
pub fn answer_status(answer: &Answer) -> &'static str {
    match answer {
        Answer::Sat(_) => "sat",
        Answer::Unsat => "unsat",
        Answer::Unknown(_) => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{LenCmp, LenTerm, StringTerm};

    #[test]
    fn diseq_with_equal_lengths_sat() {
        // NB: y ranges over (ba)*, not (ab)* — two (ab)* words of equal
        // length are necessarily equal, so the (ab)*/(ab)* variant is unsat
        let f = StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("y", "(ba)*")
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "y");
        match StringSolver::new().solve(&f) {
            Answer::Sat(model) => {
                assert!(model.satisfies(&f));
                assert_ne!(model.string("x"), model.string("y"));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn flagship_loopy_diseq_equal_length_unsat() {
        // the paper's flagship unsat instance: two (ab)* words of equal
        // length are necessarily equal.  Refuting it needs the CDCL(T)
        // engine's divisibility reasoning over the loopy Parikh flow —
        // the seed solver resource-outed here from day one (see ROADMAP)
        let f = StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("y", "(ab)*")
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "y");
        assert_eq!(StringSolver::new().solve(&f), Answer::Unsat);
    }

    #[test]
    fn diseq_of_identical_singletons_unsat() {
        let f = StringFormula::new()
            .in_re("x", "abc")
            .diseq(StringTerm::var("x"), StringTerm::lit("abc"));
        assert_eq!(StringSolver::new().solve(&f), Answer::Unsat);
    }

    #[test]
    fn equation_feeds_position_constraint() {
        // w = x·y, w ∈ (ab)*, x ≠ "ab" — satisfiable (e.g. w = "", x = "", y = "")
        let f = StringFormula::new()
            .in_re("w", "(ab)*")
            .eq(
                StringTerm::var("w"),
                StringTerm::concat(vec![StringTerm::var("x"), StringTerm::var("y")]),
            )
            .diseq(StringTerm::var("x"), StringTerm::lit("ab"));
        match StringSolver::new().solve(&f) {
            Answer::Sat(model) => assert!(model.satisfies(&f)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn positive_prefix_with_negative_prefix_conflict() {
        let f = StringFormula::new()
            .in_re("x", "ab")
            .in_re("y", "abab")
            .atom(crate::ast::StringAtom::PrefixOf {
                needle: StringTerm::var("x"),
                haystack: StringTerm::var("y"),
                negated: false,
            })
            .not_prefixof(StringTerm::var("x"), StringTerm::var("y"));
        assert_eq!(StringSolver::new().solve(&f), Answer::Unsat);
    }

    #[test]
    fn length_constraints_interact_with_membership() {
        let f = StringFormula::new().in_re("x", "(ab)*").length(
            LenTerm::len("x"),
            LenCmp::Eq,
            LenTerm::constant(7),
        );
        assert_eq!(StringSolver::new().solve(&f), Answer::Unsat);
        let f2 = StringFormula::new().in_re("x", "(ab)*").length(
            LenTerm::len("x"),
            LenCmp::Eq,
            LenTerm::constant(8),
        );
        assert!(StringSolver::new().solve(&f2).is_sat());
    }

    #[test]
    fn not_contains_primitive_word_unsat() {
        // ¬contains(x·x, x) is unsat for any non-empty candidate? actually for
        // any x at all: x occurs in xx.
        let f = StringFormula::new().in_re("x", "(ab)*").not_contains(
            StringTerm::concat(vec![StringTerm::var("x"), StringTerm::var("x")]),
            StringTerm::var("x"),
        );
        assert_eq!(StringSolver::new().solve(&f), Answer::Unsat);
    }

    #[test]
    fn not_contains_sat_with_witness() {
        let f = StringFormula::new()
            .in_re("x", "(ab)+")
            .in_re("y", "(ba)+")
            .not_contains(StringTerm::var("y"), StringTerm::var("x"));
        match StringSolver::new().solve(&f) {
            Answer::Sat(model) => assert!(model.satisfies(&f)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unknown_on_unsupported_equations() {
        let f = StringFormula::new().eq(
            StringTerm::concat(vec![StringTerm::var("x"), StringTerm::var("y")]),
            StringTerm::concat(vec![StringTerm::var("y"), StringTerm::var("x")]),
        );
        assert!(StringSolver::new().solve(&f).is_unknown());
    }

    #[test]
    fn str_at_constraint_roundtrip() {
        let f = StringFormula::new()
            .in_re("c", "b")
            .in_re("y", "(ab)*")
            .atom(crate::ast::StringAtom::StrAt {
                var: "c".to_string(),
                term: StringTerm::var("y"),
                index: LenTerm::int_var("i"),
                negated: false,
            });
        match StringSolver::new().solve(&f) {
            Answer::Sat(model) => {
                assert!(model.satisfies(&f));
                let i = model.int("i");
                let y = model.string("y").to_string();
                assert_eq!(y.chars().nth(i as usize), Some('b'));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
