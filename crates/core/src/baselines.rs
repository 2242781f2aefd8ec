//! The [`Strategy`] interface, and the baseline solvers that implement it
//! as comparison points in the evaluation harness.
//!
//! The baselines stand in for the competing strategies discussed in the
//! paper (Sec. 8 / Sec. 9), so that every experiment is reproducible from
//! this repository alone:
//!
//! * [`EnumerationSolver`] — guess-and-check: enumerate/sample words from the
//!   regular languages with an increasing length bound and evaluate the whole
//!   formula concretely.  Fast on satisfiable instances, never terminates on
//!   unsatisfiable ones except by its bound (the behaviour the paper
//!   attributes to cvc5's strength on satisfiable position constraints).
//! * [`NaiveOrderSolver`] — the automata-based strategy *without* the paper's
//!   contribution: position constraints are still encoded via tag automata,
//!   but mismatch orders are enumerated explicitly (the `2^Θ(K log K)`
//!   construction of Sec. 5.3) and `¬contains` gets no instantiation loop.
//! * [`LengthAbstractionSolver`] — an incomplete solver that only reasons
//!   about lengths: it answers `Sat`/`Unsat` when the length abstraction is
//!   conclusive and `Unknown` otherwise, mirroring solvers that time out or
//!   give up on genuine position reasoning.
//!
//! The baselines share the production pipeline's translations:
//! [`NaiveOrderSolver`] maps each position atom to its tag-automaton
//! constraint as [`crate::position`] does, [`LengthAbstractionSolver`]
//! encodes the same per-variable length counters and translates length
//! atoms into LIA with the same helper, and [`EnumerationSolver`] reports
//! its models with the same step (`NormalForm::reported_strings`).
//!
//! None of them is in the default portfolio of `posr-portfolio`, which runs
//! the production pipeline alone.  They are what `table1`, `fig6` and
//! `fig7` compare against, and a portfolio built with `with_strategies`
//! races them: the chaos gate and the ablation's traced race run
//! [`EnumerationSolver`] against the production pipeline that way.

use std::collections::BTreeMap;

use posr_automata::sample::Sampler;
use posr_automata::Nfa;
use posr_lia::cancel::CancelToken;
use posr_lia::formula::Formula;
use posr_lia::solver::{Solver, SolverConfig};
use posr_lia::term::VarPool;
use posr_tagauto::system::{PositionConstraint, SystemEncoder};
use posr_tagauto::system_naive::{encode_naive, solve_naive};
use posr_tagauto::tags::{StrVar, VarTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ast::{regex_language, StringAtom, StringFormula};
use crate::monadic;
use crate::normal::{self, PositionKind};
use crate::position::{length_eqs, system_constraint, LiaLengths};
use crate::solver::{Answer, StringModel};

/// One decision procedure over string formulas: what the portfolio races
/// (as `posr_portfolio::Strategy`) and what the evaluation harness drives.
///
/// Implementations must poll `cancel` at their branch points: a race joins
/// every lane before it returns, so a strategy that ignores its token holds
/// the whole race hostage.
pub trait Strategy: Send + Sync {
    /// Display name; also what tables, CSV output and SMT-LIB strategy
    /// hints use.
    fn name(&self) -> &'static str;
    /// Decides the formula, polling `cancel` (flag and/or deadline) at every
    /// branch point and answering `Unknown` once it fires.
    fn solve(&self, formula: &StringFormula, cancel: &CancelToken) -> Answer;
}

fn lia_with_cancel(cancel: &CancelToken) -> Solver {
    Solver::with_config(SolverConfig {
        cancel: cancel.clone(),
        ..SolverConfig::default()
    })
}

/// Maximum word length [`EnumerationSolver`] tries per variable.
const ENUMERATION_MAX_LEN: usize = 8;
/// Random samples [`EnumerationSolver`] draws per length bound.
const ENUMERATION_SAMPLES_PER_BOUND: usize = 400;
/// [`EnumerationSolver`]'s RNG seed (the baseline is deterministic).
const ENUMERATION_SEED: u64 = 0xC0FFEE;

/// Guess-and-check enumeration (cvc5-like behaviour on satisfiable inputs).
#[derive(Clone, Debug, Default)]
pub struct EnumerationSolver;

impl Strategy for EnumerationSolver {
    fn name(&self) -> &'static str {
        "enumeration"
    }

    fn solve(&self, formula: &StringFormula, cancel: &CancelToken) -> Answer {
        let Ok(nf) = normal::normalize(formula) else {
            return Answer::Unknown("normalisation failed".to_string());
        };
        let mut rng = StdRng::seed_from_u64(ENUMERATION_SEED);
        let samplers: Vec<(&String, Sampler)> = nf
            .languages
            .iter()
            .map(|(v, nfa)| (v, Sampler::new(nfa)))
            .collect();
        // each candidate is checked against the whole formula: compile its
        // regexes once here, not once per candidate as `StringAtom::eval`
        // would
        let languages: Vec<Option<Nfa>> = formula
            .atoms
            .iter()
            .map(|atom| match atom {
                StringAtom::InRe { regex, .. } => Some(regex_language(regex)),
                _ => None,
            })
            .collect();
        let holds = |strings: &BTreeMap<String, String>, ints: &BTreeMap<String, i64>| {
            formula
                .atoms
                .iter()
                .zip(&languages)
                .all(|(atom, language)| match (atom, language) {
                    (StringAtom::InRe { var, negated, .. }, Some(nfa)) => {
                        nfa.accepts_str(strings.get(var).map_or("", String::as_str)) != *negated
                    }
                    _ => atom.eval(strings, ints),
                })
        };
        // integer variables: `str.at` indices and length atoms
        let int_names: Vec<String> = formula
            .atoms
            .iter()
            .flat_map(|a| match a {
                StringAtom::StrAt { index, .. } => index.int_coeffs.keys().cloned().collect(),
                StringAtom::Length { lhs, rhs, .. } => lhs
                    .int_coeffs
                    .keys()
                    .chain(rhs.int_coeffs.keys())
                    .cloned()
                    .collect(),
                _ => Vec::new(),
            })
            .collect();
        // deterministic pass over short words first, then random sampling
        for bound in 1..=ENUMERATION_MAX_LEN {
            for _ in 0..ENUMERATION_SAMPLES_PER_BOUND {
                if cancel.is_cancelled() {
                    return Answer::Unknown(cancel.unknown_reason());
                }
                let mut strings: BTreeMap<String, String> = BTreeMap::new();
                let mut feasible = true;
                for (v, sampler) in &samplers {
                    match sampler.sample(bound, &mut rng) {
                        Some(word) => {
                            strings
                                .insert((*v).clone(), posr_automata::nfa::symbols_to_string(&word));
                        }
                        None => {
                            feasible = false;
                            break;
                        }
                    }
                }
                if !feasible {
                    continue;
                }
                // integer variables: try the values implied by lengths (0 is a
                // common default; `str.at` indices are searched over a small range)
                let ints = BTreeMap::new();
                if holds(&strings, &ints) {
                    let reported = nf.reported_strings(strings, &BTreeMap::new());
                    return Answer::Sat(StringModel::new(reported, ints));
                }
                // search small index values for formulas with integer variables
                if !int_names.is_empty() {
                    for value in 0..=(bound as i64) {
                        let ints: BTreeMap<String, i64> =
                            int_names.iter().map(|n| (n.clone(), value)).collect();
                        if holds(&strings, &ints) {
                            let reported = nf.reported_strings(strings, &BTreeMap::new());
                            return Answer::Sat(StringModel::new(reported, ints));
                        }
                    }
                }
            }
        }
        Answer::Unknown("enumeration bound exhausted".to_string())
    }
}

/// The naive mismatch-order automata baseline (no copy tags, no sharing).
#[derive(Clone, Debug, Default)]
pub struct NaiveOrderSolver;

impl Strategy for NaiveOrderSolver {
    fn name(&self) -> &'static str {
        "naive-order"
    }

    fn solve(&self, formula: &StringFormula, cancel: &CancelToken) -> Answer {
        let Ok(nf) = normal::normalize(formula) else {
            return Answer::Unknown("normalisation failed".to_string());
        };
        let Ok(cases) = monadic::decompose(&nf, monadic::DEFAULT_CASE_LIMIT) else {
            return Answer::Unknown("unsupported equations".to_string());
        };
        if cases.is_empty() {
            return Answer::Unsat;
        }
        let mut saw_unknown = false;
        for case in &cases {
            if cancel.is_cancelled() {
                return Answer::Unknown(cancel.unknown_reason());
            }
            let mut vars = VarTable::new();
            let mut automata: BTreeMap<StrVar, posr_automata::Nfa> = BTreeMap::new();
            for (name, nfa) in &case.languages {
                let v = vars.intern(name);
                automata.insert(v, nfa.remove_epsilon().trim());
            }
            // only disequalities, ¬prefix and ¬suffix are supported; anything
            // else (str.at, ¬contains, length constraints) makes this baseline
            // give up, which is part of what the comparison measures.
            let constraints: Option<Vec<PositionConstraint>> = nf
                .positions
                .iter()
                .map(|p| system_constraint(&p.substituted(case), &mut vars, |_| None))
                .collect();
            let Some(constraints) = constraints.filter(|_| nf.lengths.is_empty()) else {
                return Answer::Unknown("outside the naive baseline's fragment".to_string());
            };
            if constraints.len() > 3 {
                return Answer::Unknown("too many constraints for order enumeration".to_string());
            }
            let mut pool = VarPool::new();
            let Some(naive) = encode_naive(&constraints, &automata, &vars, &mut pool, cancel)
            else {
                return Answer::Unknown(cancel.unknown_reason());
            };
            match solve_naive(&naive, cancel) {
                posr_lia::solver::SolverResult::Sat(_) => {
                    // the naive baseline does not reconstruct models; report
                    // satisfiability only (it is a comparison point, not the
                    // production solver)
                    return Answer::Sat(StringModel::default());
                }
                posr_lia::solver::SolverResult::Unsat => {}
                posr_lia::solver::SolverResult::Unknown(_) => saw_unknown = true,
            }
        }
        if saw_unknown {
            Answer::Unknown("naive enumeration incomplete".to_string())
        } else {
            Answer::Unsat
        }
    }
}

/// Length-abstraction-only solver: sound but highly incomplete.
#[derive(Clone, Debug, Default)]
pub struct LengthAbstractionSolver;

impl Strategy for LengthAbstractionSolver {
    fn name(&self) -> &'static str {
        "length-abstraction"
    }

    fn solve(&self, formula: &StringFormula, cancel: &CancelToken) -> Answer {
        let Ok(nf) = normal::normalize(formula) else {
            return Answer::Unknown("normalisation failed".to_string());
        };
        if !nf.equations.is_empty() {
            return Answer::Unknown("length abstraction does not handle equations".to_string());
        }
        // encode only the length images of the regular languages and the
        // length constraints; every position constraint is abstracted to the
        // trivially-true formula, so only Unsat answers derived from lengths
        // alone are trustworthy — and Sat answers must be double-checked,
        // which this solver cannot do, hence Unknown.
        let mut vars = VarTable::new();
        let mut automata: BTreeMap<StrVar, posr_automata::Nfa> = BTreeMap::new();
        for (name, nfa) in &nf.languages {
            let v = vars.intern(name);
            let trimmed = nfa.remove_epsilon().trim();
            if trimmed.is_empty_language() {
                return Answer::Unsat;
            }
            automata.insert(v, trimmed);
        }
        if nf.positions.is_empty() && nf.lengths.is_empty() {
            // pure membership problem with non-empty languages
            return Answer::Sat(StringModel::default());
        }
        // diseq of syntactically identical sides is unsat regardless of lengths
        if nf
            .positions
            .iter()
            .any(|p| p.kind == PositionKind::Diseq && p.left == p.right)
        {
            return Answer::Unsat;
        }
        // the system is the length counters alone, one per variable
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let system: Vec<PositionConstraint> = length_eqs(&automata, &mut pool).collect();
        let encoding = encoder.encode(&system, &mut pool);
        let mut lengths = LiaLengths::new(&encoding, &vars, &mut pool);
        let mut conjuncts = vec![encoding.formula.clone()];
        for atom in &nf.lengths {
            conjuncts.push(lengths.atom(atom));
        }
        match lia_with_cancel(cancel).solve(&Formula::and(conjuncts)) {
            posr_lia::solver::SolverResult::Unsat => Answer::Unsat,
            _ => Answer::Unknown("length abstraction is inconclusive".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StringTerm;

    fn diseq_formula() -> StringFormula {
        StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("y", "(ac)*")
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
    }

    #[test]
    fn enumeration_finds_satisfying_assignment() {
        let answer = EnumerationSolver.solve(&diseq_formula(), &CancelToken::none());
        match answer {
            Answer::Sat(model) => assert!(model.satisfies(&diseq_formula())),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn enumeration_cannot_prove_unsat() {
        let f = StringFormula::new()
            .in_re("x", "ab")
            .diseq(StringTerm::var("x"), StringTerm::lit("ab"));
        assert!(EnumerationSolver
            .solve(&f, &CancelToken::none())
            .is_unknown());
    }

    #[test]
    fn naive_order_agrees_on_small_instances() {
        let sat = NaiveOrderSolver.solve(&diseq_formula(), &CancelToken::none());
        assert!(sat.is_sat());
        let f = StringFormula::new()
            .in_re("x", "ab")
            .in_re("y", "ab")
            .diseq(StringTerm::var("x"), StringTerm::var("y"));
        assert!(NaiveOrderSolver.solve(&f, &CancelToken::none()).is_unsat());
    }

    #[test]
    fn length_abstraction_is_sound_but_incomplete() {
        // x ∈ (ab)*, y ∈ (ab)*, x ≠ y, len(x)=len(y): inconclusive
        let f = diseq_formula().len_eq("x", "y");
        assert!(LengthAbstractionSolver
            .solve(&f, &CancelToken::none())
            .is_unknown());
        // x ∈ ab, x ≠ "ab": identical sides after literal substitution? not
        // syntactically, so still unknown — but a pure membership problem is sat
        let member = StringFormula::new().in_re("x", "(ab)*");
        assert!(LengthAbstractionSolver
            .solve(&member, &CancelToken::none())
            .is_sat());
    }

    #[test]
    fn length_abstraction_refutes_and_respects_real_lengths() {
        use crate::ast::{LenCmp, LenTerm};
        // len(x) = 7 with x ∈ (ab)*: a genuine length refutation
        let f = StringFormula::new().in_re("x", "(ab)*").length(
            LenTerm::len("x"),
            LenCmp::Eq,
            LenTerm::constant(7),
        );
        assert!(LengthAbstractionSolver
            .solve(&f, &CancelToken::none())
            .is_unsat());
        // len(cmd) ≠ len(arg) over non-singleton languages is satisfiable, so
        // the abstraction must NOT refute it (regression: the encoder used to
        // abstract every length to 0 when no variable occurred in a
        // constraint, turning this into `0 ≠ 0`)
        let sat = StringFormula::new()
            .in_re("cmd", "(a|b){0,4}")
            .in_re("arg", "a{0,3}")
            .diseq(StringTerm::var("cmd"), StringTerm::var("arg"))
            .length(LenTerm::len("cmd"), LenCmp::Ne, LenTerm::len("arg"));
        assert!(!LengthAbstractionSolver
            .solve(&sat, &CancelToken::none())
            .is_unsat());
    }

    #[test]
    fn cancelled_token_aborts_enumeration() {
        let token = CancelToken::new();
        token.cancel();
        let answer = EnumerationSolver.solve(&diseq_formula(), &token);
        match answer {
            Answer::Unknown(reason) => assert_eq!(reason, "cancelled"),
            other => panic!("expected unknown, got {other:?}"),
        }
    }
}
