//! A simplified stabilisation procedure producing monadic decompositions.
//!
//! The paper assumes (Sec. 3) that word equations have already been
//! transformed away by the stabilisation-based procedure of its reference
//! \[24\]: the result is a disjunction of cases, each consisting of refined
//! regular constraints `R′` such that *any* choice of words from the refined
//! languages solves the equations, plus a substitution map from original
//! variables to concatenations of the remaining variables.
//!
//! This module implements that interface for the fragment of equations
//! produced by our front end and workload generators: equations with a
//! single variable on one side that does not occur on the other side
//! (`x = y₁⋯yₙ`, the shape symbolic execution produces for assignments and
//! for the rewriting of positive `prefixof`/`suffixof`/`contains`).  For
//! such an equation the automaton of `x` is split along all tuples of cut
//! states — the "noodlification" step — refining the languages of the
//! `yᵢ`; each cut tuple becomes one monadic case.  Equations outside this
//! fragment make the procedure report an error and the solver answer
//! `Unknown`, mirroring how Z3-Noodler bails out on non-chain-free inputs
//! (Sec. 8.2 of the paper attributes its remaining time-outs to exactly
//! this).

use std::collections::BTreeMap;

use posr_automata::{ops, Nfa, StateId};

use crate::ast::LenTerm;
use crate::normal::{Equation, NormalForm};

/// One case of the monadic decomposition.
#[derive(Clone, Debug, Default)]
pub struct MonadicCase {
    /// Refined language per (remaining) variable.
    pub languages: BTreeMap<String, Nfa>,
    /// Substitution from eliminated variables to sequences of remaining
    /// variables.  Fully expanded: values never mention eliminated variables.
    pub substitution: BTreeMap<String, Vec<String>>,
}

impl MonadicCase {
    /// Applies the substitution to a sequence of variable occurrences.
    pub fn apply(&self, occurrences: &[String]) -> Vec<String> {
        let mut out = Vec::new();
        for v in occurrences {
            match self.substitution.get(v) {
                Some(expansion) => out.extend(expansion.iter().cloned()),
                None => out.push(v.clone()),
            }
        }
        out
    }

    /// Applies the substitution to a length term: `len(x)` of an
    /// eliminated `x` becomes the sum of the lengths of its expansion.
    pub(crate) fn apply_len(&self, term: &LenTerm) -> LenTerm {
        let mut out = LenTerm {
            len_coeffs: BTreeMap::new(),
            int_coeffs: term.int_coeffs.clone(),
            constant: term.constant,
        };
        for (var, coeff) in &term.len_coeffs {
            for part in self
                .substitution
                .get(var)
                .map_or(std::slice::from_ref(var), Vec::as_slice)
            {
                *out.len_coeffs.entry(part.clone()).or_insert(0) += coeff;
            }
        }
        out
    }
}

/// Errors of the decomposition procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonadicError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for MonadicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "monadic decomposition failed: {}", self.message)
    }
}

impl std::error::Error for MonadicError {}

/// Upper bound on the total number of cases explored before giving up.
pub const DEFAULT_CASE_LIMIT: usize = 512;

/// Decomposes the word equations of a normal form into monadic cases.
///
/// # Errors
/// Returns an error if an equation falls outside the supported fragment or
/// if the case limit is exceeded.
pub fn decompose(nf: &NormalForm, case_limit: usize) -> Result<Vec<MonadicCase>, MonadicError> {
    let initial = MonadicCase {
        languages: nf.languages.clone(),
        substitution: BTreeMap::new(),
    };
    let mut cases = vec![initial];
    for eq in &nf.equations {
        let mut next: Vec<MonadicCase> = Vec::new();
        for case in &cases {
            next.extend(process_equation(case, eq)?);
            if next.len() > case_limit {
                return Err(MonadicError {
                    message: format!("more than {case_limit} cases while stabilising equations"),
                });
            }
        }
        cases = next;
        if cases.is_empty() {
            return Ok(Vec::new());
        }
    }
    Ok(cases)
}

/// Processes one equation within one case, producing the refined sub-cases.
fn process_equation(case: &MonadicCase, eq: &Equation) -> Result<Vec<MonadicCase>, MonadicError> {
    let lhs = case.apply(&eq.lhs);
    let rhs = case.apply(&eq.rhs);
    // orient so that the left side is a single variable not occurring on the right
    let (x, ts) = if lhs.len() == 1 && !rhs.contains(&lhs[0]) {
        (lhs[0].clone(), rhs)
    } else if rhs.len() == 1 && !lhs.contains(&rhs[0]) {
        (rhs[0].clone(), lhs)
    } else if lhs == rhs {
        // trivially satisfied
        return Ok(vec![case.clone()]);
    } else {
        return Err(MonadicError {
            message: format!(
                "equation {:?} = {:?} is outside the supported x = y₁⋯yₙ fragment",
                lhs, rhs
            ),
        });
    };

    let ax = case
        .languages
        .get(&x)
        .ok_or_else(|| MonadicError {
            message: format!("no language for variable {x}"),
        })?
        .clone();

    if ts.is_empty() {
        // x = ε: refine L(x) to {ε} if possible
        if !ax.accepts_epsilon() {
            return Ok(Vec::new());
        }
        let mut refined = case.clone();
        refined.languages.insert(x.clone(), Nfa::epsilon());
        let mut with_subst = refined;
        with_subst.substitution.insert(x, Vec::new());
        return Ok(vec![with_subst]);
    }

    // enumerate cut tuples q_0 ∈ I, q_1, …, q_{n-1} ∈ Q, q_n ∈ F of A_x
    let n = ts.len();
    let mut results = Vec::new();
    let all_states: Vec<StateId> = (0..ax.num_states()).map(StateId).collect();
    let initials: Vec<StateId> = ax.initial_states().iter().copied().collect();
    let finals: Vec<StateId> = ax.final_states().iter().copied().collect();

    // iterative cartesian product over the n-1 interior cut points
    let mut stack: Vec<Vec<StateId>> = vec![Vec::new()];
    while let Some(interior) = stack.pop() {
        if interior.len() < n - 1 {
            for &q in &all_states {
                let mut extended = interior.clone();
                extended.push(q);
                stack.push(extended);
            }
            continue;
        }
        for &q0 in &initials {
            for &qn in &finals {
                let mut cuts = Vec::with_capacity(n + 1);
                cuts.push(q0);
                cuts.extend(interior.iter().copied());
                cuts.push(qn);
                if let Some(refined) = refine_with_cuts(case, &x, &ts, &ax, &cuts) {
                    results.push(refined);
                }
            }
        }
    }
    Ok(results)
}

/// Builds the sub-automaton of `a` with the given start and end state.
fn segment(a: &Nfa, from: StateId, to: StateId) -> Nfa {
    let mut out = Nfa::new();
    out.add_states(a.num_states());
    for t in a.transitions() {
        out.add_transition(t.source, t.symbol, t.target);
    }
    out.add_initial(from);
    out.add_final(to);
    out.trim()
}

fn refine_with_cuts(
    case: &MonadicCase,
    x: &str,
    ts: &[String],
    ax: &Nfa,
    cuts: &[StateId],
) -> Option<MonadicCase> {
    let mut refined = case.clone();
    for (i, y) in ts.iter().enumerate() {
        let piece = segment(ax, cuts[i], cuts[i + 1]);
        let current = refined.languages.get(y)?.clone();
        let intersected = ops::intersection(&current.remove_epsilon(), &piece.remove_epsilon());
        if intersected.is_empty_language() {
            return None;
        }
        refined.languages.insert(y.clone(), intersected.trim());
    }
    refined.languages.remove(x);
    // expand any earlier substitutions mentioning x
    let expansion: Vec<String> = ts.to_vec();
    for value in refined.substitution.values_mut() {
        let mut expanded = Vec::new();
        for v in value.iter() {
            if v == x {
                expanded.extend(expansion.iter().cloned());
            } else {
                expanded.push(v.clone());
            }
        }
        *value = expanded;
    }
    refined.substitution.insert(x.to_string(), expansion);
    Some(refined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{StringFormula, StringTerm};
    use crate::normal::normalize;

    fn decompose_formula(f: &StringFormula) -> Result<Vec<MonadicCase>, MonadicError> {
        let nf = normalize(f).unwrap();
        decompose(&nf, DEFAULT_CASE_LIMIT)
    }

    #[test]
    fn no_equations_gives_single_case() {
        let f = StringFormula::new().in_re("x", "(ab)*");
        let cases = decompose_formula(&f).unwrap();
        assert_eq!(cases.len(), 1);
        assert!(cases[0].substitution.is_empty());
    }

    #[test]
    fn simple_concatenation_equation_splits_languages() {
        // x ∈ (ab)*, x = y·z with y,z unconstrained
        let f = StringFormula::new().in_re("x", "(ab)*").eq(
            StringTerm::var("x"),
            StringTerm::concat(vec![StringTerm::var("y"), StringTerm::var("z")]),
        );
        let cases = decompose_formula(&f).unwrap();
        assert!(!cases.is_empty());
        for case in &cases {
            assert_eq!(
                case.substitution["x"],
                vec!["y".to_string(), "z".to_string()]
            );
            // every choice from the refined languages must concatenate into (ab)*
            let wy = posr_automata::sample::shortest_word(&case.languages["y"]).unwrap();
            let wz = posr_automata::sample::shortest_word(&case.languages["z"]).unwrap();
            let combined: String = wy
                .iter()
                .chain(wz.iter())
                .filter_map(|s| s.to_char())
                .collect();
            let abstar = posr_automata::Regex::parse("(ab)*").unwrap().compile();
            assert!(abstar.accepts_str(&combined), "combined {combined:?}");
        }
    }

    #[test]
    fn inconsistent_equation_has_no_cases() {
        // x ∈ {a}, x = y with y ∈ {b}
        let f = StringFormula::new()
            .in_re("x", "a")
            .in_re("y", "b")
            .eq(StringTerm::var("x"), StringTerm::var("y"));
        let cases = decompose_formula(&f).unwrap();
        assert!(cases.is_empty());
    }

    #[test]
    fn equation_with_literal_side() {
        // "abc" = y·z
        let f = StringFormula::new().eq(
            StringTerm::lit("abc"),
            StringTerm::concat(vec![StringTerm::var("y"), StringTerm::var("z")]),
        );
        let cases = decompose_formula(&f).unwrap();
        // four splits of abc into two pieces
        assert_eq!(cases.len(), 4);
    }

    #[test]
    fn equation_to_epsilon() {
        let f = StringFormula::new()
            .in_re("x", "a*")
            .eq(StringTerm::var("x"), StringTerm::empty());
        let cases = decompose_formula(&f).unwrap();
        assert_eq!(cases.len(), 1);
        assert!(cases[0].substitution["x"].is_empty());
    }

    #[test]
    fn quadratic_equation_is_rejected() {
        let f = StringFormula::new().eq(
            StringTerm::concat(vec![StringTerm::var("x"), StringTerm::var("y")]),
            StringTerm::concat(vec![StringTerm::var("y"), StringTerm::var("x")]),
        );
        assert!(decompose_formula(&f).is_err());
    }

    #[test]
    fn substitution_is_applied_to_occurrences() {
        let case = MonadicCase {
            languages: BTreeMap::new(),
            substitution: [("x".to_string(), vec!["y".to_string(), "z".to_string()])]
                .into_iter()
                .collect(),
        };
        let applied = case.apply(&["x".to_string(), "w".to_string(), "x".to_string()]);
        assert_eq!(applied, vec!["y", "z", "w", "y", "z"]);
    }

    #[test]
    fn chained_equations_expand_transitively() {
        // x = y·z, w = x·x ; w's expansion must mention only y and z
        let f = StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("w", "(ab)*")
            .eq(
                StringTerm::var("x"),
                StringTerm::concat(vec![StringTerm::var("y"), StringTerm::var("z")]),
            )
            .eq(
                StringTerm::var("w"),
                StringTerm::concat(vec![StringTerm::var("x"), StringTerm::var("x")]),
            );
        let cases = decompose_formula(&f).unwrap();
        assert!(!cases.is_empty());
        for case in &cases {
            for v in &case.substitution["w"] {
                assert!(v == "y" || v == "z", "unexpected variable {v}");
            }
            assert_eq!(case.apply(&["w".to_string()]).len(), 4);
        }
    }
}
