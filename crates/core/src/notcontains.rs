//! `¬contains` handling: the syntactic shortcut and the flatness analysis
//! behind the model-based instantiation loop in [`crate::position`].
//!
//! The paper's φ^NC (Eq. 32) is an ∀∃ LIA formula; its universal quantifier
//! ranges over the alignment offsets of two words whose lengths are fixed by
//! the outer existential model.  The instantiation loop therefore proposes a
//! candidate assignment, checks the goals on the now-concrete words with
//! `PositionAtom::holds` (exactly the semantics in Fig. 5), and blocks
//! refuted candidates by their Parikh image — for flat languages the Parikh
//! image determines the words, so each blocked candidate is a single string
//! assignment and the loop is a faithful decision procedure for the
//! fragment of Theorem 6.5 (up to the round limit).  Over non-flat
//! languages only `Sat` answers are trusted.
//!
//! A goal is a [`PositionKind::NotContains`](crate::normal::PositionKind::NotContains)
//! atom: `left` is its needle and `right` its haystack.

use std::collections::BTreeMap;

use posr_automata::flat::is_flat;
use posr_automata::Nfa;
use posr_tagauto::tags::{StrVar, VarTable};

use crate::normal::PositionAtom;

/// Sound syntactic unsatisfiability checks for a set of `¬contains` goals.
///
/// * an empty needle is contained in everything, and
/// * a needle whose occurrence sequence appears contiguously inside the
///   haystack's occurrence sequence (e.g. `¬contains(x·y·x, y)`) is contained
///   under every assignment.
///
/// Returns a description of the offending goal, or `None`.
pub fn syntactically_unsat(goals: &[&PositionAtom]) -> Option<String> {
    for goal in goals {
        let (needle, haystack) = (&goal.left, &goal.right);
        if needle.is_empty() {
            return Some("¬contains with an empty needle is always false".to_string());
        }
        if haystack
            .windows(needle.len())
            .any(|w| w == needle.as_slice())
        {
            return Some(format!(
                "needle {needle:?} occurs syntactically inside haystack {haystack:?}"
            ));
        }
    }
    None
}

/// Checks that every variable of every `¬contains` goal has a flat language
/// (the precondition of Theorem 6.5).
pub fn all_flat(
    goals: &[&PositionAtom],
    vars: &VarTable,
    automata: &BTreeMap<StrVar, Nfa>,
) -> bool {
    goals.iter().all(|goal| {
        goal.right
            .iter()
            .chain(&goal.left)
            .all(|name| match vars.lookup(name) {
                Some(v) => automata.get(&v).is_some_and(|nfa| is_flat(&nfa.trim())),
                None => false,
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal::PositionKind;
    use posr_automata::Regex;

    fn not_contains(haystack: &[&str], needle: &[&str]) -> PositionAtom {
        let names = |side: &[&str]| side.iter().map(|v| v.to_string()).collect();
        PositionAtom::new(PositionKind::NotContains, names(needle), names(haystack))
    }

    #[test]
    fn syntactic_containment_detected() {
        let goal = not_contains(&["x", "y", "x"], &["y"]);
        assert!(syntactically_unsat(&[&goal]).is_some());
        let fine = not_contains(&["x"], &["y"]);
        assert!(syntactically_unsat(&[&fine]).is_none());
        let empty_needle = not_contains(&["x"], &[]);
        assert!(syntactically_unsat(&[&empty_needle]).is_some());
    }

    #[test]
    fn flatness_check() {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let mut automata = BTreeMap::new();
        automata.insert(x, Regex::parse("(ab)*").unwrap().compile());
        automata.insert(y, Regex::parse("(a|b)*").unwrap().compile());
        let goal = not_contains(&["x"], &["x"]);
        assert!(all_flat(&[&goal], &vars, &automata));
        let goal_bad = not_contains(&["y"], &["x"]);
        assert!(!all_flat(&[&goal_bad], &vars, &automata));
    }

    #[test]
    fn concrete_check() {
        let strings: BTreeMap<String, String> = [
            ("x".to_string(), "aba".to_string()),
            ("y".to_string(), "aabba".to_string()),
        ]
        .into_iter()
        .collect();
        let goal = not_contains(&["y"], &["x"]);
        // Fig. 5: aba is not contained in aabba
        assert!(goal.holds(&strings, &BTreeMap::new()));
        // but "ab" (a prefix of x·y) is contained in y
        let strings2: BTreeMap<String, String> = [
            ("x".to_string(), "ab".to_string()),
            ("y".to_string(), "aabba".to_string()),
        ]
        .into_iter()
        .collect();
        assert!(!goal.holds(&strings2, &BTreeMap::new()));
    }
}
