//! Normalisation of input formulas into the form `E ∧ R ∧ I ∧ P` (Sec. 2).
//!
//! * string literals are replaced by fresh variables constrained to the
//!   singleton language (footnote 3 of the paper),
//! * positive `prefixof`/`suffixof`/`contains` become word equations with
//!   fresh variables (step (i) of the normal-form transformation),
//! * regular memberships are intersected so that every variable has exactly
//!   one automaton (step (ii)); unconstrained variables get `Σ*`,
//! * the remaining literals are sorted into word equations `E`, length
//!   constraints `I` and position constraints `P`.
//!
//! Every position constraint is one [`PositionAtom`]: a predicate
//! ([`PositionKind`]) over two sides, as in the paper's `P(t_L, t_R)`.
//! The atom also carries the one concrete evaluator (`PositionAtom::holds`)
//! and the one substitution through a monadic case
//! (`PositionAtom::substituted`) that the rest of the crate uses.
//!
//! The fresh variables are named `{prefix}!{n}` and skip every name the
//! input already uses; [`NormalForm::internal`] records them, so a model
//! reported to the caller drops exactly those
//! (`NormalForm::reported_strings`).

use std::collections::{BTreeMap, BTreeSet};

use posr_automata::{cache, ops, Nfa, Symbol};

use crate::ast::{LenCmp, LenTerm, StringAtom, StringFormula, StringTerm, TermPart};
use crate::monadic::MonadicCase;

/// The predicate of a [`PositionAtom`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PositionKind {
    /// `left ≠ right`
    Diseq,
    /// `¬prefixof(left, right)`
    NotPrefix,
    /// `¬suffixof(left, right)`
    NotSuffix,
    /// `¬contains(right, left)`: the needle `left` does not occur in the
    /// haystack `right`
    NotContains,
    /// `left = str.at(right, index)`, or `left ≠ str.at(right, index)` when
    /// negated; `left` is the one variable on the left of `str.at`
    StrAt {
        /// The queried position.
        index: LenTerm,
        /// Negation flag.
        negated: bool,
    },
}

/// A position constraint `P(left, right)` over variable-occurrence lists
/// (literals already replaced by fresh variables): `left` is the needle or
/// `str.at` variable side, `right` the haystack or indexed-term side, as
/// in `posr_tagauto::system::PositionConstraint`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PositionAtom {
    /// The predicate.
    pub kind: PositionKind,
    /// Needle or `str.at`-variable occurrences.
    pub left: Vec<String>,
    /// Haystack or indexed-term occurrences.
    pub right: Vec<String>,
}

impl PositionAtom {
    /// The atom `kind(left, right)`.
    pub fn new(kind: PositionKind, left: Vec<String>, right: Vec<String>) -> PositionAtom {
        PositionAtom { kind, left, right }
    }

    /// The atom under a monadic case's substitution: both sides and the
    /// `str.at` index are expanded.
    pub(crate) fn substituted(&self, case: &MonadicCase) -> PositionAtom {
        let kind = match &self.kind {
            PositionKind::StrAt { index, negated } => PositionKind::StrAt {
                index: case.apply_len(index),
                negated: *negated,
            },
            kind => kind.clone(),
        };
        PositionAtom::new(kind, case.apply(&self.left), case.apply(&self.right))
    }

    /// Evaluates the atom under concrete assignments; unassigned variables
    /// are ε, as in [`StringAtom::eval`].
    pub(crate) fn holds(
        &self,
        strings: &BTreeMap<String, String>,
        ints: &BTreeMap<String, i64>,
    ) -> bool {
        let word = |occurrences: &[String]| -> String {
            occurrences
                .iter()
                .map(|v| strings.get(v).map_or("", String::as_str))
                .collect()
        };
        let (left, right) = (word(&self.left), word(&self.right));
        match &self.kind {
            PositionKind::Diseq => left != right,
            PositionKind::NotPrefix => !right.starts_with(&left),
            PositionKind::NotSuffix => !right.ends_with(&left),
            PositionKind::NotContains => !right.contains(&left),
            PositionKind::StrAt { index, negated } => {
                // out of range, str.at is ε
                let at = usize::try_from(index.eval(strings, ints))
                    .ok()
                    .and_then(|i| right.chars().nth(i));
                let mut chars = left.chars();
                (chars.next() == at && chars.next().is_none()) != *negated
            }
        }
    }
}

/// A word equation `lhs = rhs` over variable occurrences.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Equation {
    /// Left-hand occurrences.
    pub lhs: Vec<String>,
    /// Right-hand occurrences.
    pub rhs: Vec<String>,
}

/// The normal form `E ∧ R ∧ I ∧ P`.
#[derive(Clone, Debug, Default)]
pub struct NormalForm {
    /// `R`: one automaton per variable.
    pub languages: BTreeMap<String, Nfa>,
    /// `E`: word equations.
    pub equations: Vec<Equation>,
    /// `I`: length constraints (kept in surface syntax; translated to LIA by
    /// the position procedure).
    pub lengths: Vec<(LenTerm, LenCmp, LenTerm)>,
    /// `P`: position constraints.
    pub positions: Vec<PositionAtom>,
    /// The working alphabet Γ.
    pub alphabet: Vec<char>,
    /// The variables normalisation introduced (literal, prefix, suffix
    /// and contains witnesses); no input variable is among them.
    pub internal: BTreeSet<String>,
}

impl NormalForm {
    /// A model of the input formula from a solution of this normal form:
    /// every variable a monadic case eliminated takes the concatenation of
    /// its expansion in `substitution`, and the internal variables are
    /// dropped.
    pub(crate) fn reported_strings(
        &self,
        mut strings: BTreeMap<String, String>,
        substitution: &BTreeMap<String, Vec<String>>,
    ) -> BTreeMap<String, String> {
        for (var, expansion) in substitution {
            let value: String = expansion
                .iter()
                .map(|v| strings.get(v).map_or("", String::as_str))
                .collect();
            strings.insert(var.clone(), value);
        }
        strings.retain(|name, _| !self.internal.contains(name));
        strings
    }
}

/// Errors produced during normalisation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NormalizeError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "normalisation error: {}", self.message)
    }
}

impl std::error::Error for NormalizeError {}

struct Normalizer {
    nf: NormalForm,
    fresh_counter: usize,
    /// The input's string variables, which no fresh name may take.
    input_vars: Vec<String>,
    memberships: BTreeMap<String, Vec<Nfa>>,
    literal_vars: BTreeMap<String, String>,
}

impl Normalizer {
    fn fresh(&mut self, prefix: &str) -> String {
        loop {
            self.fresh_counter += 1;
            let name = format!("{prefix}!{}", self.fresh_counter);
            if !self.input_vars.contains(&name) {
                self.nf.internal.insert(name.clone());
                return name;
            }
        }
    }

    fn literal_var(&mut self, value: &str) -> String {
        if let Some(v) = self.literal_vars.get(value) {
            return v.clone();
        }
        let name = self.fresh("lit");
        self.memberships
            .entry(name.clone())
            .or_default()
            .push(Nfa::literal(value));
        self.literal_vars.insert(value.to_string(), name.clone());
        name
    }

    fn term_occurrences(&mut self, term: &StringTerm) -> Vec<String> {
        let mut out = Vec::new();
        for p in &term.parts {
            match p {
                TermPart::Var(v) => out.push(v.clone()),
                TermPart::Lit(w) => {
                    if !w.is_empty() {
                        out.push(self.literal_var(w));
                    }
                }
            }
        }
        out
    }
}

/// Computes the working alphabet: all characters occurring in literals or in
/// the regular expressions of the formula, plus one extra symbol so that
/// disequalities over otherwise-unconstrained variables can always be
/// witnessed (the paper assumes a fixed ambient alphabet Γ).
pub fn collect_alphabet(formula: &StringFormula) -> Vec<char> {
    let mut chars: Vec<char> = Vec::new();
    let mut push = |c: char| {
        if !chars.contains(&c) {
            chars.push(c);
        }
    };
    for atom in &formula.atoms {
        if let StringAtom::InRe { regex, .. } = atom {
            // the shared cache makes this compile-free after the first
            // strategy/worker has seen the pattern
            if let Ok(nfa) = cache::compile_cached(regex) {
                nfa.alphabet()
                    .iter()
                    .filter_map(|sym| sym.to_char())
                    .for_each(&mut push);
            }
        }
        for term in atom.terms() {
            for part in &term.parts {
                if let TermPart::Lit(w) = part {
                    w.chars().for_each(&mut push);
                }
            }
        }
    }
    if chars.is_empty() {
        chars.push('a');
    }
    // one extra symbol for mismatch witnesses over unconstrained variables
    for candidate in ['b', 'c', '~'] {
        if !chars.contains(&candidate) {
            chars.push(candidate);
            break;
        }
    }
    chars.sort_unstable();
    chars
}

/// Normalises a conjunction of string atoms into `E ∧ R ∧ I ∧ P`.
///
/// # Errors
/// Returns an error for constructs outside the supported fragment (e.g. a
/// negated membership whose regex fails to parse).
pub fn normalize(formula: &StringFormula) -> Result<NormalForm, NormalizeError> {
    let alphabet = collect_alphabet(formula);
    let alphabet_symbols: Vec<Symbol> = alphabet.iter().map(|&c| Symbol::from_char(c)).collect();
    let mut normalizer = Normalizer {
        nf: NormalForm {
            alphabet: alphabet.clone(),
            ..NormalForm::default()
        },
        fresh_counter: 0,
        input_vars: formula.variables(),
        memberships: BTreeMap::new(),
        literal_vars: BTreeMap::new(),
    };

    for atom in &formula.atoms {
        // a negated predicate and `str.at` fall through to one position
        // atom `kind(left, right)`; everything else is done in its arm
        let (kind, left, right) = match atom {
            StringAtom::InRe {
                var,
                regex,
                negated,
            } => {
                let compiled = cache::compile_cached(regex).map_err(|e| NormalizeError {
                    message: format!("cannot parse regex {regex:?}: {e}"),
                })?;
                let nfa = if *negated {
                    ops::complement(&compiled, &alphabet_symbols)
                } else {
                    (*compiled).clone()
                };
                normalizer
                    .memberships
                    .entry(var.clone())
                    .or_default()
                    .push(nfa);
                continue;
            }
            StringAtom::Length { lhs, cmp, rhs } => {
                normalizer.nf.lengths.push((lhs.clone(), *cmp, rhs.clone()));
                continue;
            }
            StringAtom::Equation { lhs, rhs, negated } => {
                let l = normalizer.term_occurrences(lhs);
                let r = normalizer.term_occurrences(rhs);
                if !*negated {
                    normalizer.nf.equations.push(Equation { lhs: l, rhs: r });
                    continue;
                }
                (PositionKind::Diseq, l, r)
            }
            StringAtom::PrefixOf {
                needle,
                haystack,
                negated,
            } => {
                let n = normalizer.term_occurrences(needle);
                let h = normalizer.term_occurrences(haystack);
                if !*negated {
                    // haystack = needle · z
                    let mut rhs = n;
                    rhs.push(normalizer.fresh("pre"));
                    normalizer.nf.equations.push(Equation { lhs: h, rhs });
                    continue;
                }
                (PositionKind::NotPrefix, n, h)
            }
            StringAtom::SuffixOf {
                needle,
                haystack,
                negated,
            } => {
                let n = normalizer.term_occurrences(needle);
                let h = normalizer.term_occurrences(haystack);
                if !*negated {
                    // haystack = z · needle
                    let mut rhs = vec![normalizer.fresh("suf")];
                    rhs.extend(n);
                    normalizer.nf.equations.push(Equation { lhs: h, rhs });
                    continue;
                }
                (PositionKind::NotSuffix, n, h)
            }
            StringAtom::Contains {
                haystack,
                needle,
                negated,
            } => {
                let h = normalizer.term_occurrences(haystack);
                let n = normalizer.term_occurrences(needle);
                if !*negated {
                    // haystack = z₁ · needle · z₂
                    let mut rhs = vec![normalizer.fresh("cnt")];
                    rhs.extend(n);
                    rhs.push(normalizer.fresh("cnt"));
                    normalizer.nf.equations.push(Equation { lhs: h, rhs });
                    continue;
                }
                (PositionKind::NotContains, n, h)
            }
            StringAtom::StrAt {
                var,
                term,
                index,
                negated,
            } => {
                let kind = PositionKind::StrAt {
                    index: index.clone(),
                    negated: *negated,
                };
                (kind, vec![var.clone()], normalizer.term_occurrences(term))
            }
        };
        normalizer
            .nf
            .positions
            .push(PositionAtom::new(kind, left, right));
    }

    // intersect memberships; default to Σ* for unconstrained variables
    let mut all_vars = std::mem::take(&mut normalizer.input_vars);
    let sides = normalizer.nf.positions.iter().map(|p| (&p.left, &p.right));
    let eq_sides = normalizer.nf.equations.iter().map(|eq| (&eq.lhs, &eq.rhs));
    for (l, r) in sides.chain(eq_sides) {
        for v in l.iter().chain(r) {
            if !all_vars.contains(v) {
                all_vars.push(v.clone());
            }
        }
    }
    for (name, nfas) in &normalizer.memberships {
        if !all_vars.contains(name) {
            all_vars.push(name.clone());
        }
        let mut iter = nfas.iter();
        let mut acc = iter
            .next()
            .expect("non-empty membership list")
            .remove_epsilon();
        for nfa in iter {
            acc = ops::intersection(&acc, &nfa.remove_epsilon());
        }
        normalizer.nf.languages.insert(name.clone(), acc.trim());
    }
    for v in all_vars {
        normalizer
            .nf
            .languages
            .entry(v)
            .or_insert_with(|| Nfa::universal(&alphabet_symbols));
    }

    Ok(normalizer.nf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StringTerm;

    #[test]
    fn alphabet_collects_regex_and_literal_characters() {
        let f = StringFormula::new()
            .in_re("x", "(ab)*")
            .diseq(StringTerm::var("x"), StringTerm::lit("cd"));
        let alphabet = collect_alphabet(&f);
        for c in ['a', 'b', 'c', 'd'] {
            assert!(alphabet.contains(&c), "missing {c}");
        }
    }

    #[test]
    fn literals_become_fresh_variables() {
        let f = StringFormula::new().diseq(StringTerm::var("x"), StringTerm::lit("ab"));
        let nf = normalize(&f).unwrap();
        match &nf.positions[0] {
            PositionAtom {
                kind: PositionKind::Diseq,
                left: l,
                right: r,
            } => {
                assert_eq!(l, &vec!["x".to_string()]);
                assert_eq!(r.len(), 1);
                let lit_var = &r[0];
                assert!(nf.languages[lit_var].accepts_str("ab"));
                assert!(!nf.languages[lit_var].accepts_str("a"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn positive_contains_becomes_equation() {
        let f = StringFormula::new().atom(StringAtom::Contains {
            haystack: StringTerm::var("h"),
            needle: StringTerm::var("n"),
            negated: false,
        });
        let nf = normalize(&f).unwrap();
        assert_eq!(nf.positions.len(), 0);
        assert_eq!(nf.equations.len(), 1);
        assert_eq!(nf.equations[0].lhs, vec!["h".to_string()]);
        assert_eq!(nf.equations[0].rhs.len(), 3);
    }

    #[test]
    fn negated_predicates_become_position_constraints() {
        let f = StringFormula::new()
            .not_prefixof(StringTerm::var("x"), StringTerm::var("y"))
            .not_suffixof(StringTerm::var("x"), StringTerm::var("y"))
            .not_contains(StringTerm::var("y"), StringTerm::var("x"));
        let nf = normalize(&f).unwrap();
        assert_eq!(nf.positions.len(), 3);
        assert!(nf.equations.is_empty());
    }

    #[test]
    fn memberships_are_intersected() {
        let f = StringFormula::new().in_re("x", "(ab)*").in_re("x", "a.*");
        let nf = normalize(&f).unwrap();
        let nfa = &nf.languages["x"];
        assert!(nfa.accepts_str("abab"));
        assert!(!nfa.accepts_str(""));
    }

    #[test]
    fn negated_membership_is_complemented() {
        let f = StringFormula::new()
            .atom(StringAtom::InRe {
                var: "x".into(),
                regex: "a*".into(),
                negated: true,
            })
            .in_re("x", "(a|b){1,2}");
        let nf = normalize(&f).unwrap();
        let nfa = &nf.languages["x"];
        assert!(!nfa.accepts_str("a"));
        assert!(!nfa.accepts_str("aa"));
        assert!(nfa.accepts_str("ab"));
        assert!(nfa.accepts_str("b"));
    }

    #[test]
    fn unconstrained_variables_get_sigma_star() {
        let f = StringFormula::new().diseq(StringTerm::var("x"), StringTerm::var("y"));
        let nf = normalize(&f).unwrap();
        assert!(nf.languages.contains_key("x"));
        assert!(nf.languages.contains_key("y"));
        assert!(nf.languages["y"].accepts_str("ab"));
    }

    #[test]
    fn bad_regex_is_an_error() {
        let f = StringFormula::new().in_re("x", "(ab");
        assert!(normalize(&f).is_err());
    }

    #[test]
    fn fresh_names_skip_input_variables() {
        let f = StringFormula::new()
            .in_re("lit!1", "ab")
            .diseq(StringTerm::var("lit!1"), StringTerm::lit("ba"));
        let nf = normalize(&f).unwrap();
        let internal: Vec<&str> = nf.internal.iter().map(String::as_str).collect();
        assert_eq!(internal, ["lit!2"]);
        assert_eq!(nf.positions[0].right, ["lit!2"]);
        let model = [("lit!1", "ab"), ("lit!2", "ba")]
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .into_iter()
            .collect();
        let reported = nf.reported_strings(model, &BTreeMap::new());
        assert_eq!(reported.keys().collect::<Vec<_>>(), ["lit!1"]);
    }

    /// Both polarities of every atom that normalises to a position atom,
    /// in the same order: `(sources(true)[k], sources(false)[k])` are twins.
    fn sources(negated: bool) -> Vec<StringAtom> {
        let (x, y) = (StringTerm::var("x"), StringTerm::var("y"));
        let xy = StringTerm::concat([x.clone(), y.clone()]);
        let sides = [
            (x.clone(), y.clone()),
            (y.clone(), xy.clone()),
            // a needle longer than any haystack
            (StringTerm::lit("aba"), x.clone()),
            (
                StringTerm::concat([xy.clone(), StringTerm::lit("a")]),
                y.clone(),
            ),
            (StringTerm::empty(), xy.clone()),
        ];
        let mut out = Vec::new();
        for (needle, haystack) in sides {
            out.push(StringAtom::Equation {
                lhs: needle.clone(),
                rhs: haystack.clone(),
                negated,
            });
            out.push(StringAtom::PrefixOf {
                needle: needle.clone(),
                haystack: haystack.clone(),
                negated,
            });
            out.push(StringAtom::SuffixOf {
                needle: needle.clone(),
                haystack: haystack.clone(),
                negated,
            });
            out.push(StringAtom::Contains {
                haystack,
                needle,
                negated,
            });
        }
        let mut past_the_end = LenTerm::len("y");
        past_the_end.add(&LenTerm::constant(1));
        for index in [
            LenTerm::constant(-1),
            LenTerm::constant(0),
            past_the_end,
            LenTerm::int_var("i"),
        ] {
            for term in [
                y.clone(),
                StringTerm::concat([x.clone(), StringTerm::lit("b")]),
            ] {
                out.push(StringAtom::StrAt {
                    var: "c".to_string(),
                    term,
                    index: index.clone(),
                    negated,
                });
            }
        }
        out
    }

    /// The one position atom `source` normalises to, and the values of the
    /// literal variables it mentions.
    fn position_of(source: &StringAtom) -> (PositionAtom, BTreeMap<String, String>) {
        let nf = normalize(&StringFormula::new().atom(source.clone())).unwrap();
        assert_eq!(nf.positions.len(), 1, "{source:?}");
        let literals = nf
            .internal
            .iter()
            .map(|v| {
                let word = posr_automata::sample::shortest_word(&nf.languages[v]).unwrap();
                (v.clone(), posr_automata::nfa::symbols_to_string(&word))
            })
            .collect();
        (nf.positions[0].clone(), literals)
    }

    #[test]
    fn holds_agrees_with_the_source_atom() {
        let mut words = vec![String::new()];
        for w in ["a", "b"] {
            words.push(w.to_string());
            for v in ["a", "b"] {
                words.push(format!("{w}{v}"));
            }
        }
        for (negative, positive) in sources(true).into_iter().zip(sources(false)) {
            // the negative twin's atom decides both twins; a positive
            // str.at is a position atom of its own
            let negative_atom = position_of(&negative);
            let positive_atom =
                matches!(positive, StringAtom::StrAt { .. }).then(|| position_of(&positive));
            let mut checks = vec![
                (&negative_atom, &negative, true),
                (&negative_atom, &positive, false),
            ];
            checks.extend(positive_atom.as_ref().map(|atom| (atom, &positive, true)));
            for ((atom, literals), source, agrees) in checks {
                for x in &words {
                    for y in &words {
                        for c in &words {
                            let mut strings = literals.clone();
                            for (name, value) in [("x", x), ("y", y), ("c", c)] {
                                strings.insert(name.to_string(), value.clone());
                            }
                            for i in -1..=3 {
                                let ints = BTreeMap::from([("i".to_string(), i)]);
                                assert_eq!(
                                    atom.holds(&strings, &ints) == agrees,
                                    source.eval(&strings, &ints),
                                    "{source:?} under {strings:?}, i = {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
