//! The surface syntax of string constraints: terms, atoms and conjunctive
//! formulas, together with concrete evaluation under an assignment.
//!
//! Following the DPLL(T) setting of the paper (Sec. 2), the solver works on
//! conjunctions of literals; disjunctive structure is expected to be handled
//! by an outer SAT engine and is out of scope here.  Every atom of Fig. 1 is
//! supported, in positive and negated form.

use std::collections::BTreeMap;
use std::fmt;

/// A string term: a concatenation of string variables and string literals.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StringTerm {
    /// The concatenated pieces, in order.
    pub parts: Vec<TermPart>,
}

/// One piece of a [`StringTerm`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TermPart {
    /// A string variable, by name.
    Var(String),
    /// A literal word.
    Lit(String),
}

impl StringTerm {
    /// The empty term (denoting ε).
    pub fn empty() -> StringTerm {
        StringTerm { parts: Vec::new() }
    }

    /// A single-variable term.
    pub fn var(name: &str) -> StringTerm {
        StringTerm {
            parts: vec![TermPart::Var(name.to_string())],
        }
    }

    /// A literal term.
    pub fn lit(value: &str) -> StringTerm {
        if value.is_empty() {
            StringTerm::empty()
        } else {
            StringTerm {
                parts: vec![TermPart::Lit(value.to_string())],
            }
        }
    }

    /// Concatenation of terms.
    pub fn concat<I: IntoIterator<Item = StringTerm>>(terms: I) -> StringTerm {
        let mut parts = Vec::new();
        for t in terms {
            parts.extend(t.parts);
        }
        StringTerm { parts }
    }

    /// Appends a part, returning the extended term (builder style).
    pub fn then(mut self, part: StringTerm) -> StringTerm {
        self.parts.extend(part.parts);
        self
    }

    /// The variables occurring in the term, in order, with duplicates.
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        self.parts.iter().filter_map(|p| match p {
            TermPart::Var(v) => Some(v.as_str()),
            TermPart::Lit(_) => None,
        })
    }

    /// Evaluates the term under an assignment of variables to strings.
    /// Unassigned variables evaluate to ε.
    pub fn eval(&self, assignment: &BTreeMap<String, String>) -> String {
        let mut out = String::new();
        for part in &self.parts {
            match part {
                TermPart::Var(v) => {
                    if let Some(w) = assignment.get(v) {
                        out.push_str(w);
                    }
                }
                TermPart::Lit(w) => out.push_str(w),
            }
        }
        out
    }

    /// Returns `true` if the term has no parts (denotes ε syntactically).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl fmt::Display for StringTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parts.is_empty() {
            return write!(f, "\"\"");
        }
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, " . ")?;
            }
            match p {
                TermPart::Var(v) => write!(f, "{v}")?,
                TermPart::Lit(w) => write!(f, "{w:?}")?,
            }
        }
        Ok(())
    }
}

/// An integer term over string lengths: `Σ coeff·len(x) + Σ coeff·intvar + k`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LenTerm {
    /// Coefficients of `len(x)` per string variable.
    pub len_coeffs: BTreeMap<String, i64>,
    /// Coefficients of integer variables.
    pub int_coeffs: BTreeMap<String, i64>,
    /// Constant offset.
    pub constant: i64,
}

impl LenTerm {
    /// The constant term `k`.
    pub fn constant(k: i64) -> LenTerm {
        LenTerm {
            constant: k,
            ..LenTerm::default()
        }
    }

    /// The term `len(x)`.
    pub fn len(var: &str) -> LenTerm {
        let mut t = LenTerm::default();
        t.len_coeffs.insert(var.to_string(), 1);
        t
    }

    /// The term for an integer variable.
    pub fn int_var(name: &str) -> LenTerm {
        let mut t = LenTerm::default();
        t.int_coeffs.insert(name.to_string(), 1);
        t
    }

    /// Adds another term in place.
    pub fn add(&mut self, other: &LenTerm) {
        for (v, c) in &other.len_coeffs {
            *self.len_coeffs.entry(v.clone()).or_insert(0) += c;
        }
        for (v, c) in &other.int_coeffs {
            *self.int_coeffs.entry(v.clone()).or_insert(0) += c;
        }
        self.constant += other.constant;
    }

    /// Evaluates the term under string and integer assignments.
    pub fn eval(&self, strings: &BTreeMap<String, String>, ints: &BTreeMap<String, i64>) -> i64 {
        let mut total = self.constant;
        for (v, c) in &self.len_coeffs {
            total += c * strings.get(v).map_or(0, |w| w.chars().count() as i64);
        }
        for (v, c) in &self.int_coeffs {
            total += c * ints.get(v).copied().unwrap_or(0);
        }
        total
    }
}

/// Comparison operators for length constraints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LenCmp {
    /// `≤`
    Le,
    /// `<`
    Lt,
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `≥`
    Ge,
    /// `>`
    Gt,
}

impl LenCmp {
    /// Evaluates `lhs ⋈ rhs`.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            LenCmp::Le => lhs <= rhs,
            LenCmp::Lt => lhs < rhs,
            LenCmp::Eq => lhs == rhs,
            LenCmp::Ne => lhs != rhs,
            LenCmp::Ge => lhs >= rhs,
            LenCmp::Gt => lhs > rhs,
        }
    }
}

/// The language of an [`StringAtom::InRe`] regex, compiled; a regex that
/// does not parse denotes the empty language.
pub fn regex_language(regex: &str) -> posr_automata::Nfa {
    posr_automata::Regex::parse(regex)
        .map(|r| r.compile())
        .unwrap_or_else(|_| posr_automata::Nfa::empty_language())
}

/// An atomic string constraint (a literal: the `negated` flag is part of the
/// atom, so a formula is simply a conjunction of atoms).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StringAtom {
    /// `lhs = rhs` (or `lhs ≠ rhs` when negated).
    Equation {
        /// Left-hand side.
        lhs: StringTerm,
        /// Right-hand side.
        rhs: StringTerm,
        /// Negation flag: `true` means a disequality.
        negated: bool,
    },
    /// `x ∈ L(re)` (or `x ∉ L(re)` when negated); the regex uses the syntax
    /// of [`posr_automata::regex::Regex`].
    InRe {
        /// The constrained variable.
        var: String,
        /// The regular expression.
        regex: String,
        /// Negation flag.
        negated: bool,
    },
    /// `prefixof(needle, haystack)` (or its negation).
    PrefixOf {
        /// The candidate prefix.
        needle: StringTerm,
        /// The containing term.
        haystack: StringTerm,
        /// Negation flag.
        negated: bool,
    },
    /// `suffixof(needle, haystack)` (or its negation).
    SuffixOf {
        /// The candidate suffix.
        needle: StringTerm,
        /// The containing term.
        haystack: StringTerm,
        /// Negation flag.
        negated: bool,
    },
    /// `contains(haystack, needle)` (or its negation).  Note the argument
    /// order follows SMT-LIB: the first argument is searched for the second.
    Contains {
        /// The containing term.
        haystack: StringTerm,
        /// The searched term.
        needle: StringTerm,
        /// Negation flag.
        negated: bool,
    },
    /// `x = str.at(t, i)` (or `x ≠ str.at(t, i)` when negated), with `i`
    /// given by an integer term.
    StrAt {
        /// The single variable on the left.
        var: String,
        /// The indexed term.
        term: StringTerm,
        /// The position.
        index: LenTerm,
        /// Negation flag.
        negated: bool,
    },
    /// A linear constraint over lengths and integer variables.
    Length {
        /// Left-hand side.
        lhs: LenTerm,
        /// Comparison.
        cmp: LenCmp,
        /// Right-hand side.
        rhs: LenTerm,
    },
}

impl StringAtom {
    /// Evaluates the atom under concrete string and integer assignments.
    pub fn eval(&self, strings: &BTreeMap<String, String>, ints: &BTreeMap<String, i64>) -> bool {
        match self {
            StringAtom::Equation { lhs, rhs, negated } => {
                (lhs.eval(strings) == rhs.eval(strings)) != *negated
            }
            StringAtom::InRe {
                var,
                regex,
                negated,
            } => {
                let value = strings.get(var).cloned().unwrap_or_default();
                regex_language(regex).accepts_str(&value) != *negated
            }
            StringAtom::PrefixOf {
                needle,
                haystack,
                negated,
            } => {
                let n = needle.eval(strings);
                let h = haystack.eval(strings);
                h.starts_with(&n) != *negated
            }
            StringAtom::SuffixOf {
                needle,
                haystack,
                negated,
            } => {
                let n = needle.eval(strings);
                let h = haystack.eval(strings);
                h.ends_with(&n) != *negated
            }
            StringAtom::Contains {
                haystack,
                needle,
                negated,
            } => {
                let h = haystack.eval(strings);
                let n = needle.eval(strings);
                h.contains(&n) != *negated
            }
            StringAtom::StrAt {
                var,
                term,
                index,
                negated,
            } => {
                let value = strings.get(var).cloned().unwrap_or_default();
                let word = term.eval(strings);
                let i = index.eval(strings, ints);
                let at = if i >= 0 && (i as usize) < word.chars().count() {
                    word.chars()
                        .nth(i as usize)
                        .map(String::from)
                        .unwrap_or_default()
                } else {
                    String::new()
                };
                (value == at) != *negated
            }
            StringAtom::Length { lhs, cmp, rhs } => {
                cmp.eval(lhs.eval(strings, ints), rhs.eval(strings, ints))
            }
        }
    }

    /// String variables mentioned by the atom.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        let push_term = |t: &StringTerm, out: &mut Vec<String>| {
            for v in t.variables() {
                out.push(v.to_string());
            }
        };
        match self {
            StringAtom::Equation { lhs, rhs, .. } => {
                push_term(lhs, &mut out);
                push_term(rhs, &mut out);
            }
            StringAtom::InRe { var, .. } => out.push(var.clone()),
            StringAtom::PrefixOf {
                needle, haystack, ..
            }
            | StringAtom::SuffixOf {
                needle, haystack, ..
            } => {
                push_term(needle, &mut out);
                push_term(haystack, &mut out);
            }
            StringAtom::Contains {
                haystack, needle, ..
            } => {
                push_term(haystack, &mut out);
                push_term(needle, &mut out);
            }
            StringAtom::StrAt {
                var, term, index, ..
            } => {
                out.push(var.clone());
                push_term(term, &mut out);
                out.extend(index.len_coeffs.keys().cloned());
            }
            StringAtom::Length { lhs, rhs, .. } => {
                out.extend(lhs.len_coeffs.keys().cloned());
                out.extend(rhs.len_coeffs.keys().cloned());
            }
        }
        out
    }
}

/// A conjunction of string atoms, built incrementally.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StringFormula {
    /// The conjoined atoms.
    pub atoms: Vec<StringAtom>,
}

impl StringFormula {
    /// The empty (trivially true) formula.
    pub fn new() -> StringFormula {
        StringFormula::default()
    }

    /// Adds an arbitrary atom.
    pub fn atom(mut self, atom: StringAtom) -> StringFormula {
        self.atoms.push(atom);
        self
    }

    /// Adds a regular membership `var ∈ L(regex)`.
    pub fn in_re(self, var: &str, regex: &str) -> StringFormula {
        self.atom(StringAtom::InRe {
            var: var.to_string(),
            regex: regex.to_string(),
            negated: false,
        })
    }

    /// Adds a word equation `lhs = rhs`.
    pub fn eq(self, lhs: StringTerm, rhs: StringTerm) -> StringFormula {
        self.atom(StringAtom::Equation {
            lhs,
            rhs,
            negated: false,
        })
    }

    /// Adds a disequality `lhs ≠ rhs`.
    pub fn diseq(self, lhs: StringTerm, rhs: StringTerm) -> StringFormula {
        self.atom(StringAtom::Equation {
            lhs,
            rhs,
            negated: true,
        })
    }

    /// Adds `¬contains(haystack, needle)`.
    pub fn not_contains(self, haystack: StringTerm, needle: StringTerm) -> StringFormula {
        self.atom(StringAtom::Contains {
            haystack,
            needle,
            negated: true,
        })
    }

    /// Adds `¬prefixof(needle, haystack)`.
    pub fn not_prefixof(self, needle: StringTerm, haystack: StringTerm) -> StringFormula {
        self.atom(StringAtom::PrefixOf {
            needle,
            haystack,
            negated: true,
        })
    }

    /// Adds `¬suffixof(needle, haystack)`.
    pub fn not_suffixof(self, needle: StringTerm, haystack: StringTerm) -> StringFormula {
        self.atom(StringAtom::SuffixOf {
            needle,
            haystack,
            negated: true,
        })
    }

    /// Adds the length equality `len(x) = len(y)`.
    pub fn len_eq(self, x: &str, y: &str) -> StringFormula {
        self.atom(StringAtom::Length {
            lhs: LenTerm::len(x),
            cmp: LenCmp::Eq,
            rhs: LenTerm::len(y),
        })
    }

    /// Adds an arbitrary length constraint.
    pub fn length(self, lhs: LenTerm, cmp: LenCmp, rhs: LenTerm) -> StringFormula {
        self.atom(StringAtom::Length { lhs, cmp, rhs })
    }

    /// All string variables, deduplicated, in order of first appearance.
    pub fn variables(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for a in &self.atoms {
            for v in a.variables() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Evaluates the formula under concrete assignments (used to validate
    /// models and by the enumeration baseline).
    pub fn eval(&self, strings: &BTreeMap<String, String>, ints: &BTreeMap<String, i64>) -> bool {
        self.atoms.iter().all(|a| a.eval(strings, ints))
    }
}

impl fmt::Display for StringFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "(and")?;
        for a in &self.atoms {
            writeln!(f, "  {a:?}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn term_evaluation_concatenates() {
        let t = StringTerm::concat(vec![
            StringTerm::var("x"),
            StringTerm::lit("-"),
            StringTerm::var("y"),
        ]);
        let a = strings(&[("x", "ab"), ("y", "cd")]);
        assert_eq!(t.eval(&a), "ab-cd");
    }

    #[test]
    fn equation_and_diseq_eval() {
        let a = strings(&[("x", "ab"), ("y", "ab")]);
        let eq = StringAtom::Equation {
            lhs: StringTerm::var("x"),
            rhs: StringTerm::var("y"),
            negated: false,
        };
        let ne = StringAtom::Equation {
            lhs: StringTerm::var("x"),
            rhs: StringTerm::var("y"),
            negated: true,
        };
        assert!(eq.eval(&a, &BTreeMap::new()));
        assert!(!ne.eval(&a, &BTreeMap::new()));
    }

    #[test]
    fn membership_eval() {
        let a = strings(&[("x", "abab")]);
        let atom = StringAtom::InRe {
            var: "x".to_string(),
            regex: "(ab)*".to_string(),
            negated: false,
        };
        assert!(atom.eval(&a, &BTreeMap::new()));
        let neg = StringAtom::InRe {
            var: "x".to_string(),
            regex: "(ab)*".to_string(),
            negated: true,
        };
        assert!(!neg.eval(&a, &BTreeMap::new()));
    }

    #[test]
    fn prefix_suffix_contains_eval() {
        let a = strings(&[("x", "ab"), ("y", "abcab")]);
        let assert_atom = |atom: StringAtom, expected: bool| {
            assert_eq!(atom.eval(&a, &BTreeMap::new()), expected, "{atom:?}");
        };
        assert_atom(
            StringAtom::PrefixOf {
                needle: StringTerm::var("x"),
                haystack: StringTerm::var("y"),
                negated: false,
            },
            true,
        );
        assert_atom(
            StringAtom::SuffixOf {
                needle: StringTerm::var("x"),
                haystack: StringTerm::var("y"),
                negated: true,
            },
            false,
        );
        assert_atom(
            StringAtom::Contains {
                haystack: StringTerm::var("y"),
                needle: StringTerm::lit("ca"),
                negated: false,
            },
            true,
        );
    }

    #[test]
    fn str_at_eval_including_out_of_bounds() {
        let a = strings(&[("c", "b"), ("y", "ab"), ("e", "")]);
        let ints: BTreeMap<String, i64> = [("i".to_string(), 1)].into_iter().collect();
        let atom = StringAtom::StrAt {
            var: "c".to_string(),
            term: StringTerm::var("y"),
            index: LenTerm::int_var("i"),
            negated: false,
        };
        assert!(atom.eval(&a, &ints));
        // out of bounds yields ε
        let oob = StringAtom::StrAt {
            var: "e".to_string(),
            term: StringTerm::var("y"),
            index: LenTerm::constant(7),
            negated: false,
        };
        assert!(oob.eval(&a, &ints));
    }

    #[test]
    fn length_constraints_eval() {
        let a = strings(&[("x", "abc"), ("y", "ab")]);
        let atom = StringAtom::Length {
            lhs: LenTerm::len("x"),
            cmp: LenCmp::Gt,
            rhs: LenTerm::len("y"),
        };
        assert!(atom.eval(&a, &BTreeMap::new()));
        let mut sum = LenTerm::len("x");
        sum.add(&LenTerm::len("y"));
        let atom2 = StringAtom::Length {
            lhs: sum,
            cmp: LenCmp::Eq,
            rhs: LenTerm::constant(5),
        };
        assert!(atom2.eval(&a, &BTreeMap::new()));
    }

    #[test]
    fn formula_builder_and_variables() {
        let f = StringFormula::new()
            .in_re("x", "a*")
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "z");
        assert_eq!(f.variables(), vec!["x", "y", "z"]);
        assert_eq!(f.atoms.len(), 3);
    }

    #[test]
    fn formula_eval_is_conjunction() {
        let f = StringFormula::new()
            .in_re("x", "a+")
            .diseq(StringTerm::var("x"), StringTerm::lit("aa"));
        let good = strings(&[("x", "aaa")]);
        let bad = strings(&[("x", "aa")]);
        assert!(f.eval(&good, &BTreeMap::new()));
        assert!(!f.eval(&bad, &BTreeMap::new()));
    }
}
