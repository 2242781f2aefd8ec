//! The benchmark's own answer check for generated queries: a bounded
//! brute-force search that shares no code with the solver.  It parses the
//! regexes itself, enumerates each language up to a short length, and
//! evaluates the atoms directly.  Finding an assignment refutes an `Unsat`
//! answer; finding none is consistent with it.

use std::collections::{BTreeMap, BTreeSet};

use posr_core::ast::{LenCmp, LenTerm, StringAtom, StringFormula, StringTerm, TermPart};

use crate::workloads::{int_vars, variables};

/// Longest word tried for a variable constrained by a regex.
const MAX_LEN: usize = 8;

/// Longest word tried for a variable no regex constrains (its domain is
/// every word over the query's alphabet, which grows much faster).
const MAX_FREE_LEN: usize = 4;

/// Integer variables range over `-1..=MAX_INT`.
const MAX_INT: i64 = MAX_LEN as i64 + 1;

/// Search nodes visited before giving up (the search is a bounded check,
/// not a decision procedure).
const MAX_NODES: u64 = 2_000_000;

/// A satisfying assignment of `f` with every word of at most `MAX_LEN`
/// letters, or `None` if the bounded search finds none.  `Err` when a
/// regex uses syntax this checker does not parse.
pub(crate) fn bounded_model(f: &StringFormula) -> Result<Option<Assignment>, String> {
    let alphabet = alphabet(f);
    let vars = variables(f);
    let ints: BTreeSet<&String> = f.atoms.iter().flat_map(int_vars).collect();

    let mut domains: Vec<(String, Domain)> = Vec::new();
    for v in &vars {
        if ints.contains(v) {
            domains.push((v.clone(), Domain::Int((-1..=MAX_INT).collect())));
            continue;
        }
        let mut words: Option<BTreeSet<String>> = None;
        let mut excluded: Vec<BTreeSet<String>> = Vec::new();
        for atom in &f.atoms {
            if let StringAtom::InRe {
                var,
                regex,
                negated,
            } = atom
            {
                if var != v {
                    continue;
                }
                let lang = Regex::parse(regex)?.words(MAX_LEN);
                if *negated {
                    excluded.push(lang);
                } else {
                    words = Some(match words {
                        None => lang,
                        Some(w) => w.intersection(&lang).cloned().collect(),
                    });
                }
            }
        }
        let mut words = words.unwrap_or_else(|| all_words(&alphabet, MAX_FREE_LEN));
        words.retain(|w| excluded.iter().all(|e| !e.contains(w)));
        domains.push((v.clone(), Domain::Str(words.into_iter().collect())));
    }
    // smallest domains first: cheap variables fail atoms early
    domains.sort_by_key(|(_, d)| d.len());

    // each atom is checked at the depth where its last variable is bound
    let depth_of: BTreeMap<&str, usize> = domains
        .iter()
        .enumerate()
        .map(|(i, (v, _))| (v.as_str(), i))
        .collect();
    let mut checks: Vec<Vec<&StringAtom>> = vec![Vec::new(); domains.len() + 1];
    // memberships are built into the domains; every other atom is checked
    for atom in f
        .atoms
        .iter()
        .filter(|a| !matches!(a, StringAtom::InRe { .. }))
    {
        let depth = atom_vars(atom)
            .iter()
            .map(|v| depth_of[v.as_str()] + 1)
            .max()
            .unwrap_or(0);
        checks[depth].push(atom);
    }

    let mut search = Search {
        domains: &domains,
        checks: &checks,
        current: Assignment::default(),
        nodes: 0,
    };
    if !search.atoms_hold(0) {
        return Ok(None);
    }
    Ok(search.run(0).then_some(search.current))
}

/// A concrete assignment found by the search.
#[derive(Clone, Debug, Default)]
pub(crate) struct Assignment {
    pub(crate) strings: BTreeMap<String, String>,
    pub(crate) ints: BTreeMap<String, i64>,
}

enum Domain {
    Str(Vec<String>),
    Int(Vec<i64>),
}

impl Domain {
    fn len(&self) -> usize {
        match self {
            Domain::Str(w) => w.len(),
            Domain::Int(n) => n.len(),
        }
    }
}

struct Search<'a> {
    domains: &'a [(String, Domain)],
    checks: &'a [Vec<&'a StringAtom>],
    current: Assignment,
    nodes: u64,
}

impl Search<'_> {
    fn run(&mut self, depth: usize) -> bool {
        if depth == self.domains.len() {
            return true;
        }
        let (var, domain) = &self.domains[depth];
        for k in 0..domain.len() {
            self.nodes += 1;
            if self.nodes > MAX_NODES {
                return false;
            }
            match domain {
                Domain::Str(w) => {
                    self.current.strings.insert(var.clone(), w[k].clone());
                }
                Domain::Int(n) => {
                    self.current.ints.insert(var.clone(), n[k]);
                }
            }
            if self.atoms_hold(depth + 1) && self.run(depth + 1) {
                return true;
            }
        }
        self.current.strings.remove(var);
        self.current.ints.remove(var);
        false
    }

    fn atoms_hold(&self, depth: usize) -> bool {
        self.checks[depth].iter().all(|a| holds(a, &self.current))
    }
}

/// Evaluates one atom other than a membership (the domains enforce those).
fn holds(atom: &StringAtom, a: &Assignment) -> bool {
    let term = |t: &StringTerm| -> String {
        t.parts
            .iter()
            .map(|p| match p {
                TermPart::Var(v) => a.strings.get(v).map(String::as_str).unwrap_or(""),
                TermPart::Lit(w) => w.as_str(),
            })
            .collect()
    };
    let len = |t: &LenTerm| -> i64 {
        let strings: i64 = t
            .len_coeffs
            .iter()
            .map(|(v, c)| c * a.strings.get(v).map_or(0, |w| w.chars().count() as i64))
            .sum();
        let ints: i64 = t
            .int_coeffs
            .iter()
            .map(|(v, c)| c * a.ints.get(v).copied().unwrap_or(0))
            .sum();
        t.constant + strings + ints
    };
    match atom {
        StringAtom::Equation { lhs, rhs, negated } => (term(lhs) == term(rhs)) != *negated,
        StringAtom::InRe { .. } => true,
        StringAtom::PrefixOf {
            needle,
            haystack,
            negated,
        } => term(haystack).starts_with(&term(needle)) != *negated,
        StringAtom::SuffixOf {
            needle,
            haystack,
            negated,
        } => term(haystack).ends_with(&term(needle)) != *negated,
        StringAtom::Contains {
            haystack,
            needle,
            negated,
        } => term(haystack).contains(&term(needle)) != *negated,
        StringAtom::StrAt {
            var,
            term: t,
            index,
            negated,
        } => {
            let word: Vec<char> = term(t).chars().collect();
            let at = usize::try_from(len(index))
                .ok()
                .and_then(|i| word.get(i))
                .map(|c| c.to_string())
                .unwrap_or_default();
            let value = a.strings.get(var).map(String::as_str).unwrap_or("");
            (value == at) != *negated
        }
        StringAtom::Length { lhs, cmp, rhs } => {
            let (l, r) = (len(lhs), len(rhs));
            match cmp {
                LenCmp::Le => l <= r,
                LenCmp::Lt => l < r,
                LenCmp::Eq => l == r,
                LenCmp::Ne => l != r,
                LenCmp::Ge => l >= r,
                LenCmp::Gt => l > r,
            }
        }
    }
}

fn atom_vars(atom: &StringAtom) -> Vec<String> {
    let mut vars = atom.variables();
    vars.extend(int_vars(atom).into_iter().cloned());
    vars
}

/// Every letter the query mentions, in regexes or literals.
fn alphabet(f: &StringFormula) -> Vec<char> {
    let mut letters = BTreeSet::new();
    let mut term = |t: &StringTerm| {
        for p in &t.parts {
            if let TermPart::Lit(w) = p {
                letters.extend(w.chars());
            }
        }
    };
    for atom in &f.atoms {
        match atom {
            StringAtom::Equation { lhs, rhs, .. } => {
                term(lhs);
                term(rhs);
            }
            StringAtom::PrefixOf {
                needle, haystack, ..
            }
            | StringAtom::SuffixOf {
                needle, haystack, ..
            }
            | StringAtom::Contains {
                haystack, needle, ..
            } => {
                term(needle);
                term(haystack);
            }
            StringAtom::StrAt { term: t, .. } => term(t),
            StringAtom::InRe { .. } | StringAtom::Length { .. } => {}
        }
    }
    for atom in &f.atoms {
        if let StringAtom::InRe { regex, .. } = atom {
            if let Ok(re) = Regex::parse(regex) {
                re.letters(&mut letters);
            }
        }
    }
    letters.into_iter().collect()
}

fn all_words(alphabet: &[char], max_len: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::from([String::new()]);
    let mut frontier = vec![String::new()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for w in &frontier {
            for &c in alphabet {
                let mut longer = w.clone();
                longer.push(c);
                next.push(longer);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// The regex syntax the generators use: literals, grouping, `|`, postfix
/// `*` `+` `?`, bounded repetition `{n}` `{n,m}` `{n,}`, classes `[...]`
/// with ranges, and `\` escapes.
#[derive(Clone, Debug)]
enum Regex {
    Epsilon,
    Class(Vec<char>),
    Concat(Vec<Regex>),
    Alt(Vec<Regex>),
    Repeat(Box<Regex>, usize, Option<usize>),
}

impl Regex {
    fn parse(text: &str) -> Result<Regex, String> {
        let chars: Vec<char> = text.chars().collect();
        let mut pos = 0;
        let re = parse_alt(&chars, &mut pos)?;
        if pos != chars.len() {
            return Err(format!("unexpected {:?} in regex {text:?}", chars[pos]));
        }
        Ok(re)
    }

    /// Every word of the language with at most `max_len` letters.
    fn words(&self, max_len: usize) -> BTreeSet<String> {
        match self {
            Regex::Epsilon => BTreeSet::from([String::new()]),
            Regex::Class(cs) => {
                if max_len == 0 {
                    BTreeSet::new()
                } else {
                    cs.iter().map(|c| c.to_string()).collect()
                }
            }
            Regex::Concat(parts) => {
                let mut acc = BTreeSet::from([String::new()]);
                for part in parts {
                    acc = concat(&acc, &part.words(max_len), max_len);
                }
                acc
            }
            Regex::Alt(options) => options.iter().flat_map(|o| o.words(max_len)).collect(),
            Regex::Repeat(inner, lo, hi) => {
                let one = inner.words(max_len);
                let mut acc = BTreeSet::from([String::new()]);
                let mut out = BTreeSet::new();
                let mut reps = 0;
                loop {
                    if reps >= *lo {
                        out.extend(acc.iter().cloned());
                    }
                    if hi.is_some_and(|h| reps >= h) {
                        break;
                    }
                    let next = concat(&acc, &one, max_len);
                    // no new words of bounded length: the rest repeats
                    if reps >= *lo && next.is_subset(&out) {
                        break;
                    }
                    // an iteration adds at least one letter unless the inner
                    // language holds only ε, so max_len + lo rounds suffice
                    if reps > max_len + lo {
                        break;
                    }
                    acc = next;
                    reps += 1;
                }
                out
            }
        }
    }

    fn letters(&self, out: &mut BTreeSet<char>) {
        match self {
            Regex::Epsilon => {}
            Regex::Class(cs) => out.extend(cs.iter().copied()),
            Regex::Concat(parts) | Regex::Alt(parts) => {
                for p in parts {
                    p.letters(out);
                }
            }
            Regex::Repeat(inner, _, _) => inner.letters(out),
        }
    }
}

fn concat(left: &BTreeSet<String>, right: &BTreeSet<String>, max_len: usize) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for l in left {
        let room = max_len - l.chars().count();
        for r in right {
            if r.chars().count() <= room {
                out.insert(format!("{l}{r}"));
            }
        }
    }
    out
}

fn parse_alt(chars: &[char], pos: &mut usize) -> Result<Regex, String> {
    let mut options = vec![parse_concat(chars, pos)?];
    while chars.get(*pos) == Some(&'|') {
        *pos += 1;
        options.push(parse_concat(chars, pos)?);
    }
    Ok(if options.len() == 1 {
        options.pop().expect("one option")
    } else {
        Regex::Alt(options)
    })
}

fn parse_concat(chars: &[char], pos: &mut usize) -> Result<Regex, String> {
    let mut parts = Vec::new();
    while let Some(&c) = chars.get(*pos) {
        if c == '|' || c == ')' {
            break;
        }
        let mut atom = parse_atom(chars, pos)?;
        while let Some(&op) = chars.get(*pos) {
            let (lo, hi) = match op {
                '*' => (0, None),
                '+' => (1, None),
                '?' => (0, Some(1)),
                '{' => {
                    let close = chars[*pos..]
                        .iter()
                        .position(|&c| c == '}')
                        .ok_or("unclosed repetition bound")?;
                    let body: String = chars[*pos + 1..*pos + close].iter().collect();
                    *pos += close;
                    parse_bounds(&body)?
                }
                _ => break,
            };
            *pos += 1;
            atom = Regex::Repeat(Box::new(atom), lo, hi);
        }
        parts.push(atom);
    }
    Ok(match parts.len() {
        0 => Regex::Epsilon,
        1 => parts.pop().expect("one part"),
        _ => Regex::Concat(parts),
    })
}

fn parse_bounds(body: &str) -> Result<(usize, Option<usize>), String> {
    let number = |s: &str| {
        s.trim()
            .parse::<usize>()
            .map_err(|_| format!("bad repetition bound {{{body}}}"))
    };
    Ok(match body.split_once(',') {
        None => {
            let n = number(body)?;
            (n, Some(n))
        }
        Some((lo, hi)) if hi.trim().is_empty() => (number(lo)?, None),
        Some((lo, hi)) => (number(lo)?, Some(number(hi)?)),
    })
}

fn parse_atom(chars: &[char], pos: &mut usize) -> Result<Regex, String> {
    let c = chars[*pos];
    *pos += 1;
    match c {
        '(' => {
            let inner = parse_alt(chars, pos)?;
            if chars.get(*pos) != Some(&')') {
                return Err("unclosed group".to_string());
            }
            *pos += 1;
            Ok(inner)
        }
        '[' => {
            let mut members = Vec::new();
            while let Some(&m) = chars.get(*pos) {
                *pos += 1;
                match m {
                    ']' => return Ok(Regex::Class(members)),
                    '^' if members.is_empty() => return Err("negated class".to_string()),
                    '-' if !members.is_empty() && chars.get(*pos).is_some_and(|&e| e != ']') => {
                        let from = members.pop().expect("range start");
                        let to = chars[*pos];
                        *pos += 1;
                        members.extend(from..=to);
                    }
                    _ => members.push(m),
                }
            }
            Err("unclosed class".to_string())
        }
        '\\' => {
            let escaped = *chars.get(*pos).ok_or("dangling escape")?;
            *pos += 1;
            Ok(Regex::Class(vec![escaped]))
        }
        '.' => Err("`.` needs the solver's background alphabet".to_string()),
        '*' | '+' | '?' | '{' => Err(format!("operator {c:?} without an operand")),
        _ => Ok(Regex::Class(vec![c])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(re: &str, n: usize) -> Vec<String> {
        Regex::parse(re).unwrap().words(n).into_iter().collect()
    }

    #[test]
    fn enumerates_bounded_languages() {
        assert_eq!(words("(ab)*", 5), ["", "ab", "abab"]);
        assert_eq!(words("a{0,2}", 9), ["", "a", "aa"]);
        assert_eq!(words("/?(a|b){1}", 2), ["/a", "/b", "a", "b"]);
        assert_eq!(words("[a-c]", 1), ["a", "b", "c"]);
        assert_eq!(words("(/b)+", 4), ["/b", "/b/b"]);
        assert_eq!(words("a*c*", 2), ["", "a", "aa", "ac", "c", "cc"]);
    }

    #[test]
    fn finds_a_short_witness_and_misses_none() {
        let sat = StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("y", "(ba)*")
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "y");
        let model = bounded_model(&sat).unwrap().expect("x=ab, y=ba");
        assert_ne!(model.strings["x"], model.strings["y"]);
        let unsat = StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("y", "(ab)*")
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "y");
        assert!(bounded_model(&unsat).unwrap().is_none());
    }

    #[test]
    fn unconstrained_variables_range_over_the_alphabet() {
        // path = head·tail with head ≠ "/a": head = "" works
        let f = StringFormula::new()
            .in_re("path", "(/a)*")
            .eq(
                StringTerm::var("path"),
                StringTerm::concat(vec![StringTerm::var("head"), StringTerm::var("tail")]),
            )
            .diseq(StringTerm::var("head"), StringTerm::lit("/a"))
            .length(LenTerm::len("path"), LenCmp::Ge, LenTerm::constant(2));
        let m = bounded_model(&f).unwrap().expect("a model exists");
        assert_eq!(
            format!("{}{}", m.strings["head"], m.strings["tail"]),
            m.strings["path"]
        );
    }
}
