//! The benchmark's inputs.  Each workload is a fixed list of query
//! templates in a fixed order; `--seed` renames every letter and variable
//! of a pass.  The solver receives only the renamed formulas.
//!
//! The templates are fixed so that every seed runs the same amount of
//! work: drawing the generated families afresh per seed changes how many
//! queries take the slow CDCL(T) path or run into the deadline, and a
//! handful of those set most of a run's wall.  The order is fixed too, so
//! the peak heap and the cold-start cost land on the same queries every
//! run.

use std::collections::BTreeMap;
use std::time::Duration;

use posr_core::ast::{LenCmp, LenTerm, StringAtom, StringFormula, StringTerm, TermPart};

/// The named workloads of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Workload {
    /// The four generated symbolic-execution families, interleaved, each
    /// query sent to `StringSolver::solve`.
    Symexec,
    /// Hand-built position systems with verdicts known by construction.
    PositionSystems,
    /// The `symexec` queries raced by the default portfolio.
    SymexecPortfolio,
}

impl Workload {
    pub(crate) const ALL: [Workload; 3] = [
        Workload::Symexec,
        Workload::PositionSystems,
        Workload::SymexecPortfolio,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::Symexec => "symexec",
            Workload::PositionSystems => "position-systems",
            Workload::SymexecPortfolio => "symexec-portfolio",
        }
    }

    pub(crate) fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The per-query deadline.  Every generated template decides in under
    /// 2.5 s, raced or not, so the deadline only bounds a regression; the
    /// position systems all decide well inside their 60 s.
    pub(crate) fn deadline(self) -> Duration {
        match self {
            Workload::Symexec | Workload::SymexecPortfolio => Duration::from_secs(5),
            Workload::PositionSystems => Duration::from_secs(60),
        }
    }
}

/// A verdict known by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    Sat,
    Unsat,
}

/// One benchmark query.
#[derive(Clone, Debug)]
pub(crate) struct Query {
    pub(crate) name: String,
    pub(crate) family: &'static str,
    pub(crate) formula: StringFormula,
    /// The hand-written verdict of a position system; generated queries
    /// have none and are checked by the bounded oracle instead.
    pub(crate) expected: Option<Verdict>,
}

/// The seed `posr_bench::gen` draws the symexec templates with.
const GEN_SEED: u64 = 2025;

/// Generated templates per family, for both generated workloads.  The
/// prefix holds one slow Unsat (thefuck-0002, about 1.2 s through the tag
/// encoding), so a run of many passes puts its latency tail among repeated
/// samples of that query rather than between two queries' timings, as the
/// next slow Unsats (thefuck-0005 from index 5, biopython-0011 from 11)
/// would.  It also stops well before biopython-0015, on which the
/// naive-order lane ignores its token for about 100 s.
const SYMEXEC_PER_FAMILY: usize = 5;

/// Generated templates in the prefix that no lane decides within 5 s.
/// Each would fail its query and, waiting out the deadline, set most of a
/// pass's wall; the benchmark sends only queries the solver decides.
const UNDECIDED: [&str; 1] = ["thefuck-0001"];

/// The templates of `workload`, before renaming: interleaved families for
/// the generated workloads.  `limit` keeps only the first templates (the
/// self-test runs a few).
pub(crate) fn templates(workload: Workload, limit: Option<usize>) -> Vec<Query> {
    let mut out = match workload {
        Workload::Symexec | Workload::SymexecPortfolio => symexec(),
        Workload::PositionSystems => position_systems(),
    };
    if let Some(n) = limit {
        out.truncate(n);
    }
    out
}

/// Pass `pass` of a run at `seed`: every template renamed by one seeded
/// letter and variable permutation.  Queries of one pass share the
/// renaming, so a regex that recurs across templates still recurs (and
/// hits the automaton cache) within the pass.
pub(crate) fn pass(templates: &[Query], seed: u64, pass: u64) -> Vec<Query> {
    let mut rng = SplitMix(seed ^ pass.wrapping_mul(0xa076_1d64_78bd_642f));
    let renaming = Renaming::draw(templates, &mut rng);
    templates
        .iter()
        .map(|t| Query {
            name: t.name.clone(),
            family: t.family,
            formula: renaming.apply(&t.formula),
            expected: t.expected,
        })
        .collect()
}

/// The four `posr_bench::gen` families round-robin.
fn symexec() -> Vec<Query> {
    let per_family = SYMEXEC_PER_FAMILY;
    let families: Vec<(&'static str, Vec<posr_bench::gen::Instance>)> =
        posr_bench::gen::suite_names()
            .into_iter()
            .map(|family| (family, posr_bench::gen::suite(family, per_family, GEN_SEED)))
            .collect();
    let mut out = Vec::with_capacity(families.len() * per_family);
    for i in 0..per_family {
        for (family, instances) in &families {
            let inst = &instances[i];
            if UNDECIDED.contains(&inst.name.as_str()) {
                continue;
            }
            out.push(Query {
                name: inst.name.clone(),
                family,
                formula: inst.formula.clone(),
                expected: None,
            });
        }
    }
    out
}

/// Hand-built systems over the letters `a`/`b` whose verdicts follow from
/// their construction.  Each one's shortest witness (if any) is longer
/// than the 8 letters the front end's sampling tries, so every system
/// reaches the tag encoding.
///
/// The pigeonhole system (three pairwise-distinct words over `a|b`) is
/// left out: it took 15–33 s and 229–532 conflicts across renamings, one
/// query that alone would set the wall of a run.
fn position_systems() -> Vec<Query> {
    let mut out = Vec::new();
    // loopy equal-length disequalities: two equal-length words of one w*
    // are equal (the flagship Unsat); over w* and a rotation of w they can
    // differ, at any length from |w| on — the floor pushes the witness
    // past the sampler
    for &(lx, ly, floor, verdict) in LOOPY {
        let mut f = StringFormula::new()
            .in_re("x", &format!("({lx})*"))
            .in_re("y", &format!("({ly})*"))
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "y");
        if floor > 0 {
            f = f.length(LenTerm::len("x"), LenCmp::Ge, LenTerm::constant(floor));
        }
        out.push(Query {
            name: format!("loopy-{lx}-{ly}-{floor}-{}", verdict_name(verdict)),
            family: "loopy",
            formula: f,
            expected: Some(verdict),
        });
    }
    // product-cycle(n,m): x ∈ (a^{n-1}b)*, y ∈ (a^{m-1}b)*, x ≠ y,
    // |x| = |y|.  With n ≠ m the words meet at length lcm(n,m) and differ
    // there, so it is Sat; below lcm the only common length is 0, so the
    // twin with |x| < lcm(n,m) is Unsat
    for &(n, m) in PRODUCT_CYCLES {
        let cycle = |k: usize| format!("({}b)*", "a".repeat(k - 1));
        let base = StringFormula::new()
            .in_re("x", &cycle(n))
            .in_re("y", &cycle(m))
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "y");
        out.push(Query {
            name: format!("product-cycle-{n}x{m}-sat"),
            family: "product-cycle",
            formula: base.clone(),
            expected: Some(Verdict::Sat),
        });
        out.push(Query {
            name: format!("product-cycle-{n}x{m}-unsat"),
            family: "product-cycle",
            formula: base.length(
                LenTerm::len("x"),
                LenCmp::Lt,
                LenTerm::constant(lcm(n, m) as i64),
            ),
            expected: Some(Verdict::Unsat),
        });
    }
    out
}

/// `(language of x, language of y, |x| floor, verdict)` of the loopy
/// family; the flagship comes first so the self-test's prefix is cheap.
const LOOPY: &[(&str, &str, i64, Verdict)] = &[
    ("ab", "ab", 0, Verdict::Unsat),
    ("ab", "ba", 10, Verdict::Sat),
    ("aab", "aba", 12, Verdict::Sat),
];

/// `(n, m)` cycle lengths of the product-cycle family.  The 6×9 Unsat
/// twin is the slowest system (about 0.6 s, varying ±9% across renamings),
/// so a run's latency tail falls among its samples; the 8×12 twins took
/// 0.4–1.3 s and would put the tail between two noisy clusters.
const PRODUCT_CYCLES: &[(usize, usize)] = &[(4, 6), (6, 9)];

fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::Sat => "sat",
        Verdict::Unsat => "unsat",
    }
}

fn lcm(a: usize, b: usize) -> usize {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
}

/// A consistent renaming of one pass: a permutation of the lowercase
/// letters (applied to regexes and literals alike, so every language is
/// mapped bijectively) and fresh names for the string and integer
/// variables.
struct Renaming {
    letters: [char; 26],
    vars: BTreeMap<String, String>,
}

impl Renaming {
    fn draw(templates: &[Query], rng: &mut SplitMix) -> Renaming {
        let mut letters = [' '; 26];
        for (slot, c) in letters.iter_mut().zip('a'..='z') {
            *slot = c;
        }
        for i in (1..letters.len()).rev() {
            letters.swap(i, rng.below(i + 1));
        }
        let mut names: Vec<String> = Vec::new();
        for t in templates {
            for v in variables(&t.formula) {
                if !names.contains(&v) {
                    names.push(v);
                }
            }
        }
        let mut fresh: Vec<usize> = (0..names.len()).collect();
        for i in (1..fresh.len()).rev() {
            fresh.swap(i, rng.below(i + 1));
        }
        let vars = names
            .into_iter()
            .zip(fresh)
            .map(|(name, k)| (name, format!("v{k}")))
            .collect();
        Renaming { letters, vars }
    }

    fn letter(&self, c: char) -> char {
        if c.is_ascii_lowercase() {
            self.letters[(c as u8 - b'a') as usize]
        } else {
            c
        }
    }

    fn word(&self, w: &str) -> String {
        w.chars().map(|c| self.letter(c)).collect()
    }

    /// Regex operators and repetition bounds are not letters, so mapping
    /// every lowercase letter renames exactly the literal symbols.
    fn regex(&self, re: &str) -> String {
        self.word(re)
    }

    fn var(&self, v: &str) -> String {
        self.vars.get(v).cloned().unwrap_or_else(|| v.to_string())
    }

    fn term(&self, t: &StringTerm) -> StringTerm {
        StringTerm {
            parts: t
                .parts
                .iter()
                .map(|p| match p {
                    TermPart::Var(v) => TermPart::Var(self.var(v)),
                    TermPart::Lit(w) => TermPart::Lit(self.word(w)),
                })
                .collect(),
        }
    }

    fn len(&self, t: &LenTerm) -> LenTerm {
        LenTerm {
            len_coeffs: t
                .len_coeffs
                .iter()
                .map(|(v, c)| (self.var(v), *c))
                .collect(),
            int_coeffs: t
                .int_coeffs
                .iter()
                .map(|(v, c)| (self.var(v), *c))
                .collect(),
            constant: t.constant,
        }
    }

    fn apply(&self, f: &StringFormula) -> StringFormula {
        let atoms = f
            .atoms
            .iter()
            .map(|a| match a {
                StringAtom::Equation { lhs, rhs, negated } => StringAtom::Equation {
                    lhs: self.term(lhs),
                    rhs: self.term(rhs),
                    negated: *negated,
                },
                StringAtom::InRe {
                    var,
                    regex,
                    negated,
                } => StringAtom::InRe {
                    var: self.var(var),
                    regex: self.regex(regex),
                    negated: *negated,
                },
                StringAtom::PrefixOf {
                    needle,
                    haystack,
                    negated,
                } => StringAtom::PrefixOf {
                    needle: self.term(needle),
                    haystack: self.term(haystack),
                    negated: *negated,
                },
                StringAtom::SuffixOf {
                    needle,
                    haystack,
                    negated,
                } => StringAtom::SuffixOf {
                    needle: self.term(needle),
                    haystack: self.term(haystack),
                    negated: *negated,
                },
                StringAtom::Contains {
                    haystack,
                    needle,
                    negated,
                } => StringAtom::Contains {
                    haystack: self.term(haystack),
                    needle: self.term(needle),
                    negated: *negated,
                },
                StringAtom::StrAt {
                    var,
                    term,
                    index,
                    negated,
                } => StringAtom::StrAt {
                    var: self.var(var),
                    term: self.term(term),
                    index: self.len(index),
                    negated: *negated,
                },
                StringAtom::Length { lhs, cmp, rhs } => StringAtom::Length {
                    lhs: self.len(lhs),
                    cmp: *cmp,
                    rhs: self.len(rhs),
                },
            })
            .collect();
        StringFormula { atoms }
    }
}

/// String and integer variables of `f`, in order of first appearance.
pub(crate) fn variables(f: &StringFormula) -> Vec<String> {
    let mut out = f.variables();
    for v in f.atoms.iter().flat_map(int_vars) {
        if !out.contains(v) {
            out.push(v.clone());
        }
    }
    out
}

/// The integer variables of one atom: a `str.at` index or a length
/// constraint's integer terms.
pub(crate) fn int_vars(atom: &StringAtom) -> Vec<&String> {
    match atom {
        StringAtom::StrAt { index, .. } => index.int_coeffs.keys().collect(),
        StringAtom::Length { lhs, rhs, .. } => {
            lhs.int_coeffs.keys().chain(rhs.int_coeffs.keys()).collect()
        }
        _ => Vec::new(),
    }
}

/// FNV-1a over every query's name and formula: equal fingerprints mean
/// both sides of a comparison ran identical inputs.
pub(crate) fn fingerprint(queries: &[Query]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for q in queries {
        for b in format!("{}\n{}\n", q.name, q.formula).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: a small, well-mixed generator for the seeded choices above.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
