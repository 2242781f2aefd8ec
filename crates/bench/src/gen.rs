//! Synthetic workload generators for the four benchmark families of the
//! paper's evaluation (Sec. 8.1), scaled to laptop size.
//!
//! * `biopython` — symbolic-execution style: sequence-like variables over a
//!   small alphabet, disequalities against literals and other variables,
//!   length constraints, occasional concatenation equations.
//! * `django` — path/URL style: `¬prefixof`/`¬suffixof` branches, `str.at`
//!   checks, concatenation equations defining a path from its pieces.
//! * `thefuck` — command-line style: disequalities plus `¬contains` with
//!   literal needles and length constraints.
//! * `position-hard` — the hand-crafted primitive-word-style family:
//!   `xy ≠ yx`, `xyz ≠ xxy`, `¬contains(xyx, yxy)` over flat languages such
//!   as `a*`, `(ab)*`, `(abc)*`.

use posr_core::ast::{LenCmp, LenTerm, StringAtom, StringFormula, StringTerm};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A generated benchmark instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Family name.
    pub suite: String,
    /// Instance name (unique within the family).
    pub name: String,
    /// The formula to solve.
    pub formula: StringFormula,
}

/// The names of the four families, in the order used by the paper's Table 1.
pub fn suite_names() -> Vec<&'static str> {
    vec!["biopython", "django", "thefuck", "position-hard"]
}

/// Generates `count` instances of the named family with a deterministic seed.
///
/// # Panics
/// Panics if the family name is unknown.
pub fn suite(name: &str, count: usize, seed: u64) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let formula = match name {
                "biopython" => biopython_like(&mut rng),
                "django" => django_like(&mut rng),
                "thefuck" => thefuck_like(&mut rng),
                "position-hard" => position_hard(&mut rng, i),
                other => panic!("unknown benchmark family {other}"),
            };
            Instance {
                suite: name.to_string(),
                name: format!("{name}-{i:04}"),
                formula,
            }
        })
        .collect()
}

fn pick_word(rng: &mut StdRng, alphabet: &[char], len: usize) -> String {
    (0..len)
        .map(|_| *alphabet.choose(rng).expect("non-empty alphabet"))
        .collect()
}

/// Symbolic-execution style instances over a DNA-ish alphabet.
fn biopython_like(rng: &mut StdRng) -> StringFormula {
    let alphabet = ['a', 'c', 'g', 't'];
    let mut f = StringFormula::new();
    let base = *["(ac)*", "(acg)*", "[acgt]{0,3}", "a*c*", "(ga)*"]
        .choose(rng)
        .expect("non-empty");
    f = f.in_re("seq", base);
    f = f.in_re(
        "frag",
        ["(ac)*", "g*", "(ta)*"].choose(rng).expect("non-empty"),
    );
    // an else-branch disequality against a literal or another variable
    if rng.gen_bool(0.5) {
        let len = rng.gen_range(1..=3);
        let lit = pick_word(rng, &alphabet, len);
        f = f.diseq(StringTerm::var("seq"), StringTerm::lit(&lit));
    } else {
        f = f.diseq(StringTerm::var("seq"), StringTerm::var("frag"));
    }
    // sometimes a second disequality and a length constraint
    if rng.gen_bool(0.5) {
        f = f.diseq(
            StringTerm::var("frag"),
            StringTerm::lit(&pick_word(rng, &alphabet, 2)),
        );
    }
    if rng.gen_bool(0.6) {
        let bound = rng.gen_range(0..=4);
        f = f.length(LenTerm::len("seq"), LenCmp::Ge, LenTerm::constant(bound));
    }
    if rng.gen_bool(0.3) {
        // an unsatisfiable variant: force equality of languages and lengths
        // that contradict a disequality on a singleton language
        let w = pick_word(rng, &['a', 'c'], 2);
        f = f.in_re("dup", &w.chars().map(|c| c.to_string()).collect::<String>());
        f = f.diseq(StringTerm::var("dup"), StringTerm::lit(&w));
    }
    f
}

/// Path-manipulation style instances: prefixes, suffixes and `str.at`.
fn django_like(rng: &mut StdRng) -> StringFormula {
    let mut f = StringFormula::new();
    f = f.in_re(
        "path",
        ["(/a|/b)*", "(/ab)*", "/?(a|b){0,3}"]
            .choose(rng)
            .expect("ok"),
    );
    f = f.in_re("route", ["(/a)*", "(/b)+", "/a/b"].choose(rng).expect("ok"));
    match rng.gen_range(0..4) {
        0 => {
            f = f.not_prefixof(StringTerm::var("route"), StringTerm::var("path"));
        }
        1 => {
            f = f.not_suffixof(StringTerm::var("route"), StringTerm::var("path"));
        }
        2 => {
            f = f.in_re("c", "/|a|b");
            f = f.atom(StringAtom::StrAt {
                var: "c".to_string(),
                term: StringTerm::var("path"),
                index: LenTerm::int_var("i"),
                negated: rng.gen_bool(0.5),
            });
            f = f.length(LenTerm::int_var("i"), LenCmp::Ge, LenTerm::constant(0));
        }
        _ => {
            // a concatenation equation followed by an else-branch disequality
            f = f.eq(
                StringTerm::var("path"),
                StringTerm::concat(vec![StringTerm::var("head"), StringTerm::var("tail")]),
            );
            f = f.diseq(StringTerm::var("head"), StringTerm::lit("/a"));
        }
    }
    if rng.gen_bool(0.4) {
        f = f.length(LenTerm::len("path"), LenCmp::Le, LenTerm::constant(6));
    }
    f
}

/// Command-line style instances: disequalities and ¬contains with literals.
fn thefuck_like(rng: &mut StdRng) -> StringFormula {
    let mut f = StringFormula::new();
    f = f.in_re(
        "cmd",
        ["(ab)*", "(a|b){0,4}", "a(ba)*"].choose(rng).expect("ok"),
    );
    f = f.in_re("arg", ["b*", "(ab)*", "a{0,3}"].choose(rng).expect("ok"));
    f = f.diseq(StringTerm::var("cmd"), StringTerm::var("arg"));
    match rng.gen_range(0..3) {
        0 => {
            f = f.not_contains(StringTerm::var("cmd"), StringTerm::lit("bb"));
        }
        1 => {
            f = f.not_contains(
                StringTerm::concat(vec![StringTerm::var("cmd"), StringTerm::var("arg")]),
                StringTerm::lit("aa"),
            );
        }
        _ => {
            f = f.length(LenTerm::len("cmd"), LenCmp::Ne, LenTerm::len("arg"));
        }
    }
    if rng.gen_bool(0.3) {
        // an unsatisfiable twist: the same singleton word on both sides
        f = f.in_re("fix", "ab");
        f = f.diseq(StringTerm::var("fix"), StringTerm::lit("ab"));
    }
    f
}

/// The primitive-word-style hard instances of the `position-hard` family.
fn position_hard(rng: &mut StdRng, index: usize) -> StringFormula {
    let flat = ["a*", "(ab)*", "(abc)*", "(ba)*"];
    let lx = flat[index % flat.len()];
    let ly = flat[(index / flat.len()) % flat.len()];
    let x = StringTerm::var("x");
    let y = StringTerm::var("y");
    let z = StringTerm::var("z");
    let mut f = StringFormula::new()
        .in_re("x", lx)
        .in_re("y", ly)
        .in_re("z", "a*");
    match index % 5 {
        0 => {
            // xy ≠ yx
            f = f.diseq(
                StringTerm::concat(vec![x.clone(), y.clone()]),
                StringTerm::concat(vec![y.clone(), x.clone()]),
            );
        }
        1 => {
            // xyz ≠ xxy
            f = f.diseq(
                StringTerm::concat(vec![x.clone(), y.clone(), z.clone()]),
                StringTerm::concat(vec![x.clone(), x.clone(), y.clone()]),
            );
        }
        2 => {
            // ¬contains(xyx, yxy)
            f = f.not_contains(
                StringTerm::concat(vec![x.clone(), y.clone(), x.clone()]),
                StringTerm::concat(vec![y.clone(), x.clone(), y.clone()]),
            );
        }
        3 => {
            // ¬contains(xx, x·y) — unsatisfiable when y can be ε? keep both
            // directions in the family by alternating a length constraint
            f = f.not_contains(
                StringTerm::concat(vec![x.clone(), x.clone()]),
                StringTerm::concat(vec![x.clone(), y.clone()]),
            );
            if rng.gen_bool(0.5) {
                f = f.length(LenTerm::len("y"), LenCmp::Ge, LenTerm::constant(1));
            }
        }
        _ => {
            // xy ≠ yx with equal lengths forced
            f = f
                .diseq(
                    StringTerm::concat(vec![x.clone(), y.clone()]),
                    StringTerm::concat(vec![y.clone(), x.clone()]),
                )
                .len_eq("x", "y");
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suites_generate_requested_counts() {
        for name in suite_names() {
            let instances = suite(name, 7, 42);
            assert_eq!(instances.len(), 7);
            for inst in &instances {
                assert!(!inst.formula.atoms.is_empty());
                assert_eq!(inst.suite, name);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = suite("biopython", 5, 7);
        let b = suite("biopython", 5, 7);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.formula, y.formula);
        }
    }

    #[test]
    fn position_hard_instances_contain_position_constraints() {
        for inst in suite("position-hard", 10, 1) {
            let nf = posr_core::normal::normalize(&inst.formula).unwrap();
            assert!(!nf.positions.is_empty());
        }
    }
}
