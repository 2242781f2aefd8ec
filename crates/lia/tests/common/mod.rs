//! The random formula generator shared by the LIA integration tests.
//!
//! Formulas are conjunctions of unit atoms, shallow disjunctions,
//! disequalities and negations — the shapes the reductions produce — plus
//! parity-style scaled atoms that exercise the divisibility refutation.
//! Each test crate uses a subset of these items.
#![allow(dead_code)]

use posr_lia::formula::{Cmp, Formula};
use posr_lia::term::{LinExpr, Var};

/// A tiny deterministic xorshift generator: no external crates, stable
/// across platforms, reproducible failures (the round prints on mismatch).
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish value in `0..n` (n ≤ 2^32).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn int(&mut self, lo: i128, hi: i128) -> i128 {
        lo + self.below((hi - lo + 1) as u64) as i128
    }
}

pub fn random_atom(rng: &mut Rng, vars: &[Var]) -> Formula {
    let mut expr = LinExpr::constant(rng.int(-6, 6));
    let terms = 1 + rng.below(3);
    for _ in 0..terms {
        let v = vars[rng.below(vars.len() as u64) as usize];
        let coeff = match rng.below(8) {
            0 => 2,
            1 => -2,
            2 => 3,
            _ => *[-1i128, 1].get(rng.below(2) as usize).unwrap(),
        };
        expr += LinExpr::scaled_var(v, coeff);
    }
    let cmp = match rng.below(6) {
        0 => Cmp::Le,
        1 => Cmp::Lt,
        2 => Cmp::Ge,
        3 => Cmp::Gt,
        4 => Cmp::Eq,
        _ => Cmp::Ne,
    };
    Formula::Atom(posr_lia::formula::Atom { expr, cmp })
}

pub fn random_formula(rng: &mut Rng, vars: &[Var], depth: usize) -> Formula {
    if depth == 0 || rng.below(3) == 0 {
        return random_atom(rng, vars);
    }
    match rng.below(4) {
        0 => {
            let n = 2 + rng.below(3) as usize;
            Formula::and(
                (0..n)
                    .map(|_| random_formula(rng, vars, depth - 1))
                    .collect(),
            )
        }
        1 => {
            let n = 2 + rng.below(3) as usize;
            Formula::or(
                (0..n)
                    .map(|_| random_formula(rng, vars, depth - 1))
                    .collect(),
            )
        }
        2 => Formula::not(random_formula(rng, vars, depth - 1)),
        _ => random_atom(rng, vars),
    }
}

/// The box every random formula is conjoined with, and enumerated over.
pub const LO: i128 = -20;
pub const HI: i128 = 20;

pub fn boxed(vars: &[Var], formula: Formula) -> Formula {
    let mut conjuncts = vec![formula];
    for &v in vars {
        conjuncts.push(Formula::ge(LinExpr::var(v), LinExpr::constant(LO)));
        conjuncts.push(Formula::le(LinExpr::var(v), LinExpr::constant(HI)));
    }
    Formula::and(conjuncts)
}
