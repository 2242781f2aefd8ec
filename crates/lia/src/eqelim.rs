//! Divisibility (GCD) refutation over the equality subsystem, with
//! explanations.
//!
//! The Parikh encodings of loopy languages produce integer conflicts that
//! neither interval propagation nor the rational simplex can see: flow
//! equations force a *parity* relation between counters (in `(ab)*` the
//! position of an `a` is even because `#a = #b` along the run prefix), and
//! an aligned-mismatch constraint then demands `2·s = 2·t + 1`.  The
//! conjunction is rationally feasible, every interval is open, and integer
//! branching diverges along the unbounded counters — this is exactly why a
//! solver without this test resource-outs on the flagship `x,y ∈ (ab)*`,
//! `x ≠ y`, `|x| = |y|` instance.
//!
//! The cure is classical: Gaussian elimination over ℤ restricted to
//! *unit-coefficient* pivots (substituting `v = −R` for an equation
//! `±v + R = 0` is always integrality-preserving), followed by a GCD test on
//! every derived equation `Σ cᵢxᵢ + k = 0`: if `g = gcd(cᵢ)` does not divide
//! `k`, the equation — an integer linear combination of asserted
//! constraints — has no integer solution, so neither has the conjunction.
//!
//! Equalities are recovered from split half-spaces: the CDCL clausifier
//! turns `e = 0` into the two literals `e ≤ 0` and `−e ≤ 0`
//! ([`crate::cnf`]), so the collector pairs complementary `≤`-forms back
//! into equations, attributing both constraint indices.  Every derived
//! equation carries the *reason set* of original constraint indices that
//! were combined into it; a GCD conflict therefore comes with a small core
//! that [`crate::cdcl`] learns as a clause, refuting parity-infeasible
//! conjunctions without splitting on a single variable.

use std::collections::HashMap;

use crate::simplex::{Rel, SimplexConstraint};
use crate::term::{LinExpr, Var};

/// A compact set of reason indices — the provenance each derived equation
/// carries through the elimination.  A word bitset: unions are a few
/// `u64` ORs instead of a sorted-vector merge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Reasons {
    words: Vec<u64>,
}

impl Reasons {
    fn singleton(i: usize) -> Reasons {
        let mut set = Reasons::default();
        set.insert(i);
        set
    }

    fn insert(&mut self, i: usize) {
        let word = i / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (i % 64);
    }

    fn union(&self, other: &Reasons) -> Reasons {
        let (mut out, other) = if self.words.len() >= other.words.len() {
            (self.clone(), other)
        } else {
            (other.clone(), self)
        };
        for (w, &o) in out.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        out
    }

    /// The members as sorted indices.
    fn to_indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (wi, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(wi * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// A divisibility refutation: the constraints the derived equation
/// combines, and the pinned variables whose values it substituted (their
/// pinning constraints complete the core).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcdCore {
    /// Sorted constraint indices.
    pub constraints: Vec<usize>,
    /// The substituted pinned variables, ascending.
    pub pinned: Vec<Var>,
}

/// Fill-in cap: substitutions that would grow an equation beyond this many
/// terms are skipped (partial elimination stays sound, it only refutes
/// less).
const MAX_TERMS: usize = 64;

/// Cap on the number of pivot eliminations (backstop for degenerate
/// systems; the flow systems of the encodings stay far below it).
const MAX_PIVOTS: usize = 512;

use crate::rational::gcd;

/// `true` if the single equation `expr = 0` has no integer solution:
/// either it is a non-zero constant, or the GCD of its coefficients does
/// not divide its constant part.
fn equation_infeasible(expr: &LinExpr) -> bool {
    let mut g: i128 = 0;
    for (_, c) in expr.terms() {
        g = gcd(g, c);
    }
    let k = expr.constant_part();
    if g == 0 {
        k != 0
    } else {
        k % g != 0
    }
}

/// Substitutes the pinned variables into `expr`.  All arithmetic is
/// *checked*: a learned clause from a wrapped coefficient would be unsound
/// in release builds (where plain `i128` ops wrap silently), so on overflow
/// the substitution is abandoned (`None`) and the caller drops the
/// equation — sound, just less complete.
fn substitute_pinned(expr: &LinExpr, pinned: &dyn Fn(Var) -> Option<i128>) -> Option<LinExpr> {
    let mut constant = expr.constant_part();
    let mut out = LinExpr::zero();
    for (v, c) in expr.terms() {
        match pinned(v) {
            Some(value) => constant = constant.checked_add(c.checked_mul(value)?)?,
            None => out.add_term(v, c),
        }
    }
    Some(out + LinExpr::constant(constant))
}

/// `eq − factor·pivot` with checked arithmetic; `None` on overflow (the
/// elimination step is skipped, see [`substitute_pinned`]).
fn combine_checked(eq: &LinExpr, pivot: &LinExpr, factor: i128) -> Option<LinExpr> {
    let constant = eq
        .constant_part()
        .checked_sub(pivot.constant_part().checked_mul(factor)?)?;
    let mut out = LinExpr::constant(constant);
    for (v, c) in eq.terms() {
        out.add_term(v, c);
    }
    for (v, c) in pivot.terms() {
        let neg_delta = c.checked_mul(factor)?.checked_neg()?;
        // the combined coefficient must itself fit
        out.coeff(v).checked_add(neg_delta)?;
        out.add_term(v, neg_delta);
    }
    Some(out)
}

/// Collects the equality subsystem: explicit `Rel::Eq` constraints plus
/// complementary pairs of `≤`-forms (`e ≤ 0` together with `−e ≤ 0`),
/// with the pinned variables substituted out first (interval propagation
/// pins e.g. the 0/1 mismatch counters, and only then do the flow
/// equations expose their parity).
fn collect_equations(
    constraints: &[SimplexConstraint],
    pinned: &dyn Fn(Var) -> Option<i128>,
) -> Vec<(LinExpr, Reasons)> {
    let mut eqs: Vec<(LinExpr, Reasons)> = Vec::new();
    let mut le_seen: HashMap<LinExpr, Reasons> = HashMap::new();
    for (i, c) in constraints.iter().enumerate() {
        let reasons = Reasons::singleton(i);
        let raw = match c.rel {
            Rel::Eq => {
                if let Some(e) = substitute_pinned(&c.expr, pinned) {
                    eqs.push((e, reasons));
                }
                continue;
            }
            Rel::Le => c.expr.clone(),
            Rel::Ge => -c.expr.clone(),
        };
        let Some(e) = substitute_pinned(&raw, pinned) else {
            continue;
        };
        if let Some(other) = le_seen.get(&-e.clone()) {
            // e ≤ 0 ∧ −e ≤ 0 ⟺ e = 0
            eqs.push((e.clone(), reasons.union(other)));
        }
        le_seen.entry(e).or_insert(reasons);
    }
    eqs
}

/// [`conflict_core_pinned`] without pinned variables: the sorted indices
/// of an infeasible subset of `constraints`, if the elimination derives a
/// divisibility conflict.
pub fn conflict_core(constraints: &[SimplexConstraint]) -> Option<Vec<usize>> {
    conflict_core_pinned(constraints, &|_| None).map(|core| core.constraints)
}

/// Runs unit-pivot elimination with GCD tests over the equality subsystem,
/// substituting the values of the `pinned` variables first.  On
/// refutation returns the combined constraints and the substituted pinned
/// variables — one pass both detects and explains; `None` if no
/// divisibility conflict was derived.
pub fn conflict_core_pinned(
    constraints: &[SimplexConstraint],
    pinned: &dyn Fn(Var) -> Option<i128>,
) -> Option<GcdCore> {
    // every pinned variable of a combined constraint was substituted into
    // the equation it contributed, so those are the pins the core used
    let split = |reasons: &Reasons| {
        let constraints_used = reasons.to_indices();
        let mut pinned_used: Vec<Var> = constraints_used
            .iter()
            .flat_map(|&i| constraints[i].expr.variables())
            .filter(|&v| pinned(v).is_some())
            .collect();
        pinned_used.sort_unstable();
        pinned_used.dedup();
        GcdCore {
            constraints: constraints_used,
            pinned: pinned_used,
        }
    };
    let mut eqs = collect_equations(constraints, pinned);
    for (e, reasons) in &eqs {
        if equation_infeasible(e) {
            return Some(split(reasons));
        }
    }
    let mut used = vec![false; eqs.len()];
    let mut pivots = 0usize;
    for p in 0..eqs.len() {
        if used[p] || pivots >= MAX_PIVOTS {
            continue;
        }
        // a unit-coefficient variable to eliminate
        let Some((var, a)) = eqs[p].0.terms().find(|&(_, c)| c == 1 || c == -1) else {
            continue;
        };
        used[p] = true;
        pivots += 1;
        let (pivot_expr, pivot_reasons) = eqs[p].clone();
        for q in 0..eqs.len() {
            if q == p || used[q] {
                continue;
            }
            let c = eqs[q].0.coeff(var);
            if c == 0 {
                continue;
            }
            // E_q − (c·a)·E_p eliminates `var` (a² = 1); checked arithmetic
            // throughout — a silently wrapped coefficient would turn the
            // GCD test into an unsound refutation in release builds
            let Some(factor) = c.checked_mul(a) else {
                continue;
            };
            let Some(derived) = combine_checked(&eqs[q].0, &pivot_expr, factor) else {
                continue; // skip: overflow (sound, just less complete)
            };
            if derived.terms().count() > MAX_TERMS {
                continue; // skip: fill-in cap (sound, just less complete)
            }
            let reasons = eqs[q].1.union(&pivot_reasons);
            if equation_infeasible(&derived) {
                return Some(split(&reasons));
            }
            eqs[q] = (derived, reasons);
        }
    }
    None
}

/// `true` iff the elimination derives a divisibility conflict.
pub fn infeasible(constraints: &[SimplexConstraint]) -> bool {
    conflict_core(constraints).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::VarPool;

    fn le(expr: LinExpr) -> SimplexConstraint {
        SimplexConstraint { expr, rel: Rel::Le }
    }

    fn ge(expr: LinExpr) -> SimplexConstraint {
        SimplexConstraint { expr, rel: Rel::Ge }
    }

    fn eq(expr: LinExpr) -> SimplexConstraint {
        SimplexConstraint { expr, rel: Rel::Eq }
    }

    #[test]
    fn single_equation_gcd_conflict() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // 2x + 2y = 1
        let constraints = vec![eq(
            LinExpr::scaled_var(x, 2) + LinExpr::scaled_var(y, 2) - LinExpr::constant(1)
        )];
        assert_eq!(conflict_core(&constraints), Some(vec![0]));
    }

    #[test]
    fn parity_through_elimination() {
        let mut pool = VarPool::new();
        let p = pool.fresh("p");
        let q = pool.fresh("q");
        let s = pool.fresh("s");
        let t = pool.fresh("t");
        // p = 2s, q = 2t, p = q + 1: rationally feasible, integrally empty;
        // needs two eliminations before the gcd test fires
        let constraints = vec![
            eq(LinExpr::var(p) - LinExpr::scaled_var(s, 2)),
            eq(LinExpr::var(q) - LinExpr::scaled_var(t, 2)),
            eq(LinExpr::var(p) - LinExpr::var(q) - LinExpr::constant(1)),
        ];
        let core = conflict_core(&constraints).expect("parity conflict");
        assert_eq!(core, vec![0, 1, 2], "all three equations participate");
    }

    #[test]
    fn split_half_spaces_recombine_into_equations() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // the clausifier's split form of x = 2y and x = 2y + 1… via x−2y ≤ 0,
        // x−2y ≥ 0, and an explicit second equation
        let e = LinExpr::var(x) - LinExpr::scaled_var(y, 2);
        let constraints = vec![le(e.clone()), ge(e.clone()), eq(e - LinExpr::constant(1))];
        let core = conflict_core(&constraints).expect("conflict");
        assert_eq!(core, vec![0, 1, 2]);
    }

    #[test]
    fn feasible_systems_are_left_alone() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let constraints = vec![
            eq(LinExpr::var(x) - LinExpr::scaled_var(y, 2)),
            ge(LinExpr::var(y)),
            le(LinExpr::var(x) - LinExpr::constant(10)),
        ];
        assert_eq!(conflict_core(&constraints), None);
        assert!(!infeasible(&constraints));
    }

    #[test]
    fn pinned_substitutions_enter_the_core() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let z = pool.fresh("z");
        // 2x + y = 4 with y pinned to 1 leaves 2x = 3; z is noise
        let constraints = vec![
            ge(LinExpr::var(z)),
            eq(LinExpr::scaled_var(x, 2) + LinExpr::var(y) - LinExpr::constant(4)),
        ];
        assert_eq!(conflict_core(&constraints), None);
        let core = conflict_core_pinned(&constraints, &|v| (v == y).then_some(1));
        assert_eq!(
            core,
            Some(GcdCore {
                constraints: vec![1],
                pinned: vec![y],
            })
        );
    }

    #[test]
    fn irrelevant_equations_stay_out_of_the_core() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let z = pool.fresh("z");
        let w = pool.fresh("w");
        let constraints = vec![
            eq(LinExpr::var(z) - LinExpr::var(w)), // noise
            eq(LinExpr::scaled_var(x, 2) - LinExpr::constant(5)),
        ];
        let core = conflict_core(&constraints).expect("2x = 5 conflict");
        assert_eq!(core, vec![1]);
    }

    #[test]
    fn inconsistent_constants_after_elimination() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // x = y + 1 and x = y (as split halves): derives 0 = 1
        let d = LinExpr::var(x) - LinExpr::var(y);
        let constraints = vec![eq(d.clone() - LinExpr::constant(1)), le(d.clone()), ge(d)];
        let core = conflict_core(&constraints).expect("0 = 1");
        assert_eq!(core.len(), 3);
    }
}
