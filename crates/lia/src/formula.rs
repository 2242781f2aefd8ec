//! LIA formulas: Boolean combinations of linear constraints.
//!
//! The reductions of the paper produce conjunctions and disjunctions of
//! linear (in)equalities over Parikh variables: the Parikh formula
//! (Appendix A), the consistency side conditions (Sec. 5.3) and the user's
//! own length constraints `I`.  The one quantified formula of the paper,
//! the ∀∃ `φ^NC` of `¬contains` (Eq. 32), is never built: `posr-core`
//! instantiates its universal quantifier by checking candidate words
//! concretely, so the type holds quantifier-free formulas only.

use std::collections::BTreeSet;
use std::fmt;

use crate::term::{LinExpr, Var, VarPool};

/// Comparison operator of an atom `expr ⋈ 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cmp {
    /// `expr ≤ 0`
    Le,
    /// `expr < 0`
    Lt,
    /// `expr ≥ 0`
    Ge,
    /// `expr > 0`
    Gt,
    /// `expr = 0`
    Eq,
    /// `expr ≠ 0`
    Ne,
}

impl Cmp {
    /// The comparison satisfied exactly when `self` is not.
    pub fn negate(self) -> Cmp {
        match self {
            Cmp::Le => Cmp::Gt,
            Cmp::Lt => Cmp::Ge,
            Cmp::Ge => Cmp::Lt,
            Cmp::Gt => Cmp::Le,
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
        }
    }

    /// Evaluates `value ⋈ 0`.
    pub fn eval(self, value: i128) -> bool {
        match self {
            Cmp::Le => value <= 0,
            Cmp::Lt => value < 0,
            Cmp::Ge => value >= 0,
            Cmp::Gt => value > 0,
            Cmp::Eq => value == 0,
            Cmp::Ne => value != 0,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Le => "≤",
            Cmp::Lt => "<",
            Cmp::Ge => "≥",
            Cmp::Gt => ">",
            Cmp::Eq => "=",
            Cmp::Ne => "≠",
        };
        write!(f, "{s}")
    }
}

/// An atomic constraint `expr ⋈ 0`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// Left-hand side; the right-hand side is always 0.
    pub expr: LinExpr,
    /// Comparison operator.
    pub cmp: Cmp,
}

impl Atom {
    /// Creates the atom `lhs ⋈ rhs` as `lhs - rhs ⋈ 0`.
    pub fn new(lhs: LinExpr, cmp: Cmp, rhs: LinExpr) -> Atom {
        Atom {
            expr: lhs - rhs,
            cmp,
        }
    }

    /// The negation of the atom.
    pub fn negate(&self) -> Atom {
        Atom {
            expr: self.expr.clone(),
            cmp: self.cmp.negate(),
        }
    }

    /// Evaluates the atom under a total assignment.
    pub fn eval(&self, assignment: &dyn Fn(Var) -> i128) -> bool {
        self.cmp.eval(self.expr.eval(assignment))
    }

    /// If the atom contains no variables, returns its truth value.
    pub fn constant_value(&self) -> Option<bool> {
        if self.expr.is_constant() {
            Some(self.cmp.eval(self.expr.constant_part()))
        } else {
            None
        }
    }
}

/// A LIA formula.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Formula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// An atomic linear constraint.
    Atom(Atom),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
}

impl Formula {
    /// Conjunction with simplification of trivial cases.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::True,
            1 => flat.pop().expect("len 1"),
            _ => Formula::And(flat),
        }
    }

    /// Disjunction with simplification of trivial cases.
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Formula::False,
            1 => flat.pop().expect("len 1"),
            _ => Formula::Or(flat),
        }
    }

    /// Negation with double-negation elimination.
    #[allow(clippy::should_implement_trait)] // smart constructor, not `ops::Not`
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            Formula::Atom(a) => Formula::Atom(a.negate()),
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Implication `a → b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::or(vec![Formula::not(a), b])
    }

    /// Bi-implication `a ↔ b`.
    pub fn iff(a: Formula, b: Formula) -> Formula {
        Formula::and(vec![
            Formula::implies(a.clone(), b.clone()),
            Formula::implies(b, a),
        ])
    }

    /// Atom `lhs = rhs`.
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Formula {
        Formula::Atom(Atom::new(lhs, Cmp::Eq, rhs))
    }

    /// Atom `lhs ≠ rhs`.
    pub fn ne(lhs: LinExpr, rhs: LinExpr) -> Formula {
        Formula::Atom(Atom::new(lhs, Cmp::Ne, rhs))
    }

    /// Atom `lhs ≤ rhs`.
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Formula {
        Formula::Atom(Atom::new(lhs, Cmp::Le, rhs))
    }

    /// Atom `lhs < rhs`.
    pub fn lt(lhs: LinExpr, rhs: LinExpr) -> Formula {
        Formula::Atom(Atom::new(lhs, Cmp::Lt, rhs))
    }

    /// Atom `lhs ≥ rhs`.
    pub fn ge(lhs: LinExpr, rhs: LinExpr) -> Formula {
        Formula::Atom(Atom::new(lhs, Cmp::Ge, rhs))
    }

    /// Atom `lhs > rhs`.
    pub fn gt(lhs: LinExpr, rhs: LinExpr) -> Formula {
        Formula::Atom(Atom::new(lhs, Cmp::Gt, rhs))
    }

    /// Number of AST nodes; used to report encoding sizes in the benchmarks.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::And(parts) | Formula::Or(parts) => {
                1 + parts.iter().map(Formula::size).sum::<usize>()
            }
            Formula::Not(inner) => 1 + inner.size(),
        }
    }

    /// Number of atomic constraints.
    pub fn num_atoms(&self) -> usize {
        match self {
            Formula::True | Formula::False => 0,
            Formula::Atom(_) => 1,
            Formula::And(parts) | Formula::Or(parts) => parts.iter().map(Formula::num_atoms).sum(),
            Formula::Not(inner) => inner.num_atoms(),
        }
    }

    /// Free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        fn go(f: &Formula, out: &mut BTreeSet<Var>) {
            match f {
                Formula::True | Formula::False => {}
                Formula::Atom(a) => out.extend(a.expr.variables()),
                Formula::And(parts) | Formula::Or(parts) => {
                    for p in parts {
                        go(p, out);
                    }
                }
                Formula::Not(inner) => go(inner, out),
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut out);
        out
    }

    /// Converts the formula to negation normal form (negations only on atoms).
    pub fn nnf(&self) -> Formula {
        fn go(f: &Formula, negated: bool) -> Formula {
            match f {
                Formula::True => {
                    if negated {
                        Formula::False
                    } else {
                        Formula::True
                    }
                }
                Formula::False => {
                    if negated {
                        Formula::True
                    } else {
                        Formula::False
                    }
                }
                Formula::Atom(a) => {
                    if negated {
                        Formula::Atom(a.negate())
                    } else {
                        Formula::Atom(a.clone())
                    }
                }
                Formula::And(parts) => {
                    let mapped: Vec<Formula> = parts.iter().map(|p| go(p, negated)).collect();
                    if negated {
                        Formula::or(mapped)
                    } else {
                        Formula::and(mapped)
                    }
                }
                Formula::Or(parts) => {
                    let mapped: Vec<Formula> = parts.iter().map(|p| go(p, negated)).collect();
                    if negated {
                        Formula::and(mapped)
                    } else {
                        Formula::or(mapped)
                    }
                }
                Formula::Not(inner) => go(inner, !negated),
            }
        }
        go(self, false)
    }

    /// Substitutes a variable by a linear expression everywhere it occurs.
    pub fn substitute(&self, var: Var, replacement: &LinExpr) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => Formula::Atom(Atom {
                expr: a.expr.substitute(var, replacement),
                cmp: a.cmp,
            }),
            Formula::And(parts) => Formula::and(
                parts
                    .iter()
                    .map(|p| p.substitute(var, replacement))
                    .collect(),
            ),
            Formula::Or(parts) => Formula::or(
                parts
                    .iter()
                    .map(|p| p.substitute(var, replacement))
                    .collect(),
            ),
            Formula::Not(inner) => Formula::not(inner.substitute(var, replacement)),
        }
    }

    /// Evaluates the formula under a total assignment.
    pub fn eval(&self, assignment: &dyn Fn(Var) -> i128) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => a.eval(assignment),
            Formula::And(parts) => parts.iter().all(|p| p.eval(assignment)),
            Formula::Or(parts) => parts.iter().any(|p| p.eval(assignment)),
            Formula::Not(inner) => !inner.eval(assignment),
        }
    }

    /// Exhaustive search of the integer box `[lo, hi]^vars` for a point
    /// satisfying this formula; variables outside `vars`
    /// evaluate to 0.  Returns the first satisfying point (values in
    /// `vars` order), or `None` when the box holds none.
    ///
    /// This is the reference oracle LIA verdicts are tested against on
    /// formulas that pin every variable into a small box: it shares nothing
    /// with the solver but [`Formula::eval`].
    pub fn box_witness(&self, vars: &[Var], lo: i128, hi: i128) -> Option<Vec<i128>> {
        if lo > hi && !vars.is_empty() {
            return None;
        }
        let mut point = vec![lo; vars.len()];
        loop {
            let value = |v: Var| vars.iter().position(|&w| w == v).map_or(0, |i| point[i]);
            if self.eval(&value) {
                return Some(point);
            }
            // odometer step: the first coordinate below `hi` moves up, the
            // ones before it wrap back to `lo`
            let i = point.iter().position(|&x| x < hi)?;
            point[i] += 1;
            point[..i].fill(lo);
        }
    }

    /// Constant folding: replaces variable-free atoms by their truth value and
    /// simplifies the Boolean structure.
    pub fn simplify(&self) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Atom(a) => match a.constant_value() {
                Some(true) => Formula::True,
                Some(false) => Formula::False,
                None => Formula::Atom(a.clone()),
            },
            Formula::And(parts) => Formula::and(parts.iter().map(Formula::simplify).collect()),
            Formula::Or(parts) => Formula::or(parts.iter().map(Formula::simplify).collect()),
            Formula::Not(inner) => Formula::not(inner.simplify()),
        }
    }

    /// Renders the formula with variable names from a pool.
    pub fn display<'a>(&'a self, pool: &'a VarPool) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Formula, &'a VarPool);
        impl D<'_> {
            fn write(&self, f: &mut fmt::Formatter<'_>, formula: &Formula) -> fmt::Result {
                match formula {
                    Formula::True => write!(f, "⊤"),
                    Formula::False => write!(f, "⊥"),
                    Formula::Atom(a) => write!(f, "({} {} 0)", a.expr.display(self.1), a.cmp),
                    Formula::And(parts) => {
                        write!(f, "(and")?;
                        for p in parts {
                            write!(f, " ")?;
                            self.write(f, p)?;
                        }
                        write!(f, ")")
                    }
                    Formula::Or(parts) => {
                        write!(f, "(or")?;
                        for p in parts {
                            write!(f, " ")?;
                            self.write(f, p)?;
                        }
                        write!(f, ")")
                    }
                    Formula::Not(inner) => {
                        write!(f, "(not ")?;
                        self.write(f, inner)?;
                        write!(f, ")")
                    }
                }
            }
        }
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.write(f, self.0)
            }
        }
        D(self, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VarPool, Var, Var) {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        (pool, x, y)
    }

    #[test]
    fn smart_constructors_simplify() {
        let (_, x, _) = setup();
        let atom = Formula::ge(LinExpr::var(x), LinExpr::constant(0));
        assert_eq!(Formula::and(vec![Formula::True, atom.clone()]), atom);
        assert_eq!(
            Formula::and(vec![Formula::False, atom.clone()]),
            Formula::False
        );
        assert_eq!(
            Formula::or(vec![Formula::True, atom.clone()]),
            Formula::True
        );
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::not(Formula::not(atom.clone())), atom);
    }

    #[test]
    fn negation_of_atom_flips_comparison() {
        let (_, x, _) = setup();
        let atom = Formula::le(LinExpr::var(x), LinExpr::constant(3));
        match Formula::not(atom) {
            Formula::Atom(a) => assert_eq!(a.cmp, Cmp::Gt),
            other => panic!("expected atom, got {other:?}"),
        }
    }

    #[test]
    fn evaluation_respects_boolean_structure() {
        let (_, x, y) = setup();
        // (x > 0 ∧ y = 2) ∨ x < -5
        let phi = Formula::or(vec![
            Formula::and(vec![
                Formula::gt(LinExpr::var(x), LinExpr::constant(0)),
                Formula::eq(LinExpr::var(y), LinExpr::constant(2)),
            ]),
            Formula::lt(LinExpr::var(x), LinExpr::constant(-5)),
        ]);
        assert!(phi.eval(&|v| if v == x { 1 } else { 2 }));
        assert!(!phi.eval(&|v| if v == x { 1 } else { 3 }));
        assert!(phi.eval(&|v| if v == x { -6 } else { 0 }));
    }

    #[test]
    fn nnf_pushes_negations_to_atoms() {
        let (_, x, y) = setup();
        let phi = Formula::Not(Box::new(Formula::And(vec![
            Formula::gt(LinExpr::var(x), LinExpr::constant(0)),
            Formula::Or(vec![
                Formula::eq(LinExpr::var(y), LinExpr::constant(1)),
                Formula::lt(LinExpr::var(x), LinExpr::var(y)),
            ]),
        ])));
        let nnf = phi.nnf();
        fn no_negation(f: &Formula) -> bool {
            match f {
                Formula::Not(_) => false,
                Formula::And(ps) | Formula::Or(ps) => ps.iter().all(no_negation),
                _ => true,
            }
        }
        assert!(no_negation(&nnf));
        // semantics preserved on a few assignments
        for (vx, vy) in [(0, 0), (1, 1), (2, 5), (-3, -3)] {
            let assign = |v: Var| if v == x { vx } else { vy };
            assert_eq!(phi.eval(&assign), nnf.eval(&assign));
        }
    }

    #[test]
    fn substitution_replaces_every_occurrence() {
        let (_, x, y) = setup();
        let phi = Formula::and(vec![
            Formula::eq(LinExpr::var(x), LinExpr::constant(1)),
            Formula::not(Formula::or(vec![
                Formula::ge(LinExpr::var(x), LinExpr::var(y)),
                Formula::eq(LinExpr::var(y), LinExpr::constant(3)),
            ])),
        ]);
        let sub = phi.substitute(x, &LinExpr::constant(7));
        assert!(!sub.free_vars().contains(&x));
        assert!(sub.free_vars().contains(&y));
        for vy in [0, 3, 7, 8] {
            let assign = |v: Var| if v == x { 7 } else { vy };
            assert_eq!(phi.eval(&assign), sub.eval(&assign));
        }
    }

    #[test]
    fn free_vars_collects_every_atom() {
        let (_, x, y) = setup();
        let phi = Formula::or(vec![
            Formula::eq(LinExpr::var(x), LinExpr::constant(0)),
            Formula::not(Formula::ge(LinExpr::var(y), LinExpr::constant(2))),
        ]);
        assert_eq!(phi.free_vars(), BTreeSet::from([x, y]));
    }

    #[test]
    fn simplify_folds_constants() {
        let (_, x, _) = setup();
        let phi = Formula::and(vec![
            Formula::eq(LinExpr::constant(1), LinExpr::constant(1)),
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::or(vec![Formula::lt(
                LinExpr::constant(5),
                LinExpr::constant(3),
            )]),
        ]);
        assert_eq!(phi.simplify(), Formula::False);
    }

    #[test]
    fn size_and_atom_counts() {
        let (_, x, y) = setup();
        let phi = Formula::or(vec![
            Formula::eq(LinExpr::var(x), LinExpr::constant(0)),
            Formula::and(vec![
                Formula::ge(LinExpr::var(y), LinExpr::constant(1)),
                Formula::le(LinExpr::var(y), LinExpr::constant(5)),
            ]),
        ]);
        assert_eq!(phi.num_atoms(), 3);
        assert!(phi.size() >= 5);
    }

    #[test]
    fn display_is_readable() {
        let (pool, x, y) = setup();
        let phi = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::eq(LinExpr::var(y), LinExpr::var(x)),
        ]);
        let s = format!("{}", phi.display(&pool));
        assert!(s.contains("and"));
        assert!(s.contains('x'));
        assert!(s.contains('y'));
    }

    #[test]
    fn box_witness_enumerates_the_whole_box() {
        let (_, x, y) = setup();
        let sum_is = |k| Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(k));
        // the first coordinate moves fastest: (3, 0) precedes (2, 1)
        let phi = Formula::and(vec![
            sum_is(3),
            Formula::ge(LinExpr::var(x), LinExpr::constant(2)),
        ]);
        assert_eq!(phi.box_witness(&[x, y], 0, 3), Some(vec![3, 0]));
        // the corner point is reached, and nothing beyond it
        assert_eq!(sum_is(6).box_witness(&[x, y], 0, 3), Some(vec![3, 3]));
        assert_eq!(sum_is(7).box_witness(&[x, y], 0, 3), None);
        // a variable outside the box evaluates to 0
        assert_eq!(sum_is(2).box_witness(&[x], -1, 1), None);
        assert_eq!(Formula::True.box_witness(&[], 0, 0), Some(vec![]));
    }
}
