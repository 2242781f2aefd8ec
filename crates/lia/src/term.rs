//! Integer variables and linear expressions.
//!
//! A [`Var`] is a dense index into a [`VarPool`] which remembers a
//! human-readable name for every variable (e.g. `#⟨L,x⟩`, `#δ_17`, `γI_q3`).
//! A [`LinExpr`] is an integer-coefficient linear combination of variables
//! plus a constant; it is the only term language needed by the reductions of
//! the paper.  Its terms are stored flat, as one vector sorted by variable:
//! the expressions the encodings produce have a handful of terms, and the
//! clausifier, the atom table, the simplex, the bound trail and the
//! divisibility test clone, hash, negate and merge them constantly.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// An integer variable, identified by a dense index into its [`VarPool`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub usize);

impl Var {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An allocator of integer variables that remembers their names.
///
/// ```
/// use posr_lia::term::VarPool;
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// assert_eq!(pool.name(x), "x");
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarPool {
    names: Vec<String>,
    by_name: BTreeMap<String, Var>,
}

impl VarPool {
    /// Creates an empty pool.
    pub fn new() -> VarPool {
        VarPool::default()
    }

    /// Allocates a fresh variable with the given name.  If the name is
    /// already taken, a numeric suffix is appended to keep names unique.
    pub fn fresh(&mut self, name: &str) -> Var {
        let mut unique = name.to_string();
        let mut counter = 1;
        while self.by_name.contains_key(&unique) {
            unique = format!("{name}#{counter}");
            counter += 1;
        }
        let var = Var(self.names.len());
        self.names.push(unique.clone());
        self.by_name.insert(unique, var);
        var
    }

    /// Returns the variable registered under `name`, allocating it if needed.
    pub fn named(&mut self, name: &str) -> Var {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let var = Var(self.names.len());
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), var);
        var
    }

    /// Looks up a variable by name without allocating.
    pub fn lookup(&self, name: &str) -> Option<Var> {
        self.by_name.get(name).copied()
    }

    /// The name of a variable.
    ///
    /// # Panics
    /// Panics if the variable does not belong to this pool.
    pub fn name(&self, var: Var) -> &str {
        &self.names[var.0]
    }

    /// Number of variables allocated so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if no variable has been allocated.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterator over all variables in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.names.len()).map(Var)
    }
}

/// A linear expression `Σ coeff·var + constant` with integer coefficients.
///
/// The terms are one flat vector of `(variable, coefficient)` pairs, sorted
/// by variable and free of zero coefficients, so iteration is in variable
/// order and equal expressions are equal (and hash equal) field by field.
/// Cloning is one allocation, and sums, negation and scaling are linear
/// passes over the vectors.  A pair takes 24 bytes: the coefficient is
/// kept as the two halves of its `i128`, which needs no 16-byte alignment.
///
/// ```
/// use posr_lia::term::{LinExpr, VarPool};
/// let mut pool = VarPool::new();
/// let x = pool.fresh("x");
/// let y = pool.fresh("y");
/// let e = LinExpr::var(x) * 2 + LinExpr::var(y) - LinExpr::constant(3);
/// assert_eq!(e.coeff(x), 2);
/// assert_eq!(e.constant_part(), -3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct LinExpr {
    /// Non-zero coefficients, sorted by variable.
    terms: Vec<(Var, Coeff)>,
    constant: i128,
}

/// A term's coefficient, stored as the two 64-bit halves of its `i128`:
/// an `i128` field would align the pair to 16 bytes and pad every term
/// from 24 bytes to 32.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Coeff([u64; 2]);

impl Coeff {
    fn new(c: i128) -> Coeff {
        Coeff([c as u64, (c >> 64) as u64])
    }

    fn get(self) -> i128 {
        (u128::from(self.0[0]) | (u128::from(self.0[1]) << 64)) as i128
    }
}

impl fmt::Debug for Coeff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// The constant expression `k`.
    pub fn constant(k: i128) -> LinExpr {
        LinExpr {
            terms: Vec::new(),
            constant: k,
        }
    }

    /// The expression `1·v`.
    pub fn var(v: Var) -> LinExpr {
        LinExpr::scaled_var(v, 1)
    }

    /// The expression `c·v`.
    pub fn scaled_var(v: Var, c: i128) -> LinExpr {
        let terms = if c == 0 {
            Vec::new()
        } else {
            vec![(v, Coeff::new(c))]
        };
        LinExpr { terms, constant: 0 }
    }

    /// Sum of `1·v` over the given variables.
    pub fn sum_of_vars<I: IntoIterator<Item = Var>>(vars: I) -> LinExpr {
        let mut e = LinExpr::zero();
        for v in vars {
            e.add_term(v, 1);
        }
        e
    }

    /// Adds `c·v` in place.
    pub fn add_term(&mut self, v: Var, c: i128) {
        match self.terms.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => {
                let sum = self.terms[i].1.get() + c;
                if sum == 0 {
                    self.terms.remove(i);
                } else {
                    self.terms[i].1 = Coeff::new(sum);
                }
            }
            Err(i) if c != 0 => self.terms.insert(i, (v, Coeff::new(c))),
            Err(_) => {}
        }
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, k: i128) {
        self.constant += k;
    }

    /// Coefficient of a variable (0 if absent).
    pub fn coeff(&self, v: Var) -> i128 {
        match self.terms.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.terms[i].1.get(),
            Err(_) => 0,
        }
    }

    /// The constant part.
    pub fn constant_part(&self) -> i128 {
        self.constant
    }

    /// Iterator over `(variable, coefficient)` pairs with non-zero
    /// coefficients, in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (Var, i128)> + '_ {
        self.terms.iter().map(|&(v, c)| (v, c.get()))
    }

    /// The set of variables with non-zero coefficient, in order.
    pub fn variables(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// Returns `true` if the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of variable terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Evaluates the expression under an assignment (missing variables count
    /// as 0).
    pub fn eval(&self, assignment: &dyn Fn(Var) -> i128) -> i128 {
        let mut total = self.constant;
        for (v, c) in self.terms() {
            total += c * assignment(v);
        }
        total
    }

    /// Substitutes a variable by a linear expression, returning the result.
    pub fn substitute(&self, var: Var, replacement: &LinExpr) -> LinExpr {
        let Ok(at) = self.terms.binary_search_by_key(&var, |&(w, _)| w) else {
            return self.clone();
        };
        let c = self.terms[at].1.get();
        let mut rest = self.clone();
        rest.terms.remove(at);
        rest.merged(replacement, c)
    }

    /// `self + k·other` with checked arithmetic: `None` when a coefficient
    /// or the constant overflows.
    pub(crate) fn checked_add_scaled(&self, other: &LinExpr, k: i128) -> Option<LinExpr> {
        self.merge(other, |c| c.checked_mul(k), i128::checked_add)
    }

    /// Keeps the terms `keep` accepts, in place; the constant is unchanged.
    pub(crate) fn retain_terms(&mut self, mut keep: impl FnMut(Var, i128) -> bool) {
        self.terms.retain(|&(v, c)| keep(v, c.get()));
    }

    /// `self + k·other` in one merge of the two sorted term vectors, with
    /// the plain `i128` operators.
    fn merged(&self, other: &LinExpr, k: i128) -> LinExpr {
        self.merge(other, |c| Some(c * k), |a, b| Some(a + b))
            .expect("unchecked arithmetic always yields a value")
    }

    /// `self + scale(other)`: one merge of the two sorted term vectors,
    /// `None` when `scale` or `add` does.
    fn merge(
        &self,
        other: &LinExpr,
        scale: impl Fn(i128) -> Option<i128>,
        add: impl Fn(i128, i128) -> Option<i128>,
    ) -> Option<LinExpr> {
        let (a, b) = (&self.terms, &other.terms);
        let mut terms = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    terms.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    let c = scale(b[j].1.get())?;
                    if c != 0 {
                        terms.push((b[j].0, Coeff::new(c)));
                    }
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let c = add(a[i].1.get(), scale(b[j].1.get())?)?;
                    if c != 0 {
                        terms.push((a[i].0, Coeff::new(c)));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend_from_slice(&a[i..]);
        for &(v, c) in &b[j..] {
            let c = scale(c.get())?;
            if c != 0 {
                terms.push((v, Coeff::new(c)));
            }
        }
        Some(LinExpr {
            terms,
            constant: add(self.constant, scale(other.constant)?)?,
        })
    }

    /// Renders the expression with variable names from a pool.
    pub fn display<'a>(&'a self, pool: &'a VarPool) -> impl fmt::Display + 'a {
        struct D<'a>(&'a LinExpr, &'a VarPool);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut first = true;
                for (v, c) in self.0.terms() {
                    if first {
                        if c == 1 {
                            write!(f, "{}", self.1.name(v))?;
                        } else if c == -1 {
                            write!(f, "-{}", self.1.name(v))?;
                        } else {
                            write!(f, "{c}·{}", self.1.name(v))?;
                        }
                        first = false;
                    } else if c >= 0 {
                        if c == 1 {
                            write!(f, " + {}", self.1.name(v))?;
                        } else {
                            write!(f, " + {c}·{}", self.1.name(v))?;
                        }
                    } else if c == -1 {
                        write!(f, " - {}", self.1.name(v))?;
                    } else {
                        write!(f, " - {}·{}", -c, self.1.name(v))?;
                    }
                }
                let k = self.0.constant_part();
                if first {
                    write!(f, "{k}")?;
                } else if k > 0 {
                    write!(f, " + {k}")?;
                } else if k < 0 {
                    write!(f, " - {}", -k)?;
                }
                Ok(())
            }
        }
        D(self, pool)
    }
}

impl From<i128> for LinExpr {
    fn from(k: i128) -> LinExpr {
        LinExpr::constant(k)
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> LinExpr {
        LinExpr::var(v)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        if rhs.terms.is_empty() {
            return LinExpr {
                constant: self.constant + rhs.constant,
                ..self
            };
        }
        self.merged(&rhs, 1)
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        *self = std::mem::take(self) + rhs;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        *self = std::mem::take(self) - rhs;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c = Coeff::new(-c.get());
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<i128> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: i128) -> LinExpr {
        if rhs == 0 {
            return LinExpr::zero();
        }
        for (_, c) in &mut self.terms {
            *c = Coeff::new(c.get() * rhs);
        }
        self.constant *= rhs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_allocates_unique_names() {
        let mut pool = VarPool::new();
        let a = pool.fresh("x");
        let b = pool.fresh("x");
        assert_ne!(a, b);
        assert_eq!(pool.name(a), "x");
        assert_ne!(pool.name(b), "x");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn named_is_idempotent() {
        let mut pool = VarPool::new();
        let a = pool.named("len_x");
        let b = pool.named("len_x");
        assert_eq!(a, b);
        assert_eq!(pool.lookup("len_x"), Some(a));
        assert_eq!(pool.lookup("other"), None);
    }

    #[test]
    fn linear_expression_arithmetic() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let e = LinExpr::var(x) * 2 + LinExpr::var(y) * 3 + LinExpr::constant(1);
        let f = LinExpr::var(x) - LinExpr::constant(4);
        let sum = e.clone() + f.clone();
        assert_eq!(sum.coeff(x), 3);
        assert_eq!(sum.coeff(y), 3);
        assert_eq!(sum.constant_part(), -3);
        let diff = e - f;
        assert_eq!(diff.coeff(x), 1);
        assert_eq!(diff.constant_part(), 5);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let e = LinExpr::var(x) - LinExpr::var(x);
        assert!(e.is_constant());
        assert_eq!(e.num_terms(), 0);
    }

    #[test]
    fn evaluation() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let e = LinExpr::var(x) * 2 + LinExpr::var(y) - LinExpr::constant(1);
        let val = e.eval(&|v| if v == x { 3 } else { 10 });
        assert_eq!(val, 2 * 3 + 10 - 1);
    }

    #[test]
    fn substitution() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let e = LinExpr::var(x) * 2 + LinExpr::constant(1);
        let sub = e.substitute(x, &(LinExpr::var(y) + LinExpr::constant(5)));
        assert_eq!(sub.coeff(y), 2);
        assert_eq!(sub.constant_part(), 11);
    }

    #[test]
    fn sum_of_vars_collects_duplicates() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let e = LinExpr::sum_of_vars(vec![x, y, x]);
        assert_eq!(e.coeff(x), 2);
        assert_eq!(e.coeff(y), 1);
    }

    /// The map model the flat representation replaced: coefficients by
    /// variable (zeros never stored) plus the constant.
    #[derive(Clone, Default)]
    struct Model {
        coeffs: BTreeMap<Var, i128>,
        constant: i128,
    }

    impl Model {
        fn add_term(&mut self, v: Var, c: i128) {
            let entry = self.coeffs.entry(v).or_insert(0);
            *entry += c;
            if *entry == 0 {
                self.coeffs.remove(&v);
            }
        }

        fn add(&mut self, other: &Model, k: i128) {
            for (&v, &c) in &other.coeffs {
                self.add_term(v, c * k);
            }
            self.constant += other.constant * k;
        }

        fn scale(&mut self, k: i128) {
            if k == 0 {
                *self = Model::default();
            }
            for c in self.coeffs.values_mut() {
                *c *= k;
            }
            self.constant *= k;
        }

        fn substitute(&self, var: Var, replacement: &Model) -> Model {
            let mut out = self.clone();
            if let Some(c) = out.coeffs.remove(&var) {
                out.add(replacement, c);
            }
            out
        }

        fn eval(&self, assignment: &dyn Fn(Var) -> i128) -> i128 {
            self.constant
                + self
                    .coeffs
                    .iter()
                    .map(|(&v, &c)| c * assignment(v))
                    .sum::<i128>()
        }
    }

    /// A deterministic xorshift generator (reproducible failures).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn int(&mut self, lo: i128, hi: i128) -> i128 {
            lo + self.below((hi - lo + 1) as u64) as i128
        }
    }

    fn hash_of(e: &LinExpr) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        BuildHasherDefault::<DefaultHasher>::default().hash_one(e)
    }

    /// `e` equals the model: sorted terms with no zero coefficient stored,
    /// the same coefficients, term count and constant — and rebuilding the
    /// model term by term in a scrambled order gives an equal expression
    /// that hashes equal (the `eqelim` pairing and the atom table key
    /// hash maps by expression).
    fn assert_matches(e: &LinExpr, m: &Model, vars: &[Var], rng: &mut Rng) {
        let terms: Vec<(Var, i128)> = e.terms().collect();
        let expected: Vec<(Var, i128)> = m.coeffs.iter().map(|(&v, &c)| (v, c)).collect();
        assert_eq!(terms, expected);
        assert!(terms.iter().all(|&(_, c)| c != 0));
        assert_eq!(e.num_terms(), m.coeffs.len());
        assert_eq!(e.constant_part(), m.constant);
        for &v in vars {
            assert_eq!(e.coeff(v), m.coeffs.get(&v).copied().unwrap_or(0));
        }
        let mut order = expected.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut rebuilt = LinExpr::constant(m.constant);
        for (v, c) in order {
            rebuilt.add_term(v, c + 1);
            rebuilt.add_term(v, -1);
        }
        assert_eq!(&rebuilt, e);
        assert_eq!(hash_of(&rebuilt), hash_of(e));
        let mut keyed = std::collections::HashMap::new();
        keyed.insert(rebuilt, 7);
        assert_eq!(keyed.get(e), Some(&7));
    }

    #[test]
    fn flat_expressions_agree_with_the_map_model() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..6).map(|i| pool.fresh(&format!("v{i}"))).collect();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..300 {
            let (mut e, mut m) = (LinExpr::zero(), Model::default());
            for _ in 0..12 {
                let v = vars[rng.below(vars.len() as u64) as usize];
                match rng.below(8) {
                    0 => {
                        let c = rng.int(-3, 3);
                        e.add_term(v, c);
                        m.add_term(v, c);
                    }
                    1 | 2 => {
                        // a random operand, built through the public API
                        let (mut f, mut n) = (LinExpr::constant(rng.int(-5, 5)), Model::default());
                        n.constant = f.constant_part();
                        for _ in 0..rng.below(4) {
                            let w = vars[rng.below(vars.len() as u64) as usize];
                            let c = rng.int(-3, 3);
                            f += LinExpr::scaled_var(w, c);
                            n.add_term(w, c);
                        }
                        match rng.below(3) {
                            0 => {
                                e += f;
                                m.add(&n, 1);
                            }
                            1 => {
                                e -= f;
                                m.add(&n, -1);
                            }
                            _ => {
                                let k = rng.int(-3, 3);
                                e = e.checked_add_scaled(&f, k).expect("small values");
                                m.add(&n, k);
                            }
                        }
                    }
                    3 => {
                        e = -e;
                        m.scale(-1);
                    }
                    4 => {
                        let k = rng.int(-2, 2);
                        e = e * k;
                        m.scale(k);
                    }
                    5 => {
                        let w = vars[rng.below(vars.len() as u64) as usize];
                        let k = rng.int(-4, 4);
                        let r = LinExpr::var(w) * 2 + LinExpr::constant(k);
                        let mut rm = Model::default();
                        rm.add_term(w, 2);
                        rm.constant = k;
                        e = e.substitute(v, &r);
                        m = m.substitute(v, &rm);
                    }
                    6 => {
                        let assignment = |w: Var| w.index() as i128 - 2;
                        assert_eq!(e.eval(&assignment), m.eval(&assignment));
                    }
                    _ => {
                        e.retain_terms(|w, _| w != v);
                        m.coeffs.remove(&v);
                    }
                }
                assert_matches(&e, &m, &vars, &mut rng);
            }
        }
    }

    #[test]
    fn display_with_names() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let e = LinExpr::var(x) * 2 - LinExpr::var(y) + LinExpr::constant(7);
        assert_eq!(format!("{}", e.display(&pool)), "2·x - y + 7");
        assert_eq!(format!("{}", LinExpr::constant(-3).display(&pool)), "-3");
    }
}
