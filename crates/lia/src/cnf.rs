//! Clausification of quantifier-free LIA formulas for the CDCL(T) engine.
//!
//! The clausifier turns a negation-normal-form [`Formula`] into an
//! atom-indexed clause database:
//!
//! * **Atoms are canonicalised to half-spaces.**  Every comparison is
//!   rewritten over the integers into the single shape `e ≤ 0`:
//!   `e < 0 ⟺ e + 1 ≤ 0`, `e ≥ 0 ⟺ −e ≤ 0`, `e > 0 ⟺ 1 − e ≤ 0`.
//!   Equalities split conjunctively (`e = 0 ⟺ e ≤ 0 ∧ −e ≤ 0`) and
//!   disequalities disjunctively (`e ≠ 0 ⟺ e + 1 ≤ 0 ∨ 1 − e ≤ 0`), so
//!   *both* polarities of every Boolean variable carry an exact theory
//!   meaning: literal `b` asserts `e ≤ 0`, literal `¬b` asserts `e ≥ 1`.
//!   The theory layer never sees a constraint it cannot represent.
//! * **Structural hashing.**  Atoms are interned by their canonical
//!   expression — including across complements (`e ≤ 0` and `1 − e ≤ 0`
//!   share one variable with opposite signs) — and Tseitin gates are
//!   interned by `(kind, children)`, so repeated subformulas (the per-pair
//!   mismatch disjuncts of the system encoding repeat whole blocks) define
//!   one auxiliary variable each.
//! * **Plaisted–Greenbaum polarity.**  The input is NNF, every subformula
//!   occurs positively, so each gate needs only the `gate → definition`
//!   direction: `g → (l₁ ∨ … ∨ lₙ)` for OR, `g → lᵢ` for AND.  This halves
//!   the clause count and keeps equisatisfiability (models restricted to the
//!   theory atoms are preserved, which is what the model reconstruction
//!   needs).
//!
//! Top-level conjunctive structure is clausified directly (no auxiliary
//! variables): conjuncts recurse, a disjunction of leaves becomes one
//! clause.

use std::collections::HashMap;

use crate::formula::{Atom, Cmp, Formula};
use crate::simplex::{Rel, SimplexConstraint};
use crate::term::LinExpr;

/// A Boolean variable of the clause database, a dense index.
pub type BoolVar = usize;

/// A literal: variable plus sign, packed as `var << 1 | negated`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(pub u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn positive(var: BoolVar) -> Lit {
        Lit((var as u32) << 1)
    }

    /// The negative literal of `var`.
    pub fn negative(var: BoolVar) -> Lit {
        Lit(((var as u32) << 1) | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> BoolVar {
        (self.0 >> 1) as usize
    }

    /// `true` for positive literals.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[allow(clippy::should_implement_trait)] // `!lit` would shadow the packed repr
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index usable for watch lists (`2·var + sign`).
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

/// The clause database produced by clausification.
#[derive(Clone, Debug, Default)]
pub struct CnfFormula {
    /// Number of Boolean variables (theory atoms and Tseitin gates).
    pub num_vars: usize,
    /// The clauses; each is a non-tautological set of literals.
    pub clauses: Vec<Vec<Lit>>,
    /// Per Boolean variable: `Some(e)` iff the variable means `e ≤ 0`
    /// (`None` for Tseitin gate variables).
    pub theory: Vec<Option<LinExpr>>,
    /// The formula was constant-false (an empty clause was derived).
    pub unsat: bool,
}

/// The simplex constraint asserted by the literal of sign `positive` over a
/// variable whose meaning is `expr ≤ 0` (both polarities are exact over the
/// integers); `None` for gate variables (`meaning` absent).
pub(crate) fn constraint_of_meaning(
    meaning: Option<&LinExpr>,
    positive: bool,
) -> Option<SimplexConstraint> {
    let expr = meaning?;
    Some(if positive {
        SimplexConstraint {
            expr: expr.clone(),
            rel: Rel::Le,
        }
    } else {
        // ¬(e ≤ 0) ⟺ e ≥ 1 over the integers
        SimplexConstraint {
            expr: expr.clone() - LinExpr::constant(1),
            rel: Rel::Ge,
        }
    })
}

/// Splits an atom meaning `e ≤ 0` into `(f, k)` with `e = f + k` and `f`
/// constant-free — the key/offset pair of the engine's atom→bound registry:
/// atoms sharing `f` differ only in the threshold `k`, so one sorted list
/// per form answers "which atoms does the current interval of `f` entail?"
/// with two binary searches.
pub(crate) fn split_meaning(meaning: &LinExpr) -> (LinExpr, i128) {
    let k = meaning.constant_part();
    let mut form = LinExpr::zero();
    for (v, c) in meaning.terms() {
        form.add_term(v, c);
    }
    (form, k)
}

impl CnfFormula {
    /// The simplex constraint asserted by `lit` (both polarities are exact
    /// over the integers), or `None` for gate literals.
    pub fn constraint_of(&self, lit: Lit) -> Option<SimplexConstraint> {
        constraint_of_meaning(self.theory[lit.var()].as_ref(), lit.is_positive())
    }
}

/// A literal or a Boolean constant: the result of translating a subformula.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LitOrConst {
    /// The subformula is valid.
    True,
    /// The subformula is unsatisfiable.
    False,
    /// The subformula holds iff the literal does.
    Lit(Lit),
}

use LitOrConst as TLit;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum GateKey {
    And(Vec<Lit>),
    Or(Vec<Lit>),
}

/// The clausifier: interns atoms and gates, accumulates clauses.
///
/// Besides the one-shot [`Clausifier::clausify`], the clausifier supports
/// *incremental* use by [`crate::incremental::IncrementalSolver`]: the
/// atom/gate interning tables persist across calls, and the clauses produced
/// since the last drain are split into **definition clauses** (Tseitin gate
/// definitions `g → …`, globally valid implications that must survive
/// assertion-stack pops) and **assertion clauses** (the clauses that actually
/// constrain the formula, which an incremental caller may guard with a
/// selector literal to make them retractable).
#[derive(Default)]
pub struct Clausifier {
    atoms: HashMap<LinExpr, BoolVar>,
    gates: HashMap<GateKey, Lit>,
    /// Gates with *biconditional* definitions, used by
    /// [`Clausifier::literal_of_nnf`]: a literal handed out for assumption
    /// solving may be assumed in either polarity, so `¬g` must force the
    /// definition false — the one-sided Plaisted–Greenbaum gates above
    /// only support the positive direction.
    full_gates: HashMap<GateKey, Lit>,
    theory: Vec<Option<LinExpr>>,
    /// Gate-definition clauses produced since the last drain.
    definitions: Vec<Vec<Lit>>,
    /// Assertion clauses produced since the last drain.
    clauses: Vec<Vec<Lit>>,
    unsat: bool,
}

impl Clausifier {
    /// Creates an empty clausifier.
    pub fn new() -> Clausifier {
        Clausifier::default()
    }

    /// Clausifies an NNF formula into a clause database.
    ///
    /// # Panics
    /// Panics on `Not` applied to a non-atom (removed by [`Formula::nnf`],
    /// which callers must run first).
    pub fn clausify(formula: &Formula) -> CnfFormula {
        let mut c = Clausifier::new();
        c.assert_formula(formula);
        let mut clauses = c.definitions;
        clauses.extend(c.clauses);
        CnfFormula {
            num_vars: c.theory.len(),
            clauses,
            theory: c.theory,
            unsat: c.unsat,
        }
    }

    /// The number of Boolean variables interned so far.
    pub fn num_vars(&self) -> usize {
        self.theory.len()
    }

    /// The theory meaning of every Boolean variable (`Some(e)` iff the
    /// variable asserts `e ≤ 0`; `None` for gates and selectors).
    pub fn theory(&self) -> &[Option<LinExpr>] {
        &self.theory
    }

    /// Asserts an **NNF** formula; the produced clauses are collected until
    /// [`Clausifier::take_new_assertions`] /
    /// [`Clausifier::take_new_definitions`] drain them.
    ///
    /// # Panics
    /// Panics on `Not` applied to a non-atom.
    pub fn assert_nnf(&mut self, formula: &Formula) {
        self.assert_formula(formula);
    }

    /// Translates an **NNF** formula into a literal (creating
    /// gate definitions as needed) without asserting it — the handle used
    /// for assumption solving.  The gates created here are **biconditional**
    /// (full Tseitin, not Plaisted–Greenbaum): the returned literal is exact
    /// in *both* polarities, so assuming its negation genuinely forces the
    /// formula false.
    pub fn literal_of_nnf(&mut self, formula: &Formula) -> LitOrConst {
        self.translate_full(formula)
    }

    /// Drains the gate-definition clauses produced since the last drain.
    pub fn take_new_definitions(&mut self) -> Vec<Vec<Lit>> {
        std::mem::take(&mut self.definitions)
    }

    /// Drains the assertion clauses produced since the last drain.
    pub fn take_new_assertions(&mut self) -> Vec<Vec<Lit>> {
        std::mem::take(&mut self.clauses)
    }

    /// Reads *and resets* the empty-clause flag: `true` when an assertion
    /// since the last call was constant-false.  Incremental callers scope
    /// the contradiction to the assertion frame that produced it.
    pub fn take_unsat(&mut self) -> bool {
        std::mem::replace(&mut self.unsat, false)
    }

    /// A fresh Boolean variable with no theory meaning — the selector
    /// variables of the incremental assertion stack.
    pub fn fresh_selector(&mut self) -> BoolVar {
        self.fresh_var(None)
    }

    fn fresh_var(&mut self, meaning: Option<LinExpr>) -> BoolVar {
        let var = self.theory.len();
        self.theory.push(meaning);
        var
    }

    /// The literal meaning `e ≤ 0`, interning across complements: if `1 − e`
    /// is already an atom, `e ≤ 0 ⟺ ¬(1 − e ≤ 0)` (their conjunction is
    /// `e ≤ 0 ∧ e ≥ 1`, empty over ℤ, and their disjunction is full).
    fn lit_of_le(&mut self, expr: LinExpr) -> TLit {
        if expr.is_constant() {
            return if expr.constant_part() <= 0 {
                TLit::True
            } else {
                TLit::False
            };
        }
        if let Some(&var) = self.atoms.get(&expr) {
            return TLit::Lit(Lit::positive(var));
        }
        let complement = LinExpr::constant(1) - expr.clone();
        if let Some(&var) = self.atoms.get(&complement) {
            return TLit::Lit(Lit::negative(var));
        }
        let var = self.fresh_var(Some(expr.clone()));
        self.atoms.insert(expr, var);
        TLit::Lit(Lit::positive(var))
    }

    /// The literal of an inequality atom (`Eq`/`Ne` are handled structurally
    /// by the callers).
    fn lit_of_ineq(&mut self, atom: &Atom) -> TLit {
        let e = atom.expr.clone();
        match atom.cmp {
            Cmp::Le => self.lit_of_le(e),
            Cmp::Lt => self.lit_of_le(e + LinExpr::constant(1)),
            Cmp::Ge => self.lit_of_le(LinExpr::zero() - e),
            Cmp::Gt => self.lit_of_le(LinExpr::constant(1) - e),
            Cmp::Eq | Cmp::Ne => unreachable!("equalities are split before lit_of_ineq"),
        }
    }

    /// Normalises a literal set for a gate or clause: drops duplicates,
    /// detects complementary pairs (tautology).  Returns `None` for a
    /// tautology.
    fn normalise(mut lits: Vec<Lit>) -> Option<Vec<Lit>> {
        lits.sort_unstable();
        lits.dedup();
        for pair in lits.windows(2) {
            if pair[0].var() == pair[1].var() {
                return None; // l and ¬l
            }
        }
        Some(lits)
    }

    /// An interned AND gate over `lits` with Plaisted–Greenbaum clauses
    /// `g → lᵢ`.
    fn gate_and(&mut self, lits: Vec<Lit>) -> TLit {
        let Some(lits) = Self::normalise(lits) else {
            return TLit::False; // l ∧ ¬l
        };
        match lits.len() {
            0 => return TLit::True,
            1 => return TLit::Lit(lits[0]),
            _ => {}
        }
        let key = GateKey::And(lits.clone());
        if let Some(&g) = self.gates.get(&key) {
            return TLit::Lit(g);
        }
        let g = Lit::positive(self.fresh_var(None));
        for &l in &lits {
            self.definitions.push(vec![g.negate(), l]);
        }
        self.gates.insert(key, g);
        TLit::Lit(g)
    }

    /// An interned OR gate over `lits` with the Plaisted–Greenbaum clause
    /// `g → (l₁ ∨ … ∨ lₙ)`.
    fn gate_or(&mut self, lits: Vec<Lit>) -> TLit {
        let Some(lits) = Self::normalise(lits) else {
            return TLit::True; // l ∨ ¬l
        };
        match lits.len() {
            0 => return TLit::False,
            1 => return TLit::Lit(lits[0]),
            _ => {}
        }
        let key = GateKey::Or(lits.clone());
        if let Some(&g) = self.gates.get(&key) {
            return TLit::Lit(g);
        }
        let g = Lit::positive(self.fresh_var(None));
        let mut clause = Vec::with_capacity(lits.len() + 1);
        clause.push(g.negate());
        clause.extend(lits.iter().copied());
        self.definitions.push(clause);
        self.gates.insert(key, g);
        TLit::Lit(g)
    }

    /// An interned **biconditional** AND gate: `g → lᵢ` plus
    /// `(l₁ ∧ … ∧ lₙ) → g`.
    fn full_gate_and(&mut self, lits: Vec<Lit>) -> TLit {
        let Some(lits) = Self::normalise(lits) else {
            return TLit::False; // l ∧ ¬l
        };
        match lits.len() {
            0 => return TLit::True,
            1 => return TLit::Lit(lits[0]),
            _ => {}
        }
        let key = GateKey::And(lits.clone());
        if let Some(&g) = self.full_gates.get(&key) {
            return TLit::Lit(g);
        }
        let g = Lit::positive(self.fresh_var(None));
        for &l in &lits {
            self.definitions.push(vec![g.negate(), l]);
        }
        let mut reverse = Vec::with_capacity(lits.len() + 1);
        reverse.push(g);
        reverse.extend(lits.iter().map(|l| l.negate()));
        self.definitions.push(reverse);
        self.full_gates.insert(key, g);
        TLit::Lit(g)
    }

    /// An interned **biconditional** OR gate: `g → (l₁ ∨ … ∨ lₙ)` plus
    /// `lᵢ → g`.
    fn full_gate_or(&mut self, lits: Vec<Lit>) -> TLit {
        let Some(lits) = Self::normalise(lits) else {
            return TLit::True; // l ∨ ¬l
        };
        match lits.len() {
            0 => return TLit::False,
            1 => return TLit::Lit(lits[0]),
            _ => {}
        }
        let key = GateKey::Or(lits.clone());
        if let Some(&g) = self.full_gates.get(&key) {
            return TLit::Lit(g);
        }
        let g = Lit::positive(self.fresh_var(None));
        let mut forward = Vec::with_capacity(lits.len() + 1);
        forward.push(g.negate());
        forward.extend(lits.iter().copied());
        self.definitions.push(forward);
        for &l in &lits {
            self.definitions.push(vec![l.negate(), g]);
        }
        self.full_gates.insert(key, g);
        TLit::Lit(g)
    }

    /// [`Clausifier::translate`] with biconditional gates throughout, so
    /// the resulting literal is exact in both polarities (see
    /// [`Clausifier::literal_of_nnf`]).  Atoms are shared with the
    /// one-sided path — they are exact in both polarities already.
    fn translate_full(&mut self, formula: &Formula) -> TLit {
        match formula {
            Formula::True => TLit::True,
            Formula::False => TLit::False,
            Formula::Atom(atom) => match atom.cmp {
                Cmp::Eq => {
                    let le = self.lit_of_ineq(&Atom {
                        expr: atom.expr.clone(),
                        cmp: Cmp::Le,
                    });
                    let ge = self.lit_of_ineq(&Atom {
                        expr: atom.expr.clone(),
                        cmp: Cmp::Ge,
                    });
                    self.combine_full(true, vec![le, ge])
                }
                Cmp::Ne => {
                    let lt = self.lit_of_ineq(&Atom {
                        expr: atom.expr.clone(),
                        cmp: Cmp::Lt,
                    });
                    let gt = self.lit_of_ineq(&Atom {
                        expr: atom.expr.clone(),
                        cmp: Cmp::Gt,
                    });
                    self.combine_full(false, vec![lt, gt])
                }
                _ => self.lit_of_ineq(atom),
            },
            Formula::And(parts) => {
                let translated: Vec<TLit> = parts.iter().map(|p| self.translate_full(p)).collect();
                self.combine_full(true, translated)
            }
            Formula::Or(parts) => {
                let translated: Vec<TLit> = parts.iter().map(|p| self.translate_full(p)).collect();
                self.combine_full(false, translated)
            }
            Formula::Not(_) => unreachable!("clausifier input must be in NNF"),
        }
    }

    /// Folds constants and dispatches to the biconditional gates.
    fn combine_full(&mut self, conjunction: bool, parts: Vec<TLit>) -> TLit {
        let mut lits = Vec::with_capacity(parts.len());
        for p in parts {
            match (conjunction, p) {
                (true, TLit::True) | (false, TLit::False) => {}
                (true, TLit::False) => return TLit::False,
                (false, TLit::True) => return TLit::True,
                (_, TLit::Lit(l)) => lits.push(l),
            }
        }
        if conjunction {
            self.full_gate_and(lits)
        } else {
            self.full_gate_or(lits)
        }
    }

    /// Translates a subformula occurring under a disjunction into a literal.
    fn translate(&mut self, formula: &Formula) -> TLit {
        match formula {
            Formula::True => TLit::True,
            Formula::False => TLit::False,
            Formula::Atom(atom) => match atom.cmp {
                Cmp::Eq => {
                    let le = self.lit_of_ineq(&Atom {
                        expr: atom.expr.clone(),
                        cmp: Cmp::Le,
                    });
                    let ge = self.lit_of_ineq(&Atom {
                        expr: atom.expr.clone(),
                        cmp: Cmp::Ge,
                    });
                    self.combine_and(vec![le, ge])
                }
                Cmp::Ne => {
                    let lt = self.lit_of_ineq(&Atom {
                        expr: atom.expr.clone(),
                        cmp: Cmp::Lt,
                    });
                    let gt = self.lit_of_ineq(&Atom {
                        expr: atom.expr.clone(),
                        cmp: Cmp::Gt,
                    });
                    self.combine_or(vec![lt, gt])
                }
                _ => self.lit_of_ineq(atom),
            },
            Formula::And(parts) => {
                let translated: Vec<TLit> = parts.iter().map(|p| self.translate(p)).collect();
                self.combine_and(translated)
            }
            Formula::Or(parts) => {
                let translated: Vec<TLit> = parts.iter().map(|p| self.translate(p)).collect();
                self.combine_or(translated)
            }
            Formula::Not(_) => unreachable!("clausifier input must be in NNF"),
        }
    }

    fn combine_and(&mut self, parts: Vec<TLit>) -> TLit {
        let mut lits = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                TLit::True => {}
                TLit::False => return TLit::False,
                TLit::Lit(l) => lits.push(l),
            }
        }
        self.gate_and(lits)
    }

    fn combine_or(&mut self, parts: Vec<TLit>) -> TLit {
        let mut lits = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                TLit::False => {}
                TLit::True => return TLit::True,
                TLit::Lit(l) => lits.push(l),
            }
        }
        self.gate_or(lits)
    }

    /// Asserts a top-level formula: conjunctions recurse (no gate variable),
    /// everything else becomes clauses directly.
    fn assert_formula(&mut self, formula: &Formula) {
        match formula {
            Formula::True => {}
            Formula::False => self.unsat = true,
            Formula::And(parts) => {
                for p in parts {
                    self.assert_formula(p);
                }
            }
            Formula::Atom(atom) if atom.cmp == Cmp::Eq => {
                // top-level equality: two unit clauses, no gate
                let expr = atom.expr.clone();
                self.assert_formula(&Formula::Atom(Atom {
                    expr: expr.clone(),
                    cmp: Cmp::Le,
                }));
                self.assert_formula(&Formula::Atom(Atom { expr, cmp: Cmp::Ge }));
            }
            Formula::Or(parts) => {
                // top-level disjunction: one clause, no OR gate variable
                let mut lits = Vec::with_capacity(parts.len());
                for p in parts {
                    match self.translate(p) {
                        TLit::True => return,
                        TLit::False => {}
                        TLit::Lit(l) => lits.push(l),
                    }
                }
                match Self::normalise(lits) {
                    None => {} // tautology
                    Some(lits) if lits.is_empty() => self.unsat = true,
                    Some(lits) => self.clauses.push(lits),
                }
            }
            other => match self.translate(other) {
                TLit::True => {}
                TLit::False => self.unsat = true,
                TLit::Lit(l) => self.clauses.push(vec![l]),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::VarPool;

    fn clausify(f: &Formula) -> CnfFormula {
        Clausifier::clausify(&f.nnf().simplify())
    }

    #[test]
    fn literal_packing_roundtrips() {
        let p = Lit::positive(7);
        let n = Lit::negative(7);
        assert_eq!(p.var(), 7);
        assert_eq!(n.var(), 7);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(p.negate(), n);
        assert_eq!(n.negate(), p);
        assert_eq!(p.code(), 14);
        assert_eq!(n.code(), 15);
    }

    #[test]
    fn conjunction_of_atoms_becomes_unit_clauses() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::and(vec![
            Formula::le(LinExpr::var(x), LinExpr::constant(3)),
            Formula::ge(LinExpr::var(x), LinExpr::constant(1)),
        ]);
        let cnf = clausify(&f);
        assert!(!cnf.unsat);
        assert_eq!(cnf.clauses.len(), 2);
        assert!(cnf.clauses.iter().all(|c| c.len() == 1));
        // both atoms are theory atoms
        for clause in &cnf.clauses {
            assert!(cnf.constraint_of(clause[0]).is_some());
        }
    }

    #[test]
    fn equality_splits_into_two_half_spaces() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::eq(LinExpr::var(x), LinExpr::constant(5));
        let cnf = clausify(&f);
        assert_eq!(cnf.clauses.len(), 2);
        assert_eq!(cnf.num_vars, 2);
    }

    #[test]
    fn complementary_atoms_share_one_variable() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        // x ≤ 0 and x > 0 are complements: one Boolean variable, two signs
        let f = Formula::or(vec![
            Formula::and(vec![
                Formula::le(LinExpr::var(x), LinExpr::constant(0)),
                Formula::ge(LinExpr::var(x), LinExpr::constant(-5)),
            ]),
            Formula::gt(LinExpr::var(x), LinExpr::constant(0)),
        ]);
        let cnf = clausify(&f);
        let theory_vars = cnf.theory.iter().filter(|t| t.is_some()).count();
        assert_eq!(theory_vars, 2, "x≤0 / x>0 must intern to one variable");
    }

    #[test]
    fn structural_hashing_dedupes_repeated_gates() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let block = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(1)),
            Formula::le(LinExpr::var(y), LinExpr::constant(2)),
        ]);
        let f = Formula::And(vec![
            Formula::Or(vec![
                block.clone(),
                Formula::ge(LinExpr::var(y), LinExpr::constant(9)),
            ]),
            Formula::Or(vec![
                block,
                Formula::le(LinExpr::var(x), LinExpr::constant(-3)),
            ]),
        ]);
        let cnf = clausify(&f);
        // one AND gate for the shared block: 4 theory atoms + 1 gate
        let gate_vars = cnf.theory.iter().filter(|t| t.is_none()).count();
        assert_eq!(gate_vars, 1);
    }

    #[test]
    fn constant_subformulas_fold_away() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::Or(vec![
            Formula::lt(LinExpr::constant(1), LinExpr::constant(0)),
            Formula::eq(LinExpr::var(x), LinExpr::constant(2)),
        ]);
        let cnf = clausify(&f);
        assert!(!cnf.unsat);
        // the false disjunct vanishes; the equality asserts two units through
        // an AND gate or directly
        assert!(!cnf.clauses.is_empty());
        let f_false = Formula::and(vec![Formula::lt(
            LinExpr::constant(1),
            LinExpr::constant(0),
        )]);
        assert!(clausify(&f_false).unsat);
    }

    #[test]
    fn negative_literal_constraint_is_the_integer_complement() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::le(LinExpr::var(x), LinExpr::constant(0));
        let cnf = clausify(&f);
        let lit = cnf.clauses[0][0];
        let pos = cnf.constraint_of(lit).unwrap();
        assert_eq!(pos.rel, Rel::Le);
        let neg = cnf.constraint_of(lit.negate()).unwrap();
        assert_eq!(neg.rel, Rel::Ge);
        // pos: x ≤ 0; neg: x − 1 ≥ 0, i.e. x ≥ 1 — exact complements over ℤ
        assert_eq!(neg.expr.constant_part(), pos.expr.constant_part() - 1);
    }

    #[test]
    fn tautological_clauses_are_dropped() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        // x ≤ 0 ∨ x > 0 is a tautology over the shared variable
        let f = Formula::Or(vec![
            Formula::le(LinExpr::var(x), LinExpr::constant(0)),
            Formula::gt(LinExpr::var(x), LinExpr::constant(0)),
        ]);
        let cnf = clausify(&f);
        assert!(!cnf.unsat);
        assert!(cnf.clauses.is_empty());
    }
}
