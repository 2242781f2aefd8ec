//! DRAT/LRAT-style proof logging for the CDCL(T) engine.
//!
//! When [`crate::solver::SolverConfig::proof_logging`] is on, the engine
//! records every clause it ever reasons with into a [`ProofBuilder`]:
//!
//! * **atoms** — the meaning of every theory-backed Boolean variable
//!   (`b ⟺ e ≤ 0`), so a checker can reconstruct the linear constraint of
//!   either polarity of any literal;
//! * **root clauses** — the clausified input, the axioms of the proof;
//! * **theory lemmas** — clauses valid in LIA, each carrying the
//!   *certificate kind* a checker needs to re-derive it arithmetically:
//!   a Farkas coefficient vector ([`CertKind::Farkas`]), a bound-propagation
//!   chain ([`CertKind::Bounds`]), or a divisibility/GCD refutation
//!   ([`CertKind::Gcd`]);
//! * **derived clauses** — every learned clause, with *hints*: the ids of
//!   the antecedent clauses of its 1UIP resolution chain, ordered so a
//!   checker can replay the derivation by reverse unit propagation (RUP)
//!   without search;
//! * **queries/assumptions/finals** — the session structure: each
//!   `Engine::solve` call opens a `query` section listing its
//!   assumptions, and an Unsat answer ends with a `final` step naming the
//!   clause that refutes the assumption set (the empty clause when the
//!   database itself is unsatisfiable).
//!
//! The serialized format (see [`ProofBuilder::serialize`]) is a plain text,
//! line-oriented document that `posr-check` — an independent replayer that
//! shares *no* solver code — parses and verifies step by step.  Paths the
//! engine cannot certify (explanation fall-backs that the bounded
//! re-derivation missed) mark the proof *incomplete* instead of logging an
//! unsound step; an incomplete document is rejected by the checker, never
//! silently accepted.

use crate::cnf::Lit;
use crate::rational::Rat;
use crate::term::{LinExpr, Var};

/// The arithmetic certificate attached to a theory lemma.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertKind {
    /// A non-negative rational combination of the constraints refuted by
    /// the lemma (one coefficient per literal, parallel to the clause)
    /// whose variable coefficients cancel and whose constant is positive.
    Farkas(Vec<Rat>),
    /// The refutation is re-derivable by integer-rounding interval
    /// propagation over the negated literals' constraints.
    Bounds,
    /// The refutation is re-derivable by the divisibility argument:
    /// propagate intervals, pin single-valued variables, recover equations
    /// from complementary half-spaces, eliminate unit-coefficient
    /// variables, and find an equation whose coefficient GCD does not
    /// divide its constant.
    Gcd,
}

/// One step of a proof document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// Boolean variable `var` means `expr ≤ 0`.
    Atom { var: usize, expr: LinExpr },
    /// An input (root) clause — an axiom of the proof.
    Root { id: u64, lits: Vec<Lit> },
    /// A clause derivable from earlier clauses by reverse unit propagation
    /// over `hints`, in order (the conflicting clause last).
    Derived {
        id: u64,
        lits: Vec<Lit>,
        hints: Vec<u64>,
    },
    /// A theory-valid clause with its arithmetic certificate.
    Lemma {
        id: u64,
        kind: CertKind,
        lits: Vec<Lit>,
    },
    /// The clause is no longer used by any later step.
    Delete { id: u64 },
    /// A new solve call begins; resets the assumption set.
    Query,
    /// An assumption literal of the current query.
    Assume { lit: Lit },
    /// The Unsat answer of the current query: clause `id` is falsified by
    /// the root assignment together with the negated assumptions (id 0
    /// names the top-level conflict of root propagation itself).
    Final { id: u64 },
}

/// An append-only proof log with stable clause ids.
#[derive(Debug, Default)]
pub struct ProofBuilder {
    steps: Vec<ProofStep>,
    next_id: u64,
    /// Set when the engine took a step it cannot certify; the serialized
    /// document carries the reason and the checker rejects it.
    incomplete: Option<String>,
}

impl ProofBuilder {
    /// An empty log.
    pub fn new() -> ProofBuilder {
        ProofBuilder {
            steps: Vec::new(),
            next_id: 0,
            incomplete: None,
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records the meaning of a theory-backed Boolean variable.
    pub fn atom(&mut self, var: usize, expr: &LinExpr) {
        self.steps.push(ProofStep::Atom {
            var,
            expr: expr.clone(),
        });
    }

    /// Records an input clause; returns its id.
    pub fn root(&mut self, lits: Vec<Lit>) -> u64 {
        let id = self.fresh_id();
        self.steps.push(ProofStep::Root { id, lits });
        id
    }

    /// Records a derived clause with its RUP hint chain; returns its id.
    pub fn derived(&mut self, lits: Vec<Lit>, hints: Vec<u64>) -> u64 {
        let id = self.fresh_id();
        self.steps.push(ProofStep::Derived { id, lits, hints });
        id
    }

    /// Records a theory lemma; returns its id.
    pub fn lemma(&mut self, lits: Vec<Lit>, kind: CertKind) -> u64 {
        let id = self.fresh_id();
        self.steps.push(ProofStep::Lemma { id, kind, lits });
        id
    }

    /// Records a clause deletion.
    pub fn delete(&mut self, id: u64) {
        if id != 0 {
            self.steps.push(ProofStep::Delete { id });
        }
    }

    /// Opens a new query section.
    pub fn query(&mut self) {
        self.steps.push(ProofStep::Query);
    }

    /// Records an assumption of the current query.
    pub fn assume(&mut self, lit: Lit) {
        self.steps.push(ProofStep::Assume { lit });
    }

    /// Records the Unsat answer of the current query.
    pub fn finish(&mut self, id: u64) {
        self.steps.push(ProofStep::Final { id });
    }

    /// Marks the proof incomplete (first reason wins).
    pub fn mark_incomplete(&mut self, reason: &str) {
        if self.incomplete.is_none() {
            self.incomplete = Some(reason.to_string());
        }
    }

    /// `true` while no uncertifiable step was taken.
    pub fn is_complete(&self) -> bool {
        self.incomplete.is_none()
    }

    /// The recorded steps.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Serializes the log into the `posr-proof` text format replayed by
    /// `posr-check`.  Literals print as `±(var+1)`, atoms as
    /// `var constant v:coeff…`, Farkas coefficients as `num/den`.
    pub fn serialize(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("p posr-proof 1\n");
        for step in &self.steps {
            match step {
                ProofStep::Atom { var, expr } => {
                    let _ = write!(out, "atom {var} {}", expr.constant_part());
                    for (v, c) in expr.terms() {
                        let _ = write!(out, " {}:{}", v.index(), c);
                    }
                    out.push('\n');
                }
                ProofStep::Root { id, lits } => {
                    let _ = write!(out, "root {id}");
                    push_lits(&mut out, lits);
                    out.push('\n');
                }
                ProofStep::Derived { id, lits, hints } => {
                    let _ = write!(out, "derive {id}");
                    push_lits(&mut out, lits);
                    for h in hints {
                        let _ = write!(out, " {h}");
                    }
                    out.push_str(" 0\n");
                }
                ProofStep::Lemma { id, kind, lits } => {
                    let name = match kind {
                        CertKind::Farkas(_) => "farkas",
                        CertKind::Bounds => "bounds",
                        CertKind::Gcd => "gcd",
                    };
                    let _ = write!(out, "lemma {id} {name}");
                    push_lits(&mut out, lits);
                    if let CertKind::Farkas(coeffs) = kind {
                        for c in coeffs {
                            let _ = write!(out, " {}/{}", c.numer(), c.denom());
                        }
                    }
                    out.push('\n');
                }
                ProofStep::Delete { id } => {
                    let _ = write!(out, "delete {id}");
                    out.push('\n');
                }
                ProofStep::Query => out.push_str("query\n"),
                ProofStep::Assume { lit } => {
                    let _ = write!(out, "assume {}", lit_code(*lit));
                    out.push('\n');
                }
                ProofStep::Final { id } => {
                    let _ = write!(out, "final {id}");
                    out.push('\n');
                }
            }
        }
        if let Some(reason) = &self.incomplete {
            let _ = writeln!(out, "incomplete {}", reason.replace('\n', " "));
        }
        out
    }
}

/// The signed integer encoding of a literal: `±(var+1)`.
fn lit_code(lit: Lit) -> i64 {
    let v = lit.var() as i64 + 1;
    if lit.is_positive() {
        v
    } else {
        -v
    }
}

fn push_lits(out: &mut String, lits: &[Lit]) {
    use std::fmt::Write;
    for &l in lits {
        let _ = write!(out, " {}", lit_code(l));
    }
    out.push_str(" 0");
}

/// Computes a Farkas certificate for an *irreducible* rationally infeasible
/// system of `≤ 0` rows: non-negative rationals `λ` with
/// `Σ λᵢ·rowᵢ = k > 0` (all variable coefficients cancel).  For a minimal
/// infeasible system the multipliers are unique up to scale — the kernel of
/// the variable-coefficient matrix is one-dimensional — so Gaussian
/// elimination recovers them directly.  Returns `None` when the system is
/// not irreducible (kernel dimension ≠ 1) or the candidate fails the sign
/// checks; the caller then falls back to a replayable certificate kind.
pub fn farkas_coefficients(rows: &[LinExpr]) -> Option<Vec<Rat>> {
    let m = rows.len();
    if m == 0 {
        return None;
    }
    let mut vars: Vec<Var> = Vec::new();
    for row in rows {
        for (v, _) in row.terms() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    // matrix rows = variables, columns = constraints: we solve M·λ = 0
    let mut mat: Vec<Vec<Rat>> = vars
        .iter()
        .map(|&v| rows.iter().map(|r| Rat::from_int(r.coeff(v))).collect())
        .collect();
    // reduced row echelon form
    let mut pivots: Vec<(usize, usize)> = Vec::new(); // (matrix row, column)
    let mut row = 0usize;
    for col in 0..m {
        let Some(p) = (row..mat.len()).find(|&r| !mat[r][col].is_zero()) else {
            continue;
        };
        mat.swap(row, p);
        let inv = mat[row][col].recip();
        for x in &mut mat[row] {
            *x = *x * inv;
        }
        let pivot_row = mat[row].clone();
        for (r, mat_row) in mat.iter_mut().enumerate() {
            if r != row && !mat_row[col].is_zero() {
                let f = mat_row[col];
                for (x, &p) in mat_row.iter_mut().zip(&pivot_row) {
                    *x -= p * f;
                }
            }
        }
        pivots.push((row, col));
        row += 1;
        if row == mat.len() {
            break;
        }
    }
    let pivot_cols: Vec<usize> = pivots.iter().map(|&(_, c)| c).collect();
    let free: Vec<usize> = (0..m).filter(|c| !pivot_cols.contains(c)).collect();
    if free.len() != 1 {
        return None;
    }
    let f = free[0];
    let mut lambda = vec![Rat::ZERO; m];
    lambda[f] = Rat::ONE;
    for &(r, c) in &pivots {
        lambda[c] = -mat[r][f];
    }
    // orient so the combined constant is positive, then check signs
    let mut konst = Rat::ZERO;
    for (i, row) in rows.iter().enumerate() {
        konst += lambda[i] * Rat::from_int(row.constant_part());
    }
    if konst.is_zero() {
        return None;
    }
    if konst.is_negative() {
        for l in &mut lambda {
            *l = -*l;
        }
    }
    if lambda.iter().any(|l| l.is_negative()) {
        return None;
    }
    Some(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::VarPool;

    #[test]
    fn farkas_of_opposed_halfspaces() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // x + y − 0 ≤ 0 and 1 − x − y ≤ 0: λ = (1, 1), constant 1
        let rows = vec![
            LinExpr::var(x) + LinExpr::var(y),
            LinExpr::constant(1) - LinExpr::var(x) - LinExpr::var(y),
        ];
        let lambda = farkas_coefficients(&rows).expect("irreducible");
        assert_eq!(lambda, vec![Rat::ONE, Rat::ONE]);
    }

    #[test]
    fn farkas_with_scaling() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        // 2x − 1 ≤ 0 (x ≤ 1/2) and 1 − x ≤ 0 (x ≥ 1): λ = (1, 2) up to scale
        let rows = vec![
            LinExpr::scaled_var(x, 2) - LinExpr::constant(1),
            LinExpr::constant(1) - LinExpr::var(x),
        ];
        let lambda = farkas_coefficients(&rows).expect("irreducible");
        // the combination must cancel x and leave a positive constant
        let combo = lambda[0] * Rat::from_int(2) + lambda[1] * Rat::from_int(-1);
        assert!(combo.is_zero());
        let konst = lambda[0] * Rat::from_int(-1) + lambda[1] * Rat::from_int(1);
        assert!(konst.is_positive());
    }

    #[test]
    fn feasible_rows_have_no_certificate() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let rows = vec![LinExpr::var(x), LinExpr::var(y)];
        assert_eq!(farkas_coefficients(&rows), None);
    }

    #[test]
    fn serialization_round_trips_syntactically() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let mut builder = ProofBuilder::new();
        builder.atom(0, &(LinExpr::var(x) - LinExpr::constant(3)));
        let r = builder.root(vec![Lit::positive(0)]);
        builder.query();
        builder.assume(Lit::negative(0));
        let d = builder.derived(vec![], vec![r]);
        builder.finish(d);
        let text = builder.serialize();
        assert!(text.starts_with("p posr-proof 1\n"));
        assert!(text.contains("atom 0 -3 0:1"));
        assert!(text.contains("root 1 1 0"));
        assert!(text.contains("derive 2 0 1 0"));
        assert!(text.contains("assume -1"));
        assert!(text.contains("final 2"));
        assert!(builder.is_complete());
    }
}
