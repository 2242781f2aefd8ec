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
//!
//! Two tests share the elimination.  [`conflict_core_pinned`] runs it from
//! scratch — pair, substitute the pins, eliminate — and is the reference
//! that core minimisation and certification re-run on a core alone
//! (`gcd_refutes`, the argument the proof checker replays).  The search
//! runs a `GcdBase` instead: the constraints asserted at the root, which
//! are most of what a solve collects and never change during it, are
//! paired and eliminated once per solve, extended in place with each new
//! root entry, and every check eliminates only what can change above the
//! root.  The engine runs a check only when its delta changed the test's
//! input: a newly pinned variable, or an entry completing an equation
//! (`GcdBase::completes_equation`).

use std::collections::HashMap;

use crate::bounds::{BoundEnv, BoundOutcome};
use crate::rational::gcd;
use crate::simplex::{Rel, SimplexConstraint};
use crate::term::{LinExpr, Var};

/// A compact set of indices — the provenance each derived equation carries
/// through the elimination: the constraints it combines, and the variables
/// whose pinned values it substituted.  A word bitset: unions are a few
/// `u64` ORs instead of a sorted-vector merge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct IndexSet {
    words: Vec<u64>,
}

impl IndexSet {
    fn singleton(i: usize) -> IndexSet {
        let mut set = IndexSet::default();
        set.insert(i);
        set
    }

    fn pair(i: usize, j: usize) -> IndexSet {
        let mut set = IndexSet::singleton(i);
        set.insert(j);
        set
    }

    fn insert(&mut self, i: usize) {
        let word = i / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|&w| w & (1u64 << (i % 64)) != 0)
    }

    fn union_with(&mut self, other: &IndexSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
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

/// One equation `expr = 0` of an elimination: the constraints it combines
/// and the pinned variables whose values were substituted into it.
#[derive(Clone, Debug, Default)]
struct Equation {
    expr: LinExpr,
    reasons: IndexSet,
    /// Variable indices.
    pins: IndexSet,
}

impl Equation {
    /// `expr = 0`, combining `reasons`, with nothing substituted yet.
    fn new(expr: LinExpr, reasons: IndexSet) -> Equation {
        Equation {
            expr,
            reasons,
            pins: IndexSet::default(),
        }
    }

    /// The equation with the pinned variables substituted (and recorded);
    /// `None` on overflow (see [`substitute_pinned`]).
    fn substituted(mut self, pinned: &dyn Fn(Var) -> Option<i128>) -> Option<Equation> {
        if self.expr.variables().all(|v| pinned(v).is_none()) {
            return Some(self);
        }
        substitute_pinned(&mut self.expr, pinned, &mut self.pins)?;
        Some(self)
    }

    /// Adds the provenance of `other` (an equation combined into this one).
    fn absorb_provenance(&mut self, other: &Equation) {
        self.reasons.union_with(&other.reasons);
        self.pins.union_with(&other.pins);
    }

    fn core(&self) -> GcdCore {
        GcdCore {
            constraints: self.reasons.to_indices(),
            pinned: self.pins.to_indices().into_iter().map(Var).collect(),
        }
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

/// The first unit-coefficient term of `expr`: a pivot candidate.
fn unit_term(expr: &LinExpr) -> Option<(Var, i128)> {
    expr.terms().find(|&(_, c)| c == 1 || c == -1)
}

/// Substitutes the pinned variables into `expr` in place, adding them to
/// `pins`.  All arithmetic is *checked*: a learned clause
/// from a wrapped coefficient would be unsound in release builds (where
/// plain `i128` ops wrap silently), so on overflow the substitution is
/// abandoned (`None`) and the caller drops the equation — sound, just less
/// complete.
fn substitute_pinned(
    expr: &mut LinExpr,
    pinned: &dyn Fn(Var) -> Option<i128>,
    pins: &mut IndexSet,
) -> Option<()> {
    let mut shift = Some(0i128);
    expr.retain_terms(|v, c| match pinned(v) {
        Some(value) => {
            shift = shift.and_then(|s| s.checked_add(c.checked_mul(value)?));
            pins.insert(v.index());
            false
        }
        None => true,
    });
    let shift = shift?;
    expr.constant_part().checked_add(shift)?;
    expr.add_constant(shift);
    Some(())
}

/// `eq − (c·a)·pivot`, which eliminates the pivot variable whose
/// coefficient is `c` in `eq` and `a = ±1` in `pivot`, with checked
/// arithmetic; `None` on overflow or past the fill-in cap (the elimination
/// step is skipped, see [`substitute_pinned`]).
fn eliminated(eq: &LinExpr, pivot: &LinExpr, c: i128, a: i128) -> Option<LinExpr> {
    let out = eq.checked_add_scaled(pivot, c.checked_mul(a)?.checked_neg()?)?;
    (out.num_terms() <= MAX_TERMS).then_some(out)
}

/// A constraint's expression oriented as the half-space `e ≤ 0`, or as
/// the equation `e = 0` of a `Rel::Eq`.
fn normalized(c: &SimplexConstraint) -> LinExpr {
    match c.rel {
        Rel::Ge => -c.expr.clone(),
        Rel::Le | Rel::Eq => c.expr.clone(),
    }
}

/// `true` when the normalised halves of `a` and `b` are `e ≤ 0` and
/// `−e ≤ 0` — together the equation `e = 0`.  Compares in place.
fn complementary(a: &SimplexConstraint, b: &SimplexConstraint) -> bool {
    if a.rel == Rel::Eq || b.rel == Rel::Eq {
        return false;
    }
    if a.rel != b.rel {
        return a.expr == b.expr;
    }
    a.expr.constant_part() == b.expr.constant_part().wrapping_neg()
        && a.expr.num_terms() == b.expr.num_terms()
        && a.expr
            .terms()
            .zip(b.expr.terms())
            .all(|((v, c), (w, d))| v == w && c == d.wrapping_neg())
}

/// A hash of the normalised half of a `≤`/`≥` constraint (`complement`:
/// of its negation), computed in place; equal halves hash equal, and a
/// match is confirmed with [`complementary`].
fn half_key(c: &SimplexConstraint, complement: bool) -> u64 {
    let sign: i128 = if (c.rel == Rel::Ge) != complement {
        -1
    } else {
        1
    };
    // a multiplicative mix (the FxHash step) over the variable indices
    // and both halves of each coefficient
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    let mix_int = |h: u64, k: i128| mix(mix(h, k as u64), (k >> 64) as u64);
    let mut h = 0;
    for (v, k) in c.expr.terms() {
        h = mix_int(mix(h, v.index() as u64), k.wrapping_mul(sign));
    }
    mix_int(h, c.expr.constant_part().wrapping_mul(sign))
}

/// Unit-pivot elimination with GCD tests over `eqs`: every equation is
/// tested, then the first unused equation with a unit-coefficient variable
/// becomes the next pivot (rescanning from the start, so an equation that
/// gains a unit coefficient from an elimination becomes a pivot too) and
/// its variable is eliminated from every other unused equation, each
/// result tested again.  Returns the first refuted equation.
fn eliminate(mut eqs: Vec<Equation>) -> Option<Equation> {
    if let Some(e) = eqs.iter().find(|e| equation_infeasible(&e.expr)) {
        return Some(e.clone());
    }
    let mut used = vec![false; eqs.len()];
    for _ in 0..MAX_PIVOTS {
        let Some((p, (var, a))) = (0..eqs.len())
            .filter(|&p| !used[p])
            .find_map(|p| Some((p, unit_term(&eqs[p].expr)?)))
        else {
            break;
        };
        used[p] = true;
        // a used equation is never read again
        let pivot = std::mem::take(&mut eqs[p]);
        for q in 0..eqs.len() {
            if used[q] {
                continue;
            }
            let c = eqs[q].expr.coeff(var);
            if c == 0 {
                continue;
            }
            // checked arithmetic throughout — a silently wrapped
            // coefficient would turn the GCD test into an unsound
            // refutation in release builds
            let Some(derived) = eliminated(&eqs[q].expr, &pivot.expr, c, a) else {
                continue; // skip: overflow or fill-in (sound, just less complete)
            };
            eqs[q].expr = derived;
            eqs[q].absorb_provenance(&pivot);
            if equation_infeasible(&eqs[q].expr) {
                return Some(eqs[q].clone());
            }
        }
    }
    None
}

/// [`conflict_core_pinned`] without pinned variables: the sorted indices
/// of an infeasible subset of `constraints`, if the elimination derives a
/// divisibility conflict.
pub fn conflict_core(constraints: &[SimplexConstraint]) -> Option<Vec<usize>> {
    conflict_core_pinned(constraints, &|_| None).map(|core| core.constraints)
}

/// The from-scratch test: collects the equality subsystem — explicit
/// `Rel::Eq` constraints plus complementary pairs of `≤`-forms (`e ≤ 0`
/// together with `−e ≤ 0`) — with the values of the `pinned` variables
/// substituted first (interval propagation pins e.g. the 0/1 mismatch
/// counters, and only then do the flow equations expose their parity),
/// and runs unit-pivot elimination with GCD tests over it.  On refutation
/// returns the combined constraints and the substituted pinned variables —
/// one pass both detects and explains; `None` if no divisibility conflict
/// was derived.
///
/// The search runs the incremental `GcdBase` instead; this is the
/// reference that re-checks a core on its own (core minimisation and
/// certification).
pub fn conflict_core_pinned(
    constraints: &[SimplexConstraint],
    pinned: &dyn Fn(Var) -> Option<i128>,
) -> Option<GcdCore> {
    let mut eqs: Vec<Equation> = Vec::new();
    let mut le_seen: HashMap<LinExpr, Equation> = HashMap::new();
    for (i, c) in constraints.iter().enumerate() {
        let Some(eq) = Equation::new(normalized(c), IndexSet::singleton(i)).substituted(pinned)
        else {
            continue;
        };
        if c.rel == Rel::Eq {
            eqs.push(eq);
            continue;
        }
        if let Some(other) = le_seen.get(&-eq.expr.clone()) {
            // e ≤ 0 ∧ −e ≤ 0 ⟺ e = 0
            let mut pair = eq.clone();
            pair.absorb_provenance(other);
            eqs.push(pair);
        }
        le_seen.entry(eq.expr.clone()).or_insert(eq);
    }
    eliminate(eqs).map(|e| e.core())
}

/// `true` iff the elimination derives a divisibility conflict.
pub fn infeasible(constraints: &[SimplexConstraint]) -> bool {
    conflict_core(constraints).is_some()
}

/// `true` when `cs` alone is refuted: by interval propagation, or by
/// [`conflict_core_pinned`] under the variables that propagation pins —
/// the argument the checker replays for `Gcd` lemmas, and the test core
/// minimisation re-runs on every candidate.
pub(crate) fn gcd_refutes(cs: &[SimplexConstraint]) -> bool {
    let (env, outcome) = BoundEnv::from_constraints(cs);
    outcome == BoundOutcome::Refuted || conflict_core_pinned(cs, &|v| env.pinned_value(v)).is_some()
}

/// Marks "no row" in [`GcdBase::pivot_row`].
const NO_ROW: u32 = u32::MAX;

/// One row of a [`GcdBase`]: an equation over the root prefix.
#[derive(Debug)]
struct Row {
    eq: Equation,
    /// The unit-coefficient variable the row solves for — it occurs in no
    /// other row — or `None` for a residual row (no usable unit
    /// coefficient).
    pivot: Option<Var>,
}

/// The divisibility test's per-solve base: the equalities of a constraint
/// stack's *root prefix* (the constraints asserted at decision level 0,
/// which never change during a solve), paired, with the root's pinned
/// variables substituted, and unit-pivot-eliminated once into reduced
/// form.  Each pivot variable occurs only in its own row, and each row
/// carries the prefix indices it combines.
///
/// The base grows in place: [`GcdBase::absorb`] pairs and eliminates only
/// the entries appended to the prefix since the last call (CEGAR cuts,
/// learned units), the seminaive "derive only from the delta" discipline.
/// A check ([`GcdBase::conflict_core`]) then eliminates only what can
/// change above the root:
///
/// * the rows whose pivot is pinned — with the pin substituted, the row
///   becomes a constraint on the other variables;
/// * the residual rows, which have no unit coefficient to solve for;
/// * the equalities asserted above the root, with the unpinned pivots
///   substituted out by their rows.
///
/// A row whose pivot is not pinned is dropped: its pivot occurs nowhere
/// else, so any integer values of the other variables extend to it.  The
/// checked system is therefore integrally equivalent to the whole stack's
/// equality subsystem, and a refutation names stack indices and pins
/// exactly like [`conflict_core_pinned`] does.  The two eliminations are
/// not the same heuristic, though: a pivot pinned only above the root was
/// eliminated before its pin, so either test can refute a (rare) system
/// the other does not.
#[derive(Debug, Default)]
pub(crate) struct GcdBase {
    /// Length of the absorbed prefix.
    root: usize,
    /// The absorbed `≤`-halves that found no complement in the prefix,
    /// by [`half_key`]: a half above the root may still complete them.
    halves: HashMap<u64, usize>,
    rows: Vec<Row>,
    /// Per variable index: the row the variable is the pivot of.
    pivot_row: Vec<u32>,
    /// An equation of the prefix alone with no integer solution.
    refuted: Option<Equation>,
    /// The root pins substituted into the rows (variable indices): one set
    /// for the whole base, since a root pin never changes.
    root_pins: IndexSet,
}

impl GcdBase {
    fn is_pivot(&self, v: Var) -> bool {
        self.pivot_row.get(v.index()).is_some_and(|&r| r != NO_ROW)
    }

    /// Absorbs the entries of `stack` past the absorbed prefix into the
    /// base, substituting the `pinned` values into them and the rows alike;
    /// the caller
    /// guarantees that all of `stack` is permanent (asserted at the root)
    /// and so are the pins.  Returns `true` when the base changed: a new
    /// equation, or a pin on a row variable.
    pub(crate) fn absorb(
        &mut self,
        stack: &[SimplexConstraint],
        pinned: &dyn Fn(Var) -> Option<i128>,
    ) -> bool {
        let mut completed = self.substitute_rows(pinned);
        for (i, c) in stack.iter().enumerate().skip(self.root) {
            let reasons = if c.rel == Rel::Eq {
                IndexSet::singleton(i)
            } else {
                let key = half_key(c, true);
                match self.halves.get(&key) {
                    Some(&j) if complementary(&stack[j], c) => {
                        self.halves.remove(&key);
                        IndexSet::pair(i, j)
                    }
                    _ => {
                        self.halves.entry(half_key(c, false)).or_insert(i);
                        continue;
                    }
                }
            };
            completed = true;
            if self.refuted.is_none() {
                if let Some(mut eq) = Equation::new(normalized(c), reasons).substituted(pinned) {
                    self.root_pins.union_with(&std::mem::take(&mut eq.pins));
                    self.reduce(&mut eq, &|_| None);
                    self.add_row(eq);
                }
            }
        }
        self.root = stack.len();
        if completed {
            // eliminations can reduce redundant residual rows to `0 = 0`
            self.rows
                .retain(|r| r.pivot.is_some() || !r.eq.expr.is_constant());
            self.pivot_row.iter_mut().for_each(|r| *r = NO_ROW);
            for (at, row) in self.rows.iter().enumerate() {
                if let Some(v) = row.pivot {
                    self.pivot_row[v.index()] = at as u32;
                }
            }
        }
        completed
    }

    /// Substitutes newly pinned variables into the rows.  A pivot row whose
    /// pivot is pinned loses it and becomes residual (no other row holds
    /// the pivot, so nothing else changes), then may be promoted again on
    /// another unit coefficient.
    fn substitute_rows(&mut self, pinned: &dyn Fn(Var) -> Option<i128>) -> bool {
        let mut demoted = Vec::new();
        let mut changed = false;
        for r in 0..self.rows.len() {
            let row = &mut self.rows[r];
            if row.eq.expr.variables().all(|v| pinned(v).is_none()) {
                continue;
            }
            changed = true;
            if let Some(mut eq) = row.eq.clone().substituted(pinned) {
                self.root_pins.union_with(&std::mem::take(&mut eq.pins));
                row.eq = eq;
            }
            if let Some(p) = row.pivot.filter(|&p| pinned(p).is_some()) {
                row.pivot = None;
                self.pivot_row[p.index()] = NO_ROW;
            }
            if equation_infeasible(&row.eq.expr) {
                self.refuted = Some(row.eq.clone());
                return true;
            }
            if row.pivot.is_none() {
                demoted.push(r);
            }
        }
        self.promote(demoted);
        changed
    }

    /// Substitutes every pivot variable of `eq` that `pinned` leaves free
    /// by its row (rows hold no other pivot, so one pass suffices).
    fn reduce(&self, eq: &mut Equation, pinned: &dyn Fn(Var) -> Option<i128>) {
        let pivots: Vec<(Var, i128)> = eq
            .expr
            .terms()
            .filter(|&(v, _)| self.is_pivot(v) && pinned(v).is_none())
            .collect();
        for (v, c) in pivots {
            let row = &self.rows[self.pivot_row[v.index()] as usize].eq;
            if let Some(e) = eliminated(&eq.expr, &row.expr, c, row.expr.coeff(v)) {
                eq.expr = e;
                eq.absorb_provenance(row);
            }
        }
    }

    /// Adds a reduced equation as a residual row and promotes it where a
    /// unit coefficient allows.
    fn add_row(&mut self, eq: Equation) {
        if equation_infeasible(&eq.expr) {
            self.refuted = Some(eq);
            return;
        }
        if eq.expr.is_constant() {
            return; // 0 = 0
        }
        self.rows.push(Row { eq, pivot: None });
        self.promote(vec![self.rows.len() - 1]);
    }

    /// Promotes the queued residual rows to pivot rows on their first unit
    /// coefficient, cascading to the residual rows each elimination
    /// touches.
    fn promote(&mut self, mut queue: Vec<usize>) {
        while let Some(r) = queue.pop() {
            if self.refuted.is_some() {
                return;
            }
            // a row a skipped reduction left holding another pivot stays
            // residual (making it a pivot row would break the invariant)
            let row = &self.rows[r].eq.expr;
            if row.variables().any(|v| self.is_pivot(v)) {
                continue;
            }
            let Some((var, a)) = unit_term(row) else {
                continue;
            };
            // eliminate `var` from every other row, committing only if
            // every elimination succeeds
            let mut updates = Vec::new();
            let mut complete = true;
            for (q, other) in self.rows.iter().enumerate() {
                let c = other.eq.expr.coeff(var);
                if q == r || c == 0 {
                    continue;
                }
                match eliminated(&other.eq.expr, row, c, a) {
                    Some(e) => updates.push((q, e)),
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue;
            }
            let pivot = self.rows[r].eq.clone();
            for (q, e) in updates {
                let row = &mut self.rows[q];
                row.eq.expr = e;
                row.eq.absorb_provenance(&pivot);
                if equation_infeasible(&row.eq.expr) {
                    self.refuted = Some(row.eq.clone());
                    return;
                }
                if row.pivot.is_none() {
                    queue.push(q);
                }
            }
            self.rows[r].pivot = Some(var);
            if var.index() >= self.pivot_row.len() {
                self.pivot_row.resize(var.index() + 1, NO_ROW);
            }
            self.pivot_row[var.index()] = r as u32;
        }
    }

    /// `true` when an entry of `stack[from..]` above the root completes an
    /// equation: a `Rel::Eq`, or a half whose complement is on the stack.
    pub(crate) fn completes_equation(&self, stack: &[SimplexConstraint], from: usize) -> bool {
        let start = from.max(self.root);
        (start..stack.len()).any(|i| {
            let c = &stack[i];
            c.rel == Rel::Eq
                || self
                    .halves
                    .get(&half_key(c, true))
                    .is_some_and(|&j| complementary(&stack[j], c))
                || stack[self.root..i].iter().any(|d| complementary(d, c))
        })
    }

    /// The divisibility test of `stack`, whose prefix is the one absorbed,
    /// under the `pinned` values (which extend the pins the prefix was
    /// absorbed under): the same answer shape as
    /// [`conflict_core_pinned`] (stack indices and substituted pins), from
    /// eliminating only the pinned-pivot rows, the residual rows and the
    /// equalities above the root.
    pub(crate) fn conflict_core(
        &self,
        stack: &[SimplexConstraint],
        pinned: &dyn Fn(Var) -> Option<i128>,
    ) -> Option<GcdCore> {
        if let Some(eq) = &self.refuted {
            return Some(self.core_of(eq, stack));
        }
        let mut eqs: Vec<Equation> = Vec::new();
        for row in &self.rows {
            if row.pivot.is_some_and(|p| pinned(p).is_none()) {
                continue;
            }
            eqs.extend(row.eq.clone().substituted(pinned));
        }
        // the halves above the root, keyed for pairing among themselves
        let mut suffix: Vec<(u64, usize)> = Vec::new();
        for (i, c) in stack.iter().enumerate().skip(self.root) {
            let reasons = if c.rel == Rel::Eq {
                IndexSet::singleton(i)
            } else {
                let key = half_key(c, true);
                let partner = self
                    .halves
                    .get(&key)
                    .copied()
                    .into_iter()
                    .chain(suffix.iter().filter(|&&(k, _)| k == key).map(|&(_, j)| j))
                    .find(|&j| complementary(&stack[j], c));
                suffix.push((half_key(c, false), i));
                let Some(j) = partner else { continue };
                IndexSet::pair(i, j)
            };
            let mut eq = Equation::new(normalized(c), reasons);
            self.reduce(&mut eq, pinned);
            eqs.extend(eq.substituted(pinned));
        }
        eliminate(eqs).map(|e| self.core_of(&e, stack))
    }

    /// The core of a refuted equation: its constraints, the pins it
    /// substituted, and the root pins among the variables of those
    /// constraints (a superset of the root pins its rows used).
    fn core_of(&self, eq: &Equation, stack: &[SimplexConstraint]) -> GcdCore {
        let constraints = eq.reasons.to_indices();
        let mut pins = eq.pins.clone();
        for &i in &constraints {
            for v in stack[i].expr.variables() {
                if self.root_pins.contains(v.index()) {
                    pins.insert(v.index());
                }
            }
        }
        GcdCore {
            constraints,
            pinned: pins.to_indices().into_iter().map(Var).collect(),
        }
    }
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
    fn base_refutes_parity_from_a_root_prefix_and_a_suffix() {
        let mut pool = VarPool::new();
        let p = pool.fresh("p");
        let q = pool.fresh("q");
        let s = pool.fresh("s");
        let t = pool.fresh("t");
        let m = pool.fresh("m");
        // root: p = 2s and q = 2t as split halves; above the root:
        // p = q + m with the mismatch counter m pinned to 1
        let d1 = LinExpr::var(p) - LinExpr::scaled_var(s, 2);
        let d2 = LinExpr::var(q) - LinExpr::scaled_var(t, 2);
        let d3 = LinExpr::var(p) - LinExpr::var(q) - LinExpr::var(m);
        let stack = vec![
            le(d1.clone()),
            ge(d1),
            le(d2.clone()),
            ge(d2),
            le(d3.clone()),
            ge(d3),
        ];
        let mut base = GcdBase::default();
        assert!(base.absorb(&stack[..4], &|_| None));
        assert!(!base.completes_equation(&stack[..5], 4));
        assert!(base.completes_equation(&stack, 4));
        assert_eq!(base.conflict_core(&stack[..5], &|_| None), None);
        assert_eq!(base.conflict_core(&stack, &|_| None), None);
        let core = base.conflict_core(&stack, &|v| (v == m).then_some(1));
        assert_eq!(
            core,
            Some(GcdCore {
                constraints: vec![0, 1, 2, 3, 4, 5],
                pinned: vec![m],
            })
        );
        // the same entries absorbed as root: the pin still decides
        assert!(base.absorb(&stack, &|_| None));
        assert_eq!(base.conflict_core(&stack, &|_| None), None);
        assert_eq!(base.conflict_core(&stack, &|v| (v == m).then_some(1)), core);
        assert_eq!(base.conflict_core(&stack, &|v| (v == m).then_some(2)), None);
    }

    #[test]
    fn base_keeps_a_root_refutation() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // x = y + 1 at the root, x = y (split) completed above it
        let d = LinExpr::var(x) - LinExpr::var(y);
        let stack = vec![eq(d.clone() - LinExpr::constant(1)), le(d.clone()), ge(d)];
        let mut base = GcdBase::default();
        assert!(base.absorb(&stack[..2], &|_| None));
        assert_eq!(
            base.conflict_core(&stack, &|_| None).map(|c| c.constraints),
            Some(vec![0, 1, 2])
        );
        assert!(base.absorb(&stack, &|_| None));
        assert_eq!(
            base.conflict_core(&stack[..3], &|_| None)
                .map(|c| c.constraints),
            Some(vec![0, 1, 2])
        );
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

    /// A random equality system in the engine's shape: equations as split
    /// `≤`-pairs (in either orientation) or as `Rel::Eq`, plus unpaired
    /// halves, in shuffled order so pairs straddle any cut point.  With a
    /// `planted` assignment every equation holds under it.
    fn random_stack(
        rng: &mut Rng,
        vars: &[Var],
        planted: Option<&[i128]>,
    ) -> Vec<SimplexConstraint> {
        const COEFFS: [i128; 8] = [1, -1, 1, -1, 2, -2, 3, 4];
        let random_expr = |rng: &mut Rng| {
            let mut e = LinExpr::constant(rng.int(-2, 2));
            for _ in 0..2 + rng.below(3) {
                let v = vars[rng.below(vars.len() as u64) as usize];
                e.add_term(v, COEFFS[rng.below(COEFFS.len() as u64) as usize]);
            }
            if let Some(values) = planted {
                let at = e.eval(&|v| values[v.index()]);
                e.add_constant(-at);
            }
            e
        };
        let mut stack = Vec::new();
        for _ in 0..1 + rng.below(5) {
            let e = random_expr(rng);
            match rng.below(4) {
                0 => stack.push(eq(e)),
                1 => stack.extend([le(e.clone()), le(-e)]),
                _ => stack.extend([le(e.clone()), ge(e)]),
            }
        }
        for _ in 0..rng.below(3) {
            stack.push(le(random_expr(rng)));
        }
        for i in (1..stack.len()).rev() {
            stack.swap(i, rng.below(i as u64 + 1) as usize);
        }
        stack
    }

    /// The base against the from-scratch test over random systems, root
    /// prefixes absorbed in one or two steps, and pins that arrive before
    /// the first absorption, between the two, or only above the root.
    ///
    /// * Soundness: a system with a planted integer solution (the pins
    ///   agreeing with it) is never refuted, and every core names pinned
    ///   variables only.
    /// * Replay: a core's constraints with its pins, alone, are refuted
    ///   by [`gcd_refutes`] — what core minimisation runs and what the
    ///   checker's replay of a `Gcd` lemma re-derives.
    /// * Agreement: the systems the from-scratch test refutes and the base
    ///   misses.
    ///
    /// The base eliminates a pivot before a pin that arrives above the
    /// root, and unit-pivot elimination depends on the basis, so the last
    /// two are counted rather than forbidden: at this seed the base misses
    /// 18 of the 20 018 systems the from-scratch test refutes, and 1 of its
    /// 20 008 cores need a derivation the replay cannot follow (the engine
    /// forgoes such a core under proof logging).  The bounds below keep
    /// both rare.
    #[test]
    fn base_agrees_with_the_from_scratch_test() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..6).map(|i| pool.fresh(&format!("v{i}"))).collect();
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let (mut refuted, mut missed, mut cores, mut unreplayed) = (0, 0, 0, 0);
        for round in 0..40_000 {
            let nvars = 3 + rng.below(vars.len() as u64 - 2) as usize;
            let planted: Option<Vec<i128>> =
                (round % 4 == 0).then(|| (0..nvars).map(|_| rng.int(-3, 3)).collect());
            let stack = random_stack(&mut rng, &vars[..nvars], planted.as_deref());
            // a pin's value and the level it arrives at: 0 and 1 pin at
            // the root (before the first and the second absorption), 2
            // only above it
            let pins: Vec<Option<(i128, u64)>> = (0..nvars)
                .map(|i| {
                    let value = planted.as_ref().map_or(rng.int(-3, 3), |p| p[i]);
                    (rng.below(4) == 0).then(|| (value, rng.below(3)))
                })
                .collect();
            let pins = &pins;
            let pinned_by = |level: u64| {
                move |v: Var| {
                    pins.get(v.index())
                        .copied()
                        .flatten()
                        .and_then(|(value, at)| (at <= level).then_some(value))
                }
            };
            let pinned = pinned_by(2);
            let root = rng.below(stack.len() as u64 + 1) as usize;
            let mut base = GcdBase::default();
            base.absorb(&stack[..rng.below(root as u64 + 1) as usize], &pinned_by(0));
            base.absorb(&stack[..root], &pinned_by(1));
            let fast = base.conflict_core(&stack, &pinned);
            let scratch = conflict_core_pinned(&stack, &pinned);
            if planted.is_some() {
                assert_eq!(fast, None, "round {round}: {stack:?} has a solution");
                assert_eq!(scratch, None, "round {round}: {stack:?} has a solution");
                continue;
            }
            if let Some(core) = &fast {
                assert!(core.pinned.iter().all(|&v| pinned(v).is_some()));
                let mut alone: Vec<SimplexConstraint> =
                    core.constraints.iter().map(|&i| stack[i].clone()).collect();
                for &v in &core.pinned {
                    let at = LinExpr::var(v) - LinExpr::constant(pinned(v).unwrap());
                    alone.extend([le(at.clone()), ge(at)]);
                }
                cores += 1;
                unreplayed += usize::from(!gcd_refutes(&alone));
            }
            refuted += usize::from(scratch.is_some());
            missed += usize::from(scratch.is_some() && fast.is_none());
        }
        assert!(refuted > 10_000, "the generator must produce conflicts");
        assert!(
            missed * 500 <= refuted,
            "{missed} of {refuted} refuted systems missed"
        );
        assert!(
            unreplayed * 2000 <= cores,
            "{unreplayed} of {cores} cores unreplayed"
        );
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
