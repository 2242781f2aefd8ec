//! Rational feasibility of conjunctions of linear constraints via the
//! *general simplex* algorithm of Dutertre & de Moura — in its full
//! **incremental, backtrackable** form.
//!
//! The central type is [`IncrementalSimplex`]: a tableau that lives for a
//! whole search (or a whole incremental solving session) instead of being
//! rebuilt per feasibility check.
//!
//! * **Atoms are registered once.**  Every constraint `Σ aᵢxᵢ + k ⋈ 0` is
//!   canonicalised to a *form* (coefficients divided by their gcd, leading
//!   sign positive, constant dropped).  A form with a single unit term is
//!   owned by the problem column itself; every other form gets one slack
//!   variable with the definitional row `s = Σ aᵢxᵢ`, created the first
//!   time the form is seen ([`IncrementalSimplex::prepare`]).  Atoms that
//!   differ only in their constant — the overwhelmingly common case in the
//!   CDCL(T) engine, where both polarities of a Boolean atom and all the
//!   integer branch atoms on one variable share a form — share one tableau
//!   variable.
//! * **Assertions are O(1) trail operations.**  Asserting a constraint
//!   ([`IncrementalSimplex::assert_prepared`]) tightens the owner
//!   variable's lower/upper bound, records the old bound on an undo trail,
//!   and (for a nonbasic owner) nudges the assignment inside the new
//!   bound.  No row is touched.  An immediately contradictory pair of
//!   bounds is reported with its two-element core without any pivoting.
//! * **Only `check` pivots, warm-starting from the previous basis.**  The
//!   `β` assignment and the basis survive assertions, retractions and
//!   earlier checks, so a re-check after one new bound typically pivots
//!   once or not at all — this is what makes the theory side of CDCL(T)
//!   as incremental as the Boolean side.
//! * **Rows are flat, sparse and fraction-free.**  A basic variable's row
//!   is a `SparseRow`: column-sorted `i128` numerators over one
//!   positive row denominator `D`, `x_b = Σ (c_k / D)·x_k`, divided by
//!   their content so that `gcd(D, c_1, …, c_m) = 1` — the unique integer
//!   form of the row's rationals.  Rows are drawn from a per-tableau
//!   arena and recycled across pivots instead of cloned.  A **column
//!   occurrence index** (`col_rows[j]` = the basic
//!   variables whose rows mention column `j`) is maintained through every
//!   pivot and assignment update, so `update`, `pivot_and_update` and
//!   `pivot` touch only the rows that actually contain the moving column
//!   instead of scanning the whole tableau.
//!   [`IncrementalSimplex::row_touches`] counts the rows actually visited
//!   and flows into a `posr-obs` counter.
//! * **Pivots are integer arithmetic.**  Pivoting `x_b` out for `x_n`
//!   turns `b`'s row around by a sign flip, `|c_bn|·x_n = ±D_b·x_b ∓
//!   Σ c_bk·x_k`, which keeps its content 1.  Substituting that row
//!   (denominator `D_n`, numerators `e_k`) into an occurrence row with
//!   numerator `c_on` scales the old row by `m = D_n / g` and the
//!   entering row by `f = c_on / g`, where `g = gcd(D_n, c_on)`: every
//!   entry becomes `c_ok·m + f·e_k` over `D_o·m` — two multiplies and
//!   one add, no gcd.  A content pass that stops at the first unit gcd
//!   restores the normal form when the new denominator is not 1.  The
//!   coefficients are the same rationals a per-entry [`Rat`] tableau
//!   holds, so the pivot sequence, `β`, the models and the cores are
//!   too.  `β`, the bounds and `θ` stay [`Rat`]s; a coefficient becomes
//!   `c / D` only where a rational is needed (assignment updates), and
//!   the Bland candidate test and the Farkas
//!   core read signs only.  A merge that overflows `i128` is recomputed
//!   exactly in [`crate::bigint::BigInt`], reduced by its content and
//!   counted on `lia.rat.slow_lane`; only a reduced row that needs more
//!   than 127 bits raises the overflow marker.
//! * **Backtracking** is stack-shaped: [`IncrementalSimplex::retract_to`]
//!   unwinds the bound trail to a given assertion count (the CDCL engine
//!   keeps assertions aligned with its theory-literal trail).  Retraction
//!   only ever *relaxes* bounds, so the current assignment stays
//!   consistent and nothing is recomputed.
//!
//! Infeasibility is reported with a **Farkas core**: the tags of an
//! irreducible jointly-infeasible set of asserted bounds (a stuck row's
//! violated bound plus the blocking bounds of its nonbasics).  Tags are
//! caller-chosen `u32`s — the CDCL engine passes theory-trail indices, so
//! cores translate directly into learned clauses.
//!
//! The one-shot [`check_feasibility`] / [`check_feasibility_with_core`]
//! entry points survive as thin wrappers (register + assert + check on a
//! fresh tableau).
//!
//! Strict inequalities and disequalities never reach this layer: the
//! integer setting lets the upper layers rewrite `<`/`>` into `≤`/`≥`
//! with a shifted constant, and `≠` is split disjunctively.

use std::collections::{BTreeMap, HashMap};

use crate::bigint::BigInt;
use crate::rational::{gcd, overflow_panic, Rat};
use crate::term::{LinExpr, Var};

/// Pivots performed across every tableau in the process (obs counter; the
/// per-engine number is derived from a `CounterScope` over this counter).
static OBS_PIVOTS: std::sync::LazyLock<posr_obs::Counter> =
    std::sync::LazyLock::new(|| posr_obs::counter("simplex.pivots"));

/// Rows actually visited through the occurrence index (process-wide).
static OBS_ROW_TOUCHES: std::sync::LazyLock<posr_obs::Counter> =
    std::sync::LazyLock::new(|| posr_obs::counter("simplex.row_touches"));

/// The process-wide pivot counter (scopes attach to it for per-solve
/// attribution).
pub fn obs_pivot_counter() -> posr_obs::Counter {
    *OBS_PIVOTS
}

/// The process-wide sparse row-touch counter.
pub fn obs_row_touch_counter() -> posr_obs::Counter {
    *OBS_ROW_TOUCHES
}

/// Relation of a simplex constraint `expr ⋈ bound`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// `expr ≤ bound`
    Le,
    /// `expr ≥ bound`
    Ge,
    /// `expr = bound`
    Eq,
}

/// A constraint handed to the simplex: `expr ⋈ 0` with `⋈ ∈ {≤, ≥, =}`.
/// The constant part of `expr` is honoured (it is moved to the bound side).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimplexConstraint {
    /// Linear expression (its constant part becomes part of the bound).
    pub expr: LinExpr,
    /// Relation against zero.
    pub rel: Rel,
}

/// Result of a feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexResult {
    /// The constraints are satisfiable over ℚ; a witness assignment for every
    /// variable occurring in the constraints is returned.
    Feasible(BTreeMap<Var, Rat>),
    /// The constraints are unsatisfiable over ℚ (hence also over ℤ).
    Infeasible,
}

impl SimplexResult {
    /// Returns `true` if feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, SimplexResult::Feasible(_))
    }
}

/// Checks rational feasibility of a conjunction of constraints.
///
/// One-shot convenience over [`IncrementalSimplex`]: register and assert
/// every constraint on a fresh tableau, then run the check loop.
pub fn check_feasibility(constraints: &[SimplexConstraint]) -> SimplexResult {
    match check_feasibility_with_core(constraints) {
        Ok(model) => SimplexResult::Feasible(model),
        Err(_) => SimplexResult::Infeasible,
    }
}

/// [`check_feasibility`] with a Farkas-style core on infeasibility: the
/// `Err` value indexes an irreducible infeasible subset of `constraints`.
pub fn check_feasibility_with_core(
    constraints: &[SimplexConstraint],
) -> Result<BTreeMap<Var, Rat>, Vec<usize>> {
    let mut simplex = IncrementalSimplex::new();
    for (i, c) in constraints.iter().enumerate() {
        if let Err(core) = simplex.assert_constraint(c, i as u32) {
            return Err(core_to_indices(core));
        }
    }
    match simplex.check() {
        Ok(()) => Ok(simplex.model()),
        Err(core) => Err(core_to_indices(core)),
    }
}

fn core_to_indices(core: Vec<u32>) -> Vec<usize> {
    let mut out: Vec<usize> = core.into_iter().map(|t| t as usize).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The tableau variable that owns a canonicalised constraint form.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Owner {
    /// The form had no variables; `true` iff the (constant) constraint
    /// evaluated to a satisfied comparison at preparation time is decided
    /// per bound at assert time instead — this variant only records that
    /// there is nothing to assert on.
    Constant,
    /// Internal tableau variable (problem column or slack).
    Tableau(usize),
}

/// A constraint pre-compiled against a tableau: the owning variable plus
/// the bound(s) it asserts, ready for O(1) assertion.  Produced by
/// [`IncrementalSimplex::prepare`]; the CDCL engine caches one per theory
/// literal at registration time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PreparedBound {
    owner: Owner,
    /// `owner ≥ lo` to assert (already sign/scale-normalised).
    lo: Option<Rat>,
    /// `owner ≤ hi` to assert.
    hi: Option<Rat>,
    /// For `Owner::Constant`: whether the constraint holds.
    const_sat: bool,
}

/// One undone bound change: which side of which variable, and the value
/// (with its tag) it had before.
struct UndoEntry {
    var: usize,
    upper: bool,
    old: Option<(Rat, u32)>,
}

/// A flat sparse row over one denominator: `x = Σ (coeffs[i] / den)·x_{cols[i]}`
/// with columns strictly ascending, numerators nonzero, `den > 0` and
/// `gcd(den, coeffs…) = 1`.  Every numerator and the denominator fit in
/// 127 bits (never `i128::MIN`), so negation cannot overflow.  Rows are
/// recycled through the tableau's arena instead of being reallocated per
/// pivot.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SparseRow {
    cols: Vec<u32>,
    coeffs: Vec<i128>,
    den: i128,
}

impl Default for SparseRow {
    fn default() -> SparseRow {
        SparseRow {
            cols: Vec::new(),
            coeffs: Vec::new(),
            den: 1,
        }
    }
}

impl SparseRow {
    fn clear(&mut self) {
        self.cols.clear();
        self.coeffs.clear();
        self.den = 1;
    }

    fn len(&self) -> usize {
        self.cols.len()
    }

    /// Numerator of `col`, by binary search.
    fn get(&self, col: usize) -> Option<i128> {
        self.cols
            .binary_search(&(col as u32))
            .ok()
            .map(|i| self.coeffs[i])
    }

    /// The rational coefficient `num / den` of a numerator of this row.
    fn rat(&self, num: i128) -> Rat {
        if self.den == 1 {
            Rat::from_int(num)
        } else {
            Rat::new(num, self.den)
        }
    }

    /// Appends an entry; `col` must exceed every column already present.
    fn push(&mut self, col: usize, num: i128) {
        debug_assert!(self.cols.last().is_none_or(|&c| c < col as u32));
        debug_assert!(num != 0);
        self.cols.push(col as u32);
        self.coeffs.push(num);
    }

    /// `(column, numerator)` pairs in ascending column order.
    fn iter(&self) -> impl Iterator<Item = (usize, i128)> + '_ {
        self.cols
            .iter()
            .zip(&self.coeffs)
            .map(|(&c, &a)| (c as usize, a))
    }

    /// Divides the denominator and the numerators by their content.  The
    /// gcd scan stops at the first unit, which on tableau rows is almost
    /// always within the first entries.
    fn normalise_content(&mut self) {
        let mut g = self.den;
        for &c in &self.coeffs {
            if g == 1 {
                return;
            }
            g = gcd(g, c);
        }
        if g > 1 {
            self.den /= g;
            for c in &mut self.coeffs {
                *c /= g;
            }
        }
    }
}

/// `a·b + c` when it fits in 127 bits (so the result negates safely).
#[inline]
fn mul_add(a: i128, b: i128, c: i128) -> Option<i128> {
    a.checked_mul(b)?.checked_add(c).filter(|&v| v != i128::MIN)
}

/// A slow-lane value back in machine range, or the overflow marker when
/// it needs more than 127 bits.
fn fit127(v: &BigInt) -> i128 {
    match v.to_i128() {
        Some(x) if x != i128::MIN => x,
        _ => overflow_panic(),
    }
}

/// The exact substituted entry `c_ok·m + f·e_k`.
fn exact_entry(c_ok: i128, m: i128, f: i128, e_k: i128) -> BigInt {
    BigInt::from_i128(c_ok)
        .mul(&BigInt::from_i128(m))
        .add(&BigInt::from_i128(f).mul(&BigInt::from_i128(e_k)))
}

/// The slow lane of a row merge that overflowed `i128`: recomputes the
/// entries of the columns `out` already holds, and the denominator
/// `D_old·m`, exactly in `BigInt`, divides them by their content and
/// lands them back in machine range.  Only a reduced row that needs more
/// than 127 bits raises the overflow marker.
#[cold]
fn substitute_exact(old: &SparseRow, m: i128, f: i128, sub: &SparseRow, out: &mut SparseRow) {
    crate::rational::OBS_SLOW_LANE.incr();
    let den = BigInt::from_i128(old.den).mul(&BigInt::from_i128(m));
    let entries: Vec<BigInt> = out
        .cols
        .iter()
        .map(|&k| {
            let k = k as usize;
            exact_entry(old.get(k).unwrap_or(0), m, f, sub.get(k).unwrap_or(0))
        })
        .collect();
    let one = BigInt::from_i128(1);
    let mut content = den.clone();
    for e in &entries {
        if content == one {
            break;
        }
        content = content.gcd(e);
    }
    out.den = fit127(&den.divrem(&content).0);
    for (c, e) in out.coeffs.iter_mut().zip(&entries) {
        *c = fit127(&e.divrem(&content).0);
    }
}

/// Drops `owner` from one column's occurrence list (order is not
/// significant, so the removal is a swap).
fn remove_occ(occ: &mut Vec<u32>, owner: usize) {
    if let Some(pos) = occ.iter().position(|&o| o == owner as u32) {
        occ.swap_remove(pos);
    }
}

/// The persistent, backtrackable general-simplex tableau (see the module
/// docs for the architecture).
pub struct IncrementalSimplex {
    /// Problem variable → internal tableau index.
    var_cols: HashMap<Var, usize>,
    /// Internal index → problem variable (`None` for slacks).
    col_vars: Vec<Option<Var>>,
    /// Canonical form → slack internal index.
    forms: HashMap<LinExpr, usize>,
    /// `rows[b]` is `Some(row)` iff variable `b` is basic, with
    /// `x_b = Σ row[n]·x_n` over the nonbasic variables `n`.
    rows: Vec<Option<SparseRow>>,
    /// Occurrence index: `col_rows[j]` lists the basic variables whose
    /// rows contain column `j` (unordered, duplicate-free).
    col_rows: Vec<Vec<u32>>,
    /// Arena of retired rows, recycled by the next pivot or slack.
    row_pool: Vec<SparseRow>,
    /// Lower bounds per variable, tagged with the asserting constraint.
    lower: Vec<Option<(Rat, u32)>>,
    /// Upper bounds per variable, tagged with the asserting constraint.
    upper: Vec<Option<(Rat, u32)>>,
    /// Current assignment per variable (kept consistent at all times:
    /// every basic value equals its row evaluated at the nonbasics).
    beta: Vec<Rat>,
    /// Undo trail of bound changes.
    undo: Vec<UndoEntry>,
    /// Per successful assertion: the undo-trail length before it.
    assert_marks: Vec<usize>,
    /// Candidate bound violations: every basic variable whose assignment
    /// or bounds moved since it was last verified in-bounds.  A superset
    /// of the actually-violating basics (violations only arise from those
    /// events), so `check` scans this set instead of the whole column
    /// range.
    suspect: Vec<u32>,
    /// `suspect_flag[v]` ⇔ `v` is in `suspect` (dedup guard).
    suspect_flag: Vec<bool>,
    /// Cumulative pivot count (never reset; the engine reads deltas).
    pivots: u64,
    /// Rows visited through the occurrence index (cumulative).
    row_touches: u64,
    /// High-water marks of what `flush_obs` already pushed to the
    /// process-wide counters.
    obs_pivots_flushed: u64,
    obs_touches_flushed: u64,
}

impl Default for IncrementalSimplex {
    fn default() -> IncrementalSimplex {
        IncrementalSimplex::new()
    }
}

impl IncrementalSimplex {
    /// An empty tableau.
    pub fn new() -> IncrementalSimplex {
        IncrementalSimplex {
            var_cols: HashMap::new(),
            col_vars: Vec::new(),
            forms: HashMap::new(),
            rows: Vec::new(),
            col_rows: Vec::new(),
            row_pool: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            beta: Vec::new(),
            undo: Vec::new(),
            assert_marks: Vec::new(),
            suspect: Vec::new(),
            suspect_flag: Vec::new(),
            pivots: 0,
            row_touches: 0,
            obs_pivots_flushed: 0,
            obs_touches_flushed: 0,
        }
    }

    /// Number of currently asserted constraints.
    pub fn num_asserted(&self) -> usize {
        self.assert_marks.len()
    }

    /// Cumulative structural pivots performed by [`IncrementalSimplex::check`].
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Cumulative rows visited through the occurrence index by assignment
    /// updates and pivots.
    pub fn row_touches(&self) -> u64 {
        self.row_touches
    }

    /// Number of tableau variables (problem columns plus slacks).
    pub fn num_tableau_vars(&self) -> usize {
        self.beta.len()
    }

    fn alloc_row(&mut self) -> SparseRow {
        match self.row_pool.pop() {
            Some(mut row) => {
                row.clear();
                row
            }
            None => SparseRow::default(),
        }
    }

    fn free_row(&mut self, row: SparseRow) {
        self.row_pool.push(row);
    }

    fn add_var(&mut self, problem: Option<Var>) -> usize {
        let idx = self.beta.len();
        self.col_vars.push(problem);
        self.rows.push(None);
        self.col_rows.push(Vec::new());
        self.lower.push(None);
        self.upper.push(None);
        self.beta.push(Rat::ZERO);
        self.suspect_flag.push(false);
        // approximate per-column tableau growth for the memory budget
        posr_obs::budget::charge_mem(160);
        idx
    }

    /// Queues `v` for re-verification by the next `check`.
    #[inline]
    fn mark_suspect(&mut self, v: usize) {
        if !self.suspect_flag[v] {
            self.suspect_flag[v] = true;
            self.suspect.push(v as u32);
        }
    }

    fn col_of(&mut self, v: Var) -> usize {
        if let Some(&c) = self.var_cols.get(&v) {
            return c;
        }
        let c = self.add_var(Some(v));
        self.var_cols.insert(v, c);
        c
    }

    /// The slack variable of a canonical form, creating it (and its
    /// definitional row, expressed over the *current* nonbasics) on first
    /// sight.  New slacks can be registered at any point of a session —
    /// basic variables in the form are substituted by their rows, and the
    /// slack's assignment is computed from the current one, so the tableau
    /// invariants hold immediately.
    fn slack_of(&mut self, form: &LinExpr) -> usize {
        if let Some(&s) = self.forms.get(form) {
            return s;
        }
        // cold path: accumulate in a map, then freeze into a sparse row
        let mut row: BTreeMap<usize, Rat> = BTreeMap::new();
        for (v, c) in form.terms() {
            let col = self.col_of(v);
            let coeff = Rat::from_int(c);
            match &self.rows[col] {
                Some(def) => {
                    for (j, a) in def.iter() {
                        let entry = row.entry(j).or_insert(Rat::ZERO);
                        *entry += coeff * def.rat(a);
                    }
                }
                None => {
                    let entry = row.entry(col).or_insert(Rat::ZERO);
                    *entry += coeff;
                }
            }
        }
        row.retain(|_, r| !r.is_zero());
        let mut value = Rat::ZERO;
        for (&j, &a) in &row {
            value += a * self.beta[j];
        }
        // clear the denominators by their lcm: each prime power of the lcm
        // is some entry's full denominator, whose numerator it cannot
        // divide, so the row's content is already 1
        let den = row.values().fold(1i128, |l, a| {
            mul_add(l / gcd(l, a.denom()), a.denom(), 0).unwrap_or_else(|| overflow_panic())
        });
        let mut frozen = self.alloc_row();
        frozen.den = den;
        for (&j, &a) in &row {
            let num = mul_add(a.numer(), den / a.denom(), 0).unwrap_or_else(|| overflow_panic());
            frozen.push(j, num);
        }
        let s = self.add_var(None);
        for &j in &frozen.cols {
            self.col_rows[j as usize].push(s as u32);
        }
        self.rows[s] = Some(frozen);
        self.beta[s] = value;
        self.forms.insert(form.clone(), s);
        s
    }

    /// Pre-compiles a constraint: canonicalises its form, registers the
    /// owning tableau variable (idempotent), and normalises the bound so
    /// assertion is a constant-time trail operation.
    pub fn prepare(&mut self, constraint: &SimplexConstraint) -> PreparedBound {
        let k = constraint.expr.constant_part();
        if constraint.expr.is_constant() {
            let const_sat = match constraint.rel {
                Rel::Le => k <= 0,
                Rel::Ge => k >= 0,
                Rel::Eq => k == 0,
            };
            return PreparedBound {
                owner: Owner::Constant,
                lo: None,
                hi: None,
                const_sat,
            };
        }
        // canonical form: coefficients divided by their gcd, first
        // coefficient positive, constant dropped
        let mut g: i128 = 0;
        let mut first_sign: i128 = 0;
        for (_, c) in constraint.expr.terms() {
            g = gcd(g, c);
            if first_sign == 0 {
                first_sign = if c > 0 { 1 } else { -1 };
            }
        }
        let scale = g * first_sign; // expr = scale · form + k
        let mut form = LinExpr::zero();
        for (v, c) in constraint.expr.terms() {
            form.add_term(v, c / scale);
        }
        // expr ⋈ 0  ⟺  form ⋈ −k/scale (relation flips when scale < 0)
        let bound = Rat::from_int(-k) / Rat::from_int(scale);
        let rel = match (constraint.rel, scale > 0) {
            (rel, true) => rel,
            (Rel::Le, false) => Rel::Ge,
            (Rel::Ge, false) => Rel::Le,
            (Rel::Eq, false) => Rel::Eq,
        };
        let owner = if form.num_terms() == 1 {
            // canonical single-term forms have coefficient 1: the problem
            // column itself owns the bound, no slack row is needed
            let v = form.variables().next().expect("single term");
            Owner::Tableau(self.col_of(v))
        } else {
            Owner::Tableau(self.slack_of(&form))
        };
        let (lo, hi) = match rel {
            Rel::Le => (None, Some(bound)),
            Rel::Ge => (Some(bound), None),
            Rel::Eq => (Some(bound), Some(bound)),
        };
        PreparedBound {
            owner,
            lo,
            hi,
            const_sat: true,
        }
    }

    /// Asserts a pre-compiled constraint under `tag`.  O(1): tightens the
    /// owner's interval (recording the old bound for backtracking) and, for
    /// a nonbasic owner, moves its value inside the new bound.  On an
    /// immediate contradiction (`lo > hi`) the state is left unchanged and
    /// the two clashing tags are returned.
    pub fn assert_prepared(&mut self, prepared: &PreparedBound, tag: u32) -> Result<(), Vec<u32>> {
        let mark = self.undo.len();
        let x = match prepared.owner {
            Owner::Constant => {
                if prepared.const_sat {
                    self.assert_marks.push(mark);
                    return Ok(());
                }
                return Err(vec![tag]);
            }
            Owner::Tableau(x) => x,
        };
        if let Some(lo) = prepared.lo {
            if let Some((hi, hi_tag)) = self.upper[x] {
                if lo > hi {
                    return Err(vec![hi_tag, tag]);
                }
            }
            if self.lower[x].is_none_or(|(cur, _)| lo > cur) {
                self.undo.push(UndoEntry {
                    var: x,
                    upper: false,
                    old: self.lower[x],
                });
                self.lower[x] = Some((lo, tag));
                if self.rows[x].is_none() {
                    if self.beta[x] < lo {
                        self.update(x, lo);
                    }
                } else if self.beta[x] < lo {
                    self.mark_suspect(x);
                }
            }
        }
        if let Some(hi) = prepared.hi {
            if let Some((lo, lo_tag)) = self.lower[x] {
                if hi < lo {
                    // roll back a lower bound this same assertion recorded
                    self.unwind_to(mark);
                    return Err(vec![lo_tag, tag]);
                }
            }
            if self.upper[x].is_none_or(|(cur, _)| hi < cur) {
                self.undo.push(UndoEntry {
                    var: x,
                    upper: true,
                    old: self.upper[x],
                });
                self.upper[x] = Some((hi, tag));
                if self.rows[x].is_none() {
                    if self.beta[x] > hi {
                        self.update(x, hi);
                    }
                } else if self.beta[x] > hi {
                    self.mark_suspect(x);
                }
            }
        }
        self.assert_marks.push(mark);
        Ok(())
    }

    /// [`IncrementalSimplex::prepare`] + [`IncrementalSimplex::assert_prepared`]
    /// for callers without a preparation cache.
    pub fn assert_constraint(
        &mut self,
        constraint: &SimplexConstraint,
        tag: u32,
    ) -> Result<(), Vec<u32>> {
        let prepared = self.prepare(constraint);
        self.assert_prepared(&prepared, tag)
    }

    /// Retracts assertions (most recent first) until at most `n` remain,
    /// restoring the bounds they tightened.  Bounds only relax, so the
    /// current assignment — and the basis — stay valid.
    pub fn retract_to(&mut self, n: usize) {
        while self.assert_marks.len() > n {
            let mark = self.assert_marks.pop().expect("non-empty");
            self.unwind_to(mark);
        }
    }

    fn unwind_to(&mut self, mark: usize) {
        while self.undo.len() > mark {
            let entry = self.undo.pop().expect("non-empty");
            if entry.upper {
                self.upper[entry.var] = entry.old;
            } else {
                self.lower[entry.var] = entry.old;
            }
        }
    }

    fn is_basic(&self, v: usize) -> bool {
        self.rows[v].is_some()
    }

    fn violates_lower(&self, v: usize) -> bool {
        matches!(self.lower[v], Some((l, _)) if self.beta[v] < l)
    }

    fn violates_upper(&self, v: usize) -> bool {
        matches!(self.upper[v], Some((u, _)) if self.beta[v] > u)
    }

    /// Sets nonbasic `n` to `v`, propagating the delta into the basics
    /// whose rows contain `n` (straight off the occurrence index).
    fn update(&mut self, n: usize, v: Rat) {
        let delta = v - self.beta[n];
        self.beta[n] = v;
        if delta.is_zero() {
            return;
        }
        self.row_touches += self.col_rows[n].len() as u64;
        for idx in 0..self.col_rows[n].len() {
            let b = self.col_rows[n][idx] as usize;
            let a_bn = self.coeff_in(b, n);
            self.beta[b] += a_bn * delta;
            self.mark_suspect(b);
        }
    }

    /// The rational coefficient of nonbasic `n` in the row of basic `b`,
    /// which the occurrence index says contains it.
    fn coeff_in(&self, b: usize, n: usize) -> Rat {
        let row = self.rows[b].as_ref().expect("occurrence owner is basic");
        row.rat(row.get(n).expect("indexed row contains the column"))
    }

    /// Pivot basic variable `b` with nonbasic variable `n` and set `b` to `v`.
    fn pivot_and_update(&mut self, b: usize, n: usize, v: Rat) {
        let row_b = self.rows[b].take().expect("b must be basic");
        let c_bn = row_b.get(n).expect("n must occur in the row of b");
        let theta = (v - self.beta[b]) / row_b.rat(c_bn);
        self.beta[b] = v;
        self.beta[n] += theta;
        // n enters the basis with a moved assignment: it may overshoot its
        // other bound, which is exactly what keeps the check loop going
        self.mark_suspect(n);
        self.row_touches += self.col_rows[n].len() as u64;
        for idx in 0..self.col_rows[n].len() {
            let other = self.col_rows[n][idx] as usize;
            if other == b {
                continue; // b's value was already set to the target
            }
            let a_on = self.coeff_in(other, n);
            self.beta[other] += a_on * theta;
            self.mark_suspect(other);
        }
        self.pivot(b, n, row_b, c_bn);
        self.pivots += 1;
    }

    /// Structural pivot: `b` leaves the basis, `n` enters it.  Touches only
    /// the rows the occurrence index lists for `n`; `row_b` is consumed and
    /// recycled through the arena.
    fn pivot(&mut self, b: usize, n: usize, row_b: SparseRow, c_bn: i128) {
        // b's row disappears: drop b from the occurrence lists of its
        // columns first, so the index never points at a missing row (this
        // also removes b from col_rows[n] before it is drained below)
        for (k, _) in row_b.iter() {
            remove_occ(&mut self.col_rows[k], b);
        }
        // |c_bn|·n = ±D_b·b ∓ Σ_{k≠n} c_bk·k — a sign flip of b's row, whose
        // content stays 1; build it sorted, merging the new column b into
        // position
        let sign = c_bn.signum();
        let own = sign * row_b.den;
        let mut new_row_n = self.alloc_row();
        new_row_n.den = c_bn.abs();
        let mut b_inserted = false;
        for (k, c_bk) in row_b.iter() {
            if k == n {
                continue;
            }
            if !b_inserted && b < k {
                new_row_n.push(b, own);
                b_inserted = true;
            }
            new_row_n.push(k, -sign * c_bk);
        }
        if !b_inserted {
            new_row_n.push(b, own);
        }
        // substitute n in exactly the rows that contain it
        let occ = std::mem::take(&mut self.col_rows[n]);
        self.row_touches += occ.len() as u64;
        for &o in &occ {
            let other = o as usize;
            debug_assert_ne!(other, b, "b was removed from the index above");
            let old = self.rows[other].take().expect("occurrence owner is basic");
            let merged = self.substitute(other, &old, n, &new_row_n);
            self.free_row(old);
            self.rows[other] = Some(merged);
        }
        // n becomes basic; register its row in the occurrence index
        for (k, _) in new_row_n.iter() {
            self.col_rows[k].push(n as u32);
        }
        self.rows[n] = Some(new_row_n);
        self.free_row(row_b);
    }

    /// `old` with `drop_col` replaced by `sub` (the entering variable's
    /// row), as a sorted two-pointer merge over integers: with
    /// `g = gcd(D_sub, c_on)`, `m = D_sub / g` and `f = c_on / g`, each
    /// entry is `c_ok·m + f·e_k` over the denominator `D_old·m`, followed
    /// by a content pass when that denominator is not 1.  Maintains the
    /// occurrence index for `owner`: fill-in columns gain `owner`,
    /// cancelled columns lose it (`drop_col` itself was already drained by
    /// the caller).
    fn substitute(
        &mut self,
        owner: usize,
        old: &SparseRow,
        drop_col: usize,
        sub: &SparseRow,
    ) -> SparseRow {
        let c_on = old.get(drop_col).expect("indexed row contains the column");
        let g = if sub.den == 1 { 1 } else { gcd(sub.den, c_on) };
        let (m, f) = (sub.den / g, c_on / g);
        let mut out = self.alloc_row();
        // an entry past 127 bits gets a placeholder and sends the whole
        // row to the exact recomputation below
        let mut overflowed = false;
        let mut fit = |v: Option<i128>| {
            v.unwrap_or_else(|| {
                overflowed = true;
                1
            })
        };
        let scale = |c: i128| if m == 1 { Some(c) } else { mul_add(c, m, 0) };
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            let ci = old.cols.get(i).copied();
            let cj = sub.cols.get(j).copied();
            let (take_old, take_sub) = match (ci, cj) {
                (Some(a), Some(b)) => (a <= b, b <= a),
                (Some(_), None) => (true, false),
                (None, Some(_)) => (false, true),
                (None, None) => break,
            };
            if take_old && take_sub {
                let k = ci.expect("both present") as usize;
                debug_assert_ne!(k, drop_col, "sub never contains the dropped column");
                let (c_ok, e_k) = (old.coeffs[i], sub.coeffs[j]);
                let v = scale(c_ok).and_then(|s| mul_add(f, e_k, s));
                // a cancellation is decided exactly even past 127 bits, so
                // the index stays right on the slow lane too
                if v == Some(0) || v.is_none() && exact_entry(c_ok, m, f, e_k).is_zero() {
                    remove_occ(&mut self.col_rows[k], owner);
                } else {
                    out.push(k, fit(v));
                }
                i += 1;
                j += 1;
            } else if take_old {
                let k = ci.expect("old present") as usize;
                if k != drop_col {
                    out.push(k, fit(scale(old.coeffs[i])));
                }
                i += 1;
            } else {
                let k = cj.expect("sub present") as usize;
                // fill-in: owner's row gains column k
                out.push(k, fit(mul_add(f, sub.coeffs[j], 0)));
                self.col_rows[k].push(owner as u32);
                j += 1;
            }
        }
        match mul_add(old.den, m, 0) {
            Some(den) if !overflowed => {
                out.den = den;
                if den != 1 {
                    out.normalise_content();
                }
            }
            _ => substitute_exact(old, m, f, sub, &mut out),
        }
        out
    }

    /// Runs the check loop (Bland's rule for termination), warm-starting
    /// from the current basis and assignment.  `Err` carries the tags of a
    /// Farkas certificate — an irreducible jointly-infeasible subset of the
    /// asserted bounds (the stuck row's violated bound plus the blocking
    /// bounds of its nonbasics).
    pub fn check(&mut self) -> Result<(), Vec<u32>> {
        self.check_budgeted(u64::MAX)
            .expect("an unbounded check always reaches a verdict")
    }

    /// [`IncrementalSimplex::check`] with a pivot budget: `None` means the
    /// budget ran out before a verdict.  The tableau is left in a
    /// consistent mid-loop state (invariants hold, remaining violations
    /// stay queued in the suspect set), so a later call resumes the pivot
    /// sequence where this one stopped — the CDCL leaf check slices its
    /// pivots this way to poll for cancellation between slices.
    pub fn check_budgeted(&mut self, max_pivots: u64) -> Option<Result<(), Vec<u32>>> {
        let _span = posr_obs::span!("simplex", "simplex.pivot-session");
        // chaos-test injection point: a leaf check may panic (unwinds to
        // the entry-point catch), stall, or simulate a coefficient
        // overflow exactly where the real ones happen
        if let Some(posr_obs::FaultKind::Overflow) = posr_obs::fault::fire(
            "simplex.check",
            &[
                posr_obs::FaultKind::Panic,
                posr_obs::FaultKind::Delay,
                posr_obs::FaultKind::Overflow,
            ],
        ) {
            crate::rational::overflow_panic();
        }
        let result = self.check_loop(max_pivots);
        self.flush_obs();
        result
    }

    /// Pushes the counter deltas accumulated since the last flush to the
    /// process-wide obs counters (pivots change only inside `check`, but
    /// row touches also accrue in assert-time `update`s — the watermark
    /// catches those at the next check).
    fn flush_obs(&mut self) {
        OBS_PIVOTS.add(self.pivots - self.obs_pivots_flushed);
        self.obs_pivots_flushed = self.pivots;
        OBS_ROW_TOUCHES.add(self.row_touches - self.obs_touches_flushed);
        self.obs_touches_flushed = self.row_touches;
    }

    fn check_loop(&mut self, max_pivots: u64) -> Option<Result<(), Vec<u32>>> {
        let mut budget = max_pivots;
        loop {
            // smallest basic variable violating one of its bounds — drawn
            // from the suspect set, which is a superset of the violating
            // basics (so the minimum over it is the true Bland minimum, and
            // the pivot sequence matches a dense scan exactly); verified
            // in-bounds suspects are dropped until an assignment or bound
            // event re-queues them
            let mut min_violating: Option<usize> = None;
            let mut i = 0;
            while i < self.suspect.len() {
                let v = self.suspect[i] as usize;
                if self.is_basic(v) && (self.violates_lower(v) || self.violates_upper(v)) {
                    if min_violating.is_none_or(|m| v < m) {
                        min_violating = Some(v);
                    }
                    i += 1;
                } else {
                    self.suspect_flag[v] = false;
                    self.suspect.swap_remove(i);
                }
            }
            let Some(b) = min_violating else {
                return Some(Ok(()));
            };
            if budget == 0 {
                return None;
            }
            budget -= 1;
            debug_assert_eq!(
                Some(b),
                (0..self.beta.len()).find(
                    |&v| self.is_basic(v) && (self.violates_lower(v) || self.violates_upper(v))
                ),
                "suspect set must select the dense Bland minimum"
            );
            let lower_violation = self.violates_lower(b);
            let target = if lower_violation {
                self.lower[b].expect("violated lower bound exists").0
            } else {
                self.upper[b].expect("violated upper bound exists").0
            };
            // Bland's rule: the *smallest* suitable nonbasic — rows keep
            // their columns sorted, so the first hit is the smallest.  A
            // lower violation needs β(b) to rise: a > 0 nonbasics must be
            // free to increase (below their upper bound), a < 0 free to
            // decrease — and dually for an upper violation.
            let row = self.rows[b].as_ref().expect("basic");
            let candidate = row
                .iter()
                .find(|&(n, c)| {
                    debug_assert!(!self.is_basic(n));
                    if lower_violation == (c > 0) {
                        self.upper[n].is_none_or(|(u, _)| self.beta[n] < u)
                    } else {
                        self.lower[n].is_none_or(|(l, _)| self.beta[n] > l)
                    }
                })
                .map(|(n, _)| n);
            match candidate {
                None => return Some(Err(self.conflict_core(b, lower_violation))),
                Some(n) => self.pivot_and_update(b, n, target),
            }
        }
    }

    /// The bound tags of the Farkas certificate at a stuck row: when basic
    /// `b` violates a bound and no nonbasic in its row can move, every
    /// nonbasic is pinned at its blocking bound — those bounds plus the
    /// violated one are jointly infeasible, and the set is irreducible by
    /// construction.
    fn conflict_core(&self, b: usize, lower_violation: bool) -> Vec<u32> {
        let row = self.rows[b].as_ref().expect("basic");
        let mut core = Vec::with_capacity(row.len() + 1);
        let own = if lower_violation {
            self.lower[b].expect("violated bound").1
        } else {
            self.upper[b].expect("violated bound").1
        };
        core.push(own);
        for (n, c) in row.iter() {
            // lower violation needs β(b) to rise: c > 0 nonbasics are
            // blocked at their upper bound, c < 0 at their lower (and
            // dually for an upper violation)
            let blocking_upper = lower_violation == (c > 0);
            let tag = if blocking_upper {
                self.upper[n].expect("blocking bound").1
            } else {
                self.lower[n].expect("blocking bound").1
            };
            core.push(tag);
        }
        core.sort_unstable();
        core.dedup();
        core
    }

    /// The current rational assignment of the registered problem variables.
    pub fn model(&self) -> BTreeMap<Var, Rat> {
        let mut out = BTreeMap::new();
        for (&var, &col) in &self.var_cols {
            out.insert(var, self.beta[col]);
        }
        out
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

    fn check_model(constraints: &[SimplexConstraint], model: &BTreeMap<Var, Rat>) {
        for c in constraints {
            let mut value = Rat::from_int(c.expr.constant_part());
            for (v, coeff) in c.expr.terms() {
                value += Rat::from_int(coeff) * model.get(&v).copied().unwrap_or(Rat::ZERO);
            }
            let ok = match c.rel {
                Rel::Le => value <= Rat::ZERO,
                Rel::Ge => value >= Rat::ZERO,
                Rel::Eq => value == Rat::ZERO,
            };
            assert!(ok, "model violates constraint {:?} (value {value})", c.rel);
        }
    }

    #[test]
    fn simple_feasible_system() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // x + y = 5, x >= 2, y >= 2
        let constraints = vec![
            eq(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(5)),
            ge(LinExpr::var(x) - LinExpr::constant(2)),
            ge(LinExpr::var(y) - LinExpr::constant(2)),
        ];
        match check_feasibility(&constraints) {
            SimplexResult::Feasible(m) => check_model(&constraints, &m),
            SimplexResult::Infeasible => panic!("should be feasible"),
        }
    }

    #[test]
    fn simple_infeasible_system() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        // x >= 3 and x <= 2
        let constraints = vec![
            ge(LinExpr::var(x) - LinExpr::constant(3)),
            le(LinExpr::var(x) - LinExpr::constant(2)),
        ];
        assert_eq!(check_feasibility(&constraints), SimplexResult::Infeasible);
    }

    #[test]
    fn infeasible_needs_combination() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // x + y >= 10, x <= 3, y <= 3
        let constraints = vec![
            ge(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(10)),
            le(LinExpr::var(x) - LinExpr::constant(3)),
            le(LinExpr::var(y) - LinExpr::constant(3)),
        ];
        assert_eq!(check_feasibility(&constraints), SimplexResult::Infeasible);
    }

    #[test]
    fn rational_solution_found() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        // 2x = 1
        let constraints = vec![eq(LinExpr::scaled_var(x, 2) - LinExpr::constant(1))];
        match check_feasibility(&constraints) {
            SimplexResult::Feasible(m) => {
                assert_eq!(m[&x], Rat::new(1, 2));
            }
            SimplexResult::Infeasible => panic!("should be feasible"),
        }
    }

    #[test]
    fn equalities_propagate() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let z = pool.fresh("z");
        // x = y, y = z, x + y + z = 9 -> all 3
        let constraints = vec![
            eq(LinExpr::var(x) - LinExpr::var(y)),
            eq(LinExpr::var(y) - LinExpr::var(z)),
            eq(LinExpr::var(x) + LinExpr::var(y) + LinExpr::var(z) - LinExpr::constant(9)),
        ];
        match check_feasibility(&constraints) {
            SimplexResult::Feasible(m) => {
                check_model(&constraints, &m);
                assert_eq!(m[&x], Rat::from_int(3));
            }
            SimplexResult::Infeasible => panic!("should be feasible"),
        }
    }

    #[test]
    fn constant_contradiction() {
        // 0 >= 1 expressed as an expression with no variables
        let constraints = vec![ge(LinExpr::constant(-1))];
        assert_eq!(check_feasibility(&constraints), SimplexResult::Infeasible);
        let constraints = vec![ge(LinExpr::constant(1))];
        assert!(check_feasibility(&constraints).is_feasible());
    }

    #[test]
    fn larger_chain_is_feasible() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..20).map(|i| pool.fresh(&format!("x{i}"))).collect();
        // x0 >= 1, x_{i+1} >= x_i + 1, x_19 <= 100
        let mut constraints = vec![ge(LinExpr::var(vars[0]) - LinExpr::constant(1))];
        for w in vars.windows(2) {
            constraints.push(ge(LinExpr::var(w[1])
                - LinExpr::var(w[0])
                - LinExpr::constant(1)));
        }
        constraints.push(le(LinExpr::var(vars[19]) - LinExpr::constant(100)));
        match check_feasibility(&constraints) {
            SimplexResult::Feasible(m) => check_model(&constraints, &m),
            SimplexResult::Infeasible => panic!("should be feasible"),
        }
        // tightening the last bound to 10 makes it infeasible
        constraints.pop();
        constraints.push(le(LinExpr::var(vars[19]) - LinExpr::constant(10)));
        assert_eq!(check_feasibility(&constraints), SimplexResult::Infeasible);
    }

    #[test]
    fn atoms_sharing_a_form_share_a_tableau_variable() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let mut simplex = IncrementalSimplex::new();
        // four scalings/shifts of the same form x + y: one slack variable
        simplex.prepare(&le(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(3)));
        simplex.prepare(&ge(
            LinExpr::scaled_var(x, 2) + LinExpr::scaled_var(y, 2) - LinExpr::constant(8)
        ));
        simplex.prepare(&le(LinExpr::zero() - LinExpr::var(x) - LinExpr::var(y)));
        simplex.prepare(&eq(LinExpr::var(x) + LinExpr::var(y)));
        // two problem columns + one slack
        assert_eq!(simplex.num_tableau_vars(), 3);
    }

    #[test]
    fn assert_retract_roundtrip_restores_feasibility() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let mut simplex = IncrementalSimplex::new();
        simplex
            .assert_constraint(
                &eq(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(5)),
                0,
            )
            .unwrap();
        simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(2)), 1)
            .unwrap();
        assert!(simplex.check().is_ok());
        let base = simplex.num_asserted();
        // x + y = 5 ∧ x ≥ 2 ∧ y ≥ 4 is infeasible
        simplex
            .assert_constraint(&ge(LinExpr::var(y) - LinExpr::constant(4)), 2)
            .unwrap();
        let core = simplex.check().expect_err("infeasible");
        assert!(
            core.contains(&2),
            "core {core:?} must involve the new bound"
        );
        simplex.retract_to(base);
        assert!(simplex.check().is_ok(), "retraction restores feasibility");
        check_model(
            &[
                eq(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(5)),
                ge(LinExpr::var(x) - LinExpr::constant(2)),
            ],
            &simplex.model(),
        );
    }

    #[test]
    fn immediate_bound_clash_returns_both_tags() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let mut simplex = IncrementalSimplex::new();
        simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(3)), 7)
            .unwrap();
        let err = simplex
            .assert_constraint(&le(LinExpr::var(x) - LinExpr::constant(2)), 9)
            .expect_err("clashing bounds");
        assert_eq!(err.len(), 2);
        assert!(err.contains(&7) && err.contains(&9));
        // the failed assertion left no trace
        assert_eq!(simplex.num_asserted(), 1);
        assert!(simplex.check().is_ok());
    }

    #[test]
    fn retraction_unwinds_in_order() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let mut simplex = IncrementalSimplex::new();
        simplex.assert_constraint(&ge(LinExpr::var(x)), 0).unwrap();
        simplex
            .assert_constraint(&le(LinExpr::var(x) - LinExpr::constant(5)), 1)
            .unwrap();
        assert!(simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(9)), 2)
            .is_err());
        // retracting to the current count keeps every live bound
        simplex.retract_to(2);
        assert!(simplex.check().is_ok());
        assert!(simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(9)), 3)
            .is_err());
        simplex.retract_to(1);
        assert!(simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(9)), 4)
            .is_ok());
        assert!(simplex.check().is_ok());
        assert!(simplex.model()[&x] >= Rat::from_int(9));
    }

    #[test]
    fn long_chain_counts_row_touches_through_the_index() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..40).map(|i| pool.fresh(&format!("c{i}"))).collect();
        let mut simplex = IncrementalSimplex::new();
        let mut tag = 0u32;
        simplex
            .assert_constraint(&ge(LinExpr::var(vars[0]) - LinExpr::constant(1)), tag)
            .unwrap();
        for w in vars.windows(2) {
            tag += 1;
            simplex
                .assert_constraint(
                    &ge(LinExpr::var(w[1]) - LinExpr::var(w[0]) - LinExpr::constant(1)),
                    tag,
                )
                .unwrap();
        }
        assert!(simplex.check().is_ok());
        assert!(simplex.pivots() > 0);
        assert!(simplex.row_touches() > 0);
        check_invariants(&simplex);
    }

    /// Structural invariants of the sparse layout: rows sorted with
    /// nonzero coefficients over nonbasic columns, the occurrence index
    /// exact (no stale or missing entries, no duplicates), and every basic
    /// value equal to its row evaluated at the nonbasics.
    fn check_invariants(s: &IncrementalSimplex) {
        for (b, row) in s.rows.iter().enumerate() {
            let Some(row) = row else { continue };
            assert!(
                row.cols.windows(2).all(|w| w[0] < w[1]),
                "row of {b} not strictly sorted"
            );
            assert!(row.den > 0, "row of {b} has denominator {}", row.den);
            let content = row.coeffs.iter().fold(row.den, |g, &c| gcd(g, c));
            assert_eq!(content, 1, "row of {b} has content {content}");
            let mut value = Rat::ZERO;
            for (k, c) in row.iter() {
                assert!(c != 0, "zero coefficient in row of {b}");
                assert!(s.rows[k].is_none(), "row of {b} mentions basic {k}");
                assert!(
                    s.col_rows[k].contains(&(b as u32)),
                    "occurrence index misses {b} in column {k}"
                );
                value += row.rat(c) * s.beta[k];
            }
            assert_eq!(value, s.beta[b], "β inconsistent at basic {b}");
        }
        for (k, occ) in s.col_rows.iter().enumerate() {
            let mut sorted = occ.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), occ.len(), "duplicate occurrence in col {k}");
            for &b in occ {
                let row = s.rows[b as usize]
                    .as_ref()
                    .unwrap_or_else(|| panic!("stale occurrence: {b} not basic (col {k})"));
                assert!(
                    row.get(k).is_some(),
                    "stale occurrence: row of {b} lacks col {k}"
                );
            }
        }
        // the suspect set over-approximates the violating basics, and its
        // dedup flags agree with the list
        for v in 0..s.beta.len() {
            if s.is_basic(v) && (s.violates_lower(v) || s.violates_upper(v)) {
                assert!(s.suspect_flag[v], "violating basic {v} not suspect");
            }
            assert_eq!(
                s.suspect_flag[v],
                s.suspect.contains(&(v as u32)),
                "suspect flag out of sync at {v}"
            );
        }
    }

    /// The retired dense `BTreeMap` tableau, kept verbatim as the
    /// differential oracle for the sparse rewrite.  Pivot selection is
    /// identical (Bland's rule over column-sorted rows), so a correct
    /// sparse tableau reproduces its pivot count, model, and cores
    /// *exactly* — not just its verdicts.
    mod dense {
        use super::super::{core_to_indices, Rel, SimplexConstraint};
        use crate::rational::{gcd, Rat};
        use crate::term::{LinExpr, Var};
        use std::collections::{BTreeMap, HashMap};

        struct UndoEntry {
            var: usize,
            upper: bool,
            old: Option<(Rat, u32)>,
        }

        pub struct DenseSimplex {
            var_cols: HashMap<Var, usize>,
            forms: HashMap<LinExpr, usize>,
            rows: Vec<Option<BTreeMap<usize, Rat>>>,
            lower: Vec<Option<(Rat, u32)>>,
            upper: Vec<Option<(Rat, u32)>>,
            beta: Vec<Rat>,
            undo: Vec<UndoEntry>,
            assert_marks: Vec<usize>,
            pivots: u64,
        }

        impl DenseSimplex {
            pub fn new() -> DenseSimplex {
                DenseSimplex {
                    var_cols: HashMap::new(),
                    forms: HashMap::new(),
                    rows: Vec::new(),
                    lower: Vec::new(),
                    upper: Vec::new(),
                    beta: Vec::new(),
                    undo: Vec::new(),
                    assert_marks: Vec::new(),
                    pivots: 0,
                }
            }

            pub fn num_asserted(&self) -> usize {
                self.assert_marks.len()
            }

            pub fn pivots(&self) -> u64 {
                self.pivots
            }

            fn add_var(&mut self) -> usize {
                let idx = self.beta.len();
                self.rows.push(None);
                self.lower.push(None);
                self.upper.push(None);
                self.beta.push(Rat::ZERO);
                idx
            }

            fn col_of(&mut self, v: Var) -> usize {
                if let Some(&c) = self.var_cols.get(&v) {
                    return c;
                }
                let c = self.add_var();
                self.var_cols.insert(v, c);
                c
            }

            fn slack_of(&mut self, form: &LinExpr) -> usize {
                if let Some(&s) = self.forms.get(form) {
                    return s;
                }
                let mut row: BTreeMap<usize, Rat> = BTreeMap::new();
                for (v, c) in form.terms() {
                    let col = self.col_of(v);
                    let coeff = Rat::from_int(c);
                    if let Some(def) = self.rows[col].clone() {
                        for (j, a) in def {
                            let entry = row.entry(j).or_insert(Rat::ZERO);
                            *entry += coeff * a;
                        }
                    } else {
                        let entry = row.entry(col).or_insert(Rat::ZERO);
                        *entry += coeff;
                    }
                }
                row.retain(|_, r| !r.is_zero());
                let mut value = Rat::ZERO;
                for (&j, &a) in &row {
                    value += a * self.beta[j];
                }
                let s = self.add_var();
                self.rows[s] = Some(row);
                self.beta[s] = value;
                self.forms.insert(form.clone(), s);
                s
            }

            pub fn assert_constraint(
                &mut self,
                constraint: &SimplexConstraint,
                tag: u32,
            ) -> Result<(), Vec<u32>> {
                let k = constraint.expr.constant_part();
                if constraint.expr.is_constant() {
                    let const_sat = match constraint.rel {
                        Rel::Le => k <= 0,
                        Rel::Ge => k >= 0,
                        Rel::Eq => k == 0,
                    };
                    if const_sat {
                        self.assert_marks.push(self.undo.len());
                        return Ok(());
                    }
                    return Err(vec![tag]);
                }
                let mut g: i128 = 0;
                let mut first_sign: i128 = 0;
                for (_, c) in constraint.expr.terms() {
                    g = gcd(g, c);
                    if first_sign == 0 {
                        first_sign = if c > 0 { 1 } else { -1 };
                    }
                }
                let scale = g * first_sign;
                let mut form = LinExpr::zero();
                for (v, c) in constraint.expr.terms() {
                    form.add_term(v, c / scale);
                }
                let bound = Rat::from_int(-k) / Rat::from_int(scale);
                let rel = match (constraint.rel, scale > 0) {
                    (rel, true) => rel,
                    (Rel::Le, false) => Rel::Ge,
                    (Rel::Ge, false) => Rel::Le,
                    (Rel::Eq, false) => Rel::Eq,
                };
                let x = if form.num_terms() == 1 {
                    let v = form.variables().next().expect("single term");
                    self.col_of(v)
                } else {
                    self.slack_of(&form)
                };
                let (lo, hi) = match rel {
                    Rel::Le => (None, Some(bound)),
                    Rel::Ge => (Some(bound), None),
                    Rel::Eq => (Some(bound), Some(bound)),
                };
                let mark = self.undo.len();
                if let Some(lo) = lo {
                    if let Some((hi, hi_tag)) = self.upper[x] {
                        if lo > hi {
                            return Err(vec![hi_tag, tag]);
                        }
                    }
                    if self.lower[x].is_none_or(|(cur, _)| lo > cur) {
                        self.undo.push(UndoEntry {
                            var: x,
                            upper: false,
                            old: self.lower[x],
                        });
                        self.lower[x] = Some((lo, tag));
                        if self.rows[x].is_none() && self.beta[x] < lo {
                            self.update(x, lo);
                        }
                    }
                }
                if let Some(hi) = hi {
                    if let Some((lo, lo_tag)) = self.lower[x] {
                        if hi < lo {
                            self.unwind_to(mark);
                            return Err(vec![lo_tag, tag]);
                        }
                    }
                    if self.upper[x].is_none_or(|(cur, _)| hi < cur) {
                        self.undo.push(UndoEntry {
                            var: x,
                            upper: true,
                            old: self.upper[x],
                        });
                        self.upper[x] = Some((hi, tag));
                        if self.rows[x].is_none() && self.beta[x] > hi {
                            self.update(x, hi);
                        }
                    }
                }
                self.assert_marks.push(mark);
                Ok(())
            }

            pub fn retract_to(&mut self, n: usize) {
                while self.assert_marks.len() > n {
                    let mark = self.assert_marks.pop().expect("non-empty");
                    self.unwind_to(mark);
                }
            }

            fn unwind_to(&mut self, mark: usize) {
                while self.undo.len() > mark {
                    let entry = self.undo.pop().expect("non-empty");
                    if entry.upper {
                        self.upper[entry.var] = entry.old;
                    } else {
                        self.lower[entry.var] = entry.old;
                    }
                }
            }

            fn is_basic(&self, v: usize) -> bool {
                self.rows[v].is_some()
            }

            fn violates_lower(&self, v: usize) -> bool {
                matches!(self.lower[v], Some((l, _)) if self.beta[v] < l)
            }

            fn violates_upper(&self, v: usize) -> bool {
                matches!(self.upper[v], Some((u, _)) if self.beta[v] > u)
            }

            fn update(&mut self, n: usize, v: Rat) {
                let delta = v - self.beta[n];
                self.beta[n] = v;
                for other in 0..self.beta.len() {
                    if let Some(row) = &self.rows[other] {
                        if let Some(&a_on) = row.get(&n) {
                            self.beta[other] += a_on * delta;
                        }
                    }
                }
            }

            fn pivot_and_update(&mut self, b: usize, n: usize, v: Rat) {
                let row_b = self.rows[b].clone().expect("b must be basic");
                let a_bn = *row_b.get(&n).expect("n must occur in the row of b");
                let theta = (v - self.beta[b]) / a_bn;
                self.beta[b] = v;
                self.beta[n] += theta;
                for other in 0..self.beta.len() {
                    if other != b {
                        if let Some(row) = &self.rows[other] {
                            if let Some(&a_on) = row.get(&n) {
                                self.beta[other] += a_on * theta;
                            }
                        }
                    }
                }
                self.pivot(b, n, &row_b, a_bn);
                self.pivots += 1;
            }

            fn pivot(&mut self, b: usize, n: usize, row_b: &BTreeMap<usize, Rat>, a_bn: Rat) {
                let mut new_row_n: BTreeMap<usize, Rat> = BTreeMap::new();
                new_row_n.insert(b, Rat::ONE / a_bn);
                for (&k, &a_bk) in row_b {
                    if k != n {
                        new_row_n.insert(k, -a_bk / a_bn);
                    }
                }
                new_row_n.retain(|_, r| !r.is_zero());
                self.rows[b] = None;
                for other in 0..self.rows.len() {
                    if other == n {
                        continue;
                    }
                    let Some(row) = self.rows[other].clone() else {
                        continue;
                    };
                    if let Some(&a_on) = row.get(&n) {
                        let mut new_row = row.clone();
                        new_row.remove(&n);
                        for (&k, &c) in &new_row_n {
                            let entry = new_row.entry(k).or_insert(Rat::ZERO);
                            *entry += a_on * c;
                        }
                        new_row.retain(|_, r| !r.is_zero());
                        self.rows[other] = Some(new_row);
                    }
                }
                self.rows[n] = Some(new_row_n);
            }

            pub fn check(&mut self) -> Result<(), Vec<u32>> {
                loop {
                    let violating = (0..self.beta.len()).find(|&v| {
                        self.is_basic(v) && (self.violates_lower(v) || self.violates_upper(v))
                    });
                    let Some(b) = violating else {
                        return Ok(());
                    };
                    let row = self.rows[b].clone().expect("basic");
                    let lower_violation = self.violates_lower(b);
                    if lower_violation {
                        let target = self.lower[b].expect("violated lower bound exists").0;
                        let candidate = row.iter().find(|(&n, &a)| {
                            (a.is_positive() && self.upper[n].is_none_or(|(u, _)| self.beta[n] < u))
                                || (a.is_negative()
                                    && self.lower[n].is_none_or(|(l, _)| self.beta[n] > l))
                        });
                        match candidate {
                            None => return Err(self.conflict_core(b, &row, true)),
                            Some((&n, _)) => self.pivot_and_update(b, n, target),
                        }
                    } else {
                        let target = self.upper[b].expect("violated upper bound exists").0;
                        let candidate = row.iter().find(|(&n, &a)| {
                            (a.is_negative() && self.upper[n].is_none_or(|(u, _)| self.beta[n] < u))
                                || (a.is_positive()
                                    && self.lower[n].is_none_or(|(l, _)| self.beta[n] > l))
                        });
                        match candidate {
                            None => return Err(self.conflict_core(b, &row, false)),
                            Some((&n, _)) => self.pivot_and_update(b, n, target),
                        }
                    }
                }
            }

            fn conflict_core(
                &self,
                b: usize,
                row: &BTreeMap<usize, Rat>,
                lower_violation: bool,
            ) -> Vec<u32> {
                let mut core = Vec::with_capacity(row.len() + 1);
                let own = if lower_violation {
                    self.lower[b].expect("violated bound").1
                } else {
                    self.upper[b].expect("violated bound").1
                };
                core.push(own);
                for (&n, &a) in row {
                    let blocking_upper = lower_violation == a.is_positive();
                    let tag = if blocking_upper {
                        self.upper[n].expect("blocking bound").1
                    } else {
                        self.lower[n].expect("blocking bound").1
                    };
                    core.push(tag);
                }
                core.sort_unstable();
                core.dedup();
                core
            }

            pub fn model(&self) -> BTreeMap<Var, Rat> {
                let mut out = BTreeMap::new();
                for (&var, &col) in &self.var_cols {
                    out.insert(var, self.beta[col]);
                }
                out
            }

            pub fn check_with_core_indices(&mut self) -> Result<BTreeMap<Var, Rat>, Vec<usize>> {
                match self.check() {
                    Ok(()) => Ok(self.model()),
                    Err(core) => Err(core_to_indices(core)),
                }
            }
        }
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn int(&mut self, lo: i128, hi: i128) -> i128 {
            lo + (self.next() % ((hi - lo + 1) as u64)) as i128
        }
    }

    /// A random constraint over 1–3 of `vars` with coefficients drawn
    /// from `[-coeff_max, coeff_max]`.
    fn random_constraint(rng: &mut Rng, vars: &[Var], coeff_max: i128) -> SimplexConstraint {
        let n_terms = 1 + rng.below(3) as usize;
        let mut expr = LinExpr::constant(rng.int(-10, 10));
        for _ in 0..n_terms {
            let v = vars[rng.below(vars.len() as u64) as usize];
            let mut c = rng.int(-coeff_max, coeff_max);
            if c == 0 {
                c = 1;
            }
            expr.add_term(v, c);
        }
        let rel = match rng.below(3) {
            0 => Rel::Le,
            1 => Rel::Ge,
            _ => Rel::Eq,
        };
        SimplexConstraint { expr, rel }
    }

    /// The tentpole pin: random assert/retract/check sessions must leave
    /// the sparse tableau and the retired dense oracle in *identical*
    /// observable states — same assert verdicts and clash tags, same check
    /// verdicts, same pivot counts, same models, same Farkas cores — with
    /// every returned core certified infeasible by a one-shot re-check and
    /// the occurrence-index invariants intact after every operation.  The
    /// small coefficients over 6 variables keep most rows integral; the
    /// wide ones over 10 variables give rows denominators above 1 and
    /// merges with a content to divide out.
    #[test]
    fn sparse_tableau_matches_dense_oracle_over_random_sessions() {
        let mut pool = VarPool::new();
        let all_vars: Vec<Var> = (0..10).map(|i| pool.fresh(&format!("v{i}"))).collect();
        let narrow = (1..=10u64).map(|seed| (seed, 6, 3));
        let wide = (11..=30u64).map(|seed| (seed, 10, 60));
        let mut max_den = 1;
        for (seed, n_vars, coeff_max) in narrow.chain(wide) {
            let vars = &all_vars[..n_vars];
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut sparse = IncrementalSimplex::new();
            let mut oracle = dense::DenseSimplex::new();
            let mut asserted: Vec<SimplexConstraint> = Vec::new();
            // assertion counts to retract back to, innermost last
            let mut marks: Vec<usize> = Vec::new();
            for _ in 0..80 {
                match rng.below(10) {
                    0..=4 => {
                        let c = random_constraint(&mut rng, vars, coeff_max);
                        let tag = asserted.len() as u32;
                        let rs = sparse.assert_constraint(&c, tag);
                        let ro = oracle.assert_constraint(&c, tag);
                        assert_eq!(rs, ro, "assert disagreement on {c:?} (seed {seed})");
                        if rs.is_ok() {
                            asserted.push(c);
                        }
                    }
                    5 => marks.push(asserted.len()),
                    6 => {
                        if let Some(n) = marks.pop() {
                            sparse.retract_to(n);
                            oracle.retract_to(n);
                            asserted.truncate(n);
                        }
                    }
                    _ => {
                        let rs = sparse.check();
                        let ro = oracle.check();
                        assert_eq!(rs, ro, "check disagreement (seed {seed})");
                        assert_eq!(
                            sparse.pivots(),
                            oracle.pivots(),
                            "pivot counts diverged (seed {seed})"
                        );
                        match rs {
                            Ok(()) => {
                                assert_eq!(
                                    sparse.model(),
                                    oracle.model(),
                                    "models diverged (seed {seed})"
                                );
                                check_model(&asserted, &sparse.model());
                            }
                            Err(core) => {
                                // certify: the core's constraints alone are
                                // jointly infeasible
                                let sub: Vec<SimplexConstraint> =
                                    core.iter().map(|&t| asserted[t as usize].clone()).collect();
                                assert!(
                                    !check_feasibility(&sub).is_feasible(),
                                    "core not infeasible (seed {seed}): {core:?}"
                                );
                                // an infeasible state stays infeasible; drop
                                // back to a clean prefix to keep the session
                                // going (mirrored on both sides)
                                let keep = asserted.len() / 2;
                                sparse.retract_to(keep);
                                oracle.retract_to(keep);
                                asserted.truncate(keep);
                                marks.retain(|&m| m <= keep);
                            }
                        }
                    }
                }
                assert_eq!(sparse.num_asserted(), oracle.num_asserted());
                check_invariants(&sparse);
                let dens = sparse.rows.iter().flatten().map(|row| row.den);
                max_den = dens.fold(max_den, i128::max);
            }
        }
        assert!(max_den > 1, "no session produced a fractional row");
    }

    /// The dense oracle agrees with the one-shot public entry point — a
    /// sanity pin that the copied oracle is itself faithful.
    #[test]
    fn dense_oracle_matches_one_shot_entry_point() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..5).map(|i| pool.fresh(&format!("w{i}"))).collect();
        let mut rng = Rng(0xdead_beef_cafe_f00d);
        for _ in 0..50 {
            let n = 2 + rng.below(6) as usize;
            let cs: Vec<SimplexConstraint> = (0..n)
                .map(|_| random_constraint(&mut rng, &vars, 3))
                .collect();
            let mut oracle = dense::DenseSimplex::new();
            let mut early = None;
            for (i, c) in cs.iter().enumerate() {
                if let Err(core) = oracle.assert_constraint(c, i as u32) {
                    early = Some(core_to_indices(core));
                    break;
                }
            }
            let oracle_result = match early {
                Some(core) => Err(core),
                None => oracle.check_with_core_indices(),
            };
            match (check_feasibility_with_core(&cs), oracle_result) {
                (Ok(m1), Ok(m2)) => assert_eq!(m1, m2),
                (Err(c1), Err(c2)) => assert_eq!(c1, c2),
                (a, b) => panic!("verdicts diverged: {a:?} vs {b:?}"),
            }
        }
    }

    /// The row slow lane: in both systems (drawn by a random search over
    /// coefficients near 2^60–2^66) one pivot's integer merge overflows
    /// `i128`, and the exact `BigInt` recomputation divides the row by its
    /// content back into range.  Verdict, pivot count, model and core must
    /// still be the dense `Rat` oracle's, and `lia.rat.slow_lane` must
    /// count the recomputation.
    #[test]
    fn overflowing_row_merge_reduces_back_and_matches_the_dense_oracle() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let lin = |a: i128, b: i128, k: i128| {
            LinExpr::scaled_var(x, a) + LinExpr::scaled_var(y, b) + LinExpr::constant(k)
        };
        let boxed = |mut cs: Vec<SimplexConstraint>, y_max: i128| {
            cs.push(ge(LinExpr::var(x)));
            cs.push(le(LinExpr::var(x) - LinExpr::constant(1)));
            cs.push(ge(LinExpr::var(y)));
            cs.push(le(LinExpr::var(y) - LinExpr::constant(y_max)));
            cs
        };
        // feasible, with the model x = 1, y = 5/2
        let feasible = boxed(
            vec![
                eq(lin(279_524_882_516_437_459, 2, -279_524_882_516_437_464)),
                ge(lin(
                    -3,
                    44_839_907_276_867_500_789,
                    -44_839_907_276_867_500_783,
                )),
            ],
            8,
        );
        // infeasible, with the core {0, 1, x ≤ 1}
        let infeasible = boxed(
            vec![
                le(lin(
                    -81_587_383_914_745_419,
                    -461_621_880_982_681_366,
                    543_209_264_897_426_785,
                )),
                le(lin(-4, 144_754_795_225_351_855, -144_754_795_225_351_850)),
            ],
            4,
        );
        let slow_lane: posr_obs::Counter = *crate::rational::OBS_SLOW_LANE;
        for (cs, expect_feasible) in [(feasible, true), (infeasible, false)] {
            let scope = posr_obs::CounterScope::new();
            let attached = scope.attach();
            let mut sparse = IncrementalSimplex::new();
            for (i, c) in cs.iter().enumerate() {
                sparse
                    .assert_constraint(c, i as u32)
                    .expect("no bound clash");
            }
            let rs = sparse.check();
            drop(attached);
            check_invariants(&sparse);
            let mut oracle = dense::DenseSimplex::new();
            for (i, c) in cs.iter().enumerate() {
                oracle
                    .assert_constraint(c, i as u32)
                    .expect("no bound clash");
            }
            assert_eq!(rs, oracle.check());
            assert_eq!(rs.is_ok(), expect_feasible, "verdict: {rs:?}");
            assert_eq!(sparse.pivots(), oracle.pivots());
            assert_eq!(sparse.model(), oracle.model());
            if expect_feasible {
                check_model(&cs, &sparse.model());
                assert_eq!(sparse.model()[&y], Rat::new(5, 2));
            } else {
                assert_eq!(rs, Err(vec![0, 1, 3]));
            }
            assert!(
                scope.get(slow_lane) > 0,
                "the merge no longer overflows: the system does not reach the row slow lane"
            );
        }
    }
}
