//! Interval (bound) propagation over conjunctions of linear constraints,
//! kept on one backtrackable bound trail.
//!
//! A [`BoundEnv`] keeps one integer interval per variable and tightens the
//! intervals by iterating over the asserted constraints: for `Σ cᵢxᵢ + k ≤ 0`
//! every variable can be bounded by the minimum of the remaining terms, and
//! equalities propagate in both directions.  Because every solver variable
//! ranges over the *integers*, inferred bounds are rounded inward
//! (`⌈lo⌉`/`⌊hi⌋`), which refutes gaps like `1 ≤ 3x ≤ 2` without invoking
//! the integer-feasibility backend.
//!
//! Every tightening is one entry on a **trail**: the new value, the entry
//! it replaced and the index of the constraint that produced it — O(1)
//! provenance per tightening.  The trail plays three roles:
//!
//! * **backtracking** — [`BoundEnv::push_level`] / [`BoundEnv::pop_to_level`]
//!   unwind by truncating the trail and restoring each popped entry's
//!   predecessor, so the CDCL(T) engine never clones an environment;
//! * **explanation** — the bounds an entry's constraint read are the
//!   latest *earlier* entries of its other variables, found by walking each
//!   variable's chain.  Following those links back turns a refutation, a
//!   pinned variable or an entailed atom into the constraints it rests on
//!   ([`BoundEnv::conflict_core`], [`BoundEnv::explain_pinned`],
//!   [`BoundEnv::explain_reads`]) without re-propagating anything;
//! * **change tracking** — the entries since a mark are exactly the
//!   tightenings since then ([`BoundEnv::changed_since`]).
//!
//! The engine is deliberately incomplete but very cheap — linear passes over
//! the constraints, no tableau — and it is *sound for refutation*: if
//! propagation derives an empty interval, the conjunction has no integer
//! solution.  The CDCL(T) engine runs it at every propagation fixpoint,
//! reserving the exact simplex for the leaves propagation cannot decide.

use std::collections::VecDeque;
use std::ops::Range;

use crate::simplex::{Rel, SimplexConstraint};
use crate::term::{LinExpr, Var};

/// Trail link meaning "no entry": an unbounded side.
const NONE: u32 = u32::MAX;

/// One interval per variable, on a backtrackable trail of tightenings.
#[derive(Clone, Debug, Default)]
pub struct BoundEnv {
    /// Per variable: trail position of the current lower bound.
    lo: Vec<u32>,
    /// Per variable: trail position of the current upper bound.
    hi: Vec<u32>,
    /// Every tightening in order; also the undo log of the levels.
    trail: Vec<Entry>,
    /// Per open level: the state to restore when it is popped.
    levels: Vec<Level>,
    /// Number of variables pinned to a point (`lo = hi`): an O(1) change
    /// detector for the divisibility check's substitution.
    pinned: usize,
    /// Why propagation refuted, and the level it happened at.
    conflict: Option<(Conflict, usize)>,
    worklist: Worklist,
}

/// One tightening.  `row` names the producing half-space: the constraint's
/// index in the caller's context, shifted left once, with the low bit set
/// when the constraint is read negated (`Ge`, or the `≥` half of an `Eq`).
/// Values fit an `i32` by the magnitude guard, keeping entries at 20 bytes.
#[derive(Clone, Debug)]
struct Entry {
    value: i32,
    var: u32,
    /// The entry this one replaced (same variable and side).
    prev: u32,
    row: u32,
    upper: bool,
}

#[derive(Clone, Copy, Debug)]
struct Level {
    trail: usize,
    pinned: usize,
}

#[derive(Clone, Copy, Debug)]
enum Conflict {
    /// A half-space whose minimum under the current bounds is positive.
    Row(u32),
    /// A variable whose lower bound passed its upper bound.
    Crossed(u32),
}

/// Worklist state reused across propagation calls, so a call costs what
/// it visits rather than the size of the context.
#[derive(Clone, Debug, Default)]
struct Worklist {
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    /// Per variable: dependents fired in this call (see [`TIGHTEN_CAP`]).
    fired: Vec<u32>,
    fired_vars: Vec<u32>,
}

/// Result of asserting constraints into an environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundOutcome {
    /// No contradiction found (the conjunction may still be infeasible).
    Open,
    /// The conjunction provably has no integer solution.
    Refuted,
}

/// Round cap of the from-scratch passes of [`BoundEnv::assert_all`].  They
/// re-check cores the incremental worklist derived, possibly across many
/// levels, so they must reach as deep a fixpoint; the loop exits on
/// convergence, so the cap only bounds divergent cycles.
const MAX_ROUNDS: usize = 64;

/// How many times a single variable's tightening may re-fire its dependent
/// constraints within one propagation call.  Genuine cascades tighten each
/// variable once or twice; anything past the cap is a divergent loop
/// inching towards the magnitude guard.
const TIGHTEN_CAP: u32 = 8;

/// Bounds beyond this magnitude are not recorded: divergent cascades
/// (`x ≥ y + 1 ∧ y ≥ x` tightens forever) would otherwise grow values
/// geometrically under the worklist propagation.  Dropping a tightening is
/// always sound — the interval stays valid, just looser — and real bounds
/// of the encodings are far below this.
const MAGNITUDE_LIMIT: i128 = 1 << 24;

/// `⌊a / b⌋` for `b > 0`.
fn div_floor(a: i128, b: i128) -> i128 {
    a.div_euclid(b)
}

/// `⌈a / b⌉` for `b > 0`.
fn div_ceil(a: i128, b: i128) -> i128 {
    let q = a.div_euclid(b);
    if a.rem_euclid(b) == 0 {
        q
    } else {
        q + 1
    }
}

/// The sign a half-space reads its constraint's expression with.
fn row_sign(row: u32) -> i128 {
    if row & 1 == 1 {
        -1
    } else {
        1
    }
}

impl BoundEnv {
    /// An unconstrained environment.
    pub fn new() -> BoundEnv {
        BoundEnv::default()
    }

    /// Builds an environment from a conjunction, propagating to fixpoint.
    pub fn from_constraints(constraints: &[SimplexConstraint]) -> (BoundEnv, BoundOutcome) {
        let mut env = BoundEnv::new();
        let outcome = env.assert_all(constraints);
        (env, outcome)
    }

    /// Asserts constraints by round-robin passes to fixpoint (or the round
    /// cap); provenance indexes `constraints`.
    pub fn assert_all(&mut self, constraints: &[SimplexConstraint]) -> BoundOutcome {
        if self.conflict.is_some() {
            return BoundOutcome::Refuted;
        }
        for _ in 0..MAX_ROUNDS {
            let mark = self.trail.len();
            for (i, c) in constraints.iter().enumerate() {
                if self.assert_constraint(c, i as u32).is_err() {
                    return BoundOutcome::Refuted;
                }
            }
            if self.trail.len() == mark {
                break;
            }
        }
        BoundOutcome::Open
    }

    /// Propagates the `fresh` constraints of `context` (those asserted
    /// since the last call) and then, worklist-style, every context
    /// constraint over a variable that tightened.  `index` must index
    /// exactly `context`; `budget` caps the constraint visits (a cut-off
    /// loses completeness, never soundness).
    pub fn propagate_from(
        &mut self,
        context: &[SimplexConstraint],
        fresh: Range<usize>,
        index: &ConstraintIndex,
        budget: usize,
    ) -> BoundOutcome {
        if self.conflict.is_some() {
            return BoundOutcome::Refuted;
        }
        self.worklist.ensure(context.len(), self.lo.len());
        for i in fresh {
            if !self.worklist.queued[i] {
                self.worklist.queued[i] = true;
                self.worklist.queue.push_back(i as u32);
            }
        }
        let mut outcome = BoundOutcome::Open;
        let mut visits = 0usize;
        while let Some(i) = self.worklist.queue.pop_front() {
            self.worklist.queued[i as usize] = false;
            visits += 1;
            if visits > budget {
                break;
            }
            let mark = self.trail.len();
            if self.assert_constraint(&context[i as usize], i).is_err() {
                outcome = BoundOutcome::Refuted;
                break;
            }
            self.enqueue_since(mark, context.len(), index);
        }
        self.reset_worklist();
        outcome
    }

    /// Queues the dependents of every variable tightened since `mark`.
    /// Slow-divergence guard: a variable whose bound keeps tightening
    /// (`x ≥ y + 1 ∧ y ≥ x` walks off by one per visit, far below the
    /// magnitude guard) stops re-firing after [`TIGHTEN_CAP`] rounds; its
    /// recorded bounds stay valid, the interval just stays looser.
    fn enqueue_since(&mut self, mark: usize, context_len: usize, index: &ConstraintIndex) {
        self.worklist.ensure(context_len, self.lo.len());
        let w = &mut self.worklist;
        for entry in &self.trail[mark..] {
            let v = entry.var as usize;
            if w.fired[v] == 0 {
                w.fired_vars.push(entry.var);
            }
            w.fired[v] += 1;
            if w.fired[v] > TIGHTEN_CAP {
                continue;
            }
            for &i in index.dependents(Var(v)) {
                if !w.queued[i] {
                    w.queued[i] = true;
                    w.queue.push_back(i as u32);
                }
            }
        }
    }

    fn reset_worklist(&mut self) {
        let w = &mut self.worklist;
        for i in w.queue.drain(..) {
            w.queued[i as usize] = false;
        }
        for v in w.fired_vars.drain(..) {
            w.fired[v as usize] = 0;
        }
    }

    /// Asserts one constraint (context index `i`), both halves of an
    /// equality.
    fn assert_constraint(&mut self, c: &SimplexConstraint, i: u32) -> Result<(), ()> {
        match c.rel {
            Rel::Le => self.assert_half(&c.expr, i << 1),
            Rel::Ge => self.assert_half(&c.expr, (i << 1) | 1),
            Rel::Eq => {
                self.assert_half(&c.expr, i << 1)?;
                self.assert_half(&c.expr, (i << 1) | 1)
            }
        }
    }

    /// Propagates the half-space `row_sign(row) · expr ≤ 0`: refutes it
    /// when its minimum is positive, else bounds every variable by the
    /// minimum of the other terms.  One pass computes the total minimum;
    /// each variable's "rest" is the total minus its own term, and with a
    /// single unbounded term only that variable can tighten.  Arithmetic
    /// that overflows gives up on the row, which is sound.
    fn assert_half(&mut self, expr: &LinExpr, row: u32) -> Result<(), ()> {
        let sign = row_sign(row);
        let Some(mut total) = expr.constant_part().checked_mul(sign) else {
            return Ok(());
        };
        let mut free: Option<(Var, i128)> = None;
        for (v, c) in expr.terms() {
            let Some(a) = c.checked_mul(sign) else {
                return Ok(());
            };
            match self.term_min(v, a) {
                Some(m) => match total.checked_add(m) {
                    Some(t) => total = t,
                    None => return Ok(()),
                },
                None if free.is_none() => free = Some((v, a)),
                None => return Ok(()), // two unbounded terms: nothing to derive
            }
        }
        if let Some((v, a)) = free {
            return self.tighten(v, a, total, row);
        }
        if total > 0 {
            self.refute(Conflict::Row(row));
            return Err(());
        }
        for (v, c) in expr.terms() {
            // each variable occurs once, so its own term is still the one
            // the total summed
            let a = c * sign;
            if let Some(rest) = self.term_min(v, a).and_then(|own| total.checked_sub(own)) {
                self.tighten(v, a, rest, row)?;
            }
        }
        Ok(())
    }

    /// From `a·v + rest ≤ 0` (with `rest` the minimum of the other terms):
    /// `v ≤ ⌊−rest / a⌋` for `a > 0`, `v ≥ ⌈rest / −a⌉` for `a < 0`.
    fn tighten(&mut self, v: Var, a: i128, rest: i128, row: u32) -> Result<(), ()> {
        let (upper, value) = if a > 0 {
            match rest.checked_neg() {
                Some(neg) => (true, div_floor(neg, a)),
                None => return Ok(()),
            }
        } else {
            match a.checked_neg() {
                Some(pos) => (false, div_ceil(rest, pos)),
                None => return Ok(()),
            }
        };
        if !(-MAGNITUDE_LIMIT..=MAGNITUDE_LIMIT).contains(&value) {
            return Ok(());
        }
        let value = value as i32; // exact: within the magnitude guard
        self.ensure_var(v);
        let vi = v.index();
        let (cur, other) = if upper {
            (self.hi[vi], self.lo[vi])
        } else {
            (self.lo[vi], self.hi[vi])
        };
        if cur != NONE {
            let old = self.trail[cur as usize].value;
            if (upper && old <= value) || (!upper && old >= value) {
                return Ok(());
            }
        }
        let pos = self.trail.len() as u32;
        self.trail.push(Entry {
            value,
            var: vi as u32,
            prev: cur,
            row,
            upper,
        });
        if upper {
            self.hi[vi] = pos;
        } else {
            self.lo[vi] = pos;
        }
        if other != NONE {
            let bound = self.trail[other as usize].value;
            if bound == value {
                self.pinned += 1;
            } else if (upper && bound > value) || (!upper && bound < value) {
                self.refute(Conflict::Crossed(vi as u32));
                return Err(());
            }
        }
        Ok(())
    }

    fn refute(&mut self, conflict: Conflict) {
        self.conflict = Some((conflict, self.levels.len()));
    }

    fn ensure_var(&mut self, v: Var) {
        if v.index() >= self.lo.len() {
            self.lo.resize(v.index() + 1, NONE);
            self.hi.resize(v.index() + 1, NONE);
        }
    }

    /// Opens a backtracking level.
    pub fn push_level(&mut self) {
        self.levels.push(Level {
            trail: self.trail.len(),
            pinned: self.pinned,
        });
    }

    /// Closes levels until `level` remain open, restoring exactly the
    /// intervals (and refutation state) the environment had when level
    /// `level + 1` was pushed.
    pub fn pop_to_level(&mut self, level: usize) {
        let Some(&Level { trail, pinned }) = self.levels.get(level) else {
            return;
        };
        for entry in self.trail.drain(trail..).rev() {
            let slot = if entry.upper {
                &mut self.hi
            } else {
                &mut self.lo
            };
            slot[entry.var as usize] = entry.prev;
        }
        self.pinned = pinned;
        self.levels.truncate(level);
        if matches!(self.conflict, Some((_, at)) if at > level) {
            self.conflict = None;
        }
    }

    /// The number of open levels.
    pub fn level(&self) -> usize {
        self.levels.len()
    }

    /// The trail length: a mark for [`BoundEnv::changed_since`] and
    /// [`BoundEnv::explain_reads`].
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// The variables tightened since `mark` (possibly repeated).
    pub fn changed_since(&self, mark: usize) -> impl Iterator<Item = Var> + '_ {
        self.trail[mark..].iter().map(|e| Var(e.var as usize))
    }

    /// `true` while the environment holds a refutation.
    pub fn is_refuted(&self) -> bool {
        self.conflict.is_some()
    }

    /// The interval of `expr` under the current bounds: `(min, max)`, with
    /// `None` for an unbounded (or overflowing) side.
    pub fn expr_range(&self, expr: &LinExpr) -> (Option<i128>, Option<i128>) {
        let mut min = Some(expr.constant_part());
        let mut max = Some(expr.constant_part());
        for (v, c) in expr.terms() {
            min = min.and_then(|m| m.checked_add(self.term_min(v, c)?));
            max = max.and_then(|m| m.checked_sub(self.term_min(v, -c)?));
        }
        (min, max)
    }

    /// The current interval of a single variable (`None` = unbounded side).
    pub fn var_range(&self, v: Var) -> (Option<i128>, Option<i128>) {
        (self.bound(v, false), self.bound(v, true))
    }

    /// The number of point-pinned variables — O(1), maintained by the
    /// tightenings and restored by the level pops.
    pub fn pinned_count(&self) -> usize {
        self.pinned
    }

    /// The value `v` is pinned to (`lo = hi`), if any — the substitution
    /// the divisibility refutation makes before its GCD test.
    pub fn pinned_value(&self, v: Var) -> Option<i128> {
        match self.var_range(v) {
            (Some(lo), Some(hi)) if lo == hi => Some(lo),
            _ => None,
        }
    }

    fn bound(&self, v: Var, upper: bool) -> Option<i128> {
        let slots = if upper { &self.hi } else { &self.lo };
        match slots.get(v.index()) {
            Some(&e) if e != NONE => Some(self.trail[e as usize].value.into()),
            _ => None,
        }
    }

    /// Lower bound of the term `a·v` (`None` = −∞ or overflow).
    fn term_min(&self, v: Var, a: i128) -> Option<i128> {
        self.bound(v, a < 0)?.checked_mul(a)
    }

    /// The entry of `v`'s lower (upper) bound that was current just before
    /// trail position `at`.
    fn entry_before(&self, v: Var, upper: bool, at: usize) -> u32 {
        let slots = if upper { &self.hi } else { &self.lo };
        let mut e = slots.get(v.index()).copied().unwrap_or(NONE);
        while e != NONE && e as usize >= at {
            e = self.trail[e as usize].prev;
        }
        e
    }

    /// Pushes the entries the minimum of half-space `sign · expr` read as
    /// of trail position `at` (every term but `skip`'s).
    fn push_reads(
        &self,
        expr: &LinExpr,
        sign: i128,
        skip: Option<u32>,
        at: usize,
        out: &mut Vec<u32>,
    ) {
        for (v, c) in expr.terms() {
            if Some(v.index() as u32) != skip {
                out.push(self.entry_before(v, c * sign < 0, at));
            }
        }
    }

    /// The context indices the given entries rest on, sorted: each entry's
    /// own constraint plus, recursively, the earlier entries it read.
    fn explain_entries(
        &self,
        mut stack: Vec<u32>,
        context: &[SimplexConstraint],
        out: &mut Vec<usize>,
    ) {
        let mut seen = vec![0u64; self.trail.len().div_ceil(64)];
        while let Some(e) = stack.pop() {
            // skipping a read would make the explanation unsound
            assert_ne!(e, NONE, "a derived bound read an unbounded side");
            let (word, bit) = (e as usize / 64, 1u64 << (e % 64));
            if seen[word] & bit != 0 {
                continue;
            }
            seen[word] |= bit;
            let entry = &self.trail[e as usize];
            let i = (entry.row >> 1) as usize;
            out.push(i);
            self.push_reads(
                &context[i].expr,
                row_sign(entry.row),
                Some(entry.var),
                e as usize,
                &mut stack,
            );
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The refutation's core: sorted indices of a subset of `context` (the
    /// constraints propagation was run over) that is bound-infeasible on
    /// its own.  Empty when the environment is not refuted.
    pub fn conflict_core(&self, context: &[SimplexConstraint]) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        match self.conflict {
            None => return out,
            Some((Conflict::Row(row), _)) => {
                let i = (row >> 1) as usize;
                out.push(i);
                self.push_reads(
                    &context[i].expr,
                    row_sign(row),
                    None,
                    self.trail.len(),
                    &mut stack,
                );
            }
            Some((Conflict::Crossed(v), _)) => {
                stack.push(self.lo[v as usize]);
                stack.push(self.hi[v as usize]);
            }
        }
        self.explain_entries(stack, context, &mut out);
        out
    }

    /// The sorted context indices that pin the given variables.
    pub fn explain_pinned(&self, vars: &[Var], context: &[SimplexConstraint]) -> Vec<usize> {
        let mut stack = Vec::with_capacity(2 * vars.len());
        for v in vars {
            stack.push(self.lo[v.index()]);
            stack.push(self.hi[v.index()]);
        }
        let mut out = Vec::new();
        self.explain_entries(stack, context, &mut out);
        out
    }

    /// For a `≤`/`≥` `constraint` the bounds current at trail position
    /// `at` refuted (e.g. the negation of an atom entailed then): the
    /// sorted context indices those bounds rest on, which entail the
    /// negation.
    pub fn explain_reads(
        &self,
        constraint: &SimplexConstraint,
        at: usize,
        context: &[SimplexConstraint],
    ) -> Vec<usize> {
        let mut stack = Vec::new();
        let sign = if constraint.rel == Rel::Ge { -1 } else { 1 };
        self.push_reads(&constraint.expr, sign, None, at, &mut stack);
        let mut out = Vec::new();
        self.explain_entries(stack, context, &mut out);
        out
    }
}

impl Worklist {
    fn ensure(&mut self, constraints: usize, vars: usize) {
        if self.queued.len() < constraints {
            self.queued.resize(constraints, false);
        }
        if self.fired.len() < vars {
            self.fired.resize(vars, 0);
        }
    }
}

/// Maps every variable to the indices of the constraints mentioning it, so
/// propagation revisits only what a tightened bound can actually affect.
///
/// Besides the one-shot [`ConstraintIndex::build`], the index supports
/// stack-shaped incremental maintenance ([`ConstraintIndex::push`] /
/// [`ConstraintIndex::pop`]): the CDCL(T) engine keeps it in lock-step
/// with its constraint stack instead of rebuilding it.
#[derive(Clone, Debug, Default)]
pub struct ConstraintIndex {
    by_var: Vec<Vec<usize>>,
    len: usize,
}

impl ConstraintIndex {
    /// Indexes a constraint slice (positions are into that slice).
    pub fn build(constraints: &[SimplexConstraint]) -> ConstraintIndex {
        let mut index = ConstraintIndex::default();
        for c in constraints {
            index.push(c);
        }
        index
    }

    /// Number of indexed constraints.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no constraint is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the next constraint (position `self.len()`).
    pub fn push(&mut self, constraint: &SimplexConstraint) {
        let i = self.len;
        for v in constraint.expr.variables() {
            if v.index() >= self.by_var.len() {
                self.by_var.resize_with(v.index() + 1, Vec::new);
            }
            self.by_var[v.index()].push(i);
        }
        self.len += 1;
    }

    /// Removes the most recently pushed constraint; the caller passes it
    /// back so its variables can be unindexed without a scan.
    pub fn pop(&mut self, constraint: &SimplexConstraint) {
        debug_assert!(self.len > 0);
        self.len -= 1;
        for v in constraint.expr.variables() {
            let popped = self.by_var[v.index()].pop();
            debug_assert_eq!(popped, Some(self.len));
        }
    }

    /// Constraints mentioning `v`.
    pub fn dependents(&self, v: Var) -> &[usize] {
        self.by_var.get(v.index()).map_or(&[], Vec::as_slice)
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
    fn propagates_simple_chain() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // x ≥ 3, y − x ≥ 0, y ≤ 2 — contradiction via transitivity
        let constraints = vec![
            ge(LinExpr::var(x) - LinExpr::constant(3)),
            ge(LinExpr::var(y) - LinExpr::var(x)),
            le(LinExpr::var(y) - LinExpr::constant(2)),
        ];
        let (env, outcome) = BoundEnv::from_constraints(&constraints);
        assert_eq!(outcome, BoundOutcome::Refuted);
        // all three constraints are needed
        assert_eq!(env.conflict_core(&constraints), vec![0, 1, 2]);
    }

    #[test]
    fn integer_rounding_refutes_gaps() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        // 1 ≤ 3x ≤ 2: rationally feasible, integrally empty
        let constraints = vec![
            ge(LinExpr::scaled_var(x, 3) - LinExpr::constant(1)),
            le(LinExpr::scaled_var(x, 3) - LinExpr::constant(2)),
        ];
        let (_, outcome) = BoundEnv::from_constraints(&constraints);
        assert_eq!(outcome, BoundOutcome::Refuted);
    }

    #[test]
    fn zero_sum_of_nonnegatives_pins_everything() {
        let mut pool = VarPool::new();
        let xs: Vec<Var> = (0..4).map(|i| pool.fresh(&format!("x{i}"))).collect();
        let mut constraints: Vec<SimplexConstraint> =
            xs.iter().map(|&v| ge(LinExpr::var(v))).collect();
        constraints.push(eq(LinExpr::sum_of_vars(xs.iter().copied())));
        let (env, outcome) = BoundEnv::from_constraints(&constraints);
        assert_eq!(outcome, BoundOutcome::Open);
        assert_eq!(env.pinned_count(), 4);
        // x1 is pinned by its own sign, the sum, and the other signs
        assert_eq!(
            env.explain_pinned(&[xs[1]], &constraints),
            vec![0, 1, 2, 3, 4]
        );
        // then x0 ≥ 1 contradicts the zero sum
        constraints.push(ge(LinExpr::var(xs[0]) - LinExpr::constant(1)));
        let (_, outcome) = BoundEnv::from_constraints(&constraints);
        assert_eq!(outcome, BoundOutcome::Refuted);
    }

    #[test]
    fn feasible_systems_stay_open() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let constraints = vec![
            ge(LinExpr::var(x)),
            ge(LinExpr::var(y)),
            eq(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(5)),
        ];
        let (env, outcome) = BoundEnv::from_constraints(&constraints);
        assert_eq!(outcome, BoundOutcome::Open);
        assert!(env.conflict_core(&constraints).is_empty());
        // and the intervals are genuinely tightened: x ∈ [0, 5]
        assert_eq!(env.var_range(x), (Some(0), Some(5)));
    }

    #[test]
    fn core_excludes_irrelevant_constraints() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let z = pool.fresh("z");
        // x ≥ 3 ∧ x ≤ 2 clash; the z constraints are noise
        let constraints = vec![
            ge(LinExpr::var(z)),
            ge(LinExpr::var(x) - LinExpr::constant(3)),
            le(LinExpr::var(z) - LinExpr::constant(9)),
            le(LinExpr::var(x) - LinExpr::constant(2)),
            ge(LinExpr::var(y) - LinExpr::var(z)),
        ];
        let (env, outcome) = BoundEnv::from_constraints(&constraints);
        assert_eq!(outcome, BoundOutcome::Refuted);
        assert_eq!(env.conflict_core(&constraints), vec![1, 3]);
    }

    #[test]
    fn levels_undo_tightenings_and_refutations() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let mut context = vec![
            ge(LinExpr::var(x)),
            le(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(4)),
        ];
        let mut index = ConstraintIndex::build(&context);
        let mut env = BoundEnv::new();
        assert_eq!(
            env.propagate_from(&context, 0..2, &index, 64),
            BoundOutcome::Open
        );
        assert_eq!(env.var_range(x), (Some(0), None));
        env.push_level();
        let mark = env.mark();
        context.push(ge(LinExpr::var(y) - LinExpr::constant(1)));
        index.push(&context[2]);
        assert_eq!(
            env.propagate_from(&context, 2..3, &index, 64),
            BoundOutcome::Open
        );
        assert_eq!(env.var_range(x), (Some(0), Some(3)));
        assert!(env.changed_since(mark).any(|v| v == x));
        // x ≤ 3 is entailed: the bounds its negation x ≥ 4 reads rest on
        // the sum and y's lower bound
        let negation = ge(LinExpr::var(x) - LinExpr::constant(4));
        assert_eq!(
            env.explain_reads(&negation, env.mark(), &context),
            vec![1, 2]
        );
        context.push(ge(LinExpr::var(x) - LinExpr::constant(4)));
        index.push(&context[3]);
        assert_eq!(
            env.propagate_from(&context, 3..4, &index, 64),
            BoundOutcome::Refuted
        );
        assert_eq!(env.conflict_core(&context), vec![1, 2, 3]);
        env.pop_to_level(0);
        index.pop(&context.pop().unwrap());
        index.pop(&context.pop().unwrap());
        assert!(!env.is_refuted());
        assert_eq!(env.var_range(x), (Some(0), None));
        assert_eq!(env.var_range(y), (None, Some(4)));
    }
}
