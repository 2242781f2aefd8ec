//! An iterative CDCL(T) search engine for quantifier-free LIA.
//!
//! The one search engine behind [`crate::solver::Solver`] and
//! [`crate::incremental::IncrementalSolver`].  The formula is clausified by
//! [`crate::cnf`] into an atom-indexed clause database; the search is the
//! standard modern loop:
//!
//! * an **assignment trail** with decision levels and reason clauses,
//! * **two-watched-literal** Boolean constraint propagation,
//! * **1UIP conflict analysis** with clause learning and activity bumping,
//! * **non-chronological backjumping** to the second-highest level of the
//!   learned clause,
//! * **Luby restarts** and **VSIDS-style** activity-ordered decisions with
//!   phase saving.
//!
//! The engine is *persistent*: `Engine::solve` can be called repeatedly
//! on a growing clause database (`Engine::assert_nnf` clausifies into it
//! through the engine's own [`Clausifier`], `Engine::add_root_clause`
//! adds clauses directly), under **assumptions** (literals enqueued as
//! pseudo-decisions before the search proper, the mechanism behind the
//! `push`/`pop` frames of [`crate::incremental`]).  Learned clauses, VSIDS
//! activities and saved phases survive across calls, and an LBD-ranked
//! learned-clause GC (`Engine::reduce_db`, triggered at restarts) keeps
//! long sessions from growing unboundedly.  One-shot solving
//! ([`solve_cdcl`]) is the special case of a fresh engine and no
//! assumptions.
//!
//! The theory side is as incremental as the Boolean side (the full
//! DPLL(T) architecture of Dutertre & de Moura):
//!
//! * every assigned theory literal contributes one bound constraint (both
//!   polarities are exact over ℤ, see [`crate::cnf`]);
//! * at every propagation fixpoint that added theory literals, interval
//!   propagation checks the conjunction incrementally on one backtrackable
//!   bound trail ([`BoundEnv`]: a level per decision level, popped on
//!   backjump; a persistent [`ConstraintIndex`] kept in lock-step with the
//!   trail drives the worklist cascade), and the divisibility test re-runs
//!   when the check's delta changed its input: the propagation pinned a
//!   variable (pinning is monotone within a decision level, so the pinned
//!   count is an exact change detector), or a new entry completed an
//!   equation.  The test runs on a per-solve base (`GcdBase`): the root
//!   prefix of the theory stack — the flow equations of the Parikh
//!   images, most of what a solve asserts — is paired, stripped of its
//!   root-pinned variables and unit-pivot-eliminated once, extended in
//!   place whenever a root-level check sees the root grow (CEGAR cuts,
//!   learned units), and each check eliminates only the rows whose pivot
//!   is pinned, the residual rows and the equalities above the root.
//!   Every bound on the trail names the constraint that produced it, so
//!   refutations are explained by reading the trail back — the GCD test
//!   substitutes the pinned values and the trail explains the pins — then
//!   trimmed by budgeted deletion ([`crate::explain`]) and learned as
//!   clauses, which is what prunes the symmetric K≥2 mismatch case splits
//!   of the tag-automaton encodings;
//! * after each consistent fixpoint, **theory propagation** scans the
//!   variables whose intervals tightened against the atom→bound registry
//!   (atoms grouped by constant-stripped form, sorted by threshold) and
//!   enqueues every entailed literal with a *lazy* explanation — the
//!   bound-trail position it was entailed at; the entailing bounds are
//!   only read back if conflict analysis later resolves on the literal —
//!   so bound/parity conflicts are cut off levels early instead of being
//!   rediscovered as full conflicts (`SolverConfig::theory_propagation`,
//!   on by default);
//! * at the leaves (a full assignment, or every original clause already
//!   satisfied), and only there, a **persistent, backtrackable simplex**
//!   ([`crate::simplex::IncrementalSimplex`]) re-checks rational
//!   feasibility: atoms are registered once at `Engine::grow_theory`,
//!   the literals asserted since the last leaf are synced as O(1) bound
//!   assertions (retracted on backjump), and the pivot loop warm-starts
//!   from the previous basis — its Farkas certificate is the explanation.
//!   Bounds and the divisibility test refute most partial assignments
//!   before a leaf is reached;
//! * integrality is decided by **splitting on demand** (Barrett,
//!   Nieuwenhuis, Oliveras & Tinelli, LPAR'06): when the tableau's
//!   rational model is fractional on a variable `x`, the engine interns
//!   the atom `x ≤ ⌊β(x)⌋` through its own clausifier and decides it.
//!   The atom's complement is `x ≥ ⌊β(x)⌋ + 1`, so the two branches
//!   cover every integer value, and each refuted branch is an ordinary
//!   bounds, GCD or Farkas conflict on the tableau the search already
//!   holds.
//!
//! Soundness: `Sat` carries a model the caller can re-validate, and every
//! clause the engine learns is implied by the database, so `Unsat` is a
//! refutation in every session.  Cancellation, the conflict cap and the
//! two branching limits (`MAX_BRANCHES`, `MAX_BRANCH_MAGNITUDE`) all
//! surface as `Unknown`.

use std::collections::{BTreeMap, HashMap};
use std::sync::LazyLock;
use std::time::{Duration, Instant};

use crate::bounds::{BoundEnv, BoundOutcome, ConstraintIndex};
use crate::cancel::RESOURCE_OUT_MSG;
use crate::cnf::{constraint_of_meaning, split_meaning, BoolVar, Clausifier, Lit, LitOrConst};
use crate::eqelim::{gcd_refutes, GcdBase};
use crate::explain;
use crate::formula::Formula;
use crate::proof::{farkas_coefficients, CertKind, ProofBuilder};
use crate::rational::Rat;
use crate::simplex::{
    check_feasibility, IncrementalSimplex, PreparedBound, Rel, SimplexConstraint,
};
use crate::solver::{Model, SolverConfig, SolverResult};
use crate::term::{LinExpr, Var};

/// Reason index of decisions and unassigned variables.
const NO_REASON: u32 = u32::MAX;

/// Approximate heap footprint of a clause of `len` literals, for the
/// solve's memory account (header + literal vector).
fn clause_bytes(len: usize) -> u64 {
    48 + 8 * len as u64
}

/// Reason index of theory-propagated literals: the explanation (a bound
/// core entailing the literal) is materialised *lazily*, only when the
/// literal is actually resolved on during conflict analysis.
const TPROP_REASON: u32 = u32::MAX - 1;

/// Restart interval base (conflicts), scaled by the Luby sequence.
const RESTART_BASE: u64 = 256;

/// Conflicts per [`Engine::solve`] call before the search answers
/// `Unknown(`[`RESOURCE_OUT_MSG`]`)`: a backstop against runaway
/// searches (wall clocks are governed by the cancel token's deadline) that
/// keeps resource-outs at a few seconds.
const MAX_CONFLICTS: u64 = 50_000;

/// Branch decisions per [`Engine::solve`] call before the search answers
/// `Unknown(`[`RESOURCE_OUT_MSG`]`)`: splitting on an unbounded variable
/// need not terminate.
const MAX_BRANCHES: u64 = 50_000;

/// A fractional value beyond this magnitude is not split; the search
/// answers `Unknown(`[`RESOURCE_OUT_MSG`]`)` instead.  Papadimitriou's
/// small-model bound keeps the models of the formulas posr generates far
/// below it, and it keeps branch atoms inside the bound trail's range.
const MAX_BRANCH_MAGNITUDE: i128 = 10_000_000;

/// Cores larger than this skip the (quadratic) deletion minimisation for
/// the expensive checkers; the unminimised core is still a sound clause.
const MINIMIZE_CAP: usize = 96;

/// Deletion attempts per conflict for the cheap (propagation-backed)
/// minimisers: the deepest members are tried first, so the budget buys the
/// backjump-relevant part of minimality at a bounded per-conflict cost.
const MINIMIZE_BUDGET: usize = 8;

/// Learned clauses this short are never garbage-collected (binary lemmas
/// cost next to nothing to keep and propagate eagerly).
const GC_EXEMPT_LEN: usize = 2;

/// Wall time of the theory sub-layers inside `cdcl.solve`, in µs, flushed
/// once per [`Engine::solve`]: interval propagation, the divisibility
/// test, explanation (reading cores back and minimising them) and the
/// simplex checks.
static OBS_BOUND_US: LazyLock<posr_obs::Counter> =
    LazyLock::new(|| posr_obs::counter("cdcl.bound_us"));
static OBS_GCD_US: LazyLock<posr_obs::Counter> = LazyLock::new(|| posr_obs::counter("cdcl.gcd_us"));
static OBS_EXPLAIN_US: LazyLock<posr_obs::Counter> =
    LazyLock::new(|| posr_obs::counter("cdcl.explain_us"));
static OBS_SIMPLEX_US: LazyLock<posr_obs::Counter> =
    LazyLock::new(|| posr_obs::counter("cdcl.simplex_us"));

/// The sub-layer time counters as `(statistics key, counter)` pairs, in
/// µs — what `(get-info :all-statistics)` lists.
pub fn layer_time_counters() -> [(&'static str, posr_obs::Counter); 4] {
    [
        ("bound-propagation-us", *OBS_BOUND_US),
        ("gcd-us", *OBS_GCD_US),
        ("explain-us", *OBS_EXPLAIN_US),
        ("simplex-us", *OBS_SIMPLEX_US),
    ]
}

/// Distribution of pivots per leaf simplex `check()`.
static HIST_CHECK_PIVOTS: LazyLock<posr_obs::Histogram> =
    LazyLock::new(|| posr_obs::histogram("simplex.check_pivots"));

/// Distribution of learned-clause LBD scores.
static HIST_LBD: LazyLock<posr_obs::Histogram> = LazyLock::new(|| posr_obs::histogram("cdcl.lbd"));

// The stall watchdog's progress probe: store-latest gauges the search
// loop publishes with relaxed stores so the (separate) watchdog thread
// can report where a wedged solve got to without taking any lock the
// solver holds.  In a portfolio the lanes share these — latest writer
// wins, which is what a "current progress" probe means.
static PROGRESS_CONFLICTS: LazyLock<posr_obs::Gauge> =
    LazyLock::new(|| posr_obs::gauge("cdcl.conflicts"));
static PROGRESS_DECISIONS: LazyLock<posr_obs::Gauge> =
    LazyLock::new(|| posr_obs::gauge("cdcl.decisions"));
static PROGRESS_TRAIL: LazyLock<posr_obs::Gauge> =
    LazyLock::new(|| posr_obs::gauge("cdcl.trail_depth"));
static PROGRESS_PIVOTS: LazyLock<posr_obs::Gauge> =
    LazyLock::new(|| posr_obs::gauge("simplex.pivots"));

/// Pivots between cancellation polls in a *leaf* simplex check.  On
/// product tableaux with hundreds of rows a single check can run for
/// seconds — far past the search loop's per-iteration deadline poll — so
/// the unbounded check is sliced into resumable budget windows.  Large
/// enough that the slicing is free on normal instances (warm-started
/// checks rarely reach double digits).
const LEAF_CANCEL_SLICE: u64 = 4096;

/// Cumulative counters of a CDCL(T) engine (one search or a whole
/// incremental session — the counters never reset between
/// `Engine::solve` calls).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts resolved (clause learning events).
    pub conflicts: u64,
    /// Decisions taken: VSIDS picks and integer branches (assumption
    /// enqueues excluded).
    pub decisions: u64,
    /// Literals enqueued by unit propagation.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned over the engine's lifetime.
    pub learned_total: u64,
    /// Learned clauses currently in the database.
    pub learned_live: u64,
    /// Learned clauses dropped by the LBD-ranked GC.
    pub gc_dropped: u64,
    /// Theory fixpoint checks (bound propagation).
    pub bound_checks: u64,
    /// Divisibility (GCD) checks actually run.
    pub gcd_checks: u64,
    /// Simplex feasibility checks at leaves.
    pub simplex_checks: u64,
    /// Integrality checks of the rational model at leaves.
    pub final_checks: u64,
    /// Theory-propagated literals (bound-entailed atoms enqueued instead
    /// of being rediscovered as conflicts).
    pub theory_props: u64,
    /// Structural simplex pivots across all checks of the persistent
    /// tableau and the one-shot certifiers (the tableau warm-starts, so
    /// this is the direct measure of what the persistent basis saves over
    /// per-check reconstruction).  Derived from the `obs` pivot counter
    /// through a [`posr_obs::CounterScope`] attached for the engine's
    /// lifetime, so this and `simplex.pivots` cannot drift.
    pub simplex_pivots: u64,
    /// Tableau rows actually visited by pivot/update loops (the
    /// occurrence-indexed cost); the dense layout would have scanned the
    /// whole row set each time.  Derived from the `obs` row-touch counter
    /// like `simplex_pivots`.
    pub row_touches: u64,
    /// Always 0: the engine has no tableau-row propagation, so every
    /// theory-propagated literal comes from the interval scan and is
    /// counted in `theory_props`.  Kept because perfbench reports it as
    /// `lia.tprop_entailed`.
    pub tprop_entailed: u64,
}

impl SolverStats {
    /// The counter movement since `earlier` (field-wise saturating
    /// subtraction; `learned_live` is a gauge, not a counter, and is kept
    /// as-is).  This is how consumers of [`global_stats`] report "what my
    /// section did" without resetting the process-wide totals.
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        let (mut delta, mut earlier) = (*self, *earlier);
        for (_, field) in COUNTED {
            let before = *field(&mut earlier);
            let now = field(&mut delta);
            *now = now.saturating_sub(before);
        }
        delta
    }
}

/// One counter field of [`SolverStats`].
type Field = fn(&mut SolverStats) -> &mut u64;

/// Every counter field of [`SolverStats`] with the `obs` counter each
/// engine adds its movement to once per [`Engine::solve`].  The counters'
/// process-wide totals are [`global_stats`]; a [`posr_obs::CounterScope`]
/// attached to the solving threads sees exactly their share
/// ([`scope_stats`]).
const COUNTED: [(&str, Field); 13] = [
    ("lia.conflicts", |s| &mut s.conflicts),
    ("lia.decisions", |s| &mut s.decisions),
    ("lia.propagations", |s| &mut s.propagations),
    ("lia.restarts", |s| &mut s.restarts),
    ("lia.learned", |s| &mut s.learned_total),
    ("lia.gc_dropped", |s| &mut s.gc_dropped),
    ("lia.bound_checks", |s| &mut s.bound_checks),
    ("lia.gcd_checks", |s| &mut s.gcd_checks),
    ("lia.simplex_checks", |s| &mut s.simplex_checks),
    ("lia.final_checks", |s| &mut s.final_checks),
    ("lia.theory_props", |s| &mut s.theory_props),
    ("lia.simplex_pivots", |s| &mut s.simplex_pivots),
    ("lia.row_touches", |s| &mut s.row_touches),
];

static OBS_STATS: LazyLock<[posr_obs::Counter; 13]> =
    LazyLock::new(|| COUNTED.map(|(name, _)| posr_obs::counter(name)));

fn stats_from(value: impl Fn(posr_obs::Counter) -> u64) -> SolverStats {
    let mut stats = SolverStats::default();
    for ((_, field), counter) in COUNTED.iter().zip(*OBS_STATS) {
        *field(&mut stats) = value(counter);
    }
    stats
}

/// A snapshot of the process-wide cumulative CDCL counters (all engines,
/// all threads, since process start).
pub fn global_stats() -> SolverStats {
    stats_from(|c| c.value())
}

/// The CDCL counters of the solves made while `scope` was attached to
/// their thread — exact even when other solves run concurrently.
pub fn scope_stats(scope: &posr_obs::CounterScope) -> SolverStats {
    stats_from(|c| scope.get(c))
}

/// Decides a quantifier-free NNF formula with the CDCL(T) engine.
pub fn solve_cdcl(nnf: &Formula, config: &SolverConfig) -> SolverResult {
    solve_cdcl_with_proof(nnf, config).0
}

/// [`solve_cdcl`] variant that also returns the serialized proof document
/// when `SolverConfig::proof_logging` is on.  The document is meaningful
/// for `Unsat` answers (it ends in a `final` step an independent replayer
/// can verify); for other answers it is just the log so far.
pub fn solve_cdcl_with_proof(
    nnf: &Formula,
    config: &SolverConfig,
) -> (SolverResult, Option<String>) {
    let mut engine = Engine::empty(config.clone());
    engine.assert_nnf(nnf, None);
    let result = engine.solve(&[]);
    let doc = engine.proof().map(|p| p.serialize());
    (result, doc)
}

struct Clause {
    lits: Vec<Lit>,
    /// Learned (implied) clauses are excluded from the early-Sat check and
    /// are the GC's candidates.
    learnt: bool,
    /// Literal-block distance at learning time (0 for original clauses).
    lbd: u32,
    /// Stable id of this clause in the proof log (0 when logging is off).
    /// Strengthening keeps the id: the removed literals are root-false, so
    /// a replayer using the logged (longer) clause reaches the same units.
    proof_id: u64,
}

/// Accumulated wall time per theory sub-layer, and the part of it already
/// flushed into the `obs` counters.
#[derive(Clone, Copy, Default)]
struct LayerTimes {
    bound: Duration,
    gcd: Duration,
    explain: Duration,
    simplex: Duration,
}

/// The atoms of one constant-stripped linear form, sorted by threshold:
/// entry `(k, b)` means Boolean variable `b` asserts `form + k ≤ 0`.
/// Given the current interval `[min, max]` of `form`, the entailed-true
/// atoms are the prefix `k ≤ −max` and the entailed-false ones the suffix
/// `k ≥ 1 − min` — two binary-searchable runs.
#[derive(Default)]
struct FormAtoms {
    expr: LinExpr,
    atoms: Vec<(i128, usize)>,
}

/// The atom→bound registry driving theory propagation: every theory atom,
/// grouped by its constant-stripped form and sorted by threshold, plus a
/// variable→forms index so a bound-fixpoint only rescans the forms whose
/// variables actually tightened.
#[derive(Default)]
struct AtomTable {
    by_form: HashMap<LinExpr, usize>,
    forms: Vec<FormAtoms>,
    by_var: BTreeMap<Var, Vec<usize>>,
    /// Scan stamps (one slot per form) deduplicating the per-fixpoint
    /// form worklist without clearing a bitmap.
    stamps: Vec<u64>,
    cur_stamp: u64,
}

impl AtomTable {
    /// Registers the atom `var ⟺ (meaning ≤ 0)`.
    fn register(&mut self, var: usize, meaning: &LinExpr) {
        let (form, k) = split_meaning(meaning);
        let fi = match self.by_form.get(&form) {
            Some(&fi) => fi,
            None => {
                let fi = self.forms.len();
                for v in form.variables() {
                    self.by_var.entry(v).or_default().push(fi);
                }
                self.forms.push(FormAtoms {
                    expr: form.clone(),
                    atoms: Vec::new(),
                });
                self.stamps.push(0);
                self.by_form.insert(form, fi);
                fi
            }
        };
        let atoms = &mut self.forms[fi].atoms;
        let pos = atoms.partition_point(|&(key, _)| key < k);
        atoms.insert(pos, (k, var));
    }
}

pub(crate) struct Engine {
    config: SolverConfig,
    /// Interns the atoms and gates of every asserted formula, and the
    /// branch atoms of the integrality check; its variables are the
    /// engine's Boolean variables.
    clausifier: Clausifier,
    clauses: Vec<Clause>,
    /// Indices of the non-learned clauses (maintained by `attach` and
    /// rebuilt by `reduce_db`), so the early-Sat check scans only the
    /// originals instead of filtering the whole database per fixpoint.
    originals: Vec<u32>,
    /// `watches[lit.code()]`: indices of clauses currently watching `lit`.
    watches: Vec<Vec<u32>>,
    /// Assignment per variable: 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Per-literal theory constraint (extended by [`Engine::grow_theory`]).
    lit_constraint: Vec<Option<SimplexConstraint>>,
    /// Constraints of the assigned theory literals, in trail order.
    theory_stack: Vec<SimplexConstraint>,
    /// The literals the `theory_stack` entries came from (parallel).
    theory_lits: Vec<Lit>,
    /// Variable → constraint dependency index, kept in lock-step with
    /// `theory_stack` (pushed on enqueue, popped on backjump) so the
    /// worklist propagation never rebuilds it.
    theory_index: ConstraintIndex,
    /// Per-literal pre-compiled simplex bound (owner variable + normalised
    /// bound), computed once at [`Engine::grow_theory`] so asserting into
    /// the persistent tableau is a constant-time trail operation.
    lit_prepared: Vec<Option<PreparedBound>>,
    /// The persistent Dutertre–de Moura tableau: atoms registered at
    /// `grow_theory`, bounds asserted in lock-step with `theory_stack`
    /// (lazily, at leaf checks — `simplex.num_asserted()` is the synced
    /// prefix length), retracted on backjump, basis warm across the whole
    /// session.
    simplex: IncrementalSimplex,
    /// The atom→bound registry of theory propagation.
    atom_table: AtomTable,
    /// Per Boolean variable: the bound-trail length at the moment the
    /// variable was theory-propagated by the interval scan — its lazy
    /// explanation is read off the trail as of this mark.  Only
    /// meaningful while `reason[var] == TPROP_REASON`.
    tprop_mark: Vec<usize>,
    /// Collects the `obs` pivot/row-touch increments made on this engine's
    /// solving thread; `SolverStats::simplex_pivots` and `row_touches` are
    /// *derived* from it, so the two accountings cannot drift.
    pivot_scope: posr_obs::CounterScope,
    /// Prefix length of `theory_stack` known bound- and GCD-consistent.
    theory_checked: usize,
    /// The bound trail of `theory_stack[..theory_checked]`, one level per
    /// decision level; its entries index `theory_stack`.
    bounds: BoundEnv,
    /// The divisibility test's base: the root prefix of `theory_stack`,
    /// paired and eliminated once, extended by the entries each root-level
    /// check appends.
    gcd_base: GcdBase,
    /// Per decision level: `theory_checked` at decision time, restored on
    /// backjump (the bounds unwind on their own trail).
    theory_levels: Vec<usize>,
    /// Prefix length known rationally feasible.
    simplex_checked: usize,
    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Assumption literals of the current `solve` call, enqueued as
    /// pseudo-decisions at levels `1..=assumptions.len()`.
    assumptions: Vec<Lit>,
    stats: SolverStats,
    /// The portion of `stats` already flushed to the `obs` counters.
    flushed: SolverStats,
    /// GC threshold on live learned clauses; grows geometrically.
    max_learnts: usize,
    /// An empty clause was derived at the root: permanently unsatisfiable.
    root_unsat: bool,
    /// Conflict count at the start of the current `solve` call (the
    /// per-call budget baseline).
    solve_base_conflicts: u64,
    /// The per-call conflict budget: [`MAX_CONFLICTS`], lowered only by
    /// the unit test that reaches it.
    max_conflicts: u64,
    /// Branch decisions taken by the current `solve` call.
    branches: u64,
    /// The per-call branch budget: [`MAX_BRANCHES`], lowered only by the
    /// unit test that reaches it.
    max_branches: u64,
    cancelled: bool,
    times: LayerTimes,
    /// The part of `times` already flushed into the `obs` counters.
    flushed_times: LayerTimes,
    /// The proof log (`SolverConfig::proof_logging`); `None` = logging off.
    proof: Option<ProofBuilder>,
    /// Proof id to name in the `final` step of an Unsat answer: the derived
    /// empty clause or the assumption-core clause (0 = the root-level
    /// conflict a replayer finds by propagation alone).
    last_final_id: u64,
    /// After an Unsat answer: the subset of the `solve` call's assumptions
    /// refuted by the database (empty when the database itself is unsat).
    last_core: Option<Vec<Lit>>,
}

enum Step {
    /// A conflicting set of currently-false literals, paired with the
    /// proof id of the clause/lemma stating it (0 when logging is off).
    Conflict(Vec<Lit>, u64),
    Ok,
}

impl Engine {
    /// An engine over an empty clause database.
    pub(crate) fn empty(config: SolverConfig) -> Engine {
        let max_learnts = config.learnt_cap.max(1);
        let proof = config.proof_logging.then(ProofBuilder::new);
        Engine {
            config,
            clausifier: Clausifier::new(),
            clauses: Vec::new(),
            originals: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            lit_constraint: Vec::new(),
            theory_stack: Vec::new(),
            theory_lits: Vec::new(),
            theory_index: ConstraintIndex::default(),
            lit_prepared: Vec::new(),
            simplex: IncrementalSimplex::new(),
            atom_table: AtomTable::default(),
            tprop_mark: Vec::new(),
            pivot_scope: posr_obs::CounterScope::new(),
            theory_checked: 0,
            bounds: BoundEnv::new(),
            gcd_base: GcdBase::default(),
            theory_levels: Vec::new(),
            simplex_checked: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: VarHeap::new(0),
            phase: Vec::new(),
            seen: Vec::new(),
            assumptions: Vec::new(),
            stats: SolverStats::default(),
            flushed: SolverStats::default(),
            max_learnts,
            root_unsat: false,
            solve_base_conflicts: 0,
            max_conflicts: MAX_CONFLICTS,
            branches: 0,
            max_branches: MAX_BRANCHES,
            cancelled: false,
            times: LayerTimes::default(),
            flushed_times: LayerTimes::default(),
            proof,
            last_final_id: 0,
            last_core: None,
        }
    }

    /// The proof log, when `SolverConfig::proof_logging` is on.
    pub(crate) fn proof(&self) -> Option<&ProofBuilder> {
        self.proof.as_ref()
    }

    /// The unsat core of the last `solve` call: the subset of its
    /// assumptions refuted by the database (empty when the database is
    /// unsatisfiable regardless of assumptions).  `None` unless the last
    /// call answered `Unsat`.
    pub(crate) fn last_core(&self) -> Option<&[Lit]> {
        self.last_core.as_deref()
    }

    /// Logs a theory lemma; returns its proof id (0 when logging is off).
    fn log_lemma(&mut self, lits: &[Lit], kind: CertKind) -> u64 {
        match &mut self.proof {
            Some(p) => p.lemma(lits.to_vec(), kind),
            None => 0,
        }
    }

    /// Marks the proof incomplete (no-op when logging is off).
    fn proof_incomplete(&mut self, reason: &str) {
        if let Some(p) = &mut self.proof {
            p.mark_incomplete(reason);
        }
    }

    /// Clausifies a quantifier-free NNF formula into the database at the
    /// root: gate definitions unguarded, assertion clauses extended by
    /// `guard` (the `¬selector` of an incremental assertion frame, which
    /// a pop fixes true to retract them).
    pub(crate) fn assert_nnf(&mut self, nnf: &Formula, guard: Option<Lit>) {
        self.clausifier.assert_nnf(nnf);
        self.grow_theory();
        for definition in self.clausifier.take_new_definitions() {
            self.add_root_clause(definition);
        }
        for mut clause in self.clausifier.take_new_assertions() {
            clause.extend(guard);
            self.add_root_clause(clause);
        }
        if self.clausifier.take_unsat() {
            // a constant-false assertion, scoped to the guard's frame
            self.add_root_clause(guard.into_iter().collect());
        }
    }

    /// The literal of a quantifier-free NNF formula, exact in both
    /// polarities (see [`Clausifier::literal_of_nnf`]); the gate
    /// definitions it needs are added to the database.
    pub(crate) fn literal_of_nnf(&mut self, nnf: &Formula) -> LitOrConst {
        let lit = self.clausifier.literal_of_nnf(nnf);
        self.grow_theory();
        for definition in self.clausifier.take_new_definitions() {
            self.add_root_clause(definition);
        }
        lit
    }

    /// A fresh Boolean variable with no theory meaning (an assertion
    /// frame's selector).
    pub(crate) fn fresh_selector(&mut self) -> BoolVar {
        let var = self.clausifier.fresh_selector();
        self.grow_theory();
        var
    }

    /// Extends the variable tables to the clausifier's variables.
    ///
    /// `initial phase `true`: deciding a gate true drives its
    /// Plaisted–Greenbaum definition towards satisfaction, which is what
    /// the early-Sat check needs; phase saving adapts from there.
    fn grow_theory(&mut self) {
        let old = self.assign.len();
        let theory = self.clausifier.theory()[old..].to_vec();
        for (var, meaning) in (old..).zip(&theory) {
            let meaning = meaning.as_ref();
            let pos = constraint_of_meaning(meaning, true);
            let neg = constraint_of_meaning(meaning, false);
            // register the atom once: pre-compile both polarities against
            // the persistent tableau (creating the owning column/slack)
            // and index the atom for theory propagation
            let pos_prep = pos.as_ref().map(|c| self.simplex.prepare(c));
            let neg_prep = neg.as_ref().map(|c| self.simplex.prepare(c));
            self.lit_prepared.push(pos_prep);
            self.lit_prepared.push(neg_prep);
            if self.config.theory_propagation {
                if let Some(meaning) = meaning {
                    self.atom_table.register(var, meaning);
                }
            }
            if let Some(p) = &mut self.proof {
                if let Some(meaning) = meaning {
                    p.atom(var, meaning);
                }
            }
            self.lit_constraint.push(pos);
            self.lit_constraint.push(neg);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            self.assign.push(0);
            self.level.push(0);
            self.reason.push(NO_REASON);
            self.activity.push(0.0);
            self.phase.push(true);
            self.seen.push(false);
            self.tprop_mark.push(0);
            self.heap.grow(var, &self.activity);
        }
    }

    /// Adds a clause at the root level: normalises (duplicate and
    /// tautology elimination), drops root-satisfied clauses, strengthens
    /// away root-false literals, and handles the unit/empty cases.
    ///
    /// # Panics
    /// Panics (in debug builds) when called above decision level 0; the
    /// incremental layer only asserts between solves.
    pub(crate) fn add_root_clause(&mut self, mut lits: Vec<Lit>) {
        debug_assert_eq!(self.decision_level(), 0);
        lits.sort_unstable();
        lits.dedup();
        for pair in lits.windows(2) {
            if pair[0].var() == pair[1].var() {
                return; // l ∨ ¬l: tautology
            }
        }
        // every non-tautological input clause is logged as stated, before
        // the root-trail simplifications: the proof's axioms must match
        // the clauses the caller asserted, not their strengthened forms
        let pid = match &mut self.proof {
            Some(p) => p.root(lits.clone()),
            None => 0,
        };
        // at level 0 every assignment is permanent, so satisfied clauses
        // are dropped and false literals removed (both sound)
        if lits.iter().any(|&l| self.value(l) == 1) {
            return;
        }
        lits.retain(|&l| self.value(l) == 0);
        match lits.len() {
            0 => {
                self.root_unsat = true;
                self.last_final_id = 0;
            }
            1 => {
                if !self.enqueue_root(lits[0]) {
                    self.root_unsat = true;
                    self.last_final_id = 0;
                }
            }
            _ => {
                self.attach(Clause {
                    lits,
                    learnt: false,
                    lbd: 0,
                    proof_id: pid,
                });
            }
        }
    }

    /// Cumulative counters (never reset across `solve` calls).
    /// `simplex_pivots` and `row_touches` are derived from the engine's
    /// counter scope — the tableaux count in one place ([`IncrementalSimplex`]
    /// flushes into the `obs` counters) and this is the only other reader,
    /// so the two views cannot drift.
    pub(crate) fn stats(&self) -> SolverStats {
        let mut stats = self.stats;
        stats.learned_live = self.clauses.iter().filter(|c| c.learnt).count() as u64;
        stats.simplex_pivots = self.pivot_scope.get(crate::simplex::obs_pivot_counter());
        stats.row_touches = self
            .pivot_scope
            .get(crate::simplex::obs_row_touch_counter());
        stats
    }

    /// `true` when every *original* clause has a true literal: the
    /// remaining unassigned variables are don't-cares, so the current
    /// theory conjunction already decides the formula (learned clauses are
    /// implied and need not be consulted).  This is what lets satisfiable
    /// encodings finish without enumerating the thousands of irrelevant
    /// gate variables.
    fn original_clauses_satisfied(&self) -> bool {
        self.originals
            .iter()
            .map(|&i| &self.clauses[i as usize])
            .all(|c| c.lits.iter().any(|&l| self.value(l) == 1))
    }

    fn value(&self, lit: Lit) -> i8 {
        let a = self.assign[lit.var()];
        if lit.is_positive() {
            a
        } else {
            -a
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn attach(&mut self, clause: Clause) -> u32 {
        debug_assert!(clause.lits.len() >= 2);
        let idx = self.clauses.len() as u32;
        self.watches[clause.lits[0].code()].push(idx);
        self.watches[clause.lits[1].code()].push(idx);
        if !clause.learnt {
            self.originals.push(idx);
        }
        self.clauses.push(clause);
        idx
    }

    /// Enqueues a root-level literal; `false` on immediate contradiction.
    fn enqueue_root(&mut self, lit: Lit) -> bool {
        match self.value(lit) {
            1 => true,
            -1 => false,
            _ => {
                self.enqueue(lit, NO_REASON);
                true
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        debug_assert_eq!(self.value(lit), 0);
        let var = lit.var();
        self.assign[var] = if lit.is_positive() { 1 } else { -1 };
        self.level[var] = self.decision_level();
        self.reason[var] = reason;
        self.trail.push(lit);
        if let Some(c) = &self.lit_constraint[lit.code()] {
            self.theory_index.push(c);
            self.theory_stack.push(c.clone());
            self.theory_lits.push(lit);
        }
    }

    /// Backtracks to `target` decision level, saving phases.
    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let keep = self.trail_lim[target as usize];
        for i in (keep..self.trail.len()).rev() {
            let lit = self.trail[i];
            let var = lit.var();
            self.phase[var] = lit.is_positive();
            self.assign[var] = 0;
            self.reason[var] = NO_REASON;
            self.heap.insert(var, &self.activity);
            if self.lit_constraint[lit.code()].is_some() {
                let c = self.theory_stack.pop().expect("parallel stacks");
                self.theory_index.pop(&c);
                self.theory_lits.pop();
            }
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(target as usize);
        self.qhead = keep;
        self.theory_checked = self.theory_levels[target as usize];
        self.theory_levels.truncate(target as usize);
        self.bounds.pop_to_level(target as usize);
        self.simplex_checked = self.simplex_checked.min(self.theory_stack.len());
        // retract the bounds of the popped theory literals; only relaxes
        // intervals, so the warm basis and assignment stay valid
        self.simplex.retract_to(self.theory_stack.len());
    }

    fn new_decision_level(&mut self) {
        self.theory_levels.push(self.theory_checked);
        self.bounds.push_level();
        self.trail_lim.push(self.trail.len());
    }

    /// Two-watched-literal propagation to fixpoint.
    fn propagate(&mut self) -> Step {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let np = p.negate(); // this literal just became false
            let mut ws = std::mem::take(&mut self.watches[np.code()]);
            let mut i = 0;
            'clauses: while i < ws.len() {
                let ci = ws[i] as usize;
                // normalise: the false watch sits at position 1
                if self.clauses[ci].lits[0] == np {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.value(first) == 1 {
                    i += 1;
                    continue;
                }
                for k in 2..self.clauses[ci].lits.len() {
                    if self.value(self.clauses[ci].lits[k]) != -1 {
                        self.clauses[ci].lits.swap(1, k);
                        let new_watch = self.clauses[ci].lits[1];
                        self.watches[new_watch.code()].push(ws[i]);
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // no replacement: unit or conflict
                if self.value(first) == -1 {
                    let conflict = self.clauses[ci].lits.clone();
                    let pid = self.clauses[ci].proof_id;
                    self.watches[np.code()] = ws;
                    self.qhead = self.trail.len();
                    return Step::Conflict(conflict, pid);
                }
                self.stats.propagations += 1;
                self.enqueue(first, ws[i]);
                i += 1;
            }
            self.watches[np.code()] = ws;
        }
        Step::Ok
    }

    /// Checks the theory at a propagation fixpoint: *incremental* interval
    /// propagation of the constraints asserted since the last check on the
    /// bound trail (the worklist cascade of [`BoundEnv::propagate_from`]
    /// re-fires only the context constraints whose variables actually
    /// tightened, walking the persistent `theory_index`), then the
    /// divisibility test — but only when this check's delta changed its
    /// input: the propagation pinned a variable, or a new entry completed
    /// an equation.  At the root the delta is first absorbed into the
    /// test's base.  Everything below `theory_checked` passed both tests,
    /// so an unchanged input needs no re-run.  Refutations are explained
    /// from the trail; on backjump the trail pops its levels, so no
    /// fixpoint is ever recomputed from scratch.
    fn theory_check(&mut self) -> Step {
        if self.theory_stack.len() <= self.theory_checked {
            return Step::Ok;
        }
        self.stats.bound_checks += 1;
        let t0 = Instant::now();
        let budget = 32 * self.theory_stack.len().max(8);
        let mark = self.bounds.mark();
        let pinned = self.bounds.pinned_count();
        let outcome = self.bounds.propagate_from(
            &self.theory_stack,
            self.theory_checked..self.theory_stack.len(),
            &self.theory_index,
            budget,
        );
        self.times.bound += t0.elapsed();
        if outcome == BoundOutcome::Refuted {
            let t0 = Instant::now();
            let core = self.bounds.conflict_core(&self.theory_stack);
            let core = if core.len() <= MINIMIZE_CAP {
                explain::minimize_core_budgeted(
                    &self.theory_stack,
                    core,
                    &explain::bound_infeasible,
                    MINIMIZE_BUDGET,
                )
            } else {
                core
            };
            if self.proof.is_some() && !explain::bound_infeasible(&self.core_constraints(&core)) {
                // the trail's derivation can chain more rounds than a
                // from-scratch replay runs
                self.proof_incomplete("bound conflict deeper than a replayable chain");
            }
            self.times.explain += t0.elapsed();
            let conflict = self.core_to_conflict(&core);
            let pid = self.log_lemma(&conflict, CertKind::Bounds);
            return Step::Conflict(conflict, pid);
        }
        let t0 = Instant::now();
        let mut changed = self.bounds.pinned_count() != pinned;
        if self.decision_level() == 0 {
            // root pins are as permanent as the root itself
            let bounds = &self.bounds;
            changed |= self
                .gcd_base
                .absorb(&self.theory_stack, &|v| bounds.pinned_value(v));
        }
        changed = changed
            || self
                .gcd_base
                .completes_equation(&self.theory_stack, self.theory_checked);
        self.times.gcd += t0.elapsed();
        if changed {
            if let Step::Conflict(conflict, pid) = self.gcd_check() {
                return Step::Conflict(conflict, pid);
            }
        }
        self.theory_checked = self.theory_stack.len();
        self.theory_propagate(mark);
        Step::Ok
    }

    /// Theory propagation: scans the atoms of every form one of `changed`
    /// variables occurs in, and enqueues the literals the current
    /// intervals entail — with a [`TPROP_REASON`] marker instead of a
    /// materialised clause; the bound core justifying the literal is only
    /// computed if conflict analysis later resolves on it
    /// ([`Engine::explain_tprop`]).  This is what cuts the
    /// parity/bound conflicts of the tag encodings off levels early:
    /// a literal the intervals already decide never becomes a decision,
    /// so whole refutation subtrees are skipped instead of being
    /// re-learned clause by clause.
    fn theory_propagate(&mut self, mark: usize) {
        if !self.config.theory_propagation || self.bounds.mark() == mark {
            return;
        }
        self.atom_table.cur_stamp += 1;
        let stamp = self.atom_table.cur_stamp;
        let mut entailed: Vec<Lit> = Vec::new();
        for v in self.bounds.changed_since(mark) {
            let Some(form_ids) = self.atom_table.by_var.get(&v) else {
                continue;
            };
            for &fi in form_ids {
                if self.atom_table.stamps[fi] == stamp {
                    continue;
                }
                self.atom_table.stamps[fi] = stamp;
                let form = &self.atom_table.forms[fi];
                let (min, max) = self.bounds.expr_range(&form.expr);
                // form + k ≤ 0 is entailed true iff k ≤ −max(form) and
                // entailed false iff k ≥ 1 − min(form); the sorted atom
                // list makes both a run from one end
                if let Some(max) = max {
                    for &(k, b) in &form.atoms {
                        if k > -max {
                            break;
                        }
                        if self.assign[b] == 0 {
                            entailed.push(Lit::positive(b));
                        }
                    }
                }
                if let Some(min) = min {
                    for &(k, b) in form.atoms.iter().rev() {
                        if k < 1 - min {
                            break;
                        }
                        if self.assign[b] == 0 {
                            entailed.push(Lit::negative(b));
                        }
                    }
                }
            }
        }
        for lit in entailed {
            // an earlier enqueue of this scan may have assigned the
            // variable (the same atom can surface through several forms'
            // runs only if duplicated, but stay defensive)
            if self.assign[lit.var()] != 0 {
                continue;
            }
            self.stats.theory_props += 1;
            self.tprop_mark[lit.var()] = self.bounds.mark();
            self.enqueue(lit, TPROP_REASON);
            // a level-0 theory propagation extends the *root* trail, which
            // a replayer cannot reproduce from clauses alone — materialise
            // its explanation eagerly as a bound lemma
            if self.proof.is_some() && self.decision_level() == 0 {
                let lemma = self.explain_tprop(lit);
                self.log_lemma(&lemma, CertKind::Bounds);
            }
        }
    }

    /// Materialises the lazy explanation of a theory-propagated literal as
    /// a lemma clause a replayer verifies as a bound lemma.
    ///
    /// The explanation is read off the bound trail: the scan found the
    /// negated literal's constraint refuted by the bounds current at its
    /// mark, so the constraints those bounds rest on — walked back through
    /// the trail as of the mark — are asserted literals implying `lit`.
    /// Every entry below the mark outlives the literal (both sit on the
    /// literal's decision level or below).
    fn explain_tprop(&mut self, lit: Lit) -> Vec<Lit> {
        let t0 = Instant::now();
        let neg = self.lit_constraint[lit.negate().code()]
            .as_ref()
            .expect("theory-propagated literals carry a constraint");
        let core = self
            .bounds
            .explain_reads(neg, self.tprop_mark[lit.var()], &self.theory_stack);
        let mut lits = vec![lit];
        lits.extend(core.iter().map(|&i| self.theory_lits[i].negate()));
        self.times.explain += t0.elapsed();
        lits
    }

    /// Divisibility check over the asserted equality subsystem with the
    /// bound-pinned variables substituted out (the parity conflicts of
    /// loopy Parikh encodings), run on the base: only the rows whose pivot
    /// is pinned, the residual rows and the equalities above the root are
    /// eliminated.  One elimination both detects and explains: it reports
    /// the theory-stack entries it combined and the pinned values it used,
    /// and the bound trail explains the pins.
    fn gcd_check(&mut self) -> Step {
        self.stats.gcd_checks += 1;
        let t0 = Instant::now();
        let bounds = &self.bounds;
        let refuted = self
            .gcd_base
            .conflict_core(&self.theory_stack, &|v| bounds.pinned_value(v));
        self.times.gcd += t0.elapsed();
        let Some(gcd) = refuted else {
            return Step::Ok;
        };
        let t0 = Instant::now();
        let mut core = self.bounds.explain_pinned(&gcd.pinned, &self.theory_stack);
        core.extend(gcd.constraints);
        core.sort_unstable();
        core.dedup();
        if self.proof.is_some() && !gcd_refutes(&self.core_constraints(&core)) {
            // the base eliminated a variable before it was pinned, and the
            // checker's pins-first replay cannot follow that derivation;
            // forgo the refutation rather than log a lemma it rejects (the
            // search still decides the branch by simplex and splitting)
            self.times.explain += t0.elapsed();
            return Step::Ok;
        }
        let core = if core.len() <= MINIMIZE_CAP {
            explain::minimize_core_budgeted(&self.theory_stack, core, &gcd_refutes, MINIMIZE_BUDGET)
        } else {
            core
        };
        self.times.explain += t0.elapsed();
        let conflict = self.core_to_conflict(&core);
        let pid = self.log_lemma(&conflict, CertKind::Gcd);
        Step::Conflict(conflict, pid)
    }

    /// Simplex check of the asserted conjunction (run at the leaves); a
    /// refutation's explanation is the Farkas certificate of the stuck
    /// tableau row — already irreducible, no minimisation loop needed.
    ///
    /// The check runs on the engine's *persistent* tableau: the literals
    /// asserted since the last check are synced as O(1) bound assertions
    /// (their atoms were registered at [`Engine::grow_theory`]) and the
    /// pivot loop warm-starts from the previous basis, so a re-check after
    /// a handful of new bounds costs a few pivots instead of a full
    /// from-scratch solve.
    fn simplex_check(&mut self) -> Step {
        if self.theory_stack.len() <= self.simplex_checked {
            return Step::Ok;
        }
        self.stats.simplex_checks += 1;
        let _span = posr_obs::span!("simplex", "simplex.check");
        let t0 = Instant::now();
        let pivots_before = self.simplex.pivots();
        let outcome = self.sync_and_check();
        self.times.simplex += t0.elapsed();
        HIST_CHECK_PIVOTS.record(self.simplex.pivots() - pivots_before);
        match outcome {
            Some(Ok(())) => {
                self.simplex_checked = self.theory_stack.len();
                Step::Ok
            }
            Some(Err(core)) => {
                let core: Vec<usize> = core.iter().map(|&i| i as usize).collect();
                let (conflict, pid) = self.certified_conflict(core);
                Step::Conflict(conflict, pid)
            }
            None => {
                // cancelled mid-check: `simplex_checked` stays behind the
                // stack so nothing counts as verified, and the caller must
                // consult `self.cancelled` before trusting the `Ok`
                self.cancelled = true;
                Step::Ok
            }
        }
    }

    /// Sync-and-check on the persistent tableau.  Assertion tags are
    /// theory-stack indices, so both the O(1) clash cores of the sync and
    /// the Farkas cores of the pivot loop index asserted literals.
    ///
    /// The pivot loop runs in [`LEAF_CANCEL_SLICE`]-sized budget slices
    /// with a cancellation poll between them — on big tableaux a single
    /// check can pivot for seconds, far past the search loop's per-
    /// iteration poll.  `None` means cancelled: the tableau is left
    /// consistent mid-repair (a budget-exhausted check always is) and the
    /// remaining violations stay queued for whoever checks next.
    fn sync_and_check(&mut self) -> Option<Result<(), Vec<u32>>> {
        for i in self.simplex.num_asserted()..self.theory_stack.len() {
            let prepared = self.lit_prepared[self.theory_lits[i].code()]
                .clone()
                .expect("theory literals are registered at grow_theory");
            if let Err(core) = self.simplex.assert_prepared(&prepared, i as u32) {
                return Some(Err(core));
            }
        }
        loop {
            if let Some(result) = self.simplex.check_budgeted(LEAF_CANCEL_SLICE) {
                return Some(result);
            }
            // a single check can pivot for seconds: keep the watchdog's
            // pivot gauge moving between search-loop iterations
            PROGRESS_PIVOTS.set(crate::simplex::obs_pivot_counter().value());
            if self.config.cancel.can_fire() && self.config.cancel.is_cancelled() {
                return None;
            }
        }
    }

    /// The conflicting-clause form of a theory core: negations of the
    /// asserted literals the core names.
    fn core_to_conflict(&self, core: &[usize]) -> Vec<Lit> {
        core.iter().map(|&i| self.theory_lits[i].negate()).collect()
    }

    /// The asserted constraints a theory core names.
    fn core_constraints(&self, core: &[usize]) -> Vec<SimplexConstraint> {
        core.iter().map(|&i| self.theory_stack[i].clone()).collect()
    }

    /// The conflict clause of a simplex core, certified when proof
    /// logging is on: the core is logged as a theory lemma whose
    /// certificate kind the independent checker replays — an interval
    /// refutation, a GCD/elimination refutation, or (after deletion-
    /// minimising to an irreducible rational core) an exact Farkas
    /// combination recovered by Gaussian elimination.  With logging off
    /// this is exactly [`Engine::core_to_conflict`].
    fn certified_conflict(&mut self, mut core: Vec<usize>) -> (Vec<Lit>, u64) {
        if self.proof.is_none() {
            return (self.core_to_conflict(&core), 0);
        }
        let cs = self.core_constraints(&core);
        let kind = if explain::bound_infeasible(&cs) {
            CertKind::Bounds
        } else if gcd_refutes(&cs) {
            CertKind::Gcd
        } else {
            // a simplex core is rationally infeasible, and an irreducible
            // rationally-infeasible subsystem has Farkas multipliers that
            // are unique up to scale, so minimise first and recover them
            // without a tableau
            let t0 = Instant::now();
            if core.len() <= MINIMIZE_CAP {
                core = explain::minimize_core(&self.theory_stack, core, &|cs| {
                    !check_feasibility(cs).is_feasible()
                });
            }
            self.times.explain += t0.elapsed();
            let rows: Vec<crate::term::LinExpr> = core
                .iter()
                .map(|&i| le_row(&self.theory_stack[i]))
                .collect();
            match farkas_coefficients(&rows) {
                Some(lambda) => CertKind::Farkas(lambda),
                None => {
                    self.proof_incomplete("rational conflict without a Farkas certificate");
                    CertKind::Bounds
                }
            }
        };
        let conflict = self.core_to_conflict(&core);
        let pid = self.log_lemma(&conflict, kind);
        (conflict, pid)
    }

    /// Full assignment, with the persistent tableau rationally feasible:
    /// the integrality check.  An integral model (over the variables of
    /// the asserted constraints; the rest are unconstrained and read 0) is
    /// the answer.  Otherwise the fractional variable with the narrowest
    /// propagated interval is split — bounded variables (the 0/1 mismatch
    /// counters of the tag encodings) before unbounded ones (flow
    /// counters), because splitting a bounded variable terminates — by
    /// interning `x ≤ ⌊β(x)⌋` as the next decision.
    fn final_check(&mut self) -> FinalOutcome {
        self.stats.final_checks += 1;
        let mut values = BTreeMap::new();
        // (unbounded, width): bounded variables first, narrowest first
        let mut split: Option<(Var, Rat, (bool, i128))> = None;
        for (v, r) in self.simplex.model() {
            if self.theory_index.dependents(v).is_empty() {
                continue;
            }
            if let Some(k) = r.to_integer() {
                values.insert(v, k);
                continue;
            }
            let key = match self.bounds.var_range(v) {
                (Some(lo), Some(hi)) => (false, hi - lo),
                _ => (true, 0),
            };
            if split.as_ref().is_none_or(|&(_, _, best)| key < best) {
                split = Some((v, r, key));
            }
        }
        let Some((x, beta, _)) = split else {
            return FinalOutcome::Model(Model::from_values(values));
        };
        if self.branches >= self.max_branches || beta.abs() > Rat::from_int(MAX_BRANCH_MAGNITUDE) {
            return FinalOutcome::ResourceOut;
        }
        self.branches += 1;
        let atom = Formula::le(LinExpr::var(x), LinExpr::constant(beta.floor()));
        let LitOrConst::Lit(lit) = self.clausifier.literal_of_nnf(&atom) else {
            unreachable!("a single-variable atom is never constant");
        };
        self.grow_theory();
        // β satisfies every asserted bound and lies strictly between the
        // two branches, so neither polarity can be on the trail yet
        debug_assert_eq!(self.value(lit), 0);
        FinalOutcome::Branch(lit)
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(var, &self.activity);
    }

    /// 1UIP conflict analysis.  `conflict` is a set of literals all false
    /// under the current assignment, at least one at the current level.
    /// Returns the learned clause (asserting literal first), the backjump
    /// level, and — with proof logging on — the RUP hint chain: the proof
    /// ids of the resolved reasons in *forward trail order* followed by
    /// the conflict clause's id.  In that order each hint clause is unit
    /// (or conflicting) under the negated learned clause plus the root
    /// trail, so an independent replayer validates the clause by
    /// propagation alone.
    fn analyze(&mut self, conflict: Vec<Lit>, conflict_id: u64) -> (Vec<Lit>, u32, Vec<u64>) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit::positive(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut reason_lits: Vec<Lit> = conflict;
        let mut skip: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut hint_steps: Vec<(usize, u64)> = Vec::new();
        loop {
            for &q in &reason_lits {
                if Some(q) == skip {
                    continue;
                }
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // next seen literal on the trail
            loop {
                index -= 1;
                if self.seen[self.trail[index].var()] {
                    break;
                }
            }
            let p = self.trail[index];
            self.seen[p.var()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.negate();
                break;
            }
            let r = self.reason[p.var()];
            debug_assert_ne!(r, NO_REASON, "only the UIP may lack a reason");
            reason_lits = if r == TPROP_REASON {
                // lazy theory explanation, materialised only now that the
                // propagated literal is actually resolved on
                let lemma = self.explain_tprop(p);
                if self.proof.is_some() {
                    let id = self.log_lemma(&lemma, CertKind::Bounds);
                    hint_steps.push((index, id));
                }
                lemma
            } else {
                if self.proof.is_some() {
                    hint_steps.push((index, self.clauses[r as usize].proof_id));
                }
                self.clauses[r as usize].lits.clone()
            };
            skip = Some(p);
        }
        // backjump level: highest level among the non-UIP literals, which
        // also moves that literal into the second watch position
        let mut backjump = 0;
        for i in 1..learnt.len() {
            let lvl = self.level[learnt[i].var()];
            if lvl > backjump {
                backjump = lvl;
                learnt.swap(1, i);
            }
        }
        for &l in &learnt {
            self.seen[l.var()] = false;
        }
        let hints = if self.proof.is_some() {
            hint_steps.sort_unstable_by_key(|&(i, _)| i);
            let mut hints: Vec<u64> = hint_steps.into_iter().map(|(_, id)| id).collect();
            hints.push(conflict_id);
            hints
        } else {
            Vec::new()
        };
        (learnt, backjump, hints)
    }

    /// Literal-block distance of a learned clause: the number of distinct
    /// decision levels it spans (the standard quality measure driving GC).
    fn lbd_of(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// Learns from a conflict: analyse, backjump, assert.  `false` when the
    /// conflict is at the root level (search exhausted).
    fn resolve_conflict(&mut self, conflict: Vec<Lit>, conflict_id: u64) -> bool {
        self.stats.conflicts += 1;
        // theory conflicts may live entirely below the current level:
        // backtrack to the newest involved level first
        let max_level = conflict
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);
        self.cancel_until(max_level);
        if self.decision_level() == 0 {
            // the conflict clause is false on the root trail, so the empty
            // clause follows by propagation alone: one hint suffices
            if let Some(p) = &mut self.proof {
                let id = p.derived(Vec::new(), vec![conflict_id]);
                self.last_final_id = id;
            }
            return false;
        }
        let (learnt, backjump, hints) = self.analyze(conflict, conflict_id);
        self.cancel_until(backjump);
        let pid = match &mut self.proof {
            Some(p) => p.derived(learnt.clone(), hints),
            None => 0,
        };
        let asserting = learnt[0];
        let reason = if learnt.len() >= 2 {
            self.stats.learned_total += 1;
            let lbd = self.lbd_of(&learnt);
            HIST_LBD.record(lbd as u64);
            // approximate clause-DB growth for the memory account
            // (credited back when the GC drops the clause)
            posr_obs::budget::charge_mem(clause_bytes(learnt.len()));
            self.attach(Clause {
                lits: learnt,
                learnt: true,
                lbd,
                proof_id: pid,
            })
        } else {
            NO_REASON
        };
        self.enqueue(asserting, reason);
        self.var_inc /= 0.95;
        true
    }

    /// Final conflict analysis at a failed assumption (MiniSat's
    /// `analyzeFinal`): `failed` is the pending assumption the current
    /// trail falsifies.  Walks the implication graph back from `¬failed`
    /// to the subset of *assumptions* it depends on — the unsat core —
    /// and, with proof logging on, derives the clause of negated core
    /// assumptions with the same forward-trail-order hint chain as
    /// [`Engine::analyze`] (here the falsifying reasons close the chain,
    /// so no separate conflict clause is appended).
    fn analyze_final(&mut self, failed: Lit) {
        let mut clause = vec![failed.negate()];
        let mut core = vec![failed];
        let mut hint_steps: Vec<(usize, u64)> = Vec::new();
        if self.level[failed.var()] > 0 {
            self.seen[failed.var()] = true;
            let start = self.trail_lim[0];
            for i in (start..self.trail.len()).rev() {
                let l = self.trail[i];
                let v = l.var();
                if !self.seen[v] {
                    continue;
                }
                self.seen[v] = false;
                let r = self.reason[v];
                if r == NO_REASON {
                    // above root level every reasonless literal is an
                    // assumption pseudo-decision (search decisions only
                    // happen once all assumptions are enqueued)
                    clause.push(l.negate());
                    core.push(l);
                    continue;
                }
                let reason_lits = if r == TPROP_REASON {
                    let lemma = self.explain_tprop(l);
                    if self.proof.is_some() {
                        let id = self.log_lemma(&lemma, CertKind::Bounds);
                        hint_steps.push((i, id));
                    }
                    lemma
                } else {
                    if self.proof.is_some() {
                        hint_steps.push((i, self.clauses[r as usize].proof_id));
                    }
                    self.clauses[r as usize].lits.clone()
                };
                for q in reason_lits {
                    if q.var() != v && self.level[q.var()] > 0 {
                        self.seen[q.var()] = true;
                    }
                }
            }
        }
        self.last_core = Some(core);
        if let Some(p) = &mut self.proof {
            hint_steps.sort_unstable_by_key(|&(i, _)| i);
            let hints: Vec<u64> = hint_steps.into_iter().map(|(_, id)| id).collect();
            let id = p.derived(clause, hints);
            self.last_final_id = id;
        }
    }

    /// LBD-ranked learned-clause garbage collection, run at decision level
    /// 0: binary lemmas always survive, the worse half of the rest (higher
    /// LBD, then older) is dropped.  Root-satisfied clauses of *any* kind
    /// are removed — this is what reclaims the guarded clauses of popped
    /// assertion frames — and root-false literals are strengthened away.
    /// Watches are rebuilt from scratch.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        posr_obs::instant("cdcl", "cdcl.gc");
        // root-level literals never participate in conflict analysis, so
        // their reason clauses are not needed and no clause is locked
        for r in &mut self.reason {
            *r = NO_REASON;
        }
        // rank the disposable learned clauses: keep low LBD, then newer
        let mut disposable: Vec<(u32, std::cmp::Reverse<usize>)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && c.lits.len() > GC_EXEMPT_LEN)
            .map(|(i, c)| (c.lbd, std::cmp::Reverse(i)))
            .collect();
        disposable.sort_unstable();
        let cutoff = disposable.len() / 2;
        let mut drop_mask = vec![false; self.clauses.len()];
        for &(_, std::cmp::Reverse(i)) in &disposable[cutoff..] {
            drop_mask[i] = true;
            self.stats.gc_dropped += 1;
        }
        let old = std::mem::take(&mut self.clauses);
        self.originals.clear();
        for w in &mut self.watches {
            w.clear();
        }
        for (i, mut clause) in old.into_iter().enumerate() {
            if drop_mask[i] {
                if let Some(p) = &mut self.proof {
                    p.delete(clause.proof_id);
                }
                posr_obs::budget::uncharge_mem(clause_bytes(clause.lits.len()));
                continue;
            }
            if clause.lits.iter().any(|&l| self.value(l) == 1) {
                // satisfied at the root: permanently true, and never again
                // an antecedent of a learned clause
                if let Some(p) = &mut self.proof {
                    p.delete(clause.proof_id);
                }
                continue;
            }
            // strengthening keeps the proof id: the removed literals are
            // root-false, so replaying the logged clause is equivalent
            clause.lits.retain(|&l| self.value(l) == 0);
            match clause.lits.len() {
                0 => {
                    self.root_unsat = true;
                    self.last_final_id = 0;
                }
                1 => {
                    if !self.enqueue_root(clause.lits[0]) {
                        self.root_unsat = true;
                        self.last_final_id = 0;
                    }
                }
                _ => {
                    self.attach(clause);
                }
            }
        }
    }

    fn decide(&mut self) -> bool {
        while let Some(var) = self.heap.pop_max(&self.activity) {
            if self.assign[var] == 0 {
                let lit = if self.phase[var] {
                    Lit::positive(var)
                } else {
                    Lit::negative(var)
                };
                self.stats.decisions += 1;
                self.new_decision_level();
                self.enqueue(lit, NO_REASON);
                return true;
            }
        }
        false
    }

    /// The `Unknown` of a fired cancel token, naming how it fired: flag or
    /// deadline.
    fn cancelled_unknown(&self) -> SolverResult {
        SolverResult::Unknown(self.config.cancel.unknown_reason())
    }

    /// Decides the current clause database under `assumptions`.
    ///
    /// `Unsat` means the database is unsatisfiable *under the assumptions*
    /// (for the incremental layer: the live assertion frames, selected by
    /// their guard literals, plus the caller's extra assumptions).  The
    /// engine backtracks to the root before returning, keeping learned
    /// clauses, activities and phases for the next call.
    pub(crate) fn solve(&mut self, assumptions: &[Lit]) -> SolverResult {
        self.cancelled = false;
        self.branches = 0;
        self.last_core = None;
        if let Some(p) = &mut self.proof {
            p.query();
            for &a in assumptions {
                p.assume(a);
            }
        }
        if !self.root_unsat {
            // between-solve GC: long incremental sessions accumulate
            // learned clauses even when no single search restarts
            let live = self.clauses.iter().filter(|c| c.learnt).count();
            if live > self.max_learnts {
                self.reduce_db();
                self.max_learnts += self.max_learnts / 2;
            }
        }
        if self.root_unsat {
            self.flush_global();
            self.finish_query(&SolverResult::Unsat);
            return SolverResult::Unsat;
        }
        self.assumptions = assumptions.to_vec();
        self.solve_base_conflicts = self.stats.conflicts;
        let result = {
            let _span = posr_obs::span!("cdcl", "cdcl.solve");
            // every tableau this call touches (the persistent one and the
            // one-shot certifiers) flushes its pivot/row-touch counts into
            // the obs counters; the attached scope is what `stats()`
            // derives them from
            let _pivots = self.pivot_scope.attach();
            self.search()
        };
        self.cancel_until(0);
        self.assumptions.clear();
        self.flush_global();
        self.finish_query(&result);
        result
    }

    /// Closes out a query in the proof log: an `Unsat` answer is sealed
    /// with a `final` step naming the clause that refutes the query (and
    /// gets an unsat core, empty unless assumptions were refuted); any
    /// other answer clears the stale core.
    fn finish_query(&mut self, result: &SolverResult) {
        if matches!(result, SolverResult::Unsat) {
            if self.last_core.is_none() {
                self.last_core = Some(Vec::new());
            }
            if let Some(p) = &mut self.proof {
                p.finish(self.last_final_id);
            }
        } else {
            self.last_core = None;
        }
    }

    /// Publishes the stall watchdog's progress gauges (relaxed stores; a
    /// black-box dump reports the latest values).  Called once per search
    /// iteration — decision/conflict cadence, far off the propagation hot
    /// path.
    fn publish_progress(&self) {
        PROGRESS_CONFLICTS.set(self.stats.conflicts);
        PROGRESS_DECISIONS.set(self.stats.decisions);
        PROGRESS_TRAIL.set(self.trail.len() as u64);
        PROGRESS_PIVOTS.set(crate::simplex::obs_pivot_counter().value());
    }

    fn search(&mut self) -> SolverResult {
        let mut restart_limit = RESTART_BASE * luby(self.stats.restarts);
        let mut conflicts_at_restart = self.stats.conflicts;
        loop {
            self.publish_progress();
            // chaos-test injection point: the search loop absorbs every
            // fault kind (panics unwind to the entry-point catch, a forced
            // cancel fires the token below, an overflow takes the marker
            // path the slow lane and catch both know)
            match posr_obs::fault::fire(
                "cdcl.search",
                &[
                    posr_obs::FaultKind::Panic,
                    posr_obs::FaultKind::Delay,
                    posr_obs::FaultKind::Cancel,
                    posr_obs::FaultKind::Overflow,
                ],
            ) {
                Some(posr_obs::FaultKind::Cancel) => self.config.cancel.cancel(),
                Some(posr_obs::FaultKind::Overflow) => crate::rational::overflow_panic(),
                _ => {}
            }
            if self.config.cancel.can_fire() && self.config.cancel.is_cancelled() {
                self.cancelled = true;
                return self.cancelled_unknown();
            }
            if self.stats.conflicts - self.solve_base_conflicts >= self.max_conflicts {
                return SolverResult::Unknown(RESOURCE_OUT_MSG.to_string());
            }
            let step = match self.propagate() {
                Step::Conflict(c, id) => Step::Conflict(c, id),
                Step::Ok => self.theory_check(),
            };
            match step {
                Step::Conflict(conflict, conflict_id) => {
                    if !self.resolve_conflict(conflict, conflict_id) {
                        self.root_unsat = true;
                        return SolverResult::Unsat;
                    }
                }
                Step::Ok => {
                    // theory propagation enqueued literals: run Boolean
                    // propagation over them before anything else
                    if self.qhead < self.trail.len() {
                        continue;
                    }
                    // assumptions are enqueued as pseudo-decisions before
                    // any search decision; a false assumption means the
                    // database refutes the assumption set
                    if (self.decision_level() as usize) < self.assumptions.len() {
                        let lit = self.assumptions[self.decision_level() as usize];
                        match self.value(lit) {
                            -1 => {
                                self.analyze_final(lit);
                                return SolverResult::Unsat;
                            }
                            1 => {
                                // already implied: push an empty level so
                                // the remaining assumptions keep their slots
                                self.new_decision_level();
                            }
                            _ => {
                                self.new_decision_level();
                                self.enqueue(lit, NO_REASON);
                            }
                        }
                        continue;
                    }
                    if self.trail.len() == self.assign.len() || self.original_clauses_satisfied() {
                        // full assignment (or all original clauses already
                        // satisfied): exact checks
                        if let Step::Conflict(c, id) = self.simplex_check() {
                            if !self.resolve_conflict(c, id) {
                                self.root_unsat = true;
                                return SolverResult::Unsat;
                            }
                            continue;
                        }
                        if self.cancelled {
                            // the check was cut off mid-repair; its Ok is
                            // not a feasibility verdict
                            return self.cancelled_unknown();
                        }
                        match self.final_check() {
                            FinalOutcome::Model(model) => return SolverResult::Sat(model),
                            FinalOutcome::Branch(lit) => {
                                self.stats.decisions += 1;
                                self.new_decision_level();
                                self.enqueue(lit, NO_REASON);
                            }
                            FinalOutcome::ResourceOut => {
                                return SolverResult::Unknown(RESOURCE_OUT_MSG.to_string())
                            }
                        }
                    } else {
                        if self.stats.conflicts - conflicts_at_restart >= restart_limit {
                            self.stats.restarts += 1;
                            posr_obs::instant("cdcl", "cdcl.restart");
                            conflicts_at_restart = self.stats.conflicts;
                            restart_limit = RESTART_BASE * luby(self.stats.restarts);
                            self.cancel_until(0);
                            let live = self.clauses.iter().filter(|c| c.learnt).count();
                            if live > self.max_learnts {
                                self.reduce_db();
                                if self.root_unsat {
                                    return SolverResult::Unsat;
                                }
                                self.max_learnts += self.max_learnts / 2;
                            }
                            continue;
                        }
                        if !self.decide() {
                            // defensive: every variable assigned — handled by
                            // the full-assignment branch next iteration
                            continue;
                        }
                    }
                }
            }
        }
    }

    /// Adds the counters accumulated since the last flush to their `obs`
    /// counters ([`COUNTED`]), and the sub-layer times to theirs.
    fn flush_global(&mut self) {
        let now = self.stats();
        let mut delta = now.since(&self.flushed);
        for ((_, field), counter) in COUNTED.iter().zip(*OBS_STATS) {
            counter.add(*field(&mut delta));
        }
        self.flushed = now;
        let (t, f) = (self.times, self.flushed_times);
        for (counter, now, before) in [
            (*OBS_BOUND_US, t.bound, f.bound),
            (*OBS_GCD_US, t.gcd, f.gcd),
            (*OBS_EXPLAIN_US, t.explain, f.explain),
            (*OBS_SIMPLEX_US, t.simplex, f.simplex),
        ] {
            counter.add((now.as_micros() - before.as_micros()) as u64);
        }
        self.flushed_times = t;
    }
}

/// What the integrality check at a leaf found.
enum FinalOutcome {
    /// The rational model is integral: the answer.
    Model(Model),
    /// The model is fractional: decide this branch literal.
    Branch(Lit),
    /// Splitting would exceed [`MAX_BRANCHES`] or [`MAX_BRANCH_MAGNITUDE`].
    ResourceOut,
}

/// The `lhs ≤ 0` row of an asserted constraint — the orientation the
/// Farkas recovery and the independent checker agree on.  `Eq` never
/// reaches the theory stack (the clausifier splits it into ≤-halves).
fn le_row(c: &SimplexConstraint) -> crate::term::LinExpr {
    match c.rel {
        Rel::Ge => -c.expr.clone(),
        Rel::Le | Rel::Eq => c.expr.clone(),
    }
}

/// The Luby restart sequence `1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …` (0-based).
fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = i;
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// An indexed max-heap over variable activities (the VSIDS order).
struct VarHeap {
    heap: Vec<usize>,
    /// Position of each variable in `heap`, `usize::MAX` when absent.
    pos: Vec<usize>,
}

impl VarHeap {
    fn new(n: usize) -> VarHeap {
        let mut h = VarHeap {
            heap: (0..n).collect(),
            pos: (0..n).collect(),
        };
        // all activities start equal; the identity layout is a valid heap
        debug_assert_eq!(h.heap.len(), h.pos.len());
        h.heap.shrink_to_fit();
        h
    }

    /// Registers variable `var` (the next dense index) and queues it.
    fn grow(&mut self, var: usize, activity: &[f64]) {
        debug_assert_eq!(var, self.pos.len());
        self.pos.push(usize::MAX);
        self.insert(var, activity);
    }

    fn contains(&self, var: usize) -> bool {
        self.pos[var] != usize::MAX
    }

    fn insert(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            return;
        }
        self.pos[var] = self.heap.len();
        self.heap.push(var);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores heap order after `var`'s activity increased.
    fn update(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            self.sift_up(self.pos[var], activity);
        }
    }

    fn pop_max(&mut self, activity: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.pos[top] = usize::MAX;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i]] <= activity[self.heap[parent]] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len() && activity[self.heap[l]] > activity[self.heap[largest]] {
                largest = l;
            }
            if r < self.heap.len() && activity[self.heap[r]] > activity[self.heap[largest]] {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap(i, largest);
            i = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a]] = a;
        self.pos[self.heap[b]] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{LinExpr, VarPool};

    fn solve(f: &Formula) -> SolverResult {
        solve_cdcl(&f.nnf().simplify(), &SolverConfig::default())
    }

    fn engine_for(f: &Formula, config: SolverConfig) -> Engine {
        let mut engine = Engine::empty(config);
        engine.assert_nnf(&f.nnf().simplify(), None);
        engine
    }

    #[test]
    fn luby_sequence_is_correct() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn heap_orders_by_activity() {
        let mut heap = VarHeap::new(4);
        let activity = [1.0, 9.0, 3.0, 7.0];
        // update with the real activities
        for v in 0..4 {
            heap.update(v, &activity);
        }
        let mut order = Vec::new();
        while let Some(v) = heap.pop_max(&activity) {
            order.push(v);
        }
        assert_eq!(order, vec![1, 3, 2, 0]);
        heap.insert(2, &activity);
        heap.insert(1, &activity);
        assert_eq!(heap.pop_max(&activity), Some(1));
    }

    #[test]
    fn sat_conjunction_produces_model() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let f = Formula::and(vec![
            Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(5)),
            Formula::ge(LinExpr::var(x), LinExpr::constant(2)),
            Formula::ge(LinExpr::var(y), LinExpr::constant(2)),
        ]);
        match solve(&f) {
            SolverResult::Sat(m) => assert!(m.satisfies(&f)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_interval_gap() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::and(vec![
            Formula::ge(LinExpr::scaled_var(x, 3), LinExpr::constant(1)),
            Formula::le(LinExpr::scaled_var(x, 3), LinExpr::constant(2)),
        ]);
        assert_eq!(solve(&f), SolverResult::Unsat);
    }

    #[test]
    fn backjump_level_is_second_highest() {
        // drive the engine over a pigeonhole-flavoured instance whose
        // refutation requires learning across levels; correctness of the
        // backjump computation shows up as termination with Unsat
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..6).map(|i| pool.fresh(&format!("x{i}"))).collect();
        let mut conjuncts = Vec::new();
        for &v in &vars {
            conjuncts.push(Formula::or(vec![
                Formula::eq(LinExpr::var(v), LinExpr::constant(0)),
                Formula::eq(LinExpr::var(v), LinExpr::constant(1)),
            ]));
        }
        conjuncts.push(Formula::ge(
            LinExpr::sum_of_vars(vars.iter().copied()),
            LinExpr::constant(7),
        ));
        assert_eq!(solve(&Formula::and(conjuncts)), SolverResult::Unsat);
    }

    #[test]
    fn watched_literal_invariant_holds_under_search() {
        // a formula with many ternary clauses; after solving, every clause's
        // first two literals must be watched exactly by that clause
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..5).map(|i| pool.fresh(&format!("v{i}"))).collect();
        let mut conjuncts = Vec::new();
        for w in vars.windows(3) {
            conjuncts.push(Formula::or(vec![
                Formula::ge(LinExpr::var(w[0]), LinExpr::constant(1)),
                Formula::ge(LinExpr::var(w[1]), LinExpr::constant(1)),
                Formula::ge(LinExpr::var(w[2]), LinExpr::constant(1)),
            ]));
        }
        conjuncts.push(Formula::le(
            LinExpr::sum_of_vars(vars.iter().copied()),
            LinExpr::constant(1),
        ));
        for &v in &vars {
            conjuncts.push(Formula::ge(LinExpr::var(v), LinExpr::constant(0)));
            conjuncts.push(Formula::le(LinExpr::var(v), LinExpr::constant(1)));
        }
        let f = Formula::and(conjuncts);
        let mut engine = engine_for(&f, SolverConfig::default());
        let result = engine.solve(&[]);
        assert!(result.is_sat(), "got {result:?}");
        // invariant: every clause index appears in the watch lists of its
        // first two literals
        for (ci, clause) in engine.clauses.iter().enumerate() {
            for &watched in &clause.lits[..2] {
                assert!(
                    engine.watches[watched.code()].contains(&(ci as u32)),
                    "clause {ci} not watched by {watched:?}"
                );
            }
            for &other in &clause.lits[2..] {
                assert!(
                    !engine.watches[other.code()].contains(&(ci as u32)),
                    "clause {ci} spuriously watched by {other:?}"
                );
            }
        }
    }

    #[test]
    fn disequality_chain_unsat() {
        // x ∈ [0,1], x ≠ 0, x ≠ 1
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(1)),
            Formula::ne(LinExpr::var(x), LinExpr::constant(0)),
            Formula::ne(LinExpr::var(x), LinExpr::constant(1)),
        ]);
        assert_eq!(solve(&f), SolverResult::Unsat);
    }

    #[test]
    fn trivial_formulas() {
        assert!(solve(&Formula::True).is_sat());
        assert_eq!(solve(&Formula::False), SolverResult::Unsat);
    }

    #[test]
    fn repeated_solves_reuse_the_engine() {
        // a sat instance solved twice on one engine: the second call must
        // agree and keep the cumulative counters monotone
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let f = Formula::and(vec![
            Formula::or(vec![
                Formula::eq(LinExpr::var(x), LinExpr::constant(1)),
                Formula::eq(LinExpr::var(x), LinExpr::constant(2)),
            ]),
            Formula::eq(LinExpr::var(y), LinExpr::var(x) + LinExpr::constant(1)),
        ]);
        let mut engine = engine_for(&f, SolverConfig::default());
        let first = engine.solve(&[]);
        assert!(first.is_sat());
        let after_first = engine.stats();
        let second = engine.solve(&[]);
        assert!(second.is_sat());
        let after_second = engine.stats();
        assert!(after_second.decisions >= after_first.decisions);
        assert!(after_second.final_checks > after_first.final_checks);
    }

    #[test]
    fn assumption_solving_is_scoped() {
        // x ∈ [0, 5]; assuming x ≤ -1 is unsat, but the engine itself
        // stays satisfiable afterwards
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(5)),
        ]);
        let mut engine = engine_for(&f, SolverConfig::default());
        let bad = engine.literal_of_nnf(&Formula::le(LinExpr::var(x), LinExpr::constant(-1)).nnf());
        let LitOrConst::Lit(bad) = bad else {
            panic!("expected a literal");
        };
        assert_eq!(engine.solve(&[bad]), SolverResult::Unsat);
        assert!(engine.solve(&[]).is_sat());
        assert!(engine.solve(&[bad.negate()]).is_sat());
    }

    /// Pigeonhole over integer atoms (`p ≥ 1` and its complement `p ≤ 0`):
    /// every pigeon sits in some hole, and pairwise at-most-one clauses
    /// keep each hole to one pigeon.
    fn pigeonhole(pigeons: usize, holes: usize) -> Formula {
        let mut pool = VarPool::new();
        let p: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| pool.fresh("p")).collect())
            .collect();
        let (seated, empty) = (
            |v| Formula::ge(LinExpr::var(v), LinExpr::constant(1)),
            |v| Formula::le(LinExpr::var(v), LinExpr::constant(0)),
        );
        let mut conjuncts: Vec<Formula> = p
            .iter()
            .map(|row| Formula::or(row.iter().map(|&v| seated(v)).collect()))
            .collect();
        for (a, first) in p.iter().enumerate() {
            for second in &p[a + 1..] {
                for (&x, &y) in first.iter().zip(second) {
                    conjuncts.push(Formula::or(vec![empty(x), empty(y)]));
                }
            }
        }
        Formula::and(conjuncts)
    }

    #[test]
    fn conflict_cap_answers_unknown() {
        // the real cap takes seconds of search to reach, so lower this
        // engine's copy; pigeonhole refutations need far more conflicts
        let mut engine = engine_for(&pigeonhole(7, 6), SolverConfig::default());
        engine.max_conflicts = 50;
        assert_eq!(
            engine.solve(&[]),
            SolverResult::Unknown(RESOURCE_OUT_MSG.to_string())
        );
        assert_eq!(engine.stats().conflicts, 50);
    }

    #[test]
    fn branch_cap_answers_unknown_never_unsat() {
        // 1 ≤ 3x − 3y ≤ 2 over a box: rationally feasible, no bound pins
        // anything and there is no equation for the GCD test, so only
        // splitting refutes it.  A one-branch cap must stop the search
        // short of that refutation, and the capped answer is `Unknown`.
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let diff = LinExpr::scaled_var(x, 3) - LinExpr::scaled_var(y, 3);
        let f = Formula::and(vec![
            Formula::ge(diff.clone(), LinExpr::constant(1)),
            Formula::le(diff, LinExpr::constant(2)),
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(40)),
            Formula::ge(LinExpr::var(y), LinExpr::constant(0)),
            Formula::le(LinExpr::var(y), LinExpr::constant(40)),
        ]);
        let mut engine = engine_for(&f, SolverConfig::default());
        engine.max_branches = 1;
        assert_eq!(
            engine.solve(&[]),
            SolverResult::Unknown(RESOURCE_OUT_MSG.to_string())
        );
        // the capped call left nothing behind that a full search distrusts
        engine.max_branches = MAX_BRANCHES;
        assert_eq!(engine.solve(&[]), SolverResult::Unsat);
        assert!(engine.stats().decisions > 1, "{:?}", engine.stats());
    }

    #[test]
    fn reduce_db_keeps_verdicts_and_drops_clauses() {
        // an unsat pigeonhole instance learns clauses on the way to the
        // refutation; re-solving under a tiny learnt cap fires the
        // between-solve GC, and the verdict must stay Unsat throughout
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..12).map(|i| pool.fresh(&format!("x{i}"))).collect();
        let mut conjuncts = Vec::new();
        for &v in &vars {
            conjuncts.push(Formula::or(vec![
                Formula::eq(LinExpr::var(v), LinExpr::constant(0)),
                Formula::eq(LinExpr::var(v), LinExpr::constant(1)),
                Formula::eq(LinExpr::var(v), LinExpr::constant(2)),
            ]));
        }
        // pairwise-coupled sums keep the per-conflict clauses long enough
        // that the GC's binary exemption does not protect everything
        for w in vars.windows(4) {
            conjuncts.push(Formula::le(
                LinExpr::sum_of_vars(w.iter().copied()),
                LinExpr::constant(5),
            ));
        }
        conjuncts.push(Formula::ge(
            LinExpr::sum_of_vars(vars.iter().copied()),
            LinExpr::constant(19),
        ));
        let f = Formula::and(conjuncts);
        let config = SolverConfig {
            learnt_cap: 1,
            // theory propagation refutes this family in so few conflicts
            // that no restart (hence no in-search GC) ever fires; this
            // test targets the GC, so keep the conflict-driven dynamics
            theory_propagation: false,
            ..SolverConfig::default()
        };
        let mut engine = engine_for(&f, config);
        let first = engine.solve(&[]);
        assert_eq!(first, SolverResult::Unsat);
        let stats = engine.stats();
        assert!(
            stats.learned_total > 1,
            "instance must actually learn clauses: {stats:?}"
        );
        let live_before = stats.learned_live;
        let second = engine.solve(&[]);
        assert_eq!(second, SolverResult::Unsat);
        let stats = engine.stats();
        assert!(
            stats.gc_dropped > 0 || stats.learned_live < live_before,
            "the between-solve GC must reclaim something: {stats:?} (live before {live_before})"
        );
    }
}
