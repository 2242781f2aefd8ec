//! The general tag-automaton construction for an arbitrary system of
//! position constraints (Sec. 5.3, Sec. 6 and Appendix C of the paper), and
//! its reduction to a quantifier-free LIA formula.
//!
//! Given `K` position predicates over string variables constrained by regular
//! languages, the construction builds `2K + 1` copies of the ε-concatenation
//! `A∘` of the per-variable `LenTag` automata.  A run nondeterministically
//! guesses up to `2K` mismatch samples (tags `⟨Mᵢ,x,D,s,a⟩`) or copy tags
//! (`⟨Cᵢ,x,D,s⟩`, sharing a previously sampled mismatch), and the LIA formula
//! `φ_comb = PF_tag ∧ φ_Fair ∧ φ_Consistent ∧ φ_Copies ∧ ⋀ₖ φ_Sat^k`
//! checks that every predicate is discharged either by a length argument or
//! by a correctly aligned mismatch.
//!
//! With `K = 1` the construction specialises to `A^II` of Sec. 5.2, which is
//! also the basis of the `¬prefixof`, `¬suffixof` and `str.at` encodings of
//! Sec. 6.
//!
//! Two places deliberately deviate from the letter (not the spirit) of the
//! paper's formulas, both to fix apparent off-by-one/completeness glitches:
//!
//! * the local mismatch position referenced through a *copy* tag is the
//!   position of the mismatch letter itself, i.e. `Σ_{k ≤ l} #⟨P_k,x⟩ − 1`
//!   rather than Eq. 42's `Σ_{k ≤ l} #⟨P_k,x⟩` (the copied mismatch letter
//!   carries a `P` tag of its own level, which Eq. 42 would double-count);
//! * `x ≠ str.at(t, i)` additionally holds when `x = ε` and `i` is a valid
//!   position of `t` (Eq. 27 omits this disjunct).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::LazyLock;
use std::time::Instant;

use posr_automata::{Nfa, Symbol};
use posr_lia::cancel::CancelToken;
use posr_lia::formula::Formula;
use posr_lia::incremental::IncrementalSolver;
use posr_lia::solver::{Model, SolverResult};
use posr_lia::term::{LinExpr, Var, VarPool};

use crate::parikh_tag::{
    connectivity_cut, parikh_tag_formula, run_from_model, ParikhEncoding, ParikhOptions,
};
use crate::ta::{concatenate, owning_variable, Concatenation, TagAutomaton};
use crate::tags::{Side, StrVar, Tag, VarTable};

/// The kind of a position predicate, together with its integer parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PredicateKind {
    /// `t_L ≠ t_R`
    Diseq,
    /// `¬prefixof(t_L, t_R)`
    NotPrefixOf,
    /// `¬suffixof(t_L, t_R)`
    NotSuffixOf,
    /// `x_s = str.at(t_R, index)`; the left side must be a single variable.
    StrAtEq {
        /// LIA variable holding the queried position.
        index: Var,
    },
    /// `x_s ≠ str.at(t_R, index)`; the left side must be a single variable.
    StrAtNe {
        /// LIA variable holding the queried position.
        index: Var,
    },
    /// `target = len(t_R)`; the left side is empty.
    LengthEq {
        /// LIA variable holding the length.
        target: Var,
    },
}

impl PredicateKind {
    /// Does this predicate need the mismatch machinery (copies/levels)?
    pub fn needs_mismatch(&self) -> bool {
        !matches!(self, PredicateKind::LengthEq { .. })
    }
}

/// One position constraint: a predicate kind applied to two sides, each
/// a sequence of string-variable *occurrences* (repetitions allowed).
#[derive(Clone, Debug)]
pub struct PositionConstraint {
    /// The predicate.
    pub kind: PredicateKind,
    /// Left-hand-side occurrences.
    pub left: Vec<StrVar>,
    /// Right-hand-side occurrences.
    pub right: Vec<StrVar>,
}

impl PositionConstraint {
    /// Convenience constructor for a disequality.
    pub fn diseq(left: Vec<StrVar>, right: Vec<StrVar>) -> PositionConstraint {
        PositionConstraint {
            kind: PredicateKind::Diseq,
            left,
            right,
        }
    }

    /// All variables occurring in the constraint, with duplicates.
    pub fn occurrences(&self) -> impl Iterator<Item = StrVar> + '_ {
        self.left.iter().chain(self.right.iter()).copied()
    }
}

/// The encoder: borrows the per-variable automata and the variable table.
pub struct SystemEncoder<'a> {
    automata: &'a BTreeMap<StrVar, Nfa>,
    vars: &'a VarTable,
}

/// The result of encoding a system of position constraints.
#[derive(Clone, Debug)]
pub struct SystemEncoding {
    /// The tag automaton `A^III` (or `A∘` itself when no predicate needs
    /// mismatches).
    pub ta: TagAutomaton,
    /// The underlying ε-concatenation (block layout, variable order `≼`).
    pub concat: Option<Concatenation>,
    /// The Parikh tag encoding of `ta` (without connectivity constraints —
    /// see [`SystemEncoding::connectivity_cut`]).
    pub parikh: Option<ParikhEncoding>,
    /// The full formula `φ_comb`; conjoin the caller's length constraints `I`
    /// and hand it to the LIA solver.
    pub formula: Formula,
    /// Number of copies (`2K + 1`).
    pub levels: usize,
    /// Per-(constraint, side) mismatch-symbol variables `m_{D,s}`.
    pub mismatch_symbol_vars: BTreeMap<(usize, Side), Var>,
    variables: Vec<StrVar>,
}

/// The most connectivity cuts one [`CutLoop`] asserts into its session;
/// the next disconnected model turns the verdict into `Unknown`.
pub const MAX_CONNECTIVITY_CUTS: usize = 64;

/// Distribution of CEGAR round durations (one session solve each), µs.
static HIST_CEGAR_ROUND: LazyLock<posr_obs::Histogram> =
    LazyLock::new(|| posr_obs::histogram("cegar.round_us"));

/// The stall watchdog's "where is the CEGAR loop" probe: refinements so
/// far (connectivity cuts plus the caller's own) in the current loop.
static PROGRESS_CEGAR_ROUND: LazyLock<posr_obs::Gauge> =
    LazyLock::new(|| posr_obs::gauge("cegar.round"));

/// The verdict of [`CutLoop::solve`].
#[derive(Clone, Debug)]
pub enum Connected {
    /// A model whose flow is a genuine run, with the string assignment read
    /// off that run.
    Sat(Model, BTreeMap<StrVar, Vec<Symbol>>),
    /// The session's assertions are unsatisfiable.  Cuts only exclude
    /// spurious disconnected flows, so this is `Unsat` of the encoding
    /// (and of whatever else the caller asserted).
    Unsat,
    /// Undecided: the token fired, the LIA search gave up, an overflow was
    /// caught, or the cut limit was reached.
    Unknown(String),
}

/// The lazy connectivity-cut loop: solve the caller's session, extract a
/// run from the model, and on a disconnected flow (a phantom cycle) assert
/// [`SystemEncoding::connectivity_cut`] into the same session and solve
/// again, at most [`MAX_CONNECTIVITY_CUTS`] times.  The session keeps its
/// learned clauses, activities and phases across the re-solves.
///
/// The loop is the one place every caller of the encoding gets a connected
/// model from.  It records one `cegar.round` span, one `cegar.round_us`
/// sample and one `cegar.round` gauge update per session solve, and polls
/// its token and the `core.cegar` fault site before each.  A caller that
/// asserts refinements of its own between solves (the `¬contains` loop
/// blocking a candidate) reports each through [`CutLoop::refined`], so the
/// gauge counts it and the next round closes its `cegar.refine` flow.
pub struct CutLoop<'a> {
    encoding: &'a SystemEncoding,
    token: CancelToken,
    /// Disconnected models met so far; each got a connectivity cut unless
    /// it ended the loop.
    cuts: usize,
    /// Refinements so far: cuts plus those reported through
    /// [`CutLoop::refined`].
    refinements: usize,
    /// Flows opened at a refinement site, closed inside the round they
    /// trigger: the Perfetto arrow from "this cut" to "that re-solve".
    pending_refine: Vec<u64>,
}

impl<'a> CutLoop<'a> {
    /// A loop over `encoding` polling `token`; the session it solves must
    /// have `encoding.formula` asserted and should poll the same token.
    pub fn new(encoding: &'a SystemEncoding, token: CancelToken) -> CutLoop<'a> {
        CutLoop {
            encoding,
            token,
            cuts: 0,
            refinements: 0,
            pending_refine: Vec::new(),
        }
    }

    /// Solves `session` until its model is connected, it is refuted, or it
    /// is undecided.  Cut extraction and assignment decoding run outside the
    /// engine's own overflow guard, so an overflow there is caught here and
    /// answered `Unknown` too.
    pub fn solve(&mut self, session: &mut IncrementalSolver) -> Connected {
        posr_lia::catch_overflow(|| self.solve_unguarded(session))
            .unwrap_or_else(Connected::Unknown)
    }

    /// Records a refinement the caller asserted into the session between
    /// solves: the gauge counts it and the next round closes its flow.
    pub fn refined(&mut self) {
        self.refinements += 1;
        let flow = posr_obs::flow_id();
        posr_obs::flow_start("core", "cegar.refine", flow);
        self.pending_refine.push(flow);
    }

    fn solve_unguarded(&mut self, session: &mut IncrementalSolver) -> Connected {
        loop {
            if let Some(posr_obs::FaultKind::Cancel) = posr_obs::fault::fire(
                "core.cegar",
                &[
                    posr_obs::FaultKind::Panic,
                    posr_obs::FaultKind::Delay,
                    posr_obs::FaultKind::Cancel,
                ],
            ) {
                self.token.cancel();
            }
            if self.token.is_cancelled() {
                return Connected::Unknown(self.token.unknown_reason());
            }
            PROGRESS_CEGAR_ROUND.set(self.refinements as u64);
            let round_span = posr_obs::span!("core", "cegar.round");
            for id in self.pending_refine.drain(..) {
                posr_obs::flow_end("core", "cegar.refine", id);
            }
            let round_start = Instant::now();
            let solved = session.solve();
            HIST_CEGAR_ROUND.record_duration(round_start.elapsed());
            drop(round_span);
            let model = match solved {
                SolverResult::Sat(model) => model,
                SolverResult::Unsat => return Connected::Unsat,
                SolverResult::Unknown(reason) => return Connected::Unknown(reason),
            };
            if let Some(assignment) = self.encoding.extract_assignment(&model) {
                return Connected::Sat(model, assignment);
            }
            self.cuts += 1;
            if self.cuts > MAX_CONNECTIVITY_CUTS {
                return Connected::Unknown("connectivity-cut limit exceeded".to_string());
            }
            let Some(cut) = self.encoding.connectivity_cut(&model) else {
                return Connected::Unknown(
                    "model extraction failed on a connected model".to_string(),
                );
            };
            posr_obs::instant("core", "cegar.connectivity-cut");
            self.refined();
            session.assert_formula(&cut);
        }
    }
}

impl SystemEncoding {
    /// The length of a variable `|x|` as a linear expression over the
    /// encoding's LIA variables (the counter of the `⟨L,x⟩` tag).
    pub fn length_of(&self, var: StrVar) -> LinExpr {
        match &self.parikh {
            Some(parikh) => parikh.tag_count(&Tag::Length(var)),
            None => LinExpr::zero(),
        }
    }

    /// The variables of the encoding in concatenation order.
    pub fn variables(&self) -> &[StrVar] {
        &self.variables
    }

    /// If the model's flow is disconnected (a phantom cycle), returns a cut
    /// to add before re-solving; `None` means the model is structurally a
    /// genuine run.
    pub fn connectivity_cut(&self, model: &Model) -> Option<Formula> {
        let parikh = self.parikh.as_ref()?;
        connectivity_cut(&self.ta, parikh, model)
    }

    /// Extracts the string assignment encoded by a LIA model: reconstructs an
    /// accepting run from the Parikh image and reads off, for every variable,
    /// the symbols of the transitions tagged `⟨L,x⟩`, in run order.
    ///
    /// Returns `None` if the model does not reconstruct into a run (callers
    /// then add a connectivity cut and re-solve).
    pub fn extract_assignment(&self, model: &Model) -> Option<BTreeMap<StrVar, Vec<Symbol>>> {
        let mut out: BTreeMap<StrVar, Vec<Symbol>> =
            self.variables.iter().map(|&v| (v, Vec::new())).collect();
        let (Some(parikh), true) = (&self.parikh, !self.variables.is_empty()) else {
            return Some(out);
        };
        let run = run_from_model(&self.ta, parikh, model)?;
        for idx in run {
            let transition = &self.ta.transitions()[idx];
            let var = transition.tags.iter().find_map(Tag::as_length);
            let symbol = transition.tags.iter().find_map(Tag::as_symbol);
            if let (Some(var), Some(symbol)) = (var, symbol) {
                out.entry(var).or_default().push(symbol);
            }
        }
        Some(out)
    }
}

struct LevelLayout {
    base_states: usize,
    levels: usize,
}

impl LevelLayout {
    fn state(&self, base: usize, level: usize) -> usize {
        debug_assert!(level >= 1 && level <= self.levels);
        (level - 1) * self.base_states + base
    }
}

impl<'a> SystemEncoder<'a> {
    /// Creates an encoder over the given per-variable automata.
    pub fn new(automata: &'a BTreeMap<StrVar, Nfa>, vars: &'a VarTable) -> SystemEncoder<'a> {
        SystemEncoder { automata, vars }
    }

    /// Encodes a system of position constraints into `φ_comb`.
    ///
    /// # Panics
    /// Panics if a `str.at` constraint does not have exactly one left-hand
    /// occurrence, or if some variable has no registered automaton.
    pub fn encode(&self, constraints: &[PositionConstraint], pool: &mut VarPool) -> SystemEncoding {
        // distinct variables in order of first appearance — the order ≼
        let mut variables: Vec<StrVar> = Vec::new();
        for c in constraints {
            for v in c.occurrences() {
                if !variables.contains(&v) {
                    variables.push(v);
                }
            }
        }

        if variables.is_empty() {
            return self.encode_degenerate(constraints);
        }

        let concat = concatenate(&variables, self.automata);
        let mismatch_constraints: Vec<usize> = constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.needs_mismatch())
            .map(|(i, _)| i)
            .collect();
        let k = mismatch_constraints.len();
        let levels = 2 * k + 1;

        let ta = self.build_levelled_ta(&concat, &mismatch_constraints, constraints, levels);

        let options = ParikhOptions {
            prefix: "sys",
            tag_filter: &|tag| !matches!(tag, Tag::Symbol(_)),
            connectivity: false,
        };
        let parikh = parikh_tag_formula(&ta, pool, &options);

        // auxiliary variables m_{D,s}, p_{D,s}, q_{D,s}, c_i
        let mut m_vars: BTreeMap<(usize, Side), Var> = BTreeMap::new();
        let mut p_vars: BTreeMap<(usize, Side), Var> = BTreeMap::new();
        let mut q_vars: BTreeMap<(usize, Side), Var> = BTreeMap::new();
        for (d, &ci) in mismatch_constraints.iter().enumerate() {
            for side in Side::BOTH {
                m_vars.insert((d, side), pool.fresh(&format!("m_D{ci}_{side}")));
                p_vars.insert((d, side), pool.fresh(&format!("p_D{ci}_{side}")));
                q_vars.insert((d, side), pool.fresh(&format!("q_D{ci}_{side}")));
            }
        }
        let c_vars: Vec<Var> = (1..=2 * k).map(|i| pool.fresh(&format!("c{i}"))).collect();

        let ctx = FormulaContext {
            parikh: &parikh,
            variables: &variables,
            k,
            levels,
            m_vars: &m_vars,
            p_vars: &p_vars,
            q_vars: &q_vars,
            c_vars: &c_vars,
            tag_alphabet: ta.tag_alphabet(),
        };

        let mut conjuncts = vec![parikh.formula.clone()];
        conjuncts.push(ctx.fair());
        conjuncts.push(ctx.consistent());
        conjuncts.push(ctx.copies());
        conjuncts.push(ctx.position_definitions());
        for (d, &ci) in mismatch_constraints.iter().enumerate() {
            conjuncts.push(ctx.satisfaction(d, &constraints[ci]));
        }
        for c in constraints {
            if let PredicateKind::LengthEq { target } = c.kind {
                let sum = ctx.side_length_sum(&c.right);
                conjuncts.push(Formula::eq(LinExpr::var(target), sum));
            }
        }

        let formula = Formula::and(conjuncts);
        let mismatch_symbol_vars = m_vars;
        SystemEncoding {
            ta,
            concat: Some(concat),
            parikh: Some(parikh),
            formula,
            levels,
            mismatch_symbol_vars,
            variables,
        }
    }

    fn encode_degenerate(&self, constraints: &[PositionConstraint]) -> SystemEncoding {
        // no string variables at all: every side denotes ε
        let mut conjuncts = Vec::new();
        for c in constraints {
            let f = match c.kind {
                PredicateKind::Diseq | PredicateKind::NotPrefixOf | PredicateKind::NotSuffixOf => {
                    Formula::False
                }
                PredicateKind::StrAtEq { index } => {
                    // ε = str.at(ε, i) holds because i is always out of bounds
                    let _ = index;
                    Formula::True
                }
                PredicateKind::StrAtNe { index } => {
                    let _ = index;
                    Formula::False
                }
                PredicateKind::LengthEq { target } => {
                    Formula::eq(LinExpr::var(target), LinExpr::zero())
                }
            };
            conjuncts.push(f);
        }
        SystemEncoding {
            ta: TagAutomaton::new(),
            concat: None,
            parikh: None,
            formula: Formula::and(conjuncts),
            levels: 1,
            mismatch_symbol_vars: BTreeMap::new(),
            variables: Vec::new(),
        }
    }

    fn build_levelled_ta(
        &self,
        concat: &Concatenation,
        mismatch_constraints: &[usize],
        constraints: &[PositionConstraint],
        levels: usize,
    ) -> TagAutomaton {
        let base = &concat.ta;
        let layout = LevelLayout {
            base_states: base.num_states(),
            levels,
        };
        let mut ta = TagAutomaton::new();
        ta.add_states(base.num_states() * levels);
        // initial states: level 1; final states: odd levels
        for &q in base.initial_states() {
            ta.add_initial(layout.state(q, 1));
        }
        for &q in base.final_states() {
            for level in (1..=levels).step_by(2) {
                ta.add_final(layout.state(q, level));
            }
        }
        let k = mismatch_constraints.len();
        for t in base.transitions() {
            let letter = t.tags.iter().find_map(Tag::as_symbol);
            let var = t.tags.iter().find_map(Tag::as_length);
            match (letter, var) {
                (Some(symbol), Some(var)) => {
                    // level-preserving letter transitions
                    for level in 1..=levels {
                        ta.add_transition(
                            layout.state(t.source, level),
                            [
                                Tag::Symbol(symbol),
                                Tag::Length(var),
                                Tag::Position { level, var },
                            ],
                            layout.state(t.target, level),
                        );
                    }
                    // mismatch guesses: level i -> i + 1.  A sample for
                    // constraint D / side s is only useful inside a variable
                    // that occurs on that side of D, so other combinations are
                    // omitted (a sound and complete size reduction).
                    for level in 1..=(2 * k) {
                        for (d, &ci) in mismatch_constraints.iter().enumerate() {
                            for side in Side::BOTH {
                                let relevant = match side {
                                    Side::Left => constraints[ci].left.contains(&var),
                                    Side::Right => constraints[ci].right.contains(&var),
                                };
                                if !relevant {
                                    continue;
                                }
                                ta.add_transition(
                                    layout.state(t.source, level),
                                    [
                                        Tag::Symbol(symbol),
                                        Tag::Length(var),
                                        Tag::Position {
                                            level: level + 1,
                                            var,
                                        },
                                        Tag::Mismatch {
                                            level,
                                            var,
                                            constraint: d,
                                            side,
                                            symbol,
                                        },
                                    ],
                                    layout.state(t.target, level + 1),
                                );
                            }
                        }
                    }
                }
                _ => {
                    // ε-connector between variable blocks: replicate per level
                    for level in 1..=levels {
                        ta.add_transition(
                            layout.state(t.source, level),
                            [],
                            layout.state(t.target, level),
                        );
                    }
                }
            }
        }
        // copy guesses: stay on the same base state, move one level up
        for q in 0..base.num_states() {
            let Some(var) = owning_variable(concat, q) else {
                continue;
            };
            for level in 2..=(2 * k) {
                for (d, &ci) in mismatch_constraints.iter().enumerate() {
                    for side in Side::BOTH {
                        let relevant = match side {
                            Side::Left => constraints[ci].left.contains(&var),
                            Side::Right => constraints[ci].right.contains(&var),
                        };
                        if !relevant {
                            continue;
                        }
                        ta.add_transition(
                            layout.state(q, level),
                            [Tag::Copy {
                                level,
                                var,
                                constraint: d,
                                side,
                            }],
                            layout.state(q, level + 1),
                        );
                    }
                }
            }
        }
        let _ = self.vars;
        ta
    }
}

/// Everything needed to build the side-condition and satisfaction formulas.
struct FormulaContext<'a> {
    parikh: &'a ParikhEncoding,
    variables: &'a [StrVar],
    k: usize,
    levels: usize,
    m_vars: &'a BTreeMap<(usize, Side), Var>,
    p_vars: &'a BTreeMap<(usize, Side), Var>,
    q_vars: &'a BTreeMap<(usize, Side), Var>,
    c_vars: &'a [Var],
    tag_alphabet: BTreeSet<Tag>,
}

impl FormulaContext<'_> {
    fn len_of(&self, var: StrVar) -> LinExpr {
        self.parikh.tag_count(&Tag::Length(var))
    }

    fn side_length_sum(&self, occurrences: &[StrVar]) -> LinExpr {
        let mut sum = LinExpr::zero();
        for &v in occurrences {
            sum += self.len_of(v);
        }
        sum
    }

    fn positions_upto(&self, var: StrVar, level: usize) -> LinExpr {
        let mut sum = LinExpr::zero();
        for l in 1..=level {
            sum += self.parikh.tag_count(&Tag::Position { level: l, var });
        }
        sum
    }

    fn positions_after(&self, var: StrVar, level: usize) -> LinExpr {
        let mut sum = LinExpr::zero();
        for l in (level + 1)..=self.levels {
            sum += self.parikh.tag_count(&Tag::Position { level: l, var });
        }
        sum
    }

    /// Σ over all symbols of `#⟨M_level, var, d, side, a⟩`.
    fn mismatch_count(&self, level: usize, var: StrVar, d: usize, side: Side) -> LinExpr {
        let tags: Vec<Tag> = self
            .tag_alphabet
            .iter()
            .filter(|t| {
                matches!(t, Tag::Mismatch { level: l, var: v, constraint: c, side: s, .. }
                    if *l == level && *v == var && *c == d && *s == side)
            })
            .copied()
            .collect();
        self.parikh.tag_sum(tags.iter())
    }

    fn copy_count(&self, level: usize, var: StrVar, d: usize, side: Side) -> LinExpr {
        self.parikh.tag_count(&Tag::Copy {
            level,
            var,
            constraint: d,
            side,
        })
    }

    /// φ_Fair (Eq. 17): every constraint side has at most one sampled or
    /// copied mismatch.
    fn fair(&self) -> Formula {
        let mut conjuncts = Vec::new();
        for d in 0..self.k {
            for side in Side::BOTH {
                let mut sum = LinExpr::zero();
                for level in 1..=(2 * self.k) {
                    for &v in self.variables {
                        sum += self.mismatch_count(level, v, d, side);
                        if level >= 2 {
                            sum += self.copy_count(level, v, d, side);
                        }
                    }
                }
                conjuncts.push(Formula::le(sum, LinExpr::constant(1)));
            }
        }
        Formula::and(conjuncts)
    }

    /// φ_Consistent (Eq. 18): the auxiliary symbol variables `m_{D,s}` and
    /// `c_i` agree with the sampled/copied mismatch symbols.
    fn consistent(&self) -> Formula {
        let mut conjuncts = Vec::new();
        for tag in &self.tag_alphabet {
            if let Tag::Mismatch {
                level,
                constraint,
                side,
                symbol,
                ..
            } = tag
            {
                // Σ_x #⟨M_level, x, D, s, a⟩ = 1 → c_level = m_{D,s} = a
                let sum: Vec<Tag> = self
                    .tag_alphabet
                    .iter()
                    .filter(|t| {
                        matches!(t, Tag::Mismatch { level: l, constraint: c, side: s, symbol: a, .. }
                            if l == level && c == constraint && s == side && a == symbol)
                    })
                    .copied()
                    .collect();
                let count = self.parikh.tag_sum(sum.iter());
                let c_var = self.c_vars[*level - 1];
                let m_var = self.m_vars[&(*constraint, *side)];
                let value = LinExpr::constant(symbol.0 as i128);
                conjuncts.push(Formula::implies(
                    Formula::eq(count, LinExpr::constant(1)),
                    Formula::and(vec![
                        Formula::eq(LinExpr::var(c_var), value.clone()),
                        Formula::eq(LinExpr::var(m_var), value),
                    ]),
                ));
            }
        }
        // copies inherit the previous shared symbol
        for d in 0..self.k {
            for side in Side::BOTH {
                for level in 2..=(2 * self.k) {
                    let mut sum = LinExpr::zero();
                    for &v in self.variables {
                        sum += self.copy_count(level, v, d, side);
                    }
                    let c_var = self.c_vars[level - 1];
                    let c_prev = self.c_vars[level - 2];
                    let m_var = self.m_vars[&(d, side)];
                    conjuncts.push(Formula::implies(
                        Formula::eq(sum, LinExpr::constant(1)),
                        Formula::and(vec![
                            Formula::eq(LinExpr::var(c_var), LinExpr::var(m_var)),
                            Formula::eq(LinExpr::var(c_var), LinExpr::var(c_prev)),
                        ]),
                    ));
                }
            }
        }
        Formula::and(conjuncts)
    }

    /// φ_Copies (Eq. 19): a copy tag for variable `x` at level `i+1` requires
    /// a mismatch or copy for `x` at level `i`, taken immediately before it.
    fn copies(&self) -> Formula {
        let mut conjuncts = Vec::new();
        for &v in self.variables {
            for level in 1..=(2 * self.k).saturating_sub(1) {
                let mut here = LinExpr::zero();
                for d in 0..self.k {
                    for side in Side::BOTH {
                        here += self.mismatch_count(level, v, d, side);
                        if level >= 2 {
                            here += self.copy_count(level, v, d, side);
                        }
                    }
                }
                let mut next_copies = LinExpr::zero();
                for d in 0..self.k {
                    for side in Side::BOTH {
                        next_copies += self.copy_count(level + 1, v, d, side);
                    }
                }
                conjuncts.push(Formula::implies(
                    Formula::eq(here, LinExpr::zero()),
                    Formula::eq(next_copies, LinExpr::zero()),
                ));
            }
            for level in 2..=(2 * self.k) {
                let mut copies_here = LinExpr::zero();
                for d in 0..self.k {
                    for side in Side::BOTH {
                        copies_here += self.copy_count(level, v, d, side);
                    }
                }
                let mut mismatches_prev = LinExpr::zero();
                for d in 0..self.k {
                    for side in Side::BOTH {
                        mismatches_prev += self.mismatch_count(level - 1, v, d, side);
                    }
                }
                let p_here = self.parikh.tag_count(&Tag::Position { level, var: v });
                conjuncts.push(Formula::implies(
                    Formula::eq(copies_here, LinExpr::constant(1)),
                    Formula::eq(p_here - mismatches_prev, LinExpr::zero()),
                ));
            }
        }
        Formula::and(conjuncts)
    }

    /// φ_Pos (Eq. 42, with the copy-tag off-by-one fixed) together with the
    /// suffix counterpart: whenever the mismatch of `(D, s)` lives in `v` at
    /// level `l`, the variables `p_{D,s}` / `q_{D,s}` hold the number of
    /// letters of `v` strictly before / strictly after the mismatch letter.
    fn position_definitions(&self) -> Formula {
        let mut conjuncts = Vec::new();
        for d in 0..self.k {
            for side in Side::BOTH {
                let p_var = self.p_vars[&(d, side)];
                let q_var = self.q_vars[&(d, side)];
                for &v in self.variables {
                    for level in 1..=(2 * self.k) {
                        let m_count = self.mismatch_count(level, v, d, side);
                        conjuncts.push(Formula::implies(
                            Formula::gt(m_count.clone(), LinExpr::zero()),
                            Formula::and(vec![
                                Formula::eq(LinExpr::var(p_var), self.positions_upto(v, level)),
                                Formula::eq(LinExpr::var(q_var), self.positions_after(v, level)),
                            ]),
                        ));
                        if level >= 2 {
                            let c_count = self.copy_count(level, v, d, side);
                            conjuncts.push(Formula::implies(
                                Formula::gt(c_count, LinExpr::zero()),
                                Formula::and(vec![
                                    Formula::eq(
                                        LinExpr::var(p_var),
                                        self.positions_upto(v, level) - LinExpr::constant(1),
                                    ),
                                    Formula::eq(
                                        LinExpr::var(q_var),
                                        self.positions_after(v, level),
                                    ),
                                ]),
                            ));
                        }
                    }
                }
            }
        }
        Formula::and(conjuncts)
    }

    /// φ_∃ (Eq. 44): a mismatch for `(D, s)` was sampled or copied in `v`.
    fn exists_in(&self, d: usize, side: Side, v: StrVar) -> Formula {
        let mut sum = LinExpr::zero();
        for level in 1..=(2 * self.k) {
            sum += self.mismatch_count(level, v, d, side);
            if level >= 2 {
                sum += self.copy_count(level, v, d, side);
            }
        }
        Formula::gt(sum, LinExpr::zero())
    }

    /// The per-pair mismatch disjunct with prefix-style alignment (Eq. 43/45).
    fn mismatch_disjunct(
        &self,
        d: usize,
        constraint: &PositionConstraint,
        i: usize,
        j: usize,
        symbols_equal: bool,
    ) -> Formula {
        let xi = constraint.left[i];
        let yj = constraint.right[j];
        let lhs = LinExpr::var(self.p_vars[&(d, Side::Left)])
            + self.side_length_sum(&constraint.left[..i]);
        let rhs = LinExpr::var(self.p_vars[&(d, Side::Right)])
            + self.side_length_sum(&constraint.right[..j]);
        let symbol_rel = if symbols_equal {
            Formula::eq(
                LinExpr::var(self.m_vars[&(d, Side::Left)]),
                LinExpr::var(self.m_vars[&(d, Side::Right)]),
            )
        } else {
            Formula::ne(
                LinExpr::var(self.m_vars[&(d, Side::Left)]),
                LinExpr::var(self.m_vars[&(d, Side::Right)]),
            )
        };
        Formula::and(vec![
            self.exists_in(d, Side::Left, xi),
            self.exists_in(d, Side::Right, yj),
            Formula::eq(lhs, rhs),
            symbol_rel,
        ])
    }

    /// The per-pair mismatch disjunct with suffix-style alignment (Sec. 6.2).
    fn mismatch_disjunct_suffix(
        &self,
        d: usize,
        constraint: &PositionConstraint,
        i: usize,
        j: usize,
    ) -> Formula {
        let xi = constraint.left[i];
        let yj = constraint.right[j];
        let lhs = LinExpr::var(self.q_vars[&(d, Side::Left)])
            + self.side_length_sum(&constraint.left[i + 1..]);
        let rhs = LinExpr::var(self.q_vars[&(d, Side::Right)])
            + self.side_length_sum(&constraint.right[j + 1..]);
        Formula::and(vec![
            self.exists_in(d, Side::Left, xi),
            self.exists_in(d, Side::Right, yj),
            Formula::eq(lhs, rhs),
            Formula::ne(
                LinExpr::var(self.m_vars[&(d, Side::Left)]),
                LinExpr::var(self.m_vars[&(d, Side::Right)]),
            ),
        ])
    }

    fn mismatch_formula(&self, d: usize, c: &PositionConstraint, suffix: bool) -> Formula {
        let mut disjuncts = Vec::new();
        for i in 0..c.left.len() {
            for j in 0..c.right.len() {
                disjuncts.push(if suffix {
                    self.mismatch_disjunct_suffix(d, c, i, j)
                } else {
                    self.mismatch_disjunct(d, c, i, j, false)
                });
            }
        }
        Formula::or(disjuncts)
    }

    /// φ_Sat for one mismatch-needing constraint.
    fn satisfaction(&self, d: usize, c: &PositionConstraint) -> Formula {
        let left_len = self.side_length_sum(&c.left);
        let right_len = self.side_length_sum(&c.right);
        match c.kind {
            PredicateKind::Diseq => Formula::or(vec![
                Formula::ne(left_len, right_len),
                self.mismatch_formula(d, c, false),
            ]),
            PredicateKind::NotPrefixOf => Formula::or(vec![
                Formula::gt(left_len, right_len),
                self.mismatch_formula(d, c, false),
            ]),
            PredicateKind::NotSuffixOf => Formula::or(vec![
                Formula::gt(left_len, right_len),
                self.mismatch_formula(d, c, true),
            ]),
            PredicateKind::StrAtEq { index } | PredicateKind::StrAtNe { index } => {
                assert_eq!(
                    c.left.len(),
                    1,
                    "str.at constraints must have a single left-hand variable"
                );
                let xs = c.left[0];
                let equal = matches!(c.kind, PredicateKind::StrAtEq { .. });
                let in_bounds = Formula::and(vec![
                    Formula::ge(LinExpr::var(index), LinExpr::zero()),
                    Formula::lt(LinExpr::var(index), right_len.clone()),
                ]);
                let out_of_bounds = Formula::not(in_bounds.clone());
                let mut at_disjuncts = Vec::new();
                for j in 0..c.right.len() {
                    let yj = c.right[j];
                    let position = LinExpr::var(self.p_vars[&(d, Side::Right)])
                        + self.side_length_sum(&c.right[..j]);
                    let symbol_rel = if equal {
                        Formula::eq(
                            LinExpr::var(self.m_vars[&(d, Side::Left)]),
                            LinExpr::var(self.m_vars[&(d, Side::Right)]),
                        )
                    } else {
                        Formula::ne(
                            LinExpr::var(self.m_vars[&(d, Side::Left)]),
                            LinExpr::var(self.m_vars[&(d, Side::Right)]),
                        )
                    };
                    at_disjuncts.push(Formula::and(vec![
                        self.exists_in(d, Side::Left, xs),
                        self.exists_in(d, Side::Right, yj),
                        Formula::eq(LinExpr::var(index), position),
                        symbol_rel,
                    ]));
                }
                let len_xs = self.len_of(xs);
                let char_case = Formula::and(vec![
                    Formula::eq(len_xs.clone(), LinExpr::constant(1)),
                    in_bounds.clone(),
                    Formula::or(at_disjuncts),
                ]);
                if equal {
                    Formula::or(vec![
                        Formula::and(vec![Formula::eq(len_xs, LinExpr::zero()), out_of_bounds]),
                        char_case,
                    ])
                } else {
                    Formula::or(vec![
                        Formula::and(vec![
                            Formula::ge(len_xs.clone(), LinExpr::constant(1)),
                            out_of_bounds,
                        ]),
                        Formula::ge(len_xs.clone(), LinExpr::constant(2)),
                        // x = ε but the position is valid, so str.at yields a character
                        Formula::and(vec![Formula::eq(len_xs, LinExpr::zero()), in_bounds]),
                        char_case,
                    ])
                }
            }
            PredicateKind::LengthEq { .. } => {
                unreachable!("length constraints are not mismatch constraints")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posr_automata::Regex;

    fn setup(specs: &[(&str, &str)]) -> (VarTable, BTreeMap<StrVar, Nfa>, Vec<StrVar>) {
        let mut vars = VarTable::new();
        let mut automata = BTreeMap::new();
        let mut ids = Vec::new();
        for (name, regex) in specs {
            let v = vars.intern(name);
            automata.insert(v, Regex::parse(regex).unwrap().compile());
            ids.push(v);
        }
        (vars, automata, ids)
    }

    /// Solves an encoding with the connectivity-cut loop and returns the
    /// result together with the extracted assignment on SAT.
    fn solve_encoding(
        encoding: &SystemEncoding,
        extra: &Formula,
    ) -> (SolverResult, Option<BTreeMap<StrVar, Vec<Symbol>>>) {
        let mut session = IncrementalSolver::new();
        session.assert_formula(&encoding.formula);
        session.assert_formula(extra);
        match CutLoop::new(encoding, CancelToken::none()).solve(&mut session) {
            Connected::Sat(model, assignment) => (SolverResult::Sat(model), Some(assignment)),
            Connected::Unsat => (SolverResult::Unsat, None),
            Connected::Unknown(reason) => (SolverResult::Unknown(reason), None),
        }
    }

    fn word(assignment: &BTreeMap<StrVar, Vec<Symbol>>, v: StrVar) -> String {
        assignment[&v].iter().filter_map(|s| s.to_char()).collect()
    }

    #[test]
    fn diseq_of_two_variables_same_singleton_language_is_unsat() {
        let (vars, automata, ids) = setup(&[("x", "abc"), ("y", "abc")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let encoding = encoder.encode(
            &[PositionConstraint::diseq(vec![ids[0]], vec![ids[1]])],
            &mut pool,
        );
        let (result, _) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_unsat(), "abc ≠ abc with fixed words is unsat");
    }

    #[test]
    fn diseq_of_two_variables_different_languages_is_sat() {
        let (vars, automata, ids) = setup(&[("x", "(ab)*"), ("y", "(ac)*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let encoding = encoder.encode(
            &[PositionConstraint::diseq(vec![ids[0]], vec![ids[1]])],
            &mut pool,
        );
        let (result, assignment) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_sat());
        let assignment = assignment.unwrap();
        let wx = word(&assignment, ids[0]);
        let wy = word(&assignment, ids[1]);
        assert_ne!(wx, wy, "extracted assignment must witness the disequality");
    }

    #[test]
    fn diseq_forced_to_equal_lengths_still_finds_mismatch() {
        let (vars, automata, ids) = setup(&[("x", "(ab)*"), ("y", "(ac)*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let encoding = encoder.encode(
            &[PositionConstraint::diseq(vec![ids[0]], vec![ids[1]])],
            &mut pool,
        );
        // force |x| = |y| ≥ 2 so the length disjunct is unavailable
        let extra = Formula::and(vec![
            Formula::eq(encoding.length_of(ids[0]), encoding.length_of(ids[1])),
            Formula::ge(encoding.length_of(ids[0]), LinExpr::constant(2)),
        ]);
        let (result, assignment) = solve_encoding(&encoding, &extra);
        assert!(result.is_sat());
        let assignment = assignment.unwrap();
        let wx = word(&assignment, ids[0]);
        let wy = word(&assignment, ids[1]);
        assert_eq!(wx.len(), wy.len());
        assert_ne!(wx, wy);
    }

    #[test]
    fn diseq_xy_yx_over_single_letter_language_is_unsat() {
        // x, y ∈ a*: xy and yx are always the same word
        let (vars, automata, ids) = setup(&[("x", "a*"), ("y", "a*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraint = PositionConstraint::diseq(vec![ids[0], ids[1]], vec![ids[1], ids[0]]);
        let encoding = encoder.encode(&[constraint], &mut pool);
        let (result, _) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_unsat(), "xy ≠ yx over a* must be unsat");
    }

    #[test]
    fn diseq_xy_yx_with_two_letters_is_sat() {
        let (vars, automata, ids) = setup(&[("x", "a*"), ("y", "b*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraint = PositionConstraint::diseq(vec![ids[0], ids[1]], vec![ids[1], ids[0]]);
        let encoding = encoder.encode(&[constraint], &mut pool);
        let (result, assignment) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_sat());
        let assignment = assignment.unwrap();
        let wx = word(&assignment, ids[0]);
        let wy = word(&assignment, ids[1]);
        assert_ne!(format!("{wx}{wy}"), format!("{wy}{wx}"));
    }

    #[test]
    fn not_prefixof_requires_longer_or_mismatching_argument() {
        // ¬prefixof(x, y) with x ∈ ab*, y ∈ (ab)* — e.g. x = "a", y = "" works
        let (vars, automata, ids) = setup(&[("x", "ab*"), ("y", "(ab)*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraint = PositionConstraint {
            kind: PredicateKind::NotPrefixOf,
            left: vec![ids[0]],
            right: vec![ids[1]],
        };
        let encoding = encoder.encode(&[constraint], &mut pool);
        let (result, assignment) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_sat());
        let assignment = assignment.unwrap();
        let wx = word(&assignment, ids[0]);
        let wy = word(&assignment, ids[1]);
        assert!(
            !wy.starts_with(&wx),
            "{wx:?} must not be a prefix of {wy:?}"
        );
    }

    #[test]
    fn not_prefixof_unsat_when_always_prefix() {
        // x ∈ {a}, y ∈ a(ab)* : x is always a prefix of y
        let (vars, automata, ids) = setup(&[("x", "a"), ("y", "a(ab)*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraint = PositionConstraint {
            kind: PredicateKind::NotPrefixOf,
            left: vec![ids[0]],
            right: vec![ids[1]],
        };
        let encoding = encoder.encode(&[constraint], &mut pool);
        let (result, _) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_unsat());
    }

    #[test]
    fn not_suffixof_unsat_when_always_suffix() {
        // x ∈ {b}, y ∈ (ab)+ : x is always a suffix of y
        let (vars, automata, ids) = setup(&[("x", "b"), ("y", "(ab)+")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraint = PositionConstraint {
            kind: PredicateKind::NotSuffixOf,
            left: vec![ids[0]],
            right: vec![ids[1]],
        };
        let encoding = encoder.encode(&[constraint], &mut pool);
        let (result, _) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_unsat());
    }

    #[test]
    fn not_suffixof_sat_with_witness() {
        let (vars, automata, ids) = setup(&[("x", "a|b"), ("y", "(ab)+")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraint = PositionConstraint {
            kind: PredicateKind::NotSuffixOf,
            left: vec![ids[0]],
            right: vec![ids[1]],
        };
        let encoding = encoder.encode(&[constraint], &mut pool);
        let (result, assignment) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_sat());
        let assignment = assignment.unwrap();
        let wx = word(&assignment, ids[0]);
        let wy = word(&assignment, ids[1]);
        assert!(!wy.ends_with(&wx), "{wx:?} must not be a suffix of {wy:?}");
    }

    #[test]
    fn system_of_two_disequalities_sharing_a_variable() {
        // x ≠ y ∧ x ≠ z over single-character languages: needs three distinct values?
        // no — x ∈ {a,b}, y ∈ {a}, z ∈ {a}: x ↦ b satisfies both.
        let (vars, automata, ids) = setup(&[("x", "a|b"), ("y", "a"), ("z", "a")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraints = vec![
            PositionConstraint::diseq(vec![ids[0]], vec![ids[1]]),
            PositionConstraint::diseq(vec![ids[0]], vec![ids[2]]),
        ];
        let encoding = encoder.encode(&constraints, &mut pool);
        assert_eq!(encoding.levels, 5);
        let (result, assignment) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_sat());
        let assignment = assignment.unwrap();
        assert_eq!(word(&assignment, ids[0]), "b");
    }

    #[test]
    fn system_of_disequalities_can_be_unsat() {
        // ignored from the seed until PR 3: the K=2 mismatch case split
        // exceeded the learner-free structural DPLL(T) search; the CDCL(T)
        // engine's learned clauses (bound and divisibility explanations)
        // prune the symmetric splits and close it within default limits
        // x, y ∈ {a}: x ≠ y is unsat; adding more constraints keeps it unsat
        let (vars, automata, ids) = setup(&[("x", "a"), ("y", "a"), ("z", "a|b")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraints = vec![
            PositionConstraint::diseq(vec![ids[0]], vec![ids[1]]),
            PositionConstraint::diseq(vec![ids[2]], vec![ids[1]]),
        ];
        let encoding = encoder.encode(&constraints, &mut pool);
        let (result, _) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_unsat());
    }

    #[test]
    fn three_sat_style_system_from_the_np_hardness_proof() {
        // clause (x1 ∨ ¬x2 ∨ x3) becomes y1 y2 y3 ≠ 010 with yi ∈ {0,1}
        let (vars, automata, ids) =
            setup(&[("y1", "0|1"), ("y2", "0|1"), ("y3", "0|1"), ("c", "010")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraints = vec![PositionConstraint::diseq(
            vec![ids[0], ids[1], ids[2]],
            vec![ids[3]],
        )];
        let encoding = encoder.encode(&constraints, &mut pool);
        let (result, assignment) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_sat());
        let a = assignment.unwrap();
        let concatenated = format!(
            "{}{}{}",
            word(&a, ids[0]),
            word(&a, ids[1]),
            word(&a, ids[2])
        );
        assert_ne!(concatenated, "010");
    }

    #[test]
    fn str_at_ne_constraint() {
        // x ≠ str.at(y, i) with x ∈ {a}, y ∈ a* : needs i out of bounds (or |y| ≤ i)
        let (vars, automata, ids) = setup(&[("x", "a"), ("y", "a*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let index = pool.fresh("i");
        let constraint = PositionConstraint {
            kind: PredicateKind::StrAtNe { index },
            left: vec![ids[0]],
            right: vec![ids[1]],
        };
        let encoding = encoder.encode(&[constraint], &mut pool);
        // with i = 0 and |y| ≥ 1 the character at 0 is 'a' = x, so force that and expect unsat
        let extra = Formula::and(vec![
            Formula::eq(LinExpr::var(index), LinExpr::zero()),
            Formula::ge(encoding.length_of(ids[1]), LinExpr::constant(1)),
        ]);
        let (result, _) = solve_encoding(&encoding, &extra);
        assert!(result.is_unsat());
        // without the length restriction, y = ε makes the position invalid and x ≠ ε holds
        let extra_sat = Formula::eq(LinExpr::var(index), LinExpr::zero());
        let (result, assignment) = solve_encoding(&encoding, &extra_sat);
        assert!(result.is_sat());
        assert_eq!(word(&assignment.unwrap(), ids[1]), "");
    }

    #[test]
    fn str_at_eq_constraint() {
        // x = str.at(y, i), x ∈ {b}, y ∈ (ab)* — needs i odd and within bounds
        let (vars, automata, ids) = setup(&[("x", "b"), ("y", "(ab)*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let index = pool.fresh("i");
        let constraint = PositionConstraint {
            kind: PredicateKind::StrAtEq { index },
            left: vec![ids[0]],
            right: vec![ids[1]],
        };
        let encoding = encoder.encode(&[constraint], &mut pool);
        let (result, assignment) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_sat());
        let a = assignment.unwrap();
        let wy = word(&a, ids[1]);
        assert!(
            !wy.is_empty(),
            "y must be non-empty so that some position holds 'b'"
        );
        // index value is in the LIA model; check it points at a 'b'
        match &result {
            SolverResult::Sat(model) => {
                let i = model.value(index) as usize;
                assert_eq!(wy.as_bytes()[i], b'b');
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn length_constraint_binds_integer_variable() {
        let (vars, automata, ids) = setup(&[("x", "(ab)*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let target = pool.fresh("n");
        let constraint = PositionConstraint {
            kind: PredicateKind::LengthEq { target },
            left: vec![],
            right: vec![ids[0]],
        };
        let encoding = encoder.encode(&[constraint], &mut pool);
        let extra = Formula::eq(LinExpr::var(target), LinExpr::constant(6));
        let (result, assignment) = solve_encoding(&encoding, &extra);
        assert!(result.is_sat());
        assert_eq!(word(&assignment.unwrap(), ids[0]).len(), 6);
        // odd lengths are impossible in (ab)*
        let extra_bad = Formula::eq(LinExpr::var(target), LinExpr::constant(5));
        let (result, _) = solve_encoding(&encoding, &extra_bad);
        assert!(result.is_unsat());
    }

    #[test]
    fn empty_sides_are_handled() {
        // x ≠ ε with x ∈ a* : satisfiable with |x| ≥ 1
        let (vars, automata, ids) = setup(&[("x", "a*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraint = PositionConstraint::diseq(vec![ids[0]], vec![]);
        let encoding = encoder.encode(&[constraint], &mut pool);
        let (result, assignment) = solve_encoding(&encoding, &Formula::True);
        assert!(result.is_sat());
        assert!(!word(&assignment.unwrap(), ids[0]).is_empty());
    }

    #[test]
    fn degenerate_constraint_without_variables() {
        let vars = VarTable::new();
        let automata = BTreeMap::new();
        let encoder = SystemEncoder::new(&automata, &vars);
        let mut pool = VarPool::new();
        let constraint = PositionConstraint::diseq(vec![], vec![]);
        let encoding = encoder.encode(&[constraint], &mut pool);
        assert_eq!(encoding.formula, Formula::False);
    }

    #[test]
    fn encoding_size_is_polynomial_in_constraints() {
        // formula size should grow roughly quadratically (not exponentially)
        // with the number of disequalities
        let (vars, automata, ids) = setup(&[("x", "(ab)*"), ("y", "(ac)*"), ("z", "(ad)*")]);
        let encoder = SystemEncoder::new(&automata, &vars);
        let sizes: Vec<usize> = (1..=3)
            .map(|k| {
                let constraints: Vec<PositionConstraint> = (0..k)
                    .map(|i| PositionConstraint::diseq(vec![ids[i % 3]], vec![ids[(i + 1) % 3]]))
                    .collect();
                let mut pool = VarPool::new();
                encoder.encode(&constraints, &mut pool).formula.size()
            })
            .collect();
        assert!(sizes[1] > sizes[0] && sizes[2] > sizes[1]);
        // crude super-exponential guard: tripling the constraints should not
        // blow the size up by more than ~40x
        assert!(sizes[2] < sizes[0] * 40, "sizes: {sizes:?}");
    }
}
