//! The Parikh formula `PF(T)` (Appendix A) and the Parikh tag formula
//! `PF_tag(T)` (Eq. 2) of a tag automaton, as LIA formulas.
//!
//! Models of `PF(T)` are exactly the Parikh images of accepting runs of `T`
//! (property (1) of the paper); `PF_tag(T)` additionally exposes one counter
//! per tag, defined as the sum of the counters of the transitions carrying
//! that tag.  The downstream encodings (`φ^I`, `φ^II`, `φ^III`, …) only talk
//! about tag counters, so [`ParikhEncoding::tag_count`] is their main entry
//! point; [`run_from_model`] converts a model back into an actual run, which
//! the solver uses to extract string assignments.

use std::collections::BTreeMap;

use posr_automata::parikh::reconstruct_eulerian_path;
use posr_lia::formula::Formula;
use posr_lia::solver::Model;
use posr_lia::term::{LinExpr, Var, VarPool};

use crate::ta::TagAutomaton;
use crate::tags::Tag;

/// The result of encoding a tag automaton into LIA.
#[derive(Clone, Debug)]
pub struct ParikhEncoding {
    /// The formula `PF_tag(T)`.
    pub formula: Formula,
    /// One LIA variable per transition of the automaton (`#δ`).
    pub trans_vars: Vec<Var>,
    /// One LIA variable per materialised tag (`#t`).
    pub tag_vars: BTreeMap<Tag, Var>,
    /// Per-state `γ_I` variables (1 on the state the run starts in).
    pub gamma_init: BTreeMap<usize, Var>,
    /// Per-state `γ_F` variables (1 on the state the run ends in).
    pub gamma_final: BTreeMap<usize, Var>,
}

impl ParikhEncoding {
    /// The counter of a tag as a linear expression: the dedicated tag
    /// variable if the tag was materialised, the explicit sum of transition
    /// variables if it occurs in the automaton but was filtered out, and the
    /// constant 0 if it does not occur at all.
    pub fn tag_count(&self, tag: &Tag) -> LinExpr {
        if let Some(&v) = self.tag_vars.get(tag) {
            return LinExpr::var(v);
        }
        LinExpr::zero()
    }

    /// Sum of the counters of several tags.
    pub fn tag_sum<'a, I: IntoIterator<Item = &'a Tag>>(&self, tags: I) -> LinExpr {
        let mut e = LinExpr::zero();
        for t in tags {
            e += self.tag_count(t);
        }
        e
    }

    /// Extracts the transition multiplicities of an accepting run from a LIA
    /// model of the encoding.
    pub fn transition_counts(&self, model: &Model) -> BTreeMap<usize, u64> {
        let mut counts = BTreeMap::new();
        for (idx, &v) in self.trans_vars.iter().enumerate() {
            let value = model.value(v);
            if value > 0 {
                counts.insert(idx, value as u64);
            }
        }
        counts
    }

    /// The state in which the run encoded by the model starts.
    pub fn start_state(&self, model: &Model) -> Option<usize> {
        self.gamma_init
            .iter()
            .find(|(_, &v)| model.value(v) == 1)
            .map(|(&q, _)| q)
    }
}

/// Options controlling which parts of the tag formula are materialised.
pub struct ParikhOptions<'a> {
    /// Name prefix for the generated LIA variables.
    pub prefix: &'a str,
    /// Predicate selecting which tags get a dedicated counter variable.
    /// Symbol tags, for example, are never referenced by the encodings and
    /// can be skipped to keep the LIA formula small.
    pub tag_filter: &'a dyn Fn(&Tag) -> bool,
    /// Whether to include the spanning-tree connectivity constraints
    /// (Eqs. 37–39).  They are exact but introduce one disjunction per state;
    /// the solving pipeline instead drops them and restores exactness with
    /// lazily added connectivity cuts ([`connectivity_cut`]), following the
    /// approximate-Parikh-image approach of the paper's reference \[44\].
    pub connectivity: bool,
}

impl Default for ParikhOptions<'_> {
    fn default() -> Self {
        ParikhOptions {
            prefix: "pf",
            tag_filter: &|_| true,
            connectivity: true,
        }
    }
}

/// Builds `PF_tag(T)` for a tag automaton.
///
/// The construction follows Appendix A: per-state `γ_I`/`γ_F` variables with
/// the initial/final side conditions, per-transition counters with the
/// Kirchhoff flow equations, and per-state spanning-tree variables `σ_q`
/// enforcing connectivity of the taken transitions; Eq. 2 then adds one
/// counter per (selected) tag.
pub fn parikh_tag_formula(
    ta: &TagAutomaton,
    pool: &mut VarPool,
    options: &ParikhOptions<'_>,
) -> ParikhEncoding {
    let prefix = options.prefix;
    let n = ta.num_states();
    let transitions = ta.transitions();

    let trans_vars: Vec<Var> = (0..transitions.len())
        .map(|i| pool.fresh(&format!("{prefix}#d{i}")))
        .collect();
    let gamma_init: BTreeMap<usize, Var> = (0..n)
        .map(|q| (q, pool.fresh(&format!("{prefix}#gI{q}"))))
        .collect();
    let gamma_final: BTreeMap<usize, Var> = (0..n)
        .map(|q| (q, pool.fresh(&format!("{prefix}#gF{q}"))))
        .collect();
    let sigma: BTreeMap<usize, Var> = (0..n)
        .map(|q| (q, pool.fresh(&format!("{prefix}#sp{q}"))))
        .collect();

    let mut conjuncts: Vec<Formula> = Vec::new();

    // transition counters are non-negative; on an acyclic automaton the
    // unit flow (Σ γI = 1 below) additionally takes every transition at
    // most once, and saying so explicitly lets the solver's bound
    // propagation collapse the mismatch-tag case splits instead of
    // searching them
    let acyclic = ta.is_acyclic();
    for &v in &trans_vars {
        conjuncts.push(Formula::ge(LinExpr::var(v), LinExpr::zero()));
        if acyclic {
            conjuncts.push(Formula::le(LinExpr::var(v), LinExpr::constant(1)));
        }
    }

    // φ_Init (Eq. 34)
    let mut init_sum = LinExpr::zero();
    for q in 0..n {
        let gi = gamma_init[&q];
        if ta.initial_states().contains(&q) {
            conjuncts.push(Formula::ge(LinExpr::var(gi), LinExpr::zero()));
            conjuncts.push(Formula::le(LinExpr::var(gi), LinExpr::constant(1)));
            init_sum += LinExpr::var(gi);
        } else {
            conjuncts.push(Formula::eq(LinExpr::var(gi), LinExpr::zero()));
        }
    }
    conjuncts.push(Formula::eq(init_sum, LinExpr::constant(1)));

    // φ_Fin (Eq. 35)
    for q in 0..n {
        let gf = gamma_final[&q];
        if ta.is_final(q) {
            conjuncts.push(Formula::ge(LinExpr::var(gf), LinExpr::zero()));
            conjuncts.push(Formula::le(LinExpr::var(gf), LinExpr::constant(1)));
        } else {
            conjuncts.push(Formula::eq(LinExpr::var(gf), LinExpr::zero()));
        }
    }

    // φ_Kirch (Eq. 36): γI_q + Σ incoming = γF_q + Σ outgoing
    for q in 0..n {
        let mut lhs = LinExpr::var(gamma_init[&q]);
        let mut rhs = LinExpr::var(gamma_final[&q]);
        for (i, t) in transitions.iter().enumerate() {
            if t.target == q {
                lhs += LinExpr::var(trans_vars[i]);
            }
            if t.source == q {
                rhs += LinExpr::var(trans_vars[i]);
            }
        }
        conjuncts.push(Formula::eq(lhs, rhs));
    }

    // φ_Span (Eqs. 37–39)
    for q in 0..n {
        if !options.connectivity {
            break;
        }
        let sq = sigma[&q];
        let gi = gamma_init[&q];
        // σ_q = 0 ⇔ γI_q = 1
        conjuncts.push(Formula::iff(
            Formula::eq(LinExpr::var(sq), LinExpr::zero()),
            Formula::eq(LinExpr::var(gi), LinExpr::constant(1)),
        ));
        // σ_q ≤ -1 ⇒ γI_q = 0 ∧ all incoming transition counters are 0
        let mut incoming_zero = vec![Formula::eq(LinExpr::var(gi), LinExpr::zero())];
        for (i, t) in transitions.iter().enumerate() {
            if t.target == q {
                incoming_zero.push(Formula::eq(LinExpr::var(trans_vars[i]), LinExpr::zero()));
            }
        }
        conjuncts.push(Formula::implies(
            Formula::le(LinExpr::var(sq), LinExpr::constant(-1)),
            Formula::and(incoming_zero),
        ));
        // σ_q > 0 ⇒ ∨ over incoming transitions t = q' → q:
        //            (#t > 0 ∧ σ_{q'} ≥ 0 ∧ σ_q = σ_{q'} + 1)
        let mut span_options = Vec::new();
        for (i, t) in transitions.iter().enumerate() {
            if t.target == q {
                let sp = sigma[&t.source];
                span_options.push(Formula::and(vec![
                    Formula::gt(LinExpr::var(trans_vars[i]), LinExpr::zero()),
                    Formula::ge(LinExpr::var(sp), LinExpr::zero()),
                    Formula::eq(LinExpr::var(sq), LinExpr::var(sp) + LinExpr::constant(1)),
                ]));
            }
        }
        conjuncts.push(Formula::implies(
            Formula::gt(LinExpr::var(sq), LinExpr::zero()),
            Formula::or(span_options),
        ));
    }

    // Eq. 2: tag counters
    let mut tag_vars: BTreeMap<Tag, Var> = BTreeMap::new();
    let mut by_tag: BTreeMap<Tag, Vec<usize>> = BTreeMap::new();
    for (i, t) in transitions.iter().enumerate() {
        for &tag in &t.tags {
            by_tag.entry(tag).or_default().push(i);
        }
    }
    for (tag, indices) in by_tag {
        if !(options.tag_filter)(&tag) {
            continue;
        }
        let v = pool.fresh(&format!("{prefix}#tag{}", tag_vars.len()));
        let sum = LinExpr::sum_of_vars(indices.iter().map(|&i| trans_vars[i]));
        conjuncts.push(Formula::eq(LinExpr::var(v), sum));
        tag_vars.insert(tag, v);
    }

    ParikhEncoding {
        formula: Formula::and(conjuncts),
        trans_vars,
        tag_vars,
        gamma_init,
        gamma_final,
    }
}

/// Reconstructs an accepting run (a sequence of transition indices) of the
/// tag automaton from a model of its Parikh encoding.
///
/// Returns `None` if the model's transition counts cannot be arranged into a
/// run — which, by property (1) of `PF`, indicates a bug rather than an
/// expected condition; callers treat it as an internal error.
pub fn run_from_model(
    ta: &TagAutomaton,
    encoding: &ParikhEncoding,
    model: &Model,
) -> Option<Vec<usize>> {
    let counts = encoding.transition_counts(model);
    let edges: Vec<(usize, usize)> = ta
        .transitions()
        .iter()
        .map(|t| (t.source, t.target))
        .collect();
    let mut count_vec = vec![0u64; edges.len()];
    for (&i, &c) in &counts {
        count_vec[i] = c;
    }
    let start = encoding.start_state(model)?;
    let path = reconstruct_eulerian_path(ta.num_states(), &edges, &count_vec, start)?;
    // the run must end in a final state
    let end = path
        .last()
        .map(|&i| ta.transitions()[i].target)
        .unwrap_or(start);
    if ta.is_final(end) {
        Some(path)
    } else {
        None
    }
}

/// If the model's positive-flow support is disconnected from the run's start
/// state, returns a *connectivity cut*: a formula satisfied by every genuine
/// run but violated by the spurious model.  Returns `None` if the support is
/// connected (i.e. the model is structurally a run).
///
/// This is the lazy counterpart of the spanning-tree constraints of
/// Appendix A: the solving pipeline omits those constraints (they introduce
/// one disjunction per state) and instead validates each candidate model,
/// adding cuts until the model reconstructs into an actual run.
pub fn connectivity_cut(
    ta: &TagAutomaton,
    encoding: &ParikhEncoding,
    model: &Model,
) -> Option<Formula> {
    let counts = encoding.transition_counts(model);
    if counts.is_empty() {
        return None;
    }
    let start = encoding.start_state(model)?;
    // states reachable from `start` using only positive-flow transitions
    let mut reachable = vec![false; ta.num_states()];
    reachable[start] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for &idx in counts.keys() {
            let t = &ta.transitions()[idx];
            if reachable[t.source] && !reachable[t.target] {
                reachable[t.target] = true;
                changed = true;
            }
        }
    }
    let disconnected: Vec<usize> = counts
        .keys()
        .copied()
        .filter(|&idx| !reachable[ta.transitions()[idx].source])
        .collect();
    if disconnected.is_empty() {
        return None;
    }
    // the offending component: all states touched by disconnected flow
    let mut component: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for &idx in &disconnected {
        component.insert(ta.transitions()[idx].source);
        component.insert(ta.transitions()[idx].target);
    }
    let mut inner_sum = LinExpr::zero();
    let mut entering_sum = LinExpr::zero();
    for (idx, t) in ta.transitions().iter().enumerate() {
        if component.contains(&t.source) {
            inner_sum += LinExpr::var(encoding.trans_vars[idx]);
        }
        if component.contains(&t.target) && !component.contains(&t.source) {
            entering_sum += LinExpr::var(encoding.trans_vars[idx]);
        }
    }
    Some(Formula::or(vec![
        Formula::eq(inner_sum, LinExpr::zero()),
        Formula::ge(entering_sum, LinExpr::constant(1)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ta::{concatenate, len_tag};
    use crate::tags::VarTable;
    use posr_automata::Regex;
    use posr_lia::solver::{Solver, SolverResult};

    fn encode(ta: &TagAutomaton) -> (ParikhEncoding, VarPool) {
        let mut pool = VarPool::new();
        let enc = parikh_tag_formula(ta, &mut pool, &ParikhOptions::default());
        (enc, pool)
    }

    #[test]
    fn accepting_runs_exist_for_nonempty_language() {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let ta = len_tag(&Regex::parse("(ab)*c").unwrap().compile(), x);
        let (enc, _) = encode(&ta);
        let result = Solver::new().solve(&enc.formula);
        assert!(
            result.is_sat(),
            "PF of a non-empty language must be satisfiable"
        );
        let model = result.model().unwrap();
        let run = run_from_model(&ta, &enc, model).expect("run reconstruction");
        assert!(!run.is_empty());
    }

    #[test]
    fn tag_counters_match_run_lengths() {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let ta = len_tag(&Regex::parse("(ab)*c").unwrap().compile(), x);
        let (enc, _) = encode(&ta);
        // ask for a run with exactly 5 letters (e.g. ababc)
        let phi = Formula::and(vec![
            enc.formula.clone(),
            Formula::eq(enc.tag_count(&Tag::Length(x)), LinExpr::constant(5)),
        ]);
        match Solver::new().solve(&phi) {
            SolverResult::Sat(model) => {
                let run = run_from_model(&ta, &enc, &model).expect("run");
                assert_eq!(run.len(), 5);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_length_is_unsat() {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        // (ab)* has only even lengths
        let ta = len_tag(&Regex::parse("(ab)*").unwrap().compile(), x);
        let (enc, _) = encode(&ta);
        let phi = Formula::and(vec![
            enc.formula.clone(),
            Formula::eq(enc.tag_count(&Tag::Length(x)), LinExpr::constant(3)),
        ]);
        assert_eq!(Solver::new().solve(&phi), SolverResult::Unsat);
    }

    #[test]
    fn concatenation_lengths_are_independent() {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let mut automata = std::collections::BTreeMap::new();
        automata.insert(x, Regex::parse("(ab)*").unwrap().compile());
        automata.insert(y, Regex::parse("c{2,4}").unwrap().compile());
        let concat = concatenate(&[x, y], &automata);
        let (enc, _) = encode(&concat.ta);
        // |x| = 4 and |y| = 3 is achievable
        let phi = Formula::and(vec![
            enc.formula.clone(),
            Formula::eq(enc.tag_count(&Tag::Length(x)), LinExpr::constant(4)),
            Formula::eq(enc.tag_count(&Tag::Length(y)), LinExpr::constant(3)),
        ]);
        assert!(Solver::new().solve(&phi).is_sat());
        // |y| = 5 is not
        let phi_bad = Formula::and(vec![
            enc.formula.clone(),
            Formula::eq(enc.tag_count(&Tag::Length(y)), LinExpr::constant(5)),
        ]);
        assert_eq!(Solver::new().solve(&phi_bad), SolverResult::Unsat);
    }

    #[test]
    fn connectivity_excludes_disconnected_cycles() {
        // Automaton: initial/final state 0 with no transitions, plus a
        // disconnected cycle 1 -> 2 -> 1.  Without the spanning constraints a
        // "model" could put flow on the cycle; PF must force that flow to 0.
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let mut ta = TagAutomaton::new();
        let q0 = ta.add_state();
        let q1 = ta.add_state();
        let q2 = ta.add_state();
        ta.add_initial(q0);
        ta.add_final(q0);
        ta.add_transition(q1, [Tag::Length(x)], q2);
        ta.add_transition(q2, [Tag::Length(x)], q1);
        let (enc, _) = encode(&ta);
        let phi = Formula::and(vec![
            enc.formula.clone(),
            Formula::ge(enc.tag_count(&Tag::Length(x)), LinExpr::constant(1)),
        ]);
        assert_eq!(Solver::new().solve(&phi), SolverResult::Unsat);
    }

    #[test]
    fn tag_filter_skips_counters() {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let ta = len_tag(&Regex::parse("ab").unwrap().compile(), x);
        let mut pool = VarPool::new();
        let options = ParikhOptions {
            prefix: "t",
            tag_filter: &|tag| !matches!(tag, Tag::Symbol(_)),
            connectivity: true,
        };
        let enc = parikh_tag_formula(&ta, &mut pool, &options);
        assert!(enc.tag_vars.keys().all(|t| t.as_symbol().is_none()));
        assert!(enc.tag_vars.contains_key(&Tag::Length(x)));
        // filtered tags report a zero counter
        let zero = enc.tag_count(&Tag::Symbol(posr_automata::Symbol::from_char('a')));
        assert!(zero.is_constant());
    }

    #[test]
    fn lazy_connectivity_cut_rules_out_phantom_cycles() {
        // same disconnected-cycle automaton as above, but with the spanning
        // constraints dropped; the relaxed formula is (wrongly) satisfiable
        // and the cut must both detect and exclude the spurious model.
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let mut ta = TagAutomaton::new();
        let q0 = ta.add_state();
        let q1 = ta.add_state();
        let q2 = ta.add_state();
        ta.add_initial(q0);
        ta.add_final(q0);
        ta.add_transition(q1, [Tag::Length(x)], q2);
        ta.add_transition(q2, [Tag::Length(x)], q1);
        let mut pool = VarPool::new();
        let options = ParikhOptions {
            prefix: "pf",
            tag_filter: &|_| true,
            connectivity: false,
        };
        let enc = parikh_tag_formula(&ta, &mut pool, &options);
        let mut phi = Formula::and(vec![
            enc.formula.clone(),
            Formula::ge(enc.tag_count(&Tag::Length(x)), LinExpr::constant(1)),
        ]);
        let mut cuts = 0;
        loop {
            match Solver::new().solve(&phi) {
                SolverResult::Sat(model) => match connectivity_cut(&ta, &enc, &model) {
                    Some(cut) => {
                        cuts += 1;
                        assert!(cuts <= 5, "cut loop should converge quickly");
                        phi = Formula::and(vec![phi, cut]);
                    }
                    None => panic!("phantom-cycle model must be detected as disconnected"),
                },
                SolverResult::Unsat => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(cuts >= 1, "at least one cut must have been needed");
    }

    #[test]
    fn connected_model_needs_no_cut() {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let ta = len_tag(&Regex::parse("(ab)*c").unwrap().compile(), x);
        let mut pool = VarPool::new();
        let options = ParikhOptions {
            prefix: "pf",
            tag_filter: &|_| true,
            connectivity: false,
        };
        let enc = parikh_tag_formula(&ta, &mut pool, &options);
        match Solver::new().solve(&enc.formula) {
            SolverResult::Sat(model) => {
                assert!(connectivity_cut(&ta, &enc, &model).is_none());
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn empty_word_run_is_allowed() {
        let mut vars = VarTable::new();
        let x = vars.intern("x");
        let ta = len_tag(&Regex::parse("(ab)*").unwrap().compile(), x);
        let (enc, _) = encode(&ta);
        let phi = Formula::and(vec![
            enc.formula.clone(),
            Formula::eq(enc.tag_count(&Tag::Length(x)), LinExpr::zero()),
        ]);
        match Solver::new().solve(&phi) {
            SolverResult::Sat(model) => {
                let run = run_from_model(&ta, &enc, &model).expect("empty run");
                assert!(run.is_empty());
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
