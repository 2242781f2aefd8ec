//! The position-constraint decision procedure: solving `R′ ∧ I′ ∧ P′`
//! (Sec. 3, the paper's main contribution).
//!
//! Given the refined regular constraints of one monadic case, the length
//! constraints and the position constraints (with the substitution already
//! applied), this module
//!
//! 1. splits the position atoms in one pass: every `¬contains` atom is a
//!    goal of the instantiation loop, every other atom becomes one
//!    constraint of the tag-automaton system of `posr-tagauto`
//!    ([`posr_tagauto::system`]), a `str.at` atom with a LIA variable for
//!    its position,
//! 2. translates the length constraints `I` and the `str.at` index terms
//!    into LIA over the `⟨L,x⟩` tag counters (`LiaLengths`, which the
//!    length-abstraction baseline shares),
//! 3. discharges the conjunction with the CDCL(T) LIA solver, restoring the
//!    exactness of the Parikh encoding with the shared connectivity-cut
//!    loop ([`posr_tagauto::system::CutLoop`]),
//! 4. handles `¬contains` by the model-based instantiation loop of
//!    [`crate::notcontains`], blocking refuted candidates in the session
//!    the cut loop solves, and
//! 5. reconstructs a concrete string model on success.
//!
//! Candidates are checked with `PositionAtom::holds`, the one concrete
//! evaluator of a position atom: the short-witness sampling assist checks
//! every atom, the instantiation loop the `¬contains` goals.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use posr_automata::nfa::symbols_to_string;
use posr_automata::Nfa;
use posr_lia::cancel::CancelToken;
use posr_lia::formula::Formula;
use posr_lia::incremental::IncrementalSolver;
use posr_lia::solver::{Model, SolverConfig};
use posr_lia::term::{LinExpr, Var, VarPool};
use posr_tagauto::onecounter_diseq::single_diseq_satisfiable;
use posr_tagauto::system::{
    Connected, CutLoop, PositionConstraint, PredicateKind, SystemEncoder, SystemEncoding,
};
use posr_tagauto::tags::{StrVar, VarTable};

use crate::ast::{LenCmp, LenTerm};
use crate::normal::{PositionAtom, PositionKind};
use crate::notcontains;

/// Outcome of the position procedure for one monadic case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PositionOutcome {
    /// Satisfiable, with a string assignment and values for the integer
    /// variables mentioned in the length constraints.
    Sat(BTreeMap<String, String>, BTreeMap<String, i64>),
    /// Unsatisfiable.
    Unsat,
    /// Undecided within the resource limits.
    Unknown(String),
}

impl PositionOutcome {
    /// Returns `true` for [`PositionOutcome::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, PositionOutcome::Sat(_, _))
    }
}

/// A shared collector of serialized `posr-proof` documents: every LIA-level
/// Unsat discharged with proof logging on appends its certificate here.
/// `Arc`-shared because the position procedure runs per monadic case and
/// the caller wants all documents of one query in one place.
pub type ProofSink = std::sync::Arc<std::sync::Mutex<Vec<String>>>;

/// The most `¬contains` candidates one solve blocks before it answers
/// `Unknown`.
const MAX_BLOCKED_CANDIDATES: usize = 64;

/// Soft deadline of the per-solve stall watchdog when the solve has no
/// deadline of its own.
const WATCHDOG_DEFAULT: Duration = Duration::from_secs(30);

/// How long a solve may run past its own deadline before its watchdog
/// calls it stalled.  Without it, a deadline that has already passed arms
/// a 0 ms timer that races the cancel path's `fire_now`, and a solve that
/// stopped on time could dump "stall" instead of its deadline.
const WATCHDOG_GRACE: Duration = Duration::from_secs(1);

/// The soft deadline of the per-solve stall watchdog for a solve starting
/// at `now`: the time left until `deadline` plus `WATCHDOG_GRACE`, or
/// `WATCHDOG_DEFAULT` when the solve has no deadline.
fn watchdog_soft_deadline(deadline: Option<Instant>, now: Instant) -> Duration {
    match deadline {
        Some(deadline) => deadline.saturating_duration_since(now) + WATCHDOG_GRACE,
        None => WATCHDOG_DEFAULT,
    }
}

/// Proof documents pushed into [`ProofSink`]s (obs counter, always live).
pub static OBS_PROOF_DOCS: std::sync::LazyLock<posr_obs::Counter> =
    std::sync::LazyLock::new(|| posr_obs::counter("proof.sink.docs"));
/// Serialized proof bytes pushed into [`ProofSink`]s.
pub static OBS_PROOF_BYTES: std::sync::LazyLock<posr_obs::Counter> =
    std::sync::LazyLock::new(|| posr_obs::counter("proof.sink.bytes"));

/// What the caller controls of the position procedure.  Its limits are
/// constants: [`posr_tagauto::system::MAX_CONNECTIVITY_CUTS`] and
/// `MAX_BLOCKED_CANDIDATES` `¬contains` rounds.
#[derive(Clone, Debug, Default)]
pub struct PositionOptions {
    /// When set, the CEGAR loop turns on LIA proof logging and pushes the
    /// serialized proof of every certified Unsat into the sink — the
    /// engine behind SMT-LIB `(get-proof)`.
    pub proof_sink: Option<ProofSink>,
    /// Cooperative cancellation token (flag and deadline); polled before
    /// every solver call and propagated into the LIA search itself.
    pub cancel: CancelToken,
}

/// The input of the procedure: `R′` (languages), `I` (length constraints)
/// and `P′` (position constraints), all over the same variable names.
pub struct PositionProblem<'a> {
    /// One automaton per variable.
    pub languages: &'a BTreeMap<String, Nfa>,
    /// Position constraints.
    pub positions: &'a [PositionAtom],
    /// Length constraints.
    pub lengths: &'a [(LenTerm, LenCmp, LenTerm)],
}

/// Solves `R′ ∧ I′ ∧ P′`.
pub fn solve_position(problem: &PositionProblem<'_>, options: &PositionOptions) -> PositionOutcome {
    let mut vars = VarTable::new();
    let mut automata: BTreeMap<StrVar, Nfa> = BTreeMap::new();
    {
        let _span = posr_obs::span!("automata", "automata.prepare");
        for (name, nfa) in problem.languages {
            let v = vars.intern(name);
            // content-keyed preparation cache: the refined languages of the
            // monadic cases are intersection automata with no pattern
            // string, and across cases / racing strategies / CEGAR rounds
            // the same intersections recur — `prepared_for` interns their
            // ε-free trimmed forms process-wide instead of recomputing them
            // per case
            let trimmed = posr_automata::cache::prepared_for(nfa);
            if trimmed.is_empty_language() {
                return PositionOutcome::Unsat;
            }
            automata.insert(v, (*trimmed).clone());
        }
    }

    // short-witness sampling before any encoding work; `Sat` answers from
    // here are validated concretely and therefore sound.  The trimmed
    // automata computed above are reused so sampling does not redo the
    // ε-removal per attempt.
    let sampled = {
        let _span = posr_obs::span!("automata", "automata.sample");
        // both maps are in name order: the names were interned in it
        let trimmed_by_name: Vec<(&String, &Nfa)> =
            problem.languages.keys().zip(automata.values()).collect();
        sampling_assist(problem, &trimmed_by_name)
    };
    if let Some(outcome) = sampled {
        return outcome;
    }

    // one pass over the atoms: every ¬contains atom is a goal of the
    // instantiation loop, every other atom joins the tag-automaton system,
    // a `str.at` atom with a fresh LIA variable for its position (bound to
    // the index term once the encoding's length counters exist)
    let mut pool = VarPool::new();
    let mut system: Vec<PositionConstraint> = Vec::new();
    let mut index_bindings: Vec<(Var, LenTerm)> = Vec::new();
    let mut not_contains: Vec<&PositionAtom> = Vec::new();
    for atom in problem.positions {
        let constraint = system_constraint(atom, &mut vars, |index| {
            let var = pool.fresh("stratidx");
            index_bindings.push((var, index.clone()));
            Some(var)
        });
        match constraint {
            Some(constraint) => system.push(constraint),
            None => not_contains.push(atom),
        }
    }

    // PTime fast path (Sec. 7.1): a single disequality with nothing else
    // attached is decided by 0-reachability in a one-counter automaton.
    // `Unsat` is final; `Sat` still goes through the LIA encoding below
    // because callers need a concrete model, and the encoding's satisfiable
    // searches are cheap compared to its refutations.
    if let [PositionConstraint {
        kind: PredicateKind::Diseq,
        left,
        right,
    }] = system.as_slice()
    {
        if not_contains.is_empty() && problem.lengths.is_empty() {
            let _span = posr_obs::span!("automata", "automata.onecounter");
            if !single_diseq_satisfiable(left, right, &automata) {
                return PositionOutcome::Unsat;
            }
        }
    }

    system.extend(length_eqs(&automata, &mut pool));
    let encoder = SystemEncoder::new(&automata, &vars);
    let encoding = {
        let _span = posr_obs::span!("core", "encode");
        encoder.encode(&system, &mut pool)
    };

    let mut lengths = LiaLengths::new(&encoding, &vars, &mut pool);
    let mut lia_conjuncts = vec![encoding.formula.clone()];
    for atom in problem.lengths {
        lia_conjuncts.push(lengths.atom(atom));
    }
    for (var, index) in &index_bindings {
        let defined = lengths.term(index);
        lia_conjuncts.push(Formula::eq(LinExpr::var(*var), defined));
    }
    let base_formula = Formula::and(lia_conjuncts);

    // quick syntactic checks and the model-based instantiation loop for ¬contains
    if notcontains::syntactically_unsat(&not_contains).is_some() {
        return PositionOutcome::Unsat;
    }

    solve_with_cegar(
        &encoding,
        base_formula,
        &not_contains,
        &vars,
        &automata,
        &lengths.ints,
        options,
    )
}

/// The tag-automaton constraint of a position atom, its sides interned in
/// `vars`.  A `str.at` atom takes the LIA variable of its position from
/// `index`, which may decline.  `None` for `¬contains`, which the encoding
/// does not express, and for a declined `str.at`.
pub(crate) fn system_constraint(
    atom: &PositionAtom,
    vars: &mut VarTable,
    index: impl FnOnce(&LenTerm) -> Option<Var>,
) -> Option<PositionConstraint> {
    let kind = match &atom.kind {
        PositionKind::Diseq => PredicateKind::Diseq,
        PositionKind::NotPrefix => PredicateKind::NotPrefixOf,
        PositionKind::NotSuffix => PredicateKind::NotSuffixOf,
        PositionKind::NotContains => return None,
        PositionKind::StrAt {
            index: term,
            negated,
        } => {
            let index = index(term)?;
            if *negated {
                PredicateKind::StrAtNe { index }
            } else {
                PredicateKind::StrAtEq { index }
            }
        }
    };
    Some(PositionConstraint {
        kind,
        left: atom.left.iter().map(|v| vars.intern(v)).collect(),
        right: atom.right.iter().map(|v| vars.intern(v)).collect(),
    })
}

/// One `LengthEq` constraint per language variable, in variable order.
/// The encoder builds length counters only for variables occurring in
/// constraints, so without these a variable mentioned in `I` but not in
/// `P` would get the constant length 0 (turning `len(x) = 8` into the
/// bogus `0 = 8`), and the extracted model would leave it unassigned.
/// `LengthEq` needs no mismatch machinery, so `K` is unchanged.
pub(crate) fn length_eqs<'a>(
    automata: &'a BTreeMap<StrVar, Nfa>,
    pool: &'a mut VarPool,
) -> impl Iterator<Item = PositionConstraint> + 'a {
    automata.keys().map(|&v| PositionConstraint {
        kind: PredicateKind::LengthEq {
            target: pool.fresh("varlen"),
        },
        left: Vec::new(),
        right: vec![v],
    })
}

/// Length constraints in LIA over an encoding's length counters: `len(x)`
/// is `x`'s counter (0 for a variable outside the encoding), and the
/// integer variables of the surface syntax get stable `int:{name}`
/// variables in the encoding's pool.
pub(crate) struct LiaLengths<'a> {
    encoding: &'a SystemEncoding,
    vars: &'a VarTable,
    pool: &'a mut VarPool,
    /// The LIA variable of every integer variable translated so far.
    pub(crate) ints: BTreeMap<String, Var>,
}

impl<'a> LiaLengths<'a> {
    pub(crate) fn new(
        encoding: &'a SystemEncoding,
        vars: &'a VarTable,
        pool: &'a mut VarPool,
    ) -> LiaLengths<'a> {
        LiaLengths {
            encoding,
            vars,
            pool,
            ints: BTreeMap::new(),
        }
    }

    /// The LIA image of a length term.
    pub(crate) fn term(&mut self, t: &LenTerm) -> LinExpr {
        let mut e = LinExpr::constant(t.constant as i128);
        for (name, coeff) in &t.len_coeffs {
            if let Some(v) = self.vars.lookup(name) {
                e += self.encoding.length_of(v) * (*coeff as i128);
            }
        }
        for (name, coeff) in &t.int_coeffs {
            let var = *self
                .ints
                .entry(name.clone())
                .or_insert_with(|| self.pool.named(&format!("int:{name}")));
            e += LinExpr::scaled_var(var, *coeff as i128);
        }
        e
    }

    /// The LIA image of a length atom `lhs ⋈ rhs`.
    pub(crate) fn atom(&mut self, (lhs, cmp, rhs): &(LenTerm, LenCmp, LenTerm)) -> Formula {
        let (l, r) = (self.term(lhs), self.term(rhs));
        match cmp {
            LenCmp::Le => Formula::le(l, r),
            LenCmp::Lt => Formula::lt(l, r),
            LenCmp::Eq => Formula::eq(l, r),
            LenCmp::Ne => Formula::ne(l, r),
            LenCmp::Ge => Formula::ge(l, r),
            LenCmp::Gt => Formula::gt(l, r),
        }
    }
}

/// Sampling assist: satisfiable position constraints overwhelmingly have
/// short witnesses (the observation behind the enumeration baseline and
/// the paper's account of cvc5's strength on satisfiable inputs), so a
/// brief randomized guess-and-check pass runs before the LIA encoding.
/// Every candidate is validated *concretely* against the position and
/// length constraints, so a `Sat` from here is always sound; failure just
/// falls through to the exact procedure.  Fragments the assist has no
/// integer values for (`str.at`, integer variables in lengths) skip it.
fn sampling_assist(
    problem: &PositionProblem<'_>,
    trimmed_languages: &[(&String, &Nfa)],
) -> Option<PositionOutcome> {
    use posr_automata::sample::Sampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    for (lhs, _, rhs) in problem.lengths {
        if !lhs.int_coeffs.is_empty() || !rhs.int_coeffs.is_empty() {
            return None;
        }
    }
    if problem
        .positions
        .iter()
        .any(|p| matches!(p.kind, PositionKind::StrAt { .. }))
    {
        return None;
    }

    let samplers: Vec<(&String, Sampler)> = trimmed_languages
        .iter()
        .map(|&(name, nfa)| (name, Sampler::new(nfa)))
        .collect();
    let no_ints = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    for bound in [2usize, 4, 8] {
        'attempt: for _ in 0..48 {
            let mut strings: BTreeMap<String, String> = BTreeMap::new();
            for (name, sampler) in &samplers {
                match sampler.sample(bound, &mut rng) {
                    Some(word) => {
                        strings.insert((*name).clone(), symbols_to_string(&word));
                    }
                    None => continue 'attempt,
                }
            }
            let holds = problem
                .positions
                .iter()
                .all(|p| p.holds(&strings, &no_ints))
                && problem.lengths.iter().all(|(lhs, cmp, rhs)| {
                    cmp.eval(lhs.eval(&strings, &no_ints), rhs.eval(&strings, &no_ints))
                });
            if holds {
                return Some(PositionOutcome::Sat(strings, no_ints));
            }
        }
    }
    None
}

/// The `¬contains` instantiation loop around the connectivity-cut loop:
/// every connected candidate that refutes a `¬contains` goal is blocked in
/// the same persistent CDCL(T) session, so the conflicts refuting one
/// candidate keep pruning the next round's search.
fn solve_with_cegar(
    encoding: &SystemEncoding,
    base_formula: Formula,
    not_contains: &[&PositionAtom],
    vars: &VarTable,
    automata: &BTreeMap<StrVar, Nfa>,
    int_vars: &BTreeMap<String, Var>,
    options: &PositionOptions,
) -> PositionOutcome {
    let token = &options.cancel;
    // the LIA search observes the same token the loop polls, and proofs
    // come from the persistent session's log
    let mut session = IncrementalSolver::with_config(SolverConfig {
        cancel: token.clone(),
        proof_logging: options.proof_sink.is_some(),
        ..SolverConfig::default()
    });
    {
        // clausification and theory registration finish the encoding
        let _span = posr_obs::span!("core", "encode");
        session.assert_formula(&base_formula);
    }
    let mut cut_loop = CutLoop::new(encoding, token.clone());
    let mut rounds = 0usize;
    let flat = not_contains.is_empty() || notcontains::all_flat(not_contains, vars, automata);
    // the stall watchdog (a no-op unless `POSR_BLACKBOX_DIR` is set): a
    // solve past its soft deadline, or one killed by cancellation via
    // `fire_now`, leaves a black-box dump behind
    let watchdog = posr_obs::Watchdog::arm(
        "position-solve",
        watchdog_soft_deadline(token.deadline(), Instant::now()),
    );
    loop {
        let (model, assignment) = match cut_loop.solve(&mut session) {
            Connected::Sat(model, assignment) => (model, assignment),
            Connected::Unsat => {
                // blocking clauses for non-flat ¬contains are over-approximate,
                // so exhausting them does not prove unsatisfiability
                if rounds > 0 && !flat {
                    return PositionOutcome::Unknown(
                        "¬contains over non-flat languages: candidates exhausted".to_string(),
                    );
                }
                // an incomplete log is withheld: the replayer rejects it
                // by design, so there is no point handing it out
                let proof = if session.proof_is_complete() {
                    session.proof()
                } else {
                    None
                };
                if let (Some(sink), Some(proof)) = (&options.proof_sink, proof) {
                    let _span = posr_obs::span!("core", "proof.sink");
                    OBS_PROOF_DOCS.incr();
                    OBS_PROOF_BYTES.add(proof.len() as u64);
                    posr_obs::budget::charge_mem(proof.len() as u64);
                    sink.lock().expect("proof sink poisoned").push(proof);
                }
                return PositionOutcome::Unsat;
            }
            Connected::Unknown(reason) => {
                if token.is_cancelled() {
                    watchdog.fire_now(&reason);
                }
                return PositionOutcome::Unknown(reason);
            }
        };
        let strings = assignment_to_strings(&assignment, vars);
        // check the ¬contains goals concretely (the universal offset
        // quantifier of φ^NC ranges over finitely many offsets of the
        // concrete words)
        let no_ints = BTreeMap::new();
        let refuted = not_contains
            .iter()
            .any(|atom| !atom.holds(&strings, &no_ints));
        if refuted {
            rounds += 1;
            if rounds > MAX_BLOCKED_CANDIDATES {
                return PositionOutcome::Unknown(
                    "¬contains instantiation limit exceeded".to_string(),
                );
            }
            posr_obs::instant("core", "cegar.block-candidate");
            cut_loop.refined();
            session.assert_formula(&blocking_clause(encoding, &model));
            continue;
        }
        let ints = int_vars
            .iter()
            .map(|(name, &v)| (name.clone(), model.value(v) as i64))
            .collect();
        return PositionOutcome::Sat(strings, ints);
    }
}

fn assignment_to_strings(
    assignment: &BTreeMap<StrVar, Vec<posr_automata::Symbol>>,
    vars: &VarTable,
) -> BTreeMap<String, String> {
    assignment
        .iter()
        .map(|(&v, symbols)| (vars.name(v).to_string(), symbols_to_string(symbols)))
        .collect()
}

/// Blocks the Parikh image of the refuted candidate: at least one transition
/// counter must change.  For flat languages this blocks exactly one string
/// assignment (Parikh image ⇒ word), which is what makes the instantiation
/// loop a faithful implementation of φ^NC.
fn blocking_clause(encoding: &SystemEncoding, model: &Model) -> Formula {
    let Some(parikh) = &encoding.parikh else {
        return Formula::False;
    };
    let mut disjuncts = Vec::new();
    for &tv in &parikh.trans_vars {
        disjuncts.push(Formula::ne(
            LinExpr::var(tv),
            LinExpr::constant(model.value(tv)),
        ));
    }
    Formula::or(disjuncts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use posr_automata::Regex;

    fn languages(specs: &[(&str, &str)]) -> BTreeMap<String, Nfa> {
        specs
            .iter()
            .map(|(name, re)| (name.to_string(), Regex::parse(re).unwrap().compile()))
            .collect()
    }

    #[test]
    fn watchdog_grace_outlasts_the_deadline() {
        let start = Instant::now();
        // a deadline that has already passed still leaves the grace, so the
        // cancel path names the deadline before the timer can call a stall
        let later = start + Duration::from_secs(5);
        assert_eq!(watchdog_soft_deadline(Some(start), later), WATCHDOG_GRACE);
        let ahead = start + Duration::from_secs(2);
        assert_eq!(
            watchdog_soft_deadline(Some(ahead), start),
            Duration::from_secs(2) + WATCHDOG_GRACE
        );
        assert_eq!(watchdog_soft_deadline(None, start), Duration::from_secs(30));
    }

    #[test]
    fn single_diseq_sat_with_validated_model() {
        // (ba)* on the right: with (ab)* on both sides the equal-length
        // disequality would be unsatisfiable
        let langs = languages(&[("x", "(ab)*"), ("y", "(ba)*")]);
        let positions = vec![PositionAtom::new(
            PositionKind::Diseq,
            vec!["x".to_string()],
            vec!["y".to_string()],
        )];
        let lengths = vec![(LenTerm::len("x"), LenCmp::Eq, LenTerm::len("y"))];
        let problem = PositionProblem {
            languages: &langs,
            positions: &positions,
            lengths: &lengths,
        };
        match solve_position(&problem, &PositionOptions::default()) {
            PositionOutcome::Sat(strings, _) => {
                assert_ne!(strings["x"], strings["y"]);
                assert_eq!(strings["x"].len(), strings["y"].len());
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn single_diseq_unsat() {
        let langs = languages(&[("x", "ab"), ("y", "ab")]);
        let positions = vec![PositionAtom::new(
            PositionKind::Diseq,
            vec!["x".to_string()],
            vec!["y".to_string()],
        )];
        let problem = PositionProblem {
            languages: &langs,
            positions: &positions,
            lengths: &[],
        };
        assert_eq!(
            solve_position(&problem, &PositionOptions::default()),
            PositionOutcome::Unsat
        );
    }

    #[test]
    fn not_contains_sat_via_instantiation() {
        // ¬contains(y, x): find x ∈ (ab)*, y ∈ (ba)* with x not inside y
        let langs = languages(&[("x", "(ab)+"), ("y", "(ba)+")]);
        let positions = vec![PositionAtom::new(
            PositionKind::NotContains,
            vec!["x".to_string()],
            vec!["y".to_string()],
        )];
        let problem = PositionProblem {
            languages: &langs,
            positions: &positions,
            lengths: &[],
        };
        match solve_position(&problem, &PositionOptions::default()) {
            PositionOutcome::Sat(strings, _) => {
                assert!(!strings["y"].contains(&strings["x"]));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn not_contains_syntactic_unsat() {
        // ¬contains(x·y·x, y) is unsat: y literally occurs inside the haystack
        let langs = languages(&[("x", "(ab)*"), ("y", "(ab)*")]);
        let positions = vec![PositionAtom::new(
            PositionKind::NotContains,
            vec!["y".to_string()],
            vec!["x".to_string(), "y".to_string(), "x".to_string()],
        )];
        let problem = PositionProblem {
            languages: &langs,
            positions: &positions,
            lengths: &[],
        };
        assert_eq!(
            solve_position(&problem, &PositionOptions::default()),
            PositionOutcome::Unsat
        );
    }

    #[test]
    fn empty_language_is_unsat() {
        let mut langs = languages(&[("x", "a*")]);
        langs.insert("y".to_string(), Nfa::empty_language());
        let positions = vec![PositionAtom::new(
            PositionKind::Diseq,
            vec!["x".to_string()],
            vec!["y".to_string()],
        )];
        let problem = PositionProblem {
            languages: &langs,
            positions: &positions,
            lengths: &[],
        };
        assert_eq!(
            solve_position(&problem, &PositionOptions::default()),
            PositionOutcome::Unsat
        );
    }
}
