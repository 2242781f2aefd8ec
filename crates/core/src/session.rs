//! An incremental solving session over string formulas: the engine behind
//! multi-`(check-sat)` SMT-LIB scripts with `(push)`/`(pop)`.
//!
//! A [`SolverSession`] keeps an assertion stack of [`StringAtom`]s and
//! answers `check-sat` for the conjunction of every live assertion.  The
//! string-level pipeline (normalisation → monadic decomposition → position
//! encoding) re-runs per check — the monadic case split is not incremental
//! — but the expensive layers underneath *are* reused across checks:
//!
//! * compiled and prepared automata are interned in the process-wide
//!   caches of `posr-automata`, so re-checking after a `push` re-uses every
//!   intersection and ε-elimination of the previous check, and
//! * within each check, the CEGAR loops (connectivity cuts, `¬contains`
//!   instantiation) run on one persistent incremental CDCL(T) session
//!   ([`posr_lia::incremental`]), retaining learned clauses across
//!   refinement rounds.
//!
//! The `posr-smtfmt` crate's `run_script` drives one of these sessions
//! from SMT-LIB command-stream text.

use crate::ast::{StringAtom, StringFormula};
use crate::position::ProofSink;
use crate::solver::{Answer, SolverOptions, StringModel, StringSolver};

/// The most named assertions the deletion-minimising core extractor will
/// re-solve for; beyond it, `get-unsat-core` falls back to the full set of
/// names (still a correct core, just not a minimised one).
const CORE_MINIMIZE_CAP: usize = 24;

/// A stack-shaped incremental session over string assertions.
#[derive(Clone, Debug)]
pub struct SolverSession {
    options: SolverOptions,
    /// All live assertions, in assertion order.
    atoms: Vec<StringAtom>,
    /// `names[i]` is the `(! … :named n)` label of `atoms[i]`, when given.
    /// Unnamed assertions never appear in cores but always stay asserted
    /// during core extraction, matching SMT-LIB semantics.
    names: Vec<Option<String>>,
    /// Stack marks: `frames[i]` is the length of `atoms` when frame `i`
    /// was opened.
    frames: Vec<usize>,
    /// The model of the most recent satisfiable check.
    last_model: Option<StringModel>,
    /// `(set-option :produce-unsat-cores true)`.
    produce_unsat_cores: bool,
    /// `(set-option :produce-proofs true)`.
    produce_proofs: bool,
    /// The core of the most recent Unsat check (names only).
    last_core: Option<Vec<String>>,
    /// Serialized LIA proof documents of the most recent Unsat check:
    /// `Some` (possibly empty) only when that check answered `Unsat` with
    /// proof production on.
    last_proofs: Option<Vec<String>>,
    /// Observability scope attached for the duration of every
    /// `check-sat`; collects the LIA search, cache and proof counters this
    /// session's checks caused, exactly, even under concurrency.
    scope: posr_obs::CounterScope,
    /// `check-sat` commands answered so far.
    checks: u64,
    /// Wall time spent inside `check-sat` (including core extraction).
    check_time: std::time::Duration,
}

impl Default for SolverSession {
    fn default() -> SolverSession {
        SolverSession {
            options: SolverOptions::default(),
            atoms: Vec::new(),
            names: Vec::new(),
            frames: Vec::new(),
            last_model: None,
            produce_unsat_cores: false,
            produce_proofs: false,
            last_core: None,
            last_proofs: None,
            scope: posr_obs::CounterScope::new(),
            checks: 0,
            check_time: std::time::Duration::ZERO,
        }
    }
}

impl SolverSession {
    /// A session with default solver options.
    pub fn new() -> SolverSession {
        SolverSession::default()
    }

    /// A session with explicit solver options (deadlines, cancellation,
    /// LIA limits) applied to every `check-sat`.
    pub fn with_options(options: SolverOptions) -> SolverSession {
        SolverSession {
            options,
            ..SolverSession::default()
        }
    }

    /// Enables `(get-unsat-core)` for subsequent checks.
    pub fn set_produce_unsat_cores(&mut self, on: bool) {
        self.produce_unsat_cores = on;
    }

    /// Enables `(get-proof)` for subsequent checks.
    pub fn set_produce_proofs(&mut self, on: bool) {
        self.produce_proofs = on;
    }

    /// Conjoins an assertion at the current stack level.
    pub fn assert(&mut self, atom: StringAtom) {
        self.atoms.push(atom);
        self.names.push(None);
    }

    /// Conjoins a named assertion (`(assert (! … :named n))`); the name is
    /// what `(get-unsat-core)` reports.
    pub fn assert_named(&mut self, atom: StringAtom, name: Option<String>) {
        self.atoms.push(atom);
        self.names.push(name);
    }

    /// Conjoins several assertions at the current stack level.
    pub fn assert_all<I: IntoIterator<Item = StringAtom>>(&mut self, atoms: I) {
        for atom in atoms {
            self.assert(atom);
        }
    }

    /// Opens `n` assertion frames.
    pub fn push(&mut self, n: usize) {
        for _ in 0..n {
            self.frames.push(self.atoms.len());
        }
    }

    /// Closes `n` frames, retracting their assertions; `false` (and no
    /// change) when fewer than `n` frames are open.
    pub fn pop(&mut self, n: usize) -> bool {
        if n > self.frames.len() {
            return false;
        }
        for _ in 0..n {
            let mark = self.frames.pop().expect("checked above");
            self.atoms.truncate(mark);
            self.names.truncate(mark);
        }
        true
    }

    /// The number of open frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The conjunction of every live assertion, flattened.
    pub fn assertions(&self) -> StringFormula {
        StringFormula {
            atoms: self.atoms.clone(),
        }
    }

    /// Decides the conjunction of the live assertions.  The model of a
    /// `Sat` answer is remembered for [`SolverSession::last_model`]; an
    /// `Unsat` answer additionally computes the unsat core and collects
    /// the LIA proof documents when the respective options are on.
    pub fn check_sat(&mut self) -> Answer {
        let _attached = self.scope.attach();
        let started = std::time::Instant::now();
        self.checks += 1;
        self.last_core = None;
        self.last_proofs = None;
        let mut options = self.options.clone();
        let sink: Option<ProofSink> = self.produce_proofs.then(ProofSink::default);
        options.position.proof_sink = sink.clone();
        let answer = StringSolver::with_options(options).solve(&self.assertions());
        match &answer {
            Answer::Sat(model) => self.last_model = Some(model.clone()),
            Answer::Unsat => {
                if let Some(sink) = sink {
                    self.last_proofs = Some(sink.lock().expect("proof sink poisoned").clone());
                }
                if self.produce_unsat_cores {
                    self.last_core = Some(self.extract_core());
                }
            }
            Answer::Unknown(_) => {}
        }
        self.check_time += started.elapsed();
        answer
    }

    /// The session's statistics as ordered key/value pairs, the payload
    /// behind SMT-LIB `(get-info :all-statistics)`: check count and wall
    /// time, and the LIA search / automata-cache / CDCL(T) sub-layer time
    /// / proof-sink activity this session's checks caused (scope-exact
    /// even under concurrent solves elsewhere in the process).
    pub fn statistics(&self) -> Vec<(String, String)> {
        let lia = posr_lia::scope_stats(&self.scope);
        let hits = self.scope.get(*posr_automata::cache::OBS_HITS);
        let misses = self.scope.get(*posr_automata::cache::OBS_MISSES);
        let hit_ratio = match hits + misses {
            0 => "n/a".to_string(),
            lookups => format!("{:.3}", hits as f64 / lookups as f64),
        };
        let mut stats: Vec<(String, String)> = vec![
            ("checks".into(), self.checks.to_string()),
            (
                "check-time-ms".into(),
                format!("{:.3}", self.check_time.as_secs_f64() * 1e3),
            ),
            ("conflicts".into(), lia.conflicts.to_string()),
            ("decisions".into(), lia.decisions.to_string()),
            ("propagations".into(), lia.propagations.to_string()),
            ("restarts".into(), lia.restarts.to_string()),
            ("learned-clauses".into(), lia.learned_total.to_string()),
            ("gc-dropped-clauses".into(), lia.gc_dropped.to_string()),
            ("theory-propagations".into(), lia.theory_props.to_string()),
            ("simplex-checks".into(), lia.simplex_checks.to_string()),
            ("simplex-pivots".into(), lia.simplex_pivots.to_string()),
            ("final-checks".into(), lia.final_checks.to_string()),
            ("automata-cache-hits".into(), hits.to_string()),
            ("automata-cache-misses".into(), misses.to_string()),
            ("automata-cache-hit-ratio".into(), hit_ratio),
        ];
        // where the CDCL(T) search spent its time, one row per theory
        // sub-layer (µs, scope-exact like the cache counters)
        for (key, counter) in posr_lia::cdcl::layer_time_counters() {
            stats.push((key.into(), self.scope.get(counter).to_string()));
        }
        let proof_docs = self.scope.get(*crate::position::OBS_PROOF_DOCS);
        if proof_docs > 0 {
            stats.push(("proof-documents".into(), proof_docs.to_string()));
            stats.push((
                "proof-bytes".into(),
                self.scope
                    .get(*crate::position::OBS_PROOF_BYTES)
                    .to_string(),
            ));
        }
        // distribution metrics: one p50/p99/max row per histogram this
        // session's checks recorded into (scope-exact, like the counters)
        for hist in self.scope.histogram_totals() {
            let key = hist.name.replace(['.', '_'], "-");
            stats.push((format!("{key}-count"), hist.count.to_string()));
            stats.push((format!("{key}-p50"), hist.p50().to_string()));
            stats.push((format!("{key}-p99"), hist.p99().to_string()));
            stats.push((format!("{key}-max"), hist.max.to_string()));
        }
        stats
    }

    /// Wall time spent inside `check-sat` so far.
    pub fn check_time(&self) -> std::time::Duration {
        self.check_time
    }

    /// Deletion-based core extraction over the *named* assertions: drop
    /// one name at a time, re-solve with the rest (plus every unnamed
    /// assertion), and keep the drop whenever the answer stays `Unsat`.
    /// `Unknown` answers conservatively keep the name in the core.
    fn extract_core(&self) -> Vec<String> {
        let solver = StringSolver::with_options(self.options.clone());
        let named: Vec<usize> = (0..self.atoms.len())
            .filter(|&i| self.names[i].is_some())
            .collect();
        let mut kept: Vec<usize> = named.clone();
        if named.len() <= CORE_MINIMIZE_CAP {
            for &candidate in &named {
                let without: Vec<usize> =
                    kept.iter().copied().filter(|&i| i != candidate).collect();
                let formula = StringFormula {
                    atoms: (0..self.atoms.len())
                        .filter(|&i| self.names[i].is_none() || without.contains(&i))
                        .map(|i| self.atoms[i].clone())
                        .collect(),
                };
                if solver.solve(&formula).is_unsat() {
                    kept = without;
                }
            }
        }
        kept.iter()
            .map(|&i| self.names[i].clone().expect("named indices only"))
            .collect()
    }

    /// The unsat core of the most recent `Unsat` check: the names of a
    /// subset of the named assertions that (together with every unnamed
    /// assertion) is still unsatisfiable.  `None` unless the previous
    /// check answered `Unsat` with core production enabled.
    pub fn last_unsat_core(&self) -> Option<&[String]> {
        self.last_core.as_deref()
    }

    /// The serialized LIA proof documents of the most recent `Unsat`
    /// check (one `posr-proof` document per monadic case refuted by the
    /// CDCL(T) engine; `Some` but empty when every case was refuted by
    /// the automata or syntactic layers, which do not go through LIA;
    /// `None` unless the previous check answered `Unsat` with proof
    /// production on).  Replayable with the independent `posr-check`
    /// verifier.
    pub fn last_proofs(&self) -> Option<&[String]> {
        self.last_proofs.as_deref()
    }

    /// The model of the most recent satisfiable check, if any.
    pub fn last_model(&self) -> Option<&StringModel> {
        self.last_model.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StringTerm;

    fn in_re(var: &str, regex: &str) -> StringAtom {
        StringAtom::InRe {
            var: var.to_string(),
            regex: regex.to_string(),
            negated: false,
        }
    }

    fn diseq(lhs: &str, rhs: &str) -> StringAtom {
        StringAtom::Equation {
            lhs: StringTerm::var(lhs),
            rhs: StringTerm::var(rhs),
            negated: true,
        }
    }

    #[test]
    fn push_pop_flips_the_verdict_and_back() {
        let mut session = SolverSession::new();
        session.assert(in_re("x", "ab"));
        assert!(session.check_sat().is_sat());
        session.push(1);
        session.assert(in_re("y", "ab"));
        session.assert(diseq("x", "y"));
        assert!(session.check_sat().is_unsat(), "ab ≠ ab is unsat");
        assert!(session.pop(1));
        assert!(session.check_sat().is_sat());
        assert!(session.last_model().is_some());
    }

    #[test]
    fn pop_below_the_stack_is_rejected() {
        let mut session = SolverSession::new();
        assert!(!session.pop(1));
        session.push(2);
        assert!(session.pop(2));
        assert!(!session.pop(1));
    }

    #[test]
    fn statistics_count_only_this_sessions_search() {
        let session = SolverSession::new();
        // an Unsat over loopy languages, refuted by CDCL(T) search on
        // another thread
        let before = posr_lia::global_stats().conflicts;
        std::thread::spawn(|| {
            let formula = StringFormula::new()
                .in_re("x", "(ab)*")
                .in_re("y", "(ab)*")
                .diseq(StringTerm::var("x"), StringTerm::var("y"))
                .len_eq("x", "y");
            assert!(StringSolver::new().solve(&formula).is_unsat());
        })
        .join()
        .unwrap();
        assert!(posr_lia::global_stats().conflicts > before);
        let stats = session.statistics();
        assert!(
            stats.contains(&("conflicts".to_string(), "0".to_string())),
            "{stats:?}"
        );
    }

    #[test]
    fn check_matches_one_shot_solve_of_flattened_assertions() {
        let mut session = SolverSession::new();
        session.assert(in_re("x", "(ab)*"));
        session.push(1);
        session.assert(in_re("y", "(ba)*"));
        session.assert(diseq("x", "y"));
        let incremental = session.check_sat();
        let one_shot = StringSolver::new().solve(&session.assertions());
        assert_eq!(incremental.is_sat(), one_shot.is_sat());
        assert!(incremental.is_sat());
    }
}
