//! Round-trip certification: proofs produced by the `posr-lia` CDCL(T)
//! engine must replay through this crate's independent checker, and
//! *mutated* proofs must be rejected.
//!
//! The suites cover the three theory-certificate kinds (bounds chains,
//! GCD refutations, Farkas combinations), learned-clause RUP chains,
//! clause GC under a tiny learned cap, multi-query incremental sessions
//! with assumptions, and a randomized battery over the same xorshift
//! formula generator the engine differential suite uses.

use posr_check::check_document;
use posr_lia::cdcl::solve_cdcl_with_proof;
use posr_lia::formula::{Atom, Cmp, Formula};
use posr_lia::incremental::IncrementalSolver;
use posr_lia::solver::{SolverConfig, SolverResult};
use posr_lia::term::{LinExpr, Var, VarPool};

fn proving_config() -> SolverConfig {
    SolverConfig {
        proof_logging: true,
        ..SolverConfig::default()
    }
}

fn atom(expr: LinExpr, cmp: Cmp) -> Formula {
    Formula::Atom(Atom { expr, cmp })
}

/// Solves with proof logging and returns the proof document, asserting
/// the answer is Unsat and the proof replays.
fn certify_unsat(f: &Formula) -> String {
    let (result, proof) = solve_cdcl_with_proof(&f.nnf().simplify(), &proving_config());
    assert_eq!(result, SolverResult::Unsat, "formula should be Unsat");
    let proof = proof.expect("proof logging was on");
    let summary =
        check_document(&proof).unwrap_or_else(|e| panic!("proof rejected: {e}\n---\n{proof}"));
    assert!(summary.finals >= 1);
    proof
}

fn boxed(vars: &[Var], lo: i128, hi: i128) -> Vec<Formula> {
    vars.iter()
        .flat_map(|&v| {
            [
                atom(LinExpr::scaled_var(v, 1) + LinExpr::constant(-hi), Cmp::Le),
                atom(LinExpr::scaled_var(v, 1) + LinExpr::constant(-lo), Cmp::Ge),
            ]
        })
        .collect()
}

#[test]
fn interval_gap_proof_replays() {
    // x ≤ 5 ∧ x ≥ 6: a pure bound-chain refutation.
    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let f = Formula::and(vec![
        atom(LinExpr::scaled_var(x, 1) + LinExpr::constant(-5), Cmp::Le),
        atom(LinExpr::scaled_var(x, 1) + LinExpr::constant(-6), Cmp::Ge),
    ]);
    let proof = certify_unsat(&f);
    assert!(proof.contains("final"));
}

#[test]
fn parity_proof_replays() {
    // 2x − 2y = 1 over a box: a GCD (parity) refutation.
    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let y = pool.fresh("y");
    let mut parts = boxed(&[x, y], -20, 20);
    parts.push(atom(
        LinExpr::scaled_var(x, 2) + LinExpr::scaled_var(y, -2) + LinExpr::constant(-1),
        Cmp::Eq,
    ));
    certify_unsat(&Formula::and(parts));
}

/// Rationally infeasible with no single-variable bounds anywhere (so
/// interval propagation derives nothing) and no complementary atom pair
/// (so clausification cannot shortcut it Booleanly): x+y ≤ 0, y+z ≤ 0,
/// z+x ≤ 0 sum to x+y+z ≤ 0, refuting x+y+z ≥ 1.  Only a Farkas
/// combination (λ = ½,½,½,1) certifies it.
fn farkas_only_formula() -> Formula {
    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let y = pool.fresh("y");
    let z = pool.fresh("z");
    let pair = |a, b| {
        atom(
            LinExpr::scaled_var(a, 1) + LinExpr::scaled_var(b, 1),
            Cmp::Le,
        )
    };
    Formula::and(vec![
        pair(x, y),
        pair(y, z),
        pair(z, x),
        atom(
            LinExpr::scaled_var(x, 1)
                + LinExpr::scaled_var(y, 1)
                + LinExpr::scaled_var(z, 1)
                + LinExpr::constant(-1),
            Cmp::Ge,
        ),
    ])
}

#[test]
fn farkas_proof_replays() {
    let proof = certify_unsat(&farkas_only_formula());
    assert!(proof.contains("farkas"), "expected a Farkas leaf:\n{proof}");
}

#[test]
fn clause_learning_proof_replays() {
    // A disjunctive pigeonhole-flavoured formula: each of three "pigeons"
    // picks one of two half-line "holes", two pigeons per hole conflict.
    // Forces genuine Boolean search with learned clauses.
    let mut pool = VarPool::new();
    let p: Vec<Var> = (0..3).map(|i| pool.fresh(&format!("p{i}"))).collect();
    let mut parts = boxed(&p, 0, 1);
    // every pigeon sits at 0 or 1 — already implied by the box; now force
    // pairwise distinctness of three 0/1 variables (unsat):
    for i in 0..3 {
        for j in (i + 1)..3 {
            parts.push(atom(
                LinExpr::scaled_var(p[i], 1) + LinExpr::scaled_var(p[j], -1),
                Cmp::Ne,
            ));
        }
    }
    let proof = certify_unsat(&Formula::and(parts));
    assert!(
        proof.contains("derive"),
        "expected learned clauses:\n{proof}"
    );
}

#[test]
fn gc_under_tiny_learnt_cap_keeps_proof_valid() {
    // Same learning-heavy formula, but with a learned-clause cap of 1 so
    // the LBD-ranked GC fires and emits `delete` lines mid-proof.
    let mut pool = VarPool::new();
    let p: Vec<Var> = (0..4).map(|i| pool.fresh(&format!("p{i}"))).collect();
    let mut parts = boxed(&p, 0, 2);
    for i in 0..4 {
        for j in (i + 1)..4 {
            parts.push(atom(
                LinExpr::scaled_var(p[i], 1) + LinExpr::scaled_var(p[j], -1),
                Cmp::Ne,
            ));
        }
    }
    let f = Formula::and(parts).nnf().simplify();
    let config = SolverConfig {
        proof_logging: true,
        learnt_cap: 1,
        ..SolverConfig::default()
    };
    let (result, proof) = solve_cdcl_with_proof(&f, &config);
    assert_eq!(result, SolverResult::Unsat);
    let proof = proof.expect("logging on");
    check_document(&proof).unwrap_or_else(|e| panic!("proof rejected: {e}\n---\n{proof}"));
}

#[test]
fn sat_answers_are_not_certified() {
    // A satisfiable formula yields a document with no `final` step — the
    // checker must refuse to bless it as a refutation.
    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let f = Formula::and(vec![atom(
        LinExpr::scaled_var(x, 1) + LinExpr::constant(-5),
        Cmp::Le,
    )]);
    let (result, proof) = solve_cdcl_with_proof(&f.nnf().simplify(), &proving_config());
    assert!(matches!(result, SolverResult::Sat(_)));
    let proof = proof.expect("logging on");
    let e = check_document(&proof).expect_err("no Unsat was answered");
    assert!(e.message.contains("final"));
}

// ---------------------------------------------------------------------------
// adversarial mutations of real proofs

fn mutated_lines<F: Fn(&str) -> Option<String>>(proof: &str, mutate: F) -> Option<String> {
    let mut lines: Vec<String> = proof.lines().map(|l| l.to_string()).collect();
    let idx = lines.iter().position(|l| mutate(l).is_some())?;
    let replacement = mutate(&lines[idx]).expect("position matched");
    if replacement.is_empty() {
        lines.remove(idx);
    } else {
        lines[idx] = replacement;
    }
    Some(lines.join("\n") + "\n")
}

#[test]
fn mutated_proofs_are_rejected() {
    let mut pool = VarPool::new();
    let p: Vec<Var> = (0..3).map(|i| pool.fresh(&format!("p{i}"))).collect();
    let mut parts = boxed(&p, 0, 1);
    for i in 0..3 {
        for j in (i + 1)..3 {
            parts.push(atom(
                LinExpr::scaled_var(p[i], 1) + LinExpr::scaled_var(p[j], -1),
                Cmp::Ne,
            ));
        }
    }
    let proof = certify_unsat(&Formula::and(parts));

    // 1. drop the first hint from a derive step with ≥2 hints
    if let Some(bad) = mutated_lines(&proof, |l| {
        if !l.starts_with("derive") {
            return None;
        }
        let zero = l.find(" 0 ")?;
        let hints: Vec<&str> = l[zero + 3..].split_whitespace().collect();
        if hints.len() < 3 {
            return None; // one hint plus terminator: dropping leaves nothing
        }
        Some(format!("{} {}", &l[..zero + 2], hints[1..].join(" ")))
    }) {
        check_document(&bad).expect_err("dropped antecedent must be rejected");
    }

    // 2. drop a whole root clause that later steps resolve with
    let bad = mutated_lines(&proof, |l| l.starts_with("root").then(String::new))
        .expect("proofs have roots");
    check_document(&bad).expect_err("missing root must be rejected");

    // 3. truncate the proof before its final step
    let zapped = mutated_lines(&proof, |l| l.starts_with("final").then(String::new))
        .expect("certified proofs have finals");
    check_document(&zapped).expect_err("proof without final must be rejected");
}

#[test]
fn mutated_farkas_coefficients_are_rejected() {
    let proof = certify_unsat(&farkas_only_formula());
    let bad = mutated_lines(&proof, |l| {
        if !l.starts_with("lemma") || !l.contains("farkas") {
            return None;
        }
        // perturb the last coefficient's numerator
        let (head, coeff) = l.rsplit_once(' ')?;
        let (num, den) = coeff.split_once('/')?;
        let num: i64 = num.parse().ok()?;
        Some(format!("{head} {}/{den}", num + 1))
    })
    .expect("proof has a Farkas lemma");
    check_document(&bad).expect_err("perturbed Farkas coefficient must be rejected");

    let bad = mutated_lines(&proof, |l| {
        if !l.starts_with("lemma") {
            return None;
        }
        // drop the lemma's first literal (and, for a farkas lemma, the
        // now-surplus trailing coefficient so counts still match)
        let mut toks: Vec<&str> = l.split_whitespace().collect();
        if toks.len() < 5 || toks[3] == "0" {
            return None;
        }
        toks.remove(3);
        if l.contains("farkas") {
            toks.pop();
        }
        Some(toks.join(" "))
    })
    .expect("proof has a lemma with ≥1 literal");
    check_document(&bad).expect_err("weakened lemma clause must be rejected");
}

// ---------------------------------------------------------------------------
// incremental sessions: assumptions, cores, push/pop, multi-query

#[test]
fn assumption_core_certifies_and_resolves_unsat() {
    // Assumptions a ⇒ x ≥ 6, b ⇒ x ≤ 5, c ⇒ y ≥ 0; {a, b} is the core.
    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let y = pool.fresh("y");
    let mut session = IncrementalSolver::with_config(proving_config());
    let lits: Vec<_> = [
        atom(LinExpr::scaled_var(x, 1) + LinExpr::constant(-6), Cmp::Ge),
        atom(LinExpr::scaled_var(x, 1) + LinExpr::constant(-5), Cmp::Le),
        atom(LinExpr::scaled_var(y, 1), Cmp::Ge),
    ]
    .iter()
    .map(|f| match session.literal(f) {
        posr_lia::LitOrConst::Lit(l) => l,
        other => panic!("expected a literal, got {other:?}"),
    })
    .collect();

    assert_eq!(session.solve_under_assumptions(&lits), SolverResult::Unsat);
    let core = session.last_unsat_core().expect("Unsat yields a core");
    assert!(!core.is_empty() && core.len() <= 2, "core: {core:?}");
    assert!(core.iter().all(|l| lits.contains(l)), "core ⊆ assumptions");
    // the core alone must still be Unsat
    assert_eq!(session.solve_under_assumptions(&core), SolverResult::Unsat);
    assert!(session.proof_is_complete());
    let proof = session.proof().expect("logging on");
    let summary =
        check_document(&proof).unwrap_or_else(|e| panic!("proof rejected: {e}\n---\n{proof}"));
    assert_eq!(summary.finals, 2, "both Unsat answers certified");
    assert!(proof.contains("assume"));
}

#[test]
fn push_pop_session_proof_replays_across_queries() {
    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let mut session = IncrementalSolver::with_config(proving_config());
    session.assert_formula(&atom(
        LinExpr::scaled_var(x, 1) + LinExpr::constant(-5),
        Cmp::Le,
    ));
    assert!(matches!(session.solve(), SolverResult::Sat(_)));

    session.push();
    session.assert_formula(&atom(
        LinExpr::scaled_var(x, 1) + LinExpr::constant(-6),
        Cmp::Ge,
    ));
    assert_eq!(session.solve(), SolverResult::Unsat);
    assert!(session.pop());

    // after the pop the base frame is satisfiable again
    assert!(matches!(session.solve(), SolverResult::Sat(_)));

    // now make the base itself Unsat
    session.assert_formula(&atom(
        LinExpr::scaled_var(x, 1) + LinExpr::constant(-7),
        Cmp::Ge,
    ));
    assert_eq!(session.solve(), SolverResult::Unsat);
    assert!(session.proof_is_complete());

    let proof = session.proof().expect("logging on");
    let summary =
        check_document(&proof).unwrap_or_else(|e| panic!("proof rejected: {e}\n---\n{proof}"));
    assert_eq!(summary.queries, 4);
    assert_eq!(summary.finals, 2, "the two Unsat answers certified");
}

// ---------------------------------------------------------------------------
// randomized battery (same generator family as the engine differential
// suite: reproducible xorshift, failures print their seed)

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
        lo + self.below((hi - lo + 1) as u64) as i128
    }
}

fn random_atom(rng: &mut Rng, vars: &[Var]) -> Formula {
    let mut expr = LinExpr::constant(rng.int(-6, 6));
    for _ in 0..(1 + rng.below(3)) {
        let v = vars[rng.below(vars.len() as u64) as usize];
        let coeff = match rng.below(8) {
            0 => 2,
            1 => -2,
            2 => 3,
            _ => *[-1i128, 1].get(rng.below(2) as usize).unwrap(),
        };
        expr += LinExpr::scaled_var(v, coeff);
    }
    let cmp = match rng.below(6) {
        0 => Cmp::Le,
        1 => Cmp::Lt,
        2 => Cmp::Ge,
        3 => Cmp::Gt,
        4 => Cmp::Eq,
        _ => Cmp::Ne,
    };
    atom(expr, cmp)
}

fn random_formula(rng: &mut Rng, vars: &[Var], depth: usize) -> Formula {
    if depth == 0 || rng.below(3) == 0 {
        return random_atom(rng, vars);
    }
    let n = 2 + rng.below(3) as usize;
    let parts = (0..n)
        .map(|_| random_formula(rng, vars, depth - 1))
        .collect();
    if rng.below(2) == 0 {
        Formula::and(parts)
    } else {
        Formula::or(parts)
    }
}

/// The formula the randomized battery draws at `seed`: a box over four
/// variables plus four random subformulas.
fn generated_formula(seed: u64) -> Formula {
    let mut pool = VarPool::new();
    let vars: Vec<Var> = (0..4).map(|i| pool.fresh(&format!("v{i}"))).collect();
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut parts = boxed(&vars, -8, 8);
    for _ in 0..4 {
        parts.push(random_formula(&mut rng, &vars, 2));
    }
    Formula::and(parts).nnf().simplify()
}

#[test]
fn randomized_unsat_proofs_replay() {
    let mut unsat = 0usize;
    let mut incomplete = 0usize;
    for seed in 1..=120u64 {
        let f = generated_formula(seed);
        let (result, proof) = solve_cdcl_with_proof(&f, &proving_config());
        if result != SolverResult::Unsat {
            continue;
        }
        unsat += 1;
        let proof = proof.expect("logging on");
        if proof.contains("incomplete") {
            // the engine refused to certify a step; the checker must
            // reject rather than bless it
            incomplete += 1;
            check_document(&proof).expect_err("incomplete proofs are rejected");
            continue;
        }
        check_document(&proof)
            .unwrap_or_else(|e| panic!("seed {seed}: proof rejected: {e}\n---\n{proof}"));
    }
    assert!(unsat >= 10, "generator drift: only {unsat} Unsat instances");
    assert!(
        incomplete * 5 <= unsat,
        "incomplete proofs dominate: {incomplete}/{unsat}"
    );
}

/// The refutation of seed 1173 of the battery's generator splits a
/// fractional rational model into integer branches.  Every branch is
/// closed by an ordinary theory lemma, so its document is complete and
/// replays.
#[test]
fn branch_refuted_unsat_replays() {
    let f = generated_formula(1173);
    let (result, proof) = solve_cdcl_with_proof(&f, &proving_config());
    assert_eq!(result, SolverResult::Unsat);
    let proof = proof.expect("logging on");
    assert!(
        !proof.lines().any(|l| l.starts_with("incomplete")),
        "{proof}"
    );
    let summary =
        check_document(&proof).unwrap_or_else(|e| panic!("proof rejected: {e}\n---\n{proof}"));
    assert!(summary.finals >= 1);
}
