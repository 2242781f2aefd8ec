//! The CI certification gate: every Unsat family of the ablation set is
//! re-solved with proof logging on, each emitted `posr-proof` document is
//! replayed through the independent `posr-check` verifier in-process, and
//! the raw documents are written to `target/proofs/*.proof` so the CI job
//! can additionally pipe them through the *standalone* `posr-check`
//! binary (a second, out-of-process replay that shares nothing with this
//! harness beyond the proof format).
//!
//! The binary exits non-zero unless (a) every family reports its expected
//! `unsat` verdict, (b) every emitted proof document is accepted by the
//! checker, (c) the direct LIA families each certify their refutation
//! (those never fall back to a proofless layer), and (d) the flagship
//! string family, thefuck-0002 and the two product-cycle Unsats each
//! produce at least one document — the paper's headline instance, the
//! slowest Unsat of the generated traffic and the position systems whose
//! refutations need integer branching must come back certified, not
//! merely answered.
//!
//! A machine-readable summary goes to `target/PROOFS_summary.json`
//! (override with `POSR_PROOFS_SUMMARY`; the proof directory with
//! `POSR_PROOF_DIR`) for upload as a build artifact next to
//! `BENCH_lia.json`.  Each family records how long its solve took
//! (`solve_ms`, proof logging on) and how long the replay of its documents
//! took against it (`replay_ratio` = replay / solve); the ratio is
//! recorded, not gated.

use std::fmt::Write as _;
use std::time::Instant;

use posr_core::ast::{LenCmp, LenTerm, StringFormula, StringTerm};
use posr_core::session::SolverSession;
use posr_lia::cdcl::solve_cdcl_with_proof;
use posr_lia::formula::{Atom, Cmp, Formula};
use posr_lia::solver::{SolverConfig, SolverResult};
use posr_lia::term::{LinExpr, Var, VarPool};

fn atom(expr: LinExpr, cmp: Cmp) -> Formula {
    Formula::Atom(Atom { expr, cmp })
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

/// The direct LIA refutation families, one per theory-certificate kind
/// plus a clause-learning-heavy one: these go straight through the
/// CDCL(T) engine, so each must produce exactly one complete document.
fn lia_families() -> Vec<(&'static str, Formula)> {
    let mut out = Vec::new();
    {
        // bounds chain: x ≤ 5 ∧ x ≥ 6
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        out.push((
            "lia-interval-gap",
            Formula::and(vec![
                atom(LinExpr::scaled_var(x, 1) + LinExpr::constant(-5), Cmp::Le),
                atom(LinExpr::scaled_var(x, 1) + LinExpr::constant(-6), Cmp::Ge),
            ]),
        ));
    }
    {
        // GCD (parity): 2x − 2y = 1 over a box
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let mut parts = boxed(&[x, y], -20, 20);
        parts.push(atom(
            LinExpr::scaled_var(x, 2) + LinExpr::scaled_var(y, -2) + LinExpr::constant(-1),
            Cmp::Eq,
        ));
        out.push(("lia-parity-gcd", Formula::and(parts)));
    }
    {
        // Farkas: x+y ≤ 0, y+z ≤ 0, z+x ≤ 0 against x+y+z ≥ 1 — no
        // single-variable bounds, no complementary pair, so only a
        // rational combination certifies it
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
        out.push((
            "lia-farkas-cycle",
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
            ]),
        ));
    }
    {
        // pigeonhole-flavoured: three pairwise-distinct 0/1 variables,
        // forcing genuine clause learning into the proof
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
        out.push(("lia-pigeonhole-derive", Formula::and(parts)));
    }
    out
}

/// The Unsat string families of the ablation set plus thefuck-0002 and
/// perfbench's slowest position system, solved through the full pipeline
/// with proof production on.  The flagship family, thefuck-0002 and the
/// product-cycle families are required to come back with at least one LIA
/// document; the others may legitimately be refuted by a proofless layer
/// (automata intersection, syntactic simplification) on some pipeline
/// evolutions.
fn string_families() -> Vec<(&'static str, StringFormula, bool)> {
    // an n-state cycle: exactly one word per accepted length (multiples
    // of n); two cycles meet only at lengths that are common multiples
    let cycle = |n: usize| format!("({}b)*", "a".repeat(n - 1));
    let product_cycle_unsat = |n: usize, m: usize, lcm: i64| {
        StringFormula::new()
            .in_re("x", &cycle(n))
            .in_re("y", &cycle(m))
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "y")
            .length(LenTerm::len("x"), LenCmp::Lt, LenTerm::constant(lcm))
    };
    vec![
        (
            "loopy-diseq-eqlen-unsat",
            StringFormula::new()
                .in_re("x", "(ab)*")
                .in_re("y", "(ab)*")
                .diseq(StringTerm::var("x"), StringTerm::var("y"))
                .len_eq("x", "y"),
            true,
        ),
        (
            // thefuck-0002 of the generated symbolic-execution traffic: its
            // solve explains bound conflicts, interval theory propagations
            // and GCD conflicts off the bound trail, so every kind of
            // trail explanation must replay
            "thefuck-0002-unsat",
            StringFormula::new()
                .in_re("cmd", "(ab)*")
                .in_re("arg", "b*")
                .diseq(StringTerm::var("cmd"), StringTerm::var("arg"))
                .not_contains(
                    StringTerm::concat(vec![StringTerm::var("cmd"), StringTerm::var("arg")]),
                    StringTerm::lit("aa"),
                )
                .in_re("fix", "ab")
                .diseq(StringTerm::var("fix"), StringTerm::lit("ab")),
            true,
        ),
        (
            "k2-diseq-system-unsat",
            StringFormula::new()
                .in_re("x", "a")
                .in_re("y", "a")
                .in_re("z", "a|b")
                .diseq(StringTerm::var("x"), StringTerm::var("y"))
                .diseq(StringTerm::var("z"), StringTerm::var("y")),
            false,
        ),
        (
            "xy-yx-commutation-unsat",
            StringFormula::new()
                .in_re("x", "a*")
                .in_re("y", "a*")
                .diseq(
                    StringTerm::concat(vec![StringTerm::var("x"), StringTerm::var("y")]),
                    StringTerm::concat(vec![StringTerm::var("y"), StringTerm::var("x")]),
                ),
            false,
        ),
        // below lcm(n, m) the only common length is 0, where x = y
        (
            "product-cycle-6x9-unsat",
            product_cycle_unsat(6, 9, 18),
            true,
        ),
        (
            "product-cycle-320-unsat",
            product_cycle_unsat(16, 20, 80),
            true,
        ),
    ]
}

/// One certified family in the summary table.
struct FamilyReport {
    name: String,
    verdict: &'static str,
    documents: usize,
    proof_bytes: usize,
    steps: usize,
    /// Wall time of the solve that produced the documents.
    solve_ms: f64,
    replay_ms: f64,
    accepted: bool,
    /// Why the family failed its own gate, when it did.
    failure: Option<String>,
}

impl FamilyReport {
    /// Replay time over solve time (0 when the solve took no measurable
    /// time).
    fn replay_ratio(&self) -> f64 {
        if self.solve_ms > 0.0 {
            self.replay_ms / self.solve_ms
        } else {
            0.0
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"family\":\"{}\",\"verdict\":\"{}\",\"documents\":{},\"proof_bytes\":{},\"steps\":{},\"solve_ms\":{:.3},\"replay_ms\":{:.3},\"replay_ratio\":{:.3},\"accepted\":{}}}",
            self.name,
            self.verdict,
            self.documents,
            self.proof_bytes,
            self.steps,
            self.solve_ms,
            self.replay_ms,
            self.replay_ratio(),
            self.accepted,
        )
    }
}

/// Replays `docs`, which a solve of `solve_ms` produced, through the
/// in-process checker and fills in a report; `require_docs` marks
/// families whose refutation must come certified.
fn replay_family(
    name: &str,
    verdict: &'static str,
    docs: &[String],
    solve_ms: f64,
    require_docs: bool,
) -> FamilyReport {
    let mut report = FamilyReport {
        name: name.to_string(),
        verdict,
        documents: docs.len(),
        proof_bytes: docs.iter().map(String::len).sum(),
        steps: 0,
        solve_ms,
        replay_ms: 0.0,
        accepted: true,
        failure: None,
    };
    if verdict != "unsat" {
        report.accepted = false;
        report.failure = Some(format!("expected unsat, got {verdict}"));
        return report;
    }
    if docs.is_empty() && require_docs {
        report.accepted = false;
        report.failure = Some("no proof document came back for a must-certify family".to_string());
        return report;
    }
    let start = Instant::now();
    for doc in docs {
        match posr_check::check_document(doc) {
            Ok(summary) => report.steps += summary.steps,
            Err(e) => {
                report.accepted = false;
                report.failure = Some(format!("posr-check rejected the proof: {e}"));
            }
        }
    }
    report.replay_ms = start.elapsed().as_secs_f64() * 1e3;
    report
}

fn main() {
    let proof_dir = std::env::var("POSR_PROOF_DIR").unwrap_or_else(|_| "target/proofs".to_string());
    let summary_path = std::env::var("POSR_PROOFS_SUMMARY")
        .unwrap_or_else(|_| "target/PROOFS_summary.json".to_string());
    let _ = std::fs::create_dir_all(&proof_dir);

    let mut reports: Vec<FamilyReport> = Vec::new();
    let mut written = 0usize;

    println!("== direct LIA refutations ==");
    for (name, formula) in lia_families() {
        let config = SolverConfig {
            proof_logging: true,
            ..SolverConfig::default()
        };
        let start = Instant::now();
        let (result, proof) = solve_cdcl_with_proof(&formula.nnf().simplify(), &config);
        let solve_ms = start.elapsed().as_secs_f64() * 1e3;
        let verdict = match result {
            SolverResult::Unsat => "unsat",
            SolverResult::Sat(_) => "sat",
            SolverResult::Unknown(_) => "unknown",
        };
        let docs: Vec<String> = proof.into_iter().collect();
        let report = replay_family(name, verdict, &docs, solve_ms, true);
        print_family(&report);
        if !docs.is_empty() {
            write_proof(&proof_dir, name, &docs, &mut written);
        }
        reports.push(report);
    }

    println!();
    println!("== string-pipeline refutations (full solver, proof production on) ==");
    for (name, formula, must_certify) in string_families() {
        let mut session = SolverSession::new();
        session.set_produce_proofs(true);
        session.assert_all(formula.atoms.clone());
        let start = Instant::now();
        let answer = session.check_sat();
        let solve_ms = start.elapsed().as_secs_f64() * 1e3;
        let verdict = if answer.is_unsat() {
            "unsat"
        } else if answer.is_sat() {
            "sat"
        } else {
            "unknown"
        };
        let docs: Vec<String> = session
            .last_proofs()
            .map(<[String]>::to_vec)
            .unwrap_or_default();
        let report = replay_family(name, verdict, &docs, solve_ms, must_certify);
        print_family(&report);
        if !docs.is_empty() {
            write_proof(&proof_dir, name, &docs, &mut written);
        }
        reports.push(report);
    }

    let all_accepted = reports.iter().all(|r| r.accepted);
    let total_documents: usize = reports.iter().map(|r| r.documents).sum();
    let ok = all_accepted && total_documents >= lia_families().len();

    let mut json = String::from("{\n  \"schema\": \"posr-proofs/v2\",\n  \"families\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {}{}",
            r.json(),
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"gate\": {{\"all_accepted\":{all_accepted},\"total_documents\":{total_documents},\"proof_files_written\":{written},\"ok\":{ok}}}\n}}\n"
    );
    if let Some(parent) = std::path::Path::new(&summary_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&summary_path, &json) {
        Ok(()) => println!("\nsummary written to {summary_path}"),
        Err(e) => eprintln!("could not write summary to {summary_path}: {e}"),
    }
    println!("{written} proof file(s) written to {proof_dir}/");

    if !ok {
        for r in reports.iter().filter(|r| !r.accepted) {
            eprintln!(
                "FAIL: {}: {}",
                r.name,
                r.failure.as_deref().unwrap_or("rejected")
            );
        }
        if total_documents < lia_families().len() {
            eprintln!("FAIL: too few proof documents came back ({total_documents})");
        }
        std::process::exit(1);
    }
    println!("all {} families certified", reports.len());
}

fn print_family(r: &FamilyReport) {
    println!(
        "{:28} {:7} {} doc(s), {} bytes, {} steps, solved in {:.2}ms, replayed in {:.2}ms ({:.2}× the solve) — {}",
        r.name,
        r.verdict,
        r.documents,
        r.proof_bytes,
        r.steps,
        r.solve_ms,
        r.replay_ms,
        r.replay_ratio(),
        if r.accepted { "accepted" } else { "REJECTED" },
    );
}

fn write_proof(dir: &str, name: &str, docs: &[String], written: &mut usize) {
    let path = format!("{dir}/{name}.proof");
    let mut text = String::new();
    for doc in docs {
        text.push_str(doc);
        if !doc.ends_with('\n') {
            text.push('\n');
        }
    }
    match std::fs::write(&path, text) {
        Ok(()) => *written += 1,
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
