//! Seeded smoke-fuzzing for CI: random LIA formulas from the same xorshift
//! generator family as the LIA oracle suite, solved by the CDCL(T) engine
//! with proof logging on and checked against exhaustive enumeration of the
//! box every formula carries, with every certified Unsat replayed through
//! the independent `posr-check` verifier.
//!
//! The run is time-boxed (`POSR_FUZZ_SECONDS`, default 300 — the per-PR
//! smoke budget; the nightly dispatch passes a longer one) and seeded
//! (`POSR_FUZZ_SEED`, falling back to `GITHUB_RUN_ID`, falling back to a
//! fixed constant), so a CI failure prints everything needed to replay it
//! locally: the base seed and the offending round.
//!
//! Failure conditions (non-zero exit):
//! * a definite verdict disagrees with the enumeration (sat while the box
//!   holds no point, unsat while it holds one),
//! * a claimed model does not satisfy its formula,
//! * a complete proof document is rejected by `posr-check`,
//! * an incomplete proof document is *accepted* by `posr-check`, or
//! * the generator drifts so far that no Unsat instances show up at all.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use posr_lia::cdcl::solve_cdcl_with_proof;
use posr_lia::formula::{Atom, Cmp, Formula};
use posr_lia::solver::{SolverConfig, SolverResult};
use posr_lia::term::{LinExpr, Var, VarPool};

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

fn atom(expr: LinExpr, cmp: Cmp) -> Formula {
    Formula::Atom(Atom { expr, cmp })
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

/// The box every fuzz formula carries, and the enumeration ranges over.
const LO: i128 = -8;
const HI: i128 = 8;

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

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn main() {
    let seconds = env_u64("POSR_FUZZ_SECONDS").unwrap_or(300);
    let seed = env_u64("POSR_FUZZ_SEED")
        .or_else(|| env_u64("GITHUB_RUN_ID"))
        .unwrap_or(0x5EED_CAFE);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    println!("smoke-fuzz: base seed {seed}, budget {seconds}s");

    let mut pool = VarPool::new();
    let vars: Vec<Var> = (0..4).map(|i| pool.fresh(&format!("v{i}"))).collect();
    let proving = SolverConfig {
        proof_logging: true,
        ..SolverConfig::default()
    };

    let mut round = 0u64;
    let mut sat = 0usize;
    let mut unsat = 0usize;
    let mut unknown = 0usize;
    let mut replayed = 0usize;
    let mut incomplete = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let slow_lane = posr_obs::counter("lia.rat.slow_lane");
    let slow_lane_before = slow_lane.value();

    // always run a floor of rounds so a tiny budget still means something
    while (Instant::now() < deadline || round < 200) && failures.len() < 10 {
        round += 1;
        let mut rng = Rng(seed.wrapping_add(round).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut parts = boxed(&vars, LO, HI);
        for _ in 0..4 {
            parts.push(random_formula(&mut rng, &vars, 2));
        }
        let f = Formula::and(parts).nnf().simplify();

        let (rc, proof) = solve_cdcl_with_proof(&f, &proving);
        let witness = f.box_witness(&vars, LO, HI);
        match (&rc, &witness) {
            (SolverResult::Sat(model), Some(_)) => {
                sat += 1;
                if !model.satisfies(&f) {
                    failures.push(format!("round {round}: cdcl model fails its formula"));
                }
            }
            (SolverResult::Unsat, None) => unsat += 1,
            (SolverResult::Unknown(_), _) => unknown += 1,
            (SolverResult::Sat(_), None) => failures.push(format!(
                "round {round}: cdcl answered sat, but the box holds no point"
            )),
            (SolverResult::Unsat, Some(point)) => failures.push(format!(
                "round {round}: cdcl answered unsat, but {point:?} satisfies the formula"
            )),
        }

        if rc == SolverResult::Unsat {
            let Some(doc) = proof else {
                failures.push(format!(
                    "round {round}: unsat answered without a proof document"
                ));
                continue;
            };
            if doc.contains("incomplete") {
                incomplete += 1;
                if posr_check::check_document(&doc).is_ok() {
                    failures.push(format!(
                        "round {round}: checker accepted an incomplete proof"
                    ));
                }
            } else {
                match posr_check::check_document(&doc) {
                    Ok(_) => replayed += 1,
                    Err(e) => failures.push(format!("round {round}: proof rejected: {e}")),
                }
            }
        }
    }

    if unsat == 0 {
        failures.push("generator drift: no Unsat instance in the whole run".to_string());
    }

    let mut json = String::from("{\n  \"schema\": \"posr-smokefuzz/v1\",\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"budget_seconds\": {seconds},");
    let _ = writeln!(json, "  \"rounds\": {round},");
    let _ = writeln!(
        json,
        "  \"verdicts\": {{\"sat\":{sat},\"unsat\":{unsat},\"unknown\":{unknown}}},"
    );
    let _ = writeln!(
        json,
        "  \"proofs\": {{\"replayed\":{replayed},\"incomplete\":{incomplete}}},"
    );
    let slow_lane_trips = slow_lane.value() - slow_lane_before;
    let _ = writeln!(json, "  \"slow_lane\": {slow_lane_trips},");
    let _ = writeln!(json, "  \"failures\": {},", failures.len());
    let _ = writeln!(json, "  \"ok\": {}", failures.is_empty());
    json.push_str("}\n");
    let summary_path = std::env::var("POSR_FUZZ_SUMMARY")
        .unwrap_or_else(|_| "target/FUZZ_summary.json".to_string());
    if let Some(parent) = std::path::Path::new(&summary_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&summary_path, &json) {
        Ok(()) => println!("summary written to {summary_path}"),
        Err(e) => eprintln!("could not write summary to {summary_path}: {e}"),
    }

    println!(
        "{round} rounds: {sat} sat / {unsat} unsat / {unknown} unknown; \
         {replayed} proofs replayed, {incomplete} incomplete (withheld by the engine); \
         {slow_lane_trips} slow-lane trips"
    );
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("no enumeration or certification failures");
}
