//! Randomized test of the backtrackable bound trail (`bounds::BoundEnv`).
//!
//! Small random conjunctions — a few variables, coefficients within ±3,
//! mixed `≤`/`≥` rows including equalities split into both halves — are
//! asserted level by level under random push/pop sequences, the way the
//! CDCL(T) engine and branch-and-bound drive the trail.  Three properties
//! are checked after every step:
//!
//! * every refutation core names only live constraints, and a from-scratch
//!   `BoundEnv::from_constraints` over the core alone refutes it again;
//! * the provenance of every pinned variable pins it to the same value on
//!   its own;
//! * popping to a level restores exactly the intervals that level had.
//!
//! Seeds are fixed xorshift states, so failures reproduce exactly.

use posr_lia::bounds::{BoundEnv, BoundOutcome, ConstraintIndex};
use posr_lia::simplex::{Rel, SimplexConstraint};
use posr_lia::term::{LinExpr, Var};

/// A tiny deterministic xorshift generator.
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

    fn range(&mut self, lo: i128, hi: i128) -> i128 {
        lo + self.below((hi - lo + 1) as u64) as i128
    }
}

/// One random row over `vars` variables: one to three terms with nonzero
/// coefficients in ±3 and a constant in ±8, as a `≤` or `≥` half-space or
/// as an equality split into its two halves.
fn random_rows(rng: &mut Rng, vars: usize) -> Vec<SimplexConstraint> {
    let mut expr = LinExpr::constant(rng.range(-8, 8));
    for _ in 0..1 + rng.below(3) {
        let mut c = rng.range(-3, 2);
        if c >= 0 {
            c += 1;
        }
        expr.add_term(Var(rng.below(vars as u64) as usize), c);
    }
    match rng.below(5) {
        0 | 1 => vec![SimplexConstraint { expr, rel: Rel::Le }],
        2 | 3 => vec![SimplexConstraint { expr, rel: Rel::Ge }],
        _ => vec![
            SimplexConstraint {
                expr: expr.clone(),
                rel: Rel::Le,
            },
            SimplexConstraint { expr, rel: Rel::Ge },
        ],
    }
}

type Intervals = Vec<(Option<i128>, Option<i128>)>;

fn intervals(env: &BoundEnv, vars: usize) -> Intervals {
    (0..vars).map(|v| env.var_range(Var(v))).collect()
}

fn subset(context: &[SimplexConstraint], core: &[usize]) -> Vec<SimplexConstraint> {
    core.iter().map(|&i| context[i].clone()).collect()
}

/// Checks the explanation properties of the environment's current state.
fn check_explanations(env: &BoundEnv, context: &[SimplexConstraint], vars: usize, at: &str) {
    if env.is_refuted() {
        let core = env.conflict_core(context);
        assert!(!core.is_empty(), "{at}: empty refutation core");
        assert!(
            core.iter().all(|&i| i < context.len()),
            "{at}: core {core:?} names dead constraints (live: {})",
            context.len()
        );
        let (_, outcome) = BoundEnv::from_constraints(&subset(context, &core));
        assert_eq!(
            outcome,
            BoundOutcome::Refuted,
            "{at}: core {core:?} of {context:?} does not refute on its own"
        );
        return;
    }
    for v in (0..vars).map(Var) {
        let Some(value) = env.pinned_value(v) else {
            continue;
        };
        let core = env.explain_pinned(&[v], context);
        assert!(
            core.iter().all(|&i| i < context.len()),
            "{at}: dead provenance"
        );
        // the trail may stop short of a fixpoint (the per-call tightening
        // cap), so a from-scratch pass over the provenance can go further
        // and refute it — an infeasible provenance implies every value
        let (alone, outcome) = BoundEnv::from_constraints(&subset(context, &core));
        assert!(
            outcome == BoundOutcome::Refuted || alone.pinned_value(v) == Some(value),
            "{at}: provenance {core:?} of {v} = {value} in {context:?} pins {:?}",
            alone.var_range(v)
        );
    }
}

#[test]
fn random_push_pop_sequences_keep_the_trail_exact() {
    let mut refutations = 0;
    let mut pins = 0;
    let mut pops = 0;
    for seed in 1..=400u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let vars = 2 + rng.below(3) as usize;
        let mut context: Vec<SimplexConstraint> = Vec::new();
        let mut index = ConstraintIndex::default();
        let mut env = BoundEnv::new();
        // per open level: the context length and intervals when pushed
        let mut frames: Vec<(usize, Intervals)> = Vec::new();
        for step in 0..40 {
            let at = format!("seed {seed} step {step}");
            if !frames.is_empty() && (env.is_refuted() || rng.below(3) == 0) {
                let target = rng.below(frames.len() as u64) as usize;
                env.pop_to_level(target);
                let (len, before) = frames[target].clone();
                frames.truncate(target);
                while context.len() > len {
                    index.pop(&context.pop().expect("live constraint"));
                }
                pops += 1;
                assert_eq!(env.level(), target, "{at}");
                assert!(!env.is_refuted(), "{at}: refutation survived its level");
                assert_eq!(intervals(&env, vars), before, "{at}: pop is not exact");
                check_explanations(&env, &context, vars, &at);
                continue;
            }
            if env.is_refuted() {
                break; // refuted below every level: nothing left to undo
            }
            frames.push((context.len(), intervals(&env, vars)));
            env.push_level();
            let fresh = context.len();
            for _ in 0..1 + rng.below(2) {
                for row in random_rows(&mut rng, vars) {
                    index.push(&row);
                    context.push(row);
                }
            }
            let outcome = env.propagate_from(&context, fresh..context.len(), &index, 10_000);
            assert_eq!(outcome == BoundOutcome::Refuted, env.is_refuted(), "{at}");
            refutations += usize::from(env.is_refuted());
            pins += env.pinned_count();
            check_explanations(&env, &context, vars, &at);
        }
    }
    // the generator must actually exercise every property
    assert!(refutations > 100, "only {refutations} refutations");
    assert!(pins > 100, "only {pins} pinned variables");
    assert!(pops > 100, "only {pops} pops");
}
