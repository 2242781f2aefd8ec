//! The naive mismatch-order enumeration that Sec. 5.3 argues against —
//! kept as an ablation baseline.
//!
//! Instead of letting mismatches for different constraints appear in any
//! order and ruling out inconsistent interleavings arithmetically (the copy
//! tags and `φ_Fair`/`φ_Consistent`/`φ_Copies` of [`crate::system`]), the
//! naive approach enumerates *every* order in which the `2K` mismatch events
//! can occur and builds one complete encoding per order.  The number of
//! orders is `(2K)!`, i.e. `2^Θ(K log K)`, which is exactly the blow-up the
//! polynomial construction avoids; the `encoding_size` benchmark measures
//! both curves.
//!
//! Besides its size, the naive encoding is also *incomplete* for models in
//! which one mismatched letter must serve several constraints at once (the
//! sharing that copy tags express); `solve_naive` may therefore answer
//! `Unsat` on such instances and is only used as an ablation baseline, never
//! by the main solver.

use std::collections::BTreeMap;

use posr_automata::Nfa;
use posr_lia::cancel::CancelToken;
use posr_lia::formula::Formula;
use posr_lia::solver::{Solver, SolverResult};
use posr_lia::term::{LinExpr, VarPool};

use crate::system::{PositionConstraint, SystemEncoder, SystemEncoding};
use crate::tags::{Side, Tag, VarTable};

/// One ordering of the `2K` mismatch events: the `i`-th entry says which
/// constraint/side samples its mismatch at level `i + 1`.
pub type MismatchOrder = Vec<(usize, Side)>;

/// The naive encoding: one full system encoding per mismatch order.
#[derive(Debug)]
pub struct NaiveEncoding {
    /// One (restricted) encoding per order, paired with the order itself.
    pub per_order: Vec<(MismatchOrder, SystemEncoding, Formula)>,
    /// Sum of the formula sizes over all orders — the quantity that grows as
    /// `2^Θ(K log K)` and is compared against the polynomial encoding.
    pub total_formula_size: usize,
}

/// Enumerates all orderings of the `2K` mismatch events (each constraint
/// contributes one Left and one Right event).
pub fn mismatch_orders(num_constraints: usize) -> Vec<MismatchOrder> {
    let mut events: Vec<(usize, Side)> = Vec::new();
    for d in 0..num_constraints {
        events.push((d, Side::Left));
        events.push((d, Side::Right));
    }
    let mut out = Vec::new();
    permute(&mut events, 0, &mut out);
    out
}

fn permute(events: &mut Vec<(usize, Side)>, start: usize, out: &mut Vec<MismatchOrder>) {
    if start == events.len() {
        out.push(events.clone());
        return;
    }
    for i in start..events.len() {
        events.swap(start, i);
        permute(events, start + 1, out);
        events.swap(start, i);
    }
}

/// Builds the naive encoding for a system of position constraints, polling
/// `cancel` once per mismatch order; `None` once it fires.
///
/// # Panics
/// Panics if more than 3 mismatch-needing constraints are given — the number
/// of orders (`(2K)!`) becomes unmanageable, which is precisely the point of
/// the ablation.
pub fn encode_naive(
    constraints: &[PositionConstraint],
    automata: &BTreeMap<crate::tags::StrVar, Nfa>,
    vars: &VarTable,
    pool: &mut VarPool,
    cancel: &CancelToken,
) -> Option<NaiveEncoding> {
    let k = constraints
        .iter()
        .filter(|c| c.kind.needs_mismatch())
        .count();
    assert!(
        k <= 3,
        "naive enumeration beyond 3 constraints is intentionally unsupported"
    );
    let encoder = SystemEncoder::new(automata, vars);
    let orders = mismatch_orders(k);
    let mut per_order = Vec::new();
    let mut total = 0usize;
    for order in orders {
        if cancel.is_cancelled() {
            return None;
        }
        // a complete, fresh encoding per order (fresh Parikh variables), as
        // the naive construction would build one automaton per order
        let encoding = encoder.encode(constraints, pool);
        let restriction = order_restriction(&encoding, &order);
        total += encoding.formula.size() + restriction.size();
        per_order.push((order, encoding, restriction));
    }
    Some(NaiveEncoding {
        per_order,
        total_formula_size: total,
    })
}

/// The restriction formula for one order: at level `i` only the designated
/// constraint/side may sample a mismatch, and copy tags are forbidden
/// entirely (the naive construction has no sharing).
fn order_restriction(encoding: &SystemEncoding, order: &MismatchOrder) -> Formula {
    let Some(parikh) = &encoding.parikh else {
        return Formula::True;
    };
    let mut conjuncts = Vec::new();
    for (tag, &var) in &parikh.tag_vars {
        match tag {
            Tag::Mismatch {
                level,
                constraint,
                side,
                ..
            } => {
                let allowed = order
                    .get(*level - 1)
                    .is_some_and(|&(d, s)| d == *constraint && s == *side);
                if !allowed {
                    conjuncts.push(Formula::eq(LinExpr::var(var), LinExpr::zero()));
                }
            }
            Tag::Copy { .. } => {
                conjuncts.push(Formula::eq(LinExpr::var(var), LinExpr::zero()));
            }
            _ => {}
        }
    }
    Formula::and(conjuncts)
}

/// Solves the naive encoding: tries every order until one is satisfiable,
/// validating each candidate with the connectivity-cut loop.  The solver's
/// cancel token is polled once per order, before the order is clausified.
pub fn solve_naive(encoding: &NaiveEncoding, extra: &Formula, solver: &Solver) -> SolverResult {
    let cancel = &solver.config().cancel;
    let mut saw_unknown = false;
    for (_, system, restriction) in &encoding.per_order {
        if cancel.is_cancelled() {
            return SolverResult::Unknown(cancel.unknown_reason());
        }
        let mut formula = Formula::and(vec![
            system.formula.clone(),
            restriction.clone(),
            extra.clone(),
        ]);
        let mut iterations = 0;
        loop {
            iterations += 1;
            if iterations > 32 {
                saw_unknown = true;
                break;
            }
            match solver.solve(&formula) {
                SolverResult::Sat(model) => match system.connectivity_cut(&model) {
                    None => return SolverResult::Sat(model),
                    Some(cut) => formula = Formula::and(vec![formula, cut]),
                },
                SolverResult::Unsat => break,
                SolverResult::Unknown(_) => {
                    saw_unknown = true;
                    break;
                }
            }
        }
    }
    if saw_unknown {
        SolverResult::Unknown("naive enumeration hit a resource limit".to_string())
    } else {
        SolverResult::Unsat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::PositionConstraint;
    use crate::tags::StrVar;
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

    #[test]
    fn number_of_orders_is_factorial() {
        assert_eq!(mismatch_orders(1).len(), 2);
        assert_eq!(mismatch_orders(2).len(), 24);
        assert_eq!(mismatch_orders(3).len(), 720);
    }

    #[test]
    fn naive_total_size_exceeds_polynomial_encoding() {
        let (vars, automata, ids) = setup(&[("x", "(ab)*"), ("y", "(ac)*")]);
        let constraints = vec![
            PositionConstraint::diseq(vec![ids[0]], vec![ids[1]]),
            PositionConstraint::diseq(vec![ids[1]], vec![ids[0]]),
        ];
        let mut pool = VarPool::new();
        let polynomial = SystemEncoder::new(&automata, &vars)
            .encode(&constraints, &mut pool)
            .formula
            .size();
        let (mut pool2, none) = (VarPool::new(), CancelToken::none());
        let naive = encode_naive(&constraints, &automata, &vars, &mut pool2, &none).unwrap();
        assert_eq!(naive.per_order.len(), 24);
        assert!(naive.total_formula_size > 10 * polynomial);
    }

    #[test]
    fn a_fired_token_stops_encoding_and_solving() {
        let (vars, automata, ids) = setup(&[("x", "a|b"), ("y", "a")]);
        let constraints = vec![PositionConstraint::diseq(vec![ids[0]], vec![ids[1]])];
        let (fired, none) = (CancelToken::new(), CancelToken::none());
        fired.cancel();
        let mut pool = VarPool::new();
        assert!(encode_naive(&constraints, &automata, &vars, &mut pool, &fired).is_none());
        let naive = encode_naive(&constraints, &automata, &vars, &mut pool, &none).unwrap();
        let solver = Solver::with_config(posr_lia::solver::SolverConfig {
            cancel: fired,
            ..Default::default()
        });
        assert_eq!(
            solve_naive(&naive, &Formula::True, &solver),
            SolverResult::Unknown(posr_lia::cancel::CANCELLED_MSG.to_string())
        );
    }

    #[test]
    fn naive_and_polynomial_agree_on_simple_instances() {
        let (vars, automata, ids) = setup(&[("x", "a|b"), ("y", "a")]);
        let constraints = vec![PositionConstraint::diseq(vec![ids[0]], vec![ids[1]])];
        let mut pool = VarPool::new();
        let none = CancelToken::none();
        let naive = encode_naive(&constraints, &automata, &vars, &mut pool, &none).unwrap();
        let solver = Solver::new();
        assert!(solve_naive(&naive, &Formula::True, &solver).is_sat());

        let (vars2, automata2, ids2) = setup(&[("x", "a"), ("y", "a")]);
        let constraints2 = vec![PositionConstraint::diseq(vec![ids2[0]], vec![ids2[1]])];
        let mut pool2 = VarPool::new();
        let naive2 = encode_naive(&constraints2, &automata2, &vars2, &mut pool2, &none).unwrap();
        assert!(solve_naive(&naive2, &Formula::True, &solver).is_unsat());
    }
}
