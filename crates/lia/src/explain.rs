//! Deletion-based minimisation of theory-conflict cores.
//!
//! The CDCL(T) engine ([`crate::cdcl`]) turns every theory refutation into
//! a learned clause over the constraints that clash.  Interval refutations
//! arrive with their cores already attached — the bound trail of
//! [`crate::bounds`] records which constraint produced every bound, so the
//! engine reads cores off it — and the simplex contributes Farkas cores.
//! This module shrinks such a core to a *minimal* one (every proper subset
//! feasible w.r.t. the given checker) by attempting to drop each member
//! once.  Dropping a constraint is only allowed when the checker *proves*
//! the remainder infeasible, so a checker that cannot decide keeps the
//! constraint and the explanation stays sound.
//!
//! Soundness invariant used by the learner: any superset of an infeasible
//! set is infeasible, so every core returned here — minimal or not — yields
//! a valid learned clause.

use crate::bounds::{BoundEnv, BoundOutcome};
use crate::simplex::SimplexConstraint;

/// `true` iff bound propagation alone refutes the conjunction.
pub fn bound_infeasible(constraints: &[SimplexConstraint]) -> bool {
    BoundEnv::from_constraints(constraints).1 == BoundOutcome::Refuted
}

/// Deletion-based minimisation: drops every core member whose removal keeps
/// the subset infeasible according to `infeasible`.  The result is minimal
/// w.r.t. the checker (and still infeasible, hence a sound explanation).
pub fn minimize_core(
    constraints: &[SimplexConstraint],
    core: Vec<usize>,
    infeasible: &dyn Fn(&[SimplexConstraint]) -> bool,
) -> Vec<usize> {
    minimize_core_budgeted(constraints, core, infeasible, usize::MAX)
}

/// [`minimize_core`] with a cap on the number of deletion attempts: only
/// the last `budget` members (the deepest, usually highest-decision-level
/// ones, whose removal most improves the backjump) are tried.  An
/// unminimised remainder is still a sound explanation, so spending a
/// bounded amount of work per conflict trades a slightly longer learned
/// clause for a much cheaper conflict loop.
pub fn minimize_core_budgeted(
    constraints: &[SimplexConstraint],
    mut core: Vec<usize>,
    infeasible: &dyn Fn(&[SimplexConstraint]) -> bool,
    budget: usize,
) -> Vec<usize> {
    // drop later (deeper, usually higher-decision-level) members first so
    // the surviving clause prefers literals from low decision levels and
    // the learner backjumps further
    let mut attempts = 0usize;
    let mut i = core.len();
    while i > 0 && attempts < budget {
        i -= 1;
        if core.len() <= 1 {
            break;
        }
        attempts += 1;
        let candidate: Vec<SimplexConstraint> = core
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &k)| constraints[k].clone())
            .collect();
        if infeasible(&candidate) {
            core.remove(i);
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::Rel;
    use crate::term::{LinExpr, VarPool};

    fn le(expr: LinExpr) -> SimplexConstraint {
        SimplexConstraint { expr, rel: Rel::Le }
    }

    fn ge(expr: LinExpr) -> SimplexConstraint {
        SimplexConstraint { expr, rel: Rel::Ge }
    }

    #[test]
    fn minimisation_shrinks_padded_cores() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let constraints = vec![
            ge(LinExpr::var(x) - LinExpr::constant(5)),
            ge(LinExpr::var(x) - LinExpr::constant(1)), // implied by the first
            le(LinExpr::var(x) - LinExpr::constant(3)),
        ];
        let minimal = minimize_core(&constraints, vec![0, 1, 2], &bound_infeasible);
        assert_eq!(minimal.len(), 2);
        assert!(minimal.contains(&0) && minimal.contains(&2));
    }

    #[test]
    fn feasible_sets_are_not_refuted() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let constraints = vec![
            ge(LinExpr::var(x)),
            le(LinExpr::var(x) - LinExpr::constant(5)),
        ];
        assert!(!bound_infeasible(&constraints));
    }
}
