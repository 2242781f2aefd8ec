//! The memory account of a solve, kept on two always-on counters.
//!
//! The dominant allocations of a solve — the clause database, the simplex
//! tableau, the proof sink and the automaton cache — charge
//! constant-factor estimates of their growth through [`charge_mem`], and
//! the clause database credits a dropped clause back through
//! [`uncharge_mem`].  Both land on plain obs counters
//! (`mem.charged_bytes`, `mem.credited_bytes`), so the process-wide totals
//! and every attached [`CounterScope`] see them like any other counter.
//!
//! A [`Budget`] is the scope one solve attaches to its thread for its whole
//! run; [`Budget::mem_used`] is what that solve charged minus what it
//! credited.  The account is approximate (it measures growth, not RSS) and
//! it stops nothing: a solve stops on its cancel token alone.

use std::sync::LazyLock;

use crate::counters::{counter, Counter, CounterScope, ScopeAttachGuard};

static CHARGED: LazyLock<Counter> = LazyLock::new(|| counter("mem.charged_bytes"));
static CREDITED: LazyLock<Counter> = LazyLock::new(|| counter("mem.credited_bytes"));

/// The memory account of one solve: a [`CounterScope`] attached to the
/// solving thread exactly once.
#[derive(Debug, Default)]
pub struct Budget {
    scope: CounterScope,
}

impl Budget {
    /// An empty account.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Attaches the calling thread until the guard drops: the charges and
    /// credits it makes meanwhile land in this account.  Attachment nests
    /// like any scope's, so a budget attached twice on one thread counts
    /// each charge twice; `StringSolver::solve` attaches the budget its
    /// token carries, and nothing below it attaches again.
    pub fn attach(&self) -> ScopeAttachGuard {
        self.scope.attach()
    }

    /// Bytes charged minus bytes credited while attached.
    pub fn mem_used(&self) -> u64 {
        self.scope
            .get(*CHARGED)
            .saturating_sub(self.scope.get(*CREDITED))
    }
}

/// Charges `bytes` of approximate memory to the calling thread's solve.
pub fn charge_mem(bytes: u64) {
    CHARGED.add(bytes);
}

/// Credits `bytes` back (a garbage-collected clause).
pub fn uncharge_mem(bytes: u64) {
    CREDITED.add(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_attachment_routes_free_charges() {
        let b = Budget::unlimited();
        {
            let _g = b.attach();
            charge_mem(600);
            uncharge_mem(200);
        }
        charge_mem(40);
        assert_eq!(b.mem_used(), 400);
    }

    #[test]
    fn attachment_is_per_thread() {
        let b = Budget::unlimited();
        let _g = b.attach();
        std::thread::spawn(|| charge_mem(99)).join().unwrap();
        assert_eq!(b.mem_used(), 0);
    }
}
