//! Cooperative cancellation for long-running solver calls.
//!
//! A [`CancelToken`] combines an optional shared flag (set by another thread
//! via [`CancelToken::cancel`]) with an optional wall-clock deadline.  Every
//! layer of the solving stack — the DPLL(T) search of this crate, the
//! position procedure and the baseline solvers of `posr-core`, and the
//! portfolio engine of `posr-portfolio` — polls the token at its branch
//! points and unwinds with an `Unknown` answer once it fires.  Polling a
//! token that has neither a flag nor a deadline is free, so sequential
//! callers pay nothing for the plumbing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use posr_obs::Budget;

/// The `Unknown` reason reported by every layer when a token fires through
/// its flag (as opposed to its deadline).
pub const CANCELLED_MSG: &str = "cancelled";

/// The `Unknown` reason reported when a token fires through its deadline.
pub const DEADLINE_MSG: &str = "deadline exceeded";

/// The `Unknown` reason reported when a search exhausts one of the
/// engine's own fixed limits (conflicts, integer branches, or branch
/// magnitude) rather than the token's flag or deadline.
pub const RESOURCE_OUT_MSG: &str = "resource limit reached";

/// A cloneable cancellation/deadline token.
///
/// Clones share the underlying flag: cancelling any clone cancels them all.
/// A token may also carry the [`Budget`] that accounts the memory of the
/// solve it is handed to; a budget never fires the token.  The default
/// token ([`CancelToken::none`]) can never fire.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    budget: Option<Arc<Budget>>,
}

impl CancelToken {
    /// A token that can never fire (the default for sequential solving).
    pub fn none() -> CancelToken {
        CancelToken::default()
    }

    /// A fresh cancellable token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
            budget: None,
        }
    }

    /// A fresh cancellable token that also fires at `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: Some(deadline),
            budget: None,
        }
    }

    /// This token carrying `budget`, the account a `StringSolver` solve
    /// attaches to its thread.  Clones (and [`merged_with_deadline`]
    /// results) share the budget.
    ///
    /// [`merged_with_deadline`]: CancelToken::merged_with_deadline
    pub fn with_budget(mut self, budget: Arc<Budget>) -> CancelToken {
        self.budget = Some(budget);
        self
    }

    /// The attached budget, if any.
    pub fn budget(&self) -> Option<&Arc<Budget>> {
        self.budget.as_ref()
    }

    /// The wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// A token sharing this one's flag whose deadline is the earlier of this
    /// one's and `deadline`.  Used to fold legacy `Option<Instant>` deadline
    /// fields into the token that is actually polled.
    pub fn merged_with_deadline(&self, deadline: Option<Instant>) -> CancelToken {
        let deadline = match (self.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        CancelToken {
            flag: self.flag.clone(),
            deadline,
            budget: self.budget.clone(),
        }
    }

    /// Fires the shared flag.  Tokens without a flag ([`CancelToken::none`])
    /// ignore the request.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// `true` once the flag is set; does not consult the deadline.
    pub fn flag_raised(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// `true` once the flag is set or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag_raised() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `true` if polling this token could ever return `true` (used to skip
    /// `Instant::now` syscalls on the fast path).
    pub fn can_fire(&self) -> bool {
        self.flag.is_some() || self.deadline.is_some()
    }

    /// The `Unknown` reason matching the way the token fired.
    pub fn unknown_reason(&self) -> String {
        if self.flag_raised() {
            CANCELLED_MSG.to_string()
        } else {
            DEADLINE_MSG.to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn none_never_fires() {
        let token = CancelToken::none();
        assert!(!token.is_cancelled());
        token.cancel(); // a no-op, not a panic
        assert!(!token.is_cancelled());
        assert!(!token.can_fire());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.unknown_reason(), CANCELLED_MSG);
    }

    #[test]
    fn deadline_fires() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        assert_eq!(token.unknown_reason(), DEADLINE_MSG);
    }

    #[test]
    fn merged_deadline_takes_the_earlier() {
        let early = Instant::now();
        let late = early + Duration::from_secs(60);
        let token = CancelToken::with_deadline(late).merged_with_deadline(Some(early));
        assert_eq!(token.deadline(), Some(early));
        // the merged clone still shares the flag
        let base = CancelToken::new();
        let merged = base.merged_with_deadline(Some(late));
        base.cancel();
        assert!(merged.is_cancelled());
    }

    #[test]
    fn cancellation_crosses_threads() {
        let token = CancelToken::new();
        let worker = token.clone();
        let handle = std::thread::spawn(move || {
            while !worker.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        });
        std::thread::sleep(Duration::from_millis(5));
        token.cancel();
        assert!(handle.join().unwrap());
    }
}
