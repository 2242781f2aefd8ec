//! Always-on named counters with optional per-scope attribution.
//!
//! Counters are the *accounting* half of the crate: unlike spans they work
//! with tracing disabled, because batch drivers and `(get-info
//! :all-statistics)` rely on them for correctness-adjacent numbers (cache
//! hit attribution, proof-sink volume), not just diagnostics.
//!
//! Two views of every counter:
//!
//! * a **process-wide total** — one relaxed atomic per counter, the
//!   cumulative-since-start number `(get-info)` and `--stats` report;
//! * **scope totals** — a [`CounterScope`] attached to the threads of one
//!   batch collects exactly the increments made while attached, so two
//!   concurrent batches stop corrupting each other's deltas (the bug the
//!   old global-delta accounting in `posr-portfolio` had).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on distinct counter names per process; interning past it
/// panics (a leak of dynamically-generated names, always a bug).
const MAX_COUNTERS: usize = 256;

static SLOTS: [AtomicU64; MAX_COUNTERS] = [const { AtomicU64::new(0) }; MAX_COUNTERS];
static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();

thread_local! {
    static ATTACHED: std::cell::RefCell<Vec<Arc<ScopeInner>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn names() -> &'static Mutex<Vec<&'static str>> {
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// A handle to one named counter; cheap to copy.  Intern once (e.g. in a
/// `LazyLock`) and reuse — interning takes the registry lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Counter(usize);

/// Interns `name`, returning the existing counter if the name is known.
pub fn counter(name: &'static str) -> Counter {
    let mut names = names().lock().expect("obs counter names poisoned");
    if let Some(slot) = names.iter().position(|&n| n == name) {
        return Counter(slot);
    }
    assert!(
        names.len() < MAX_COUNTERS,
        "too many distinct obs counters (cap {MAX_COUNTERS}); counter names must be static"
    );
    names.push(name);
    Counter(names.len() - 1)
}

impl Counter {
    /// Adds `n` to the process-wide total and to every scope attached to
    /// the calling thread.
    #[inline]
    pub fn add(self, n: u64) {
        if n == 0 {
            return;
        }
        SLOTS[self.0].fetch_add(n, Ordering::Relaxed);
        ATTACHED.with(|scopes| {
            let scopes = scopes.borrow();
            if scopes.is_empty() {
                return;
            }
            for scope in scopes.iter() {
                let mut totals = scope.totals.lock().expect("obs scope poisoned");
                *totals.entry(self.0).or_insert(0) += n;
            }
        });
    }

    /// Increments by one.
    #[inline]
    pub fn incr(self) {
        self.add(1);
    }

    /// The process-wide cumulative total.
    pub fn value(self) -> u64 {
        SLOTS[self.0].load(Ordering::Relaxed)
    }
}

/// The process-wide total of counter `c` (same as `c.value()`).
pub fn counter_value(c: Counter) -> u64 {
    c.value()
}

/// Every interned counter with its process-wide total, in interning order.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    let names = names().lock().expect("obs counter names poisoned");
    names
        .iter()
        .enumerate()
        .map(|(slot, &name)| (name, SLOTS[slot].load(Ordering::Relaxed)))
        .collect()
}

struct ScopeInner {
    totals: Mutex<HashMap<usize, u64>>,
    /// Per-histogram-slot distributions recorded while attached (see
    /// [`crate::histogram`]).
    hists: Mutex<HashMap<usize, ScopeHist>>,
}

struct ScopeHist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

/// Feeds one histogram sample to every scope attached to the calling
/// thread; called by [`crate::histogram::Histogram::record`].
pub(crate) fn record_scoped_hist(slot: usize, value: u64, bucket: usize) {
    ATTACHED.with(|scopes| {
        let scopes = scopes.borrow();
        if scopes.is_empty() {
            return;
        }
        for scope in scopes.iter() {
            let mut hists = scope.hists.lock().expect("obs scope poisoned");
            let h = hists.entry(slot).or_insert_with(|| ScopeHist {
                buckets: vec![0; crate::histogram::HIST_BUCKETS],
                count: 0,
                sum: 0,
                max: 0,
            });
            h.buckets[bucket] += 1;
            h.count += 1;
            h.sum += value;
            h.max = h.max.max(value);
        }
    });
}

/// Collects counter increments made by attached threads.  Create one per
/// batch, [`CounterScope::attach`] it in each worker, and read the totals
/// when the workers are done — the numbers are exact for that batch even
/// when other batches (or unrelated solves) run concurrently in the same
/// process.
#[derive(Clone)]
pub struct CounterScope {
    inner: Arc<ScopeInner>,
}

impl std::fmt::Debug for CounterScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.totals()).finish()
    }
}

impl Default for CounterScope {
    fn default() -> Self {
        CounterScope::new()
    }
}

impl CounterScope {
    pub fn new() -> CounterScope {
        CounterScope {
            inner: Arc::new(ScopeInner {
                totals: Mutex::new(HashMap::new()),
                hists: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Attaches the calling thread to this scope until the guard drops.
    /// Attachment nests: a thread may feed several scopes at once.
    pub fn attach(&self) -> ScopeAttachGuard {
        ATTACHED.with(|scopes| scopes.borrow_mut().push(Arc::clone(&self.inner)));
        ScopeAttachGuard {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The total recorded for `c` while threads were attached.
    pub fn get(&self, c: Counter) -> u64 {
        self.inner
            .totals
            .lock()
            .expect("obs scope poisoned")
            .get(&c.0)
            .copied()
            .unwrap_or(0)
    }

    /// The distribution recorded for histogram `h` while threads were
    /// attached, or `None` when no sample arrived.
    pub fn histogram(&self, h: crate::histogram::Histogram) -> Option<crate::HistogramSnapshot> {
        self.histogram_totals()
            .into_iter()
            .find(|s| s.name == crate::histogram::histogram_name(h))
    }

    /// Every histogram this scope saw, with names resolved, sorted by
    /// name.
    pub fn histogram_totals(&self) -> Vec<crate::HistogramSnapshot> {
        let hists = self.inner.hists.lock().expect("obs scope poisoned");
        let mut out: Vec<crate::HistogramSnapshot> = hists
            .iter()
            .map(|(&slot, h)| crate::HistogramSnapshot {
                name: crate::histogram::slot_name(slot),
                buckets: h.buckets.clone(),
                count: h.count,
                sum: h.sum,
                max: h.max,
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Every counter this scope saw, with names resolved.
    pub fn totals(&self) -> Vec<(&'static str, u64)> {
        let names = names().lock().expect("obs counter names poisoned");
        let totals = self.inner.totals.lock().expect("obs scope poisoned");
        let mut out: Vec<(&'static str, u64)> = totals
            .iter()
            .filter_map(|(&slot, &n)| names.get(slot).map(|&name| (name, n)))
            .collect();
        out.sort_unstable();
        out
    }
}

/// The scopes currently attached to the calling thread.  `thread::spawn`
/// does not inherit attachments, so code that fans work out to helper
/// threads (the lanes a portfolio race spawns) captures this before
/// spawning and re-attaches each scope inside the helper.
pub fn attached_scopes() -> Vec<CounterScope> {
    ATTACHED.with(|scopes| {
        scopes
            .borrow()
            .iter()
            .map(|inner| CounterScope {
                inner: Arc::clone(inner),
            })
            .collect()
    })
}

/// Detaches the thread from a scope on drop (unwind-safe: a panicking
/// worker still detaches).
pub struct ScopeAttachGuard {
    inner: Arc<ScopeInner>,
}

impl Drop for ScopeAttachGuard {
    fn drop(&mut self) {
        ATTACHED.with(|scopes| {
            let mut scopes = scopes.borrow_mut();
            if let Some(pos) = scopes.iter().rposition(|s| Arc::ptr_eq(s, &self.inner)) {
                scopes.remove(pos);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_and_scopes_attribute() {
        let c = counter("test.counter.alpha");
        let before = c.value();
        let scope = CounterScope::new();
        {
            let _g = scope.attach();
            c.add(3);
            c.incr();
        }
        // increments after detach reach the global but not the scope
        c.add(10);
        assert_eq!(scope.get(c), 4);
        assert!(c.value() >= before + 14);
        assert!(scope
            .totals()
            .iter()
            .any(|&(n, v)| n == "test.counter.alpha" && v == 4));
    }

    #[test]
    fn concurrent_scopes_do_not_cross_talk() {
        let c = counter("test.counter.beta");
        let s1 = CounterScope::new();
        let s2 = CounterScope::new();
        std::thread::scope(|s| {
            let (a, b) = (&s1, &s2);
            s.spawn(move || {
                let _g = a.attach();
                c.add(5);
            });
            s.spawn(move || {
                let _g = b.attach();
                c.add(7);
            });
        });
        assert_eq!(s1.get(c), 5);
        assert_eq!(s2.get(c), 7);
    }

    #[test]
    fn interning_is_idempotent() {
        let a = counter("test.counter.gamma");
        let b = counter("test.counter.gamma");
        assert_eq!(a, b);
    }
}
