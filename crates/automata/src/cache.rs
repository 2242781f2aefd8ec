//! A process-wide, thread-safe memoization cache for compiled regular
//! expressions, keyed by the pattern text.
//!
//! Every solving strategy normalises its input independently, and the
//! portfolio engine runs several strategies over the *same* formula on
//! concurrent threads — without sharing, each worker would re-parse and
//! re-compile identical patterns.  This cache interns two artefacts per
//! pattern:
//!
//! * the raw compiled NFA ([`compile_cached`]), exactly what
//!   `Regex::parse(p)?.compile()` returns, and
//! * the ε-free trimmed variant ([`prepared_cached`]), the form every
//!   encoder downstream actually wants.
//!
//! Entries are `Arc`-shared and immutable, so concurrent readers clone a
//! pointer, never an automaton.  Hit/miss counters feed the batch-driver
//! statistics of `posr-portfolio`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

use crate::nfa::Nfa;
use crate::regex::{ParseRegexError, Regex};

static COMPILED: OnceLock<Mutex<HashMap<String, Arc<Nfa>>>> = OnceLock::new();
static PREPARED: OnceLock<Mutex<HashMap<String, Arc<Nfa>>>> = OnceLock::new();
static PREPARED_BY_CONTENT: OnceLock<Mutex<HashMap<String, Arc<Nfa>>>> = OnceLock::new();
// Process-wide cumulative counters: a *documented process-wide view* only.
// Attributing lookups to one batch/solve among concurrent ones goes through
// the obs counters below and a `posr_obs::CounterScope` on the caller side.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Scope-attributable mirrors of `HITS`/`MISSES` (see
/// `posr_obs::counters`): always incremented in lock-step with the atomics
/// so per-batch [`posr_obs::CounterScope`]s see exactly the lookups their
/// own worker threads performed.
pub static OBS_HITS: LazyLock<posr_obs::Counter> =
    LazyLock::new(|| posr_obs::counter("automata.cache.hits"));
pub static OBS_MISSES: LazyLock<posr_obs::Counter> =
    LazyLock::new(|| posr_obs::counter("automata.cache.misses"));

/// Times a poisoned cache mutex was recovered (cleared and released): a
/// thread panicked while holding the lock — a crashed portfolio lane, an
/// injected fault — and instead of propagating the poison to every later
/// solve in the process, the cache healed itself.
pub static OBS_POISON_RECOVERED: LazyLock<posr_obs::Counter> =
    LazyLock::new(|| posr_obs::counter("cache.poison_recovered"));

/// Locks `m`, recovering from poison: a panic while the lock was held
/// marks the mutex poisoned forever, and the old `.expect(…)` here turned
/// every later lookup — on every thread, for the rest of the process —
/// into a panic.  Recovery clears the poison bit and conservatively drops
/// the entries (the dying writer may have left a partial insert); the
/// cache refills on the following misses.
fn lock_recover(
    m: &Mutex<HashMap<String, Arc<Nfa>>>,
) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Nfa>>> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            OBS_POISON_RECOVERED.incr();
            m.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        }
    }
}

/// Approximate heap footprint of a cached automaton, charged against the
/// memory budget of whichever solve inserts it.
fn nfa_bytes(nfa: &Nfa) -> u64 {
    64 + 48 * nfa.size() as u64
}

fn count_hit() {
    HITS.fetch_add(1, Ordering::Relaxed);
    OBS_HITS.incr();
}

fn count_miss() {
    MISSES.fetch_add(1, Ordering::Relaxed);
    OBS_MISSES.incr();
}

/// A snapshot of the cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups in this snapshot.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`, or `None` when the snapshot holds no lookups
    /// — callers used to get `0.0` here and report an idle cache as a 0%
    /// hit rate, which is a different (and alarming) claim.  Render `None`
    /// as "n/a".
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.lookups();
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// The lookups this snapshot saw after `earlier` was taken.
    /// Saturating, so a concurrent [`reset_stats`] yields zeros instead of
    /// wrapped garbage.  Note the result is still a *process-wide* delta:
    /// concurrent solvers' lookups are included.  For exact per-batch
    /// attribution use a `posr_obs::CounterScope` over
    /// [`OBS_HITS`]/[`OBS_MISSES`].
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

fn lookup(
    store: &OnceLock<Mutex<HashMap<String, Arc<Nfa>>>>,
    pattern: &str,
    build: impl FnOnce() -> Result<Nfa, ParseRegexError>,
) -> Result<Arc<Nfa>, ParseRegexError> {
    let map = store.get_or_init(|| Mutex::new(HashMap::new()));
    posr_obs::fault::fire(
        "automata.cache.lookup",
        &[posr_obs::FaultKind::Panic, posr_obs::FaultKind::Delay],
    );
    if let Some(hit) = lock_recover(map).get(pattern) {
        count_hit();
        return Ok(Arc::clone(hit));
    }
    // build outside the lock: concurrent workers may race and compile the
    // same pattern twice, but nobody blocks behind a slow compilation and
    // both racers insert identical (deterministic) automata
    count_miss();
    let built = Arc::new(build()?);
    let mut guard = lock_recover(map);
    if !guard.contains_key(pattern) {
        posr_obs::budget::charge_mem(nfa_bytes(&built));
    }
    Ok(Arc::clone(
        guard.entry(pattern.to_string()).or_insert(built),
    ))
}

/// The compiled NFA of `pattern`, shared across the process.
///
/// # Errors
/// Returns the parse error of `Regex::parse` on malformed patterns (errors
/// are not cached; a typo fixed upstream retries the parse).
pub fn compile_cached(pattern: &str) -> Result<Arc<Nfa>, ParseRegexError> {
    lookup(&COMPILED, pattern, || Ok(Regex::parse(pattern)?.compile()))
}

/// The ε-free, trimmed NFA of `pattern`, shared across the process.  This is
/// the form the tag-automaton encoders consume, so callers that go straight
/// from a pattern to an encoder skip the per-solve `remove_epsilon().trim()`
/// entirely.
///
/// # Errors
/// Returns the parse error of `Regex::parse` on malformed patterns.
pub fn prepared_cached(pattern: &str) -> Result<Arc<Nfa>, ParseRegexError> {
    lookup(&PREPARED, pattern, || {
        Ok(Regex::parse(pattern)?.compile().remove_epsilon().trim())
    })
}

/// The ε-free, trimmed form of an arbitrary automaton, keyed by the
/// automaton's *content* ([`Nfa::cache_key`]) rather than a pattern string.
///
/// This is what deduplicates the per-case intersections of the monadic
/// decomposition: every case of `solve_position` re-prepares its refined
/// languages, and across cases (and across portfolio strategies racing the
/// same formula, and across CEGAR rounds re-entering the procedure) most of
/// those intersections are structurally identical.  The pattern-keyed
/// [`prepared_cached`] cannot see them — they have no pattern — so they are
/// interned by canonical structure instead.
pub fn prepared_for(nfa: &Nfa) -> Arc<Nfa> {
    /// Unlike the pattern-keyed stores (bounded by the distinct patterns a
    /// workload uses), content keys of unrelated queries rarely recur, so a
    /// long-running server would grow this map without bound.  Past the cap
    /// the result is still computed, just not interned.
    const MAX_ENTRIES: usize = 8_192;

    let key = nfa.cache_key();
    let map = PREPARED_BY_CONTENT.get_or_init(|| Mutex::new(HashMap::new()));
    posr_obs::fault::fire(
        "automata.cache.lookup",
        &[posr_obs::FaultKind::Panic, posr_obs::FaultKind::Delay],
    );
    if let Some(hit) = lock_recover(map).get(&key) {
        count_hit();
        return Arc::clone(hit);
    }
    // build outside the lock (see `lookup` for the rationale)
    count_miss();
    let built = Arc::new(nfa.remove_epsilon().trim());
    let mut guard = lock_recover(map);
    if guard.len() >= MAX_ENTRIES && !guard.contains_key(&key) {
        return built;
    }
    if !guard.contains_key(&key) {
        posr_obs::budget::charge_mem(nfa_bytes(&built));
    }
    Arc::clone(guard.entry(key).or_insert(built))
}

/// Current hit/miss counters (cumulative since process start or the last
/// [`reset_stats`]).
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide counters (the entries stay).  Prefer
/// [`CacheStats::since`] deltas or a `posr_obs::CounterScope` over a reset:
/// resetting yanks the baseline out from under every other concurrent
/// reader (the obs counters are deliberately *not* reset).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Drops every cached automaton and resets the counters.  Only tests and
/// long-running servers with pattern churn should need this.
pub fn clear() {
    for store in [&COMPILED, &PREPARED, &PREPARED_BY_CONTENT] {
        if let Some(map) = store.get() {
            lock_recover(map).clear();
        }
    }
    reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;

    // the cache is process-global and tests run concurrently, so assertions
    // are phrased in deltas over the entries this test touches
    #[test]
    fn repeated_lookups_share_one_automaton() {
        let a = compile_cached("(ab)*cache-test").unwrap();
        let b = compile_cached("(ab)*cache-test").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.accepts_str("ababcache-test"));
    }

    #[test]
    fn prepared_is_trimmed_and_epsilon_free() {
        let nfa = prepared_cached("(a|b)+prepared-test").unwrap();
        assert!(nfa.accepts_str("abprepared-test"));
        let again = prepared_cached("(a|b)+prepared-test").unwrap();
        assert!(Arc::ptr_eq(&nfa, &again));
    }

    #[test]
    fn parse_errors_are_reported_not_cached() {
        assert!(compile_cached("(unclosed").is_err());
        assert!(prepared_cached("(unclosed").is_err());
    }

    #[test]
    fn content_keyed_preparation_is_shared() {
        let a = Regex::parse("(ab)+content-test").unwrap().compile();
        let b = Regex::parse("(ab)+content-test").unwrap().compile();
        // two separately compiled (structurally identical) automata prepare
        // to the same shared instance
        let pa = prepared_for(&a);
        let pb = prepared_for(&b);
        assert!(Arc::ptr_eq(&pa, &pb));
        assert!(pa.accepts_str("abcontent-test"));
        assert!(!pa.has_epsilon());
        // a different automaton gets a different entry
        let c = Regex::parse("(ba)+content-test").unwrap().compile();
        let pc = prepared_for(&c);
        assert!(!Arc::ptr_eq(&pa, &pc));
    }

    #[test]
    fn stats_move_on_misses_and_hits() {
        let before = stats();
        let _ = compile_cached("stats-test-pattern-x");
        let mid = stats().since(before);
        assert!(mid.misses >= 1);
        let _ = compile_cached("stats-test-pattern-x");
        let after = stats().since(before);
        assert!(after.hits >= 1);
        assert!(after.hit_ratio().expect("lookups happened") > 0.0);
        assert_eq!(CacheStats::default().hit_ratio(), None);
    }

    #[test]
    fn poisoned_lock_recovers_and_cache_keeps_serving() {
        // prime the cache, then kill a thread while it holds the lock —
        // exactly what a crashed portfolio lane does mid-lookup.  The
        // counter is read before poisoning: a cache test running
        // concurrently may be the lookup that heals the lock, and its
        // recovery must count too
        let _ = compile_cached("(xy)+poison-test").unwrap();
        let recoveries_before = OBS_POISON_RECOVERED.value();
        let join = std::thread::spawn(|| {
            let map = COMPILED.get().expect("cache primed above");
            let _guard = lock_recover(map);
            panic!("simulated lane crash while holding the cache lock");
        })
        .join();
        assert!(join.is_err(), "the poisoning thread must have panicked");

        // the next lookup recovers the lock (clearing the map once) …
        let a = compile_cached("(xy)+poison-test").unwrap();
        assert!(a.accepts_str("xyxypoison-test"));
        assert!(OBS_POISON_RECOVERED.value() > recoveries_before);

        // … and later solves hit the cache again as if nothing happened
        let hits_before = stats().hits;
        let b = compile_cached("(xy)+poison-test").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(stats().hits > hits_before);
    }

    #[test]
    fn scoped_counters_attribute_lookups_to_the_attaching_thread() {
        let scope = posr_obs::CounterScope::new();
        {
            let _attached = scope.attach();
            let _ = compile_cached("scope-attrib-pattern");
            let _ = compile_cached("scope-attrib-pattern");
        }
        // at least one miss (first build) and one hit (second lookup)
        // landed in the scope, regardless of what other tests do globally
        assert!(scope.get(*OBS_MISSES) >= 1);
        assert!(scope.get(*OBS_HITS) >= 1);
        // nothing recorded after detach
        let (h, m) = (scope.get(*OBS_HITS), scope.get(*OBS_MISSES));
        let _ = compile_cached("scope-attrib-pattern");
        assert_eq!((scope.get(*OBS_HITS), scope.get(*OBS_MISSES)), (h, m));
    }
}
