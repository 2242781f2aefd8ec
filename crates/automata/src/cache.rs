//! A process-wide, thread-safe memoization cache for compiled regular
//! expressions, keyed by the pattern text.
//!
//! Every solving strategy normalises its input independently, and the
//! portfolio engine runs several strategies over the *same* formula on
//! concurrent threads — without sharing, each worker would re-parse and
//! re-compile identical patterns.  This cache interns two artefacts:
//!
//! * the compiled NFA of a pattern ([`compile_cached`]), exactly what
//!   `Regex::parse(p)?.compile()` returns, and
//! * the ε-free trimmed form of an automaton ([`prepared_for`]), keyed by
//!   its content, the form every encoder downstream actually wants.
//!
//! Entries are `Arc`-shared and immutable, so concurrent readers clone a
//! pointer, never an automaton.  Hit/miss counters feed the batch-driver
//! statistics of `posr-portfolio`.
//!
//! Each store holds at most [`MAX_ENTRIES`] automata, so a long run does not
//! keep every pattern and intersection it ever saw: a full store is cleared
//! before its next insert, and refills from the lookups that follow.  A
//! clear drops only the store's own pointers; an automaton a solve still
//! holds lives on in that solve.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

use crate::nfa::Nfa;
use crate::regex::{ParseRegexError, Regex};

/// Entries per store.  A workload whose working set fits (the patterns and
/// intersections of the queries in flight) keeps hitting; one that churns
/// through renamed patterns or unrelated queries refills after each clear.
/// Entries past that working set are dead weight that every later solve
/// runs on top of: at 1 024 entries per store, the two stores held
/// 0.6–0.7 MiB at the end of 10–20 s runs of renamed position systems,
/// against a heaviest single solve of about 2 MiB.
pub const MAX_ENTRIES: usize = 256;

type Store = Mutex<HashMap<String, Arc<Nfa>>>;

static COMPILED: OnceLock<Store> = OnceLock::new();
static PREPARED_BY_CONTENT: OnceLock<Store> = OnceLock::new();

/// Cache hits and misses (see `posr_obs::counters`): [`stats`] reads their
/// process-wide totals, and a per-batch [`posr_obs::CounterScope`] sees
/// exactly the lookups its own worker threads performed.
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
fn lock_recover(m: &Store) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Nfa>>> {
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

/// Approximate heap footprint of a cached automaton, charged to the
/// memory account of whichever solve inserts it.
fn nfa_bytes(nfa: &Nfa) -> u64 {
    64 + 48 * nfa.size() as u64
}

/// Interns `built` under `key` unless a racing lookup got there first, and
/// returns the interned automaton.  A full store is cleared first.
fn intern(store: &Store, key: String, built: Arc<Nfa>) -> Arc<Nfa> {
    let mut guard = lock_recover(store);
    if let Some(raced) = guard.get(&key) {
        return Arc::clone(raced);
    }
    if guard.len() >= MAX_ENTRIES {
        guard.clear();
    }
    posr_obs::budget::charge_mem(nfa_bytes(&built));
    guard.insert(key, Arc::clone(&built));
    built
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

    /// The lookups this snapshot saw after `earlier` was taken.  Note the
    /// result is a *process-wide* delta: concurrent solvers' lookups are
    /// included.  For exact per-batch attribution use a
    /// `posr_obs::CounterScope` over [`OBS_HITS`]/[`OBS_MISSES`].
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// The compiled NFA of `pattern`, shared across the process.
///
/// # Errors
/// Returns the parse error of `Regex::parse` on malformed patterns (errors
/// are not cached; a typo fixed upstream retries the parse).
pub fn compile_cached(pattern: &str) -> Result<Arc<Nfa>, ParseRegexError> {
    let map = COMPILED.get_or_init(|| Mutex::new(HashMap::new()));
    posr_obs::fault::fire(
        "automata.cache.lookup",
        &[posr_obs::FaultKind::Panic, posr_obs::FaultKind::Delay],
    );
    if let Some(hit) = lock_recover(map).get(pattern) {
        OBS_HITS.incr();
        return Ok(Arc::clone(hit));
    }
    // build outside the lock: concurrent workers may race and compile the
    // same pattern twice, but nobody blocks behind a slow compilation and
    // the first racer's (identical, deterministic) automaton is kept
    OBS_MISSES.incr();
    let built = Arc::new(Regex::parse(pattern)?.compile());
    Ok(intern(map, pattern.to_string(), built))
}

/// The ε-free, trimmed form of an arbitrary automaton, keyed by the
/// automaton's *content* ([`Nfa::cache_key`]) rather than a pattern string.
///
/// This is what deduplicates the per-case intersections of the monadic
/// decomposition: every case of `solve_position` re-prepares its refined
/// languages, and across cases (and across portfolio strategies racing the
/// same formula, and across CEGAR rounds re-entering the procedure) most of
/// those intersections are structurally identical.  They have no pattern,
/// so they are interned by canonical structure instead.
pub fn prepared_for(nfa: &Nfa) -> Arc<Nfa> {
    let key = nfa.cache_key();
    let map = PREPARED_BY_CONTENT.get_or_init(|| Mutex::new(HashMap::new()));
    posr_obs::fault::fire(
        "automata.cache.lookup",
        &[posr_obs::FaultKind::Panic, posr_obs::FaultKind::Delay],
    );
    if let Some(hit) = lock_recover(map).get(&key) {
        OBS_HITS.incr();
        return Arc::clone(hit);
    }
    // build outside the lock (see `compile_cached` for the rationale)
    OBS_MISSES.incr();
    let built = Arc::new(nfa.remove_epsilon().trim());
    intern(map, key, built)
}

/// Current hit/miss counters, cumulative since process start.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: OBS_HITS.value(),
        misses: OBS_MISSES.value(),
    }
}

/// Drops every cached automaton (the counters keep counting), so the next
/// run starts cold.  A long run needs no call: [`MAX_ENTRIES`] bounds it.
pub fn clear() {
    for store in [&COMPILED, &PREPARED_BY_CONTENT] {
        if let Some(map) = store.get() {
            lock_recover(map).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // the cache is process-global and tests run concurrently, so assertions
    // are phrased in deltas over the entries this test touches
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Held by every test that expects two lookups to share an entry, and
    /// by the ones that clear a store (filling it, or poisoning its lock),
    /// since a clear between the two lookups breaks the sharing.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn repeated_lookups_share_one_automaton() {
        let _serial = serial();
        let a = compile_cached("(ab)*cache-test").unwrap();
        let b = compile_cached("(ab)*cache-test").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.accepts_str("ababcache-test"));
    }

    #[test]
    fn parse_errors_are_reported_not_cached() {
        assert!(compile_cached("(unclosed").is_err());
    }

    #[test]
    fn content_keyed_preparation_is_shared() {
        let _serial = serial();
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
    fn a_full_store_still_interns_the_next_automaton() {
        let _serial = serial();
        let len = |store: &OnceLock<Store>| store.get().map_or(0, |m| lock_recover(m).len());
        let mut i = 0;
        while len(&COMPILED) < MAX_ENTRIES {
            compile_cached(&format!("cap-test-{i}")).unwrap();
            i += 1;
        }
        let a = compile_cached("cap-test-next").unwrap();
        let b = compile_cached("cap-test-next").unwrap();
        assert!(Arc::ptr_eq(&a, &b));

        let compile = |pattern: &str| Regex::parse(pattern).unwrap().compile();
        while len(&PREPARED_BY_CONTENT) < MAX_ENTRIES {
            prepared_for(&compile(&format!("cap-test-{i}")));
            i += 1;
        }
        let next = compile("cap-test-next");
        let a = prepared_for(&next);
        let b = prepared_for(&next);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(len(&PREPARED_BY_CONTENT) < MAX_ENTRIES);
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
        let _serial = serial();
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
