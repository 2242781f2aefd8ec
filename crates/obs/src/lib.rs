//! Tracing, metrics, and profiling substrate for the posr solver stack.
//!
//! Every layer of the pipeline — portfolio lanes, the CEGAR loops, the
//! CDCL(T) search, the incremental simplex, the automata library — records
//! into this crate so a slow solve can explain *where* the time went.  The
//! design goals, in order:
//!
//! 1. **Near-zero cost when off.**  Recording is gated on one process-wide
//!    flag read with a relaxed atomic load ([`enabled`]); a disabled span is
//!    a branch and a `None`.  Tracing is off unless a binary opts in
//!    ([`set_enabled`]) or the `POSR_TRACE` environment variable is set
//!    ([`init_from_env`]).
//! 2. **No contention when on.**  Each thread records into its own bounded
//!    ring buffer ([`ring`]); the only shared state is a registry of
//!    per-thread buffers touched once per thread.
//! 3. **Bounded memory.**  Ring buffers cap at [`ring::MAX_EVENTS`] events
//!    per track and drop the oldest on overflow (counting the drops), so a
//!    week-long solve cannot OOM the recorder.
//! 4. **Counters are always on.**  Unlike spans, [`counters`] are plain
//!    relaxed atomics that batch drivers rely on for *accounting* (cache
//!    hit attribution, proof-sink volume) — they work with tracing
//!    disabled, and a [`counters::CounterScope`] attributes increments to
//!    one batch even when several batches share the process.
//!
//! Export surfaces: [`export::chrome_trace_json`] (Chrome trace-event JSON,
//! loadable in Perfetto / `chrome://tracing`, one track per registered
//! thread), [`export::folded_stacks`] (flamegraph.pl-compatible self-time
//! lines), and [`report::phase_totals`] (a per-phase self-time table that
//! the bench binaries serialize into `BENCH_lia.json`).

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod budget;
pub mod counters;
pub mod export;
pub mod fault;
pub mod histogram;
pub mod report;
pub mod ring;
pub mod watchdog;

pub use budget::Budget;
pub use counters::{
    attached_scopes, counter, counter_value, counters_snapshot, Counter, CounterScope,
};
pub use export::{chrome_trace_json, folded_stacks};
pub use fault::{FaultKind, INJECTED_PANIC_MSG};
pub use histogram::{histogram, histograms_snapshot, Histogram, HistogramSnapshot};
pub use report::{phase_totals, self_time_of, PhaseStat};
pub use ring::{drain_tracks, set_thread_track, snapshot_tracks, Event, EventKind, TrackSnapshot};
pub use watchdog::{blackbox_json, gauge, progress_snapshot, Gauge, Watchdog};

/// Process-wide recording switch; off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The monotonic epoch every timestamp is relative to: the first call into
/// the crate.  Fixing an epoch keeps timestamps small, positive, and
/// comparable across threads.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// `true` when span/instant recording is on.  A relaxed load — this is the
/// *only* cost instrumentation pays on the disabled path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span/instant recording on or off.  Counters are unaffected (they
/// are always live).  Events already recorded stay buffered.
pub fn set_enabled(on: bool) {
    if on {
        // pin the epoch before the first event so timestamps are sane
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Microseconds since the process-local trace epoch.
#[inline]
pub fn now_us() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

/// Opens a timed span; the event is recorded when the guard drops (which
/// includes panic unwinding, so a trace survives a crashed lane).  When
/// recording is disabled this is a branch and an empty guard.
///
/// `cat` groups related spans (one per subsystem: `"core"`, `"cdcl"`,
/// `"simplex"`, `"automata"`, …); `name` is the span label shown on the
/// timeline.  Prefer `&'static str` names on hot paths — an owned `String`
/// is fine for low-frequency spans (per-lane, per-solve).
#[inline]
pub fn span(cat: &'static str, name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some(OpenSpan {
        cat,
        name: name.into(),
        start_us: now_us(),
    }))
}

/// Records a zero-duration instant event (restart, GC pass, lane win, …).
#[inline]
pub fn instant(cat: &'static str, name: impl Into<Cow<'static, str>>) {
    if !enabled() {
        return;
    }
    ring::record(Event {
        kind: EventKind::Instant,
        cat,
        name: name.into(),
        ts_us: now_us(),
        dur_us: 0,
        flow_id: 0,
    });
}

/// Allocator for process-unique flow ids; never returns 0 (the "no flow"
/// sentinel on [`Event`]).
static NEXT_FLOW_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh process-unique flow id.  Allocate one per causal hand-off
/// (batch submit → worker pickup, connectivity cut → refinement round),
/// record a [`flow_start`] at the source and a [`flow_end`] with the same
/// id at the sink, and Perfetto draws the arrow.
#[inline]
pub fn flow_id() -> u64 {
    NEXT_FLOW_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records the source end of flow `id` (`ph:"s"` in the Chrome export).
#[inline]
pub fn flow_start(cat: &'static str, name: impl Into<Cow<'static, str>>, id: u64) {
    if !enabled() {
        return;
    }
    ring::record(Event {
        kind: EventKind::FlowStart,
        cat,
        name: name.into(),
        ts_us: now_us(),
        dur_us: 0,
        flow_id: id,
    });
}

/// Records the sink end of flow `id` (`ph:"f"`), usually on another track.
#[inline]
pub fn flow_end(cat: &'static str, name: impl Into<Cow<'static, str>>, id: u64) {
    if !enabled() {
        return;
    }
    ring::record(Event {
        kind: EventKind::FlowEnd,
        cat,
        name: name.into(),
        ts_us: now_us(),
        dur_us: 0,
        flow_id: id,
    });
}

/// One statically-interned span call site — the target of the [`span!`]
/// macro, which instantiates exactly one of these per expansion.  Opening
/// through a site skips the `Cow` plumbing of [`span`](fn@span): the open guard is a
/// pointer and a timestamp, and the recorded event borrows the site's
/// `&'static` name, so the warm solver paths pay a relaxed load, two clock
/// reads, and one ring push — nothing is allocated or converted.
pub struct SpanSite {
    cat: &'static str,
    name: &'static str,
}

impl SpanSite {
    /// A site for category `cat` and label `name` (both static — that is
    /// the point).  `const` so [`span!`] can place it in a `static`.
    pub const fn new(cat: &'static str, name: &'static str) -> SpanSite {
        SpanSite { cat, name }
    }

    /// Opens the span; identical semantics to [`span`](fn@span)`(cat, name)`.
    #[inline]
    pub fn open(&'static self) -> StaticSpanGuard {
        if !enabled() {
            return StaticSpanGuard(None);
        }
        StaticSpanGuard(Some((self, now_us())))
    }
}

/// RAII guard of a [`SpanSite`] span; records a complete event on drop.
pub struct StaticSpanGuard(Option<(&'static SpanSite, u64)>);

impl Drop for StaticSpanGuard {
    fn drop(&mut self) {
        if let Some((site, start_us)) = self.0.take() {
            let end = now_us();
            ring::record(Event {
                kind: EventKind::Complete,
                cat: site.cat,
                name: Cow::Borrowed(site.name),
                ts_us: start_us,
                dur_us: end.saturating_sub(start_us),
                flow_id: 0,
            });
        }
    }
}

/// Opens a timed span with *static* category and name literals, interned
/// once per call site.  The cheapest way to put a span on a hot path:
///
/// ```
/// let _span = posr_obs::span!("simplex", "simplex.check");
/// ```
///
/// Use [`span`](fn@span) instead when the name is computed at runtime (per-lane,
/// per-instance labels).
#[macro_export]
macro_rules! span {
    ($cat:literal, $name:literal) => {{
        static SITE: $crate::SpanSite = $crate::SpanSite::new($cat, $name);
        SITE.open()
    }};
}

struct OpenSpan {
    cat: &'static str,
    name: Cow<'static, str>,
    start_us: u64,
}

/// RAII guard for an open span; records a complete event on drop.
pub struct SpanGuard(Option<OpenSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let end = now_us();
            ring::record(Event {
                kind: EventKind::Complete,
                cat: open.cat,
                name: open.name,
                ts_us: open.start_us,
                dur_us: end.saturating_sub(open.start_us),
                flow_id: 0,
            });
        }
    }
}

/// Where `POSR_TRACE` asked the exports to go.
#[derive(Clone, Debug, Default)]
struct EnvTargets {
    chrome: Option<String>,
    folded: Option<String>,
}

static ENV_TARGETS: OnceLock<EnvTargets> = OnceLock::new();

/// Enables recording if the environment asks for it and remembers the
/// output paths for [`flush_env_trace`].  Recognised:
///
/// * `POSR_TRACE=chrome:PATH` — write a Chrome trace-event JSON to `PATH`;
/// * `POSR_TRACE=1` — record, no file (a binary drains the events itself);
/// * `POSR_TRACE_FOLDED=PATH` — additionally write a folded-stack profile.
/// * `POSR_FAULT=seed:N,rate:P` — arm fault injection ([`fault::init_from_env`]).
///
/// Returns `true` when recording was enabled.  Idempotent: the environment
/// is read once per process.
pub fn init_from_env() -> bool {
    fault::init_from_env();
    let targets = ENV_TARGETS.get_or_init(|| {
        let mut t = EnvTargets::default();
        if let Ok(spec) = std::env::var("POSR_TRACE") {
            let spec = spec.trim();
            if let Some(path) = spec.strip_prefix("chrome:") {
                t.chrome = Some(path.to_string());
            } else if !spec.is_empty() && spec != "0" {
                t.chrome = None;
            } else {
                return EnvTargets::default();
            }
            set_enabled(true);
        }
        if let Ok(path) = std::env::var("POSR_TRACE_FOLDED") {
            if !path.trim().is_empty() {
                t.folded = Some(path.trim().to_string());
                set_enabled(true);
            }
        }
        t
    });
    let _ = targets;
    enabled()
}

/// Writes the buffered events to the files `POSR_TRACE` /
/// `POSR_TRACE_FOLDED` named (without draining them), returning the chrome
/// trace path when one was written.  A no-op when the environment asked
/// for nothing.
pub fn flush_env_trace() -> std::io::Result<Option<String>> {
    flush_env_trace_tracks(&snapshot_tracks())
}

/// [`flush_env_trace`] over an explicit track set: binaries that drain
/// buffers mid-run (the bench harness measures sections by draining)
/// accumulate the drained snapshots and flush them all at the end.
pub fn flush_env_trace_tracks(tracks: &[TrackSnapshot]) -> std::io::Result<Option<String>> {
    let Some(targets) = ENV_TARGETS.get() else {
        return Ok(None);
    };
    if let Some(path) = &targets.folded {
        std::fs::write(path, folded_stacks(tracks))?;
    }
    if let Some(path) = &targets.chrome {
        std::fs::write(path, chrome_trace_json(tracks))?;
        return Ok(Some(path.clone()));
    }
    Ok(None)
}
