//! Per-thread bounded ring buffers and the global track registry.
//!
//! Each recording thread owns one `TrackBuf` behind an `Arc`; a global
//! registry keeps a second `Arc` so exporters can snapshot every track
//! without the recording threads' cooperation (worker threads are usually
//! gone by the time a trace is written).  The per-event cost is one
//! uncontended mutex lock on the thread's own buffer.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Hard cap on buffered events per track; the oldest events are dropped
/// (and counted) past it, so the timeline keeps the most recent activity.
pub const MAX_EVENTS: usize = 65_536;

/// What a recorded event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A timed span (`ph:"X"` in the Chrome trace format).
    Complete,
    /// A point-in-time marker (`ph:"i"`).
    Instant,
    /// The source end of a flow arrow (`ph:"s"`); pairs with a
    /// [`EventKind::FlowEnd`] carrying the same `flow_id`, possibly on
    /// another track — Perfetto draws the arrow between them.
    FlowStart,
    /// The sink end of a flow arrow (`ph:"f"`).
    FlowEnd,
}

/// One recorded event, timestamps in µs since the trace epoch.
#[derive(Clone, Debug)]
pub struct Event {
    pub kind: EventKind,
    pub cat: &'static str,
    pub name: Cow<'static, str>,
    pub ts_us: u64,
    pub dur_us: u64,
    /// Process-unique flow id pairing a [`EventKind::FlowStart`] with its
    /// [`EventKind::FlowEnd`]; 0 for non-flow events.
    pub flow_id: u64,
}

struct TrackBuf {
    /// Display name of the track (thread name or an explicit
    /// [`set_thread_track`] label such as `lane:cdcl-pos`).
    track: String,
    tid: u64,
    events: VecDeque<Event>,
    dropped: u64,
}

struct TrackHandle(Mutex<TrackBuf>);

static REGISTRY: OnceLock<Mutex<Vec<Arc<TrackHandle>>>> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL: RefCell<Option<Arc<TrackHandle>>> = const { RefCell::new(None) };
}

fn registry() -> &'static Mutex<Vec<Arc<TrackHandle>>> {
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn local_handle() -> Arc<TrackHandle> {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(handle) = slot.as_ref() {
            return Arc::clone(handle);
        }
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let track = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{tid}"));
        let handle = Arc::new(TrackHandle(Mutex::new(TrackBuf {
            track,
            tid,
            events: VecDeque::new(),
            dropped: 0,
        })));
        registry()
            .lock()
            .expect("obs registry poisoned")
            .push(Arc::clone(&handle));
        *slot = Some(Arc::clone(&handle));
        handle
    })
}

/// Names the calling thread's track in exported traces.  Portfolio lanes
/// call this so each racer gets its own Perfetto row (`lane:<strategy>`),
/// batch workers get `worker:<n>`.
pub fn set_thread_track(name: impl Into<String>) {
    let handle = local_handle();
    handle.0.lock().expect("obs track poisoned").track = name.into();
}

/// Appends an event to the calling thread's ring buffer.
pub(crate) fn record(event: Event) {
    let handle = local_handle();
    let mut buf = handle.0.lock().expect("obs track poisoned");
    if buf.events.len() >= MAX_EVENTS {
        buf.events.pop_front();
        buf.dropped += 1;
    }
    buf.events.push_back(event);
}

/// An exporter-facing copy of one track's buffer.
#[derive(Clone, Debug)]
pub struct TrackSnapshot {
    pub track: String,
    pub tid: u64,
    pub events: Vec<Event>,
    /// Events lost to the ring cap (0 in healthy runs).
    pub dropped: u64,
}

fn collect(drain: bool) -> Vec<TrackSnapshot> {
    let registry = registry().lock().expect("obs registry poisoned");
    registry
        .iter()
        .map(|handle| {
            let mut buf = handle.0.lock().expect("obs track poisoned");
            let events = if drain {
                buf.events.drain(..).collect()
            } else {
                buf.events.iter().cloned().collect()
            };
            TrackSnapshot {
                track: buf.track.clone(),
                tid: buf.tid,
                events,
                dropped: buf.dropped,
            }
        })
        .filter(|snap| !snap.events.is_empty())
        .collect()
}

/// Copies every track's events without clearing the buffers.
pub fn snapshot_tracks() -> Vec<TrackSnapshot> {
    collect(false)
}

/// Drains every track's events (buffers stay registered and keep
/// receiving); used by bench binaries to isolate measured sections.
pub fn drain_tracks() -> Vec<TrackSnapshot> {
    collect(true)
}
