//! Phase self-time aggregation over the recorded spans: the per-phase
//! table that the black-box dump, the bench binaries and perfbench read.

use std::collections::HashMap;

use crate::export::reconstruct;
use crate::ring::TrackSnapshot;

/// Aggregated timing of one span path across every occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Span path from the track root, joined with `/`
    /// (e.g. `solve/case/cdcl.solve`).
    pub path: String,
    /// Leaf span name (last path component).
    pub name: String,
    /// Number of occurrences.
    pub count: u64,
    /// Total wall time, µs (includes children).
    pub total_us: u64,
    /// Self time, µs (children subtracted).
    pub self_us: u64,
}

/// Aggregates every recorded span by its nesting path, across tracks.
/// Sorted by descending self time — the profile's "where did the time go"
/// answer.
pub fn phase_totals(tracks: &[TrackSnapshot]) -> Vec<PhaseStat> {
    let mut by_path: HashMap<String, PhaseStat> = HashMap::new();
    for track in tracks {
        for occ in reconstruct(&track.events) {
            let path = occ.path.join("/");
            let name = occ.path.last().cloned().unwrap_or_default();
            let entry = by_path.entry(path.clone()).or_insert(PhaseStat {
                path,
                name,
                count: 0,
                total_us: 0,
                self_us: 0,
            });
            entry.count += 1;
            entry.total_us += occ.dur_us;
            entry.self_us += occ.self_us;
        }
    }
    let mut out: Vec<PhaseStat> = by_path.into_values().collect();
    out.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.path.cmp(&b.path)));
    out
}

/// Sums the self time of every span whose *leaf name* is in `names`; the
/// bench binaries use this to fold span names into the coarse phase
/// columns (decomposition / encoding / cdcl / simplex / proof).
pub fn self_time_of(phases: &[PhaseStat], names: &[&str]) -> u64 {
    phases
        .iter()
        .filter(|p| names.contains(&p.name.as_str()))
        .map(|p| p.self_us)
        .sum()
}
