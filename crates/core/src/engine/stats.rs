//! Work accounting for the staged engine: internal atomic [`Counters`]
//! and the public [`EngineStats`] snapshot.
//!
//! Counter families map onto the pipeline stages in `engine/stages/`:
//!
//! | stage    | artifact                     | built / reused counters        |
//! |----------|------------------------------|--------------------------------|
//! | lower    | `LoweredNest`                | `lowered_built/-reused`        |
//! | reuse    | `ReusePlan`                  | `reuse_built/-reused`          |
//! | solve    | `SolveSet`                   | `cascades_built/-reused`       |
//! | cascade  | `CascadeResult`              | `scans_executed/scans_reused`  |
//! | classify | `RefAnalysis`                | — (pure assembly, never cached)|
//!
//! (The `cascades_*`/`scans_*` names predate the stage split and are kept
//! for output stability: a "cascade" counter counts solve-stage
//! cold/indeterminate refinements, a "scan" counter counts cascade-stage
//! window-scan batches.)
//!
//! Per-stage wall time: `time_lower`, `time_cascade`, and `time_classify`
//! are driver wall time; `time_reuse` and `time_solve` are summed across
//! pool workers (the two stages run fused inside the per-reference work
//! items), so on a multi-threaded session they can exceed wall time.

use std::fmt;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::api::json::{obj, Json};
use crate::window::WindowStats;

use super::Analyzer;

#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) analyses: AtomicU64,
    pub(crate) passthroughs: AtomicU64,
    pub(crate) lowered_built: AtomicU64,
    pub(crate) lowered_reused: AtomicU64,
    pub(crate) reuse_built: AtomicU64,
    pub(crate) reuse_reused: AtomicU64,
    pub(crate) cascades_built: AtomicU64,
    pub(crate) cascades_reused: AtomicU64,
    pub(crate) scans_executed: AtomicU64,
    pub(crate) scans_reused: AtomicU64,
    pub(crate) scan_points: AtomicU64,
    pub(crate) scan_blocks: AtomicU64,
    pub(crate) window_steps: AtomicU64,
    pub(crate) window_rebuilds: AtomicU64,
    pub(crate) window_rebuild_rows: AtomicU64,
    pub(crate) peak_survivors: AtomicU64,
    pub(crate) scan_sets_dense: AtomicU64,
    pub(crate) scan_sets_runs: AtomicU64,
    pub(crate) scan_shard_busy_ns: AtomicU64,
    pub(crate) scan_shard_longest_ns: AtomicU64,
    pub(crate) scan_merge_ns: AtomicU64,
    pub(crate) truncated_points: AtomicU64,
    pub(crate) exhausted_analyses: AtomicU64,
    pub(crate) worker_panics: AtomicU64,
    pub(crate) store_hits: AtomicU64,
    pub(crate) store_misses: AtomicU64,
    pub(crate) store_writes: AtomicU64,
    pub(crate) sim_classifications: AtomicU64,
    pub(crate) sim_accesses: AtomicU64,
    pub(crate) sim_writebacks: AtomicU64,
    pub(crate) sim_exhausted: AtomicU64,
    pub(crate) sweeps_fitted: AtomicU64,
    pub(crate) sweeps_fallback: AtomicU64,
    pub(crate) sweep_samples: AtomicU64,
    pub(crate) lower_ns: AtomicU64,
    pub(crate) reuse_ns: AtomicU64,
    pub(crate) solve_ns: AtomicU64,
    pub(crate) cascade_ns: AtomicU64,
    pub(crate) classify_ns: AtomicU64,
}

impl Counters {
    pub(crate) fn absorb_scan(&self, points: u64, w: WindowStats) {
        self.scan_points.fetch_add(points, Ordering::Relaxed);
        self.scan_blocks.fetch_add(1, Ordering::Relaxed);
        self.window_steps.fetch_add(w.steps, Ordering::Relaxed);
        self.window_rebuilds
            .fetch_add(w.rebuilds, Ordering::Relaxed);
        self.window_rebuild_rows
            .fetch_add(w.rebuild_rows, Ordering::Relaxed);
    }

    /// Adds an elapsed duration to one stage-time accumulator.
    pub(crate) fn add_time(slot: &AtomicU64, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        slot.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one solved vector's survivor peak and, when it has a scan
    /// set (`dense` is `None` for an empty one), which side of the density
    /// heuristic that set landed on.
    pub(crate) fn note_solved_vector(&self, examined: u64, dense: Option<bool>) {
        self.peak_survivors.fetch_max(examined, Ordering::Relaxed);
        if let Some(dense) = dense {
            let slot = if dense {
                &self.scan_sets_dense
            } else {
                &self.scan_sets_runs
            };
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds one pooled scan round's worker clocks into the session totals.
    pub(crate) fn note_shard_stats(&self, stats: &super::pool::PoolStats) {
        self.scan_shard_busy_ns.fetch_add(
            u64::try_from(stats.busy.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.scan_shard_longest_ns.fetch_max(
            u64::try_from(stats.longest.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }
}

/// Snapshot of an [`Analyzer`]'s work accounting: per-stage artifacts
/// generated vs reused, scan work, and per-stage time.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Nest analyses run through the engine.
    pub analyses: u64,
    /// References analyzed without the memo tables (caching off, or a
    /// nest above the memo size cap): the same staged pipeline, every
    /// artifact rebuilt and none stored.
    pub passthroughs: u64,
    /// Lower-stage artifacts (`LoweredNest`) computed.
    pub lowered_built: u64,
    /// Lower-stage artifacts answered from the memo.
    pub lowered_reused: u64,
    /// Reuse-vector sets computed.
    pub reuse_built: u64,
    /// Reuse-vector sets answered from the memo.
    pub reuse_reused: u64,
    /// Solve-stage cold/indeterminate refinements (`SolveSet`) computed.
    pub cascades_built: u64,
    /// Solve sets answered from the memo.
    pub cascades_reused: u64,
    /// Cascade-stage `(reference, reuse-vector)` scan batches executed.
    /// Only scan sets with points count: an empty scan set (every point
    /// of the vector cold, or none left) takes a shared empty outcome with
    /// no scan, memo lookup or memo entry, and counts in neither this nor
    /// `scans_reused`.
    pub scans_executed: u64,
    /// Scan batches answered from the memo (scan sets with points only).
    pub scans_reused: u64,
    /// Destination points whose reuse windows were scanned.
    pub scan_points: u64,
    /// Contiguous run blocks the scans were sharded into.
    pub scan_blocks: u64,
    /// Points the window's destination moved without a rebuild: in-row
    /// steps and slides, and the entering spans of windows moved to an
    /// overlapping or touching position.
    pub window_steps: u64,
    /// Full window rebuilds (shard starts, and jumps to a window that
    /// does not touch the current one).
    pub window_rebuilds: u64,
    /// Innermost rows aggregated by those rebuilds (rows of span moves
    /// are not counted).
    pub window_rebuild_rows: u64,
    /// Largest indeterminate set entering any single reuse vector.
    pub peak_survivors: u64,
    /// Nonempty survivor scan sets held in the flat dense representation
    /// (picked by the density heuristic). A settled or all-cold vector
    /// keeps no scan set and counts in neither this nor `scan_sets_runs`.
    pub scan_sets_dense: u64,
    /// Nonempty survivor scan sets held run-compressed.
    pub scan_sets_runs: u64,
    /// Worker-summed wall time spent inside cascade scan shards.
    pub time_scan_shards: Duration,
    /// Busiest single shard pass of any scan round — the cascade stage's
    /// parallel critical path.
    pub time_scan_longest_shard: Duration,
    /// Wall time merging per-block scan outcomes back into per-slot
    /// results.
    pub time_scan_merge: Duration,
    /// Iteration points classified indeterminate-treated-as-miss because
    /// a budget or cancellation cut their refinement short.
    pub truncated_points: u64,
    /// Analyses that ended [`crate::Outcome::Exhausted`].
    pub exhausted_analyses: u64,
    /// Worker panics caught at the pool boundary (each failed one query).
    pub worker_panics: u64,
    /// Analyses answered from the persistent [`crate::ArtifactStore`]
    /// before any pipeline stage ran.
    pub store_hits: u64,
    /// Store lookups that fell through to the pipeline.
    pub store_misses: u64,
    /// Complete analyses written through to the persistent store.
    pub store_writes: u64,
    /// Model-simulation classify queries run for served requests on
    /// non-baseline [`cme_cache::CacheModel`]s.
    pub sim_classifications: u64,
    /// Accesses replayed through the model simulator (including aborted
    /// replays' partial progress).
    pub sim_accesses: u64,
    /// Memory write traffic observed by completed model replays.
    pub sim_writebacks: u64,
    /// Model replays abandoned by budget exhaustion or cancellation (the
    /// query answered the replayed prefix's counts, with every unreplayed
    /// access counted as a miss).
    pub sim_exhausted: u64,
    /// Parametric sweeps answered by a certified closed form (see
    /// [`crate::SweepResult`]).
    pub sweeps_fitted: u64,
    /// Parametric sweeps that degraded to direct evaluation.
    pub sweeps_fallback: u64,
    /// Numeric analyses run on behalf of sweeps (samples + fallback
    /// evaluations).
    pub sweep_samples: u64,
    /// Wall time in the lower stage (nest hashing, address affines,
    /// overflow validation).
    pub time_lower: Duration,
    /// Worker-summed time in the reuse stage (vector generation/lookup).
    pub time_reuse: Duration,
    /// Worker-summed time in the solve stage (cold/indeterminate
    /// refinement).
    pub time_solve: Duration,
    /// Wall time in the cascade stage (sharded window scans).
    pub time_cascade: Duration,
    /// Wall time in the classify stage (deterministic result assembly).
    pub time_classify: Duration,
}

impl EngineStats {
    /// Fraction of memo lookups (lower, reuse, solve, scan) answered from
    /// cache; `0.0` when nothing was looked up.
    pub fn memo_hit_rate(&self) -> f64 {
        // Saturating: long-lived sessions (nightly fuzz runs) may drive
        // individual counters arbitrarily high, and a diagnostic ratio
        // must never panic on the sum.
        let hits = self
            .lowered_reused
            .saturating_add(self.reuse_reused)
            .saturating_add(self.cascades_reused)
            .saturating_add(self.scans_reused);
        let total = hits
            .saturating_add(self.lowered_built)
            .saturating_add(self.reuse_built)
            .saturating_add(self.cascades_built)
            .saturating_add(self.scans_executed);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The stats schema: one key per field, under its Rust name, with
    /// durations in seconds. The `stats` op, `perfdump` and `Display` all
    /// print this encoding.
    pub fn to_json(&self) -> Json {
        let secs = |d: Duration| Json::Float(d.as_secs_f64());
        obj([
            ("analyses", Json::UInt(self.analyses)),
            ("passthroughs", Json::UInt(self.passthroughs)),
            ("lowered_built", Json::UInt(self.lowered_built)),
            ("lowered_reused", Json::UInt(self.lowered_reused)),
            ("reuse_built", Json::UInt(self.reuse_built)),
            ("reuse_reused", Json::UInt(self.reuse_reused)),
            ("cascades_built", Json::UInt(self.cascades_built)),
            ("cascades_reused", Json::UInt(self.cascades_reused)),
            ("scans_executed", Json::UInt(self.scans_executed)),
            ("scans_reused", Json::UInt(self.scans_reused)),
            ("scan_points", Json::UInt(self.scan_points)),
            ("scan_blocks", Json::UInt(self.scan_blocks)),
            ("window_steps", Json::UInt(self.window_steps)),
            ("window_rebuilds", Json::UInt(self.window_rebuilds)),
            ("window_rebuild_rows", Json::UInt(self.window_rebuild_rows)),
            ("peak_survivors", Json::UInt(self.peak_survivors)),
            ("scan_sets_dense", Json::UInt(self.scan_sets_dense)),
            ("scan_sets_runs", Json::UInt(self.scan_sets_runs)),
            ("time_scan_shards", secs(self.time_scan_shards)),
            (
                "time_scan_longest_shard",
                secs(self.time_scan_longest_shard),
            ),
            ("time_scan_merge", secs(self.time_scan_merge)),
            ("truncated_points", Json::UInt(self.truncated_points)),
            ("exhausted_analyses", Json::UInt(self.exhausted_analyses)),
            ("worker_panics", Json::UInt(self.worker_panics)),
            ("store_hits", Json::UInt(self.store_hits)),
            ("store_misses", Json::UInt(self.store_misses)),
            ("store_writes", Json::UInt(self.store_writes)),
            ("sim_classifications", Json::UInt(self.sim_classifications)),
            ("sim_accesses", Json::UInt(self.sim_accesses)),
            ("sim_writebacks", Json::UInt(self.sim_writebacks)),
            ("sim_exhausted", Json::UInt(self.sim_exhausted)),
            ("sweeps_fitted", Json::UInt(self.sweeps_fitted)),
            ("sweeps_fallback", Json::UInt(self.sweeps_fallback)),
            ("sweep_samples", Json::UInt(self.sweep_samples)),
            ("time_lower", secs(self.time_lower)),
            ("time_reuse", secs(self.time_reuse)),
            ("time_solve", secs(self.time_solve)),
            ("time_cascade", secs(self.time_cascade)),
            ("time_classify", secs(self.time_classify)),
        ])
    }
}

/// Folds another session's accounting into this one (the `stats` op's
/// totals over evicted sessions): every field sums, except the two peaks,
/// `peak_survivors` and `time_scan_longest_shard`, which keep the max.
impl AddAssign<&EngineStats> for EngineStats {
    fn add_assign(&mut self, other: &EngineStats) {
        self.analyses += other.analyses;
        self.passthroughs += other.passthroughs;
        self.lowered_built += other.lowered_built;
        self.lowered_reused += other.lowered_reused;
        self.reuse_built += other.reuse_built;
        self.reuse_reused += other.reuse_reused;
        self.cascades_built += other.cascades_built;
        self.cascades_reused += other.cascades_reused;
        self.scans_executed += other.scans_executed;
        self.scans_reused += other.scans_reused;
        self.scan_points += other.scan_points;
        self.scan_blocks += other.scan_blocks;
        self.window_steps += other.window_steps;
        self.window_rebuilds += other.window_rebuilds;
        self.window_rebuild_rows += other.window_rebuild_rows;
        self.peak_survivors = self.peak_survivors.max(other.peak_survivors);
        self.scan_sets_dense += other.scan_sets_dense;
        self.scan_sets_runs += other.scan_sets_runs;
        self.time_scan_shards += other.time_scan_shards;
        self.time_scan_longest_shard = self
            .time_scan_longest_shard
            .max(other.time_scan_longest_shard);
        self.time_scan_merge += other.time_scan_merge;
        self.truncated_points += other.truncated_points;
        self.exhausted_analyses += other.exhausted_analyses;
        self.worker_panics += other.worker_panics;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.store_writes += other.store_writes;
        self.sim_classifications += other.sim_classifications;
        self.sim_accesses += other.sim_accesses;
        self.sim_writebacks += other.sim_writebacks;
        self.sim_exhausted += other.sim_exhausted;
        self.sweeps_fitted += other.sweeps_fitted;
        self.sweeps_fallback += other.sweeps_fallback;
        self.sweep_samples += other.sweep_samples;
        self.time_lower += other.time_lower;
        self.time_reuse += other.time_reuse;
        self.time_solve += other.time_solve;
        self.time_cascade += other.time_cascade;
        self.time_classify += other.time_classify;
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json().encode())
    }
}

impl Analyzer {
    /// Snapshot of the session's accounting.
    pub fn stats(&self) -> EngineStats {
        let c = &self.counters;
        let ns = |a: &AtomicU64| Duration::from_nanos(a.load(Ordering::Relaxed));
        EngineStats {
            analyses: c.analyses.load(Ordering::Relaxed),
            passthroughs: c.passthroughs.load(Ordering::Relaxed),
            lowered_built: c.lowered_built.load(Ordering::Relaxed),
            lowered_reused: c.lowered_reused.load(Ordering::Relaxed),
            reuse_built: c.reuse_built.load(Ordering::Relaxed),
            reuse_reused: c.reuse_reused.load(Ordering::Relaxed),
            cascades_built: c.cascades_built.load(Ordering::Relaxed),
            cascades_reused: c.cascades_reused.load(Ordering::Relaxed),
            scans_executed: c.scans_executed.load(Ordering::Relaxed),
            scans_reused: c.scans_reused.load(Ordering::Relaxed),
            scan_points: c.scan_points.load(Ordering::Relaxed),
            scan_blocks: c.scan_blocks.load(Ordering::Relaxed),
            window_steps: c.window_steps.load(Ordering::Relaxed),
            window_rebuilds: c.window_rebuilds.load(Ordering::Relaxed),
            window_rebuild_rows: c.window_rebuild_rows.load(Ordering::Relaxed),
            peak_survivors: c.peak_survivors.load(Ordering::Relaxed),
            scan_sets_dense: c.scan_sets_dense.load(Ordering::Relaxed),
            scan_sets_runs: c.scan_sets_runs.load(Ordering::Relaxed),
            time_scan_shards: ns(&c.scan_shard_busy_ns),
            time_scan_longest_shard: ns(&c.scan_shard_longest_ns),
            time_scan_merge: ns(&c.scan_merge_ns),
            truncated_points: c.truncated_points.load(Ordering::Relaxed),
            exhausted_analyses: c.exhausted_analyses.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            store_hits: c.store_hits.load(Ordering::Relaxed),
            store_misses: c.store_misses.load(Ordering::Relaxed),
            store_writes: c.store_writes.load(Ordering::Relaxed),
            sim_classifications: c.sim_classifications.load(Ordering::Relaxed),
            sim_accesses: c.sim_accesses.load(Ordering::Relaxed),
            sim_writebacks: c.sim_writebacks.load(Ordering::Relaxed),
            sim_exhausted: c.sim_exhausted.load(Ordering::Relaxed),
            sweeps_fitted: c.sweeps_fitted.load(Ordering::Relaxed),
            sweeps_fallback: c.sweeps_fallback.load(Ordering::Relaxed),
            sweep_samples: c.sweep_samples.load(Ordering::Relaxed),
            time_lower: ns(&c.lower_ns),
            time_reuse: ns(&c.reuse_ns),
            time_solve: ns(&c.solve_ns),
            time_cascade: ns(&c.cascade_ns),
            time_classify: ns(&c.classify_ns),
        }
    }
}
