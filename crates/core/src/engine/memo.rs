//! The session's four memo tables — lower, reuse, solve set, scan — with
//! their capacity policy.
//!
//! Every table maps a 128-bit invalidation key (see [`super::keys`]) to a
//! shared, immutable artifact; the lower table's key is the nest's
//! structural and layout hash pair, so a long-lived session keeps no nest
//! it has seen. When a table reaches its cap it is cleared wholesale —
//! crude, but the values are shared, so in-flight users are unaffected,
//! and the caps are sized so a full optimizer search fits: a padding
//! search visits tens of candidate layouts, each contributing one scan
//! entry per (reference × vector) and one solve set per distinct
//! destination line offset — the scan table is the big one (small
//! entries: a few counters plus the miss indices), the others stay tiny.
//! The lower table shares the reuse table's cap.
//!
//! Truncated artifacts (a governor stopped the work early) are sound
//! overcounts for *one* query, not exact results: they are returned to the
//! caller but never stored.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use cme_ir::LoopNest;

use crate::governor::AnalysisError;

use super::keys;
use super::stages::cascade::CascadeResult;
use super::stages::lower::{self, LoweredNest};
use super::stages::reuse::ReusePlan;
use super::stages::solve::SolveSet;
use super::Analyzer;

pub(crate) const REUSE_CAP: usize = 4096;
pub(crate) const CASCADE_CAP: usize = 4096;
pub(crate) const SCAN_CAP: usize = 1 << 17;

/// Locks a mutex, recovering from poisoning: every value behind the
/// engine's locks is either an `Arc`-shared immutable snapshot or a plain
/// accumulator written in one statement, so a panic elsewhere cannot leave
/// it half-updated — recovering keeps the *session* usable after a worker
/// panic fails one query.
pub(crate) fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Analyzer {
    /// The lower-stage artifact of `nest`, memoized under its `(structural,
    /// layout)` hash pair. With caching off the artifact is rebuilt every
    /// query, like every other stage.
    pub(crate) fn lookup_lowered(
        &self,
        nest: &LoopNest,
        hashes: (u128, u128),
    ) -> Result<Arc<LoweredNest>, AnalysisError> {
        let key = self.caching.then(|| keys::lower_key(hashes));
        if let Some(l) = key.and_then(|k| relock(&self.lower_memo).get(&k).cloned()) {
            self.counters.lowered_reused.fetch_add(1, Ordering::Relaxed);
            return Ok(l);
        }
        let l = Arc::new(lower::lower(nest)?);
        self.counters.lowered_built.fetch_add(1, Ordering::Relaxed);
        if let Some(key) = key {
            let mut map = relock(&self.lower_memo);
            if map.len() >= REUSE_CAP {
                map.clear();
            }
            map.insert(key, l.clone());
        }
        Ok(l)
    }

    /// The reuse plan under `key`, built (and stored) on a miss; `None`
    /// (nest not memoized) always builds and stores nothing.
    pub(crate) fn lookup_reuse(
        &self,
        key: Option<u128>,
        build: impl FnOnce() -> ReusePlan,
    ) -> ReusePlan {
        if let Some(v) = key.and_then(|k| relock(&self.reuse_memo).get(&k).cloned()) {
            self.counters.reuse_reused.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        let v = build();
        self.counters.reuse_built.fetch_add(1, Ordering::Relaxed);
        let Some(key) = key else {
            return v;
        };
        let mut map = relock(&self.reuse_memo);
        if map.len() >= REUSE_CAP {
            map.clear();
        }
        map.insert(key, v.clone());
        v
    }

    /// The solve set under `key`, like [`Analyzer::lookup_reuse`]; a
    /// truncated set is never stored.
    pub(crate) fn lookup_cascade(
        &self,
        key: Option<u128>,
        build: impl FnOnce() -> SolveSet,
    ) -> Arc<SolveSet> {
        if let Some(c) = key.and_then(|k| relock(&self.cascade_memo).get(&k).cloned()) {
            self.counters
                .cascades_reused
                .fetch_add(1, Ordering::Relaxed);
            return c;
        }
        let c = Arc::new(build());
        self.counters.cascades_built.fetch_add(1, Ordering::Relaxed);
        // A truncated solve set is a sound overcount for *this* query
        // only; memoizing it would degrade future full-budget runs.
        let Some(key) = key.filter(|_| !c.truncated) else {
            return c;
        };
        let mut map = relock(&self.cascade_memo);
        if map.len() >= CASCADE_CAP {
            map.clear();
        }
        map.insert(key, c.clone());
        c
    }

    pub(crate) fn peek_scan(&self, key: u128) -> Option<Arc<CascadeResult>> {
        let hit = relock(&self.scan_memo).get(&key).cloned();
        if hit.is_some() {
            self.counters.scans_reused.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    pub(crate) fn store_scan(&self, key: u128, outcome: Arc<CascadeResult>) {
        self.counters.scans_executed.fetch_add(1, Ordering::Relaxed);
        let mut map = relock(&self.scan_memo);
        if map.len() >= SCAN_CAP {
            map.clear();
        }
        map.insert(key, outcome);
    }
}
