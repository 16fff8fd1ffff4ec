//! Closed-form parametric sweeps: miss counts as certified
//! quasi-polynomials of one layout parameter (Section 5.1.3).
//!
//! The paper's endgame replaces per-candidate re-analysis with an
//! Ehrhart-style closed form: the miss count as a function of a symbolic
//! layout parameter, minimized analytically. This module builds that path
//! on top of the staged pipeline. Given a nest and a declared
//! [`SweepParameter`], [`Analyzer::sweep`]:
//!
//! 1. derives candidate periods from the cache geometry — shifting a base
//!    address by the way span `Cs/k` (in elements) maps every access to
//!    the same cache set and line offset, so the miss count as a function
//!    of a base shift, inter-array pad, or leading dimension is *exactly*
//!    periodic with a period dividing the way span over the sweep's step
//!    lattice;
//! 2. drives [`Analyzer::try_analyze_batch`] to sample one full period
//!    plus a verification window under the session governor;
//! 3. fits an eventually periodic quasi-polynomial
//!    ([`cme_math::quasipoly::fit_eventually_periodic`]) and returns it
//!    with its exact-fit [`FitCertificate`] inside a [`SweepResult`] —
//!    the whole candidate range then costs O(samples) numeric analyses
//!    instead of O(range);
//! 4. degrades to exhaustive batched evaluation when no model fits (or
//!    when any sample came back budget-exhausted — a truncated sample is
//!    a sound overcount, never fit material).
//!
//! Fitted functions are memoized in the session and persisted through the
//! artifact store under a sweep key ([`crate::store::SweepRecord`]).
//! Results that involved *any* degraded sample are neither memoized nor
//! persisted. `cme-diffcheck` replays every fitted function against the
//! numeric engine at adversarial points (period boundaries, onset edge,
//! range endpoints, random interior) and flags divergence as a
//! first-class soundness violation.

use super::{keys, Analyzer};
use crate::governor::AnalysisError;
use crate::solve::NestAnalysis;
use crate::store::{options_fingerprint, ArtifactKey, SweepRecord};
use cme_cache::CacheConfig;
use cme_ir::{ArrayId, KeyHasher, LoopNest};
use cme_math::gcd::gcd;
use cme_math::quasipoly::{fit_eventually_periodic, FitCertificate, QuasiPolynomial, TieBreak};
use std::fmt;
use std::sync::atomic::Ordering;

/// The layout parameter a sweep ranges over. Candidate `k` of a
/// [`SweepRequest`] is the nest with the parameter set to
/// `start + k·step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepParameter {
    /// Shift `array`'s base address by the parameter value (elements),
    /// leaving every other array in place — the paper's inter-variable
    /// spacing `|B_X − B_Y|`.
    BaseSpacing {
        /// The array whose base is shifted.
        array: ArrayId,
    },
    /// Insert the parameter value (bytes, truncated to whole elements) of
    /// padding after `after`: every array whose base lies above it shifts
    /// up together, preserving their relative spacings.
    PadBytes {
        /// The array the padding is inserted after.
        after: ArrayId,
    },
    /// Grow `array`'s leading dimension (column size) to the parameter
    /// value — intra-variable padding. Values below the declared column
    /// size are infeasible.
    LeadingDimension {
        /// The rank-2 array whose column is padded.
        array: ArrayId,
    },
    /// Tile loop `level` of the nest with the parameter value as the tile
    /// size ([`cme_ir::transform::tile_nest`]). Unlike the layout
    /// parameters, tile-size periodicity is *heuristic* (small candidate
    /// periods, no geometric guarantee): fits are still certified against
    /// the sample window, and the differential tier cross-validates them.
    TileSize {
        /// The loop level (outermost = 0) to tile.
        level: usize,
    },
}

impl SweepParameter {
    /// Applies the parameter at `value` to a clone of the nest. `None`
    /// means the value is infeasible for this nest (shrinking a column,
    /// a non-dividing tile size, an unknown array, a negative shift).
    pub fn apply(&self, nest: &LoopNest, cache: &CacheConfig, value: i64) -> Option<LoopNest> {
        match *self {
            SweepParameter::BaseSpacing { array } => {
                if value < 0 || array.index() >= nest.arrays().len() {
                    return None;
                }
                let mut out = nest.clone();
                let base = out.array(array).base();
                out.array_mut(array).set_base(base.checked_add(value)?);
                Some(out)
            }
            SweepParameter::PadBytes { after } => {
                if value < 0 || after.index() >= nest.arrays().len() {
                    return None;
                }
                let elems = value / cache.elem_bytes();
                let mut out = nest.clone();
                let pivot = out.array(after).base();
                for id in used_arrays(nest) {
                    let base = out.array(id).base();
                    if base > pivot {
                        out.array_mut(id).set_base(base.checked_add(elems)?);
                    }
                }
                Some(out)
            }
            SweepParameter::LeadingDimension { array } => {
                if array.index() >= nest.arrays().len() {
                    return None;
                }
                let mut out = nest.clone();
                let a = out.array_mut(array);
                if a.rank() != 2 || value < a.column_size() {
                    return None;
                }
                a.pad_column_to(value);
                Some(out)
            }
            SweepParameter::TileSize { level } => {
                if value < 1 || level >= nest.depth() {
                    return None;
                }
                cme_ir::transform::tile_nest(nest, &[(level, value)]).ok()
            }
        }
    }

    /// The geometric period of the miss function in raw parameter units,
    /// when one is guaranteed: shifting any base by the way span `Cs/k`
    /// elements preserves every set index and line offset, so base
    /// shifts, pads, and leading-dimension changes are exactly periodic.
    /// Tile size has no such guarantee (`None` → heuristic periods).
    fn raw_period(&self, cache: &CacheConfig) -> Option<i64> {
        match self {
            SweepParameter::BaseSpacing { .. } | SweepParameter::LeadingDimension { .. } => {
                Some(cache.way_span_elems())
            }
            SweepParameter::PadBytes { .. } => Some(cache.way_span_elems() * cache.elem_bytes()),
            SweepParameter::TileSize { .. } => None,
        }
    }

    fn feed_key(&self, h: &mut KeyHasher) {
        match *self {
            SweepParameter::BaseSpacing { array } => h.feed(&0u8).feed(&array.index()),
            SweepParameter::PadBytes { after } => h.feed(&1u8).feed(&after.index()),
            SweepParameter::LeadingDimension { array } => h.feed(&2u8).feed(&array.index()),
            SweepParameter::TileSize { level } => h.feed(&3u8).feed(&level),
        };
    }
}

impl fmt::Display for SweepParameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepParameter::BaseSpacing { array } => write!(f, "base-spacing({array})"),
            SweepParameter::PadBytes { after } => write!(f, "pad-bytes(after {after})"),
            SweepParameter::LeadingDimension { array } => {
                write!(f, "leading-dimension({array})")
            }
            SweepParameter::TileSize { level } => write!(f, "tile-size(level {level})"),
        }
    }
}

/// Which miss count the sweep's function models and minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepMetric {
    /// Total misses (cold + replacement) summed over all references.
    #[default]
    TotalMisses,
    /// Replacement misses only — the quantity the padding search ranks by.
    ReplacementMisses,
}

impl SweepMetric {
    fn of(&self, analysis: &NestAnalysis) -> u64 {
        match self {
            SweepMetric::TotalMisses => analysis.total_misses(),
            SweepMetric::ReplacementMisses => analysis.total_replacement(),
        }
    }
}

/// One parametric sweep: candidate `k ∈ 0..count` is the nest with
/// `parameter = start + k·step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepRequest {
    /// The parameter swept.
    pub parameter: SweepParameter,
    /// Parameter value of candidate 0.
    pub start: i64,
    /// Number of candidates.
    pub count: usize,
    /// Raw-unit increment between consecutive candidates (≥ 1).
    pub step: i64,
    /// The miss count being modeled.
    pub metric: SweepMetric,
    /// When no model fits: `true` evaluates every candidate in governed
    /// batches (the sound, slow path); `false` returns the best among the
    /// samples already taken, flagged [`SweepResult::fallback`] — for
    /// callers (the padding search) that treat the sweep as an optional
    /// refinement.
    pub exhaustive_fallback: bool,
}

impl SweepRequest {
    /// A total-miss sweep with exhaustive fallback enabled.
    pub fn new(parameter: SweepParameter, start: i64, count: usize, step: i64) -> Self {
        SweepRequest {
            parameter,
            start,
            count,
            step,
            metric: SweepMetric::TotalMisses,
            exhaustive_fallback: true,
        }
    }

    /// The raw parameter value of candidate `k`.
    pub fn value_at(&self, k: usize) -> i64 {
        self.start + k as i64 * self.step
    }

    /// The sweep's identity for memoization and persistence: everything
    /// the result depends on besides the nest and session already pinned
    /// by the [`ArtifactKey`].
    pub fn fingerprint(&self) -> u128 {
        let mut h = KeyHasher::new(0x5e37);
        self.parameter.feed_key(&mut h);
        h.feed(&self.start)
            .feed(&self.count)
            .feed(&self.step)
            .feed(&matches!(self.metric, SweepMetric::ReplacementMisses));
        h.finish()
    }
}

/// The answer to a parametric sweep.
///
/// On the closed-form path, `function` maps the candidate index `k` (not
/// the raw value — divide out `step` first) to the metric, `certificate`
/// records the sample window backing it, and `best_*` is its exact
/// argmin over `0..count` (ties to the smallest parameter). On the
/// fallback path `function` is `None` and `best_*` comes from direct
/// evaluation, ranked with the degraded-last policy: complete scores
/// outrank budget-exhausted ones, which outrank failed candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepResult {
    /// The fitted miss function of the candidate index, when one fit.
    pub function: Option<QuasiPolynomial>,
    /// The exact-fit certificate backing `function`.
    pub certificate: Option<FitCertificate>,
    /// Whether the sweep degraded to direct evaluation.
    pub fallback: bool,
    /// Candidates in the requested range.
    pub candidates: usize,
    /// Numeric analyses actually run.
    pub evaluations: usize,
    /// Samples or candidates that came back budget-exhausted (their
    /// scores are sound overcounts; such sweeps are never fitted,
    /// memoized, or persisted).
    pub degraded: usize,
    /// Candidates that were infeasible or failed to analyze.
    pub failed: usize,
    /// Candidate index (`0..candidates`) minimizing the metric.
    pub best_k: usize,
    /// Raw parameter value minimizing the metric.
    pub best_value: i64,
    /// The metric at `best_value` (an overcount if that score degraded).
    pub best_misses: u64,
    /// Whether this result was answered from the session sweep memo.
    pub memo_hit: bool,
    /// Whether this result was answered from the persistent store.
    pub store_hit: bool,
}

impl SweepResult {
    /// Numeric analyses the closed form saved versus exhaustive
    /// evaluation of the range.
    pub fn evaluations_saved(&self) -> usize {
        self.candidates.saturating_sub(self.evaluations)
    }
}

impl fmt::Display for SweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(cert) = &self.certificate {
            write!(
                f,
                "closed form ({cert}) over {} candidates in {} analyses; best {} -> {}",
                self.candidates, self.evaluations, self.best_value, self.best_misses
            )?;
        } else {
            write!(
                f,
                "fallback over {} candidates in {} analyses; best {} -> {}",
                self.candidates, self.evaluations, self.best_value, self.best_misses
            )?;
        }
        if self.degraded > 0 || self.failed > 0 {
            write!(f, " [{} degraded, {} failed]", self.degraded, self.failed)?;
        }
        Ok(())
    }
}

/// Distinct referenced arrays (declaration order).
fn used_arrays(nest: &LoopNest) -> Vec<ArrayId> {
    let mut ids: Vec<ArrayId> = Vec::new();
    for r in nest.references() {
        if !ids.contains(&r.array()) {
            ids.push(r.array());
        }
    }
    ids
}

/// Candidate periods over the sweep's step lattice, smallest first. For
/// geometric parameters every divisor of `raw/gcd(raw, step)` is sound
/// (the true period divides it, and all samples are verified); tile-size
/// sweeps try small heuristic periods instead.
fn period_candidates(
    parameter: &SweepParameter,
    cache: &CacheConfig,
    step: i64,
    count: usize,
) -> Vec<usize> {
    let pk = match parameter.raw_period(cache) {
        Some(raw) => raw / gcd(raw, step),
        // Heuristic: tile-size functions are usually low-period; cap the
        // largest candidate so sampling stays a fraction of the range.
        None => ((count / 4).max(1).next_power_of_two().min(64)) as i64,
    };
    let pk = pk.max(1) as usize;
    let mut divisors: Vec<usize> = (1..=pk)
        .filter(|&d| pk.is_multiple_of(d))
        .take(64)
        .collect();
    divisors.sort_unstable();
    divisors
}

/// Verification window beyond the period: enough extra samples to expose
/// onset effects and give every residue class a margin.
fn verification_window(p_max: usize) -> usize {
    (p_max / 4).clamp(1, 64)
}

impl Analyzer {
    /// Answers a parametric sweep in closed form: samples one period plus
    /// a verification window, fits a certified quasi-polynomial, and
    /// minimizes it analytically — falling back to exhaustive batched
    /// evaluation (per [`SweepRequest::exhaustive_fallback`]) when no
    /// model fits. See the module docs for the full contract.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the underlying batched analyses
    /// (worker panic, address overflow); the session stays usable.
    ///
    /// # Panics
    ///
    /// Panics if `request.count == 0` or `request.step < 1`.
    pub fn sweep(
        &mut self,
        nest: &LoopNest,
        request: &SweepRequest,
    ) -> Result<SweepResult, AnalysisError> {
        assert!(request.count >= 1, "sweep needs at least one candidate");
        assert!(request.step >= 1, "sweep step must be positive");
        let cache = *self.cache();
        let hashes = keys::nest_hashes(nest);
        let key = self.sweep_key(hashes, request);

        if let Some(key) = key {
            if let Some(cached) = self.sweep_memo.get(&key) {
                self.counters
                    .sweep_memo_hits
                    .fetch_add(1, Ordering::Relaxed);
                let mut hit = cached.clone();
                hit.memo_hit = true;
                return Ok(hit);
            }
            if let Some(record) = self.consult_sweep_store(hashes, request) {
                if let Some(result) = self.rehydrate(record, request) {
                    self.sweep_memo.insert(key, result.clone());
                    return Ok(result);
                }
            }
        }

        let periods = period_candidates(&request.parameter, &cache, request.step, request.count);
        let p_max = periods.last().copied().unwrap_or(0);
        let w = verification_window(p_max);
        let stage1 = request.count.min(2 * p_max + w);
        let stage2 = request.count.min(4 * p_max + w);

        let mut scores: Vec<(u64, bool)> = Vec::new(); // (metric, degraded)
        let mut failed = 0usize;
        let feasible = self.sample_range(nest, &cache, request, 0, stage1, &mut scores)?;
        let mut degraded = scores.iter().filter(|(_, d)| *d).count();

        if feasible && degraded == 0 && p_max > 0 {
            for attempt in 0..2 {
                if attempt == 1 {
                    if stage2 <= scores.len() {
                        break;
                    }
                    let more = self.sample_range(
                        nest,
                        &cache,
                        request,
                        scores.len(),
                        stage2,
                        &mut scores,
                    )?;
                    degraded = scores.iter().filter(|(_, d)| *d).count();
                    if !more || degraded > 0 {
                        break;
                    }
                }
                let samples: Option<Vec<i64>> =
                    scores.iter().map(|&(v, _)| i64::try_from(v).ok()).collect();
                let Some(samples) = samples else { break };
                if let Ok((function, certificate)) = fit_eventually_periodic(&samples, &periods, w)
                {
                    let hi = request.count as i64 - 1;
                    let (best_k, best) = function.argmin_with(0..=hi, TieBreak::SmallestParameter);
                    let result = SweepResult {
                        best_value: request.value_at(best_k as usize),
                        best_misses: best as u64,
                        function: Some(function),
                        certificate: Some(certificate),
                        fallback: false,
                        candidates: request.count,
                        evaluations: scores.len(),
                        degraded: 0,
                        failed: 0,
                        best_k: best_k as usize,
                        memo_hit: false,
                        store_hit: false,
                    };
                    self.counters.sweeps_fitted.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .sweep_samples
                        .fetch_add(result.evaluations as u64, Ordering::Relaxed);
                    if let Some(key) = key {
                        self.persist_sweep(hashes, request, &result);
                        self.sweep_memo.insert(key, result.clone());
                    }
                    return Ok(result);
                }
            }
        }

        // Fallback: direct evaluation — the whole range when requested,
        // otherwise just the samples in hand. Degraded-last ranking:
        // complete scores outrank exhausted overcounts, which outrank
        // failures; ties to the smallest parameter.
        if request.exhaustive_fallback {
            let mut from = scores.len();
            while from < request.count {
                let to = request.count.min(from + 512);
                self.sample_range(nest, &cache, request, from, to, &mut scores)?;
                from = to;
            }
            degraded = scores.iter().filter(|(_, d)| *d).count();
        }
        let mut best: Option<(u8, u64, usize)> = None; // (rank, score, k)
        for (k, &(score, was_degraded)) in scores.iter().enumerate() {
            let rank = if score == u64::MAX {
                failed += 1;
                2u8
            } else {
                u8::from(was_degraded)
            };
            let cand = (rank, score, k);
            if best.map(|b| cand < b).unwrap_or(true) {
                best = Some(cand);
            }
        }
        let (_, best_misses, best_k) = best.unwrap_or((2, u64::MAX, 0));
        self.counters
            .sweeps_fallback
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .sweep_samples
            .fetch_add(scores.len() as u64, Ordering::Relaxed);
        Ok(SweepResult {
            function: None,
            certificate: None,
            fallback: true,
            candidates: request.count,
            evaluations: scores.len(),
            degraded,
            failed,
            best_value: request.value_at(best_k),
            best_misses,
            best_k,
            memo_hit: false,
            store_hit: false,
        })
    }

    /// Analyzes candidates `from..to` in one governed batch, appending
    /// `(metric, degraded)` per candidate (`u64::MAX` for infeasible
    /// values). Returns whether every candidate was feasible.
    fn sample_range(
        &mut self,
        nest: &LoopNest,
        cache: &CacheConfig,
        request: &SweepRequest,
        from: usize,
        to: usize,
        scores: &mut Vec<(u64, bool)>,
    ) -> Result<bool, AnalysisError> {
        let mut live: Vec<LoopNest> = Vec::with_capacity(to - from);
        let mut slots: Vec<bool> = Vec::with_capacity(to - from); // feasible?
        for k in from..to {
            let candidate = request.parameter.apply(nest, cache, request.value_at(k));
            slots.push(candidate.is_some());
            live.extend(candidate);
        }
        let feasible = slots.iter().all(|&ok| ok);
        let mut governed = self.try_analyze_batch(&live)?.into_iter();
        for ok in slots {
            let governed = if ok { governed.next() } else { None };
            scores.push(match governed {
                Some(g) => (request.metric.of(&g.analysis), g.outcome.is_exhausted()),
                None => (u64::MAX, false),
            });
        }
        Ok(feasible)
    }

    /// The session memo key, or `None` when the session's caching is off
    /// (a sweep on an uncached session is a true recompute).
    fn sweep_key(
        &self,
        (structural, layout): (u128, u128),
        request: &SweepRequest,
    ) -> Option<u128> {
        if !self.caching {
            return None;
        }
        let mut h = KeyHasher::new(0x5eed);
        h.feed(&structural)
            .feed(&layout)
            .feed(&options_fingerprint(self.current_options()))
            .feed(&request.fingerprint());
        let cache = self.cache;
        h.feed(&cache.size_bytes())
            .feed(&cache.assoc())
            .feed(&cache.line_bytes())
            .feed(&cache.elem_bytes());
        Some(h.finish())
    }

    fn sweep_artifact_key(&self, (structural, layout): (u128, u128)) -> ArtifactKey {
        ArtifactKey::new(structural, layout, &self.cache, self.current_options())
    }

    fn consult_sweep_store(
        &self,
        hashes: (u128, u128),
        request: &SweepRequest,
    ) -> Option<SweepRecord> {
        let store = self.store.as_ref()?;
        store.get_sweep(&self.sweep_artifact_key(hashes), request.fingerprint())
    }

    /// Rebuilds a [`SweepResult`] from a persisted record, recomputing the
    /// argmin (closed-form, cheap) instead of trusting a stored optimum.
    fn rehydrate(&self, record: SweepRecord, request: &SweepRequest) -> Option<SweepResult> {
        let function = record.function()?;
        let certificate = record.certificate();
        let hi = request.count as i64 - 1;
        let (best_k, best) = function.argmin_with(0..=hi, TieBreak::SmallestParameter);
        self.counters.sweeps_fitted.fetch_add(1, Ordering::Relaxed);
        Some(SweepResult {
            best_value: request.value_at(best_k as usize),
            best_misses: best as u64,
            function: Some(function),
            certificate: Some(certificate),
            fallback: false,
            candidates: request.count,
            evaluations: record.evaluations as usize,
            degraded: 0,
            failed: 0,
            best_k: best_k as usize,
            memo_hit: false,
            store_hit: true,
        })
    }

    /// Write-through of a *fitted, complete* sweep. Fallback and degraded
    /// results never reach this point.
    fn persist_sweep(&self, hashes: (u128, u128), request: &SweepRequest, result: &SweepResult) {
        let key = self.sweep_artifact_key(hashes);
        if let (Some(store), Some(function), Some(cert)) =
            (&self.store, &result.function, &result.certificate)
        {
            let record = SweepRecord::new(function, cert, result.evaluations as u64);
            store.put_sweep(&key, request.fingerprint(), &record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::Budget;
    use crate::store::ArtifactStore;
    use cme_ir::{AccessKind, NestBuilder};
    use std::sync::Arc;

    /// Two arrays streamed in lockstep: the miss count is a pure function
    /// of their base spacing modulo the way span, with heavy conflict
    /// misses when the spacing aligns their lines onto the same sets.
    fn spacing_nest(gap: i64) -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 0, 64);
        let a = b.array("A", &[64], 0);
        let c = b.array("B", &[64], gap);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.reference(c, AccessKind::Read, &[("i", 0)]);
        b.build().expect("valid nest")
    }

    fn second_array(nest: &LoopNest) -> ArrayId {
        used_arrays(nest)[1]
    }

    fn small_cache() -> CacheConfig {
        CacheConfig::new(1024, 1, 32, 4).expect("valid config")
    }

    #[test]
    fn closed_form_matches_exhaustive_bit_identically() {
        let nest = spacing_nest(256);
        let param = SweepParameter::BaseSpacing {
            array: second_array(&nest),
        };
        let request = SweepRequest::new(param, 0, 128, 8);

        let mut swept = Analyzer::new(small_cache());
        let result = swept.sweep(&nest, &request).expect("sweep");
        let function = result.function.as_ref().expect("fit");
        assert!(!result.fallback);
        assert!(result.certificate.is_some(), "fit must carry a certificate");
        assert!(result.evaluations < request.count);

        let mut exhaustive = Analyzer::new(small_cache());
        let mut best = None;
        for k in 0..request.count {
            let candidate = param
                .apply(&nest, &small_cache(), request.value_at(k))
                .expect("feasible");
            let misses = exhaustive.analyze(&candidate).total_misses();
            assert_eq!(
                function.eval(k as i64),
                misses as i64,
                "closed form diverges at k={k}"
            );
            if best.map(|(m, _)| misses < m).unwrap_or(true) {
                best = Some((misses, request.value_at(k)));
            }
        }
        let (best_misses, best_value) = best.expect("non-empty range");
        assert_eq!(result.best_misses, best_misses);
        assert_eq!(result.best_value, best_value);
    }

    #[test]
    fn repeated_sweeps_hit_the_session_memo() {
        let nest = spacing_nest(300);
        let request = SweepRequest::new(
            SweepParameter::BaseSpacing {
                array: second_array(&nest),
            },
            0,
            64,
            8,
        );
        let mut analyzer = Analyzer::new(small_cache());
        let first = analyzer.sweep(&nest, &request).expect("sweep");
        assert!(!first.memo_hit);
        let second = analyzer.sweep(&nest, &request).expect("sweep");
        assert!(second.memo_hit);
        assert_eq!(first.function, second.function);
        assert_eq!(first.best_value, second.best_value);
        assert_eq!(analyzer.stats().sweep_memo_hits, 1);
    }

    #[test]
    fn truncated_sweeps_fall_back_and_are_never_memoized() {
        let nest = spacing_nest(256);
        let request = SweepRequest::new(
            SweepParameter::BaseSpacing {
                array: second_array(&nest),
            },
            0,
            32,
            8,
        );
        let mut analyzer =
            Analyzer::new(small_cache()).budget(Budget::unlimited().with_max_points(1));
        let result = analyzer.sweep(&nest, &request).expect("sweep");
        assert!(result.fallback, "a truncated sweep must not ship a fit");
        assert!(result.function.is_none());
        assert!(result.degraded > 0);
        assert!(
            analyzer.sweep_memo.is_empty(),
            "degraded results are not memoized"
        );
        let again = analyzer.sweep(&nest, &request).expect("sweep");
        assert!(!again.memo_hit);
        assert_eq!(analyzer.stats().sweeps_fallback, 2);
    }

    #[test]
    fn fitted_sweeps_persist_and_rehydrate_across_sessions() {
        let dir = std::env::temp_dir().join(format!("cme-sweep-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).expect("open store"));
        let nest = spacing_nest(256);
        let request = SweepRequest::new(
            SweepParameter::BaseSpacing {
                array: second_array(&nest),
            },
            0,
            96,
            8,
        );

        let mut first = Analyzer::new(small_cache()).store(Arc::clone(&store));
        let fitted = first.sweep(&nest, &request).expect("sweep");
        assert!(!fitted.fallback && !fitted.store_hit);

        let mut second = Analyzer::new(small_cache()).store(Arc::clone(&store));
        let rehydrated = second.sweep(&nest, &request).expect("sweep");
        assert!(
            rehydrated.store_hit,
            "second session answers from the store"
        );
        assert_eq!(rehydrated.function, fitted.function);
        assert_eq!(rehydrated.best_value, fitted.best_value);
        assert_eq!(rehydrated.best_misses, fitted.best_misses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn infeasible_candidates_force_the_fallback_path() {
        // Tile sizes that do not divide the trip count are infeasible, so
        // the sweep cannot fit and must evaluate directly.
        let mut b = NestBuilder::new();
        b.ct_loop("i", 0, 15); // 16 trips: tiles 2 and 4 divide, 3/5/6/7 do not
        b.ct_loop("j", 0, 15);
        let a = b.array("A", &[16, 16], 0);
        b.reference(a, AccessKind::Read, &[("i", 0), ("j", 0)]);
        let nest = b.build().expect("valid nest");
        let request = SweepRequest::new(SweepParameter::TileSize { level: 0 }, 2, 6, 1);
        let mut analyzer = Analyzer::new(small_cache());
        let result = analyzer.sweep(&nest, &request).expect("sweep");
        assert!(result.fallback);
        assert!(result.failed > 0, "non-dividing tiles count as failed");
        assert!(result.best_misses < u64::MAX, "some tile size is feasible");
    }

    #[test]
    fn sampled_fallback_skips_the_tail_when_exhaustive_is_off() {
        let nest = spacing_nest(256);
        let mut request = SweepRequest::new(
            SweepParameter::BaseSpacing {
                array: second_array(&nest),
            },
            0,
            4096,
            1,
        );
        request.exhaustive_fallback = false;
        let mut analyzer =
            Analyzer::new(small_cache()).budget(Budget::unlimited().with_max_points(1));
        let result = analyzer.sweep(&nest, &request).expect("sweep");
        assert!(result.fallback);
        assert!(
            result.evaluations < request.count,
            "sampled fallback must not evaluate the whole range"
        );
    }
}
