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
//! A sweep keeps no cache of its own: every sample runs through the
//! session's pipeline memos and, when one is attached, the artifact
//! store's analysis entries, so a repeated sweep re-fits from warm
//! samples. `cme-diffcheck` replays every fitted function against the
//! numeric engine at adversarial points (period boundaries, onset edge,
//! range endpoints, random interior) and flags divergence as a
//! first-class soundness violation.

use super::Analyzer;
use crate::governor::AnalysisError;
use crate::solve::NestAnalysis;
use cme_cache::CacheConfig;
use cme_ir::{ArrayId, LoopNest};
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
}

impl SweepParameter {
    /// Applies the parameter at `value` to a clone of the nest. `None`
    /// means the value is infeasible for this nest (shrinking a column,
    /// an unknown array, a negative shift).
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
        }
    }

    /// The geometric period of the miss function in raw parameter units:
    /// shifting any base by the way span `Cs/k` elements preserves every
    /// set index and line offset, so base shifts, pads, and
    /// leading-dimension changes are exactly periodic.
    fn raw_period(&self, cache: &CacheConfig) -> i64 {
        match self {
            SweepParameter::BaseSpacing { .. } | SweepParameter::LeadingDimension { .. } => {
                cache.way_span_elems()
            }
            SweepParameter::PadBytes { .. } => cache.way_span_elems() * cache.elem_bytes(),
        }
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
    /// scores are sound overcounts; such sweeps are never fitted).
    pub degraded: usize,
    /// Candidates that were infeasible or failed to analyze.
    pub failed: usize,
    /// Candidate index (`0..candidates`) minimizing the metric.
    pub best_k: usize,
    /// Raw parameter value minimizing the metric.
    pub best_value: i64,
    /// The metric at `best_value` (an overcount if that score degraded).
    pub best_misses: u64,
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

/// Candidate periods over the sweep's step lattice, smallest first: every
/// divisor of `raw/gcd(raw, step)` is sound (the true period divides it,
/// and all samples are verified).
fn period_candidates(parameter: &SweepParameter, cache: &CacheConfig, step: i64) -> Vec<usize> {
    let raw = parameter.raw_period(cache);
    let pk = (raw / gcd(raw, step)).max(1) as usize;
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
        &self,
        nest: &LoopNest,
        request: &SweepRequest,
    ) -> Result<SweepResult, AnalysisError> {
        assert!(request.count >= 1, "sweep needs at least one candidate");
        assert!(request.step >= 1, "sweep step must be positive");
        let cache = *self.cache();
        let periods = period_candidates(&request.parameter, &cache, request.step);
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
                    };
                    self.counters.sweeps_fitted.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .sweep_samples
                        .fetch_add(result.evaluations as u64, Ordering::Relaxed);
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
        })
    }

    /// Analyzes candidates `from..to` in one governed batch, appending
    /// `(metric, degraded)` per candidate (`u64::MAX` for infeasible
    /// values). Returns whether every candidate was feasible.
    fn sample_range(
        &self,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::Budget;
    use cme_ir::{AccessKind, NestBuilder};

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

        let swept = Analyzer::new(small_cache());
        let result = swept.sweep(&nest, &request).expect("sweep");
        let function = result.function.as_ref().expect("fit");
        assert!(!result.fallback);
        assert!(result.certificate.is_some(), "fit must carry a certificate");
        assert!(result.evaluations < request.count);

        let exhaustive = Analyzer::new(small_cache());
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
        let analyzer = Analyzer::new(small_cache()).budget(Budget::unlimited().with_max_points(1));
        let result = analyzer.sweep(&nest, &request).expect("sweep");
        assert!(result.fallback, "a truncated sweep must not ship a fit");
        assert!(result.function.is_none());
        assert!(result.degraded > 0);
        let again = analyzer.sweep(&nest, &request).expect("sweep");
        assert_eq!(again, result, "a repeat recomputes the same fallback");
        assert_eq!(analyzer.stats().sweeps_fallback, 2);
    }

    #[test]
    fn infeasible_candidates_force_the_fallback_path() {
        // Leading dimensions below the declared column (16) are
        // infeasible, so the sweep cannot fit and must evaluate directly.
        let mut b = NestBuilder::new();
        b.ct_loop("i", 0, 15).ct_loop("j", 0, 15);
        let a = b.array("A", &[16, 16], 0);
        b.reference(a, AccessKind::Read, &[("i", 0), ("j", 0)]);
        let nest = b.build().expect("valid nest");
        let request = SweepRequest::new(SweepParameter::LeadingDimension { array: a }, 14, 6, 1);
        let result = Analyzer::new(small_cache())
            .sweep(&nest, &request)
            .expect("sweep");
        assert!(result.fallback);
        assert_eq!(result.failed, 2, "columns 14 and 15 are infeasible");
        assert!(result.best_misses < u64::MAX, "columns 16.. are feasible");
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
        let analyzer = Analyzer::new(small_cache()).budget(Budget::unlimited().with_max_points(1));
        let result = analyzer.sweep(&nest, &request).expect("sweep");
        assert!(result.fallback);
        assert!(
            result.evaluations < request.count,
            "sampled fallback must not evaluate the whole range"
        );
    }
}
