//! Padding by solution counting (Section 5.1.2 applied to data layout).
//!
//! The GCD special-case conditions of Figure 10 are *sufficient*, not
//! necessary: layouts outside them can still be conflict-free. When
//! [`crate::padding::plan_padding`] reports infeasibility (or its plan
//! leaves residual conflicts), this module falls back to the paper's second
//! methodology — score a structured set of candidate layouts by **counting
//! CME solutions** (the miss-finding engine, never the simulator) and keep
//! the best. A greedy coordinate descent over (column size, consecutive
//! base spacings) with line-staggered spacing candidates converges in a few
//! dozen counts.

use crate::padding::{plan_padding, plan_padding_partial, PaddingPlan};
use cme_cache::CacheConfig;
use cme_core::{AnalysisOptions, Analyzer, SweepMetric, SweepParameter, SweepRequest};
use cme_ir::{ArrayId, LoopNest};
use cme_math::gcd::gcd;
use std::fmt;

/// How an optimized layout was obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaddingMethod {
    /// The Figure 10 special-case conditions produced a provably
    /// conflict-free layout.
    SpecialCase(PaddingPlan),
    /// Solution-counting search chose the layout.
    CountingSearch {
        /// Number of CME counts evaluated.
        evaluations: usize,
    },
}

impl fmt::Display for PaddingMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaddingMethod::SpecialCase(plan) => write!(f, "special-case conditions ({plan})"),
            PaddingMethod::CountingSearch { evaluations } => {
                write!(f, "solution-counting search ({evaluations} counts)")
            }
        }
    }
}

/// Result of [`optimize_padding`]: the transformed nest plus bookkeeping.
#[derive(Debug, Clone)]
pub struct PaddingOutcome {
    /// The method that produced the final layout.
    pub method: PaddingMethod,
    /// CME replacement misses before the transformation.
    pub replacement_before: u64,
    /// CME replacement misses after.
    pub replacement_after: u64,
    /// Total CME misses before.
    pub total_before: u64,
    /// Total CME misses after.
    pub total_after: u64,
    /// Candidate scores that came back budget-exhausted (sound overcounts;
    /// the search still ranks them, pessimistically). Nonzero only when the
    /// session carries a [`cme_core::Budget`] or cancel token.
    pub degraded_candidates: usize,
    /// Candidate scores lost to an [`cme_core::AnalysisError`] (scored
    /// `u64::MAX`, so they are never selected).
    pub failed_candidates: usize,
    /// Closed-form parametric sweeps answered by a certified
    /// quasi-polynomial fit ([`cme_core::SweepResult`]); every such fit
    /// carried an exact-fit certificate.
    pub sweeps_fitted: usize,
    /// Numeric candidate evaluations the closed forms made unnecessary
    /// (swept range size minus samples actually analyzed).
    pub sweep_evaluations_saved: usize,
}

impl PaddingOutcome {
    /// Percentage reduction in replacement misses (0 when none existed).
    pub fn replacement_reduction_pct(&self) -> f64 {
        if self.replacement_before == 0 {
            0.0
        } else {
            100.0 * (self.replacement_before - self.replacement_after) as f64
                / self.replacement_before as f64
        }
    }
}

impl fmt::Display for PaddingOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replacement {} -> {} ({:.1}%), total {} -> {}, via {}",
            self.replacement_before,
            self.replacement_after,
            self.replacement_reduction_pct(),
            self.total_before,
            self.total_after,
            self.method
        )?;
        if self.sweeps_fitted > 0 {
            write!(
                f,
                " [{} closed-form sweeps saved {} evaluations]",
                self.sweeps_fitted, self.sweep_evaluations_saved
            )?;
        }
        if self.degraded_candidates > 0 || self.failed_candidates > 0 {
            write!(
                f,
                " [{} candidates degraded by budget, {} failed]",
                self.degraded_candidates, self.failed_candidates
            )?;
        }
        Ok(())
    }
}

/// Distinct arrays in increasing-base order.
fn used_arrays(nest: &LoopNest) -> Vec<ArrayId> {
    let mut ids: Vec<ArrayId> = Vec::new();
    for r in nest.references() {
        if !ids.contains(&r.array()) {
            ids.push(r.array());
        }
    }
    ids.sort_by_key(|a| nest.array(*a).base());
    ids
}

/// Applies `(column, spacings)` to a clone of the nest and returns it.
fn layout_with(nest: &LoopNest, order: &[ArrayId], column: i64, spacings: &[i64]) -> LoopNest {
    let mut out = nest.clone();
    for &id in order {
        let arr = out.array_mut(id);
        if arr.rank() == 2 && column > arr.column_size() {
            arr.pad_column_to(column);
        }
    }
    if let Some((&first, rest)) = order.split_first() {
        let mut cursor = out.array(first).base();
        for (&id, &s) in rest.iter().zip(spacings) {
            cursor += s;
            out.array_mut(id).set_base(cursor);
        }
    }
    out
}

fn padded_len(nest: &LoopNest, id: ArrayId, column: i64) -> i64 {
    let a = nest.array(id);
    if a.rank() == 2 {
        column.max(a.column_size()) * a.dims()[1]
    } else {
        a.len()
    }
}

/// Optimizes a nest's layout: Figure 10 first, then solution-counting
/// search. Returns the transformed nest and the outcome record; the input
/// nest is left untouched.
///
/// `options` configures the counting engine (the default is exact). This
/// convenience wrapper spins up a one-shot [`Analyzer`]; callers scoring
/// several nests (or nests plus tiling) should build one session and use
/// [`optimize_padding_with`] so the engine's memos survive across calls.
pub fn optimize_padding(
    nest: &LoopNest,
    cache: &CacheConfig,
    options: &AnalysisOptions,
) -> (LoopNest, PaddingOutcome) {
    let analyzer = Analyzer::new(*cache).options(options.clone()).threads(0);
    optimize_padding_with(&analyzer, nest)
}

/// [`optimize_padding`] driven through a caller-owned [`Analyzer`] session.
///
/// All candidate layouts share one nest structure, so the engine re-scores
/// them from its cascade and window-scan memos instead of re-running the
/// full miss-finding algorithm — this is where the search's speedup comes
/// from (see `docs/ENGINE.md`).
///
/// The search honors the session's resource governor: when the analyzer
/// carries a [`cme_core::Budget`] or cancel token, exhausted candidate
/// scores are sound overcounts (counted in
/// [`PaddingOutcome::degraded_candidates`]) and the search ranks them
/// pessimistically instead of panicking; a candidate whose analysis errors
/// outright scores `u64::MAX` and is never selected. The search itself
/// never panics on governed sessions.
pub fn optimize_padding_with(analyzer: &Analyzer, nest: &LoopNest) -> (LoopNest, PaddingOutcome) {
    let cache = *analyzer.cache();
    let cache = &cache;
    let degraded_candidates = std::cell::Cell::new(0usize);
    let failed_candidates = std::cell::Cell::new(0usize);
    let before = match analyzer.try_analyze(nest) {
        Ok(governed) => {
            degraded_candidates
                .set(degraded_candidates.get() + governed.outcome.is_exhausted() as usize);
            governed.analysis
        }
        Err(_) => {
            // No sound baseline: leave the nest untouched and report the
            // failure instead of panicking the whole search.
            return (
                nest.clone(),
                PaddingOutcome {
                    method: PaddingMethod::CountingSearch { evaluations: 0 },
                    replacement_before: 0,
                    replacement_after: 0,
                    total_before: 0,
                    total_after: 0,
                    degraded_candidates: degraded_candidates.get(),
                    failed_candidates: 1,
                    sweeps_fitted: 0,
                    sweep_evaluations_saved: 0,
                },
            );
        }
    };
    let (replacement_before, total_before) = (before.total_replacement(), before.total_misses());
    let order = used_arrays(nest);
    // The coordinate-descent search runs dozens of full CME counts; past
    // this size, trust the Figure 10 special case and skip the search.
    let searchable = nest.access_count() <= 2_000_000;

    // --- Method 1: the Figure 10 special case --------------------------
    // The four conditions make the *considered* equations unsolvable; they
    // cannot promise global non-regression (a nest can be conflict-free
    // even though the conditions fail), so every candidate is re-counted
    // and only accepted if it does not regress.
    if let Ok(plan) = plan_padding(nest, cache) {
        let mut candidate = nest.clone();
        plan.apply(&mut candidate);
        if let Ok(governed) = analyzer.try_analyze(&candidate) {
            degraded_candidates
                .set(degraded_candidates.get() + governed.outcome.is_exhausted() as usize);
            let after = governed.analysis;
            let improves = after.total_replacement() < replacement_before
                || (after.total_replacement() == 0
                    && replacement_before == 0
                    && after.total_misses() <= total_before);
            if improves && (after.total_replacement() == 0 || !searchable) {
                return (
                    candidate,
                    PaddingOutcome {
                        method: PaddingMethod::SpecialCase(plan),
                        replacement_before,
                        replacement_after: after.total_replacement(),
                        total_before,
                        total_after: after.total_misses(),
                        degraded_candidates: degraded_candidates.get(),
                        failed_candidates: failed_candidates.get(),
                        sweeps_fitted: 0,
                        sweep_evaluations_saved: 0,
                    },
                );
            }
        } else {
            failed_candidates.set(failed_candidates.get() + 1);
        }
    }
    if replacement_before == 0 || !searchable {
        // Too big for the counting search: fall back to a *partial* plan
        // (drop the most demanding pairs until the GCD conditions admit a
        // layout) and keep it only if it actually helps.
        if replacement_before > 0 {
            if let Ok(plan) = plan_padding_partial(nest, cache) {
                let mut candidate = nest.clone();
                plan.apply(&mut candidate);
                match analyzer.try_analyze(&candidate) {
                    Ok(governed) => {
                        degraded_candidates.set(
                            degraded_candidates.get() + governed.outcome.is_exhausted() as usize,
                        );
                        let after = governed.analysis;
                        if after.total_replacement() < replacement_before {
                            return (
                                candidate,
                                PaddingOutcome {
                                    method: PaddingMethod::SpecialCase(plan),
                                    replacement_before,
                                    replacement_after: after.total_replacement(),
                                    total_before,
                                    total_after: after.total_misses(),
                                    degraded_candidates: degraded_candidates.get(),
                                    failed_candidates: failed_candidates.get(),
                                    sweeps_fitted: 0,
                                    sweep_evaluations_saved: 0,
                                },
                            );
                        }
                    }
                    Err(_) => failed_candidates.set(failed_candidates.get() + 1),
                }
            }
        }
        return (
            nest.clone(),
            PaddingOutcome {
                method: PaddingMethod::CountingSearch { evaluations: 0 },
                replacement_before,
                replacement_after: replacement_before,
                total_before,
                total_after: total_before,
                degraded_candidates: degraded_candidates.get(),
                failed_candidates: failed_candidates.get(),
                sweeps_fitted: 0,
                sweep_evaluations_saved: 0,
            },
        );
    }

    // --- Method 2: greedy coordinate descent scored by CME counting ----
    let ls = cache.line_elems();
    let orig_col = order
        .iter()
        .filter(|&&a| nest.array(a).rank() == 2)
        .map(|&a| nest.array(a).column_size())
        .max()
        .unwrap_or(1);
    // Column candidates: the original plus line-staggered pads.
    let mut col_cands = vec![orig_col];
    for extra in [
        1,
        ls / 2,
        ls,
        ls + 1,
        2 * ls,
        2 * ls + 1,
        3 * ls,
        4 * ls,
        4 * ls + 1,
        6 * ls,
    ] {
        if extra > 0 {
            col_cands.push(orig_col + extra);
        }
    }
    col_cands.dedup();

    let mut evaluations = 0usize;
    let mut count = |column: i64, spacings: &[i64]| -> u64 {
        evaluations += 1;
        // Revisited layouts (the greedy sweeps back-track constantly)
        // skip straight to the memoized stage artifacts.
        match analyzer.try_analyze(&layout_with(nest, &order, column, spacings)) {
            Ok(governed) => {
                degraded_candidates
                    .set(degraded_candidates.get() + governed.outcome.is_exhausted() as usize);
                governed.analysis.total_replacement()
            }
            Err(_) => {
                failed_candidates.set(failed_candidates.get() + 1);
                u64::MAX
            }
        }
    };

    // Spacing candidates per gap: the padded array length staggered by
    // line-plus-one multiples (so consecutive arrays land on shifted sets).
    let spacing_cands = |column: i64, prev: ArrayId| -> Vec<i64> {
        let len = padded_len(nest, prev, column);
        let stagger = ls * (cache.num_sets() / 8).max(1) + ls / 2 + 1;
        let mut v: Vec<i64> = Vec::new();
        for k in 0..8 {
            v.push(len + k * stagger + (k % 2));
        }
        for k in [1i64, 2, 3] {
            v.push(len + k * (ls + 1));
        }
        v
    };

    let ngaps = order.len().saturating_sub(1);
    let mut best_col = orig_col;
    let mut best_spacings: Vec<i64> = order
        .windows(2)
        .map(|w| padded_len(nest, w[0], orig_col))
        .collect();
    let mut best_score = count(best_col, &best_spacings);
    'outer: for &col in &col_cands {
        let mut spacings: Vec<i64> = order
            .windows(2)
            .map(|w| padded_len(nest, w[0], col))
            .collect();
        // Two greedy sweeps over the gaps.
        let mut local = count(col, &spacings);
        for _pass in 0..2 {
            for g in 0..ngaps {
                for cand in spacing_cands(col, order[g]) {
                    if cand == spacings[g] {
                        continue;
                    }
                    let old = spacings[g];
                    spacings[g] = cand;
                    let s = count(col, &spacings);
                    if s < local {
                        local = s;
                    } else {
                        spacings[g] = old;
                    }
                    if local == 0 {
                        break;
                    }
                }
            }
            if local == 0 {
                break;
            }
        }
        if local < best_score {
            best_score = local;
            best_col = col;
            best_spacings = spacings;
        }
        if best_score == 0 {
            break 'outer;
        }
    }

    // Polish: small perturbations around the best layout found.
    if best_score > 0 {
        let deltas = [
            1i64,
            -1,
            2,
            -2,
            ls / 2,
            -(ls / 2),
            ls,
            -ls,
            ls + 1,
            -(ls + 1),
        ];
        'polish: for _pass in 0..2 {
            for g in 0..ngaps {
                for &d in &deltas {
                    let cand = best_spacings[g] + d;
                    if cand < padded_len(nest, order[g], best_col) {
                        continue; // arrays must not overlap
                    }
                    let old = best_spacings[g];
                    best_spacings[g] = cand;
                    let s = count(best_col, &best_spacings);
                    if s < best_score {
                        best_score = s;
                    } else {
                        best_spacings[g] = old;
                    }
                    if best_score == 0 {
                        break 'polish;
                    }
                }
            }
        }
    }

    // --- Method 3: closed-form periodic refinement ---------------------
    // The miss count as a function of inter-array padding is exactly
    // periodic in the cache's way span, so a *whole range* of pad
    // candidates per gap costs O(samples): the engine fits a certified
    // quasi-polynomial over one period plus a verification window and
    // minimizes it analytically ([`Analyzer::sweep`]). Sweeps ride the
    // session governor like every other candidate; a degraded (budget-
    // truncated) sweep is never trusted — its winner is simply not
    // accepted, which keeps the degraded-last ranking policy intact. Any
    // accepted winner is re-counted numerically first, so a wrong fit can
    // never worsen the layout (diffcheck independently cross-validates
    // fits as `ClosedFormDivergence`).
    let mut sweeps_fitted = 0usize;
    let mut sweep_evaluations_saved = 0usize;

    if best_score > 0 && degraded_candidates.get() == 0 {
        let step_bytes = ls * cache.elem_bytes();
        let raw_period = cache.way_span_elems() * cache.elem_bytes();
        let period_steps = raw_period / gcd(raw_period, step_bytes);
        // Several periods' worth of candidates: the closed form answers
        // them all at the cost of ~2 periods of samples.
        let range = (16 * period_steps).max(64) as usize;
        for g in 0..ngaps {
            let current = layout_with(nest, &order, best_col, &best_spacings);
            let request = SweepRequest {
                parameter: SweepParameter::PadBytes { after: order[g] },
                start: 0,
                count: range,
                step: step_bytes,
                metric: SweepMetric::ReplacementMisses,
                exhaustive_fallback: false,
            };
            let Ok(result) = analyzer.sweep(&current, &request) else {
                failed_candidates.set(failed_candidates.get() + 1);
                continue;
            };
            sweeps_fitted += usize::from(result.certificate.is_some());
            sweep_evaluations_saved += result.evaluations_saved();
            if result.degraded > 0 {
                continue;
            }
            if result.best_misses < best_score && result.best_value > 0 {
                let extra = result.best_value / cache.elem_bytes();
                let old = best_spacings[g];
                best_spacings[g] = old + extra;
                let s = count(best_col, &best_spacings);
                if s < best_score {
                    best_score = s;
                } else {
                    best_spacings[g] = old;
                }
            }
            if best_score == 0 {
                break;
            }
        }
    }

    let optimized = layout_with(nest, &order, best_col, &best_spacings);
    let (replacement_after, total_after) = match analyzer.try_analyze(&optimized) {
        Ok(governed) => {
            degraded_candidates
                .set(degraded_candidates.get() + governed.outcome.is_exhausted() as usize);
            (
                governed.analysis.total_replacement(),
                governed.analysis.total_misses(),
            )
        }
        Err(_) => {
            // The final re-count failed; fall back to the search's own
            // (possibly overcounted) score for the winning layout.
            failed_candidates.set(failed_candidates.get() + 1);
            (best_score, total_before)
        }
    };
    (
        optimized,
        PaddingOutcome {
            method: PaddingMethod::CountingSearch { evaluations },
            replacement_before,
            replacement_after,
            total_before,
            total_after,
            degraded_candidates: degraded_candidates.get(),
            failed_candidates: failed_candidates.get(),
            sweeps_fitted,
            sweep_evaluations_saved,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::simulate_nest;

    fn table1_cache() -> CacheConfig {
        CacheConfig::new(8192, 1, 32, 4).unwrap()
    }

    #[test]
    fn adi_reaches_zero_replacement_via_search() {
        let cache = table1_cache();
        let nest = cme_kernels::adi(64);
        let (optimized, outcome) = optimize_padding(&nest, &cache, &AnalysisOptions::default());
        assert!(
            outcome.replacement_after == 0,
            "adi should be fully fixable (Table 2 row): {outcome}"
        );
        // The CME verdict is confirmed by simulation.
        assert_eq!(simulate_nest(&optimized, cache).total().replacement, 0);
        assert!(matches!(
            outcome.method,
            PaddingMethod::CountingSearch { .. }
        ));
    }

    #[test]
    fn alv_uses_the_special_case() {
        let cache = table1_cache();
        let nest = cme_kernels::alv_with_layout(61, 30, 61, 2048);
        let (optimized, outcome) = optimize_padding(&nest, &cache, &AnalysisOptions::default());
        assert_eq!(outcome.replacement_after, 0, "{outcome}");
        assert!(matches!(outcome.method, PaddingMethod::SpecialCase(_)));
        assert_eq!(simulate_nest(&optimized, cache).total().replacement, 0);
    }

    #[test]
    fn conflict_free_nest_is_left_alone() {
        let cache = table1_cache();
        let nest = cme_kernels::sor(32);
        let before = Analyzer::new(cache).analyze(&nest);
        if before.total_replacement() == 0 {
            let (_, outcome) = optimize_padding(&nest, &cache, &AnalysisOptions::default());
            assert_eq!(outcome.replacement_before, 0);
            assert_eq!(outcome.replacement_after, 0);
        }
    }

    #[test]
    fn residual_conflicts_trigger_certified_closed_form_sweeps() {
        use cme_ir::{AccessKind, NestBuilder};
        // A's two references sit exactly one way span apart, so their
        // conflict survives any layout move — the greedy search cannot
        // reach zero and hands off to the closed-form sweep stage, which
        // answers a multi-thousand-candidate pad range per gap in about
        // two periods' worth of samples.
        let cache = table1_cache();
        let mut b = NestBuilder::new();
        b.ct_loop("i", 0, 2047);
        let a = b.array("A", &[4096], 0);
        let c = b.array("B", &[2048], 4096);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.reference(a, AccessKind::Write, &[("i", 2048)]);
        b.reference(c, AccessKind::Read, &[("i", 0)]);
        let nest = b.build().unwrap();

        let analyzer = Analyzer::new(cache).threads(0);
        let (optimized, outcome) = optimize_padding_with(&analyzer, &nest);
        assert!(
            outcome.replacement_after > 0,
            "the way-span self conflict is not fixable by layout: {outcome}"
        );
        assert!(
            outcome.sweeps_fitted >= 1,
            "the residual conflict must reach the sweep stage: {outcome}"
        );
        // One period is 256 line-steps here (way span 8192 bytes / 32-byte
        // lines): the 4096-candidate range must cost at most ~3 periods of
        // numeric analyses, not the range.
        let stats = analyzer.stats();
        let period_steps = (cache.way_span_elems() * cache.elem_bytes()
            / (cache.line_elems() * cache.elem_bytes())) as u64;
        assert!(
            stats.sweep_samples <= 3 * period_steps * outcome.sweeps_fitted as u64,
            "sweep sampled {} analyses for {} sweeps (period {period_steps})",
            stats.sweep_samples,
            outcome.sweeps_fitted
        );
        assert!(
            outcome.sweep_evaluations_saved > 3_000,
            "a 4096-candidate range must be answered in O(samples): {outcome}"
        );
        assert!(outcome.to_string().contains("closed-form sweeps"));
        // The sweep stage never regresses the numerically verified layout.
        assert!(outcome.replacement_after <= outcome.replacement_before);
        assert_eq!(
            simulate_nest(&optimized, cache).total().replacement,
            outcome.replacement_after,
            "CME verdict confirmed by simulation"
        );
    }

    #[test]
    fn outcome_display_and_pct() {
        let mut o = PaddingOutcome {
            method: PaddingMethod::CountingSearch { evaluations: 7 },
            replacement_before: 100,
            replacement_after: 25,
            total_before: 150,
            total_after: 75,
            degraded_candidates: 0,
            failed_candidates: 0,
            sweeps_fitted: 0,
            sweep_evaluations_saved: 0,
        };
        assert!((o.replacement_reduction_pct() - 75.0).abs() < 1e-9);
        assert!(o.to_string().contains("7 counts"));
        assert!(!o.to_string().contains("degraded"));
        o.degraded_candidates = 3;
        assert!(o.to_string().contains("3 candidates degraded"));
    }

    #[test]
    fn budgeted_session_search_is_panic_free_and_reports_degradation() {
        // A solve budget far too small for any candidate: every score is a
        // sound overcount, the search completes without panicking, and the
        // degradation is surfaced instead of hidden.
        let cache = table1_cache();
        let nest = cme_kernels::adi(32);
        let analyzer = Analyzer::new(cache)
            .threads(0)
            .budget(cme_core::Budget::unlimited().with_max_solves(50));
        let (_, outcome) = optimize_padding_with(&analyzer, &nest);
        assert!(
            outcome.degraded_candidates > 0,
            "a 50-solve budget must exhaust on adi(32): {outcome}"
        );
        assert_eq!(outcome.failed_candidates, 0);
        assert!(outcome.to_string().contains("degraded"), "{outcome}");
    }
}
