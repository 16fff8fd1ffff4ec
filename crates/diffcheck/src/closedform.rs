//! Differential certification of fitted miss functions.
//!
//! The sweep engine ([`Analyzer::sweep`]) answers a parametric range in
//! closed form: a quasi-polynomial fitted over one period plus a
//! verification window, shipped with an exact-fit certificate. The
//! certificate covers the *sample window*; this module covers the rest
//! of the contract. Every fitted function is replayed against two
//! independent ground truths:
//!
//! - the **numeric engine** at adversarial points — range endpoints, the
//!   onset edge, the first period boundaries, and seeded random interior
//!   points — where the fit must agree *exactly* (the closed form is an
//!   answer, not an approximation);
//! - the **LRU simulator** on variants small enough to simulate, where
//!   the fit must never fall below the simulated miss count (the paper's
//!   one-sided soundness guarantee, extended to closed forms).
//!
//! A disagreement is a first-class
//! [`ViolationKind::ClosedFormDivergence`], minimized with the same
//! greedy shrinker as every other violation
//! ([`minimize_sweep_divergence`]). [`replay_function`] takes the
//! function explicitly so mutation tests can corrupt a fit and prove the
//! harness catches it.

use crate::verdict::{GroundTruth, Verdict, ViolationKind};
use cme_cache::{simulate_nest, CacheConfig};
use cme_core::{Analyzer, SweepMetric, SweepParameter, SweepRequest, SweepResult};
use cme_ir::{ArrayId, LoopNest};
use cme_math::quasipoly::QuasiPolynomial;
use cme_testgen::{ParamKind, SweepSpec};
use std::collections::BTreeSet;

/// Largest access count a replay variant may have and still be
/// cross-checked against the LRU simulator.
pub const SIM_POINT_LIMIT: u64 = 1 << 16;

/// Converts a generated [`SweepSpec`] (cme-testgen's engine-agnostic
/// description) into the engine's request type, with total misses as the
/// metric and exhaustive fallback enabled.
pub fn request_of(spec: &SweepSpec) -> SweepRequest {
    let parameter = match spec.kind {
        ParamKind::BaseSpacing => SweepParameter::BaseSpacing {
            array: ArrayId::from_index(spec.target),
        },
        ParamKind::PadBytes => SweepParameter::PadBytes {
            after: ArrayId::from_index(spec.target),
        },
        ParamKind::LeadingDimension => SweepParameter::LeadingDimension {
            array: ArrayId::from_index(spec.target),
        },
    };
    SweepRequest::new(parameter, spec.start, spec.count, spec.step)
}

/// The inverse of [`request_of`], for persisting a checked sweep as a
/// corpus directive. Returns `None` for metrics or fallback settings the
/// spec cannot express.
pub fn spec_of(request: &SweepRequest) -> Option<SweepSpec> {
    if request.metric != SweepMetric::TotalMisses || !request.exhaustive_fallback {
        return None;
    }
    let (kind, target) = match request.parameter {
        SweepParameter::BaseSpacing { array } => (ParamKind::BaseSpacing, array.index()),
        SweepParameter::PadBytes { after } => (ParamKind::PadBytes, after.index()),
        SweepParameter::LeadingDimension { array } => (ParamKind::LeadingDimension, array.index()),
    };
    Some(SweepSpec {
        kind,
        target,
        start: request.start,
        count: request.count,
        step: request.step,
    })
}

/// Adversarial replay points for a fitted function over `0..count`:
/// the range endpoints, the onset edge (`onset ± 1`), the first three
/// period boundaries (`j·P ± 1`), and eight seeded random interior
/// points. Sorted and deduplicated; always non-empty for `count ≥ 1`.
pub fn adversarial_points(onset: i64, period: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut points: BTreeSet<i64> = BTreeSet::new();
    points.insert(0);
    points.insert(count as i64 - 1);
    for d in -1..=1i64 {
        points.insert(onset + d);
    }
    let p = period.max(1) as i64;
    for j in 1..=3i64 {
        for d in -1..=1i64 {
            points.insert(j * p + d);
        }
    }
    // Seeded xorshift64* interior points: deterministic per (case, seed),
    // different across seeds so repeated runs probe fresh interior.
    let mut state = seed | 1;
    for _ in 0..8 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        points.insert((state.wrapping_mul(0x2545_f491_4f6c_dd1d) % count as u64) as i64);
    }
    points
        .into_iter()
        .filter(|&k| k >= 0 && k < count as i64)
        .map(|k| k as usize)
        .collect()
}

/// The result of one closed-form differential check.
#[derive(Debug, Clone)]
pub struct SweepCheckReport {
    /// [`Verdict::Exact`] when every replay point agreed (or there was
    /// no fit to replay), otherwise a
    /// [`ViolationKind::ClosedFormDivergence`].
    pub verdict: Verdict,
    /// Whether the engine fitted a closed form. Fallback sweeps carry no
    /// function, so there is nothing to diverge — they classify exact
    /// with zero replay points.
    pub fitted: bool,
    /// Replay points checked against the numeric engine.
    pub engine_points: usize,
    /// Replay points additionally cross-checked against the simulator.
    pub sim_points: usize,
    /// The sweep result the check ran on.
    pub result: SweepResult,
}

impl SweepCheckReport {
    /// Whether the check found a divergence.
    pub fn is_violation(&self) -> bool {
        self.verdict.is_violation()
    }
}

fn metric_of(metric: SweepMetric, analyzer: &Analyzer, variant: &LoopNest) -> u64 {
    let analysis = analyzer.analyze(variant);
    match metric {
        SweepMetric::TotalMisses => analysis.total_misses(),
        SweepMetric::ReplacementMisses => analysis.total_replacement(),
    }
}

/// Replays `function` — claimed to model `request`'s metric on `nest` —
/// at adversarial points. Returns the first divergence plus the number
/// of engine / simulator points actually checked.
///
/// Per point, the simulator's soundness rule is checked first (an
/// undercount against ground truth is the graver violation), then exact
/// agreement with the numeric engine. Infeasible points (the parameter
/// does not apply at that value) are skipped: a fitted sweep had an
/// all-feasible sample window, but the replayed range may extend beyond
/// it.
pub fn replay_function(
    analyzer: &Analyzer,
    nest: &LoopNest,
    request: &SweepRequest,
    function: &QuasiPolynomial,
    seed: u64,
) -> (Option<ViolationKind>, usize, usize) {
    let cache = *analyzer.cache();
    let points = adversarial_points(function.onset(), function.period(), request.count, seed);
    let mut engine_points = 0;
    let mut sim_points = 0;
    for k in points {
        let value = request.value_at(k);
        let Some(variant) = request.parameter.apply(nest, &cache, value) else {
            continue;
        };
        let fitted = function.eval(k as i64);
        if request.metric == SweepMetric::TotalMisses && variant.access_count() <= SIM_POINT_LIMIT {
            sim_points += 1;
            let sim = simulate_nest(&variant, cache).total().misses();
            if fitted < sim as i64 {
                return (
                    Some(ViolationKind::ClosedFormDivergence {
                        k,
                        value,
                        fitted,
                        truth: sim,
                        against: GroundTruth::Simulator,
                    }),
                    engine_points,
                    sim_points,
                );
            }
        }
        engine_points += 1;
        let numeric = metric_of(request.metric, analyzer, &variant);
        if fitted != numeric as i64 {
            return (
                Some(ViolationKind::ClosedFormDivergence {
                    k,
                    value,
                    fitted,
                    truth: numeric,
                    against: GroundTruth::Engine,
                }),
                engine_points,
                sim_points,
            );
        }
    }
    (None, engine_points, sim_points)
}

/// Runs [`Analyzer::sweep`] on `(nest, cache, request)` and, when a
/// closed form was fitted, replays it against both ground truths at
/// adversarial points (seeded by `seed`).
///
/// # Errors
///
/// Propagates the engine's analysis error (worker panic, address
/// overflow) as a string.
pub fn check_sweep_case(
    nest: &LoopNest,
    cache: CacheConfig,
    request: &SweepRequest,
    seed: u64,
) -> Result<SweepCheckReport, String> {
    let analyzer = Analyzer::new(cache);
    let result = analyzer.sweep(nest, request).map_err(|e| e.to_string())?;
    let Some(function) = result.function.clone() else {
        return Ok(SweepCheckReport {
            verdict: Verdict::Exact,
            fitted: false,
            engine_points: 0,
            sim_points: 0,
            result,
        });
    };
    let (violation, engine_points, sim_points) =
        replay_function(&analyzer, nest, request, &function, seed);
    Ok(SweepCheckReport {
        verdict: match violation {
            Some(v) => Verdict::Violation(v),
            None => Verdict::Exact,
        },
        fitted: true,
        engine_points,
        sim_points,
        result,
    })
}

/// Minimizes a case whose closed-form check diverges: shrinks
/// `(nest, cache)` with the standard greedy shrinker while the sweep
/// still fits *and* still diverges. Edits that drop the sweep's target
/// or break the fit are rejected (the predicate fails), so the minimum
/// still reproduces the divergence.
pub fn minimize_sweep_divergence(
    nest: &LoopNest,
    cache: CacheConfig,
    request: &SweepRequest,
    seed: u64,
) -> (LoopNest, CacheConfig) {
    crate::shrink_case(nest, cache, |n, c| {
        check_sweep_case(n, c, request, seed)
            .map(|r| r.is_violation())
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{AccessKind, NestBuilder};
    use cme_math::quasipoly::TieBreak;

    /// Two arrays streamed in lockstep (the sweep engine's own test
    /// fixture): misses are a pure function of the spacing modulo the
    /// way span, so base-spacing sweeps fit.
    fn spacing_nest(gap: i64) -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 0, 64);
        let a = b.array("A", &[64], 0);
        let c = b.array("B", &[64], gap);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.reference(c, AccessKind::Read, &[("i", 0)]);
        b.build().expect("valid nest")
    }

    fn small_cache() -> CacheConfig {
        CacheConfig::new(1024, 1, 32, 4).expect("valid config")
    }

    fn spacing_request() -> SweepRequest {
        SweepRequest::new(
            SweepParameter::BaseSpacing {
                array: ArrayId::from_index(1),
            },
            0,
            128,
            8,
        )
    }

    #[test]
    fn adversarial_points_cover_the_edges() {
        let pts = adversarial_points(3, 16, 128, 7);
        assert!(pts.contains(&0) && pts.contains(&127), "endpoints");
        assert!(
            pts.contains(&2) && pts.contains(&3) && pts.contains(&4),
            "onset edge"
        );
        assert!(
            pts.contains(&15) && pts.contains(&16) && pts.contains(&17),
            "period boundary"
        );
        assert!(pts.iter().all(|&k| k < 128));
        assert_eq!(pts, adversarial_points(3, 16, 128, 7), "seed-deterministic");
        assert_ne!(
            adversarial_points(3, 16, 1 << 20, 7),
            adversarial_points(3, 16, 1 << 20, 8),
            "different seeds probe different interiors"
        );
    }

    #[test]
    fn genuine_fit_replays_clean_against_both_ground_truths() {
        let nest = spacing_nest(256);
        let report =
            check_sweep_case(&nest, small_cache(), &spacing_request(), 42).expect("sweep succeeds");
        assert!(report.fitted, "this fixture is known to fit");
        assert_eq!(report.verdict, Verdict::Exact, "{:?}", report.verdict);
        assert!(report.engine_points >= 8);
        assert!(
            report.sim_points >= 8,
            "65-access variants are simulable: {}",
            report.sim_points
        );
    }

    #[test]
    fn corrupted_fit_is_caught_as_engine_divergence() {
        // Mutation test: inflate every residue class by one. The replay
        // must flag the very first point as an engine divergence — if it
        // ever stops catching this, the closed-form tier is dead weight.
        let nest = spacing_nest(256);
        let request = spacing_request();
        let analyzer = Analyzer::new(small_cache());
        let result = analyzer.sweep(&nest, &request).expect("sweep");
        let function = result.function.expect("fit");
        let corrupt = QuasiPolynomial::with_head(
            function.head().to_vec(),
            function
                .coefficients()
                .iter()
                .map(|&(a, b, c)| (a, b, c + 1))
                .collect(),
        );
        let (violation, _, _) = replay_function(&analyzer, &nest, &request, &corrupt, 42);
        assert!(
            matches!(
                violation,
                Some(ViolationKind::ClosedFormDivergence {
                    against: GroundTruth::Engine,
                    ..
                })
            ),
            "inflation must be caught: {violation:?}"
        );
    }

    #[test]
    fn undercounting_fit_is_caught_by_the_simulator_first() {
        let nest = spacing_nest(256);
        let request = spacing_request();
        let analyzer = Analyzer::new(small_cache());
        let result = analyzer.sweep(&nest, &request).expect("sweep");
        let function = result.function.expect("fit");
        // Deflate below any possible miss count: soundness (vs the
        // simulator) is checked before exactness, so the graver rule
        // names the violation.
        let corrupt = function.add(&QuasiPolynomial::from_constants(vec![-1_000_000]));
        let (violation, _, _) = replay_function(&analyzer, &nest, &request, &corrupt, 42);
        assert!(
            matches!(
                violation,
                Some(ViolationKind::ClosedFormDivergence {
                    against: GroundTruth::Simulator,
                    ..
                })
            ),
            "undercount must be a simulator divergence: {violation:?}"
        );
    }

    #[test]
    fn divergence_display_names_both_ground_truths() {
        let v = ViolationKind::ClosedFormDivergence {
            k: 17,
            value: 136,
            fitted: 40,
            truth: 65,
            against: GroundTruth::Simulator,
        };
        let s = v.to_string();
        assert!(
            s.contains("closed-form divergence") && s.contains("simulator"),
            "{s}"
        );
        assert!(s.contains("k=17") && s.contains("136"), "{s}");
    }

    #[test]
    fn spec_round_trips_through_the_engine_request() {
        let spec = SweepSpec {
            kind: ParamKind::PadBytes,
            target: 1,
            start: 0,
            count: 96,
            step: 32,
        };
        let request = request_of(&spec);
        assert_eq!(spec_of(&request), Some(spec));
        // Non-default metrics have no spec form.
        let mut replacement = request;
        replacement.metric = SweepMetric::ReplacementMisses;
        assert_eq!(spec_of(&replacement), None);
    }

    #[test]
    fn fallback_sweeps_have_nothing_to_replay() {
        // Leading dimensions below the declared column (16) are
        // infeasible and force the fallback path: no function, no replay
        // points, trivially exact.
        let mut b = NestBuilder::new();
        b.ct_loop("i", 0, 12).ct_loop("j", 0, 12);
        let a = b.array("A", &[16, 16], 0);
        b.reference(a, AccessKind::Read, &[("i", 0), ("j", 0)]);
        let nest = b.build().expect("valid nest");
        let request = SweepRequest::new(SweepParameter::LeadingDimension { array: a }, 14, 6, 1);
        let report = check_sweep_case(&nest, small_cache(), &request, 0).expect("sweep succeeds");
        assert!(!report.fitted);
        assert_eq!(report.engine_points, 0);
        assert_eq!(report.verdict, Verdict::Exact);
    }

    #[test]
    fn divergence_minimizes_to_a_smaller_case() {
        // End-to-end minimization against an injected bad fit: shrink a
        // case while a deliberately-wrong *request interpretation*
        // diverges. We emulate a broken engine by checking a request
        // whose step is halved relative to the function actually fitted
        // — the replay then compares the fit against a different lattice
        // and must diverge somewhere; minimization keeps that property.
        let nest = spacing_nest(256);
        let cache = small_cache();
        let request = spacing_request();
        let analyzer = Analyzer::new(cache);
        let function = analyzer
            .sweep(&nest, &request)
            .expect("sweep")
            .function
            .expect("fit");
        // The fit models step 8; replaying it on the step-4 lattice
        // diverges (the function is not constant).
        let mut skewed = request;
        skewed.step = 4;
        let (violation, _, _) = replay_function(&analyzer, &nest, &skewed, &function, 3);
        let Some(ViolationKind::ClosedFormDivergence { .. }) = violation else {
            panic!("skewed lattice must diverge, got {violation:?}");
        };

        // shrink_case keeps any predicate; here: "a fresh sweep still
        // fits and its fit still diverges on the skewed lattice".
        let (small, small_cache_cfg) = crate::shrink_case(&nest, cache, |n, c| {
            let a = Analyzer::new(c);
            let Ok(r) = a.sweep(n, &request) else {
                return false;
            };
            let Some(f) = r.function else { return false };
            replay_function(&a, n, &skewed, &f, 3).0.is_some()
        });
        assert!(small.access_count() <= nest.access_count());
        let a = Analyzer::new(small_cache_cfg);
        let f = a
            .sweep(&small, &request)
            .expect("sweep")
            .function
            .expect("fit");
        assert!(
            replay_function(&a, &small, &skewed, &f, 3).0.is_some(),
            "the minimized case still reproduces"
        );
    }

    #[test]
    fn genuine_sweeps_survive_minimization_attempts() {
        // minimize_sweep_divergence on a *clean* case must return it
        // unshrunk-or-equal without ever fabricating a violation.
        let nest = spacing_nest(300);
        let request = spacing_request();
        let report = check_sweep_case(&nest, small_cache(), &request, 9).expect("sweep succeeds");
        assert!(!report.is_violation());
        // And the argmin the check carries matches a direct argmin of
        // the function (rehydration-style recomputation).
        if let (Some(f), true) = (&report.result.function, report.fitted) {
            let hi = request.count as i64 - 1;
            let (k, best) = f.argmin_with(0..=hi, TieBreak::SmallestParameter);
            assert_eq!(report.result.best_k, k as usize);
            assert_eq!(report.result.best_misses, best as u64);
        }
    }
}
