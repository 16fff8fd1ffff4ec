//! The resource governor's end-to-end contract, over the public `cme`
//! facade:
//!
//! 1. **Degradation is sound.** Any budget — solve caps, point ceilings,
//!    deadlines, cancellation — may only *raise* per-reference miss
//!    counts relative to the exact (full-budget) analysis: truncated
//!    points become misses, never reuse. This is the paper's `ε > 0`
//!    semantics driven by an operational limit.
//! 2. **Cancellation leaves no residue.** After a query is cancelled
//!    mid-scan, a fresh full-budget session produces results
//!    bit-identical to a never-cancelled run, sequential and sharded.
//! 3. **Errors poison one query, not the session.** A worker panic is
//!    caught at the pool boundary and surfaces as
//!    `AnalysisError::WorkerPanic`; the same session then answers the
//!    next query exactly. Adversarial address magnitudes are rejected up
//!    front as `AnalysisError::Overflow` instead of wrapping in the hot
//!    loops.

use cme::cache::CacheConfig;
use cme::core::{AnalysisError, Analyzer, Budget, CancelToken, ExhaustReason, Outcome};
use cme::ir::{AccessKind, LoopNest, NestBuilder};
use cme_testgen::{arb_cache, arb_nest, NestDistribution};
use proptest::prelude::*;
use std::time::Duration;

/// Exact per-reference misses from a fresh, ungoverned session.
fn exact_misses(nest: &LoopNest, cache: CacheConfig, threads: usize) -> Vec<u64> {
    let analyzer = Analyzer::new(cache).threads(threads);
    analyzer
        .analyze(nest)
        .per_ref
        .iter()
        .map(|r| r.total_misses())
        .collect()
}

/// Per-reference misses from a governed session, with the outcome.
fn governed_misses(
    nest: &LoopNest,
    cache: CacheConfig,
    threads: usize,
    budget: Budget,
    token: Option<CancelToken>,
) -> (Vec<u64>, Outcome) {
    let mut analyzer = Analyzer::new(cache).threads(threads).budget(budget);
    if let Some(t) = token {
        analyzer = analyzer.cancel_token(t);
    }
    let governed = analyzer
        .try_analyze(nest)
        .expect("governed paths never error");
    (
        governed
            .analysis
            .per_ref
            .iter()
            .map(|r| r.total_misses())
            .collect(),
        governed.outcome,
    )
}

fn small_dist() -> NestDistribution {
    NestDistribution {
        extent: 3..8,
        max_depth: 3,
        ..NestDistribution::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Budget exhaustion only ever raises per-reference counts, on both
    /// engine paths, and a fresh full-budget session afterwards is
    /// bit-identical to one that never saw a budget.
    #[test]
    fn exhaustion_is_sound_and_leaves_no_residue(
        nest in arb_nest(small_dist()),
        cache in arb_cache(),
        max_solves in 1u64..400,
    ) {
        for threads in [1usize, 3] {
            let exact = exact_misses(&nest, cache, threads);
            let budget = Budget::unlimited().with_max_solves(max_solves);
            let (degraded, outcome) =
                governed_misses(&nest, cache, threads, budget, None);
            prop_assert_eq!(degraded.len(), exact.len());
            for (ridx, (d, e)) in degraded.iter().zip(&exact).enumerate() {
                prop_assert!(
                    d >= e,
                    "budget undercounted ref#{} ({} < {}) under {:?}",
                    ridx, d, e, outcome
                );
            }
            // The degraded query must not have perturbed anything a later
            // session could observe.
            prop_assert_eq!(exact_misses(&nest, cache, threads), exact);
        }
    }

    /// Cancelling mid-scan from another thread — at whatever point the
    /// cancel happens to land — never undercounts and never corrupts a
    /// subsequent fresh full-budget run.
    #[test]
    fn cancellation_determinism(
        nest in arb_nest(small_dist()),
        cache in arb_cache(),
    ) {
        for threads in [1usize, 3] {
            let exact = exact_misses(&nest, cache, threads);
            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_micros(200));
                    token.cancel();
                })
            };
            let (cancelled, _outcome) = governed_misses(
                &nest,
                cache,
                threads,
                Budget::unlimited(),
                Some(token),
            );
            canceller.join().expect("canceller thread");
            for (d, e) in cancelled.iter().zip(&exact) {
                prop_assert!(d >= e, "cancellation undercounted");
            }
            // Re-run in a fresh session at full budget: bit-identical.
            prop_assert_eq!(exact_misses(&nest, cache, threads), exact);
        }
    }
}

#[test]
fn sequential_exhaustion_is_deterministic() {
    let nest = cme::kernels::mmult(16);
    let cache = CacheConfig::new(1024, 2, 32, 4).expect("geometry");
    let budget = Budget::unlimited().with_max_solves(300);
    let (a, oa) = governed_misses(&nest, cache, 1, budget, None);
    let (b, ob) = governed_misses(&nest, cache, 1, budget, None);
    assert_eq!(a, b, "same budget, same sequential cut point");
    assert_eq!(oa, ob);
    assert!(oa.is_exhausted(), "300 solves cannot finish mmult(16)");
    // An uncached session runs the same governed pipeline: it exhausts the
    // same budget, overcounts soundly, and cuts at the same point.
    let uncached = Analyzer::new(cache)
        .threads(1)
        .budget(budget)
        .caching(false)
        .try_analyze(&nest)
        .expect("governed paths never error");
    assert!(
        uncached.outcome.is_exhausted(),
        "an uncached session must honor the budget: {:?}",
        uncached.outcome
    );
    let counts: Vec<u64> = uncached
        .analysis
        .per_ref
        .iter()
        .map(|r| r.total_misses())
        .collect();
    for (c, e) in counts.iter().zip(&exact_misses(&nest, cache, 1)) {
        assert!(c >= e, "uncached exhaustion undercounts: {c} < {e}");
    }
    assert_eq!(
        counts, a,
        "uncached and cold cached sessions cut differently"
    );
}

#[test]
fn pre_cancelled_token_degrades_everything_without_panicking() {
    let nest = cme::kernels::gauss(12);
    let cache = CacheConfig::new(512, 1, 16, 4).expect("geometry");
    let token = CancelToken::new();
    token.cancel();
    let (counts, outcome) = governed_misses(&nest, cache, 2, Budget::unlimited(), Some(token));
    match outcome {
        Outcome::Exhausted { reason, .. } => assert_eq!(reason, ExhaustReason::Cancelled),
        o => panic!("expected cancelled outcome, got {o:?}"),
    }
    let exact = exact_misses(&nest, cache, 2);
    for (c, e) in counts.iter().zip(&exact) {
        assert!(c >= e, "pre-cancelled run must still overcount soundly");
    }
}

/// The session's budget and cancel token govern every entry point, not
/// just the `try_*` forms: the panicking forms return the same degraded
/// counts, they only drop the `Outcome`.
#[test]
fn every_entry_point_runs_under_the_session_budget() {
    let nest = cme::kernels::mmult(12);
    let cache = CacheConfig::new(1024, 2, 32, 4).expect("geometry");
    let token = CancelToken::new();
    token.cancel();
    let sessions = [
        Analyzer::new(cache).budget(Budget::unlimited().with_max_solves(10)),
        Analyzer::new(cache).cancel_token(token),
    ];
    for analyzer in sessions {
        let governed = analyzer
            .try_analyze(&nest)
            .expect("governed paths never error");
        assert!(governed.outcome.is_exhausted(), "{:?}", governed.outcome);
        let degraded = governed.analysis;
        assert_eq!(degraded.total_misses(), nest.access_count());

        let batch = std::slice::from_ref(&nest);
        let governed = analyzer.try_analyze_batch(batch).expect("governed");
        assert!(
            governed[0].outcome.is_exhausted(),
            "{:?}",
            governed[0].outcome
        );
        assert_eq!(governed[0].analysis, degraded);
        assert_eq!(analyzer.analyze(&nest), degraded, "analyze");
        assert_eq!(
            analyzer.analyze_batch(batch),
            std::slice::from_ref(&degraded)
        );
        assert_eq!(
            analyzer.analyze_with_options(&nest, &Default::default()),
            degraded,
            "analyze_with_options"
        );
    }
}

#[test]
fn tiny_budget_truncation_is_visible_in_stats() {
    let nest = cme::kernels::mmult(12);
    let cache = CacheConfig::new(1024, 2, 32, 4).expect("geometry");
    let analyzer = Analyzer::new(cache).budget(Budget::unlimited().with_max_solves(10));
    let governed = analyzer.try_analyze(&nest).expect("no error path here");
    assert!(governed.outcome.is_exhausted());
    let stats = analyzer.stats();
    assert!(
        stats.truncated_points > 0,
        "exhaustion must record truncated points: {stats}"
    );
    assert!(stats.exhausted_analyses >= 1);
    match governed.outcome {
        Outcome::Exhausted {
            reason,
            truncated_points,
            completed_fraction,
            ..
        } => {
            assert_eq!(reason, ExhaustReason::SolveBudget);
            assert!(truncated_points > 0);
            assert!((0.0..=1.0).contains(&completed_fraction));
        }
        Outcome::Complete => unreachable!(),
    }
}

#[test]
fn worker_panic_poisons_one_query_not_the_session() {
    let nest = cme::kernels::sor(16);
    let cache = CacheConfig::new(1024, 2, 32, 4).expect("geometry");
    let analyzer = Analyzer::new(cache).threads(3);
    let baseline = analyzer.analyze(&nest);

    analyzer.inject_worker_panic(0);
    let err = analyzer
        .try_analyze(&nest)
        .expect_err("armed injection must fail the query");
    match &err {
        AnalysisError::WorkerPanic { message } => {
            assert!(!message.is_empty(), "panic payload is preserved")
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert!(analyzer.stats().worker_panics >= 1);

    // The session survives: the very next query answers exactly.
    let after = analyzer.analyze(&nest);
    assert_eq!(after, baseline, "session state survived the panic");
}

#[test]
fn adversarial_address_magnitude_is_a_typed_error() {
    let mut b = NestBuilder::new();
    b.ct_loop("i", 1, 8);
    let a = b.array("A", &[8], i64::MAX / 2);
    b.reference(a, AccessKind::Read, &[("i", 0)]);
    let nest = b.build().expect("structurally valid nest");
    let cache = CacheConfig::new(512, 1, 16, 4).expect("geometry");
    let err = Analyzer::new(cache)
        .try_analyze(&nest)
        .expect_err("bases near i64::MAX must be rejected");
    match err {
        AnalysisError::Overflow { context } => {
            assert!(context.contains("magnitude"), "{context}")
        }
        other => panic!("expected Overflow, got {other:?}"),
    }
}

#[test]
fn full_budget_governed_run_is_bit_identical_to_ungoverned() {
    let nest = cme::kernels::adi(16);
    let cache = CacheConfig::new(2048, 4, 32, 4).expect("geometry");
    for threads in [1usize, 3] {
        let plain = Analyzer::new(cache).threads(threads).analyze(&nest);
        let governed = Analyzer::new(cache)
            .threads(threads)
            .budget(Budget::unlimited())
            .try_analyze(&nest)
            .expect("unlimited budget cannot error");
        assert!(governed.outcome.is_complete());
        assert_eq!(governed.analysis, plain);
    }
}

/// Governed parametric sweeps (Section 5.1.3 under a budget): a sweep
/// whose samples truncate must degrade to the exhaustive fallback whole —
/// never a half-fitted function — and its truncated samples must never
/// reach the session's memos or the persistent store.
mod sweeps {
    use super::*;
    use cme::core::{SweepParameter, SweepRequest};
    use cme::ArtifactStore;
    use std::sync::Arc;

    /// Two 64-element arrays scanned in lockstep; the sweep moves B's
    /// base, the geometry that fits a clean quasi-polynomial at full
    /// budget.
    fn spacing_nest() -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 0, 64);
        let a = b.array("A", &[64], 0);
        let c = b.array("B", &[64], 4096);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.reference(c, AccessKind::Read, &[("i", 0)]);
        b.build().expect("valid nest")
    }

    fn spacing_request() -> SweepRequest {
        let array = cme::ir::ArrayId::from_index(1);
        SweepRequest::new(SweepParameter::BaseSpacing { array }, 0, 128, 8)
    }

    fn small_cache() -> CacheConfig {
        CacheConfig::new(1024, 1, 32, 4).expect("geometry")
    }

    fn tiny_budget() -> Budget {
        Budget::unlimited().with_max_solves(1)
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cme-governor-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A solve budget too small for even one candidate degrades the
    /// sweep to the exhaustive fallback as a whole: no function, no
    /// certificate, every truncation visible in `degraded`.
    #[test]
    fn tiny_budget_sweep_degrades_whole_never_half_fitted() {
        let nest = spacing_nest();
        let request = spacing_request();
        let analyzer = Analyzer::new(small_cache()).budget(tiny_budget());
        let result = analyzer
            .sweep(&nest, &request)
            .expect("budgets never error");
        assert!(result.fallback, "truncated sweep must fall back: {result}");
        assert!(result.function.is_none(), "no half-fitted function");
        assert!(result.certificate.is_none(), "no certificate without a fit");
        assert!(result.degraded > 0, "truncation must be visible: {result}");
        let stats = analyzer.stats();
        assert_eq!(stats.sweeps_fitted, 0, "{stats}");
        assert_eq!(stats.sweeps_fallback, 1, "{stats}");
    }

    /// Repeating the identical truncated sweep in the same session must
    /// recompute — truncated samples never enter the session's pipeline
    /// memos — while a full-budget session fits and serves its repeat
    /// from those memos without re-scanning.
    #[test]
    fn truncated_sweeps_are_never_memoized() {
        let nest = spacing_nest();
        let request = spacing_request();
        let governed = Analyzer::new(small_cache()).budget(tiny_budget());
        let first = governed.sweep(&nest, &request).expect("no error path");
        let second = governed.sweep(&nest, &request).expect("no error path");
        assert!(first.fallback && second.fallback);
        assert!(
            second.degraded > 0,
            "the repeat must truncate again: {second}"
        );
        assert_eq!(second, first, "a repeat recomputes the same fallback");
        assert_eq!(
            governed.stats().sweeps_fallback,
            2,
            "both calls must take the fallback path: {}",
            governed.stats()
        );

        let full = Analyzer::new(small_cache());
        let cold = full.sweep(&nest, &request).expect("no error path");
        let scanned = full.stats().scans_executed;
        let warm = full.sweep(&nest, &request).expect("no error path");
        assert!(cold.function.is_some(), "full budget must fit: {cold}");
        let stats = full.stats();
        assert_eq!(
            stats.scans_executed, scanned,
            "complete scans are memoized: {stats}"
        );
        assert!(
            stats.scans_reused > 0,
            "the repeat is served by the memos: {stats}"
        );
        assert_eq!(warm, cold);
    }

    /// Truncated sweeps never reach the artifact store: a fresh session
    /// over the same store sees only cold misses and fits exactly as a
    /// storeless sweep does, and only its complete samples are persisted
    /// for the session after it.
    #[test]
    fn truncated_sweeps_are_never_persisted() {
        let nest = spacing_nest();
        let request = spacing_request();
        let dir = store_dir("persist");
        {
            let store = Arc::new(ArtifactStore::open(&dir).unwrap());
            let governed = Analyzer::new(small_cache())
                .store(Arc::clone(&store))
                .budget(tiny_budget());
            let truncated = governed.sweep(&nest, &request).expect("no error path");
            assert!(truncated.fallback && truncated.degraded > 0, "{truncated}");
            assert_eq!(store.entry_count(), 0, "truncated samples never land");
            assert_eq!(store.stats().writes, 0);
        }
        let cold = {
            let store = Arc::new(ArtifactStore::open(&dir).unwrap());
            let full = Analyzer::new(small_cache()).store(store);
            let cold = full.sweep(&nest, &request).expect("no error path");
            let stats = full.stats();
            assert_eq!(
                stats.store_hits, 0,
                "no truncated sample was served: {stats}"
            );
            assert!(stats.store_writes > 0, "complete samples persist: {stats}");
            cold
        };
        assert!(cold.function.is_some(), "full budget must fit: {cold}");
        let storeless = Analyzer::new(small_cache())
            .sweep(&nest, &request)
            .expect("no error path");
        assert_eq!(cold, storeless);
        // The complete samples *are* persisted: a third session reads them
        // back and re-fits bit-identically without re-analyzing.
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let reader = Analyzer::new(small_cache()).store(store);
        let warm = reader.sweep(&nest, &request).expect("no error path");
        let stats = reader.stats();
        assert!(
            stats.store_hits > 0,
            "complete samples must persist: {stats}"
        );
        assert_eq!(stats.store_misses, 0, "every sample was persisted: {stats}");
        assert_eq!(warm, cold);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
