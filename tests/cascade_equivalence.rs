//! Bit-identity of the run-compressed sliding-window cascade.
//!
//! PR 2 reworked the engine's per-vector classification loop: survivor sets
//! are run-compressed (`RunSet`), interior windows slide incrementally
//! instead of being rescanned, and each reference's survivor runs are
//! sharded into blocks scanned in parallel. None of that may change a
//! single bit of the result: this suite compares the engine — sequential,
//! sharded, and on the no-memo path taken by oversized nests — against
//! the reference oracle (`cme::core::solve::reference_analysis`) on the
//! paper's Table-1 matmul, the Figure-8 configuration, and a proptest
//! corpus, for associativities k ∈ {1, 2, 4, 8, full}, plus the whole
//! Table-1 suite on a 4-way cache.
//!
//! Equality is on whole [`cme::core::NestAnalysis`] values, so it covers
//! total and per-reference miss counts, every per-vector report
//! (examined / cold / replacement / contention counts), and the collected
//! miss-point sets including their order.

use cme::cache::CacheConfig;
use cme::core::solve::reference_analysis;
use cme::core::{AnalysisOptions, Analyzer, NestAnalysis};
use cme::ir::LoopNest;
use cme::kernels::{mmult_with_bases, table1_suite};
use cme_testgen::{arb_cache, arb_nest, NestDistribution};
use proptest::prelude::*;

/// The Table-1 geometry (8 KB, 32-byte lines) at k ∈ {1, 2, 4, 8} plus a
/// fully-associative variant (every line in one set — the k = Ns·k corner
/// the sliding-window per-set tallies must still get right).
fn caches() -> Vec<CacheConfig> {
    let mut caches: Vec<CacheConfig> = [1, 2, 4, 8]
        .into_iter()
        .map(|k| CacheConfig::new(8192, k, 32, 4).unwrap())
        .collect();
    caches.push(CacheConfig::fully_associative(2048, 32, 4).unwrap());
    caches
}

/// Option sets exercising every cascade path: fast (early-exit) windows,
/// exact contention counts, and ε early stop — each with miss-point
/// collection so point sets are compared too.
fn option_sets() -> Vec<AnalysisOptions> {
    vec![
        AnalysisOptions::builder().collect_miss_points(true).build(),
        AnalysisOptions::builder()
            .collect_miss_points(true)
            .exact_equation_counts(true)
            .build(),
        AnalysisOptions::builder()
            .collect_miss_points(true)
            .epsilon(64)
            .build(),
    ]
}

/// Runs the reworked cascade three ways and asserts each is bit-identical
/// to the reference implementation.
fn assert_cascade_matches_reference(
    nest: &LoopNest,
    cache: CacheConfig,
    opts: &AnalysisOptions,
    what: &str,
) -> NestAnalysis {
    let reference = reference_analysis(nest, cache, opts);
    let seq = Analyzer::new(cache).options(opts.clone()).analyze(nest);
    assert_eq!(reference, seq, "sequential cascade diverged: {what}");
    let sharded = Analyzer::new(cache)
        .options(opts.clone())
        .threads(4)
        .analyze(nest);
    assert_eq!(reference, sharded, "sharded cascade diverged: {what}");
    // Force the no-memo path every Figure-8-scale nest takes.
    let uncached = Analyzer::new(cache)
        .options(opts.clone())
        .threads(4)
        .max_cached_points(1)
        .analyze(nest);
    assert_eq!(reference, uncached, "uncached path diverged: {what}");
    reference
}

#[test]
fn table1_matmul_bit_identical_across_associativities() {
    let n = 17;
    let nest = mmult_with_bases(n, 0, n * n, 2 * n * n);
    for cache in caches() {
        for opts in option_sets() {
            let r = assert_cascade_matches_reference(
                &nest,
                cache,
                &opts,
                &format!("table-1 matmul, k={}, {opts:?}", cache.assoc()),
            );
            assert!(r.total_misses() > 0, "degenerate fixture");
        }
    }
}

#[test]
fn fig8_configuration_bit_identical_across_associativities() {
    // The Figure-8 layout: Z, X, Y at the paper's bases (4192-element
    // offset keeps the arrays off address 0, as in `bench/src/bin/fig8.rs`).
    let n = 20;
    let nest = mmult_with_bases(n, 4192, 4192 + n * n, 4192 + 2 * n * n);
    for cache in caches() {
        for opts in option_sets() {
            assert_cascade_matches_reference(
                &nest,
                cache,
                &opts,
                &format!("fig-8 configuration, k={}, {opts:?}", cache.assoc()),
            );
        }
    }
}

#[test]
fn table1_suite_bit_identical_on_a_4way_cache() {
    // Every Table-1 kernel on a small k-way cache, where the density
    // heuristic sends some scan sets dense and others run-compressed.
    let cache = CacheConfig::new(2048, 4, 32, 4).unwrap();
    let opts = AnalysisOptions::builder().collect_miss_points(true).build();
    for nest in table1_suite(16) {
        assert_cascade_matches_reference(&nest, cache, &opts, nest.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random nests from the shared corpus, random small caches (which
    /// span k ∈ {1, 2, 4, 8, full}): the cascade must stay bit-identical
    /// under both fast and exact window modes.
    #[test]
    fn random_nests_bit_identical(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
        exact in proptest::bool::ANY,
    ) {
        let opts = AnalysisOptions::builder()
            .collect_miss_points(true)
            .exact_equation_counts(exact)
            .build();
        let reference = reference_analysis(&nest, cache, &opts);
        let seq = Analyzer::new(cache).options(opts.clone()).analyze(&nest);
        prop_assert_eq!(&reference, &seq, "sequential cascade diverged");
        let sharded = Analyzer::new(cache)
            .options(opts.clone())
            .threads(3)
            .analyze(&nest);
        prop_assert_eq!(&reference, &sharded, "sharded cascade diverged");
    }
}
