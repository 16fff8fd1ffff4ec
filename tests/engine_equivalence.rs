//! The staged engine's correctness contract: an [`Analyzer`] session
//! — cold or memo-warm, sequential or parallel, batched or per-nest —
//! must produce **bit-identical** `NestAnalysis` results to the reference
//! oracle (`cme::core::solve::reference_analysis`), across randomized
//! nests, cache geometries, and analysis options. Warmth is manufactured
//! the way the optimizers do: by re-analyzing layout-mutated variants
//! (moved bases, padded columns) of the same structure before the nest
//! under test.

use cme::cache::CacheConfig;
use cme::core::solve::reference_analysis;
use cme::core::{AnalysisOptions, Analyzer};
use cme::ir::LoopNest;
use cme_testgen::{arb_cache, arb_nest, NestDistribution};
use proptest::prelude::*;

/// A spread of option sets covering every verdict-relevant switch.
fn option_sets() -> Vec<AnalysisOptions> {
    vec![
        AnalysisOptions::default(),
        AnalysisOptions::builder().epsilon(64).build(),
        AnalysisOptions::builder()
            .exact_equation_counts(true)
            .build(),
        AnalysisOptions::builder().collect_miss_points(true).build(),
    ]
}

/// Moves every array base by `shift` and pads the first column by `pad`,
/// producing a same-structure layout sibling that shares engine memos with
/// the original wherever the invalidation keys say it may.
fn mutate_layout(nest: &LoopNest, shift: i64, pad: i64) -> LoopNest {
    let mut out = nest.clone();
    let mut ids = Vec::new();
    for r in out.references() {
        if !ids.contains(&r.array()) {
            ids.push(r.array());
        }
    }
    for (k, id) in ids.iter().enumerate() {
        let base = out.array(*id).base();
        out.array_mut(*id).set_base(base + shift * (k as i64 + 1));
    }
    if pad > 0 {
        if let Some(id) = ids.first() {
            let cols = out.array(*id).column_size();
            out.array_mut(*id).pad_column_to(cols + pad);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold engine, sequential and parallel, across the option matrix.
    #[test]
    fn cold_sessions_match_reference(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
    ) {
        for opts in option_sets() {
            let reference = reference_analysis(&nest, cache, &opts);
            let seq = Analyzer::new(cache)
                .options(opts.clone())
                .analyze(&nest);
            prop_assert_eq!(&reference, &seq, "sequential engine diverged");
            let par = Analyzer::new(cache)
                .options(opts.clone())
                .threads(3)
                .analyze(&nest);
            prop_assert_eq!(&reference, &par, "parallel engine diverged");
        }
    }

    /// A memo-warm session (primed on layout siblings of the same nest
    /// structure) still reproduces the reference result bit for bit.
    #[test]
    fn warm_sessions_match_reference(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
        shift in 1i64..256,
        pad in 0i64..3,
    ) {
        for opts in option_sets() {
            let analyzer = Analyzer::new(cache).options(opts.clone());
            // Prime the memo tables on mutated layouts first.
            analyzer.analyze(&mutate_layout(&nest, shift, pad));
            analyzer.analyze(&mutate_layout(&nest, 2 * shift, 0));
            let warm = analyzer.analyze(&nest);
            prop_assert_eq!(
                &reference_analysis(&nest, cache, &opts),
                &warm,
                "warm engine diverged (shift {}, pad {})",
                shift,
                pad
            );
        }
    }

    /// Re-analyzing the same nest from a hot memo is a pure cache replay
    /// and must be idempotent; with caching disabled the session runs the
    /// same pipeline without memos and must match the oracle too.
    #[test]
    fn replay_and_passthrough_match_reference(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
    ) {
        let opts = AnalysisOptions::default();
        let reference = reference_analysis(&nest, cache, &opts);
        let analyzer = Analyzer::new(cache).options(opts.clone());
        let first = analyzer.analyze(&nest);
        let replay = analyzer.analyze(&nest);
        prop_assert_eq!(&first, &replay, "memo replay not idempotent");
        prop_assert_eq!(&reference, &replay);
        let off = Analyzer::new(cache)
            .options(opts)
            .caching(false)
            .analyze(&nest);
        prop_assert_eq!(&reference, &off, "uncached session diverged");
    }
}

/// Deterministic guard: the warm path actually exercises the memo tables
/// (a keying regression that silently disabled reuse would otherwise keep
/// every equivalence test green while killing the speedup).
#[test]
fn warm_reuse_actually_happens() {
    let cache = CacheConfig::new(2048, 2, 32, 4).unwrap();
    let n = 12;
    let nest = cme::kernels::mmult_with_bases(n, 0, n * n, 2 * n * n);
    let analyzer = Analyzer::new(cache);
    analyzer.analyze(&nest);
    let moved = mutate_layout(&nest, 160, 0);
    analyzer.analyze(&moved);
    let stats = analyzer.stats();
    assert!(
        stats.reuse_reused > 0,
        "layout move must reuse cached reuse vectors: {stats}"
    );
    assert!(stats.memo_hit_rate() > 0.0, "{stats}");
    // The per-stage accounting must be live: every pipeline stage did real
    // work here, so every stage clock must have advanced.
    assert!(stats.lowered_built > 0, "{stats}");
    assert!(stats.time_lower > std::time::Duration::ZERO, "{stats}");
    assert!(stats.time_reuse > std::time::Duration::ZERO, "{stats}");
    assert!(stats.time_solve > std::time::Duration::ZERO, "{stats}");
    assert!(stats.time_cascade > std::time::Duration::ZERO, "{stats}");
    assert!(stats.time_classify > std::time::Duration::ZERO, "{stats}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `analyze_batch` over a nest and its layout siblings is bit-identical
    /// to analyzing each nest in its own cold session.
    #[test]
    fn batch_matches_per_nest_sessions(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
        shift in 1i64..256,
    ) {
        let variants = [
            nest.clone(),
            mutate_layout(&nest, shift, 0),
            mutate_layout(&nest, 2 * shift, 1),
        ];
        let solo: Vec<_> = variants
            .iter()
            .map(|n| Analyzer::new(cache).analyze(n))
            .collect();
        let batched = Analyzer::new(cache).threads(3);
        prop_assert_eq!(batched.analyze_batch(&variants), solo);
    }
}
