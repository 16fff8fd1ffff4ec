use super::*;
use crate::governor::{CancelToken, Outcome};
use crate::solve::reference_analysis;
use cme_cache::CacheConfig;
use cme_ir::{AccessKind, LoopNest, NestBuilder};
use std::time::Duration;

fn matmul(n: i64, bz: i64, bx: i64, by: i64) -> LoopNest {
    let mut b = NestBuilder::new();
    b.name("mmult");
    b.ct_loop("i", 1, n).ct_loop("k", 1, n).ct_loop("j", 1, n);
    let z = b.array("Z", &[n, n], bz);
    let x = b.array("X", &[n, n], bx);
    let y = b.array("Y", &[n, n], by);
    b.reference(z, AccessKind::Read, &[("j", 0), ("i", 0)]);
    b.reference(x, AccessKind::Read, &[("k", 0), ("i", 0)]);
    b.reference(y, AccessKind::Read, &[("j", 0), ("k", 0)]);
    b.reference(z, AccessKind::Write, &[("j", 0), ("i", 0)]);
    b.build().unwrap()
}

#[test]
fn engine_matches_reference_warm_and_cold() {
    let cache = CacheConfig::new(2048, 2, 32, 4).unwrap();
    let opts = AnalysisOptions::builder().collect_miss_points(true).build();
    let analyzer = Analyzer::new(cache).options(opts.clone());
    for bases in [[0, 300, 777], [0, 300, 777], [32, 300, 777], [5, 311, 801]] {
        let nest = matmul(12, bases[0], bases[1], bases[2]);
        let reference = reference_analysis(&nest, cache, &opts);
        let cold = analyzer.analyze(&nest);
        let warm = analyzer.analyze(&nest);
        assert_eq!(reference, cold);
        assert_eq!(reference, warm);
    }
    let stats = analyzer.stats();
    assert!(stats.lowered_reused > 0, "{stats}");
    assert!(stats.cascades_reused > 0, "{stats}");
    assert!(stats.scans_reused > 0, "{stats}");
    assert!(stats.memo_hit_rate() > 0.0);
}

#[test]
fn engine_matches_reference_with_epsilon_and_exact() {
    let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
    for opts in [
        AnalysisOptions::builder().epsilon(200).build(),
        AnalysisOptions::builder()
            .exact_equation_counts(true)
            .build(),
    ] {
        let nest = matmul(8, 0, 4096, 8192);
        let reference = reference_analysis(&nest, cache, &opts);
        let analyzer = Analyzer::new(cache).options(opts.clone());
        assert_eq!(reference, analyzer.analyze(&nest));
        assert_eq!(reference, analyzer.analyze(&nest), "warm pass diverged");
    }
}

#[test]
fn batch_is_bit_identical_to_per_nest_analyses() {
    let cache = CacheConfig::new(2048, 2, 32, 4).unwrap();
    let ls = cache.line_elems();
    let nests: Vec<LoopNest> = vec![
        matmul(10, 0, 300, 777),
        matmul(10, 0, 300, 777 + ls), // shares structure + most artifacts
        matmul(7, 5, 311, 801),       // different structure entirely
    ];
    let solo = Analyzer::new(cache).threads(3);
    let one_by_one: Vec<NestAnalysis> = nests.iter().map(|n| solo.analyze(n)).collect();

    // The batch shares memo tables across its nests: planned in order on
    // one thread, the layout twin always reuses the first nest's solve
    // sets in the same call. (With more threads two workers may both miss
    // and build the same set, so the reuse count is scheduling-dependent.)
    let serial = Analyzer::new(cache).threads(1);
    assert_eq!(serial.analyze_batch(&nests), one_by_one);
    let stats = serial.stats();
    assert!(stats.cascades_reused > 0, "{stats}");

    // Pooled, the results are the same, and re-batching is a pure memo
    // sweep.
    let batched = Analyzer::new(cache).threads(3);
    assert_eq!(batched.analyze_batch(&nests), one_by_one);
    let built = batched.stats().cascades_built;
    assert_eq!(batched.analyze_batch(&nests), one_by_one);
    assert_eq!(batched.stats().cascades_built, built, "warm batch rebuilt");
}

#[test]
fn governed_batch_tags_outcomes_per_nest() {
    let cache = CacheConfig::new(1024, 1, 32, 4).unwrap();
    let nests = [matmul(6, 0, 100, 200), matmul(8, 0, 128, 256)];
    let analyzer = Analyzer::new(cache);
    let governed = analyzer.try_analyze_batch(&nests).unwrap();
    assert_eq!(governed.len(), 2);
    for g in &governed {
        assert_eq!(g.outcome, Outcome::Complete);
    }
    assert_eq!(governed[0].analysis, analyzer.analyze(&nests[0]));

    // A cancelled batch degrades every nest to the sound all-cold bound.
    let token = CancelToken::new();
    token.cancel();
    let cancelled = Analyzer::new(cache).cancel_token(token);
    let degraded = cancelled.try_analyze_batch(&nests).unwrap();
    for (g, nest) in degraded.iter().zip(&nests) {
        assert!(g.outcome.is_exhausted());
        let per_ref = nest.references().len() as u64;
        assert_eq!(g.analysis.total_misses(), nest.space().count() * per_ref);
    }
}

#[test]
fn caching_off_is_a_passthrough() {
    let cache = CacheConfig::new(1024, 1, 32, 4).unwrap();
    let nest = matmul(6, 0, 100, 200);
    let analyzer = Analyzer::new(cache).caching(false);
    let a = analyzer.analyze(&nest);
    let b = analyzer.analyze(&nest);
    assert_eq!(a, b);
    assert_eq!(
        a,
        reference_analysis(&nest, cache, &AnalysisOptions::default())
    );
    // The same staged pipeline, with every artifact rebuilt every time.
    let stats = analyzer.stats();
    assert_eq!(stats.passthroughs, 8, "4 refs x 2 analyses uncached");
    assert_eq!(stats.cascades_built, 8, "{stats}");
    let reused = [
        stats.lowered_reused,
        stats.reuse_reused,
        stats.cascades_reused,
        stats.scans_reused,
    ];
    assert_eq!(reused, [0; 4], "{stats}");
}

#[test]
fn moving_one_array_reuses_other_cascades() {
    let cache = CacheConfig::new(1024, 1, 32, 4).unwrap();
    let ls = cache.line_elems();
    let analyzer = Analyzer::new(cache);
    let n1 = matmul(8, 0, 128, 256);
    let n2 = matmul(8, 0, 128, 256 + ls); // move Y by a whole line
    let reference = reference_analysis(&n2, cache, &AnalysisOptions::default());
    analyzer.analyze(&n1);
    let built_before = analyzer.stats().cascades_built;
    assert_eq!(analyzer.analyze(&n2), reference);
    // Every reference keeps B mod Ls, so no cascade is rebuilt.
    assert_eq!(analyzer.stats().cascades_built, built_before);
}

/// The lower memo is keyed by hash pair and cleared at the reuse table's
/// cap, so a long-lived session serving distinct layouts stays bounded.
#[test]
fn lower_memo_is_capped() {
    let cache = CacheConfig::new(1024, 1, 32, 4).unwrap();
    let analyzer = Analyzer::new(cache);
    for base in 0..=memo::REUSE_CAP as i64 {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 2);
        let a = b.array("A", &[2], base);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        analyzer.analyze(&b.build().unwrap());
    }
    assert_eq!(analyzer.stats().lowered_built, memo::REUSE_CAP as u64 + 1);
    assert!(memo::relock(&analyzer.lower_memo).len() <= memo::REUSE_CAP);
}

/// Nests that differ only in names share every memoized artifact, yet
/// each result carries the caller's nest name and reference labels.
#[test]
fn memo_hits_keep_the_callers_names() {
    let named = |nest: &str, array: &str| {
        let mut b = NestBuilder::new();
        b.name(nest);
        b.ct_loop("i", 1, 64);
        let a = b.array(array, &[64], 0);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.build().unwrap()
    };
    let cache = CacheConfig::new(1024, 1, 32, 4).unwrap();
    let analyzer = Analyzer::new(cache);
    let (first, second) = (named("first", "A"), named("second", "B"));
    let a = analyzer.analyze(&first);
    let b = analyzer.analyze(&second);
    assert_eq!(
        analyzer.stats().lowered_reused,
        1,
        "names must not split the memo"
    );
    assert_eq!(
        (a.nest_name.as_str(), b.nest_name.as_str()),
        ("first", "second")
    );
    for (nest, result) in [(&first, &a), (&second, &b)] {
        let labels: Vec<&str> = nest.references().iter().map(|r| r.label()).collect();
        let got: Vec<&str> = result.per_ref.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(got, labels);
    }
    assert_ne!(a.per_ref[0].label, b.per_ref[0].label, "degenerate fixture");
    assert_eq!(a.total_misses(), b.total_misses());
}

#[test]
fn stage_times_are_populated() {
    let cache = CacheConfig::new(2048, 2, 32, 4).unwrap();
    let analyzer = Analyzer::new(cache);
    analyzer.analyze(&matmul(12, 0, 300, 777));
    let stats = analyzer.stats();
    assert!(stats.time_lower > Duration::ZERO, "{stats}");
    assert!(stats.time_reuse > Duration::ZERO, "{stats}");
    assert!(stats.time_solve > Duration::ZERO, "{stats}");
    assert!(stats.time_cascade > Duration::ZERO, "{stats}");
    assert!(stats.time_classify > Duration::ZERO, "{stats}");
}

#[test]
fn stats_helpers_on_zero_queries() {
    let stats = EngineStats::default();
    assert_eq!(stats.memo_hit_rate(), 0.0);
    // A fresh session that has answered nothing reports the same.
    let analyzer = Analyzer::new(CacheConfig::new(1024, 1, 32, 4).unwrap());
    assert_eq!(analyzer.stats().memo_hit_rate(), 0.0);
}

#[test]
fn stats_helpers_saturate_instead_of_overflowing() {
    let stats = EngineStats {
        lowered_built: u64::MAX,
        lowered_reused: u64::MAX,
        reuse_built: u64::MAX,
        reuse_reused: u64::MAX,
        cascades_built: u64::MAX,
        cascades_reused: u64::MAX,
        scans_executed: u64::MAX,
        scans_reused: u64::MAX,
        ..EngineStats::default()
    };
    let rate = stats.memo_hit_rate();
    assert!(rate.is_finite() && (0.0..=1.0).contains(&rate));
    assert_eq!(rate, 1.0, "hits and total both saturate to u64::MAX");
}

#[test]
fn stats_hit_rate_counts_all_four_memo_families() {
    let stats = EngineStats {
        lowered_built: 1,
        lowered_reused: 1,
        reuse_built: 1,
        reuse_reused: 1,
        cascades_built: 1,
        cascades_reused: 1,
        scans_executed: 1,
        scans_reused: 1,
        ..EngineStats::default()
    };
    assert!((stats.memo_hit_rate() - 0.5).abs() < 1e-12);
}

#[test]
fn traced_analysis_collects_points_and_stays_memoized() {
    let cache = CacheConfig::new(1024, 2, 32, 4).unwrap();
    let nest = matmul(8, 0, 100, 200);
    let analyzer = Analyzer::new(cache);
    let plain = analyzer.analyze(&nest);
    let options = AnalysisOptions {
        collect_miss_points: true,
        ..analyzer.current_options().clone()
    };
    let traced = analyzer.analyze_with_options(&nest, &options);
    assert_eq!(traced.total_misses(), plain.total_misses());
    let collected: usize = traced
        .per_ref
        .iter()
        .map(|r| r.replacement_miss_points.len() + r.cold_miss_points.len())
        .sum();
    assert_eq!(collected as u64, traced.total_misses());
    assert!(
        analyzer.stats().scans_reused > 0,
        "traced re-analysis must reuse the plain run's scans"
    );
    // Session options are untouched.
    assert!(!analyzer.current_options().collect_miss_points);
}

/// Miss points traced at k=8 — real cascade output, not synthetic
/// runs — survive run compression losslessly: same count, same
/// points, same lexicographic order, random access intact.
#[test]
fn traced_miss_points_at_k8_run_compress_losslessly() {
    use crate::pointset::{PointSet, RunSet};
    let cache = CacheConfig::new(512, 8, 16, 4).unwrap();
    let nest = matmul(8, 0, 100, 200);
    let options = AnalysisOptions {
        collect_miss_points: true,
        ..AnalysisOptions::default()
    };
    let traced = Analyzer::new(cache).analyze_with_options(&nest, &options);
    assert!(traced.total_misses() > 0, "degenerate fixture");
    for (ri, r) in traced.per_ref.iter().enumerate() {
        let mut pts: Vec<Vec<i64>> = r
            .cold_miss_points
            .iter()
            .cloned()
            .chain(r.replacement_miss_points.iter().map(|(p, _)| p.clone()))
            .collect();
        pts.sort();
        pts.dedup();
        let mut ps = PointSet::new(nest.depth());
        for p in &pts {
            ps.push(p);
        }
        let rs = RunSet::from_point_set(&ps);
        assert_eq!(rs.len(), ps.len(), "ref {ri}: count changed");
        assert_eq!(rs.recount(), rs.len(), "ref {ri}: run totals drifted");
        assert_eq!(rs.to_point_set(), ps, "ref {ri}: points changed");
        for (idx, p) in pts.iter().enumerate() {
            assert_eq!(&rs.point(idx as u64), p, "ref {ri}: random access");
        }
    }
}
