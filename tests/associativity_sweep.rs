//! The headline generalization of the paper: the same CME machinery is
//! exact for caches of *arbitrary associativity*. Sweep k ∈ {1, 2, 4, 8,
//! full} on several kernels and compare against the simulator.

use cme::cache::{simulate_nest, CacheConfig};
use cme::core::solve::reference_analysis;
use cme::core::AnalysisOptions;
use cme::kernels;

fn check(nest: &cme::ir::LoopNest, cache: CacheConfig) {
    let analysis = reference_analysis(nest, cache, &AnalysisOptions::default());
    let sim = simulate_nest(nest, cache);
    assert_eq!(
        analysis.total_misses(),
        sim.total().misses(),
        "`{}` on {cache}",
        nest.name()
    );
}

#[test]
fn mmult_across_associativities() {
    let nest = kernels::mmult_with_bases(12, 0, 144, 288);
    for assoc in [1, 2, 4, 8] {
        check(&nest, CacheConfig::new(1024, assoc, 32, 4).unwrap());
    }
}

#[test]
fn mmult_fully_associative() {
    let nest = kernels::mmult_with_bases(12, 0, 144, 288);
    check(&nest, CacheConfig::fully_associative(512, 32, 4).unwrap());
}

#[test]
fn sor_across_associativities() {
    let nest = kernels::sor(20);
    for assoc in [1, 2, 4] {
        check(&nest, CacheConfig::new(512, assoc, 16, 4).unwrap());
    }
}

#[test]
fn adi_across_associativities() {
    let nest = kernels::adi(12);
    for assoc in [1, 2, 4] {
        check(&nest, CacheConfig::new(512, assoc, 16, 4).unwrap());
    }
}

#[test]
fn tom_across_associativities() {
    let nest = kernels::tom(12);
    for assoc in [1, 2, 4, 8] {
        check(&nest, CacheConfig::new(1024, assoc, 32, 4).unwrap());
    }
}

/// `gauss` has non-uniformly generated references, so the count is sound
/// but over-approximate at every associativity (the paper's +1.0% row).
#[test]
fn gauss_sound_across_associativities() {
    let nest = kernels::gauss(12);
    for assoc in [1, 2, 4] {
        let cache = CacheConfig::new(512, assoc, 16, 4).unwrap();
        let analysis = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let sim = simulate_nest(&nest, cache);
        assert!(
            analysis.total_misses() >= sim.total().misses(),
            "under-count on gauss at k={assoc}"
        );
    }
}

/// Higher associativity at fixed set count can only reduce the CME count
/// (the analytical analogue of LRU stack inclusion).
#[test]
fn cme_count_monotone_in_ways_at_fixed_sets() {
    let nest = kernels::mmult_with_bases(12, 0, 144, 288);
    // 16 sets of 16B lines; 1, 2, 4 ways.
    let counts: Vec<u64> = [(256i64, 1i64), (512, 2), (1024, 4)]
        .iter()
        .map(|&(size, k)| {
            let cache = CacheConfig::new(size, k, 16, 4).unwrap();
            reference_analysis(&nest, cache, &AnalysisOptions::default()).total_misses()
        })
        .collect();
    assert!(counts[1] <= counts[0], "{counts:?}");
    assert!(counts[2] <= counts[1], "{counts:?}");
}
