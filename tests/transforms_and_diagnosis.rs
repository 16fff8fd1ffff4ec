//! End-to-end tests of the compiler-side transformations (interchange,
//! fusion, strip-mining/tiling) composed with the CME analysis, plus the
//! diagnosis-driven workflow of the paper's Section 7 vision.

use cme::cache::{simulate_nest, CacheConfig};
use cme::core::solve::reference_analysis;
use cme::core::AnalysisOptions;
use cme::ir::transform::{fuse, interchange, strip_mine, tile_nest};
use cme::kernels;
use cme::opt::{diagnose, Recommendation};

fn small_cache() -> CacheConfig {
    CacheConfig::new(1024, 1, 32, 4).unwrap()
}

/// Mechanically fusing the two unfused ADI nests yields a nest whose CME
/// and simulated miss counts equal the hand-built fused kernel's.
#[test]
fn mechanical_fusion_matches_handwritten_adi() {
    let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
    let (n1, n2) = kernels::adi_fusion_unfused();
    let mechanical = fuse(&n1, &n2).expect("ADI nests are fusable");
    let handwritten = kernels::adi_fusion_fused();
    assert_eq!(
        mechanical.references().len(),
        handwritten.references().len()
    );
    let opts = AnalysisOptions::default();
    assert_eq!(
        reference_analysis(&mechanical, cache, &opts).total_misses(),
        reference_analysis(&handwritten, cache, &opts).total_misses()
    );
    assert_eq!(
        simulate_nest(&mechanical, cache).total().misses(),
        simulate_nest(&handwritten, cache).total().misses()
    );
}

/// Interchange fixes the column-major mismatch: matvec-rowwise becomes
/// matvec, with matching CME and simulator verdicts on both orders.
#[test]
fn interchange_fixes_matvec_and_stays_exact() {
    let cache = small_cache();
    let bad = kernels::matvec_rowwise(48);
    let good = interchange(&bad, &[1, 0]).unwrap();
    let opts = AnalysisOptions::default();
    for nest in [&bad, &good] {
        let cme = reference_analysis(nest, cache, &opts).total_misses();
        let sim = simulate_nest(nest, cache).total().misses();
        assert_eq!(cme, sim, "exactness on `{}`", nest.name());
    }
    let before = simulate_nest(&bad, cache).total().misses();
    let after = simulate_nest(&good, cache).total().misses();
    assert!(
        after * 2 < before,
        "interchange should at least halve misses: {before} -> {after}"
    );
}

/// Strip-mining alone never changes which addresses are touched, and the
/// analysis of the strip-mined nest stays exact vs simulation.
#[test]
fn strip_mined_nest_is_analyzed_exactly() {
    let cache = small_cache();
    let nest = kernels::matvec(32);
    let stripped = strip_mine(&nest, 0, 8).unwrap();
    let opts = AnalysisOptions::default();
    let cme = reference_analysis(&stripped, cache, &opts).total_misses();
    let sim = simulate_nest(&stripped, cache).total().misses();
    assert_eq!(cme, sim);
    // Identical traces => identical misses vs. the original.
    assert_eq!(sim, simulate_nest(&nest, cache).total().misses());
}

/// Mechanical tiling of plain matmul is analyzed exactly and, at a
/// capacity-bound size, reduces misses relative to the untiled nest.
#[test]
fn tiling_matmul_reduces_capacity_misses() {
    let cache = small_cache(); // 256 elements — tiny on purpose
    let n = 32i64;
    let plain = kernels::mmult_with_bases(n, 0, 2048 + 9, 4096 + 18);
    let tiled = tile_nest(&plain, &[(1, 8), (2, 8)]).unwrap();
    let opts = AnalysisOptions::default();
    // Exactness on the 5-deep tiled nest.
    let cme = reference_analysis(&tiled, cache, &opts).total_misses();
    let sim = simulate_nest(&tiled, cache).total().misses();
    assert_eq!(cme, sim, "tiled nest must stay exact");
    // And tiling helps the capacity-bound matmul.
    let untiled_misses = simulate_nest(&plain, cache).total().misses();
    assert!(
        sim < untiled_misses,
        "tiling should reduce misses: {untiled_misses} -> {sim}"
    );
}

/// The diagnosis workflow: matvec-rowwise is diagnosed with an interchange
/// recommendation whose application is verified by the analyzer.
#[test]
fn diagnosis_recommends_verified_interchange() {
    let cache = small_cache();
    let nest = kernels::matvec_rowwise(64);
    let d = diagnose(&nest, &cache, &AnalysisOptions::default()).unwrap();
    let rec = d
        .recommendations
        .iter()
        .find_map(|r| match r {
            Recommendation::Interchange { make_innermost } => Some(*make_innermost),
            _ => None,
        })
        .expect("rowwise matvec should trigger an interchange recommendation");
    assert_eq!(rec, 0, "the i loop (level 0) should become innermost");
}

/// Diagnosis on the paper's tom kernel names the cross-interference pair,
/// matching what the padding optimizer then eliminates.
#[test]
fn diagnosis_names_toms_conflicts() {
    let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
    let nest = kernels::tom(64);
    let d = diagnose(&nest, &cache, &AnalysisOptions::default()).unwrap();
    assert!(
        d.recommendations
            .iter()
            .any(|r| matches!(r, Recommendation::InterVariablePadding { .. })),
        "{d}"
    );
}

/// Analysis exactness is preserved across the extra kernel library.
#[test]
fn extra_kernels_are_analyzed_exactly() {
    let cache = small_cache();
    let opts = AnalysisOptions::default();
    for name in ["jacobi2d", "matvec", "triad", "stencil3d"] {
        let nest = kernels::kernel_by_name(name, 12).unwrap();
        let cme = reference_analysis(&nest, cache, &opts).total_misses();
        let sim = simulate_nest(&nest, cache).total().misses();
        assert_eq!(cme, sim, "`{name}` should be exact");
    }
    // lu and syr2k contain non-uniformly generated pairs (A(i,k) vs
    // A(k,j) / A(j,k)), the gauss/trans situation: sound, possibly over.
    for name in ["lu", "syr2k"] {
        let nest = kernels::kernel_by_name(name, 12).unwrap();
        let cme = reference_analysis(&nest, cache, &opts).total_misses();
        let sim = simulate_nest(&nest, cache).total().misses();
        assert!(cme >= sim, "`{name}` must stay sound");
    }
}

/// Every kernel with Fortran-style (origin-1) arrays roundtrips through
/// the textual format with its analysis result intact.
#[test]
fn kernels_roundtrip_through_text_format() {
    let cache = small_cache();
    let opts = AnalysisOptions::default();
    let mut roundtripped = 0;
    for &name in kernels::kernel_names() {
        let Some(nest) = kernels::kernel_by_name(name, 8) else {
            continue;
        };
        let Some(src) = cme::ir::parse::to_source(&nest) else {
            continue; // strided_sweep-style origin-0 arrays
        };
        let reparsed = cme::ir::parse::parse_nest(&src)
            .unwrap_or_else(|e| panic!("{name} failed to reparse: {e}\n{src}"));
        assert_eq!(
            reference_analysis(&nest, cache, &opts).total_misses(),
            reference_analysis(&reparsed, cache, &opts).total_misses(),
            "analysis changed across the text roundtrip for {name}"
        );
        roundtripped += 1;
    }
    assert!(roundtripped >= 10, "most kernels should roundtrip");
}

/// Strided sweeps: one miss per line touched, across strides.
#[test]
fn strided_sweeps_miss_once_per_line() {
    let cache = small_cache(); // 8-element lines
    let opts = AnalysisOptions::default();
    for stride in [1i64, 2, 4, 8, 16] {
        let nest = kernels::strided_sweep(64, stride);
        let expected_lines = if stride >= 8 {
            64
        } else {
            (64 * stride + 7) / 8
        };
        let a = reference_analysis(&nest, cache, &opts);
        assert_eq!(a.total_misses(), expected_lines as u64, "stride {stride}");
        assert_eq!(
            simulate_nest(&nest, cache).total().misses(),
            expected_lines as u64
        );
    }
}
