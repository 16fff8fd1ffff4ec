//! End-to-end effects of the CME-driven optimizations, verified against the
//! LRU simulator (the methodology behind Table 2 and the Section 5
//! examples).

use cme::cache::{simulate_nest, CacheConfig};
use cme::core::AnalysisOptions;
use cme::kernels;
use cme::opt::{evaluate_fusion, plan_padding, select_tile_size};

fn table1_cache() -> CacheConfig {
    CacheConfig::new(8192, 1, 32, 4).unwrap()
}

/// Table-2 style: the padding optimizer (Figure 10 special case with a
/// solution-counting fallback) eliminates or drastically reduces
/// replacement misses on the kernels the paper reports, at CI-scale sizes —
/// verified against the simulator.
#[test]
fn padding_improves_the_suite() {
    let cache = table1_cache();
    let suite: Vec<(&str, cme::ir::LoopNest, bool)> = vec![
        // (name, nest, expect complete elimination)
        ("adi", kernels::adi(64), true),
        ("tom", kernels::tom(64), true),
        ("alv", kernels::alv_with_layout(61, 30, 61, 2048), true),
        ("mmult", kernels::mmult_with_bases(32, 0, 2048, 4096), false),
    ];
    for (name, nest, expect_zero) in suite {
        let before = simulate_nest(&nest, cache).total();
        let (optimized, outcome) =
            cme::opt::optimize_padding(&nest, &cache, &AnalysisOptions::default());
        let after = simulate_nest(&optimized, cache).total();
        assert!(
            after.replacement <= before.replacement,
            "{name}: padding must not hurt ({} -> {})",
            before.replacement,
            after.replacement
        );
        if expect_zero {
            assert_eq!(
                after.replacement, 0,
                "{name}: all replacement misses should vanish ({outcome})"
            );
        } else if before.replacement > 0 {
            assert!(
                after.replacement < before.replacement / 2,
                "{name}: substantial improvement required ({} -> {})",
                before.replacement,
                after.replacement
            );
        }
        // The CME-side accounting matches the simulator's verdicts.
        assert_eq!(outcome.replacement_after, after.replacement, "{name}");
    }
}

/// The paper's trans row: no padding can fix it, and indeed the simulator
/// shows the same misses for any same-column padding the algorithm might
/// try (we assert only the infeasibility verdict here; kernel_accuracy
/// covers the counts).
#[test]
fn trans_has_no_padding_solution() {
    assert!(plan_padding(&kernels::trans(64), &table1_cache()).is_err());
}

/// Figure 13: fusing the ADI pair lowers misses, and the CME verdict agrees
/// with simulation.
#[test]
fn fusion_verdict_matches_simulation() {
    let cache = table1_cache();
    let (n1, n2) = kernels::adi_fusion_unfused();
    let fused = kernels::adi_fusion_fused();
    let decision = evaluate_fusion(&[&n1, &n2], &fused, cache, &AnalysisOptions::default());
    let sim_unfused =
        simulate_nest(&n1, cache).total().misses() + simulate_nest(&n2, cache).total().misses();
    let sim_fused = simulate_nest(&fused, cache).total().misses();
    // CME counts equal simulation on both sides...
    assert_eq!(decision.misses_unfused, sim_unfused);
    assert_eq!(decision.misses_fused, sim_fused);
    // ...and the verdict is to fuse, as in the paper (~21K -> ~15K).
    assert!(decision.should_fuse(), "{decision}");
}

/// Tile-size selection: the chosen tile admits no self-interference of
/// Y(j,k), and simulating the tiled nest shows Y's misses are no worse
/// than under a same-area tile that the selector would reject.
#[test]
fn selected_tile_beats_bad_tile() {
    // Column size equal to the way span is the classic pathological case:
    // consecutive columns of Y alias, so any tile with T_k > 1 conflicts.
    let cache = CacheConfig::new(1024, 1, 32, 4).unwrap(); // 256 elements
    let n = 32i64;
    let col = 256;
    let choice = select_tile_size(&cache, col, n).expect("a tile exists");
    assert_eq!(choice.self_conflicts, 0);
    assert_eq!(choice.tk, 1, "aliasing columns force single-column tiles");

    let build = |tk: i64, tj: i64| {
        let mut nest = kernels::tiled_mmult(n, tk, tj, 0, 8 * col + 9, 16 * col + 18);
        // Pad all arrays' columns to `col` so Y's columns alias.
        let ids: Vec<_> = nest.references().iter().map(|r| r.array()).collect();
        for id in ids {
            let arr = nest.array_mut(id);
            if arr.column_size() < col {
                arr.pad_column_to(col);
            }
        }
        nest
    };
    // A rejected same-area tile: T_k = 8, T_j = 4 (8 aliasing columns).
    let rejected = cme::opt::tiling::count_self_interference(&cache, col, 8, 4);
    assert!(rejected > 0, "the bad tile must actually conflict");
    let good = simulate_nest(&build(choice.tk, choice.tj), cache);
    let bad = simulate_nest(&build(8, 4), cache);
    // Compare the Y load (reference index 2), the reference Eq. 8 is about.
    assert!(
        good.per_ref[2].misses() <= bad.per_ref[2].misses(),
        "selected tile {} must not increase Y misses: {} vs {}",
        choice,
        good.per_ref[2].misses(),
        bad.per_ref[2].misses()
    );
}

/// The parametric sweep finds the same optimum as brute force on a real
/// miss function (alv inter-array spacing).
#[test]
fn parametric_spacing_matches_brute_force() {
    // 256 elements. One shared session: all sampled spacings are layout
    // siblings, so the engine re-scores them from its memo tables.
    let cache = CacheConfig::new(1024, 1, 32, 4).unwrap();
    let analyzer = cme::core::Analyzer::new(cache);
    let spacing = cme::SweepParameter::BaseSpacing {
        array: cme::ir::ArrayId::from_index(1),
    };
    let request = cme::SweepRequest::new(spacing, 0, 256, 1);
    let res = analyzer
        .sweep(&kernels::alv_with_layout(16, 6, 16, 256), &request)
        .unwrap();
    // Brute force over the whole range.
    let brute = (0..256)
        .map(|delta| {
            let nest = kernels::alv_with_layout(16, 6, 16, 256 + delta);
            analyzer.analyze(&nest).total_misses()
        })
        .min()
        .unwrap();
    assert_eq!(res.best_misses, brute, "{res}");
}
