//! Tile-size selection from the self-interference equation (Section 5.1.1,
//! Equations 8–9).
//!
//! For a tiled matmul computing a `T_k × T_j` tile of `Y(j,k)`, the
//! self-interference equation inside one tile is
//!
//! ```text
//! C·δk − n·Cs = b − δj,   δk < T_k, δj < T_j, n ≠ 0       (Eq. 8)
//! ```
//!
//! A `k`-way set-associative cache tolerates up to `k − 1` conflicts per
//! set, so the selector admits tile sizes whose Equation 8 has at most
//! `k − 1` distinct solutions (`n` values per `δk`, aggregated per cache
//! set) and then picks the admissible tile of maximal area. Base addresses
//! for cross-interference (Equation 9) are then spaced with the same
//! machinery as padding.

use cme_cache::CacheConfig;
use cme_math::gcd::floor_div;
use std::fmt;

/// A selected tile size with its predicted self-interference count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileChoice {
    /// Tile extent along the `k` loop.
    pub tk: i64,
    /// Tile extent along the `j` loop.
    pub tj: i64,
    /// Number of distinct self-interference solutions of Equation 8 for
    /// this tile (must be `<= assoc − 1` for an admissible tile).
    pub self_conflicts: u64,
}

impl TileChoice {
    /// Tile area (elements of the tile footprint).
    pub fn area(&self) -> i64 {
        self.tk * self.tj
    }
}

impl fmt::Display for TileChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T_k = {}, T_j = {} ({} self-interference solutions)",
            self.tk, self.tj, self.self_conflicts
        )
    }
}

/// Counts the distinct solutions of Equation 8 for a `tk × tj` tile of an
/// array with column size `col`: pairs of tile columns `δk` apart whose
/// rows alias in the cache.
///
/// Two tile elements `(j, k)` and `(j − δj, k − δk)` contend for a set when
/// their addresses differ by `n·Cs/k ± b` — i.e. `C·δk ≡ (b − δj) (mod
/// Cs/assoc)` with `n ≠ 0`. The count aggregates distinct `(δk, n)` pairs,
/// the quantity the miss-finding algorithm compares against `assoc`.
pub fn count_self_interference(cache: &CacheConfig, col: i64, tk: i64, tj: i64) -> u64 {
    let way = cache.way_span_elems();
    let ls = cache.line_elems();
    let mut count = 0u64;
    for dk in 1..tk {
        // C·dk − n·way ∈ [−(Ls−1) − (tj−1), (Ls−1)]  for some n ≠ 0.
        let lhs = col * dk;
        let lo = -(ls - 1) - (tj - 1);
        let hi = ls - 1;
        // n must satisfy lhs − n·way ∈ [lo, hi]  =>  n ∈ [(lhs−hi)/way, (lhs−lo)/way].
        let n_lo = ceil_div_i(lhs - hi, way);
        let n_hi = floor_div(lhs - lo, way);
        for n in n_lo..=n_hi {
            if n != 0 {
                count += 1;
            }
        }
    }
    count
}

fn ceil_div_i(a: i64, b: i64) -> i64 {
    -floor_div(-a, b)
}

/// Selects the largest-area `(T_k, T_j)` whose Equation 8 admits at most
/// `assoc − 1` solutions, scanning tile extents dividing `n` (so the tiled
/// nest stays affine). Ties prefer squarer tiles.
///
/// `col` is the array column size (`C`), `n` the problem size.
///
/// Returns `None` when no admissible tile exists (even 1×1 conflicts —
/// impossible since `δk ≥ 1` is then empty).
pub fn select_tile_size(cache: &CacheConfig, col: i64, n: i64) -> Option<TileChoice> {
    let budget = cache.assoc() as u64 - 1;
    let divisors: Vec<i64> = (1..=n).filter(|d| n % d == 0).collect();
    let mut best: Option<TileChoice> = None;
    for &tk in &divisors {
        for &tj in &divisors {
            // The tile must fit in the cache at all (capacity guard).
            if tk * tj > cache.size_elems() {
                continue;
            }
            let c = count_self_interference(cache, col, tk, tj);
            if c <= budget {
                let cand = TileChoice {
                    tk,
                    tj,
                    self_conflicts: c,
                };
                best = match best {
                    None => Some(cand),
                    Some(b) => {
                        let better = cand.area() > b.area()
                            || (cand.area() == b.area()
                                && (cand.tk - cand.tj).abs() < (b.tk - b.tj).abs());
                        Some(if better { cand } else { b })
                    }
                };
            }
        }
    }
    best
}

/// The paper's full Section 5.1.1 composition: select a tile size from
/// Equation 8, tile the nest (levels `k` and `j` of a 3-deep matmul-shaped
/// nest), then reposition bases against Equation 9 cross-interference with
/// the padding machinery. Returns the transformed nest and the choice.
///
/// `k_level`/`j_level` are the original nest levels to tile; both must
/// have constant bounds whose trip counts the selected tile divides (the
/// selector only proposes divisors of `n`).
///
/// # Errors
///
/// Propagates [`cme_ir::transform::TransformError`] from the tiling
/// rewrite; returns `None` from the selector when no admissible tile
/// exists.
pub fn select_tile_and_layout(
    nest: &cme_ir::LoopNest,
    cache: &CacheConfig,
    k_level: usize,
    j_level: usize,
    n: i64,
    col: i64,
    options: &cme_core::AnalysisOptions,
) -> Result<Option<(cme_ir::LoopNest, TileChoice)>, cme_ir::transform::TransformError> {
    let analyzer = cme_core::Analyzer::new(*cache)
        .options(options.clone())
        .threads(0);
    select_tile_and_layout_with(&analyzer, nest, k_level, j_level, n, col)
}

/// [`select_tile_and_layout`] driven through a caller-owned
/// [`cme_core::Analyzer`] session, so the layout search after tiling shares
/// (and warms) the session's memo tables.
pub fn select_tile_and_layout_with(
    analyzer: &cme_core::Analyzer,
    nest: &cme_ir::LoopNest,
    k_level: usize,
    j_level: usize,
    n: i64,
    col: i64,
) -> Result<Option<(cme_ir::LoopNest, TileChoice)>, cme_ir::transform::TransformError> {
    let cache = *analyzer.cache();
    let Some(choice) = select_tile_size(&cache, col, n) else {
        return Ok(None);
    };
    let (first, second) = if k_level < j_level {
        ((k_level, choice.tk), (j_level, choice.tj))
    } else {
        ((j_level, choice.tj), (k_level, choice.tk))
    };
    let tiled = cme_ir::transform::tile_nest(nest, &[first, second])?;
    // Equation 9: cross-interference between the tiled arrays — reuse the
    // padding driver (base repositioning only matters here; the selector
    // already fixed the column behaviour via the tile shape).
    let (optimized, _outcome) = crate::search::optimize_padding_with(analyzer, &tiled);
    Ok(Some((optimized, choice)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache8k() -> CacheConfig {
        CacheConfig::new(8192, 1, 32, 4).unwrap() // 2048 elems, 8/line
    }

    #[test]
    fn no_conflict_for_single_column_tiles() {
        // tk = 1 => no δk >= 1 => zero solutions regardless of tj.
        assert_eq!(count_self_interference(&cache8k(), 256, 1, 64), 0);
    }

    #[test]
    fn column_size_equal_to_way_span_conflicts_immediately() {
        // col = 2048 = way span: consecutive columns alias exactly (n = 1).
        let c = count_self_interference(&cache8k(), 2048, 2, 8);
        assert!(c >= 1, "aliasing columns must be detected, got {c}");
    }

    #[test]
    fn small_columns_do_not_conflict() {
        // col = 256: 8 columns fit in one way span; a tile of 4 columns
        // spans 1024 elements < 2048: no wraparound possible.
        assert_eq!(count_self_interference(&cache8k(), 256, 4, 8), 0);
    }

    #[test]
    fn selector_returns_admissible_max_area() {
        let cache = cache8k();
        let choice = select_tile_size(&cache, 256, 64).expect("some tile fits");
        assert_eq!(choice.self_conflicts, 0);
        assert!(choice.area() > 1, "should beat the trivial tile: {choice}");
        // Every admissible property holds by construction.
        assert!(count_self_interference(&cache, 256, choice.tk, choice.tj) == 0);
    }

    #[test]
    fn selector_respects_associativity_budget() {
        // 2-way cache tolerates one conflict.
        let cache2 = CacheConfig::new(8192, 2, 32, 4).unwrap();
        let c1 = select_tile_size(&cache8k(), 2048, 32).unwrap();
        let c2 = select_tile_size(&cache2, 2048, 32).unwrap();
        assert!(
            c2.area() >= c1.area(),
            "extra way can only help: {c1} vs {c2}"
        );
    }

    #[test]
    fn display() {
        let t = TileChoice {
            tk: 4,
            tj: 8,
            self_conflicts: 0,
        };
        assert!(t.to_string().contains("T_k = 4"));
        assert_eq!(t.area(), 32);
    }

    #[test]
    fn combined_tile_and_layout_beats_plain_nest() {
        use cme_cache::simulate_nest;
        // Capacity-and-conflict-bound matmul on a tiny cache.
        let cache = CacheConfig::new(1024, 1, 32, 4).unwrap(); // 256 elements
        let n = 16i64;
        let plain = cme_kernels::mmult_with_bases(n, 0, 256, 512);
        let opts = cme_core::AnalysisOptions::default();
        let (optimized, choice) = select_tile_and_layout(&plain, &cache, 1, 2, n, n, &opts)
            .expect("tiling applies")
            .expect("a tile exists");
        assert!(choice.self_conflicts < cache.assoc() as u64);
        let before = simulate_nest(&plain, cache).total().misses();
        let after = simulate_nest(&optimized, cache).total().misses();
        assert!(
            after < before,
            "tile {choice} + layout should reduce misses: {before} -> {after}"
        );
        // The composed transformation still analyzes exactly.
        let cme = cme_core::Analyzer::new(cache)
            .options(opts)
            .analyze(&optimized)
            .total_misses();
        assert_eq!(cme, after);
        // The session-driven variant lands on the same transformation.
        let analyzer = cme_core::Analyzer::new(cache);
        let (optimized2, choice2) = select_tile_and_layout_with(&analyzer, &plain, 1, 2, n, n)
            .expect("tiling applies")
            .expect("a tile exists");
        assert_eq!(choice, choice2);
        assert_eq!(optimized, optimized2);
        assert!(analyzer.stats().memo_hit_rate() > 0.0);
    }
}
