//! Tile-size selector: pick `(T_k, T_j)` for matrix multiply so the
//! self-interference equation (Eq. 8 of the paper) has at most `k − 1`
//! solutions, then run the paper's full Section 5.1.1 composition — tile,
//! then reposition bases against Eq. 9 cross-interference — and verify
//! the result with the simulator.
//!
//! Eq. 8 bounds only a tile's *self*-interference. With the column size
//! equal to the cache size, interference *between* the arrays dominates,
//! so the tile choice on its own is no guarantee of fewer misses here;
//! the base spacing of Eq. 9 is what removes those conflicts.
//!
//! Run with `cargo run --release --example tile_selector`.

use cme::cache::{simulate_nest, CacheConfig};
use cme::core::{AnalysisOptions, Analyzer};
use cme::kernels::mmult_with_bases;
use cme::opt::{select_tile_and_layout, select_tile_size, tiling::count_self_interference};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cache = CacheConfig::new(1024, 1, 32, 4)?; // 256 elements
    let n = 32i64;
    let col = 256; // pathological: column size equals the cache size
    println!("Cache: {cache}");
    println!("matmul N = {n}, array column size C = {col} (aliases the cache)\n");

    println!("self-interference solutions of Eq. 8 per candidate tile:");
    for &tk in &[1i64, 2, 4, 8, 16, 32] {
        for &tj in &[8i64, 16, 32] {
            let c = count_self_interference(&cache, col, tk, tj);
            print!("  T_k={tk:<2} T_j={tj:<2} -> {c:<4}");
        }
        println!();
    }

    let choice = select_tile_size(&cache, col, n).expect("an admissible tile exists");
    println!("\nselected tile: {choice}\n");

    // The plain nest: every column padded to C and every base a multiple
    // of C, so all three arrays map their columns onto the same sets.
    let mut plain = mmult_with_bases(n, 0, 8 * col, 16 * col);
    let ids: Vec<_> = plain.references().iter().map(|r| r.array()).collect();
    for id in ids {
        let array = plain.array_mut(id);
        if array.column_size() < col {
            array.pad_column_to(col);
        }
    }
    let options = AnalysisOptions::default();
    let (optimized, chosen) = select_tile_and_layout(&plain, &cache, 1, 2, n, col, &options)?
        .expect("an admissible tile exists");
    assert_eq!(chosen, choice);

    let before = simulate_nest(&plain, cache).total().misses();
    let after = simulate_nest(&optimized, cache).total().misses();
    let cme = Analyzer::new(cache)
        .options(options)
        .analyze(&optimized)
        .total_misses();
    println!("misses of the plain nest:        {before}");
    println!("misses after tiling + layout:    {after} (CME count {cme})");
    assert!(after < before, "tile + layout must beat the plain nest");
    assert_eq!(cme, after, "the CME count must match the simulator");
    Ok(())
}
