//! Regenerates **Figure 12** of the paper: the surface of cache-miss counts
//! for the `alv` loop (Figure 11) as a function of the arrays' row size and
//! the difference of their base addresses.
//!
//! ```text
//! cargo run --release -p cme-bench --bin fig12 [-- --full 1] > fig12.csv
//! ```
//!
//! Output is a CSV grid `row_size, delta_b, misses` (CME-counted — the
//! point of the figure is that the surface is too irregular for heuristics,
//! which our analysis reproduces). By default a CI-scale instance of the
//! loop is swept; `--full 1` uses the paper's 1221×30 arrays (slower).

use cme_bench::BenchArgs;
use cme_core::{AnalysisOptions, Analyzer};
use cme_kernels::alv_with_layout;

fn main() {
    let args = BenchArgs::from_env();
    let full = args.value_or("--full", 0) == 1;
    let cache = args.cache();
    let (nu, nh) = if full { (1221, 30) } else { (61, 30) };
    println!("# Figure 12: alv miss surface; cache {cache}");
    println!("row_size,delta_b,misses");
    // One Analyzer session over the whole sweep: the base-address axis
    // (delta_b) changes only array layout, so the engine re-solves each
    // point from memoized cascades instead of from scratch.
    let analyzer = Analyzer::new(cache).options(AnalysisOptions::default());
    // Sweep the row (column) size around nu and the base distance around
    // a few cache-span multiples, mirroring the paper's axes.
    let row_sizes: Vec<i64> = (0..16).map(|k| nu + k).collect();
    let span = cache.size_elems();
    let deltas: Vec<i64> = (0..32)
        .map(|k| 2 * span + k * (cache.line_elems() / 2))
        .collect();
    let mut min = (u64::MAX, 0i64, 0i64);
    let mut max = (0u64, 0i64, 0i64);
    for &rs in &row_sizes {
        for &db in &deltas {
            let nest = alv_with_layout(nu, nh, rs, db.max(rs * nh + 1));
            let misses = analyzer.analyze(&nest).total_misses();
            println!("{rs},{db},{misses}");
            if misses < min.0 {
                min = (misses, rs, db);
            }
            if misses > max.0 {
                max = (misses, rs, db);
            }
        }
    }
    eprintln!(
        "# surface: min {} at (row {}, dB {}); max {} at (row {}, dB {}); ratio {:.1}x",
        min.0,
        min.1,
        min.2,
        max.0,
        max.1,
        max.2,
        max.0 as f64 / min.0.max(1) as f64
    );
    eprintln!("# the paper's point: the surface is highly irregular, so only");
    eprintln!("# a precise method can pick the conflict-free (row, dB) pairs.");
    eprintln!("#\n# engine accounting over the sweep:");
    eprintln!("#   {}", analyzer.stats());
}
