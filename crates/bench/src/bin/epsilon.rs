//! Ablation for the **ε precision/time knob** of the miss-finding algorithm
//! (line 6 of Figure 6): vary the tolerated indeterminate-set size and
//! report miss-count inflation versus analysis work.
//!
//! ```text
//! cargo run --release -p cme-bench --bin epsilon [-- --n 64]
//! ```

use cme_bench::BenchArgs;
use cme_core::{AnalysisOptions, Analyzer};
use cme_kernels::mmult;
use std::time::Instant;

fn main() {
    let args = BenchArgs::from_env();
    let n = args.n(64);
    let cache = args.cache();
    let nest = mmult(n);
    println!("# ε ablation on mmult N = {n}, cache {cache}");
    println!(
        "# {:>12} {:>12} {:>12} {:>14} {:>9}",
        "epsilon", "misses", "inflation", "vectors-used", "secs"
    );
    // One session across the sweep: ε only truncates each reference's
    // reuse-vector cascade, so the per-vector scan results are shared
    // between ε settings through the engine's scan memo.
    let analyzer = Analyzer::new(cache);
    let exact = analyzer.analyze(&nest);
    for eps in [0u64, 1 << 6, 1 << 10, 1 << 14, 1 << 18, 1 << 22] {
        let opts = AnalysisOptions::builder().epsilon(eps).build();
        let t0 = Instant::now();
        let a = analyzer.analyze_with_options(&nest, &opts);
        let dt = t0.elapsed().as_secs_f64();
        let vectors: usize = a.per_ref.iter().map(|r| r.vectors_used()).sum();
        println!(
            "  {:>12} {:>12} {:>12} {:>14} {:>9.2}",
            eps,
            a.total_misses(),
            a.total_misses() - exact.total_misses(),
            vectors,
            dt
        );
        assert!(a.total_misses() >= exact.total_misses());
    }
}
