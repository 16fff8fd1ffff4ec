//! Cache doctor: the paper's Section 7 vision — automatically diagnose a
//! loop nest's cache behavior and apply the recommended transformation.
//!
//! ```text
//! cargo run --release --example cache_doctor [kernel] [n]
//! ```
//!
//! Diagnoses the kernel (default: `matvec-rowwise`, the classic
//! column-major mismatch), then carries out the leading recommendation —
//! interchange or padding — and verifies the improvement with both the CME
//! counter and the simulator.

use cme::cache::{simulate_nest, CacheConfig};
use cme::core::Analyzer;
use cme::ir::transform::{interchange, tile_nest};
use cme::kernels::kernel_by_name;
use cme::opt::{diagnose_with, optimize_padding_with, Recommendation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let kernel = args.get(1).map(String::as_str).unwrap_or("matvec-rowwise");
    let n: i64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);
    let cache = CacheConfig::new(1024, 1, 32, 4)?;
    let nest = kernel_by_name(kernel, n).unwrap_or_else(|| {
        panic!(
            "unknown kernel `{kernel}`; try one of {:?}",
            cme::kernels::kernel_names()
        )
    });

    println!("patient:\n{nest}\ncache: {cache}\n");
    // One Analyzer session covers the diagnosis, the before/after counts,
    // and (for padding) the layout search — each step reuses the last.
    let analyzer = Analyzer::new(cache);
    let diagnosis = diagnose_with(&analyzer, &nest)?;
    println!("{diagnosis}");

    let before_cme = analyzer.analyze(&nest).total_misses();
    let before_sim = simulate_nest(&nest, cache).total().misses();
    println!("before: {before_cme} CME misses ({before_sim} simulated)\n");

    match diagnosis.recommendations.first() {
        Some(Recommendation::Interchange { make_innermost }) => {
            // Rotate the recommended loop to the innermost position.
            let depth = nest.depth();
            let mut perm: Vec<usize> = (0..depth).filter(|&l| l != *make_innermost).collect();
            perm.push(*make_innermost);
            let treated = interchange(&nest, &perm)?;
            println!("treatment: interchange, new loop order:");
            for l in treated.loops() {
                println!("  DO {}", l.name());
            }
            report(&analyzer, &treated, cache, before_cme, before_sim);
        }
        Some(Recommendation::InterVariablePadding { .. })
        | Some(Recommendation::IntraVariablePadding { .. }) => {
            let (treated, outcome) = optimize_padding_with(&analyzer, &nest);
            println!("treatment: padding ({})", outcome.method);
            report(&analyzer, &treated, cache, before_cme, before_sim);
        }
        Some(Recommendation::Tile) => {
            // Tile the loop carrying the longest reuse distance (here: the
            // deepest loop whose trip count a small tile divides).
            let depth = nest.depth();
            let level = depth - 1;
            let mut applied = false;
            for t in [8i64, 4, 2] {
                if let Ok(treated) = tile_nest(&nest, &[(level, t)]) {
                    println!(
                        "treatment: tile loop `{}` by {t}",
                        nest.loops()[level].name()
                    );
                    report(&analyzer, &treated, cache, before_cme, before_sim);
                    applied = true;
                    break;
                }
            }
            if !applied {
                println!("treatment: tiling recommended, but no divisor tile found — see `tile_selector`");
            }
        }
        _ => println!("patient is healthy; no treatment applied"),
    }
    Ok(())
}

fn report(
    analyzer: &Analyzer,
    treated: &cme::ir::LoopNest,
    cache: CacheConfig,
    before_cme: u64,
    before_sim: u64,
) {
    let after_cme = analyzer.analyze(treated).total_misses();
    let after_sim = simulate_nest(treated, cache).total().misses();
    println!(
        "after:  {after_cme} CME misses ({after_sim} simulated)\n\
         improvement: {:.1}% (CME), {:.1}% (simulated)",
        100.0 * (before_cme.saturating_sub(after_cme)) as f64 / before_cme.max(1) as f64,
        100.0 * (before_sim.saturating_sub(after_sim)) as f64 / before_sim.max(1) as f64,
    );
}
