//! Quickstart: analyze the paper's matrix-multiply nest on an 8KB cache.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! Builds the Figure 1 loop nest, generates its Cache Miss Equations,
//! counts the misses with the Figure 6 algorithm, and cross-checks the
//! count against a trace-driven LRU simulation.

use cme::cache::{simulate_nest, CacheConfig};
use cme::core::{Analyzer, CmeSystem};
use cme::kernels::mmult;
use cme::reuse::ReuseOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64;
    let nest = mmult(n);
    println!("Loop nest:\n{nest}");

    // The paper's Table 1 cache: 8KB direct-mapped, 32B lines, 4B elements.
    let cache = CacheConfig::new(8 * 1024, 1, 32, 4)?;
    println!("Cache: {cache}\n");

    // 1. Generate the symbolic equation system (Figure 3).
    let system = CmeSystem::generate(&nest, cache, &ReuseOptions::default());
    println!(
        "Generated {} cache miss equations across {} references.",
        system.equation_count(),
        system.per_ref.len()
    );
    // Show one replacement equation, Eq. 5 style.
    let sample = &system.per_ref[0].groups[0].replacements[1];
    println!("Sample equation: {sample}\n");

    // 2. Count the misses from the equations (Figure 6). The `Analyzer`
    //    session is reusable: subsequent calls on transformed variants of
    //    the nest re-solve incrementally from its memo tables.
    let analyzer = Analyzer::new(cache);
    let analysis = analyzer.analyze(&nest);
    println!("{analysis}\n");

    // 3. Validate against the LRU simulator (the paper's DineroIII role).
    let sim = simulate_nest(&nest, cache);
    println!("{sim}\n");
    assert_eq!(
        analysis.total_misses(),
        sim.total().misses(),
        "CME count must equal simulation"
    );
    println!(
        "CME count {} == simulated count {} (exact).",
        analysis.total_misses(),
        sim.total().misses()
    );
    Ok(())
}
