//! Developer diagnostic: pointwise CME-vs-simulator diff for one kernel,
//! plus the incremental engine's work accounting (`EngineStats` in the
//! stats schema: built/reused counters, stage times) over a
//! cold-then-warm re-analysis.
//! Usage: `diag <kernel> [--n N] [--size B] [--assoc K] [--line B]`
//!
//! Exits nonzero when the simulator misses at a point the CME counts as a
//! hit: under LRU a CME hit implies a simulated hit, so every simulated
//! miss point must be among the CME's (extra CME points are the
//! conservative overcount and pass).

use cme_bench::{resolve_kernel, BenchArgs};
use cme_cache::simulate_nest_outcomes;
use cme_core::{AnalysisOptions, Analyzer};
use cme_ir::LoopNest;
use cme_reuse::{reuse_vectors, ReuseOptions};
use std::collections::HashSet;

fn main() {
    let args = BenchArgs::from_env();
    let kernel = args.positional(0).unwrap_or("mmult");
    let n = args.n(12);
    // A small default cache: the pointwise diff walks every iteration
    // point, so diagnosis sizes stay tiny.
    let cache = args.cache_with(1024, 1, 32);
    let nest: LoopNest = match kernel {
        "mmult" => cme_kernels::mmult_with_bases(n, 0, n * n, 2 * n * n),
        "alv-small" => cme_kernels::alv_with_layout(30, 12, 30, 512),
        "tiled" => cme_kernels::tiled_mmult(8, 4, 2, 0, 64, 128),
        other => resolve_kernel(other, n),
    };
    println!("{nest}\ncache {cache}");

    // Simulator per-point outcomes.
    let mut sim_points: Vec<HashSet<Vec<i64>>> = vec![HashSet::new(); nest.references().len()];
    let sim = simulate_nest_outcomes(&nest, cache, |r, p, outcome| {
        if outcome.is_miss() {
            sim_points[r.index()].insert(p.to_vec());
        }
    });

    let opts = AnalysisOptions::builder().collect_miss_points(true).build();
    let analyzer = Analyzer::new(cache).options(opts.clone());
    let analysis = analyzer.analyze(&nest);
    let mut unsound = 0usize;
    for (r, ra) in analysis.per_ref.iter().enumerate() {
        let mut cme_points: HashSet<Vec<i64>> = ra.cold_miss_points.iter().cloned().collect();
        for (p, _) in &ra.replacement_miss_points {
            cme_points.insert(p.clone());
        }
        let extra: Vec<_> = cme_points.difference(&sim_points[r]).collect();
        let missing: Vec<_> = sim_points[r].difference(&cme_points).collect();
        println!(
            "ref {r} {}: cme {} sim {} (+{} extra, -{} missing)",
            ra.label,
            cme_points.len(),
            sim_points[r].len(),
            extra.len(),
            missing.len()
        );
        if !missing.is_empty() {
            unsound += 1;
            let mut missing_sorted = missing.clone();
            missing_sorted.sort();
            for p in missing_sorted.iter().take(6) {
                println!("   missing {p:?}");
            }
        }
        let mut extra_sorted: Vec<_> = extra.iter().map(|p| (*p).clone()).collect();
        extra_sorted.sort();
        for p in extra_sorted.iter().take(6) {
            let along = ra
                .replacement_miss_points
                .iter()
                .find(|(q, _)| q == p)
                .map(|(_, v)| *v as i64)
                .unwrap_or(-1);
            println!("   extra {p:?} along vector #{along}");
        }
        if !extra.is_empty() {
            let rvs = reuse_vectors(&nest, &cache, ra.dest, &ReuseOptions::default());
            for (vi, rv) in rvs.iter().enumerate().take(25) {
                println!("   rv#{vi}: {rv}");
            }
        }
    }
    println!(
        "totals: cme {} sim {}",
        analysis.total_misses(),
        sim.total().misses()
    );

    // Session accounting: a warm re-analysis answers every stage from the
    // memos and must equal the cold one.
    let warm = analyzer.analyze(&nest);
    assert_eq!(warm, analysis, "warm re-analysis differs from cold");
    println!("\n{}", analyzer.stats());
    if unsound > 0 {
        eprintln!("diag: {unsound} reference(s) miss in the simulator where the CME counts a hit");
        std::process::exit(1);
    }
}
