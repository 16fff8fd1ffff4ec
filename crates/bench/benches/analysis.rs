//! Criterion benches of the analysis pipeline (the Section 5.3 cost story:
//! "CME generation always executes in less than 10s per program").
// These benches time the `solve` reference oracle; the engine comparisons
// live in `benches/engine.rs` and `benches/cascade.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cme_cache::{simulate_nest, CacheConfig};
use cme_core::solve::{reference_analysis, reference_analysis_pointwise};
use cme_core::{AnalysisOptions, CmeSystem};
use cme_kernels::{adi, gauss, mmult, sor, tom, trans};
use cme_reuse::{reuse_vectors, ReuseOptions};

fn table1_cache() -> CacheConfig {
    CacheConfig::new(8192, 1, 32, 4).unwrap()
}

/// Reuse-vector computation + symbolic equation generation per kernel
/// (compile-time cost in the paper's scenario — no solving involved).
fn bench_generation(c: &mut Criterion) {
    let cache = table1_cache();
    let mut g = c.benchmark_group("generate");
    for nest in [mmult(64), gauss(64), sor(64), adi(64), trans(64), tom(64)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(nest.name().to_string()),
            &nest,
            |b, nest| {
                b.iter(|| {
                    let sys = CmeSystem::generate(black_box(nest), cache, &ReuseOptions::default());
                    black_box(sys.equation_count())
                })
            },
        );
    }
    g.finish();
}

/// Reuse-vector analysis alone.
fn bench_reuse(c: &mut Criterion) {
    let cache = table1_cache();
    let mut g = c.benchmark_group("reuse-vectors");
    for nest in [mmult(64), sor(64)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(nest.name().to_string()),
            &nest,
            |b, nest| {
                b.iter(|| {
                    for r in nest.references() {
                        black_box(reuse_vectors(
                            nest,
                            &cache,
                            r.id(),
                            &ReuseOptions::default(),
                        ));
                    }
                })
            },
        );
    }
    g.finish();
}

/// The miss-finding algorithm (Figure 6) at a bench-friendly size.
fn bench_solve(c: &mut Criterion) {
    let cache = table1_cache();
    let opts = AnalysisOptions::default();
    let mut g = c.benchmark_group("miss-finding");
    g.sample_size(10);
    for nest in [mmult(32), sor(64), adi(64), tom(64)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(nest.name().to_string()),
            &nest,
            |b, nest| b.iter(|| black_box(reference_analysis(nest, cache, &opts))),
        );
    }
    g.finish();
}

/// The trace-driven simulator baseline the CMEs replace.
fn bench_simulator(c: &mut Criterion) {
    let cache = table1_cache();
    let mut g = c.benchmark_group("simulate");
    g.sample_size(10);
    for nest in [mmult(32), sor(64), adi(64), tom(64)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(nest.name().to_string()),
            &nest,
            |b, nest| b.iter(|| black_box(simulate_nest(nest, cache))),
        );
    }
    g.finish();
}

/// Ablation: row-summarized window scanning vs the naive pointwise walk
/// (the DESIGN.md-called-out design choice behind the ~15x Table 1 speedup).
fn bench_window_scan_ablation(c: &mut Criterion) {
    let cache = table1_cache();
    let mut g = c.benchmark_group("window-scan-ablation");
    g.sample_size(10);
    let nest = mmult(32);
    let opts = AnalysisOptions::default();
    g.bench_function("row-summarized", |b| {
        b.iter(|| black_box(reference_analysis(&nest, cache, &opts)))
    });
    g.bench_function("pointwise", |b| {
        b.iter(|| black_box(reference_analysis_pointwise(&nest, cache, &opts)))
    });
    g.finish();
}

/// Ablation: reuse-vector generation scope (basic vs extended vs group).
fn bench_reuse_scope_ablation(c: &mut Criterion) {
    let cache = table1_cache();
    let mut g = c.benchmark_group("reuse-scope-ablation");
    g.sample_size(10);
    let nest = mmult(32);
    for (label, group, extended) in [
        ("full", true, true),
        ("no-group", false, true),
        ("no-extended", true, false),
    ] {
        g.bench_function(label, |b| {
            let opts = AnalysisOptions {
                reuse: ReuseOptions { group, extended },
                ..AnalysisOptions::default()
            };
            b.iter(|| black_box(reference_analysis(&nest, cache, &opts)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_reuse,
    bench_solve,
    bench_simulator,
    bench_window_scan_ablation,
    bench_reuse_scope_ablation
);
criterion_main!(benches);
