//! Single-analysis benches for the data-oriented sliding-window cascade.
//!
//! Unlike `benches/engine.rs`, which measures memoized *re*-analysis
//! across an optimizer search, this bench times one full cold analysis of
//! the Table-1 matmul: the reference per-point solver (the `solve`
//! oracle) against the engine's cascade (all-cold certificates +
//! adaptive survivor sets + word-parallel delta window scans), sequential
//! and sharded. Equivalence is asserted before timing; the final checks
//! enforce the ≥3× bar at N=64, the ≥10× bar at N=96, the parallel win
//! (par strictly under seq, when the host has ≥4 cores), and the ≤2%
//! governor-overhead bar.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cme_cache::CacheConfig;
use cme_core::solve::reference_analysis;
use cme_core::{AnalysisOptions, Analyzer, Budget};

fn table1_cache() -> CacheConfig {
    CacheConfig::new(8192, 1, 32, 4).unwrap()
}

/// Table-1 matmul at a size where one analysis takes long enough to time
/// meaningfully but the whole bench stays in seconds.
fn matmul_n(n: i64) -> cme_ir::LoopNest {
    cme_kernels::mmult_with_bases(n, 0, n * n, 2 * n * n)
}

fn matmul() -> cme_ir::LoopNest {
    matmul_n(64)
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn bench_full_analysis(c: &mut Criterion) {
    let cache = table1_cache();
    let nest = matmul();
    let opts = AnalysisOptions::default();

    // Equivalence first: the cascade must reproduce the reference
    // implementation bit for bit before its speed means anything.
    let reference = reference_analysis(&nest, cache, &opts);
    let cascade = Analyzer::new(cache).options(opts.clone());
    assert_eq!(
        reference,
        cascade.analyze(&nest),
        "cascade diverged from the reference implementation"
    );
    let sharded = Analyzer::new(cache).options(opts.clone()).threads(4);
    assert_eq!(
        reference,
        sharded.analyze(&nest),
        "sharded cascade diverged from the reference implementation"
    );
    // A never-tripping budget keeps the resource governor's accounting
    // live on every checkpoint; the result must still be bit-identical.
    let ample = Budget::unlimited().with_max_solves(u64::MAX / 2);
    let governed = Analyzer::new(cache)
        .options(opts.clone())
        .budget(ample)
        .try_analyze(&nest)
        .expect("an ample budget cannot fail");
    assert!(governed.outcome.is_complete());
    assert_eq!(
        reference, governed.analysis,
        "governed cascade diverged from the reference implementation"
    );

    let mut g = c.benchmark_group("full-analysis");
    g.sample_size(5);
    g.bench_function("cascade", |b| {
        b.iter(|| {
            // A fresh analyzer each iteration: this measures the cold
            // cascade, not the memo tables.
            let a = Analyzer::new(cache).options(opts.clone());
            black_box(a.analyze(&nest))
        })
    });
    g.bench_function("cascade-governed", |b| {
        // Same cold analysis, but with the governor's accounting active
        // (an ample solve budget that never trips). The overhead gate
        // below holds this within 2% of the ungoverned run.
        b.iter(|| {
            let a = Analyzer::new(cache).options(opts.clone()).budget(ample);
            black_box(a.try_analyze(&nest).expect("ample budget"))
        })
    });
    g.bench_function("cascade-sharded", |b| {
        b.iter(|| {
            let a = Analyzer::new(cache).options(opts.clone()).threads(4);
            black_box(a.analyze(&nest))
        })
    });
    g.bench_function("reference", |b| {
        // The monolithic per-point solver, the paper-faithful reference
        // implementation.
        b.iter(|| black_box(reference_analysis(&nest, cache, &opts)))
    });
    g.finish();
}

/// N=96 tier: the size where the ≥10× bar and the seq-vs-par comparison
/// are measured (N=64 analyses finish too fast for a stable par margin).
fn bench_table1_n96(c: &mut Criterion) {
    let cache = table1_cache();
    let nest = matmul_n(96);
    let opts = AnalysisOptions::default();
    let threads = host_threads().max(4);

    // Bit-identity of sequential and sharded cascades against the
    // reference, at full budget, before any timing.
    let reference = reference_analysis(&nest, cache, &opts);
    assert_eq!(
        reference,
        Analyzer::new(cache).options(opts.clone()).analyze(&nest),
        "sequential cascade diverged at N=96"
    );
    assert_eq!(
        reference,
        Analyzer::new(cache)
            .options(opts.clone())
            .threads(threads)
            .analyze(&nest),
        "sharded cascade diverged at N=96"
    );

    let mut g = c.benchmark_group("table1-n96");
    g.sample_size(3);
    g.bench_function("cascade-seq", |b| {
        b.iter(|| {
            let a = Analyzer::new(cache).options(opts.clone());
            black_box(a.analyze(&nest))
        })
    });
    g.bench_function("cascade-par", |b| {
        b.iter(|| {
            let a = Analyzer::new(cache).options(opts.clone()).threads(threads);
            black_box(a.analyze(&nest))
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| black_box(reference_analysis(&nest, cache, &opts)))
    });
    g.finish();
}

/// Reads the recorded medians and enforces the acceptance bar: one cascade
/// analysis must be at least 3× faster than the reference per-point solver.
fn check_speedup(c: &mut Criterion) {
    let median = |label: &str| {
        c.results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| d.as_secs_f64())
    };
    let (Some(fast), Some(slow)) = (
        median("full-analysis/cascade"),
        median("full-analysis/reference"),
    ) else {
        return;
    };
    let ratio = slow / fast.max(1e-12);
    println!("full-analysis/cascade vs reference: {ratio:.1}x speedup");
    assert!(
        ratio >= 3.0,
        "the cascade must be >= 3x faster than the reference solver, got {ratio:.2}x"
    );
}

/// The data-oriented scan core's bar: ≥10× over the reference per-point
/// solver on the Table-1 matmul at N=96 (measured 11–12× on the dev
/// machine; the margin absorbs scheduler noise).
fn check_speedup_n96(c: &mut Criterion) {
    let median = |label: &str| {
        c.results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| d.as_secs_f64())
    };
    let (Some(fast), Some(slow)) = (
        median("table1-n96/cascade-seq"),
        median("table1-n96/reference"),
    ) else {
        return;
    };
    let ratio = slow / fast.max(1e-12);
    println!("table1-n96/cascade-seq vs reference: {ratio:.1}x speedup");
    assert!(
        ratio >= 10.0,
        "the cascade must be >= 10x faster than the reference solver at N=96, got {ratio:.2}x"
    );
}

/// The parallel win: with ≥4 hardware threads, the sharded cascade must
/// strictly beat the sequential one at N=96. On smaller hosts the
/// comparison is meaningless (the \"parallel\" run just pays pool
/// overhead), so the gate reports and skips.
fn check_par_beats_seq(c: &mut Criterion) {
    let median = |label: &str| {
        c.results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| d.as_secs_f64())
    };
    let (Some(seq), Some(par)) = (
        median("table1-n96/cascade-seq"),
        median("table1-n96/cascade-par"),
    ) else {
        return;
    };
    println!(
        "table1-n96 seq {seq:.3}s vs par {par:.3}s ({} hardware threads)",
        host_threads()
    );
    if host_threads() < 4 {
        println!("  par-beats-seq gate skipped: needs >= 4 hardware threads");
        return;
    }
    assert!(
        par < seq,
        "the sharded cascade must beat the sequential one on a >=4-core host: \
         par {par:.3}s vs seq {seq:.3}s"
    );
}

/// The resource governor's perf bar: with an ample (never-tripping)
/// budget keeping its accounting live, a cold analysis may cost at most
/// 2% over the ungoverned run.
fn check_governor_overhead(c: &mut Criterion) {
    let median = |label: &str| {
        c.results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| d.as_secs_f64())
    };
    let (Some(plain), Some(governed)) = (
        median("full-analysis/cascade"),
        median("full-analysis/cascade-governed"),
    ) else {
        return;
    };
    let overhead = governed / plain.max(1e-12) - 1.0;
    println!(
        "governor overhead (ample budget vs ungoverned): {:+.2}%",
        overhead * 100.0
    );
    assert!(
        overhead <= 0.02,
        "governor checkpoints must cost <= 2%, measured {:+.2}%",
        overhead * 100.0
    );
}

criterion_group!(
    benches,
    bench_full_analysis,
    bench_table1_n96,
    check_speedup,
    check_speedup_n96,
    check_par_beats_seq,
    check_governor_overhead
);
criterion_main!(benches);
