//! Warm-vs-uncached benches for the optimizer searches, plus the
//! batch-vs-loop bench for `analyze_batch`.
//!
//! Both search benches run the *same* search code (`optimize_padding_with`,
//! `select_tile_and_layout_with`) through the *same* staged pipeline; the
//! only difference is the `Analyzer`'s caching switch. With caching off
//! every candidate layout is re-analyzed from scratch, with no memo
//! tables. With caching on, candidates that only move
//! base addresses or restride one array re-solve from the engine's memo
//! tables. Each bench first proves the two sessions produce bit-identical
//! transformations and miss counts, then times them; a final check asserts
//! the ≥2× memo speedup on the Table-1 matmul configuration and the
//! ≥1.5× batch speedup over a sequential per-nest loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use cme_cache::CacheConfig;
use cme_core::{Analyzer, ArtifactStore};
use cme_opt::{optimize_padding_with, select_tile_and_layout_with};

fn table1_cache() -> CacheConfig {
    CacheConfig::new(8192, 1, 32, 4).unwrap()
}

/// A conflict-ridden Table-1 matmul: N = 32 packed arrays overflow the 8KB
/// cache (3·32²·4B = 12KB), so replacement misses exist and the padding
/// search actually has to search.
fn matmul() -> cme_ir::LoopNest {
    let n = 32;
    cme_kernels::mmult_with_bases(n, 0, n * n, 2 * n * n)
}

fn bench_padding_search(c: &mut Criterion) {
    let cache = table1_cache();
    let nest = matmul();

    // Equivalence first: the memoized search must land on the same layout
    // with the same counts as an uncached session.
    let engine = Analyzer::new(cache);
    let uncached = Analyzer::new(cache).caching(false);
    let (nest_e, out_e) = optimize_padding_with(&engine, &nest);
    let (nest_r, out_r) = optimize_padding_with(&uncached, &nest);
    assert_eq!(nest_e, nest_r, "padding: warm and uncached layouts differ");
    assert_eq!(out_e.method, out_r.method);
    assert_eq!(out_e.total_before, out_r.total_before);
    assert_eq!(out_e.total_after, out_r.total_after);
    assert_eq!(out_e.replacement_before, out_r.replacement_before);
    assert_eq!(out_e.replacement_after, out_r.replacement_after);
    assert!(
        engine.stats().memo_hit_rate() > 0.0,
        "the padding search must hit the memo tables"
    );
    println!("padding search: {out_e}\n{}\n", engine.stats());

    let mut g = c.benchmark_group("optimize-padding");
    g.sample_size(3);
    g.bench_function("engine", |b| {
        b.iter(|| black_box(optimize_padding_with(&engine, &nest)))
    });
    g.bench_function("uncached", |b| {
        b.iter(|| black_box(optimize_padding_with(&uncached, &nest)))
    });
    g.finish();
}

fn bench_tile_search(c: &mut Criterion) {
    let cache = table1_cache();
    let nest = matmul();
    let n = 32;

    let engine = Analyzer::new(cache);
    let uncached = Analyzer::new(cache).caching(false);
    let pick_e =
        select_tile_and_layout_with(&engine, &nest, 1, 2, n, n).expect("tiling applies to matmul");
    let pick_r = select_tile_and_layout_with(&uncached, &nest, 1, 2, n, n)
        .expect("tiling applies to matmul");
    assert_eq!(pick_e, pick_r, "tiling: warm and uncached choices differ");

    let mut g = c.benchmark_group("select-tile-and-layout");
    g.sample_size(3);
    g.bench_function("engine", |b| {
        b.iter(|| black_box(select_tile_and_layout_with(&engine, &nest, 1, 2, n, n)))
    });
    g.bench_function("uncached", |b| {
        b.iter(|| black_box(select_tile_and_layout_with(&uncached, &nest, 1, 2, n, n)))
    });
    g.finish();
}

/// Translates every array of a nest by `lines` whole cache lines — the
/// candidate class a converged base-address sweep enumerates.
fn translate_layout(nest: &cme_ir::LoopNest, cache: &CacheConfig, lines: i64) -> cme_ir::LoopNest {
    let mut out = nest.clone();
    let mut seen = Vec::new();
    for r in nest.references() {
        let id = r.array();
        if seen.contains(&id) {
            continue;
        }
        seen.push(id);
        let base = out.array(id).base();
        out.array_mut(id)
            .set_base(base + lines * cache.line_elems());
    }
    out
}

/// Batch multi-nest analysis vs a sequential per-nest loop, on the
/// workload `analyze_batch` exists for: every Table-1 kernel at several
/// candidate layouts (line-aligned translations, the base-sweep candidate
/// class). The loop re-enters the engine one nest at a time with a
/// one-shot session per candidate — the pre-batch pattern of the diffcheck
/// corpus replay and externally-driven searches — so every candidate pays
/// cold stages. The batched session analyzes the same candidates in one
/// call, sharing memo tables (layout siblings reuse their reuse vectors,
/// solve sets, and scans) and one worker pool across the whole batch.
fn bench_batch_vs_loop(c: &mut Criterion) {
    let cache = table1_cache();
    let n = 32;
    let candidates: Vec<_> = cme_kernels::table1_suite(n)
        .iter()
        .flat_map(|nest| (0..4).map(|v| translate_layout(nest, &cache, v)))
        .collect();
    let threads = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(8);

    // Equivalence first: the batch must be bit-identical to per-nest runs.
    let solo: Vec<_> = candidates
        .iter()
        .map(|nest| Analyzer::new(cache).analyze(nest))
        .collect();
    let batched = Analyzer::new(cache).threads(threads);
    assert_eq!(
        batched.analyze_batch(&candidates),
        solo,
        "batched analyses diverged from per-nest sessions"
    );

    let mut g = c.benchmark_group("table1-layout-sweep");
    g.sample_size(5);
    g.bench_function("per-nest-loop", |b| {
        b.iter(|| {
            // One-shot session per candidate: cold per-nest analysis, one
            // nest at a time.
            for nest in &candidates {
                black_box(Analyzer::new(cache).analyze(nest));
            }
        })
    });
    g.bench_function("batch", |b| {
        b.iter(|| {
            // A fresh batched session each iteration: the same candidates,
            // but all stages share one pool and one set of memo tables.
            black_box(
                Analyzer::new(cache)
                    .threads(threads)
                    .analyze_batch(&candidates),
            )
        })
    });
    g.finish();
}

/// Cold-vs-warm persistent-store replay of the Table-1 suite: the cold
/// pass starts from an empty store directory (every nest recomputes and
/// writes through), the warm pass replays the same suite through fresh
/// sessions against the populated store (every nest answers from disk
/// before any pipeline stage runs) — the `cme-serve` restart scenario.
fn bench_store_replay(c: &mut Criterion) {
    let cache = table1_cache();
    let suite = cme_kernels::table1_suite(32);
    let dir = std::env::temp_dir().join(format!("cme-bench-store-{}", std::process::id()));

    // Equivalence first: a warm store-served replay must be bit-identical
    // to storeless analysis.
    std::fs::remove_dir_all(&dir).ok();
    let plain: Vec<_> = suite
        .iter()
        .map(|nest| Analyzer::new(cache).analyze(nest))
        .collect();
    {
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let writer = Analyzer::new(cache).store(Arc::clone(&store));
        for nest in &suite {
            writer.analyze(nest);
        }
        let warm = Analyzer::new(cache).store(store);
        let served: Vec<_> = suite.iter().map(|nest| warm.analyze(nest)).collect();
        assert_eq!(served, plain, "store-served counts diverged");
        assert_eq!(
            warm.stats().store_hits,
            suite.len() as u64,
            "the warm replay must answer every nest from the store"
        );
    }

    let mut g = c.benchmark_group("table1-store-replay");
    g.sample_size(5);
    g.bench_function("cold-start", |b| {
        b.iter(|| {
            // Empty store: recompute everything, write everything through.
            std::fs::remove_dir_all(&dir).ok();
            let store = Arc::new(ArtifactStore::open(&dir).unwrap());
            let a = Analyzer::new(cache).store(store);
            for nest in &suite {
                black_box(a.analyze(nest));
            }
        })
    });
    // Repopulate once so the warm rows always start from a full store.
    {
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let a = Analyzer::new(cache).store(store);
        for nest in &suite {
            a.analyze(nest);
        }
    }
    g.bench_function("warm-start", |b| {
        b.iter(|| {
            // A fresh session (cold memo tables) against the populated
            // store: every artifact is served from disk.
            let store = Arc::new(ArtifactStore::open(&dir).unwrap());
            let a = Analyzer::new(cache).store(store);
            for nest in &suite {
                black_box(a.analyze(nest));
            }
        })
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Closed-form parametric sweep vs exhaustive enumeration (Section
/// 5.1.3): a 4096-candidate Table-1 padding sweep answered by sampling a
/// bounded window (≤ 3 set-mapping periods), fitting a certified
/// quasi-polynomial, and minimizing it analytically — against brute force
/// over every candidate in one batched session. Equivalence first: the
/// analytic optimum must be bit-identical to the exhaustive argmin.
fn bench_closed_form_sweep(c: &mut Criterion) {
    let cache = table1_cache();
    // N = 16 keeps the exhaustive side affordable in CI; the candidate
    // range stays at the full 4096 padding values (four lines per step,
    // so the set-mapping period on the step lattice is 64 candidates and
    // the sample window stays well inside 3 periods).
    let n = 16;
    let nest = cme_kernels::mmult_with_bases(n, 0, n * n, 2 * n * n);
    let request = cme_core::SweepRequest::new(
        cme_core::SweepParameter::PadBytes {
            after: cme_ir::ArrayId::from_index(0),
        },
        0,
        4096,
        4 * cache.line_bytes(),
    );

    let exhaustive = |nest: &cme_ir::LoopNest| {
        let candidates: Vec<_> = (0..request.count)
            .map(|k| {
                request
                    .parameter
                    .apply(nest, &cache, request.value_at(k))
                    .expect("padding is always feasible")
            })
            .collect();
        Analyzer::new(cache)
            .analyze_batch(&candidates)
            .iter()
            .map(|r| r.total_misses())
            .enumerate()
            .min_by_key(|&(k, m)| (m, k))
            .expect("non-empty range")
    };

    let result = Analyzer::new(cache)
        .sweep(&nest, &request)
        .expect("sweeps never error");
    assert!(
        result.function.is_some() && result.certificate.is_some(),
        "the table-1 padding sweep must fit a certified closed form"
    );
    assert!(
        result.evaluations * 3 <= result.candidates * 2,
        "the closed form must be answered from a bounded sample window \
         ({} of {} analyses)",
        result.evaluations,
        result.candidates
    );
    let (ex_k, ex_misses) = exhaustive(&nest);
    assert_eq!(
        (result.best_k, result.best_misses),
        (ex_k, ex_misses),
        "closed-form optimum diverged from exhaustive enumeration"
    );
    println!("closed-form sweep: {result}");

    let mut g = c.benchmark_group("table1-padding-sweep");
    g.sample_size(2);
    g.bench_function("closed-form", |b| {
        b.iter(|| {
            // A fresh session each iteration: cold memo, full sample +
            // fit + analytic minimization.
            black_box(Analyzer::new(cache).sweep(&nest, &request).unwrap())
        })
    });
    g.bench_function("exhaustive", |b| b.iter(|| black_box(exhaustive(&nest))));
    g.finish();
}

/// The sweep engine's acceptance bar: the closed-form answer over the
/// 4096-candidate padding range must be at least 5× faster than
/// exhaustive enumeration.
fn check_sweep_speedup(c: &mut Criterion) {
    let median = |label: &str| {
        c.results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| d.as_secs_f64())
    };
    let (Some(closed), Some(exhaustive)) = (
        median("table1-padding-sweep/closed-form"),
        median("table1-padding-sweep/exhaustive"),
    ) else {
        return;
    };
    let ratio = exhaustive / closed.max(1e-12);
    println!("table1-padding-sweep/closed-form vs exhaustive: {ratio:.1}x speedup");
    assert!(
        ratio >= 5.0,
        "closed-form sweeps must be >= 5x faster than exhaustive \
         enumeration, got {ratio:.2}x"
    );
}

/// The store's acceptance bar: warm-start replay of the Table-1 suite
/// must be at least 3× faster than the cold start.
fn check_store_speedup(c: &mut Criterion) {
    let median = |label: &str| {
        c.results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| d.as_secs_f64())
    };
    let (Some(warm), Some(cold)) = (
        median("table1-store-replay/warm-start"),
        median("table1-store-replay/cold-start"),
    ) else {
        return;
    };
    let ratio = cold / warm.max(1e-12);
    println!("table1-store-replay/warm-start vs cold-start: {ratio:.1}x speedup");
    assert!(
        ratio >= 3.0,
        "warm-start store replay must be >= 3x faster than cold start, got {ratio:.2}x"
    );
}

/// The batch API's acceptance bar: analyzing the Table-1 layout sweep in
/// one batched session must be at least 1.5× faster than the sequential
/// per-nest loop.
fn check_batch_speedup(c: &mut Criterion) {
    let median = |label: &str| {
        c.results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, d)| d.as_secs_f64())
    };
    let (Some(batch), Some(looped)) = (
        median("table1-layout-sweep/batch"),
        median("table1-layout-sweep/per-nest-loop"),
    ) else {
        return;
    };
    let ratio = looped / batch.max(1e-12);
    println!("table1-layout-sweep/batch vs per-nest-loop: {ratio:.1}x speedup");
    assert!(
        ratio >= 1.5,
        "analyze_batch must be >= 1.5x faster than a per-nest loop, got {ratio:.2}x"
    );
}

/// Reads the recorded medians and enforces the acceptance bar: a memo-warm
/// search must be at least 2× faster than the same search on an uncached
/// session of the same pipeline.
fn check_speedup(c: &mut Criterion) {
    for pair in [
        ("optimize-padding/engine", "optimize-padding/uncached"),
        (
            "select-tile-and-layout/engine",
            "select-tile-and-layout/uncached",
        ),
    ] {
        let median = |label: &str| {
            c.results
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, d)| d.as_secs_f64())
        };
        let (Some(e), Some(l)) = (median(pair.0), median(pair.1)) else {
            continue;
        };
        let ratio = l / e.max(1e-12);
        println!("{} vs {}: {ratio:.1}x speedup", pair.0, pair.1);
        assert!(
            ratio >= 2.0,
            "{} must be >= 2x faster than {}, got {ratio:.2}x",
            pair.0,
            pair.1
        );
    }
}

criterion_group!(
    benches,
    bench_padding_search,
    bench_tile_search,
    bench_batch_vs_loop,
    bench_closed_form_sweep,
    bench_store_replay,
    check_speedup,
    check_batch_speedup,
    check_sweep_speedup,
    check_store_speedup
);
criterion_main!(benches);
