//! Sliding-window cascade performance dump (`BENCH_cascade.json`).
//!
//! Runs one full Table-1 matmul analysis through the reference per-point
//! solver (the `solve` oracle) and through the engine's run-compressed
//! sliding-window cascade (sequential and sharded), checks the miss counts
//! are bit-identical, and writes a machine-readable JSON report: wall
//! times and speedups, plus each cascade run's `EngineStats` in the stats
//! schema (`EngineStats::to_json`: per-stage times in seconds, points
//! scanned, rows covered incrementally vs by rebuilds, the peak
//! survivor-set size).
//!
//! ```text
//! cargo run --release -p cme-bench --bin perfdump -- \
//!     [--n 64] [--threads 0] [--expect-misses M] [--out BENCH_cascade.json]
//! ```
//!
//! `--threads 0` (the default) sizes the shard pool from the host's
//! available parallelism. With `--expect-misses`, the run exits nonzero
//! when the analysis total differs — the CI bench-smoke gate.

use std::time::Instant;

use cme_bench::BenchArgs;
use cme_core::api::json::{obj, Json};
use cme_core::solve::reference_analysis;
use cme_core::{AnalysisOptions, Analyzer, SweepParameter, SweepRequest};
use cme_ir::ArrayId;

fn main() {
    let args = BenchArgs::from_env();
    let n = args.n(64);
    let cache = args.cache();
    // `--threads 0` (the default) is every available core, as for any session.
    let threads = Analyzer::new(cache)
        .threads(args.value_or("--threads", 0).max(0) as usize)
        .thread_count();
    let out_path = args
        .value_str("--out")
        .unwrap_or("BENCH_cascade.json")
        .to_string();

    let nest = cme_kernels::mmult_with_bases(n, 0, n * n, 2 * n * n);
    let opts = AnalysisOptions::default();

    eprintln!("perfdump: table-1 matmul, N = {n}, {threads} threads");

    let t = Instant::now();
    let reference = reference_analysis(&nest, cache, &opts);
    let reference_s = t.elapsed().as_secs_f64();
    eprintln!(
        "  reference:       {reference_s:>8.3}s  ({} misses)",
        reference.total_misses()
    );

    let seq = Analyzer::new(cache).options(opts.clone());
    let t = Instant::now();
    let seq_res = seq.analyze(&nest);
    let seq_s = t.elapsed().as_secs_f64();
    let seq_stats = seq.stats();
    eprintln!(
        "  cascade (1 thr): {seq_s:>8.3}s  ({:.2}x)",
        reference_s / seq_s.max(1e-12)
    );

    // Sweep the shard-pool width in powers of two up to the requested
    // count, so the par-vs-seq gap (ROADMAP item 3) is visible per thread
    // count, each run on a fresh session (no memo carry-over).
    let mut sweep_counts: Vec<usize> = std::iter::successors(Some(1usize), |t| Some(t * 2))
        .take_while(|t| *t < threads)
        .collect();
    sweep_counts.push(threads);
    let mut sweep: Vec<(usize, f64)> = Vec::new();
    let mut par_s = seq_s;
    let mut par_stats = seq_stats.clone();
    let mut par_threads = seq.thread_count();
    for &t_count in &sweep_counts {
        let par = Analyzer::new(cache).options(opts.clone()).threads(t_count);
        let t = Instant::now();
        let par_res = par.analyze(&nest);
        let secs = t.elapsed().as_secs_f64();
        eprintln!(
            "  cascade ({t_count} thr): {secs:>8.3}s  ({:.2}x)",
            reference_s / secs.max(1e-12)
        );
        assert_eq!(
            reference, par_res,
            "sharded cascade ({t_count} threads) diverged from the reference solver"
        );
        sweep.push((t_count, secs));
        // The widest run is the headline "par" row, at the pool width the
        // session actually ran (not the requested count).
        par_s = secs;
        par_stats = par.stats();
        par_threads = par.thread_count();
    }
    eprintln!("{seq_stats}");

    assert_eq!(
        reference, seq_res,
        "sequential cascade diverged from the reference solver"
    );

    // Closed-form parametric sweep vs exhaustive enumeration (Section
    // 5.1.3): a 4096-candidate padding sweep answered by fitting a
    // certified quasi-polynomial from a bounded sample window, checked
    // bit-identical against brute force over every candidate.
    let request = SweepRequest::new(
        SweepParameter::PadBytes {
            after: ArrayId::from_index(0),
        },
        0,
        4096,
        cache.line_bytes(),
    );
    let closed = Analyzer::new(cache).options(opts.clone());
    let t = Instant::now();
    let sweep_res = closed.sweep(&nest, &request).expect("sweep never errors");
    let sweep_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (ex_k, ex_misses) = exhaustive_argmin(&nest, cache, &opts, &request);
    let exhaustive_s = t.elapsed().as_secs_f64();
    assert!(
        sweep_res.function.is_some() && sweep_res.certificate.is_some(),
        "the table-1 padding sweep must fit a certified closed form"
    );
    assert_eq!(
        (sweep_res.best_k, sweep_res.best_misses),
        (ex_k, ex_misses),
        "closed-form optimum diverged from exhaustive enumeration"
    );
    eprintln!(
        "  sweep:           {sweep_s:>8.3}s  ({} of {} analyses; exhaustive {exhaustive_s:.3}s, {:.2}x)",
        sweep_res.evaluations,
        sweep_res.candidates,
        exhaustive_s / sweep_s.max(1e-12)
    );

    let speedup = |secs: f64| Json::Float(reference_s / secs.max(1e-12));
    let report = obj([
        ("kernel", Json::Str("mmult".into())),
        ("n", Json::Int(n)),
        (
            "cache",
            obj([
                ("size_bytes", Json::Int(cache.size_bytes())),
                ("assoc", Json::Int(cache.assoc())),
                ("line_bytes", Json::Int(cache.line_bytes())),
                ("elem_bytes", Json::Int(cache.elem_bytes())),
            ]),
        ),
        // The cascade rows ran at different pool widths, recorded from the
        // sessions' actual `Analyzer::thread_count()`.
        ("threads_seq", Json::UInt(seq.thread_count() as u64)),
        ("threads_par", Json::UInt(par_threads as u64)),
        (
            "threads_sweep",
            Json::Arr(
                sweep
                    .iter()
                    .map(|&(threads, secs)| {
                        obj([
                            ("threads", Json::UInt(threads as u64)),
                            ("seconds", Json::Float(secs)),
                            ("speedup", speedup(secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_misses", Json::UInt(reference.total_misses())),
        ("reference_seconds", Json::Float(reference_s)),
        ("cascade_seq_seconds", Json::Float(seq_s)),
        ("cascade_par_seconds", Json::Float(par_s)),
        ("speedup_seq", speedup(seq_s)),
        ("speedup_par", speedup(par_s)),
        ("cascade_seq", seq_stats.to_json()),
        ("cascade_par", par_stats.to_json()),
        (
            "sweep",
            obj([
                ("candidates", Json::UInt(sweep_res.candidates as u64)),
                ("evaluations", Json::UInt(sweep_res.evaluations as u64)),
                ("fitted", Json::Bool(sweep_res.function.is_some())),
                ("best_k", Json::UInt(sweep_res.best_k as u64)),
                ("best_misses", Json::UInt(sweep_res.best_misses)),
                ("sweep_seconds", Json::Float(sweep_s)),
                ("exhaustive_seconds", Json::Float(exhaustive_s)),
                ("speedup", Json::Float(exhaustive_s / sweep_s.max(1e-12))),
            ]),
        ),
        (
            "incremental_fraction",
            Json::Float(
                seq_stats.window_steps as f64
                    / (seq_stats.window_steps + seq_stats.window_rebuild_rows).max(1) as f64,
            ),
        ),
    ]);
    std::fs::write(&out_path, report.encode() + "\n").expect("write report");
    eprintln!("  wrote {out_path}");

    if let Some(expect) = args.value("--expect-misses") {
        let got = reference.total_misses();
        if got != expect as u64 {
            eprintln!("FAIL: expected {expect} total misses, analysis found {got}");
            std::process::exit(1);
        }
        eprintln!("  miss gate OK ({got} total misses)");
    }
}

/// Brute force over every sweep candidate in one batched session:
/// `(best_k, best_misses)` with the smallest-parameter tie-break — the
/// baseline the closed form must reproduce bit-identically.
fn exhaustive_argmin(
    nest: &cme_ir::LoopNest,
    cache: cme_cache::CacheConfig,
    opts: &AnalysisOptions,
    request: &SweepRequest,
) -> (usize, u64) {
    let candidates: Vec<_> = (0..request.count)
        .map(|k| {
            request
                .parameter
                .apply(nest, &cache, request.value_at(k))
                .expect("padding candidates are always feasible")
        })
        .collect();
    Analyzer::new(cache)
        .options(opts.clone())
        .analyze_batch(&candidates)
        .iter()
        .map(|a| a.total_misses())
        .enumerate()
        .min_by_key(|&(k, m)| (m, k))
        .expect("non-empty candidate range")
}
