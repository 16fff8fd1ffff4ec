//! Per-stage golden snapshots on the Table-1 kernels.
//!
//! Each pipeline stage leaves an externally observable fingerprint:
//! `lower` the validated shape (depth, references, iteration points),
//! `reuse` the per-reference vector counts, `solve` the per-vector
//! indeterminate-set refinement (`examined → cold`), `cascade` the
//! per-vector replacement misses, and `classify` the assembled totals.
//! The equivalence suites prove the pipeline matches the reference oracle;
//! this snapshot pins the *intermediate* numbers, so a regression that
//! shifts work between stages while keeping the totals (e.g. a solve-stage
//! bug silently compensated by extra scanning) still fails loudly.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cme --test stage_artifacts
//! ```

use cme::cache::CacheConfig;
use cme::core::Analyzer;
use cme::reuse::{reuse_vectors, ReuseOptions};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/stage_artifacts.txt")
}

/// Renders the per-stage fingerprint of one cold sequential analysis.
fn render(nest: &cme::ir::LoopNest, cache: CacheConfig) -> String {
    let mut out = String::new();
    let analyzer = Analyzer::new(cache);
    let analysis = analyzer.analyze(nest);
    let stats = analyzer.stats();

    writeln!(out, "== {} on {} ==", nest.name(), cache).unwrap();
    writeln!(
        out,
        "lower: depth={} refs={} points={}",
        nest.depth(),
        nest.references().len(),
        nest.space().count()
    )
    .unwrap();
    let per_ref_vectors: Vec<usize> = nest
        .references()
        .iter()
        .map(|r| reuse_vectors(nest, &cache, r.id(), &ReuseOptions::default()).len())
        .collect();
    writeln!(out, "reuse: vectors-per-ref={per_ref_vectors:?}").unwrap();
    for r in &analysis.per_ref {
        writeln!(
            out,
            "solve[{}]: used={} early_stop={}",
            r.label,
            r.vectors_used(),
            r.early_stopped
        )
        .unwrap();
        // The first vectors carry the interesting refinement steps; the
        // (often long) tail is pinned in aggregate to keep the file small.
        for (vi, v) in r.vectors.iter().take(6).enumerate() {
            writeln!(
                out,
                "  cascade[{}.{vi}]: examined={} cold={} repl={}",
                r.label, v.examined, v.cold_solutions, v.replacement_misses
            )
            .unwrap();
        }
        if r.vectors.len() > 6 {
            let tail = &r.vectors[6..];
            writeln!(
                out,
                "  cascade[{}.6..{}]: examined={} cold={} repl={}",
                r.label,
                r.vectors.len(),
                tail.iter().map(|v| v.examined).sum::<u64>(),
                tail.iter().map(|v| v.cold_solutions).sum::<u64>(),
                tail.iter().map(|v| v.replacement_misses).sum::<u64>()
            )
            .unwrap();
        }
        writeln!(
            out,
            "classify[{}]: cold={} repl={} total={}",
            r.label,
            r.cold_misses,
            r.replacement_misses,
            r.total_misses()
        )
        .unwrap();
    }
    writeln!(
        out,
        "totals: cold={} repl={} misses={}",
        analysis.total_cold(),
        analysis.total_replacement(),
        analysis.total_misses()
    )
    .unwrap();
    // Cold-session artifact counts (no wall times: those are not stable).
    writeln!(
        out,
        "stats: lowered={} reuse={} solves={} scans={}+{}r",
        stats.lowered_built,
        stats.reuse_built,
        stats.cascades_built,
        stats.scans_executed,
        stats.scans_reused
    )
    .unwrap();
    out
}

#[test]
fn table1_stage_artifacts_match_golden() {
    let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
    let mut actual = String::new();
    for nest in cme::kernels::table1_suite(16) {
        actual.push_str(&render(&nest, cache));
        actual.push('\n');
    }

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {path:?} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test -p cme --test stage_artifacts"
        )
    });
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "stage artifacts diverged from the golden snapshot; if the change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
