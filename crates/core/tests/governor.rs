//! Governor behaviour on the dense cascade path: a tiny budget must
//! degrade an analysis whose scan sets go dense to a sound bound (never
//! panic, never undercount), and truncated outcomes must never leak into
//! the memo tables or the persistent artifact store.
//!
//! mmult N=16 on the 2048 B 4-way cache puts some of its scan sets on the
//! dense side of the density heuristic under default options; every test
//! checks that on its exact run, so the dense path stays covered.

use std::sync::Arc;

use cme_cache::CacheConfig;
use cme_core::{Analyzer, ArtifactStore, Budget};
use cme_kernels::mmult;

fn cache() -> CacheConfig {
    CacheConfig::new(2048, 4, 32, 4).unwrap()
}

/// Asserts that `analyzer`'s runs so far held at least one scan set in
/// the dense representation.
fn assert_took_dense_path(analyzer: &Analyzer) {
    let stats = analyzer.stats();
    assert!(stats.scan_sets_dense > 0, "no dense scan set: {stats}");
}

#[test]
fn tiny_budget_truncates_the_dense_path_to_a_sound_bound() {
    let nest = mmult(16);
    let exact_session = Analyzer::new(cache());
    let exact = exact_session.analyze(&nest);
    assert_took_dense_path(&exact_session);

    let governed = Analyzer::new(cache())
        .budget(Budget::unlimited().with_max_solves(50))
        .try_analyze(&nest)
        .unwrap();
    assert!(
        governed.outcome.is_exhausted(),
        "50 solves cannot finish mmult N=16: {:?}",
        governed.outcome
    );
    // Sound: truncation only ever adds misses, bounded by all-miss.
    let space: u64 = nest.space().count();
    let per_ref = nest.references().len() as u64;
    assert!(governed.analysis.total_misses() >= exact.total_misses());
    assert!(governed.analysis.total_misses() <= space * per_ref);
}

#[test]
fn truncated_dense_scans_are_never_memoized() {
    let nest = mmult(16);
    let exact_session = Analyzer::new(cache());
    let exact = exact_session.analyze(&nest);
    assert_took_dense_path(&exact_session);

    // A solve budget (not a point ceiling) trips *mid-pipeline*: the
    // first reference's scans still run, truncated by the dead governor.
    let analyzer = Analyzer::new(cache()).budget(Budget::unlimited().with_max_solves(50));
    let first = analyzer.try_analyze(&nest).unwrap();
    assert!(first.outcome.is_exhausted(), "{:?}", first.outcome);
    assert!(first.analysis.total_misses() >= exact.total_misses());
    let after_first = analyzer.stats();

    // A second identical query must redo the truncated work — nothing of
    // a truncated scan may be served from the memo tables.
    let second = analyzer.try_analyze(&nest).unwrap();
    assert!(second.outcome.is_exhausted());
    assert_eq!(
        first.analysis, second.analysis,
        "degradation must be deterministic"
    );
    let after_second = analyzer.stats();
    assert_eq!(
        after_second.scans_reused, after_first.scans_reused,
        "a truncated scan outcome was memoized: {after_second}"
    );
    assert!(
        after_second.scans_executed > after_first.scans_executed,
        "second truncated query executed no scans: {after_second}"
    );
}

#[test]
fn truncated_dense_analyses_are_never_persisted() {
    let dir =
        std::env::temp_dir().join(format!("cme-governor-dense-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let nest = mmult(16);

    let truncated = Analyzer::new(cache())
        .budget(Budget::unlimited().with_max_solves(50))
        .store(store.clone());
    let g = truncated.try_analyze(&nest).unwrap();
    assert!(g.outcome.is_exhausted());
    assert_eq!(
        truncated.stats().store_writes,
        0,
        "a truncated analysis reached the artifact store"
    );
    assert_eq!(store.entry_count(), 0);

    // The same session shape with no budget persists normally.
    let complete = Analyzer::new(cache()).store(store.clone());
    let full = complete.analyze(&nest);
    assert_took_dense_path(&complete);
    assert!(complete.stats().store_writes > 0);
    assert!(store.entry_count() > 0);
    // And the degraded run's overcount brackets the persisted truth.
    assert!(g.analysis.total_misses() >= full.total_misses());

    let _ = std::fs::remove_dir_all(&dir);
}
