//! Persistence contract of the on-disk artifact store.
//!
//! Round-trips randomized `cme-testgen` nests through
//! serialize → deserialize and asserts bit-identical counts; then attacks
//! the store with corrupted bytes and version-skewed entries and asserts
//! the engine *recomputes* — never panics, never serves a stale or
//! damaged artifact. Also pins the two safety invariants of the write
//! path: exhausted (governor-truncated) analyses are never persisted, and
//! the LRU size bound actually bounds the directory. A store hit carries
//! the caller's names, and on a session shared between threads every
//! served request reports its own store hit. A non-LRU request whose
//! replay runs out of budget after a store hit still overcounts the
//! simulator.

use cme::api::{AnalyzeRequest, CacheSpec, Provenance};
use cme::cache::{simulate_nest_model, PolicyKind};
use cme::core::solve::reference_analysis;
use cme::core::store::{ArtifactKey, ArtifactStore};
use cme::core::{Analyzer, Budget};
use cme::ir::codec::{fnv1a64, Encoder};
use cme::ir::db::{layout_hash, structural_hash};
use cme::ir::AccessKind;
use cme::{AnalysisOptions, CacheConfig, LoopNest, NestBuilder};
use cme_testgen::{arb_cache, arb_nest, NestDistribution};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cme-test-store-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The storeless reference result, from the `solve` oracle.
fn plain(nest: &LoopNest, cache: CacheConfig) -> cme::NestAnalysis {
    reference_analysis(nest, cache, &AnalysisOptions::default())
}

/// The store key the engine computes for `nest` under default options.
fn key_of(nest: &LoopNest, cache: &CacheConfig) -> ArtifactKey {
    ArtifactKey::new(
        structural_hash(nest),
        layout_hash(nest),
        cache,
        &AnalysisOptions::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// serialize → deserialize is the identity on analysis counts: a
    /// second session answering from the store is bit-identical to the
    /// session that computed and wrote the artifact.
    #[test]
    fn artifacts_round_trip_bit_identically(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
    ) {
        let dir = temp_dir("roundtrip");
        {
            let store = Arc::new(ArtifactStore::open(&dir).unwrap());
            let writer = Analyzer::new(cache).store(Arc::clone(&store));
            let computed = writer.analyze(&nest);
            prop_assert_eq!(writer.stats().store_writes, 1);

            // Direct store round-trip of the same artifact.
            let key = key_of(&nest, &cache);
            let read_back = store.get(&key).expect("just written");
            prop_assert_eq!(&read_back, &computed);

            // A fresh session (cold memo tables) must serve from disk.
            let reader = Analyzer::new(cache).store(store);
            let served = reader.analyze(&nest);
            prop_assert_eq!(reader.stats().store_hits, 1);
            prop_assert_eq!(&served, &computed);
            prop_assert_eq!(&served, &plain(&nest, cache));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupted_entries_are_evicted_and_recomputed() {
    let dir = temp_dir("corrupt");
    let cache = CacheConfig::new(1024, 2, 32, 4).unwrap();
    let nest = cme::kernels::mmult(10);
    let expect = plain(&nest, cache);

    {
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        Analyzer::new(cache).store(store).analyze(&nest);
    }

    // Flip one payload byte in every stored entry: the checksum no longer
    // matches, so the bytes must not be trusted.
    let mut flipped = 0;
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("cmea") {
            continue;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        flipped += 1;
    }
    assert_eq!(flipped, 1, "the analysis persisted exactly one artifact");

    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let analyzer = Analyzer::new(cache).store(Arc::clone(&store));
    let recomputed = analyzer.analyze(&nest);
    assert_eq!(recomputed, expect, "recompute, never trust corrupt bytes");
    let stats = store.stats();
    assert_eq!(stats.corrupt_evicted, 1, "the damaged entry was deleted");
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.writes, 1, "the fresh result was re-persisted");

    // The rewritten artifact is healthy again.
    let reader = Analyzer::new(cache).store(Arc::clone(&store));
    assert_eq!(reader.analyze(&nest), expect);
    assert_eq!(reader.stats().store_hits, 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_skewed_entries_are_evicted_and_recomputed() {
    let dir = temp_dir("version");
    std::fs::create_dir_all(&dir).unwrap();
    let cache = CacheConfig::new(1024, 2, 32, 4).unwrap();
    let nest = cme::kernels::mmult(8);
    let expect = plain(&nest, cache);

    // A well-formed entry from "the future": valid magic and checksum,
    // format version 99. The reader must treat it as version skew (not
    // corruption), evict it, and recompute.
    let key = key_of(&nest, &cache);
    let mut e = Encoder::new();
    e.raw(b"CMEA");
    e.u32(99);
    let checksum = fnv1a64(e.bytes());
    e.u64(checksum);
    std::fs::write(dir.join(key.file_name()), e.into_bytes()).unwrap();

    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let analyzer = Analyzer::new(cache).store(Arc::clone(&store));
    assert_eq!(analyzer.analyze(&nest), expect);
    let stats = store.stats();
    assert_eq!(stats.version_evicted, 1, "the skewed entry was deleted");
    assert_eq!(stats.hits, 0, "a version-skewed entry is never served");
    assert_eq!(stats.writes, 1, "replaced by a current-version artifact");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_analyses_are_never_persisted() {
    let dir = temp_dir("exhausted");
    let cache = CacheConfig::new(1024, 2, 32, 4).unwrap();
    let nest = cme::kernels::mmult(10);

    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let tight = Analyzer::new(cache)
        .store(Arc::clone(&store))
        .budget(Budget::unlimited().with_max_solves(1));
    let governed = tight.try_analyze(&nest).unwrap();
    assert!(
        !matches!(governed.outcome, cme::Outcome::Complete),
        "the one-solve budget must exhaust on matmul"
    );
    assert_eq!(store.entry_count(), 0, "truncated artifacts never land");
    assert_eq!(store.stats().writes, 0);

    // A later full-budget session finds nothing to reuse — it recomputes
    // the exact counts and only *then* persists.
    let full = Analyzer::new(cache).store(Arc::clone(&store));
    let exact = full.analyze(&nest);
    assert_eq!(full.stats().store_hits, 0);
    assert_eq!(exact, plain(&nest, cache));
    assert_eq!(store.entry_count(), 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lru_eviction_enforces_the_size_bound() {
    let dir = temp_dir("lru-measure");
    let cache = CacheConfig::new(1024, 2, 32, 4).unwrap();
    let nests: Vec<LoopNest> = (6..=10).map(cme::kernels::mmult).collect();

    // Measure the footprint of the full set, unbounded.
    let total = {
        let store = Arc::new(ArtifactStore::open(&dir).unwrap());
        let a = Analyzer::new(cache).store(Arc::clone(&store));
        for nest in &nests {
            a.analyze(nest);
        }
        assert_eq!(store.entry_count(), nests.len());
        store.total_bytes()
    };
    std::fs::remove_dir_all(&dir).ok();

    // Replay into a store that can only hold about half of that: older
    // entries must be evicted and the bound must hold after every write.
    let dir = temp_dir("lru-bounded");
    let store = Arc::new(
        ArtifactStore::open_bounded(&dir, total / 2, ArtifactStore::DEFAULT_MAX_ENTRY_BYTES)
            .unwrap(),
    );
    for nest in &nests {
        // One session per nest so every artifact is written through.
        Analyzer::new(cache).store(Arc::clone(&store)).analyze(nest);
        assert!(
            store.total_bytes() <= total / 2,
            "size bound violated: {} > {}",
            store.total_bytes(),
            total / 2
        );
    }
    assert!(
        store.stats().lru_evicted >= 1,
        "something must have been evicted"
    );
    assert!(store.entry_count() < nests.len());

    std::fs::remove_dir_all(&dir).ok();
}

/// The store key carries no names, so a hit must take the nest name and
/// reference labels from the caller's nest, not from the entry's writer.
#[test]
fn store_hits_keep_the_callers_names() {
    let named = |nest: &str, arrays: [&str; 2]| {
        let mut b = NestBuilder::new();
        b.name(nest);
        b.ct_loop("i", 1, 16).ct_loop("j", 1, 16);
        let x = b.array(arrays[0], &[16, 16], 0);
        let y = b.array(arrays[1], &[16, 16], 300);
        b.reference(x, AccessKind::Read, &[("j", 0), ("i", 0)]);
        b.reference(y, AccessKind::Write, &[("j", 0), ("i", 0)]);
        b.build().unwrap()
    };
    let dir = temp_dir("names");
    let cache = CacheConfig::new(1024, 2, 32, 4).unwrap();
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let (writer, reader) = (named("writer", ["X", "Y"]), named("reader", ["A", "B"]));
    Analyzer::new(cache)
        .store(Arc::clone(&store))
        .analyze(&writer);

    let session = Analyzer::new(cache).store(store);
    let served = session.analyze(&reader);
    assert_eq!(
        session.stats().store_hits,
        1,
        "names must not split the store"
    );
    assert_eq!(served.nest_name, "reader");
    assert_eq!(served, plain(&reader, cache));
    std::fs::remove_dir_all(&dir).ok();
}

/// One store-backed session shared by two threads: each response's
/// `store_hit` says whether the store answered *that* request, however
/// the other thread's queries move the session's hit counter.
#[test]
fn a_shared_session_reports_each_requests_own_store_hit() {
    let dir = temp_dir("shared");
    let request = |i: i64| {
        let nest = cme::kernels::mmult_with_bases(8, 0, 64 + i, 4096 + 3 * i);
        AnalyzeRequest::from_nest(format!("q{i}"), &nest, CacheSpec::new(1024, 2, 32, 4))
            .expect("mmult has a textual form")
    };
    let primed = request(0);
    let model = primed.cache_model().unwrap();
    let session = Analyzer::with_model(model).store(Arc::new(ArtifactStore::open(&dir).unwrap()));
    assert!(!session.serve(&primed).result.unwrap().store_hit);
    let fresh: Vec<AnalyzeRequest> = (1..=48).map(request).collect();
    // Both loops start together, so the primed hits land while the fresh
    // requests are being analyzed.
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for _ in 0..48 {
                let result = session.serve(&primed).result.unwrap();
                assert!(result.store_hit, "a primed request is a store hit");
            }
        });
        s.spawn(|| {
            start.wait();
            for req in &fresh {
                let storeless = Analyzer::with_model(model).serve(req);
                assert_eq!(session.serve(req), storeless, "a first-sight request");
            }
        });
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The store answers a FIFO request's analytic part with the exact LRU
/// count, which undercounts FIFO on mmult(16) at 512 B 4-way, and then the
/// model replay runs out of budget. The degraded answer must still bound
/// the simulator from above: the replayed prefix plus every unreplayed
/// access counted as a miss.
#[test]
fn exhausted_fifo_replays_overcount_after_a_store_hit() {
    let dir = temp_dir("fifo");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let nest = cme::kernels::mmult(16);
    for line in [32, 16] {
        let mut spec = CacheSpec::new(512, 4, line, 4);
        spec.policy = PolicyKind::Fifo;
        let model = spec.model().unwrap();
        let session = || Analyzer::with_model(model).store(Arc::clone(&store));
        let mut request = AnalyzeRequest::from_nest("fifo", &nest, spec).unwrap();
        let primed = session().serve(&request).result.unwrap();
        assert!(primed.outcome.complete && !primed.store_hit);
        request.max_solves = Some(1000);
        let degraded = session().serve(&request).result.unwrap();
        let simulated = simulate_nest_model(&nest, &model).total().misses();
        assert!(degraded.lru_bound < Some(simulated), "{degraded:?}");
        assert!(degraded.store_hit && !degraded.outcome.complete);
        assert!(
            degraded.total_misses >= simulated,
            "{line} B lines: {} misses answered, {simulated} simulated",
            degraded.total_misses
        );
        assert_eq!(degraded.provenance, Some(Provenance::Simulator));
        assert_eq!((degraded.writebacks, degraded.l2_misses), (None, None));
    }
    std::fs::remove_dir_all(&dir).ok();
}
