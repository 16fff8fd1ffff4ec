//! The staged, incremental analysis engine and the [`Analyzer`] session
//! API.
//!
//! Optimizer searches (padding, tiling, fusion) score dozens to hundreds
//! of *candidate* nests that differ only in array layout — base addresses
//! and padded column sizes — while the loop structure, the subscripts, and
//! the cache stay fixed. Re-running the full miss-finding algorithm
//! (Figure 6) per candidate repeats enormous amounts of identical work.
//!
//! The engine runs every analysis through the five-stage pipeline in
//! `stages` (`lower → reuse → solve → cascade → classify`) over nests
//! interned in a [`ProgramDb`], and memoizes each stage's artifact
//! independently under the narrowest invalidation key that is still sound
//! (derived in `keys` and `docs/ENGINE.md`):
//!
//! - **lowered nests** are cached per handle — structural hashes are
//!   computed once, at intern time;
//! - **reuse vectors** are base-invariant and cached per structure;
//! - a reference's **solve set** (the cold/indeterminate refinement)
//!   depends only on the structure and the reference's own line offset
//!   `B mod Ls`, so candidates that merely move *other* arrays reuse it;
//! - each **`(reference, reuse-vector)` window scan** depends on the full
//!   layout only through per-array line offsets and exact relative line
//!   distances, so converged search sweeps and line-aligned translations
//!   skip the scans entirely.
//!
//! [`Engine::analyze_batch`] analyzes many interned nests in one call:
//! every `(nest, reference)` work item and every scan shard of the whole
//! batch shares one work pool, so small nests cannot leave workers idle,
//! and all nests share the session's memo tables. Duplicate scan slots
//! across the batch (layout siblings share scan keys) are coalesced onto
//! one executor per key (see the `batch` module docs). A batch's
//! per-nest results are bit-identical to analyzing each nest on its own
//! — the single-nest path *is* a batch of one.
//!
//! Every cached artifact is an exact analysis result: an [`Analyzer`] is
//! bit-identical to the reference oracle in [`crate::solve`] whether its
//! memos are warm or cold, sequential or pooled (property-tested in
//! `tests/engine_equivalence.rs`). The oracle is a test baseline only;
//! nothing in the engine calls it.
//!
//! There is one pipeline. An uncached session (`.caching(false)`: no memo
//! tables, store, or sweep memo) and a nest whose iteration space exceeds
//! the memo size cap (no memo tables) run the very same governed stage
//! code; their artifacts are just never stored.

mod analyzer;
mod batch;
mod keys;
mod memo;
mod model;
mod persist;
mod pool;
mod stages;
mod stats;
pub mod sweep;
// The unit tests check the engine against the `solve` oracle, which no
// file under `engine/` names (`tests/architecture.rs`).
#[cfg(test)]
#[path = "../engine_tests.rs"]
mod tests;

pub use analyzer::Analyzer;
pub use model::ModelClassification;
pub use stats::EngineStats;
pub use sweep::{SweepMetric, SweepParameter, SweepRequest, SweepResult};

use crate::governor::{AnalysisError, Budget, CancelToken, GovernedAnalysis, QueryGovernor};
use crate::solve::{AnalysisOptions, NestAnalysis, RefAnalysis};
use crate::store::ArtifactStore;
use cme_cache::{CacheConfig, CacheModel};
use cme_ir::{LoopNest, NestId, ProgramDb, RefId};
use cme_reuse::ReuseVector;
use stages::cascade::{scan_run_block, split_blocks, CascadeResult};
use stages::classify::Classification;
use stages::lower::LoweredNest;
use stages::reuse::ReusePlan;
use stages::solve::SolveSet;
use stats::Counters;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The staged incremental analysis engine: a fixed cache geometry, an
/// interned [`ProgramDb`], and per-stage memo tables that carry analysis
/// artifacts across candidate nests.
///
/// Most callers want the [`Analyzer`] wrapper, which fixes options and
/// threading as session defaults. `Engine` is the per-call-options core
/// (e.g. the diagnosis pass analyzes the same nest under two option sets).
#[derive(Debug)]
pub struct Engine {
    cache: CacheConfig,
    model: CacheModel, // L1 = `cache`; accessors in `engine/model.rs`
    caching: bool,
    max_cached_points: u64,
    db: ProgramDb,
    lower_memo: Mutex<HashMap<usize, Arc<LoweredNest>>>,
    reuse_memo: Mutex<HashMap<u128, ReusePlan>>,
    cascade_memo: Mutex<HashMap<u128, Arc<SolveSet>>>,
    scan_memo: Mutex<HashMap<u128, Arc<CascadeResult>>>,
    store: Option<Arc<ArtifactStore>>,
    counters: Counters,
    /// Test hook: worker items left before an injected panic fires
    /// (`u64::MAX` = disarmed).
    panic_countdown: AtomicU64,
}

enum ScanSlot {
    Ready(Arc<CascadeResult>),
    /// Needs scanning; `Some(key)` stores the merged outcome in the memo,
    /// `None` (nest not memoized) scans without storing.
    Todo(Option<u128>),
}

enum Plan {
    Done(Classification),
    Staged {
        rvs: Arc<Vec<ReuseVector>>,
        solve: Arc<SolveSet>,
        scans: Vec<ScanSlot>,
    },
}

/// One nest's slice of a batch: its lowered artifact plus the derived
/// memo-key prefix, `None` when the nest is not memoized (caching off, or
/// an iteration space above the memo size cap).
struct NestCtx {
    lowered: Arc<LoweredNest>,
    prefix: Option<u128>,
}

impl Engine {
    /// A fresh engine for one cache geometry, caching enabled.
    pub fn new(cache: CacheConfig) -> Self {
        Engine {
            cache,
            model: CacheModel::new(cache),
            caching: true,
            max_cached_points: 1 << 22,
            db: ProgramDb::new(),
            lower_memo: Mutex::new(HashMap::new()),
            reuse_memo: Mutex::new(HashMap::new()),
            cascade_memo: Mutex::new(HashMap::new()),
            scan_memo: Mutex::new(HashMap::new()),
            store: None,
            counters: Counters::default(),
            panic_countdown: AtomicU64::new(u64::MAX),
        }
    }

    /// Test hook: arms an injected panic that fires in the worker that
    /// claims the `after`-th pool item (counting from 0) of subsequent
    /// analyses, then disarms itself. Exists to prove the panic boundary:
    /// the poisoned query returns [`AnalysisError::WorkerPanic`] while the
    /// session stays usable.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self, after: u64) {
        self.panic_countdown.store(after, Ordering::Relaxed);
    }

    /// Fires the injected test panic when armed and due (the counter wraps
    /// to `u64::MAX` on the firing decrement, disarming the hook).
    fn maybe_inject_panic(&self) {
        if self.panic_countdown.load(Ordering::Relaxed) == u64::MAX {
            return;
        }
        if self.panic_countdown.fetch_sub(1, Ordering::Relaxed) == 0 {
            panic!("injected worker panic (test hook)");
        }
    }

    /// The cache geometry this engine analyzes against.
    pub fn cache(&self) -> &CacheConfig {
        &self.cache
    }

    /// Interns a nest into the engine's program database, returning its
    /// handle. Idempotent: equal nests share a handle (and therefore every
    /// memoized artifact).
    pub fn intern(&mut self, nest: &LoopNest) -> NestId {
        self.db.intern(nest)
    }

    /// The engine's interned program database.
    pub fn db(&self) -> &ProgramDb {
        &self.db
    }

    /// Enables or disables memoization. Disabled, every analysis runs the
    /// same staged pipeline but rebuilds every stage artifact, and the
    /// artifact store and the sweep memo are bypassed.
    pub fn set_caching(&mut self, on: bool) {
        self.caching = on;
    }

    /// Iteration-space size above which nests bypass the memos (their
    /// point sets would dominate memory). Default: 4M points.
    pub fn set_max_cached_points(&mut self, points: u64) {
        self.max_cached_points = points;
    }

    /// Interns and analyzes a nest at full budget. Panics (with the
    /// worker's message) if a pool worker panics, and on nests whose
    /// address arithmetic would overflow — use [`Engine::try_analyze`] for
    /// the error-returning, budgeted entry point.
    pub fn analyze(
        &mut self,
        nest: &LoopNest,
        options: &AnalysisOptions,
        threads: usize,
    ) -> NestAnalysis {
        let id = self.intern(nest);
        self.analyze_id(id, options, threads)
    }

    /// [`Engine::analyze`] for an already-interned nest.
    pub fn analyze_id(
        &mut self,
        id: NestId,
        options: &AnalysisOptions,
        threads: usize,
    ) -> NestAnalysis {
        match self.analyze_batch(&[id], options, threads).pop() {
            Some(analysis) => analysis,
            None => unreachable!("batch of one returns one result"),
        }
    }

    /// Analyzes a batch of interned nests at full budget, sharing one
    /// work pool and the session memo tables across the whole batch.
    /// Results are in `ids` order, each bit-identical to analyzing that
    /// nest alone. Panics like [`Engine::analyze`].
    pub fn analyze_batch(
        &mut self,
        ids: &[NestId],
        options: &AnalysisOptions,
        threads: usize,
    ) -> Vec<NestAnalysis> {
        match self.try_analyze_batch(ids, options, threads, Budget::unlimited(), None) {
            Ok(results) => results.into_iter().map(|g| g.analysis).collect(),
            Err(e) => panic!("{e}"),
        }
    }

    /// The governed entry point: interns and analyzes under `budget`,
    /// honoring `cancel`, and never panics on the governed path.
    /// Exhaustion or cancellation degrades instead of failing: unfinished
    /// iteration points are counted as misses (the paper's `ε > 0`
    /// semantics, a sound overcount) and the result is tagged
    /// [`crate::Outcome::Exhausted`].
    ///
    /// # Errors
    ///
    /// [`AnalysisError::WorkerPanic`] when a pool worker panicked (only
    /// this query is lost; the session and its memo tables stay usable)
    /// and [`AnalysisError::Overflow`] when the nest's address arithmetic
    /// cannot be performed in 64 bits.
    pub fn try_analyze(
        &mut self,
        nest: &LoopNest,
        options: &AnalysisOptions,
        threads: usize,
        budget: Budget,
        cancel: Option<&CancelToken>,
    ) -> Result<GovernedAnalysis, AnalysisError> {
        let id = self.intern(nest);
        self.try_analyze_id(id, options, threads, budget, cancel)
    }

    /// [`Engine::try_analyze`] for an already-interned nest.
    ///
    /// # Errors
    ///
    /// See [`Engine::try_analyze`].
    pub fn try_analyze_id(
        &mut self,
        id: NestId,
        options: &AnalysisOptions,
        threads: usize,
        budget: Budget,
        cancel: Option<&CancelToken>,
    ) -> Result<GovernedAnalysis, AnalysisError> {
        match self
            .try_analyze_batch(&[id], options, threads, budget, cancel)?
            .pop()
        {
            Some(governed) => Ok(governed),
            None => unreachable!("batch of one returns one result"),
        }
    }

    /// Governed batch analysis: each nest runs under its *own* fresh
    /// query governor built from `budget` (solve/point budgets are
    /// per-nest; a deadline budget shares the wall clock, so later nests
    /// see less of it), all honoring the same `cancel` token. Results are
    /// in `ids` order with per-nest [`crate::Outcome`] tags.
    ///
    /// # Errors
    ///
    /// See [`Engine::try_analyze`]; one failing nest fails the whole
    /// batch (the session stays usable).
    pub fn try_analyze_batch(
        &mut self,
        ids: &[NestId],
        options: &AnalysisOptions,
        threads: usize,
        budget: Budget,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<GovernedAnalysis>, AnalysisError> {
        // Persistent-store consult, ahead of every pipeline stage (see
        // `engine/persist.rs`): a hit is always a complete analysis, so
        // it satisfies any budget.
        let keys = self.artifact_keys(ids, options);
        let served = self.consult_store(&keys);
        let miss_idx: Vec<usize> = served
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
            .collect();
        let miss_ids: Vec<NestId> = miss_idx.iter().map(|&i| ids[i]).collect();
        self.counters
            .analyses
            .fetch_add((ids.len() - miss_ids.len()) as u64, Ordering::Relaxed);

        let govs: Vec<QueryGovernor> = miss_ids
            .iter()
            .map(|_| QueryGovernor::new(budget, cancel.cloned()))
            .collect();
        let computed = self.analyze_governed_batch(&miss_ids, options, threads, &govs)?;
        Ok(self.merge_batch_results(served, &keys, &miss_idx, computed, &govs))
    }

    /// The batch pipeline driver: runs every nest of the batch through
    /// `lower → reuse → solve → cascade → classify`, pooling the work of
    /// all nests together at each pooled stage.
    fn analyze_governed_batch(
        &mut self,
        ids: &[NestId],
        options: &AnalysisOptions,
        threads: usize,
        govs: &[QueryGovernor],
    ) -> Result<Vec<NestAnalysis>, AnalysisError> {
        debug_assert_eq!(ids.len(), govs.len());
        self.counters
            .analyses
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        let cache = self.cache;
        let ls = cache.line_elems();

        // Stage: lower — resolve every handle to its validated artifact
        // and derive the memo-key prefix from the intern-time hash.
        let t_lower = Instant::now();
        let mut ctxs: Vec<NestCtx> = Vec::with_capacity(ids.len());
        for &id in ids {
            let lowered = self.lookup_lowered(id)?;
            let memoized = self.caching && lowered.nest.space().count() <= self.max_cached_points;
            let prefix = memoized.then(|| keys::prefix_key(&cache, options, lowered.structural));
            ctxs.push(NestCtx { lowered, prefix });
        }
        Counters::add_time(&self.counters.lower_ns, t_lower.elapsed());

        // Every (nest, reference) of the batch is one pool item, so small
        // nests cannot leave workers idle. Item order (nest-major, then
        // reference order) is the classification order downstream.
        let mut item_of: Vec<(usize, usize)> = Vec::new();
        for (ni, ctx) in ctxs.iter().enumerate() {
            for ridx in 0..ctx.lowered.nest.references().len() {
                item_of.push((ni, ridx));
            }
        }

        let eng = &*self;
        // Stages: reuse + solve, fused per item (the memo lookups run
        // inline in the worker); scan batches become slots (memo hit or
        // todo). Their stage times are summed across workers.
        let plans: Vec<Plan> = pool::run_pool(item_of.clone(), threads, |_, (ni, ridx)| {
            eng.maybe_inject_panic();
            let ctx = &ctxs[ni];
            let nest = &*ctx.lowered.nest;
            let gov = &govs[ni];
            let id = RefId::from_index(ridx);
            if !gov.live() {
                // Budget already gone: every point of this reference is
                // indeterminate-treated-as-miss.
                return Plan::Done(stages::classify::truncated(nest, id, options, gov));
            }
            if ctx.prefix.is_none() {
                eng.counters.passthroughs.fetch_add(1, Ordering::Relaxed);
            }
            let rkey = ctx
                .prefix
                .map(|p| keys::KeyHasher::from_prefix(0x4e5e, p).feed(&ridx).finish());
            let t = Instant::now();
            let plan = eng.lookup_reuse(rkey, || {
                stages::reuse::build(&ctx.lowered, &cache, id, &options.reuse)
            });
            Counters::add_time(&eng.counters.reuse_ns, t.elapsed());
            let ckey = ctx
                .prefix
                .map(|p| keys::cascade_key(p, nest, options, ridx, ls));
            let t = Instant::now();
            let solve = eng.lookup_cascade(ckey, || {
                stages::solve::build(&ctx.lowered, &cache, ridx, &plan.rvs, options, gov)
            });
            Counters::add_time(&eng.counters.solve_ns, t.elapsed());
            let scans = (0..solve.vectors.len())
                .map(|vi| {
                    let skey = ctx
                        .prefix
                        .map(|p| keys::scan_key(p, nest, options, ridx, vi, ls));
                    match skey.and_then(|k| eng.peek_scan(k)) {
                        Some(o) => ScanSlot::Ready(o),
                        None => ScanSlot::Todo(skey),
                    }
                })
                .collect();
            Plan::Staged {
                rvs: plan.rvs,
                solve,
                scans,
            }
        })
        .map_err(|p| eng.note_worker_panic(p))?;
        for plan in &plans {
            if let Plan::Staged { solve, .. } = plan {
                for sv in &solve.vectors {
                    eng.counters
                        .note_solved_vector(sv.examined, sv.scan_set.is_dense());
                }
            }
        }

        // Stage: cascade — pooled window scans for every scan-memo miss
        // of the whole batch. Each `(nest, reference, vector)` scan is
        // sharded into contiguous blocks of survivor runs so one dominant
        // reference cannot serialize the pool; per-block outcomes are
        // merged in block order, making the memoized result independent
        // of the sharding.
        //
        // A batch plans every nest before any scan runs, so slots that
        // would hit the memo *had the nests run sequentially* (layout
        // siblings share scan keys) all miss `peek_scan` together. They
        // are coalesced here instead: one executor per distinct key, the
        // merged outcome shared by every duplicate slot — exactly the
        // artifact a sequential loop's memo hit would have returned.
        let t_cascade = Instant::now();
        let mut todo: Vec<(usize, usize, Option<u128>)> = Vec::new(); // (item, vector, key)
        for (pi, plan) in plans.iter().enumerate() {
            if let Plan::Staged { scans, .. } = plan {
                for (vi, slot) in scans.iter().enumerate() {
                    if let ScanSlot::Todo(key) = slot {
                        todo.push((pi, vi, *key));
                    }
                }
            }
        }
        let (exec_tis, role) = batch::coalesce_scan_slots(&todo);
        let scan_round = |tis: &[usize]| -> Result<Vec<Arc<CascadeResult>>, AnalysisError> {
            let mut jobs: Vec<(usize, usize, usize)> = Vec::new(); // (round idx, run_lo, run_hi)
            for (ri, &ti) in tis.iter().enumerate() {
                let (pi, vi, _) = todo[ti];
                let Plan::Staged { solve, .. } = &plans[pi] else {
                    unreachable!("todo items only come from staged plans");
                };
                for (run_lo, run_hi) in split_blocks(&solve.vectors[vi].scan_set, threads) {
                    jobs.push((ri, run_lo, run_hi));
                }
            }
            let (partials, shard_stats): (Vec<CascadeResult>, pool::PoolStats) =
                pool::run_pool_stats(jobs.clone(), threads, |_, (ri, run_lo, run_hi)| {
                    eng.maybe_inject_panic();
                    let (pi, vi, _) = todo[tis[ri]];
                    let (ni, ridx) = item_of[pi];
                    let Plan::Staged { rvs, solve, .. } = &plans[pi] else {
                        unreachable!("todo items only come from staged plans");
                    };
                    scan_run_block(
                        &ctxs[ni].lowered,
                        &cache,
                        ridx,
                        &rvs[vi],
                        &solve.vectors[vi].scan_set,
                        run_lo,
                        run_hi,
                        options,
                        &eng.counters,
                        &govs[ni],
                    )
                })
                .map_err(|p| eng.note_worker_panic(p))?;
            eng.counters.note_shard_stats(&shard_stats);
            let empties: Vec<CascadeResult> = tis
                .iter()
                .map(|&ti| {
                    let (pi, _, _) = todo[ti];
                    let (ni, _) = item_of[pi];
                    CascadeResult::empty(ctxs[ni].lowered.addrs.len())
                })
                .collect();
            let t_merge = Instant::now();
            let merged = batch::merge_scan_blocks(empties, jobs, partials);
            Counters::add_time(&eng.counters.scan_merge_ns, t_merge.elapsed());
            Ok(merged)
        };
        let outcomes = scan_round(&exec_tis)?;
        let mut fills: HashMap<(usize, usize), Arc<CascadeResult>> = HashMap::new();
        for (&ti, outcome) in exec_tis.iter().zip(&outcomes) {
            let (pi, vi, key) = todo[ti];
            match key {
                // Truncated scans are sound overcounts, not exact
                // artifacts: never memoize them.
                Some(key) if outcome.truncated == 0 => eng.store_scan(key, outcome.clone()),
                _ => {
                    eng.counters.scans_executed.fetch_add(1, Ordering::Relaxed);
                }
            }
            fills.insert((pi, vi), outcome.clone());
        }
        // Duplicate slots share their executor's outcome — unless that
        // outcome was truncated by the *executor's* governor. A truncated
        // scan is a degradation chargeable only to the nest whose budget
        // tripped; handing it to a sibling would degrade a nest whose own
        // governor never fired, silently. Those slots re-scan under their
        // own governors, exactly as a sequential loop would have (a
        // truncated outcome is never memoized, so the sibling's lookup
        // would have missed).
        let mut retry: Vec<usize> = Vec::new();
        for (ti, &ei) in role.iter().enumerate() {
            if exec_tis[ei] == ti {
                continue;
            }
            let (pi, vi, _) = todo[ti];
            if outcomes[ei].truncated == 0 {
                eng.counters.scans_reused.fetch_add(1, Ordering::Relaxed);
                fills.insert((pi, vi), outcomes[ei].clone());
            } else {
                retry.push(ti);
            }
        }
        if !retry.is_empty() {
            for (&ti, outcome) in retry.iter().zip(scan_round(&retry)?) {
                let (pi, vi, key) = todo[ti];
                match key {
                    Some(key) if outcome.truncated == 0 => eng.store_scan(key, outcome.clone()),
                    _ => {
                        eng.counters.scans_executed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                fills.insert((pi, vi), outcome);
            }
        }
        Counters::add_time(&self.counters.cascade_ns, t_cascade.elapsed());

        // Stage: classify — deterministic assembly, nest-major in
        // reference order (the item order).
        let t_classify = Instant::now();
        let mut per_nest: Vec<Vec<RefAnalysis>> = ctxs.iter().map(|_| Vec::new()).collect();
        for (pi, plan) in plans.into_iter().enumerate() {
            let (ni, ridx) = item_of[pi];
            let result = match plan {
                Plan::Done(c) => c.result,
                Plan::Staged { rvs, solve, scans } => {
                    let resolved: Vec<Arc<CascadeResult>> = scans
                        .into_iter()
                        .enumerate()
                        .map(|(vi, slot)| match slot {
                            ScanSlot::Ready(o) => o,
                            ScanSlot::Todo(_) => fills[&(pi, vi)].clone(),
                        })
                        .collect();
                    stages::classify::classify(
                        &ctxs[ni].lowered.nest,
                        RefId::from_index(ridx),
                        &rvs,
                        &solve,
                        &resolved,
                        options,
                    )
                    .result
                }
            };
            per_nest[ni].push(result);
        }
        let results: Vec<NestAnalysis> = ctxs
            .iter()
            .zip(per_nest)
            .map(|(ctx, per_ref)| NestAnalysis {
                nest_name: ctx.lowered.nest.name().to_string(),
                cache,
                per_ref,
            })
            .collect();
        Counters::add_time(&self.counters.classify_ns, t_classify.elapsed());
        Ok(results)
    }

    fn note_worker_panic(&self, p: pool::WorkerPanic) -> AnalysisError {
        self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
        AnalysisError::WorkerPanic { message: p.0 }
    }
}
