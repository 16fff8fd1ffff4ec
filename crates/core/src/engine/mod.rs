//! The staged, incremental analysis engine: the [`Analyzer`] session and
//! the one driver every entry point runs.
//!
//! Optimizer searches (padding, tiling, fusion) score dozens to hundreds
//! of *candidate* nests that differ only in array layout — base addresses
//! and padded column sizes — while the loop structure, the subscripts, and
//! the cache stay fixed. Re-running the full miss-finding algorithm
//! (Figure 6) per candidate repeats enormous amounts of identical work.
//!
//! An [`Analyzer`] runs every analysis through the five-stage pipeline in
//! `stages` (`lower → reuse → solve → cascade → classify`) over the
//! caller's nests, hashes each nest once per call, and memoizes each
//! stage's artifact independently under the narrowest invalidation key
//! that is still sound (derived in `keys` and `docs/ENGINE.md`):
//!
//! - **lowered nests** (address affines) are cached per structure and
//!   layout hash pair;
//! - **reuse vectors** are base-invariant and cached per structure;
//! - a reference's **solve set** (the cold/indeterminate refinement)
//!   depends only on the structure and the reference's own line offset
//!   `B mod Ls`, so candidates that merely move *other* arrays reuse it;
//! - each **`(reference, reuse-vector)` window scan** depends on the full
//!   layout only through per-array line offsets and exact relative line
//!   distances, so converged search sweeps and line-aligned translations
//!   skip the scans entirely.
//!
//! Every entry point — `analyze*`, `try_analyze*`, `serve`, `sweep` —
//! takes `&self` and calls the one crate-private driver here: a
//! persistent-store lookup, then the governed batch over the store
//! misses, then the exact-only write-through, under the session's threads
//! and cancel token. A sweep keeps no cache of its own; its samples run
//! through this same driver.
//!
//! [`Analyzer::analyze_batch`] analyzes many nests in one call:
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
//! tables or store) and a nest whose iteration space exceeds
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
pub use stats::EngineStats;
pub use sweep::{SweepMetric, SweepParameter, SweepRequest, SweepResult};

use crate::governor::{AnalysisError, Budget, GovernedAnalysis, QueryGovernor};
use crate::pointset::SurvivorSet;
use crate::solve::{AnalysisOptions, NestAnalysis, RefAnalysis};
use cme_ir::{LoopNest, RefId};
use cme_reuse::ReuseVector;
use stages::cascade::{scan_run_block, split_blocks, CascadeResult};
use stages::lower::LoweredNest;
use stages::solve::SolveSet;
use stats::Counters;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

enum ScanSlot {
    Ready(Arc<CascadeResult>),
    /// Needs scanning; `Some(key)` stores the merged outcome in the memo,
    /// `None` (nest not memoized) scans without storing.
    Todo(Option<u128>),
}

enum Plan {
    Done(RefAnalysis),
    Staged {
        rvs: Arc<Vec<ReuseVector>>,
        solve: Arc<SolveSet>,
        scans: Vec<ScanSlot>,
    },
}

/// One nest's slice of a batch: the caller's nest, its lowered artifact,
/// the derived memo-key prefix, `None` when the nest is not memoized
/// (caching off, or an iteration space above the memo size cap), and the
/// outcome every empty scan set shares.
struct NestCtx<'a> {
    nest: &'a LoopNest,
    lowered: Arc<LoweredNest>,
    prefix: Option<u128>,
    no_scan: Arc<CascadeResult>,
}

/// The scan set behind a `Todo` scan slot: only vectors with scan points
/// get one.
fn scan_set_of(solve: &SolveSet, vi: usize) -> &SurvivorSet {
    let Some(set) = solve.vectors[vi].scan_set.as_deref() else {
        unreachable!("empty scan sets take no scan slot");
    };
    set
}

impl Analyzer {
    /// The one driver behind every entry point: the persistent-store
    /// lookup, then the governed batch over the store misses, then the
    /// exact-only write-through (see `engine/persist.rs`). Each nest runs
    /// under its own fresh query governor built from `budget`, honoring
    /// the session's cancel token, at the session's thread count. Each
    /// nest is hashed once here; its `(structural, layout)` pair keys the
    /// store, the lower memo and every other memo's prefix. Each result
    /// comes with whether the store answered it.
    pub(crate) fn run(
        &self,
        nests: &[&LoopNest],
        options: &AnalysisOptions,
        budget: Budget,
    ) -> Result<Vec<(GovernedAnalysis, bool)>, AnalysisError> {
        let t_hash = Instant::now();
        let hashes: Vec<(u128, u128)> = nests.iter().map(|n| keys::nest_hashes(n)).collect();
        Counters::add_time(&self.counters.lower_ns, t_hash.elapsed());
        // A store hit is always a complete analysis, so it satisfies any
        // budget.
        let keys = self.artifact_keys(&hashes, options);
        let served = self.consult_store(nests, &keys);
        let miss_idx: Vec<usize> = served
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
            .collect();
        let misses: Vec<(&LoopNest, (u128, u128))> =
            miss_idx.iter().map(|&i| (nests[i], hashes[i])).collect();
        self.counters
            .analyses
            .fetch_add((nests.len() - misses.len()) as u64, Ordering::Relaxed);

        let govs: Vec<QueryGovernor> = misses
            .iter()
            .map(|_| QueryGovernor::new(budget, self.cancel.clone()))
            .collect();
        let computed = self.analyze_governed_batch(&misses, options, self.thread_count(), &govs)?;
        Ok(self.merge_batch_results(served, &keys, &miss_idx, computed, &govs))
    }

    /// [`Analyzer::run`] on one nest.
    pub(crate) fn run_one(
        &self,
        nest: &LoopNest,
        options: &AnalysisOptions,
        budget: Budget,
    ) -> Result<(GovernedAnalysis, bool), AnalysisError> {
        match self.run(&[nest], options, budget)?.pop() {
            Some(governed) => Ok(governed),
            None => unreachable!("batch of one returns one result"),
        }
    }

    /// The governed batch behind [`Analyzer::run`]: runs every nest of
    /// the batch through `lower → reuse → solve → cascade → classify`,
    /// pooling the work of all nests together at each pooled stage.
    fn analyze_governed_batch(
        &self,
        batch: &[(&LoopNest, (u128, u128))],
        options: &AnalysisOptions,
        threads: usize,
        govs: &[QueryGovernor],
    ) -> Result<Vec<NestAnalysis>, AnalysisError> {
        debug_assert_eq!(batch.len(), govs.len());
        self.counters
            .analyses
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let cache = self.cache;
        let ls = cache.line_elems();

        // Stage: lower — validate every nest's address math (memoized
        // under its hash pair) and derive the memo-key prefix from its
        // structural hash.
        let t_lower = Instant::now();
        let mut ctxs: Vec<NestCtx> = Vec::with_capacity(batch.len());
        for &(nest, hashes) in batch {
            let lowered = self.lookup_lowered(nest, hashes)?;
            let memoized = self.caching && nest.space().count() <= self.max_cached_points;
            let prefix = memoized.then(|| keys::prefix_key(&cache, options, hashes.0));
            let no_scan = Arc::new(CascadeResult::empty(lowered.addrs.len()));
            ctxs.push(NestCtx {
                nest,
                lowered,
                prefix,
                no_scan,
            });
        }
        Counters::add_time(&self.counters.lower_ns, t_lower.elapsed());

        // Every (nest, reference) of the batch is one pool item, so small
        // nests cannot leave workers idle. Item order (nest-major, then
        // reference order) is the classification order downstream.
        let mut item_of: Vec<(usize, usize)> = Vec::new();
        for (ni, ctx) in ctxs.iter().enumerate() {
            for ridx in 0..ctx.nest.references().len() {
                item_of.push((ni, ridx));
            }
        }

        // Stages: reuse + solve, fused per item (the memo lookups run
        // inline in the worker); scan batches become slots (memo hit or
        // todo). Their stage times are summed across workers.
        let plans: Vec<Plan> = pool::run_pool(item_of.clone(), threads, |_, (ni, ridx)| {
            self.maybe_inject_panic();
            let ctx = &ctxs[ni];
            let nest = ctx.nest;
            let gov = &govs[ni];
            let id = RefId::from_index(ridx);
            if !gov.live() {
                // Budget already gone: every point of this reference is
                // indeterminate-treated-as-miss.
                return Plan::Done(stages::classify::truncated(nest, id, options, gov));
            }
            if ctx.prefix.is_none() {
                self.counters.passthroughs.fetch_add(1, Ordering::Relaxed);
            }
            let rkey = ctx
                .prefix
                .map(|p| keys::KeyHasher::from_prefix(0x4e5e, p).feed(&ridx).finish());
            let t = Instant::now();
            let plan = self.lookup_reuse(rkey, || {
                stages::reuse::build(nest, &cache, id, &options.reuse)
            });
            Counters::add_time(&self.counters.reuse_ns, t.elapsed());
            let ckey = ctx
                .prefix
                .map(|p| keys::cascade_key(p, nest, options, ridx, ls));
            let t = Instant::now();
            let solve = self.lookup_cascade(ckey, || {
                stages::solve::build(nest, &ctx.lowered, &cache, ridx, &plan.rvs, options, gov)
            });
            Counters::add_time(&self.counters.solve_ns, t.elapsed());
            // An empty scan set has nothing to scan: it takes the nest's
            // shared empty outcome, with no key, lookup or memo entry.
            let scans = solve
                .vectors
                .iter()
                .enumerate()
                .map(|(vi, sv)| {
                    if sv.scan_set.is_none() {
                        return ScanSlot::Ready(ctx.no_scan.clone());
                    }
                    let skey = ctx
                        .prefix
                        .map(|p| keys::scan_key(p, nest, options, ridx, vi, ls));
                    match skey.and_then(|k| self.peek_scan(k)) {
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
        .map_err(|p| self.note_worker_panic(p))?;
        for plan in &plans {
            if let Plan::Staged { solve, .. } = plan {
                for sv in &solve.vectors {
                    self.counters.note_solved_vector(
                        sv.examined,
                        sv.scan_set.as_deref().map(SurvivorSet::is_dense),
                    );
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
                for (run_lo, run_hi) in split_blocks(scan_set_of(solve, vi), threads) {
                    jobs.push((ri, run_lo, run_hi));
                }
            }
            let (partials, shard_stats): (Vec<CascadeResult>, pool::PoolStats) =
                pool::run_pool_stats(jobs.clone(), threads, |_, (ri, run_lo, run_hi)| {
                    self.maybe_inject_panic();
                    let (pi, vi, _) = todo[tis[ri]];
                    let (ni, ridx) = item_of[pi];
                    let Plan::Staged { rvs, solve, .. } = &plans[pi] else {
                        unreachable!("todo items only come from staged plans");
                    };
                    scan_run_block(
                        ctxs[ni].nest,
                        &ctxs[ni].lowered,
                        &cache,
                        ridx,
                        &rvs[vi],
                        scan_set_of(solve, vi),
                        run_lo,
                        run_hi,
                        options,
                        &self.counters,
                        &govs[ni],
                    )
                })
                .map_err(|p| self.note_worker_panic(p))?;
            self.counters.note_shard_stats(&shard_stats);
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
            Counters::add_time(&self.counters.scan_merge_ns, t_merge.elapsed());
            Ok(merged)
        };
        let outcomes = scan_round(&exec_tis)?;
        let mut fills: HashMap<(usize, usize), Arc<CascadeResult>> = HashMap::new();
        for (&ti, outcome) in exec_tis.iter().zip(&outcomes) {
            let (pi, vi, key) = todo[ti];
            match key {
                // Truncated scans are sound overcounts, not exact
                // artifacts: never memoize them.
                Some(key) if outcome.truncated == 0 => self.store_scan(key, outcome.clone()),
                _ => {
                    self.counters.scans_executed.fetch_add(1, Ordering::Relaxed);
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
                self.counters.scans_reused.fetch_add(1, Ordering::Relaxed);
                fills.insert((pi, vi), outcomes[ei].clone());
            } else {
                retry.push(ti);
            }
        }
        if !retry.is_empty() {
            for (&ti, outcome) in retry.iter().zip(scan_round(&retry)?) {
                let (pi, vi, key) = todo[ti];
                match key {
                    Some(key) if outcome.truncated == 0 => self.store_scan(key, outcome.clone()),
                    _ => {
                        self.counters.scans_executed.fetch_add(1, Ordering::Relaxed);
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
                Plan::Done(result) => result,
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
                        ctxs[ni].nest,
                        RefId::from_index(ridx),
                        &rvs,
                        &solve,
                        &resolved,
                        options,
                    )
                }
            };
            per_nest[ni].push(result);
        }
        let results: Vec<NestAnalysis> = ctxs
            .iter()
            .zip(per_nest)
            .map(|(ctx, per_ref)| NestAnalysis {
                nest_name: ctx.nest.name().to_string(),
                cache,
                per_ref,
            })
            .collect();
        Counters::add_time(&self.counters.classify_ns, t_classify.elapsed());
        Ok(results)
    }

    /// Fires the injected test panic when armed and due (the counter wraps
    /// to `u64::MAX` on the firing decrement, disarming the hook; see
    /// [`Analyzer::inject_worker_panic`]).
    fn maybe_inject_panic(&self) {
        if self.panic_countdown.load(Ordering::Relaxed) == u64::MAX {
            return;
        }
        if self.panic_countdown.fetch_sub(1, Ordering::Relaxed) == 0 {
            panic!("injected worker panic (test hook)");
        }
    }

    fn note_worker_panic(&self, p: pool::WorkerPanic) -> AnalysisError {
        self.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
        AnalysisError::WorkerPanic { message: p.0 }
    }
}
