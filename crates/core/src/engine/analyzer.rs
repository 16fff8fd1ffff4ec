//! The [`Analyzer`] session: one cache model, the four pipeline memo
//! tables, the optional artifact store and the work counters, next to the
//! defaults every query runs under — options, threads, budget and cancel
//! token. Every entry point takes the caller's `&LoopNest`; the session
//! keeps no nest it has analyzed, and its four pipeline memo tables are
//! capped.
//!
//! Every analyze entry point (and [`Analyzer::serve`],
//! [`Analyzer::sweep`]) takes `&self` and funnels into the one
//! crate-private driver in `engine/mod.rs`: store lookup, governed batch,
//! write-through. The session's threads and cancel token always apply;
//! the session's options and budget apply unless the entry point names
//! its own (`analyze_with_options`'s one-off options, a served request's
//! options and budget). The memo tables are behind locks and the counters
//! are atomic, so one session can serve several threads at once.

use super::stages::cascade::CascadeResult;
use super::stages::lower::LoweredNest;
use super::stages::reuse::ReusePlan;
use super::stages::solve::SolveSet;
use super::stats::Counters;
use crate::governor::{AnalysisError, Budget, CancelToken, GovernedAnalysis};
use crate::solve::{AnalysisOptions, NestAnalysis};
use crate::store::ArtifactStore;
use cme_cache::{CacheConfig, CacheModel};
use cme_ir::LoopNest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A configured analysis session: one cache model and per-stage memo
/// tables that carry analysis artifacts across every query, with options,
/// threading, budget and cancellation fixed as session defaults.
///
/// ```
/// use cme_cache::CacheConfig;
/// use cme_core::{AnalysisOptions, Analyzer};
/// use cme_ir::{AccessKind, NestBuilder};
///
/// let mut b = NestBuilder::new();
/// b.ct_loop("i", 1, 64);
/// let a = b.array("A", &[64], 0);
/// b.reference(a, AccessKind::Read, &[("i", 0)]);
/// let nest = b.build().unwrap();
///
/// let cfg = CacheConfig::new(8192, 1, 32, 4)?;
/// let analyzer = Analyzer::new(cfg)
///     .options(AnalysisOptions::default())
///     .threads(0);
/// let analysis = analyzer.analyze(&nest);
/// assert_eq!(analysis.total_misses(), 8);
///
/// // A batch shares one work pool; a repeat is a memo hit.
/// assert_eq!(analyzer.analyze_batch(std::slice::from_ref(&nest))[0], analysis);
/// # Ok::<(), cme_cache::CacheConfigError>(())
/// ```
#[derive(Debug)]
pub struct Analyzer {
    pub(super) cache: CacheConfig,
    pub(super) model: CacheModel, // L1 = `cache`
    pub(super) lower_memo: Mutex<HashMap<u128, Arc<LoweredNest>>>,
    pub(super) reuse_memo: Mutex<HashMap<u128, ReusePlan>>,
    pub(super) cascade_memo: Mutex<HashMap<u128, Arc<SolveSet>>>,
    pub(super) scan_memo: Mutex<HashMap<u128, Arc<CascadeResult>>>,
    pub(super) store: Option<Arc<ArtifactStore>>,
    pub(super) counters: Counters,
    pub(super) caching: bool,
    pub(super) max_cached_points: u64,
    /// Test hook: worker items left before an injected panic fires
    /// (`u64::MAX` = disarmed).
    pub(super) panic_countdown: AtomicU64,
    options: AnalysisOptions,
    threads: usize,
    budget: Budget,
    pub(super) cancel: Option<CancelToken>,
}

impl Analyzer {
    /// A sequential session for the baseline model of `cache`, with
    /// default options, caching on, and an unlimited budget.
    pub fn new(cache: CacheConfig) -> Self {
        Analyzer::with_model(CacheModel::new(cache))
    }

    /// A session for an arbitrary [`CacheModel`]: analytic equations run
    /// against the model's L1 geometry; non-baseline models additionally
    /// route served requests through the simulator-backed classify path
    /// and key persistent artifacts under the model. For the baseline
    /// model this is exactly [`Analyzer::new`].
    pub fn with_model(model: CacheModel) -> Self {
        Analyzer {
            cache: model.l1(),
            model,
            lower_memo: Mutex::new(HashMap::new()),
            reuse_memo: Mutex::new(HashMap::new()),
            cascade_memo: Mutex::new(HashMap::new()),
            scan_memo: Mutex::new(HashMap::new()),
            store: None,
            counters: Counters::default(),
            caching: true,
            max_cached_points: 1 << 22,
            panic_countdown: AtomicU64::new(u64::MAX),
            options: AnalysisOptions::default(),
            threads: 1,
            budget: Budget::unlimited(),
            cancel: None,
        }
    }

    /// The full cache model this session answers for.
    pub fn model(&self) -> &CacheModel {
        &self.model
    }

    /// Sets the session's per-query resource [`Budget`]. Every entry
    /// point except [`Analyzer::serve`] (which runs under the request's
    /// own budget) analyzes under it: exhausted queries degrade to sound
    /// overcounts instead of failing. The `try_*` forms also return the
    /// [`crate::Outcome`] saying whether that happened.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a cooperative [`CancelToken`] for every entry point,
    /// [`Analyzer::serve`] included: cancelling it (from any thread) stops
    /// in-flight and subsequent queries at the next checkpoint, degrading
    /// them like budget exhaustion.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the session's default analysis options.
    pub fn options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the work-pool width: `threads` workers per analysis, or one
    /// per available core for `0`. The default is 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables memoization. An uncached session runs the
    /// same staged pipeline but rebuilds every stage artifact, and
    /// bypasses the artifact store.
    pub fn caching(mut self, on: bool) -> Self {
        self.caching = on;
        self
    }

    /// Attaches a persistent [`ArtifactStore`]: complete analyses are
    /// written through to disk and repeated queries (same structure,
    /// layout, cache model, and options — across sessions and processes)
    /// are answered from the store before any pipeline stage runs. The
    /// store is only consulted while caching is on, and exhausted
    /// (budget-truncated) results are never persisted.
    pub fn store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Test hook: the iteration-space size above which nests bypass the
    /// memo tables (their point sets would dominate memory). Default: 4M
    /// points.
    #[doc(hidden)]
    pub fn max_cached_points(mut self, points: u64) -> Self {
        self.max_cached_points = points;
        self
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

    /// The cache geometry this session analyzes against (the model's L1).
    pub fn cache(&self) -> &CacheConfig {
        &self.cache
    }

    /// The session's default options.
    pub fn current_options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Analyzes a nest with the session defaults. At the default
    /// unlimited budget, results are bit-identical to the reference oracle
    /// in [`crate::solve`], warm or cold; under a session budget or
    /// cancellation the counts degrade to a sound overcount (use
    /// [`Analyzer::try_analyze`] to observe the [`crate::Outcome`] tag).
    ///
    /// # Panics
    ///
    /// On [`AnalysisError`] — worker panic or address overflow.
    pub fn analyze(&self, nest: &LoopNest) -> NestAnalysis {
        expect_ok(self.try_analyze(nest)).analysis
    }

    /// Analyzes a batch of nests in one session call: all `(nest,
    /// reference)` work items and scan shards share one work pool, and
    /// all nests share the session memo tables. Results are in `nests`
    /// order, each bit-identical to [`Analyzer::analyze`] on that nest
    /// alone.
    ///
    /// # Panics
    ///
    /// On [`AnalysisError`].
    pub fn analyze_batch(&self, nests: &[LoopNest]) -> Vec<NestAnalysis> {
        expect_ok(self.try_analyze_batch(nests))
            .into_iter()
            .map(|g| g.analysis)
            .collect()
    }

    /// Analyzes with one-off options (e.g. an exact-counting pass) under
    /// the session's budget, still sharing the session's memo tables.
    ///
    /// # Panics
    ///
    /// On [`AnalysisError`].
    pub fn analyze_with_options(&self, nest: &LoopNest, options: &AnalysisOptions) -> NestAnalysis {
        expect_ok(self.run_one(nest, options, self.budget))
            .0
            .analysis
    }

    /// The governed, panic-free entry point: analyzes under the session's
    /// budget and cancel token and reports how the query ended alongside
    /// the (possibly degraded, always sound) counts. Exhaustion or
    /// cancellation degrades instead of failing: unfinished iteration
    /// points are counted as misses (the paper's `ε > 0` semantics) and
    /// the result is tagged [`crate::Outcome::Exhausted`].
    ///
    /// # Errors
    ///
    /// [`AnalysisError::WorkerPanic`] when a pool worker panicked (only
    /// this query is lost; the session and its memo tables stay usable)
    /// and [`AnalysisError::Overflow`] when the nest's address arithmetic
    /// cannot be performed in 64 bits.
    pub fn try_analyze(&self, nest: &LoopNest) -> Result<GovernedAnalysis, AnalysisError> {
        Ok(self.run_one(nest, &self.options, self.budget)?.0)
    }

    /// Governed batch analysis: each nest runs under its *own* fresh
    /// query governor built from the session budget (solve/point budgets
    /// are per-nest; a deadline budget shares the wall clock, so later
    /// nests see less of it), all honoring the session's cancel token.
    /// Results are in `nests` order with per-nest [`crate::Outcome`] tags.
    ///
    /// # Errors
    ///
    /// See [`Analyzer::try_analyze`]; one failing nest fails the whole
    /// batch (the session stays usable).
    pub fn try_analyze_batch(
        &self,
        nests: &[LoopNest],
    ) -> Result<Vec<GovernedAnalysis>, AnalysisError> {
        let nests: Vec<&LoopNest> = nests.iter().collect();
        let served = self.run(&nests, &self.options, self.budget)?;
        Ok(served.into_iter().map(|(governed, _)| governed).collect())
    }

    /// The work-pool width the session's analyses actually run at: the
    /// [`Analyzer::threads`] setting, with `0` resolved to the machine's
    /// available parallelism.
    pub fn thread_count(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

/// The panicking entry points' error policy: the `try_*` forms return the
/// [`AnalysisError`]; the others panic with its message.
fn expect_ok<T>(result: Result<T, AnalysisError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}
