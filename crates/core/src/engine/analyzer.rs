//! The [`Analyzer`] session: cache, options, threading, and budget fixed
//! as defaults over the staged incremental [`Engine`].

use super::{Engine, EngineStats};
use crate::governor::{AnalysisError, Budget, CancelToken, GovernedAnalysis};
use crate::solve::{AnalysisOptions, NestAnalysis};
use cme_cache::{CacheConfig, CacheModel};
use cme_ir::{LoopNest, NestId};
use std::collections::HashMap;

/// A configured analysis session: cache, options, and threading fixed as
/// defaults, with the staged incremental [`Engine`] carrying memoized work
/// across every `analyze` call.
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
/// let mut analyzer = Analyzer::new(cfg)
///     .options(AnalysisOptions::default())
///     .parallel(true);
/// let analysis = analyzer.analyze(&nest);
/// assert_eq!(analysis.total_misses(), 8);
///
/// // The handle API: intern once, analyze (or batch-analyze) by id.
/// let id = analyzer.intern(&nest);
/// assert_eq!(analyzer.analyze_batch(&[id])[0], analysis);
/// # Ok::<(), cme_cache::CacheConfigError>(())
/// ```
#[derive(Debug)]
pub struct Analyzer {
    engine: Engine,
    options: AnalysisOptions,
    parallel: bool,
    threads: usize,
    budget: Budget,
    cancel: Option<CancelToken>,
    /// Session memo of fitted parametric sweeps (see
    /// [`super::sweep::SweepResult`]); only complete, fitted results are
    /// ever inserted.
    pub(super) sweep_memo: HashMap<u128, super::sweep::SweepResult>,
}

impl Analyzer {
    /// A sequential session with default options, caching on, and an
    /// unlimited budget.
    pub fn new(cache: CacheConfig) -> Self {
        Analyzer {
            engine: Engine::new(cache),
            options: AnalysisOptions::default(),
            parallel: false,
            threads: 0,
            budget: Budget::unlimited(),
            cancel: None,
            sweep_memo: HashMap::new(),
        }
    }

    /// A session for an arbitrary [`CacheModel`]: analytic equations run
    /// against the model's L1 geometry; non-baseline models additionally
    /// route served requests through the simulator-backed classify path
    /// and key persistent artifacts under the model. For the baseline
    /// model this is exactly [`Analyzer::new`].
    pub fn with_model(model: CacheModel) -> Self {
        let mut analyzer = Analyzer::new(model.l1());
        analyzer.engine.set_model(model);
        analyzer
    }

    /// The full cache model this session answers for.
    pub fn model(&self) -> &CacheModel {
        self.engine.model()
    }

    /// Sets the session's per-query resource [`Budget`]. Exhausted
    /// queries degrade to sound overcounts instead of failing (see
    /// [`crate::Outcome`]).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a cooperative [`CancelToken`]: cancelling it (from any
    /// thread) stops in-flight and subsequent queries at the next
    /// checkpoint, degrading them like budget exhaustion.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the session's default analysis options.
    pub fn options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// Spreads each analysis over the machine's cores.
    pub fn parallel(mut self, on: bool) -> Self {
        self.parallel = on;
        self
    }

    /// Pins the work-pool width explicitly (overrides [`Analyzer::parallel`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables or disables the engine's memoization. An uncached session
    /// runs the same staged pipeline without memo tables, artifact store,
    /// or sweep memo (see [`Engine::set_caching`]).
    pub fn caching(mut self, on: bool) -> Self {
        self.engine.set_caching(on);
        self
    }

    /// Attaches a persistent [`crate::ArtifactStore`]: complete analyses
    /// are written through to disk and repeated queries (same structure,
    /// layout, geometry, and options — across sessions and processes)
    /// are answered from the store before any pipeline stage runs. See
    /// [`Engine::set_store`].
    pub fn store(mut self, store: std::sync::Arc<crate::store::ArtifactStore>) -> Self {
        self.engine.set_store(store);
        self
    }

    /// The cache geometry this session analyzes against.
    pub fn cache(&self) -> &CacheConfig {
        self.engine.cache()
    }

    /// The session's default options.
    pub fn current_options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Interns a nest into the session's program database (idempotent).
    pub fn intern(&mut self, nest: &LoopNest) -> NestId {
        self.engine.intern(nest)
    }

    /// Analyzes a nest with the session defaults, interning it first. At
    /// the default unlimited budget, results are bit-identical to the
    /// reference oracle in [`crate::solve`], warm or cold; under a session
    /// budget or cancellation the counts degrade to a sound overcount (use
    /// [`Analyzer::try_analyze`] to observe the [`crate::Outcome`] tag).
    /// Panics on [`AnalysisError`] — worker panic or address overflow.
    pub fn analyze(&mut self, nest: &LoopNest) -> NestAnalysis {
        let id = self.intern(nest);
        self.analyze_id(id)
    }

    /// [`Analyzer::analyze`] for an already-interned nest.
    pub fn analyze_id(&mut self, id: NestId) -> NestAnalysis {
        let options = self.options.clone();
        let threads = self.thread_count();
        self.engine.analyze_id(id, &options, threads)
    }

    /// Analyzes a batch of interned nests in one session call: all
    /// `(nest, reference)` work items and scan shards share one work
    /// pool, and all nests share the session memo tables. Results are in
    /// `ids` order, each bit-identical to [`Analyzer::analyze_id`] on
    /// that nest alone. Panics on [`AnalysisError`].
    pub fn analyze_batch(&mut self, ids: &[NestId]) -> Vec<NestAnalysis> {
        let options = self.options.clone();
        let threads = self.thread_count();
        self.engine.analyze_batch(ids, &options, threads)
    }

    /// Governed batch analysis under the session budget (per nest) and
    /// cancel token; see [`Engine::try_analyze_batch`].
    ///
    /// # Errors
    ///
    /// See [`Engine::try_analyze`]; one failing nest fails the batch.
    pub fn try_analyze_batch(
        &mut self,
        ids: &[NestId],
    ) -> Result<Vec<GovernedAnalysis>, AnalysisError> {
        let options = self.options.clone();
        let threads = self.thread_count();
        let budget = self.budget;
        let cancel = self.cancel.clone();
        self.engine
            .try_analyze_batch(ids, &options, threads, budget, cancel.as_ref())
    }

    /// Analyzes with one-off options (e.g. an exact-counting pass) while
    /// still sharing the session's memo tables. Panics on
    /// [`AnalysisError`]; see [`Analyzer::try_analyze_with_options`].
    pub fn analyze_with_options(
        &mut self,
        nest: &LoopNest,
        options: &AnalysisOptions,
    ) -> NestAnalysis {
        match self.try_analyze_with_options(nest, options) {
            Ok(governed) => governed.analysis,
            Err(e) => panic!("{e}"),
        }
    }

    /// The governed, panic-free entry point: analyzes under the session's
    /// budget and cancel token and reports how the query ended alongside
    /// the (possibly degraded, always sound) counts.
    ///
    /// # Errors
    ///
    /// See [`Engine::try_analyze`].
    pub fn try_analyze(&mut self, nest: &LoopNest) -> Result<GovernedAnalysis, AnalysisError> {
        let options = self.options.clone();
        self.try_analyze_with_options(nest, &options)
    }

    /// [`Analyzer::try_analyze`] for an already-interned nest.
    ///
    /// # Errors
    ///
    /// See [`Engine::try_analyze`].
    pub fn try_analyze_id(&mut self, id: NestId) -> Result<GovernedAnalysis, AnalysisError> {
        let options = self.options.clone();
        let threads = self.thread_count();
        let budget = self.budget;
        let cancel = self.cancel.clone();
        self.engine
            .try_analyze_id(id, &options, threads, budget, cancel.as_ref())
    }

    /// [`Analyzer::try_analyze`] with one-off options.
    ///
    /// # Errors
    ///
    /// See [`Engine::try_analyze`].
    pub fn try_analyze_with_options(
        &mut self,
        nest: &LoopNest,
        options: &AnalysisOptions,
    ) -> Result<GovernedAnalysis, AnalysisError> {
        let threads = self.thread_count();
        let budget = self.budget;
        let cancel = self.cancel.clone();
        self.engine
            .try_analyze(nest, options, threads, budget, cancel.as_ref())
    }

    /// Snapshot of the engine's accounting.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Shared access to the underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The work-pool width the session's analyses actually run at:
    /// [`Analyzer::threads`] when pinned, the machine's available
    /// parallelism under [`Analyzer::parallel`], 1 otherwise.
    pub fn thread_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else if self.parallel {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            1
        }
    }
}
