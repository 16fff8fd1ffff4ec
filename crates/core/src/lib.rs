//! Cache Miss Equations — the core of the ASPLOS 1998 paper
//! *Precise Miss Analysis for Program Transformations with Caches of
//! Arbitrary Associativity* (Ghosh, Martonosi, Malik).
//!
//! A **Cache Miss Equation** is a linear Diophantine constraint whose
//! solutions are potential cache misses of one reference *along one reuse
//! vector*:
//!
//! - **Cold miss equations** (Section 3.1) capture iteration points whose
//!   access is the first touch of a memory line along the vector — either
//!   the first access in that direction, or an access that just crossed a
//!   line boundary.
//! - **Replacement miss equations** (Section 3.2, Equation 4) capture cache
//!   *set contention*: `Mem_A(i⃗) = Mem_B(j⃗) + n·Cs/k + b` with `n ≠ 0`,
//!   `j⃗` ranging over the potentially-interfering points between the reuse
//!   source `p⃗ = i⃗ − r⃗` and `i⃗`, and `b` spanning one line. In a `k`-way
//!   set-associative cache, an iteration point is a miss along `r⃗` iff at
//!   least `k` *distinct* wraparound values `n` — equivalently, `k` distinct
//!   memory lines mapping to the victim's set — occur in that window.
//!
//! This crate provides:
//!
//! - [`equations`] — symbolic equation objects ([`ColdEquation`],
//!   [`ReplacementEquation`], [`CmeSystem`]) mirroring the paper's Figure 3
//!   generation algorithm; these are what the optimizers manipulate.
//! - [`solve`] — the options and result types of the miss-finding
//!   algorithm of Figure 6, generalized to arbitrary associativity
//!   (Section 4.2), with per-reuse-vector accounting (reproducing Figure
//!   8's progress table) and the `ε` precision/time knob; plus its
//!   monolithic reference implementation, kept as a test oracle.
//! - [`engine`] — the staged analysis pipeline behind [`Analyzer`]:
//!   the caller's nests run through `lower → reuse → solve → cascade →
//!   classify`, with each stage's artifact memoized across the candidate
//!   nests of an optimizer search under keys derived from the nests'
//!   structural and layout hashes; [`Analyzer::analyze_batch`] analyzes
//!   many nests in one shared-pool session, and [`Analyzer::sweep`]
//!   answers a Section 5.1.3 parametric layout sweep in certified closed
//!   form from samples that run through those same memos (see
//!   `docs/ENGINE.md`). Every entry point takes `&self`, so one session
//!   can be shared by reference, across threads included.
//! - [`governor`] — the resource governor: per-query [`Budget`]s,
//!   cooperative [`CancelToken`]s, and graceful degradation of exhausted
//!   queries to sound overcounts (the paper's `ε > 0` semantics), plus
//!   the structured [`AnalysisError`] for worker panics and address
//!   overflow.
//! - [`accuracy`] — side-by-side comparison against the LRU simulator
//!   (Table 1's DineroIII columns).
//! - [`store`] — the persistent artifact store: finished analyses on
//!   disk, keyed by `(structural_hash, layout_hash, geometry, options)`
//!   with integrity checks and LRU size bounding, so repeated queries
//!   survive the process (see `docs/SERVE.md`).
//! - [`api`] — the unified request/response contract
//!   ([`api::AnalyzeRequest`], [`api::AnalyzeResponse`],
//!   [`api::ErrorCode`]) shared by `cmetool`, the `cme-serve` wire
//!   protocol, and in-process callers.
//!
//! # Example
//!
//! ```
//! use cme_cache::CacheConfig;
//! use cme_core::Analyzer;
//! use cme_ir::{AccessKind, NestBuilder};
//!
//! // A unit-stride sweep: misses = one per 8-element line.
//! let mut b = NestBuilder::new();
//! b.ct_loop("i", 1, 64);
//! let a = b.array("A", &[64], 0);
//! b.reference(a, AccessKind::Read, &[("i", 0)]);
//! let nest = b.build().unwrap();
//!
//! let cfg = CacheConfig::new(8192, 1, 32, 4)?;
//! let analyzer = Analyzer::new(cfg);
//! let analysis = analyzer.analyze(&nest);
//! assert_eq!(analysis.total_misses(), 8);
//! // Re-analyses of structurally similar nests hit the engine's memos.
//! analyzer.analyze(&nest);
//! assert!(analyzer.stats().memo_hit_rate() > 0.0);
//! # Ok::<(), cme_cache::CacheConfigError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod accuracy;
pub mod api;
pub mod engine;
pub mod equations;
pub mod faults;
pub mod governor;
pub mod pointset;
pub mod sequence;
pub mod solve;
pub mod store;
mod window;

pub use accuracy::{compare_with_simulation, AccuracyRow};
pub use engine::{Analyzer, EngineStats, SweepMetric, SweepParameter, SweepRequest, SweepResult};
pub use equations::{CmeSystem, ColdEquation, EquationGroup, RefEquations, ReplacementEquation};
pub use faults::{FaultPlan, InjectedFaults, ReadFault, WriteFault};
pub use governor::{AnalysisError, Budget, CancelToken, ExhaustReason, GovernedAnalysis, Outcome};
pub use pointset::{DenseSet, PointSet, Run, RunSet, SurvivorRuns, SurvivorSet};
pub use sequence::{analyze_sequence, SequenceAnalysis};
pub use solve::{
    AnalysisOptions, AnalysisOptionsBuilder, InvalidOptions, NestAnalysis, RefAnalysis,
    VectorReport,
};
pub use store::{ArtifactKey, ArtifactStore, StoreError, StoreStats};
