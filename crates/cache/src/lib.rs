//! Cache model and trace-driven simulator for the CME framework.
//!
//! The paper validates Cache Miss Equations against **DineroIII**
//! simulations (Table 1) and uses the simulator as ground truth for the
//! padding results (Table 2). This crate plays that role: a faithful
//! set-associative, LRU, write-allocate / fetch-on-write cache
//! (the architecture model of Section 2.3) plus a trace generator that
//! replays a [`cme_ir::LoopNest`] in execution order.
//!
//! - [`CacheConfig`] — the `(Cs, k, Ls, Ns)` parameters of Section 2.4 and
//!   the address→memory-line→cache-set maps of Equation 1.
//! - [`Simulator`] — per-set simulation with cold/replacement miss
//!   classification; true-LRU/write-back by default.
//! - [`CacheModel`] — the generalized machine description: a
//!   [`PolicyKind`] (LRU, FIFO, tree-PLRU) × a [`WritePolicy`]
//!   (write-back/allocate or write-through/no-allocate) × an optional
//!   inclusive L2, replayed by [`Simulator::for_model`].
//! - [`simulate_nest`] / [`simulate_nest_model`] — replay every access of
//!   a nest (references in statement order within each iteration) and
//!   report per-reference [`MissStats`] in one [`NestSimResult`].
//!
//! # Example
//!
//! ```
//! use cme_cache::{CacheConfig, Simulator, AccessOutcome};
//!
//! // 8KB direct-mapped, 32B lines, 4B elements (the paper's Table 1 cache).
//! let cfg = CacheConfig::new(8 * 1024, 1, 32, 4)?;
//! assert_eq!(cfg.num_sets(), 256);
//! assert_eq!(cfg.line_elems(), 8);
//!
//! let mut sim = Simulator::new(cfg);
//! assert_eq!(sim.access(0), AccessOutcome::ColdMiss);
//! assert_eq!(sim.access(7), AccessOutcome::Hit);       // same line
//! assert_eq!(sim.access(2048 * 8 / 8), AccessOutcome::ColdMiss);
//! # Ok::<(), cme_cache::CacheConfigError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod config;
pub mod model;
pub mod policy;
pub mod sim;
pub mod stats;
pub mod trace;

pub use config::{CacheConfig, CacheConfigError};
pub use model::{CacheModel, CacheModelError};
pub use policy::{PolicyKind, WritePolicy};
pub use sim::{AccessOutcome, Simulator};
pub use stats::MissStats;
pub use trace::{
    export_din, miss_histogram_by_set, simulate_nest, simulate_nest_model,
    simulate_nest_model_governed, simulate_nest_outcomes, simulate_sequence, NestSimResult,
    GOVERNED_SIM_CHECK_INTERVAL,
};
