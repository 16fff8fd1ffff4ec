//! CME-driven program transformations (Section 5 of the paper).
//!
//! None of the optimizers here enumerates cache misses to make decisions —
//! that is the whole point of the Cache Miss Equation framework. Instead:
//!
//! - [`padding`] exploits *mathematical special cases* (Section 5.1.1,
//!   Figure 10): the GCD solvability conditions of linear Diophantine
//!   equations yield array column sizes and base spacings under which the
//!   replacement equations provably have **no solutions**.
//! - [`tiling`] selects tile sizes admitting at most `k − 1` solutions of
//!   the self-interference equation (Equation 8) and then spaces bases to
//!   kill cross-interference (Equation 9).
//! - [`fusion`] uses a *solution counting engine* (Section 5.1.2) to decide
//!   whether fusing two nests lowers the total miss count.
//!
//! The Section 5.1.3 parametric method (the miss count as an Ehrhart-style
//! quasi-polynomial of one layout parameter, minimized in closed form) is
//! [`cme_core::Analyzer::sweep`]; the [`search`] padding search refines
//! its inter-array pads with it.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod diagnose;
pub mod fusion;
pub mod padding;
pub mod search;
pub mod tiling;

pub use diagnose::{diagnose, diagnose_with, NestDiagnosis, Recommendation, RefDiagnosis};
pub use fusion::{evaluate_fusion, evaluate_fusion_with, FusionDecision};
pub use padding::{plan_padding, PaddingError, PaddingPlan};
pub use search::{optimize_padding, optimize_padding_with, PaddingMethod, PaddingOutcome};
pub use tiling::{
    select_tile_and_layout, select_tile_and_layout_with, select_tile_size, TileChoice,
};
