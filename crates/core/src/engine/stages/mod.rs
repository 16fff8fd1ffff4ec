//! The staged analysis pipeline. One analysis flows through five stages,
//! each consuming the previous stage's typed artifact:
//!
//! ```text
//!  &LoopNest ──lower──▶ LoweredNest ──reuse──▶ ReusePlan
//!                                                │
//!                                              solve
//!                                                ▼
//!      RefAnalysis ◀──classify── CascadeResult ◀──cascade── SolveSet
//! ```
//!
//! Every stage also reads the caller's `&LoopNest` itself; no artifact
//! holds a nest or a name, so memoized artifacts are shared across nests
//! that differ only in names and every label comes from the caller.
//!
//! | stage      | paper ground                          | artifact        |
//! |------------|---------------------------------------|-----------------|
//! | `lower`    | §2.4 iteration space / addressing     | [`lower::LoweredNest`] |
//! | `reuse`    | §2.2, §3.3 reuse vectors              | [`reuse::ReusePlan`]   |
//! | `solve`    | §3.1 cold CMEs, Fig. 6 classification | [`solve::SolveSet`]    |
//! | `cascade`  | §3.2 Eq. 4 replacement, §4.2 k-way    | [`cascade::CascadeResult`] |
//! | `classify` | Fig. 6 composition, ε early stop      | [`crate::RefAnalysis`] |
//!
//! Layering rule (enforced by `tests/architecture.rs`): a stage may use
//! artifacts of *upstream* stages only — `lower < reuse < solve < cascade
//! < classify` — and never reaches into a downstream stage. Only the
//! driver in [`super`] (`engine/mod.rs`) sees the whole pipeline; it
//! memoizes each stage's artifact independently under the keys of
//! [`super::keys`] and promotes governor checkpoints to the stage
//! boundaries (plus the documented mid-stage checkpoints inside `solve`
//! and `cascade`, which keep long stages cancellable).

pub(crate) mod lower;

pub(crate) mod reuse;

pub(crate) mod solve;

pub(crate) mod cascade;

pub(crate) mod classify;
