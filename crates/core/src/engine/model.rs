//! The simulator-backed classify path for non-baseline cache models.
//!
//! The analytic pipeline evaluates *LRU* miss equations: the stack-depth
//! criterion behind the replacement equations (Section 3.2) counts
//! distinct interfering lines, which is exactly the LRU replacement
//! condition and only an approximation of FIFO or pseudo-LRU behavior.
//! For a non-baseline [`cme_cache::CacheModel`] a served request is
//! therefore answered by an **exact trace replay** through the model
//! simulator ([`cme_cache::simulate_nest_model`]), with the analytic LRU
//! result attached as a documented *bound* — under non-LRU policies the LRU count
//! plus `ε`/budget truncation is the sound reference the optimizers keep
//! steering by, while the simulator provides ground truth for the model
//! actually requested.
//!
//! Simulation is governed like solving: every simulated access charges
//! the query budget one step (the same unit as an equation evaluation),
//! and the deadline/cancel checkpoints fire every
//! [`cme_cache::GOVERNED_SIM_CHECK_INTERVAL`] accesses. An exhausted
//! replay yields the counts of the prefix it replayed. Replay runs in
//! program order, so that prefix is exact under every policy, though it
//! classifies nothing after it; the caller counts every unreplayed access
//! as a miss, a sound overcount tagged with the exhaustion outcome.

use super::Analyzer;
use crate::governor::{Budget, Outcome, QueryGovernor};
use cme_cache::{simulate_nest_model_governed, MissStats, NestSimResult};
use cme_ir::LoopNest;
use std::sync::atomic::Ordering;

/// The outcome of one governed model-simulation query: the exact
/// per-reference replay, or the replayed prefix with the exhaustion tag.
#[derive(Debug, Clone)]
pub(crate) struct ModelClassification {
    /// `Ok`: exact per-reference counts from the trace replay, with the
    /// model's memory write traffic and (two-level models) L2 misses — the
    /// same [`NestSimResult`] as [`cme_cache::simulate_nest_model`].
    /// `Err`: the per-reference counts of the prefix replayed before the
    /// budget exhausted.
    pub(crate) sim: Result<NestSimResult, Vec<MissStats>>,
    /// How the governed replay ended. [`Outcome::Complete`] iff `sim` is
    /// `Ok`.
    pub(crate) outcome: Outcome,
}

impl Analyzer {
    /// Classifies `nest` under the session's [`cme_cache::CacheModel`] by
    /// exact trace replay, governed by `budget` and the session's cancel
    /// token: each simulated access charges one budget step, and
    /// exhaustion abandons the replay (returning the replayed prefix's
    /// counts) instead of blowing the deadline on a huge iteration space.
    /// Counters land in [`crate::EngineStats`] (`sim_classifications`,
    /// `sim_accesses`, `sim_writebacks`, `sim_exhausted`).
    ///
    /// The caller is responsible for address-overflow validation — in the
    /// serve path the analytic bound runs first and performs it.
    pub(crate) fn classify_model(&self, nest: &LoopNest, budget: Budget) -> ModelClassification {
        self.counters
            .sim_classifications
            .fetch_add(1, Ordering::Relaxed);
        let gov = QueryGovernor::new(budget, self.cancel.clone());
        let total_accesses = nest
            .space()
            .count()
            .saturating_mul(nest.references().len() as u64);
        let mut charged: u64 = 0;
        let sim = simulate_nest_model_governed(nest, &self.model, |done| {
            gov.charge(done - charged);
            charged = done;
            gov.live()
        });
        match &sim {
            Ok(result) => {
                let total = result.per_ref.iter().fold(0u64, |acc, s| acc + s.accesses);
                self.counters
                    .sim_accesses
                    .fetch_add(total, Ordering::Relaxed);
                self.counters
                    .sim_writebacks
                    .fetch_add(result.writebacks, Ordering::Relaxed);
            }
            Err(_) => {
                self.counters
                    .sim_accesses
                    .fetch_add(charged, Ordering::Relaxed);
                self.counters.sim_exhausted.fetch_add(1, Ordering::Relaxed);
                // Everything not replayed is indeterminate: the caller
                // counts those accesses as misses, the paper's `ε > 0`
                // semantics.
                gov.note_truncated(total_accesses.saturating_sub(charged));
            }
        }
        ModelClassification {
            sim,
            outcome: gov.outcome(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::CancelToken;
    use cme_cache::{simulate_nest_model, CacheConfig, CacheModel, PolicyKind};
    use cme_ir::{AccessKind, NestBuilder};

    fn conflict_nest(n: i64) -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 8).ct_loop("j", 1, n);
        let a = b.array("A", &[n], 0);
        let c = b.array("C", &[n], 32);
        b.reference(a, AccessKind::Read, &[("j", 0)]);
        b.reference(c, AccessKind::Write, &[("j", 0)]);
        b.build().unwrap()
    }

    #[test]
    fn unlimited_budget_matches_the_plain_replay() {
        let cfg = CacheConfig::new(128, 2, 16, 4).unwrap();
        let model = CacheModel::new(cfg).policy(PolicyKind::Fifo);
        let nest = conflict_nest(16);
        let analyzer = Analyzer::with_model(model);
        let got = analyzer.classify_model(&nest, Budget::unlimited());
        assert!(got.outcome.is_complete());
        assert_eq!(got.sim, Ok(simulate_nest_model(&nest, &model)));
        let stats = analyzer.stats();
        assert_eq!(stats.sim_classifications, 1);
        assert_eq!(stats.sim_accesses, 8 * 16 * 2);
        assert_eq!(stats.sim_exhausted, 0);
    }

    #[test]
    fn solve_budget_exhausts_the_replay() {
        let cfg = CacheConfig::new(128, 2, 16, 4).unwrap();
        let model = CacheModel::new(cfg).policy(PolicyKind::Plru);
        // Large enough that several governor checkpoints fire.
        let nest = conflict_nest(8192);
        let analyzer = Analyzer::with_model(model);
        let got = analyzer.classify_model(&nest, Budget::unlimited().with_max_solves(5000));
        assert!(got.outcome.is_exhausted(), "{:?}", got.outcome);
        // The replay stops at the first checkpoint past the cap: the
        // prefix covers 8192 of 131,072 accesses, 4096 per reference.
        let prefix = got.sim.expect_err("the replay exhausted");
        let accesses: Vec<u64> = prefix.iter().map(|s| s.accesses).collect();
        let stats = analyzer.stats();
        assert_eq!((accesses, stats.sim_accesses), (vec![4096, 4096], 8192));
        assert_eq!(stats.sim_exhausted, 1);
    }

    #[test]
    fn cancellation_aborts_like_exhaustion() {
        let cfg = CacheConfig::new(128, 2, 16, 4).unwrap();
        let model = CacheModel::new(cfg).policy(PolicyKind::Fifo);
        let nest = conflict_nest(8192);
        let token = CancelToken::new();
        token.cancel();
        let analyzer = Analyzer::with_model(model).cancel_token(token);
        let got = analyzer.classify_model(&nest, Budget::unlimited());
        assert!(got.outcome.is_exhausted());
        // Cancelled before the replay began, it stops at the first check.
        let prefix = got.sim.expect_err("the replay was cancelled");
        assert_eq!(prefix.iter().map(|s| s.accesses).sum::<u64>(), 4096);
    }
}
