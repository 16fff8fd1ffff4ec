//! Persistent-store glue for the session driver: per-batch key
//! derivation, the read-side consult ahead of the pipeline, and the
//! exact-only write-through. Policy (what is trusted, what is evicted,
//! what is never written) lives in [`crate::store`]; this module only
//! wires it to the driver and the counters. The store is attached with
//! [`Analyzer::store`].

use super::Analyzer;
use crate::governor::{GovernedAnalysis, Outcome, QueryGovernor};
use crate::solve::{AnalysisOptions, NestAnalysis};
use crate::store::ArtifactKey;
use cme_ir::LoopNest;
use std::sync::atomic::Ordering;

impl Analyzer {
    /// The store key of every nest in the batch, from its `(structural,
    /// layout)` hash pair, or `None` per slot when no store is attached.
    /// The store mirrors the memo tables' on/off switch: with caching
    /// disabled this is a true recompute and every slot is `None`. Keys carry the session's full [`cme_cache::CacheModel`]
    /// through the options fingerprint, so a session serving a non-LRU or
    /// two-level model can never read (or shadow) a baseline artifact;
    /// for the baseline model the keys are bit-identical to the
    /// pre-model format.
    pub(super) fn artifact_keys(
        &self,
        hashes: &[(u128, u128)],
        options: &AnalysisOptions,
    ) -> Vec<Option<ArtifactKey>> {
        match &self.store {
            Some(_) if self.caching => hashes
                .iter()
                .map(|&(structural, layout)| {
                    Some(ArtifactKey::for_model(
                        structural,
                        layout,
                        &self.model,
                        options,
                    ))
                })
                .collect(),
            _ => vec![None; hashes.len()],
        }
    }

    /// Read-side consult, ahead of every pipeline stage: one pre-served
    /// analysis per keyed slot. A stored artifact is always a *complete*
    /// analysis (truncated results are never persisted), so a hit
    /// satisfies any budget. The store key carries no names, so a hit
    /// takes its nest name and reference labels from the caller's nest,
    /// as a memo hit does.
    pub(super) fn consult_store(
        &self,
        nests: &[&LoopNest],
        keys: &[Option<ArtifactKey>],
    ) -> Vec<Option<NestAnalysis>> {
        let mut served: Vec<Option<NestAnalysis>> = vec![None; keys.len()];
        if let Some(store) = &self.store {
            for ((slot, key), nest) in served.iter_mut().zip(keys).zip(nests) {
                if let Some(key) = key {
                    match store.get(key) {
                        Some(mut analysis) => {
                            self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
                            analysis.nest_name = nest.name().to_string();
                            for (r, src) in analysis.per_ref.iter_mut().zip(nest.references()) {
                                r.label = src.label().to_string();
                            }
                            *slot = Some(analysis);
                        }
                        None => {
                            self.counters.store_misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        served
    }

    /// Write-through of exact artifacts only — the caller must have
    /// already checked the outcome: an exhausted result is a sound
    /// overcount a later reader could not distinguish from the exact
    /// answer, so it must never reach this point.
    pub(super) fn persist_exact(&self, key: Option<&ArtifactKey>, analysis: &NestAnalysis) {
        if let (Some(store), Some(key)) = (&self.store, key) {
            store.put(key, analysis);
            self.counters.store_writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Assembles the batch result in batch order from store hits
    /// (`served`, always [`Outcome::Complete`]) and pipeline results
    /// (`computed`, in `miss_idx` order), tallying exhaustion and
    /// writing exact artifacts through to the store. Each result is
    /// paired with whether the store answered it.
    pub(super) fn merge_batch_results(
        &self,
        served: Vec<Option<NestAnalysis>>,
        keys: &[Option<ArtifactKey>],
        miss_idx: &[usize],
        computed: Vec<NestAnalysis>,
        govs: &[QueryGovernor],
    ) -> Vec<(GovernedAnalysis, bool)> {
        let mut out: Vec<Option<(GovernedAnalysis, bool)>> = served
            .into_iter()
            .map(|s| {
                s.map(|analysis| {
                    let outcome = Outcome::Complete;
                    (GovernedAnalysis { analysis, outcome }, true)
                })
            })
            .collect();
        for ((&i, analysis), gov) in miss_idx.iter().zip(computed).zip(govs) {
            let outcome = gov.outcome();
            if outcome.is_exhausted() {
                self.counters
                    .exhausted_analyses
                    .fetch_add(1, Ordering::Relaxed);
                self.counters
                    .truncated_points
                    .fetch_add(gov.truncated_points(), Ordering::Relaxed);
            } else {
                self.persist_exact(keys[i].as_ref(), &analysis);
            }
            out[i] = Some((GovernedAnalysis { analysis, outcome }, false));
        }
        out.into_iter()
            .map(|g| match g {
                Some(g) => g,
                None => unreachable!("every slot is a hit or a computed miss"),
            })
            .collect()
    }
}
