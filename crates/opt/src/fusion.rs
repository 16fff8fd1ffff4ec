//! Loop-fusion evaluation by solution counting (Section 5.1.2, Figure 13).
//!
//! Whether fusing two adjacent nests helps depends on conflict behavior
//! that simple locality heuristics miss. The CME framework decides it by
//! *counting*: generate the equations for the original pair and for the
//! fused nest, count solutions (= misses) with the miss-finding engine, and
//! fuse iff the fused count is lower. The precision lets the decision
//! depend on the actual cache organization and the actual base addresses —
//! exactly the paper's ADI example (~21K misses unfused vs ~15K fused).

use cme_cache::CacheConfig;
use cme_core::{AnalysisOptions, Analyzer};
use cme_ir::LoopNest;
use std::fmt;

/// The outcome of a fusion evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionDecision {
    /// Total CME miss count of the two original nests (each started cold,
    /// as the per-nest analysis model prescribes).
    pub misses_unfused: u64,
    /// Total CME miss count of the fused nest.
    pub misses_fused: u64,
}

impl FusionDecision {
    /// `true` when fusing lowers the predicted miss count.
    pub fn should_fuse(&self) -> bool {
        self.misses_fused < self.misses_unfused
    }

    /// Misses saved by fusing (saturating at zero).
    pub fn savings(&self) -> u64 {
        self.misses_unfused.saturating_sub(self.misses_fused)
    }
}

impl fmt::Display for FusionDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unfused: {} misses, fused: {} misses -> {}",
            self.misses_unfused,
            self.misses_fused,
            if self.should_fuse() {
                "FUSE"
            } else {
                "keep separate"
            }
        )
    }
}

/// Counts CME misses for the original nests and the fused nest and returns
/// the comparison. The caller supplies the fused nest (fusion legality and
/// construction are a compiler-side concern; this is the paper's cost
/// model).
pub fn evaluate_fusion(
    originals: &[&LoopNest],
    fused: &LoopNest,
    cache: CacheConfig,
    options: &AnalysisOptions,
) -> FusionDecision {
    let analyzer = Analyzer::new(cache).options(options.clone());
    evaluate_fusion_with(&analyzer, originals, fused)
}

/// [`evaluate_fusion`] driven through a caller-owned [`Analyzer`] session —
/// useful when scoring many fusion candidates over the same nests (the
/// unfused baselines re-count from the engine's memos).
pub fn evaluate_fusion_with(
    analyzer: &Analyzer,
    originals: &[&LoopNest],
    fused: &LoopNest,
) -> FusionDecision {
    let misses_unfused = originals
        .iter()
        .map(|n| analyzer.analyze(n).total_misses())
        .sum();
    let misses_fused = analyzer.analyze(fused).total_misses();
    FusionDecision {
        misses_unfused,
        misses_fused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_kernels::{adi_fusion_fused, adi_fusion_unfused};

    #[test]
    fn adi_fusion_pays_off() {
        // The paper's Figure 13 instance: 8KB direct-mapped, 32B lines,
        // 4B elements. Roughly 21K misses before, 15K after.
        let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
        let (n1, n2) = adi_fusion_unfused();
        let fused = adi_fusion_fused();
        let decision = evaluate_fusion(&[&n1, &n2], &fused, cache, &AnalysisOptions::default());
        assert!(
            decision.should_fuse(),
            "fusion must be predicted beneficial: {decision}"
        );
        // Shape check against the paper's approximate numbers.
        assert!(
            decision.misses_unfused > decision.misses_fused,
            "{decision}"
        );
        assert!(decision.savings() > 0);
    }

    #[test]
    fn display_mentions_verdict() {
        let d = FusionDecision {
            misses_unfused: 10,
            misses_fused: 20,
        };
        assert!(!d.should_fuse());
        assert_eq!(d.savings(), 0);
        assert!(d.to_string().contains("keep separate"));
    }
}
