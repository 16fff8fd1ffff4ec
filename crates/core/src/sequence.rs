//! Multi-nest (inter-nest) analysis — the paper's Section 7 future work.
//!
//! The CME framework analyzes one nest at a time from a cold cache
//! (Section 3.1). For a *sequence* of nests, per-nest cold-start counts are
//! a **sound upper bound** on the warm-sequence misses: inter-nest reuse
//! can only turn would-be cold misses into hits, never create new misses
//! (LRU state left by earlier nests is a subset of "empty plus useful
//! lines"... more precisely, any access that misses in the warm run also
//! misses in the cold-start run of its own nest, because the warm cache's
//! extra contents only add lines).
//!
//! [`analyze_sequence`] packages that bound; the simulator's
//! [`cme_cache::simulate_sequence`] provides the warm ground truth the
//! bound is validated against. Closing the gap with true inter-nest reuse
//! vectors is the paper's (and this crate's) future work; the paper notes
//! most inter-nest misses occur between *adjacent* nests \[16\].

use crate::engine::Analyzer;
use crate::solve::{AnalysisOptions, NestAnalysis};
use cme_cache::CacheConfig;
use cme_ir::LoopNest;
use std::fmt;

/// Per-nest cold-start analyses plus the aggregate bound.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceAnalysis {
    /// One cold-start analysis per nest, in program order.
    pub per_nest: Vec<NestAnalysis>,
}

impl SequenceAnalysis {
    /// The sound upper bound on total misses of the warm sequence.
    pub fn miss_upper_bound(&self) -> u64 {
        self.per_nest.iter().map(NestAnalysis::total_misses).sum()
    }
}

impl fmt::Display for SequenceAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.per_nest {
            writeln!(f, "{a}")?;
        }
        write!(
            f,
            "sequence upper bound: {} misses",
            self.miss_upper_bound()
        )
    }
}

/// Analyzes each nest of a program fragment independently (cold start) and
/// returns the per-nest results with the aggregate upper bound.
pub fn analyze_sequence(
    nests: &[&LoopNest],
    cache: CacheConfig,
    options: &AnalysisOptions,
) -> SequenceAnalysis {
    let analyzer = Analyzer::new(cache).options(options.clone());
    SequenceAnalysis {
        per_nest: nests.iter().map(|n| analyzer.analyze(n)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::simulate_sequence;
    use cme_ir::{AccessKind, NestBuilder};

    fn sweep(name: &str, n: i64, base: i64) -> LoopNest {
        let mut b = NestBuilder::new();
        b.name(name).ct_loop("i", 1, n);
        let a = b.array("A", &[n], base);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.build().unwrap()
    }

    #[test]
    fn bound_holds_and_is_tight_without_overlap() {
        let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
        let a = sweep("a", 128, 0);
        let b = sweep("b", 128, 4096); // disjoint sets region
        let seq = analyze_sequence(&[&a, &b], cache, &AnalysisOptions::default());
        let sim: u64 = simulate_sequence(&[&a, &b], cache)
            .iter()
            .map(|r| r.total().misses())
            .sum();
        assert!(seq.miss_upper_bound() >= sim);
        // Disjoint nests: the bound is exact.
        assert_eq!(seq.miss_upper_bound(), sim);
    }

    #[test]
    fn bound_is_conservative_with_internest_reuse() {
        let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
        let a = sweep("a", 128, 0);
        let b = sweep("b", 128, 0); // identical: second nest all-hits warm
        let seq = analyze_sequence(&[&a, &b], cache, &AnalysisOptions::default());
        let sims = simulate_sequence(&[&a, &b], cache);
        let sim: u64 = sims.iter().map(|r| r.total().misses()).sum();
        assert_eq!(sims[1].total().misses(), 0, "warm reuse");
        assert!(seq.miss_upper_bound() > sim, "bound is strict here");
        assert!(seq.miss_upper_bound() >= sim);
        assert!(seq.to_string().contains("upper bound"));
    }

    #[test]
    fn paper_adi_pair_bound() {
        // The unfused ADI pair shares all three arrays; the warm sequence
        // beats the cold-start bound, and both straddle the fused count.
        let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
        let (n1, n2) = cme_kernels::adi_fusion_unfused();
        let seq = analyze_sequence(&[&n1, &n2], cache, &AnalysisOptions::default());
        let sim: u64 = simulate_sequence(&[&n1, &n2], cache)
            .iter()
            .map(|r| r.total().misses())
            .sum();
        assert!(seq.miss_upper_bound() >= sim);
    }
}
