//! CME-vs-simulation accuracy comparison (the methodology of Table 1).
//!
//! The paper's Table 1 validates CME miss counts against DineroIII
//! simulations; [`compare_with_simulation`] produces one such row from our
//! analyzer and our LRU simulator.

use crate::engine::Analyzer;
use crate::solve::{AnalysisOptions, NestAnalysis};
use cme_cache::{simulate_nest, CacheConfig, NestSimResult};
use cme_ir::LoopNest;
use std::collections::HashSet;
use std::fmt;

/// One row of a Table-1-style accuracy report.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyRow {
    /// Nest name.
    pub nest: String,
    /// Number of distinct arrays accessed.
    pub arrays: usize,
    /// Maximum number of references to any single array.
    pub max_refs_per_array: usize,
    /// Total data accesses executed.
    pub accesses: u64,
    /// Misses measured by the LRU simulator (the DineroIII column).
    pub sim_misses: u64,
    /// Misses counted from the CMEs.
    pub cme_misses: u64,
    /// Number of references.
    pub refs: usize,
    /// Maximum number of reuse vectors used by any reference.
    pub max_rvs_used: usize,
    /// The full CME analysis (for drill-down).
    pub analysis: NestAnalysis,
    /// The full simulation result (for drill-down).
    pub simulation: NestSimResult,
}

impl AccuracyRow {
    /// Signed percentage error of the CME count relative to simulation
    /// (positive = CME over-counts, the sound direction).
    pub fn error_pct(&self) -> f64 {
        if self.sim_misses == 0 {
            if self.cme_misses == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.cme_misses as f64 - self.sim_misses as f64) / self.sim_misses as f64 * 100.0
        }
    }

    /// `true` when the CME count never under-counts the simulator — the
    /// soundness invariant of the analysis.
    pub fn is_sound(&self) -> bool {
        self.cme_misses >= self.sim_misses
    }
}

impl fmt::Display for AccuracyRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} arrays={} accesses={} sim={} cme={} err={:.2}% refs={} maxRV={}",
            self.nest,
            self.arrays,
            self.accesses,
            self.sim_misses,
            self.cme_misses,
            self.error_pct(),
            self.refs,
            self.max_rvs_used
        )
    }
}

/// Runs both the CME analysis and the LRU simulation of a nest and returns
/// the comparison row.
pub fn compare_with_simulation(
    nest: &LoopNest,
    cache: CacheConfig,
    options: &AnalysisOptions,
) -> AccuracyRow {
    let analysis = Analyzer::new(cache)
        .options(options.clone())
        .threads(0)
        .analyze(nest);
    let simulation = simulate_nest(nest, cache);
    let arrays: HashSet<usize> = nest
        .references()
        .iter()
        .map(|r| r.array().index())
        .collect();
    let max_refs_per_array = arrays
        .iter()
        .map(|&a| {
            nest.references()
                .iter()
                .filter(|r| r.array().index() == a)
                .count()
        })
        .max()
        .unwrap_or(0);
    AccuracyRow {
        nest: nest.name().to_string(),
        arrays: arrays.len(),
        max_refs_per_array,
        accesses: nest.access_count(),
        sim_misses: simulation.total().misses(),
        cme_misses: analysis.total_misses(),
        refs: nest.references().len(),
        max_rvs_used: analysis.max_vectors_used(),
        analysis,
        simulation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{AccessKind, NestBuilder};

    #[test]
    fn exact_on_unit_stride() {
        let mut b = NestBuilder::new();
        b.name("sweep").ct_loop("i", 1, 128);
        let a = b.array("A", &[128], 0);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        let nest = b.build().unwrap();
        let cache = CacheConfig::new(8192, 1, 32, 4).unwrap();
        let row = compare_with_simulation(&nest, cache, &AnalysisOptions::default());
        assert_eq!(row.sim_misses, row.cme_misses);
        assert_eq!(row.error_pct(), 0.0);
        assert!(row.is_sound());
        assert_eq!(row.arrays, 1);
        assert_eq!(row.refs, 1);
        assert!(row.to_string().contains("sweep"));
    }

    #[test]
    fn error_pct_handles_zero_sim_misses() {
        let row_zero = |cme: u64| AccuracyRow {
            nest: "x".into(),
            arrays: 1,
            max_refs_per_array: 1,
            accesses: 1,
            sim_misses: 0,
            cme_misses: cme,
            refs: 1,
            max_rvs_used: 0,
            analysis: NestAnalysis {
                nest_name: "x".into(),
                cache: CacheConfig::new(64, 1, 16, 4).unwrap(),
                per_ref: vec![],
            },
            simulation: cme_cache::NestSimResult {
                nest_name: "x".into(),
                per_ref: vec![],
                writebacks: 0,
                l2_misses: None,
            },
        };
        assert_eq!(row_zero(0).error_pct(), 0.0);
        assert!(row_zero(5).error_pct().is_infinite());
    }
}
