//! Stage 5 — **classify**: stitch a solve set and its scan outcomes into
//! the public [`RefAnalysis`] — the composition step of Figure 6, byte
//! for byte what the reference oracle in [`crate::solve`] emits.
//!
//! Classification is pure assembly: it computes nothing new and is never
//! memoized. ε early stopping and governor truncation surface here as
//! `early_stopped` (the remaining survivors were counted as misses,
//! exactly like ε stopping — the paper's sound-overcount semantics).

use std::sync::Arc;

use cme_ir::{LoopNest, RefId};
use cme_reuse::ReuseVector;

use crate::governor::QueryGovernor;
use crate::solve::{AnalysisOptions, RefAnalysis, VectorReport};

use super::cascade::CascadeResult;
use super::solve::SolveSet;

/// Composes the finished per-reference artifact of the pipeline from the
/// upstream artifacts.
pub(crate) fn classify(
    nest: &LoopNest,
    dest: RefId,
    rvs: &[ReuseVector],
    solve: &SolveSet,
    scans: &[Arc<CascadeResult>],
    options: &AnalysisOptions,
) -> RefAnalysis {
    let mut vectors = Vec::with_capacity(solve.vectors.len());
    let mut replacement_misses = 0u64;
    let mut repl_points: Vec<(Vec<i64>, usize)> = Vec::new();
    for (vi, (sv, scan)) in solve.vectors.iter().zip(scans).enumerate() {
        replacement_misses += scan.replacement_misses;
        vectors.push(VectorReport {
            reuse: rvs[vi].clone(),
            examined: sv.examined,
            cold_solutions: sv.cold_solutions,
            replacement_misses: scan.replacement_misses,
            contentions_per_perpetrator: scan.contentions.clone(),
            cumulative_replacement_misses: replacement_misses,
        });
        if let (true, Some(set)) = (options.collect_miss_points, &sv.scan_set) {
            for &(lo, hi) in &scan.miss_runs {
                for mi in lo..=hi {
                    repl_points.push((set.point(mi), vi));
                }
            }
        }
    }
    let (cold_misses, cold_points) = match &solve.final_set {
        Some(set) => (
            set.len(),
            if options.collect_miss_points {
                let mut pts = Vec::with_capacity(set.len() as usize);
                set.for_each(|q| pts.push(q.to_vec()));
                pts
            } else {
                Vec::new()
            },
        ),
        None => {
            let mut pts = Vec::new();
            if options.collect_miss_points {
                let mut sp = nest.space();
                while let Some(q) = sp.next_point() {
                    pts.push(q);
                }
            }
            (nest.space().count(), pts)
        }
    };
    RefAnalysis {
        dest,
        label: nest.reference(dest).label().to_string(),
        vectors,
        cold_misses,
        replacement_misses,
        // A truncated solve set reports as early-stopped: the remaining
        // survivors were counted as misses, exactly like ε stopping.
        early_stopped: solve.early_stopped || solve.truncated,
        replacement_miss_points: repl_points,
        cold_miss_points: cold_points,
    }
}

/// The fully degraded per-reference result: the budget died before any
/// refinement, so every iteration point is indeterminate-treated-as-miss
/// (all cold, zero vectors) — the shape [`classify`] produces for a solve
/// set with no processed vectors.
pub(crate) fn truncated(
    nest: &LoopNest,
    dest: RefId,
    options: &AnalysisOptions,
    gov: &QueryGovernor,
) -> RefAnalysis {
    let count = nest.space().count();
    gov.note_truncated(count);
    let cold_points = if options.collect_miss_points {
        let mut pts = Vec::new();
        let mut sp = nest.space();
        while let Some(q) = sp.next_point() {
            pts.push(q);
        }
        pts
    } else {
        Vec::new()
    };
    RefAnalysis {
        dest,
        label: nest.reference(dest).label().to_string(),
        vectors: Vec::new(),
        cold_misses: count,
        replacement_misses: 0,
        early_stopped: true,
        replacement_miss_points: Vec::new(),
        cold_miss_points: cold_points,
    }
}
