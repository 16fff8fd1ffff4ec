//! Trace generation: replaying a loop nest through the simulator.
//!
//! The access trace of a nest is fully determined by its iteration space
//! (walked in lexicographic order) and the statement order of its references
//! within each iteration — exactly the order the CME windowing logic
//! assumes. Every entry point below runs on one private walk of that
//! trace.

use crate::config::CacheConfig;
use crate::model::CacheModel;
use crate::sim::{AccessOutcome, Simulator};
use crate::stats::MissStats;
use cme_ir::{AccessKind, LoopNest, RefId};
use std::fmt;

/// Per-reference and total simulation results for one nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestSimResult {
    /// Nest name (copied for reporting).
    pub nest_name: String,
    /// One entry per reference, in statement order, classified at L1 (the
    /// level the analytic equations describe).
    pub per_ref: Vec<MissStats>,
    /// Write traffic that reached memory: dirty evictions plus the
    /// end-of-run drain under write-back (no drain between the nests of
    /// [`simulate_sequence`]), every store under write-through.
    pub writebacks: u64,
    /// Total L2 misses for two-level models; `None` for single-level.
    pub l2_misses: Option<u64>,
}

impl NestSimResult {
    /// Aggregate statistics over all references.
    pub fn total(&self) -> MissStats {
        self.per_ref.iter().copied().sum()
    }
}

impl fmt::Display for NestSimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "simulation of `{}`:", self.nest_name)?;
        for (i, s) in self.per_ref.iter().enumerate() {
            writeln!(f, "  ref#{i}: {s}")?;
        }
        write!(f, "  total: {}", self.total())
    }
}

/// The one walk of a nest's access trace: calls `visit(ref, point,
/// element address, is_write)` for every access in execution order —
/// iterations lexicographically, references in statement order within
/// each — and stops at the first `Err`.
fn walk<E>(
    nest: &LoopNest,
    mut visit: impl FnMut(RefId, &[i64], i64, bool) -> Result<(), E>,
) -> Result<(), E> {
    let refs: Vec<_> = nest
        .references()
        .iter()
        .map(|r| (r.id(), nest.address_affine(r.id()), r.kind()))
        .collect();
    let mut space = nest.space();
    while let Some(p) = space.next_point() {
        for (id, af, kind) in &refs {
            visit(*id, &p, af.eval(&p), *kind == AccessKind::Write)?;
        }
    }
    Ok(())
}

/// Replays `nest` through `sim`, calling `visit(ref, point, element
/// address, outcome)` after every access, and drains `sim`'s dirty lines
/// at the end when `drain` is set. `keep_going` is asked with the running
/// access count at the first iteration boundary after every
/// [`GOVERNED_SIM_CHECK_INTERVAL`] accesses; `false` abandons the replay
/// and returns the per-reference counts of the accesses replayed so far.
fn replay(
    sim: &mut Simulator,
    nest: &LoopNest,
    drain: bool,
    mut keep_going: impl FnMut(u64) -> bool,
    mut visit: impl FnMut(RefId, &[i64], i64, AccessOutcome),
) -> Result<NestSimResult, Vec<MissStats>> {
    let nrefs = nest.references().len();
    let mut per_ref = vec![MissStats::default(); nrefs];
    let writebacks_before = sim.writebacks();
    let mut done: u64 = 0;
    let mut next_check = GOVERNED_SIM_CHECK_INTERVAL;
    let walked = walk(nest, |id, p, addr, is_write| {
        let outcome = sim.access_kind(addr, is_write);
        visit(id, p, addr, outcome);
        let s = &mut per_ref[id.index()];
        s.accesses += 1;
        match outcome {
            AccessOutcome::Hit => s.hits += 1,
            AccessOutcome::ColdMiss => s.cold += 1,
            AccessOutcome::ReplacementMiss => s.replacement += 1,
        }
        if id.index() + 1 == nrefs {
            done += nrefs as u64;
            if done >= next_check {
                if !keep_going(done) {
                    return Err(());
                }
                next_check = done + GOVERNED_SIM_CHECK_INTERVAL;
            }
        }
        Ok(())
    });
    if walked.is_err() {
        return Err(per_ref);
    }
    if drain {
        sim.drain_dirty();
    }
    Ok(NestSimResult {
        nest_name: nest.name().to_string(),
        per_ref,
        writebacks: sim.writebacks() - writebacks_before,
        l2_misses: sim.l2_misses(),
    })
}

/// Unwraps a replay whose `keep_going` never says stop.
fn complete(result: Result<NestSimResult, Vec<MissStats>>) -> NestSimResult {
    result.unwrap_or_else(|_| unreachable!("an always-live check never aborts the replay"))
}

/// Replays every access of `nest` (from a cold cache) through an LRU
/// simulator with the given geometry and returns per-reference statistics.
///
/// References execute in statement order within each iteration; iterations
/// execute in lexicographic order — the paper's execution model.
///
/// # Examples
///
/// ```
/// use cme_cache::{simulate_nest, CacheConfig};
/// use cme_ir::{AccessKind, NestBuilder};
///
/// let mut b = NestBuilder::new();
/// b.ct_loop("i", 1, 64);
/// let a = b.array("A", &[64], 0);
/// b.reference(a, AccessKind::Read, &[("i", 0)]);
/// let nest = b.build().unwrap();
///
/// let cfg = CacheConfig::new(8192, 1, 32, 4)?; // 8 elements per line
/// let result = simulate_nest(&nest, cfg);
/// assert_eq!(result.total().accesses, 64);
/// assert_eq!(result.total().cold, 8); // one cold miss per line
/// assert_eq!(result.total().replacement, 0);
/// # Ok::<(), cme_cache::CacheConfigError>(())
/// ```
pub fn simulate_nest(nest: &LoopNest, config: CacheConfig) -> NestSimResult {
    simulate_nest_outcomes(nest, config, |_, _, _| {})
}

/// Replays every access of `nest` (from a cold state) through the
/// simulator a [`CacheModel`] describes — any replacement/write policy,
/// one or two levels — and returns per-reference L1 statistics, the
/// model's memory write traffic and, for two-level models, the L2 misses.
///
/// For the baseline model this agrees exactly with [`simulate_nest`]; it
/// is the ground-truth driver for the engine's simulator-backed classify
/// path and diffcheck's bound-semantics verdicts.
pub fn simulate_nest_model(nest: &LoopNest, model: &CacheModel) -> NestSimResult {
    complete(simulate_nest_model_governed(nest, model, |_| true))
}

/// How many accesses [`simulate_nest_model_governed`] replays between two
/// `keep_going` checks. Coarse enough that the check (typically a governor
/// checkpoint sampling a clock) stays off the per-access path.
pub const GOVERNED_SIM_CHECK_INTERVAL: u64 = 4096;

/// [`simulate_nest_model`] with a cooperative abort hook: `keep_going` is
/// called with the running access count every
/// [`GOVERNED_SIM_CHECK_INTERVAL`] accesses, and a `false` return abandons
/// the replay. This is what lets the engine's simulator-backed classify
/// path charge simulation steps against a query budget instead of blowing
/// the deadline on a huge iteration space.
///
/// # Errors
///
/// An abandoned replay returns the per-reference counts of the accesses
/// it replayed. Replay runs in program order, so they are exact for that
/// prefix of the trace under every policy and say nothing about the
/// accesses after it; counting each of those as a miss gives a sound
/// overcount. A prefix reports no write traffic or L2 misses.
pub fn simulate_nest_model_governed(
    nest: &LoopNest,
    model: &CacheModel,
    keep_going: impl FnMut(u64) -> bool,
) -> Result<NestSimResult, Vec<MissStats>> {
    let mut sim = Simulator::for_model(model);
    replay(&mut sim, nest, true, keep_going, |_, _, _, _| {})
}

/// Replays every access of `nest` (from a cold cache) and calls
/// `visit(ref_id, iteration_point, outcome)` with the simulator's verdict
/// for each access, in execution order.
///
/// This is the oracle-facing hook of the differential test harness: when
/// an analytical miss count disagrees with [`simulate_nest`], the visitor
/// pins down *which iteration points* the simulator classifies differently
/// than the CME miss-point sets, without re-deriving simulator state.
///
/// Returns the same aggregate result as [`simulate_nest`].
///
/// # Examples
///
/// ```
/// use cme_cache::{simulate_nest_outcomes, AccessOutcome, CacheConfig};
/// use cme_ir::{AccessKind, NestBuilder};
///
/// let mut b = NestBuilder::new();
/// b.ct_loop("i", 1, 4);
/// let a = b.array("A", &[4], 0);
/// b.reference(a, AccessKind::Read, &[("i", 0)]);
/// let nest = b.build().unwrap();
///
/// let cfg = CacheConfig::new(256, 1, 16, 4)?; // 4 elements per line
/// let mut cold_points = Vec::new();
/// let result = simulate_nest_outcomes(&nest, cfg, |_, p, out| {
///     if out == AccessOutcome::ColdMiss {
///         cold_points.push(p.to_vec());
///     }
/// });
/// assert_eq!(cold_points, vec![vec![1]]); // one line, cold at i=1
/// assert_eq!(result.total().cold, 1);
/// # Ok::<(), cme_cache::CacheConfigError>(())
/// ```
pub fn simulate_nest_outcomes(
    nest: &LoopNest,
    config: CacheConfig,
    mut visit: impl FnMut(RefId, &[i64], AccessOutcome),
) -> NestSimResult {
    let mut sim = Simulator::new(config);
    complete(replay(
        &mut sim,
        nest,
        true,
        |_| true,
        |id, p, _, outcome| visit(id, p, outcome),
    ))
}

/// Replays a *sequence* of nests through one simulator without flushing
/// between them — the inter-nest setting the paper leaves to future work
/// (Section 7). Returns one [`NestSimResult`] per nest; later nests start
/// with whatever the earlier ones left in the cache, so their miss counts
/// are at most what [`simulate_nest`] (cold start) reports.
pub fn simulate_sequence(nests: &[&LoopNest], config: CacheConfig) -> Vec<NestSimResult> {
    let mut sim = Simulator::new(config);
    nests
        .iter()
        .map(|nest| complete(replay(&mut sim, nest, false, |_| true, |_, _, _, _| {})))
        .collect()
}

/// Per-cache-set miss counts for a nest — the "which sets are hot" view a
/// programmer reaches for in interactive analysis (Section 5.2): a few
/// saturated sets point at conflicting columns; uniform pressure points at
/// capacity.
///
/// Returns one count per cache set.
pub fn miss_histogram_by_set(nest: &LoopNest, config: CacheConfig) -> Vec<u64> {
    let mut hist = vec![0u64; config.num_sets() as usize];
    let mut sim = Simulator::new(config);
    complete(replay(
        &mut sim,
        nest,
        false,
        |_| true,
        |_, _, addr, outcome| {
            if outcome.is_miss() {
                hist[config.cache_set(addr) as usize] += 1;
            }
        },
    ));
    hist
}

/// Writes the nest's access trace in the classic `dineroIII` input format:
/// one `<label> <hex-address>` pair per line, label `0` for reads and `1`
/// for writes, addresses in **bytes** (element addresses scaled by the
/// element size).
///
/// This makes every trace this crate analyzes replayable through the
/// original validation tool of the paper.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
///
/// # Examples
///
/// ```
/// use cme_ir::{AccessKind, NestBuilder};
/// let mut b = NestBuilder::new();
/// b.ct_loop("i", 1, 2);
/// let a = b.array("A", &[4], 0);
/// b.reference(a, AccessKind::Read, &[("i", 0)]);
/// b.reference(a, AccessKind::Write, &[("i", 0)]);
/// let nest = b.build().unwrap();
///
/// let mut buf = Vec::new();
/// cme_cache::export_din(&nest, 4, &mut buf)?;
/// assert_eq!(String::from_utf8(buf).unwrap(), "0 0\n1 0\n0 4\n1 4\n");
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn export_din(
    nest: &LoopNest,
    elem_bytes: i64,
    out: &mut impl std::io::Write,
) -> std::io::Result<()> {
    walk(nest, |_, _, addr, is_write| {
        writeln!(out, "{} {:x}", u8::from(is_write), addr * elem_bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{AccessKind, NestBuilder};

    fn unit_stride_nest(n: i64, base: i64) -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, n);
        let a = b.array("A", &[n.max(1)], base);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.build().unwrap()
    }

    #[test]
    fn unit_stride_cold_misses_follow_line_size() {
        let cfg = CacheConfig::new(8192, 1, 32, 4).unwrap();
        let res = simulate_nest(&unit_stride_nest(256, 0), cfg);
        assert_eq!(res.total().cold, 32);
        assert_eq!(res.total().hits, 224);
    }

    #[test]
    fn misaligned_base_adds_a_line() {
        let cfg = CacheConfig::new(8192, 1, 32, 4).unwrap();
        // 256 elements starting at offset 4 straddle 33 lines.
        let res = simulate_nest(&unit_stride_nest(256, 4), cfg);
        assert_eq!(res.total().cold, 33);
    }

    #[test]
    fn two_refs_attribute_stats_separately() {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 16);
        let a = b.array("A", &[16], 0);
        let c = b.array("C", &[16], 2048); // same sets as A in an 8KB DM cache
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.reference(c, AccessKind::Write, &[("i", 0)]);
        let nest = b.build().unwrap();
        let cfg = CacheConfig::new(8192, 1, 32, 4).unwrap();
        let res = simulate_nest(&nest, cfg);
        // A and C conflict on every line (2048 elements = exactly Cs apart):
        // each access evicts the other's line.
        let a_stats = res.per_ref[0];
        let c_stats = res.per_ref[1];
        assert_eq!(a_stats.accesses, 16);
        assert_eq!(c_stats.accesses, 16);
        assert_eq!(a_stats.hits + c_stats.hits, 0);
        assert_eq!(res.total().misses(), 32);
        // First touches are cold; later ones replacement.
        assert_eq!(res.total().cold, 4); // 2 lines per array
        assert_eq!(res.total().replacement, 28);
    }

    #[test]
    fn set_histogram_localizes_conflicts() {
        // Two arrays one cache apart conflict in exactly the sets their
        // lines map to; all other sets are quiet.
        let cfg = CacheConfig::new(1024, 1, 32, 4).unwrap(); // 32 sets
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 16).ct_loop("j", 1, 8);
        let a = b.array("A", &[8], 0);
        let c = b.array("C", &[8], 256);
        b.reference(a, AccessKind::Read, &[("j", 0)]);
        b.reference(c, AccessKind::Write, &[("j", 0)]);
        let nest = b.build().unwrap();
        let hist = miss_histogram_by_set(&nest, cfg);
        assert_eq!(hist.len(), 32);
        // Only the first set (elements 0..8 = lines 0..1 -> sets 0, 1).
        let hot: Vec<usize> = hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(s, _)| s)
            .collect();
        assert_eq!(hot, vec![0], "8 elements fit one line... sets: {hot:?}");
        let total: u64 = hist.iter().sum();
        assert_eq!(total, simulate_nest(&nest, cfg).total().misses());
    }

    #[test]
    fn writebacks_follow_dirty_evictions() {
        // Write sweep over twice the cache: every line gets dirtied and
        // eventually evicted (or drained), so writebacks = lines touched.
        let cfg = CacheConfig::new(256, 1, 16, 4).unwrap(); // 64 elements
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 128);
        let a = b.array("A", &[128], 0);
        b.reference(a, AccessKind::Write, &[("i", 0)]);
        let nest = b.build().unwrap();
        let res = simulate_nest(&nest, cfg);
        assert_eq!(res.writebacks, 128 / 4, "one write-back per dirty line");
        // A pure read sweep writes nothing back.
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 128);
        let a = b.array("A", &[128], 0);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        let ro = b.build().unwrap();
        assert_eq!(simulate_nest(&ro, cfg).writebacks, 0);
    }

    #[test]
    fn warm_sequence_never_misses_more_than_cold_starts() {
        let cfg = CacheConfig::new(8192, 1, 32, 4).unwrap();
        let a = unit_stride_nest(128, 0);
        let b = unit_stride_nest(128, 64); // overlaps the first sweep
        let seq = simulate_sequence(&[&a, &b], cfg);
        let cold_a = simulate_nest(&a, cfg).total().misses();
        let cold_b = simulate_nest(&b, cfg).total().misses();
        assert_eq!(seq[0].total().misses(), cold_a);
        assert!(
            seq[1].total().misses() < cold_b,
            "warm start must help the overlapping nest: {} vs {}",
            seq[1].total().misses(),
            cold_b
        );
    }

    #[test]
    fn outcome_replay_agrees_with_plain_simulation() {
        let cfg = CacheConfig::new(256, 2, 16, 4).unwrap();
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 8).ct_loop("j", 1, 8);
        let a = b.array("A", &[8, 8], 0);
        let c = b.array("C", &[8, 8], 64);
        b.reference(a, AccessKind::Read, &[("i", 0), ("j", 0)]);
        b.reference(c, AccessKind::Write, &[("j", 0), ("i", 0)]);
        let nest = b.build().unwrap();
        let plain = simulate_nest(&nest, cfg);
        let mut visited = 0u64;
        let mut misses = 0u64;
        let replayed = simulate_nest_outcomes(&nest, cfg, |rid, p, out| {
            visited += 1;
            misses += out.is_miss() as u64;
            assert_eq!(p.len(), 2);
            assert!(rid.index() < 2);
        });
        assert_eq!(replayed, plain);
        assert_eq!(visited, plain.total().accesses);
        assert_eq!(misses, plain.total().misses());
    }

    #[test]
    fn model_simulation_matches_baseline_and_diverges_for_fifo() {
        use crate::model::CacheModel;
        use crate::policy::PolicyKind;
        // A conflict-heavy nest on a tiny 2-way cache.
        let cfg = CacheConfig::new(128, 2, 16, 4).unwrap();
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 8).ct_loop("j", 1, 16);
        let a = b.array("A", &[16], 0);
        let c = b.array("C", &[16], 32);
        b.reference(a, AccessKind::Read, &[("j", 0)]);
        b.reference(c, AccessKind::Write, &[("j", 0)]);
        let nest = b.build().unwrap();
        let plain = simulate_nest(&nest, cfg);
        let baseline = simulate_nest_model(&nest, &CacheModel::new(cfg));
        assert_eq!(baseline.per_ref, plain.per_ref);
        assert_eq!(baseline.writebacks, plain.writebacks);
        assert_eq!(baseline.l2_misses, None);
        // FIFO on the same nest must still sum consistently, and total
        // misses may differ from LRU (that is the point of the model).
        let fifo = simulate_nest_model(&nest, &CacheModel::new(cfg).policy(PolicyKind::Fifo));
        let t = fifo.total();
        assert_eq!(t.accesses, plain.total().accesses);
        assert_eq!(t.hits + t.cold + t.replacement, t.accesses);
    }

    #[test]
    fn two_level_model_simulation_reports_both_levels() {
        use crate::model::CacheModel;
        let l1 = CacheConfig::new(128, 1, 16, 4).unwrap();
        let l2 = CacheConfig::new(2048, 2, 16, 4).unwrap();
        let model = CacheModel::new(l1).with_l2(l2).unwrap();
        let nest = unit_stride_nest(256, 0);
        let res = simulate_nest_model(&nest, &model);
        // Sequential sweep: every L1 miss is cold, and L2 sees the same
        // cold stream.
        assert_eq!(res.total().cold, 64);
        assert_eq!(res.l2_misses, Some(64));
    }

    #[test]
    fn governed_replay_checks_at_iteration_boundaries() {
        // Three references per point: `keep_going` runs at the first point
        // boundary at or past every GOVERNED_SIM_CHECK_INTERVAL accesses.
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 4000);
        let a = b.array("A", &[4000], 0);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.reference(a, AccessKind::Write, &[("i", 0)]);
        let nest = b.build().unwrap();
        let model = crate::model::CacheModel::new(CacheConfig::new(256, 2, 16, 4).unwrap());
        let mut checks = Vec::new();
        let full = simulate_nest_model_governed(&nest, &model, |done| {
            checks.push(done);
            true
        });
        assert_eq!(checks, vec![4098, 8196]);
        assert_eq!(full, Ok(simulate_nest_model(&nest, &model)));
        // Stopped at the first check, the replay returns the counts of
        // its 1366-point prefix.
        let mut calls = 0;
        let stopped = simulate_nest_model_governed(&nest, &model, |_| {
            calls += 1;
            false
        });
        let prefix = stopped.expect_err("a false check abandons the replay");
        let accesses: Vec<u64> = prefix.iter().map(|s| s.accesses).collect();
        assert_eq!((accesses, calls), (vec![1366; 3], 1));
    }

    #[test]
    fn display_mentions_nest_name() {
        let cfg = CacheConfig::new(8192, 1, 32, 4).unwrap();
        let res = simulate_nest(&unit_stride_nest(4, 0), cfg);
        assert!(res.to_string().contains("nest"));
    }
}
