//! Stage 4 — **cascade**: the window scans that settle each surviving
//! point's fate — §3.2's replacement equations (Eq. 4), generalized to
//! k-way LRU sets (§4.2: a point misses when at least `k` distinct
//! interfering lines map into its set inside the reuse window).
//!
//! Each `(reference, reuse-vector)` scan is sharded into contiguous
//! blocks of whole survivor runs ([`split_blocks`]) dispatched through
//! the driver's work pool, and the per-block [`CascadeResult`]s are
//! merged back in block order — so the merged outcome entering the memo
//! tables is independent of the sharding.
//!
//! A block's scan is one governed walk over its runs ([`walk_runs`]);
//! the exact-count, segment and stepping paths ([`scan_run_block`]) differ
//! only in the code each run piece is handed to, and the two fast paths
//! share one verdict rule ([`misses`]). Exact-count contentions are
//! per-point sums, so that path shards like the others.

use cme_cache::CacheConfig;
use cme_ir::LoopNest;
use cme_reuse::ReuseVector;

use crate::governor::QueryGovernor;
use crate::pointset::{Run, SurvivorSet};
use crate::solve::{scan_interior, AnalysisOptions, Scanner};
use crate::window::{next_line_crossing, Geom, SlidingWindow, WindowStats};

use super::super::stats::Counters;
use super::lower::LoweredNest;

/// The verdicts of one `(reference, reuse-vector)` batch of window scans,
/// aligned with the solve set's `scan_set` order. Always the *merged*
/// result over every shard — block boundaries never leak into the memo
/// tables.
#[derive(Debug, Clone)]
pub(crate) struct CascadeResult {
    pub(crate) replacement_misses: u64,
    /// Per-perpetrator contention counts (all zero unless exact mode).
    pub(crate) contentions: Vec<u64>,
    /// Maximal runs `(lo, hi)` (inclusive, increasing, non-adjacent) of
    /// scan-set indices judged misses. Verdicts flip only at memory-line
    /// boundaries, so misses cluster into `O(points / Ls)` runs — the
    /// run form is both the compact storage and the unit the segmented
    /// scan emits directly.
    pub(crate) miss_runs: Vec<(u64, u64)>,
    /// Points the governor cut short, counted as misses (sound
    /// overcount); nonzero outcomes must never enter the memo tables.
    pub(crate) truncated: u64,
}

impl CascadeResult {
    /// An all-zero accumulator for merging block results of a nest with
    /// `nrefs` references.
    pub(crate) fn empty(nrefs: usize) -> Self {
        CascadeResult {
            replacement_misses: 0,
            contentions: vec![0; nrefs],
            miss_runs: Vec::new(),
            truncated: 0,
        }
    }

    /// Records the `n ≥ 1` points from global scan-set index `g` on as
    /// replacement misses.
    #[inline]
    fn miss(&mut self, g: u64, n: u64) {
        self.replacement_misses += n;
        push_miss_span(&mut self.miss_runs, g, g + n - 1);
    }
}

/// Appends the inclusive index span `[lo, hi]` to a canonical miss-run
/// list, fusing with the last run when adjacent — pushes arrive in
/// strictly increasing index order, so this keeps the list in maximal-run
/// form no matter how the scan was segmented.
#[inline]
pub(crate) fn push_miss_span(runs: &mut Vec<(u64, u64)>, lo: u64, hi: u64) {
    if let Some(last) = runs.last_mut() {
        if last.1 + 1 == lo {
            last.1 = hi;
            return;
        }
    }
    runs.push((lo, hi));
}

/// Minimum points per scan block: below this the dispatch overhead beats
/// the parallelism.
const MIN_BLOCK_POINTS: u64 = 4096;

/// Shards a scan set into contiguous blocks of whole chunks (runs of a
/// [`RunSet`], rows of a dense set), sized so every worker gets a few
/// blocks but none falls under [`MIN_BLOCK_POINTS`]. A single oversized
/// chunk still forms one block (chunks are the sharding granularity).
///
/// [`RunSet`]: crate::pointset::RunSet
pub(crate) fn split_blocks(set: &SurvivorSet, threads: usize) -> Vec<(usize, usize)> {
    let nchunks = set.chunk_count();
    if nchunks == 0 {
        return Vec::new();
    }
    if threads <= 1 {
        return vec![(0, nchunks)];
    }
    let target = (set.len() / (threads as u64 * 4)).max(MIN_BLOCK_POINTS);
    let mut blocks = Vec::new();
    let mut start = 0usize;
    for ci in 0..nchunks {
        if set.chunk_start(ci + 1) - set.chunk_start(start) >= target {
            blocks.push((start, ci + 1));
            start = ci + 1;
        }
    }
    if start < nchunks {
        blocks.push((start, nchunks));
    }
    blocks
}

/// Points per governed piece of a run: a budgeted walk checks and
/// charges the governor at most this many points apart.
const GOVERNED_PIECE: i64 = 4096;

/// Scans the reuse windows of the survivors in chunks `chunk_lo..chunk_hi`
/// of `points` along `rv` — the verdict half of Figure 6, with miss
/// indices reported in the scan set's global order so per-block outcomes
/// concatenate into the unsharded result.
///
/// Three paths share one governed walk ([`walk_runs`]) and one epilogue:
///
/// - **Exact** (`exact_equation_counts`): the per-point [`Scanner`],
///   whose per-perpetrator contentions the window multiset does not keep.
/// - **Segment**: intra scans and gap-one scans (vector `(0,…,0,1)`) have
///   an *empty* window interior, so a point's verdict depends only on its
///   endpoint side accesses, each an affine function of the innermost
///   index. Their lines are constant between computable line crossings,
///   so one verdict settles a whole segment (~Ls points for stride-1
///   references), pushed as one miss span.
/// - **Stepping**: every other vector keeps a live interior; a
///   [`SlidingWindow`] slides along each run at O(references) per point.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_run_block(
    nest: &LoopNest,
    lowered: &LoweredNest,
    cache: &CacheConfig,
    dest_idx: usize,
    rv: &ReuseVector,
    points: &SurvivorSet,
    chunk_lo: usize,
    chunk_hi: usize,
    options: &AnalysisOptions,
    counters: &Counters,
    gov: &QueryGovernor,
) -> CascadeResult {
    let addrs = &lowered.addrs;
    let depth = nest.depth();
    let inner = depth - 1;
    let space = nest.space();
    let k = cache.assoc() as u64;
    let nrefs = addrs.len();
    let dest_addr = &addrs[dest_idx];
    let src_idx = rv.source().index();
    let r = rv.vector();
    let intra = rv.is_intra_iteration();
    let gap_one = !intra && r[inner] == 1 && r[..inner].iter().all(|&c| c == 0);
    let geom = Geom::new(cache);
    let mut out = CascadeResult::empty(nrefs);
    let mut i_buf = vec![0i64; depth];
    let mut p_buf = vec![0i64; depth];
    let mut seen: Vec<i64> = Vec::new();
    let block = (chunk_lo, chunk_hi);

    let (scanned, window) = if options.exact_equation_counts {
        let mut scanner = Scanner::new(cache, addrs, k as usize, true);
        let scanned = walk_runs(points, block, gov, &mut out, |run, lo, hi, out| {
            i_buf[..inner].copy_from_slice(run.prefix);
            for t in lo..=hi {
                i_buf[inner] = t;
                let i = &i_buf;
                for l in 0..depth {
                    p_buf[l] = i[l] - r[l];
                }
                let dline = geom.line(dest_addr.eval(i));
                scanner.reset(geom.set_of_line(dline), dline);
                // Probe the window in access order: for intra, the
                // statements between source and destination; otherwise
                // the tail of the source iteration, the whole iterations
                // strictly between (row by row), then the head of the
                // destination iteration. A probe returning false ends it.
                let _ = if intra {
                    ((src_idx + 1)..dest_idx).all(|s| scanner.check(i, s))
                } else {
                    ((src_idx + 1)..nrefs).all(|s| scanner.check(&p_buf, s))
                        && scan_interior(&mut scanner, &space, &p_buf, i)
                        && (0..dest_idx).all(|s| scanner.check(i, s))
                };
                for (s, v) in scanner.per_perp.iter().enumerate() {
                    out.contentions[s] += v.len() as u64;
                }
                if scanner.distinct.len() as u64 >= k {
                    out.miss(run.start + (t - run.lo) as u64, 1);
                }
            }
        });
        (scanned, WindowStats::default())
    } else if intra || gap_one {
        // Side references: for intra, the statements strictly between the
        // source and the destination, at i⃗ itself; for gap-one, the tail
        // of the source iteration at p⃗ then the head of the destination
        // iteration at i⃗ (the stepping path's probe order).
        let side: Vec<(usize, bool)> = if intra {
            ((src_idx + 1)..dest_idx).map(|s| (s, false)).collect()
        } else {
            ((src_idx + 1)..nrefs)
                .map(|s| (s, true))
                .chain((0..dest_idx).map(|s| (s, false)))
                .collect()
        };
        // Each side reference adds at most one line per point, so with
        // fewer than k of them every point hits; such a scan is still
        // walked, so it is charged and counted like any other.
        let can_miss = side.len() as u64 >= k;
        let ls = cache.line_elems();
        let dest_stride = dest_addr.coeff(inner);
        let strides: Vec<i64> = side.iter().map(|&(s, _)| addrs[s].coeff(inner)).collect();
        // A segment runs to the first line crossing of any reference it
        // examines. When some reference strides more than half a line per
        // step, segments would average under two points, so each point is
        // a segment of its own and the crossings are not computed.
        let segmented = std::iter::once(&dest_stride)
            .chain(&strides)
            .all(|s| 2 * s.unsigned_abs() <= ls as u64);
        let mut dest_a = 0i64;
        let mut side_a = vec![0i64; side.len()];
        let scanned = walk_runs(points, block, gov, &mut out, |run, lo, hi, out| {
            if !can_miss {
                return;
            }
            if lo == run.lo {
                i_buf[..inner].copy_from_slice(run.prefix);
                i_buf[inner] = run.lo;
                for l in 0..depth {
                    p_buf[l] = i_buf[l] - r[l];
                }
                dest_a = dest_addr.eval(&i_buf);
                for (a, &(s, at_src)) in side_a.iter_mut().zip(&side) {
                    *a = addrs[s].eval(if at_src { &p_buf } else { &i_buf });
                }
            }
            let mut t = lo;
            while t <= hi {
                let dline = geom.line(dest_a);
                let mut span = if segmented {
                    (hi - t + 1).min(next_line_crossing(dest_a, dest_stride, dline, ls))
                } else {
                    1
                };
                let lines = side_a.iter().zip(&strides).map(|(&a, &stride)| {
                    let line = geom.line(a);
                    if segmented {
                        span = span.min(next_line_crossing(a, stride, line, ls));
                    }
                    line
                });
                if misses(geom, dline, k, None, lines, &mut seen) {
                    out.miss(run.start + (t - run.lo) as u64, span as u64);
                }
                dest_a += dest_stride * span;
                for (a, stride) in side_a.iter_mut().zip(&strides) {
                    *a += stride * span;
                }
                t += span;
            }
        });
        (scanned, WindowStats::default())
    } else {
        // Inside one run the lockstep condition holds by construction, so
        // the window steps through per-reference address accumulators —
        // no affine evaluation and no space checks per point; the endpoint
        // side accesses fall out of the same accumulators
        // (`w.src_addr(s)` is reference `s` at `p⃗`, `w.dst_addr(s)` at
        // `i⃗`).
        let mut w = SlidingWindow::new_for_space(cache, addrs, &space);
        // Armed-window chaining: once a run ends at destination `i⃗`, the
        // next run in the same row is reached by a raw
        // [`SlidingWindow::slide_by`] whenever the source endpoint also
        // stays inside its row — skipping `begin_segment`'s spans and
        // endpoint re-evaluation. This is the common shape for stepping
        // vectors, whose scan sets are short runs spaced uniformly along
        // whole rows.
        let mut armed: Option<(&[i64], i64)> = None;
        let mut src_row_hi = i64::MIN;
        let scanned = walk_runs(points, block, gov, &mut out, |run, lo, hi, out| {
            if lo == run.lo {
                let slide = match armed {
                    Some((pfx, dst_inner)) if pfx == run.prefix => {
                        let delta = run.lo - dst_inner;
                        (delta > 0 && dst_inner - r[inner] + delta <= src_row_hi).then_some(delta)
                    }
                    _ => None,
                };
                if let Some(delta) = slide {
                    w.slide_by(delta);
                } else {
                    i_buf[..inner].copy_from_slice(run.prefix);
                    i_buf[inner] = run.lo;
                    for l in 0..depth {
                        p_buf[l] = i_buf[l] - r[l];
                    }
                    w.begin_segment(&space, &i_buf, r);
                    src_row_hi = space
                        .innermost_bounds(&p_buf[..inner])
                        .map_or(i64::MIN, |(_, hi)| hi);
                }
                armed = Some((run.prefix, run.hi));
            }
            for t in lo..=hi {
                if t > run.lo {
                    w.step_in_segment();
                }
                let dline = geom.line(w.dst_addr(dest_idx));
                let lines = ((src_idx + 1)..nrefs)
                    .map(|s| w.src_addr(s))
                    .chain((0..dest_idx).map(|s| w.dst_addr(s)))
                    .map(|a| geom.line(a));
                if misses(geom, dline, k, Some(&w), lines, &mut seen) {
                    out.miss(run.start + (t - run.lo) as u64, 1);
                }
            }
        });
        (scanned, w.stats)
    };
    counters.absorb_scan(scanned, window);
    gov.note_truncated(out.truncated);
    out
}

/// The one governed walk over the runs of chunks `chunk_lo..chunk_hi`:
/// hands each run to `scan` in pieces `lo..=hi` (the whole run at an
/// unlimited budget, [`GOVERNED_PIECE`] points otherwise), checking and
/// charging the governor once per piece, and returns the points handed
/// over. When the budget dies, the unscanned tail of the block becomes
/// one fused miss span (indeterminate-treated-as-miss, a sound
/// overcount): survivor runs are contiguous in the global index space, so
/// this is O(1) however many runs the cut leaves.
fn walk_runs<'p>(
    points: &'p SurvivorSet,
    (chunk_lo, chunk_hi): (usize, usize),
    gov: &QueryGovernor,
    out: &mut CascadeResult,
    mut scan: impl FnMut(&Run<'p>, i64, i64, &mut CascadeResult),
) -> u64 {
    let piece = if gov.unlimited() {
        i64::MAX
    } else {
        GOVERNED_PIECE
    };
    let mut scanned = 0u64;
    for run in points.runs_in(chunk_lo, chunk_hi) {
        let mut lo = run.lo;
        while lo <= run.hi {
            if !gov.live() {
                let cut = run.start + (lo - run.lo) as u64;
                out.truncated = points.chunk_start(chunk_hi) - cut;
                out.miss(cut, out.truncated);
                return scanned;
            }
            let hi = run.hi.min(lo.saturating_add(piece - 1));
            let n = (hi - lo + 1) as u64;
            scanned += n;
            gov.charge(n);
            scan(&run, lo, hi, out);
            lo = hi + 1;
        }
    }
    scanned
}

/// The verdict rule of Eq. 4 at one point, in §4.2's k-way form: the
/// point misses when at least `k` distinct lines other than its own line
/// `dline` map into its cache set inside its reuse window — the window's
/// interior lines, when there is a window, then the endpoint `side`
/// lines in probe order, each counted once (`seen` is scratch). Reading
/// stops at `k`: the unread lines cannot undo a miss.
#[inline]
fn misses(
    geom: Geom,
    dline: i64,
    k: u64,
    window: Option<&SlidingWindow<'_>>,
    mut side: impl Iterator<Item = i64>,
    seen: &mut Vec<i64>,
) -> bool {
    let dset = geom.set_of_line(dline);
    let mut conflicts = window.map_or(0, |w| w.distinct_excluding(dset, dline));
    seen.clear();
    while conflicts < k {
        let Some(line) = side.next() else {
            return false;
        };
        if geom.set_of_line(line) == dset
            && line != dline
            && !window.is_some_and(|w| w.contains_line(line))
            && !seen.contains(&line)
        {
            seen.push(line);
            conflicts += 1;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-D set with `rows` rows of `runs_per_row` runs of `run_len`
    /// points each, spaced two points apart.
    fn fragmented(dense: bool, rows: i64, runs_per_row: i64, run_len: i64) -> SurvivorSet {
        let mut set = SurvivorSet::new(2, dense);
        for row in 0..rows {
            for r in 0..runs_per_row {
                let lo = r * (run_len + 2);
                set.push_run(&[row], lo, lo + run_len - 1);
            }
        }
        set
    }

    #[test]
    fn split_blocks_tiles_every_chunk_in_order() {
        // 40 000 points as 4 000 short runs (run-compressed) and as 100
        // rows (dense): both split well above the 4096-point floor.
        let sets = [
            fragmented(false, 100, 40, 10),
            fragmented(true, 100, 40, 10),
        ];
        for set in &sets {
            let nchunks = set.chunk_count();
            assert_eq!(nchunks, if set.is_dense() { 100 } else { 4000 });
            for threads in [1, 2, 4, 8] {
                let blocks = split_blocks(set, threads);
                if threads <= 1 {
                    assert_eq!(blocks, vec![(0, nchunks)]);
                }
                let target = (set.len() / (threads as u64 * 4)).max(MIN_BLOCK_POINTS);
                assert_eq!(blocks.first().map(|b| b.0), Some(0));
                assert_eq!(blocks.last().map(|b| b.1), Some(nchunks));
                for (i, &(lo, hi)) in blocks.iter().enumerate() {
                    assert!(lo < hi, "empty block {i} at {threads} threads");
                    if let Some(&(next_lo, _)) = blocks.get(i + 1) {
                        assert_eq!(hi, next_lo, "gap after block {i}");
                        let points = set.chunk_start(hi) - set.chunk_start(lo);
                        assert!(points >= target, "block {i} short: {points} < {target}");
                    }
                }
            }
        }
        assert!(split_blocks(&SurvivorSet::new(2, false), 4).is_empty());
    }

    /// Cuts one block of each scan path (exact, segment, stepping) after
    /// its first governed piece and checks the degraded outcome against
    /// the unlimited scan of the same block.
    #[test]
    fn a_budget_cut_degrades_the_rest_of_the_block_on_every_path() {
        use crate::governor::Budget;
        use cme_ir::RefId;
        use cme_reuse::reuse_vectors;
        let nest = cme_kernels::mmult(16);
        let cache = CacheConfig::new(1024, 1, 32, 4).expect("valid geometry");
        let lowered = super::super::lower::lower(&nest).expect("nest lowers");
        let inner = nest.depth() - 1;
        let unlimited = QueryGovernor::new(Budget::unlimited(), None);
        let mut seen = [false; 3]; // exact, segment, stepping
        for exact in [true, false] {
            let options = AnalysisOptions::builder()
                .exact_equation_counts(exact)
                .build();
            for dest in 0..lowered.addrs.len() {
                let rvs = reuse_vectors(&nest, &cache, RefId::from_index(dest), &options.reuse);
                let solve = super::super::solve::build(
                    &nest, &lowered, &cache, dest, &rvs, &options, &unlimited,
                );
                for (rv, sv) in rvs.iter().zip(&solve.vectors) {
                    let Some(set) = sv.scan_set.as_deref() else {
                        continue;
                    };
                    let r = rv.vector();
                    let gap_one = r[inner] == 1 && r[..inner].iter().all(|&c| c == 0);
                    let path = match (exact, rv.is_intra_iteration() || gap_one) {
                        (true, _) => 0,
                        (false, true) => 1,
                        (false, false) => 2,
                    };
                    let first = set.runs().next().map_or(0, |run| run.len());
                    let first = first.min(GOVERNED_PIECE as u64);
                    if seen[path] || first == set.len() {
                        continue;
                    }
                    let scan = |gov: &QueryGovernor| {
                        let (counters, chunks) = (Counters::default(), set.chunk_count());
                        scan_run_block(
                            &nest, &lowered, &cache, dest, rv, set, 0, chunks, &options, &counters,
                            gov,
                        )
                    };
                    let full = scan(&unlimited);
                    // A zero-solve budget lets the first piece through,
                    // charges it, and dies at the next check.
                    let cut = scan(&QueryGovernor::new(
                        Budget::unlimited().with_max_solves(0),
                        None,
                    ));
                    assert!(cut.replacement_misses >= full.replacement_misses, "{rv}");
                    assert_eq!(cut.truncated, set.len() - first, "{rv}");
                    assert_eq!(cut.miss_runs.last().map(|m| m.1), Some(set.len() - 1));
                    seen[path] = true;
                }
            }
        }
        assert_eq!(
            seen, [true; 3],
            "a block of each of exact, segment, stepping"
        );
    }
}
