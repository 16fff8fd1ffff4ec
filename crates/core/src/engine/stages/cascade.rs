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
//! The default mode slides a [`SlidingWindow`] along each run, paying
//! O(references) per point instead of O(window); exact-count mode falls
//! back to the per-point [`Scanner`] (its verdicts need per-perpetrator
//! detail the window multiset does not keep), which still shards fine —
//! contentions are per-point sums.

use cme_cache::CacheConfig;
use cme_ir::LoopNest;
use cme_reuse::ReuseVector;

use crate::governor::QueryGovernor;
use crate::pointset::SurvivorSet;
use crate::solve::{scan_interior, AnalysisOptions, Scanner};
use crate::window::{Geom, SlidingWindow, WindowStats};

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

/// Number of innermost steps (≥ 1) for which `addr + stride·Δ` stays on
/// `line = ⌊addr/Ls⌋`; `i64::MAX` for temporal (stride-0) references.
#[inline]
fn line_span(addr: i64, stride: i64, line: i64, ls: i64) -> i64 {
    match stride.cmp(&0) {
        std::cmp::Ordering::Equal => i64::MAX,
        std::cmp::Ordering::Greater => crate::window::ceil_div((line + 1) * ls - addr, stride),
        std::cmp::Ordering::Less => crate::window::ceil_div(addr + 1 - line * ls, -stride),
    }
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

/// Scans the reuse windows of the survivors in chunks `chunk_lo..chunk_hi`
/// of `points` along `rv` — the verdict half of Figure 6, with miss
/// indices reported in the scan set's global order so per-block outcomes
/// concatenate into the unsharded result.
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
    let k = cache.assoc() as usize;
    let nrefs = addrs.len();
    let dest_addr = &addrs[dest_idx];
    let src_idx = rv.source().index();
    let r = rv.vector();
    let intra = rv.is_intra_iteration();
    let geom = Geom::new(cache);
    let mut contentions = vec![0u64; nrefs];
    let mut replacement_misses = 0u64;
    let mut miss_runs: Vec<(u64, u64)> = Vec::new();
    let mut i_buf = vec![0i64; depth];
    let mut block_points = 0u64;
    let mut truncated = 0u64;
    // Global point index one past this block — the truncation paths
    // degrade everything from the cut point to here in O(1).
    let block_end = points.chunk_start(chunk_hi);
    // Governed runs check the budget every `chunk` points; at full budget
    // the chunk spans the whole run, so the per-point loops below run
    // exactly as before (one extra comparison per run).
    let chunk: i64 = if gov.unlimited() { i64::MAX } else { 4096 };

    if options.exact_equation_counts {
        // Per-point scan.
        let mut scanner = Scanner::new(cache, addrs, k, true);
        let mut p = vec![0i64; depth];
        'runs_exact: for run in points.runs_in(chunk_lo, chunk_hi) {
            i_buf[..inner].copy_from_slice(run.prefix);
            let mut seg = run.lo;
            while seg <= run.hi {
                let seg_hi = run.hi.min(seg.saturating_add(chunk - 1));
                if !gov.live() {
                    truncated += degrade_tail(
                        run.start + (seg - run.lo) as u64,
                        block_end,
                        &mut miss_runs,
                        &mut replacement_misses,
                    );
                    break 'runs_exact;
                }
                block_points += (seg_hi - seg + 1) as u64;
                gov.charge((seg_hi - seg + 1) as u64);
                for t in seg..=seg_hi {
                    i_buf[inner] = t;
                    let i = &i_buf;
                    for l in 0..depth {
                        p[l] = i[l] - r[l];
                    }
                    let a_dest = dest_addr.eval(i);
                    let dline = geom.line(a_dest);
                    scanner.reset(geom.set_of_line(dline), dline);
                    let mut go = true;
                    if intra {
                        for s in (src_idx + 1)..dest_idx {
                            if !scanner.check(i, s) {
                                break;
                            }
                        }
                    } else {
                        // Tail of the source iteration (statements after the
                        // source).
                        for s in (src_idx + 1)..nrefs {
                            if !scanner.check(&p, s) {
                                go = false;
                                break;
                            }
                        }
                        // Whole iterations strictly between, row by row.
                        if go {
                            go = scan_interior(&mut scanner, &space, &p, i);
                        }
                        // Head of the destination iteration (statements before
                        // dest).
                        if go {
                            for s in 0..dest_idx {
                                if !scanner.check(i, s) {
                                    break;
                                }
                            }
                        }
                    }
                    for (s, v) in scanner.per_perp.iter().enumerate() {
                        contentions[s] += v.len() as u64;
                    }
                    if scanner.distinct.len() >= k {
                        replacement_misses += 1;
                        let g = run.start + (t - run.lo) as u64;
                        push_miss_span(&mut miss_runs, g, g);
                    }
                }
                seg = seg_hi + 1;
            }
        }
        counters.absorb_scan(block_points, WindowStats::default());
        gov.note_truncated(truncated);
        return CascadeResult {
            replacement_misses,
            contentions,
            miss_runs,
            truncated,
        };
    }

    // Fast mode. Two sub-paths:
    //
    // **Affine segment path** — intra scans and gap-one scans (vector
    // `(0,…,0,1)`) have an *empty* reuse-window interior, so the verdict
    // at a point depends only on the endpoint side accesses, each an
    // affine function of the innermost index. Their memory lines are
    // floors of affine functions, constant between computable
    // line-boundary crossings, so one verdict settles a whole segment
    // (~Ls points for stride-1 references) pushed as a single miss run.
    //
    // **Stepping path** — every other vector keeps a live window
    // interior; slide a [`SlidingWindow`] along the run, paying
    // O(references) per point.
    let mut p_buf = vec![0i64; depth];
    let mut side: Vec<i64> = Vec::new();
    let kk = k as u64;
    let ls = cache.line_elems();
    let gap_one = !intra && r[inner] == 1 && r[..inner].iter().all(|&c| c == 0);

    if intra || gap_one {
        // Side references: for intra, the statements strictly between the
        // source and the destination, at i⃗ itself; for gap-one, the tail
        // of the source iteration at p⃗ then the head of the destination
        // iteration at i⃗ (matching the stepping path's probe order).
        let specs: Vec<(usize, bool)> = if intra {
            ((src_idx + 1)..dest_idx).map(|s| (s, false)).collect()
        } else {
            ((src_idx + 1)..nrefs)
                .map(|s| (s, true))
                .chain((0..dest_idx).map(|s| (s, false)))
                .collect()
        };
        let dest_stride = dest_addr.coeff(inner);
        let strides: Vec<i64> = specs.iter().map(|&(s, _)| addrs[s].coeff(inner)).collect();
        // Segment only when every involved reference crosses lines at
        // most every other step (average segment ≥ 2); a reference
        // striding a whole line per step would degrade segmentation to
        // per-point work plus the crossing arithmetic.
        let segmented = 2 * dest_stride.unsigned_abs() <= ls as u64
            && strides.iter().all(|s| 2 * s.unsigned_abs() <= ls as u64);
        let mut side_a: Vec<i64> = vec![0; specs.len()];
        'runs_affine: for run in points.runs_in(chunk_lo, chunk_hi) {
            i_buf[..inner].copy_from_slice(run.prefix);
            i_buf[inner] = run.lo;
            let mut dest_a = dest_addr.eval(&i_buf);
            for l in 0..depth {
                p_buf[l] = i_buf[l] - r[l];
            }
            for (slot, &(s, at_src)) in side_a.iter_mut().zip(&specs) {
                *slot = addrs[s].eval(if at_src { &p_buf } else { &i_buf });
            }
            let mut seg = run.lo;
            while seg <= run.hi {
                let seg_hi = run.hi.min(seg.saturating_add(chunk - 1));
                if !gov.live() {
                    truncated += degrade_tail(
                        run.start + (seg - run.lo) as u64,
                        block_end,
                        &mut miss_runs,
                        &mut replacement_misses,
                    );
                    break 'runs_affine;
                }
                block_points += (seg_hi - seg + 1) as u64;
                gov.charge((seg_hi - seg + 1) as u64);
                if specs.is_empty() {
                    // No interference source at all: the run is all hits.
                    // (Still charged above — budget use is path-independent.)
                    seg = seg_hi + 1;
                    continue;
                }
                if segmented {
                    let mut t = seg;
                    while t <= seg_hi {
                        let dline = geom.line(dest_a);
                        let dset = geom.set_of_line(dline);
                        let mut span =
                            (seg_hi - t + 1).min(line_span(dest_a, dest_stride, dline, ls));
                        let mut conflicts = 0u64;
                        side.clear();
                        for (j, &addr) in side_a.iter().enumerate() {
                            if conflicts >= kk {
                                // Unexamined references cannot lower the
                                // verdict: the examined prefix alone keeps
                                // `conflicts ≥ k` for the whole span.
                                break;
                            }
                            let line = geom.line(addr);
                            span = span.min(line_span(addr, strides[j], line, ls));
                            if geom.set_of_line(line) == dset
                                && line != dline
                                && !side.contains(&line)
                            {
                                side.push(line);
                                conflicts += 1;
                            }
                        }
                        if conflicts >= kk {
                            let g = run.start + (t - run.lo) as u64;
                            replacement_misses += span as u64;
                            push_miss_span(&mut miss_runs, g, g + span as u64 - 1);
                        }
                        dest_a += dest_stride * span;
                        for (a, st) in side_a.iter_mut().zip(&strides) {
                            *a += st * span;
                        }
                        t += span;
                    }
                } else {
                    for t in seg..=seg_hi {
                        let dline = geom.line(dest_a);
                        let dset = geom.set_of_line(dline);
                        let mut conflicts = 0;
                        side.clear();
                        for &addr in &side_a {
                            if conflicts >= kk {
                                break;
                            }
                            let line = geom.line(addr);
                            if geom.set_of_line(line) == dset
                                && line != dline
                                && !side.contains(&line)
                            {
                                side.push(line);
                                conflicts += 1;
                            }
                        }
                        if conflicts >= kk {
                            replacement_misses += 1;
                            let g = run.start + (t - run.lo) as u64;
                            push_miss_span(&mut miss_runs, g, g);
                        }
                        dest_a += dest_stride;
                        for (a, st) in side_a.iter_mut().zip(&strides) {
                            *a += st;
                        }
                    }
                }
                seg = seg_hi + 1;
            }
        }
        counters.absorb_scan(block_points, WindowStats::default());
        gov.note_truncated(truncated);
        return CascadeResult {
            replacement_misses,
            contentions,
            miss_runs,
            truncated,
        };
    }

    // Stepping path: slide the window along each run. Inside one run the
    // lockstep condition holds by construction, so the loop steps through
    // per-reference address accumulators — no affine evaluation and no
    // space checks per point; the endpoint side accesses fall out of the
    // same accumulators (`w.src_addr(s)` is reference `s` at `p⃗`,
    // `w.dst_addr(s)` at `i⃗`) and are deduplicated against the window and
    // each other.
    let mut w = SlidingWindow::new_for_space(cache, addrs, &space);
    // Armed-window chaining: once a run ends at destination `i⃗`, the next
    // run in the same row is reached by a raw [`SlidingWindow::slide_by`]
    // whenever the source endpoint also stays inside its row — skipping
    // `begin_segment`'s spans and endpoint re-evaluation.
    // This is the common shape for stepping vectors, whose scan sets are
    // short runs spaced uniformly along whole rows.
    let mut armed: Option<(&[i64], i64)> = None;
    let mut src_row_hi = i64::MIN;
    'runs: for run in points.runs_in(chunk_lo, chunk_hi) {
        let fast = match armed {
            Some((pfx, dst_inner)) if pfx == run.prefix => {
                let delta = run.lo - dst_inner;
                (delta > 0 && dst_inner - r[inner] + delta <= src_row_hi).then_some(delta)
            }
            _ => None,
        };
        if let Some(delta) = fast {
            w.slide_by(delta);
        } else {
            i_buf[..inner].copy_from_slice(run.prefix);
            // Position the window at the run's first point; every further
            // point is one guaranteed-lockstep step.
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
        let mut seg = run.lo;
        while seg <= run.hi {
            let seg_hi = run.hi.min(seg.saturating_add(chunk - 1));
            if !gov.live() {
                truncated += degrade_tail(
                    run.start + (seg - run.lo) as u64,
                    block_end,
                    &mut miss_runs,
                    &mut replacement_misses,
                );
                break 'runs;
            }
            block_points += (seg_hi - seg + 1) as u64;
            gov.charge((seg_hi - seg + 1) as u64);
            for t in seg..=seg_hi {
                if t > run.lo {
                    w.step_in_segment();
                }
                let a_dest = w.dst_addr(dest_idx);
                let dline = geom.line(a_dest);
                let dset = geom.set_of_line(dline);
                let mut conflicts = w.distinct_excluding(dset, dline);
                side.clear();
                // Tail of the source iteration, then head of the destination
                // iteration.
                for (at_src, lo_s, hi_s) in [(true, src_idx + 1, nrefs), (false, 0, dest_idx)] {
                    for s in lo_s..hi_s {
                        if conflicts >= kk {
                            break;
                        }
                        let addr = if at_src { w.src_addr(s) } else { w.dst_addr(s) };
                        let line = geom.line(addr);
                        if geom.set_of_line(line) == dset
                            && line != dline
                            && !w.contains_line(line)
                            && !side.contains(&line)
                        {
                            side.push(line);
                            conflicts += 1;
                        }
                    }
                }
                if conflicts >= kk {
                    replacement_misses += 1;
                    let g = run.start + (t - run.lo) as u64;
                    push_miss_span(&mut miss_runs, g, g);
                }
            }
            seg = seg_hi + 1;
        }
    }
    counters.absorb_scan(block_points, w.stats);
    gov.note_truncated(truncated);
    CascadeResult {
        replacement_misses,
        contentions,
        miss_runs,
        truncated,
    }
}

/// Degrades the unscanned tail of a block — every scan-set point from
/// global index `g_from` up to the block's end `g_end` — by counting it
/// as a replacement miss (indeterminate-treated-as-miss). Survivor runs
/// are contiguous in the global index space, so the whole tail is one
/// fused miss span: O(1), independent of how many runs or points the
/// budget cut off. Returns the number of points degraded.
fn degrade_tail(
    g_from: u64,
    g_end: u64,
    miss_runs: &mut Vec<(u64, u64)>,
    replacement_misses: &mut u64,
) -> u64 {
    if g_from >= g_end {
        return 0;
    }
    push_miss_span(miss_runs, g_from, g_end - 1);
    let n = g_end - g_from;
    *replacement_misses += n;
    n
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
}
