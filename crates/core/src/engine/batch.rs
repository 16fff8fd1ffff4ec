//! Batch-driver bookkeeping: coalescing duplicate scan slots and merging
//! sharded scan blocks.
//!
//! A batch plans every nest before any scan runs, so slots that would hit
//! the scan memo *had the nests run sequentially* (layout siblings share
//! scan keys) all miss `peek_scan` together. [`coalesce_scan_slots`]
//! recovers the sharing: one executor per distinct key, every duplicate
//! slot aliased to it. [`merge_scan_blocks`] folds the per-block partial
//! outcomes of one pooled round back into whole per-slot outcomes,
//! independent of how the blocks were sharded.

use std::collections::HashMap;
use std::sync::Arc;

use super::stages::cascade::CascadeResult;

/// Assigns every scan slot an executor: the first slot with each distinct
/// key executes; later slots with the same key alias it. Unkeyed slots
/// (nests not memoized: caching off, or above the memo size cap) always
/// execute their own scan. Returns
/// `(executors, role)`: `executors[ei]` is the todo index that scans, and
/// `role[ti]` is the executor index whose outcome slot `ti` consumes.
pub(crate) fn coalesce_scan_slots(
    todo: &[(usize, usize, Option<u128>)],
) -> (Vec<usize>, Vec<usize>) {
    let mut canon: HashMap<u128, usize> = HashMap::new();
    let mut executors: Vec<usize> = Vec::new();
    let mut role: Vec<usize> = Vec::with_capacity(todo.len());
    for (ti, &(_, _, key)) in todo.iter().enumerate() {
        let ei = match key {
            Some(k) => *canon.entry(k).or_insert_with(|| {
                executors.push(ti);
                executors.len() - 1
            }),
            None => {
                executors.push(ti);
                executors.len() - 1
            }
        };
        role.push(ei);
    }
    (executors, role)
}

/// Appends the outcome of the block range right after `a`'s to `a`.
/// Counters add; `b`'s miss runs are appended, fusing only at the seam
/// when `b`'s first run abuts `a`'s last (a miss cluster split by the
/// block boundary). Because each side's run list is already maximal, this
/// seam rule is exactly [`push_miss_span`]'s fusion rule, so the merged
/// list is maximal again. Each step touches only `b`'s runs, so a left
/// fold over a scan's blocks is linear in its total run count.
///
/// [`push_miss_span`]: super::stages::cascade::push_miss_span
fn merge_adjacent(a: &mut CascadeResult, b: CascadeResult) {
    a.replacement_misses += b.replacement_misses;
    for (acc, c) in a.contentions.iter_mut().zip(&b.contentions) {
        *acc += c;
    }
    a.truncated += b.truncated;
    let mut runs = b.miss_runs.into_iter();
    if let (Some(last), Some(&(b_lo, b_hi))) = (a.miss_runs.last_mut(), runs.as_slice().first()) {
        if last.1 + 1 == b_lo {
            last.1 = b_hi;
            runs.next();
        }
    }
    a.miss_runs.extend(runs);
}

/// Merges pooled per-block scan results into one outcome per round item.
/// `jobs[j].0` names the round item block `j` belongs to; each item's
/// blocks cover its run ranges in order, so folding them left to right
/// onto the item's empty outcome rebuilds the canonical maximal-run list
/// and the counter sums — the merged outcome is byte-identical to an
/// unsharded scan.
pub(crate) fn merge_scan_blocks(
    mut merged: Vec<CascadeResult>,
    jobs: Vec<(usize, usize, usize)>,
    partials: Vec<CascadeResult>,
) -> Vec<Arc<CascadeResult>> {
    for ((ri, _, _), part) in jobs.into_iter().zip(partials) {
        merge_adjacent(&mut merged[ri], part);
    }
    merged.into_iter().map(Arc::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_alias_their_first_executor_and_unkeyed_never_alias() {
        let todo = vec![
            (0, 0, Some(7u128)),
            (0, 1, None),
            (1, 0, Some(7u128)), // duplicate of slot 0
            (1, 1, None),        // unkeyed: never coalesced, even repeated
            (2, 0, Some(9u128)),
            (2, 1, Some(7u128)), // duplicate of slot 0
        ];
        let (executors, role) = coalesce_scan_slots(&todo);
        assert_eq!(executors, vec![0, 1, 3, 4]);
        assert_eq!(role, vec![0, 1, 0, 2, 3, 0]);
    }

    fn block(misses: u64, contentions: Vec<u64>, runs: Vec<(u64, u64)>) -> CascadeResult {
        CascadeResult {
            replacement_misses: misses,
            contentions,
            miss_runs: runs,
            truncated: 0,
        }
    }

    #[test]
    fn merge_tree_fuses_seams_across_odd_block_counts() {
        // Five blocks of one round item whose boundary runs chain: the
        // cluster 3..=9 is split across blocks 0-2, and 20..=25 across
        // blocks 3-4. The fold must fuse every seam exactly as one
        // unsharded scan would have pushed the runs.
        let empties = vec![CascadeResult::empty(2)];
        let jobs = vec![(0, 0, 2), (0, 2, 4), (0, 4, 6), (0, 6, 8), (0, 8, 10)];
        let partials = vec![
            block(2, vec![1, 0], vec![(0, 0), (3, 4)]),
            block(3, vec![0, 2], vec![(5, 6)]),
            block(1, vec![1, 1], vec![(7, 9), (12, 12)]),
            block(4, vec![0, 0], vec![(20, 22)]),
            block(1, vec![2, 3], vec![(23, 25)]),
        ];
        let merged = merge_scan_blocks(empties, jobs, partials);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].replacement_misses, 11);
        assert_eq!(merged[0].contentions, vec![4, 6]);
        assert_eq!(
            merged[0].miss_runs,
            vec![(0, 0), (3, 9), (12, 12), (20, 25)]
        );
        assert_eq!(merged[0].truncated, 0);
    }

    #[test]
    fn merge_routes_blocks_to_their_round_item() {
        let empties = vec![CascadeResult::empty(1), CascadeResult::empty(1)];
        let jobs = vec![(1, 0, 2), (0, 0, 2), (1, 2, 4)];
        let partials = vec![
            block(1, vec![0], vec![(0, 1)]),
            block(2, vec![1], vec![(4, 4)]),
            block(1, vec![0], vec![(2, 3)]),
        ];
        let merged = merge_scan_blocks(empties, jobs, partials);
        assert_eq!(merged[0].replacement_misses, 2);
        assert_eq!(merged[0].miss_runs, vec![(4, 4)]);
        assert_eq!(merged[1].replacement_misses, 2);
        assert_eq!(merged[1].miss_runs, vec![(0, 3)]);
    }
}
