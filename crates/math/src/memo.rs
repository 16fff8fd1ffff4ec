//! Memoization of Diophantine / lattice-point solve results.
//!
//! The optimizers of the CME framework (padding, tiling, fusion) score many
//! candidate layouts, and candidates that differ only in array base
//! addresses produce equation systems whose *solve inputs* — constraint
//! coefficients and bound boxes — largely coincide. [`SolveMemo`] caches
//! exact counts keyed by the full `(coefficients, rhs, bounds)` tuple, with
//! hit/miss counters so callers can report memo effectiveness.
//!
//! The memo is safe to share across threads (a pooled analysis
//! consults it concurrently): lookups and inserts go through an internal
//! mutex, and the counters are atomic.

use crate::diophantine::BoundedDiophantine;
use crate::interval::Interval;
use crate::polytope::Polytope;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, tolerating poisoning: the memo stores plain `u64` counts
/// that are written atomically under the lock, so a panic elsewhere cannot
/// leave a half-updated entry behind. This keeps a session usable after a
/// worker panic is caught at the analysis pool boundary.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Exact key of one bounded solve: flattened constraint rows plus the
/// bounding box. Two solves with equal keys have equal counts by
/// construction (no hashing collisions are tolerated — the key stores the
/// full input).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SolveKey {
    /// Number of variables.
    nvars: usize,
    /// Constraint rows: each `coeffs · x <= rhs`, flattened as
    /// `coeffs ++ [rhs]`.
    rows: Vec<i64>,
    /// Inclusive `(lo, hi)` per variable.
    bounds: Vec<(i64, i64)>,
}

/// A memo table for exact Diophantine / lattice-point counts, with hit and
/// miss counters.
///
/// ```
/// use cme_math::{memo::SolveMemo, Interval, Polytope};
///
/// let memo = SolveMemo::new();
/// let mut p = Polytope::new(2);
/// p.le(vec![1, 1], 4);
/// let bounds = [Interval::new(0, 10), Interval::new(0, 10)];
/// let first = memo.count_points(&p, &bounds);
/// let second = memo.count_points(&p, &bounds);
/// assert_eq!(first, second);
/// assert_eq!(memo.hits(), 1);
/// assert_eq!(memo.misses(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SolveMemo {
    table: Mutex<HashMap<SolveKey, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SolveMemo {
    /// An empty memo.
    pub fn new() -> Self {
        SolveMemo::default()
    }

    /// Memoized [`Polytope::count_points`]: keyed by the polytope's full
    /// constraint list and the bound box.
    pub fn count_points(&self, p: &Polytope, bounds: &[Interval]) -> u64 {
        let mut rows = Vec::with_capacity(p.len() * (p.nvars() + 1));
        for (coeffs, rhs) in p.rows() {
            rows.extend_from_slice(coeffs);
            rows.push(rhs);
        }
        let key = SolveKey {
            nvars: p.nvars(),
            rows,
            bounds: bounds.iter().map(|b| (b.lo, b.hi)).collect(),
        };
        self.lookup(key, || p.count_points(bounds))
    }

    /// Memoized [`BoundedDiophantine::count_solutions`].
    pub fn count_diophantine(&self, d: &BoundedDiophantine) -> u64 {
        let mut rows = Vec::with_capacity(d.coeffs().len() + 1);
        rows.extend_from_slice(d.coeffs());
        rows.push(d.rhs());
        let key = SolveKey {
            nvars: d.coeffs().len(),
            rows,
            bounds: d.bounds().iter().map(|b| (b.lo, b.hi)).collect(),
        };
        self.lookup(key, || d.count_solutions())
    }

    fn lookup(&self, key: SolveKey, compute: impl FnOnce() -> u64) -> u64 {
        if let Some(&cached) = relock(&self.table).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        // Compute outside the lock: counting can be expensive, and other
        // threads should keep hitting the table meanwhile.
        let value = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        relock(&self.table).insert(key, value);
        value
    }

    /// Number of lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 when never consulted.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of distinct solves stored.
    pub fn len(&self) -> usize {
        relock(&self.table).len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all stored results (counters are kept).
    pub fn clear(&self) {
        relock(&self.table).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polytope_counts_are_cached_and_exact() {
        let memo = SolveMemo::new();
        let mut p = Polytope::new(2);
        p.le(vec![1, 1], 4);
        p.eq_to(vec![1, -1], 1);
        let bounds = [Interval::new(0, 10), Interval::new(0, 10)];
        let direct = p.count_points(&bounds);
        assert_eq!(memo.count_points(&p, &bounds), direct);
        assert_eq!(memo.count_points(&p, &bounds), direct);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        assert!((memo.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_inputs_do_not_collide() {
        let memo = SolveMemo::new();
        let mut p1 = Polytope::new(1);
        p1.le(vec![1], 3); // x <= 3
        let mut p2 = Polytope::new(1);
        p2.le(vec![1], 5); // x <= 5
        let bounds = [Interval::new(0, 10)];
        assert_eq!(memo.count_points(&p1, &bounds), 4);
        assert_eq!(memo.count_points(&p2, &bounds), 6);
        // Same polytope, different box.
        assert_eq!(memo.count_points(&p2, &[Interval::new(0, 4)]), 5);
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn diophantine_counts_are_cached() {
        let memo = SolveMemo::new();
        let d = BoundedDiophantine::new(
            vec![3, -1],
            1,
            vec![Interval::new(0, 7), Interval::new(0, 7)],
        );
        let direct = d.count_solutions();
        assert_eq!(memo.count_diophantine(&d), direct);
        assert_eq!(memo.count_diophantine(&d), direct);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
    }

    #[test]
    fn clear_keeps_counters() {
        let memo = SolveMemo::new();
        let p = Polytope::new(1);
        let bounds = [Interval::new(0, 2)];
        memo.count_points(&p, &bounds);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.misses(), 1);
    }
}
