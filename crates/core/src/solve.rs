//! The miss-finding algorithm (Figure 6), generalized to arbitrary
//! associativity (Section 4.2).
//!
//! For each reference, reuse vectors are processed in lexicographically
//! increasing order (most recent reuse first). Along each vector `r⃗`, every
//! still-indeterminate iteration point `i⃗` is classified:
//!
//! - **cold-CME solution** — the source access at `p⃗ = i⃗ − r⃗` is outside
//!   the iteration space or touches a different memory line: the point stays
//!   *indeterminate* and is passed to the next vector;
//! - **replacement miss along `r⃗`** — at least `k` distinct memory lines
//!   mapping to the victim's cache set are accessed in the reuse window
//!   `(p⃗ … i⃗)` (distinct lines ↔ distinct wraparound values `n` of
//!   Equation 4): a *definite miss*;
//! - otherwise a *definite hit* (fewer than `k` distinct conflicts since the
//!   most recent same-line access — the LRU stack-distance criterion).
//!
//! Points still indeterminate after the last vector are cold misses. The
//! `ε` option stops early once the indeterminate set is small enough,
//! trading precision for time exactly as in the paper (remaining points are
//! conservatively counted as misses, per line 20 of Figure 6).
//!
//! This module holds the options and result types every [`crate::Analyzer`]
//! speaks, and the **reference oracle**: [`reference_analysis`],
//! [`reference_analysis_pointwise`] and [`solve_reference`] run Figure 6
//! as one monolithic pass per reuse vector, uncached and ungoverned. No
//! analysis path calls them — every session, cached or not, runs the
//! staged engine. Tests, benches and the Figure 8 reproduction call them
//! by name, as the independent baseline the engine must match bit for bit.

use crate::pointset::PointSet;
use cme_cache::CacheConfig;
use cme_ir::{LoopNest, RefId};
use cme_math::Affine;
use cme_reuse::{reuse_vectors, ReuseOptions, ReuseVector};
use std::fmt;

/// Options controlling the miss-finding algorithm (used by every
/// [`crate::Analyzer`] entry point).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// How reuse vectors are generated.
    pub reuse: ReuseOptions,
    /// Stop refining a reference once its indeterminate set has at most this
    /// many points (the `ε` of Figure 6); remaining points are counted as
    /// misses. `0` gives the exact answer.
    pub epsilon: u64,
    /// Disable early-exit in window scans and record per-equation contention
    /// counts (the per-`ReplEqn` solution counts of Figure 8). Slower.
    pub exact_equation_counts: bool,
    /// Record the concrete miss points (replacement and cold) in the
    /// [`RefAnalysis`] — the raw material for interactive analysis
    /// (Section 5.2). Memory-heavy for big nests.
    pub collect_miss_points: bool,
}

impl AnalysisOptions {
    /// Starts a validating builder over the default options.
    ///
    /// ```
    /// use cme_core::AnalysisOptions;
    /// let opts = AnalysisOptions::builder()
    ///     .epsilon(1000)
    ///     .collect_miss_points(true)
    ///     .build();
    /// assert_eq!(opts.epsilon, 1000);
    /// ```
    pub fn builder() -> AnalysisOptionsBuilder {
        AnalysisOptionsBuilder {
            options: AnalysisOptions::default(),
        }
    }
}

/// Invalid [`AnalysisOptions`] combination, reported by
/// [`AnalysisOptionsBuilder::try_build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidOptions {
    reason: String,
}

impl fmt::Display for InvalidOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid analysis options: {}", self.reason)
    }
}

impl std::error::Error for InvalidOptions {}

/// Typed builder for [`AnalysisOptions`] that rejects inconsistent
/// combinations at construction time instead of letting them skew results
/// silently.
///
/// Current validation rule: a nonzero `ε` cannot be combined with
/// `exact_equation_counts` — the early stop skips the very window scans
/// whose per-equation contention counts the exact mode promises, so the
/// reported counts would be quietly incomplete.
#[derive(Debug, Clone)]
pub struct AnalysisOptionsBuilder {
    options: AnalysisOptions,
}

impl AnalysisOptionsBuilder {
    /// Sets the reuse-vector generation knobs.
    pub fn reuse(mut self, reuse: ReuseOptions) -> Self {
        self.options.reuse = reuse;
        self
    }

    /// Sets the `ε` early-stop threshold of Figure 6 (`0` = exact).
    pub fn epsilon(mut self, epsilon: u64) -> Self {
        self.options.epsilon = epsilon;
        self
    }

    /// Enables per-equation contention counting (disables scan early-exit).
    pub fn exact_equation_counts(mut self, on: bool) -> Self {
        self.options.exact_equation_counts = on;
        self
    }

    /// Records concrete miss points in the result.
    pub fn collect_miss_points(mut self, on: bool) -> Self {
        self.options.collect_miss_points = on;
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidOptions`] when `epsilon > 0` is combined with
    /// `exact_equation_counts`.
    pub fn try_build(self) -> Result<AnalysisOptions, InvalidOptions> {
        if self.options.epsilon > 0 && self.options.exact_equation_counts {
            return Err(InvalidOptions {
                reason: format!(
                    "epsilon = {} with exact_equation_counts: the early stop \
                     skips window scans, so per-equation contention counts \
                     would be incomplete",
                    self.options.epsilon
                ),
            });
        }
        Ok(self.options)
    }

    /// Validates and returns the options.
    ///
    /// # Panics
    ///
    /// Panics on the conditions [`AnalysisOptionsBuilder::try_build`]
    /// rejects.
    pub fn build(self) -> AnalysisOptions {
        match self.try_build() {
            Ok(o) => o,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Per-reuse-vector accounting — one column of Figure 8's table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorReport {
    /// The reuse vector investigated.
    pub reuse: ReuseVector,
    /// Indeterminate points entering this vector (`|C|`).
    pub examined: u64,
    /// Cold-CME solution points (stay indeterminate).
    pub cold_solutions: u64,
    /// Replacement misses found along this vector.
    pub replacement_misses: u64,
    /// Per-perpetrator contention counts — the number of distinct `(i⃗, n)`
    /// solutions of each replacement equation. Only populated when
    /// [`AnalysisOptions::exact_equation_counts`] is set.
    pub contentions_per_perpetrator: Vec<u64>,
    /// Definite (replacement) misses found so far, inclusive.
    pub cumulative_replacement_misses: u64,
}

/// Full analysis result for one reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefAnalysis {
    /// The analyzed reference.
    pub dest: RefId,
    /// Its display label.
    pub label: String,
    /// Per-vector progress, in processing order.
    pub vectors: Vec<VectorReport>,
    /// Cold misses (points indeterminate after the last vector, including
    /// any left by an `ε` early stop).
    pub cold_misses: u64,
    /// Replacement misses (definite misses found along some vector).
    pub replacement_misses: u64,
    /// Whether the `ε` threshold stopped the refinement early.
    pub early_stopped: bool,
    /// Replacement miss points, when requested via
    /// [`AnalysisOptions::collect_miss_points`] (paired with the reuse
    /// vector index they were found along).
    pub replacement_miss_points: Vec<(Vec<i64>, usize)>,
    /// Cold miss points, when requested.
    pub cold_miss_points: Vec<Vec<i64>>,
}

impl RefAnalysis {
    /// Total misses attributed to this reference.
    pub fn total_misses(&self) -> u64 {
        self.cold_misses + self.replacement_misses
    }

    /// Number of reuse vectors actually investigated.
    pub fn vectors_used(&self) -> usize {
        self.vectors.len()
    }
}

/// Full analysis result for a nest.
#[derive(Debug, Clone, PartialEq)]
pub struct NestAnalysis {
    /// Name of the analyzed nest.
    pub nest_name: String,
    /// Cache geometry analyzed against.
    pub cache: CacheConfig,
    /// Per-reference results, in statement order.
    pub per_ref: Vec<RefAnalysis>,
}

impl NestAnalysis {
    /// Total misses over all references.
    pub fn total_misses(&self) -> u64 {
        self.per_ref.iter().map(RefAnalysis::total_misses).sum()
    }

    /// Total cold misses.
    pub fn total_cold(&self) -> u64 {
        self.per_ref.iter().map(|r| r.cold_misses).sum()
    }

    /// Total replacement misses.
    pub fn total_replacement(&self) -> u64 {
        self.per_ref.iter().map(|r| r.replacement_misses).sum()
    }

    /// Largest number of reuse vectors used by any reference.
    pub fn max_vectors_used(&self) -> usize {
        self.per_ref
            .iter()
            .map(RefAnalysis::vectors_used)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for NestAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CME analysis of `{}` on {}:", self.nest_name, self.cache)?;
        for r in &self.per_ref {
            writeln!(
                f,
                "  {:>12}: {} cold + {} replacement = {} misses ({} reuse vectors)",
                r.label,
                r.cold_misses,
                r.replacement_misses,
                r.total_misses(),
                r.vectors_used()
            )?;
        }
        write!(
            f,
            "  total: {} cold + {} replacement = {} misses",
            self.total_cold(),
            self.total_replacement(),
            self.total_misses()
        )
    }
}

/// Window scanner: accumulates the distinct conflicting memory lines seen in
/// one reuse window (the semantic evaluation of the replacement equations).
/// Shared between the scan helpers below and the engine's cascade stage
/// ([`crate::engine`]).
pub(crate) struct Scanner<'a> {
    cache: &'a CacheConfig,
    pub(crate) addrs: &'a [Affine],
    k: usize,
    exact: bool,
    dest_set: i64,
    dest_line: i64,
    /// Distinct conflicting lines across all perpetrators.
    pub(crate) distinct: Vec<i64>,
    /// Distinct conflicting lines per perpetrator (exact mode only).
    pub(crate) per_perp: Vec<Vec<i64>>,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(cache: &'a CacheConfig, addrs: &'a [Affine], k: usize, exact: bool) -> Self {
        Scanner {
            cache,
            addrs,
            k,
            exact,
            dest_set: 0,
            dest_line: 0,
            distinct: Vec::with_capacity(k + 1),
            per_perp: vec![Vec::new(); addrs.len()],
        }
    }

    pub(crate) fn reset(&mut self, dest_set: i64, dest_line: i64) {
        self.dest_set = dest_set;
        self.dest_line = dest_line;
        self.distinct.clear();
        if self.exact {
            for v in &mut self.per_perp {
                v.clear();
            }
        }
    }

    /// Records a conflicting line hit by perpetrator `s`. Returns `false`
    /// when the scan may stop early (enough conflicts for a miss, fast
    /// mode).
    fn record(&mut self, s: usize, line: i64) -> bool {
        if self.exact && !self.per_perp[s].contains(&line) {
            self.per_perp[s].push(line);
        }
        if !self.distinct.contains(&line) {
            self.distinct.push(line);
            if !self.exact && self.distinct.len() >= self.k {
                return false;
            }
        }
        true
    }

    /// Processes perpetrator `s`'s access at address `addr`.
    fn check_addr(&mut self, s: usize, addr: i64) -> bool {
        if self.cache.cache_set(addr) == self.dest_set {
            let line = self.cache.memory_line(addr);
            if line != self.dest_line {
                return self.record(s, line);
            }
        }
        true
    }

    /// Processes perpetrator `s`'s access at point `q`. Returns `false` when
    /// the scan may stop early (enough conflicts for a miss, fast mode).
    pub(crate) fn check(&mut self, q: &[i64], s: usize) -> bool {
        let addr = self.addrs[s].eval(q);
        self.check_addr(s, addr)
    }

    /// Processes a whole arithmetic progression of accesses by perpetrator
    /// `s`: addresses `base, base+stride, …` (`count` of them) — one
    /// innermost-loop row. Only the accesses mapping to the victim's cache
    /// set can matter, and those are found directly:
    ///
    /// - `|stride| <= Ls`: the progression touches every memory line in its
    ///   address range, so the conflicting lines are simply the lines
    ///   `≡ dest_set (mod Ns)` within the range;
    /// - `|stride| > Ls`: an access conflicts iff its address falls in the
    ///   window `[dest_set·Ls, (dest_set+1)·Ls) (mod Cs/k)` — a linear
    ///   congruence solved with the extended GCD.
    ///
    /// Equivalent to `count` calls of [`Scanner::check_addr`], in time
    /// proportional to the number of *conflicting* accesses.
    fn check_row(&mut self, s: usize, base: i64, stride: i64, count: i64) -> bool {
        if count <= 0 {
            return true;
        }
        if stride == 0 || count == 1 {
            return self.check_addr(s, base);
        }
        // Normalize to a positive stride (distinct-line sets are
        // order-insensitive).
        let (base, stride) = if stride < 0 {
            (base + stride * (count - 1), -stride)
        } else {
            (base, stride)
        };
        let ls = self.cache.line_elems();
        let ns = self.cache.num_sets();
        if stride <= ls {
            // Contiguous line coverage.
            let lmin = cme_math::gcd::floor_div(base, ls);
            let lmax = cme_math::gcd::floor_div(base + stride * (count - 1), ls);
            let mut line = lmin + cme_math::gcd::modulo(self.dest_set - lmin, ns);
            while line <= lmax {
                if line != self.dest_line && !self.record(s, line) {
                    return false;
                }
                line += ns;
            }
            return true;
        }
        // Sparse case: solve stride·q ≡ r − base (mod M) for r in the
        // victim set's address window within one way span M = Ns·Ls.
        let m = self.cache.way_span_elems();
        let g = cme_math::gcd::gcd(stride, m);
        let m1 = m / g;
        let s1 = stride / g;
        // Inverse of s1 modulo m1 (coprime by construction).
        let inv = if m1 == 1 {
            0
        } else {
            let (_, a, _) = cme_math::gcd::extended_gcd(cme_math::gcd::modulo(s1, m1), m1);
            cme_math::gcd::modulo(a, m1)
        };
        let w0 = self.dest_set * ls;
        // Residues in [w0, w0+Ls) compatible with base (mod g).
        let mut r = w0 + cme_math::gcd::modulo(base - w0, g);
        while r < w0 + ls {
            let rhs = cme_math::gcd::modulo(r - base, m) / g;
            let q0 = cme_math::gcd::modulo(rhs * inv, m1.max(1));
            let mut q = q0;
            while q < count {
                let addr = base + stride * q;
                debug_assert_eq!(self.cache.cache_set(addr), self.dest_set);
                let line = self.cache.memory_line(addr);
                if line != self.dest_line && !self.record(s, line) {
                    return false;
                }
                q += m1.max(1);
            }
            r += g;
        }
        true
    }
}

/// Naive interior scan: visits every point and every reference — the
/// independent check of the row-summarized scanner
/// ([`reference_analysis_pointwise`]).
pub(crate) fn scan_interior_pointwise(
    scanner: &mut Scanner<'_>,
    space: &cme_ir::IterationSpace<'_>,
    p: &[i64],
    i: &[i64],
) -> bool {
    let nrefs = scanner.addrs.len();
    let mut go = true;
    space.for_each_between(p, i, |q| {
        for s in 0..nrefs {
            if !scanner.check(q, s) {
                go = false;
                return false;
            }
        }
        true
    });
    go
}

/// Scans the interior of a reuse window — every iteration point strictly
/// between `p` and `i` — row by row: full innermost rows are handed to
/// [`Scanner::check_row`] (O(conflicts) instead of O(points)), partial rows
/// at the two ends are clipped. Returns `false` on early exit.
pub(crate) fn scan_interior(
    scanner: &mut Scanner<'_>,
    space: &cme_ir::IterationSpace<'_>,
    p: &[i64],
    i: &[i64],
) -> bool {
    let n = p.len();
    let inner = n - 1;
    let nrefs = scanner.addrs.len();
    let mut point = vec![0i64; n];
    let scan_row =
        |scanner: &mut Scanner<'_>, point: &mut [i64], prefix: &[i64], lo: i64, hi: i64| -> bool {
            if lo > hi {
                return true;
            }
            point[..inner].copy_from_slice(prefix);
            point[inner] = lo;
            for s in 0..nrefs {
                let base = scanner.addrs[s].eval(point);
                let stride = scanner.addrs[s].coeff(inner);
                if !scanner.check_row(s, base, stride, hi - lo + 1) {
                    return false;
                }
            }
            true
        };
    if p[..inner] == i[..inner] {
        return scan_row(scanner, &mut point, &p[..inner], p[inner] + 1, i[inner] - 1);
    }
    // Tail of p's row.
    if let Some((_, phi)) = space.innermost_bounds(&p[..inner]) {
        if !scan_row(scanner, &mut point, &p[..inner], p[inner] + 1, phi) {
            return false;
        }
    }
    // Full rows strictly between the two prefixes.
    let mut prefix = p[..inner].to_vec();
    while let Some(next) = space.prefix_successor(&prefix) {
        if cme_math::lexi::lex_cmp(&next, &i[..inner]) != std::cmp::Ordering::Less {
            break;
        }
        if let Some((lo, hi)) = space.innermost_bounds(&next) {
            if !scan_row(scanner, &mut point, &next, lo, hi) {
                return false;
            }
        }
        prefix = next;
    }
    // Head of i's row.
    if let Some((ilo, _)) = space.innermost_bounds(&i[..inner]) {
        if !scan_row(scanner, &mut point, &i[..inner], ilo, i[inner] - 1) {
            return false;
        }
    }
    true
}

/// Reference oracle for one reference with an explicit reuse-vector list
/// (already in processing order) — e.g. the paper's three hand-picked
/// vectors of Figure 8. Generated vectors are what
/// [`reference_analysis`] uses instead.
pub fn solve_reference(
    nest: &LoopNest,
    cache: CacheConfig,
    dest: RefId,
    rvs: &[ReuseVector],
    options: &AnalysisOptions,
) -> RefAnalysis {
    solve_reference_with(nest, cache, dest, rvs, options, false)
}

/// Reference oracle for a whole nest: generates each reference's reuse
/// vectors (Figure 3) and runs the miss-finding algorithm (Figure 6) as
/// one monolithic pass per vector. Every [`crate::Analyzer`] result must
/// equal this one bit for bit.
pub fn reference_analysis(
    nest: &LoopNest,
    cache: CacheConfig,
    options: &AnalysisOptions,
) -> NestAnalysis {
    reference_analysis_with(nest, cache, options, false)
}

/// [`reference_analysis`] with every reuse-window interior walked point by
/// point instead of row-summarized: O(points·refs) per window instead of
/// O(conflicts) per innermost row. The two must agree exactly, so this is
/// the row scanner's independent check.
pub fn reference_analysis_pointwise(
    nest: &LoopNest,
    cache: CacheConfig,
    options: &AnalysisOptions,
) -> NestAnalysis {
    reference_analysis_with(nest, cache, options, true)
}

fn reference_analysis_with(
    nest: &LoopNest,
    cache: CacheConfig,
    options: &AnalysisOptions,
    pointwise: bool,
) -> NestAnalysis {
    let per_ref = nest
        .references()
        .iter()
        .map(|r| {
            let rvs = reuse_vectors(nest, &cache, r.id(), &options.reuse);
            solve_reference_with(nest, cache, r.id(), &rvs, options, pointwise)
        })
        .collect();
    NestAnalysis {
        nest_name: nest.name().to_string(),
        cache,
        per_ref,
    }
}

fn solve_reference_with(
    nest: &LoopNest,
    cache: CacheConfig,
    dest: RefId,
    rvs: &[ReuseVector],
    options: &AnalysisOptions,
    pointwise: bool,
) -> RefAnalysis {
    let depth = nest.depth();
    let space = nest.space();
    let k = cache.assoc() as usize;
    let nrefs = nest.references().len();
    let addrs: Vec<Affine> = nest
        .references()
        .iter()
        .map(|r| nest.address_affine(r.id()))
        .collect();
    let dest_idx = dest.index();
    let dest_addr = addrs[dest_idx].clone();

    let mut vectors: Vec<VectorReport> = Vec::new();
    let mut replacement_misses = 0u64;
    let mut c: Option<PointSet> = None;
    let mut early_stopped = false;
    let mut repl_points: Vec<(Vec<i64>, usize)> = Vec::new();

    for (rv_index, rv) in rvs.iter().enumerate() {
        let examined = match &c {
            Some(set) => set.len(),
            None => space.count(),
        };
        if examined <= options.epsilon {
            early_stopped = c.is_some() && examined > 0;
            break;
        }
        let mut next = PointSet::new(depth);
        let mut cold_solutions = 0u64;
        let mut repl_here = 0u64;
        let mut eqn = vec![0u64; nrefs];
        let mut scanner = Scanner::new(&cache, &addrs, k, options.exact_equation_counts);
        let r = rv.vector();
        let src_idx = rv.source().index();
        let src_addr = addrs[src_idx].clone();
        let intra = rv.is_intra_iteration();
        let mut p = vec![0i64; depth];

        let mut handle = |i: &[i64]| {
            for l in 0..depth {
                p[l] = i[l] - r[l];
            }
            let a_dest = dest_addr.eval(i);
            let dest_line = cache.memory_line(a_dest);
            let cold = (!intra && !space.contains(&p))
                || cache.memory_line(src_addr.eval(&p)) != dest_line;
            if cold {
                next.push(i);
                cold_solutions += 1;
                return;
            }
            // Scan the reuse window for distinct same-set conflicts.
            scanner.reset(cache.cache_set(a_dest), dest_line);
            let mut go = true;
            if intra {
                for s in (src_idx + 1)..dest_idx {
                    if !scanner.check(i, s) {
                        break;
                    }
                }
                let _ = go;
            } else {
                // Tail of the source iteration (statements after the source).
                for s in (src_idx + 1)..nrefs {
                    if !scanner.check(&p, s) {
                        go = false;
                        break;
                    }
                }
                // Whole iterations strictly between, scanned row by row
                // (or point by point for the pointwise oracle).
                if go {
                    go = if pointwise {
                        scan_interior_pointwise(&mut scanner, &space, &p, i)
                    } else {
                        scan_interior(&mut scanner, &space, &p, i)
                    };
                }
                // Head of the destination iteration (statements before dest).
                if go {
                    for s in 0..dest_idx {
                        if !scanner.check(i, s) {
                            break;
                        }
                    }
                }
            }
            if options.exact_equation_counts {
                for (s, v) in scanner.per_perp.iter().enumerate() {
                    eqn[s] += v.len() as u64;
                }
            }
            if scanner.distinct.len() >= k {
                repl_here += 1;
                if options.collect_miss_points {
                    repl_points.push((i.to_vec(), rv_index));
                }
            }
        };

        match &c {
            None => {
                let mut sp = nest.space();
                while let Some(pt) = sp.next_point() {
                    handle(&pt);
                }
            }
            Some(set) => {
                for pt in set {
                    handle(pt);
                }
            }
        }
        replacement_misses += repl_here;
        vectors.push(VectorReport {
            reuse: rv.clone(),
            examined,
            cold_solutions,
            replacement_misses: repl_here,
            contentions_per_perpetrator: eqn,
            cumulative_replacement_misses: replacement_misses,
        });
        c = Some(next);
    }

    let (cold_misses, cold_points) = match c {
        Some(set) => (
            set.len(),
            if options.collect_miss_points {
                set.iter().map(|p| p.to_vec()).collect()
            } else {
                Vec::new()
            },
        ),
        None => {
            // No reuse vectors: every access is a miss.
            let mut pts = Vec::new();
            if options.collect_miss_points {
                let mut sp = nest.space();
                while let Some(p) = sp.next_point() {
                    pts.push(p);
                }
            }
            (space.count(), pts)
        }
    };
    RefAnalysis {
        dest,
        label: nest.reference(dest).label().to_string(),
        vectors,
        cold_misses,
        replacement_misses,
        early_stopped,
        replacement_miss_points: repl_points,
        cold_miss_points: cold_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::simulate_nest;
    use cme_ir::{AccessKind, NestBuilder};

    fn table1_cache() -> CacheConfig {
        CacheConfig::new(8192, 1, 32, 4).unwrap()
    }

    fn matmul(n: i64, bz: i64, bx: i64, by: i64) -> LoopNest {
        let mut b = NestBuilder::new();
        b.name("mmult");
        b.ct_loop("i", 1, n).ct_loop("k", 1, n).ct_loop("j", 1, n);
        let z = b.array("Z", &[n, n], bz);
        let x = b.array("X", &[n, n], bx);
        let y = b.array("Y", &[n, n], by);
        b.reference(z, AccessKind::Read, &[("j", 0), ("i", 0)]);
        b.reference(x, AccessKind::Read, &[("k", 0), ("i", 0)]);
        b.reference(y, AccessKind::Read, &[("j", 0), ("k", 0)]);
        b.reference(z, AccessKind::Write, &[("j", 0), ("i", 0)]);
        b.build().unwrap()
    }

    #[test]
    fn unit_stride_sweep_exact() {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 256);
        let a = b.array("A", &[256], 0);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        let nest = b.build().unwrap();
        let analysis = reference_analysis(&nest, table1_cache(), &AnalysisOptions::default());
        assert_eq!(analysis.total_misses(), 32);
        assert_eq!(analysis.total_cold(), 32);
        assert_eq!(analysis.total_replacement(), 0);
    }

    #[test]
    fn matches_simulator_on_small_matmul_direct_mapped() {
        let nest = matmul(16, 4192, 2136, 96);
        let cache = table1_cache();
        let analysis = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let sim = simulate_nest(&nest, cache);
        assert_eq!(
            analysis.total_misses(),
            sim.total().misses(),
            "CME: {analysis}\nSIM: {}",
            sim
        );
        // Per-reference totals should match too.
        for (ra, rs) in analysis.per_ref.iter().zip(&sim.per_ref) {
            assert_eq!(ra.total_misses(), rs.misses(), "ref {}", ra.label);
        }
    }

    /// Per-(reference, point) miss sets from the LRU simulator.
    fn sim_miss_points(
        nest: &LoopNest,
        cache: CacheConfig,
    ) -> Vec<std::collections::HashSet<Vec<i64>>> {
        let mut out = vec![std::collections::HashSet::new(); nest.references().len()];
        cme_cache::simulate_nest_outcomes(nest, cache, |r, p, outcome| {
            if outcome.is_miss() {
                out[r.index()].insert(p.to_vec());
            }
        });
        out
    }

    /// Point-level diagnosis helper: asserts the CME miss set equals the
    /// simulator's miss set for every reference, printing any disagreeing
    /// points (with the reuse vector blamed) on failure.
    fn assert_pointwise_exact(nest: &LoopNest, cache: CacheConfig) {
        let sim_points = sim_miss_points(nest, cache);
        let opts = AnalysisOptions {
            collect_miss_points: true,
            ..AnalysisOptions::default()
        };
        let analysis = reference_analysis(nest, cache, &opts);
        for (r, ra) in analysis.per_ref.iter().enumerate() {
            let mut cme_points: std::collections::HashSet<Vec<i64>> =
                ra.cold_miss_points.iter().cloned().collect();
            for (p, _) in &ra.replacement_miss_points {
                cme_points.insert(p.clone());
            }
            let extra: Vec<_> = cme_points.difference(&sim_points[r]).collect();
            let missing: Vec<_> = sim_points[r].difference(&cme_points).collect();
            assert!(
                extra.is_empty() && missing.is_empty(),
                "ref {} ({}): {} extra CME points (e.g. {:?}), {} missing (e.g. {:?}); vectors: {:?}",
                r,
                ra.label,
                extra.len(),
                extra.iter().take(5).collect::<Vec<_>>(),
                missing.len(),
                missing.iter().take(5).collect::<Vec<_>>(),
                ra.replacement_miss_points
                    .iter()
                    .filter(|(p, _)| extra.contains(&p))
                    .take(5)
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn pointwise_exact_on_two_way_matmul() {
        let nest = matmul(16, 4192, 2136, 96);
        let cache = CacheConfig::new(2048, 2, 32, 4).unwrap();
        assert_pointwise_exact(&nest, cache);
    }

    #[test]
    fn matches_simulator_on_small_matmul_two_way() {
        let nest = matmul(16, 4192, 2136, 96);
        let cache = CacheConfig::new(2048, 2, 32, 4).unwrap();
        let analysis = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let sim = simulate_nest(&nest, cache);
        assert_eq!(analysis.total_misses(), sim.total().misses());
    }

    #[test]
    fn matches_simulator_on_conflicting_strided_pair() {
        // Two arrays exactly one cache apart: heavy ping-pong conflicts.
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 64);
        let a = b.array("A", &[64], 0);
        let c = b.array("C", &[64], 2048);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.reference(c, AccessKind::Write, &[("i", 0)]);
        let nest = b.build().unwrap();
        let cache = table1_cache();
        let analysis = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let sim = simulate_nest(&nest, cache);
        assert_eq!(analysis.total_misses(), sim.total().misses());
        assert_eq!(analysis.total_replacement(), sim.total().replacement);
    }

    #[test]
    fn associativity_two_absorbs_pairwise_conflict() {
        // Same layout as above but a 2-way cache of the same set count:
        // the pair fits, so only cold misses remain.
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 64);
        let a = b.array("A", &[64], 0);
        let c = b.array("C", &[64], 2048);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.reference(c, AccessKind::Write, &[("i", 0)]);
        let nest = b.build().unwrap();
        let cache = CacheConfig::new(16384, 2, 32, 4).unwrap(); // 256 sets, 2-way
        let analysis = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let sim = simulate_nest(&nest, cache);
        assert_eq!(analysis.total_replacement(), 0);
        assert_eq!(analysis.total_misses(), sim.total().misses());
    }

    #[test]
    fn epsilon_stops_early_and_overcounts_conservatively() {
        let nest = matmul(8, 0, 4096, 8192);
        let cache = table1_cache();
        let exact = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let loose = reference_analysis(
            &nest,
            cache,
            &AnalysisOptions {
                epsilon: 1 << 30,
                ..AnalysisOptions::default()
            },
        );
        // With a huge epsilon nothing is refined: every point is a miss.
        assert_eq!(loose.total_misses(), nest.access_count());
        assert!(loose.total_misses() >= exact.total_misses());
    }

    #[test]
    fn per_vector_reports_are_consistent() {
        let nest = matmul(8, 0, 4096, 8192);
        let cache = table1_cache();
        let analysis = reference_analysis(
            &nest,
            cache,
            &AnalysisOptions {
                exact_equation_counts: true,
                ..AnalysisOptions::default()
            },
        );
        for r in &analysis.per_ref {
            let mut prev_examined = None;
            let mut cum = 0;
            for v in &r.vectors {
                // Indeterminate sets shrink monotonically.
                if let Some(pe) = prev_examined {
                    assert!(v.examined <= pe);
                }
                assert!(v.examined - v.cold_solutions >= v.replacement_misses);
                cum += v.replacement_misses;
                assert_eq!(v.cumulative_replacement_misses, cum);
                prev_examined = Some(v.cold_solutions);
                // In exact mode the union of per-perpetrator contentions
                // bounds the miss count from above (k = 1 here).
                let total_contentions: u64 = v.contentions_per_perpetrator.iter().sum();
                assert!(total_contentions >= v.replacement_misses);
            }
            assert_eq!(r.replacement_misses, cum);
        }
        // Exact-count mode must not change the verdicts.
        let fast = reference_analysis(&nest, cache, &AnalysisOptions::default());
        assert_eq!(fast.total_misses(), analysis.total_misses());
    }

    #[test]
    fn no_reuse_vectors_means_every_access_misses() {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 8);
        let a = b.array("A", &[64, 8], 0);
        // Stride-64 accesses: no spatial or temporal reuse at 8-elem lines.
        b.reference(a, AccessKind::Read, &[("i", 0), ("i", 0)]);
        let nest = b.build().unwrap();
        let cache = table1_cache();
        let analysis = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let sim = simulate_nest(&nest, cache);
        assert_eq!(analysis.total_misses(), 8);
        assert_eq!(sim.total().misses(), 8);
    }

    #[test]
    fn parallel_analysis_is_bit_identical() {
        let nest = matmul(12, 0, 144, 288);
        let cache = table1_cache();
        let opts = AnalysisOptions {
            exact_equation_counts: true,
            collect_miss_points: true,
            ..AnalysisOptions::default()
        };
        let serial = reference_analysis(&nest, cache, &opts);
        let parallel = crate::Analyzer::new(cache)
            .options(opts)
            .threads(0)
            .analyze(&nest);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn options_builder_validates() {
        let ok = AnalysisOptions::builder()
            .epsilon(100)
            .collect_miss_points(true)
            .try_build()
            .unwrap();
        assert_eq!(ok.epsilon, 100);
        assert!(ok.collect_miss_points);
        let exact = AnalysisOptions::builder()
            .exact_equation_counts(true)
            .build();
        assert!(exact.exact_equation_counts);
        let err = AnalysisOptions::builder()
            .epsilon(1)
            .exact_equation_counts(true)
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("epsilon"));
    }

    #[test]
    #[should_panic(expected = "invalid analysis options")]
    fn options_builder_build_panics_on_conflict() {
        let _ = AnalysisOptions::builder()
            .epsilon(5)
            .exact_equation_counts(true)
            .build();
    }

    #[test]
    fn display_summarizes() {
        let nest = matmul(4, 0, 64, 128);
        let analysis = reference_analysis(&nest, table1_cache(), &AnalysisOptions::default());
        let s = analysis.to_string();
        assert!(s.contains("mmult"));
        assert!(s.contains("total:"));
    }
}
