//! Flat and run-compressed storage for large sets of iteration points.
//!
//! The miss-finding algorithm carries a set `C` of indeterminate iteration
//! points between reuse vectors. For big nests (matmul at N = 256 has 16.7M
//! iteration points, 2.1M of which survive the first vector — Figure 8)
//! per-point `Vec`s would be ruinous, so two representations exist:
//!
//! - [`PointSet`] stores every point contiguously — simple, general,
//!   O(points × depth) memory;
//! - [`RunSet`] exploits that survivor sets are unions of long innermost
//!   runs: it stores maximal `[lo, hi]` intervals of the innermost index
//!   per outer-index prefix, so a dense survivor set costs O(runs) instead
//!   of O(points). The cascade classifies and splits runs wholesale (see
//!   `docs/PERF.md`) and only enumerates points where a verdict genuinely
//!   needs one.

/// A set of equal-dimension iteration points stored as one flat buffer.
///
/// # Examples
///
/// ```
/// use cme_core::PointSet;
/// let mut s = PointSet::new(3);
/// s.push(&[1, 2, 3]);
/// s.push(&[1, 2, 4]);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().last().unwrap(), &[1, 2, 4]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointSet {
    depth: usize,
    data: Vec<i64>,
}

impl PointSet {
    /// Creates an empty set of `depth`-dimensional points.
    pub fn new(depth: usize) -> Self {
        PointSet {
            depth,
            data: Vec::new(),
        }
    }

    /// Point dimensionality.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of points stored.
    pub fn len(&self) -> u64 {
        self.data.len().checked_div(self.depth).unwrap_or(0) as u64
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != depth`.
    pub fn push(&mut self, point: &[i64]) {
        assert_eq!(point.len(), self.depth, "point dimension mismatch");
        self.data.extend_from_slice(point);
    }

    /// Iterates the points as slices, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[i64]> {
        self.data.chunks_exact(self.depth)
    }

    /// The `idx`-th point, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics when `idx >= len()`.
    pub fn point(&self, idx: usize) -> &[i64] {
        &self.data[idx * self.depth..(idx + 1) * self.depth]
    }
}

impl<'a> IntoIterator for &'a PointSet {
    type Item = &'a [i64];
    type IntoIter = std::slice::ChunksExact<'a, i64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.depth)
    }
}

/// One maximal innermost run of a [`RunSet`]: the points
/// `(prefix, lo), (prefix, lo+1), …, (prefix, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run<'a> {
    /// The shared outer-index prefix (`depth − 1` coordinates).
    pub prefix: &'a [i64],
    /// First innermost index of the run (inclusive).
    pub lo: i64,
    /// Last innermost index of the run (inclusive).
    pub hi: i64,
    /// Index of the run's first point in the set's lexicographic order.
    pub start: u64,
}

impl Run<'_> {
    /// Number of points in the run.
    pub fn len(&self) -> u64 {
        (self.hi - self.lo + 1) as u64
    }

    /// Whether the run is empty (never true for stored runs).
    pub fn is_empty(&self) -> bool {
        self.hi < self.lo
    }
}

/// A set of equal-dimension iteration points compressed into maximal
/// innermost-axis runs, in lexicographic order.
///
/// Points must be appended in strictly increasing lexicographic order
/// (the order every cascade produces them in); adjacent points sharing an
/// outer prefix collapse into one `[lo, hi]` run.
///
/// # Examples
///
/// ```
/// use cme_core::RunSet;
/// let mut s = RunSet::new(2);
/// s.push(&[1, 2]);
/// s.push(&[1, 3]);
/// s.push(&[1, 7]);
/// s.push(&[2, 1]);
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.run_count(), 3); // [1,(2..3)], [1,(7..7)], [2,(1..1)]
/// assert_eq!(s.point(2), vec![1, 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSet {
    depth: usize,
    /// Deduplicated consecutive prefixes, flat, `depth − 1` elems each.
    prefixes: Vec<i64>,
    /// Per run: index of its prefix (into the deduplicated prefix list).
    run_prefix: Vec<u32>,
    /// Per run: inclusive `[lo, hi]` innermost interval.
    run_bounds: Vec<(i64, i64)>,
    /// Per run: lexicographic index of its first point.
    run_start: Vec<u64>,
    len: u64,
}

impl RunSet {
    /// Creates an empty run set of `depth`-dimensional points (`depth ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics when `depth == 0` — a zero-dimensional point has no innermost
    /// axis to compress along.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "RunSet requires depth >= 1");
        RunSet {
            depth,
            prefixes: Vec::new(),
            run_prefix: Vec::new(),
            run_bounds: Vec::new(),
            run_start: Vec::new(),
            len: 0,
        }
    }

    /// Point dimensionality.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of points stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of maximal runs.
    pub fn run_count(&self) -> usize {
        self.run_bounds.len()
    }

    /// The `ri`-th run, in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics when `ri >= run_count()`.
    pub fn run(&self, ri: usize) -> Run<'_> {
        let pw = self.depth - 1;
        let pi = self.run_prefix[ri] as usize;
        let (lo, hi) = self.run_bounds[ri];
        Run {
            prefix: &self.prefixes[pi * pw..(pi + 1) * pw],
            lo,
            hi,
            start: self.run_start[ri],
        }
    }

    /// Appends a whole run `(prefix, lo..=hi)`; empty intervals are
    /// ignored. Must not precede the current last point lexicographically;
    /// a run contiguous with the last one is merged into it.
    ///
    /// # Panics
    ///
    /// Panics on prefix dimension mismatch, and (in debug builds) on
    /// out-of-order appends.
    pub fn push_run(&mut self, prefix: &[i64], lo: i64, hi: i64) {
        let pw = self.depth - 1;
        assert_eq!(prefix.len(), pw, "prefix dimension mismatch");
        if lo > hi {
            return;
        }
        let count = (hi - lo + 1) as u64;
        if let Some(last) = self.run_bounds.last_mut() {
            let lp = self.run_prefix.len() - 1;
            let lpi = self.run_prefix[lp] as usize;
            let last_prefix = &self.prefixes[lpi * pw..(lpi + 1) * pw];
            if last_prefix == prefix {
                debug_assert!(lo > last.1, "runs must be appended in lex order");
                if lo == last.1 + 1 {
                    last.1 = hi;
                    self.len += count;
                    return;
                }
            } else {
                debug_assert!(
                    cme_math::lexi::lex_cmp(last_prefix, prefix) == std::cmp::Ordering::Less,
                    "prefixes must be appended in lex order"
                );
            }
        }
        // Reuse the previous prefix entry when unchanged.
        let pi = if pw == 0 {
            0 // depth-1 points all share the empty prefix
        } else {
            match self.run_prefix.last() {
                Some(&p) if &self.prefixes[p as usize * pw..(p as usize + 1) * pw] == prefix => p,
                _ => {
                    self.prefixes.extend_from_slice(prefix);
                    (self.prefixes.len() / pw) as u32 - 1
                }
            }
        };
        self.run_prefix.push(pi);
        self.run_bounds.push((lo, hi));
        self.run_start.push(self.len);
        self.len += count;
    }

    /// Appends one point (in lexicographic order).
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != depth`.
    pub fn push(&mut self, point: &[i64]) {
        assert_eq!(point.len(), self.depth, "point dimension mismatch");
        let inner = point[self.depth - 1];
        self.push_run(&point[..self.depth - 1], inner, inner);
    }

    /// Visits every point in lexicographic order. The slice passed to
    /// `visit` is a scratch buffer valid only for the duration of the call.
    pub fn for_each(&self, mut visit: impl FnMut(&[i64])) {
        let mut buf = vec![0i64; self.depth];
        let pw = self.depth - 1;
        for ri in 0..self.run_bounds.len() {
            let pi = self.run_prefix[ri] as usize;
            buf[..pw].copy_from_slice(&self.prefixes[pi * pw..(pi + 1) * pw]);
            let (lo, hi) = self.run_bounds[ri];
            for v in lo..=hi {
                buf[pw] = v;
                visit(&buf);
            }
        }
    }

    /// The `idx`-th point in lexicographic order (O(log runs)).
    ///
    /// # Panics
    ///
    /// Panics when `idx >= len()`.
    pub fn point(&self, idx: u64) -> Vec<i64> {
        assert!(idx < self.len, "point index out of range");
        let ri = match self.run_start.binary_search(&idx) {
            Ok(ri) => ri,
            Err(ins) => ins - 1,
        };
        let r = self.run(ri);
        let mut p = Vec::with_capacity(self.depth);
        p.extend_from_slice(r.prefix);
        p.push(r.lo + (idx - r.start) as i64);
        p
    }

    /// Expands into an equivalent [`PointSet`] (same points, same order).
    pub fn to_point_set(&self) -> PointSet {
        let mut out = PointSet::new(self.depth);
        self.for_each(|p| out.push(p));
        out
    }

    /// Compresses a [`PointSet`] whose points are in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics when `ps.depth() == 0`, and (in debug builds) when the points
    /// are out of order.
    pub fn from_point_set(ps: &PointSet) -> Self {
        let mut out = RunSet::new(ps.depth());
        for p in ps {
            out.push(p);
        }
        out
    }

    /// Sum of `(hi − lo + 1)` over runs — always equals `len()`; exposed so
    /// accounting code can cross-check compression invariants cheaply.
    pub fn recount(&self) -> u64 {
        self.run_bounds
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1) as u64)
            .sum()
    }
}

/// Sets bits `lo..=hi` of a little-endian word array, whole words at a
/// time for the interior.
#[inline]
fn set_bit_range(words: &mut [u64], lo: usize, hi: usize) {
    let (wl, wh) = (lo / 64, hi / 64);
    let ml = !0u64 << (lo % 64);
    let mh = !0u64 >> (63 - (hi % 64));
    if wl == wh {
        words[wl] |= ml & mh;
    } else {
        words[wl] |= ml;
        for w in &mut words[wl + 1..wh] {
            *w = !0;
        }
        words[wh] |= mh;
    }
}

/// A set of iteration points stored as per-row bitmaps: one directory
/// entry per outer-index prefix (row), innermost membership packed 64
/// points per word.
///
/// The write contract matches [`RunSet::push_run`] — strictly increasing
/// lexicographic appends — and decoding a row's words yields exactly the
/// maximal runs the run-compressed form would store, in the same order
/// with the same lexicographic `start` indices: the two representations
/// are interchangeable bit for bit (see [`SurvivorSet`]).
///
/// Dense packing wins when survivor sets carry many short runs per row
/// (alternating verdict patterns with period ~`Ls`, strided single-point
/// survivors): a run costs ~32 bytes of directory in [`RunSet`] but one
/// bit per point here, and range pushes touch 64 points per word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseSet {
    depth: usize,
    /// Row prefixes, flat, `depth − 1` elems each.
    prefixes: Vec<i64>,
    /// Per row: the innermost index bit 0 of its first word stands for.
    row_base: Vec<i64>,
    /// Per row: start of its words in `words` (a row's words end where
    /// the next row's begin; the last row owns the tail).
    row_words: Vec<u32>,
    /// Per row: lexicographic index of its first point.
    row_start: Vec<u64>,
    words: Vec<u64>,
    len: u64,
    /// Innermost index of the most recent push (order checking).
    last_hi: i64,
}

impl DenseSet {
    /// Creates an empty dense set of `depth`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics when `depth == 0` — a zero-dimensional point has no
    /// innermost axis to pack along.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "DenseSet requires depth >= 1");
        DenseSet {
            depth,
            prefixes: Vec::new(),
            row_base: Vec::new(),
            row_words: Vec::new(),
            row_start: Vec::new(),
            words: Vec::new(),
            len: 0,
            last_hi: 0,
        }
    }

    /// Point dimensionality.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of points stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of rows (distinct outer-index prefixes).
    pub fn rows(&self) -> usize {
        self.row_base.len()
    }

    /// The word range backing row `ri`.
    #[inline]
    fn row_word_range(&self, ri: usize) -> (usize, usize) {
        let ws = self.row_words[ri] as usize;
        let we = self
            .row_words
            .get(ri + 1)
            .map_or(self.words.len(), |&w| w as usize);
        (ws, we)
    }

    /// Appends a whole run `(prefix, lo..=hi)`; empty intervals are
    /// ignored. Same ordering contract as [`RunSet::push_run`].
    ///
    /// # Panics
    ///
    /// Panics on prefix dimension mismatch, and (in debug builds) on
    /// out-of-order appends.
    pub fn push_run(&mut self, prefix: &[i64], lo: i64, hi: i64) {
        let pw = self.depth - 1;
        assert_eq!(prefix.len(), pw, "prefix dimension mismatch");
        if lo > hi {
            return;
        }
        let last = self.rows().wrapping_sub(1);
        let same_row =
            !self.row_base.is_empty() && &self.prefixes[last * pw..(last + 1) * pw] == prefix;
        if same_row {
            debug_assert!(lo > self.last_hi, "runs must be appended in lex order");
        } else {
            debug_assert!(
                self.row_base.is_empty()
                    || cme_math::lexi::lex_cmp(&self.prefixes[last * pw..(last + 1) * pw], prefix)
                        == std::cmp::Ordering::Less,
                "prefixes must be appended in lex order"
            );
            self.prefixes.extend_from_slice(prefix);
            self.row_base.push(lo);
            self.row_words.push(self.words.len() as u32);
            self.row_start.push(self.len);
        }
        let ri = self.rows() - 1;
        let base = self.row_base[ri];
        let (b_lo, b_hi) = ((lo - base) as usize, (hi - base) as usize);
        let ws = self.row_words[ri] as usize;
        if self.words.len() < ws + b_hi / 64 + 1 {
            self.words.resize(ws + b_hi / 64 + 1, 0);
        }
        set_bit_range(&mut self.words[ws..], b_lo, b_hi);
        self.len += (hi - lo + 1) as u64;
        self.last_hi = hi;
    }

    /// Appends one point (in lexicographic order).
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != depth`.
    pub fn push(&mut self, point: &[i64]) {
        assert_eq!(point.len(), self.depth, "point dimension mismatch");
        let inner = point[self.depth - 1];
        self.push_run(&point[..self.depth - 1], inner, inner);
    }

    /// Iterates the maximal runs of rows `row_lo..row_hi`, in
    /// lexicographic order — the exact run stream [`RunSet`] would store
    /// for the same pushes.
    pub fn runs_in(&self, row_lo: usize, row_hi: usize) -> DenseRuns<'_> {
        if row_lo >= row_hi {
            return DenseRuns {
                set: self,
                ri: 0,
                row_hi: 0,
                row_ws: 0,
                wi: 0,
                word_end: 0,
                cur: 0,
                start: 0,
            };
        }
        let (ws, we) = self.row_word_range(row_lo);
        DenseRuns {
            set: self,
            ri: row_lo,
            row_hi,
            row_ws: ws,
            wi: ws,
            word_end: we,
            cur: self.words[ws],
            start: self.row_start[row_lo],
        }
    }

    /// The `idx`-th point in lexicographic order (O(log rows + row
    /// words)).
    ///
    /// # Panics
    ///
    /// Panics when `idx >= len()`.
    pub fn point(&self, idx: u64) -> Vec<i64> {
        assert!(idx < self.len, "point index out of range");
        let ri = match self.row_start.binary_search(&idx) {
            Ok(ri) => ri,
            Err(ins) => ins - 1,
        };
        let pw = self.depth - 1;
        let mut remaining = idx - self.row_start[ri];
        let (ws, we) = self.row_word_range(ri);
        for (k, &w) in self.words[ws..we].iter().enumerate() {
            let pc = u64::from(w.count_ones());
            if remaining < pc {
                let mut w = w;
                for _ in 0..remaining {
                    w &= w - 1; // drop the lowest set bit
                }
                let mut p = Vec::with_capacity(self.depth);
                p.extend_from_slice(&self.prefixes[ri * pw..(ri + 1) * pw]);
                p.push(self.row_base[ri] + (k as i64) * 64 + i64::from(w.trailing_zeros()));
                return p;
            }
            remaining -= pc;
        }
        unreachable!("row popcounts inconsistent with len");
    }
}

/// Iterator over the maximal runs of a [`DenseSet`] row range; yields
/// the same `Run` stream the equivalent [`RunSet`] stores.
pub struct DenseRuns<'a> {
    set: &'a DenseSet,
    ri: usize,
    row_hi: usize,
    /// First word of the current row (bit origin).
    row_ws: usize,
    /// Current word index; bits of `words[wi]` below the cursor are
    /// cleared in `cur`.
    wi: usize,
    word_end: usize,
    cur: u64,
    /// Global lexicographic index of the next yielded point.
    start: u64,
}

impl<'a> Iterator for DenseRuns<'a> {
    type Item = Run<'a>;

    fn next(&mut self) -> Option<Run<'a>> {
        // Find the next set bit, advancing words and rows as needed.
        while self.cur == 0 {
            self.wi += 1;
            if self.wi >= self.word_end {
                self.ri += 1;
                if self.ri >= self.row_hi || self.ri >= self.set.rows() {
                    return None;
                }
                debug_assert_eq!(self.start, self.set.row_start[self.ri]);
                let (ws, we) = self.set.row_word_range(self.ri);
                self.row_ws = ws;
                self.wi = ws;
                self.word_end = we;
            }
            self.cur = self.set.words[self.wi];
        }
        let tz = self.cur.trailing_zeros();
        let run_start_bit = (self.wi - self.row_ws) * 64 + tz as usize;
        let ones = (self.cur >> tz).trailing_ones();
        let mut run_len = ones as usize;
        self.cur = match tz + ones {
            64 => 0,
            consumed => self.cur & (!0u64 << consumed),
        };
        if tz + ones == 64 {
            // The run may continue into the following words of the row.
            while self.wi + 1 < self.word_end {
                self.wi += 1;
                let w = self.set.words[self.wi];
                let o = w.trailing_ones();
                run_len += o as usize;
                if o == 64 {
                    self.cur = 0;
                    continue;
                }
                self.cur = w & (!0u64 << o);
                break;
            }
        }
        let pw = self.set.depth - 1;
        let lo = self.set.row_base[self.ri] + run_start_bit as i64;
        let start = self.start;
        self.start += run_len as u64;
        Some(Run {
            prefix: &self.set.prefixes[self.ri * pw..(self.ri + 1) * pw],
            lo,
            hi: lo + run_len as i64 - 1,
            start,
        })
    }
}

/// A survivor/scan point set in either representation. Both sides share
/// the push contract, the lexicographic point order, and the decoded
/// maximal-run stream, so every consumer — classification walks, window
/// scans, sharding, miss-index bookkeeping — is representation-blind:
/// analysis results are bit-identical whichever side a set lands on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SurvivorSet {
    /// Run-compressed storage.
    Runs(RunSet),
    /// Dense bitmap-row storage.
    Dense(DenseSet),
}

impl SurvivorSet {
    /// Creates an empty set of `depth`-dimensional points in the chosen
    /// representation.
    pub fn new(depth: usize, dense: bool) -> Self {
        if dense {
            SurvivorSet::Dense(DenseSet::new(depth))
        } else {
            SurvivorSet::Runs(RunSet::new(depth))
        }
    }

    /// Whether the set uses the dense bitmap representation.
    pub fn is_dense(&self) -> bool {
        matches!(self, SurvivorSet::Dense(_))
    }

    /// Point dimensionality.
    pub fn depth(&self) -> usize {
        match self {
            SurvivorSet::Runs(s) => s.depth(),
            SurvivorSet::Dense(s) => s.depth(),
        }
    }

    /// Number of points stored.
    pub fn len(&self) -> u64 {
        match self {
            SurvivorSet::Runs(s) => s.len(),
            SurvivorSet::Dense(s) => s.len(),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a whole run (same ordering contract as
    /// [`RunSet::push_run`]).
    pub fn push_run(&mut self, prefix: &[i64], lo: i64, hi: i64) {
        match self {
            SurvivorSet::Runs(s) => s.push_run(prefix, lo, hi),
            SurvivorSet::Dense(s) => s.push_run(prefix, lo, hi),
        }
    }

    /// Appends one point (in lexicographic order).
    pub fn push(&mut self, point: &[i64]) {
        match self {
            SurvivorSet::Runs(s) => s.push(point),
            SurvivorSet::Dense(s) => s.push(point),
        }
    }

    /// Number of sharding chunks: runs for the run-compressed side, rows
    /// for the dense side — in both, a contiguous chunk range covers a
    /// contiguous range of lexicographic point indices.
    pub fn chunk_count(&self) -> usize {
        match self {
            SurvivorSet::Runs(s) => s.run_count(),
            SurvivorSet::Dense(s) => s.rows(),
        }
    }

    /// Lexicographic index of the first point of chunk `ci`
    /// (`len()` when `ci == chunk_count()`).
    pub fn chunk_start(&self, ci: usize) -> u64 {
        if ci == self.chunk_count() {
            return self.len();
        }
        match self {
            SurvivorSet::Runs(s) => s.run(ci).start,
            SurvivorSet::Dense(s) => s.row_start[ci],
        }
    }

    /// Iterates the maximal runs of chunks `lo..hi` in lexicographic
    /// order — the identical stream from either representation.
    pub fn runs_in(&self, lo: usize, hi: usize) -> SurvivorRuns<'_> {
        match self {
            SurvivorSet::Runs(s) => SurvivorRuns::Runs { set: s, ri: lo, hi },
            SurvivorSet::Dense(s) => SurvivorRuns::Dense(s.runs_in(lo, hi)),
        }
    }

    /// Iterates every maximal run.
    pub fn runs(&self) -> SurvivorRuns<'_> {
        self.runs_in(0, self.chunk_count())
    }

    /// The `idx`-th point in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics when `idx >= len()`.
    pub fn point(&self, idx: u64) -> Vec<i64> {
        match self {
            SurvivorSet::Runs(s) => s.point(idx),
            SurvivorSet::Dense(s) => s.point(idx),
        }
    }

    /// Visits every point in lexicographic order. The slice passed to
    /// `visit` is a scratch buffer valid only for the duration of the
    /// call.
    pub fn for_each(&self, mut visit: impl FnMut(&[i64])) {
        let mut buf = vec![0i64; self.depth()];
        let pw = self.depth() - 1;
        for run in self.runs() {
            buf[..pw].copy_from_slice(run.prefix);
            for v in run.lo..=run.hi {
                buf[pw] = v;
                visit(&buf);
            }
        }
    }
}

/// Iterator over the maximal runs of a [`SurvivorSet`] chunk range.
pub enum SurvivorRuns<'a> {
    /// Indexed walk of a [`RunSet`]'s runs.
    Runs {
        /// The underlying run-compressed set.
        set: &'a RunSet,
        /// Next run index.
        ri: usize,
        /// One past the last run index.
        hi: usize,
    },
    /// Word-decoding walk of a [`DenseSet`]'s rows.
    Dense(DenseRuns<'a>),
}

impl<'a> Iterator for SurvivorRuns<'a> {
    type Item = Run<'a>;

    fn next(&mut self) -> Option<Run<'a>> {
        match self {
            SurvivorRuns::Runs { set, ri, hi } => {
                if ri < hi {
                    let run = set.run(*ri);
                    *ri += 1;
                    Some(run)
                } else {
                    None
                }
            }
            SurvivorRuns::Dense(d) => d.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_iter_roundtrip() {
        let mut s = PointSet::new(2);
        assert!(s.is_empty());
        s.push(&[3, 4]);
        s.push(&[5, 6]);
        let pts: Vec<_> = s.iter().map(|p| p.to_vec()).collect();
        assert_eq!(pts, vec![vec![3, 4], vec![5, 6]]);
        assert_eq!(s.len(), 2);
        assert_eq!((&s).into_iter().count(), 2);
    }

    #[test]
    #[should_panic]
    fn wrong_dimension_panics() {
        PointSet::new(2).push(&[1]);
    }

    #[test]
    fn zero_depth_is_empty() {
        let s = PointSet::new(0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn runset_merges_contiguous_points_and_runs() {
        let mut s = RunSet::new(3);
        s.push(&[1, 1, 4]);
        s.push(&[1, 1, 5]);
        s.push_run(&[1, 1], 6, 9); // contiguous: extends the run
        s.push_run(&[1, 1], 11, 11); // gap: new run, same prefix
        s.push(&[1, 2, 1]);
        assert_eq!(s.len(), 8);
        assert_eq!(s.run_count(), 3);
        assert_eq!(s.recount(), s.len());
        let r0 = s.run(0);
        assert_eq!(
            (r0.prefix, r0.lo, r0.hi, r0.start),
            (&[1i64, 1][..], 4, 9, 0)
        );
        assert_eq!(s.run(1).start, 6);
        assert_eq!(s.run(2).prefix, &[1, 2]);
    }

    #[test]
    fn runset_point_random_access_matches_iteration() {
        let mut s = RunSet::new(2);
        for p in [[0, 0], [0, 1], [0, 5], [2, 2], [2, 3], [3, 0]] {
            s.push(&p);
        }
        let mut seen = Vec::new();
        s.for_each(|p| seen.push(p.to_vec()));
        assert_eq!(seen.len() as u64, s.len());
        for (i, p) in seen.iter().enumerate() {
            assert_eq!(&s.point(i as u64), p);
        }
    }

    #[test]
    fn runset_pointset_roundtrip() {
        let mut ps = PointSet::new(2);
        for p in [[1, 1], [1, 2], [1, 4], [2, 1]] {
            ps.push(&p);
        }
        let rs = RunSet::from_point_set(&ps);
        assert_eq!(rs.len(), ps.len());
        assert_eq!(rs.to_point_set(), ps);
    }

    #[test]
    fn runset_depth_one_uses_empty_prefix() {
        let mut s = RunSet::new(1);
        s.push(&[3]);
        s.push(&[4]);
        s.push(&[9]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.run_count(), 2);
        assert_eq!(s.point(2), vec![9]);
        assert!(s.run(0).prefix.is_empty());
    }

    #[test]
    fn runset_ignores_empty_interval() {
        let mut s = RunSet::new(2);
        s.push_run(&[1], 5, 4);
        assert!(s.is_empty());
        assert_eq!(s.run_count(), 0);
    }

    #[test]
    #[should_panic]
    fn runset_rejects_zero_depth() {
        let _ = RunSet::new(0);
    }

    #[test]
    fn dense_set_matches_runset_run_stream() {
        let mut d = DenseSet::new(3);
        let mut r = RunSet::new(3);
        let pushes: [(&[i64], i64, i64); 6] = [
            (&[0, 0], 0, 5),
            (&[0, 0], 7, 7),
            (&[0, 0], 8, 200), // crosses multiple words
            (&[0, 1], -3, 1),  // negative bases
            (&[2, 0], 63, 64), // word-boundary straddle
            (&[2, 0], 66, 66),
        ];
        for (p, lo, hi) in pushes {
            d.push_run(p, lo, hi);
            r.push_run(p, lo, hi);
        }
        assert_eq!(d.len(), r.len());
        assert_eq!(d.rows(), 3);
        let druns: Vec<_> = d
            .runs_in(0, d.rows())
            .map(|run| (run.prefix.to_vec(), run.lo, run.hi, run.start))
            .collect();
        let rruns: Vec<_> = (0..r.run_count())
            .map(|i| {
                let run = r.run(i);
                (run.prefix.to_vec(), run.lo, run.hi, run.start)
            })
            .collect();
        assert_eq!(druns, rruns);
        for idx in 0..d.len() {
            assert_eq!(d.point(idx), r.point(idx));
        }
    }

    #[test]
    fn dense_set_adjacent_runs_fuse_like_runset() {
        let mut d = DenseSet::new(2);
        d.push_run(&[4], 0, 9);
        d.push_run(&[4], 10, 19); // adjacent: one maximal run when read
        assert_eq!(d.len(), 20);
        let runs: Vec<_> = d.runs_in(0, d.rows()).map(|r| (r.lo, r.hi)).collect();
        assert_eq!(runs, vec![(0, 19)]);
    }

    #[test]
    fn survivor_set_chunks_cover_lex_indices_in_both_reprs() {
        for dense in [false, true] {
            let mut s = SurvivorSet::new(2, dense);
            assert_eq!(s.is_dense(), dense);
            s.push_run(&[0], 0, 99);
            s.push_run(&[1], 5, 5);
            s.push_run(&[1], 50, 69);
            assert_eq!(s.len(), 121);
            assert_eq!(s.chunk_start(0), 0);
            assert_eq!(s.chunk_start(s.chunk_count()), s.len());
            // Chunk boundaries partition the lex index range; any split
            // reproduces the whole run stream piecewise.
            let whole: Vec<_> = s
                .runs()
                .map(|r| (r.prefix.to_vec(), r.lo, r.hi, r.start))
                .collect();
            let mid = s.chunk_count() / 2;
            let split: Vec<_> = s
                .runs_in(0, mid)
                .chain(s.runs_in(mid, s.chunk_count()))
                .map(|r| (r.prefix.to_vec(), r.lo, r.hi, r.start))
                .collect();
            assert_eq!(whole, split);
            let mut visited = 0u64;
            s.for_each(|p| {
                assert_eq!(s.point(visited), p);
                visited += 1;
            });
            assert_eq!(visited, s.len());
        }
    }

    mod props {
        use super::*;
        use cme_testgen::{arb_nest, NestDistribution};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Round-trip through the run-compressed form preserves the
            /// points, their lexicographic order, the count, and random
            /// access, for every random iteration space.
            #[test]
            fn runset_roundtrips_random_iteration_spaces(
                nest in arb_nest(NestDistribution::default()),
                probe in 0u64..4096,
            ) {
                let mut ps = PointSet::new(nest.depth());
                let mut sp = nest.space();
                while let Some(q) = sp.next_point() {
                    ps.push(&q);
                }
                let rs = RunSet::from_point_set(&ps);
                prop_assert_eq!(rs.len(), ps.len());
                prop_assert_eq!(rs.recount(), rs.len());
                prop_assert_eq!(&rs.to_point_set(), &ps);
                // A full space is one run per outer prefix.
                prop_assert!(rs.run_count() as u64 <= rs.len());
                if !rs.is_empty() {
                    let idx = probe % rs.len();
                    prop_assert_eq!(rs.point(idx), ps.point(idx as usize).to_vec());
                }
            }

            /// Both survivor representations decode to the identical
            /// run stream, point order, and chunk index map for every
            /// random iteration space.
            #[test]
            fn survivor_reprs_are_interchangeable(
                nest in arb_nest(NestDistribution::default()),
                probe in 0u64..4096,
            ) {
                let depth = nest.depth();
                if depth == 0 {
                    return Ok(());
                }
                let mut runs = SurvivorSet::new(depth, false);
                let mut dense = SurvivorSet::new(depth, true);
                let mut sp = nest.space();
                while let Some(q) = sp.next_point() {
                    runs.push(&q);
                    dense.push(&q);
                }
                prop_assert_eq!(runs.len(), dense.len());
                let a: Vec<_> = runs
                    .runs()
                    .map(|r| (r.prefix.to_vec(), r.lo, r.hi, r.start))
                    .collect();
                let b: Vec<_> = dense
                    .runs()
                    .map(|r| (r.prefix.to_vec(), r.lo, r.hi, r.start))
                    .collect();
                prop_assert_eq!(a, b);
                if !runs.is_empty() {
                    let idx = probe % runs.len();
                    prop_assert_eq!(runs.point(idx), dense.point(idx));
                }
            }
        }
    }
}
