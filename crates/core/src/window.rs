//! Sliding-window interior scanner: the incremental half of the fast
//! cascade (see `docs/PERF.md`).
//!
//! The reuse window of a destination point `i⃗` along vector `r⃗` is the
//! set of iteration points strictly between `p⃗ = i⃗ − r⃗` and `i⃗`.
//! Adjacent survivors along the innermost axis have windows that differ by
//! exactly two points — the old destination enters, the successor of the
//! old source leaves — whenever both endpoints advance in lockstep:
//!
//! ```text
//!   W(succ(i⃗)) = W(i⃗) ∪ {i⃗} \ {succ(p⃗)}   iff succ(p⃗) = succ(i⃗) − r⃗
//! ```
//!
//! [`SlidingWindow`] maintains the interior's accesses as a multiset of
//! memory-line counts plus a per-cache-set tally of *distinct* lines, so a
//! step costs O(references) and a membership query O(1), independent of
//! the window size. Every longer move is built on one primitive, a *span*:
//! all accesses of a lexicographic stretch of the space — the tail of its
//! first row, the whole rows between, the head of its last row — added or
//! removed as one arithmetic progression of addresses per reference and
//! row, so it costs O(rows × lines), not O(points × references). A jump to
//! a window that overlaps or touches the current one enters the span the
//! destination passed and removes the span the source uncovered; any other
//! jump rebuilds, which is one span into an empty multiset.
//!
//! Unlike [`crate::solve::Scanner`], which tallies only lines conflicting
//! with one fixed destination set/line, the window state is
//! destination-agnostic: changing the destination line between steps is a
//! query-time concern, never a rebuild trigger.

use cme_cache::CacheConfig;
use cme_ir::IterationSpace;
use cme_math::gcd::{floor_div, modulo};
use cme_math::lexi::lex_cmp;
use cme_math::Affine;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Minimal multiplicative hasher for `i64` memory-line keys: the default
/// SipHash is overkill (and measurably slow) for hot per-step updates, and
/// line numbers are already well-spread integers.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-style fallback for non-integer keys (unused on the hot path).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = self.0 ^ v;
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        self.0 = h;
    }
}

type LineCounts = HashMap<i64, u64, BuildHasherDefault<LineHasher>>;

/// Overflow tier of the dense multiset: line index → accesses beyond the
/// saturated `u8` counter. An entry exists (and is positive) only while
/// the fast-tier counter sits at [`SAT`].
type SpillCounts = HashMap<u32, u64, BuildHasherDefault<LineHasher>>;

/// Saturation ceiling of the dense fast tier's per-line `u8` counters.
const SAT: u8 = u8::MAX;

/// Widest line span (≈4 MB of `u8` counters plus a 512 KB occupancy
/// bitmap) still backed by the dense array.
const MAX_DENSE_LINES: i64 = 1 << 22;

/// Multiset of window-interior accesses keyed by memory line.
///
/// When every reference's address range over the space's bounding box
/// spans at most [`MAX_DENSE_LINES`] lines, counts live in a dense
/// saturating-`u8` array indexed by `line − base` — one predictable byte
/// load per update, no hashing — with the rare multiplicity above [`SAT`]
/// spilled to a side map. Membership lives in a separate occupancy bitmap
/// packing 64 lines per word: `contains_line` is a bit test, a clear
/// zeroes whole 64-counter blocks guided by the dirty-word list (O(words
/// touched), not O(span) and not O(lines touched)), and bulk updates over
/// contiguous line ranges discover 0→occupied transitions a word at a
/// time. Wider (or unknown) spans fall back to the hash multiset.
enum LineMultiset {
    Dense {
        base: i64,
        /// Saturating fast-tier counters: [`SAT`] means "at least `SAT`;
        /// the excess lives in `spill`".
        counts: Vec<u8>,
        /// Occupancy bitmap: bit `idx % 64` of word `idx / 64` is set iff
        /// `counts[idx] > 0`.
        occ: Vec<u64>,
        /// Occupancy words dirtied since the last clear (a word may repeat
        /// if it empties and refills; clearing is idempotent).
        touched: Vec<u32>,
        /// Overflow beyond the `u8` tier; `spill[idx] > 0` only while
        /// `counts[idx] == SAT`.
        spill: SpillCounts,
    },
    Sparse(LineCounts),
}

#[cfg(test)]
impl LineMultiset {
    /// Multiplicity of `line` (test support).
    fn count_of(&self, line: i64) -> u64 {
        match self {
            LineMultiset::Dense {
                base,
                counts,
                spill,
                ..
            } => {
                let idx = line.wrapping_sub(*base);
                if idx >= 0 && (idx as usize) < counts.len() {
                    u64::from(counts[idx as usize]) + spill.get(&(idx as u32)).copied().unwrap_or(0)
                } else {
                    0
                }
            }
            LineMultiset::Sparse(map) => map.get(&line).copied().unwrap_or(0),
        }
    }

    /// Number of distinct lines present (test support).
    fn distinct_len(&self) -> usize {
        self.members().len()
    }

    /// The lines present, ascending (test support).
    fn members(&self) -> Vec<i64> {
        match self {
            LineMultiset::Dense { base, occ, .. } => (0..occ.len() * 64)
                .filter(|&idx| occ[idx / 64] >> (idx % 64) & 1 == 1)
                .map(|idx| base + idx as i64)
                .collect(),
            LineMultiset::Sparse(map) => {
                let mut lines: Vec<i64> = map.keys().copied().collect();
                lines.sort_unstable();
                lines
            }
        }
    }
}

/// Address→line→set mapping as a shift and a mask. [`CacheConfig`] only
/// accepts power-of-two line and element sizes and an associativity that
/// divides `size/line`, so `line_elems` and `num_sets` are always powers
/// of two. Hot scan loops perform this mapping several times per
/// iteration point, where `floor_div`/`modulo` would cost two hardware
/// divisions.
#[derive(Clone, Copy)]
pub(crate) struct Geom {
    line_shift: u32,
    set_mask: i64,
}

impl Geom {
    pub(crate) fn new(cache: &CacheConfig) -> Self {
        Self::from_parts(cache.line_elems(), cache.num_sets())
    }

    /// Builds the mapping from raw geometry parts, both powers of two.
    pub(crate) fn from_parts(line_elems: i64, num_sets: i64) -> Self {
        debug_assert!(
            line_elems > 0
                && line_elems.count_ones() == 1
                && num_sets > 0
                && num_sets.count_ones() == 1,
            "geometry parts must be powers of two: Ls={line_elems}, Ns={num_sets}"
        );
        Geom {
            line_shift: line_elems.trailing_zeros(),
            set_mask: num_sets - 1,
        }
    }

    /// Memory line of an element address (`⌊addr / Ls⌋`, negatives floored).
    #[inline]
    pub(crate) fn line(&self, addr: i64) -> i64 {
        // Arithmetic right shift is floored division for all signs.
        addr >> self.line_shift
    }

    /// Cache set of a memory line (Euclidean `line mod num_sets`).
    #[inline]
    pub(crate) fn set_of_line(&self, line: i64) -> i64 {
        // Two's-complement AND yields the non-negative residue.
        line & self.set_mask
    }
}

/// Step/rebuild accounting, drained into the engine's atomic counters
/// after each scan block.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WindowStats {
    /// Points the destination moved without a rebuild: one per
    /// `step_in_segment`, a `slide_by`'s gap, and the points of each span
    /// move's entering span.
    pub steps: u64,
    /// Full window rebuilds.
    pub rebuilds: u64,
    /// Innermost rows aggregated by rebuilds (rows of span moves are not
    /// counted).
    pub rebuild_rows: u64,
}

/// Incremental reuse-window state (see module docs).
pub(crate) struct SlidingWindow<'a> {
    cache: &'a CacheConfig,
    addrs: &'a [Affine],
    geom: Geom,
    num_sets: i64,
    /// Multiset of window-interior accesses, keyed by memory line.
    counts: LineMultiset,
    /// Distinct lines currently present, per cache set.
    distinct_per_set: Vec<u32>,
    /// Current window endpoints (both exclusive): source `p⃗` and
    /// destination `i⃗`.
    src: Vec<i64>,
    dst: Vec<i64>,
    valid: bool,
    /// Target source endpoint scratch for [`SlidingWindow::advance_to`].
    tgt_src: Vec<i64>,
    /// Row cursor scratch for [`SlidingWindow::span`].
    row_buf: Vec<i64>,
    /// Number of iteration points strictly inside the window. A gap-one
    /// window (`i⃗` the immediate successor of `p⃗`) has zero interior
    /// points; stepping it is a no-op on the multiset (the entering point
    /// is the leaving point), which [`SlidingWindow::step_in_segment`]
    /// exploits for innermost spatial vectors.
    interior_pts: u64,
    /// Per-reference addresses at the current endpoints, maintained
    /// incrementally while stepping inside a run segment (armed by
    /// [`SlidingWindow::begin_segment`]).
    src_addr: Vec<i64>,
    dst_addr: Vec<i64>,
    /// Per-reference innermost-axis address stride (constant per nest).
    stride_in: Vec<i64>,
    pub(crate) stats: WindowStats,
}

impl<'a> SlidingWindow<'a> {
    pub(crate) fn new(cache: &'a CacheConfig, addrs: &'a [Affine], depth: usize) -> Self {
        let num_sets = cache.num_sets();
        SlidingWindow {
            cache,
            addrs,
            geom: Geom::new(cache),
            num_sets,
            counts: LineMultiset::Sparse(LineCounts::default()),
            distinct_per_set: vec![0; num_sets as usize],
            src: vec![0; depth],
            dst: vec![0; depth],
            valid: false,
            tgt_src: vec![0; depth],
            row_buf: vec![0; depth],
            interior_pts: 0,
            src_addr: vec![0; addrs.len()],
            dst_addr: vec![0; addrs.len()],
            stride_in: addrs.iter().map(|a| a.coeff(depth - 1)).collect(),
            stats: WindowStats::default(),
        }
    }

    /// Like [`SlidingWindow::new`], but sized against the space: when the
    /// references' address ranges over the bounding box span few enough
    /// memory lines, the line multiset is backed by a dense array instead
    /// of a hash map (see [`LineMultiset`]).
    pub(crate) fn new_for_space(
        cache: &'a CacheConfig,
        addrs: &'a [Affine],
        space: &IterationSpace<'_>,
    ) -> Self {
        let mut w = Self::new(cache, addrs, space.nest().depth());
        let bbox = space.bounding_box();
        let (mut lmin, mut lmax) = (i64::MAX, i64::MIN);
        for a in addrs {
            let range = a.range(&bbox);
            lmin = lmin.min(w.geom.line(range.lo));
            lmax = lmax.max(w.geom.line(range.hi));
        }
        if lmin <= lmax && lmax - lmin < MAX_DENSE_LINES {
            let span = (lmax - lmin + 1) as usize;
            w.counts = LineMultiset::Dense {
                base: lmin,
                counts: vec![0; span],
                occ: vec![0; span.div_ceil(64)],
                touched: Vec::new(),
                spill: SpillCounts::default(),
            };
        }
        w
    }

    /// Address of reference `s` at the source endpoint `p⃗` (valid inside a
    /// segment armed by [`SlidingWindow::begin_segment`]).
    pub(crate) fn src_addr(&self, s: usize) -> i64 {
        self.src_addr[s]
    }

    /// Address of reference `s` at the destination endpoint `i⃗`.
    pub(crate) fn dst_addr(&self, s: usize) -> i64 {
        self.dst_addr[s]
    }

    /// Distinct conflicting lines in the window for a destination mapping
    /// to `dest_set` / `dest_line` — the window's contribution to the
    /// replacement-miss verdict (side accesses at the endpoints are
    /// layered on top by the caller).
    pub(crate) fn distinct_excluding(&self, dest_set: i64, dest_line: i64) -> u64 {
        debug_assert_eq!(modulo(dest_line, self.num_sets), dest_set);
        let d = u64::from(self.distinct_per_set[dest_set as usize]);
        if self.contains_line(dest_line) {
            d - 1
        } else {
            d
        }
    }

    /// Whether the window interior already accesses `line` (used to dedup
    /// endpoint side accesses against the window).
    pub(crate) fn contains_line(&self, line: i64) -> bool {
        match &self.counts {
            LineMultiset::Dense {
                base, counts, occ, ..
            } => {
                let idx = line.wrapping_sub(*base);
                idx >= 0
                    && (idx as usize) < counts.len()
                    && occ[idx as usize / 64] >> (idx as usize % 64) & 1 == 1
            }
            LineMultiset::Sparse(map) => map.contains_key(&line),
        }
    }

    fn clear_counts(&mut self) {
        match &mut self.counts {
            LineMultiset::Dense {
                counts,
                occ,
                touched,
                spill,
                ..
            } => {
                // Word-parallel clear: each dirty occupancy word zeroes its
                // whole 64-counter block, regardless of which bits are set.
                for wi in touched.drain(..) {
                    let wi = wi as usize;
                    occ[wi] = 0;
                    let lo = wi * 64;
                    let hi = (lo + 64).min(counts.len());
                    counts[lo..hi].fill(0);
                }
                spill.clear();
            }
            LineMultiset::Sparse(map) => map.clear(),
        }
        self.distinct_per_set.fill(0);
    }

    fn add_line(&mut self, line: i64, n: u64) {
        debug_assert!(n > 0);
        match &mut self.counts {
            LineMultiset::Dense {
                base,
                counts,
                occ,
                touched,
                spill,
            } => {
                let idx = (line - *base) as usize;
                let c = &mut counts[idx];
                if *c == 0 {
                    let w = &mut occ[idx / 64];
                    if *w == 0 {
                        touched.push((idx / 64) as u32);
                    }
                    *w |= 1u64 << (idx % 64);
                    self.distinct_per_set[self.geom.set_of_line(line) as usize] += 1;
                }
                let total = u64::from(*c) + n;
                if total >= u64::from(SAT) {
                    if total > u64::from(SAT) {
                        *spill.entry(idx as u32).or_insert(0) += total - u64::from(SAT);
                    }
                    *c = SAT;
                } else {
                    *c = total as u8;
                }
            }
            LineMultiset::Sparse(map) => match map.entry(line) {
                Entry::Occupied(mut e) => *e.get_mut() += n,
                Entry::Vacant(e) => {
                    e.insert(n);
                    self.distinct_per_set[self.geom.set_of_line(line) as usize] += 1;
                }
            },
        }
    }

    /// Removes `n` accesses of `line` at once, draining any spilled
    /// overflow before the saturated fast-tier counter is decremented.
    fn remove_line(&mut self, line: i64, n: u64) {
        debug_assert!(n > 0);
        match &mut self.counts {
            LineMultiset::Dense {
                base,
                counts,
                occ,
                spill,
                ..
            } => {
                let idx = (line - *base) as usize;
                let c = &mut counts[idx];
                let mut n = n;
                if *c == SAT {
                    if let Entry::Occupied(mut e) = spill.entry(idx as u32) {
                        let s = e.get_mut();
                        if *s > n {
                            *s -= n;
                            return;
                        }
                        n -= *s;
                        e.remove();
                        if n == 0 {
                            return;
                        }
                    }
                }
                debug_assert!(
                    u64::from(*c) >= n,
                    "removing accesses absent from the window"
                );
                let rem = u64::from(*c) - n;
                *c = rem as u8;
                if rem == 0 {
                    occ[idx / 64] &= !(1u64 << (idx % 64));
                    self.distinct_per_set[self.geom.set_of_line(line) as usize] -= 1;
                }
            }
            LineMultiset::Sparse(map) => match map.entry(line) {
                Entry::Occupied(mut e) => {
                    debug_assert!(*e.get() >= n, "removing accesses absent from the window");
                    if *e.get() == n {
                        e.remove();
                        self.distinct_per_set[self.geom.set_of_line(line) as usize] -= 1;
                    } else {
                        *e.get_mut() -= n;
                    }
                }
                Entry::Vacant(_) => {
                    debug_assert!(false, "removing accesses absent from the window")
                }
            },
        }
    }

    /// Word-parallel bulk add over the contiguous line range
    /// `[lmin, lmax]` of the access progression `base, base+stride, …`
    /// (`count` accesses, `0 < stride ≤ Ls`): membership transitions are
    /// discovered 64 lines per occupancy word — lines already present cost
    /// no per-line bookkeeping at all — then the saturating counters
    /// absorb each line's multiplicity. Returns `false` (no-op) when the
    /// multiset is not dense.
    fn dense_add_range(
        &mut self,
        lmin: i64,
        lmax: i64,
        base: i64,
        stride: i64,
        count: i64,
    ) -> bool {
        let ls = self.cache.line_elems();
        let geom = self.geom;
        let LineMultiset::Dense {
            base: dbase,
            counts,
            occ,
            touched,
            spill,
        } = &mut self.counts
        else {
            return false;
        };
        let ilo = (lmin - *dbase) as usize;
        let ihi = (lmax - *dbase) as usize;
        let (wlo, whi) = (ilo / 64, ihi / 64);
        for (wi, word) in occ.iter_mut().enumerate().take(whi + 1).skip(wlo) {
            let lo_bit = if wi == wlo { ilo % 64 } else { 0 };
            let hi_bit = if wi == whi { ihi % 64 } else { 63 };
            let mask = (!0u64 << lo_bit) & (!0u64 >> (63 - hi_bit));
            let mut newly = mask & !*word;
            if *word == 0 {
                touched.push(wi as u32);
            }
            *word |= mask;
            while newly != 0 {
                let b = newly.trailing_zeros() as usize;
                newly &= newly - 1;
                let line = *dbase + (wi * 64 + b) as i64;
                self.distinct_per_set[geom.set_of_line(line) as usize] += 1;
            }
        }
        for line in lmin..=lmax {
            // Stride ≤ Ls guarantees every line in the range is hit.
            let n = accesses_on_line(line, ls, base, stride, count);
            debug_assert!(n > 0);
            let n = n as u64;
            let c = &mut counts[(line - *dbase) as usize];
            let total = u64::from(*c) + n;
            if total >= u64::from(SAT) {
                if total > u64::from(SAT) {
                    *spill.entry((line - *dbase) as u32).or_insert(0) += total - u64::from(SAT);
                }
                *c = SAT;
            } else {
                *c = total as u8;
            }
        }
        true
    }

    /// Adds (`sign > 0`) or removes (`sign < 0`) one reference's accesses
    /// over an innermost segment: addresses `base, base+stride, …`
    /// (`count` of them), aggregated per memory line — consecutive
    /// accesses striding less than a line collapse into one count update
    /// per line covered, so a `count`-point batch costs
    /// `O(count·stride/Ls + 1)` updates instead of `count`.
    fn progression(&mut self, base: i64, stride: i64, count: i64, sign: i64) {
        #[inline]
        fn apply(w: &mut SlidingWindow<'_>, line: i64, n: u64, sign: i64) {
            if sign > 0 {
                w.add_line(line, n);
            } else {
                w.remove_line(line, n);
            }
        }
        if count <= 0 {
            return;
        }
        let ls = self.cache.line_elems();
        if stride == 0 || count == 1 {
            apply(self, self.geom.line(base), count as u64, sign);
            return;
        }
        // Normalize to a positive stride (the multiset is order-blind).
        let (base, stride) = if stride < 0 {
            (base + stride * (count - 1), -stride)
        } else {
            (base, stride)
        };
        if stride <= ls {
            // Consecutive accesses move less than a line: the segment
            // covers every line in its address range, each with a
            // computable multiplicity.
            let lmin = self.geom.line(base);
            let lmax = self.geom.line(base + stride * (count - 1));
            if sign > 0 && self.dense_add_range(lmin, lmax, base, stride, count) {
                return;
            }
            for line in lmin..=lmax {
                let n = accesses_on_line(line, ls, base, stride, count);
                if n > 0 {
                    apply(self, line, n as u64, sign);
                }
            }
            return;
        }
        // Stride beyond a line: every access lands on its own line.
        for q in 0..count {
            apply(self, self.geom.line(base + stride * q), 1, sign);
        }
    }

    /// Adds (`sign > 0`) or removes (`sign < 0`) every access of the
    /// lexicographic span of space points from `a` shifted `da` along the
    /// innermost axis to `b` shifted `db`, both inclusive — the tail of
    /// `a`'s row, the whole rows between, and the head of `b`'s row, each
    /// row one arithmetic progression of addresses per reference. `a ≤ b`
    /// are space points; a shift of `+1` (`da`) or `−1` (`db`) makes that
    /// endpoint exclusive. Returns the points and rows covered.
    fn span(
        &mut self,
        space: &IterationSpace<'_>,
        a: &[i64],
        da: i64,
        b: &[i64],
        db: i64,
        sign: i64,
    ) -> (u64, u64) {
        let inner = a.len() - 1;
        let upper = space.nest().loops()[inner].upper();
        let mut row = std::mem::take(&mut self.row_buf);
        row.copy_from_slice(a);
        row[inner] += da;
        let (mut points, mut rows) = (0u64, 0u64);
        loop {
            debug_assert!(
                lex_cmp(&row[..inner], &b[..inner]) != Ordering::Greater,
                "span overran its last row"
            );
            let last = row[..inner] == b[..inner];
            let hi = if last {
                b[inner] + db
            } else {
                upper.eval(&row)
            };
            if row[inner] <= hi {
                let n = hi - row[inner] + 1;
                for s in 0..self.addrs.len() {
                    let base = self.addrs[s].eval(&row);
                    self.progression(base, self.stride_in[s], n, sign);
                }
                points += n as u64;
                rows += 1;
            }
            // The successor of a row's last point opens the next nonempty
            // row.
            row[inner] = hi;
            if last || !space.advance(&mut row) {
                break;
            }
        }
        self.row_buf = row;
        (points, rows)
    }

    /// Rebuilds the window state for endpoints `p` (source, exclusive) and
    /// `i` (destination, exclusive) from scratch: one span, aggregated row
    /// by row.
    fn rebuild(&mut self, space: &IterationSpace<'_>, p: &[i64], i: &[i64]) {
        self.clear_counts();
        let (points, rows) = self.span(space, p, 1, i, -1, 1);
        self.interior_pts = points;
        self.stats.rebuilds += 1;
        self.stats.rebuild_rows += rows;
        self.src.copy_from_slice(p);
        self.dst.copy_from_slice(i);
        self.valid = true;
    }

    /// Moves the window to the destination `i_next` (source `i_next − r`).
    /// When the new window overlaps or touches the current one (its source
    /// is at most the current destination), the span from the current
    /// destination up to `i_next` enters and the span past the current
    /// source through the new source leaves — entering first, so no access
    /// is removed before it is present. Otherwise, or when the state is
    /// invalid or a target lies behind an endpoint, it rebuilds.
    fn advance_to(&mut self, space: &IterationSpace<'_>, i_next: &[i64], r: &[i64]) {
        let mut tgt = std::mem::take(&mut self.tgt_src);
        for l in 0..i_next.len() {
            tgt[l] = i_next[l] - r[l];
        }
        if !self.valid
            || lex_cmp(&self.dst, i_next) == Ordering::Greater
            || lex_cmp(&self.src, &tgt) == Ordering::Greater
            || lex_cmp(&tgt, &self.dst) == Ordering::Greater
        {
            self.rebuild(space, &tgt, i_next);
            self.tgt_src = tgt;
            return;
        }
        let (src, mut dst) = (std::mem::take(&mut self.src), std::mem::take(&mut self.dst));
        let (entered, _) = self.span(space, &dst, 0, i_next, -1, 1);
        let (left, _) = self.span(space, &src, 1, &tgt, 0, -1);
        self.interior_pts = self.interior_pts + entered - left;
        self.stats.steps += entered;
        dst.copy_from_slice(i_next);
        (self.src, self.dst, self.tgt_src) = (tgt, dst, src);
    }

    /// Positions the window at destination `i` (source `i − r`) and arms
    /// the per-reference address accumulators for
    /// [`SlidingWindow::step_in_segment`].
    pub(crate) fn begin_segment(&mut self, space: &IterationSpace<'_>, i: &[i64], r: &[i64]) {
        self.advance_to(space, i, r);
        for s in 0..self.addrs.len() {
            self.src_addr[s] = self.addrs[s].eval(&self.src);
            self.dst_addr[s] = self.addrs[s].eval(&self.dst);
        }
    }

    /// Slides an armed window forward `delta` innermost steps in one shot —
    /// the run-batched mirror of [`SlidingWindow::step_in_segment`] for
    /// the gap between two scan runs in the same row. The caller
    /// guarantees the lockstep condition over the whole stretch: both
    /// endpoints stay inside their current innermost rows, so every
    /// intermediate point is a space point. Entering and leaving accesses
    /// are applied as whole arithmetic progressions (word-parallel on the
    /// dense tier) and the per-reference address accumulators stay armed;
    /// gap-one windows (empty interior) move with no multiset traffic at
    /// all, since the entering stretch *is* the leaving stretch.
    pub(crate) fn slide_by(&mut self, delta: i64) {
        debug_assert!(delta > 0);
        let inner = self.dst.len() - 1;
        if self.interior_pts > 0 {
            for s in 0..self.addrs.len() {
                let (base, st) = (self.dst_addr[s], self.stride_in[s]);
                self.progression(base, st, delta, 1);
            }
            for s in 0..self.addrs.len() {
                let (base, st) = (self.src_addr[s] + self.stride_in[s], self.stride_in[s]);
                self.progression(base, st, delta, -1);
            }
        }
        for s in 0..self.addrs.len() {
            self.src_addr[s] += self.stride_in[s] * delta;
            self.dst_addr[s] += self.stride_in[s] * delta;
        }
        self.src[inner] += delta;
        self.dst[inner] += delta;
        self.stats.steps += delta as u64;
    }

    /// Slides one innermost step inside a classified scan segment, where
    /// the lockstep condition holds by construction (both endpoints stay in
    /// their rows for the whole segment — see the run classifier). Costs
    /// O(references) address additions; no space checks, no affine
    /// evaluation, and no multiset traffic at all for gap-one windows.
    pub(crate) fn step_in_segment(&mut self) {
        let inner = self.dst.len() - 1;
        if self.interior_pts > 0 {
            for s in 0..self.addrs.len() {
                self.add_line(self.geom.line(self.dst_addr[s]), 1);
            }
            for s in 0..self.addrs.len() {
                let line = self.geom.line(self.src_addr[s] + self.stride_in[s]);
                self.remove_line(line, 1);
            }
        }
        for s in 0..self.addrs.len() {
            self.src_addr[s] += self.stride_in[s];
            self.dst_addr[s] += self.stride_in[s];
        }
        self.src[inner] += 1;
        self.dst[inner] += 1;
        self.stats.steps += 1;
    }
}

/// Accesses `q ∈ [0, count)` of the progression `base + stride·q`
/// (`0 < stride ≤ Ls`) that land on `line`, i.e. with
/// `line·Ls ≤ base + stride·q < (line+1)·Ls`. Unit strides, the common
/// contiguous case, take no division.
#[inline]
fn accesses_on_line(line: i64, ls: i64, base: i64, stride: i64, count: i64) -> i64 {
    let (first, last) = (line * ls - base, (line + 1) * ls - 1 - base);
    let (lo, hi) = if stride == 1 {
        (first, last)
    } else {
        (ceil_div(first, stride), floor_div(last, stride))
    };
    hi.min(count - 1) - lo.max(0) + 1
}

/// First step `q` at which the progression `base + stride·q` has left
/// `line` in its direction of travel (`≥ (line+1)·Ls` climbing, `< line·Ls`
/// descending), or `i64::MAX` for a temporal (stride-0) reference. When
/// `line` is the line at step `t`, the result is the first step after `t`
/// on another line; at `t = 0` it is the number of steps spent on `line`.
#[inline]
pub(crate) fn next_line_crossing(base: i64, stride: i64, line: i64, ls: i64) -> i64 {
    match stride.cmp(&0) {
        Ordering::Equal => i64::MAX,
        Ordering::Greater => ceil_div((line + 1) * ls - base, stride),
        Ordering::Less => ceil_div(base + 1 - line * ls, -stride),
    }
}

/// `⌈a / b⌉` for positive `b`.
fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    -floor_div(-a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Scanner;
    use cme_ir::{AccessKind, LoopNest, NestBuilder};

    fn nest3() -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 6).ct_loop("k", 1, 5).ct_loop("j", 1, 7);
        let z = b.array("Z", &[8, 8], 0);
        let x = b.array("X", &[8, 8], 64);
        b.reference(z, AccessKind::Read, &[("j", 0), ("i", 0)]);
        b.reference(x, AccessKind::Read, &[("k", 0), ("j", 0)]);
        b.reference(z, AccessKind::Write, &[("j", 0), ("i", 0)]);
        b.build().unwrap()
    }

    /// Reference window census: per-point evaluation of every access
    /// strictly between `p` and `i`.
    fn naive_counts(
        nest: &LoopNest,
        cache: &CacheConfig,
        addrs: &[Affine],
        p: &[i64],
        i: &[i64],
    ) -> HashMap<i64, u64> {
        let mut counts = HashMap::new();
        nest.space().for_each_between(p, i, |q| {
            for af in addrs {
                *counts.entry(cache.memory_line(af.eval(q))).or_insert(0) += 1;
            }
            true
        });
        counts
    }

    fn addrs_of(nest: &LoopNest) -> Vec<Affine> {
        nest.references()
            .iter()
            .map(|r| nest.address_affine(r.id()))
            .collect()
    }

    fn assert_window_matches(
        w: &SlidingWindow<'_>,
        nest: &LoopNest,
        cache: &CacheConfig,
        addrs: &[Affine],
        p: &[i64],
        i: &[i64],
    ) {
        let naive = naive_counts(nest, cache, addrs, p, i);
        let mut per_set = vec![0u32; cache.num_sets() as usize];
        for &line in naive.keys() {
            per_set[modulo(line, cache.num_sets()) as usize] += 1;
        }
        for (&line, &n) in &naive {
            assert_eq!(w.counts.count_of(line), n, "line {line} at i={i:?}");
        }
        assert_eq!(
            w.counts.distinct_len(),
            naive.len(),
            "extra lines at i={i:?}"
        );
        assert_eq!(w.distinct_per_set, per_set, "per-set tallies at i={i:?}");
    }

    #[test]
    fn rebuild_matches_naive_census() {
        let nest = nest3();
        let cache = CacheConfig::new(256, 1, 16, 4).unwrap();
        let addrs = addrs_of(&nest);
        let space = nest.space();
        // Both multiset backings: `new` stays sparse, `new_for_space`
        // picks the dense array for this nest's small line span.
        for mut w in [
            SlidingWindow::new(&cache, &addrs, 3),
            SlidingWindow::new_for_space(&cache, &addrs, &space),
        ] {
            for (p, i) in [
                ([1, 1, 2], [1, 1, 3]), // empty window
                ([1, 1, 1], [1, 1, 7]), // same row
                ([1, 1, 4], [1, 3, 2]), // row boundary
                ([1, 4, 6], [3, 2, 2]), // prefix boundary
            ] {
                w.rebuild(&space, &p, &i);
                assert_window_matches(&w, &nest, &cache, &addrs, &p, &i);
            }
        }
    }

    #[test]
    fn stepping_tracks_full_rebuild_along_a_vector() {
        let nest = nest3();
        let cache = CacheConfig::new(256, 1, 16, 4).unwrap();
        let addrs = addrs_of(&nest);
        let space = nest.space();
        for r in [[0i64, 0, 1], [0, 1, 0], [0, 1, -3], [1, 0, 0]] {
            let mut w = SlidingWindow::new(&cache, &addrs, 3);
            let mut sp = nest.space();
            while let Some(i) = sp.next_point() {
                let p: Vec<i64> = i.iter().zip(&r).map(|(a, b)| a - b).collect();
                if !space.contains(&p) {
                    continue;
                }
                w.advance_to(&space, &i, &r);
                assert_window_matches(&w, &nest, &cache, &addrs, &p, &i);
            }
            assert!(w.stats.steps > 0, "vector {r:?} never stepped");
        }
    }

    /// A space whose innermost rows are empty wherever `k > i + 4`
    /// (`i ∈ [1,6]`, `k ∈ [1,7]`, `j ∈ [k, i+4]`): the first two planes
    /// end in empty rows.
    fn ragged_nest() -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 6).ct_loop("k", 1, 7);
        b.affine_loop("j", Affine::var(3, 1), Affine::var(3, 0).offset(4));
        let z = b.array("Z", &[12, 12], 0);
        let x = b.array("X", &[12, 12], 144);
        b.reference(z, AccessKind::Read, &[("j", 0), ("i", 0)]);
        b.reference(x, AccessKind::Read, &[("k", 0), ("j", 0)]);
        b.reference(z, AccessKind::Write, &[("j", 0), ("k", 0)]);
        b.build().unwrap()
    }

    /// Windows moved across rows and planes of a triangular and a ragged
    /// space, every few destinations at a time, on both multiset tiers:
    /// after every `advance_to` the window matches the census and a window
    /// rebuilt at the same endpoints, tally for tally and line for line.
    #[test]
    fn spans_cross_rows_and_planes_like_rebuilds() {
        let caches = [
            CacheConfig::new(256, 1, 16, 4),
            CacheConfig::new(256, 2, 16, 4),
            CacheConfig::new(512, 8, 16, 4),
            CacheConfig::fully_associative(256, 16, 4),
        ]
        .map(|c| c.unwrap());
        let (mut crossed_rows, mut crossed_planes) = (0u64, 0u64);
        for nest in [cme_kernels::gauss(10), ragged_nest()] {
            let addrs = addrs_of(&nest);
            let space = nest.space();
            let mut pts = Vec::new();
            let mut sp = nest.space();
            while let Some(q) = sp.next_point() {
                pts.push(q);
            }
            for cache in &caches {
                for r in [[0i64, 1, -7], [1, 0, 0], [1, -1, 2], [0, 2, -3]] {
                    for stride in [1, 3, 7] {
                        for mut w in [
                            SlidingWindow::new(cache, &addrs, 3),
                            SlidingWindow::new_for_space(cache, &addrs, &space),
                        ] {
                            let mut fresh = SlidingWindow::new_for_space(cache, &addrs, &space);
                            for i in pts.iter().step_by(stride) {
                                let p: Vec<i64> = i.iter().zip(&r).map(|(a, b)| a - b).collect();
                                if !space.contains(&p) {
                                    continue;
                                }
                                let (rebuilds, from) = (w.stats.rebuilds, w.dst.clone());
                                w.advance_to(&space, i, &r);
                                assert_window_matches(&w, &nest, cache, &addrs, &p, i);
                                fresh.rebuild(&space, &p, i);
                                assert_eq!(
                                    w.distinct_per_set, fresh.distinct_per_set,
                                    "{r:?} at {i:?}"
                                );
                                assert_eq!(
                                    w.counts.members(),
                                    fresh.counts.members(),
                                    "{r:?} at {i:?}"
                                );
                                assert_eq!(w.interior_pts, fresh.interior_pts, "{r:?} at {i:?}");
                                if w.stats.rebuilds == rebuilds {
                                    crossed_rows += u64::from(from[..2] != i[..2]);
                                    crossed_planes += u64::from(from[0] != i[0]);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            crossed_rows > 0 && crossed_planes > 0,
            "no span crossed a row and a plane"
        );
    }

    #[test]
    fn dense_tier_saturates_into_spill_and_drains_back() {
        let nest = nest3();
        let cache = CacheConfig::new(256, 1, 16, 4).unwrap();
        let addrs = addrs_of(&nest);
        let space = nest.space();
        let mut w = SlidingWindow::new_for_space(&cache, &addrs, &space);
        assert!(matches!(w.counts, LineMultiset::Dense { .. }));
        let line = 1;
        // Climb across the u8 tier boundary in pieces: below, exactly at,
        // and far beyond saturation.
        w.add_line(line, 254);
        assert_eq!(w.counts.count_of(line), 254);
        w.add_line(line, 1); // lands exactly on SAT: no spill entry yet
        assert_eq!(w.counts.count_of(line), 255);
        w.add_line(line, 1000); // overflow spills
        assert_eq!(w.counts.count_of(line), 1255);
        assert_eq!(w.counts.distinct_len(), 1);
        // Drain in chunks that stay in the spill, then cross back into
        // the fast tier, then empty the line.
        w.remove_line(line, 500);
        assert_eq!(w.counts.count_of(line), 755);
        w.remove_line(line, 600);
        assert_eq!(w.counts.count_of(line), 155);
        assert!(w.contains_line(line));
        w.remove_line(line, 155);
        assert_eq!(w.counts.count_of(line), 0);
        assert!(!w.contains_line(line));
        assert_eq!(w.counts.distinct_len(), 0);
        assert_eq!(w.distinct_per_set[w.geom.set_of_line(line) as usize], 0);
        // A cleared window must forget the spilled tier too.
        w.add_line(line, 5000);
        assert_eq!(w.counts.count_of(line), 5000);
        w.clear_counts();
        assert_eq!(w.counts.count_of(line), 0);
        assert_eq!(w.counts.distinct_len(), 0);
        assert!(!w.contains_line(line));
    }

    #[test]
    fn query_agrees_with_scanner_distinct_count() {
        let nest = nest3();
        let cache = CacheConfig::new(128, 2, 16, 4).unwrap();
        let addrs = addrs_of(&nest);
        let space = nest.space();
        let dest_addr = addrs[2].clone();
        let r = [0i64, 1, 0];
        let mut w = SlidingWindow::new(&cache, &addrs, 3);
        let mut sp = nest.space();
        let mut checked = 0u64;
        while let Some(i) = sp.next_point() {
            let p: Vec<i64> = i.iter().zip(&r).map(|(a, b)| a - b).collect();
            if !space.contains(&p) {
                continue;
            }
            w.advance_to(&space, &i, &r);
            let a_dest = dest_addr.eval(&i);
            let (dset, dline) = (cache.cache_set(a_dest), cache.memory_line(a_dest));
            // Exact-mode Scanner over the same interior (no side accesses).
            let mut scanner = Scanner::new(&cache, &addrs, cache.assoc() as usize, true);
            scanner.reset(dset, dline);
            crate::solve::scan_interior(&mut scanner, &space, &p, &i);
            assert_eq!(
                w.distinct_excluding(dset, dline),
                scanner.distinct.len() as u64,
                "at i={i:?}"
            );
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn geom_mappings_agree_with_reference_for_all_signs() {
        // floor_div/modulo are the definition (`CacheConfig::memory_line`
        // uses them directly); the shift/mask mapping must agree on every
        // address, negatives included.
        for (ls, ns) in [(1, 1), (2, 16), (4, 8), (8, 1), (1, 32), (16, 2), (32, 64)] {
            let g = Geom::from_parts(ls, ns);
            for addr in -3 * ls * ns..=3 * ls * ns {
                let line = g.line(addr);
                assert_eq!(line, floor_div(addr, ls), "line of {addr} at Ls={ls}");
                assert_eq!(
                    g.set_of_line(line),
                    modulo(line, ns),
                    "set of line {line} at Ns={ns}"
                );
            }
        }
    }

    /// High-associativity window coverage: k=8 (4 sets) and fully
    /// associative (1 set) geometries, stepping along reuse vectors with
    /// the census and the exact-mode [`Scanner`] as oracles.
    #[test]
    fn window_tracks_rebuild_at_k8_and_full_associativity() {
        let nest = nest3();
        let addrs = addrs_of(&nest);
        let space = nest.space();
        for cache in [
            CacheConfig::new(512, 8, 16, 4).unwrap(),
            CacheConfig::fully_associative(256, 16, 4).unwrap(),
        ] {
            let k = cache.assoc() as usize;
            let dest_addr = addrs[2].clone();
            for r in [[0i64, 0, 1], [0, 1, 0], [1, 0, 0]] {
                let mut w = SlidingWindow::new_for_space(&cache, &addrs, &space);
                let mut sp = nest.space();
                let mut stepped = false;
                while let Some(i) = sp.next_point() {
                    let p: Vec<i64> = i.iter().zip(&r).map(|(a, b)| a - b).collect();
                    if !space.contains(&p) {
                        continue;
                    }
                    let before = w.stats.steps;
                    w.advance_to(&space, &i, &r);
                    stepped |= w.stats.steps > before;
                    assert_window_matches(&w, &nest, &cache, &addrs, &p, &i);
                    let a_dest = dest_addr.eval(&i);
                    let (dset, dline) = (cache.cache_set(a_dest), cache.memory_line(a_dest));
                    let mut scanner = Scanner::new(&cache, &addrs, k, true);
                    scanner.reset(dset, dline);
                    crate::solve::scan_interior(&mut scanner, &space, &p, &i);
                    assert_eq!(
                        w.distinct_excluding(dset, dline),
                        scanner.distinct.len() as u64,
                        "k={k} at i={i:?}"
                    );
                }
                assert!(stepped, "k={k} vector {r:?} never stepped");
            }
        }
    }

    mod props {
        use super::*;
        use cme_testgen::{arb_cache, arb_nest, triangular, CaseRng, NestDistribution};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Random power-of-two geometry parts (the only ones a
            /// [`CacheConfig`] yields): the shift/mask mapping must agree
            /// with the floored-division / Euclidean-modulo reference on
            /// every address.
            #[test]
            fn geom_agrees_with_generic_reference(
                ls_log in 0u32..=6,
                ns_log in 0u32..=9,
                addr in -1_000_000i64..=1_000_000,
            ) {
                let (ls, ns) = (1i64 << ls_log, 1i64 << ns_log);
                let g = Geom::from_parts(ls, ns);
                let line = g.line(addr);
                prop_assert_eq!(line, floor_div(addr, ls));
                prop_assert_eq!(g.set_of_line(line), modulo(line, ns));
            }

            /// On random nests (rectangular, or made triangular by a seed),
            /// caches, and reuse vectors, the delta scanner's distinct count
            /// agrees with both interior scans (row-aggregated and
            /// pointwise) at every surviving destination, across span
            /// moves and rebuilds.
            #[test]
            fn delta_scan_matches_interior_scans(
                nest in arb_nest(NestDistribution::default()),
                make_triangular in proptest::bool::ANY,
                shape_seed in 0u64..u64::MAX,
                cache in arb_cache(),
                a in 0usize..4096,
                b in 0usize..4096,
            ) {
                let nest = if make_triangular {
                    triangular(&nest, &mut CaseRng::new(shape_seed))
                } else {
                    nest
                };
                let addrs = addrs_of(&nest);
                let space = nest.space();
                let mut pts: Vec<Vec<i64>> = Vec::new();
                let mut sp = nest.space();
                while let Some(q) = sp.next_point() {
                    pts.push(q.to_vec());
                    if pts.len() >= 600 {
                        break;
                    }
                }
                let (a, b) = (a % pts.len(), b % pts.len());
                prop_assume!(a != b);
                // A lex-positive vector joining two random space points.
                let (src, dst) = (&pts[a.min(b)], &pts[a.max(b)]);
                let r: Vec<i64> = dst.iter().zip(src).map(|(x, y)| x - y).collect();
                let dest_addr = addrs[addrs.len() - 1].clone();
                let k = cache.assoc() as usize;
                // `new_for_space` picks the dense multiset whenever the
                // nest's line span allows — the same choice the engine
                // makes — so this property covers both backings.
                let mut w = SlidingWindow::new_for_space(&cache, &addrs, &space);
                for i in &pts {
                    let p: Vec<i64> = i.iter().zip(&r).map(|(x, y)| x - y).collect();
                    if !space.contains(&p) {
                        continue;
                    }
                    w.advance_to(&space, i, &r);
                    let a_dest = dest_addr.eval(i);
                    let (dset, dline) =
                        (cache.cache_set(a_dest), cache.memory_line(a_dest));
                    let mut rowwise = Scanner::new(&cache, &addrs, k, true);
                    rowwise.reset(dset, dline);
                    crate::solve::scan_interior(&mut rowwise, &space, &p, i);
                    let mut pointwise = Scanner::new(&cache, &addrs, k, true);
                    pointwise.reset(dset, dline);
                    crate::solve::scan_interior_pointwise(&mut pointwise, &space, &p, i);
                    prop_assert_eq!(rowwise.distinct.len(), pointwise.distinct.len());
                    prop_assert_eq!(
                        w.distinct_excluding(dset, dline),
                        rowwise.distinct.len() as u64
                    );
                }
            }
        }
    }
}
