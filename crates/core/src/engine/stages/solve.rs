//! Stage 3 — **solve**: the cold/indeterminate refinement of one
//! reference — the classification half of Figure 6, §3.1's cold CMEs —
//! with the points needing window scans recorded per vector instead of
//! scanned inline.
//!
//! Survivor sets are [`SurvivorSet`]s — run-compressed or flat dense,
//! picked per scan by a density estimate from the reuse plan; both
//! enumerate points in the same lexicographic order, so the
//! classification is bit-identical either way. Sets are classified segment-wise, never point by point: along an
//! innermost run the destination and source lines are floors of affine
//! functions of the innermost index, so the verdict can only flip at
//! computable line-boundary crossings — and when the stride divides the
//! line size those crossings are periodic and advance by pure increments.
//! Vectors with a constant destination–source address gap are certified
//! all-cold in O(1) without touching the survivor runs at all
//! ([`ColdCerts`]).
//!
//! A [`SolveSet`] depends only on the nest structure, the options, and
//! the destination's own line offset `B mod Ls` — which is exactly what
//! the driver keys it by, letting candidates that merely move *other*
//! arrays reuse it outright.

use cme_cache::CacheConfig;
use cme_ir::{IterationSpace, LoopNest};
use cme_math::gcd::{floor_div, gcd, modulo};
use cme_math::{Affine, Interval};
use cme_reuse::ReuseVector;

use crate::governor::QueryGovernor;
use crate::pointset::SurvivorSet;
use crate::solve::AnalysisOptions;

use super::lower::LoweredNest;

/// One reuse vector's slice of a reference's refinement: how many points
/// entered, how many stayed indeterminate (cold-CME solutions), and the
/// set of points whose reuse windows must be scanned (run-compressed or
/// dense per the density estimate).
#[derive(Debug, Clone)]
pub(crate) struct SolvedVector {
    pub(crate) examined: u64,
    pub(crate) cold_solutions: u64,
    pub(crate) scan_set: SurvivorSet,
}

/// A reference's full cold/indeterminate refinement (Figure 6 minus the
/// window scans), reusable across every candidate layout that preserves
/// the nest structure and the reference's own `B mod Ls`.
#[derive(Debug, Clone)]
pub(crate) struct SolveSet {
    pub(crate) vectors: Vec<SolvedVector>,
    /// Indeterminate set after the last processed vector; `None` when no
    /// vector ran (no reuse, or `ε` at least the whole space).
    pub(crate) final_set: Option<SurvivorSet>,
    pub(crate) early_stopped: bool,
    /// The governor stopped the refinement early; the entry is a sound
    /// overcount and must never enter the memo tables.
    pub(crate) truncated: bool,
}

/// First innermost index `t' > t` at which `⌊(base + stride·t')/Ls⌋`
/// differs from `cur_line`, or `i64::MAX` when the line never changes.
fn next_line_crossing(base: i64, stride: i64, t: i64, cur_line: i64, ls: i64) -> i64 {
    match stride.cmp(&0) {
        std::cmp::Ordering::Equal => i64::MAX,
        // Increasing: first t' with base + stride·t' ≥ (cur+1)·Ls.
        std::cmp::Ordering::Greater => crate::window::ceil_div((cur_line + 1) * ls - base, stride),
        // Decreasing: first t' with base + stride·t' ≤ cur·Ls − 1.
        std::cmp::Ordering::Less => crate::window::ceil_div(base + 1 - cur_line * ls, -stride),
    }
    .max(t + 1)
}

/// Splits the cold/scan verdict of one survivor run into maximal
/// constant-verdict segments: along a run the destination and source lines
/// are floors of affine functions of the innermost index, so the verdict
/// can only flip at computable line-boundary crossings, and the membership
/// of the source point `p⃗` is a single interval of the innermost index.
struct RunClassifier<'a> {
    space: IterationSpace<'a>,
    ls: i64,
    dest_addr: &'a Affine,
    src_addr: &'a Affine,
    r: &'a [i64],
    r_in: i64,
    intra: bool,
    buf: Vec<i64>,
    sbuf: Vec<i64>,
    p_prefix: Vec<i64>,
    next: SurvivorSet,
    scan: SurvivorSet,
    cold: u64,
    // Per-prefix state, hoisted across consecutive runs that share a
    // prefix (the common shape for strided survivor sets: many short
    // runs per row). `buf[..inner]` doubles as the cached-prefix key.
    have_prefix: bool,
    d0: i64,
    sd: i64,
    s0: i64,
    ss: i64,
    /// Innermost interval (already shifted by `r_in`) where the source
    /// point is in the space; `None` means the whole row's sources are
    /// out of space. Unused for intra-iteration vectors.
    src_live: Option<(i64, i64)>,
}

impl RunClassifier<'_> {
    fn classify(&mut self, prefix: &[i64], lo: i64, hi: i64) {
        let inner = self.buf.len() - 1;
        if !self.have_prefix || self.buf[..inner] != *prefix {
            self.have_prefix = true;
            self.buf[..inner].copy_from_slice(prefix);
            self.buf[inner] = 0;
            self.d0 = self.dest_addr.eval(&self.buf);
            self.sd = self.dest_addr.coeff(inner);
            for (l, p) in prefix.iter().enumerate().take(inner) {
                self.p_prefix[l] = p - self.r[l];
            }
            // Innermost interval where the source p⃗ = i⃗ − r⃗ is in the
            // space (intra-iteration reuse skips the membership test,
            // matching the reference oracle).
            self.src_live = if self.intra {
                None
            } else if self.space.contains_prefix(&self.p_prefix) {
                self.space
                    .innermost_bounds(&self.p_prefix)
                    .map(|(plo, phi)| (plo + self.r_in, phi + self.r_in))
            } else {
                None
            };
            // Source line along the run: src(t) = src_addr(p_prefix, t − r_in).
            self.ss = self.src_addr.coeff(inner);
            self.sbuf[..inner].copy_from_slice(&self.p_prefix);
            self.sbuf[inner] = 0;
            self.s0 = self.src_addr.eval(&self.sbuf) - self.ss * self.r_in;
        }
        let (a, b) = if self.intra {
            (lo, hi)
        } else {
            let live = self.src_live.and_then(|(plo, phi)| {
                let a = plo.max(lo);
                let b = phi.min(hi);
                (a <= b).then_some((a, b))
            });
            match live {
                None => {
                    // Source out of space for the whole run: all cold.
                    self.cold += (hi - lo + 1) as u64;
                    self.next.push_run(prefix, lo, hi);
                    return;
                }
                Some((a, b)) => {
                    if lo < a {
                        self.cold += (a - lo) as u64;
                        self.next.push_run(prefix, lo, a - 1);
                    }
                    (a, b)
                }
            }
        };
        let (d0, sd, s0, ss) = (self.d0, self.sd, self.s0, self.ss);
        // Single-point run: one verdict, no crossing computations.
        if a == b {
            if floor_div(d0 + sd * a, self.ls) != floor_div(s0 + ss * a, self.ls) {
                self.cold += 1;
                self.next.push_run(prefix, a, a);
            } else {
                self.scan.push_run(prefix, a, a);
            }
            if b < hi {
                self.cold += (hi - b) as u64;
                self.next.push_run(prefix, b + 1, hi);
            }
            return;
        }
        let mut t = a;
        let mut ld = floor_div(d0 + sd * t, self.ls);
        let mut lsrc = floor_div(s0 + ss * t, self.ls);
        let mut nd = next_line_crossing(d0, sd, t, ld, self.ls);
        let mut ns = next_line_crossing(s0, ss, t, lsrc, self.ls);
        // A stride dividing Ls crosses a line boundary exactly every
        // Ls/|stride| steps, moving the line by ±1 — crossings after the
        // first advance by pure increments, no divisions (the common
        // unit-stride shape). Other strides recompute per crossing.
        let pd = if sd != 0 && self.ls % sd == 0 {
            self.ls / sd.abs()
        } else {
            0
        };
        let ps = if ss != 0 && self.ls % ss == 0 {
            self.ls / ss.abs()
        } else {
            0
        };
        loop {
            let seg_end = nd.min(ns).min(b + 1);
            if lsrc != ld {
                self.cold += (seg_end - t) as u64;
                self.next.push_run(prefix, t, seg_end - 1);
            } else {
                self.scan.push_run(prefix, t, seg_end - 1);
            }
            if seg_end > b {
                break;
            }
            t = seg_end;
            if t == nd {
                if pd != 0 {
                    ld += sd.signum();
                    nd += pd;
                } else {
                    ld = floor_div(d0 + sd * t, self.ls);
                    nd = next_line_crossing(d0, sd, t, ld, self.ls);
                }
            }
            if t == ns {
                if ps != 0 {
                    lsrc += ss.signum();
                    ns += ps;
                } else {
                    lsrc = floor_div(s0 + ss * t, self.ls);
                    ns = next_line_crossing(s0, ss, t, lsrc, self.ls);
                }
            }
        }
        if b < hi {
            self.cold += (hi - b) as u64;
            self.next.push_run(prefix, b + 1, hi);
        }
    }
}

/// Constant destination–source address gap along reuse vector `r⃗`:
/// `dest(i⃗) − src(i⃗ − r⃗)` is independent of `i⃗` exactly when the two
/// references share coefficients, and then equals `Δc + Σ_l coeff_l·r_l`.
fn const_delta(dest: &Affine, src: &Affine, r: &[i64]) -> Option<i64> {
    (dest.coeffs() == src.coeffs())
        .then(|| dest.constant_term() - src.constant_term() + src.delta_along(r))
}

/// Facts about one survivor set that certify reuse vectors all-cold in
/// O(1), computed lazily and valid only while the set is unchanged (an
/// all-cold vector leaves it unchanged, so certified vectors keep the
/// certificates of the set they were certified against).
#[derive(Default)]
struct ColdCerts {
    /// `max(hi − plo(prefix))` over the runs: a purely-innermost reuse
    /// distance beyond this puts every source point below its row.
    reach: Option<i64>,
    /// Range of `dest_addr mod Ls` over the set's points.
    mod_range: Option<(i64, i64)>,
    /// Per-dimension coordinate range over the set's points.
    coord_ranges: Option<Vec<(i64, i64)>>,
}

impl ColdCerts {
    /// True when some dimension pushes every source point `i⃗ − r⃗` outside
    /// the space's bounding box — out of the space for certain, so every
    /// point of `set` is cold.
    fn source_outside(&mut self, r: &[i64], bbox: &[Interval], set: &SurvivorSet) -> bool {
        let ranges = self
            .coord_ranges
            .get_or_insert_with(|| coord_ranges(set, r.len()));
        ranges
            .iter()
            .zip(bbox)
            .zip(r)
            .any(|((&(mn, mx), iv), &rd)| mx - rd < iv.lo || mn - rd > iv.hi)
    }

    /// True when every point of `set` is certainly cold for a vector whose
    /// destination–source address gap is the constant `delta`.
    #[allow(clippy::too_many_arguments)]
    fn all_cold(
        &mut self,
        delta: i64,
        intra: bool,
        r: &[i64],
        ls: i64,
        space: &IterationSpace,
        dest_addr: &Affine,
        set: &SurvivorSet,
    ) -> bool {
        if delta == 0 {
            // Source and destination share a line at every point; cold only
            // if the source falls out of the space everywhere, decidable
            // when the vector is purely innermost (row membership becomes
            // `t − r_in ≥ plo`).
            let inner = r.len() - 1;
            if intra || r[inner] <= 0 || r[..inner].iter().any(|&x| x != 0) {
                return false;
            }
            let reach = *self.reach.get_or_insert_with(|| compute_reach(space, set));
            r[inner] > reach
        } else if delta.abs() >= ls {
            // Addresses `a` and `a − δ` can share a `Ls`-aligned line only
            // when `|δ| < Ls`.
            true
        } else {
            // Same line ⟺ `a mod Ls ≥ δ` (δ > 0) resp. `< Ls + δ` (δ < 0):
            // cold everywhere when the residue range stays clear of that.
            let (mn, mx) = *self
                .mod_range
                .get_or_insert_with(|| compute_mod_range(dest_addr, set, ls));
            if delta > 0 {
                mx < delta
            } else {
                mn >= ls + delta
            }
        }
    }
}

/// Min/max of every coordinate over the points of `set`.
fn coord_ranges(set: &SurvivorSet, depth: usize) -> Vec<(i64, i64)> {
    let inner = depth - 1;
    let mut ranges = vec![(i64::MAX, i64::MIN); depth];
    for run in set.runs() {
        for (range, &x) in ranges[..inner].iter_mut().zip(run.prefix) {
            range.0 = range.0.min(x);
            range.1 = range.1.max(x);
        }
        ranges[inner].0 = ranges[inner].0.min(run.lo);
        ranges[inner].1 = ranges[inner].1.max(run.hi);
    }
    ranges
}

/// `max(hi − plo(prefix))` over the runs of `set`, or `i64::MAX` (no
/// certificate) when a row's bounds are unavailable.
fn compute_reach(space: &IterationSpace, set: &SurvivorSet) -> i64 {
    let mut reach = i64::MIN;
    for run in set.runs() {
        match space.innermost_bounds(run.prefix) {
            Some((plo, _)) => reach = reach.max(run.hi - plo),
            None => return i64::MAX,
        }
    }
    reach
}

/// Min/max of `addr mod Ls` over the points of `set`, walking at most one
/// residue period per run.
fn compute_mod_range(addr: &Affine, set: &SurvivorSet, ls: i64) -> (i64, i64) {
    let inner = addr.nvars() - 1;
    let step = modulo(addr.coeff(inner), ls);
    let period = if step == 0 { 1 } else { ls / gcd(step, ls) };
    let mut buf = vec![0i64; addr.nvars()];
    let (mut mn, mut mx) = (i64::MAX, i64::MIN);
    for run in set.runs() {
        buf[..inner].copy_from_slice(run.prefix);
        buf[inner] = run.lo;
        let mut m = modulo(addr.eval(&buf), ls);
        for _ in 0..(run.hi - run.lo + 1).min(period) {
            mn = mn.min(m);
            mx = mx.max(m);
            m += step;
            if m >= ls {
                m -= ls;
            }
        }
        if mn == 0 && mx == ls - 1 {
            break; // saturated: no tighter range possible
        }
    }
    (mn, mx)
}

/// Runs the refinement for one reference. Governor checkpoints sit at the
/// vector boundaries (plus mid-vector checks every 64 rows/runs); a dead
/// budget leaves the current survivors as the final set, every point a
/// miss — the same sound-overcount shape as ε early stopping.
pub(crate) fn build(
    nest: &LoopNest,
    lowered: &LoweredNest,
    cache: &CacheConfig,
    dest_idx: usize,
    rvs: &[ReuseVector],
    options: &AnalysisOptions,
    gov: &QueryGovernor,
) -> SolveSet {
    let addrs = &lowered.addrs;
    let depth = nest.depth();
    let inner = depth - 1;
    let space = nest.space();
    let dest_addr = &addrs[dest_idx];
    let total_points = space.count();
    let mut c: Option<SurvivorSet> = None;
    let mut vectors = Vec::new();
    let mut early_stopped = false;
    let mut truncated = false;
    let mut certs = ColdCerts::default();
    let bbox = space.bounding_box();
    for rv in rvs {
        let examined = match &c {
            Some(set) => set.len(),
            None => space.count(),
        };
        if examined <= options.epsilon {
            early_stopped = c.is_some() && examined > 0;
            break;
        }
        // Governor checkpoint (after the ε check, so full-budget runs take
        // the exact same branches): a dead budget or an over-ceiling
        // survivor set stops the refinement here; the current survivors
        // stay the final set and count as misses — the same sound-overcount
        // shape as ε early stopping.
        if !gov.admit_points(examined) || !gov.live() {
            truncated = true;
            gov.note_truncated(examined);
            break;
        }
        let r = rv.vector();
        if let Some(set) = &c {
            let certified = (!rv.is_intra_iteration() && certs.source_outside(r, &bbox, set))
                || const_delta(dest_addr, &addrs[rv.source().index()], r).is_some_and(|delta| {
                    certs.all_cold(
                        delta,
                        rv.is_intra_iteration(),
                        r,
                        cache.line_elems(),
                        &space,
                        dest_addr,
                        set,
                    )
                });
            if certified {
                // Every survivor misses cold: the set is untouched, so the
                // certificates stay valid for the next vector too.
                vectors.push(SolvedVector {
                    examined,
                    cold_solutions: examined,
                    scan_set: SurvivorSet::new(depth, false),
                });
                continue;
            }
        }
        // Representation choice for this scan's output sets: dense rows
        // once the incoming survivors are at least a 1/Ls fraction of the
        // space — below that, run compression stores the same set in less
        // memory than one bit per space point.
        let dense = examined.saturating_mul(cache.line_elems() as u64) >= total_points;
        let mut cls = RunClassifier {
            space: nest.space(),
            ls: cache.line_elems(),
            dest_addr,
            src_addr: &addrs[rv.source().index()],
            r,
            r_in: r[inner],
            intra: rv.is_intra_iteration(),
            buf: vec![0i64; depth],
            sbuf: vec![0i64; depth],
            p_prefix: vec![0i64; inner],
            next: SurvivorSet::new(depth, dense),
            scan: SurvivorSet::new(depth, dense),
            cold: 0,
            have_prefix: false,
            d0: 0,
            sd: 0,
            s0: 0,
            ss: 0,
            src_live: None,
        };
        // Mid-vector checkpoints every 64 rows/runs: an abandoned walk
        // discards its partial classification (the previous survivor set
        // stays the final one, every point of it a miss — sound).
        let mut abandoned = false;
        match &c {
            None => {
                // Whole space, one row at a time.
                let mut rows = 0u64;
                let mut pfx = space.first().map(|f| f[..inner].to_vec());
                while let Some(pr) = pfx {
                    if rows & 63 == 0 && !gov.live() {
                        abandoned = true;
                        break;
                    }
                    rows += 1;
                    if let Some((lo, hi)) = space.innermost_bounds(&pr) {
                        cls.classify(&pr, lo, hi);
                    }
                    pfx = space.prefix_successor(&pr);
                }
            }
            Some(set) => {
                for (ri, run) in set.runs().enumerate() {
                    if ri & 63 == 0 && !gov.live() {
                        abandoned = true;
                        break;
                    }
                    cls.classify(run.prefix, run.lo, run.hi);
                }
            }
        }
        if abandoned {
            truncated = true;
            gov.note_truncated(examined);
            break;
        }
        gov.charge(examined);
        // An all-cold walk reproduces the set run for run; anything else
        // changed it and voids the memoized certificates.
        if cls.cold != examined {
            certs = ColdCerts::default();
        }
        vectors.push(SolvedVector {
            examined,
            cold_solutions: cls.cold,
            scan_set: cls.scan,
        });
        c = Some(cls.next);
    }
    SolveSet {
        vectors,
        final_set: c,
        early_stopped,
        truncated,
    }
}
