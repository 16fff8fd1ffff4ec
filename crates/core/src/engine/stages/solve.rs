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
//! Vectors that leave every survivor cold are settled without a walk, from
//! one per-residue-class summary of the set ([`ColdCert`]).
//!
//! A [`SolveSet`] depends only on the nest structure, the options, and
//! the destination's own line offset `B mod Ls` — which is exactly what
//! the driver keys it by, letting candidates that merely move *other*
//! arrays reuse it outright.

use cme_cache::CacheConfig;
use cme_ir::{IterationSpace, LoopNest};
use cme_math::gcd::{floor_div, gcd, modulo};
use cme_math::Affine;
use cme_reuse::ReuseVector;

use crate::governor::QueryGovernor;
use crate::pointset::SurvivorSet;
use crate::solve::AnalysisOptions;
use crate::window::next_line_crossing;

use super::lower::LoweredNest;

/// One reuse vector's slice of a reference's refinement: how many points
/// entered, how many stayed indeterminate (cold-CME solutions), and the
/// set of points whose reuse windows must be scanned (run-compressed or
/// dense per the density estimate), `None` exactly when that set is empty
/// — every settled or all-cold vector, so they hold no set in the memo.
#[derive(Debug, Clone)]
pub(crate) struct SolvedVector {
    pub(crate) examined: u64,
    pub(crate) cold_solutions: u64,
    pub(crate) scan_set: Option<Box<SurvivorSet>>,
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

impl<'a> RunClassifier<'a> {
    fn new(
        nest: &'a LoopNest,
        ls: i64,
        dest_addr: &'a Affine,
        src_addr: &'a Affine,
        rv: &'a ReuseVector,
        dense: bool,
    ) -> Self {
        let depth = nest.depth();
        let r = rv.vector();
        RunClassifier {
            space: nest.space(),
            ls,
            dest_addr,
            src_addr,
            r,
            r_in: r[depth - 1],
            intra: rv.is_intra_iteration(),
            buf: vec![0i64; depth],
            sbuf: vec![0i64; depth],
            p_prefix: vec![0i64; depth - 1],
            next: SurvivorSet::new(depth, dense),
            scan: SurvivorSet::new(depth, dense),
            cold: 0,
            have_prefix: false,
            d0: 0,
            sd: 0,
            s0: 0,
            ss: 0,
            src_live: None,
        }
    }

    /// Classifies every point of `set` (`None`: the whole space, one row
    /// at a time), with a governor checkpoint every 64 rows/runs; `None`
    /// when the governor abandoned the walk.
    fn walk(mut self, set: Option<&SurvivorSet>, gov: &QueryGovernor) -> Option<Self> {
        match set {
            None => {
                let inner = self.buf.len() - 1;
                let space = self.space.clone();
                let mut rows = 0u64;
                let mut pfx = space.first().map(|f| f[..inner].to_vec());
                while let Some(pr) = pfx {
                    if rows & 63 == 0 && !gov.live() {
                        return None;
                    }
                    rows += 1;
                    if let Some((lo, hi)) = space.innermost_bounds(&pr) {
                        self.classify(&pr, lo, hi);
                    }
                    pfx = space.prefix_successor(&pr);
                }
            }
            Some(set) => {
                for (ri, run) in set.runs().enumerate() {
                    if ri & 63 == 0 && !gov.live() {
                        return None;
                    }
                    self.classify(run.prefix, run.lo, run.hi);
                }
            }
        }
        Some(self)
    }

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
        let mut nd = next_line_crossing(d0, sd, ld, self.ls);
        let mut ns = next_line_crossing(s0, ss, lsrc, self.ls);
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
                    nd = next_line_crossing(d0, sd, ld, self.ls);
                }
            }
            if t == ns {
                if ps != 0 {
                    lsrc += ss.signum();
                    ns += ps;
                } else {
                    lsrc = floor_div(s0 + ss * t, self.ls);
                    ns = next_line_crossing(s0, ss, lsrc, self.ls);
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

/// Residues `ρ = dest(i⃗) mod Ls` at which a destination can share its
/// line with its source. With a constant gap `δ` the source address is
/// `dest − δ`, on the same `Ls`-aligned line exactly when `ρ ≥ δ`
/// (`0 ≤ δ < Ls`) resp. `ρ < Ls + δ` (`−Ls < δ < 0`), and never when
/// `|δ| ≥ Ls`; a varying gap can share at any residue.
fn shared_residues(delta: Option<i64>, ls: i64) -> std::ops::Range<usize> {
    let (lo, hi) = match delta {
        None => (0, ls),
        Some(d) if d.abs() >= ls => (0, 0),
        Some(d) if d >= 0 => (d, ls),
        Some(d) => (0, ls + d),
    };
    lo as usize..hi as usize
}

/// The all-cold certificate of one reference's refinement: settles a
/// reuse vector without walking the survivor set when every survivor is
/// certainly cold along it.
///
/// A survivor `i⃗` is cold when its source `i⃗ − r⃗` lies outside the space
/// or on another line. The space is the conjunction of its `2·depth`
/// loop-bound constraints `g(x⃗) ≥ 0` (`x_l − lower_l(x⃗)` and
/// `upper_l(x⃗) − x_l`), and `g(i⃗ − r⃗) = g(i⃗) − lin(g)·r⃗`. So the set is
/// summarized, per residue class `ρ = dest(i⃗) mod Ls`, by the max of each
/// constraint over the class's points, and a vector is settled when every
/// nonempty class at a [`shared_residues`] residue has a constraint whose
/// max is below `lin(g)·r⃗`: there every source falls outside the space,
/// and at every other residue the lines differ. A nonempty class's maxima
/// are all ≥ 0 (its points are in the space), so an intra-iteration
/// vector (`r⃗ = 0`) is settled only when no shared class is nonempty.
struct ColdCert<'a> {
    dest_addr: &'a Affine,
    ls: i64,
    bounds: Vec<Affine>,
    /// `lin(g)·r⃗` per constraint, for the vector being certified.
    shift: Vec<i64>,
    /// `class_max[ρ·bounds.len() + k]`: the max of constraint `k` over the
    /// survivors in class `ρ` (`i64::MIN` when the class is empty). Built
    /// at most once per survivor set, when a vector first needs it.
    class_max: Option<Vec<i64>>,
}

impl<'a> ColdCert<'a> {
    fn new(nest: &LoopNest, dest_addr: &'a Affine, ls: i64) -> Self {
        let depth = nest.depth();
        let bounds: Vec<Affine> = nest
            .loops()
            .iter()
            .enumerate()
            .flat_map(|(l, lp)| {
                let x = Affine::var(depth, l);
                [x.sub(lp.lower()), lp.upper().sub(&x)]
            })
            .collect();
        ColdCert {
            dest_addr,
            ls,
            shift: vec![0; bounds.len()],
            bounds,
            class_max: None,
        }
    }

    /// True when every point of `set` is certainly cold along `r⃗` from the
    /// source reference with address `src_addr`.
    fn settles(&mut self, set: &SurvivorSet, src_addr: &Affine, r: &[i64]) -> bool {
        let shared = shared_residues(const_delta(self.dest_addr, src_addr, r), self.ls);
        if shared.is_empty() {
            return true;
        }
        for (s, g) in self.shift.iter_mut().zip(&self.bounds) {
            *s = g.delta_along(r);
        }
        let n = self.bounds.len();
        let class_max = self
            .class_max
            .get_or_insert_with(|| summarize(set, self.dest_addr, &self.bounds, self.ls));
        shared.into_iter().all(|rho| {
            class_max[rho * n..(rho + 1) * n]
                .iter()
                .zip(&self.shift)
                .any(|(&mx, &s)| mx < s)
        })
    }

    /// The survivor set changed: its summary no longer holds.
    fn invalidate(&mut self) {
        self.class_max = None;
    }
}

/// The per-class constraint maxima of [`ColdCert`]. Along a run the
/// residue advances by `dest`'s innermost coefficient mod `Ls`, so it
/// repeats with a period dividing `Ls`; each of the run's first `period`
/// points stands for its class's points in the run, of which a
/// constraint peaks at the last (innermost coefficient > 0) or the first.
fn summarize(set: &SurvivorSet, dest: &Affine, bounds: &[Affine], ls: i64) -> Vec<i64> {
    let n = bounds.len();
    let inner = dest.nvars() - 1;
    let sd = dest.coeff(inner);
    let step = modulo(sd, ls);
    let period = if step == 0 { 1 } else { ls / gcd(step, ls) };
    let slope: Vec<i64> = bounds.iter().map(|g| g.coeff(inner)).collect();
    let mut class_max = vec![i64::MIN; ls as usize * n];
    // Constraint values and destination address at `(prefix, 0)`, kept
    // across the runs of one row.
    let mut buf = vec![0i64; inner + 1];
    let mut at0 = vec![0i64; n];
    let mut d0 = 0;
    let mut have_prefix = false;
    for run in set.runs() {
        if !have_prefix || buf[..inner] != *run.prefix {
            have_prefix = true;
            buf[..inner].copy_from_slice(run.prefix);
            for (v, g) in at0.iter_mut().zip(bounds) {
                *v = g.eval(&buf);
            }
            d0 = dest.eval(&buf);
        }
        let mut rho = modulo(d0 + sd * run.lo, ls);
        for first in run.lo..=run.hi.min(run.lo + period - 1) {
            let last = first + (run.hi - first) / period * period;
            let row = &mut class_max[rho as usize * n..(rho as usize + 1) * n];
            for ((mx, &v), &c) in row.iter_mut().zip(&at0).zip(&slope) {
                *mx = (*mx).max(v + c * if c > 0 { last } else { first });
            }
            rho += step;
            if rho >= ls {
                rho -= ls;
            }
        }
    }
    class_max
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
    let dest_addr = &addrs[dest_idx];
    let ls = cache.line_elems();
    let total_points = nest.space().count();
    let mut c: Option<SurvivorSet> = None;
    let mut vectors = Vec::new();
    let mut early_stopped = false;
    let mut truncated = false;
    let mut cert = ColdCert::new(nest, dest_addr, ls);
    for rv in rvs {
        let examined = match &c {
            Some(set) => set.len(),
            None => total_points,
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
        let src_addr = &addrs[rv.source().index()];
        if c.as_ref()
            .is_some_and(|set| cert.settles(set, src_addr, rv.vector()))
        {
            // Every survivor misses cold: the set is untouched, so its
            // summary stays valid for the next vector too.
            vectors.push(SolvedVector {
                examined,
                cold_solutions: examined,
                scan_set: None,
            });
            continue;
        }
        // Representation choice for this scan's output sets: dense rows
        // once the incoming survivors are at least a 1/Ls fraction of the
        // space — below that, run compression stores the same set in less
        // memory than one bit per space point.
        let dense = examined.saturating_mul(ls as u64) >= total_points;
        let cls = RunClassifier::new(nest, ls, dest_addr, src_addr, rv, dense);
        // An abandoned walk discards its partial classification (the
        // previous survivor set stays the final one, every point of it a
        // miss — sound).
        let Some(cls) = cls.walk(c.as_ref(), gov) else {
            truncated = true;
            gov.note_truncated(examined);
            break;
        };
        gov.charge(examined);
        // An all-cold walk reproduces the set run for run; anything else
        // changed it and voids its summary.
        if cls.cold != examined {
            cert.invalidate();
        }
        vectors.push(SolvedVector {
            examined,
            cold_solutions: cls.cold,
            scan_set: (!cls.scan.is_empty()).then(|| Box::new(cls.scan)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::Budget;
    use cme_ir::RefId;
    use cme_reuse::{reuse_vectors, ReuseOptions};
    use cme_testgen::{random_cache, random_nest, triangular, CaseRng, NestDistribution};

    /// Runs the refinement of every reference of `nest` the way [`build`]
    /// does, but walks each vector the certificate settles anyway and
    /// asserts that the walk resolves no point. Returns how many vectors
    /// were settled, and how many of those had a nonempty residue class
    /// that could share a line (settled by the loop-bound constraints).
    fn walk_settled_vectors(nest: &LoopNest, cache: &CacheConfig) -> (usize, usize) {
        let lowered = super::super::lower::lower(nest).expect("nest lowers");
        let gov = QueryGovernor::new(Budget::unlimited(), None);
        let ls = cache.line_elems();
        let (mut settled, mut by_bounds) = (0, 0);
        for (dest, dest_addr) in lowered.addrs.iter().enumerate() {
            let mut cert = ColdCert::new(nest, dest_addr, ls);
            let mut c: Option<SurvivorSet> = None;
            let rvs = reuse_vectors(
                nest,
                cache,
                RefId::from_index(dest),
                &ReuseOptions::default(),
            );
            for rv in &rvs {
                let src_addr = &lowered.addrs[rv.source().index()];
                let cls = RunClassifier::new(nest, ls, dest_addr, src_addr, rv, false)
                    .walk(c.as_ref(), &gov)
                    .expect("an unlimited walk is never abandoned");
                if let Some(set) = &c {
                    if cert.settles(set, src_addr, rv.vector()) {
                        assert_eq!(
                            cls.cold,
                            set.len(),
                            "{} on {cache}: reference {dest}, vector {rv} settled, but \
                             its walk resolves {} of {} points",
                            nest.name(),
                            set.len() - cls.cold,
                            set.len()
                        );
                        settled += 1;
                        let shared =
                            shared_residues(const_delta(dest_addr, src_addr, rv.vector()), ls);
                        let n = cert.bounds.len();
                        if let Some(class_max) = &cert.class_max {
                            if shared.into_iter().any(|rho| class_max[rho * n] != i64::MIN) {
                                by_bounds += 1;
                            }
                        }
                        continue;
                    }
                    if cls.cold != set.len() {
                        cert.invalidate();
                    }
                }
                c = Some(cls.next);
            }
        }
        (settled, by_bounds)
    }

    #[test]
    fn settled_vectors_leave_every_survivor_cold() {
        let caches = [
            CacheConfig::new(1024, 1, 32, 4),
            CacheConfig::new(1024, 2, 16, 4),
            CacheConfig::new(2048, 4, 32, 4),
            CacheConfig::new(2048, 8, 32, 8),
            CacheConfig::fully_associative(1024, 32, 4),
        ]
        .map(|c| c.expect("valid geometry"));
        let mut settled = 0;
        for nest in cme_kernels::table1_suite(16) {
            for cache in &caches {
                settled += walk_settled_vectors(&nest, cache).0;
            }
        }
        assert!(settled > 0, "the Table-1 suite settled no vector");

        let (mut settled, mut by_bounds) = (0, 0);
        for seed in 0..120 {
            let mut rng = CaseRng::new(seed);
            let nest = random_nest(&mut rng, &NestDistribution::default());
            let nest = triangular(&nest, &mut rng);
            let cache = random_cache(&mut rng);
            let (s, b) = walk_settled_vectors(&nest, &cache);
            settled += s;
            by_bounds += b;
        }
        assert!(settled > 0, "the seeded nests settled no vector");
        assert!(
            by_bounds > 0,
            "no seeded vector was settled by a loop bound"
        );
    }
}
