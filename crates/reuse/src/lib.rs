//! Reuse-vector analysis for the Cache Miss Equation framework.
//!
//! A reference reuses a memory line when it (or a *uniformly generated*
//! sibling reference) touched the same line at an earlier iteration; the
//! vector difference of the two iteration points is a **reuse vector**
//! (Section 2.4 of the paper, after Wolf & Lam). Every cold and replacement
//! miss equation is formed *along* one reuse vector, so the completeness of
//! this set governs the precision of the whole analysis: a missing vector
//! can only make the CME count conservative (too high), never too low.
//!
//! This crate computes, for each destination reference:
//!
//! - **self-temporal** vectors: the integer kernel of the access matrix;
//! - **self-spatial** vectors: kernel vectors of the access matrix with the
//!   fastest-varying (first, column-major) subscript dropped, filtered to
//!   address deltas smaller than a line;
//! - **group-temporal / group-spatial** vectors between uniformly generated
//!   references (same array, same subscript linear parts), obtained by
//!   solving `L·r⃗ = c⃗_src − c⃗_dest`;
//! - **extended** vectors — the paper's addition (e.g. `(0,1,−7)` for
//!   matmul with 8-element lines): combinations `t⃗ + m·s⃗` of a temporal
//!   vector and a spatial direction whose net address delta still fits
//!   within one line.
//!
//! # Example
//!
//! ```
//! use cme_cache::CacheConfig;
//! use cme_ir::{AccessKind, NestBuilder};
//! use cme_reuse::{reuse_vectors, ReuseOptions};
//!
//! // The paper's matmul nest, Z(j,i) load (Figure 8 uses line size 8).
//! let mut b = NestBuilder::new();
//! b.ct_loop("i", 1, 8).ct_loop("k", 1, 8).ct_loop("j", 1, 8);
//! let z = b.array("Z", &[8, 8], 0);
//! let zl = b.reference(z, AccessKind::Read, &[("j", 0), ("i", 0)]);
//! let nest = b.build().unwrap();
//! let cfg = CacheConfig::new(8192, 1, 32, 4)?; // 8 elements per line
//!
//! let rvs = reuse_vectors(&nest, &cfg, zl, &ReuseOptions::default());
//! let vecs: Vec<&[i64]> = rvs.iter().map(|r| r.vector()).collect();
//! assert!(vecs.contains(&&[0, 0, 1][..]));  // self-spatial r1
//! assert!(vecs.contains(&&[0, 1, -7][..])); // extended r2
//! assert!(vecs.contains(&&[0, 1, 0][..]));  // self-temporal r3
//! # Ok::<(), cme_cache::CacheConfigError>(())
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

use cme_cache::CacheConfig;
use cme_ir::{Affine, LoopNest, RefId};
use cme_math::diophantine::solve_linear_form;
use cme_math::lexi::{is_lex_positive, is_zero, lex_cmp};
use cme_math::matrix::kernel_lattice_of_form;
use std::cmp::Ordering;
use std::fmt;

/// Classification of a reuse vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReuseKind {
    /// Same reference, same address (kernel of the access matrix).
    SelfTemporal,
    /// Same reference, same memory line but different address.
    SelfSpatial,
    /// Different (uniformly generated) reference, same address.
    GroupTemporal,
    /// Different (uniformly generated) reference, same memory line.
    GroupSpatial,
}

impl fmt::Display for ReuseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReuseKind::SelfTemporal => write!(f, "self-temporal"),
            ReuseKind::SelfSpatial => write!(f, "self-spatial"),
            ReuseKind::GroupTemporal => write!(f, "group-temporal"),
            ReuseKind::GroupSpatial => write!(f, "group-spatial"),
        }
    }
}

/// A reuse vector `r⃗` for a destination reference: the *source* reference
/// accessed (part of) the same memory line at iteration `i⃗ − r⃗`.
///
/// The zero vector is legal only for group reuse where the source executes
/// earlier in the same iteration (smaller statement index).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReuseVector {
    vector: Vec<i64>,
    source: RefId,
    kind: ReuseKind,
    /// Constant address delta `Mem_dest(i⃗) − Mem_src(i⃗ − r⃗)`.
    delta: i64,
}

impl ReuseVector {
    /// Creates a reuse vector. Exposed so callers (tests, the Figure 8
    /// harness) can hand the solver an explicit vector set.
    pub fn new(vector: Vec<i64>, source: RefId, kind: ReuseKind, delta: i64) -> Self {
        ReuseVector {
            vector,
            source,
            kind,
            delta,
        }
    }

    /// The vector itself (outermost loop first).
    pub fn vector(&self) -> &[i64] {
        &self.vector
    }

    /// The reference that performed the earlier access.
    pub fn source(&self) -> RefId {
        self.source
    }

    /// Temporal/spatial, self/group.
    pub fn kind(&self) -> ReuseKind {
        self.kind
    }

    /// The constant address difference between the destination access and
    /// the source access along this vector (`0` for temporal reuse, less
    /// than a line for spatial reuse).
    pub fn delta(&self) -> i64 {
        self.delta
    }

    /// `true` when the source access is in the same iteration (zero vector).
    pub fn is_intra_iteration(&self) -> bool {
        is_zero(&self.vector)
    }
}

impl fmt::Display for ReuseVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}) {} from {}",
            self.vector
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.kind,
            self.source
        )
    }
}

/// Which reuse vectors to generate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseOptions {
    /// Generate group reuse between uniformly generated references.
    pub group: bool,
    /// Generate the paper's extended vectors (`t⃗ + m·s⃗`).
    pub extended: bool,
}

impl Default for ReuseOptions {
    fn default() -> Self {
        ReuseOptions {
            group: true,
            extended: true,
        }
    }
}

/// Cap on the number of vectors returned (lexicographically smallest —
/// i.e. most recent — vectors win): the precision-vs-time bound of
/// Section 4.1.
const MAX_VECTORS: usize = 16_384;

/// Cap on candidate vectors *examined* during generation; enumeration
/// visits small (recent) lattice shifts first, so exhausting the budget
/// drops only long-distance reuse.
const CANDIDATE_BUDGET: usize = 400_000;

/// Computes the reuse vectors of `dest`, sorted in lexicographically
/// increasing order (the processing order of the miss-finding algorithm,
/// Figure 6), with intra-iteration (zero-vector) group reuse first and, for
/// equal vectors, later-statement sources first (they are more recent).
///
/// The returned set is *sound but not necessarily complete*: every returned
/// vector is a genuine reuse direction; directions not returned only make
/// the downstream miss count conservative.
///
/// Over a **rectangular** iteration space, vectors that are provably
/// redundant for the lex-ordered refinement (Figure 6) are dropped: a
/// vector `r₂` whose constant address gap equals that of an earlier
/// (lex-smaller) vector `r₁` lying componentwise between `0⃗` and `r₂` can
/// never classify a point the earlier vector did not — same gap means the
/// same same-line condition, and betweenness makes
/// `i⃗ − r₂ ∈ space ⇒ i⃗ − r₁ ∈ space`. Dropping them changes no miss
/// count; it only skips dead refinement walks. Other spaces keep every
/// vector, since there the implication fails.
pub fn reuse_vectors(
    nest: &LoopNest,
    cache: &CacheConfig,
    dest: RefId,
    options: &ReuseOptions,
) -> Vec<ReuseVector> {
    generate(nest, cache, dest, options, nest.space().is_rectangular())
}

/// [`reuse_vectors`], dropping dominated vectors exactly when `prune`.
fn generate(
    nest: &LoopNest,
    cache: &CacheConfig,
    dest: RefId,
    options: &ReuseOptions,
    prune: bool,
) -> Vec<ReuseVector> {
    let depth = nest.depth();
    let line = cache.line_elems();
    let dest_addr = nest.address_affine(dest);
    let widths: Vec<i64> = nest
        .space()
        .bounding_box()
        .iter()
        .map(|b| if b.is_empty() { 0 } else { b.hi - b.lo })
        .collect();

    // Candidates are collected flat and deduplicated after the final sort
    // (equal `(vector, source)` keys land adjacent): a per-candidate
    // ordered-set probe was the dominant generation cost, and duplicates
    // are rare by construction — one vector solves `lin·v = d − shift`
    // for exactly one `d` per source.
    let mut out: Vec<ReuseVector> = Vec::new();
    let mut budget = CANDIDATE_BUDGET;
    // Every vector emitted for one `(source, d)` pair shares the constant
    // gap `d` (the lattice shifts lie in the kernel of the address form),
    // so the dominance rule applies within the family as candidates
    // stream by — the spiral visits near-zero shifts first, which are
    // exactly the dominators, keeping the family list tiny and skipping
    // the allocation for the O(extent) dominated tail.
    let mut family: Vec<Vec<i64>> = Vec::new();

    for src in nest.references() {
        let is_self = src.id() == dest;
        if !is_self && (!options.group || !nest.uniformly_generated(src.id(), dest)) {
            continue;
        }
        let src_addr = nest.address_affine(src.id());
        // Uniform generation makes the linear parts identical, so the
        // address delta along any vector v is the constant
        //   shift + lin·v,  shift = const_dest − const_src.
        let shift = dest_addr.constant_term() - src_addr.constant_term();
        let lin = src_addr.coeffs().to_vec();
        let (basis, pivots) = kernel_lattice_of_form(&lin);
        let t_clip = if options.extended { i64::MAX } else { 1 };

        // For every achievable same-line address delta d (|d| < Ls), the
        // reuse directions are the integer solutions of lin·v = d − shift
        // within the loop-extent box: one particular solution plus kernel
        // lattice shifts (this uniformly generates temporal, spatial,
        // group, and the paper's "extended" vectors).
        'dloop: for d in -(line - 1)..=(line - 1) {
            let rhs = d - shift;
            let Some(part) = solve_linear_form(&lin, rhs) else {
                continue;
            };
            family.clear();
            let mut emit = |v: &[i64]| -> bool {
                let dominated = prune
                    && family
                        .iter()
                        .any(|r1| lex_cmp(r1, v) == Ordering::Less && componentwise_between(r1, v));
                if !dominated
                    && push_candidate(
                        dest,
                        src.id(),
                        &dest_addr,
                        &src_addr,
                        line,
                        depth,
                        v,
                        &mut out,
                    )
                    && prune
                {
                    family.push(v.to_vec());
                }
                budget = budget.saturating_sub(1);
                budget > 0
            };
            if !enumerate_lattice(&part, &basis, &pivots, &widths, t_clip, &mut emit) {
                break 'dloop;
            }
        }
        if budget == 0 {
            break;
        }
    }

    sort_reuse_vectors(&mut out);
    out.dedup_by(|a, b| a.vector == b.vector && a.source == b.source);
    if prune {
        prune_dominated(&mut out);
    }
    out.truncate(MAX_VECTORS);
    out
}

/// Removes vectors dominated under the rectangular-space rule documented
/// on [`reuse_vectors`]. `out` must already be in final
/// processing order: the refinement examines a shrinking survivor chain,
/// so an earlier vector with the same constant gap sees a superset of any
/// later vector's points — every point the later vector would send to a
/// window scan (same line, source in space) was already sent by the
/// earlier one, leaving the later vector an all-cold no-op.
fn prune_dominated(out: &mut Vec<ReuseVector>) {
    let mut kept: Vec<(i64, Vec<i64>)> = Vec::new();
    out.retain(|rv| {
        let dominated = kept.iter().any(|(delta, r1)| {
            *delta == rv.delta
                && r1.iter().zip(&rv.vector).all(|(&a, &b)| {
                    // `a` componentwise between 0 and `b`.
                    if b >= 0 {
                        0 <= a && a <= b
                    } else {
                        b <= a && a <= 0
                    }
                })
        });
        if !dominated {
            kept.push((rv.delta, rv.vector.clone()));
        }
        !dominated
    });
}

/// `true` when `a` lies componentwise between `0⃗` and `b`.
fn componentwise_between(a: &[i64], b: &[i64]) -> bool {
    a.iter()
        .zip(b)
        .all(|(&x, &y)| (0.min(y)..=0.max(y)).contains(&x))
}

/// Validates and records one candidate reuse vector; returns whether it
/// was accepted.
#[allow(clippy::too_many_arguments)]
fn push_candidate(
    dest: RefId,
    source: RefId,
    dest_addr: &Affine,
    src_addr: &Affine,
    line: i64,
    depth: usize,
    vector: &[i64],
    out: &mut Vec<ReuseVector>,
) -> bool {
    if vector.len() != depth {
        return false;
    }
    // Direction must be lexicographically non-negative; zero only for
    // earlier statements in the same iteration.
    if is_zero(vector) {
        if source.index() >= dest.index() {
            return false;
        }
    } else if !is_lex_positive(vector) {
        return false;
    }
    let delta =
        (dest_addr.constant_term() - src_addr.constant_term()) + src_addr.delta_along(vector);
    if delta.abs() >= line {
        return false; // can never touch the same memory line
    }
    let kind = match (source == dest, delta == 0) {
        (true, true) => ReuseKind::SelfTemporal,
        (true, false) => ReuseKind::SelfSpatial,
        (false, true) => ReuseKind::GroupTemporal,
        (false, false) => ReuseKind::GroupSpatial,
    };
    out.push(ReuseVector::new(vector.to_vec(), source, kind, delta));
    true
}

/// Depth-first enumeration of `part + Σ tᵢ·basis[i]` with every component
/// bounded by the loop-extent widths, visiting shift magnitudes near zero
/// first. Returns `false` when `emit` asks to stop (budget exhausted).
fn enumerate_lattice(
    part: &[i64],
    basis: &[Vec<i64>],
    pivots: &[usize],
    widths: &[i64],
    t_clip: i64,
    emit: &mut impl FnMut(&[i64]) -> bool,
) -> bool {
    // A component settled at level `idx` — touched by `basis[idx]` but by
    // no later basis vector — yields an exact interval constraint on this
    // level's t. Intersecting over *all* settled components (not just the
    // pivot) prunes entire subtrees: a vector like (1, 0, −N) would
    // otherwise spin O(extent) t-values at its level only to have the
    // −N·t component reject every leaf.
    let settled: Vec<Vec<usize>> = (0..basis.len())
        .map(|idx| {
            (0..part.len())
                .filter(|&c| {
                    basis[idx][c] != 0 && basis[idx + 1..].iter().all(|later| later[c] == 0)
                })
                .collect()
        })
        .collect();
    debug_assert!(
        pivots
            .iter()
            .zip(&settled)
            .all(|(p, s)| basis.is_empty() || s.contains(p) || s.is_empty()),
        "echelon pivots should be settled at their own level"
    );
    fn rec(
        cur: &mut Vec<i64>,
        idx: usize,
        basis: &[Vec<i64>],
        settled: &[Vec<usize>],
        widths: &[i64],
        t_clip: i64,
        emit: &mut impl FnMut(&[i64]) -> bool,
    ) -> bool {
        if idx == basis.len() {
            if cur.iter().zip(widths).all(|(v, w)| v.abs() <= *w) {
                return emit(cur);
            }
            return true;
        }
        let b = &basis[idx];
        let mut lo = -t_clip;
        let mut hi = t_clip;
        for &c in &settled[idx] {
            let bc = b[c];
            let w = widths[c];
            // |cur[c] + t·bc| <= w  =>  (−w − cur[c])/bc {<=,>=} t {<=,>=} (w − cur[c])/bc.
            let (q_low, q_high) = (-w - cur[c], w - cur[c]);
            let (c_lo, c_hi) = if bc > 0 {
                (
                    cme_math::diophantine::ceil_div(q_low, bc),
                    cme_math::gcd::floor_div(q_high, bc),
                )
            } else {
                (
                    cme_math::diophantine::ceil_div(q_high, bc),
                    cme_math::gcd::floor_div(q_low, bc),
                )
            };
            lo = lo.max(c_lo);
            hi = hi.min(c_hi);
        }
        if lo > hi {
            return true;
        }
        // Visit t near zero first so budget exhaustion keeps the most
        // recent (small) vectors.
        for t in spiral(lo, hi) {
            for (c, bv) in cur.iter_mut().zip(b) {
                *c += t * bv;
            }
            let keep_going = rec(cur, idx + 1, basis, settled, widths, t_clip, emit);
            for (c, bv) in cur.iter_mut().zip(b) {
                *c -= t * bv;
            }
            if !keep_going {
                return false;
            }
        }
        true
    }
    let mut cur = part.to_vec();
    rec(&mut cur, 0, basis, &settled, widths, t_clip, emit)
}

/// Yields `0`-adjacent values first: the t in `[lo, hi]` closest to zero,
/// then alternating outward.
fn spiral(lo: i64, hi: i64) -> impl Iterator<Item = i64> {
    let start = 0i64.clamp(lo, hi);
    let mut offset = 0i64;
    let mut side = false;
    std::iter::from_fn(move || {
        loop {
            let cand = if side { start - offset } else { start + offset };
            // Advance state.
            if side {
                side = false;
                offset += 1;
            } else {
                side = true;
            }
            if offset > (hi - lo) + 1 {
                return None;
            }
            if (lo..=hi).contains(&cand) {
                return Some(cand);
            }
        }
    })
}

/// Sorts reuse vectors into the miss-finding processing order: increasing
/// lexicographic vector; for equal vectors, later (more recent) source
/// statements first.
pub fn sort_reuse_vectors(vectors: &mut [ReuseVector]) {
    vectors.sort_by(|a, b| match lex_cmp(&a.vector, &b.vector) {
        Ordering::Equal => b.source.index().cmp(&a.source.index()),
        o => o,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{AccessKind, NestBuilder};

    fn table1_cache() -> CacheConfig {
        CacheConfig::new(8192, 1, 32, 4).unwrap()
    }

    fn matmul(n: i64) -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, n).ct_loop("k", 1, n).ct_loop("j", 1, n);
        let z = b.array("Z", &[n, n], 4192);
        let x = b.array("X", &[n, n], 2136);
        let y = b.array("Y", &[n, n], 96);
        b.reference(z, AccessKind::Read, &[("j", 0), ("i", 0)]);
        b.reference(x, AccessKind::Read, &[("k", 0), ("i", 0)]);
        b.reference(y, AccessKind::Read, &[("j", 0), ("k", 0)]);
        b.reference(z, AccessKind::Write, &[("j", 0), ("i", 0)]);
        b.build().unwrap()
    }

    #[test]
    fn matmul_z_load_has_paper_vectors() {
        let nest = matmul(32);
        let z_load = nest.references()[0].id();
        let rvs = reuse_vectors(&nest, &table1_cache(), z_load, &ReuseOptions::default());
        let has = |v: &[i64]| rvs.iter().any(|r| r.vector() == v);
        assert!(has(&[0, 0, 1]), "self-spatial r1");
        assert!(has(&[0, 1, -7]), "extended r2");
        assert!(has(&[0, 1, 0]), "self-temporal r3");
        // Sorted lexicographically increasing.
        for w in rvs.windows(2) {
            assert!(lex_cmp(w[0].vector(), w[1].vector()) != Ordering::Greater);
        }
        // Zero-vector group reuse must NOT appear for the load (store is later).
        assert!(!rvs.iter().any(|r| r.is_intra_iteration()));
    }

    #[test]
    fn matmul_z_store_reuses_the_load_intra_iteration() {
        let nest = matmul(32);
        let z_load = nest.references()[0].id();
        let z_store = nest.references()[3].id();
        let rvs = reuse_vectors(&nest, &table1_cache(), z_store, &ReuseOptions::default());
        let zero = rvs
            .iter()
            .find(|r| r.is_intra_iteration())
            .expect("store should reuse the load at distance 0");
        assert_eq!(zero.source(), z_load);
        assert_eq!(zero.kind(), ReuseKind::GroupTemporal);
        assert_eq!(zero.delta(), 0);
        // And it must come first in processing order.
        assert!(rvs[0].is_intra_iteration());
    }

    #[test]
    fn kinds_are_classified() {
        let nest = matmul(32);
        let z_load = nest.references()[0].id();
        // Pruning keeps only the most recent source of each constant-gap
        // family; skip it here to inspect the full classification.
        let rvs = generate(
            &nest,
            &table1_cache(),
            z_load,
            &ReuseOptions::default(),
            false,
        );
        let kind_of = |v: &[i64], src: RefId| {
            rvs.iter()
                .find(|r| r.vector() == v && r.source() == src)
                .map(|r| r.kind())
        };
        assert_eq!(kind_of(&[0, 1, 0], z_load), Some(ReuseKind::SelfTemporal));
        assert_eq!(kind_of(&[0, 0, 1], z_load), Some(ReuseKind::SelfSpatial));
        assert_eq!(kind_of(&[0, 1, -7], z_load), Some(ReuseKind::SelfSpatial));
        // For the same vector (0,1,0) the Z store — a later statement, hence
        // a more recent access — sorts before the self-reuse entry.
        let z_store = nest.references()[3].id();
        let first_010 = rvs.iter().find(|r| r.vector() == [0, 1, 0]).unwrap();
        assert_eq!(first_010.source(), z_store);
        assert_eq!(first_010.kind(), ReuseKind::GroupTemporal);
    }

    #[test]
    fn pruning_drops_dominated_same_gap_vectors_only() {
        let nest = matmul(32);
        let z_load = nest.references()[0].id();
        let z_store = nest.references()[3].id();
        let pruned = reuse_vectors(&nest, &table1_cache(), z_load, &ReuseOptions::default());
        let full = generate(
            &nest,
            &table1_cache(),
            z_load,
            &ReuseOptions::default(),
            false,
        );
        assert!(
            pruned.len() < full.len(),
            "matmul's constant-gap families must shrink ({} vs {})",
            pruned.len(),
            full.len()
        );
        // Every pruned vector is dominated: an earlier survivor shares its
        // gap and lies componentwise between the origin and the vector.
        for rv in &full {
            if pruned.contains(rv) {
                continue;
            }
            assert!(
                pruned.iter().any(|r1| {
                    r1.delta() == rv.delta()
                        && lex_cmp(r1.vector(), rv.vector()) != Ordering::Greater
                        && r1
                            .vector()
                            .iter()
                            .zip(rv.vector())
                            .all(|(&a, &b)| (0.min(b)..=0.max(b)).contains(&a))
                }),
                "{rv} was pruned without a dominator"
            );
        }
        // The paper's vectors survive, with the store (more recent) as the
        // kept source of the (0,1,0) family.
        assert!(pruned.iter().any(|r| r.vector() == [0, 0, 1]));
        assert!(pruned.iter().any(|r| r.vector() == [0, 1, -7]));
        let first_010 = pruned.iter().find(|r| r.vector() == [0, 1, 0]).unwrap();
        assert_eq!(first_010.source(), z_store);
    }

    #[test]
    fn deltas_fit_in_a_line() {
        let nest = matmul(32);
        let cache = table1_cache();
        for r in nest.references() {
            for rv in reuse_vectors(&nest, &cache, r.id(), &ReuseOptions::default()) {
                assert!(rv.delta().abs() < cache.line_elems());
            }
        }
    }

    #[test]
    fn group_temporal_across_outer_iteration() {
        // ADI-style: X(i,k) −= X(i-1,k)·…: the X(i-1,k) load reuses the
        // X(i,k) store from the previous i iteration: r = (1, 0).
        let mut b = NestBuilder::new();
        b.ct_loop("i", 2, 64).ct_loop("k", 1, 64);
        let x = b.array("X", &[64, 64], 0);
        b.reference(x, AccessKind::Read, &[("i", -1), ("k", 0)]);
        let xw = b.reference(x, AccessKind::Write, &[("i", 0), ("k", 0)]);
        let nest = b.build().unwrap();
        let x_load = nest.references()[0].id();
        let rvs = reuse_vectors(&nest, &table1_cache(), x_load, &ReuseOptions::default());
        let g = rvs
            .iter()
            .find(|r| r.vector() == [1, 0] && r.source() == xw)
            .expect("group reuse from the store one i-iteration ago");
        assert_eq!(g.kind(), ReuseKind::GroupTemporal);
    }

    #[test]
    fn sor_group_spatial_reuse() {
        // A(i, j-1) read reuses A(i, j+1) read from two j-iterations earlier.
        let mut b = NestBuilder::new();
        b.ct_loop("i", 2, 31).ct_loop("j", 2, 31);
        let a = b.array("A", &[32, 32], 0);
        let right = b.reference(a, AccessKind::Read, &[("i", 0), ("j", 1)]);
        let left = b.reference(a, AccessKind::Read, &[("i", 0), ("j", -1)]);
        let nest = b.build().unwrap();
        let rvs = reuse_vectors(&nest, &table1_cache(), left, &ReuseOptions::default());
        assert!(
            rvs.iter()
                .any(|r| r.vector() == [0, 2] && r.source() == right && r.delta() == 0),
            "A(i,j-1) at j reuses A(i,j+1) from j-2: {rvs:?}"
        );
    }

    #[test]
    fn no_group_options_disables_group_vectors() {
        let nest = matmul(32);
        let z_store = nest.references()[3].id();
        let opts = ReuseOptions {
            group: false,
            ..ReuseOptions::default()
        };
        let rvs = reuse_vectors(&nest, &table1_cache(), z_store, &opts);
        assert!(rvs.iter().all(|r| r.source() == z_store));
    }

    #[test]
    fn display_forms() {
        let rv = ReuseVector::new(
            vec![0, 1, -7],
            RefId::from_index(0),
            ReuseKind::SelfSpatial,
            -7,
        );
        let s = rv.to_string();
        assert!(s.contains("0,1,-7"));
        assert!(s.contains("self-spatial"));
    }
}
