//! Invalidation keys of the incremental engine.
//!
//! Every memo table inside [`crate::Analyzer`] is keyed by a 128-bit
//! double hash of exactly the inputs its payload depends on — nothing
//! more, so a candidate transform that leaves those inputs untouched re-solves from
//! the cache, and nothing less, so a transform that changes them cannot
//! alias into a stale entry. The derivations live in `docs/ENGINE.md`; in
//! short, for a destination reference `D` of array `A_D` with base
//! `B_D = q_D·Ls + r_D` (`0 ≤ r_D < Ls`):
//!
//! - a **solve set** (the cold/indeterminate refinement of Figure 6)
//!   depends only on the nest *structure* (loop bounds, subscript
//!   coefficients, base-relative constants), the cache geometry, the
//!   options, and `r_D = B_D mod Ls` — reuse sources always address the
//!   same array, so the whole-line quotient `q_D` cancels out of every
//!   line comparison;
//! - a **window scan**'s verdict additionally depends on every array's
//!   line offset `r_A` and *exact* line distance `λ_A = q_A − q_D` — the
//!   set test needs `λ_A mod Ns`, but line-identity coincidences across
//!   arrays need the exact value, so the exact value is keyed.
//!
//! The engine hashes each nest **once per call**: [`nest_hashes`] pairs
//! the base-invariant [`cme_ir::db::structural_hash`] with the
//! [`cme_ir::db::layout_hash`], and every key here starts from those
//! digests instead of re-walking the nest. Two independent 64-bit hashes
//! (seeded differently) are concatenated into the `u128` key
//! ([`KeyHasher`], hosted by `cme-ir` next to the nest hashes), making
//! accidental collisions negligible — the memoized values are exact
//! analysis artifacts, so a collision would be silent.

use cme_cache::CacheConfig;
pub(crate) use cme_ir::db::KeyHasher;
use cme_ir::db::{layout_hash, structural_hash};
use cme_ir::LoopNest;
use cme_math::gcd::{floor_div, modulo};

use crate::solve::AnalysisOptions;

/// A nest's `(structural, layout)` hash pair: the store key, the sweep
/// key, the lower-memo key and [`prefix_key`] all start from it.
pub(crate) fn nest_hashes(nest: &LoopNest) -> (u128, u128) {
    (structural_hash(nest), layout_hash(nest))
}

/// Key of a nest's lower-stage artifact: its address affines depend on
/// the structure and the bases, never on names.
pub(crate) fn lower_key((structural, layout): (u128, u128)) -> u128 {
    KeyHasher::from_prefix(0x10e4, structural)
        .feed(&layout)
        .finish()
}

/// Hashes everything *every* engine memo depends on: cache geometry,
/// reuse-vector options, and the nest's base-invariant structural hash.
/// Analysis-mode options are keyed only where they matter — `ε` into the
/// solve-set key (it truncates the vector sequence), the exact-count flag
/// into the scan key — so a plain pass and an exact-counting pass share
/// solve sets. `collect_miss_points` is keyed nowhere: it only controls
/// result assembly, never verdicts.
pub(crate) fn prefix_key(cache: &CacheConfig, options: &AnalysisOptions, structural: u128) -> u128 {
    let mut h = KeyHasher::new(0x9e37);
    h.feed(cache);
    h.feed(&options.reuse.group).feed(&options.reuse.extended);
    h.feed(&(structural as u64))
        .feed(&((structural >> 64) as u64));
    h.finish()
}

/// Key of one reference's solve set (cold/indeterminate cascade): the
/// prefix plus the reference index, its own array's line offset
/// `B_D mod Ls`, and the `ε` early-stop threshold (which truncates the
/// vector sequence).
pub(crate) fn cascade_key(
    prefix: u128,
    nest: &LoopNest,
    options: &AnalysisOptions,
    dest: usize,
    ls: i64,
) -> u128 {
    let base = nest.array(nest.references()[dest].array()).base();
    let mut h = KeyHasher::from_prefix(0xca5c, prefix);
    h.feed(&dest).feed(&modulo(base, ls)).feed(&options.epsilon);
    h.finish()
}

/// Key of one `(reference, reuse-vector)` window-scan result: the prefix
/// plus the reference and vector indices, the exact-count flag, and the
/// full relative layout — per array, `(B_A mod Ls, ⌊B_A/Ls⌋ − ⌊B_D/Ls⌋)`.
/// The `ε` threshold is *not* keyed: a vector's scan set is the same under
/// any `ε` that lets the vector run at all.
pub(crate) fn scan_key(
    prefix: u128,
    nest: &LoopNest,
    options: &AnalysisOptions,
    dest: usize,
    vector_index: usize,
    ls: i64,
) -> u128 {
    let dest_q = floor_div(nest.array(nest.references()[dest].array()).base(), ls);
    let mut h = KeyHasher::from_prefix(0x5ca9, prefix);
    h.feed(&dest)
        .feed(&vector_index)
        .feed(&options.exact_equation_counts);
    for a in nest.arrays() {
        h.feed(&modulo(a.base(), ls));
        h.feed(&(floor_div(a.base(), ls) - dest_q));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{AccessKind, NestBuilder};

    fn nest_with_bases(bases: [i64; 2]) -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 8).ct_loop("j", 1, 8);
        let a = b.array("A", &[8, 8], bases[0]);
        let c = b.array("B", &[8, 8], bases[1]);
        b.reference(a, AccessKind::Read, &[("j", 0), ("i", 0)]);
        b.reference(c, AccessKind::Write, &[("j", 0), ("i", 0)]);
        b.build().unwrap()
    }

    fn prefix_of(cache: &CacheConfig, opts: &AnalysisOptions, nest: &LoopNest) -> u128 {
        prefix_key(cache, opts, structural_hash(nest))
    }

    #[test]
    fn prefix_is_base_invariant_but_structure_sensitive() {
        let cache = CacheConfig::new(1024, 1, 32, 4).unwrap();
        let opts = AnalysisOptions::default();
        let k1 = prefix_of(&cache, &opts, &nest_with_bases([0, 100]));
        let k2 = prefix_of(&cache, &opts, &nest_with_bases([64, 7]));
        assert_eq!(k1, k2, "bases must not affect the structure prefix");
        let mut padded = nest_with_bases([0, 100]);
        let first_array = padded.references()[0].array();
        padded.array_mut(first_array).pad_column_to(9);
        assert_ne!(
            k1,
            prefix_of(&cache, &opts, &padded),
            "column padding changes strides, so the prefix must move"
        );
        let eps = AnalysisOptions::builder().epsilon(10).build();
        assert_eq!(
            k1,
            prefix_of(&cache, &eps, &nest_with_bases([0, 100])),
            "epsilon is keyed in the solve set, not the prefix"
        );
    }

    #[test]
    fn cascade_key_sees_only_own_line_offset() {
        let cache = CacheConfig::new(1024, 1, 32, 4).unwrap();
        let ls = cache.line_elems();
        let opts = AnalysisOptions::default();
        let n1 = nest_with_bases([0, 100]);
        let n2 = nest_with_bases([ls * 3, 177]); // same B_A mod Ls, other array moved
        let p = prefix_of(&cache, &opts, &n1);
        assert_eq!(p, prefix_of(&cache, &opts, &n2));
        assert_eq!(
            cascade_key(p, &n1, &opts, 0, ls),
            cascade_key(p, &n2, &opts, 0, ls)
        );
        let n3 = nest_with_bases([1, 100]); // dest line offset moved
        assert_ne!(
            cascade_key(p, &n1, &opts, 0, ls),
            cascade_key(p, &n3, &opts, 0, ls)
        );
        // Epsilon truncates the vector sequence, so it must be keyed here.
        let eps = AnalysisOptions::builder().epsilon(10).build();
        assert_ne!(
            cascade_key(p, &n1, &opts, 0, ls),
            cascade_key(p, &n1, &eps, 0, ls)
        );
        // Exact-count mode does not affect the solve set.
        let exact = AnalysisOptions::builder()
            .exact_equation_counts(true)
            .build();
        assert_eq!(
            cascade_key(p, &n1, &opts, 0, ls),
            cascade_key(p, &n1, &exact, 0, ls)
        );
    }

    #[test]
    fn scan_key_tracks_relative_layout() {
        let cache = CacheConfig::new(1024, 1, 32, 4).unwrap();
        let ls = cache.line_elems();
        let opts = AnalysisOptions::default();
        let n1 = nest_with_bases([0, 100]);
        // Whole-layout translation by a multiple of Ls: identical key.
        let n2 = nest_with_bases([5 * ls, 100 + 5 * ls]);
        let p = prefix_of(&cache, &opts, &n1);
        assert_eq!(
            scan_key(p, &n1, &opts, 0, 1, ls),
            scan_key(p, &n2, &opts, 0, 1, ls)
        );
        // Moving one array by a line changes the relative layout.
        let n3 = nest_with_bases([0, 100 + ls]);
        assert_ne!(
            scan_key(p, &n1, &opts, 0, 1, ls),
            scan_key(p, &n3, &opts, 0, 1, ls)
        );
        // Different vector index: different key.
        assert_ne!(
            scan_key(p, &n1, &opts, 0, 1, ls),
            scan_key(p, &n1, &opts, 0, 2, ls)
        );
        // Exact-count mode changes the outcome shape, so it is keyed.
        let exact = AnalysisOptions::builder()
            .exact_equation_counts(true)
            .build();
        assert_ne!(
            scan_key(p, &n1, &opts, 0, 1, ls),
            scan_key(p, &n1, &exact, 0, 1, ls)
        );
        // Epsilon is NOT keyed: the vector's scan set is epsilon-invariant.
        let eps = AnalysisOptions::builder().epsilon(10).build();
        assert_eq!(
            scan_key(p, &n1, &opts, 0, 1, ls),
            scan_key(p, &n1, &eps, 0, 1, ls)
        );
    }
}
