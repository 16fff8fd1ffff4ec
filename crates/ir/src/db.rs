//! The invalidation hashes of a [`LoopNest`]: every analysis artifact
//! downstream (reuse vectors, cold/indeterminate solve sets, window-scan
//! verdicts, persisted analyses) is keyed by some function of the nest,
//! and these two 128-bit digests are where every such key starts:
//!
//! - [`structural_hash`] — **base-invariant**: loop bounds, array extents
//!   and origins, and per-reference subscript structure with address
//!   constants taken *relative to the array base*. Candidate layouts that
//!   only move arrays (padding/placement searches) share this hash, which
//!   is what lets them share memoized analysis artifacts.
//! - [`layout_hash`] — the base addresses only. Together with the
//!   structural hash it pins the analysis inputs of a nest exactly (up to
//!   hash collision, which the 128-bit double hash makes negligible).
//!
//! Names (of the nest, its arrays and loops) feed neither hash: they
//! label results but never change a count.

use crate::nest::LoopNest;
use std::hash::{Hash, Hasher};

/// Accumulates one logical key into two independently seeded 64-bit
/// hashers, concatenated into a 128-bit key by [`KeyHasher::finish`].
///
/// Memoized analysis artifacts are exact results, so a key collision
/// would be silent — the 128-bit double hash makes that negligible. The
/// `domain` seed separates key families (structural, layout, cascade,
/// scan, …) so equal payloads in different families cannot alias.
pub struct KeyHasher {
    a: std::collections::hash_map::DefaultHasher,
    b: std::collections::hash_map::DefaultHasher,
}

impl KeyHasher {
    /// A fresh hasher for one key family.
    pub fn new(domain: u64) -> Self {
        let mut a = std::collections::hash_map::DefaultHasher::new();
        let mut b = std::collections::hash_map::DefaultHasher::new();
        // Distinct seeds: the two lanes must be independent functions.
        a.write_u64(0x243f_6a88_85a3_08d3 ^ domain);
        b.write_u64(0x1319_8a2e_0370_7344 ^ domain.rotate_left(17));
        KeyHasher { a, b }
    }

    /// Resumes from a previously finished 128-bit prefix.
    pub fn from_prefix(domain: u64, prefix: u128) -> Self {
        let mut h = KeyHasher::new(domain);
        h.feed(&(prefix as u64));
        h.feed(&((prefix >> 64) as u64));
        h
    }

    /// Feeds a value into both lanes.
    pub fn feed<T: Hash + ?Sized>(&mut self, value: &T) -> &mut Self {
        value.hash(&mut self.a);
        value.hash(&mut self.b);
        self
    }

    /// The concatenated 128-bit key.
    pub fn finish(&self) -> u128 {
        (u128::from(self.a.finish()) << 64) | u128::from(self.b.finish())
    }
}

/// The base-invariant structural hash of a nest: loop bound affines,
/// array extents and origins, and per-reference array index plus address
/// affine with the constant taken *relative to the array base*. Two nests
/// that differ only in array base addresses hash equal; any change to
/// bounds, subscripts, padding (strides), or reference order moves it.
pub fn structural_hash(nest: &LoopNest) -> u128 {
    let mut h = KeyHasher::new(0x51dc);
    h.feed(&nest.depth());
    for lp in nest.loops() {
        h.feed(lp.lower().coeffs());
        h.feed(&lp.lower().constant_term());
        h.feed(lp.upper().coeffs());
        h.feed(&lp.upper().constant_term());
    }
    h.feed(&nest.arrays().len());
    for a in nest.arrays() {
        h.feed(a.dims());
        h.feed(a.origins());
    }
    h.feed(&nest.references().len());
    for r in nest.references() {
        let af = nest.address_affine(r.id());
        h.feed(&r.array().index());
        h.feed(af.coeffs());
        h.feed(&(af.constant_term() - nest.array(r.array()).base()));
    }
    h.finish()
}

/// Hash of the full layout — every array base address, in declaration
/// order. Complements [`structural_hash`]: structure plus layout pins the
/// analysis inputs of a nest exactly.
pub fn layout_hash(nest: &LoopNest) -> u128 {
    let mut h = KeyHasher::new(0x1a07);
    for a in nest.arrays() {
        h.feed(&a.base());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NestBuilder;
    use crate::nest::AccessKind;

    fn nest_with_bases(bases: [i64; 2]) -> LoopNest {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 8).ct_loop("j", 1, 8);
        let a = b.array("A", &[8, 8], bases[0]);
        let c = b.array("B", &[8, 8], bases[1]);
        b.reference(a, AccessKind::Read, &[("j", 0), ("i", 0)]);
        b.reference(c, AccessKind::Write, &[("j", 0), ("i", 0)]);
        b.build().unwrap()
    }

    #[test]
    fn structural_hash_tracks_structure() {
        let base = nest_with_bases([0, 100]);
        let mut padded = nest_with_bases([0, 100]);
        let first = padded.references()[0].array();
        padded.array_mut(first).pad_column_to(9);
        assert_ne!(
            structural_hash(&base),
            structural_hash(&padded),
            "padding changes strides, so the structural hash must move"
        );
        assert_eq!(
            structural_hash(&base),
            structural_hash(&nest_with_bases([32, 4])),
            "bases alone must not affect the structural hash"
        );
        assert_ne!(layout_hash(&base), layout_hash(&nest_with_bases([32, 4])));
    }
}
