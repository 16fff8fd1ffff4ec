//! Properties of the nest hashes in [`cme::ir::db`]: every engine memo
//! key and store key starts from a nest's `(structural_hash,
//! layout_hash)` pair, so the structural hash must be exactly
//! layout-blind — invariant under base-address moves, sensitive to
//! everything else — while the layout hash follows every base move.

use cme::ir::db::{layout_hash, structural_hash};
use cme::ir::LoopNest;
use cme_testgen::{arb_nest, NestDistribution};
use proptest::prelude::*;

/// The distinct arrays of a nest, in first-reference order.
fn array_ids(nest: &LoopNest) -> Vec<cme::ir::ArrayId> {
    let mut ids = Vec::new();
    for r in nest.references() {
        if !ids.contains(&r.array()) {
            ids.push(r.array());
        }
    }
    ids
}

/// Clone with every array's base address zeroed — the structure-only view.
fn zero_bases(nest: &LoopNest) -> LoopNest {
    let mut out = nest.clone();
    for id in array_ids(nest) {
        out.array_mut(id).set_base(0);
    }
    out
}

/// Clone with every array's base shifted by a distinct multiple of `shift`.
fn shift_bases(nest: &LoopNest, shift: i64) -> LoopNest {
    let mut out = nest.clone();
    for (k, id) in array_ids(nest).into_iter().enumerate() {
        let base = out.array(id).base();
        out.array_mut(id).set_base(base + shift * (k as i64 + 1));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The structural hash is layout-blind: moving base addresses never
    /// changes it (the memoized reuse/solve artifacts keyed by it stay
    /// shared across layout candidates), while the layout hash moves.
    #[test]
    fn structural_hash_ignores_bases(
        nest in arb_nest(NestDistribution::default()),
        shift in 1i64..1024,
    ) {
        let moved = shift_bases(&nest, shift);
        prop_assert_eq!(
            structural_hash(&nest),
            structural_hash(&moved),
            "a pure base move changed the structural hash"
        );
        // A base move must change the layout hash.
        prop_assert_ne!(layout_hash(&nest), layout_hash(&moved));
    }

    /// Equal structural hashes mean structurally equal nests: zeroing the
    /// bases of a nest and any base-shifted sibling yields the *same*
    /// nest, and nests that differ structurally (padded column) hash
    /// apart.
    #[test]
    fn structural_hash_pins_structure(
        nest in arb_nest(NestDistribution::default()),
        shift in 1i64..1024,
    ) {
        let moved = shift_bases(&nest, shift);
        prop_assert_eq!(zero_bases(&nest), zero_bases(&moved));

        // Padding restrides an array: a structural change, not layout.
        let mut padded = nest.clone();
        let id = array_ids(&nest)[0];
        let cols = padded.array(id).column_size();
        padded.array_mut(id).pad_column_to(cols + 1);
        // Padding must move the structural hash.
        prop_assert_ne!(structural_hash(&nest), structural_hash(&padded));
    }
}
