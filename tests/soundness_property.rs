//! Property-based soundness: on randomly generated affine nests the CME
//! miss count never under-counts the LRU simulator, and on a large family
//! of random layouts it is exactly equal.
//!
//! The one-sided invariant is the paper's own accuracy story (Table 1's
//! errors are +1.0% and +0.4% over-counts): a hit verdict along the
//! lexicographically-earliest same-line reuse vector is conservative with
//! respect to LRU stack distance, so missing reuse vectors can only inflate
//! the count.

use cme::cache::{simulate_nest, CacheConfig};
use cme::core::solve::reference_analysis;
use cme::core::AnalysisOptions;
use cme::ir::{AccessKind, LoopNest, NestBuilder};
use proptest::prelude::*;

/// A random 2-deep nest with 1–3 arrays and 2–5 references with offset
/// subscripts — all within the paper's program model.
fn arb_nest() -> impl Strategy<Value = LoopNest> {
    let array_count = 1..=3usize;
    let dims = (4i64..=12, 4i64..=12);
    (
        array_count,
        dims,
        proptest::collection::vec(
            (
                0..3usize,           // array choice (mod count)
                -1i64..=1,           // row offset
                -1i64..=1,           // col offset
                proptest::bool::ANY, // write?
                0..4usize,           // subscript pattern
            ),
            2..=5,
        ),
        0i64..64,  // base gap between arrays
        4i64..=10, // loop extent i
        4i64..=10, // loop extent j
    )
        .prop_map(|(narr, (d0, d1), refs, gap, ni, nj)| {
            let mut b = NestBuilder::new();
            b.name("random");
            b.ct_loop("i", 2, 2 + ni - 1).ct_loop("j", 2, 2 + nj - 1);
            // Square arrays covering BOTH index ranges (the subscript
            // patterns below swap/duplicate indices), with 16-element
            // aligned bases so distinct arrays never share a memory line —
            // the layout real allocators provide and the per-array
            // reuse-vector model assumes.
            let side = d0.max(d1).max(ni + 2).max(nj + 2) + 2;
            let mut ids = Vec::new();
            let mut cursor = 0i64;
            for a in 0..narr {
                ids.push(b.array(format!("A{a}"), &[side, side], cursor));
                cursor += side * side + gap;
                cursor = (cursor + 15) & !15;
            }
            for (ai, ro, co, write, pat) in refs {
                let id = ids[ai % ids.len()];
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let subs: [(&str, i64); 2] = match pat {
                    0 => [("i", ro), ("j", co)],
                    1 => [("j", ro), ("i", co)],
                    2 => [("i", ro), ("i", co)],
                    _ => [("j", ro), ("j", co)],
                };
                b.reference(id, kind, &subs);
            }
            b.build().expect("generated nest is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CME >= simulation on arbitrary nests, for three associativities.
    #[test]
    fn cme_never_undercounts(nest in arb_nest(), assoc in prop_oneof![Just(1i64), Just(2), Just(4)]) {
        let cache = CacheConfig::new(512, assoc, 16, 4).unwrap();
        let analysis = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let sim = simulate_nest(&nest, cache);
        prop_assert!(
            analysis.total_misses() >= sim.total().misses(),
            "under-count on\n{nest}: cme={} sim={}",
            analysis.total_misses(),
            sim.total().misses()
        );
        // When every same-array reference pair is uniformly generated, the
        // reuse-vector framework sees all reuse and the cold split agrees
        // exactly; non-uniform pairs (A(i,j) vs A(j,i)) are precisely the
        // paper's gauss/trans over-count case, where CME classifies some
        // actually-warm accesses as cold.
        let uniform = {
            let refs = nest.references();
            refs.iter().enumerate().all(|(a, ra)| {
                refs.iter().skip(a + 1).all(|rb| {
                    ra.array() != rb.array()
                        || nest.uniformly_generated(ra.id(), rb.id())
                })
            })
        };
        if uniform {
            prop_assert_eq!(analysis.total_cold(), sim.total().cold);
            prop_assert_eq!(analysis.total_misses(), sim.total().misses());
        }
    }

    /// On single-reference strided sweeps the count is exactly right for
    /// every stride/offset/associativity combination.
    #[test]
    fn exact_on_strided_sweeps(
        stride_pat in 0..3usize,
        base in 0i64..64,
        n in 4i64..24,
        assoc in prop_oneof![Just(1i64), Just(2)],
    ) {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, n).ct_loop("j", 1, n);
        let a = b.array("A", &[n + 2, n + 2], base);
        let subs: [(&str, i64); 2] = match stride_pat {
            0 => [("j", 0), ("i", 0)], // unit stride
            1 => [("i", 0), ("j", 0)], // column-crossing stride
            _ => [("i", 0), ("i", 0)], // diagonal
        };
        b.reference(a, AccessKind::Read, &subs);
        let nest = b.build().unwrap();
        let cache = CacheConfig::new(512, assoc, 16, 4).unwrap();
        let analysis = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let sim = simulate_nest(&nest, cache);
        prop_assert_eq!(analysis.total_misses(), sim.total().misses(), "\n{}", nest);
    }

    /// Random uniformly-generated pairs (stencil-like) are analyzed exactly.
    #[test]
    fn exact_on_stencil_pairs(
        ro in -1i64..=1, co in -1i64..=1,
        base_gap in 0i64..128,
        n in 6i64..20,
    ) {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 2, n).ct_loop("j", 2, n);
        let a = b.array("A", &[n + 2, n + 2], 0);
        // 16-aligned base: distinct arrays must not share a memory line.
        let c = b.array("B", &[n + 2, n + 2], ((n + 2) * (n + 2) + base_gap + 15) & !15);
        b.reference(a, AccessKind::Read, &[("i", ro), ("j", co)]);
        b.reference(a, AccessKind::Read, &[("i", 0), ("j", 0)]);
        b.reference(c, AccessKind::Write, &[("i", 0), ("j", 0)]);
        let nest = b.build().unwrap();
        let cache = CacheConfig::new(512, 1, 16, 4).unwrap();
        let analysis = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let sim = simulate_nest(&nest, cache);
        prop_assert_eq!(analysis.total_misses(), sim.total().misses(), "\n{}", nest);
    }
}
