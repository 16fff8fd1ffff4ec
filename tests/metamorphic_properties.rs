//! Metamorphic property tests: relationships that must hold between the
//! analysis results of a nest and its transformed variants, fuzzed over
//! the shared random-nest distribution of `cme-testgen`.
use cme::cache::{simulate_nest, CacheConfig};
use cme::core::solve::{reference_analysis, reference_analysis_pointwise};
use cme::core::{AnalysisOptions, Analyzer};
use cme::ir::transform::{interchange, strip_mine};
use cme_testgen::{arb_cache, arb_nest, is_uniform, NestDistribution};
use proptest::prelude::*;

fn opts() -> AnalysisOptions {
    AnalysisOptions::default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Soundness survives arbitrary loop interchange: the transformed nest
    /// is a valid nest whose CME count still bounds its own simulation.
    #[test]
    fn soundness_is_interchange_invariant(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
        swap_outer in proptest::bool::ANY,
    ) {
        let perm: Vec<usize> = if swap_outer && nest.depth() >= 2 {
            let mut p: Vec<usize> = (0..nest.depth()).collect();
            p.swap(0, 1);
            p
        } else {
            (0..nest.depth()).rev().collect()
        };
        if let Ok(swapped) = interchange(&nest, &perm) {
            let cme = reference_analysis(&swapped, cache, &opts()).total_misses();
            let sim = simulate_nest(&swapped, cache).total().misses();
            prop_assert!(cme >= sim, "under-count after interchange:\n{swapped}");
        }
    }

    /// Strip-mining is trace-invariant: the simulator sees the identical
    /// access stream, so its miss count must not change; the CME count of
    /// the deeper nest stays sound.
    #[test]
    fn strip_mine_is_trace_invariant(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
        level_sel in 0usize..2,
        tile_sel in 0usize..2,
    ) {
        let level = level_sel % nest.depth();
        let lp = &nest.loops()[level];
        let trips = lp.upper().constant_term() - lp.lower().constant_term() + 1;
        // Pick a divisor tile.
        let tile = [2i64, 3][tile_sel % 2];
        if trips % tile != 0 {
            return Ok(());
        }
        let stripped = strip_mine(&nest, level, tile).unwrap();
        prop_assert_eq!(
            simulate_nest(&stripped, cache).total().misses(),
            simulate_nest(&nest, cache).total().misses(),
            "strip-mining altered the trace:\n{}", stripped
        );
        let cme = reference_analysis(&stripped, cache, &opts()).total_misses();
        let sim = simulate_nest(&stripped, cache).total().misses();
        prop_assert!(cme >= sim);
    }

    /// On uniformly generated nests the analysis is EXACT — across random
    /// shapes, layouts, and associativities (the generalized Table 1 claim).
    #[test]
    fn uniform_nests_are_exact(
        nest in arb_nest(NestDistribution { uniform_only: true, ..NestDistribution::default() }),
        cache in arb_cache(),
    ) {
        prop_assume!(is_uniform(&nest));
        let cme = reference_analysis(&nest, cache, &opts()).total_misses();
        let sim = simulate_nest(&nest, cache).total().misses();
        prop_assert_eq!(cme, sim, "inexact on uniform nest:\n{}\n{}", nest, cache);
    }

    /// The parallel analyzer is bit-identical to the sequential one on
    /// arbitrary nests (not just the curated kernels).
    #[test]
    fn parallel_equals_sequential(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
    ) {
        let a = reference_analysis(&nest, cache, &opts());
        let b = Analyzer::new(cache)
            .options(opts())
            .threads(0)
            .analyze(&nest);
        prop_assert_eq!(a, b);
    }

    /// Padding never hurts **in the optimizer's own metric** (CME counts):
    /// the guarantee the counting-search contract makes. On *uniform*
    /// nests, where the CME count equals simulation exactly, the guarantee
    /// transfers to the simulator too. (On non-uniform nests the CME metric
    /// cannot see reuse between differently-shaped references, so a layout
    /// that is CME-neutral may shift a handful of simulated misses either
    /// way — the gauss/trans caveat again.)
    #[test]
    fn padding_never_hurts_in_its_metric(
        nest in arb_nest(NestDistribution { max_arrays: 3, ..NestDistribution::default() }),
        cache in arb_cache(),
    ) {
        let (optimized, outcome) = cme::opt::optimize_padding(&nest, &cache, &opts());
        prop_assert!(
            outcome.replacement_after <= outcome.replacement_before,
            "CME metric regressed: {outcome}\n{nest}"
        );
        if is_uniform(&nest) && is_uniform(&optimized) {
            let before = simulate_nest(&nest, cache).total().replacement;
            let after = simulate_nest(&optimized, cache).total().replacement;
            prop_assert!(
                after <= before,
                "simulated regression on uniform nest {} -> {} ({outcome})\n{}",
                before,
                after,
                nest
            );
        }
    }

    /// The ε knob only ever inflates the count (soundness of early stops),
    /// and ε = 0 equals the default.
    #[test]
    fn epsilon_inflates_monotonically(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
        eps in 1u64..4096,
    ) {
        let exact = reference_analysis(&nest, cache, &opts()).total_misses();
        let loose = reference_analysis(
            &nest,
            cache,
            &AnalysisOptions { epsilon: eps, ..opts() },
        )
        .total_misses();
        prop_assert!(loose >= exact);
    }

    /// The row-summarized window scanner is semantics-preserving: the
    /// oracle's pointwise walk produces an identical analysis.
    #[test]
    fn row_scan_equals_pointwise_scan(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
    ) {
        let fast = reference_analysis(&nest, cache, &opts());
        let slow = reference_analysis_pointwise(&nest, cache, &opts());
        prop_assert_eq!(fast, slow);
    }
}

/// Explicit replays of the recorded proptest counterexamples in
/// `tests/proptest-regressions/metamorphic_properties.txt`. The vendored
/// offline proptest stub does not auto-load regression files, so every
/// recorded case is reconstructed here and run through the whole
/// `(nest, cache)` property battery — soundness, uniform exactness,
/// parallel bit-identity, and row-vs-pointwise scan identity — on every
/// test run.
mod regressions {
    use super::*;
    use cme::core::NestAnalysis;
    use cme::ir::{AccessKind, LoopNest, NestBuilder};

    fn battery(nest: &LoopNest, cache: CacheConfig) -> NestAnalysis {
        let analysis = reference_analysis(nest, cache, &opts());
        let sim = simulate_nest(nest, cache).total().misses();
        assert!(
            analysis.total_misses() >= sim,
            "under-count: cme={} sim={sim}\n{nest}",
            analysis.total_misses()
        );
        if is_uniform(nest) {
            assert_eq!(
                analysis.total_misses(),
                sim,
                "inexact on uniform nest\n{nest}"
            );
        }
        assert_eq!(
            analysis,
            Analyzer::new(cache)
                .options(opts())
                .threads(0)
                .analyze(nest),
            "parallel analyzer diverged\n{nest}"
        );
        assert_eq!(
            analysis,
            reference_analysis_pointwise(nest, cache, &opts()),
            "pointwise scan diverged\n{nest}"
        );
        analysis
    }

    /// Recorded case `380cb081…`: two arrays 96 elements apart, a
    /// transposed-subscript reference pair `A0(j,i+1)` / `A0(i,i)`
    /// (non-uniform), 256 B 2-way cache with 16 B lines.
    #[test]
    fn replay_nonuniform_pair_on_two_way_cache() {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 2, 6).ct_loop("j", 2, 6);
        let a0 = b.array("A0", &[9, 9], 0);
        let a1 = b.array("A1", &[9, 9], 96);
        b.reference(a0, AccessKind::Read, &[("j", 0), ("i", 1)]);
        b.reference(a1, AccessKind::Read, &[("i", 0), ("i", 0)]);
        b.reference(a0, AccessKind::Read, &[("i", 0), ("i", 0)]);
        let nest = b.build().unwrap();
        assert!(!is_uniform(&nest));
        let analysis = battery(&nest, CacheConfig::new(256, 2, 16, 4).unwrap());
        assert!(analysis.total_misses() > 0);
    }

    /// Recorded case `330d3459…`: a depth-3 nest whose innermost loop is
    /// dead (no subscript uses `k`), a uniform `A0(i,j)` / `A0(i+1,j)`
    /// pair, 256 B direct-mapped cache with 32 B lines — the exactness
    /// claim must hold even with repeated identical row sweeps.
    #[test]
    fn replay_uniform_pair_with_dead_inner_loop() {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 2, 6).ct_loop("j", 2, 6).ct_loop("k", 2, 6);
        let a0 = b.array("A0", &[9, 9], 0);
        b.reference(a0, AccessKind::Read, &[("i", 0), ("j", 0)]);
        b.reference(a0, AccessKind::Read, &[("i", 1), ("j", 0)]);
        let nest = b.build().unwrap();
        assert!(is_uniform(&nest));
        let analysis = battery(&nest, CacheConfig::new(256, 1, 32, 4).unwrap());
        assert!(analysis.total_misses() > 0);
    }
}

/// A deterministic spot-check that the distribution exercises conflicts at
/// all (guards against a generator regression that would make the suite
/// vacuous).
#[test]
fn distribution_reaches_conflicts() {
    use proptest::strategy::{Strategy, ValueTree};
    use proptest::test_runner::TestRunner;
    let mut runner = TestRunner::deterministic();
    let strat = arb_nest(NestDistribution::default());
    let cache = CacheConfig::new(256, 1, 16, 4).unwrap();
    let mut saw_replacement = false;
    for _ in 0..64 {
        let nest = strat.new_tree(&mut runner).unwrap().current();
        if simulate_nest(&nest, cache).total().replacement > 0 {
            saw_replacement = true;
            break;
        }
    }
    assert!(saw_replacement, "generator never produces conflicts");
}
