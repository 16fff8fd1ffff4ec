//! Random-case generation for the CME program model.
//!
//! Shared by the property-test suites and the `cme-diffcheck` fuzz
//! driver: random affine loop nests (within the paper's restrictions),
//! random cache geometries, and layout perturbations. All generation
//! bottoms out in the seeded [`CaseRng`] generators ([`random_nest`],
//! [`random_cache`]), so a proptest failure and a diffcheck
//! counterexample are both reproducible from a single `u64` seed and
//! every suite fuzzes the same (documented) distribution.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod rng;

pub use rng::CaseRng;

use cme_cache::CacheConfig;
use cme_ir::{AccessKind, LoopNest, NestBuilder};
use cme_math::Affine;
use proptest::prelude::*;

/// Parameters of the random-nest distribution.
#[derive(Debug, Clone)]
pub struct NestDistribution {
    /// Range of loop extents per level (sampled independently per loop,
    /// so rectangular nests with non-power-of-two trip counts occur).
    pub extent: std::ops::Range<i64>,
    /// Maximum nest depth (2..=max, capped at 4).
    pub max_depth: usize,
    /// Maximum number of arrays.
    pub max_arrays: usize,
    /// Range of reference counts.
    pub refs: std::ops::Range<usize>,
    /// Force all same-array reference pairs to be uniformly generated
    /// (the regime where CME counts are exact). Offsets stay free —
    /// uniformity only constrains the linear part.
    pub uniform_only: bool,
    /// Maximum array rank (1..=max, capped at 3).
    pub max_rank: usize,
    /// Subscript offsets are drawn from `-max_offset..=max_offset`.
    pub max_offset: i64,
}

impl Default for NestDistribution {
    fn default() -> Self {
        NestDistribution {
            extent: 4..10,
            max_depth: 4,
            max_arrays: 3,
            refs: 2..6,
            uniform_only: false,
            max_rank: 3,
            max_offset: 2,
        }
    }
}

const INDEX_NAMES: [&str; 4] = ["i", "j", "k", "l"];

/// Generates one random loop nest from an explicit seed stream.
///
/// Depth 2..=4 with per-loop extents; arrays of rank 1..=3 laid out
/// back-to-back with a random, 16-element-aligned gap (so distinct
/// arrays never share a memory line at the geometries of
/// [`random_cache`]); subscripts are `index + offset` pairs over the
/// loop indices, with repeats allowed (diagonal access) and offsets up
/// to `max_offset`, so non-uniform same-array pairs occur unless
/// `uniform_only` pins the linear pattern per array.
pub fn random_nest(rng: &mut CaseRng, dist: &NestDistribution) -> LoopNest {
    let max_depth = dist.max_depth.clamp(2, INDEX_NAMES.len());
    let max_rank = dist.max_rank.clamp(1, 3);
    let max_offset = dist.max_offset.max(0);
    let depth = rng.range_usize(2, max_depth);
    let lo = 1 + max_offset; // keeps every subscript >= 1 (origin 1)

    let mut b = NestBuilder::new();
    b.name("random");
    let mut max_ext = dist.extent.start;
    for name in INDEX_NAMES.iter().take(depth) {
        let ext = rng.range(dist.extent.start, dist.extent.end - 1);
        max_ext = max_ext.max(ext);
        b.ct_loop(*name, lo, lo + ext - 1);
    }

    let narrays = rng.range_usize(1, dist.max_arrays.max(1));
    let side = max_ext + 2 * max_offset; // covers idx+off in 1..=side
    let mut ids = Vec::new();
    let mut ranks = Vec::new();
    let mut cursor = 0i64;
    for a in 0..narrays {
        let rank = rng.range_usize(1, max_rank);
        let dims = vec![side; rank];
        ids.push(b.array(format!("A{a}"), &dims, cursor));
        ranks.push(rank);
        cursor += side.pow(rank as u32) + rng.range(0, 7) * 16;
        cursor = (cursor + 15) & !15; // line-align (see cme-kernels::extra)
    }

    let nrefs = rng.range_usize(dist.refs.start.max(1), (dist.refs.end - 1).max(1));
    // Per-array fixed linear pattern when uniform_only: the first
    // reference to each array decides the index selectors for all.
    let mut pattern_of: Vec<Option<Vec<usize>>> = vec![None; narrays];
    for _ in 0..nrefs {
        let ai = rng.below(narrays as u64) as usize;
        let kind = if rng.next_bool() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let sels: Vec<usize> = (0..ranks[ai])
            .map(|_| rng.below(depth as u64) as usize)
            .collect();
        let sels = if dist.uniform_only {
            pattern_of[ai].get_or_insert(sels).clone()
        } else {
            sels
        };
        let subs: Vec<(&str, i64)> = sels
            .iter()
            .map(|&l| (INDEX_NAMES[l], rng.range(-max_offset, max_offset)))
            .collect();
        b.reference(ids[ai], kind, &subs);
    }
    b.build().expect("generated nest is within the model")
}

/// `nest` with each inner loop's lower or upper bound (seeded choice)
/// replaced by the enclosing index: a triangular space, with empty
/// innermost rows wherever a raised lower bound passes the upper one.
/// [`random_nest`] starts every loop at the same index and sizes every
/// array for the longest loop, so on its nests every index stays in that
/// loop's range and every subscript in its array.
pub fn triangular(nest: &LoopNest, rng: &mut CaseRng) -> LoopNest {
    let depth = nest.depth();
    let mut b = NestBuilder::new();
    b.name("triangular");
    for (l, lp) in nest.loops().iter().enumerate() {
        let (mut lo, mut hi) = (lp.lower().clone(), lp.upper().clone());
        if l > 0 {
            match rng.below(3) {
                0 => lo = Affine::var(depth, l - 1),
                1 => hi = Affine::var(depth, l - 1),
                _ => {}
            }
        }
        b.affine_loop(lp.name(), lo, hi);
    }
    let ids: Vec<_> = nest
        .arrays()
        .iter()
        .map(|a| b.array_with_origins(a.name(), a.dims(), a.origins(), a.base()))
        .collect();
    for r in nest.references() {
        b.reference_affine(ids[r.array().index()], r.kind(), r.subscripts().to_vec());
    }
    b.build()
        .expect("a shrunken space keeps the nest in the model")
}

/// Whether every pair of same-array references is uniformly generated —
/// the precondition for CME exactness (gauss/trans are the counterexamples).
pub fn is_uniform(nest: &LoopNest) -> bool {
    let refs = nest.references();
    refs.iter().enumerate().all(|(a, ra)| {
        refs.iter()
            .skip(a + 1)
            .all(|rb| ra.array() != rb.array() || nest.uniformly_generated(ra.id(), rb.id()))
    })
}

/// Generates one random cache geometry from an explicit seed stream:
/// 256–2048 bytes, k ∈ {1, 2, 4, 8, full}, 16/32-byte lines, 4-byte
/// elements — small enough that random nests actually conflict.
pub fn random_cache(rng: &mut CaseRng) -> CacheConfig {
    let size = *rng.choose(&[256i64, 512, 1024, 2048]);
    let line = *rng.choose(&[16i64, 32]);
    match rng.below(5) {
        0 => CacheConfig::fully_associative(size, line, 4),
        k => CacheConfig::new(size, 1 << (k - 1), line, 4),
    }
    .expect("every sampled geometry is organizable")
}

/// The kind of layout parameter a parametric sweep ranges over. This is
/// `cme-testgen`'s own mirror of the engine's `SweepParameter` (this
/// crate sits below `cme-core` in the dependency order); `cme-diffcheck`
/// converts a [`SweepSpec`] into the engine's request type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Shift one array's base address (elements).
    BaseSpacing,
    /// Insert padding (bytes) after one array, shifting everything above.
    PadBytes,
    /// Grow one rank-2 array's leading dimension (elements).
    LeadingDimension,
}

impl ParamKind {
    /// The directive token used by the `.cme` corpus format.
    pub fn token(&self) -> &'static str {
        match self {
            ParamKind::BaseSpacing => "base-spacing",
            ParamKind::PadBytes => "pad-bytes",
            ParamKind::LeadingDimension => "leading-dimension",
        }
    }

    /// Parses a directive token back into a kind.
    pub fn from_token(token: &str) -> Option<ParamKind> {
        match token {
            "base-spacing" => Some(ParamKind::BaseSpacing),
            "pad-bytes" => Some(ParamKind::PadBytes),
            "leading-dimension" => Some(ParamKind::LeadingDimension),
            _ => None,
        }
    }
}

/// One generated parametric sweep: candidate `k ∈ 0..count` sets the
/// parameter to `start + k·step` (elements for spacings and leading
/// dimensions, bytes for pads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSpec {
    /// The parameter kind.
    pub kind: ParamKind,
    /// Index of the array it targets.
    pub target: usize,
    /// Parameter value of candidate 0.
    pub start: i64,
    /// Number of candidates.
    pub count: usize,
    /// Increment between consecutive candidates.
    pub step: i64,
}

/// Generates one random sweep over `nest` on `cache`, from the same
/// seeded stream as [`random_nest`]. The step is drawn from divisors of
/// the cache's way span so the induced period over the step lattice
/// stays small (8–64 samples) — generated cases are meant to *fit*, so
/// the differential tier has closed forms to cross-validate.
pub fn random_sweep(rng: &mut CaseRng, nest: &LoopNest, cache: CacheConfig) -> SweepSpec {
    let way_span = (cache.size_bytes() / cache.assoc() / cache.elem_bytes()).max(8);
    let narrays = nest.arrays().len();
    let rank2: Vec<usize> = (0..narrays)
        .filter(|&a| nest.arrays()[a].rank() == 2)
        .collect();
    // Base spacing dominates; leading-dimension only when a rank-2
    // array exists.
    let kind = match rng.below(4) {
        0 | 1 => ParamKind::BaseSpacing,
        2 => ParamKind::PadBytes,
        _ if !rank2.is_empty() => ParamKind::LeadingDimension,
        _ => ParamKind::BaseSpacing,
    };
    let target = match kind {
        ParamKind::LeadingDimension => rank2[rng.below(rank2.len() as u64) as usize],
        _ => rng.below(narrays as u64) as usize,
    };
    let period = *rng.choose(&[8i64, 16, 32]);
    let step = match kind {
        // Pad steps are in bytes; the way span in bytes is
        // `way_span * elem_bytes`, so scale the step accordingly.
        ParamKind::PadBytes => (way_span / period).max(1) * cache.elem_bytes(),
        _ => (way_span / period).max(1),
    };
    let start = match kind {
        ParamKind::LeadingDimension => nest.arrays()[target].column_size(),
        _ => 0,
    };
    SweepSpec {
        kind,
        target,
        start,
        count: 4 * period as usize,
        step,
    }
}

/// A random loop nest within the CME program model (see [`random_nest`]).
pub fn arb_nest(dist: NestDistribution) -> impl Strategy<Value = LoopNest> {
    (0u64..u64::MAX).prop_map(move |seed| random_nest(&mut CaseRng::new(seed), &dist))
}

/// A random small cache (see [`random_cache`]).
pub fn arb_cache() -> impl Strategy<Value = CacheConfig> {
    (0u64..u64::MAX).prop_map(|seed| random_cache(&mut CaseRng::new(seed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest! {
        #[test]
        fn generated_nests_are_valid_and_nonempty(
            nest in arb_nest(NestDistribution::default())
        ) {
            prop_assert!(nest.access_count() > 0);
            prop_assert!(nest.depth() >= 2);
        }

        #[test]
        fn uniform_mode_yields_uniform_nests(
            nest in arb_nest(NestDistribution { uniform_only: true, ..NestDistribution::default() })
        ) {
            prop_assert!(is_uniform(&nest), "\n{}", nest);
        }

        #[test]
        fn caches_are_well_formed(cache in arb_cache()) {
            prop_assert!(cache.num_sets() >= 1);
            prop_assert!(cache.line_elems() >= 4);
        }
    }

    #[test]
    fn sweeps_are_deterministic_and_well_formed() {
        let dist = NestDistribution::default();
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let mut rng = CaseRng::new(seed);
            let nest = random_nest(&mut rng, &dist);
            let cache = random_cache(&mut rng);
            let a = random_sweep(&mut CaseRng::new(seed ^ 1), &nest, cache);
            let b = random_sweep(&mut CaseRng::new(seed ^ 1), &nest, cache);
            assert_eq!(a, b, "sweep generation must be seed-deterministic");
            assert!(a.count >= 32 && a.step >= 1);
            if a.kind == ParamKind::LeadingDimension {
                assert_eq!(nest.arrays()[a.target].rank(), 2);
                assert_eq!(a.start, nest.arrays()[a.target].column_size());
            } else {
                assert!(a.target < nest.arrays().len());
                assert_eq!(a.start, 0);
            }
            kinds.insert(a.kind.token());
            assert_eq!(ParamKind::from_token(a.kind.token()), Some(a.kind));
        }
        assert!(
            kinds.contains("base-spacing") && kinds.contains("pad-bytes"),
            "both dominant kinds must be reachable: {kinds:?}"
        );
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let dist = NestDistribution::default();
        for seed in 0..32 {
            let a = random_nest(&mut CaseRng::new(seed), &dist);
            let b = random_nest(&mut CaseRng::new(seed), &dist);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            let ca = random_cache(&mut CaseRng::new(seed));
            let cb = random_cache(&mut CaseRng::new(seed));
            assert_eq!(format!("{ca:?}"), format!("{cb:?}"));
        }
    }

    #[test]
    fn distribution_reaches_the_widened_regimes() {
        let dist = NestDistribution::default();
        let mut depth4 = false;
        let mut rank1 = false;
        let mut rank3 = false;
        let mut nonuniform = false;
        let mut full_assoc = false;
        let mut k8 = false;
        for seed in 0..400 {
            let mut rng = CaseRng::new(seed);
            let nest = random_nest(&mut rng, &dist);
            depth4 |= nest.depth() == 4;
            for r in nest.references() {
                rank1 |= r.subscripts().len() == 1;
                rank3 |= r.subscripts().len() == 3;
            }
            nonuniform |= !is_uniform(&nest);
            let cache = random_cache(&mut CaseRng::new(seed));
            full_assoc |= cache.assoc() == cache.size_bytes() / cache.line_bytes();
            k8 |= cache.assoc() == 8;
        }
        assert!(depth4, "depth-4 nests must be reachable");
        assert!(rank1 && rank3, "rank 1 and rank 3 arrays must be reachable");
        assert!(nonuniform, "non-uniform reference pairs must be reachable");
        assert!(
            full_assoc && k8,
            "k=8 and fully associative caches must be reachable"
        );
    }
}
