//! Stage 2 — **reuse**: the ordered reuse-vector set of one reference
//! (§2.2, §3.3), wrapped as the artifact the solve stage consumes.
//!
//! Reuse vectors are base-invariant: they depend on the nest structure
//! and the cache geometry, never on array placement, which is why the
//! driver memoizes a [`ReusePlan`] under the structural prefix key alone.

use std::sync::Arc;

use cme_cache::CacheConfig;
use cme_ir::{LoopNest, RefId};
use cme_reuse::{reuse_vectors, ReuseOptions, ReuseVector};

/// The reuse-vector sequence of one destination reference, in the
/// processing order of Figure 6. Cheap to clone (`Arc`-shared).
#[derive(Debug, Clone)]
pub(crate) struct ReusePlan {
    pub(crate) rvs: Arc<Vec<ReuseVector>>,
}

/// Builds the reuse plan for `dest`.
pub(crate) fn build(
    nest: &LoopNest,
    cache: &CacheConfig,
    dest: RefId,
    options: &ReuseOptions,
) -> ReusePlan {
    ReusePlan {
        rvs: Arc::new(reuse_vectors(nest, cache, dest, options)),
    }
}
