//! Stage 1 — **lower**: the validated address form of a nest that every
//! later stage consumes next to the nest itself.
//!
//! Lowering materializes the per-reference address affines (§2.4: the
//! memory address of a reference is an affine function of the iteration
//! vector) and proves in one up-front pass that every address and the
//! space size fit 64-bit arithmetic (so the hot loops downstream can use
//! unchecked arithmetic). The artifact holds no nest and no names: the
//! engine memoizes it under the nest's structural and layout hashes, so
//! two nests that differ only in names share it, and every label comes
//! from the caller's nest.

use cme_ir::LoopNest;
use cme_math::Affine;

use crate::governor::AnalysisError;

/// A validated, address-lowered nest: the output of the lower stage.
#[derive(Debug)]
pub(crate) struct LoweredNest {
    /// Address affine of each reference, in reference order.
    pub(crate) addrs: Vec<Affine>,
}

/// Lowers one nest.
///
/// # Errors
///
/// [`AnalysisError::Overflow`] when the nest's address arithmetic cannot
/// be performed in 64 bits.
pub(crate) fn lower(nest: &LoopNest) -> Result<LoweredNest, AnalysisError> {
    let addrs: Vec<Affine> = nest
        .references()
        .iter()
        .map(|r| nest.address_affine(r.id()))
        .collect();
    crate::governor::validate_address_math(nest, &addrs)?;
    Ok(LoweredNest { addrs })
}
