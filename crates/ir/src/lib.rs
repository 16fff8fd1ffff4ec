//! Affine loop-nest program model for Cache Miss Equations.
//!
//! This crate is the SUIF-substitute substrate: it represents exactly the
//! program model of Section 2.1 of the CME paper —
//!
//! - **perfectly nested, normalized loops** whose bounds are affine
//!   functions of the enclosing loop indices;
//! - **array references** whose subscripts are affine functions of the loop
//!   indices, executed in a fixed statement order each iteration;
//! - **column-major arrays** (Fortran layout) addressed in units of data
//!   elements, with explicit base addresses so that relative positioning —
//!   all the CME framework needs — is known;
//! - **no conditionals** inside the nest (rejected by [`validate`]).
//!
//! The iteration space is the finite convex polyhedron of Section 2.4;
//! [`LoopNest`] iterates it in lexicographic (execution) order, including
//! triangular spaces such as Gaussian elimination's.
//!
//! # Example: the paper's matrix-multiply nest (Figure 1)
//!
//! ```
//! use cme_ir::{AccessKind, NestBuilder};
//!
//! let n = 32;
//! let mut b = NestBuilder::new();
//! b.ct_loop("i", 1, n).ct_loop("k", 1, n).ct_loop("j", 1, n);
//! let z = b.array("Z", &[n, n], 4192);
//! let x = b.array("X", &[n, n], 2136);
//! let y = b.array("Y", &[n, n], 96);
//! // Z(j,i) += X(k,i) * Y(j,k): loads in evaluation order, then the store.
//! b.reference(z, AccessKind::Read, &[("j", 0), ("i", 0)]);
//! b.reference(x, AccessKind::Read, &[("k", 0), ("i", 0)]);
//! b.reference(y, AccessKind::Read, &[("j", 0), ("k", 0)]);
//! b.reference(z, AccessKind::Write, &[("j", 0), ("i", 0)]);
//! let nest = b.build().unwrap();
//!
//! assert_eq!(nest.depth(), 3);
//! assert_eq!(nest.iteration_count(), (n as u64).pow(3));
//! // Address of Z(j,i) at iteration (i,k,j) = (1,2,3): 4192 + 32*(1-1) + (3-1).
//! let z_load = nest.references()[0].id();
//! assert_eq!(nest.address(z_load, &[1, 2, 3]), 4192 + 2);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod array;
pub mod builder;
pub mod codec;
pub mod db;
pub mod nest;
pub mod parse;
pub mod space;
pub mod transform;
pub mod validate;

pub use array::{ArrayDecl, ArrayId};
pub use builder::NestBuilder;
pub use cme_math::Affine;
pub use db::KeyHasher;
pub use nest::{AccessKind, Loop, LoopNest, RefId, Reference};
pub use space::IterationSpace;
pub use validate::ValidateNestError;
