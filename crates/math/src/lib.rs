//! Number-theoretic and integer-linear-algebra substrate for the Cache Miss
//! Equation (CME) framework.
//!
//! The CME paper (Ghosh, Martonosi, Malik — ASPLOS 1998) reduces cache-miss
//! analysis to questions about **linear Diophantine equations** in bounded
//! (polyhedral) solution spaces. This crate provides exactly the mathematics
//! the paper leans on:
//!
//! - [`gcd`]: greatest common divisors, extended Euclid, and multi-operand
//!   GCDs — the engine behind the padding conditions of Section 5.1.1.
//! - [`diophantine`]: solvability and general solutions of `a·x = c` systems
//!   and two-variable `ax + by = c` equations, plus exact solution counting
//!   over bounded boxes (the paper's "solution counting engine" stand-in for
//!   Omega/Ehrhart tooling, Section 5.1.2).
//! - [`affine`]: affine expressions over named variables with exact interval
//!   range analysis over boxes — used to bound `max |δf + c − d|` terms.
//! - [`matrix`]: `i64` matrices with exact integer kernel (nullspace lattice
//!   basis) computation — the substrate for Wolf–Lam reuse-vector analysis.
//! - [`lexi`]: lexicographic comparison/successor utilities over integer
//!   boxes — the iteration-space order `≻` of Section 2.4.
//! - [`interval`]: closed integer intervals with saturating arithmetic.
//! - [`quasipoly`]: 1-parameter quasi-polynomial (Ehrhart-style) fitting for
//!   the parametric optimization style of Section 5.1.3.
//!
//! # Example
//!
//! ```
//! use cme_math::diophantine::count_two_var_solutions;
//!
//! // How many (x, y) with 0 <= x, y <= 7 satisfy 3x - y = 1?
//! let n = count_two_var_solutions(3, -1, 1, (0, 7), (0, 7));
//! assert_eq!(n, 2); // (1, 2) and (2, 5)
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod affine;
pub mod diophantine;
pub mod gcd;
pub mod interval;
pub mod lexi;
pub mod matrix;
pub mod polytope;
pub mod quasipoly;

pub use affine::Affine;
pub use interval::Interval;
pub use matrix::IntMatrix;
pub use polytope::Polytope;
