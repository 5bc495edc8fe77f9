//! Dense and sparse linear-algebra kernels for the `ohmflow` workspace.
//!
//! The circuit simulator ([`ohmflow-circuit`]) assembles modified-nodal-analysis
//! (MNA) systems whose matrices are large, very sparse, unsymmetric and — because
//! the analog max-flow substrate contains *negative* resistors — indefinite.
//! This crate provides everything needed to solve them without external
//! dependencies:
//!
//! * [`DenseMatrix`] with partial-pivoting LU ([`DenseLu`]) for small systems
//!   and for tests,
//! * [`TripletMatrix`] (coordinate) assembly and [`CsrMatrix`] / [`CscMatrix`]
//!   compressed storage,
//! * [`SparseLu`], a left-looking Gilbert–Peierls LU with partial pivoting,
//!   always ordered through a block-triangular permutation (maximum
//!   transversal + Tarjan SCC, [`block_triangular_form`]) with a true
//!   quotient-graph approximate minimum degree ([`amd_ordering`]) on every
//!   diagonal block ([`amd_btf_ordering`]); there is no ordering option.
//!   Reference factors under a single-block permutation (AMD, or the
//!   [`verify::min_degree_ordering`] fill oracle) go through
//!   [`SparseLu::factor_ordered`]. Each diagonal block factors
//!   independently, KLU-style: cross-block entries are kept as raw matrix
//!   values applied during substitution rather than folded into `U`.
//!   Alongside sits a KLU-style numeric-only [`SparseLu::refactor`] path
//!   reusing the ordering, symbolic pattern and pivot sequence for
//!   value-only matrix changes. The factorization is split into an
//!   immutable, `Arc`-shared [`SymbolicLu`] elimination plan and per-thread
//!   numeric values ([`NumericLu`]), so same-topology batch members factor
//!   concurrently against one symbolic analysis ([`SymbolicLu::numeric`]).
//!   The dense trailing core of each block (its nested tail, where the
//!   fill concentrates) is stored, replayed and solved as one dense LU
//!   ([`SymbolicLu::core_range`]). Solves are dense traversals, one
//!   right-hand side
//!   ([`SparseLu::solve_into`]) or up to eight lanes at once
//!   ([`SparseLu::solve_multi_into`]),
//! * [`LowRankUpdate`] — Sherman–Morrison–Woodbury rank-k solve updates, so
//!   a 1–2 entry conductance change (a clamp-diode toggle) updates an
//!   existing factorization instead of discarding it,
//! * iterative refinement and the small vector helpers in [`vecops`].
//!
//! # Example
//!
//! ```
//! use ohmflow_linalg::{TripletMatrix, SparseLu};
//!
//! # fn main() -> Result<(), ohmflow_linalg::LinalgError> {
//! let mut a = TripletMatrix::new(2, 2);
//! a.push(0, 0, 4.0);
//! a.push(0, 1, 1.0);
//! a.push(1, 0, 1.0);
//! a.push(1, 1, 3.0);
//! let lu = SparseLu::factor(&a.to_csc())?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! [`ohmflow-circuit`]: https://example.com/ohmflow

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod dense;
mod error;
mod lowrank;
mod ordering;
mod sparse;
mod sparse_lu;
pub mod vecops;
pub mod verify;

pub use dense::{DenseLu, DenseMatrix};
pub use error::LinalgError;
pub use lowrank::{LowRankUpdate, RankOneTermRef};
pub use ordering::{
    amd_btf_ordering, amd_ordering, block_triangular_form, maximum_transversal, BlockOrdering,
    BtfStructure,
};
pub use sparse::{CscMatrix, CsrMatrix, TripletMatrix};
pub use sparse_lu::{LuWorkspace, NumericLu, SparseLu, SparseLuOptions, SymbolicLu};
pub use verify::AuditError;
