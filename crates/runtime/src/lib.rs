//! # otter-rt
//!
//! The run-time library of the Otter parallel MATLAB compiler
//! reproduction — the `ML_*` layer of the paper's Figure 1 stack.
//!
//! Responsibilities (paper §4):
//!
//! * allocation and layout of distributed vectors and matrices
//!   ([`DistMatrix`]: row-contiguous matrix blocks, element-block
//!   vectors, replicated scalars);
//! * every matrix/vector operation that requires interprocessor
//!   communication (`matmul`, `matvec`, transpose, outer products,
//!   reductions, shifts, slicing, element broadcast);
//! * ownership tests (`is_owner`) and local addressing
//!   (`local_offset`) used by the owner-computes guards the compiler
//!   emits;
//! * coordinated I/O through rank 0.
//!
//! Element-wise loops stay in the generated code (here: the `map`/
//! `zip` helpers), exactly as in the paper, because they never
//! communicate: identically shaped objects are identically
//! distributed.
//!
//! The [`Dense`] type is the purely local matrix kernel, shared by the
//! interpreter baseline and used as the oracle in this crate's tests.

pub mod alloc;
pub mod dense;
pub mod dist;
pub mod io;
pub mod kernels;
pub mod linalg;
pub mod matrix;
pub mod ops;
pub mod reduce;

pub use dense::Dense;
pub use dist::Block;
pub use io::LoadError;
pub use linalg::Generated;
pub use matrix::{DistMatrix, Gathered, LayoutError};
pub use otter_mpi::CommError;
pub use reduce::ColOp;
