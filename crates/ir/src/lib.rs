//! # otter-ir
//!
//! The mid-level SPMD intermediate representation the Otter compiler
//! lowers analyzed MATLAB into, and from which both back ends work:
//!
//! * the **C emitter** (`otter-codegen::c_emit`) prints it as the
//!   SPMD C + `ML_*` run-time-library calls the paper shows in §3;
//! * the **executor** (`otter-core::exec`) runs it directly against
//!   `otter-rt`'s distributed matrices over `otter-mpi`.
//!
//! The IR reflects the paper's pass-4 invariant: every
//! communication-bearing operation (matrix multiply, element
//! broadcast, reductions, shifts, slicing) has been hoisted to
//! statement level as a run-time-library call ([`Instr`]), while
//! element-wise work remains as expression trees ([`EwExpr`]) that
//! compile to communication-free per-element loops. Scalar expressions
//! ([`SExpr`]) are replicated computations, identical on every rank.
//!
//! A program is one [`Frame`] per scope, each variable a [`Slot`] of
//! its frame's [`Vars`] table from lowering on. Passes and analyses
//! walk nested bodies through the two traversals in [`walk`], and read
//! the temporary/SSA-web naming rules from [`names`] through the table.

pub mod display;
pub mod flow;
pub mod frame;
pub mod instr;
pub mod names;
pub mod sites;
pub mod walk;

pub use flow::{sexpr_reads, CommProfile};
pub use frame::{by_name, Frame, IrProgram, Slot, Var, Vars};
pub use instr::*;
pub use names::{is_temp, split_web, web_name, TEMP_PREFIX};
pub use sites::{is_leaf, leaf_sites, SiteRef};
pub use walk::{preorder, visit_blocks_mut};
