//! # pasm-prog — experiment programs for the PASM prototype simulator
//!
//! Generators for every program the paper's experiments run:
//!
//! * [`matmul`] — the four matrix-multiplication variants (optimized serial,
//!   pure SIMD, pure MIMD, hybrid S/MIMD) over the columnar layout of
//!   paper §4, parameterized by matrix size `n`, processor count `p`, and the
//!   number of *added inner-loop multiplies* (the Figure-7 variable),
//! * [`microbench`] — the straight-line instruction-rate programs behind the
//!   raw-MIPS comparison of Table 1,
//! * [`reduction`] — a communication-dominated global-sum workload that
//!   isolates the three communication protocols (polling, barrier, lockstep),
//! * [`workload`] — seeded matrices (identity A, uniform-random B, and
//!   bit-density-controlled variants for ablations) plus a host reference
//!   multiply for verification,
//! * [`layout`] — the columnar in-memory data layout shared by all variants,
//! * [`codegen`] — the common register conventions and code idioms, kept
//!   identical across variants so that mode effects are the only difference,
//!   and the two programs every kernel shares: the SIMD PE bootstrap and the
//!   MIMD/S-MIMD MC program.

pub mod codegen;
pub mod layout;
pub mod matmul;
pub mod microbench;
pub mod mode;
pub mod reduction;
pub mod workload;

pub use layout::Layout;
pub use matmul::{select_vm, CommSync, MatmulParams, VirtualMachine};
pub use mode::Mode;
pub use workload::Matrix;
