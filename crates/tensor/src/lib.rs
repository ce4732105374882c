//! Sparse tensor substrate for the FuseFlow reproduction.
//!
//! This crate provides the storage and data-generation layer everything else
//! builds on:
//!
//! * [`DenseTensor`] — row-major dense tensors used by the reference
//!   interpreter (the "dense PyTorch implementation" the paper verifies
//!   against) and as a conversion endpoint.
//! * [`SparseTensor`] — fibertree-structured sparse tensors in the TACO
//!   format language (per-level [`LevelFormat::Dense`] /
//!   [`LevelFormat::Compressed`]), covering dense, CSR, DCSR, CSF and
//!   blocked structures, exactly the format space Section 4.1 of the paper
//!   supports.
//! * [`gen`] — synthetic dataset generators standing in for the paper's
//!   real-world datasets (Table 2), preserving shape, sparsity level and
//!   sparsity structure (uniform, power-law, block-diagonal, BigBird masks,
//!   magnitude-pruned weights).
//! * [`mod@reference`] — dense `matmul` and `add`, the expected
//!   results of hand-built test graphs.
//!
//! # Example
//!
//! ```
//! use fuseflow_tensor::{DenseTensor, Format, SparseTensor};
//!
//! let dense = DenseTensor::from_vec(vec![2, 3], vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0]);
//! let csr = SparseTensor::from_dense(&dense, &Format::csr());
//! assert_eq!(csr.nnz(), 3);
//! assert_eq!(csr.to_dense(), dense);
//! ```

mod dense;
mod format;
pub mod gen;
pub mod reference;
mod sparse;

pub use dense::DenseTensor;
pub use format::{Format, LevelFormat};
pub use sparse::{CooEntry, Level, SparseTensor, TensorError};

/// The scalar element type used throughout the workspace.
pub type Value = f32;

/// Coordinate type for sparse levels.
pub type Crd = u32;

/// Absolute tolerance used when comparing simulated against reference
/// results.
pub const VERIFY_EPS: f32 = 1e-3;

/// Returns `true` when two values are equal within a combined
/// absolute/relative tolerance suitable for accumulated f32 arithmetic.
///
/// ```
/// assert!(fuseflow_tensor::approx_eq(1.0, 1.0 + 1e-5));
/// assert!(!fuseflow_tensor::approx_eq(1.0, 1.1));
/// ```
pub fn approx_eq(a: f32, b: f32) -> bool {
    let diff = (a - b).abs();
    diff <= VERIFY_EPS || diff <= 1e-4 * a.abs().max(b.abs())
}
