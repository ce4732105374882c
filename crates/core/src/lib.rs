//! FuseFlow: fusion-centric compilation of sparse ML models to streaming
//! dataflow.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (ASPLOS '26): an end-to-end compiler from Einsum-level sparse ML
//! pipelines to SAMML dataflow graphs with **cross-expression kernel
//! fusion**.
//!
//! The compilation flow (paper Fig 6):
//!
//! 1. [`ir::Program`] — Einsum expressions with sparse formats and optional
//!    per-expression dataflow orders (the frontend's output; models are
//!    built with the `fuseflow-models` crate).
//! 2. [`schedule::Schedule`] — the scheduling language: `Fuse{}` regions
//!    and parallelization.
//! 3. [`fusion::fuse_region`] — cross-expression fusion with the partial
//!    order graph (POG) and recomputation scopes (Section 5).
//! 4. [`lower::lower_region`] — fusion-table lowering to SAMML with
//!    factored iteration and interleaved `Spacc` accumulator reductions
//!    (Section 6).
//! 5. [`pipeline::run`] — cycle-level execution on `fuseflow-sim`, with
//!    [`pipeline::verify`] against the structural reference interpreter.
//!
//! # Example
//!
//! ```
//! use fuseflow_core::ir::Program;
//! use fuseflow_core::pipeline::{compile, run, verify};
//! use fuseflow_core::schedule::Schedule;
//! use fuseflow_sim::SimConfig;
//! use fuseflow_tensor::{gen, Format};
//! use std::collections::HashMap;
//!
//! // T[i,j] = sum_k A[i,k] X[k,j], fused end to end.
//! let mut p = Program::new();
//! let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
//! let a = p.input("A", vec![16, 16], Format::csr());
//! let x = p.input("X", vec![16, 8], Format::csr());
//! let t = p.contract("T", vec![i, j], vec![(a, vec![i, k]), (x, vec![k, j])], vec![k], Format::csr());
//! p.mark_output(t);
//!
//! let mut inputs = HashMap::new();
//! inputs.insert("A".to_string(), gen::adjacency(16, 0.2, gen::GraphPattern::Uniform, 1, &Format::csr()));
//! inputs.insert("X".to_string(), gen::sparse_features(16, 8, 0.5, 2, &Format::csr()));
//!
//! let compiled = compile(&p, &Schedule::full())?;
//! let result = run(&p, &compiled, &inputs, &SimConfig::default())?;
//! verify(&p, &inputs, &result.outputs)?;
//! println!("{}", result.stats);
//! # Ok::<(), fuseflow_core::pipeline::PipelineError>(())
//! ```

pub mod fusion;
pub mod heuristic;
pub mod interp;
pub mod ir;
pub mod lower;
pub mod pipeline;
pub mod schedule;

pub use fusion::{fuse_region, FusedRegion, GlobalIx, Pog};
pub use heuristic::{estimate, Estimate};
pub use ir::{Access, Einsum, IndexVar, Program, ReduceOp, TensorId};
pub use lower::{lower_region, LowerError, LowerOptions, Lowered, Refused};
pub use pipeline::{compile, compile_run_verify, run, verify, Compiled, PipelineError, RunResult};
pub use schedule::{FusionGranularity, Schedule};
