//! SAMML: the Sparse Abstract Machine dataflow IR with ML extensions.
//!
//! This crate defines the target representation of the FuseFlow compiler
//! (paper Sections 2 and 6): streaming dataflow graphs whose nodes are the
//! SAM primitives — level scanners, stream joiners (intersect/union),
//! repeaters, ALUs and reducers, level writers — extended with the SAMML
//! ML primitives FuseFlow adds: non-linear ALU functions, masking,
//! block-vectorized (tile) streams, higher-order sparse accumulators for
//! factored iteration, and stream parallelizer/serializer pairs.
//!
//! The graphs are abstract — decoupled from any particular accelerator —
//! and are executed by `fuseflow-sim`'s cycle-level backends, which own the
//! stream tokens the graphs carry at run time.
//!
//! # Example
//!
//! A level scanner wired from a root reference generator:
//!
//! ```
//! use fuseflow_sam::{MemLocation, NodeKind, SamGraph};
//!
//! let mut g = SamGraph::new();
//! let b = g.add_tensor("B", MemLocation::Dram);
//! let root = g.add_node(NodeKind::Root);
//! let scan = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
//! g.connect(root, 0, scan, 0);
//! assert!(g.validate().is_ok());
//! ```

// A graph this crate cannot take is a `GraphError`, never a panic: CI's
// clippy step holds the admission layer to that.
#![deny(clippy::unreachable)]

mod graph;
mod node;

pub use graph::{Edge, GraphError, NodeId, OutputSlot, Port, SamGraph, TensorSlot};
pub use node::{AluOp, MemLocation, NodeKind, PortSig, ReduceOp, StreamKind, MAX_SPACC_ORDER};
