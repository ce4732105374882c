//! The sparse ML model zoo evaluated by the paper (Section 8.1): Sparse
//! Autoencoder (SAE, 3 layers), Graph Convolutional Network (GCN, 2
//! layers), GraphSAGE (2 layers), and a GPT-3-style decoder with BigBird
//! block-sparse attention — each expressed as an Einsum [`Program`] with
//! its unfused / partially fused / fully fused schedules (Appendix C).
//!
//! Datasets are synthetic stand-ins matched to Table 2's shapes, sparsity
//! levels and structure, scaled for simulation feasibility (ARCHITECTURE.md,
//! "Substitutions").

use fuseflow_core::ir::Program;
use fuseflow_core::schedule::Schedule;
use fuseflow_tensor::SparseTensor;
use std::collections::HashMap;

pub mod datasets;
mod gcn;
mod gpt;
mod graphsage;
mod sae;
mod stack;

pub use datasets::{graph_dataset, GraphDataset, GRAPH_DATASETS, SAE_DATASETS};
pub use gcn::{gcn, gcn_composed};
pub use gpt::{gpt_attention, gpt_attention_blocked, gpt_decoder};
pub use graphsage::graphsage;
pub use sae::sae;
pub use stack::map_stack;

/// The three fusion granularities of Section 8.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fusion {
    /// Every kernel compiles alone.
    Unfused,
    /// Per-layer / per-subset `Fuse{}` regions (Appendix C).
    Partial,
    /// One region spanning the model (up to reshape barriers).
    Full,
}

impl Fusion {
    /// All three granularities.
    pub const ALL: [Fusion; 3] = [Fusion::Unfused, Fusion::Partial, Fusion::Full];
}

impl std::fmt::Display for Fusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fusion::Unfused => write!(f, "unfused"),
            Fusion::Partial => write!(f, "partial"),
            Fusion::Full => write!(f, "full"),
        }
    }
}

/// A ready-to-run model: program, bound inputs, and schedules for every
/// fusion granularity.
pub struct ModelInstance {
    /// Human-readable name.
    pub name: String,
    /// The Einsum pipeline.
    pub program: Program,
    /// Input bindings.
    pub inputs: HashMap<String, SparseTensor>,
    /// Expression ranges of the partial-fusion subsets.
    pub partial_regions: Vec<std::ops::Range<usize>>,
    /// Regions for full fusion (one, unless reshape barriers split it).
    pub full_regions: Vec<std::ops::Range<usize>>,
}

impl ModelInstance {
    /// The schedule realizing a fusion granularity.
    pub fn schedule(&self, fusion: Fusion) -> Schedule {
        match fusion {
            Fusion::Unfused => Schedule::unfused(),
            Fusion::Partial => Schedule::regions(self.partial_regions.clone()),
            Fusion::Full => Schedule::regions(self.full_regions.clone()),
        }
    }
}
