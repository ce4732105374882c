//! Synthetic dataset registry mirroring Table 2.
//!
//! Real datasets are substituted by generators preserving shape ratios,
//! sparsity level, and sparsity structure (power-law for citation/collab
//! graphs), scaled down for simulation feasibility. ARCHITECTURE.md,
//! "Substitutions", says which properties the stand-ins keep.

use fuseflow_tensor::{gen, Format, SparseTensor};

/// A graph dataset description (GCN/GraphSAGE rows of Table 2).
#[derive(Debug, Clone, Copy)]
pub struct GraphDataset {
    /// Dataset name.
    pub name: &'static str,
    /// Number of nodes (scaled).
    pub nodes: usize,
    /// Feature width (scaled).
    pub feats: usize,
    /// Adjacency density (1 - sparsity; Table 2 reports 99.6-99.9%
    /// sparsity; scaled graphs keep comparable average degree).
    pub density: f64,
    /// Sparsity structure.
    pub pattern: gen::GraphPattern,
}

/// The five graph datasets (Cora, Cora_ML, DBLP, OGB-Collab, OGB-MAG).
pub const GRAPH_DATASETS: [GraphDataset; 5] = [
    GraphDataset {
        name: "cora",
        nodes: 192,
        feats: 64,
        density: 0.016,
        pattern: gen::GraphPattern::PowerLaw,
    },
    GraphDataset {
        name: "cora_ml",
        nodes: 208,
        feats: 56,
        density: 0.015,
        pattern: gen::GraphPattern::PowerLaw,
    },
    GraphDataset {
        name: "dblp",
        nodes: 256,
        feats: 48,
        density: 0.012,
        pattern: gen::GraphPattern::PowerLaw,
    },
    GraphDataset {
        name: "collab",
        nodes: 320,
        feats: 32,
        density: 0.008,
        pattern: gen::GraphPattern::PowerLaw,
    },
    GraphDataset {
        name: "mag",
        nodes: 384,
        feats: 32,
        density: 0.006,
        pattern: gen::GraphPattern::PowerLaw,
    },
];

/// SAE image datasets: (name, flattened input size, batch) — scaled from
/// ImageNet 224x224, NIH-CXR 1024x1024, LUNA16 512x512 with 50% pruned
/// weights.
pub const SAE_DATASETS: [(&str, usize, usize); 3] =
    [("imagenet", 784, 4), ("nih-cxr", 1024, 4), ("luna16", 512, 4)];

/// Looks up a graph dataset by name.
pub fn graph_dataset(name: &str) -> Option<&'static GraphDataset> {
    GRAPH_DATASETS.iter().find(|d| d.name == name)
}

impl GraphDataset {
    /// Generates the normalized adjacency matrix (CSR).
    pub fn adjacency(&self, seed: u64) -> SparseTensor {
        gen::adjacency(self.nodes, self.density, self.pattern, seed, &Format::csr())
    }

    /// Generates sparse bag-of-words node features (CSR, ~25% dense).
    pub fn features(&self, seed: u64) -> SparseTensor {
        gen::sparse_features(self.nodes, self.feats, 0.25, seed, &Format::csr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookup() {
        assert!(graph_dataset("collab").is_some());
        assert!(graph_dataset("imagenet").is_none());
        assert_eq!(GRAPH_DATASETS.len(), 5);
    }

    #[test]
    fn datasets_generate_consistent_shapes() {
        let d = graph_dataset("cora").unwrap();
        let a = d.adjacency(1);
        let x = d.features(2);
        assert_eq!(a.shape(), &[d.nodes, d.nodes]);
        assert_eq!(x.shape(), &[d.nodes, d.feats]);
        assert!(a.sparsity() > 0.9, "graph should be highly sparse");
    }
}
