//! 3-layer Sparse Autoencoder (Ng 2011), Appendix C (a): magnitude-pruned
//! weights (Table 2's "ZB lossy (wt)") around dense activations:
//! `SpMM1 → Add1 → ReLU → SpMM2 → Add2 → Sigmoid`.

use crate::gcn::dense_vec;
use crate::ModelInstance;
use fuseflow_core::ir::Program;
use fuseflow_sam::AluOp;
use fuseflow_tensor::{gen, Format, SparseTensor};
use std::collections::HashMap;

/// Builds the SAE on a flattened input of width `n_in` with `batch`
/// images and hidden width `hidden`. Weights keep `keep` of their largest
/// magnitudes (the paper prunes to 50%).
pub fn sae(
    name: &str,
    n_in: usize,
    hidden: usize,
    batch: usize,
    keep: f64,
    seed: u64,
) -> ModelInstance {
    let mut p = Program::new();
    let w1_t = p.input("W1", vec![hidden, n_in], Format::csr());
    let x_t = p.input("Xin", vec![n_in, batch], Format::dense(2));
    let b1_t = p.input("b1", vec![hidden], Format::dense_vec());
    let w2_t = p.input("W2", vec![n_in, hidden], Format::csr());
    let b2_t = p.input("b2", vec![n_in], Format::dense_vec());

    let (h, k, b) = (p.index("h"), p.index("k"), p.index("b"));
    let z1 = p.contract(
        "Z1",
        vec![h, b],
        vec![(w1_t, vec![h, k]), (x_t, vec![k, b])],
        vec![k],
        Format::csr(),
    );
    let z1b =
        p.binary("Z1b", AluOp::Add, (z1, vec![h, b]), (b1_t, vec![h]), vec![h, b], Format::csr());
    let hid = p.map("H", AluOp::Relu, (z1b, vec![h, b]), Format::csr());
    let (o, h2) = (p.index("o"), p.index("h2"));
    let z2 = p.contract(
        "Z2",
        vec![o, b],
        vec![(w2_t, vec![o, h2]), (hid, vec![h2, b])],
        vec![h2],
        Format::csr(),
    );
    let z2b =
        p.binary("Z2b", AluOp::Add, (z2, vec![o, b]), (b2_t, vec![o]), vec![o, b], Format::csr());
    let out = p.map("Out", AluOp::Sigmoid, (z2b, vec![o, b]), Format::csr());
    p.mark_output(out);

    let mut inputs = HashMap::new();
    inputs.insert(
        "W1".to_string(),
        SparseTensor::from_dense(&gen::pruned_weights(hidden, n_in, keep, seed), &Format::csr()),
    );
    inputs.insert(
        "Xin".to_string(),
        SparseTensor::from_dense(&gen::dense_features(n_in, batch, seed + 1), &Format::dense(2)),
    );
    inputs.insert("b1".to_string(), dense_vec(hidden, seed + 2));
    inputs.insert(
        "W2".to_string(),
        SparseTensor::from_dense(
            &gen::pruned_weights(n_in, hidden, keep, seed + 3),
            &Format::csr(),
        ),
    );
    inputs.insert("b2".to_string(), dense_vec(n_in, seed + 4));

    // Partial fusion: subset per layer (encoder / decoder). Note z2's
    // nested use of the ReLU output means full fusion recomputes the
    // encoder per decoder row, but each layer is dominated by its SpMM —
    // the paper's "partial offers limited benefit" observation.
    ModelInstance {
        name: format!("sae/{name}"),
        program: p,
        inputs,
        partial_regions: vec![0..3, 3..6],
        full_regions: vec![0..6],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fusion;
    use fuseflow_core::pipeline::compile_run_verify;
    use fuseflow_sim::SimConfig;

    #[test]
    fn sae_verifies_at_every_granularity() {
        let m = sae("tiny", 24, 10, 3, 0.5, 5);
        for fusion in Fusion::ALL {
            compile_run_verify(&m.program, &m.schedule(fusion), &m.inputs, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{fusion}: {e}"));
        }
    }
}
