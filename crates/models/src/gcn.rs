//! 2-layer Graph Convolutional Network (Kipf & Welling), Appendix C (b):
//! per layer `Adj-matmul → Lin-matmul → bias → nonlinearity`, with a
//! structure-respecting softmax closing layer 2.

use crate::{GraphDataset, ModelInstance};
use fuseflow_core::ir::{IndexVar, Program, ReduceOp};
use fuseflow_sam::AluOp;
use fuseflow_tensor::{gen, Format, SparseTensor};
use std::collections::HashMap;

/// Builds a 2-layer GCN on the given dataset with hidden width `hidden`
/// and `classes` output classes.
pub fn gcn(ds: &GraphDataset, hidden: usize, classes: usize, seed: u64) -> ModelInstance {
    build(ds, hidden, classes, seed, false)
}

/// [`gcn`] as a Custard/Stardust user rewrites it (Fig 4b's "C+S
/// (rewrite)"): each layer's `Adj·X·W` is one 3-input contraction reducing
/// both indices. One expression's iteration space is the global one, so
/// this program compiled unfused is the global-iteration baseline.
pub fn gcn_composed(ds: &GraphDataset, hidden: usize, classes: usize, seed: u64) -> ModelInstance {
    build(ds, hidden, classes, seed, true)
}

fn build(
    ds: &GraphDataset,
    hidden: usize,
    classes: usize,
    seed: u64,
    composed: bool,
) -> ModelInstance {
    let n = ds.nodes;
    let f = ds.feats;
    let mut p = Program::new();
    let ix = |p: &mut Program, s: &str| p.index(s);

    let a_t = p.input("Adj", vec![n, n], Format::csr());
    let x_t = p.input("X", vec![n, f], Format::csr());
    let w1_t = p.input("W1", vec![f, hidden], Format::dense(2));
    let b1_t = p.input("b1", vec![hidden], Format::dense_vec());
    let w2_t = p.input("W2", vec![hidden, classes], Format::dense(2));
    let b2_t = p.input("b2", vec![classes], Format::dense_vec());

    // `L = Adj·X·W`: the Adj-matmul into `T`, then the Lin-matmul; or,
    // composed, one product reducing `k` and `u`.
    let matmuls = |p: &mut Program, [t, l]: [&str; 2], x, w, [i, k, u, j]: [IndexVar; 4]| {
        let (a, x, w) = ((a_t, vec![i, k]), (x, vec![k, u]), (w, vec![u, j]));
        if composed {
            return p.contract(l, vec![i, j], vec![a, x, w], vec![k, u], Format::csr());
        }
        let t = p.contract(t, vec![i, u], vec![a, x], vec![k], Format::csr());
        p.contract(l, vec![i, j], vec![(t, vec![i, u]), w], vec![u], Format::csr())
    };

    // Layer 1: Adj1 -> Lin mm1 -> Lin bias1 -> ReLU.
    let (i, k1, u1, j1) = (ix(&mut p, "i"), ix(&mut p, "k1"), ix(&mut p, "u1"), ix(&mut p, "j1"));
    let l1 = matmuls(&mut p, ["T0", "L1"], x_t, w1_t, [i, k1, u1, j1]);
    let z1 =
        p.binary("Z1", AluOp::Add, (l1, vec![i, j1]), (b1_t, vec![j1]), vec![i, j1], Format::csr());
    let x1 = p.map("X1", AluOp::Relu, (z1, vec![i, j1]), Format::csr());
    let layer1 = p.exprs().len();

    // Layer 2: Adj2 -> Lin mm2 -> Lin bias2 -> Softmax (4 kernels).
    let (k2, u2, j2) = (ix(&mut p, "k2"), ix(&mut p, "u2"), ix(&mut p, "j2"));
    let l2 = matmuls(&mut p, ["T1", "L2"], x1, w2_t, [i, k2, u2, j2]);
    let z2 =
        p.binary("Z2", AluOp::Add, (l2, vec![i, j2]), (b2_t, vec![j2]), vec![i, j2], Format::csr());
    let m = p.reduce("M", (z2, vec![i, j2]), vec![j2], ReduceOp::Max, Format::dense_vec());
    let sh =
        p.binary("Sh", AluOp::Sub, (z2, vec![i, j2]), (m, vec![i]), vec![i, j2], Format::csr());
    let e = p.map("E", AluOp::Exp, (sh, vec![i, j2]), Format::csr());
    let d = p.reduce("D", (e, vec![i, j2]), vec![j2], ReduceOp::Sum, Format::dense_vec());
    let layer2 = p.exprs().len();
    let out =
        p.binary("Out", AluOp::Div, (e, vec![i, j2]), (d, vec![i]), vec![i, j2], Format::csr());
    p.mark_output(out);

    let mut inputs = HashMap::new();
    inputs.insert("Adj".to_string(), ds.adjacency(seed));
    inputs.insert("X".to_string(), ds.features(seed + 1));
    inputs.insert("W1".to_string(), dense(f, hidden, seed + 2));
    inputs.insert("b1".to_string(), dense_vec(hidden, seed + 3));
    inputs.insert("W2".to_string(), dense(hidden, classes, seed + 4));
    inputs.insert("b2".to_string(), dense_vec(classes, seed + 5));

    // Partial fusion: one region per layer. Full fusion: everything, but
    // layer 2's nested `Adj * X1` keeps layer 1 in its recomputation scope
    // — the degradation the paper reports for fully fused GCN.
    ModelInstance {
        name: format!("{}/{}", if composed { "gcn_composed" } else { "gcn" }, ds.name),
        program: p,
        inputs,
        partial_regions: vec![0..layer1, layer1..layer2],
        full_regions: vec![0..layer2],
    }
}

pub(crate) fn dense(r: usize, c: usize, seed: u64) -> SparseTensor {
    SparseTensor::from_dense(&gen::dense_features(r, c, seed), &Format::dense(2))
}

pub(crate) fn dense_vec(n: usize, seed: u64) -> SparseTensor {
    SparseTensor::from_dense(
        &gen::dense_features(1, n, seed).reshape(vec![n]),
        &Format::dense_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fusion;
    use fuseflow_core::ir::Einsum;
    use fuseflow_core::pipeline::compile_run_verify;
    use fuseflow_sim::SimConfig;

    const TINY: GraphDataset = GraphDataset {
        name: "tiny",
        nodes: 24,
        feats: 10,
        density: 0.1,
        pattern: gen::GraphPattern::Uniform,
    };

    #[test]
    fn gcn_verifies_at_every_granularity() {
        let m = gcn(&TINY, 8, 4, 7);
        for fusion in Fusion::ALL {
            compile_run_verify(&m.program, &m.schedule(fusion), &m.inputs, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{fusion}: {e}"));
        }
    }

    #[test]
    fn gcn_composed_is_gcn() {
        let (m, c) = (gcn(&TINY, 8, 4, 7), gcn_composed(&TINY, 8, 4, 7));
        let run = |m: &ModelInstance| {
            let unfused = m.schedule(Fusion::Unfused);
            compile_run_verify(&m.program, &unfused, &m.inputs, &SimConfig::default()).unwrap()
        };
        let (want, got) = (run(&m).outputs, run(&c).outputs);
        assert_eq!(want.len(), got.len());
        for (name, t) in &want {
            assert!(got[name].to_dense().approx_eq(&t.to_dense()), "{name} differs");
        }
        // Each layer's two matmuls are one product reducing both indices.
        assert_eq!(c.program.exprs().len() + 2, m.program.exprs().len());
        for layer in ["L1", "L2"] {
            let named = |e: &&Einsum| c.program.tensor(e.output.tensor).name == layer;
            let e = c.program.exprs().iter().find(named).expect("layer product");
            assert_eq!((e.inputs.len(), e.reduce.len()), (3, 2), "{layer}");
        }
    }
}
