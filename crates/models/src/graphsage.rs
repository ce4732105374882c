//! 2-layer GraphSAGE (Hamilton et al.), Appendix C (c): per layer a
//! neighborhood branch `Adj X W_n`, a self branch `X W_s`, an add, and a
//! nonlinearity.

use crate::gcn::{dense, dense_vec};
use crate::{GraphDataset, ModelInstance};
use fuseflow_core::ir::{Program, ReduceOp};
use fuseflow_sam::AluOp;
use fuseflow_tensor::Format;
use std::collections::HashMap;

/// Builds a 2-layer GraphSAGE on the given dataset.
pub fn graphsage(ds: &GraphDataset, hidden: usize, classes: usize, seed: u64) -> ModelInstance {
    let n = ds.nodes;
    let f = ds.feats;
    let mut p = Program::new();

    let a_t = p.input("Adj", vec![n, n], Format::csr());
    let x_t = p.input("X", vec![n, f], Format::csr());
    let wn1 = p.input("Wn1", vec![f, hidden], Format::dense(2));
    let ws1 = p.input("Ws1", vec![f, hidden], Format::dense(2));
    let b1 = p.input("b1", vec![hidden], Format::dense_vec());
    let wn2 = p.input("Wn2", vec![hidden, classes], Format::dense(2));
    let ws2 = p.input("Ws2", vec![hidden, classes], Format::dense(2));
    let b2 = p.input("b2", vec![classes], Format::dense_vec());

    // Layer 1 (7 kernels): Adj1, Lin mm1a(+bias fold), Lin mm1b, Add, ReLU.
    let (i, l1, m1, u1) = (p.index("i"), p.index("l1"), p.index("m1"), p.index("u1"));
    let t0 = p.contract(
        "T0",
        vec![i, m1],
        vec![(a_t, vec![i, l1]), (x_t, vec![l1, m1])],
        vec![l1],
        Format::csr(),
    );
    let tn1 = p.contract(
        "Tn1",
        vec![i, u1],
        vec![(t0, vec![i, m1]), (wn1, vec![m1, u1])],
        vec![m1],
        Format::csr(),
    );
    let (ks1,) = (p.index("ks1"),);
    let ts1 = p.contract(
        "Ts1",
        vec![i, u1],
        vec![(x_t, vec![i, ks1]), (ws1, vec![ks1, u1])],
        vec![ks1],
        Format::csr(),
    );
    let s1 = p.binary(
        "S1",
        AluOp::Add,
        (ts1, vec![i, u1]),
        (tn1, vec![i, u1]),
        vec![i, u1],
        Format::csr(),
    );
    let s1b =
        p.binary("S1b", AluOp::Add, (s1, vec![i, u1]), (b1, vec![u1]), vec![i, u1], Format::csr());
    let x1 = p.map("X1", AluOp::Relu, (s1b, vec![i, u1]), Format::csr());

    // Layer 2 (+ softmax tail).
    let (l2, m2, u2, ks2) = (p.index("l2"), p.index("m2"), p.index("u2"), p.index("ks2"));
    let t1 = p.contract(
        "T1",
        vec![i, m2],
        vec![(a_t, vec![i, l2]), (x1, vec![l2, m2])],
        vec![l2],
        Format::csr(),
    );
    let tn2 = p.contract(
        "Tn2",
        vec![i, u2],
        vec![(t1, vec![i, m2]), (wn2, vec![m2, u2])],
        vec![m2],
        Format::csr(),
    );
    let ts2 = p.contract(
        "Ts2",
        vec![i, u2],
        vec![(x1, vec![i, ks2]), (ws2, vec![ks2, u2])],
        vec![ks2],
        Format::csr(),
    );
    let s2 = p.binary(
        "S2",
        AluOp::Add,
        (ts2, vec![i, u2]),
        (tn2, vec![i, u2]),
        vec![i, u2],
        Format::csr(),
    );
    let s2b =
        p.binary("S2b", AluOp::Add, (s2, vec![i, u2]), (b2, vec![u2]), vec![i, u2], Format::csr());
    let mx = p.reduce("Mx", (s2b, vec![i, u2]), vec![u2], ReduceOp::Max, Format::dense_vec());
    let sh =
        p.binary("Sh", AluOp::Sub, (s2b, vec![i, u2]), (mx, vec![i]), vec![i, u2], Format::csr());
    let e = p.map("E", AluOp::Exp, (sh, vec![i, u2]), Format::csr());
    let d = p.reduce("D", (e, vec![i, u2]), vec![u2], ReduceOp::Sum, Format::dense_vec());
    let out =
        p.binary("Out", AluOp::Div, (e, vec![i, u2]), (d, vec![i]), vec![i, u2], Format::csr());
    p.mark_output(out);

    let mut inputs = HashMap::new();
    inputs.insert("Adj".to_string(), ds.adjacency(seed));
    inputs.insert("X".to_string(), ds.features(seed + 1));
    inputs.insert("Wn1".to_string(), dense(f, hidden, seed + 2));
    inputs.insert("Ws1".to_string(), dense(f, hidden, seed + 3));
    inputs.insert("b1".to_string(), dense_vec(hidden, seed + 4));
    inputs.insert("Wn2".to_string(), dense(hidden, classes, seed + 5));
    inputs.insert("Ws2".to_string(), dense(hidden, classes, seed + 6));
    inputs.insert("b2".to_string(), dense_vec(classes, seed + 7));

    ModelInstance {
        name: format!("graphsage/{}", ds.name),
        program: p,
        inputs,
        partial_regions: vec![0..6, 6..16],
        full_regions: vec![0..16],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fusion;
    use fuseflow_core::pipeline::compile_run_verify;
    use fuseflow_sim::SimConfig;
    use fuseflow_tensor::gen;

    #[test]
    fn graphsage_verifies_at_every_granularity() {
        let ds = GraphDataset {
            name: "tiny",
            nodes: 20,
            feats: 8,
            density: 0.12,
            pattern: gen::GraphPattern::Uniform,
        };
        let m = graphsage(&ds, 6, 4, 17);
        for fusion in Fusion::ALL {
            compile_run_verify(&m.program, &m.schedule(fusion), &m.inputs, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{fusion}: {e}"));
        }
    }
}
