//! GPT-3-style decoder with BigBird block-sparse attention (Zaheer et al.),
//! Appendix C (d): reshape operations act as fusion barriers; partial
//! fusion groups subsets between reshapes, full fusion merges across the
//! softmax subset boundary.
//!
//! Two variants:
//! * [`gpt_decoder`] / [`gpt_attention`] — scalar pipelines whose BigBird
//!   mask (at block granularity 16/32/64) is expanded to an element-level
//!   CSR mask. `gpt_attention` is 9 expressions: score, mask, scale, the
//!   softmax (row max, shift, exp, row sum, divide) and AV.
//! * [`gpt_attention_blocked`] — the Section 7 "sparsity blocking" path:
//!   dense `b x b` tiles stream through `b^2`-lane ALUs (Fig 17). It is 4
//!   expressions: score, mask, exp and AV, with no scale and no softmax
//!   normalization, so that tiles remain uniform rank-2 streams. It is built
//!   with the scalar builders; each expression's block follows from its
//!   `[b, b]`-blocked inputs.
//!
//! Both are verified against the one structural interpreter: it evaluates
//! the blocked pipeline in element space, where a stored tile is `b x b`
//! present elements.
//!
//! Fig 17 runs `gpt_attention` as its unstructured arm, so the two arms are
//! different programs: the unstructured one also scales and normalizes.

use crate::gcn::dense;
use crate::ModelInstance;
use fuseflow_core::ir::{Program, ReduceOp};
use fuseflow_sam::AluOp;
use fuseflow_tensor::{gen, Crd, Format, SparseTensor};
use std::collections::HashMap;

/// Expands a BigBird block mask to an element-level CSR mask tensor.
fn scalar_mask(seq: usize, block: usize, kept: &[(Crd, Crd)]) -> SparseTensor {
    let mut entries = Vec::new();
    for &(r, c) in kept {
        for br in 0..block {
            for bc in 0..block {
                entries
                    .push((vec![r * block as Crd + br as Crd, c * block as Crd + bc as Crd], 1.0));
            }
        }
    }
    SparseTensor::from_coo(vec![seq, seq], entries, &Format::csr()).expect("mask in bounds")
}

/// Builds the standalone scalar BigBird attention pipeline (inputs Q, K, V
/// and the expanded mask): score, mask, scale, 4-kernel softmax, AV.
pub fn gpt_attention(seq: usize, d_head: usize, block: usize, seed: u64) -> ModelInstance {
    let mut p = Program::new();
    let q_t = p.input("Q", vec![seq, d_head], Format::dense(2));
    let k_t = p.input("K", vec![seq, d_head], Format::dense(2));
    let v_t = p.input("V", vec![seq, d_head], Format::dense(2));
    let m_t = p.input("Mask", vec![seq, seq], Format::csr());

    let (i, j, kx, l) = (p.index("i"), p.index("j"), p.index("k"), p.index("l"));
    let s = p.contract(
        "S",
        vec![i, j],
        vec![(q_t, vec![i, kx]), (k_t, vec![j, kx])],
        vec![kx],
        Format::dense(2),
    );
    let sm = p.binary(
        "Sm",
        AluOp::MulElem,
        (s, vec![i, j]),
        (m_t, vec![i, j]),
        vec![i, j],
        Format::csr(),
    );
    let sc =
        p.map("Sc", AluOp::Scale(1.0 / (d_head as f32).sqrt()), (sm, vec![i, j]), Format::csr());
    let mx = p.reduce("Mx", (sc, vec![i, j]), vec![j], ReduceOp::Max, Format::dense_vec());
    let sh = p.binary("Sh", AluOp::Sub, (sc, vec![i, j]), (mx, vec![i]), vec![i, j], Format::csr());
    let e = p.map("E", AluOp::Exp, (sh, vec![i, j]), Format::csr());
    let dn = p.reduce("Dn", (e, vec![i, j]), vec![j], ReduceOp::Sum, Format::dense_vec());
    let pr = p.binary("P", AluOp::Div, (e, vec![i, j]), (dn, vec![i]), vec![i, j], Format::csr());
    let o = p.contract(
        "O",
        vec![i, l],
        vec![(pr, vec![i, j]), (v_t, vec![j, l])],
        vec![j],
        Format::csr(),
    );
    p.mark_output(o);

    let kept = gen::bigbird_block_mask(seq, block, 2, 1, 1, seed);
    let mut inputs = HashMap::new();
    inputs.insert("Q".to_string(), dense(seq, d_head, seed + 1));
    inputs.insert("K".to_string(), dense(seq, d_head, seed + 2));
    inputs.insert("V".to_string(), dense(seq, d_head, seed + 3));
    inputs.insert("Mask".to_string(), scalar_mask(seq, block, &kept));

    ModelInstance {
        name: format!("bigbird-attn/b{block}"),
        program: p,
        inputs,
        partial_regions: vec![0..3, 3..9],
        full_regions: vec![0..9],
    }
}

/// Builds the blocked BigBird attention pipeline (Fig 17): `b x b` tiles
/// stream through block ALUs; masking via blocked elementwise multiply.
///
/// # Panics
///
/// Panics if `block` does not divide `seq` and `d_head`.
pub fn gpt_attention_blocked(seq: usize, d_head: usize, block: usize, seed: u64) -> ModelInstance {
    let b = block;
    let mut p = Program::new();
    let fmt_g = Format::dense(2);
    let q_t = p.blocked_input("Q", vec![seq, d_head], fmt_g.clone(), [b, b]);
    let k_t = p.blocked_input("K", vec![d_head, seq], fmt_g.clone(), [b, b]);
    let v_t = p.blocked_input("V", vec![seq, d_head], fmt_g.clone(), [b, b]);
    let m_t = p.blocked_input("Mask", vec![seq, seq], Format::csr(), [b, b]);

    let (i, j, kx, l) = (p.index("i"), p.index("j"), p.index("k"), p.index("l"));
    let qk = vec![(q_t, vec![i, kx]), (k_t, vec![kx, j])];
    let s = p.contract("S", vec![i, j], qk, vec![kx], Format::dense(2));
    let sm = p.binary(
        "Sm",
        AluOp::MulElem,
        (s, vec![i, j]),
        (m_t, vec![i, j]),
        vec![i, j],
        Format::csr(),
    );
    let e = p.map("E", AluOp::Exp, (sm, vec![i, j]), Format::csr());
    let o = p.contract(
        "O",
        vec![i, l],
        vec![(e, vec![i, j]), (v_t, vec![j, l])],
        vec![j],
        Format::csr(),
    );
    p.mark_output(o);

    let kept = gen::bigbird_block_mask(seq, b, 2, 1, 1, seed);
    let grid = |r: usize, c: usize, sd: u64| {
        let d = gen::dense_features(r, c, sd);
        let mut tiles = Vec::new();
        for gr in 0..r / b {
            for gc in 0..c / b {
                let mut tile = Vec::with_capacity(b * b);
                for rr in 0..b {
                    for cc in 0..b {
                        tile.push(d.get(&[gr * b + rr, gc * b + cc]));
                    }
                }
                tiles.push((vec![gr as Crd, gc as Crd], tile));
            }
        }
        SparseTensor::from_blocks(vec![r, c], [b, b], tiles, &Format::dense(2)).expect("grid")
    };
    let mut inputs = HashMap::new();
    inputs.insert("Q".to_string(), grid(seq, d_head, seed + 1));
    inputs.insert("K".to_string(), grid(d_head, seq, seed + 2));
    inputs.insert("V".to_string(), grid(seq, d_head, seed + 3));
    inputs.insert("Mask".to_string(), gen::block_mask_tensor(seq, b, &kept));

    ModelInstance {
        name: format!("bigbird-attn-blocked/b{b}"),
        program: p,
        inputs,
        partial_regions: vec![0..2, 2..4],
        full_regions: vec![0..4],
    }
}

/// Builds a full scalar decoder block: QKV projections | attention with
/// masked softmax | output projection + FFN. Reshape barriers separate the
/// three groups in every fusion granularity, matching Appendix C (d).
pub fn gpt_decoder(seq: usize, d_model: usize, block: usize, seed: u64) -> ModelInstance {
    let mut p = Program::new();
    let x_t = p.input("Xemb", vec![seq, d_model], Format::dense(2));
    let wq = p.input("Wq", vec![d_model, d_model], Format::dense(2));
    let wk = p.input("Wk", vec![d_model, d_model], Format::dense(2));
    let wv = p.input("Wv", vec![d_model, d_model], Format::dense(2));
    let m_t = p.input("Mask", vec![seq, seq], Format::csr());
    let wo = p.input("Wo", vec![d_model, d_model], Format::dense(2));
    let wf1 = p.input("Wf1", vec![d_model, 2 * d_model], Format::dense(2));
    let wf2 = p.input("Wf2", vec![2 * d_model, d_model], Format::dense(2));

    // Subset 1: projections.
    let (i, c1, c2, c3, dk) =
        (p.index("i"), p.index("c1"), p.index("c2"), p.index("c3"), p.index("dk"));
    let q = p.contract(
        "Q",
        vec![i, dk],
        vec![(x_t, vec![i, c1]), (wq, vec![c1, dk])],
        vec![c1],
        Format::dense(2),
    );
    let (jj,) = (p.index("j"),);
    let k = p.contract(
        "K",
        vec![jj, dk],
        vec![(x_t, vec![jj, c2]), (wk, vec![c2, dk])],
        vec![c2],
        Format::dense(2),
    );
    let v = p.contract(
        "V",
        vec![jj, dk],
        vec![(x_t, vec![jj, c3]), (wv, vec![c3, dk])],
        vec![c3],
        Format::dense(2),
    );

    // Subset 2: attention (after the reshape barrier).
    let (i2, j2, k2, l2) = (p.index("i2"), p.index("j2"), p.index("k2"), p.index("l2"));
    let s = p.contract(
        "S",
        vec![i2, j2],
        vec![(q, vec![i2, k2]), (k, vec![j2, k2])],
        vec![k2],
        Format::dense(2),
    );
    let sm = p.binary(
        "Smask",
        AluOp::MulElem,
        (s, vec![i2, j2]),
        (m_t, vec![i2, j2]),
        vec![i2, j2],
        Format::csr(),
    );
    let sc =
        p.map("Sc", AluOp::Scale(1.0 / (d_model as f32).sqrt()), (sm, vec![i2, j2]), Format::csr());
    let mx = p.reduce("Mx", (sc, vec![i2, j2]), vec![j2], ReduceOp::Max, Format::dense_vec());
    let sh =
        p.binary("Sh", AluOp::Sub, (sc, vec![i2, j2]), (mx, vec![i2]), vec![i2, j2], Format::csr());
    let e = p.map("Ex", AluOp::Exp, (sh, vec![i2, j2]), Format::csr());
    let dn = p.reduce("Dn", (e, vec![i2, j2]), vec![j2], ReduceOp::Sum, Format::dense_vec());
    let pr =
        p.binary("P", AluOp::Div, (e, vec![i2, j2]), (dn, vec![i2]), vec![i2, j2], Format::csr());
    let av = p.contract(
        "AV",
        vec![i2, l2],
        vec![(pr, vec![i2, j2]), (v, vec![j2, l2])],
        vec![j2],
        Format::csr(),
    );

    // Subset 3: output projection + FFN (after the second reshape barrier).
    let (d1, f1x, d2) = (p.index("d1"), p.index("f1"), p.index("d2"));
    let op_ = p.contract(
        "OP",
        vec![i2, d1],
        vec![(av, vec![i2, f1x]), (wo, vec![f1x, d1])],
        vec![f1x],
        Format::dense(2),
    );
    let (h1,) = (p.index("h1"),);
    let f1 = p.contract(
        "F1",
        vec![i2, h1],
        vec![(op_, vec![i2, d2]), (wf1, vec![d2, h1])],
        vec![d2],
        Format::dense(2),
    );
    let g = p.map("G", AluOp::Gelu, (f1, vec![i2, h1]), Format::dense(2));
    let (h2, d3) = (p.index("h2"), p.index("d3"));
    let f2 = p.contract(
        "F2",
        vec![i2, d3],
        vec![(g, vec![i2, h2]), (wf2, vec![h2, d3])],
        vec![h2],
        Format::dense(2),
    );
    p.mark_output(f2);

    let kept = gen::bigbird_block_mask(seq, block, 2, 1, 1, seed);
    let mut inputs = HashMap::new();
    inputs.insert("Xemb".to_string(), dense(seq, d_model, seed + 1));
    inputs.insert("Wq".to_string(), dense(d_model, d_model, seed + 2));
    inputs.insert("Wk".to_string(), dense(d_model, d_model, seed + 3));
    inputs.insert("Wv".to_string(), dense(d_model, d_model, seed + 4));
    inputs.insert("Mask".to_string(), scalar_mask(seq, block, &kept));
    inputs.insert("Wo".to_string(), dense(d_model, d_model, seed + 5));
    inputs.insert("Wf1".to_string(), dense(d_model, 2 * d_model, seed + 6));
    inputs.insert("Wf2".to_string(), dense(2 * d_model, d_model, seed + 7));

    // Reshape barriers separate the subsets; partial additionally splits
    // the attention subset at the softmax (Fig 22d's three subsets), and
    // full fusion merges across that split.
    ModelInstance {
        name: format!("gpt-decoder/b{block}"),
        program: p,
        inputs,
        partial_regions: vec![0..3, 3..6, 6..12, 12..16],
        full_regions: vec![0..3, 3..12, 12..16],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fusion;
    use fuseflow_core::pipeline::{compile, compile_at, compile_run_verify, run, verify};
    use fuseflow_sam::MemLocation;
    use fuseflow_sim::SimConfig;

    #[test]
    fn scalar_attention_verifies_at_every_granularity() {
        let m = gpt_attention(32, 8, 8, 3);
        for fusion in Fusion::ALL {
            compile_run_verify(&m.program, &m.schedule(fusion), &m.inputs, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{fusion}: {e}"));
        }
    }

    #[test]
    fn decoder_verifies_partial_and_full() {
        let m = gpt_decoder(16, 8, 4, 9);
        for fusion in [Fusion::Partial, Fusion::Full] {
            compile_run_verify(&m.program, &m.schedule(fusion), &m.inputs, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{fusion}: {e}"));
        }
    }

    #[test]
    fn blocked_attention_verifies_at_every_granularity() {
        let m = gpt_attention_blocked(16, 8, 4, 5);
        for fusion in Fusion::ALL {
            compile_run_verify(&m.program, &m.schedule(fusion), &m.inputs, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{fusion}: {e}"));
        }
    }

    /// Fig 16's configurations at two reduced sizes, each run checked
    /// against the interpreter: every granularity, in DRAM and on chip, and
    /// factors 1, 2 and 4 on the attention rows `i`, on the score columns
    /// `j`, and on both.
    #[test]
    fn blocked_attention_verifies_in_fig16s_configurations() {
        let sim = SimConfig::default();
        for (seq, d_head, block) in [(16, 8, 4), (64, 16, 8)] {
            let m = gpt_attention_blocked(seq, d_head, block, 91);
            let score = &m.program.exprs()[0].output.indices;
            let splits = [("i", vec![score[0]]), ("j", vec![score[1]]), ("both", score.clone())];
            let directives = splits.iter().flat_map(|split| [1, 2, 4].map(|f| (split, f)));
            for ((split, vars), factor) in directives {
                for fusion in Fusion::ALL {
                    for location in [MemLocation::Dram, MemLocation::OnChip] {
                        let sched = (vars.iter())
                            .fold(m.schedule(fusion), |s, v| s.with_parallelization(*v, factor));
                        let checked = compile_at(&m.program, &sched, location)
                            .and_then(|c| run(&m.program, &c, &m.inputs, &sim))
                            .and_then(|r| verify(&m.program, &m.inputs, &r.outputs));
                        if let Err(e) = checked {
                            panic!("seq {seq}, {fusion}, {location:?}, {split} x{factor}: {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_beats_unstructured_cycles() {
        let blocked = gpt_attention_blocked(32, 16, 8, 5);
        let unstructured = gpt_attention(32, 16, 8, 5);
        let cb = compile(&blocked.program, &blocked.schedule(Fusion::Full)).unwrap();
        let cu = compile(&unstructured.program, &unstructured.schedule(Fusion::Full)).unwrap();
        let rb = run(&blocked.program, &cb, &blocked.inputs, &SimConfig::default()).unwrap();
        let ru =
            run(&unstructured.program, &cu, &unstructured.inputs, &SimConfig::default()).unwrap();
        assert!(
            rb.stats.cycles < ru.stats.cycles,
            "blocked ({}) must beat unstructured ({})",
            rb.stats.cycles,
            ru.stats.cycles
        );
    }
}
