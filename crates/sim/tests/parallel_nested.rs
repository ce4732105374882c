//! Additional simulator coverage: nested-depth serialization, blocked
//! reductions, instrumentation consistency, and the streams a scanner
//! emits.

use fuseflow_sam::{AluOp, MemLocation, NodeKind, ReduceOp, SamGraph};
use fuseflow_sim::{
    run_node_standalone, simulate, Block, Payload, SimConfig, SimError, TensorEnv, Tiles, Token,
};
use fuseflow_tensor::{gen, reference, DenseTensor, Format, SparseTensor};

/// Runs `kind` on streams that carry no tile.
fn standalone(
    kind: NodeKind,
    inputs: Vec<Vec<Token>>,
    tensors: Vec<SparseTensor>,
) -> Result<Vec<Vec<Token>>, SimError> {
    run_node_standalone(kind, inputs, tensors, &mut Tiles::default())
}

fn idx(i: u32) -> Token {
    Token::idx(i)
}

fn val(v: f32) -> Token {
    Token::Elem(Payload::F(v))
}

fn s(k: u8) -> Token {
    Token::Stop(k)
}

#[test]
fn serializer_depth2_merges_two_level_units() {
    // Units are (j, l) subtrees per i; branch 0 holds i0, branch 1 holds i1.
    let b0 = vec![val(1.0), s(0), val(2.0), s(2), Token::Done];
    let b1 = vec![val(3.0), val(4.0), s(1), s(2), Token::Done];
    let order = vec![idx(0), idx(1), s(0), Token::Done];
    let out = standalone(NodeKind::Serializer { factor: 2, depth: 2 }, vec![b0, b1, order], vec![])
        .unwrap();
    // The last unit's fiber boundary coalesces into the global stop.
    assert_eq!(out[0], vec![val(1.0), s(0), val(2.0), s(1), val(3.0), val(4.0), s(2), Token::Done]);
}

#[test]
fn blocked_reduce_accumulates_tiles_elementwise() {
    let mut tiles = Tiles::default();
    let b = Token::Elem(Payload::Blk(tiles.put(Block::new(2, 2, vec![1., 2., 3., 4.]))));
    let v = vec![b, b, s(1), Token::Done];
    let reduce = NodeKind::Spacc { order: 0, op: ReduceOp::Sum };
    let out = run_node_standalone(reduce, vec![v], vec![], &mut tiles).unwrap();
    let Token::Elem(Payload::Blk(r)) = out[0][0] else { panic!("block expected") };
    assert_eq!(tiles.get(r).data(), &[2., 4., 6., 8.]);
}

#[test]
fn spacc_max_takes_elementwise_maximum() {
    let crd = vec![idx(0), s(0), idx(0), s(1), Token::Done];
    let vals = vec![val(3.0), s(0), val(7.0), s(1), Token::Done];
    let out = standalone(NodeKind::Spacc { order: 1, op: ReduceOp::Max }, vec![crd, vals], vec![])
        .unwrap();
    assert_eq!(out[1], vec![val(7.0), s(0), Token::Done]);
}

/// A scanner emits each referenced fiber's coordinates and positions, a
/// `Stop(0)` after every fiber but the last, whose stop closes the input's
/// fiber too (`Stop(1)`), then `Done`.
#[test]
fn scanner_emits_one_fiber_per_reference() {
    let d = gen::sparse_features(10, 10, 0.3, 5, &Format::csr());
    let rows = [0u32, 3, 7];
    let refs = rows.iter().map(|&r| idx(r)).chain([s(0), Token::Done]).collect();
    let (mut crd, mut pos) = (Vec::new(), Vec::new());
    for (n, &r) in rows.iter().enumerate() {
        for (c, p) in d.level(1).fiber(r as usize) {
            crd.push(idx(c));
            pos.push(idx(p as u32));
        }
        let stop = s(u8::from(n + 1 == rows.len()));
        crd.push(stop);
        pos.push(stop);
    }
    crd.push(Token::Done);
    pos.push(Token::Done);
    assert!(crd.len() > 5, "the rows hold stored coordinates");
    let out =
        standalone(NodeKind::LevelScanner { tensor: 0, level: 1 }, vec![refs], vec![d]).unwrap();
    assert_eq!(out[0], crd);
    assert_eq!(out[1], pos);
}

/// Instrumentation consistency: FLOPs equal twice the matched pairs of a
/// sparse-dense matmul.
#[test]
fn flops_count_matches_matched_pairs() {
    let a_dense = DenseTensor::from_vec(vec![2, 3], vec![1., 0., 2., 0., 3., 0.]);
    let x_dense = DenseTensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
    let a = SparseTensor::from_dense(&a_dense, &Format::csr());
    let x = SparseTensor::from_dense(&x_dense, &Format::csr());

    let mut g = SamGraph::new();
    let at = g.add_tensor("A", MemLocation::OnChip);
    let xt = g.add_tensor("X", MemLocation::OnChip);
    let out = g.add_output("T", vec![2, 2], Format::csr(), MemLocation::OnChip);
    let root_a = g.add_node(NodeKind::Root);
    let root_x = g.add_node(NodeKind::Root);
    let ai = g.add_node(NodeKind::LevelScanner { tensor: at, level: 0 });
    let rep_x = g.add_node(NodeKind::Repeat);
    let ak = g.add_node(NodeKind::LevelScanner { tensor: at, level: 1 });
    let xk = g.add_node(NodeKind::LevelScanner { tensor: xt, level: 0 });
    let isect = g.add_node(NodeKind::Intersect);
    let a_vals = g.add_node(NodeKind::Array { tensor: at });
    let xj = g.add_node(NodeKind::LevelScanner { tensor: xt, level: 1 });
    let rep_a = g.add_node(NodeKind::Repeat);
    let x_vals = g.add_node(NodeKind::Array { tensor: xt });
    let mul = g.add_node(NodeKind::Alu { op: AluOp::Mul });
    let spacc = g.add_node(NodeKind::Spacc { order: 1, op: ReduceOp::Sum });
    let wc0 = g.add_node(NodeKind::CrdWriter { output: out, level: 0 });
    let wc1 = g.add_node(NodeKind::CrdWriter { output: out, level: 1 });
    let wv = g.add_node(NodeKind::ValWriter { output: out });
    g.connect(root_a, 0, ai, 0);
    g.connect(root_x, 0, rep_x, 0);
    g.connect(ai, 0, rep_x, 1);
    g.connect(ai, 0, wc0, 0);
    g.connect(ai, 1, ak, 0);
    g.connect(rep_x, 0, xk, 0);
    g.connect(ak, 0, isect, 0);
    g.connect(ak, 1, isect, 1);
    g.connect(xk, 0, isect, 2);
    g.connect(xk, 1, isect, 3);
    g.connect(isect, 1, a_vals, 0);
    g.connect(isect, 2, xj, 0);
    g.connect(a_vals, 0, rep_a, 0);
    g.connect(xj, 0, rep_a, 1);
    g.connect(xj, 1, x_vals, 0);
    g.connect(rep_a, 0, mul, 0);
    g.connect(x_vals, 0, mul, 1);
    g.connect(xj, 0, spacc, 0);
    g.connect(mul, 0, spacc, 1);
    g.connect(spacc, 0, wc1, 0);
    g.connect(spacc, 1, wv, 0);

    let mut env = TensorEnv::new();
    env.insert("A", a);
    env.insert("X", x);
    let res = simulate(&g, &env, &SimConfig::default()).unwrap();
    assert!(res.outputs["T"].to_dense().approx_eq(&reference::matmul(&a_dense, &x_dense)));
    // 3 stored A values x 2 dense X columns: 6 multiplies + accumulator
    // merges; multiplies alone are 6 and spacc merges add at most 6 more.
    assert!(res.stats.flops >= 6 && res.stats.flops <= 12, "flops = {}", res.stats.flops);
}

#[test]
fn on_chip_runs_produce_no_dram_traffic() {
    let d = gen::sparse_features(8, 8, 0.4, 3, &Format::csr());
    let mut g = SamGraph::new();
    let t = g.add_tensor("B", MemLocation::OnChip);
    let o = g.add_output("T", vec![8, 8], Format::csr(), MemLocation::OnChip);
    let root = g.add_node(NodeKind::Root);
    let bi = g.add_node(NodeKind::LevelScanner { tensor: t, level: 0 });
    let bj = g.add_node(NodeKind::LevelScanner { tensor: t, level: 1 });
    let arr = g.add_node(NodeKind::Array { tensor: t });
    let wc0 = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    let wc1 = g.add_node(NodeKind::CrdWriter { output: o, level: 1 });
    let wv = g.add_node(NodeKind::ValWriter { output: o });
    g.connect(root, 0, bi, 0);
    g.connect(bi, 0, wc0, 0);
    g.connect(bi, 1, bj, 0);
    g.connect(bj, 0, wc1, 0);
    g.connect(bj, 1, arr, 0);
    g.connect(arr, 0, wv, 0);
    let mut env = TensorEnv::new();
    env.insert("B", d.clone());
    let res = simulate(&g, &env, &SimConfig::default()).unwrap();
    assert_eq!(res.stats.dram_bytes(), 0);
    assert_eq!(res.outputs["T"].to_dense(), d.to_dense());
}
