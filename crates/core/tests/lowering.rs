//! Structural tests of the lowering: generated SAMML graph shapes, fused
//! iteration orders, transposition materialization, and parallelization.

use fuseflow_core::fuse_region;
use fuseflow_core::fusion::{FuseError, FusedRegion, GlobalIx};
use fuseflow_core::interp::{interpret, InterpError};
use fuseflow_core::ir::{AluOp, IndexVar, Program, ReduceOp, TensorId};
use fuseflow_core::lower::{lower_region, LowerError, LowerOptions, Refused};
use fuseflow_core::pipeline::{
    compile, compile_at, compile_run_verify, compile_with, run, verify, Compiled, PipelineError,
};
use fuseflow_core::schedule::Schedule;
use fuseflow_models::{
    gcn, gcn_composed, gpt_attention, gpt_attention_blocked, gpt_decoder, graphsage, map_stack,
    sae, Fusion, GraphDataset, ModelInstance, GRAPH_DATASETS, SAE_DATASETS,
};
use fuseflow_sam::{MemLocation, NodeId, NodeKind, Port, SamGraph};
use fuseflow_sim::SimConfig;
use fuseflow_tensor::gen::{adjacency, GraphPattern};
use fuseflow_tensor::{DenseTensor, Format, SparseTensor};
use fuseflow_verify::{graph_errors, verify_graph, Diag, VerifyConfig, VerifyOptions};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Barrier;

fn spmm_chain() -> Program {
    let mut p = Program::new();
    let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
    let a = p.input("A", vec![8, 8], Format::csr());
    let x = p.input("X", vec![8, 6], Format::csr());
    let w = p.input("W", vec![6, 4], Format::dense(2));
    let t0 = p.contract(
        "T0",
        vec![i, u],
        vec![(a, vec![i, k]), (x, vec![k, u])],
        vec![k],
        Format::csr(),
    );
    let t1 = p.contract(
        "T1",
        vec![i, j],
        vec![(t0, vec![i, u]), (w, vec![u, j])],
        vec![u],
        Format::csr(),
    );
    p.mark_output(t1);
    p
}

#[test]
fn factored_lowering_uses_spacc_per_contraction() {
    let p = spmm_chain();
    let region = fuse_region(&p, 0..2).unwrap();
    let low = lower_region(&p, &region, p.outputs(), &LowerOptions::default()).unwrap();
    let hist = low.graph.kind_histogram();
    // Two contractions with non-innermost reductions: two sparse
    // accumulators (factored iteration), no plain inner Reduce.
    assert_eq!(hist.get("Spacc1"), Some(&2));
    assert!(!hist.contains_key("Reduce"));
    assert!(hist["LevelScanner"] >= 4);
    assert_eq!(hist["ValWriter"], 1);
    assert_eq!(hist["CrdWriter"], 2);
    assert!(low.graph.validate().is_ok());
}

/// `spmm_chain` as a Custard/Stardust user rewrites it: one product of A, X
/// and W, whose single iteration space is the global one. Its two
/// reductions lower to chained sparse accumulators.
#[test]
fn composed_product_lowers_to_chained_accumulators() {
    let mut p = Program::new();
    let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
    let a = p.input("A", vec![8, 8], Format::csr());
    let x = p.input("X", vec![8, 6], Format::csr());
    let w = p.input("W", vec![6, 4], Format::dense(2));
    let inputs = vec![(a, vec![i, k]), (x, vec![k, u]), (w, vec![u, j])];
    let t1 = p.contract("T1", vec![i, j], inputs, vec![k, u], Format::csr());
    p.mark_output(t1);
    let region = fuse_region(&p, 0..1).unwrap();
    let low = lower_region(&p, &region, p.outputs(), &LowerOptions::default()).unwrap();
    let g = &low.graph;
    let spaccs: Vec<NodeId> = (0..g.node_count())
        .map(NodeId)
        .filter(|&n| matches!(g.node(n), NodeKind::Spacc { order: 1, .. }))
        .collect();
    let [inner, outer] = spaccs[..] else { panic!("two accumulators, got {spaccs:?}") };
    // The outer accumulator takes both its streams from the inner one.
    assert_eq!(g.edges().iter().filter(|e| e.src.node == inner && e.dst.node == outer).count(), 2);
    assert!(!g.kind_histogram().contains_key("Reduce"));
    assert!(g.validate().is_ok());
}

/// The fused region iterates `i, k, u, j`, with `k` renamed `u0`, and the
/// fully fused graph streams the intermediate `T0`: it neither reads
/// nor writes a tensor of that name.
#[test]
fn a_fused_chain_streams_its_intermediate_in_the_chosen_order() {
    let p = spmm_chain();
    let region = fuse_region(&p, 0..2).unwrap();
    let order: Vec<&str> =
        region.order.iter().map(|g| region.names[g.0 as usize].as_str()).collect();
    assert_eq!(order, ["i", "u0", "u", "j"]);
    let compiled = compile(&p, &Schedule::full()).unwrap();
    assert!(compiled.node_count() > 10);
    let g = &compiled.lowered[0].graph;
    assert!(g.tensors().iter().all(|t| t.name != "T0"), "{:?}", g.tensors());
    assert!(g.outputs().iter().all(|o| o.name != "T0"), "{:?}", g.outputs());
}

/// `O[i,j] = M[i,j] * N[j,i]` over 6×6 DCSR matrices: M (i->j mode order)
/// element-multiplied with N accessed (j, i), so concordant traversal is
/// impossible without reformatting one view.
fn transposed_product() -> Program {
    let mut p = Program::new();
    let (i, j) = (p.index("i"), p.index("j"));
    let m = p.input("M", vec![6, 6], Format::dcsr());
    let n = p.input("N", vec![6, 6], Format::dcsr());
    let o = p.expr(
        "O",
        vec![i, j],
        vec![(m, vec![i, j]), (n, vec![j, i])],
        Some(AluOp::Mul),
        vec![],
        ReduceOp::Sum,
        Format::dcsr(),
    );
    p.mark_output(o);
    p
}

#[test]
fn transposed_views_request_permuted_inputs() {
    let p = transposed_product();
    let region = fuse_region(&p, 0..1).unwrap();
    assert_eq!(region.transposes.len(), 1);
    let low = lower_region(&p, &region, p.outputs(), &LowerOptions::default()).unwrap();
    assert_eq!(low.permuted_inputs.len(), 1);
    assert_eq!(low.permuted_inputs[0].perm, vec![1, 0]);
    assert_eq!(low.permuted_inputs[0].base, "N");
}

/// `run` binds its inputs through `interpret`'s check: an `N` bound at
/// another order, in blocks or at another size is an error naming `N`, not a
/// panic in the permute that transposes it, nor a simulation of the wrong
/// matrix.
#[test]
fn a_misbound_input_is_an_error_naming_it() {
    let p = transposed_product();
    let compiled = compile(&p, &Schedule::full()).unwrap();
    let dense = |shape: Vec<usize>, format: &Format| {
        let data = (0..shape.iter().product()).map(|v| (v % 5) as f32).collect();
        SparseTensor::from_dense(&DenseTensor::from_vec(shape, data), format)
    };
    let blocked = SparseTensor::from_blocks(
        vec![6, 6],
        [2, 2],
        vec![(vec![0, 1], vec![1.0; 4])],
        &Format::dcsr(),
    )
    .unwrap();
    let bind = |n: SparseTensor| {
        HashMap::from([("M".to_string(), dense(vec![6, 6], &Format::dcsr())), ("N".to_string(), n)])
    };
    let sim = SimConfig::default();
    let good = bind(dense(vec![6, 6], &Format::dcsr()));
    verify(&p, &good, &run(&p, &compiled, &good, &sim).unwrap().outputs).unwrap();
    for (what, n) in [
        ("6x6x2", dense(vec![6, 6, 2], &Format::csf(3))),
        ("2x2 blocks", blocked),
        ("9x9", dense(vec![9, 9], &Format::dcsr())),
    ] {
        match run(&p, &compiled, &bind(n), &sim) {
            Err(PipelineError::Interp(InterpError::InputShape { name, .. })) => {
                assert_eq!(name, "N", "{what}")
            }
            res => panic!("{what}: {:?}", res.map(|r| r.stats)),
        }
    }
}

/// A blocked tensor has no permuted copy (`SparseTensor::permute` refuses
/// tiles), so cycle resolution never transposes a blocked view: an order
/// that would need one fails to compile instead of panicking in `run`.
#[test]
fn a_blocked_view_is_never_transposed() {
    let mut p = Program::new();
    let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
    let a = p.blocked_input("A", vec![8, 8], Format::dense(2), [4, 4]);
    let b = p.blocked_input("B", vec![8, 8], Format::dense(2), [4, 4]);
    let ab = vec![(a, vec![i, k]), (b, vec![k, j])];
    let e = p.contract("E", vec![i, j], ab, vec![k], Format::dense(2));
    p.set_dataflow(vec![i, j, k]);
    p.mark_output(e);
    let err = compile(&p, &Schedule::full()).unwrap_err();
    let cycle = LowerError::Fusion(FuseError::UnresolvableCycle);
    assert!(matches!(&err, PipelineError::Lower(e) if *e == cycle), "{err}");
}

/// `T[i,j] = Σ_k A[k,i]·B[k,j]` with both inputs stored k-major: the one
/// concordant order puts `k` above both free rows, which needs a deeper
/// accumulator than the simulator has. Fusion takes that order anyway; the
/// lowering is where the accumulator's depth is checked, and it refuses.
#[test]
fn a_reduction_above_two_free_rows_is_refused_by_the_lowering() {
    let mut p = Program::new();
    let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
    let a = p.input("A", vec![6, 5], Format::csr());
    let b = p.input("B", vec![6, 4], Format::csr());
    let ab = vec![(a, vec![k, i]), (b, vec![k, j])];
    let t = p.contract("T", vec![i, j], ab, vec![k], Format::csr());
    p.mark_output(t);
    let region = fuse_region(&p, 0..1).unwrap();
    let names: Vec<&str> =
        region.order.iter().map(|g| region.names[g.0 as usize].as_str()).collect();
    assert_eq!(names, ["u0", "i", "j"]);
    let err = compile(&p, &Schedule::full()).unwrap_err();
    assert!(
        matches!(&err, PipelineError::Lower(LowerError::Unsupported(m)) if m.contains("needs a deeper accumulator")),
        "{err}"
    );
}

#[test]
fn unfused_compilation_produces_one_graph_per_expression() {
    let p = spmm_chain();
    let compiled = compile(&p, &Schedule::unfused()).unwrap();
    assert_eq!(compiled.lowered.len(), 2);
    // The intermediate T0 crosses the region boundary: written by region 0.
    let region0_outputs: Vec<&str> =
        compiled.lowered[0].graph.outputs().iter().map(|o| o.name.as_str()).collect();
    assert_eq!(region0_outputs, ["T0"]);
}

#[test]
fn recomputation_scope_duplicates_iteration_under_consumer_rows() {
    // Fully fused A(A X): the inner matmul nests under the outer row loop.
    let mut p = Program::new();
    let (i, k, u, k2) = (p.index("i"), p.index("k"), p.index("u"), p.index("k2"));
    let a = p.input("A", vec![8, 8], Format::csr());
    let x = p.input("X", vec![8, 4], Format::csr());
    let x1 = p.contract(
        "X1",
        vec![i, u],
        vec![(a, vec![i, k]), (x, vec![k, u])],
        vec![k],
        Format::csr(),
    );
    let t = p.contract(
        "T",
        vec![i, u],
        vec![(a, vec![i, k2]), (x1, vec![k2, u])],
        vec![k2],
        Format::csr(),
    );
    p.mark_output(t);
    let region = fuse_region(&p, 0..2).unwrap();
    assert!(!region.scopes[0].is_empty(), "producer nests under the consumer's row");
    assert!(region.scopes[1].is_empty());
    let low = lower_region(&p, &region, p.outputs(), &LowerOptions::default()).unwrap();
    // The producer's row-`k2` scan of `A` (its own `i`, level 0) is
    // intersected with the consumer's scan of `A` at `k2` (level 1): the
    // recomputation runs only at the consumer's stored `k2`. No `UnionLeft`
    // keeps every producer coordinate.
    let g = &low.graph;
    let scan_into = |j: NodeId, port: usize| {
        let e = g.edges().iter().find(|e| e.dst == Port { node: j, port }).expect("wired");
        (g.node(e.src.node).clone(), e.src.port)
    };
    let a_scan = |level| (NodeKind::LevelScanner { tensor: 0, level }, 0);
    let joins: Vec<NodeId> = (0..g.node_count())
        .map(NodeId)
        .filter(|&n| *g.node(n) == NodeKind::Intersect)
        .filter(|&n| scan_into(n, 0) == a_scan(0) && scan_into(n, 2) == a_scan(1))
        .collect();
    assert_eq!(joins.len(), 1, "{:?}", g.kind_histogram());
    assert!(!g.kind_histogram().contains_key("UnionLeft"));
}

/// Fully fused GraphSAGE recomputes layer 1 under `T1 = Σ_l Adj[i,l]·X1[l,m]`
/// at `T1`'s reduced row `l`, and `X1` is `relu(Ts1 + Tn1 + b1)`. Both leaves
/// of that union at `l` (`T0`'s scan of `Adj` and `Ts1`'s scan of `X`, each
/// at level 0) feed an `Intersect` with their own level-1 scan of `Adj`, read
/// from `T1`'s row-`i` references. `T1` still scans `Adj` at `l` itself and
/// joins it with `X1`.
#[test]
fn both_leaves_of_graphsages_union_intersect_with_the_consumers_adjacency() {
    let tiny = GraphDataset {
        name: "tiny",
        nodes: 20,
        feats: 8,
        density: 0.12,
        pattern: GraphPattern::Uniform,
    };
    let m = graphsage(&tiny, 6, 4, 17);
    let compiled = compile(&m.program, &m.schedule(Fusion::Full)).unwrap();
    let g = &compiled.lowered[0].graph;
    let slot = |name| g.tensors().iter().position(|t| t.name == name).unwrap();
    let (adj, x) = (slot("Adj"), slot("X"));
    let source = |j: NodeId, port: usize| {
        g.edges().iter().find(|e| e.dst == Port { node: j, port }).expect("wired").src
    };
    let scans = |n: NodeId, tensor, level| *g.node(n) == NodeKind::LevelScanner { tensor, level };
    // The row-`i` reference stream each level-1 scan of `Adj` reads, per join
    // kind and per tensor whose level-0 scan is the join's left side.
    let mut reads = Vec::new();
    let joins = (0..g.node_count()).map(NodeId);
    for j in joins.filter(|&j| matches!(g.node(j), NodeKind::Intersect | NodeKind::UnionLeft)) {
        let right = source(j, 2).node;
        if !scans(right, adj, 1) {
            continue;
        }
        let left = source(j, 0).node;
        let leaf = [adj, x].into_iter().find(|&t| scans(left, t, 0));
        reads.push((g.node(j).clone(), leaf, source(right, 0)));
    }
    let find = |kind: NodeKind, leaf| -> Vec<Port> {
        reads.iter().filter(|r| r.0 == kind && r.1 == leaf).map(|r| r.2).collect()
    };
    let own = find(NodeKind::UnionLeft, None);
    assert_eq!(own.len(), 1, "{reads:?}");
    assert_eq!(find(NodeKind::Intersect, Some(adj)), own, "{reads:?}");
    assert_eq!(find(NodeKind::Intersect, Some(x)), own, "{reads:?}");
}

/// Fully fused attention scores are a sampled product. `S = Σ_k Q[i,k]·K[j,k]`
/// folds `j` with its level-0 scan of `K`, and that scan (coordinates and
/// references) meets `Sm`'s level-1 scan of `Mask` in the one join that reads
/// `Mask` there, an `Intersect`, before the `k` loop. `Sm = S ⊙ Mask` joins
/// nothing at `j`: its product reads `S`'s reduction and `Mask`'s values
/// fetched through the intersection's references.
#[test]
fn the_attention_score_intersects_its_keys_with_the_mask_before_the_dot_product() {
    let m = gpt_attention(32, 8, 8, 7);
    let compiled = compile(&m.program, &m.schedule(Fusion::Full)).unwrap();
    let g = &compiled.lowered[0].graph;
    let slot = |name| g.tensors().iter().position(|t| t.name == name).unwrap();
    let nodes = || (0..g.node_count()).map(NodeId);
    let source = |n: NodeId, port: usize| {
        g.edges().iter().find(|e| e.dst == Port { node: n, port }).expect("wired").src
    };
    let only = |kind: NodeKind| {
        let found: Vec<NodeId> = nodes().filter(|&n| *g.node(n) == kind).collect();
        assert_eq!(found.len(), 1, "{kind:?}: {:?}", g.kind_histogram());
        found[0]
    };
    let keys = only(NodeKind::LevelScanner { tensor: slot("K"), level: 0 });
    let mask = only(NodeKind::LevelScanner { tensor: slot("Mask"), level: 1 });
    let is_join =
        |n| matches!(g.node(n), NodeKind::Intersect | NodeKind::Union | NodeKind::UnionLeft);
    let joins: Vec<NodeId> = (nodes().filter(|&n| is_join(n)))
        .filter(|&n| g.edges().iter().any(|e| e.dst.node == n && e.src.node == mask))
        .collect();
    assert_eq!(joins.len(), 1, "{joins:?}");
    let join = joins[0];
    assert_eq!(*g.node(join), NodeKind::Intersect);
    let sides =
        [(keys, 0), (keys, 1), (mask, 0), (mask, 1)].map(|(node, port)| Port { node, port });
    assert_eq!([0, 1, 2, 3].map(|p| source(join, p)), sides);
    let product = only(NodeKind::Alu { op: AluOp::MulElem });
    assert!(matches!(g.node(source(product, 0).node), NodeKind::Spacc { order: 0, .. }));
    let values = source(product, 1).node;
    assert_eq!(*g.node(values), NodeKind::Array { tensor: slot("Mask") });
    assert_eq!(source(values, 0), Port { node: join, port: 2 });
}

/// `O = A ⊙ B ⊙ C` joins three scans at `i`. Folding them pairwise filters
/// only the accumulated view and the newest one at the second join, so `B`'s
/// references would keep rows `C` lacks and misalign the product at run time;
/// the lowering refuses it, naming the row.
#[test]
fn three_streams_joined_at_one_row_are_refused() {
    let mut p = Program::new();
    let (i, j) = (p.index("i"), p.index("j"));
    let [a, b, c] = ["A", "B", "C"].map(|name| p.input(name, vec![8, 8], Format::csr()));
    let abc = vec![(a, vec![i, j]), (b, vec![i, j]), (c, vec![i, j])];
    let o = p.contract("O", vec![i, j], abc, vec![], Format::csr());
    p.mark_output(o);
    let res = compile(&p, &Schedule::unfused());
    assert!(
        matches!(&res, Err(PipelineError::Lower(LowerError::Unsupported(m)))
            if m == "three streams joined at row i"),
        "{:?}",
        res.err().map(|e| e.to_string())
    );
}

/// The softmax tail `E = exp(S); Dn[i] = Σ_j E[i,j]; P = E / Dn[i]`, fully
/// fused: `P` joins `Dn` at row `i`, before `Dn` registers at row `j`. That
/// forward reference is an edge, so the `Reduce` producing `Dn` feeds the
/// `Repeat` that broadcasts it over `j` directly.
#[test]
fn a_forward_reference_is_an_edge_to_its_producer() {
    let mut p = Program::new();
    let (i, j) = (p.index("i"), p.index("j"));
    let s = p.input("S", vec![8, 8], Format::csr());
    let e = p.map("E", AluOp::Exp, (s, vec![i, j]), Format::csr());
    let dn = p.reduce("Dn", (e, vec![i, j]), vec![j], ReduceOp::Sum, Format::dense_vec());
    let pr = p.binary("P", AluOp::Div, (e, vec![i, j]), (dn, vec![i]), vec![i, j], Format::csr());
    p.mark_output(pr);
    let compiled = compile(&p, &Schedule::full()).unwrap();
    let g = &compiled.lowered[0].graph;
    let reduces: Vec<NodeId> = (0..g.node_count())
        .map(NodeId)
        .filter(|&n| matches!(g.node(n), NodeKind::Spacc { order: 0, .. }))
        .collect();
    let [reduce] = reduces[..] else { panic!("one Reduce, got {reduces:?}") };
    let fed: Vec<_> = g
        .edges()
        .iter()
        .filter(|e| e.src.node == reduce)
        .map(|e| (g.node(e.dst.node), e.dst.port))
        .collect();
    assert_eq!(fed, [(&NodeKind::Repeat, 0)]);

    let scores = adjacency(8, 0.4, GraphPattern::Uniform, 7, &Format::csr());
    let inputs = HashMap::from([("S".to_string(), scores)]);
    compile_run_verify(&p, &Schedule::full(), &inputs, &SimConfig::default()).unwrap();
}

/// `Y[i] = X[i]` passes `X`'s values through, so `Y` registers at row `i`
/// holding forward references, before `X` registers at row `j`. They
/// resolve too: `Y`'s writer reads `X`'s `Reduce`.
#[test]
fn a_forward_reference_held_by_a_registered_tensor_resolves() {
    let mut p = Program::new();
    let (i, j) = (p.index("i"), p.index("j"));
    let a = p.input("A", vec![8, 8], Format::csr());
    let x = p.reduce("X", (a, vec![i, j]), vec![j], ReduceOp::Sum, Format::dense_vec());
    let y =
        p.expr("Y", vec![i], vec![(x, vec![i])], None, vec![], ReduceOp::Sum, Format::dense_vec());
    p.mark_output(y);
    let compiled = compile(&p, &Schedule::full()).unwrap();
    let g = &compiled.lowered[0].graph;
    let writer =
        (0..g.node_count()).map(NodeId).find(|&n| g.node(n) == &NodeKind::ValWriter { output: 0 });
    let into = Port { node: writer.expect("Y's writer"), port: 0 };
    let src = g.edges().iter().find(|e| e.dst == into).expect("a connected writer").src.node;
    assert!(matches!(g.node(src), NodeKind::Spacc { order: 0, .. }), "{:?}", g.node(src));

    let adj = adjacency(8, 0.4, GraphPattern::Uniform, 7, &Format::csr());
    let inputs = HashMap::from([("A".to_string(), adj)]);
    compile_run_verify(&p, &Schedule::full(), &inputs, &SimConfig::default()).unwrap();
}

#[test]
fn view_duplication_clones_producer_chains() {
    // One intermediate consumed under two incompatible index maps forces a
    // cloned producer chain (GraphSAGE's X1 pattern).
    let mut p = Program::new();
    let (i, k, u, k2, j, k3) =
        (p.index("i"), p.index("k"), p.index("u"), p.index("k2"), p.index("j"), p.index("k3"));
    let a = p.input("A", vec![8, 8], Format::csr());
    let x = p.input("X", vec![8, 4], Format::csr());
    let w = p.input("W", vec![4, 4], Format::dense(2));
    let x1 = p.contract(
        "X1",
        vec![i, u],
        vec![(a, vec![i, k]), (x, vec![k, u])],
        vec![k],
        Format::csr(),
    );
    let t1 = p.contract(
        "T1",
        vec![i, j],
        vec![(a, vec![i, k2]), (x1, vec![k2, j])],
        vec![k2],
        Format::csr(),
    );
    let t2 = p.contract(
        "T2",
        vec![i, j],
        vec![(x1, vec![i, k3]), (w, vec![k3, j])],
        vec![k3],
        Format::csr(),
    );
    let s =
        p.binary("S", AluOp::Add, (t1, vec![i, j]), (t2, vec![i, j]), vec![i, j], Format::csr());
    p.mark_output(s);
    let region = fuse_region(&p, 0..4).unwrap();
    assert!(!region.clone_of.is_empty(), "X1's second view needs a cloned chain");
    assert!(region.exprs.len() > 4, "the clone adds expressions to the region");
}

/// `S[i] = Σ_{k,l} A[i,k]·B[i,l]` fused with and without its dataflow
/// order `i, l, k`: the POG holds each view's mode order, `i → k` and
/// `i → l`, and the schedule adds `l → k`, which pins the space. Fusion
/// names the reduced `k` and `l` `u0` and `u1`.
#[test]
fn pog_edges_come_from_formats_and_schedules() {
    let fused = |dataflow: bool| {
        let mut p = Program::new();
        let (i, k, l) = (p.index("i"), p.index("k"), p.index("l"));
        let a = p.input("A", vec![4, 4], Format::csr());
        let b = p.input("B", vec![4, 4], Format::csr());
        let ins = vec![(a, vec![i, k]), (b, vec![i, l])];
        let s = p.contract("S", vec![i], ins, vec![k, l], Format::sparse_vec());
        if dataflow {
            p.set_dataflow(vec![i, l, k]);
        }
        p.mark_output(s);
        let region = fuse_region(&p, 0..1).unwrap();
        let name = |g: GlobalIx| region.names[g.0 as usize].clone();
        let mut edges: Vec<(String, String)> =
            region.pog.edges().map(|(a, b)| (name(a), name(b))).collect();
        edges.sort();
        (edges, region.pog.count_orders(1 << 30))
    };
    let (formats, formats_count) = fused(false);
    let (scheduled, scheduled_count) = fused(true);
    let named = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs.iter().map(|&(a, b)| (a.to_string(), b.to_string())).collect()
    };
    assert_eq!(formats, named(&[("i", "u0"), ("i", "u1")]));
    assert_eq!(scheduled, named(&[("i", "u0"), ("i", "u1"), ("u1", "u0")]));
    assert_eq!((formats_count, scheduled_count), ((2, false), (1, false)));
}

/// Regression: `apply_split` emitted a parallelizer per entry of a
/// `HashMap` as it walked it, so node ids and edge order followed the map's
/// hash seed, which differs from one map instance to the next even within
/// a process (about 4 and 8 distinct graphs in 16 compiles of these
/// schedules). Each compile is of a fresh clone, which has nothing compiled.
#[test]
fn parallelized_lowering_is_the_same_graph_every_time() {
    let m = gpt_attention_blocked(128, 16, 8, 91);
    let i = m.program.exprs()[0].output.indices[0];
    for (fusion, factor) in [(Fusion::Partial, 4), (Fusion::Full, 2)] {
        let sched = m.schedule(fusion).with_parallelization(i, factor);
        let graphs = || -> Vec<_> {
            let compiled = compile(&m.program.clone(), &sched).unwrap();
            compiled
                .lowered
                .iter()
                .map(|l| {
                    let g = &l.graph;
                    let labels: Vec<String> =
                        (0..g.node_count()).map(|n| g.label(NodeId(n)).to_string()).collect();
                    (g.nodes().to_vec(), g.edges().to_vec(), labels)
                })
                .collect()
        };
        let first = graphs();
        let split = |k: &NodeKind| matches!(k, NodeKind::Parallelizer { .. });
        assert!(first.iter().any(|(nodes, ..)| nodes.iter().any(split)), "{fusion}: no split");
        for run in 1..16 {
            assert!(
                graphs() == first,
                "{fusion} x{factor}: compile {run} lowered a different graph"
            );
        }
    }
}

/// Lowers `region` with `directives`: `Ok` when every named row is split,
/// else the first refusal's reason.
fn split(
    program: &Program,
    region: &FusedRegion,
    outs: &[TensorId],
    directives: &[(GlobalIx, usize)],
) -> Result<(), String> {
    let opts = LowerOptions { parallelize: directives.to_vec(), ..LowerOptions::default() };
    let low = lower_region(program, region, outs, &opts).unwrap();
    assert_eq!(low.applied.len() + low.refused.len(), directives.len());
    match low.refused.first() {
        Some(refused) => Err(refused.reason.clone()),
        None => Ok(()),
    }
}

/// The short name of a refusal of row `row` in the pinned table below.
fn code(reason: &str, row: &str) -> String {
    let missing = format!("parallelized row {row} missing from expression ");
    match reason {
        "cannot parallelize a reduced row" => "reduced".into(),
        "cannot parallelize an expression's innermost row" => "innermost".into(),
        "parallelization split between a deferred reference and its producer" => "deferred".into(),
        _ => match reason.strip_prefix(&missing) {
            Some(e) if e.parse::<usize>().is_ok() => format!("missing:{e}"),
            _ => panic!("unknown refusal of {row}: {reason}"),
        },
    }
}

/// Every model of the zoo; the graph models on a tiny graph and on the
/// collab stand-in.
fn zoo() -> Vec<(&'static str, ModelInstance)> {
    let graph = |name, nodes, feats, density| GraphDataset {
        name,
        nodes,
        feats,
        density,
        pattern: GraphPattern::PowerLaw,
    };
    let (tiny, collab) = (graph("tiny", 16, 8, 0.15), graph("collab", 96, 24, 0.03));
    vec![
        ("gcn/tiny", gcn(&tiny, 8, 4, 1)),
        ("gcn/collab", gcn(&collab, 16, 8, 7)),
        ("graphsage/tiny", graphsage(&tiny, 8, 4, 2)),
        ("sae", sae("sae", 16, 8, 4, 0.4, 13)),
        ("gpt_attention", gpt_attention(32, 8, 8, 7)),
        ("gpt_attention_blocked", gpt_attention_blocked(128, 16, 8, 91)),
        ("gpt_decoder", gpt_decoder(32, 8, 8, 1)),
        ("map_stack", map_stack(48, 24, 0.5, 9)),
    ]
}

/// Every region of the zoo at every granularity, each row split 2 ways on
/// its own: `ok`, or why the row cannot be split (`missing:e` = not a row
/// of expression `e`).
const APPLICABILITY: &str = "\
gcn/tiny/unfused/0..1: i=ok u0=reduced u1=innermost
gcn/tiny/unfused/1..2: i=ok u0=reduced j1=innermost
gcn/tiny/unfused/2..3: i=ok j1=innermost
gcn/tiny/unfused/3..4: i=ok j1=innermost
gcn/tiny/unfused/4..5: i=ok u0=reduced u2=innermost
gcn/tiny/unfused/5..6: i=ok u0=reduced j2=innermost
gcn/tiny/unfused/6..7: i=ok j2=innermost
gcn/tiny/unfused/7..8: i=ok u0=reduced
gcn/tiny/unfused/8..9: i=ok j2=innermost
gcn/tiny/unfused/9..10: i=ok j2=innermost
gcn/tiny/unfused/10..11: i=ok u0=reduced
gcn/tiny/unfused/11..12: i=ok j2=innermost
gcn/tiny/partial/0..4: i=ok u0=reduced u1=innermost j1=missing:0
gcn/tiny/partial/4..11: i=deferred u0=reduced u2=innermost j2=missing:0
gcn/tiny/partial/11..12: i=ok j2=innermost
gcn/tiny/full/0..11: i=deferred i=reduced u0=reduced u1=innermost j1=missing:0 j2=missing:0
gcn/tiny/full/11..12: i=ok j2=innermost
gcn/collab/unfused/0..1: i=ok u0=reduced u1=innermost
gcn/collab/unfused/1..2: i=ok u0=reduced j1=innermost
gcn/collab/unfused/2..3: i=ok j1=innermost
gcn/collab/unfused/3..4: i=ok j1=innermost
gcn/collab/unfused/4..5: i=ok u0=reduced u2=innermost
gcn/collab/unfused/5..6: i=ok u0=reduced j2=innermost
gcn/collab/unfused/6..7: i=ok j2=innermost
gcn/collab/unfused/7..8: i=ok u0=reduced
gcn/collab/unfused/8..9: i=ok j2=innermost
gcn/collab/unfused/9..10: i=ok j2=innermost
gcn/collab/unfused/10..11: i=ok u0=reduced
gcn/collab/unfused/11..12: i=ok j2=innermost
gcn/collab/partial/0..4: i=ok u0=reduced u1=innermost j1=missing:0
gcn/collab/partial/4..11: i=deferred u0=reduced u2=innermost j2=missing:0
gcn/collab/partial/11..12: i=ok j2=innermost
gcn/collab/full/0..11: i=deferred i=reduced u0=reduced u1=innermost j1=missing:0 j2=missing:0
gcn/collab/full/11..12: i=ok j2=innermost
graphsage/tiny/unfused/0..1: i=ok u0=reduced m1=innermost
graphsage/tiny/unfused/1..2: i=ok u0=reduced u1=innermost
graphsage/tiny/unfused/2..3: i=ok u0=reduced u1=innermost
graphsage/tiny/unfused/3..4: i=ok u1=innermost
graphsage/tiny/unfused/4..5: i=ok u1=innermost
graphsage/tiny/unfused/5..6: i=ok u1=innermost
graphsage/tiny/unfused/6..7: i=ok u0=reduced m2=innermost
graphsage/tiny/unfused/7..8: i=ok u0=reduced u2=innermost
graphsage/tiny/unfused/8..9: i=ok u0=reduced u2=innermost
graphsage/tiny/unfused/9..10: i=ok u2=innermost
graphsage/tiny/unfused/10..11: i=ok u2=innermost
graphsage/tiny/unfused/11..12: i=ok u0=reduced
graphsage/tiny/unfused/12..13: i=ok u2=innermost
graphsage/tiny/unfused/13..14: i=ok u2=innermost
graphsage/tiny/unfused/14..15: i=ok u0=reduced
graphsage/tiny/unfused/15..16: i=ok u2=innermost
graphsage/tiny/partial/0..6: i=ok u0=reduced m1=innermost u1=missing:0 u1=missing:0
graphsage/tiny/partial/6..16: i=deferred u0=reduced m2=innermost u1=missing:0 u2=missing:0
graphsage/tiny/full/0..16: i=deferred i=missing:6 u0=reduced m1=innermost u1=missing:0 u1=missing:0 u2=missing:0 m1=missing:0 u3=missing:0 u1=missing:0 u2=missing:0
sae/unfused/0..1: h=ok u0=reduced b=innermost
sae/unfused/1..2: h=ok b=innermost
sae/unfused/2..3: h=ok b=innermost
sae/unfused/3..4: o=ok u0=reduced b=innermost
sae/unfused/4..5: o=ok b=innermost
sae/unfused/5..6: o=ok b=innermost
sae/partial/0..3: h=ok u0=reduced b=innermost
sae/partial/3..6: o=ok u0=reduced b=innermost
sae/full/0..6: o=ok h=reduced u0=reduced b=innermost
gpt_attention/unfused/0..1: i=ok j=ok u0=reduced
gpt_attention/unfused/1..2: i=ok j=innermost
gpt_attention/unfused/2..3: i=ok j=innermost
gpt_attention/unfused/3..4: i=ok u0=reduced
gpt_attention/unfused/4..5: i=ok j=innermost
gpt_attention/unfused/5..6: i=ok j=innermost
gpt_attention/unfused/6..7: i=ok u0=reduced
gpt_attention/unfused/7..8: i=ok j=innermost
gpt_attention/unfused/8..9: i=ok u0=reduced l=innermost
gpt_attention/partial/0..3: i=ok j=innermost u0=reduced
gpt_attention/partial/3..9: i=deferred u0=reduced j=missing:0 l=missing:0
gpt_attention/full/0..9: i=deferred j=innermost u0=reduced l=missing:0
gpt_attention_blocked/unfused/0..1: i=ok u0=reduced j=innermost
gpt_attention_blocked/unfused/1..2: i=ok j=innermost
gpt_attention_blocked/unfused/2..3: i=ok j=innermost
gpt_attention_blocked/unfused/3..4: i=ok u0=reduced l=innermost
gpt_attention_blocked/partial/0..2: i=ok u0=reduced j=innermost
gpt_attention_blocked/partial/2..4: i=ok j=innermost l=missing:0
gpt_attention_blocked/full/0..4: i=ok u0=reduced j=innermost l=missing:0
gpt_decoder/unfused/0..1: i=ok u0=reduced dk=innermost
gpt_decoder/unfused/1..2: j=ok u0=reduced dk=innermost
gpt_decoder/unfused/2..3: j=ok u0=reduced dk=innermost
gpt_decoder/unfused/3..4: i2=ok j2=ok u0=reduced
gpt_decoder/unfused/4..5: i2=ok j2=innermost
gpt_decoder/unfused/5..6: i2=ok j2=innermost
gpt_decoder/unfused/6..7: i2=ok u0=reduced
gpt_decoder/unfused/7..8: i2=ok j2=innermost
gpt_decoder/unfused/8..9: i2=ok j2=innermost
gpt_decoder/unfused/9..10: i2=ok u0=reduced
gpt_decoder/unfused/10..11: i2=ok j2=innermost
gpt_decoder/unfused/11..12: i2=ok u0=reduced l2=innermost
gpt_decoder/unfused/12..13: i2=ok u0=reduced d1=innermost
gpt_decoder/unfused/13..14: i2=ok u0=reduced h1=innermost
gpt_decoder/unfused/14..15: i2=ok h1=innermost
gpt_decoder/unfused/15..16: i2=ok u0=reduced d3=innermost
gpt_decoder/partial/0..3: i=missing:1 u0=reduced dk=innermost j=missing:0 u1=missing:0 dk=missing:0 j=missing:0 u2=missing:0 dk=missing:0
gpt_decoder/partial/3..6: i2=ok j2=innermost u0=reduced
gpt_decoder/partial/6..12: i2=deferred u0=reduced j2=missing:0 l2=missing:0
gpt_decoder/partial/12..16: i2=ok u0=reduced d1=innermost h1=missing:0 d3=missing:0
gpt_decoder/full/0..3: i=missing:1 u0=reduced dk=innermost j=missing:0 u1=missing:0 dk=missing:0 j=missing:0 u2=missing:0 dk=missing:0
gpt_decoder/full/3..12: i2=deferred j2=innermost u0=reduced l2=missing:0
gpt_decoder/full/12..16: i2=ok u0=reduced d1=innermost h1=missing:0 d3=missing:0
map_stack/unfused/0..1: i=ok j=innermost
map_stack/unfused/1..2: i=ok j=innermost
map_stack/unfused/2..3: i=ok j=innermost
map_stack/unfused/3..4: i=ok j=innermost
map_stack/unfused/4..5: i=ok j=innermost
map_stack/unfused/5..6: i=ok j=innermost
map_stack/unfused/6..7: i=ok j=innermost
map_stack/unfused/7..8: i=ok j=innermost
map_stack/unfused/8..9: i=ok j=innermost
map_stack/unfused/9..10: i=ok j=innermost
map_stack/unfused/10..11: i=ok j=innermost
map_stack/unfused/11..12: i=ok j=innermost
map_stack/unfused/12..13: i=ok j=innermost
map_stack/unfused/13..14: i=ok j=innermost
map_stack/unfused/14..15: i=ok j=innermost
map_stack/unfused/15..16: i=ok j=innermost
map_stack/unfused/16..17: i=ok j=innermost
map_stack/unfused/17..18: i=ok j=innermost
map_stack/unfused/18..19: i=ok j=innermost
map_stack/unfused/19..20: i=ok j=innermost
map_stack/unfused/20..21: i=ok j=innermost
map_stack/unfused/21..22: i=ok j=innermost
map_stack/unfused/22..23: i=ok j=innermost
map_stack/unfused/23..24: i=ok j=innermost
map_stack/partial/0..4: i=ok j=innermost
map_stack/partial/4..8: i=ok j=innermost
map_stack/partial/8..12: i=ok j=innermost
map_stack/partial/12..16: i=ok j=innermost
map_stack/partial/16..20: i=ok j=innermost
map_stack/partial/20..24: i=ok j=innermost
map_stack/full/0..24: i=ok j=innermost
";

/// Which row of which region stream parallelization may split (§7): a row
/// every expression iterates, that none reduces, that is none's innermost
/// and that no deferred reference spans. Rows legal alone also split
/// together.
#[test]
fn parallel_directives_are_applied_or_refused() {
    let mut got = String::new();
    for (name, m) in &zoo() {
        for fusion in Fusion::ALL {
            for r in m.schedule(fusion).resolve_regions(m.program.exprs().len()) {
                let region = fuse_region(&m.program, r.clone()).unwrap();
                let outs = m.program.live_outs(&r);
                write!(got, "{name}/{fusion}/{r:?}:").unwrap();
                for &g in &region.order {
                    let row = &region.names[g.0 as usize];
                    let verdict = split(&m.program, &region, &outs, &[(g, 2)])
                        .map_or_else(|reason| code(&reason, row), |()| "ok".into());
                    write!(got, " {row}={verdict}").unwrap();
                }
                got.push('\n');
            }
        }
    }
    for (line, (got, want)) in got.lines().zip(APPLICABILITY.lines()).enumerate() {
        assert_eq!(got, want, "line {line}");
    }
    assert_eq!(got.lines().count(), APPLICABILITY.lines().count());

    let zoo = zoo();
    for (name, r, rows) in
        [("gpt_attention", 0..1, ["i", "j"]), ("gpt_decoder", 3..4, ["i2", "j2"])]
    {
        let m = &zoo.iter().find(|(n, _)| *n == name).unwrap().1;
        let region = fuse_region(&m.program, r.clone()).unwrap();
        let row = |name| region.order.iter().copied().find(|g| region.names[g.0 as usize] == name);
        let both = rows.map(|name| (row(name).unwrap(), 2));
        let outs = m.program.live_outs(&r);
        assert_eq!(split(&m.program, &region, &outs, &both), Ok(()), "{name}/{r:?}");
    }
}

/// Directives are decided one by one: in a region where `i` splits and `j`
/// is the innermost row, `i` is applied and `j` refused, and the graph is
/// the one `i` alone lowers to.
#[test]
fn a_refused_directive_leaves_the_others_applied() {
    let m = gpt_attention_blocked(128, 16, 8, 91);
    let region = fuse_region(&m.program, 0..1).unwrap();
    let row = |name| region.order.iter().copied().find(|g| region.names[g.0 as usize] == name);
    let (i, j) = (row("i").unwrap(), row("j").unwrap());
    let outs = m.program.live_outs(&(0..1));
    let lower = |parallelize| {
        let opts = LowerOptions { parallelize, ..LowerOptions::default() };
        lower_region(&m.program, &region, &outs, &opts).unwrap()
    };
    let (both, alone) = (lower(vec![(j, 4), (i, 2)]), lower(vec![(i, 2)]));
    assert_eq!(both.applied, [(i, 2)]);
    let reason = "cannot parallelize an expression's innermost row".to_string();
    assert_eq!(both.refused, [Refused { row: "j".into(), factor: 4, reason }]);
    assert_eq!(
        (both.graph.nodes(), both.graph.edges()),
        (alone.graph.nodes(), alone.graph.edges())
    );
    // A second directive on a split row is refused, not silently dropped.
    let twice = lower(vec![(i, 2), (i, 4)]);
    assert_eq!(
        (twice.applied, twice.refused[0].reason.as_str()),
        (vec![(i, 2)], "row already split by an earlier directive")
    );
}

/// `Schedule::with_parallelization` records any factor: the lowering
/// refuses factor 0 in every region (it used to panic), and factor 1 is a
/// no-op.
#[test]
fn factor_zero_is_refused_and_factor_one_is_a_no_op() {
    let collab = GraphDataset {
        name: "collab",
        nodes: 96,
        feats: 24,
        density: 0.03,
        pattern: GraphPattern::PowerLaw,
    };
    let m = gcn(&collab, 16, 8, 7);
    let i = m.program.exprs()[0].output.indices[0];
    let serial = compile(&m.program, &m.schedule(Fusion::Unfused)).unwrap();
    for factor in [0, 1] {
        let sched = m.schedule(Fusion::Unfused).with_parallelization(i, factor);
        let compiled = compile(&m.program, &sched).unwrap();
        for (low, serial) in compiled.lowered.iter().zip(&serial.lowered) {
            assert!(low.applied.is_empty());
            assert_eq!(low.graph.nodes(), serial.graph.nodes());
        }
        let refused: Vec<(usize, &str)> = (compiled.lowered.iter().flat_map(|l| &l.refused))
            .map(|r| (r.factor, r.reason.as_str()))
            .collect();
        let every_region = vec![(0, "a parallel factor must be at least 1"); serial.lowered.len()];
        assert_eq!(refused, if factor == 0 { every_region } else { vec![] });
    }
}

/// A factor above the row's extent is refused: it used to be honoured with
/// lanes that never receive a coordinate, a graph that grows with the factor
/// (45,066 nodes at 4096 for an 8-row SpMM).
#[test]
fn a_factor_above_the_rows_extent_is_refused() {
    let mut p = Program::new();
    let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
    let a = p.input("A", vec![8, 8], Format::csr());
    let b = p.input("B", vec![8, 4], Format::dense(2));
    let c =
        p.contract("C", vec![i, j], vec![(a, vec![i, k]), (b, vec![k, j])], vec![k], Format::csr());
    p.mark_output(c);
    let serial = compile(&p, &Schedule::unfused()).unwrap();
    let compiled = compile(&p, &Schedule::unfused().with_parallelization(i, 4096)).unwrap();
    let ([low], [serial]) = (&compiled.lowered[..], &serial.lowered[..]) else {
        panic!("one region")
    };
    assert!(low.applied.is_empty());
    let reason = "factor 4096 exceeds the row's extent 8".to_string();
    assert_eq!(low.refused, [Refused { row: "i".into(), factor: 4096, reason }]);
    assert_eq!(
        (low.graph.nodes(), low.graph.edges()),
        (serial.graph.nodes(), serial.graph.edges())
    );
}

/// A parallel directive on a variable the program never declared is refused,
/// naming the variable by number; `compile` used to panic looking up its name.
#[test]
fn a_directive_on_an_undeclared_index_is_refused() {
    let p = transposed_product();
    let sched = Schedule::unfused().with_parallelization(IndexVar(7), 2);
    let compiled = compile(&p, &sched).unwrap();
    let [low] = &compiled.lowered[..] else { panic!("one region") };
    assert!(low.applied.is_empty());
    let reason = "not an index variable of this program".to_string();
    assert_eq!(low.refused, [Refused { row: "IndexVar(7)".into(), factor: 2, reason }]);
}

/// `(model, granularity, digest)` for [`pinned_zoo`]: an FNV-1a digest over
/// each region's node names (`NodeKind::name` prints every field of a node,
/// and renaming a variant moves no digest) and `{:?}` of the graph's edges,
/// tensors and outputs and the region's permuted inputs. A refactor that
/// claims to leave every lowered graph as it was keeps this table as it is.
/// On a mismatch the test prints the table as it now comes out.
#[rustfmt::skip]
const GRAPHS_PINNED: &[(&str, &str, u64)] = &[
    ("sae", "unfused", 0x64890b27d7682cff),
    ("sae", "partial", 0x619ca8ec049070a3),
    ("sae", "full", 0x25f4111889f98ffd),
    ("gcn", "unfused", 0xe37f509f33b39b64),
    ("gcn", "partial", 0x9b4d292c2185b96f),
    ("gcn", "full", 0x2d6a4f7a467d18e1),
    ("gcn_composed", "unfused", 0xbe31f1ebfb2ee010),
    ("gcn_composed", "partial", 0x53d5706ff34a770d),
    ("gcn_composed", "full", 0x239865b69dee205d),
    ("graphsage", "unfused", 0x5d139fea661a58d9),
    ("graphsage", "partial", 0x0a45477ed5ee98bc),
    ("graphsage", "full", 0xb1e773fe172ed3c8),
    ("gpt_attention", "unfused", 0xf148f5683cee6a6b),
    ("gpt_attention", "partial", 0xcb8b80e9b997baa0),
    ("gpt_attention", "full", 0xbb2b611106ff3a06),
    ("gpt_attention_blocked", "unfused", 0xcffcccbc40c20076),
    ("gpt_attention_blocked", "partial", 0x2a583e17c57b86f6),
    ("gpt_attention_blocked", "full", 0xa842740aa0f9bd82),
    ("gpt_decoder", "unfused", 0x641d509c42d8f8ae),
    ("gpt_decoder", "partial", 0xa619f98d3d66c309),
    ("gpt_decoder", "full", 0x2213f422d63ae6a5),
    ("map_stack", "unfused", 0x2d628a3e9d67cb6d),
    ("map_stack", "partial", 0xd166c57a500e6653),
    ("map_stack", "full", 0xd6daf8db416933d1),
];

/// FNV-1a over `bytes`.
fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    (bytes.into_iter())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    fnv1a_bytes(s.bytes())
}

/// The model zoo at small sizes, as both pinned tables use it.
fn pinned_zoo() -> [(&'static str, ModelInstance); 8] {
    let ds = GRAPH_DATASETS[0];
    let small = GraphDataset { nodes: ds.nodes / 4, feats: ds.feats / 4, ..ds };
    let (sae_name, sae_in, sae_batch) = SAE_DATASETS[0];
    [
        ("sae", sae(sae_name, sae_in / 16, 48, sae_batch, 0.5, 11)),
        ("gcn", gcn(&small, 16, 8, 21)),
        ("gcn_composed", gcn_composed(&small, 16, 8, 21)),
        ("graphsage", graphsage(&small, 16, 8, 23)),
        ("gpt_attention", gpt_attention(32, 8, 8, 7)),
        ("gpt_attention_blocked", gpt_attention_blocked(128, 16, 8, 91)),
        ("gpt_decoder", gpt_decoder(32, 8, 8, 1)),
        ("map_stack", map_stack(48, 24, 0.5, 9)),
    ]
}

/// Every region graph of [`pinned_zoo`], at every granularity, matches its
/// digest in [`GRAPHS_PINNED`] and draws no diagnostic from `verify_graph`,
/// warnings included. A compile refuses only on an error, so this is the
/// test that catches a lowering change that leaves dead nodes or unread
/// tensors (SA014, SA015) in the zoo's graphs; a failure prints the
/// diagnostics.
#[test]
fn zoo_graphs_are_pinned() {
    let mut got = Vec::new();
    for (name, m) in &pinned_zoo() {
        for fusion in Fusion::ALL {
            let compiled = compile(&m.program, &m.schedule(fusion))
                .unwrap_or_else(|e| panic!("{name}/{fusion}: {e}"));
            let mut text = String::new();
            for (i, l) in compiled.lowered.iter().enumerate() {
                let g = &l.graph;
                let report = verify_graph(g, &VerifyOptions::default());
                assert!(report.is_clean(), "{name}/{fusion} r{i}:\n{}", report.render_human(g));
                let names: Vec<String> = g.nodes().iter().map(NodeKind::name).collect();
                write!(text, "{names:?}{:?}{:?}", g.edges(), g.tensors()).unwrap();
                write!(text, "{:?}{:?}", g.outputs(), l.permuted_inputs).unwrap();
            }
            got.push((*name, fusion.to_string(), fnv1a(&text)));
        }
    }
    let same = got.len() == GRAPHS_PINNED.len()
        && got.iter().zip(GRAPHS_PINNED).all(|(g, p)| (g.0, g.1.as_str(), g.2) == *p);
    if !same {
        for (name, fusion, digest) in &got {
            println!("    ({name:?}, {fusion:?}, {digest:#018x}),");
        }
        panic!("lowered graphs moved; the table as it now comes out is printed above");
    }
}

/// `graph` with one of four defects: an output with no writers (SA017, as
/// `validate` holds each output to one writer per stream), an unread
/// tensor slot (SA015, a warning), a scanner's coordinates fed into a value
/// port of a new dead node (SA010 and SA014), or a node driving itself
/// (SA017).
fn with_defect(graph: &SamGraph, defect: usize) -> SamGraph {
    let mut g = graph.clone();
    match defect {
        0 => drop(g.add_output("Unwritten", vec![4], Format::sparse_vec(), MemLocation::OnChip)),
        1 => drop(g.add_tensor("Unread", MemLocation::OnChip)),
        2 => {
            let scan = (0..g.node_count())
                .map(NodeId)
                .find(|&n| matches!(g.node(n), NodeKind::LevelScanner { .. }));
            let relu = g.add_node(NodeKind::Alu { op: AluOp::Relu });
            g.connect(scan.expect("a scanner"), 0, relu, 0);
        }
        _ => {
            let add = g.add_node(NodeKind::Alu { op: AluOp::Add });
            g.connect(add, 0, add, 0);
            g.connect(add, 0, add, 1);
        }
    }
    g
}

/// A compile checks only what can refuse a region and reads no analyzer
/// option: on every zoo graph, and on each with a defect, `graph_errors` is
/// `verify_graph`'s errors under every option set, and a compile under
/// extreme analyzer options gives the same regions or refusal as the
/// default.
#[test]
fn compile_checks_errors_alone_and_reads_no_analyzer_option() {
    let option_sets = [
        VerifyOptions::default(),
        VerifyOptions { fiber_hi: Some(0) },
        VerifyOptions { fiber_hi: Some(8) },
        VerifyOptions { fiber_hi: Some(u64::MAX) },
    ];
    let extreme = VerifyConfig { enabled: true, options: VerifyOptions { fiber_hi: Some(0) } };
    let outcome =
        |res: Result<Compiled, PipelineError>| res.map(regions).map_err(|e| e.to_string());
    for (name, m) in &pinned_zoo() {
        for fusion in Fusion::ALL {
            let sched = m.schedule(fusion);
            let by_default = compile(&m.program, &sched);
            let extremely = compile_with(&m.program.clone(), &sched, MemLocation::Dram, &extreme);
            let compiled = by_default.as_ref().map(|c| c.lowered.clone()).unwrap_or_default();
            assert!(outcome(by_default) == outcome(extremely), "{name}/{fusion}");
            for graph in compiled.iter().map(|l| &l.graph) {
                for defect in [None, Some(0), Some(1), Some(2), Some(3)] {
                    let g = defect.map_or_else(|| graph.clone(), |d| with_defect(graph, d));
                    let errors = graph_errors(&g);
                    let at = format!("{name}/{fusion} with defect {defect:?}");
                    assert_eq!(errors.is_empty(), matches!(defect, None | Some(1)), "{at}");
                    for opts in &option_sets {
                        let want: Vec<Diag> = verify_graph(&g, opts).errors().cloned().collect();
                        assert_eq!(errors, want, "{at} under {opts:?}");
                    }
                }
            }
        }
    }
}

/// `(model, digest)` for [`pinned_zoo`]: an FNV-1a digest over every tensor
/// `interpret` returns, sorted by name: the name, then the bits of its
/// `vals`, then the bits of its `mask`. A change to the interpreter that
/// claims the same outputs bit for bit keeps this table as it is (a
/// reassociated sum or a skipped present point moves it).
/// On a mismatch the test prints the table as it now comes out.
#[rustfmt::skip]
const REFERENCES_PINNED: &[(&str, u64)] = &[
    ("sae", 0xdaab0c22d459b201),
    ("gcn", 0x27b6a9dfa0164ba5),
    ("gcn_composed", 0x853e85fcaf8a6cea),
    ("graphsage", 0xa54ec1597f4affff),
    ("gpt_attention", 0x73fb520c24e1f675),
    ("gpt_attention_blocked", 0x0ec33c8102e82eb9),
    ("gpt_decoder", 0x097ff0d9a87fe8d5),
    ("map_stack", 0x56fa5a04d0a05702),
];

#[test]
fn zoo_references_are_pinned() {
    let bits = |t: &DenseTensor| -> Vec<u8> {
        t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect()
    };
    let mut got = Vec::new();
    for (name, m) in &pinned_zoo() {
        let out = interpret(&m.program, &m.inputs).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut tensors: Vec<_> = out.iter().collect();
        tensors.sort_by(|a, b| a.0.cmp(b.0));
        let bytes = tensors.into_iter().flat_map(|(tensor, s)| {
            let name = tensor.bytes().collect::<Vec<_>>();
            [name, bits(&s.vals), bits(&s.mask)].concat()
        });
        got.push((*name, fnv1a_bytes(bytes)));
    }
    if got != REFERENCES_PINNED {
        for (name, digest) in &got {
            println!("    ({name:?}, {digest:#018x}),");
        }
        panic!("reference outputs moved; the table as it now comes out is printed above");
    }
}

/// Each region of a compile as `{:?}` prints it: graph, permuted inputs,
/// applied and refused directives.
fn regions(compiled: Compiled) -> Vec<String> {
    compiled.lowered.iter().map(|l| format!("{l:?}")).collect()
}

/// A program keeps the regions it has compiled, and compiles as a fresh one
/// would: every zoo granularity, with and without a parallel directive, in
/// DRAM and on chip, compiled twice over on one program. A region compiled
/// serially or in DRAM is not handed to a parallel or on-chip compile.
#[test]
fn a_warm_program_compiles_as_a_fresh_one() {
    for (name, m) in &zoo() {
        let i = m.program.exprs()[0].output.indices[0];
        let mut points = Vec::new();
        for fusion in Fusion::ALL {
            for sched in [m.schedule(fusion), m.schedule(fusion).with_parallelization(i, 2)] {
                for location in [MemLocation::Dram, MemLocation::OnChip] {
                    let fresh = regions(compile_at(&m.program.clone(), &sched, location).unwrap());
                    points.push((sched.clone(), location, fresh));
                }
            }
        }
        for round in 0..2 {
            for (sched, location, fresh) in &points {
                let warm = regions(compile_at(&m.program, sched, *location).unwrap());
                assert!(warm == *fresh, "{name} round {round}: {sched:?} {location:?}");
            }
        }
    }
}

/// Editing a program drops what it has compiled. `spmm_chain` under
/// `Fuse{0..2}` takes three edits: an expression `R[u] = Σ_i T0[i,u]`
/// reading the fused intermediate `T0` (so region `0..2` must write `T0`), a
/// dataflow order on `R` against `T0`'s mode order (so region `2..3` reads a
/// transposed `T0`), and an output mark on `R` (so region `2..3` must write
/// it). After each, the edited program compiles as a freshly built one, and
/// not as it did before the edit.
#[test]
fn an_edit_drops_the_compiled_regions() {
    let edit = |p: &mut Program, step: usize| {
        let t0 = &p.exprs()[0].output;
        let (t0, [i, u]) = (t0.tensor, [t0.indices[0], t0.indices[1]]);
        match step {
            0 => drop(p.reduce("R", (t0, vec![i, u]), vec![i], ReduceOp::Sum, Format::dense_vec())),
            1 => p.set_dataflow(vec![u, i]),
            _ => p.mark_output(p.exprs()[2].output.tensor),
        }
    };
    let sched = Schedule::regions(vec![0..2]);
    let mut warm = spmm_chain();
    let mut before = regions(compile(&warm, &sched).unwrap());
    for step in 0..3 {
        edit(&mut warm, step);
        let mut fresh = spmm_chain();
        (0..=step).for_each(|s| edit(&mut fresh, s));
        let after = regions(compile(&warm, &sched).unwrap());
        assert!(after == regions(compile(&fresh, &sched).unwrap()), "edit {step}: stale regions");
        let moved = after.iter().zip(&before).any(|(a, b)| a != b);
        assert!(moved, "edit {step} changed no region compiled before it");
        before = after;
    }
}

/// Two threads compiling one program at once, as `experiments autotune`'s
/// workers share a model, both get what a fresh program compiles to.
#[test]
fn two_threads_compile_one_program_alike() {
    let m = gpt_attention_blocked(128, 16, 8, 91);
    let start = Barrier::new(2);
    let compile_all = || -> Vec<Vec<String>> {
        start.wait();
        Fusion::ALL.iter().map(|&f| regions(compile(&m.program, &m.schedule(f)).unwrap())).collect()
    };
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(compile_all), s.spawn(compile_all));
        (a.join().unwrap(), b.join().unwrap())
    });
    let fresh: Vec<_> = Fusion::ALL
        .iter()
        .map(|&f| regions(compile(&m.program.clone(), &m.schedule(f)).unwrap()))
        .collect();
    assert!(a == fresh && b == fresh);
}
