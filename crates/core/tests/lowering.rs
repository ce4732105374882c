//! Structural tests of the lowering: generated SAMML graph shapes, fusion
//! table contents, transposition materialization, and iteration styles.

use fuseflow_core::ir::{OpKind, Program, ReduceOp};
use fuseflow_core::lower::{globalize_region, lower_region, LowerOptions};
use fuseflow_core::pipeline::compile;
use fuseflow_core::schedule::Schedule;
use fuseflow_core::{fuse_region, Cell};
use fuseflow_models::{gpt_attention_blocked, Fusion};
use fuseflow_sam::{NodeId, NodeKind};
use fuseflow_tensor::Format;

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

#[test]
fn global_lowering_composes_into_one_pipeline() {
    let p = spmm_chain();
    let region = fuse_region(&p, 0..2).unwrap();
    let global = globalize_region(&region).unwrap();
    assert_eq!(global.exprs.len(), 1);
    assert_eq!(global.exprs[0].inputs.len(), 3, "A, X, W compose into one product");
    assert_eq!(global.exprs[0].reduce.len(), 2, "both contraction indices reduce");
    let low = lower_region(&p, &global, p.outputs(), &LowerOptions::default()).unwrap();
    let hist = low.graph.kind_histogram();
    // Chained accumulators realize the two reductions of the global space.
    assert_eq!(hist.get("Spacc1"), Some(&2));
    assert!(low.graph.validate().is_ok());
}

#[test]
fn fusion_table_rows_follow_the_chosen_order() {
    let p = spmm_chain();
    let compiled = compile(&p, &Schedule::full()).unwrap();
    let table = &compiled.lowered[0].table;
    assert_eq!(table.rows().last().map(String::as_str), Some("val"));
    assert_eq!(table.row_count(), 5, "i, u0(k), u1, j + val");
    assert!(table.filled_cells() > 6);
    // At least one reference cell points at the streamed intermediate.
    let mut has_ref = false;
    for r in 0..table.row_count() {
        for c in 0..table.column_count() {
            if matches!(table.cell(r, c), Cell::Ref(_)) {
                has_ref = true;
            }
        }
    }
    assert!(has_ref, "fusion tables memoize intermediate streams as references");
}

#[test]
fn transposed_views_request_permuted_inputs() {
    // M (i->j mode order) element-multiplied with N accessed (j, i):
    // concordant traversal is impossible without reformatting one view.
    let mut p = Program::new();
    let (i, j) = (p.index("i"), p.index("j"));
    let m = p.input("M", vec![6, 6], Format::dcsr());
    let n = p.input("N", vec![6, 6], Format::dcsr());
    let o = p.expr(
        "O",
        vec![i, j],
        vec![(m, vec![i, j]), (n, vec![j, i])],
        OpKind::Mul,
        vec![],
        ReduceOp::Sum,
        Format::dcsr(),
    );
    p.mark_output(o);
    let region = fuse_region(&p, 0..1).unwrap();
    assert_eq!(region.transposes.len(), 1);
    let low = lower_region(&p, &region, p.outputs(), &LowerOptions::default()).unwrap();
    assert_eq!(low.permuted_inputs.len(), 1);
    assert_eq!(low.permuted_inputs[0].perm, vec![1, 0]);
    assert_eq!(low.permuted_inputs[0].base, "N");
}

#[test]
fn unfused_compilation_produces_one_graph_per_expression() {
    let p = spmm_chain();
    let compiled = compile(&p, &Schedule::unfused()).unwrap();
    assert_eq!(compiled.lowered.len(), 2);
    // The intermediate T0 crosses the region boundary: written by region 0.
    let region0_outputs = &compiled.lowered[0].outputs;
    assert_eq!(region0_outputs.len(), 1);
    assert_eq!(p.tensor(region0_outputs[0]).name, "T0");
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
    // The recomputation shows structurally: a UnionLeft joins the streamed
    // intermediate against the consumer's scanner.
    let hist = low.graph.kind_histogram();
    assert!(hist.contains_key("UnionLeft"));
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
        p.binary("S", OpKind::Add, (t1, vec![i, j]), (t2, vec![i, j]), vec![i, j], Format::csr());
    p.mark_output(s);
    let region = fuse_region(&p, 0..4).unwrap();
    assert!(!region.clone_of.is_empty(), "X1's second view needs a cloned chain");
    assert!(region.exprs.len() > 4, "the clone adds expressions to the region");
}

#[test]
fn pog_edges_come_from_formats_and_schedules() {
    let mut p = Program::new();
    let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
    let a = p.input("A", vec![4, 4], Format::csr());
    let b = p.input("B", vec![4, 4], Format::csr());
    let t =
        p.contract("T", vec![i, j], vec![(a, vec![i, k]), (b, vec![k, j])], vec![k], Format::csr());
    p.set_dataflow(vec![i, k, j]);
    p.mark_output(t);
    let region = fuse_region(&p, 0..1).unwrap();
    let (formats_only, _) = region.pog_formats_only.count_orders(1 << 30);
    let (with_schedule, _) = region.pog.count_orders(1 << 30);
    assert!(with_schedule <= formats_only);
    assert_eq!(with_schedule, 1, "the explicit dataflow order pins the space");
}

/// Regression: `apply_split` emitted a parallelizer per entry of a
/// `HashMap` as it walked it, so node ids and edge order followed the map's
/// hash seed, which differs from one map instance to the next even within
/// a process (about 4 and 8 distinct graphs in 16 compiles of these
/// schedules).
#[test]
fn parallelized_lowering_is_the_same_graph_every_time() {
    let m = gpt_attention_blocked(128, 16, 8, 91);
    let i = m.program.exprs()[0].output.indices[0];
    for (fusion, factor) in [(Fusion::Partial, 4), (Fusion::Full, 2)] {
        let sched = m.schedule(fusion).with_parallelization(i, factor);
        let graphs = || -> Vec<_> {
            let compiled = compile(&m.program, &sched).unwrap();
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
