//! Random graphs that pass `validate`, and the topological order every
//! cycle count is ranked by.
//!
//! No graph that passes `SamGraph::validate` may panic `simulate`, and the
//! event engine must agree with its sweep oracle on how each run ends.
//! `SamGraph::topo_order` is held to the Kahn loop it replaced, over the
//! same random graphs and over the model zoo's lowered graphs.

use fuseflow_models::{
    gcn, gpt_attention, gpt_attention_blocked, gpt_decoder, graphsage, map_stack, sae, Fusion,
    GraphDataset, ModelInstance, GRAPH_DATASETS, SAE_DATASETS,
};
use fuseflow_sam::{AluOp, MemLocation, NodeId, NodeKind, Port, ReduceOp, SamGraph, StreamKind};
use fuseflow_sim::{simulate, Scheduler, SimConfig, SimError, TensorEnv};
use fuseflow_tensor::{Format, SparseTensor};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A deterministic generator for the random suites (no clock, no global).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }
}

/// A random earlier output port of kind `want`, or of any kind if there is
/// none (or `want` is any).
fn pick(rng: &mut Lcg, g: &SamGraph, outs: &[Port], want: Option<StreamKind>) -> Port {
    let kind = |o: &&Port| want.is_some() && g.node(o.node).output_ports()[o.port].kind == want;
    let fits: Vec<Port> = outs.iter().filter(kind).copied().collect();
    let from = if fits.is_empty() { outs } else { &fits };
    from[rng.below(from.len())]
}

/// A random graph that passes `validate`: nodes are added in topological
/// order and every input port takes one random earlier output port of its
/// kind where there is one, so fan-out, reconvergence and four-port joins
/// are dense. Kinds still mismatch through ports of any kind and where no
/// port fits, and depths mismatch freely (SA010's and SA011's business, not
/// validation's). Three outputs each get a coordinate and a value writer
/// picked the same way, so some joins are live and some dead.
fn random_valid_graph(rng: &mut Lcg, nodes: usize) -> SamGraph {
    let mut g = SamGraph::new();
    let t = g.add_tensor("B", MemLocation::OnChip);
    let root = g.add_node(NodeKind::Root);
    let mut outs = vec![Port { node: root, port: 0 }];
    for _ in 0..nodes {
        let kind = match rng.below(16) {
            0 => NodeKind::Root,
            1 | 2 => NodeKind::LevelScanner { tensor: t, level: rng.below(2) },
            3 => NodeKind::Array { tensor: t },
            4 | 13 => NodeKind::Repeat,
            5 => NodeKind::Intersect,
            6 => NodeKind::Union,
            7 => NodeKind::UnionLeft,
            8 => NodeKind::Alu { op: AluOp::Relu },
            9 | 10 => NodeKind::Alu { op: AluOp::Add },
            11 => NodeKind::Spacc { order: 0, op: ReduceOp::Sum },
            12 => NodeKind::Spacc { order: 1, op: ReduceOp::Sum },
            14 => NodeKind::Parallelizer { factor: 2 },
            _ => NodeKind::Serializer { factor: 2, depth: 0 },
        };
        let id = g.add_node(kind.clone());
        for (p, sig) in kind.input_ports().iter().enumerate() {
            if sig.required || rng.below(2) == 0 {
                let src = pick(rng, &g, &outs, sig.kind);
                g.connect(src.node, src.port, id, p);
            }
        }
        outs.extend((0..kind.output_ports().len()).map(|port| Port { node: id, port }));
    }
    for name in ["T0", "T1", "T2"] {
        let o = g.add_output(name, vec![8], Format::sparse_vec(), MemLocation::OnChip);
        for w in [NodeKind::CrdWriter { output: o, level: 0 }, NodeKind::ValWriter { output: o }] {
            let src = pick(rng, &g, &outs, w.input_ports()[0].kind);
            let w = g.add_node(w);
            g.connect(src.node, src.port, w, 0);
        }
    }
    g
}

/// The 300 random graphs of both suites, in order.
fn random_valid_graphs() -> impl Iterator<Item = SamGraph> {
    let mut rng = Lcg(13);
    (0..300).map(move |case| random_valid_graph(&mut rng, 4 + case % 21))
}

/// No graph that passes `validate` panics `simulate`: the 300 random
/// graphs, with `B` bound to a CSR and to a three-entry DCSR matrix, each
/// end in a typed error or in outputs, and the event engine agrees with its
/// sweep oracle on which (the same outputs and semantic stats, or the same
/// error). Each output's writers take random streams of their kinds, so a
/// run that gets to the end may still fail the output rebuild.
#[test]
fn random_valid_graphs_simulate_without_panicking() {
    let coo = |n: u32| (0..n).map(|k| (vec![k % 8, (3 * k + 1) % 8], 1.0 + k as f32)).collect();
    let bindings = [
        SparseTensor::from_coo(vec![8, 8], coo(16), &Format::csr()).unwrap(),
        SparseTensor::from_coo(vec![8, 8], coo(3), &Format::dcsr()).unwrap(),
    ];
    let (mut panicked, mut ran_to_end) = (Vec::new(), 0);
    for (case, g) in random_valid_graphs().enumerate() {
        for (b, tensor) in bindings.iter().enumerate() {
            let env: TensorEnv = [("B", tensor.clone())].into_iter().collect();
            let [event, sweep] = [Scheduler::Event, Scheduler::Sweep].map(|scheduler| {
                let cfg = SimConfig { max_cycles: 200_000, scheduler, ..SimConfig::default() };
                catch_unwind(AssertUnwindSafe(|| {
                    simulate(&g, &env, &cfg).map(|r| (r.outputs, r.stats.semantic()))
                }))
            });
            match (event, sweep) {
                (Ok(event), Ok(sweep)) => {
                    ran_to_end += usize::from(matches!(event, Ok(_) | Err(SimError::Rebuild(_))));
                    assert_eq!(event, sweep, "graph {case}, binding {b}: event vs sweep");
                }
                _ => panicked.push((case, b)),
            }
        }
    }
    assert!(panicked.is_empty(), "{} runs panicked: {panicked:?}", panicked.len());
    assert!(ran_to_end >= 10, "only {ran_to_end} of 600 runs got to the end");
}

/// The Kahn loop `SamGraph::topo_order` had before the graph kept an
/// adjacency index. The simulator's rank order, and with it every cycle
/// count, is this order.
fn reference_topo_order(g: &SamGraph) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    let mut indeg = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in g.edges() {
        adj[e.src.node.0].push(e.dst.node.0);
        indeg[e.dst.node.0] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = queue.pop() {
        order.push(NodeId(u));
        for &v in &adj[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// The model zoo at the sizes `zoo_graphs_are_pinned`
/// (`crates/core/tests/lowering.rs`) pins, less `gcn_composed`.
fn zoo() -> Vec<ModelInstance> {
    let ds = GRAPH_DATASETS[0];
    let small = GraphDataset { nodes: ds.nodes / 4, feats: ds.feats / 4, ..ds };
    let (sae_name, sae_in, sae_batch) = SAE_DATASETS[0];
    vec![
        sae(sae_name, sae_in / 16, 48, sae_batch, 0.5, 11),
        gcn(&small, 16, 8, 21),
        graphsage(&small, 16, 8, 23),
        gpt_attention(32, 8, 8, 7),
        gpt_attention_blocked(128, 16, 8, 91),
        gpt_decoder(32, 8, 8, 1),
        map_stack(48, 24, 0.5, 9),
    ]
}

#[test]
fn topo_order_is_the_reference_kahn_loop() {
    for (case, g) in random_valid_graphs().enumerate() {
        assert_eq!(g.validate(), Ok(()), "random graph {case}");
        assert_eq!(g.topo_order(), reference_topo_order(&g), "random graph {case}");
    }
    for m in zoo() {
        for fusion in Fusion::ALL {
            let schedule = m.schedule(fusion);
            let compiled = fuseflow_core::pipeline::compile(&m.program, &schedule)
                .unwrap_or_else(|e| panic!("{}/{fusion}: {e}", m.name));
            for (r, l) in compiled.lowered.iter().enumerate() {
                let g = &l.graph;
                assert_eq!(g.topo_order(), reference_topo_order(g), "{}/{fusion}/r{r}", m.name);
            }
        }
    }
}
