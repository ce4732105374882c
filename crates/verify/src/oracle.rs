//! Test oracle for the deadlock pass and for `SamGraph::topo_order`.
//!
//! [`oracle_report`] is `verify_graph` with the region enumeration the
//! deadlock pass used to have: every source-rooted path into either port of
//! a strict join (`paths_up`, by edge scans), then [`diverge_region`] on
//! every path *pair*. It finds each region instance once per pair of common
//! prefixes, where the pass finds it once; both feed the same
//! `Regions::analyze`, so the reports must be equal and the pass's work must
//! equal the oracle's number of *distinct* instances.

use crate::deadlock::{base_starved, strict_ports, RegionInstance, Regions, ANALYZED, MAX_PATHS};
use crate::{dead, error_passes, verify_graph, Report, VerifyOptions};
use fuseflow_sam::{AluOp, Edge, MemLocation, NodeId, NodeKind, ReduceOp, SamGraph};
use std::collections::{HashMap, HashSet};

/// Every source-rooted simple path ending with `last`, as edge lists in
/// source-to-join order. `None` past `max` paths.
fn paths_up(g: &SamGraph, last: Edge, max: usize) -> Option<Vec<Vec<Edge>>> {
    // Depth-first over reverse edges; `acc` holds edges join-side-first.
    fn rec(
        g: &SamGraph,
        node: NodeId,
        acc: &mut Vec<Edge>,
        out: &mut Vec<Vec<Edge>>,
        max: usize,
    ) -> bool {
        let ins: Vec<Edge> = g.edges().iter().filter(|e| e.dst.node == node).copied().collect();
        if ins.is_empty() {
            if out.len() >= max {
                return false;
            }
            out.push(acc.iter().rev().copied().collect());
            return true;
        }
        ins.into_iter().all(|e| {
            acc.push(e);
            let ok = rec(g, e.src.node, acc, out, max);
            acc.pop();
            ok
        })
    }
    let mut out = Vec::new();
    rec(g, last.src.node, &mut vec![last], &mut out, max).then_some(out)
}

/// The closest-to-join node of `pa` that is also on `pb`, with the two
/// suffixes from it.
fn diverge_region<'a>(pa: &'a [Edge], pb: &'a [Edge]) -> Option<RegionInstance<'a>> {
    let pos_b: HashMap<NodeId, usize> =
        pb.iter().enumerate().map(|(i, e)| (e.src.node, i)).collect();
    (0..pa.len()).rev().find_map(|ia| {
        let fork = pa[ia].src.node;
        let ib = *pos_b.get(&fork)?;
        Some(RegionInstance { fork, path_a: &pa[ia..], path_b: &pb[ib..] })
    })
}

/// What the oracle's enumeration cost.
#[derive(Debug, Default)]
struct Work {
    /// Path pairs that reached `Regions::analyze`.
    pairs: usize,
    /// Distinct `(join, suffix a, suffix b)` among them.
    distinct: usize,
}

fn oracle_report(g: &SamGraph, opts: &VerifyOptions) -> (Report, Work) {
    let (order, mut diags) = error_passes(g).expect("the oracle takes valid graphs");
    dead::check_dead(g, &order, &mut diags);

    let mut regions = Regions::default();
    let mut work = Work::default();
    let mut seen = HashSet::new();
    let ids = |p: &[Edge]| -> Vec<[usize; 4]> {
        p.iter().map(|e| [e.src.node.0, e.src.port, e.dst.node.0, e.dst.port]).collect()
    };
    for (j, kind) in g.nodes().iter().enumerate() {
        let join = NodeId(j);
        let last_edges: Vec<Edge> = strict_ports(kind)
            .iter()
            .filter_map(|&p| g.edges().iter().find(|e| e.dst.node == join && e.dst.port == p))
            .copied()
            .collect();
        if base_starved(g, join, opts) {
            regions.unanalysed_pairs += 1;
            continue;
        }
        for (i, &ea) in last_edges.iter().enumerate() {
            for &eb in &last_edges[i + 1..] {
                let (Some(paths_a), Some(paths_b)) =
                    (paths_up(g, ea, MAX_PATHS), paths_up(g, eb, MAX_PATHS))
                else {
                    regions.unanalysed_pairs += 1;
                    continue;
                };
                for pa in &paths_a {
                    for pb in &paths_b {
                        let Some(inst) = diverge_region(pa, pb) else { continue };
                        work.pairs += 1;
                        seen.insert((j, ids(inst.path_a), ids(inst.path_b)));
                        regions.analyze(g, opts, join, &inst);
                    }
                }
            }
        }
    }
    work.distinct = seen.len();
    let regions = regions.finish(&mut diags);
    (Report { diags, regions }, work)
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

/// Asserts pass == oracle on `g` (and the topological order while at it);
/// returns the pass's `analyze` count and the oracle's work.
fn assert_agrees(g: &SamGraph, opts: &VerifyOptions, what: &str) -> (usize, Work) {
    assert_eq!(g.topo_order(), reference_topo_order(g), "{what}: topological order");
    let before = ANALYZED.with(|n| n.get());
    let got = verify_graph(g, opts);
    let analyzed = ANALYZED.with(|n| n.get()) - before;
    let (want, work) = oracle_report(g, opts);
    assert_eq!(got, want, "{what}: report differs from the path-pair oracle");
    assert_eq!(analyzed, work.distinct, "{what}: one analysis per distinct instance");
    (analyzed, work)
}

/// The option sets of the suite: the default, samcheck's shape (an upper
/// fiber bound), and three tight capacities, where most bounded regions
/// flag SA013.
fn option_sets() -> Vec<VerifyOptions> {
    vec![
        VerifyOptions::default(),
        VerifyOptions { fiber_hi: Some(64), ..VerifyOptions::default() },
        VerifyOptions { channel_capacity: 4, fiber_hi: Some(8) },
        VerifyOptions { channel_capacity: 2, fiber_hi: Some(5) },
        VerifyOptions { channel_capacity: 1, fiber_hi: Some(8) },
    ]
}

fn lowered_graphs(
    program: &fuseflow_core::ir::Program,
    schedule: &fuseflow_core::schedule::Schedule,
) -> Vec<SamGraph> {
    // The dev-dependency links its own, non-test build of this crate; only
    // the graphs cross over.
    let compiled = fuseflow_core::pipeline::compile(program, schedule).expect("compiles clean");
    compiled.lowered.into_iter().map(|l| l.graph).collect()
}

/// `experiments samcheck`'s model list.
fn zoo() -> Vec<fuseflow_models::ModelInstance> {
    use fuseflow_models::*;
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
fn zoo_graphs_at_every_granularity() {
    for m in zoo() {
        for fusion in fuseflow_models::Fusion::ALL {
            for (r, g) in lowered_graphs(&m.program, &m.schedule(fusion)).iter().enumerate() {
                for opts in option_sets() {
                    assert_agrees(g, &opts, &format!("{}/{fusion}/r{r} {opts:?}", m.name));
                }
            }
        }
    }
}

#[test]
fn fully_fused_graphs_analyse_each_instance_once() {
    // The work guard: a count, not a timing. `assert_agrees` holds the pass
    // to one analysis per distinct instance; the oracle's pair count shows
    // what the path-pair enumeration paid for the same answer.
    let opts = VerifyOptions { fiber_hi: Some(64), ..Default::default() };
    let models = zoo();
    for m in [&models[1], &models[5]] {
        let graphs = lowered_graphs(&m.program, &m.schedule(fuseflow_models::Fusion::Full));
        let (mut analyzed, mut pairs) = (0, 0);
        for g in &graphs {
            let (n, work) = assert_agrees(g, &opts, &m.name);
            analyzed += n;
            pairs += work.pairs;
        }
        assert!(analyzed > 0, "{}: no reconvergent region at all", m.name);
        assert!(pairs >= 4 * analyzed, "{}: {pairs} pairs for {analyzed} instances", m.name);
    }
}

#[test]
fn reconvergent_witness() {
    let g = crate::tests::reconvergent_graph();
    for channel_capacity in [1, 4, 9] {
        let opts = VerifyOptions { channel_capacity, fiber_hi: Some(8) };
        assert_agrees(&g, &opts, &format!("witness {opts:?}"));
    }
}

/// `stages` diamonds in a row (`x -> relu, relu -> add`), so the last add
/// has `2^stages` source-rooted paths, then a final add joining that chain
/// with the scanner's own values.
fn diamond_ladder(stages: usize) -> SamGraph {
    let mut g = SamGraph::new();
    let b = g.add_tensor("B", MemLocation::OnChip);
    let o = g.add_output("T", vec![8], fuseflow_tensor::Format::sparse_vec(), MemLocation::OnChip);
    let root = g.add_node(NodeKind::Root);
    let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
    let arr = g.add_node(NodeKind::Array { tensor: b });
    let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    g.connect(root, 0, ls, 0);
    g.connect(ls, 0, cw, 0);
    g.connect(ls, 1, arr, 0);
    let mut x = arr;
    for _ in 0..stages {
        let l = g.add_node(NodeKind::Alu { op: AluOp::Relu });
        let r = g.add_node(NodeKind::Alu { op: AluOp::Relu });
        let add = g.add_node(NodeKind::Alu { op: AluOp::Add });
        g.connect(x, 0, l, 0);
        g.connect(x, 0, r, 0);
        g.connect(l, 0, add, 0);
        g.connect(r, 0, add, 1);
        x = add;
    }
    let last = g.add_node(NodeKind::Alu { op: AluOp::Add });
    let vw = g.add_node(NodeKind::ValWriter { output: o });
    g.connect(x, 0, last, 0);
    g.connect(arr, 0, last, 1);
    g.connect(last, 0, vw, 0);
    g
}

#[test]
fn more_than_64_paths_into_one_port_is_unknown() {
    // 2^7 = 128 > 64 paths into the final add's port 0: that pair is not
    // analysed. The stage adds below it stay within 64 per port and are.
    assert_eq!(MAX_PATHS, 64);
    let g = diamond_ladder(7);
    let opts = VerifyOptions::default();
    let (_, work) = assert_agrees(&g, &opts, "ladder");
    let report = verify_graph(&g, &opts);
    assert_eq!(report.regions.unknown, 1);
    assert_eq!(report.regions.certified, 7);
    assert!(work.pairs > 4096, "the last stage alone has 64 x 64 path pairs");
    // At the boundary nothing overflows: 64 paths are allowed.
    let (_, _) = assert_agrees(&diamond_ladder(6), &opts, "ladder at the bound");
    assert_eq!(verify_graph(&diamond_ladder(6), &opts).regions.unknown, 0);
}

/// A deterministic generator for the random suites (no clock, no global).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }
}

/// A random graph that passes `validate`: nodes are added in topological
/// order and every input port takes one random earlier output port (kinds
/// may mismatch; that is SA010's business, not validation's), so fan-out,
/// reconvergence and four-port joins are dense.
fn random_valid_graph(rng: &mut Lcg, nodes: usize) -> SamGraph {
    let mut g = SamGraph::new();
    let t = g.add_tensor("B", MemLocation::OnChip);
    let o = g.add_output("T", vec![8], fuseflow_tensor::Format::sparse_vec(), MemLocation::OnChip);
    let root = g.add_node(NodeKind::Root);
    let mut outs: Vec<(NodeId, usize)> = vec![(root, 0)];
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
            11 => NodeKind::Reduce { op: ReduceOp::Sum },
            12 => NodeKind::Spacc1 { op: ReduceOp::Sum },
            14 => NodeKind::Parallelizer { factor: 2 },
            _ => NodeKind::Serializer { factor: 2, depth: 0 },
        };
        let id = g.add_node(kind.clone());
        for (p, sig) in kind.input_ports().iter().enumerate() {
            if sig.required || rng.below(2) == 0 {
                let (src, sp) = outs[rng.below(outs.len())];
                g.connect(src, sp, id, p);
            }
        }
        outs.extend((0..kind.output_ports().len()).map(|p| (id, p)));
    }
    // Writers on a few streams, so some joins are live and some dead.
    for _ in 0..3 {
        let w = g.add_node(NodeKind::ValWriter { output: o });
        let (src, sp) = outs[rng.below(outs.len())];
        g.connect(src, sp, w, 0);
    }
    g
}

#[test]
fn random_valid_graphs() {
    let mut rng = Lcg(13);
    let mut with_regions = 0;
    for case in 0..300 {
        let g = random_valid_graph(&mut rng, 4 + case % 21);
        assert_eq!(g.validate(), Ok(()));
        for opts in option_sets() {
            let (analyzed, _) = assert_agrees(&g, &opts, &format!("random graph {case} {opts:?}"));
            with_regions += usize::from(analyzed > 0);
        }
    }
    assert!(with_regions >= 300, "the generator stopped producing reconvergence");
}

/// No graph that passes `validate` panics `simulate`: the 300 graphs of
/// `random_valid_graphs`, with `B` bound to a CSR and to a three-entry DCSR
/// matrix, each end in a typed error or in outputs, and the event engine
/// agrees with its sweep oracle on which (the same outputs and semantic
/// stats, or the same error). The generator attaches value writers only, so
/// a run that gets to the end fails the output rebuild for want of a
/// coordinate writer.
#[test]
fn random_valid_graphs_simulate_without_panicking() {
    use fuseflow_sim::{simulate, Scheduler, SimConfig, SimError, TensorEnv};
    use fuseflow_tensor::{Format, SparseTensor};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let coo = |n: u32| (0..n).map(|k| (vec![k % 8, (3 * k + 1) % 8], 1.0 + k as f32)).collect();
    let bindings = [
        SparseTensor::from_coo(vec![8, 8], coo(16), &Format::csr()).unwrap(),
        SparseTensor::from_coo(vec![8, 8], coo(3), &Format::dcsr()).unwrap(),
    ];
    let mut rng = Lcg(13);
    let (mut panicked, mut ran_to_end) = (Vec::new(), 0);
    for case in 0..300 {
        let g = random_valid_graph(&mut rng, 4 + case % 21);
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

#[test]
fn property_suite_programs() {
    // The program family of `tests/property.rs` and
    // `tests/verify_soundness.rs` (SpMM + ReLU chains and elementwise
    // unions at every schedule), over random shapes, formats and
    // capacities: more than 100 (program, schedule, options) points.
    use fuseflow_core::ir::Program;
    use fuseflow_core::schedule::Schedule;
    use fuseflow_tensor::Format;
    let mut rng = Lcg(29);
    let formats = [Format::csr(), Format::dcsr(), Format::dense(2)];
    let mut points = 0;
    for case in 0..40 {
        let (n, m, k) = (4 + rng.below(6), 3 + rng.below(5), 2 + rng.below(5));
        let mut p = Program::new();
        let (i, kk, j) = (p.index("i"), p.index("k"), p.index("j"));
        let schedules = if case % 2 == 0 {
            let a = p.input("A", vec![n, m], formats[rng.below(2)].clone());
            let x = p.input("X", vec![m, k], formats[rng.below(3)].clone());
            let t = p.contract(
                "T",
                vec![i, j],
                vec![(a, vec![i, kk]), (x, vec![kk, j])],
                vec![kk],
                Format::csr(),
            );
            let r = p.map("R", AluOp::Relu, (t, vec![i, j]), Format::csr());
            p.mark_output(r);
            vec![Schedule::unfused(), Schedule::full(), Schedule::regions(vec![0..2])]
        } else {
            let a = p.input("A", vec![n, m], Format::dcsr());
            let b = p.input("B", vec![n, m], Format::dcsr());
            let op = if rng.below(2) == 0 { AluOp::Add } else { AluOp::Max };
            let c = p.binary("C", op, (a, vec![i, j]), (b, vec![i, j]), vec![i, j], Format::dcsr());
            p.mark_output(c);
            vec![Schedule::unfused(), Schedule::full()]
        };
        let opts = VerifyOptions {
            channel_capacity: 2 + rng.below(46),
            fiber_hi: Some(n.max(m).max(k) as u64),
        };
        for schedule in &schedules {
            for g in lowered_graphs(&p, schedule) {
                assert_agrees(&g, &opts, &format!("program {case} {schedule:?} {opts:?}"));
                points += 1;
            }
        }
    }
    assert!(points >= 100, "{points} points");
}
