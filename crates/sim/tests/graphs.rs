//! End-to-end simulations of hand-built SAMML graphs, verified against the
//! dense reference interpreter. These graphs mirror the paper's figures:
//! SpMV (Fig 2), Gustavson SpMM with a higher-order sparse accumulator
//! (Fig 9d), elementwise addition through unions, and a data-parallel SpMM
//! (Section 7, Parallelization).

use fuseflow_sam::{
    AluOp, GraphError, MemLocation, NodeId, NodeKind, ReduceOp, SamGraph, MAX_SPACC_ORDER,
};
use fuseflow_sim::{simulate, Scheduler, SimConfig, SimError, TensorEnv};
use fuseflow_tensor::{gen, reference, DenseTensor, Format, SparseTensor};

fn env2(a: (&str, SparseTensor), b: (&str, SparseTensor)) -> TensorEnv {
    let mut env = TensorEnv::new();
    env.insert(a.0, a.1);
    env.insert(b.0, b.1);
    env
}

/// SpMV `T_i = B_ij * C_j` with `i -> j` dataflow, B in CSR, C dense.
fn build_spmv(g: &mut SamGraph) {
    let b = g.add_tensor("B", MemLocation::Dram);
    let c = g.add_tensor("C", MemLocation::Dram);
    let out = g.add_output("T", vec![4], Format::sparse_vec(), MemLocation::Dram);

    let root_b = g.add_node(NodeKind::Root);
    let root_c = g.add_node(NodeKind::Root);
    let bi = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
    let rep_c = g.add_node(NodeKind::Repeat);
    let bj = g.add_node(NodeKind::LevelScanner { tensor: b, level: 1 });
    let cj = g.add_node(NodeKind::LevelScanner { tensor: c, level: 0 });
    let isect = g.add_node(NodeKind::Intersect);
    let b_vals = g.add_node(NodeKind::Array { tensor: b });
    let c_vals = g.add_node(NodeKind::Array { tensor: c });
    let mul = g.add_node(NodeKind::Alu { op: AluOp::Mul });
    let red = g.add_node(NodeKind::Spacc { order: 0, op: ReduceOp::Sum });
    let wc = g.add_node(NodeKind::CrdWriter { output: out, level: 0 });
    let wv = g.add_node(NodeKind::ValWriter { output: out });

    g.connect(root_b, 0, bi, 0);
    g.connect(root_c, 0, rep_c, 0); // base: C root
    g.connect(bi, 0, rep_c, 1); // rep signal: i coords
    g.connect(bi, 0, wc, 0); // output i coordinates
    g.connect(bi, 1, bj, 0);
    g.connect(rep_c, 0, cj, 0);
    g.connect(bj, 0, isect, 0);
    g.connect(bj, 1, isect, 1);
    g.connect(cj, 0, isect, 2);
    g.connect(cj, 1, isect, 3);
    g.connect(isect, 1, b_vals, 0);
    g.connect(isect, 2, c_vals, 0);
    g.connect(b_vals, 0, mul, 0);
    g.connect(c_vals, 0, mul, 1);
    g.connect(mul, 0, red, 0);
    g.connect(red, 0, wv, 0);
}

#[test]
fn spmv_matches_reference() {
    let b_dense = DenseTensor::from_vec(
        vec![4, 4],
        vec![
            1., 0., 2., 0., //
            0., 0., 0., 0., //
            0., 3., 0., 4., //
            5., 0., 0., 6.,
        ],
    );
    let c_dense = DenseTensor::from_vec(vec![4], vec![1., 2., 3., 4.]);
    let mut g = SamGraph::new();
    build_spmv(&mut g);
    let env = env2(
        ("B", SparseTensor::from_dense(&b_dense, &Format::csr())),
        ("C", SparseTensor::from_dense(&c_dense, &Format::dense_vec())),
    );
    let res = simulate(&g, &env, &SimConfig::default()).unwrap();
    let got = res.outputs["T"].to_dense();
    // Reference: matrix-vector product.
    let expect = DenseTensor::from_fn(vec![4], |ix| {
        (0..4).map(|j| b_dense.get(&[ix[0], j]) * c_dense.get(&[j])).sum()
    });
    assert!(got.approx_eq(&expect), "got {:?} expect {:?}", got.data(), expect.data());
    assert!(res.stats.cycles > 0);
    assert!(res.stats.flops > 0);
    assert!(res.stats.dram_read_bytes > 0);
}

/// Gustavson SpMM `T_ij = sum_k A_ik * X_kj` with `i -> k -> j` dataflow
/// (Fig 9d): A CSR, X CSR, higher-order reduction via Spacc1.
fn build_spmm(g: &mut SamGraph, m: usize, n: usize) -> (NodeId, NodeId) {
    let a = g.add_tensor("A", MemLocation::Dram);
    let x = g.add_tensor("X", MemLocation::Dram);
    let out = g.add_output("T", vec![m, n], Format::csr(), MemLocation::Dram);

    let root_a = g.add_node(NodeKind::Root);
    let root_x = g.add_node(NodeKind::Root);
    let ai = g.add_node(NodeKind::LevelScanner { tensor: a, level: 0 });
    let rep_x = g.add_node(NodeKind::Repeat);
    let ak = g.add_node(NodeKind::LevelScanner { tensor: a, level: 1 });
    let xk = g.add_node(NodeKind::LevelScanner { tensor: x, level: 0 });
    let isect_k = g.add_node(NodeKind::Intersect);
    let a_vals = g.add_node(NodeKind::Array { tensor: a });
    let xj = g.add_node(NodeKind::LevelScanner { tensor: x, level: 1 });
    let rep_a = g.add_node(NodeKind::Repeat);
    let x_vals = g.add_node(NodeKind::Array { tensor: x });
    let mul = g.add_node(NodeKind::Alu { op: AluOp::Mul });
    let spacc = g.add_node(NodeKind::Spacc { order: 1, op: ReduceOp::Sum });
    let wc0 = g.add_node(NodeKind::CrdWriter { output: out, level: 0 });
    let wc1 = g.add_node(NodeKind::CrdWriter { output: out, level: 1 });
    let wv = g.add_node(NodeKind::ValWriter { output: out });

    g.connect(root_a, 0, ai, 0);
    g.connect(root_x, 0, rep_x, 0);
    g.connect(ai, 0, rep_x, 1); // X root repeated per i
    g.connect(ai, 0, wc0, 0);
    g.connect(ai, 1, ak, 0);
    g.connect(rep_x, 0, xk, 0);
    g.connect(ak, 0, isect_k, 0);
    g.connect(ak, 1, isect_k, 1);
    g.connect(xk, 0, isect_k, 2);
    g.connect(xk, 1, isect_k, 3);
    g.connect(isect_k, 1, a_vals, 0);
    g.connect(isect_k, 2, xj, 0);
    g.connect(a_vals, 0, rep_a, 0); // A value repeated per j
    g.connect(xj, 0, rep_a, 1);
    g.connect(xj, 1, x_vals, 0);
    g.connect(rep_a, 0, mul, 0);
    g.connect(x_vals, 0, mul, 1);
    g.connect(xj, 0, spacc, 0);
    g.connect(mul, 0, spacc, 1);
    g.connect(spacc, 0, wc1, 0);
    g.connect(spacc, 1, wv, 0);
    (ai, spacc)
}

#[test]
fn spmm_matches_reference() {
    let a_dense = DenseTensor::from_vec(
        vec![3, 4],
        vec![
            1., 0., 2., 0., //
            0., 0., 0., 0., //
            0., 3., 0., 4.,
        ],
    );
    let x_dense = DenseTensor::from_vec(
        vec![4, 3],
        vec![
            1., 0., 2., //
            0., 3., 0., //
            4., 0., 0., //
            0., 5., 6.,
        ],
    );
    let mut g = SamGraph::new();
    build_spmm(&mut g, 3, 3);
    let env = env2(
        ("A", SparseTensor::from_dense(&a_dense, &Format::csr())),
        ("X", SparseTensor::from_dense(&x_dense, &Format::csr())),
    );
    let res = simulate(&g, &env, &SimConfig::default()).unwrap();
    let got = res.outputs["T"].to_dense();
    let expect = reference::matmul(&a_dense, &x_dense);
    assert!(got.approx_eq(&expect), "got {:?} expect {:?}", got.data(), expect.data());
}

#[test]
fn spmm_random_matrices_match_reference() {
    let a = gen::adjacency(24, 0.12, gen::GraphPattern::Uniform, 42, &Format::csr());
    let x = gen::sparse_features(24, 16, 0.3, 7, &Format::csr());
    let mut g = SamGraph::new();
    build_spmm(&mut g, 24, 16);
    let expect = reference::matmul(&a.to_dense(), &x.to_dense());
    let env = env2(("A", a), ("X", x));
    let res = simulate(&g, &env, &SimConfig::default()).unwrap();
    let got = res.outputs["T"].to_dense();
    assert!(got.approx_eq(&expect), "max diff {}", got.max_abs_diff(&expect));
}

/// Elementwise matrix addition `E = A + B` through a two-level union.
fn build_add(g: &mut SamGraph, m: usize, n: usize) {
    let a = g.add_tensor("A", MemLocation::Dram);
    let b = g.add_tensor("B", MemLocation::Dram);
    let out = g.add_output("E", vec![m, n], Format::dcsr(), MemLocation::Dram);

    let root = g.add_node(NodeKind::Root);
    let ai = g.add_node(NodeKind::LevelScanner { tensor: a, level: 0 });
    let bi = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
    let u_i = g.add_node(NodeKind::Union);
    let aj = g.add_node(NodeKind::LevelScanner { tensor: a, level: 1 });
    let bj = g.add_node(NodeKind::LevelScanner { tensor: b, level: 1 });
    let u_j = g.add_node(NodeKind::Union);
    let a_vals = g.add_node(NodeKind::Array { tensor: a });
    let b_vals = g.add_node(NodeKind::Array { tensor: b });
    let add = g.add_node(NodeKind::Alu { op: AluOp::Add });
    let wc0 = g.add_node(NodeKind::CrdWriter { output: out, level: 0 });
    let wc1 = g.add_node(NodeKind::CrdWriter { output: out, level: 1 });
    let wv = g.add_node(NodeKind::ValWriter { output: out });

    g.connect(root, 0, ai, 0);
    g.connect(root, 0, bi, 0);
    g.connect(ai, 0, u_i, 0);
    g.connect(ai, 1, u_i, 1);
    g.connect(bi, 0, u_i, 2);
    g.connect(bi, 1, u_i, 3);
    g.connect(u_i, 0, wc0, 0);
    g.connect(u_i, 1, aj, 0);
    g.connect(u_i, 2, bj, 0);
    g.connect(aj, 0, u_j, 0);
    g.connect(aj, 1, u_j, 1);
    g.connect(bj, 0, u_j, 2);
    g.connect(bj, 1, u_j, 3);
    g.connect(u_j, 0, wc1, 0);
    g.connect(u_j, 1, a_vals, 0);
    g.connect(u_j, 2, b_vals, 0);
    g.connect(a_vals, 0, add, 0);
    g.connect(b_vals, 0, add, 1);
    g.connect(add, 0, wv, 0);
}

#[test]
fn elementwise_add_matches_reference() {
    let a = gen::sparse_features(12, 9, 0.25, 3, &Format::dcsr());
    let b = gen::sparse_features(12, 9, 0.25, 4, &Format::dcsr());
    let mut g = SamGraph::new();
    build_add(&mut g, 12, 9);
    let expect = reference::add(&a.to_dense(), &b.to_dense());
    let env = env2(("A", a), ("B", b));
    let res = simulate(&g, &env, &SimConfig::default()).unwrap();
    let got = res.outputs["E"].to_dense();
    assert!(got.approx_eq(&expect), "max diff {}", got.max_abs_diff(&expect));
}

/// Row-parallel SpMM: split the `i` level across `factor` copies of the
/// downstream pipeline, merging results with order-driven serializers.
fn build_parallel_spmm(g: &mut SamGraph, m: usize, n: usize, factor: usize) {
    let a = g.add_tensor("A", MemLocation::Dram);
    let x = g.add_tensor("X", MemLocation::Dram);
    let out = g.add_output("T", vec![m, n], Format::csr(), MemLocation::Dram);

    let root_a = g.add_node(NodeKind::Root);
    let ai = g.add_node(NodeKind::LevelScanner { tensor: a, level: 0 });
    let par = g.add_node(NodeKind::Parallelizer { factor });
    let ser_crd = g.add_node(NodeKind::Serializer { factor, depth: 1 });
    let ser_val = g.add_node(NodeKind::Serializer { factor, depth: 1 });
    let wc0 = g.add_node(NodeKind::CrdWriter { output: out, level: 0 });
    let wc1 = g.add_node(NodeKind::CrdWriter { output: out, level: 1 });
    let wv = g.add_node(NodeKind::ValWriter { output: out });

    g.connect(root_a, 0, ai, 0);
    g.connect(ai, 0, par, 0);
    g.connect(ai, 1, par, 1);
    g.connect(ai, 0, wc0, 0);
    g.connect(ai, 0, ser_crd, factor); // order streams
    g.connect(ai, 0, ser_val, factor);

    for b in 0..factor {
        let root_x = g.add_node(NodeKind::Root);
        let rep_x = g.add_node(NodeKind::Repeat);
        let ak = g.add_node(NodeKind::LevelScanner { tensor: a, level: 1 });
        let xk = g.add_node(NodeKind::LevelScanner { tensor: x, level: 0 });
        let isect_k = g.add_node(NodeKind::Intersect);
        let a_vals = g.add_node(NodeKind::Array { tensor: a });
        let xj = g.add_node(NodeKind::LevelScanner { tensor: x, level: 1 });
        let rep_a = g.add_node(NodeKind::Repeat);
        let x_vals = g.add_node(NodeKind::Array { tensor: x });
        let mul = g.add_node(NodeKind::Alu { op: AluOp::Mul });
        let spacc = g.add_node(NodeKind::Spacc { order: 1, op: ReduceOp::Sum });

        g.connect(par, 2 * b, rep_x, 1); // branch i coords drive X repetition
        g.connect(root_x, 0, rep_x, 0);
        g.connect(par, 2 * b + 1, ak, 0); // branch i refs scan A's k level
        g.connect(rep_x, 0, xk, 0);
        g.connect(ak, 0, isect_k, 0);
        g.connect(ak, 1, isect_k, 1);
        g.connect(xk, 0, isect_k, 2);
        g.connect(xk, 1, isect_k, 3);
        g.connect(isect_k, 1, a_vals, 0);
        g.connect(isect_k, 2, xj, 0);
        g.connect(a_vals, 0, rep_a, 0);
        g.connect(xj, 0, rep_a, 1);
        g.connect(xj, 1, x_vals, 0);
        g.connect(rep_a, 0, mul, 0);
        g.connect(x_vals, 0, mul, 1);
        g.connect(xj, 0, spacc, 0);
        g.connect(mul, 0, spacc, 1);
        g.connect(spacc, 0, ser_crd, b);
        g.connect(spacc, 1, ser_val, b);
    }
    g.connect(ser_crd, 0, wc1, 0);
    g.connect(ser_val, 0, wv, 0);
}

#[test]
fn parallel_spmm_matches_serial() {
    let a = gen::adjacency(20, 0.15, gen::GraphPattern::Uniform, 5, &Format::csr());
    let x = gen::sparse_features(20, 12, 0.4, 9, &Format::csr());
    let expect = reference::matmul(&a.to_dense(), &x.to_dense());

    let mut serial_cycles = 0;
    for factor in [1usize, 2, 4] {
        let mut g = SamGraph::new();
        build_parallel_spmm(&mut g, 20, 12, factor);
        let env = env2(("A", a.clone()), ("X", x.clone()));
        let res = simulate(&g, &env, &SimConfig::default()).unwrap();
        let got = res.outputs["T"].to_dense();
        assert!(got.approx_eq(&expect), "factor {factor}: max diff {}", got.max_abs_diff(&expect));
        if factor == 1 {
            serial_cycles = res.stats.cycles;
        } else {
            assert!(
                res.stats.cycles < serial_cycles,
                "factor {factor} ({} cycles) should beat serial ({serial_cycles})",
                res.stats.cycles
            );
        }
    }
}

#[test]
fn missing_tensor_is_reported() {
    let mut g = SamGraph::new();
    build_spmv(&mut g);
    let env = TensorEnv::new();
    let err = simulate(&g, &env, &SimConfig::default()).unwrap_err();
    assert!(matches!(err, fuseflow_sim::SimError::MissingTensor(_)));
}

/// Configs that cannot describe a machine are rejected up front with a
/// typed error, not an `assert!` in `Dram::new` or a cycle-0 deadlock.
#[test]
fn invalid_config_is_reported() {
    let mut g = SamGraph::new();
    build_spmv(&mut g);
    // Rejected before tensor binding: an empty environment is enough.
    let env = TensorEnv::new();
    for bw in [0.0, -1.0, f64::NAN, 1e-12, 4e-4] {
        let mut timing = fuseflow_sim::TimingConfig::comal();
        timing.dram_bytes_per_cycle = bw;
        let cfg = SimConfig { timing, ..SimConfig::default() };
        let err = simulate(&g, &env, &cfg).unwrap_err();
        assert!(
            matches!(&err, fuseflow_sim::SimError::Config(m) if m.contains("resolution")),
            "bandwidth {bw}: {err}"
        );
    }
    let cfg = SimConfig { channel_capacity: 0, ..SimConfig::default() };
    let err = simulate(&g, &env, &cfg).unwrap_err();
    assert!(matches!(err, fuseflow_sim::SimError::Config(_)), "zero capacity: {err}");
    // With zero outstanding requests no memory node can ever issue: refused
    // by name, under either scheduler.
    for scheduler in [Scheduler::Event, Scheduler::Sweep] {
        let mut timing = fuseflow_sim::TimingConfig::comal();
        timing.outstanding = 0;
        let cfg = SimConfig { timing, ..SimConfig::default() }.with_scheduler(scheduler);
        let err = simulate(&g, &env, &cfg).unwrap_err();
        assert!(
            matches!(&err, fuseflow_sim::SimError::Config(m) if m.contains("outstanding")),
            "zero outstanding: {err}"
        );
    }
    // The shipped configuration passes the check (an unbound tensor is the
    // first thing wrong with this call).
    let err = simulate(&g, &env, &SimConfig::default()).unwrap_err();
    assert!(matches!(err, fuseflow_sim::SimError::MissingTensor(_)), "{err}");
    // A DRAM latency past the last cycle is no config error, but a request
    // with it never completes: the run ends on its cycle budget under either
    // scheduler, not on an overflowed completion cycle.
    let b = DenseTensor::from_fn(vec![4, 4], |ix| ((ix[0] + ix[1]) % 3) as f32);
    let c = DenseTensor::from_vec(vec![4], vec![1.0; 4]);
    let env = env2(
        ("B", SparseTensor::from_dense(&b, &Format::csr())),
        ("C", SparseTensor::from_dense(&c, &Format::dense_vec())),
    );
    for scheduler in [Scheduler::Event, Scheduler::Sweep] {
        for (stream, random) in [(u64::MAX, 64), (8, u64::MAX), (u64::MAX, u64::MAX)] {
            let mut timing = fuseflow_sim::TimingConfig::comal();
            timing.dram_stream_latency = stream;
            timing.dram_random_latency = random;
            let cfg = SimConfig { timing, ..SimConfig::default() }.with_scheduler(scheduler);
            let err = simulate(&g, &env, &cfg).unwrap_err();
            assert!(
                matches!(err, SimError::MaxCycles(_)),
                "latencies {stream}/{random} under {scheduler:?}: {err}"
            );
        }
    }
}

/// Every way a graph can fail `SamGraph::validate` (the shapes of the
/// verifier's `sa017_invalid_graphs_are_reported_not_crashed_on`) comes back
/// from `simulate` as `SimError::Validation` carrying that `GraphError`,
/// before tensors are bound and before cycle 0, whether or not `B` is bound:
/// never a panic, a dropped writer stream or a late `Rebuild` error.
#[test]
fn invalid_graph_is_reported() {
    // root(0) -> scan B(1) -> crd writer(2), array(3) -> val writer(4).
    let clean = || {
        let mut g = SamGraph::new();
        let b = g.add_tensor("B", MemLocation::OnChip);
        let o = g.add_output("T", vec![4], Format::sparse_vec(), MemLocation::OnChip);
        let root = g.add_node(NodeKind::Root);
        let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
        let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
        let arr = g.add_node(NodeKind::Array { tensor: b });
        let vw = g.add_node(NodeKind::ValWriter { output: o });
        g.connect(root, 0, ls, 0);
        g.connect(ls, 0, cw, 0);
        g.connect(ls, 1, arr, 0);
        g.connect(arr, 0, vw, 0);
        g
    };
    const LS: NodeId = NodeId(1);
    const ARR: NodeId = NodeId(3);
    const VW: NodeId = NodeId(4);
    const ADD: NodeKind = NodeKind::Alu { op: AluOp::Add };
    type Break = fn(&mut SamGraph);
    let shapes: [(&str, Break); 15] = [
        ("cycle", |g| {
            let a0 = g.add_node(ADD);
            let a1 = g.add_node(ADD);
            g.connect(ARR, 0, a0, 0);
            g.connect(a1, 0, a0, 1);
            g.connect(a0, 0, a1, 0);
            g.connect(ARR, 0, a1, 1);
        }),
        ("missing source node", |g| {
            let a = g.add_node(ADD);
            g.connect(ARR, 0, a, 0);
            g.connect(NodeId(17), 0, a, 1);
        }),
        ("missing destination node", |g| g.connect(ARR, 0, NodeId(17), 0)),
        ("output port out of range", |g| {
            let relu = g.add_node(NodeKind::Alu { op: AluOp::Relu });
            g.connect(ARR, 5, relu, 0);
        }),
        ("input port out of range", |g| g.connect(ARR, 0, VW, 3)),
        ("double-driven input", |g| g.connect(LS, 1, ARR, 0)),
        ("unconnected required input", |g| {
            g.add_node(ADD);
        }),
        ("bad slot", |g| {
            g.add_node(NodeKind::Array { tensor: 9 });
        }),
        ("coordinate writer beyond its output's levels", |g| {
            let cw = g.add_node(NodeKind::CrdWriter { output: 0, level: 1 });
            g.connect(LS, 0, cw, 0);
        }),
        ("duplicate slot", |g| {
            g.add_tensor("B", MemLocation::OnChip);
        }),
        ("zero branch factor", |g| {
            let par = g.add_node(NodeKind::Parallelizer { factor: 0 });
            g.connect(LS, 0, par, 0);
        }),
        ("accumulator deeper than MAX_SPACC_ORDER", |g| {
            let order = MAX_SPACC_ORDER + 1;
            let deep = g.add_node(NodeKind::Spacc { order, op: ReduceOp::Sum });
            g.connect(LS, 0, deep, 0);
        }),
        ("two value writers on one output", |g| {
            let scale = g.add_node(NodeKind::Alu { op: AluOp::Scale(2.0) });
            let vw = g.add_node(NodeKind::ValWriter { output: 0 });
            g.connect(ARR, 0, scale, 0);
            g.connect(scale, 0, vw, 0);
        }),
        ("two coordinate writers on one level", |g| {
            let cw = g.add_node(NodeKind::CrdWriter { output: 0, level: 0 });
            g.connect(LS, 0, cw, 0);
        }),
        ("an output level with no coordinate writer", |g| {
            let u = g.add_output("U", vec![4], Format::sparse_vec(), MemLocation::OnChip);
            let vw = g.add_node(NodeKind::ValWriter { output: u });
            g.connect(ARR, 0, vw, 0);
        }),
    ];
    let b = DenseTensor::from_vec(vec![4], vec![1.0, 0.0, 2.0, 0.0]);
    let bound: TensorEnv =
        [("B", SparseTensor::from_dense(&b, &Format::sparse_vec()))].into_iter().collect();
    for (what, break_it) in shapes {
        let mut g = clean();
        break_it(&mut g);
        let expect = g.validate().expect_err(what);
        for env in [&TensorEnv::new(), &bound] {
            for scheduler in [Scheduler::Event, Scheduler::Sweep] {
                let cfg = SimConfig::default().with_scheduler(scheduler);
                assert_eq!(
                    simulate(&g, env, &cfg).unwrap_err(),
                    SimError::Validation(expect.clone()),
                    "{what}"
                );
            }
        }
    }
}

/// A `Parallelizer` or `Serializer` with no branch has no output port to
/// misconnect, so it passes every port check; on the first element it deals
/// or merges it would divide by zero. `simulate` refuses it as a `GraphError`.
#[test]
fn zero_branch_factor_is_refused_before_it_runs() {
    let b = DenseTensor::from_vec(vec![4], vec![1.0, 0.0, 2.0, 0.0]);
    let mut env = TensorEnv::new();
    env.insert("B", SparseTensor::from_dense(&b, &Format::sparse_vec()));
    for kind in [NodeKind::Parallelizer { factor: 0 }, NodeKind::Serializer { factor: 0, depth: 0 }]
    {
        // root -> scan B -> (array -> val writer, crd -> the branchless node).
        let mut g = SamGraph::new();
        let t = g.add_tensor("B", MemLocation::OnChip);
        let o = g.add_output("T", vec![4], Format::sparse_vec(), MemLocation::OnChip);
        let root = g.add_node(NodeKind::Root);
        let ls = g.add_node(NodeKind::LevelScanner { tensor: t, level: 0 });
        let arr = g.add_node(NodeKind::Array { tensor: t });
        let vw = g.add_node(NodeKind::ValWriter { output: o });
        let split = g.add_node(kind);
        g.connect(root, 0, ls, 0);
        g.connect(ls, 1, arr, 0);
        g.connect(arr, 0, vw, 0);
        g.connect(ls, 0, split, 0);
        for scheduler in [Scheduler::Event, Scheduler::Sweep] {
            let cfg = SimConfig::default().with_scheduler(scheduler);
            let err = simulate(&g, &env, &cfg).unwrap_err();
            assert_eq!(err, SimError::Validation(GraphError::ZeroFactor { node: split.0 }));
        }
    }
}

/// A coordinate writer naming a level its output's format does not have
/// used to index past the collected streams at the end of the run; it fails
/// validation as a `BadSlot` now.
#[test]
fn crd_writer_level_out_of_range_is_reported() {
    let mut g = SamGraph::new();
    build_spmv(&mut g);
    // Output 0 is a sparse vector (one level); node 2 scans B's rows.
    let cw = g.add_node(NodeKind::CrdWriter { output: 0, level: 1 });
    g.connect(NodeId(2), 0, cw, 0);
    let err = simulate(&g, &TensorEnv::new(), &SimConfig::default()).unwrap_err();
    assert_eq!(err, SimError::Validation(GraphError::BadSlot { node: cw.0 }));
}

/// A scanner addressing a level the *bound* tensor does not have used to
/// index past `SparseTensor::levels` on its first step. The graph alone
/// cannot know, so it is caught where tensors are bound.
#[test]
fn scanner_level_beyond_bound_tensor_is_reported() {
    let mut g = SamGraph::new();
    build_spmv(&mut g); // scans B at levels 0 and 1
    let one_level = SparseTensor::from_dense(
        &DenseTensor::from_vec(vec![4], vec![1.0; 4]),
        &Format::sparse_vec(),
    );
    let env = env2(("B", one_level.clone()), ("C", one_level));
    let err = simulate(&g, &env, &SimConfig::default()).unwrap_err();
    let expect = SimError::LevelOutOfRange {
        node: "LS[t0.l1]#4".into(),
        tensor: "B".into(),
        level: 1,
        order: 1,
    };
    assert_eq!(err, expect);
    assert!(err.to_string().contains("LS[t0.l1]#4"), "{err}");
}

/// Root -> scanner over `A` (an 8-entry dense vector) -> coordinate writer of
/// `T`, with `T`'s value writer fed by what `vals` adds behind the scanner;
/// `B` is a 2-entry sparse vector. Such a graph passes `validate` whatever
/// kinds `vals` connects, so `simulate` must answer with a typed error, the
/// same one under both schedulers, which is returned.
fn scan_dense_a(vals: fn(&mut SamGraph, NodeId) -> NodeId) -> SimError {
    let mut g = SamGraph::new();
    let a = g.add_tensor("A", MemLocation::OnChip);
    g.add_tensor("B", MemLocation::OnChip);
    let out = g.add_output("T", vec![8], Format::sparse_vec(), MemLocation::OnChip);
    let root = g.add_node(NodeKind::Root);
    let ls = g.add_node(NodeKind::LevelScanner { tensor: a, level: 0 });
    let wc = g.add_node(NodeKind::CrdWriter { output: out, level: 0 });
    let wv = g.add_node(NodeKind::ValWriter { output: out });
    g.connect(root, 0, ls, 0);
    g.connect(ls, 0, wc, 0);
    let v = vals(&mut g, ls);
    g.connect(v, 0, wv, 0);
    assert_eq!(g.validate(), Ok(()));
    let a = DenseTensor::from_vec(vec![8], vec![1.0; 8]);
    let b = vec![(vec![1], 2.0), (vec![5], 3.0)];
    let env = env2(
        ("A", SparseTensor::from_dense(&a, &Format::dense_vec())),
        ("B", SparseTensor::from_coo(vec![8], b, &Format::sparse_vec()).unwrap()),
    );
    let [event, sweep] = [Scheduler::Event, Scheduler::Sweep]
        .map(|s| simulate(&g, &env, &SimConfig::default().with_scheduler(s)).unwrap_err());
    assert_eq!(event, sweep);
    event
}

/// A coordinate stream on a unary ALU's value port.
#[test]
fn crd_stream_into_unary_alu_is_a_typed_error() {
    let err = scan_dense_a(|g, ls| {
        let relu = g.add_node(NodeKind::Alu { op: AluOp::Relu });
        g.connect(ls, 0, relu, 0);
        relu
    });
    assert!(matches!(&err, SimError::Semantics(m) if m.contains("ALU[Relu]")), "{err}");
}

/// References into `A`'s eight positions, read from `B`'s two.
#[test]
fn reference_past_the_stored_positions_is_a_typed_error() {
    let err = scan_dense_a(|g, ls| {
        let arr = g.add_node(NodeKind::Array { tensor: 1 });
        g.connect(ls, 1, arr, 0);
        arr
    });
    let named =
        |m: &str| m.contains("reference 2 past the 2 stored positions") && m.contains("Array[t1]");
    assert!(matches!(&err, SimError::Semantics(m) if named(m)), "{err}");
}

/// Runs `g` on `env` under both schedulers, asserts they fail alike, and
/// returns the error.
fn fails_alike(g: &SamGraph, env: &TensorEnv) -> SimError {
    assert_eq!(g.validate(), Ok(()));
    let [event, sweep] = [Scheduler::Event, Scheduler::Sweep]
        .map(|s| simulate(g, env, &SimConfig::default().with_scheduler(s)).unwrap_err());
    assert_eq!(event, sweep);
    event
}

/// `A` is one 2x2 tile and `B` one 4x4 tile; both are read through `A`'s
/// reference stream and meet in one ALU running `op`.
fn tiles_meet(op: AluOp) -> SimError {
    let mut g = SamGraph::new();
    let a = g.add_tensor("A", MemLocation::OnChip);
    let b = g.add_tensor("B", MemLocation::OnChip);
    let o = g.add_blocked_output("T", vec![2, 2], Format::csr(), [2, 2], MemLocation::OnChip);
    let root = g.add_node(NodeKind::Root);
    let ai = g.add_node(NodeKind::LevelScanner { tensor: a, level: 0 });
    let aj = g.add_node(NodeKind::LevelScanner { tensor: a, level: 1 });
    let a_vals = g.add_node(NodeKind::Array { tensor: a });
    let b_vals = g.add_node(NodeKind::Array { tensor: b });
    let alu = g.add_node(NodeKind::Alu { op });
    let wc0 = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    let wc1 = g.add_node(NodeKind::CrdWriter { output: o, level: 1 });
    let wv = g.add_node(NodeKind::ValWriter { output: o });
    g.connect(root, 0, ai, 0);
    g.connect(ai, 0, wc0, 0);
    g.connect(ai, 1, aj, 0);
    g.connect(aj, 0, wc1, 0);
    g.connect(aj, 1, a_vals, 0);
    g.connect(aj, 1, b_vals, 0);
    g.connect(a_vals, 0, alu, 0);
    g.connect(b_vals, 0, alu, 1);
    g.connect(alu, 0, wv, 0);
    let one_tile = |n: usize| {
        let tile = (vec![0, 0], (0..n * n).map(|i| i as f32).collect());
        SparseTensor::from_blocks(vec![n, n], [n, n], vec![tile], &Format::csr()).unwrap()
    };
    fails_alike(&g, &env2(("A", one_tile(2)), ("B", one_tile(4))))
}

/// Two blocked tensors of different tile shapes pass `validate` together;
/// where their tiles meet, the ALU names the shapes and itself instead of
/// tripping `Block`'s shape assertions.
#[test]
fn tiles_of_different_shapes_in_one_alu_are_a_typed_error() {
    for (op, what) in [(AluOp::Add, "an elementwise op"), (AluOp::Mul, "a matmul")] {
        let err = tiles_meet(op);
        let named = |m: &str| {
            m.contains(&format!("tiles of 2x2 and 4x4 do not fit {what}"))
                && m.contains(&format!("at ALU[{op:?}]"))
        };
        assert!(matches!(&err, SimError::Semantics(m) if named(m)), "{op:?}: {err}");
    }
}

/// A stop token holds a level up to 255. Each scanner in a chain over a
/// one-element vector closes one more level, so the 256th emits `Stop(255)`
/// and the 257th has no deeper stop to emit; a serializer of depth 255 whose
/// order stream closes two levels at once cannot name its barrier stop.
/// Both are typed errors naming the node.
#[test]
fn stop_levels_past_255_are_a_typed_error() {
    let mut g = SamGraph::new();
    let v = g.add_tensor("V", MemLocation::OnChip);
    let o = g.add_output("T", vec![1], Format::sparse_vec(), MemLocation::OnChip);
    let root = g.add_node(NodeKind::Root);
    let wc = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    let wv = g.add_node(NodeKind::ValWriter { output: o });
    let mut refs = root;
    for i in 0..257 {
        let ls = g.add_node(NodeKind::LevelScanner { tensor: v, level: 0 });
        g.connect(refs, if i == 0 { 0 } else { 1 }, ls, 0);
        if i == 0 {
            g.connect(ls, 0, wc, 0);
        }
        refs = ls;
    }
    g.connect(refs, 0, wv, 0);
    let one = SparseTensor::from_coo(vec![1], vec![(vec![0], 1.0)], &Format::dense_vec()).unwrap();
    let mut env = TensorEnv::new();
    env.insert("V", one);
    let err = fails_alike(&g, &env);
    let named = |m: &str| m.contains("stop level 255 + 1 exceeds 255 at LS[t0.l0]");
    assert!(matches!(&err, SimError::Semantics(m) if named(m)), "{err}");

    // One empty row: the inner scan's coordinate stream is `[Stop(1), Done]`.
    let mut g = SamGraph::new();
    let e = g.add_tensor("E", MemLocation::OnChip);
    let o = g.add_output("T", vec![1], Format::sparse_vec(), MemLocation::OnChip);
    let root = g.add_node(NodeKind::Root);
    let ei = g.add_node(NodeKind::LevelScanner { tensor: e, level: 0 });
    let ej = g.add_node(NodeKind::LevelScanner { tensor: e, level: 1 });
    let ser = g.add_node(NodeKind::Serializer { factor: 1, depth: 255 });
    let wc = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    let wv = g.add_node(NodeKind::ValWriter { output: o });
    g.connect(root, 0, ei, 0);
    g.connect(ei, 0, wc, 0);
    g.connect(ei, 1, ej, 0);
    g.connect(ej, 0, ser, 0);
    g.connect(ej, 0, ser, 1);
    g.connect(ser, 0, wv, 0);
    let mut env = TensorEnv::new();
    env.insert("E", SparseTensor::from_coo(vec![1, 4], vec![], &Format::csr()).unwrap());
    let err = fails_alike(&g, &env);
    let named = |m: &str| m.contains("stop level 1 + 255 exceeds 255 at Ser[1,d255]");
    assert!(matches!(&err, SimError::Semantics(m) if named(m)), "{err}");
}

/// `O_ij = V_i` over an `E` with two empty rows, at channel capacity 1. The
/// repeat stream is `[Stop(0), Stop(1), Done]` and the base stream
/// `[V_0, V_1, Stop(0), Done]`, so `Repeat` closes the second fiber under
/// `Stop(1)` with its base element never loaded. Reading heads only, it takes
/// that element as soon as it reaches the head and the base stop behind it
/// after; a primitive that needed both visible at once could never close the
/// fiber in a channel that holds one token.
#[test]
fn repeat_closes_an_empty_fiber_at_capacity_1() {
    let mut g = SamGraph::new();
    let v = g.add_tensor("V", MemLocation::Dram);
    let e = g.add_tensor("E", MemLocation::OnChip);
    let o = g.add_output("O", vec![2, 3], Format::csr(), MemLocation::OnChip);
    let root_v = g.add_node(NodeKind::Root);
    let vi = g.add_node(NodeKind::LevelScanner { tensor: v, level: 0 });
    let arr = g.add_node(NodeKind::Array { tensor: v });
    let root_e = g.add_node(NodeKind::Root);
    let ei = g.add_node(NodeKind::LevelScanner { tensor: e, level: 0 });
    let ej = g.add_node(NodeKind::LevelScanner { tensor: e, level: 1 });
    let rep = g.add_node(NodeKind::Repeat);
    let wc0 = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    let wc1 = g.add_node(NodeKind::CrdWriter { output: o, level: 1 });
    let wv = g.add_node(NodeKind::ValWriter { output: o });
    g.connect(root_v, 0, vi, 0);
    g.connect(vi, 1, arr, 0);
    g.connect(arr, 0, rep, 0);
    g.connect(root_e, 0, ei, 0);
    g.connect(ei, 0, wc0, 0);
    g.connect(ei, 1, ej, 0);
    g.connect(ej, 0, wc1, 0);
    g.connect(ej, 0, rep, 1);
    g.connect(rep, 0, wv, 0);
    let entries = vec![(vec![0], 1.0), (vec![1], 2.0)];
    let env = env2(
        ("V", SparseTensor::from_coo(vec![2], entries, &Format::dense(1)).unwrap()),
        ("E", SparseTensor::from_coo(vec![2, 3], vec![], &Format::csr()).unwrap()),
    );
    let cfg = SimConfig { channel_capacity: 1, ..SimConfig::default() };
    let [event, sweep] = [Scheduler::Event, Scheduler::Sweep].map(|s| {
        simulate(&g, &env, &cfg.clone().with_scheduler(s)).unwrap_or_else(|e| panic!("{s:?}: {e}"))
    });
    assert_eq!(event.stats.semantic(), sweep.stats.semantic());
    assert_eq!(event.outputs, sweep.outputs);
    assert_eq!(event.stats.cycles, 75);
    let zeros = DenseTensor::from_fn(vec![2, 3], |_| 0.0);
    assert!(event.outputs["O"].to_dense().approx_eq(&zeros));
}
