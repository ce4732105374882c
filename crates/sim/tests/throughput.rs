//! The rate the machine is built to: one token per port per cycle (II = 1).
//!
//! Event ≡ Sweep cannot see a rate (the two loops share `Rt::step`), and the
//! recorded snapshots only say that cycles did not move. These micro-graphs
//! hold the rate itself: a scanner or an array that retires a memory request
//! and acts in the same cycle streams a CSR matrix at one stored element per
//! cycle on chip, and from DRAM the gather at `Array` is bound by
//! `dram_random_latency / outstanding`.

use fuseflow_sam::{MemLocation, NodeId, NodeKind, ReduceOp, SamGraph};
use fuseflow_sim::{simulate, Scheduler, SimConfig, TensorEnv, TimingConfig};
use fuseflow_tensor::{gen, Format, SparseTensor};

const N: usize = 256;

/// `Root -> LS -> LS -> Array` over the CSR matrix `B` at `location`; returns
/// the two scanners and the array.
fn scan_values(g: &mut SamGraph, location: MemLocation) -> [NodeId; 3] {
    let b = g.add_tensor("B", location);
    let root = g.add_node(NodeKind::Root);
    let bi = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
    let bj = g.add_node(NodeKind::LevelScanner { tensor: b, level: 1 });
    let arr = g.add_node(NodeKind::Array { tensor: b });
    g.connect(root, 0, bi, 0);
    g.connect(bi, 1, bj, 0);
    g.connect(bj, 1, arr, 0);
    [bi, bj, arr]
}

/// `T = B`: the scanned streams go straight to the writers.
fn copy(location: MemLocation) -> SamGraph {
    let mut g = SamGraph::new();
    let [bi, bj, arr] = scan_values(&mut g, location);
    let o = g.add_output("T", vec![N, N], Format::csr(), location);
    let wc0 = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    let wc1 = g.add_node(NodeKind::CrdWriter { output: o, level: 1 });
    let wv = g.add_node(NodeKind::ValWriter { output: o });
    g.connect(bi, 0, wc0, 0);
    g.connect(bj, 0, wc1, 0);
    g.connect(arr, 0, wv, 0);
    g
}

/// `T_i = sum_j B_ij`: the values go through a `Reduce`.
fn row_sum() -> SamGraph {
    let mut g = SamGraph::new();
    let [bi, _, arr] = scan_values(&mut g, MemLocation::OnChip);
    let o = g.add_output("T", vec![N], Format::sparse_vec(), MemLocation::OnChip);
    let red = g.add_node(NodeKind::Spacc { order: 0, op: ReduceOp::Sum });
    let wc0 = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    let wv = g.add_node(NodeKind::ValWriter { output: o });
    g.connect(bi, 0, wc0, 0);
    g.connect(arr, 0, red, 0);
    g.connect(red, 0, wv, 0);
    g
}

/// Cycles per stored element of `B`, the same under both schedulers.
fn cycles_per_element(g: &SamGraph, b: &SparseTensor, timing: TimingConfig) -> f64 {
    let mut env = TensorEnv::new();
    env.insert("B", b.clone());
    let [event, sweep] = [Scheduler::Event, Scheduler::Sweep].map(|scheduler| {
        let cfg = SimConfig { timing: timing.clone(), scheduler, ..SimConfig::default() };
        simulate(g, &env, &cfg).unwrap()
    });
    assert_eq!(event.stats.semantic(), sweep.stats.semantic());
    assert_eq!(event.outputs, sweep.outputs);
    event.stats.cycles as f64 / b.nnz() as f64
}

#[test]
fn on_chip_pipelines_move_one_element_per_cycle() {
    let b = gen::sparse_features(N, N, 0.5, 11, &Format::csr());
    assert!(b.nnz() > 25_000, "fibers long enough that the per-row stops are a few per cent");

    let per = cycles_per_element(&copy(MemLocation::OnChip), &b, TimingConfig::comal());
    assert!(per <= 1.05, "on-chip copy: {per:.3} cycles per element, II = 1 is at most 1.05");
    let per = cycles_per_element(&row_sum(), &b, TimingConfig::comal());
    assert!(per <= 1.05, "on-chip row sum: {per:.3} cycles per element, II = 1 is at most 1.05");
}

#[test]
fn dram_copy_is_bound_by_the_gather_latency_over_outstanding() {
    let b = gen::sparse_features(N, N, 0.5, 11, &Format::csr());
    let timing = TimingConfig::comal();
    let bound = timing.dram_random_latency as f64 / timing.outstanding as f64;
    let per = cycles_per_element(&copy(MemLocation::Dram), &b, timing);
    assert!(
        (bound..=1.05 * bound).contains(&per),
        "DRAM copy: {per:.3} cycles per element, `Array` sustains {bound} \
         (dram_random_latency / outstanding)"
    );
}
