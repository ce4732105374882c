//! Event/Sweep engine equivalence, multi-component graphs on the one
//! machine, and standalone-runner timing regressions.
//!
//! The event-driven loop must produce **bit-identical** `outputs` and
//! semantic `Stats` to the dense sweep on every graph, and a graph of
//! several weakly-connected components must do the work of its components
//! simulated alone, on one clock and one DRAM channel.

use fuseflow_sam::{AluOp, MemLocation, NodeKind, ReduceOp, SamGraph};
use fuseflow_sim::{
    run_node_standalone, simulate, Block, Payload, Scheduler, SimConfig, SimError, SimResult,
    Stats, TensorEnv, Tiles, Token,
};
use fuseflow_tensor::{gen, Format, SparseTensor};

/// Cross-scheduler comparison: outputs and *semantic* stats (cycles,
/// FLOPs, bytes, token counts) must be bit-identical; only the
/// scheduler-implementation counters (`stats.sched`) may differ.
fn assert_schedulers_agree(event: &SimResult, sweep: &SimResult) {
    assert_eq!(
        event.stats.semantic(),
        sweep.stats.semantic(),
        "semantic stats must not depend on the scheduler backend"
    );
    assert_eq!(event.outputs.len(), sweep.outputs.len());
    for (name, t) in &event.outputs {
        assert_eq!(Some(t), sweep.outputs.get(name), "output '{name}' diverged across schedulers");
    }
}

/// Every scheduler backend, for the differential suites.
const ALL_SCHEDULERS: [Scheduler; 2] = [Scheduler::Event, Scheduler::Sweep];

/// Runs `g` under both schedulers, asserts they agree, and returns the
/// `Event` run.
fn assert_all_schedulers_identical(g: &SamGraph, env: &TensorEnv, cfg: &SimConfig) -> SimResult {
    let event = simulate(g, env, &cfg.clone().with_scheduler(Scheduler::Event)).unwrap();
    let sweep = simulate(g, env, &cfg.clone().with_scheduler(Scheduler::Sweep)).unwrap();
    assert_schedulers_agree(&event, &sweep);
    event
}

/// Gustavson SpMM `T_ij = sum_k A_ik * X_kj` (same wiring as the graphs.rs
/// suite): a single weakly-connected component.
fn build_spmm(g: &mut SamGraph, m: usize, n: usize) {
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
    g.connect(ai, 0, rep_x, 1);
    g.connect(ai, 0, wc0, 0);
    g.connect(ai, 1, ak, 0);
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
    g.connect(spacc, 0, wc1, 0);
    g.connect(spacc, 1, wv, 0);
}

/// An identity-copy pipeline `scan -> writers` over one CSR matrix, with a
/// caller-chosen tensor/output name. Each instance is its own
/// weakly-connected component, so `k` instances in one graph are `k`
/// kernels that meet only at the DRAM channel.
fn add_copy_pipeline(g: &mut SamGraph, tensor_name: &str, out_name: &str, shape: [usize; 2]) {
    let t = g.add_tensor(tensor_name, MemLocation::Dram);
    let o = g.add_output(out_name, shape.to_vec(), Format::csr(), MemLocation::Dram);
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
}

/// One SpMM and three copy pipelines of different sizes: four components,
/// built one at a time so that component `i` can also be built alone.
const COMPONENTS: usize = 4;

fn add_component(g: &mut SamGraph, i: usize) {
    if i == 0 {
        build_spmm(g, 16, 8);
    } else {
        add_copy_pipeline(g, &format!("B{i}"), &format!("T{i}"), [12, 12]);
    }
}

fn component_alone(i: usize) -> SamGraph {
    let mut g = SamGraph::new();
    add_component(&mut g, i);
    g
}

fn components_env() -> TensorEnv {
    let mut env = TensorEnv::new();
    env.insert("A", gen::adjacency(16, 0.2, gen::GraphPattern::Uniform, 42, &Format::csr()));
    env.insert("X", gen::sparse_features(16, 8, 0.3, 7, &Format::csr()));
    for i in 1..COMPONENTS {
        let t = gen::sparse_features(12, 12, 0.2 + 0.2 * i as f64, 30 + i as u64, &Format::csr());
        env.insert(format!("B{i}"), t);
    }
    env
}

/// A graph of `k` disjoint components does the work of its components
/// simulated alone (outputs, traffic, FLOPs and token counts sum) on one
/// clock and one DRAM channel: with bandwidth to spare the run is as long as
/// its longest component, and on a starved channel the components queue
/// behind each other, so it is longer.
#[test]
fn multi_component_graph_shares_one_clock_and_one_dram_channel() {
    let env = components_env();
    let mut whole = SamGraph::new();
    for i in 0..COMPONENTS {
        add_component(&mut whole, i);
    }
    let mut ample = SimConfig::default();
    ample.timing.dram_bytes_per_cycle = 1e6;
    let mut starved = SimConfig::default();
    starved.timing.dram_bytes_per_cycle = 4.0;
    // Labels carry slot indices, which differ between the whole graph and a
    // component built alone, so token counts are compared in total.
    let tokens = |s: &Stats| s.node_tokens.values().sum::<u64>();

    for (cfg, contended) in [(&ample, false), (&starved, true)] {
        let mut runs = Vec::new();
        for sched in ALL_SCHEDULERS {
            let cfg = cfg.clone().with_scheduler(sched);
            let got = simulate(&whole, &env, &cfg).unwrap();
            let mut alone = Stats::default();
            let (mut longest, mut shortest) = (0, u64::MAX);
            for i in 0..COMPONENTS {
                let solo = simulate(&component_alone(i), &env, &cfg).unwrap();
                for (name, t) in &solo.outputs {
                    assert_eq!(Some(t), got.outputs.get(name), "{sched:?}: output '{name}'");
                }
                longest = longest.max(solo.stats.cycles);
                shortest = shortest.min(solo.stats.cycles);
                alone.accumulate(&solo.stats);
            }
            assert!(shortest < longest, "components should differ in length");
            assert_eq!(got.outputs.len(), COMPONENTS);
            assert_eq!(got.stats.dram_read_bytes, alone.dram_read_bytes, "{sched:?}");
            assert_eq!(got.stats.dram_write_bytes, alone.dram_write_bytes, "{sched:?}");
            assert_eq!(got.stats.flops, alone.flops, "{sched:?}");
            assert_eq!(tokens(&got.stats), tokens(&alone), "{sched:?}: node tokens");
            if contended {
                assert!(got.stats.cycles > longest, "{sched:?}: no contention on 4 B/cycle");
            } else {
                assert_eq!(got.stats.cycles, longest, "{sched:?}: one clock");
            }
            runs.push(got);
        }
        assert_schedulers_agree(&runs[0], &runs[1]);
    }
}

/// Values fan out into an ALU operand and into `Reduce -> Repeat`, which
/// must take in a whole 8-element fiber (and its stop) before the ALU's
/// first commit: below capacity 9 this component never finishes.
fn add_reconvergent_normalize(g: &mut SamGraph) {
    let b = g.add_tensor("V", MemLocation::OnChip);
    let o = g.add_output("S", vec![8], Format::sparse_vec(), MemLocation::OnChip);
    let root = g.add_node(NodeKind::Root);
    let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
    let arr = g.add_node(NodeKind::Array { tensor: b });
    let red = g.add_node(NodeKind::Spacc { order: 0, op: ReduceOp::Sum });
    let rep = g.add_node(NodeKind::Repeat);
    let div = g.add_node(NodeKind::Alu { op: AluOp::Div });
    let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
    let vw = g.add_node(NodeKind::ValWriter { output: o });
    g.connect(root, 0, ls, 0);
    g.connect(ls, 0, cw, 0);
    g.connect(ls, 0, rep, 1);
    g.connect(ls, 1, arr, 0);
    g.connect(arr, 0, div, 0);
    g.connect(arr, 0, red, 0);
    g.connect(red, 0, rep, 0);
    g.connect(rep, 0, div, 1);
    g.connect(div, 0, vw, 0);
}

/// A component that deadlocks beside one that finishes is still reported:
/// the machine stops when nothing is left to run (so later than the stuck
/// component would stop alone), and the report names the stuck component's
/// nodes only.
#[test]
fn partial_deadlock_is_reported() {
    // Nodes 0..7: a copy pipeline, which finishes at any capacity. Nodes
    // 7..15: the component that is stuck at capacity 4.
    let mut g = SamGraph::new();
    add_copy_pipeline(&mut g, "B1", "T1", [12, 12]);
    add_reconvergent_normalize(&mut g);
    let mut stuck = SamGraph::new();
    add_reconvergent_normalize(&mut stuck);
    let mut env = components_env();
    let entries = (0..8).map(|i| (vec![i as u32], (i + 1) as f32)).collect();
    env.insert("V", SparseTensor::from_coo(vec![8], entries, &Format::sparse_vec()).unwrap());

    let cfg = SimConfig { channel_capacity: 4, ..SimConfig::default() };
    let copy_alone = simulate(&component_alone(1), &env, &cfg).unwrap().stats.cycles;
    let Err(SimError::Deadlock { cycle: stuck_alone, .. }) = simulate(&stuck, &env, &cfg) else {
        panic!("the stuck component should deadlock alone")
    };
    assert!(stuck_alone < copy_alone);
    let mut reports = Vec::new();
    for sched in ALL_SCHEDULERS {
        let err = simulate(&g, &env, &cfg.clone().with_scheduler(sched)).unwrap_err();
        let SimError::Deadlock { cycle, detail } = err else {
            panic!("{sched:?}: expected a deadlock, got {err}")
        };
        // Reported once the copy pipeline has run out too, not before.
        assert!(cycle + 1 >= copy_alone, "{sched:?}: deadlock at {cycle}, copy takes {copy_alone}");
        for id in 0..7 {
            assert!(!detail.contains(&format!("#{id}[")), "{sched:?}: finished node: {detail}");
        }
        assert!(detail.contains("Array[t1]#9["), "{sched:?}: {detail}");
        assert!(detail.contains("full:[out0->ALU[Div]#12 at cap 4]"), "{sched:?}: {detail}");
        reports.push((cycle, detail));
    }
    assert_eq!(reports[0], reports[1], "event vs sweep deadlock report");

    // A cycle budget that runs out behind a component that finished is
    // reported the same way.
    let mut two = SamGraph::new();
    add_component(&mut two, 1);
    add_component(&mut two, 2);
    let ok = simulate(&two, &env, &SimConfig::default()).unwrap();
    let short = simulate(&component_alone(1), &env, &SimConfig::default()).unwrap().stats.cycles;
    assert!(short < ok.stats.cycles, "component 2 should be the longer one");
    let tight = SimConfig { max_cycles: short, ..SimConfig::default() };
    for sched in ALL_SCHEDULERS {
        let err = simulate(&two, &env, &tight.clone().with_scheduler(sched)).unwrap_err();
        assert_eq!(err, SimError::MaxCycles(short), "{sched:?}");
    }
}

/// The reconvergent normalization alone, over a dense length-8 vector: every
/// fiber carries exactly 8 elements.
fn reconvergent_witness() -> (SamGraph, TensorEnv) {
    let mut g = SamGraph::new();
    add_reconvergent_normalize(&mut g);
    let entries: Vec<_> = (0..8).map(|i| (vec![i as u32], (i + 1) as f32)).collect();
    let mut env = TensorEnv::new();
    env.insert("V", SparseTensor::from_coo(vec![8], entries, &Format::sparse_vec()).unwrap());
    (g, env)
}

/// The witness deadlocks under both schedulers at every capacity that cannot
/// hold a whole fiber and its stop (below 9), and completes at every one
/// that can.
#[test]
fn reconvergent_witness_deadlocks_exactly_below_capacity_9() {
    let (g, env) = reconvergent_witness();
    for cap in 2..=12 {
        for scheduler in ALL_SCHEDULERS {
            let cfg = SimConfig { channel_capacity: cap, scheduler, ..SimConfig::default() };
            let result = simulate(&g, &env, &cfg);
            if cap < 9 {
                assert!(
                    matches!(result, Err(SimError::Deadlock { .. })),
                    "cap {cap}: {scheduler:?} did not deadlock: {result:?}"
                );
            } else {
                assert!(result.is_ok(), "cap {cap}: {scheduler:?} failed: {result:?}");
            }
        }
    }
}

/// The deadlock detail names the blocked nodes by label and the at-capacity
/// channel.
#[test]
fn deadlock_detail_names_blocked_nodes_and_channels() {
    let (g, env) = reconvergent_witness();
    let cfg = SimConfig { channel_capacity: 4, ..SimConfig::default() };
    let err = simulate(&g, &env, &cfg).unwrap_err();
    let SimError::Deadlock { detail, .. } = err else { panic!("expected deadlock: {err}") };
    assert!(detail.contains("at cap 4"), "detail: {detail}");
    assert!(detail.contains("full:[out0->ALU[Div]#5 at cap 4]"), "detail: {detail}");
    assert!(detail.contains("Array[t0]#2"), "detail: {detail}");
}

/// Regression: `run_node_standalone` used to exit on the first no-progress
/// cycle, truncating the output of any node that stalls on `busy_until` or
/// in-flight memory. A blocked tile matmul occupies the ALU for `cols`
/// cycles per tile, so the second input pair (and the trailing `Done`)
/// arrived while the node was "busy" and got dropped.
#[test]
fn standalone_runner_fast_forwards_over_busy_stalls() {
    let b = 4; // busy = b cycles per tile matmul
    let tile =
        |seed: f32| Block::new(b, b, (0..b * b).map(|i| seed + i as f32).collect::<Vec<_>>());
    let mut tiles = Tiles::default();
    let mut blk = |seed: f32| Token::Elem(Payload::Blk(tiles.put(tile(seed))));
    let lhs = vec![blk(1.0), blk(2.0), Token::Stop(0), Token::Done];
    let rhs = vec![blk(3.0), blk(4.0), Token::Stop(0), Token::Done];
    let mul = NodeKind::Alu { op: AluOp::Mul };
    let out = run_node_standalone(mul, vec![lhs, rhs], vec![], &mut tiles).unwrap();
    // Both products, the stop, and Done must all come through.
    assert_eq!(out[0].len(), 4, "busy stalls truncated the stream: {:?}", out[0]);
    assert!(matches!(out[0][0], Token::Elem(Payload::Blk(_))));
    assert!(matches!(out[0][1], Token::Elem(Payload::Blk(_))));
    assert_eq!(out[0][2], Token::Stop(0));
    assert_eq!(out[0][3], Token::Done);
    // And the first product is the actual tile matmul.
    let Token::Elem(Payload::Blk(p)) = out[0][0] else { unreachable!() };
    assert_eq!(tiles.get(p), &tile(1.0).matmul(&tile(3.0)));
}

/// `run_node_standalone` takes tiles by handle into the table it is given
/// and leaves the tiles it makes there. A node that copies one token many
/// times (`Repeat`) passes the input handles through unchanged; one that
/// makes new tiles (`Alu { Mul }`) returns new handles into the same table,
/// whose tiles are the products.
#[test]
fn standalone_tiles_round_trip_through_repeat_and_matmul() {
    let tile = |seed: f32, r: usize, c: usize| {
        Block::new(r, c, (0..r * c).map(|i| seed + i as f32).collect::<Vec<_>>())
    };
    let (a, b, c, d) = (tile(1.0, 2, 3), tile(-2.0, 2, 3), tile(0.5, 3, 2), tile(3.0, 3, 2));
    let mut tiles = Tiles::default();
    let [ta, tb, tc, td] =
        [&a, &b, &c, &d].map(|x| Token::Elem(Payload::Blk(tiles.put(x.clone()))));

    let base = vec![ta, tb, Token::Stop(0), Token::Done];
    let rep = vec![Token::idx(0), Token::idx(1), Token::idx(2), Token::Stop(0), Token::idx(5)];
    let rep = [rep, vec![Token::Stop(1), Token::Done]].concat();
    let out = run_node_standalone(NodeKind::Repeat, vec![base, rep], vec![], &mut tiles).unwrap();
    assert_eq!(out[0], [ta, ta, ta, Token::Stop(0), tb, Token::Stop(1), Token::Done]);

    let lhs = vec![ta, tb, Token::Stop(0), Token::Done];
    let rhs = vec![tc, td, Token::Stop(0), Token::Done];
    let mul = NodeKind::Alu { op: AluOp::Mul };
    let out = run_node_standalone(mul, vec![lhs, rhs], vec![], &mut tiles).unwrap();
    let [Token::Elem(Payload::Blk(p)), Token::Elem(Payload::Blk(q)), Token::Stop(0), Token::Done] =
        out[0][..]
    else {
        panic!("two tiles, a stop and done expected: {:?}", out[0]);
    };
    assert_eq!(tiles.get(p), &a.matmul(&c));
    assert_eq!(tiles.get(q), &b.matmul(&d));
    // The inputs are still in the table under their own handles.
    let Token::Elem(Payload::Blk(h)) = ta else { unreachable!() };
    assert_eq!(tiles.get(h), &a);
}

/// Regression companion: scanners park DRAM retirements in `pending_mem`;
/// the standalone runner must drain them rather than stopping at the first
/// stalled cycle.
#[test]
fn standalone_scanner_drains_pending_memory() {
    let d = gen::sparse_features(10, 10, 0.3, 5, &Format::csr());
    let nnz_row0: usize = d.to_dense().data()[0..10].iter().filter(|v| **v != 0.0).count();
    let refs = vec![Token::idx(0), Token::Stop(0), Token::Done];
    let scan = NodeKind::LevelScanner { tensor: 0, level: 1 };
    let out = run_node_standalone(scan, vec![refs], vec![d], &mut Tiles::default()).unwrap();
    // crd port: nnz elements, then Stop(1) (outer stop bumped), then Done.
    let elems = out[0].iter().filter(|t| t.is_elem()).count();
    assert_eq!(elems, nnz_row0);
    assert_eq!(out[0].last(), Some(&Token::Done));
}

// ---------------------------------------------------------------------------
// Scheduler oracle: event-driven vs. legacy sweep
// ---------------------------------------------------------------------------

#[test]
fn event_scheduler_is_default() {
    assert_eq!(SimConfig::default().scheduler, Scheduler::Event);
}

#[test]
fn spmm_cross_scheduler_bit_identical() {
    let a = gen::adjacency(24, 0.12, gen::GraphPattern::Uniform, 42, &Format::csr());
    let x = gen::sparse_features(24, 16, 0.3, 7, &Format::csr());
    let mut g = SamGraph::new();
    build_spmm(&mut g, 24, 16);
    let mut env = TensorEnv::new();
    env.insert("A", a);
    env.insert("X", x);
    let event = assert_all_schedulers_identical(&g, &env, &SimConfig::default());
    let sweep = simulate(&g, &env, &SimConfig::default().with_scheduler(Scheduler::Sweep)).unwrap();
    // The event engine must actually be doing less scheduler work: every
    // visited cycle, the sweep steps all nodes; the event engine only the
    // woken ones.
    assert!(
        event.stats.sched.events < sweep.stats.sched.events,
        "event engine stepped {} nodes vs sweep {}",
        event.stats.sched.events,
        sweep.stats.sched.events
    );
}

#[test]
fn multi_component_cross_scheduler_bit_identical() {
    let mut g = SamGraph::new();
    let mut env = TensorEnv::new();
    let mut tensors = Vec::new();
    for i in 0..4 {
        let name = format!("B{i}");
        let out = format!("T{i}");
        add_copy_pipeline(&mut g, &name, &out, [12, 12]);
        let t = gen::sparse_features(12, 12, 0.2 + 0.1 * i as f64, 30 + i as u64, &Format::csr());
        env.insert(name, t.clone());
        tensors.push((out, t));
    }
    // The second config starves the DRAM channel, so the four pipelines
    // queue behind each other's requests under both schedulers.
    let mut starved = SimConfig::default();
    starved.timing.dram_bytes_per_cycle = 4.0;
    let mut cycles = Vec::new();
    for cfg in [SimConfig::default(), starved] {
        let event = assert_all_schedulers_identical(&g, &env, &cfg);
        for (out, t) in &tensors {
            assert_eq!(event.outputs[out].to_dense(), t.to_dense(), "pipeline {out}: wrong data");
        }
        cycles.push(event.stats.cycles);
    }
    assert!(cycles[0] < cycles[1], "4 B/cycle should be the slower channel");
}

/// Long-latency stall coverage: block ALUs occupy the unit for many cycles
/// and DRAM gathers park tokens in `pending_mem`, exercising the wake
/// queue's timer wakes (including idle-gap jumps) on both backends: at a
/// 700-cycle random latency every scanner wake lies far past the cycle that
/// queued it.
#[test]
fn latency_dominated_graph_cross_scheduler_bit_identical() {
    use fuseflow_sim::TimingConfig;
    let a = gen::adjacency(16, 0.2, gen::GraphPattern::PowerLaw, 9, &Format::csr());
    let x = gen::sparse_features(16, 8, 0.4, 10, &Format::csr());
    let mut g = SamGraph::new();
    build_spmm(&mut g, 16, 8);
    let mut env = TensorEnv::new();
    env.insert("A", a);
    env.insert("X", x);
    let mut timing = TimingConfig::comal();
    timing.dram_stream_latency = 96;
    timing.dram_random_latency = 700;
    timing.outstanding = 2;
    let cfg = SimConfig { timing, ..SimConfig::default() };
    let event = assert_all_schedulers_identical(&g, &env, &cfg);
    assert!(event.stats.sched.cycles_skipped > 0, "expected idle-gap fast-forwards");
}

#[test]
fn error_paths_match_across_schedulers() {
    // Exhausted cycle budget must be reported at the same point by both
    // backends.
    let mut g = SamGraph::new();
    add_copy_pipeline(&mut g, "B0", "T0", [8, 8]);
    let mut env = TensorEnv::new();
    env.insert("B0", gen::sparse_features(8, 8, 0.3, 3, &Format::csr()));
    let tiny = SimConfig { max_cycles: 2, ..SimConfig::default() };
    for sched in ALL_SCHEDULERS {
        let err = simulate(&g, &env, &tiny.clone().with_scheduler(sched)).unwrap_err();
        assert_eq!(err, SimError::MaxCycles(2), "wrong error under {sched:?}");
    }

    // A run that genuinely deadlocks must report the same cycle under every
    // scheduler: at capacity 4 the reconvergent component can never take in
    // its 8-element fiber, so every node ends up blocked with no pending
    // wake-up.
    let mut g = SamGraph::new();
    add_reconvergent_normalize(&mut g);
    let mut env = TensorEnv::new();
    let entries = (0..8).map(|i| (vec![i as u32], (i + 1) as f32)).collect();
    env.insert("V", SparseTensor::from_coo(vec![8], entries, &Format::sparse_vec()).unwrap());
    let cfg = SimConfig { channel_capacity: 4, ..SimConfig::default() };
    let mut cycles = Vec::new();
    for sched in ALL_SCHEDULERS {
        match simulate(&g, &env, &cfg.clone().with_scheduler(sched)) {
            Err(SimError::Deadlock { cycle, .. }) => cycles.push(cycle),
            other => panic!("expected deadlock under {sched:?}, got {other:?}"),
        }
    }
    assert_eq!(cycles[0], cycles[1], "event vs sweep deadlock cycle");
}

// ---------------------------------------------------------------------------
// Scheduler oracle over the model zoo (full compiler pipeline)
// ---------------------------------------------------------------------------

/// Runs one model end to end (compile + simulate every region) under both
/// schedulers, fused (one large graph where most nodes idle at any instant)
/// and unfused (many small per-region graphs), asserting bit-identical
/// outputs and semantic stats throughout. Each is run in four memory regimes:
/// the default DRAM; a far memory, where latency dominates and the event
/// engine skips most cycles; a near memory with a deep request queue, where
/// the source sustains about a token a cycle and a fused chain stays busy;
/// and tensors pinned on-chip, where there are no DRAM nodes at all and
/// nothing to skip. Every run's outputs are also verified against the
/// reference interpreter.
fn assert_model_all_schedulers_identical(m: &fuseflow_models::ModelInstance) {
    use fuseflow_core::pipeline::{compile_at, run, verify};
    use fuseflow_models::Fusion;
    use fuseflow_sim::TimingConfig;
    let mut far = TimingConfig::comal();
    far.dram_stream_latency = 96;
    far.dram_random_latency = 480;
    let mut near = TimingConfig::comal();
    near.dram_stream_latency = 2;
    near.dram_random_latency = 8;
    near.outstanding = 64;
    let regimes = [
        ("default", TimingConfig::comal(), MemLocation::Dram),
        ("far", far, MemLocation::Dram),
        ("near", near, MemLocation::Dram),
        ("on-chip", TimingConfig::comal(), MemLocation::OnChip),
    ];
    for fusion in [Fusion::Unfused, Fusion::Full] {
        let sched = m.schedule(fusion);
        for (regime, timing, location) in &regimes {
            let compiled = compile_at(&m.program, &sched, *location).unwrap();
            let [event, sweep] = ALL_SCHEDULERS.map(|scheduler| {
                let cfg = SimConfig { timing: timing.clone(), scheduler, ..SimConfig::default() };
                run(&m.program, &compiled, &m.inputs, &cfg).unwrap()
            });
            let case = format!("{}, {fusion}, {regime} memory", m.name);
            assert_eq!(event.stats.semantic(), sweep.stats.semantic(), "{case}: stats diverged");
            assert_eq!(&event.outputs, &sweep.outputs, "{case}: outputs diverged");
            verify(&m.program, &m.inputs, &event.outputs).unwrap_or_else(|e| panic!("{case}: {e}"));
        }
    }
}

#[test]
fn model_zoo_sae_cross_scheduler_bit_identical() {
    assert_model_all_schedulers_identical(&fuseflow_models::sae("sae", 16, 8, 4, 0.4, 13));
}

/// The 16-node graph dataset of the GNN zoo cases.
fn tiny(pattern: gen::GraphPattern) -> fuseflow_models::GraphDataset {
    fuseflow_models::GraphDataset { name: "tiny", nodes: 16, feats: 8, density: 0.15, pattern }
}

#[test]
fn model_zoo_gcn_cross_scheduler_bit_identical() {
    let ds = tiny(gen::GraphPattern::PowerLaw);
    assert_model_all_schedulers_identical(&fuseflow_models::gcn(&ds, 8, 4, 17));
}

#[test]
fn model_zoo_graphsage_cross_scheduler_bit_identical() {
    let ds = tiny(gen::GraphPattern::Uniform);
    assert_model_all_schedulers_identical(&fuseflow_models::graphsage(&ds, 8, 4, 19));
}

#[test]
fn model_zoo_gpt_attention_cross_scheduler_bit_identical() {
    assert_model_all_schedulers_identical(&fuseflow_models::gpt_attention(8, 4, 4, 23));
}

/// The fully-fused map stack lowers to one long unary-ALU chain: every
/// node is a fan-out-1 producer-consumer hop, the flush's move-only case.
#[test]
fn model_zoo_map_stack_cross_scheduler_bit_identical() {
    assert_model_all_schedulers_identical(&fuseflow_models::map_stack(16, 9, 0.3, 29));
}

// ---------------------------------------------------------------------------
// Fan-out flush under backpressure
// ---------------------------------------------------------------------------

/// A blocked copy whose value stream fans out four ways at very different
/// drain rates: straight into a writer, into a deep chain of unary ALUs,
/// and twice into a tile matmul (`B` = 4 cycles per tile). `Array` gathers
/// from DRAM, and its first `outstanding` tiles arrive in a burst, faster
/// than the matmul takes them. At channel capacity 1 and 2 the matmul's
/// input channels sit full while the other branches are empty, so
/// `flush_phase` (send to every fan-out channel of the port or to none) runs
/// with one branch full and the others not; the coordinate streams fan out
/// three ways as well. `Array` issues no request while it holds a tile it
/// cannot send, so once the first `outstanding` tiles have drained the
/// matmul runs dry for a memory latency, which lengthens the run: that is
/// how the test sees the backpressure.
#[test]
fn fanout_flush_under_backpressure_cross_scheduler_bit_identical() {
    const B: usize = 4;
    const CHAIN: usize = 16; // even: Scale(-1)^CHAIN is the identity
    let grid = 4u32;
    let tiles: Vec<(Vec<u32>, Vec<f32>)> = (0..grid)
        .flat_map(|i| (0..grid).map(move |j| (i, j)))
        .filter(|(i, j)| (i + 2 * j) % 3 != 1)
        .map(|(i, j)| {
            let tile = (0..B * B).map(|e| (1 + i + j) as f32 + 0.25 * e as f32).collect();
            (vec![i, j], tile)
        })
        .collect();
    let shape = vec![grid as usize * B; 2];
    let t =
        fuseflow_tensor::SparseTensor::from_blocks(shape.clone(), [B, B], tiles, &Format::csr())
            .unwrap();

    let mut g = SamGraph::new();
    let src = g.add_tensor("B", MemLocation::Dram);
    let root = g.add_node(NodeKind::Root);
    let bi = g.add_node(NodeKind::LevelScanner { tensor: src, level: 0 });
    let bj = g.add_node(NodeKind::LevelScanner { tensor: src, level: 1 });
    let arr = g.add_node(NodeKind::Array { tensor: src });
    let sq = g.add_node(NodeKind::Alu { op: AluOp::Mul });
    g.connect(root, 0, bi, 0);
    g.connect(bi, 1, bj, 0);
    g.connect(bj, 1, arr, 0);
    let mut chain_end = arr;
    for _ in 0..CHAIN {
        let neg = g.add_node(NodeKind::Alu { op: AluOp::Scale(-1.0) });
        g.connect(chain_end, 0, neg, 0);
        chain_end = neg;
    }
    g.connect(arr, 0, sq, 0);
    g.connect(arr, 0, sq, 1);
    for (name, val_src) in [("copy", arr), ("chain", chain_end), ("square", sq)] {
        let o = g.add_blocked_output(name, shape.clone(), Format::csr(), [B, B], MemLocation::Dram);
        let wc0 = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
        let wc1 = g.add_node(NodeKind::CrdWriter { output: o, level: 1 });
        let wv = g.add_node(NodeKind::ValWriter { output: o });
        g.connect(bi, 0, wc0, 0);
        g.connect(bj, 0, wc1, 0);
        g.connect(val_src, 0, wv, 0);
    }

    let mut env = TensorEnv::new();
    env.insert("B", t.clone());
    let roomy = simulate(&g, &env, &SimConfig::default()).unwrap();
    assert_eq!(roomy.outputs["copy"], t);
    assert_eq!(roomy.outputs["chain"], t);
    for cap in [1usize, 2] {
        let cfg = SimConfig { channel_capacity: cap, ..SimConfig::default() };
        let tight = assert_all_schedulers_identical(&g, &env, &cfg);
        assert_eq!(tight.outputs, roomy.outputs, "capacity {cap} changed the data");
        assert!(
            tight.stats.cycles > roomy.stats.cycles,
            "capacity {cap} never backpressured the fan-out ({} vs {} cycles)",
            tight.stats.cycles,
            roomy.stats.cycles
        );
    }
}

// ---------------------------------------------------------------------------
// Tight-capacity timing, pinned
// ---------------------------------------------------------------------------

/// How a run ended: completed in this many cycles, or deadlocked at this
/// cycle of the region that got stuck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    C(u64),
    D(u64),
}
use End::{C, D};

const TIGHT_CAPACITIES: [usize; 4] = [1, 2, 3, 8];

/// `(model, fusion, location)` and how the run ends at each of
/// [`TIGHT_CAPACITIES`]. Event ≡ Sweep cannot see a flush or backpressure bug
/// (the two loops share `Rt::step`) and every recorded snapshot runs at
/// capacity 256, where a channel is never full, so these rows are what holds
/// the one-token-per-port-per-cycle, all-or-none-across-fan-out rule in
/// place. Every completed run is also checked against the reference
/// interpreter. On a mismatch the test prints the whole table as it now
/// comes out; an intended timing change re-pins from that, and a `C` that
/// became a `D` (or the reverse) is a change of behaviour, not a re-pin.
#[rustfmt::skip]
const TIGHT_PINNED: &[(&str, &str, &str, [End; 4])] = &[
    ("sae/sae", "unfused", "dram", [C(13481), C(9798), C(8555), C(6420)]),
    ("sae/sae", "unfused", "onchip", [C(2069), C(1375), C(1205), C(999)]),
    ("sae/sae", "partial", "dram", [C(11100), C(7594), C(6416), C(4328)]),
    ("sae/sae", "partial", "onchip", [C(1721), C(1051), C(881), C(675)]),
    ("sae/sae", "full", "dram", [C(46585), C(30663), C(23315), C(13070)]),
    ("sae/sae", "full", "onchip", [C(6072), C(3474), C(2773), C(1977)]),
    ("gcn/tiny", "unfused", "dram", [C(51078), C(35627), C(30627), C(21076)]),
    ("gcn/tiny", "unfused", "onchip", [C(7115), C(4714), C(4091), C(3431)]),
    ("gcn/tiny", "partial", "dram", [D(1641), D(2097), D(1612), C(11187)]),
    ("gcn/tiny", "partial", "onchip", [D(261), D(298), D(234), C(1739)]),
    ("gcn/tiny", "full", "dram", [D(7437), D(9279), D(7204), C(15271)]),
    ("gcn/tiny", "full", "onchip", [D(830), D(1007), D(786), C(2432)]),
    ("graphsage/tiny", "unfused", "dram", [C(80125), C(54758), C(46084), C(30305)]),
    ("graphsage/tiny", "unfused", "onchip", [C(10463), C(6885), C(5953), C(4915)]),
    ("graphsage/tiny", "partial", "dram", [D(2982), D(2025), D(2238), C(10664)]),
    ("graphsage/tiny", "partial", "onchip", [D(554), D(301), D(283), C(1657)]),
    ("graphsage/tiny", "full", "dram", [D(18838), D(10816), D(10212), C(15589)]),
    ("graphsage/tiny", "full", "onchip", [D(1979), D(1210), D(1071), C(2465)]),
    ("bigbird-attn/b4", "unfused", "dram", [C(13153), C(10729), C(9618), C(8036)]),
    ("bigbird-attn/b4", "unfused", "onchip", [C(1792), C(1427), C(1351), C(1250)]),
    ("bigbird-attn/b4", "partial", "dram", [D(300), D(487), D(489), D(870)]),
    ("bigbird-attn/b4", "partial", "onchip", [D(43), D(68), D(73), D(137)]),
    ("bigbird-attn/b4", "full", "dram", [D(94), D(155), D(161), D(1011)]),
    ("bigbird-attn/b4", "full", "onchip", [D(23), D(28), D(34), D(180)]),
    ("map_stack_16x9", "unfused", "dram", [C(6255), C(6246), C(6237), C(6183)]),
    ("map_stack_16x9", "unfused", "onchip", [C(972), C(972), C(972), C(972)]),
    ("map_stack_16x9", "partial", "dram", [C(2091), C(2088), C(2085), C(2067)]),
    ("map_stack_16x9", "partial", "onchip", [C(330), C(330), C(330), C(330)]),
    ("map_stack_16x9", "full", "dram", [C(703), C(702), C(701), C(695)]),
    ("map_stack_16x9", "full", "onchip", [C(116), C(116), C(116), C(116)]),
];

/// `(model, fusion, location)` of a zoo run at the default configuration,
/// then its cycles, the number of labels in `Stats::node_tokens`, their
/// token total, and an FNV-1a digest of the sorted `label=count` list.
/// Event ≡ Sweep cannot see a token miscounted by both (the two loops share
/// `Rt::step`, and with it where `elems` is counted), so these rows hold the
/// per-label counts in place. On a mismatch the test prints the table as it
/// now comes out.
#[rustfmt::skip]
const TOKENS_PINNED: &[(&str, &str, &str, u64, usize, u64, u64)] = &[
    ("sae/sae", "unfused", "dram", 6257, 18, 5088, 0xb71e8ea6a6b9004a),
    ("sae/sae", "unfused", "onchip", 997, 18, 5088, 0xb71e8ea6a6b9004a),
    ("sae/sae", "full", "dram", 12806, 25, 12735, 0xdd1478ada7efb6c1),
    ("sae/sae", "full", "onchip", 1977, 25, 12735, 0xdd1478ada7efb6c1),
    ("gcn/tiny", "unfused", "dram", 20416, 22, 17740, 0xa11346a7e91874f1),
    ("gcn/tiny", "unfused", "onchip", 3425, 22, 17740, 0xa11346a7e91874f1),
    ("gcn/tiny", "full", "dram", 14664, 34, 23898, 0xf7213ea890fc6a3c),
    ("gcn/tiny", "full", "onchip", 2417, 34, 23898, 0xf7213ea890fc6a3c),
    ("graphsage/tiny", "unfused", "dram", 29493, 22, 26131, 0x6b04c28359099f9c),
    ("graphsage/tiny", "unfused", "onchip", 4907, 22, 26131, 0x6b04c28359099f9c),
    ("graphsage/tiny", "full", "dram", 14936, 39, 43561, 0x35217711304832af),
    ("graphsage/tiny", "full", "onchip", 2437, 39, 43561, 0x35217711304832af),
    ("bigbird-attn/b4", "unfused", "dram", 7992, 22, 6606, 0x9beaf7f02cb15011),
    ("bigbird-attn/b4", "unfused", "onchip", 1250, 22, 6606, 0x9beaf7f02cb15011),
    ("bigbird-attn/b4", "full", "dram", 2363, 27, 3988, 0x97013a4ad2935f35),
    ("bigbird-attn/b4", "full", "onchip", 383, 27, 3988, 0x97013a4ad2935f35),
    ("map_stack_16x9", "unfused", "dram", 6183, 9, 4005, 0x4b39db6532a96617),
    ("map_stack_16x9", "unfused", "onchip", 972, 9, 4005, 0x4b39db6532a96617),
    ("map_stack_16x9", "full", "dram", 695, 9, 973, 0xf6a648acf8b4c664),
    ("map_stack_16x9", "full", "onchip", 116, 9, 973, 0xf6a648acf8b4c664),
];

/// FNV-1a over the sorted `label=count;` list of a run's token counts.
fn token_digest(stats: &Stats) -> u64 {
    let mut counts: Vec<_> = stats.node_tokens.iter().collect();
    counts.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (label, n) in counts {
        for b in format!("{label}={n};").bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The zoo models of the pinned tables.
fn pinned_models() -> [fuseflow_models::ModelInstance; 5] {
    [
        fuseflow_models::sae("sae", 16, 8, 4, 0.4, 13),
        fuseflow_models::gcn(&tiny(gen::GraphPattern::PowerLaw), 8, 4, 17),
        fuseflow_models::graphsage(&tiny(gen::GraphPattern::Uniform), 8, 4, 19),
        fuseflow_models::gpt_attention(8, 4, 4, 23),
        fuseflow_models::map_stack(16, 9, 0.3, 29),
    ]
}

/// The 20 default-configuration zoo runs of [`TOKENS_PINNED`] and
/// [`SCHED_PINNED`]: each model unfused and fully fused, in DRAM and on chip,
/// as `(model, fusion, location, stats)`.
fn default_zoo_runs() -> Vec<(String, String, &'static str, Stats)> {
    use fuseflow_core::pipeline::{compile_at, run};
    use fuseflow_models::Fusion;
    let mut got = Vec::new();
    for m in &pinned_models() {
        for fusion in [Fusion::Unfused, Fusion::Full] {
            for (loc_name, location) in
                [("dram", MemLocation::Dram), ("onchip", MemLocation::OnChip)]
            {
                let compiled = compile_at(&m.program, &m.schedule(fusion), location).unwrap();
                let stats = run(&m.program, &compiled, &m.inputs, &SimConfig::default())
                    .unwrap_or_else(|e| panic!("{}, {fusion}, {loc_name}: {e}", m.name))
                    .stats;
                got.push((m.name.clone(), fusion.to_string(), loc_name, stats));
            }
        }
    }
    got
}

#[test]
fn node_token_counts_are_pinned() {
    let got: Vec<_> = default_zoo_runs()
        .into_iter()
        .map(|(model, fusion, loc, stats)| {
            let total = stats.node_tokens.values().sum::<u64>();
            let (labels, digest) = (stats.node_tokens.len(), token_digest(&stats));
            (model, fusion, loc, stats.cycles, labels, total, digest)
        })
        .collect();
    let same = got.len() == TOKENS_PINNED.len()
        && got
            .iter()
            .zip(TOKENS_PINNED)
            .all(|(g, p)| (g.0.as_str(), g.1.as_str(), g.2, g.3, g.4, g.5, g.6) == *p);
    if !same {
        for (model, fusion, loc, cycles, labels, total, digest) in &got {
            println!("    ({model:?}, {fusion:?}, {loc:?}, {cycles}, {labels}, {total}, {digest:#018x}),");
        }
        panic!("token counts moved; the table as it now comes out is printed above");
    }
}

/// `(model, fusion, location)` of the same 20 runs, then the event engine's
/// own counters: steps (`sched.events`), skipped cycles and the ready set's
/// high-water mark. They describe the simulator, not the machine, so no
/// semantic comparison sees them: a change to the engine's layout leaves
/// them as they are, and one that adds or drops steps moves them. On a
/// mismatch the test prints the table as it now comes out.
#[rustfmt::skip]
const SCHED_PINNED: &[(&str, &str, &str, u64, u64, u64)] = &[
    ("sae/sae", "unfused", "dram", 7929, 3480, 16),
    ("sae/sae", "unfused", "onchip", 6530, 0, 16),
    ("sae/sae", "full", "dram", 20686, 7995, 41),
    ("sae/sae", "full", "onchip", 17086, 0, 41),
    ("gcn/tiny", "unfused", "dram", 29138, 11294, 16),
    ("gcn/tiny", "unfused", "onchip", 21272, 0, 16),
    ("gcn/tiny", "full", "dram", 39535, 5776, 66),
    ("gcn/tiny", "full", "onchip", 30163, 0, 66),
    ("graphsage/tiny", "unfused", "dram", 41974, 16477, 16),
    ("graphsage/tiny", "unfused", "onchip", 30828, 0, 16),
    ("graphsage/tiny", "full", "dram", 69654, 4937, 145),
    ("graphsage/tiny", "full", "onchip", 53144, 0, 145),
    ("bigbird-attn/b4", "unfused", "dram", 9961, 4602, 16),
    ("bigbird-attn/b4", "unfused", "onchip", 8029, 0, 16),
    ("bigbird-attn/b4", "full", "dram", 5945, 940, 40),
    ("bigbird-attn/b4", "full", "onchip", 5172, 0, 40),
    ("map_stack_16x9", "unfused", "dram", 6669, 3303, 8),
    ("map_stack_16x9", "unfused", "onchip", 4959, 0, 8),
    ("map_stack_16x9", "full", "dram", 1749, 303, 16),
    ("map_stack_16x9", "full", "onchip", 1359, 0, 16),
];

#[test]
fn scheduler_counters_are_pinned() {
    let got: Vec<_> = default_zoo_runs()
        .into_iter()
        .map(|(model, fusion, loc, s)| {
            (model, fusion, loc, s.sched.events, s.sched.cycles_skipped, s.sched.peak_ready)
        })
        .collect();
    let same = got.len() == SCHED_PINNED.len()
        && got
            .iter()
            .zip(SCHED_PINNED)
            .all(|(g, p)| (g.0.as_str(), g.1.as_str(), g.2, g.3, g.4, g.5) == *p);
    if !same {
        for (model, fusion, loc, events, skipped, peak) in &got {
            println!("    ({model:?}, {fusion:?}, {loc:?}, {events}, {skipped}, {peak}),");
        }
        panic!("scheduler counters moved; the table as it now comes out is printed above");
    }
}

#[test]
fn tight_capacity_cycles_and_deadlocks_are_pinned() {
    use fuseflow_core::pipeline::{compile_at, run, verify, PipelineError};
    use fuseflow_models::Fusion;
    let mut got = Vec::new();
    for m in &pinned_models() {
        for fusion in Fusion::ALL {
            for (loc_name, location) in
                [("dram", MemLocation::Dram), ("onchip", MemLocation::OnChip)]
            {
                let compiled = compile_at(&m.program, &m.schedule(fusion), location).unwrap();
                let ends = TIGHT_CAPACITIES.map(|channel_capacity| {
                    let [event, sweep] = ALL_SCHEDULERS.map(|scheduler| {
                        let cfg = SimConfig { channel_capacity, scheduler, ..SimConfig::default() };
                        match run(&m.program, &compiled, &m.inputs, &cfg) {
                            Ok(r) => Ok((r.stats.semantic(), r.outputs)),
                            Err(PipelineError::Sim(SimError::Deadlock { cycle, detail })) => {
                                Err((cycle, detail))
                            }
                            Err(e) => panic!("{}, {fusion}, {loc_name}: {e}", m.name),
                        }
                    });
                    let case =
                        format!("{}, {fusion}, {loc_name}, capacity {channel_capacity}", m.name);
                    assert_eq!(event, sweep, "{case}: event vs sweep");
                    match event {
                        Ok((stats, outputs)) => {
                            verify(&m.program, &m.inputs, &outputs)
                                .unwrap_or_else(|e| panic!("{case}: {e}"));
                            C(stats.cycles)
                        }
                        Err((cycle, _)) => D(cycle),
                    }
                });
                got.push((m.name.clone(), fusion.to_string(), loc_name, ends));
            }
        }
    }
    let same = got.len() == TIGHT_PINNED.len()
        && got.iter().zip(TIGHT_PINNED).all(|(g, p)| (g.0.as_str(), g.1.as_str(), g.2, g.3) == *p);
    if !same {
        for (model, fusion, loc, ends) in &got {
            println!("    ({model:?}, {fusion:?}, {loc:?}, {ends:?}),");
        }
        panic!("tight-capacity cycles moved; the table as it now comes out is printed above");
    }
}
