//! Cross-crate integration tests: compile Einsum programs under every
//! schedule and verify simulated results against the structural reference
//! interpreter.

use fuseflow::core::interp::interpret;
use fuseflow::core::ir::{Program, ReduceOp};
use fuseflow::core::pipeline::{compile, compile_at, compile_run_verify, run, verify};
use fuseflow::core::schedule::Schedule;
use fuseflow::models::{graphsage, Fusion, GraphDataset};
use fuseflow::sim::{Scheduler, SimConfig, Stats};
use fuseflow::tensor::{gen, DenseTensor, Format, SparseTensor};
use fuseflow_sam::{AluOp, MemLocation};
use std::collections::HashMap;

type Inputs = HashMap<String, SparseTensor>;

fn gcn_layerish(n: usize, f: usize, h: usize) -> (Program, Inputs) {
    // T0 = A X ; T1 = relu(T0 W + b)
    let mut p = Program::new();
    let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
    let a = p.input("A", vec![n, n], Format::csr());
    let x = p.input("X", vec![n, f], Format::csr());
    let w = p.input("W", vec![f, h], Format::dense(2));
    let b = p.input("b", vec![h], Format::dense_vec());
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
    let t2 = p.binary("T2", AluOp::Add, (t1, vec![i, j]), (b, vec![j]), vec![i, j], Format::csr());
    let out = p.map("Out", AluOp::Relu, (t2, vec![i, j]), Format::csr());
    p.mark_output(out);

    let mut inputs = Inputs::new();
    inputs.insert(
        "A".into(),
        gen::adjacency(n, 0.15, gen::GraphPattern::Uniform, 10, &Format::csr()),
    );
    inputs.insert("X".into(), gen::sparse_features(n, f, 0.4, 11, &Format::csr()));
    inputs.insert(
        "W".into(),
        SparseTensor::from_dense(&gen::dense_features(f, h, 12), &Format::dense(2)),
    );
    inputs.insert(
        "b".into(),
        SparseTensor::from_dense(
            &gen::dense_features(1, h, 13).reshape(vec![h]),
            &Format::dense_vec(),
        ),
    );
    (p, inputs)
}

#[test]
fn gcn_layer_unfused_matches_reference() {
    let (p, inputs) = gcn_layerish(20, 12, 6);
    let r = compile_run_verify(&p, &Schedule::unfused(), &inputs, &SimConfig::default()).unwrap();
    assert!(r.stats.cycles > 0);
    assert_eq!(r.per_region.len(), 4);
}

#[test]
fn gcn_layer_fully_fused_matches_reference_and_cuts_traffic() {
    let (p, inputs) = gcn_layerish(20, 12, 6);
    let unfused =
        compile_run_verify(&p, &Schedule::unfused(), &inputs, &SimConfig::default()).unwrap();
    let fused = compile_run_verify(&p, &Schedule::full(), &inputs, &SimConfig::default()).unwrap();
    assert!(
        fused.stats.dram_bytes() < unfused.stats.dram_bytes(),
        "fusion must remove intermediate DRAM traffic ({} vs {})",
        fused.stats.dram_bytes(),
        unfused.stats.dram_bytes()
    );
    assert!(
        fused.stats.cycles < unfused.stats.cycles,
        "single-layer fusion should win ({} vs {})",
        fused.stats.cycles,
        unfused.stats.cycles
    );
}

#[test]
fn pipeline_runs_are_bit_identical_across_schedulers() {
    // End-to-end equivalence at the pipeline level: every fusion schedule,
    // region by region, event-driven loop vs the dense-sweep oracle.
    let (p, inputs) = gcn_layerish(16, 10, 5);
    for schedule in [Schedule::unfused(), Schedule::regions(vec![0..2]), Schedule::full()] {
        let [event, sweep] = [Scheduler::Event, Scheduler::Sweep].map(|scheduler| {
            let cfg = SimConfig::default().with_scheduler(scheduler);
            compile_run_verify(&p, &schedule, &inputs, &cfg).unwrap()
        });
        assert_eq!(event.stats.semantic(), sweep.stats.semantic(), "stats under {schedule:?}");
        let semantic = |r: &[Stats]| r.iter().map(Stats::semantic).collect::<Vec<_>>();
        assert_eq!(
            semantic(&event.per_region),
            semantic(&sweep.per_region),
            "regions diverged under {schedule:?}"
        );
        assert_eq!(event.outputs, sweep.outputs, "outputs diverged under {schedule:?}");
    }
}

/// A row reduction over a row with no stored element writes 0 into a dense
/// output, as the interpreter reads the absent coordinate. A `Max` used to
/// write its identity there (`f32::MIN`), which `verify` refused.
#[test]
fn an_empty_fiber_reduces_to_zero() {
    let entries = vec![(vec![0, 1], -2.0), (vec![2, 3], -5.0)];
    let at = SparseTensor::from_coo(vec![3, 4], entries, &Format::csr()).unwrap();
    let inputs: Inputs = [("A".to_string(), at)].into();
    for op in [ReduceOp::Sum, ReduceOp::Max] {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![3, 4], Format::csr());
        let m = p.reduce("M", (a, vec![i, j]), vec![j], op, Format::dense_vec());
        p.mark_output(m);
        for location in [MemLocation::Dram, MemLocation::OnChip] {
            let compiled = compile_at(&p, &Schedule::unfused(), location).unwrap();
            for scheduler in [Scheduler::Event, Scheduler::Sweep] {
                let cfg = SimConfig::default().with_scheduler(scheduler);
                let r = run(&p, &compiled, &inputs, &cfg).unwrap();
                let point = format!("{op:?} {location:?} {scheduler:?}");
                verify(&p, &inputs, &r.outputs).unwrap_or_else(|e| panic!("{point}: {e}"));
                assert_eq!(r.outputs["M"].to_dense().data(), &[-2.0, 0.0, -5.0], "{point}");
            }
        }
    }
}

/// A NaN under `Max` and a `-0.0` under `Sum` reduce to the interpreter's
/// bits, end to end. `verify` compares with a tolerance that cannot tell the
/// two zeros apart and refuses a NaN, so the bits are compared against
/// `interpret` as well.
#[test]
fn a_nan_max_and_a_negative_zero_sum_keep_the_interpreters_bits() {
    let rows = |v: f32| vec![(vec![0, 1], v), (vec![1, 0], v), (vec![1, 2], 2.0 * v)];
    for (op, v) in [(ReduceOp::Max, f32::NAN), (ReduceOp::Sum, -0.0)] {
        let at = SparseTensor::from_coo(vec![3, 4], rows(v), &Format::csr()).unwrap();
        let inputs: Inputs = [("A".to_string(), at)].into();
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![3, 4], Format::csr());
        let m = p.reduce("M", (a, vec![i, j]), vec![j], op, Format::dense_vec());
        p.mark_output(m);
        let want = interpret(&p, &inputs).unwrap()["M"].vals.data().to_vec();
        assert_eq!(want[0].to_bits(), v.to_bits(), "{op:?}: a lone value passes as it is");
        for location in [MemLocation::Dram, MemLocation::OnChip] {
            let compiled = compile_at(&p, &Schedule::unfused(), location).unwrap();
            for scheduler in [Scheduler::Event, Scheduler::Sweep] {
                let cfg = SimConfig::default().with_scheduler(scheduler);
                let r = run(&p, &compiled, &inputs, &cfg).unwrap();
                let point = format!("{op:?} {location:?} {scheduler:?}");
                let got = r.outputs["M"].to_dense();
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.data()), bits(&want), "{point}");
                if !v.is_nan() {
                    verify(&p, &inputs, &r.outputs).unwrap_or_else(|e| panic!("{point}: {e}"));
                }
            }
        }
    }
}

#[test]
fn gcn_layer_partial_regions_match_reference() {
    let (p, inputs) = gcn_layerish(16, 10, 5);
    // Fuse the two matmuls; bias and relu stay separate.
    let r = compile_run_verify(&p, &Schedule::regions(vec![0..2]), &inputs, &SimConfig::default())
        .unwrap();
    assert_eq!(r.per_region.len(), 3);
}

#[test]
fn two_layer_full_fusion_recomputes_but_stays_correct() {
    // Nested A (A X W) pattern: full fusion nests layer 1 under layer 2's
    // row loop (recomputation), which must stay functionally correct.
    let n = 12;
    let mut p = Program::new();
    let (i, k, u, k2, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("k2"), p.index("j"));
    let a = p.input("A", vec![n, n], Format::csr());
    let x = p.input("X", vec![n, 8], Format::csr());
    let x1 = p.contract(
        "X1",
        vec![i, u],
        vec![(a, vec![i, k]), (x, vec![k, u])],
        vec![k],
        Format::csr(),
    );
    let t = p.contract(
        "T",
        vec![i, j],
        vec![(a, vec![i, k2]), (x1, vec![k2, j])],
        vec![k2],
        Format::csr(),
    );
    let _ = (t, u);
    p.mark_output(t);

    let mut inputs = Inputs::new();
    inputs
        .insert("A".into(), gen::adjacency(n, 0.2, gen::GraphPattern::Uniform, 3, &Format::csr()));
    inputs.insert("X".into(), gen::sparse_features(n, 8, 0.5, 4, &Format::csr()));

    let unfused =
        compile_run_verify(&p, &Schedule::unfused(), &inputs, &SimConfig::default()).unwrap();
    let fused = compile_run_verify(&p, &Schedule::full(), &inputs, &SimConfig::default()).unwrap();
    // Recomputation shows up as extra compute in the fused configuration.
    assert!(
        fused.stats.flops > unfused.stats.flops,
        "full fusion of nested matmuls must recompute ({} vs {})",
        fused.stats.flops,
        unfused.stats.flops
    );
}

#[test]
fn masked_softmax_pipeline_matches_reference() {
    // exp/rowmax/rowsum/div over the sparse structure, the attention
    // pattern of Section 8's GPT-3 model.
    let n = 10;
    let mut p = Program::new();
    let (i, j) = (p.index("i"), p.index("j"));
    let s = p.input("S", vec![n, n], Format::csr());
    let m = p.reduce("M", (s, vec![i, j]), vec![j], ReduceOp::Max, Format::dense_vec());
    let sh = p.binary("Sh", AluOp::Sub, (s, vec![i, j]), (m, vec![i]), vec![i, j], Format::csr());
    let e = p.map("E", AluOp::Exp, (sh, vec![i, j]), Format::csr());
    let d = p.reduce("D", (e, vec![i, j]), vec![j], ReduceOp::Sum, Format::dense_vec());
    let o = p.binary("O", AluOp::Div, (e, vec![i, j]), (d, vec![i]), vec![i, j], Format::csr());
    p.mark_output(o);

    let mut inputs = Inputs::new();
    inputs
        .insert("S".into(), gen::adjacency(n, 0.4, gen::GraphPattern::Uniform, 7, &Format::csr()));

    for schedule in [Schedule::unfused(), Schedule::full()] {
        let r = compile_run_verify(&p, &schedule, &inputs, &SimConfig::default()).unwrap();
        // Softmax rows sum to one over the structure.
        let dense = r.outputs["O"].to_dense();
        for row in 0..n {
            let sum: f32 = (0..n).map(|c| dense.get(&[row, c])).sum();
            assert!((sum - 1.0).abs() < 1e-3, "row {row} sums to {sum}");
        }
    }
}

#[test]
fn union_add_of_two_matmuls_matches_reference() {
    // GraphSAGE-style: T_self + T_nbor, two streamed intermediates joined
    // by union at a shared outer row.
    let n = 14;
    let mut p = Program::new();
    let (i, k, u, k2) = (p.index("i"), p.index("k"), p.index("u"), p.index("k2"));
    let a = p.input("A", vec![n, n], Format::csr());
    let x = p.input("X", vec![n, 6], Format::csr());
    let w1 = p.input("W1", vec![6, 6], Format::dense(2));
    let ts = p.contract(
        "Tself",
        vec![i, u],
        vec![(x, vec![i, k]), (w1, vec![k, u])],
        vec![k],
        Format::csr(),
    );
    let tn = p.contract(
        "Tnbor",
        vec![i, u],
        vec![(a, vec![i, k2]), (x, vec![k2, u])],
        vec![k2],
        Format::csr(),
    );
    let sum =
        p.binary("Sum", AluOp::Add, (ts, vec![i, u]), (tn, vec![i, u]), vec![i, u], Format::csr());
    let out = p.map("Out", AluOp::Relu, (sum, vec![i, u]), Format::csr());
    p.mark_output(out);

    let mut inputs = Inputs::new();
    inputs
        .insert("A".into(), gen::adjacency(n, 0.2, gen::GraphPattern::Uniform, 21, &Format::csr()));
    inputs.insert("X".into(), gen::sparse_features(n, 6, 0.6, 22, &Format::csr()));
    inputs.insert(
        "W1".into(),
        SparseTensor::from_dense(&gen::dense_features(6, 6, 23), &Format::dense(2)),
    );

    for schedule in [Schedule::unfused(), Schedule::full()] {
        compile_run_verify(&p, &schedule, &inputs, &SimConfig::default()).unwrap();
    }
}

#[test]
fn global_iteration_baseline_matches_and_is_slower() {
    // FuseFlow's factored iteration of a fused matmul chain vs the
    // Custard/Stardust rewrite: the chain composed into one product, whose
    // iteration space is the global one (Fig 5 / Section 8.4).
    let n = 16;
    let program = |composed: bool| {
        let mut p = Program::new();
        let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
        let a = p.input("A", vec![n, n], Format::csr());
        let x = p.input("X", vec![n, 10], Format::csr());
        let w = p.input("W", vec![10, 6], Format::dense(2));
        let (a, x, w) = ((a, vec![i, k]), (x, vec![k, u]), (w, vec![u, j]));
        let t1 = if composed {
            p.contract("T1", vec![i, j], vec![a, x, w], vec![k, u], Format::csr())
        } else {
            let t0 = p.contract("T0", vec![i, u], vec![a, x], vec![k], Format::csr());
            p.contract("T1", vec![i, j], vec![(t0, vec![i, u]), w], vec![u], Format::csr())
        };
        p.mark_output(t1);
        p
    };

    let mut inputs = Inputs::new();
    inputs.insert(
        "A".into(),
        gen::adjacency(n, 0.15, gen::GraphPattern::Uniform, 31, &Format::csr()),
    );
    inputs.insert("X".into(), gen::sparse_features(n, 10, 0.4, 32, &Format::csr()));
    inputs.insert(
        "W".into(),
        SparseTensor::from_dense(&gen::dense_features(10, 6, 33), &Format::dense(2)),
    );

    let (chain, product) = (program(false), program(true));
    let run = |p: &Program| {
        compile_run_verify(p, &Schedule::full(), &inputs, &SimConfig::default()).unwrap()
    };
    let (factored, global) = (run(&chain), run(&product));
    // The summation orders differ, so the outputs agree to tolerance only.
    verify(&chain, &inputs, &global.outputs).unwrap();
    assert!(
        global.stats.cycles > factored.stats.cycles,
        "global iteration must pay coordinate-explosion overhead ({} vs {})",
        global.stats.cycles,
        factored.stats.cycles
    );
}

#[test]
fn parallelized_fused_matmul_matches_and_speeds_up() {
    let n = 24;
    let mut p = Program::new();
    let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
    let a = p.input("A", vec![n, n], Format::csr());
    let x = p.input("X", vec![n, 12], Format::csr());
    let t =
        p.contract("T", vec![i, j], vec![(a, vec![i, k]), (x, vec![k, j])], vec![k], Format::csr());
    p.mark_output(t);

    let mut inputs = Inputs::new();
    inputs
        .insert("A".into(), gen::adjacency(n, 0.2, gen::GraphPattern::Uniform, 41, &Format::csr()));
    inputs.insert("X".into(), gen::sparse_features(n, 12, 0.5, 42, &Format::csr()));

    let serial = compile_run_verify(&p, &Schedule::full(), &inputs, &SimConfig::default()).unwrap();
    let par = compile_run_verify(
        &p,
        &Schedule::full().with_parallelization(i, 4),
        &inputs,
        &SimConfig::default(),
    )
    .unwrap();
    assert!(
        par.stats.cycles < serial.stats.cycles,
        "parallelization must speed up ({} vs {})",
        par.stats.cycles,
        serial.stats.cycles
    );
}

#[test]
fn run_without_required_input_errors() {
    let (p, _) = gcn_layerish(8, 6, 4);
    let compiled = compile(&p, &Schedule::unfused()).unwrap();
    let err = run(&p, &compiled, &Inputs::new(), &SimConfig::default()).unwrap_err();
    assert!(err.to_string().contains("missing input"));
}

#[test]
fn verify_catches_wrong_outputs() {
    let (p, inputs) = gcn_layerish(8, 6, 4);
    let mut bogus = HashMap::new();
    bogus.insert(
        "Out".to_string(),
        SparseTensor::from_dense(&gen::dense_features(8, 4, 99), &Format::csr()),
    );
    assert!(verify(&p, &inputs, &bogus).is_err());

    // With two diverging outputs, the first in `Program::outputs` order is
    // named, whatever order each freshly hashed map yields.
    let (mut p, inputs) = gcn_layerish(8, 6, 4);
    p.mark_output(p.exprs()[1].output.tensor);
    let messages: Vec<String> = (0..32)
        .map(|_| {
            let bogus: HashMap<_, _> = ["Out", "T1"]
                .map(|name| {
                    let t =
                        SparseTensor::from_dense(&gen::dense_features(8, 4, 99), &Format::csr());
                    (name.to_string(), t)
                })
                .into();
            verify(&p, &inputs, &bogus).unwrap_err().to_string()
        })
        .collect();
    assert!(messages[0].contains("output 'Out' diverges"), "{}", messages[0]);
    assert!(messages.iter().all(|m| *m == messages[0]), "{messages:?}");
}

#[test]
fn region_past_the_program_end_is_a_typed_error() {
    use fuseflow::core::estimate;
    use fuseflow::core::fusion::{fuse_region, FuseError};
    use fuseflow::core::lower::LowerError;
    use fuseflow::core::pipeline::PipelineError;
    let (p, inputs) = gcn_layerish(8, 6, 4);
    let n = p.exprs().len();
    // `n + 1..n + 2` also makes `resolve_regions` fill the gap with the
    // singleton `n..n + 1`, which is the first range refused. An empty region
    // and overlapping ones are refused too.
    for (bad, refused) in [
        (vec![0..n + 5], 0..n + 5),
        (vec![n + 1..n + 2], n..n + 1),
        (vec![1..1], 1..1),
        (vec![0..2, 1..3], 1..3),
    ] {
        let res = compile(&p, &Schedule::regions(bad.clone()));
        assert!(
            matches!(
                &res,
                Err(PipelineError::Lower(LowerError::Fusion(FuseError::RegionOutOfRange {
                    range,
                    exprs,
                }))) if *range == refused && *exprs == n
            ),
            "{bad:?}: {:?}",
            res.err().map(|e| e.to_string())
        );
        // The heuristic takes the same schedule without validating it, and
        // must not panic on it either; nor must `live_outs`, which has
        // nothing to write back for a range outside the expressions.
        for r in &bad {
            let outs = p.live_outs(r);
            assert!(r.end <= n || outs.is_empty(), "{r:?}: {outs:?}");
        }
        estimate(&p, &Schedule::regions(bad), &inputs);
    }
    // `fuse_region` is public, so it refuses a reversed range itself.
    #[allow(clippy::reversed_empty_ranges)]
    let reversed = 3..1;
    assert!(matches!(
        fuse_region(&p, reversed.clone()),
        Err(FuseError::RegionOutOfRange { range, exprs }) if range == reversed && exprs == n
    ));
    assert!(p.live_outs(&reversed).is_empty());
}

/// A blocked union, `T = 2A op 2B`, over 4×4 CSR inputs in 2×2 tiles: `A`
/// holds tiles (0,0) and (1,1), `B` holds (0,0) and (0,1). Unfused, the
/// union reads `2A` and `2B` back through arrays, which fill a zero tile for
/// the absent side. Fully fused, the scaled tiles meet in the union itself,
/// so the ALU sees a tile beside an absent operand, on the right at (1,1) and
/// on the left at (0,1), and must keep each on its side (for `Sub`, tile
/// (0,1) of `T` is `-2B`, which `verify` checks). Either way each of the 4
/// input tiles and the 3 stored tiles of `T` charges one FLOP per element:
/// 28.
#[test]
fn a_blocked_union_keeps_a_lone_tile_on_its_side() {
    let blocks = |tiles: Vec<(Vec<u32>, Vec<f32>)>| {
        SparseTensor::from_blocks(vec![4, 4], [2, 2], tiles, &Format::csr()).unwrap()
    };
    let a = blocks(vec![
        (vec![0, 0], vec![1.0, -2.0, 0.5, 3.0]),
        (vec![1, 1], vec![4.0, 0.0, -1.0, 2.0]),
    ]);
    let b = blocks(vec![
        (vec![0, 0], vec![2.0, 2.0, -3.0, 1.0]),
        (vec![0, 1], vec![-1.0, 5.0, 0.5, -4.0]),
    ]);
    let inputs: Inputs = [("A".to_string(), a), ("B".to_string(), b)].into();
    for op in [AluOp::Sub, AluOp::Add, AluOp::Max] {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.blocked_input("A", vec![4, 4], Format::csr(), [2, 2]);
        let b = p.blocked_input("B", vec![4, 4], Format::csr(), [2, 2]);
        let a2 = p.map("A2", AluOp::Scale(2.0), (a, vec![i, j]), Format::csr());
        let b2 = p.map("B2", AluOp::Scale(2.0), (b, vec![i, j]), Format::csr());
        let t = p.binary("T", op, (a2, vec![i, j]), (b2, vec![i, j]), vec![i, j], Format::csr());
        p.mark_output(t);
        for sched in [Schedule::unfused(), Schedule::full()] {
            let compiled = compile(&p, &sched).unwrap();
            for scheduler in [Scheduler::Event, Scheduler::Sweep] {
                let at = format!("{op:?} {sched:?} {scheduler:?}");
                let cfg = SimConfig::default().with_scheduler(scheduler);
                let r = run(&p, &compiled, &inputs, &cfg).unwrap_or_else(|e| panic!("{at}: {e}"));
                verify(&p, &inputs, &r.outputs).unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(r.stats.flops, 28, "{at}");
            }
        }
    }
}

/// A blocked-CSR input holding one tile, mapped into a dense output. The
/// dense output stores every tile of its grid, so the rebuild writes a zero
/// tile where the writers sent none; it used to look each stored position
/// up among the sent tiles and panic on the first absent one.
#[test]
fn a_blocked_map_into_a_dense_output_stores_zero_tiles() {
    let tile = vec![1.0, -2.0, 0.0, 3.0];
    let at =
        SparseTensor::from_blocks(vec![4, 4], [2, 2], vec![(vec![0, 1], tile)], &Format::csr())
            .unwrap();
    let inputs: Inputs = [("A".to_string(), at)].into();
    let mut p = Program::new();
    let (i, j) = (p.index("i"), p.index("j"));
    let a = p.blocked_input("A", vec![4, 4], Format::csr(), [2, 2]);
    let r = p.map("R", AluOp::Relu, (a, vec![i, j]), Format::dense(2));
    p.mark_output(r);
    let compiled = compile(&p, &Schedule::unfused()).unwrap();
    for scheduler in [Scheduler::Event, Scheduler::Sweep] {
        let cfg = SimConfig::default().with_scheduler(scheduler);
        let r = run(&p, &compiled, &inputs, &cfg).unwrap();
        verify(&p, &inputs, &r.outputs).unwrap_or_else(|e| panic!("{scheduler:?}: {e}"));
        let out = &r.outputs["R"];
        assert_eq!(out.stored_positions(), 4, "{scheduler:?}");
        #[rustfmt::skip]
        let want = [
            0., 0., 1., 0.,
            0., 0., 0., 3.,
            0., 0., 0., 0.,
            0., 0., 0., 0.,
        ];
        assert_eq!(out.to_dense().data(), &want, "{scheduler:?}");
    }
}

/// `H = relu(B)`, `T = Σ_k A[i,k]·H[k,j]` and, with `union`, `U = T + c[i]`.
/// `A`'s row 1 is empty, and row 2 misses `B`'s rows 0 and 2: where `A` has
/// no `k`, the fused product has no term, so `T` (and `U`, which takes its
/// `j` from `T`) has no coordinate there.
fn relu_product(union: bool) -> (Program, Inputs) {
    let mut p = Program::new();
    let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
    let a = p.input("A", vec![3, 3], Format::csr());
    let b = p.input("B", vec![3, 2], Format::csr());
    let c = p.input("c", vec![3], Format::dense_vec());
    let h = p.map("H", AluOp::Relu, (b, vec![k, j]), Format::csr());
    let t =
        p.contract("T", vec![i, j], vec![(a, vec![i, k]), (h, vec![k, j])], vec![k], Format::csr());
    if union {
        let u = p.binary("U", AluOp::Add, (t, vec![i, j]), (c, vec![i]), vec![i, j], Format::csr());
        p.mark_output(u);
    } else {
        p.mark_output(t);
    }
    let matrix = |shape: Vec<usize>, data: Vec<f32>| {
        SparseTensor::from_dense(&DenseTensor::from_vec(shape, data), &Format::csr())
    };
    let c = DenseTensor::from_vec(vec![3], vec![10.0, 20.0, 30.0]);
    let inputs = [
        ("A", matrix(vec![3, 3], vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0])),
        ("B", matrix(vec![3, 2], vec![1.0, -2.0, 0.0, 4.0, 5.0, 0.0])),
        ("c", SparseTensor::from_dense(&c, &Format::dense_vec())),
    ];
    (p, inputs.into_iter().map(|(n, t)| (n.to_string(), t)).collect())
}

/// Fused (`H·T` alone, or all three), the producer `H` is intersected with
/// `A`'s `k` before it runs: no phantom zero reaches the union with `c`.
#[test]
fn a_fused_producer_feeds_only_its_consumers_coordinates() {
    let (p, inputs) = relu_product(true);
    let partial = Schedule::regions(vec![0..2, 2..3]);
    for schedule in [Schedule::unfused(), partial, Schedule::full()] {
        compile_run_verify(&p, &schedule, &inputs, &SimConfig::default())
            .unwrap_or_else(|e| panic!("{schedule:?}: {e}"));
    }
}

/// With `T` the output (no union after it), full fusion stores exactly the
/// coordinates unfused stores: a phantom would be an explicit zero that a
/// value comparison alone accepts.
#[test]
fn a_fused_product_stores_no_coordinate_its_operands_lack() {
    let (p, inputs) = relu_product(false);
    let stored = |schedule: &Schedule| {
        let r = compile_run_verify(&p, schedule, &inputs, &SimConfig::default())
            .unwrap_or_else(|e| panic!("{schedule:?}: {e}"));
        let mut coords = Vec::new();
        r.outputs["T"].for_each_stored(|idx, _| coords.push(idx.to_vec()));
        coords
    };
    let unfused = stored(&Schedule::unfused());
    assert_eq!(unfused, [[0, 0], [0, 1], [2, 1]]);
    assert_eq!(stored(&Schedule::full()), unfused);
}

/// The SAE's second layer reads the hidden layer at `W2`'s stored `h` only;
/// these seeds gave phantom zeros that the `+ b2` union made wrong values.
#[test]
fn the_tiny_sae_verifies_fully_fused_on_every_seed() {
    use fuseflow::models::sae;
    for seed in 0..40 {
        let m = sae("tiny", 10, 5, 2, 0.5, seed);
        for fusion in Fusion::ALL {
            compile_run_verify(&m.program, &m.schedule(fusion), &m.inputs, &SimConfig::default())
                .unwrap_or_else(|e| panic!("seed {seed}, {fusion}: {e}"));
        }
    }
}

/// With `A` the identity, fully fused `T = A·relu(B)` runs `relu` once per
/// row of `B`, as unfused does: the producer runs at `A`'s stored `k`, not
/// at every `k` under every `i`.
#[test]
fn a_fused_producer_under_an_identity_does_the_unfused_flops() {
    for n in [8, 16, 32] {
        let mut p = Program::new();
        let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
        let a = p.input("A", vec![n, n], Format::csr());
        let b = p.input("B", vec![n, 4], Format::csr());
        let h = p.map("H", AluOp::Relu, (b, vec![k, j]), Format::csr());
        let ah = vec![(a, vec![i, k]), (h, vec![k, j])];
        let t = p.contract("T", vec![i, j], ah, vec![k], Format::csr());
        p.mark_output(t);
        let identity = DenseTensor::from_fn(vec![n, n], |ix| f32::from(u8::from(ix[0] == ix[1])));
        let inputs: Inputs = [
            ("A".to_string(), SparseTensor::from_dense(&identity, &Format::csr())),
            (
                "B".to_string(),
                SparseTensor::from_dense(&gen::dense_features(n, 4, 7), &Format::csr()),
            ),
        ]
        .into();
        let flops = |schedule: &Schedule| {
            compile_run_verify(&p, schedule, &inputs, &SimConfig::default())
                .unwrap_or_else(|e| panic!("n = {n}, {schedule:?}: {e}"))
                .stats
                .flops
        };
        assert_eq!(flops(&Schedule::full()), flops(&Schedule::unfused()), "n = {n}");
    }
}

/// A 20-node, 8-feature graph of `density` in `pattern`.
fn tiny_graph(density: f64, pattern: gen::GraphPattern) -> GraphDataset {
    GraphDataset { name: "tiny", nodes: 20, feats: 8, density, pattern }
}

/// Fully fused GraphSAGE recomputes its first layer under the second's rows.
/// Both leaves of `S1 = Ts1 + Tn1` (the scans of `X` and `Adj` at the
/// recomputed node) are intersected with the consumer's `Adj` row, so layer
/// 1 runs once per edge, not at every node under every node.
///
/// Layer 1's work is row-local, so node `r`'s row then runs once per stored
/// `Adj[i, r]` (for `T1`) and once more under `i = r` (for `Ts2`'s own copy of
/// `X1`), and layer 2 runs once. Full fusion therefore does at most `1 + d`
/// times the unfused FLOPs, where `d` is `Adj`'s largest column count: 11x on
/// the karate-sized graph and 6x on the tiny one, where it does 3.9x and 2.2x.
/// Recomputing layer 1 at every node under every node does 20x and 9x,
/// above both bounds.
#[test]
fn fully_fused_graphsage_recomputes_layer_one_only_at_the_neighbours() {
    let karate = GraphDataset {
        name: "karate",
        nodes: 34,
        feats: 16,
        density: 0.135,
        pattern: gen::GraphPattern::Uniform,
    };
    for ds in [karate, tiny_graph(0.12, gen::GraphPattern::Uniform)] {
        let m = graphsage(&ds, 8, 4, 1);
        let flops = |fusion| {
            compile_run_verify(&m.program, &m.schedule(fusion), &m.inputs, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{}, {fusion}: {e}", ds.name))
                .stats
                .flops
        };
        let mut in_degree = vec![0; ds.nodes];
        m.inputs["Adj"].for_each_stored(|crd, _| in_degree[crd[1]] += 1);
        let runs_per_row = 1 + in_degree.into_iter().max().unwrap_or(0);
        let (full, unfused) = (flops(Fusion::Full), flops(Fusion::Unfused));
        assert!(
            full <= runs_per_row * unfused,
            "{}: full {full} FLOPs, unfused {unfused}, layer-1 rows run at most {runs_per_row} times",
            ds.name
        );
    }
}

/// Every granularity of a tiny GraphSAGE matches the reference, values and
/// stored coordinates, on 40 seeds of three graphs.
#[test]
fn the_tiny_graphsage_verifies_at_every_granularity_on_every_seed() {
    let graphs = [
        tiny_graph(0.12, gen::GraphPattern::Uniform),
        tiny_graph(0.4, gen::GraphPattern::Uniform),
        tiny_graph(0.1, gen::GraphPattern::PowerLaw),
    ];
    for ds in &graphs {
        for seed in 0..40 {
            let m = graphsage(ds, 6, 4, seed);
            for fusion in Fusion::ALL {
                let (schedule, config) = (m.schedule(fusion), SimConfig::default());
                compile_run_verify(&m.program, &schedule, &m.inputs, &config).unwrap_or_else(|e| {
                    panic!("{:?} {}, seed {seed}, {fusion}: {e}", ds.pattern, ds.density)
                });
            }
        }
    }
}

/// `U = Σ_k A[i,k]·(P + Q)[k,j] + b[j]` with `P = relu(B)`, a sole scan of
/// `B` at `k`, and `Q = C ⊙ D`, which joins two inputs at `k`. Only `P`'s
/// leaf could take `A`'s filter, and the union would then pair `P`'s filtered
/// rows with all of `Q`'s; so neither leaf takes it, and the product's join
/// keeps every `k` of `P + Q`. The product then stores a zero at an `(i, j)`
/// that only a `k` outside `A`'s row reaches (ROADMAP item 1(b)); `+ b[j]`
/// stores every `(i, j)` either way, as GraphSAGE's bias adds do.
#[test]
fn a_union_with_one_filterable_leaf_verifies_fully_fused() {
    let n = 10;
    let mut p = Program::new();
    let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
    let a = p.input("A", vec![n, n], Format::csr());
    let [b, c, d] = ["B", "C", "D"].map(|name| p.input(name, vec![n, 6], Format::csr()));
    let bias = p.input("b", vec![6], Format::dense_vec());
    let relu = p.map("P", AluOp::Relu, (b, vec![k, j]), Format::csr());
    let prod =
        p.binary("Q", AluOp::Mul, (c, vec![k, j]), (d, vec![k, j]), vec![k, j], Format::csr());
    let sum = p.binary(
        "S",
        AluOp::Add,
        (relu, vec![k, j]),
        (prod, vec![k, j]),
        vec![k, j],
        Format::csr(),
    );
    let ak = vec![(a, vec![i, k]), (sum, vec![k, j])];
    let t = p.contract("T", vec![i, j], ak, vec![k], Format::csr());
    let u = p.binary("U", AluOp::Add, (t, vec![i, j]), (bias, vec![j]), vec![i, j], Format::csr());
    p.mark_output(u);
    let mut inputs = Inputs::new();
    let a_in = gen::adjacency(n, 0.2, gen::GraphPattern::Uniform, 5, &Format::csr());
    inputs.insert("A".into(), a_in);
    for (name, seed) in [("B", 6), ("C", 7), ("D", 8)] {
        inputs.insert(name.into(), gen::sparse_features(n, 6, 0.5, seed, &Format::csr()));
    }
    let b_in = gen::dense_features(1, 6, 9).reshape(vec![6]);
    inputs.insert("b".into(), SparseTensor::from_dense(&b_in, &Format::dense_vec()));
    for schedule in [Schedule::unfused(), Schedule::full()] {
        compile_run_verify(&p, &schedule, &inputs, &SimConfig::default())
            .unwrap_or_else(|e| panic!("{schedule:?}: {e}"));
    }
}

/// `T = A ⊙ (P + Q)` with `P = relu(B)` and `Q = relu(D)`, each a sole scan
/// at `k`, and `A` compressed at `k`. The region writes `Q` back, or reads it
/// a second time in `V = Q + C`, so `Q`'s own walk to `A` stops at `Q` and its
/// leaf keeps every row. `P`'s leaf must then not take `A`'s filter either:
/// the union would pair `P`'s filtered rows with all of `Q`'s, and fail with a
/// join stop mismatch.
#[test]
fn a_union_whose_other_side_stops_the_walk_verifies_fully_fused() {
    let n = 10;
    for read_twice in [false, true] {
        let mut p = Program::new();
        let (k, j) = (p.index("k"), p.index("j"));
        let a = p.input("A", vec![n, 6], Format::dcsr());
        let [b, c, d] = ["B", "C", "D"].map(|name| p.input(name, vec![n, 6], Format::csr()));
        let relu_b = p.map("P", AluOp::Relu, (b, vec![k, j]), Format::csr());
        let q = p.map("Q", AluOp::Relu, (d, vec![k, j]), Format::csr());
        if read_twice {
            let v = p.binary(
                "V",
                AluOp::Add,
                (q, vec![k, j]),
                (c, vec![k, j]),
                vec![k, j],
                Format::csr(),
            );
            p.mark_output(v);
        } else {
            p.mark_output(q);
        }
        let sum = p.binary(
            "S",
            AluOp::Add,
            (relu_b, vec![k, j]),
            (q, vec![k, j]),
            vec![k, j],
            Format::csr(),
        );
        let t = p.binary(
            "T",
            AluOp::Mul,
            (a, vec![k, j]),
            (sum, vec![k, j]),
            vec![k, j],
            Format::csr(),
        );
        p.mark_output(t);
        for seed in 0..8 {
            let mut inputs = Inputs::new();
            for (name, density, format) in [
                ("A", 0.3, Format::dcsr()),
                ("B", 0.15, Format::csr()),
                ("C", 0.5, Format::csr()),
                ("D", 0.5, Format::csr()),
            ] {
                let features =
                    gen::sparse_features(n, 6, density, 10 * seed + name.len() as u64, &format);
                inputs.insert(name.into(), features);
            }
            for schedule in [Schedule::unfused(), Schedule::full()] {
                compile_run_verify(&p, &schedule, &inputs, &SimConfig::default()).unwrap_or_else(
                    |e| panic!("read twice {read_twice}, seed {seed}, {schedule:?}: {e}"),
                );
            }
        }
    }
}
