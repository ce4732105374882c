//! Regenerates every table and figure of the FuseFlow evaluation
//! (Section 8). Run `experiments all` or a specific id (`fig12`,
//! `table4`, ...); an unknown id is refused before anything runs (exit 2,
//! listing the valid ones). Results print as aligned text and are written as
//! CSV under `results/` (`results/quick/` with `--quick`).
//!
//! `all` also writes every simulated cycle count as one flat, key-sorted
//! `{"figure/label": cycles}` map ([`snapshot_json`]): the full-size run to
//! `BENCH_sim.json`, the `--quick` run to `results/quick_cycles.json`. The
//! files hold nothing host-dependent, so regenerating one is a no-op unless
//! a cycle moved, and CI gates both with `git diff --exit-code`; a write that
//! fails panics with the path. Seconds are measured by `benchmark/` only, and
//! Event ≡ Sweep is held by `crates/sim/tests/determinism.rs`, not here.
//!
//! `samcheck` (explicit only, one size) is the static-lint gate over the zoo.
//! A figure may also gate its own shape ([`shape_gate`], exit 1): `fig13`
//! wants every kernel strictly slower on the FPGA backend and R² ≥ 0.95.
//!
//! Flags:
//!
//! * `--quick`   tiny instances, one point per sweep — the CI smoke mode.
//! * `--threads N`  worker threads for the sweep pool (default: all cores).
//!
//! Independent simulation points within each sweep run on the shared
//! [`parallel_map`] worker pool; results are collected in point order, so
//! the printed tables, CSVs and snapshots are identical for any thread count.

use fuseflow_bench::{parallel_map, snapshot_json};
use fuseflow_core::estimate;
use fuseflow_core::fuse_region;
use fuseflow_core::pipeline::{compile, compile_at, compile_with, fiber_upper_bound, run};
use fuseflow_core::schedule::Schedule;
use fuseflow_models::{
    gcn, gpt_attention, gpt_attention_blocked, gpt_decoder, graphsage, map_stack, sae, Fusion,
    GraphDataset, ModelInstance, GRAPH_DATASETS, SAE_DATASETS,
};
use fuseflow_sam::MemLocation;
use fuseflow_sim::{SimConfig, Stats, TimingConfig};
use fuseflow_tensor::gen::GraphPattern;
use fuseflow_verify::{verify_graph, VerifyConfig, VerifyOptions};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Sweep-wide options parsed from the command line.
#[derive(Debug, Clone, Copy)]
struct Opts {
    /// Tiny sizes, one point per sweep (CI smoke mode).
    quick: bool,
    /// Worker threads for the sweep pool.
    threads: usize,
}

impl Opts {
    /// Writes one figure's CSV. A `--quick` run keeps out of the full-size
    /// run's files (`results/autotune.csv` is tracked).
    fn save(self, name: &str, content: &str) {
        let dir = if self.quick { "results/quick" } else { "results" };
        write_file(&format!("{dir}/{name}.csv"), content);
    }
}

/// Writes an output file, creating its directory. CI gates the tracked ones
/// with `git diff`, which a write that failed quietly would pass, so any
/// failure panics with the path.
fn write_file(path: &str, content: &str) {
    let dir = std::path::Path::new(path).parent().expect("output paths are relative files");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, content))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// The deterministic per-point cycle counts a figure contributes to the
/// snapshot (label -> simulated cycles).
type Points = Vec<(String, u64)>;

fn sim() -> SimConfig {
    SimConfig::default()
}

fn run_model(m: &ModelInstance, schedule: &Schedule) -> Stats {
    let compiled = compile(&m.program, schedule).unwrap_or_else(|e| panic!("{}: {e}", m.name));
    run(&m.program, &compiled, &m.inputs, &sim())
        .unwrap_or_else(|e| panic!("{}: {e}", m.name))
        .stats
}

fn run_model_on_chip(m: &ModelInstance, schedule: &Schedule) -> Stats {
    let compiled = compile_at(&m.program, schedule, MemLocation::OnChip)
        .unwrap_or_else(|e| panic!("{}: {e}", m.name));
    run(&m.program, &compiled, &m.inputs, &sim())
        .unwrap_or_else(|e| panic!("{}: {e}", m.name))
        .stats
}

/// Fig 1: roofline-model GPU utilization for GCN inference (substitution:
/// analytical RTX-5090-class device; ARCHITECTURE.md "Substitutions").
fn fig1(o: Opts) -> Points {
    println!("\n== Fig 1: GPU SM/DRAM utilization for GCN inference (roofline model) ==");
    let mut csv = String::from("dataset,sm_util_pct,mem_util_pct\n");
    // RTX-5090-class peaks: ~105 TFLOP/s FP32, ~1.8 TB/s DRAM, ~2.6 GHz.
    let (peak_flops, peak_bw) = (105e12, 1.79e12);
    let datasets: Vec<_> =
        GRAPH_DATASETS.iter().take(if o.quick { 1 } else { usize::MAX }).collect();
    for ds in datasets {
        let m = gcn(ds, 32, 16, 42);
        let est = estimate(&m.program, &Schedule::unfused(), &m.inputs);
        // Kernel-launch-bound time: each of the model's kernels needs at
        // least one ~3us launch+sync on small sparse workloads.
        let kernels = m.program.exprs().len() as f64;
        let t = (est.flops / peak_flops + est.bytes / peak_bw).max(kernels * 3e-6);
        let sm = 100.0 * est.flops / (t * peak_flops);
        let mem = 100.0 * est.bytes / (t * peak_bw);
        println!("  {:10} SM {:6.2}%   Mem {:6.3}%", ds.name, sm, mem);
        writeln!(csv, "{},{:.4},{:.4}", ds.name, sm, mem).unwrap();
    }
    o.save("fig1", &csv);
    Vec::new()
}

/// Fig 4b / §8.4: prior-compiler comparison on GCN/collab.
fn fig4b(o: Opts) -> Points {
    println!("\n== Fig 4b: C+S (unfused) vs C+S (rewrite) vs FuseFlow, GCN ==");
    let ds = GraphDataset {
        name: "collab",
        nodes: if o.quick { 32 } else { 96 },
        feats: if o.quick { 8 } else { 24 },
        density: 0.03,
        pattern: GraphPattern::PowerLaw,
    };
    let m = gcn(&ds, 16, 8, 7);
    let configs: Vec<(&str, Schedule)> = vec![
        ("C+S (unfused)", Schedule::unfused()),
        // C+S rewrite: the user hand-composes the two matmuls of each layer
        // into one expression compiled with a global iteration space;
        // non-algebraic ops stay unfused (Fig 4a).
        ("C+S (rewrite)", Schedule::regions(vec![0..2, 4..6]).with_global_iteration()),
        ("FuseFlow", m.schedule(Fusion::Partial)),
    ];
    let cycles =
        parallel_map(o.threads, configs, |(name, sched)| (name, run_model(&m, &sched).cycles));
    let unfused = cycles[0].1;
    let mut csv = String::from("config,cycles,speedup\n");
    let mut points = Points::new();
    for (name, c) in cycles {
        println!("  {:15} {:>12} cycles   speedup {:.2}x", name, c, unfused as f64 / c as f64);
        writeln!(csv, "{},{},{:.3}", name, c, unfused as f64 / c as f64).unwrap();
        points.push((name.to_string(), c));
    }
    o.save("fig4b", &csv);
    points
}

/// Fig 12: fusion granularity sweep across the four model classes.
fn fig12(o: Opts) -> Points {
    println!("\n== Fig 12: fusion effect across models (speedup over unfused) ==");
    let mut models: Vec<(String, String, ModelInstance)> = Vec::new();
    let sae_take = if o.quick { 1 } else { 2 };
    for (name, n_in, batch) in SAE_DATASETS.iter().take(sae_take) {
        let scale = if o.quick { 16 } else { 8 };
        models.push(("sae".into(), (*name).into(), sae(name, *n_in / scale, 48, *batch, 0.5, 11)));
    }
    let graph_take = if o.quick { 1 } else { 3 };
    for ds in GRAPH_DATASETS.iter().take(graph_take) {
        let div = if o.quick { 4 } else { 2 };
        let small = GraphDataset { nodes: ds.nodes / div, feats: ds.feats / div, ..*ds };
        models.push(("gcn".into(), ds.name.into(), gcn(&small, 16, 8, 21)));
        if !o.quick {
            models.push(("graphsage".into(), ds.name.into(), graphsage(&small, 16, 8, 23)));
        }
    }
    let blocks: &[usize] = if o.quick { &[16] } else { &[16, 32, 64] };
    for &block in blocks {
        let seq = if o.quick { 64 } else { 128 };
        models.push((
            "gpt3-bigbird".into(),
            format!("block{block}"),
            gpt_decoder(seq, 16, block, 31),
        ));
    }
    // Each model sweeps its fusion granularities on one pool worker; model
    // sweeps are independent, so they fan out across the pool.
    let rows = parallel_map(o.threads, models, |(model, dsname, m)| {
        let base = run_model(&m, &m.schedule(Fusion::Unfused)).cycles;
        let per: Vec<(Fusion, u64)> =
            Fusion::ALL.iter().map(|&f| (f, run_model(&m, &m.schedule(f)).cycles)).collect();
        (model, dsname, base, per)
    });
    let mut csv = String::from("model,dataset,fusion,cycles,speedup\n");
    let mut points = Points::new();
    for (model, dsname, base, per) in rows {
        for (f, c) in per {
            println!(
                "  {model:10} {dsname:10} {f:8} {:>12} cycles  {:.2}x",
                c,
                base as f64 / c as f64
            );
            writeln!(csv, "{model},{dsname},{f},{c},{:.3}", base as f64 / c as f64).unwrap();
            points.push((format!("{model}/{dsname}/{f}"), c));
        }
    }
    o.save("fig12", &csv);
    points
}

/// Fig 13: Comal vs FPGA-RTL backend latency correlation (R^2).
fn fig13(o: Opts) -> Points {
    println!("\n== Fig 13: Comal vs FPGA-RTL backend trend agreement ==");
    let ds = GraphDataset {
        name: "karate",
        nodes: 34,
        feats: 16,
        density: 0.14,
        pattern: GraphPattern::Uniform,
    };
    let mut kernels: Vec<(String, ModelInstance)> =
        vec![("gcn".into(), gcn(&ds, 8, 4, 3)), ("graphsage".into(), graphsage(&ds, 8, 4, 5))];
    if !o.quick {
        kernels.push(("gpt3".into(), gpt_attention(32, 8, 8, 7)));
    }
    let per_kernel = parallel_map(o.threads, kernels, |(name, m)| {
        // Per-kernel latency (unfused singleton regions) on both backends,
        // tensors pinned on-chip like the paper's BRAM-resident kernels.
        let compiled = compile_at(&m.program, &Schedule::unfused(), MemLocation::OnChip).unwrap();
        let comal = run(&m.program, &compiled, &m.inputs, &sim()).unwrap();
        let fpga_cfg = SimConfig { timing: TimingConfig::fpga_rtl(), ..sim() };
        let fpga = run(&m.program, &compiled, &m.inputs, &fpga_cfg).unwrap();
        comal
            .per_region
            .iter()
            .zip(&fpga.per_region)
            .enumerate()
            .map(|(i, (c, f))| (c.cycles as f64, f.cycles as f64, format!("{name}/k{i}")))
            .collect::<Vec<_>>()
    });
    let pairs: Vec<(f64, f64, String)> = per_kernel.into_iter().flatten().collect();
    // R^2 of log-latencies across kernels.
    let xs: Vec<f64> = pairs.iter().map(|p| p.0.ln()).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1.ln()).collect();
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let (vx, vy): (f64, f64) =
        (xs.iter().map(|x| (x - mx).powi(2)).sum(), ys.iter().map(|y| (y - my).powi(2)).sum());
    let r2 = (cov * cov) / (vx * vy);
    println!("  {} kernels, R^2 = {:.3}", pairs.len(), r2);
    let mut csv = String::from("kernel,comal_cycles,fpga_cycles\n");
    let mut points = Points::new();
    for (c, f, k) in &pairs {
        writeln!(csv, "{k},{c},{f}").unwrap();
        points.push((format!("{k}/comal"), *c as u64));
        points.push((format!("{k}/fpga"), *f as u64));
    }
    writeln!(csv, "r2,{r2:.4},").unwrap();
    o.save("fig13", &csv);
    shape_gate("fig13", &fig13_shape(&pairs, r2));
    points
}

/// What is broken of Fig 13's shape: every kernel is strictly slower on the
/// FPGA backend than on Comal (its `ii_extra` and slower tile ALU must cost
/// something, or the two backends have merged), and the two agree in trend.
fn fig13_shape(pairs: &[(f64, f64, String)], r2: f64) -> Vec<String> {
    let mut broken: Vec<String> = pairs
        .iter()
        .filter(|(comal, fpga, _)| fpga <= comal)
        .map(|(comal, fpga, k)| format!("{k}: fpga {fpga} cycles is not above comal {comal}"))
        .collect();
    if r2.is_nan() || r2 < 0.95 {
        broken.push(format!("R^2 = {r2:.3} is below 0.95"));
    }
    broken
}

/// The figure-shape gate: a figure whose qualitative claim no longer holds
/// ends the run (exit 1) before a snapshot is written, so that committing
/// regenerated numbers cannot enshrine it.
fn shape_gate(figure: &str, broken: &[String]) {
    if broken.is_empty() {
        return;
    }
    for b in broken {
        eprintln!("{figure}: shape gate: {b}");
    }
    std::process::exit(1);
}

/// Fig 14: GCN FLOPs / bytes normalized to unfused + operational intensity.
fn fig14(o: Opts) -> Points {
    println!("\n== Fig 14: GCN FLOPs & DRAM bytes normalized to unfused ==");
    let take = if o.quick { 1 } else { 3 };
    let datasets: Vec<GraphDataset> = GRAPH_DATASETS
        .iter()
        .take(take)
        .map(|ds| {
            let div = if o.quick { 4 } else { 2 };
            GraphDataset { nodes: ds.nodes / div, feats: ds.feats / div, ..*ds }
        })
        .collect();
    let rows = parallel_map(o.threads, datasets, |ds| {
        let m = gcn(&ds, 16, 8, 77);
        let base = run_model(&m, &m.schedule(Fusion::Unfused));
        let per: Vec<(Fusion, Stats)> =
            Fusion::ALL.iter().map(|&f| (f, run_model(&m, &m.schedule(f)))).collect();
        (ds.name, base, per)
    });
    let mut csv = String::from("dataset,fusion,flops_rel,bytes_rel,op_intensity\n");
    let mut points = Points::new();
    for (name, base, per) in rows {
        for (f, s) in per {
            points.push((format!("{name}/{f}"), s.cycles));
            let fr = s.flops as f64 / base.flops as f64;
            let br = s.dram_bytes() as f64 / base.dram_bytes() as f64;
            println!(
                "  {:8} {:8} flops x{:.2}  bytes x{:.2}  OI {:.3}",
                name,
                f,
                fr,
                br,
                s.operational_intensity()
            );
            writeln!(csv, "{},{},{:.4},{:.4},{:.4}", name, f, fr, br, s.operational_intensity())
                .unwrap();
        }
    }
    o.save("fig14", &csv);
    points
}

/// Fig 15: sparsity ablation on synthetic graphs.
fn fig15(o: Opts) -> Points {
    println!("\n== Fig 15: speedup vs sparsity (synthetic 2-layer GCN) ==");
    let patterns: &[GraphPattern] = if o.quick {
        &[GraphPattern::Uniform]
    } else {
        &[GraphPattern::Uniform, GraphPattern::PowerLaw, GraphPattern::BlockDiagonal]
    };
    let sparsities: &[f64] = if o.quick { &[0.9] } else { &[0.5, 0.7, 0.8, 0.9, 0.95] };
    let mut points = Vec::new();
    for &pattern in patterns {
        for &sparsity in sparsities {
            points.push((pattern, sparsity));
        }
    }
    let rows = parallel_map(o.threads, points, |(pattern, sparsity)| {
        let ds = GraphDataset {
            name: "synthetic",
            nodes: if o.quick { 40 } else { 100 },
            feats: if o.quick { 12 } else { 24 },
            density: 1.0 - sparsity,
            pattern,
        };
        let m = gcn(&ds, 16, 8, 55);
        let base = run_model(&m, &m.schedule(Fusion::Unfused)).cycles;
        let part_c = run_model(&m, &m.schedule(Fusion::Partial)).cycles;
        let full_c = run_model(&m, &m.schedule(Fusion::Full)).cycles;
        (pattern, sparsity, base, part_c, full_c)
    });
    let mut csv = String::from("pattern,sparsity,partial_speedup,full_speedup\n");
    let mut points = Points::new();
    for (pattern, sparsity, base, part_c, full_c) in rows {
        let (part, full) = (base as f64 / part_c as f64, base as f64 / full_c as f64);
        println!("  {pattern:10} sparsity {sparsity:.2}: partial {part:.2}x  full {full:.2}x");
        writeln!(csv, "{pattern},{sparsity},{part:.3},{full:.3}").unwrap();
        points.push((format!("{pattern}/{sparsity}/unfused"), base));
        points.push((format!("{pattern}/{sparsity}/partial"), part_c));
        points.push((format!("{pattern}/{sparsity}/full"), full_c));
    }
    o.save("fig15", &csv);
    points
}

/// Fig 16: parallelization factor and location sweeps on BigBird attention.
fn fig16(o: Opts) -> Points {
    println!("\n== Fig 16a: parallelization factor sweep (BigBird attention) ==");
    // The blocked pipeline parallelizes end to end (no deferred softmax
    // references crossing the split); the scalar pipeline's softmax region
    // falls back to serial lowering under a split.
    let m = if o.quick {
        gpt_attention_blocked(128, 16, 8, 91)
    } else {
        gpt_attention_blocked(1024, 64, 16, 91)
    };
    let i_var = m.program.exprs()[0].output.indices[0];
    let factors: &[usize] = if o.quick { &[1, 2] } else { &[1, 2, 4, 8, 16, 32, 64] };
    let cycles = parallel_map(o.threads, factors.to_vec(), |factor| {
        let sched = m.schedule(Fusion::Partial).with_parallelization(i_var, factor);
        (factor, run_model_on_chip(&m, &sched).cycles)
    });
    let base = run_model_on_chip(&m, &m.schedule(Fusion::Partial)).cycles;
    let mut csv = String::from("factor,cycles,speedup\n");
    let mut points = Points::new();
    for (factor, c) in cycles {
        println!("  factor {factor:>2}: {c:>12} cycles  {:.2}x", base as f64 / c as f64);
        writeln!(csv, "{factor},{c},{:.3}", base as f64 / c as f64).unwrap();
        points.push((format!("a/factor{factor}"), c));
    }
    o.save("fig16a", &csv);

    println!("\n== Fig 16b: parallelization location sweep ==");
    // Level 1 = attention row i (legal in every kernel); level 2 = score
    // column j (legal only where it is a free non-innermost row — other
    // kernels fall back to serial lowering, so location matters).
    let j_var = m.program.exprs()[0].output.indices[1];
    let base_unf = run_model_on_chip(&m, &m.schedule(Fusion::Unfused)).cycles;
    let locations: Vec<(&str, Vec<_>)> = if o.quick {
        vec![("level1", vec![i_var])]
    } else {
        vec![("level1", vec![i_var]), ("level2", vec![j_var]), ("both", vec![i_var, j_var])]
    };
    let loc_factors: &[usize] = if o.quick { &[2] } else { &[1, 2, 4] };
    let mut jobs = Vec::new();
    for (loc, vars) in &locations {
        for &factor in loc_factors {
            jobs.push((*loc, vars.clone(), factor));
        }
    }
    let rows = parallel_map(o.threads, jobs, |(loc, vars, factor)| {
        let mut sched = m.schedule(Fusion::Unfused);
        for v in &vars {
            sched = sched.with_parallelization(*v, factor);
        }
        (loc, factor, run_model_on_chip(&m, &sched).cycles)
    });
    let mut csv = String::from("location,factor,cycles,speedup\n");
    for (loc, factor, c) in rows {
        println!("  {loc:6} factor {factor}: {c:>12} cycles ({:.2}x)", base_unf as f64 / c as f64);
        writeln!(csv, "{loc},{factor},{c},{:.3}", base_unf as f64 / c as f64).unwrap();
        points.push((format!("b/{loc}/x{factor}"), c));
    }
    o.save("fig16b", &csv);
    points
}

/// Fig 17: block-sparse vs unstructured BigBird attention.
fn fig17(o: Opts) -> Points {
    println!("\n== Fig 17: blocked vs unstructured BigBird attention ==");
    let blocks: &[usize] = if o.quick { &[16] } else { &[16, 32, 64] };
    let rows = parallel_map(o.threads, blocks.to_vec(), |block| {
        let seq = if o.quick { 64 } else { 128 };
        let dh = if o.quick { 16 } else { 64 };
        let un = gpt_attention(seq, dh, block, 13);
        // Unstructured arm: same mask, scalar streams, no softmax tail to
        // mirror the blocked pipeline's op set.
        let bl = gpt_attention_blocked(seq, dh, block, 13);
        let cu = run_model(&un, &un.schedule(Fusion::Full)).cycles;
        let cb = run_model(&bl, &bl.schedule(Fusion::Full)).cycles;
        (block, cu, cb)
    });
    let mut csv = String::from("block,unstructured_cycles,blocked_cycles,speedup\n");
    let mut points = Points::new();
    for (block, cu, cb) in rows {
        println!(
            "  block {block:>2}: unstructured {cu:>12}  blocked {cb:>10}  {:.1}x",
            cu as f64 / cb as f64
        );
        writeln!(csv, "{block},{cu},{cb},{:.3}", cu as f64 / cb as f64).unwrap();
        points.push((format!("block{block}/unstructured"), cu));
        points.push((format!("block{block}/blocked"), cb));
    }
    o.save("fig17", &csv);
    points
}

/// Fig 18: dataflow order sweep for a chained matmul via user dataflow
/// schedules; discordant orders materialize permuted input copies through
/// the POG cycle-resolution path.
fn fig18(o: Opts) -> Points {
    println!("\n== Fig 18: dataflow order sweep, nested matmul ==");
    use fuseflow_core::ir::{IndexVar, Program};
    use fuseflow_tensor::{gen, Format, SparseTensor};
    let n = if o.quick { 16 } else { 34 }; // KarateClub scale
    let feats = if o.quick { 8 } else { 16 };
    let build = |o1: &[usize], o2: &[usize]| -> (Program, String) {
        let mut p = Program::new();
        let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
        let a = p.input("A", vec![n, n], Format::csr());
        let x = p.input("X", vec![n, feats], Format::csr());
        let w = p.input("W", vec![feats, 8], Format::dense(2));
        let v1 = [i, k, u];
        let v2 = [i, u, j];
        let t0 = p.contract(
            "T0",
            vec![i, u],
            vec![(a, vec![i, k]), (x, vec![k, u])],
            vec![k],
            Format::csr(),
        );
        let d1: Vec<IndexVar> = o1.iter().map(|&d| v1[d]).collect();
        p.set_dataflow(d1.clone());
        let t1 = p.contract(
            "T1",
            vec![i, j],
            vec![(t0, vec![i, u]), (w, vec![u, j])],
            vec![u],
            Format::csr(),
        );
        let d2: Vec<IndexVar> = o2.iter().map(|&d| v2[d]).collect();
        p.set_dataflow(d2.clone());
        p.mark_output(t1);
        let name = |v: &[IndexVar]| {
            v.iter().map(|x| p.index_name(*x).to_string()).collect::<Vec<_>>().join("")
        };
        let label = format!("{}|{}", name(&d1), name(&d2));
        (p, label)
    };
    let mut inputs = HashMap::new();
    inputs
        .insert("A".to_string(), gen::adjacency(n, 0.13, GraphPattern::Uniform, 3, &Format::csr()));
    inputs.insert("X".to_string(), gen::sparse_features(n, feats, 0.4, 4, &Format::csr()));
    inputs.insert(
        "W".to_string(),
        SparseTensor::from_dense(
            &fuseflow_tensor::gen::dense_features(feats, 8, 5),
            &Format::dense(2),
        ),
    );
    let perms3: Vec<[usize; 3]> =
        vec![[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let cap = if o.quick { 3 } else { 12 };
    let mut order_pairs = Vec::new();
    for o1 in &perms3 {
        for o2 in &perms3 {
            order_pairs.push((*o1, *o2));
        }
    }
    // Order pairs simulate independently, but only the first `cap` unique
    // results (in pair order) are reported — so pairs are fanned out one
    // pool-sized chunk at a time with an early exit, instead of simulating
    // all 36 pairs to print 3 rows in --quick mode. Chunking in pair order
    // keeps the output thread-count invariant.
    let mut results: Vec<(String, u64)> = Vec::new();
    let mut order_pairs = order_pairs.into_iter();
    while results.len() < cap {
        let chunk: Vec<_> = order_pairs.by_ref().take(o.threads.max(cap)).collect();
        if chunk.is_empty() {
            break;
        }
        let sweep = parallel_map(o.threads, chunk, |(o1, o2)| {
            let (p, label) = build(&o1, &o2);
            let Ok(compiled) = compile(&p, &Schedule::unfused()) else { return None };
            let Ok(res) = run(&p, &compiled, &inputs, &sim()) else { return None };
            Some((label, res.stats.cycles))
        });
        for (label, cycles) in sweep.into_iter().flatten() {
            if results.len() >= cap {
                break;
            }
            if results.iter().any(|(l, _)| *l == label) {
                continue;
            }
            results.push((label, cycles));
        }
    }
    let worst = results.iter().map(|r| r.1).max().unwrap_or(1);
    let mut csv = String::from("order,cycles,speedup_vs_worst\n");
    let mut points = Points::new();
    for (name, c) in &results {
        println!("  {name:16} {c:>12} cycles  {:.2}x", worst as f64 / *c as f64);
        writeln!(csv, "{name},{c},{:.3}", worst as f64 / *c as f64).unwrap();
        points.push((name.clone(), *c));
    }
    o.save("fig18", &csv);
    points
}

/// Table 3: heuristic FLOPs/bytes error against the simulator.
fn table3(o: Opts) -> Points {
    println!("\n== Table 3: heuristic avg % error (FLOPs / bytes) ==");
    let ds = GraphDataset {
        name: "collab",
        nodes: if o.quick { 32 } else { 96 },
        feats: if o.quick { 8 } else { 24 },
        density: 0.03,
        pattern: GraphPattern::PowerLaw,
    };
    let mut models: Vec<(&str, ModelInstance)> = vec![
        ("gpt3-b16", if o.quick { gpt_decoder(32, 8, 8, 1) } else { gpt_decoder(64, 16, 16, 1) }),
        ("gcn", gcn(&ds, 16, 8, 2)),
    ];
    if !o.quick {
        models.push(("graphsage", graphsage(&ds, 16, 8, 3)));
    }
    let rows = parallel_map(o.threads, models, |(name, m)| {
        let mut fe = 0.0;
        let mut be = 0.0;
        let mut cnt = 0.0;
        for f in [Fusion::Unfused, Fusion::Partial] {
            let sched = m.schedule(f);
            let meas = run_model(&m, &sched);
            let est = estimate(&m.program, &sched, &m.inputs);
            fe += (est.flops - meas.flops as f64).abs() / meas.flops as f64 * 100.0;
            be += (est.bytes - meas.dram_bytes() as f64).abs() / meas.dram_bytes() as f64 * 100.0;
            cnt += 1.0;
        }
        (name, fe / cnt, be / cnt)
    });
    let mut csv = String::from("model,flops_err_pct,bytes_err_pct\n");
    for (name, fe, be) in rows {
        println!("  {:10} FLOPs {:5.1}%   bytes {:5.1}%", name, fe, be);
        writeln!(csv, "{},{:.2},{:.2}", name, fe, be).unwrap();
    }
    o.save("table3", &csv);
    Vec::new()
}

/// Table 4: design-space size with and without local (per-kernel best
/// dataflow order) constraints, plus the POG linear-extension counts for
/// the first fused region (exact via the frontier DP in
/// `Pog::count_orders`, `*` marks capped entries like the paper).
fn table4(o: Opts) -> Points {
    println!("\n== Table 4: dataflow-order design-space size ==");
    let cap: u128 = 200_000_000;
    let mut csv =
        String::from("model,unconstrained,capped,constrained,pog_formats_only,pog_full\n");
    let ds = GraphDataset {
        name: "collab",
        nodes: if o.quick { 24 } else { 64 },
        feats: if o.quick { 8 } else { 16 },
        density: 0.04,
        pattern: GraphPattern::PowerLaw,
    };
    let fact = |n: usize| -> u128 { (1..=n as u128).product() };
    for (name, m) in [("gcn", gcn(&ds, 8, 4, 1)), ("graphsage", graphsage(&ds, 8, 4, 2))] {
        let mut un: u128 = 1;
        let mut con: u128 = 1;
        let mut capped = false;
        for e in m.program.exprs() {
            let n = e.index_set().len();
            un = un.saturating_mul(fact(n));
            if un > cap {
                un = cap;
                capped = true;
            }
            // Local constraint: contraction kernels pinned to their best
            // order (Section 8.8); elementwise kernels keep their freedom.
            if e.reduce.is_empty() {
                con = con.saturating_mul(fact(n)).min(cap);
            }
        }
        // POG-level counts for the leading fused region: mode orders alone
        // vs mode orders + user dataflow constraints.
        let region_len = m.program.exprs().len().min(2);
        let (pog_fmt, pog_full) = match fuse_region(&m.program, 0..region_len) {
            Ok(region) => {
                let fmt = region.pog_formats_only.count_orders(cap);
                let full = region.pog.count_orders(cap);
                (
                    format!("{}{}", fmt.0, if fmt.1 { "*" } else { "" }),
                    format!("{}{}", full.0, if full.1 { "*" } else { "" }),
                )
            }
            Err(_) => ("-".into(), "-".into()),
        };
        println!(
            "  {:10} unconstrained {}{}   constrained {}   pog {} -> {}",
            name,
            un,
            if capped { "*" } else { "" },
            con,
            pog_fmt,
            pog_full
        );
        writeln!(csv, "{name},{un},{capped},{con},{pog_fmt},{pog_full}").unwrap();
    }
    o.save("table4", &csv);
    Vec::new()
}

/// Autotune candidates: a small schedule-space enumeration on the fig4b
/// GCN (fusion regions x stream parallelization), scored analytically
/// (`estimate`) and by simulation. Regenerates `results/autotune.csv` with
/// every `cycles` cell filled (or explicitly marked `-` when a candidate
/// fails to compile).
fn autotune(o: Opts) -> Points {
    println!("\n== Autotune: schedule candidates, heuristic vs simulated ==");
    let ds = GraphDataset {
        name: "collab",
        nodes: if o.quick { 32 } else { 96 },
        feats: if o.quick { 8 } else { 24 },
        density: 0.03,
        pattern: GraphPattern::PowerLaw,
    };
    let m = gcn(&ds, 16, 8, 7);
    let n = m.program.exprs().len();
    let i0 = m.program.exprs()[0].output.indices[0];
    let split = (n / 2).max(1);
    let candidates: Vec<(String, Schedule)> = vec![
        ("unfused/factored".into(), Schedule::unfused()),
        ("unfused/factored/par{i0x2}".into(), Schedule::unfused().with_parallelization(i0, 2)),
        (
            format!("regions[0..{split},{split}..{n}]/factored"),
            Schedule::regions(vec![0..split, split..n]),
        ),
        (
            format!("regions[0..{split},{split}..{n}]/factored/par{{i0x2}}"),
            Schedule::regions(vec![0..split, split..n]).with_parallelization(i0, 2),
        ),
        (format!("regions[0..{n}]/factored"), Schedule::regions(vec![0..n])),
        (
            format!("regions[0..{n}]/factored/par{{i0x2}}"),
            Schedule::regions(vec![0..n]).with_parallelization(i0, 2),
        ),
    ];
    let mut rows = parallel_map(
        o.threads,
        candidates.into_iter().enumerate().collect(),
        |(idx, (label, sched))| {
            let est = estimate(&m.program, &sched, &m.inputs);
            let cycles = compile(&m.program, &sched)
                .ok()
                .and_then(|c| run(&m.program, &c, &m.inputs, &sim()).ok())
                .map(|r| r.stats.cycles);
            (idx, label, est.flops, est.bytes, cycles)
        },
    );
    // Best-first like an autotuner's report; failed candidates sink.
    rows.sort_by_key(|r| (r.4.is_none(), r.4, r.0));
    let mut csv = String::from("index,schedule,est_flops,est_bytes,cycles\n");
    let mut points = Points::new();
    for (idx, label, flops, bytes, cycles) in rows {
        let cell = cycles.map_or("-".to_string(), |c| c.to_string());
        println!(
            "  [{idx}] {label:44} est_flops {flops:>10.0} est_bytes {bytes:>10.0} cycles {cell}"
        );
        writeln!(csv, "{idx},{label},{flops:.0},{bytes:.0},{cell}").unwrap();
        if let Some(c) = cycles {
            points.push((label, c));
        }
    }
    o.save("autotune", &csv);
    points
}

/// `samcheck`: lints every model-zoo graph with the `fuseflow-verify`
/// static analyzer, at every fusion granularity, and writes the combined
/// report to `results/samcheck.json` plus the per-graph verdict counts to
/// the tracked snapshot `results/samcheck_quick.json` (same writer as the
/// cycle snapshots; CI gates it with `git diff`, so verdicts are gated like
/// cycles). Returns the number of error-severity diagnostics.
///
/// Unlike the figure experiments this is a pass/fail gate, not a
/// measurement: it is excluded from `all`, contributes nothing to the cycle
/// snapshot, and the process exits nonzero when any error-severity
/// diagnostic fires. CI runs it as its own step.
fn samcheck(o: Opts) -> usize {
    println!("\n== samcheck: static lints over the model zoo ==");
    let ds = GRAPH_DATASETS[0];
    let small = GraphDataset { nodes: ds.nodes / 4, feats: ds.feats / 4, ..ds };
    let (sae_name, sae_in, sae_batch) = SAE_DATASETS[0];
    let models: Vec<(String, ModelInstance)> = vec![
        (format!("sae/{sae_name}"), sae(sae_name, sae_in / 16, 48, sae_batch, 0.5, 11)),
        (format!("gcn/{}", ds.name), gcn(&small, 16, 8, 21)),
        (format!("graphsage/{}", ds.name), graphsage(&small, 16, 8, 23)),
        ("gpt_attention".into(), gpt_attention(32, 8, 8, 7)),
        ("gpt_attention_blocked".into(), gpt_attention_blocked(128, 16, 8, 91)),
        ("gpt_decoder".into(), gpt_decoder(32, 8, 8, 1)),
        ("map_stack".into(), map_stack(48, 24, 0.5, 9)),
    ];
    let mut graphs = 0usize;
    let mut errors = 0usize;
    let mut json = String::from("[");
    let mut counts = Points::new();
    let rows = parallel_map(o.threads, models, |(name, m)| {
        let mut out = Vec::new();
        for fusion in Fusion::ALL {
            let schedule = m.schedule(fusion);
            // Compile with enforcement off: samcheck reports every
            // diagnostic itself instead of aborting at the first denial.
            let compiled =
                compile_with(&m.program, &schedule, MemLocation::Dram, &VerifyConfig::disabled())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            let opts = VerifyOptions {
                channel_capacity: sim().channel_capacity,
                fiber_hi: fiber_upper_bound(&m.program),
                ..Default::default()
            };
            let reports: Vec<_> = compiled
                .lowered
                .into_iter()
                .map(|l| (verify_graph(&l.graph, &opts), l.graph))
                .collect();
            out.push((name.clone(), fusion, reports));
        }
        out
    });
    for per_model in rows {
        for (name, fusion, reports) in per_model {
            let mut errs = 0;
            let mut warns = 0;
            let mut certified = 0;
            let mut unknown = 0;
            let mut flagged = 0;
            for (i, (report, graph)) in reports.iter().enumerate() {
                errs += report.errors().count();
                warns += report.warnings().count();
                certified += report.regions.certified;
                unknown += report.regions.unknown;
                flagged += report.regions.flagged;
                if !report.is_clean() {
                    print!("{}", report.render_human(graph));
                }
                if json.len() > 1 {
                    json.push(',');
                }
                let _ = write!(
                    json,
                    "{{\"model\":\"{name}\",\"fusion\":\"{fusion}\",\"region\":{i},\"report\":{}}}",
                    report.to_json(graph)
                );
                let key = format!("samcheck/{name}/{fusion}/r{i}");
                for (what, n) in [
                    ("errors", report.errors().count()),
                    ("warnings", report.warnings().count()),
                    ("certified", report.regions.certified),
                    ("unknown", report.regions.unknown),
                    ("flagged", report.regions.flagged),
                ] {
                    counts.push((format!("{key}/{what}"), n as u64));
                }
            }
            println!(
                "samcheck {name:<28} {fusion:<8} regions {:<2} errors {errs} warnings {warns} \
                 (deadlock-free: {certified} certified, {unknown} unknown, {flagged} flagged)",
                reports.len(),
            );
            graphs += 1;
            errors += errs;
        }
    }
    json.push(']');
    write_file("results/samcheck.json", &json);
    write_file("results/samcheck_quick.json", &snapshot_json(counts));
    if errors == 0 {
        println!("samcheck: model zoo clean ({graphs} graphs linted)");
    } else {
        println!("samcheck: {errors} error-severity diagnostic(s)");
    }
    errors
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut opts = Opts {
        quick: false,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--threads" => {
                let v = it.next().expect("--threads takes a value");
                opts.threads = v.parse().expect("--threads takes a positive integer");
            }
            _ => which.push(a),
        }
    }
    if which.is_empty() {
        which.push("all".into());
    }
    type Figure = fn(Opts) -> Points;
    let figures: [(&str, Figure); 12] = [
        ("fig1", fig1),
        ("fig4b", fig4b),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig16", fig16),
        ("fig17", fig17),
        ("fig18", fig18),
        ("table3", table3),
        ("table4", table4),
        ("autotune", autotune),
    ];
    let known = |w: &str| w == "all" || w == "samcheck" || figures.iter().any(|(id, _)| *id == w);
    if let Some(bad) = which.iter().find(|w| !known(w)) {
        let ids: Vec<&str> = figures.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown experiment '{bad}'; valid ids: {}, all, samcheck", ids.join(", "));
        std::process::exit(2);
    }
    let all = which.iter().any(|w| w == "all");
    let want = |id: &str| all || which.iter().any(|w| w == id);
    let t0 = Instant::now();
    let mut cycles = Points::new();
    for (id, figure) in figures {
        if want(id) {
            cycles.extend(figure(opts).into_iter().map(|(label, c)| (format!("{id}/{label}"), c)));
        }
    }
    // Explicit-only (not part of `all`): a lint gate, not a figure.
    let samcheck_errors = if which.iter().any(|w| w == "samcheck") { samcheck(opts) } else { 0 };
    // Only an `all` run refreshes a tracked snapshot: a filtered subset
    // would clobber it with a partial point set.
    let snapshot_note = if all {
        let path = if opts.quick { "results/quick_cycles.json" } else { "BENCH_sim.json" };
        write_file(path, &snapshot_json(cycles));
        format!(", {path} rewritten")
    } else {
        " (subset run: no snapshot written)".to_string()
    };
    println!(
        "\nDone in {:.1}s ({} pool threads{}); CSVs in results/{}{snapshot_note}.",
        t0.elapsed().as_secs_f64(),
        opts.threads,
        if opts.quick { ", --quick" } else { "" },
        if opts.quick { "quick/" } else { "" },
    );
    if samcheck_errors > 0 {
        eprintln!("samcheck: failing with {samcheck_errors} error-severity diagnostic(s)");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::fig13_shape;

    #[test]
    fn fig13_shape_wants_fpga_strictly_slower_and_trend_agreement() {
        let pairs = |p: &[(f64, f64)]| -> Vec<(f64, f64, String)> {
            p.iter().enumerate().map(|(i, &(c, f))| (c, f, format!("k{i}"))).collect()
        };
        assert!(fig13_shape(&pairs(&[(384.0, 419.0), (2442.0, 3604.0)]), 0.95).is_empty());
        // Equal is merged, not slower.
        let merged = fig13_shape(&pairs(&[(384.0, 384.0), (2442.0, 3604.0)]), 0.99);
        assert_eq!(merged.len(), 1, "{merged:?}");
        assert!(merged[0].starts_with("k0:"), "{merged:?}");
        assert_eq!(fig13_shape(&pairs(&[(1.0, 2.0)]), 0.949).len(), 1);
        assert_eq!(fig13_shape(&pairs(&[(1.0, 2.0)]), f64::NAN).len(), 1);
    }
}
