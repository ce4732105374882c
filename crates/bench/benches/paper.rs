//! Criterion benches, one group per reproduced table/figure, on
//! deliberately small instances (the `experiments` binary runs the full
//! sweeps and writes the CSVs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fuseflow_bench::parallel_map;
use fuseflow_core::pipeline::{compile, compile_at, run};
use fuseflow_core::schedule::Schedule;
use fuseflow_core::{estimate, fuse_region};
use fuseflow_models::{
    gcn, gpt_attention, gpt_attention_blocked, graphsage, map_stack, sae, Fusion, GraphDataset,
};
use fuseflow_sim::{Scheduler, SimConfig, TimingConfig};
use fuseflow_tensor::gen::GraphPattern;

fn tiny_graph() -> GraphDataset {
    GraphDataset {
        name: "bench",
        nodes: 48,
        feats: 16,
        density: 0.08,
        pattern: GraphPattern::PowerLaw,
    }
}

fn sim() -> SimConfig {
    SimConfig::default()
}

/// Fig 12: fusion-granularity sweep (GCN representative).
fn fig12_fusion(c: &mut Criterion) {
    let m = gcn(&tiny_graph(), 8, 4, 1);
    let mut g = c.benchmark_group("fig12_fusion");
    for f in Fusion::ALL {
        let sched = m.schedule(f);
        g.bench_with_input(BenchmarkId::from_parameter(f), &sched, |b, sched| {
            b.iter(|| {
                let compiled = compile(&m.program, sched).unwrap();
                run(&m.program, &compiled, &m.inputs, &sim()).unwrap().stats.cycles
            })
        });
    }
    g.finish();
}

/// Fig 4b: prior-compiler comparison (factored vs global iteration).
fn fig4b_prior_compilers(c: &mut Criterion) {
    let m = gcn(&tiny_graph(), 8, 4, 2);
    let mut g = c.benchmark_group("fig4b_prior_compilers");
    let configs = [
        ("cs_unfused", Schedule::unfused()),
        ("cs_rewrite", Schedule::regions(vec![0..2, 4..6]).with_global_iteration()),
        ("fuseflow", m.schedule(Fusion::Partial)),
    ];
    for (name, sched) in configs {
        g.bench_function(name, |b| {
            b.iter(|| {
                let compiled = compile(&m.program, &sched).unwrap();
                run(&m.program, &compiled, &m.inputs, &sim()).unwrap().stats.cycles
            })
        });
    }
    g.finish();
}

/// Fig 13: both timing backends over the same graphs.
fn fig13_validation(c: &mut Criterion) {
    let m = graphsage(&tiny_graph(), 8, 4, 3);
    let compiled = compile(&m.program, &Schedule::unfused()).unwrap();
    let mut g = c.benchmark_group("fig13_validation");
    for timing in [TimingConfig::comal(), TimingConfig::fpga_rtl()] {
        let cfg = SimConfig { timing: timing.clone(), ..sim() };
        g.bench_function(timing.name, |b| {
            b.iter(|| run(&m.program, &compiled, &m.inputs, &cfg).unwrap().stats.cycles)
        });
    }
    g.finish();
}

/// Fig 15: sparsity ablation (two densities).
fn fig15_sparsity(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig15_sparsity");
    for sparsity in [50u32, 90] {
        let ds = GraphDataset {
            name: "syn",
            nodes: 48,
            feats: 16,
            density: 1.0 - sparsity as f64 / 100.0,
            pattern: GraphPattern::Uniform,
        };
        let m = gcn(&ds, 8, 4, 4);
        let sched = m.schedule(Fusion::Partial);
        g.bench_with_input(BenchmarkId::from_parameter(sparsity), &sched, |b, sched| {
            b.iter(|| {
                let compiled = compile(&m.program, sched).unwrap();
                run(&m.program, &compiled, &m.inputs, &sim()).unwrap().stats.cycles
            })
        });
    }
    g.finish();
}

/// Fig 16: parallelization factors.
fn fig16_parallel(c: &mut Criterion) {
    let m = gpt_attention(48, 8, 8, 5);
    let i_var = m.program.exprs()[0].output.indices[0];
    let mut g = c.benchmark_group("fig16_parallel");
    for factor in [1usize, 4] {
        let sched = m.schedule(Fusion::Partial).with_parallelization(i_var, factor);
        g.bench_with_input(BenchmarkId::from_parameter(factor), &sched, |b, sched| {
            b.iter(|| {
                let compiled = compile(&m.program, sched).unwrap();
                run(&m.program, &compiled, &m.inputs, &sim()).unwrap().stats.cycles
            })
        });
    }
    g.finish();
}

/// Fig 17: blocked vs unstructured attention.
fn fig17_blocking(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig17_blocking");
    let un = gpt_attention(64, 16, 16, 6);
    let bl = gpt_attention_blocked(64, 16, 16, 6);
    for (name, m) in [("unstructured", &un), ("blocked", &bl)] {
        let sched = m.schedule(Fusion::Full);
        g.bench_function(name, |b| {
            b.iter(|| {
                let compiled = compile(&m.program, &sched).unwrap();
                run(&m.program, &compiled, &m.inputs, &sim()).unwrap().stats.cycles
            })
        });
    }
    g.finish();
}

/// Fig 14 + Table 3: instrumentation and the analytic heuristic.
fn table3_heuristic(c: &mut Criterion) {
    let m = sae("bench", 32, 12, 3, 0.5, 7);
    let mut g = c.benchmark_group("table3_heuristic");
    g.bench_function("heuristic_estimate", |b| {
        b.iter(|| estimate(&m.program, &Schedule::unfused(), &m.inputs))
    });
    g.bench_function("simulated_measurement", |b| {
        b.iter(|| {
            let compiled = compile(&m.program, &Schedule::unfused()).unwrap();
            run(&m.program, &compiled, &m.inputs, &sim()).unwrap().stats
        })
    });
    g.finish();
}

/// Table 4 + Fig 18: POG order machinery.
fn table4_orders(c: &mut Criterion) {
    let m = gcn(&tiny_graph(), 8, 4, 8);
    let mut g = c.benchmark_group("table4_orders");
    g.bench_function("fuse_and_count", |b| {
        b.iter(|| {
            let region = fuse_region(&m.program, 0..4).unwrap();
            region.pog.count_orders(1 << 40)
        })
    });
    g.finish();
}

/// Sweep throughput: the fig12-style fusion sweep run point-by-point on
/// one thread vs fanned out on the shared worker pool (the same
/// `parallel_map` that backs `experiments`). The
/// two variants compute identical cycle totals; the pooled one reports the
/// wall-clock win of parallelizing independent model runs.
fn sweep_throughput(c: &mut Criterion) {
    let m = gcn(&tiny_graph(), 8, 4, 10);
    let points: Vec<Schedule> = Fusion::ALL.iter().map(|&f| m.schedule(f)).collect();
    let run_point = |sched: &Schedule| {
        let compiled = compile(&m.program, sched).unwrap();
        run(&m.program, &compiled, &m.inputs, &sim()).unwrap().stats.cycles
    };
    let mut g = c.benchmark_group("sweep_throughput");
    g.bench_function("serial", |b| b.iter(|| points.iter().map(run_point).sum::<u64>()));
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    g.bench_function(format!("pooled_x{workers}"), |b| {
        b.iter(|| {
            parallel_map(workers, points.clone(), |sched| run_point(&sched)).iter().sum::<u64>()
        })
    });
    g.finish();
}

/// Scheduler-core throughput: the same latency-dominated model simulated
/// under the legacy dense per-cycle sweep vs the event-driven
/// calendar-queue scheduler. Cycle counts are bit-identical
/// (`crates/sim/tests/determinism.rs`); only simulator wall-clock differs.
/// Stretched DRAM latencies make most nodes idle at any instant — the
/// regime the event engine is built for.
fn sched_throughput(c: &mut Criterion) {
    let m = gcn(&tiny_graph(), 8, 4, 11);
    let mut timing = TimingConfig::comal();
    timing.dram_stream_latency = 96;
    timing.dram_random_latency = 480;
    let mut g = c.benchmark_group("sched_throughput");
    // The partially-fused kernel keeps the historical `sweep`/`event`
    // bench ids; the fully-fused kernel (one large graph, long chains)
    // gets a `fused_` prefix.
    let schedulers = [("sweep", Scheduler::Sweep), ("event", Scheduler::Event)];
    for (wname, fusion) in [("", Fusion::Partial), ("fused_", Fusion::Full)] {
        let compiled = compile(&m.program, &m.schedule(fusion)).unwrap();
        for (sname, sched) in schedulers {
            let cfg =
                SimConfig { timing: timing.clone(), scheduler: sched, ..SimConfig::default() };
            g.bench_function(format!("{wname}{sname}"), |b| {
                b.iter(|| run(&m.program, &compiled, &m.inputs, &cfg).unwrap().stats.cycles)
            });
        }
    }
    // The deep activation pipeline on a near memory (low latency, deep
    // outstanding-request queue) keeps every chain member busy each cycle
    // — the ready-set-bound regime with almost no idle cycles to skip.
    let m = map_stack(48, 32, 0.5, 9);
    let mut near = TimingConfig::comal();
    near.dram_stream_latency = 2;
    near.dram_random_latency = 8;
    near.outstanding = 64;
    let compiled = compile(&m.program, &m.schedule(Fusion::Full)).unwrap();
    for (sname, sched) in schedulers {
        let cfg = SimConfig { timing: near.clone(), scheduler: sched, ..SimConfig::default() };
        g.bench_function(format!("chain_{sname}"), |b| {
            b.iter(|| run(&m.program, &compiled, &m.inputs, &cfg).unwrap().stats.cycles)
        });
    }
    // The same stack compiled fully on-chip: no DRAM endpoint at all.
    let chip = compile_at(&m.program, &m.schedule(Fusion::Full), fuseflow_sam::MemLocation::OnChip)
        .unwrap();
    g.bench_function("chipstack_event", |b| {
        b.iter(|| run(&m.program, &chip, &m.inputs, &sim()).unwrap().stats.cycles)
    });
    g.finish();
}

/// Ablation: factored vs global iteration style (ARCHITECTURE.md,
/// "Substitutions": the prior-compiler baselines).
fn ablation_iteration_style(c: &mut Criterion) {
    let m = gcn(&tiny_graph(), 8, 4, 9);
    let mut g = c.benchmark_group("ablation_iteration_style");
    for (name, sched) in [
        ("factored", Schedule::regions(vec![0..2])),
        ("global", Schedule::regions(vec![0..2]).with_global_iteration()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let compiled = compile(&m.program, &sched).unwrap();
                run(&m.program, &compiled, &m.inputs, &sim()).unwrap().stats.cycles
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = paper;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = fig12_fusion, fig4b_prior_compilers, fig13_validation, fig15_sparsity,
              fig16_parallel, fig17_blocking, table3_heuristic, table4_orders,
              sweep_throughput, sched_throughput, ablation_iteration_style
}
criterion_main!(paper);
