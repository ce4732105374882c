//! Profiling helper: runs one scheduler on a fused kernel in a tight loop
//! so `perf`/`gprofng` see only that scheduler's hot path.
//!
//! Usage: `profile_sched <sweep|event> [reps] [stack]`
//!
//! Default workload is the latency-dominated fused GCN (high-latency
//! DRAM, most nodes idle — the event scheduler's target regime); `stack`
//! selects the deep activation pipeline on a near memory (every chain
//! member busy — the ready-set-bound regime).

use fuseflow_core::pipeline::{compile, run};
use fuseflow_models::{gcn, map_stack, Fusion, GraphDataset};
use fuseflow_sim::{Scheduler, SimConfig, TimingConfig};
use fuseflow_tensor::gen::GraphPattern;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sched = match args.get(1).map(|s| s.as_str()) {
        Some("sweep") => Scheduler::Sweep,
        _ => Scheduler::Event,
    };
    let reps: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(20);
    let stack = args.get(3).map(|s| s.as_str()) == Some("stack");
    let m = if stack {
        map_stack(96, 48, 0.5, 9)
    } else {
        let ds = GraphDataset {
            name: "bench",
            nodes: 48,
            feats: 16,
            density: 0.08,
            pattern: GraphPattern::PowerLaw,
        };
        gcn(&ds, 8, 4, 11)
    };
    let mut timing = TimingConfig::comal();
    if stack {
        timing.dram_stream_latency = 2;
        timing.dram_random_latency = 8;
        timing.outstanding = 64;
    } else {
        timing.dram_stream_latency = 96;
        timing.dram_random_latency = 480;
    }
    let compiled = compile(&m.program, &m.schedule(Fusion::Full)).unwrap();
    let cfg = SimConfig { timing, scheduler: sched, ..SimConfig::default() };
    let mut total = 0u64;
    for _ in 0..reps {
        total += run(&m.program, &compiled, &m.inputs, &cfg).unwrap().stats.cycles;
    }
    println!("{total}");
}
