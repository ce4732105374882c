//! Design-space exploration on a 2-layer GCN (the paper's Section 8.3):
//! sweeps the three fusion granularities on one dataset, printing cycles,
//! FLOPs, DRAM traffic and operational intensity, plus the analytic
//! heuristic's early estimate for each schedule.
//!
//! Run with `cargo run --release --example gcn_fusion`.

use fuseflow::core::estimate;
use fuseflow::core::pipeline::{compile, run, verify};
use fuseflow::models::{gcn, Fusion, GraphDataset};
use fuseflow::sim::SimConfig;
use fuseflow::tensor::gen::GraphPattern;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = GraphDataset {
        name: "cora-scaled",
        nodes: 128,
        feats: 48,
        density: 0.02,
        pattern: GraphPattern::PowerLaw,
    };
    let m = gcn(&ds, 24, 8, 42);
    println!("model: {} ({} kernels)", m.name, m.program.exprs().len());
    for e in m.program.exprs() {
        println!("  {}", m.program.display_expr(e));
    }
    println!();

    let mut baseline = 0u64;
    for fusion in Fusion::ALL {
        let schedule = m.schedule(fusion);
        let est = estimate(&m.program, &schedule, &m.inputs);
        let compiled = compile(&m.program, &schedule)?;
        let result = run(&m.program, &compiled, &m.inputs, &SimConfig::default())?;
        verify(&m.program, &m.inputs, &result.outputs)?;
        if fusion == Fusion::Unfused {
            baseline = result.stats.cycles;
        }
        println!(
            "{fusion:8} speedup {:>5.2}x  cycles {:>10}  flops {:>10}  bytes {:>9}  OI {:>6.2}  (heuristic: {:.0} flops, {:.0} bytes)",
            baseline as f64 / result.stats.cycles as f64,
            result.stats.cycles,
            result.stats.flops,
            result.stats.dram_bytes(),
            result.stats.operational_intensity(),
            est.flops,
            est.bytes,
        );
    }
    println!("\nAs in the paper, partial (per-layer) fusion wins for GCN: full fusion");
    println!("recomputes layer 1 once per stored element of layer 2's adjacency.");
    Ok(())
}
