//! Quickstart: compile a fused sparse matmul chain to a SAMML dataflow
//! graph, simulate it cycle-accurately, and verify against the reference.
//!
//! Run with `cargo run --release --example quickstart`.

use fuseflow::core::ir::Program;
use fuseflow::core::pipeline::{compile, run, verify};
use fuseflow::core::schedule::Schedule;
use fuseflow::sim::SimConfig;
use fuseflow::tensor::{gen, Format, SparseTensor};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // T1[i,j] = sum_u (sum_k Adj[i,k] X[k,u]) W[u,j] — one GCN layer's
    // two matmuls.
    let n = 64;
    let mut p = Program::new();
    let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
    let adj = p.input("Adj", vec![n, n], Format::csr());
    let x = p.input("X", vec![n, 32], Format::csr());
    let w = p.input("W", vec![32, 16], Format::dense(2));
    let t0 = p.contract(
        "T0",
        vec![i, u],
        vec![(adj, vec![i, k]), (x, vec![k, u])],
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
    p.mark_output(t1);

    let mut inputs = HashMap::new();
    inputs.insert(
        "Adj".to_string(),
        gen::adjacency(n, 0.06, gen::GraphPattern::PowerLaw, 1, &Format::csr()),
    );
    inputs.insert("X".to_string(), gen::sparse_features(n, 32, 0.3, 2, &Format::csr()));
    inputs.insert(
        "W".to_string(),
        SparseTensor::from_dense(&gen::dense_features(32, 16, 3), &Format::dense(2)),
    );

    for (name, schedule) in [("unfused", Schedule::unfused()), ("fused", Schedule::full())] {
        let compiled = compile(&p, &schedule)?;
        let result = run(&p, &compiled, &inputs, &SimConfig::default())?;
        verify(&p, &inputs, &result.outputs)?;
        println!(
            "{name:8} {:>9} cycles  {:>9} flops  {:>9} DRAM bytes  ({} SAMML nodes)",
            result.stats.cycles,
            result.stats.flops,
            result.stats.dram_bytes(),
            compiled.node_count(),
        );
        if name == "fused" {
            let mut kinds: Vec<_> =
                compiled.lowered[0].graph.kind_histogram().into_iter().collect();
            kinds.sort();
            println!("\nPrimitives of the fused region:");
            for (kind, count) in kinds {
                println!("  {kind:12} {count}");
            }
        }
    }
    Ok(())
}
