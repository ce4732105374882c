//! The analytic fusion heuristic (Section 7, Table 3).
//!
//! Estimates FLOPs and DRAM bytes of a scheduled program without
//! simulation, from tensor dimensions and sparsity (density propagation
//! with expected-value intersection rates). Used to prune suboptimal fusion
//! schedules early; Table 3 reports its error against the simulator's
//! instrumentation.

use crate::ir::{AluOp, Program, TensorId};
use crate::schedule::Schedule;
use fuseflow_tensor::SparseTensor;
use std::collections::HashMap;

/// An analytic cost estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Floating-point operations.
    pub flops: f64,
    /// DRAM traffic in bytes (reads + writes of region-boundary tensors).
    pub bytes: f64,
}

impl Estimate {
    /// FLOPs per byte.
    pub fn operational_intensity(&self) -> f64 {
        if self.bytes == 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.bytes
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TStat {
    density: f64,
    /// Non-zeros (elements for scalar tensors, stored elements for blocked).
    nnz: f64,
}

/// Estimates FLOPs and bytes for `program` under `schedule` given the
/// actual input tensors (their dimensions and sparsity levels — the
/// heuristic's user inputs in the paper).
///
/// `estimate` does not validate `schedule`; `compile` does, and refuses a
/// bad one with a typed error. Here a region that reaches past the
/// program's expressions adds no bytes.
pub fn estimate(
    program: &Program,
    schedule: &Schedule,
    inputs: &HashMap<String, SparseTensor>,
) -> Estimate {
    let mut stats: HashMap<TensorId, TStat> = HashMap::new();
    for (id, decl) in program.inputs() {
        let total: f64 = decl.shape.iter().product::<usize>() as f64;
        let (density, nnz) = match inputs.get(&decl.name) {
            Some(t) => {
                let nnz = if t.is_blocked() {
                    (t.stored_positions() * t.block_len()) as f64
                } else if t.format().has_compressed() {
                    t.stored_positions() as f64
                } else {
                    total
                };
                (nnz / total, nnz)
            }
            None => (1.0, total),
        };
        stats.insert(id, TStat { density, nnz });
    }

    let regions = schedule.resolve_regions(program.exprs().len());
    let mut flops = 0.0;
    let mut bytes = 0.0;

    // Propagate densities through every expression and count compute.
    for e in program.exprs() {
        let out_decl = program.tensor(e.output.tensor);
        let out_total: f64 = out_decl.shape.iter().product::<usize>() as f64;
        let in_stats: Vec<TStat> = e.inputs.iter().map(|a| stats[&a.tensor]).collect();
        // Iteration volume: product of every index extent in the expression.
        let mut vol = 1.0;
        for ix in e.index_set() {
            vol *= program.index_size(ix) as f64;
        }
        let block_elems = (out_decl.block[0] * out_decl.block[1]) as f64;
        let (out_density, expr_flops) = match e.op {
            Some(AluOp::Mul) => {
                let joint: f64 = in_stats.iter().map(|s| s.density).product();
                let matched = vol * joint;
                // Contraction: 2 flops per matched point; the output density
                // follows 1 - (1 - p)^K over the reduced extent.
                let reduce_vol: f64 =
                    e.reduce.iter().map(|u| program.index_size(*u) as f64).product();
                let d = 1.0 - (1.0 - joint).powf(reduce_vol.max(1.0));
                (
                    d.min(1.0),
                    2.0 * matched
                        * block_elems.max(1.0)
                        * if block_elems > 1.0 { out_decl.block[0] as f64 } else { 1.0 },
                )
            }
            Some(AluOp::MulElem) => {
                let joint: f64 = in_stats.iter().map(|s| s.density).product();
                (joint, vol * joint * block_elems)
            }
            Some(AluOp::Add | AluOp::Sub | AluOp::Max) => {
                let (a, b) = (in_stats[0].density, in_stats.get(1).map_or(0.0, |s| s.density));
                let d = a + b - a * b;
                (d, vol * d * block_elems)
            }
            // `Div` and the unary maps keep their first input's structure.
            Some(op) => {
                let d = in_stats[0].density;
                (d, vol * d * op.flops_per_elem() as f64 * block_elems)
            }
            None => {
                let d = in_stats[0].density;
                let red: f64 = e.reduce.iter().map(|u| program.index_size(*u) as f64).product();
                let out_d = 1.0 - (1.0 - d).powf(red.max(1.0));
                (out_d.min(1.0), vol * d * block_elems)
            }
        };
        flops += expr_flops;
        let out_nnz =
            if out_decl.format.has_compressed() { out_total * out_density } else { out_total };
        stats.insert(e.output.tensor, TStat { density: out_density, nnz: out_nnz });
    }

    // DRAM traffic: each region reads its external inputs and writes the
    // tensors that cross its boundary (consumed later or program outputs).
    // Reads scale with the matched co-iteration points of each consuming
    // expression (streams re-scan operand fibers under every outer loop),
    // floored by the stored footprint.
    for r in &regions {
        let Some(exprs) = program.exprs().get(r.clone()) else { continue };
        let produced: Vec<TensorId> = exprs.iter().map(|e| e.output.tensor).collect();
        for e in exprs {
            let mut vol = 1.0;
            for ix in e.index_set() {
                vol *= program.index_size(ix) as f64;
            }
            let joint: f64 = if e.op.is_some_and(|op| op.unions()) {
                stats[&e.inputs[0].tensor].density
            } else {
                e.inputs.iter().map(|a| stats[&a.tensor].density).product()
            };
            for a in &e.inputs {
                if !produced.contains(&a.tensor) {
                    let s = stats[&a.tensor];
                    let decl = program.tensor(a.tensor);
                    let blk = (decl.block[0] * decl.block[1]) as f64;
                    let word = if decl.format.has_compressed() { 8.0 } else { 4.0 };
                    let touched = (vol * joint * blk).max(s.nnz);
                    bytes += touched * word;
                }
            }
        }
        for t in program.live_outs(r) {
            bytes += stats[&t].nnz * 4.0;
        }
    }

    Estimate { flops, bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Program;
    use fuseflow_tensor::{gen, Format};

    fn small_chain() -> (Program, HashMap<String, SparseTensor>) {
        let mut p = Program::new();
        let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
        let a = p.input("A", vec![32, 32], Format::csr());
        let x = p.input("X", vec![32, 16], Format::dense(2));
        let w = p.input("W", vec![16, 8], Format::dense(2));
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
        p.mark_output(t1);
        let mut inputs = HashMap::new();
        inputs.insert(
            "A".into(),
            gen::adjacency(32, 0.1, gen::GraphPattern::Uniform, 1, &Format::csr()),
        );
        inputs.insert(
            "X".into(),
            fuseflow_tensor::SparseTensor::from_dense(
                &gen::dense_features(32, 16, 2),
                &Format::dense(2),
            ),
        );
        inputs.insert(
            "W".into(),
            fuseflow_tensor::SparseTensor::from_dense(
                &gen::dense_features(16, 8, 3),
                &Format::dense(2),
            ),
        );
        (p, inputs)
    }

    #[test]
    fn fusion_reduces_estimated_bytes_not_flops() {
        let (p, inputs) = small_chain();
        let unfused = estimate(&p, &Schedule::unfused(), &inputs);
        let fused = estimate(&p, &Schedule::full(), &inputs);
        assert!(fused.bytes < unfused.bytes, "fusion must remove intermediate traffic");
        assert!((fused.flops - unfused.flops).abs() < 1e-6, "same work at equal scopes");
        assert!(fused.operational_intensity() > unfused.operational_intensity());
    }

    #[test]
    fn denser_inputs_cost_more() {
        let (p, mut inputs) = small_chain();
        let sparse = estimate(&p, &Schedule::unfused(), &inputs);
        inputs.insert(
            "A".into(),
            gen::adjacency(32, 0.5, gen::GraphPattern::Uniform, 1, &Format::csr()),
        );
        let dense = estimate(&p, &Schedule::unfused(), &inputs);
        assert!(dense.flops > sparse.flops);
        assert!(dense.bytes > sparse.bytes);
    }
}
