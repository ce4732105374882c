//! Structural reference interpreter for Einsum programs.
//!
//! Evaluates a [`Program`] densely while tracking each tensor's *structure*
//! (which coordinates exist), exactly mirroring streaming-sparse semantics:
//! unary non-linearities apply only to present coordinates (sparse softmax
//! operates over the nonzero structure), intersections require all
//! operands present, unions any. This is the oracle every compiled dataflow
//! graph is verified against, mirroring the paper's verification "against a
//! dense PyTorch implementation" (§8.1) while staying faithful to
//! structure-dependent operators.
//!
//! Each expression's [`AluOp`] decides how its inputs merge
//! ([`AluOp::unions`], the rule the lowering follows too). The binary ops'
//! arithmetic is written out here rather than taken from the simulator's
//! ALU, so the oracle does not share the code it checks.
//!
//! A blocked program means its element-space expansion: a blocked tensor is
//! the matrix of its logical shape, and its structure is tile-granular (a
//! stored tile makes all of its elements present). Each index ranges over
//! the element-space extent of the dimension it binds, so this one
//! interpreter checks scalar and blocked programs alike. `Program::expr`
//! admits only the blocked expressions the tile primitives compute exactly
//! as this expansion does.

use crate::ir::{Access, AluOp, IndexVar, Program, ReduceOp, TensorId};
use fuseflow_tensor::{DenseTensor, SparseTensor};
use std::collections::HashMap;

/// A dense value tensor plus its 0/1 structure mask.
#[derive(Debug, Clone)]
pub struct Structured {
    /// Values (zero where absent).
    pub vals: DenseTensor,
    /// Structure: 1.0 where a coordinate exists.
    pub mask: DenseTensor,
}

impl Structured {
    /// Builds from a sparse tensor in element space: structure = stored
    /// coordinates (all coordinates of a dense level, every element of a
    /// stored tile).
    pub fn from_sparse(t: &SparseTensor) -> Self {
        let mut vals = DenseTensor::zeros(t.shape().to_vec());
        let mut mask = DenseTensor::zeros(t.shape().to_vec());
        t.for_each_stored(|idx, v| {
            vals.set(idx, v);
            mask.set(idx, 1.0);
        });
        Structured { vals, mask }
    }
}

/// Errors from interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// An input tensor had no binding.
    MissingInput(String),
    /// An input was bound at an element-space shape or block other than its
    /// declaration's; each side is `(shape, block)`.
    InputShape {
        /// The input's name.
        name: String,
        /// The declared shape and block.
        declared: (Vec<usize>, [usize; 2]),
        /// The bound tensor's shape and block.
        bound: (Vec<usize>, [usize; 2]),
    },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::MissingInput(n) => write!(f, "missing input '{n}'"),
            InterpError::InputShape { name, declared, bound } => write!(
                f,
                "input '{name}' is declared {:?} in {:?} blocks but bound at {:?} in {:?} blocks",
                declared.0, declared.1, bound.0, bound.1
            ),
        }
    }
}

impl std::error::Error for InterpError {}

/// Evaluates every expression of `program` on `inputs`, returning all
/// produced tensors (keyed by name) with structural sparse semantics.
///
/// Uncached: this is the oracle, and `pipeline::verify` keeps what it
/// returns.
///
/// # Errors
///
/// Returns [`InterpError::MissingInput`] for a missing input and
/// [`InterpError::InputShape`] for one bound at another element-space shape
/// or block than its declaration's (its elements would be read at the wrong
/// coordinates).
pub fn interpret(
    program: &Program,
    inputs: &HashMap<String, SparseTensor>,
) -> Result<HashMap<String, Structured>, InterpError> {
    let mut env: HashMap<TensorId, Structured> = HashMap::new();
    for (id, decl) in program.inputs() {
        let t =
            inputs.get(&decl.name).ok_or_else(|| InterpError::MissingInput(decl.name.clone()))?;
        if t.shape() != decl.shape || t.block() != decl.block {
            return Err(InterpError::InputShape {
                name: decl.name.clone(),
                declared: (decl.shape.clone(), decl.block),
                bound: (t.shape().to_vec(), t.block()),
            });
        }
        env.insert(id, Structured::from_sparse(t));
    }

    for e in program.exprs() {
        let out_decl = program.tensor(e.output.tensor);
        // Collect the iteration space: every index of the expression, over
        // the element-space extent of a dimension it binds (the block grid
        // extent times the block for blocked tensors).
        let all_ix = e.index_set();
        let extent = |ix: &IndexVar| {
            let mut accs = std::iter::once(&e.output).chain(&e.inputs);
            let bound = accs.find_map(|acc| {
                let l = acc.indices.iter().position(|x| x == ix)?;
                Some(program.tensor(acc.tensor).shape[l])
            });
            bound.expect("an index of the expression is bound by one of its accesses")
        };
        let dims: Vec<usize> = all_ix.iter().map(extent).collect();
        let mut out_vals = DenseTensor::zeros(out_decl.shape.clone());
        let mut out_mask = DenseTensor::zeros(out_decl.shape.clone());

        let slot_of: HashMap<IndexVar, usize> =
            all_ix.iter().enumerate().map(|(s, ix)| (*ix, s)).collect();
        // Per access, the iteration-space slot of each of its indices.
        let slots =
            |acc: &Access| -> Vec<usize> { acc.indices.iter().map(|ix| slot_of[ix]).collect() };
        let in_slots: Vec<Vec<usize>> = e.inputs.iter().map(slots).collect();
        let out_slots = slots(&e.output);
        let srcs: Vec<&Structured> = e.inputs.iter().map(|acc| &env[&acc.tensor]).collect();

        // Per-input structure with storage-format closure: a dense level
        // materializes every coordinate under a present parent (empty CSR
        // rows exist as fibers), so marginal prefix supports key only on
        // the coordinates of *compressed* levels. prefixes[n][t] is the
        // support at prefix length t+1, a bitmap indexed row-major over
        // `mask.shape()[..=t]`, and closed element presence keys on all
        // compressed levels.
        let mut prefixes: Vec<Vec<Vec<bool>>> = Vec::new();
        let mut closed: Vec<Vec<bool>> = Vec::new(); // per input: level compressed?
        for (acc, s) in e.inputs.iter().zip(&srcs) {
            let fmt = program.tensor(acc.tensor).format.clone();
            let comp: Vec<bool> = (0..fmt.order())
                .map(|l| fmt.level(l) == fuseflow_tensor::LevelFormat::Compressed)
                .collect();
            let shape = s.mask.shape();
            let order = acc.indices.len();
            let mut per_len: Vec<Vec<bool>> =
                (0..order).map(|t| vec![false; shape[..=t].iter().product()]).collect();
            let mut idx = vec![0usize; order];
            for flat in 0..s.mask.len() {
                if s.mask.data()[flat] == 0.0 {
                    continue;
                }
                let mut rem = flat;
                for d in (0..order).rev() {
                    idx[d] = rem % shape[d];
                    rem /= shape[d];
                }
                let mut prefix = 0;
                for t in 0..order {
                    prefix = prefix * shape[t] + idx[t];
                    per_len[t][prefix] = true;
                }
            }
            prefixes.push(per_len);
            closed.push(comp);
        }
        // A prefix is supported when its coordinates up to the *last
        // compressed level* match a stored element: trailing dense levels
        // are materialized under any present parent (a CSR's empty rows
        // exist as fibers), but interior coordinates still select fibers.
        let supported = |n: usize, t: usize, coords: &[usize]| -> bool {
            match (0..=t).rev().find(|&l| closed[n][l]) {
                None => true,
                Some(ts) => coords[..=ts]
                    .iter()
                    .zip(srcs[n].mask.shape())
                    .try_fold(0, |flat, (&c, &dim)| (c < dim).then_some(flat * dim + c))
                    .is_some_and(|flat| prefixes[n][ts][flat]),
            }
        };
        let union_like = e.op.is_some_and(|op| op.unions());

        // Buffers reused across the iteration space: each input's gathered
        // coordinates, presence and value, and the output coordinates.
        let mut idxs: Vec<Vec<usize>> = in_slots.iter().map(|s| vec![0; s.len()]).collect();
        let mut out_idx = vec![0usize; out_slots.len()];
        let mut present = vec![false; e.inputs.len()];
        let mut vals = vec![0f32; e.inputs.len()];
        let mut point = vec![0usize; dims.len()];
        'space: loop {
            // Presence and values per input.
            for (n, idx) in idxs.iter_mut().enumerate() {
                for (c, &slot) in idx.iter_mut().zip(&in_slots[n]) {
                    *c = point[slot];
                }
                // Closed element presence: all compressed coordinates must
                // be stored; dense levels are materialized.
                present[n] = supported(n, idx.len() - 1, idx);
                vals[n] = srcs[n].vals.get(idx);
            }
            let here = if !union_like {
                present.iter().all(|p| *p)
            } else {
                // A point exists iff every output index is covered by some
                // owning input's (format-closed) marginal support:
                // broadcast inputs do not extend structure along
                // dimensions they lack.
                e.output.indices.iter().all(|d| {
                    e.inputs.iter().enumerate().any(|(n, acc)| {
                        acc.indices
                            .iter()
                            .position(|x| x == d)
                            .is_some_and(|pos_d| supported(n, pos_d, &idxs[n][..=pos_d]))
                    })
                })
            };
            if here {
                let v = match e.op {
                    Some(AluOp::Mul | AluOp::MulElem) => vals.iter().product::<f32>(),
                    Some(AluOp::Add) => vals.iter().sum(),
                    Some(AluOp::Sub) => vals[0] - vals[1],
                    Some(AluOp::Div) => {
                        if vals[0] == 0.0 {
                            0.0
                        } else {
                            vals[0] / vals[1]
                        }
                    }
                    Some(AluOp::Max) => vals[0].max(vals[1]),
                    Some(op) => op.apply_scalar(vals[0], 0.0),
                    None => vals[0],
                };
                for (c, &slot) in out_idx.iter_mut().zip(&out_slots) {
                    *c = point[slot];
                }
                if out_mask.get(&out_idx) == 0.0 {
                    out_mask.set(&out_idx, 1.0);
                    out_vals.set(&out_idx, v);
                } else {
                    let cur = out_vals.get(&out_idx);
                    let merged = if e.reduce.is_empty() {
                        // Multiple contributions without a reduction cannot
                        // happen for well-formed expressions; sum keeps the
                        // semantics of duplicate coordinates.
                        cur + v
                    } else {
                        match e.reduce_op {
                            ReduceOp::Sum => cur + v,
                            ReduceOp::Max => cur.max(v),
                        }
                    };
                    out_vals.set(&out_idx, merged);
                }
            }
            // Advance the iteration point.
            for d in (0..dims.len()).rev() {
                point[d] += 1;
                if point[d] < dims[d] {
                    continue 'space;
                }
                point[d] = 0;
            }
            break;
        }
        env.insert(e.output.tensor, Structured { vals: out_vals, mask: out_mask });
    }

    Ok(env.into_iter().map(|(id, s)| (program.tensor(id).name.clone(), s)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseflow_tensor::{gen, reference, Format};

    fn bind(pairs: Vec<(&str, SparseTensor)>) -> HashMap<String, SparseTensor> {
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn matmul_matches_dense_reference() {
        let mut p = Program::new();
        let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
        let a = p.input("A", vec![6, 5], Format::csr());
        let x = p.input("X", vec![5, 4], Format::dense(2));
        let t = p.contract(
            "T",
            vec![i, j],
            vec![(a, vec![i, k]), (x, vec![k, j])],
            vec![k],
            Format::csr(),
        );
        p.mark_output(t);

        let at = gen::sparse_features(6, 5, 0.4, 1, &Format::csr());
        let xt = SparseTensor::from_dense(&gen::dense_features(5, 4, 2), &Format::dense(2));
        let expect = reference::matmul(&at.to_dense(), &xt.to_dense());
        let out = interpret(&p, &bind(vec![("A", at), ("X", xt)])).unwrap();
        assert!(out["T"].vals.approx_eq(&expect));
    }

    #[test]
    fn unary_applies_only_to_structure() {
        // exp over a sparse matrix: absent coordinates stay absent/zero
        // (the sparse-softmax semantics).
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 2], Format::dcsr());
        let e = p.map("E", AluOp::Exp, (a, vec![i, j]), Format::dcsr());
        p.mark_output(e);

        let at =
            SparseTensor::from_coo(vec![2, 2], vec![(vec![0, 0], 2.0)], &Format::dcsr()).unwrap();
        let out = interpret(&p, &bind(vec![("A", at)])).unwrap();
        assert!((out["E"].vals.get(&[0, 0]) - 2.0f32.exp()).abs() < 1e-5);
        assert_eq!(out["E"].vals.get(&[1, 1]), 0.0, "absent coordinate must stay zero");
        assert_eq!(out["E"].mask.get(&[1, 1]), 0.0);
    }

    /// Structure is what is stored, as the simulator scans it: an explicit
    /// zero at a compressed level is present, and so is every element of a
    /// stored tile, over the element-space extents of a blocked program.
    #[test]
    fn stored_zeros_and_whole_tiles_are_present() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 2], Format::dcsr());
        let e = p.map("E", AluOp::Exp, (a, vec![i, j]), Format::dcsr());
        p.mark_output(e);
        let entries = vec![(vec![0, 1], 0.0), (vec![1, 0], 2.0)];
        let at = SparseTensor::from_coo(vec![2, 2], entries, &Format::dcsr()).unwrap();
        let out = interpret(&p, &bind(vec![("A", at)])).unwrap();
        assert_eq!((out["E"].vals.get(&[0, 1]), out["E"].mask.get(&[0, 1])), (1.0, 1.0));
        assert_eq!(out["E"].mask.get(&[0, 0]), 0.0);

        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let b = p.blocked_input("B", vec![4, 4], Format::csr(), [2, 2]);
        let e = p.map("E", AluOp::Exp, (b, vec![i, j]), Format::csr());
        p.mark_output(e);
        let tile = vec![0.0, 1.0, 2.0, 0.0];
        let bt =
            SparseTensor::from_blocks(vec![4, 4], [2, 2], vec![(vec![1, 0], tile)], &Format::csr())
                .unwrap();
        let out = interpret(&p, &bind(vec![("B", bt)])).unwrap();
        let exp = |v: f32| v.exp();
        let want =
            [[0.0; 4], [0.0; 4], [exp(0.0), exp(1.0), 0.0, 0.0], [exp(2.0), exp(0.0), 0.0, 0.0]];
        assert_eq!(out["E"].vals.data(), want.concat());
        assert_eq!(out["E"].mask.data().iter().sum::<f32>(), 4.0);
    }

    #[test]
    fn union_add_presence() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 2], Format::dcsr());
        let b = p.input("B", vec![2, 2], Format::dcsr());
        let c =
            p.binary("C", AluOp::Add, (a, vec![i, j]), (b, vec![i, j]), vec![i, j], Format::dcsr());
        p.mark_output(c);

        let at =
            SparseTensor::from_coo(vec![2, 2], vec![(vec![0, 0], 1.0)], &Format::dcsr()).unwrap();
        let bt =
            SparseTensor::from_coo(vec![2, 2], vec![(vec![1, 1], 2.0)], &Format::dcsr()).unwrap();
        let out = interpret(&p, &bind(vec![("A", at), ("B", bt)])).unwrap();
        assert_eq!(out["C"].vals.get(&[0, 0]), 1.0);
        assert_eq!(out["C"].vals.get(&[1, 1]), 2.0);
        assert_eq!(out["C"].mask.get(&[0, 1]), 0.0);
    }

    #[test]
    fn max_reduce_over_structure_only() {
        // Row max of a sparse matrix with negative values: stored values
        // only (no spurious zeros).
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 3], Format::dcsr());
        let m = p.reduce("M", (a, vec![i, j]), vec![j], ReduceOp::Max, Format::sparse_vec());
        p.mark_output(m);

        let at = SparseTensor::from_coo(
            vec![2, 3],
            vec![(vec![0, 0], -5.0), (vec![0, 2], -1.0)],
            &Format::dcsr(),
        )
        .unwrap();
        let out = interpret(&p, &bind(vec![("A", at)])).unwrap();
        assert_eq!(out["M"].vals.get(&[0]), -1.0);
        assert_eq!(out["M"].mask.get(&[1]), 0.0, "empty row has no structure");
    }

    #[test]
    fn broadcast_bias() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let t = p.input("T", vec![2, 2], Format::dense(2));
        let b = p.input("b", vec![2], Format::dense_vec());
        let o =
            p.binary("O", AluOp::Add, (t, vec![i, j]), (b, vec![j]), vec![i, j], Format::dense(2));
        p.mark_output(o);

        let tt = SparseTensor::from_dense(
            &DenseTensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]),
            &Format::dense(2),
        );
        let bt = SparseTensor::from_dense(
            &DenseTensor::from_vec(vec![2], vec![10., 20.]),
            &Format::dense_vec(),
        );
        let out = interpret(&p, &bind(vec![("T", tt), ("b", bt)])).unwrap();
        assert_eq!(out["O"].vals.data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn missing_input_reported() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 2], Format::csr());
        let _ = p.map("R", AluOp::Relu, (a, vec![i, j]), Format::csr());
        let err = interpret(&p, &HashMap::new()).unwrap_err();
        assert_eq!(err, InterpError::MissingInput("A".into()));
    }

    /// A `[2, 4]` input bound to a `[4, 2]` tensor used to be read at the
    /// declared extents over the bound data: a release build returned
    /// `E = [1, 2, 3, 4, 3, 4, 5, 6]`, a debug build tripped a bounds
    /// assertion. It is refused before anything is evaluated.
    #[test]
    fn an_input_bound_at_another_shape_is_refused() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 4], Format::dense(2));
        let e = p.map("E", AluOp::Relu, (a, vec![i, j]), Format::dense(2));
        p.mark_output(e);
        let data = (1..=8).map(|v| v as f32).collect();
        let at =
            SparseTensor::from_dense(&DenseTensor::from_vec(vec![4, 2], data), &Format::dense(2));
        let err = interpret(&p, &bind(vec![("A", at)])).unwrap_err();
        let (declared, bound) = ((vec![2, 4], [1, 1]), (vec![4, 2], [1, 1]));
        assert_eq!(err, InterpError::InputShape { name: "A".into(), declared, bound });

        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let b = p.blocked_input("B", vec![4, 4], Format::csr(), [2, 2]);
        let e = p.map("E", AluOp::Exp, (b, vec![i, j]), Format::csr());
        p.mark_output(e);
        let bt = SparseTensor::from_blocks(vec![4, 4], [4, 4], vec![], &Format::csr()).unwrap();
        let err = interpret(&p, &bind(vec![("B", bt)])).unwrap_err();
        assert!(matches!(err, InterpError::InputShape { bound: (_, [4, 4]), .. }), "{err}");
    }
}
