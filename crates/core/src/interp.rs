//! Structural reference interpreter for Einsum programs.
//!
//! Evaluates a [`Program`] while tracking each tensor's *structure* (which
//! coordinates exist), exactly mirroring streaming-sparse semantics: unary
//! non-linearities apply only to present coordinates (sparse softmax
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
//! Each expression is one loop nest over its indices, each over its dense
//! extent, that skips what cannot exist, as the Sparse Abstract Machine
//! co-iterates only the coordinates an intersection can contain:
//!
//! - **Order.** An expression whose inputs intersect walks the prefix of its
//!   sparsest input (its indices up to its last compressed level) first,
//!   then the rest of [`Einsum::index_set`] in order, as long as that keeps
//!   the indices the output drops in their `index_set` order. Otherwise,
//!   and for unions, it walks `index_set` itself.
//! - **Pruning.** An intersecting input is present at a point when its
//!   coordinates up to its last compressed level select a stored element.
//!   That is decided once, at the depth where those coordinates are all
//!   bound, and an absent prefix skips the subtree under it. A union decides
//!   presence at each point of the full walk.
//! - **Offsets.** Each input's value, each presence check's prefix and the
//!   output are read at a row-major offset accumulated depth by depth, so
//!   the innermost loop is a flat scan.
//!
//! The result is what a walk over every point gives, bit for bit: a
//! skipped point has an absent input, so it contributes nothing, and each
//! output element takes its contributions in the order of the indices the
//! output drops, which the walk order keeps. So every sum and maximum adds
//! the same terms in the same sequence.
//!
//! A blocked program means its element-space expansion: a blocked tensor is
//! the matrix of its logical shape, and its structure is tile-granular (a
//! stored tile makes all of its elements present). Each index ranges over
//! the element-space extent of the dimension it binds, so this one
//! interpreter checks scalar and blocked programs alike. `Program::expr`
//! admits only the blocked expressions the tile primitives compute exactly
//! as this expansion does.

use crate::ir::{Access, AluOp, Einsum, IndexVar, Program, ReduceOp, TensorId};
use fuseflow_tensor::{DenseTensor, LevelFormat, SparseTensor};
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
    for (id, t) in bind_inputs(program, inputs)? {
        env.insert(id, Structured::from_sparse(t));
    }

    for e in program.exprs() {
        let srcs: Vec<&Structured> = e.inputs.iter().map(|acc| &env[&acc.tensor]).collect();
        let out = Nest::new(program, e, &srcs).eval();
        env.insert(e.output.tensor, out);
    }

    Ok(env.into_iter().map(|(id, s)| (program.tensor(id).name.clone(), s)).collect())
}

/// Each input of `program` with the tensor `inputs` binds to its name, in
/// [`Program::inputs`] order: the one binding check of [`interpret`] and
/// `pipeline::run`.
///
/// # Errors
///
/// Returns [`InterpError::MissingInput`] for a missing input and
/// [`InterpError::InputShape`] for one bound at another element-space shape
/// or block than its declaration's.
pub(crate) fn bind_inputs<'a>(
    program: &Program,
    inputs: &'a HashMap<String, SparseTensor>,
) -> Result<Vec<(TensorId, &'a SparseTensor)>, InterpError> {
    let mut bound = Vec::new();
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
        bound.push((id, t));
    }
    Ok(bound)
}

/// A presence check: whether input `input`'s coordinates up to `level`, a
/// compressed level, select a stored element.
struct Check {
    /// The input, by position in the expression.
    input: usize,
    /// The last level of the prefix.
    level: usize,
    /// Per prefix, row-major over the input's `shape[..=level]`: does any
    /// present element start with it?
    present: Vec<bool>,
}

/// One expression as a loop nest: one depth per index, in walk order, and
/// per point a row of offsets: each input's value offset (`0..inputs`),
/// each check's prefix offset (`inputs..inputs + checks`) and the output
/// offset (last). Each offset is a sum of a coefficient times the
/// coordinate at each depth.
struct Nest<'a> {
    /// The operator that combines the inputs.
    op: Option<AluOp>,
    /// A second contribution to an output element takes its maximum (a
    /// `Max` reduction), otherwise it adds.
    max_merge: bool,
    /// Each input's values, row-major.
    vals: Vec<&'a [f32]>,
    /// The presence checks the walk makes.
    checks: Vec<Check>,
    /// Per depth, the extent of its index.
    dims: Vec<usize>,
    /// Offsets per point.
    width: usize,
    /// `coef[d * width + k]`: what offset `k` grows by per step at depth `d`.
    coef: Vec<usize>,
    /// Per depth, the checks whose prefix is bound there: an intersecting
    /// input, absent under any point that fails one.
    prune: Vec<Vec<usize>>,
    /// A union's presence, decided at every point: per output index, the
    /// checks any one of which covers it.
    clauses: Vec<Vec<usize>>,
    /// The output's shape.
    out_shape: Vec<usize>,
}

impl<'a> Nest<'a> {
    /// Plans `e` over its inputs' evaluated tensors `srcs`.
    fn new(program: &Program, e: &Einsum, srcs: &[&'a Structured]) -> Self {
        // Per-input structure with storage-format closure: a dense level
        // materializes every coordinate under a present parent (empty CSR
        // rows exist as fibers), so presence keys only on coordinates up to
        // the *last compressed level* at or above the one asked about, and
        // an input with no compressed level there is always present.
        let last_compressed = |n: usize, upto: usize| {
            let fmt = &program.tensor(e.inputs[n].tensor).format;
            (0..=upto).rev().find(|&l| fmt.level(l) == LevelFormat::Compressed)
        };
        let mut checks: Vec<Check> = Vec::new();
        let mut check = |input: usize, level: usize| -> usize {
            let known = checks.iter().position(|c| (c.input, c.level) == (input, level));
            known.unwrap_or_else(|| {
                let present = prefix_support(&srcs[input].mask, level);
                checks.push(Check { input, level, present });
                checks.len() - 1
            })
        };
        let unions = e.op.is_some_and(|op| op.unions());
        let (mut intersect, mut clauses) = (Vec::new(), Vec::new());
        if unions {
            // A point exists iff every output index is covered by some
            // owning input's marginal support: broadcast inputs do not
            // extend structure along dimensions they lack.
            for d in &e.output.indices {
                let owners = e
                    .inputs
                    .iter()
                    .enumerate()
                    .filter_map(|(n, acc)| Some((n, acc.indices.iter().position(|x| x == d)?)));
                let levels: Option<Vec<(usize, usize)>> =
                    owners.map(|(n, pos)| Some((n, last_compressed(n, pos)?))).collect();
                // `None`: an owner with no compressed level covers `d` everywhere.
                if let Some(levels) = levels {
                    clauses.push(levels.into_iter().map(|(n, l)| check(n, l)).collect());
                }
            }
        } else {
            for (n, acc) in e.inputs.iter().enumerate() {
                if let Some(l) = last_compressed(n, acc.indices.len() - 1) {
                    intersect.push(check(n, l));
                }
            }
        }

        let order = walk_order(e, &checks, &intersect);
        let depth = |ix: &IndexVar| order.iter().position(|x| x == ix).expect("a walked index");
        // Every index ranges over the element-space extent of a dimension it
        // binds (the block grid extent times the block for blocked tensors);
        // `Program::expr` binds each index at one extent.
        let extent = |ix: &IndexVar| {
            let mut accs = std::iter::once(&e.output).chain(&e.inputs);
            let bound = accs.find_map(|acc| {
                let l = acc.indices.iter().position(|x| x == ix)?;
                Some(program.tensor(acc.tensor).shape[l])
            });
            bound.expect("an index of the expression is bound by one of its accesses")
        };
        let dims: Vec<usize> = order.iter().map(extent).collect();

        let out_shape = program.tensor(e.output.tensor).shape.clone();
        let width = e.inputs.len() + checks.len() + 1;
        let mut coef = vec![0; dims.len() * width];
        let mut add = |k: usize, acc: &Access, shape: &[usize]| {
            for ((ix, &dim), stride) in acc.indices.iter().zip(shape).zip(row_major(shape)) {
                assert_eq!(dim, dims[depth(ix)], "an index spans one extent in every access");
                coef[depth(ix) * width + k] += stride;
            }
        };
        for (n, acc) in e.inputs.iter().enumerate() {
            add(n, acc, srcs[n].vals.shape());
        }
        for (q, c) in checks.iter().enumerate() {
            add(e.inputs.len() + q, &e.inputs[c.input], &srcs[c.input].mask.shape()[..=c.level]);
        }
        add(width - 1, &e.output, &out_shape);
        let mut prune = vec![Vec::new(); dims.len()];
        for &q in &intersect {
            let c = &checks[q];
            let bound = e.inputs[c.input].indices[..=c.level].iter().map(depth).max();
            prune[bound.expect("a prefix has a level")].push(q);
        }
        Nest {
            op: e.op,
            max_merge: !e.reduce.is_empty() && e.reduce_op == ReduceOp::Max,
            vals: srcs.iter().map(|s| s.vals.data()).collect(),
            checks,
            dims,
            width,
            coef,
            prune,
            clauses,
            out_shape,
        }
    }

    /// Walks the nest, returning the expression's output.
    fn eval(&self) -> Structured {
        let mut vals = DenseTensor::zeros(self.out_shape.clone());
        let mut mask = DenseTensor::zeros(self.out_shape.clone());
        // Row `d`: the offsets accumulated over the depths above `d`.
        let mut rows = vec![0; self.dims.len() * self.width];
        let mut operands = vec![0f32; self.vals.len()];
        let out = (vals.data_mut(), mask.data_mut());
        self.descend(0, &mut rows, &mut operands, out);
        Structured { vals, mask }
    }

    /// Is check `q` passed at the prefix offset in `row`, plus `c` steps at
    /// the depth of `coef`?
    fn passes(&self, q: usize, row: &[usize], coef: &[usize], c: usize) -> bool {
        let k = self.vals.len() + q;
        self.checks[q].present[row[k] + coef[k] * c]
    }

    /// Walks depth `d` and everything under it; `rows` starts with depth
    /// `d`'s row.
    fn descend(
        &self,
        d: usize,
        rows: &mut [usize],
        operands: &mut [f32],
        out: (&mut [f32], &mut [f32]),
    ) {
        let w = self.width;
        let coef = &self.coef[d * w..(d + 1) * w];
        if d + 1 < self.dims.len() {
            let (row, below) = rows.split_at_mut(w);
            let row = &*row;
            for c in 0..self.dims[d] {
                if self.prune[d].iter().all(|&q| self.passes(q, row, coef, c)) {
                    for ((next, &base), &step) in below[..w].iter_mut().zip(row).zip(coef) {
                        *next = base + step * c;
                    }
                    self.descend(d + 1, below, operands, (&mut *out.0, &mut *out.1));
                }
            }
            return;
        }
        // The innermost depth: one flat scan.
        let row = &rows[..w];
        let (out_vals, out_mask) = out;
        for c in 0..self.dims[d] {
            let present = |q: &usize| self.passes(*q, row, coef, c);
            if !self.prune[d].iter().all(present)
                || !self.clauses.iter().all(|cl| cl.iter().any(present))
            {
                continue;
            }
            for ((v, data), (&base, &step)) in
                operands.iter_mut().zip(&self.vals).zip(row.iter().zip(coef))
            {
                *v = data[base + step * c];
            }
            let v = combine(self.op, operands);
            let o = row[w - 1] + coef[w - 1] * c;
            if out_mask[o] == 0.0 {
                out_mask[o] = 1.0;
                out_vals[o] = v;
            } else if self.max_merge {
                out_vals[o] = out_vals[o].max(v);
            } else {
                // A `Sum` reduction; several contributions without one
                // cannot happen for well-formed expressions, and a sum keeps
                // the semantics of duplicate coordinates.
                out_vals[o] += v;
            }
        }
    }
}

/// The order `e` is walked in. An intersection walks the prefix of its
/// sparsest checked input first (`intersect` holds one check per input with
/// a compressed level), if the indices the output drops keep their
/// [`Einsum::index_set`] order; any other expression walks `index_set`.
fn walk_order(e: &Einsum, checks: &[Check], intersect: &[usize]) -> Vec<IndexVar> {
    let all = e.index_set();
    let density = |q: &usize| {
        let present = &checks[*q].present;
        present.iter().filter(|p| **p).count() as f64 / present.len() as f64
    };
    let sparsest = intersect.iter().min_by(|a, b| density(a).total_cmp(&density(b)));
    let Some(c) = sparsest.map(|&q| &checks[q]) else { return all };
    let mut order: Vec<IndexVar> = Vec::new();
    for ix in e.inputs[c.input].indices[..=c.level].iter().chain(&all) {
        if !order.contains(ix) {
            order.push(*ix);
        }
    }
    let dropped = |o: &[IndexVar]| -> Vec<IndexVar> {
        o.iter().filter(|ix| !e.output.indices.contains(ix)).copied().collect()
    };
    if dropped(&order) == dropped(&all) {
        order
    } else {
        all
    }
}

/// Per prefix of `mask` up to `level`, row-major over `shape[..=level]`:
/// does any present element start with it? Each shorter prefix ORs chunks
/// of the one below it.
pub(crate) fn prefix_support(mask: &DenseTensor, level: usize) -> Vec<bool> {
    let mut present: Vec<bool> = mask.data().iter().map(|&m| m != 0.0).collect();
    for &dim in mask.shape()[level + 1..].iter().rev() {
        present = present.chunks(dim).map(|c| c.contains(&true)).collect();
    }
    present
}

/// The row-major strides of `shape`.
fn row_major(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; shape.len()];
    for l in (0..shape.len().saturating_sub(1)).rev() {
        strides[l] = strides[l + 1] * shape[l + 1];
    }
    strides
}

/// `op` applied to one point's operands.
fn combine(op: Option<AluOp>, vals: &[f32]) -> f32 {
    match op {
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
    }
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

    /// `L[i,j] = A[i,k]·X[k,u]·W[u,j]` reduces two indices, and each output
    /// element adds its terms in `index_set()` order, `k` outer and `u`
    /// inner. Row 0's terms are `4, 1e8, 4, -1e8` (times `W[u,j]`): in that
    /// order each 4 is rounded away against 1e8 and the sum is 0, while `u`
    /// outer adds the two 4s first and gives 8 (16 for `j = 1`). Row 1 of
    /// the CSR `A` is empty, so it is absent.
    #[test]
    fn a_two_index_contraction_sums_in_index_set_order() {
        let mut p = Program::new();
        let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
        let a = p.input("A", vec![2, 2], Format::csr());
        let x = p.input("X", vec![2, 2], Format::dense(2));
        let w = p.input("W", vec![2, 2], Format::dense(2));
        let l = p.contract(
            "L",
            vec![i, j],
            vec![(a, vec![i, k]), (x, vec![k, u]), (w, vec![u, j])],
            vec![k, u],
            Format::dense(2),
        );
        p.mark_output(l);
        assert_eq!(p.exprs()[0].index_set(), vec![i, j, k, u]);

        let at = SparseTensor::from_coo(
            vec![2, 2],
            vec![(vec![0, 0], 1.0), (vec![0, 1], 1.0)],
            &Format::csr(),
        )
        .unwrap();
        let dense = |data: Vec<f32>| {
            SparseTensor::from_dense(&DenseTensor::from_vec(vec![2, 2], data), &Format::dense(2))
        };
        let (xt, wt) = (dense(vec![4.0, 1e8, 4.0, -1e8]), dense(vec![1.0, 2.0, 1.0, 2.0]));
        let out = interpret(&p, &bind(vec![("A", at), ("X", xt), ("W", wt)])).unwrap();
        let bits = |t: &DenseTensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out["L"].vals), bits(&DenseTensor::from_vec(vec![2, 2], vec![0.0; 4])));
        assert_eq!(out["L"].mask.data(), &[1.0, 1.0, 0.0, 0.0]);
        // The same terms with `u` outer: the order the sum must not take.
        let u_outer = |wu: f32| (4.0 * wu + 4.0 * wu + 1e8 * wu) + -1e8 * wu;
        assert_eq!((u_outer(1.0), u_outer(2.0)), (8.0, 16.0));
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
