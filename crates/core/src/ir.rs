//! The Einsum intermediate representation (Fig 6b of the paper).
//!
//! Models lower to a sequence of [`Einsum`] expressions over declared
//! tensors: contractions, elementwise binary operations (whose sparse merge
//! semantics are intersection for multiplication and union for
//! addition-like operators, [`AluOp::unions`]), unary maps (including the
//! SAMML non-linear extensions), and reductions. An expression's operator
//! is the SAMML [`AluOp`] its lowering emits, so the IR and the dataflow
//! graphs share one list of operators. Sparse formats annotate every tensor
//! (Section 4.1); a block-sparse tensor's dense block is declared on the
//! program input and carried to every expression computed from it. Optional
//! per-expression dataflow orders and `Fuse{}` regions come from the
//! scheduling language (`crate::schedule`).

use crate::pipeline::ProgramMemo;
pub use fuseflow_sam::{AluOp, ReduceOp};
use fuseflow_tensor::Format;
use std::collections::HashSet;
use std::ops::Range;

/// An interned index variable (e.g. `i`, `j`, `u0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexVar(pub u32);

/// An interned tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub usize);

/// Declaration of a tensor: name, logical shape, storage format, optional
/// dense block, and whether it is a program input (vs. an intermediate or
/// output produced by an expression).
#[derive(Debug, Clone, PartialEq)]
pub struct TensorDecl {
    /// Unique name.
    pub name: String,
    /// Logical element-space shape.
    pub shape: Vec<usize>,
    /// Per-level storage format (mode order = level order).
    pub format: Format,
    /// Dense inner block for block-sparse matrices (`[1, 1]` = scalar).
    pub block: [usize; 2],
    /// `true` for program inputs.
    pub is_input: bool,
}

/// A tensor use: the tensor plus the index variable bound to each level.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Access {
    /// Tensor being accessed.
    pub tensor: TensorId,
    /// One index variable per level, in mode order.
    pub indices: Vec<IndexVar>,
}

/// One Einsum expression: `output[..] reduce_op= op(inputs...)`, reducing
/// over `reduce`.
#[derive(Debug, Clone, PartialEq)]
pub struct Einsum {
    /// The produced access.
    pub output: Access,
    /// Input accesses (1 for unary, 2 for binary, n for chained `Mul`).
    pub inputs: Vec<Access>,
    /// The ALU op the lowering combines the inputs with; `None` passes the
    /// one input through (a pure reduction, built by [`Program::reduce`]).
    pub op: Option<AluOp>,
    /// Indices reduced away (appear in inputs, not in the output).
    pub reduce: Vec<IndexVar>,
    /// Reduction operator.
    pub reduce_op: ReduceOp,
    /// Optional user dataflow order over this expression's indices
    /// (scheduling language, Section 4.2).
    pub dataflow: Option<Vec<IndexVar>>,
}

impl Einsum {
    /// All distinct index variables of this expression, output-first.
    pub fn index_set(&self) -> Vec<IndexVar> {
        let mut seen = Vec::new();
        for ix in
            self.output.indices.iter().chain(self.inputs.iter().flat_map(|a| a.indices.iter()))
        {
            if !seen.contains(ix) {
                seen.push(*ix);
            }
        }
        seen
    }
}

/// A whole inference pipeline: tensor declarations plus expressions in
/// program order, with named index variables.
///
/// # Example
///
/// ```
/// use fuseflow_core::ir::Program;
/// use fuseflow_tensor::Format;
///
/// let mut p = Program::new();
/// let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
/// let a = p.input("A", vec![4, 4], Format::csr());
/// let x = p.input("X", vec![4, 8], Format::dense(2));
/// let t = p.contract("T", vec![i, j], vec![(a, vec![i, k]), (x, vec![k, j])], vec![k], Format::csr());
/// p.mark_output(t);
/// assert_eq!(p.exprs().len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Program {
    tensors: Vec<TensorDecl>,
    names: HashSet<String>,
    exprs: Vec<Einsum>,
    index_names: Vec<String>,
    index_sizes: Vec<Option<usize>>,
    outputs: Vec<TensorId>,
    /// The regions `pipeline::compile_with` has compiled for this program as
    /// it is now, and the reference `pipeline::verify` last compared
    /// against: emptied by every edit, not copied by `Clone`, not printed.
    pub(crate) memo: ProgramMemo,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("tensors", &self.tensors)
            .field("names", &self.names)
            .field("exprs", &self.exprs)
            .field("index_names", &self.index_names)
            .field("index_sizes", &self.index_sizes)
            .field("outputs", &self.outputs)
            .finish()
    }
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Every public `&mut self` method calls this first (the convenience
    /// builders through [`Program::expr`]): an edit can change what any
    /// region fuses or lowers to (`live_outs` reads the outputs and the later
    /// expressions), so the compiled regions are dropped. So are the
    /// reference outputs `verify` keeps: an edit can change what an output
    /// holds, or which tensors are outputs.
    fn edit(&mut self) {
        self.memo = ProgramMemo::default();
    }

    /// Interns a fresh index variable with the given display name.
    pub fn index(&mut self, name: impl Into<String>) -> IndexVar {
        self.edit();
        self.index_names.push(name.into());
        self.index_sizes.push(None);
        IndexVar(self.index_names.len() as u32 - 1)
    }

    /// Display name of an index variable.
    pub fn index_name(&self, ix: IndexVar) -> &str {
        &self.index_names[ix.0 as usize]
    }

    /// Display name of `ix`, if this program declared it.
    pub(crate) fn declared_index_name(&self, ix: IndexVar) -> Option<&str> {
        self.index_names.get(ix.0 as usize).map(String::as_str)
    }

    /// The extent (dimension size) bound to an index variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable was never used in an access.
    pub fn index_size(&self, ix: IndexVar) -> usize {
        self.index_sizes[ix.0 as usize].expect("index variable never bound to a dimension")
    }

    /// Declares a program input.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or shape/format order mismatch.
    pub fn input(
        &mut self,
        name: impl Into<String>,
        shape: Vec<usize>,
        format: Format,
    ) -> TensorId {
        self.edit();
        self.declare(name, shape, format, [1, 1], true)
    }

    /// Declares a block-sparse program input (`shape` is the element
    /// space; levels index the block grid).
    ///
    /// # Panics
    ///
    /// As [`Program::input`], and if a blocked level's extent is not a
    /// multiple of its block.
    pub fn blocked_input(
        &mut self,
        name: impl Into<String>,
        shape: Vec<usize>,
        format: Format,
        block: [usize; 2],
    ) -> TensorId {
        self.edit();
        let name = name.into();
        let divides = shape.iter().zip(block).all(|(&dim, b)| dim % b == 0);
        assert!(divides, "block {block:?} does not divide the shape {shape:?} of '{name}'");
        self.declare(name, shape, format, block, true)
    }

    fn declare(
        &mut self,
        name: impl Into<String>,
        shape: Vec<usize>,
        format: Format,
        block: [usize; 2],
        is_input: bool,
    ) -> TensorId {
        let name = name.into();
        assert!(self.names.insert(name.clone()), "duplicate tensor '{name}'");
        assert_eq!(shape.len(), format.order(), "shape/format order mismatch for '{name}'");
        let id = TensorId(self.tensors.len());
        self.tensors.push(TensorDecl { name, shape, format, block, is_input });
        id
    }

    fn bind_indices(&mut self, tensor: TensorId, indices: &[IndexVar]) {
        let decl = self.tensors[tensor.0].clone();
        assert_eq!(indices.len(), decl.shape.len(), "access arity mismatch for '{}'", decl.name);
        for (lvl, ix) in indices.iter().enumerate() {
            // Blocked tensors bind indices over the block grid.
            let size = decl.shape[lvl] / decl.block.get(lvl).unwrap_or(&1);
            let slot = &mut self.index_sizes[ix.0 as usize];
            match slot {
                None => *slot = Some(size),
                Some(s) => assert_eq!(
                    *s, size,
                    "index '{}' bound to conflicting sizes",
                    self.index_names[ix.0 as usize]
                ),
            }
        }
    }

    /// Adds a general expression producing a fresh tensor. `op` combines
    /// the inputs (`Mul` any number of them, another binary op two, a unary
    /// op one); `None` passes one input through. The output is blocked as
    /// its inputs are, and its shape is the extent of each output index
    /// (over the block grid for blocked inputs) times the block.
    ///
    /// # Panics
    ///
    /// Panics on an arity mismatch with `op`, inputs that disagree on the
    /// block, index extents that conflict, a reduced index that indexes no
    /// input, indexes the output or is listed twice, or a blocked expression
    /// that no tile primitive computes. A reduction sums over an index the inputs range
    /// over and the output drops. A blocked `Mul` is a tile matmul, so it must
    /// be exactly `[a, c]·[c, b] → [a, b]` reducing `[c]` over a square
    /// block; every other blocked op works tile by tile in place, so it must
    /// index each input exactly as its output and reduce nothing; a blocked
    /// pass-through reduction (`op == None`) is refused.
    #[allow(clippy::too_many_arguments)]
    pub fn expr(
        &mut self,
        name: impl Into<String>,
        out_indices: Vec<IndexVar>,
        inputs: Vec<(TensorId, Vec<IndexVar>)>,
        op: Option<AluOp>,
        reduce: Vec<IndexVar>,
        reduce_op: ReduceOp,
        format: Format,
    ) -> TensorId {
        self.edit();
        let name = name.into();
        assert!(!inputs.is_empty(), "expression needs at least one input");
        match op {
            Some(AluOp::Mul) => {}
            Some(op) => assert_eq!(inputs.len(), op.arity(), "operator arity mismatch"),
            None => assert_eq!(inputs.len(), 1, "operator arity mismatch"),
        }
        let block = self.tensor(inputs[0].0).block;
        for (t, ixs) in &inputs {
            assert_eq!(self.tensor(*t).block, block, "inputs of '{name}' disagree on the block");
            self.bind_indices(*t, ixs);
        }
        for (n, r) in reduce.iter().enumerate() {
            let in_input = inputs.iter().any(|(_, ixs)| ixs.contains(r));
            assert!(
                in_input && !out_indices.contains(r),
                "'{name}' reduces '{}', which must index an input and not the output",
                self.index_name(*r)
            );
            assert!(!reduce[..n].contains(r), "'{name}' reduces '{}' twice", self.index_name(*r));
        }
        if block != [1, 1] {
            let ixs: Vec<&[IndexVar]> = inputs.iter().map(|(_, ixs)| ixs.as_slice()).collect();
            let tile_op = match (op, &ixs[..], &out_indices[..], &reduce[..]) {
                (Some(AluOp::Mul), [[a, c], [c2, b]], [a2, b2], [c3]) => {
                    (a, b, c, c) == (a2, b2, c2, c3)
                        && a != b
                        && a != c
                        && b != c
                        && block[0] == block[1]
                }
                (Some(AluOp::Mul) | None, ..) => false,
                (Some(_), ..) => reduce.is_empty() && ixs.iter().all(|x| *x == out_indices),
            };
            assert!(tile_op, "blocked '{name}' has no tile primitive (see `Program::expr`)");
        }
        let shape: Vec<usize> = (out_indices.iter().enumerate())
            .map(|(lvl, ix)| self.index_size(*ix) * block.get(lvl).unwrap_or(&1))
            .collect();
        let out = self.declare(name, shape, format, block, false);
        self.bind_indices(out, &out_indices);
        self.exprs.push(Einsum {
            output: Access { tensor: out, indices: out_indices },
            inputs: inputs
                .into_iter()
                .map(|(tensor, indices)| Access { tensor, indices })
                .collect(),
            op,
            reduce,
            reduce_op,
            dataflow: None,
        });
        out
    }

    /// Convenience: a sum-contraction `out = Π inputs`, reducing `reduce`.
    pub fn contract(
        &mut self,
        name: impl Into<String>,
        out_indices: Vec<IndexVar>,
        inputs: Vec<(TensorId, Vec<IndexVar>)>,
        reduce: Vec<IndexVar>,
        format: Format,
    ) -> TensorId {
        self.expr(name, out_indices, inputs, Some(AluOp::Mul), reduce, ReduceOp::Sum, format)
    }

    /// Convenience: elementwise binary expression.
    pub fn binary(
        &mut self,
        name: impl Into<String>,
        op: AluOp,
        lhs: (TensorId, Vec<IndexVar>),
        rhs: (TensorId, Vec<IndexVar>),
        out_indices: Vec<IndexVar>,
        format: Format,
    ) -> TensorId {
        self.expr(name, out_indices, vec![lhs, rhs], Some(op), vec![], ReduceOp::Sum, format)
    }

    /// Convenience: unary elementwise map.
    pub fn map(
        &mut self,
        name: impl Into<String>,
        op: AluOp,
        input: (TensorId, Vec<IndexVar>),
        format: Format,
    ) -> TensorId {
        let out_indices = input.1.clone();
        self.expr(name, out_indices, vec![input], Some(op), vec![], ReduceOp::Sum, format)
    }

    /// Convenience: pure reduction (pass-through combine) over `reduce`.
    pub fn reduce(
        &mut self,
        name: impl Into<String>,
        input: (TensorId, Vec<IndexVar>),
        reduce: Vec<IndexVar>,
        reduce_op: ReduceOp,
        format: Format,
    ) -> TensorId {
        let out_indices: Vec<IndexVar> =
            input.1.iter().copied().filter(|ix| !reduce.contains(ix)).collect();
        self.expr(name, out_indices, vec![input], None, reduce, reduce_op, format)
    }

    /// Sets the user dataflow order for the most recent expression.
    ///
    /// # Panics
    ///
    /// Panics if no expression exists or the order is not a permutation of
    /// the expression's index set.
    pub fn set_dataflow(&mut self, order: Vec<IndexVar>) {
        self.edit();
        let e = self.exprs.last_mut().expect("no expression to schedule");
        let mut all = e.index_set();
        all.sort();
        let mut given = order.clone();
        given.sort();
        assert_eq!(all, given, "dataflow order must permute the expression's indices");
        e.dataflow = Some(order);
    }

    /// Marks a tensor as a program output.
    pub fn mark_output(&mut self, t: TensorId) {
        self.edit();
        if !self.outputs.contains(&t) {
            self.outputs.push(t);
        }
    }

    /// Tensor declarations.
    pub fn tensors(&self) -> &[TensorDecl] {
        &self.tensors
    }

    /// Declaration for an id.
    pub fn tensor(&self, t: TensorId) -> &TensorDecl {
        &self.tensors[t.0]
    }

    /// The expressions in program order.
    pub fn exprs(&self) -> &[Einsum] {
        &self.exprs
    }

    /// Declared outputs.
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// The tensors the region of expressions `r` must write back to memory:
    /// produced in it and consumed by a later expression or marked a program
    /// output, in production order. A range that is not inside the
    /// expressions (past the end, or reversed) produces nothing and gets an
    /// empty list, as `estimate` skips such a region; compiling it is a
    /// `FuseError::RegionOutOfRange`.
    pub fn live_outs(&self, r: &Range<usize>) -> Vec<TensorId> {
        let Some(region) = self.exprs.get(r.clone()) else { return Vec::new() };
        // In bounds: `get` succeeded, so `r.end <= exprs.len()`.
        let later = &self.exprs[r.end..];
        let consumed_later = |t| later.iter().any(|c| c.inputs.iter().any(|a| a.tensor == t));
        region
            .iter()
            .map(|e| e.output.tensor)
            .filter(|&t| consumed_later(t) || self.outputs.contains(&t))
            .collect()
    }

    /// Program inputs.
    pub fn inputs(&self) -> impl Iterator<Item = (TensorId, &TensorDecl)> {
        self.tensors.iter().enumerate().filter(|(_, d)| d.is_input).map(|(i, d)| (TensorId(i), d))
    }

    /// Pretty-prints an expression in Einsum notation.
    pub fn display_expr(&self, e: &Einsum) -> String {
        let acc = |a: &Access| {
            format!(
                "{}[{}]",
                self.tensor(a.tensor).name,
                a.indices.iter().map(|ix| self.index_name(*ix)).collect::<Vec<_>>().join(",")
            )
        };
        let rhs = e.inputs.iter().map(acc).collect::<Vec<_>>().join(match e.op {
            Some(AluOp::Mul | AluOp::MulElem) => " * ",
            Some(AluOp::Add) => " + ",
            Some(AluOp::Sub) => " - ",
            Some(AluOp::Div) => " / ",
            Some(AluOp::Max) => " max ",
            _ => " ",
        });
        let red = if e.reduce.is_empty() {
            String::new()
        } else {
            format!(
                " [{:?} over {}]",
                e.reduce_op,
                e.reduce.iter().map(|ix| self.index_name(*ix)).collect::<Vec<_>>().join(",")
            )
        };
        let op_prefix = match e.op {
            Some(op) if op.arity() == 1 => format!("{op:?} "),
            _ => String::new(),
        };
        format!("{} = {op_prefix}{rhs}{red}", acc(&e.output))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matmul_chain() {
        let mut p = Program::new();
        let (i, k, j, l) = (p.index("i"), p.index("k"), p.index("j"), p.index("l"));
        let a = p.input("A", vec![4, 5], Format::csr());
        let b = p.input("B", vec![5, 6], Format::csr());
        let c = p.input("C", vec![6, 7], Format::dense(2));
        let t = p.contract(
            "T",
            vec![i, j],
            vec![(a, vec![i, k]), (b, vec![k, j])],
            vec![k],
            Format::csr(),
        );
        let d = p.contract(
            "D",
            vec![i, l],
            vec![(t, vec![i, j]), (c, vec![j, l])],
            vec![j],
            Format::csr(),
        );
        p.mark_output(d);
        assert_eq!(p.exprs().len(), 2);
        assert_eq!(p.index_size(i), 4);
        assert_eq!(p.index_size(j), 6);
        assert_eq!(p.tensor(t).shape, vec![4, 6]);
        assert!(p.display_expr(&p.exprs()[0]).contains("T[i,j] = A[i,k] * B[k,j]"));
    }

    #[test]
    #[should_panic(expected = "conflicting sizes")]
    fn inconsistent_extent_panics() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![4, 5], Format::csr());
        let b = p.input("B", vec![6, 7], Format::csr());
        let _ = p.contract(
            "T",
            vec![i, j],
            vec![(a, vec![i, j]), (b, vec![i, j])],
            vec![],
            Format::csr(),
        );
    }

    #[test]
    fn unary_and_reduce_builders() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![3, 3], Format::csr());
        let r = p.map("R", AluOp::Relu, (a, vec![i, j]), Format::csr());
        let m = p.reduce("M", (r, vec![i, j]), vec![j], ReduceOp::Max, Format::dense_vec());
        assert_eq!(p.tensor(m).shape, vec![3]);
        assert_eq!(p.exprs()[1].op, None);
        assert_eq!(p.exprs()[1].reduce_op, ReduceOp::Max);
    }

    #[test]
    fn dataflow_schedule_attaches() {
        let mut p = Program::new();
        let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
        let a = p.input("A", vec![2, 2], Format::csr());
        let b = p.input("B", vec![2, 2], Format::csr());
        let _ = p.contract(
            "T",
            vec![i, j],
            vec![(a, vec![i, k]), (b, vec![k, j])],
            vec![k],
            Format::csr(),
        );
        p.set_dataflow(vec![i, k, j]);
        assert_eq!(p.exprs()[0].dataflow, Some(vec![i, k, j]));
    }

    #[test]
    #[should_panic(expected = "must permute")]
    fn bad_dataflow_panics() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 2], Format::csr());
        let _ = p.map("R", AluOp::Relu, (a, vec![i, j]), Format::csr());
        p.set_dataflow(vec![i]);
    }

    #[test]
    fn blocked_input_binds_grid_extents() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let q = p.blocked_input("Q", vec![64, 32], Format::csr(), [16, 16]);
        let e = p.map("E", AluOp::Exp, (q, vec![i, j]), Format::csr());
        assert_eq!(p.index_size(i), 4);
        assert_eq!(p.index_size(j), 2);
        assert_eq!((&p.tensor(e).shape, p.tensor(e).block), (&vec![64, 32], [16, 16]));
    }

    #[test]
    #[should_panic(expected = "block [16, 16] does not divide the shape [64, 40] of 'Q'")]
    fn blocked_input_needs_a_dividing_block() {
        Program::new().blocked_input("Q", vec![64, 40], Format::csr(), [16, 16]);
    }

    /// A contraction of `[b, b]`-blocked inputs declares the blocked output
    /// that block-sparse pipelines stream: the grid extents times the block.
    #[test]
    fn contract_of_blocked_inputs_declares_a_blocked_output() {
        let mut p = Program::new();
        let (i, k, j) = (p.index("i"), p.index("k"), p.index("j"));
        let a = p.blocked_input("A", vec![32, 16], Format::dense(2), [8, 8]);
        let b = p.blocked_input("B", vec![16, 24], Format::csr(), [8, 8]);
        let ab = vec![(a, vec![i, k]), (b, vec![k, j])];
        let t = p.contract("T", vec![i, j], ab, vec![k], Format::csr());
        let want = TensorDecl {
            name: "T".into(),
            shape: vec![32, 24],
            format: Format::csr(),
            block: [8, 8],
            is_input: false,
        };
        assert_eq!(p.tensor(t), &want);
        assert_eq!((p.index_size(i), p.index_size(j)), (4, 3));
    }

    #[test]
    #[should_panic(expected = "inputs of 'T' disagree on the block")]
    fn inputs_disagreeing_on_the_block_panic() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.blocked_input("A", vec![16, 16], Format::csr(), [4, 4]);
        let b = p.input("B", vec![4, 4], Format::csr());
        p.binary("T", AluOp::Add, (a, vec![i, j]), (b, vec![i, j]), vec![i, j], Format::csr());
    }

    /// `S[i,j] = Σ_k Q[i,k]·K[j,k]` needs `K`'s tiles transposed, which the
    /// tile matmul does not do: it multiplies the stored `K` tile as it is.
    #[test]
    #[should_panic(expected = "blocked 'S' has no tile primitive")]
    fn blocked_contraction_against_a_transposed_view_panics() {
        let mut p = Program::new();
        let (i, j, k) = (p.index("i"), p.index("j"), p.index("k"));
        let q = p.blocked_input("Q", vec![16, 8], Format::dense(2), [4, 4]);
        let kt = p.blocked_input("K", vec![16, 8], Format::dense(2), [4, 4]);
        let qk = vec![(q, vec![i, k]), (kt, vec![j, k])];
        p.contract("S", vec![i, j], qk, vec![k], Format::dense(2));
    }

    /// Every other blocked op works tile by tile in place: no broadcast, no
    /// transposed operand, no reduction, and no pass-through reduction.
    #[test]
    fn blocked_ops_must_work_tile_by_tile() {
        let refused = |build: fn(&mut Program, TensorId, TensorId, [IndexVar; 2])| {
            let mut p = Program::new();
            let ij = [p.index("i"), p.index("j")];
            let a = p.blocked_input("A", vec![8, 8], Format::csr(), [4, 4]);
            let b = p.blocked_input("B", vec![8, 8], Format::csr(), [4, 4]);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                build(&mut p, a, b, ij);
            }));
            let msg = caught.expect_err("must be refused");
            msg.downcast_ref::<String>().expect("formatted message").contains("no tile primitive")
        };
        assert!(refused(|p, a, b, [i, j]| {
            p.binary("T", AluOp::Add, (a, vec![i, j]), (b, vec![j, i]), vec![i, j], Format::csr());
        }));
        assert!(refused(|p, a, b, [i, j]| {
            p.binary(
                "T",
                AluOp::MulElem,
                (a, vec![i, j]),
                (b, vec![i, j]),
                vec![j, i],
                Format::csr(),
            );
        }));
        assert!(refused(|p, a, b, [i, j]| {
            p.binary("T", AluOp::Mul, (a, vec![i, j]), (b, vec![i, j]), vec![i, j], Format::csr());
        }));
        assert!(refused(|p, a, _, [i, j]| {
            p.reduce("T", (a, vec![i, j]), vec![j], ReduceOp::Sum, Format::sparse_vec());
        }));
        // The block-sparse attention's four expressions are all tile ops.
        let mut p = Program::new();
        let (i, j, k, l) = (p.index("i"), p.index("j"), p.index("k"), p.index("l"));
        let q = p.blocked_input("Q", vec![8, 8], Format::dense(2), [4, 4]);
        let kt = p.blocked_input("K", vec![8, 8], Format::dense(2), [4, 4]);
        let m = p.blocked_input("M", vec![8, 8], Format::csr(), [4, 4]);
        let csr = Format::csr;
        let s =
            p.contract("S", vec![i, j], vec![(q, vec![i, k]), (kt, vec![k, j])], vec![k], csr());
        let sm =
            p.binary("Sm", AluOp::MulElem, (s, vec![i, j]), (m, vec![i, j]), vec![i, j], csr());
        let e = p.map("E", AluOp::Exp, (sm, vec![i, j]), csr());
        p.contract("O", vec![i, l], vec![(e, vec![i, j]), (q, vec![j, l])], vec![j], csr());
    }

    /// `z` ranges over nothing, so there is nothing to sum over.
    #[test]
    #[should_panic(expected = "'T' reduces 'z', which must index an input and not the output")]
    fn reducing_an_index_no_input_has_panics() {
        let mut p = Program::new();
        let (i, k, z) = (p.index("i"), p.index("k"), p.index("z"));
        let a = p.input("A", vec![4, 4], Format::csr());
        let (fmt, sum) = (Format::sparse_vec(), ReduceOp::Sum);
        p.expr("T", vec![i], vec![(a, vec![i, k])], None, vec![k, z], sum, fmt);
    }

    /// `T[i,k]` keeps `k`, so it cannot also sum over it.
    #[test]
    #[should_panic(expected = "'T' reduces 'k', which must index an input and not the output")]
    fn reducing_an_output_index_panics() {
        let mut p = Program::new();
        let (i, k) = (p.index("i"), p.index("k"));
        let a = p.input("A", vec![4, 4], Format::csr());
        p.expr("T", vec![i, k], vec![(a, vec![i, k])], None, vec![k], ReduceOp::Sum, Format::csr());
    }

    /// Each listed index lowers to one reducer, so `k` listed twice would
    /// sum over `i` as well.
    #[test]
    #[should_panic(expected = "'T' reduces 'k' twice")]
    fn reducing_an_index_twice_panics() {
        let mut p = Program::new();
        let (i, k) = (p.index("i"), p.index("k"));
        let a = p.input("A", vec![4, 4], Format::csr());
        let (fmt, sum) = (Format::sparse_vec(), ReduceOp::Sum);
        p.expr("T", vec![i], vec![(a, vec![i, k])], None, vec![k, k], sum, fmt);
    }
}
