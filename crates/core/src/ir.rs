//! The Einsum intermediate representation (Fig 6b of the paper).
//!
//! Models lower to a sequence of [`Einsum`] expressions over declared
//! tensors: contractions, elementwise binary operations (whose sparse merge
//! semantics are intersection for multiplication and union for
//! addition-like operators), unary maps (including the SAMML non-linear
//! extensions), and reductions. Sparse formats annotate every tensor
//! (Section 4.1); optional per-expression dataflow orders and `Fuse{}`
//! regions come from the scheduling language (`crate::schedule`).

use fuseflow_sam::AluOp;
pub use fuseflow_sam::ReduceOp;
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

/// How an expression combines its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// Product of all inputs; sparse iteration intersects shared indices.
    /// On blocked streams this is the tile contraction.
    Mul,
    /// Elementwise (masking) product that stays elementwise on blocks.
    MulElem,
    /// Sum of two inputs; sparse iteration unions shared indices.
    Add,
    /// Difference (union merge).
    Sub,
    /// Quotient (union merge; `0 / x = 0`).
    Div,
    /// Block-broadcast division by a column block (plain division on
    /// scalars); the blocked softmax normalizer.
    ColDiv,
    /// Block-broadcast subtraction of a column block (plain subtraction on
    /// scalars); the blocked softmax shift.
    ColSub,
    /// Elementwise maximum (union merge).
    Max,
    /// Single-input elementwise map.
    Unary(AluOp),
    /// Single-input passthrough (used for pure reductions/reformats).
    Id,
}

impl OpKind {
    /// `true` when shared sparse indices merge by intersection.
    pub fn intersects(&self) -> bool {
        matches!(self, OpKind::Mul | OpKind::MulElem)
    }

    /// Number of inputs this op combines (`None` = variadic `Mul`).
    pub fn arity(&self) -> Option<usize> {
        match self {
            OpKind::Mul => None,
            OpKind::Unary(_) | OpKind::Id => Some(1),
            _ => Some(2),
        }
    }

    /// The ALU op realizing this combine for a pair of operands.
    pub fn alu(&self) -> Option<AluOp> {
        match self {
            OpKind::Mul => Some(AluOp::Mul),
            OpKind::MulElem => Some(AluOp::MulElem),
            OpKind::Add => Some(AluOp::Add),
            OpKind::Sub => Some(AluOp::Sub),
            OpKind::Div => Some(AluOp::Div),
            OpKind::ColDiv => Some(AluOp::BlockColDiv),
            OpKind::ColSub => Some(AluOp::BlockColSub),
            OpKind::Max => Some(AluOp::Max),
            OpKind::Unary(op) => Some(*op),
            OpKind::Id => None,
        }
    }
}

/// One Einsum expression: `output[..] reduce_op= op(inputs...)`, reducing
/// over `reduce`.
#[derive(Debug, Clone, PartialEq)]
pub struct Einsum {
    /// The produced access.
    pub output: Access,
    /// Input accesses (1 for unary, 2 for binary, n for chained `Mul`).
    pub inputs: Vec<Access>,
    /// Combination operator.
    pub op: OpKind,
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
/// use fuseflow_core::ir::{OpKind, Program};
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
#[derive(Debug, Clone, Default)]
pub struct Program {
    tensors: Vec<TensorDecl>,
    names: HashSet<String>,
    exprs: Vec<Einsum>,
    index_names: Vec<String>,
    index_sizes: Vec<Option<usize>>,
    outputs: Vec<TensorId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Interns a fresh index variable with the given display name.
    pub fn index(&mut self, name: impl Into<String>) -> IndexVar {
        self.index_names.push(name.into());
        self.index_sizes.push(None);
        IndexVar(self.index_names.len() as u32 - 1)
    }

    /// Display name of an index variable.
    pub fn index_name(&self, ix: IndexVar) -> &str {
        &self.index_names[ix.0 as usize]
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
        self.declare(name, shape, format, [1, 1], true)
    }

    /// Declares a block-sparse program input (`shape` is the element
    /// space; levels index the block grid).
    pub fn blocked_input(
        &mut self,
        name: impl Into<String>,
        shape: Vec<usize>,
        format: Format,
        block: [usize; 2],
    ) -> TensorId {
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
            let size = decl.shape[lvl] / if lvl < 2 { decl.block[lvl] } else { 1 };
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

    /// Adds a general expression producing a fresh tensor.
    #[allow(clippy::too_many_arguments)]
    pub fn expr(
        &mut self,
        name: impl Into<String>,
        out_indices: Vec<IndexVar>,
        inputs: Vec<(TensorId, Vec<IndexVar>)>,
        op: OpKind,
        reduce: Vec<IndexVar>,
        reduce_op: ReduceOp,
        format: Format,
    ) -> TensorId {
        assert!(!inputs.is_empty(), "expression needs at least one input");
        if let Some(arity) = op.arity() {
            assert_eq!(inputs.len(), arity, "operator arity mismatch");
        }
        for (t, ixs) in &inputs {
            self.bind_indices(*t, ixs);
        }
        // Infer the output shape from index extents (block-grid extents for
        // blocked inputs produce blocked outputs; callers of blocked
        // pipelines use `expr_blocked`).
        let shape: Vec<usize> = out_indices.iter().map(|ix| self.index_size(*ix)).collect();
        let out = self.declare(name, shape, format, [1, 1], false);
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

    /// Adds an expression whose output carries dense blocks (block-sparse
    /// pipelines); index extents are over the block grid.
    #[allow(clippy::too_many_arguments)]
    pub fn expr_blocked(
        &mut self,
        name: impl Into<String>,
        out_indices: Vec<IndexVar>,
        inputs: Vec<(TensorId, Vec<IndexVar>)>,
        op: OpKind,
        reduce: Vec<IndexVar>,
        reduce_op: ReduceOp,
        format: Format,
        block: [usize; 2],
    ) -> TensorId {
        for (t, ixs) in &inputs {
            self.bind_indices(*t, ixs);
        }
        let shape: Vec<usize> = out_indices
            .iter()
            .enumerate()
            .map(|(lvl, ix)| self.index_size(*ix) * if lvl < 2 { block[lvl] } else { 1 })
            .collect();
        let out = self.declare(name, shape, format, block, false);
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
        self.expr(name, out_indices, inputs, OpKind::Mul, reduce, ReduceOp::Sum, format)
    }

    /// Convenience: elementwise binary expression.
    pub fn binary(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        lhs: (TensorId, Vec<IndexVar>),
        rhs: (TensorId, Vec<IndexVar>),
        out_indices: Vec<IndexVar>,
        format: Format,
    ) -> TensorId {
        self.expr(name, out_indices, vec![lhs, rhs], op, vec![], ReduceOp::Sum, format)
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
        self.expr(name, out_indices, vec![input], OpKind::Unary(op), vec![], ReduceOp::Sum, format)
    }

    /// Convenience: pure reduction (`Id` combine) over `reduce`.
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
        self.expr(name, out_indices, vec![input], OpKind::Id, reduce, reduce_op, format)
    }

    /// Sets the user dataflow order for the most recent expression.
    ///
    /// # Panics
    ///
    /// Panics if no expression exists or the order is not a permutation of
    /// the expression's index set.
    pub fn set_dataflow(&mut self, order: Vec<IndexVar>) {
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
    /// output, in production order.
    pub fn live_outs(&self, r: &Range<usize>) -> Vec<TensorId> {
        let consumed_later =
            |t| self.exprs[r.end..].iter().any(|c| c.inputs.iter().any(|a| a.tensor == t));
        self.exprs[r.clone()]
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
            OpKind::Mul | OpKind::MulElem => " * ",
            OpKind::Add => " + ",
            OpKind::Sub => " - ",
            OpKind::Div => " / ",
            OpKind::Max => " max ",
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
            OpKind::Unary(op) => format!("{op:?} "),
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
        assert_eq!(p.exprs()[1].op, OpKind::Id);
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
        let _ = p.expr_blocked(
            "S",
            vec![i, j],
            vec![(q, vec![i, j])],
            OpKind::Id,
            vec![],
            ReduceOp::Sum,
            Format::csr(),
            [16, 16],
        );
        assert_eq!(p.index_size(i), 4);
        assert_eq!(p.index_size(j), 2);
    }
}
