//! SAMML dataflow node kinds and their port signatures.

/// Scalar/block operations performed by [`NodeKind::Alu`] nodes.
///
/// The first group are SAM's tensor-algebra ops; the second group are the
/// ML extensions FuseFlow adds to SAM (non-linear functions, masking
/// support, constants) — "SAMML" primitives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AluOp {
    /// Elementwise addition (binary).
    Add,
    /// Elementwise subtraction (binary).
    Sub,
    /// Elementwise multiplication; on blocks this is a **tile matmul**
    /// (contraction ALU for blocked streams). Binary.
    Mul,
    /// Elementwise multiplication that stays elementwise on blocks
    /// (masking). Binary.
    MulElem,
    /// Elementwise division (`0/0 = 0`). Binary.
    Div,
    /// Elementwise maximum (binary).
    Max,
    /// Rectified linear unit (unary).
    Relu,
    /// Exponential (unary).
    Exp,
    /// GELU, tanh approximation (unary).
    Gelu,
    /// Logistic sigmoid (unary).
    Sigmoid,
    /// Multiply by a constant (unary).
    Scale(f32),
}

impl AluOp {
    /// Number of value operands.
    pub fn arity(&self) -> usize {
        match self {
            AluOp::Add | AluOp::Sub | AluOp::Mul | AluOp::MulElem | AluOp::Div | AluOp::Max => 2,
            AluOp::Relu | AluOp::Exp | AluOp::Gelu | AluOp::Sigmoid | AluOp::Scale(_) => 1,
        }
    }

    /// `true` when the operands of this binary op merge by coordinate union,
    /// an absent one counting as zero (`Add`, `Sub`, `Div`, `Max`); `false`
    /// when they intersect, because a zero annihilates (`Mul`, `MulElem`),
    /// and for unary ops. The compiler's lowering, interpreter and cost
    /// heuristic all read the merge from here.
    pub fn unions(&self) -> bool {
        matches!(self, AluOp::Add | AluOp::Sub | AluOp::Div | AluOp::Max)
    }

    /// Applies the op to scalars.
    ///
    /// # Panics
    ///
    /// Panics if called with the wrong arity (second operand ignored for
    /// unary ops).
    pub fn apply_scalar(&self, a: f32, b: f32) -> f32 {
        match self {
            AluOp::Add => a + b,
            AluOp::Sub => a - b,
            AluOp::Mul | AluOp::MulElem => a * b,
            AluOp::Div => {
                if a == 0.0 {
                    0.0
                } else {
                    a / b
                }
            }
            AluOp::Max => a.max(b),
            AluOp::Relu => a.max(0.0),
            AluOp::Exp => a.exp(),
            AluOp::Gelu => 0.5 * a * (1.0 + (0.797_884_6 * (a + 0.044_715 * a * a * a)).tanh()),
            AluOp::Sigmoid => 1.0 / (1.0 + (-a).exp()),
            AluOp::Scale(s) => a * s,
        }
    }

    /// Number of floating-point operations this op contributes per scalar
    /// element (for instrumentation/heuristic agreement).
    pub fn flops_per_elem(&self) -> u64 {
        match self {
            AluOp::Gelu => 8,
            AluOp::Exp | AluOp::Sigmoid => 4,
            _ => 1,
        }
    }
}

/// Reduction operators of [`NodeKind::Spacc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum-reduction.
    Sum,
    /// Max-reduction (`f32::max`: a NaN loses to any number).
    Max,
}

impl ReduceOp {
    /// Applies the reduction to scalars.
    pub fn apply(&self, a: f32, b: f32) -> f32 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
        }
    }
}

/// The deepest [`NodeKind::Spacc`] order: how many free rows a reduction may
/// have below it. In the compiler the lowering is its only reader: it
/// refuses a reduction with more ("needs a deeper accumulator"), and fusion
/// picks its order without it. [`SamGraph::validate`](crate::SamGraph::validate)
/// refuses a deeper `Spacc` ([`GraphError::DeepAccumulator`](crate::GraphError::DeepAccumulator)).
pub const MAX_SPACC_ORDER: usize = 1;

/// Where a tensor lives during execution; controls whether touches are
/// charged to the DRAM model or considered on-chip (BRAM/registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemLocation {
    /// Off-chip DRAM: every touch is charged to the memory model.
    #[default]
    Dram,
    /// On-chip storage: no DRAM traffic.
    OnChip,
}

/// A SAMML dataflow node kind.
///
/// Ports follow fixed conventions documented per variant; see
/// [`NodeKind::input_ports`] / [`NodeKind::output_ports`].
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Emits the root reference stream `[Ref(0), Done]`.
    ///
    /// Outputs: `0: ref`.
    Root,
    /// Scans one level of an input tensor: for each input reference, emits
    /// the fiber's coordinates and child references.
    ///
    /// Inputs: `0: ref`. Outputs: `0: crd`, `1: ref`.
    LevelScanner {
        /// Input tensor slot in the graph's tensor table.
        tensor: usize,
        /// Level scanned.
        level: usize,
    },
    /// Repeats each base element once per element of the corresponding
    /// repeat-signal fiber (SAM's `RepSigGen` + `Repeat` merged).
    ///
    /// A base element is consumed when the first element of its rep fiber
    /// arrives. An empty rep fiber repeats nothing: its base element, never
    /// loaded, is consumed when the fiber's closing `Stop(k)` is at the rep
    /// head and that element is at the base head, and for `k ≥ 1` the base
    /// `Stop(k - 1)` behind it is consumed once it reaches the head. Like
    /// every primitive, it reads only the heads of its inputs.
    ///
    /// Inputs: `0: base (any payload)`, `1: rep (crd)`. Outputs: `0: repeated base`.
    Repeat,
    /// Coordinate intersection of two streams (conjunctive merge, for
    /// multiplication).
    ///
    /// Inputs: `0: crdA`, `1: payloadA`, `2: crdB`, `3: payloadB` (payload
    /// ports optional). Outputs: `0: crd`, `1: payloadA`, `2: payloadB`.
    Intersect,
    /// Coordinate union of two streams (disjunctive merge, for addition).
    /// Missing sides produce the empty payload (`Payload::Empty` of
    /// `fuseflow-sim`).
    ///
    /// Ports as [`NodeKind::Intersect`].
    Union,
    /// Left-outer coordinate merge: emits exactly the left side's
    /// coordinates, with the right payload or the empty payload.
    /// Used when joining a *streamed intermediate* (left) at a
    /// non-innermost level: the intermediate's deeper fibers stay aligned
    /// while absent right-side operands contribute zeros.
    ///
    /// Ports as [`NodeKind::Intersect`].
    UnionLeft,
    /// Fetches values of an input tensor: `ref -> val`. `Empty` references
    /// produce zero values.
    ///
    /// Inputs: `0: ref`. Outputs: `0: val`.
    Array {
        /// Input tensor slot.
        tensor: usize,
    },
    /// Elementwise compute unit.
    ///
    /// Inputs: `0: val`, `1: val` (binary ops only). Outputs: `0: val`.
    Alu {
        /// Operation performed.
        op: AluOp,
    },
    /// Sparse accumulator of order `order` (SAM's reducer family; the
    /// interleaved reduction of Section 6 that enables factored iteration).
    /// It merges each value into a map keyed by the coordinates of the
    /// `order` free levels below the reduced one, across the `Stop(k <
    /// order)` boundaries between the fibers it reduces, and flushes the map
    /// as one sorted fiber on `Stop(k >= order)`; the output is one
    /// stop-level shallower. Order 0 (`Reduce`) collapses each innermost
    /// fiber to one value; order 1 (`Spacc1`, the "Vector (1) Reducer")
    /// accumulates `(crd, val)` fibers. At most [`MAX_SPACC_ORDER`]
    /// (`validate` refuses a deeper one).
    ///
    /// Inputs and outputs: `0..order: crd`, `order: val`.
    Spacc {
        /// Number of free levels below the reduced one.
        order: usize,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// Writes the coordinates of one output level.
    ///
    /// Inputs: `0: crd`.
    CrdWriter {
        /// Output slot in the graph's output table.
        output: usize,
        /// Level written.
        level: usize,
    },
    /// Writes the output value stream.
    ///
    /// Inputs: `0: val`.
    ValWriter {
        /// Output slot.
        output: usize,
    },
    /// Splits a `(crd, payload)` stream element-round-robin across `factor`
    /// branches; stop tokens broadcast to every branch (Section 7,
    /// "Parallelization": stream parallelizer).
    ///
    /// Inputs: `0: crd`, `1: payload`. Outputs: `2b: crd`, `2b+1: payload`
    /// for branch `b`.
    Parallelizer {
        /// Number of branches.
        factor: usize,
    },
    /// Merges `factor` branch streams back in round-robin fiber order
    /// (stream serializer). `depth` is the number of nesting levels each
    /// round-robin unit spans (0 = single elements, 1 = `Stop(0)`-terminated
    /// fibers, ...). The *order* port receives the original pre-split
    /// coordinate stream, which determines exactly how many units each
    /// barrier group contains (this disambiguates units whose boundary stop
    /// coalesced into a barrier stop).
    ///
    /// Inputs: `b in 0..factor: branch b`, `factor: order (crd)`.
    /// Outputs: `0: merged`.
    Serializer {
        /// Number of branches.
        factor: usize,
        /// Nesting depth of one round-robin unit.
        depth: u8,
    },
}

/// A [`NodeKind::Spacc`]'s name by its order: `Reduce` at 0, `Spacc<order>`
/// above.
pub(crate) fn spacc_name(order: usize) -> String {
    if order == 0 {
        "Reduce".into()
    } else {
        format!("Spacc{order}")
    }
}

/// The kind of data a stream carries, used for graph validation and
/// visualization (solid/dashed/double arrows in the paper's figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Coordinate stream.
    Crd,
    /// Reference (position) stream.
    Ref,
    /// Value stream.
    Val,
}

impl std::fmt::Display for StreamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamKind::Crd => write!(f, "crd"),
            StreamKind::Ref => write!(f, "ref"),
            StreamKind::Val => write!(f, "val"),
        }
    }
}

/// A port signature: stream kind plus whether connection is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSig {
    /// Expected stream kind (None = any payload-carrying stream).
    pub kind: Option<StreamKind>,
    /// Whether the port must be connected for the graph to validate.
    pub required: bool,
}

const fn req(kind: StreamKind) -> PortSig {
    PortSig { kind: Some(kind), required: true }
}

const fn opt_any() -> PortSig {
    PortSig { kind: None, required: false }
}

const fn req_any() -> PortSig {
    PortSig { kind: None, required: true }
}

/// A [`NodeKind::Spacc`]'s ports, in and out: `order` crd, then one val.
fn spacc_ports(order: usize) -> Vec<PortSig> {
    let mut v = vec![req(StreamKind::Crd); order];
    v.push(req(StreamKind::Val));
    v
}

impl NodeKind {
    /// Input port signatures.
    pub fn input_ports(&self) -> Vec<PortSig> {
        use StreamKind::*;
        match self {
            NodeKind::Root => vec![],
            NodeKind::LevelScanner { .. } => vec![req(Ref)],
            NodeKind::Repeat => vec![req_any(), req(Crd)],
            NodeKind::Intersect | NodeKind::Union | NodeKind::UnionLeft => {
                vec![req(Crd), opt_any(), req(Crd), opt_any()]
            }
            NodeKind::Array { .. } => vec![req(Ref)],
            NodeKind::Alu { op } => {
                if op.arity() == 2 {
                    vec![req(Val), req(Val)]
                } else {
                    vec![req(Val)]
                }
            }
            NodeKind::Spacc { order, .. } => spacc_ports(*order),
            NodeKind::CrdWriter { .. } => vec![req(Crd)],
            NodeKind::ValWriter { .. } => vec![req(Val)],
            NodeKind::Parallelizer { .. } => vec![req(Crd), opt_any()],
            NodeKind::Serializer { factor, .. } => {
                let mut v = vec![req_any(); *factor];
                v.push(req(Crd));
                v
            }
        }
    }

    /// Output port signatures.
    pub fn output_ports(&self) -> Vec<PortSig> {
        use StreamKind::*;
        match self {
            NodeKind::Root => vec![req(Ref)],
            NodeKind::LevelScanner { .. } => vec![req(Crd), req(Ref)],
            NodeKind::Repeat => vec![req_any()],
            NodeKind::Intersect | NodeKind::Union | NodeKind::UnionLeft => {
                vec![req(Crd), opt_any(), opt_any()]
            }
            NodeKind::Array { .. } => vec![req(Val)],
            NodeKind::Alu { .. } => vec![req(Val)],
            NodeKind::Spacc { order, .. } => spacc_ports(*order),
            NodeKind::CrdWriter { .. } | NodeKind::ValWriter { .. } => vec![],
            NodeKind::Parallelizer { factor } => {
                let mut v = Vec::new();
                for _ in 0..*factor {
                    v.push(req(Crd));
                    v.push(opt_any());
                }
                v
            }
            NodeKind::Serializer { .. } => vec![req_any()],
        }
    }

    /// Short display name used in node labels, anchors and error messages.
    pub fn name(&self) -> String {
        match self {
            NodeKind::Root => "Root".into(),
            NodeKind::LevelScanner { tensor, level } => format!("LS[t{tensor}.l{level}]"),
            NodeKind::Repeat => "Repeat".into(),
            NodeKind::Intersect => "Intersect".into(),
            NodeKind::Union => "Union".into(),
            NodeKind::UnionLeft => "UnionLeft".into(),
            NodeKind::Array { tensor } => format!("Array[t{tensor}]"),
            NodeKind::Alu { op } => format!("ALU[{op:?}]"),
            NodeKind::Spacc { order, op } => format!("{}[{op:?}]", spacc_name(*order)),
            NodeKind::CrdWriter { output, level } => format!("CrdWriter[o{output}.l{level}]"),
            NodeKind::ValWriter { output } => format!("ValWriter[o{output}]"),
            NodeKind::Parallelizer { factor } => format!("Par[{factor}]"),
            NodeKind::Serializer { factor, depth } => format!("Ser[{factor},d{depth}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_arity() {
        assert_eq!(AluOp::Add.arity(), 2);
        assert_eq!(AluOp::Relu.arity(), 1);
        assert_eq!(AluOp::Scale(2.0).arity(), 1);
        assert!(AluOp::Max.unions() && !AluOp::MulElem.unions() && !AluOp::Relu.unions());
    }

    #[test]
    fn alu_scalar_semantics() {
        assert_eq!(AluOp::Add.apply_scalar(2.0, 3.0), 5.0);
        assert_eq!(AluOp::Relu.apply_scalar(-2.0, 0.0), 0.0);
        assert_eq!(AluOp::Div.apply_scalar(0.0, 0.0), 0.0);
        assert_eq!(AluOp::Scale(3.0).apply_scalar(2.0, 0.0), 6.0);
        assert_eq!(AluOp::Max.apply_scalar(1.0, 4.0), 4.0);
    }

    #[test]
    fn reduce_semantics() {
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
    }

    #[test]
    fn port_signatures() {
        let ls = NodeKind::LevelScanner { tensor: 0, level: 0 };
        assert_eq!(ls.input_ports().len(), 1);
        assert_eq!(ls.output_ports().len(), 2);
        let isect = NodeKind::Intersect;
        assert_eq!(isect.input_ports().len(), 4);
        assert!(!isect.input_ports()[1].required);
        let par = NodeKind::Parallelizer { factor: 4 };
        assert_eq!(par.output_ports().len(), 8);
        let ser = NodeKind::Serializer { factor: 4, depth: 1 };
        assert_eq!(ser.input_ports().len(), 5);
        for (order, name) in [(0, "Reduce[Max]"), (1, "Spacc1[Max]")] {
            let spacc = NodeKind::Spacc { order, op: ReduceOp::Max };
            let kinds: Vec<_> = spacc.input_ports().iter().map(|p| p.kind).collect();
            assert_eq!(kinds.len(), order + 1);
            assert!(kinds[..order].iter().all(|&k| k == Some(StreamKind::Crd)));
            assert_eq!(kinds[order], Some(StreamKind::Val));
            assert_eq!(spacc.output_ports(), spacc.input_ports());
            assert_eq!(spacc.name(), name);
        }
    }
}
