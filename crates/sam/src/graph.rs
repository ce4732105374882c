//! The SAMML dataflow graph: nodes, streams, tensor/output bindings.

use crate::{MemLocation, NodeKind, MAX_SPACC_ORDER};
use fuseflow_tensor::Format;
use std::collections::HashMap;

/// Identifier of a node within a [`SamGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// One endpoint of a stream: a node plus a port index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Port {
    /// Owning node.
    pub node: NodeId,
    /// Port index within the node's input or output port list.
    pub port: usize,
}

/// A directed stream connection from an output port to an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer endpoint.
    pub src: Port,
    /// Consumer endpoint.
    pub dst: Port,
}

/// An input-tensor binding slot; actual tensors are supplied at simulation
/// time by name.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorSlot {
    /// Binding name (matches the environment given to the simulator).
    pub name: String,
    /// Whether accesses are charged to DRAM or on-chip storage.
    pub location: MemLocation,
}

/// An output-tensor slot: the writers' target.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSlot {
    /// Output name.
    pub name: String,
    /// Logical shape.
    pub shape: Vec<usize>,
    /// Storage format to assemble.
    pub format: Format,
    /// Dense block shape (`[1, 1]` for scalar outputs).
    pub block: [usize; 2],
    /// Whether writes are charged to DRAM.
    pub location: MemLocation,
}

/// Errors reported by [`SamGraph::validate`]: one variant per structural
/// rule of a graph, each stated there alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A port index was out of range for its node.
    BadPort {
        /// Offending node.
        node: usize,
        /// Port index.
        port: usize,
        /// `true` for input ports.
        input: bool,
    },
    /// An input port has more than one incoming edge.
    MultipleWriters {
        /// Offending node.
        node: usize,
        /// Port index.
        port: usize,
    },
    /// A required input port is unconnected.
    Unconnected {
        /// Offending node.
        node: usize,
        /// Port index.
        port: usize,
    },
    /// The graph contains a cycle (SAMML graphs are DAGs).
    Cyclic,
    /// A node references a tensor or output slot that does not exist, or a
    /// coordinate writer a level its output's format does not have.
    BadSlot {
        /// Offending node.
        node: usize,
    },
    /// Two tensor slots or two output slots share a name. Bindings are by
    /// name at simulation time, so duplicates would silently shadow.
    DuplicateSlot {
        /// The duplicated name.
        name: String,
        /// `true` for output slots, `false` for tensor slots.
        output: bool,
    },
    /// A `Parallelizer` or `Serializer` with `factor: 0`: it has no branch
    /// to deal a token to or take one from.
    ZeroFactor {
        /// Offending node.
        node: usize,
    },
    /// A `Spacc` deeper than [`MAX_SPACC_ORDER`]: no accumulator of that
    /// order exists.
    DeepAccumulator {
        /// Offending node.
        node: usize,
        /// Its order.
        order: usize,
    },
    /// An output slot without exactly one writer for one of its streams:
    /// each output is built by one `CrdWriter` per level of its format and
    /// one `ValWriter`.
    OutputWriters {
        /// Offending output slot.
        output: usize,
        /// The level whose `CrdWriter`s are counted, or `None` for the
        /// `ValWriter`s.
        level: Option<usize>,
        /// How many there are (0 or more than 1).
        writers: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::BadPort { node, port, input } => {
                let dir = if *input { "input" } else { "output" };
                write!(f, "node {node}: {dir} port {port} out of range")
            }
            GraphError::MultipleWriters { node, port } => {
                write!(f, "node {node}: input port {port} has multiple writers")
            }
            GraphError::Unconnected { node, port } => {
                write!(f, "node {node}: required input port {port} unconnected")
            }
            GraphError::Cyclic => write!(f, "graph contains a cycle"),
            GraphError::BadSlot { node } => {
                write!(f, "node {node} references a missing slot or output level")
            }
            GraphError::DuplicateSlot { name, output } => {
                let kind = if *output { "output" } else { "tensor" };
                write!(f, "duplicate {kind} slot name '{name}'")
            }
            GraphError::ZeroFactor { node } => write!(f, "node {node} has a branch factor of 0"),
            GraphError::DeepAccumulator { node, order } => write!(
                f,
                "node {node} is an accumulator of order {order}, past the deepest \
                 ({MAX_SPACC_ORDER})"
            ),
            GraphError::OutputWriters { output, level, writers } => {
                let stream = match level {
                    Some(l) => format!("level {l} coordinate"),
                    None => "value".into(),
                };
                write!(f, "output {output} has {writers} {stream} writers, not exactly one")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A SAMML dataflow graph (Fig 2 / Fig 10 of the paper): an acyclic network
/// of streaming primitives plus tensor and output bindings.
///
/// It is its nodes, edges (in insertion order) and slots, and keeps no
/// adjacency index: a pass that needs one builds it from [`SamGraph::edges`].
///
/// # Example
///
/// ```
/// use fuseflow_sam::{MemLocation, NodeKind, SamGraph};
/// use fuseflow_tensor::Format;
///
/// // root -> scan level 0 of tensor B -> write crds of output level 0.
/// let mut g = SamGraph::new();
/// let b = g.add_tensor("B", MemLocation::Dram);
/// let out = g.add_output("T", vec![4], Format::sparse_vec(), MemLocation::Dram);
/// let root = g.add_node(NodeKind::Root);
/// let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
/// let w = g.add_node(NodeKind::CrdWriter { output: out, level: 0 });
/// let vals = g.add_node(NodeKind::Array { tensor: b });
/// let vw = g.add_node(NodeKind::ValWriter { output: out });
/// g.connect(root, 0, ls, 0);
/// g.connect(ls, 0, w, 0);
/// g.connect(ls, 1, vals, 0);
/// g.connect(vals, 0, vw, 0);
/// assert!(g.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SamGraph {
    nodes: Vec<NodeKind>,
    edges: Vec<Edge>,
    tensors: Vec<TensorSlot>,
    outputs: Vec<OutputSlot>,
}

impl SamGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        SamGraph::default()
    }

    /// Registers an input tensor slot, returning its index.
    pub fn add_tensor(&mut self, name: impl Into<String>, location: MemLocation) -> usize {
        self.tensors.push(TensorSlot { name: name.into(), location });
        self.tensors.len() - 1
    }

    /// Registers an output slot, returning its index.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        shape: Vec<usize>,
        format: Format,
        location: MemLocation,
    ) -> usize {
        self.outputs.push(OutputSlot { name: name.into(), shape, format, block: [1, 1], location });
        self.outputs.len() - 1
    }

    /// Registers a blocked output slot.
    pub fn add_blocked_output(
        &mut self,
        name: impl Into<String>,
        shape: Vec<usize>,
        format: Format,
        block: [usize; 2],
        location: MemLocation,
    ) -> usize {
        self.outputs.push(OutputSlot { name: name.into(), shape, format, block, location });
        self.outputs.len() - 1
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.nodes.push(kind);
        NodeId(self.nodes.len() - 1)
    }

    /// Connects `src.out[src_port]` to `dst.in[dst_port]`. Output ports may
    /// fan out to multiple consumers; input ports accept one producer
    /// (checked in [`SamGraph::validate`]).
    pub fn connect(&mut self, src: NodeId, src_port: usize, dst: NodeId, dst_port: usize) {
        self.edges.push(Edge {
            src: Port { node: src, port: src_port },
            dst: Port { node: dst, port: dst_port },
        });
    }

    /// The node kinds, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[NodeKind] {
        &self.nodes
    }

    /// Node kind for an id.
    pub fn node(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.0]
    }

    /// Display label for a node: its kind's name.
    pub fn label(&self, id: NodeId) -> String {
        self.nodes[id.0].name()
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Input tensor slots.
    pub fn tensors(&self) -> &[TensorSlot] {
        &self.tensors
    }

    /// Output slots.
    pub fn outputs(&self) -> &[OutputSlot] {
        &self.outputs
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A display anchor for a node: `label#id`.
    pub fn node_anchor(&self, id: NodeId) -> String {
        format!("{}#{}", self.label(id), id.0)
    }

    /// A display anchor for an edge: `label#id.outP -> label#id.inQ`.
    pub fn edge_anchor(&self, e: &Edge) -> String {
        format!(
            "{}.out{} -> {}.in{}",
            self.node_anchor(e.src.node),
            e.src.port,
            self.node_anchor(e.dst.node),
            e.dst.port
        )
    }

    /// Validates every structural rule of a graph: unique slot names, each
    /// node's own rules ([`SamGraph::check_node`]), exactly one `CrdWriter`
    /// per level and one `ValWriter` per output slot, port ranges,
    /// single-writer inputs, required connections, and acyclicity. No other
    /// layer restates these rules: the simulator and the analyzer call this.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] found.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.validated_order().map(drop)
    }

    /// [`SamGraph::validate`], returning the topological order its
    /// acyclicity check computes (see [`SamGraph::topo_order`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] found.
    pub fn validated_order(&self) -> Result<Vec<NodeId>, GraphError> {
        // Unique slot names (bindings are by name at simulation time;
        // duplicates would silently shadow).
        let mut seen = std::collections::HashSet::new();
        for t in &self.tensors {
            if !seen.insert(t.name.as_str()) {
                return Err(GraphError::DuplicateSlot { name: t.name.clone(), output: false });
            }
        }
        seen.clear();
        for o in &self.outputs {
            if !seen.insert(o.name.as_str()) {
                return Err(GraphError::DuplicateSlot { name: o.name.clone(), output: true });
            }
        }
        // Each node's own rules, counting the writers of each output's
        // streams: its levels', then its values' (the last count).
        let mut writers: Vec<Vec<usize>> =
            self.outputs.iter().map(|o| vec![0; o.format.order() + 1]).collect();
        for (i, kind) in self.nodes.iter().enumerate() {
            self.check_node(NodeId(i))?;
            match *kind {
                NodeKind::CrdWriter { output, level } => writers[output][level] += 1,
                NodeKind::ValWriter { output } => {
                    writers[output][self.outputs[output].format.order()] += 1
                }
                _ => {}
            }
        }
        for (output, counts) in writers.iter().enumerate() {
            if let Some((l, &n)) = counts.iter().enumerate().find(|&(_, &n)| n != 1) {
                let level = (l + 1 < counts.len()).then_some(l);
                return Err(GraphError::OutputWriters { output, level, writers: n });
            }
        }
        // Port ranges and single writers.
        let mut writers: HashMap<(usize, usize), usize> = HashMap::new();
        for e in &self.edges {
            let s = e.src.node.0;
            let d = e.dst.node.0;
            if s >= self.nodes.len() || e.src.port >= self.nodes[s].output_ports().len() {
                return Err(GraphError::BadPort { node: s, port: e.src.port, input: false });
            }
            if d >= self.nodes.len() || e.dst.port >= self.nodes[d].input_ports().len() {
                return Err(GraphError::BadPort { node: d, port: e.dst.port, input: true });
            }
            let count = writers.entry((d, e.dst.port)).or_insert(0);
            *count += 1;
            if *count > 1 {
                return Err(GraphError::MultipleWriters { node: d, port: e.dst.port });
            }
        }
        // Required inputs connected.
        for (i, kind) in self.nodes.iter().enumerate() {
            for (p, sig) in kind.input_ports().iter().enumerate() {
                if sig.required && !writers.contains_key(&(i, p)) {
                    return Err(GraphError::Unconnected { node: i, port: p });
                }
            }
        }
        // Acyclicity via Kahn's algorithm.
        self.topo_order().ok_or(GraphError::Cyclic)
    }

    /// The rules a node keeps whatever it is wired to: the slot it names
    /// exists (for a `CrdWriter`, with the level), a `Parallelizer` or
    /// `Serializer` has a branch, and a `Spacc` is no deeper than
    /// [`MAX_SPACC_ORDER`]. [`SamGraph::validate`] checks them for every
    /// node; the simulator's one-node harness checks them for its node.
    ///
    /// # Errors
    ///
    /// [`GraphError::BadSlot`], [`GraphError::ZeroFactor`] or
    /// [`GraphError::DeepAccumulator`] naming `id`.
    pub fn check_node(&self, id: NodeId) -> Result<(), GraphError> {
        let node = id.0;
        let ok = match self.nodes[node] {
            NodeKind::LevelScanner { tensor, .. } | NodeKind::Array { tensor } => {
                tensor < self.tensors.len()
            }
            NodeKind::CrdWriter { output, level } => {
                self.outputs.get(output).is_some_and(|o| level < o.format.order())
            }
            NodeKind::ValWriter { output } => output < self.outputs.len(),
            NodeKind::Parallelizer { factor: 0 } | NodeKind::Serializer { factor: 0, .. } => {
                return Err(GraphError::ZeroFactor { node })
            }
            NodeKind::Spacc { order, .. } if order > MAX_SPACC_ORDER => {
                return Err(GraphError::DeepAccumulator { node, order })
            }
            _ => true,
        };
        ok.then_some(()).ok_or(GraphError::BadSlot { node })
    }

    /// A topological order of the nodes, or `None` if cyclic: Kahn's
    /// algorithm over a stack seeded with the in-degree-0 nodes in id order,
    /// successors visited in edge insertion order. The simulator's rank order
    /// (and with it every cycle count) is this order;
    /// `crates/sim/tests/random_graphs.rs` pins it against a reference copy
    /// of the loop. An edge into an existing node counts toward its
    /// in-degree even when its source is missing; an edge naming a missing
    /// node adds no successor (`validate` reports it).
    pub fn topo_order(&self) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in self.edges.iter().filter(|e| e.dst.node.0 < n) {
            indeg[e.dst.node.0] += 1;
        }
        let (offsets, targets) = self.successors();
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = stack.pop() {
            order.push(NodeId(u));
            for &v in &targets[offsets[u]..offsets[u + 1]] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Every node's successors as flat arrays `(offsets, targets)`: node
    /// `u`'s successors are `targets[offsets[u]..offsets[u + 1]]`, in edge
    /// insertion order. An edge naming a missing node is left out.
    pub fn successors(&self) -> (Vec<usize>, Vec<usize>) {
        let n = self.nodes.len();
        let inside = |e: &&Edge| e.src.node.0 < n && e.dst.node.0 < n;
        // Count each node's out-edges, then sum them so that `offsets[u]` is
        // the end of `u`'s run; filling from the last edge back moves it to
        // the start.
        let mut offsets = vec![0usize; n + 1];
        for e in self.edges.iter().filter(inside) {
            offsets[e.src.node.0] += 1;
        }
        let mut end = 0;
        for o in &mut offsets {
            end += *o;
            *o = end;
        }
        let mut targets = vec![0usize; end];
        for e in self.edges.iter().rev().filter(inside) {
            offsets[e.src.node.0] -= 1;
            targets[offsets[e.src.node.0]] = e.dst.node.0;
        }
        (offsets, targets)
    }

    /// Counts of each node kind (for compile statistics and tests).
    pub fn kind_histogram(&self) -> HashMap<String, usize> {
        let mut h = HashMap::new();
        for kind in &self.nodes {
            let key = match kind {
                NodeKind::Spacc { order, .. } => crate::node::spacc_name(*order),
                other => format!("{other:?}").split_whitespace().next().unwrap().to_string(),
            };
            *h.entry(key).or_insert(0) += 1;
        }
        h
    }
}

impl std::fmt::Display for SamGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SamGraph({} nodes, {} edges, {} tensors, {} outputs)",
            self.nodes.len(),
            self.edges.len(),
            self.tensors.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, ReduceOp};

    fn tiny_graph() -> (SamGraph, NodeId, NodeId) {
        let mut g = SamGraph::new();
        let t = g.add_tensor("B", MemLocation::Dram);
        let o = g.add_output("T", vec![4], Format::sparse_vec(), MemLocation::Dram);
        let root = g.add_node(NodeKind::Root);
        let ls = g.add_node(NodeKind::LevelScanner { tensor: t, level: 0 });
        let arr = g.add_node(NodeKind::Array { tensor: t });
        let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
        let vw = g.add_node(NodeKind::ValWriter { output: o });
        g.connect(root, 0, ls, 0);
        g.connect(ls, 0, cw, 0);
        g.connect(ls, 1, arr, 0);
        g.connect(arr, 0, vw, 0);
        (g, ls, arr)
    }

    #[test]
    fn valid_graph_passes() {
        let (g, _, _) = tiny_graph();
        assert!(g.validate().is_ok());
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn unconnected_required_port_fails() {
        let mut g = SamGraph::new();
        let t = g.add_tensor("B", MemLocation::Dram);
        g.add_node(NodeKind::LevelScanner { tensor: t, level: 0 });
        assert_eq!(g.validate(), Err(GraphError::Unconnected { node: 0, port: 0 }));
    }

    #[test]
    fn multiple_writers_fail() {
        let (mut g, ls, arr) = tiny_graph();
        g.connect(ls, 1, arr, 0); // second writer to arr.in0
        assert!(matches!(g.validate(), Err(GraphError::MultipleWriters { .. })));
    }

    #[test]
    fn bad_slot_fails() {
        let mut g = SamGraph::new();
        g.add_node(NodeKind::Array { tensor: 7 });
        assert_eq!(g.validate(), Err(GraphError::BadSlot { node: 0 }));
    }

    #[test]
    fn bad_port_fails() {
        let (mut g, ls, arr) = tiny_graph();
        g.connect(ls, 5, arr, 0);
        assert!(matches!(g.validate(), Err(GraphError::BadPort { input: false, .. })));
    }

    #[test]
    fn cycle_detected() {
        let mut g = SamGraph::new();
        let a = g.add_node(NodeKind::Alu { op: AluOp::Relu });
        let b = g.add_node(NodeKind::Alu { op: AluOp::Relu });
        g.connect(a, 0, b, 0);
        g.connect(b, 0, a, 0);
        assert_eq!(g.validate(), Err(GraphError::Cyclic));
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn fanout_is_allowed_and_indexed() {
        let (mut g, ls, _) = tiny_graph();
        let extra = g.add_node(NodeKind::Alu { op: AluOp::Relu });
        // NOTE: crd into a val port would be kind-mismatched in a real
        // compile; fan-out bookkeeping is what we check here.
        g.connect(ls, 0, extra, 0);
        assert!(g.validate().is_ok());
        let consumers: Vec<NodeId> = g
            .edges()
            .iter()
            .filter(|e| e.src == Port { node: ls, port: 0 })
            .map(|e| e.dst.node)
            .collect();
        assert_eq!(consumers, vec![NodeId(3), extra], "port 0 fans out in insertion order");
    }

    #[test]
    fn crd_writer_level_beyond_the_output_format_fails() {
        let (mut g, ls, _) = tiny_graph();
        // Output 0 is a sparse vector: one level.
        let cw = g.add_node(NodeKind::CrdWriter { output: 0, level: 1 });
        g.connect(ls, 0, cw, 0);
        assert_eq!(g.validate(), Err(GraphError::BadSlot { node: cw.0 }));
    }

    /// Each output is built by one `CrdWriter` per level and one
    /// `ValWriter`: a second writer of a stream, or none, is refused.
    #[test]
    fn each_output_stream_has_exactly_one_writer() {
        let writers = |output, level, writers| GraphError::OutputWriters { output, level, writers };
        let (mut g, _, arr) = tiny_graph();
        let vw = g.add_node(NodeKind::ValWriter { output: 0 });
        g.connect(arr, 0, vw, 0);
        assert_eq!(g.validate(), Err(writers(0, None, 2)), "two value writers");
        let (mut g, ls, _) = tiny_graph();
        let cw = g.add_node(NodeKind::CrdWriter { output: 0, level: 0 });
        g.connect(ls, 0, cw, 0);
        assert_eq!(g.validate(), Err(writers(0, Some(0), 2)), "two level-0 writers");
        let (mut g, ls, arr) = tiny_graph();
        let u = g.add_output("U", vec![4, 4], Format::csr(), MemLocation::Dram);
        let cw = g.add_node(NodeKind::CrdWriter { output: u, level: 0 });
        let vw = g.add_node(NodeKind::ValWriter { output: u });
        g.connect(ls, 0, cw, 0);
        g.connect(arr, 0, vw, 0);
        assert_eq!(g.validate(), Err(writers(u, Some(1), 0)), "no level-1 writer");
        let err = g.validate().unwrap_err().to_string();
        assert_eq!(err, "output 1 has 0 level 1 coordinate writers, not exactly one");
    }

    #[test]
    fn duplicate_tensor_slot_rejected() {
        let (mut g, _, _) = tiny_graph();
        g.add_tensor("B", MemLocation::Dram); // "B" already registered
        assert_eq!(
            g.validate(),
            Err(GraphError::DuplicateSlot { name: "B".into(), output: false })
        );
    }

    #[test]
    fn duplicate_output_slot_rejected() {
        let (mut g, _, _) = tiny_graph();
        g.add_output("T", vec![2], Format::sparse_vec(), MemLocation::Dram);
        assert_eq!(g.validate(), Err(GraphError::DuplicateSlot { name: "T".into(), output: true }));
    }

    #[test]
    fn edge_iterators_and_anchors() {
        let (g, ls, arr) = tiny_graph();
        assert_eq!(g.edges().iter().filter(|e| e.src.node == ls).count(), 2);
        let ins: Vec<&Edge> = g.edges().iter().filter(|e| e.dst.node == arr).collect();
        assert_eq!(ins.len(), 1);
        let anchor = g.edge_anchor(ins[0]);
        assert!(anchor.contains("LS[t0.l0]#1.out1"));
        assert!(anchor.contains("Array[t0]#2.in0"));
    }

    #[test]
    fn edge_naming_a_missing_node_is_ignored_until_the_node_exists() {
        let (mut g, ls, _) = tiny_graph();
        let late = NodeId(g.node_count() + 1);
        g.connect(ls, 1, late, 0);
        g.connect(late, 0, late, 1);
        assert!(matches!(g.validate(), Err(GraphError::BadPort { input: true, .. })));
        assert!(g.topo_order().is_some(), "a dangling edge is ignored, not a panic");
        g.add_node(NodeKind::Repeat);
        assert!(g.topo_order().is_some(), "the self-loop still names a missing node");
        g.add_node(NodeKind::Repeat);
        assert!(g.topo_order().is_none(), "the self-loop is now visible");
    }

    #[test]
    fn zero_branch_factor_fails() {
        for kind in
            [NodeKind::Parallelizer { factor: 0 }, NodeKind::Serializer { factor: 0, depth: 1 }]
        {
            let (mut g, _, _) = tiny_graph();
            let n = g.add_node(kind);
            assert_eq!(g.validate(), Err(GraphError::ZeroFactor { node: n.0 }));
        }
    }

    #[test]
    fn accumulator_past_the_deepest_order_fails() {
        let (mut g, _, _) = tiny_graph();
        let order = MAX_SPACC_ORDER + 1;
        let n = g.add_node(NodeKind::Spacc { order, op: ReduceOp::Sum });
        assert_eq!(g.validate(), Err(GraphError::DeepAccumulator { node: n.0, order }));
        let err = g.validate().unwrap_err().to_string();
        assert!(err.contains(&format!("order {order}")), "{err}");
    }

    #[test]
    fn histogram_counts() {
        let (g, _, _) = tiny_graph();
        let h = g.kind_histogram();
        assert_eq!(h["LevelScanner"], 1);
        assert_eq!(h["Array"], 1);
        assert_eq!(h["Root"], 1);
    }
}
