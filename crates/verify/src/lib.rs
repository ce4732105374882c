//! Static verification and lint passes over SAMML dataflow graphs.
//!
//! The simulator only discovers stream-kind mismatches and dead subgraphs at
//! runtime — as a `Semantics` error or as silently wasted hardware. This
//! crate moves those checks before simulation: an analyzer over
//! [`SamGraph`] emitting structured diagnostics with stable lint codes.
//!
//! | code  | severity | pass |
//! |-------|----------|------|
//! | SA010 | error    | stream-kind mismatch across an edge |
//! | SA011 | error    | stream nesting-depth mismatch at a strict join |
//! | SA012 | —        | retired (guaranteed deadlock); the number is not reused |
//! | SA013 | —        | retired (possible deadlock); the number is not reused |
//! | SA014 | warning  | dead node (no writer reachable) |
//! | SA015 | warning  | unused tensor slot |
//! | SA016 | —        | retired (output with no value writer; now SA017); the number is not reused |
//! | SA017 | error    | graph fails `SamGraph::validate`; carries the `GraphError` |
//!
//! The graph's structural rules, the output writers among them (one
//! `CrdWriter` per level and one `ValWriter` per output), are
//! `SamGraph::validate`'s alone; this crate reports them as SA017.
//!
//! A code's severity is fixed. [`graph_errors`] runs only the passes that
//! emit errors (SA017, then SA010 and SA011): a compile refuses a
//! region it flags, and runs nothing else. [`verify_graph`] runs those passes
//! and then the dead-code warnings, and returns every diagnostic. A
//! capacity-induced deadlock is the simulator's to report, as a typed
//! `SimError::Deadlock` naming the blocked nodes and full channels.
//!
//! # Example
//!
//! ```
//! use fuseflow_sam::{MemLocation, NodeKind, SamGraph, AluOp};
//! use fuseflow_verify::{verify_graph, Code, VerifyOptions};
//!
//! // A crd stream feeding a val port: SA010.
//! let mut g = SamGraph::new();
//! let b = g.add_tensor("B", MemLocation::OnChip);
//! let o = g.add_output("T", vec![4], fuseflow_tensor::Format::sparse_vec(), MemLocation::OnChip);
//! let root = g.add_node(NodeKind::Root);
//! let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
//! let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
//! let vw = g.add_node(NodeKind::ValWriter { output: o });
//! g.connect(root, 0, ls, 0);
//! g.connect(ls, 0, cw, 0);
//! g.connect(ls, 0, vw, 0); // crd -> val input
//! let report = verify_graph(&g, &VerifyOptions::default());
//! assert!(report.with_code(Code::SA010).count() == 1);
//! ```

// A graph this crate cannot take is a diagnostic, never a panic: CI's
// clippy step holds the admission layer to that.
#![deny(clippy::unreachable)]

mod dead;
mod diag;
mod kinds;

pub use diag::{Anchor, Code, Diag, Report, Severity};

use fuseflow_sam::{GraphError, NodeId, SamGraph};

/// The run a graph is linted for, as [`verify_graph`] takes it. No pass reads
/// it: every diagnostic depends on the graph alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyOptions {
    /// An upper bound on fiber length (e.g. the largest program dimension).
    /// Read by no pass.
    pub fiber_hi: Option<u64>,
}

/// Whether a compile pipeline refuses a region for its [`graph_errors`].
/// A compile reads `enabled` alone.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Master switch; `false` refuses nothing.
    pub enabled: bool,
    /// The options a caller passes to [`verify_graph`] when it lints a
    /// compiled graph; no pass reads them.
    pub options: VerifyOptions,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig { enabled: true, options: VerifyOptions::default() }
    }
}

impl VerifyConfig {
    /// A config that refuses nothing.
    pub fn disabled() -> Self {
        VerifyConfig { enabled: false, ..Default::default() }
    }
}

/// The error-severity diagnostics of a graph: exactly
/// `verify_graph(g, opts).errors()`, for any `opts`, without running the
/// warning passes.
pub fn graph_errors(g: &SamGraph) -> Vec<Diag> {
    match error_passes(g) {
        Ok((_, diags)) => diags,
        Err(invalid) => vec![invalid],
    }
}

/// Runs all passes over a graph and collects the report.
///
/// The graph is validated first: one that fails [`SamGraph::validate`]
/// (cycle, edge naming a missing node or port, double-driven input, ...)
/// gets a single error-severity [`Code::SA017`] carrying the
/// [`GraphError`], and no pass runs. The passes index dense per-node
/// arrays and walk the graph upward, so they rely on that check.
///
/// The error passes of [`graph_errors`] run first, then the dead-code
/// warnings (SA014, SA015). They share the one topological order computed
/// here; a pass that needs adjacency builds its own table from the graph's
/// edges in one pass. No pass reads `_opts`.
pub fn verify_graph(g: &SamGraph, _opts: &VerifyOptions) -> Report {
    let (order, mut diags) = match error_passes(g) {
        Ok(passed) => passed,
        Err(invalid) => return Report { diags: vec![invalid] },
    };
    dead::check_dead(g, &order, &mut diags);
    Report { diags }
}

/// The passes that emit errors, in order: validation (SA017, an `Err` that
/// stops the rest), stream kinds (SA010) and nesting depths (SA011).
/// Returns the topological order with their diagnostics.
fn error_passes(g: &SamGraph) -> Result<(Vec<NodeId>, Vec<Diag>), Diag> {
    let order = g.validated_order().map_err(|e| invalid_graph(g, &e))?;
    let mut diags = Vec::new();
    kinds::check_kinds(g, &mut diags);
    kinds::check_depths(g, &order, &mut diags);
    Ok((order, diags))
}

/// The SA017 diagnostic for a graph that fails validation, anchored at the
/// offending node when the error names one that exists, or at the output
/// slot whose writers are wrong.
fn invalid_graph(g: &SamGraph, e: &GraphError) -> Diag {
    let anchor = match *e {
        GraphError::BadPort { node, .. }
        | GraphError::MultipleWriters { node, .. }
        | GraphError::Unconnected { node, .. }
        | GraphError::BadSlot { node }
        | GraphError::ZeroFactor { node }
        | GraphError::DeepAccumulator { node, .. } => {
            (node < g.node_count()).then_some(Anchor::Node(NodeId(node)))
        }
        GraphError::OutputWriters { output, .. } => Some(Anchor::OutputSlot(output)),
        GraphError::Cyclic | GraphError::DuplicateSlot { .. } => None,
    };
    Diag::new(Code::SA017, anchor.into_iter().collect(), format!("invalid graph: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseflow_sam::{AluOp, MemLocation, NodeId, NodeKind, ReduceOp, SamGraph, MAX_SPACC_ORDER};
    use fuseflow_tensor::Format;

    /// A minimal clean graph: root -> scan -> (crd writer, array -> val
    /// writer).
    fn clean_graph() -> SamGraph {
        let mut g = SamGraph::new();
        let b = g.add_tensor("B", MemLocation::OnChip);
        let o = g.add_output("T", vec![4], Format::sparse_vec(), MemLocation::OnChip);
        let root = g.add_node(NodeKind::Root);
        let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
        let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
        let arr = g.add_node(NodeKind::Array { tensor: b });
        let vw = g.add_node(NodeKind::ValWriter { output: o });
        g.connect(root, 0, ls, 0);
        g.connect(ls, 0, cw, 0);
        g.connect(ls, 1, arr, 0);
        g.connect(arr, 0, vw, 0);
        g
    }

    /// The reconvergent softmax-normalization shape: vals fan out to a
    /// direct ALU operand and to Reduce -> Repeat, whose sides sit at equal
    /// depth at the ALU.
    fn reconvergent_graph() -> SamGraph {
        let mut g = SamGraph::new();
        let b = g.add_tensor("B", MemLocation::OnChip);
        let o = g.add_output("T", vec![8], Format::sparse_vec(), MemLocation::OnChip);
        let root = g.add_node(NodeKind::Root);
        let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
        let arr = g.add_node(NodeKind::Array { tensor: b });
        let red = g.add_node(NodeKind::Spacc { order: 0, op: ReduceOp::Sum });
        let rep = g.add_node(NodeKind::Repeat);
        let div = g.add_node(NodeKind::Alu { op: AluOp::Div });
        let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
        let vw = g.add_node(NodeKind::ValWriter { output: o });
        g.connect(root, 0, ls, 0);
        g.connect(ls, 0, cw, 0);
        g.connect(ls, 0, rep, 1); // rep signal
        g.connect(ls, 1, arr, 0);
        g.connect(arr, 0, div, 0); // direct operand
        g.connect(arr, 0, red, 0); // fiber-absorbing sibling
        g.connect(red, 0, rep, 0); // repeat base
        g.connect(rep, 0, div, 1);
        g.connect(div, 0, vw, 0);
        g
    }

    #[test]
    fn clean_graph_is_clean() {
        let g = clean_graph();
        assert!(g.validate().is_ok());
        let r = verify_graph(&g, &VerifyOptions::default());
        assert!(r.is_clean(), "unexpected diagnostics:\n{}", r.render_human(&g));
    }

    #[test]
    fn sa010_kind_mismatch() {
        let mut g = clean_graph();
        // crd output into a val input.
        let vw2 = g.add_node(NodeKind::Alu { op: AluOp::Relu });
        g.connect(NodeId(1), 0, vw2, 0); // LS crd -> ALU val
        let r = verify_graph(&g, &VerifyOptions::default());
        assert_eq!(r.with_code(Code::SA010).count(), 1);
        let d = r.with_code(Code::SA010).next().unwrap();
        assert_eq!(d.severity(), Severity::Error);
        assert!(d.render(&g).contains("crd"));
    }

    #[test]
    fn sa011_depth_mismatch_at_alu() {
        // Two scanners at different nesting depths joined by a binary ALU.
        let mut g = SamGraph::new();
        let b = g.add_tensor("B", MemLocation::OnChip);
        let o = g.add_output("T", vec![4], Format::sparse_vec(), MemLocation::OnChip);
        let root = g.add_node(NodeKind::Root);
        let ls0 = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
        let ls1 = g.add_node(NodeKind::LevelScanner { tensor: b, level: 1 });
        let a0 = g.add_node(NodeKind::Array { tensor: b });
        let a1 = g.add_node(NodeKind::Array { tensor: b });
        let alu = g.add_node(NodeKind::Alu { op: AluOp::Add });
        let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
        let vw = g.add_node(NodeKind::ValWriter { output: o });
        g.connect(root, 0, ls0, 0);
        g.connect(ls0, 0, cw, 0);
        g.connect(ls0, 1, ls1, 0); // depth 2 below
        g.connect(ls0, 1, a0, 0); // depth 1 vals
        g.connect(ls1, 1, a1, 0); // depth 2 vals
        g.connect(a0, 0, alu, 0);
        g.connect(a1, 0, alu, 1);
        g.connect(alu, 0, vw, 0);
        let r = verify_graph(&g, &VerifyOptions::default());
        assert!(r.with_code(Code::SA011).count() >= 1, "report:\n{}", r.render_human(&g));
    }

    #[test]
    fn sa011_clean_on_aligned_joins() {
        let g = reconvergent_graph();
        let r = verify_graph(&g, &VerifyOptions::default());
        assert_eq!(r.with_code(Code::SA011).count(), 0, "report:\n{}", r.render_human(&g));
    }

    /// The one accumulator depth rule at orders 1 and 0: the ports must
    /// agree, and a depth-0 stream has no fiber to reduce.
    #[test]
    fn sa011_accumulator_ports_and_depth() {
        let mut g = SamGraph::new();
        let b = g.add_tensor("B", MemLocation::OnChip);
        let root = g.add_node(NodeKind::Root);
        let ls0 = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
        let ls1 = g.add_node(NodeKind::LevelScanner { tensor: b, level: 1 });
        let a1 = g.add_node(NodeKind::Array { tensor: b });
        let spacc = g.add_node(NodeKind::Spacc { order: 1, op: ReduceOp::Sum });
        let reduce = g.add_node(NodeKind::Spacc { order: 0, op: ReduceOp::Sum });
        g.connect(root, 0, ls0, 0);
        g.connect(ls0, 1, ls1, 0);
        g.connect(ls1, 1, a1, 0);
        g.connect(ls0, 0, spacc, 0); // depth 1 coordinates
        g.connect(a1, 0, spacc, 1); // depth 2 values
        g.connect(root, 0, reduce, 0); // depth 0
        let r = verify_graph(&g, &VerifyOptions::default());
        let depth: Vec<String> = r.with_code(Code::SA011).map(|d| d.render(&g)).collect();
        assert_eq!(depth.len(), 2, "{depth:?}");
        let misaligned = "spacc ports misaligned: input 0 has depth 1 but input 1 has depth 2";
        assert!(depth.iter().any(|d| d.contains(misaligned)), "{depth:?}");
        assert!(depth.iter().any(|d| d.contains("depth-0 stream")), "{depth:?}");
    }

    #[test]
    fn sa014_dead_node() {
        let mut g = clean_graph();
        let dead = g.add_node(NodeKind::Alu { op: AluOp::Relu });
        g.connect(NodeId(3), 0, dead, 0); // array vals into a sink that reaches no writer
        let r = verify_graph(&g, &VerifyOptions::default());
        assert_eq!(r.with_code(Code::SA014).count(), 1);
    }

    /// A live chain of five hops and a dead chain of two, nodes added
    /// writer-first (ids against topological order) and the edges connected
    /// both writer-first and source-first: a single pass over the edges in
    /// either insertion order would leave part of the live chain dead.
    #[test]
    fn sa014_flags_exactly_the_dead_chain_in_any_connection_order() {
        for writer_first in [true, false] {
            let mut g = SamGraph::new();
            let b = g.add_tensor("B", MemLocation::OnChip);
            let o = g.add_output("T", vec![4], Format::sparse_vec(), MemLocation::OnChip);
            let vw = g.add_node(NodeKind::ValWriter { output: o });
            let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
            let r2 = g.add_node(NodeKind::Alu { op: AluOp::Relu });
            let r1 = g.add_node(NodeKind::Alu { op: AluOp::Relu });
            let arr = g.add_node(NodeKind::Array { tensor: b });
            let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
            let root = g.add_node(NodeKind::Root);
            let d2 = g.add_node(NodeKind::Alu { op: AluOp::Relu });
            let d1 = g.add_node(NodeKind::Alu { op: AluOp::Relu });
            let mut edges =
                vec![(root, 0, ls), (ls, 1, arr), (arr, 0, d1), (d1, 0, d2), (arr, 0, r1)];
            edges.extend([(r1, 0, r2), (r2, 0, vw), (ls, 0, cw)]);
            if writer_first {
                edges.reverse();
            }
            for (s, p, d) in edges {
                g.connect(s, p, d, 0);
            }
            let r = verify_graph(&g, &VerifyOptions::default());
            let dead: Vec<&Anchor> = r.with_code(Code::SA014).flat_map(|d| &d.anchors).collect();
            assert_eq!(dead, [&Anchor::Node(d2), &Anchor::Node(d1)], "{}", r.render_human(&g));
            assert_eq!(r.diags.len(), 2, "writer_first={writer_first}: {}", r.render_human(&g));
        }
    }

    #[test]
    fn sa015_unused_tensor_slot() {
        let mut g = clean_graph();
        g.add_tensor("C", MemLocation::OnChip);
        let r = verify_graph(&g, &VerifyOptions::default());
        assert_eq!(r.with_code(Code::SA015).count(), 1);
        assert!(r.with_code(Code::SA015).next().unwrap().render(&g).contains("'C'"));
    }

    /// An output its coordinates are written to but its values are not is
    /// one SA017 error at the output slot.
    #[test]
    fn sa017_output_without_value_writer() {
        let mut g = clean_graph();
        let u = g.add_output("U", vec![4], Format::sparse_vec(), MemLocation::OnChip);
        let cw = g.add_node(NodeKind::CrdWriter { output: u, level: 0 });
        g.connect(NodeId(1), 0, cw, 0);
        let want = GraphError::OutputWriters { output: u, level: None, writers: 0 };
        assert_eq!(g.validate(), Err(want));
        let r = verify_graph(&g, &VerifyOptions::default());
        assert_eq!(r.diags.len(), 1, "{}", r.render_human(&g));
        let d = &r.diags[0];
        assert_eq!((d.code, d.severity()), (Code::SA017, Severity::Error));
        assert_eq!(d.anchors, vec![Anchor::OutputSlot(u)]);
        assert!(d.render(&g).contains("output 'U'"), "{}", d.render(&g));
    }

    /// Every way a graph can fail `validate` is one SA017 error naming the
    /// `GraphError`, never a panic or a stack overflow, and denies a compile:
    /// [`graph_errors`] gives that error alone, under any options.
    #[test]
    fn sa017_invalid_graphs_are_reported_not_crashed_on() {
        let invalid = |g: &SamGraph, what: &str| {
            let err = g.validate().expect_err(what);
            for opts in [
                VerifyOptions::default(),
                VerifyOptions { fiber_hi: Some(0) },
                VerifyOptions { fiber_hi: Some(u64::MAX) },
            ] {
                let errors: Vec<Diag> = verify_graph(g, &opts).errors().cloned().collect();
                assert_eq!(graph_errors(g), errors, "{what} under {opts:?}");
            }
            let r = verify_graph(g, &VerifyOptions::default());
            assert_eq!(r.diags.len(), 1, "{what}");
            let d = &r.diags[0];
            assert_eq!((d.code, d.severity()), (Code::SA017, Severity::Error), "{what}");
            assert!(d.message.contains(&err.to_string()), "{what}: {}", d.message);
            assert!(r.render_human(g).contains("error[SA017]"));
        };

        // A 2-node cycle through a binary ALU (an upward walk from the ALU
        // would never end).
        let mut g = clean_graph();
        let a0 = g.add_node(NodeKind::Alu { op: AluOp::Add });
        let a1 = g.add_node(NodeKind::Alu { op: AluOp::Add });
        g.connect(NodeId(3), 0, a0, 0);
        g.connect(a1, 0, a0, 1);
        g.connect(a0, 0, a1, 0);
        g.connect(NodeId(3), 0, a1, 1);
        invalid(&g, "cycle");

        // An edge naming a node that does not exist.
        let mut g = clean_graph();
        let a1 = g.add_node(NodeKind::Alu { op: AluOp::Add });
        g.connect(NodeId(3), 0, a1, 0);
        g.connect(NodeId(17), 0, a1, 1);
        invalid(&g, "missing source node");
        let mut g = clean_graph();
        g.connect(NodeId(3), 0, NodeId(17), 0);
        invalid(&g, "missing destination node");

        // Ports out of range on either side.
        let mut g = clean_graph();
        let relu = g.add_node(NodeKind::Alu { op: AluOp::Relu });
        g.connect(NodeId(3), 5, relu, 0);
        invalid(&g, "output port out of range");
        let mut g = clean_graph();
        g.connect(NodeId(3), 0, NodeId(4), 3);
        invalid(&g, "input port out of range");

        // A double-driven input: anchored at the node.
        let mut g = clean_graph();
        g.connect(NodeId(1), 1, NodeId(3), 0);
        invalid(&g, "double-driven input");
        let r = verify_graph(&g, &VerifyOptions::default());
        assert_eq!(r.diags[0].anchors, vec![Anchor::Node(NodeId(3))]);

        // The rest of `GraphError`.
        let mut g = clean_graph();
        g.add_node(NodeKind::Alu { op: AluOp::Add });
        invalid(&g, "unconnected required input");
        let mut g = clean_graph();
        g.add_node(NodeKind::Array { tensor: 9 });
        invalid(&g, "bad slot");
        let mut g = clean_graph();
        let cw = g.add_node(NodeKind::CrdWriter { output: 0, level: 1 });
        g.connect(NodeId(1), 0, cw, 0);
        invalid(&g, "coordinate writer beyond its output's levels");
        let mut g = clean_graph();
        g.add_tensor("B", MemLocation::OnChip);
        invalid(&g, "duplicate slot");
        let mut g = clean_graph();
        let par = g.add_node(NodeKind::Parallelizer { factor: 0 });
        g.connect(NodeId(1), 0, par, 0);
        invalid(&g, "zero branch factor");
        let r = verify_graph(&g, &VerifyOptions::default());
        assert_eq!(r.diags[0].anchors, vec![Anchor::Node(par)]);
        let mut g = clean_graph();
        let order = MAX_SPACC_ORDER + 1;
        let deep = g.add_node(NodeKind::Spacc { order, op: ReduceOp::Sum });
        g.connect(NodeId(1), 0, deep, 0);
        invalid(&g, "accumulator deeper than MAX_SPACC_ORDER");
        let r = verify_graph(&g, &VerifyOptions::default());
        assert_eq!(r.diags[0].anchors, vec![Anchor::Node(deep)]);

        // An output stream without exactly one writer: anchored at the
        // output slot.
        let writers = |g: &SamGraph, what: &str, want: GraphError| {
            invalid(g, what);
            assert_eq!(g.validate(), Err(want.clone()), "{what}");
            let GraphError::OutputWriters { output, .. } = want else { panic!("{what}") };
            let r = verify_graph(g, &VerifyOptions::default());
            assert_eq!(r.diags[0].anchors, vec![Anchor::OutputSlot(output)], "{what}");
        };
        let mut g = clean_graph();
        let vw = g.add_node(NodeKind::ValWriter { output: 0 });
        g.connect(NodeId(3), 0, vw, 0);
        let want = GraphError::OutputWriters { output: 0, level: None, writers: 2 };
        writers(&g, "two value writers on one output", want);
        let mut g = clean_graph();
        let cw = g.add_node(NodeKind::CrdWriter { output: 0, level: 0 });
        g.connect(NodeId(1), 0, cw, 0);
        let want = GraphError::OutputWriters { output: 0, level: Some(0), writers: 2 };
        writers(&g, "two coordinate writers on one level", want);
        let mut g = clean_graph();
        let u = g.add_output("U", vec![4], Format::sparse_vec(), MemLocation::OnChip);
        let vw = g.add_node(NodeKind::ValWriter { output: u });
        g.connect(NodeId(3), 0, vw, 0);
        let want = GraphError::OutputWriters { output: u, level: Some(0), writers: 0 };
        writers(&g, "an output level with no coordinate writer", want);
    }
}
