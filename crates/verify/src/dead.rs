//! Pass 3: dead-code detection — nodes that cannot influence any output
//! (SA014), tensor slots nothing reads (SA015), and output slots nothing
//! writes (SA016).

use crate::diag::{Anchor, Code, Diag};
use fuseflow_sam::{NodeId, NodeKind, SamGraph};

/// Marks nodes from which a `CrdWriter`/`ValWriter` is reachable, via a
/// reverse-topological DP (writers are live by definition).
fn live_nodes(g: &SamGraph, order: &[NodeId]) -> Vec<bool> {
    let n = g.node_count();
    let mut live = vec![false; n];
    for (i, kind) in g.nodes().iter().enumerate() {
        if matches!(kind, NodeKind::CrdWriter { .. } | NodeKind::ValWriter { .. }) {
            live[i] = true;
        }
    }
    for &node in order.iter().rev() {
        if live[node.0] {
            continue;
        }
        if g.out_edges(node).any(|e| live[e.dst.node.0]) {
            live[node.0] = true;
        }
    }
    live
}

/// Runs the dead-code pass.
pub(crate) fn check_dead(g: &SamGraph, order: &[NodeId], diags: &mut Vec<Diag>) {
    for (i, alive) in live_nodes(g, order).iter().enumerate() {
        if !alive {
            diags.push(Diag::new(
                Code::SA014,
                vec![Anchor::Node(NodeId(i))],
                "dead node: no output writer is reachable from it",
            ));
        }
    }
    // Tensor slots nothing scans or fetches.
    let mut tensor_used = vec![false; g.tensors().len()];
    let mut output_written = vec![false; g.outputs().len()];
    for kind in g.nodes() {
        match kind {
            NodeKind::LevelScanner { tensor, .. } | NodeKind::Array { tensor } => {
                if let Some(u) = tensor_used.get_mut(*tensor) {
                    *u = true;
                }
            }
            NodeKind::ValWriter { output } => {
                if let Some(w) = output_written.get_mut(*output) {
                    *w = true;
                }
            }
            _ => {}
        }
    }
    for (i, used) in tensor_used.iter().enumerate() {
        if !used {
            diags.push(Diag::new(
                Code::SA015,
                vec![Anchor::TensorSlot(i)],
                format!(
                    "unused tensor slot '{}': no scanner or array reads it",
                    g.tensors()[i].name
                ),
            ));
        }
    }
    for (i, written) in output_written.iter().enumerate() {
        if !written {
            diags.push(Diag::new(
                Code::SA016,
                vec![Anchor::OutputSlot(i)],
                format!(
                    "output '{}' has no value writer and can never be produced",
                    g.outputs()[i].name
                ),
            ));
        }
    }
}
