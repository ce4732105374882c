//! Pass 2: dead-code detection — nodes that cannot influence any output
//! (SA014) and tensor slots nothing reads (SA015).

use crate::diag::{Anchor, Code, Diag};
use fuseflow_sam::{NodeId, NodeKind, SamGraph};

/// Marks nodes from which a `CrdWriter`/`ValWriter` is reachable, via a
/// reverse-topological DP over the graph's flat successor arrays (writers
/// are live by definition).
fn live_nodes(g: &SamGraph, order: &[NodeId]) -> Vec<bool> {
    let n = g.node_count();
    let mut live = vec![false; n];
    for (i, kind) in g.nodes().iter().enumerate() {
        if matches!(kind, NodeKind::CrdWriter { .. } | NodeKind::ValWriter { .. }) {
            live[i] = true;
        }
    }
    let (offsets, targets) = g.successors();
    for &NodeId(u) in order.iter().rev() {
        live[u] = live[u] || targets[offsets[u]..offsets[u + 1]].iter().any(|&d| live[d]);
    }
    live
}

/// Flags dead nodes (SA014) and tensor slots nothing scans or fetches
/// (SA015).
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
    let mut tensor_used = vec![false; g.tensors().len()];
    for kind in g.nodes() {
        if let NodeKind::LevelScanner { tensor, .. } | NodeKind::Array { tensor } = kind {
            if let Some(u) = tensor_used.get_mut(*tensor) {
                *u = true;
            }
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
}
