//! Pass 1: stream-kind type checking (SA010) and stream nesting-depth
//! inference with strict-join alignment checks (SA011).
//!
//! Kinds come straight from the `PortSig` tables in `fuseflow-sam`: every
//! edge's source-port kind is compared against its destination-port kind.
//!
//! Depths are inferred forward in topological order. The *depth* of a
//! stream is its number of fiber-nesting levels: the root reference stream
//! `[Elem, Done]` has depth 0, a scanner adds one level (`Stop(k)` becomes
//! `Stop(k+1)`), an accumulator (`Spacc`) removes one. Strict joins require
//! their sides to sit at equal depth — a mismatch manifests at runtime as a
//! `Semantics` stream-misalignment error, so a *definite* static mismatch
//! (both depths known, unequal) is an error. Unknown depths propagate
//! silently: the pass only reports what it can prove.

use crate::diag::{Anchor, Code, Diag};
use fuseflow_sam::{NodeId, NodeKind, Port, SamGraph};
use std::collections::HashMap;
use std::ops::Range;

/// Compares `src.output_ports()[p].kind` against `dst.input_ports()[p].kind`
/// for every edge (SA010). Ports are in range: the graph is validated.
pub(crate) fn check_kinds(g: &SamGraph, diags: &mut Vec<Diag>) {
    for e in g.edges() {
        let s = g.node(e.src.node).output_ports()[e.src.port];
        let d = g.node(e.dst.node).input_ports()[e.dst.port];
        if let (Some(sk), Some(dk)) = (s.kind, d.kind) {
            if sk != dk {
                diags.push(Diag::new(
                    Code::SA010,
                    vec![Anchor::Edge(*e)],
                    format!("stream-kind mismatch: {sk} output feeds {dk} input"),
                ));
            }
        }
    }
}

/// Infers per-output-port stream depths and checks strict-join alignment
/// (SA011).
pub(crate) fn check_depths(g: &SamGraph, order: &[NodeId], diags: &mut Vec<Diag>) {
    let mut depths: HashMap<(NodeId, usize), i64> = HashMap::new();
    // The output port driving each input port (one, the graph is validated).
    let driver: HashMap<Port, Port> = g.edges().iter().map(|e| (e.dst, e.src)).collect();
    // Depth of the stream entering `(node, in_port)`, if inferred.
    let in_depth = |depths: &HashMap<(NodeId, usize), i64>, n: NodeId, p: usize| -> Option<i64> {
        let src = driver.get(&Port { node: n, port: p })?;
        depths.get(&(src.node, src.port)).copied()
    };
    // Reports a definite depth mismatch between two input ports of `n`.
    fn mismatch(
        diags: &mut Vec<Diag>,
        n: NodeId,
        pa: usize,
        da: i64,
        pb: usize,
        db: i64,
        what: &str,
    ) {
        diags.push(Diag::new(
            Code::SA011,
            vec![Anchor::Node(n)],
            format!("{what}: input {pa} has depth {da} but input {pb} has depth {db}"),
        ));
    }
    // The depth the inputs `ports` of `n` agree on: the first one known.
    // Each known depth that differs from it is a mismatch, reported as
    // `what`.
    let agreed = |depths: &HashMap<(NodeId, usize), i64>,
                  diags: &mut Vec<Diag>,
                  n: NodeId,
                  ports: Range<usize>,
                  what: &str|
     -> Option<i64> {
        let mut known: Option<(usize, i64)> = None;
        for p in ports {
            let Some(d) = in_depth(depths, n, p) else { continue };
            match known {
                None => known = Some((p, d)),
                Some((p0, d0)) if d0 != d => mismatch(diags, n, p0, d0, p, d, what),
                Some(_) => {}
            }
        }
        known.map(|(_, d)| d)
    };
    for &n in order {
        let kind = g.node(n);
        match kind {
            NodeKind::Root => {
                depths.insert((n, 0), 0);
            }
            NodeKind::LevelScanner { .. } => {
                if let Some(d) = in_depth(&depths, n, 0) {
                    depths.insert((n, 0), d + 1);
                    depths.insert((n, 1), d + 1);
                }
            }
            NodeKind::Repeat => {
                let base = in_depth(&depths, n, 0);
                let rep = in_depth(&depths, n, 1);
                if let (Some(b), Some(r)) = (base, rep) {
                    if b != r - 1 {
                        diags.push(Diag::new(
                            Code::SA011,
                            vec![Anchor::Node(n)],
                            format!("repeat base depth {b} must be one less than rep depth {r}"),
                        ));
                    }
                }
                if let Some(r) = rep {
                    depths.insert((n, 0), r);
                }
            }
            NodeKind::Intersect | NodeKind::Union | NodeKind::UnionLeft => {
                let a = in_depth(&depths, n, 0);
                let b = in_depth(&depths, n, 2);
                if let (Some(da), Some(db)) = (a, b) {
                    if da != db {
                        mismatch(diags, n, 0, da, 2, db, "join sides misaligned");
                    }
                }
                for (crd, pay) in [(0usize, 1usize), (2, 3)] {
                    if let (Some(dc), Some(dp)) =
                        (in_depth(&depths, n, crd), in_depth(&depths, n, pay))
                    {
                        if dc != dp {
                            mismatch(diags, n, crd, dc, pay, dp, "payload misaligned with crd");
                        }
                    }
                }
                if let Some(d) = a.or(b) {
                    depths.insert((n, 0), d);
                    depths.insert((n, 1), d);
                    depths.insert((n, 2), d);
                }
            }
            NodeKind::Array { .. } => {
                if let Some(d) = in_depth(&depths, n, 0) {
                    depths.insert((n, 0), d);
                }
            }
            NodeKind::Alu { op } => {
                let a = in_depth(&depths, n, 0);
                if op.arity() == 2 {
                    if let (Some(da), Some(db)) = (a, in_depth(&depths, n, 1)) {
                        if da != db {
                            mismatch(diags, n, 0, da, 1, db, "ALU operands misaligned");
                        }
                    }
                }
                if let Some(d) = a {
                    depths.insert((n, 0), d);
                }
            }
            NodeKind::Spacc { order, .. } => {
                match agreed(&depths, diags, n, 0..order + 1, "spacc ports misaligned") {
                    Some(0) => diags.push(Diag::new(
                        Code::SA011,
                        vec![Anchor::Node(n)],
                        "accumulator applied to a depth-0 stream (no fiber to reduce)",
                    )),
                    Some(d) => {
                        for p in 0..=*order {
                            depths.insert((n, p), d - 1);
                        }
                    }
                    None => {}
                }
            }
            NodeKind::CrdWriter { .. } | NodeKind::ValWriter { .. } => {}
            NodeKind::Parallelizer { factor } => {
                let c = in_depth(&depths, n, 0);
                let p = in_depth(&depths, n, 1);
                if let (Some(dc), Some(dp)) = (c, p) {
                    if dc != dp {
                        mismatch(
                            diags,
                            n,
                            0,
                            dc,
                            1,
                            dp,
                            "parallelizer payload misaligned with crd",
                        );
                    }
                }
                for b in 0..*factor {
                    if let Some(d) = c {
                        depths.insert((n, 2 * b), d);
                    }
                    if let Some(d) = p.or(c) {
                        depths.insert((n, 2 * b + 1), d);
                    }
                }
            }
            NodeKind::Serializer { factor, .. } => {
                // Branch streams must agree in depth; the barrier/order port
                // is intentionally unconstrained (its depth is shallower by
                // construction and disambiguates unit grouping).
                if let Some(d) =
                    agreed(&depths, diags, n, 0..*factor, "serializer branches misaligned")
                {
                    depths.insert((n, 0), d);
                }
            }
        }
    }
}
