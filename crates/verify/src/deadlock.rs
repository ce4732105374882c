//! Pass 2: static deadlock / buffer-sizing analysis over reconvergent
//! fan-out regions (StreamTensor-style FIFO sizing, adapted to SAMML).
//!
//! # Model
//!
//! The simulator gives every edge a bounded FIFO of `channel_capacity`
//! tokens. A producer pushes one token per output port per cycle to *all*
//! fan-out channels of the port in lockstep, and blocks while any of them
//! is full; a strict join (`Intersect`/`Union`/`UnionLeft`, binary ALU,
//! `Spacc1`, `Repeat`) commits only when every required head is present.
//! Because SAMML graphs are DAGs, a deadlock therefore requires a
//! *reconvergent fan-out region*: a fork `F` whose token stream reaches a
//! strict join `J` along two edge-disjoint paths. If one path must retain
//! `need` tokens (e.g. a `Reduce` absorbs a whole fiber before its first
//! emission) while the sibling path can only buffer `absorb < need`
//! tokens, `F` blocks on the sibling, the retaining path starves, and the
//! join never commits. The one exception reads two tokens deep: a `Repeat`
//! closing an empty fiber needs its base element and base stop at once, so
//! at capacity 1 it starves with no reconvergence at all ([`base_starved`]).
//!
//! # Algebra
//!
//! Every node kind is summarized, per (input-port -> output-port) traversal,
//! by bounds parameterized on the fiber-length upper bound
//! (`VerifyOptions::fiber_hi`):
//!
//! * `r_hi` — the most tokens it can need before its first emission
//!   (`Reduce`: a whole fiber plus its terminator, `L + 1`; 1:1 nodes: 1);
//! * `m_lo`/`m_hi` — marginal tokens consumed per additional emission.
//!
//! Folding `r_hi`/`m_hi` backward along a path yields `need_hi`, the most
//! tokens the fork may have to emit into the path before the join's first
//! commit; folding `m_lo` forward over the path's edges yields the fork-token
//! capacity the path surely has (`sum of cap * product of upstream m_lo`).
//!
//! # Verdicts (per region)
//!
//! * **Certified** — `need_hi + slack <= absorb` in both directions: the
//!   region cannot deadlock at this capacity.
//! * **SA013** (warning) — on a path whose retention is structural
//!   (`precise`, data-independent up to fiber length), `need_hi` exceeds
//!   the sibling's buffering: "your capacity is too small if fibers reach
//!   length L". Reports the minimum safe uniform capacity.
//! * **Unknown** — the algebra could not bound the region (unbounded or
//!   data-dependent retention, path overflow, non-lockstep fork, a starved
//!   `Repeat` base). No diagnostic is emitted.
//!
//! Only *Certified* carries a soundness claim. No verdict proves a deadlock:
//! that would need a promise that fibers are non-empty, which no compile
//! can make (the retired SA012 took one).

use crate::diag::{Anchor, Code, Diag, RegionSummary};
use crate::VerifyOptions;
use fuseflow_sam::{Edge, NodeId, NodeKind, SamGraph};
use std::collections::BTreeMap;

/// Extra fork-side tokens to allow for a cross-port (pairwise) fork: a
/// blocked action leaves at most one already-queued token per sibling
/// output queue that can still flush (measured against the event
/// simulator; see `tests/verify_soundness.rs`).
const CROSS_PORT_SLACK: u64 = 1;

/// Source-rooted paths into one join input port beyond which a port pair is
/// counted Unknown rather than analysed.
pub(crate) const MAX_PATHS: usize = 64;

/// Per-node path-traversal summary (see module docs).
#[derive(Debug, Clone, Copy)]
struct StepSummary {
    r_hi: Option<u64>,
    m_lo: u64,
    m_hi: Option<u64>,
    /// Retention bounds are structural (data-independent up to fiber
    /// length), so the hi bound is a meaningful "will retain this much"
    /// statement, not just a worst case.
    precise: bool,
}

const SAME: StepSummary = StepSummary { r_hi: Some(1), m_lo: 1, m_hi: Some(1), precise: true };

/// A node whose first output needs one input and whose later outputs may
/// need none.
const EXPANDS: StepSummary = StepSummary { m_lo: 0, ..SAME };

/// Summarizes traversing `kind` entering at `in_port`. `None` means the
/// node cannot be bounded (e.g. `Serializer` barriers) and poisons the
/// region to Unknown.
fn step_summary(kind: &NodeKind, in_port: usize, opts: &VerifyOptions) -> Option<StepSummary> {
    let hi = opts.fiber_hi;
    Some(match kind {
        NodeKind::Array { .. } | NodeKind::Alu { .. } => SAME,
        // Base side: one element fans out over a whole rep fiber.
        NodeKind::Repeat if in_port == 0 => EXPANDS,
        // Rep side: one output token per rep token.
        NodeKind::Repeat => SAME,
        // One reference expands to a fiber.
        NodeKind::LevelScanner { .. } => EXPANDS,
        NodeKind::Reduce { .. } => {
            // Absorbs a whole inner fiber plus its terminating stop before
            // each emission: at least the stop, at most `h + 1` tokens.
            let fiber = hi.map(|h| h.saturating_add(1));
            StepSummary { r_hi: fiber, m_lo: 1, m_hi: fiber, precise: true }
        }
        NodeKind::Spacc1 { .. } => {
            // Accumulates across Stop(0) boundaries, flushing on Stop(>=1):
            // retains up to a whole outer fiber (h fibers of h elements).
            let outer = hi.map(|h| h.saturating_mul(h.saturating_add(1)).saturating_add(1));
            StepSummary { r_hi: outer, m_lo: 1, m_hi: outer, precise: false }
        }
        NodeKind::UnionLeft if in_port <= 1 => SAME, // left side passes through 1:1
        // Every head makes progress once both sides are present.
        NodeKind::Union => EXPANDS,
        NodeKind::Intersect | NodeKind::UnionLeft => {
            // Data-dependent: may skip a whole fiber before first emission.
            let fiber = hi.map(|h| h.saturating_add(1));
            StepSummary { r_hi: fiber, m_lo: 0, m_hi: fiber, precise: false }
        }
        NodeKind::Parallelizer { factor } => {
            // Round-robin: a branch sees every `factor`-th element, stops
            // broadcast.
            let f = Some((*factor as u64).max(1));
            StepSummary { r_hi: f, m_lo: 0, m_hi: f, precise: false }
        }
        NodeKind::Serializer { .. } => return None, // barrier over whole units: unbounded
        NodeKind::Root | NodeKind::CrdWriter { .. } | NodeKind::ValWriter { .. } => return None,
    })
}

/// Is `join` a `Repeat` whose base channel is too small for it, whatever
/// runs upstream? Closing an empty rep fiber under `Stop(k >= 1)`, a
/// `Repeat` needs the base element and the base stop behind it at once: two
/// tokens, which a capacity-1 channel cannot hold. A base straight from a
/// `Root` carries no stop. Such a join's port pair is counted Unknown.
pub(crate) fn base_starved(g: &SamGraph, join: NodeId, opts: &VerifyOptions) -> bool {
    opts.channel_capacity < 2
        && matches!(g.node(join), NodeKind::Repeat)
        && g.in_edge(join, 0).is_some_and(|e| !matches!(g.node(e.src.node), NodeKind::Root))
}

/// Input ports of a strict join: every pair of connected ones must have
/// heads simultaneously present for the node to commit.
pub(crate) fn strict_ports(kind: &NodeKind) -> &'static [usize] {
    match kind {
        NodeKind::Repeat | NodeKind::Spacc1 { .. } => &[0, 1],
        NodeKind::Alu { op } if op.arity() == 2 => &[0, 1],
        NodeKind::Intersect | NodeKind::Union | NodeKind::UnionLeft => &[0, 1, 2, 3],
        _ => &[],
    }
}

/// How tightly a fork's two diverging edges are coupled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForkClass {
    /// Same output port: identical tokens cloned to both channels, blocked
    /// as one.
    Cloned,
    /// Different ports emitted pairwise by one action (scanner crd/ref,
    /// join crd/payload, spacc crd/val, a parallelizer branch's own pair).
    Lockstep,
    /// No useful coupling (independent or round-robin ports).
    Loose,
}

fn fork_class(kind: &NodeKind, port_a: usize, port_b: usize) -> ForkClass {
    if port_a == port_b {
        return ForkClass::Cloned;
    }
    match kind {
        NodeKind::LevelScanner { .. }
        | NodeKind::Intersect
        | NodeKind::Union
        | NodeKind::UnionLeft
        | NodeKind::Spacc1 { .. } => ForkClass::Lockstep,
        NodeKind::Parallelizer { .. } if port_a / 2 == port_b / 2 => ForkClass::Lockstep,
        _ => ForkClass::Loose,
    }
}

/// Folded bounds for one fork-to-join path (edges in fork-to-join order;
/// interior nodes are everything strictly between).
#[derive(Debug, Clone)]
struct PathSummary {
    /// Most fork tokens the path may need before the join's first commit
    /// (None when unbounded).
    need_hi: Option<u64>,
    /// Fork-token buffering of the path per unit of channel capacity
    /// (`sum over edges of product of upstream m_lo`); always >= 1.
    absorb_units_lo: u64,
    /// All interior retention is structural.
    precise: bool,
}

fn summarize_path(g: &SamGraph, path: &[Edge], opts: &VerifyOptions) -> Option<PathSummary> {
    // Interior node `i` is `path[i].src`, entered via `path[i-1].dst.port`.
    let step = |i: usize| step_summary(g.node(path[i].src.node), path[i - 1].dst.port, opts);
    // Backward fold for need.
    let mut need_hi: Option<u64> = Some(1);
    let mut precise = true;
    for i in (1..path.len()).rev() {
        let s = step(i)?;
        need_hi = match (need_hi, s.r_hi, s.m_hi) {
            (Some(n), Some(r), Some(m)) => Some(r.saturating_add((n - 1).saturating_mul(m))),
            _ => None,
        };
        precise &= s.precise;
    }
    // Forward fold for absorb: each edge buffers `cap` local tokens, each
    // worth at least `product of upstream m_lo` fork tokens.
    let mut units_lo: u64 = 1; // first edge, product over zero nodes
    let mut mult_lo: u64 = 1;
    for i in 1..path.len() {
        mult_lo = mult_lo.saturating_mul(step(i)?.m_lo);
        units_lo = units_lo.saturating_add(mult_lo);
    }
    Some(PathSummary { need_hi, absorb_units_lo: units_lo, precise })
}

/// One reconvergent region instance: two internally node-disjoint paths
/// from `fork` to two input ports of one strict join, edges in fork-to-join
/// order.
pub(crate) struct RegionInstance<'a> {
    pub(crate) fork: NodeId,
    pub(crate) path_a: &'a [Edge],
    pub(crate) path_b: &'a [Edge],
}

/// Per-region aggregated verdict, used for the summary counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verdict {
    Certified,
    Unknown,
    Warned,
}

/// A region: `(fork, join, first edge of path a, first edge of path b)`.
type Key = (usize, usize, (usize, usize, usize, usize), (usize, usize, usize, usize));

/// Verdicts merged per region. A region can have several instances (path
/// pairs leaving the fork by the same two edges); it keeps the strongest
/// verdict and the diagnostic of the first instance that reached it.
#[derive(Default)]
pub(crate) struct Regions {
    by_key: BTreeMap<Key, (Verdict, Option<Diag>)>,
    /// Join port pairs counted Unknown, not analysed: more than
    /// `MAX_PATHS` source-rooted paths into one port, or a starved `Repeat`
    /// base ([`base_starved`]).
    pub(crate) unanalysed_pairs: usize,
}

#[cfg(test)]
thread_local! {
    /// Instances analysed on this thread (the work guard in `oracle.rs`).
    pub(crate) static ANALYZED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Regions {
    /// Analyses one instance and merges its verdict into its region.
    pub(crate) fn analyze(
        &mut self,
        g: &SamGraph,
        opts: &VerifyOptions,
        join: NodeId,
        inst: &RegionInstance<'_>,
    ) {
        #[cfg(test)]
        ANALYZED.with(|n| n.set(n.get() + 1));
        let edge_key = |e: &Edge| (e.src.node.0, e.src.port, e.dst.node.0, e.dst.port);
        let key = (inst.fork.0, join.0, edge_key(&inst.path_a[0]), edge_key(&inst.path_b[0]));
        let (verdict, diag) = analyze_instance(g, opts, join, inst);
        let entry = self.by_key.entry(key).or_insert((Verdict::Certified, None));
        if verdict > entry.0 {
            *entry = (verdict, diag);
        }
    }

    /// Counts the verdicts and emits the flagged regions' diagnostics, in
    /// key order.
    pub(crate) fn finish(self, diags: &mut Vec<Diag>) -> RegionSummary {
        let mut summary = RegionSummary { unknown: self.unanalysed_pairs, ..Default::default() };
        for (verdict, diag) in self.by_key.into_values() {
            match verdict {
                Verdict::Certified => summary.certified += 1,
                Verdict::Unknown => summary.unknown += 1,
                Verdict::Warned => {
                    summary.flagged += 1;
                    diags.extend(diag);
                }
            }
        }
        summary
    }
}

/// The tree of upward paths from one join input port. Tree node `t` stands
/// for the path `edge[t], edge[parent[t]], ...` down to the port, which is
/// already in fork-to-join order; its fork is `edge[t].src.node`. Nodes
/// are numbered in depth-first pre-order with in-edges in insertion order,
/// the order "first instance" in [`Regions`] is defined over.
#[derive(Default)]
struct UpTree {
    edge: Vec<Edge>,
    parent: Vec<usize>,
    /// `(fork, t)` sorted: the tree nodes of one fork are contiguous and in
    /// pre-order.
    by_fork: Vec<(usize, usize)>,
}

const ROOT: usize = usize::MAX;

impl UpTree {
    /// Rebuilds the tree above `last`, the edge into the join port, reusing
    /// the buffers. Its leaves are the source-rooted paths, so the caller
    /// bounds its size by checking the path count against `MAX_PATHS` first.
    fn rebuild(&mut self, g: &SamGraph, last: Edge, stack: &mut Vec<(Edge, usize)>) {
        self.edge.clear();
        self.parent.clear();
        self.by_fork.clear();
        stack.push((last, ROOT));
        while let Some((e, parent)) = stack.pop() {
            let t = self.edge.len();
            self.edge.push(e);
            self.parent.push(parent);
            self.by_fork.push((e.src.node.0, t));
            let mark = stack.len();
            stack.extend(g.in_edges(e.src.node).map(|up| (*up, t)));
            stack[mark..].reverse();
        }
        self.by_fork.sort_unstable();
    }

    /// The tree nodes of each fork, forks ascending.
    fn forks(&self) -> impl Iterator<Item = &[(usize, usize)]> {
        self.by_fork.chunk_by(|x, y| x.0 == y.0)
    }

    /// The tree nodes below `t`: their edges' sources are the interior
    /// nodes of `t`'s path.
    fn below(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        let some = |p: usize| (p != ROOT).then_some(p);
        std::iter::successors(some(self.parent[t]), move |&p| some(self.parent[p]))
    }

    /// Writes `t`'s path into `out`, fork first.
    fn path(&self, t: usize, out: &mut Vec<Edge>) {
        out.clear();
        out.push(self.edge[t]);
        out.extend(self.below(t).map(|p| self.edge[p]));
    }
}

/// Buffers the instance enumeration reuses across tree pairs.
struct Scratch {
    /// Interior nodes of the current a-side path carry the stamp `now`.
    stamp: Vec<usize>,
    now: usize,
    path_a: Vec<Edge>,
    path_b: Vec<Edge>,
}

/// Calls `found` on every instance between two ports' trees: the pairs of
/// paths that start at a common fork and share no interior node, a-side
/// path outermost, both sides in pre-order.
fn instances(a: &UpTree, b: &UpTree, s: &mut Scratch, mut found: impl FnMut(&RegionInstance<'_>)) {
    let mut forks_b = b.forks().peekable();
    for of_a in a.forks() {
        let fork = of_a[0].0;
        while forks_b.next_if(|of_b| of_b[0].0 < fork).is_some() {}
        let Some(of_b) = forks_b.next_if(|of_b| of_b[0].0 == fork) else {
            continue;
        };
        for &(_, ta) in of_a {
            s.now += 1;
            for t in a.below(ta) {
                s.stamp[a.edge[t].src.node.0] = s.now;
            }
            s.path_a.clear();
            for &(_, tb) in of_b {
                if b.below(tb).any(|t| s.stamp[b.edge[t].src.node.0] == s.now) {
                    continue; // the paths meet again below the fork
                }
                if s.path_a.is_empty() {
                    a.path(ta, &mut s.path_a);
                }
                b.path(tb, &mut s.path_b);
                found(&RegionInstance { fork: NodeId(fork), path_a: &s.path_a, path_b: &s.path_b });
            }
        }
    }
}

/// Runs the deadlock pass.
///
/// Every region instance is analysed exactly once: for each pair of
/// connected ports of a strict join, the pairs of upward paths that start
/// at a common fork and share no interior node. (Two source-rooted paths
/// into the two ports diverge for the last time at such a fork, and in a
/// DAG a common prefix can be put in front of any such pair, so these are
/// exactly the instances a source-rooted enumeration finds, each once
/// instead of once per prefix pair.)
pub(crate) fn check_deadlock(
    g: &SamGraph,
    order: &[NodeId],
    opts: &VerifyOptions,
    diags: &mut Vec<Diag>,
) -> RegionSummary {
    // Source-rooted paths reaching each node, saturating: decides the
    // `MAX_PATHS` overflow verdict without enumerating them.
    let mut rooted = vec![0usize; g.node_count()];
    for &n in order {
        let from_above =
            g.in_edges(n).fold(0usize, |sum, e| sum.saturating_add(rooted[e.src.node.0]));
        rooted[n.0] = from_above.max(1);
    }

    let mut regions = Regions::default();
    // One tree per connected strict port, rebuilt per join.
    let mut trees: Vec<UpTree> = Vec::new();
    let mut stack = Vec::new();
    let mut last_edges = Vec::new();
    let mut scratch =
        Scratch { stamp: vec![0; g.node_count()], now: 0, path_a: Vec::new(), path_b: Vec::new() };
    for (j_idx, kind) in g.nodes().iter().enumerate() {
        let join = NodeId(j_idx);
        last_edges.clear();
        last_edges.extend(strict_ports(kind).iter().filter_map(|&p| g.in_edge(join, p).copied()));
        if last_edges.len() < 2 {
            continue;
        }
        if base_starved(g, join, opts) {
            regions.unanalysed_pairs += 1;
            continue;
        }
        if trees.len() < last_edges.len() {
            trees.resize_with(last_edges.len(), UpTree::default);
        }
        // `None` stands for a port with more than `MAX_PATHS` paths.
        let built: Vec<Option<&UpTree>> = trees
            .iter_mut()
            .zip(&last_edges)
            .map(|(tree, last)| {
                (rooted[last.src.node.0] <= MAX_PATHS).then(|| {
                    tree.rebuild(g, *last, &mut stack);
                    &*tree
                })
            })
            .collect();
        for (i, tree_a) in built.iter().enumerate() {
            for tree_b in &built[i + 1..] {
                match (tree_a, tree_b) {
                    (Some(a), Some(b)) => instances(a, b, &mut scratch, |inst| {
                        regions.analyze(g, opts, join, inst);
                    }),
                    _ => regions.unanalysed_pairs += 1,
                }
            }
        }
    }
    regions.finish(diags)
}

fn analyze_instance(
    g: &SamGraph,
    opts: &VerifyOptions,
    join: NodeId,
    inst: &RegionInstance<'_>,
) -> (Verdict, Option<Diag>) {
    let cap = opts.channel_capacity as u64;
    let class = fork_class(g.node(inst.fork), inst.path_a[0].src.port, inst.path_b[0].src.port);
    if class == ForkClass::Loose {
        return (Verdict::Unknown, None);
    }
    let slack = match class {
        ForkClass::Cloned => 0,
        _ => CROSS_PORT_SLACK,
    };
    let (Some(sa), Some(sb)) =
        (summarize_path(g, inst.path_a, opts), summarize_path(g, inst.path_b, opts))
    else {
        return (Verdict::Unknown, None);
    };

    // Certified: both directions fit at this capacity. A lockstep
    // cross-port fork buffers `slack` extra tokens on the sibling side
    // (its stuck output-queue entry still lets the paired port flush).
    let fits = |need: &Option<u64>, sibling: &PathSummary| -> Option<bool> {
        need.map(|n| n <= cap.saturating_mul(sibling.absorb_units_lo).saturating_add(slack))
    };
    if fits(&sa.need_hi, &sb) == Some(true) && fits(&sb.need_hi, &sa) == Some(true) {
        return (Verdict::Certified, None);
    }

    // Minimum uniform capacity making both directions fit (None when a
    // needed hi bound is unknown).
    let min_safe = match (sa.need_hi, sb.need_hi) {
        (Some(na), Some(nb)) => Some(
            (na.saturating_sub(slack).div_ceil(sb.absorb_units_lo))
                .max(nb.saturating_sub(slack).div_ceil(sa.absorb_units_lo))
                .max(1),
        ),
        _ => None,
    };

    // Possible deadlock: structural retention may exceed the sibling's
    // certified buffering.
    for (retain, sib, path) in [(&sb, &sa, inst.path_b), (&sa, &sb, inst.path_a)] {
        if let Some(n) = retain.need_hi {
            if retain.precise && n.saturating_add(slack) > cap.saturating_mul(sib.absorb_units_lo) {
                let mut anchors = vec![Anchor::Node(join), Anchor::Node(inst.fork)];
                anchors.extend(path.iter().map(|e| Anchor::Edge(*e)));
                let mut d = Diag::new(
                    Code::SA013,
                    anchors,
                    format!(
                        "possible deadlock: path from {} to {} may retain up to {} tokens \
                         before the join can commit, exceeding its sibling's buffering of {}",
                        g.node_anchor(inst.fork),
                        g.node_anchor(join),
                        n,
                        cap.saturating_mul(sib.absorb_units_lo),
                    ),
                );
                if let Some(c) = min_safe {
                    d = d.with_min_safe_capacity(c);
                }
                return (Verdict::Warned, Some(d));
            }
        }
    }

    (Verdict::Unknown, None)
}
