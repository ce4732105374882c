//! Lowering fused regions to SAMML dataflow graphs (Section 6, Algorithm 2).
//!
//! Algorithm 2's fusion table is the lowering's own state (`Ctx`), not a
//! record kept beside the graph. Its rows are the region's fused order
//! (`FusedRegion::order`); its columns are the tensor views (`ViewRt`) and
//! the expression outputs (`Produced`); its cells are the streams held for
//! them — each expression's row coordinate streams (`row_crd`) and each
//! view's reference or value stream. A cell that points at a component not
//! created yet is a forward reference (`H::Fwd`). The emitted graph is the
//! only output.
//!
//! The lowering walks the fused iteration order row by row (top-down),
//! building for every expression its interleaved input-iteration and
//! compute pipelines — **factored iteration**: each expression keeps its own
//! sub-space, non-innermost reductions become order-1 `Spacc` sparse
//! accumulators whose output coordinate streams feed the next expression's
//! joins, and shared rows reuse the streams already built instead of
//! re-iterating loops.
//!
//! A producer that runs under its consumer's rows is intersected, at the row
//! where the two meet, with the consumer's operand there
//! (`intersect_with_consumer`), so it runs only at the coordinates the
//! consumer keeps.
//!
//! A view that joins an intermediate above the row where it registers holds
//! a forward reference to its value stream: its edges queue until
//! registration wires them and replaces every reference still held. No node
//! stands in for it.
//!
//! Stream parallelization (Section 7) splits a chosen free row across
//! `factor` copies of everything below it and merges results with
//! order-driven serializers; nested splits compose.

use crate::fusion::{FuseError, FusedRegion, GlobalIx};
use crate::ir::{Program, TensorId};
use fuseflow_sam::{MemLocation, NodeId, NodeKind, SamGraph, MAX_SPACC_ORDER};
use std::collections::{BTreeMap, HashMap};

/// A stream handle: an output port of a graph node, or a forward reference
/// to branch `branch` of the `branches` value streams of region intermediate
/// `tensor`, which has not registered yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum H {
    Port(NodeId, usize),
    Fwd { tensor: TensorId, branch: usize, branches: usize },
}

/// Output port `p` of every node.
fn port(nodes: &[NodeId], p: usize) -> Vec<H> {
    nodes.iter().map(|&n| H::Port(n, p)).collect()
}

/// Why a row between a forward reference and its producer is not split.
const SPLIT_ACROSS_REFERENCE: &str =
    "parallelization split between a deferred reference and its producer";

/// `h`, with a forward reference to `t` replaced by its branch of `t`'s
/// value stream `val` (`split_refusal` keeps the branch counts equal).
fn resolve(h: H, t: TensorId, val: &[H]) -> Result<H, LowerError> {
    match h {
        H::Fwd { tensor, branch, branches } if tensor == t => (branches == val.len())
            .then(|| val[branch])
            .ok_or_else(|| LowerError::Unsupported(SPLIT_ACROSS_REFERENCE.into())),
        _ => Ok(h),
    }
}

/// Broadcasts each stream to `factor` consecutive branches (fan-out
/// duplicates tokens).
fn replicate(streams: &[H], factor: usize) -> Vec<H> {
    streams.iter().flat_map(|&s| std::iter::repeat(s).take(factor)).collect()
}

/// Lowering errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A construct this lowering does not support.
    Unsupported(String),
    /// Region fusion failed.
    Fusion(FuseError),
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::Unsupported(m) => write!(f, "unsupported: {m}"),
            LowerError::Fusion(e) => write!(f, "fusion failed: {e}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<FuseError> for LowerError {
    fn from(e: FuseError) -> Self {
        LowerError::Fusion(e)
    }
}

/// Options controlling one region's lowering.
#[derive(Debug, Clone, Default)]
pub struct LowerOptions {
    /// Rows to parallelize: `(global index, factor)`. Each is split or
    /// recorded in [`Lowered::refused`]; factor 1 is a no-op.
    pub parallelize: Vec<(GlobalIx, usize)>,
    /// Memory location of region inputs and outputs.
    pub location: MemLocation,
}

/// A materialized permuted input the runtime must provide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutedInput {
    /// Name of the original tensor.
    pub base: String,
    /// Binding name of the permuted copy.
    pub derived: String,
    /// Level permutation.
    pub perm: Vec<usize>,
}

/// The result of lowering one fused region.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The SAMML dataflow graph.
    pub graph: SamGraph,
    /// Permuted input copies the runtime must materialize.
    pub permuted_inputs: Vec<PermutedInput>,
    /// Parallel directives split, outermost first: `(row, factor)`.
    pub applied: Vec<(GlobalIx, usize)>,
    /// Parallel directives not split, in the order given; a compile appends
    /// those naming a row the region does not iterate.
    pub refused: Vec<Refused>,
}

/// A parallel directive the lowering refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refused {
    /// Name of the row the directive names (`IndexVar(n)` for a variable the
    /// program never declared).
    pub row: String,
    /// The directive's factor.
    pub factor: usize,
    /// Why the row cannot be split in this region.
    pub reason: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ViewKind {
    Input { slot: usize },
    Inter,
}

struct ViewRt {
    expr: usize,
    tensor: TensorId,
    ixs: Vec<GlobalIx>,
    kind: ViewKind,
    started: bool,
    next: usize,
    /// Per-branch ref stream while scanning, then value stream.
    stream: Vec<H>,
    is_val: bool,
}

#[derive(Debug, Clone)]
struct Produced {
    /// Scope rows plus output indices, in iteration order.
    structure: Vec<GlobalIx>,
    crd: HashMap<GlobalIx, Vec<H>>,
    val: Vec<H>,
}

struct SplitRecord {
    row: GlobalIx,
    factor: usize,
    /// Pre-split row coordinate streams (one per pre-split branch), used as
    /// serializer order streams.
    order_crd: Vec<H>,
}

struct Ctx<'a> {
    program: &'a Program,
    region: &'a FusedRegion,
    /// The tensors the region writes back: never filtered by a consumer.
    outputs: &'a [TensorId],
    graph: SamGraph,
    pos: HashMap<GlobalIx, usize>,
    rows_of: Vec<Vec<GlobalIx>>,
    views: Vec<ViewRt>,
    expr_views: Vec<Vec<usize>>,
    produced: HashMap<TensorId, Produced>,
    /// Ordered: `apply_split` emits nodes while walking it, and node ids
    /// must not depend on a hash seed.
    row_crd: BTreeMap<(usize, GlobalIx), Vec<H>>,
    branches: usize,
    splits: Vec<SplitRecord>,
    /// Edges from forward references, `(reference, node, port)`, in the
    /// order they were made; wired when the referenced tensor registers.
    pending: Vec<(H, NodeId, usize)>,
}

impl<'a> Ctx<'a> {
    fn name(&self, g: GlobalIx) -> &str {
        &self.region.names[g.0 as usize]
    }

    /// Wires `src` to `port` of `dst`, or queues the edge if `src` is a
    /// forward reference.
    fn connect(&mut self, src: H, dst: NodeId, port: usize) {
        match src {
            H::Port(n, p) => self.graph.connect(n, p, dst, port),
            H::Fwd { .. } => self.pending.push((src, dst, port)),
        }
    }

    /// Adds one `kind` node per branch, `inputs[p][b]` wired to port `p` of
    /// branch `b`'s node.
    fn emit(&mut self, kind: NodeKind, inputs: &[&[H]]) -> Vec<NodeId> {
        (0..self.branches)
            .map(|b| {
                let n = self.graph.add_node(kind.clone());
                for (p, streams) in inputs.iter().enumerate() {
                    self.connect(streams[b], n, p);
                }
                n
            })
            .collect()
    }

    /// One root reference stream per branch.
    fn roots(&mut self) -> Vec<H> {
        port(&self.emit(NodeKind::Root, &[]), 0)
    }

    /// Forward references to every branch of `tensor`'s value stream.
    fn forward(&self, tensor: TensorId) -> Vec<H> {
        let branches = self.branches;
        (0..branches).map(|branch| H::Fwd { tensor, branch, branches }).collect()
    }

    fn tensor_name(&self, t: TensorId) -> &str {
        &self.program.tensor(self.region.decl_id(t)).name
    }

    /// Finds the canonical row coordinate stream for a scope row of `expr`:
    /// the stream of the consumer that contributed the scope.
    fn scope_row_crd(&self, expr: usize, g: GlobalIx) -> Option<Vec<H>> {
        for e in (0..self.rows_of.len()).rev() {
            if e != expr {
                if let Some(v) = self.row_crd.get(&(e, g)) {
                    return Some(v.clone());
                }
            }
        }
        None
    }
}

/// Lowers one fused region into a SAMML graph with factored iteration.
///
/// `outputs` lists the tensors this region must write back to memory
/// (region results and fusion-boundary intermediates).
///
/// # Errors
///
/// See [`LowerError`].
pub fn lower_region(
    program: &Program,
    region: &FusedRegion,
    outputs: &[TensorId],
    opts: &LowerOptions,
) -> Result<Lowered, LowerError> {
    let pos: HashMap<GlobalIx, usize> =
        region.order.iter().enumerate().map(|(p, g)| (*g, p)).collect();

    // Effective rows per expression: scope + own indices, iteration order.
    let mut rows_of = Vec::with_capacity(region.exprs.len());
    for (ei, e) in region.exprs.iter().enumerate() {
        let mut rows: Vec<GlobalIx> = region.scopes[ei].clone();
        rows.extend(e.index_set());
        rows.sort_by_key(|g| pos[g]);
        rows.dedup();
        // Scope rows must sit strictly above all own rows.
        let own_top = e.index_set().iter().map(|g| pos[g]).min().unwrap_or(0);
        for s in &region.scopes[ei] {
            if pos[s] >= own_top {
                return Err(LowerError::Unsupported(
                    "recomputation scope interleaves with expression indices".into(),
                ));
            }
        }
        rows_of.push(rows);
    }

    // Decide each parallel directive once, before any node exists.
    let (mut applied, mut refused) = (Vec::new(), Vec::new());
    for &(g, factor) in opts.parallelize.iter().filter(|&&(_, factor)| factor != 1) {
        match split_refusal(program, region, &rows_of, &pos, &applied, g, factor) {
            None => applied.push((g, factor)),
            Some(reason) => {
                refused.push(Refused { row: region.names[g.0 as usize].clone(), factor, reason })
            }
        }
    }
    applied.sort_by_key(|(g, _)| pos[g]);

    let mut graph = SamGraph::new();
    let mut slot_of_tensor: HashMap<TensorId, usize> = HashMap::new();
    let mut permuted_inputs = Vec::new();

    // Views: every input access of every expression.
    let mut views: Vec<ViewRt> = Vec::new();
    let mut expr_views: Vec<Vec<usize>> = Vec::new();
    let produced_set: Vec<TensorId> = region.exprs.iter().map(|e| e.output.0).collect();
    for (ei, e) in region.exprs.iter().enumerate() {
        let mut ids = Vec::new();
        for (pi, (t, ixs)) in e.inputs.iter().enumerate() {
            let decl = program.tensor(region.decl_id(*t));
            let kind = if produced_set[..ei].contains(t) {
                ViewKind::Inter
            } else {
                // Materialized-transpose views bind a derived tensor name.
                let fix = region.transposes.iter().find(|f| f.expr == ei && f.input == pi);
                let bind_name = match fix {
                    Some(f) => {
                        let derived = format!("{}__perm{:?}", decl.name, f.perm)
                            .replace([' ', ','], "_")
                            .replace(['[', ']'], "");
                        permuted_inputs.push(PermutedInput {
                            base: decl.name.clone(),
                            derived: derived.clone(),
                            perm: f.perm.clone(),
                        });
                        derived
                    }
                    None => decl.name.clone(),
                };
                let key = if fix.is_some() { TensorId(usize::MAX - views.len()) } else { *t };
                let slot = *slot_of_tensor
                    .entry(key)
                    .or_insert_with(|| graph.add_tensor(bind_name, opts.location));
                ViewKind::Input { slot }
            };
            views.push(ViewRt {
                expr: ei,
                tensor: *t,
                ixs: ixs.clone(),
                kind,
                started: false,
                next: 0,
                stream: Vec::new(),
                is_val: false,
            });
            ids.push(views.len() - 1);
        }
        expr_views.push(ids);
    }
    let mut ctx = Ctx {
        program,
        region,
        outputs,
        graph,
        pos,
        rows_of,
        views,
        expr_views,
        produced: HashMap::new(),
        row_crd: BTreeMap::new(),
        branches: 1,
        splits: Vec::new(),
        pending: Vec::new(),
    };

    // ---- Row-major construction -----------------------------------------
    for &g in &region.order {
        // Expressions owning this row (some view accesses it) come first so
        // that scope rows can reference their consumers' streams; within a
        // group, program order keeps producer registrations ahead of
        // consumer joins at the same row.
        let mut owner_exprs = Vec::new();
        let mut scope_exprs = Vec::new();
        for ei in 0..region.exprs.len() {
            if !ctx.rows_of[ei].contains(&g) {
                continue;
            }
            let owns = region.exprs[ei].inputs.iter().any(|(_, ixs)| ixs.contains(&g));
            if owns {
                owner_exprs.push(ei);
            } else {
                scope_exprs.push(ei);
            }
        }
        let split = applied.iter().find(|(pg, _)| *pg == g).map(|&(_, f)| f);
        if let Some(factor) = split {
            // Split rows are no expression's innermost (`split_refusal`), so
            // no registration happens here: stage the phases.
            for &ei in owner_exprs.iter().chain(&scope_exprs) {
                owner_row_work(&mut ctx, ei, g)?;
            }
            apply_split(&mut ctx, g, factor)?;
            for &ei in owner_exprs.iter().chain(&scope_exprs) {
                repeat_row_work(&mut ctx, ei, g)?;
            }
        } else {
            for &ei in owner_exprs.iter().chain(&scope_exprs) {
                owner_row_work(&mut ctx, ei, g)?;
                repeat_row_work(&mut ctx, ei, g)?;
                if ctx.rows_of[ei].last() == Some(&g) {
                    finish_expr(&mut ctx, ei)?;
                }
            }
        }
    }

    // ---- Writers ---------------------------------------------------------
    for &t in outputs {
        let Some(prod) = ctx.produced.get(&t).cloned() else {
            return Err(LowerError::Unsupported(format!(
                "output '{}' not produced by region",
                program.tensor(t).name
            )));
        };
        let e = region
            .exprs
            .iter()
            .position(|e| e.output.0 == t)
            .expect("produced implies an expression");
        if !region.scopes[e].is_empty() {
            return Err(LowerError::Unsupported(
                "a region output cannot sit under a recomputation scope".into(),
            ));
        }
        let decl = program.tensor(t);
        let (shape, format) = (decl.shape.clone(), decl.format.clone());
        let slot = ctx.graph.add_blocked_output(
            decl.name.clone(),
            shape,
            format,
            decl.block,
            opts.location,
        );
        // Output index rows, iteration-ordered (concordant by the POG).
        let out_ixs = &region.exprs[e].output.1;
        for (lvl, ix) in out_ixs.iter().enumerate() {
            let merged = merge_branches(&mut ctx, prod.crd[ix].clone(), &prod.structure, *ix)?;
            let w = ctx.graph.add_node(NodeKind::CrdWriter { output: slot, level: lvl });
            ctx.connect(merged, w, 0);
        }
        let inner = *out_ixs.last().expect("outputs have at least one level");
        let merged_val = merge_branches(&mut ctx, prod.val.clone(), &prod.structure, inner)?;
        let w = ctx.graph.add_node(NodeKind::ValWriter { output: slot });
        ctx.connect(merged_val, w, 0);
    }

    Ok(Lowered { graph: ctx.graph, permuted_inputs, applied, refused })
}

/// Why row `g` of `region` cannot be split `factor` ways (Section 7) after
/// the `applied` splits, if it cannot: a split row is iterated by every
/// expression, reduced by none and none's innermost, lies between no
/// forward reference and its producer, and has at least `factor`
/// coordinates, so that every lane can receive one.
fn split_refusal(
    program: &Program,
    region: &FusedRegion,
    rows_of: &[Vec<GlobalIx>],
    pos: &HashMap<GlobalIx, usize>,
    applied: &[(GlobalIx, usize)],
    g: GlobalIx,
    factor: usize,
) -> Option<String> {
    if factor == 0 {
        return Some("a parallel factor must be at least 1".into());
    }
    if applied.iter().any(|&(a, _)| a == g) {
        return Some("row already split by an earlier directive".into());
    }
    for (ei, e) in region.exprs.iter().enumerate() {
        let why = if !rows_of[ei].contains(&g) {
            format!("parallelized row {} missing from expression {ei}", region.names[g.0 as usize])
        } else if e.reduce.contains(&g) {
            "cannot parallelize a reduced row".into()
        } else if rows_of[ei].last() == Some(&g) {
            "cannot parallelize an expression's innermost row".into()
        } else {
            continue;
        };
        return Some(why);
    }
    // A view joins its in-region producer's values at the view's innermost
    // row; when the producer registers later (at its last row), the forward
    // reference resolves branch by branch, so no split may fall in between.
    for (ei, e) in region.exprs.iter().enumerate() {
        for (t, ixs) in &e.inputs {
            let Some(p) = region.exprs[..ei].iter().position(|pe| pe.output.0 == *t) else {
                continue;
            };
            let (Some(inner), Some(last)) = (ixs.last(), rows_of[p].last()) else { continue };
            if (pos[inner]..pos[last]).contains(&pos[&g]) {
                return Some(SPLIT_ACROSS_REFERENCE.into());
            }
        }
    }
    // Every variable unified into the row has its extent (over the block
    // grid when blocked).
    let var = region.global_of.iter().find(|(_, &row)| row == g).map(|(&(_, var), _)| var);
    let extent = program.index_size(var.expect("every row comes from a program variable"));
    (factor > extent).then(|| format!("factor {factor} exceeds the row's extent {extent}"))
}

/// Creates scanners/joins for views owning row `g` within expression `ei`.
fn owner_row_work(ctx: &mut Ctx<'_>, ei: usize, g: GlobalIx) -> Result<(), LowerError> {
    let view_ids = ctx.expr_views[ei].clone();
    // Contributions: (view id, crd streams, payload, inter-non-innermost)
    let mut contribs = Vec::new();
    for vid in view_ids {
        let v = &ctx.views[vid];
        if !v.ixs.contains(&g) {
            continue;
        }
        match v.kind {
            ViewKind::Input { slot } => {
                let level = ctx.views[vid].ixs.iter().position(|x| *x == g).expect("owner");
                if level < ctx.views[vid].next {
                    // Scanned by a producer's `intersect_with_consumer`: the
                    // intermediate's coordinates are already this view's.
                    continue;
                }
                if level != ctx.views[vid].next {
                    return Err(LowerError::Unsupported(
                        "discordant traversal slipped past the POG".into(),
                    ));
                }
                if !ctx.views[vid].started {
                    ctx.views[vid].stream = ctx.roots();
                    ctx.views[vid].started = true;
                }
                let src = ctx.views[vid].stream.clone();
                let ls = ctx.emit(NodeKind::LevelScanner { tensor: slot, level }, &[&src]);
                ctx.views[vid].next = level + 1;
                contribs.push((vid, port(&ls, 0), Some(port(&ls, 1)), false));
            }
            ViewKind::Inter => {
                let tensor = ctx.views[vid].tensor;
                let innermost = *ctx.views[vid].ixs.last().expect("inter view has levels");
                // Either the producer already registered (post-reduction
                // streams at its innermost row) or this is a shared outer
                // loop whose coordinate stream is the producer's row crd.
                let (crd, payload) = match ctx.produced.get(&tensor) {
                    Some(prod) => {
                        let Some(crd) = prod.crd.get(&g) else {
                            return Err(LowerError::Unsupported(
                                "intermediate joined on a non-registered row".into(),
                            ));
                        };
                        (crd.clone(), (g == innermost).then(|| prod.val.clone()))
                    }
                    None => {
                        let prod_ei = ctx
                            .region
                            .exprs
                            .iter()
                            .position(|e| e.output.0 == tensor)
                            .expect("intermediate has a producer");
                        let Some(crd) = ctx.row_crd.get(&(prod_ei, g)) else {
                            return Err(LowerError::Unsupported(
                                "shared row has no producer coordinate stream yet".into(),
                            ));
                        };
                        // A reduce-output consumed above its producer's
                        // innermost row: its values are forward references.
                        (crd.clone(), (g == innermost).then(|| ctx.forward(tensor)))
                    }
                };
                contribs.push((vid, crd, payload, g != innermost));
            }
        }
    }
    if contribs.is_empty() {
        // Scope row: reuse the contributing consumer's stream.
        let Some(crd) = ctx.scope_row_crd(ei, g) else {
            return Err(LowerError::Unsupported(format!(
                "no coordinate stream available for scope row {}",
                ctx.name(g)
            )));
        };
        ctx.row_crd.insert((ei, g), crd);
        return Ok(());
    }

    let sole_scan = match contribs[..] {
        [(vid, ..)] if ctx.views[vid].kind != ViewKind::Inter => Some(vid),
        _ => None,
    };

    // Fold contributions with joins. Identical handles share one stream.
    let op = ctx.region.exprs[ei].op;
    let mut acc = contribs.remove(0);
    for next in contribs {
        if acc.1 == next.1 {
            // Same stream (e.g. numerator/denominator of a softmax): no
            // join node needed; payloads stay independent.
            update_view_stream(ctx, next.0, next.2);
            continue;
        }
        let mut next = next;
        if next.3 && !acc.3 {
            // Keep the streamed-intermediate side on the left.
            std::mem::swap(&mut acc, &mut next);
        }
        let kind = if acc.3 {
            NodeKind::UnionLeft
        } else if op.is_some_and(|op| op.unions()) {
            NodeKind::Union
        } else {
            NodeKind::Intersect
        };
        let mut crd_out = Vec::with_capacity(ctx.branches);
        let mut pa_out = acc.2.is_some().then(|| Vec::with_capacity(ctx.branches));
        let mut pb_out = next.2.is_some().then(|| Vec::with_capacity(ctx.branches));
        for b in 0..ctx.branches {
            let j = ctx.graph.add_node(kind.clone());
            ctx.connect(acc.1[b], j, 0);
            if let Some(pa) = &acc.2 {
                ctx.connect(pa[b], j, 1);
            }
            ctx.connect(next.1[b], j, 2);
            if let Some(pb) = &next.2 {
                ctx.connect(pb[b], j, 3);
            }
            crd_out.push(H::Port(j, 0));
            if let Some(v) = &mut pa_out {
                v.push(H::Port(j, 1));
            }
            if let Some(v) = &mut pb_out {
                v.push(H::Port(j, 2));
            }
        }
        update_view_stream(ctx, acc.0, pa_out.clone());
        update_view_stream(ctx, next.0, pb_out);
        acc = (acc.0, crd_out, pa_out, false);
    }
    // The folded payload becomes the view's stream.
    update_view_stream(ctx, acc.0, acc.2);
    ctx.row_crd.insert((ei, g), acc.1);
    if let Some(vid) = sole_scan {
        intersect_with_consumer(ctx, ei, vid, g);
    }

    // Views that just finished their last level fetch values eagerly.
    let view_ids = ctx.expr_views[ei].clone();
    for vid in view_ids {
        let v = &ctx.views[vid];
        if let ViewKind::Input { slot } = v.kind {
            if v.started && !v.is_val && v.next == v.ixs.len() && v.ixs.last() == Some(&g) {
                let src = std::mem::take(&mut ctx.views[vid].stream);
                ctx.views[vid].stream =
                    port(&ctx.emit(NodeKind::Array { tensor: slot }, &[&src]), 0);
                ctx.views[vid].is_val = true;
            }
        }
    }
    Ok(())
}

/// Where a single-use region intermediate goes at row `g`, one expression
/// down ([`link`]).
enum Link {
    /// Into `next`, which joins it at `g` not at all (a contraction over
    /// another row) or with one input by a union (a `UnionLeft`, which keeps
    /// the intermediate's coordinates).
    Pass(TensorId),
    /// Into `next`, a union with `sibling`, another intermediate.
    Union { sibling: TensorId, next: TensorId },
    /// Into a binary, non-union consumer whose other operand is input view
    /// `o` (tensor slot `slot`), not yet scanned at `g`.
    Consumer { o: usize, slot: usize },
}

/// The link from intermediate `t` at row `g`, if `t` is not written back,
/// has one use, and that use reads it above its innermost row.
fn link(ctx: &Ctx<'_>, t: TensorId, g: GlobalIx) -> Option<Link> {
    if ctx.outputs.contains(&t) {
        return None;
    }
    let mut uses = (0..ctx.views.len())
        .filter(|&v| ctx.views[v].kind == ViewKind::Inter && ctx.views[v].tensor == t);
    let (Some(vid), None) = (uses.next(), uses.next()) else { return None };
    let view = &ctx.views[vid];
    if !view.ixs.contains(&g) || view.ixs.last() == Some(&g) {
        return None;
    }
    let others: Vec<usize> = (ctx.expr_views[view.expr].iter().copied())
        .filter(|&o| o != vid && ctx.views[o].ixs.contains(&g))
        .collect();
    let e = &ctx.region.exprs[view.expr];
    let (next, unions) = (e.output.0, e.op.is_some_and(|op| op.unions()));
    match others[..] {
        [] => Some(Link::Pass(next)),
        [o] => match ctx.views[o].kind {
            ViewKind::Input { .. } if unions => Some(Link::Pass(next)),
            ViewKind::Input { slot } => {
                let level = ctx.views[o].ixs.iter().position(|x| *x == g);
                let open = e.inputs.len() == 2 && level == Some(ctx.views[o].next);
                open.then_some(Link::Consumer { o, slot })
            }
            ViewKind::Inter if unions => Some(Link::Union { sibling: ctx.views[o].tensor, next }),
            ViewKind::Inter => None,
        },
        _ => None,
    }
}

/// Whether intermediate `i` links into `t` at row `g` without being filtered
/// there, and every leaf under `i` takes the filter that `t`'s consumer puts
/// on `t`: each leaf folds `g` with a sole input scan and reaches `i` over
/// intermediates that pass too.
fn passes(ctx: &Ctx<'_>, i: TensorId, t: TensorId, g: GlobalIx) -> bool {
    if !matches!(link(ctx, i, g), Some(Link::Pass(n) | Link::Union { next: n, .. }) if n == t) {
        return false;
    }
    let Some(p) = ctx.region.exprs.iter().position(|e| e.output.0 == i) else { return false };
    let at_g: Vec<&ViewRt> =
        ctx.expr_views[p].iter().map(|&v| &ctx.views[v]).filter(|v| v.ixs.contains(&g)).collect();
    if let [v] = at_g[..] {
        return v.kind != ViewKind::Inter || passes(ctx, v.tensor, i, g);
    }
    let inters: Vec<TensorId> =
        at_g.iter().filter(|v| v.kind == ViewKind::Inter).map(|v| v.tensor).collect();
    !inters.is_empty() && inters.iter().all(|&x| passes(ctx, x, i, g))
}

/// The input view, and its tensor slot, whose row-`g` coordinates filter
/// expression `ei`'s output there, if any, and whether the walk to it crossed
/// a union. The walk follows [`link`]s from `ei`'s output. It crosses a union
/// of two intermediates only when the other one [`passes`] into the same
/// union: its own walk then goes on to the same consumer, and every leaf under
/// it takes the filter, so the union pairs rows that both sides filtered
/// alike. It visits each expression at most once.
fn filtering_operand(ctx: &Ctx<'_>, ei: usize, g: GlobalIx) -> Option<(usize, usize, bool)> {
    let (mut t, mut crossed) = (ctx.region.exprs[ei].output.0, false);
    for _ in 0..ctx.region.exprs.len() {
        match link(ctx, t, g)? {
            Link::Pass(next) => t = next,
            Link::Union { sibling, next } => {
                if !passes(ctx, sibling, next, g) {
                    return None;
                }
                (t, crossed) = (next, true);
            }
            Link::Consumer { o, slot } => return Some((o, slot, crossed)),
        }
    }
    None
}

/// Intersects expression `ei`'s sole row-`g` scan, view `vid`, with the
/// operand that filters its output ([`filtering_operand`]): the producer
/// then runs only at coordinates its consumer keeps, and the intersection's
/// reference outputs drive both views' next levels, as an intersecter's do
/// in SAM. The consumer finds that operand scanned.
///
/// Past a union, each leaf scans the operand into its own scanner and keeps
/// only its own references. The operand is left unscanned, so the consumer
/// still scans and joins it, and its `UnionLeft` sees only the operand's
/// coordinates.
fn intersect_with_consumer(ctx: &mut Ctx<'_>, ei: usize, vid: usize, g: GlobalIx) {
    let Some((o, slot, crossed)) = filtering_operand(ctx, ei, g) else { return };
    if !ctx.views[o].started {
        ctx.views[o].stream = ctx.roots();
        ctx.views[o].started = true;
    }
    let level = ctx.views[o].next;
    let src = ctx.views[o].stream.clone();
    let ls = ctx.emit(NodeKind::LevelScanner { tensor: slot, level }, &[&src]);
    let (crd, refs) = (ctx.row_crd[&(ei, g)].clone(), ctx.views[vid].stream.clone());
    let j = ctx.emit(NodeKind::Intersect, &[&crd, &refs, &port(&ls, 0), &port(&ls, 1)]);
    ctx.row_crd.insert((ei, g), port(&j, 0));
    ctx.views[vid].stream = port(&j, 1);
    if !crossed {
        ctx.views[o].stream = port(&j, 2);
        ctx.views[o].next = level + 1;
    }
}

/// A joined payload becomes the view's stream: an input's child references,
/// or an intermediate's values (it has a payload only at its innermost row).
fn update_view_stream(ctx: &mut Ctx<'_>, vid: usize, payload: Option<Vec<H>>) {
    if let Some(p) = payload {
        let v = &mut ctx.views[vid];
        v.stream = p;
        v.is_val |= v.kind == ViewKind::Inter;
    }
}

/// Splits every row-`g` owner stream across `factor` branches.
fn apply_split(ctx: &mut Ctx<'_>, g: GlobalIx, factor: usize) -> Result<(), LowerError> {
    // Record order streams (pre-split row crds of the output-producing
    // expressions; any expression owning the row works because serializer
    // order streams only need element counts — use each expr's own).
    let mut order_crd = Vec::new();
    for ei in 0..ctx.region.exprs.len() {
        if let Some(rc) = ctx.row_crd.get(&(ei, g)) {
            order_crd = rc.clone();
            break;
        }
    }
    if order_crd.is_empty() {
        return Err(LowerError::Unsupported("split row has no coordinate stream".into()));
    }
    ctx.splits.push(SplitRecord { row: g, factor, order_crd });

    // A parallelizer's sub-branch `s` leaves on ports `2s` (crd) and `2s + 1`
    // (payload).
    let fan = |ps: &[NodeId], off: usize| -> Vec<H> {
        ps.iter().flat_map(|&p| (0..factor).map(move |s| H::Port(p, 2 * s + off))).collect()
    };

    // Split per-expression row crds together with each 1:1 owner stream
    // (which pairs with its expression's pre-split row crd).
    let pre_split = std::mem::take(&mut ctx.row_crd);
    for (&key, streams) in &pre_split {
        let nv = if key.1 == g {
            // Split: one parallelizer per old branch carrying the row crd;
            // owner payload streams ride their own parallelizers below.
            fan(&ctx.emit(NodeKind::Parallelizer { factor }, &[streams]), 0)
        } else {
            replicate(streams, factor)
        };
        ctx.row_crd.insert(key, nv);
    }

    // Views: owner streams at this row (touched this row, 1:1 with row
    // elems) split; everything else broadcasts.
    for vid in 0..ctx.views.len() {
        if ctx.views[vid].stream.is_empty() {
            continue;
        }
        let v_ei = ctx.views[vid].expr;
        let owns = ctx.views[vid].ixs.contains(&g);
        let one_to_one = owns
            && ((ctx.views[vid].is_val && ctx.views[vid].ixs.last() == Some(&g))
                || (!ctx.views[vid].is_val
                    && ctx.views[vid].next > 0
                    && ctx.views[vid].ixs[ctx.views[vid].next - 1] == g));
        let old_streams = std::mem::take(&mut ctx.views[vid].stream);
        ctx.views[vid].stream = if one_to_one {
            let rc = &pre_split[&(v_ei, g)];
            fan(&ctx.emit(NodeKind::Parallelizer { factor }, &[rc, &old_streams]), 1)
        } else {
            replicate(&old_streams, factor)
        };
    }

    // Produced intermediates: broadcast (registrations at or below this row
    // have not happened yet; see lower_region docs).
    for prod in ctx.produced.values_mut() {
        for streams in prod.crd.values_mut() {
            *streams = replicate(streams, factor);
        }
        prod.val = replicate(&prod.val, factor);
    }
    ctx.branches *= factor;
    Ok(())
}

/// Broadcasts non-owner views across row `g` via repeat nodes.
fn repeat_row_work(ctx: &mut Ctx<'_>, ei: usize, g: GlobalIx) -> Result<(), LowerError> {
    let rc = ctx.row_crd[&(ei, g)].clone();
    let view_ids = ctx.expr_views[ei].clone();
    for vid in view_ids {
        if ctx.views[vid].ixs.contains(&g) {
            continue;
        }
        match ctx.views[vid].kind {
            ViewKind::Input { .. } => {
                if !ctx.views[vid].started {
                    ctx.views[vid].stream = ctx.roots();
                    ctx.views[vid].started = true;
                }
            }
            ViewKind::Inter => {
                let tensor = ctx.views[vid].tensor;
                let prod_ei = ctx
                    .region
                    .exprs
                    .iter()
                    .position(|e| e.output.0 == tensor)
                    .expect("intermediate has a producer");
                let in_structure = ctx.region.scopes[prod_ei].contains(&g)
                    || ctx.region.exprs[prod_ei].output.1.contains(&g);
                if in_structure {
                    // Shared loop (possibly a recomputation scope): the
                    // producer's streams are already nested under it.
                    continue;
                }
                let innermost = *ctx.views[vid].ixs.last().expect("levels");
                if ctx.pos[&g] < ctx.pos[&innermost] {
                    return Err(LowerError::Unsupported(
                        "broadcast row between an intermediate's output levels".into(),
                    ));
                }
                if !ctx.views[vid].is_val {
                    return Err(LowerError::Unsupported(format!(
                        "intermediate '{}' value stream unavailable for broadcast over row {} in expr {}",
                        ctx.tensor_name(tensor),
                        ctx.name(g),
                        ei
                    )));
                }
            }
        }
        // Broadcast the current stream (refs before the first own level,
        // refs mid-scan, or values past the last level); `apply_split` has
        // replicated it across every split so far.
        let base = std::mem::take(&mut ctx.views[vid].stream);
        ctx.views[vid].stream = port(&ctx.emit(NodeKind::Repeat, &[&base, &rc]), 0);
    }
    Ok(())
}

/// Builds the compute pipeline and reductions for expression `ei`, then
/// registers its produced streams.
fn finish_expr(ctx: &mut Ctx<'_>, ei: usize) -> Result<(), LowerError> {
    let e = ctx.region.exprs[ei].clone();
    let view_ids = ctx.expr_views[ei].clone();
    // Ensure every view ended as a value stream.
    for &vid in &view_ids {
        let v = &ctx.views[vid];
        if !v.is_val {
            return Err(LowerError::Unsupported(format!(
                "view of '{}' never produced values",
                ctx.tensor_name(v.tensor)
            )));
        }
    }
    // Combine.
    let mut val: Vec<H> = ctx.views[view_ids[0]].stream.clone();
    match e.op {
        Some(op) if op.arity() == 1 => val = port(&ctx.emit(NodeKind::Alu { op }, &[&val]), 0),
        Some(op) => {
            for &vid in &view_ids[1..] {
                let rhs = ctx.views[vid].stream.clone();
                val = port(&ctx.emit(NodeKind::Alu { op }, &[&val, &rhs]), 0);
            }
        }
        None => {}
    }

    // Reductions, innermost outward; track the surviving inner crd stream.
    let rows = ctx.rows_of[ei].clone();
    let mut eliminated: Vec<GlobalIx> = Vec::new();
    let mut crd_override: HashMap<GlobalIx, Vec<H>> = HashMap::new();
    let mut reduces = e.reduce.clone();
    reduces.sort_by_key(|g| std::cmp::Reverse(ctx.pos[g]));
    for u in reduces {
        let below: Vec<GlobalIx> = rows
            .iter()
            .filter(|r| ctx.pos[r] > ctx.pos[&u] && !eliminated.contains(r))
            .copied()
            .collect();
        if below.len() > MAX_SPACC_ORDER {
            return Err(LowerError::Unsupported(format!(
                "reduction over '{}' has {} free rows below it (needs a deeper accumulator)",
                ctx.name(u),
                below.len()
            )));
        }
        // One accumulator keyed by the free rows below `u`: their crd
        // streams, then the values, in and out.
        let crds: Vec<Vec<H>> = (below.iter())
            .map(|w| crd_override.get(w).cloned().unwrap_or_else(|| ctx.row_crd[&(ei, *w)].clone()))
            .collect();
        let ins: Vec<&[H]> = crds.iter().map(Vec::as_slice).chain([val.as_slice()]).collect();
        let s = ctx.emit(NodeKind::Spacc { order: below.len(), op: e.reduce_op }, &ins);
        for (p, w) in below.iter().enumerate() {
            crd_override.insert(*w, port(&s, p));
        }
        val = port(&s, below.len());
        eliminated.push(u);
    }
    // Register the produced tensor.
    let structure: Vec<GlobalIx> =
        rows.iter().filter(|r| !eliminated.contains(r)).copied().collect();
    let mut crd = HashMap::new();
    for ix in &e.output.1 {
        let streams =
            crd_override.get(ix).cloned().unwrap_or_else(|| ctx.row_crd[&(ei, *ix)].clone());
        crd.insert(*ix, streams);
    }
    // Resolve the forward references to `t` now that its value stream
    // exists: wire its queued edges in order (the others queue again), then
    // replace every handle still held.
    let t = e.output.0;
    for (src, node, port) in std::mem::take(&mut ctx.pending) {
        let src = resolve(src, t, &val)?;
        ctx.connect(src, node, port);
    }
    let held = ctx.views.iter_mut().flat_map(|v| &mut v.stream);
    for h in held.chain(ctx.produced.values_mut().flat_map(|p| &mut p.val)) {
        *h = resolve(*h, t, &val)?;
    }
    ctx.produced.insert(t, Produced { structure, crd, val });
    Ok(())
}

/// Merges a per-branch output stream back to a single stream with
/// serializers (innermost split first).
fn merge_branches(
    ctx: &mut Ctx<'_>,
    mut streams: Vec<H>,
    structure: &[GlobalIx],
    stream_row: GlobalIx,
) -> Result<H, LowerError> {
    if streams.len() == 1 {
        return Ok(streams[0]);
    }
    let pos_in = |g: GlobalIx| structure.iter().position(|s| *s == g);
    let Some(stream_pos) = pos_in(stream_row) else {
        return Err(LowerError::Unsupported("output stream row missing from structure".into()));
    };
    for s in (0..ctx.splits.len()).rev() {
        let rec = &ctx.splits[s];
        let Some(split_pos) = pos_in(rec.row) else {
            return Err(LowerError::Unsupported(
                "parallelized row missing from the output structure".into(),
            ));
        };
        let factor = rec.factor;
        let order_crd = rec.order_crd.clone();
        if streams.len() % factor != 0 {
            return Err(LowerError::Unsupported("branch arithmetic mismatch".into()));
        }
        let groups = streams.len() / factor;
        let mut merged = Vec::with_capacity(groups);
        for gidx in 0..groups {
            let chunk = &streams[gidx * factor..(gidx + 1) * factor];
            if chunk.iter().all(|h| *h == chunk[0]) {
                // Stream predates this split (pure broadcast): collapse.
                merged.push(chunk[0]);
                continue;
            }
            let depth = (stream_pos - split_pos) as u8;
            let ser = ctx.graph.add_node(NodeKind::Serializer { factor, depth });
            for (b, h) in chunk.iter().enumerate() {
                ctx.connect(*h, ser, b);
            }
            ctx.connect(order_crd[gidx.min(order_crd.len() - 1)], ser, factor);
            merged.push(H::Port(ser, 0));
        }
        streams = merged;
        if streams.len() == 1 {
            break;
        }
    }
    if streams.len() != 1 {
        return Err(LowerError::Unsupported("failed to merge branch streams".into()));
    }
    Ok(streams[0])
}
