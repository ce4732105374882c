//! Cross-expression kernel fusion (Section 5, Algorithm 1).
//!
//! For a `Fuse{}` region this module renames every expression's reduction
//! indices to fresh `u`-indices, unifies producer/consumer index spaces
//! (index substitution via union-find), builds the **partial order graph
//! (POG)** from per-view mode orders and user dataflow orders, resolves
//! ordering cycles by materializing permuted tensor copies (higher-order
//! transposes), chooses a concordant global dataflow order, and computes
//! per-expression *scopes* (the outer rows under which a producer must be
//! re-instantiated — the recomputation full fusion can introduce).

use crate::ir::{AluOp, Einsum, IndexVar, Program, ReduceOp, TensorId};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Consumer accesses of one produced tensor sharing an index vector:
/// `(indices, uses as (expr, input-slot) pairs)`.
type AccessGroup = (Vec<IndexVar>, Vec<(usize, usize)>);

/// A view conflict found in step 4: `(tensor, producer expr, the uses that
/// must move to a cloned producer chain)`.
type ViewConflict = (TensorId, usize, Vec<(usize, usize)>);

/// An index variable in a fused region's global (renamed) index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalIx(pub u32);

/// A fused expression with indices in the global space.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedExpr {
    /// Output tensor and its global indices.
    pub output: (TensorId, Vec<GlobalIx>),
    /// Inputs with global indices.
    pub inputs: Vec<(TensorId, Vec<GlobalIx>)>,
    /// The ALU op combining the inputs (`None`: pass-through), as
    /// [`Einsum::op`].
    pub op: Option<AluOp>,
    /// Reduced global indices.
    pub reduce: Vec<GlobalIx>,
    /// Reduction operator.
    pub reduce_op: ReduceOp,
}

impl FusedExpr {
    /// Distinct global indices, in first-use order.
    pub fn index_set(&self) -> Vec<GlobalIx> {
        let mut seen = Vec::new();
        for ix in self.output.1.iter().chain(self.inputs.iter().flat_map(|(_, ixs)| ixs.iter())) {
            if !seen.contains(ix) {
                seen.push(*ix);
            }
        }
        seen
    }
}

/// A request to materialize a permuted copy of an input tensor whose views
/// induced conflicting mode orders (Section 5, step 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransposeFix {
    /// Expression (region-relative) whose input view is rewritten.
    pub expr: usize,
    /// Input position within that expression.
    pub input: usize,
    /// Permutation applied: output level `d` reads input level `perm[d]`.
    pub perm: Vec<usize>,
}

/// The partial order graph over a region's global indices.
#[derive(Debug, Clone, Default)]
pub struct Pog {
    n: usize,
    edges: HashSet<(u32, u32)>,
}

impl Pog {
    /// Creates a POG over `n` indices with no constraints.
    pub fn new(n: usize) -> Self {
        Pog { n, edges: HashSet::new() }
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when there are no indices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the constraint `outer` before `inner` (self-edges ignored).
    pub fn add_edge(&mut self, outer: GlobalIx, inner: GlobalIx) {
        if outer != inner {
            self.edges.insert((outer.0, inner.0));
        }
    }

    /// All edges.
    pub fn edges(&self) -> impl Iterator<Item = (GlobalIx, GlobalIx)> + '_ {
        self.edges.iter().map(|&(a, b)| (GlobalIx(a), GlobalIx(b)))
    }

    /// A deterministic topological order (smallest available id first), or
    /// `None` if the graph is cyclic.
    pub fn topo_first(&self) -> Option<Vec<GlobalIx>> {
        let mut adj = vec![Vec::new(); self.n];
        let mut indeg = vec![0usize; self.n];
        for &(a, b) in &self.edges {
            adj[a as usize].push(b as usize);
            indeg[b as usize] += 1;
        }
        let mut avail: std::collections::BTreeSet<usize> =
            (0..self.n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(&u) = avail.iter().next() {
            avail.remove(&u);
            order.push(GlobalIx(u as u32));
            for &v in &adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    avail.insert(v);
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// `true` if the constraints admit no valid order.
    pub fn is_cyclic(&self) -> bool {
        self.topo_first().is_none()
    }

    /// Counts linear extensions (the number of valid dataflow orders,
    /// Table 4). Exact via a frontier bitmask DP up to 64 indices; larger
    /// POGs return `cap` with `capped = true` (the paper's `*capped`
    /// annotation).
    ///
    /// The DP walks prefix sizes level by level, keeping only the *frontier*
    /// of reachable downsets in a `HashMap` rather than a dense `2^n` table
    /// (256 MiB at the old `n = 24` cap, and impossible beyond `n = 27`).
    /// Constrained POGs — the only ones whose counts stay under any
    /// realistic cap — have few downsets per level, so the frontier stays
    /// small; loosely-constrained POGs blow past `cap` within the first
    /// dozen levels and return early. A frontier-size guard bounds memory
    /// for adversarial shapes (many independent chains) whose counts grow
    /// slower than their downset frontier.
    pub fn count_orders(&self, cap: u128) -> (u128, bool) {
        const MAX_EXACT: usize = 64; // u64 prefix masks
        const MAX_FRONTIER: usize = 1 << 20;
        if self.n > MAX_EXACT {
            return (cap, true);
        }
        if self.n == 0 {
            return (1, false);
        }
        // preds[v] = bitmask of vertices that must precede v.
        let mut preds = vec![0u64; self.n];
        for &(a, b) in &self.edges {
            preds[b as usize] |= 1u64 << a;
        }
        let mut frontier: HashMap<u64, u128> = HashMap::from([(0u64, 1u128)]);
        for _level in 0..self.n {
            let mut next: HashMap<u64, u128> = HashMap::with_capacity(frontier.len());
            for (&mask, &count) in &frontier {
                for (v, &pred) in preds.iter().enumerate() {
                    let bit = 1u64 << v;
                    if mask & bit == 0 && pred & !mask == 0 {
                        let entry = next.entry(mask | bit).or_insert(0);
                        *entry = entry.saturating_add(count);
                        if *entry > cap {
                            return (cap, true);
                        }
                    }
                }
                if next.len() > MAX_FRONTIER {
                    return (cap, true);
                }
            }
            frontier = next;
        }
        // A cyclic POG drains the frontier before reaching a full prefix.
        (frontier.into_values().next().unwrap_or(0), false)
    }
}

/// Errors produced by region fusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseError {
    /// Mode-order constraints are cyclic and no single-view transpose
    /// resolves them.
    UnresolvableCycle,
    /// A produced tensor is consumed under conflicting recomputation
    /// scopes.
    ConflictingScopes(String),
    /// The region names expressions the program does not have (or its start
    /// lies past its end).
    RegionOutOfRange {
        /// The requested region.
        range: Range<usize>,
        /// Number of expressions in the program.
        exprs: usize,
    },
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::UnresolvableCycle => {
                write!(f, "cyclic mode-order constraints with no transpose resolution")
            }
            FuseError::ConflictingScopes(t) => {
                write!(f, "tensor '{t}' consumed under conflicting recomputation scopes")
            }
            FuseError::RegionOutOfRange { range, exprs } => {
                write!(f, "region {range:?} is not a range of the program's {exprs} expressions")
            }
        }
    }
}

impl std::error::Error for FuseError {}

/// The output of fusing one region: renamed expressions, the POG, the
/// chosen order, scopes, and any required input transposes.
#[derive(Debug, Clone)]
pub struct FusedRegion {
    /// Expressions with global indices, in program order.
    pub exprs: Vec<FusedExpr>,
    /// POG with all constraints (mode orders + user dataflow orders).
    pub pog: Pog,
    /// The chosen concordant global dataflow order.
    pub order: Vec<GlobalIx>,
    /// Display name of each global index.
    pub names: Vec<String>,
    /// Map from (region-relative expression, program index var) to global.
    pub global_of: HashMap<(usize, IndexVar), GlobalIx>,
    /// Per-expression scope rows (outer indices under which the expression
    /// is re-instantiated; non-empty scope means recomputation).
    pub scopes: Vec<Vec<GlobalIx>>,
    /// Input views requiring materialized transposes.
    pub transposes: Vec<TransposeFix>,
    /// Synthetic tensors introduced by view duplication, mapped to the
    /// original tensor whose declaration they share.
    pub clone_of: HashMap<TensorId, TensorId>,
}

impl FusedRegion {
    /// Resolves a possibly-cloned tensor id to one with a declaration.
    pub fn decl_id(&self, t: TensorId) -> TensorId {
        *self.clone_of.get(&t).unwrap_or(&t)
    }

    /// Resolves a program-level index variable to its global index, if it
    /// appears in the region.
    pub fn global_for_program_var(&self, var: IndexVar) -> Option<GlobalIx> {
        // A program var can occur in several expressions whose occurrence
        // classes were never unified (distinct global rows). Resolve to the
        // earliest expression's class: `global_of` is a HashMap, so taking
        // an arbitrary entry would make compilation (and therefore which
        // row a parallel directive names, and whether it is refused)
        // nondeterministic across runs.
        self.global_of
            .iter()
            .filter(|((_, v), _)| *v == var)
            .min_by_key(|((ei, _), _)| *ei)
            .map(|(_, g)| *g)
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }

    fn fresh(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        id
    }

    fn find(&mut self, x: u32) -> u32 {
        let p = self.parent[x as usize];
        if p == x {
            x
        } else {
            let r = self.find(p);
            self.parent[x as usize] = r;
            r
        }
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

/// Fuses the expressions `range` of `program` into one region (Algorithm 1).
///
/// # Errors
///
/// See [`FuseError`].
pub fn fuse_region(program: &Program, range: Range<usize>) -> Result<FusedRegion, FuseError> {
    let Some(exprs) = program.exprs().get(range.clone()) else {
        return Err(FuseError::RegionOutOfRange { range, exprs: program.exprs().len() });
    };
    let mut exprs: Vec<Einsum> = exprs.to_vec();
    let mut clone_of: HashMap<TensorId, TensorId> = HashMap::new();
    let mut next_id = program.tensors().len();

    // Step 4 (paper): multiple uses of one produced tensor are distinct
    // views; views with *different index maps* cannot share one stream, so
    // the producer chain is duplicated for the extra views (full fusion's
    // recomputation). Iterate to a fixpoint since clones add uses.
    for _ in 0..64 {
        let produced: Vec<(TensorId, usize)> =
            exprs.iter().enumerate().map(|(i, e)| (e.output.tensor, i)).collect();
        let mut conflict: Option<ViewConflict> = None;
        for &(t, pi) in &produced {
            // Group consumer accesses by index vector.
            let mut groups: Vec<AccessGroup> = Vec::new();
            for (ci, c) in exprs.iter().enumerate().skip(pi + 1) {
                for (ii, a) in c.inputs.iter().enumerate() {
                    if a.tensor == t {
                        match groups.iter_mut().find(|(ixs, _)| *ixs == a.indices) {
                            Some((_, uses)) => uses.push((ci, ii)),
                            None => groups.push((a.indices.clone(), vec![(ci, ii)])),
                        }
                    }
                }
            }
            if groups.len() > 1 {
                conflict = Some((t, pi, groups.remove(1).1));
                break;
            }
        }
        let Some((t, pi, uses)) = conflict else { break };
        // Deep-clone the producer chain (the conflicting tensor and every
        // in-region intermediate feeding it) so the second view re-derives
        // its stream independently.
        let mut chain: Vec<usize> = vec![pi];
        let mut frontier = vec![pi];
        while let Some(e) = frontier.pop() {
            let input_tensors: Vec<TensorId> = exprs[e].inputs.iter().map(|a| a.tensor).collect();
            for it in input_tensors {
                if let Some(ppi) = exprs.iter().position(|x| x.output.tensor == it) {
                    if !chain.contains(&ppi) {
                        chain.push(ppi);
                        frontier.push(ppi);
                    }
                }
            }
        }
        chain.sort_unstable();
        let mut remap: HashMap<TensorId, TensorId> = HashMap::new();
        let mut clones = Vec::new();
        for &e in &chain {
            let mut c = exprs[e].clone();
            let old = c.output.tensor;
            let fresh = TensorId(next_id);
            next_id += 1;
            clone_of.insert(fresh, *clone_of.get(&old).unwrap_or(&old));
            remap.insert(old, fresh);
            c.output.tensor = fresh;
            clones.push(c);
        }
        for c in &mut clones {
            for a in &mut c.inputs {
                if let Some(f) = remap.get(&a.tensor) {
                    a.tensor = *f;
                }
            }
        }
        for (ci, ii) in uses {
            exprs[ci].inputs[ii].tensor = remap[&t];
        }
        for (off, c) in clones.into_iter().enumerate() {
            exprs.insert(pi + 1 + off, c);
        }
    }

    let exprs: Vec<&Einsum> = exprs.iter().collect();
    let n_exprs = exprs.len();

    // Step 1-2: rename reduction indices fresh, unify producer/consumer
    // index uses via union-find over (expr, local var) occurrences.
    let mut uf = UnionFind::new();
    let mut occ: HashMap<(usize, IndexVar), u32> = HashMap::new();
    for (ei, e) in exprs.iter().enumerate() {
        for ix in e.index_set() {
            let id = uf.fresh();
            occ.insert((ei, ix), id);
        }
    }
    // Producer map within the region.
    let mut producer: HashMap<TensorId, usize> = HashMap::new();
    for (ei, e) in exprs.iter().enumerate() {
        producer.insert(e.output.tensor, ei);
    }
    for (ei, e) in exprs.iter().enumerate() {
        for acc in &e.inputs {
            if let Some(&pi) = producer.get(&acc.tensor) {
                if pi < ei {
                    let out = &exprs[pi].output;
                    for (pos, ix) in acc.indices.iter().enumerate() {
                        let a = occ[&(ei, *ix)];
                        let b = occ[&(pi, out.indices[pos])];
                        uf.union(a, b);
                    }
                }
            }
        }
    }

    // Compact classes into GlobalIx ids.
    let mut class_of: HashMap<u32, GlobalIx> = HashMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut global_of: HashMap<(usize, IndexVar), GlobalIx> = HashMap::new();
    let mut reduction_named = Vec::new();
    for (ei, e) in exprs.iter().enumerate() {
        for ix in e.index_set() {
            let root = uf.find(occ[&(ei, ix)]);
            let g = *class_of.entry(root).or_insert_with(|| {
                let g = GlobalIx(names.len() as u32);
                // Reduction indices get fresh `u` names (paper's Fig 8b);
                // free indices keep their program names.
                let is_reduce = e.reduce.contains(&ix);
                let name = if is_reduce {
                    let n = format!("u{}", reduction_named.len());
                    reduction_named.push(g);
                    n
                } else {
                    program.index_name(ix).to_string()
                };
                names.push(name);
                g
            });
            global_of.insert((ei, ix), g);
        }
    }

    let to_global = |ei: usize, ixs: &[IndexVar], g: &HashMap<(usize, IndexVar), GlobalIx>| {
        ixs.iter().map(|ix| g[&(ei, *ix)]).collect::<Vec<_>>()
    };
    let mut fused: Vec<FusedExpr> = exprs
        .iter()
        .enumerate()
        .map(|(ei, e)| FusedExpr {
            output: (e.output.tensor, to_global(ei, &e.output.indices, &global_of)),
            inputs: e
                .inputs
                .iter()
                .map(|a| (a.tensor, to_global(ei, &a.indices, &global_of)))
                .collect(),
            op: e.op,
            reduce: to_global(ei, &e.reduce, &global_of),
            reduce_op: e.reduce_op,
        })
        .collect();

    // Step 3: POG edges. Every tensor view imposes its mode order (our
    // scanners traverse levels in storage order); user dataflow orders add
    // the "local constraint" edges of Table 4.
    let n_global = names.len();
    let mut transposes: Vec<TransposeFix> = Vec::new();
    let build_pog = |fused: &[FusedExpr]| {
        let mut pog = Pog::new(n_global);
        for (ei, fe) in fused.iter().enumerate() {
            for (_, ixs) in fe.inputs.iter().chain(std::iter::once(&fe.output)) {
                for w in ixs.windows(2) {
                    pog.add_edge(w[0], w[1]);
                }
            }
            if let Some(order) = &exprs[ei].dataflow {
                let g = order.iter().map(|ix| global_of[&(ei, *ix)]).collect::<Vec<_>>();
                for w in g.windows(2) {
                    pog.add_edge(w[0], w[1]);
                }
            }
        }
        pog
    };
    let mut pog = build_pog(&fused);

    // Step 4: cycle resolution by materializing permuted copies of input
    // views (higher-order transposes), up to four fixes.
    for _ in 0..4 {
        if !pog.is_cyclic() {
            break;
        }
        let mut fixed = false;
        'search: for (ei, fe) in fused.clone().iter().enumerate() {
            for (pos, (t, ixs)) in fe.inputs.iter().enumerate() {
                if producer.contains_key(t)
                    || program.tensor(*t).block != [1, 1]
                    || transposes.iter().any(|f| f.expr == ei && f.input == pos)
                {
                    continue; // only raw scalar inputs reformat, once each
                }
                // Rebuild without this view's edges and see if a topological
                // order exists; derive the permutation from it.
                let mut trial = fused.clone();
                trial[ei].inputs[pos].1 = vec![]; // drop its constraints
                let pog_wo = build_pog(&trial);
                if let Some(order) = pog_wo.topo_first() {
                    let posn: HashMap<GlobalIx, usize> =
                        order.iter().enumerate().map(|(p, g)| (*g, p)).collect();
                    let mut perm: Vec<usize> = (0..ixs.len()).collect();
                    perm.sort_by_key(|&d| posn[&ixs[d]]);
                    let new_ixs: Vec<GlobalIx> = perm.iter().map(|&d| ixs[d]).collect();
                    transposes.push(TransposeFix { expr: ei, input: pos, perm });
                    fused[ei].inputs[pos].1 = new_ixs;
                    fixed = true;
                    break 'search;
                }
            }
        }
        if !fixed {
            return Err(FuseError::UnresolvableCycle);
        }
        pog = build_pog(&fused);
    }
    // The region's order is the POG's first concordant order (smallest
    // available index at each row). The lowering refuses a reduction that
    // this order leaves needing a deeper accumulator than it has.
    let order = pog.topo_first().ok_or(FuseError::UnresolvableCycle)?;

    // Scopes: reverse-topological pass over producers/consumers.
    let posn: HashMap<GlobalIx, usize> = order.iter().enumerate().map(|(p, g)| (*g, p)).collect();
    let mut scopes: Vec<Option<Vec<GlobalIx>>> = vec![None; n_exprs];
    for ei in (0..n_exprs).rev() {
        let consumers: Vec<usize> = fused
            .iter()
            .enumerate()
            .filter(|(ci, c)| *ci > ei && c.inputs.iter().any(|(t, _)| *t == fused[ei].output.0))
            .map(|(ci, _)| ci)
            .collect();
        let mut scope: Option<Vec<GlobalIx>> = None;
        if consumers.is_empty() {
            scope = Some(Vec::new());
        }
        for ci in consumers {
            let c = &fused[ci];
            let (_, out_ixs) =
                c.inputs.iter().find(|(t, _)| *t == fused[ei].output.0).expect("consumer");
            let top = out_ixs.iter().map(|g| posn[g]).min().unwrap_or(0);
            let own: HashSet<GlobalIx> = fused[ei].index_set().into_iter().collect();
            let mut s: Vec<GlobalIx> = c
                .index_set()
                .into_iter()
                .chain(scopes[ci].clone().expect("computed later expr"))
                .filter(|g| posn[g] < top && !own.contains(g))
                .collect();
            s.sort_by_key(|g| posn[g]);
            s.dedup();
            match &scope {
                None => scope = Some(s),
                Some(prev) if *prev == s => {}
                Some(_) => {
                    let t = fused[ei].output.0;
                    let t = *clone_of.get(&t).unwrap_or(&t);
                    return Err(FuseError::ConflictingScopes(program.tensor(t).name.clone()));
                }
            }
        }
        scopes[ei] = scope;
    }
    let scopes: Vec<Vec<GlobalIx>> = scopes.into_iter().map(|s| s.expect("filled")).collect();

    Ok(FusedRegion { exprs: fused, pog, order, names, global_of, scopes, transposes, clone_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuseflow_tensor::Format;

    fn gcn_like() -> (Program, Range<usize>) {
        let mut p = Program::new();
        let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
        let a = p.input("A", vec![8, 8], Format::csr());
        let x = p.input("X", vec![8, 6], Format::csr());
        let w = p.input("W", vec![6, 4], Format::dense(2));
        let t0 = p.contract(
            "T0",
            vec![i, u],
            vec![(a, vec![i, k]), (x, vec![k, u])],
            vec![k],
            Format::csr(),
        );
        let t1 = p.contract(
            "T1",
            vec![i, j],
            vec![(t0, vec![i, u]), (w, vec![u, j])],
            vec![u],
            Format::csr(),
        );
        p.mark_output(t1);
        (p, 0..2)
    }

    #[test]
    fn fuses_matmul_chain_with_shared_indices() {
        let (p, r) = gcn_like();
        let f = fuse_region(&p, r).unwrap();
        assert_eq!(f.exprs.len(), 2);
        // T0's output indices unify with its consumer's access.
        assert_eq!(f.exprs[0].output.1, f.exprs[1].inputs[0].1);
        // Global order is i -> u0(k) -> u1 -> j.
        assert_eq!(f.order.len(), 4);
        let names: Vec<&str> = f.order.iter().map(|g| f.names[g.0 as usize].as_str()).collect();
        assert_eq!(names[0], "i");
        assert_eq!(*names.last().unwrap(), "j");
        // Reduction indices were renamed to u-indices.
        assert!(f.names.iter().filter(|n| n.starts_with('u')).count() >= 2);
        // No recomputation scopes for a producer/consumer chain sharing i.
        assert_eq!(f.scopes, vec![vec![]; 2]);
        assert!(f.transposes.is_empty());
    }

    #[test]
    fn pog_counts_orders() {
        let mut pog = Pog::new(3);
        pog.add_edge(GlobalIx(0), GlobalIx(1));
        // 0 before 1; 2 free => 3 orders.
        assert_eq!(pog.count_orders(u128::MAX >> 1), (3, false));
        pog.add_edge(GlobalIx(1), GlobalIx(2));
        assert_eq!(pog.count_orders(u128::MAX >> 1), (1, false));
    }

    #[test]
    fn pog_counts_exactly_past_the_old_24_index_cap() {
        // A 40-index chain has exactly one linear extension; the old dense
        // DP (2^n table, n <= 24) could only report "capped" here.
        let mut chain = Pog::new(40);
        for i in 0..39 {
            chain.add_edge(GlobalIx(i), GlobalIx(i + 1));
        }
        assert_eq!(chain.count_orders(1 << 40), (1, false));

        // Two interleaved 16-chains: C(32,16) extensions, still exact.
        let mut two = Pog::new(32);
        for i in 0..15u32 {
            two.add_edge(GlobalIx(i), GlobalIx(i + 1));
            two.add_edge(GlobalIx(16 + i), GlobalIx(16 + i + 1));
        }
        assert_eq!(two.count_orders(u128::MAX >> 1), (601_080_390, false));
    }

    #[test]
    fn pog_count_caps_on_loose_constraints() {
        // 30 unconstrained indices: 30! >> cap, reported as capped without
        // materializing the 2^30 downset lattice.
        let pog = Pog::new(30);
        let (count, capped) = pog.count_orders(200_000_000);
        assert_eq!(count, 200_000_000);
        assert!(capped);
    }

    #[test]
    fn pog_detects_cycles() {
        let mut pog = Pog::new(2);
        pog.add_edge(GlobalIx(0), GlobalIx(1));
        pog.add_edge(GlobalIx(1), GlobalIx(0));
        assert!(pog.is_cyclic());
        assert_eq!(pog.count_orders(u128::MAX >> 1), (0, false));
    }

    #[test]
    fn conflicting_views_materialize_transpose() {
        // A[i,j] = B[i,k] C[k,j]; E[i,j] = B[i,k] A[k,j]: A is used with
        // mode orders [i,u] and [u,j]... construct the paper's example:
        // both products share B, and A's second use transposes it.
        let mut p = Program::new();
        let (i, k, j, k2, j2) =
            (p.index("i"), p.index("k"), p.index("j"), p.index("k2"), p.index("j2"));
        let b = p.input("B", vec![4, 4], Format::csr());
        let c = p.input("C", vec![4, 4], Format::csr());
        let a = p.contract(
            "A",
            vec![i, j],
            vec![(b, vec![i, k]), (c, vec![k, j])],
            vec![k],
            Format::csr(),
        );
        // E = B * A with A accessed (k2, j2): k2 unifies with... A[k2, j2]
        // means A's row index k2 is E's reduction: A's output (i, j) maps to
        // (k2, j2), so i ≡ k2 makes E iterate A's rows as its inner index.
        let e = p.contract(
            "E",
            vec![i, j2],
            vec![(b, vec![i, k2]), (a, vec![k2, j2])],
            vec![k2],
            Format::csr(),
        );
        p.mark_output(e);
        let f = fuse_region(&p, 0..2).unwrap();
        // The second kernel nests A's production under its own i loop:
        // recomputation scope for expression 0 contains E's i.
        assert_eq!(f.scopes[0].len(), 1);
        assert!(f.scopes[1].is_empty());
    }

    /// `S[i] = Σ_{k,l} A[i,k]·B[i,l]`: the formats leave `k` and `l`
    /// unordered, and a dataflow order `i, l, k` picks one of the two.
    #[test]
    fn user_dataflow_constrains_order_count() {
        let fused = |dataflow: bool| {
            let mut p = Program::new();
            let (i, k, l) = (p.index("i"), p.index("k"), p.index("l"));
            let a = p.input("A", vec![4, 4], Format::csr());
            let b = p.input("B", vec![4, 4], Format::csr());
            let ins = vec![(a, vec![i, k]), (b, vec![i, l])];
            let s = p.contract("S", vec![i], ins, vec![k, l], Format::sparse_vec());
            if dataflow {
                p.set_dataflow(vec![i, l, k]);
            }
            p.mark_output(s);
            fuse_region(&p, 0..1).unwrap()
        };
        assert_eq!(fused(false).pog.count_orders(1 << 40), (2, false));
        assert_eq!(fused(true).pog.count_orders(1 << 40), (1, false));
    }

    #[test]
    fn unfusable_cycle_reports_error() {
        // T[i,j] = A[i,j]; S[j,i] = T[j,i] forces T's two mode orders to
        // conflict with the output orders... build a genuinely cyclic case:
        // out1[i,j] = M[i,j] * N[j,i] with both M, N compressed: M forces
        // i->j, N forces j->i.
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let m = p.input("M", vec![4, 4], Format::dcsr());
        let n = p.input("N", vec![4, 4], Format::dcsr());
        let o = p.expr(
            "O",
            vec![i, j],
            vec![(m, vec![i, j]), (n, vec![j, i])],
            Some(AluOp::Mul),
            vec![],
            ReduceOp::Sum,
            Format::dcsr(),
        );
        p.mark_output(o);
        let f = fuse_region(&p, 0..1).unwrap();
        // Resolved by transposing one of the input views.
        assert_eq!(f.transposes.len(), 1);
        assert!(!f.pog.is_cyclic());
    }
}
