//! Synthetic dataset generators.
//!
//! These stand in for the paper's real datasets (Table 2). Each generator
//! preserves the property the evaluation depends on: sparsity level,
//! sparsity *structure* (uniform / power-law / block-diagonal / BigBird
//! mask), and tensor shape (optionally scaled for simulation feasibility).
//! The substitution rationale is recorded in ARCHITECTURE.md,
//! "Substitutions".

use crate::{CooEntry, Crd, DenseTensor, Format, SparseTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sparsity structure of a synthetic graph (Fig 15's three patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphPattern {
    /// Uniform random (Erdős–Rényi-like).
    Uniform,
    /// Power-law degree distribution (scale-free networks).
    PowerLaw,
    /// Block-diagonal clustered communities.
    BlockDiagonal,
}

impl std::fmt::Display for GraphPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphPattern::Uniform => write!(f, "uniform"),
            GraphPattern::PowerLaw => write!(f, "power-law"),
            GraphPattern::BlockDiagonal => write!(f, "block-diag"),
        }
    }
}

/// Generates a square adjacency matrix of `n` nodes at the given `density`
/// (fraction of non-zeros) with the requested [`GraphPattern`], normalized
/// like a GCN's \hat{A} (values in (0, 1]).
///
/// # Panics
///
/// Panics if `density` is not within `(0, 1]` or `n == 0`.
pub fn adjacency(
    n: usize,
    density: f64,
    pattern: GraphPattern,
    seed: u64,
    format: &Format,
) -> SparseTensor {
    assert!(n > 0, "graph must have nodes");
    assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let target = ((n * n) as f64 * density).ceil().max(n as f64) as usize;
    let mut entries: Vec<CooEntry> = Vec::with_capacity(target + n);
    // Self loops (GCN's A + I renormalization trick) keep every row nonempty.
    for i in 0..n as Crd {
        entries.push((vec![i, i], 1.0));
    }
    match pattern {
        GraphPattern::Uniform => {
            for _ in 0..target {
                let r = rng.gen_range(0..n) as Crd;
                let c = rng.gen_range(0..n) as Crd;
                entries.push((vec![r, c], 1.0));
            }
        }
        GraphPattern::PowerLaw => {
            // Zipf-ish destination choice: node k chosen ∝ 1/(k+1).
            let weights: Vec<f64> = (0..n).map(|k| 1.0 / (k as f64 + 1.0)).collect();
            let total: f64 = weights.iter().sum();
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for w in &weights {
                acc += w / total;
                cdf.push(acc);
            }
            let sample = |rng: &mut StdRng, cdf: &[f64]| -> usize {
                let x: f64 = rng.gen();
                cdf.partition_point(|&p| p < x).min(cdf.len() - 1)
            };
            for _ in 0..target {
                let r = rng.gen_range(0..n) as Crd;
                let c = sample(&mut rng, &cdf) as Crd;
                entries.push((vec![r, c], 1.0));
            }
        }
        GraphPattern::BlockDiagonal => {
            let communities = (n as f64).sqrt().ceil() as usize;
            let span = n.div_ceil(communities);
            for _ in 0..target {
                let b = rng.gen_range(0..communities);
                let lo = b * span;
                let hi = ((b + 1) * span).min(n);
                if lo >= hi {
                    continue;
                }
                let r = rng.gen_range(lo..hi) as Crd;
                let c = rng.gen_range(lo..hi) as Crd;
                entries.push((vec![r, c], 1.0));
            }
        }
    }
    // Deduplicate (keep 1.0) then degree-normalize rows, mimicking \hat{A}.
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|a, b| a.0 == b.0);
    let mut deg = vec![0usize; n];
    for (c, _) in &entries {
        deg[c[0] as usize] += 1;
    }
    for (c, v) in &mut entries {
        *v = 1.0 / deg[c[0] as usize] as f32;
    }
    SparseTensor::from_coo(vec![n, n], entries, format).expect("generated coords in bounds")
}

/// Generates a dense feature matrix with values in `[-1, 1)`.
pub fn dense_features(rows: usize, cols: usize, seed: u64) -> DenseTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseTensor::from_fn(vec![rows, cols], |_| rng.gen_range(-1.0..1.0))
}

/// Generates a sparse feature matrix (e.g. bag-of-words node features) at
/// the given density.
pub fn sparse_features(
    rows: usize,
    cols: usize,
    density: f64,
    seed: u64,
    format: &Format,
) -> SparseTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let target = ((rows * cols) as f64 * density).ceil() as usize;
    let mut entries: Vec<CooEntry> = Vec::with_capacity(target);
    for _ in 0..target {
        let r = rng.gen_range(0..rows) as Crd;
        let c = rng.gen_range(0..cols) as Crd;
        entries.push((vec![r, c], rng.gen_range(0.1..1.0)));
    }
    SparseTensor::from_coo(vec![rows, cols], entries, format).expect("bounds")
}

/// Magnitude-pruned dense weights: keeps the `keep` fraction of largest
/// magnitudes, zeroing the rest (the SAE rows of Table 2: "ZB lossy (wt)").
pub fn pruned_weights(rows: usize, cols: usize, keep: f64, seed: u64) -> DenseTensor {
    assert!((0.0..=1.0).contains(&keep));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = DenseTensor::from_fn(vec![rows, cols], |_| rng.gen_range(-1.0f32..1.0));
    let mut mags: Vec<f32> = w.data().iter().map(|v| v.abs()).collect();
    mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let cutoff_idx = ((rows * cols) as f64 * keep).floor() as usize;
    let cutoff = if cutoff_idx == 0 { f32::INFINITY } else { mags[cutoff_idx.min(mags.len()) - 1] };
    for v in w.data_mut() {
        if v.abs() < cutoff {
            *v = 0.0;
        }
    }
    w
}

/// A BigBird attention mask over a `seq x seq` block grid: sliding window +
/// global tokens + random blocks (Zaheer et al., used for GPT-3 in §8).
///
/// Returns the set of *kept* block coordinates over the
/// `(seq / block) x (seq / block)` grid.
///
/// # Panics
///
/// Panics if `seq` is not divisible by `block`.
pub fn bigbird_block_mask(
    seq: usize,
    block: usize,
    window: usize,
    global_blocks: usize,
    random_per_row: usize,
    seed: u64,
) -> Vec<(Crd, Crd)> {
    assert!(block > 0 && seq % block == 0, "seq must be divisible by block");
    let g = seq / block;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kept = std::collections::BTreeSet::new();
    for r in 0..g {
        // Sliding window (causal: only columns <= r).
        for w in 0..=window {
            if w <= r {
                kept.insert((r as Crd, (r - w) as Crd));
            }
        }
        // Global blocks: first `global_blocks` columns and rows attend everywhere.
        for gb in 0..global_blocks.min(g) {
            if gb <= r {
                kept.insert((r as Crd, gb as Crd));
            }
            kept.insert(((r.max(gb)) as Crd, (r.min(gb)) as Crd));
        }
        // Random blocks (causal).
        for _ in 0..random_per_row {
            let c = rng.gen_range(0..=r);
            kept.insert((r as Crd, c as Crd));
        }
    }
    kept.into_iter().collect()
}

/// Expands a block mask into a blocked sparse tensor whose tiles are all
/// ones (a multiplicative attention mask).
pub fn block_mask_tensor(seq: usize, block: usize, kept: &[(Crd, Crd)]) -> SparseTensor {
    let tile = vec![1.0f32; block * block];
    let entries = kept.iter().map(|&(r, c)| (vec![r, c], tile.clone())).collect();
    SparseTensor::from_blocks(vec![seq, seq], [block, block], entries, &Format::csr())
        .expect("mask coords in grid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_density_approx() {
        let a = adjacency(100, 0.05, GraphPattern::Uniform, 7, &Format::csr());
        let d = 1.0 - a.sparsity();
        assert!(d > 0.02 && d < 0.08, "density {d} out of range");
        assert_eq!(a.shape(), &[100, 100]);
    }

    #[test]
    fn adjacency_rows_normalized() {
        let a = adjacency(50, 0.1, GraphPattern::Uniform, 3, &Format::csr()).to_dense();
        for i in 0..50 {
            let row_sum: f32 = (0..50).map(|j| a.get(&[i, j])).sum();
            assert!((row_sum - 1.0).abs() < 1e-4, "row {i} sums to {row_sum}");
        }
    }

    #[test]
    fn power_law_skews_in_degree() {
        let a = adjacency(200, 0.05, GraphPattern::PowerLaw, 11, &Format::csr());
        let coo = a.to_coo();
        let mut in_deg = vec![0usize; 200];
        for (c, _) in &coo {
            in_deg[c[1] as usize] += 1;
        }
        let head: usize = in_deg[..20].iter().sum();
        let tail: usize = in_deg[180..].iter().sum();
        assert!(head > 3 * tail, "power-law head {head} vs tail {tail}");
    }

    #[test]
    fn block_diagonal_stays_in_blocks() {
        let n = 100;
        let a = adjacency(n, 0.05, GraphPattern::BlockDiagonal, 5, &Format::csr());
        let communities = (n as f64).sqrt().ceil() as usize;
        let span = n.div_ceil(communities);
        for (c, _) in a.to_coo() {
            assert_eq!(c[0] as usize / span, c[1] as usize / span, "edge escapes community");
        }
    }

    #[test]
    fn pruned_weights_hit_target() {
        let w = pruned_weights(64, 64, 0.5, 9);
        let frac = w.nnz() as f64 / w.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "kept fraction {frac}");
    }

    #[test]
    fn bigbird_mask_causal_and_windowed() {
        let kept = bigbird_block_mask(256, 32, 2, 1, 1, 42);
        let g = 256 / 32;
        for &(r, c) in &kept {
            assert!(c <= r, "mask must be causal");
            assert!((r as usize) < g && (c as usize) < g);
        }
        // Diagonal always kept.
        for r in 0..g as Crd {
            assert!(kept.contains(&(r, r)));
        }
        let sp = 1.0 - kept.len() as f64 / (g * g) as f64;
        assert!(sp > 0.3 && sp < 0.95, "mask sparsity {sp}");
    }

    #[test]
    fn mask_tensor_blocks() {
        let kept = bigbird_block_mask(128, 32, 1, 1, 0, 1);
        let t = block_mask_tensor(128, 32, &kept);
        assert!(t.is_blocked());
        assert_eq!(t.shape(), &[128, 128]);
        assert_eq!(t.to_dense().get(&[0, 0]), 1.0);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = adjacency(64, 0.1, GraphPattern::Uniform, 123, &Format::csr());
        let b = adjacency(64, 0.1, GraphPattern::Uniform, 123, &Format::csr());
        assert_eq!(a, b);
        let f1 = dense_features(8, 8, 99);
        let f2 = dense_features(8, 8, 99);
        assert_eq!(f1, f2);
    }
}
