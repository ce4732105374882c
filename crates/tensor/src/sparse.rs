//! Fibertree-structured sparse tensors.
//!
//! One builder makes every tensor; a stored value is a scalar or a row-major
//! tile, and `from_coo` and `from_blocks` differ only in that and in checking
//! that the block divides the shape. A position only a dense level stores
//! holds zero (a zero tile), and duplicate coordinates sum (tiles elementwise).

use crate::{Crd, DenseTensor, Format, LevelFormat};

/// Errors produced when constructing sparse tensors from user data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// A coordinate exceeded the tensor shape.
    CoordOutOfBounds {
        /// Level at which the violation occurred.
        level: usize,
        /// The offending coordinate.
        crd: Crd,
        /// The size of that level.
        size: usize,
    },
    /// The entry coordinate arity did not match the tensor order.
    WrongArity {
        /// Expected number of coordinates per entry.
        expected: usize,
        /// Number found.
        found: usize,
    },
    /// A blocked tensor was given a shape not divisible by its block.
    BlockMismatch {
        /// Dimension with the mismatch.
        dim: usize,
    },
    /// The shape's order was not the format's.
    OrderMismatch {
        /// Order of the shape.
        shape: usize,
        /// Order of the format.
        format: usize,
    },
    /// A blocked tensor was given a shape that is not a matrix.
    NotAMatrix {
        /// Order of the shape.
        order: usize,
    },
    /// A tile did not hold `block[0] * block[1]` values.
    TileSize {
        /// Values in one tile.
        expected: usize,
        /// Values found.
        found: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::CoordOutOfBounds { level, crd, size } => {
                write!(f, "coordinate {crd} out of bounds for level {level} of size {size}")
            }
            TensorError::WrongArity { expected, found } => {
                write!(f, "entry has {found} coordinates, tensor order is {expected}")
            }
            TensorError::BlockMismatch { dim } => {
                write!(f, "shape of dimension {dim} is not divisible by its block size")
            }
            TensorError::OrderMismatch { shape, format } => {
                write!(f, "shape has order {shape}, format has order {format}")
            }
            TensorError::NotAMatrix { order } => {
                write!(f, "blocked tensors are matrices, shape has order {order}")
            }
            TensorError::TileSize { expected, found } => {
                write!(f, "tile holds {found} values, block holds {expected}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// One stored level of a fibertree.
#[derive(Debug, Clone, PartialEq)]
pub enum Level {
    /// Uncompressed level: every parent position expands to `size` children.
    Dense {
        /// Coordinate-space size of this level.
        size: usize,
    },
    /// Compressed level: `pos[p]..pos[p + 1]` indexes the coordinates of the
    /// fiber under parent position `p`.
    Compressed {
        /// Fiber segment boundaries (`len == parent positions + 1`).
        pos: Vec<usize>,
        /// Stored coordinates, fiber by fiber, sorted within each fiber.
        crd: Vec<Crd>,
        /// Coordinate-space size of this level.
        size: usize,
    },
}

impl Level {
    /// Iterates the `(coordinate, child position)` pairs of the fiber under
    /// `parent`.
    pub fn fiber(&self, parent: usize) -> impl Iterator<Item = (Crd, usize)> + '_ {
        (0..self.fiber_len(parent)).map(move |k| self.fiber_entry(parent, k))
    }

    /// Number of entries in the fiber under `parent`.
    pub fn fiber_len(&self, parent: usize) -> usize {
        match self {
            Level::Dense { size } => *size,
            Level::Compressed { pos, .. } => pos[parent + 1] - pos[parent],
        }
    }

    /// The `k`-th `(coordinate, child position)` pair of the fiber under
    /// `parent`, for `k < fiber_len(parent)`.
    pub fn fiber_entry(&self, parent: usize, k: usize) -> (Crd, usize) {
        match self {
            Level::Dense { size } => (k as Crd, parent * size + k),
            Level::Compressed { pos, crd, .. } => {
                let p = pos[parent] + k;
                (crd[p], p)
            }
        }
    }
}

/// A single COO entry: coordinates (in mode order) plus a value.
pub type CooEntry = (Vec<Crd>, f32);

/// A fibertree sparse tensor with per-level [`LevelFormat`]s and optional
/// dense inner blocks (for block-sparse tensors, Section 7 "Sparsity
/// Blocking").
///
/// Level `k` stores dimension `k` of the logical shape; for blocked tensors
/// the levels index the *block grid* and each stored position carries a
/// `block[0] * block[1]` dense tile.
///
/// # Example
///
/// ```
/// use fuseflow_tensor::{Format, SparseTensor};
/// let t = SparseTensor::from_coo(
///     vec![2, 3],
///     vec![(vec![0, 2], 5.0), (vec![1, 0], 7.0)],
///     &Format::csr(),
/// )?;
/// assert_eq!(t.nnz(), 2);
/// assert_eq!(t.to_dense().get(&[0, 2]), 5.0);
/// # Ok::<(), fuseflow_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor {
    shape: Vec<usize>,
    format: Format,
    levels: Vec<Level>,
    vals: Vec<f32>,
    block: [usize; 2],
}

impl SparseTensor {
    /// Builds a tensor from (possibly unsorted, possibly duplicated) COO
    /// entries; duplicate coordinates are summed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if the shape's order is not the format's, or
    /// if an entry has the wrong arity or an out-of-bounds coordinate.
    pub fn from_coo(
        shape: Vec<usize>,
        entries: Vec<CooEntry>,
        format: &Format,
    ) -> Result<Self, TensorError> {
        let grid = shape.clone();
        let entries = entries.into_iter().map(|(c, v)| (c, [v])).collect();
        Self::from_entries(shape, &grid, [1, 1], entries, format)
    }

    /// Builds a block-sparse matrix from block-grid COO entries, each
    /// carrying a row-major `block[0] * block[1]` tile; duplicate tiles are
    /// summed element by element, as [`SparseTensor::from_coo`] sums
    /// duplicate scalars.
    ///
    /// `shape` is the logical (element) shape; the stored levels index the
    /// block grid. With `block` `[1, 1]` each tile is one value, and the
    /// tensor, of any order, is the one `from_coo` builds.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if a block other than `[1, 1]`
    /// is given a shape of another order than 2,
    /// [`TensorError::BlockMismatch`] if the shape is not divisible by the
    /// block, [`TensorError::TileSize`] if a tile does not hold
    /// `block[0] * block[1]` values, and the errors of
    /// [`SparseTensor::from_coo`] over the block grid.
    pub fn from_blocks(
        shape: Vec<usize>,
        block: [usize; 2],
        entries: Vec<(Vec<Crd>, Vec<f32>)>,
        format: &Format,
    ) -> Result<Self, TensorError> {
        if block != [1, 1] && shape.len() != 2 {
            return Err(TensorError::NotAMatrix { order: shape.len() });
        }
        let mut grid = shape.clone();
        for (dim, (size, &b)) in grid.iter_mut().zip(&block).enumerate() {
            if b == 0 || *size % b != 0 {
                return Err(TensorError::BlockMismatch { dim });
            }
            *size /= b;
        }
        Self::from_entries(shape, &grid, block, entries, format)
    }

    /// Converts a dense tensor into the given format (zeros are dropped from
    /// compressed levels and kept in dense levels).
    ///
    /// # Panics
    ///
    /// Panics if the tensor's order is not the format's.
    pub fn from_dense(dense: &DenseTensor, format: &Format) -> Self {
        let mut entries = Vec::new();
        let shape = dense.shape().to_vec();
        let mut idx = vec![0usize; shape.len()];
        for flat in 0..dense.len() {
            let mut rem = flat;
            for i in (0..shape.len()).rev() {
                idx[i] = rem % shape[i];
                rem /= shape[i];
            }
            let v = dense.data()[flat];
            if v != 0.0 {
                entries.push((idx.iter().map(|&x| x as Crd).collect(), [v]));
            }
        }
        Self::from_entries(shape.clone(), &shape, [1, 1], entries, format)
            .expect("dense/format order mismatch")
    }

    /// The one builder: checks `entries` against `grid`, the stored shape
    /// (the block grid of a blocked tensor), sorts them and builds the
    /// levels. A position only a dense level stores holds zero (a zero tile
    /// when blocked); duplicate coordinates sum in input order.
    fn from_entries<V: AsRef<[f32]>>(
        shape: Vec<usize>,
        grid: &[usize],
        block: [usize; 2],
        mut entries: Vec<(Vec<Crd>, V)>,
        format: &Format,
    ) -> Result<Self, TensorError> {
        if grid.len() != format.order() {
            return Err(TensorError::OrderMismatch { shape: grid.len(), format: format.order() });
        }
        let blen = block[0] * block[1];
        for (coords, v) in &entries {
            if coords.len() != grid.len() {
                return Err(TensorError::WrongArity { expected: grid.len(), found: coords.len() });
            }
            for (level, (&crd, &size)) in coords.iter().zip(grid).enumerate() {
                if crd as usize >= size {
                    return Err(TensorError::CoordOutOfBounds { level, crd, size });
                }
            }
            if v.as_ref().len() != blen {
                return Err(TensorError::TileSize { expected: blen, found: v.as_ref().len() });
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut levels = Vec::with_capacity(grid.len());
        // The entries under each position of the previous level: a dense
        // level gives every coordinate a range, empty where no entry is.
        let mut ranges = vec![(0, entries.len())];
        for (lvl, &size) in grid.iter().enumerate() {
            let dense = format.level(lvl) == LevelFormat::Dense;
            let (mut next, mut pos, mut crd) = (Vec::new(), vec![0], Vec::new());
            for &(start, end) in &ranges {
                // `filled`: the coordinates of a dense fiber given a range.
                let (mut at, mut filled) = (start, 0);
                for group in entries[start..end].chunk_by(|a, b| a.0[lvl] == b.0[lvl]) {
                    let c = group[0].0[lvl];
                    if dense {
                        next.resize(next.len() + c as usize - filled, (at, at));
                        filled = c as usize + 1;
                    } else {
                        crd.push(c);
                    }
                    next.push((at, at + group.len()));
                    at += group.len();
                }
                if dense {
                    next.resize(next.len() + size - filled, (end, end));
                } else {
                    pos.push(crd.len());
                }
            }
            levels.push(if dense {
                Level::Dense { size }
            } else {
                Level::Compressed { pos, crd, size }
            });
            ranges = next;
        }
        // Each final range holds the entries of one stored position.
        let mut vals = Vec::with_capacity(ranges.len() * blen);
        for &(start, end) in &ranges {
            let at = vals.len();
            match entries[start..end].split_first() {
                None => vals.resize(at + blen, 0.0),
                Some(((_, first), dups)) => {
                    vals.extend_from_slice(first.as_ref());
                    for (_, v) in dups {
                        vals[at..].iter_mut().zip(v.as_ref()).for_each(|(acc, x)| *acc += x);
                    }
                }
            }
        }
        Ok(SparseTensor { shape, format: format.clone(), levels, vals, block })
    }

    /// The logical (element-space) shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's storage format.
    pub fn format(&self) -> &Format {
        &self.format
    }

    /// Number of levels.
    pub fn order(&self) -> usize {
        self.levels.len()
    }

    /// The stored levels, outermost first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Level `lvl` of the fibertree.
    pub fn level(&self, lvl: usize) -> &Level {
        &self.levels[lvl]
    }

    /// The stored value buffer (tiles are flattened row-major for blocked
    /// tensors).
    pub fn vals(&self) -> &[f32] {
        &self.vals
    }

    /// The dense inner block shape (`[1, 1]` for scalar tensors).
    pub fn block(&self) -> [usize; 2] {
        self.block
    }

    /// `true` if this tensor stores dense inner blocks.
    pub fn is_blocked(&self) -> bool {
        self.block != [1, 1]
    }

    /// Number of elements in one stored block (1 for scalar tensors).
    pub fn block_len(&self) -> usize {
        self.block[0] * self.block[1]
    }

    /// Number of stored positions at the innermost level.
    pub fn stored_positions(&self) -> usize {
        self.vals.len() / self.block_len()
    }

    /// Number of stored values that are non-zero.
    pub fn nnz(&self) -> usize {
        self.vals.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of the *logical* element space that is zero.
    pub fn sparsity(&self) -> f64 {
        let total: usize = self.shape.iter().product();
        1.0 - self.nnz() as f64 / total as f64
    }

    /// The tile stored at position `pos` for blocked tensors (a single
    /// element slice for scalar tensors).
    pub fn val_block(&self, pos: usize) -> &[f32] {
        let b = self.block_len();
        &self.vals[pos * b..(pos + 1) * b]
    }

    /// Visits every stored element with its element-space coordinates, in
    /// storage order: each coordinate a level stores (all of a dense level's,
    /// explicit zeros included) and, for a blocked tensor, every element of
    /// each stored tile, row-major.
    pub fn for_each_stored(&self, mut f: impl FnMut(&[usize], f32)) {
        let mut coords = vec![0 as Crd; self.order()];
        let mut elem = vec![0usize; self.order()];
        let [b0, b1] = self.block;
        self.walk(0, 0, &mut coords, &mut |coords, pos, t| {
            for (k, &v) in t.val_block(pos).iter().enumerate() {
                for (e, &c) in elem.iter_mut().zip(coords) {
                    *e = c as usize;
                }
                if t.is_blocked() {
                    elem[0] = elem[0] * b0 + k / b1;
                    elem[1] = elem[1] * b1 + k % b1;
                }
                f(&elem, v);
            }
        });
    }

    /// Extracts logical non-zero entries as COO in storage order (sorted for
    /// scalar tensors; tile by tile for blocked ones).
    pub fn to_coo(&self) -> Vec<CooEntry> {
        let mut out = Vec::new();
        self.for_each_stored(|idx, v| {
            if v != 0.0 {
                out.push((idx.iter().map(|&x| x as Crd).collect(), v));
            }
        });
        out
    }

    fn walk(
        &self,
        lvl: usize,
        parent: usize,
        coords: &mut Vec<Crd>,
        f: &mut impl FnMut(&[Crd], usize, &SparseTensor),
    ) {
        for (c, child) in self.levels[lvl].fiber(parent) {
            coords[lvl] = c;
            if lvl + 1 == self.order() {
                f(coords, child, self);
            } else {
                self.walk(lvl + 1, child, coords, f);
            }
        }
    }

    /// Converts to a dense tensor of the logical shape.
    pub fn to_dense(&self) -> DenseTensor {
        let mut out = DenseTensor::zeros(self.shape.clone());
        self.for_each_stored(|idx, v| out.set(idx, v));
        out
    }

    /// Materializes a permuted copy (a "higher-order transpose", the cycle
    /// resolution of Section 5 step 4): output level `d` iterates input
    /// level `perm[d]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is blocked or `perm` is invalid.
    pub fn permute(&self, perm: &[usize], format: &Format) -> SparseTensor {
        assert!(!self.is_blocked(), "permute of blocked tensors is unsupported");
        assert_eq!(perm.len(), self.order());
        let entries: Vec<CooEntry> = self
            .to_coo()
            .into_iter()
            .map(|(c, v)| (perm.iter().map(|&p| c[p]).collect(), v))
            .collect();
        let shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        SparseTensor::from_coo(shape, entries, format).expect("permutation preserves bounds")
    }

    /// Footprint in bytes of the stored representation (pos/crd arrays as
    /// 4-byte words plus 4-byte values), used by the memory model and the
    /// analytic heuristic.
    pub fn storage_bytes(&self) -> usize {
        let mut bytes = self.vals.len() * 4;
        for level in &self.levels {
            if let Level::Compressed { pos, crd, .. } = level {
                bytes += (pos.len() + crd.len()) * 4;
            }
        }
        bytes
    }
}

impl std::fmt::Display for SparseTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SparseTensor{:?} fmt={} nnz={} block={:?}",
            self.shape,
            self.format,
            self.nnz(),
            self.block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelFormat;

    fn sample_dense() -> DenseTensor {
        DenseTensor::from_vec(
            vec![3, 4],
            vec![
                1.0, 0.0, 2.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, //
                3.0, 0.0, 0.0, 4.0,
            ],
        )
    }

    #[test]
    fn csr_round_trip() {
        let d = sample_dense();
        let s = SparseTensor::from_dense(&d, &Format::csr());
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn dcsr_skips_empty_rows() {
        let d = sample_dense();
        let s = SparseTensor::from_dense(&d, &Format::dcsr());
        match s.level(0) {
            Level::Compressed { crd, .. } => assert_eq!(crd, &[0, 2]),
            _ => panic!("expected compressed row level"),
        }
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn dense_format_keeps_zeros() {
        let d = sample_dense();
        let s = SparseTensor::from_dense(&d, &Format::dense(2));
        assert_eq!(s.vals().len(), 12);
        let mut stored = 0;
        s.for_each_stored(|_, _| stored += 1);
        assert_eq!(stored, 12);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn csc_like_via_permute() {
        let d = sample_dense();
        let s = SparseTensor::from_dense(&d, &Format::csr());
        let t = s.permute(&[1, 0], &Format::csr());
        assert_eq!(t.shape(), &[4, 3]);
        assert_eq!(t.to_dense(), d.permute(&[1, 0]));
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let t = SparseTensor::from_coo(
            vec![2, 2],
            vec![(vec![0, 0], 1.0), (vec![0, 0], 2.0), (vec![1, 1], 5.0)],
            &Format::dcsr(),
        )
        .unwrap();
        assert_eq!(t.to_dense().get(&[0, 0]), 3.0);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn from_coo_rejects_out_of_bounds() {
        let err = SparseTensor::from_coo(vec![2, 2], vec![(vec![0, 5], 1.0)], &Format::csr())
            .unwrap_err();
        assert!(matches!(err, TensorError::CoordOutOfBounds { level: 1, crd: 5, .. }));
    }

    #[test]
    fn from_coo_rejects_wrong_arity() {
        let err =
            SparseTensor::from_coo(vec![2, 2], vec![(vec![0], 1.0)], &Format::csr()).unwrap_err();
        assert_eq!(err, TensorError::WrongArity { expected: 2, found: 1 });
    }

    #[test]
    fn fiber_iteration_csr() {
        let s = SparseTensor::from_dense(&sample_dense(), &Format::csr());
        let fiber = |lvl: usize, parent| s.level(lvl).fiber(parent).collect::<Vec<(Crd, usize)>>();
        // The dense row level yields every coordinate.
        assert_eq!(fiber(0, 0), vec![(0, 0), (1, 1), (2, 2)]);
        // Row 0 has entries at columns 0 and 2; row 1 is empty; row 2's
        // positions follow row 0's.
        assert_eq!(fiber(1, 0), vec![(0, 0), (2, 1)]);
        assert_eq!(s.level(1).fiber_len(1), 0);
        assert_eq!(fiber(1, 2), vec![(0, 2), (3, 3)]);
    }

    #[test]
    fn three_level_csf() {
        let d = DenseTensor::from_fn(vec![2, 3, 2], |ix| {
            if (ix[0] + ix[1] + ix[2]) % 3 == 0 {
                (ix[0] * 100 + ix[1] * 10 + ix[2]) as f32 + 1.0
            } else {
                0.0
            }
        });
        let s = SparseTensor::from_dense(&d, &Format::csf(3));
        assert_eq!(s.to_dense(), d);
        assert_eq!(s.order(), 3);
    }

    #[test]
    fn mixed_format_three_level() {
        let d = DenseTensor::from_fn(vec![2, 2, 3], |ix| if ix[2] == 1 { 2.0 } else { 0.0 });
        let fmt =
            Format::new(vec![LevelFormat::Dense, LevelFormat::Compressed, LevelFormat::Compressed]);
        let s = SparseTensor::from_dense(&d, &fmt);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn blocked_round_trip() {
        let tile_a: Vec<f32> = (0..4).map(|x| x as f32 + 1.0).collect();
        let tile_b: Vec<f32> = (0..4).map(|x| -(x as f32)).collect();
        let t = SparseTensor::from_blocks(
            vec![4, 4],
            [2, 2],
            vec![(vec![0, 0], tile_a.clone()), (vec![1, 1], tile_b.clone())],
            &Format::csr(),
        )
        .unwrap();
        assert!(t.is_blocked());
        assert_eq!(t.block_len(), 4);
        let d = t.to_dense();
        assert_eq!(d.get(&[0, 0]), 1.0);
        assert_eq!(d.get(&[1, 1]), 4.0);
        assert_eq!(d.get(&[2, 3]), -1.0);
        assert_eq!(d.get(&[0, 2]), 0.0);
        // The stored walk visits every element of both tiles, `tile_b`'s
        // zero included; `to_coo` keeps the non-zeros.
        let mut stored = Vec::new();
        t.for_each_stored(|idx, v| stored.push((idx.to_vec(), v)));
        assert_eq!(stored.len(), 8);
        assert_eq!(stored[4], (vec![2, 2], 0.0));
        assert_eq!(t.to_coo().len(), 7);
    }

    #[test]
    fn blocked_rejects_bad_shape() {
        let err =
            SparseTensor::from_blocks(vec![5, 4], [2, 2], vec![], &Format::csr()).unwrap_err();
        assert_eq!(err, TensorError::BlockMismatch { dim: 0 });
    }

    #[test]
    fn from_coo_rejects_an_order_the_format_lacks() {
        let err = SparseTensor::from_coo(vec![2, 2], vec![], &Format::csf(3)).unwrap_err();
        assert_eq!(err, TensorError::OrderMismatch { shape: 2, format: 3 });
    }

    #[test]
    fn blocked_rejects_a_tensor_that_is_not_a_matrix() {
        let err =
            SparseTensor::from_blocks(vec![4, 4, 4], [2, 2], vec![], &Format::csf(3)).unwrap_err();
        assert_eq!(err, TensorError::NotAMatrix { order: 3 });
    }

    #[test]
    fn blocked_rejects_a_tile_of_the_wrong_size() {
        let entries = vec![(vec![0, 0], vec![1.0; 3])];
        let err =
            SparseTensor::from_blocks(vec![4, 4], [2, 2], entries, &Format::csr()).unwrap_err();
        assert_eq!(err, TensorError::TileSize { expected: 4, found: 3 });
    }

    /// A dense format stores every tile of the grid; the absent ones are
    /// zero tiles, as a dense scalar format stores zeros.
    #[test]
    fn dense_blocked_format_stores_zero_tiles() {
        let tile = vec![1.0, 2.0, 3.0, 4.0];
        let entries = vec![(vec![1, 0], tile.clone())];
        let t = SparseTensor::from_blocks(vec![4, 4], [2, 2], entries, &Format::dense(2)).unwrap();
        assert_eq!(t.stored_positions(), 4);
        assert_eq!(t.vals(), [[0.0; 4], [0.0; 4], [1.0, 2.0, 3.0, 4.0], [0.0; 4]].concat());
        assert_eq!(t.to_dense().get(&[3, 1]), 4.0);
    }

    #[test]
    fn duplicate_tiles_sum_like_duplicate_scalars() {
        let entries = vec![
            (vec![0, 1], vec![1.0, 2.0, 3.0, 4.0]),
            (vec![1, 1], vec![9.0; 4]),
            (vec![0, 1], vec![10.0, 20.0, 30.0, 40.0]),
        ];
        let t = SparseTensor::from_blocks(vec![4, 4], [2, 2], entries, &Format::dcsr()).unwrap();
        assert_eq!(t.stored_positions(), 2);
        assert_eq!(t.val_block(0), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(t.val_block(1), &[9.0; 4]);
    }

    /// With a `[1, 1]` block a tile is one value: `from_blocks` builds what
    /// `from_coo` builds, at any order.
    #[test]
    fn unit_blocks_build_the_scalar_tensor() {
        let coo = vec![(vec![1, 0, 2], 5.0), (vec![0, 1, 1], -1.0), (vec![1, 0, 2], 0.5)];
        let tiles = coo.iter().map(|(c, v)| (c.clone(), vec![*v])).collect();
        let fmt =
            Format::new(vec![LevelFormat::Dense, LevelFormat::Compressed, LevelFormat::Dense]);
        let scalar = SparseTensor::from_coo(vec![2, 2, 3], coo, &fmt).unwrap();
        let unit = SparseTensor::from_blocks(vec![2, 2, 3], [1, 1], tiles, &fmt).unwrap();
        assert_eq!(unit, scalar);
        assert_eq!(scalar.to_dense().get(&[1, 0, 2]), 5.5);
    }

    #[test]
    fn storage_bytes_positive() {
        let s = SparseTensor::from_dense(&sample_dense(), &Format::csr());
        // 4 vals + pos(4) + crd(4) words.
        assert_eq!(s.storage_bytes(), (4 + 4 + 4) * 4);
    }

    #[test]
    fn to_coo_sorted() {
        let s = SparseTensor::from_dense(&sample_dense(), &Format::dcsr());
        let coo = s.to_coo();
        let mut sorted = coo.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(coo, sorted);
        assert_eq!(coo.len(), 4);
    }
}
