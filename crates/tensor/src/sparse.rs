//! Fibertree-structured sparse tensors.

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
    /// Returns [`TensorError`] if an entry has the wrong arity or an
    /// out-of-bounds coordinate.
    pub fn from_coo(
        shape: Vec<usize>,
        mut entries: Vec<CooEntry>,
        format: &Format,
    ) -> Result<Self, TensorError> {
        assert_eq!(shape.len(), format.order(), "shape/format order mismatch");
        for (coords, _) in &entries {
            if coords.len() != shape.len() {
                return Err(TensorError::WrongArity { expected: shape.len(), found: coords.len() });
            }
            for (lvl, (&c, &sz)) in coords.iter().zip(&shape).enumerate() {
                if c as usize >= sz {
                    return Err(TensorError::CoordOutOfBounds { level: lvl, crd: c, size: sz });
                }
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        // Sum duplicates.
        let mut dedup: Vec<CooEntry> = Vec::with_capacity(entries.len());
        for (coords, v) in entries {
            match dedup.last_mut() {
                Some((last, lv)) if *last == coords => *lv += v,
                _ => dedup.push((coords, v)),
            }
        }
        Ok(Self::from_sorted_coo(shape, &dedup, format, [1, 1]))
    }

    /// Builds a block-sparse matrix from block-grid COO entries, each
    /// carrying a row-major `block[0] * block[1]` tile.
    ///
    /// `shape` is the logical (element) shape; the stored levels index the
    /// block grid.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BlockMismatch`] if the shape is not divisible
    /// by the block, and coordinate errors as in [`SparseTensor::from_coo`].
    pub fn from_blocks(
        shape: Vec<usize>,
        block: [usize; 2],
        mut entries: Vec<(Vec<Crd>, Vec<f32>)>,
        format: &Format,
    ) -> Result<Self, TensorError> {
        assert_eq!(shape.len(), 2, "blocked tensors are matrices");
        assert_eq!(format.order(), 2, "blocked tensors are matrices");
        for (d, &b) in block.iter().enumerate() {
            if b == 0 || shape[d] % b != 0 {
                return Err(TensorError::BlockMismatch { dim: d });
            }
        }
        let grid = [shape[0] / block[0], shape[1] / block[1]];
        for (coords, tile) in &entries {
            if coords.len() != 2 {
                return Err(TensorError::WrongArity { expected: 2, found: coords.len() });
            }
            assert_eq!(tile.len(), block[0] * block[1], "tile size mismatch");
            for (lvl, &c) in coords.iter().enumerate() {
                if c as usize >= grid[lvl] {
                    return Err(TensorError::CoordOutOfBounds {
                        level: lvl,
                        crd: c,
                        size: grid[lvl],
                    });
                }
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        let marker: Vec<CooEntry> = entries.iter().map(|(c, _)| (c.clone(), 1.0)).collect();
        let grid_shape = vec![grid[0], grid[1]];
        let mut t = Self::from_sorted_coo(grid_shape, &marker, format, block);
        // Overwrite marker values with the actual tiles in stored order.
        let blen = block[0] * block[1];
        let coo = t.grid_coo();
        let mut vals = vec![0.0; coo.len() * blen];
        let by_coord: std::collections::BTreeMap<Vec<Crd>, &Vec<f32>> =
            entries.iter().map(|(c, v)| (c.clone(), v)).collect();
        for (i, (coords, _)) in coo.iter().enumerate() {
            let tile = by_coord[coords];
            vals[i * blen..(i + 1) * blen].copy_from_slice(tile);
        }
        t.vals = vals;
        t.shape = shape;
        Ok(t)
    }

    /// Converts a dense tensor into the given format (zeros are dropped from
    /// compressed levels and kept in dense levels).
    pub fn from_dense(dense: &DenseTensor, format: &Format) -> Self {
        assert_eq!(dense.order(), format.order(), "dense/format order mismatch");
        let mut entries: Vec<CooEntry> = Vec::new();
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
                entries.push((idx.iter().map(|&x| x as Crd).collect(), v));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Self::from_sorted_coo(shape, &entries, format, [1, 1])
    }

    /// Core constructor: `entries` sorted, deduplicated, in-bounds.
    fn from_sorted_coo(
        shape: Vec<usize>,
        entries: &[CooEntry],
        format: &Format,
        block: [usize; 2],
    ) -> Self {
        let order = shape.len();
        let mut levels = Vec::with_capacity(order);
        // Fiber ranges over `entries` aligned with positions of the previous
        // level. Empty ranges occur under dense levels.
        let mut ranges: Vec<(usize, usize)> = vec![(0, entries.len())];
        for (lvl, &size) in shape.iter().enumerate().take(order) {
            let mut next_ranges = Vec::new();
            match format.level(lvl) {
                LevelFormat::Dense => {
                    for &(start, end) in &ranges {
                        let mut cursor = start;
                        for c in 0..size as Crd {
                            let sub_start = cursor;
                            while cursor < end && entries[cursor].0[lvl] == c {
                                cursor += 1;
                            }
                            next_ranges.push((sub_start, cursor));
                        }
                        debug_assert_eq!(cursor, end, "entries not sorted at level {lvl}");
                    }
                    levels.push(Level::Dense { size });
                }
                LevelFormat::Compressed => {
                    let mut pos = Vec::with_capacity(ranges.len() + 1);
                    let mut crd = Vec::new();
                    pos.push(0usize);
                    for &(start, end) in &ranges {
                        let mut cursor = start;
                        while cursor < end {
                            let c = entries[cursor].0[lvl];
                            let sub_start = cursor;
                            while cursor < end && entries[cursor].0[lvl] == c {
                                cursor += 1;
                            }
                            crd.push(c);
                            next_ranges.push((sub_start, cursor));
                        }
                        pos.push(crd.len());
                    }
                    levels.push(Level::Compressed { pos, crd, size });
                }
            }
            ranges = next_ranges;
        }
        // Each final range holds at most one entry (coordinates are unique).
        let mut vals = Vec::with_capacity(ranges.len());
        for &(start, end) in &ranges {
            debug_assert!(end - start <= 1, "duplicate coordinates survived dedup");
            vals.push(if start < end { entries[start].1 } else { 0.0 });
        }
        SparseTensor { shape, format: format.clone(), levels, vals, block }
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

    /// Extracts the stored entries as sorted COO over the *level*
    /// coordinate space (block grid for blocked tensors), including
    /// explicit zeros under dense levels.
    fn grid_coo(&self) -> Vec<CooEntry> {
        let mut out = Vec::new();
        let mut coords = vec![0 as Crd; self.order()];
        self.walk(0, 0, &mut coords, &mut |coords, pos, t| {
            out.push((coords.to_vec(), if t.is_blocked() { 1.0 } else { t.vals[pos] }));
        });
        out
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
