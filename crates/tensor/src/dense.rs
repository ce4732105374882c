//! Row-major dense tensors.

use crate::approx_eq;

/// A row-major dense tensor of `f32` values.
///
/// Used as the golden-reference representation: sparse tensors convert to and
/// from it, and the [`crate::reference`] interpreter computes on it.
///
/// # Example
///
/// ```
/// use fuseflow_tensor::DenseTensor;
/// let mut t = DenseTensor::zeros(vec![2, 2]);
/// t.set(&[0, 1], 5.0);
/// assert_eq!(t.get(&[0, 1]), 5.0);
/// assert_eq!(t.nnz(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseTensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl DenseTensor {
    /// Creates a zero-filled tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero-sized dimension.
    pub fn zeros(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        assert!(shape.iter().all(|&d| d > 0), "tensor dims must be positive");
        let n = shape.iter().product();
        DenseTensor { shape, data: vec![0.0; n] }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "shape/data mismatch: {shape:?} vs {}", data.len());
        DenseTensor { shape, data }
    }

    /// Creates a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(shape: Vec<usize>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let mut t = DenseTensor::zeros(shape);
        let mut idx = vec![0usize; t.shape.len()];
        for flat in 0..t.data.len() {
            t.unflatten(flat, &mut idx);
            t.data[flat] = f(&idx);
        }
        t
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions (tensor order).
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// The flat row-major value buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major value buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Total number of elements (dense size).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: tensors have at least one element.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Fraction of elements that are exactly zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz() as f64 / self.len() as f64
    }

    fn flatten(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut flat = 0;
        for (i, &x) in idx.iter().enumerate() {
            debug_assert!(x < self.shape[i], "index {x} out of bounds for dim {i}");
            flat = flat * self.shape[i] + x;
        }
        flat
    }

    fn unflatten(&self, mut flat: usize, idx: &mut [usize]) {
        for i in (0..self.shape.len()).rev() {
            idx[i] = flat % self.shape[i];
            flat /= self.shape[i];
        }
    }

    /// Value at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the index is out of bounds.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.flatten(idx)]
    }

    /// Sets the value at a multi-index.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let flat = self.flatten(idx);
        self.data[flat] = v;
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        DenseTensor { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        DenseTensor {
            shape: self.shape.clone(),
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// Returns a copy with dimensions permuted so that output dimension `d`
    /// is input dimension `perm[d]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..order`.
    pub fn permute(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.shape.len());
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let new_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let mut out = DenseTensor::zeros(new_shape);
        let mut src_idx = vec![0usize; self.shape.len()];
        let mut dst_idx = vec![0usize; self.shape.len()];
        for flat in 0..self.data.len() {
            self.unflatten(flat, &mut src_idx);
            for (d, &p) in perm.iter().enumerate() {
                dst_idx[d] = src_idx[p];
            }
            let v = self.data[flat];
            out.set(&dst_idx, v);
        }
        out
    }

    /// Reshapes to a new shape with the same number of elements.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape element-count mismatch");
        DenseTensor { shape, data: self.data.clone() }
    }

    /// Elementwise approximate equality within [`crate::VERIFY_EPS`].
    pub fn approx_eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && self.data.iter().zip(&other.data).all(|(&a, &b)| approx_eq(a, b))
    }

    /// The largest absolute elementwise difference against `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data.iter().zip(&other.data).map(|(&a, &b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

impl std::fmt::Display for DenseTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseTensor{:?} ({} nnz)", self.shape, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut t = DenseTensor::zeros(vec![2, 3]);
        assert_eq!(t.len(), 6);
        t.set(&[1, 2], 4.5);
        assert_eq!(t.get(&[1, 2]), 4.5);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn from_fn_matches_indexing() {
        let t = DenseTensor::from_fn(vec![3, 4], |ix| (ix[0] * 10 + ix[1]) as f32);
        assert_eq!(t.get(&[2, 3]), 23.0);
        assert_eq!(t.get(&[0, 1]), 1.0);
    }

    #[test]
    fn permute_matrix_is_transpose() {
        let t = DenseTensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let tt = t.permute(&[1, 0]);
        assert_eq!(tt.shape(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t.get(&[i, j]), tt.get(&[j, i]));
            }
        }
    }

    #[test]
    fn permute_3d() {
        let t = DenseTensor::from_fn(vec![2, 3, 4], |ix| (ix[0] * 100 + ix[1] * 10 + ix[2]) as f32);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.get(&[3, 1, 2]), t.get(&[1, 2, 3]));
    }

    #[test]
    fn map_and_zip_map() {
        let a = DenseTensor::from_vec(vec![2], vec![1.0, -2.0]);
        let b = DenseTensor::from_vec(vec![2], vec![3.0, 4.0]);
        assert_eq!(a.map(|v| v.abs()).data(), &[1.0, 2.0]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).data(), &[4.0, 2.0]);
    }

    #[test]
    fn sparsity_fraction() {
        let t = DenseTensor::from_vec(vec![4], vec![0.0, 1.0, 0.0, 0.0]);
        assert!((t.sparsity() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_bad_len_panics() {
        let _ = DenseTensor::from_vec(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = DenseTensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshape(vec![3, 2]);
        assert_eq!(r.get(&[0, 1]), 2.0);
        assert_eq!(r.get(&[2, 1]), 6.0);
    }
}
