//! Dense reference interpreter.
//!
//! The paper verifies every Comal simulation "against a dense PyTorch
//! implementation" (§8.1). These functions are that golden reference: plain
//! dense operators covering every primitive the evaluated models use.

use crate::DenseTensor;

/// Dense matrix multiply `A(i,k) * B(k,j)`.
///
/// # Panics
///
/// Panics if operands are not matrices or inner dimensions mismatch.
pub fn matmul(a: &DenseTensor, b: &DenseTensor) -> DenseTensor {
    assert_eq!(a.order(), 2, "matmul lhs must be a matrix");
    assert_eq!(b.order(), 2, "matmul rhs must be a matrix");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner-dimension mismatch");
    let mut out = DenseTensor::zeros(vec![m, n]);
    for i in 0..m {
        for kk in 0..k {
            let av = a.get(&[i, kk]);
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                let cur = out.get(&[i, j]);
                out.set(&[i, j], cur + av * b.get(&[kk, j]));
            }
        }
    }
    out
}

/// Elementwise addition.
pub fn add(a: &DenseTensor, b: &DenseTensor) -> DenseTensor {
    a.zip_map(b, |x, y| x + y)
}

/// Elementwise subtraction.
pub fn sub(a: &DenseTensor, b: &DenseTensor) -> DenseTensor {
    a.zip_map(b, |x, y| x - y)
}

/// Elementwise (Hadamard) multiplication — also the masking operator.
pub fn mul(a: &DenseTensor, b: &DenseTensor) -> DenseTensor {
    a.zip_map(b, |x, y| x * y)
}

/// Elementwise division (`0 / 0` defined as `0` to match sparse semantics,
/// where absent coordinates never produce NaNs).
pub fn div(a: &DenseTensor, b: &DenseTensor) -> DenseTensor {
    a.zip_map(b, |x, y| if x == 0.0 { 0.0 } else { x / y })
}

/// Adds a bias row vector `b(j)` to every row of `a(i,j)`.
pub fn add_bias(a: &DenseTensor, bias: &DenseTensor) -> DenseTensor {
    assert_eq!(a.order(), 2);
    assert_eq!(bias.order(), 1);
    assert_eq!(a.shape()[1], bias.shape()[0], "bias length mismatch");
    DenseTensor::from_fn(a.shape().to_vec(), |ix| a.get(ix) + bias.get(&[ix[1]]))
}

/// Rectified linear unit.
pub fn relu(a: &DenseTensor) -> DenseTensor {
    a.map(|v| v.max(0.0))
}

/// Scalar Gaussian error linear unit (tanh approximation, as used by
/// GPT-style models).
pub fn gelu_scalar(v: f32) -> f32 {
    0.5 * v * (1.0 + ((0.797_884_6 * (v + 0.044_715 * v * v * v)).tanh()))
}

/// Elementwise exponential.
pub fn exp(a: &DenseTensor) -> DenseTensor {
    a.map(f32::exp)
}

/// Scales by a constant.
pub fn scale(a: &DenseTensor, s: f32) -> DenseTensor {
    a.map(|v| v * s)
}

/// Row-wise maximum of a matrix, returning a vector of length `rows`.
pub fn row_max(a: &DenseTensor) -> DenseTensor {
    assert_eq!(a.order(), 2);
    let (m, n) = (a.shape()[0], a.shape()[1]);
    DenseTensor::from_fn(vec![m], |ix| (0..n).map(|j| a.get(&[ix[0], j])).fold(f32::MIN, f32::max))
}

/// Row-wise sum of a matrix, returning a vector of length `rows`.
pub fn row_sum(a: &DenseTensor) -> DenseTensor {
    assert_eq!(a.order(), 2);
    let (m, n) = (a.shape()[0], a.shape()[1]);
    DenseTensor::from_fn(vec![m], |ix| (0..n).map(|j| a.get(&[ix[0], j])).sum())
}

/// Masked row softmax: positions where `mask` is zero stay zero and are
/// excluded from normalization (the sparse-attention softmax of §8: softmax
/// over the nonzero structure).
///
/// Rows with an all-zero mask stay all-zero.
pub fn masked_softmax(a: &DenseTensor, mask: &DenseTensor) -> DenseTensor {
    assert_eq!(a.shape(), mask.shape());
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let mut out = DenseTensor::zeros(vec![m, n]);
    for i in 0..m {
        let mut mx = f32::MIN;
        let mut any = false;
        for j in 0..n {
            if mask.get(&[i, j]) != 0.0 {
                mx = mx.max(a.get(&[i, j]));
                any = true;
            }
        }
        if !any {
            continue;
        }
        let mut denom = 0.0;
        for j in 0..n {
            if mask.get(&[i, j]) != 0.0 {
                denom += (a.get(&[i, j]) - mx).exp();
            }
        }
        for j in 0..n {
            if mask.get(&[i, j]) != 0.0 {
                out.set(&[i, j], (a.get(&[i, j]) - mx).exp() / denom);
            }
        }
    }
    out
}

/// Plain row softmax (all positions participate).
pub fn softmax(a: &DenseTensor) -> DenseTensor {
    let ones = DenseTensor::from_fn(a.shape().to_vec(), |_| 1.0);
    masked_softmax(a, &ones)
}

/// Row-wise layer normalization with learned `gamma`/`beta` vectors.
pub fn layer_norm(a: &DenseTensor, gamma: &DenseTensor, beta: &DenseTensor) -> DenseTensor {
    assert_eq!(a.order(), 2);
    let (m, n) = (a.shape()[0], a.shape()[1]);
    assert_eq!(gamma.shape(), &[n]);
    assert_eq!(beta.shape(), &[n]);
    let mut out = DenseTensor::zeros(vec![m, n]);
    for i in 0..m {
        let mean: f32 = (0..n).map(|j| a.get(&[i, j])).sum::<f32>() / n as f32;
        let var: f32 = (0..n).map(|j| (a.get(&[i, j]) - mean).powi(2)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        for j in 0..n {
            out.set(&[i, j], (a.get(&[i, j]) - mean) * inv * gamma.get(&[j]) + beta.get(&[j]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(shape: [usize; 2], v: &[f32]) -> DenseTensor {
        DenseTensor::from_vec(shape.to_vec(), v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m([2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = m([3, 2], &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = m([2, 2], &[1., 2., 3., 4.]);
        let i = m([2, 2], &[1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &i), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = m([1, 3], &[1., -2., 0.]);
        let b = m([1, 3], &[2., 2., 2.]);
        assert_eq!(add(&a, &b).data(), &[3., 0., 2.]);
        assert_eq!(sub(&a, &b).data(), &[-1., -4., -2.]);
        assert_eq!(mul(&a, &b).data(), &[2., -4., 0.]);
        assert_eq!(div(&a, &b).data(), &[0.5, -1., 0.]);
        assert_eq!(relu(&a).data(), &[1., 0., 0.]);
    }

    #[test]
    fn bias_broadcast() {
        let a = m([2, 2], &[1., 2., 3., 4.]);
        let b = DenseTensor::from_vec(vec![2], vec![10., 20.]);
        assert_eq!(add_bias(&a, &b).data(), &[11., 22., 13., 24.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = m([2, 3], &[1., 2., 3., 0., 0., 0.]);
        let s = softmax(&a);
        for i in 0..2 {
            let sum: f32 = (0..3).map(|j| s.get(&[i, j])).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn masked_softmax_respects_mask() {
        let a = m([1, 3], &[5., 1., 1.]);
        let mask = m([1, 3], &[0., 1., 1.]);
        let s = masked_softmax(&a, &mask);
        assert_eq!(s.get(&[0, 0]), 0.0);
        assert!((s.get(&[0, 1]) - 0.5).abs() < 1e-5);
        let sum: f32 = (0..3).map(|j| s.get(&[0, j])).sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn masked_softmax_empty_row_is_zero() {
        let a = m([1, 2], &[5., 5.]);
        let mask = m([1, 2], &[0., 0.]);
        let s = masked_softmax(&a, &mask);
        assert_eq!(s.data(), &[0., 0.]);
    }

    #[test]
    fn row_reductions() {
        let a = m([2, 3], &[1., 5., 2., -1., -7., 0.]);
        assert_eq!(row_max(&a).data(), &[5., 0.]);
        assert_eq!(row_sum(&a).data(), &[8., -8.]);
    }

    #[test]
    fn gelu_fixed_points() {
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!(gelu_scalar(3.0) > 2.9);
        assert!(gelu_scalar(-3.0).abs() < 0.02);
    }

    #[test]
    fn layer_norm_standardizes() {
        let a = m([1, 4], &[1., 2., 3., 4.]);
        let gamma = DenseTensor::from_vec(vec![4], vec![1.; 4]);
        let beta = DenseTensor::from_vec(vec![4], vec![0.; 4]);
        let n = layer_norm(&a, &gamma, &beta);
        let mean: f32 = n.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        let var: f32 = n.data().iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-3);
    }
}
