//! Dense reference operators for hand-checked results.
//!
//! `matmul` and `add` over [`DenseTensor`]s: what the simulator's tests
//! compare hand-built graphs against. A compiled program, blocked or not, is
//! verified against `fuseflow_core::interp` instead (`pipeline::verify`),
//! which runs the program itself rather than a fixed set of operators.

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
    }
}
