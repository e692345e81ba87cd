//! Linear-algebra kernels: GEMM, GEMV, AXPY, dot products and element-wise
//! arithmetic over [`Matrix`] operands.
//!
//! All kernels come in a fallible `try_*` form (shape-checked) plus a
//! panicking wrapper for call sites whose shapes were validated at model
//! construction time. The inner loops operate on contiguous row slices so
//! LLVM can auto-vectorize them.

use crate::dispatch::{self, Backend};
use crate::error::{ShapeError, TensorResult};
use crate::gemm;
use crate::matrix::Matrix;

/// Multiply-add count (`m*n*k`) above which matmuls route to the blocked
/// [`crate::gemm`] kernel instead of the plain ikj loop: packing overhead
/// only pays off once operands spill the L1/L2 caches.
const BLOCKED_MIN_MADDS: usize = 48 * 48 * 48;

/// `C = A * B` (shape-checked).
///
/// Small products use the ikj loop order — the innermost loop walks
/// contiguous rows of `B` and `C`, the cache-friendly order for row-major
/// storage, and is branch-free so LLVM auto-vectorizes it. Larger products
/// dispatch to the cache-blocked, multi-threaded [`crate::gemm`] kernel.
pub fn try_matmul(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    if a.cols() != b.rows() {
        return Err(ShapeError::MatMul {
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    if m * n * k >= BLOCKED_MIN_MADDS {
        return Ok(gemm::gemm(a, false, b, false, 0));
    }
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            let b_row = b.row(p);
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    }
    Ok(c)
}

/// `C = A * B`, panicking on shape mismatch.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    try_matmul(a, b).expect("matmul shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// The pre-optimization seed matmul (ikj loop with a per-element zero-skip
/// branch), kept verbatim as the baseline for the kernel benchmarks and as
/// an independent reference implementation in tests. Not used on any hot
/// path: the branch defeats auto-vectorization on dense inputs.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    }
    c
}

/// `C = A^T * B` without materializing `A^T` (shape-checked): `A` is
/// `k x m`, `B` is `k x n`, the result is `m x n`.
///
/// Small products accumulate rank-1 updates row by row (both operands are
/// walked along their contiguous rows); larger ones dispatch to the blocked
/// kernel, which absorbs the transpose into its packing step.
pub fn try_matmul_at(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    if a.rows() != b.rows() {
        return Err(ShapeError::MatMul {
            lhs: (a.cols(), a.rows()),
            rhs: b.shape(),
        });
    }
    let (k, m) = a.shape();
    let n = b.cols();
    if m * n * k >= BLOCKED_MIN_MADDS {
        return Ok(gemm::gemm(a, true, b, false, 0));
    }
    let mut c = Matrix::zeros(m, n);
    for p in 0..k {
        let a_row = a.row(p);
        let b_row = b.row(p);
        for (i, &a_pi) in a_row.iter().enumerate() {
            axpy(a_pi, b_row, c.row_mut(i));
        }
    }
    Ok(c)
}

/// `C = A^T * B`, panicking on shape mismatch.
pub fn matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
    try_matmul_at(a, b).expect("matmul_at shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// `C = A * B^T` without materializing `B^T` (shape-checked): `A` is
/// `m x k`, `B` is `n x k`, the result is `m x n`.
///
/// Small products reduce to row-dot-row (both reads contiguous); larger
/// ones dispatch to the blocked kernel.
pub fn try_matmul_bt(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    if a.cols() != b.cols() {
        return Err(ShapeError::MatMul {
            lhs: a.shape(),
            rhs: (b.cols(), b.rows()),
        });
    }
    let (m, k) = a.shape();
    let n = b.rows();
    if m * n * k >= BLOCKED_MIN_MADDS {
        return Ok(gemm::gemm(a, false, b, true, 0));
    }
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (c_v, j) in c_row.iter_mut().zip(0..n) {
            *c_v = dot(a_row, b.row(j));
        }
    }
    Ok(c)
}

/// `C = A * B^T`, panicking on shape mismatch.
pub fn matmul_bt(a: &Matrix, b: &Matrix) -> Matrix {
    try_matmul_bt(a, b).expect("matmul_bt shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// `y = A * x` for a column vector `x` given as a slice; returns `Vec` of
/// length `A.rows()`.
pub fn try_matvec(a: &Matrix, x: &[f32]) -> TensorResult<Vec<f32>> {
    if a.cols() != x.len() {
        return Err(ShapeError::MatMul {
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    Ok(a.iter_rows().map(|row| dot(row, x)).collect())
}

/// `y = A * x`, panicking on shape mismatch.
pub fn matvec(a: &Matrix, x: &[f32]) -> Vec<f32> {
    try_matvec(a, x).expect("matvec shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// `y = A^T * x` without materializing the transpose; `x.len()` must equal
/// `A.rows()`, result has length `A.cols()`.
pub fn try_matvec_t(a: &Matrix, x: &[f32]) -> TensorResult<Vec<f32>> {
    if a.rows() != x.len() {
        return Err(ShapeError::MatMul {
            lhs: (a.cols(), a.rows()),
            rhs: (x.len(), 1),
        });
    }
    let mut y = vec![0.0f32; a.cols()];
    for (row, &xv) in a.iter_rows().zip(x) {
        if xv == 0.0 {
            continue;
        }
        axpy(xv, row, &mut y);
    }
    Ok(y)
}

/// `y = A^T * x`, panicking on shape mismatch.
pub fn matvec_t(a: &Matrix, x: &[f32]) -> Vec<f32> {
    try_matvec_t(a, x).expect("matvec_t shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// Dot product of two equal-length slices, routed through the
/// process-wide [`crate::dispatch::backend`].
///
/// Accumulates into 8 independent partial sums reduced in a fixed
/// pairwise order; the AVX2 kernel replays the identical per-lane
/// operation sequence, so the result is deterministic for given inputs
/// *and* bit-identical across backends.
///
/// # Panics
/// Panics if lengths differ (programming error at this level).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with_backend(a, b, dispatch::backend())
}

/// [`dot`] with an explicit backend request (degrades to scalar when the
/// CPU lacks AVX2). Bit-identical across backends; used by parity tests
/// that need both kernels in one process.
pub fn dot_with_backend(a: &[f32], b: &[f32], backend: Backend) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    #[cfg(target_arch = "x86_64")]
    if dispatch::resolve(backend) == Backend::Avx2 {
        // SAFETY: `resolve` returns Avx2 only when the guarding dispatch
        // check (`detect_cpu`) saw avx2+fma+f16c on this CPU.
        return unsafe { crate::simd::dot_avx2(a, b) };
    }
    let _ = backend;
    dot_scalar(a, b)
}

/// The scalar reference dot: 8 independent partial sums so the loop
/// carries no serial FP dependency chain and LLVM keeps it in vector
/// registers even on the portable build.
pub(crate) fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let main = a.len() - a.len() % LANES;
    for (ca, cb) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        for ((av, bv), lane) in ca.iter().zip(cb).zip(acc.iter_mut()) {
            *lane += av * bv;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        tail += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// `y += alpha * x` in place.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `y *= alpha` in place.
#[inline]
pub fn scale(alpha: f32, y: &mut [f32]) {
    for v in y {
        *v *= alpha;
    }
}

/// Element-wise `A + B`.
pub fn try_add(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    elementwise(a, b, "add", |x, y| x + y)
}

/// Element-wise `A - B`.
pub fn try_sub(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    elementwise(a, b, "sub", |x, y| x - y)
}

/// Element-wise (Hadamard) product `A ⊙ B`.
pub fn try_hadamard(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    elementwise(a, b, "hadamard", |x, y| x * y)
}

/// Element-wise `A + B`, panicking on shape mismatch.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    try_add(a, b).expect("add shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// Element-wise `A - B`, panicking on shape mismatch.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    try_sub(a, b).expect("sub shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// Element-wise product, panicking on shape mismatch.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    try_hadamard(a, b).expect("hadamard shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

fn elementwise(
    a: &Matrix,
    b: &Matrix,
    op: &'static str,
    f: impl Fn(f32, f32) -> f32,
) -> TensorResult<Matrix> {
    if a.shape() != b.shape() {
        return Err(ShapeError::Mismatch {
            lhs: a.shape(),
            rhs: b.shape(),
            op,
        });
    }
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// `A += alpha * B` in place (shape-checked).
pub fn try_add_scaled(a: &mut Matrix, alpha: f32, b: &Matrix) -> TensorResult<()> {
    if a.shape() != b.shape() {
        return Err(ShapeError::Mismatch {
            lhs: a.shape(),
            rhs: b.shape(),
            op: "add_scaled",
        });
    }
    axpy(alpha, b.as_slice(), a.as_mut_slice());
    Ok(())
}

/// `A += alpha * B`, panicking on shape mismatch.
pub fn add_scaled(a: &mut Matrix, alpha: f32, b: &Matrix) {
    try_add_scaled(a, alpha, b).expect("add_scaled shape mismatch") // lint:allow(R1): documented panicking wrapper over the try_ twin
}

/// Euclidean (L2) norm of a slice.
///
/// Shares the multi-accumulator layout of [`dot`] so the squares reduce in
/// vector registers with a fixed, deterministic reduction order.
#[inline]
pub fn norm2(x: &[f32]) -> f32 {
    dot(x, x).sqrt()
}

/// Sum of the given slices interpreted as vectors of equal length.
///
/// Returns a zero vector of length `dim` when `rows` is empty — this is the
/// neutral element required by the neighbor aggregations of Eqs. (1)–(3),
/// where an entity may have no neighbors.
pub fn sum_rows<'a>(rows: impl IntoIterator<Item = &'a [f32]>, dim: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; dim];
    for row in rows {
        axpy(1.0, row, &mut acc);
    }
    acc
}

/// Weighted sum of rows: `Σ w_i * row_i`.
///
/// # Panics
/// Panics if the numbers of weights and rows differ, or if a row has length
/// different from `dim`.
pub fn weighted_sum_rows<'a>(
    rows: impl IntoIterator<Item = &'a [f32]>,
    weights: &[f32],
    dim: usize,
) -> Vec<f32> {
    let mut acc = vec![0.0f32; dim];
    let mut n = 0usize;
    for (row, &w) in rows.into_iter().zip(weights) {
        axpy(w, row, &mut acc);
        n += 1;
    }
    assert_eq!(n, weights.len(), "weights/rows count mismatch");
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 4.0]]);
        let c = matmul(&a, &Matrix::identity(3));
        assert_eq!(c, a);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(try_matmul(&a, &b), Err(ShapeError::MatMul { .. })));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = [1.0, -1.0];
        let y = matvec(&a, &x);
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = [1.0, 0.0, -1.0];
        let y = matvec_t(&a, &x);
        let explicit = matvec(&a.transpose(), &x);
        assert_eq!(y, explicit);
    }

    #[test]
    fn dot_and_axpy() {
        assert!(close(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0));
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(add(&a, &b).as_slice(), &[4.0, 6.0]);
        assert_eq!(sub(&a, &b).as_slice(), &[-2.0, -2.0]);
        assert_eq!(hadamard(&a, &b).as_slice(), &[3.0, 8.0]);
    }

    #[test]
    fn elementwise_rejects_mismatch() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert!(try_add(&a, &b).is_err());
        assert!(try_sub(&a, &b).is_err());
        assert!(try_hadamard(&a, &b).is_err());
    }

    #[test]
    fn add_scaled_in_place() {
        let mut a = Matrix::full(1, 3, 1.0);
        let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        add_scaled(&mut a, 0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn sum_rows_empty_is_zero() {
        let v = sum_rows(std::iter::empty(), 4);
        assert_eq!(v, vec![0.0; 4]);
    }

    #[test]
    fn sum_rows_accumulates() {
        let rows: Vec<&[f32]> = vec![&[1.0, 2.0], &[3.0, 4.0]];
        assert_eq!(sum_rows(rows, 2), vec![4.0, 6.0]);
    }

    #[test]
    fn weighted_sum_rows_weights() {
        let rows: Vec<&[f32]> = vec![&[1.0, 0.0], &[0.0, 1.0]];
        assert_eq!(weighted_sum_rows(rows, &[0.25, 0.75], 2), vec![0.25, 0.75]);
    }

    #[test]
    fn norm2_of_pythagorean() {
        assert!(close(norm2(&[3.0, 4.0]), 5.0));
    }

    #[test]
    fn dot_long_matches_scalar_reference() {
        // Length chosen to exercise both the 8-lane body and the tail.
        let a: Vec<f32> = (0..37).map(|i| (i as f32) * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..37).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let reference: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (*x as f64) * (*y as f64))
            .sum();
        assert!((dot(&a, &b) as f64 - reference).abs() < 1e-4);
    }

    #[test]
    fn matmul_dispatch_agrees_with_naive() {
        // 64^3 madds crosses BLOCKED_MIN_MADDS, so this exercises the
        // blocked path against the seed loop.
        let mut v = 0.37f32;
        let mut next = || {
            v = (v * 1.7 + 0.3).fract() - 0.5;
            v
        };
        let a = Matrix::from_vec(64, 64, (0..64 * 64).map(|_| next()).collect()).unwrap();
        let b = Matrix::from_vec(64, 64, (0..64 * 64).map(|_| next()).collect()).unwrap();
        let fast = matmul(&a, &b);
        let naive = matmul_naive(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]); // 3 x 2
        let b = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 0.0]]); // 3 x 3
        let c = matmul_at(&a, &b);
        assert_eq!(c, matmul(&a.transpose(), &b));
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]); // 2 x 3
        let b = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[2.0, 1.0, 0.0]]); // 2 x 3
        let c = matmul_bt(&a, &b);
        assert_eq!(c, matmul(&a, &b.transpose()));
    }

    #[test]
    fn transpose_variants_reject_bad_shapes() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(4, 3);
        assert!(matches!(
            try_matmul_at(&a, &b),
            Err(ShapeError::MatMul { .. })
        ));
        assert!(matches!(
            try_matmul_bt(&a, &b),
            Err(ShapeError::MatMul { .. })
        ));
    }
}
