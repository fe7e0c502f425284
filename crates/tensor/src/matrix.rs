//! Row-major dense matrix with the product kernels the network needs.
//!
//! The forward pass of a fully-connected layer over a batch is
//! `Y = X · Wᵀ + b` (batch rows × output columns); the backward pass needs
//! `∇W = ∇Yᵀ · X` and `∇X = ∇Y · W`. Rather than materializing transposes,
//! [`Matrix`] provides transpose-aware kernels (`matmul_nt`, `matmul_tn`)
//! that traverse both operands contiguously.

use serde::{Deserialize, Serialize};

use crate::{ops, Scalar};

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Scalar>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Scalar>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Scalar) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    pub fn as_slice(&self) -> &[Scalar] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [Scalar] {
        &mut self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[Scalar] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [Scalar] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor (bounds-checked in debug builds).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Scalar {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Scalar) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// `out = self · otherᵀ`, i.e. `out[i][j] = self.row(i) · other.row(j)`.
    ///
    /// Both operands are traversed row-contiguously and the loops are
    /// cache-blocked (see [`ops::gemm_nt`]), so this is the preferred kernel
    /// for `X · Wᵀ` layer forward passes.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt: inner dim mismatch");
        assert_eq!(out.rows, self.rows, "matmul_nt: out rows");
        assert_eq!(out.cols, other.rows, "matmul_nt: out cols");
        ops::gemm_nt(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            other.rows,
            self.cols,
        );
    }

    /// Allocating variant of [`Matrix::matmul_nt_into`].
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `out = selfᵀ · other`, i.e. `out[i][j] = Σ_k self[k][i] * other[k][j]`.
    ///
    /// This is the `∇W = ∇Yᵀ · X` backward kernel. Implemented as cache-
    /// blocked rank-1 update accumulation (see [`ops::gemm_tn`]) so the inner
    /// loop stays contiguous in `other` and the output tile stays resident.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn: inner dim mismatch");
        assert_eq!(out.rows, self.cols, "matmul_tn: out rows");
        assert_eq!(out.cols, other.cols, "matmul_tn: out cols");
        ops::gemm_tn(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Allocating variant of [`Matrix::matmul_tn_into`].
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// Plain `out = self · other`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul: inner dim mismatch");
        assert_eq!(out.rows, self.rows, "matmul: out rows");
        assert_eq!(out.cols, other.cols, "matmul: out cols");
        out.data.fill(0.0);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a != 0.0 {
                    ops::axpy(a, other.row(k), out_row);
                }
            }
        }
    }

    /// Allocating variant of [`Matrix::matmul_into`].
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix-vector product `out = self · x`.
    pub fn matvec_into(&self, x: &[Scalar], out: &mut [Scalar]) {
        assert_eq!(x.len(), self.cols, "matvec: dim mismatch");
        assert_eq!(out.len(), self.rows, "matvec: out dim mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = ops::dot(self.row(i), x);
        }
    }

    /// Adds `other` element-wise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        ops::add_assign(&other.data, &mut self.data);
    }

    /// Scales every element.
    pub fn scale(&mut self, alpha: Scalar) {
        ops::scale(alpha, &mut self.data);
    }

    /// Materialized transpose (used only off the hot path).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Selects the given rows into a new matrix (gathers a minibatch).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::gather_rows`] into a caller-owned matrix, reshaped to
    /// `indices.len() × self.cols` while reusing its backing buffer. This is
    /// the zero-allocation minibatch gather for the training hot path.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "gather_rows: index out of range");
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
    }

    /// Reshapes to `rows × cols`, reusing the backing buffer when capacity
    /// allows. Existing element values are unspecified afterwards (newly
    /// grown elements are zero).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Consumes the matrix, returning its row-major backing buffer. Lets
    /// callers recycle the allocation through a buffer pool.
    pub fn into_vec(self) -> Vec<Scalar> {
        self.data
    }

    /// Borrowed view of the whole matrix.
    pub fn as_view(&self) -> MatrixRef<'_> {
        MatrixRef {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }

    /// Borrowed view of the row range `start..end` — no copy, just a
    /// reinterpretation of the contiguous row-major buffer. Used to forward
    /// evaluation chunks without gathering them first.
    pub fn view_rows(&self, start: usize, end: usize) -> MatrixRef<'_> {
        assert!(start <= end && end <= self.rows, "view_rows: range");
        MatrixRef {
            rows: end - start,
            cols: self.cols,
            data: &self.data[start * self.cols..end * self.cols],
        }
    }
}

/// Borrowed row-major matrix view: a row range of a [`Matrix`], or any flat
/// slice reinterpreted with a shape (e.g. a weight block inside a flat
/// parameter vector).
#[derive(Debug, Clone, Copy)]
pub struct MatrixRef<'a> {
    rows: usize,
    cols: usize,
    data: &'a [Scalar],
}

impl<'a> MatrixRef<'a> {
    /// Wraps a slice. Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [Scalar]) -> Self {
        assert_eq!(data.len(), rows * cols, "view size mismatch");
        Self { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing row-major slice.
    pub fn as_slice(&self) -> &'a [Scalar] {
        self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [Scalar] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::assert_close;
    use proptest::prelude::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 5, |r, c| (r as f32 - c as f32) * 0.25);
        let got = a.matmul(&b);
        let want = naive_matmul(&a, &b);
        assert_close(got.as_slice(), want.as_slice(), 1e-5);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(4, 3, |r, c| (r * c) as f32 + 1.0);
        let got = a.matmul_nt(&b);
        let want = naive_matmul(&a, &b.transpose());
        assert_close(got.as_slice(), want.as_slice(), 1e-5);
    }

    #[test]
    fn matmul_tn_equals_transpose_matmul() {
        let a = Matrix::from_fn(5, 2, |r, c| (r as f32) - (c as f32) * 0.5);
        let b = Matrix::from_fn(5, 3, |r, c| 0.1 * (r * 3 + c) as f32);
        let got = a.matmul_tn(&b);
        let want = naive_matmul(&a.transpose(), &b);
        assert_close(got.as_slice(), want.as_slice(), 1e-5);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + 2 * c) as f32);
        let x = vec![1.0, -1.0, 2.0, 0.5];
        let mut out = vec![0.0; 3];
        a.matvec_into(&x, &mut out);
        let xm = Matrix::from_vec(4, 1, x);
        let want = a.matmul(&xm);
        assert_close(&out, want.as_slice(), 1e-5);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 7, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gather_rows_picks_correct_rows() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 10 + c) as f32);
        let g = a.gather_rows(&[3, 0, 3]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), &[30.0, 31.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
        assert_eq!(g.row(2), &[30.0, 31.0]);
    }

    #[test]
    fn gather_rows_into_reuses_buffer_and_matches_gather() {
        let a = Matrix::from_fn(6, 3, |r, c| (r * 10 + c) as f32);
        let mut out = Matrix::zeros(2, 5); // wrong shape on purpose
        a.gather_rows_into(&[5, 1, 5, 0], &mut out);
        assert_eq!(out, a.gather_rows(&[5, 1, 5, 0]));
        // Shrinking must also work and reuse capacity.
        a.gather_rows_into(&[2], &mut out);
        assert_eq!(out.rows(), 1);
        assert_eq!(out.row(0), a.row(2));
    }

    #[test]
    fn view_rows_aliases_without_copy() {
        let a = Matrix::from_fn(5, 4, |r, c| (r * 4 + c) as f32);
        let v = a.view_rows(1, 4);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 4);
        assert_eq!(v.row(0), a.row(1));
        assert_eq!(v.row(2), a.row(3));
        assert_eq!(v.as_slice(), &a.as_slice()[4..16]);
        let full = a.as_view();
        assert_eq!(full.rows(), 5);
        assert_eq!(full.as_slice(), a.as_slice());
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn matmul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn zero_sized_matrices_work() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 0);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 0);
        assert_eq!(c.cols(), 0);
        assert!(Matrix::zeros(0, 0).is_empty());
    }

    proptest! {
        #[test]
        fn prop_matmul_identity(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
            let a = Matrix::from_fn(rows, cols, |r, c| {
                ((r * 31 + c * 17 + seed as usize) % 13) as f32 - 6.0
            });
            let eye = Matrix::from_fn(cols, cols, |r, c| if r == c { 1.0 } else { 0.0 });
            let out = a.matmul(&eye);
            assert_close(out.as_slice(), a.as_slice(), 1e-6);
        }

        #[test]
        fn prop_matmul_associative_with_vector(
            m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..50
        ) {
            let a = Matrix::from_fn(m, k, |r, c| ((r + c + seed as usize) % 7) as f32 - 3.0);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 2 + c + seed as usize) % 5) as f32 - 2.0);
            let ab = a.matmul(&b);
            // (A·B)ᵀ row j equals Bᵀ·(Aᵀ row j): check via nt/tn kernels
            let abt = ab.transpose();
            let bt_at = b.transpose().matmul(&a.transpose());
            assert_close(abt.as_slice(), bt_at.as_slice(), 1e-4);
        }
    }
}
