//! Row-major dense `f32` matrix with the operation set needed by the
//! autodiff engine and the regression library.

use crate::gemm::{self, Activation, Layout, PackBuffer};
use crate::kernels;
use crate::rng::Rng;
use pddl_par::WorkPool;
use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl ToJson for Matrix {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.data)
            .end();
    }
}

impl FromJson for Matrix {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        let (rows, cols): (usize, usize) = (o.field("rows")?, o.field("cols")?);
        let data: Vec<f32> = o.field("data")?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(JsonError::Shape(format!(
                "matrix is {rows}x{cols} but carries {} values",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

impl Matrix {
    /// All-zeros `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// All-ones matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// Constant-filled matrix.
    pub fn filled(rows: usize, cols: usize, v: f32) -> Self {
        Self { rows, cols, data: vec![v; rows * cols] }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major `Vec`; `data.len()` must equal `rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Builds from nested rows (test convenience).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// A 1×n row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// An n×1 column vector.
    pub fn col_vector(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Uniform random in `[-scale, scale]`.
    pub fn rand_uniform(rows: usize, cols: usize, scale: f32, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.uniform(-scale, scale)).collect();
        Self { rows, cols, data }
    }

    /// Gaussian random with standard deviation `sigma`.
    pub fn rand_normal(rows: usize, cols: usize, sigma: f32, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| sigma * rng.normal()).collect();
        Self { rows, cols, data }
    }

    /// Xavier/Glorot uniform init for a `fan_in × fan_out` weight matrix.
    pub fn xavier(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Self {
        let scale = (6.0f32 / (fan_in + fan_out) as f32).sqrt();
        Self::rand_uniform(fan_in, fan_out, scale, rng)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow of row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` out (columns are strided, so this allocates).
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Sets row `r` from a slice.
    pub fn set_row(&mut self, r: usize, values: &[f32]) {
        assert_eq!(values.len(), self.cols);
        self.row_mut(r).copy_from_slice(values);
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise binary zip.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// `self += alpha * other` (axpy), the hot accumulation in backprop.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Hadamard (elementwise) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|x| alpha * x)
    }

    /// Transpose into a new matrix, walked in 32×32 blocks so both the
    /// source reads and destination writes stay cache-resident.
    pub fn transpose(&self) -> Matrix {
        const TB: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TB) {
            let r_end = (rb + TB).min(self.rows);
            for cb in (0..self.cols).step_by(TB) {
                let c_end = (cb + TB).min(self.cols);
                for r in rb..r_end {
                    let row = &self.data[r * self.cols..(r + 1) * self.cols];
                    for (c, &v) in row.iter().enumerate().take(c_end).skip(cb) {
                        out.data[c * self.rows + r] = v;
                    }
                }
            }
        }
        out
    }

    /// GEMM: `self (m×k) · other (k×n)` through the blocked packed kernel
    /// (`crate::gemm`), using this thread's pack workspace and fanning
    /// macro-tiles over the global `pddl_par` pool above
    /// [`gemm::PAR_MADDS`] multiply-adds.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_pooled(other, &WorkPool::global())
    }

    /// [`Matrix::matmul`] with a caller-owned [`PackBuffer`], running
    /// serially. Training loops that multiply the same shapes repeatedly
    /// use this to pin packing to one warm workspace (and to measure that
    /// it never reallocates).
    pub fn matmul_with(&self, other: &Matrix, pack: &mut PackBuffer) -> Matrix {
        self.assert_inner(other);
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.gemm_nn(other, None, Activation::Identity, false, &mut out, pack, None);
        out
    }

    /// [`Matrix::matmul`] dispatched over an explicit pool — the hook the
    /// determinism tests use to prove results are bit-identical across
    /// worker counts.
    pub fn matmul_pooled(&self, other: &Matrix, pool: &WorkPool) -> Matrix {
        self.assert_inner(other);
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm::with_thread_pack(|pack| {
            self.gemm_nn(other, None, Activation::Identity, false, &mut out, pack, Some(pool));
        });
        out
    }

    /// The kernel this crate shipped before the blocked core — transpose
    /// the RHS once, then one dot product per output element. Kept serial
    /// and unblocked as the oracle for the equivalence tests.
    pub fn matmul_reference(&self, other: &Matrix) -> Matrix {
        self.assert_inner(other);
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        if k == 0 {
            return out;
        }
        let bt = other.transpose();
        for (r, out_row) in out.data.chunks_mut(n).enumerate() {
            let a_row = &self.data[r * k..(r + 1) * k];
            for (o, b_col) in out_row.iter_mut().zip(bt.data.chunks_exact(k)) {
                *o = dot(a_row, b_col);
            }
        }
        out
    }

    /// `self (m×k) · otherᵀ` where `other` is stored `n×k`. The packing
    /// step absorbs the transpose — nothing is materialized — which is
    /// what the autodiff backward pass uses for its `g·Wᵀ` GEMMs.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt inner dims: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, n, k) = (self.rows, other.rows, self.cols);
        let mut out = Matrix::zeros(m, n);
        gemm::with_thread_pack(|pack| {
            gemm::gemm(
                Layout::Nt,
                m,
                n,
                k,
                &self.data,
                &other.data,
                None,
                Activation::Identity,
                false,
                &mut out.data,
                pack,
                Some(&WorkPool::global()),
            );
        });
        out
    }

    /// `selfᵀ · other` without materializing the transpose of `self`
    /// (packing absorbs it); the `Aᵀ·g` gradient GEMM in backprop.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul row mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        gemm::with_thread_pack(|pack| {
            gemm::gemm(
                Layout::Tn,
                m,
                n,
                k,
                &self.data,
                &other.data,
                None,
                Activation::Identity,
                false,
                &mut out.data,
                pack,
                Some(&WorkPool::global()),
            );
        });
        out
    }

    /// Fused `self·other + bias` (bias is `1×n`, broadcast over rows) in
    /// one pass — the affine layer forward without the intermediate
    /// matrix or the bias-broadcast clone.
    pub fn matmul_bias(&self, other: &Matrix, bias: &Matrix) -> Matrix {
        self.matmul_bias_act(other, bias, Activation::Identity)
    }

    /// Fused `act(self·other + bias)`; bias add and activation run in the
    /// GEMM epilogue while the output is cache-warm.
    pub fn matmul_bias_act(&self, other: &Matrix, bias: &Matrix, act: Activation) -> Matrix {
        self.assert_inner(other);
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, other.cols, "bias width mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm::with_thread_pack(|pack| {
            self.gemm_nn(other, Some(&bias.data), act, false, &mut out, pack, Some(&WorkPool::global()));
        });
        out
    }

    /// Fused accumulate: `out = act(out + self·other)`. Paired with
    /// [`Matrix::matmul_bias`] this computes two-operand affine forms like
    /// the GRU gates' `act(x·W + h·U + b)` with no temporaries.
    pub fn matmul_acc_act(&self, other: &Matrix, out: &mut Matrix, act: Activation) {
        self.assert_inner(other);
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_acc_act output shape mismatch"
        );
        gemm::with_thread_pack(|pack| {
            self.gemm_nn(other, None, act, true, out, pack, Some(&WorkPool::global()));
        });
    }

    #[inline]
    fn assert_inner(&self, other: &Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dims: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm_nn(
        &self,
        other: &Matrix,
        bias: Option<&[f32]>,
        act: Activation,
        accumulate: bool,
        out: &mut Matrix,
        pack: &mut PackBuffer,
        pool: Option<&WorkPool>,
    ) {
        gemm::gemm(
            Layout::Nn,
            self.rows,
            other.cols,
            self.cols,
            &self.data,
            &other.data,
            bias,
            act,
            accumulate,
            &mut out.data,
            pack,
            pool,
        );
    }

    /// Matrix–vector product `self · v`.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(self.cols, v.len(), "matvec dim mismatch");
        (0..self.rows).map(|r| dot(self.row(r), v)).collect()
    }

    /// Adds a 1×cols row vector to every row (bias broadcast), allocating
    /// the result. Hot paths use [`Matrix::add_row_broadcast_mut`] or the
    /// fused [`Matrix::matmul_bias`] instead.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_mut(bias);
        out
    }

    /// In-place bias broadcast: `self[r] += bias` for every row.
    pub fn add_row_broadcast_mut(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "broadcast expects a row vector");
        assert_eq!(bias.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, &b) in row.iter_mut().zip(&bias.data) {
                *x += b;
            }
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries (0 for empty).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sum → 1×cols.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Column-wise mean → 1×cols.
    pub fn mean_rows(&self) -> Matrix {
        let s = self.sum_rows();
        if self.rows == 0 {
            s
        } else {
            s.scale(1.0 / self.rows as f32)
        }
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Squared L2 norm of all entries.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// Vertically stacks matrices (all must share `cols`).
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty());
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack width mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Horizontally concatenates matrices (all must share `rows`).
    pub fn hstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        Matrix::hstack_into(parts, &mut out.data);
        out
    }

    /// [`Matrix::hstack`] into the caller's row-major buffer, which must
    /// hold exactly `rows × Σ cols` elements.
    pub fn hstack_into(parts: &[&Matrix], out: &mut [f32]) {
        let rows = parts.first().map_or(0, |p| p.rows);
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        assert_eq!(out.len(), rows * cols, "hstack_into buffer size mismatch");
        let mut offset = 0;
        for p in parts {
            assert_eq!(p.rows, rows, "hstack height mismatch");
            for r in 0..rows {
                out[r * cols + offset..][..p.cols].copy_from_slice(p.row(r));
            }
            offset += p.cols;
        }
    }

    /// Extracts rows `[start, end)` as a new matrix.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows, "slice_rows out of range");
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Gathers the given rows into a new matrix (used by train/test splits).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

/// Unit-stride dot product; the compiler auto-vectorizes this loop.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // Accumulate in f64 chunks of 8 to tame f32 cancellation on long rows.
    let mut acc = 0.0f32;
    let chunks = a.len() / 8 * 8;
    let mut partial = [0.0f32; 8];
    for i in (0..chunks).step_by(8) {
        for l in 0..8 {
            partial[l] += a[i + l] * b[i + l];
        }
    }
    for p in partial {
        acc += p;
    }
    for i in chunks..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// `out += v · w` for a length-`k` row vector `v` and a row-major `k×n`
/// weight slice `w` (`n = out.len()`), accumulated as unit-stride axpy
/// rows. The allocation-free per-node path the GHN's sequential GRU
/// update runs on: a node's state is a plain `&[f32]`, and its weights
/// may be several matrices packed side by side in a workspace.
pub fn vecmat_acc(v: &[f32], w: &[f32], out: &mut [f32]) {
    assert_eq!(w.len(), v.len() * out.len(), "vecmat_acc weight size mismatch");
    (kernels::active().vecmat)(v, w, out);
}

/// `out = act(v · w + bias)` for one row: what [`Matrix::matmul_bias_act`]
/// computes for each row of its left operand, bit for bit (accumulate over
/// `k` from zero, then bias, then activation), into the caller's buffer.
/// Counts nothing — see [`gemm::record_products`].
pub fn vecmat_bias_act(v: &[f32], w: &[f32], bias: &[f32], act: Activation, out: &mut [f32]) {
    assert_eq!(w.len(), v.len() * out.len(), "vecmat_bias_act weight size mismatch");
    assert_eq!(bias.len(), out.len(), "vecmat_bias_act width mismatch");
    let kern = kernels::active();
    out.fill(0.0);
    (kern.vecmat)(v, w, out);
    gemm::epilogue(kern, out, 1, out.len(), Some(bias), act);
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", &self.row(r)[..self.cols.min(12)])?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = Rng::new(1);
        let a = Matrix::rand_normal(5, 5, 1.0, &mut rng);
        let i = Matrix::eye(5);
        let prod = a.matmul(&i);
        assert!((&prod - &a).max_abs() < 1e-6);
    }

    #[test]
    fn parallel_and_serial_gemm_agree() {
        let mut rng = Rng::new(2);
        // Large enough to cross PAR_FLOP_THRESHOLD.
        let a = Matrix::rand_normal(80, 70, 1.0, &mut rng);
        let b = Matrix::rand_normal(70, 90, 1.0, &mut rng);
        let c = a.matmul(&b);
        // Naive reference.
        let mut r = Matrix::zeros(80, 90);
        for i in 0..80 {
            for j in 0..90 {
                let mut s = 0.0;
                for k in 0..70 {
                    s += a[(i, k)] * b[(k, j)];
                }
                r[(i, j)] = s;
            }
        }
        assert!((&c - &r).max_abs() < 1e-3);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let mut rng = Rng::new(3);
        let a = Matrix::rand_normal(13, 7, 1.0, &mut rng);
        let b = Matrix::rand_normal(13, 5, 1.0, &mut rng);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!((&fast - &slow).max_abs() < 1e-4);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::new(4);
        let a = Matrix::rand_normal(6, 9, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let c = a.add_row_broadcast(&b);
        assert_eq!(c, Matrix::from_rows(&[&[11.0, 21.0], &[12.0, 22.0]]));
    }

    #[test]
    fn stacking_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.slice_rows(1, 2), b);
        let h = Matrix::hstack(&[&a, &b]);
        assert_eq!(h, Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
    }

    #[test]
    fn gather_rows_selects() {
        let m = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let g = m.gather_rows(&[3, 1]);
        assert_eq!(g, Matrix::from_rows(&[&[3.0], &[1.0]]));
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.sum_rows(), Matrix::row_vector(&[4.0, 6.0]));
        assert_eq!(m.mean_rows(), Matrix::row_vector(&[2.0, 3.0]));
        assert!((m.frobenius() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn dot_long_vectors_accurate() {
        let n = 10_000;
        let a: Vec<f32> = (0..n).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect();
        let b: Vec<f32> = (0..n).map(|i| ((i % 5) as f32 - 2.0) * 0.1).collect();
        let exact: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum();
        assert!((dot(&a, &b) as f64 - exact).abs() < 1e-2);
    }
}
