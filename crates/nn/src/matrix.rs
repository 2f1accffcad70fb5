//! Dense row-major `f32` matrix used throughout the crate.
//!
//! The printed-MLP workloads are tiny (tens of neurons, thousands of samples),
//! so a straightforward dense implementation with bounds-checked accessors and
//! explicit error reporting is preferred over an external BLAS dependency.

use crate::error::NnError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense row-major matrix of `f32` values.
///
/// # Example
///
/// ```
/// use pmlp_nn::Matrix;
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Reuses the existing allocation when the capacities allow — hot
    /// training loops `clone_from` into persistent buffers every batch.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

/// The empty `0 x 0` matrix; it holds no allocation, so persistent buffers
/// start from it and grow on first use.
impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// Creates a matrix of `rows x cols` filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Creates a matrix of `rows x cols` filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a slice of equally-long rows.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidDimension`] if `rows` is empty or the rows do
    /// not all have the same length.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, NnError> {
        if rows.is_empty() {
            return Err(NnError::InvalidDimension {
                context: "from_rows: no rows".into(),
            });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(NnError::InvalidDimension {
                context: "from_rows: zero columns".into(),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(NnError::InvalidDimension {
                    context: format!(
                        "from_rows: row {i} has {} columns, expected {cols}",
                        row.len()
                    ),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidDimension`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, NnError> {
        if data.len() != rows * cols {
            return Err(NnError::InvalidDimension {
                context: format!(
                    "from_vec: expected {} elements, got {}",
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = value;
    }

    /// Borrowed view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column(&self, c: usize) -> Vec<f32> {
        self.column_iter(c).collect()
    }

    /// Strided, allocation-free iterator over column `c` (top to bottom) —
    /// the hot-path counterpart of [`Matrix::column`], which allocates a
    /// fresh `Vec` per call.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column_iter(&self, c: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(
            c < self.cols,
            "column {c} out of bounds for {} columns",
            self.cols
        );
        self.data.iter().skip(c).step_by(self.cols).copied()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks(self.cols)
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Transposes into a caller-owned matrix, reusing its allocation — the
    /// backprop hot path re-transposes the weight matrix every batch, so
    /// avoiding the per-call allocation matters.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        if self.rows == 0 {
            return;
        }
        for (c, out_row) in out.data.chunks_exact_mut(self.rows).enumerate() {
            for (r, o) in out_row.iter_mut().enumerate() {
                *o = self.data[r * self.cols + c];
            }
        }
    }

    /// Reshapes to `rows x cols` in place, reusing the allocation: elements
    /// keep their flat positions and any new ones are `0.0`. Callers that
    /// overwrite every element use it to size persistent buffers; it only
    /// allocates when the matrix grows beyond its capacity.
    pub(crate) fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data
            .resize(rows.checked_mul(cols).expect("matrix size overflow"), 0.0);
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// How many multiply-adds a product must involve before `matmul_into`
    /// fans rows out over the rayon pool; below this the sequential kernel
    /// wins (and candidate-level parallelism already saturates the cores).
    const PAR_MATMUL_FLOPS: usize = 1 << 20;

    /// Matrix product `self * other` written into a caller-owned matrix,
    /// reusing its allocation.
    ///
    /// This is the training hot kernel. Products with at most 64 inner terms
    /// and at most 32 output columns — every product of this repository's
    /// layers (at most 32 inputs, 30 hidden neurons, 10 classes and batches
    /// of 32) — run a register-accumulator kernel that keeps whole output
    /// rows in registers, padded to a width of 8, 16 or 32 columns. Larger
    /// products run a dense `ikj` loop blocked over output columns, with rows
    /// fanned out over the rayon pool once the product is big enough. Every
    /// path starts each output element at `0.0` and adds
    /// `self[i][k] * other[k][j]` in ascending `k`, exactly like the naive
    /// triple loop, so all paths are bit-identical to it and to each other.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                context: "matmul".into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        out.resize(self.rows, other.cols);

        let flops = self.rows * self.cols * other.cols;
        if flops >= Self::PAR_MATMUL_FLOPS && rayon::current_num_threads() > 1 && self.rows > 1 {
            use rayon::prelude::*;
            let rows_per_chunk = self.rows.div_ceil(rayon::current_num_threads()).max(1);
            out.data
                .par_chunks_mut(rows_per_chunk * other.cols)
                .enumerate()
                .for_each(|(chunk_index, chunk)| {
                    let row0 = chunk_index * rows_per_chunk;
                    matmul_rows_blocked(
                        &self.data[row0 * self.cols..],
                        self.cols,
                        &other.data,
                        other.cols,
                        chunk,
                    );
                });
        } else {
            matmul_rows(
                &self.data,
                self.cols,
                &other.data,
                other.cols,
                &mut out.data,
            );
        }
        Ok(())
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub fn add_elem(&self, other: &Matrix) -> Result<Matrix, NnError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub fn sub_elem(&self, other: &Matrix) -> Result<Matrix, NnError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix, NnError> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        context: &str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix, NnError> {
        if self.shape() != other.shape() {
            return Err(NnError::ShapeMismatch {
                context: context.into(),
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds a row vector (broadcast over rows), used for bias addition.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&self, bias: &[f32]) -> Result<Matrix, NnError> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                context: "add_row_broadcast".into(),
                left: self.shape(),
                right: (1, bias.len()),
            });
        }
        let mut out = self.clone();
        out.add_row_broadcast_inplace(bias)?;
        Ok(out)
    }

    /// Adds a row vector to every row in place (allocation-free counterpart
    /// of [`Matrix::add_row_broadcast`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `bias.len() != self.cols()`.
    pub fn add_row_broadcast_inplace(&mut self, bias: &[f32]) -> Result<(), NnError> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                context: "add_row_broadcast_inplace".into(),
                left: self.shape(),
                right: (1, bias.len()),
            });
        }
        for row in self.data.chunks_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Overwrites this matrix with the selected rows of `src`, reusing the
    /// existing allocation (the allocation-free counterpart of
    /// [`Matrix::select_rows`], used by the mini-batch gather path).
    ///
    /// # Panics
    ///
    /// Panics when the column counts differ, `indices.len() != self.rows()`,
    /// or any index is out of bounds for `src`.
    pub fn copy_rows_from(&mut self, src: &Matrix, indices: &[usize]) {
        assert_eq!(self.cols, src.cols, "copy_rows_from: column mismatch");
        assert_eq!(
            self.rows,
            indices.len(),
            "copy_rows_from: row-count mismatch"
        );
        for (dst, &src_row) in indices.iter().enumerate() {
            let start = dst * self.cols;
            self.data[start..start + self.cols].copy_from_slice(src.row(src_row));
        }
    }

    /// Sums over rows, producing a vector of length `cols`.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Matrix::sum_rows`] into a caller-owned vector, reusing its
    /// allocation (the bias gradient of every backward pass).
    pub(crate) fn sum_rows_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for row in self.iter_rows() {
            for (acc, &v) in out.iter_mut().zip(row.iter()) {
                *acc += v;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Number of elements equal to exactly zero.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|&&x| x == 0.0).count()
    }

    /// Selects the given rows into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Index of the maximum value in each row (argmax), ties resolved to the
    /// lowest index.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.iter_rows().map(argmax).collect()
    }
}

/// Index of the largest value of `row`, ties resolved to the lowest index;
/// `0` for an empty row.
pub(crate) fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
            if v > bv {
                (i, v)
            } else {
                (bi, bv)
            }
        })
        .0
}

/// Largest inner dimension `k` the register kernels take: they copy the
/// right operand into a zero-padded stack tile of at most `MAX_TILE_K x 32`.
const MAX_TILE_K: usize = 64;

/// Sequential product kernel of [`Matrix::matmul_into`]: `out` holds every
/// result row and `a` the matching rows of the left operand, `a_cols` (`k`)
/// terms each.
///
/// Dispatches on the shape. With `1 <= k <= MAX_TILE_K` and 1 to 32 output
/// columns, a register-accumulator kernel runs, padded to the next width
/// `W` in {8, 16, 32} and to the next tile height in {16, 32, 64} (the tile
/// is zeroed on every call, so a short one costs less). Everything else runs
/// the blocked kernel.
fn matmul_rows(a: &[f32], a_cols: usize, b: &[f32], b_cols: usize, out: &mut [f32]) {
    let fitted = match a_cols {
        1..=16 => matmul_rows_fitted::<16>(a, a_cols, b, b_cols, out),
        17..=32 => matmul_rows_fitted::<32>(a, a_cols, b, b_cols, out),
        33..=MAX_TILE_K => matmul_rows_fitted::<MAX_TILE_K>(a, a_cols, b, b_cols, out),
        _ => false,
    };
    if !fitted {
        matmul_rows_blocked(a, a_cols, b, b_cols, out);
    }
}

/// Runs the register kernel of tile height `KT` padded to the output width;
/// `false` when the output has no columns or more than 32.
fn matmul_rows_fitted<const KT: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) -> bool {
    match n {
        1..=8 => matmul_rows_tile::<8, KT>(a, k, b, n, out),
        9..=16 => matmul_rows_tile::<16, KT>(a, k, b, n, out),
        17..=32 => matmul_rows_tile::<32, KT>(a, k, b, n, out),
        _ => return false,
    }
    true
}

/// Register-accumulator kernel for `0 < k <= KT` and `0 < n <= W`. The
/// right operand is copied into a `KT x W` stack tile padded with zeros, so
/// every inner loop has the constant trip count `W` and the whole output row
/// (four rows when `W == 8`) stays in registers across the full `k` sweep.
/// Each accumulator starts at `0.0` and adds `a[i][k] * b[k][j]` in
/// ascending `k`; the padded lanes are discarded.
fn matmul_rows_tile<const W: usize, const KT: usize>(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut tile = [[0.0_f32; W]; KT];
    for (t, b_row) in tile.iter_mut().zip(b.chunks_exact(n)) {
        t[..n].copy_from_slice(b_row);
    }
    let tile = &tile[..k];

    let (out, a) = if W == 8 {
        // Narrow rows leave registers to spare, so four rows share each
        // load of a tile row.
        let mut out_quads = out.chunks_exact_mut(4 * n);
        let mut a_quads = a.chunks_exact(4 * k);
        for (out4, a4) in (&mut out_quads).zip(&mut a_quads) {
            let (a0, rest) = a4.split_at(k);
            let (a1, rest) = rest.split_at(k);
            let (a2, a3) = rest.split_at(k);
            let mut acc = [[0.0_f32; W]; 4];
            for ((((&v0, &v1), &v2), &v3), t) in a0.iter().zip(a1).zip(a2).zip(a3).zip(tile) {
                for (j, &bv) in t.iter().enumerate() {
                    acc[0][j] += v0 * bv;
                    acc[1][j] += v1 * bv;
                    acc[2][j] += v2 * bv;
                    acc[3][j] += v3 * bv;
                }
            }
            for (out_row, acc) in out4.chunks_exact_mut(n).zip(&acc) {
                out_row.copy_from_slice(&acc[..n]);
            }
        }
        (out_quads.into_remainder(), a_quads.remainder())
    } else {
        (out, a)
    };
    for (out_row, a_row) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        let mut acc = [0.0_f32; W];
        for (&av, t) in a_row.iter().zip(tile) {
            for (acc, &bv) in acc.iter_mut().zip(t) {
                *acc += av * bv;
            }
        }
        out_row.copy_from_slice(&acc[..n]);
    }
}

/// Blocked product kernel: the fallback of [`matmul_rows`] for shapes
/// outside the register kernels' range and the kernel of the row-parallel
/// path. `out` holds one or more complete result rows (any previous contents
/// are overwritten), `a` points at the first corresponding row of the left
/// operand.
///
/// Blocked over output columns so the live `out` stripe stays cache-resident
/// across the whole `k` sweep. Per output element the accumulation order is
/// `k` ascending from `0.0` — identical to the naive kernel — and the dense
/// inner loop carries no per-element zero test, so it vectorizes.
fn matmul_rows_blocked(a: &[f32], a_cols: usize, b: &[f32], b_cols: usize, out: &mut [f32]) {
    const J_BLOCK: usize = 512;
    out.fill(0.0);
    if b_cols == 0 || a_cols == 0 {
        return;
    }
    for (i, out_row) in out.chunks_mut(b_cols).enumerate() {
        let a_row = &a[i * a_cols..(i + 1) * a_cols];
        let mut j0 = 0;
        while j0 < b_cols {
            let j1 = (j0 + J_BLOCK).min(b_cols);
            let out_chunk = &mut out_row[j0..j1];
            let width = j1 - j0;
            // Register-block four `k` steps per sweep: the accumulator stays
            // live across four multiply-adds instead of being re-read and
            // re-written per step, quartering the `out` traffic. Per element
            // the adds still happen in ascending-`k` order.
            let mut k = 0;
            while k + 4 <= a_cols {
                let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
                let b0 = &b[k * b_cols + j0..k * b_cols + j0 + width];
                let b1 = &b[(k + 1) * b_cols + j0..(k + 1) * b_cols + j0 + width];
                let b2 = &b[(k + 2) * b_cols + j0..(k + 2) * b_cols + j0 + width];
                let b3 = &b[(k + 3) * b_cols + j0..(k + 3) * b_cols + j0 + width];
                for ((((o, &v0), &v1), &v2), &v3) in
                    out_chunk.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    let mut acc = *o;
                    acc += a0 * v0;
                    acc += a1 * v1;
                    acc += a2 * v2;
                    acc += a3 * v3;
                    *o = acc;
                }
                k += 4;
            }
            for (k, &av) in a_row.iter().enumerate().skip(k) {
                let b_chunk = &b[k * b_cols + j0..k * b_cols + j1];
                for (o, &bv) in out_chunk.iter_mut().zip(b_chunk) {
                    *o += av * bv;
                }
            }
            j0 = j1;
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for row in self.iter_rows() {
            let cells: Vec<String> = row.iter().map(|x| format!("{x:>9.4}")).collect();
            writeln!(f, "[{}]", cells.join(", "))?;
        }
        Ok(())
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if shapes differ; use [`Matrix::add_elem`] for a fallible version.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_elem(rhs).expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if shapes differ; use [`Matrix::sub_elem`] for a fallible version.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_elem(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(NnError::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, NnError::InvalidDimension { .. }));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let out = a.add_row_broadcast(&[10.0, 20.0]).unwrap();
        assert_eq!(out.row(0), &[11.0, 21.0]);
        assert_eq!(out.row(1), &[12.0, 22.0]);
    }

    #[test]
    fn argmax_rows_resolves_ties_to_lowest_index() {
        let a = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.1, 0.9]]).unwrap();
        assert_eq!(a.argmax_rows(), vec![0, 1]);
    }

    #[test]
    fn sum_rows_and_mean() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
        assert!((a.mean() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn count_zeros_counts_exact_zeros() {
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![0.0, 0.0]]).unwrap();
        assert_eq!(a.count_zeros(), 3);
    }

    #[test]
    fn add_row_broadcast_inplace_matches_allocating_version() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let mut b = a.clone();
        b.add_row_broadcast_inplace(&[10.0, 20.0]).unwrap();
        assert_eq!(b, a.add_row_broadcast(&[10.0, 20.0]).unwrap());
        assert!(b.add_row_broadcast_inplace(&[1.0]).is_err());
    }

    #[test]
    fn copy_rows_from_matches_select_rows() {
        let src = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let mut dst = Matrix::zeros(2, 2);
        dst.copy_rows_from(&src, &[2, 0]);
        assert_eq!(dst, src.select_rows(&[2, 0]));
    }

    #[test]
    #[should_panic(expected = "row-count mismatch")]
    fn copy_rows_from_rejects_wrong_row_count() {
        let src = Matrix::zeros(3, 2);
        let mut dst = Matrix::zeros(1, 2);
        dst.copy_rows_from(&src, &[0, 1]);
    }

    #[test]
    fn select_rows_picks_rows_in_order() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let sel = a.select_rows(&[2, 0]);
        assert_eq!(sel.row(0), &[3.0]);
        assert_eq!(sel.row(1), &[1.0]);
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, -3.0], vec![0.5, -1.5, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![2.0, 0.0], vec![-1.0, 3.0], vec![0.5, 1.0]]).unwrap();
        let expected = a.matmul(&b).unwrap();
        // Start from a buffer of the wrong shape and stale contents.
        let mut out = Matrix::filled(5, 7, 9.0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, expected);
        // Repeated calls into the same buffer stay correct.
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, expected);
        // Shape mismatch is still reported.
        assert!(b.matmul_into(&b, &mut out).is_err());
    }

    #[test]
    fn matmul_has_no_zero_skip_semantics_change() {
        // Rows/operands full of zeros still produce exact results.
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, -2.0], vec![7.0, 5.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[0.0, 0.0]);
        assert_eq!(c.row(1), &[3.0, -2.0]);
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let mut out = Matrix::filled(1, 1, 42.0);
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
        // And again, reusing the now-correctly-sized buffer.
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
    }

    #[test]
    fn column_iter_matches_column() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        for c in 0..2 {
            assert_eq!(a.column_iter(c).collect::<Vec<_>>(), a.column(c));
        }
        assert_eq!(a.column_iter(1).sum::<f32>(), 12.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn column_iter_panics_out_of_bounds() {
        let a = Matrix::zeros(2, 2);
        let _ = a.column_iter(2);
    }

    #[test]
    fn clone_from_reuses_allocation_and_copies_exactly() {
        let src = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut dst = Matrix::zeros(7, 3);
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.shape(), (2, 2));
    }

    #[test]
    fn operators_match_methods() {
        let a = Matrix::filled(2, 2, 3.0);
        let b = Matrix::filled(2, 2, 1.0);
        assert_eq!(&a + &b, Matrix::filled(2, 2, 4.0));
        assert_eq!(&a - &b, Matrix::filled(2, 2, 2.0));
        assert_eq!(&a * 2.0, Matrix::filled(2, 2, 6.0));
    }

    #[test]
    fn display_contains_dimensions() {
        let a = Matrix::zeros(1, 2);
        let s = format!("{a}");
        assert!(s.contains("1x2"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
    }

    /// The reference every product kernel must match bit for bit: a triple
    /// loop whose accumulator starts at `0.0` and adds `a[i][k] * b[k][j]`
    /// in ascending `k`.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0_f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn assert_bits_eq(actual: &Matrix, expected: &Matrix, context: &str) {
        assert_eq!(actual.shape(), expected.shape(), "{context}");
        for (idx, (x, y)) in actual
            .as_slice()
            .iter()
            .zip(expected.as_slice())
            .enumerate()
        {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: element {idx}: {x} vs {y}"
            );
        }
    }

    /// Maps a selector and two random draws to an f32 that is, one time in
    /// four, a signed zero or a (positive or negative) subnormal.
    fn special_f32(selector: u8, value: f32, mantissa: u32) -> f32 {
        match selector {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(mantissa),
            3 => -f32::from_bits(mantissa),
            _ => value,
        }
    }

    fn special_values(len: usize) -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec((0u8..16, -10.0f32..10.0, 1u32..0x0080_0000), len).prop_map(
            |raw| {
                raw.into_iter()
                    .map(|(s, v, m)| special_f32(s, v, m))
                    .collect()
            },
        )
    }

    /// Row counts around the four-row blocking of the narrowest kernel,
    /// inner sizes around the tile heights 16/32/64, and output widths
    /// around the register widths 8/16/32 — every dispatch class and both
    /// sides of each boundary.
    const ROWS: [usize; 8] = [1, 2, 3, 4, 5, 7, 8, 33];
    const INNER: [usize; 12] = [1, 2, 5, 11, 16, 17, 31, 32, 33, 64, 65, 90];
    const COLS: [usize; 13] = [1, 3, 5, 8, 9, 15, 16, 17, 25, 31, 32, 33, 40];

    #[test]
    fn matmul_into_matches_naive_kernel_at_every_dispatch_boundary() {
        let value =
            |i: usize| special_f32((i % 7) as u8, (i as f32 * 0.37).sin() * 3.0, 1 + i as u32);
        let mut out = Matrix::filled(3, 3, f32::NAN);
        for &m in &ROWS {
            for &k in &INNER {
                for &n in &COLS {
                    let a = Matrix::from_vec(m, k, (0..m * k).map(value).collect()).unwrap();
                    let b =
                        Matrix::from_vec(k, n, (0..k * n).map(|i| value(i + 3)).collect()).unwrap();
                    a.matmul_into(&b, &mut out).unwrap();
                    assert_bits_eq(&out, &naive_matmul(&a, &b), &format!("{m}x{k}x{n}"));
                }
            }
        }
    }

    #[test]
    fn matmul_empty_inner_dimension_is_all_zeros() {
        let mut out = Matrix::filled(2, 2, 5.0);
        Matrix::zeros(3, 0)
            .matmul_into(&Matrix::zeros(0, 4), &mut out)
            .unwrap();
        assert_eq!(out, Matrix::zeros(3, 4));
    }

    #[test]
    fn row_parallel_product_matches_naive_kernel() {
        // 1100 x 32 x 30 crosses the rayon threshold of 2^20 multiply-adds.
        let (m, k, n) = (1100, 32, 30);
        let a = Matrix::from_vec(
            m,
            k,
            (0..m * k).map(|i| (i % 23) as f32 * 0.13 - 1.0).collect(),
        )
        .unwrap();
        let b = Matrix::from_vec(
            k,
            n,
            (0..k * n).map(|i| (i % 11) as f32 * -0.29 + 0.7).collect(),
        )
        .unwrap();
        assert!(m * k * n >= Matrix::PAR_MATMUL_FLOPS);
        assert_bits_eq(&a.matmul(&b).unwrap(), &naive_matmul(&a, &b), "parallel");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn matmul_into_matches_naive_kernel_bit_for_bit(
            shape in (0..ROWS.len(), 0..INNER.len(), 0..COLS.len()),
            values in special_values(33 * 90 + 90 * 40)
        ) {
            let (m, k, n) = (ROWS[shape.0], INNER[shape.1], COLS[shape.2]);
            let a = Matrix::from_vec(m, k, values[..m * k].to_vec()).unwrap();
            let b = Matrix::from_vec(k, n, values[m * k..m * k + k * n].to_vec()).unwrap();
            let mut out = Matrix::filled(40, 40, -1.0);
            a.matmul_into(&b, &mut out).unwrap();
            assert_bits_eq(&out, &naive_matmul(&a, &b), &format!("{m}x{k}x{n}"));
        }

        #[test]
        fn transpose_into_matches_naive_transpose_bit_for_bit(
            shape in (0usize..40, 0usize..40),
            values in special_values(39 * 39)
        ) {
            let (rows, cols) = shape;
            let a = Matrix::from_vec(rows, cols, values[..rows * cols].to_vec()).unwrap();
            let mut out = Matrix::filled(7, 5, 1.0);
            a.transpose_into(&mut out);
            prop_assert_eq!(out.shape(), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert_eq!(out.get(c, r).to_bits(), a.get(r, c).to_bits());
                }
            }
        }
    }

    proptest! {
        #[test]
        fn transpose_is_involution(m in small_matrix(4, 3)) {
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn matmul_identity_left_and_right(m in small_matrix(3, 3)) {
            let i = Matrix::identity(3);
            let left = i.matmul(&m).unwrap();
            let right = m.matmul(&i).unwrap();
            for (a, b) in left.as_slice().iter().zip(m.as_slice()) {
                prop_assert!((a - b).abs() < 1e-5);
            }
            for (a, b) in right.as_slice().iter().zip(m.as_slice()) {
                prop_assert!((a - b).abs() < 1e-5);
            }
        }

        #[test]
        fn addition_commutes(a in small_matrix(3, 4), b in small_matrix(3, 4)) {
            let ab = a.add_elem(&b).unwrap();
            let ba = b.add_elem(&a).unwrap();
            for (x, y) in ab.as_slice().iter().zip(ba.as_slice()) {
                prop_assert!((x - y).abs() < 1e-6);
            }
        }

        #[test]
        fn scale_by_zero_gives_zero_matrix(a in small_matrix(2, 5)) {
            let z = a.scale(0.0);
            prop_assert_eq!(z.count_zeros(), z.len());
        }

        #[test]
        fn frobenius_norm_non_negative_and_zero_only_for_zero(a in small_matrix(3, 3)) {
            let n = a.frobenius_norm();
            prop_assert!(n >= 0.0);
            if a.as_slice().iter().all(|&x| x == 0.0) {
                prop_assert!(n == 0.0);
            }
        }
    }
}
