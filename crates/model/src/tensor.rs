//! A deliberately small dense-matrix library.
//!
//! The reference GPT-2 needs only row-major 2-D matrices and vectors of a
//! [`Scalar`] type. The matrix-vector product is implemented with a plain
//! sequential accumulator — the conventional CPU/GPU semantics the paper's
//! baseline uses — whereas the DFX functional executor in `dfx-core`
//! re-implements the same math with adder-tree semantics on tiles.

use dfx_num::Scalar;
use serde::{Deserialize, Serialize};

/// A row-major dense matrix.
///
/// # Examples
///
/// ```
/// use dfx_model::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0f32, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        let n_cols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == n_cols),
            "all rows must have the same length"
        );
        Matrix {
            rows: rows.len(),
            cols: n_cols,
            data: rows.concat(),
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size must match shape");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Extracts the sub-matrix of columns `[col_start, col_end)`.
    ///
    /// Used by the model partitioner for column-wise weight splits.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn col_slice(&self, col_start: usize, col_end: usize) -> Matrix<T> {
        assert!(
            col_start <= col_end && col_end <= self.cols,
            "invalid column range {col_start}..{col_end} for {} cols",
            self.cols
        );
        Matrix::from_fn(self.rows, col_end - col_start, |r, c| {
            self[(r, col_start + c)]
        })
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()` (unless the matrix is empty, in
    /// which case the row defines the width).
    pub fn push_row(&mut self, row: &[T]) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Converts every element to another scalar precision with
    /// [`Scalar::cast`].
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x.cast()).collect(),
        }
    }

    /// `Y = X · self + b` for every row of `x` — the GPT-2 `Conv1D`
    /// convention with `self` shaped `(in_dim, out_dim)` and `x` shaped
    /// `(n, in_dim)` — in one pass over `self` for all rows.
    ///
    /// Accumulation is sequential in `T` (conventional semantics), each
    /// row in its own order, so row `r` of the result is the vector-matrix
    /// product of row `r` alone, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != rows` or `bias.len() != cols`.
    pub fn matmul_bias(&self, x: &Matrix<T>, bias: &[T]) -> Matrix<T> {
        assert_eq!(x.cols(), self.rows, "input length must equal in_dim");
        assert_eq!(bias.len(), self.cols, "bias length must equal out_dim");
        let mut out = bias.repeat(x.rows());
        T::vecmat_rows_acc(x.as_slice(), &self.data, &mut out, self.cols);
        Matrix::from_vec(x.rows(), self.cols, out)
    }

    /// `y = x · self` without bias.
    pub fn vecmat(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.rows, "input length must equal in_dim");
        let mut out = vec![T::ZERO; self.cols];
        T::vecmat_acc(x, &self.data, &mut out);
        out
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

/// Elementwise vector addition.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn vec_add<T: Scalar>(a: &[T], b: &[T]) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "vector lengths must match");
    a.iter().zip(b).map(|(&x, &y)| x.add(y)).collect()
}

/// Elementwise vector subtraction `a - b`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn vec_sub<T: Scalar>(a: &[T], b: &[T]) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "vector lengths must match");
    a.iter().zip(b).map(|(&x, &y)| x.sub(y)).collect()
}

/// Dot product with sequential accumulation.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len(), "vector lengths must match");
    a.iter()
        .zip(b)
        .fold(T::ZERO, |acc, (&x, &y)| acc.add(x.mul(y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_num::F16;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::<f32>::zeros(2, 2);
        let _ = m.row(2);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn col_and_row_slices_partition_the_matrix() {
        let m = Matrix::from_fn(4, 6, |r, c| (r * 6 + c) as f32);
        let left = m.col_slice(0, 3);
        let right = m.col_slice(3, 6);
        for r in 0..4 {
            for c in 0..3 {
                assert_eq!(left[(r, c)], m[(r, c)]);
                assert_eq!(right[(r, c)], m[(r, c + 3)]);
            }
        }
    }

    #[test]
    fn matmul_bias_matches_manual_computation() {
        // W is (2 in, 3 out): y_j = sum_i x_i W[i][j] + b_j, per row.
        let w = Matrix::from_rows(&[vec![1.0f32, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let x = Matrix::from_rows(&[vec![10.0, 100.0], vec![1.0, 0.0]]);
        let y = w.matmul_bias(&x, &[0.5, 0.5, 0.5]);
        assert_eq!(y.row(0), &[410.5, 520.5, 630.5]);
        assert_eq!(y.row(1), &[1.5, 2.5, 3.5]);
    }

    #[test]
    #[should_panic(expected = "in_dim")]
    fn vecmat_rejects_bad_input_length() {
        let w = Matrix::<f32>::zeros(2, 3);
        let _ = w.vecmat(&[1.0; 3]);
    }

    #[test]
    fn push_row_grows_kv_style_matrix() {
        let mut m: Matrix<f32> = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn cast_roundtrips_for_representable_values() {
        let m = Matrix::from_fn(3, 3, |r, c| (r as f32 + c as f32) * 0.25);
        let h: Matrix<F16> = m.cast();
        let back: Matrix<f32> = h.cast();
        assert_eq!(m, back);
    }

    #[test]
    fn helpers_add_sub_dot() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [0.5f32, 0.5, 0.5];
        assert_eq!(vec_add(&a, &b), vec![1.5, 2.5, 3.5]);
        assert_eq!(vec_sub(&a, &b), vec![0.5, 1.5, 2.5]);
        assert_eq!(dot(&a, &b), 3.0);
    }
}
