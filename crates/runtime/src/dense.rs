//! Dense row-major matrices — the local building block of the
//! distributed run-time library and the value representation of the
//! baseline interpreter.
//!
//! MATLAB semantics throughout: 1-based indexing at the API surface is
//! handled by callers (the compiler emits the `- 1` just like the
//! paper's generated C does); this type is 0-based. A vector is a
//! matrix with one row (row vector) or one column (column vector).

use std::fmt;

/// Dense `rows × cols` matrix of doubles, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// Construct from parts. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "shape {rows}x{cols} vs {} elements",
            data.len()
        );
        Dense { rows, cols, data }
    }

    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All-ones matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Dense {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Dense::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Column vector from a slice.
    pub fn col_vector(v: &[f64]) -> Self {
        Dense::from_vec(v.len(), 1, v.to_vec())
    }

    /// Row vector from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Dense::from_vec(1, v.len(), v.to_vec())
    }

    /// MATLAB range `start:step:stop` as a row vector. An empty range
    /// (e.g. `1:0`) yields a 1×0 matrix, as MATLAB does.
    pub fn range(start: f64, step: f64, stop: f64) -> Self {
        assert!(step != 0.0, "range step must be nonzero");
        let n = if (step > 0.0 && start > stop) || (step < 0.0 && start < stop) {
            0
        } else {
            ((stop - start) / step).floor() as usize + 1
        };
        let data: Vec<f64> = (0..n).map(|i| start + step * i as f64).collect();
        Dense {
            rows: 1,
            cols: n,
            data,
        }
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

    /// True if either dimension is 1 (MATLAB vector).
    pub fn is_vector(&self) -> bool {
        self.rows == 1 || self.cols == 1
    }

    /// True for 1×1.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Raw data slice, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Consume into the raw buffer.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// 0-based element access.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.data[i * self.cols + j]
    }

    /// 0-based element store.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.data[i * self.cols + j] = v;
    }

    /// Linear 0-based access in MATLAB's column-major linear-index
    /// order (`a(k)` semantics).
    pub fn get_linear(&self, k: usize) -> f64 {
        assert!(k < self.len(), "linear index {k} out of {}", self.len());
        let i = k % self.rows;
        let j = k / self.rows;
        self.get(i, j)
    }

    /// Linear 0-based store in column-major order.
    pub fn set_linear(&mut self, k: usize, v: f64) {
        assert!(k < self.len(), "linear index {k} out of {}", self.len());
        let i = k % self.rows;
        let j = k / self.rows;
        self.set(i, j, v);
    }

    /// One row as a slice (row-major makes this free).
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// One column, copied out.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    // ---- element-wise operations ---------------------------------------

    /// Apply `f` to every element, producing a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Dense {
        Dense {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combine two same-shape matrices element-wise.
    pub fn zip(&self, other: &Dense, f: impl Fn(f64, f64) -> f64) -> Dense {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch in element-wise op"
        );
        Dense {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    // ---- linear algebra --------------------------------------------------

    /// Matrix product. Panics on inner-dimension mismatch.
    ///
    /// Delegates to the branchless tiled kernel: every input value —
    /// zero, NaN, infinity — takes the same code path, so IEEE
    /// specials propagate and the running time depends only on the
    /// shapes involved.
    pub fn matmul(&self, other: &Dense) -> Dense {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Dense::zeros(self.rows, other.cols);
        crate::kernels::matmul_accumulate(
            &mut out.data,
            self.rows,
            other.cols,
            self.cols,
            &self.data,
            self.cols,
            0,
            &other.data,
        );
        out
    }

    /// Matrix–vector product with `x` given as a flat slice; returns a
    /// flat vector of length `rows`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        crate::kernels::matvec_into(&mut y, &self.data, self.cols, x);
        y
    }

    /// Transpose.
    pub fn transpose(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Outer product of two flat vectors: `u vᵀ`.
    pub fn outer(u: &[f64], v: &[f64]) -> Dense {
        let mut out = Dense::zeros(u.len(), v.len());
        for (i, &a) in u.iter().enumerate() {
            for (j, &b) in v.iter().enumerate() {
                out.set(i, j, a * b);
            }
        }
        out
    }

    /// Dot product of the matrices viewed as flat vectors.
    pub fn dot(&self, other: &Dense) -> f64 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }

    // ---- reductions -------------------------------------------------------

    /// Sum of all elements.
    pub fn sum_all(&self) -> f64 {
        self.data.iter().sum()
    }

    /// MATLAB `sum`: for a vector, the scalar total; for a matrix, the
    /// row vector of column sums.
    pub fn sum(&self) -> Dense {
        if self.is_vector() {
            Dense::from_vec(1, 1, vec![self.sum_all()])
        } else {
            let mut s = vec![0.0; self.cols];
            for i in 0..self.rows {
                for (j, acc) in s.iter_mut().enumerate() {
                    *acc += self.get(i, j);
                }
            }
            Dense::row_vector(&s)
        }
    }

    /// MATLAB `prod`: scalar product for vectors, column products for
    /// matrices.
    pub fn prod(&self) -> Dense {
        if self.is_vector() {
            Dense::from_vec(1, 1, vec![self.data.iter().product()])
        } else {
            let mut s = vec![1.0; self.cols];
            for i in 0..self.rows {
                for (j, acc) in s.iter_mut().enumerate() {
                    *acc *= self.get(i, j);
                }
            }
            Dense::row_vector(&s)
        }
    }

    /// MATLAB `max` convention: scalar for vectors, row vector of
    /// column maxima for matrices.
    pub fn max(&self) -> Dense {
        self.col_fold(f64::NEG_INFINITY, f64::max)
    }

    /// MATLAB `min` convention (see [`Dense::max`]).
    pub fn min(&self) -> Dense {
        self.col_fold(f64::INFINITY, f64::min)
    }

    /// An empty operand folds to `init` (`any`/`all` give 0 and 1);
    /// the interpreter rejects `max`/`min` of empty before calling.
    fn col_fold(&self, init: f64, f: impl Fn(f64, f64) -> f64) -> Dense {
        if self.is_vector() {
            Dense::from_vec(1, 1, vec![self.data.iter().copied().fold(init, &f)])
        } else {
            let mut s = vec![init; self.cols];
            for i in 0..self.rows {
                for (j, acc) in s.iter_mut().enumerate() {
                    *acc = f(*acc, self.get(i, j));
                }
            }
            Dense::row_vector(&s)
        }
    }

    /// MATLAB `any`: 1 if any element is nonzero (vectors → scalar,
    /// matrices → per-column row vector).
    pub fn any(&self) -> Dense {
        self.col_fold(0.0, |a, b| f64::from(a != 0.0 || b != 0.0))
    }

    /// MATLAB `all`: 1 if every element is nonzero.
    pub fn all(&self) -> Dense {
        self.col_fold(1.0, |a, b| f64::from(a != 0.0 && b != 0.0))
    }

    /// MATLAB `mean` with the same vector/matrix convention as `sum`:
    /// the sum divided by the count, so NaN for an empty operand.
    pub fn mean(&self) -> Dense {
        let n = if self.is_vector() {
            self.len()
        } else {
            self.rows
        };
        self.sum().map(|s| s / n as f64)
    }

    /// Largest element (MATLAB `max` reduced over everything).
    pub fn max_all(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest element.
    pub fn min_all(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Euclidean norm of the matrix viewed as a flat vector (MATLAB
    /// `norm` for vectors).
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Trapezoidal integration with unit spacing over a vector
    /// (MATLAB `trapz(y)`).
    pub fn trapz(&self) -> f64 {
        assert!(self.is_vector(), "trapz expects a vector");
        let d = &self.data;
        if d.len() < 2 {
            return 0.0;
        }
        let mut s = 0.0;
        for w in d.windows(2) {
            s += 0.5 * (w[0] + w[1]);
        }
        s
    }

    /// Trapezoidal integration of `y` against abscissae `x`
    /// (MATLAB `trapz(x, y)`; the paper's ocean script calls this
    /// `trapz2`).
    pub fn trapz_xy(x: &Dense, y: &Dense) -> f64 {
        assert!(x.is_vector() && y.is_vector(), "trapz2 expects vectors");
        assert_eq!(x.len(), y.len(), "trapz2 length mismatch");
        let (xd, yd) = (&x.data, &y.data);
        let mut s = 0.0;
        for i in 1..xd.len() {
            s += 0.5 * (xd[i] - xd[i - 1]) * (yd[i] + yd[i - 1]);
        }
        s
    }

    // ---- structural operations --------------------------------------------

    /// Circularly shift a vector right by `k` (negative = left); the
    /// ocean script's vector-shift primitive.
    pub fn circshift(&self, k: i64) -> Dense {
        assert!(self.is_vector(), "circshift expects a vector");
        let n = self.len() as i64;
        if n == 0 {
            return self.clone();
        }
        let k = ((k % n) + n) % n;
        let mut data = Vec::with_capacity(n as usize);
        for i in 0..n {
            data.push(self.data[((i - k + n) % n) as usize]);
        }
        Dense {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontal concatenation `[a, b]`.
    pub fn hcat(&self, other: &Dense) -> Dense {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let mut out = Dense::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.data[i * out.cols..i * out.cols + self.cols].copy_from_slice(self.row(i));
            out.data[i * out.cols + self.cols..(i + 1) * out.cols].copy_from_slice(other.row(i));
        }
        out
    }

    /// Vertical concatenation `[a; b]`.
    pub fn vcat(&self, other: &Dense) -> Dense {
        assert_eq!(self.cols, other.cols, "vcat column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Dense {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Submatrix by 0-based row and column index lists.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Dense {
        let mut out = Dense::zeros(row_idx.len(), col_idx.len());
        for (oi, &i) in row_idx.iter().enumerate() {
            for (oj, &j) in col_idx.iter().enumerate() {
                out.set(oi, oj, self.get(i, j));
            }
        }
        out
    }

    /// Reshape without changing element order (column-major, as MATLAB).
    pub fn reshape(&self, rows: usize, cols: usize) -> Dense {
        assert_eq!(rows * cols, self.len(), "reshape element-count mismatch");
        let mut out = Dense::zeros(rows, cols);
        for k in 0..self.len() {
            out.set_linear(k, self.get_linear(k));
        }
        out
    }
}

impl fmt::Display for Dense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:>12.6}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Dense::zeros(2, 3).data(), &[0.0; 6]);
        assert_eq!(Dense::ones(1, 2).data(), &[1.0, 1.0]);
        let i = Dense::eye(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.sum_all(), 3.0);
    }

    #[test]
    fn ranges() {
        assert_eq!(
            Dense::range(1.0, 1.0, 5.0).data(),
            &[1.0, 2.0, 3.0, 4.0, 5.0]
        );
        assert_eq!(
            Dense::range(0.0, 0.5, 2.0).data(),
            &[0.0, 0.5, 1.0, 1.5, 2.0]
        );
        assert_eq!(Dense::range(5.0, -2.0, 0.0).data(), &[5.0, 3.0, 1.0]);
        assert!(Dense::range(1.0, 1.0, 0.0).is_empty());
    }

    #[test]
    fn linear_index_is_column_major() {
        // [1 3; 2 4] has column-major order 1,2,3,4.
        let m = Dense::from_vec(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (0..4).map(|k| m.get_linear(k)).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
        let mut m2 = Dense::zeros(2, 2);
        for k in 0..4 {
            m2.set_linear(k, (k + 1) as f64);
        }
        assert_eq!(m2, m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Dense::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Dense::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Dense::from_vec(2, 2, vec![3.0, -1.0, 2.0, 0.5]);
        assert_eq!(a.matmul(&Dense::eye(2)), a);
        assert_eq!(Dense::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_propagates_nan_and_inf_through_zero_entries() {
        // Regression: the old kernel skipped k terms where A(i,k) was
        // exactly 0.0, silently dropping 0·NaN and 0·∞ contributions
        // that IEEE 754 defines as NaN. Row 0 of A is [0, 1]: the
        // zero must still multiply B's specials.
        let a = Dense::from_vec(2, 2, vec![0.0, 1.0, 1.0, 1.0]);
        let b = Dense::from_vec(2, 2, vec![f64::NAN, f64::INFINITY, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert!(
            c.get(0, 0).is_nan(),
            "0·NaN + 1·1 = NaN, got {}",
            c.get(0, 0)
        );
        assert!(c.get(0, 1).is_nan(), "0·∞ + 1·1 = NaN, got {}", c.get(0, 1));
        // Row 1 has no zero factor: NaN/∞ propagate arithmetically.
        assert!(c.get(1, 0).is_nan());
        assert_eq!(c.get(1, 1), f64::INFINITY);
    }

    #[test]
    fn matmul_wall_time_is_input_independent() {
        // The kernel must not branch on values: an all-zeros operand
        // takes the same arithmetic path as a dense one. The old
        // zero-skip made the zeros case ~n× faster. The bound is
        // deliberately loose (5×) — it catches the O(nnz) shortcut
        // coming back, not scheduler jitter. The two cases' samples
        // interleave and their minima are compared, so a stall on a
        // busy host lengthens some samples of both and sets neither
        // minimum. n = 97 gives the register tile both a row and a
        // column tail.
        let n = 97;
        let zeros = Dense::zeros(n, n);
        let ones = Dense::ones(n, n);
        let time = |a: &Dense, b: &Dense| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(a.matmul(b));
            t0.elapsed().as_secs_f64()
        };
        let (mut t_dense, mut t_zero) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..15 {
            t_dense = t_dense.min(time(&ones, &ones));
            t_zero = t_zero.min(time(&zeros, &ones));
        }
        assert!(
            t_dense < t_zero * 5.0,
            "zero input ran {t_zero}s vs dense {t_dense}s — value-dependent skip?"
        );
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Dense::from_vec(3, 3, (1..=9).map(f64::from).collect());
        let x = [1.0, 0.0, -1.0];
        let y = a.matvec(&x);
        let y2 = a.matmul(&Dense::col_vector(&x));
        assert_eq!(y, y2.into_data());
    }

    #[test]
    fn transpose_involution() {
        let a = Dense::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn outer_product() {
        let m = Dense::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 10.0);
    }

    #[test]
    fn sum_and_mean_conventions() {
        let v = Dense::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(v.sum().get(0, 0), 6.0);
        assert_eq!(v.mean().get(0, 0), 2.0);
        let m = Dense::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.sum().data(), &[4.0, 6.0]); // column sums
        assert_eq!(m.mean().data(), &[2.0, 3.0]); // column means
    }

    #[test]
    fn norms_and_extremes() {
        let v = Dense::col_vector(&[3.0, 4.0]);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.max_all(), 4.0);
        assert_eq!(v.min_all(), 3.0);
    }

    #[test]
    fn trapz_unit_and_xy() {
        // ∫ of y=x over x=0..4 sampled at integers = 8.
        let y = Dense::row_vector(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y.trapz(), 8.0);
        let x = Dense::row_vector(&[0.0, 2.0, 4.0]);
        let y2 = Dense::row_vector(&[0.0, 2.0, 4.0]);
        assert_eq!(Dense::trapz_xy(&x, &y2), 8.0);
    }

    #[test]
    fn circshift_both_directions() {
        let v = Dense::row_vector(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.circshift(1).data(), &[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(v.circshift(-1).data(), &[2.0, 3.0, 4.0, 1.0]);
        assert_eq!(v.circshift(4).data(), v.data());
        assert_eq!(v.circshift(-9).data(), v.circshift(-1).data());
    }

    #[test]
    fn concatenation() {
        let a = Dense::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Dense::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.hcat(&b).data(), &[1.0, 2.0, 3.0, 4.0]);
        let v = a.vcat(&b);
        assert_eq!(v.rows(), 2);
        assert_eq!(v.get(1, 0), 3.0);
    }

    #[test]
    fn submatrix_and_reshape() {
        let m = Dense::from_vec(3, 3, (1..=9).map(f64::from).collect());
        let s = m.submatrix(&[0, 2], &[1]);
        assert_eq!(s.into_data(), vec![2.0, 8.0]);
        // reshape is column-major like MATLAB.
        let m2 = Dense::from_vec(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        let r = m2.reshape(4, 1);
        assert_eq!(r.into_data(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn zip_shape_checked() {
        let a = Dense::zeros(2, 2);
        let b = Dense::ones(2, 2);
        assert_eq!(a.zip(&b, |x, y| x + y), b);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_rejects_mismatch() {
        Dense::zeros(2, 2).zip(&Dense::zeros(2, 3), |a, _| a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatch() {
        Dense::zeros(2, 3).matmul(&Dense::zeros(2, 3));
    }

    #[test]
    fn display_renders_rows() {
        let m = Dense::eye(2);
        let s = m.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("1.000000"));
    }
}
