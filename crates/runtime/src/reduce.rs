//! Distributed reductions: the seven MATLAB folds, dot products, norms,
//! and trapezoidal integration — the `O(n)` building blocks of the
//! paper's conjugate-gradient, ocean-engineering, and n-body scripts.
//!
//! Each is a local fold plus an `allreduce`, so every rank ends with
//! the replicated scalar the compiler's "scalar variables are
//! replicated" assumption requires.

use crate::dense::Dense;
use crate::matrix::DistMatrix;
use otter_machine::OpClass;
use otter_mpi::{Comm, CommError, ReduceOp};

/// One of the seven MATLAB folds, the one table every reduction goes
/// through: whole-object ([`DistMatrix::reduce_all`]), column
/// ([`DistMatrix::col_reduce`]) and the executor's fused forms of both.
/// A fold runs in ascending element (or row) order, and one allreduce
/// combines the ranks' partials; `mean` is the `sum` divided by the
/// count.
///
/// The zero rule is stated here and nowhere else: a whole object or a
/// vector folds from [`ColOp::identity`], so `sum`/`mean` start from
/// −0.0 as `Iterator::sum` (and so `Dense::sum_all`) does, and a sum of
/// −0.0 stays −0.0; a matrix's per-column accumulators start from
/// [`ColOp::column_start`], +0.0 for `sum`/`mean` as `Dense::sum`'s
/// column loop does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColOp {
    Sum,
    Mean,
    Prod,
    Max,
    Min,
    Any,
    All,
}

/// `$body` with `$step` bound to `$op`'s fold step, so each operation
/// gets its own loop with the step inlined.
macro_rules! with_step {
    ($op:expr, $step:ident => $body:expr) => {
        match $op {
            ColOp::Sum | ColOp::Mean => {
                let $step = |acc: f64, x: f64| acc + x;
                $body
            }
            ColOp::Prod => {
                let $step = |acc: f64, x: f64| acc * x;
                $body
            }
            ColOp::Max => {
                let $step = f64::max;
                $body
            }
            ColOp::Min => {
                let $step = f64::min;
                $body
            }
            ColOp::Any => {
                let $step = |acc: f64, x: f64| f64::from(acc != 0.0 || x != 0.0);
                $body
            }
            ColOp::All => {
                let $step = |acc: f64, x: f64| f64::from(acc != 0.0 && x != 0.0);
                $body
            }
        }
    };
}

impl ColOp {
    /// Where a whole object's or a vector's fold starts: the fold's
    /// identity, −0.0 for `sum`/`mean`.
    pub fn identity(self) -> f64 {
        match self {
            ColOp::Sum | ColOp::Mean => -0.0,
            ColOp::Any => 0.0,
            ColOp::Prod | ColOp::All => 1.0,
            ColOp::Max => f64::NEG_INFINITY,
            ColOp::Min => f64::INFINITY,
        }
    }

    /// Where each of a matrix's per-column accumulators starts: +0.0
    /// for `sum`/`mean`, otherwise [`ColOp::identity`].
    pub fn column_start(self) -> f64 {
        match self {
            ColOp::Sum | ColOp::Mean => 0.0,
            _ => self.identity(),
        }
    }

    /// The allreduce that combines the ranks' partials.
    fn comm_op(self) -> ReduceOp {
        match self {
            ColOp::Sum | ColOp::Mean => ReduceOp::Sum,
            ColOp::Prod => ReduceOp::Prod,
            ColOp::Max | ColOp::Any => ReduceOp::Max,
            ColOp::Min | ColOp::All => ReduceOp::Min,
        }
    }

    /// Fold `xs` into one accumulator, in order (a vector's reduction).
    pub fn fold(self, acc: f64, xs: &[f64]) -> f64 {
        with_step!(self, step => xs.iter().fold(acc, |acc, &x| step(acc, x)))
    }

    /// Fold one row into the per-column accumulators:
    /// `acc[c] ← step(acc[c], row[c])`.
    pub fn fold_row(self, acc: &mut [f64], row: &[f64]) {
        with_step!(self, step => {
            for (a, &x) in acc.iter_mut().zip(row) {
                *a = step(*a, x);
            }
        })
    }
}

impl DistMatrix {
    /// Dot product of two aligned distributed objects viewed as flat
    /// vectors.
    pub fn dot(&self, comm: &mut Comm, other: &DistMatrix) -> Result<f64, CommError> {
        assert!(
            self.aligned_with(other)
                || (self.is_vector() && other.is_vector() && self.len() == other.len()),
            "dot on unaligned operands"
        );
        let local: f64 = self
            .local()
            .iter()
            .zip(other.local())
            .map(|(&a, &b)| a * b)
            .sum();
        comm.compute(2.0 * self.local_els() as f64);
        comm.allreduce_scalar(local, ReduceOp::Sum)
    }

    /// Fold `op` over every element (MATLAB `sum(v)`, `mean(v)`, ... of
    /// a vector, or of a whole object), replicated everywhere.
    pub fn reduce_all(&self, comm: &mut Comm, op: ColOp) -> Result<f64, CommError> {
        let partial = op.fold(op.identity(), self.local());
        let shape = (self.rows(), self.cols());
        DistMatrix::reduce_all_partial(comm, op, partial, shape, self.local_els())
    }

    /// Finish whole-object fold `op` of a `rows×cols` object of which
    /// this rank holds `local_els` elements, from this rank's partial,
    /// folded from [`ColOp::identity`] in ascending order: charge the
    /// local fold, combine the ranks' partials in one allreduce, and
    /// divide by the count for `mean`.
    pub fn reduce_all_partial(
        comm: &mut Comm,
        op: ColOp,
        partial: f64,
        (rows, cols): (usize, usize),
        local_els: usize,
    ) -> Result<f64, CommError> {
        comm.compute(local_els as f64);
        let s = comm.allreduce_scalar(partial, op.comm_op())?;
        Ok(if op == ColOp::Mean {
            s / (rows * cols) as f64
        } else {
            s
        })
    }

    /// MATLAB column reduction `op` (`sum(A)`, `mean(A)`, ...): fold
    /// the local rows, then combine across ranks into a replicated row
    /// vector. Vectors fold whole, as [`DistMatrix::reduce_all`] does,
    /// into a replicated 1×1.
    pub fn col_reduce(&self, comm: &mut Comm, op: ColOp) -> Result<DistMatrix, CommError> {
        let partial = if self.is_vector() {
            vec![op.fold(op.identity(), self.local())]
        } else {
            let mut partial = vec![op.column_start(); self.cols()];
            for row in self.local().chunks_exact(self.cols().max(1)) {
                op.fold_row(&mut partial, row);
            }
            partial
        };
        let shape = (self.rows(), self.cols());
        DistMatrix::col_reduce_partials(comm, op, &partial, shape, self.local_els())
    }

    /// Finish column reduction `op` of a `rows×cols` object of which
    /// this rank holds `local_els` elements, from this rank's partials —
    /// one per column for a matrix, folded from [`ColOp::column_start`]
    /// in ascending row order, or one for a vector, folded from
    /// [`ColOp::identity`]: charge the local fold, combine the ranks'
    /// partials in one allreduce, and divide by the count for `mean`.
    pub fn col_reduce_partials(
        comm: &mut Comm,
        op: ColOp,
        partial: &[f64],
        (rows, cols): (usize, usize),
        local_els: usize,
    ) -> Result<DistMatrix, CommError> {
        comm.compute(local_els as f64);
        let full = comm.allreduce(partial, op.comm_op())?;
        let reduced = DistMatrix::from_replicated(comm, &Dense::row_vector(&full));
        Ok(if op == ColOp::Mean {
            let count = if rows == 1 || cols == 1 {
                rows * cols
            } else {
                rows
            };
            reduced.map_scalar(comm, count as f64, OpClass::Div, |x, d| x / d)
        } else {
            reduced
        })
    }

    /// Euclidean norm of the object viewed as a flat vector.
    pub fn norm2(&self, comm: &mut Comm) -> Result<f64, CommError> {
        let local: f64 = self.local().iter().map(|&x| x * x).sum();
        comm.compute(2.0 * self.local_els() as f64 + 8.0);
        Ok(comm.allreduce_scalar(local, ReduceOp::Sum)?.sqrt())
    }

    /// Unit-spacing trapezoidal integration of a distributed vector
    /// (MATLAB `trapz(y)`). Interior block boundaries need one
    /// boundary element from the right neighbour.
    pub fn trapz(&self, comm: &mut Comm) -> Result<f64, CommError> {
        assert!(self.is_vector(), "trapz expects a vector");
        let n = self.len();
        if n < 2 {
            return Ok(0.0);
        }
        let halo = self.halo_right(comm)?;
        let local = self.local();
        let mut s = 0.0;
        for w in local.windows(2) {
            s += 0.5 * (w[0] + w[1]);
        }
        if let (Some(next), Some(&last)) = (halo, local.last()) {
            s += 0.5 * (last + next);
        }
        comm.compute(2.0 * self.local_els() as f64);
        comm.allreduce_scalar(s, ReduceOp::Sum)
    }

    /// Trapezoidal integration of `y` against abscissae `x`
    /// (MATLAB `trapz(x, y)`; the ocean script's `trapz2`).
    pub fn trapz_xy(comm: &mut Comm, x: &DistMatrix, y: &DistMatrix) -> Result<f64, CommError> {
        assert!(x.is_vector() && y.is_vector(), "trapz2 expects vectors");
        assert_eq!(x.len(), y.len(), "trapz2 length mismatch");
        let n = x.len();
        if n < 2 {
            return Ok(0.0);
        }
        let hx = x.halo_right(comm)?;
        let hy = y.halo_right(comm)?;
        let (xl, yl) = (x.local(), y.local());
        let mut s = 0.0;
        for i in 1..xl.len() {
            s += 0.5 * (xl[i] - xl[i - 1]) * (yl[i] + yl[i - 1]);
        }
        if let (Some(xn), Some(yn)) = (hx, hy) {
            if let (Some(&xe), Some(&ye)) = (xl.last(), yl.last()) {
                s += 0.5 * (xn - xe) * (yn + ye);
            }
        }
        comm.compute(4.0 * xl.len() as f64);
        comm.allreduce_scalar(s, ReduceOp::Sum)
    }

    /// Fetch the first element of the right neighbour's block (the
    /// halo element stencils and integrals need). Returns `None` on
    /// the rank owning the global last element and on empty blocks.
    ///
    /// Deterministic schedule: every non-empty rank except the first
    /// sends its head element left; every non-empty rank except the
    /// last receives from the right-ward non-empty rank.
    fn halo_right(&self, comm: &mut Comm) -> Result<Option<f64>, CommError> {
        let b = self.block();
        let rank = comm.rank();

        // Ranks with empty blocks neither send nor receive.
        let my = b.range(rank);
        // Send my head to the owner of my.start - 1 (if any and not me).
        if !my.is_empty() && my.start > 0 {
            let left_owner = b.owner(my.start - 1);
            if left_owner != rank {
                let head = self.local()[0];
                comm.send_scalar(left_owner, head)?;
            }
        }
        // Receive from the owner of my.end (if any and not me).
        if !my.is_empty() && my.end < b.n {
            let right_owner = b.owner(my.end);
            if right_owner != rank {
                return Ok(Some(comm.recv_scalar(right_owner)?));
            }
            // Owner of my.end is me — cannot happen with contiguous
            // blocks, but keep the arm total.
            return Ok(Some(self.local()[my.end - my.start]));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_det::DetRng;
    use otter_machine::meiko_cs2;
    use otter_mpi::run_spmd;

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    #[test]
    fn dot_matches_dense() {
        for p in [1usize, 2, 3, 7] {
            let a = rand_vec(23, 1);
            let b = rand_vec(23, 2);
            let oracle: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let (da, db) = (a, b);
            let res = run_spmd(&meiko_cs2(), p, move |c| {
                let x = DistMatrix::from_replicated(c, &Dense::col_vector(&da));
                let y = DistMatrix::from_replicated(c, &Dense::col_vector(&db));
                x.dot(c, &y)
            });
            for r in &res {
                assert!((r.value - oracle).abs() < 1e-12, "p={p}");
            }
        }
    }

    #[test]
    fn sums_and_means_replicated_everywhere() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            let v = DistMatrix::range(c, 1.0, 1.0, 100.0);
            Ok((v.reduce_all(c, ColOp::Sum)?, v.reduce_all(c, ColOp::Mean)?))
        });
        for r in &res {
            assert_eq!(r.value.0, 5050.0);
            assert_eq!(r.value.1, 50.5);
        }
    }

    #[test]
    fn matrix_sum_gives_column_sums() {
        let res = run_spmd(&meiko_cs2(), 3, |c| {
            let d = Dense::from_vec(4, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
            let m = DistMatrix::from_replicated(c, &d);
            m.col_reduce(c, ColOp::Sum)?.gather_all(c)
        });
        assert_eq!(res[0].value.data(), &[16.0, 20.0]);
    }

    #[test]
    fn matrix_mean_divides_by_rows() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            let d = Dense::from_vec(2, 2, vec![1.0, 10.0, 3.0, 30.0]);
            let m = DistMatrix::from_replicated(c, &d);
            m.col_reduce(c, ColOp::Mean)?.gather_all(c)
        });
        assert_eq!(res[0].value.data(), &[2.0, 20.0]);
    }

    #[test]
    fn sums_start_where_colop_says_and_empty_operands_answer() {
        let res = run_spmd(&meiko_cs2(), 3, |c| {
            let v = DistMatrix::from_replicated(c, &Dense::col_vector(&[-0.0; 5]));
            let m = DistMatrix::from_replicated(c, &Dense::from_vec(3, 2, vec![-0.0; 6]));
            let e = DistMatrix::from_replicated(c, &Dense::from_vec(0, 1, Vec::new()));
            let mut whole = vec![v.reduce_all(c, ColOp::Sum)?];
            for op in [ColOp::Mean, ColOp::Any, ColOp::All] {
                whole.push(e.reduce_all(c, op)?);
                whole.push(e.col_reduce(c, op)?.gather_all(c)?.get(0, 0));
            }
            let vcol = v.col_reduce(c, ColOp::Sum)?.gather_all(c)?;
            let mcol = m.col_reduce(c, ColOp::Sum)?.gather_all(c)?;
            // Bits, with every NaN as one canonical NaN.
            let bits = |xs: &[f64]| {
                xs.iter()
                    .map(|&x| if x.is_nan() { f64::NAN } else { x }.to_bits())
                    .collect::<Vec<_>>()
            };
            Ok((bits(&whole), bits(vcol.data()), bits(mcol.data())))
        });
        let (nz, z) = ((-0.0f64).to_bits(), 0.0f64.to_bits());
        let nan = f64::NAN.to_bits();
        for r in &res {
            // A vector's sum of −0.0 stays −0.0; a matrix column's
            // starts, and so ends, at +0.0.
            assert_eq!(r.value.1, [nz]);
            assert_eq!(r.value.2, [z, z]);
            // mean of empty is NaN, any/all of empty are 0 and 1.
            let one = 1.0f64.to_bits();
            assert_eq!(r.value.0, [nz, nan, nan, z, z, one, one]);
        }
    }

    #[test]
    fn extremes() {
        let res = run_spmd(&meiko_cs2(), 5, |c| {
            let v = DistMatrix::from_replicated(
                c,
                &Dense::row_vector(&[3.0, -7.0, 2.0, 9.0, 0.0, -1.0]),
            );
            Ok((v.reduce_all(c, ColOp::Max)?, v.reduce_all(c, ColOp::Min)?))
        });
        for r in &res {
            assert_eq!(r.value, (9.0, -7.0));
        }
    }

    #[test]
    fn norm_matches_dense() {
        let v = rand_vec(50, 3);
        let oracle = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let res = run_spmd(&meiko_cs2(), 4, move |c| {
            let x = DistMatrix::from_replicated(c, &Dense::row_vector(&v));
            x.norm2(c)
        });
        for r in &res {
            assert!((r.value - oracle).abs() < 1e-12);
        }
    }

    #[test]
    fn trapz_matches_dense_for_all_p() {
        let y = rand_vec(31, 4);
        let oracle = Dense::row_vector(&y).trapz();
        for p in [1usize, 2, 3, 8, 16] {
            let yy = y.clone();
            let res = run_spmd(&meiko_cs2(), p, move |c| {
                let v = DistMatrix::from_replicated(c, &Dense::row_vector(&yy));
                v.trapz(c)
            });
            for r in &res {
                assert!((r.value - oracle).abs() < 1e-12, "p={p}");
            }
        }
    }

    #[test]
    fn trapz_xy_matches_dense() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64).powf(1.1)).collect();
        let y = rand_vec(20, 5);
        let oracle = Dense::trapz_xy(&Dense::row_vector(&x), &Dense::row_vector(&y));
        for p in [1usize, 3, 6] {
            let (xx, yy) = (x.clone(), y.clone());
            let res = run_spmd(&meiko_cs2(), p, move |c| {
                let dx = DistMatrix::from_replicated(c, &Dense::row_vector(&xx));
                let dy = DistMatrix::from_replicated(c, &Dense::row_vector(&yy));
                DistMatrix::trapz_xy(c, &dx, &dy)
            });
            for r in &res {
                assert!((r.value - oracle).abs() < 1e-12, "p={p}");
            }
        }
    }

    #[test]
    fn trapz_short_vectors() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            let one = DistMatrix::from_replicated(c, &Dense::row_vector(&[5.0]));
            let two = DistMatrix::from_replicated(c, &Dense::row_vector(&[1.0, 3.0]));
            Ok((one.trapz(c)?, two.trapz(c)?))
        });
        for r in &res {
            assert_eq!(r.value, (0.0, 2.0));
        }
    }

    #[test]
    fn reductions_agree_across_ranks_bitwise() {
        // Paper assumption 1: replicated scalars must be identical on
        // every rank. Allreduce guarantees it structurally; verify.
        let v = rand_vec(97, 6);
        let res = run_spmd(&meiko_cs2(), 8, move |c| {
            let x = DistMatrix::from_replicated(c, &Dense::row_vector(&v));
            Ok(x.reduce_all(c, ColOp::Sum)?.to_bits())
        });
        let first = res[0].value;
        assert!(res.iter().all(|r| r.value == first));
    }
}
