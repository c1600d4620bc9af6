//! Communication-bearing linear algebra: the run-time library calls
//! the compiler emits for operations that cannot be done as local
//! element-wise loops (paper §3-4: `ML_matrix_multiply`,
//! `ML_matrix_vector_multiply`, transpose, outer products).

use crate::dense::Dense;
use crate::dist::Block;
use crate::matrix::DistMatrix;
use otter_mpi::{Comm, CommError, Event};

/// One rank's block of a matrix defined element by element, `u · vᵀ`
/// or `eye(n)`, ready to be written out strip by strip. A fused
/// element-wise loop (fusion rule F5) fills its lanes from it instead
/// of reading a stored matrix, and [`DistMatrix::outer`] and
/// [`DistMatrix::eye`] fill their results from it, so the two agree bit
/// for bit.
#[derive(Debug)]
pub struct Generated {
    rows: usize,
    cols: usize,
    kind: GenKind,
}

#[derive(Debug)]
enum GenKind {
    /// Local element `k` is `u[k / v.len()] * v[k % v.len()]`: the
    /// block is `u.len()` runs of `v.len()` elements.
    Outer { u: Vec<f64>, v: Vec<f64> },
    /// Local row `i` has its one at column `row0 + i`.
    Eye { row0: usize, local_rows: usize },
}

impl Generated {
    /// `u · vᵀ`, laid out like any `u.len() × v.len()` object, with the
    /// product's flops charged as `ML_outer` charges them. A matrix or
    /// a column is distributed by rows, as `u` is by elements, so each
    /// rank pairs its block of `u` with all of `v`, allgathered. A
    /// `1×n` row is distributed by elements, as `v` is, so each rank
    /// pairs `u`'s one element, allgathered, with its block of `v`.
    pub fn outer(comm: &mut Comm, u: &DistMatrix, v: &DistMatrix) -> Result<Generated, CommError> {
        let (name, t0) = ("ML_outer", comm.clock());
        assert!(u.is_vector() && v.is_vector(), "outer needs vectors");
        let (rows, cols) = (u.len(), v.len());
        let (u, v) = if rows == 1 && cols > 1 {
            (u.gather_all(comm)?.into_data(), v.local().to_vec())
        } else {
            (u.local().to_vec(), v.gather_all(comm)?.into_data())
        };
        comm.compute(u.len() as f64 * v.len() as f64);
        comm.record(Event::Phase { name, t0 });
        Ok(Generated {
            rows,
            cols,
            kind: GenKind::Outer { u, v },
        })
    }

    /// The `n×n` identity (no communication, no charge).
    pub fn eye(comm: &Comm, n: usize) -> Generated {
        let rows = Block::new(n, comm.size());
        Generated {
            rows: n,
            cols: n,
            kind: GenKind::Eye {
                row0: rows.start(comm.rank()),
                local_rows: rows.count(comm.rank()),
            },
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Elements this rank's block holds.
    pub fn local_els(&self) -> usize {
        match &self.kind {
            GenKind::Outer { u, v } => u.len() * v.len(),
            GenKind::Eye { local_rows, .. } => local_rows * self.cols,
        }
    }

    /// This rank's whole block. An outer product's elements are each
    /// written once, the lanes [`Self::fill`] writes, with no zeroing
    /// pass before them.
    pub fn block(&self) -> Vec<f64> {
        let GenKind::Outer { u, v } = &self.kind else {
            let mut local = vec![0.0; self.local_els()];
            self.fill(0, &mut local);
            return local;
        };
        let mut local = Vec::with_capacity(u.len() * v.len());
        u.iter()
            .for_each(|&ui| local.extend(v.iter().map(|&vj| ui * vj)));
        local
    }

    /// Write local elements `base..base + out.len()` to `out`.
    pub fn fill(&self, base: usize, out: &mut [f64]) {
        let w = match &self.kind {
            GenKind::Outer { v, .. } => v.len(),
            GenKind::Eye { .. } => self.cols,
        };
        let mut k = base;
        // One run per local row the span touches.
        for run in chunk_rows(out, base, w) {
            let (i, j) = (k / w, k % w);
            match &self.kind {
                GenKind::Outer { u, v } => {
                    for (x, &vj) in run.iter_mut().zip(&v[j..]) {
                        *x = u[i] * vj;
                    }
                }
                GenKind::Eye { row0, .. } => {
                    run.fill(0.0);
                    if let Some(d) = (row0 + i).checked_sub(j).filter(|d| *d < run.len()) {
                        run[d] = 1.0;
                    }
                }
            }
            k += run.len();
        }
    }
}

/// Split `out`, which holds local elements from `base` on of a block
/// `w` wide, at its row boundaries.
fn chunk_rows(out: &mut [f64], base: usize, w: usize) -> impl Iterator<Item = &mut [f64]> {
    let first = (w - base % w.max(1)).min(out.len());
    let (head, tail) = out.split_at_mut(first);
    std::iter::once(head)
        .filter(|h| !h.is_empty())
        .chain(tail.chunks_mut(w.max(1)))
}

impl DistMatrix {
    /// Distributed matrix multiply, `C = A · B` (`ML_matrix_multiply`).
    ///
    /// Both operands are row-block distributed; the rows of `B` rotate
    /// around a ring while each rank accumulates the partial products
    /// its rows of `A` need. Per step, rank `r` multiplies its
    /// `A(:, k-range)` panel against the visiting `B` block:
    /// `p` steps, each moving `(k/p)·n` elements — the standard 1-D
    /// rotation algorithm a row-distributed 1998 run-time would use.
    pub fn matmul(&self, comm: &mut Comm, other: &DistMatrix) -> Result<DistMatrix, CommError> {
        let (name, t0) = ("ML_matrix_multiply", comm.clock());
        let out = self.matmul_impl(comm, other)?;
        comm.record(Event::Phase { name, t0 });
        Ok(out)
    }

    fn matmul_impl(&self, comm: &mut Comm, other: &DistMatrix) -> Result<DistMatrix, CommError> {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul inner dimensions {}x{} * {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let (m, kk, n) = (self.rows(), self.cols(), other.cols());
        let p = comm.size();
        let rank = comm.rank();
        // Degenerate shapes the compiler normally folds away but the
        // library still honours:
        if m == 1 && kk == 1 {
            // (1×1) · B — scalar scaling.
            let s = self.get_bcast(comm, 0, 0)?;
            return Ok(other.map_scalar(comm, s, otter_machine::OpClass::Mul, |x, v| x * v));
        }
        if kk == 1 && other.cols() == 1 {
            // A(m×1) · B(1×1) — scalar scaling from the right.
            let s = other.get_bcast(comm, 0, 0)?;
            return Ok(self.map_scalar(comm, s, otter_machine::OpClass::Mul, |x, v| x * v));
        }
        if kk == 1 && m > 1 && n > 1 {
            // (m×1) · (1×n) — outer product of a column by a row.
            return DistMatrix::outer(comm, self, other);
        }
        // Treat operands uniformly as row-distributed 2-D objects.
        // (A 1×k row-vector operand distributes over its elements, not
        // rows; gather it and fall back to a local multiply broadcast
        // across ranks — it is small by definition.)
        if self.is_vector() && self.rows() == 1 {
            // (1×k) · (k×n) — row vector times matrix.
            let x = self.gather_all(comm)?.into_data();
            let bb = Block::new(other.dist_extent(), p);
            // partial_j = Σ_{k local} x[k] · B[k, j]
            let mut partial = vec![0.0; n];
            for (li, gk) in bb.range(rank).enumerate() {
                let brow = &other.local()[li * n..(li + 1) * n];
                let xv = x[gk];
                for (acc, &b) in partial.iter_mut().zip(brow) {
                    *acc += xv * b;
                }
            }
            comm.compute(2.0 * bb.count(rank) as f64 * n as f64);
            let full = comm.allreduce(&partial, otter_mpi::ReduceOp::Sum)?;
            return Ok(DistMatrix::from_replicated(comm, &Dense::row_vector(&full)));
        }
        if other.is_vector() && other.cols() == 1 {
            // (m×k) · (k×1) is a matvec.
            return self.matvec(comm, other);
        }

        let a_rows = Block::new(m, p);
        let b_rows = Block::new(kk, p);
        let my_rows = a_rows.count(rank);
        let mut c_local = vec![0.0; my_rows * n];
        let mut cur: Vec<f64> = other.local().to_vec();
        let mut cur_owner = rank;
        for step in 0..p {
            // Multiply my A panel for the k-range owned by cur_owner —
            // the branchless tiled kernel, accumulating the visiting
            // block's contributions in ascending k.
            let krange = b_rows.range(cur_owner);
            crate::kernels::matmul_accumulate(
                &mut c_local,
                my_rows,
                n,
                krange.len(),
                self.local(),
                kk,
                krange.start,
                &cur,
            );
            comm.compute(2.0 * my_rows as f64 * krange.len() as f64 * n as f64);
            if step + 1 < p {
                // Rotate: pass my current B block left, take from right.
                let left = (rank + p - 1) % p;
                let right = (rank + 1) % p;
                comm.send_concurrent(left, &cur, p)?;
                cur = comm.recv(right)?;
                cur_owner = (cur_owner + 1) % p;
            }
        }
        Ok(DistMatrix::from_block(comm, m, n, c_local))
    }

    /// Distributed matrix–vector product
    /// (`ML_matrix_vector_multiply`): `y = A · x` with `x` block
    /// distributed. `x` is allgathered (it is a factor `n` smaller than
    /// `A`), then each rank multiplies its row panel; the result is
    /// already correctly distributed because `A`'s row blocks coincide
    /// with `y`'s element blocks.
    pub fn matvec(&self, comm: &mut Comm, x: &DistMatrix) -> Result<DistMatrix, CommError> {
        let (name, t0) = ("ML_matrix_vector_multiply", comm.clock());
        assert!(x.is_vector(), "matvec needs a vector");
        assert_eq!(
            self.cols(),
            x.len(),
            "matvec dimensions {}x{} · {}",
            self.rows(),
            self.cols(),
            x.len()
        );
        let x_full = x.gather_all(comm)?.into_data();
        let w = self.cols();
        let mut local = vec![0.0; self.local().len() / w.max(1)];
        crate::kernels::matvec_into(&mut local, self.local(), w, &x_full);
        comm.compute(2.0 * local.len() as f64 * w as f64);
        comm.record(Event::Phase { name, t0 });
        Ok(DistMatrix::from_block(comm, self.rows(), 1, local))
    }

    /// Outer product of two distributed vectors: `u · vᵀ`, laid out
    /// like any object of its shape: [`Generated::outer`], filled.
    pub fn outer(comm: &mut Comm, u: &DistMatrix, v: &DistMatrix) -> Result<DistMatrix, CommError> {
        let g = Generated::outer(comm, u, v)?;
        Ok(DistMatrix::from_block(comm, g.rows, g.cols, g.block()))
    }

    /// Distributed transpose: an all-to-all where rank `r` ships the
    /// intersection of its row panel with every destination's column
    /// panel.
    pub fn transpose(&self, comm: &mut Comm) -> Result<DistMatrix, CommError> {
        let (name, t0) = ("ML_transpose", comm.clock());
        let out = self.transpose_impl(comm)?;
        comm.record(Event::Phase { name, t0 });
        Ok(out)
    }

    fn transpose_impl(&self, comm: &mut Comm) -> Result<DistMatrix, CommError> {
        let (m, n) = (self.rows(), self.cols());
        if self.is_vector() {
            // A vector transpose only flips orientation; both
            // orientations share the same element distribution.
            return Ok(DistMatrix::from_block(comm, n, m, self.local().to_vec()));
        }
        let p = comm.size();
        let rank = comm.rank();
        let src_rows = Block::new(m, p); // my rows of A
        let dst_rows = Block::new(n, p); // my rows of Aᵀ = columns of A
                                         // Ship phase: to each rank d, send A(my rows, d's columns),
                                         // transposed so the receiver can splice rows directly.
        for d in 0..p {
            if d == rank {
                continue;
            }
            let cols = dst_rows.range(d);
            let mut payload = Vec::with_capacity(src_rows.count(rank) * cols.len());
            for j in cols.clone() {
                for li in 0..src_rows.count(rank) {
                    payload.push(self.local()[li * n + j]);
                }
            }
            comm.send_concurrent(d, &payload, p - 1)?;
        }
        // Assemble phase: my Aᵀ rows are A's columns dst_rows.range(rank);
        // each source rank contributes the element block for its rows.
        let my_cols = dst_rows.range(rank);
        let mut local = vec![0.0; my_cols.len() * m];
        for s in 0..p {
            let their_rows = src_rows.range(s);
            let chunk: Vec<f64> = if s == rank {
                let mut v = Vec::with_capacity(their_rows.len() * my_cols.len());
                for j in my_cols.clone() {
                    for li in 0..their_rows.len() {
                        v.push(self.local()[li * n + j]);
                    }
                }
                v
            } else {
                comm.recv(s)?
            };
            // chunk is (my_cols.len() × their_rows.len()) row-major in
            // transposed orientation already.
            for (cj, _) in my_cols.clone().enumerate() {
                for (ri, gr) in their_rows.clone().enumerate() {
                    local[cj * m + gr] = chunk[cj * their_rows.len() + ri];
                }
            }
        }
        comm.compute(local.len() as f64);
        Ok(DistMatrix::from_block(comm, n, m, local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_det::DetRng;
    use otter_machine::meiko_cs2;
    use otter_mpi::run_spmd;

    fn rand_dense(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut rng = DetRng::seed_from_u64(seed);
        Dense::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    fn assert_close(a: &Dense, b: &Dense, tol: f64) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_dense_oracle() {
        for p in [1usize, 2, 3, 4, 8] {
            for (m, k, n) in [(6, 6, 6), (5, 7, 3), (9, 2, 4), (1, 1, 1), (16, 16, 16)] {
                let a = rand_dense(m, k, 1);
                let b = rand_dense(k, n, 2);
                // Skip vector-shaped operands here; covered separately.
                if m == 1 || n == 1 || k == 1 {
                    continue;
                }
                let oracle = a.matmul(&b);
                let (aa, bb) = (a.clone(), b.clone());
                let res = run_spmd(&meiko_cs2(), p, move |c| {
                    let da = DistMatrix::from_replicated(c, &aa);
                    let db = DistMatrix::from_replicated(c, &bb);
                    da.matmul(c, &db)?.gather_all(c)
                });
                for r in &res {
                    assert_close(&r.value, &oracle, 1e-12);
                }
            }
        }
    }

    #[test]
    fn matmul_row_vector_times_matrix() {
        let a = rand_dense(1, 6, 3);
        let b = rand_dense(6, 4, 4);
        let oracle = a.matmul(&b);
        let res = run_spmd(&meiko_cs2(), 3, move |c| {
            let da = DistMatrix::from_replicated(c, &a);
            let db = DistMatrix::from_replicated(c, &b);
            da.matmul(c, &db)?.gather_all(c)
        });
        assert_close(&res[0].value, &oracle, 1e-12);
    }

    #[test]
    fn matmul_matrix_times_column_vector() {
        let a = rand_dense(5, 6, 5);
        let x = rand_dense(6, 1, 6);
        let oracle = a.matmul(&x);
        let res = run_spmd(&meiko_cs2(), 4, move |c| {
            let da = DistMatrix::from_replicated(c, &a);
            let dx = DistMatrix::from_replicated(c, &x);
            da.matmul(c, &dx)?.gather_all(c)
        });
        assert_close(&res[0].value, &oracle, 1e-12);
    }

    #[test]
    fn matvec_matches_dense() {
        for p in [1usize, 2, 5] {
            let a = rand_dense(8, 8, 7);
            let x = rand_dense(8, 1, 8);
            let oracle = Dense::col_vector(&a.matvec(x.data()));
            let (aa, xx) = (a, x);
            let res = run_spmd(&meiko_cs2(), p, move |c| {
                let da = DistMatrix::from_replicated(c, &aa);
                let dx = DistMatrix::from_replicated(c, &xx);
                da.matvec(c, &dx)?.gather_all(c)
            });
            assert_close(&res[0].value, &oracle, 1e-12);
        }
    }

    #[test]
    fn outer_matches_dense() {
        let u = rand_dense(5, 1, 9);
        let v = rand_dense(1, 7, 10);
        let oracle = Dense::outer(u.data(), v.data());
        let res = run_spmd(&meiko_cs2(), 3, move |c| {
            let du = DistMatrix::from_replicated(c, &u);
            let dv = DistMatrix::from_replicated(c, &v);
            DistMatrix::outer(c, &du, &dv)?.gather_all(c)
        });
        assert_close(&res[0].value, &oracle, 1e-12);
    }

    #[test]
    fn generated_spans_match_the_stored_matrix() {
        // A fused loop asks for spans that start and end mid-row; each
        // must equal the same span of `eye` and `outer`'s stored blocks.
        for p in [1usize, 3, 4] {
            for n in [0usize, 1, 7, 9] {
                let (u, v) = (rand_dense(n, 1, 3), rand_dense(1, n, 4));
                let res = run_spmd(&meiko_cs2(), p, move |c| {
                    let (du, dv) = (
                        DistMatrix::from_replicated(c, &u),
                        DistMatrix::from_replicated(c, &v),
                    );
                    let stored = [DistMatrix::eye(c, n), DistMatrix::outer(c, &du, &dv)?];
                    let generated = [Generated::eye(c, n), Generated::outer(c, &du, &dv)?];
                    for (m, g) in stored.iter().zip(&generated) {
                        assert_eq!((g.rows(), g.cols(), g.local_els()), (n, n, m.local_els()));
                        let mut spans = vec![0.0; m.local_els()];
                        for (k, span) in spans.chunks_mut(5).enumerate() {
                            g.fill(5 * k, span);
                        }
                        assert_eq!(spans, m.local(), "n={n}");
                    }
                    Ok(())
                });
                assert_eq!(res.len(), p);
            }
        }
    }

    #[test]
    fn transpose_matches_dense() {
        for p in [1usize, 2, 3, 4] {
            for (m, n) in [(6, 6), (5, 3), (2, 9)] {
                let a = rand_dense(m, n, 11);
                let oracle = a.transpose();
                let aa = a.clone();
                let res = run_spmd(&meiko_cs2(), p, move |c| {
                    let da = DistMatrix::from_replicated(c, &aa);
                    da.transpose(c)?.gather_all(c)
                });
                for r in &res {
                    assert_close(&r.value, &oracle, 0.0);
                }
            }
        }
    }

    #[test]
    fn transpose_vector_flips_orientation() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            let v = DistMatrix::range(c, 1.0, 1.0, 5.0); // 1×5
            let t = v.transpose(c)?;
            Ok((t.rows(), t.cols(), t.gather_all(c)?.into_data()))
        });
        assert_eq!(res[0].value, (5, 1, vec![1.0, 2.0, 3.0, 4.0, 5.0]));
    }

    #[test]
    fn transpose_involution_distributed() {
        let a = rand_dense(7, 4, 12);
        let aa = a.clone();
        let res = run_spmd(&meiko_cs2(), 4, move |c| {
            let da = DistMatrix::from_replicated(c, &aa);
            da.transpose(c)?.transpose(c)?.gather_all(c)
        });
        assert_close(&res[0].value, &a, 0.0);
    }

    #[test]
    fn matmul_associates_with_identity() {
        let a = rand_dense(6, 6, 13);
        let aa = a.clone();
        let res = run_spmd(&meiko_cs2(), 3, move |c| {
            let da = DistMatrix::from_replicated(c, &aa);
            let i = DistMatrix::eye(c, 6);
            da.matmul(c, &i)?.gather_all(c)
        });
        assert_close(&res[0].value, &a, 1e-12);
    }

    #[test]
    fn distributed_matmul_propagates_nan_through_zero_entries() {
        // Same regression as the Dense kernel, through the ring
        // algorithm: a 0.0 in A must still multiply a NaN in the
        // visiting B block.
        for p in [1usize, 2, 3] {
            let mut a = Dense::eye(6);
            a.set(0, 5, 0.0); // explicit zero against B's NaN row
            let mut b = Dense::ones(6, 6);
            b.set(5, 0, f64::NAN);
            let res = run_spmd(&meiko_cs2(), p, move |c| {
                let da = DistMatrix::from_replicated(c, &a);
                let db = DistMatrix::from_replicated(c, &b);
                da.matmul(c, &db)?.gather_all(c)
            });
            for r in &res {
                assert!(
                    r.value.get(0, 0).is_nan(),
                    "p={p}: 0·NaN dropped: {}",
                    r.value.get(0, 0)
                );
                // Rows without a NaN factor stay finite.
                assert_eq!(r.value.get(1, 1), 1.0, "p={p}");
            }
        }
    }

    #[test]
    fn matmul_bits_stable_across_tile_sizes() {
        // The ring algorithm's per-rank k order is fixed by the
        // rotation schedule; within a visit the kernel accumulates in
        // ascending k for every tile size, so the distributed product
        // is byte-identical across tiles.
        let a = rand_dense(12, 12, 21);
        let b = rand_dense(12, 12, 22);
        let mut reference: Option<Vec<u64>> = None;
        for tile in [1usize, 5, 64] {
            let (aa, bb) = (a.clone(), b.clone());
            let res = run_spmd(&meiko_cs2(), 4, move |c| {
                crate::kernels::configure(tile, 1);
                let da = DistMatrix::from_replicated(c, &aa);
                let db = DistMatrix::from_replicated(c, &bb);
                let out = da.matmul(c, &db)?.gather_all(c)?;
                crate::kernels::configure(crate::kernels::DEFAULT_TILE, 1);
                Ok(out.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            });
            match &reference {
                None => reference = Some(res[0].value.clone()),
                Some(bits) => {
                    assert_eq!(bits, &res[0].value, "tile {tile} changed product bits")
                }
            }
        }
    }

    #[test]
    fn matmul_charges_compute_time() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            let a = DistMatrix::ones(c, 32, 32);
            let b = DistMatrix::ones(c, 32, 32);
            let before = c.stats().compute_time;
            let _ = a.matmul(c, &b)?;
            Ok(c.stats().compute_time - before)
        });
        // 2·m·k·n/p flops per rank at 25 Mflop/s.
        let expect = 2.0 * 32.0 * 32.0 * 32.0 / 2.0 / 25e6;
        for r in &res {
            assert!(
                r.value >= expect * 0.9,
                "charged {} expected ≥ {expect}",
                r.value
            );
        }
    }
}
