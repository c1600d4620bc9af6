//! Element-wise and structural operations on distributed matrices.
//!
//! Element-wise operations need no communication because identically
//! shaped objects are identically distributed (paper §3, assumption 2);
//! the compiler emits them as per-element loops over `local()`. The
//! helpers here are those loops, with modeled compute charged to the
//! caller's virtual clock.
//!
//! Structural operations (shifts, row/column extraction, slicing) do
//! communicate, and encapsulate their message schedules the way the
//! paper's run-time library does.

use crate::dense::Dense;
use crate::dist::Block;
use crate::matrix::{DistMatrix, Gathered};
use otter_machine::OpClass;
use otter_mpi::{Comm, CommError};

impl DistMatrix {
    /// Element-wise combine with a replicated scalar on the right;
    /// charges `len · weight` flop units.
    pub fn map_scalar(
        &self,
        comm: &mut Comm,
        s: f64,
        class: OpClass,
        f: impl Fn(f64, f64) -> f64,
    ) -> DistMatrix {
        let local: Vec<f64> = self.local().iter().map(|&x| f(x, s)).collect();
        comm.compute(local.len() as f64 * class.weight());
        DistMatrix::from_block(comm, self.rows(), self.cols(), local)
    }

    // ---- vector shifts ---------------------------------------------------

    /// Circular shift of a distributed vector by `k` (positive =
    /// right), the ocean script's primitive. Each rank exchanges only
    /// the segments that cross block boundaries — O(|k| + n/p) data,
    /// not O(n).
    pub fn circshift(&self, comm: &mut Comm, k: i64) -> Result<DistMatrix, CommError> {
        assert!(self.is_vector(), "circshift expects a vector");
        let n = self.len() as i64;
        if n == 0 {
            return Ok(self.clone());
        }
        let k = ((k % n) + n) % n; // normalized right-shift
        let b = self.block();
        let rank = comm.rank();

        // Destination of my local element with global index g is
        // (g + k) mod n. My contiguous block maps to one or two
        // contiguous destination segments (it can wrap).
        // Send phase: walk my block, split by destination owner.
        let my = b.range(rank);
        let mut segments: Vec<(usize, usize, usize)> = Vec::new(); // (dest_rank, local_lo, local_hi)
        let mut lo = my.start;
        while lo < my.end {
            let dest_g = (lo as i64 + k) as usize % n as usize;
            let owner = b.owner(dest_g);
            // How far can this segment run before it changes owner or
            // wraps?
            let owner_room = b.end(owner) - b.to_local(dest_g) - b.start(owner);
            let wrap_room = n as usize - dest_g;
            let run = owner_room.min(wrap_room).min(my.end - lo);
            segments.push((owner, lo - my.start, lo - my.start + run));
            lo += run;
        }
        // Buffered sends first (deadlock-free), then receives.
        for &(dest, llo, lhi) in &segments {
            if dest != rank {
                let payload = self.local()[llo..lhi].to_vec();
                comm.send(dest, &payload)?;
            }
        }
        // Receive phase: my output element with global index g comes
        // from (g - k) mod n; walk my block splitting by source owner,
        // in the same deterministic order the senders used.
        let mut out = vec![0.0; self.local_els()];
        let mut expected: Vec<(usize, usize, usize)> = Vec::new();
        let mut lo = my.start;
        while lo < my.end {
            let src_g = ((lo as i64 - k % n) + n) as usize % n as usize;
            let owner = b.owner(src_g);
            let owner_room = b.end(owner) - b.to_local(src_g) - b.start(owner);
            let wrap_room = n as usize - src_g;
            let run = owner_room.min(wrap_room).min(my.end - lo);
            expected.push((owner, lo - my.start, lo - my.start + run));
            lo += run;
        }
        // Local segments can be copied directly; remote ones arrive in
        // sender order. Because each (src, dst) pair exchanges its
        // segments in increasing-global-index order on both sides, a
        // FIFO per-pair channel delivers them in the order we expect.
        for &(src, llo, lhi) in &expected {
            if src == rank {
                // Find where in my local data this segment starts.
                let src_g = ((b.start(rank) + llo) as i64 - k % n + n) as usize % n as usize;
                let s0 = b.to_local(src_g);
                out[llo..lhi].copy_from_slice(&self.local()[s0..s0 + (lhi - llo)]);
            } else {
                let data = comm.recv(src)?;
                assert_eq!(data.len(), lhi - llo, "shift segment length mismatch");
                out[llo..lhi].copy_from_slice(&data);
            }
        }
        comm.compute(self.local_els() as f64); // copy traffic
        Ok(DistMatrix::from_block(comm, self.rows(), self.cols(), out))
    }

    // ---- slicing -----------------------------------------------------------

    /// Extract row `i` of a matrix as a distributed row vector
    /// (`a(i, :)`). The owner holds the whole row (row-contiguous
    /// distribution), so it broadcasts and every rank keeps its block.
    pub fn extract_row(&self, comm: &mut Comm, i: usize) -> Result<DistMatrix, CommError> {
        assert!(!self.is_vector(), "extract_row on a vector");
        assert!(i < self.rows(), "row {i} out of {}", self.rows());
        let owner = self.owner_rank(i, 0);
        let row = if comm.rank() == owner {
            let b = self.block();
            let li = i - b.start(owner);
            self.local()[li * self.cols()..(li + 1) * self.cols()].to_vec()
        } else {
            Vec::new()
        };
        let full = comm.broadcast(owner, &row)?;
        Ok(DistMatrix::from_replicated(comm, &Dense::row_vector(&full)))
    }

    /// Extract column `j` as a distributed column vector (`a(:, j)`).
    /// Communication-free: the matrix's row blocks align exactly with
    /// the column vector's element blocks.
    pub fn extract_col(&self, comm: &mut Comm, j: usize) -> DistMatrix {
        assert!(!self.is_vector(), "extract_col on a vector");
        assert!(j < self.cols(), "col {j} out of {}", self.cols());
        let w = self.cols();
        let local: Vec<f64> = self.local().chunks_exact(w).map(|row| row[j]).collect();
        comm.compute(local.len() as f64);
        DistMatrix::from_block(comm, self.rows(), 1, local)
    }

    /// Store a distributed row vector into row `i` (`a(i, :) = v`).
    /// The row's owner gathers the vector.
    pub fn assign_row(
        &mut self,
        comm: &mut Comm,
        i: usize,
        v: &DistMatrix,
    ) -> Result<(), CommError> {
        assert!(!self.is_vector());
        assert!(
            v.is_vector() && v.len() == self.cols(),
            "row assignment shape mismatch"
        );
        let owner = self.owner_rank(i, 0);
        let full = v.gather_block(comm, owner, v.local().to_vec())?;
        if let Some(full) = full.map(Gathered::into_dense) {
            let b = self.block();
            let li = i - b.start(owner);
            let w = self.cols();
            self.local_mut()[li * w..(li + 1) * w].copy_from_slice(full.data());
        }
        Ok(())
    }

    /// Store a distributed column vector into column `j`
    /// (`a(:, j) = v`). Communication-free by alignment.
    pub fn assign_col(&mut self, comm: &mut Comm, j: usize, v: &DistMatrix) {
        assert!(!self.is_vector());
        assert!(
            v.is_vector() && v.len() == self.rows(),
            "column assignment shape mismatch"
        );
        let w = self.cols();
        let vlocal = v.local().to_vec();
        for (row, &x) in self.local_mut().chunks_exact_mut(w).zip(&vlocal) {
            row[j] = x;
        }
        comm.compute(vlocal.len() as f64);
    }

    /// Extract a contiguous element range of a vector
    /// (`v(lo..hi)`, 0-based half-open) as a new distributed vector.
    pub fn extract_range(
        &self,
        comm: &mut Comm,
        lo: usize,
        hi: usize,
    ) -> Result<DistMatrix, CommError> {
        assert!(self.is_vector(), "extract_range expects a vector");
        assert!(
            lo <= hi && hi <= self.len(),
            "range {lo}..{hi} out of {}",
            self.len()
        );
        let n_new = hi - lo;
        let src_b = self.block();
        let dst_b = Block::new(n_new, comm.size());
        let rank = comm.rank();
        // Send: my elements with global index g ∈ [lo, hi) go to the
        // owner of g - lo in the new distribution.
        let my = src_b.range(rank);
        let send_lo = my.start.max(lo);
        let send_hi = my.end.min(hi);
        let mut g = send_lo;
        let mut sends: Vec<(usize, usize, usize)> = Vec::new();
        while g < send_hi {
            let owner = dst_b.owner(g - lo);
            let run = (dst_b.end(owner) - (g - lo)).min(send_hi - g);
            sends.push((owner, g - my.start, g - my.start + run));
            g += run;
        }
        for &(dest, llo, lhi) in &sends {
            if dest != rank {
                let payload = self.local()[llo..lhi].to_vec();
                comm.send(dest, &payload)?;
            }
        }
        // Receive: my new elements [dst_b.range(rank)] come from the
        // owners of lo + that range in the old distribution.
        let mut out = vec![0.0; dst_b.count(rank)];
        let my_new = dst_b.range(rank);
        let mut g = my_new.start;
        while g < my_new.end {
            let src_owner = src_b.owner(lo + g);
            let run = (src_b.end(src_owner) - (lo + g)).min(my_new.end - g);
            if src_owner == rank {
                let s0 = (lo + g) - src_b.start(rank);
                out[g - my_new.start..g - my_new.start + run]
                    .copy_from_slice(&self.local()[s0..s0 + run]);
            } else {
                let data = comm.recv(src_owner)?;
                assert_eq!(data.len(), run, "range segment length mismatch");
                out[g - my_new.start..g - my_new.start + run].copy_from_slice(&data);
            }
            g += run;
        }
        comm.compute(out.len() as f64);
        let (rows, cols) = if self.rows() == 1 {
            (1, n_new)
        } else {
            (n_new, 1)
        };
        Ok(DistMatrix::from_block(comm, rows, cols, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_machine::meiko_cs2;
    use otter_mpi::run_spmd;

    fn dist_counting(comm: &mut Comm, rows: usize, cols: usize) -> DistMatrix {
        let d = Dense::from_vec(rows, cols, (0..rows * cols).map(|k| k as f64).collect());
        DistMatrix::from_replicated(comm, &d)
    }

    #[test]
    fn map_scalar_multiplies() {
        let res = run_spmd(&meiko_cs2(), 3, |c| {
            let a = dist_counting(c, 1, 7);
            a.map_scalar(c, 2.0, OpClass::Mul, |x, s| x * s)
                .gather_all(c)
        });
        assert_eq!(res[0].value.data()[3], 6.0);
    }

    #[test]
    fn circshift_matches_dense_all_shifts() {
        let n = 13;
        for p in [1usize, 2, 4, 5] {
            for k in [-17i64, -5, -1, 0, 1, 3, 12, 13, 14, 27] {
                let res = run_spmd(&meiko_cs2(), p, move |c| {
                    let d = Dense::row_vector(&(0..n).map(|x| x as f64).collect::<Vec<_>>());
                    let v = DistMatrix::from_replicated(c, &d);
                    let shifted = v.circshift(c, k)?;
                    Ok((shifted.gather_all(c)?, d.circshift(k)))
                });
                for r in &res {
                    assert_eq!(r.value.0, r.value.1, "p={p} k={k}");
                }
            }
        }
    }

    #[test]
    fn circshift_column_vector() {
        let res = run_spmd(&meiko_cs2(), 3, |c| {
            let d = Dense::col_vector(&[1.0, 2.0, 3.0, 4.0, 5.0]);
            let v = DistMatrix::from_replicated(c, &d);
            Ok((v.circshift(c, 2)?.gather_all(c)?, d.circshift(2)))
        });
        assert_eq!(res[0].value.0, res[0].value.1);
    }

    #[test]
    fn circshift_moves_little_data() {
        // Shift by 1 on p=4, n=1024: each rank ships O(n/p) elements
        // at the block boundary region, not the whole vector.
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            let v = DistMatrix::range(c, 1.0, 1.0, 1024.0);
            let before = c.stats().bytes_sent;
            let _ = v.circshift(c, 1)?;
            Ok(c.stats().bytes_sent - before)
        });
        let total: u64 = res.iter().map(|r| r.value).sum();
        // Worst case is ~n bytes total (each rank forwards its block
        // head), far below an allgather (p * n * 8 bytes).
        assert!(total <= 1024 * 8 + 64, "shipped {total} bytes");
    }

    #[test]
    fn extract_row_broadcasts_owner_data() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            let a = dist_counting(c, 6, 3);
            a.extract_row(c, 4)?.gather_all(c)
        });
        assert_eq!(res[0].value.data(), &[12.0, 13.0, 14.0]);
        assert_eq!(res[0].value.rows(), 1);
    }

    #[test]
    fn extract_col_needs_no_messages() {
        let res = run_spmd(&meiko_cs2(), 3, |c| {
            let a = dist_counting(c, 6, 3);
            let before = c.stats().messages_sent;
            let col = a.extract_col(c, 1);
            let sent_by_extract = c.stats().messages_sent - before;
            Ok((col.gather_all(c)?, sent_by_extract))
        });
        assert_eq!(res[0].value.0.data(), &[1.0, 4.0, 7.0, 10.0, 13.0, 16.0]);
        assert_eq!(res[0].value.0.cols(), 1);
        // gather_all communicates, but the extraction itself must not.
        // (We measured before the gather.)
        for r in &res {
            assert_eq!(r.value.1, 0, "extract_col sent messages on rank {}", r.rank);
        }
    }

    #[test]
    fn assign_row_and_col_round_trip() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            let mut a = DistMatrix::zeros(c, 5, 4);
            let r = DistMatrix::from_replicated(c, &Dense::row_vector(&[1.0, 2.0, 3.0, 4.0]));
            let v =
                DistMatrix::from_replicated(c, &Dense::col_vector(&[10.0, 20.0, 30.0, 40.0, 50.0]));
            a.assign_row(c, 2, &r)?;
            a.assign_col(c, 0, &v);
            a.gather_all(c)
        });
        let m = &res[0].value;
        assert_eq!(m.get(2, 1), 2.0);
        assert_eq!(m.get(2, 0), 30.0, "column assignment overwrites row");
        assert_eq!(m.get(4, 0), 50.0);
        assert_eq!(m.get(0, 3), 0.0);
    }

    #[test]
    fn extract_range_matches_dense() {
        for p in [1usize, 2, 3, 5] {
            let res = run_spmd(&meiko_cs2(), p, |c| {
                let v = DistMatrix::range(c, 0.0, 1.0, 19.0); // 20 elements
                let s = v.extract_range(c, 3, 11)?;
                s.gather_all(c)
            });
            assert_eq!(
                res[0].value.data(),
                &(3..11).map(|x| x as f64).collect::<Vec<_>>()[..],
                "p={p}"
            );
        }
    }

    #[test]
    fn extract_range_empty_and_full() {
        let res = run_spmd(&meiko_cs2(), 3, |c| {
            let v = DistMatrix::range(c, 1.0, 1.0, 6.0);
            let empty = v.extract_range(c, 2, 2)?;
            let full = v.extract_range(c, 0, 6)?;
            Ok((empty.len(), full.gather_all(c)?.data().to_vec()))
        });
        assert_eq!(res[0].value.0, 0);
        assert_eq!(res[0].value.1, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }
}

impl DistMatrix {
    /// Strided extraction `v(lo:step:hi)` (0-based `lo`, element count
    /// `count`). Implemented by gathering the source — strided access
    /// is irregular, and a 1998-style run-time library took the simple
    /// O(n)-communication route for it.
    pub fn extract_strided(
        &self,
        comm: &mut Comm,
        lo: usize,
        step: i64,
        count: usize,
    ) -> Result<DistMatrix, CommError> {
        assert!(self.is_vector(), "extract_strided expects a vector");
        assert!(step != 0, "stride must be nonzero");
        let full = self.gather_all(comm)?;
        let mut data = Vec::with_capacity(count);
        let mut g = lo as i64;
        for _ in 0..count {
            assert!(
                g >= 0 && (g as usize) < self.len(),
                "strided index out of bounds: element ({}, {}) of a {}x{} matrix",
                if self.rows() == 1 { 1 } else { g + 1 },
                if self.rows() == 1 { g + 1 } else { 1 },
                self.rows(),
                self.cols()
            );
            data.push(full.data()[g as usize]);
            g += step;
        }
        comm.compute(count as f64);
        let dense = if self.rows() == 1 {
            Dense::row_vector(&data)
        } else {
            Dense::col_vector(&data)
        };
        Ok(DistMatrix::from_replicated(comm, &dense))
    }

    /// Scalar fill of row `i` (`a(i, :) = s`): communication-free —
    /// only the owning rank touches memory.
    pub fn fill_row(&mut self, comm: &mut Comm, i: usize, val: f64) {
        assert!(!self.is_vector(), "fill_row on a vector");
        assert!(i < self.rows(), "row {i} out of {}", self.rows());
        if self.is_owner(i, 0) {
            let b = self.block();
            let li = i - b.start(comm.rank());
            let w = self.cols();
            self.local_mut()[li * w..(li + 1) * w].fill(val);
        }
        comm.compute(self.cols() as f64);
    }

    /// Scalar fill of column `j` (`a(:, j) = s`): each rank writes its
    /// own rows.
    pub fn fill_col(&mut self, comm: &mut Comm, j: usize, val: f64) {
        assert!(!self.is_vector(), "fill_col on a vector");
        assert!(j < self.cols(), "col {j} out of {}", self.cols());
        let w = self.cols();
        for row in self.local_mut().chunks_exact_mut(w) {
            row[j] = val;
        }
        comm.compute((self.len() / w.max(1)) as f64);
    }

    /// Scalar fill of a vector range (`v(lo..hi) = s`, 0-based
    /// half-open): each rank fills its local overlap.
    pub fn fill_range(&mut self, comm: &mut Comm, lo: usize, hi: usize, val: f64) {
        assert!(self.is_vector(), "fill_range expects a vector");
        assert!(
            lo <= hi && hi <= self.len(),
            "range {lo}..{hi} out of {}",
            self.len()
        );
        let my = self.local_range();
        let a = my.start.max(lo);
        let b = my.end.min(hi);
        if a < b {
            let off = my.start;
            self.local_mut()[a - off..b - off].fill(val);
        }
        comm.compute((hi - lo) as f64);
    }

    /// Vector store into a range (`v(lo..hi) = w`, 0-based half-open).
    /// `w` is gathered (it is at most the range's size); each rank
    /// writes its local overlap.
    pub fn assign_range(
        &mut self,
        comm: &mut Comm,
        lo: usize,
        hi: usize,
        w: &DistMatrix,
    ) -> Result<(), CommError> {
        assert!(
            self.is_vector() && w.is_vector(),
            "assign_range expects vectors"
        );
        assert!(
            lo <= hi && hi <= self.len(),
            "range {lo}..{hi} out of {}",
            self.len()
        );
        assert_eq!(w.len(), hi - lo, "assign_range length mismatch");
        let full = w.gather_all(comm)?;
        let my = self.local_range();
        let a = my.start.max(lo);
        let b = my.end.min(hi);
        if a < b {
            let off = my.start;
            self.local_mut()[a - off..b - off].copy_from_slice(&full.data()[a - lo..b - lo]);
        }
        comm.compute((hi - lo) as f64);
        Ok(())
    }
}

#[cfg(test)]
mod slice_tests {
    use super::*;
    use otter_machine::meiko_cs2;
    use otter_mpi::run_spmd;

    #[test]
    fn strided_extraction_matches_dense() {
        for p in [1usize, 2, 3, 5] {
            let res = run_spmd(&meiko_cs2(), p, |c| {
                let v = DistMatrix::range(c, 1.0, 1.0, 20.0);
                // v(3:2:11) in MATLAB → lo=2 (0-based), step 2, 5 elems.
                v.extract_strided(c, 2, 2, 5)?.gather_all(c)
            });
            assert_eq!(res[0].value.data(), &[3.0, 5.0, 7.0, 9.0, 11.0], "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "strided index out of bounds: element (1, 13) of a 1x10 matrix")]
    fn strided_oob_reports_shape_and_position() {
        // p = 1 runs inline, so the panic message survives intact.
        run_spmd(&meiko_cs2(), 1, |c| {
            let v = DistMatrix::range(c, 1.0, 1.0, 10.0);
            // v(7:3:13) walks past the end: 7, 10, 13 → element 13 of 10.
            v.extract_strided(c, 6, 3, 3)?.gather_all(c)
        });
    }

    #[test]
    fn negative_stride() {
        let res = run_spmd(&meiko_cs2(), 3, |c| {
            let v = DistMatrix::range(c, 1.0, 1.0, 10.0);
            // v(10:-3:1) → 10, 7, 4, 1.
            v.extract_strided(c, 9, -3, 4)?.gather_all(c)
        });
        assert_eq!(res[0].value.data(), &[10.0, 7.0, 4.0, 1.0]);
    }

    #[test]
    fn fills_match_dense_semantics() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            let mut a = DistMatrix::zeros(c, 5, 4);
            a.fill_row(c, 1, 7.0);
            a.fill_col(c, 2, 9.0);
            let mut v = DistMatrix::range(c, 0.0, 1.0, 9.0);
            v.fill_range(c, 3, 7, -1.0);
            Ok((a.gather_all(c)?, v.gather_all(c)?))
        });
        let (a, v) = &res[0].value;
        assert_eq!(a.get(1, 0), 7.0);
        assert_eq!(a.get(1, 2), 9.0, "column fill wins (applied second)");
        assert_eq!(a.get(4, 2), 9.0);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(
            v.data(),
            &[0.0, 1.0, 2.0, -1.0, -1.0, -1.0, -1.0, 7.0, 8.0, 9.0]
        );
    }

    #[test]
    fn assign_range_roundtrips() {
        for p in [1usize, 2, 5] {
            let res = run_spmd(&meiko_cs2(), p, |c| {
                let mut v = DistMatrix::zeros(c, 1, 12);
                let w = DistMatrix::range(c, 1.0, 1.0, 4.0);
                v.assign_range(c, 5, 9, &w)?;
                v.gather_all(c)
            });
            assert_eq!(
                res[0].value.data(),
                &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0],
                "p={p}"
            );
        }
    }
}
