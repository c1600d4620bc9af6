//! The distributed MATRIX object (paper §4).
//!
//! "Every matrix and vector is represented on each processor by a C
//! structure named MATRIX which contains global information about its
//! type, rank, and shape ... \[and\] processor-dependent information,
//! such as the total number of matrix elements stored on a particular
//! processor."
//!
//! Distribution policy (paper §4, final paragraph):
//! * matrices — row-contiguous blocks over the ranks;
//! * vectors (either orientation) — element blocks;
//! * scalars — replicated (they never appear as `DistMatrix`).
//!
//! Because the partition is a pure function of the distributed extent
//! and `p`, "matrices of identical size are distributed identically"
//! holds by construction, which is what lets the compiler emit
//! communication-free element-wise loops.

use crate::dense::Dense;
use crate::dist::Block;
use crate::linalg::Generated;
use otter_mpi::{Comm, CommError, Event};

/// Every rank's block of a gathered matrix, in rank order, not yet
/// one buffer. [`Gathered::into_dense`] allocates the result, so the
/// caller chooses the thread (and so the allocator arena) that holds
/// it.
#[derive(Debug)]
pub struct Gathered {
    rows: usize,
    cols: usize,
    parts: Vec<Vec<f64>>,
}

impl Gathered {
    /// The dense matrix whose row-major data is the parts in rank order
    /// (a vector's items are its elements in order, which is row-major
    /// for either orientation, an empty `0×1` included). A lone part
    /// (p = 1) becomes the storage as it is, so a p = 1 gather of an
    /// owned block copies nothing.
    pub fn into_dense(self) -> Dense {
        let data = match <[Vec<f64>; 1]>::try_from(self.parts) {
            Ok([lone]) => lone,
            Err(parts) => parts.concat(),
        };
        Dense::from_vec(self.rows, self.cols, data)
    }
}

/// A local block whose length is not the one its matrix's layout gives
/// this rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutError {
    pub rows: usize,
    pub cols: usize,
    pub expected: usize,
    pub got: usize,
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let LayoutError {
            rows,
            cols,
            expected,
            got,
        } = self;
        write!(
            f,
            "a local block of a {rows}x{cols} matrix holds {got} elements, not {expected}"
        )
    }
}

impl std::error::Error for LayoutError {}

/// A matrix or vector distributed across the ranks of a job.
#[derive(Debug, PartialEq)]
pub struct DistMatrix {
    rows: usize,
    cols: usize,
    /// Job size the object was distributed over.
    p: usize,
    /// Owning rank of this replica.
    rank: usize,
    /// Locally owned elements, row-major over the owned slice.
    local: Vec<f64>,
}

// Clone and Drop are written out (not derived) so every local block
// passes through the thread-local allocation accountant; the peak it
// records is the `peak_temp_bytes` engine counter.
impl Clone for DistMatrix {
    fn clone(&self) -> Self {
        crate::alloc::note_alloc(self.local.len() * 8);
        DistMatrix {
            rows: self.rows,
            cols: self.cols,
            p: self.p,
            rank: self.rank,
            local: self.local.clone(),
        }
    }
}

impl Drop for DistMatrix {
    fn drop(&mut self) {
        crate::alloc::note_free(self.local.len() * 8);
    }
}

impl DistMatrix {
    // ---- shape ------------------------------------------------------------

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total (global) element count.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// MATLAB vector: one row or one column.
    pub fn is_vector(&self) -> bool {
        self.rows == 1 || self.cols == 1
    }

    /// The extent the object is distributed over: element count for
    /// vectors, row count for matrices.
    pub fn dist_extent(&self) -> usize {
        if self.is_vector() {
            self.len()
        } else {
            self.rows
        }
    }

    /// The block partition governing this object.
    pub fn block(&self) -> Block {
        Block::new(self.dist_extent(), self.p)
    }

    /// Elements per distributed item: `cols` for matrices, 1 for
    /// vectors.
    pub fn item_width(&self) -> usize {
        if self.is_vector() {
            1
        } else {
            self.cols
        }
    }

    /// True if `other` is aligned with `self` (same shape ⇒ same
    /// distribution; the compiler relies on this).
    pub fn aligned_with(&self, other: &DistMatrix) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.p == other.p
    }

    /// Locally owned data, row-major over the owned slice
    /// (the paper's `realbase`).
    pub fn local(&self) -> &[f64] {
        &self.local
    }

    /// Mutable local data.
    pub fn local_mut(&mut self) -> &mut [f64] {
        &mut self.local
    }

    /// Number of locally stored elements (`ML_local_els`).
    pub fn local_els(&self) -> usize {
        self.local.len()
    }

    // ---- constructors -------------------------------------------------------

    /// Internal: build a zero-filled object of the right local size.
    fn alloc(comm: &Comm, rows: usize, cols: usize) -> DistMatrix {
        let mut m = DistMatrix {
            rows,
            cols,
            p: comm.size(),
            rank: comm.rank(),
            local: Vec::new(),
        };
        let n_local = m.block().count(comm.rank()) * m.item_width();
        m.local = vec![0.0; n_local];
        crate::alloc::note_alloc(n_local * 8);
        m
    }

    /// Distributed zeros (`ML_init` + fill).
    pub fn zeros(comm: &Comm, rows: usize, cols: usize) -> DistMatrix {
        Self::alloc(comm, rows, cols)
    }

    /// Distributed ones.
    pub fn ones(comm: &Comm, rows: usize, cols: usize) -> DistMatrix {
        let mut m = Self::alloc(comm, rows, cols);
        m.local.fill(1.0);
        m
    }

    /// Distributed identity, filled from the same [`Generated`] block a
    /// fused loop reads.
    pub fn eye(comm: &Comm, n: usize) -> DistMatrix {
        DistMatrix::from_block(comm, n, n, Generated::eye(comm, n).block())
    }

    /// Distribute a dense value every rank already holds (matrix
    /// literals and results of replicated scalar computation): each
    /// rank slices out its block, no communication.
    pub fn from_replicated(comm: &mut Comm, full: &Dense) -> DistMatrix {
        let mut m = Self::alloc(comm, full.rows(), full.cols());
        let b = m.block();
        let r = comm.rank();
        if m.is_vector() {
            for (li, gi) in b.range(r).enumerate() {
                // Vectors are stored in their natural element order.
                m.local[li] = if full.rows() == 1 {
                    full.get(0, gi)
                } else {
                    full.get(gi, 0)
                };
            }
        } else {
            let w = full.cols();
            for (li, gi) in b.range(r).enumerate() {
                m.local[li * w..(li + 1) * w].copy_from_slice(full.row(gi));
            }
        }
        let name = "ML_distribute";
        comm.record(Event::Mark { name });
        m
    }

    /// Distribute the MATLAB range `start:step:stop` as a row vector.
    pub fn range(comm: &mut Comm, start: f64, step: f64, stop: f64) -> DistMatrix {
        // Cheap enough to build locally: each rank materializes only
        // its block.
        let full = Dense::range(start, step, stop);
        Self::from_replicated(comm, &full)
    }

    /// Scatter a dense matrix held only by `root` (paper assumption 5:
    /// one processor coordinates I/O). Non-root ranks pass `None`.
    pub fn scatter_from(
        comm: &mut Comm,
        root: usize,
        full: Option<&Dense>,
    ) -> Result<DistMatrix, CommError> {
        let (name, t0) = ("ML_scatter", comm.clock());
        // Broadcast the shape first.
        let shape = match full {
            Some(d) => vec![d.rows() as f64, d.cols() as f64],
            None => vec![0.0, 0.0],
        };
        let shape = comm.broadcast(root, &shape)?;
        let (rows, cols) = (shape[0] as usize, shape[1] as usize);
        let mut m = Self::alloc(comm, rows, cols);
        let b = m.block();
        let w = m.item_width();
        let parts: Vec<Vec<f64>> = if comm.rank() == root {
            let d = full.expect("root must supply the dense matrix");
            // Row-major dense data lines up with vector order too,
            // except for 1×n row vectors, where row-major == element
            // order anyway, and n×1 columns, where it also matches.
            (0..comm.size())
                .map(|r| {
                    let lo = b.start(r) * w;
                    let hi = b.end(r) * w;
                    d.data()[lo..hi].to_vec()
                })
                .collect()
        } else {
            Vec::new()
        };
        m.local = comm.scatter(root, &parts)?;
        comm.record(Event::Phase { name, t0 });
        Ok(m)
    }

    /// Gather the full matrix onto every rank (used by `disp`, small
    /// intermediates, and test oracles).
    pub fn gather_all(&self, comm: &mut Comm) -> Result<Dense, CommError> {
        let (name, t0) = ("ML_gather_all", comm.clock());
        let parts = comm.allgather(&self.local)?;
        comm.record(Event::Phase { name, t0 });
        Ok(self.gathered(parts).into_dense())
    }

    /// Gather onto `root` only; others get `None`. Consumes the matrix:
    /// its block moves into the gather (and leaves the allocation
    /// accounting as it goes), so at p = 1 the result reuses the
    /// block's storage and nothing is copied.
    pub fn gather_to(
        mut self,
        comm: &mut Comm,
        root: usize,
    ) -> Result<Option<Gathered>, CommError> {
        let block = std::mem::take(&mut self.local);
        crate::alloc::note_free(block.len() * 8);
        self.gather_block(comm, root, block)
    }

    /// Gather `block` — this rank's part of an object shaped like
    /// `self` — onto `root`. Callers that only borrow the matrix pass a
    /// copy of [`DistMatrix::local`].
    pub(crate) fn gather_block(
        &self,
        comm: &mut Comm,
        root: usize,
        block: Vec<f64>,
    ) -> Result<Option<Gathered>, CommError> {
        let (name, t0) = ("ML_gather", comm.clock());
        let parts = comm.gather(root, block)?;
        comm.record(Event::Phase { name, t0 });
        Ok(parts.map(|parts| self.gathered(parts)))
    }

    fn gathered(&self, parts: Vec<Vec<f64>>) -> Gathered {
        Gathered {
            rows: self.rows,
            cols: self.cols,
            parts,
        }
    }

    // ---- element access ------------------------------------------------------

    /// The distributed item index of element (i, j): the linear index
    /// for vectors, the row for matrices.
    fn item_of(&self, i: usize, j: usize) -> usize {
        if self.is_vector() {
            if self.rows == 1 {
                j
            } else {
                i
            }
        } else {
            i
        }
    }

    /// `ML_owner`: does the calling rank store element (i, j)?
    /// 0-based, like the generated C after its `- 1` adjustment.
    pub fn is_owner(&self, i: usize, j: usize) -> bool {
        self.owner_rank(i, j) == self.rank
    }

    /// Which rank owns element (i, j).
    pub fn owner_rank(&self, i: usize, j: usize) -> usize {
        assert!(
            i < self.rows && j < self.cols,
            "({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        self.block().owner(self.item_of(i, j))
    }

    /// Local offset of an owned element (`ML_realaddr2`). Panics if
    /// not owned.
    pub fn local_offset(&self, i: usize, j: usize) -> usize {
        assert!(
            self.is_owner(i, j),
            "rank {} does not own ({i},{j})",
            self.rank
        );
        let item = self.item_of(i, j);
        let li = item - self.block().start(self.rank);
        if self.is_vector() {
            li
        } else {
            li * self.cols + j
        }
    }

    /// Read an owned element without communication.
    pub fn get_local(&self, i: usize, j: usize) -> f64 {
        self.local[self.local_offset(i, j)]
    }

    /// Write an element *if owned* — the owner-computes guard the
    /// paper's pass 5 wraps around element assignments. Returns whether
    /// this rank performed the store.
    pub fn set_if_owner(&mut self, i: usize, j: usize, v: f64) -> bool {
        if self.is_owner(i, j) {
            let off = self.local_offset(i, j);
            self.local[off] = v;
            true
        } else {
            false
        }
    }

    /// `ML_broadcast`: fetch element (i, j) to every rank. The owner
    /// broadcasts; everyone must call.
    pub fn get_bcast(&self, comm: &mut Comm, i: usize, j: usize) -> Result<f64, CommError> {
        let owner = self.owner_rank(i, j);
        let v = if owner == comm.rank() {
            self.get_local(i, j)
        } else {
            0.0
        };
        comm.broadcast_scalar(owner, v)
    }

    /// Build from explicitly provided local data (an element-wise
    /// loop's result): an error unless `local` holds exactly this
    /// rank's block of a `rows×cols` object.
    pub fn from_local(
        comm: &Comm,
        rows: usize,
        cols: usize,
        local: Vec<f64>,
    ) -> Result<DistMatrix, LayoutError> {
        let m = DistMatrix {
            rows,
            cols,
            p: comm.size(),
            rank: comm.rank(),
            local,
        };
        let (expected, got) = (m.block().count(m.rank) * m.item_width(), m.local.len());
        if got != expected {
            return Err(LayoutError {
                rows,
                cols,
                expected,
                got,
            });
        }
        crate::alloc::note_alloc(expected * 8);
        Ok(m)
    }

    /// [`DistMatrix::from_local`] for the run-time library's own
    /// kernels, which size `local` from the same [`Block`] partition.
    pub(crate) fn from_block(comm: &Comm, rows: usize, cols: usize, local: Vec<f64>) -> DistMatrix {
        DistMatrix::from_local(comm, rows, cols, local).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Global row range owned locally (matrices) or element range
    /// (vectors).
    pub fn local_range(&self) -> std::ops::Range<usize> {
        self.block().range(self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otter_machine::meiko_cs2;
    use otter_mpi::run_spmd;

    fn counting_dense(rows: usize, cols: usize) -> Dense {
        Dense::from_vec(rows, cols, (0..rows * cols).map(|k| k as f64).collect())
    }

    #[test]
    fn local_sizes_partition_matrix() {
        for p in [1, 2, 3, 5, 8] {
            let res = run_spmd(&meiko_cs2(), p, |c| {
                let m = DistMatrix::zeros(c, 10, 4);
                Ok(m.local_els())
            });
            let total: usize = res.iter().map(|r| r.value).sum();
            assert_eq!(total, 40, "p={p}");
        }
    }

    #[test]
    fn replicated_round_trips_through_gather() {
        let d = counting_dense(7, 3);
        for p in [1, 2, 4, 7] {
            let dd = d.clone();
            let res = run_spmd(&meiko_cs2(), p, move |c| {
                let m = DistMatrix::from_replicated(c, &dd);
                m.gather_all(c)
            });
            for r in &res {
                assert_eq!(r.value, d, "p={p}");
            }
        }
    }

    #[test]
    fn vector_round_trips_both_orientations() {
        for (rows, cols) in [(1usize, 9usize), (9, 1)] {
            let d = counting_dense(rows, cols);
            let dd = d.clone();
            let res = run_spmd(&meiko_cs2(), 4, move |c| {
                DistMatrix::from_replicated(c, &dd).gather_all(c)
            });
            assert_eq!(res[0].value, d, "{rows}x{cols}");
        }
    }

    #[test]
    fn scatter_matches_replicated() {
        let d = counting_dense(6, 5);
        let dd = d.clone();
        let res = run_spmd(&meiko_cs2(), 3, move |c| {
            let via_scatter = if c.rank() == 0 {
                DistMatrix::scatter_from(c, 0, Some(&dd))?
            } else {
                DistMatrix::scatter_from(c, 0, None)?
            };
            let via_repl = DistMatrix::from_replicated(c, &dd);
            Ok((via_scatter.local().to_vec(), via_repl.local().to_vec()))
        });
        for r in &res {
            assert_eq!(r.value.0, r.value.1);
        }
    }

    #[test]
    fn a_block_of_the_wrong_length_is_an_error() {
        // A 1×6 row is distributed by its elements: 3 per rank at p = 2.
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            let long = DistMatrix::from_local(c, 1, 6, vec![0.0; 6]).map(|_| ());
            Ok((long, DistMatrix::from_local(c, 1, 6, vec![0.0; 3]).is_ok()))
        });
        let (err, ok) = &res[1].value;
        let want = LayoutError {
            rows: 1,
            cols: 6,
            expected: 3,
            got: 6,
        };
        assert_eq!((err, *ok), (&Err(want), true));
    }

    #[test]
    fn eye_has_unit_trace_rows() {
        let res = run_spmd(&meiko_cs2(), 4, |c| DistMatrix::eye(c, 9).gather_all(c));
        assert_eq!(res[0].value, Dense::eye(9));
    }

    #[test]
    fn owner_is_exactly_one_rank() {
        let res = run_spmd(&meiko_cs2(), 5, |c| {
            let m = DistMatrix::zeros(c, 11, 3);
            let mut owned = Vec::new();
            for i in 0..11 {
                for j in 0..3 {
                    if m.is_owner(i, j) {
                        owned.push((i, j));
                    }
                }
            }
            Ok(owned)
        });
        let mut all: Vec<(usize, usize)> = res.iter().flat_map(|r| r.value.clone()).collect();
        all.sort();
        let expect: Vec<(usize, usize)> =
            (0..11).flat_map(|i| (0..3).map(move |j| (i, j))).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn whole_rows_live_on_one_rank() {
        // Row-contiguous property: all of row i has one owner.
        let res = run_spmd(&meiko_cs2(), 3, |c| {
            let m = DistMatrix::zeros(c, 8, 6);
            Ok((0..8).map(|i| m.owner_rank(i, 0)).collect::<Vec<_>>())
        });
        for i in 0..8 {
            let owner = res[0].value[i];
            let r = run_spmd(&meiko_cs2(), 3, move |c| {
                let m = DistMatrix::zeros(c, 8, 6);
                Ok((0..6).all(|j| m.owner_rank(i, j) == owner))
            });
            assert!(r.iter().all(|x| x.value));
        }
    }

    #[test]
    fn get_bcast_returns_same_value_everywhere() {
        let d = counting_dense(5, 4);
        let res = run_spmd(&meiko_cs2(), 4, move |c| {
            let m = DistMatrix::from_replicated(c, &d);
            m.get_bcast(c, 3, 2)
        });
        for r in &res {
            assert_eq!(r.value, 14.0); // 3*4+2
        }
    }

    #[test]
    fn set_if_owner_updates_exactly_one_replica() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            let mut m = DistMatrix::zeros(c, 8, 2);
            let wrote = m.set_if_owner(5, 1, 9.0);
            let full = m.gather_all(c)?;
            Ok((wrote, full.get(5, 1), full.sum_all()))
        });
        let writers = res.iter().filter(|r| r.value.0).count();
        assert_eq!(writers, 1);
        for r in &res {
            assert_eq!(r.value.1, 9.0);
            assert_eq!(r.value.2, 9.0);
        }
    }

    #[test]
    fn range_distributes_like_dense_range() {
        let res = run_spmd(&meiko_cs2(), 3, |c| {
            DistMatrix::range(c, 1.0, 2.0, 11.0).gather_all(c)
        });
        assert_eq!(res[0].value, Dense::range(1.0, 2.0, 11.0));
    }

    #[test]
    fn aligned_with_same_shape() {
        let res = run_spmd(&meiko_cs2(), 2, |c| {
            let a = DistMatrix::zeros(c, 5, 5);
            let b = DistMatrix::ones(c, 5, 5);
            let v = DistMatrix::zeros(c, 5, 1);
            Ok((a.aligned_with(&b), a.aligned_with(&v)))
        });
        assert_eq!(res[0].value, (true, false));
    }

    #[test]
    fn gather_to_root_only() {
        let d = counting_dense(4, 4);
        let res = run_spmd(&meiko_cs2(), 4, move |c| {
            let m = DistMatrix::from_replicated(c, &d);
            Ok(m.gather_to(c, 2)?.is_some())
        });
        let haves: Vec<bool> = res.iter().map(|r| r.value).collect();
        assert_eq!(haves, vec![false, false, true, false]);
    }

    #[test]
    fn gather_to_moves_the_block_it_consumes() {
        // p = 1: the gathered dense *is* the block, same allocation.
        let d = counting_dense(6, 4);
        let res = run_spmd(&meiko_cs2(), 1, move |c| {
            crate::alloc::reset();
            let m = DistMatrix::from_replicated(c, &d);
            let block = m.local().as_ptr();
            let full = m.gather_to(c, 0)?.expect("root").into_dense();
            let reused = full.data().as_ptr() == block;
            let rows_ok = full == d;
            drop(full);
            Ok((reused, rows_ok, crate::alloc::live_bytes()))
        });
        assert_eq!(res[0].value, (true, true, 0));

        // p = 4: the root's own part moves into the gather, and every
        // rank's accounting returns to zero.
        let d = counting_dense(7, 3);
        let res = run_spmd(&meiko_cs2(), 4, move |c| {
            crate::alloc::reset();
            let m = DistMatrix::from_replicated(c, &d);
            let block = m.local().to_vec();
            let own = block.as_ptr();
            let moved = match c.gather(0, block)? {
                Some(parts) => parts[0].as_ptr() == own,
                None => true,
            };
            let full = m.gather_to(c, 0)?.map(Gathered::into_dense);
            let rows_ok = full.as_ref().is_none_or(|f| *f == d);
            drop(full);
            Ok((moved, rows_ok, crate::alloc::live_bytes()))
        });
        for r in &res {
            assert_eq!(r.value, (true, true, 0), "rank {}", r.rank);
        }
    }

    #[test]
    fn gathers_rebuild_the_same_dense_at_every_p() {
        // p = 1 hands its lone part over as the storage; p > 1
        // concatenates. Either way the shape and every element match,
        // including the remainder blocks of 7 items over 2 and 3 ranks.
        for (rows, cols) in [(1usize, 7usize), (7, 1), (7, 3)] {
            let d = counting_dense(rows, cols);
            for p in [1usize, 2, 3] {
                let dd = d.clone();
                let res = run_spmd(&meiko_cs2(), p, move |c| {
                    let m = DistMatrix::from_replicated(c, &dd);
                    Ok((
                        m.gather_all(c)?,
                        m.gather_to(c, 0)?.map(Gathered::into_dense),
                    ))
                });
                for r in &res {
                    let (all, to_root) = &r.value;
                    assert_eq!(all, &d, "{rows}x{cols} p={p} gather_all");
                    let expect = (r.rank == 0).then(|| d.clone());
                    assert_eq!(to_root, &expect, "{rows}x{cols} p={p} gather_to");
                }
            }
        }
    }
}
