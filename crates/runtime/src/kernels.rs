//! Cache-blocked, branchless compute kernels shared by the local
//! [`crate::Dense`] algebra and the distributed run-time library.
//!
//! Three design rules, in priority order:
//!
//! 1. **Value-independent control flow.** No data-dependent branches:
//!    a zero (or NaN, or infinity) in the input takes the same path as
//!    any other value, so IEEE specials propagate per IEEE 754 rules
//!    (`0 · NaN = NaN`, `0 · ∞ = NaN`) and wall time depends only on
//!    shapes, never on contents.
//! 2. **Bit-stable accumulation.** Per output element, the k-index
//!    contributions are added in globally ascending k order for
//!    *every* tile size and thread count: tiles partition `0..kc` into
//!    ascending contiguous blocks processed in order, and threads
//!    split disjoint output-row chunks (never the k axis). The product
//!    is therefore byte-identical across all `(tile, threads)`
//!    configurations.
//! 3. **No per-op allocation.** The axpy loop order (`i-k-j`) streams
//!    rows of `B` directly — row-major `B` k-tiles are already
//!    contiguous, so there is no transpose pass and no tile-copy
//!    workspace; the only writes go to the caller's output buffer.
//!
//! The `i-k-j` (axpy) order is what makes rule 1 cheap: the inner loop
//! `c[j] += a · b[j]` has independent iterations the compiler can
//! vectorize, unlike the sequential dependence chain of an `i-j-k` dot
//! product. Blocking over k keeps the active `B` tile
//! (`tile × n` doubles) hot across all output rows.
//!
//! Per-thread kernel configuration lives here too: ranks are OS
//! threads, so a thread-local `(tile, threads)` pair lets the executor
//! give every rank its own budget without locks (same pattern as
//! [`crate::alloc`]).

use crate::pool;
use std::cell::Cell;

/// Default k-tile: 64 rows of a 512-wide `B` panel is a 256 KiB tile —
/// L2-resident on the machines this runs on, and evenly divides the
/// paper's power-of-two problem sizes.
pub const DEFAULT_TILE: usize = 64;

/// One thread's share of a matmul, `(c_rows, i0, n, kc, tile, a,
/// a_stride, a_off, b)`: rows `i0..i0 + c_rows.len() / n` of
/// [`matmul_accumulate`]'s `C`, whose first row is `c_rows[0]`.
type RowsKernel = fn(&mut [f64], usize, usize, usize, usize, &[f64], usize, usize, &[f64]);

/// The per-thread kernel this build runs, and the row multiple threads
/// split `C` in, so only the last part has a row tail.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
const KERNEL: (RowsKernel, usize) = (tiled::rows, tiled::ROWS);
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
const KERNEL: (RowsKernel, usize) = (portable_rows, 1);

thread_local! {
    /// This thread's `(k-tile, intra-rank threads)` kernel budget.
    static KCFG: Cell<(usize, usize)> = const { Cell::new((DEFAULT_TILE, 1)) };
}

/// Set the calling rank's kernel configuration. Zero values are
/// clamped to 1.
pub fn configure(tile: usize, threads: usize) {
    KCFG.with(|c| c.set((tile.max(1), threads.max(1))));
}

/// The calling rank's `(k-tile, threads)` configuration.
pub fn config() -> (usize, usize) {
    KCFG.with(Cell::get)
}

/// `C += A_panel · B`: for `i in 0..m`, `j in 0..n`,
/// `c[i·n + j] += Σ_{k<kc} a[i·a_stride + a_off + k] · b[k·n + j]`.
///
/// `a` is a row-major matrix of row stride `a_stride` whose columns
/// `a_off..a_off+kc` form the panel — exactly the shape the ring
/// matmul's per-step panel multiply needs, with `a_stride = kc`,
/// `a_off = 0` recovering a plain whole-matrix multiply.
///
/// Accumulates in ascending k per output element regardless of the
/// configured tile, and splits output rows over the configured
/// intra-rank threads (see the module rules).
#[allow(clippy::too_many_arguments)] // BLAS-style panel signature: dims + (stride, offset) are the API
pub fn matmul_accumulate(
    c: &mut [f64],
    m: usize,
    n: usize,
    kc: usize,
    a: &[f64],
    a_stride: usize,
    a_off: usize,
    b: &[f64],
) {
    split_rows(KERNEL, c, m, n, kc, a, a_stride, a_off, b);
}

/// [`matmul_accumulate`] with per-thread `kernel.0`, splitting rows in
/// multiples of `kernel.1`.
#[allow(clippy::too_many_arguments)]
fn split_rows(
    (rows, row_block): (RowsKernel, usize),
    c: &mut [f64],
    m: usize,
    n: usize,
    kc: usize,
    a: &[f64],
    a_stride: usize,
    a_off: usize,
    b: &[f64],
) {
    assert!(c.len() >= m * n, "output {} short of {m}x{n}", c.len());
    assert!(b.len() >= kc * n, "B {} short of {kc}x{n}", b.len());
    if m == 0 || n == 0 || kc == 0 {
        return;
    }
    assert!(
        a.len() >= (m - 1) * a_stride + a_off + kc,
        "A panel out of bounds"
    );
    let (tile, threads) = config();
    let threads = threads.min(m);
    let rows_per = m.div_ceil(threads).next_multiple_of(row_block);
    let c_base = c.as_mut_ptr() as usize;
    pool::parallel_for(threads, threads, &move |part| {
        let i0 = part * rows_per;
        if i0 >= m {
            return; // ceil-division can leave trailing empty parts
        }
        let i1 = (i0 + rows_per).min(m);
        // SAFETY: parts own disjoint row ranges [i0, i1) of the output,
        // and the caller's `c` borrow outlives the blocking
        // parallel_for call.
        let c_rows = unsafe {
            std::slice::from_raw_parts_mut((c_base as *mut f64).add(i0 * n), (i1 - i0) * n)
        };
        rows(c_rows, i0, n, kc, tile, a, a_stride, a_off, b);
    });
}

/// The [`RowsKernel`] of builds without AVX-512.
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "avx512f"),
    allow(dead_code) // tests still check it against the reference
)]
#[allow(clippy::too_many_arguments)]
fn portable_rows(
    c_rows: &mut [f64],
    i0: usize,
    n: usize,
    kc: usize,
    tile: usize,
    a: &[f64],
    a_stride: usize,
    a_off: usize,
    b: &[f64],
) {
    let nrows = c_rows.len() / n;
    for k0 in (0..kc).step_by(tile) {
        let k1 = (k0 + tile).min(kc);
        // 4-row × 4-k register micro-kernel: four output rows share
        // each loaded `B` element, and `c[j]` stays in a register
        // across four k-steps. The per-element FP sequence is still
        // one mul+add per ascending k — blocking only regroups
        // loads, never reorders arithmetic — so bits match the
        // scalar tail (and every other tile/thread config) exactly.
        let mut rblocks = c_rows.chunks_exact_mut(4 * n);
        for (blk, cblk) in rblocks.by_ref().enumerate() {
            let row0 = i0 + blk * 4;
            let (c0, rest) = cblk.split_at_mut(n);
            let (c1, rest) = rest.split_at_mut(n);
            let (c2, c3) = rest.split_at_mut(n);
            let crows = [c0, c1, c2, c3];
            let arows: [&[f64]; 4] = std::array::from_fn(|r| &a[(row0 + r) * a_stride + a_off..]);
            let mut k = k0;
            while k + 4 <= k1 {
                let bk: [&[f64]; 4] = std::array::from_fn(|t| &b[(k + t) * n..][..n]);
                let xs: [[f64; 4]; 4] =
                    std::array::from_fn(|r| std::array::from_fn(|t| arows[r][k + t]));
                for j in 0..n {
                    let bj = [bk[0][j], bk[1][j], bk[2][j], bk[3][j]];
                    for r in 0..4 {
                        let mut t = crows[r][j];
                        t += xs[r][0] * bj[0];
                        t += xs[r][1] * bj[1];
                        t += xs[r][2] * bj[2];
                        t += xs[r][3] * bj[3];
                        crows[r][j] = t;
                    }
                }
                k += 4;
            }
            while k < k1 {
                let brow = &b[k * n..][..n];
                for r in 0..4 {
                    let av = arows[r][k];
                    for (cv, &bv) in crows[r].iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
                k += 1;
            }
        }
        // Remaining 0–3 rows: single-row axpy with the same 4-k
        // register blocking.
        let done = (nrows / 4) * 4;
        for (li, crow) in rblocks.into_remainder().chunks_exact_mut(n).enumerate() {
            let arow = &a[(i0 + done + li) * a_stride + a_off..];
            let mut k = k0;
            while k + 4 <= k1 {
                let (a0, a1, a2, a3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                let b0 = &b[k * n..][..n];
                let b1 = &b[(k + 1) * n..][..n];
                let b2 = &b[(k + 2) * n..][..n];
                let b3 = &b[(k + 3) * n..][..n];
                for j in 0..n {
                    let mut t = crow[j];
                    t += a0 * b0[j];
                    t += a1 * b1[j];
                    t += a2 * b2[j];
                    t += a3 * b3[j];
                    crow[j] = t;
                }
                k += 4;
            }
            while k < k1 {
                let av = arow[k];
                let brow = &b[k * n..][..n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
                k += 1;
            }
        }
    }
}

/// The AVX-512 register tile. It is compiled in exactly when the build
/// targets a CPU with `avx512f` (`.cargo/config.toml` builds for the
/// host CPU), so nothing chooses between kernels at run time.
///
/// A `ROWS × COLS` tile of `C` lives in 24 `zmm` accumulators for a
/// whole k-tile; each k step loads four `B` vectors, broadcasts one `A`
/// element per row, and does one `mul` then one `add` per accumulator.
/// So every output element still sees `c = c + a·b`, rounded twice, in
/// ascending k: the bits match [`portable_rows`]. There is no FMA on
/// purpose, since its single rounding would change them. A column tail
/// narrower than `COLS` runs in as few registers as cover it and masks
/// the lanes past `n`: masks depend only on `n`, never on values.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod tiled {
    use std::arch::x86_64::{
        __m512d, __mmask8, _mm512_add_pd, _mm512_mask_storeu_pd, _mm512_maskz_loadu_pd,
        _mm512_mul_pd, _mm512_set1_pd,
    };

    /// Rows per tile. Rows that do not fill one run as 1-row tiles.
    pub(super) const ROWS: usize = 6;
    /// Doubles per `zmm` register.
    const LANES: usize = 8;
    /// Columns per tile: four registers.
    const COLS: usize = 4 * LANES;

    /// The [`super::RowsKernel`] of AVX-512 builds.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn rows(
        c: &mut [f64],
        i0: usize,
        n: usize,
        kc: usize,
        tile: usize,
        a: &[f64],
        a_stride: usize,
        a_off: usize,
        b: &[f64],
    ) {
        let nrows = c.len() / n;
        // The tiles' unchecked accesses stay inside these bounds.
        assert!(
            nrows > 0 && a.len() >= (i0 + nrows - 1) * a_stride + a_off + kc && b.len() >= kc * n,
            "tile operands out of bounds"
        );
        for k0 in (0..kc).step_by(tile) {
            let ks = tile.min(kc - k0);
            let mut r = 0;
            while r < nrows {
                let h = if nrows - r >= ROWS { ROWS } else { 1 };
                let ap = a[(i0 + r) * a_stride + a_off + k0..].as_ptr();
                for j in (0..n).step_by(COLS) {
                    let cp = c[r * n + j..].as_mut_ptr();
                    let bp = b[k0 * n + j..].as_ptr();
                    let w = (n - j).min(COLS);
                    // SAFETY: the assert above puts `A` rows
                    // `..i0 + nrows` at panel columns `..kc` and `B` rows
                    // `..kc` inside their slices, and `c` holds `nrows`
                    // rows of width `n`. The tile reads `A` rows
                    // `i0 + r..i0 + r + h <= i0 + nrows` at columns
                    // `k0..k0 + ks <= kc`, and touches `B` rows
                    // `k0..k0 + ks` and `C` rows `r..r + h` only in
                    // columns `j..j + w <= n`.
                    unsafe {
                        if h == ROWS {
                            tile_kernel::<ROWS>(cp, n, ap, a_stride, bp, ks, w);
                        } else {
                            tile_kernel::<1>(cp, n, ap, a_stride, bp, ks, w);
                        }
                    }
                }
                r += h;
            }
        }
    }

    /// `C[..R, ..w] += A[..R, ..ks] · B[..ks, ..w]` for one tile
    /// `w <= COLS` columns wide, in as few registers as cover `w`.
    ///
    /// # Safety
    ///
    /// `c` and `b` point at rows of width `n`, `a` at rows of stride
    /// `a_stride`. For every `t < R`, `k < ks` and `j < w`,
    /// `a[t·a_stride + k]` and `b[k·n + j]` must be readable and
    /// `c[t·n + j]` writable.
    #[inline(always)]
    unsafe fn tile_kernel<const R: usize>(
        c: *mut f64,
        n: usize,
        a: *const f64,
        a_stride: usize,
        b: *const f64,
        ks: usize,
        w: usize,
    ) {
        match w.div_ceil(LANES) {
            4 => tile_regs::<R, 4>(c, n, a, a_stride, b, ks, w),
            3 => tile_regs::<R, 3>(c, n, a, a_stride, b, ks, w),
            2 => tile_regs::<R, 2>(c, n, a, a_stride, b, ks, w),
            _ => tile_regs::<R, 1>(c, n, a, a_stride, b, ks, w),
        }
    }

    /// [`tile_kernel`] in `V` registers per row, `8·(V - 1) < w <= 8·V`.
    ///
    /// # Safety
    ///
    /// As for [`tile_kernel`].
    #[inline(always)]
    unsafe fn tile_regs<const R: usize, const V: usize>(
        c: *mut f64,
        n: usize,
        a: *const f64,
        a_stride: usize,
        b: *const f64,
        ks: usize,
        w: usize,
    ) {
        // Lanes at column `w` and past it are masked off. Their offsets
        // use `wrapping_add`, as they may lie past the end of a slice;
        // masked loads and stores never access them.
        let masks: [__mmask8; V] = std::array::from_fn(|v| {
            let lanes = w.saturating_sub(v * LANES).min(LANES);
            ((1u16 << lanes) - 1) as __mmask8
        });
        let mut acc: [[__m512d; V]; R] = std::array::from_fn(|t| {
            std::array::from_fn(|v| {
                _mm512_maskz_loadu_pd(masks[v], c.wrapping_add(t * n + v * LANES))
            })
        });
        for k in 0..ks {
            let bk = b.wrapping_add(k * n);
            let bv: [__m512d; V] = std::array::from_fn(|v| {
                _mm512_maskz_loadu_pd(masks[v], bk.wrapping_add(v * LANES))
            });
            for (t, row) in acc.iter_mut().enumerate() {
                let x = _mm512_set1_pd(*a.add(t * a_stride + k));
                for (s, &y) in row.iter_mut().zip(&bv) {
                    *s = _mm512_add_pd(*s, _mm512_mul_pd(x, y));
                }
            }
        }
        for (t, row) in acc.iter().enumerate() {
            for (v, &s) in row.iter().enumerate() {
                _mm512_mask_storeu_pd(c.wrapping_add(t * n + v * LANES), masks[v], s);
            }
        }
    }
}

/// `y = A · x` for a row-major `m × w` panel: `y[i] = Σ_j a[i·w+j]·x[j]`.
///
/// Each output element is an independent dot product, so rows split
/// over the configured threads; the per-row summation order is the
/// natural ascending j for every thread count (rule 2).
pub fn matvec_into(y: &mut [f64], a: &[f64], w: usize, x: &[f64]) {
    let m = y.len();
    assert_eq!(x.len(), w, "matvec x length");
    assert!(a.len() >= m * w, "matvec A panel short");
    if m == 0 {
        return;
    }
    let (_, threads) = config();
    let threads = threads.min(m);
    let rows_per = m.div_ceil(threads);
    let y_base = y.as_mut_ptr() as usize;
    pool::parallel_for(threads, threads, &move |part| {
        let i0 = part * rows_per;
        if i0 >= m {
            return; // ceil-division can leave trailing empty parts
        }
        let i1 = (i0 + rows_per).min(m);
        // SAFETY: disjoint output ranges; `y` outlives the blocking
        // parallel_for call.
        let ys = unsafe { std::slice::from_raw_parts_mut((y_base as *mut f64).add(i0), i1 - i0) };
        for (li, out) in ys.iter_mut().enumerate() {
            let row = &a[(i0 + li) * w..(i0 + li + 1) * w];
            *out = row.iter().zip(x).map(|(&av, &xv)| av * xv).sum();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Restore the thread's default config when dropped, so tests
    /// cannot leak a configuration into each other.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            configure(DEFAULT_TILE, 1);
        }
    }

    fn mm(m: usize, n: usize, kc: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        matmul_accumulate(&mut c, m, n, kc, a, kc, 0, b);
        c
    }

    fn pseudo(len: usize, seed: u64) -> Vec<f64> {
        // Simple LCG — enough spread to make FP association visible.
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// `C += A_panel · B` as written: per element, one mul then one
    /// add per k, in ascending k.
    #[allow(clippy::too_many_arguments)]
    fn scalar_reference(
        c: &mut [f64],
        m: usize,
        n: usize,
        kc: usize,
        a: &[f64],
        a_stride: usize,
        a_off: usize,
        b: &[f64],
    ) {
        for i in 0..m {
            for j in 0..n {
                let mut t = c[i * n + j];
                for k in 0..kc {
                    t += a[i * a_stride + a_off + k] * b[k * n + j];
                }
                c[i * n + j] = t;
            }
        }
    }

    #[test]
    fn matches_the_scalar_reference_bit_for_bit() {
        let _g = Restore;
        let specials = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::from_bits(1), // the least subnormal
            f64::MIN_POSITIVE / 3.0,
        ];
        // Sparse specials, so most results stay finite and a reordered
        // or fused sum still shows in their bits.
        let spiked = |len: usize, seed: u64| {
            let mut v = pseudo(len, seed);
            for (i, x) in v.iter_mut().enumerate().step_by(29) {
                *x = specials[(i / 29 + seed as usize) % specials.len()];
            }
            v
        };
        let mut case = 0u64;
        for m in 1..=13 {
            for n in [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 63, 65] {
                for kc in [1, 3, 4, 5, 64, 65, 130] {
                    case += 1;
                    // Every other case is a ring-matmul panel: columns
                    // `2..2 + kc` of a wider `A`.
                    let (a_stride, a_off) = if case.is_multiple_of(2) {
                        (kc, 0)
                    } else {
                        (kc + 3, 2)
                    };
                    let a = spiked(m * a_stride, case);
                    let b = spiked(kc * n, case + 7);
                    let mut c0 = pseudo(m * n, case + 13);
                    c0.iter_mut().step_by(5).for_each(|x| *x = -0.0);
                    let mut want = c0.clone();
                    scalar_reference(&mut want, m, n, kc, &a, a_stride, a_off, &b);
                    for (kernel, name) in [(KERNEL, "compiled"), ((portable_rows, 1), "portable")] {
                        for tile in [1, 3, 64, 1000] {
                            let threads = 1 + (case as usize + tile) % 3;
                            configure(tile, threads);
                            let mut got = c0.clone();
                            split_rows(kernel, &mut got, m, n, kc, &a, a_stride, a_off, &b);
                            for (idx, (x, y)) in want.iter().zip(&got).enumerate() {
                                // IEEE 754 leaves open which NaN a sum of
                                // two NaNs returns, and LLVM may swap an
                                // add's operands, so NaNs match as NaNs.
                                assert!(
                                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                                    "{name} kernel, {m}x{kc} · {kc}x{n}, A stride {a_stride} \
                                     offset {a_off}, tile {tile}, {threads} threads: \
                                     element {idx} is {y}, want {x}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn known_product() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0]; // 3x2
        assert_eq!(mm(2, 2, 3, &a, &b), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn tile_size_never_changes_a_bit() {
        let _g = Restore;
        let (m, kc, n) = (13, 29, 7); // awkward, non-divisible shapes
        let a = pseudo(m * kc, 1);
        let b = pseudo(kc * n, 2);
        configure(DEFAULT_TILE, 1);
        let reference = mm(m, n, kc, &a, &b);
        for tile in [1, 2, 3, 8, 64, 1000] {
            configure(tile, 1);
            let got = mm(m, n, kc, &a, &b);
            for (x, y) in reference.iter().zip(&got) {
                assert_eq!(x.to_bits(), y.to_bits(), "tile {tile} changed bits");
            }
        }
    }

    #[test]
    fn thread_count_never_changes_a_bit() {
        let _g = Restore;
        let (m, kc, n) = (17, 16, 11);
        let a = pseudo(m * kc, 3);
        let b = pseudo(kc * n, 4);
        configure(8, 1);
        let reference = mm(m, n, kc, &a, &b);
        for threads in [2, 3, 4, 8] {
            configure(8, threads);
            let got = mm(m, n, kc, &a, &b);
            for (x, y) in reference.iter().zip(&got) {
                assert_eq!(x.to_bits(), y.to_bits(), "{threads} threads changed bits");
            }
        }
    }

    #[test]
    fn panel_offset_and_stride() {
        // Multiply only columns 1..3 of a 2x4 A against a 2x2 B.
        let a = [9.0, 1.0, 2.0, 9.0, 9.0, 3.0, 4.0, 9.0];
        let b = [1.0, 0.0, 0.0, 1.0];
        let mut c = vec![0.0; 4];
        matmul_accumulate(&mut c, 2, 2, 2, &a, 4, 1, &b);
        assert_eq!(c, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn nan_and_inf_propagate_through_zero_factors() {
        // 0 · NaN = NaN and 0 · ∞ = NaN: a value-skipping kernel would
        // silently drop both contributions.
        let a = [0.0, 1.0]; // 1x2
        let b = [f64::NAN, 1.0, 1.0, 1.0]; // 2x2
        let c = mm(1, 2, 2, &a, &b);
        assert!(c[0].is_nan(), "0·NaN + 1·1 must be NaN, got {}", c[0]);
        assert_eq!(c[1], 1.0, "0·1 + 1·1: finite column unaffected");
        let binf = [f64::INFINITY, 1.0, 1.0, 1.0];
        let cinf = mm(1, 2, 2, &a, &binf);
        assert!(cinf[0].is_nan(), "0·∞ + 1·1 must be NaN, got {}", cinf[0]);
    }

    #[test]
    fn matvec_matches_matmul_column() {
        let _g = Restore;
        let (m, w) = (9, 23);
        let a = pseudo(m * w, 5);
        let x = pseudo(w, 6);
        let mut y = vec![0.0; m];
        matvec_into(&mut y, &a, w, &x);
        for threads in [2, 4] {
            configure(DEFAULT_TILE, threads);
            let mut yt = vec![0.0; m];
            matvec_into(&mut yt, &a, w, &x);
            for (p, q) in y.iter().zip(&yt) {
                assert_eq!(p.to_bits(), q.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn config_is_per_thread() {
        configure(7, 3);
        assert_eq!(config(), (7, 3));
        std::thread::spawn(|| {
            assert_eq!(config(), (DEFAULT_TILE, 1), "fresh thread gets defaults");
        })
        .join()
        .unwrap();
        configure(DEFAULT_TILE, 1);
    }

    #[test]
    #[ignore = "manual kernel throughput probe; run with --release --ignored --nocapture"]
    fn throughput_probe() {
        let _g = Restore;
        for n in [192, 477, 480, 512] {
            let a = pseudo(n * n, 7);
            let b = pseudo(n * n, 8);
            let mut c = vec![0.0; n * n];
            let reps = (2e9 / (2 * n * n * n) as f64).ceil() as usize;
            for threads in [1, 2] {
                configure(DEFAULT_TILE, threads);
                for (kernel, name) in [(KERNEL, "compiled"), ((portable_rows, 1), "portable")] {
                    let t0 = std::time::Instant::now();
                    for _ in 0..reps {
                        split_rows(kernel, &mut c, n, n, n, &a, n, 0, &b);
                    }
                    let secs = t0.elapsed().as_secs_f64();
                    let flops = (2 * n * n * n * reps) as f64;
                    println!(
                        "matmul n={n} threads={threads} {name}: {:.2} ms/mult, {:.2} GFLOP/s",
                        secs * 1e3 / reps as f64,
                        flops / secs / 1e9
                    );
                }
            }
        }
    }

    #[test]
    fn zero_clamps_to_one() {
        configure(0, 0);
        assert_eq!(config(), (1, 1));
        configure(DEFAULT_TILE, 1);
    }
}
