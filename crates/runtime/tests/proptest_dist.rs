//! Randomised (deterministic, seeded) tests for the distribution math
//! and the distributed run-time library, with the dense kernel as
//! oracle.

use otter_det::DetRng;
use otter_machine::meiko_cs2;
use otter_mpi::run_spmd;
use otter_rt::{Block, ColOp, Dense, DistMatrix};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// The block partition is exactly that: disjoint, contiguous,
/// covering, balanced.
#[test]
fn block_partition_invariants() {
    let mut rng = DetRng::seed_from_u64(0xD157_0001);
    for _ in 0..64 {
        let n = rng.gen_index(300);
        let p = 1 + rng.gen_index(16);
        let b = Block::new(n, p);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        let mut max_c = 0usize;
        let mut min_c = usize::MAX;
        for r in 0..p {
            assert_eq!(b.start(r), prev_end, "contiguous");
            covered += b.count(r);
            prev_end = b.end(r);
            max_c = max_c.max(b.count(r));
            min_c = min_c.min(b.count(r));
        }
        assert_eq!(covered, n, "covering");
        assert!(max_c - min_c <= 1, "balanced");
        for i in 0..n {
            let o = b.owner(i);
            assert!(b.range(o).contains(&i), "owner consistent");
            assert_eq!(b.start(o) + b.to_local(i), i, "local round-trip");
        }
    }
}

/// Distribute → gather is the identity for any shape and p.
#[test]
fn scatter_gather_identity() {
    let mut rng = DetRng::seed_from_u64(0xD157_0002);
    for _ in 0..12 {
        let rows = 1 + rng.gen_index(11);
        let cols = 1 + rng.gen_index(11);
        let p = 1 + rng.gen_index(8);
        let seed = rng.next_u64();
        let data: Vec<f64> = (0..rows * cols)
            .map(|k| ((k as u64).wrapping_mul(seed | 1) % 1000) as f64 / 7.0)
            .collect();
        let d = Dense::from_vec(rows, cols, data);
        let dd = d.clone();
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            DistMatrix::from_replicated(c, &dd).gather_all(c)
        });
        for r in &res {
            assert_eq!(&r.value, &d);
        }
    }
}

/// Distributed matmul equals dense matmul for random shapes.
#[test]
fn matmul_matches_dense() {
    let mut rng = DetRng::seed_from_u64(0xD157_0003);
    for _ in 0..12 {
        let m = 1 + rng.gen_index(9);
        let k = 2 + rng.gen_index(8);
        let n = 2 + rng.gen_index(8);
        let p = 1 + rng.gen_index(6);
        let seed = rng.next_u64();
        let gen = |rows: usize, cols: usize, salt: u64| {
            Dense::from_vec(
                rows,
                cols,
                (0..rows * cols)
                    .map(|i| (((i as u64 + salt).wrapping_mul(seed | 3)) % 17) as f64 - 8.0)
                    .collect(),
            )
        };
        let a = gen(m, k, 1);
        let b = gen(k, n, 2);
        let oracle = a.matmul(&b);
        let (aa, bb) = (a, b);
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            let da = DistMatrix::from_replicated(c, &aa);
            let db = DistMatrix::from_replicated(c, &bb);
            da.matmul(c, &db)?.gather_all(c)
        });
        for (x, y) in res[0].value.data().iter().zip(oracle.data()) {
            assert!(close(*x, *y), "{x} vs {y}");
        }
    }
}

/// Reductions on distributed data equal dense reductions.
#[test]
fn reductions_match_dense() {
    let mut rng = DetRng::seed_from_u64(0xD157_0004);
    for _ in 0..12 {
        let len = 1 + rng.gen_index(59);
        let p = 1 + rng.gen_index(8);
        let seed = rng.next_u64();
        let v: Vec<f64> = (0..len)
            .map(|i| (((i as u64).wrapping_mul(seed | 5)) % 1001) as f64 / 13.0 - 30.0)
            .collect();
        let d = Dense::row_vector(&v);
        let (sum0, max0, min0, norm0, trapz0) =
            (d.sum_all(), d.max_all(), d.min_all(), d.norm2(), d.trapz());
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            let x = DistMatrix::from_replicated(c, &d);
            Ok((
                x.reduce_all(c, ColOp::Sum)?,
                x.reduce_all(c, ColOp::Max)?,
                x.reduce_all(c, ColOp::Min)?,
                x.norm2(c)?,
                x.trapz(c)?,
            ))
        });
        for r in &res {
            assert!(close(r.value.0, sum0));
            assert_eq!(r.value.1, max0);
            assert_eq!(r.value.2, min0);
            assert!(close(r.value.3, norm0));
            assert!(close(r.value.4, trapz0));
        }
    }
}

/// circshift matches the dense oracle for any shift.
#[test]
fn circshift_matches_dense() {
    let mut rng = DetRng::seed_from_u64(0xD157_0005);
    for _ in 0..12 {
        let len = 1 + rng.gen_index(39);
        let p = 1 + rng.gen_index(7);
        let k = rng.gen_index(200) as i64 - 100;
        let seed = rng.next_u64();
        let v: Vec<f64> = (0..len).map(|i| ((i as u64 ^ seed) % 97) as f64).collect();
        let d = Dense::row_vector(&v);
        let oracle = d.circshift(k);
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            DistMatrix::from_replicated(c, &d)
                .circshift(c, k)?
                .gather_all(c)
        });
        for r in &res {
            assert_eq!(&r.value, &oracle, "len={} p={} k={}", len, p, k);
        }
    }
}

/// Transpose is an involution and matches dense.
#[test]
fn transpose_matches_dense() {
    let mut rng = DetRng::seed_from_u64(0xD157_0006);
    for _ in 0..12 {
        let rows = 1 + rng.gen_index(9);
        let cols = 1 + rng.gen_index(9);
        let p = 1 + rng.gen_index(5);
        let d = Dense::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|k| k as f64 * 1.5).collect(),
        );
        let oracle = d.transpose();
        let dd = d.clone();
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            let m = DistMatrix::from_replicated(c, &dd);
            let t = m.transpose(c)?;
            let tt = t.transpose(c)?;
            Ok((t.gather_all(c)?, tt.gather_all(c)?))
        });
        assert_eq!(&res[0].value.0, &oracle);
        assert_eq!(&res[0].value.1, &d);
    }
}

/// Every element has exactly one owner, on every rank count.
#[test]
fn owner_is_a_partition() {
    let mut rng = DetRng::seed_from_u64(0xD157_0007);
    for _ in 0..12 {
        let rows = 1 + rng.gen_index(13);
        let cols = 1 + rng.gen_index(5);
        let p = 1 + rng.gen_index(8);
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            let m = DistMatrix::zeros(c, rows, cols);
            let mut owned = 0usize;
            for i in 0..rows {
                for j in 0..cols {
                    if m.is_owner(i, j) {
                        owned += 1;
                    }
                }
            }
            Ok(owned)
        });
        let total: usize = res.iter().map(|r| r.value).sum();
        assert_eq!(total, rows * cols);
    }
}

/// Column reductions (sum/mean/prod/max/min/any/all) match the dense
/// kernel for every shape and rank count.
#[test]
fn column_reductions_match_dense() {
    let mut rng = DetRng::seed_from_u64(0xD157_0008);
    for _ in 0..10 {
        let rows = 1 + rng.gen_index(9);
        let cols = 1 + rng.gen_index(6);
        let p = 1 + rng.gen_index(5);
        let seed = rng.next_u64();
        let d = Dense::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|k| (((k as u64).wrapping_mul(seed | 7)) % 7) as f64 - 3.0)
                .collect(),
        );
        let oracle = (
            d.sum(),
            d.mean(),
            d.prod(),
            d.max(),
            d.min(),
            d.any(),
            d.all(),
        );
        let dd = d.clone();
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            let m = DistMatrix::from_replicated(c, &dd);
            Ok((
                m.col_reduce(c, ColOp::Sum)?.gather_all(c)?,
                m.col_reduce(c, ColOp::Mean)?.gather_all(c)?,
                m.col_reduce(c, ColOp::Prod)?.gather_all(c)?,
                m.col_reduce(c, ColOp::Max)?.gather_all(c)?,
                m.col_reduce(c, ColOp::Min)?.gather_all(c)?,
                m.col_reduce(c, ColOp::Any)?.gather_all(c)?,
                m.col_reduce(c, ColOp::All)?.gather_all(c)?,
            ))
        });
        let got = &res[0].value;
        for (i, (g, o)) in [
            (&got.0, &oracle.0),
            (&got.1, &oracle.1),
            (&got.2, &oracle.2),
            (&got.3, &oracle.3),
            (&got.4, &oracle.4),
            (&got.5, &oracle.5),
            (&got.6, &oracle.6),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!((g.rows(), g.cols()), (o.rows(), o.cols()), "op {} shape", i);
            for (x, y) in g.data().iter().zip(o.data()) {
                assert!(
                    close(*x, *y),
                    "op {i}: {x} vs {y} (rows={rows} cols={cols} p={p})"
                );
            }
        }
    }
}
