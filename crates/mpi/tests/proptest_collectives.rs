//! Randomised (deterministic, seeded) tests for the message-passing
//! substrate: collectives must equal their sequential specifications
//! for any payload and any rank count, and virtual time must behave
//! like time.

use otter_det::DetRng;
use otter_machine::{meiko_cs2, sparc20_cluster};
use otter_mpi::{run_spmd, ReduceOp};

/// allreduce(Sum) equals the sequential sum of per-rank
/// contributions, on every rank, for every machine shape.
#[test]
fn allreduce_sum_is_sequential_sum() {
    let mut rng = DetRng::seed_from_u64(0xC011_0001);
    for _ in 0..24 {
        let p = 1 + rng.gen_index(16);
        let len = rng.gen_index(20);
        let seed = rng.next_u64();
        let contribution = move |rank: usize| -> Vec<f64> {
            (0..len)
                .map(|i| {
                    ((rank as u64 + 1)
                        .wrapping_mul(i as u64 + 1)
                        .wrapping_mul(seed | 1)
                        % 1000) as f64
                        / 9.0
                })
                .collect()
        };
        let mut expect = vec![0.0; len];
        for r in 0..p {
            for (e, v) in expect.iter_mut().zip(contribution(r)) {
                *e += v;
            }
        }
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            c.allreduce(&contribution(c.rank()), ReduceOp::Sum)
        });
        for r in &res {
            for (got, want) in r.value.iter().zip(&expect) {
                assert!((got - want).abs() <= 1e-9 * (1.0 + want.abs()));
            }
        }
    }
}

/// Max/min allreduce equal the sequential extremes exactly.
#[test]
fn allreduce_extremes_exact() {
    let mut rng = DetRng::seed_from_u64(0xC011_0002);
    for _ in 0..24 {
        let p = 1 + rng.gen_index(16);
        let seed = rng.next_u64();
        let val =
            move |rank: usize| ((rank as u64 + 7).wrapping_mul(seed | 3) % 10007) as f64 - 5000.0;
        let expect_max = (0..p).map(val).fold(f64::NEG_INFINITY, f64::max);
        let expect_min = (0..p).map(val).fold(f64::INFINITY, f64::min);
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            Ok((
                c.allreduce_scalar(val(c.rank()), ReduceOp::Max)?,
                c.allreduce_scalar(val(c.rank()), ReduceOp::Min)?,
            ))
        });
        for r in &res {
            assert_eq!(r.value.0, expect_max);
            assert_eq!(r.value.1, expect_min);
        }
    }
}

/// Broadcast delivers the root's payload verbatim to all ranks, from
/// every root.
#[test]
fn broadcast_delivers_from_any_root() {
    let mut rng = DetRng::seed_from_u64(0xC011_0003);
    for _ in 0..24 {
        let p = 1 + rng.gen_index(12);
        let root = rng.gen_index(p);
        let len = rng.gen_index(16);
        let payload: Vec<f64> = (0..len).map(|i| i as f64 * 3.25).collect();
        let expect = payload.clone();
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            let data = if c.rank() == root {
                payload.clone()
            } else {
                vec![]
            };
            c.broadcast(root, &data)
        });
        for r in &res {
            assert_eq!(&r.value, &expect);
        }
    }
}

/// scatter ∘ gather round-trips per-rank payloads.
#[test]
fn scatter_gather_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0xC011_0004);
    for _ in 0..24 {
        let p = 1 + rng.gen_index(9);
        let seed = rng.next_u64();
        let parts: Vec<Vec<f64>> = (0..p)
            .map(|r| {
                (0..(r + seed as usize % 3))
                    .map(|i| (r * 100 + i) as f64)
                    .collect()
            })
            .collect();
        let expect = parts.clone();
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            let mine = c.scatter(0, &if c.rank() == 0 { parts.clone() } else { vec![] })?;
            c.gather(0, mine)
        });
        assert_eq!(res[0].value.as_ref().unwrap(), &expect);
        for r in &res[1..] {
            assert!(r.value.is_none());
        }
    }
}

/// Virtual clocks never run backwards and a barrier equalizes
/// everyone to at least the slowest rank's pre-barrier time.
#[test]
fn barrier_is_a_time_fence() {
    let mut rng = DetRng::seed_from_u64(0xC011_0005);
    for _ in 0..24 {
        let p = 2 + rng.gen_index(7);
        let slow = rng.gen_index(p);
        let res = run_spmd(&sparc20_cluster(), p, move |c| {
            if c.rank() == slow {
                c.compute(2e6);
            }
            let before = c.clock();
            c.barrier()?;
            let after = c.clock();
            Ok((before, after))
        });
        let slowest_before = res.iter().map(|r| r.value.0).fold(0.0, f64::max);
        for r in &res {
            assert!(r.value.1 >= r.value.0, "clock monotone");
            assert!(
                r.value.1 >= slowest_before,
                "rank {} passed the barrier at {} before the slowest rank reached it ({})",
                r.rank,
                r.value.1,
                slowest_before
            );
        }
    }
}

/// allgather gives every rank everyone's contribution in rank order.
#[test]
fn allgather_ordered() {
    let mut rng = DetRng::seed_from_u64(0xC011_0006);
    for _ in 0..12 {
        let p = 1 + rng.gen_index(8);
        let res = run_spmd(&meiko_cs2(), p, move |c| {
            c.allgather(&[c.rank() as f64, (c.rank() * 2) as f64])
        });
        for r in &res {
            assert_eq!(r.value.len(), p);
            for (i, part) in r.value.iter().enumerate() {
                assert_eq!(part.as_slice(), &[i as f64, (i * 2) as f64]);
            }
        }
    }
}
