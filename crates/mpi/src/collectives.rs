//! MPI-style collective operations over [`Comm`], built from
//! point-to-point messages. Every rooted collective is parameterized
//! by a [`CollectiveAlgo`]: the binomial-tree schedules a 1998 MPICH
//! would use (`O(log p)` latency terms — the figures' speedup shapes
//! depend on this), or the naive linear schedules a first-cut run-time
//! library might have shipped (`O(p)`), kept for the collectives
//! ablation.
//!
//! Every collective is fallible: a dead or misbehaving peer surfaces
//! as a [`CommError`] on the ranks that notice, not as a panic inside
//! the rank thread.

use crate::comm::Comm;
use crate::error::CommError;
use crate::observe::Event;

/// Message schedule for the rooted collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollectiveAlgo {
    /// Binomial tree: `⌈log₂ p⌉` rounds.
    #[default]
    Tree,
    /// Root talks to every rank in turn: `O(p)` on the root's path.
    Linear,
}

impl CollectiveAlgo {
    /// Stable lowercase name, used in trace events and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            CollectiveAlgo::Tree => "tree",
            CollectiveAlgo::Linear => "linear",
        }
    }
}

/// Reduction operators supported by `reduce`/`allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Sum,
    Prod,
    Max,
    Min,
}

impl ReduceOp {
    /// Apply the operator element-wise, accumulating `src` into `dst`.
    pub fn fold(self, dst: &mut [f64], src: &[f64]) {
        assert_eq!(dst.len(), src.len(), "reduction buffers differ in length");
        match self {
            ReduceOp::Sum => dst.iter_mut().zip(src).for_each(|(d, s)| *d += s),
            ReduceOp::Prod => dst.iter_mut().zip(src).for_each(|(d, s)| *d *= s),
            ReduceOp::Max => dst.iter_mut().zip(src).for_each(|(d, s)| *d = d.max(*s)),
            ReduceOp::Min => dst.iter_mut().zip(src).for_each(|(d, s)| *d = d.min(*s)),
        }
    }

    /// Identity element of the operator.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }

    /// Stable lowercase name, used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Prod => "prod",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        }
    }
}

impl Comm {
    /// Broadcast `data` from `root` to every rank with an explicit
    /// schedule; returns the data on all ranks.
    pub fn broadcast_with(
        &mut self,
        root: usize,
        data: &[f64],
        algo: CollectiveAlgo,
    ) -> Result<Vec<f64>, CommError> {
        let t0 = self.clock();
        let out = match algo {
            CollectiveAlgo::Tree => self.broadcast_tree(root, data)?,
            CollectiveAlgo::Linear => self.broadcast_lin(root, data)?,
        };
        let (name, op) = ("broadcast", None);
        self.record(Event::Collective { name, algo, op, t0 });
        Ok(out)
    }

    /// Broadcast `data` from `root` using this endpoint's configured
    /// schedule ([`Comm::collective_algo`], tree by default).
    pub fn broadcast(&mut self, root: usize, data: &[f64]) -> Result<Vec<f64>, CommError> {
        self.broadcast_with(root, data, self.collective_algo())
    }

    /// Broadcast a single scalar from `root`.
    pub fn broadcast_scalar(&mut self, root: usize, v: f64) -> Result<f64, CommError> {
        Ok(self.broadcast(root, &[v])?[0])
    }

    /// Binomial tree: round `k` has up to `2^k` transfers in flight
    /// (passed as the fabric-sharing hint).
    fn broadcast_tree(&mut self, root: usize, data: &[f64]) -> Result<Vec<f64>, CommError> {
        let p = self.size();
        self.check_root(root, "broadcast root")?;
        if p == 1 {
            return Ok(data.to_vec());
        }
        // Work in a root-relative rank space so any root works.
        let vrank = (self.rank() + p - root) % p;
        let mut have: Option<Vec<f64>> = if vrank == 0 {
            Some(data.to_vec())
        } else {
            None
        };
        let rounds = p.next_power_of_two().trailing_zeros();
        for k in 0..rounds {
            let stride = 1usize << k;
            let stage_width = stride.min(p - stride); // transfers this round
            if vrank < stride {
                // This rank already has the data; it may need to send.
                let peer = vrank + stride;
                if peer < p {
                    let abs = (peer + root) % p;
                    let payload = have.as_ref().expect("tree invariant: holder has data");
                    let payload = payload.clone();
                    self.send_concurrent(abs, &payload, stage_width)?;
                }
            } else if vrank < stride * 2 {
                let peer = vrank - stride;
                let abs = (peer + root) % p;
                have = Some(self.recv(abs)?);
            }
        }
        Ok(have.expect("broadcast delivered to every rank"))
    }

    /// Linear schedule: the root sends to every other rank in turn.
    fn broadcast_lin(&mut self, root: usize, data: &[f64]) -> Result<Vec<f64>, CommError> {
        let p = self.size();
        self.check_root(root, "broadcast root")?;
        if self.rank() == root {
            for r in 0..p {
                if r != root {
                    self.send(r, data)?;
                }
            }
            Ok(data.to_vec())
        } else {
            self.recv(root)
        }
    }

    /// Reduce `data` element-wise with `op` onto `root` with an
    /// explicit schedule. Non-root ranks get `None`.
    pub fn reduce_with(
        &mut self,
        root: usize,
        data: &[f64],
        op: ReduceOp,
        algo: CollectiveAlgo,
    ) -> Result<Option<Vec<f64>>, CommError> {
        let t0 = self.clock();
        let out = match algo {
            CollectiveAlgo::Tree => self.reduce_tree(root, data, op)?,
            CollectiveAlgo::Linear => self.reduce_lin(root, data, op)?,
        };
        let (name, op) = ("reduce", Some(op));
        self.record(Event::Collective { name, algo, op, t0 });
        Ok(out)
    }

    /// Reduce onto `root` using this endpoint's configured schedule.
    pub fn reduce(
        &mut self,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>, CommError> {
        self.reduce_with(root, data, op, self.collective_algo())
    }

    /// Mirror image of the broadcast tree: fold up, largest stride
    /// first.
    fn reduce_tree(
        &mut self,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>, CommError> {
        let p = self.size();
        self.check_root(root, "reduce root")?;
        if p == 1 {
            return Ok(Some(data.to_vec()));
        }
        let vrank = (self.rank() + p - root) % p;
        let mut acc = data.to_vec();
        let rounds = p.next_power_of_two().trailing_zeros();
        for k in (0..rounds).rev() {
            let stride = 1usize << k;
            let stage_width = stride.min(p.saturating_sub(stride));
            if vrank < stride {
                let peer = vrank + stride;
                if peer < p {
                    let abs = (peer + root) % p;
                    let incoming = self.recv(abs)?;
                    op.fold(&mut acc, &incoming);
                    // Charge the fold as compute: one op per element.
                    self.compute(incoming.len() as f64);
                }
            } else if vrank < stride * 2 {
                let peer = vrank - stride;
                let abs = (peer + root) % p;
                let payload = acc.clone();
                self.send_concurrent(abs, &payload, stage_width)?;
            }
        }
        Ok(if vrank == 0 { Some(acc) } else { None })
    }

    /// Linear schedule: every rank sends to the root, which folds in
    /// rank order. Deterministic and `O(p)` on the root.
    fn reduce_lin(
        &mut self,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>, CommError> {
        let p = self.size();
        self.check_root(root, "reduce root")?;
        if self.rank() == root {
            let mut acc = data.to_vec();
            for r in 0..p {
                if r != root {
                    let incoming = self.recv(r)?;
                    op.fold(&mut acc, &incoming);
                    self.compute(incoming.len() as f64);
                }
            }
            Ok(Some(acc))
        } else {
            self.send(root, data)?;
            Ok(None)
        }
    }

    /// Reduce-to-all with an explicit schedule: reduce onto rank 0,
    /// then broadcast the result. (MPICH's small-message allreduce did
    /// exactly this.)
    pub fn allreduce_with(
        &mut self,
        data: &[f64],
        op: ReduceOp,
        algo: CollectiveAlgo,
    ) -> Result<Vec<f64>, CommError> {
        let t0 = self.clock();
        let partial = self.reduce_with(0, data, op, algo)?;
        let out = match partial {
            Some(v) => self.broadcast_with(0, &v, algo)?,
            None => self.broadcast_with(0, &[], algo)?,
        };
        let (name, op) = ("allreduce", Some(op));
        self.record(Event::Collective { name, algo, op, t0 });
        Ok(out)
    }

    /// Reduce-to-all using this endpoint's configured schedule.
    pub fn allreduce(&mut self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>, CommError> {
        self.allreduce_with(data, op, self.collective_algo())
    }

    /// Scalar all-reduce convenience.
    pub fn allreduce_scalar(&mut self, v: f64, op: ReduceOp) -> Result<f64, CommError> {
        Ok(self.allreduce(&[v], op)?[0])
    }

    /// Gather variable-length contributions onto `root`, concatenated
    /// in rank order. Non-root ranks get `None`. Always linear — the
    /// payloads differ per rank so a tree saves little, and gather in
    /// the generated code is I/O-bound anyway (paper §3 assumption 5:
    /// "one processor coordinates all I/O"). The caller's block is
    /// taken by value: the root moves it into its own part and every
    /// other rank moves it into the message, so nothing is copied.
    pub fn gather(
        &mut self,
        root: usize,
        mut data: Vec<f64>,
    ) -> Result<Option<Vec<Vec<f64>>>, CommError> {
        let p = self.size();
        self.check_root(root, "gather root")?;
        let t0 = self.clock();
        let out = if self.rank() == root {
            let mut parts: Vec<Vec<f64>> = Vec::with_capacity(p);
            for r in 0..p {
                if r == root {
                    parts.push(std::mem::take(&mut data));
                } else {
                    parts.push(self.recv(r)?);
                }
            }
            Some(parts)
        } else {
            self.send_payload(root, data, 1)?;
            None
        };
        let (name, algo, op) = ("gather", CollectiveAlgo::Linear, None);
        self.record(Event::Collective { name, algo, op, t0 });
        Ok(out)
    }

    /// Gather everyone's contribution to every rank (gather + bcast of
    /// the concatenation, with per-part lengths preserved).
    pub fn allgather(&mut self, data: &[f64]) -> Result<Vec<Vec<f64>>, CommError> {
        let p = self.size();
        if p == 1 {
            return Ok(vec![data.to_vec()]);
        }
        let t0 = self.clock();
        let gathered = self.gather(0, data.to_vec())?;
        // Flatten with a length header so the broadcast is one message.
        let flat = match gathered {
            Some(parts) => {
                let mut flat: Vec<f64> = Vec::new();
                flat.push(parts.len() as f64);
                for p in &parts {
                    flat.push(p.len() as f64);
                }
                for p in &parts {
                    flat.extend_from_slice(p);
                }
                self.broadcast(0, &flat)?
            }
            None => self.broadcast(0, &[])?,
        };
        let nparts = flat[0] as usize;
        let mut lens = Vec::with_capacity(nparts);
        for i in 0..nparts {
            lens.push(flat[1 + i] as usize);
        }
        let mut out = Vec::with_capacity(nparts);
        let mut off = 1 + nparts;
        for len in lens {
            out.push(flat[off..off + len].to_vec());
            off += len;
        }
        let (name, algo, op) = ("allgather", self.collective_algo(), None);
        self.record(Event::Collective { name, algo, op, t0 });
        Ok(out)
    }

    /// Scatter `parts[r]` to rank `r` from `root`; returns this rank's
    /// part. `parts` is only inspected on the root.
    pub fn scatter(&mut self, root: usize, parts: &[Vec<f64>]) -> Result<Vec<f64>, CommError> {
        let p = self.size();
        self.check_root(root, "scatter root")?;
        let t0 = self.clock();
        let out = if self.rank() == root {
            assert_eq!(parts.len(), p, "scatter needs one part per rank");
            for (r, part) in parts.iter().enumerate() {
                if r != root {
                    let payload = part.clone();
                    self.send(r, &payload)?;
                }
            }
            parts[root].clone()
        } else {
            self.recv(root)?
        };
        let (name, algo, op) = ("scatter", CollectiveAlgo::Linear, None);
        self.record(Event::Collective { name, algo, op, t0 });
        Ok(out)
    }

    /// Barrier: zero-byte allreduce.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        let t0 = self.clock();
        self.allreduce(&[], ReduceOp::Sum)?;
        let algo = self.collective_algo();
        self.record(Event::Barrier { algo, t0 });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_spmd, run_spmd_with, SpmdOptions};
    use otter_machine::{enterprise_smp, meiko_cs2, sparc20_cluster};

    #[test]
    fn broadcast_from_every_root() {
        for algo in [CollectiveAlgo::Tree, CollectiveAlgo::Linear] {
            for p in [1, 2, 3, 4, 5, 8] {
                for root in 0..p {
                    let res = run_spmd(&meiko_cs2(), p, |c| {
                        let data = if c.rank() == root {
                            vec![7.0, 8.0]
                        } else {
                            vec![]
                        };
                        c.broadcast_with(root, &data, algo)
                    });
                    for r in &res {
                        assert_eq!(
                            r.value,
                            vec![7.0, 8.0],
                            "algo={algo:?} p={p} root={root} rank={}",
                            r.rank
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_sums_across_ranks() {
        for p in [1, 2, 3, 4, 7, 8, 16] {
            let res = run_spmd(&meiko_cs2(), p, |c| {
                c.reduce(0, &[c.rank() as f64, 1.0], ReduceOp::Sum)
            });
            let expect_sum = (p * (p - 1) / 2) as f64;
            let got = res[0].value.as_ref().unwrap();
            assert_eq!(got[0], expect_sum, "p={p}");
            assert_eq!(got[1], p as f64);
            for r in &res[1..] {
                assert!(r.value.is_none());
            }
        }
    }

    #[test]
    fn reduce_max_min_prod() {
        let res = run_spmd(&meiko_cs2(), 5, |c| {
            let x = c.rank() as f64 + 1.0;
            Ok((
                c.allreduce_scalar(x, ReduceOp::Max)?,
                c.allreduce_scalar(x, ReduceOp::Min)?,
                c.allreduce_scalar(x, ReduceOp::Prod)?,
            ))
        });
        for r in &res {
            assert_eq!(r.value.0, 5.0);
            assert_eq!(r.value.1, 1.0);
            assert_eq!(r.value.2, 120.0);
        }
    }

    #[test]
    fn allreduce_agrees_on_all_ranks() {
        for p in [2, 3, 6, 16] {
            let res = run_spmd(&meiko_cs2(), p, |c| {
                c.allreduce(&[c.rank() as f64 * 2.0], ReduceOp::Sum)
            });
            let expect = (p * (p - 1)) as f64;
            for r in &res {
                assert_eq!(r.value, vec![expect], "p={p}");
            }
        }
    }

    #[test]
    fn linear_allreduce_matches_tree_allreduce() {
        for p in [1usize, 3, 8, 16] {
            let res = run_spmd(&meiko_cs2(), p, |c| {
                let mine = vec![c.rank() as f64 + 1.0];
                let lin = c.allreduce_with(&mine, ReduceOp::Sum, CollectiveAlgo::Linear)?;
                let tree = c.allreduce_with(&mine, ReduceOp::Sum, CollectiveAlgo::Tree)?;
                Ok((lin, tree))
            });
            for r in &res {
                // Values agree to FP-reassociation tolerance.
                assert!((r.value.0[0] - r.value.1[0]).abs() < 1e-12, "p={p}");
            }
        }
    }

    #[test]
    fn comm_level_algo_switches_every_collective() {
        // Configure Linear once at launch; un-suffixed calls follow it.
        let opts = SpmdOptions {
            algo: CollectiveAlgo::Linear,
            ..SpmdOptions::default()
        };
        let res = run_spmd_with(&meiko_cs2(), 4, opts, |c| {
            assert_eq!(c.collective_algo(), CollectiveAlgo::Linear);
            c.allreduce_scalar(c.rank() as f64, ReduceOp::Sum)
        })
        .unwrap();
        for r in &res {
            assert_eq!(r.value, 6.0);
        }
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            let mine = vec![c.rank() as f64; c.rank() + 1]; // variable lengths
            c.gather(0, mine)
        });
        let parts = res[0].value.as_ref().unwrap();
        assert_eq!(parts.len(), 4);
        for (r, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), r + 1);
            assert!(part.iter().all(|&v| v == r as f64));
        }
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let res = run_spmd(&meiko_cs2(), 3, |c| c.allgather(&[c.rank() as f64 + 10.0]));
        for r in &res {
            assert_eq!(r.value, vec![vec![10.0], vec![11.0], vec![12.0]]);
        }
    }

    #[test]
    fn scatter_distributes_parts() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            let parts: Vec<Vec<f64>> = if c.rank() == 1 {
                (0..4).map(|r| vec![r as f64 * 100.0]).collect()
            } else {
                vec![]
            };
            c.scatter(1, &parts)
        });
        for (r, res) in res.iter().enumerate() {
            assert_eq!(res.value, vec![r as f64 * 100.0]);
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let res = run_spmd(&meiko_cs2(), 4, |c| {
            if c.rank() == 2 {
                c.compute(1e7); // one slow rank
            }
            c.barrier()?;
            Ok(c.clock())
        });
        let slowest = 1e7 / 25e6;
        for r in &res {
            assert!(
                r.value >= slowest,
                "rank {} clock {} < {slowest}",
                r.rank,
                r.value
            );
        }
    }

    #[test]
    fn broadcast_latency_scales_logarithmically() {
        // Modeled broadcast time should grow ~log p, not ~p.
        let time_at = |p: usize| {
            let res = run_spmd(&meiko_cs2(), p, |c| {
                let v = c.broadcast(0, &[1.0])?;
                let _ = v;
                Ok(c.clock())
            });
            res.iter().map(|r| r.clock).fold(0.0, f64::max)
        };
        let t4 = time_at(4);
        let t16 = time_at(16);
        // log2(16)/log2(4) = 2; allow generous slack but reject linear (×4).
        assert!(t16 / t4 < 3.0, "t4={t4} t16={t16}");
    }

    #[test]
    fn tree_beats_linear_in_modeled_latency_at_scale() {
        let time = |algo: CollectiveAlgo| {
            let res = run_spmd(&meiko_cs2(), 16, move |c| {
                for _ in 0..10 {
                    c.broadcast_with(0, &[1.0], algo)?;
                }
                Ok(c.clock())
            });
            res.iter().map(|r| r.clock).fold(0.0, f64::max)
        };
        let t_tree = time(CollectiveAlgo::Tree);
        let t_linear = time(CollectiveAlgo::Linear);
        assert!(
            t_linear > 2.0 * t_tree,
            "linear {t_linear} should be much slower than tree {t_tree} at p=16"
        );
    }

    #[test]
    fn cluster_broadcast_pays_ethernet_once_per_node_at_best() {
        // On the SMP cluster, a 16-rank broadcast must cross the
        // Ethernet; modeled time should far exceed the SMP's.
        let cluster_t = {
            let res = run_spmd(&sparc20_cluster(), 16, |c| {
                c.broadcast(0, &vec![0.0; 1024])?;
                Ok(c.clock())
            });
            res.iter().map(|r| r.clock).fold(0.0, f64::max)
        };
        let smp_t = {
            let res = run_spmd(&enterprise_smp(), 8, |c| {
                c.broadcast(0, &vec![0.0; 1024])?;
                Ok(c.clock())
            });
            res.iter().map(|r| r.clock).fold(0.0, f64::max)
        };
        assert!(cluster_t > 10.0 * smp_t, "cluster={cluster_t} smp={smp_t}");
    }

    #[test]
    fn empty_payload_collectives_work() {
        let res = run_spmd(&meiko_cs2(), 3, |c| {
            let b = c.broadcast(0, &[])?;
            let r = c.allreduce(&[], ReduceOp::Sum)?;
            Ok((b.len(), r.len()))
        });
        for r in &res {
            assert_eq!(r.value, (0, 0));
        }
    }

    #[test]
    fn out_of_range_root_is_one_message_format() {
        let res = run_spmd_with(&meiko_cs2(), 2, SpmdOptions::default(), |c| {
            if c.rank() == 0 {
                c.broadcast(9, &[1.0])?;
            }
            Ok(())
        });
        let failure = res.unwrap_err();
        let f0 = failure
            .report
            .failures
            .iter()
            .find(|f| f.rank == 0)
            .unwrap();
        assert_eq!(f0.error.code(), "rank_out_of_range");
        assert_eq!(
            f0.error.to_string(),
            "rank 0: broadcast root rank 9 out of range 0..2"
        );
    }

    #[test]
    fn fold_identity() {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min] {
            let mut acc = vec![op.identity(); 3];
            op.fold(&mut acc, &[2.0, -1.0, 0.5]);
            assert_eq!(acc, vec![2.0, -1.0, 0.5], "{op:?}");
        }
    }
}
