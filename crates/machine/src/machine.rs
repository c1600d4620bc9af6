//! Machine descriptions: CPUs, links, topology.

/// Compute-rate model of one processor.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Human-readable name ("UltraSPARC 167 MHz").
    pub name: String,
    /// Sustained floating-point operations per second for *compiled*
    /// element-wise code (not peak; includes load/store traffic).
    pub flops: f64,
}

impl CpuModel {
    pub fn new(name: impl Into<String>, flops: f64) -> Self {
        assert!(flops > 0.0, "flops must be positive");
        CpuModel {
            name: name.into(),
            flops,
        }
    }

    /// Seconds per sustained floating-point operation.
    pub fn flop_time(&self) -> f64 {
        1.0 / self.flops
    }
}

/// Point-to-point link model: `time(bytes) = latency + bytes * byte_time`,
/// the classic α–β (Hockney) model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Per-message start-up latency α, in seconds.
    pub latency: f64,
    /// Per-byte transfer time 1/β, in seconds.
    pub byte_time: f64,
    /// Aggregate ceiling in bytes/second shared by all concurrent
    /// transfers on this fabric (`None` = fully switched, no ceiling).
    /// Models the single Ethernet segment of the SPARC-20 cluster and
    /// the memory bus of the Enterprise SMP.
    pub aggregate_bandwidth: Option<f64>,
}

impl LinkModel {
    pub fn new(latency: f64, bandwidth: f64) -> Self {
        assert!(latency >= 0.0 && bandwidth > 0.0);
        LinkModel {
            latency,
            byte_time: 1.0 / bandwidth,
            aggregate_bandwidth: None,
        }
    }

    /// Builder: set the shared aggregate-bandwidth ceiling.
    pub fn with_aggregate(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        self.aggregate_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Time to move `bytes` over this link with `concurrent` transfers
    /// sharing the fabric.
    pub fn transfer_time(&self, bytes: usize, concurrent: usize) -> f64 {
        let concurrent = concurrent.max(1) as f64;
        let per_byte = match self.aggregate_bandwidth {
            Some(agg) => {
                // Per-transfer effective bandwidth is the per-link rate
                // capped by its share of the fabric.
                let link_bw = 1.0 / self.byte_time;
                let eff = link_bw.min(agg / concurrent);
                1.0 / eff
            }
            None => self.byte_time,
        };
        self.latency + bytes as f64 * per_byte
    }
}

/// How processors are wired together.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Shared-memory SMP: every pair communicates through memory with
    /// one link model.
    SharedMemory(LinkModel),
    /// Switched distributed-memory machine: one link model per pair,
    /// no shared ceiling (Meiko CS-2 fat tree).
    Distributed(LinkModel),
    /// Cluster of SMP nodes: fast intra-node links, slow inter-node
    /// network (SPARC-20s on Ethernet). Ranks are assigned to nodes in
    /// contiguous blocks of `node_size`.
    ClusterOfSmps {
        node_size: usize,
        intra: LinkModel,
        inter: LinkModel,
    },
}

/// A modeled parallel computer.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Display name used in figures ("Meiko CS-2").
    pub name: String,
    pub cpu: CpuModel,
    pub topology: Topology,
    /// Number of CPUs the real machine had; sweeps stop here.
    pub max_cpus: usize,
}

impl Machine {
    /// Node index a rank lives on (identity except for clusters).
    pub fn node_of(&self, rank: usize) -> usize {
        match &self.topology {
            Topology::ClusterOfSmps { node_size, .. } => rank / node_size,
            _ => 0,
        }
    }

    /// The link model governing a `from → to` message.
    pub fn link(&self, from: usize, to: usize) -> &LinkModel {
        match &self.topology {
            Topology::SharedMemory(l) | Topology::Distributed(l) => l,
            Topology::ClusterOfSmps {
                node_size,
                intra,
                inter,
            } => {
                if from / node_size == to / node_size {
                    intra
                } else {
                    inter
                }
            }
        }
    }

    /// Modeled time for one `from → to` message of `bytes`, with
    /// `concurrent` transfers in flight on the same fabric.
    pub fn message_time(&self, from: usize, to: usize, bytes: usize, concurrent: usize) -> f64 {
        if from == to {
            // Self-messages model a local memcpy: no latency charge,
            // memory-bandwidth-ish cost folded into compute instead.
            return 0.0;
        }
        self.link(from, to).transfer_time(bytes, concurrent)
    }

    /// The machine as experienced by a compiler that *cannot* prove
    /// values are real (the ablation of the paper's §3 claim that
    /// "recognizing that a variable is of type real rather than type
    /// complex saves half the memory and significantly reduces the
    /// amount of time"): every element is a complex pair, so every
    /// message carries twice the bytes and every arithmetic operation
    /// is complex arithmetic (~3× the flops of the real case — a
    /// complex multiply is 4 multiplies + 2 adds).
    pub fn assuming_complex(&self) -> Machine {
        let degrade = |l: &LinkModel| LinkModel {
            latency: l.latency,
            byte_time: l.byte_time * 2.0,
            aggregate_bandwidth: l.aggregate_bandwidth.map(|b| b / 2.0),
        };
        let topology = match &self.topology {
            Topology::SharedMemory(l) => Topology::SharedMemory(degrade(l)),
            Topology::Distributed(l) => Topology::Distributed(degrade(l)),
            Topology::ClusterOfSmps {
                node_size,
                intra,
                inter,
            } => Topology::ClusterOfSmps {
                node_size: *node_size,
                intra: degrade(intra),
                inter: degrade(inter),
            },
        };
        Machine {
            name: format!("{} (complex-assumed)", self.name),
            cpu: CpuModel::new(format!("{} [complex]", self.cpu.name), self.cpu.flops / 3.0),
            topology,
            max_cpus: self.max_cpus,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Machine {
        Machine {
            name: "test-cluster".into(),
            cpu: CpuModel::new("cpu", 1e8),
            topology: Topology::ClusterOfSmps {
                node_size: 4,
                intra: LinkModel::new(1e-5, 100e6),
                inter: LinkModel::new(1e-3, 1e6).with_aggregate(1e6),
            },
            max_cpus: 16,
        }
    }

    #[test]
    fn alpha_beta_model() {
        let l = LinkModel::new(1e-5, 50e6);
        let t = l.transfer_time(1_000_000, 1);
        assert!((t - (1e-5 + 1_000_000.0 / 50e6)).abs() < 1e-12);
    }

    #[test]
    fn aggregate_ceiling_slows_concurrent_transfers() {
        let l = LinkModel::new(0.0, 10e6).with_aggregate(10e6);
        let alone = l.transfer_time(1_000_000, 1);
        let shared = l.transfer_time(1_000_000, 4);
        assert!(
            (shared / alone - 4.0).abs() < 1e-9,
            "shared={shared} alone={alone}"
        );
    }

    #[test]
    fn no_ceiling_means_full_speed() {
        let l = LinkModel::new(0.0, 10e6);
        assert_eq!(l.transfer_time(1000, 1), l.transfer_time(1000, 8));
    }

    #[test]
    fn cluster_rank_to_node() {
        let m = cluster();
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(3), 0);
        assert_eq!(m.node_of(4), 1);
        assert_eq!(m.node_of(15), 3);
    }

    #[test]
    fn cluster_intra_vs_inter_link() {
        let m = cluster();
        // Ranks 0 and 3 share a node: fast link.
        let fast = m.message_time(0, 3, 8000, 1);
        // Ranks 0 and 4 are on different nodes: Ethernet.
        let slow = m.message_time(0, 4, 8000, 1);
        assert!(slow > 10.0 * fast, "fast={fast} slow={slow}");
    }

    #[test]
    fn self_message_is_free() {
        let m = cluster();
        assert_eq!(m.message_time(2, 2, 1 << 20, 1), 0.0);
    }

    #[test]
    fn flop_time_inverts_flops() {
        let c = CpuModel::new("x", 2e8);
        assert!((c.flop_time() - 5e-9).abs() < 1e-18);
    }
}
