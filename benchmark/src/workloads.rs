//! The four workloads: which scripts run, at which rank count, and —
//! for `serve-mix` — the seeded request stream.
//!
//! The seed jitters every problem size downward by a few elements
//! (which also yields non-divisible block remainders at p=4) and
//! orders the request stream. The program under test sees only the
//! generated scripts.

use otter_apps::{cg, nbody, ocean, transitive, App};
use otter_det::DetRng;

/// The dense kernel that dominates a script, with its dimension, for
/// the *computed* `rt.kernel_share`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `n × n` matrix–vector products (memory-bound).
    Matvec(usize),
    /// `n × n × n` matrix–matrix products (compute-bound).
    Matmul(usize),
    None,
}

/// One generated program with the rank count it runs at.
#[derive(Debug, Clone)]
pub struct Script {
    pub app: App,
    pub ranks: usize,
    pub kernel: Kernel,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A job is one `otter_core::run` of every script, in order.
    Batch,
    /// A job is one `run` request to an in-process `otterd`; the
    /// scripts are the hot set.
    Serve,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub scripts: Vec<Script>,
}

/// Workload names with the one-line reason each exists (the same text
/// as `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "kernel-p1",
        "cg then tc at p=1: otter-rt dense kernels (memory-bound matvec, compute-bound blocked matmul) do most of the work, so a kernel change shows here and nowhere else",
    ),
    (
        "dispatch-p1",
        "ocean then nbody at paper scale, p=1: 5000-element vectors and hundreds of small ops, so executor dispatch dominates and kernels do not",
    ),
    (
        "spmd-p4",
        "all four apps at large scale, p=4 over W workers: the same executor and kernels through distributed ops, rank spawn, mailboxes, collectives and parked recv",
    ),
    (
        "serve-mix",
        "in-process otterd on a Unix socket, closed loop, 2 clients, ranks from {1,2}, 85% hot-set cache hits and 15% never-seen scripts: what otterd users feel",
    ),
];

/// Hot-set size and artifact-cache capacity of `serve-mix`: the cache
/// holds the hot set plus 48 cold scripts before LRU eviction starts.
pub const HOT_SET: usize = 16;
pub const CACHE_CAPACITY: usize = 64;
/// Warm-up blocks per client: 2 clients × 8 blocks × 3 cold requests
/// fill the 48 free cache slots, so the measured window starts with the
/// cache full and evicting — its steady state.
pub const WARMUP_BLOCKS: usize = 8;
/// The stream is generated in shuffled blocks of 17 hot and 3 cold
/// requests, so every whole block has exactly an 0.85 hit share.
pub const BLOCK_HOT: usize = 17;
pub const BLOCK_COLD: usize = 3;
/// Rank counts of the measured stream. No r=4: at test scale a p=4 job
/// on more than one core stalls ~62 ms in a phase-dependent tenth of
/// its runs (README, *Noise findings*), which makes whole runs bimodal
/// (p90 3.0 vs 8.7 ms, 320 vs 1000 jobs/s). r=4 is measured where the
/// stall is persistent and so repeatable (`spmd-p4`) and by the
/// unbounded serve probe, which draws from [`PROBE_RANKS`].
pub const STREAM_RANKS: &[usize] = &[1, 2];
pub const PROBE_RANKS: &[usize] = &[1, 2, 4];

/// CG runs a fixed iteration count: with `tol = 0` the early exit
/// never fires (the synthetic system converges in three steps, so any
/// positive tolerance makes the work depend on rounding noise). The
/// residual keeps shrinking ~1e-5 per step, and `rho = r'·r` underflows
/// to 0 (then 0/0 = NaN) past ~30 steps: iteration counts stay ≤ 25.
fn cg_script(n: usize, iters: usize, ranks: usize) -> Script {
    let app = cg::conjugate_gradient(cg::Params { n, iters, tol: 0.0 });
    Script {
        app,
        ranks,
        kernel: Kernel::Matvec(n),
    }
}

fn tc_script(n: usize, ranks: usize) -> Script {
    let app = transitive::transitive_closure(transitive::Params { n });
    Script {
        app,
        ranks,
        kernel: Kernel::Matmul(n),
    }
}

fn ocean_script(nt: usize, nz: usize, ranks: usize) -> Script {
    let app = ocean::ocean_engineering(ocean::Params { nt, nz });
    Script {
        app,
        ranks,
        kernel: Kernel::None,
    }
}

fn nbody_script(n: usize, steps: usize, ranks: usize) -> Script {
    let app = nbody::n_body(nbody::Params { n, steps });
    Script {
        app,
        ranks,
        kernel: Kernel::None,
    }
}

/// Build a workload from its name and the seed.
///
/// Sizes are jittered *downward* by 0–3 elements: transitive closure
/// squares `ceil(log2 n)` times, so growing past a power of two would
/// change the job's work by a whole matmul.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut j = || rng.gen_index(4);
    let (kind, scripts) = match name {
        // Sized so a job is ~0.11 s (≥ 100 samples in a 20 s run) and
        // leans on tc: cg spends four fifths of its time building `A`
        // (outer products and elementwise ops over n² elements) at any
        // n, so its matvecs can never dominate a job.
        "kernel-p1" => (
            Kind::Batch,
            vec![cg_script(640 - j(), 24, 1), tc_script(480 - j(), 1)],
        ),
        "dispatch-p1" => {
            let (o, b) = (ocean::Params::paper(), nbody::Params::paper());
            (
                Kind::Batch,
                vec![
                    ocean_script(o.nt - j(), o.nz, 1),
                    nbody_script(b.n - j(), b.steps, 1),
                ],
            )
        }
        "spmd-p4" => {
            let (c, o) = (cg::Params::large(), ocean::Params::large());
            let (b, t) = (nbody::Params::large(), transitive::Params::large());
            (
                Kind::Batch,
                vec![
                    cg_script(c.n - j(), 24, 4),
                    ocean_script(o.nt - j(), o.nz, 4),
                    nbody_script(b.n - j(), b.steps, 4),
                    tc_script(t.n - j(), 4),
                ],
            )
        }
        // Four test-scale variants of each app; variant and seed both
        // move the size, so all sixteen sources are distinct.
        "serve-mix" => {
            let (c, o) = (cg::Params::test(), ocean::Params::test());
            let (b, t) = (nbody::Params::test(), transitive::Params::test());
            let mut scripts = Vec::with_capacity(HOT_SET);
            for v in 0..HOT_SET / 4 {
                let ranks = |k: usize| PROBE_RANKS[(v + k) % PROBE_RANKS.len()];
                scripts.push(cg_script(c.n - 4 * v - j(), c.iters, ranks(0)));
                scripts.push(ocean_script(o.nt - 4 * v - j(), o.nz, ranks(1)));
                scripts.push(nbody_script(b.n - 4 * v - j(), b.steps, ranks(2)));
                scripts.push(tc_script(t.n - 4 * v - j(), ranks(3)));
            }
            (Kind::Serve, scripts)
        }
        _ => return None,
    };
    let name = WORKLOADS.iter().find(|(n, _)| *n == name)?.0;
    Some(Workload {
        name,
        kind,
        scripts,
    })
}

/// One `serve-mix` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Index into the hot set.
    pub script: usize,
    pub ranks: usize,
    /// `Some(tag)`: a never-seen variant of the hot script — the same
    /// program plus a trailing `coldtag = <tag>;`, so it hashes to a
    /// new cache key (miss → compile → insert → LRU eviction) while
    /// its result variables keep the hot script's reference values.
    pub cold: Option<u64>,
}

impl Request {
    /// The program text, given the hot script's (`base`).
    pub fn source(&self, base: &str) -> String {
        match self.cold {
            Some(tag) => format!("{base}coldtag = {tag};\n"),
            None => base.to_string(),
        }
    }
}

/// A client's endless request stream: shuffled blocks of
/// [`BLOCK_HOT`] hot and [`BLOCK_COLD`] cold requests. Cold tags are
/// unique per `(client, sequence)`.
pub struct RequestMix {
    rng: DetRng,
    client: u64,
    ranks: &'static [usize],
    issued_cold: u64,
    block: Vec<Request>,
}

impl RequestMix {
    pub fn new(seed: u64, client: u64, ranks: &'static [usize]) -> Self {
        RequestMix {
            rng: DetRng::seed_from_u64(seed ^ (client + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            client,
            ranks,
            issued_cold: 0,
            block: Vec::new(),
        }
    }

    fn refill(&mut self) {
        for i in 0..BLOCK_HOT + BLOCK_COLD {
            let cold = (i >= BLOCK_HOT).then(|| {
                self.issued_cold += 1;
                (self.client + 1) * 1_000_000_000 + self.issued_cold
            });
            self.block.push(Request {
                script: self.rng.gen_index(HOT_SET),
                ranks: self.ranks[self.rng.gen_index(self.ranks.len())],
                cold,
            });
        }
        // Fisher–Yates.
        for i in (1..self.block.len()).rev() {
            self.block.swap(i, self.rng.gen_index(i + 1));
        }
    }
}

impl Iterator for RequestMix {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_and_is_deterministic_per_seed() {
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
            let a = build(name, 7).unwrap();
            let b = build(name, 7).unwrap();
            let c = build(name, 8).unwrap();
            let src = |w: &Workload| -> Vec<String> {
                w.scripts.iter().map(|s| s.app.script.clone()).collect()
            };
            assert_eq!(src(&a), src(&b), "{name}: same seed, same scripts");
            assert_ne!(src(&a), src(&c), "{name}: the seed reaches the scripts");
        }
        assert!(build("nope", 1).is_none());
    }

    #[test]
    fn serve_hot_set_has_sixteen_distinct_sources_over_all_rank_choices() {
        let w = build("serve-mix", 1998).unwrap();
        assert_eq!(w.scripts.len(), HOT_SET);
        let mut sources: Vec<&str> = w.scripts.iter().map(|s| s.app.script.as_str()).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), HOT_SET);
        for &r in PROBE_RANKS {
            assert!(w.scripts.iter().any(|s| s.ranks == r));
        }
    }

    #[test]
    fn transitive_closure_jitter_never_crosses_a_power_of_two() {
        for seed in 0..32 {
            for name in ["kernel-p1", "spmd-p4"] {
                for s in build(name, seed).unwrap().scripts {
                    if let Kernel::Matmul(n) = s.kernel {
                        let base = if name == "kernel-p1" { 480.0f64 } else { 192.0 };
                        assert_eq!((n as f64).log2().ceil(), base.log2().ceil());
                    }
                }
            }
        }
    }

    #[test]
    fn request_mix_is_deterministic_with_the_stated_split() {
        let a: Vec<Request> = RequestMix::new(5, 0, PROBE_RANKS).take(400).collect();
        let b: Vec<Request> = RequestMix::new(5, 0, PROBE_RANKS).take(400).collect();
        assert_eq!(a, b);
        let other_client: Vec<Request> = RequestMix::new(5, 1, PROBE_RANKS).take(400).collect();
        assert_ne!(a, other_client);
        let other_seed: Vec<Request> = RequestMix::new(6, 0, PROBE_RANKS).take(400).collect();
        assert_ne!(a, other_seed);

        // Every whole block of 20 holds exactly 17 hot and 3 cold.
        for block in a.chunks(BLOCK_HOT + BLOCK_COLD) {
            assert_eq!(
                block.iter().filter(|r| r.cold.is_some()).count(),
                BLOCK_COLD
            );
        }
        let cold: Vec<u64> = a.iter().filter_map(|r| r.cold).collect();
        assert_eq!(cold.len() * 20, a.len() * 3, "0.15 cold share");
        let mut unique = cold.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), cold.len(), "cold tags never repeat");
        let other: Vec<u64> = other_client.iter().filter_map(|r| r.cold).collect();
        assert!(
            cold.iter().all(|t| !other.contains(t)),
            "nor across clients"
        );
        assert!(a
            .iter()
            .all(|r| r.script < HOT_SET && PROBE_RANKS.contains(&r.ranks)));
        let stream: Vec<Request> = RequestMix::new(5, 0, STREAM_RANKS).take(400).collect();
        assert!(stream.iter().all(|r| STREAM_RANKS.contains(&r.ranks)));
    }

    #[test]
    fn cold_source_is_the_hot_source_plus_a_tag() {
        let w = build("serve-mix", 3).unwrap();
        let hot = Request {
            script: 2,
            ranks: 1,
            cold: None,
        };
        let cold = Request {
            cold: Some(42),
            ..hot.clone()
        };
        let base = &w.scripts[2].app.script;
        assert_eq!(&hot.source(base), base);
        assert_eq!(cold.source(base), format!("{base}coldtag = 42;\n"));
    }
}
