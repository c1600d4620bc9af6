//! `serve-mix`: an in-process `otterd` on a Unix socket and the closed
//! loop of clients that drives it.

use crate::host;
use crate::jobs::{drive, reference, verify, Collected, Limit, Outcome, Reference, ServeFacts};
use crate::spans::Recorder;
use crate::workloads::{
    Request, RequestMix, Script, BLOCK_COLD, BLOCK_HOT, CACHE_CAPACITY, WARMUP_BLOCKS,
};
use otter_metrics::Json;
use otter_serve::{JobOptions, JobReply, ServeClient, ServeConfig, Server, ServerHandle};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients: each is a caller that waits for its reply.
/// Never more than the host has cores.
pub const CLIENTS: usize = 2;
const MACHINE: &str = "meiko";

/// A running in-process daemon.
pub struct Daemon {
    thread: JoinHandle<std::io::Result<()>>,
    handle: ServerHandle,
    socket: PathBuf,
}

impl Daemon {
    pub fn start(workers: usize) -> Result<Daemon, String> {
        // A relative path: Unix socket addresses hold ~100 bytes and
        // the checkout may sit anywhere.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let out = host::out_dir();
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let socket = out.join(format!(
            "otterd-{}-{}.sock",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let server = Server::bind(ServeConfig {
            socket: socket.clone(),
            workers,
            cache_capacity: CACHE_CAPACITY,
            metrics_addr: None,
            postmortem_dir: out.join("postmortem"),
        })
        .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            thread,
            handle,
            socket,
        })
    }

    pub fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect_with_retry(&self.socket, Duration::from_secs(5))
            .map_err(|e| format!("connect {}: {e}", self.socket.display()))
    }

    /// Stop accepting, wait for the accept loop to end (it removes the
    /// socket file).
    pub fn stop(self) -> Result<(), String> {
        self.handle.request_stop();
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

/// Deterministic reply fields per `(script, ranks, cold)`; they must
/// repeat bit-for-bit.
type Exact = (u64, u64, u64);

/// One closed-loop client session.
pub struct Client {
    session: ServeClient,
    mix: RequestMix,
    hot: Arc<Vec<(Script, Reference)>>,
    seen: HashMap<(usize, usize, bool), Exact>,
}

fn scalar(reply: &JobReply, name: &str) -> Option<f64> {
    reply.body.get("scalars")?.get(name)?.as_num()
}

impl Client {
    /// One request round trip (the timed part), then verification.
    fn job(&mut self, rec: &Recorder, job: u64) -> Outcome {
        let req = self.mix.next().expect("the request mix is endless");
        self.request(&req, rec, job)
    }

    fn request(&mut self, req: &Request, rec: &Recorder, job: u64) -> Outcome {
        let hot = Arc::clone(&self.hot);
        let (script, reference) = &hot[req.script];
        let source = req.source(&script.app.script);
        rec.span("job", None, job, |span| {
            let started = Instant::now();
            let reply = rec.span("serve.request", span, job, |_| {
                self.session
                    .run(&source, JobOptions::default(), MACHINE, req.ranks, None)
            });
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let checked = rec.span("oracle.verify", span, job, |_| {
                let reply = reply.map_err(|e| format!("{}: {e}", script.app.id))?;
                verify(script.app.id, reference, |v| scalar(&reply, v))?;
                if let Some(tag) = req.cold {
                    if scalar(&reply, "coldtag") != Some(tag as f64) {
                        return Err(format!("{}: cold tag {tag} not echoed", script.app.id));
                    }
                }
                let num = |k: &str| reply.body.get(k).and_then(Json::as_num).unwrap_or(f64::NAN);
                let exact = (
                    num("modeled_seconds").to_bits(),
                    num("messages") as u64,
                    num("bytes") as u64,
                );
                let key = (req.script, req.ranks, req.cold.is_some());
                let first = *self.seen.entry(key).or_insert(exact);
                if first != exact {
                    return Err(format!(
                        "{}: exact reply fields differ at r={}: {exact:?} vs {first:?}",
                        script.app.id, req.ranks
                    ));
                }
                Ok(ServeFacts {
                    cold: req.cold.is_some(),
                    ranks: req.ranks,
                    compile_s: reply.compile_seconds,
                    run_s: reply.run_seconds,
                })
            });
            Outcome {
                wall_ms,
                error: checked.as_ref().err().cloned(),
                serve: checked.ok(),
            }
        })
    }

    pub fn ping(&mut self) -> Result<(), String> {
        self.session.ping()
    }

    /// `(hits, misses, evictions)` of the daemon's artifact cache.
    pub fn cache_stats(&mut self) -> Result<(f64, f64, f64), String> {
        let stats = self.session.stats()?;
        let num = |k: &str| {
            stats
                .get(k)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("stats reply lacks `{k}`"))
        };
        Ok((
            num("cache_hits")?,
            num("cache_misses")?,
            num("cache_evictions")?,
        ))
    }
}

/// `serve-mix` after set-up: the daemon, and connected clients with
/// the hot set primed.
pub struct Serve {
    daemon: Daemon,
    pub clients: Vec<Client>,
}

impl Serve {
    /// Set-up: interpreter references for the hot set, daemon bind,
    /// client connects, hot-set priming (one `compile` each, so the
    /// stream's hot requests all hit), then a verified warm-up of
    /// [`WARMUP_BLOCKS`] blocks per client, which fills the cache.
    pub fn setup(
        hot: &[Script],
        workers: usize,
        seed: u64,
        ranks: &'static [usize],
    ) -> Result<Serve, String> {
        let hot: Vec<(Script, Reference)> = hot
            .iter()
            .map(|s| Ok((s.clone(), reference(s)?)))
            .collect::<Result<_, String>>()?;
        let hot = Arc::new(hot);
        let daemon = Daemon::start(workers)?;
        let mut clients = (0..CLIENTS)
            .map(|c| {
                Ok(Client {
                    session: daemon.connect()?,
                    mix: RequestMix::new(seed, c as u64, ranks),
                    hot: Arc::clone(&hot),
                    seen: HashMap::new(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        for (script, _) in hot.iter() {
            clients[0]
                .session
                .compile(&script.app.script, JobOptions::default())
                .map_err(|e| format!("prime {}: {e}", script.app.id))?;
        }
        let serve = Serve { daemon, clients };
        let warmup = Limit::Count(WARMUP_BLOCKS * (BLOCK_HOT + BLOCK_COLD));
        let (collected, serve) = serve.measure(warmup, Arc::new(Recorder::new(false)));
        if let Some(e) = collected.outcomes.iter().find_map(|o| o.error.as_ref()) {
            return Err(format!("warm-up: {e}"));
        }
        serve.ok_or_else(|| "warm-up: a request hung".to_string())
    }

    /// Measure the closed loop until `limit` (per client).
    pub fn measure(mut self, limit: Limit, rec: Arc<Recorder>) -> (Collected, Option<Serve>) {
        let clients = std::mem::take(&mut self.clients);
        let (collected, clients) = drive(clients, limit, move |c, job| c.job(&rec, job));
        match clients {
            Some(clients) => {
                self.clients = clients;
                (collected, Some(self))
            }
            None => (collected, None),
        }
    }

    pub fn teardown(self) -> Result<(), String> {
        drop(self.clients);
        self.daemon.stop()
    }
}
