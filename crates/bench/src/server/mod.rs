//! `sweepd` — the sweep-as-a-service daemon behind `--server` (DESIGN.md
//! §17).
//!
//! One long-lived process owns the expensive shared state — a
//! content-addressed [`TraceStore`] and a persistent [`ResultCache`] keyed
//! by `(trace digest, config digest, ISA version)` — and serves sweep
//! requests from the figure binaries over a hand-rolled HTTP/1.1 endpoint
//! (`std::net` only, like everything else in this workspace):
//!
//! * `GET /v1/health` — liveness + cache occupancy, JSON;
//! * `GET /v1/cache` — cache summary, JSON;
//! * `POST /v1/sweep` — a `helios-sweep-req-v1` grid request; the response
//!   streams `helios-sweepd-v1` JSONL: one `progress` event per finished
//!   cell, then a final `done` event carrying every cell's stats and every
//!   quarantined cell's outcome.
//!
//! Cells already in the cache are answered without simulating; fresh cells
//! run through the same [`SimRequest`] entrypoint the local executor uses
//! and are appended to the cache on success. Failures and timeouts are
//! reported with the local executor's [`CellOutcome`] vocabulary and are
//! never cached — they must stay retryable.
//!
//! **Fairness.** Jobs from concurrent clients are not FIFO: a worker
//! claims its next cell from jobs in round-robin order, so a late `--quick`
//! client makes progress while a 32-workload grid is in flight, instead of
//! queueing behind all 192 of its cells.
//!
//! **Failure semantics.** A client disconnect cancels its job: the next
//! event send fails, the job's remaining cells are dropped from the queue,
//! and in-flight cells finish (and still populate the cache) but go
//! nowhere. Daemon shutdown (SIGINT or [`Server::stop`]) stops accepting,
//! lets in-flight cells finish, and exits cleanly — the cache journal is
//! fsynced per append, so nothing already reported is ever lost.

pub mod cache;
pub mod client;
pub mod http;

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use helios::{FusionMode, Json, PipeConfig, SimError, SimRequest, SimStats, TraceStore, Workload};

use cache::{CellKey, ResultCache};

/// Schema tag on every streamed response line.
pub const EVENT_SCHEMA: &str = "helios-sweepd-v1";
/// Schema tag expected on `POST /v1/sweep` bodies.
pub const REQUEST_SCHEMA: &str = "helios-sweep-req-v1";

/// How often the accept loop polls the stop flag between connections.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Daemon configuration (CLI flags of `sweepd`).
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Simulation worker threads.
    pub jobs: usize,
    /// Directory holding the daemon's state: `results.jsonl` (the result
    /// cache journal) and `traces/` (the trace store).
    pub cache_dir: PathBuf,
    /// Wall-clock budget per cell (`None` = unbounded; the watchdog and
    /// cycle budget still bound runaway cells in simulated time).
    pub cell_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: helios::default_jobs(),
            cache_dir: helios::results_dir().join("sweepd"),
            cell_timeout: None,
        }
    }
}

/// One cell finishing, reported from a worker to the job's connection
/// handler.
struct CellEvent {
    workload: &'static str,
    mode: FusionMode,
    kind: CellDone,
}

enum CellDone {
    /// Simulated (or cache-answered) successfully.
    Ok { stats: Box<SimStats>, cached: bool },
    /// Failed (panic, deadlock, blown cycle budget, recording error).
    Failed { error: String },
    /// Blew the per-cell wall-clock budget.
    TimedOut { limit_ms: u64 },
}

/// A queued sweep job: the cells still to claim plus the channel back to
/// its connection handler.
struct Job {
    id: u64,
    cells: VecDeque<(Arc<Workload>, FusionMode)>,
    tx: mpsc::Sender<CellEvent>,
    cancelled: Arc<AtomicBool>,
}

/// Worker-facing queue state: active jobs plus the round-robin cursor.
struct Sched {
    jobs: Vec<Job>,
    /// Index of the job the next claim starts from — advanced past each
    /// claim so concurrent clients interleave cell-by-cell.
    rr: usize,
}

/// Every registered kernel by name, built once when the daemon starts and
/// shared by all requests: serving a request builds no kernel, so the
/// daemon's memory does not depend on how many requests overlap.
type Registry = HashMap<&'static str, Arc<Workload>>;

fn registry() -> Registry {
    helios::all_workloads()
        .into_iter()
        .map(|w| (w.name, Arc::new(w)))
        .collect()
}

struct Shared {
    workloads: Registry,
    sched: Mutex<Sched>,
    work_ready: Condvar,
    cache: Mutex<ResultCache>,
    store: TraceStore,
    cell_timeout: Option<Duration>,
    stop: AtomicBool,
    next_job: AtomicU64,
    sweeps_served: AtomicU64,
    cells_simulated: AtomicU64,
    cells_cached: AtomicU64,
}

/// One claimed cell plus the handles needed to report and cancel it.
struct Claim {
    workload: Arc<Workload>,
    mode: FusionMode,
    tx: mpsc::Sender<CellEvent>,
    cancelled: Arc<AtomicBool>,
}

impl Shared {
    /// Claims the next cell, round-robin across active jobs. Blocks until
    /// work arrives or the daemon stops; `None` means "shut down".
    fn claim(&self) -> Option<Claim> {
        let mut sched = self.sched.lock().expect("scheduler lock poisoned");
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return None;
            }
            let n = sched.jobs.len();
            for step in 0..n {
                let i = (sched.rr + step) % n;
                if sched.jobs[i].cells.is_empty() {
                    continue;
                }
                let (workload, mode) = sched.jobs[i].cells.pop_front().expect("non-empty");
                let tx = sched.jobs[i].tx.clone();
                let cancelled = sched.jobs[i].cancelled.clone();
                if sched.jobs[i].cells.is_empty() {
                    sched.jobs.remove(i);
                    sched.rr = if sched.jobs.is_empty() { 0 } else { i % sched.jobs.len() };
                } else {
                    sched.rr = (i + 1) % n;
                }
                return Some(Claim {
                    workload,
                    mode,
                    tx,
                    cancelled,
                });
            }
            sched = self
                .work_ready
                .wait_timeout(sched, Duration::from_millis(100))
                .expect("scheduler lock poisoned")
                .0;
        }
    }

    /// Drops a cancelled job's unclaimed cells from the queue.
    fn abort_job(&self, id: u64) {
        let mut sched = self.sched.lock().expect("scheduler lock poisoned");
        sched.jobs.retain(|j| j.id != id);
        if sched.rr >= sched.jobs.len() {
            sched.rr = 0;
        }
    }

    /// Runs one cell: cache lookup first, then record/replay + simulate.
    fn run_cell(&self, w: &Workload, mode: FusionMode) -> CellDone {
        let cfg = PipeConfig::with_fusion(mode);
        let key = CellKey::of(w, &cfg);
        if let Some(stats) = self.cache.lock().expect("cache lock poisoned").get(key) {
            self.cells_cached.fetch_add(1, Ordering::Relaxed);
            return CellDone::Ok {
                stats: Box::new(stats.clone()),
                cached: true,
            };
        }
        let trace = match w.stored(&self.store) {
            Ok(t) => t,
            Err(e) => {
                return CellDone::Failed {
                    error: format!("trace store: {e}"),
                }
            }
        };
        let deadline = self.cell_timeout.map(|d| Instant::now() + d);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            SimRequest::new(w, cfg)
                .replaying(&trace)
                .with_deadline(deadline)
                .try_run()
        }));
        match outcome {
            Ok(Ok(run)) => {
                self.cells_simulated.fetch_add(1, Ordering::Relaxed);
                let mut cache = self.cache.lock().expect("cache lock poisoned");
                if let Err(e) = cache.put(key, w.name, mode.name(), &run.stats) {
                    // A cache write failure costs a future re-simulation,
                    // never a wrong answer — warn and serve the result.
                    eprintln!("warning: sweepd: {e}");
                }
                CellDone::Ok {
                    stats: Box::new(run.stats),
                    cached: false,
                }
            }
            Ok(Err(SimError::WallClockTimeout { limit_ms, .. })) => {
                CellDone::TimedOut { limit_ms }
            }
            Ok(Err(e)) => CellDone::Failed {
                error: e.to_string(),
            },
            Err(payload) => CellDone::Failed {
                error: format!("panic: {}", helios::panic_message(&*payload)),
            },
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(claim) = shared.claim() {
        if claim.cancelled.load(Ordering::Relaxed) {
            continue;
        }
        let kind = shared.run_cell(&claim.workload, claim.mode);
        // A failed send means the handler is gone (client disconnect after
        // abort_job raced the claim); the result is already in the cache.
        let _ = claim.tx.send(CellEvent {
            workload: claim.workload.name,
            mode: claim.mode,
            kind,
        });
    }
}

/// The daemon: a bound listener plus its worker pool. Dropping the server
/// stops the workers and joins them.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, opens (or creates) the cache journal and trace
    /// store under `config.cache_dir`, and starts the worker pool.
    pub fn bind(config: &ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("bind {}: {e}", config.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let cache = ResultCache::open(&config.cache_dir.join("results.jsonl"))?;
        if cache.skipped() > 0 {
            eprintln!(
                "warning: sweepd: skipped {} stale/malformed cache line(s)",
                cache.skipped()
            );
        }
        let store = TraceStore::open(config.cache_dir.join("traces"))
            .map_err(|e| format!("trace store: {e}"))?;
        let shared = Arc::new(Shared {
            workloads: registry(),
            sched: Mutex::new(Sched {
                jobs: Vec::new(),
                rr: 0,
            }),
            work_ready: Condvar::new(),
            cache: Mutex::new(cache),
            store,
            cell_timeout: config.cell_timeout,
            stop: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            sweeps_served: AtomicU64::new(0),
            cells_simulated: AtomicU64::new(0),
            cells_cached: AtomicU64::new(0),
        });
        let workers = (0..config.jobs.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sweepd-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn worker")
            })
            .collect();
        Ok(Server {
            listener,
            shared,
            workers,
        })
    }

    /// The bound address (reports the kernel-chosen port when the config
    /// asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Asks the accept loop and workers to stop. In-flight cells finish.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
    }

    /// Serves connections until [`Server::stop`] is called or the process
    /// is interrupted (`helios::sweep_interrupted`). Each connection gets
    /// its own handler thread; worker threads do the simulating.
    pub fn run(&self) {
        loop {
            if self.shared.stop.load(Ordering::Relaxed) || helios::sweep_interrupted() {
                self.stop();
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = self.shared.clone();
                    std::thread::Builder::new()
                        .name("sweepd-conn".to_string())
                        .spawn(move || handle_connection(&shared, stream))
                        .expect("spawn connection handler");
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => {
                    eprintln!("warning: sweepd: accept: {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A validated `POST /v1/sweep` body.
struct SweepRequest {
    workloads: Vec<Arc<Workload>>,
    modes: Vec<FusionMode>,
}

fn parse_sweep_request(body: &[u8], registry: &Registry) -> Result<SweepRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(REQUEST_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported request schema `{other}`")),
        None => return Err("missing `schema`".to_string()),
    }
    let names = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("missing `workloads` array")?;
    let mut workloads = Vec::with_capacity(names.len());
    for n in names {
        let n = n.as_str().ok_or("non-string workload name")?;
        let w = registry.get(n).ok_or_else(|| format!("unknown workload `{n}`"))?;
        workloads.push(w.clone());
    }
    let modes = doc
        .get("modes")
        .and_then(Json::as_array)
        .ok_or("missing `modes` array")?
        .iter()
        .map(|m| {
            m.as_str()
                .and_then(FusionMode::parse)
                .ok_or_else(|| format!("unknown fusion mode {m}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if workloads.is_empty() || modes.is_empty() {
        return Err("empty grid".to_string());
    }
    Ok(SweepRequest { workloads, modes })
}

fn status_json(shared: &Shared) -> Json {
    let cache = shared.cache.lock().expect("cache lock poisoned");
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(EVENT_SCHEMA.to_string())),
        ("status".to_string(), Json::Str("ok".to_string())),
        ("cached_cells".to_string(), Json::Num(cache.len() as f64)),
        (
            "sweeps_served".to_string(),
            Json::Num(shared.sweeps_served.load(Ordering::Relaxed) as f64),
        ),
        (
            "cells_simulated".to_string(),
            Json::Num(shared.cells_simulated.load(Ordering::Relaxed) as f64),
        ),
        (
            "cells_from_cache".to_string(),
            Json::Num(shared.cells_cached.load(Ordering::Relaxed) as f64),
        ),
    ])
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    stream
        .set_nonblocking(false)
        .expect("connection sockets are blocking");
    // A peer that stops mid-request must not pin a handler thread forever.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set_read_timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let req = match http::read_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            let _ = http::write_error(&mut writer, 400, "Bad Request", &e.to_string());
            return;
        }
    };
    let outcome = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/health") | ("GET", "/v1/cache") => http::write_response(
            &mut writer,
            200,
            "OK",
            "application/json",
            status_json(shared).to_string().as_bytes(),
        ),
        ("POST", "/v1/sweep") => match parse_sweep_request(&req.body, &shared.workloads) {
            Ok(sweep) => {
                serve_sweep(shared, &mut writer, &sweep);
                Ok(())
            }
            Err(e) => http::write_error(&mut writer, 400, "Bad Request", &e),
        },
        (_, path) => http::write_error(
            &mut writer,
            404,
            "Not Found",
            &format!("no such endpoint `{path}`"),
        ),
    };
    if outcome.is_ok() {
        let _ = writer.flush();
    }
}

/// Streams one sweep: enqueue the grid, relay each cell event as a JSONL
/// `progress` line, then emit the final `done` line with all results.
fn serve_sweep(shared: &Shared, writer: &mut impl Write, req: &SweepRequest) {
    let total = req.workloads.len() * req.modes.len();
    let (tx, rx) = mpsc::channel();
    let cancelled = Arc::new(AtomicBool::new(false));
    let job_id = shared.next_job.fetch_add(1, Ordering::Relaxed);
    {
        let mut cells = VecDeque::with_capacity(total);
        for w in &req.workloads {
            for &mode in &req.modes {
                cells.push_back((w.clone(), mode));
            }
        }
        let mut sched = shared.sched.lock().expect("scheduler lock poisoned");
        sched.jobs.push(Job {
            id: job_id,
            cells,
            tx,
            cancelled: cancelled.clone(),
        });
    }
    shared.work_ready.notify_all();

    if http::write_stream_head(writer, "application/x-ndjson").is_err() {
        cancelled.store(true, Ordering::Relaxed);
        shared.abort_job(job_id);
        return;
    }
    let mut cells: Vec<Json> = Vec::with_capacity(total);
    let mut failures: Vec<Json> = Vec::new();
    let mut cache_hits = 0u64;
    let mut simulated = 0u64;
    for done in 0..total {
        let Ok(event) = rx.recv() else {
            // All workers gone (daemon stopping) — the stream just ends;
            // the client reports the missing `done` event as an error.
            return;
        };
        let source = match &event.kind {
            CellDone::Ok { cached: true, .. } => {
                cache_hits += 1;
                "cache"
            }
            CellDone::Ok { cached: false, .. } => {
                simulated += 1;
                "sim"
            }
            CellDone::Failed { .. } | CellDone::TimedOut { .. } => "error",
        };
        let progress = Json::Obj(vec![
            ("schema".to_string(), Json::Str(EVENT_SCHEMA.to_string())),
            ("event".to_string(), Json::Str("progress".to_string())),
            ("done".to_string(), Json::Num((done + 1) as f64)),
            ("total".to_string(), Json::Num(total as f64)),
            ("workload".to_string(), Json::Str(event.workload.to_string())),
            ("mode".to_string(), Json::Str(event.mode.name().to_string())),
            ("source".to_string(), Json::Str(source.to_string())),
        ]);
        if writeln!(writer, "{progress}").and_then(|()| writer.flush()).is_err() {
            cancelled.store(true, Ordering::Relaxed);
            shared.abort_job(job_id);
            return;
        }
        match event.kind {
            CellDone::Ok { stats, .. } => cells.push(Json::Obj(vec![
                ("workload".to_string(), Json::Str(event.workload.to_string())),
                ("mode".to_string(), Json::Str(event.mode.name().to_string())),
                (
                    "stats".to_string(),
                    Json::Obj(
                        stats
                            .to_kv()
                            .into_iter()
                            .map(|(k, v)| (k, Json::Num(v as f64)))
                            .collect(),
                    ),
                ),
            ])),
            CellDone::Failed { error } => failures.push(Json::Obj(vec![
                ("workload".to_string(), Json::Str(event.workload.to_string())),
                ("mode".to_string(), Json::Str(event.mode.name().to_string())),
                ("kind".to_string(), Json::Str("failed".to_string())),
                ("error".to_string(), Json::Str(error)),
            ])),
            CellDone::TimedOut { limit_ms } => failures.push(Json::Obj(vec![
                ("workload".to_string(), Json::Str(event.workload.to_string())),
                ("mode".to_string(), Json::Str(event.mode.name().to_string())),
                ("kind".to_string(), Json::Str("timed_out".to_string())),
                ("limit_ms".to_string(), Json::Num(limit_ms as f64)),
            ])),
        }
    }
    shared.sweeps_served.fetch_add(1, Ordering::Relaxed);
    let done = Json::Obj(vec![
        ("schema".to_string(), Json::Str(EVENT_SCHEMA.to_string())),
        ("event".to_string(), Json::Str("done".to_string())),
        ("total".to_string(), Json::Num(total as f64)),
        ("cache_hits".to_string(), Json::Num(cache_hits as f64)),
        ("simulated".to_string(), Json::Num(simulated as f64)),
        ("failures".to_string(), Json::Arr(failures)),
        ("cells".to_string(), Json::Arr(cells)),
    ]);
    let _ = writeln!(writer, "{done}").and_then(|()| writer.flush());
}
