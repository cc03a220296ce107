//! `serve-warm`: the real `serve` daemon as a child process, its result
//! cache filled by set-up with the quick-set grid. Closed-loop clients
//! then send seeded sub-grids; every cell is a cache hit, so only HTTP,
//! request validation, cache lookup, JSONL streaming and client
//! reassembly run.

use crate::bench::{self, Ctx, Outcome, Size};
use crate::metrics::Metrics;
use crate::plan::{self, Request};
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use helios::{FusionMode, Json, PipeConfig, Sweep, TraceStore, Workload};
use helios_bench::server::cache::{CellKey, ResultCache};
use helios_bench::server::client::{remote_sweep_with_summary, RemoteSummary};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Sequential raw-socket requests of the traced run's server probe.
const PROBE_REQUESTS: usize = 24;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let bin = ctx
        .serve_bin
        .as_deref()
        .ok_or("serve-warm needs --serve-bin")?;
    let pool: Vec<Workload> = match ctx.size {
        Size::Full => helios::all_workloads()
            .into_iter()
            .filter(|w| helios_bench::QUICK_SET.contains(&w.name))
            .collect(),
        Size::Tiny => ctx.kernels(),
    };
    let names: Vec<&'static str> = pool.iter().map(|w| w.name).collect();
    let by_name: HashMap<&str, &Workload> = pool.iter().map(|w| (w.name, w)).collect();

    // Set-up: start a daemon on a fresh cache dir and fill its cache with
    // the pool × every-mode grid, then serve from a second daemon started
    // on the filled dir. The filling daemon recorded and simulated every
    // cell, so the serving daemon's peak RSS covers only loading the cache
    // and warm serving. The client builds its kernels.
    let (daemon, setup_times) = bench::repeat_setup(ctx.setups(3), |i| {
        let dir = ctx.work.join(format!("sweepd-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let filler = Daemon::start(bin, &dir, ctx.jobs)?;
        let (sweep, summary) = remote_sweep_with_summary(&filler.url, &pool, &FusionMode::ALL)?;
        let cells = pool.len() * FusionMode::ALL.len();
        if summary.simulated as usize != cells || !all_golden(ctx, &sweep, &names, &FusionMode::ALL)
        {
            return Err(format!(
                "cache fill: {} of {cells} cells simulated, or a cell failed its output check",
                summary.simulated
            ));
        }
        drop(filler);
        let d = Daemon::start(bin, &dir, ctx.jobs)?;
        std::hint::black_box(helios::all_workloads());
        Ok::<_, String>(d)
    });
    let daemon = daemon?;
    out.e2e.set("setup_s", stats::median(&setup_times));
    out.note_each("setup_s", &setup_times);
    let health0 = daemon.health()?;

    let clients = ctx.jobs.min(2);
    let seconds = if ctx.traced { 0.0 } else { ctx.seconds };
    let w = window(ctx, &daemon.url, &by_name, &names, clients, seconds, None);
    for &ok in &w.ok {
        out.record(ok);
    }
    let req = Summary::of(&w.latency_ms);
    let secs: f64 = w.walls.iter().sum();
    let req_per_s = w.ok.iter().filter(|&&k| k).count() as f64 / secs;
    out.e2e.set("wall_s", stats::median(&w.walls));
    out.e2e
        .set("peak_rss_mb", daemon.peak_rss_mb().unwrap_or(f64::NAN));
    out.e2e.put("req_ms_p50", "ms", req.p50);
    if let Some((p, v)) = req.tail {
        out.e2e
            .put(&format!("req_ms_p{}", stats::fmt_pct(p)), "ms", v);
    }
    out.e2e.put("req_per_s", "req/s", req_per_s);
    out.e2e.put("requests", "count", w.ok.len() as f64);
    out.note_each("wall_s", &w.walls);
    out.note("req_ms", &req, "ms");

    if ctx.traced {
        let tracer = Tracer::new();
        let tw = window(
            ctx,
            &daemon.url,
            &by_name,
            &names,
            clients,
            seconds,
            Some(&tracer),
        );
        for &ok in &tw.ok {
            out.record(ok);
        }
        let l = &mut out.layers;
        bench::record_overhead(l, w.walls[0], tw.walls[0]);
        let probes = match ctx.size {
            Size::Full => PROBE_REQUESTS,
            Size::Tiny => 3,
        };
        let pr = probe(ctx, &daemon.url, &by_name, &names, probes, &tracer);
        for &ok in &pr.ok {
            out.record(ok);
        }
        let l = &mut out.layers;
        l.set(
            "server.ttfb_ms_p50",
            stats::median(&tracer.durations_s("server.ttfb")) * 1e3,
        );
        l.set(
            "server.stream_ms_p50",
            stats::median(&tracer.durations_s("server.stream")) * 1e3,
        );
        l.set("client.assemble_ms", stats::median(&pr.client_ms));
        let health1 = daemon.health()?;
        l.set(
            "server.cells_cached",
            (health1.cached - health0.cached) as f64,
        );
        l.set(
            "server.cells_simulated",
            (health1.simulated - health0.simulated) as f64,
        );
        bench::timed_build(l);
        bench::timed_lookups(l, &names);
        out.failed += probe_cache(&daemon.dir, &pool, &ctx.work, l)?;
        out.tracer = Some(tracer);
    }
    Ok(out)
}

/// Whether every cell of `names` × `modes` in `sweep` matches its golden.
fn all_golden(ctx: &Ctx, sweep: &Sweep, names: &[&str], modes: &[FusionMode]) -> bool {
    sweep.failures().is_empty()
        && names.iter().all(|w| {
            modes
                .iter()
                .all(|&m| sweep.get(w, m).is_some_and(|s| ctx.golden.matches(w, m, s)))
        })
}

/// Whether a library-client response is a correct warm answer: every cell
/// matches its golden and none was simulated, so the cache served it.
fn warm_ok(ctx: &Ctx, res: Result<(Sweep, RemoteSummary), String>, r: &Request) -> bool {
    match res {
        Ok((_, summary)) if summary.simulated > 0 => {
            eprintln!(
                "perfbench: serve-warm: {} cell(s) of a warm request were simulated",
                summary.simulated
            );
            false
        }
        Ok((sweep, _)) => all_golden(ctx, &sweep, &r.workloads, &r.modes),
        Err(e) => {
            eprintln!("perfbench: serve-warm: request failed: {e}");
            false
        }
    }
}

/// The requests of one measurement window.
struct Window {
    /// Host seconds of each pass.
    walls: Vec<f64>,
    latency_ms: Vec<f64>,
    ok: Vec<bool>,
}

/// Runs passes for `seconds` (at least one). In each pass `clients`
/// closed-loop clients take the pass's seeded requests in turn, send each
/// through the library client, and check every returned cell.
fn window(
    ctx: &Ctx,
    url: &str,
    by_name: &HashMap<&str, &Workload>,
    names: &[&'static str],
    clients: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Window {
    let passes = bench::repeat_passes(seconds, |p| {
        let reqs = plan::pass_requests(ctx.seed, p as u64, names);
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(reqs.len()));
        std::thread::scope(|s| {
            for _ in 0..clients.max(1) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(r) = reqs.get(i) else { break };
                    let ws: Vec<Workload> =
                        r.workloads.iter().map(|n| by_name[n].clone()).collect();
                    let id = (p * reqs.len() + i) as u64;
                    let t0 = Instant::now();
                    let res = match tracer {
                        Some(t) => t.span("client.remote_sweep", id, None, |_| {
                            remote_sweep_with_summary(url, &ws, &r.modes)
                        }),
                        None => remote_sweep_with_summary(url, &ws, &r.modes),
                    };
                    let ms = bench::ms_since(t0);
                    let ok = warm_ok(ctx, res, r);
                    done.lock().expect("poisoned").push((ms, ok));
                });
            }
        });
        done.into_inner().expect("poisoned")
    });
    let mut w = Window {
        walls: Vec::new(),
        latency_ms: Vec::new(),
        ok: Vec::new(),
    };
    for (reqs, wall) in passes {
        w.walls.push(wall);
        for (ms, ok) in reqs {
            w.latency_ms.push(ms);
            w.ok.push(ok);
        }
    }
    w
}

/// What the traced run's probe measured.
struct Probe {
    ok: Vec<bool>,
    /// Per request: the library client's time minus the raw request's, ms.
    client_ms: Vec<f64>,
}

/// Sequential probe requests, each sent twice. First over a raw socket,
/// split into back-to-back spans: connect → first byte (`server.ttfb`) and
/// first byte → `done` event (`server.stream`). Then through the library
/// client (`client.sweep`). The library call does the same exchange and
/// then parses the cells and reassembles the sweep, so its extra time over
/// the raw request is the client's own share.
fn probe(
    ctx: &Ctx,
    url: &str,
    by_name: &HashMap<&str, &Workload>,
    names: &[&'static str],
    n: usize,
    tracer: &Tracer,
) -> Probe {
    let authority = url.trim_start_matches("http://").to_string();
    let mut p = Probe {
        ok: Vec::new(),
        client_ms: Vec::new(),
    };
    for (i, r) in plan::pass_requests(ctx.seed, u64::MAX, names)
        .into_iter()
        .take(n)
        .enumerate()
    {
        let id = i as u64;
        let t0 = Instant::now();
        let raw = tracer.span("server.request", id, None, |parent| {
            let mut reader = tracer.span("server.ttfb", id, Some(parent), |_| {
                send_request(&authority, &r)
            })?;
            let done = tracer.span("server.stream", id, Some(parent), |_| {
                read_done_event(&mut reader)
            })?;
            Ok::<_, String>(
                done.get("cells")
                    .and_then(Json::as_array)
                    .map_or(0, <[Json]>::len),
            )
        });
        let raw_ms = bench::ms_since(t0);
        let raw_ok = match raw {
            Ok(cells) => cells == r.workloads.len() * r.modes.len(),
            Err(e) => {
                eprintln!("perfbench: serve-warm: probe request failed: {e}");
                false
            }
        };
        let ws: Vec<Workload> = r.workloads.iter().map(|n| by_name[n].clone()).collect();
        let t1 = Instant::now();
        let res = tracer.span("client.sweep", id, None, |_| {
            remote_sweep_with_summary(url, &ws, &r.modes)
        });
        p.client_ms.push(bench::ms_since(t1) - raw_ms);
        p.ok.push(raw_ok && warm_ok(ctx, res, &r));
    }
    p
}

fn request_body(r: &Request) -> String {
    let strs = |v: Vec<&str>| Json::Arr(v.into_iter().map(|s| Json::Str(s.to_string())).collect());
    Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str(helios_bench::server::REQUEST_SCHEMA.to_string()),
        ),
        ("workloads".to_string(), strs(r.workloads.clone())),
        (
            "modes".to_string(),
            strs(r.modes.iter().map(|m| m.name()).collect()),
        ),
    ])
    .to_string()
}

/// Connects, sends the sweep request, and waits for the first response
/// byte.
fn send_request(authority: &str, r: &Request) -> Result<BufReader<TcpStream>, String> {
    let mut stream = TcpStream::connect(authority).map_err(|e| format!("connect: {e}"))?;
    let body = request_body(r);
    write!(
        stream,
        "POST /v1/sweep HTTP/1.1\r\nHost: {authority}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    if reader
        .fill_buf()
        .map_err(|e| format!("read: {e}"))?
        .is_empty()
    {
        return Err("connection closed before a response".to_string());
    }
    Ok(reader)
}

/// Reads the status line, headers and event stream up to the `done` event.
fn read_done_event(reader: &mut BufReader<TcpStream>) -> Result<Json, String> {
    let mut line = String::new();
    let mut status_ok = None;
    loop {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            return Err("stream ended without a done event".to_string());
        }
        let l = line.trim_end();
        if status_ok.is_none() {
            status_ok = Some(l.split_whitespace().nth(1) == Some("200"));
            continue;
        }
        if !l.starts_with('{') {
            continue; // headers and the blank line
        }
        if status_ok != Some(true) {
            return Err(format!("server refused: {l}"));
        }
        let ev = Json::parse(l).map_err(|e| format!("event: {e}"))?;
        if ev.get("event").and_then(Json::as_str) == Some("done") {
            return Ok(ev);
        }
    }
}

/// Times the daemon's cache and digest layers on their own: opening a copy
/// of its journal, looking up every cell, and the two key digests. Returns
/// the number of failed lookups.
fn probe_cache(
    daemon_dir: &Path,
    pool: &[Workload],
    work: &Path,
    l: &mut Metrics,
) -> Result<u64, String> {
    let copy = work.join("journal-copy").join("results.jsonl");
    std::fs::create_dir_all(copy.parent().expect("has parent")).map_err(|e| e.to_string())?;
    std::fs::copy(daemon_dir.join("results.jsonl"), &copy)
        .map_err(|e| format!("copy journal: {e}"))?;
    let mut cache = None;
    l.set(
        "cache.open_ms",
        bench::median_us(5, || cache = Some(ResultCache::open(&copy))) / 1e3,
    );
    let cache = cache
        .expect("opened")
        .map_err(|e| format!("open cache copy: {e}"))?;
    let cfgs: Vec<PipeConfig> = FusionMode::ALL
        .iter()
        .map(|&m| PipeConfig::with_fusion(m))
        .collect();
    let keys: Vec<CellKey> = pool
        .iter()
        .flat_map(|w| {
            let trace = TraceStore::digest(&w.program);
            cfgs.iter().map(move |c| CellKey {
                trace,
                cfg: c.digest(),
            })
        })
        .collect();
    let missing = keys.iter().filter(|k| cache.get(**k).is_none()).count() as u64;
    const GETS: usize = 1000;
    let per_get = bench::median_us(5, || {
        for i in 0..GETS {
            std::hint::black_box(cache.get(keys[i % keys.len()]));
        }
    }) / GETS as f64;
    l.set("cache.get_us", per_get);
    let trace_us: Vec<f64> = pool
        .iter()
        .map(|w| {
            bench::median_us(5, || {
                std::hint::black_box(TraceStore::digest(std::hint::black_box(&w.program)));
            })
        })
        .collect();
    l.set("digest.trace_us", stats::median(&trace_us));
    let cfg_us: Vec<f64> = cfgs
        .iter()
        .map(|c| {
            bench::median_us(5, || {
                std::hint::black_box(std::hint::black_box(c).digest());
            })
        })
        .collect();
    l.set("digest.cfg_us", stats::median(&cfg_us));
    Ok(missing)
}

/// A running `serve` child. Dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
    url: String,
    dir: PathBuf,
    stderr: Option<JoinHandle<()>>,
}

struct Health {
    cached: u64,
    simulated: u64,
}

impl Daemon {
    /// Starts `bin` on an ephemeral port with cache dir `dir` and waits for
    /// it to announce its address (after it has loaded the cache).
    fn start(bin: &Path, dir: &Path, jobs: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                &jobs.to_string(),
                "--cache-dir",
            ])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let mut daemon = Daemon {
            child,
            url: String::new(),
            dir: dir.to_path_buf(),
            stderr: None,
        };
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("daemon stderr: {e}"))?;
            if let Some(url) = line.strip_prefix("sweepd: listening on ") {
                daemon.url = url.trim().to_string();
                break;
            }
        }
        if daemon.url.is_empty() {
            return Err("daemon exited before listening".to_string());
        }
        // Keep draining so the daemon never blocks on a full pipe.
        daemon.stderr = Some(std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                eprintln!("[sweepd] {line}");
            }
        }));
        Ok(daemon)
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        crate::sys::peak_rss_mb(&self.child.id().to_string())
    }

    /// The daemon's cell counters from `GET /v1/health`.
    fn health(&self) -> Result<Health, String> {
        let authority = self.url.trim_start_matches("http://");
        let mut s = TcpStream::connect(authority).map_err(|e| format!("health: {e}"))?;
        write!(
            s,
            "GET /v1/health HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n"
        )
        .map_err(|e| format!("health: {e}"))?;
        let mut text = String::new();
        s.read_to_string(&mut text)
            .map_err(|e| format!("health: {e}"))?;
        let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        let doc = Json::parse(body).map_err(|e| format!("health body: {e}"))?;
        let n = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("health lacks `{k}`"))
        };
        Ok(Health {
            cached: n("cells_from_cache")?,
            simulated: n("cells_simulated")?,
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}
