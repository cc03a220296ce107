//! `sweep-warm`: the full fig10 grid (every kernel × every fusion mode)
//! through the sweep engine, replaying from a trace store that set-up
//! filled. The cycle model does nearly all the work; the emulator and the
//! encoder do none.

use crate::bench::{self, Ctx, Outcome};
use crate::plan;
use crate::spans::{SpanId, Tracer};
use crate::stats::{self, Summary};
use helios::{
    format_row, FusionMode, PipeConfig, Report, SimRequest, SimStats, Sweep, SweepOptions,
    SweepPolicy, Table, Trace, TraceStore, Workload,
};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let modes = ctx.modes();
    let names: Vec<&'static str> = ctx.kernels().iter().map(|w| w.name).collect();

    // Set-up: a child process builds the kernels and records them into a
    // fresh store (so the recording's memory never counts against this
    // process), then this process builds the kernels it will sweep.
    let (prepared, setup_times) = bench::repeat_setup(ctx.setups(3), |i| {
        let dir = ctx.work.join(format!("store-{i}"));
        if i > 0 {
            let _ = std::fs::remove_dir_all(ctx.work.join(format!("store-{}", i - 1)));
        }
        fill_store_in_child(&dir, ctx.jobs, &names)?;
        let ws: Vec<Workload> = plan::permuted(&ctx.kernels(), ctx.seed);
        let store = TraceStore::open(&dir).map_err(|e| format!("open store: {e}"))?;
        Ok::<_, String>((ws, store))
    });
    let (ws, store) = prepared?;
    out.e2e.set("setup_s", stats::median(&setup_times));
    out.note_each("setup_s", &setup_times);

    let opts = SweepOptions {
        jobs: ctx.jobs,
        policy: SweepPolicy {
            max_attempts: 1,
            ..SweepPolicy::default()
        },
        trace_store: Some(store),
        ..SweepOptions::default()
    };
    let mut cycles = 0u64;
    let mut walls = Vec::new();
    let mut last = None;
    let seconds = if ctx.traced { 0.0 } else { ctx.seconds };
    for ((sweep, _), wall) in bench::repeat_passes(seconds, |_| engine(&ws, &modes, &opts, None)) {
        let sweep = sweep.map_err(|e| format!("sweep engine: {e}"))?;
        cycles += check(ctx, &ws, &modes, &sweep, &mut out);
        walls.push(wall);
        last = Some(sweep);
    }
    let sweep = last.expect("at least one pass");
    let total_wall: f64 = walls.iter().sum();
    out.e2e.set("wall_s", stats::median(&walls));
    out.e2e.set(
        "peak_rss_mb",
        crate::sys::peak_rss_mb("self").unwrap_or(f64::NAN),
    );
    out.e2e.put(
        "sim_mcycles_per_s",
        "Mcycles/s",
        cycles as f64 / total_wall / 1e6,
    );
    out.e2e.put("cells", "count", out.attempted as f64);
    out.note_each("wall_s", &walls);

    if ctx.traced {
        traced(ctx, &mut out, &ws, &modes, &opts, &names, walls[0])?;
    }
    let (_, uplift) = sweep.normalized_ipc(FusionMode::Helios, FusionMode::NoFusion);
    out.e2e
        .put("helios_uplift_pct", "%", (uplift - 1.0) * 100.0);
    Ok(out)
}

/// Checks every grid cell against the goldens, counting operations, and
/// returns the simulated cycles of the cells that passed.
fn check(
    ctx: &Ctx,
    ws: &[Workload],
    modes: &[FusionMode],
    sweep: &Sweep,
    out: &mut Outcome,
) -> u64 {
    let mut cycles = 0;
    for w in ws {
        for &m in modes {
            let ok = sweep
                .get(w.name, m)
                .is_some_and(|s| ctx.golden.matches(w.name, m, s));
            if ok {
                cycles += sweep.get(w.name, m).map_or(0, |s| s.cycles);
            } else {
                eprintln!(
                    "perfbench: sweep-warm: {}/{} failed its output check",
                    w.name,
                    m.name()
                );
            }
            out.record(ok);
        }
    }
    cycles
}

/// One pass of the grid through the sweep engine, with the trace store's
/// counters over the pass.
fn engine(
    ws: &[Workload],
    modes: &[FusionMode],
    opts: &SweepOptions,
    tracer: Option<(&Tracer, SpanId)>,
) -> (std::io::Result<Sweep>, helios::StoreStats) {
    let store = opts
        .trace_store
        .as_ref()
        .expect("sweep-warm replays from a store");
    let before = store.stats();
    let sweep = match tracer {
        Some((t, root)) => t.span("experiment.run_sweep_opts", 0, Some(root), |_| {
            helios::run_sweep_opts(ws, modes, opts)
        }),
        None => helios::run_sweep_opts(ws, modes, opts),
    };
    (sweep, store.stats().since(&before))
}

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    ws: &[Workload],
    modes: &[FusionMode],
    opts: &SweepOptions,
    names: &[&'static str],
    untraced_wall: f64,
) -> Result<(), String> {
    let store = opts
        .trace_store
        .as_ref()
        .expect("sweep-warm replays from a store");
    let tracer = Tracer::new();
    let l = &mut out.layers;

    // The traced pass: the same engine call, inside spans.
    let t0 = Instant::now();
    let (sweep, delta) = tracer.span("sweep.pass", 0, None, |root| {
        engine(ws, modes, opts, Some((&tracer, root)))
    });
    let traced_wall = t0.elapsed().as_secs_f64();
    let engine_wall = tracer.total_s("experiment.run_sweep_opts");
    let sweep = sweep.map_err(|e| format!("sweep engine: {e}"))?;
    bench::record_overhead(l, untraced_wall, traced_wall);
    l.set("store.recorded", delta.recorded as f64);
    l.set("store.hits", delta.hits as f64);
    l.set("store.quarantined", delta.quarantined as f64);
    l.set("sweep.cells", (ws.len() * modes.len()) as f64);
    l.set("sweep.failed", sweep.failures().len() as f64);

    // Layer probes, outside the timed pass.
    bench::timed_build(l);
    bench::timed_lookups(l, &names[..names.len().min(8)]);
    let traces = tracer
        .span("probe.store_hit", 0, None, |p| {
            ws.iter()
                .enumerate()
                .map(|(i, w)| {
                    tracer.span("store.get_or_record", i as u64, Some(p), |_| {
                        w.stored(store)
                    })
                })
                .collect::<Result<Vec<Trace>, _>>()
        })
        .map_err(|e| format!("store hit: {e}"))?;
    let store_io_s = tracer.total_s("store.get_or_record");
    l.set("store.hit_ms", store_io_s * 1e3);

    // Decode rate: drain each entry through BlockReplay.
    let drained = tracer.span("probe.decode", 0, None, |p| {
        traces
            .iter()
            .enumerate()
            .map(|(i, t)| tracer.span("codec.drain", i as u64, Some(p), |_| bench::drain(t)))
            .collect::<Vec<_>>()
    });
    let uops_total: u64 = traces.iter().map(Trace::len).sum();
    let decode_rate = uops_total as f64 / tracer.total_s("codec.drain");
    l.set("codec.decode_muops_per_s", decode_rate / 1e6);
    let bytes: u64 = store
        .entries()
        .map_err(|e| format!("store entries: {e}"))?
        .iter()
        .map(|e| e.bytes)
        .sum();
    l.set("codec.bytes_per_uop", bytes as f64 / uops_total as f64);

    // Per-cell cycle-model time: every cell once, through SimRequest, on
    // the same number of workers as the engine.
    let grid: Vec<(usize, FusionMode)> = (0..ws.len())
        .flat_map(|wi| modes.iter().map(move |&m| (wi, m)))
        .collect();
    let order = plan::permuted(&grid, ctx.seed);
    let cells = tracer.span("probe.cells", 0, None, |p| {
        run_cells(ws, &traces, &order, ctx.jobs, Some((&tracer, p)))
    });
    let mut cell_ms = Vec::new();
    let (mut sim_s, mut decode_s, mut cycles, mut uops, mut bad) = (0.0, 0.0, 0u64, 0u64, 0u64);
    for c in &cells {
        cell_ms.push(c.secs * 1e3);
        match &c.stats {
            Some(s) if ctx.golden.matches(ws[c.wi].name, c.mode, s) => {
                // Decode runs inside try_run; its share is estimated from
                // the measured decode rate and taken out of the cycle
                // model's time.
                let dec = s.uops as f64 / decode_rate;
                decode_s += dec;
                sim_s += c.secs - dec;
                cycles += s.cycles;
                uops += s.uops;
            }
            _ => bad += 1,
        }
    }
    let cs = Summary::of(&cell_ms);
    l.set("uarch.cell_ms_p50", cs.p50);
    l.set("uarch.cell_ms_p90", percentile(&cell_ms, 90.0));
    l.set("uarch.cycles", cycles as f64);
    l.set("uarch.uops", uops as f64);
    l.set("uarch.mcycles_per_s", cycles as f64 / sim_s / 1e6);
    let cell_sum_s: f64 = cells.iter().map(|c| c.secs).sum();
    l.set(
        "sweep.parallel_eff",
        cell_sum_s / (ctx.jobs as f64 * engine_wall),
    );

    // The fig10 report, built and emitted into this run's results dir.
    let report_s = tracer.span("report.render", 0, None, |_| render_fig10(&sweep))?;
    l.set("report.render_ms", report_s * 1e3);

    let (_, uplift) = sweep.normalized_ipc(FusionMode::Helios, FusionMode::NoFusion);
    let uplift_pct = (uplift - 1.0) * 100.0;
    l.set("model.helios_uplift_pct", uplift_pct);
    l.set(
        "model.paper_gap_pp",
        uplift_pct - crate::metrics::PAPER_HELIOS_UPLIFT_PCT,
    );

    // Cycle-model stage profile from a profiled child process (the profiler
    // is process-wide and would slow every pass here).
    for (stage, ns) in stage_profile_in_child(store, ctx, names)? {
        l.set(&format!("uarch.ns_per_cycle.{stage}"), ns);
    }

    // Wall-clock decomposition of build + traced pass + report. Work done
    // inside the engine is worker-seconds divided by the worker count.
    let jobs = ctx.jobs as f64;
    let build_s = l.get("workloads.build_ms").unwrap_or(0.0) / 1e3;
    let rows = [
        ("decomp.build_s", build_s),
        ("decomp.record_s", 0.0),
        ("decomp.encode_s", 0.0),
        ("decomp.store_io_s", store_io_s / jobs),
        ("decomp.decode_s", decode_s / jobs),
        ("decomp.simulate_s", sim_s / jobs),
        ("decomp.report_s", report_s),
    ];
    bench::decompose(l, &rows, build_s + traced_wall + report_s);

    // The traced pass and the probes are operations too.
    check(ctx, ws, modes, &sweep, out);
    for (t, n) in traces.iter().zip(&drained) {
        out.record(*n == Some(t.len()));
    }
    out.attempted += cells.len() as u64;
    out.failed += bad;
    out.note("uarch.cell_ms", &cs, "ms");
    out.tracer = Some(tracer);
    Ok(())
}

fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    stats::nearest_rank(&v, p).map_or(f64::NAN, |(x, _)| x)
}

/// One cell of the per-cell probe.
pub struct CellRun {
    pub wi: usize,
    pub mode: FusionMode,
    pub secs: f64,
    pub stats: Option<SimStats>,
}

/// Runs `cells` (workload index, mode) through `SimRequest::try_run` on
/// `jobs` workers, each cell in its own span when a tracer is given.
pub fn run_cells(
    ws: &[Workload],
    traces: &[Trace],
    cells: &[(usize, FusionMode)],
    jobs: usize,
    tracer: Option<(&Tracer, SpanId)>,
) -> Vec<CellRun> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(cells.len()));
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(wi, mode)) = cells.get(i) else {
                    break;
                };
                let sim = || {
                    SimRequest::new(&ws[wi], PipeConfig::with_fusion(mode))
                        .replaying(&traces[wi])
                        .try_run()
                        .ok()
                        .map(|r| r.stats)
                };
                let t0 = Instant::now();
                let stats = match tracer {
                    Some((t, p)) => t.span("uarch.try_run", i as u64, Some(p), |_| sim()),
                    None => sim(),
                };
                let secs = t0.elapsed().as_secs_f64();
                done.lock().expect("cell list poisoned").push(CellRun {
                    wi,
                    mode,
                    secs,
                    stats,
                });
            });
        }
    });
    done.into_inner().expect("cell list poisoned")
}

/// The fig10 table and headline notes, built from the sweep and emitted
/// into the results directory. Returns the seconds it took.
fn render_fig10(sweep: &Sweep) -> Result<f64, String> {
    let t0 = Instant::now();
    let modes = FusionMode::ALL;
    let mut headers = vec!["benchmark".to_string(), "IPC(base)".to_string()];
    headers.extend(modes.iter().skip(1).map(|m| m.name().to_string()));
    let mut table = Table::new(headers);
    for w in sweep.workloads() {
        let Some(base) = sweep.get(w, FusionMode::NoFusion).map(|s| s.ipc()) else {
            continue;
        };
        let mut vals = vec![base];
        let complete = modes
            .iter()
            .skip(1)
            .all(|&m| sweep.get(w, m).map(|s| vals.push(s.ipc() / base)).is_some());
        if complete {
            table.row(format_row(w, &vals, 3));
        }
    }
    let mut geo = vec![f64::NAN];
    geo.extend(
        modes
            .iter()
            .skip(1)
            .map(|&m| sweep.normalized_ipc(m, FusionMode::NoFusion).1),
    );
    table.row(format_row("geomean", &geo, 3));
    let mut report = Report::new("fig10", "Figure 10: IPC normalized to NoFusion", table);
    let (_, g) = sweep.normalized_ipc(FusionMode::Helios, FusionMode::NoFusion);
    report.note(format!(
        "  Helios        vs NoFusion : {:+.1}%   (paper: +14.2%)",
        (g - 1.0) * 100.0
    ));
    std::hint::black_box(report.to_text());
    report
        .emit()
        .map_err(|e| format!("emit fig10 report: {e}"))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// Spawns this binary to fill `dir` with the named kernels' traces.
fn fill_store_in_child(dir: &Path, jobs: usize, names: &[&str]) -> Result<(), String> {
    let status = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .arg("--fill-store")
        .arg(dir)
        .args(["--jobs", &jobs.to_string(), "--kernels", &names.join(",")])
        .status()
        .map_err(|e| format!("spawn store filler: {e}"))?;
    if !status.success() {
        return Err(format!("store filler failed: {status}"));
    }
    Ok(())
}

/// Child entry point: records `names` into the store at `dir` on `jobs`
/// threads.
pub fn fill_store(dir: &Path, jobs: usize, names: &[String]) -> Result<(), String> {
    let store = TraceStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let ws: Vec<Workload> = helios::all_workloads()
        .into_iter()
        .filter(|w| names.iter().any(|n| n == w.name))
        .collect();
    if ws.len() != names.len() {
        return Err("unknown kernel name".to_string());
    }
    let next = AtomicUsize::new(0);
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1) {
            s.spawn(|| {
                while let Some(w) = ws.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if let Err(e) = w.stored(&store) {
                        errors
                            .lock()
                            .expect("error list poisoned")
                            .push(format!("{}: {e}", w.name));
                    }
                }
            });
        }
    });
    match errors.into_inner().expect("error list poisoned").first() {
        Some(e) => Err(e.clone()),
        None => Ok(()),
    }
}

/// Runs the stage-profile child and returns ns per simulated cycle per
/// stage.
fn stage_profile_in_child(
    store: &TraceStore,
    ctx: &Ctx,
    names: &[&str],
) -> Result<Vec<(String, f64)>, String> {
    let output = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .env("HELIOS_PROFILE", "1")
        .arg("--stage-profile")
        .arg(store.dir())
        .args([
            "--jobs",
            &ctx.jobs.to_string(),
            "--seed",
            &ctx.seed.to_string(),
        ])
        .args(["--kernels", &names.join(",")])
        .output()
        .map_err(|e| format!("spawn stage profiler: {e}"))?;
    if !output.status.success() {
        return Err(format!("stage profiler failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let doc = helios::Json::parse(text.trim()).map_err(|e| format!("stage profile: {e}"))?;
    let cycles = doc
        .get("cycles")
        .and_then(helios::Json::as_u64)
        .ok_or("stage profile: no cycles")?;
    crate::metrics::STAGES
        .iter()
        .map(|s| {
            let ns = doc
                .get(s)
                .and_then(helios::Json::as_u64)
                .ok_or_else(|| format!("stage profile: no `{s}`"))?;
            Ok((s.to_string(), ns as f64 / cycles as f64))
        })
        .collect()
}

/// Child entry point (run with `HELIOS_PROFILE=1`): simulates a seeded
/// sample of the grid, every kernel once under one mode (modes taken in
/// turn), and prints the profiler's per-stage totals as one JSON line.
pub fn stage_profile(
    dir: &Path,
    jobs: usize,
    seed: u64,
    names: &[String],
) -> Result<String, String> {
    let store = TraceStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let ws: Vec<Workload> = plan::permuted(
        &helios::all_workloads()
            .into_iter()
            .filter(|w| names.iter().any(|n| n == w.name))
            .collect::<Vec<_>>(),
        seed,
    );
    let traces = ws
        .iter()
        .map(|w| w.stored(&store))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("store: {e}"))?;
    let cells: Vec<(usize, FusionMode)> = (0..ws.len())
        .map(|i| (i, FusionMode::ALL[i % FusionMode::ALL.len()]))
        .collect();
    let runs = run_cells(&ws, &traces, &cells, jobs, None);
    if runs.iter().any(|r| r.stats.is_none()) {
        return Err("a profiled cell failed".to_string());
    }
    let snap = helios_uarch::profile::take_global()
        .ok_or("profiler recorded nothing (HELIOS_PROFILE unset?)")?;
    let mut fields = vec![format!("\"cycles\":{}", snap.cycles)];
    fields.extend(
        snap.stages
            .iter()
            .map(|s| format!("\"{}\":{}", s.stage, s.ns)),
    );
    Ok(format!("{{{}}}", fields.join(",")))
}

/// Simulates the whole fig10 grid in memory and renders the golden file.
pub fn write_golden(path: &Path, jobs: usize) -> Result<(), String> {
    let ws = helios::all_workloads();
    let modes = FusionMode::ALL;
    let sweep = helios::run_sweep_jobs(&ws, &modes, jobs);
    let cells: Vec<(&str, FusionMode, &SimStats)> = sweep
        .results()
        .iter()
        .map(|r| (r.workload, r.mode, &r.stats))
        .collect();
    if cells.len() != ws.len() * modes.len() {
        return Err("incomplete grid".to_string());
    }
    std::fs::write(path, crate::golden::render(&cells))
        .map_err(|e| format!("write {}: {e}", path.display()))
}
