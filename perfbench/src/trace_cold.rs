//! `trace-cold`: records the kernel corpus into an empty trace store
//! (emulate, HTRC2-encode, write and publish), verifies the store, and
//! drains every entry back through `BlockReplay`. The emulator, codec and
//! store do all the work; the cycle model does none.

use crate::bench::{self, Ctx, Outcome};
use crate::metrics::Metrics;
use crate::plan;
use crate::spans::{SpanId, Tracer};
use crate::stats::{self, Summary};
use helios::{Trace, TraceStore, Workload};
use helios_emu::codec::{self, DEFAULT_BLOCK_UOPS};
use std::collections::HashSet;

/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 100;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: build the kernels and make sure a store can be opened. One
    // set-up takes about 10 ms, so its median is taken over many.
    let (ws, setup_times) = bench::repeat_setup(ctx.setups(SETUPS), |i| {
        let ws = plan::permuted(&ctx.kernels(), ctx.seed);
        let dir = ctx.work.join(format!("setup-{i}"));
        TraceStore::open(&dir).map_err(|e| format!("open store: {e}"))?;
        Ok::<_, String>(ws)
    });
    let ws = ws?;
    out.e2e.set("setup_s", stats::median(&setup_times));
    out.note("setup_s", &Summary::of(&setup_times), "s");

    let seconds = if ctx.traced { 0.0 } else { ctx.seconds };
    let mut walls = Vec::new();
    let mut kernel_ms = Vec::new();
    let mut uops = 0u64;
    for (p, wall) in bench::repeat_passes(seconds, |n| pass(ctx, &ws, &format!("pass-{n}"), None)) {
        let p = p?;
        out.attempted += p.attempted;
        out.failed += p.failed;
        uops += p.uops;
        kernel_ms.extend(p.kernel_ms);
        walls.push(wall);
    }
    let total_wall: f64 = walls.iter().sum();
    out.e2e.set("wall_s", stats::median(&walls));
    out.e2e.set(
        "peak_rss_mb",
        crate::sys::peak_rss_mb("self").unwrap_or(f64::NAN),
    );
    out.e2e
        .put("muops_per_s", "Muops/s", uops as f64 / total_wall / 1e6);
    out.e2e.put("kernels", "count", out.attempted as f64);
    out.note_each("wall_s", &walls);
    out.note("kernel record+publish", &Summary::of(&kernel_ms), "ms");

    if ctx.traced {
        let tracer = Tracer::new();
        let t0 = std::time::Instant::now();
        let p = tracer.span("trace.pass", 0, None, |root| {
            pass(ctx, &ws, "traced", Some((&tracer, root)))
        })?;
        let traced_wall = t0.elapsed().as_secs_f64();
        out.attempted += p.attempted;
        out.failed += p.failed;
        let l = &mut out.layers;
        bench::record_overhead(l, walls[0], traced_wall);
        l.set(
            "store.record_ms",
            tracer.total_s("store.get_or_record") * 1e3,
        );
        l.set("store.bytes_written", p.bytes as f64);
        l.set("store.recorded", p.stats.recorded as f64);
        l.set("store.hits", p.stats.hits as f64);
        l.set("store.quarantined", p.stats.quarantined as f64);
        l.set(
            "codec.decode_muops_per_s",
            p.uops as f64 / tracer.total_s("codec.drain") / 1e6,
        );
        l.set("codec.bytes_per_uop", p.bytes as f64 / p.uops as f64);
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        bench::timed_build(l);
        bench::timed_lookups(l, &names[..names.len().min(8)]);
        let (record_s, encode_s) = probe_record_encode(&tracer, &ws, l, &mut out.failed)?;
        out.attempted += ws.len() as u64;

        // Decomposition of build + traced pass. Recording and encoding
        // happen inside get_or_record; their share comes from the probes,
        // and the rest of get_or_record (writing, publishing, re-verifying)
        // plus the store-wide verify is store I/O.
        let l = &mut out.layers;
        let build_s = l.get("workloads.build_ms").unwrap_or(0.0) / 1e3;
        let store_io_s = tracer.total_s("store.get_or_record") - record_s - encode_s
            + tracer.total_s("store.verify");
        let rows = [
            ("decomp.build_s", build_s),
            ("decomp.record_s", record_s),
            ("decomp.encode_s", encode_s),
            ("decomp.store_io_s", store_io_s),
            ("decomp.decode_s", tracer.total_s("codec.drain")),
            ("decomp.simulate_s", 0.0),
            ("decomp.report_s", 0.0),
        ];
        bench::decompose(l, &rows, build_s + traced_wall);
        out.tracer = Some(tracer);
    }
    Ok(out)
}

struct Pass {
    attempted: u64,
    failed: u64,
    uops: u64,
    bytes: u64,
    kernel_ms: Vec<f64>,
    stats: helios::StoreStats,
}

/// One timed pass into a fresh store under `ctx.work/<name>`, which is
/// removed afterwards.
fn pass(
    ctx: &Ctx,
    ws: &[Workload],
    name: &str,
    tracer: Option<(&Tracer, SpanId)>,
) -> Result<Pass, String> {
    let span = |n: &'static str, id: usize, f: &mut dyn FnMut()| match tracer {
        Some((t, root)) => t.span(n, id as u64, Some(root), |_| f()),
        None => f(),
    };
    let dir = ctx.work.join(name);
    let store = TraceStore::open(&dir).map_err(|e| format!("open store: {e}"))?;
    let mut p = Pass {
        attempted: 0,
        failed: 0,
        uops: 0,
        bytes: 0,
        kernel_ms: Vec::new(),
        stats: helios::StoreStats::default(),
    };
    let mut ok = vec![false; ws.len()];
    let mut traces = Vec::with_capacity(ws.len());
    for (i, w) in ws.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let mut r = None;
        span("store.get_or_record", i, &mut || r = Some(w.stored(&store)));
        p.kernel_ms.push(bench::ms_since(t0));
        match r.expect("span ran") {
            Ok(t) => {
                ok[i] = t.output() == w.expected.as_slice();
                if !ok[i] {
                    eprintln!(
                        "perfbench: trace-cold: {} output differs from its reference",
                        w.name
                    );
                }
                traces.push(Some(t));
            }
            Err(e) => {
                eprintln!("perfbench: trace-cold: {}: {e}", w.name);
                traces.push(None);
            }
        }
    }
    let mut report = None;
    span("store.verify", 0, &mut || report = Some(store.verify()));
    let report = report
        .expect("span ran")
        .map_err(|e| format!("verify: {e}"))?;
    let distinct: HashSet<u64> = ws.iter().map(|w| TraceStore::digest(&w.program)).collect();
    let clean = report.bad.is_empty() && report.ok.len() == distinct.len();
    if !clean {
        eprintln!("perfbench: trace-cold: store verify found {:?}", report.bad);
    }
    p.bytes = report.ok.iter().map(|e| e.bytes).sum();
    for (i, t) in traces.iter().enumerate() {
        let Some(t) = t else { continue };
        let mut n = None;
        span("codec.drain", i, &mut || n = Some(bench::drain(t)));
        if n.flatten() != Some(t.len()) {
            eprintln!(
                "perfbench: trace-cold: {} decoded count differs from Trace::len",
                ws[i].name
            );
            ok[i] = false;
        }
        p.uops += t.len();
    }
    p.stats = store.stats();
    drop(traces);
    let _ = std::fs::remove_dir_all(&dir);
    for k in ok {
        p.attempted += 1;
        p.failed += u64::from(!(k && clean));
    }
    Ok(p)
}

/// Times `Trace::record` and `codec::encode_v2` (to `io::sink`) for
/// each kernel on its own, the two halves of a store miss. Returns their
/// summed seconds.
fn probe_record_encode(
    tracer: &Tracer,
    ws: &[Workload],
    l: &mut Metrics,
    failed: &mut u64,
) -> Result<(f64, f64), String> {
    let mut uops = 0u64;
    for (i, w) in ws.iter().enumerate() {
        let id = i as u64;
        let rec = tracer
            .span("emu.record", id, None, |_| {
                Trace::record(w.program.clone(), w.fuel)
            })
            .map_err(|e| format!("record {}: {e}", w.name))?;
        let Trace::Memory(rec) = rec else {
            return Err("Trace::record returned a disk trace".to_string());
        };
        let r = tracer.span("codec.encode", id, None, |_| {
            codec::encode_v2(
                rec.uops(),
                rec.output(),
                w.name,
                DEFAULT_BLOCK_UOPS,
                &mut std::io::sink(),
            )
        });
        *failed += u64::from(r.is_err() || rec.output() != w.expected.as_slice());
        uops += rec.len() as u64;
    }
    let (record_s, encode_s) = (tracer.total_s("emu.record"), tracer.total_s("codec.encode"));
    l.set("emu.record_ms", record_s * 1e3);
    l.set("emu.minst_per_s", uops as f64 / record_s / 1e6);
    l.set("codec.encode_muops_per_s", uops as f64 / encode_s / 1e6);
    Ok((record_s, encode_s))
}
