//! Trace-corpus tooling over the content-addressed [`TraceStore`], plus the
//! classic disassembled µ-op dump.
//!
//! ```text
//! trace record --store DIR [WORKLOAD...]   record workloads (default: all)
//! trace info   --store DIR [--json]        corpus summary (helios-report-v1)
//! trace ls     --store DIR [--json]        per-entry listing (helios-report-v1)
//! trace verify --store DIR                 deep-verify every file; exit 1 on corruption
//! trace gc     --store DIR                 reclaim corrupt/stale/abandoned files
//! trace bench  --store DIR                 codec benchmark -> results/BENCH_trace.json
//! trace dump   WORKLOAD [skip] [count] [--konata OUT] [--mode M] [--limit N]
//! ```
//!
//! `--store DIR` falls back to `$HELIOS_TRACE_DIR`. An unrecognized first
//! argument keeps the pre-subcommand CLI working: it is treated as a
//! workload name for `dump`.

use helios::{FusionMode, ObsOpts, Report, SimRequest, Table, TraceStore};
use helios_emu::{codec, BlockReplay, Trace};
use helios_isa::disassemble;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// v1 on-disk cost of a trace: 34-byte header, 47 bytes per µ-op, 8 per
/// output word (the fixed layout the retired HTRC v1 serializer wrote).
fn v1_bytes(uops: u64, outputs: u64) -> u64 {
    34 + 47 * uops + 8 * outputs
}

fn usage() -> ! {
    eprintln!(
        "usage: trace <record|info|ls|verify|gc|bench> --store DIR [args]\n\
         \x20      trace dump WORKLOAD [skip] [count] [--konata OUT] [--mode M] [--limit N]\n\
         --store defaults to $HELIOS_TRACE_DIR"
    );
    std::process::exit(helios::exit::USAGE);
}

/// Pulls `--store DIR` (or `$HELIOS_TRACE_DIR`) out of `args` and opens it.
fn open_store(args: &mut Vec<String>) -> TraceStore {
    let dir = match args.iter().position(|a| a == "--store") {
        Some(i) => {
            if i + 1 >= args.len() {
                eprintln!("error: --store requires a directory");
                std::process::exit(helios::exit::USAGE);
            }
            let dir = PathBuf::from(&args[i + 1]);
            args.drain(i..=i + 1);
            dir
        }
        None => match std::env::var_os("HELIOS_TRACE_DIR") {
            Some(d) => PathBuf::from(d),
            None => {
                eprintln!("error: no --store and no $HELIOS_TRACE_DIR");
                std::process::exit(helios::exit::USAGE);
            }
        },
    };
    TraceStore::open(&dir).unwrap_or_else(|e| {
        eprintln!("error: cannot open trace store {}: {e}", dir.display());
        std::process::exit(helios::exit::USAGE);
    })
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "record" => cmd_record(args),
        "info" => cmd_info(args),
        "ls" => cmd_ls(args),
        "verify" => cmd_verify(args),
        "gc" => cmd_gc(args),
        "bench" => cmd_bench(args),
        "rss-probe" => cmd_rss_probe(args),
        "dump" => cmd_dump(args),
        "--help" | "-h" | "help" => usage(),
        // Pre-subcommand CLI: `trace crc32 --konata out` etc.
        _ => {
            args.insert(0, cmd);
            cmd_dump(args);
        }
    }
}

// --- record ----------------------------------------------------------------

fn cmd_record(mut args: Vec<String>) {
    let store = open_store(&mut args);
    let workloads: Vec<_> = if args.is_empty() {
        helios::all_workloads()
    } else {
        args.iter()
            .map(|n| {
                helios::workload(n).unwrap_or_else(|| {
                    eprintln!("unknown workload `{n}`");
                    std::process::exit(helios::exit::USAGE);
                })
            })
            .collect()
    };
    let before = store.stats();
    for w in &workloads {
        match w.stored(&store) {
            Ok(t) => eprintln!("  {}: {} µ-ops", w.name, t.len()),
            Err(e) => {
                eprintln!("error: recording {}: {e}", w.name);
                std::process::exit(helios::exit::FAILED);
            }
        }
    }
    let d = store.stats().since(&before);
    println!(
        "recorded {} workload(s) into {}: {} recorded, {} hits, {} quarantined",
        workloads.len(),
        store.dir().display(),
        d.recorded,
        d.hits,
        d.quarantined
    );
}

// --- info / ls -------------------------------------------------------------

fn emit(report: Report, json: bool) {
    if json {
        print!("{}", report.to_json());
    } else {
        report.print();
    }
}

fn cmd_info(mut args: Vec<String>) {
    let json = take_flag(&mut args, "--json");
    let store = open_store(&mut args);
    let entries = store.entries().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    let uops: u64 = entries.iter().map(|e| e.uops).sum();
    let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
    let v1_equiv: u64 = entries
        .iter()
        .map(|e| v1_bytes(e.uops, 0)) // outputs are not in the cheap header scan
        .sum();
    let bpu = if uops == 0 { 0.0 } else { bytes as f64 / uops as f64 };
    let ratio = if v1_equiv == 0 { 0.0 } else { bytes as f64 / v1_equiv as f64 };

    let mut t = Table::new(vec!["metric".into(), "value".into()]);
    t.row(vec!["entries (HTRC2)".into(), entries.len().to_string()]);
    t.row(vec!["µ-ops".into(), uops.to_string()]);
    t.row(vec!["corpus bytes".into(), bytes.to_string()]);
    t.row(vec!["bytes/µ-op".into(), format!("{bpu:.3}")]);
    t.row(vec!["v2/v1 size ratio".into(), format!("{ratio:.3}")]);
    let mut r = Report::new(
        "trace_info",
        format!("Trace store: {}", store.dir().display()),
        t,
    );
    r.note(format!(
        "v1 equivalent: {v1_equiv} bytes (47 B/µ-op fixed layout)"
    ));
    emit(r, json);
}

fn cmd_ls(mut args: Vec<String>) {
    let json = take_flag(&mut args, "--json");
    let store = open_store(&mut args);
    let entries = store.entries().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    let mut t = Table::new(vec![
        "workload".into(),
        "file".into(),
        "µ-ops".into(),
        "bytes".into(),
        "B/µ-op".into(),
        "checksum".into(),
    ]);
    for e in &entries {
        let file = e
            .path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        let bpu = if e.uops == 0 { 0.0 } else { e.bytes as f64 / e.uops as f64 };
        t.row(vec![
            e.name.clone(),
            file,
            e.uops.to_string(),
            e.bytes.to_string(),
            format!("{bpu:.3}"),
            format!("{:016x}", e.stamp.checksum),
        ]);
    }
    let n = entries.len();
    let mut r = Report::new(
        "trace_ls",
        format!("Trace store: {}", store.dir().display()),
        t,
    );
    r.note(format!("{n} entr{}", if n == 1 { "y" } else { "ies" }));
    emit(r, json);
}

// --- verify / gc -----------------------------------------------------------

fn cmd_verify(mut args: Vec<String>) {
    let store = open_store(&mut args);
    let report = store.verify().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    for e in &report.ok {
        println!("ok   {} ({}, {} µ-ops)", e.path.display(), e.name, e.uops);
    }
    for (path, why) in &report.bad {
        println!("BAD  {}: {why}", path.display());
    }
    println!("verified {} ok, {} bad", report.ok.len(), report.bad.len());
    if !report.bad.is_empty() {
        std::process::exit(helios::exit::FAILED);
    }
}

fn cmd_gc(mut args: Vec<String>) {
    let store = open_store(&mut args);
    let report = store.gc().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    println!(
        "gc {}: removed {} file(s), reclaimed {} bytes",
        store.dir().display(),
        report.removed,
        report.bytes_reclaimed
    );
}

// --- bench -----------------------------------------------------------------

/// Peak RSS of this process so far, in kilobytes (`VmHWM` from
/// `/proc/self/status`; 0 where unavailable).
fn peak_rss_kb() -> u64 {
    let mut s = String::new();
    if std::fs::File::open("/proc/self/status")
        .and_then(|mut f| f.read_to_string(&mut s))
        .is_err()
    {
        return 0;
    }
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Hidden helper: runs one full sweep in a child process and prints its
/// peak RSS, so `bench` can compare streaming-from-store against
/// materialized in-memory traces (VmHWM is monotonic, so the two
/// configurations need separate processes).
fn cmd_rss_probe(mut args: Vec<String>) {
    let materialize = take_flag(&mut args, "--materialize");
    let store = open_store(&mut args);
    let ws = helios::all_workloads();
    let modes = [FusionMode::NoFusion, FusionMode::Helios];
    let opts = helios::SweepOptions {
        jobs: 4,
        trace_store: (!materialize).then(|| store.clone()),
        ..helios::SweepOptions::default()
    };
    let sweep = helios::run_sweep_opts(&ws, &modes, &opts).unwrap_or_else(|e| {
        eprintln!("error: rss probe sweep: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    if !sweep.is_complete() {
        eprintln!("error: rss probe sweep incomplete");
        std::process::exit(helios::exit::FAILED);
    }
    println!("{}", peak_rss_kb());
}

/// Re-invokes this binary as `trace rss-probe`, returning the child's peak
/// RSS in kB.
fn probe_rss(store_dir: &Path, materialize: bool) -> u64 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(_) => return 0,
    };
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("rss-probe").arg("--store").arg(store_dir);
    if materialize {
        cmd.arg("--materialize");
    }
    cmd.stderr(std::process::Stdio::null());
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .unwrap_or(0),
        _ => 0,
    }
}

fn cmd_bench(mut args: Vec<String>) {
    let store = open_store(&mut args);
    let stable = std::env::var("HELIOS_BENCH_STABLE").is_ok_and(|v| v == "1");
    let ws = helios::all_workloads();

    // Per-workload size table (drives the EXPERIMENTS.md v1-vs-v2 table) and
    // encode throughput: every trace is captured in memory once, costed in
    // both formats, and pushed through the v2 encoder against a sink.
    let mut table = Table::new(vec![
        "workload".into(),
        "µ-ops".into(),
        "v1 bytes".into(),
        "v2 bytes".into(),
        "v2 B/µ-op".into(),
        "ratio".into(),
    ]);
    let (mut total_uops, mut total_v1, mut total_v2) = (0u64, 0u64, 0u64);
    let mut encode_secs = 0.0f64;
    for w in &ws {
        let mem = Trace::record(w.program.clone(), w.fuel).unwrap_or_else(|e| {
            eprintln!("error: recording {}: {e}", w.name);
            std::process::exit(helios::exit::FAILED);
        });
        let uops: Vec<_> = mem.replay().collect();
        let start = Instant::now();
        let v2 = codec::encode_v2(
            &uops,
            mem.output(),
            w.name,
            helios_emu::DEFAULT_BLOCK_UOPS,
            &mut std::io::sink(),
        )
        .unwrap_or_else(|e| {
            eprintln!("error: encoding {}: {e}", w.name);
            std::process::exit(helios::exit::FAILED);
        });
        encode_secs += start.elapsed().as_secs_f64();
        let v1 = v1_bytes(mem.len(), mem.output().len() as u64);
        total_uops += mem.len();
        total_v1 += v1;
        total_v2 += v2;
        table.row(vec![
            w.name.to_string(),
            mem.len().to_string(),
            v1.to_string(),
            v2.to_string(),
            format!("{:.3}", v2 as f64 / mem.len().max(1) as f64),
            format!("{:.3}", v2 as f64 / v1 as f64),
        ]);
        // Make sure the store holds the corpus for the decode pass below.
        if let Err(e) = w.stored(&store) {
            eprintln!("error: storing {}: {e}", w.name);
            std::process::exit(helios::exit::FAILED);
        }
    }
    table.row(vec![
        "total".into(),
        total_uops.to_string(),
        total_v1.to_string(),
        total_v2.to_string(),
        format!("{:.3}", total_v2 as f64 / total_uops.max(1) as f64),
        format!("{:.3}", total_v2 as f64 / total_v1.max(1) as f64),
    ]);

    // Decode throughput: stream every store file block-at-a-time.
    let entries = store.entries().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    let corpus_bytes: u64 = entries.iter().map(|e| e.bytes).sum();
    let start = Instant::now();
    let mut decoded = 0u64;
    for e in &entries {
        let replay = BlockReplay::open(&e.path).unwrap_or_else(|err| {
            eprintln!("error: opening {}: {err}", e.path.display());
            std::process::exit(helios::exit::FAILED);
        });
        decoded += replay.count() as u64;
    }
    let decode_secs = start.elapsed().as_secs_f64();

    // Peak sweep RSS, streaming vs materialized, in separate child
    // processes (VmHWM never goes down).
    let rss_streaming_kb = probe_rss(store.dir(), false);
    let rss_materialized_kb = probe_rss(store.dir(), true);

    let zero_if_stable = |x: f64| if stable { 0.0 } else { x };
    let encode_mups = zero_if_stable(total_uops as f64 / encode_secs.max(1e-9) / 1e6);
    let decode_mups = zero_if_stable(decoded as f64 / decode_secs.max(1e-9) / 1e6);
    let rss_mb = |kb: u64| zero_if_stable(kb as f64 / 1024.0);

    let bytes_per_uop = total_v2 as f64 / total_uops.max(1) as f64;
    let mut report = Report::new(
        "trace_bench",
        format!("HTRC2 codec benchmark ({} workloads)", ws.len()),
        table,
    );
    report.note(format!(
        "corpus: {corpus_bytes} bytes on disk, {bytes_per_uop:.3} B/µ-op \
         (v1 fixed layout: 47 B/µ-op)"
    ));
    report.note(format!(
        "throughput: encode {encode_mups:.1} Mµops/s, decode {decode_mups:.1} Mµops/s"
    ));
    report.note(format!(
        "sweep peak RSS: {:.1} MB streaming vs {:.1} MB materialized",
        rss_mb(rss_streaming_kb),
        rss_mb(rss_materialized_kb)
    ));
    report.print();

    let json = format!(
        "{{\n  \"benchmark\": \"trace_store\",\n  \"workloads\": {},\n  \"uops\": {},\n  \"corpus_bytes\": {},\n  \"bytes_per_uop\": {:.3},\n  \"v1_bytes\": {},\n  \"v2_vs_v1_ratio\": {:.4},\n  \"encode_mups_per_sec\": {:.2},\n  \"decode_mups_per_sec\": {:.2},\n  \"sweep_peak_rss_kb_streaming\": {},\n  \"sweep_peak_rss_kb_materialized\": {}\n}}\n",
        ws.len(),
        total_uops,
        corpus_bytes,
        bytes_per_uop,
        total_v1,
        total_v2 as f64 / total_v1.max(1) as f64,
        encode_mups,
        decode_mups,
        if stable { 0 } else { rss_streaming_kb },
        if stable { 0 } else { rss_materialized_kb },
    );
    let dir = helios::results_dir();
    let path = dir.join("BENCH_trace.json");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

// --- dump (the classic disassembled µ-op view) -----------------------------

fn cmd_dump(args: Vec<String>) {
    let mut positional: Vec<String> = Vec::new();
    let mut konata: Option<String> = None;
    let mut mode = FusionMode::Helios;
    let mut limit: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--konata" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("error: --konata requires an output path");
                    std::process::exit(helios::exit::USAGE);
                };
                konata = Some(path.clone());
            }
            "--mode" => {
                i += 1;
                let name = args.get(i).map(String::as_str).unwrap_or("");
                let Some(m) = FusionMode::ALL.iter().find(|m| m.name() == name) else {
                    let names: Vec<&str> = FusionMode::ALL.iter().map(|m| m.name()).collect();
                    eprintln!("error: --mode must be one of: {}", names.join(", "));
                    std::process::exit(helios::exit::USAGE);
                };
                mode = *m;
            }
            "--limit" => {
                i += 1;
                limit = args.get(i).and_then(|s| s.parse().ok());
                if limit.is_none() {
                    eprintln!("error: --limit requires a µ-op count");
                    std::process::exit(helios::exit::USAGE);
                }
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }

    let name = positional.first().map(String::as_str).unwrap_or("crc32");
    let skip: u64 = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let count: u64 = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(40);

    let Some(w) = helios::workload(name) else {
        eprintln!("unknown workload `{name}`; see `helios::all_workloads()`");
        std::process::exit(helios::exit::FAILED);
    };

    if let Some(path) = konata {
        let mut obs = ObsOpts::timeline();
        obs.timeline_limit = limit;
        let run = SimRequest::mode(&w, mode).observing(obs).run();
        let observer = run.observer.expect("timeline observer was attached");
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(&path).unwrap_or_else(|e| {
                eprintln!("error: cannot create {path}: {e}");
                std::process::exit(helios::exit::FAILED);
            }),
        );
        observer.write_konata(&mut out).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(helios::exit::FAILED);
        });
        eprintln!(
            "wrote {path}: {} µ-op records, {} commits, {} cycles ({}, {})",
            observer.records().len(),
            observer.commit_events(),
            run.stats.cycles,
            w.name,
            mode.name(),
        );
        return;
    }

    println!("{}: retired µ-ops {skip}..{}", w.name, skip + count);
    for r in w.stream().skip(skip as usize).take(count as usize) {
        let mem = match r.mem {
            Some(m) => format!(
                " [{}{:#x}+{}]",
                if m.is_store { "st " } else { "ld " },
                m.addr,
                m.size
            ),
            None => String::new(),
        };
        let ctrl = if r.control_taken() {
            format!(" -> {:#x}", r.next_pc)
        } else {
            String::new()
        };
        println!(
            "{:>8}  {:#010x}  {:<28}{}{}",
            r.seq,
            r.pc,
            disassemble(&r.inst),
            mem,
            ctrl
        );
    }
}
