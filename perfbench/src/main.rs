//! perfbench — the Helios benchmark of record.
//!
//! ```text
//! python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `run.py` builds this binary and the `serve` daemon, then runs one
//! workload. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the metrics are the
//! end-to-end ones with `--trace 0` and the per-layer ones with
//! `--trace 1`. The lines before it give every metric, the workload's own
//! named ones too, with units, sample counts and provenance. A full record
//! (and the traced run's spans) is written under `--out-dir`.
//! See `perfbench/README.md` for the workloads and metrics.

mod bench;
mod golden;
mod metrics;
mod plan;
mod serve_warm;
mod spans;
mod stats;
mod sweep_warm;
mod sys;
mod trace_cold;

use bench::{Ctx, Outcome, Size};
use std::path::PathBuf;

pub const WORKLOADS: [&str; 3] = ["sweep-warm", "trace-cold", "serve-warm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    out_dir: PathBuf,
    rustc: String,
    commit: String,
    source: String,
    tiny: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--serve-bin <path>] [--out-dir <dir>] [--rustc <v>] [--commit <id>] [--source <digest>] [--tiny]\n\
         \x20      perfbench --write-golden <path>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        serve_bin: None,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        rustc: "unknown".to_string(),
        commit: "unknown".to_string(),
        source: "unknown".to_string(),
        tiny: false,
    };
    let mut have = (false, false, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            a.tiny = true;
            continue;
        }
        let val = it.next().unwrap_or_else(|| usage());
        let num = || {
            val.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--workload" => (a.workload, have.0) = (val.clone(), true),
            "--seed" => (a.seed, have.1) = (val.parse().unwrap_or_else(|_| usage()), true),
            "--seconds" => (a.seconds, have.2) = (num(), true),
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                };
                have.3 = true;
            }
            "--serve-bin" => a.serve_bin = Some(PathBuf::from(val)),
            "--out-dir" => a.out_dir = PathBuf::from(val),
            "--rustc" => a.rustc = val.clone(),
            "--commit" => a.commit = val.clone(),
            "--source" => a.source = val.clone(),
            _ => usage(),
        }
    }
    if have != (true, true, true, true) || !WORKLOADS.contains(&a.workload.as_str()) {
        usage();
    }
    a
}

/// Internal entry points this binary runs as its own child processes.
fn subcommand(argv: &[String]) -> Option<Result<(), String>> {
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let jobs = flag("--jobs").and_then(|j| j.parse().ok()).unwrap_or(1);
    let kernels: Vec<String> = flag("--kernels")
        .map(|k| k.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    if let Some(dir) = flag("--fill-store") {
        return Some(sweep_warm::fill_store(dir.as_ref(), jobs, &kernels));
    }
    if let Some(dir) = flag("--stage-profile") {
        let seed = flag("--seed").and_then(|s| s.parse().ok()).unwrap_or(0);
        return Some(
            sweep_warm::stage_profile(dir.as_ref(), jobs, seed, &kernels)
                .map(|line| println!("{line}")),
        );
    }
    if let Some(path) = flag("--write-golden") {
        return Some(sweep_warm::write_golden(
            path.as_ref(),
            helios::default_jobs(),
        ));
    }
    None
}

pub fn run_workload(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    match workload {
        "sweep-warm" => sweep_warm::run(ctx),
        "trace-cold" => trace_cold::run(ctx),
        "serve-warm" => serve_warm::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The gated metrics of a run: the end-to-end set untraced, the per-layer
/// set traced (0 for a layer that did no work in this workload).
pub fn gated(out: &Outcome, traced: bool) -> Vec<metrics::Metric> {
    let (list, source) = if traced {
        (metrics::PER_LAYER, &out.layers)
    } else {
        (&metrics::END_TO_END[..], &out.e2e)
    };
    list.iter()
        .map(|(name, unit)| metrics::Metric {
            name: name.to_string(),
            unit,
            value: source.get(name).unwrap_or(0.0),
        })
        .collect()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    helios::Json::Str(s.to_string()).to_string()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(r) = subcommand(&argv) {
        if let Err(e) = r {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let a = parse_args(&argv);
    let work = a
        .out_dir
        .join(format!("run-{}-{}", a.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        std::process::exit(1);
    }
    // Reports the sweep emits land in this run's scratch dir, never in the
    // repository's results/.
    std::env::set_var("HELIOS_RESULTS_DIR", work.join("results"));
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        traced: a.trace,
        jobs: helios::default_jobs(),
        size: if a.tiny { Size::Tiny } else { Size::Full },
        work: work.clone(),
        serve_bin: a.serve_bin.clone(),
        golden: golden::Golden::load(),
    };
    let result = run_workload(&ctx, &a.workload);
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", a.workload);
            std::process::exit(1);
        }
    };

    let provenance = [
        ("workload", json_str(&a.workload)),
        ("seed", a.seed.to_string()),
        ("seconds", json_num(a.seconds)),
        ("trace", a.trace.to_string()),
        ("jobs", ctx.jobs.to_string()),
        ("nproc", helios::default_jobs().to_string()),
        ("cpu", json_str(&sys::cpu_model())),
        ("rustc", json_str(&a.rustc)),
        ("commit", json_str(&a.commit)),
        ("source", json_str(&a.source)),
    ];
    let obj = |pairs: &[(&str, String)]| {
        let body: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    };
    let metric_obj = |ms: &mut dyn Iterator<Item = &metrics::Metric>| {
        let body: Vec<String> = ms
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    };

    // Human-readable lines first: provenance, every metric, the summaries.
    println!("# perfbench {}", obj(&provenance));
    for m in out.e2e.iter().chain(out.layers.iter()) {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("# {n}");
    }
    println!("# attempted {} failed {}", out.attempted, out.failed);

    let record = format!(
        "{{\"provenance\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{},\"notes\":[{}]}}\n",
        obj(&provenance),
        out.attempted,
        out.failed,
        metric_obj(&mut out.e2e.iter()),
        metric_obj(&mut out.layers.iter()),
        out.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(",")
    );
    let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
    let _ = std::fs::write(a.out_dir.join(format!("{stem}.json")), record);
    if let Some(t) = &out.tracer {
        let spans = format!("{{\"provenance\":{}}}\n{}", obj(&provenance), t.to_jsonl());
        let _ = std::fs::write(a.out_dir.join(format!("{stem}.spans.jsonl")), spans);
    }

    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted,
        out.failed,
        metric_obj(&mut gated(&out, a.trace).iter())
    );
    if !correct {
        std::process::exit(1);
    }
}
