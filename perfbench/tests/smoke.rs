//! Tiny-size smoke runs of every workload through the real binary, untraced
//! and traced. Each must exit 0 and end with a result line whose metrics
//! are exactly the ones `BENCHMARK.json` declares, with their units; the
//! untraced run must also print the workload's own named metrics.
//!
//! serve-warm needs the `serve` daemon, which these tests build into
//! `$CARGO_TARGET_DIR` when it is absolute, else into `.bench_build` at
//! the repository root (where `run.py` builds it too).

use helios::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn serve_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .filter(|p| p.is_absolute())
            .unwrap_or_else(|| repo().join(".bench_build"));
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "-q",
                "-p",
                "helios-bench",
                "--bin",
                "serve",
            ])
            .env("CARGO_TARGET_DIR", &target)
            .current_dir(repo())
            .status()
            .expect("run cargo");
        assert!(status.success(), "building serve failed");
        target.join("release").join("serve")
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

struct Run {
    stdout: String,
    metrics: Vec<(String, f64, String)>,
    out_dir: PathBuf,
}

impl Run {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("no metric `{name}`"))
            .1
    }

    /// Whether a human-readable line names `name` with `unit`.
    fn prints(&self, name: &str, unit: &str) -> bool {
        self.stdout.lines().any(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f.len() == 3 && f[0] == name && f[1].parse::<f64>().is_ok() && f[2] == unit
        })
    }
}

fn run(workload: &str, traced: bool) -> Run {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{traced}"));
    let _ = std::fs::remove_dir_all(&out_dir);
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--serve-bin")
        .arg(serve_bin())
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "{workload} trace={traced} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("result line");
    let doc = Json::parse(last).expect("result line is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(
        doc.get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            let u = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            (name.clone(), v, u)
        })
        .collect::<Vec<_>>();
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect();
    assert_eq!(
        got,
        declared(if traced { "per_layer" } else { "end_to_end" })
    );
    Run {
        stdout,
        metrics,
        out_dir,
    }
}

fn untraced(workload: &str, own: &[(&str, &str)]) {
    let r = run(workload, false);
    for (name, _, _) in &r.metrics {
        assert!(r.value(name) > 0.0, "{workload}: {name} must never be 0");
    }
    for (name, unit) in own {
        assert!(
            r.prints(name, unit),
            "{workload} prints no `{name}` in {unit}:\n{}",
            r.stdout
        );
    }
    assert!(r
        .stdout
        .lines()
        .next()
        .is_some_and(|l| l.starts_with("# perfbench {")));
}

#[test]
fn sweep_warm_untraced() {
    untraced(
        "sweep-warm",
        &[("sim_mcycles_per_s", "Mcycles/s"), ("cells", "count")],
    );
}

#[test]
fn trace_cold_untraced() {
    untraced(
        "trace-cold",
        &[("muops_per_s", "Muops/s"), ("kernels", "count")],
    );
}

#[test]
fn serve_warm_untraced() {
    untraced(
        "serve-warm",
        &[
            ("req_ms_p50", "ms"),
            ("req_per_s", "req/s"),
            ("requests", "count"),
        ],
    );
}

#[test]
fn sweep_warm_traced() {
    let r = run("sweep-warm", true);
    assert_eq!(
        r.value("store.recorded"),
        0.0,
        "a warm sweep records nothing"
    );
    for m in [
        "uarch.cycles",
        "uarch.mcycles_per_s",
        "sweep.parallel_eff",
        "codec.decode_muops_per_s",
    ] {
        assert!(r.value(m) > 0.0, "{m}");
    }
    assert!(r.value("uarch.ns_per_cycle.rename_dispatch") > 0.0);
    assert!(r
        .out_dir
        .join("sweep-warm-seed11-trace1.spans.jsonl")
        .exists());
}

#[test]
fn trace_cold_traced() {
    let r = run("trace-cold", true);
    assert_eq!(r.value("store.recorded"), 2.0);
    for m in [
        "emu.record_ms",
        "codec.encode_muops_per_s",
        "store.bytes_written",
        "decomp.record_s",
    ] {
        assert!(r.value(m) > 0.0, "{m}");
    }
    assert_eq!(
        r.value("uarch.cycles"),
        0.0,
        "the cycle model does no work here"
    );
}

#[test]
fn serve_warm_traced() {
    let r = run("serve-warm", true);
    assert_eq!(
        r.value("server.cells_simulated"),
        0.0,
        "every cell is a cache hit"
    );
    for m in [
        "server.cells_cached",
        "server.ttfb_ms_p50",
        "client.assemble_ms",
        "cache.open_ms",
    ] {
        assert!(r.value(m) > 0.0, "{m}");
    }
}
