//! What every workload shares: the run context, the outcome it returns,
//! and the setup/measure loops.

use crate::golden::Golden;
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::Summary;
use helios::{FusionMode, Trace, Workload};
use helios_emu::BlockReplay;
use std::path::PathBuf;
use std::time::Instant;

/// How much of the corpus a run uses. `Tiny` exists for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Size {
    Full,
    Tiny,
}

/// The two kernels of a tiny run: the shortest of the corpus.
pub const TINY_KERNELS: [&str; 2] = ["crc32", "bitcount"];

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub jobs: usize,
    pub size: Size,
    /// Scratch directory owned by this run (stores, caches, reports).
    pub work: PathBuf,
    /// The `serve` daemon binary (serve-warm only).
    pub serve_bin: Option<PathBuf>,
    pub golden: Golden,
}

impl Ctx {
    /// The corpus for this size, in registry order.
    pub fn kernels(&self) -> Vec<Workload> {
        let all = helios::all_workloads();
        match self.size {
            Size::Full => all,
            Size::Tiny => all
                .into_iter()
                .filter(|w| TINY_KERNELS.contains(&w.name))
                .collect(),
        }
    }

    /// The fusion modes of a sweep grid for this size.
    pub fn modes(&self) -> Vec<FusionMode> {
        match self.size {
            Size::Full => FusionMode::ALL.to_vec(),
            Size::Tiny => vec![FusionMode::NoFusion, FusionMode::Helios],
        }
    }

    /// Set-up repetitions whose median is `setup_s`.
    pub fn setups(&self, full: usize) -> usize {
        match self.size {
            Size::Full => full,
            Size::Tiny => 2,
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells, kernels or requests.
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// End-to-end metrics, the gated ones plus the workload's own named
    /// ones (`sim_mcycles_per_s`, `req_ms_p50`, …).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// Human-readable timing summaries (median, tail, sample count).
    pub notes: Vec<String>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn note(&mut self, label: &str, s: &Summary, unit: &str) {
        self.notes.push(format!("{label}: {}", s.describe(unit)));
    }

    /// Notes the summary of `xs` (seconds) and every value.
    pub fn note_each(&mut self, label: &str, xs: &[f64]) {
        self.note(label, &Summary::of(xs), "s");
        let each: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
        self.notes.push(format!("{label} each: {}", each.join(" ")));
    }

    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs `setup` `n` times and keeps the last result. Returns it with every
/// repetition's duration in seconds. Earlier results are dropped outside
/// the timed region.
pub fn repeat_setup<T>(n: usize, mut setup: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut kept = None;
    for i in 0..n.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        let v = setup(i);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(v);
    }
    (kept.expect("at least one setup ran"), times)
}

/// Runs `pass` until starting another would overrun `seconds` (judged by
/// the slowest pass so far), and at least once. Returns each pass's result
/// with its wall time in seconds.
pub fn repeat_passes<T>(seconds: f64, mut pass: impl FnMut(usize) -> T) -> Vec<(T, f64)> {
    let start = Instant::now();
    let mut out: Vec<(T, f64)> = Vec::new();
    loop {
        let t0 = Instant::now();
        let v = pass(out.len());
        out.push((v, t0.elapsed().as_secs_f64()));
        let slowest = out.iter().map(|(_, w)| *w).fold(0.0, f64::max);
        if start.elapsed().as_secs_f64() + slowest > seconds {
            return out;
        }
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median of `f`'s duration over `reps` calls, in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&xs)
}

/// Times `all_workloads()` (assembling every kernel) and records
/// `workloads.build_ms`, `isa.words` and `isa.words_per_s`.
pub fn timed_build(layers: &mut Metrics) {
    let t0 = Instant::now();
    let all = helios::all_workloads();
    let s = t0.elapsed().as_secs_f64();
    let words: usize = all.iter().map(|w| w.program.words().len()).sum();
    layers.set("workloads.build_ms", s * 1e3);
    layers.set("isa.words", words as f64);
    layers.set("isa.words_per_s", words as f64 / s);
}

/// µ-ops read back from a stored trace through `BlockReplay`; `None` when
/// it cannot be opened or lives in memory.
pub fn drain(t: &Trace) -> Option<u64> {
    match t {
        Trace::Disk(d) => BlockReplay::open(d.path()).ok().map(|r| r.count() as u64),
        Trace::Memory(_) => None,
    }
}

/// Records `workloads.lookup_ms`: the median cost of `helios::workload`
/// (the daemon's per-name lookup) over `names`.
pub fn timed_lookups(layers: &mut Metrics, names: &[&str]) {
    let xs: Vec<f64> = names
        .iter()
        .map(|n| {
            let t0 = Instant::now();
            let w = helios::workload(n);
            let ms = ms_since(t0);
            assert!(w.is_some(), "registered workload `{n}`");
            ms
        })
        .collect();
    layers.set("workloads.lookup_ms", crate::stats::median(&xs));
}

/// Records the traced run's own overhead against the untraced pass.
pub fn record_overhead(layers: &mut Metrics, untraced_s: f64, traced_s: f64) {
    layers.set("trace.untraced_wall_s", untraced_s);
    layers.set("trace.traced_wall_s", traced_s);
    layers.set("trace.overhead_s", traced_s - untraced_s);
}

/// Records a wall-clock decomposition: each row, and the residual of
/// `total` they leave unexplained (as measured, never clamped), also as a
/// fraction of `total` in `sweep.residual_frac`.
pub fn decompose(layers: &mut Metrics, rows: &[(&str, f64)], total: f64) {
    let explained: f64 = rows.iter().map(|(_, s)| s).sum();
    for (name, s) in rows {
        layers.set(name, *s);
    }
    layers.set("decomp.residual_s", total - explained);
    layers.set("sweep.residual_frac", (total - explained) / total);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_run_at_least_once_and_stop_before_overrunning() {
        let runs = repeat_passes(0.0, |i| i);
        assert_eq!(runs.len(), 1);
        let runs = repeat_passes(0.05, |_| {
            std::thread::sleep(std::time::Duration::from_millis(10))
        });
        assert!((2..=5).contains(&runs.len()), "{}", runs.len());
    }

    #[test]
    fn setup_keeps_the_last_result() {
        let (v, times) = repeat_setup(3, |i| i * 10);
        assert_eq!(v, 20);
        assert_eq!(times.len(), 3);
    }
}
