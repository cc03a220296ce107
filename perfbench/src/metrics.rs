//! The metric catalogue, shared by the workloads and the output.
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; the smoke tests check every run's output against it.

/// End-to-end metrics, reported by every workload's untraced run. They are
/// defined so each is meaningful, and never zero, on every workload.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Stage names of the cycle model's profiler, in `STAGE_NAMES` order.
pub const STAGES: [&str; 10] = helios_uarch::profile::STAGE_NAMES;

/// Per-layer metrics, reported by every workload's traced run. A layer that
/// does no work in the measured part of a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("isa.words", "count"),
    ("isa.words_per_s", "1/s"),
    ("workloads.lookup_ms", "ms"),
    ("emu.record_ms", "ms"),
    ("emu.minst_per_s", "Minst/s"),
    ("codec.encode_muops_per_s", "Muops/s"),
    ("codec.decode_muops_per_s", "Muops/s"),
    ("codec.bytes_per_uop", "B/uop"),
    ("store.record_ms", "ms"),
    ("store.hit_ms", "ms"),
    ("store.bytes_written", "B"),
    ("store.recorded", "count"),
    ("store.hits", "count"),
    ("store.quarantined", "count"),
    ("uarch.mcycles_per_s", "Mcycles/s"),
    ("uarch.cycles", "count"),
    ("uarch.uops", "count"),
    ("uarch.cell_ms_p50", "ms"),
    ("uarch.cell_ms_p90", "ms"),
    ("uarch.ns_per_cycle.wakeup", "ns"),
    ("uarch.ns_per_cycle.commit", "ns"),
    ("uarch.ns_per_cycle.uch_drain", "ns"),
    ("uarch.ns_per_cycle.drain_stores", "ns"),
    ("uarch.ns_per_cycle.store_checks", "ns"),
    ("uarch.ns_per_cycle.flushes", "ns"),
    ("uarch.ns_per_cycle.issue", "ns"),
    ("uarch.ns_per_cycle.rename_dispatch", "ns"),
    ("uarch.ns_per_cycle.fetch_decode", "ns"),
    ("uarch.ns_per_cycle.misc", "ns"),
    ("model.helios_uplift_pct", "%"),
    ("model.paper_gap_pp", "pp"),
    ("sweep.parallel_eff", "ratio"),
    ("sweep.residual_frac", "ratio"),
    ("sweep.cells", "count"),
    ("sweep.failed", "count"),
    ("report.render_ms", "ms"),
    ("server.ttfb_ms_p50", "ms"),
    ("server.stream_ms_p50", "ms"),
    ("server.cells_cached", "count"),
    ("server.cells_simulated", "count"),
    ("cache.open_ms", "ms"),
    ("cache.get_us", "us"),
    ("digest.trace_us", "us"),
    ("digest.cfg_us", "us"),
    ("client.assemble_ms", "ms"),
    ("decomp.build_s", "s"),
    ("decomp.record_s", "s"),
    ("decomp.encode_s", "s"),
    ("decomp.store_io_s", "s"),
    ("decomp.decode_s", "s"),
    ("decomp.simulate_s", "s"),
    ("decomp.report_s", "s"),
    ("decomp.residual_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Helios geomean IPC uplift over NoFusion reported by the paper (§V-B).
pub const PAPER_HELIOS_UPLIFT_PCT: f64 = 14.2;

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics of one run, kept in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// If `name` is not in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("uncatalogued metric `{name}`"));
        self.put(name, unit, value);
    }

    /// Sets a metric outside the catalogue (the report-only ones).
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}
