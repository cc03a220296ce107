//! Figure 10 — IPC of all five fusion configurations, normalized to the
//! NoFusion baseline, per application plus the geometric mean.
//!
//! Also prints the paper's §V-B headline numbers: Helios vs NoFusion and vs
//! CSF-SBR, and OracleFusion vs NoFusion.
//!
//! ```text
//! cargo run --release -p helios-bench --bin fig10 [--quick|--only a,b] [--jobs N]
//! ```
//!
//! The simulator's own speed on this grid is measured by the benchmark of
//! record (`python3 perfbench/run.py --workload sweep-warm`), not here.

use helios::{format_row, FusionMode, Report, Table};

fn main() {
    let opts = helios_bench::parse_opts();
    let modes = FusionMode::ALL;
    let sweep = helios_bench::run_standard_sweep("fig10", &opts, &modes);

    let mut headers = vec!["benchmark".to_string(), "IPC(base)".to_string()];
    headers.extend(
        modes
            .iter()
            .skip(1)
            .map(|m| m.name().to_string()),
    );
    let mut table = Table::new(headers);

    for w in sweep.workloads() {
        let Some(base) = sweep.get(w, FusionMode::NoFusion).map(|s| s.ipc()) else {
            continue; // quarantined baseline: row omitted, named in the notes
        };
        let mut vals = vec![base];
        let complete = modes.iter().skip(1).all(|&m| {
            sweep
                .get(w, m)
                .map(|s| vals.push(s.ipc() / base))
                .is_some()
        });
        if complete {
            table.row(format_row(w, &vals, 3));
        }
    }
    // Geomean row.
    let mut geo = vec![f64::NAN];
    for &m in modes.iter().skip(1) {
        let (_, g) = sweep.normalized_ipc(m, FusionMode::NoFusion);
        geo.push(g);
    }
    table.row(format_row("geomean", &geo, 3));

    let pct = |m: FusionMode, b: FusionMode| {
        let vals: Vec<f64> = sweep
            .workloads()
            .iter()
            .filter_map(|w| Some(sweep.get(w, m)?.ipc() / sweep.get(w, b)?.ipc()))
            .collect();
        (helios::geomean(&vals) - 1.0) * 100.0
    };
    let mut report = Report::new("fig10", "Figure 10: IPC normalized to NoFusion", table);
    report.note("§V-B headline (geomean speedups):");
    report.note(format!(
        "  RISCVFusion   vs NoFusion : {:+.1}%   (paper:  +0.8%)",
        pct(FusionMode::RiscvFusion, FusionMode::NoFusion)
    ));
    report.note(format!(
        "  CSF-SBR       vs NoFusion : {:+.1}%   (paper:  +6.0%)",
        pct(FusionMode::CsfSbr, FusionMode::NoFusion)
    ));
    report.note(format!(
        "  RISCVFusion++ vs NoFusion : {:+.1}%   (paper:  +7.0%)",
        pct(FusionMode::RiscvFusionPlusPlus, FusionMode::NoFusion)
    ));
    report.note(format!(
        "  Helios        vs NoFusion : {:+.1}%   (paper: +14.2%)",
        pct(FusionMode::Helios, FusionMode::NoFusion)
    ));
    report.note(format!(
        "  Helios        vs CSF-SBR  : {:+.1}%   (paper:  +8.2%)",
        pct(FusionMode::Helios, FusionMode::CsfSbr)
    ));
    report.note(format!(
        "  OracleFusion  vs NoFusion : {:+.1}%   (paper: +16.3%)",
        pct(FusionMode::OracleFusion, FusionMode::NoFusion)
    ));
    helios_bench::finalize_sweep_report(report, &sweep);
}
