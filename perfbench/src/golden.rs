//! Golden per-cell output digests for the fig10 grid (all 32 kernels ×
//! every fusion mode). Every cell the benchmark receives, from the sweep
//! engine or from the daemon, is checked against them.
//!
//! Regenerate only when a change alters simulated statistics on purpose:
//! `perfbench --write-golden perfbench/golden/fig10.tsv` (from the
//! repository root, after building).

use helios::{FusionMode, SimStats};
use std::collections::HashMap;

const GOLDEN: &str = include_str!("../golden/fig10.tsv");

/// FNV-1a over every `SimStats::to_kv` pair, rendered `name=value;`.
pub fn digest(stats: &SimStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in stats.to_kv() {
        for b in format!("{k}={v};").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The committed digests, keyed by `(workload, mode name)`.
pub struct Golden {
    cells: HashMap<(String, String), u64>,
}

impl Golden {
    pub fn load() -> Golden {
        let cells = GOLDEN
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                assert_eq!(f.len(), 3, "malformed golden line `{l}`");
                let d = u64::from_str_radix(f[2], 16).expect("golden digest is hex");
                ((f[0].to_string(), f[1].to_string()), d)
            })
            .collect();
        Golden { cells }
    }

    /// Whether `stats` is the committed result for this cell. A cell with
    /// no golden entry never matches.
    pub fn matches(&self, workload: &str, mode: FusionMode, stats: &SimStats) -> bool {
        self.cells
            .get(&(workload.to_string(), mode.name().to_string()))
            == Some(&digest(stats))
    }
}

/// The golden file's text for a finished grid, in the given cell order.
pub fn render(cells: &[(&str, FusionMode, &SimStats)]) -> String {
    let mut out = String::from(
        "# Golden SimStats::to_kv digests (FNV-1a of `name=value;`), one fig10 cell per line.\n\
         # workload\tmode\tdigest\n",
    );
    for (w, m, s) in cells {
        out.push_str(&format!("{w}\t{}\t{:016x}\n", m.name(), digest(s)));
    }
    out
}
