//! Simulation statistics: cycles, IPC, stall breakdowns (Fig. 9), branch and
//! cache behaviour, and the fusion statistics from `helios-core`.
//!
//! `SimStats` stays a plain struct of `u64` fields — the hot path increments
//! them directly. The `counters!` table below is the one place a counter is
//! named: each row gives its field, unit, registry name and description. The
//! table declares the `SimStats` fields, and its rows drive every projection
//! of them — [`SimStats::export`] into the self-describing [`StatsRegistry`]
//! view, and the flat [`SimStats::to_kv`] / [`SimStats::from_kv`] journal
//! format — so the three cannot drift apart.

use crate::obs::{StatsRegistry, Unit};
use helios_core::{FusionStats, Idiom};

/// Why Dispatch could not move a µ-op this cycle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DispatchStall {
    Rob,
    Iq,
    Lq,
    Sq,
}

/// One row of the counter table: one counter, or a per-index counter array
/// whose entries carry their own registry names.
struct Row {
    unit: Unit,
    /// Registry `(name, description)` of each counter, in index order.
    entries: &'static [(&'static str, &'static str)],
    /// `to_kv` key prefix of an array row, whose index `i` is keyed
    /// `{prefix}.{i}`; `None` for a scalar row, keyed by its registry name.
    kv_prefix: Option<&'static str>,
    get: fn(&SimStats) -> &[u64],
    get_mut: fn(&mut SimStats) -> &mut [u64],
}

/// Declares the counter table. A row reads
/// `field: Unit { "registry name" => "description" }`; an array row,
/// `field["kv prefix"]: Unit { … }`, has one entry per index. The rows of
/// the `SimStats` section become its fields; the `fusion` section covers
/// every field of [`FusionStats`].
macro_rules! counters {
    (@kv_prefix) => { None };
    (@kv_prefix $kv:literal) => { Some($kv) };
    (@slice [] $($v:tt)+) => { std::slice::from_ref(& $($v)+) };
    (@slice [$kv:literal] $($v:tt)+) => { & $($v)+ };
    (@slice_mut [] $($v:tt)+) => { std::slice::from_mut(&mut $($v)+) };
    (@slice_mut [$kv:literal] $($v:tt)+) => { &mut $($v)+ };
    (
        SimStats { $( $field:ident: $unit:ident { $name:literal => $desc:literal } )* }
        fusion {
            $( $f:ident $([$kv:literal])?: $funit:ident { $( $fname:literal => $fdesc:expr ),+ $(,)? } )*
        }
    ) => {
        /// Aggregate statistics for one simulation run.
        #[derive(Clone, PartialEq, Debug, Default)]
        pub struct SimStats {
            $( #[doc = $desc] pub $field: u64, )*
            /// Fusion statistics (the `fusion.*` rows).
            pub fusion: FusionStats,
        }

        /// Every counter, in registry order.
        const ROWS: &[Row] = &[
            $( Row {
                unit: Unit::$unit,
                entries: &[($name, $desc)],
                kv_prefix: None,
                get: |s| std::slice::from_ref(&s.$field),
                get_mut: |s| std::slice::from_mut(&mut s.$field),
            }, )*
            $( Row {
                unit: Unit::$funit,
                entries: &[$( ($fname, $fdesc) ),+],
                kv_prefix: counters!(@kv_prefix $($kv)?),
                get: |s| counters!(@slice [$($kv)?] s.fusion.$f),
                get_mut: |s| counters!(@slice_mut [$($kv)?] s.fusion.$f),
            }, )*
        ];

        // A field of either struct without a row fails to build here.
        const _: fn(&SimStats) = |SimStats { $($field: _,)* fusion: FusionStats { $($f: _),* } }| {};
    };
}

counters! {
    SimStats {
        cycles: Cycles { "cycles" => "total simulated cycles" }
        instructions: Instructions { "instructions" => "committed architectural instructions (a fused pair counts as 2)" }
        uops: Uops { "uops" => "committed µ-ops (a fused pair counts as 1)" }
        mem_instructions: Instructions { "mem_instructions" => "committed memory instructions (pre-fusion count)" }
        loads: Instructions { "loads" => "committed loads (pre-fusion count)" }
        stores: Instructions { "stores" => "committed stores (pre-fusion count)" }

        rename_stall_cycles: Cycles { "rename_stall_cycles" => "cycles Rename made zero progress for want of physical registers" }
        dispatch_stall_rob: Cycles { "dispatch_stall_rob" => "cycles Dispatch stalled on a full ROB" }
        dispatch_stall_iq: Cycles { "dispatch_stall_iq" => "cycles Dispatch stalled on a full IQ" }
        dispatch_stall_lq: Cycles { "dispatch_stall_lq" => "cycles Dispatch stalled on a full LQ" }
        dispatch_stall_sq: Cycles { "dispatch_stall_sq" => "cycles Dispatch stalled on a full SQ" }
        fetch_stall_redirect: Cycles { "fetch_stall_redirect" => "cycles the frontend waited on a mispredicted branch" }

        branches: Instructions { "branches" => "committed conditional branches" }
        branch_mispredicts: Events { "branch_mispredicts" => "mispredicted conditional branches" }
        indirects: Instructions { "indirects" => "committed indirect jumps" }
        indirect_mispredicts: Events { "indirect_mispredicts" => "mispredicted indirect-jump targets" }

        memdep_flushes: Events { "memdep_flushes" => "memory-order violation flushes" }
        ncsf_nest_aborts: Events { "ncsf_nest_aborts" => "predicted pairs abandoned at the Max Active NCS limit" }
        fusion_flushes: Events { "fusion_flushes" => "fusion-repair pipeline flushes (§IV-C cases 5/6)" }

        l1d_accesses: Events { "l1d_accesses" => "L1D accesses (demand loads + store drains)" }
        l1d_misses: Events { "l1d_misses" => "L1D misses" }
        l2_misses: Events { "l2_misses" => "L2 misses" }
        l3_misses: Events { "l3_misses" => "L3 misses" }
        stlf_forwards: Events { "stlf_forwards" => "store-to-load forwards" }
        uch_queue_dropped: Events { "uch_queue_dropped" => "UCH decoupling-queue records dropped (queue full)" }
        uch_queue_drained: Events { "uch_queue_drained" => "UCH decoupling-queue records drained" }

        deadlock_breaks: Events { "deadlock_breaks" => "pending pairs unfused by the resource-deadlock breaker" }
        injected_faults: Events { "injected_faults" => "faults injected by an attached FaultInjector" }
        oracle_checked: Events { "oracle_checked" => "commit records verified by an attached OracleChecker" }
    }
    fusion {
        csf_pairs: Pairs { "fusion.csf_pairs" => "committed consecutive fused pairs" }
        ncsf_pairs: Pairs { "fusion.ncsf_pairs" => "committed non-consecutive fused pairs" }
        by_idiom["fusion.by_idiom"]: Pairs {
            "fusion.idiom.load_pair" => Idiom::LoadPair.name(),
            "fusion.idiom.store_pair" => Idiom::StorePair.name(),
            "fusion.idiom.lui_addi" => Idiom::LuiAddi.name(),
            "fusion.idiom.auipc_addi" => Idiom::AuipcAddi.name(),
            "fusion.idiom.slli_add" => Idiom::SlliAdd.name(),
            "fusion.idiom.slli_srli" => Idiom::SlliSrli.name(),
            "fusion.idiom.indexed_load" => Idiom::IndexedLoad.name(),
            "fusion.idiom.load_global" => Idiom::LoadGlobal.name(),
        }
        contiguous: Pairs { "fusion.contiguous" => "committed memory pairs: contiguous accesses" }
        overlapping: Pairs { "fusion.overlapping" => "committed memory pairs: overlapping accesses" }
        same_line: Pairs { "fusion.same_line" => "committed memory pairs: same cache line" }
        next_line: Pairs { "fusion.next_line" => "committed memory pairs: adjacent cache line" }
        dbr_pairs: Pairs { "fusion.dbr_pairs" => "committed pairs with different base registers" }
        asymmetric_pairs: Pairs { "fusion.asymmetric_pairs" => "committed pairs with different access sizes" }
        ncsf_distance_sum: Uops { "fusion.ncsf_distance_sum" => "sum of head→tail distances of committed NCSF pairs" }
        predictions: Events { "fusion.predictions" => "fusion predictions issued" }
        predictions_correct: Events { "fusion.predictions_correct" => "predictions committed as fused pairs" }
        mispredictions: Events { "fusion.mispredictions" => "predictions unfused or flushed" }
        repairs["fusion.repairs"]: Events {
            "fusion.repair.raw_source_fix" => "case 1: catalyst RaW source fixed in place",
            "fusion.repair.deadlock" => "case 2: dependency deadlock, unfused at Dispatch",
            "fusion.repair.store_in_catalyst" => "case 3: store inside a store pair's catalyst, unfused",
            "fusion.repair.serializing" => "case 4: serializing instruction in the catalyst, unfused",
            "fusion.repair.span_mismatch" => "case 5: accesses span past the fusion region, flushed",
            "fusion.repair.tail_fault" => "case 6: tail access faulted, flushed",
            "fusion.repair.catalyst_flush" => "case 7: catalyst squashed under the pair, unfused",
        }
    }
}

/// Number of counters, and so of [`SimStats::to_kv`] pairs.
const KV_LEN: usize = {
    let (mut n, mut i) = (0, 0);
    while i < ROWS.len() {
        n += ROWS[i].entries.len();
        i += 1;
    }
    n
};

/// The rows in [`SimStats::to_kv`] order: scalar counters, then arrays.
fn kv_rows() -> impl Iterator<Item = &'static Row> {
    let scalars = ROWS.iter().filter(|r| r.kv_prefix.is_none());
    scalars.chain(ROWS.iter().filter(|r| r.kv_prefix.is_some()))
}

/// Parses an array index exactly as `to_kv` writes it: decimal digits, no
/// sign, no leading zero.
fn canonical_index(s: &str) -> Option<usize> {
    let canonical = s.bytes().all(|b| b.is_ascii_digit()) && (s == "0" || !s.starts_with('0'));
    s.parse().ok().filter(|_| canonical)
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Records a dispatch stall cycle attributed to `cause`.
    pub fn record_dispatch_stall(&mut self, cause: DispatchStall) {
        match cause {
            DispatchStall::Rob => self.dispatch_stall_rob += 1,
            DispatchStall::Iq => self.dispatch_stall_iq += 1,
            DispatchStall::Lq => self.dispatch_stall_lq += 1,
            DispatchStall::Sq => self.dispatch_stall_sq += 1,
        }
    }

    /// Total dispatch stall cycles.
    pub fn dispatch_stalls(&self) -> u64 {
        self.dispatch_stall_rob + self.dispatch_stall_iq + self.dispatch_stall_lq
            + self.dispatch_stall_sq
    }

    /// Dispatch + rename structural stalls as a percentage of cycles (Fig 9).
    pub fn stall_pct(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        100.0 * (self.dispatch_stalls() + self.rename_stall_cycles) as f64 / self.cycles as f64
    }

    /// Branch misprediction rate in MPKI.
    pub fn branch_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * (self.branch_mispredicts + self.indirect_mispredicts) as f64
                / self.instructions as f64
        }
    }

    /// Fusion MPKI (Table III).
    pub fn fusion_mpki(&self) -> f64 {
        self.fusion.mpki(self.instructions)
    }

    /// Fused pairs as % of dynamic instructions (both nucleii counted):
    /// the Fig. 2 metric.
    pub fn fused_pct_of_uops(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            100.0 * (2 * self.fusion.fused_pairs()) as f64 / self.instructions as f64
        }
    }

    /// Fused memory pairs as % of dynamic memory instructions (Fig. 8).
    pub fn fused_pct_of_mem(&self) -> (f64, f64) {
        if self.mem_instructions == 0 {
            return (0.0, 0.0);
        }
        let denom = self.mem_instructions as f64;
        (
            100.0 * (2 * self.fusion.csf_pairs) as f64 / denom,
            100.0 * (2 * self.fusion.ncsf_pairs) as f64 / denom,
        )
    }

    /// Exports every counter plus the derived metrics into `reg` as
    /// self-describing entries. Entry names and units are stable — the
    /// schema snapshot test pins them.
    pub fn export(&self, reg: &mut StatsRegistry) {
        for row in ROWS {
            for (&(name, desc), &v) in row.entries.iter().zip((row.get)(self)) {
                reg.counter(name, desc, row.unit, v);
            }
        }

        // Derived metrics.
        reg.gauge("ipc", "instructions per cycle", Unit::Ratio, self.ipc());
        reg.gauge(
            "stall_pct",
            "rename + dispatch structural stalls as % of cycles",
            Unit::Percent,
            self.stall_pct(),
        );
        reg.gauge("branch_mpki", "branch mispredictions per kilo-instruction", Unit::Mpki, self.branch_mpki());
        reg.gauge("fusion.mpki", "fusion mispredictions per kilo-instruction", Unit::Mpki, self.fusion_mpki());
        reg.gauge(
            "fusion.fused_pct_of_uops",
            "fused nucleii as % of dynamic instructions",
            Unit::Percent,
            self.fused_pct_of_uops(),
        );
    }

    /// The registry view of these statistics.
    pub fn registry(&self) -> StatsRegistry {
        let mut reg = StatsRegistry::new();
        self.export(&mut reg);
        reg
    }

    /// Lossless flat `name → value` projection of *every* raw counter, in a
    /// stable order — the sweep checkpoint-journal serialization: the
    /// scalar counters under their registry names, then each array as
    /// `fusion.by_idiom.{i}` and `fusion.repairs.{i}`.
    /// [`SimStats::from_kv`] inverts it exactly, so a cell restored from a
    /// journal reproduces byte-identical report output. Derived metrics
    /// (IPC, MPKI, …) are recomputed, never stored.
    pub fn to_kv(&self) -> Vec<(String, u64)> {
        let mut kv = Vec::with_capacity(KV_LEN);
        for row in kv_rows() {
            let values = (row.get)(self);
            match row.kv_prefix {
                None => kv.extend(
                    row.entries
                        .iter()
                        .zip(values)
                        .map(|(&(name, _), &v)| (name.to_string(), v)),
                ),
                Some(prefix) => kv.extend(
                    values
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (format!("{prefix}.{i}"), v)),
                ),
            }
        }
        kv
    }

    /// Rebuilds a `SimStats` from a [`SimStats::to_kv`] projection, in any
    /// order.
    ///
    /// # Errors
    ///
    /// Anything but exactly the keys `to_kv` emits, each once, is an error:
    /// an unknown key (an index alias such as `fusion.by_idiom.01` included),
    /// a duplicated key, or a missing one. A checkpoint journal written by a
    /// different stats schema must be rejected (and its cell re-simulated),
    /// never partially applied.
    pub fn from_kv<'a, I>(kv: I) -> Result<SimStats, String>
    where
        I: IntoIterator<Item = (&'a str, u64)>,
    {
        let mut out = SimStats::default();
        let mut seen = [false; KV_LEN];
        for (k, v) in kv {
            let (pos, slot) = out
                .kv_slot(k)
                .ok_or_else(|| format!("unknown stats key `{k}`"))?;
            if std::mem::replace(&mut seen[pos], true) {
                return Err(format!("duplicate stats key `{k}`"));
            }
            *slot = v;
        }
        let n = seen.iter().filter(|&&s| s).count();
        if n < KV_LEN {
            return Err(format!("incomplete stats projection: {n} of {KV_LEN} keys"));
        }
        Ok(out)
    }

    /// The position of `to_kv` key `k` in the projection, and the counter
    /// it names; `None` for a key `to_kv` never emits.
    fn kv_slot(&mut self, k: &str) -> Option<(usize, &mut u64)> {
        let mut pos = 0;
        for row in kv_rows() {
            let i = match row.kv_prefix {
                None => row.entries.iter().position(|&(name, _)| name == k),
                Some(prefix) => k
                    .strip_prefix(prefix)
                    .and_then(|rest| rest.strip_prefix('.'))
                    .and_then(canonical_index),
            };
            if let Some(i) = i {
                return (row.get_mut)(self).get_mut(i).map(|slot| (pos + i, slot));
            }
            pos += row.entries.len();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_core::{RepairCase, ALL_IDIOMS};
    use helios_prng::{Rng, SeedableRng, SliceRandom, StdRng};

    #[test]
    fn ipc_and_stalls() {
        let mut s = SimStats {
            cycles: 1000,
            instructions: 1500,
            ..SimStats::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        s.record_dispatch_stall(DispatchStall::Sq);
        s.record_dispatch_stall(DispatchStall::Sq);
        s.record_dispatch_stall(DispatchStall::Rob);
        s.rename_stall_cycles = 7;
        assert_eq!(s.dispatch_stalls(), 3);
        assert!((s.stall_pct() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fusion_percentages() {
        let mut s = SimStats {
            instructions: 1000,
            mem_instructions: 400,
            ..SimStats::default()
        };
        s.fusion.csf_pairs = 20;
        s.fusion.ncsf_pairs = 10;
        s.fusion.by_idiom[0] = 30; // load pairs
        assert!((s.fused_pct_of_uops() - 6.0).abs() < 1e-12);
        let (csf, ncsf) = s.fused_pct_of_mem();
        assert!((csf - 10.0).abs() < 1e-12);
        assert!((ncsf - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_safety() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.stall_pct(), 0.0);
        assert_eq!(s.branch_mpki(), 0.0);
    }

    #[test]
    fn kv_round_trips_losslessly() {
        // Assign a distinct value per key, rebuild, and require the
        // projection of the rebuilt struct to reproduce the exact
        // assignment — this catches dropped, duplicated, *and* swapped
        // field↔key mappings (the table's exhaustive pattern already makes
        // a field without a row a compile error).
        let assigned: Vec<(String, u64)> = SimStats::default()
            .to_kv()
            .into_iter()
            .enumerate()
            .map(|(i, (k, _))| (k, 1000 + i as u64))
            .collect();
        assert_eq!(assigned.len(), 29 + 12 + 8 + 7, "expected flat key count");
        assert_eq!(assigned.len(), KV_LEN);
        let s = SimStats::from_kv(
            assigned.iter().map(|(k, v)| (k.as_str(), *v)).collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(s.to_kv(), assigned);
        assert_eq!(s.cycles, 1000, "first key is cycles");
        assert_eq!(s.fusion.repairs[6], 1000 + 55, "last key is the last repair case");
    }

    /// The `to_kv` key sequence is the `helios-cache-v1` on-disk format:
    /// pinned, in order, as one FNV-1a digest of `key;` entries.
    #[test]
    fn kv_key_sequence_is_stable() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (k, _) in SimStats::default().to_kv() {
            for b in k.bytes().chain([b';']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(h, 0xc5a1_bf66_b3ae_8754, "to_kv key names or order changed");
    }

    /// `from_kv` accepts exactly the keys `to_kv` emits, each once: an
    /// unknown key, a missing key, a duplicate standing in for a missing
    /// key and an array index not written as `to_kv` writes it are errors.
    #[test]
    fn kv_rejects_drifted_schemas() {
        let kv = SimStats::default().to_kv();
        let pairs = || kv.iter().map(|(k, v)| (k.as_str(), *v));
        let renamed = |from: &str, to: &str| {
            SimStats::from_kv(pairs().map(|(k, v)| (if k == from { to } else { k }, v)))
        };
        let extra = pairs().chain([("no_such_counter", 1)]);
        assert!(SimStats::from_kv(extra).unwrap_err().contains("unknown"));
        let missing = pairs().skip(1);
        assert!(SimStats::from_kv(missing)
            .unwrap_err()
            .contains("incomplete"));
        assert!(renamed("instructions", "cycles")
            .unwrap_err()
            .contains("duplicate"));
        for (from, alias) in [
            ("fusion.by_idiom.1", "fusion.by_idiom.01"),
            ("fusion.by_idiom.1", "fusion.by_idiom.+1"),
            ("fusion.by_idiom.1", "fusion.by_idiom. 1"),
            ("fusion.by_idiom.7", "fusion.by_idiom.99"),
            ("fusion.repairs.0", "fusion.repairs.00"),
            ("fusion.repairs.6", "fusion.repairs.7"),
        ] {
            assert!(
                renamed(from, alias).unwrap_err().contains("unknown"),
                "{alias} accepted"
            );
        }
    }

    /// Seeded mutations of a valid projection: a key dropped, duplicated,
    /// or renamed to an alias or an unknown name, values swapped between
    /// keys, keys reordered. `from_kv` must either reject the input or
    /// return stats whose projection is the input, as a multiset of pairs.
    #[test]
    fn from_kv_accepts_only_exact_projections_under_mutation() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..2000 {
            let mut kv: Vec<(String, u64)> = SimStats::default()
                .to_kv()
                .into_iter()
                .map(|(k, _)| (k, rng.gen_range(0..4u64)))
                .collect();
            for _ in 0..rng.gen_range(1..=3u32) {
                let (n, i) = (kv.len(), rng.gen_range(0..kv.len()));
                match rng.gen_range(0..5u32) {
                    0 => {
                        kv.remove(i);
                    }
                    1 => {
                        let dup = kv[i].clone();
                        kv.insert(rng.gen_range(0..=n), dup);
                    }
                    2 => {
                        let k = kv[i].0.clone();
                        let (head, tail) = k.rsplit_once('.').unwrap_or(("", &k));
                        kv[i].0 = match rng.gen_range(0..4u32) {
                            0 => format!("{head}.0{tail}"),
                            1 => format!("{head}.+{tail}"),
                            2 => format!("{k}x"),
                            _ => kv[rng.gen_range(0..n)].0.clone(),
                        };
                    }
                    3 => {
                        let j = rng.gen_range(0..n);
                        let (a, b) = (kv[i].1, kv[j].1);
                        (kv[i].1, kv[j].1) = (b, a);
                    }
                    _ => kv.shuffle(&mut rng),
                }
            }
            match SimStats::from_kv(kv.iter().map(|(k, v)| (k.as_str(), *v))) {
                Err(_) => rejected += 1,
                Ok(s) => {
                    let mut got = s.to_kv();
                    got.sort_unstable();
                    kv.sort_unstable();
                    assert_eq!(got, kv, "from_kv accepted a mutated projection");
                    accepted += 1;
                }
            }
        }
        assert!(
            accepted > 100 && rejected > 100,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    /// Each array row names its indices in the order of the enum that
    /// indexes the array (`LoadPair` is `fusion.idiom.load_pair`), with
    /// exactly one entry per index.
    #[test]
    fn array_rows_follow_their_enum_order() {
        let snake = |variant: String| {
            let mut s = String::new();
            for c in variant.chars() {
                if c.is_ascii_uppercase() && !s.is_empty() {
                    s.push('_');
                }
                s.push(c.to_ascii_lowercase());
            }
            s
        };
        let entries = |prefix| {
            ROWS.iter()
                .find(|r| r.kv_prefix == Some(prefix))
                .expect("array row")
                .entries
        };
        for (i, &(name, desc)) in entries("fusion.by_idiom").iter().enumerate() {
            let idiom = ALL_IDIOMS[i];
            let expect = format!("fusion.idiom.{}", snake(format!("{idiom:?}")));
            assert_eq!(name, expect);
            assert_eq!(desc, idiom.name());
        }
        for (i, &(name, _)) in entries("fusion.repairs").iter().enumerate() {
            let case = RepairCase::ALL[i];
            let expect = format!("fusion.repair.{}", snake(format!("{case:?}")));
            assert_eq!(name, expect);
        }
        for r in ROWS {
            let n = (r.get)(&SimStats::default()).len();
            assert_eq!(r.entries.len(), n, "{:?}", r.entries);
        }
    }
}
