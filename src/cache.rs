//! The persistent result store: one simulated sweep cell per line, shared by
//! local sweeps (`--resume`, via [`crate::Checkpoint`]) and the `sweepd`
//! daemon.
//!
//! A cell's identity is `(trace digest, config digest, ISA version)`:
//!
//! - the **trace digest** is [`TraceStore::digest`] over the workload's
//!   program — recording is strict, so the program *is* the trace;
//! - the **config digest** is [`PipeConfig::digest`], which exhaustively
//!   covers every field (including the fusion mode), so any config change
//!   keys a different cell;
//! - the **ISA version** guards against semantics changes that keep the
//!   program bytes identical.
//!
//! Storage is an append-only JSONL file, one self-describing
//! `helios-cache-v1` object per line, fsynced per append so a crash loses at
//! most the line being written. Lines that fail to parse, are not UTF-8,
//! carry a foreign schema, or were written under a different ISA version
//! are skipped on load (counted, not fatal) — the cost of a dropped line is
//! one re-simulation, never a wrong result. A torn final line is left in
//! place for diagnosis; the next append starts on a fresh line.
//!
//! Only successful cells are stored. Failures and timeouts are
//! environmental (watchdog budgets, chaos injection, host load) and must
//! stay retryable.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use helios_emu::TraceStore;
use helios_isa::ISA_VERSION;
use helios_uarch::{PipeConfig, SimStats};
use helios_workloads::Workload;

use crate::Json;

/// Schema tag on every cache line.
const SCHEMA: &str = "helios-cache-v1";

/// Cache identity of one sweep cell.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CellKey {
    /// [`TraceStore::digest`] of the workload's program.
    pub trace: u64,
    /// [`PipeConfig::digest`] of the full configuration.
    pub cfg: u64,
}

impl CellKey {
    /// The key of simulating `workload` under `cfg`.
    pub fn of(workload: &Workload, cfg: &PipeConfig) -> CellKey {
        CellKey {
            trace: TraceStore::digest(&workload.program),
            cfg: cfg.digest(),
        }
    }
}

/// An in-memory index over the append-only cache journal.
pub struct ResultCache {
    path: PathBuf,
    entries: HashMap<CellKey, SimStats>,
    /// Lines skipped on load: malformed, non-UTF-8, foreign schema, or
    /// stale ISA.
    skipped: usize,
    /// The file does not end in a newline (a torn append), so the next
    /// append must start one.
    torn_tail: bool,
}

fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex16(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

impl ResultCache {
    /// Opens (or creates) the cache journal at `path` and indexes every
    /// valid line. Later lines win over earlier ones for the same key.
    ///
    /// # Errors
    ///
    /// Only when the parent directory cannot be created or the file exists
    /// but cannot be read; bad *content* is skipped, never an error.
    pub fn open(path: &Path) -> Result<ResultCache, String> {
        let mut cache = ResultCache {
            path: path.to_path_buf(),
            entries: HashMap::new(),
            skipped: 0,
            torn_tail: false,
        };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(cache),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        cache.torn_tail = bytes.last().is_some_and(|&b| b != b'\n');
        for line in bytes.split(|&b| b == b'\n') {
            if line.trim_ascii().is_empty() {
                continue;
            }
            match std::str::from_utf8(line).ok().and_then(Self::parse_line) {
                Some((key, stats)) => {
                    cache.entries.insert(key, stats);
                }
                None => cache.skipped += 1,
            }
        }
        Ok(cache)
    }

    fn parse_line(line: &str) -> Option<(CellKey, SimStats)> {
        let doc = Json::parse(line).ok()?;
        if doc.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        if doc.get("isa")?.as_u64()? != u64::from(ISA_VERSION) {
            return None;
        }
        let key = CellKey {
            trace: parse_hex16(doc.get("trace")?.as_str()?)?,
            cfg: parse_hex16(doc.get("cfg")?.as_str()?)?,
        };
        let stats = doc.get("stats")?.as_object()?;
        let kv: Option<Vec<(&str, u64)>> = stats
            .iter()
            .map(|(k, v)| v.as_u64().map(|n| (k.as_str(), n)))
            .collect();
        SimStats::from_kv(kv?).ok().map(|s| (key, s))
    }

    /// Cached stats for `key`, if any.
    pub fn get(&self, key: CellKey) -> Option<&SimStats> {
        self.entries.get(&key)
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no cells.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lines skipped on load (malformed / non-UTF-8 / foreign schema /
    /// stale ISA).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Records a successful cell: updates the index and appends one fsynced
    /// line to the journal. The `workload` and `mode` names ride along for
    /// human debugging only; identity lives entirely in `key`.
    ///
    /// # Errors
    ///
    /// When the append or fsync fails; the in-memory index is then left
    /// unchanged.
    pub fn put(
        &mut self,
        key: CellKey,
        workload: &str,
        mode: &str,
        stats: &SimStats,
    ) -> Result<(), String> {
        let line = Json::Obj(vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("isa".to_string(), Json::Num(f64::from(ISA_VERSION))),
            ("trace".to_string(), Json::Str(hex16(key.trace))),
            ("cfg".to_string(), Json::Str(hex16(key.cfg))),
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("mode".to_string(), Json::Str(mode.to_string())),
            (
                "stats".to_string(),
                Json::Obj(
                    stats
                        .to_kv()
                        .into_iter()
                        .map(|(k, v)| (k, Json::Num(v as f64)))
                        .collect(),
                ),
            ),
        ])
        .to_string();
        // Never glue a durable line onto a torn one: finish the torn tail
        // first.
        let record = format!("{}{line}\n", if self.torn_tail { "\n" } else { "" });
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("open {}: {e}", self.path.display()))?;
        let written = f.write_all(record.as_bytes()).and_then(|()| f.sync_data());
        // An append that fails part-way may leave a torn tail of its own.
        self.torn_tail = written.is_err();
        written.map_err(|e| format!("append {}: {e}", self.path.display()))?;
        self.entries.insert(key, stats.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "helios-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir.join("results.jsonl")
    }

    fn stats(cycles: u64) -> SimStats {
        SimStats {
            cycles,
            instructions: cycles / 2,
            ..SimStats::default()
        }
    }

    #[test]
    fn round_trips_through_the_journal() {
        let path = scratch("rt");
        let key = CellKey {
            trace: 0xdead_beef_0000_0001,
            cfg: 0x1234,
        };
        {
            let mut cache = ResultCache::open(&path).unwrap();
            assert!(cache.is_empty());
            cache.put(key, "fft", "Helios", &stats(1000)).unwrap();
            assert_eq!(cache.get(key).unwrap().cycles, 1000);
        }
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.skipped(), 0);
        assert_eq!(cache.get(key).unwrap(), &stats(1000));
        assert!(cache.get(CellKey { trace: 1, cfg: 2 }).is_none());
    }

    #[test]
    fn later_lines_win_and_bad_lines_are_skipped_not_fatal() {
        let path = scratch("skew");
        let key = CellKey { trace: 7, cfg: 9 };
        let mut cache = ResultCache::open(&path).unwrap();
        cache.put(key, "w", "NoFusion", &stats(10)).unwrap();
        cache.put(key, "w", "NoFusion", &stats(20)).unwrap();
        // Corrupt line + foreign schema + stale ISA + a renamed stat field,
        // all skipped on load.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "{{ not json").unwrap();
        writeln!(f, "{{\"schema\":\"other-v1\"}}").unwrap();
        writeln!(
            f,
            "{{\"schema\":\"{SCHEMA}\",\"isa\":999,\"trace\":\"{}\",\"cfg\":\"{}\",\"stats\":{{}}}}",
            hex16(1),
            hex16(2)
        )
        .unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        writeln!(
            f,
            "{}",
            good.lines().next().unwrap().replace("cycles", "cycels")
        )
        .unwrap();
        drop(f);
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(key).unwrap().cycles, 20);
        assert_eq!(cache.skipped(), 4);
    }

    #[test]
    fn append_after_a_torn_tail_survives_reload() {
        let path = scratch("torn");
        let (old, new) = (CellKey { trace: 1, cfg: 1 }, CellKey { trace: 2, cfg: 2 });
        ResultCache::open(&path)
            .unwrap()
            .put(old, "w", "NoFusion", &stats(10))
            .unwrap();
        // A crash mid-append leaves half a line with no newline.
        let intact = std::fs::read_to_string(&path).unwrap();
        let torn = &intact[..intact.len() / 2];
        std::fs::write(&path, format!("{intact}{torn}")).unwrap();

        let mut cache = ResultCache::open(&path).unwrap();
        assert_eq!((cache.len(), cache.skipped()), (1, 1));
        cache.put(new, "w", "Helios", &stats(20)).unwrap();

        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(
            cache.get(new),
            Some(&stats(20)),
            "new cell lost behind the torn tail"
        );
        assert_eq!(cache.get(old), Some(&stats(10)));
        assert_eq!(cache.skipped(), 1, "torn bytes are kept, and skipped");
        assert!(std::fs::read_to_string(&path).unwrap().contains(torn));
    }

    #[test]
    fn non_utf8_line_is_skipped_not_fatal() {
        let path = scratch("utf8");
        let key = CellKey { trace: 3, cfg: 4 };
        ResultCache::open(&path)
            .unwrap()
            .put(key, "w", "NoFusion", &stats(10))
            .unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"schema\":\"\xff\xfe\"}\n").unwrap();
        drop(f);
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!((cache.len(), cache.skipped()), (1, 1));
        assert_eq!(cache.get(key), Some(&stats(10)));
    }
}
