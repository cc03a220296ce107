//! The `--server` thin client: ships a sweep grid to a running `sweepd`
//! and rebuilds a local [`Sweep`] from the streamed response.
//!
//! The returned sweep is indistinguishable from one produced by the local
//! executor — same [`RunResult`]s, same workload ordering, same
//! [`CellReport`] failure vocabulary — so every downstream consumer
//! (report assembly, geomeans, exit codes) works unchanged and the figure
//! output stays byte-identical to a local run.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use helios::{CellOutcome, CellReport, FusionMode, Json, RunResult, SimStats, Sweep, Workload};

use super::{EVENT_SCHEMA, REQUEST_SCHEMA};

/// What the daemon did for one sweep, as reported in its `done` event.
pub struct RemoteSummary {
    /// Cells answered from the persistent result cache.
    pub cache_hits: u64,
    /// Cells simulated fresh for this request.
    pub simulated: u64,
}

/// Extracts `host:port` from an `http://` URL (the only scheme `sweepd`
/// speaks), tolerating a trailing path.
fn authority(url: &str) -> Result<&str, String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("`{url}`: expected an http:// URL"))?;
    let authority = rest.split('/').next().unwrap_or(rest);
    if authority.is_empty() {
        return Err(format!("`{url}`: missing host"));
    }
    Ok(authority)
}

fn request_body(workloads: &[Workload], modes: &[FusionMode]) -> String {
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(REQUEST_SCHEMA.to_string())),
        (
            "workloads".to_string(),
            Json::Arr(
                workloads
                    .iter()
                    .map(|w| Json::Str(w.name.to_string()))
                    .collect(),
            ),
        ),
        (
            "modes".to_string(),
            Json::Arr(modes.iter().map(|m| Json::Str(m.name().to_string())).collect()),
        ),
    ])
    .to_string()
}

/// One event line from the response stream, checked for schema.
fn parse_event(line: &str) -> Result<Json, String> {
    let doc = Json::parse(line).map_err(|e| format!("malformed event line: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(EVENT_SCHEMA) => Ok(doc),
        Some(other) => Err(format!("foreign event schema `{other}`")),
        None => Err("event line missing `schema`".to_string()),
    }
}

/// The requested workload a wire name refers to, as its static name —
/// results must carry `&'static str` names like the local executor's. A name
/// outside the request is a protocol violation.
fn requested_name(workloads: &[Workload], name: &str) -> Result<&'static str, String> {
    workloads
        .iter()
        .find(|w| w.name == name)
        .map(|w| w.name)
        .ok_or_else(|| format!("server reported workload `{name}`, which was not requested"))
}

fn parse_cell(cell: &Json, workloads: &[Workload]) -> Result<RunResult, String> {
    let name = cell
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("cell missing `workload`")?;
    let mode = cell
        .get("mode")
        .and_then(Json::as_str)
        .and_then(FusionMode::parse)
        .ok_or("cell missing a known `mode`")?;
    let kv = cell
        .get("stats")
        .and_then(Json::as_object)
        .ok_or("cell missing `stats`")?;
    let pairs: Option<Vec<(&str, u64)>> = kv
        .iter()
        .map(|(k, v)| v.as_u64().map(|n| (k.as_str(), n)))
        .collect();
    let stats = SimStats::from_kv(pairs.ok_or("non-integer stat value")?)
        .map_err(|e| format!("{name}/{}: {e}", mode.name()))?;
    Ok(RunResult {
        workload: requested_name(workloads, name)?,
        mode,
        stats,
    })
}

fn parse_failure(f: &Json, workloads: &[Workload]) -> Result<CellReport, String> {
    let name = f
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("failure missing `workload`")?;
    let mode = f
        .get("mode")
        .and_then(Json::as_str)
        .and_then(FusionMode::parse)
        .ok_or("failure missing a known `mode`")?;
    let outcome = match f.get("kind").and_then(Json::as_str) {
        Some("timed_out") => CellOutcome::TimedOut {
            limit_ms: f.get("limit_ms").and_then(Json::as_u64).unwrap_or(0),
            attempts: 1,
        },
        Some("failed") => CellOutcome::Failed {
            error: f
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown server-side failure")
                .to_string(),
            attempts: 1,
        },
        other => return Err(format!("failure with unknown kind {other:?}")),
    };
    Ok(CellReport {
        workload: requested_name(workloads, name)?,
        mode,
        outcome,
    })
}

/// Runs the grid on a remote `sweepd` and rebuilds the [`Sweep`], also
/// returning the daemon's cache summary.
///
/// # Errors
///
/// Connection failures, protocol violations, and truncated streams (the
/// daemon stopping mid-sweep) all surface as `Err`; a successful return
/// means every requested cell is accounted for, as a result or a failure.
pub fn remote_sweep_with_summary(
    url: &str,
    workloads: &[Workload],
    modes: &[FusionMode],
) -> Result<(Sweep, RemoteSummary), String> {
    let authority = authority(url)?;
    let stream =
        TcpStream::connect(authority).map_err(|e| format!("connect {authority}: {e}"))?;
    let body = request_body(workloads, modes);
    let mut writer = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    write!(
        writer,
        "POST /v1/sweep HTTP/1.1\r\nHost: {authority}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send request: {e}"))?;
    writer.flush().map_err(|e| format!("send request: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read status line: {e}"))?;
    let status = line
        .split_whitespace()
        .nth(1)
        .ok_or_else(|| format!("malformed status line `{}`", line.trim_end()))?
        .to_string();
    let ok = status == "200";
    // Drain headers (EOF-delimited body follows the blank line).
    loop {
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read headers: {e}"))?;
        if line == "\r\n" || line == "\n" || line.is_empty() {
            break;
        }
    }
    if !ok {
        let mut body = String::new();
        std::io::Read::read_to_string(&mut reader, &mut body).ok();
        let detail = Json::parse(&body)
            .ok()
            .and_then(|d| d.get("error").and_then(Json::as_str).map(str::to_string))
            .unwrap_or(body);
        return Err(format!("server rejected the sweep ({status}): {detail}"));
    }

    let total = workloads.len() * modes.len();
    let progress = helios::Progress::new(total);
    let mut done_event = None;
    for line in (&mut reader).lines() {
        let line = line.map_err(|e| format!("read stream: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let event = parse_event(&line)?;
        match event.get("event").and_then(Json::as_str) {
            Some("progress") => {
                let w = event.get("workload").and_then(Json::as_str).unwrap_or("?");
                let m = event.get("mode").and_then(Json::as_str).unwrap_or("?");
                let src = event.get("source").and_then(Json::as_str).unwrap_or("?");
                progress.item_done(w, &format!("{m} [{src}]"));
            }
            Some("done") => {
                done_event = Some(event);
                break;
            }
            other => return Err(format!("unknown event {other:?}")),
        }
    }
    let done = done_event
        .ok_or("server stream ended without a done event (daemon stopped mid-sweep?)")?;
    progress.finish("remote sweep");

    let results = done
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("done event missing `cells`")?
        .iter()
        .map(|c| parse_cell(c, workloads))
        .collect::<Result<Vec<_>, _>>()?;
    let failures = done
        .get("failures")
        .and_then(Json::as_array)
        .ok_or("done event missing `failures`")?
        .iter()
        .map(|f| parse_failure(f, workloads))
        .collect::<Result<Vec<_>, _>>()?;
    // Every reported cell must be a requested one, reported once: only then
    // does the count below mean that no requested cell is missing.
    let mut seen = HashSet::new();
    let cells = results.iter().map(|r| (r.workload, r.mode));
    for (name, mode) in cells.chain(failures.iter().map(|f| (f.workload, f.mode))) {
        if !modes.contains(&mode) {
            return Err(format!(
                "server reported mode `{}`, which was not requested",
                mode.name()
            ));
        }
        if !seen.insert((name, mode)) {
            return Err(format!("server reported cell {name}/{} twice", mode.name()));
        }
    }
    if results.len() + failures.len() != total {
        return Err(format!(
            "server accounted for {} of {total} cells",
            results.len() + failures.len()
        ));
    }
    let summary = RemoteSummary {
        cache_hits: done.get("cache_hits").and_then(Json::as_u64).unwrap_or(0),
        simulated: done.get("simulated").and_then(Json::as_u64).unwrap_or(0),
    };
    // Same ordering contract as the local executor (`run_sweep_opts`).
    let order: Vec<&'static str> = workloads.iter().map(|w| w.name).collect();
    Ok((Sweep::assemble(results, order, failures), summary))
}

/// [`remote_sweep_with_summary`], reporting the cache summary on stderr —
/// the standard path for figure binaries, which reserve stdout for the
/// report.
pub fn remote_sweep(
    url: &str,
    workloads: &[Workload],
    modes: &[FusionMode],
) -> Result<Sweep, String> {
    let (sweep, summary) = remote_sweep_with_summary(url, workloads, modes)?;
    eprintln!(
        "server cache: {} hits, {} simulated",
        summary.cache_hits, summary.simulated
    );
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authority_extraction() {
        assert_eq!(authority("http://127.0.0.1:8080").unwrap(), "127.0.0.1:8080");
        assert_eq!(authority("http://host:1/v1/sweep").unwrap(), "host:1");
        assert!(authority("https://host").is_err());
        assert!(authority("host:80").is_err());
        assert!(authority("http:///path").is_err());
    }

    #[test]
    fn request_bodies_are_valid_requests() {
        let w = vec![helios::workload("fft").unwrap()];
        let body = request_body(&w, &[FusionMode::Helios, FusionMode::NoFusion]);
        let registry = super::super::registry();
        let parsed = super::super::parse_sweep_request(body.as_bytes(), &registry).unwrap();
        assert_eq!(parsed.workloads.len(), 1);
        assert_eq!(parsed.workloads[0].name, "fft");
        assert_eq!(
            parsed.modes,
            vec![FusionMode::Helios, FusionMode::NoFusion]
        );
    }
}
