//! End-to-end tests for `sweepd`: an in-process daemon on an ephemeral
//! port, exercised through the real TCP stack — the thin client, raw
//! sockets, concurrent clients, and cache persistence across restarts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use helios::{FusionMode, Json, SimRequest, SimStats, Workload};
use helios_bench::server::client::remote_sweep_with_summary;
use helios_bench::server::{Server, ServerConfig};

/// A fresh scratch directory for one test's daemon state.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helios-sweepd-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Binds a daemon on an ephemeral port and serves it from a thread until
/// the returned guard is dropped.
struct Daemon {
    server: Arc<Server>,
    url: String,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(cache_dir: &Path) -> Daemon {
        let server = Arc::new(
            Server::bind(&ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                jobs: 2,
                cache_dir: cache_dir.to_path_buf(),
                cell_timeout: None,
            })
            .expect("bind ephemeral port"),
        );
        let url = format!("http://{}", server.local_addr());
        let runner = server.clone();
        let thread = std::thread::spawn(move || runner.run());
        Daemon {
            server,
            url,
            thread: Some(thread),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.server.stop();
        if let Some(t) = self.thread.take() {
            t.join().expect("accept loop exits cleanly");
        }
    }
}

fn grid() -> (Vec<Workload>, Vec<FusionMode>) {
    let workloads = ["crc32", "bitcount"]
        .iter()
        .map(|n| helios::workload(n).expect("registered"))
        .collect();
    (workloads, vec![FusionMode::NoFusion, FusionMode::Helios])
}

#[test]
fn remote_sweep_matches_local_and_resubmission_hits_the_cache() {
    let dir = scratch("e2e");
    let daemon = Daemon::start(&dir);
    let (workloads, modes) = grid();

    let (sweep, summary) =
        remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("remote sweep");
    assert_eq!(summary.simulated, 4, "cold cache simulates every cell");
    assert_eq!(summary.cache_hits, 0);
    assert!(sweep.is_complete());
    assert_eq!(sweep.workloads(), vec!["crc32", "bitcount"]);

    // Remote stats are exactly the local executor's stats, cell by cell.
    for w in &workloads {
        for &mode in &modes {
            let local = SimRequest::mode(w, mode).run().stats;
            let remote = sweep.get(w.name, mode).expect("cell present");
            assert_eq!(remote, &local, "{}/{}", w.name, mode.name());
        }
    }

    // Resubmitting the identical grid must re-simulate nothing.
    let (again, summary) =
        remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("warm resubmission");
    assert_eq!(summary.simulated, 0, "warm cache re-simulates zero cells");
    assert_eq!(summary.cache_hits, 4);
    for w in &workloads {
        for &mode in &modes {
            assert_eq!(again.get(w.name, mode), sweep.get(w.name, mode));
        }
    }
}

#[test]
fn cache_survives_a_daemon_restart() {
    let dir = scratch("restart");
    let (workloads, modes) = grid();
    {
        let daemon = Daemon::start(&dir);
        let (_, summary) =
            remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("cold sweep");
        assert_eq!(summary.simulated, 4);
    }
    // A fresh daemon over the same state directory answers from disk.
    let daemon = Daemon::start(&dir);
    let (sweep, summary) =
        remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("warm sweep");
    assert_eq!(summary.simulated, 0, "journal reload kept every cell");
    assert_eq!(summary.cache_hits, 4);
    assert!(sweep.is_complete());
}

#[test]
fn concurrent_clients_both_complete_with_correct_results() {
    let dir = scratch("fair");
    let daemon = Daemon::start(&dir);
    let url = daemon.url.clone();

    let grids: Vec<(Vec<Workload>, Vec<FusionMode>)> = vec![
        (
            vec![helios::workload("crc32").unwrap(), helios::workload("fft").unwrap()],
            vec![FusionMode::NoFusion, FusionMode::Helios],
        ),
        (
            vec![helios::workload("bitcount").unwrap()],
            vec![FusionMode::RiscvFusion, FusionMode::OracleFusion],
        ),
    ];
    std::thread::scope(|s| {
        let handles: Vec<_> = grids
            .iter()
            .map(|(w, m)| {
                let url = url.clone();
                s.spawn(move || remote_sweep_with_summary(&url, w, m).expect("client sweep"))
            })
            .collect();
        for (h, (w, m)) in handles.into_iter().zip(&grids) {
            let (sweep, _) = h.join().expect("client thread");
            assert!(sweep.is_complete());
            for w in w {
                for &mode in m.iter() {
                    let local = SimRequest::mode(w, mode).run().stats;
                    assert_eq!(sweep.get(w.name, mode), Some(&local));
                }
            }
        }
    });
}

/// Speaks raw HTTP to the daemon and checks the stream's shape: every line
/// is one `helios-sweepd-v1` JSON object, `done` counts are monotonically
/// increasing, and the final line is the `done` event.
#[test]
fn streamed_progress_is_well_formed_jsonl() {
    let dir = scratch("jsonl");
    let daemon = Daemon::start(&dir);
    let authority = daemon.url.strip_prefix("http://").unwrap().to_string();

    let body = r#"{"schema":"helios-sweep-req-v1","workloads":["crc32"],"modes":["NoFusion","Helios"]}"#;
    let mut stream = TcpStream::connect(&authority).expect("connect");
    write!(
        stream,
        "POST /v1/sweep HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 200"), "{line}");
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" || line == "\n" {
            break;
        }
        assert!(!line.is_empty(), "headers ended at EOF");
    }

    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 3, "2 progress lines + 1 done line: {lines:?}");
    let mut last_done = 0;
    for (i, l) in lines.iter().enumerate() {
        let doc = Json::parse(l).expect("every line is standalone JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("helios-sweepd-v1")
        );
        let event = doc.get("event").and_then(Json::as_str).unwrap();
        if i < lines.len() - 1 {
            assert_eq!(event, "progress");
            let done = doc.get("done").and_then(Json::as_u64).unwrap();
            assert!(done > last_done, "progress counts increase");
            last_done = done;
            assert_eq!(doc.get("total").and_then(Json::as_u64), Some(2));
        } else {
            assert_eq!(event, "done", "stream ends with the done event");
            assert_eq!(doc.get("total").and_then(Json::as_u64), Some(2));
            let cells = doc.get("cells").and_then(Json::as_array).unwrap();
            assert_eq!(cells.len(), 2);
            assert_eq!(
                doc.get("failures").and_then(Json::as_array).map(<[Json]>::len),
                Some(0)
            );
        }
    }
}

#[test]
fn health_endpoint_and_error_paths() {
    let dir = scratch("health");
    let daemon = Daemon::start(&dir);
    let authority = daemon.url.strip_prefix("http://").unwrap().to_string();

    let fetch = |request: String| -> (String, String) {
        let mut stream = TcpStream::connect(&authority).expect("connect");
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line == "\n" || line.is_empty() {
                break;
            }
        }
        let mut body = String::new();
        std::io::Read::read_to_string(&mut reader, &mut body).unwrap();
        (status, body)
    };

    let (status, body) = fetch(format!("GET /v1/health HTTP/1.1\r\nHost: {authority}\r\n\r\n"));
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let doc = Json::parse(&body).expect("health is JSON");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(doc.get("cached_cells").and_then(Json::as_u64), Some(0));

    let (status, _) = fetch(format!("GET /nope HTTP/1.1\r\nHost: {authority}\r\n\r\n"));
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");

    let bad = r#"{"schema":"helios-sweep-req-v1","workloads":["not-a-workload"],"modes":["Helios"]}"#;
    let (status, body) = fetch(format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {}\r\n\r\n{bad}",
        bad.len()
    ));
    assert!(status.starts_with("HTTP/1.1 400"), "{status}");
    assert!(body.contains("unknown workload"), "{body}");
}

/// A one-shot fake daemon: accepts one connection, reads the request, and
/// answers with a `done` event reporting `cells` (workload, mode pairs, each
/// with default stats). Returns the URL to send the request to.
fn fake_daemon(cells: &[(&str, FusionMode)]) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let url = format!("http://{}", listener.local_addr().unwrap());
    let stats = Json::Obj(
        SimStats::default()
            .to_kv()
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v as f64)))
            .collect(),
    );
    let cells: Vec<Json> = cells
        .iter()
        .map(|(w, m)| {
            Json::Obj(vec![
                ("workload".to_string(), Json::Str(w.to_string())),
                ("mode".to_string(), Json::Str(m.name().to_string())),
                ("stats".to_string(), stats.clone()),
            ])
        })
        .collect();
    let done = Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("helios-sweepd-v1".to_string()),
        ),
        ("event".to_string(), Json::Str("done".to_string())),
        ("total".to_string(), Json::Num(cells.len() as f64)),
        ("cache_hits".to_string(), Json::Num(cells.len() as f64)),
        ("simulated".to_string(), Json::Num(0.0)),
        ("failures".to_string(), Json::Arr(vec![])),
        ("cells".to_string(), Json::Arr(cells)),
    ]);
    let thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept the client");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Consume the whole request so closing the socket cannot reset it.
        let mut len = 0;
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().unwrap();
            }
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        reader.read_exact(&mut vec![0; len]).unwrap();
        let mut stream = stream;
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{done}\n"
        )
        .unwrap();
    });
    (url, thread)
}

/// A `done` event must report exactly the requested grid. A matching cell
/// count is not enough: a stream that repeats one cell and omits another,
/// or names a cell outside the request, must be refused, not turned into a
/// figure that silently lacks a row.
#[test]
fn client_rejects_a_done_event_that_is_not_the_requested_grid() {
    let (workloads, modes) = grid();
    let (nf, he) = (FusionMode::NoFusion, FusionMode::Helios);
    let cases: [(&str, Vec<(&str, FusionMode)>); 3] = [
        (
            "twice",
            vec![
                ("crc32", nf),
                ("crc32", nf),
                ("crc32", he),
                ("bitcount", nf),
            ],
        ),
        (
            "workload `fft`",
            vec![("crc32", nf), ("crc32", he), ("bitcount", nf), ("fft", he)],
        ),
        (
            "mode `CSF-SBR`",
            vec![
                ("crc32", nf),
                ("crc32", he),
                ("bitcount", nf),
                ("bitcount", FusionMode::CsfSbr),
            ],
        ),
    ];
    for (want, cells) in cases {
        let (url, daemon) = fake_daemon(&cells);
        let got = remote_sweep_with_summary(&url, &workloads, &modes);
        daemon.join().expect("fake daemon");
        match got {
            Ok(_) => panic!("accepted a done event with cells {cells:?}"),
            Err(e) => assert!(e.contains(want), "error `{e}` does not mention {want}"),
        }
    }
}
