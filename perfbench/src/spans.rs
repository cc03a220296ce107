//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer: name, start, end, parent span, and an id shared by every span
//! of one request or cell. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Request, cell or kernel id; every span of one operation shares it.
    pub id: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let sid = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                id,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(sid);
        let end = self.now_ns();
        self.spans.lock().expect("span list poisoned")[sid].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Durations of every span named `name`, in seconds, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// One JSON object per line, with each span's self time, for the
    /// trace file written at run end. Spans are numbered from 0 in line
    /// order; `parent` names that number.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans();
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.id,
                s.start_ns,
                s.end_ns,
                self_time_ns(&spans, i)
            );
        }
        out
    }
}

/// A span's duration minus the part of its interval covered by its direct
/// children (overlapping children, as from parallel workers, count once;
/// grandchildren are already inside their parent).
pub fn self_time_ns(spans: &[Span], idx: SpanId) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cursor = me.start_ns;
    for (a, b) in kids {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    me.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        let spans = vec![
            span("request", None, 0, 100),
            span("server", Some(0), 10, 50),
            span("cache", Some(1), 20, 30),
        ];
        assert_eq!(self_time_ns(&spans, 0), 60);
        assert_eq!(self_time_ns(&spans, 1), 30);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn back_to_back_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("ttfb", Some(0), 0, 30),
            span("stream", Some(0), 30, 60),
            span("assemble", Some(0), 60, 90),
        ];
        assert_eq!(self_time_ns(&spans, 0), 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("engine", None, 10, 100),
            span("cell", Some(0), 20, 60),
            span("cell", Some(0), 40, 80),
            // Starts before its parent: only the covered part counts.
            span("cell", Some(0), 0, 15),
        ];
        assert_eq!(self_time_ns(&spans, 0), 90 - 60 - 5);
    }

    #[test]
    fn recorder_links_parents_and_ids() {
        let t = Tracer::new();
        let v = t.span("outer", 3, None, |o| t.span("inner", 3, Some(o), |_| 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.id == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.durations_s("inner").len(), 1);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
