//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around its own calls into each layer; nothing inside the
//! library is instrumented. A disabled tracer records nothing, so the
//! untraced run pays one branch per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(usize);

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and renames it when the outcome decides the name,
    /// e.g. a cache hit or miss).
    pub fn end_as(&mut self, id: SpanId, name: Option<&'static str>) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost-first"
        );
        let s = &mut self.spans[id.0];
        s.end_ns = end;
        if let Some(n) = name {
            s.name = n;
        }
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_as(id, None);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req);
        let r = f();
        self.end(id);
        r
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn has(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// Self time (span minus the part its direct children cover) of every
    /// span named `name`, in seconds, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns - child_ns[i]) as f64 * 1e-9)
            .collect()
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Every span and counter as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"span":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        for (k, v) in &self.counts {
            let _ = writeln!(out, r#"{{"counter":"{k}","value":{v}}}"#);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer", 7);
        tr.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.end(outer);
        let inner = tr.self_times("inner")[0];
        let outer = tr.self_times("outer")[0];
        assert!(inner >= 0.005 && outer < inner);
        assert!(tr.to_jsonl().contains(r#""parent":0,"req":7"#));

        let mut off = Tracer::new(false);
        off.span("x", 0, || ());
        off.count("c", 1.0);
        assert!(!off.has("x") && off.counter("c") == 0.0);
    }
}
