//! In-memory span recorder for the traced run, with Chrome Trace Event
//! export (loads in Perfetto and chrome://tracing).
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the layers; nothing inside the program is instrumented. A request's
//! root span is the client's view (line written to last reply read) and
//! has the request id as its span id; every other span gets a fresh id
//! and names its parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Ids of non-root spans start here, above any request id.
const FIRST_SPAN_ID: u64 = 1 << 40;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.submit`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub req: u64,
    /// This span's id (the request id for a root span).
    pub id: u64,
    /// The parent span's id (0 for a root span).
    pub parent: u64,
    /// Small per-thread index of the recording thread.
    pub tid: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A running sum of per-call values (a count, bytes, a derived time).
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Sum of the values added.
    pub sum: f64,
    /// Number of values added.
    pub n: u64,
}

impl Acc {
    /// The mean, or 0 when nothing was added.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Collects spans and per-call values in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    values: Mutex<BTreeMap<&'static str, Acc>>,
    next_id: AtomicU64,
}

fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TID.with(|t| *t)
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            values: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(FIRST_SPAN_ID),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span under `parent` and returns its id.
    pub fn span(
        &self,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(name, req, id, parent, start, end);
        id
    }

    /// Records the client-side root span of request `req`.
    pub fn root(&self, req: u64, start: Instant, end: Instant) {
        self.push("request", req, req, 0, start, end);
    }

    fn push(
        &self,
        name: &'static str,
        req: u64,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            req,
            id,
            parent,
            tid: thread_index(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a top-level span of request `req`.
    pub fn time<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.span(name, req, req, t0, Instant::now());
        r
    }

    /// Adds one per-call value under `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        let mut m = self.values.lock().expect("value map poisoned");
        let acc = m.entry(name).or_default();
        acc.sum += value;
        acc.n += 1;
    }

    /// The accumulated values under `name`.
    pub fn value(&self, name: &str) -> Acc {
        let m = self.values.lock().expect("value map poisoned");
        m.get(name).copied().unwrap_or_default()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes every span as Chrome Trace Event JSON. `other` is a
    /// pre-rendered JSON object stored under `otherData`.
    pub fn write_chrome(&self, path: &Path, other: &str) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{other},\"traceEvents\":["
        )?;
        for (i, s) in spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"span\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req,
                s.id,
                s.parent,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
