//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the span that caused it, and the
//! op it belongs to. Spans stay in memory while the workload runs and are
//! written out once at the end. With tracing off, [`Tracer::begin`]
//! returns `None` and nothing is recorded, so the untraced run pays one
//! branch per layer call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the tracer's record.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to (0 for set-up and replays).
    pub op: u64,
    /// Layer-qualified call name, e.g. `speclang.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder measuring from `epoch`; records nothing unless `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans begun from now on with op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, renumbering their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// What recording one span costs, in nanoseconds: the median over
/// batches of empty spans on an enabled tracer.
pub fn span_cost_ns() -> f64 {
    const BATCH: usize = 2_000;
    let mut per_span: Vec<f64> = (0..9)
        .map(|_| {
            let mut t = Tracer::new(true, Instant::now());
            let start = Instant::now();
            for _ in 0..BATCH {
                let id = t.begin("trace.probe");
                t.end(id);
            }
            std::hint::black_box(t.spans().len());
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    per_span.sort_by(f64::total_cmp);
    per_span[per_span.len() / 2]
}
