//! In-memory span recording for traced runs.
//!
//! Spans are recorded around the benchmark's own calls into each layer and
//! kept in memory; [`Tracer::write`] writes them out as JSONL when the run
//! ends. Spans of one request share a `trace` id, and `parent` names the
//! span that caused this one (0 = none). With tracing off every call is a
//! no-op apart from running the timed closure.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next: Cell<u64>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), next: Cell::new(1), spans: RefCell::new(Vec::new()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its id (0 with tracing off).
    pub fn record(
        &self,
        name: &'static str,
        trace: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.get();
        self.next.set(id + 1);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.borrow_mut().push(Span { id, parent, trace, name, start_ns, end_ns });
        id
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, trace: u64, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, trace, parent, start, Instant::now());
        out
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
