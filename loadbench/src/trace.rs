//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls
//! into each layer (nothing inside the library crates is probed). Each
//! span has a name, a start, an end and a parent; spans of one engine
//! call or slice share a call id. A disabled [`Tracer`] records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// Parent span id; 0 for a root span.
    pub parent: u32,
    /// The engine call or slice this span belongs to.
    pub call: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    parent: u32,
    call: u32,
    name: &'static str,
    start_ns: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    pub durs_ns: Vec<u64>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u32,
    next_call: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            next_call: 1,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a span measured elsewhere against [`Tracer::origin`]
    /// (the layer wrappers time themselves and hand their spans over
    /// once the engine call returns).
    pub fn record(&mut self, name: &'static str, parent: &Open, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let id = self.next_id;
            self.next_id += 1;
            self.spans.push(Span {
                id,
                parent: parent.id,
                call: parent.call,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Allocates a fresh call id for the spans of one call.
    pub fn new_call(&mut self) -> u32 {
        let c = self.next_call;
        self.next_call += 1;
        c
    }

    /// Opens a span under `parent` (`None` for a root span).
    pub fn open(&mut self, name: &'static str, parent: Option<&Open>, call: u32) -> Open {
        let id = self.next_id;
        if self.enabled {
            self.next_id += 1;
        }
        Open {
            id,
            parent: parent.map_or(0, |p| p.id),
            call,
            name,
            start_ns: if self.enabled { self.now_ns() } else { 0 },
        }
    }

    /// Closes a span and records it.
    pub fn close(&mut self, open: Open) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                call: open.call,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<&Open>,
        call: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, call);
        let r = f();
        self.close(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time. Children of one span run
    /// one after another on the caller's thread, so self time is the
    /// span's duration minus the sum of its children's.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in &self.spans {
            let a = out.entry(s.name).or_default();
            let d = s.dur_ns();
            a.count += 1;
            a.self_ns += d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            a.durs_ns.push(d);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"call\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.call, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
