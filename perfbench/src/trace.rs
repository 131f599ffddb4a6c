//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start and end (nanoseconds since the tracer
//! was made), its parent span and the batch it served. Spans stay in
//! memory while the run measures and are written out as JSON lines when
//! it ends. A disabled tracer records nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub batch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, batch: u64) -> SpanId {
        if self.spans.is_none() {
            return NONE;
        }
        let start_ns = self.now_ns();
        match &mut self.spans {
            Some(spans) => {
                spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent: (parent != NONE).then_some(parent),
                    batch,
                });
                spans.len() - 1
            }
            None => NONE,
        }
    }

    pub fn close(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.as_mut().and_then(|s| s.get_mut(id)) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        batch: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, batch);
        let r = f();
        self.close(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.batch
            )?;
        }
        out.flush()
    }
}
