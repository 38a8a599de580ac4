//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is (name, start, end, parent, query id). Spans stay in memory
//! and are written out once, when the run ends. A disabled tracer
//! records nothing: untraced runs carry no spans at all.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    qid: u64,
}

/// An open span, closed by [`Tracer::exit`].
#[must_use]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, qid: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, qid });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close `span` (which must be the innermost open one).
    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Record an already-measured interval as a closed child span.
    pub fn record(&mut self, name: &'static str, qid: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: at(start), end_ns: at(end), parent, qid });
    }

    /// Spans named `name`: (count, total duration µs).
    pub fn total_us(&self, name: &str) -> (u64, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, t), s| (n + 1, t + (s.end_ns - s.start_ns) as f64 * 1e-3))
    }

    /// Summed self time of spans named `name`, µs: each span's duration
    /// minus the part of it its child spans cover (children that overlap,
    /// as parallel tasks do, cover their union once).
    pub fn self_us(&self, name: &str) -> f64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT && self.spans[s.parent as usize].name == name {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut total_ns = 0u64;
        for (s, kids) in self.spans.iter().zip(&mut children) {
            if s.name != name {
                continue;
            }
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, s.end_ns), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            total_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        total_ns as f64 * 1e-3
    }

    /// Write every span as one tab-separated line:
    /// `id name start_ns end_ns parent qid` (`parent` is `-` for roots).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tqid")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{:016x}",
                s.name, s.start_ns, s.end_ns, s.qid
            )?;
        }
        out.flush()
    }
}
