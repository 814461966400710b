//! In-memory spans recorded around the calls the benchmark makes into
//! each layer. A span has a name, a start, an end and the span that
//! caused it; spans of one request or one tick share that root.

use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    /// Time covered by this span's direct children.
    child_ns: u64,
}

/// The spans of one traced run, kept in memory until the run ends.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in ns.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        let duration = end_ns - span.start_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += duration;
        }
        duration
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, parent);
        let out = std::hint::black_box(f());
        (out, self.end(id))
    }

    /// Duration of span `id` in ns.
    fn duration(&self, id: SpanId) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Duration of span `id` minus the time its children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.duration(id).saturating_sub(self.spans[id].child_ns)
    }

    /// Total duration of the direct children of `parent` named `name`.
    pub fn children_ns(&self, parent: SpanId, name: &str) -> u64 {
        self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Per span name: count, median ns and total ns, sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut by_name: std::collections::BTreeMap<&'static str, Vec<u64>> = Default::default();
        for s in &self.spans {
            by_name
                .entry(s.name)
                .or_default()
                .push(s.end_ns - s.start_ns);
        }
        by_name
            .into_iter()
            .map(|(name, mut d)| {
                let total = d.iter().sum();
                let count = d.len();
                (name, count, crate::stats::quantile(&mut d, 0.5), total)
            })
            .collect()
    }
}
