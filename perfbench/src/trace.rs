//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span has a name `<layer>.<operation>`, start and end offsets from
//! the tracer's origin, the span that was open when it began (its
//! parent) and the request it belongs to. Spans named `frame.*` mark
//! episodes and requests: their self time is the benchmark's untraced
//! glue and is excluded from the layer sum, so `layer_sum_ratio` shows
//! how much of the wall time the layer spans account for.
//!
//! A disabled tracer records nothing and allocates nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn is_frame(&self) -> bool {
        self.layer() == "frame"
    }
}

/// Handle returned by [`Tracer::begin`].
#[must_use]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans only");
        self.enabled = enabled;
    }

    /// Tags the spans that follow with request id `req`.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, span: SpanId) {
        if let Some(id) = span.0 {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close in LIFO order");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time: duration minus the time its children cover
    /// (children of one parent never overlap — the client is one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time per layer, frames excluded.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if !s.is_frame() {
                *out.entry(s.layer()).or_insert(0) += ns;
            }
        }
        out
    }

    /// `(calls, total duration)` of the spans named `name`.
    pub fn busy(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.dur_ns()))
    }

    /// The spans as a JSON array (written out when the run ends).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.name)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        )
                        .with("req", s.req as u64)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_frames_are_excluded() {
        let mut t = Tracer::new(true);
        let root = t.begin("frame.request");
        let a = t.begin("attention.decode");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.span("kvcache.wal", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let self_ns = t.self_ns();
        assert_eq!(
            self_ns[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        let layers = t.layer_self_ns();
        assert!(!layers.contains_key("frame"));
        assert_eq!(layers["attention"], spans[1].dur_ns());
        assert_eq!(t.busy("kvcache.wal").0, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("attention.decode");
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
