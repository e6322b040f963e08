//! The harness-side span recorder for traced runs.
//!
//! Spans wrap the harness's calls into each layer's public functions
//! (in-program tracing is a later change). They are kept in memory and
//! written as JSONL when the run ends. A layer's self time is its span
//! minus the part of that interval its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Spans of one operation (instance, session) share an identifier.
    pub op_id: u64,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans against one clock origin. Each thread owns a recorder;
/// [`Recorder::absorb`] merges them once the threads have joined.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            enabled: true,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder that records nothing: untraced runs drive the same
    /// client code with it, at the cost of one branch per call.
    pub fn off() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, child of the innermost open span.
    /// Every `enter` is paired with an [`exit`](Self::exit), innermost
    /// first.
    pub fn enter(&mut self, name: &'static str, op_id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.iter().rev().nth(1).copied(),
            op_id,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(index) = self.stack.pop() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        self.enter(name, op_id);
        let result = f(self);
        self.exit();
        result
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// How many spans carry `name`, and their median duration in
    /// microseconds (0 when there are none). A median, because the first
    /// call after a large run pays for cold caches and a mean would
    /// report that instead of the layer.
    pub fn median_us(&self, name: &str) -> (u64, f64) {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        (
            durations.len() as u64,
            crate::stats::median(&durations).unwrap_or(0.0),
        )
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::from(id as u64)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("op_id", Json::from(s.op_id)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("inner", 7, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let totals = rec.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
        let (count, median_us) = rec.median_us("inner");
        assert_eq!(count, 2);
        assert!(median_us >= 1_000.0 && median_us * 1e3 <= inner.total_ns as f64);
        assert_eq!(rec.median_us("absent"), (0, 0.0));
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::off();
        assert_eq!(rec.span("outer", 1, |rec| rec.span("inner", 1, |_| 5)), 5);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        a.span("a", 1, |_| ());
        let mut b = Recorder::new(origin);
        b.span("b", 2, |rec| rec.span("c", 2, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
