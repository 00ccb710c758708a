//! The ledger's own in-memory span recorder.
//!
//! Layers are measured *from outside*: the benchmark opens a span
//! around each call into a crate's public function and closes it when
//! the call returns. Nothing is recorded inside the program. A span is
//! `{name, start, end, parent, query_id}`; spans stay in memory and are
//! written out once, when the run ends. A layer's self time is its
//! span's duration minus the part of that interval its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Metric-style name, `layer.what`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; `start_ns` while open.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one replayed query share this.
    pub query_id: u32,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Index of a span in its recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// The recorder. Disabled, every call is a branch and the closure runs
/// untimed — the "recorder off" side of `harness.span_overhead_ratio`.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans (`true`) or drops them (`false`).
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; `None` when disabled.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query_id: u32,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.record(name, now, now, parent, query_id)
    }

    /// Close a span opened by [`Recorder::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query_id: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, query_id);
        let out = f();
        self.end(id);
        out
    }

    /// Record an interval measured elsewhere (for tests and for spans
    /// whose clock the caller already read).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        query_id: u32,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = SpanId(u32::try_from(self.spans.len()).expect("more than u32::MAX spans"));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query_id,
        });
        Some(id)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of its interval its direct
    /// children cover. Children are clipped to the parent and overlapping
    /// children are counted once (the union of their intervals), so a
    /// self time is never negative and never exceeds the duration.
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id.0 as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(span.start_ns, span.end_ns),
                    s.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let from = a.max(reach);
            if b > from {
                covered += b - from;
                reach = b;
            }
        }
        span.duration_ns() - covered
    }

    /// Total duration of every span called `name`, microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e3
    }

    /// Ascending durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Write one JSON object per span to `path`, creating its directory.
    /// Each line carries the span's self time beside its interval.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.0.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"query_id\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_time_ns(SpanId(i as u32)),
                s.query_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut r = Recorder::new(true);
        let root = r.record("serve.execute", 100, 1_100, None, 0).unwrap();
        let run = r.record("pqp.run", 300, 900, Some(root), 0).unwrap();
        // A grandchild is the child's business, not the root's.
        r.record("core.join", 400, 800, Some(run), 0);
        r.record("sql.canonicalize", 100, 200, Some(root), 0);
        assert_eq!(r.self_time_ns(root), 1_000 - 600 - 100);
        assert_eq!(r.self_time_ns(run), 600 - 400);
    }

    #[test]
    fn self_time_counts_overlapping_children_as_their_union() {
        let mut r = Recorder::new(true);
        let root = r.record("net.roundtrip", 0, 1_000, None, 7).unwrap();
        // Two overlapping children cover [100, 600) between them, a
        // third is contained in the first, a fourth sticks out past the
        // parent and is clipped to [900, 1000).
        r.record("a", 100, 400, Some(root), 7);
        r.record("b", 300, 600, Some(root), 7);
        r.record("c", 150, 250, Some(root), 7);
        r.record("d", 900, 1_500, Some(root), 7);
        // Another query's span with the same shape is not a child.
        r.record("a", 100, 400, None, 8);
        assert_eq!(r.self_time_ns(root), 1_000 - 500 - 100);
        assert_eq!(r.total_us("a"), 0.6);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing_and_still_runs_the_work() {
        let mut r = Recorder::new(false);
        let id = r.begin("x", None, 0);
        assert!(id.is_none());
        r.end(id);
        assert_eq!(r.time("y", None, 0, || 41 + 1), 42);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn timed_spans_nest_and_serialize() {
        let mut r = Recorder::new(true);
        let root = r.begin("query", None, 3);
        let v = r.time("sql.translate", root, 3, || 5);
        r.end(root);
        assert_eq!(v, 5);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Under the crate's ignored `out/`, never outside the checkout.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-spans");
        let path = dir.join("trace.jsonl");
        r.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
