//! Pay-for-what-you-use span tracing.
//!
//! A [`Trace`] is a cloneable handle: either *disabled* (`None` inside —
//! every span call is one branch and returns immediately, the mode hot
//! paths run in) or *enabled* (an `Arc`'d collector recording spans
//! against one monotonic clock). The layers thread the handle through
//! `Request` options → serve → executor → net, each opening spans
//! around its own work, so an enabled trace of a wire query reads as a
//! complete waterfall: decode → admission queue → parse → plan →
//! execute (one span per physical operator) → flush.
//!
//! Spans observe, never steer: nothing in the engine reads a trace
//! back during execution, which is what makes "results are
//! byte-identical with tracing on or off" a structural property rather
//! than a test hope (the property suite pins it anyway).
//!
//! Parenting uses an open-span stack inside the collector. Span sites
//! fire strictly sequentially for one query — the poller hands off to a
//! worker and back, never concurrently — so "current innermost open
//! span" is well-defined even across threads. [`Trace::record_closed`]
//! covers the one retroactive case: the net decode span, whose trace
//! can only be created *after* decoding reveals the request asked for
//! one.

use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A typed span annotation value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Note {
    /// An unsigned count (rows, batches, partitions).
    Uint(u64),
    /// A signed value.
    Int(i64),
    /// A short label (kernel taken, cache temperature).
    Str(String),
    /// A flag.
    Bool(bool),
}

impl Note {
    /// Shorthand for a string note (callers guard the allocation behind
    /// an `is_none()` check on the span).
    pub fn str(s: &str) -> Note {
        Note::Str(s.to_string())
    }
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Note::Uint(v) => write!(f, "{v}"),
            Note::Int(v) => write!(f, "{v}"),
            Note::Str(v) => write!(f, "{v}"),
            Note::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Handle to one recorded span. [`SpanId::NONE`] (what a disabled
/// trace returns) makes every follow-up call on it a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The null span of a disabled trace.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Is this the null span?
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

#[derive(Debug)]
struct SpanRec {
    name: String,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: Option<u64>,
    notes: Vec<(String, Note)>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanRec>,
    /// Indices of currently-open spans, outermost first.
    stack: Vec<u32>,
}

#[derive(Debug)]
struct Collector {
    t0: Instant,
    /// Poison-tolerant: each section appends or updates whole records,
    /// and a span missing from the open stack reports as unclosed.
    state: Mutex<State>,
}

/// A cloneable tracing handle — disabled (free) or enabled (recording).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Collector>>,
}

impl Trace {
    /// The disabled trace: every span site costs one branch.
    pub fn disabled() -> Self {
        Trace { inner: None }
    }

    /// A live trace recording against its own monotonic clock.
    pub fn enabled() -> Self {
        Trace {
            inner: Some(Arc::new(Collector {
                t0: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Is this handle recording?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_ns(c: &Collector) -> u64 {
        u64::try_from(c.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span named `name`, parented under the innermost open
    /// span. Returns [`SpanId::NONE`] (after exactly one branch) when
    /// disabled.
    pub fn begin(&self, name: &str) -> SpanId {
        let Some(c) = &self.inner else {
            return SpanId::NONE;
        };
        let start_ns = Self::now_ns(c);
        let mut st = c.state.lock().unwrap_or_else(PoisonError::into_inner);
        let id = u32::try_from(st.spans.len()).unwrap_or(u32::MAX - 1);
        let parent = st.stack.last().copied();
        st.spans.push(SpanRec {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: None,
            notes: Vec::new(),
        });
        st.stack.push(id);
        SpanId(id)
    }

    /// Close a span (and implicitly anything still open beneath it).
    pub fn end(&self, id: SpanId) {
        let Some(c) = &self.inner else {
            return;
        };
        if id.is_none() {
            return;
        }
        let end_ns = Self::now_ns(c);
        let mut st = c.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(span) = st.spans.get_mut(id.0 as usize) {
            span.end_ns = Some(end_ns);
        }
        if let Some(pos) = st.stack.iter().position(|s| *s == id.0) {
            st.stack.truncate(pos);
        }
    }

    /// Attach a typed annotation to an open (or closed) span.
    pub fn annotate(&self, id: SpanId, key: &str, note: Note) {
        let Some(c) = &self.inner else {
            return;
        };
        if id.is_none() {
            return;
        }
        let mut st = c.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(span) = st.spans.get_mut(id.0 as usize) {
            span.notes.push((key.to_string(), note));
        }
    }

    /// Record a span whose bounds were measured *before* this trace
    /// existed (the net decode span — the trace can only be created
    /// after decoding reveals the request asked for one). It lands at
    /// root level (it may predate every open span) and does not join
    /// the open stack. Times earlier than the trace's epoch clamp to 0.
    pub fn record_closed(&self, name: &str, start: Instant, end: Instant) -> SpanId {
        let Some(c) = &self.inner else {
            return SpanId::NONE;
        };
        let to_ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(c.t0).as_nanos()).unwrap_or(u64::MAX)
        };
        let (start_ns, end_ns) = (to_ns(start), to_ns(end).max(to_ns(start)));
        let mut st = c.state.lock().unwrap_or_else(PoisonError::into_inner);
        let id = u32::try_from(st.spans.len()).unwrap_or(u32::MAX - 1);
        st.spans.push(SpanRec {
            name: name.to_string(),
            parent: None,
            start_ns,
            end_ns: Some(end_ns),
            notes: Vec::new(),
        });
        SpanId(id)
    }

    /// Snapshot the recorded spans. Spans still open are reported as
    /// ending "now" (the recorder itself is not mutated). `None` when
    /// the trace is disabled.
    pub fn report(&self) -> Option<TraceReport> {
        let c = self.inner.as_ref()?;
        let now = Self::now_ns(c);
        let st = c.state.lock().unwrap_or_else(PoisonError::into_inner);
        Some(TraceReport {
            spans: st
                .spans
                .iter()
                .map(|s| SpanReport {
                    name: s.name.clone(),
                    parent: s.parent.map(|p| p as usize),
                    start_ns: s.start_ns,
                    end_ns: s.end_ns.unwrap_or(now.max(s.start_ns)),
                    closed: s.end_ns.is_some(),
                    notes: s.notes.clone(),
                })
                .collect(),
        })
    }
}

/// A nanosecond quantity in the largest unit that keeps at most six
/// significant characters: `500 ns`, `12.34 µs`, `2.50 ms`, `1.20 s`.
fn fmt_duration_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// One span, as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanReport {
    /// Span site name (`serve/execute`, `exec/node`, `net/flush`, …).
    pub name: String,
    /// Index of the parent span in [`TraceReport::spans`], if any.
    pub parent: Option<usize>,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the trace epoch, nanoseconds.
    pub end_ns: u64,
    /// Was the span explicitly closed (vs. still open at report time)?
    pub closed: bool,
    /// Typed annotations in attach order.
    pub notes: Vec<(String, Note)>,
}

impl SpanReport {
    /// Span duration in microseconds.
    pub fn duration_micros(&self) -> u64 {
        (self.end_ns - self.start_ns) / 1_000
    }

    /// The value of an unsigned annotation, if present.
    pub fn note_uint(&self, key: &str) -> Option<u64> {
        self.notes.iter().find_map(|(k, n)| match n {
            Note::Uint(v) if k == key => Some(*v),
            _ => None,
        })
    }

    /// The value of a string annotation, if present.
    pub fn note_str(&self, key: &str) -> Option<&str> {
        self.notes.iter().find_map(|(k, n)| match n {
            Note::Str(v) if k == key => Some(v.as_str()),
            _ => None,
        })
    }
}

/// A snapshot of one trace: spans in creation (start) order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceReport {
    /// The spans, indices stable (parents reference them).
    pub spans: Vec<SpanReport>,
}

impl TraceReport {
    /// The first span with this name.
    pub fn span(&self, name: &str) -> Option<&SpanReport> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Every span with this name, in start order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanReport> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// End of the last span, microseconds from the trace epoch.
    pub fn total_micros(&self) -> u64 {
        self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0) / 1_000
    }

    /// Structural validity: every span closed, non-negative duration,
    /// parents recorded (and started) before their children.
    pub fn well_formed(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if !s.closed {
                return Err(format!("span #{i} `{}` never closed", s.name));
            }
            if s.end_ns < s.start_ns {
                return Err(format!("span #{i} `{}` ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                if p >= i {
                    return Err(format!("span #{i} `{}` parented forward to #{p}", s.name));
                }
                if self.spans[p].start_ns > s.start_ns {
                    return Err(format!(
                        "span #{i} `{}` starts before its parent `{}`",
                        s.name, self.spans[p].name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Render the spans as an indented waterfall with offsets,
    /// durations, and annotations. The offset and duration columns are
    /// fixed-width and unit-normalized (ns / µs / ms / s), so a
    /// waterfall mixing millisecond execute spans with sub-microsecond
    /// cache probes still lines up.
    pub fn render_waterfall(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace waterfall (total {} µs)", self.total_micros());
        let mut depth = vec![0usize; self.spans.len()];
        let mut labels = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            depth[i] = s.parent.map_or(0, |p| depth[p] + 1);
            labels.push(format!("{:indent$}{}", "", s.name, indent = depth[i] * 2));
        }
        let name_w = labels.iter().map(|l| l.chars().count()).max().unwrap_or(0);
        for (s, label) in self.spans.iter().zip(&labels) {
            let start = format!("+{}", fmt_duration_ns(s.start_ns));
            let dur = fmt_duration_ns(s.end_ns.saturating_sub(s.start_ns));
            let notes = if s.notes.is_empty() {
                String::new()
            } else {
                let shown: Vec<String> = s.notes.iter().map(|(k, n)| format!("{k}={n}")).collect();
                format!("  {{{}}}", shown.join(", "))
            };
            let _ = writeln!(out, "{label:<name_w$}  {start:>10}  {dur:>10}{notes}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        let s = t.begin("a");
        assert!(s.is_none());
        t.annotate(s, "k", Note::Uint(1));
        t.end(s);
        assert!(t.report().is_none());
        assert!(!Trace::default().is_enabled());
    }

    #[test]
    fn spans_nest_by_call_order() {
        let t = Trace::enabled();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.annotate(inner, "rows", Note::Uint(42));
        t.end(inner);
        let sibling = t.begin("sibling");
        t.end(sibling);
        t.end(outer);
        let r = t.report().unwrap();
        r.well_formed().unwrap();
        assert_eq!(r.spans.len(), 3);
        assert_eq!(r.span("outer").unwrap().parent, None);
        assert_eq!(r.span("inner").unwrap().parent, Some(0));
        assert_eq!(r.span("sibling").unwrap().parent, Some(0));
        assert_eq!(r.span("inner").unwrap().note_uint("rows"), Some(42));
        let shown = r.render_waterfall();
        assert!(shown.contains("outer"));
        assert!(shown.contains("  inner"), "{shown}");
        assert!(shown.contains("rows=42"));
    }

    #[test]
    fn waterfall_columns_stay_aligned_across_units() {
        // A synthetic report mixing a 2.5 ms parent, a 500 ns child and
        // a 1.4 ms child — the exact shape that used to shear the
        // columns. Golden-rendered: offsets and durations sit in fixed
        // 10-char right-aligned columns, unit-normalized.
        let report = TraceReport {
            spans: vec![
                SpanReport {
                    name: "outer".into(),
                    parent: None,
                    start_ns: 0,
                    end_ns: 2_500_000,
                    closed: true,
                    notes: vec![],
                },
                SpanReport {
                    name: "inner".into(),
                    parent: Some(0),
                    start_ns: 400,
                    end_ns: 900,
                    closed: true,
                    notes: vec![("rows".into(), Note::Uint(42))],
                },
                SpanReport {
                    name: "flush".into(),
                    parent: Some(0),
                    start_ns: 1_000_000,
                    end_ns: 2_400_000,
                    closed: true,
                    notes: vec![],
                },
            ],
        };
        let golden = "trace waterfall (total 2500 µs)\n\
                      outer         +0 ns     2.50 ms\n\
                      \x20 inner     +400 ns      500 ns  {rows=42}\n\
                      \x20 flush    +1.00 ms     1.40 ms\n";
        assert_eq!(report.render_waterfall(), golden);
    }

    #[test]
    fn duration_normalization_picks_the_unit() {
        assert_eq!(fmt_duration_ns(0), "0 ns");
        assert_eq!(fmt_duration_ns(999), "999 ns");
        assert_eq!(fmt_duration_ns(1_000), "1.00 µs");
        assert_eq!(fmt_duration_ns(12_340), "12.34 µs");
        assert_eq!(fmt_duration_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_duration_ns(1_200_000_000), "1.20 s");
    }

    #[test]
    fn ending_a_parent_closes_the_stack_beneath_it() {
        let t = Trace::enabled();
        let outer = t.begin("outer");
        let _inner = t.begin("inner");
        t.end(outer); // inner left open: popped from stack, reported open
        let after = t.begin("after");
        t.end(after);
        let r = t.report().unwrap();
        assert_eq!(r.span("after").unwrap().parent, None, "stack was unwound");
        assert!(!r.span("inner").unwrap().closed);
        assert!(r.well_formed().is_err(), "unclosed span is ill-formed");
    }

    #[test]
    fn retroactive_spans_clamp_to_the_epoch() {
        let before = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let t = Trace::enabled();
        let root = t.begin("root");
        let s = t.record_closed("decode", before, Instant::now());
        assert!(!s.is_none());
        t.end(root);
        let r = t.report().unwrap();
        let decode = r.span("decode").unwrap();
        assert_eq!(decode.start_ns, 0, "pre-epoch start clamps to 0");
        assert!(decode.closed);
        assert_eq!(decode.parent, None, "retroactive spans are root-level");
        r.well_formed().unwrap();
    }

    #[test]
    fn report_is_reusable_and_monotone() {
        let t = Trace::enabled();
        let a = t.begin("a");
        std::thread::sleep(Duration::from_millis(1));
        t.end(a);
        let r1 = t.report().unwrap();
        let r2 = t.report().unwrap();
        assert_eq!(r1, r2, "reporting does not mutate the recorder");
        let span = r1.span("a").unwrap();
        assert!(span.end_ns >= span.start_ns);
        assert!(span.duration_micros() >= 1_000);
        assert!(r1.total_micros() >= span.duration_micros());
    }

    #[test]
    fn cross_thread_handoff_keeps_one_clock() {
        let t = Trace::enabled();
        let root = t.begin("root");
        let t2 = t.clone();
        std::thread::spawn(move || {
            let s = t2.begin("worker");
            t2.end(s);
        })
        .join()
        .unwrap();
        t.end(root);
        let r = t.report().unwrap();
        r.well_formed().unwrap();
        assert_eq!(r.span("worker").unwrap().parent, Some(0));
    }
}
