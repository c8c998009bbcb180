//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Kept in memory and written out only when the run ends. A layer's self
//! time is its span's duration minus the part its child spans cover; the
//! same subtraction gives self allocation counts, read from
//! [`crate::alloc`] at the same boundaries.

use crate::alloc::{snapshot, AllocCount};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One span: a name, an interval, the span that caused it and the replay it
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `peak.push_chunk`.
    pub name: &'static str,
    /// Spans of one replay share this identifier.
    pub trace_id: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Allocator counters at start.
    pub alloc_start: AllocCount,
    /// Allocator counters at end.
    pub alloc_end: AllocCount,
}

/// Collects spans on one thread. Switched off it does nothing at all — no
/// clock reads — which is what the untraced arm of the overhead comparison
/// runs.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    trace_id: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            trace_id: 0,
            spans: Vec::with_capacity(if on { 1 << 18 } else { 0 }),
            open: Vec::with_capacity(16),
        }
    }

    /// Sets the identifier given to spans opened from now on.
    pub fn set_trace(&mut self, id: u64) {
        self.trace_id = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            trace_id: self.trace_id,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            alloc_start: AllocCount::default(),
            alloc_end: AllocCount::default(),
        });
        self.open.push(idx);
        // Stamped last, so the recorder's own bookkeeping (and any growth of
        // its vectors) lands in the parent, not in this span.
        let span = &mut self.spans[idx as usize];
        span.alloc_start = snapshot();
        span.start_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit without enter");
        let span = &mut self.spans[idx as usize];
        span.end_ns = end_ns;
        span.alloc_end = snapshot();
    }

    /// Every closed span so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus time covered by child spans, ns.
    pub self_ns: u64,
    /// Allocations made in the spans themselves, children excluded.
    pub self_allocs: u64,
    /// Bytes requested by those allocations.
    pub self_bytes: u64,
}

/// Self time and self allocations per span name. Children are subtracted
/// from their direct parent only, so a nested chain loses each level once.
pub fn self_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_alloc = vec![AllocCount::default(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let used = s.alloc_end.since(s.alloc_start);
            child_ns[p as usize] += s.end_ns - s.start_ns;
            child_alloc[p as usize].allocs += used.allocs;
            child_alloc[p as usize].bytes += used.bytes;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        let used = s.alloc_end.since(s.alloc_start);
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
        t.self_allocs += used.allocs - child_alloc[i].allocs;
        t.self_bytes += used.bytes - child_alloc[i].bytes;
    }
    out
}

/// The spans as a chrome://tracing / Perfetto document: a JSON array of
/// complete (`"ph":"X"`) events, one row (`tid`) per replay.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
            s.name,
            s.trace_id,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace_id: 1,
            parent,
            start_ns,
            end_ns,
            alloc_start: AllocCount::default(),
            alloc_end: AllocCount::default(),
        }
    }

    #[test]
    fn siblings_are_subtracted_from_their_parent() {
        let spans = [
            span("root", None, 0, 1000),
            span("a", Some(0), 100, 300),
            span("a", Some(0), 400, 500),
            span("b", Some(0), 600, 900),
        ];
        let t = self_totals(&spans);
        assert_eq!(t["root"].self_ns, 1000 - 200 - 100 - 300);
        assert_eq!(
            (t["a"].count, t["a"].self_ns, t["a"].total_ns),
            (2, 300, 300)
        );
        assert_eq!(t["b"].self_ns, 300);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 1000, "self times partition the root");
    }

    #[test]
    fn a_nested_chain_loses_each_level_once() {
        let spans = [
            span("root", None, 0, 1000),
            span("mid", Some(0), 100, 900),
            span("leaf", Some(1), 200, 500),
        ];
        let t = self_totals(&spans);
        assert_eq!(t["root"].self_ns, 200);
        assert_eq!(t["mid"].self_ns, 500);
        assert_eq!(t["leaf"].self_ns, 300);
    }

    #[test]
    fn self_allocations_subtract_the_childrens() {
        let at = |allocs, bytes| AllocCount { allocs, bytes };
        let mut root = span("root", None, 0, 10);
        (root.alloc_start, root.alloc_end) = (at(10, 100), at(20, 1100));
        let mut kid = span("kid", Some(0), 2, 4);
        (kid.alloc_start, kid.alloc_end) = (at(12, 200), at(15, 500));
        let t = self_totals(&[root, kid]);
        assert_eq!((t["kid"].self_allocs, t["kid"].self_bytes), (3, 300));
        assert_eq!((t["root"].self_allocs, t["root"].self_bytes), (7, 700));
    }

    #[test]
    fn the_recorder_nests_by_call_order_and_is_inert_when_off() {
        let mut r = Recorder::new(true);
        r.set_trace(7);
        r.enter("outer");
        // black_box keeps the optimiser from moving the allocation out of
        // the span.
        r.enter("inner");
        let boxed = std::hint::black_box(Box::new(5u64));
        r.exit();
        r.exit();
        let s = r.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].trace_id), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(self_totals(s)["inner"].self_allocs, 1);
        assert_eq!(*boxed, 5);
        let doc = crate::json::parse(&chrome_trace(s)).unwrap();
        assert_eq!(doc.as_arr().unwrap().len(), 2);

        let mut off = Recorder::new(false);
        off.enter("x");
        off.exit();
        assert!(off.spans().is_empty());
    }
}
