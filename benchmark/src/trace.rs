//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, start, end, parent, op_id)`. Each generator thread
//! owns a pre-allocated [`SpanBuf`]; nothing is written out until the
//! workload ends. A layer's *self time* is its span minus the part of
//! that interval its children cover.

use apram_model::Json;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the workload's span-name table.
    pub name: u16,
    /// Recording thread.
    pub tid: u16,
    /// Index of the parent span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// The operation this span belongs to; spans of one op share it.
    pub op_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer: fixed capacity, allocated up front; spans
/// beyond it are counted, not stored.
pub struct SpanBuf {
    epoch: Instant,
    tid: u16,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    /// `epoch` is shared by all threads of a run so their spans line up.
    pub fn new(epoch: Instant, tid: usize, capacity: usize) -> SpanBuf {
        SpanBuf {
            epoch,
            tid: tid as u16,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn push(&mut self, name: u16, parent: u32, op_id: u64, start_ns: u64, end_ns: u64) -> u32 {
        self.push_from(self.tid, name, parent, op_id, start_ns, end_ns)
    }

    /// [`SpanBuf::push`] for an interval another thread measured (the
    /// explorer's workers hand theirs to the driving thread).
    pub fn push_from(
        &mut self,
        tid: u16,
        name: u16,
        parent: u32,
        op_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            tid,
            parent,
            op_id,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span of one buffer: duration minus the union of
/// its children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)` over all buffers.
pub fn summarize(bufs: &[SpanBuf], names: &[&str]) -> Vec<(String, u64, u64, u64)> {
    let mut rows: Vec<(String, u64, u64, u64)> =
        names.iter().map(|n| (n.to_string(), 0, 0, 0)).collect();
    for buf in bufs {
        for (s, own) in buf.spans().iter().zip(self_times(buf.spans())) {
            let row = &mut rows[s.name as usize];
            row.1 += 1;
            row.2 += s.end_ns - s.start_ns;
            row.3 += own;
        }
    }
    rows
}

/// Chrome / Perfetto trace-event JSON: one complete (`X`) event per
/// span, timestamps in microseconds, one track per recording thread.
pub fn chrome_trace(workload: &str, bufs: &[SpanBuf], names: &[&str]) -> Json {
    let mut events = vec![Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::UInt(1)),
        (
            "args",
            Json::obj([("name", Json::Str(format!("apram-benchmark {workload}")))]),
        ),
    ])];
    for buf in bufs {
        for (i, s) in buf.spans().iter().enumerate() {
            let mut args = vec![
                ("op_id".to_string(), Json::UInt(s.op_id)),
                ("span".to_string(), Json::UInt(i as u64)),
            ];
            if s.parent != ROOT {
                args.push(("parent".to_string(), Json::UInt(s.parent as u64)));
            }
            events.push(Json::obj([
                ("name", Json::Str(names[s.name as usize].to_string())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(s.tid as u64)),
                ("ts", Json::Float(s.start_ns as f64 / 1e3)),
                ("dur", Json::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("args", Json::Obj(args)),
            ]));
        }
    }
    Json::obj([
        ("displayTimeUnit", Json::Str("ns".into())),
        (
            "spans_dropped",
            Json::UInt(bufs.iter().map(|b| b.dropped).sum()),
        ),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            tid: 0,
            parent,
            op_id: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(ROOT, 0, 100), // 0: root
            span(0, 10, 30),    // 1: child
            span(0, 50, 90),    // 2: child with its own child
            span(2, 60, 70),    // 3: grandchild
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span(ROOT, 100, 200),
            span(0, 90, 120),  // starts before the parent
            span(0, 110, 150), // overlaps its sibling
            span(0, 190, 250), // ends after the parent
        ];
        // Covered: [100,150) ∪ [190,200) = 60 of 100.
        assert_eq!(self_times(&spans)[0], 40);
        // Children covering everything leave no negative self time.
        let spans = [span(ROOT, 0, 10), span(0, 0, 10), span(0, 0, 10)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn full_buffer_counts_drops_and_trace_parses() {
        let mut buf = SpanBuf::new(Instant::now(), 3, 2);
        let parent = buf.push(0, ROOT, 9, 0, 10);
        buf.push(1, parent, 9, 5, 8);
        assert_eq!(buf.push(0, ROOT, 10, 11, 12), ROOT);
        assert_eq!(buf.dropped, 1);
        assert_eq!(self_times(buf.spans()), vec![7, 3]);

        let bufs = [buf];
        let rows = summarize(&bufs, &["op", "inner"]);
        assert_eq!(rows[0], ("op".to_string(), 1, 10, 7));
        assert_eq!(rows[1], ("inner".to_string(), 1, 3, 3));
        let text = chrome_trace("w", &bufs, &["op", "inner"]).to_pretty(1);
        let parsed = apram_model::json::parse(&text).expect("trace is valid JSON");
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            3
        );
        assert_eq!(parsed.get("spans_dropped").unwrap().as_u64(), Some(1));
    }
}
