//! Hierarchical spans and structured events, rendered as JSONL.
//!
//! Records carry only deterministic data: a sequence number, span ids
//! assigned in emission order, and a per-span count of direct child records
//! reported on exit. There are **no timestamps** — wall-clock belongs in the
//! separately-marked timing sections of bench output, never here.
//!
//! Parallel tasks must not write to the shared [`Trace`] directly (emission
//! order would depend on scheduling). Instead each task records into its own
//! [`TraceBuffer`]; the coordinator merges the buffers in a fixed order
//! (e.g. ascending server index), which renumbers buffer-local span ids into
//! the global sequence. The merged stream is therefore a pure function of
//! the work, not of the thread schedule.

use crate::Value;
use std::fmt::Write as _;

/// Identifier of an open span, returned by `enter` and consumed by `exit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

#[derive(Debug, Clone)]
enum Record {
    Enter {
        span: u64,
        parent: u64,
        name: &'static str,
    },
    Event {
        span: u64,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
    },
    Exit {
        span: u64,
        /// Number of direct child records (events + child spans).
        records: u64,
    },
}

fn remap(id: u64, offset: u64, attach_parent: u64) -> u64 {
    // Buffer-local ids are 1-based; 0 means "the buffer root", which
    // attaches to the span open at merge time.
    if id == 0 {
        attach_parent
    } else {
        id + offset
    }
}

/// Core span/event recorder shared by [`Trace`] and [`TraceBuffer`].
#[derive(Debug, Default)]
struct Recorder {
    records: Vec<Record>,
    /// Open spans: (span id, count of direct child records so far).
    stack: Vec<(u64, u64)>,
    next_span: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            records: Vec::new(),
            stack: Vec::new(),
            next_span: 1,
        }
    }

    fn bump_parent(&mut self) {
        if let Some(top) = self.stack.last_mut() {
            top.1 += 1;
        }
    }

    fn enter(&mut self, name: &'static str) -> SpanId {
        let span = self.next_span;
        self.next_span += 1;
        let parent = self.stack.last().map_or(0, |&(id, _)| id);
        self.bump_parent();
        self.records.push(Record::Enter { span, parent, name });
        self.stack.push((span, 0));
        SpanId(span)
    }

    fn event(&mut self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        let span = self.stack.last().map_or(0, |&(id, _)| id);
        self.bump_parent();
        self.records.push(Record::Event { span, name, fields });
    }

    fn exit(&mut self, id: SpanId) {
        let (span, records) = self.stack.pop().expect("span exit without matching enter");
        assert_eq!(span, id.0, "span exits must nest (LIFO)");
        self.records.push(Record::Exit { span, records });
    }
}

/// The process-wide trace sink. Use from sequential code only; parallel
/// sections record into a [`TraceBuffer`] and merge.
#[derive(Debug, Default)]
pub struct Trace {
    inner: Recorder,
    seq: u64,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            inner: Recorder::new(),
            seq: 0,
        }
    }

    /// Open a span; subsequent records nest under it until `exit`.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        self.inner.enter(name)
    }

    /// Close a span. Spans must close in LIFO order.
    pub fn exit(&mut self, id: SpanId) {
        self.inner.exit(id)
    }

    /// Record a structured event under the currently-open span.
    pub fn event(&mut self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        self.inner.event(name, fields)
    }

    /// Splice a detached buffer's records under the currently-open span,
    /// renumbering its local span ids into this trace's id space.
    ///
    /// Merging buffers in a fixed order (server index, not completion
    /// order) is what keeps the stream thread-schedule independent.
    pub fn merge(&mut self, buf: TraceBuffer) {
        let buf = buf.finish();
        let offset = self.inner.next_span - 1;
        let attach = self.inner.stack.last().map_or(0, |&(id, _)| id);
        if let Some(top) = self.inner.stack.last_mut() {
            top.1 += buf.root_records;
        }
        for rec in buf.records {
            self.inner.records.push(match rec {
                Record::Enter { span, parent, name } => Record::Enter {
                    span: remap(span, offset, attach),
                    parent: remap(parent, offset, attach),
                    name,
                },
                Record::Event { span, name, fields } => Record::Event {
                    span: remap(span, offset, attach),
                    name,
                    fields,
                },
                Record::Exit { span, records } => Record::Exit {
                    span: remap(span, offset, attach),
                    records,
                },
            });
        }
        self.inner.next_span += buf.next_span - 1;
    }

    /// Render all buffered records as JSONL and clear them. Sequence
    /// numbers continue across drains within one trace.
    pub fn drain_jsonl(&mut self) -> String {
        let mut out = String::new();
        for rec in self.inner.records.drain(..) {
            let seq = self.seq;
            self.seq += 1;
            match rec {
                Record::Enter { span, parent, name } => {
                    let _ = write!(
                        out,
                        "{{\"seq\":{seq},\"type\":\"enter\",\"span\":{span},\"parent\":{parent},\"name\":\"{name}\"}}"
                    );
                }
                Record::Event { span, name, fields } => {
                    let _ = write!(
                        out,
                        "{{\"seq\":{seq},\"type\":\"event\",\"span\":{span},\"name\":\"{name}\""
                    );
                    if !fields.is_empty() {
                        out.push_str(",\"fields\":{");
                        for (i, (k, v)) in fields.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "\"{k}\":");
                            v.render_into(&mut out);
                        }
                        out.push('}');
                    }
                    out.push('}');
                }
                Record::Exit { span, records } => {
                    let _ = write!(
                        out,
                        "{{\"seq\":{seq},\"type\":\"exit\",\"span\":{span},\"records\":{records}}}"
                    );
                }
            }
            out.push('\n');
        }
        out
    }

    /// Number of buffered (undrained) records.
    pub fn len(&self) -> usize {
        self.inner.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.records.is_empty()
    }
}

/// A detached recorder for use inside one parallel task.
///
/// Span ids are buffer-local; [`Trace::merge`] renumbers them. All spans
/// must be closed before the buffer is merged.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    inner: Recorder,
    /// Records emitted at buffer depth 0 (attach to the merge-point span).
    root_records: u64,
}

struct FinishedBuffer {
    records: Vec<Record>,
    next_span: u64,
    root_records: u64,
}

impl TraceBuffer {
    pub fn new() -> Self {
        TraceBuffer {
            inner: Recorder::new(),
            root_records: 0,
        }
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if self.inner.stack.is_empty() {
            self.root_records += 1;
        }
        self.inner.enter(name)
    }

    pub fn exit(&mut self, id: SpanId) {
        self.inner.exit(id)
    }

    pub fn event(&mut self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        if self.inner.stack.is_empty() {
            self.root_records += 1;
        }
        self.inner.event(name, fields)
    }

    /// Splice another buffer's records into this one, renumbering its local
    /// span ids — the shard-lane merge. Workers fold per-task buffers into a
    /// per-shard lane; the coordinator then merges lanes in shard order.
    /// Merging children into a lane and the lane into a [`Trace`] produces
    /// exactly the records of merging each child into the trace directly,
    /// in the same order.
    pub fn merge_child(&mut self, child: TraceBuffer) {
        let child = child.finish();
        let offset = self.inner.next_span - 1;
        let attach = self.inner.stack.last().map_or(0, |&(id, _)| id);
        match self.inner.stack.last_mut() {
            Some(top) => top.1 += child.root_records,
            None => self.root_records += child.root_records,
        }
        for rec in child.records {
            self.inner.records.push(match rec {
                Record::Enter { span, parent, name } => Record::Enter {
                    span: remap(span, offset, attach),
                    parent: remap(parent, offset, attach),
                    name,
                },
                Record::Event { span, name, fields } => Record::Event {
                    span: remap(span, offset, attach),
                    name,
                    fields,
                },
                Record::Exit { span, records } => Record::Exit {
                    span: remap(span, offset, attach),
                    records,
                },
            });
        }
        self.inner.next_span += child.next_span - 1;
    }

    fn finish(self) -> FinishedBuffer {
        assert!(
            self.inner.stack.is_empty(),
            "TraceBuffer merged with {} span(s) still open",
            self.inner.stack.len()
        );
        FinishedBuffer {
            records: self.inner.records,
            next_span: self.inner.next_span,
            root_records: self.root_records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_count_direct_records() {
        let mut t = Trace::new();
        let root = t.enter("root");
        t.event("a", vec![]);
        let child = t.enter("child");
        t.event("b", vec![("k", Value::U64(1))]);
        t.event("c", vec![]);
        t.exit(child);
        t.exit(root);
        let out = t.drain_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[0].contains("\"type\":\"enter\",\"span\":1,\"parent\":0,\"name\":\"root\""));
        assert!(lines[2].contains("\"span\":2,\"parent\":1"));
        // child has 2 direct records, root has 2 (event a + child span)
        assert!(lines[5].contains("\"type\":\"exit\",\"span\":2,\"records\":2"));
        assert!(lines[6].contains("\"type\":\"exit\",\"span\":1,\"records\":2"));
    }

    #[test]
    fn seq_numbers_are_contiguous_across_drains() {
        let mut t = Trace::new();
        let s = t.enter("one");
        t.exit(s);
        let first = t.drain_jsonl();
        let s = t.enter("two");
        t.exit(s);
        let second = t.drain_jsonl();
        assert!(first.starts_with("{\"seq\":0,"));
        assert!(second.starts_with("{\"seq\":2,"));
    }

    #[test]
    fn merge_renumbers_and_reparents() {
        let mut t = Trace::new();
        let root = t.enter("root"); // global span 1
        let mut buf = TraceBuffer::new();
        let s = buf.enter("task"); // local span 1
        buf.event("work", vec![]);
        buf.exit(s);
        t.merge(buf);
        t.exit(root);
        let out = t.drain_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        // task became global span 2, parented to root (span 1)
        assert!(lines[1].contains("\"span\":2,\"parent\":1,\"name\":\"task\""));
        assert!(lines[2].contains("\"span\":2,\"name\":\"work\""));
        // root counted the merged span as one direct record
        assert!(lines[4].contains("\"type\":\"exit\",\"span\":1,\"records\":1"));
    }

    #[test]
    fn fixed_merge_order_is_schedule_independent() {
        // Simulate two tasks finishing in opposite orders; merging in fixed
        // (index) order must produce identical bytes.
        let render = |order_swapped: bool| {
            let mut bufs: Vec<TraceBuffer> = (0..2)
                .map(|i| {
                    let mut b = TraceBuffer::new();
                    let s = b.enter(if i == 0 { "task0" } else { "task1" });
                    b.event("work", vec![("task", Value::U64(i))]);
                    b.exit(s);
                    b
                })
                .collect();
            if order_swapped {
                // "completion order" differs...
                bufs.swap(0, 1);
                // ...but the coordinator merges by index regardless.
                bufs.sort_by_key(|b| match b.inner.records.first() {
                    Some(Record::Enter { name, .. }) => *name,
                    _ => "",
                });
            }
            let mut t = Trace::new();
            let root = t.enter("root");
            for b in bufs {
                t.merge(b);
            }
            t.exit(root);
            t.drain_jsonl()
        };
        assert_eq!(render(false), render(true));
    }

    #[test]
    fn lane_merge_equals_flat_merge() {
        // Folding child buffers into a lane and merging the lane must render
        // byte-identically to merging every child into the trace directly.
        let make_children = || {
            (0..3u64)
                .map(|i| {
                    let mut b = TraceBuffer::new();
                    let s = b.enter("task");
                    b.event("work", vec![("task", Value::U64(i))]);
                    let inner = b.enter("inner");
                    b.event("deep", vec![]);
                    b.exit(inner);
                    b.exit(s);
                    b.event("root_note", vec![("task", Value::U64(i))]);
                    b
                })
                .collect::<Vec<_>>()
        };
        let flat = {
            let mut t = Trace::new();
            let root = t.enter("root");
            for b in make_children() {
                t.merge(b);
            }
            t.exit(root);
            t.drain_jsonl()
        };
        let laned = {
            let mut t = Trace::new();
            let root = t.enter("root");
            // Two lanes: children 0..2 and child 2, merged in order.
            let mut children = make_children().into_iter();
            let mut lane_a = TraceBuffer::new();
            lane_a.merge_child(children.next().unwrap());
            lane_a.merge_child(children.next().unwrap());
            let mut lane_b = TraceBuffer::new();
            lane_b.merge_child(children.next().unwrap());
            t.merge(lane_a);
            t.merge(lane_b);
            t.exit(root);
            t.drain_jsonl()
        };
        assert_eq!(flat, laned);
        // Lanes spliced into one outer lane, which merges once — the
        // simulation runner's shard lanes folding into its run lane.
        let nested = {
            let mut t = Trace::new();
            let root = t.enter("root");
            let mut children = make_children().into_iter();
            let mut lane_a = TraceBuffer::new();
            lane_a.merge_child(children.next().unwrap());
            lane_a.merge_child(children.next().unwrap());
            let mut lane_b = TraceBuffer::new();
            lane_b.merge_child(children.next().unwrap());
            let mut outer = TraceBuffer::new();
            outer.merge_child(lane_a);
            outer.merge_child(lane_b);
            t.merge(outer);
            t.exit(root);
            t.drain_jsonl()
        };
        assert_eq!(flat, nested);
    }

    #[test]
    fn merge_child_under_open_span_attaches_to_it() {
        let mut lane = TraceBuffer::new();
        let wrap = lane.enter("wrap");
        let mut child = TraceBuffer::new();
        child.event("leaf", vec![]);
        lane.merge_child(child);
        lane.exit(wrap);
        let mut t = Trace::new();
        let root = t.enter("root");
        t.merge(lane);
        t.exit(root);
        let out = t.drain_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        // wrap = global span 2; leaf attaches to it and counts as its child.
        assert!(lines[1].contains("\"span\":2,\"parent\":1,\"name\":\"wrap\""));
        assert!(lines[2].contains("\"span\":2,\"name\":\"leaf\""));
        assert!(lines[3].contains("\"type\":\"exit\",\"span\":2,\"records\":1"));
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn merging_unbalanced_buffer_panics() {
        let mut t = Trace::new();
        let mut buf = TraceBuffer::new();
        let _open = buf.enter("leaky");
        t.merge(buf);
    }
}
