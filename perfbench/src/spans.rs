//! Spans the benchmark records around its calls into each layer: name,
//! start, end and parent, kept in memory and written out at the end of a
//! traced run as a Chrome trace (`chrome://tracing`, Perfetto).

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Index of the thread that ran the span, in order of first appearance.
    pub lane: usize,
    /// Seconds since the recorder started.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The recorder's time base, shared with worker threads.
pub struct Clock {
    epoch: Instant,
    lanes: Mutex<Vec<ThreadId>>,
}

impl Clock {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lane(&self) -> usize {
        let me = std::thread::current().id();
        let mut lanes = self.lanes.lock().expect("lane table lock poisoned");
        lanes.iter().position(|&id| id == me).unwrap_or_else(|| {
            lanes.push(me);
            lanes.len() - 1
        })
    }

    /// Run `f` as a child of `parent`, appending its span to `out`: for
    /// spans timed on worker threads.
    pub fn time<R>(
        &self,
        out: &mut Vec<Span>,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        out.push(Span {
            name,
            parent: Some(parent),
            lane: self.lane(),
            start,
            end,
        });
        r
    }
}

pub struct Recorder {
    clock: Clock,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            clock: Clock {
                epoch: Instant::now(),
                lanes: Mutex::new(Vec::new()),
            },
            spans: Vec::new(),
        }
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.clock.now();
        self.spans.push(Span {
            name,
            parent,
            lane: self.clock.lane(),
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.clock.now();
    }

    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Add spans timed on worker threads.
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds of every span called `name` (0 if none ran).
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }
}

/// Each span's self time: its duration minus the part of it its children
/// cover (children that overlap, on parallel threads, count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut run: Option<(f64, f64)> = None;
            for (a, b) in kids {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.secs() - covered
        })
        .collect()
}

/// Every child lies inside its parent, and every self time is ≥ 0 (up to
/// float rounding).
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .filter(|_| p < i)
            .ok_or_else(|| format!("span {i} ({}) has no earlier parent {p}", s.name))?;
        if s.start < parent.start || s.end > parent.end {
            return Err(format!(
                "span {i} ({}) [{:.6}, {:.6}] s escapes its parent {} [{:.6}, {:.6}] s",
                s.name, s.start, s.end, parent.name, parent.start, parent.end
            ));
        }
    }
    match self_times(spans).iter().position(|&t| t < -1e-9) {
        Some(i) => Err(format!(
            "span {i} ({}) has negative self time",
            spans[i].name
        )),
        None => Ok(()),
    }
}

/// Write the spans as a Chrome trace: one complete ("X") event per span,
/// with its id, parent and self time in `args`.
pub fn write_chrome_trace(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, (s, self_s)) in spans.iter().zip(self_times(spans)).enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
             \"self_us\": {:.3}}}}}{sep}",
            s.name,
            s.lane,
            s.start * 1e6,
            s.secs() * 1e6,
            self_s * 1e6
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

/// Per span name, in order of first appearance: count, total seconds and
/// self seconds.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.secs();
                r.3 += self_s;
            }
            None => rows.push((s.name, 1, s.secs(), self_s)),
        }
    }
    rows
}
