//! The in-memory span recorder of the traced run.
//!
//! Each benchmark thread owns a [`Tracer`] and wraps every call it makes
//! into a layer in a span (name, start, end, parent). A layer is the
//! span name's prefix before the first `.`. When tracing is off the same
//! calls are still timed where an end-to-end metric needs the duration,
//! but nothing is recorded. Spans are merged after the round and written
//! out when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same thread's spans.
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The part of the span inside `[lo, hi)`.
    pub fn clipped_ns(&self, (lo, hi): (u64, u64)) -> u64 {
        self.end_ns.min(hi).saturating_sub(self.start_ns.max(lo))
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant, thread: u32) -> Self {
        Self {
            on,
            t0,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the round's common epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f`, returning its result and duration in nanoseconds, and
    /// records a span around it when tracing.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.now();
        let id = self.begin_at(name, start);
        let out = f();
        let end = self.now();
        self.end_at(id, end);
        (out, end - start)
    }

    /// Opens a span that encloses later spans of this thread.
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        let now = self.now();
        self.begin_at(name, now)
    }

    pub fn end(&mut self, id: Option<u32>) {
        let now = self.now();
        self.end_at(id, now);
    }

    fn begin_at(&mut self, name: &'static str, start_ns: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    fn end_at(&mut self, id: Option<u32>, end_ns: u64) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = end_ns;
            self.open.pop();
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Every span of one traced round, per thread.
#[derive(Debug, Default)]
pub struct Trace {
    pub threads: Vec<Vec<Span>>,
}

impl Trace {
    pub fn add(&mut self, tracer: Tracer) {
        if !tracer.spans.is_empty() {
            self.threads.push(tracer.into_spans());
        }
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.threads.iter().flatten()
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Time in spans named `name` inside `window`.
    pub fn window_ns(&self, name: &str, window: (u64, u64)) -> u64 {
        self.spans()
            .filter(|s| s.name == name)
            .map(|s| s.clipped_ns(window))
            .sum()
    }

    /// Self time per layer inside `window`: each span's duration minus
    /// the part its child spans cover (children of one thread never
    /// overlap).
    pub fn self_ns_by_layer(&self, window: (u64, u64)) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for spans in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child_ns[p as usize] += s.clipped_ns(window);
                }
            }
            for (s, covered) in spans.iter().zip(child_ns) {
                *by_layer.entry(s.layer()).or_insert(0) +=
                    s.clipped_ns(window).saturating_sub(covered);
            }
        }
        by_layer
    }

    /// Appends every span as a tab-separated line:
    /// `round thread index parent name start_ns end_ns`.
    pub fn write_tsv(&self, out: &mut impl Write, round: usize) -> std::io::Result<()> {
        for spans in &self.threads {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or(-1, i64::from);
                writeln!(
                    out,
                    "{round}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                    s.thread, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        Ok(())
    }
}
