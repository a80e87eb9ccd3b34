//! Spans the benchmark records around its calls into each layer's public
//! API: name, start, end, parent and request id, kept in memory and
//! written out as a Chrome trace when the run ends.
//!
//! A span's layer is its name up to the first `.` (`core.compose` is the
//! `core` layer).  A layer's self time is its spans' durations minus the
//! part of each interval that child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The layers whose self time the traced run reports, in report order.
pub const LAYERS: [&str; 6] = ["signal", "core", "codegen", "rt", "serve", "net"];

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    req: u64,
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans only inside [`traced`](Tracer::traced).
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Wall time spent inside [`traced`](Self::traced).
    traced_wall: Duration,
}

impl Tracer {
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` with recording on, and adds its wall time to
    /// [`traced_wall`](Self::traced_wall).
    pub fn traced<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let was = std::mem::replace(&mut self.enabled, true);
        let start = Instant::now();
        let out = f(self);
        self.traced_wall += start.elapsed();
        self.enabled = was;
        out
    }

    /// The wall time of every [`traced`](Self::traced) stretch.
    pub fn traced_wall(&self) -> Duration {
        self.traced_wall
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = Instant::now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end = Instant::now();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, req);
        let out = f();
        self.end(open);
        out
    }

    /// Records a span timed elsewhere (another thread), as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: self.stack.last().copied(),
                req,
            });
        }
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// For spans named `name`: the total duration per request id, in
    /// seconds (one entry per request that has such spans).
    pub fn per_request(&self, name: &str) -> Vec<f64> {
        let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(span.req).or_default() += (span.end - span.start).as_secs_f64();
        }
        totals.into_values().collect()
    }

    /// Self time in seconds per layer over every recorded span.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (index, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(index);
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let mut covered: Vec<(Instant, Instant)> = children[index]
                .iter()
                .map(|&c| (self.spans[c].start, self.spans[c].end))
                .collect();
            covered.sort();
            // The union of the children's intervals (concurrent children,
            // like two partitions, overlap).
            let mut child_time = 0.0;
            let mut current: Option<(Instant, Instant)> = None;
            for (start, end) in covered {
                match current {
                    Some((s, e)) if start <= e => current = Some((s, e.max(end))),
                    Some((s, e)) => {
                        child_time += (e - s).as_secs_f64();
                        current = Some((start, end));
                    }
                    None => current = Some((start, end)),
                }
            }
            if let Some((s, e)) = current {
                child_time += (e - s).as_secs_f64();
            }
            let own = ((span.end - span.start).as_secs_f64() - child_time).max(0.0);
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *by_layer.entry(layer).or_default() += own;
        }
        by_layer
    }

    /// Writes every span as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let Some(epoch) = self.spans.iter().map(|s| s.start).min() else {
            return Ok(());
        };
        let mut out = String::from("{\"traceEvents\":[\n");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push_str(",\n");
            }
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{index},\"parent\":{},\"req\":{}}}}}",
                span.name,
                (span.start - epoch).as_secs_f64() * 1e6,
                (span.end - span.start).as_secs_f64() * 1e6,
                span.parent.map_or(-1, |p| p as i64),
                span.req,
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
