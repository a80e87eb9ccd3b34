//! The workloads.  Each measures for `--seconds`, checks its outputs
//! against known answers, and fills a [`crate::metrics::Report`].

pub mod batch;
pub mod serve;
pub mod split;

use std::time::{Duration, Instant};

use polychrony::signal_lang::Value;

use crate::metrics::Report;
use crate::quiet::{self, Quiet};
use crate::trace::{self, Tracer};

/// The run's set-ups, each timed on its own and spread across the run.
///
/// `setup_s` is the fastest of them.  On the shared host this benchmark
/// was built on, single-threaded work like verification ran at one of two
/// speeds, 1.6–1.8x apart, each holding for seconds to half a minute
/// (the host's other guests contending for the caches, not steal).  A
/// median of set-ups reads whichever speed held for most of the run, and
/// spread 0.15–0.45 between identical runs; the fastest of set-ups spread
/// across the whole run reads the fast speed whenever any part of the run
/// had it.  A set-up slowed by steal only reads slower, so it needs no
/// filter.
#[derive(Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Runs and times one set-up; one that fails counts as a failed
    /// check.
    pub fn time<T>(
        &mut self,
        report: &mut Report,
        setup: impl FnOnce(&mut Report) -> Result<T, String>,
    ) -> Option<T> {
        let start = Instant::now();
        let out = setup(report);
        self.0.push(secs(start));
        report.check(out.is_ok(), || {
            out.as_ref().err().cloned().unwrap_or_default()
        });
        out.ok()
    }

    /// Records `setup_s`, and how many set-ups it was taken over.
    pub fn report(&self, report: &mut Report) {
        report.param("setups", self.0.len());
        let fastest = self.0.iter().copied().fold(f64::INFINITY, f64::min);
        report.e2e("setup_s", if fastest.is_finite() { fastest } else { 0.0 });
    }
}

/// Takes samples until `budget` of quiet ones is measured (see
/// [`crate::quiet`]).  `sample(req)` returns `None` for a failed sample
/// (already counted), which still takes its place.  Returns the reported
/// samples' results, and how many samples were quiet and reported.
pub fn measure<T>(
    budget: Duration,
    nproc: usize,
    mut sample: impl FnMut(u64) -> Option<T>,
) -> (Vec<T>, String) {
    let mut quiet = Quiet::new(budget, nproc);
    let mut done = Vec::new();
    let mut req = 0;
    while quiet.wants_more() {
        let taken = quiet.begin();
        done.push(sample(req));
        quiet.end(taken);
        req += 1;
    }
    let reported = quiet::select(done, &quiet.chosen())
        .into_iter()
        .flatten()
        .collect();
    (reported, quiet.describe())
}

/// The places where `got` differs from `want`, missing and extra tokens
/// included.
pub fn count_wrong(got: &[Value], want: &[Value]) -> u64 {
    let differing = got.iter().zip(want).filter(|(a, b)| a != b).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// Records each layer's share of the traced wall time (the workload's
/// traced phase and the static census) spent in its own spans, children
/// excluded, and writes the spans out.
pub fn self_time_metrics(report: &mut Report, tr: &Tracer, ctx: &crate::Ctx, workload: &str) {
    let by_layer = tr.self_time_by_layer();
    let wall = tr.traced_wall().as_secs_f64().max(1e-9);
    for (layer, metric) in trace::LAYERS.iter().zip([
        "self.signal_share",
        "self.core_share",
        "self.codegen_share",
        "self.rt_share",
        "self.serve_share",
        "self.net_share",
    ]) {
        let own = by_layer.get(layer).copied().unwrap_or(0.0);
        report.layer(metric, own / wall);
    }
    let path = ctx
        .out_dir
        .join(format!("trace-{workload}-seed{}.json", ctx.seed));
    match tr.write_chrome(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
}

/// In a traced run the measuring time is split: the first half runs
/// untraced (the baseline of the tracing overhead), the second traced.
pub fn phases(ctx: &crate::Ctx) -> (Duration, Duration) {
    if ctx.trace {
        (ctx.seconds / 2, ctx.seconds - ctx.seconds / 2)
    } else {
        (ctx.seconds, Duration::ZERO)
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A run whose set-up or every job failed: the failures are counted, and
/// the throughput and latency read 0.
pub fn failed(mut report: Report) -> Report {
    for name in ["throughput_per_s", "latency_p50_us", "latency_p90_us"] {
        report.e2e(name, 0.0);
    }
    report
}
