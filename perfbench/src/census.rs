//! The static census: every design of the verify set taken from Signal
//! text to verdict, derived bounds, prediction and compiled machines, one
//! after another on one thread, with its known answers checked.
//!
//! Every run takes the census once, after its workload, so the verdicts,
//! refusal kinds and bounds of all designs count toward the run's error
//! rate.  A traced run takes it several times into the run's tracer (so
//! the static layers' spans count toward their self-time shares and land
//! in the written trace) and reports the static layers' costs: per stage (`signal.parse_ms`, `core.compose_ms`,
//! `core.capacity_ms`, `core.predict_ms`, `codegen.compile_ms`, each per
//! pass over the set) and per design (`verify.<design>_ms`), plus the
//! 16-stage pipeline, which alone takes over a second.  Composition is
//! 81–94% of a pass, so a faster `core.compose_ms` shows here and in
//! every workload's `setup_s`; capacity and prediction dominate
//! `serve.admit_us` instead (admission runs the capacity analysis four
//! times).
//!
//! Why not a gated workload of its own: the work is deterministic and
//! single-threaded, yet its speed follows the host's cache and memory
//! contention, which on a shared 2-vCPU host moves a pass by up to 1.8x
//! for seconds at a time.  Ten 10-second runs of designs per second
//! spread 0.32–0.45 (quartile distance over median), beyond any bound a
//! gate could use; the runtime workloads, bound by hand-offs and wakes,
//! spread under 0.06 in the same minutes.

use std::time::Instant;

use crate::designs::{self, Case};
use crate::metrics::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;

/// Passes over the set in a traced run; the median pass is reported.
const TRACED_PASSES: u64 = 5;

/// Takes the census: once untraced, or `TRACED_PASSES` times into the
/// run's tracer, whose spans then also give the static layers' self time.
pub fn run(ctx: &Ctx, tr: &mut Tracer, report: &mut Report) {
    let cases = designs::catalog(ctx.seed);
    let mut pass = |tr: &mut Tracer, req: u64| {
        for case in &cases {
            let span = tr.begin(case.span(), req);
            let outcome = designs::verify(case, tr, req);
            tr.end(span);
            report.check(outcome.is_ok(), || outcome.err().unwrap_or_default());
        }
    };
    if !ctx.trace {
        pass(tr, 0);
        return;
    }
    tr.traced(|tr| (0..TRACED_PASSES).for_each(|req| pass(tr, req)));
    for (metric, span) in [
        ("signal.parse_ms", "signal.parse"),
        ("core.compose_ms", "core.compose"),
        ("core.capacity_ms", "core.capacity"),
        ("core.predict_ms", "core.predict"),
        ("codegen.compile_ms", "codegen.compile"),
    ] {
        report.layer(metric, stats::median(&mut tr.per_request(span)) * 1e3);
    }
    for case in &cases {
        report.layer(
            case.row,
            stats::median(&mut tr.durations(case.span())) * 1e3,
        );
    }
    let pipe16 = Case {
        row: "verify.pipe16_ms",
        ..designs::pipe("pipe16", 16)
    };
    let t = Instant::now();
    let outcome = designs::verify(&pipe16, &mut Tracer::default(), 0);
    report.layer(pipe16.row, t.elapsed().as_secs_f64() * 1e3);
    report.check(outcome.is_ok(), || outcome.err().unwrap_or_default());
}
