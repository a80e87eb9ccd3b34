//! `batch-pipe8`: the 8-stage buffer pipeline, with derived bounds, on
//! the batch pool (`ExecutionMode::pool_per_core`, workers = nproc).
//! Each job feeds one long seeded Int stream; the output must equal it.
//!
//! Why: it runs every runtime layer at saturation, with the statics only
//! in set-up.  Every derived bound is 1, so each token crosses each edge
//! as its own hand-off.  16 reactions of ~175 ns are about a third of a
//! token's cost; dispatch and hand-off are the rest, so `sched.*` and
//! `ring.handoff_ns` should move `throughput_per_s` here, not
//! `codegen.step_ns`.  Fusing stages would move `rt.reactions_per_token`
//! and `sched.dispatches_per_token` together.  The pool rather than
//! thread-per-component, because the pool is ~3x faster on this host.
//!
//! Latency here is the job's: from wiring the deployment to holding its
//! checked output.  A per-token latency of a batch-fed run would only be
//! the token's queue position, so none is reported.

use std::time::{Duration, Instant};

use polychrony::gals_rt::{ComponentActivity, DeploymentOutcome, ExecutionMode};
use polychrony::isochron::Design;
use polychrony::signal_lang::Value;

use crate::designs::{self, Case};
use crate::metrics::Report;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;

use super::{count_wrong, failed, measure, phases, secs, Setups};

const STAGES: usize = 8;
/// Tokens per job: ~0.4 s of work on a 2-vCPU host.
const JOB_TOKENS: usize = 40_000;
const INPUT: &str = "p0";
const OUTPUT: &str = "p8";

/// One finished job's times and per-token counters (the outcome itself
/// is dropped, so memory stays at one job's footprint however many jobs
/// run).
struct Job {
    run_s: f64,
    job_s: f64,
    reactions: f64,
    blocked_reads: f64,
    /// Tokens sent over the internal channels.
    moved: f64,
    dispatches: f64,
    steals: f64,
    parks: f64,
    /// Busy and blocked shares of the components' spans, when traced.
    activity: Option<(f64, f64)>,
}

impl Job {
    fn new(run_s: f64, job_s: f64, outcome: &DeploymentOutcome) -> Job {
        let stats = outcome.stats();
        let per_token = |count: u64| count as f64 / JOB_TOKENS as f64;
        let activity = stats.trace.as_ref().map(|summary| {
            let total = |f: fn(&ComponentActivity) -> Duration| -> f64 {
                summary.components.iter().map(|c| f(c).as_secs_f64()).sum()
            };
            let span = total(|c| c.span).max(1e-12);
            (total(|c| c.busy) / span, total(|c| c.blocked) / span)
        });
        Job {
            run_s,
            job_s,
            reactions: per_token(stats.total_reactions()),
            blocked_reads: per_token(stats.total_blocked_reads()),
            moved: per_token(stats.total_tokens()),
            dispatches: per_token(stats.total_dispatches()),
            steals: per_token(stats.total_steals()),
            parks: per_token(stats.pool_workers.iter().map(|w| w.parks).sum()),
            activity,
        }
    }
}

/// Wires a derived deployment of `design` on `mode`, feeds `stream`, runs
/// it, and checks the last stage re-emits the stream exactly.
fn job(
    design: &Design,
    mode: ExecutionMode,
    stream: &[Value],
    tr: &mut Tracer,
    req: u64,
    report: &mut Report,
) -> Option<(Job, DeploymentOutcome)> {
    let start = Instant::now();
    let open = tr.begin("bench.job", req);
    let wired = tr.time("core.deploy", req, || {
        let mut deployment = design.deploy_derived().map_err(|e| e.to_string())?;
        deployment
            .set_execution_mode(mode)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(deployment)
    });
    let mut deployment = match wired {
        Ok(deployment) => deployment,
        Err(e) => {
            tr.end(open);
            report.check(false, || format!("pipe8 does not deploy: {e}"));
            return None;
        }
    };
    deployment.set_tracing(tr.enabled());
    tr.time("rt.feed", req, || {
        deployment.feed(INPUT, stream.iter().copied());
    });
    let run = Instant::now();
    let outcome = tr.time("rt.run", req, || deployment.run());
    let run_s = secs(run);
    tr.end(open);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            report.check(false, || format!("pipe8 run failed: {e}"));
            return None;
        }
    };
    let got = outcome.flow(OUTPUT);
    let wrong = count_wrong(got, stream);
    report.check_many(stream.len() as u64, wrong, || {
        format!(
            "{OUTPUT} differs from the input in {wrong} places ({} of {} tokens out)",
            got.len(),
            stream.len()
        )
    });
    Some((Job::new(run_s, secs(start), &outcome), outcome))
}

/// Jobs until `budget` of quiet ones is measured (see [`crate::quiet`]),
/// each after one more timed set-up, so the set-ups spread across the
/// run.  Returns the reported jobs, the last outcome, and how many jobs
/// were quiet and reported.
#[allow(clippy::too_many_arguments)]
fn jobs(
    case: &Case,
    design: &Design,
    stream: &[Value],
    tr: &mut Tracer,
    budget: Duration,
    nproc: usize,
    setups: &mut Setups,
    report: &mut Report,
) -> (Vec<Job>, Option<DeploymentOutcome>, String) {
    let mut last = None;
    let (jobs, samples) = measure(budget, nproc, |req| {
        set_up(case, setups, report);
        let (job, outcome) = job(
            design,
            ExecutionMode::pool_per_core(),
            stream,
            tr,
            req,
            report,
        )?;
        last = Some(outcome);
        Some(job)
    });
    (jobs, last, samples)
}

/// One set-up: Signal text to a verified design with its bounds,
/// prediction and compiled machines.
fn set_up(case: &Case, setups: &mut Setups, report: &mut Report) -> Option<Design> {
    setups.time(report, |_| designs::verify(case, &mut Tracer::default(), 0))
}

/// Median over jobs of one field.
fn median_of(jobs: &[Job], field: impl Fn(&Job) -> f64) -> f64 {
    stats::median(&mut jobs.iter().map(field).collect::<Vec<_>>())
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let case = designs::pipe("pipe8", STAGES);
    let mut rng = Rng::new(ctx.seed);
    let stream: Vec<Value> = rng.ints(JOB_TOKENS).into_iter().map(Value::Int).collect();
    report.param("stages", STAGES);
    report.param("job_tokens", JOB_TOKENS);
    report.param("mode", ExecutionMode::pool_per_core());

    let mut setups = Setups::default();
    let Some(design) = set_up(&case, &mut setups, &mut report) else {
        setups.report(&mut report);
        return failed(report);
    };
    // One warm-up job.
    let _ = job(
        &design,
        ExecutionMode::pool_per_core(),
        &stream,
        tr,
        0,
        &mut report,
    );

    let (untraced, traced) = phases(ctx);
    let (plain, last, samples) = jobs(
        &case,
        &design,
        &stream,
        tr,
        untraced,
        ctx.nproc,
        &mut setups,
        &mut report,
    );
    report.param("jobs", samples);
    setups.report(&mut report);
    let Some(last) = last else {
        return failed(report);
    };
    let mut run_s: Vec<f64> = plain.iter().map(|j| j.run_s).collect();
    let mut tps: Vec<f64> = run_s.iter().map(|s| JOB_TOKENS as f64 / s).collect();
    let mut job_us: Vec<f64> = plain.iter().map(|j| j.job_s * 1e6).collect();
    let throughput = stats::median(&mut tps);
    report.e2e("throughput_per_s", throughput);
    report.e2e("latency_p50_us", stats::quantile(&mut job_us, 0.5));
    report.e2e("latency_p90_us", stats::quantile(&mut job_us, 0.9));

    // One conformance replay, outside the timed window.
    let conformance = last.check_conformance();
    drop(last);
    report.check(matches!(&conformance, Ok(r) if r.is_isochronous()), || {
        format!("pipe8 conformance replay: {conformance:?}")
    });

    if ctx.trace {
        let run_median = stats::median(&mut run_s);
        report.layer("rt.run_s", run_median);
        report.layer("rt.reactions_per_token", median_of(&plain, |j| j.reactions));
        report.layer(
            "rt.blocked_reads_per_token",
            median_of(&plain, |j| j.blocked_reads),
        );
        report.layer(
            "sched.dispatches_per_token",
            median_of(&plain, |j| j.dispatches),
        );
        report.layer("sched.steals_per_token", median_of(&plain, |j| j.steals));
        report.layer("sched.parks_per_token", median_of(&plain, |j| j.parks));
        let (spans, _, samples) = tr.traced(|tr| {
            jobs(
                &case,
                &design,
                &stream,
                tr,
                traced,
                ctx.nproc,
                &mut Setups::default(),
                &mut report,
            )
        });
        report.param("traced_jobs", samples);
        traced_layers(
            ctx,
            &design,
            &stream,
            throughput,
            run_median,
            &plain,
            &spans,
            &mut report,
        );
    }
    report
}

/// What the traced half of a traced run shows, the one-worker
/// comparison, and the layer accounting.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    ctx: &Ctx,
    design: &Design,
    stream: &[Value],
    throughput: f64,
    run_median: f64,
    plain: &[Job],
    traced: &[Job],
    report: &mut Report,
) {
    report.layer(
        "trace.overhead_share",
        throughput / median_of(traced, |j| JOB_TOKENS as f64 / j.run_s) - 1.0,
    );
    let shares: Vec<(f64, f64)> = traced.iter().filter_map(|j| j.activity).collect();
    report.layer(
        "rt.busy_share",
        stats::median(&mut shares.iter().map(|a| a.0).collect::<Vec<_>>()),
    );
    report.layer(
        "rt.blocked_share",
        stats::median(&mut shares.iter().map(|a| a.1).collect::<Vec<_>>()),
    );

    // The same stream on a one-worker pool.
    let one = ExecutionMode::Pool {
        workers: 1,
        quantum: 32,
    };
    if let Some((single, _)) = job(design, one, stream, &mut Tracer::default(), 0, report) {
        report.layer("sched.speedup_vs_1w", single.run_s / run_median);
    }

    // Do the layers add up?  Reactions at the bare step cost plus channel
    // hand-offs at the ring cost, against the measured run time.
    let probes = ctx
        .probes
        .expect("a traced run takes the layer probes first");
    let reactions = median_of(plain, |j| j.reactions) * JOB_TOKENS as f64;
    let moved = median_of(plain, |j| j.moved) * JOB_TOKENS as f64;
    let predicted = (reactions * probes.step_ns + moved * probes.handoff_ns) * 1e-9;
    report.layer("acct.predicted_s", predicted);
    report.layer("acct.residual_share", (run_median - predicted) / run_median);
    let per_input = design
        .performance_prediction()
        .map(|p| p.reactions_per_input())
        .unwrap_or(0.0);
    report.layer("acct.reactions_per_token_predicted", per_input);
    report.note(format!(
        "accounting: {reactions:.0} reactions x {:.1} ns + {moved:.0} hand-offs x {:.1} ns \
         = {predicted:.3} s predicted vs {run_median:.3} s measured (residual {:.1}%); \
         reactions/token predicted {per_input} vs measured {:.3}",
        probes.step_ns,
        probes.handoff_ns,
        100.0 * (run_median - predicted) / run_median,
        reactions / JOB_TOKENS as f64,
    ));
}
