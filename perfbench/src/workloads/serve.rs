//! `serve-64x`: 64 tenants of the 3-stage buffer pipeline admitted to a
//! `gals_serve::Server` with max(1, nproc − 1) pinned workers.  One
//! client thread, pinned to the last core, feeds single seeded tokens
//! round-robin on an open-loop schedule of 20 000 tokens/s and spin-polls
//! every handle.
//!
//! Why: the same runtime layers as batch-pipe8 the other way round —
//! sparse arrivals, external wakes and about two parks per token instead
//! of back-to-back hand-offs — with admission in set-up.  At this rate
//! the lone worker parks between tokens, so `latency_p50_us` is the path
//! park → wake → three stages → egress: spinning before parking should
//! lower it (and may cost batch-pipe8 throughput on 2 vCPUs), and
//! caching admission work should move `setup_s` here (`serve.admit_us`).
//!
//! Latency runs from a token's due time in the schedule (not its actual
//! feed, so a stalled generator is charged) to the `poll_outputs` call
//! that returns it.  The client spin-polls so that latency measures the
//! server rather than a poll sleep.  The gated percentile is p90, not
//! p99: a spinning thread on an idle core here sees 13–26 stalls over
//! 1 ms per 10 s, which swing p99 several-fold between identical runs;
//! p99, max and the share over 1 ms are per-layer diagnostics.
//!
//! The schedule runs in one-second windows.  Each window is drained until
//! every token is back, then the client takes one more set-up (a second
//! server, admitted and retired) before the next window starts its
//! schedule afresh, so the set-ups spread across the run while no token
//! is in flight.
//!
//! Every workload reports every end-to-end metric, so this one reports a
//! throughput too: the delivered rate at the offered rate, which only
//! shows whether the server keeps up.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use polychrony::gals_rt::PoolWorkerStats;
use polychrony::gals_serve::{affinity, DeploymentHandle, Server, ServerOptions};
use polychrony::signal_lang::{Name, Value};

use crate::designs::{self, Case};
use crate::metrics::Report;
use crate::probes;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;

use super::{failed, measure, phases, secs, Setups};

const TENANTS: usize = 64;
const STAGES: usize = 3;
const RATE_PER_S: u64 = 20_000;
const INPUT: &str = "p0";
const OUTPUT: &str = "p3";
/// How long the client waits for the last tokens after a window's
/// schedule ends.
const DRAIN: Duration = Duration::from_secs(10);
/// How long a fleet's tenants may take, all together, to finish.
const FINISH: Duration = Duration::from_secs(30);
/// The open-loop schedule runs in windows of this many tokens (one
/// second's worth), each judged for host interference on its own.
const WINDOW_TOKENS: u32 = RATE_PER_S as u32;
/// Set-ups before the timed phase; one more follows every window.
const SETUPS_BEFORE: usize = 2;

/// The server and its admitted tenants.
struct Fleet {
    server: Server,
    handles: Vec<DeploymentHandle>,
}

/// One core for the client, the rest for the workers.
fn workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// The run's set-ups: each takes Signal text to a verified design, starts
/// a server and admits every tenant.
struct Fleets {
    case: Case,
    workers: usize,
    setups: Setups,
    /// Every admission's time, in seconds.
    admit_s: Vec<f64>,
}

impl Fleets {
    fn set_up(&mut self, report: &mut Report) -> Option<Fleet> {
        let (case, workers, admit_s) = (&self.case, self.workers, &mut self.admit_s);
        self.setups.time(report, |report| {
            let design = designs::verify(case, &mut Tracer::default(), 0)?;
            let mut options = ServerOptions::per_core();
            options.workers = workers;
            options.pin_workers = true;
            let server =
                Server::start(options).map_err(|e| format!("the server does not start: {e}"))?;
            let mut handles = Vec::with_capacity(TENANTS);
            for tenant in 0..TENANTS {
                let t = Instant::now();
                let admitted = server.admit(format!("tenant-{tenant:02}"), &design);
                admit_s.push(secs(t));
                report.check(admitted.is_ok(), || {
                    format!("tenant {tenant} refused: {:?}", admitted.as_ref().err())
                });
                handles.extend(admitted.ok());
            }
            match TENANTS - handles.len() {
                0 => Ok(Fleet { server, handles }),
                refused => Err(format!("{refused} of {TENANTS} tenants refused")),
            }
        })
    }
}

/// Time left until `deadline`.
fn until(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

/// Finishes a set-up's fleet that carried no traffic.
fn retire(fleet: Fleet) {
    let deadline = Instant::now() + FINISH;
    for handle in fleet.handles {
        let _ = handle.finish(until(deadline));
    }
    drop(fleet.server);
}

/// What the client saw in one open-loop phase.
#[derive(Default)]
struct Phase {
    /// Per token of the reported windows, in µs.
    latency_us: Vec<f64>,
    /// Tokens delivered per second over the reported windows, each from
    /// its first due time to its last delivery; 0 if none came back.
    delivered_per_s: f64,
    late_max_us: f64,
    fed: u64,
    feed_ns: Vec<f64>,
    poll_ns: f64,
    polls: u64,
    /// Windows quiet and reported.
    windows: String,
    /// Peak resident set once half of `length` of schedule has been fed:
    /// a fixed token count, however long the phase then runs on.
    rss_mb: f64,
}

/// One window's deliveries.
struct Window {
    latency_us: Vec<f64>,
    /// From the first due time to the last delivery.
    span: Duration,
}

/// The client's view of the tenants: each tenant's fed values (for the
/// final FIFO check) and its in-flight tokens with their due times.
struct Client {
    input: Name,
    output: Name,
    rng: Rng,
    /// Tokens fed so far, across phases: the round-robin position.
    fed: u64,
    sent: Vec<Vec<Value>>,
    pending: Vec<VecDeque<(Instant, Value)>>,
}

impl Client {
    fn outstanding(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    /// Feeds the next seeded token to the next tenant, due at `due`.
    fn feed(&mut self, fleet: &mut Fleet, due: Instant, report: &mut Report) {
        let tenant = (self.fed % TENANTS as u64) as usize;
        let value = Value::Int(self.rng.next_u64() as i64 >> 16);
        let fed = fleet.handles[tenant].feed(self.input.clone(), [value]);
        report.check(fed.is_ok(), || {
            format!("feed to tenant {tenant}: {:?}", fed.err())
        });
        self.sent[tenant].push(value);
        self.pending[tenant].push_back((due, value));
        self.fed += 1;
    }

    /// Polls every handle once, checks each returned token against the
    /// tenant's next in-flight one, and calls `arrived(due, at)` for it.
    fn poll(
        &mut self,
        fleet: &mut Fleet,
        tr: &mut Tracer,
        report: &mut Report,
        mut arrived: impl FnMut(Instant, Instant),
    ) {
        for (tenant, handle) in fleet.handles.iter_mut().enumerate() {
            let t = Instant::now();
            let flows = handle.poll_outputs();
            let at = Instant::now();
            let Some(values) = flows.get(&self.output).filter(|v| !v.is_empty()) else {
                continue;
            };
            tr.record("serve.poll", tenant as u64, t, at);
            for value in values {
                match self.pending[tenant].pop_front() {
                    Some((due, expected)) => {
                        report.check(*value == expected, || {
                            format!("tenant {tenant} returned {value:?}, expected {expected:?}")
                        });
                        arrived(due, at);
                    }
                    None => report.check(false, || {
                        format!("tenant {tenant} returned an extra {value:?}")
                    }),
                }
            }
        }
    }

    /// One open-loop window: a token due every 1/RATE s, fed round-robin,
    /// with every handle polled while the next one is not yet due; then a
    /// drain until every fed token is back.  What never comes back within
    /// `DRAIN` counts as lost.
    fn window(
        &mut self,
        fleet: &mut Fleet,
        nproc: usize,
        tr: &mut Tracer,
        report: &mut Report,
        out: &mut Phase,
    ) -> Window {
        let period = Duration::from_nanos(1_000_000_000 / RATE_PER_S);
        // On one core the spinning client must let the worker run.
        let yield_between_polls = nproc == 1;
        let traced = tr.enabled();
        let start = Instant::now();
        let mut latency_us = Vec::with_capacity(WINDOW_TOKENS as usize);
        let mut last = None;
        let mut arrived = |due: Instant, at: Instant| {
            latency_us.push((at - due).as_secs_f64() * 1e6);
            last = Some(at);
        };
        for k in 0..WINDOW_TOKENS {
            let due = start + period * k;
            while Instant::now() < due {
                let t = Instant::now();
                self.poll(fleet, tr, report, &mut arrived);
                if traced {
                    out.poll_ns += t.elapsed().as_nanos() as f64;
                    out.polls += TENANTS as u64;
                }
                if yield_between_polls {
                    std::thread::yield_now();
                }
            }
            let t = Instant::now();
            let open = tr.begin("serve.feed", self.fed);
            self.feed(fleet, due, report);
            tr.end(open);
            if traced {
                out.feed_ns.push(t.elapsed().as_nanos() as f64);
            }
            out.late_max_us = out.late_max_us.max((t - due).as_secs_f64() * 1e6);
            out.fed += 1;
        }
        let deadline = Instant::now() + DRAIN;
        while self.outstanding() > 0 && Instant::now() < deadline {
            self.poll(fleet, tr, report, &mut arrived);
        }
        let lost = self.outstanding() as u64;
        report.check_many(lost, lost, || {
            "tokens never came back before the drain deadline".into()
        });
        self.pending.iter_mut().for_each(VecDeque::clear);
        Window {
            span: last.map_or(Duration::ZERO, |at| at - start),
            latency_us,
        }
    }
}

/// One open-loop phase: windows until `length` of quiet ones is measured
/// (see [`crate::quiet`]), each followed by one more set-up, so the
/// set-ups spread across the run.  Latencies are reported from the
/// chosen windows, by due time.
fn phase(
    nproc: usize,
    fleet: &mut Fleet,
    client: &mut Client,
    fleets: &mut Fleets,
    length: Duration,
    tr: &mut Tracer,
    report: &mut Report,
) -> Phase {
    let mut out = Phase::default();
    // Every phase should feed this many tokens: a window with its set-up
    // takes ~1.3 s, so a phase holds more windows than half the seconds
    // of `length`.
    let rss_after = (length.as_secs() / 2).max(1) * RATE_PER_S;
    let (windows, described) = measure(length, nproc, |_| {
        let window = client.window(fleet, nproc, tr, report, &mut out);
        if out.rss_mb == 0.0 && out.fed >= rss_after {
            out.rss_mb = probes::peak_rss_mb();
        }
        if let Some(extra) = fleets.set_up(report) {
            retire(extra);
        }
        Some(window)
    });
    if out.rss_mb == 0.0 {
        out.rss_mb = probes::peak_rss_mb();
    }
    let delivered: usize = windows.iter().map(|w| w.latency_us.len()).sum();
    let span: f64 = windows.iter().map(|w| w.span.as_secs_f64()).sum();
    if delivered > 0 {
        out.delivered_per_s = delivered as f64 / span;
    }
    out.latency_us = windows.into_iter().flat_map(|w| w.latency_us).collect();
    out.windows = described;
    out
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    report.param("tenants", TENANTS);
    report.param("stages", STAGES);
    report.param("rate_per_s", RATE_PER_S);
    let mut fleets = Fleets {
        case: designs::pipe("pipe3", STAGES),
        workers: workers(ctx.nproc),
        setups: Setups::default(),
        admit_s: Vec::new(),
    };
    report.param("workers", fleets.workers);

    // The fleet of the last set-up carries the traffic.
    let mut fleet = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some(old) = fleet.take() {
            retire(old);
        }
        fleet = fleets.set_up(&mut report);
    }
    let Some(mut fleet) = fleet else {
        fleets.setups.report(&mut report);
        return failed(report);
    };

    // The client thread owns the last core; the workers the others.
    affinity::pin_to_core(ctx.nproc - 1);
    let mut client = Client {
        input: Name::from(INPUT),
        output: Name::from(OUTPUT),
        rng: Rng::new(ctx.seed),
        fed: 0,
        sent: vec![Vec::new(); TENANTS],
        pending: vec![VecDeque::new(); TENANTS],
    };
    let (untraced, traced) = phases(ctx);
    let before = fleet.server.worker_stats();
    let mut plain = phase(
        ctx.nproc,
        &mut fleet,
        &mut client,
        &mut fleets,
        untraced,
        tr,
        &mut report,
    );
    let after = fleet.server.worker_stats();
    report.param("windows", &plain.windows);
    fleets.setups.report(&mut report);
    let p50 = stats::quantile(&mut plain.latency_us, 0.5);
    report.e2e("throughput_per_s", plain.delivered_per_s);
    report.e2e("latency_p50_us", p50);
    report.e2e(
        "latency_p90_us",
        stats::quantile(&mut plain.latency_us, 0.9),
    );
    report.e2e("peak_rss_mb", plain.rss_mb);

    if ctx.trace {
        let tokens = plain.fed.max(1) as f64;
        let delta = |f: fn(&PoolWorkerStats) -> u64| -> f64 {
            let total = |s: &[PoolWorkerStats]| s.iter().map(f).sum::<u64>();
            total(&after).saturating_sub(total(&before)) as f64 / tokens
        };
        report.layer("sched.dispatches_per_token", delta(|w| w.dispatches));
        report.layer("sched.steals_per_token", delta(|w| w.steals));
        report.layer("sched.parks_per_token", delta(|w| w.parks));
        report.layer(
            "serve.tail_p99_us",
            stats::quantile(&mut plain.latency_us, 0.99),
        );
        report.layer(
            "serve.tail_max_us",
            stats::quantile(&mut plain.latency_us, 1.0),
        );
        let over = plain.latency_us.iter().filter(|&&us| us > 1000.0).count();
        report.layer(
            "serve.over_1ms_share",
            over as f64 / plain.latency_us.len().max(1) as f64,
        );
        report.layer("client.late_max_us", plain.late_max_us);
        let mut admit_us: Vec<f64> = fleets.admit_s.iter().map(|s| s * 1e6).collect();
        report.layer("serve.admit_us", stats::median(&mut admit_us));

        let mut spans = tr.traced(|tr| {
            phase(
                ctx.nproc,
                &mut fleet,
                &mut client,
                &mut fleets,
                traced,
                tr,
                &mut report,
            )
        });
        report.param("traced_windows", &spans.windows);
        report.layer("serve.feed_ns", stats::median(&mut spans.feed_ns));
        report.layer("serve.poll_ns", spans.poll_ns / spans.polls.max(1) as f64);
        report.layer(
            "trace.overhead_share",
            stats::quantile(&mut spans.latency_us, 0.5) / p50 - 1.0,
        );
    }
    // Outside the timed window: every tenant finishes, its flow is exactly
    // what it was fed (FIFO, no loss, no duplicate), and its conformance
    // replay holds.
    let (mut reactions, mut blocked) = (0u64, 0u64);
    let deadline = Instant::now() + FINISH;
    for (tenant, handle) in fleet.handles.drain(..).enumerate() {
        match handle.finish(until(deadline)) {
            Ok(outcome) => {
                report.check(
                    outcome.flow(OUTPUT) == client.sent[tenant].as_slice(),
                    || format!("tenant {tenant}: the drained flow differs from its feed"),
                );
                let conformance = outcome.check_conformance();
                report.check(matches!(&conformance, Ok(r) if r.is_isochronous()), || {
                    format!("tenant {tenant} conformance replay: {conformance:?}")
                });
                reactions += outcome.stats().total_reactions();
                blocked += outcome.stats().total_blocked_reads();
            }
            Err(_) => report.check(false, || format!("tenant {tenant}: finish timed out")),
        }
    }
    if ctx.trace {
        let tokens = client.fed.max(1) as f64;
        report.layer("rt.reactions_per_token", reactions as f64 / tokens);
        report.layer("rt.blocked_reads_per_token", blocked as f64 / tokens);
    }
    report
}
