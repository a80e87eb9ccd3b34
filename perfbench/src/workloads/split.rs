//! `split-uds`: the 2-stage buffer pipeline split as `[0 | 1]` by
//! `gals_net::plan`; both partitions run as threads of this process and
//! meet over a Unix-socket link (`UdsLinks`, one connection).  The merged
//! flow must equal the input.
//!
//! Why: it is the only workload that reaches `gals-net`.  The cut edge's
//! credit window is its derived bound, 1, so every token costs one
//! Data/Ack round trip: `net.credit_rtt_us` × tokens is the floor of
//! `net.partition_s`, and `codegen.step_ns` should not show here.  The
//! boundary machines force thread-per-component.  Latency is the job's,
//! as on batch-pipe8: every token of a job is fed up front.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use polychrony::gals_net::{merge_flows, merged_conformance, plan, PartitionPlan, UdsLinks};
use polychrony::isochron::Design;
use polychrony::signal_lang::{Name, Value};

use crate::designs::{self, Case};
use crate::metrics::Report;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;

use super::{count_wrong, failed, measure, phases, secs, Setups};

const STAGES: usize = 2;
const ASSIGNMENT: [usize; STAGES] = [0, 1];
/// Tokens per job: ~0.5 s of work on a 2-vCPU host.
const JOB_TOKENS: usize = 16_000;
/// Set-ups before each job: a set-up takes ~3 ms, so these add ~5% to a
/// job's sample and spread ~200 set-ups across a 10-second run.
const SETUPS_PER_JOB: usize = 8;
const INPUT: &str = "p0";
const OUTPUT: &str = "p2";

type Flows = BTreeMap<Name, Vec<Value>>;

/// What every job of the run shares.
struct Split {
    case: Case,
    design: Design,
    plan: PartitionPlan,
    feeds: Flows,
    /// Where the job's sockets go.
    dir: PathBuf,
}

struct Job {
    job_s: f64,
    run_s: f64,
    /// The slower partition's run.
    partition_s: f64,
    reactions: u64,
}

/// One set-up: Signal text to a verified design, then the partition plan
/// with every cut window at the derived bound, 1.
fn set_up(
    case: &Case,
    setups: &mut Setups,
    report: &mut Report,
) -> Option<(Design, PartitionPlan)> {
    setups.time(report, |_| {
        let design = designs::verify(case, &mut Tracer::default(), 0)?;
        let split = plan(&design, &ASSIGNMENT).map_err(|e| format!("plan: {e}"))?;
        match split.cuts().iter().find(|cut| cut.window != 1) {
            Some(cut) => Err(format!("cut window {}, expected 1", cut.window)),
            None => Ok((design, split)),
        }
    })
}

/// Links both partitions over a fresh socket, runs them on two threads,
/// merges their flows and checks the last stage re-emits the stream.
fn job(split: &Split, tr: &mut Tracer, req: u64, report: &mut Report) -> Option<(Job, Flows)> {
    let stream = &split.feeds[&Name::from(INPUT)];
    let start = Instant::now();
    let open = tr.begin("bench.job", req);
    let links = UdsLinks::new(&split.dir);
    // The consumer side binds first, so the producer's dial succeeds at
    // once.
    let linked = tr.time("net.link", req, || {
        let consumer = split.plan.deployment(&split.design, 1, &links)?;
        let producer = split.plan.deployment(&split.design, 0, &links)?;
        Ok::<_, polychrony::gals_net::PartitionError>((producer, consumer))
    });
    let (mut producer, consumer) = match linked {
        Ok(pair) => pair,
        Err(e) => {
            tr.end(open);
            report.check(false, || format!("partitions do not link: {e}"));
            return None;
        }
    };
    producer.feed(INPUT, stream.iter().copied());
    let run = Instant::now();
    let (first, second) = std::thread::scope(|scope| {
        let timed = |deployment: polychrony::gals_rt::Deployment| {
            move || {
                let t = Instant::now();
                let outcome = deployment.run();
                (t, Instant::now(), outcome)
            }
        };
        let a = scope.spawn(timed(producer));
        let b = scope.spawn(timed(consumer));
        (
            a.join().expect("the producer partition does not panic"),
            b.join().expect("the consumer partition does not panic"),
        )
    });
    let run_s = secs(run);
    let mut partition_s: f64 = 0.0;
    let mut flows = Vec::new();
    let mut reactions = 0;
    for (t0, t1, outcome) in [first, second] {
        tr.record("net.partition", req, t0, t1);
        partition_s = partition_s.max((t1 - t0).as_secs_f64());
        match outcome {
            Ok(outcome) => {
                reactions += outcome.stats().total_reactions();
                flows.push(outcome.flows().clone());
            }
            Err(e) => report.check(false, || format!("a partition failed: {e}")),
        }
    }
    let merged = tr.time("net.merge", req, || merge_flows(&flows));
    tr.end(open);
    let merged = match merged {
        Ok(merged) if flows.len() == 2 => merged,
        Ok(_) => return None,
        Err(e) => {
            report.check(false, || format!("the partitions disagree on the cut: {e}"));
            return None;
        }
    };
    let got = merged
        .get(&Name::from(OUTPUT))
        .map_or(&[][..], Vec::as_slice);
    let wrong = count_wrong(got, stream);
    report.check_many(stream.len() as u64, wrong, || {
        format!("{OUTPUT} differs from the input in {wrong} places")
    });
    Some((
        Job {
            job_s: secs(start),
            run_s,
            partition_s,
            reactions,
        },
        merged,
    ))
}

/// Jobs until `budget` of quiet ones is measured (see [`crate::quiet`]),
/// each after `SETUPS_PER_JOB` more timed set-ups, so the set-ups spread
/// across the run.  Keeps the last merged flows; returns the reported
/// jobs and how many were quiet and reported.
fn jobs(
    split: &Split,
    tr: &mut Tracer,
    budget: Duration,
    nproc: usize,
    setups: &mut Setups,
    report: &mut Report,
    last: &mut Option<Flows>,
) -> (Vec<Job>, String) {
    measure(budget, nproc, |req| {
        for _ in 0..SETUPS_PER_JOB {
            set_up(&split.case, setups, report);
        }
        let (job, merged) = job(split, tr, req, report)?;
        *last = Some(merged);
        Some(job)
    })
}

fn tokens_per_s(jobs: &[Job]) -> f64 {
    stats::median(
        &mut jobs
            .iter()
            .map(|j| JOB_TOKENS as f64 / j.run_s)
            .collect::<Vec<_>>(),
    )
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let case = designs::pipe("pipe2", STAGES);
    let mut rng = Rng::new(ctx.seed);
    let stream: Vec<Value> = rng.ints(JOB_TOKENS).into_iter().map(Value::Int).collect();
    report.param("stages", STAGES);
    report.param("assignment", "[0 | 1]");
    report.param("job_tokens", JOB_TOKENS);
    let dir = ctx.out_dir.join(format!("uds-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.check(false, || format!("cannot create {}: {e}", dir.display()));
    }

    let mut setups = Setups::default();
    let Some((design, partitions)) = set_up(&case, &mut setups, &mut report) else {
        setups.report(&mut report);
        return failed(report);
    };
    let split = Split {
        case,
        design,
        plan: partitions,
        feeds: BTreeMap::from([(Name::from(INPUT), stream)]),
        dir,
    };
    let mut last = None;
    // One warm-up job.
    let _ = job(&split, tr, 0, &mut report);

    let (untraced, traced) = phases(ctx);
    let (plain, samples) = jobs(
        &split,
        tr,
        untraced,
        ctx.nproc,
        &mut setups,
        &mut report,
        &mut last,
    );
    report.param("jobs", samples);
    setups.report(&mut report);
    if plain.is_empty() {
        return failed(report);
    }
    let mut job_us: Vec<f64> = plain.iter().map(|j| j.job_s * 1e6).collect();
    let throughput = tokens_per_s(&plain);
    report.e2e("throughput_per_s", throughput);
    report.e2e("latency_p50_us", stats::quantile(&mut job_us, 0.5));
    report.e2e("latency_p90_us", stats::quantile(&mut job_us, 0.9));

    // One whole-design conformance replay, outside the timed window.
    if let Some(merged) = &last {
        let conformance = merged_conformance(&split.design, &split.feeds, merged);
        report.check(conformance.is_isochronous(), || {
            format!("merged conformance replay: {conformance}")
        });
    }

    if ctx.trace {
        let median_of = |field: fn(&Job) -> f64| {
            stats::median(&mut plain.iter().map(field).collect::<Vec<_>>())
        };
        report.layer("net.partition_s", median_of(|j| j.partition_s));
        report.layer("rt.run_s", median_of(|j| j.run_s));
        report.layer(
            "rt.reactions_per_token",
            median_of(|j| j.reactions as f64 / JOB_TOKENS as f64),
        );
        let mut plan_ms: Vec<f64> = (0..SETUPS_PER_JOB)
            .map(|_| {
                let t = Instant::now();
                let _ = black_box(plan(&split.design, &ASSIGNMENT));
                secs(t) * 1e3
            })
            .collect();
        report.layer("net.plan_ms", stats::median(&mut plan_ms));

        let (spans, samples) = tr.traced(|tr| {
            jobs(
                &split,
                tr,
                traced,
                ctx.nproc,
                &mut Setups::default(),
                &mut report,
                &mut last,
            )
        });
        report.param("traced_jobs", samples);
        report.layer(
            "trace.overhead_share",
            throughput / tokens_per_s(&spans) - 1.0,
        );
    }
    let _ = std::fs::remove_dir_all(&split.dir);
    report
}
