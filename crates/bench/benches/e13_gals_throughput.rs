//! E13 — GALS deployment throughput, three experiments:
//!
//! 1. **Capacity** (verified designs): reactions/sec of a deployed buffer
//!    pipeline at 1, 2, 4 and 8 components and hand-picked channel
//!    capacities 1, 16 and 256 (`Design::deploy_unchecked` +
//!    `set_capacity`).  Deeper pipelines add stages to the island, and wider
//!    channels trade memory for fewer stalled hand-offs — most visible at
//!    capacity 1, where every token crosses a full rendez-vous.
//!
//! 2. **Scheduler** (hand-rolled relay machines): the work-stealing
//!    batched pool at 8, 64 and 256 components, on a pipeline shape and a
//!    fan-out/fan-in shape, on `available_parallelism` workers whatever
//!    the component count.  Each shape is one island, swept a quantum of
//!    reactions per member per dispatch.  Each row starts one
//!    `SharedPool` and each iteration stages, submits and drains the
//!    deployment on it, so the rows time scheduling, not thread start-up
//!    and join.  A row is named
//!    `e13_scheduler/n<components>/<shape>/pool`; the command line takes a
//!    filter, so `cargo bench --bench e13_gals_throughput -- n256/fan`
//!    times that row alone.
//!
//! 3. **Derived vs hand-tuned capacities** (verified designs): the same
//!    buffer pipeline with its channel capacities derived from the clock
//!    calculus (`Design::deploy_derived` — the paper's one-place bound on
//!    every edge) against hand-tuned capacities 1 and 16.  The derived
//!    bounds must match capacity 1 (they *are* 1 on these edges, proven
//!    instead of guessed); capacity 16 shows what the extra slack buys —
//!    memory traded against blocking hand-offs, no conformance difference.
//!
//! These are criterion timings for quick comparisons.  The repository's
//! performance record — medians, spreads, per-layer probes and run
//! metadata — is the `perfbench/` harness.

use bench::boolean_flow;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gals_rt::{Deployment, PoolOptions, SharedPool, StepFault, StepMachine, SubmitOptions};
use isochron::library;
use signal_lang::{Name, Value};
use std::time::Duration;

const STREAM_LEN: usize = 256;

/// A machine that forwards one token per reaction from its single input to
/// its single output — the cheapest possible component, so the benchmark
/// measures scheduling and hand-off cost, not compute.
struct Relay {
    name: String,
    input: Name,
    output: Name,
    queue: std::collections::VecDeque<Value>,
    produced: Vec<Value>,
}

impl Relay {
    fn new(name: String, input: &str, output: &str) -> Box<Self> {
        Box::new(Relay {
            name,
            input: Name::from(input),
            output: Name::from(output),
            queue: std::collections::VecDeque::new(),
            produced: Vec::new(),
        })
    }
}

impl StepMachine for Relay {
    fn machine_name(&self) -> &str {
        &self.name
    }
    fn input_signals(&self) -> Vec<Name> {
        vec![self.input.clone()]
    }
    fn output_signals(&self) -> Vec<Name> {
        vec![self.output.clone()]
    }
    fn feed(&mut self, _port: usize, value: Value) {
        self.queue.push_back(value);
    }
    fn try_step(&mut self) -> Result<(), StepFault> {
        match self.queue.pop_front() {
            Some(value) => {
                self.produced.push(value);
                Ok(())
            }
            None => Err(StepFault::NeedInput(0)),
        }
    }
    fn output(&self, _port: usize) -> &[Value] {
        &self.produced
    }
}

/// A machine that merges every fan branch: one reaction consumes one token
/// from each input and emits their conjunction.
struct Collect {
    inputs: Vec<Name>,
    queues: Vec<std::collections::VecDeque<Value>>,
    produced: Vec<Value>,
}

impl StepMachine for Collect {
    fn machine_name(&self) -> &str {
        "collect"
    }
    fn input_signals(&self) -> Vec<Name> {
        self.inputs.clone()
    }
    fn output_signals(&self) -> Vec<Name> {
        vec![Name::from("out")]
    }
    fn feed(&mut self, port: usize, value: Value) {
        self.queues[port].push_back(value);
    }
    fn try_step(&mut self) -> Result<(), StepFault> {
        if let Some(port) = self.queues.iter().position(|queue| queue.is_empty()) {
            return Err(StepFault::NeedInput(port));
        }
        let mut all = true;
        for queue in self.queues.iter_mut() {
            all &= queue.pop_front().expect("checked nonempty") == Value::Bool(true);
        }
        self.produced.push(Value::Bool(all));
        Ok(())
    }
    fn output(&self, _port: usize) -> &[Value] {
        &self.produced
    }
}

/// `components` relays in a line: env `s0` -> relay -> ... -> `s{n}`.
fn pipeline_shape(components: usize) -> Deployment {
    let mut deployment = Deployment::new();
    for i in 0..components {
        deployment.add_machine(Relay::new(
            format!("stage{i}"),
            &format!("s{i}"),
            &format!("s{}", i + 1),
        ));
    }
    deployment
}

/// A source broadcasting to `components - 2` parallel relays, recollected
/// by one sink: the widest topology the derivation produces.
fn fan_shape(components: usize) -> Deployment {
    assert!(components >= 3, "a fan needs source, branch and sink");
    let branches = components - 2;
    let mut deployment = Deployment::new();
    deployment.add_machine(Relay::new("source".into(), "in", "x"));
    let mut inputs = Vec::with_capacity(branches);
    for b in 0..branches {
        let output = format!("t{b}");
        deployment.add_machine(Relay::new(format!("branch{b}"), "x", &output));
        inputs.push(Name::from(output.as_str()));
    }
    let queues = inputs
        .iter()
        .map(|_| std::collections::VecDeque::new())
        .collect();
    deployment.add_machine(Box::new(Collect {
        inputs,
        queues,
        produced: Vec::new(),
    }));
    deployment
}

fn bench_capacity(c: &mut Criterion) {
    let stream: Vec<Value> = boolean_flow(STREAM_LEN, 0xE13)
        .into_iter()
        .map(Value::Bool)
        .collect();
    let mut group = c.benchmark_group("e13_gals_throughput");
    group.sample_size(10);
    for components in [1usize, 2, 4, 8] {
        let design = library::buffer_pipeline_design(components).expect("the pipeline composes");
        assert!(design.is_weakly_hierarchic(), "{}", design.verdict());
        for capacity in [1usize, 16, 256] {
            group.bench_with_input(
                BenchmarkId::new(format!("n{components}/slot"), capacity),
                &capacity,
                |bencher, &capacity| {
                    bencher.iter(|| {
                        let mut deployment = design.deploy_unchecked();
                        deployment.set_capacity(capacity).expect("nonzero");
                        deployment.feed("p0", stream.iter().copied());
                        let outcome = deployment.run().expect("the deployment runs");
                        outcome.stats().total_reactions()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    let stream: Vec<Value> = boolean_flow(STREAM_LEN, 0x5C4ED)
        .into_iter()
        .map(Value::Bool)
        .collect();
    let mut group = c.benchmark_group("e13_scheduler");
    group.sample_size(10);
    for components in [8usize, 64, 256] {
        for (shape, build, env) in [
            ("pipeline", pipeline_shape as fn(usize) -> Deployment, "s0"),
            ("fan", fan_shape as fn(usize) -> Deployment, "in"),
        ] {
            // One pool per row, started outside the timed routine: an
            // iteration pays for placing, running and draining the
            // deployment, not for starting and joining worker threads.
            let pool = SharedPool::start(PoolOptions::per_core()).expect("the pool starts");
            group.bench_with_input(
                BenchmarkId::new(format!("n{components}/{shape}"), "pool"),
                &pool,
                |bencher, pool| {
                    bencher.iter(|| {
                        let mut deployment = build(components);
                        deployment.set_capacity(16).expect("nonzero");
                        // The egress holds the whole output, so draining
                        // never throttles the run.
                        deployment.set_stream_capacity(STREAM_LEN).expect("nonzero");
                        deployment.feed(env, stream.iter().copied());
                        let staged = deployment.stage().expect("the deployment stages");
                        let outcome = pool
                            .submit(staged, &SubmitOptions::default())
                            .drain(Duration::from_secs(30))
                            .expect("the deployment drains");
                        // Every relay forwarded the full stream.
                        assert_eq!(
                            outcome.stats().total_reactions(),
                            (components * STREAM_LEN) as u64
                        );
                        outcome.stats().total_reactions()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_derived_sizing(c: &mut Criterion) {
    let stream: Vec<Value> = boolean_flow(STREAM_LEN, 0xD1F)
        .into_iter()
        .map(Value::Bool)
        .collect();
    let mut group = c.benchmark_group("e13_derived_vs_tuned");
    group.sample_size(10);
    for components in [2usize, 4, 8] {
        let design = library::buffer_pipeline_design(components).expect("the pipeline composes");
        // Derive once, outside the measurement: the BDD work and the
        // prediction are per-design compile-time costs, not per-run ones.
        let analysis = design.capacity_analysis().expect("verified design");
        assert!(analysis.is_fully_bounded(), "{analysis}");
        design.performance_prediction().expect("verified design");
        for (label, capacity) in [
            ("derived", None),
            ("tuned1", Some(1)),
            ("tuned16", Some(16)),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("n{components}"), label),
                &capacity,
                |bencher, &capacity| {
                    bencher.iter(|| {
                        let mut deployment = match capacity {
                            None => design.deploy_derived().expect("the pipeline is verified"),
                            Some(capacity) => {
                                let mut deployment = design.deploy_unchecked();
                                deployment.set_capacity(capacity).expect("nonzero");
                                deployment
                            }
                        };
                        deployment.feed("p0", stream.iter().copied());
                        let outcome = deployment.run().expect("the deployment runs");
                        outcome.stats().total_reactions()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_capacity, bench_schedulers, bench_derived_sizing
}
criterion_main!(benches);
