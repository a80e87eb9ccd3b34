//! E13 — GALS deployment throughput, two experiments:
//!
//! 1. **Backend/capacity** (verified designs): reactions/sec of a deployed
//!    buffer pipeline at 1, 2, 4 and 8 components, channel capacities 1,
//!    16 and 256, and both channel backends (bounded mpsc vs lock-free
//!    SPSC ring).  Deeper pipelines add threads, wider channels trade
//!    memory for fewer blocking hand-offs, and the ring removes the
//!    per-token lock from the hand-off itself — most visible at capacity
//!    1, where every token crosses a full rendez-vous.
//!
//! 2. **Scheduler** (hand-rolled relay machines): thread-per-component vs
//!    the work-stealing batched pool at 8, 64 and 256 components, on a
//!    pipeline shape and a fan-out/fan-in shape.  Thread mode spawns one
//!    OS thread per component — 256 threads on a handful of cores is pure
//!    oversubscription; the pool completes the same run on
//!    `available_parallelism` workers, stepping each ready component a
//!    quantum of reactions per dispatch.
//!
//! 3. **Derived vs hand-tuned capacities** (verified designs): the same
//!    buffer pipeline with its channel capacities derived from the clock
//!    calculus (`ChannelSizing::Derived` — the paper's one-place bound on
//!    every edge) against hand-tuned capacities 1 and 16.  Derived sizing
//!    must match capacity 1 (it *is* 1 on these edges, now proven instead
//!    of guessed); capacity 16 shows what the extra slack buys — memory
//!    traded against blocking hand-offs, no conformance difference.
//!
//! 4. **Machine kind** (interpreter vs compiled step machines): the same
//!    generated step program executed by the tree-walking
//!    `SequentialRuntime` and by the slot-indexed `CompiledRuntime`, both
//!    as a bare step loop (pure machine cost, no threads or channels — the
//!    chain-of-pairs program at 1, 4 and 8 pairs) and as a full deployed
//!    pipeline (`Design::deploy_with`), where hand-off costs dilute the
//!    difference.
//!
//! The machine-readable report additionally measures the cross-process
//! media from `gals-net`: the same derived-sized pipeline with every edge
//! riding the shared-file ring (`shm`) or a Unix domain socket speaking
//! the credit-windowed wire protocol (`uds`), plus a genuinely
//! partitioned run (`pipe4/partitioned/uds`) whose two halves exchange
//! the cut signal over a real socket via the partition runner.

use std::collections::BTreeMap;
use std::sync::Arc;

use bench::boolean_flow;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gals_net::runner::run_partition;
use gals_net::{plan, MergedStats, NetTransport, ShmTransport, UdsLinks};
use gals_rt::{Backend, Deployment, ExecutionMode, MachineKind, StepFault, StepMachine};
use isochron::design::chain_as_single_process;
use isochron::{library, Component};
use signal_lang::{Name, Value};

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
    fn feed_value(&mut self, _signal: &str, value: Value) {
        self.queue.push_back(value);
    }
    fn try_step(&mut self) -> Result<(), StepFault> {
        match self.queue.pop_front() {
            Some(value) => {
                self.produced.push(value);
                Ok(())
            }
            None => Err(StepFault::NeedInput(self.input.clone())),
        }
    }
    fn produced(&self, _signal: &str) -> &[Value] {
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
    fn feed_value(&mut self, signal: &str, value: Value) {
        let slot = self
            .inputs
            .iter()
            .position(|i| i.as_str() == signal)
            .expect("declared input");
        self.queues[slot].push_back(value);
    }
    fn try_step(&mut self) -> Result<(), StepFault> {
        for (i, queue) in self.queues.iter().enumerate() {
            if queue.is_empty() {
                return Err(StepFault::NeedInput(self.inputs[i].clone()));
            }
        }
        let mut all = true;
        for queue in self.queues.iter_mut() {
            all &= queue.pop_front().expect("checked nonempty") == Value::Bool(true);
        }
        self.produced.push(Value::Bool(all));
        Ok(())
    }
    fn produced(&self, _signal: &str) -> &[Value] {
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

fn bench_backends(c: &mut Criterion) {
    let stream: Vec<Value> = boolean_flow(STREAM_LEN, 0xE13)
        .into_iter()
        .map(Value::Bool)
        .collect();
    let mut group = c.benchmark_group("e13_gals_throughput");
    group.sample_size(10);
    for components in [1usize, 2, 4, 8] {
        let design = library::buffer_pipeline_design(components).expect("the pipeline composes");
        assert!(design.is_weakly_hierarchic(), "{}", design.verdict());
        for (label, backend) in [("mpsc", Backend::Mpsc), ("ring", Backend::SpscRing)] {
            for capacity in [1usize, 16, 256] {
                group.bench_with_input(
                    BenchmarkId::new(format!("n{components}/{label}"), capacity),
                    &capacity,
                    |bencher, &capacity| {
                        bencher.iter(|| {
                            let mut deployment = design.deploy().expect("the pipeline is verified");
                            deployment.set_backend(backend);
                            deployment.set_capacity(capacity).expect("nonzero");
                            deployment.feed("p0", stream.iter().copied());
                            let outcome = deployment.run().expect("the deployment runs");
                            outcome.stats().total_reactions()
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    let stream: Vec<Value> = boolean_flow(STREAM_LEN, 0x5C4ED)
        .into_iter()
        .map(Value::Bool)
        .collect();
    let pool = ExecutionMode::pool_per_core();
    let mut group = c.benchmark_group("e13_pool_vs_thread");
    group.sample_size(10);
    for components in [8usize, 64, 256] {
        for (shape, build, env) in [
            ("pipeline", pipeline_shape as fn(usize) -> Deployment, "s0"),
            ("fan", fan_shape as fn(usize) -> Deployment, "in"),
        ] {
            for (label, mode) in [
                ("thread", ExecutionMode::ThreadPerComponent),
                ("pool", pool),
            ] {
                group.bench_with_input(
                    BenchmarkId::new(format!("n{components}/{shape}"), label),
                    &mode,
                    |bencher, &mode| {
                        bencher.iter(|| {
                            let mut deployment = build(components);
                            deployment.set_execution_mode(mode).expect("valid mode");
                            deployment.set_capacity(16).expect("nonzero");
                            deployment.feed(env, stream.iter().copied());
                            let outcome = deployment.run().expect("the deployment runs");
                            // Every relay forwarded the full stream: the
                            // two modes do identical work.
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
        // Derive once, outside the measurement: the BDD work is a
        // per-design compile-time cost, not a per-run one.
        let analysis = design.capacity_analysis().expect("verified design");
        assert!(analysis.is_fully_bounded(), "{analysis}");
        type Sizing = Box<dyn Fn(&mut gals_rt::Deployment)>;
        let sizings: [(&str, Sizing); 3] = [
            ("derived", {
                let analysis = analysis.clone();
                Box::new(move |d: &mut gals_rt::Deployment| {
                    d.set_capacity_analysis(&analysis);
                })
            }),
            (
                "tuned1",
                Box::new(|d: &mut gals_rt::Deployment| {
                    d.set_capacity(1).expect("nonzero");
                }),
            ),
            (
                "tuned16",
                Box::new(|d: &mut gals_rt::Deployment| {
                    d.set_capacity(16).expect("nonzero");
                }),
            ),
        ];
        for (label, sizing) in &sizings {
            group.bench_with_input(
                BenchmarkId::new(format!("n{components}"), label),
                label,
                |bencher, _| {
                    bencher.iter(|| {
                        let mut deployment = design.deploy().expect("the pipeline is verified");
                        sizing(&mut deployment);
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

/// The bare step-loop workload for the machine-kind comparison: the
/// chain-of-pairs composition generated as **one** step program, plus the
/// environment feeds satisfying its `[not a] = [b]` couplings.
fn chain_machine_workload(
    pairs: usize,
    tokens: usize,
) -> (codegen::ir::StepProgram, Vec<(Name, Vec<Value>)>) {
    let component = Component::new(chain_as_single_process(pairs).expect("the chain composes"))
        .expect("the chain analyzes");
    let program = component.step_program();
    let pattern = boolean_flow(tokens, 0xC4A1 + pairs as u64);
    let a: Vec<Value> = pattern.iter().map(|&b| Value::Bool(b)).collect();
    let b: Vec<Value> = pattern.iter().map(|&b| Value::Bool(!b)).collect();
    let mut feeds = Vec::new();
    for pair in 0..pairs {
        feeds.push((Name::from(format!("a{pair}").as_str()), a.clone()));
        feeds.push((Name::from(format!("b{pair}").as_str()), b.clone()));
    }
    (program, feeds)
}

/// Drives one machine of the given kind over the whole feed and returns
/// the number of reactions it completed.
fn step_loop(
    kind: MachineKind,
    program: &codegen::ir::StepProgram,
    feeds: &[(Name, Vec<Value>)],
) -> u64 {
    let mut machine = codegen::machine_of(kind, program);
    for (signal, values) in feeds {
        for value in values {
            machine.feed_value(signal.as_str(), *value);
        }
    }
    let mut steps = 0u64;
    while machine.try_step().is_ok() {
        steps += 1;
    }
    steps
}

fn bench_machine_kinds(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_machine_kind");
    group.sample_size(10);
    for pairs in [1usize, 4, 8] {
        let (program, feeds) = chain_machine_workload(pairs, STREAM_LEN);
        for (label, kind) in [
            ("interpreted", MachineKind::Interpreted),
            ("compiled", MachineKind::Compiled),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("chain{pairs}"), label),
                &kind,
                |bencher, &kind| {
                    bencher.iter(|| {
                        let steps = step_loop(kind, &program, &feeds);
                        assert!(steps > 0);
                        steps
                    })
                },
            );
        }
    }
    group.finish();
}

/// One row of the machine-readable report: a named configuration, its
/// topology, and the measured (plus, for verified designs, predicted)
/// throughput.
struct ReportRow {
    name: String,
    topology: String,
    components: usize,
    backend: &'static str,
    mode: &'static str,
    reactions_per_second: f64,
    predicted_reactions_per_input: Option<f64>,
    /// Blocked reads per reaction over the measured (untraced) runs — the
    /// fraction of steps that parked on an empty upstream channel.
    blocked_read_ratio: f64,
    /// Highest instantaneous channel occupancy across all edges, witnessed
    /// by a separate traced run on the ring transport (`null` when no
    /// transport in the row's configuration reports occupancy).
    max_edge_occupancy: Option<usize>,
}

/// Runs one traced probe of the configuration and returns the maximum
/// per-edge occupancy high-water mark, if any transport reported one.
/// Kept separate from the measured runs so the throughput numbers stay
/// untraced.
fn probe_max_occupancy(mut deployment: Deployment, env: &str, stream: &[Value]) -> Option<usize> {
    deployment.set_tracing(true);
    deployment.feed(env, stream.iter().copied());
    let outcome = deployment.run().expect("the deployment runs");
    let trace = outcome.trace().expect("tracing was enabled");
    trace
        .summary()
        .edges
        .iter()
        .filter_map(|edge| edge.high_water)
        .max()
}

/// Measures representative E13 configurations and writes `BENCH_e13.json`
/// at the workspace root — the same numbers the criterion groups print,
/// but in a machine-readable shape (name, topology, reactions/sec) so CI
/// and the throughput-prediction tests can diff runs over time.
fn emit_machine_readable_report(_c: &mut Criterion) {
    let stream: Vec<Value> = boolean_flow(STREAM_LEN, 0xE13)
        .into_iter()
        .map(Value::Bool)
        .collect();
    let mut rows: Vec<ReportRow> = Vec::new();

    // Verified buffer pipelines under derived sizing, both backends.
    for components in [1usize, 2, 4, 8] {
        let design = library::buffer_pipeline_design(components).expect("the pipeline composes");
        let predicted = design
            .performance_prediction()
            .ok()
            .map(|p| p.reactions_per_input());
        for (label, backend) in [("mpsc", Backend::Mpsc), ("ring", Backend::SpscRing)] {
            let mut best = 0.0f64;
            let mut blocked = 0u64;
            let mut reactions = 0u64;
            for _ in 0..3 {
                let mut deployment = design.deploy_derived().expect("the pipeline is verified");
                deployment.set_backend(backend);
                deployment.feed("p0", stream.iter().copied());
                let outcome = deployment.run().expect("the deployment runs");
                let stats = outcome.stats();
                blocked += stats.total_blocked_reads();
                reactions += stats.total_reactions();
                if let Some(rps) = stats.reactions_per_second() {
                    best = best.max(rps);
                }
            }
            // Occupancy witness from one traced probe of the same config
            // (only the ring transport reports instantaneous occupancy).
            let mut probe = design.deploy_derived().expect("the pipeline is verified");
            probe.set_backend(backend);
            let max_edge_occupancy = probe_max_occupancy(probe, "p0", &stream);
            rows.push(ReportRow {
                name: format!("pipe{components}/{label}/derived"),
                topology: "buffer-pipeline".into(),
                components,
                backend: label,
                mode: "thread",
                reactions_per_second: best,
                predicted_reactions_per_input: predicted,
                blocked_read_ratio: if reactions == 0 {
                    0.0
                } else {
                    blocked as f64 / reactions as f64
                },
                max_edge_occupancy,
            });
        }
    }

    // The same pipeline with every edge on a cross-process medium from
    // gals-net: the shared-file ring and the wire-protocol Unix socket.
    // The channel windows stay the derived capacity bounds — the paper's
    // sizing result is medium-independent, so only the hand-off cost
    // moves.
    {
        let components = 4usize;
        let design = library::buffer_pipeline_design(components).expect("the pipeline composes");
        let predicted = design
            .performance_prediction()
            .ok()
            .map(|p| p.reactions_per_input());
        type Medium = Box<dyn Fn() -> Arc<dyn gals_rt::Transport>>;
        let media: [(&'static str, Medium); 2] = [
            (
                "shm",
                Box::new(|| Arc::new(ShmTransport::new().expect("a temp dir"))),
            ),
            (
                "uds",
                Box::new(|| Arc::new(NetTransport::new().expect("a temp dir"))),
            ),
        ];
        for (label, medium) in &media {
            let mut best = 0.0f64;
            let mut blocked = 0u64;
            let mut reactions = 0u64;
            for _ in 0..3 {
                let mut deployment = design.deploy_derived().expect("the pipeline is verified");
                deployment.set_transport(medium());
                deployment.feed("p0", stream.iter().copied());
                let outcome = deployment.run().expect("the deployment runs");
                let stats = outcome.stats();
                blocked += stats.total_blocked_reads();
                reactions += stats.total_reactions();
                if let Some(rps) = stats.reactions_per_second() {
                    best = best.max(rps);
                }
            }
            let mut probe = design.deploy_derived().expect("the pipeline is verified");
            probe.set_transport(medium());
            let max_edge_occupancy = probe_max_occupancy(probe, "p0", &stream);
            rows.push(ReportRow {
                name: format!("pipe{components}/{label}/derived"),
                topology: "buffer-pipeline".into(),
                components,
                backend: label,
                mode: "thread",
                reactions_per_second: best,
                predicted_reactions_per_input: predicted,
                blocked_read_ratio: if reactions == 0 {
                    0.0
                } else {
                    blocked as f64 / reactions as f64
                },
                max_edge_occupancy,
            });
        }

        // A genuinely partitioned run: the same pipeline split
        // `[0,0,1,1]`, its halves running concurrently and exchanging the
        // cut signal over a real socket via the partition runner — the
        // cross-process row.  Throughput is merged reactions over the
        // slowest partition's wall clock.
        let partition_plan = plan(&design, &[0, 0, 1, 1]).expect("the pipeline partitions");
        let mut feeds: BTreeMap<Name, Vec<Value>> = BTreeMap::new();
        feeds.insert(Name::from("p0"), stream.clone());
        let dir = std::env::temp_dir().join(format!("gals-e13-partitioned-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a temp dir");
        let mut best = 0.0f64;
        for _ in 0..3 {
            let reports: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..partition_plan.processes())
                    .map(|process| {
                        let (design, partition_plan, feeds, dir) =
                            (&design, &partition_plan, &feeds, &dir);
                        scope.spawn(move || {
                            let links = UdsLinks::new(dir);
                            run_partition(design, partition_plan, process, &links, feeds)
                                .expect("the partition runs")
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("partition thread"))
                    .collect()
            });
            let merged = MergedStats::merge(reports).expect("the cut flows agree");
            let elapsed = merged
                .reports
                .iter()
                .map(|r| r.elapsed_micros)
                .max()
                .unwrap_or(0)
                .max(1);
            best = best.max(merged.total_reactions() as f64 * 1_000_000.0 / elapsed as f64);
        }
        let _ = std::fs::remove_dir_all(&dir);
        rows.push(ReportRow {
            name: format!("pipe{components}/partitioned/uds"),
            topology: "buffer-pipeline/2-partitions".into(),
            components,
            backend: "uds",
            mode: "partitioned",
            reactions_per_second: best,
            predicted_reactions_per_input: predicted,
            // Partition reports carry per-component reaction counts but no
            // blocked-read counters; the ratio is not observable here.
            blocked_read_ratio: 0.0,
            max_edge_occupancy: None,
        });
    }

    // Interpreter vs compiled step machines — the bare step loop first
    // (pure per-reaction machine cost: no threads, no channels), then the
    // deployed pipeline where hand-off costs dilute the difference.  The
    // bare rows are where the compile-don't-interpret payoff shows.
    for pairs in [1usize, 4, 8] {
        let (program, feeds) = chain_machine_workload(pairs, 4 * STREAM_LEN);
        for (label, kind) in [
            ("interpreted", MachineKind::Interpreted),
            ("compiled", MachineKind::Compiled),
        ] {
            let mut best = 0.0f64;
            for _ in 0..3 {
                let start = std::time::Instant::now();
                let steps = step_loop(kind, &program, &feeds);
                let elapsed = start.elapsed().as_secs_f64().max(1e-9);
                assert!(steps > 0);
                best = best.max(steps as f64 / elapsed);
            }
            rows.push(ReportRow {
                name: format!("step/chain{pairs}/{label}"),
                topology: "single-machine".into(),
                components: 1,
                backend: "none",
                mode: label,
                reactions_per_second: best,
                predicted_reactions_per_input: None,
                blocked_read_ratio: 0.0,
                max_edge_occupancy: None,
            });
        }
    }
    {
        let components = 4usize;
        let design = library::buffer_pipeline_design(components).expect("the pipeline composes");
        let predicted = design
            .performance_prediction()
            .ok()
            .map(|p| p.reactions_per_input());
        for (label, kind) in [
            ("interpreted", MachineKind::Interpreted),
            ("compiled", MachineKind::Compiled),
        ] {
            let mut best = 0.0f64;
            let mut blocked = 0u64;
            let mut reactions = 0u64;
            for _ in 0..3 {
                let mut deployment = design
                    .deploy_derived_with(kind)
                    .expect("the pipeline is verified");
                deployment.set_backend(Backend::SpscRing);
                deployment.feed("p0", stream.iter().copied());
                let outcome = deployment.run().expect("the deployment runs");
                let stats = outcome.stats();
                blocked += stats.total_blocked_reads();
                reactions += stats.total_reactions();
                if let Some(rps) = stats.reactions_per_second() {
                    best = best.max(rps);
                }
            }
            rows.push(ReportRow {
                name: format!("pipe{components}/ring/derived/{label}"),
                topology: "buffer-pipeline".into(),
                components,
                backend: "ring",
                mode: label,
                reactions_per_second: best,
                predicted_reactions_per_input: predicted,
                blocked_read_ratio: if reactions == 0 {
                    0.0
                } else {
                    blocked as f64 / reactions as f64
                },
                max_edge_occupancy: None,
            });
        }
    }

    // Multi-tenant serving: many copies of the verified 2-stage pipeline
    // admitted to one shared `gals-serve` pool, each with its own
    // streams, stats and conformance — the aggregate throughput of the
    // serving layer.  Contrast with the `pipeN/...` rows above, where a
    // dedicated deployment owns all its threads: here 64 tenants share
    // `available_parallelism` workers and admission has priced every one
    // of them from the clock calculus beforehand.
    {
        use gals_serve::{Server, ServerOptions};
        let components = 2usize;
        let design = library::buffer_pipeline_design(components).expect("the pipeline composes");
        let predicted = design
            .performance_prediction()
            .ok()
            .map(|p| p.reactions_per_input());
        for tenants in [8usize, 64] {
            let mut best = 0.0f64;
            let mut blocked = 0u64;
            let mut reactions_sum = 0u64;
            for _ in 0..3 {
                let server = Server::start(ServerOptions::per_core()).expect("the pool starts");
                let start = std::time::Instant::now();
                let mut handles: Vec<_> = (0..tenants)
                    .map(|t| server.admit(format!("t{t}"), &design).expect("fits"))
                    .collect();
                // Round-robin chunked ingress with interleaved egress
                // polling — the serving usage pattern.  Feeding a whole
                // stream per tenant without consuming outputs would wedge
                // once a stream outgrows ingress + in-flight + egress
                // capacity: the client side of the backpressure loop is
                // part of the protocol, not an optimization.
                const CHUNK: usize = 32;
                for chunk in stream.chunks(CHUNK) {
                    for handle in handles.iter_mut() {
                        handle
                            .feed("p0", chunk.iter().copied())
                            .expect("p0 is an environment input");
                        let _ = handle.poll_outputs();
                    }
                }
                let mut reactions = 0u64;
                for handle in handles {
                    let outcome = handle
                        .finish(std::time::Duration::from_secs(60))
                        .expect("every tenant drains");
                    let stats = outcome.stats();
                    blocked += stats.total_blocked_reads();
                    reactions += stats.total_reactions();
                }
                let elapsed = start.elapsed().as_secs_f64().max(1e-9);
                reactions_sum += reactions;
                best = best.max(reactions as f64 / elapsed);
            }
            rows.push(ReportRow {
                name: format!("serve{tenants}x/pipe{components}/shared-pool"),
                topology: "buffer-pipeline/multi-tenant".into(),
                components: tenants * components,
                backend: "auto",
                mode: "serve",
                // Per environment token *per tenant*: each admitted
                // pipeline keeps its own prediction, which is what the
                // server's admission priced.
                predicted_reactions_per_input: predicted,
                reactions_per_second: best,
                blocked_read_ratio: if reactions_sum == 0 {
                    0.0
                } else {
                    blocked as f64 / reactions_sum as f64
                },
                max_edge_occupancy: None,
            });
        }
    }

    // Relay shapes under the work-stealing pool.
    for (shape, build, env) in [
        ("pipeline", pipeline_shape as fn(usize) -> Deployment, "s0"),
        ("fan", fan_shape as fn(usize) -> Deployment, "in"),
    ] {
        for components in [8usize, 64] {
            let mut best = 0.0f64;
            let mut blocked = 0u64;
            let mut reactions = 0u64;
            for _ in 0..3 {
                let mut deployment = build(components);
                deployment
                    .set_execution_mode(ExecutionMode::pool_per_core())
                    .expect("valid mode");
                deployment.set_capacity(16).expect("nonzero");
                deployment.feed(env, stream.iter().copied());
                let outcome = deployment.run().expect("the deployment runs");
                let stats = outcome.stats();
                blocked += stats.total_blocked_reads();
                reactions += stats.total_reactions();
                if let Some(rps) = stats.reactions_per_second() {
                    best = best.max(rps);
                }
            }
            // The occupancy probe pins the ring transport: the default
            // mpsc channel cannot witness instantaneous occupancy.
            let mut probe = build(components);
            probe
                .set_execution_mode(ExecutionMode::pool_per_core())
                .expect("valid mode");
            probe.set_capacity(16).expect("nonzero");
            probe.set_backend(Backend::SpscRing);
            let max_edge_occupancy = probe_max_occupancy(probe, env, &stream);
            rows.push(ReportRow {
                name: format!("{shape}{components}/pool"),
                topology: format!("relay-{shape}"),
                components,
                backend: "auto",
                mode: "pool",
                reactions_per_second: best,
                // Relay machines sit outside the clock calculus, but their
                // rate is analytic all the same: every relay (and the fan's
                // collector) performs exactly one reaction per environment
                // token — `bench_schedulers` asserts exactly that total.
                predicted_reactions_per_input: Some(components as f64),
                blocked_read_ratio: if reactions == 0 {
                    0.0
                } else {
                    blocked as f64 / reactions as f64
                },
                max_edge_occupancy,
            });
        }
    }

    let mut json = String::from("{\n  \"benchmark\": \"e13_gals_throughput\",\n");
    json.push_str(&format!("  \"stream_len\": {STREAM_LEN},\n"));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let predicted = row
            .predicted_reactions_per_input
            .map_or("null".into(), |p| format!("{p:.2}"));
        let occupancy = row
            .max_edge_occupancy
            .map_or("null".into(), |o| o.to_string());
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"topology\": \"{}\", \"components\": {}, \
             \"backend\": \"{}\", \"mode\": \"{}\", \"reactions_per_second\": {:.0}, \
             \"predicted_reactions_per_input\": {}, \"blocked_read_ratio\": {:.4}, \
             \"max_edge_occupancy\": {}}}{}\n",
            row.name,
            row.topology,
            row.components,
            row.backend,
            row.mode,
            row.reactions_per_second,
            predicted,
            row.blocked_read_ratio,
            occupancy,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e13.json");
    std::fs::write(path, &json).expect("writable workspace root");
    println!("wrote {} ({} rows)", path, rows.len());
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_backends, bench_schedulers, bench_derived_sizing,
        bench_machine_kinds, emit_machine_readable_report
}
criterion_main!(benches);
