//! The GALS deployment runtime end to end: build a pipeline of one-place
//! buffers, verify the weak-hierarchy criterion, deploy the stages on the
//! worker pool with bounded channels, and check dynamic isochrony
//! conformance against the synchronous reference.
//!
//! Each stage runs as a compiled step machine, and each channel is a
//! bounded slot of the island the stages run in.  The first run picks the
//! capacities by hand (`Design::deploy_unchecked`, a default capacity plus
//! per-signal overrides) — the resolved per-edge capacity is reported by
//! `topology()`.
//!
//! Capacities need not be hand-tuned at all: `Design::deploy_derived`
//! sizes every channel from the clock calculus — the same relations that
//! prove the design isochronous bound its FIFOs, each edge reporting the
//! provenance of its bound — and installs the static performance
//! prediction.
//!
//! The pool is the one executor, and its shape is selectable:
//! `ExecutionMode::Pool { workers, quantum }` multiplexes every stage onto
//! `workers` OS threads (one per core by default), and each dispatch
//! sweeps the connected stages — one island — up to `quantum` reactions
//! per stage, so a deployment of hundreds of components still runs on a
//! handful of threads.
//!
//! ```text
//! cargo run --example deploy
//! ```

use polychrony::gals_rt::ExecutionMode;
use polychrony::isochron::library;
use polychrony::moc::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A four-stage pipeline: stage i reads p{i} and writes p{i+1}.
    let design = library::buffer_pipeline_design(4)?;
    println!("== Static criterion (Definition 12 / Theorem 1) ==");
    println!("{}", design.verdict());

    // Deploy on the default pool (one worker per core), bounded channels
    // in between, at hand-picked capacities: a default capacity, with the
    // p2 channel deepened specifically.
    assert!(design.is_weakly_hierarchic());
    let mut deployment = design.deploy_unchecked();
    deployment.set_capacity(8)?;
    deployment.set_channel_capacity("p2", 32)?;

    println!("== Channel topology (policy resolved per edge) ==");
    for spec in &deployment.topology()?.channels {
        println!(
            "  {} -> {}  signal {:<3} capacity {:>3} ({})",
            spec.producer, spec.consumer, spec.signal, spec.capacity, spec.source
        );
    }

    let stream: Vec<Value> = (0..16).map(|i| Value::Bool(i % 3 != 1)).collect();
    deployment.feed("p0", stream.iter().copied());
    let outcome = deployment.run()?;

    println!("== Deployment ==");
    println!("{}", outcome.stats());
    println!("fed      p0 = {:?}", stream);
    println!("received p4 = {:?}", outcome.flow("p4"));

    // Dynamic isochrony: the deployed flows must equal the synchronous
    // reference replay (Theorem 1, observed).
    let report = outcome.check_conformance()?;
    println!("== Conformance ==");
    println!("{report}");
    assert!(report.is_isochronous());

    // Isochrony is scheduler-agnostic: the same four stages on a
    // 2-worker pool that re-queues their island after every single
    // reaction observe the same flows again.  The stats record the pool's
    // shape and the per-worker dispatch/steal counters.
    let mut pooled = design.deploy_derived()?;
    pooled.set_execution_mode(ExecutionMode::Pool {
        workers: 2,
        quantum: 1,
    })?;
    pooled.feed("p0", stream.iter().copied());
    let pooled_outcome = pooled.run()?;
    assert_eq!(pooled_outcome.flow("p4"), outcome.flow("p4"));
    println!("== Pool scheduler ==");
    println!("{}", pooled_outcome.stats());
    assert!(pooled_outcome.check_conformance()?.is_isochronous());

    // The capacities above were hand-tuned (8, with p2 deepened to 32).
    // The clock calculus can derive them instead: every edge of the
    // verified pipeline is provably a one-place buffer — the same
    // relations that prove isochrony bound the FIFOs, each edge reporting
    // its bound and why.
    let mut derived = design.deploy_derived()?;
    println!("== Derived capacities (Design::deploy_derived) ==");
    for spec in &derived.topology()?.channels {
        println!(
            "  signal {:<3} capacity {} ({}) — {}",
            spec.signal,
            spec.capacity,
            spec.source,
            spec.derivation.as_deref().unwrap_or("-")
        );
    }
    // The same clock words also predict the run before it starts: each
    // stage's steady-state reactions per input token, the per-edge
    // traffic, the pipeline-fill latency and the bottleneck edge.
    // `deploy_derived` installed the prediction on the deployment, which
    // carries it into the stats, so predicted and measured paces print
    // side by side.
    let prediction = design.performance_prediction()?;
    println!("== Static performance prediction ==");
    println!("{prediction}");
    // Tracing records every reaction, blocking episode and token hand-off
    // into per-component and per-worker bounded buffers (zero cost when
    // off), merged into a timeline at join.
    derived.set_tracing(true);
    derived.feed("p0", stream.iter().copied());
    let derived_outcome = derived.run()?;
    assert_eq!(derived_outcome.flow("p4"), outcome.flow("p4"));
    assert!(derived_outcome.check_conformance()?.is_isochronous());
    println!("{}", derived_outcome.stats());

    // The merged trace summarizes busy/blocked time, per-edge occupancy
    // high-water marks against the derived bounds, and ranks bottlenecks;
    // the drift report diffs the measured run against the prediction edge
    // by edge; and the full timeline exports as Chrome trace-event JSON —
    // load trace.json in Perfetto (https://ui.perfetto.dev) or
    // chrome://tracing to see every reaction and blocking episode.
    let trace = derived_outcome.trace().expect("tracing was enabled");
    println!("== Trace ==");
    println!("{}", trace.summary());
    println!("{}", trace.drift_report(&prediction, stream.len() as u64));
    std::fs::write("trace.json", trace.to_chrome_json())?;
    println!("wrote trace.json ({} events)", trace.summary().events);
    Ok(())
}
