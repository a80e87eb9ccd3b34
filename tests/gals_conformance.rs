//! End-to-end dynamic isochrony: every weakly hierarchic composition
//! reachable from `signal_lang::stdlib` is deployed on the worker pool
//! with bounded channels, and the observed flows must equal the
//! synchronous reference replay — Theorem 1 as an executable test (the
//! conformance checker of `gals_rt`).
//!
//! Every scenario runs under **both** schedules of the shared `MODES` —
//! a 2-worker work-stealing pool (fewer workers than components for
//! every multi-component design) with a batched quantum and with a
//! quantum of 1 — and must observe the same synchronous flows under
//! each.  Every edge is a slot of the island its two ends run in.

mod support;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use polychrony::codegen::CompiledRuntime;
use polychrony::gals_rt::{
    CapacityRange, DeployError, Deployment, DeploymentOutcome, ExecutionMode, StepFault,
    StepMachine, StopReason,
};
use polychrony::isochron::{design::chain_of_pairs, library, Design};
use polychrony::moc::{Name, Value};
use support::{bools, ints, MODES};

/// Deploys the verified design with every feed applied, at the given
/// hand-picked channel capacity (`deploy_unchecked` + `set_capacity`),
/// under **both** schedules; asserts the conformance verdict of each run,
/// and returns the last outcome — Theorem 1's isochrony is
/// scheduler-agnostic, so both must observe the synchronous flows.
fn assert_conformant(
    design: &Design,
    feeds: &[(&str, Vec<Value>)],
    capacity: usize,
) -> DeploymentOutcome {
    // The release-mode stress lane sets GALS_TRACE_DIR: every run is then
    // traced, and a failing interleaving leaves its timeline behind as the
    // repro artifact.
    let trace_dir = std::env::var_os("GALS_TRACE_DIR");
    assert!(design.is_weakly_hierarchic(), "{}", design.verdict());
    let mut outcomes = Vec::new();
    for mode in MODES {
        let mut deployment: Deployment = design.deploy_unchecked();
        deployment.set_execution_mode(mode).expect("valid mode");
        deployment.set_capacity(capacity).expect("nonzero");
        deployment.set_tracing(trace_dir.is_some());
        for (signal, values) in feeds {
            deployment.feed(*signal, values.iter().copied());
        }
        let outcome = deployment.run().expect("the deployment runs");
        let stats = outcome.stats();
        // Token conservation: a token is counted sent when it enters a
        // channel and received when it leaves, so the receiving side can
        // never lead (a component stopping early only strands tokens,
        // leaving the sent side ahead).
        assert!(
            stats.total_tokens_received() <= stats.total_tokens(),
            "{} ({mode}, capacity {capacity}): received more tokens than were \
             sent\nstats:\n{stats}",
            design.name()
        );
        let report = outcome.check_conformance().expect("reference registered");
        if !report.is_isochronous() {
            let saved = trace_dir.as_ref().and_then(|dir| {
                let trace = outcome.trace()?;
                let stem = format!("{}-{mode}-cap{capacity}", design.name())
                    .replace(|c: char| !c.is_ascii_alphanumeric() && c != '-', "_");
                let file = std::path::Path::new(dir).join(format!("{stem}.trace.json"));
                std::fs::create_dir_all(dir).ok()?;
                std::fs::write(&file, trace.to_chrome_json()).ok()?;
                Some(file)
            });
            panic!(
                "{} ({mode}, capacity {capacity}): {report}\nstats:\n{}\ntrace: {}",
                design.name(),
                outcome.stats(),
                saved
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| "not captured (set GALS_TRACE_DIR)".into())
            );
        }
        outcomes.push(outcome);
    }
    let reference = outcomes[0].flows().clone();
    for outcome in &outcomes[1..] {
        assert_eq!(
            outcome.flows(),
            &reference,
            "{} (capacity {capacity}): the execution modes observed different flows",
            design.name()
        );
    }
    outcomes.pop().expect("one outcome per mode")
}

#[test]
fn producer_consumer_conforms_at_every_capacity() {
    let design = library::producer_consumer_design().unwrap();
    let feeds = [
        (
            "a",
            bools(&[true, false, false, true, false, true, true, false]),
        ),
        (
            "b",
            bools(&[false, true, true, false, true, false, false, true]),
        ),
    ];
    for capacity in [1usize, 4, 64] {
        let outcome = assert_conformant(&design, &feeds, capacity);
        assert_eq!(
            outcome
                .flow("v")
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 2, 4, 5, 8, 9, 10, 14]
        );
    }
}

#[test]
fn filter_merge_conforms() {
    let design = library::filter_merge_design().unwrap();
    let feeds = [
        ("y", bools(&[true, false, false, true])),
        ("c", bools(&[false, true, true, false])),
        ("z", bools(&[true, false])),
    ];
    for capacity in [1usize, 16] {
        let outcome = assert_conformant(&design, &feeds, capacity);
        // d = z1, x1, x2, z2 = 1 1 1 0 as in Section 1 of the paper.
        assert_eq!(
            outcome.flow("d"),
            bools(&[true, true, true, false]).as_slice()
        );
    }
}

#[test]
fn the_ltta_deploys_four_components_on_four_threads() {
    let design = library::ltta_design().unwrap();
    assert_eq!(design.components().len(), 4);
    let feeds = [
        ("xw", ints(1..=8)),
        ("cw", bools(&[true; 48])),
        ("cr", bools(&[true; 48])),
    ];
    for capacity in [1usize, 16] {
        let outcome = assert_conformant(&design, &feeds, capacity);
        // One component per device.
        assert_eq!(outcome.stats().components.len(), 4);
        // The alternating-bit protocol delivered fresh values end to end.
        let xr = outcome.flow("xr");
        assert!(
            !xr.is_empty(),
            "nothing crossed the bus:\n{}",
            outcome.stats()
        );
    }
}

#[test]
fn a_single_component_design_deploys_trivially() {
    let design = library::buffer_design().unwrap();
    let feeds = [("y", bools(&[true, false, true]))];
    let outcome = assert_conformant(&design, &feeds, 1);
    assert_eq!(outcome.flow("x"), bools(&[true, false, true]).as_slice());
    assert_eq!(outcome.stats().channels, 0);
}

#[test]
fn a_buffer_pipeline_conforms_and_preserves_the_stream() {
    let stream = [true, false, true, true, false, false, true, false];
    // n = 8 puts four times as many components as pool workers on the
    // scheduler: the 2-worker pool must still observe the synchronous
    // flows.
    for n in [2usize, 4, 8] {
        let design = library::buffer_pipeline_design(n).expect("builds");
        assert!(design.is_weakly_hierarchic(), "{}", design.verdict());
        let feeds = [("p0", bools(&stream))];
        for capacity in [1usize, 16] {
            let outcome = assert_conformant(&design, &feeds, capacity);
            assert_eq!(outcome.stats().components.len(), n);
            // The pipeline is a FIFO: the last stage re-emits the stream.
            assert_eq!(
                outcome.flow(&format!("p{n}")),
                bools(&stream).as_slice(),
                "pipe{n} capacity {capacity}"
            );
        }
    }
}

#[test]
fn a_chain_of_pairs_deploys_every_pair_in_parallel() {
    let design = Design::compose("chain2", chain_of_pairs(2)).expect("builds");
    assert_eq!(design.components().len(), 4);
    let a = bools(&[true, false, true, false, true]);
    let b = bools(&[false, true, false, true, false]);
    let feeds = [("a0", a.clone()), ("b0", b.clone()), ("a1", a), ("b1", b)];
    let outcome = assert_conformant(&design, &feeds, 4);
    assert_eq!(outcome.stats().components.len(), 4);
    for pair in 0..2 {
        assert_eq!(
            outcome
                .flow(&format!("v{pair}"))
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 5, 6]
        );
    }
}

#[test]
fn zero_channel_capacities_are_rejected_with_a_typed_error() {
    // Regression: a zero capacity used to be silently altered instead of
    // rejected; a rendezvous channel would deadlock the worker loop, so
    // the API must say no.
    let design = library::producer_consumer_design().unwrap();
    let mut deployment = design.deploy_unchecked();
    assert!(matches!(
        deployment.set_capacity(0),
        Err(DeployError::ZeroCapacity(None))
    ));
    assert!(matches!(
        deployment.set_channel_capacity("x", 0),
        Err(DeployError::ZeroCapacity(Some(ref n))) if n.as_str() == "x"
    ));
    // The deployment survives the refusals and still runs (and conforms)
    // with the untouched policy.
    deployment.feed("a", [true, false, true]);
    deployment.feed("b", [false, true, false]);
    let outcome = deployment.run().expect("still runs");
    assert_eq!(outcome.stats().capacity, CapacityRange::exactly(1));
    let report = outcome.check_conformance().expect("reference registered");
    assert!(report.is_isochronous(), "{report}");
}

#[test]
fn the_pool_records_its_scheduling_counters() {
    // 8 verified components on 2 pool workers: the run must complete on
    // exactly 2 OS threads, report the pool mode, see every component
    // react and account at least one dispatch of their one island — while
    // still conforming.
    let design = library::buffer_pipeline_design(8).expect("builds");
    let mut deployment = design.deploy_derived().expect("verified");
    let mode = ExecutionMode::Pool {
        workers: 2,
        quantum: 4,
    };
    deployment.set_execution_mode(mode).expect("valid mode");
    deployment.feed("p0", (0..16).map(|i| Value::Bool(i % 2 == 0)));
    let outcome = deployment.run().expect("runs");
    let stats = outcome.stats();
    assert_eq!(stats.mode, mode);
    assert_eq!(stats.components.len(), 8);
    assert_eq!(stats.pool_workers.len(), 2);
    assert!(
        stats.components.iter().all(|c| c.reactions > 0),
        "every component reacted:\n{stats}"
    );
    assert!(
        stats.total_dispatches() >= 1,
        "the island was dispatched:\n{stats}"
    );
    let report = outcome.check_conformance().expect("reference registered");
    assert!(report.is_isochronous(), "{report}");
}

#[test]
fn backpressure_is_observable_at_capacity_one() {
    // With a one-place channel and a consumer that asks late, the producer
    // must block: the counters expose it.
    let design = library::producer_consumer_design().unwrap();
    let mut deployment = design.deploy_unchecked();
    deployment.set_capacity(1).expect("nonzero");
    // Many producer tokens early, consumer pulls late.
    deployment.feed("a", [false, false, false, false, false, false]);
    deployment.feed("b", [true, true, true, true, true, true]);
    let outcome = deployment.run().unwrap();
    let stats = outcome.stats();
    assert_eq!(stats.capacity, CapacityRange::exactly(1));
    assert_eq!(stats.components[1].tokens_received, 6);
    assert_eq!(
        stats.components[0].stop,
        StopReason::EnvironmentExhausted("a".into())
    );
    let report = outcome.check_conformance().unwrap();
    assert!(report.is_isochronous(), "{report}");
}

#[test]
fn clean_runs_exchange_exactly_as_many_tokens_as_they_send() {
    // On a drain-complete run — every consumer keeps reading its channels
    // until the producers close — "tokens exchanged" is one number:
    // what was sent is what was received.  The pipelines and the
    // producer/consumer pair drain completely (each consumer's stop is
    // observing its upstream close, or its pacing stream and the channel
    // run dry together), so sent == received must hold exactly, per run,
    // under every mode.
    type Scenario = (Design, Vec<(&'static str, Vec<Value>)>);
    let scenarios: Vec<Scenario> = vec![
        (
            library::producer_consumer_design().unwrap(),
            vec![
                (
                    "a",
                    bools(&[true, false, false, true, false, true, true, false]),
                ),
                (
                    "b",
                    bools(&[false, true, true, false, true, false, false, true]),
                ),
            ],
        ),
        (
            library::buffer_pipeline_design(4).unwrap(),
            vec![("p0", bools(&[true, false, true, true, false, false]))],
        ),
    ];
    for (design, feeds) in &scenarios {
        for mode in MODES {
            let mut deployment = design.deploy_derived().expect("verified");
            deployment.set_execution_mode(mode).expect("valid mode");
            for (signal, values) in feeds {
                deployment.feed(*signal, values.iter().copied());
            }
            let outcome = deployment.run().expect("runs");
            let stats = outcome.stats();
            assert_eq!(
                stats.total_tokens(),
                stats.total_tokens_received(),
                "{} ({mode}): tokens stranded in a channel\n{stats}",
                design.name()
            );
        }
    }
}

#[test]
fn derived_capacities_conform_across_modes() {
    // The capacity-derivation story on the stdlib designs: every edge
    // gets a clock-derived bound and both execution modes still observe
    // the synchronous flows — the hand-tuned capacity knob
    // replaced by an artifact of the verification, with no loss of
    // conformance.
    use polychrony::gals_rt::CapacitySource;
    type Scenario = (Design, Vec<(&'static str, Vec<Value>)>);
    let scenarios: Vec<Scenario> = vec![
        (
            library::producer_consumer_design().unwrap(),
            vec![
                ("a", bools(&[true, false, false, true, false, true])),
                ("b", bools(&[false, true, true, false, true, false])),
            ],
        ),
        (
            library::buffer_pipeline_design(4).unwrap(),
            vec![("p0", bools(&[true, false, true, true, false, false]))],
        ),
        (
            library::ltta_design().unwrap(),
            vec![
                ("xw", ints(1..=6)),
                ("cw", bools(&[true; 36])),
                ("cr", bools(&[true; 36])),
            ],
        ),
    ];
    for (design, feeds) in &scenarios {
        for mode in MODES {
            let mut deployment = design.deploy_derived().expect("verified design");
            deployment.set_execution_mode(mode).expect("valid mode");
            for (signal, values) in feeds {
                deployment.feed(*signal, values.iter().copied());
            }
            let outcome = deployment.run().expect("the deployment runs");
            let stats = outcome.stats();
            for edge in &stats.edges {
                assert_eq!(
                    edge.source,
                    CapacitySource::Derived,
                    "{}: {}",
                    design.name(),
                    edge.signal
                );
                assert!(edge.derivation.is_some());
            }
            for component in &stats.components {
                assert_ne!(component.stop, StopReason::Deadlocked);
            }
            let report = outcome.check_conformance().expect("reference registered");
            assert!(
                report.is_isochronous(),
                "{} ({mode}): {report}",
                design.name()
            );
        }
    }
}

/// A compiled machine that counts the steps refused on it, forwarding
/// everything else, its demand included.
struct CountingRefusals {
    inner: CompiledRuntime,
    refusals: Arc<AtomicU64>,
}

impl StepMachine for CountingRefusals {
    fn machine_name(&self) -> &str {
        self.inner.machine_name()
    }
    fn input_signals(&self) -> Vec<Name> {
        StepMachine::input_signals(&self.inner)
    }
    fn output_signals(&self) -> Vec<Name> {
        StepMachine::output_signals(&self.inner)
    }
    fn feed(&mut self, port: usize, value: Value) {
        StepMachine::feed(&mut self.inner, port, value);
    }
    fn try_step(&mut self) -> Result<(), StepFault> {
        let step = self.inner.try_step();
        if step.is_err() {
            self.refusals.fetch_add(1, Ordering::Relaxed);
        }
        step
    }
    fn output(&self, port: usize) -> &[Value] {
        StepMachine::output(&self.inner, port)
    }
    fn demand(&self) -> Option<usize> {
        self.inner.demand()
    }
}

#[test]
fn a_compiled_pipe8_token_pays_no_refused_step_in_its_island() {
    // Every stage's read mode names its read before the attempt, so the
    // driver takes the token first and the read is never refused: only
    // the ends of the streams are.  Without the demand, each of the 7
    // channel reads refused once per token.
    const TOKENS: usize = 4_000;
    let design = library::buffer_pipeline_design(8).unwrap();
    let refusals = Arc::new(AtomicU64::new(0));
    let mut deployment = Deployment::new();
    for component in design.components() {
        deployment.add_machine(Box::new(CountingRefusals {
            inner: component.compiled_runtime(),
            refusals: Arc::clone(&refusals),
        }));
    }
    deployment.set_capacity_analysis(&design.capacity_analysis().expect("bounded"));
    deployment
        .set_execution_mode(ExecutionMode::Pool {
            workers: 2,
            quantum: 32,
        })
        .expect("valid mode");
    let stream: Vec<Value> = (0..TOKENS).map(|i| Value::Bool(i % 3 == 0)).collect();
    deployment.feed("p0", stream.iter().copied());
    let outcome = deployment.run().expect("runs");
    assert_eq!(outcome.flow("p8"), stream.as_slice());
    let stats = outcome.stats();
    assert_eq!(stats.edges.len(), 7);
    assert_eq!(stats.total_reactions(), 16 * TOKENS as u64);
    let refused = refusals.load(Ordering::Relaxed);
    assert!(
        refused * 100 < TOKENS as u64,
        "{refused} refused steps for {TOKENS} tokens\n{stats}"
    );
}
