//! `gals-rt` — a multi-threaded GALS deployment runtime for verified
//! designs.
//!
//! The paper's central claim (Theorem 1) is that a design passing the
//! static weak-hierarchy check can be compiled **separately per component
//! and executed asynchronously** with no loss of synchronous semantics.
//! This crate is the execution half of that claim at production shape:
//!
//! * a [`Deployment`] builder that assembles separately compiled
//!   components ([`StepMachine`]s), derives the channel topology from
//!   their interfaces, and runs the components on a **fixed pool of
//!   worker threads** ([`sched`]) — the one executor, the same scheduler a
//!   [`SharedPool`] uses to host many deployments at once;
//! * **bounded** FIFO channels with backpressure (a component facing a
//!   full or empty channel yields its worker and is woken when the edge
//!   moves; no step ever blocks) — the finite-buffer refinement of the
//!   paper's unbounded-FIFO asynchronous model (`^` [`sim::AsyncNetwork`]);
//! * **island-owned channels**: an edge between two components of one
//!   pool island is a plain bounded slot the island owns
//!   ([`ISLAND_MEDIUM`]), read and written by index without atomics;
//! * a **pluggable transport layer** ([`Transport`] minting
//!   [`TokenTx`]/[`TokenRx`] endpoint pairs) for what crosses threads — a
//!   named medium's edges, a served tenant's ingress and egress — whose
//!   built-in medium is a **lock-free SPSC ring buffer** ([`ring`]), and
//!   a [`ChannelPolicy`] for per-signal capacities;
//! * per-component counters (reactions, blocked reads, tokens) aggregated
//!   into a [`DeploymentStats`] report;
//! * a dynamic **isochrony conformance checker**
//!   ([`DeploymentOutcome::check_conformance`]) that replays the same
//!   environment streams through the synchronous reference interpreter and
//!   asserts flow equality — Theorem 1 as an executable end-to-end test at
//!   arbitrary component counts.
//!
//! The crate is machine-agnostic: `codegen::CompiledRuntime` implements
//! [`StepMachine`] (so generated step programs deploy directly), and
//! `isochron::Design::deploy` assembles a ready-to-run deployment from a
//! verified design, reference kernels and activations included.
//!
//! # Example
//!
//! Deploying two hand-rolled machines (a counter and a doubler) on the
//! pool, connected by a bounded channel:
//!
//! ```
//! use gals_rt::{Deployment, StepFault, StepMachine};
//! use signal_lang::{Name, Value};
//!
//! struct Count { ticks: Vec<Value>, out: Vec<Value> }
//! impl StepMachine for Count {
//!     fn machine_name(&self) -> &str { "count" }
//!     fn input_signals(&self) -> Vec<Name> { vec![Name::from("tick")] }
//!     fn output_signals(&self) -> Vec<Name> { vec![Name::from("n")] }
//!     fn feed(&mut self, _port: usize, value: Value) { self.ticks.push(value); }
//!     fn try_step(&mut self) -> Result<(), StepFault> {
//!         if self.ticks.is_empty() {
//!             return Err(StepFault::NeedInput(0)); // port 0: `tick`
//!         }
//!         self.ticks.remove(0);
//!         self.out.push(Value::Int(self.out.len() as i64 + 1));
//!         Ok(())
//!     }
//!     fn output(&self, _port: usize) -> &[Value] { &self.out }
//! }
//!
//! struct Double { queue: Vec<Value>, out: Vec<Value> }
//! impl StepMachine for Double {
//!     fn machine_name(&self) -> &str { "double" }
//!     fn input_signals(&self) -> Vec<Name> { vec![Name::from("n")] }
//!     fn output_signals(&self) -> Vec<Name> { vec![Name::from("d")] }
//!     fn feed(&mut self, _port: usize, value: Value) { self.queue.push(value); }
//!     fn try_step(&mut self) -> Result<(), StepFault> {
//!         if self.queue.is_empty() {
//!             return Err(StepFault::NeedInput(0)); // port 0: `n`
//!         }
//!         let n = self.queue.remove(0).as_int().unwrap();
//!         self.out.push(Value::Int(2 * n));
//!         Ok(())
//!     }
//!     fn output(&self, _port: usize) -> &[Value] { &self.out }
//! }
//!
//! let mut deployment = Deployment::new();
//! deployment.add_machine(Box::new(Count { ticks: vec![], out: vec![] }));
//! deployment.add_machine(Box::new(Double { queue: vec![], out: vec![] }));
//! deployment.feed("tick", [true, true, true]);
//! let outcome = deployment.run()?;
//! assert_eq!(outcome.flow("d"), &[Value::Int(2), Value::Int(4), Value::Int(6)]);
//! assert_eq!(outcome.stats().total_reactions(), 6);
//! # Ok::<(), gals_rt::DeployError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod conformance;
pub mod deploy;
pub mod machine;
pub mod predict;
pub mod ring;
pub mod sched;
pub mod stats;
pub mod trace;
pub mod transport;
mod worker;

pub use capacity::{CapacityAnalysis, DerivedCapacity, EdgeClocks, UnprimedCycle};
pub use conformance::{replay_reference, ConformanceError, ConformanceReport, ReferenceComponent};
pub use deploy::{
    ChannelSpec, DeployError, Deployment, DeploymentOutcome, StagedDeployment, Topology,
    DEFAULT_MAX_STEPS, DEFAULT_STREAM_CAPACITY, ISLAND_MEDIUM,
};
pub use machine::{StepFault, StepMachine};
pub use predict::{ComponentPrediction, EdgePrediction, PerformancePrediction};
pub use ring::{RingReceiver, RingSender, RingTransport};
pub use sched::{
    DrainError, ExecutionMode, PoolOptions, SharedPool, SubmitOptions, SubmittedDeployment,
};
pub use stats::{CapacityRange, ComponentStats, DeploymentStats, PoolWorkerStats, StopReason};
pub use trace::{
    BlockDirection, ComponentActivity, ComponentDrift, ComponentTrace, DriftReport, EdgeBlocking,
    EdgeDrift, EdgeOccupancy, Trace, TraceConfig, TraceEvent, TraceRecord, TraceSummary,
};
pub use transport::{
    CapacitySource, ChannelClosed, ChannelPolicy, ChannelSizing, Endpoints, ResolvedCapacity,
    TokenRx, TokenTx, Transport, TransportError, TryRecvError, TrySendError,
};

#[cfg(test)]
mod tests {
    use super::*;
    use signal_lang::{Name, Value};
    use std::time::Duration;

    /// A machine that consumes one token of `input` per step and emits the
    /// running sum on `output`.
    struct Summer {
        name: String,
        input: Name,
        output: Name,
        queue: std::collections::VecDeque<Value>,
        produced: Vec<Value>,
        sum: i64,
    }

    impl Summer {
        fn new(name: &str, input: &str, output: &str) -> Self {
            Summer {
                name: name.into(),
                input: Name::from(input),
                output: Name::from(output),
                queue: std::collections::VecDeque::new(),
                produced: Vec::new(),
                sum: 0,
            }
        }
    }

    impl StepMachine for Summer {
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
            let Some(value) = self.queue.pop_front() else {
                return Err(StepFault::NeedInput(0));
            };
            let v = value.as_int().unwrap_or(0);
            self.sum += v;
            self.produced.push(Value::Int(self.sum));
            Ok(())
        }
        fn output(&self, _port: usize) -> &[Value] {
            &self.produced
        }
    }

    fn pipeline(n: usize) -> Deployment {
        let mut deployment = Deployment::new();
        for i in 0..n {
            let input = if i == 0 {
                "s0".to_string()
            } else {
                format!("s{i}")
            };
            let output = format!("s{}", i + 1);
            deployment.add_machine(Box::new(Summer::new(&format!("stage{i}"), &input, &output)));
        }
        deployment
    }

    #[test]
    fn a_pipeline_of_eight_stages_runs_on_eight_threads() {
        for capacity in [1usize, 4, 64] {
            let mut deployment = pipeline(8);
            deployment.set_capacity(capacity).expect("nonzero");
            deployment.feed("s0", (1..=32).map(Value::Int));
            let outcome = deployment.run().expect("runs");
            // Each stage performed 32 reactions.
            assert_eq!(outcome.stats().total_reactions(), 8 * 32);
            assert_eq!(outcome.stats().components.len(), 8);
            // Prefix sums applied 8 times: the final flow is deterministic
            // whatever the interleaving and the capacity.
            let last = outcome.flow("s8");
            assert_eq!(last.len(), 32);
            let got: Vec<i64> = last.iter().map(|v| v.as_int().unwrap()).collect();
            assert_eq!(got, pipeline_reference(8, 32), "capacity {capacity}");
        }
    }

    /// A [`Summer`] that counts the steps refused on it in a shared
    /// counter.
    struct CountingRefusals {
        inner: Summer,
        refusals: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl StepMachine for CountingRefusals {
        fn machine_name(&self) -> &str {
            self.inner.machine_name()
        }
        fn input_signals(&self) -> Vec<Name> {
            self.inner.input_signals()
        }
        fn output_signals(&self) -> Vec<Name> {
            self.inner.output_signals()
        }
        fn feed(&mut self, port: usize, value: Value) {
            self.inner.feed(port, value);
        }
        fn try_step(&mut self) -> Result<(), StepFault> {
            let step = self.inner.try_step();
            if step.is_err() {
                self.refusals
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            step
        }
        fn output(&self, port: usize) -> &[Value] {
            self.inner.output(port)
        }
    }

    #[test]
    fn a_pooled_pipeline_refuses_each_read_at_most_once() {
        // A refused step suspends its reaction; the driver steps the
        // machine again only with the awaited token in hand.  So every
        // refusal but each component's last is followed by a received
        // token, however often the island's sweeps re-drive a member
        // whose edge is still empty.
        let refusals = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut deployment = Deployment::new();
        for i in 0..8 {
            deployment.add_machine(Box::new(CountingRefusals {
                inner: Summer::new(
                    &format!("stage{i}"),
                    &format!("s{i}"),
                    &format!("s{}", i + 1),
                ),
                refusals: std::sync::Arc::clone(&refusals),
            }));
        }
        deployment
            .set_execution_mode(ExecutionMode::Pool {
                workers: 2,
                quantum: 32,
            })
            .expect("valid mode");
        deployment.set_capacity(1).expect("nonzero");
        deployment.feed("s0", (1..=256).map(Value::Int));
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.flow("s8").len(), 256);
        let stats = outcome.stats();
        let received: u64 = stats.components.iter().map(|c| c.tokens_received).sum();
        let refused = refusals.load(std::sync::atomic::Ordering::Relaxed);
        assert!(
            refused <= received + stats.components.len() as u64,
            "{refused} refused steps for {received} received tokens"
        );
    }

    #[test]
    fn topology_derivation_finds_channels_and_environment() {
        let deployment = pipeline(3);
        let topology = deployment.topology().expect("well-formed");
        assert_eq!(topology.channels.len(), 2);
        assert_eq!(topology.environment, vec![Name::from("s0")]);
        assert_eq!(
            topology.channels[0],
            ChannelSpec {
                signal: Name::from("s1"),
                producer: 0,
                consumer: 1,
                capacity: 1,
                source: CapacitySource::Default,
                derivation: None,
                backend: ISLAND_MEDIUM,
            }
        );
        assert!(!topology.has_cycle());
        assert!(topology.cycle_signals().is_empty());
    }

    #[test]
    fn the_policy_resolution_is_reported_per_edge() {
        let mut deployment = pipeline(3);
        deployment.set_capacity(8).expect("nonzero");
        deployment.set_channel_capacity("s2", 2).expect("nonzero");
        let topology = deployment.topology().expect("well-formed");
        let by_signal: std::collections::BTreeMap<_, _> = topology
            .channels
            .iter()
            .map(|c| (c.signal.as_str().to_string(), (c.capacity, c.backend)))
            .collect();
        assert_eq!(by_signal["s1"], (8, ISLAND_MEDIUM));
        assert_eq!(by_signal["s2"], (2, ISLAND_MEDIUM));
    }

    #[test]
    fn only_a_named_medium_turns_island_edges_into_endpoints() {
        // Without `set_transport` every edge is a slot of its island; a
        // named medium, even the ring, carries every edge and is what the
        // stats report.
        let mut deployment = pipeline(4);
        let topology = deployment.topology().expect("well-formed");
        assert_eq!(topology.channels.len(), 3);
        assert!(topology.channels.iter().all(|c| c.backend == ISLAND_MEDIUM));
        deployment.feed("s0", (1..=8).map(Value::Int));
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.stats().backend, ISLAND_MEDIUM);

        let mut deployment = pipeline(4);
        deployment.set_transport(std::sync::Arc::new(RingTransport));
        let topology = deployment.topology().expect("well-formed");
        assert!(topology
            .channels
            .iter()
            .all(|c| c.backend == RingTransport::NAME));
        deployment.feed("s0", (1..=8).map(Value::Int));
        let ringed = deployment.run().expect("runs");
        assert_eq!(ringed.stats().backend, RingTransport::NAME);
        assert_eq!(ringed.flows(), outcome.flows());
    }

    #[test]
    fn zero_capacities_are_rejected_not_clamped() {
        // Regression: capacity 0 used to thread straight into the channel
        // constructor (a rendezvous that deadlocks the worker loop); it
        // must be a typed error instead.
        let mut deployment = pipeline(2);
        assert_eq!(
            deployment.set_capacity(0).unwrap_err(),
            DeployError::ZeroCapacity(None)
        );
        assert_eq!(
            deployment.set_channel_capacity("s1", 0).unwrap_err(),
            DeployError::ZeroCapacity(Some(Name::from("s1")))
        );
        // The rejected sets left the policy untouched and the deployment
        // fully runnable.
        assert_eq!(deployment.capacity(), 1);
        deployment.feed("s0", (1..=4).map(Value::Int));
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.flow("s2").len(), 4);
    }

    #[test]
    fn a_custom_transport_carries_every_channel() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// A transport that counts how many channels it minted and at what
        /// capacity, delegating the actual medium to the ring.
        #[derive(Debug, Default)]
        struct Counting {
            opened: AtomicUsize,
            total_capacity: AtomicUsize,
        }
        impl Transport for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn open(
                &self,
                capacity: usize,
            ) -> Result<transport::Endpoints, transport::TransportError> {
                self.opened.fetch_add(1, Ordering::Relaxed);
                self.total_capacity.fetch_add(capacity, Ordering::Relaxed);
                RingTransport.open(capacity)
            }
        }

        let transport = std::sync::Arc::new(Counting::default());
        let mut deployment = pipeline(4);
        deployment.set_transport(transport.clone());
        deployment.set_capacity(3).expect("nonzero");
        assert_eq!(
            deployment.topology().expect("well-formed").channels[0].backend,
            "counting"
        );
        deployment.feed("s0", (1..=8).map(Value::Int));
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.stats().backend, "counting");
        assert_eq!(transport.opened.load(Ordering::Relaxed), 3);
        assert_eq!(transport.total_capacity.load(Ordering::Relaxed), 9);
        assert_eq!(outcome.flow("s4").len(), 8);
    }

    #[test]
    fn cyclic_topologies_are_refused_instead_of_deadlocking() {
        // a reads q and writes p; b reads p and writes q: with blocking
        // bounded channels both workers would wait on each other forever,
        // so the run is refused up front.
        let mut deployment = Deployment::new();
        deployment.add_machine(Box::new(Summer::new("a", "q", "p")));
        deployment.add_machine(Box::new(Summer::new("b", "p", "q")));
        assert!(deployment.topology().expect("well-formed").has_cycle());
        assert_eq!(deployment.run().unwrap_err(), DeployError::CyclicTopology);
    }

    #[test]
    fn duplicate_producers_are_rejected() {
        let mut deployment = Deployment::new();
        deployment.add_machine(Box::new(Summer::new("a", "i", "o")));
        deployment.add_machine(Box::new(Summer::new("b", "j", "o")));
        assert_eq!(
            deployment.topology().unwrap_err(),
            DeployError::DuplicateProducer(Name::from("o"))
        );
        assert!(deployment.run().is_err());
    }

    #[test]
    fn feeding_an_internal_or_unknown_signal_is_rejected() {
        let mut deployment = pipeline(2);
        deployment.feed("s1", [Value::Int(1)]);
        assert_eq!(
            deployment.run().unwrap_err(),
            DeployError::FedInternalSignal(Name::from("s1"))
        );
        let mut deployment = pipeline(2);
        deployment.feed("nosuch", [Value::Int(1)]);
        assert_eq!(
            deployment.run().unwrap_err(),
            DeployError::UnknownFeed(Name::from("nosuch"))
        );
        let empty = Deployment::new();
        assert_eq!(empty.run().unwrap_err(), DeployError::Empty);
    }

    #[test]
    fn stats_record_backpressure_and_stop_reasons() {
        let mut deployment = pipeline(2);
        deployment.set_capacity(1).expect("nonzero");
        deployment.feed("s0", (1..=8).map(Value::Int));
        let outcome = deployment.run().expect("runs");
        let stats = outcome.stats();
        assert_eq!(stats.capacity, CapacityRange::exactly(1));
        assert_eq!(stats.channels, 1);
        // Stage 0 drained its environment stream; stage 1 stopped when the
        // upstream channel closed.
        assert_eq!(
            stats.components[0].stop,
            StopReason::EnvironmentExhausted(Name::from("s0"))
        );
        assert_eq!(
            stats.components[1].stop,
            StopReason::UpstreamClosed(Name::from("s1"))
        );
        assert_eq!(stats.components[0].tokens_sent, 8);
        assert_eq!(stats.components[1].tokens_received, 8);
        // A read only counts as blocked when the buffer was actually empty,
        // so the counter never exceeds the tokens received (plus the final
        // wait that observed the close).
        assert!(stats.components[1].blocked_reads <= stats.components[1].tokens_received + 1);
    }

    #[test]
    fn the_step_budget_stops_runaway_machines() {
        /// A machine that reacts forever without consuming anything.
        struct Spinner {
            produced: Vec<Value>,
        }
        impl StepMachine for Spinner {
            fn machine_name(&self) -> &str {
                "spinner"
            }
            fn input_signals(&self) -> Vec<Name> {
                Vec::new()
            }
            fn output_signals(&self) -> Vec<Name> {
                vec![Name::from("z")]
            }
            fn feed(&mut self, _port: usize, _value: Value) {}
            fn try_step(&mut self) -> Result<(), StepFault> {
                self.produced.push(Value::Bool(true));
                Ok(())
            }
            fn output(&self, _port: usize) -> &[Value] {
                &self.produced
            }
        }
        let mut deployment = Deployment::new();
        deployment.set_max_steps(100).expect("nonzero");
        deployment.add_machine(Box::new(Spinner {
            produced: Vec::new(),
        }));
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.stats().components[0].reactions, 100);
        assert_eq!(outcome.stats().components[0].stop, StopReason::StepLimit);
    }

    #[test]
    fn a_zero_step_budget_is_rejected_not_an_instant_empty_success() {
        // Regression: `set_max_steps(0)` used to make every worker exit
        // immediately with `StepLimit` and the run "succeeded" with empty
        // flows.
        let mut deployment = pipeline(2);
        assert_eq!(
            deployment.set_max_steps(0).unwrap_err(),
            DeployError::ZeroMaxSteps
        );
        // The rejected set left the budget untouched and the deployment
        // fully runnable.
        deployment.feed("s0", (1..=4).map(Value::Int));
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.flow("s2").len(), 4);
        assert_eq!(outcome.stats().total_reactions(), 8);
    }

    #[test]
    fn paced_marks_must_name_environment_inputs() {
        // Regression: `mark_paced` used to accept any name silently, so a
        // typo skewed the conformance replay instead of failing fast.
        let mut deployment = pipeline(2);
        deployment.mark_paced("nosuch");
        deployment.feed("s0", [Value::Int(1)]);
        assert_eq!(
            deployment.run().unwrap_err(),
            DeployError::UnknownPaced(Name::from("nosuch"))
        );
        // An internal (channel-fed) signal is not an environment input
        // either.
        let mut deployment = pipeline(2);
        deployment.mark_paced("s1");
        deployment.feed("s0", [Value::Int(1)]);
        assert_eq!(
            deployment.run().unwrap_err(),
            DeployError::UnknownPaced(Name::from("s1"))
        );
    }

    #[test]
    fn stats_report_the_true_per_edge_capacity_range() {
        // Regression: the stats used to report the policy *default* even
        // when per-signal overrides made edges differ.
        let mut deployment = pipeline(3);
        deployment.set_capacity(8).expect("nonzero");
        deployment.set_channel_capacity("s2", 2).expect("nonzero");
        deployment.feed("s0", (1..=4).map(Value::Int));
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.stats().capacity, CapacityRange { min: 2, max: 8 });
        assert!(outcome.stats().to_string().contains("capacity 2..8"));
        // A single-component deployment has no channel at all: the range
        // is 0, not the policy default.
        let mut deployment = pipeline(1);
        deployment.set_capacity(64).expect("nonzero");
        deployment.feed("s0", [Value::Int(1)]);
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.stats().capacity, CapacityRange::exactly(0));
    }

    #[test]
    fn invalid_pool_modes_are_rejected() {
        let mut deployment = pipeline(2);
        assert_eq!(
            deployment
                .set_execution_mode(ExecutionMode::Pool {
                    workers: 0,
                    quantum: 1,
                })
                .unwrap_err(),
            DeployError::ZeroPoolWorkers
        );
        assert_eq!(
            deployment
                .set_execution_mode(ExecutionMode::Pool {
                    workers: 1,
                    quantum: 0,
                })
                .unwrap_err(),
            DeployError::ZeroQuantum
        );
        // The rejected modes left the deployment in the default mode.
        assert_eq!(deployment.execution_mode(), ExecutionMode::pool_per_core());
    }

    #[test]
    fn a_two_worker_pool_runs_eight_components_with_identical_flows() {
        // The scheduler's point: fewer OS threads than components, same
        // flows as the default pool, whatever the quantum or the
        // capacity.
        let reference = {
            let mut deployment = pipeline(8);
            deployment.feed("s0", (1..=32).map(Value::Int));
            deployment.run().expect("runs").flow("s8").to_vec()
        };
        for quantum in [1u64, 3, 64] {
            for capacity in [1usize, 4] {
                let mut deployment = pipeline(8);
                deployment
                    .set_execution_mode(ExecutionMode::Pool {
                        workers: 2,
                        quantum,
                    })
                    .expect("valid mode");
                deployment.set_capacity(capacity).expect("nonzero");
                deployment.feed("s0", (1..=32).map(Value::Int));
                let outcome = deployment.run().expect("runs");
                let stats = outcome.stats();
                assert_eq!(
                    outcome.flow("s8"),
                    reference.as_slice(),
                    "quantum {quantum} capacity {capacity}"
                );
                assert_eq!(stats.total_reactions(), 8 * 32);
                // The run was scheduled by the configured pool.
                assert_eq!(
                    stats.mode,
                    ExecutionMode::Pool {
                        workers: 2,
                        quantum,
                    }
                );
                assert_eq!(stats.pool_workers.len(), 2);
                // One island holds all eight components, so one dispatch
                // may run them all.
                assert!(
                    stats.components.iter().all(|c| c.reactions > 0),
                    "every component reacted"
                );
                assert!(stats.total_dispatches() >= 1);
            }
        }
    }

    #[test]
    fn a_connected_pipeline_runs_as_one_island_with_fewer_dispatches_than_tokens() {
        // The eight stages form one island: a dispatch sweeps them all, up
        // to a quantum per stage, so the run needs fewer dispatches than
        // it moves tokens.
        let mut deployment = pipeline(8);
        deployment
            .set_execution_mode(ExecutionMode::Pool {
                workers: 2,
                quantum: 32,
            })
            .expect("valid mode");
        deployment.feed("s0", (1..=256).map(Value::Int));
        let outcome = deployment.run().expect("runs");
        let got: Vec<i64> = outcome
            .flow("s8")
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(got, pipeline_reference(8, 256));
        let dispatches = outcome.stats().total_dispatches();
        assert!(
            (1..256).contains(&dispatches),
            "{dispatches} dispatches for 256 tokens"
        );
    }

    #[test]
    fn a_lone_island_stays_on_its_worker_while_the_other_waits() {
        // The island yields onto its own worker's empty heap, which bumps
        // no epoch: the other worker, hot or parked, is not told, and a
        // park that times out does not pop.  Only the start-up race, both
        // workers reaching for the first entry, can move the island.
        const TOKENS: usize = 64_000;
        let mut deployment = pipeline(8);
        deployment
            .set_execution_mode(ExecutionMode::Pool {
                workers: 2,
                quantum: 32,
            })
            .expect("valid mode");
        deployment.feed("s0", std::iter::repeat_n(Value::Int(0), TOKENS));
        let outcome = deployment.run().expect("runs");
        assert_eq!(outcome.flow("s8").len(), TOKENS);
        let stats = outcome.stats();
        let (dispatches, steals) = (stats.total_dispatches(), stats.total_steals());
        assert!(dispatches >= 1_000, "{dispatches} dispatches");
        assert!(
            steals * 1_000 <= dispatches,
            "{steals} steals in {dispatches} dispatches"
        );
    }

    /// A machine that joins two input streams, emitting the sum of one
    /// token from each — the fan-in end of a diamond.
    struct Join {
        name: String,
        inputs: [Name; 2],
        queues: [Vec<Value>; 2],
        output: Name,
        produced: Vec<Value>,
    }

    impl StepMachine for Join {
        fn machine_name(&self) -> &str {
            &self.name
        }
        fn input_signals(&self) -> Vec<Name> {
            self.inputs.to_vec()
        }
        fn output_signals(&self) -> Vec<Name> {
            vec![self.output.clone()]
        }
        fn feed(&mut self, port: usize, value: Value) {
            self.queues[port].push(value);
        }
        fn try_step(&mut self) -> Result<(), StepFault> {
            if let Some(port) = self.queues.iter().position(Vec::is_empty) {
                return Err(StepFault::NeedInput(port));
            }
            let a = self.queues[0].remove(0).as_int().unwrap_or(0);
            let b = self.queues[1].remove(0).as_int().unwrap_or(0);
            self.produced.push(Value::Int(a + b));
            Ok(())
        }
        fn output(&self, _port: usize) -> &[Value] {
            &self.produced
        }
    }

    /// Fan-out/fan-in diamond: a source broadcasts `x` to two summers,
    /// whose outputs a `Join` recombines.  Exercises the multi-consumer
    /// broadcast publish (and its partial-progress resume in pool mode).
    fn diamond() -> Deployment {
        let mut deployment = Deployment::new();
        deployment.add_machine(Box::new(Summer::new("source", "in", "x")));
        deployment.add_machine(Box::new(Summer::new("left", "x", "l")));
        deployment.add_machine(Box::new(Summer::new("right", "x", "r")));
        deployment.add_machine(Box::new(Join {
            name: "join".into(),
            inputs: [Name::from("l"), Name::from("r")],
            queues: [Vec::new(), Vec::new()],
            output: Name::from("out"),
            produced: Vec::new(),
        }));
        deployment
    }

    #[test]
    fn a_fan_out_fan_in_diamond_conforms_across_modes() {
        let reference = {
            let mut deployment = diamond();
            deployment.feed("in", (1..=16).map(Value::Int));
            deployment.run().expect("runs").flow("out").to_vec()
        };
        assert_eq!(reference.len(), 16);
        for workers in [1usize, 2, 3] {
            for quantum in [1u64, 5] {
                let mut deployment = diamond();
                deployment
                    .set_execution_mode(ExecutionMode::Pool { workers, quantum })
                    .expect("valid mode");
                deployment.set_capacity(1).expect("nonzero");
                deployment.feed("in", (1..=16).map(Value::Int));
                let outcome = deployment.run().expect("runs");
                assert_eq!(
                    outcome.flow("out"),
                    reference.as_slice(),
                    "workers {workers} quantum {quantum}"
                );
                assert_eq!(outcome.stats().pool_workers.len(), workers);
            }
        }
    }

    /// A machine that consumes one env token per step and emits a stamp
    /// from a shared global sequence — the dispatch order of two such
    /// machines is visible in their produced flows.
    struct Stamper {
        name: String,
        input: Name,
        queue: Vec<Value>,
        produced: Vec<Value>,
        sequence: std::sync::Arc<std::sync::atomic::AtomicI64>,
    }

    impl StepMachine for Stamper {
        fn machine_name(&self) -> &str {
            &self.name
        }
        fn input_signals(&self) -> Vec<Name> {
            vec![self.input.clone()]
        }
        fn output_signals(&self) -> Vec<Name> {
            vec![Name::from(format!("{}_out", self.name).as_str())]
        }
        fn feed(&mut self, _port: usize, value: Value) {
            self.queue.push(value);
        }
        fn try_step(&mut self) -> Result<(), StepFault> {
            if self.queue.is_empty() {
                return Err(StepFault::NeedInput(0));
            }
            self.queue.remove(0);
            let stamp = self
                .sequence
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.produced.push(Value::Int(stamp));
            Ok(())
        }
        fn output(&self, _port: usize) -> &[Value] {
            &self.produced
        }
    }

    #[test]
    fn a_quantum_yield_round_robins_the_deque_instead_of_starving_it() {
        // Regression: a yielded component used to be re-queued where its
        // worker popped next, so a single worker re-dispatched the same
        // component until its stream was exhausted and its ready siblings
        // starved.  With two independent components on
        // one worker at quantum 1, fair scheduling interleaves their
        // global stamps; starvation would give one component an entirely
        // smaller stamp range than the other.
        let sequence = std::sync::Arc::new(std::sync::atomic::AtomicI64::new(0));
        let mut deployment = Deployment::new();
        for name in ["a", "b"] {
            deployment.add_machine(Box::new(Stamper {
                name: name.into(),
                input: Name::from(format!("{name}_in").as_str()),
                queue: Vec::new(),
                produced: Vec::new(),
                sequence: std::sync::Arc::clone(&sequence),
            }));
        }
        deployment
            .set_execution_mode(ExecutionMode::Pool {
                workers: 1,
                quantum: 1,
            })
            .expect("valid mode");
        deployment.feed("a_in", (0..16).map(Value::Int));
        deployment.feed("b_in", (0..16).map(Value::Int));
        let outcome = deployment.run().expect("runs");
        let stamps = |signal: &str| -> Vec<i64> {
            outcome
                .flow(signal)
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect()
        };
        let a = stamps("a_out");
        let b = stamps("b_out");
        assert_eq!(a.len(), 16);
        assert_eq!(b.len(), 16);
        let ranges_overlap = a.iter().min() < b.iter().max() && b.iter().min() < a.iter().max();
        assert!(
            ranges_overlap,
            "one component ran to completion before the other was ever \
             dispatched: a = {a:?}, b = {b:?}"
        );
    }

    #[test]
    fn the_pool_detects_a_communication_deadlock_instead_of_hanging() {
        // a reads q and writes p; b reads p and writes q.  Nothing is ever
        // fed, so both block immediately and for good (which is why cycles
        // must be explicitly allowed); the pool scheduler proves the
        // all-blocked state terminal and stops instead of hanging.
        let mut deployment = Deployment::new();
        deployment.add_machine(Box::new(Summer::new("a", "q", "p")));
        deployment.add_machine(Box::new(Summer::new("b", "p", "q")));
        deployment.set_allow_cycles(true);
        deployment
            .set_execution_mode(ExecutionMode::Pool {
                workers: 2,
                quantum: 4,
            })
            .expect("valid mode");
        let outcome = deployment.run().expect("terminates");
        for component in &outcome.stats().components {
            assert_eq!(component.stop, StopReason::Deadlocked);
            assert_eq!(component.reactions, 0);
        }
    }

    #[test]
    fn a_deadlocked_cycle_stops_alone_beside_a_live_pipeline() {
        // Quiescence is judged per group, after the last dispatch: the
        // unfed a <-> b cycle is finalized, the pipeline beside it runs
        // out its stream.
        for workers in [1usize, 2, 3] {
            let mut deployment = pipeline(2);
            deployment.add_machine(Box::new(Summer::new("a", "q", "p")));
            deployment.add_machine(Box::new(Summer::new("b", "p", "q")));
            deployment.set_allow_cycles(true);
            deployment
                .set_execution_mode(ExecutionMode::Pool {
                    workers,
                    quantum: 4,
                })
                .expect("valid mode");
            deployment.feed("s0", (1..=64).map(Value::Int));
            let outcome = deployment.run().expect("terminates");
            for component in &outcome.stats().components {
                let cyclic = component.name == "a" || component.name == "b";
                assert_eq!(
                    component.stop == StopReason::Deadlocked,
                    cyclic,
                    "workers {workers}: {component}"
                );
            }
            assert_eq!(outcome.flow("s2").len(), 64, "workers {workers}");
        }
    }

    #[test]
    fn placing_a_group_never_makes_it_look_deadlocked() {
        // A cell can be dispatched and block before its peers are queued;
        // its group must not look out of work until placement is over.
        for round in 0..200 {
            let mut deployment = pipeline(8);
            deployment
                .set_execution_mode(ExecutionMode::Pool {
                    workers: 4,
                    quantum: 1,
                })
                .expect("valid mode");
            deployment.feed("s0", (1..=8).map(Value::Int));
            let outcome = deployment.run().expect("runs");
            for component in &outcome.stats().components {
                assert_ne!(
                    component.stop,
                    StopReason::Deadlocked,
                    "round {round}: {component}"
                );
            }
            let got: Vec<i64> = outcome
                .flow("s8")
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect();
            assert_eq!(got, pipeline_reference(8, 8), "round {round}");
        }
    }

    /// A [`Summer`] whose third step panics: a machine bug.
    struct Panicky {
        inner: Summer,
        steps: u32,
    }

    impl StepMachine for Panicky {
        fn machine_name(&self) -> &str {
            self.inner.machine_name()
        }
        fn input_signals(&self) -> Vec<Name> {
            self.inner.input_signals()
        }
        fn output_signals(&self) -> Vec<Name> {
            self.inner.output_signals()
        }
        fn feed(&mut self, port: usize, value: Value) {
            self.inner.feed(port, value);
        }
        fn try_step(&mut self) -> Result<(), StepFault> {
            self.steps += 1;
            assert!(self.steps < 3, "machine bug");
            self.inner.try_step()
        }
        fn output(&self, port: usize) -> &[Value] {
            self.inner.output(port)
        }
    }

    /// `in -> a -> b -> c -> out`, where `a` panics on its third step.
    fn panicking_pipeline() -> Deployment {
        let mut deployment = Deployment::new();
        deployment.add_machine(Box::new(Panicky {
            inner: Summer::new("a", "in", "b"),
            steps: 0,
        }));
        deployment.add_machine(Box::new(Summer::new("c", "b", "out")));
        deployment
    }

    /// Runs [`panicking_pipeline`] under `mode` and checks that the panic
    /// ended the run as a fault of `a` alone.  A watchdog thread makes a
    /// hang or a re-panic fail the test instead of stalling the suite.
    fn assert_a_machine_panic_is_a_fault(mode: ExecutionMode) {
        let mut deployment = panicking_pipeline();
        deployment.set_execution_mode(mode).expect("valid mode");
        deployment.feed("in", (1..=8).map(Value::Int));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(deployment.run());
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("{mode}: the run never returned ({e})"))
            .expect("runs");
        let stops: Vec<String> = outcome
            .stats()
            .components
            .iter()
            .map(|c| c.stop.to_string())
            .collect();
        assert_eq!(
            stops,
            [
                "fault: machine panicked: machine bug",
                "upstream of b closed"
            ],
            "{mode}"
        );
        // The two tokens published before the panic were delivered.
        assert_eq!(outcome.flow("out").len(), 2, "{mode}");
    }

    #[test]
    fn a_panicking_machine_ends_a_pool_run_with_a_fault() {
        assert_a_machine_panic_is_a_fault(ExecutionMode::Pool {
            workers: 2,
            quantum: 4,
        });
    }

    #[test]
    fn conformance_without_a_reference_is_an_error() {
        let mut deployment = pipeline(1);
        deployment.feed("s0", [Value::Int(1)]);
        let outcome = deployment.run().expect("runs");
        assert_eq!(
            outcome.check_conformance().unwrap_err(),
            ConformanceError::NoReference
        );
    }

    /// The prefix-sum reference of `pipeline(n)` on `1..=len`.
    fn pipeline_reference(stages: usize, len: i64) -> Vec<i64> {
        let mut values: Vec<i64> = (1..=len).collect();
        for _ in 0..stages {
            let mut sum = 0;
            for v in values.iter_mut() {
                sum += *v;
                *v = sum;
            }
        }
        values
    }

    #[test]
    fn shared_pool_hosts_many_tenants_with_isolated_outcomes() {
        let pool = SharedPool::start(PoolOptions::new(3, 8)).expect("pool");
        let mut handles = Vec::new();
        for tenant in 0..12i64 {
            let staged = pipeline(3).stage().expect("stages");
            let mut handle = pool.submit(staged, &SubmitOptions::default());
            // Distinct streams per tenant prove the flows never bleed
            // across deployments sharing the pool.
            handle
                .feed("s0", (1..=8).map(|v| Value::Int(v + tenant)))
                .expect("env input");
            handles.push(handle);
        }
        for (tenant, handle) in handles.into_iter().enumerate() {
            let outcome = handle
                .drain(Duration::from_secs(20))
                .expect("tenant finishes");
            assert_eq!(outcome.stats().components.len(), 3);
            assert_eq!(outcome.stats().total_reactions(), 3 * 8);
            let mut values: Vec<i64> = (1..=8).map(|v| v + tenant as i64).collect();
            for _ in 0..3 {
                let mut sum = 0;
                for v in values.iter_mut() {
                    sum += *v;
                    *v = sum;
                }
            }
            let got: Vec<i64> = outcome
                .flow("s3")
                .iter()
                .map(|v| v.as_int().unwrap_or(0))
                .collect();
            assert_eq!(got, values, "tenant {tenant}");
        }
        pool.shutdown();
    }

    #[test]
    fn shared_pool_streaming_matches_the_batch_run() {
        let pool = SharedPool::start(PoolOptions::new(2, 4)).expect("pool");
        let staged = pipeline(4).stage().expect("stages");
        let mut handle = pool.submit(staged, &SubmitOptions::default());
        let mut polled: Vec<Value> = Vec::new();
        // Feed in small bursts, polling between them: streaming ingress
        // and incremental egress consumption.
        for chunk in (1..=32i64).collect::<Vec<_>>().chunks(5) {
            handle
                .feed("s0", chunk.iter().copied().map(Value::Int))
                .expect("env input");
            polled.extend(
                handle
                    .poll_outputs()
                    .remove(&Name::from("s4"))
                    .unwrap_or_default(),
            );
        }
        let outcome = handle.drain(Duration::from_secs(20)).expect("finishes");
        let reference = pipeline_reference(4, 32);
        let got: Vec<i64> = outcome
            .flow("s4")
            .iter()
            .map(|v| v.as_int().unwrap_or(0))
            .collect();
        assert_eq!(got, reference, "final flows carry every produced token");
        // Whatever was polled mid-run is a prefix of the final flow.
        let polled: Vec<i64> = polled.iter().map(|v| v.as_int().unwrap_or(0)).collect();
        assert_eq!(polled, reference[..polled.len()], "polling is lossless");
        // The ingress close surfaced as the normal end of the stream.
        assert!(outcome
            .stats()
            .components
            .iter()
            .any(|c| matches!(c.stop, StopReason::EnvironmentExhausted(_))));
        pool.shutdown();
    }

    #[test]
    fn priorities_let_a_critical_tenant_overtake_batch_tenants() {
        // One worker and a paused pool make the schedule deterministic:
        // everything is ready before the first dispatch, so completion
        // order is purely the priority order.
        let mut options = PoolOptions::new(1, 4);
        options.paused = true;
        let pool = SharedPool::start(options).expect("pool");
        let mut batch = Vec::new();
        for _ in 0..4 {
            let staged = pipeline(2).stage().expect("stages");
            let mut handle = pool.submit(staged, &SubmitOptions::default());
            handle
                .feed("s0", (1..=16).map(Value::Int))
                .expect("env input");
            handle.close_inputs();
            batch.push(handle);
        }
        // Submitted last, finishes first: priority beats submission order.
        let staged = pipeline(2).stage().expect("stages");
        let critical_options = SubmitOptions { base_priority: 10 };
        let mut critical = pool.submit(staged, &critical_options);
        critical
            .feed("s0", (1..=16).map(Value::Int))
            .expect("env input");
        critical.close_inputs();
        pool.resume();
        assert!(critical.wait(Duration::from_secs(20)), "critical finishes");
        for handle in &batch {
            assert!(handle.wait(Duration::from_secs(20)), "batch finishes");
        }
        let critical_rank = critical.completion_index().expect("critical rank");
        for handle in &batch {
            let rank = handle.completion_index().expect("batch rank");
            assert!(
                critical_rank < rank,
                "critical tenant (rank {critical_rank}) completes before a \
                 batch tenant (rank {rank}) it was submitted after"
            );
        }
        let outcome = critical.drain(Duration::from_secs(20)).expect("drains");
        assert_eq!(outcome.flow("s2").len(), 16);
        for handle in batch {
            let _ = handle.drain(Duration::from_secs(20)).expect("drains");
        }
        pool.shutdown();
    }

    #[test]
    fn a_drain_timeout_returns_the_handle_intact() {
        let pool = SharedPool::start(PoolOptions::new(2, 4)).expect("pool");
        let staged = pipeline(2).stage().expect("stages");
        let mut handle = pool.submit(staged, &SubmitOptions::default());
        handle.feed("s0", [Value::Int(1)]).expect("env input");
        // Never closing the ingress cannot finish... but drain() closes
        // it, so use a zero timeout to force the refusal path instead.
        let err = handle.drain(Duration::ZERO);
        match err {
            Err(DrainError::Timeout { pending, handle }) => {
                assert!(!pending.is_empty(), "someone is still live");
                // The handle still works: the ingress was closed by the
                // failed drain, so a second drain finishes.
                let outcome = handle
                    .drain(Duration::from_secs(20))
                    .expect("second drain finishes");
                assert_eq!(outcome.flow("s2").len(), 1);
            }
            Ok(outcome) => {
                // The run can legitimately finish within the zero budget
                // on a fast machine; the flows must still be right.
                assert_eq!(outcome.flow("s2").len(), 1);
            }
        }
        pool.shutdown();
    }

    #[test]
    fn feeding_an_unknown_signal_on_a_handle_is_refused() {
        let pool = SharedPool::start(PoolOptions::new(1, 4)).expect("pool");
        let staged = pipeline(2).stage().expect("stages");
        let mut handle = pool.submit(staged, &SubmitOptions::default());
        assert_eq!(
            handle.feed("nope", [Value::Int(1)]).unwrap_err(),
            DeployError::UnknownFeed(Name::from("nope"))
        );
        handle.close_inputs();
        let _ = handle.drain(Duration::from_secs(20)).expect("finishes");
        pool.shutdown();
    }

    #[test]
    fn a_panicking_tenant_faults_without_killing_its_pool_worker() {
        let pool = SharedPool::start(PoolOptions::new(1, 4)).expect("pool");
        let staged = panicking_pipeline().stage().expect("stages");
        let mut faulty = pool.submit(staged, &SubmitOptions::default());
        faulty
            .feed("in", (1..=8).map(Value::Int))
            .expect("env input");
        let outcome = faulty
            .drain(Duration::from_secs(20))
            .expect("the faulty tenant ends");
        assert_eq!(
            outcome.stats().components[0].stop,
            StopReason::Fault("machine panicked: machine bug".into())
        );
        // The pool's only worker survived to serve the next tenant.
        let staged = pipeline(2).stage().expect("stages");
        let mut healthy = pool.submit(staged, &SubmitOptions::default());
        healthy
            .feed("s0", (1..=8).map(Value::Int))
            .expect("env input");
        let outcome = healthy
            .drain(Duration::from_secs(20))
            .expect("the healthy tenant finishes");
        let got: Vec<i64> = outcome
            .flow("s2")
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(got, pipeline_reference(2, 8));
        pool.shutdown();
    }

    #[test]
    fn the_worker_setup_hook_reports_the_pinned_flag() {
        let mut options = PoolOptions::new(2, 4);
        options.worker_setup = Some(std::sync::Arc::new(|worker: usize| worker == 0));
        let pool = SharedPool::start(options).expect("pool");
        let staged = pipeline(2).stage().expect("stages");
        let mut handle = pool.submit(staged, &SubmitOptions::default());
        handle.feed("s0", (1..=4).map(Value::Int)).expect("env");
        let _ = handle.drain(Duration::from_secs(20)).expect("finishes");
        // A worker runs its hook when its thread first gets a CPU, and one
        // worker can run the whole tenant before the other does: wait for
        // worker 0's flag instead of assuming the drain saw both workers.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while !pool.worker_stats()[0].pinned && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let stats = pool.worker_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats[0].pinned, "hook returned true for worker 0");
        assert!(!stats[1].pinned, "hook returned false for worker 1");
        pool.shutdown();
    }

    /// Spins until `done` holds, failing the test with `what` instead of
    /// hanging when it does not hold within 20 s.
    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_pool_paused_while_its_worker_is_hot_parks_and_resumes() {
        let pool = SharedPool::start(PoolOptions::new(1, 4)).expect("pool");
        let parks = || pool.worker_stats()[0].parks;
        let mut first = pool.submit(
            pipeline(2).stage().expect("stages"),
            &SubmitOptions::default(),
        );
        // The tenant's last dispatch runs after this read, so the worker
        // parks after it; once it finished, that dispatch just ended and
        // the worker waits hot.
        let before = parks();
        first.feed("s0", [Value::Int(1)]).expect("env input");
        first.close_inputs();
        wait_until("the first tenant never finished", || first.is_finished());
        pool.pause();
        wait_until("a paused pool's worker kept its core", || parks() > before);
        // A tenant placed while paused wakes the worker, which finds
        // nothing it may pop and parks again: from then on, only the
        // resume can wake it.
        let before = parks();
        let mut second = pool.submit(
            pipeline(2).stage().expect("stages"),
            &SubmitOptions::default(),
        );
        wait_until("the placement did not wake the paused worker", || {
            parks() > before
        });
        second.feed("s0", [Value::Int(2)]).expect("env input");
        pool.resume();
        let outcome = second
            .drain(Duration::from_secs(20))
            .expect("the resume serves the island queued while paused");
        assert_eq!(outcome.flow("s2"), [Value::Int(2)]);
        let outcome = first.drain(Duration::from_secs(20)).expect("finished");
        assert_eq!(outcome.flow("s2"), [Value::Int(1)]);
        pool.shutdown();
    }

    #[test]
    fn dropping_a_pool_whose_worker_is_hot_joins_promptly() {
        let pool = SharedPool::start(PoolOptions::new(1, 4)).expect("pool");
        let staged = pipeline(2).stage().expect("stages");
        let mut handle = pool.submit(staged, &SubmitOptions::default());
        handle.feed("s0", [Value::Int(1)]).expect("env input");
        let outcome = handle.drain(Duration::from_secs(20)).expect("finishes");
        assert_eq!(outcome.flow("s2"), [Value::Int(1)]);
        // The worker just dispatched the tenant's end and waits hot; the
        // shutdown flag ends that wait as it ends a park.
        let (joined, done) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(pool);
            let _ = joined.send(());
        });
        assert!(
            done.recv_timeout(Duration::from_secs(1)).is_ok(),
            "the pool's worker did not join within 1 s"
        );
        dropper.join().expect("dropping the pool does not panic");
    }

    /// A test link: a queue another thread serves as the medium, the
    /// waker the pool handed its endpoint, and the times the pool found it
    /// empty (reading) or without credit (sending).
    #[derive(Clone, Default)]
    struct Link(std::sync::Arc<std::sync::Mutex<LinkState>>);

    #[derive(Default)]
    struct LinkState {
        queue: std::collections::VecDeque<Value>,
        closed: bool,
        credit: usize,
        refusals: usize,
        waker: Option<std::task::Waker>,
    }

    impl Link {
        fn state(&self) -> std::sync::MutexGuard<'_, LinkState> {
            self.0.lock().unwrap()
        }

        /// Waits (bounded) until the pool refused on the link again since
        /// `seen`, and a little longer, so its island is blocked rather
        /// than running; then moves the link with `f` and wakes the island.
        fn serve(&self, seen: &mut usize, f: impl FnOnce(&mut LinkState)) {
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while self.state().refusals <= *seen {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the pool never polled"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(5));
            let mut state = self.state();
            f(&mut state);
            *seen = state.refusals;
            let waker = state.waker.clone().expect("the pool installed a waker");
            drop(state);
            waker.wake();
        }
    }

    impl TokenRx for Link {
        fn recv(&self) -> Result<Value, ChannelClosed> {
            unreachable!("the pool never blocks on a link")
        }
        fn try_recv(&self) -> Result<Value, TryRecvError> {
            let mut state = self.state();
            match state.queue.pop_front() {
                Some(value) => Ok(value),
                None if state.closed => Err(TryRecvError::Closed),
                None => {
                    state.refusals += 1;
                    Err(TryRecvError::Empty)
                }
            }
        }
        fn set_waker(&self, waker: &std::task::Waker) -> bool {
            self.state().waker = Some(waker.clone());
            true
        }
    }

    impl TokenTx for Link {
        fn send(&self, _token: Value) -> Result<(), ChannelClosed> {
            unreachable!("the pool never blocks on a link")
        }
        fn try_send(&self, token: Value) -> Result<(), TrySendError> {
            let mut state = self.state();
            if state.credit == 0 {
                state.refusals += 1;
                return Err(TrySendError::Full);
            }
            state.credit -= 1;
            state.queue.push_back(token);
            Ok(())
        }
        fn set_waker(&self, waker: &std::task::Waker) -> bool {
            self.state().waker = Some(waker.clone());
            true
        }
    }

    /// Runs `deployment`, failing instead of hanging when it does not
    /// return within 20 s: a lost wake parks an open group's island
    /// forever.
    fn run_with_watchdog(deployment: Deployment) -> DeploymentOutcome {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(deployment.run());
        });
        rx.recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("the run never returned: a wake was lost ({e})"))
            .expect("runs")
    }

    #[test]
    fn a_linked_input_fed_after_its_island_blocked_wakes_it() {
        let link = Link::default();
        let mut deployment = pipeline(2);
        deployment.link_input(0, "s0", Box::new(link.clone()));
        let feeder = std::thread::spawn(move || {
            // Each token lands only once the island took the last one and
            // blocked on the empty link again; then the link closes.
            let mut seen = 0;
            for value in 1..=6 {
                link.serve(&mut seen, |state| state.queue.push_back(Value::Int(value)));
            }
            link.serve(&mut seen, |state| state.closed = true);
        });
        let outcome = run_with_watchdog(deployment);
        feeder.join().expect("feeder");
        let got: Vec<i64> = outcome
            .flow("s2")
            .iter()
            .filter_map(|v| v.as_int())
            .collect();
        assert_eq!(got, pipeline_reference(2, 6));
        // The outcome carries the linked signal as received, and the close
        // ended its reader as the end of its environment stream.
        assert_eq!(
            outcome.flow("s0"),
            (1..=6).map(Value::Int).collect::<Vec<_>>()
        );
        assert_eq!(
            outcome.stats().components[0].stop,
            StopReason::EnvironmentExhausted(Name::from("s0"))
        );
    }

    #[test]
    fn a_linked_output_without_credit_resumes_when_its_medium_wakes_it() {
        let link = Link::default();
        let mut deployment = pipeline(2);
        deployment.feed("s0", (1..=8).map(Value::Int));
        deployment.link_output("s2", Box::new(link.clone()));
        let creditor = {
            let link = link.clone();
            // One slot of credit at a time, each only once the producer
            // was refused for the lack of it.
            std::thread::spawn(move || {
                let mut seen = 0;
                for _ in 0..8 {
                    link.serve(&mut seen, |state| state.credit += 1);
                }
            })
        };
        let outcome = run_with_watchdog(deployment);
        creditor.join().expect("creditor");
        let expected: Vec<Value> = pipeline_reference(2, 8)
            .into_iter()
            .map(Value::Int)
            .collect();
        assert_eq!(outcome.flow("s2"), expected.as_slice());
        let delivered: Vec<Value> = link.state().queue.iter().copied().collect();
        assert_eq!(delivered, expected, "every token crossed the link in order");
    }

    #[test]
    fn links_must_name_environment_inputs_and_outputs_and_cannot_be_fed() {
        // An internal signal, and an input of another machine.
        for (machine, signal) in [(1, "s1"), (1, "s0")] {
            let mut deployment = pipeline(2);
            deployment.link_input(machine, signal, Box::new(Link::default()));
            let err = deployment.run().unwrap_err();
            assert_eq!(err, DeployError::UnknownLink(Name::from(signal)));
        }
        let mut deployment = pipeline(2);
        deployment.link_input(0, "s0", Box::new(Link::default()));
        deployment.feed("s0", [Value::Int(1)]);
        let err = deployment.run().unwrap_err();
        assert_eq!(err, DeployError::FedLinkedSignal(Name::from("s0")));
        let mut deployment = pipeline(2);
        deployment.link_output("nope", Box::new(Link::default()));
        let err = deployment.run().unwrap_err();
        assert_eq!(err, DeployError::UnknownLink(Name::from("nope")));
    }
}
