//! The capacity-derivation and cycle-analysis subsystem end to end.
//!
//! The clock calculus that proves a design isochronous also bounds its
//! FIFOs: `Design::capacity_analysis` derives a per-edge capacity from the
//! rate relation between the producer's and consumer's clocks, and
//! `ChannelSizing::Derived` turns the bounds into the deployment's actual
//! channel capacities.  This suite checks the two directions of that
//! claim:
//!
//! * **sufficiency** — a replay with derived capacities never hits
//!   `StopReason::Deadlocked` and conforms to the synchronous reference
//!   (property-tested over generated pipelines and streams);
//! * **tightness-ish** — one below the derived bound is statically
//!   refused: capacity `bound - 1` on a sampled (bound 1) edge is the
//!   rejected zero capacity, and undercutting a feedback edge's derived
//!   bound is `InsufficientFeedbackCapacity`;
//!
//! plus the typed-error boundary: `UnboundedEdge` for edges the calculus
//! cannot bound, `NotVerified` for unverified designs, and the
//! refuse-or-prove cycle analysis (a derivably bounded feedback loop runs
//! to completion without `set_allow_cycles`; an underivable one is
//! refused naming the edge).

mod support;

use polychrony::clocks::RateRelation;
use polychrony::gals_rt::{
    CapacityAnalysis, CapacitySource, ChannelSizing, DeployError, Deployment, DerivedCapacity,
    ExecutionMode, StepFault, StepMachine, StopReason,
};
use polychrony::isochron::{design::chain_of_pairs, library, Design};
use polychrony::moc::Value;
use polychrony::signal_lang::Name;
use proptest::prelude::*;
use support::MODES;

/// The closed half of a feedback loop: consumes one `seed` (environment)
/// and one `q` (feedback) token per reaction and emits the seed on `p`.
struct Ping {
    seeds: Vec<Value>,
    qs: Vec<Value>,
    produced: Vec<Value>,
}

impl StepMachine for Ping {
    fn machine_name(&self) -> &str {
        "ping"
    }
    fn input_signals(&self) -> Vec<Name> {
        vec![Name::from("seed"), Name::from("q")]
    }
    fn output_signals(&self) -> Vec<Name> {
        vec![Name::from("p")]
    }
    fn feed(&mut self, port: usize, value: Value) {
        if port == 0 {
            self.seeds.push(value);
        } else {
            self.qs.push(value);
        }
    }
    fn try_step(&mut self) -> Result<(), StepFault> {
        if self.qs.is_empty() {
            return Err(StepFault::NeedInput(1));
        }
        if self.seeds.is_empty() {
            return Err(StepFault::NeedInput(0));
        }
        self.qs.remove(0);
        let seed = self.seeds.remove(0);
        self.produced.push(seed);
        Ok(())
    }
    fn output(&self, _port: usize) -> &[Value] {
        &self.produced
    }
}

/// The primed half of the loop: emits one initial `q` token before ever
/// consuming — the channel-level image of an initialized delay register
/// breaking the instantaneous cycle — then relays `p` back to `q`.
struct Pong {
    primed: bool,
    queue: Vec<Value>,
    produced: Vec<Value>,
}

impl StepMachine for Pong {
    fn machine_name(&self) -> &str {
        "pong"
    }
    fn input_signals(&self) -> Vec<Name> {
        vec![Name::from("p")]
    }
    fn output_signals(&self) -> Vec<Name> {
        vec![Name::from("q")]
    }
    fn feed(&mut self, _port: usize, value: Value) {
        self.queue.push(value);
    }
    fn try_step(&mut self) -> Result<(), StepFault> {
        if self.primed {
            self.primed = false;
            self.produced.push(Value::Int(0));
            return Ok(());
        }
        if self.queue.is_empty() {
            return Err(StepFault::NeedInput(0));
        }
        let value = self.queue.remove(0);
        self.produced.push(value);
        Ok(())
    }
    fn output(&self, _port: usize) -> &[Value] {
        &self.produced
    }
}

/// A primed feedback loop: ping -> p -> pong -> q -> ping.
fn ping_pong(seeds: usize) -> Deployment {
    let mut deployment = Deployment::new();
    deployment.add_machine(Box::new(Ping {
        seeds: Vec::new(),
        qs: Vec::new(),
        produced: Vec::new(),
    }));
    deployment.add_machine(Box::new(Pong {
        primed: true,
        queue: Vec::new(),
        produced: Vec::new(),
    }));
    deployment.feed("seed", (1..=seeds as i64).map(Value::Int));
    deployment
}

/// Derived two-place bounds for the loop's edges, as the calculus would
/// produce for strictly alternating phases of a primed register.
fn alternating_bounds(signals: &[&str]) -> CapacityAnalysis {
    let mut analysis = CapacityAnalysis::new();
    for signal in signals {
        analysis.insert(
            *signal,
            DerivedCapacity {
                bound: 2,
                relation: RateRelation::Alternating {
                    state: Name::from("t"),
                },
                provenance: format!("alternating on t: one {signal} in flight plus the primer"),
            },
        );
    }
    analysis
}

#[test]
fn every_stdlib_edge_gets_a_finite_derived_bound() {
    for design in [
        library::producer_consumer_design().unwrap(),
        library::buffer_pipeline_design(4).unwrap(),
        library::ltta_design().unwrap(),
        Design::compose("chain2", chain_of_pairs(2)).unwrap(),
    ] {
        let analysis = design.capacity_analysis().expect("verified design");
        assert!(analysis.is_fully_bounded(), "{}: {analysis}", design.name());
        let deployment = design.deploy_derived().expect("verified design");
        assert_eq!(deployment.sizing(), ChannelSizing::Derived);
        let topology = deployment.topology().expect("every edge bounded");
        assert!(!topology.channels.is_empty(), "{}", design.name());
        for spec in &topology.channels {
            assert_eq!(spec.source, CapacitySource::Derived, "{}", spec.signal);
            assert!(spec.capacity >= 1, "{}", spec.signal);
            let why = spec.derivation.as_deref().expect("derivation recorded");
            assert!(
                why.contains("producer at"),
                "{}: derivation {why}",
                spec.signal
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::cases_from_env(16)))]

    /// Sufficiency: whatever the stream and pipeline depth, the derived
    /// capacities never deadlock and the deployment conforms — under both
    /// execution modes.
    #[test]
    fn derived_capacities_are_sufficient(
        n in 1usize..5,
        stream in prop::collection::vec(any::<bool>(), 0..24),
    ) {
        let design = library::buffer_pipeline_design(n).expect("builds");
        // Derive once per case: the clock inference + BDD work is a
        // per-design cost, not a per-combination one.
        let analysis = design.capacity_analysis().expect("verified design");
        let stream: Vec<Value> = stream.into_iter().map(Value::Bool).collect();
        for mode in MODES {
            let mut deployment = design.deploy().expect("verified design");
            deployment.set_capacity_analysis(&analysis);
            deployment.set_execution_mode(mode).expect("valid mode");
            deployment.feed("p0", stream.iter().copied());
            let outcome = deployment.run().expect("the deployment runs");
            for component in &outcome.stats().components {
                prop_assert_ne!(
                    &component.stop,
                    &StopReason::Deadlocked,
                    "derived capacities deadlocked ({mode})"
                );
            }
            prop_assert_eq!(outcome.flow(&format!("p{n}")), stream.as_slice());
            let report = outcome.check_conformance().expect("reference registered");
            prop_assert!(report.is_isochronous(), "{}", report);
        }
    }
}

#[test]
fn bound_minus_one_on_a_sampled_edge_is_statically_blocked() {
    // Every edge of the buffer pipeline derives the paper's one-place
    // bound; one less is the zero capacity, which is refused up front (a
    // rendezvous would deadlock the worker loop).
    let design = library::buffer_pipeline_design(2).unwrap();
    let analysis = design.capacity_analysis().unwrap();
    let bound = analysis
        .bound_for(&Name::from("p1"))
        .expect("bounded")
        .bound;
    assert_eq!(bound, 1);
    let mut deployment = design.deploy_derived().unwrap();
    assert_eq!(
        deployment
            .set_channel_capacity("p1", bound - 1)
            .unwrap_err(),
        DeployError::ZeroCapacity(Some(Name::from("p1")))
    );
}

#[test]
fn a_derivably_bounded_cycle_runs_to_completion() {
    // The feedback loop is primed and both edges carry their derived
    // two-place bound: the cycle is *proven* safe, so no
    // `set_allow_cycles` is needed and no run ends `Deadlocked` — in
    // either execution mode.
    for mode in MODES {
        let mut deployment = ping_pong(8);
        deployment.set_capacity_analysis(&alternating_bounds(&["p", "q"]));
        deployment.set_execution_mode(mode).expect("valid mode");
        let topology = deployment.topology().expect("bounded");
        assert!(topology.has_cycle());
        assert_eq!(
            topology.cycle_signals(),
            [Name::from("p"), Name::from("q")].into_iter().collect()
        );
        let outcome = deployment.run().expect("the proven cycle runs");
        for component in &outcome.stats().components {
            assert_ne!(component.stop, StopReason::Deadlocked, "{mode}");
        }
        // Every seed made it around the loop, after the priming token.
        let p: Vec<i64> = outcome
            .flow("p")
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(p, (1..=8).collect::<Vec<_>>(), "{mode}");
        let q = outcome.flow("q");
        assert_eq!(q.len(), 9, "{mode}");
        assert_eq!(q[0], Value::Int(0), "{mode}");
    }
}

#[test]
fn feedback_capacity_below_the_derived_bound_is_refused() {
    // Tightness of the cycle criterion: undercutting the derived bound on
    // a feedback edge is refused statically — even when cycles were
    // explicitly allowed, because here the calculus positively proves the
    // channel can fill and wedge the loop.
    for allow in [false, true] {
        let mut deployment = ping_pong(4);
        deployment.set_capacity_analysis(&alternating_bounds(&["p", "q"]));
        deployment.set_channel_capacity("q", 1).expect("nonzero");
        deployment.set_allow_cycles(allow);
        assert_eq!(
            deployment.run().unwrap_err(),
            DeployError::InsufficientFeedbackCapacity {
                signal: Name::from("q"),
                required: 2,
                actual: 1,
            }
        );
    }
}

#[test]
fn an_underivable_cycle_is_refused_naming_the_edge() {
    // Only p has a derived bound: the q edge resolves to nothing under
    // derived sizing and the topology itself is refused.
    let mut deployment = ping_pong(4);
    deployment.set_capacity_analysis(&alternating_bounds(&["p"]));
    assert_eq!(
        deployment.run().unwrap_err(),
        DeployError::UnboundedEdge(Name::from("q"))
    );

    // An explicit override sizes the q edge, but does not *prove* it: the
    // cycle still needs the explicit opt-in, and the refusal names the
    // unproven edge (a distinct error from UnboundedEdge — the remedy is
    // set_allow_cycles, not set_channel_capacity).
    let mut deployment = ping_pong(4);
    deployment.set_capacity_analysis(&alternating_bounds(&["p"]));
    deployment.set_channel_capacity("q", 4).expect("nonzero");
    let err = deployment.run().unwrap_err();
    assert_eq!(err, DeployError::UnprovenFeedbackEdge(Name::from("q")));
    assert!(err.to_string().contains("allow_cycles"), "{err}");

    // With the opt-in, the override-sized loop runs (dynamic detection
    // remains the safety net in pool mode).
    let mut deployment = ping_pong(4);
    deployment.set_capacity_analysis(&alternating_bounds(&["p"]));
    deployment.set_channel_capacity("q", 4).expect("nonzero");
    deployment.set_allow_cycles(true);
    let outcome = deployment.run().expect("allowed cycle runs");
    assert_eq!(outcome.flow("p").len(), 4);
}

/// A one-in/one-out relay, for acyclic hand-rolled topologies.
struct Relay {
    name: String,
    input: Name,
    output: Name,
    queue: Vec<Value>,
    produced: Vec<Value>,
}

impl Relay {
    fn boxed(name: &str, input: &str, output: &str) -> Box<Self> {
        Box::new(Relay {
            name: name.into(),
            input: Name::from(input),
            output: Name::from(output),
            queue: Vec::new(),
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
        self.queue.push(value);
    }
    fn try_step(&mut self) -> Result<(), StepFault> {
        if self.queue.is_empty() {
            return Err(StepFault::NeedInput(0));
        }
        let value = self.queue.remove(0);
        self.produced.push(value);
        Ok(())
    }
    fn output(&self, _port: usize) -> &[Value] {
        &self.produced
    }
}

#[test]
fn unbounded_edges_are_typed_errors_on_acyclic_topologies_too() {
    // Hand-rolled machines carry no clock information: under derived
    // sizing, an edge without an installed bound or an override is a
    // typed error naming the signal — at topology() and at run().
    let acyclic = || {
        let mut deployment = Deployment::new();
        deployment.add_machine(Relay::boxed("a", "s0", "s1"));
        deployment.add_machine(Relay::boxed("b", "s1", "s2"));
        deployment.feed("s0", (1..=3).map(Value::Int));
        deployment.set_sizing(ChannelSizing::Derived);
        deployment
    };
    assert_eq!(
        acyclic().topology().unwrap_err(),
        DeployError::UnboundedEdge(Name::from("s1"))
    );
    assert_eq!(
        acyclic().run().unwrap_err(),
        DeployError::UnboundedEdge(Name::from("s1"))
    );
    // An explicit override unblocks the edge.
    let mut deployment = acyclic();
    deployment.set_channel_capacity("s1", 2).expect("nonzero");
    let outcome = deployment.run().expect("runs");
    assert_eq!(outcome.flow("s2").len(), 3);
}

#[test]
fn unverified_designs_cannot_derive_bounds() {
    use polychrony::signal_lang::{stdlib, Expr, ProcessBuilder};
    let loose = ProcessBuilder::new("loose")
        .define("d", Expr::var("y").default(Expr::var("z")))
        .build()
        .unwrap();
    let design = Design::compose("bad", [loose, stdlib::filter()]).expect("builds");
    assert_eq!(
        design.capacity_analysis().unwrap_err(),
        DeployError::NotVerified("bad".into())
    );
}

#[test]
fn the_multirate_design_derives_a_kperiodic_bound_beyond_the_alternating_classes() {
    // The burst design is a partially-analyzed composition: its composite
    // hides the shared signal and both phase rings, so the global algebra
    // cannot relate the edge clocks at all — under PR 5's rate classes the
    // edge was `UnboundedEdge`.  The components' local k-periodic words
    // classify it: producer (111000) against consumer (000111) has
    // backlog 3, a bound no alternation-based class (max 2) can express.
    let design = library::multirate_design().expect("builds");
    assert!(design.is_weakly_hierarchic(), "{}", design.verdict());
    let analysis = design.capacity_analysis().expect("verified design");
    let capacity = analysis.bound_for(&Name::from("x")).expect("bounded");
    assert_eq!(capacity.bound, 3);
    assert!(capacity.bound > 2, "beyond every alternating class");
    assert!(
        capacity.provenance.contains("k-periodic")
            && capacity.provenance.contains("local phase words"),
        "{}",
        capacity.provenance
    );

    // And the derived deployment actually runs and conforms, under both
    // execution modes.
    let a: Vec<Value> = (0..18).map(|i| Value::Bool(i % 2 == 0)).collect();
    // `x` carries `a` on phases 1-3 of the 6-phase ring and `y` keeps every
    // third `x` token, so `y` sees `a` at instants 3, 9, 15, ...
    let expected_y: Vec<Value> = a.iter().skip(2).step_by(6).copied().collect();
    for mode in MODES {
        let mut deployment = design.deploy().expect("verified design");
        deployment.set_capacity_analysis(&analysis);
        deployment.set_execution_mode(mode).expect("valid mode");
        deployment.feed("a", a.iter().copied());
        let outcome = deployment.run().expect("the deployment runs");
        for component in &outcome.stats().components {
            assert_ne!(component.stop, StopReason::Deadlocked, "{mode}");
        }
        assert_eq!(
            outcome.flow("y"),
            expected_y.as_slice(),
            "y decimates every third x ({mode})"
        );
        let report = outcome.check_conformance().expect("reference registered");
        assert!(report.is_isochronous(), "{mode}: {report}");
    }
}

#[test]
fn a_partially_analyzed_composition_without_words_fails_cleanly() {
    // Regression for the `has_signal` guards: an interface-abstracted
    // composite whose algebra knows neither side's gating signals — and
    // whose components expose no periodic phase system — must produce a
    // typed unbounded verdict, not a panic inside the BDD encoding.
    use polychrony::signal_lang::{stdlib, ClockAst, Expr, ProcessBuilder};
    let abstraction = ProcessBuilder::new("pc_abs")
        .constraint_eq("u", ClockAst::when_true("a"))
        .define("u", Expr::cst(1).add(Expr::var("u").pre(0)))
        .synchro("v", "b")
        .define("v", Expr::var("v").pre(0).add(Expr::cst(1)))
        .inputs(["a", "b"])
        .outputs(["u", "v"])
        .build()
        .expect("well-formed");
    let design =
        Design::from_parts(abstraction, [stdlib::producer(), stdlib::consumer()]).expect("builds");
    assert!(design.is_weakly_hierarchic(), "{}", design.verdict());
    let analysis = design.capacity_analysis().expect("analysis completes");
    assert!(!analysis.is_fully_bounded());
    assert!(analysis.unbounded().contains_key(&Name::from("x")));
    // Under derived sizing the unbounded edge is the usual typed error,
    // surfaced when the deployment resolves its channel topology.
    let deployment = design.deploy_derived().expect("assembles");
    let err = deployment.topology().unwrap_err();
    assert!(
        matches!(err, DeployError::UnboundedEdge(ref n) if n == &Name::from("x")),
        "{err}"
    );
}

#[test]
fn an_unprimed_loop_is_refused_statically_with_a_typed_error() {
    // Two ordinary buffers in a feedback loop: verified, every edge
    // derives a finite bound — and yet the loop can never start, because
    // each buffer waits on its first read strictly before its first
    // emission.  PR 5's refuse-or-prove cycle path accepted this shape
    // (all feedback edges derivably bounded) and left the wait cycle to
    // the pool's dynamic `Deadlocked` detection; the priming-liveness
    // pass now refuses it statically.
    let design = library::unprimed_loop_design().expect("builds");
    assert!(design.is_weakly_hierarchic(), "{}", design.verdict());
    let err = design.capacity_analysis().unwrap_err();
    let DeployError::UnprimedCycle(cycle) = &err else {
        panic!("expected UnprimedCycle, got {err}");
    };
    assert_eq!(cycle.signals, vec![Name::from("p0"), Name::from("p1")]);
    assert!(err.to_string().contains("unprimed feedback loop"), "{err}");
    // deploy_derived goes through the same pass.
    assert!(matches!(
        design.deploy_derived().unwrap_err(),
        polychrony::isochron::DesignError::Deploy(DeployError::UnprimedCycle(_))
    ));
}

#[test]
fn an_installed_unprimed_verdict_refuses_the_run_before_it_starts() {
    // The run path honors a recorded liveness verdict even on hand-rolled
    // machines: the refusal happens before any thread spawns, instead of
    // the dynamic `Deadlocked` stop after the fact.
    use polychrony::gals_rt::UnprimedCycle;
    let mut analysis = alternating_bounds(&["p", "q"]);
    analysis.record_unprimed(UnprimedCycle {
        signals: vec![Name::from("p"), Name::from("q")],
        detail: "both relays wait on their first read".into(),
    });
    let mut deployment = ping_pong(4);
    deployment.set_capacity_analysis(&analysis);
    assert!(matches!(
        deployment.run().unwrap_err(),
        DeployError::UnprimedCycle(ref cycle) if cycle.signals.contains(&Name::from("p"))
    ));
}

#[test]
fn a_primed_loop_passes_the_liveness_pass_and_turns_forever() {
    // Flipping one register initialization (the primed buffer emits
    // before it reads) is exactly the fix the refusal message suggests:
    // the same topology now derives, deploys and turns until the step
    // budget — never `Deadlocked`.
    let design = library::primed_loop_design().expect("builds");
    assert!(design.is_weakly_hierarchic(), "{}", design.verdict());
    let analysis = design.capacity_analysis().expect("the primed loop is live");
    assert!(analysis.is_fully_bounded(), "{analysis}");
    assert!(analysis.unprimed_cycles().is_empty());
    let mut deployment = design.deploy().expect("verified design");
    deployment.set_capacity_analysis(&analysis);
    deployment
        .set_execution_mode(ExecutionMode::Pool {
            workers: 2,
            quantum: 3,
        })
        .expect("valid mode");
    deployment.set_max_steps(40).expect("nonzero");
    let outcome = deployment.run().expect("the primed loop runs");
    for component in &outcome.stats().components {
        assert_eq!(component.stop, StopReason::StepLimit, "{component}");
        assert_eq!(component.reactions, 40, "{component}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::cases_from_env(32)))]

    /// Tightness of the k-periodic backlog: for arbitrary ultimately
    /// periodic words it equals the exact supremum of the producer/consumer
    /// prefix-sum gap (simulated far beyond the analysis's own horizon),
    /// and it exists exactly when the producer's rate does not exceed the
    /// consumer's.
    #[test]
    fn kperiodic_backlogs_are_tight_against_simulation(
        p_prefix in prop::collection::vec(any::<bool>(), 0..4),
        p_period in prop::collection::vec(any::<bool>(), 1..7),
        c_prefix in prop::collection::vec(any::<bool>(), 0..4),
        c_period in prop::collection::vec(any::<bool>(), 1..7),
    ) {
        use polychrony::clocks::ClockWord;
        let producer = ClockWord::from_parts(p_prefix, p_period).expect("nonempty period");
        let consumer = ClockWord::from_parts(c_prefix, c_period).expect("nonempty period");
        let (p_ones, p_len) = producer.rate();
        let (c_ones, c_len) = consumer.rate();
        // A horizon several periods past where the analysis stops looking:
        // the gap sequence is eventually periodic, so if the bound were
        // ever exceeded it would be exceeded here too.
        let horizon = producer.prefix_len().max(consumer.prefix_len())
            + 8 * producer.period_len() * consumer.period_len()
            + 8;
        let simulated_sup = (1..=horizon)
            .map(|n| {
                let sent = producer.ones_before(n);
                let consumed = consumer.ones_before(n - 1);
                sent.saturating_sub(consumed)
            })
            .max()
            .unwrap_or(0);
        match ClockWord::backlog(&producer, &consumer) {
            Some(bound) => {
                prop_assert!(
                    p_ones * c_len <= c_ones * p_len,
                    "a finite backlog requires rate_p <= rate_c"
                );
                prop_assert_eq!(
                    bound, simulated_sup,
                    "backlog of {} against {}", producer, consumer
                );
            }
            None => prop_assert!(
                p_ones * c_len > c_ones * p_len,
                "backlog refused only on a genuine rate mismatch: {} vs {}",
                producer, consumer
            ),
        }
    }

    /// Sufficiency of the k-periodic bound end to end: whatever the
    /// environment stream, the multi-rate burst design runs to completion
    /// and conforms under its derived capacity.
    #[test]
    fn the_multirate_design_conforms_on_arbitrary_streams(
        stream in prop::collection::vec(any::<bool>(), 0..30),
    ) {
        let design = library::multirate_design().expect("builds");
        let analysis = design.capacity_analysis().expect("verified design");
        let stream: Vec<Value> = stream.into_iter().map(Value::Bool).collect();
        for mode in MODES {
            let mut deployment = design.deploy().expect("verified design");
            deployment.set_capacity_analysis(&analysis);
            deployment.set_execution_mode(mode).expect("valid mode");
            deployment.feed("a", stream.iter().copied());
            let outcome = deployment.run().expect("the deployment runs");
            for component in &outcome.stats().components {
                prop_assert_ne!(&component.stop, &StopReason::Deadlocked, "{}", mode);
            }
            let report = outcome.check_conformance().expect("reference registered");
            prop_assert!(report.is_isochronous(), "{}", report);
        }
    }
}

#[test]
fn fixed_sizing_keeps_the_legacy_cycle_behavior() {
    // Without derived bounds the historic contract holds: cycles are
    // refused unless explicitly allowed, and an allowed primed cycle
    // still completes.
    let deployment = ping_pong(3);
    assert_eq!(deployment.run().unwrap_err(), DeployError::CyclicTopology);
    let mut deployment = ping_pong(3);
    deployment.set_allow_cycles(true);
    deployment.set_capacity(2).expect("nonzero");
    let outcome = deployment.run().expect("allowed cycle runs");
    assert_eq!(outcome.stats().sizing, ChannelSizing::Fixed);
    assert_eq!(outcome.flow("p").len(), 3);
}
