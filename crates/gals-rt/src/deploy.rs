//! The deployment builder and runner.
//!
//! A [`Deployment`] assembles separately compiled [`StepMachine`]s, derives
//! the channel topology from their interfaces (an output of one machine
//! feeding the homonymous input of others becomes a bounded FIFO channel),
//! preloads the environment streams, and runs the machines until the
//! streams are drained — the concurrent execution scheme of Section 5 of
//! the paper generalized from one producer/consumer pair to arbitrary
//! component counts.  The machines run as one group on the pool
//! scheduler of [`crate::sched`], whose shape ([`ExecutionMode`]) fixes
//! the OS threads; [`Deployment::stage`] instead hands the wired machines
//! to a long-lived [`SharedPool`](crate::SharedPool).
//!
//! The channels themselves are minted by a [`Transport`] — the lock-free
//! SPSC ring unless [`Deployment::set_transport`] plugs in another
//! medium, since every derived edge has exactly one producer and one
//! consumer — at the capacities of a [`ChannelPolicy`] (a default plus
//! per-signal overrides, or derived bounds).  [`Deployment::topology`]
//! reports the resolved capacity and backend of every edge.
//!
//! A signal can also be **linked** to an endpoint the deployment did not
//! mint ([`Deployment::link_input`], [`Deployment::link_output`]), such
//! as a partition's cut edge on a socket: read and written without
//! blocking like a ring, its medium waking the island.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use signal_lang::{Name, Value};
use sim::Flows;

use crate::capacity::CapacityAnalysis;
use crate::conformance::{
    replay_reference, ConformanceError, ConformanceReport, ReferenceComponent,
};
use crate::machine::StepMachine;
use crate::ring::RingTransport;
use crate::sched::{self, ExecutionMode};
use crate::stats::{CapacityRange, DeploymentStats, PoolWorkerStats};
use crate::trace::{Trace, TraceBuffer, TraceConfig};
use crate::transport::{
    CapacitySource, ChannelPolicy, ChannelSizing, TokenRx, TokenTx, Transport, ZeroCapacity,
};
use crate::worker::{Driver, WorkerReport};

/// Default per-component step budget: a safety net against components that
/// can react forever without consuming any finite stream.
pub const DEFAULT_MAX_STEPS: u64 = 1_000_000;

/// Default capacity of the streaming ingress/egress channels a staged
/// deployment ([`Deployment::stage`]) exposes: deep enough to absorb a
/// burst of fed tokens without blocking the client, small enough that an
/// unpolled tenant exerts backpressure on itself rather than hoarding
/// memory.
pub const DEFAULT_STREAM_CAPACITY: usize = 64;

/// An error raised while assembling or launching a deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The deployment has no machine.
    Empty,
    /// Two machines declare the same output signal; a signal must have a
    /// single producer for the channel topology to be well-defined.
    DuplicateProducer(Name),
    /// A fed signal is produced by a machine: only environment inputs (read
    /// by some machine, produced by none) can be fed.
    FedInternalSignal(Name),
    /// A fed signal is not an input of any machine.
    UnknownFeed(Name),
    /// A fed signal is linked ([`Deployment::link_input`]): its tokens
    /// come from the link.
    FedLinkedSignal(Name),
    /// A linked input is not an environment input of its machine, or a
    /// linked output is not an output of any machine.
    UnknownLink(Name),
    /// A served deployment was fed on the named environment input after
    /// its inputs were closed: its consumers already saw the end of the
    /// stream, so the tokens could never be read.
    InputsClosed(Name),
    /// The channel topology contains a communication cycle: with bounded
    /// blocking channels, a cycle can deadlock every worker on it, so the
    /// run is refused unless cycles are explicitly allowed.
    CyclicTopology,
    /// A channel capacity of 0 was requested (for the named signal, or for
    /// the default when `None`).  A zero-capacity channel is a rendezvous
    /// the worker loop cannot serve — the producer publishes before its
    /// next read, so two adjacent workers would deadlock — and it is
    /// rejected instead of being silently clamped.
    ZeroCapacity(Option<Name>),
    /// A signal marked as paced ([`Deployment::mark_paced`]) is not an
    /// environment input of the deployment — a typo here would silently
    /// skew the conformance replay, so it is rejected like an unknown feed.
    UnknownPaced(Name),
    /// A step budget of 0 was requested: every worker would exit instantly
    /// with `StopReason::StepLimit` and the run would "succeed" with empty
    /// flows, so it is rejected like a zero capacity.
    ZeroMaxSteps,
    /// A pool execution mode with 0 workers was requested: no thread would
    /// ever dispatch a component.
    ZeroPoolWorkers,
    /// A pool execution mode with a 0-reaction quantum was requested: a
    /// dispatch could never advance its component.
    ZeroQuantum,
    /// Derived channel sizing was requested for a design that fails the
    /// static weak-hierarchy criterion: the clock relations of an
    /// unverified design prove nothing, so no capacity bound can be
    /// trusted from them.
    NotVerified(String),
    /// Under [`ChannelSizing::Derived`], the named edge signal has neither
    /// a derived bound (the clock calculus could not relate its producer
    /// and consumer clocks) nor an explicit capacity override.
    UnboundedEdge(Name),
    /// Under [`ChannelSizing::Derived`], the named feedback edge of a
    /// cyclic topology is sized only by an explicit override: the
    /// calculus did not prove its bound, so the cycle is not provably
    /// deadlock-free and running it requires the explicit
    /// `set_allow_cycles(true)` opt-in.
    UnprovenFeedbackEdge(Name),
    /// A feedback edge of an (explicitly allowed or derivably safe) cycle
    /// has a capacity below its derived bound: the cycle could fill the
    /// channel and deadlock, so the run is refused statically instead.
    InsufficientFeedbackCapacity {
        /// The feedback edge's signal.
        signal: Name,
        /// The derived bound the edge needs.
        required: usize,
        /// The capacity it was given.
        actual: usize,
    },
    /// The priming-liveness analysis proved a feedback loop can never
    /// start: every component on it waits on its first read strictly
    /// before its first emission, so the loop would sit in the exact wait
    /// cycle the pool scheduler's dynamic `Deadlocked` detection reports —
    /// refused statically instead.
    UnprimedCycle(crate::capacity::UnprimedCycle),
    /// The transport could not mint an endpoint pair for an edge — a
    /// socket path unreachable, a shared file uncreatable, a handshake
    /// refused.  The in-process ring never raises this; a distributed
    /// medium does, and the failure is a typed outcome instead of a panic.
    Transport(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Empty => write!(f, "a deployment needs at least one machine"),
            DeployError::DuplicateProducer(n) => {
                write!(f, "signal {n} is produced by more than one machine")
            }
            DeployError::FedInternalSignal(n) => {
                write!(f, "signal {n} is produced by a machine and cannot be fed")
            }
            DeployError::UnknownFeed(n) => {
                write!(f, "fed signal {n} is not an input of any machine")
            }
            DeployError::FedLinkedSignal(n) => {
                write!(f, "signal {n} is linked to an endpoint and cannot be fed")
            }
            DeployError::UnknownLink(n) => write!(
                f,
                "linked signal {n} is not an environment input of its machine \
                 or an output of any machine"
            ),
            DeployError::InputsClosed(n) => write!(
                f,
                "cannot feed {n}: the deployment's inputs are closed, so its \
                 consumers already saw the end of every stream"
            ),
            DeployError::CyclicTopology => write!(
                f,
                "the channel topology is cyclic and bounded blocking channels \
                 may deadlock on it (allow_cycles forces the run)"
            ),
            DeployError::ZeroCapacity(signal) => {
                let culprit = ZeroCapacity {
                    signal: signal.clone(),
                };
                write!(f, "{culprit}")
            }
            DeployError::UnknownPaced(n) => {
                write!(f, "paced signal {n} is not an environment input")
            }
            DeployError::ZeroMaxSteps => write!(
                f,
                "a step budget of 0 would stop every component before its \
                 first reaction; use a budget of at least 1"
            ),
            DeployError::ZeroPoolWorkers => {
                write!(f, "a pool of 0 workers can never dispatch a component")
            }
            DeployError::ZeroQuantum => {
                write!(f, "a quantum of 0 reactions can never advance a component")
            }
            DeployError::NotVerified(name) => write!(
                f,
                "design {name} fails the static weak-hierarchy criterion, so \
                 no channel bound can be derived from its clock relations"
            ),
            DeployError::UnboundedEdge(n) => write!(
                f,
                "no finite capacity bound is derivable for channel signal {n} \
                 (and no explicit override was set); size it with \
                 set_channel_capacity or use fixed sizing"
            ),
            DeployError::UnprovenFeedbackEdge(n) => write!(
                f,
                "feedback edge {n} is sized by an explicit override but has \
                 no derived bound, so the cycle is not provably \
                 deadlock-free (allow_cycles forces the run)"
            ),
            DeployError::InsufficientFeedbackCapacity {
                signal,
                required,
                actual,
            } => write!(
                f,
                "feedback edge {signal} has capacity {actual} but its derived \
                 bound is {required}: the cycle could fill the channel and \
                 deadlock"
            ),
            DeployError::UnprimedCycle(cycle) => write!(f, "{cycle}"),
            DeployError::Transport(message) => write!(f, "transport failure: {message}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<ZeroCapacity> for DeployError {
    fn from(err: ZeroCapacity) -> Self {
        DeployError::ZeroCapacity(err.signal)
    }
}

impl From<crate::transport::TransportError> for DeployError {
    fn from(err: crate::transport::TransportError) -> Self {
        DeployError::Transport(err.message)
    }
}

/// One bounded point-to-point channel of the derived topology, with its
/// policy resolution: the capacity this edge gets and the transport
/// backend that carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSpec {
    /// The shared signal carried by the channel.
    pub signal: Name,
    /// Index of the producing machine.
    pub producer: usize,
    /// Index of the consuming machine.
    pub consumer: usize,
    /// The resolved bounded capacity of this edge (a per-signal override
    /// when one is set, the derived bound under
    /// [`ChannelSizing::Derived`], the policy default otherwise).
    pub capacity: usize,
    /// Where the capacity came from (default, override, or derived).
    pub source: CapacitySource,
    /// For derived edges, the derivation: the rate relation between the
    /// producer and consumer clocks that produced the bound.
    pub derivation: Option<String>,
    /// The name of the transport backend wiring this edge.
    pub backend: &'static str,
}

/// The static shape of a deployment, derived from the machine interfaces
/// and resolved against the channel policy.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// The point-to-point channels (one per shared signal and consumer).
    pub channels: Vec<ChannelSpec>,
    /// The environment inputs: consumed by some machine, produced by none.
    pub environment: Vec<Name>,
}

impl Topology {
    /// Returns `true` when the channel graph (machines as nodes, channels
    /// as edges) contains a cycle — a shape on which bounded blocking
    /// channels can deadlock.
    ///
    /// The topology has no self-loop edges (a machine reading its own
    /// output resolves internally), so the graph is cyclic exactly when
    /// some edge lies on a cycle.
    pub fn has_cycle(&self) -> bool {
        !self.cycle_signals().is_empty()
    }

    /// The signals of the edges lying on a communication cycle: edges
    /// whose producer and consumer belong to the same strongly connected
    /// component of the channel graph.  These are the edges whose
    /// capacities decide whether a feedback loop can fill its channels
    /// and deadlock.
    pub fn cycle_signals(&self) -> BTreeSet<Name> {
        self.scc_assignment()
            .map(|component| {
                self.channels
                    .iter()
                    .filter(|spec| component.get(&spec.producer) == component.get(&spec.consumer))
                    .map(|spec| spec.signal.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The cycle signals grouped per strongly connected component of the
    /// channel graph: one set per independent feedback loop (nest of
    /// loops), so per-loop analyses — like the priming-liveness pass —
    /// can judge each loop on its own.
    pub fn cycle_groups(&self) -> Vec<BTreeSet<Name>> {
        let Some(component) = self.scc_assignment() else {
            return Vec::new();
        };
        let mut groups: BTreeMap<usize, BTreeSet<Name>> = BTreeMap::new();
        for spec in &self.channels {
            if let (Some(&p), Some(&c)) =
                (component.get(&spec.producer), component.get(&spec.consumer))
            {
                if p == c {
                    groups.entry(p).or_default().insert(spec.signal.clone());
                }
            }
        }
        groups.into_values().collect()
    }

    /// Kosaraju's strongly-connected-components assignment over the
    /// channel graph: machine index → SCC root.  `None` when the graph
    /// has no edges at all.
    fn scc_assignment(&self) -> Option<BTreeMap<usize, usize>> {
        if self.channels.is_empty() {
            return None;
        }
        // Kosaraju: forward order, then transposed sweep.
        let mut nodes: BTreeSet<usize> = BTreeSet::new();
        let mut forward: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut backward: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for spec in &self.channels {
            nodes.insert(spec.producer);
            nodes.insert(spec.consumer);
            forward
                .entry(spec.producer)
                .or_default()
                .push(spec.consumer);
            backward
                .entry(spec.consumer)
                .or_default()
                .push(spec.producer);
        }
        let mut order = Vec::new();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for &start in &nodes {
            if seen.contains(&start) {
                continue;
            }
            // Iterative post-order DFS.
            let mut stack = vec![(start, false)];
            while let Some((node, expanded)) = stack.pop() {
                if expanded {
                    order.push(node);
                    continue;
                }
                if !seen.insert(node) {
                    continue;
                }
                stack.push((node, true));
                for &next in forward.get(&node).into_iter().flatten() {
                    if !seen.contains(&next) {
                        stack.push((next, false));
                    }
                }
            }
        }
        let mut component: BTreeMap<usize, usize> = BTreeMap::new();
        let mut assigned: BTreeSet<usize> = BTreeSet::new();
        for &root in order.iter().rev() {
            if assigned.contains(&root) {
                continue;
            }
            let mut stack = vec![root];
            while let Some(node) = stack.pop() {
                if !assigned.insert(node) {
                    continue;
                }
                component.insert(node, root);
                for &next in backward.get(&node).into_iter().flatten() {
                    if !assigned.contains(&next) {
                        stack.push(next);
                    }
                }
            }
        }
        Some(component)
    }
}

/// A multi-threaded GALS deployment under construction.
pub struct Deployment {
    machines: Vec<Box<dyn StepMachine>>,
    reference: Vec<ReferenceComponent>,
    paced: BTreeSet<Name>,
    feeds: BTreeMap<Name, Vec<Value>>,
    policy: ChannelPolicy,
    transport: Option<Arc<dyn Transport>>,
    /// Incoming links, by (consuming machine, input signal).
    linked_inputs: BTreeMap<(usize, Name), Box<dyn TokenRx>>,
    /// Outgoing links, by output signal: one per remote consumer.
    linked_outputs: Vec<(Name, Box<dyn TokenTx>)>,
    /// The pool shape; `None` runs on [`ExecutionMode::pool_per_core`],
    /// asked of the OS only when a run starts, so a deployment built for
    /// its topology alone (every capacity analysis) costs no system call.
    mode: Option<ExecutionMode>,
    max_steps: u64,
    stream_capacity: usize,
    allow_cycles: bool,
    prediction: Option<crate::predict::PerformancePrediction>,
    trace: Option<TraceConfig>,
}

impl Deployment {
    /// Creates an empty deployment with channel capacity 1 (the one-place
    /// rendez-vous of the paper's concurrent scheme), the SPSC ring as
    /// the medium, a pool of one worker per core
    /// ([`ExecutionMode::pool_per_core`]) and the default step budget.
    pub fn new() -> Self {
        Deployment {
            machines: Vec::new(),
            reference: Vec::new(),
            paced: BTreeSet::new(),
            feeds: BTreeMap::new(),
            policy: ChannelPolicy::new(),
            transport: None,
            linked_inputs: BTreeMap::new(),
            linked_outputs: Vec::new(),
            mode: None,
            max_steps: DEFAULT_MAX_STEPS,
            stream_capacity: DEFAULT_STREAM_CAPACITY,
            allow_cycles: false,
            prediction: None,
            trace: None,
        }
    }

    /// Turns per-event tracing on (with the default [`TraceConfig`]) or
    /// off.  A traced run records every reaction, block, token movement
    /// and scheduling event into per-thread bounded buffers and surfaces
    /// them as a [`Trace`] on the outcome plus a
    /// [`crate::TraceSummary`] on the stats.  Off (the default) costs
    /// nothing on the hot path.
    pub fn set_tracing(&mut self, enabled: bool) -> &mut Self {
        self.trace = enabled.then(TraceConfig::default);
        self
    }

    /// Turns tracing on with an explicit [`TraceConfig`].
    pub fn set_trace_config(&mut self, config: TraceConfig) -> &mut Self {
        self.trace = Some(config);
        self
    }

    /// Whether per-event tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Installs a static performance prediction
    /// ([`crate::PerformancePrediction`], e.g. from
    /// `isochron::Design::performance_prediction`) so the run's
    /// [`DeploymentStats`] report it next to the measured counters.
    pub fn set_prediction(
        &mut self,
        prediction: crate::predict::PerformancePrediction,
    ) -> &mut Self {
        self.prediction = Some(prediction);
        self
    }

    /// Selects the shape of the pool the run starts: `workers` OS threads
    /// cooperatively step every component, `quantum` reactions per live
    /// island member per dispatch (default
    /// [`ExecutionMode::pool_per_core`]).
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::ZeroPoolWorkers`] or
    /// [`DeployError::ZeroQuantum`] for a pool with no workers or a
    /// quantum of 0 reactions.
    pub fn set_execution_mode(&mut self, mode: ExecutionMode) -> Result<&mut Self, DeployError> {
        let ExecutionMode::Pool { workers, quantum } = mode;
        if workers == 0 {
            return Err(DeployError::ZeroPoolWorkers);
        }
        if quantum == 0 {
            return Err(DeployError::ZeroQuantum);
        }
        self.mode = Some(mode);
        Ok(self)
    }

    /// The execution mode in effect.
    pub fn execution_mode(&self) -> ExecutionMode {
        self.mode.unwrap_or_else(ExecutionMode::pool_per_core)
    }

    /// Allows running a deployment whose channel topology contains a
    /// communication cycle.  With bounded blocking channels a cycle can
    /// deadlock (every worker on it waiting for another), so cycles are
    /// refused by default; a cycle primed by initial register values can
    /// still make progress, which this switch permits — at the caller's
    /// risk.
    pub fn set_allow_cycles(&mut self, allow: bool) -> &mut Self {
        self.allow_cycles = allow;
        self
    }

    /// Sets the default capacity of every bounded channel (the per-signal
    /// overrides of [`set_channel_capacity`](Self::set_channel_capacity)
    /// win over it).
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::ZeroCapacity`] for `capacity == 0`: a
    /// zero-capacity channel is a rendezvous the worker loop cannot serve
    /// and would deadlock the deployment.
    pub fn set_capacity(&mut self, capacity: usize) -> Result<&mut Self, DeployError> {
        self.policy.set_default_capacity(capacity)?;
        Ok(self)
    }

    /// Overrides the capacity of the channels carrying one signal — the
    /// hook for per-channel bounds derived from the clock calculus.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::ZeroCapacity`] for `capacity == 0`.
    pub fn set_channel_capacity(
        &mut self,
        signal: impl Into<Name>,
        capacity: usize,
    ) -> Result<&mut Self, DeployError> {
        self.policy.set_channel_capacity(signal, capacity)?;
        Ok(self)
    }

    /// Installs clock-derived capacity bounds and switches the policy to
    /// [`ChannelSizing::Derived`]: every edge takes its derived bound as
    /// capacity (explicit overrides still win), and an edge with neither
    /// is [`DeployError::UnboundedEdge`] at [`topology`](Self::topology) /
    /// [`run`](Self::run) time.  `isochron::Design::deploy_derived` wires
    /// this up from a verified design in one call.
    pub fn set_capacity_analysis(&mut self, analysis: &CapacityAnalysis) -> &mut Self {
        self.policy.install_derived(analysis);
        self
    }

    /// Selects the channel sizing mode without touching installed bounds.
    pub fn set_sizing(&mut self, sizing: ChannelSizing) -> &mut Self {
        self.policy.set_sizing(sizing);
        self
    }

    /// The channel sizing mode in effect.
    pub fn sizing(&self) -> ChannelSizing {
        self.policy.sizing()
    }

    /// Replaces the whole channel policy at once.
    pub fn set_policy(&mut self, policy: ChannelPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Routes every channel through a custom [`Transport`] (a shared-memory
    /// or network medium, say) instead of the built-in SPSC ring.
    pub fn set_transport(&mut self, transport: Arc<dyn Transport>) -> &mut Self {
        self.transport = Some(transport);
        self
    }

    /// Links environment input `signal` of machine `machine` (an index
    /// from [`add_machine`](Self::add_machine)) to `rx`, the receiving
    /// half of a channel whose producer lives elsewhere — a partition's
    /// incoming cut edge.  The driver polls it with `try_recv`, and its
    /// medium must call the waker it is handed ([`TokenRx::set_waker`]).
    /// Its close ends the machine as
    /// [`StopReason::EnvironmentExhausted`](crate::StopReason), and the
    /// outcome's flows carry the tokens taken from it.  A signal linked
    /// but not an environment input of that machine, or also fed, fails
    /// the run with a typed [`DeployError`].
    pub fn link_input(
        &mut self,
        machine: usize,
        signal: impl Into<Name>,
        rx: Box<dyn TokenRx>,
    ) -> &mut Self {
        self.linked_inputs.insert((machine, signal.into()), rx);
        self
    }

    /// Links output `signal` to `tx`, the sending half of a channel whose
    /// consumer lives elsewhere — a partition's outgoing cut edge; one
    /// per remote consumer.  The driver publishes to it with `try_send`,
    /// and its medium must call the waker it is handed
    /// ([`TokenTx::set_waker`]) when room frees up.
    pub fn link_output(&mut self, signal: impl Into<Name>, tx: Box<dyn TokenTx>) -> &mut Self {
        self.linked_outputs.push((signal.into(), tx));
        self
    }

    /// The channel policy in effect.
    pub fn policy(&self) -> &ChannelPolicy {
        &self.policy
    }

    /// The configured default channel capacity.
    pub fn capacity(&self) -> usize {
        self.policy.default_capacity()
    }

    /// Sets the per-component step budget.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::ZeroMaxSteps`] for `max_steps == 0`: every
    /// worker would stop before its first reaction and the run would
    /// "succeed" with empty flows.
    pub fn set_max_steps(&mut self, max_steps: u64) -> Result<&mut Self, DeployError> {
        if max_steps == 0 {
            return Err(DeployError::ZeroMaxSteps);
        }
        self.max_steps = max_steps;
        Ok(self)
    }

    /// Sets the capacity of the streaming ingress/egress channels a staged
    /// deployment ([`stage`](Self::stage)) exposes (default
    /// [`DEFAULT_STREAM_CAPACITY`]).  Batch runs ([`run`](Self::run))
    /// never mint these channels and ignore the knob.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::ZeroCapacity`] for `capacity == 0`: a
    /// zero-capacity ingress could never accept a fed token.
    pub fn set_stream_capacity(&mut self, capacity: usize) -> Result<&mut Self, DeployError> {
        if capacity == 0 {
            return Err(DeployError::ZeroCapacity(None));
        }
        self.stream_capacity = capacity;
        Ok(self)
    }

    /// Adds a machine; returns its index in the deployment.
    pub fn add_machine(&mut self, machine: Box<dyn StepMachine>) -> usize {
        self.machines.push(machine);
        self.machines.len() - 1
    }

    /// The number of machines added so far.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Registers the synchronous reference of one component, enabling the
    /// dynamic isochrony conformance check on the outcome.
    pub fn add_reference(&mut self, reference: ReferenceComponent) -> &mut Self {
        self.reference.push(reference);
        self
    }

    /// Marks an environment input as *pacing* its consumer: the synchronous
    /// reference presents it at every attempted reaction (the idiom for
    /// inputs read at every activation, like the producer's `a`).
    pub fn mark_paced(&mut self, signal: impl Into<Name>) -> &mut Self {
        self.paced.insert(signal.into());
        self
    }

    /// Feeds an environment input with a finite stream of values.
    pub fn feed<I, V>(&mut self, signal: impl Into<Name>, values: I) -> &mut Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.feeds
            .entry(signal.into())
            .or_default()
            .extend(values.into_iter().map(Into::into));
        self
    }

    /// The transport instance that mints the channels: the custom one, or
    /// the SPSC ring (every edge of a derived topology is
    /// single-producer/single-consumer).
    fn transport_instance(&self) -> Arc<dyn Transport> {
        self.transport
            .clone()
            .unwrap_or_else(|| Arc::new(RingTransport))
    }

    /// Derives the channel topology from the machine interfaces, resolved
    /// against the channel policy: every [`ChannelSpec`] reports the
    /// capacity (with its source and, for derived edges, the derivation)
    /// and backend its edge will be wired with.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::DuplicateProducer`] when two machines declare
    /// the same output signal, and — under [`ChannelSizing::Derived`] —
    /// [`DeployError::UnboundedEdge`] for an edge with neither a derived
    /// bound nor an explicit override.
    pub fn topology(&self) -> Result<Topology, DeployError> {
        let mut producer_of: BTreeMap<Name, usize> = BTreeMap::new();
        for (i, machine) in self.machines.iter().enumerate() {
            for output in machine.output_signals() {
                if producer_of.insert(output.clone(), i).is_some() {
                    return Err(DeployError::DuplicateProducer(output));
                }
            }
        }
        let backend = self.transport_instance().name();
        let mut topology = Topology::default();
        let mut environment: BTreeSet<Name> = BTreeSet::new();
        for (j, machine) in self.machines.iter().enumerate() {
            for input in machine.input_signals() {
                match producer_of.get(&input) {
                    Some(&i) if i != j => {
                        let resolved = self
                            .policy
                            .resolve(&input)
                            .map_err(DeployError::UnboundedEdge)?;
                        topology.channels.push(ChannelSpec {
                            signal: input,
                            producer: i,
                            consumer: j,
                            capacity: resolved.capacity,
                            source: resolved.source,
                            derivation: resolved.derivation,
                            backend,
                        });
                    }
                    Some(_) => {} // self-loop: resolved inside the machine
                    None => {
                        environment.insert(input);
                    }
                }
            }
        }
        topology.environment = environment.into_iter().collect();
        Ok(topology)
    }

    /// The static cycle analysis: with bounded blocking channels a
    /// communication cycle can deadlock, so a cyclic topology must either
    /// be *proven* safe or explicitly allowed.
    ///
    /// Under [`ChannelSizing::Derived`] every feedback edge is checked
    /// against its derived bound.  An edge whose capacity undercuts the
    /// bound is refused outright
    /// ([`DeployError::InsufficientFeedbackCapacity`], even when cycles
    /// were explicitly allowed — the calculus positively proves the
    /// channel can fill and wedge the loop).  A cycle whose every edge
    /// carries a derived bound (at full capacity) is *accepted* without
    /// [`set_allow_cycles`](Self::set_allow_cycles): the wait cycle
    /// cannot close on a full channel.  A feedback edge sized only by an
    /// explicit override is not proven: it still requires
    /// `set_allow_cycles(true)`, and is otherwise refused with
    /// [`DeployError::UnprovenFeedbackEdge`] naming the edge (an edge
    /// with neither a bound nor an override never reaches this check —
    /// [`topology`](Self::topology) already refused it as
    /// [`DeployError::UnboundedEdge`]).
    ///
    /// Under [`ChannelSizing::Fixed`] the historic behavior is kept:
    /// cycles are refused ([`DeployError::CyclicTopology`]) unless
    /// explicitly allowed, and allowed cycles rely on the pool
    /// scheduler's dynamic deadlock detection.
    ///
    /// The capacity proof is about *safety* (the wait cycle cannot close
    /// on a full channel); *liveness* — the loop needs a priming token to
    /// start turning — is covered by the priming-liveness pass: when the
    /// installed [`CapacityAnalysis`] carries the k-periodic words of
    /// every component on a loop and proves each one waits on its first
    /// read strictly before its first emission, the run is refused with
    /// [`DeployError::UnprimedCycle`] — even when cycles were explicitly
    /// allowed, the analysis positively proves the loop can never start.
    /// Hand-made bounds installed on machines without word information
    /// stay outside the proof, and the pool scheduler's dynamic detection
    /// remains the backstop for them.
    fn check_cycles(&self, topology: &Topology) -> Result<(), DeployError> {
        let cycle_signals = topology.cycle_signals();
        if cycle_signals.is_empty() {
            return Ok(());
        }
        if self.policy.sizing() == ChannelSizing::Derived {
            if let Some(cycle) = self
                .policy
                .unprimed_cycles()
                .iter()
                .find(|cycle| cycle.signals.iter().any(|s| cycle_signals.contains(s)))
            {
                return Err(DeployError::UnprimedCycle(cycle.clone()));
            }
            let feedback: Vec<&ChannelSpec> = topology
                .channels
                .iter()
                .filter(|spec| cycle_signals.contains(&spec.signal))
                .collect();
            for spec in &feedback {
                if let Some(derived) = self.policy.derived_for(&spec.signal) {
                    if spec.capacity < derived.bound {
                        return Err(DeployError::InsufficientFeedbackCapacity {
                            signal: spec.signal.clone(),
                            required: derived.bound,
                            actual: spec.capacity,
                        });
                    }
                }
            }
            let unproven = feedback
                .iter()
                .find(|spec| self.policy.derived_for(&spec.signal).is_none());
            return match unproven {
                None => Ok(()), // every feedback edge is derivably bounded
                Some(_) if self.allow_cycles => Ok(()),
                Some(spec) => Err(DeployError::UnprovenFeedbackEdge(spec.signal.clone())),
            };
        }
        if self.allow_cycles {
            Ok(())
        } else {
            Err(DeployError::CyclicTopology)
        }
    }

    /// Runs the deployment to completion on a pool of the selected
    /// [`ExecutionMode`] started for the run, its machines connected by
    /// bounded channels minted by the selected transport and by their
    /// links.  Blocks until every component finished.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] when the deployment is empty, the topology
    /// is ill-formed or cyclic, a feed, paced mark or link does not name
    /// an environment input (or a linked output no output), a linked
    /// signal is fed, or the transport fails to mint an endpoint pair for
    /// an edge ([`DeployError::Transport`]).
    pub fn run(mut self) -> Result<DeploymentOutcome, DeployError> {
        let (topology, wired) = self.wire()?;
        let mode = self.execution_mode();
        let backend = wired.transport.name();
        let mut drivers = wired.into_drivers(self.machines, self.max_steps);
        // The trace epoch doubles as the wall-clock start: every buffer
        // timestamps against this one `Instant`, which is what makes the
        // merged per-thread timelines comparable.
        let started = Instant::now();
        if let Some(config) = &self.trace {
            for driver in &mut drivers {
                driver.set_trace(TraceBuffer::new(started, config.buffer_capacity));
            }
        }
        let sched_trace = self
            .trace
            .as_ref()
            .map(|config| (started, config.buffer_capacity));
        let ExecutionMode::Pool { workers, quantum } = mode;
        let (reports, pool_workers, worker_traces) =
            sched::run_batch(drivers, &topology, workers, quantum, sched_trace);
        let elapsed = started.elapsed();

        let parts = OutcomeParts {
            reports,
            channels: topology.channels,
            sizing: self.policy.sizing(),
            backend,
            mode,
            pool_workers,
            worker_traces,
            elapsed,
            traced: self.trace.is_some(),
            prediction: self.prediction,
            feeds: self.feeds,
            reference: self.reference,
            paced: self.paced,
        };
        Ok(parts.build())
    }

    /// Assembles the deployment into a [`StagedDeployment`] for a
    /// [`SharedPool`](crate::SharedPool) instead of running it: the same
    /// static checks and internal channel wiring as [`run`](Self::run),
    /// but the environment inputs become bounded **ingress** channels the
    /// client feeds incrementally
    /// ([`SubmittedDeployment::feed`](crate::SubmittedDeployment::feed))
    /// and the external outputs become bounded **egress** channels the
    /// client drains
    /// ([`poll_outputs`](crate::SubmittedDeployment::poll_outputs)), both
    /// sized by [`set_stream_capacity`](Self::set_stream_capacity).
    /// Streams fed *before* staging are still preloaded and consumed
    /// ahead of any streamed token.
    ///
    /// A full egress channel blocks its producer — the tenant's own
    /// backpressure — and closing the ingress side
    /// ([`close_inputs`](crate::SubmittedDeployment::close_inputs)) is the
    /// normal end of the run: the consumer observes the close as
    /// [`StopReason`](crate::StopReason)`::EnvironmentExhausted`, exactly
    /// like a preloaded stream running dry.
    ///
    /// # Errors
    ///
    /// The same static refusals as [`run`](Self::run): empty deployment,
    /// ill-formed or unproven-cyclic topology, unknown feeds or paced
    /// marks, transport failures.
    pub fn stage(mut self) -> Result<StagedDeployment, DeployError> {
        let (topology, mut wired) = self.wire()?;

        // Ingress: one bounded channel per (environment input, consumer),
        // unless a link feeds it.  The rx side feeds the driver like any
        // upstream edge; the tx side is the client's streaming handle.
        let mut ingress: BTreeMap<Name, IngressPort> = BTreeMap::new();
        for (j, machine) in self.machines.iter().enumerate() {
            for input in machine.input_signals() {
                if !wired.environment.contains(&input) || wired.sources[j].contains_key(&input) {
                    continue;
                }
                let (tx, rx) = wired.transport.open(self.stream_capacity)?;
                wired.sources[j].insert(input.clone(), rx);
                ingress
                    .entry(input)
                    .or_insert_with(|| IngressPort {
                        consumers: Vec::new(),
                    })
                    .consumers
                    .push((j, tx));
            }
        }

        // Egress: one bounded channel per external output (an output no
        // other machine consumes and no link carries).  The tx rides along
        // the producer's ordinary sinks; the rx side is the client's
        // polling handle.
        let mut egress: BTreeMap<Name, EgressPort> = BTreeMap::new();
        for (i, machine) in self.machines.iter().enumerate() {
            for output in machine.output_signals() {
                if wired.sinks[i].contains_key(&output) {
                    continue;
                }
                let (tx, rx) = wired.transport.open(self.stream_capacity)?;
                wired.sinks[i].entry(output.clone()).or_default().push(tx);
                egress.insert(output, EgressPort { producer: i, rx });
            }
        }

        let names = self
            .machines
            .iter()
            .map(|machine| machine.machine_name().to_string())
            .collect();
        let backend = wired.transport.name();
        Ok(StagedDeployment {
            drivers: wired.into_drivers(self.machines, self.max_steps),
            topology,
            ingress,
            egress,
            names,
            feeds: self.feeds,
            reference: self.reference,
            paced: self.paced,
            backend,
            sizing: self.policy.sizing(),
            prediction: self.prediction,
            trace: self.trace,
        })
    }

    /// What [`run`](Self::run) and [`stage`](Self::stage) share: the
    /// static checks, the bounded internal channels — one endpoint pair
    /// per edge, minted by the transport at the edge's resolved capacity —
    /// the links, and the preloaded environment streams.  A machine reads
    /// its own input queue before its channel, so in a staged deployment
    /// the preloaded tokens come strictly before streamed ones.
    fn wire(&mut self) -> Result<(Topology, Wired), DeployError> {
        if self.machines.is_empty() {
            return Err(DeployError::Empty);
        }
        let topology = self.topology()?;
        self.check_cycles(&topology)?;
        let environment = self.validate_feeds(&topology)?;
        let transport = self.transport_instance();
        let n = self.machines.len();
        let mut sources: Vec<BTreeMap<Name, Box<dyn TokenRx>>> =
            (0..n).map(|_| BTreeMap::new()).collect();
        let mut sinks: Vec<BTreeMap<Name, Vec<Box<dyn TokenTx>>>> =
            (0..n).map(|_| BTreeMap::new()).collect();
        for spec in &topology.channels {
            let (tx, rx) = transport.open(spec.capacity)?;
            sinks[spec.producer]
                .entry(spec.signal.clone())
                .or_default()
                .push(tx);
            sources[spec.consumer].insert(spec.signal.clone(), rx);
        }
        let mut linked = Vec::with_capacity(self.linked_inputs.len());
        for ((machine, signal), rx) in std::mem::take(&mut self.linked_inputs) {
            sources[machine].insert(signal.clone(), rx);
            linked.push((machine, signal));
        }
        for (signal, tx) in std::mem::take(&mut self.linked_outputs) {
            if let Some(producer) = self
                .machines
                .iter()
                .position(|m| m.output_signals().contains(&signal))
            {
                sinks[producer].entry(signal).or_default().push(tx);
            }
        }
        // Every feed names an unlinked environment input (validated).
        for machine in &mut self.machines {
            for (port, input) in machine.input_signals().iter().enumerate() {
                for value in self.feeds.get(input).into_iter().flatten() {
                    machine.feed(port, *value);
                }
            }
        }
        let wired = Wired {
            environment,
            transport,
            sources,
            sinks,
            linked,
        };
        Ok((topology, wired))
    }

    /// Validates the feeds, paced marks and links against the derived
    /// environment and returns the environment inputs as a set.
    fn validate_feeds(&self, topology: &Topology) -> Result<BTreeSet<Name>, DeployError> {
        let inputs: BTreeSet<Name> = self
            .machines
            .iter()
            .flat_map(|m| m.input_signals())
            .collect();
        let environment: BTreeSet<Name> = topology.environment.iter().cloned().collect();
        for (machine, signal) in self.linked_inputs.keys() {
            let consumes = self
                .machines
                .get(*machine)
                .is_some_and(|m| m.input_signals().contains(signal));
            if !consumes || !environment.contains(signal) {
                return Err(DeployError::UnknownLink(signal.clone()));
            }
        }
        for (signal, _) in &self.linked_outputs {
            if !self
                .machines
                .iter()
                .any(|m| m.output_signals().contains(signal))
            {
                return Err(DeployError::UnknownLink(signal.clone()));
            }
        }
        for signal in self.feeds.keys() {
            if !inputs.contains(signal) {
                return Err(DeployError::UnknownFeed(signal.clone()));
            }
            if !environment.contains(signal) {
                return Err(DeployError::FedInternalSignal(signal.clone()));
            }
            if self
                .linked_inputs
                .keys()
                .any(|(_, linked)| linked == signal)
            {
                return Err(DeployError::FedLinkedSignal(signal.clone()));
            }
        }
        for signal in &self.paced {
            if !environment.contains(signal) {
                return Err(DeployError::UnknownPaced(signal.clone()));
            }
        }
        Ok(environment)
    }
}

/// A deployment checked and wired by [`Deployment::wire`].
struct Wired {
    environment: BTreeSet<Name>,
    transport: Arc<dyn Transport>,
    /// Per machine: the receiving endpoint of each channel-fed input.
    sources: Vec<BTreeMap<Name, Box<dyn TokenRx>>>,
    /// Per machine: the sending endpoints of each published output.
    sinks: Vec<BTreeMap<Name, Vec<Box<dyn TokenTx>>>>,
    /// The linked (machine, input) pairs.
    linked: Vec<(usize, Name)>,
}

impl Wired {
    /// One resumable driver per machine over its endpoints, environment
    /// and linked inputs marked.
    fn into_drivers(self, machines: Vec<Box<dyn StepMachine>>, max_steps: u64) -> Vec<Driver> {
        let mut drivers: Vec<Driver> = machines
            .into_iter()
            .zip(self.sources)
            .zip(self.sinks)
            .map(|((machine, sources), sinks)| {
                let mut driver = Driver::new(machine, sources, sinks, max_steps);
                for signal in &self.environment {
                    driver.mark_environment(signal);
                }
                driver
            })
            .collect();
        for (machine, signal) in &self.linked {
            drivers[*machine].keep_received(signal);
        }
        drivers
    }
}

impl Default for Deployment {
    fn default() -> Self {
        Deployment::new()
    }
}

impl fmt::Debug for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployment")
            .field("machines", &self.machines.len())
            .field("policy", &self.policy)
            .field("transport", &self.transport.as_ref().map(|t| t.name()))
            .field("mode", &self.mode)
            .field("max_steps", &self.max_steps)
            .finish()
    }
}

/// The result of a finished deployment run: the produced flows, the
/// execution counters and everything needed to replay the run against the
/// synchronous reference.
#[derive(Debug, Clone)]
pub struct DeploymentOutcome {
    flows: Flows,
    stats: DeploymentStats,
    feeds: BTreeMap<Name, Vec<Value>>,
    reference: Vec<ReferenceComponent>,
    paced: BTreeSet<Name>,
    trace: Option<Trace>,
}

impl DeploymentOutcome {
    /// The flow produced on an output signal (empty for unknown signals).
    pub fn flow(&self, signal: &str) -> &[Value] {
        self.flows
            .get(signal)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Every produced flow, keyed by output signal.
    pub fn flows(&self) -> &Flows {
        &self.flows
    }

    /// The execution counters of the run.
    pub fn stats(&self) -> &DeploymentStats {
        &self.stats
    }

    /// The environment streams the run consumed (as fed).
    pub fn feeds(&self) -> &BTreeMap<Name, Vec<Value>> {
        &self.feeds
    }

    /// The merged event timeline of the run, when the deployment ran with
    /// tracing on ([`Deployment::set_tracing`]); `None` otherwise.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Replays the same environment streams through the synchronous
    /// reference interpreter of every component and compares the flows —
    /// the dynamic counterpart of Theorem 1 (isochrony): the multi-threaded
    /// bounded-FIFO execution must observe exactly the flows of the
    /// synchronous semantics.
    ///
    /// # Errors
    ///
    /// Returns [`ConformanceError::NoReference`] when the deployment was
    /// assembled without reference components (e.g. directly from step
    /// programs rather than from a `Design`).
    pub fn check_conformance(&self) -> Result<ConformanceReport, ConformanceError> {
        let budget = self.replay_budget();
        self.check_conformance_with(budget)
    }

    /// Like [`check_conformance`](Self::check_conformance) with an explicit
    /// replay turn budget.
    pub fn check_conformance_with(
        &self,
        max_turns: usize,
    ) -> Result<ConformanceReport, ConformanceError> {
        if self.reference.is_empty() {
            return Err(ConformanceError::NoReference);
        }
        let reference = replay_reference(&self.reference, &self.feeds, &self.paced, max_turns);
        Ok(ConformanceReport::compare(reference, &self.flows))
    }

    /// A generous default turn budget for the reference replay, scaled to
    /// the volume of the environment streams.
    fn replay_budget(&self) -> usize {
        let tokens: usize = self.feeds.values().map(Vec::len).sum();
        let components = self.reference.len().max(1);
        (tokens + 16) * 16 * components
    }
}

/// The client-side sending endpoints of one environment input of a staged
/// deployment: one bounded channel per consuming machine.
pub(crate) struct IngressPort {
    /// `(machine index, sending endpoint)` per consumer of the signal;
    /// empty once the inputs are closed.
    pub(crate) consumers: Vec<(usize, Box<dyn TokenTx>)>,
}

/// The client-side receiving endpoint of one external output of a staged
/// deployment.
pub(crate) struct EgressPort {
    /// Index of the producing machine (the component a drain must wake
    /// when the egress buffer was full).
    pub(crate) producer: usize,
    /// The receiving endpoint the client polls.
    pub(crate) rx: Box<dyn TokenRx>,
}

/// A deployment assembled for a [`SharedPool`](crate::SharedPool) instead
/// of a batch run: every static check has passed, the internal channels
/// are wired, and the environment boundary is exposed as bounded
/// streaming ingress/egress channels.  Produced by [`Deployment::stage`],
/// consumed by [`SharedPool::submit`](crate::SharedPool::submit).
pub struct StagedDeployment {
    pub(crate) drivers: Vec<Driver>,
    pub(crate) topology: Topology,
    pub(crate) ingress: BTreeMap<Name, IngressPort>,
    pub(crate) egress: BTreeMap<Name, EgressPort>,
    pub(crate) names: Vec<String>,
    pub(crate) feeds: BTreeMap<Name, Vec<Value>>,
    pub(crate) reference: Vec<ReferenceComponent>,
    pub(crate) paced: BTreeSet<Name>,
    pub(crate) backend: &'static str,
    pub(crate) sizing: ChannelSizing,
    pub(crate) prediction: Option<crate::predict::PerformancePrediction>,
    pub(crate) trace: Option<TraceConfig>,
}

impl StagedDeployment {
    /// The number of components the deployment will occupy on the pool.
    pub fn component_count(&self) -> usize {
        self.drivers.len()
    }

    /// The component names, in deployment order.
    pub fn component_names(&self) -> &[String] {
        &self.names
    }

    /// The static channel topology the stage derived.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The environment inputs exposed as streaming ingress channels.
    pub fn inputs(&self) -> impl Iterator<Item = &Name> {
        self.ingress.keys()
    }

    /// The external outputs exposed as streaming egress channels.
    pub fn outputs(&self) -> impl Iterator<Item = &Name> {
        self.egress.keys()
    }
}

impl fmt::Debug for StagedDeployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StagedDeployment")
            .field("components", &self.names)
            .field("channels", &self.topology.channels.len())
            .field("inputs", &self.ingress.len())
            .field("outputs", &self.egress.len())
            .finish()
    }
}

/// Everything needed to assemble a [`DeploymentOutcome`] once the
/// components have reported — shared by the batch [`Deployment::run`] and
/// the shared pool's
/// [`SubmittedDeployment::drain`](crate::SubmittedDeployment::drain),
/// which is what keeps a served tenant's report shape identical to a
/// batch run's.
pub(crate) struct OutcomeParts {
    pub(crate) reports: Vec<WorkerReport>,
    pub(crate) channels: Vec<ChannelSpec>,
    pub(crate) sizing: ChannelSizing,
    pub(crate) backend: &'static str,
    pub(crate) mode: ExecutionMode,
    pub(crate) pool_workers: Vec<PoolWorkerStats>,
    pub(crate) worker_traces: Vec<TraceBuffer>,
    pub(crate) elapsed: Duration,
    pub(crate) traced: bool,
    pub(crate) prediction: Option<crate::predict::PerformancePrediction>,
    pub(crate) feeds: BTreeMap<Name, Vec<Value>>,
    pub(crate) reference: Vec<ReferenceComponent>,
    pub(crate) paced: BTreeSet<Name>,
}

impl OutcomeParts {
    pub(crate) fn build(self) -> DeploymentOutcome {
        let mut flows: Flows = Flows::new();
        let mut components = Vec::with_capacity(self.reports.len());
        let mut component_traces = Vec::new();
        for report in self.reports {
            // Each machine is dropped right after its flows are copied.
            for (port, output) in report.machine.output_signals().into_iter().enumerate() {
                let flow = report.machine.output(port).to_vec();
                flows.insert(output, flow);
            }
            flows.extend(report.received);
            if let Some(buffer) = report.trace {
                component_traces.push((report.stats.name.clone(), buffer));
            }
            components.push(report.stats);
        }
        let trace = self
            .traced
            .then(|| Trace::assemble(component_traces, self.worker_traces, self.channels.clone()));
        DeploymentOutcome {
            flows,
            stats: DeploymentStats {
                components,
                channels: self.channels.len(),
                capacity: CapacityRange::of_edges(self.channels.iter().map(|c| c.capacity)),
                sizing: self.sizing,
                edges: self.channels,
                backend: self.backend,
                mode: self.mode,
                pool_workers: self.pool_workers,
                elapsed: self.elapsed,
                prediction: self.prediction,
                trace: trace.as_ref().map(Trace::summary),
            },
            feeds: self.feeds,
            reference: self.reference,
            paced: self.paced,
            trace,
        }
    }
}
