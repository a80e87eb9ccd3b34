//! Asynchronous composition of separately executed components.
//!
//! Each component of an [`AsyncNetwork`] is an independent [`Simulator`]
//! running at its own pace; components exchange values through unbounded
//! FIFOs, one per shared signal, exactly as a network with arbitrary
//! latency would.  A component whose required input is not yet available
//! *blocks* (its attempted reaction is rejected and retried later), which
//! models the blocking reads of the generated embedded code described in
//! Section 3.6 of the paper.
//!
//! The observable flows of such an execution are what Definition 3
//! (isochrony) compares against the flows of the synchronous composition.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use signal_lang::{KernelProcess, Name, Value};

use crate::error::SimError;
use crate::simulator::{Drive, Simulator};

/// Identifier of a component inside an [`AsyncNetwork`].
pub type ComponentId = usize;

/// The result of attempting one reaction of one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The component performed a reaction (possibly silent).
    Progress,
    /// The component could not react because a required input is not
    /// available yet (blocking read) or its constraints reject the instant.
    Blocked,
}

/// How the environment feeds an external input signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeedMode {
    /// The value is read only when the component requires it.
    Demand,
    /// The value is imposed (signal present) at every attempted reaction of
    /// the consuming component, until the queue runs dry.
    Paced,
}

#[derive(Debug)]
struct Component {
    name: String,
    simulator: Simulator,
    /// The kernel's inputs and outputs with their simulator signal ids,
    /// computed once so an attempted reaction allocates nothing.
    inputs: Vec<(Name, usize)>,
    outputs: Vec<(Name, usize)>,
}

/// An asynchronous network of separately compiled components.
#[derive(Debug)]
pub struct AsyncNetwork {
    components: Vec<Component>,
    /// FIFO per connected signal (an output of one component feeding the
    /// homonymous input of others).
    channels: BTreeMap<Name, VecDeque<Value>>,
    /// Environment queues for external inputs.
    environment: BTreeMap<Name, (FeedMode, VecDeque<Value>)>,
    /// Flows observed so far, recorded at the producer side (or at the
    /// consumer side for environment inputs).
    flows: BTreeMap<Name, Vec<Value>>,
    blocked_attempts: u64,
    reactions: u64,
}

impl AsyncNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        AsyncNetwork {
            components: Vec::new(),
            channels: BTreeMap::new(),
            environment: BTreeMap::new(),
            flows: BTreeMap::new(),
            blocked_attempts: 0,
            reactions: 0,
        }
    }

    /// Adds a component executing `kernel`, activated (as by
    /// [`Simulator::with_activation`]) on the given signals at every
    /// attempted reaction.
    pub fn add_component<I, N>(
        &mut self,
        name: impl Into<String>,
        kernel: &KernelProcess,
        activation: I,
    ) -> ComponentId
    where
        I: IntoIterator<Item = N>,
        N: Into<Name>,
    {
        let simulator = Simulator::with_activation(kernel, activation);
        let port = |n: &Name| {
            let id = simulator.signal_id(n.as_str()).expect("a kernel port");
            (n.clone(), id)
        };
        let inputs = kernel.inputs().map(port).collect();
        let outputs = kernel.outputs().map(port).collect();
        let component = Component {
            name: name.into(),
            simulator,
            inputs,
            outputs,
        };
        self.components.push(component);
        self.wire();
        self.components.len() - 1
    }

    /// Feeds the external input `signal` with a finite sequence of values,
    /// consumed on demand (the component pulls a value only at the instants
    /// where its clock calculus requires the signal).
    pub fn feed<I, V>(&mut self, signal: impl Into<Name>, values: I)
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.environment.insert(
            signal.into(),
            (
                FeedMode::Demand,
                values.into_iter().map(Into::into).collect(),
            ),
        );
    }

    /// Feeds the external input `signal` with a finite sequence of values
    /// that *paces* its consumer: the signal is present at every attempted
    /// reaction of the consuming component until the sequence is exhausted.
    pub fn feed_paced<I, V>(&mut self, signal: impl Into<Name>, values: I)
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.environment.insert(
            signal.into(),
            (
                FeedMode::Paced,
                values.into_iter().map(Into::into).collect(),
            ),
        );
    }

    /// The number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// The name of a component.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.components[id].name
    }

    /// The number of successful reactions so far.
    pub fn reactions(&self) -> u64 {
        self.reactions
    }

    /// The number of blocked attempts so far.
    pub fn blocked_attempts(&self) -> u64 {
        self.blocked_attempts
    }

    /// The flow of values observed on `signal` so far.
    pub fn flow(&self, signal: &str) -> Vec<Value> {
        self.flows.get(signal).cloned().unwrap_or_default()
    }

    /// Every recorded flow.
    pub fn flows(&self) -> &BTreeMap<Name, Vec<Value>> {
        &self.flows
    }

    /// Every recorded flow, moved out of the network.
    pub fn into_flows(self) -> BTreeMap<Name, Vec<Value>> {
        self.flows
    }

    /// (Re)computes the FIFO channels: one per signal produced by a
    /// component and consumed by another.
    fn wire(&mut self) {
        let mut produced: BTreeMap<Name, usize> = BTreeMap::new();
        for (i, c) in self.components.iter().enumerate() {
            for out in c.simulator.kernel().outputs() {
                produced.insert(out.clone(), i);
            }
        }
        for (i, c) in self.components.iter().enumerate() {
            for input in c.simulator.kernel().inputs() {
                if let Some(&producer) = produced.get(input) {
                    if producer != i {
                        self.channels.entry(input.clone()).or_default();
                    }
                }
            }
        }
    }

    /// Attempts one reaction of the component `id`.
    pub fn step_component(&mut self, id: ComponentId) -> StepOutcome {
        let component = &self.components[id];
        let mut drives = Vec::with_capacity(component.inputs.len());
        for (input, signal) in &component.inputs {
            let drive = if let Some(queue) = self.channels.get(input) {
                match queue.front() {
                    Some(v) => Drive::Available(*v),
                    None => Drive::Absent,
                }
            } else if let Some((mode, queue)) = self.environment.get(input) {
                match (mode, queue.front()) {
                    (FeedMode::Demand, Some(v)) => Drive::Available(*v),
                    (FeedMode::Paced, Some(v)) => Drive::Present(*v),
                    (_, None) => Drive::Absent,
                }
            } else {
                Drive::Absent
            };
            drives.push((*signal, drive));
        }
        match self.components[id].simulator.react(&drives) {
            Ok(()) => {}
            Err(SimError::UnknownSignal(n)) => {
                panic!("network wiring refers to unknown signal {n}")
            }
            Err(_) => {
                self.blocked_attempts += 1;
                return StepOutcome::Blocked;
            }
        }
        self.reactions += 1;
        // Consume the inputs that were actually used and publish outputs.
        let component = &self.components[id];
        for (input, signal) in &component.inputs {
            if component.simulator.last_value(*signal).is_some() {
                if let Some(queue) = self.channels.get_mut(input) {
                    queue.pop_front();
                } else if let Some((_, queue)) = self.environment.get_mut(input) {
                    if let Some(v) = queue.pop_front() {
                        self.flows.entry(input.clone()).or_default().push(v);
                    }
                }
            }
        }
        for (output, signal) in &component.outputs {
            if let Some(v) = component.simulator.last_value(*signal) {
                self.flows.entry(output.clone()).or_default().push(v);
                if let Some(queue) = self.channels.get_mut(output) {
                    queue.push_back(v);
                }
            }
        }
        StepOutcome::Progress
    }

    /// Runs `turns` attempts, visiting the components in round-robin order.
    /// Returns the number of successful reactions performed.
    pub fn run_round_robin(&mut self, turns: usize) -> u64 {
        let before = self.reactions;
        for turn in 0..turns {
            let id = turn % self.components.len();
            self.step_component(id);
        }
        self.reactions - before
    }

    /// Runs round-robin rounds until the network is *quiescent* — no flow
    /// grew over several consecutive full rounds, so every component is
    /// either finished (its environment streams are exhausted) or blocked on
    /// a value that will never arrive — or until `max_turns` attempts were
    /// made.  Returns the number of successful reactions performed.
    ///
    /// Quiescence is detected on flow growth rather than on reactions:
    /// components whose activation forces a tick keep performing silent
    /// reactions forever, and a reaction that only moves a token between
    /// FIFOs grows no flow either, so the stagnation window spans several
    /// rounds before the run is declared over.
    pub fn run_until_quiescent(&mut self, max_turns: usize) -> u64 {
        let before = self.reactions;
        let round = self.components.len().max(1);
        let stagnation_window = 4 * round + 4;
        let mut stagnant = 0usize;
        let mut last_volume: usize = self.flows.values().map(Vec::len).sum();
        let mut turn = 0usize;
        while turn < max_turns && stagnant < stagnation_window {
            for _ in 0..round {
                if turn >= max_turns {
                    break;
                }
                self.step_component(turn % round);
                turn += 1;
            }
            let volume: usize = self.flows.values().map(Vec::len).sum();
            if volume > last_volume {
                stagnant = 0;
                last_volume = volume;
            } else {
                stagnant += 1;
            }
        }
        self.reactions - before
    }

    /// Runs `turns` attempts, picking the component to run uniformly at
    /// random — the arbitrary interleaving of an asynchronous environment.
    pub fn run_random(&mut self, turns: usize, seed: u64) -> u64 {
        let before = self.reactions;
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..turns {
            let id = rng.gen_range(0..self.components.len());
            self.step_component(id);
        }
        self.reactions - before
    }
}

impl Default for AsyncNetwork {
    fn default() -> Self {
        AsyncNetwork::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_lang::stdlib;

    /// Asynchronous filter | merge: the flows must match the synchronous
    /// execution regardless of the interleaving (isochrony, Section 1 of the
    /// paper).
    #[test]
    fn filter_merge_async_flows_match_the_paper() {
        let filter = stdlib::filter().normalize().unwrap();
        let merge = stdlib::merge()
            .instantiate("m", &[("c", "c"), ("y", "x"), ("z", "z"), ("d", "d")])
            .normalize()
            .unwrap();
        let mut net = AsyncNetwork::new();
        net.add_component("filter", &filter, Vec::<Name>::new());
        net.add_component("merge", &merge, Vec::<Name>::new());
        // Paper flows: x(filter input y) = 1 0 0 1, c = 0 1 1 0, z = 1 0 1 0.
        net.feed_paced("y", [true, false, false, true]);
        net.feed_paced("c", [false, true, true, false]);
        net.feed("z", [true, false]);
        net.run_round_robin(64);
        // d = 1 1 1 0 as in the paper.
        assert_eq!(
            net.flow("d"),
            vec![
                Value::Bool(true),
                Value::Bool(true),
                Value::Bool(true),
                Value::Bool(false)
            ]
        );
        // The filter emitted x = 1 1 (two changes).
        assert_eq!(net.flow("x"), vec![Value::Bool(true), Value::Bool(true)]);
    }

    #[test]
    fn random_interleavings_produce_the_same_flows() {
        let mut reference: Option<Vec<Value>> = None;
        for seed in [1u64, 7, 42, 1234] {
            let filter = stdlib::filter().normalize().unwrap();
            let merge = stdlib::merge()
                .instantiate("m", &[("c", "c"), ("y", "x"), ("z", "z"), ("d", "d")])
                .normalize()
                .unwrap();
            let mut net = AsyncNetwork::new();
            net.add_component("filter", &filter, Vec::<Name>::new());
            net.add_component("merge", &merge, Vec::<Name>::new());
            net.feed_paced("y", [true, false, false, true, true, false]);
            net.feed_paced("c", [false, true, true, false, true, false]);
            net.feed("z", [true, false, true]);
            net.run_random(256, seed);
            let d = net.flow("d");
            match &reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(r, &d, "seed {seed} produced different flows"),
            }
        }
    }

    #[test]
    fn buffer_chain_blocks_until_data_arrives() {
        let buffer = stdlib::buffer().normalize().unwrap();
        let mut net = AsyncNetwork::new();
        net.add_component("buffer", &buffer, ["t"]);
        // No data yet: the first read attempt blocks (its clock requires y).
        assert_eq!(net.step_component(0), StepOutcome::Blocked);
        net.feed("y", [true, false]);
        // Read then write, twice.
        let progressed = net.run_round_robin(8);
        assert!(progressed >= 4);
        assert_eq!(net.flow("x"), vec![Value::Bool(true), Value::Bool(false)]);
        assert!(net.blocked_attempts() >= 1);
    }

    #[test]
    fn producer_consumer_network_propagates_x() {
        let producer = stdlib::producer().normalize().unwrap();
        let consumer = stdlib::consumer().normalize().unwrap();
        let mut net = AsyncNetwork::new();
        net.add_component("producer", &producer, Vec::<Name>::new());
        net.add_component("consumer", &consumer, Vec::<Name>::new());
        // a = T F T F ..., b = F T F T ... so that [not a] and [b] line up.
        net.feed_paced("a", [true, false, true, false]);
        net.feed_paced("b", [false, true, false, true]);
        net.run_round_robin(64);
        // x counts 1, 2 on the false instants of a; v adds 1 when b is false
        // and the current x when b is true: v = 1, 2, 3, 5.
        assert_eq!(net.flow("x"), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(
            net.flow("v"),
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(5)]
        );
    }

    #[test]
    fn quiescence_is_reached_once_the_streams_are_drained() {
        let producer = stdlib::producer().normalize().unwrap();
        let consumer = stdlib::consumer().normalize().unwrap();
        let mut net = AsyncNetwork::new();
        net.add_component("producer", &producer, Vec::<Name>::new());
        net.add_component("consumer", &consumer, Vec::<Name>::new());
        net.feed_paced("a", [true, false, true, false]);
        net.feed_paced("b", [false, true, false, true]);
        let reacted = net.run_until_quiescent(10_000);
        assert!(reacted >= 8, "only {reacted} reactions before quiescence");
        assert_eq!(net.flow("x"), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(
            net.flow("v"),
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(5)]
        );
        // Running further changes nothing: the network is quiescent.
        let more = net.run_until_quiescent(1_000);
        let after = net.flow("v");
        assert_eq!(
            after.len(),
            4,
            "quiescent network grew a flow ({more} reactions)"
        );
    }

    #[test]
    fn component_metadata_is_accessible() {
        let filter = stdlib::filter().normalize().unwrap();
        let mut net = AsyncNetwork::default();
        let id = net.add_component("f", &filter, Vec::<Name>::new());
        assert_eq!(net.component_count(), 1);
        assert_eq!(net.component_name(id), "f");
        assert_eq!(net.reactions(), 0);
    }
}
