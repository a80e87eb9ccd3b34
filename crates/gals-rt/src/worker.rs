//! The per-component step driver and the channels of an island.
//!
//! A [`Driver`] owns one [`StepMachine`] and its channel ends and advances
//! it **cooperatively**: [`Driver::drive`] steps the machine up to a
//! quantum of reactions and, instead of parking the OS thread, returns
//! [`DriveOutcome::Pending`] when progress needs a peer — a token on an
//! empty upstream edge, or room in a full downstream buffer.  The pool
//! scheduler ([`crate::sched`]) drives the members of an island in
//! topological order, sweep after sweep, so one dispatch calls `drive`
//! many times; the driver therefore maps the machine's ports to their
//! channels once, at construction, and its hot path keys nothing by
//! signal name.
//!
//! **An island owns its channels.**  Every edge of the topology joins two
//! members of one island, and it is a [`Slot`]: a plain bounded FIFO
//! at the edge's resolved capacity with a close flag per side.  The
//! island keeps its slots beside its members and hands them to each
//! `drive`, which reads and publishes them by index — no atomics, no
//! shared pointer, no virtual call.  The island runs on one worker at a
//! time and moves between workers under its cell's mutex, which is all
//! the synchronization the slots need.  A slot has the channel contract
//! of the ring: a publish at capacity is refused (its length is the
//! occupancy the trace records), a finished producer closes its slots and
//! the consumer drains them before it sees the close, and a finished
//! consumer closes its slots so the producer's publish reports `Closed`.
//!
//! Every other channel end is an *endpoint* ([`TokenTx`]/[`TokenRx`]),
//! read with `try_recv` and written with `try_send`: a served tenant's
//! ingress and egress (SPSC rings), and a *link* — an endpoint the
//! deployment did not mint, such as a partition's cut edge on a socket.
//! A medium that moves tokens from its own thread wakes the island
//! ([`TokenRx::set_waker`]).  The tokens taken from an incoming link are
//! kept, so the outcome still carries the cut signal as received.
//!
//! A refused step is a *suspension*, not a failure: the machine names the
//! input port its reaction waits on ([`StepFault::NeedInput`]) and may
//! keep the partial reaction, and the driver steps it again only once it
//! has fed that port a token.  A machine that knows its next reaction's
//! first read in advance says so ([`StepMachine::demand`]), and the
//! driver takes that token before the attempt, so the read is never
//! refused at all.  A member re-driven while its edge is still empty
//! (another sweep of its island, a spurious wake) therefore costs one
//! receive attempt, never a refused step.
//!
//! The pool is the only executor, so nothing here ever blocks: an empty
//! or full edge is always a `Pending` that hands the thread back to the
//! scheduler.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::task::Waker;

use signal_lang::{Name, Value};

use crate::channel::{TokenRx, TokenTx, TryRecvError, TrySendError};
use crate::machine::{StepFault, StepMachine};
use crate::stats::{ComponentStats, StopReason};
use crate::trace::{BlockDirection, TraceBuffer};

/// What one [`Driver::drive`] dispatch concluded.
#[derive(Debug)]
pub(crate) enum DriveOutcome {
    /// The quantum was exhausted with the machine still runnable.
    Yielded,
    /// The machine is blocked on a channel edge: its reaction waits on an
    /// empty input, or a produced token found a consumer's buffer full.
    /// Re-drive once that edge moves.
    Pending,
    /// The machine will never react again.
    Done(StopReason),
}

/// One edge inside an island: a bounded FIFO whose two ends are members
/// of the island, owned by the island and addressed by index.
#[derive(Debug)]
pub(crate) struct Slot {
    queue: VecDeque<Value>,
    capacity: usize,
    /// The producer finished: once drained, a receive reports the close.
    tx_closed: bool,
    /// The consumer finished: a publish reports `Closed`.
    rx_closed: bool,
}

impl Slot {
    /// An open, empty slot of `capacity` tokens.
    pub(crate) fn new(capacity: usize) -> Slot {
        Slot {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            tx_closed: false,
            rx_closed: false,
        }
    }

    fn try_send(&mut self, token: Value) -> Result<(), TrySendError> {
        if self.rx_closed {
            Err(TrySendError::Closed)
        } else if self.queue.len() >= self.capacity {
            Err(TrySendError::Full)
        } else {
            self.queue.push_back(token);
            Ok(())
        }
    }

    fn try_recv(&mut self) -> Result<Value, TryRecvError> {
        match self.queue.pop_front() {
            Some(token) => Ok(token),
            None if self.tx_closed => Err(TryRecvError::Closed),
            None => Err(TryRecvError::Empty),
        }
    }

    /// The consumer is gone: its buffered tokens can never be read.
    fn close_rx(&mut self) {
        self.rx_closed = true;
        self.queue = VecDeque::new();
    }
}

/// Where an input port's tokens come from.
pub(crate) enum Inbound {
    /// The island's slot of this index.
    Slot(usize),
    /// An ingress or a link.
    Endpoint(Box<dyn TokenRx>),
}

/// Where an output port's tokens go, per consumer.
pub(crate) enum Outbound {
    /// The island's slot of this index.
    Slot(usize),
    /// An egress or a link.
    Endpoint(Box<dyn TokenTx>),
}

/// One channel-fed input port of a driver.
struct Source {
    signal: Name,
    from: Inbound,
    /// Whether the edge is really an *environment* ingress edge (a staged
    /// deployment streams its env inputs over channels instead of
    /// preloading them): its close is the normal end of the input stream,
    /// reported as [`StopReason::EnvironmentExhausted`] rather than the
    /// mid-pipeline [`StopReason::UpstreamClosed`].
    environment: bool,
    /// The tokens taken so far, for an incoming link (`None` for a
    /// channel the deployment minted): a partition's outcome reports the
    /// cut signal as received.
    received: Option<Vec<Value>>,
}

/// One channel-fed output port of a driver and its publication state.
struct Sink {
    /// The machine's output port.
    port: usize,
    signal: Name,
    /// One channel per consumer (`None` once that consumer terminated and
    /// its channel closed).
    txs: Vec<Option<Outbound>>,
    /// Publication cursor into `machine.output(port)`.
    cursor: usize,
    /// Mid-value publication state: the consumer to resume a partially
    /// broadcast token at (the value is `machine.output(port)[cursor]`).
    resume: usize,
}

/// A resumable step driver: one machine, its channel ends, its counters.
///
/// Ports are mapped to channels once, at construction: a refusal or a
/// demand names its input port, which indexes `sources` directly, and a
/// flush walks the sinks in order, so no map keyed by signal name is
/// touched on the hot path.
pub(crate) struct Driver {
    machine: Box<dyn StepMachine>,
    /// The channel feeding each input port (`None`: a preloaded
    /// environment stream).
    sources: Vec<Option<Source>>,
    sinks: Vec<Sink>,
    /// Whether a publication stalled on a full channel, leaving produced
    /// tokens unpublished: only then does a drive start with a flush.
    backlog: bool,
    /// The input port the machine's reaction is suspended on, until the
    /// driver feeds it a token.  The machine is not stepped again before.
    suspended_on: Option<usize>,
    /// Whether the suspension's wait episode is already charged to
    /// `blocked_reads`, so a re-drive that finds the same edge still empty
    /// (a spurious wake, or another sweep of its island) does not count
    /// the one wait twice.
    waiting: bool,
    max_steps: u64,
    reactions: u64,
    blocked_reads: u64,
    tokens_sent: u64,
    tokens_received: u64,
    /// The component's private event recorder, when tracing is on.  It
    /// travels with the driver across pool workers, so recording never
    /// takes a lock; when `None` every record site is one branch.
    trace: Option<Box<TraceBuffer>>,
}

/// What a finished driver reports back.  The machine rides along, so its
/// produced flows are copied where the outcome is assembled (the batch
/// caller, or the client draining a served tenant), not on a pool worker.
pub(crate) struct WorkerReport {
    pub(crate) stats: ComponentStats,
    pub(crate) machine: Box<dyn StepMachine>,
    pub(crate) trace: Option<TraceBuffer>,
    /// The flow taken from each incoming link, by signal.
    pub(crate) received: Vec<(Name, Vec<Value>)>,
}

impl Driver {
    pub(crate) fn new(
        machine: Box<dyn StepMachine>,
        mut sources: BTreeMap<Name, Inbound>,
        sinks: BTreeMap<Name, Vec<Outbound>>,
        max_steps: u64,
    ) -> Self {
        let sources = machine
            .input_signals()
            .into_iter()
            .map(|signal| {
                let from = sources.remove(&signal)?;
                Some(Source {
                    signal,
                    from,
                    environment: false,
                    received: None,
                })
            })
            .collect();
        let outputs = machine.output_signals();
        let sinks = sinks
            .into_iter()
            .map(|(signal, txs)| Sink {
                port: outputs
                    .iter()
                    .position(|output| *output == signal)
                    .expect("a channel leaves one of its producer's outputs"),
                signal,
                txs: txs.into_iter().map(Some).collect(),
                cursor: 0,
                resume: 0,
            })
            .collect();
        Driver {
            machine,
            sources,
            sinks,
            backlog: false,
            suspended_on: None,
            waiting: false,
            max_steps,
            reactions: 0,
            blocked_reads: 0,
            tokens_sent: 0,
            tokens_received: 0,
            trace: None,
        }
    }

    /// Installs the event recorder (tracing on), naming the ports it
    /// counts tokens by.
    pub(crate) fn set_trace(&mut self, mut buffer: TraceBuffer) {
        let sinks = self.sinks.iter().map(|sink| sink.signal.clone()).collect();
        buffer.name_ports(self.machine.input_signals(), sinks);
        self.trace = Some(Box::new(buffer));
    }

    /// The index of every slot the driver reads or publishes, for the
    /// island that owns them to number them its own way.
    pub(crate) fn slot_indices(&mut self) -> impl Iterator<Item = &mut usize> {
        let inbound = self
            .sources
            .iter_mut()
            .flatten()
            .map(|source| &mut source.from);
        let outbound = self
            .sinks
            .iter_mut()
            .flat_map(|sink| sink.txs.iter_mut().flatten());
        inbound
            .filter_map(|from| match from {
                Inbound::Slot(k) => Some(k),
                Inbound::Endpoint(_) => None,
            })
            .chain(outbound.filter_map(|to| match to {
                Outbound::Slot(k) => Some(k),
                Outbound::Endpoint(_) => None,
            }))
    }

    /// Marks a channel-fed input as an environment ingress edge.
    pub(crate) fn mark_environment(&mut self, signal: &Name) {
        for source in self.sources.iter_mut().flatten() {
            if source.signal == *signal {
                source.environment = true;
            }
        }
    }

    /// Keeps the tokens an incoming link delivers, for the outcome.  (A
    /// link is an environment edge, marked by
    /// [`mark_environment`](Self::mark_environment).)
    pub(crate) fn keep_received(&mut self, signal: &Name) {
        for source in self.sources.iter_mut().flatten() {
            if source.signal == *signal {
                source.received = Some(Vec::new());
            }
        }
    }

    /// Hands `waker` to every endpoint of the driver; returns whether any
    /// of them will call it (a medium that moves tokens from outside the
    /// island).
    pub(crate) fn set_waker(&self, waker: &Waker) -> bool {
        let mut wakes = false;
        for source in self.sources.iter().flatten() {
            if let Inbound::Endpoint(rx) = &source.from {
                wakes |= rx.set_waker(waker);
            }
        }
        for to in self.sinks.iter().flat_map(|sink| sink.txs.iter().flatten()) {
            if let Outbound::Endpoint(tx) = to {
                wakes |= tx.set_waker(waker);
            }
        }
        wakes
    }

    /// The stop reason for observing source `port`'s channel closed: the
    /// normal end of the environment stream for an ingress edge, a
    /// mid-pipeline producer termination otherwise.
    fn closed_stop(&self, port: usize) -> StopReason {
        let source = self.source(port);
        if source.environment {
            StopReason::EnvironmentExhausted(source.signal.clone())
        } else {
            StopReason::UpstreamClosed(source.signal.clone())
        }
    }

    /// The channel feeding input port `port`, which the caller knows has
    /// one.
    fn source(&self, port: usize) -> &Source {
        self.sources[port]
            .as_ref()
            .expect("the port is fed by a channel")
    }

    /// How many tokens this driver has moved over its channels so far.
    pub(crate) fn tokens_moved(&self) -> u64 {
        self.tokens_sent + self.tokens_received
    }

    /// How many reactions the machine has completed so far.
    pub(crate) fn reactions(&self) -> u64 {
        self.reactions
    }

    /// Publishes every not-yet-published produced token without blocking.
    /// Returns the sink whose broadcast stalled on a full buffer (`None`
    /// when fully flushed), remembering the stalled position so the next
    /// call resumes exactly where this one stopped and no consumer ever
    /// sees a token twice.  A stall opens (or moves) a downstream blocked
    /// episode in the trace; a completed flush closes any open one.
    fn flush(&mut self, slots: &mut [Slot]) -> Option<usize> {
        let stalled = self.publish(slots);
        self.backlog = stalled.is_some();
        if let Some(trace) = self.trace.as_deref_mut() {
            match stalled {
                Some(sink) => trace.blocked(&self.sinks[sink].signal, BlockDirection::Downstream),
                None => trace.unblocked_downstream(),
            }
        }
        stalled
    }

    /// The publication loop of [`Driver::flush`].
    fn publish(&mut self, slots: &mut [Slot]) -> Option<usize> {
        for (index, sink) in self.sinks.iter_mut().enumerate() {
            let produced = self.machine.output(sink.port);
            while sink.cursor < produced.len() {
                let value = produced[sink.cursor];
                for (idx, channel) in sink.txs.iter_mut().enumerate().skip(sink.resume) {
                    let Some(to) = channel else { continue };
                    let sent = match to {
                        Outbound::Slot(k) => slots[*k].try_send(value),
                        Outbound::Endpoint(tx) => tx.try_send(value),
                    };
                    match sent {
                        Ok(()) => {
                            self.tokens_sent += 1;
                            if let Some(trace) = self.trace.as_deref_mut() {
                                let occupancy = match to {
                                    Outbound::Slot(k) => Some(slots[*k].queue.len()),
                                    Outbound::Endpoint(tx) => tx.occupancy(),
                                };
                                trace.sent(index, idx, occupancy);
                            }
                        }
                        Err(TrySendError::Closed) => *channel = None,
                        Err(TrySendError::Full) => {
                            sink.resume = idx;
                            return Some(index);
                        }
                    }
                }
                sink.resume = 0;
                sink.cursor += 1;
            }
        }
        None
    }

    /// Advances the machine by up to `quantum` reactions without ever
    /// blocking the OS thread: a full or empty channel edge surfaces as
    /// [`DriveOutcome::Pending`] instead of a parked wait.  `slots` are
    /// the channels of the driver's island.  A broadcast that stalled is
    /// completed before new reactions are attempted.
    pub(crate) fn drive(&mut self, quantum: u64, slots: &mut [Slot]) -> DriveOutcome {
        if self.backlog && self.flush(slots).is_some() {
            return DriveOutcome::Pending;
        }
        let mut steps = 0u64;
        loop {
            if self.reactions >= self.max_steps {
                return DriveOutcome::Done(StopReason::StepLimit);
            }
            if steps >= quantum {
                return DriveOutcome::Yielded;
            }
            // A suspended reaction resumes only with its token in hand, and
            // a reaction whose first read is known gets its token first.
            if let Some(port) = self.suspended_on.or_else(|| self.machine.demand()) {
                if matches!(self.sources.get(port), Some(Some(_))) {
                    if let Some(outcome) = self.receive(port, slots) {
                        return outcome;
                    }
                }
            }
            let begin = self.trace.as_ref().map(|trace| trace.now());
            // A panicking machine is a fault of its component alone: it
            // stops like any other fault, closing its channels, instead of
            // unwinding into the thread that drives it.
            let step = panic::catch_unwind(AssertUnwindSafe(|| self.machine.try_step()))
                .unwrap_or_else(|payload| Err(StepFault::Fault(panic_message(&*payload))));
            match step {
                Ok(()) => {
                    self.reactions += 1;
                    steps += 1;
                    if let (Some(trace), Some(begin)) = (self.trace.as_deref_mut(), begin) {
                        trace.reaction(begin);
                    }
                    if self.flush(slots).is_some() {
                        return DriveOutcome::Pending;
                    }
                }
                Err(StepFault::NeedInput(port)) => {
                    if !matches!(self.sources.get(port), Some(Some(_))) {
                        // No channel feeds the port: its preloaded
                        // environment stream ran dry.
                        return DriveOutcome::Done(match self.machine.input_signals().get(port) {
                            Some(signal) => StopReason::EnvironmentExhausted(signal.clone()),
                            None => StopReason::Fault(format!("no input port {port}")),
                        });
                    }
                    self.suspended_on = Some(port);
                }
                Err(StepFault::Fault(message)) => {
                    return DriveOutcome::Done(StopReason::Fault(message));
                }
            }
        }
    }

    /// Takes one token from input port `port`'s channel into the machine,
    /// ending the wait on it.  Returns the outcome that ends the drive
    /// instead when the edge is empty (one wait episode counts once,
    /// however many re-drives find it still empty) or closed.
    fn receive(&mut self, port: usize, slots: &mut [Slot]) -> Option<DriveOutcome> {
        let received = match &self.source(port).from {
            Inbound::Slot(k) => slots[*k].try_recv(),
            Inbound::Endpoint(rx) => rx.try_recv(),
        };
        match received {
            Ok(value) => {
                self.fed(port, value, slots);
                None
            }
            Err(TryRecvError::Closed) => Some(DriveOutcome::Done(self.closed_stop(port))),
            Err(TryRecvError::Empty) => {
                if !self.waiting {
                    self.blocked_reads += 1;
                    self.waiting = true;
                }
                if let (Some(trace), Some(source)) =
                    (self.trace.as_deref_mut(), self.sources[port].as_ref())
                {
                    trace.blocked(&source.signal, BlockDirection::Upstream);
                }
                Some(DriveOutcome::Pending)
            }
        }
    }

    /// Feeds a token received on input port `port` to the machine.
    fn fed(&mut self, port: usize, value: Value, slots: &[Slot]) {
        self.machine.feed(port, value);
        self.tokens_received += 1;
        self.suspended_on = None;
        self.waiting = false;
        let Some(source) = self.sources[port].as_mut() else {
            return;
        };
        if let Some(received) = source.received.as_mut() {
            received.push(value);
        }
        if let Some(trace) = self.trace.as_deref_mut() {
            let occupancy = match &source.from {
                Inbound::Slot(k) => Some(slots[*k].queue.len()),
                Inbound::Endpoint(rx) => rx.occupancy(),
            };
            trace.received(port, occupancy);
            trace.unblocked(&source.signal);
        }
    }

    /// Finalizes the driver: snapshots the counters, hands the machine
    /// back, closes its side of every slot of `slots` (its island's) and
    /// drops its endpoints, so every adjacent channel is closed (blocked
    /// peers observe the close instead of hanging).
    pub(crate) fn finish(mut self, stop: StopReason, slots: &mut [Slot]) -> WorkerReport {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.stopped(&stop);
        }
        for source in self.sources.iter().flatten() {
            if let Inbound::Slot(k) = source.from {
                slots[k].close_rx();
            }
        }
        for to in self.sinks.iter().flat_map(|sink| sink.txs.iter().flatten()) {
            if let Outbound::Slot(k) = *to {
                slots[k].tx_closed = true;
            }
        }
        let name = self.machine.machine_name().to_string();
        let received = self
            .sources
            .iter_mut()
            .flatten()
            .filter_map(|source| Some((source.signal.clone(), source.received.take()?)))
            .collect();
        WorkerReport {
            stats: ComponentStats {
                name,
                reactions: self.reactions,
                blocked_reads: self.blocked_reads,
                tokens_sent: self.tokens_sent,
                tokens_received: self.tokens_received,
                stop,
            },
            machine: self.machine,
            trace: self.trace.map(|buffer| *buffer),
            received,
        }
    }
}

/// The fault message of a caught machine panic.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload");
    format!("machine panicked: {message}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_keeps_the_channel_contract() {
        // Bounded: a publish at capacity is refused, and the length is the
        // occupancy.
        let mut slot = Slot::new(2);
        assert_eq!(slot.try_recv(), Err(TryRecvError::Empty));
        slot.try_send(Value::Int(1)).expect("room");
        slot.try_send(Value::Int(2)).expect("room");
        assert_eq!(slot.try_send(Value::Int(3)), Err(TrySendError::Full));
        assert_eq!(slot.queue.len(), 2);
        // Close-then-drain: the consumer of a finished producer reads every
        // buffered token before it sees the close.
        slot.tx_closed = true;
        assert_eq!(slot.try_recv(), Ok(Value::Int(1)));
        assert_eq!(slot.try_recv(), Ok(Value::Int(2)));
        assert_eq!(slot.try_recv(), Err(TryRecvError::Closed));
        // A finished consumer refuses the producer's publish as closed.
        let mut slot = Slot::new(1);
        slot.try_send(Value::Bool(true)).expect("room");
        slot.close_rx();
        assert_eq!(slot.try_send(Value::Bool(false)), Err(TrySendError::Closed));
        assert!(slot.queue.is_empty());
    }
}
