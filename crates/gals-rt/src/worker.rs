//! The per-component step driver.
//!
//! A [`Driver`] owns one [`StepMachine`] and its channel endpoints and
//! advances it **cooperatively**: [`Driver::drive`] steps the machine up to
//! a quantum of reactions and, instead of parking the OS thread, returns
//! [`DriveOutcome::Pending`] when progress needs a peer — a token on an
//! empty upstream edge, or room in a full downstream buffer.  The pool
//! scheduler ([`crate::sched`]) drives the members of an island in
//! topological order, sweep after sweep, so one dispatch calls `drive`
//! many times; the driver therefore maps the machine's ports to their
//! channels once, at construction, and its hot path keys nothing by
//! signal name.
//!
//! A refused step is a *suspension*, not a failure: the machine names the
//! input port its reaction waits on ([`StepFault::NeedInput`]) and may
//! keep the partial reaction, and the driver steps it again only once it
//! has fed that port a token.  A member re-driven while its edge is still
//! empty (another sweep of its island, a spurious wake) therefore costs
//! one `try_recv`, never a refused step.
//!
//! The pool is the only executor, so nothing here ever blocks: an empty
//! or full edge is always a `Pending` that hands the thread back to the
//! scheduler.  That holds for a *link* too — an endpoint the deployment
//! did not mint (a partition's cut edge on a socket): the driver reads
//! it with `try_recv` and publishes to it with `try_send` like any ring,
//! and the medium wakes the island when it moves
//! ([`TokenRx::set_waker`]).  The tokens taken from an incoming link are
//! kept, so the outcome still carries the cut signal as received.
//!
//! The driver is written purely against the [`transport`](crate::transport)
//! endpoint API: which medium carries the tokens (the lock-free SPSC
//! ring, shared memory, a socket) is the deployment's business, not the
//! driver's.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::task::Waker;

use signal_lang::{Name, Value};

use crate::machine::{StepFault, StepMachine};
use crate::stats::{ComponentStats, StopReason};
use crate::trace::{BlockDirection, TraceBuffer};
use crate::transport::{TokenRx, TokenTx, TryRecvError, TrySendError};

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

/// One channel-fed input port of a driver.
struct Source {
    signal: Name,
    rx: Box<dyn TokenRx>,
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
    /// One sending endpoint per consumer (`None` once that consumer
    /// terminated and its channel closed).
    txs: Vec<Option<Box<dyn TokenTx>>>,
    /// Publication cursor into `machine.output(port)`.
    cursor: usize,
    /// Mid-value publication state: the consumer to resume a partially
    /// broadcast token at (the value is `machine.output(port)[cursor]`).
    resume: usize,
}

/// A resumable step driver: one machine, its endpoints, its counters.
///
/// Ports are mapped to channels once, at construction: a refusal names
/// its input port, which indexes `sources` directly, and a flush walks
/// the sinks in order, so no map keyed by signal name is touched on the
/// hot path.
pub(crate) struct Driver {
    machine: Box<dyn StepMachine>,
    /// The channel feeding each input port (`None`: a preloaded
    /// environment stream).
    sources: Vec<Option<Source>>,
    sinks: Vec<Sink>,
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
        mut sources: BTreeMap<Name, Box<dyn TokenRx>>,
        sinks: BTreeMap<Name, Vec<Box<dyn TokenTx>>>,
        max_steps: u64,
    ) -> Self {
        let sources = machine
            .input_signals()
            .into_iter()
            .map(|signal| {
                let rx = sources.remove(&signal)?;
                Some(Source {
                    signal,
                    rx,
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

    /// Installs the event recorder (tracing on).
    pub(crate) fn set_trace(&mut self, buffer: TraceBuffer) {
        self.trace = Some(Box::new(buffer));
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
            wakes |= source.rx.set_waker(waker);
        }
        for tx in self.sinks.iter().flat_map(|sink| sink.txs.iter().flatten()) {
            wakes |= tx.set_waker(waker);
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
    fn flush(&mut self) -> Option<usize> {
        let stalled = self.publish();
        if let Some(trace) = self.trace.as_deref_mut() {
            match stalled {
                Some(sink) => trace.blocked(&self.sinks[sink].signal, BlockDirection::Downstream),
                None => trace.unblocked_downstream(),
            }
        }
        stalled
    }

    /// The publication loop of [`Driver::flush`].
    fn publish(&mut self) -> Option<usize> {
        for (index, sink) in self.sinks.iter_mut().enumerate() {
            let produced = self.machine.output(sink.port);
            while sink.cursor < produced.len() {
                let value = produced[sink.cursor];
                for (idx, slot) in sink.txs.iter_mut().enumerate().skip(sink.resume) {
                    let Some(tx) = slot else { continue };
                    match tx.try_send(value) {
                        Ok(()) => {
                            self.tokens_sent += 1;
                            if let Some(trace) = self.trace.as_deref_mut() {
                                trace.sent(&sink.signal, idx, tx.occupancy());
                            }
                        }
                        Err(TrySendError::Closed) => *slot = None,
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
    /// [`DriveOutcome::Pending`] instead of a parked wait.  Outstanding
    /// unpublished tokens are flushed before new reactions are attempted,
    /// so a resumed driver first completes the broadcast it stalled in.
    pub(crate) fn drive(&mut self, quantum: u64) -> DriveOutcome {
        if self.flush().is_some() {
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
            // A suspended reaction resumes only with its token in hand.
            if let Some(port) = self.suspended_on {
                if let Some(outcome) = self.receive(port) {
                    return outcome;
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
                    if self.flush().is_some() {
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
    /// ending the suspension on it.  Returns the outcome that ends the
    /// drive instead when the edge is empty (one wait episode counts once,
    /// however many re-drives find it still empty) or closed.
    fn receive(&mut self, port: usize) -> Option<DriveOutcome> {
        match self.source(port).rx.try_recv() {
            Ok(value) => {
                self.fed(port, value);
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

    /// Feeds a token received on input port `port` to the suspended
    /// machine.
    fn fed(&mut self, port: usize, value: Value) {
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
            trace.received(&source.signal, source.rx.occupancy());
            trace.unblocked(&source.signal);
        }
    }

    /// Finalizes the driver: snapshots the counters, hands the machine
    /// back, and drops the endpoints, which closes every adjacent channel
    /// (blocked peers observe the close instead of hanging).
    pub(crate) fn finish(mut self, stop: StopReason) -> WorkerReport {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.stopped(&stop);
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
