//! The per-component step driver.
//!
//! A [`Driver`] owns one [`StepMachine`] and its channel endpoints and
//! advances it **cooperatively**: [`Driver::drive`] steps the machine up to
//! a quantum of reactions and, instead of parking the OS thread, returns
//! [`DriveOutcome::Pending`] when progress needs a peer — a token on an
//! empty upstream edge, or room in a full downstream buffer.  The pool
//! scheduler ([`crate::sched`]) drives the members of an island in
//! topological order, sweep after sweep, so one dispatch calls `drive`
//! many times; the driver therefore indexes its ports densely once, at
//! construction, and its hot path keys nothing by signal name.
//!
//! The classic one-OS-thread-per-component execution is the degenerate
//! client of the same driver: [`run_dedicated`] drives with an unbounded
//! quantum and serves each `Pending` with the endpoint's *blocking*
//! `recv`/`send` — exactly the backpressure loop of earlier releases.
//!
//! The driver is written purely against the [`transport`](crate::transport)
//! endpoint API: which medium carries the tokens (the lock-free SPSC
//! ring, shared memory, a socket) is the deployment's business, not the
//! driver's.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use signal_lang::Name;

use crate::machine::{StepFault, StepMachine};
use crate::stats::{ComponentStats, StopReason};
use crate::trace::{BlockDirection, TraceBuffer};
use crate::transport::{TokenRx, TokenTx, TryRecvError, TrySendError};

/// The edge a cooperative driver is blocked on, by port index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pending {
    /// The machine needs a token on this source and the buffer is empty:
    /// runnable again once the upstream producer delivers.
    Upstream(usize),
    /// A produced token on this sink could not be published because a
    /// consumer's buffer is full: runnable again once that consumer drains.
    Downstream(usize),
}

/// What one [`Driver::drive`] dispatch concluded.
#[derive(Debug)]
pub(crate) enum DriveOutcome {
    /// The quantum was exhausted with the machine still runnable.
    Yielded,
    /// The machine is blocked on a channel edge; re-drive once it moves.
    Pending(Pending),
    /// The machine will never react again.
    Done(StopReason),
}

/// One channel-fed input of a driver.
struct Source {
    signal: Name,
    rx: Box<dyn TokenRx>,
    /// Whether the edge is really an *environment* ingress edge (a staged
    /// deployment streams its env inputs over channels instead of
    /// preloading them): its close is the normal end of the input stream,
    /// reported as [`StopReason::EnvironmentExhausted`] rather than the
    /// mid-pipeline [`StopReason::UpstreamClosed`].
    environment: bool,
}

/// One channel-fed output of a driver and its publication state.
struct Sink {
    signal: Name,
    /// One sending endpoint per consumer (`None` once that consumer
    /// terminated and its channel closed).
    txs: Vec<Option<Box<dyn TokenTx>>>,
    /// Publication cursor into `machine.produced(signal)`.
    cursor: usize,
    /// Mid-value publication state: the consumer to resume a partially
    /// broadcast token at (the value is `produced[cursor]`).
    resume: usize,
}

/// A resumable step driver: one machine, its endpoints, its counters.
///
/// Ports are indexed densely once, at construction: a step names the
/// source it needs only to find its index (a binary search), and a flush
/// walks the sinks in order, so no map keyed by signal name is touched on
/// the hot path.
pub(crate) struct Driver {
    machine: Box<dyn StepMachine>,
    /// Channel-fed inputs, sorted by signal name.
    sources: Vec<Source>,
    sinks: Vec<Sink>,
    /// The source of the wait episode currently charged to
    /// `blocked_reads`, so a re-drive that finds the same edge still empty
    /// (a spurious wake, or another sweep of its island) does not count
    /// the one wait twice.
    waiting_on: Option<usize>,
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
}

impl Driver {
    pub(crate) fn new(
        machine: Box<dyn StepMachine>,
        sources: BTreeMap<Name, Box<dyn TokenRx>>,
        sinks: BTreeMap<Name, Vec<Box<dyn TokenTx>>>,
        max_steps: u64,
    ) -> Self {
        let sources = sources
            .into_iter()
            .map(|(signal, rx)| Source {
                signal,
                rx,
                environment: false,
            })
            .collect();
        let sinks = sinks
            .into_iter()
            .map(|(signal, txs)| Sink {
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
            waiting_on: None,
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
        for source in &mut self.sources {
            if source.signal == *signal {
                source.environment = true;
            }
        }
    }

    /// The stop reason for observing source `port`'s channel closed: the
    /// normal end of the environment stream for an ingress edge, a
    /// mid-pipeline producer termination otherwise.
    fn closed_stop(&self, port: usize) -> StopReason {
        let source = &self.sources[port];
        if source.environment {
            StopReason::EnvironmentExhausted(source.signal.clone())
        } else {
            StopReason::UpstreamClosed(source.signal.clone())
        }
    }

    /// How many tokens this driver has moved over its channels so far.
    pub(crate) fn tokens_moved(&self) -> u64 {
        self.tokens_sent + self.tokens_received
    }

    /// How many reactions the machine has completed so far.
    pub(crate) fn reactions(&self) -> u64 {
        self.reactions
    }

    /// Publishes every not-yet-published produced token.  Non-blocking by
    /// default: returns the sink whose broadcast stalled on a full buffer
    /// (`None` when fully flushed), remembering the stalled position so
    /// the next call resumes exactly where this one stopped and no
    /// consumer ever sees a token twice.  With `blocking` (the
    /// dedicated-thread mode, where waiting on a full buffer *is* the
    /// backpressure mechanism), a full buffer is waited out instead and
    /// the flush always completes.
    fn flush(&mut self, blocking: bool) -> Option<usize> {
        for (port, sink) in self.sinks.iter_mut().enumerate() {
            let produced = self.machine.produced(sink.signal.as_str());
            while sink.cursor < produced.len() {
                let value = produced[sink.cursor];
                for (idx, slot) in sink.txs.iter_mut().enumerate().skip(sink.resume) {
                    let Some(tx) = slot else { continue };
                    let sent = if !blocking {
                        tx.try_send(value)
                    } else if self.trace.is_none() {
                        tx.send(value).map_err(|_closed| TrySendError::Closed)
                    } else {
                        // Traced blocking send: probe first so the wait on
                        // a full buffer surfaces as a blocked episode.
                        match tx.try_send(value) {
                            Err(TrySendError::Full) => {
                                if let Some(trace) = self.trace.as_deref_mut() {
                                    trace.blocked(&sink.signal, BlockDirection::Downstream);
                                }
                                let result = tx.send(value).map_err(|_closed| TrySendError::Closed);
                                if let Some(trace) = self.trace.as_deref_mut() {
                                    trace.unblocked(&sink.signal);
                                }
                                result
                            }
                            other => other,
                        }
                    };
                    match sent {
                        Ok(()) => {
                            self.tokens_sent += 1;
                            if let Some(trace) = self.trace.as_deref_mut() {
                                trace.sent(&sink.signal, idx, tx.occupancy());
                            }
                        }
                        Err(TrySendError::Closed) => *slot = None,
                        Err(TrySendError::Full) => {
                            sink.resume = idx;
                            return Some(port);
                        }
                    }
                }
                sink.resume = 0;
                sink.cursor += 1;
            }
        }
        None
    }

    /// [`Driver::flush`], non-blocking, with the blocked-episode
    /// bookkeeping of the cooperative path: a stall opens (or moves) a
    /// downstream episode, a completed flush closes any open one.
    fn flush_cooperative(&mut self) -> Option<usize> {
        let stalled = self.flush(false);
        if let Some(trace) = self.trace.as_deref_mut() {
            match stalled {
                Some(port) => trace.blocked(&self.sinks[port].signal, BlockDirection::Downstream),
                None => trace.unblocked_downstream(),
            }
        }
        stalled
    }

    /// Advances the machine by up to `quantum` reactions without ever
    /// blocking the OS thread: a full or empty channel edge surfaces as
    /// [`DriveOutcome::Pending`] instead of a parked wait.  Outstanding
    /// unpublished tokens are flushed before new reactions are attempted,
    /// so a resumed driver first completes the broadcast it stalled in.
    pub(crate) fn drive(&mut self, quantum: u64) -> DriveOutcome {
        if let Some(port) = self.flush_cooperative() {
            return DriveOutcome::Pending(Pending::Downstream(port));
        }
        let mut steps = 0u64;
        loop {
            if self.reactions >= self.max_steps {
                return DriveOutcome::Done(StopReason::StepLimit);
            }
            if steps >= quantum {
                return DriveOutcome::Yielded;
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
                    if let Some(port) = self.flush_cooperative() {
                        return DriveOutcome::Pending(Pending::Downstream(port));
                    }
                }
                Err(StepFault::NeedInput(signal)) => {
                    let Ok(port) = self.sources.binary_search_by(|s| s.signal.cmp(&signal)) else {
                        return DriveOutcome::Done(StopReason::EnvironmentExhausted(signal));
                    };
                    // The machine state is unchanged on `NeedInput`, so the
                    // retried step re-solves the same instant with the
                    // token available.  Only a read that finds the buffer
                    // empty counts as blocked.
                    let source = &self.sources[port];
                    match source.rx.try_recv() {
                        Ok(value) => {
                            self.machine.feed_value(signal.as_str(), value);
                            self.tokens_received += 1;
                            self.waiting_on = None;
                            if let Some(trace) = self.trace.as_deref_mut() {
                                trace.received(&source.signal, source.rx.occupancy());
                                trace.unblocked(&source.signal);
                            }
                        }
                        Err(TryRecvError::Closed) => {
                            return DriveOutcome::Done(self.closed_stop(port));
                        }
                        Err(TryRecvError::Empty) => {
                            // One wait episode counts once, however many
                            // re-drives find the edge still empty before a
                            // token actually arrives.
                            if self.waiting_on != Some(port) {
                                self.blocked_reads += 1;
                                self.waiting_on = Some(port);
                            }
                            if let Some(trace) = self.trace.as_deref_mut() {
                                trace.blocked(&source.signal, BlockDirection::Upstream);
                            }
                            return DriveOutcome::Pending(Pending::Upstream(port));
                        }
                    }
                }
                Err(StepFault::Fault(message)) => {
                    return DriveOutcome::Done(StopReason::Fault(message));
                }
            }
        }
    }

    /// Serves a [`Pending::Upstream`] blockage with the endpoint's
    /// *blocking* receive (dedicated-thread mode).  Returns the stop reason
    /// when the wait observed the channel close instead of a token.
    fn recv_blocking(&mut self, port: usize) -> Option<StopReason> {
        let source = &self.sources[port];
        match source.rx.recv() {
            Ok(value) => {
                self.machine.feed_value(source.signal.as_str(), value);
                self.tokens_received += 1;
                self.waiting_on = None;
                if let Some(trace) = self.trace.as_deref_mut() {
                    trace.received(&source.signal, source.rx.occupancy());
                    trace.unblocked(&source.signal);
                }
                None
            }
            Err(_closed) => Some(self.closed_stop(port)),
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

/// Runs one driver to completion on the current (dedicated) OS thread:
/// the thread-per-component execution mode, where channel waits park the
/// thread itself — blocking-read/blocking-write backpressure.
pub(crate) fn run_dedicated(mut driver: Driver) -> WorkerReport {
    let stop = loop {
        match driver.drive(u64::MAX) {
            DriveOutcome::Yielded => unreachable!("an unbounded quantum never yields"),
            DriveOutcome::Done(stop) => break stop,
            DriveOutcome::Pending(Pending::Upstream(port)) => {
                if let Some(stop) = driver.recv_blocking(port) {
                    break stop;
                }
            }
            DriveOutcome::Pending(Pending::Downstream(_)) => {
                let stalled = driver.flush(true);
                debug_assert!(stalled.is_none(), "a blocking flush always completes");
            }
        }
    };
    driver.finish(stop)
}
