//! The per-component step driver.
//!
//! A [`Driver`] owns one [`StepMachine`] and its channel endpoints and
//! advances it **cooperatively**: [`Driver::drive`] steps the machine up to
//! a quantum of reactions and, instead of parking the OS thread, returns
//! [`DriveOutcome::Pending`] when progress needs a peer — a token on an
//! empty upstream edge, or room in a full downstream buffer.  The
//! work-stealing pool scheduler ([`crate::sched`]) dispatches drivers from
//! its ready set and re-queues them when the blocking edge drains.
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

use std::collections::{BTreeMap, BTreeSet};

use signal_lang::Name;
use sim::Flows;

use crate::machine::{StepFault, StepMachine};
use crate::stats::{ComponentStats, StopReason};
use crate::trace::{BlockDirection, TraceBuffer};
use crate::transport::{TokenRx, TokenTx, TryRecvError, TrySendError};

/// The edge a cooperative driver is blocked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Pending {
    /// The machine needs a token on this channel-fed input and the buffer
    /// is empty: runnable again once the upstream producer delivers.
    Upstream(Name),
    /// A produced token on this output could not be published because a
    /// consumer's buffer is full: runnable again once that consumer drains.
    Downstream(Name),
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

/// A resumable step driver: one machine, its endpoints, its counters.
pub(crate) struct Driver {
    machine: Box<dyn StepMachine>,
    /// Upstream receiving endpoints, one per channel-fed input signal.
    sources: BTreeMap<Name, Box<dyn TokenRx>>,
    /// Downstream sending endpoints: one per consumer of each output
    /// (`None` once that consumer terminated and its channel closed).
    sinks: BTreeMap<Name, Vec<Option<Box<dyn TokenTx>>>>,
    /// Per-output publication cursors into `machine.produced(..)`.
    cursors: BTreeMap<Name, usize>,
    /// Mid-value publication state: the sink index to resume a partially
    /// broadcast token at (the value is `produced[cursor]` of the signal).
    resume_sink: BTreeMap<Name, usize>,
    /// The upstream edge of the wait episode currently charged to
    /// `blocked_reads`, so a pool re-dispatch that finds the same edge
    /// still empty (a spurious wake) does not count the one wait twice.
    waiting_on: Option<Name>,
    /// Channel-fed inputs that are really *environment* ingress edges (a
    /// staged deployment streams its env inputs over channels instead of
    /// preloading them): their close is the normal end of the input
    /// stream, reported as [`StopReason::EnvironmentExhausted`] rather
    /// than the mid-pipeline [`StopReason::UpstreamClosed`].
    env_sources: BTreeSet<Name>,
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

/// What a finished driver reports back.
pub(crate) struct WorkerReport {
    pub(crate) stats: ComponentStats,
    pub(crate) flows: Flows,
    pub(crate) trace: Option<TraceBuffer>,
}

impl Driver {
    pub(crate) fn new(
        machine: Box<dyn StepMachine>,
        sources: BTreeMap<Name, Box<dyn TokenRx>>,
        sinks: BTreeMap<Name, Vec<Box<dyn TokenTx>>>,
        max_steps: u64,
    ) -> Self {
        let cursors = machine
            .output_signals()
            .iter()
            .map(|o| (o.clone(), 0))
            .collect();
        let sinks = sinks
            .into_iter()
            .map(|(signal, txs)| (signal, txs.into_iter().map(Some).collect()))
            .collect();
        Driver {
            machine,
            sources,
            sinks,
            cursors,
            resume_sink: BTreeMap::new(),
            waiting_on: None,
            env_sources: BTreeSet::new(),
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
    pub(crate) fn mark_environment(&mut self, signal: Name) {
        self.env_sources.insert(signal);
    }

    /// The stop reason for observing `signal`'s upstream channel closed:
    /// the normal end of the environment stream for a marked ingress edge,
    /// a mid-pipeline producer termination otherwise.
    fn closed_stop(&self, signal: Name) -> StopReason {
        if self.env_sources.contains(&signal) {
            StopReason::EnvironmentExhausted(signal)
        } else {
            StopReason::UpstreamClosed(signal)
        }
    }

    /// How many tokens this driver has moved over its channels so far —
    /// the scheduler compares snapshots around a dispatch to decide whether
    /// blocked neighbors may have become runnable.
    pub(crate) fn tokens_moved(&self) -> u64 {
        self.tokens_sent + self.tokens_received
    }

    /// Publishes every not-yet-published produced token.  Non-blocking by
    /// default: returns the output signal whose broadcast stalled on a
    /// full buffer (`None` when fully flushed), remembering the stalled
    /// position so the next call resumes exactly where this one stopped
    /// and no consumer ever sees a token twice.  With `blocking` (the
    /// dedicated-thread mode, where waiting on a full buffer *is* the
    /// backpressure mechanism), a full buffer is waited out instead and
    /// the flush always completes.
    fn flush(&mut self, blocking: bool) -> Option<Name> {
        for (signal, senders) in self.sinks.iter_mut() {
            let produced = self.machine.produced(signal.as_str());
            let cursor = self.cursors.get_mut(signal).expect("output cursor");
            let mut next_sink = self.resume_sink.remove(signal).unwrap_or(0);
            while *cursor < produced.len() {
                let value = produced[*cursor];
                for (idx, slot) in senders.iter_mut().enumerate().skip(next_sink) {
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
                                    trace.blocked(signal, BlockDirection::Downstream);
                                }
                                let result = tx.send(value).map_err(|_closed| TrySendError::Closed);
                                if let Some(trace) = self.trace.as_deref_mut() {
                                    trace.unblocked(signal);
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
                                trace.sent(signal, idx, tx.occupancy());
                            }
                        }
                        Err(TrySendError::Closed) => *slot = None,
                        Err(TrySendError::Full) => {
                            self.resume_sink.insert(signal.clone(), idx);
                            return Some(signal.clone());
                        }
                    }
                }
                next_sink = 0;
                *cursor += 1;
            }
        }
        None
    }

    /// [`Driver::flush`], non-blocking, with the blocked-episode
    /// bookkeeping of the cooperative path: a stall opens (or moves) a
    /// downstream episode, a completed flush closes any open one.
    fn flush_cooperative(&mut self) -> Option<Name> {
        let stalled = self.flush(false);
        if let Some(trace) = self.trace.as_deref_mut() {
            match &stalled {
                Some(signal) => trace.blocked(signal, BlockDirection::Downstream),
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
        if let Some(signal) = self.flush_cooperative() {
            return DriveOutcome::Pending(Pending::Downstream(signal));
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
            match self.machine.try_step() {
                Ok(()) => {
                    self.reactions += 1;
                    steps += 1;
                    if let (Some(trace), Some(begin)) = (self.trace.as_deref_mut(), begin) {
                        trace.reaction(begin);
                    }
                    if let Some(signal) = self.flush_cooperative() {
                        return DriveOutcome::Pending(Pending::Downstream(signal));
                    }
                }
                Err(StepFault::NeedInput(signal)) => {
                    let Some(rx) = self.sources.get(&signal) else {
                        return DriveOutcome::Done(StopReason::EnvironmentExhausted(signal));
                    };
                    // The machine state is unchanged on `NeedInput`, so the
                    // retried step re-solves the same instant with the
                    // token available.  Only a read that finds the buffer
                    // empty counts as blocked.
                    match rx.try_recv() {
                        Ok(value) => {
                            self.machine.feed_value(signal.as_str(), value);
                            self.tokens_received += 1;
                            self.waiting_on = None;
                            if let Some(trace) = self.trace.as_deref_mut() {
                                trace.received(&signal, rx.occupancy());
                                trace.unblocked(&signal);
                            }
                        }
                        Err(TryRecvError::Closed) => {
                            return DriveOutcome::Done(self.closed_stop(signal));
                        }
                        Err(TryRecvError::Empty) => {
                            // One wait episode counts once, however many
                            // spurious re-dispatches find the edge still
                            // empty before a token actually arrives.
                            if self.waiting_on.as_ref() != Some(&signal) {
                                self.blocked_reads += 1;
                                self.waiting_on = Some(signal.clone());
                            }
                            if let Some(trace) = self.trace.as_deref_mut() {
                                trace.blocked(&signal, BlockDirection::Upstream);
                            }
                            return DriveOutcome::Pending(Pending::Upstream(signal));
                        }
                    }
                }
                Err(StepFault::Fault(message)) => {
                    return DriveOutcome::Done(StopReason::Fault(message));
                }
            }
        }
    }

    /// Serves an [`Pending::Upstream`] blockage with the endpoint's
    /// *blocking* receive (dedicated-thread mode).  Returns the stop reason
    /// when the wait observed the channel close instead of a token.
    fn recv_blocking(&mut self, signal: &Name) -> Option<StopReason> {
        let rx = self.sources.get(signal).expect("pending upstream edge");
        match rx.recv() {
            Ok(value) => {
                self.machine.feed_value(signal.as_str(), value);
                self.tokens_received += 1;
                self.waiting_on = None;
                if let Some(trace) = self.trace.as_deref_mut() {
                    trace.received(signal, rx.occupancy());
                    trace.unblocked(signal);
                }
                None
            }
            Err(_closed) => Some(self.closed_stop(signal.clone())),
        }
    }

    /// Finalizes the driver: snapshots the produced flows and counters and
    /// drops the endpoints, which closes every adjacent channel (blocked
    /// peers observe the close instead of hanging).
    pub(crate) fn finish(mut self, stop: StopReason) -> WorkerReport {
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.stopped(&stop);
        }
        let name = self.machine.machine_name().to_string();
        let flows: Flows = self
            .machine
            .output_signals()
            .iter()
            .map(|o| (o.clone(), self.machine.produced(o.as_str()).to_vec()))
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
            flows,
            trace: self.trace.map(|buffer| *buffer),
        }
    }
}

/// Runs one driver to completion on the current (dedicated) OS thread:
/// the thread-per-component execution mode, where channel waits park the
/// thread itself — blocking-read/blocking-write backpressure.
pub(crate) fn run_dedicated(mut driver: Driver) -> WorkerReport {
    let stop = loop {
        match driver.drive(u64::MAX) {
            DriveOutcome::Yielded => unreachable!("an unbounded quantum never yields"),
            DriveOutcome::Done(stop) => break stop,
            DriveOutcome::Pending(Pending::Upstream(signal)) => {
                if let Some(stop) = driver.recv_blocking(&signal) {
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
