//! Channel endpoints, channel errors and the capacity policy.
//!
//! The paper's GALS story deliberately leaves the FIFO medium abstract:
//! isochrony holds over *any* reliable order-preserving channel
//! (Theorem 1), so the medium of an edge is not a semantic choice, and
//! no setting picks it.  Each kind of edge has exactly one:
//!
//! * an edge of the topology joins two components that run in one pool
//!   island, which owns it as a plain bounded slot (`crate::worker`);
//! * a staged deployment's ingress and egress cross between the client's
//!   thread and the pool, so each is an endpoint pair ([`TokenTx`]/
//!   [`TokenRx`]) of a lock-free SPSC [`ring`](crate::ring::ring);
//! * a partition's cut edge is an endpoint the deployment did not mint,
//!   attached with `Deployment::link_input`/`link_output` (`gals-net`'s
//!   Unix sockets).
//!
//! Capacities follow one rule, kept by a crate-private policy: an edge
//! takes its per-signal override, else the derived bound of an installed
//! [`CapacityAnalysis`], else — only when no analysis is installed — the
//! default capacity.  The per-edge resolution, with its
//! [`CapacitySource`], is reported by `Deployment::topology()`.
//!
//! **Wakers.**  The pool never blocks inside a step: an island whose
//! edges are empty or full parks until something moves them.  Before it
//! is first queued, every endpoint of its members is handed the island's
//! [`Waker`]; a medium that moves tokens on a thread of its own (a
//! socket's acceptor or ack reader) calls it after each event.  The ring
//! ignores it: a client's feed or poll wakes the island itself.

use std::collections::BTreeMap;
use std::fmt;
use std::task::Waker;

use signal_lang::{Name, Value};

use crate::capacity::{CapacityAnalysis, DerivedCapacity, UnprimedCycle};

/// The peer endpoint of a channel is gone: a send can never be delivered,
/// or a receive can never be satisfied (the buffer is drained and the
/// producer dropped its endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelClosed;

impl fmt::Display for ChannelClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "the peer endpoint of the channel is closed")
    }
}

impl std::error::Error for ChannelClosed {}

/// Why a non-blocking receive returned no token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The buffer is currently empty; the producer may still deliver.
    Empty,
    /// The buffer is drained and the producer endpoint is gone.
    Closed,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "the channel is empty"),
            TryRecvError::Closed => write!(f, "the channel is closed and drained"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Why a non-blocking send did not deliver its token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError {
    /// The buffer is currently full; the consumer may still drain it.
    Full,
    /// The receiving endpoint is gone; the token can never be delivered.
    Closed,
}

impl fmt::Display for TrySendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full => write!(f, "the channel is full"),
            TrySendError::Closed => write!(f, "the channel is closed"),
        }
    }
}

impl std::error::Error for TrySendError {}

/// The sending endpoint of one bounded token channel.
///
/// Dropping the endpoint closes the channel: a blocked or later receive on
/// the peer observes [`ChannelClosed`] once the buffer is drained.
pub trait TokenTx: Send {
    /// Delivers one token, blocking while the buffer is full.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelClosed`] when the receiving endpoint is gone (the
    /// token is dropped, exactly like a send to a terminated worker).
    fn send(&self, token: Value) -> Result<(), ChannelClosed>;

    /// Delivers one token without blocking — the hook the cooperative pool
    /// scheduler uses to turn a full buffer into a yield instead of a
    /// parked OS thread.
    ///
    /// # Errors
    ///
    /// Returns [`TrySendError::Full`] when the buffer has no free slot and
    /// [`TrySendError::Closed`] when the receiving endpoint is gone.
    fn try_send(&self, token: Value) -> Result<(), TrySendError>;

    /// How many tokens the channel currently buffers, when the medium can
    /// tell (`None` otherwise).  An
    /// implementation returning `Some` must report an *instantaneous*
    /// snapshot that never exceeds the channel capacity; the tracing layer
    /// records it as the per-edge occupancy witness.
    fn occupancy(&self) -> Option<usize> {
        None
    }

    /// Installs the waker of the sending island.  A medium whose credit
    /// returns on another thread calls it whenever room frees up or the
    /// connection breaks, and returns `true`; the default returns `false`.
    fn set_waker(&self, _waker: &Waker) -> bool {
        false
    }
}

/// The receiving endpoint of one bounded token channel.
///
/// Dropping the endpoint closes the channel: a blocked or later send on
/// the peer observes [`ChannelClosed`].
pub trait TokenRx: Send {
    /// Takes the next token, blocking while the buffer is empty.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelClosed`] when the buffer is drained and the
    /// sending endpoint is gone.
    fn recv(&self) -> Result<Value, ChannelClosed>;

    /// Takes the next token without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TryRecvError::Empty`] when no token is buffered yet and
    /// [`TryRecvError::Closed`] once the channel is drained and closed.
    fn try_recv(&self) -> Result<Value, TryRecvError>;

    /// How many tokens the channel currently buffers, when the medium can
    /// tell (`None` otherwise).  Same contract as [`TokenTx::occupancy`].
    fn occupancy(&self) -> Option<usize> {
        None
    }

    /// Installs the waker of the reading island.  A medium that delivers
    /// on another thread calls it after each queued token, close or
    /// fault, and returns `true`; the default returns `false`.
    fn set_waker(&self, _waker: &Waker) -> bool {
        false
    }
}

/// A channel capacity of zero was requested.
///
/// Capacity 0 would be a rendezvous channel, which no channel here can
/// be: a step never blocks to meet its reader, so a zero-place channel
/// would refuse every publish and its producer would never get past its
/// first token — a deadlock.  The deployment rejects it up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZeroCapacity {
    /// The per-signal override that was zero, or `None` for the default
    /// capacity.
    pub signal: Option<Name>,
}

impl fmt::Display for ZeroCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.signal {
            Some(n) => write!(
                f,
                "channel capacity 0 for signal {n} would deadlock the worker loop \
                 (a rendezvous send can never be met); use a capacity of at least 1"
            ),
            None => write!(
                f,
                "channel capacity 0 would deadlock the worker loop (a rendezvous \
                 send can never be met); use a capacity of at least 1"
            ),
        }
    }
}

impl std::error::Error for ZeroCapacity {}

/// How one edge's capacity was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacitySource {
    /// The policy default capacity.
    Default,
    /// A per-signal override set by the caller.
    Override,
    /// A bound derived from the clock calculus.
    Derived,
}

impl fmt::Display for CapacitySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapacitySource::Default => write!(f, "default"),
            CapacitySource::Override => write!(f, "override"),
            CapacitySource::Derived => write!(f, "derived"),
        }
    }
}

/// The capacity one edge resolves to under the policy, with its origin
/// and (for derived edges) the derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ResolvedCapacity {
    /// The number of buffer slots the edge's channel gets.
    pub capacity: usize,
    /// Where the number came from.
    pub source: CapacitySource,
    /// The derivation provenance, for [`CapacitySource::Derived`] edges.
    pub derivation: Option<String>,
}

/// How the channels of a deployment are sized: a default capacity,
/// per-signal overrides and, once installed, a [`CapacityAnalysis`] whose
/// derived bounds replace the default.
///
/// The per-edge resolution (override, derived bound, or default) is
/// reported by `Deployment::topology()` in each `ChannelSpec`.
#[derive(Debug, Clone)]
pub(crate) struct ChannelPolicy {
    default_capacity: usize,
    overrides: BTreeMap<Name, usize>,
    analysis: Option<CapacityAnalysis>,
}

impl ChannelPolicy {
    /// The policy of the paper's concurrent scheme: every channel is a
    /// one-place buffer.
    pub fn new() -> Self {
        ChannelPolicy {
            default_capacity: 1,
            overrides: BTreeMap::new(),
            analysis: None,
        }
    }

    /// Sets the default capacity of every channel without an override.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroCapacity`] for `capacity == 0`.
    pub fn set_default_capacity(&mut self, capacity: usize) -> Result<&mut Self, ZeroCapacity> {
        if capacity == 0 {
            return Err(ZeroCapacity { signal: None });
        }
        self.default_capacity = capacity;
        Ok(self)
    }

    /// Overrides the capacity of the channels carrying one signal — the
    /// hook for per-channel bounds derived from the clock calculus (a
    /// producer twice as fast as its consumer needs a deeper buffer than a
    /// lock-step pair).
    ///
    /// An override for a signal that turns out not to be a channel (an
    /// environment input or an unknown name) is simply never consulted.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroCapacity`] for `capacity == 0`.
    pub fn set_channel_capacity(
        &mut self,
        signal: impl Into<Name>,
        capacity: usize,
    ) -> Result<&mut Self, ZeroCapacity> {
        let signal = signal.into();
        if capacity == 0 {
            return Err(ZeroCapacity {
                signal: Some(signal),
            });
        }
        self.overrides.insert(signal, capacity);
        Ok(self)
    }

    /// The default capacity of channels without an override.
    pub fn default_capacity(&self) -> usize {
        self.default_capacity
    }

    /// Installs the bounds of a [`CapacityAnalysis`] and its
    /// priming-liveness verdicts: from now on an edge without an override
    /// takes its derived bound, and an edge with neither is unbounded.
    pub fn install_derived(&mut self, analysis: &CapacityAnalysis) -> &mut Self {
        self.analysis = Some(analysis.clone());
        self
    }

    /// The derived bound installed for a signal, if any.
    pub fn derived_for(&self, signal: &Name) -> Option<&DerivedCapacity> {
        self.analysis.as_ref()?.bound_for(signal)
    }

    /// The unprimed feedback loops of the installed analysis, if any.
    pub fn unprimed_cycles(&self) -> &[UnprimedCycle] {
        self.analysis
            .as_ref()
            .map_or(&[], CapacityAnalysis::unprimed_cycles)
    }

    /// Resolves the capacity of the channels carrying `signal`: its
    /// override, else its installed derived bound, else the default
    /// capacity when no analysis is installed.  An edge an installed
    /// analysis does not bound, and no override covers, is an error (the
    /// signal is returned so the deployment can raise
    /// `DeployError::UnboundedEdge`).
    pub fn resolve(&self, signal: &Name) -> Result<ResolvedCapacity, Name> {
        if let Some(&capacity) = self.overrides.get(signal) {
            return Ok(ResolvedCapacity {
                capacity,
                source: CapacitySource::Override,
                derivation: None,
            });
        }
        let Some(analysis) = &self.analysis else {
            return Ok(ResolvedCapacity {
                capacity: self.default_capacity,
                source: CapacitySource::Default,
                derivation: None,
            });
        };
        match analysis.bound_for(signal) {
            Some(derived) => Ok(ResolvedCapacity {
                capacity: derived.bound,
                source: CapacitySource::Derived,
                derivation: Some(derived.provenance.clone()),
            }),
            None => Err(signal.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_resolves_overrides_and_defaults() {
        let mut policy = ChannelPolicy::new();
        assert_eq!(policy.default_capacity(), 1);
        policy.set_default_capacity(4).expect("nonzero");
        policy.set_channel_capacity("x", 16).expect("nonzero");
        assert_eq!(
            policy.resolve(&Name::from("x")).expect("default").capacity,
            16
        );
        assert_eq!(
            policy.resolve(&Name::from("y")).expect("default").capacity,
            4
        );
        assert_eq!(policy.overrides.len(), 1);
    }

    #[test]
    fn zero_capacities_are_rejected_with_the_culprit() {
        let mut policy = ChannelPolicy::new();
        let err = policy.set_default_capacity(0).unwrap_err();
        assert_eq!(err.signal, None);
        assert!(err.to_string().contains("deadlock"));
        let err = policy.set_channel_capacity("x", 0).unwrap_err();
        assert_eq!(err.signal, Some(Name::from("x")));
        assert!(err.to_string().contains('x'));
        // The failed sets left the policy untouched.
        assert_eq!(policy.default_capacity(), 1);
        assert!(policy.overrides.is_empty());
    }

    #[test]
    fn derived_sizing_resolves_bounds_and_flags_unbounded_edges() {
        use clocks::rate::RateRelation;
        let mut analysis = CapacityAnalysis::new();
        analysis.insert(
            "x",
            DerivedCapacity {
                bound: 2,
                relation: RateRelation::Alternating {
                    state: Name::from("t"),
                },
                provenance: "alternating on t".into(),
            },
        );
        let mut policy = ChannelPolicy::new();
        assert_eq!(
            policy.resolve(&Name::from("y")).expect("default").source,
            CapacitySource::Default
        );
        policy.install_derived(&analysis);
        let x = policy.resolve(&Name::from("x")).expect("bounded");
        assert_eq!(x.capacity, 2);
        assert_eq!(x.source, CapacitySource::Derived);
        assert!(x.derivation.as_deref().unwrap().contains("alternating"));
        // Once an analysis is installed, an edge it does not bound is an
        // error, not the default...
        assert_eq!(policy.resolve(&Name::from("y")), Err(Name::from("y")));
        // ...unless an explicit override steps in, which also wins over a
        // derived bound.
        policy.set_channel_capacity("y", 7).expect("nonzero");
        policy.set_channel_capacity("x", 5).expect("nonzero");
        for (signal, capacity) in [("y", 7), ("x", 5)] {
            let resolved = policy.resolve(&Name::from(signal)).expect("bounded");
            assert_eq!(resolved.capacity, capacity);
            assert_eq!(resolved.source, CapacitySource::Override);
        }
    }
}
