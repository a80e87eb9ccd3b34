//! The pluggable transport layer of the deployment engine.
//!
//! The paper's GALS story deliberately leaves the FIFO medium abstract:
//! isochrony holds for *any* reliable order-preserving channel.  This
//! module makes the medium a first-class extension point — a [`Transport`]
//! mints typed endpoint pairs ([`TokenTx`]/[`TokenRx`]) for each edge of
//! the derived topology, so the worker loop and the deployment builder
//! never name a concrete channel type.
//!
//! The built-in medium is [`crate::ring::RingTransport`], a lock-free
//! fixed-capacity SPSC ring buffer: every edge the topology derivation
//! produces is single-producer/single-consumer.  Other media (shared
//! memory, sockets) plug in through `Deployment::set_transport`.
//!
//! Channel sizing is described by a [`ChannelPolicy`]: a default
//! capacity, per-signal overrides and installed derived bounds — the
//! per-edge resolution is reported by `Deployment::topology()`.
//!
//! **Wakers.**  The pool never blocks inside a step: an island whose
//! edges are empty or full parks until something moves them.  Before it
//! is first queued, every endpoint of its members is handed the island's
//! [`Waker`]; a medium that moves tokens on a thread of its own (a
//! socket's acceptor or ack reader) calls it after each event.  The ring
//! ignores it: both of its ends live in one island.

use std::collections::BTreeMap;
use std::fmt;
use std::task::Waker;

use signal_lang::{Name, Value};

use crate::capacity::{CapacityAnalysis, DerivedCapacity, UnprimedCycle};

/// A transport could not mint (or connect) an endpoint pair: the socket
/// path is unreachable, the shared file cannot be created, the peer
/// refused the handshake.  The in-process ring never fails; a distributed
/// medium reports its I/O trouble here instead of panicking, and the
/// deployment surfaces it as `DeployError::Transport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// What went wrong, in the transport's own words.
    pub message: String,
}

impl TransportError {
    /// Wraps a failure description.
    pub fn new(message: impl Into<String>) -> Self {
        TransportError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transport failure: {}", self.message)
    }
}

impl std::error::Error for TransportError {}

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

/// A connected endpoint pair for one edge of the topology.
pub type Endpoints = (Box<dyn TokenTx>, Box<dyn TokenRx>);

/// A channel factory: mints one connected endpoint pair per topology edge.
///
/// Implementations must preserve token order and deliver every token
/// accepted by [`TokenTx::send`] exactly once — the reliability assumption
/// under which Theorem 1 (isochrony) transfers to the deployment.  An
/// implementation spanning processes or hosts makes the deployment a true
/// distributed GALS system without touching the engine.
pub trait Transport: Send + Sync {
    /// A short stable name for reports and topology dumps.
    fn name(&self) -> &'static str;

    /// Mints a connected endpoint pair with an internal buffer of
    /// `capacity` tokens (`capacity >= 1`; the deployment rejects 0).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] when the medium cannot be established —
    /// the in-process ring never fails, but a distributed transport
    /// (sockets, shared files) can, and the deployment reports the failure
    /// as a typed `DeployError::Transport` instead of aborting.
    fn open(&self, capacity: usize) -> Result<Endpoints, TransportError>;
}

/// A channel capacity of zero was requested.
///
/// Capacity 0 would be a rendezvous channel: the worker loop publishes a
/// produced token *before* attempting its next read, so two adjacent
/// workers would each block in `send` waiting for the other to arrive at
/// `recv` — a deadlock.  The deployment rejects it up front.
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

/// Where the capacities of a deployment's channels come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelSizing {
    /// Hand-tuned: the policy default, with per-signal overrides (the
    /// historic behavior, and still the default).
    #[default]
    Fixed,
    /// Derived from the clock calculus: every edge takes the bound of an
    /// installed [`CapacityAnalysis`] (explicit overrides still win); an
    /// edge with neither is a typed error instead of a silent default.
    Derived,
}

impl fmt::Display for ChannelSizing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelSizing::Fixed => write!(f, "fixed"),
            ChannelSizing::Derived => write!(f, "derived"),
        }
    }
}

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
pub struct ResolvedCapacity {
    /// The number of buffer slots the edge's channel gets.
    pub capacity: usize,
    /// Where the number came from.
    pub source: CapacitySource,
    /// The derivation provenance, for [`CapacitySource::Derived`] edges.
    pub derivation: Option<String>,
}

/// How the channels of a deployment are sized: a sizing mode
/// ([`ChannelSizing`]), a default capacity, per-signal overrides and the
/// derived bounds of an installed [`CapacityAnalysis`].
///
/// The per-edge resolution (override, derived bound, or default) is
/// reported by `Deployment::topology()` in each `ChannelSpec`.
#[derive(Debug, Clone)]
pub struct ChannelPolicy {
    sizing: ChannelSizing,
    default_capacity: usize,
    overrides: BTreeMap<Name, usize>,
    derived: BTreeMap<Name, DerivedCapacity>,
    unprimed: Vec<UnprimedCycle>,
}

impl ChannelPolicy {
    /// The policy of the paper's concurrent scheme: every channel is a
    /// one-place buffer.
    pub fn new() -> Self {
        ChannelPolicy {
            sizing: ChannelSizing::Fixed,
            default_capacity: 1,
            overrides: BTreeMap::new(),
            derived: BTreeMap::new(),
            unprimed: Vec::new(),
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

    /// The per-signal capacity overrides.
    pub fn overrides(&self) -> &BTreeMap<Name, usize> {
        &self.overrides
    }

    /// The resolved capacity for the channels carrying `signal` under
    /// [`ChannelSizing::Fixed`] semantics (override, or default) — derived
    /// bounds are only consulted by [`resolve`](ChannelPolicy::resolve).
    pub fn capacity_for(&self, signal: &Name) -> usize {
        self.overrides
            .get(signal)
            .copied()
            .unwrap_or(self.default_capacity)
    }

    /// Selects how edges are sized: hand-tuned ([`ChannelSizing::Fixed`],
    /// the default) or from installed derived bounds
    /// ([`ChannelSizing::Derived`]).
    pub fn set_sizing(&mut self, sizing: ChannelSizing) -> &mut Self {
        self.sizing = sizing;
        self
    }

    /// The sizing mode in effect.
    pub fn sizing(&self) -> ChannelSizing {
        self.sizing
    }

    /// Installs the bounds of a [`CapacityAnalysis`] — and its
    /// priming-liveness verdicts — and switches the policy to
    /// [`ChannelSizing::Derived`].
    pub fn install_derived(&mut self, analysis: &CapacityAnalysis) -> &mut Self {
        self.derived = analysis.bounds().clone();
        self.unprimed = analysis.unprimed_cycles().to_vec();
        self.sizing = ChannelSizing::Derived;
        self
    }

    /// The derived bound installed for a signal, if any.
    pub fn derived_for(&self, signal: &Name) -> Option<&DerivedCapacity> {
        self.derived.get(signal)
    }

    /// The unprimed feedback loops of the installed analysis, if any.
    pub fn unprimed_cycles(&self) -> &[UnprimedCycle] {
        &self.unprimed
    }

    /// Resolves the capacity of the channels carrying `signal` under the
    /// sizing mode: an explicit override always wins; under
    /// [`ChannelSizing::Derived`] the installed bound is used next, and an
    /// edge with neither is an error (the unboundable signal is returned
    /// so the deployment can raise `DeployError::UnboundedEdge`).
    pub fn resolve(&self, signal: &Name) -> Result<ResolvedCapacity, Name> {
        if let Some(&capacity) = self.overrides.get(signal) {
            return Ok(ResolvedCapacity {
                capacity,
                source: CapacitySource::Override,
                derivation: None,
            });
        }
        match self.sizing {
            ChannelSizing::Fixed => Ok(ResolvedCapacity {
                capacity: self.default_capacity,
                source: CapacitySource::Default,
                derivation: None,
            }),
            ChannelSizing::Derived => match self.derived.get(signal) {
                Some(derived) => Ok(ResolvedCapacity {
                    capacity: derived.bound,
                    source: CapacitySource::Derived,
                    derivation: Some(derived.provenance.clone()),
                }),
                None => Err(signal.clone()),
            },
        }
    }
}

impl Default for ChannelPolicy {
    fn default() -> Self {
        ChannelPolicy::new()
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
        assert_eq!(policy.capacity_for(&Name::from("x")), 16);
        assert_eq!(policy.capacity_for(&Name::from("y")), 4);
        assert_eq!(policy.overrides().len(), 1);
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
        assert!(policy.overrides().is_empty());
    }

    #[test]
    fn transport_errors_render_their_message() {
        let err = TransportError::new("dial refused");
        assert!(err.to_string().contains("dial refused"));
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
        assert_eq!(policy.sizing(), ChannelSizing::Fixed);
        policy.install_derived(&analysis);
        assert_eq!(policy.sizing(), ChannelSizing::Derived);
        let x = policy.resolve(&Name::from("x")).expect("bounded");
        assert_eq!(x.capacity, 2);
        assert_eq!(x.source, CapacitySource::Derived);
        assert!(x.derivation.as_deref().unwrap().contains("alternating"));
        // An edge without a bound is an error under derived sizing...
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
        // Fixed sizing ignores the derived map entirely.
        policy.set_sizing(ChannelSizing::Fixed);
        let z = policy.resolve(&Name::from("z")).expect("default");
        assert_eq!(z.capacity, policy.default_capacity());
        assert_eq!(z.source, CapacitySource::Default);
    }
}
