//! `gals-net` — distributed GALS: the "G" made literal.
//!
//! The paper's Theorem 1 says a verified (weakly hierarchic) design keeps
//! its synchronous semantics over *any* reliable order-preserving FIFO
//! medium.  `gals-rt` proves that in-process (a worker pool whose islands
//! own their channels); this crate leaves the process:
//!
//! * **Socket endpoints** ([`net`]) — the two halves of a cut edge on a
//!   Unix domain socket: a [`NetSender`] and a [`NetReceiver`], which
//!   implement `gals-rt`'s [`gals_rt::TokenTx`]/[`gals_rt::TokenRx`] so a
//!   partition links them straight to its components, and the pool
//!   scheduler and tracing work unchanged.  They wake the pool island
//!   that uses them from their own threads, so a partition never blocks
//!   a worker waiting on the wire.
//! * **A wire protocol** ([`wire`]) — length-prefixed token frames with a
//!   version handshake, explicit close-then-drain semantics (matching the
//!   ring), credit-based flow control whose per-edge window is exactly the
//!   derived [`gals_rt::CapacityAnalysis`] bound, and bounded-retry
//!   reconnect with idempotent resume via per-edge sequence numbers.
//! * **A partitioner** ([`partition`]) — splits a verified
//!   [`isochron::Design`] into per-process sub-deployments, linking each
//!   cut edge's endpoints straight to the components on either side, and
//!   a small [`runner`] that launches partitions and merges their flows
//!   and stats so the end-to-end isochrony conformance check still runs.
//!
//! The clock calculus pays for the networking: an edge the analysis cannot
//! bound (and no override covers) is refused at partition time, the same
//! refusal as `DeployError::UnboundedEdge` in-process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod net;
pub mod partition;
pub mod runner;
pub mod wire;

pub use net::{NetReceiver, NetSender, RetryPolicy};
pub use partition::{
    merge_flows, merged_conformance, plan, plan_with_overrides, CutEdge, PartitionError,
    PartitionPlan,
};
pub use runner::{run_partition, MergedStats, PartitionReport, UdsLinks};
pub use wire::{Frame, FrameReader, PROTOCOL_VERSION};

/// An error raised by the wire protocol or a socket endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// An I/O operation on the socket failed (bind, connect, read,
    /// write); the message carries the OS error text.
    Io(String),
    /// The peer sent bytes that do not decode as a protocol frame: an
    /// unknown frame kind, an impossible length, a truncated payload, a
    /// bad value tag.  A malformed peer is a typed outcome, not a panic.
    MalformedFrame(String),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version this endpoint implements.
        ours: u16,
        /// The version the peer announced in its `Hello`.
        theirs: u16,
    },
    /// The peer's handshake names a different edge signal than this
    /// endpoint serves — two partitions wired to the wrong socket.
    SignalMismatch {
        /// The signal this endpoint serves.
        expected: String,
        /// The signal the peer announced.
        got: String,
    },
    /// The peer's announced flow-control window disagrees with ours: both
    /// sides derive it from the same capacity analysis, so a mismatch
    /// means the partitions were built from different designs.
    WindowMismatch {
        /// The window this endpoint derived.
        ours: u64,
        /// The window the peer announced.
        theirs: u64,
    },
    /// The connection (and its bounded-retry reconnect budget) is
    /// exhausted: the peer is gone for good.
    PeerGone(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(message) => write!(f, "i/o failure: {message}"),
            NetError::MalformedFrame(message) => write!(f, "malformed frame: {message}"),
            NetError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak v{ours}, peer announced v{theirs}"
            ),
            NetError::SignalMismatch { expected, got } => write!(
                f,
                "edge signal mismatch: this endpoint serves {expected}, peer announced {got}"
            ),
            NetError::WindowMismatch { ours, theirs } => write!(
                f,
                "flow-control window mismatch: ours {ours}, peer announced {theirs} \
                 (partitions built from different designs?)"
            ),
            NetError::PeerGone(message) => write!(f, "peer gone: {message}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(err: std::io::Error) -> Self {
        NetError::Io(err.to_string())
    }
}
