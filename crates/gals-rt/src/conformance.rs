//! Dynamic isochrony conformance: Theorem 1 as an executable check.
//!
//! The static weak-hierarchy criterion promises that the asynchronous
//! execution of the separately compiled components observes the same flows
//! as their synchronous composition.  This module makes the promise
//! testable at arbitrary component counts: the same environment streams
//! that drove a deployment are replayed through the repo's synchronous
//! reference interpreter — one [`sim::Simulator`] per component, scheduled
//! cooperatively with unbounded FIFOs (the paper's unbounded model, of
//! which the deployed bounded channels are a finite refinement) — and the
//! two flow observations are compared signal per signal.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use signal_lang::{KernelProcess, Name, Value};
use sim::{AsyncNetwork, FlowComparison, Flows};

/// The synchronous reference of one deployed component: its kernel process
/// (interpreted by [`sim::Simulator`]) and the activation signals forcing
/// its autonomous state clocks to tick.
#[derive(Debug, Clone)]
pub struct ReferenceComponent {
    /// The component name.
    pub name: String,
    /// The kernel process the synchronous interpreter executes.
    pub kernel: KernelProcess,
    /// Signals forced present at every attempted reaction (one
    /// representative per autonomous root of the clock hierarchy).
    pub activation: Vec<Name>,
}

/// An error raised by the conformance checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformanceError {
    /// The deployment carries no reference components to replay.
    NoReference,
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::NoReference => {
                write!(f, "the deployment has no synchronous reference to replay")
            }
        }
    }
}

impl std::error::Error for ConformanceError {}

/// A generous turn budget for [`replay_reference`]: scaled to the volume
/// of the environment streams and to the number of reference components.
pub fn replay_budget(feeds: &BTreeMap<Name, Vec<Value>>, components: usize) -> usize {
    let tokens: usize = feeds.values().map(Vec::len).sum();
    (tokens + 16) * 16 * components.max(1)
}

/// Replays the environment streams through the synchronous reference
/// interpreters and returns the observed flows.
///
/// Public so out-of-process harnesses (the `gals-net` partition runner)
/// can replay the *whole* design's reference against flows merged from
/// several per-process deployments — the end-to-end isochrony check of a
/// distributed run.
pub fn replay_reference(
    components: &[ReferenceComponent],
    feeds: &BTreeMap<Name, Vec<Value>>,
    paced: &BTreeSet<Name>,
    max_turns: usize,
) -> Flows {
    let mut network = AsyncNetwork::new();
    for component in components {
        network.add_component(
            component.name.clone(),
            &component.kernel,
            component.activation.iter().cloned(),
        );
    }
    for (signal, values) in feeds {
        if paced.contains(signal) {
            network.feed_paced(signal.clone(), values.iter().copied());
        } else {
            network.feed(signal.clone(), values.iter().copied());
        }
    }
    network.run_until_quiescent(max_turns);
    network.into_flows()
}

/// The verdict of one conformance check.  It keeps no copy of the
/// deployed flows (their owner already holds them): only the reference
/// replay, moved in, and the comparison, whose mismatches carry both
/// sides of every divergence.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The signal-per-signal comparison (deployed vs reference).
    pub comparison: FlowComparison,
    /// The flows of the synchronous reference replay.
    pub reference: Flows,
}

impl ConformanceReport {
    /// Compares the deployed flows against the reference flows, on the
    /// signals the deployment produced (the reference also records
    /// environment consumption, which has no deployed counterpart).
    ///
    /// Public for the same reason as [`replay_reference`]: a distributed
    /// runner compares merged cross-process flows against one reference.
    pub fn compare(reference: Flows, deployed: &Flows) -> Self {
        let signals: Vec<Name> = deployed.keys().cloned().collect();
        ConformanceReport {
            comparison: FlowComparison::compare_on(&reference, deployed, signals),
            reference,
        }
    }

    /// Returns `true` when the deployed execution observed exactly the
    /// flows of the synchronous reference — the conclusion of Theorem 1.
    pub fn is_isochronous(&self) -> bool {
        self.comparison.flows_match()
    }

    /// The signals whose deployed and reference flows differ.
    pub fn mismatches(&self) -> Vec<Name> {
        self.comparison.mismatching_signals()
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_isochronous() {
            write!(
                f,
                "conformant: deployed flows equal the synchronous reference \
                 on {} signal(s)",
                self.comparison.matching.len()
            )
        } else {
            writeln!(
                f,
                "NOT conformant — deployment diverged from the synchronous reference:"
            )?;
            for m in &self.comparison.mismatches {
                writeln!(f, "  {m}")?;
            }
            Ok(())
        }
    }
}
