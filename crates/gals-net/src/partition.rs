//! Splitting a verified design into per-process sub-deployments.
//!
//! A [`PartitionPlan`] assigns every component of an [`isochron::Design`]
//! to a process.  Each edge whose producer and consumer land in different
//! processes is *cut*: its two halves become one cross-process link, whose
//! sending endpoint the producer's partition publishes to and whose
//! receiving endpoint the consumer's partition reads
//! ([`gals_rt::Deployment::link_output`],
//! [`gals_rt::Deployment::link_input`]).  No machine, thread or ring sits
//! between a link and its component: the pool reads and writes the link
//! without blocking, as it does a ring, and the medium wakes the island
//! when a token, a close or credit arrives.  Everything else — channel
//! wiring, the scheduler, the per-component stats, tracing — is the
//! ordinary [`gals_rt::Deployment`] machinery, run once per process.
//!
//! Theorem 1 is what makes this sound: a verified (weakly hierarchic)
//! design keeps its synchronous semantics over any reliable
//! order-preserving FIFO medium, so cutting an edge and re-routing it
//! through a socket cannot change the flows.  The
//! conformance half lives in [`merge_flows`] / [`merged_conformance`]:
//! the partitions' observed flows are merged (cross-checking the
//! producer- and consumer-side copies of every cut signal) and compared
//! against the synchronous reference replay of the *whole* design.
//!
//! The clock calculus pays for the networking: every cut edge's
//! flow-control window is exactly the derived capacity bound of the
//! edge, and an edge the analysis cannot bound (with no explicit
//! override) is refused at planning time — the cross-process twin of
//! `DeployError::UnboundedEdge`.  Consumption is counted where the
//! consuming component takes a token from the link, so the window bounds
//! exactly what the bound bounds in process.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use gals_rt::{
    replay_budget, replay_reference, CapacityAnalysis, ConformanceReport, DeployError, Deployment,
};
use isochron::Design;
use signal_lang::{Name, Value};
use sim::Flows;

use crate::runner::UdsLinks;
use crate::NetError;

/// An error raised while planning or assembling a partitioned deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The design fails the static weak-hierarchy criterion: Theorem 1
    /// guarantees nothing about its flows, so no medium may carry them.
    NotVerified(String),
    /// The component-to-process assignment is ill-formed (wrong length,
    /// or a process that owns no component).
    BadAssignment(String),
    /// A cut edge has neither a derived capacity bound nor an explicit
    /// override: no finite flow-control window exists for it.
    UnboundedEdge(Name),
    /// The capacity analysis itself failed (e.g. an unprimed cycle).
    Analysis(String),
    /// Creating a cross-process link failed.
    Transport(String),
    /// Building or running a partition's deployment failed.
    Deploy(String),
    /// The producer- and consumer-side copies of a cut signal disagree:
    /// the medium lost or reordered tokens.
    MergeMismatch {
        /// The cut signal whose two observations disagree.
        signal: Name,
        /// What disagreed, rendered for the report.
        detail: String,
    },
    /// A partition report file could not be encoded or decoded.
    Report(String),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NotVerified(name) => {
                write!(f, "design {name} is not verified; nothing bounds its flows")
            }
            PartitionError::BadAssignment(detail) => write!(f, "bad assignment: {detail}"),
            PartitionError::UnboundedEdge(signal) => write!(
                f,
                "cut edge {signal} has no derived capacity bound and no override: \
                 no finite flow-control window exists"
            ),
            PartitionError::Analysis(detail) => write!(f, "capacity analysis failed: {detail}"),
            PartitionError::Transport(detail) => write!(f, "transport failure: {detail}"),
            PartitionError::Deploy(detail) => write!(f, "deployment failure: {detail}"),
            PartitionError::MergeMismatch { signal, detail } => write!(
                f,
                "cut signal {signal} observed differently on its two sides: {detail}"
            ),
            PartitionError::Report(detail) => write!(f, "partition report: {detail}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<NetError> for PartitionError {
    fn from(err: NetError) -> Self {
        PartitionError::Transport(err.to_string())
    }
}

impl From<DeployError> for PartitionError {
    fn from(err: DeployError) -> Self {
        PartitionError::Deploy(err.to_string())
    }
}

/// One design edge whose producer and consumer live in different
/// processes.  Like an in-process channel, an edge has one consumer: a
/// signal read by several components of a remote process is cut once
/// per reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutEdge {
    /// The signal carried across the process boundary.
    pub signal: Name,
    /// The process owning the producing component.
    pub producer: usize,
    /// The process owning the consuming component.
    pub consumer: usize,
    /// The consuming component, by index in the design.
    pub reader: usize,
    /// The flow-control window of the link — the edge's derived capacity
    /// bound (or its explicit override).
    pub window: usize,
    /// Where the window came from, for reports.
    pub provenance: String,
}

/// How a verified design splits across processes: the assignment, the
/// cut edges with their windows, and the capacity analysis the partition
/// deployments re-use for their local channels.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    processes: usize,
    assignment: Vec<usize>,
    cuts: Vec<CutEdge>,
    analysis: CapacityAnalysis,
    paced: BTreeSet<Name>,
}

/// Plans the partitioning of `design` under `assignment` (one process id
/// per component, in component order); every cut edge's window is its
/// derived capacity bound.
///
/// # Errors
///
/// [`PartitionError::NotVerified`] for an unverified design,
/// [`PartitionError::BadAssignment`] for a malformed assignment,
/// [`PartitionError::UnboundedEdge`] when a cut edge has no derived
/// bound, [`PartitionError::Analysis`] when the capacity analysis fails.
/// Every derived bound is at least 1, so no derived window is zero.
pub fn plan(design: &Design, assignment: &[usize]) -> Result<PartitionPlan, PartitionError> {
    plan_with_overrides(design, assignment, &BTreeMap::new())
}

/// [`plan`], with explicit per-signal window overrides taking precedence
/// over the derived bounds — the same override-beats-derivation rule the
/// in-process channel policy applies.
///
/// # Errors
///
/// As [`plan`]; an edge covered by an override cannot be unbounded.  An
/// override of 0 is [`PartitionError::Deploy`] carrying
/// [`DeployError::ZeroCapacity`], the refusal of an in-process zero
/// capacity: no token could ever cross a zero window.
pub fn plan_with_overrides(
    design: &Design,
    assignment: &[usize],
    overrides: &BTreeMap<Name, usize>,
) -> Result<PartitionPlan, PartitionError> {
    if !design.is_weakly_hierarchic() {
        return Err(PartitionError::NotVerified(design.name().to_string()));
    }
    let components = design.components();
    if assignment.len() != components.len() {
        return Err(PartitionError::BadAssignment(format!(
            "{} components, {} assignments",
            components.len(),
            assignment.len()
        )));
    }
    let processes = assignment.iter().copied().max().unwrap_or(0) + 1;
    for p in 0..processes {
        if !assignment.contains(&p) {
            return Err(PartitionError::BadAssignment(format!(
                "process {p} owns no component"
            )));
        }
    }
    if let Some((signal, _)) = overrides.iter().find(|&(_, &window)| window == 0) {
        return Err(DeployError::ZeroCapacity(Some(signal.clone())).into());
    }
    let analysis = design
        .capacity_analysis()
        .map_err(|e| PartitionError::Analysis(e.to_string()))?;
    let mut producer_of: BTreeMap<Name, usize> = BTreeMap::new();
    for (i, component) in components.iter().enumerate() {
        for output in component.kernel().outputs() {
            producer_of.insert(output.clone(), i);
        }
    }
    let mut cuts: Vec<CutEdge> = Vec::new();
    for (j, component) in components.iter().enumerate() {
        for input in component.kernel().inputs() {
            let Some(&i) = producer_of.get(input) else {
                continue; // environment input, fed locally
            };
            if assignment[i] == assignment[j] {
                continue; // stays an in-process channel
            }
            let (window, provenance) = match overrides.get(input) {
                Some(&window) => (window, "explicit override".to_string()),
                None => match analysis.bound_for(input) {
                    Some(derived) => (derived.bound, derived.provenance.clone()),
                    None => return Err(PartitionError::UnboundedEdge(input.clone())),
                },
            };
            cuts.push(CutEdge {
                signal: input.clone(),
                producer: assignment[i],
                consumer: assignment[j],
                reader: j,
                window,
                provenance,
            });
        }
    }
    Ok(PartitionPlan {
        processes,
        assignment: assignment.to_vec(),
        cuts,
        analysis,
        // Over the *whole* design, so a cut signal — produced by a remote
        // component — is never paced.
        paced: design.paced_inputs(),
    })
}

impl PartitionPlan {
    /// How many processes the plan spans.
    pub fn processes(&self) -> usize {
        self.processes
    }

    /// The component-to-process assignment, in component order.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The edges crossing process boundaries, with their windows.
    pub fn cuts(&self) -> &[CutEdge] {
        &self.cuts
    }

    /// The capacity analysis the plan was derived from.
    pub fn analysis(&self) -> &CapacityAnalysis {
        &self.analysis
    }

    /// The environment inputs consumed by `process`'s components — the
    /// feeds its partition needs.
    pub fn env_inputs(&self, design: &Design, process: usize) -> BTreeSet<Name> {
        let produced: BTreeSet<&Name> = design
            .components()
            .iter()
            .flat_map(|c| c.kernel().outputs())
            .collect();
        let mut inputs = BTreeSet::new();
        for (i, component) in design.components().iter().enumerate() {
            if self.assignment[i] != process {
                continue;
            }
            for input in component.kernel().inputs() {
                if !produced.contains(input) {
                    inputs.insert(input.clone());
                }
            }
        }
        inputs
    }

    /// Assembles the deployment of one partition: the process's
    /// components, each incoming cut edge linked to the input of its
    /// reader and each outgoing one to the output of its producer, local
    /// channels sized by the derived analysis, references registered and
    /// paced marks applied.  Its [`run`](Deployment::run) runs on the
    /// pool like any deployment, and its outcome's flows carry every
    /// incoming cut signal as its reader took it from the link.
    ///
    /// All incoming links are opened (bound) *before* any outgoing link
    /// dials, so two partitions dialing each other cannot deadlock in
    /// the handshake.
    ///
    /// # Errors
    ///
    /// [`PartitionError::BadAssignment`] for an out-of-range process;
    /// [`PartitionError::Transport`] when a link cannot be established.
    pub fn deployment(
        &self,
        design: &Design,
        process: usize,
        links: &UdsLinks,
    ) -> Result<Deployment, PartitionError> {
        if process >= self.processes {
            return Err(PartitionError::BadAssignment(format!(
                "process {process} out of range (plan spans {})",
                self.processes
            )));
        }
        let mut deployment = Deployment::new();
        deployment.set_capacity_analysis(&self.analysis);
        // Incoming edges first: bind every listener before dialing out.
        let mut incoming = Vec::new();
        for cut in self.cuts.iter().filter(|c| c.consumer == process) {
            incoming.push((cut, links.receiver(cut)?));
        }
        for (i, component) in design.components().iter().enumerate() {
            if self.assignment[i] != process {
                continue;
            }
            for input in component.kernel().inputs() {
                if self.paced.contains(input) {
                    deployment.mark_paced(input.clone());
                }
            }
            deployment.add_reference(component.reference());
            deployment.add_machine(Box::new(component.compiled_runtime()));
        }
        for (cut, rx) in incoming {
            // The reader's machine index: the partition adds its
            // components in design order.
            let machine = self.assignment[..cut.reader]
                .iter()
                .filter(|&&p| p == process)
                .count();
            deployment.link_input(machine, cut.signal.clone(), Box::new(rx));
        }
        for cut in self.cuts.iter().filter(|c| c.producer == process) {
            deployment.link_output(cut.signal.clone(), Box::new(links.sender(cut)?));
        }
        Ok(deployment)
    }
}

/// Merges per-partition observed flows into one global flow map.
///
/// A cut signal is observed twice — as the producing component's output
/// in one partition and as the tokens its reader took from the link in
/// the other —
/// and the two copies must agree token for token (the shorter may be a
/// prefix of the longer when a partition stopped first): any
/// disagreement means the medium lost, duplicated or reordered tokens.
///
/// # Errors
///
/// [`PartitionError::MergeMismatch`] when the two observations of a cut
/// signal disagree.
pub fn merge_flows(parts: &[Flows]) -> Result<Flows, PartitionError> {
    let mut merged: Flows = BTreeMap::new();
    for flows in parts {
        for (signal, values) in flows {
            match merged.get_mut(signal) {
                None => {
                    merged.insert(signal.clone(), values.clone());
                }
                Some(existing) => {
                    let n = existing.len().min(values.len());
                    if existing[..n] != values[..n] {
                        return Err(PartitionError::MergeMismatch {
                            signal: signal.clone(),
                            detail: format!(
                                "prefixes diverge within the first {n} tokens \
                                 ({existing:?} vs {values:?})"
                            ),
                        });
                    }
                    if values.len() > existing.len() {
                        *existing = values.clone();
                    }
                }
            }
        }
    }
    Ok(merged)
}

/// Replays the synchronous reference of the *whole* design against the
/// merged cross-process flows — the end-to-end isochrony conformance
/// check of a distributed run (Theorem 1's conclusion, observed over a
/// real inter-process medium).
pub fn merged_conformance(
    design: &Design,
    feeds: &BTreeMap<Name, Vec<Value>>,
    merged: &Flows,
) -> ConformanceReport {
    let components: Vec<_> = design.components().iter().map(|c| c.reference()).collect();
    let budget = replay_budget(feeds, components.len());
    let reference = replay_reference(&components, feeds, &design.paced_inputs(), budget);
    ConformanceReport::compare(reference, merged)
}
