//! Clock-derived channel capacity bounds.
//!
//! The paper's central claim is that the clock calculus makes GALS
//! deployment safe *by construction*: the relation `R` that proves a
//! design isochronous also bounds how far each producer can run ahead of
//! its consumer — so the per-edge FIFO capacities need not be hand-tuned,
//! they are an artifact of the verification.
//!
//! [`CapacityAnalysis::derive`] walks a [`Topology`], looks up the
//! producer-side and consumer-side clock expressions of every edge signal
//! (the [`EdgeClocks`] a verified design extracts from its components'
//! local relations), classifies each pair with
//! [`clocks::RateRelation::between_in`] in the algebra of the global
//! composition, and records one [`DerivedCapacity`] per boundable edge —
//! bound plus provenance — or the reason a bound could not be derived.
//!
//! The result is installed on a deployment with
//! [`Deployment::set_capacity_analysis`](crate::Deployment::set_capacity_analysis):
//! edges then get their derived bound as capacity (explicit per-signal
//! overrides still win), and an edge with neither is a typed
//! [`DeployError::UnboundedEdge`](crate::DeployError) instead of a silent
//! default.

use std::collections::BTreeMap;
use std::fmt;

use clocks::algebra::ClockAlgebra;
use clocks::clock::ClockExpr;
use clocks::rate::RateRelation;
use clocks::word::ClockWord;
use signal_lang::{KernelProcess, Name};

use crate::deploy::Topology;

/// The clock expressions governing one channel signal: the clock at which
/// the producing component emits it and the clock(s) at which its
/// consumer(s) read it, both expressed in the components' *local*
/// relations and interpreted in the algebra of the global composition.
///
/// When a component's kernel exposes a periodic phase system (a one-hot
/// delay ring or an alternating register — see [`clocks::word`]), its
/// side of the edge additionally carries the k-periodic [`ClockWord`] of
/// the clock over the component's *local* reactions.  The words survive
/// interface abstraction: a composite that hides a component's internals
/// strips the global algebra of its phase registers, but the local word
/// was resolved in the component's own relation and still classifies the
/// edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeClocks {
    /// The producer-side clock expression of the signal.
    pub producer: ClockExpr,
    /// One consumer-side clock expression per consuming component.
    pub consumers: Vec<ClockExpr>,
    /// The producer's local emission word, when derivable.
    pub producer_word: Option<ClockWord>,
    /// Per-consumer local read words, parallel to `consumers`.
    pub consumer_words: Vec<Option<ClockWord>>,
}

/// A per-edge capacity bound derived from the clock calculus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivedCapacity {
    /// The FIFO occupancy bound: the channel never needs more slots.
    pub bound: usize,
    /// The rate relation that produced the bound (the weakest one, when
    /// the signal has several consumers).
    pub relation: RateRelation,
    /// Human-readable derivation: which clocks were compared and why the
    /// bound follows.
    pub provenance: String,
}

impl fmt::Display for DerivedCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bound {} ({})", self.bound, self.provenance)
    }
}

/// A feedback loop the priming-liveness analysis proved can never start
/// turning: every component on the loop waits on its first read strictly
/// before its first emission, so each blocks forever on an empty channel
/// — the static form of the wait cycle the pool scheduler's dynamic
/// `Deadlocked` detection would otherwise only catch at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnprimedCycle {
    /// The channel signals of the unprimed loop.
    pub signals: Vec<Name>,
    /// Per-component first-emission vs first-read instants, for the
    /// error message.
    pub detail: String,
}

impl fmt::Display for UnprimedCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unprimed feedback loop through {}: {}",
            self.signals
                .iter()
                .map(Name::as_str)
                .collect::<Vec<_>>()
                .join(", "),
            self.detail
        )
    }
}

/// The result of deriving capacity bounds for every edge of a topology:
/// a bound (with provenance) per boundable signal, the reason for every
/// signal the calculus could not bound, and the feedback loops the
/// priming-liveness analysis proved unable to start.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapacityAnalysis {
    derived: BTreeMap<Name, DerivedCapacity>,
    unbounded: BTreeMap<Name, String>,
    unprimed: Vec<UnprimedCycle>,
}

impl CapacityAnalysis {
    /// An empty analysis (no edge has a derived bound) — the starting
    /// point for assembling bounds by hand with
    /// [`insert`](CapacityAnalysis::insert).
    pub fn new() -> Self {
        CapacityAnalysis::default()
    }

    /// Derives a bound for every edge of `topology`.
    ///
    /// `kernel` and `algebra` are the global composition and its
    /// interpreted relation `R`; `edge_clocks` maps each channel signal to
    /// its producer/consumer clock expressions.  Signals with no entry, or
    /// whose rate relation is [`RateRelation::Unbounded`] for some
    /// consumer, are recorded as unbounded with the reason.
    pub fn derive(
        topology: &Topology,
        kernel: &KernelProcess,
        algebra: &mut ClockAlgebra,
        edge_clocks: &BTreeMap<Name, EdgeClocks>,
    ) -> Self {
        let mut analysis = CapacityAnalysis::new();
        for spec in &topology.channels {
            if analysis.derived.contains_key(&spec.signal)
                || analysis.unbounded.contains_key(&spec.signal)
            {
                continue; // several consumers share the signal: derived once
            }
            let Some(clocks) = edge_clocks.get(&spec.signal) else {
                analysis.unbounded.insert(
                    spec.signal.clone(),
                    "no clock information for the signal".to_string(),
                );
                continue;
            };
            let mut weakest: Option<DerivedCapacity> = None;
            let mut failure: Option<String> = None;
            for (index, consumer) in clocks.consumers.iter().enumerate() {
                let mut relation =
                    RateRelation::between_in(kernel, algebra, &clocks.producer, consumer);
                let mut local_words = false;
                if relation == RateRelation::Unbounded {
                    // The global algebra proved nothing — fall back to the
                    // components' local k-periodic words, which survive
                    // interface abstraction.
                    if let (Some(producer_word), Some(consumer_word)) = (
                        clocks.producer_word.as_ref(),
                        clocks.consumer_words.get(index).and_then(Option::as_ref),
                    ) {
                        relation = RateRelation::between_words(producer_word, consumer_word);
                        local_words = relation != RateRelation::Unbounded;
                    }
                }
                match relation.bound() {
                    Some(bound) => {
                        let provenance = if local_words {
                            format!(
                                "{relation} (components' local phase words; the \
                                 composition algebra does not see the phase registers)"
                            )
                        } else {
                            format!(
                                "{relation}: producer at {} vs consumer at {consumer}",
                                clocks.producer
                            )
                        };
                        let candidate = DerivedCapacity {
                            bound,
                            provenance,
                            relation,
                        };
                        weakest = Some(match weakest {
                            Some(current) if current.bound >= bound => current,
                            _ => candidate,
                        });
                    }
                    None => {
                        failure = Some(format!(
                            "no finite rate relation between producer clock {} \
                             and consumer clock {consumer}",
                            clocks.producer
                        ));
                        break;
                    }
                }
            }
            match (failure, weakest) {
                (Some(reason), _) => {
                    analysis.unbounded.insert(spec.signal.clone(), reason);
                }
                (None, Some(capacity)) => {
                    analysis.derived.insert(spec.signal.clone(), capacity);
                }
                (None, None) => {
                    analysis.unbounded.insert(
                        spec.signal.clone(),
                        "the signal has no consumer-side clock".to_string(),
                    );
                }
            }
        }
        analysis.unprimed = unprimed_cycles(topology, edge_clocks);
        analysis
    }

    /// Records a bound for one signal (replacing any previous entry) —
    /// the hook for bounds computed outside the built-in derivation, e.g.
    /// by a custom analysis over hand-rolled machines.
    pub fn insert(&mut self, signal: impl Into<Name>, capacity: DerivedCapacity) -> &mut Self {
        let signal = signal.into();
        self.unbounded.remove(&signal);
        self.derived.insert(signal, capacity);
        self
    }

    /// The derived bound of a signal, when one exists.
    pub fn bound_for(&self, signal: &Name) -> Option<&DerivedCapacity> {
        self.derived.get(signal)
    }

    /// Every derived bound, keyed by signal.
    pub fn bounds(&self) -> &BTreeMap<Name, DerivedCapacity> {
        &self.derived
    }

    /// The signals the calculus could not bound, with the reason.
    pub fn unbounded(&self) -> &BTreeMap<Name, String> {
        &self.unbounded
    }

    /// Returns `true` when every edge of the analyzed topology got a
    /// finite bound.
    pub fn is_fully_bounded(&self) -> bool {
        self.unbounded.is_empty()
    }

    /// The feedback loops the priming-liveness analysis proved can never
    /// start (see [`UnprimedCycle`]); empty when every cycle either has a
    /// priming component or could not be fully word-resolved.
    pub fn unprimed_cycles(&self) -> &[UnprimedCycle] {
        &self.unprimed
    }

    /// Records an unprimed feedback loop (replacing none) — the hook for
    /// liveness verdicts computed outside the built-in derivation.
    pub fn record_unprimed(&mut self, cycle: UnprimedCycle) -> &mut Self {
        self.unprimed.push(cycle);
        self
    }
}

/// The priming-liveness pass: for every strongly connected group of the
/// channel graph, proves the loop dead when *every* machine on it
/// provably waits on its first read strictly before its first emission.
///
/// The proof needs, per machine, the local k-periodic words of all its
/// cycle out-edges (a lower bound on its earliest emission) and of at
/// least one cycle in-edge (an upper bound on its earliest read).  Any
/// missing word makes the machine potentially priming and the group is
/// left to the existing refuse-or-prove capacity path plus the dynamic
/// backstop — the analysis only ever refuses what it can prove.
fn unprimed_cycles(
    topology: &Topology,
    edge_clocks: &BTreeMap<Name, EdgeClocks>,
) -> Vec<UnprimedCycle> {
    let mut unprimed = Vec::new();
    for group in topology.cycle_groups() {
        let specs: Vec<_> = topology
            .channels
            .iter()
            .filter(|spec| group.contains(&spec.signal))
            .collect();
        let machines: std::collections::BTreeSet<usize> = specs
            .iter()
            .flat_map(|spec| [spec.producer, spec.consumer])
            .collect();
        let mut details = Vec::new();
        let all_proven_waiting = machines.iter().all(|&machine| {
            // Lower bound on the machine's earliest cycle emission: the
            // min first-one over its out-edge words, all of which must be
            // known.
            let mut first_emit = usize::MAX;
            for spec in specs.iter().filter(|spec| spec.producer == machine) {
                let word = edge_clocks
                    .get(&spec.signal)
                    .and_then(|clocks| clocks.producer_word.as_ref());
                match word.and_then(ClockWord::first_one) {
                    Some(instant) => first_emit = first_emit.min(instant),
                    None if word.is_some() => {} // never emits: no priming here
                    None => return false,        // unknown word: maybe primes
                }
            }
            // Upper bound on its earliest cycle read: any known in-edge
            // word will do (an unambiguous one — single-consumer edges).
            let first_read = specs
                .iter()
                .filter(|spec| spec.consumer == machine)
                .filter_map(|spec| {
                    let clocks = edge_clocks.get(&spec.signal)?;
                    match clocks.consumer_words.as_slice() {
                        [only] => only.as_ref()?.first_one(),
                        _ => None,
                    }
                })
                .min();
            match first_read {
                Some(read) if first_emit >= read => {
                    details.push(format!(
                        "machine #{machine} first reads at instant {read} but first \
                         emits at instant {}",
                        if first_emit == usize::MAX {
                            "∞".to_string()
                        } else {
                            first_emit.to_string()
                        }
                    ));
                    true
                }
                _ => false,
            }
        });
        if all_proven_waiting && !machines.is_empty() {
            unprimed.push(UnprimedCycle {
                signals: group.iter().cloned().collect(),
                detail: format!(
                    "every component waits on a read before it can emit ({}), so the \
                     loop never starts — flip a register initialization so one \
                     component emits first",
                    details.join("; ")
                ),
            });
        }
    }
    unprimed
}

impl fmt::Display for CapacityAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (signal, capacity) in &self.derived {
            writeln!(f, "{signal}: {capacity}")?;
        }
        for (signal, reason) in &self.unbounded {
            writeln!(f, "{signal}: unbounded ({reason})")?;
        }
        for cycle in &self.unprimed {
            writeln!(f, "{cycle}")?;
        }
        Ok(())
    }
}
