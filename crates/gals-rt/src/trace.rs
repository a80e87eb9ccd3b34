//! Per-event deployment tracing: timelines, occupancy and drift.
//!
//! The runtime's end-of-run counters ([`crate::DeploymentStats`]) say *how
//! much* happened; this module records *when*.  Every worker owns a
//! private bounded `TraceBuffer` — no locks, no sharing on the hot
//! path, and when tracing is off the recording sites cost one `Option`
//! branch.  At join the buffers merge into a [`Trace`] of monotonic
//! nanosecond timestamps, from which three views derive:
//!
//! * [`Trace::summary`] — per-component busy/blocked time and
//!   utilization, per-edge occupancy high-water marks against the
//!   resolved capacities (an empirical witness for the clock-calculus
//!   bounds), and a blocked-time bottleneck ranking;
//! * [`Trace::drift_report`] — measured reaction counts and edge traffic
//!   compared against a static [`PerformancePrediction`] edge by edge;
//! * [`Trace::to_chrome_json`] — the full timeline in Chrome trace-event
//!   JSON, loadable in Perfetto (`pid` = deployment, `tid` = component or
//!   pool worker).
//!
//! Buffers are bounded: when a worker outgrows its record budget the
//! timeline truncates (and says so via [`Trace::dropped`]), but the
//! aggregate counters behind the summary and the drift report are
//! maintained on every event and stay exact.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use signal_lang::Name;

use crate::deploy::ChannelSpec;
use crate::predict::PerformancePrediction;
use crate::stats::StopReason;

/// Configuration of the tracing subsystem, set per deployment via
/// [`crate::Deployment::set_trace_config`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum number of timeline records each worker-local buffer keeps.
    /// Beyond it the timeline truncates (counted in [`Trace::dropped`]);
    /// summary and drift aggregates stay exact regardless.
    pub buffer_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            // 64Ki records ≈ a few MiB per worker: enough for every test
            // and example workload without letting a runaway run eat the
            // heap.
            buffer_capacity: 64 * 1024,
        }
    }
}

/// Which side of a channel a component is blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockDirection {
    /// Waiting for a token from the producer (empty channel).
    Upstream,
    /// Waiting for capacity at the consumer (full channel).
    Downstream,
}

impl fmt::Display for BlockDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockDirection::Upstream => write!(f, "upstream"),
            BlockDirection::Downstream => write!(f, "downstream"),
        }
    }
}

/// One thing that happened during a deployment run.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A synchronous reaction started.
    ReactionBegin,
    /// The reaction that began last completed.
    ReactionEnd,
    /// The component stalled on a channel edge.
    BlockedOn {
        /// The signal of the edge the component is stalled on.
        signal: Name,
        /// Whether the stall waits for a token or for capacity.
        direction: BlockDirection,
    },
    /// The stall recorded by the matching [`TraceEvent::BlockedOn`] ended.
    Unblocked {
        /// The signal the component was stalled on.
        signal: Name,
    },
    /// A token was published into a channel.
    TokenSent {
        /// The signal carried by the channel.
        signal: Name,
        /// Which consumer's channel received it (the index among the
        /// topology edges of this signal, in consumer order — a broadcast
        /// signal has one channel per consumer).
        sink: usize,
        /// Channel occupancy right after the send, when the channel can
        /// report it (a slot and the SPSC ring can; a link may not).
        occupancy: Option<usize>,
    },
    /// A token was consumed from a channel.
    TokenReceived {
        /// The signal carried by the channel.
        signal: Name,
        /// Channel occupancy right after the receive, when the channel
        /// can report it.
        occupancy: Option<usize>,
    },
    /// A pool worker dispatched an island (one weakly connected component
    /// of the channel graph) for one quantum.
    Dispatch {
        /// Index of the island's first member in topological order — the
        /// component the dispatch is recorded under, so the Chrome export
        /// names a component of the run.
        component: usize,
        /// Whether the task was stolen from a sibling worker's ready heap.
        stolen: bool,
    },
    /// A pool worker found no runnable component and parked (after its
    /// hot window, if it had just dispatched).
    Park,
    /// The component stopped.
    Stop {
        /// The rendered [`StopReason`].
        reason: String,
    },
}

/// A timestamped [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Nanoseconds since the deployment's trace epoch (taken right before
    /// the workers spawn).  Monotonic per component/worker.
    pub ts_ns: u64,
    /// What happened.
    pub event: TraceEvent,
}

/// Exact per-signal counters a buffer maintains alongside the (bounded)
/// timeline, so summaries survive record truncation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SideCounter {
    tokens: u64,
    high_water: Option<usize>,
}

impl SideCounter {
    fn record(&mut self, occupancy: Option<usize>) {
        self.tokens += 1;
        if let Some(occ) = occupancy {
            self.high_water = Some(self.high_water.map_or(occ, |hw| hw.max(occ)));
        }
    }
}

/// A worker-private bounded event recorder.  Owned by exactly one thread
/// at a time (it travels with its component across pool workers), so the
/// hot path takes no locks.  Its token counters are indexed by the
/// driver's dense port and sink numbers; names are resolved once, when
/// the buffer becomes a [`ComponentTrace`].
#[derive(Debug, Clone)]
pub(crate) struct TraceBuffer {
    epoch: Instant,
    limit: usize,
    records: Vec<TraceRecord>,
    dropped: u64,
    reactions: u64,
    busy_ns: u64,
    blocked_ns: u64,
    open_block: Option<(Name, BlockDirection, u64)>,
    /// Per-signal blocked episodes: (count, total nanoseconds).
    blocked_by_signal: BTreeMap<Name, (u64, u64)>,
    /// The signal of each input port.
    inputs: Vec<Name>,
    /// The signal of each of the driver's sinks.
    sinks: Vec<Name>,
    /// Tokens sent per sink, per consumer channel of that sink.
    sent: Vec<Vec<SideCounter>>,
    /// Tokens received per input port (one upstream channel per port).
    received: Vec<SideCounter>,
    first_ts: Option<u64>,
    last_ts: u64,
}

impl TraceBuffer {
    pub(crate) fn new(epoch: Instant, limit: usize) -> Self {
        TraceBuffer {
            epoch,
            limit,
            records: Vec::new(),
            dropped: 0,
            reactions: 0,
            busy_ns: 0,
            blocked_ns: 0,
            open_block: None,
            blocked_by_signal: BTreeMap::new(),
            inputs: Vec::new(),
            sinks: Vec::new(),
            sent: Vec::new(),
            received: Vec::new(),
            first_ts: None,
            last_ts: 0,
        }
    }

    /// Names the ports the token counters are indexed by: the signal of
    /// each input port and of each sink.
    pub(crate) fn name_ports(&mut self, inputs: Vec<Name>, sinks: Vec<Name>) {
        self.received = vec![SideCounter::default(); inputs.len()];
        self.sent = vec![Vec::new(); sinks.len()];
        self.inputs = inputs;
        self.sinks = sinks;
    }

    /// Nanoseconds since the trace epoch.  `u64` holds ~584 years.
    pub(crate) fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, ts_ns: u64, event: TraceEvent) {
        if self.first_ts.is_none() {
            self.first_ts = Some(ts_ns);
        }
        self.last_ts = self.last_ts.max(ts_ns);
        if self.records.len() < self.limit {
            self.records.push(TraceRecord { ts_ns, event });
        } else {
            self.dropped += 1;
        }
    }

    /// Records one completed reaction spanning `[begin, now]`.
    pub(crate) fn reaction(&mut self, begin_ns: u64) {
        let end = self.now().max(begin_ns);
        self.reactions += 1;
        self.busy_ns += end - begin_ns;
        self.push(begin_ns, TraceEvent::ReactionBegin);
        self.push(end, TraceEvent::ReactionEnd);
    }

    /// Opens a blocked episode on `signal` (idempotent while the same
    /// episode is already open; an open episode on a *different* signal is
    /// closed first — the stall moved).
    pub(crate) fn blocked(&mut self, signal: &Name, direction: BlockDirection) {
        if let Some((open, _, _)) = &self.open_block {
            if open == signal {
                return;
            }
            self.close_block(true);
        }
        let now = self.now();
        self.open_block = Some((signal.clone(), direction, now));
        self.push(
            now,
            TraceEvent::BlockedOn {
                signal: signal.clone(),
                direction,
            },
        );
    }

    /// Closes the open blocked episode if it is on `signal`.
    pub(crate) fn unblocked(&mut self, signal: &Name) {
        if let Some((open, _, _)) = &self.open_block {
            if open == signal {
                self.close_block(true);
            }
        }
    }

    /// Closes the open blocked episode if it waits downstream — called
    /// when a flush completes, whatever signal it last stalled on.
    pub(crate) fn unblocked_downstream(&mut self) {
        if let Some((_, BlockDirection::Downstream, _)) = &self.open_block {
            self.close_block(true);
        }
    }

    fn close_block(&mut self, record: bool) {
        let Some((signal, _, since)) = self.open_block.take() else {
            return;
        };
        let now = self.now().max(since);
        let entry = self.blocked_by_signal.entry(signal.clone()).or_default();
        entry.0 += 1;
        entry.1 += now - since;
        self.blocked_ns += now - since;
        if record {
            self.push(now, TraceEvent::Unblocked { signal });
        }
    }

    /// Records a token published by sink `sink` into the channel of its
    /// `consumer`-th consumer.
    pub(crate) fn sent(&mut self, sink: usize, consumer: usize, occupancy: Option<usize>) {
        let counters = &mut self.sent[sink];
        if counters.len() <= consumer {
            counters.resize(consumer + 1, SideCounter::default());
        }
        counters[consumer].record(occupancy);
        let now = self.now();
        let signal = self.sinks[sink].clone();
        self.push(
            now,
            TraceEvent::TokenSent {
                signal,
                sink: consumer,
                occupancy,
            },
        );
    }

    /// Records a token consumed from the channel of input port `port`.
    pub(crate) fn received(&mut self, port: usize, occupancy: Option<usize>) {
        self.received[port].record(occupancy);
        let now = self.now();
        let signal = self.inputs[port].clone();
        self.push(now, TraceEvent::TokenReceived { signal, occupancy });
    }

    /// Records a pool dispatch (worker-side buffers only).
    pub(crate) fn dispatch(&mut self, component: usize, stolen: bool) {
        let now = self.now();
        self.push(now, TraceEvent::Dispatch { component, stolen });
    }

    /// Records a pool park (worker-side buffers only).
    pub(crate) fn park(&mut self) {
        let now = self.now();
        self.push(now, TraceEvent::Park);
    }

    /// Records the component's stop.  An open blocked episode ends here —
    /// terminally, without an `Unblocked` record (the stall was resolved
    /// by stopping, not by progress).
    pub(crate) fn stopped(&mut self, reason: &StopReason) {
        self.close_block(false);
        let now = self.now();
        self.push(
            now,
            TraceEvent::Stop {
                reason: reason.to_string(),
            },
        );
    }
}

/// The merged timeline of one component or pool worker.
#[derive(Debug, Clone)]
pub struct ComponentTrace {
    name: String,
    records: Vec<TraceRecord>,
    dropped: u64,
    reactions: u64,
    busy_ns: u64,
    blocked_ns: u64,
    blocked_by_signal: BTreeMap<Name, (u64, u64)>,
    sent: BTreeMap<(Name, usize), SideCounter>,
    received: BTreeMap<Name, SideCounter>,
    first_ts: Option<u64>,
    last_ts: u64,
}

impl ComponentTrace {
    /// Takes over a buffer's timeline and resolves its port-indexed token
    /// counters to the signals they count.
    fn from_buffer(name: String, buffer: TraceBuffer) -> Self {
        let counted = |counter: &SideCounter| counter.tokens > 0;
        let sent = buffer
            .sinks
            .iter()
            .zip(&buffer.sent)
            .flat_map(|(signal, counters)| {
                counters
                    .iter()
                    .enumerate()
                    .filter(|(_, counter)| counted(counter))
                    .map(move |(consumer, counter)| ((signal.clone(), consumer), counter.clone()))
            })
            .collect();
        let received = buffer
            .inputs
            .iter()
            .zip(&buffer.received)
            .filter(|(_, counter)| counted(counter))
            .map(|(signal, counter)| (signal.clone(), counter.clone()))
            .collect();
        ComponentTrace {
            name,
            records: buffer.records,
            dropped: buffer.dropped,
            reactions: buffer.reactions,
            busy_ns: buffer.busy_ns,
            blocked_ns: buffer.blocked_ns,
            blocked_by_signal: buffer.blocked_by_signal,
            sent,
            received,
            first_ts: buffer.first_ts,
            last_ts: buffer.last_ts,
        }
    }

    /// The component (or `worker{i}`) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kept timeline records, in recording order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records discarded because the bounded buffer filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Completed reactions (exact, survives record truncation).
    pub fn reactions(&self) -> u64 {
        self.reactions
    }

    /// Tokens this component consumed of `signal` (exact).
    pub fn tokens_received(&self, signal: &Name) -> u64 {
        self.received.get(signal).map_or(0, |c| c.tokens)
    }
}

/// Busy/blocked accounting of one component over its traced lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentActivity {
    /// The component name.
    pub name: String,
    /// Completed reactions.
    pub reactions: u64,
    /// Time spent inside reactions.
    pub busy: Duration,
    /// Time spent stalled on channel edges.
    pub blocked: Duration,
    /// First-event-to-last-event span of the component's timeline.
    pub span: Duration,
    /// `busy / span`, in `[0, 1]`; 0 when the span was unmeasurably short.
    pub utilization: f64,
}

/// Occupancy and traffic accounting of one channel edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeOccupancy {
    /// The signal carried by the edge.
    pub signal: Name,
    /// Index of the producing component.
    pub producer: usize,
    /// Index of the consuming component.
    pub consumer: usize,
    /// The resolved bounded capacity of the edge.
    pub capacity: usize,
    /// Tokens the producer published into this edge.
    pub tokens_sent: u64,
    /// Tokens the consumer took out of this edge.
    pub tokens_received: u64,
    /// The highest observed occupancy, when the channel reports one (a
    /// slot always does).
    pub high_water: Option<usize>,
}

impl EdgeOccupancy {
    /// Whether the observed high-water mark stayed within the resolved
    /// capacity (`None` when the channel reported no occupancy).
    pub fn within_capacity(&self) -> Option<bool> {
        self.high_water.map(|hw| hw <= self.capacity)
    }
}

/// Accumulated blocked time attributed to one signal, across every
/// component that stalled on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeBlocking {
    /// The signal components stalled on.
    pub signal: Name,
    /// Number of blocked episodes.
    pub episodes: u64,
    /// Total stalled wall-clock time across those episodes.
    pub total_blocked: Duration,
}

/// The analysis layer over a [`Trace`]: activity, occupancy and the
/// bottleneck ranking.  Carried on
/// [`crate::DeploymentStats::trace`] when tracing was enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Per-component activity, in deployment order.
    pub components: Vec<ComponentActivity>,
    /// Per-edge traffic and occupancy, in topology order.
    pub edges: Vec<EdgeOccupancy>,
    /// Signals ranked by total blocked time, worst first — the empirical
    /// bottleneck order.
    pub bottlenecks: Vec<EdgeBlocking>,
    /// Timeline records kept across all buffers.
    pub events: u64,
    /// Timeline records discarded because a bounded buffer filled up.
    pub dropped: u64,
}

impl TraceSummary {
    /// Total blocked time across every component.
    pub fn total_blocked(&self) -> Duration {
        self.components.iter().map(|c| c.blocked).sum()
    }

    /// Whether every occupancy-reporting edge stayed within its resolved
    /// capacity.
    pub fn occupancy_within_capacity(&self) -> bool {
        self.edges
            .iter()
            .all(|e| e.within_capacity().unwrap_or(true))
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} event(s) kept, {} dropped",
            self.events, self.dropped
        )?;
        for c in &self.components {
            writeln!(
                f,
                "  {}: {} reactions, busy {:?}, blocked {:?}, utilization {:.0}%",
                c.name,
                c.reactions,
                c.busy,
                c.blocked,
                c.utilization * 100.0
            )?;
        }
        for e in &self.edges {
            write!(
                f,
                "  edge {} ({}→{}): {} sent, {} received",
                e.signal, e.producer, e.consumer, e.tokens_sent, e.tokens_received
            )?;
            match e.high_water {
                Some(hw) => writeln!(f, ", high water {hw}/{}", e.capacity)?,
                None => writeln!(f, ", occupancy unobserved (capacity {})", e.capacity)?,
            }
        }
        for b in self.bottlenecks.iter().take(3) {
            if b.total_blocked.is_zero() {
                break;
            }
            writeln!(
                f,
                "  bottleneck {}: {} episode(s), {:?} blocked",
                b.signal, b.episodes, b.total_blocked
            )?;
        }
        Ok(())
    }
}

/// Predicted vs measured pace of one component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentDrift {
    /// The component name.
    pub name: String,
    /// Reactions the static model predicts for the fed input count.
    pub predicted: f64,
    /// Reactions the traced run measured.
    pub measured: u64,
}

impl ComponentDrift {
    /// `measured - predicted`, in reactions.
    pub fn drift(&self) -> f64 {
        self.measured as f64 - self.predicted
    }
}

/// Predicted vs measured traffic of one channel edge.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeDrift {
    /// The signal carried by the edge.
    pub signal: Name,
    /// Index of the producing component.
    pub producer: usize,
    /// Index of the consuming component.
    pub consumer: usize,
    /// Tokens the static model predicts cross the edge.
    pub predicted: f64,
    /// Tokens the producer published (measured).
    pub sent: u64,
    /// Tokens the consumer took out (measured) — the drift basis, since
    /// only consumed tokens are traffic that crossed.
    pub received: u64,
}

impl EdgeDrift {
    /// `received - predicted`, in tokens.
    pub fn drift(&self) -> f64 {
        self.received as f64 - self.predicted
    }
}

/// The edge-by-edge comparison of a traced run against a static
/// [`PerformancePrediction`] — where the model and the machine disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Environment input tokens the predictions were scaled by.
    pub inputs: u64,
    /// Per-component reaction drift, in deployment order.
    pub components: Vec<ComponentDrift>,
    /// Per-edge traffic drift, in topology order.
    pub edges: Vec<EdgeDrift>,
}

impl DriftReport {
    /// The largest absolute component drift, in reactions.
    pub fn max_component_drift(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.drift().abs())
            .fold(0.0, f64::max)
    }

    /// The largest absolute edge drift, in tokens.
    pub fn max_edge_drift(&self) -> f64 {
        self.edges
            .iter()
            .map(|e| e.drift().abs())
            .fold(0.0, f64::max)
    }

    /// Whether every component and edge drift stays within `slop`
    /// (absolute, in reactions/tokens) — the startup transient and final
    /// partial wave of a steady-state model land here.
    pub fn within(&self, slop: f64) -> bool {
        self.max_component_drift() <= slop && self.max_edge_drift() <= slop
    }
}

impl fmt::Display for DriftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "drift report over {} input token(s):", self.inputs)?;
        for c in &self.components {
            writeln!(
                f,
                "  {}: predicted {:.1} reactions, measured {} (drift {:+.1})",
                c.name,
                c.predicted,
                c.measured,
                c.drift()
            )?;
        }
        for e in &self.edges {
            writeln!(
                f,
                "  edge {} ({}→{}): predicted {:.1} tokens, sent {}, received {} (drift {:+.1})",
                e.signal,
                e.producer,
                e.consumer,
                e.predicted,
                e.sent,
                e.received,
                e.drift()
            )?;
        }
        Ok(())
    }
}

/// The merged event timeline of one deployment run.
#[derive(Debug, Clone)]
pub struct Trace {
    components: Vec<ComponentTrace>,
    workers: Vec<ComponentTrace>,
    edges: Vec<ChannelSpec>,
}

impl Trace {
    pub(crate) fn assemble(
        components: Vec<(String, TraceBuffer)>,
        workers: Vec<TraceBuffer>,
        edges: Vec<ChannelSpec>,
    ) -> Self {
        Trace {
            components: components
                .into_iter()
                .map(|(name, buffer)| ComponentTrace::from_buffer(name, buffer))
                .collect(),
            workers: workers
                .into_iter()
                .enumerate()
                .map(|(i, buffer)| ComponentTrace::from_buffer(format!("worker{i}"), buffer))
                .collect(),
            edges,
        }
    }

    /// Per-component timelines, in deployment order.
    pub fn components(&self) -> &[ComponentTrace] {
        &self.components
    }

    /// Per-pool-worker timelines (empty for a served tenant).
    pub fn workers(&self) -> &[ComponentTrace] {
        &self.workers
    }

    /// The resolved channel specs of the traced run, in topology order.
    pub fn edges(&self) -> &[ChannelSpec] {
        &self.edges
    }

    /// Timeline records discarded across all buffers (0 means the
    /// timeline is complete).
    pub fn dropped(&self) -> u64 {
        self.components
            .iter()
            .chain(&self.workers)
            .map(|c| c.dropped)
            .sum()
    }

    fn all(&self) -> impl Iterator<Item = &ComponentTrace> {
        self.components.iter().chain(&self.workers)
    }

    /// Derives the analysis summary: activity, occupancy and bottlenecks.
    pub fn summary(&self) -> TraceSummary {
        let components = self
            .components
            .iter()
            .map(|c| {
                let span_ns = c.first_ts.map_or(0, |first| c.last_ts - first);
                ComponentActivity {
                    name: c.name.clone(),
                    reactions: c.reactions,
                    busy: Duration::from_nanos(c.busy_ns),
                    blocked: Duration::from_nanos(c.blocked_ns),
                    span: Duration::from_nanos(span_ns),
                    utilization: if span_ns == 0 {
                        0.0
                    } else {
                        c.busy_ns as f64 / span_ns as f64
                    },
                }
            })
            .collect();

        // The k-th channel of a signal (in topology order) is the k-th
        // sink the producer flushes into: recover the per-edge sent
        // counters by walking the specs in order.
        let mut sink_index: BTreeMap<Name, usize> = BTreeMap::new();
        let edges = self
            .edges
            .iter()
            .map(|spec| {
                let k = sink_index.entry(spec.signal.clone()).or_insert(0);
                let sink = *k;
                *k += 1;
                let sent = self
                    .components
                    .get(spec.producer)
                    .and_then(|c| c.sent.get(&(spec.signal.clone(), sink)))
                    .cloned()
                    .unwrap_or_default();
                let received = self
                    .components
                    .get(spec.consumer)
                    .and_then(|c| c.received.get(&spec.signal))
                    .cloned()
                    .unwrap_or_default();
                EdgeOccupancy {
                    signal: spec.signal.clone(),
                    producer: spec.producer,
                    consumer: spec.consumer,
                    capacity: spec.capacity,
                    tokens_sent: sent.tokens,
                    tokens_received: received.tokens,
                    high_water: match (sent.high_water, received.high_water) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (hw, None) | (None, hw) => hw,
                    },
                }
            })
            .collect();

        let mut by_signal: BTreeMap<Name, (u64, u64)> = BTreeMap::new();
        for c in &self.components {
            for (signal, (episodes, ns)) in &c.blocked_by_signal {
                let entry = by_signal.entry(signal.clone()).or_default();
                entry.0 += episodes;
                entry.1 += ns;
            }
        }
        let mut bottlenecks: Vec<EdgeBlocking> = by_signal
            .into_iter()
            .map(|(signal, (episodes, ns))| EdgeBlocking {
                signal,
                episodes,
                total_blocked: Duration::from_nanos(ns),
            })
            .collect();
        bottlenecks.sort_by_key(|edge| std::cmp::Reverse(edge.total_blocked));

        TraceSummary {
            components,
            edges,
            bottlenecks,
            events: self.all().map(|c| c.records.len() as u64).sum(),
            dropped: self.dropped(),
        }
    }

    /// Compares the traced run against a static prediction, edge by edge
    /// and component by component, scaled to `inputs` environment tokens.
    pub fn drift_report(&self, prediction: &PerformancePrediction, inputs: u64) -> DriftReport {
        let summary_edges = self.summary().edges;
        let components = self
            .components
            .iter()
            .map(|c| {
                let predicted = prediction
                    .components
                    .iter()
                    .find(|p| p.name == c.name)
                    .map_or(0.0, |p| p.reactions_per_input * inputs as f64);
                ComponentDrift {
                    name: c.name.clone(),
                    predicted,
                    measured: c.reactions,
                }
            })
            .collect();
        let edges = summary_edges
            .into_iter()
            .map(|edge| {
                let predicted = prediction
                    .edges
                    .iter()
                    .find(|p| {
                        p.signal == edge.signal
                            && p.producer == edge.producer
                            && p.consumer == edge.consumer
                    })
                    .map_or(0.0, |p| p.tokens_per_input * inputs as f64);
                EdgeDrift {
                    signal: edge.signal,
                    producer: edge.producer,
                    consumer: edge.consumer,
                    predicted,
                    sent: edge.tokens_sent,
                    received: edge.tokens_received,
                }
            })
            .collect();
        DriftReport {
            inputs,
            components,
            edges,
        }
    }

    /// Renders the timeline as Chrome trace-event JSON — load the string
    /// (saved as a `.json` file) in Perfetto or `chrome://tracing`.
    /// `pid` 1 is the deployment; each component is a `tid` in deployment
    /// order, with pool workers on the `tid`s after them.  Reactions and
    /// blocked episodes become duration events, token movements become
    /// occupancy counter tracks, and dispatches/parks/stops become
    /// instants.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |event: String| {
            // A closure so every event site shares the separator logic.
            if first {
                first = false;
            } else {
                out.push(',');
            }
            out.push_str(&event);
        };

        for (tid, c) in self.components.iter().chain(&self.workers).enumerate() {
            emit(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(&c.name)
            ));
            let mut open_block: Option<&Name> = None;
            for record in &c.records {
                let ts = record.ts_ns as f64 / 1000.0;
                match &record.event {
                    TraceEvent::ReactionBegin => emit(format!(
                        "{{\"name\":\"reaction\",\"ph\":\"B\",\"ts\":{ts:.3},\"pid\":1,\
                         \"tid\":{tid}}}"
                    )),
                    TraceEvent::ReactionEnd => emit(format!(
                        "{{\"name\":\"reaction\",\"ph\":\"E\",\"ts\":{ts:.3},\"pid\":1,\
                         \"tid\":{tid}}}"
                    )),
                    TraceEvent::BlockedOn { signal, direction } => {
                        open_block = Some(signal);
                        emit(format!(
                            "{{\"name\":\"blocked:{}\",\"cat\":\"{direction}\",\"ph\":\"B\",\
                             \"ts\":{ts:.3},\"pid\":1,\"tid\":{tid}}}",
                            escape_json(signal.as_str())
                        ));
                    }
                    TraceEvent::Unblocked { signal } => {
                        open_block = None;
                        emit(format!(
                            "{{\"name\":\"blocked:{}\",\"ph\":\"E\",\"ts\":{ts:.3},\"pid\":1,\
                             \"tid\":{tid}}}",
                            escape_json(signal.as_str())
                        ));
                    }
                    TraceEvent::TokenSent {
                        signal, occupancy, ..
                    }
                    | TraceEvent::TokenReceived { signal, occupancy } => {
                        if let Some(occ) = occupancy {
                            emit(format!(
                                "{{\"name\":\"occupancy:{}\",\"ph\":\"C\",\"ts\":{ts:.3},\
                                 \"pid\":1,\"args\":{{\"tokens\":{occ}}}}}",
                                escape_json(signal.as_str())
                            ));
                        }
                    }
                    TraceEvent::Dispatch { component, stolen } => {
                        let name = if *stolen { "steal" } else { "dispatch" };
                        let target = self
                            .components
                            .get(*component)
                            .map_or("?", |c| c.name.as_str());
                        emit(format!(
                            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\
                             \"pid\":1,\"tid\":{tid},\"args\":{{\"component\":\"{}\"}}}}",
                            escape_json(target)
                        ));
                    }
                    TraceEvent::Park => emit(format!(
                        "{{\"name\":\"park\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\"pid\":1,\
                         \"tid\":{tid}}}"
                    )),
                    TraceEvent::Stop { reason } => {
                        // A blocked episode that ended terminally has no
                        // Unblocked record: close its duration event here
                        // so the B/E pairs nest.
                        if let Some(signal) = open_block.take() {
                            emit(format!(
                                "{{\"name\":\"blocked:{}\",\"ph\":\"E\",\"ts\":{ts:.3},\
                                 \"pid\":1,\"tid\":{tid}}}",
                                escape_json(signal.as_str())
                            ));
                        }
                        emit(format!(
                            "{{\"name\":\"stop\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\
                             \"pid\":1,\"tid\":{tid},\"args\":{{\"reason\":\"{}\"}}}}",
                            escape_json(reason)
                        ));
                    }
                }
            }
        }
        let _ = write!(out, "],\"displayTimeUnit\":\"ms\"}}");
        out
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::CapacitySource;

    fn name(s: &str) -> Name {
        Name::from(s)
    }

    fn spec(signal: &str, producer: usize, consumer: usize, capacity: usize) -> ChannelSpec {
        ChannelSpec {
            signal: name(signal),
            producer,
            consumer,
            capacity,
            source: CapacitySource::Default,
            derivation: None,
        }
    }

    #[test]
    fn the_buffer_drops_beyond_its_limit_but_keeps_exact_aggregates() {
        let mut buffer = TraceBuffer::new(Instant::now(), 4);
        for _ in 0..8 {
            let begin = buffer.now();
            buffer.reaction(begin);
        }
        assert_eq!(buffer.records.len(), 4, "timeline truncates");
        assert_eq!(buffer.dropped, 12, "8 reactions push 16 records");
        assert_eq!(buffer.reactions, 8, "the aggregate stays exact");
    }

    #[test]
    fn blocked_episodes_are_deduplicated_and_balanced() {
        let mut buffer = TraceBuffer::new(Instant::now(), 1024);
        let x = name("x");
        buffer.name_ports(vec![x.clone()], Vec::new());
        buffer.blocked(&x, BlockDirection::Upstream);
        buffer.blocked(&x, BlockDirection::Upstream); // re-entry: no-op
        buffer.received(0, Some(0));
        buffer.unblocked(&x);
        buffer.unblocked(&x); // double close: no-op
        let blocks = buffer
            .records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::BlockedOn { .. }))
            .count();
        let unblocks = buffer
            .records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Unblocked { .. }))
            .count();
        assert_eq!((blocks, unblocks), (1, 1));
        assert_eq!(buffer.blocked_by_signal.get(&x).map(|e| e.0), Some(1));
    }

    #[test]
    fn a_terminal_stop_closes_the_open_episode_without_an_unblocked_record() {
        let mut buffer = TraceBuffer::new(Instant::now(), 1024);
        let x = name("x");
        buffer.blocked(&x, BlockDirection::Upstream);
        buffer.stopped(&StopReason::UpstreamClosed(x.clone()));
        assert!(buffer.open_block.is_none());
        assert!(!buffer
            .records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Unblocked { .. })));
        assert_eq!(
            buffer.blocked_by_signal.get(&x).map(|e| e.0),
            Some(1),
            "the episode still accounts its blocked time"
        );
    }

    #[test]
    fn the_summary_merges_edges_and_ranks_bottlenecks() {
        let epoch = Instant::now();
        let x = name("x");
        let mut producer = TraceBuffer::new(epoch, 1024);
        producer.name_ports(vec![name("a")], vec![x.clone()]);
        producer.sent(0, 0, Some(1));
        producer.sent(0, 0, Some(2));
        producer.stopped(&StopReason::EnvironmentExhausted(name("a")));
        let mut consumer = TraceBuffer::new(epoch, 1024);
        consumer.name_ports(vec![x.clone()], Vec::new());
        consumer.blocked(&x, BlockDirection::Upstream);
        consumer.received(0, Some(1));
        consumer.unblocked(&x);
        consumer.received(0, Some(0));
        consumer.stopped(&StopReason::UpstreamClosed(x.clone()));
        let trace = Trace::assemble(
            vec![("p".into(), producer), ("c".into(), consumer)],
            Vec::new(),
            vec![spec("x", 0, 1, 2)],
        );
        let summary = trace.summary();
        assert_eq!(summary.edges.len(), 1);
        let edge = &summary.edges[0];
        assert_eq!(edge.tokens_sent, 2);
        assert_eq!(edge.tokens_received, 2);
        assert_eq!(edge.high_water, Some(2));
        assert_eq!(edge.within_capacity(), Some(true));
        assert!(summary.occupancy_within_capacity());
        assert_eq!(summary.bottlenecks.len(), 1);
        assert_eq!(summary.bottlenecks[0].signal, x);
        assert_eq!(summary.bottlenecks[0].episodes, 1);
        let text = summary.to_string();
        assert!(text.contains("edge x (0→1): 2 sent, 2 received, high water 2/2"));
    }

    #[test]
    fn broadcast_sinks_map_onto_their_topology_edges_in_order() {
        // One producer, two consumers of the same signal: sink 0 is the
        // first spec of the signal, sink 1 the second.
        let epoch = Instant::now();
        let x = name("x");
        let mut producer = TraceBuffer::new(epoch, 1024);
        producer.name_ports(Vec::new(), vec![x.clone()]);
        producer.sent(0, 0, Some(1));
        producer.sent(0, 1, Some(1));
        producer.sent(0, 1, Some(2));
        let mut c1 = TraceBuffer::new(epoch, 1024);
        c1.name_ports(vec![x.clone()], Vec::new());
        c1.received(0, Some(0));
        let c2 = TraceBuffer::new(epoch, 1024);
        let trace = Trace::assemble(
            vec![("p".into(), producer), ("c1".into(), c1), ("c2".into(), c2)],
            Vec::new(),
            vec![spec("x", 0, 1, 4), spec("x", 0, 2, 4)],
        );
        let summary = trace.summary();
        assert_eq!(summary.edges[0].tokens_sent, 1);
        assert_eq!(summary.edges[0].tokens_received, 1);
        assert_eq!(summary.edges[1].tokens_sent, 2);
        assert_eq!(summary.edges[1].tokens_received, 0);
        assert_eq!(summary.edges[1].high_water, Some(2));
    }

    #[test]
    fn the_chrome_export_escapes_and_closes_terminal_blocks() {
        let epoch = Instant::now();
        let x = name("x");
        let mut consumer = TraceBuffer::new(epoch, 1024);
        let begin = consumer.now();
        consumer.reaction(begin);
        consumer.blocked(&x, BlockDirection::Upstream);
        consumer.stopped(&StopReason::Fault("a \"quoted\" fault".into()));
        let trace = Trace::assemble(vec![("c".into(), consumer)], Vec::new(), Vec::new());
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\\\"quoted\\\""), "escaped: {json}");
        // The terminal stop closes the open blocked episode before the
        // stop instant, so B/E pairs balance.
        let begins = json.matches("\"name\":\"blocked:x\",\"cat\"").count();
        let ends = json.matches("\"name\":\"blocked:x\",\"ph\":\"E\"").count();
        assert_eq!((begins, ends), (1, 1), "{json}");
    }

    #[test]
    fn json_escaping_covers_the_control_plane() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
