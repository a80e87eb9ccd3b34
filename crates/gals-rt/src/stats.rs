//! Execution counters of a deployment run.

use std::fmt;
use std::time::Duration;

use signal_lang::Name;

use crate::channel::CapacitySource;
use crate::deploy::ChannelSpec;
use crate::predict::PerformancePrediction;
use crate::sched::ExecutionMode;
use crate::trace::TraceSummary;

/// Why a worker thread stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// An environment input stream ran dry at an instant that required it —
    /// the normal end of a finite run.
    EnvironmentExhausted(Name),
    /// The producer of this channel signal terminated and its FIFO is
    /// drained, so the pending blocking read can never complete.
    UpstreamClosed(Name),
    /// The per-component step budget was reached.
    StepLimit,
    /// The machine faulted.
    Fault(String),
    /// The pool scheduler found every surviving component of a sealed
    /// batch run blocked on a channel edge with nothing queued or
    /// dispatched: a communication deadlock (only reachable on a cyclic
    /// topology the static cycle analysis let through: every feedback
    /// edge bounded, but the loop never primed with a first token, which
    /// hand-installed bounds without clock words cannot rule out).  The
    /// pool detects it and stops instead of hanging.
    Deadlocked,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::EnvironmentExhausted(n) => {
                write!(f, "environment input {n} exhausted")
            }
            StopReason::UpstreamClosed(n) => write!(f, "upstream of {n} closed"),
            StopReason::StepLimit => write!(f, "step limit reached"),
            StopReason::Fault(m) => write!(f, "fault: {m}"),
            StopReason::Deadlocked => write!(f, "deadlocked in a communication cycle"),
        }
    }
}

/// The counters of one deployed component.
#[derive(Debug, Clone)]
pub struct ComponentStats {
    /// The component name.
    pub name: String,
    /// Completed synchronous reactions (steps).
    pub reactions: u64,
    /// Blocking reads: steps that had to wait for a channel token.
    pub blocked_reads: u64,
    /// Tokens delivered into downstream channels.
    pub tokens_sent: u64,
    /// Tokens received from upstream channels.
    pub tokens_received: u64,
    /// Why the worker stopped.
    pub stop: StopReason,
}

impl fmt::Display for ComponentStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} reactions, {} blocked reads, {} sent, {} received ({})",
            self.name,
            self.reactions,
            self.blocked_reads,
            self.tokens_sent,
            self.tokens_received,
            self.stop
        )
    }
}

/// The scheduling counters of one pool worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolWorkerStats {
    /// The worker's index in the pool.
    pub worker: usize,
    /// Components dispatched (each dispatch runs up to one quantum).
    pub dispatches: u64,
    /// Dispatches whose component was stolen from a sibling's ready heap.
    pub steals: u64,
    /// Times the worker found no runnable component and parked: after
    /// its hot window closed, or without having dispatched since its last
    /// park.  One park lasts until new work is announced, however many
    /// timeouts it re-arms.
    pub parks: u64,
    /// Whether the worker's startup hook pinned it to a core
    /// ([`crate::PoolOptions::worker_setup`]).  Always `false` for the
    /// pool a [`crate::Deployment::run`] starts, which runs no startup
    /// hook.
    pub pinned: bool,
}

impl fmt::Display for PoolWorkerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker {}: {} dispatches ({} stolen), {} parks",
            self.worker, self.dispatches, self.steals, self.parks
        )?;
        if self.pinned {
            write!(f, ", pinned")?;
        }
        Ok(())
    }
}

/// The range of resolved per-edge channel capacities of one deployment —
/// per-signal overrides make edges differ, so a single number cannot
/// describe the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityRange {
    /// The smallest resolved edge capacity (0 when there is no channel).
    pub min: usize,
    /// The largest resolved edge capacity (0 when there is no channel).
    pub max: usize,
}

impl CapacityRange {
    /// The range of a topology where every edge has the same capacity.
    pub fn exactly(capacity: usize) -> Self {
        CapacityRange {
            min: capacity,
            max: capacity,
        }
    }

    /// Folds the resolved capacities of every edge into a range; an empty
    /// topology yields `0..0`.
    pub fn of_edges(capacities: impl IntoIterator<Item = usize>) -> Self {
        let mut range: Option<CapacityRange> = None;
        for capacity in capacities {
            range = Some(match range {
                None => CapacityRange::exactly(capacity),
                Some(r) => CapacityRange {
                    min: r.min.min(capacity),
                    max: r.max.max(capacity),
                },
            });
        }
        range.unwrap_or(CapacityRange { min: 0, max: 0 })
    }

    /// Whether every edge has the same capacity.
    pub fn is_uniform(&self) -> bool {
        self.min == self.max
    }
}

impl fmt::Display for CapacityRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_uniform() {
            write!(f, "{}", self.min)
        } else {
            write!(f, "{}..{}", self.min, self.max)
        }
    }
}

/// The aggregated report of one deployment run.
#[derive(Debug, Clone)]
pub struct DeploymentStats {
    /// Per-component counters, in deployment order.
    pub components: Vec<ComponentStats>,
    /// Number of bounded channels wired between the components.
    pub channels: usize,
    /// The range of resolved per-edge capacities (min..max over the
    /// topology — per-signal overrides and derived bounds make edges
    /// differ).
    pub capacity: CapacityRange,
    /// The resolved per-edge channel specs of the run, each carrying its
    /// capacity, the capacity's source and (for derived edges) the
    /// derivation.
    pub edges: Vec<ChannelSpec>,
    /// The shape of the pool that ran the components.
    pub mode: ExecutionMode,
    /// Per-worker scheduling counters of the pool (empty for a served
    /// tenant: its pool outlives it and counts every tenant).
    pub pool_workers: Vec<PoolWorkerStats>,
    /// Wall-clock duration of the run (spawn to last join).
    pub elapsed: Duration,
    /// The static performance prediction installed before the run, when
    /// one was ([`crate::Deployment::set_prediction`]) — carried into the
    /// report so predicted and measured paces sit side by side.
    pub prediction: Option<PerformancePrediction>,
    /// The per-event trace analysis (busy/blocked time, edge occupancy
    /// high-water marks, bottleneck ranking), when the run was traced
    /// ([`crate::Deployment::set_tracing`]).
    pub trace: Option<TraceSummary>,
}

impl DeploymentStats {
    /// Total reactions across every component.
    pub fn total_reactions(&self) -> u64 {
        self.components.iter().map(|c| c.reactions).sum()
    }

    /// Total blocking reads across every component.
    pub fn total_blocked_reads(&self) -> u64 {
        self.components.iter().map(|c| c.blocked_reads).sum()
    }

    /// Total tokens delivered *into* the channels, counted at the sending
    /// side.  On a clean, fully drained run this equals
    /// [`total_tokens_received`](Self::total_tokens_received); a component
    /// that stops with tokens still buffered upstream (e.g. its own
    /// environment stream ran dry first) leaves the sent count ahead.
    pub fn total_tokens(&self) -> u64 {
        self.components.iter().map(|c| c.tokens_sent).sum()
    }

    /// Total tokens consumed *out of* the channels, counted at the
    /// receiving side.  Never exceeds [`total_tokens`](Self::total_tokens).
    pub fn total_tokens_received(&self) -> u64 {
        self.components.iter().map(|c| c.tokens_received).sum()
    }

    /// Total dispatches across the pool workers (0 for a served tenant).
    pub fn total_dispatches(&self) -> u64 {
        self.pool_workers.iter().map(|w| w.dispatches).sum()
    }

    /// Total steals across the pool workers (0 for a served tenant).
    pub fn total_steals(&self) -> u64 {
        self.pool_workers.iter().map(|w| w.steals).sum()
    }

    /// Reactions per second over the whole run, or `None` when the run was
    /// too fast for the clock to measure at all — the fastest runs are not
    /// "0 reactions per second".
    pub fn reactions_per_second(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        (secs > 0.0).then(|| self.total_reactions() as f64 / secs)
    }
}

impl fmt::Display for DeploymentStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deployment of {} component(s), {} channel(s) of capacity {} \
             on a {}: {} reactions, {} blocked reads, {} tokens in {:?}",
            self.components.len(),
            self.channels,
            self.capacity,
            self.mode,
            self.total_reactions(),
            self.total_blocked_reads(),
            self.total_tokens(),
            self.elapsed
        )?;
        for c in &self.components {
            writeln!(f, "  {c}")?;
        }
        // Per-edge resolution, when anything deviates from the default.
        for edge in &self.edges {
            if edge.source == CapacitySource::Default {
                continue;
            }
            write!(
                f,
                "  channel {}: capacity {} ({})",
                edge.signal, edge.capacity, edge.source
            )?;
            if let Some(why) = &edge.derivation {
                write!(f, " — {why}")?;
            }
            writeln!(f)?;
        }
        for w in &self.pool_workers {
            writeln!(f, "  {w}")?;
        }
        if let Some(prediction) = &self.prediction {
            for line in prediction.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        if let Some(trace) = &self.trace {
            for line in trace.to_string().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeploymentStats {
        DeploymentStats {
            components: vec![
                ComponentStats {
                    name: "p".into(),
                    reactions: 5,
                    blocked_reads: 1,
                    tokens_sent: 2,
                    tokens_received: 0,
                    stop: StopReason::EnvironmentExhausted(Name::from("a")),
                },
                ComponentStats {
                    name: "c".into(),
                    reactions: 4,
                    blocked_reads: 2,
                    tokens_sent: 0,
                    tokens_received: 2,
                    stop: StopReason::UpstreamClosed(Name::from("x")),
                },
            ],
            channels: 1,
            capacity: CapacityRange::exactly(1),
            edges: Vec::new(),
            mode: ExecutionMode::Pool {
                workers: 1,
                quantum: 32,
            },
            pool_workers: Vec::new(),
            elapsed: Duration::from_millis(2),
            prediction: None,
            trace: None,
        }
    }

    #[test]
    fn totals_aggregate_component_counters() {
        let stats = sample();
        assert_eq!(stats.total_reactions(), 9);
        assert_eq!(stats.total_blocked_reads(), 3);
        assert_eq!(stats.total_tokens(), 2);
        assert!(stats.reactions_per_second().expect("measurable") > 0.0);
        let text = stats.to_string();
        assert!(text.contains("environment input a exhausted"));
        assert!(text.contains("upstream of x closed"));
        assert!(text.contains("pool of 1 worker(s), quantum 32"));
    }

    #[test]
    fn an_unmeasurably_fast_run_is_not_zero_reactions_per_second() {
        // Regression: a zero elapsed used to report 0.0 — reading as
        // "infinitely slow" for exactly the fastest runs.
        let mut stats = sample();
        stats.elapsed = Duration::ZERO;
        assert_eq!(stats.reactions_per_second(), None);
    }

    #[test]
    fn capacity_ranges_fold_and_render() {
        assert_eq!(
            CapacityRange::of_edges([8, 2, 8]),
            CapacityRange { min: 2, max: 8 }
        );
        assert_eq!(
            CapacityRange::of_edges([]),
            CapacityRange { min: 0, max: 0 }
        );
        assert_eq!(CapacityRange::exactly(4).to_string(), "4");
        assert!(CapacityRange::exactly(4).is_uniform());
        assert_eq!(CapacityRange { min: 2, max: 8 }.to_string(), "2..8");
        assert!(!CapacityRange { min: 2, max: 8 }.is_uniform());
    }

    #[test]
    fn pool_counters_aggregate_and_render() {
        let mut stats = sample();
        stats.mode = ExecutionMode::Pool {
            workers: 2,
            quantum: 8,
        };
        stats.pool_workers = vec![
            PoolWorkerStats {
                worker: 0,
                dispatches: 7,
                steals: 2,
                parks: 1,
                pinned: false,
            },
            PoolWorkerStats {
                worker: 1,
                dispatches: 3,
                steals: 1,
                parks: 4,
                pinned: true,
            },
        ];
        assert_eq!(stats.total_dispatches(), 10);
        assert_eq!(stats.total_steals(), 3);
        let text = stats.to_string();
        assert!(text.contains("pool of 2 worker(s), quantum 8"));
        assert!(text.contains("worker 0: 7 dispatches (2 stolen), 1 parks"));
        assert!(text.contains("worker 1: 3 dispatches (1 stolen), 4 parks, pinned"));
    }
}
