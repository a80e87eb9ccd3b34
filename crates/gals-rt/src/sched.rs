//! The work-stealing batched pool scheduler — batch and shared (serving)
//! flavors.
//!
//! Thread-per-component execution oversubscribes every real machine once a
//! deployment grows past core count — the paper's claim is about
//! *arbitrary* component counts, so the runtime needs an execution mode
//! whose OS-thread footprint is fixed.  This module provides it: a pool of
//! `workers` OS threads cooperatively runs every component
//! (the `crate::worker::Driver`) by pulling **ready** components from
//! per-worker deques — each worker pops its own deque from the back and,
//! when empty, steals from a sibling's front — and stepping each one up to
//! `quantum` reactions per dispatch (the batching that amortizes channel
//! hand-offs and deque traffic over many reactions).  A component that
//! yields its quantum is re-queued at the *front* of the deque, behind
//! every other ready component, so the quantum really does round-robin
//! the deque instead of re-dispatching the yielder forever.
//!
//! A dispatch never blocks the worker thread: a driver that runs into an
//! empty upstream or a full downstream edge returns
//! `Pending` (see `crate::worker`) and is parked in a per-component
//! *blocked* state.  Readiness notification is topological: every token a
//! dispatch moves can only unblock the component's channel neighbors, so
//! after each dispatch that moved tokens (or finished, closing its edges)
//! the scheduler re-queues the blocked neighbors.  A wake that races a
//! concurrent dispatch of the same component is latched in a `NOTIFIED`
//! state instead of being lost — the dispatching worker observes it when it
//! tries to block and re-queues the component itself.  Workers with no
//! runnable component park on a condvar with a bounded timeout (same
//! insurance as the SPSC ring: a hypothetically missed notify costs a
//! retry, never a hang).
//!
//! Because environment streams are preloaded, every wake originates inside
//! a dispatch; when nothing is queued, nothing is running and components
//! remain, the blocked components can never make progress again — a true
//! communication deadlock (only reachable on a cyclic topology that got
//! past the static cycle analysis: explicitly allowed, or derivably
//! bounded but never primed with a first token).  The pool detects that
//! state and finalizes the survivors with [`StopReason::Deadlocked`]
//! instead of hanging, which the dedicated-thread mode would.
//!
//! # The shared pool (serving flavor)
//!
//! [`SharedPool`] generalizes the same machinery from one batch deployment
//! to **many concurrent deployments on one pool of workers** — the
//! substrate of the `gals-serve` crate.  The differences, and the
//! invariants each upholds:
//!
//! * **Dynamic component registry.**  Components are not a fixed `Vec`
//!   sized at startup: each submitted deployment contributes its own
//!   reference-counted cells, namespaced per deployment (a cell knows its
//!   deployment group and its local index; global identity is the `Arc`
//!   itself, so component indices of different deployments can never
//!   collide).  Neighbor links are weak references — a drained deployment
//!   frees its cells even though its components referenced each other.
//! * **Priority-aware ready set.**  The per-worker FIFO deques become
//!   per-worker max-heaps ordered by `(priority, submission age)`: a
//!   higher-priority ready component is dispatched before any
//!   lower-priority one *on every pop, including steals* — this is what
//!   lets a latency-critical deployment overtake batch tenants — while
//!   components of equal priority keep the FIFO fairness of the batch
//!   pool (a yielded component re-enters behind its equal-priority peers,
//!   because re-enqueueing assigns a fresh, larger age).
//! * **External wakes.**  Batch runs preload every environment stream, so
//!   every wake originates inside a dispatch.  A served deployment is fed
//!   *while it runs*: [`SubmittedDeployment::feed`] pushes tokens into an
//!   ingress channel and then performs the same latched wake the
//!   scheduler uses internally, so a component blocked on an empty
//!   environment edge is re-queued by the client's feed — and draining an
//!   egress channel ([`SubmittedDeployment::poll_outputs`]) wakes the
//!   producer that a full egress buffer had blocked.
//! * **No deadlock finalization.**  Nothing queued with components
//!   remaining is a *normal* state here — every tenant may simply be
//!   waiting for its next external feed — so the shared pool never
//!   finalizes blocked components; idle workers just park.  Static
//!   admission (the serve layer prices only verified designs whose
//!   cycles are refused or proven) is what replaces the batch pool's
//!   dynamic detection.
//! * **Worker↔core affinity.**  Each worker thread runs an optional
//!   setup hook at startup ([`PoolOptions::worker_setup`]); the hook's
//!   success is reported as the `pinned` flag of that worker's
//!   [`PoolWorkerStats`].  The scheduler itself stays OS-agnostic — the
//!   hook is where a serving layer pins workers to cores.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::time::{Duration, Instant};

use signal_lang::{Name, Value};
use sim::Flows;

use crate::deploy::{
    DeployError, DeploymentOutcome, EgressPort, IngressPort, OutcomeParts, StagedDeployment,
    Topology,
};
use crate::stats::{PoolWorkerStats, StopReason};
use crate::trace::TraceBuffer;
use crate::transport::TrySendError;
use crate::worker::{DriveOutcome, Driver, WorkerReport};

/// How a deployment maps components onto OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One dedicated OS thread per component; channel waits park the
    /// thread (blocking-read/blocking-write backpressure).  The mode of
    /// earlier releases, and still the default.
    #[default]
    ThreadPerComponent,
    /// A fixed pool of `workers` OS threads cooperatively runs every
    /// component: ready components are pulled from work-stealing deques
    /// and stepped up to `quantum` reactions per dispatch.  The OS-thread
    /// footprint is `workers`, whatever the component count.
    Pool {
        /// Pool size in OS threads (must be nonzero).
        workers: usize,
        /// Reactions one dispatch may run before the component is re-queued
        /// behind its peers (must be nonzero).  Larger quanta amortize
        /// scheduling overhead; smaller quanta interleave more fairly.
        quantum: u64,
    },
}

impl ExecutionMode {
    /// A pool sized to the machine: one worker per available core, with a
    /// moderate 32-reaction quantum.
    pub fn pool_per_core() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|cores| cores.get())
            .unwrap_or(1);
        ExecutionMode::Pool {
            workers,
            quantum: 32,
        }
    }
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionMode::ThreadPerComponent => write!(f, "thread-per-component"),
            ExecutionMode::Pool { workers, quantum } => {
                write!(f, "pool of {workers} worker(s), quantum {quantum}")
            }
        }
    }
}

/// Per-component scheduling states (one `AtomicU8` per component).
///
/// Transitions:
/// `QUEUED -> RUNNING` (a worker pops the component and takes its driver),
/// `RUNNING -> QUEUED|BLOCKED|DONE` (dispatch concluded),
/// `RUNNING -> NOTIFIED` (a wake raced the dispatch; latched, not lost),
/// `NOTIFIED -> QUEUED` (the dispatching worker re-queues instead of
/// blocking), `BLOCKED -> QUEUED` (a neighbor's wake re-queues).
const BLOCKED: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Bound on one idle park: a missed notify (prevented by the `SeqCst`
/// handshake, but cheap to insure against) costs a retry, not a hang.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

struct Shared {
    /// Driver storage while a component is not being dispatched.  A
    /// component index lives in at most one deque at a time, and `QUEUED`
    /// implies its driver is in the slot.
    slots: Vec<Mutex<Option<Driver>>>,
    states: Vec<AtomicU8>,
    reports: Vec<Mutex<Option<WorkerReport>>>,
    /// The per-worker deques: owner pushes/pops at the back, thieves steal
    /// from the front.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Channel neighbors (upstream producers and downstream consumers) of
    /// each component — the only components a dispatch can unblock.
    neighbors: Vec<Vec<usize>>,
    /// Components not yet `DONE`.
    remaining: AtomicUsize,
    /// Component indices sitting in some deque.
    queued: AtomicUsize,
    /// Outstanding work: queued components plus dispatches in flight.  A
    /// dequeued component stays counted until its dispatch has published
    /// every wake, so observing `work == 0` with `remaining > 0` proves no
    /// future wake can originate — a communication deadlock.
    work: AtomicUsize,
    /// Workers parked on `idle`.
    sleepers: AtomicUsize,
    park_lock: Mutex<()>,
    idle: Condvar,
}

impl Shared {
    fn lock_park(&self) -> MutexGuard<'_, ()> {
        self.park_lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pushes a ready component onto a worker's deque and wakes a parked
    /// worker if any.  The counters are incremented *before* the push: a
    /// popped component can then never precede its own increments, so the
    /// `queued`/`work` decrements that follow a pop cannot transiently
    /// underflow the counters (which would let `park` misdiagnose a
    /// healthy deployment as deadlocked).  The `SeqCst` fence pairs with
    /// the re-check a parking worker performs under the lock: either this
    /// side sees `sleepers > 0` and notifies, or the parking side's
    /// re-check sees `queued > 0` and never sleeps.
    fn enqueue(&self, worker: usize, component: usize) {
        self.enqueue_at(worker, component, false);
    }

    /// Re-queues a component that yielded its quantum at the *front* of
    /// the owner's deque — the end the owner pops last — so the remaining
    /// ready components run before the yielder is dispatched again.
    /// Pushing it to the back would let the owner's back-pop re-dispatch
    /// the same component immediately, starving its deque siblings and
    /// defeating the fairness the quantum exists for.
    fn enqueue_yielded(&self, worker: usize, component: usize) {
        self.enqueue_at(worker, component, true);
    }

    fn enqueue_at(&self, worker: usize, component: usize, front: bool) {
        self.queued.fetch_add(1, SeqCst);
        self.work.fetch_add(1, SeqCst);
        {
            let mut queue = self.queues[worker]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if front {
                queue.push_front(component);
            } else {
                queue.push_back(component);
            }
        }
        fence(SeqCst);
        if self.sleepers.load(Relaxed) > 0 {
            let _guard = self.lock_park();
            self.idle.notify_all();
        }
    }

    /// Re-queues `component` if it is blocked; latches the wake if it is
    /// being dispatched right now.  Spurious wakes are harmless — a
    /// re-driven component that is still blocked simply re-blocks.
    fn wake(&self, worker: usize, component: usize) {
        let state = &self.states[component];
        loop {
            match state.load(SeqCst) {
                BLOCKED => {
                    if state
                        .compare_exchange(BLOCKED, QUEUED, SeqCst, SeqCst)
                        .is_ok()
                    {
                        self.enqueue(worker, component);
                        return;
                    }
                }
                RUNNING => {
                    if state
                        .compare_exchange(RUNNING, NOTIFIED, SeqCst, SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already latched, or finished: the wake is
                // subsumed.
                QUEUED | NOTIFIED | DONE => return,
                other => unreachable!("component state {other}"),
            }
        }
    }
}

/// Runs `drivers` to completion on a pool of `workers` OS threads and
/// returns the per-component reports (in component order), the per-worker
/// scheduling counters, and — when `trace` carries the deployment's trace
/// epoch and buffer limit — one scheduling-event buffer per worker (empty
/// `Vec` otherwise).
pub(crate) fn run_pool(
    drivers: Vec<Driver>,
    topology: &Topology,
    workers: usize,
    quantum: u64,
    trace: Option<(Instant, usize)>,
) -> (Vec<WorkerReport>, Vec<PoolWorkerStats>, Vec<TraceBuffer>) {
    let n = drivers.len();
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for spec in &topology.channels {
        if !neighbors[spec.producer].contains(&spec.consumer) {
            neighbors[spec.producer].push(spec.consumer);
        }
        if !neighbors[spec.consumer].contains(&spec.producer) {
            neighbors[spec.consumer].push(spec.producer);
        }
    }

    let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
    for component in 0..n {
        // Round-robin seeding spreads the initial ready set evenly.
        queues[component % workers].push_back(component);
    }
    let shared = Shared {
        slots: drivers.into_iter().map(|d| Mutex::new(Some(d))).collect(),
        states: (0..n).map(|_| AtomicU8::new(QUEUED)).collect(),
        reports: (0..n).map(|_| Mutex::new(None)).collect(),
        queues: queues.into_iter().map(Mutex::new).collect(),
        neighbors,
        remaining: AtomicUsize::new(n),
        queued: AtomicUsize::new(n),
        work: AtomicUsize::new(n),
        sleepers: AtomicUsize::new(0),
        park_lock: Mutex::new(()),
        idle: Condvar::new(),
    };

    let outcomes: Vec<(PoolWorkerStats, Option<TraceBuffer>)> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || worker_loop(shared, w, quantum, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });

    let reports = shared
        .reports
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every component finished")
        })
        .collect();
    let mut worker_stats = Vec::with_capacity(outcomes.len());
    let mut worker_traces = Vec::new();
    for (stats, buffer) in outcomes {
        worker_stats.push(stats);
        if let Some(buffer) = buffer {
            worker_traces.push(buffer);
        }
    }
    (reports, worker_stats, worker_traces)
}

fn worker_loop(
    shared: &Shared,
    me: usize,
    quantum: u64,
    trace: Option<(Instant, usize)>,
) -> (PoolWorkerStats, Option<TraceBuffer>) {
    let mut stats = PoolWorkerStats::new(me);
    // The worker's private scheduling-event recorder: dispatches, steals
    // and parks land here (component events ride in the drivers' own
    // buffers), so the hot path never shares a buffer between threads.
    let mut recorder = trace.map(|(epoch, limit)| TraceBuffer::new(epoch, limit));
    while shared.remaining.load(SeqCst) > 0 {
        match pop_task(shared, me) {
            Some((component, stolen)) => {
                stats.dispatches += 1;
                if stolen {
                    stats.steals += 1;
                }
                if let Some(recorder) = recorder.as_mut() {
                    recorder.dispatch(component, stolen);
                }
                dispatch(shared, me, component, quantum);
            }
            None => {
                stats.parks += 1;
                if let Some(recorder) = recorder.as_mut() {
                    recorder.park();
                }
                park(shared);
            }
        }
    }
    // Someone must still be parked: make sure every sibling re-checks the
    // exit condition.
    let _guard = shared.lock_park();
    shared.idle.notify_all();
    drop(_guard);
    (stats, recorder)
}

/// Pops the next ready component: own deque from the back first, then each
/// sibling's front (steal-on-empty).
fn pop_task(shared: &Shared, me: usize) -> Option<(usize, bool)> {
    let workers = shared.queues.len();
    if let Some(component) = {
        let mut own = shared.queues[me].lock().unwrap_or_else(|e| e.into_inner());
        own.pop_back()
    } {
        shared.queued.fetch_sub(1, SeqCst);
        return Some((component, false));
    }
    for offset in 1..workers {
        let victim = (me + offset) % workers;
        if let Some(component) = {
            let mut queue = shared.queues[victim]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            queue.pop_front()
        } {
            shared.queued.fetch_sub(1, SeqCst);
            return Some((component, true));
        }
    }
    None
}

/// Runs one quantum of one component and performs the resulting state
/// transition, waking the channel neighbors its progress may have
/// unblocked.
fn dispatch(shared: &Shared, me: usize, component: usize, quantum: u64) {
    let state = &shared.states[component];
    let previous = state.swap(RUNNING, SeqCst);
    debug_assert_eq!(previous, QUEUED, "a dequeued component is queued");

    let mut driver = shared.slots[component]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .expect("a queued component's driver is parked in its slot");
    let before = driver.tokens_moved();
    let outcome = driver.drive(quantum);
    let moved = driver.tokens_moved() != before;

    let mut finished = false;
    match outcome {
        DriveOutcome::Yielded => {
            *shared.slots[component]
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(driver);
            // The wake latch is subsumed: the component goes straight back
            // to the ready set either way.
            state.store(QUEUED, SeqCst);
            shared.enqueue_yielded(me, component);
        }
        DriveOutcome::Pending(_edge) => {
            // Park the driver *before* publishing the blocked state: a
            // concurrent wake that sees BLOCKED may immediately re-queue
            // the component for another worker, which will look for the
            // driver in the slot.
            *shared.slots[component]
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(driver);
            if state
                .compare_exchange(RUNNING, BLOCKED, SeqCst, SeqCst)
                .is_err()
            {
                // A wake raced the dispatch (NOTIFIED): the edge may have
                // moved since the driver observed it, so re-queue instead
                // of blocking.
                state.store(QUEUED, SeqCst);
                shared.enqueue(me, component);
            }
        }
        DriveOutcome::Done(stop) => {
            // Finalizing drops the endpoints, closing every adjacent
            // channel *before* the neighbors are woken to observe it.
            let report = driver.finish(stop);
            *shared.reports[component]
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(report);
            state.store(DONE, SeqCst);
            finished = true;
        }
    }

    if moved || finished {
        // Every token this dispatch moved (and every channel it closed)
        // can only unblock the component's channel neighbors.
        for &neighbor in &shared.neighbors[component] {
            shared.wake(me, neighbor);
        }
    }
    if finished && shared.remaining.fetch_sub(1, SeqCst) == 1 {
        let _guard = shared.lock_park();
        shared.idle.notify_all();
    }
    // The decrement is ordered after every wake/re-queue above: a worker
    // that observes `work == 0` knows no wake is still in flight.
    shared.work.fetch_sub(1, SeqCst);
}

/// Parks an idle worker until work may exist again, detecting the terminal
/// all-blocked state (a communication deadlock on a cyclic topology the
/// static analysis let through) instead of sleeping forever on it.
fn park(shared: &Shared) {
    let guard = shared.lock_park();
    // Register as a sleeper *before* re-checking for work: the enqueue
    // side increments `queued` before loading `sleepers`, and this side
    // increments `sleepers` before loading `queued` — two store→load
    // pairs under `SeqCst`, so at least one side observes the other
    // (either the enqueuer notifies, or this re-check sees the queued
    // component and skips the wait).  The notify itself is taken under
    // `park_lock`, which this thread holds until `wait_timeout` releases
    // it, so it cannot fire between the re-check and the wait.
    shared.sleepers.fetch_add(1, SeqCst);
    if shared.queued.load(SeqCst) == 0 && shared.remaining.load(SeqCst) > 0 {
        if shared.work.load(SeqCst) == 0 {
            // Nothing queued, nothing running, components remaining:
            // every survivor is BLOCKED and no future wake can originate.
            // Finalize them as deadlocked (the park lock serializes this
            // recovery).
            for component in 0..shared.states.len() {
                let state = &shared.states[component];
                if state
                    .compare_exchange(BLOCKED, DONE, SeqCst, SeqCst)
                    .is_ok()
                {
                    let driver = shared.slots[component]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("a blocked component's driver is parked in its slot");
                    *shared.reports[component]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner()) =
                        Some(driver.finish(StopReason::Deadlocked));
                    shared.remaining.fetch_sub(1, SeqCst);
                }
            }
            shared.idle.notify_all();
        } else {
            let _guard = shared
                .idle
                .wait_timeout(guard, PARK_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
    shared.sleepers.fetch_sub(1, SeqCst);
}

// ---------------------------------------------------------------------------
// The shared pool (serving flavor): many deployments, one set of workers.
// ---------------------------------------------------------------------------

/// Bound on one idle park of a shared-pool worker.  Longer than the batch
/// pool's [`PARK_TIMEOUT`]: an idle *serving* pool is a normal steady
/// state (every tenant waiting on its next feed), so the insurance wakeup
/// can afford to be lazier.
const SERVE_PARK_TIMEOUT: Duration = Duration::from_millis(5);

/// How long one `drain` waiting slice lasts between egress polls.
const DRAIN_POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Configuration of a [`SharedPool`].
#[derive(Clone)]
pub struct PoolOptions {
    /// Pool size in OS threads (must be nonzero).
    pub workers: usize,
    /// Reactions one dispatch may run before the component is re-queued
    /// behind its equal-priority peers (must be nonzero).
    pub quantum: u64,
    /// Start the pool paused: workers park without dispatching until
    /// [`SharedPool::resume`].  Useful to stage a reproducible backlog.
    pub paused: bool,
    /// Per-worker startup hook, called once on each worker thread with the
    /// worker index before it dispatches anything.  Its return value is
    /// reported as the `pinned` flag of that worker's
    /// [`PoolWorkerStats`] — the seam where a serving layer pins workers
    /// to cores without the scheduler knowing how.
    pub worker_setup: Option<Arc<dyn Fn(usize) -> bool + Send + Sync>>,
}

impl PoolOptions {
    /// Options for a pool of `workers` threads at `quantum` reactions per
    /// dispatch, not paused, with no worker setup hook.
    pub fn new(workers: usize, quantum: u64) -> Self {
        PoolOptions {
            workers,
            quantum,
            paused: false,
            worker_setup: None,
        }
    }

    /// One worker per available core, with the same moderate quantum as
    /// [`ExecutionMode::pool_per_core`].
    pub fn per_core() -> Self {
        match ExecutionMode::pool_per_core() {
            ExecutionMode::Pool { workers, quantum } => PoolOptions::new(workers, quantum),
            ExecutionMode::ThreadPerComponent => unreachable!("pool_per_core returns a pool"),
        }
    }
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions::per_core()
    }
}

impl fmt::Debug for PoolOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolOptions")
            .field("workers", &self.workers)
            .field("quantum", &self.quantum)
            .field("paused", &self.paused)
            .field("worker_setup", &self.worker_setup.as_ref().map(|_| "hook"))
            .finish()
    }
}

/// Scheduling options of one [`SharedPool::submit`].
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Scheduling priority of every component of the deployment: a ready
    /// component always dispatches before any lower-priority ready
    /// component, on every pop and steal.
    pub base_priority: u32,
    /// Per-component boosts keyed by component (machine) name, added on
    /// top of the base — the hook the serving layer uses to push a
    /// deployment's predicted bottleneck components ahead of their peers.
    /// Names that match no component are ignored.
    pub boosts: BTreeMap<String, u32>,
}

/// One entry of a worker's priority heap.  Higher priority wins; among
/// equals, the *smaller* submission sequence wins — FIFO, so a yielded
/// component (re-enqueued with a fresh, larger sequence) goes behind its
/// equal-priority peers exactly like the batch pool's front-push.
struct ReadyEntry {
    priority: u32,
    seq: u64,
    cell: Arc<Cell>,
}

impl PartialEq for ReadyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl Eq for ReadyEntry {}

impl PartialOrd for ReadyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReadyEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One component living on a shared pool.  Identity is the `Arc` itself:
/// cells of different deployments can never collide, and a drained
/// deployment's cells are freed by reference counting (neighbor links are
/// weak, so a deployment's cells do not keep each other alive).
struct Cell {
    state: AtomicU8,
    priority: u32,
    /// The worker whose heap this component is enqueued on by default —
    /// external wakes (feed/poll) land here; internal wakes land on the
    /// waking worker for locality.
    home: usize,
    /// The component's index inside its own deployment.
    local: usize,
    group: Arc<Group>,
    /// Driver storage while the component is not being dispatched.
    slot: Mutex<Option<Driver>>,
    /// Channel neighbors inside the same deployment, set once right after
    /// every cell of the deployment is created.
    neighbors: OnceLock<Vec<Weak<Cell>>>,
}

/// Completion tracking of one submitted deployment.
struct Group {
    started: Instant,
    /// Components not yet `DONE`.
    remaining: AtomicUsize,
    /// Per-component reports, filled as components finish.
    reports: Mutex<Vec<Option<WorkerReport>>>,
    /// Wall-clock from submission to the last component's finish.
    elapsed: Mutex<Option<Duration>>,
    /// This deployment's rank in the pool-wide completion order.
    completion: Mutex<Option<u64>>,
    done_lock: Mutex<bool>,
    done_cv: Condvar,
}

impl Group {
    fn lock_reports(&self) -> MutexGuard<'_, Vec<Option<WorkerReport>>> {
        self.reports.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Per-worker scheduling counters of a shared pool, updated lock-free by
/// the worker itself and snapshot by [`SharedPool::worker_stats`].
struct WorkerCounters {
    dispatches: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    pinned: AtomicBool,
}

struct ServeShared {
    /// The per-worker ready heaps (priority-ordered, FIFO among equals).
    queues: Vec<Mutex<BinaryHeap<ReadyEntry>>>,
    counters: Vec<WorkerCounters>,
    quantum: u64,
    /// Monotonic ready-entry sequence: the FIFO age among equal priorities.
    seq: AtomicU64,
    /// Ready entries sitting in some heap.
    queued: AtomicUsize,
    /// Workers parked on `idle`.
    sleepers: AtomicUsize,
    park_lock: Mutex<()>,
    idle: Condvar,
    paused: AtomicBool,
    shutdown: AtomicBool,
    /// Pool-wide deployment completion counter (the source of
    /// [`SubmittedDeployment::completion_index`]).
    completions: AtomicU64,
    /// Round-robin cursor assigning home workers to submitted components.
    next_home: AtomicUsize,
}

impl ServeShared {
    fn lock_park(&self) -> MutexGuard<'_, ()> {
        self.park_lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pushes a ready cell onto a worker's heap and wakes a parked worker
    /// if any.  Same `SeqCst` enqueue/park handshake as the batch pool's
    /// [`Shared::enqueue`]; the fresh sequence number is what keeps equal
    /// priorities FIFO.
    fn enqueue(&self, worker: usize, cell: Arc<Cell>) {
        let seq = self.seq.fetch_add(1, SeqCst);
        let entry = ReadyEntry {
            priority: cell.priority,
            seq,
            cell,
        };
        self.queued.fetch_add(1, SeqCst);
        {
            let mut queue = self.queues[worker]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            queue.push(entry);
        }
        fence(SeqCst);
        if self.sleepers.load(Relaxed) > 0 {
            let _guard = self.lock_park();
            self.idle.notify_all();
        }
    }

    /// Re-queues `cell` if it is blocked; latches the wake if it is being
    /// dispatched right now.  The same latched CAS loop as the batch
    /// pool's [`Shared::wake`] — and additionally the entry point of
    /// *external* wakes: a client's `feed` or `poll_outputs` calls this
    /// from outside any worker thread.
    fn wake(&self, worker: usize, cell: &Arc<Cell>) {
        let state = &cell.state;
        loop {
            match state.load(SeqCst) {
                BLOCKED => {
                    if state
                        .compare_exchange(BLOCKED, QUEUED, SeqCst, SeqCst)
                        .is_ok()
                    {
                        self.enqueue(worker, Arc::clone(cell));
                        return;
                    }
                }
                RUNNING => {
                    if state
                        .compare_exchange(RUNNING, NOTIFIED, SeqCst, SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                QUEUED | NOTIFIED | DONE => return,
                other => unreachable!("component state {other}"),
            }
        }
    }
}

/// Pops the next ready cell: the own heap's best entry first, then each
/// sibling's best (steal-on-empty).  Priority-aware on every pop,
/// including steals — a heap has no FIFO front to protect, so a thief
/// takes the victim's best entry too.
fn serve_pop(shared: &ServeShared, me: usize) -> Option<(Arc<Cell>, bool)> {
    if shared.paused.load(SeqCst) {
        return None;
    }
    let workers = shared.queues.len();
    if let Some(entry) = {
        let mut own = shared.queues[me].lock().unwrap_or_else(|e| e.into_inner());
        own.pop()
    } {
        shared.queued.fetch_sub(1, SeqCst);
        return Some((entry.cell, false));
    }
    for offset in 1..workers {
        let victim = (me + offset) % workers;
        if let Some(entry) = {
            let mut queue = shared.queues[victim]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            queue.pop()
        } {
            shared.queued.fetch_sub(1, SeqCst);
            return Some((entry.cell, true));
        }
    }
    None
}

/// Runs one quantum of one cell and performs the resulting state
/// transition — the shared-pool analog of the batch [`dispatch`], minus
/// the deadlock accounting (idle is normal here) and plus the group
/// completion bookkeeping.
fn serve_dispatch(shared: &ServeShared, me: usize, cell: &Arc<Cell>) {
    let state = &cell.state;
    let previous = state.swap(RUNNING, SeqCst);
    debug_assert_eq!(previous, QUEUED, "a dequeued component is queued");

    let mut driver = cell
        .slot
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .expect("a queued component's driver is parked in its slot");
    let before = driver.tokens_moved();
    let outcome = driver.drive(shared.quantum);
    let moved = driver.tokens_moved() != before;

    let mut finished = false;
    match outcome {
        DriveOutcome::Yielded => {
            *cell.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(driver);
            state.store(QUEUED, SeqCst);
            // The fresh sequence number puts the yielder behind its
            // equal-priority peers — the heap analog of the batch pool's
            // front-push.
            shared.enqueue(me, Arc::clone(cell));
        }
        DriveOutcome::Pending(_edge) => {
            *cell.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(driver);
            if state
                .compare_exchange(RUNNING, BLOCKED, SeqCst, SeqCst)
                .is_err()
            {
                // A wake (internal or a client's feed/poll) raced the
                // dispatch: re-queue instead of blocking.
                state.store(QUEUED, SeqCst);
                shared.enqueue(me, Arc::clone(cell));
            }
        }
        DriveOutcome::Done(stop) => {
            let report = driver.finish(stop);
            cell.group.lock_reports()[cell.local] = Some(report);
            state.store(DONE, SeqCst);
            finished = true;
        }
    }

    if moved || finished {
        if let Some(neighbors) = cell.neighbors.get() {
            for weak in neighbors {
                if let Some(neighbor) = weak.upgrade() {
                    shared.wake(me, &neighbor);
                }
            }
        }
    }
    if finished && cell.group.remaining.fetch_sub(1, SeqCst) == 1 {
        // Last component of its deployment: stamp the group and publish
        // the pool-wide completion rank.
        let group = &cell.group;
        *group.elapsed.lock().unwrap_or_else(|e| e.into_inner()) = Some(group.started.elapsed());
        *group.completion.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(shared.completions.fetch_add(1, SeqCst));
        let mut done = group.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        group.done_cv.notify_all();
    }
}

/// Parks an idle (or paused) shared-pool worker.  No deadlock detection:
/// a fully blocked tenant set is the pool's normal idle state — every
/// tenant may be waiting on its next external feed.
fn serve_park(shared: &ServeShared) {
    let guard = shared.lock_park();
    shared.sleepers.fetch_add(1, SeqCst);
    if !shared.shutdown.load(SeqCst)
        && (shared.paused.load(SeqCst) || shared.queued.load(SeqCst) == 0)
    {
        let _guard = shared
            .idle
            .wait_timeout(guard, SERVE_PARK_TIMEOUT)
            .unwrap_or_else(|e| e.into_inner());
    }
    shared.sleepers.fetch_sub(1, SeqCst);
}

fn serve_worker_loop(shared: &ServeShared, me: usize) {
    while !shared.shutdown.load(SeqCst) {
        match serve_pop(shared, me) {
            Some((cell, stolen)) => {
                let counters = &shared.counters[me];
                counters.dispatches.fetch_add(1, Relaxed);
                if stolen {
                    counters.steals.fetch_add(1, Relaxed);
                }
                serve_dispatch(shared, me, &cell);
            }
            None => {
                shared.counters[me].parks.fetch_add(1, Relaxed);
                serve_park(shared);
            }
        }
    }
}

/// A long-lived work-stealing pool hosting **many** concurrent
/// deployments — the execution substrate of the `gals-serve` crate.
///
/// Unlike the batch pool a [`Deployment::run`](crate::Deployment::run)
/// spins up and tears down per run, a `SharedPool` starts its workers
/// once ([`SharedPool::start`]) and accepts staged deployments at any
/// time ([`SharedPool::submit`]); tenants stream their inputs and
/// outputs through their [`SubmittedDeployment`] handle while the pool
/// runs.  See the module docs for the invariants (priority heaps,
/// external wakes, no deadlock finalization, affinity hooks).
pub struct SharedPool {
    shared: Arc<ServeShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
    quantum: u64,
}

impl SharedPool {
    /// Starts the worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::ZeroPoolWorkers`] or
    /// [`DeployError::ZeroQuantum`] for an empty pool or a 0-reaction
    /// quantum.
    pub fn start(options: PoolOptions) -> Result<SharedPool, DeployError> {
        if options.workers == 0 {
            return Err(DeployError::ZeroPoolWorkers);
        }
        if options.quantum == 0 {
            return Err(DeployError::ZeroQuantum);
        }
        let shared = Arc::new(ServeShared {
            queues: (0..options.workers)
                .map(|_| Mutex::new(BinaryHeap::new()))
                .collect(),
            counters: (0..options.workers)
                .map(|_| WorkerCounters {
                    dispatches: AtomicU64::new(0),
                    steals: AtomicU64::new(0),
                    parks: AtomicU64::new(0),
                    pinned: AtomicBool::new(false),
                })
                .collect(),
            quantum: options.quantum,
            seq: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            park_lock: Mutex::new(()),
            idle: Condvar::new(),
            paused: AtomicBool::new(options.paused),
            shutdown: AtomicBool::new(false),
            completions: AtomicU64::new(0),
            next_home: AtomicUsize::new(0),
        });
        let handles = (0..options.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let setup = options.worker_setup.clone();
                std::thread::Builder::new()
                    .name(format!("gals-serve-{w}"))
                    .spawn(move || {
                        if let Some(setup) = setup {
                            if setup(w) {
                                shared.counters[w].pinned.store(true, Relaxed);
                            }
                        }
                        serve_worker_loop(&shared, w);
                    })
                    .expect("spawn shared-pool worker")
            })
            .collect();
        Ok(SharedPool {
            shared,
            handles,
            workers: options.workers,
            quantum: options.quantum,
        })
    }

    /// Pool size in OS threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Reactions per dispatch.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Stops dispatching: workers park after their in-flight dispatch.
    /// Ready components stay queued; [`resume`](Self::resume) picks them
    /// back up.
    pub fn pause(&self) {
        self.shared.paused.store(true, SeqCst);
    }

    /// Resumes a paused pool.
    pub fn resume(&self) {
        self.shared.paused.store(false, SeqCst);
        let _guard = self.shared.lock_park();
        self.shared.idle.notify_all();
    }

    /// A snapshot of the per-worker scheduling counters, including the
    /// `pinned` flag the startup hook reported.
    pub fn worker_stats(&self) -> Vec<PoolWorkerStats> {
        self.shared
            .counters
            .iter()
            .enumerate()
            .map(|(worker, counters)| PoolWorkerStats {
                worker,
                dispatches: counters.dispatches.load(Relaxed),
                steals: counters.steals.load(Relaxed),
                parks: counters.parks.load(Relaxed),
                pinned: counters.pinned.load(Relaxed),
            })
            .collect()
    }

    /// Places a staged deployment on the pool and returns its streaming
    /// handle.  Components are enqueued immediately (on a paused pool
    /// they sit ready until [`resume`](Self::resume)); their home workers
    /// are assigned round-robin so tenants spread evenly.
    pub fn submit(&self, staged: StagedDeployment, options: &SubmitOptions) -> SubmittedDeployment {
        let StagedDeployment {
            mut drivers,
            topology,
            ingress,
            egress,
            names,
            feeds,
            reference,
            paced,
            backend,
            sizing,
            prediction,
            trace,
        } = staged;
        let n = drivers.len();
        let started = Instant::now();
        if let Some(config) = &trace {
            for driver in &mut drivers {
                driver.set_trace(TraceBuffer::new(started, config.buffer_capacity));
            }
        }
        let group = Arc::new(Group {
            started,
            remaining: AtomicUsize::new(n),
            reports: Mutex::new((0..n).map(|_| None).collect()),
            elapsed: Mutex::new(None),
            completion: Mutex::new(None),
            done_lock: Mutex::new(n == 0),
            done_cv: Condvar::new(),
        });
        let base = self.shared.next_home.fetch_add(n.max(1), SeqCst);
        let cells: Vec<Arc<Cell>> = drivers
            .into_iter()
            .enumerate()
            .map(|(i, driver)| {
                let boost = options.boosts.get(&names[i]).copied().unwrap_or(0);
                Arc::new(Cell {
                    state: AtomicU8::new(QUEUED),
                    priority: options.base_priority.saturating_add(boost),
                    home: (base + i) % self.workers,
                    local: i,
                    group: Arc::clone(&group),
                    slot: Mutex::new(Some(driver)),
                    neighbors: OnceLock::new(),
                })
            })
            .collect();
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        for spec in &topology.channels {
            if !adjacency[spec.producer].contains(&spec.consumer) {
                adjacency[spec.producer].push(spec.consumer);
            }
            if !adjacency[spec.consumer].contains(&spec.producer) {
                adjacency[spec.consumer].push(spec.producer);
            }
        }
        for (i, cell) in cells.iter().enumerate() {
            let links: Vec<Weak<Cell>> = adjacency[i]
                .iter()
                .map(|&j| Arc::downgrade(&cells[j]))
                .collect();
            assert!(cell.neighbors.set(links).is_ok(), "neighbors set once");
        }
        for cell in &cells {
            self.shared.enqueue(cell.home, Arc::clone(cell));
        }
        SubmittedDeployment {
            shared: Arc::clone(&self.shared),
            cells,
            group,
            topology,
            ingress,
            egress,
            names,
            feeds,
            reference,
            paced,
            backend,
            sizing,
            prediction,
            traced: trace.is_some(),
            workers: self.workers,
            quantum: self.quantum,
        }
    }

    fn stop_workers(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        {
            let _guard = self.shared.lock_park();
            self.shared.idle.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    /// Stops and joins the worker threads.  Drain the tenants first: a
    /// component still live when the pool shuts down is simply never
    /// dispatched again.  Dropping the pool shuts it down the same way.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

impl fmt::Debug for SharedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedPool")
            .field("workers", &self.workers)
            .field("quantum", &self.quantum)
            .finish()
    }
}

/// A draining [`SubmittedDeployment::drain`] that gave up.
pub enum DrainError {
    /// The deployment did not finish within the timeout.  The handle
    /// rides back inside the error, so nothing is lost: keep polling, or
    /// drain again with a longer budget.  Its inputs are already closed
    /// (draining closes them first), so it cannot be fed any more.
    Timeout {
        /// Names of the components still live.
        pending: Vec<String>,
        /// The streaming handle, returned intact.
        handle: Box<SubmittedDeployment>,
    },
}

impl fmt::Debug for DrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainError::Timeout { pending, .. } => f
                .debug_struct("Timeout")
                .field("pending", pending)
                .finish_non_exhaustive(),
        }
    }
}

impl fmt::Display for DrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainError::Timeout { pending, .. } => write!(
                f,
                "drain timed out with {} component(s) still live: {}",
                pending.len(),
                pending.join(", ")
            ),
        }
    }
}

impl std::error::Error for DrainError {}

/// The streaming handle of one deployment living on a [`SharedPool`]:
/// feed inputs ([`feed`](Self::feed)), drain outputs
/// ([`poll_outputs`](Self::poll_outputs)), and finally close the ingress
/// and collect the isolated per-deployment outcome
/// ([`drain`](Self::drain)) — the same [`DeploymentOutcome`] (stats,
/// flows, trace, conformance replay) a batch run produces.
pub struct SubmittedDeployment {
    shared: Arc<ServeShared>,
    cells: Vec<Arc<Cell>>,
    group: Arc<Group>,
    topology: Topology,
    ingress: BTreeMap<Name, IngressPort>,
    egress: BTreeMap<Name, EgressPort>,
    names: Vec<String>,
    feeds: BTreeMap<Name, Vec<Value>>,
    reference: Vec<crate::conformance::ReferenceComponent>,
    paced: std::collections::BTreeSet<Name>,
    backend: &'static str,
    sizing: crate::transport::ChannelSizing,
    prediction: Option<crate::predict::PerformancePrediction>,
    traced: bool,
    workers: usize,
    quantum: u64,
}

impl SubmittedDeployment {
    /// The component names, in deployment order.
    pub fn component_names(&self) -> &[String] {
        &self.names
    }

    /// The number of components the deployment occupies on the pool.
    pub fn component_count(&self) -> usize {
        self.cells.len()
    }

    /// Streams values into an environment input *while the deployment
    /// runs*: the tokens land in the bounded ingress channel and the
    /// consumer is woken exactly like an internal channel neighbor.  When
    /// the channel is full the call wakes the consumer and blocks until
    /// room frees up — client-side backpressure (note that feeding a
    /// *paused* pool past the stream capacity therefore blocks until
    /// [`SharedPool::resume`]).  Values fed after the consumer finished
    /// are dropped, but still recorded for the conformance replay, like a
    /// batch run's unconsumed tail.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::UnknownFeed`] when `signal` is not an
    /// environment input of this deployment, and
    /// [`DeployError::InputsClosed`] when it is one but the inputs were
    /// already closed ([`close_inputs`](Self::close_inputs), or the close
    /// [`drain`](Self::drain) starts with).
    pub fn feed<I, V>(&mut self, signal: impl Into<Name>, values: I) -> Result<(), DeployError>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let signal = signal.into();
        let Some(port) = self.ingress.get(&signal) else {
            return Err(DeployError::UnknownFeed(signal));
        };
        if port.consumers.is_empty() {
            return Err(DeployError::InputsClosed(signal));
        }
        let log = self.feeds.entry(signal).or_default();
        for value in values {
            let value = value.into();
            log.push(value);
            for (consumer, tx) in &port.consumers {
                match tx.try_send(value) {
                    Ok(()) => {}
                    Err(TrySendError::Full) => {
                        // Wake the consumer so a worker drains the
                        // ingress, then wait the room out.
                        let cell = &self.cells[*consumer];
                        self.shared.wake(cell.home, cell);
                        let _ = tx.send(value);
                    }
                    Err(TrySendError::Closed) => {}
                }
            }
        }
        for (consumer, _) in &port.consumers {
            let cell = &self.cells[*consumer];
            self.shared.wake(cell.home, cell);
        }
        Ok(())
    }

    /// Drains every egress channel without blocking and returns the newly
    /// arrived tokens per external output (empty map when nothing
    /// arrived).  Draining wakes producers a full egress buffer had
    /// blocked.  The final [`drain`](Self::drain) outcome carries every
    /// produced flow regardless of what was polled, so polling is pure
    /// consumption, never loss.
    pub fn poll_outputs(&mut self) -> Flows {
        let mut drained = Flows::new();
        for (signal, port) in &self.egress {
            let mut values = Vec::new();
            while let Ok(value) = port.rx.try_recv() {
                values.push(value);
            }
            if !values.is_empty() {
                let cell = &self.cells[port.producer];
                self.shared.wake(cell.home, cell);
                drained.insert(signal.clone(), values);
            }
        }
        drained
    }

    /// Closes every ingress channel: the consumers observe the close as
    /// the normal end of their environment streams
    /// ([`StopReason::EnvironmentExhausted`]) once the buffered tokens
    /// are consumed, and the end cascades downstream exactly like a batch
    /// run's streams running dry.  Idempotent; a later
    /// [`feed`](Self::feed) is refused with [`DeployError::InputsClosed`].
    pub fn close_inputs(&mut self) {
        // Dropping the sending endpoints is what closes the channels.  The
        // emptied ports stay, so a closed input is still told apart from a
        // name that never was one.
        let consumers: Vec<usize> = self
            .ingress
            .values_mut()
            .flat_map(|port| port.consumers.drain(..).map(|(consumer, _)| consumer))
            .collect();
        for consumer in consumers {
            let cell = &self.cells[consumer];
            self.shared.wake(cell.home, cell);
        }
    }

    /// Whether every component of this deployment has finished.
    pub fn is_finished(&self) -> bool {
        self.group.remaining.load(SeqCst) == 0
    }

    /// Blocks until the deployment finishes or the timeout elapses;
    /// returns whether it finished.
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut done = self
            .group
            .done_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while !*done {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            done = self
                .group
                .done_cv
                .wait_timeout(done, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// This deployment's rank in the pool-wide completion order (0 for
    /// the first deployment the pool completed), once finished.  The
    /// observable of priority tests: under load, a higher-priority tenant
    /// completes with a smaller index than the batch tenants submitted
    /// before it.
    pub fn completion_index(&self) -> Option<u64> {
        *self
            .group
            .completion
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Names of the components still live.
    pub fn pending(&self) -> Vec<String> {
        self.cells
            .iter()
            .filter(|cell| cell.state.load(SeqCst) != DONE)
            .map(|cell| self.names[cell.local].clone())
            .collect()
    }

    /// Ends the tenancy: closes the ingress channels, keeps the egress
    /// drained while the components run out their streams, and assembles
    /// the per-deployment [`DeploymentOutcome`] — flows, isolated
    /// [`DeploymentStats`](crate::DeploymentStats), trace, and the
    /// conformance replay seeded with everything this handle ever fed.
    ///
    /// # Errors
    ///
    /// [`DrainError::Timeout`] when the deployment does not finish within
    /// `timeout`; the handle rides back inside the error.
    pub fn drain(mut self, timeout: Duration) -> Result<DeploymentOutcome, DrainError> {
        self.close_inputs();
        let deadline = Instant::now() + timeout;
        loop {
            let _ = self.poll_outputs();
            if self.is_finished() {
                break;
            }
            if Instant::now() >= deadline {
                let pending = self.pending();
                return Err(DrainError::Timeout {
                    pending,
                    handle: Box::new(self),
                });
            }
            // Short slices keep the egress draining while we wait, so a
            // producer blocked on a full egress buffer can finish.
            let _ = self.wait(DRAIN_POLL_INTERVAL);
        }
        let _ = self.poll_outputs();
        let reports: Vec<WorkerReport> = self
            .group
            .lock_reports()
            .iter_mut()
            .map(|slot| slot.take().expect("every finished component reported"))
            .collect();
        let elapsed = self
            .group
            .elapsed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .unwrap_or_else(|| self.group.started.elapsed());
        let parts = OutcomeParts {
            reports,
            channels: self.topology.channels,
            sizing: self.sizing,
            backend: self.backend,
            mode: ExecutionMode::Pool {
                workers: self.workers,
                quantum: self.quantum,
            },
            // The pool's workers outlive any one tenant and their
            // counters aggregate every tenant's scheduling: per-worker
            // numbers belong to [`SharedPool::worker_stats`], not to one
            // deployment's isolated report.
            pool_workers: Vec::new(),
            worker_traces: Vec::new(),
            elapsed,
            traced: self.traced,
            prediction: self.prediction,
            feeds: self.feeds,
            reference: self.reference,
            paced: self.paced,
        };
        Ok(parts.build())
    }
}

impl fmt::Debug for SubmittedDeployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubmittedDeployment")
            .field("components", &self.names)
            .field("finished", &self.is_finished())
            .finish()
    }
}
