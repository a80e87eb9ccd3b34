//! The pool scheduler: a fixed set of worker threads cooperatively runs
//! the components of any number of deployments.
//!
//! It is the runtime's only executor.  The paper's claim is about
//! *arbitrary* component counts, so the OS-thread footprint is fixed
//! whatever the count, and a verified design's flows do not depend on
//! the schedule (Theorem 1; every deployment is a Kahn network), so a
//! second executor would add code but no semantics.  A
//! [`Deployment::run`](crate::Deployment::run) starts a pool of the
//! configured [`ExecutionMode`] for the run and places its components as
//! one **group**, while a long-lived [`SharedPool`] hosts one group per
//! submitted deployment (the substrate of `gals-serve`).
//!
//! * **Islands.**  The unit of scheduling is an *island*: one weakly
//!   connected component of the deployment's channel graph (a whole
//!   pipeline, a whole served tenant), run as one *cell* — its members'
//!   `crate::worker::Driver`s plus scheduling state.  Theorem 1 is the
//!   license: a verified design's flows do not depend on how its
//!   components are scheduled over FIFOs at least as large as the derived
//!   bounds (Kahn, 1974), so fusing them changes no flow.  Disconnected
//!   parts of one deployment, and separate tenants, are separate islands:
//!   that is where the pool's parallelism comes from.
//! * **An island owns its channels.**  Every channel of a group lies
//!   inside one island.  One on no medium the deployment named is a
//!   *slot* (`crate::worker::Slot`): a plain bounded FIFO at its resolved
//!   capacity, kept in the cell beside the members and numbered per
//!   island when the group is placed, so each island indexes only its own
//!   slots.  The island runs on one worker at a time and moves between
//!   workers under its cell's slot mutex — the only synchronization its
//!   slots need.  A slot refuses a token at capacity like any channel, so
//!   occupancy never exceeds capacity.  Channels on a named medium keep
//!   their endpoints, as do a tenant's ingress and egress and a
//!   partition's links.  This is the paper's §5.2 controller, which
//!   schedules separately compiled step functions and carries their
//!   rendez-vous itself, done at run time for n members.
//! * **Dispatch.**  Each of the `workers` threads pops a ready island and
//!   sweeps its live members in topological order of its edges (cycles in
//!   a fixed order), stepping each until it blocks.  Sweeps repeat until
//!   one makes no progress (no reaction ran and no token moved: the
//!   island is *stuck* and becomes *blocked*), every member is done, or
//!   the island ran `quantum` reactions per live member — the batching
//!   that amortizes queue traffic.  A dispatch never blocks its thread:
//!   a member that runs into an empty upstream or a full downstream edge
//!   returns `Pending`, and the sweep moves on to its island-mates.  A
//!   member that stops closes its channels, which its island-mates observe
//!   on the next sweep; a panicking member faults alone.
//! * **Ready order.**  Each worker owns a max-heap keyed by
//!   `(priority, age)`; an island's priority is the maximum of its
//!   members'.  A worker pops its own heap's best entry and, when that is
//!   empty, steals a sibling's best, so a higher-priority ready island
//!   runs before any lower-priority one on every pop.  Among equal
//!   priorities the oldest entry wins: an island that used its quantum
//!   re-enters with a fresh age behind its peers, so the quantum
//!   round-robins the ready set (tenants stay fair) instead of
//!   re-dispatching the yielder.
//! * **Wakes.**  A dispatch never wakes another cell: no channel leaves
//!   its island.  Wakes come from outside the pool, on the island's home
//!   worker.  Clients wake: feeding an ingress edge wakes its consumer's
//!   island ([`SubmittedDeployment::feed`]), draining an egress edge
//!   wakes its producer's ([`SubmittedDeployment::poll_outputs`]), and
//!   closing the inputs wakes the consumers'.  Media wake too: before an
//!   island is first queued, every endpoint of its members is handed the
//!   island's [`Waker`], and a medium that moves tokens from its own
//!   thread (a partition's socket link: a token, a close or credit
//!   arrived) calls it.  The waker holds the pool and the group weakly,
//!   so an endpoint never keeps its own group alive, and a wake after the
//!   run ended does nothing.  A wake that races a dispatch of the same
//!   island is latched in a `NOTIFIED` state and re-queued by the
//!   dispatching worker, never lost.
//! * **Parking.**  Idle workers wait on an eventcount, the pool's
//!   `epoch`.  An enqueue bumps it after its push and notifies the parked
//!   workers — except when a worker pushes onto its own empty heap during
//!   a dispatch, since it takes that island itself — and a resume bumps it
//!   too.  A worker that finds nothing to pop right after a dispatch first
//!   waits *hot*: it spins the ring's spin budget (none on one CPU), then
//!   yields its core, until the epoch moves or shutdown shows up, or
//!   `PARK_TIMEOUT` has passed since that dispatch ended.  Only then does
//!   it park on a condvar, until the epoch moves; a park that times out
//!   re-reads the epoch and parks again, so an idle worker never pops, and
//!   never steals, on a timer.  A hot worker thus reacts to exactly the
//!   events that wake a parked one: watching only its own heap would
//!   leave a busy sibling's backlog unstolen for a whole window, and
//!   watching the ready entries of every heap would steal the island a
//!   sibling just yielded.  No wake is lost: the worker reads the epoch
//!   *before* its failed pop, and the enqueue bumps it *after* the push
//!   the pop missed, so the worker sees the bump, hot or parked.  While
//!   tokens arrive faster than one per window, no worker sleeps and an
//!   enqueue never takes the park lock.  The enqueue side and the parking
//!   side meet in a `SeqCst` handshake; the park is still bounded by
//!   `PARK_TIMEOUT`, so a hypothetically missed notify costs a retry,
//!   never a hang.
//! * **Groups.**  A group owns the islands of one deployment and tracks
//!   its remaining components, their per-component reports and its
//!   completion.  Its handle and its queued entries hold it by reference
//!   count, so a drained deployment frees its islands.
//! * **Quiescence.**  A group counts its islands that are queued or being
//!   dispatched (`work`): an enqueue increments it before the push, and a
//!   dispatch decrements it only after publishing its outcome.  A group
//!   that nothing outside its workers can wake is *sealed*: it has no
//!   ingress or egress port and no endpoint whose medium calls its waker
//!   — every batch run on slots or the ring, whose environment streams
//!   are preloaded.  When a sealed group's `work` drops to 0 with
//!   components remaining, every surviving island is stuck and no wake
//!   can originate: a communication deadlock (only reachable on a cyclic
//!   topology that got past the static cycle analysis).  The thread that
//!   made the last decrement finalizes each live member with
//!   [`StopReason::Deadlocked`] instead of hanging.  Placing a group holds
//!   its `work` at 1 until every island is queued, so an island that
//!   blocks before its peers are placed cannot make the group look
//!   quiescent.  An *open* group (a served tenant, a partition waiting on
//!   its links) is never finalized: all of its islands blocked is its
//!   normal idle state between feeds or arrivals.
//! * **Affinity.**  Each worker of a [`SharedPool`] runs an optional
//!   startup hook ([`PoolOptions::worker_setup`]) whose success is
//!   reported as the `pinned` flag of its [`PoolWorkerStats`]: the seam
//!   where a serving layer pins workers to cores.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::task::{Wake, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use signal_lang::{Name, Value};
use sim::Flows;

use crate::deploy::{
    ChannelSpec, DeployError, DeploymentOutcome, EgressPort, IngressPort, OutcomeParts,
    StagedDeployment, Topology,
};
use crate::ring::spin_limit;
use crate::stats::{PoolWorkerStats, StopReason};
use crate::trace::TraceBuffer;
use crate::transport::TrySendError;
use crate::worker::{DriveOutcome, Driver, Slot, WorkerReport};

/// The shape of the pool a deployment runs on.  The default is
/// [`ExecutionMode::pool_per_core`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// A fixed pool of `workers` OS threads cooperatively runs every
    /// component.  Each weakly connected component of the channel graph is
    /// one *island*, scheduled as a unit: ready islands are pulled from
    /// per-worker priority heaps (stealing from a sibling's when a worker's
    /// own is empty), and one dispatch sweeps the island's members in
    /// topological order until it is stuck, finished, or has run `quantum`
    /// reactions per live member.  Channels keep their resolved
    /// capacities; an island owns the ones on no named medium.  The
    /// OS-thread footprint is `workers`, whatever the component count;
    /// parallelism comes from independent islands.
    Pool {
        /// Pool size in OS threads (must be nonzero).
        workers: usize,
        /// Reactions per live member one dispatch may run before the
        /// island is re-queued behind its peers (must be nonzero).  Larger
        /// quanta amortize scheduling overhead; smaller quanta interleave
        /// islands more fairly.
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

impl Default for ExecutionMode {
    fn default() -> Self {
        ExecutionMode::pool_per_core()
    }
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ExecutionMode::Pool { workers, quantum } = self;
        write!(f, "pool of {workers} worker(s), quantum {quantum}")
    }
}

/// Per-island scheduling states (one `AtomicU8` per cell).
///
/// Transitions:
/// `QUEUED -> RUNNING` (a worker pops the cell and takes its driver),
/// `RUNNING -> QUEUED|BLOCKED|DONE` (dispatch concluded: yielded, stuck,
/// every member finished),
/// `RUNNING -> NOTIFIED` (a wake raced the dispatch; latched, not lost),
/// `NOTIFIED -> QUEUED` (the dispatching worker re-queues instead of
/// blocking), `BLOCKED -> QUEUED` (a wake re-queues),
/// `BLOCKED -> DONE` (a quiescent sealed group is finalized as deadlocked).
const BLOCKED: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Bound on one idle park: a missed notify (prevented by the `SeqCst`
/// handshake, but cheap to insure against) costs a retry, not a hang.
///
/// It is also the hot window: a worker that finds nothing to pop waits
/// hot until this long after its last dispatch ended, watching the
/// pool's epoch, before it parks.  An arrival within the window meets a
/// running worker, so it pays neither a futex wake nor a sleeping core's
/// wake-up; the price is a busy core for up to one window after each
/// dispatch that leaves a worker idle.
const PARK_TIMEOUT: Duration = Duration::from_millis(5);

/// How long one `drain` waiting slice lasts between egress polls.
const DRAIN_POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Configuration of a [`SharedPool`].
#[derive(Clone)]
pub struct PoolOptions {
    /// Pool size in OS threads (must be nonzero).
    pub workers: usize,
    /// Reactions per live member one dispatch may run before the island
    /// is re-queued behind its equal-priority peers (must be nonzero).
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
        let ExecutionMode::Pool { workers, quantum } = ExecutionMode::pool_per_core();
        PoolOptions::new(workers, quantum)
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
    /// Scheduling priority of every island of the deployment: a ready
    /// island always dispatches before any lower-priority ready island, on
    /// every pop and steal.
    pub base_priority: u32,
}

/// One entry of a worker's priority heap: island `cell` of `group`.
/// Higher priority wins; among equals, the *smaller* sequence wins — FIFO,
/// so a yielded island (re-enqueued with a fresh, larger sequence) goes
/// behind its equal-priority peers.
struct ReadyEntry {
    priority: u32,
    seq: u64,
    group: Arc<Group>,
    cell: usize,
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

/// One island's state between dispatches: its live members in
/// topological order of its edges, as `(component index in the group,
/// driver)` — a member leaves the list when it finishes — and the slots
/// of the edges between them, which the members address by index.
struct Island {
    members: Vec<(usize, Driver)>,
    slots: Vec<Slot>,
}

/// One island living on a pool, addressed by its index in its group.
struct Cell {
    state: AtomicU8,
    /// The priority of the island's deployment.
    priority: u32,
    /// The worker whose heap this island is enqueued on by client wakes
    /// (feed, poll, close); a yielding dispatch re-queues on its own
    /// worker for locality.
    home: usize,
    /// The component a dispatch of this island is recorded under: its
    /// first member in topological order.
    label: usize,
    /// The island while no worker dispatches it.  A dispatch takes it
    /// out and puts it back under this mutex, the only synchronization
    /// its slots need.
    slot: Mutex<Option<Island>>,
}

impl Cell {
    fn lock_slot(&self) -> MutexGuard<'_, Option<Island>> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The [`Waker`] a medium calls to wake one island from its own thread.
/// It holds the pool and the group weakly: an endpoint never keeps its own
/// group alive, and a wake after either is gone does nothing.
struct IslandWaker {
    sched: Weak<Scheduler>,
    group: Weak<Group>,
    island: usize,
    home: usize,
}

impl Wake for IslandWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if let (Some(sched), Some(group)) = (self.sched.upgrade(), self.group.upgrade()) {
            sched.wake(self.home, &group, self.island);
        }
    }
}

/// How one dispatch of an island ended.
enum Sweep {
    /// The island used its quantum with members still runnable.
    Yielded,
    /// A full sweep made no progress: every live member is blocked.
    Stuck,
    /// Every member finished.
    Done,
}

/// One placed deployment: its islands and its completion tracking.  The
/// group is reference-counted by its handle and by its queued entries, so
/// a drained deployment frees its islands.
struct Group {
    started: Instant,
    /// Whether nothing outside the pool can wake the group: it has no
    /// ingress or egress port, and no endpoint's medium calls its waker.
    /// Only a sealed group is finalized when it quiesces.
    sealed: bool,
    /// Components that have not reported yet.
    remaining: AtomicUsize,
    /// Islands queued or being dispatched, plus the placement hold.  A
    /// dequeued island stays counted until its dispatch has published its
    /// outcome, so a sealed group observed at 0 can never be woken again.
    work: AtomicUsize,
    /// The islands.
    cells: Vec<Cell>,
    /// The island of each component, by component index.
    island_of: Vec<usize>,
    /// Per-component reports, filled as components finish.
    reports: Mutex<Vec<Option<WorkerReport>>>,
    /// Wall-clock from placement to the last component's finish.
    elapsed: Mutex<Option<Duration>>,
    /// This group's rank in the pool-wide completion order.
    completion: Mutex<Option<u64>>,
    done_lock: Mutex<bool>,
    done_cv: Condvar,
}

impl Group {
    fn lock_reports(&self) -> MutexGuard<'_, Vec<Option<WorkerReport>>> {
        self.reports.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until every component finished, or until `deadline` passes;
    /// returns whether the group finished.
    fn wait(&self, deadline: Option<Instant>) -> bool {
        let mut done = self.done_lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = match deadline {
                None => self.done_cv.wait(done).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return false;
                    }
                    self.done_cv
                        .wait_timeout(done, deadline - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
        true
    }

    /// The reports of a finished group, in component order.
    fn take_reports(&self) -> Vec<WorkerReport> {
        self.lock_reports()
            .iter_mut()
            .map(|slot| slot.take().expect("every finished component reported"))
            .collect()
    }
}

/// Per-worker scheduling counters, updated lock-free by the worker itself
/// and snapshot by [`SharedPool::worker_stats`].
struct WorkerCounters {
    dispatches: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    pinned: AtomicBool,
}

/// The state the workers of one pool share.
struct Scheduler {
    /// The per-worker ready heaps (priority-ordered, FIFO among equals).
    queues: Vec<Mutex<BinaryHeap<ReadyEntry>>>,
    counters: Vec<WorkerCounters>,
    quantum: u64,
    /// Monotonic ready-entry sequence: the FIFO age among equal priorities.
    seq: AtomicU64,
    /// The eventcount idle workers wait on, hot or parked: bumped after
    /// every push that a sibling should see, and by a resume.
    epoch: AtomicU64,
    /// Workers parked on `idle`.
    sleepers: AtomicUsize,
    park_lock: Mutex<()>,
    idle: Condvar,
    paused: AtomicBool,
    shutdown: AtomicBool,
    /// Pool-wide group completion counter (the source of
    /// [`SubmittedDeployment::completion_index`]).
    completions: AtomicU64,
    /// Round-robin cursor assigning home workers to placed components.
    next_home: AtomicUsize,
}

impl Scheduler {
    fn lock_park(&self) -> MutexGuard<'_, ()> {
        self.park_lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pushes a ready cell onto a worker's heap, tells the idle workers
    /// and wakes the parked ones if any.  The group's `work` is
    /// incremented *before* the push, so the decrement that follows a
    /// dispatch never precedes it.  The epoch is bumped *after* the push:
    /// an idle worker whose pop missed the entry read the epoch before
    /// that pop, so it sees the bump.  The `SeqCst` fence pairs with the
    /// re-check a parking worker performs under the lock: either this side
    /// sees `sleepers > 0` and notifies, or the parking side's re-check
    /// sees the new epoch and never sleeps.
    ///
    /// `by_owner` marks a push by the heap's own worker while it
    /// dispatches.  Onto an empty heap, that worker pops the cell itself
    /// right after the dispatch, so no sibling, hot or parked, is told.
    fn enqueue(&self, worker: usize, group: &Arc<Group>, cell: usize, by_owner: bool) {
        group.work.fetch_add(1, SeqCst);
        let entry = ReadyEntry {
            priority: group.cells[cell].priority,
            seq: self.seq.fetch_add(1, SeqCst),
            group: Arc::clone(group),
            cell,
        };
        let was_empty = {
            let mut heap = self.queues[worker]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let was_empty = heap.is_empty();
            heap.push(entry);
            was_empty
        };
        if by_owner && was_empty {
            return;
        }
        self.epoch.fetch_add(1, SeqCst);
        fence(SeqCst);
        if self.sleepers.load(Relaxed) > 0 {
            let _guard = self.lock_park();
            self.idle.notify_all();
        }
    }

    /// Re-queues island `cell` if it is blocked; latches the wake if it is
    /// being dispatched right now.  Spurious wakes are harmless — a
    /// re-swept island that is still stuck simply re-blocks.
    fn wake(&self, worker: usize, group: &Arc<Group>, cell: usize) {
        let state = &group.cells[cell].state;
        loop {
            match state.load(SeqCst) {
                BLOCKED => {
                    if state
                        .compare_exchange(BLOCKED, QUEUED, SeqCst, SeqCst)
                        .is_ok()
                    {
                        self.enqueue(worker, group, cell, false);
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
                other => unreachable!("island state {other}"),
            }
        }
    }

    /// A client's wake (`feed`, `poll_outputs`, `close_inputs`) of the
    /// island holding `component`, landing on the island's home worker.
    fn wake_home(&self, group: &Arc<Group>, component: usize) {
        let island = group.island_of[component];
        self.wake(group.cells[island].home, group, island);
    }

    /// Pops the next ready cell: the own heap's best entry first, then each
    /// sibling's best (steal-on-empty).
    fn pop(&self, me: usize) -> Option<(ReadyEntry, bool)> {
        if self.paused.load(SeqCst) {
            return None;
        }
        let workers = self.queues.len();
        for offset in 0..workers {
            let victim = (me + offset) % workers;
            let entry = self.queues[victim]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop();
            if let Some(entry) = entry {
                return Some((entry, offset != 0));
            }
        }
        None
    }

    /// Runs one dispatch of one island and performs the resulting state
    /// transition.
    fn dispatch(&self, me: usize, group: &Arc<Group>, index: usize) {
        let cell = &group.cells[index];
        let state = &cell.state;
        let previous = state.swap(RUNNING, SeqCst);
        debug_assert_eq!(previous, QUEUED, "a dequeued island is queued");

        let mut island = cell
            .lock_slot()
            .take()
            .expect("a queued island is parked in its slot");
        match self.sweep(group, &mut island) {
            Sweep::Yielded => {
                *cell.lock_slot() = Some(island);
                // The wake latch is subsumed: the island goes straight back
                // to the ready set either way, and its fresh sequence puts
                // it behind its equal-priority peers.
                state.store(QUEUED, SeqCst);
                self.enqueue(me, group, index, true);
            }
            Sweep::Stuck => {
                // Park the members *before* publishing the blocked state: a
                // concurrent wake that sees BLOCKED may immediately re-queue
                // the island for another worker, which will look for the
                // island in the slot.
                *cell.lock_slot() = Some(island);
                if state
                    .compare_exchange(RUNNING, BLOCKED, SeqCst, SeqCst)
                    .is_err()
                {
                    // A client wake raced the dispatch (NOTIFIED): an edge
                    // may have moved since a member observed it, so
                    // re-queue instead of blocking.
                    state.store(QUEUED, SeqCst);
                    self.enqueue(me, group, index, true);
                }
            }
            Sweep::Done => state.store(DONE, SeqCst),
        }
        // Ordered after the outcome above: a group observed at `work == 0`
        // has no island in flight.
        self.release(group);
    }

    /// Sweeps an island's live members in topological order, each driven
    /// until it blocks, yields or stops, until a whole sweep makes no
    /// progress, every member finished, or the island ran `quantum`
    /// reactions per member it started with.  A member that stops is
    /// finalized on the spot — closing its slots and dropping its
    /// endpoints closes its channels, which its island-mates observe on
    /// the next sweep.
    fn sweep(&self, group: &Group, island: &mut Island) -> Sweep {
        let Island { members, slots } = island;
        let budget = self.quantum.saturating_mul(members.len() as u64);
        let mut used = 0u64;
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < members.len() {
                if used >= budget {
                    return Sweep::Yielded;
                }
                let driver = &mut members[i].1;
                let (reactions, moved) = (driver.reactions(), driver.tokens_moved());
                let outcome = driver.drive(self.quantum.min(budget - used), slots);
                let reacted = driver.reactions() - reactions;
                used += reacted;
                progressed |= reacted > 0 || driver.tokens_moved() != moved;
                if let DriveOutcome::Done(stop) = outcome {
                    let (component, driver) = members.remove(i);
                    self.retire(group, component, driver.finish(stop, slots));
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if members.is_empty() {
                return Sweep::Done;
            }
            if !progressed {
                return Sweep::Stuck;
            }
        }
    }

    /// Files a finished component's report; the group's last one stamps
    /// the group and publishes its pool-wide completion rank.
    fn retire(&self, group: &Group, cell: usize, report: WorkerReport) {
        group.lock_reports()[cell] = Some(report);
        if group.remaining.fetch_sub(1, SeqCst) == 1 {
            *group.elapsed.lock().unwrap_or_else(|e| e.into_inner()) =
                Some(group.started.elapsed());
            *group.completion.lock().unwrap_or_else(|e| e.into_inner()) =
                Some(self.completions.fetch_add(1, SeqCst));
            let mut done = group.done_lock.lock().unwrap_or_else(|e| e.into_inner());
            *done = true;
            group.done_cv.notify_all();
        }
    }

    /// Drops one unit of a group's outstanding work.  A sealed group taken
    /// to 0 with components remaining is quiescent for good: every
    /// surviving island is stuck and nothing can wake it, so this thread
    /// finalizes each live member as deadlocked.
    fn release(&self, group: &Group) {
        if group.work.fetch_sub(1, SeqCst) != 1
            || !group.sealed
            || group.remaining.load(SeqCst) == 0
        {
            return;
        }
        for cell in &group.cells {
            if cell
                .state
                .compare_exchange(BLOCKED, DONE, SeqCst, SeqCst)
                .is_ok()
            {
                let mut island = cell
                    .lock_slot()
                    .take()
                    .expect("a blocked island is parked in its slot");
                for (component, driver) in island.members {
                    let report = driver.finish(StopReason::Deadlocked, &mut island.slots);
                    self.retire(group, component, report);
                }
            }
        }
    }

    /// Parks an idle (or paused) worker until the epoch moves past
    /// `epoch`, read before its failed pop, or the pool shuts down.  A
    /// park that times out re-reads the epoch and parks again: only the
    /// owner's own yields go unannounced, and the owner pops those itself.
    fn park(&self, epoch: u64) {
        let mut guard = self.lock_park();
        // Register as a sleeper *before* re-reading the epoch: the enqueue
        // side bumps the epoch before loading `sleepers`, and this side
        // increments `sleepers` before loading the epoch — two store→load
        // pairs under `SeqCst`, so at least one side observes the other.
        // The notify is taken under `park_lock`, which this thread holds
        // until `wait_timeout` releases it.
        self.sleepers.fetch_add(1, SeqCst);
        while !self.shutdown.load(SeqCst) && self.epoch.load(SeqCst) == epoch {
            guard = self
                .idle
                .wait_timeout(guard, PARK_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Waits hot for an event past `epoch` — an enqueue that would have
    /// woken a parked worker, a resume — or for shutdown: spins the ring's
    /// budget, then yields the core, until the window that opened when the
    /// last dispatch ended at `since` closes.  Returns whether an event
    /// arrived; `false` means the window closed and the worker should park.
    fn wait_hot(&self, epoch: u64, since: Instant) -> bool {
        let arrived = || self.epoch.load(SeqCst) != epoch || self.shutdown.load(SeqCst);
        let deadline = since + PARK_TIMEOUT;
        // A closed window reports no arrival, so steady events that some
        // other worker always pops cannot keep this one from parking.
        if Instant::now() >= deadline {
            return false;
        }
        for _ in 0..spin_limit() {
            if arrived() {
                return true;
            }
            std::hint::spin_loop();
        }
        loop {
            if arrived() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// One worker's loop, until shutdown.  `recorder` is the worker's
    /// private trace buffer for its dispatch and park events (a dispatch
    /// is recorded under its island's label component); it is handed back
    /// when the worker stops.
    fn work(&self, me: usize, mut recorder: Option<TraceBuffer>) -> Option<TraceBuffer> {
        let counters = &self.counters[me];
        // When the last dispatch ended, while its hot window is open.
        let mut hot_since = None;
        while !self.shutdown.load(SeqCst) {
            // Read before the pop: an enqueue the pop misses bumps it later.
            let epoch = self.epoch.load(SeqCst);
            if let Some((entry, stolen)) = self.pop(me) {
                counters.dispatches.fetch_add(1, Relaxed);
                if stolen {
                    counters.steals.fetch_add(1, Relaxed);
                }
                if let Some(recorder) = recorder.as_mut() {
                    recorder.dispatch(entry.group.cells[entry.cell].label, stolen);
                }
                self.dispatch(me, &entry.group, entry.cell);
                hot_since = Some(Instant::now());
            } else if hot_since.is_some_and(|since| self.wait_hot(epoch, since)) {
                // Something arrived within the window: pop again.
            } else {
                hot_since = None;
                counters.parks.fetch_add(1, Relaxed);
                if let Some(recorder) = recorder.as_mut() {
                    recorder.park();
                }
                self.park(epoch);
            }
        }
        recorder
    }
}

/// Runs `drivers` to completion on a pool of `workers` OS threads started
/// for this run, and returns the per-component reports (in component
/// order), the per-worker scheduling counters, and — when `trace` carries
/// the deployment's trace epoch and buffer limit — one scheduling-event
/// buffer per worker (empty `Vec` otherwise).
pub(crate) fn run_batch(
    drivers: Vec<Driver>,
    topology: &Topology,
    workers: usize,
    quantum: u64,
    trace: Option<(Instant, usize)>,
) -> (Vec<WorkerReport>, Vec<PoolWorkerStats>, Vec<TraceBuffer>) {
    let mut pool = SharedPool::launch(PoolOptions::new(workers, quantum), trace)
        .expect("set_execution_mode refuses empty pools and zero quanta");
    // A batch run's environment streams are preloaded: it has no ports,
    // so its group is sealed unless a link's medium can wake it.
    let group = pool.place(drivers, topology, true, Instant::now(), 0);
    group.wait(None);
    let worker_traces = pool.stop_workers();
    (group.take_reports(), pool.worker_stats(), worker_traces)
}

/// The islands of a channel graph over `n` components: its weakly
/// connected components, each listed in topological order of its edges
/// (ties, and the nodes of a cycle, by component index), and ordered by
/// their smallest member.
fn islands(n: usize, channels: &[ChannelSpec]) -> Vec<Vec<usize>> {
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..n).collect();
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    for channel in channels {
        successors[channel.producer].push(channel.consumer);
        indegree[channel.consumer] += 1;
        let (a, b) = (
            root(&mut parent, channel.producer),
            root(&mut parent, channel.consumer),
        );
        parent[a.max(b)] = a.min(b);
    }
    // Kahn's algorithm over the whole graph; when every remaining node
    // lies on or behind a cycle, the smallest one goes next.
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    while order.len() < n {
        let next = match ready.pop_first() {
            Some(next) => next,
            None => (0..n).find(|&i| !placed[i]).expect("a node is left"),
        };
        if placed[next] {
            continue;
        }
        placed[next] = true;
        order.push(next);
        for &successor in &successors[next] {
            indegree[successor] = indegree[successor].saturating_sub(1);
            if indegree[successor] == 0 && !placed[successor] {
                ready.insert(successor);
            }
        }
    }
    let mut index_of_root = vec![usize::MAX; n];
    let mut islands: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        let r = root(&mut parent, i);
        if index_of_root[r] == usize::MAX {
            index_of_root[r] = islands.len();
            islands.push(Vec::new());
        }
    }
    for i in order {
        let r = root(&mut parent, i);
        islands[index_of_root[r]].push(i);
    }
    islands
}

/// A long-lived pool hosting **many** concurrent deployments — the
/// execution substrate of the `gals-serve` crate.
///
/// A `SharedPool` starts its workers once ([`SharedPool::start`]) and
/// accepts staged deployments at any time ([`SharedPool::submit`]);
/// tenants stream their inputs and outputs through their
/// [`SubmittedDeployment`] handle while the pool runs.  See the module
/// docs for the invariants (priority heaps, external wakes, quiescence,
/// affinity hooks).
pub struct SharedPool {
    sched: Arc<Scheduler>,
    handles: Vec<JoinHandle<Option<TraceBuffer>>>,
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
        SharedPool::launch(options, None)
    }

    /// [`start`](Self::start), with each worker recording its dispatch and
    /// park events into a private buffer when `trace` carries an epoch and
    /// a buffer limit.
    fn launch(
        options: PoolOptions,
        trace: Option<(Instant, usize)>,
    ) -> Result<SharedPool, DeployError> {
        if options.workers == 0 {
            return Err(DeployError::ZeroPoolWorkers);
        }
        if options.quantum == 0 {
            return Err(DeployError::ZeroQuantum);
        }
        let sched = Arc::new(Scheduler {
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
            epoch: AtomicU64::new(0),
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
                let sched = Arc::clone(&sched);
                let setup = options.worker_setup.clone();
                std::thread::Builder::new()
                    .name(format!("gals-pool-{w}"))
                    .spawn(move || {
                        if let Some(setup) = setup {
                            if setup(w) {
                                sched.counters[w].pinned.store(true, Relaxed);
                            }
                        }
                        let recorder = trace.map(|(epoch, limit)| TraceBuffer::new(epoch, limit));
                        sched.work(w, recorder)
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Ok(SharedPool {
            sched,
            handles,
            workers: options.workers,
            quantum: options.quantum,
        })
    }

    /// Pool size in OS threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Reactions per live island member per dispatch.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Stops dispatching: workers park after their in-flight dispatch.
    /// Ready islands stay queued; [`resume`](Self::resume) picks them
    /// back up.
    pub fn pause(&self) {
        self.sched.paused.store(true, SeqCst);
    }

    /// Resumes a paused pool.
    pub fn resume(&self) {
        self.sched.paused.store(false, SeqCst);
        self.sched.epoch.fetch_add(1, SeqCst);
        let _guard = self.sched.lock_park();
        self.sched.idle.notify_all();
    }

    /// A snapshot of the per-worker scheduling counters, including the
    /// `pinned` flag the startup hook reported.
    pub fn worker_stats(&self) -> Vec<PoolWorkerStats> {
        self.sched
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
    /// handle.  Its islands are enqueued immediately (on a paused pool
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
        let started = Instant::now();
        if let Some(config) = &trace {
            for driver in &mut drivers {
                driver.set_trace(TraceBuffer::new(started, config.buffer_capacity));
            }
        }
        let sealed = ingress.is_empty() && egress.is_empty();
        let group = self.place(drivers, &topology, sealed, started, options.base_priority);
        SubmittedDeployment {
            sched: Arc::clone(&self.sched),
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

    /// Places `drivers` as one group: one cell per island of the channel
    /// graph, holding its members and the slots between them (numbered
    /// per island), its members' endpoints handed the island's waker,
    /// enqueued on its home worker.  A group placed `sealed` stays sealed
    /// only when no endpoint's medium will call that waker.
    fn place(
        &self,
        drivers: Vec<Driver>,
        topology: &Topology,
        sealed: bool,
        started: Instant,
        priority: u32,
    ) -> Arc<Group> {
        let n = drivers.len();
        let islands = islands(n, &topology.channels);
        let mut island_of = vec![0; n];
        for (k, members) in islands.iter().enumerate() {
            for &member in members {
                island_of[member] = k;
            }
        }
        let mut drivers: Vec<Option<Driver>> = drivers.into_iter().map(Some).collect();
        // A slot's index in its island, by its edge's index in the topology.
        let mut local = vec![usize::MAX; topology.channels.len()];
        let base = self.sched.next_home.fetch_add(islands.len().max(1), SeqCst);
        let group = Arc::new_cyclic(|weak: &Weak<Group>| {
            let mut wakes = false;
            let cells = islands
                .iter()
                .enumerate()
                .map(|(k, members)| {
                    let home = (base + k) % self.workers;
                    let waker = Waker::from(Arc::new(IslandWaker {
                        sched: Arc::downgrade(&self.sched),
                        group: weak.clone(),
                        island: k,
                        home,
                    }));
                    let mut members: Vec<(usize, Driver)> = members
                        .iter()
                        .map(|&i| (i, drivers[i].take().expect("one island per component")))
                        .collect();
                    // Both ends of an edge lie in one island: the first end
                    // met numbers the slot, the other finds it numbered.
                    let mut slots = Vec::new();
                    for (_, driver) in &mut members {
                        wakes |= driver.set_waker(&waker);
                        for k in driver.slot_indices() {
                            if local[*k] == usize::MAX {
                                local[*k] = slots.len();
                                slots.push(Slot::new(topology.channels[*k].capacity));
                            }
                            *k = local[*k];
                        }
                    }
                    Cell {
                        state: AtomicU8::new(QUEUED),
                        priority,
                        home,
                        label: members[0].0,
                        slot: Mutex::new(Some(Island { members, slots })),
                    }
                })
                .collect();
            Group {
                started,
                sealed: sealed && !wakes,
                remaining: AtomicUsize::new(n),
                // The placement hold, released once every island is queued.
                work: AtomicUsize::new(1),
                cells,
                island_of,
                reports: Mutex::new((0..n).map(|_| None).collect()),
                elapsed: Mutex::new(None),
                completion: Mutex::new(None),
                done_lock: Mutex::new(n == 0),
                done_cv: Condvar::new(),
            }
        });
        for (k, cell) in group.cells.iter().enumerate() {
            self.sched.enqueue(cell.home, &group, k, false);
        }
        self.sched.release(&group);
        group
    }

    /// Stops and joins the worker threads, handing back their trace
    /// buffers (none for an untraced pool).
    fn stop_workers(&mut self) -> Vec<TraceBuffer> {
        self.sched.shutdown.store(true, SeqCst);
        {
            let _guard = self.sched.lock_park();
            self.sched.idle.notify_all();
        }
        self.handles
            .drain(..)
            .filter_map(|handle| handle.join().ok().flatten())
            .collect()
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
    sched: Arc<Scheduler>,
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

    /// The number of components the deployment runs on the pool.
    pub fn component_count(&self) -> usize {
        self.names.len()
    }

    /// Streams values into an environment input *while the deployment
    /// runs*: the tokens land in the bounded ingress channel and the
    /// consumer's island is woken.  When
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
                        self.sched.wake_home(&self.group, *consumer);
                        let _ = tx.send(value);
                    }
                    Err(TrySendError::Closed) => {}
                }
            }
        }
        for (consumer, _) in &port.consumers {
            self.sched.wake_home(&self.group, *consumer);
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
                self.sched.wake_home(&self.group, port.producer);
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
            self.sched.wake_home(&self.group, consumer);
        }
    }

    /// Whether every component of this deployment has finished.
    pub fn is_finished(&self) -> bool {
        self.group.remaining.load(SeqCst) == 0
    }

    /// Blocks until the deployment finishes or the timeout elapses;
    /// returns whether it finished.
    pub fn wait(&self, timeout: Duration) -> bool {
        self.group.wait(Some(Instant::now() + timeout))
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
        self.group
            .lock_reports()
            .iter()
            .zip(&self.names)
            .filter(|(report, _)| report.is_none())
            .map(|(_, name)| name.clone())
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
        let reports = self.group.take_reports();
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
