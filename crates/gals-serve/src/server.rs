//! The server: one shared pool, an accounting ledger, and the
//! per-tenant handle tying a submitted deployment to its reservation.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gals_rt::{
    DeployError, DeploymentOutcome, DrainError, PoolOptions, PoolWorkerStats, SharedPool,
    SubmitOptions, SubmittedDeployment,
};
use isochron::{Design, DesignError};
use signal_lang::{Name, Value};
use sim::Flows;

use crate::admission::{AdmitError, Budget, Footprint, Ledger, ServerLoad};
use crate::affinity;

/// Configuration of a [`Server`]: pool shape, admission budget, and
/// worker placement.
#[derive(Clone)]
pub struct ServerOptions {
    /// Pool size in worker OS threads (must be nonzero).
    pub workers: usize,
    /// Reactions per live island member one dispatch may run before the
    /// island is re-queued behind its equal-priority peers (must be
    /// nonzero).
    pub quantum: u64,
    /// Admission budget; [`Budget::unlimited`] by default.
    pub budget: Budget,
    /// Pin worker `w` to CPU core `w % available_parallelism` at startup
    /// ([`affinity::pin_current_thread`]); the per-worker stats report
    /// whether each pin took.
    pub pin_workers: bool,
    /// Start the pool paused: admitted components queue without
    /// dispatching until [`Server::resume`].
    pub paused: bool,
}

impl ServerOptions {
    /// Options for a pool of `workers` threads at `quantum` reactions
    /// per dispatch, unlimited budget, no pinning.
    pub fn new(workers: usize, quantum: u64) -> Self {
        ServerOptions {
            workers,
            quantum,
            budget: Budget::unlimited(),
            pin_workers: false,
            paused: false,
        }
    }

    /// Options sized like [`gals_rt::PoolOptions::per_core`]: one worker
    /// per available core at the default quantum.
    pub fn per_core() -> Self {
        let pool = PoolOptions::per_core();
        ServerOptions::new(pool.workers, pool.quantum)
    }
}

impl fmt::Debug for ServerOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerOptions")
            .field("workers", &self.workers)
            .field("quantum", &self.quantum)
            .field("budget", &self.budget)
            .field("pin_workers", &self.pin_workers)
            .field("paused", &self.paused)
            .finish()
    }
}

/// Per-submission knobs for [`Server::admit_with`].
#[derive(Debug, Clone, Default)]
pub struct AdmitOptions {
    /// Scheduling priority of every island of this tenant: a ready island
    /// always dispatches before any lower-priority ready island.
    pub base_priority: u32,
}

/// A long-running host for many verified deployments on one shared
/// work-stealing pool (see the [crate docs](crate) for the full story).
///
/// Dropping the server shuts the pool down: workers are signalled and
/// joined.  Tenants still in flight keep their channels, so finish or
/// drop their handles first.
pub struct Server {
    pool: SharedPool,
    ledger: Arc<Mutex<Ledger>>,
    budget: Budget,
}

impl Server {
    /// Starts the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::ZeroPoolWorkers`] or
    /// [`DeployError::ZeroQuantum`] when the pool shape is degenerate.
    pub fn start(options: ServerOptions) -> Result<Server, DeployError> {
        let mut pool = PoolOptions::new(options.workers, options.quantum);
        pool.paused = options.paused;
        if options.pin_workers {
            pool.worker_setup = Some(Arc::new(affinity::pin_current_thread));
        }
        Ok(Server {
            pool: SharedPool::start(pool)?,
            ledger: Arc::new(Mutex::new(Ledger::default())),
            budget: options.budget,
        })
    }

    /// Admits `design` under `id` with default [`AdmitOptions`].
    ///
    /// # Errors
    ///
    /// See [`AdmitError`] for every refusal path.
    pub fn admit(
        &self,
        id: impl Into<String>,
        design: &Design,
    ) -> Result<DeploymentHandle, AdmitError> {
        self.admit_with(id, design, &AdmitOptions::default())
    }

    /// Prices `design` from its verification artifacts, reserves its
    /// [`Footprint`] against the budget, stages it with derived channel
    /// capacities, and submits it to the pool at the options' priority.
    ///
    /// The design's capacity analysis, prediction and step programs are
    /// derived once, by whichever admission (or other caller) needs them
    /// first, and read by every later one: admitting a design again pays
    /// only for instantiating the tenant's machines and wiring its
    /// channels.
    ///
    /// # Errors
    ///
    /// [`AdmitError::NotVerified`] when the design fails the static
    /// weak-hierarchy criterion; [`AdmitError::UnprimedCycle`] when a
    /// feedback loop of the design can never start turning;
    /// [`AdmitError::Unbounded`] when some channel has no finite derived
    /// capacity; [`AdmitError::DuplicateId`] when `id` is already in flight;
    /// [`AdmitError::OverBudget`] when the footprint does not fit;
    /// [`AdmitError::Stage`] when wiring the priced deployment fails.
    pub fn admit_with(
        &self,
        id: impl Into<String>,
        design: &Design,
        options: &AdmitOptions,
    ) -> Result<DeploymentHandle, AdmitError> {
        let id = id.into();
        // Price first, entirely outside the ledger lock: the analyses
        // are pure functions of the design, stored on it.
        let analysis = design.capacity_analysis().map_err(|e| match e {
            DeployError::NotVerified(name) => AdmitError::NotVerified(name),
            DeployError::UnprimedCycle(cycle) => AdmitError::UnprimedCycle(cycle),
            other => AdmitError::Stage(other.to_string()),
        })?;
        if !analysis.is_fully_bounded() {
            return Err(AdmitError::Unbounded {
                signals: analysis.unbounded().keys().cloned().collect(),
            });
        }
        let prediction = design
            .performance_prediction()
            .map_err(|e| AdmitError::Stage(e.to_string()))?;
        let staged = design.stage_derived().map_err(|e| match e {
            DesignError::NotVerified(name) => AdmitError::NotVerified(name),
            other => AdmitError::Stage(other.to_string()),
        })?;
        let footprint = Footprint {
            components: staged.component_count(),
            channel_slots: analysis.bounds().values().map(|c| c.bound).sum(),
            reactions_per_input: prediction.reactions_per_input(),
        };
        // Reserve under the ledger lock so concurrent admissions cannot
        // both squeeze into the last of the budget.
        {
            let mut ledger = self.lock_ledger();
            if ledger.tenants.contains_key(&id) {
                return Err(AdmitError::DuplicateId(id));
            }
            self.budget.check(&id, &footprint, &ledger.in_use())?;
            ledger.tenants.insert(id.clone(), footprint.clone());
        }
        let submit = SubmitOptions {
            base_priority: options.base_priority,
        };
        let inner = self.pool.submit(staged, &submit);
        Ok(DeploymentHandle {
            id,
            footprint,
            inner: Some(inner),
            ledger: Arc::clone(&self.ledger),
        })
    }

    /// Pool size in worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Reactions per dispatch.
    pub fn quantum(&self) -> u64 {
        self.pool.quantum()
    }

    /// Stops dispatching; queued islands wait for [`resume`](Self::resume).
    pub fn pause(&self) {
        self.pool.pause();
    }

    /// Resumes a paused pool.
    pub fn resume(&self) {
        self.pool.resume();
    }

    /// Per-worker scheduling counters of the shared pool (dispatches,
    /// steals, parks, pin status) — pool-wide, not per-tenant: tenant
    /// stats live in each handle's drained outcome.
    pub fn worker_stats(&self) -> Vec<PoolWorkerStats> {
        self.pool.worker_stats()
    }

    /// What the tenants in flight hold against the budget.
    pub fn load(&self) -> ServerLoad {
        let ledger = self.lock_ledger();
        ServerLoad {
            deployments: ledger.tenants.len(),
            in_use: ledger.in_use(),
        }
    }

    /// The ids of the tenants in flight, in admission-key order.
    pub fn tenants(&self) -> Vec<String> {
        self.lock_ledger().tenants.keys().cloned().collect()
    }

    /// The server's admission budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    fn lock_ledger(&self) -> std::sync::MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let load = self.load();
        f.debug_struct("Server")
            .field("workers", &self.workers())
            .field("quantum", &self.quantum())
            .field("budget", &self.budget)
            .field("load", &load)
            .finish()
    }
}

/// One admitted tenant: the streaming surface of its deployment plus
/// the budget reservation backing it.
///
/// The reservation is released when the handle is consumed by
/// [`finish`](Self::finish) or dropped.  Dropping without finishing
/// abandons the tenant: its inputs are closed so the components run out
/// and free their pool slots, but the outcome is never collected.
pub struct DeploymentHandle {
    id: String,
    footprint: Footprint,
    inner: Option<SubmittedDeployment>,
    ledger: Arc<Mutex<Ledger>>,
}

impl DeploymentHandle {
    /// The admission id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The footprint reserved against the server budget.
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }

    /// Component (machine) names, in machine order.
    pub fn component_names(&self) -> &[String] {
        self.inner().component_names()
    }

    /// Streams `values` into the environment input `signal`; tokens land
    /// in the tenant's bounded ingress channel and the call blocks when
    /// it is full (client-side backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::UnknownFeed`] when `signal` is not an
    /// environment input of this deployment, and
    /// [`DeployError::InputsClosed`] when the tenant's inputs were
    /// already closed ([`close_inputs`](Self::close_inputs), or the close
    /// [`finish`](Self::finish) starts with).
    pub fn feed<I, V>(&mut self, signal: impl Into<Name>, values: I) -> Result<(), DeployError>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.inner_mut().feed(signal, values)
    }

    /// Drains the tenant's egress channels without blocking; returns the
    /// newly arrived tokens per external output.
    pub fn poll_outputs(&mut self) -> Flows {
        self.inner_mut().poll_outputs()
    }

    /// Closes every environment input: consumers drain what was fed and
    /// stop with `EnvironmentExhausted`, exactly like a batch run's end
    /// of input.  Idempotent; later feeds are refused with
    /// [`DeployError::InputsClosed`].
    pub fn close_inputs(&mut self) {
        self.inner_mut().close_inputs();
    }

    /// `true` once every component of the tenant has stopped.
    pub fn is_finished(&self) -> bool {
        self.inner().is_finished()
    }

    /// Blocks until the tenant finishes or `timeout` elapses; returns
    /// whether it finished.
    pub fn wait(&self, timeout: Duration) -> bool {
        self.inner().wait(timeout)
    }

    /// The tenant's rank in the pool-wide completion order (0 = first
    /// deployment to finish since the pool started), once finished.
    pub fn completion_index(&self) -> Option<u64> {
        self.inner().completion_index()
    }

    /// Names of the components that have not stopped yet.
    pub fn pending(&self) -> Vec<String> {
        self.inner().pending()
    }

    /// Closes the inputs, waits for every component to stop, collects
    /// the outcome, and releases the budget reservation.  The outcome is
    /// shaped exactly like a batch run's: flows, per-component stats,
    /// stop reasons, traces, and conformance checking all work
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`FinishError::Timeout`] when components are still
    /// running at the deadline — with the handle given back (and the
    /// reservation still held), so a later retry loses nothing.  Its
    /// inputs stay closed: the handle can be polled and finished again,
    /// but not fed.
    pub fn finish(mut self, timeout: Duration) -> Result<DeploymentOutcome, FinishError> {
        let inner = self
            .inner
            .take()
            .expect("a live handle always holds its deployment");
        match inner.drain(timeout) {
            // `self` drops here with `inner` already taken: the drop
            // hook releases the ledger reservation.
            Ok(outcome) => Ok(outcome),
            Err(DrainError::Timeout { pending, handle }) => {
                self.inner = Some(*handle);
                Err(FinishError::Timeout {
                    pending,
                    handle: Box::new(self),
                })
            }
        }
    }

    fn inner(&self) -> &SubmittedDeployment {
        self.inner
            .as_ref()
            .expect("a live handle always holds its deployment")
    }

    fn inner_mut(&mut self) -> &mut SubmittedDeployment {
        self.inner
            .as_mut()
            .expect("a live handle always holds its deployment")
    }
}

impl Drop for DeploymentHandle {
    fn drop(&mut self) {
        // Abandoned without `finish`: close the inputs so the components
        // run out of tokens, stop, and free their pool slots.
        if let Some(inner) = self.inner.as_mut() {
            inner.close_inputs();
        }
        let mut ledger = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        ledger.tenants.remove(&self.id);
    }
}

impl fmt::Debug for DeploymentHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeploymentHandle")
            .field("id", &self.id)
            .field("footprint", &self.footprint)
            .field("finished", &self.is_finished())
            .finish()
    }
}

/// Why [`DeploymentHandle::finish`] did not return an outcome.
pub enum FinishError {
    /// Components were still running at the deadline.  The handle comes
    /// back — reservation included — so the caller can poll, wait, or
    /// retry without losing the tenant.  Finishing closed its inputs, so
    /// it can no longer be fed.
    Timeout {
        /// Names of the components still running.
        pending: Vec<String>,
        /// The reconstituted handle.
        handle: Box<DeploymentHandle>,
    },
}

impl fmt::Debug for FinishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FinishError::Timeout { pending, handle } => f
                .debug_struct("Timeout")
                .field("pending", pending)
                .field("id", &handle.id())
                .finish(),
        }
    }
}

impl fmt::Display for FinishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FinishError::Timeout { pending, handle } => write!(
                f,
                "deployment {:?} still running at the deadline: [{}] pending",
                handle.id(),
                pending.join(", ")
            ),
        }
    }
}

impl Error for FinishError {}
