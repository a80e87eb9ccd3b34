//! Admission control: pricing a candidate deployment from its
//! verification artifacts and refusing what the budget cannot host.
//!
//! The unit of accounting is the [`Footprint`] — components (pool work),
//! channel slots (memory the derived FIFO bounds prove sufficient) and
//! predicted reactions per environment token (steady-state CPU).  All
//! three come from the same static analyses that make the deployment
//! safe in the first place, so admission needs no profiling run: a
//! design is priced before a single reaction executes.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use gals_rt::UnprimedCycle;
use signal_lang::Name;

/// The static resource footprint of one admitted deployment, derived
/// from the design's verification artifacts at admission time.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    /// Components the deployment schedules on the pool.
    pub components: usize,
    /// Total FIFO slots of the internal channels, summed over the
    /// derived capacity bounds (`isochron::Design::capacity_analysis`).
    pub channel_slots: usize,
    /// Predicted steady-state reactions per environment input token,
    /// summed over every component
    /// (`gals_rt::PerformancePrediction::reactions_per_input`).
    pub reactions_per_input: f64,
}

impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} components, {} channel slots, {:.2} reactions/input",
            self.components, self.channel_slots, self.reactions_per_input
        )
    }
}

/// The admission budget of a [`Server`](crate::Server): per-resource
/// ceilings on the *sum* of the footprints of all tenants in flight.
/// `None` leaves a resource unmetered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// Ceiling on total components across tenants.
    pub components: Option<usize>,
    /// Ceiling on total derived channel slots across tenants.
    pub channel_slots: Option<usize>,
    /// Ceiling on total predicted reactions per input across tenants.
    pub reactions_per_input: Option<f64>,
}

impl Budget {
    /// A budget with no ceiling on any resource — every verified,
    /// fully-bounded design is admitted.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the component ceiling.
    #[must_use]
    pub fn with_components(mut self, limit: usize) -> Self {
        self.components = Some(limit);
        self
    }

    /// Sets the channel-slot ceiling.
    #[must_use]
    pub fn with_channel_slots(mut self, limit: usize) -> Self {
        self.channel_slots = Some(limit);
        self
    }

    /// Sets the reactions-per-input ceiling.
    #[must_use]
    pub fn with_reactions_per_input(mut self, limit: f64) -> Self {
        self.reactions_per_input = Some(limit);
        self
    }

    /// Checks whether `candidate` fits on top of the `in_use` total.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError::OverBudget`] naming the first exhausted
    /// resource (components, then channel slots, then reactions).
    pub fn check(
        &self,
        id: &str,
        candidate: &Footprint,
        in_use: &Footprint,
    ) -> Result<(), AdmitError> {
        let over = |resource, requested: f64, used: f64, limit: f64| AdmitError::OverBudget {
            id: id.to_string(),
            resource,
            requested,
            in_use: used,
            limit,
        };
        if let Some(limit) = self.components {
            if in_use.components + candidate.components > limit {
                return Err(over(
                    Resource::Components,
                    candidate.components as f64,
                    in_use.components as f64,
                    limit as f64,
                ));
            }
        }
        if let Some(limit) = self.channel_slots {
            if in_use.channel_slots + candidate.channel_slots > limit {
                return Err(over(
                    Resource::ChannelSlots,
                    candidate.channel_slots as f64,
                    in_use.channel_slots as f64,
                    limit as f64,
                ));
            }
        }
        if let Some(limit) = self.reactions_per_input {
            if in_use.reactions_per_input + candidate.reactions_per_input > limit {
                return Err(over(
                    Resource::ReactionsPerInput,
                    candidate.reactions_per_input,
                    in_use.reactions_per_input,
                    limit,
                ));
            }
        }
        Ok(())
    }
}

/// One dimension of the admission [`Budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Components scheduled on the pool.
    Components,
    /// Derived FIFO slots of the internal channels.
    ChannelSlots,
    /// Predicted steady-state reactions per environment input token.
    ReactionsPerInput,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Components => write!(f, "components"),
            Resource::ChannelSlots => write!(f, "channel slots"),
            Resource::ReactionsPerInput => write!(f, "reactions per input"),
        }
    }
}

/// Why [`Server::admit`](crate::Server::admit) refused a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The design fails the static weak-hierarchy criterion.  Nothing
    /// guarantees the flows of an unverified deployment and none of its
    /// capacity bounds can be trusted, so it cannot be priced — and an
    /// unpriceable tenant is never admitted.
    NotVerified(String),
    /// The design verifies, but the priming-liveness pass proved one of
    /// its feedback loops can never start turning: every component on
    /// the loop waits on its first read before its first emission.  A
    /// static refusal, like [`NotVerified`](AdmitError::NotVerified):
    /// the tenant's components would wait on each other forever.
    UnprimedCycle(UnprimedCycle),
    /// The clock calculus could not bound every channel of the design:
    /// the named signals have no finite derived capacity, so the
    /// deployment's memory footprint is unknowable in advance.
    Unbounded {
        /// The signals without a finite derived bound.
        signals: Vec<Name>,
    },
    /// A tenant with this id is already being served.  Ids key the
    /// server's accounting ledger, so they must be unique among the
    /// deployments in flight.
    DuplicateId(String),
    /// Admitting the deployment would push the named resource past the
    /// server's [`Budget`].
    OverBudget {
        /// The refused tenant.
        id: String,
        /// The exhausted budget dimension.
        resource: Resource,
        /// What the candidate footprint requests.
        requested: f64,
        /// What the tenants in flight already hold.
        in_use: f64,
        /// The budget ceiling.
        limit: f64,
    },
    /// The design verified and priced but could not be staged (e.g. an
    /// ill-formed interface-derived topology); carries the rendered
    /// deployment error.
    Stage(String),
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::NotVerified(name) => write!(
                f,
                "design {name} fails the static weak-hierarchy criterion; \
                 an unverified deployment cannot be priced or admitted"
            ),
            AdmitError::UnprimedCycle(cycle) => write!(
                f,
                "{cycle}; the tenant could never start, so it is not admitted"
            ),
            AdmitError::Unbounded { signals } => {
                let names: Vec<String> = signals.iter().map(ToString::to_string).collect();
                write!(
                    f,
                    "the clock calculus bounds no finite capacity for [{}]; \
                     the deployment's memory footprint is unknowable",
                    names.join(", ")
                )
            }
            AdmitError::DuplicateId(id) => {
                write!(f, "a deployment with id {id:?} is already being served")
            }
            AdmitError::OverBudget {
                id,
                resource,
                requested,
                in_use,
                limit,
            } => write!(
                f,
                "admitting {id:?} would exceed the {resource} budget: \
                 {requested} requested with {in_use} of {limit} in use"
            ),
            AdmitError::Stage(reason) => {
                write!(f, "the deployment could not be staged: {reason}")
            }
        }
    }
}

impl Error for AdmitError {}

/// A snapshot of what the server's tenants currently hold against the
/// budget, plus the tenant count ([`Server::load`](crate::Server::load)).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerLoad {
    /// Deployments currently in flight.
    pub deployments: usize,
    /// Sum of the in-flight footprints.
    pub in_use: Footprint,
}

impl fmt::Display for ServerLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} deployments in flight ({})",
            self.deployments, self.in_use
        )
    }
}

/// The accounting ledger: one footprint per tenant in flight, keyed by
/// the admission id.  Entries are inserted under the ledger lock at
/// admission and removed when the tenant's handle is finished or
/// dropped, so the budget check always sees the true running total.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    pub(crate) tenants: BTreeMap<String, Footprint>,
}

impl Ledger {
    /// The summed footprint of every tenant in flight.
    pub(crate) fn in_use(&self) -> Footprint {
        let mut total = Footprint {
            components: 0,
            channel_slots: 0,
            reactions_per_input: 0.0,
        };
        for footprint in self.tenants.values() {
            total.components += footprint.components;
            total.channel_slots += footprint.channel_slots;
            total.reactions_per_input += footprint.reactions_per_input;
        }
        total
    }
}
