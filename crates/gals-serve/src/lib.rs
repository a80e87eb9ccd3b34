//! A long-running serving layer hosting many verified GALS deployments
//! on one shared scheduler pool.
//!
//! Everything below this crate runs *one* deployment to completion:
//! `isochron::Design::deploy_derived` assembles a design's components
//! with their derived capacities, and its run wires the channels, runs
//! the workers and returns one [`gals_rt::DeploymentOutcome`].  A
//! serving process inverts that shape — it is the deployments that come
//! and go while the process and its worker threads stay up.  This crate provides that
//! inversion in three pieces:
//!
//! * **One pool, many tenants.**  A [`Server`] owns a single
//!   [`gals_rt::SharedPool`] — a fixed set of worker OS threads with
//!   per-worker priority run-queues and work stealing (see
//!   `gals_rt::sched`'s module docs for the scheduling invariants).
//!   Every admitted deployment's components are dispatched by those same
//!   workers; per-tenant state (flows, stats, traces, completion) stays
//!   fully namespaced, so one tenant's outcome is byte-for-byte the
//!   outcome a dedicated batch run would have produced.
//!
//! * **Admission priced by the verification artifacts.**  The paper's
//!   thesis is that the clock calculus makes deployment safe *by
//!   construction*; serving extends the same artifacts into capacity
//!   planning.  [`Server::admit`] derives a [`Footprint`] for the
//!   candidate design from `Design::capacity_analysis` (how many channel
//!   slots its FIFOs provably need) and `Design::performance_prediction`
//!   (how many reactions it performs per environment token), and refuses
//!   the submission with a typed [`AdmitError`] when the running total
//!   would exceed the server's [`Budget`] — or when the design is not
//!   verified at all, because an unpriceable tenant is an unhostable one,
//!   or has a feedback loop that can never start turning.  A design is
//!   priced once: its artifacts are derived on first use and stored on
//!   the design, so every further tenant of it pays only for
//!   instantiating its machines and wiring its channels.
//!
//! * **Priorities and placement.**  Each tenant runs at the priority it
//!   was admitted with ([`AdmitOptions::base_priority`]); a connected
//!   tenant is one pool island, so the priority orders whole tenants.
//!   The server can pin its workers to CPU cores ([`affinity`]) so the
//!   steady-state cache footprint of a long-running pool stays put.
//!
//! The streaming surface of a tenant ([`DeploymentHandle::feed`],
//! [`DeploymentHandle::poll_outputs`], [`DeploymentHandle::finish`])
//! wraps `gals_rt::SubmittedDeployment`: environment inputs arrive over
//! bounded ingress channels with client-side backpressure, external
//! outputs are polled from egress channels, and draining returns the
//! exact `DeploymentOutcome` shape the batch runner produces — including
//! dynamic isochrony conformance checking against the synchronous
//! references.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod admission;
pub mod affinity;
mod server;

pub use admission::{AdmitError, Budget, Footprint, Resource, ServerLoad};
pub use server::{AdmitOptions, DeploymentHandle, FinishError, Server, ServerOptions};
