//! The paper's primary contribution: compositional design of isochronous
//! systems by the *weak hierarchy* criterion.
//!
//! A process is **weakly hierarchic** (Definition 12) when it is the
//! composition of compilable, hierarchic — hence endochronous — components
//! and every intermediate composition is well-clocked and acyclic.
//! Theorem 1 then gives, *statically*:
//!
//! 1. a weakly hierarchic process is weakly endochronous;
//! 2. the composition of weakly hierarchic processes that is well-clocked
//!    and acyclic makes its components **isochronous** — the asynchronous
//!    execution of the separately compiled components produces the same
//!    flows as their synchronous composition.
//!
//! This crate exposes the criterion as a design API ([`Design`],
//! [`Component`]), the per-component artefacts (clock analysis, generated
//! step program, emitted C), dynamic cross-checks of isochrony on concrete
//! executions ([`isochrony`]) and the case studies of the paper
//! ([`library`]).
//!
//! # Example
//!
//! ```
//! use isochron::Design;
//! use signal_lang::stdlib;
//!
//! // The producer and the consumer are endochronous; their composition is
//! // not, but it satisfies the static weak-hierarchy criterion, so the pair
//! // is isochronous and can be compiled separately.
//! let design = Design::compose(
//!     "main",
//!     [stdlib::producer(), stdlib::consumer()],
//! )?;
//! let verdict = design.verdict();
//! assert!(verdict.components_endochronous);
//! assert!(verdict.weakly_hierarchic);
//! assert!(verdict.isochronous);
//! assert!(!verdict.endochronous);
//! # Ok::<(), isochron::DesignError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod isochrony;
pub mod library;
pub mod verdict;

pub use design::{Component, Design, DesignError};
pub use verdict::Verdict;
