//! Compositional code generation for Signal processes.
//!
//! This crate reproduces Sections 3.6 and 5 of the paper:
//!
//! * [`ir`] — a step-function intermediate representation: one *step* of a
//!   compiled process computes the clocks of the instant from the hierarchy,
//!   reads the inputs that are present, evaluates the equations in
//!   scheduling order, writes the outputs and updates the delay registers;
//! * [`seq`] — sequential code generation from the clock hierarchy and the
//!   reinforced scheduling graph (the `buffer_iterate` scheme of §3.6);
//! * [`emit`] — emission of the step function as C-like source text,
//!   mirroring the listings of the paper;
//! * [`runtime`] — an in-process interpreter executing step programs
//!   against FIFO input sources, kept as the readable reference
//!   semantics;
//! * [`compile`] — the slot-indexed compiled form: names interned into
//!   dense indices, clocks lowered to flag operations (or specialized away
//!   per valuation of the registers that decide them), equations
//!   pre-bound into opcodes, executed with zero per-step allocation and
//!   reactions that suspend at an empty read and resume there — what
//!   every deployment of a verified design runs;
//! * [`types`] — static value-type inference over a step program, shared
//!   by the source emitters;
//! * [`emit_rust`](mod@emit_rust) — emission of the step function as a self-contained
//!   Rust module, and [`emitted`] — a loader that compiles it with
//!   `rustc` and drives the resulting process behind
//!   [`gals_rt::StepMachine`];
//! * [`controller`] — the controller synthesis of §5.2: two endochronous
//!   components whose composition carries a clock constraint on a shared
//!   signal are scheduled by a synthesized controller implementing the
//!   rendez-vous, without adding master clocks to the interface;
//! * [`concurrent`] — the concurrent scheme of §5: one thread per
//!   component, the rendez-vous implemented with barriers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod concurrent;
pub mod controller;
pub mod emit;
pub mod emit_rust;
pub mod emitted;
pub mod ir;
pub mod runtime;
pub mod seq;
pub mod types;

pub use compile::{CompiledProgram, CompiledRuntime};
pub use controller::{ControlledPair, Controller};
pub use emit_rust::{emit_rust, emit_rust_harness};
pub use emitted::EmittedMachine;
pub use ir::{Action, ClockCode, StepProgram};
pub use runtime::{RuntimeError, SequentialRuntime};
pub use seq::generate;
pub use types::{signal_types, SigType};
