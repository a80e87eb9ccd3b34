//! The abstract step machine driven by the deployment engine.
//!
//! The engine is deliberately agnostic of *how* a component executes one
//! synchronous step: anything that can attempt a step, report a blocking
//! read, accept a fed input token and expose its produced output flows can
//! be deployed on a thread.  `codegen::CompiledRuntime` — the slot-indexed
//! execution of a generated step program — is what verified designs
//! deploy; the reference interpreter and the emitted-Rust loader implement
//! this trait too, and a future FFI runner for the emitted C would as well.

use std::fmt;

use signal_lang::{Name, Value};

/// Why an attempted step of a machine did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepFault {
    /// The step requires a value on this input signal before it can
    /// complete — the blocking read of the generated embedded code.  The
    /// machine state is unchanged; the step can be retried after feeding
    /// the signal.
    NeedInput(Name),
    /// The machine faulted (evaluation error, corrupted state); the worker
    /// stops and reports the message.
    Fault(String),
}

impl fmt::Display for StepFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepFault::NeedInput(n) => write!(f, "step needs a value on input {n}"),
            StepFault::Fault(m) => write!(f, "machine fault: {m}"),
        }
    }
}

/// One separately compiled component, executable step by step.
///
/// # Contract
///
/// * [`try_step`](StepMachine::try_step) either completes one synchronous
///   reaction, or returns [`StepFault::NeedInput`] *without changing any
///   observable state* so the worker can feed the missing token and retry;
/// * [`produced`](StepMachine::produced) returns the complete flow written
///   so far on an output signal — the engine tracks a cursor per output and
///   publishes only the suffix produced by the latest step.
pub trait StepMachine: Send {
    /// The component name (used in reports and statistics).
    fn machine_name(&self) -> &str;

    /// The input signals of the component.
    fn input_signals(&self) -> Vec<Name>;

    /// The output signals of the component.
    fn output_signals(&self) -> Vec<Name>;

    /// Appends one value to the source queue of an input signal.
    fn feed_value(&mut self, signal: &str, value: Value);

    /// Attempts one synchronous step.
    fn try_step(&mut self) -> Result<(), StepFault>;

    /// The flow produced so far on an output signal.
    fn produced(&self, signal: &str) -> &[Value];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_render_their_cause() {
        assert_eq!(
            StepFault::NeedInput(Name::from("x")).to_string(),
            "step needs a value on input x"
        );
        assert!(StepFault::Fault("division by zero".into())
            .to_string()
            .contains("division"));
    }
}
