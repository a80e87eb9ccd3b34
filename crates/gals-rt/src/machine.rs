//! The abstract step machine driven by the deployment engine.
//!
//! The engine is deliberately agnostic of *how* a component executes one
//! synchronous step: anything that can attempt a step, report a blocking
//! read, accept a fed input token and expose its produced output flows can
//! be deployed on the pool.  `codegen::CompiledRuntime` — the slot-indexed
//! execution of a generated step program — is what verified designs
//! deploy; the reference interpreter and the emitted-Rust loader implement
//! this trait too, and a future FFI runner for the emitted C would as well.
//!
//! Ports are dense indices: input port `i` is `input_signals()[i]` and
//! output port `o` is `output_signals()[o]`, so the engine resolves every
//! signal name once, when it wires a machine, and its hot path never
//! keys anything by name.

use std::fmt;

use signal_lang::{Name, Value};

/// Why an attempted step of a machine did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepFault {
    /// The step requires a value on this input port (an index into
    /// [`StepMachine::input_signals`]) before it can complete — the
    /// blocking read of the generated embedded code.  No observable state
    /// changed; the step can be retried after feeding the port.
    NeedInput(usize),
    /// The machine faulted (evaluation error, corrupted state); the worker
    /// stops and reports the message.
    Fault(String),
}

impl fmt::Display for StepFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepFault::NeedInput(port) => write!(f, "step needs a value on input port {port}"),
            StepFault::Fault(m) => write!(f, "machine fault: {m}"),
        }
    }
}

/// One separately compiled component, executable step by step.
///
/// # Contract
///
/// * Ports follow the signal lists: input port `i` is
///   `input_signals()[i]`, output port `o` is `output_signals()[o]`, and
///   both lists are fixed for the machine's lifetime.
/// * [`try_step`](StepMachine::try_step) never blocks: the pool is the
///   only executor, and a step that waited inside would stall its whole
///   island on a worker thread.  Channels belong to the engine, which
///   reads and writes them without blocking; a machine only computes.
/// * [`try_step`](StepMachine::try_step) either completes one synchronous
///   reaction, or returns [`StepFault::NeedInput`] *without changing any
///   observable state* — no input consumed, no output appended, no step
///   counted.  A refused step may keep *private* suspended state (a
///   partial reaction to resume once the input arrives), never observable
///   state.
/// * A refusal is stable: after `NeedInput(port)`, every further
///   `try_step` refuses the same way until a value is fed on `port`.  The
///   engine relies on it and does not retry the step before it has a
///   token for that port.
/// * [`output`](StepMachine::output) returns the complete flow written so
///   far on an output port — the engine tracks a cursor per output and
///   publishes only the suffix produced by the latest step.
/// * [`demand`](StepMachine::demand) is a hint, never a refusal: when it
///   names a port, the next `try_step` (with no feed in between) would
///   refuse with exactly `NeedInput` on that port, so the engine feeds it
///   before the attempt instead of after a refusal.  `None` promises
///   nothing, and a machine that always answers `None` (the default) is
///   driven by its refusals alone.
pub trait StepMachine: Send {
    /// The component name (used in reports and statistics).
    fn machine_name(&self) -> &str;

    /// The input signals of the component, in port order.
    fn input_signals(&self) -> Vec<Name>;

    /// The output signals of the component, in port order.
    fn output_signals(&self) -> Vec<Name>;

    /// Appends one value to the source queue of input port `port`.
    fn feed(&mut self, port: usize, value: Value);

    /// Attempts one synchronous step.
    fn try_step(&mut self) -> Result<(), StepFault>;

    /// The flow produced so far on output port `port`.
    fn output(&self, port: usize) -> &[Value];

    /// The input port whose empty queue the next reaction will wait on
    /// first, when the machine knows it before attempting the step: the
    /// next [`try_step`](StepMachine::try_step) would then refuse with
    /// `NeedInput` on exactly this port and change nothing.  `None` when
    /// the machine cannot tell, or the next reaction waits on nothing yet;
    /// the default answers `None` always.
    fn demand(&self) -> Option<usize> {
        None
    }

    /// Appends one value to the input named `signal` (ignored when the
    /// machine has no such input).  Resolves the name on every call: the
    /// engine feeds by port.
    fn feed_value(&mut self, signal: &str, value: Value) {
        if let Some(port) = self
            .input_signals()
            .iter()
            .position(|n| n.as_str() == signal)
        {
            self.feed(port, value);
        }
    }

    /// The flow produced so far on the output named `signal` (empty when
    /// the machine has no such output).
    fn produced(&self, signal: &str) -> &[Value] {
        match self
            .output_signals()
            .iter()
            .position(|n| n.as_str() == signal)
        {
            Some(port) => self.output(port),
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_render_their_cause() {
        assert_eq!(
            StepFault::NeedInput(1).to_string(),
            "step needs a value on input port 1"
        );
        assert!(StepFault::Fault("division by zero".into())
            .to_string()
            .contains("division"));
    }
}
