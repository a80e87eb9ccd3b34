//! In-process execution of generated step programs.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use signal_lang::{Atom, KernelEq, Name, PrimOp, Value};

use crate::ir::{Action, ClockCode, StepProgram};

/// An error raised while executing a step program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A present input had no value left in its source queue — the
    /// equivalent of the generated C returning `FALSE` from `r_p_x(&x)`.
    InputExhausted(Name),
    /// A present signal had no computable value (an operand was absent).
    MissingOperand(Name),
    /// A value-level evaluation fault.
    Evaluation(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InputExhausted(n) => write!(f, "input stream {n} is exhausted"),
            RuntimeError::MissingOperand(n) => write!(f, "missing operand while computing {n}"),
            RuntimeError::Evaluation(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The values produced by one step: the present signals of the instant.
pub type StepValues = BTreeMap<Name, Value>;

/// A sequential runtime executing a [`StepProgram`], the in-process
/// equivalent of compiling and running the emitted C code.
#[derive(Debug, Clone)]
pub struct SequentialRuntime {
    program: StepProgram,
    registers: BTreeMap<Name, Value>,
    inputs: BTreeMap<Name, VecDeque<Value>>,
    outputs: BTreeMap<Name, Vec<Value>>,
    steps: u64,
}

impl SequentialRuntime {
    /// Creates a runtime with every register at its initial value and empty
    /// input queues.
    pub fn new(program: StepProgram) -> Self {
        let registers = program
            .registers
            .iter()
            .map(|(n, v)| (n.clone(), *v))
            .collect();
        let inputs = program
            .inputs
            .iter()
            .map(|n| (n.clone(), VecDeque::new()))
            .collect();
        let outputs = program
            .outputs
            .iter()
            .map(|n| (n.clone(), Vec::new()))
            .collect();
        SequentialRuntime {
            program,
            registers,
            inputs,
            outputs,
            steps: 0,
        }
    }

    /// The compiled program.
    pub fn program(&self) -> &StepProgram {
        &self.program
    }

    /// Appends values to the source queue of an input signal.
    pub fn feed<I, V>(&mut self, signal: &str, values: I)
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        if let Some(queue) = self.inputs.get_mut(signal) {
            queue.extend(values.into_iter().map(Into::into));
        }
    }

    /// The number of values waiting on an input queue.
    pub fn pending(&self, signal: &str) -> usize {
        self.inputs.get(signal).map(VecDeque::len).unwrap_or(0)
    }

    /// The values written so far on an output signal.
    pub fn output(&self, signal: &str) -> &[Value] {
        self.outputs
            .get(signal)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// The number of executed steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Executes one step of the program.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InputExhausted`] when a present input has no
    /// value available — like the generated simulation code, the caller
    /// should treat this as the end of the run (the registers are left
    /// untouched for that step).
    pub fn step(&mut self) -> Result<StepValues, RuntimeError> {
        let mut presence: BTreeMap<Name, bool> = BTreeMap::new();
        let mut values: BTreeMap<Name, Value> = BTreeMap::new();
        let mut register_updates: Vec<(Name, Value)> = Vec::new();
        let mut pending_writes: Vec<(Name, Value)> = Vec::new();
        let mut consumed: Vec<Name> = Vec::new();

        // The loop only reads the runtime state; every mutation (consumed
        // inputs, output appends, register latches) is staged and committed
        // after the step succeeds, so a failing step observably never ran.
        for action in &self.program.actions {
            match action {
                Action::ComputeClock { signal, code } => {
                    let p = eval_clock(code, &presence, &values);
                    presence.insert(signal.clone(), p);
                }
                Action::ReadInput { signal } => {
                    if presence.get(signal).copied().unwrap_or(false) {
                        let queue = self.inputs.get(signal);
                        match queue.and_then(|q| q.front().copied()) {
                            Some(v) => {
                                values.insert(signal.clone(), v);
                                consumed.push(signal.clone());
                            }
                            None => return Err(RuntimeError::InputExhausted(signal.clone())),
                        }
                    }
                }
                Action::Eval { equation } => {
                    let out = equation.defined();
                    if presence.get(out).copied().unwrap_or(false) {
                        let v = self.eval_equation(equation, &presence, &values)?;
                        values.insert(out.clone(), v);
                    }
                }
                Action::WriteOutput { signal } => {
                    if presence.get(signal).copied().unwrap_or(false) {
                        let v = values
                            .get(signal)
                            .copied()
                            .ok_or_else(|| RuntimeError::MissingOperand(signal.clone()))?;
                        pending_writes.push((signal.clone(), v));
                    }
                }
                Action::UpdateRegister { register, source } => {
                    if presence.get(source).copied().unwrap_or(false) {
                        if let Some(v) = values.get(source) {
                            register_updates.push((register.clone(), *v));
                        }
                    }
                }
            }
        }
        // Commit: consume inputs, append outputs and update registers only
        // on success.
        for signal in consumed {
            if let Some(q) = self.inputs.get_mut(&signal) {
                q.pop_front();
            }
        }
        for (signal, v) in pending_writes {
            self.outputs.entry(signal).or_default().push(v);
        }
        for (r, v) in register_updates {
            self.registers.insert(r, v);
        }
        self.steps += 1;
        let result = values
            .into_iter()
            .filter(|(n, _)| presence.get(n).copied().unwrap_or(false))
            .collect();
        Ok(result)
    }

    /// Runs steps until an input is exhausted or `max_steps` is reached;
    /// returns the number of completed steps.
    pub fn run(&mut self, max_steps: usize) -> usize {
        let mut done = 0;
        for _ in 0..max_steps {
            if self.step().is_err() {
                break;
            }
            done += 1;
        }
        done
    }

    fn eval_equation(
        &self,
        eq: &KernelEq,
        presence: &BTreeMap<Name, bool>,
        values: &BTreeMap<Name, Value>,
    ) -> Result<Value, RuntimeError> {
        let atom = |a: &Atom| -> Option<Value> {
            match a {
                Atom::Const(v) => Some(*v),
                Atom::Var(n) => values.get(n).copied(),
            }
        };
        match eq {
            KernelEq::Delay { out, .. } => Ok(self.registers[out]),
            KernelEq::Func { out, op, args } => {
                let args: Option<Vec<Value>> = args.iter().map(atom).collect();
                let args = args.ok_or_else(|| RuntimeError::MissingOperand(out.clone()))?;
                eval_op(*op, &args)
            }
            KernelEq::When { out, arg, .. } => {
                atom(arg).ok_or_else(|| RuntimeError::MissingOperand(out.clone()))
            }
            KernelEq::Default { out, left, right } => {
                let left_present = match left {
                    Atom::Const(_) => true,
                    Atom::Var(n) => presence.get(n).copied().unwrap_or(false),
                };
                let chosen = if left_present { left } else { right };
                atom(chosen).ok_or_else(|| RuntimeError::MissingOperand(out.clone()))
            }
        }
    }
}

/// Generated step programs deploy directly on the multi-threaded GALS
/// runtime: a blocked step maps [`RuntimeError::InputExhausted`] to the
/// engine's blocking read, and the output vectors are the produced flows.
impl gals_rt::StepMachine for SequentialRuntime {
    fn machine_name(&self) -> &str {
        &self.program.name
    }

    fn input_signals(&self) -> Vec<Name> {
        self.program.inputs.clone()
    }

    fn output_signals(&self) -> Vec<Name> {
        self.program.outputs.clone()
    }

    fn feed(&mut self, port: usize, value: Value) {
        if let Some(queue) = self
            .program
            .inputs
            .get(port)
            .and_then(|signal| self.inputs.get_mut(signal))
        {
            queue.push_back(value);
        }
    }

    fn try_step(&mut self) -> Result<(), gals_rt::StepFault> {
        match self.step() {
            Ok(_) => Ok(()),
            Err(RuntimeError::InputExhausted(signal)) => Err(gals_rt::StepFault::NeedInput(
                self.program
                    .inputs
                    .iter()
                    .position(|input| *input == signal)
                    .expect("an exhausted input is a declared input"),
            )),
            Err(other) => Err(gals_rt::StepFault::Fault(other.to_string())),
        }
    }

    fn output(&self, port: usize) -> &[Value] {
        self.program
            .outputs
            .get(port)
            .map_or(&[], |signal| self.output(signal.as_str()))
    }
}

fn eval_clock(
    code: &ClockCode,
    presence: &BTreeMap<Name, bool>,
    values: &BTreeMap<Name, Value>,
) -> bool {
    match code {
        ClockCode::Always => true,
        ClockCode::SameAs(n) => presence.get(n).copied().unwrap_or(false),
        ClockCode::SampleTrue(n) => {
            presence.get(n).copied().unwrap_or(false)
                && values.get(n).map(|v| v.is_true()).unwrap_or(false)
        }
        ClockCode::SampleFalse(n) => {
            presence.get(n).copied().unwrap_or(false)
                && values.get(n).map(|v| v.is_false()).unwrap_or(false)
        }
        ClockCode::And(a, b) => eval_clock(a, presence, values) && eval_clock(b, presence, values),
        ClockCode::Or(a, b) => eval_clock(a, presence, values) || eval_clock(b, presence, values),
        ClockCode::Diff(a, b) => {
            eval_clock(a, presence, values) && !eval_clock(b, presence, values)
        }
    }
}

pub(crate) fn eval_op(op: PrimOp, args: &[Value]) -> Result<Value, RuntimeError> {
    let int = |v: &Value| {
        v.as_int()
            .ok_or_else(|| RuntimeError::Evaluation(format!("expected integer, found {v}")))
    };
    let boolean = |v: &Value| {
        v.as_bool()
            .ok_or_else(|| RuntimeError::Evaluation(format!("expected boolean, found {v}")))
    };
    let v = match (op, args) {
        (PrimOp::Id, [a]) => *a,
        (PrimOp::Not, [a]) => Value::Bool(!boolean(a)?),
        (PrimOp::Neg, [a]) => Value::Int(-int(a)?),
        (PrimOp::And, [a, b]) => Value::Bool(boolean(a)? && boolean(b)?),
        (PrimOp::Or, [a, b]) => Value::Bool(boolean(a)? || boolean(b)?),
        (PrimOp::Xor, [a, b]) => Value::Bool(boolean(a)? ^ boolean(b)?),
        (PrimOp::Add, [a, b]) => Value::Int(int(a)?.wrapping_add(int(b)?)),
        (PrimOp::Sub, [a, b]) => Value::Int(int(a)?.wrapping_sub(int(b)?)),
        (PrimOp::Mul, [a, b]) => Value::Int(int(a)?.wrapping_mul(int(b)?)),
        (PrimOp::Div, [a, b]) => {
            let d = int(b)?;
            if d == 0 {
                return Err(RuntimeError::Evaluation("division by zero".into()));
            }
            Value::Int(int(a)? / d)
        }
        (PrimOp::Eq, [a, b]) => Value::Bool(a == b),
        (PrimOp::Ne, [a, b]) => Value::Bool(a != b),
        (PrimOp::Lt, [a, b]) => Value::Bool(int(a)? < int(b)?),
        (PrimOp::Le, [a, b]) => Value::Bool(int(a)? <= int(b)?),
        (PrimOp::Gt, [a, b]) => Value::Bool(int(a)? > int(b)?),
        (PrimOp::Ge, [a, b]) => Value::Bool(int(a)? >= int(b)?),
        _ => {
            return Err(RuntimeError::Evaluation(format!(
                "operator {op} applied to {} operands",
                args.len()
            )))
        }
    };
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::generate_from_kernel;
    use signal_lang::stdlib;

    fn runtime_of(def: &signal_lang::ProcessDef) -> SequentialRuntime {
        SequentialRuntime::new(generate_from_kernel(&def.normalize().unwrap()))
    }

    #[test]
    fn generated_filter_matches_the_interpreter_semantics() {
        let mut rt = runtime_of(&stdlib::filter());
        rt.feed("y", [true, false, false, true, true, false]);
        let steps = rt.run(100);
        assert_eq!(steps, 6);
        // Changes at positions 2, 4, 6.
        assert_eq!(rt.output("x").len(), 3);
        assert!(rt.output("x").iter().all(|v| v.is_true()));
    }

    #[test]
    fn generated_buffer_alternates_like_the_paper_code() {
        let mut rt = runtime_of(&stdlib::buffer());
        rt.feed("y", [true, false, true]);
        // Each value needs a read activation and a write activation.
        let steps = rt.run(100);
        assert!(steps >= 6, "only {steps} steps completed");
        assert_eq!(
            rt.output("x"),
            &[Value::Bool(true), Value::Bool(false), Value::Bool(true)]
        );
    }

    #[test]
    fn generated_producer_counts_like_the_paper() {
        let mut rt = runtime_of(&stdlib::producer());
        rt.feed("a", [true, true, false, true, false]);
        rt.run(100);
        assert_eq!(
            rt.output("u"),
            &[Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        assert_eq!(rt.output("x"), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn exhausted_inputs_stop_the_run_without_corrupting_state() {
        let mut rt = runtime_of(&stdlib::filter());
        rt.feed("y", [true]);
        assert_eq!(rt.run(10), 1);
        let before = rt.steps();
        assert!(matches!(rt.step(), Err(RuntimeError::InputExhausted(_))));
        assert_eq!(rt.steps(), before);
        // Feeding more input resumes the run.
        rt.feed("y", [false]);
        assert_eq!(rt.run(10), 1);
        assert_eq!(rt.output("x").len(), 1);
    }

    #[test]
    fn outputs_and_pending_are_observable() {
        let mut rt = runtime_of(&stdlib::producer());
        rt.feed("a", [true, false]);
        assert_eq!(rt.pending("a"), 2);
        rt.run(10);
        assert_eq!(rt.pending("a"), 0);
        assert_eq!(rt.output("u").len(), 1);
        assert_eq!(rt.output("x").len(), 1);
    }
}
