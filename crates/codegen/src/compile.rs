//! Slot-indexed compilation and execution of step programs.
//!
//! [`SequentialRuntime`] *interprets* a
//! [`StepProgram`]: every step walks `Name`-keyed maps for presence,
//! values and registers.  This module compiles the same program once into
//! a [`CompiledProgram`] — every `Name` resolved to a dense slot index,
//! every [`ClockCode`] tree flattened into a linear postfix clock program,
//! every kernel equation pre-bound into a slot-addressed opcode — and a
//! [`CompiledRuntime`] executes it over a flat value array and presence
//! bitsets with **zero heap allocation on the hot path** (every scratch
//! buffer is owned by the runtime and reused across steps).
//!
//! The compiled machine is observationally identical to the interpreter:
//! same flows, same step counts, same [`RuntimeError::InputExhausted`]
//! boundaries — property-checked differentially by
//! `tests/compiled_differential.rs` over every process of the paper.

use std::collections::{BTreeMap, VecDeque};

use signal_lang::{Atom, KernelEq, Name, PrimOp, Value};

use crate::ir::{Action, ClockCode, StepProgram};
use crate::runtime::{eval_op, RuntimeError, SequentialRuntime};

/// One operand of a compiled equation: a literal or a value slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    Const(Value),
    Slot(u32),
}

/// One postfix instruction of a flattened clock program.  A [`ClockCode`]
/// tree evaluates by recursion; the flattened form evaluates left to right
/// over a small boolean stack — no pointer chasing, no call frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClockOp {
    /// Push `true` (the root clock).
    True,
    /// Push the presence bit of a slot.
    Present(u32),
    /// Push "present and currently true" of a slot.
    SampleTrue(u32),
    /// Push "present and currently false" of a slot.
    SampleFalse(u32),
    /// Pop two, push their conjunction.
    And,
    /// Pop two, push their disjunction.
    Or,
    /// Pop `b` then `a`, push `a && !b`.
    Diff,
}

/// One slot-addressed opcode of the compiled step function.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    /// Evaluate the clock program `clock_pool[start..end]` and store the
    /// presence bit of `slot`.
    Clock { slot: u32, start: u32, end: u32 },
    /// When present, move the head of input queue `queue` into `slot`.
    Read { slot: u32, queue: u32 },
    /// When present, load delay register `register` into `slot`.
    Delay { slot: u32, register: u32 },
    /// When present, apply `op` to `arg_pool[start..end]` into `slot`.
    Func {
        slot: u32,
        op: PrimOp,
        start: u32,
        end: u32,
    },
    /// When present, copy the operand into `slot` (a `when` body).
    Copy { slot: u32, arg: Operand },
    /// When present, pick `left` if its guard slot is present (constants
    /// always are), else `right` — a `default`.
    Select {
        slot: u32,
        left: Operand,
        left_guard: Option<u32>,
        right: Operand,
    },
    /// When present, append the value of `slot` to output flow `output`.
    Write { slot: u32, output: u32 },
    /// When the source slot is present, latch its value into `register`
    /// at the end of the step.
    Update { register: u32, source: u32 },
}

/// A [`StepProgram`] lowered to slot-indexed form: names interned into
/// dense indices, clock trees flattened, equations pre-bound.  Compile
/// once, execute many — the program is immutable and cheaply cloneable
/// relative to the per-step cost it removes.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    name: String,
    /// Slot index → signal name (diagnostics and interface reporting).
    slot_names: Vec<Name>,
    /// Input queue index → (name, value slot).
    inputs: Vec<(Name, u32)>,
    /// Output flow index → (name, value slot).
    outputs: Vec<(Name, u32)>,
    /// Register index → (name, initial value).
    registers: Vec<(Name, Value)>,
    ops: Vec<Op>,
    clock_pool: Vec<ClockOp>,
    arg_pool: Vec<Operand>,
    /// Deepest clock-stack excursion of any clock program (pre-sized so
    /// evaluation never grows the stack).
    max_clock_depth: usize,
}

impl CompiledProgram {
    /// Lowers a step program: resolves every name to a slot, flattens
    /// every clock tree, pre-binds every equation.
    pub fn compile(program: &StepProgram) -> CompiledProgram {
        let mut interner = Interner::default();
        // Interface and register names first, so their slots are stable
        // and every referenced name is interned even if no action touches
        // it.
        for name in program.inputs.iter().chain(program.outputs.iter()) {
            interner.slot(name);
        }
        let registers: Vec<(Name, Value)> = program.registers.clone();
        let register_index: BTreeMap<&Name, u32> = registers
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n, i as u32))
            .collect();

        let mut ops = Vec::with_capacity(program.actions.len());
        let mut clock_pool = Vec::new();
        let mut arg_pool = Vec::new();
        let mut max_clock_depth = 0usize;
        for action in &program.actions {
            match action {
                Action::ComputeClock { signal, code } => {
                    let slot = interner.slot(signal);
                    let start = clock_pool.len() as u32;
                    flatten_clock(code, &mut interner, &mut clock_pool);
                    let end = clock_pool.len() as u32;
                    max_clock_depth =
                        max_clock_depth.max(stack_depth(&clock_pool[start as usize..end as usize]));
                    ops.push(Op::Clock { slot, start, end });
                }
                Action::ReadInput { signal } => {
                    let slot = interner.slot(signal);
                    let queue = program
                        .inputs
                        .iter()
                        .position(|n| n == signal)
                        .expect("a read action targets a declared input")
                        as u32;
                    ops.push(Op::Read { slot, queue });
                }
                Action::Eval { equation } => {
                    ops.push(compile_equation(
                        equation,
                        &mut interner,
                        &register_index,
                        &mut arg_pool,
                    ));
                }
                Action::WriteOutput { signal } => {
                    let slot = interner.slot(signal);
                    let output = program
                        .outputs
                        .iter()
                        .position(|n| n == signal)
                        .expect("a write action targets a declared output")
                        as u32;
                    ops.push(Op::Write { slot, output });
                }
                Action::UpdateRegister { register, source } => {
                    let source = interner.slot(source);
                    let register = *register_index
                        .get(register)
                        .expect("an update action targets a declared register");
                    ops.push(Op::Update { register, source });
                }
            }
        }

        let inputs = program
            .inputs
            .iter()
            .map(|n| (n.clone(), interner.slot(n)))
            .collect();
        let outputs = program
            .outputs
            .iter()
            .map(|n| (n.clone(), interner.slot(n)))
            .collect();
        CompiledProgram {
            name: program.name.clone(),
            slot_names: interner.names,
            inputs,
            outputs,
            registers,
            ops,
            clock_pool,
            arg_pool,
            max_clock_depth,
        }
    }

    /// The process name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of value slots the program addresses.
    pub fn slot_count(&self) -> usize {
        self.slot_names.len()
    }

    /// The number of opcodes of one step.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

#[derive(Default)]
struct Interner {
    index: BTreeMap<Name, u32>,
    names: Vec<Name>,
}

impl Interner {
    fn slot(&mut self, name: &Name) -> u32 {
        if let Some(&slot) = self.index.get(name) {
            return slot;
        }
        let slot = self.names.len() as u32;
        self.index.insert(name.clone(), slot);
        self.names.push(name.clone());
        slot
    }
}

fn operand(atom: &Atom, interner: &mut Interner) -> Operand {
    match atom {
        Atom::Const(v) => Operand::Const(*v),
        Atom::Var(n) => Operand::Slot(interner.slot(n)),
    }
}

fn compile_equation(
    eq: &KernelEq,
    interner: &mut Interner,
    register_index: &BTreeMap<&Name, u32>,
    arg_pool: &mut Vec<Operand>,
) -> Op {
    let slot = interner.slot(eq.defined());
    match eq {
        KernelEq::Delay { out, .. } => Op::Delay {
            slot,
            register: *register_index
                .get(out)
                .expect("a delay equation defines a declared register"),
        },
        KernelEq::Func { op, args, .. } => {
            let start = arg_pool.len() as u32;
            for a in args {
                let a = operand(a, interner);
                arg_pool.push(a);
            }
            Op::Func {
                slot,
                op: *op,
                start,
                end: arg_pool.len() as u32,
            }
        }
        KernelEq::When { arg, .. } => Op::Copy {
            slot,
            arg: operand(arg, interner),
        },
        KernelEq::Default { left, right, .. } => {
            let left_guard = match left {
                Atom::Const(_) => None,
                Atom::Var(n) => Some(interner.slot(n)),
            };
            Op::Select {
                slot,
                left: operand(left, interner),
                left_guard,
                right: operand(right, interner),
            }
        }
    }
}

/// Flattens a clock tree into postfix order (left, right, operator).
fn flatten_clock(code: &ClockCode, interner: &mut Interner, pool: &mut Vec<ClockOp>) {
    match code {
        ClockCode::Always => pool.push(ClockOp::True),
        ClockCode::SameAs(n) => {
            let slot = interner.slot(n);
            pool.push(ClockOp::Present(slot));
        }
        ClockCode::SampleTrue(n) => {
            let slot = interner.slot(n);
            pool.push(ClockOp::SampleTrue(slot));
        }
        ClockCode::SampleFalse(n) => {
            let slot = interner.slot(n);
            pool.push(ClockOp::SampleFalse(slot));
        }
        ClockCode::And(a, b) => {
            flatten_clock(a, interner, pool);
            flatten_clock(b, interner, pool);
            pool.push(ClockOp::And);
        }
        ClockCode::Or(a, b) => {
            flatten_clock(a, interner, pool);
            flatten_clock(b, interner, pool);
            pool.push(ClockOp::Or);
        }
        ClockCode::Diff(a, b) => {
            flatten_clock(a, interner, pool);
            flatten_clock(b, interner, pool);
            pool.push(ClockOp::Diff);
        }
    }
}

/// Maximum stack excursion of a postfix clock program.
fn stack_depth(ops: &[ClockOp]) -> usize {
    let mut depth = 0usize;
    let mut max = 0usize;
    for op in ops {
        match op {
            ClockOp::True
            | ClockOp::Present(_)
            | ClockOp::SampleTrue(_)
            | ClockOp::SampleFalse(_) => {
                depth += 1;
                max = max.max(depth);
            }
            ClockOp::And | ClockOp::Or | ClockOp::Diff => depth = depth.saturating_sub(1),
        }
    }
    max
}

/// A word-packed bitset over value slots, cleared in O(slots/64) per step.
#[derive(Debug, Clone)]
struct SlotBits {
    words: Vec<u64>,
}

impl SlotBits {
    fn new(slots: usize) -> SlotBits {
        SlotBits {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, slot: u32) -> bool {
        let slot = slot as usize;
        (self.words[slot / 64] >> (slot % 64)) & 1 != 0
    }

    #[inline]
    fn set(&mut self, slot: u32, value: bool) {
        let slot = slot as usize;
        let mask = 1u64 << (slot % 64);
        if value {
            self.words[slot / 64] |= mask;
        } else {
            self.words[slot / 64] &= !mask;
        }
    }

    #[inline]
    fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// Executes a [`CompiledProgram`] over a flat value array, presence and
/// has-value bitsets, and index-addressed registers, queues and flows.
///
/// Semantics are identical to [`SequentialRuntime`]: a step either
/// completes (inputs consumed, registers latched, outputs appended) or
/// fails with [`RuntimeError`] leaving every observable unchanged — the
/// consumed inputs, register latches and output appends are staged in
/// reusable scratch buffers and committed only on success, so the hot
/// path allocates nothing after the first step.
#[derive(Debug, Clone)]
pub struct CompiledRuntime {
    program: CompiledProgram,
    values: Vec<Value>,
    present: SlotBits,
    has_value: SlotBits,
    registers: Vec<Value>,
    queues: Vec<VecDeque<Value>>,
    flows: Vec<Vec<Value>>,
    steps: u64,
    // Reusable per-step scratch (cleared, never shrunk).
    clock_stack: Vec<bool>,
    consumed: Vec<u32>,
    latches: Vec<(u32, Value)>,
    pending_writes: Vec<(u32, Value)>,
    args_buf: Vec<Value>,
}

impl CompiledRuntime {
    /// Creates a runtime with every register at its initial value and
    /// empty input queues.
    pub fn new(program: CompiledProgram) -> CompiledRuntime {
        let slots = program.slot_count();
        let registers = program.registers.iter().map(|(_, v)| *v).collect();
        let queues = program.inputs.iter().map(|_| VecDeque::new()).collect();
        let flows = program.outputs.iter().map(|_| Vec::new()).collect();
        let max_clock_depth = program.max_clock_depth;
        CompiledRuntime {
            program,
            values: vec![Value::Bool(false); slots],
            present: SlotBits::new(slots),
            has_value: SlotBits::new(slots),
            registers,
            queues,
            flows,
            steps: 0,
            clock_stack: Vec::with_capacity(max_clock_depth),
            consumed: Vec::new(),
            latches: Vec::new(),
            pending_writes: Vec::new(),
            args_buf: Vec::new(),
        }
    }

    /// Compiles and instantiates in one call.
    pub fn from_program(program: &StepProgram) -> CompiledRuntime {
        CompiledRuntime::new(CompiledProgram::compile(program))
    }

    /// The compiled program.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Appends values to the source queue of an input signal.
    pub fn feed<I, V>(&mut self, signal: &str, values: I)
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        if let Some(i) = self
            .program
            .inputs
            .iter()
            .position(|(n, _)| n.as_str() == signal)
        {
            self.queues[i].extend(values.into_iter().map(Into::into));
        }
    }

    /// The number of values waiting on an input queue.
    pub fn pending(&self, signal: &str) -> usize {
        self.program
            .inputs
            .iter()
            .position(|(n, _)| n.as_str() == signal)
            .map(|i| self.queues[i].len())
            .unwrap_or(0)
    }

    /// The values written so far on an output signal.
    pub fn output(&self, signal: &str) -> &[Value] {
        self.program
            .outputs
            .iter()
            .position(|(n, _)| n.as_str() == signal)
            .map(|i| self.flows[i].as_slice())
            .unwrap_or_default()
    }

    /// The number of executed steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Executes one step of the compiled program.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InputExhausted`] when a present input has
    /// no value queued; the runtime state is left untouched, exactly like
    /// the interpreter.
    pub fn step(&mut self) -> Result<(), RuntimeError> {
        self.present.clear();
        self.has_value.clear();
        self.consumed.clear();
        self.latches.clear();
        self.pending_writes.clear();
        // Indexed opcode loop: the iterator would borrow `self.program`
        // while the body mutates sibling fields, and splitting the borrow
        // per field costs nothing here.
        for i in 0..self.program.ops.len() {
            match self.program.ops[i] {
                Op::Clock { slot, start, end } => {
                    let p = self.eval_clock(start as usize, end as usize);
                    self.present.set(slot, p);
                }
                Op::Read { slot, queue } => {
                    if self.present.get(slot) {
                        match self.queues[queue as usize].front().copied() {
                            Some(v) => {
                                self.values[slot as usize] = v;
                                self.has_value.set(slot, true);
                                self.consumed.push(queue);
                            }
                            None => {
                                return Err(RuntimeError::InputExhausted(
                                    self.program.slot_names[slot as usize].clone(),
                                ))
                            }
                        }
                    }
                }
                Op::Delay { slot, register } => {
                    if self.present.get(slot) {
                        self.values[slot as usize] = self.registers[register as usize];
                        self.has_value.set(slot, true);
                    }
                }
                Op::Func {
                    slot,
                    op,
                    start,
                    end,
                } => {
                    if self.present.get(slot) {
                        self.args_buf.clear();
                        for a in &self.program.arg_pool[start as usize..end as usize] {
                            match self.value_of(*a) {
                                Some(v) => self.args_buf.push(v),
                                None => return Err(self.missing_operand(slot)),
                            }
                        }
                        let v = eval_op(op, &self.args_buf)?;
                        self.values[slot as usize] = v;
                        self.has_value.set(slot, true);
                    }
                }
                Op::Copy { slot, arg } => {
                    if self.present.get(slot) {
                        match self.value_of(arg) {
                            Some(v) => {
                                self.values[slot as usize] = v;
                                self.has_value.set(slot, true);
                            }
                            None => return Err(self.missing_operand(slot)),
                        }
                    }
                }
                Op::Select {
                    slot,
                    left,
                    left_guard,
                    right,
                } => {
                    if self.present.get(slot) {
                        let left_present = left_guard.map(|g| self.present.get(g)).unwrap_or(true);
                        let chosen = if left_present { left } else { right };
                        match self.value_of(chosen) {
                            Some(v) => {
                                self.values[slot as usize] = v;
                                self.has_value.set(slot, true);
                            }
                            None => return Err(self.missing_operand(slot)),
                        }
                    }
                }
                Op::Write { slot, output } => {
                    if self.present.get(slot) {
                        match self.has_value.get(slot) {
                            true => self
                                .pending_writes
                                .push((output, self.values[slot as usize])),
                            false => return Err(self.missing_operand(slot)),
                        }
                    }
                }
                Op::Update { register, source } => {
                    if self.present.get(source) && self.has_value.get(source) {
                        self.latches.push((register, self.values[source as usize]));
                    }
                }
            }
        }
        // Commit: consume inputs, append outputs and latch registers only
        // on success.
        for &queue in &self.consumed {
            self.queues[queue as usize].pop_front();
        }
        for &(output, v) in &self.pending_writes {
            self.flows[output as usize].push(v);
        }
        for &(register, v) in &self.latches {
            self.registers[register as usize] = v;
        }
        self.steps += 1;
        Ok(())
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

    #[inline]
    fn value_of(&self, operand: Operand) -> Option<Value> {
        match operand {
            Operand::Const(v) => Some(v),
            Operand::Slot(slot) => self.has_value.get(slot).then(|| self.values[slot as usize]),
        }
    }

    fn missing_operand(&self, slot: u32) -> RuntimeError {
        RuntimeError::MissingOperand(self.program.slot_names[slot as usize].clone())
    }

    /// Evaluates one flattened clock program over the reusable stack.
    fn eval_clock(&mut self, start: usize, end: usize) -> bool {
        self.clock_stack.clear();
        for op in &self.program.clock_pool[start..end] {
            match *op {
                ClockOp::True => self.clock_stack.push(true),
                ClockOp::Present(slot) => self.clock_stack.push(self.present.get(slot)),
                ClockOp::SampleTrue(slot) => self.clock_stack.push(
                    self.present.get(slot)
                        && self.has_value.get(slot)
                        && self.values[slot as usize].is_true(),
                ),
                ClockOp::SampleFalse(slot) => self.clock_stack.push(
                    self.present.get(slot)
                        && self.has_value.get(slot)
                        && self.values[slot as usize].is_false(),
                ),
                ClockOp::And => {
                    let b = self.clock_stack.pop().expect("well-formed clock program");
                    let a = self.clock_stack.pop().expect("well-formed clock program");
                    self.clock_stack.push(a && b);
                }
                ClockOp::Or => {
                    let b = self.clock_stack.pop().expect("well-formed clock program");
                    let a = self.clock_stack.pop().expect("well-formed clock program");
                    self.clock_stack.push(a || b);
                }
                ClockOp::Diff => {
                    let b = self.clock_stack.pop().expect("well-formed clock program");
                    let a = self.clock_stack.pop().expect("well-formed clock program");
                    self.clock_stack.push(a && !b);
                }
            }
        }
        self.clock_stack.pop().expect("well-formed clock program")
    }
}

/// Compiled step machines deploy on the GALS runtime exactly like the
/// interpreter does — the engine never sees the difference.
impl gals_rt::StepMachine for CompiledRuntime {
    fn machine_name(&self) -> &str {
        &self.program.name
    }

    fn input_signals(&self) -> Vec<Name> {
        self.program.inputs.iter().map(|(n, _)| n.clone()).collect()
    }

    fn output_signals(&self) -> Vec<Name> {
        self.program
            .outputs
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    }

    fn feed_value(&mut self, signal: &str, value: Value) {
        self.feed(signal, [value]);
    }

    fn try_step(&mut self) -> Result<(), gals_rt::StepFault> {
        match self.step() {
            Ok(()) => Ok(()),
            Err(RuntimeError::InputExhausted(signal)) => Err(gals_rt::StepFault::NeedInput(signal)),
            Err(other) => Err(gals_rt::StepFault::Fault(other.to_string())),
        }
    }

    fn produced(&self, signal: &str) -> &[Value] {
        self.output(signal)
    }
}

/// Instantiates a deployable machine of the requested kind for a step
/// program — the single factory every deployment-assembling consumer
/// (`isochron::Design`, the partition runner, the benches) routes
/// through.
pub fn machine_of(
    kind: gals_rt::MachineKind,
    program: &StepProgram,
) -> Box<dyn gals_rt::StepMachine> {
    match kind {
        gals_rt::MachineKind::Interpreted => Box::new(SequentialRuntime::new(program.clone())),
        gals_rt::MachineKind::Compiled => Box::new(CompiledRuntime::from_program(program)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::generate_from_kernel;
    use signal_lang::stdlib;

    fn compiled_of(def: &signal_lang::ProcessDef) -> CompiledRuntime {
        CompiledRuntime::from_program(&generate_from_kernel(&def.normalize().unwrap()))
    }

    #[test]
    fn compiled_filter_matches_the_interpreter_semantics() {
        let mut rt = compiled_of(&stdlib::filter());
        rt.feed("y", [true, false, false, true, true, false]);
        let steps = rt.run(100);
        assert_eq!(steps, 6);
        assert_eq!(rt.output("x").len(), 3);
        assert!(rt.output("x").iter().all(|v| v.is_true()));
    }

    #[test]
    fn compiled_buffer_alternates_like_the_paper_code() {
        let mut rt = compiled_of(&stdlib::buffer());
        rt.feed("y", [true, false, true]);
        let steps = rt.run(100);
        assert!(steps >= 6, "only {steps} steps completed");
        assert_eq!(
            rt.output("x"),
            &[Value::Bool(true), Value::Bool(false), Value::Bool(true)]
        );
    }

    #[test]
    fn compiled_producer_counts_like_the_paper() {
        let mut rt = compiled_of(&stdlib::producer());
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
        let mut rt = compiled_of(&stdlib::filter());
        rt.feed("y", [true]);
        assert_eq!(rt.run(10), 1);
        let before = rt.steps();
        assert!(matches!(rt.step(), Err(RuntimeError::InputExhausted(_))));
        assert_eq!(rt.steps(), before);
        rt.feed("y", [false]);
        assert_eq!(rt.run(10), 1);
        assert_eq!(rt.output("x").len(), 1);
    }

    #[test]
    fn every_paper_process_agrees_with_the_interpreter() {
        for def in stdlib::all_paper_processes() {
            let program = generate_from_kernel(&def.normalize().unwrap());
            let mut interpreted = SequentialRuntime::new(program.clone());
            let mut compiled = CompiledRuntime::from_program(&program);
            let types = crate::types::signal_types(&program);
            for input in &program.inputs {
                let feed: Vec<Value> = match types.get(input) {
                    Some(crate::types::SigType::Int) => (1..=12).map(Value::Int).collect(),
                    _ => (0..12).map(|i| Value::Bool(i % 3 != 1)).collect(),
                };
                interpreted.feed(input.as_str(), feed.iter().copied());
                compiled.feed(input.as_str(), feed.iter().copied());
            }
            let a = interpreted.run(200);
            let b = compiled.run(200);
            assert_eq!(a, b, "{}: step counts diverge", def.name);
            for output in &program.outputs {
                assert_eq!(
                    interpreted.output(output.as_str()),
                    compiled.output(output.as_str()),
                    "{}: flows diverge on {output}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn compilation_interns_every_interface_signal() {
        let program = generate_from_kernel(&stdlib::producer().normalize().unwrap());
        let compiled = CompiledProgram::compile(&program);
        assert_eq!(compiled.name(), "producer");
        assert!(compiled.slot_count() >= program.inputs.len() + program.outputs.len());
        assert_eq!(compiled.op_count(), program.actions.len());
    }

    #[test]
    fn scratch_buffers_do_not_grow_after_the_first_step() {
        let mut rt = compiled_of(&stdlib::buffer());
        rt.feed("y", [true, false, true, false, true, false, true, false]);
        assert_eq!(rt.run(2), 2);
        let caps = (
            rt.clock_stack.capacity(),
            rt.consumed.capacity(),
            rt.latches.capacity(),
            rt.pending_writes.capacity(),
            rt.args_buf.capacity(),
        );
        assert!(rt.run(100) >= 10);
        assert_eq!(
            caps,
            (
                rt.clock_stack.capacity(),
                rt.consumed.capacity(),
                rt.latches.capacity(),
                rt.pending_writes.capacity(),
                rt.args_buf.capacity(),
            ),
            "per-step scratch reallocated on the hot path"
        );
    }
}
