//! Slot-indexed compilation and execution of step programs.
//!
//! [`SequentialRuntime`](crate::SequentialRuntime) *interprets* a
//! [`StepProgram`]: every step walks `Name`-keyed maps for presence,
//! values and registers.  This module compiles the same program once into
//! a [`CompiledProgram`] — every `Name` resolved to a dense slot index,
//! every kernel equation pre-bound into a slot-addressed opcode, the
//! common clocks (`true`, an alias, a sampling) as single bit operations
//! and only the rest flattened into linear postfix clock programs — and a
//! [`CompiledRuntime`] executes it over a flat value array and per-slot
//! flags with **zero heap allocation on the hot path** (every scratch
//! buffer is owned by the runtime and reused across steps).
//!
//! When a few boolean registers decide every clock — the buffer's `s`
//! reads when true and writes when false — compilation also specializes
//! the program per valuation of those registers (a *mode*, at most
//! `2^MAX_MODE_REGISTERS` of them): the clocks are decided, so their ops
//! and the ops of absent signals go, values known in the mode fold into
//! constants, and the rest runs on values alone, without presence flags.
//! A reaction picks its mode from the registers, or runs the general ops
//! when a mode register holds a non-boolean.
//!
//! A read that finds its queue empty *suspends* the reaction instead of
//! discarding it: the runtime keeps the partial reaction in its scratch,
//! and the next attempt resumes at that read, so no op of a reaction runs
//! twice however many times it waits.  Until the reaction commits,
//! nothing observable has changed.
//!
//! The compiled machine is observationally identical to the interpreter:
//! same flows, same step counts, same [`RuntimeError::InputExhausted`]
//! boundaries — property-checked differentially by
//! `tests/compiled_differential.rs` (every feed preloaded) and
//! `tests/compiled_resume.rs` (one token per suspension) over every
//! process of the paper.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use signal_lang::{Atom, KernelEq, Name, PrimOp, Value};

use crate::ir::{Action, ClockCode, StepProgram};
use crate::runtime::{eval_op, RuntimeError};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Store the presence bit of `slot` from a one-leaf clock (`true`, an
    /// alias, a sampling), without the clock stack.
    Leaf { slot: u32, leaf: ClockOp },
    /// Evaluate the clock program `clock_pool[start..end]` and store the
    /// presence bit of `slot`.
    Clock { slot: u32, start: u32, end: u32 },
    /// When present, take the head of input queue `queue` into `slot`.
    Read { slot: u32, queue: u32 },
    /// When present, load delay register `register` into `slot`.
    Delay { slot: u32, register: u32 },
    /// When present, apply a one-operand `op` into `slot`.
    Unary { slot: u32, op: PrimOp, arg: Operand },
    /// When present, apply a two-operand `op` into `slot`.
    Binary {
        slot: u32,
        op: PrimOp,
        left: Operand,
        right: Operand,
    },
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
    /// Fault: an operand of the equation defining `slot` has no value
    /// (only in a [`Mode`], where that is known statically).
    Missing { slot: u32 },
}

/// A [`StepProgram`] lowered to slot-indexed form: names interned into
/// dense indices, clocks lowered, equations pre-bound.  Compile once,
/// execute many — the program is immutable, and every runtime
/// instantiated from an `Arc` of it shares it.
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
    /// The registers whose boolean values decide every clock of a
    /// reaction, when a few do (see [`Mode`]).
    mode_registers: Vec<u32>,
    /// One straight-line program per valuation of `mode_registers`,
    /// indexed by the valuation's bits (register `i` true sets bit `i`);
    /// empty when some clock depends on an input.
    modes: Vec<Mode>,
}

/// The most registers a mode valuation ranges over: at most
/// `2^MAX_MODE_REGISTERS` straight-line programs per compiled program.
const MAX_MODE_REGISTERS: usize = 3;

/// The step program specialized to one valuation of the mode registers:
/// every clock is decided, so the clock ops are gone and so is every op of
/// an absent signal, and which slot holds a value at each op is known, so
/// the ops run without presence flags ([`State::exec_static`]).
#[derive(Debug, Clone)]
struct Mode {
    /// The ops of present signals, in the program's order, with every
    /// `default` decided, every value known in the mode folded into a
    /// constant copy, and every copy or load nothing reads dropped.
    ops: Vec<Op>,
    /// From this op on nothing can stall or fault but a read at exactly
    /// this index, so reads, writes and latches there take effect at once
    /// instead of being staged for the commit.
    direct_from: usize,
    /// The input queue of the first op that can stop the reaction, when
    /// that op is a read: with the queue empty, the reaction is certain to
    /// suspend there before anything else happens.
    demand: Option<u32>,
}

impl Mode {
    fn new(ops: Vec<Op>, arg_pool: &[Operand]) -> Mode {
        // Drop the copies and loads whose value no later op reads: with
        // every clock decided, only ops read values.
        let mut live: Vec<u32> = Vec::new();
        let mut kept: Vec<Op> = Vec::with_capacity(ops.len());
        for op in ops.into_iter().rev() {
            if let Op::Copy { slot, .. } | Op::Delay { slot, .. } = op {
                if !live.contains(&slot) {
                    continue;
                }
            }
            match op {
                Op::Write { slot, .. } => live.push(slot),
                Op::Update { source, .. } => live.push(source),
                _ => each_operand(&op, arg_pool, |a| live.extend(operand_slot(a))),
            }
            kept.push(op);
        }
        kept.reverse();
        let ops = kept;
        // Effects take place directly from the last op that can stall or
        // fault (a read: once it succeeds) only when no op of that tail
        // loads a register (it could see a latch early) and no input,
        // output or register is touched twice (a direct effect would then
        // land before a staged one of an earlier op; the interpreter reads
        // one head twice).
        let direct_from = match ops.iter().rposition(can_stop) {
            Some(at) if matches!(ops[at], Op::Read { .. }) => at,
            Some(at) => at + 1,
            None => 0,
        };
        let loads_in_tail = ops[direct_from..]
            .iter()
            .any(|op| matches!(op, Op::Delay { .. }));
        let touched: Vec<(u8, u32)> = ops
            .iter()
            .filter_map(|op| match *op {
                Op::Read { queue, .. } => Some((0, queue)),
                Op::Write { output, .. } => Some((1, output)),
                Op::Update { register, .. } => Some((2, register)),
                _ => None,
            })
            .collect();
        let twice = (1..touched.len()).any(|i| touched[..i].contains(&touched[i]));
        let direct_from = if loads_in_tail || twice {
            ops.len()
        } else {
            direct_from
        };
        let demand = match ops.iter().find(|op| can_stop(op)) {
            Some(&Op::Read { queue, .. }) => Some(queue),
            _ => None,
        };
        Mode {
            ops,
            direct_from,
            demand,
        }
    }
}

/// Whether a mode's op can stop its reaction: a read can stall on an
/// empty queue, a function can fault.
fn can_stop(op: &Op) -> bool {
    matches!(
        op,
        Op::Read { .. }
            | Op::Unary { .. }
            | Op::Binary { .. }
            | Op::Func { .. }
            | Op::Missing { .. }
    )
}

/// The slot an operand reads, if any.
fn operand_slot(operand: Operand) -> Option<u32> {
    match operand {
        Operand::Slot(slot) => Some(slot),
        Operand::Const(_) => None,
    }
}

impl CompiledProgram {
    /// Lowers a step program: resolves every name to a slot, lowers every
    /// clock, pre-binds every equation.
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
                    let start = clock_pool.len();
                    flatten_clock(code, &mut interner, &mut clock_pool);
                    let op = match clock_pool[start..] {
                        [leaf] => {
                            clock_pool.truncate(start);
                            Op::Leaf { slot, leaf }
                        }
                        _ => {
                            max_clock_depth =
                                max_clock_depth.max(stack_depth(&clock_pool[start..]));
                            Op::Clock {
                                slot,
                                start: start as u32,
                                end: clock_pool.len() as u32,
                            }
                        }
                    };
                    ops.push(op);
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
        let slots = interner.names.len();
        let (mode_registers, modes) =
            specialize(&ops, &clock_pool, &arg_pool, &registers, slots).unwrap_or_default();
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
            mode_registers,
            modes,
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
        KernelEq::Func { op, args, .. } => match args.as_slice() {
            [arg] => Op::Unary {
                slot,
                op: *op,
                arg: operand(arg, interner),
            },
            [left, right] => Op::Binary {
                slot,
                op: *op,
                left: operand(left, interner),
                right: operand(right, interner),
            },
            _ => {
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
        },
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

/// The slot a clock leaf tests, if any.
fn leaf_slot(leaf: ClockOp) -> Option<u32> {
    match leaf {
        ClockOp::Present(s) | ClockOp::SampleTrue(s) | ClockOp::SampleFalse(s) => Some(s),
        _ => None,
    }
}

/// Evaluates a postfix clock program over `stack`, taking each leaf's bit
/// from `leaf`; `None` when a leaf has none, or the program is malformed.
fn eval_postfix(
    code: &[ClockOp],
    stack: &mut Vec<bool>,
    leaf: impl Fn(ClockOp) -> Option<bool>,
) -> Option<bool> {
    stack.clear();
    for &op in code {
        let bit = match op {
            ClockOp::And | ClockOp::Or | ClockOp::Diff => {
                let b = stack.pop()?;
                let a = stack.pop()?;
                match op {
                    ClockOp::And => a && b,
                    ClockOp::Or => a || b,
                    _ => a && !b,
                }
            }
            _ => leaf(op)?,
        };
        stack.push(bit);
    }
    stack.pop()
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

/// What compilation knows about a slot's value at one point of a
/// reaction in one mode.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Known {
    /// No value yet this instant.
    Absent,
    /// A value only the run knows (an input, a data register).
    Dynamic,
    /// This value.
    Is(Value),
}

/// Visits the slots an op reads the presence of.
fn presence_reads(op: &Op, clock_pool: &[ClockOp], mut visit: impl FnMut(u32)) {
    match *op {
        Op::Leaf { leaf, .. } => leaf_slot(leaf).into_iter().for_each(visit),
        Op::Clock { start, end, .. } => clock_pool[start as usize..end as usize]
            .iter()
            .filter_map(|&leaf| leaf_slot(leaf))
            .for_each(visit),
        Op::Update { source, .. } => visit(source),
        Op::Select {
            slot, left_guard, ..
        } => {
            visit(slot);
            left_guard.into_iter().for_each(visit);
        }
        _ => own_slot(op).into_iter().for_each(visit),
    }
}

/// The slot an equation, read or write op is about.
fn own_slot(op: &Op) -> Option<u32> {
    match *op {
        Op::Read { slot, .. }
        | Op::Delay { slot, .. }
        | Op::Unary { slot, .. }
        | Op::Binary { slot, .. }
        | Op::Func { slot, .. }
        | Op::Copy { slot, .. }
        | Op::Select { slot, .. }
        | Op::Write { slot, .. }
        | Op::Missing { slot } => Some(slot),
        Op::Leaf { .. } | Op::Clock { .. } | Op::Update { .. } => None,
    }
}

/// The slot a clock op decides, if `op` is one.
fn clocked_slot(op: &Op) -> Option<u32> {
    match *op {
        Op::Leaf { slot, .. } | Op::Clock { slot, .. } => Some(slot),
        _ => None,
    }
}

/// Visits the operands an equation op computes its slot from (both sides
/// of a `default`).
fn each_operand(op: &Op, arg_pool: &[Operand], mut visit: impl FnMut(Operand)) {
    match *op {
        Op::Unary { arg, .. } | Op::Copy { arg, .. } => visit(arg),
        Op::Binary { left, right, .. } | Op::Select { left, right, .. } => {
            visit(left);
            visit(right);
        }
        Op::Func { start, end, .. } => arg_pool[start as usize..end as usize]
            .iter()
            .copied()
            .for_each(visit),
        _ => {}
    }
}

/// Specializes a program to the valuations of the few boolean registers
/// that decide all of its clocks (the buffer's `s`: read when true, write
/// when false), or `None` when no such set within [`MAX_MODE_REGISTERS`]
/// exists.  Each mode keeps the program's ops in order, minus the clock
/// ops and the ops of absent signals, so a reaction runs the same ops it
/// would otherwise, minus the ones that could only find their signal
/// absent or recompute a value the mode fixes.
///
/// Requires the shape the code generator emits: one clock op per slot,
/// ahead of every op that reads the slot's presence.
fn specialize(
    ops: &[Op],
    clock_pool: &[ClockOp],
    arg_pool: &[Operand],
    registers: &[(Name, Value)],
    slots: usize,
) -> Option<(Vec<u32>, Vec<Mode>)> {
    let mut clocked = vec![false; slots];
    for op in ops {
        let mut ahead = true;
        presence_reads(op, clock_pool, |s| ahead &= clocked[s as usize]);
        if !ahead {
            return None;
        }
        if let Some(slot) = clocked_slot(op) {
            if std::mem::replace(&mut clocked[slot as usize], true) {
                return None;
            }
        }
    }

    // The registers every sampled value derives from; a sampled value
    // that derives from an input is decided only at run time.
    let mut pending: Vec<u32> = Vec::new();
    for op in ops {
        let leaves = match *op {
            Op::Leaf { ref leaf, .. } => std::slice::from_ref(leaf),
            Op::Clock { start, end, .. } => &clock_pool[start as usize..end as usize],
            _ => &[],
        };
        for leaf in leaves {
            if let ClockOp::SampleTrue(s) | ClockOp::SampleFalse(s) = *leaf {
                pending.push(s);
            }
        }
    }
    let mut seen = vec![false; slots];
    let mut mode_registers = Vec::new();
    while let Some(slot) = pending.pop() {
        if std::mem::replace(&mut seen[slot as usize], true) {
            continue;
        }
        for op in ops.iter().filter(|op| own_slot(op) == Some(slot)) {
            match *op {
                Op::Read { .. } => return None,
                Op::Delay { register, .. } if !mode_registers.contains(&register) => {
                    mode_registers.push(register);
                }
                _ => each_operand(op, arg_pool, |a| pending.extend(operand_slot(a))),
            }
        }
    }
    if mode_registers.len() > MAX_MODE_REGISTERS
        || mode_registers
            .iter()
            .any(|&r| registers[r as usize].1.as_bool().is_none())
    {
        return None;
    }
    mode_registers.sort_unstable();

    let modes = (0..1usize << mode_registers.len())
        .map(|valuation| {
            let register_value = |register: u32| -> Known {
                match mode_registers.iter().position(|&r| r == register) {
                    Some(i) => Known::Is(Value::Bool(valuation >> i & 1 == 1)),
                    None => Known::Dynamic,
                }
            };
            specialize_mode(ops, clock_pool, arg_pool, slots, register_value)
        })
        .collect::<Option<Vec<Mode>>>()?;
    Some((mode_registers, modes))
}

/// Decides every clock of `ops` for one valuation of the mode registers
/// and lowers the ops of the present signals to their static form (see
/// [`State::exec_static`]); `None` when some clock stays undecided.
fn specialize_mode(
    ops: &[Op],
    clock_pool: &[ClockOp],
    arg_pool: &[Operand],
    slots: usize,
    register_value: impl Fn(u32) -> Known,
) -> Option<Mode> {
    let mut present = vec![false; slots];
    let mut known = vec![Known::Absent; slots];
    let mut lowered = Vec::new();
    // A leaf's bit in this mode, `None` while it depends on a run-time
    // value.
    let decide = |present: &[bool], known: &[Known], leaf: ClockOp| -> Option<bool> {
        let sampled = |slot: u32, want: bool| {
            if !present[slot as usize] {
                return Some(false);
            }
            match known[slot as usize] {
                Known::Absent => Some(false),
                Known::Is(v) => Some(v == Value::Bool(want)),
                Known::Dynamic => None,
            }
        };
        match leaf {
            ClockOp::True => Some(true),
            ClockOp::Present(s) => Some(present[s as usize]),
            ClockOp::SampleTrue(s) => sampled(s, true),
            ClockOp::SampleFalse(s) => sampled(s, false),
            ClockOp::And | ClockOp::Or | ClockOp::Diff => None,
        }
    };
    let mut stack = Vec::new();
    let (mut args, mut folded): (Vec<Known>, Vec<Value>) = (Vec::new(), Vec::new());
    let operand = |known: &[Known], o: Operand| match o {
        Operand::Const(v) => Known::Is(v),
        Operand::Slot(s) => known[s as usize],
    };
    for op in ops {
        let decided = match *op {
            Op::Leaf { leaf, .. } => Some(decide(&present, &known, leaf)?),
            Op::Clock { start, end, .. } => Some(eval_postfix(
                &clock_pool[start as usize..end as usize],
                &mut stack,
                |leaf| decide(&present, &known, leaf),
            )?),
            _ => None,
        };
        if let (Some(slot), Some(p)) = (clocked_slot(op), decided) {
            present[slot as usize] = p;
            continue;
        }
        if let Op::Update { source, .. } = *op {
            // Latches exactly when its source has a value by now.
            if present[source as usize] && known[source as usize] != Known::Absent {
                lowered.push(*op);
            }
            continue;
        }
        let Some(slot) = own_slot(op) else { continue };
        if !present[slot as usize] {
            continue;
        }
        // A decided `default` is a copy of its chosen side.
        let op = match *op {
            Op::Select {
                slot,
                left,
                left_guard,
                right,
            } => Op::Copy {
                slot,
                arg: if left_guard.is_none_or(|g| present[g as usize]) {
                    left
                } else {
                    right
                },
            },
            other => other,
        };
        // The operands this op reads, each known to hold a value or not.
        args.clear();
        match op {
            Op::Write { slot, .. } => args.push(known[slot as usize]),
            _ => each_operand(&op, arg_pool, |a| args.push(operand(&known, a))),
        }
        if args.contains(&Known::Absent) {
            lowered.push(Op::Missing { slot });
            known[slot as usize] = Known::Absent;
            continue;
        }
        folded.clear();
        folded.extend(args.iter().map_while(|a| match *a {
            Known::Is(v) => Some(v),
            _ => None,
        }));
        let all_known = folded.len() == args.len();
        let fixed = match op {
            Op::Delay { register, .. } => register_value(register),
            Op::Copy { .. } if all_known => Known::Is(folded[0]),
            Op::Unary { op: f, .. } | Op::Binary { op: f, .. } | Op::Func { op: f, .. }
                if all_known =>
            {
                // An error faults at run time, with the same message.
                eval_op(f, &folded).map_or(Known::Dynamic, Known::Is)
            }
            _ => Known::Dynamic,
        };
        match (op, fixed) {
            (Op::Write { .. }, _) => {}
            (_, Known::Is(v)) => {
                known[slot as usize] = fixed;
                lowered.push(Op::Copy {
                    slot,
                    arg: Operand::Const(v),
                });
                continue;
            }
            _ => known[slot as usize] = fixed,
        }
        lowered.push(op);
    }
    Some(Mode::new(lowered, arg_pool))
}

/// Per-slot flag: the signal is present at this instant.
const PRESENT: u8 = 1;
/// Per-slot flag: the slot holds this instant's value.
const HAS_VALUE: u8 = 2;

/// Why a reaction did not commit.
enum Stall {
    /// The read of input queue `.0` found it empty; the reaction is
    /// suspended at that read.
    NeedInput(u32),
    /// The reaction faulted and was discarded.  Boxed, so the hot path
    /// passes a word-sized result.
    Fault(Box<RuntimeError>),
}

#[cold]
fn fault(error: RuntimeError) -> Stall {
    Stall::Fault(Box::new(error))
}

/// The fault of an equation defining `slot` whose operand has no value.
#[cold]
fn missing(program: &CompiledProgram, slot: u32) -> Stall {
    fault(RuntimeError::MissingOperand(
        program.slot_names[slot as usize].clone(),
    ))
}

/// The mutable half of a [`CompiledRuntime`]: observable state (registers,
/// queues, flows, the step count) and the scratch of the current
/// reaction, kept apart from the shared program so a reaction borrows
/// both at once.
#[derive(Debug, Clone)]
struct State {
    values: Vec<Value>,
    /// `PRESENT | HAS_VALUE` bits per slot, for the current reaction.
    flags: Vec<u8>,
    registers: Vec<Value>,
    queues: Vec<VecDeque<Value>>,
    flows: Vec<Vec<Value>>,
    steps: u64,
    /// The mode the registers select for the next reaction, kept from the
    /// last commit (the only place registers change).
    next_mode: Option<usize>,
    /// Where the suspended reaction resumes, while one waits on an empty
    /// queue: its mode (`None`: the program's own ops, every clock
    /// computed) and the read's index.
    resume: Option<(Option<usize>, usize)>,
    // Reusable per-reaction scratch (cleared at commit, never shrunk).
    clock_stack: Vec<bool>,
    consumed: Vec<u32>,
    latches: Vec<(u32, Value)>,
    pending_writes: Vec<(u32, Value)>,
    args_buf: Vec<Value>,
}

/// Executes a [`CompiledProgram`] over a flat value array, per-slot
/// presence flags, and index-addressed registers, queues and flows.
///
/// Semantics are identical to
/// [`SequentialRuntime`](crate::SequentialRuntime): a step either
/// completes (inputs consumed, registers latched, outputs appended) or
/// fails with [`RuntimeError`] leaving every observable unchanged — the
/// consumed inputs, register latches and output appends are staged in
/// reusable scratch buffers and committed only on success, so the hot
/// path allocates nothing after the first step.  A step that fails for an
/// exhausted input is suspended, not discarded: after a feed, the next
/// step resumes at the read that stopped it.
#[derive(Debug, Clone)]
pub struct CompiledRuntime {
    program: Arc<CompiledProgram>,
    state: State,
}

impl CompiledRuntime {
    /// Creates a runtime with every register at its initial value and
    /// empty input queues.  Pass an `Arc` to share one compiled program
    /// among many runtimes.
    pub fn new(program: impl Into<Arc<CompiledProgram>>) -> CompiledRuntime {
        let program = program.into();
        let slots = program.slot_count();
        let mut state = State {
            values: vec![Value::Bool(false); slots],
            flags: vec![0; slots],
            registers: program.registers.iter().map(|(_, v)| *v).collect(),
            queues: program.inputs.iter().map(|_| VecDeque::new()).collect(),
            flows: program.outputs.iter().map(|_| Vec::new()).collect(),
            steps: 0,
            next_mode: None,
            resume: None,
            clock_stack: Vec::with_capacity(program.max_clock_depth),
            consumed: Vec::with_capacity(program.inputs.len()),
            latches: Vec::with_capacity(program.registers.len()),
            pending_writes: Vec::with_capacity(program.outputs.len()),
            args_buf: Vec::new(),
        };
        state.next_mode = state.mode(&program);
        CompiledRuntime { program, state }
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
        if let Some(i) = self.input_port(signal) {
            self.state.queues[i].extend(values.into_iter().map(Into::into));
        }
    }

    /// The number of values waiting on an input queue.
    pub fn pending(&self, signal: &str) -> usize {
        self.input_port(signal)
            .map(|i| self.state.queues[i].len())
            .unwrap_or(0)
    }

    /// The values written so far on an output signal.
    pub fn output(&self, signal: &str) -> &[Value] {
        self.program
            .outputs
            .iter()
            .position(|(n, _)| n.as_str() == signal)
            .map(|i| self.state.flows[i].as_slice())
            .unwrap_or_default()
    }

    /// The number of executed steps.
    pub fn steps(&self) -> u64 {
        self.state.steps
    }

    fn input_port(&self, signal: &str) -> Option<usize> {
        self.program
            .inputs
            .iter()
            .position(|(n, _)| n.as_str() == signal)
    }

    /// Executes one step of the compiled program.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InputExhausted`] when a present input has
    /// no value queued; no observable state changes, exactly like the
    /// interpreter, and the reaction stays suspended at that read until
    /// the next step resumes it.
    pub fn step(&mut self) -> Result<(), RuntimeError> {
        self.state
            .react(&self.program)
            .map_err(|stall| match stall {
                Stall::NeedInput(queue) => {
                    RuntimeError::InputExhausted(self.program.inputs[queue as usize].0.clone())
                }
                Stall::Fault(error) => *error,
            })
    }

    /// Runs steps until an input is exhausted or `max_steps` is reached;
    /// returns the number of completed steps.
    pub fn run(&mut self, max_steps: usize) -> usize {
        let mut done = 0;
        for _ in 0..max_steps {
            if self.state.react(&self.program).is_err() {
                break;
            }
            done += 1;
        }
        done
    }
}

impl State {
    #[inline]
    fn present(&self, slot: u32) -> bool {
        self.flags[slot as usize] & PRESENT != 0
    }

    /// Sets the presence of `slot`, keeping any value already computed.
    #[inline]
    fn set_present(&mut self, slot: u32, present: bool) {
        let flags = &mut self.flags[slot as usize];
        *flags = (*flags & HAS_VALUE) | u8::from(present);
    }

    /// Stores `value` as this instant's value of `slot`.
    #[inline]
    fn define(&mut self, slot: u32, value: Value) {
        self.values[slot as usize] = value;
        self.flags[slot as usize] |= HAS_VALUE;
    }

    /// Present and holding exactly `value` this instant.
    #[inline]
    fn sampled(&self, slot: u32, value: Value) -> bool {
        self.flags[slot as usize] == PRESENT | HAS_VALUE && self.values[slot as usize] == value
    }

    #[inline]
    fn value_of(&self, operand: Operand) -> Option<Value> {
        match operand {
            Operand::Const(v) => Some(v),
            Operand::Slot(slot) => {
                (self.flags[slot as usize] & HAS_VALUE != 0).then(|| self.values[slot as usize])
            }
        }
    }

    /// Runs (or resumes) one reaction and commits it.  A read that finds
    /// its queue empty suspends the reaction there with every staged
    /// effect kept; a fault discards it.
    fn react(&mut self, program: &CompiledProgram) -> Result<(), Stall> {
        let (mode, from) = match self.resume.take() {
            Some(point) => point,
            None => {
                if self.next_mode.is_none() {
                    self.flags.fill(0);
                }
                (self.next_mode, 0)
            }
        };
        let run = match mode.map(|m| &program.modes[m]) {
            Some(mode) => self.run_ops(program, &mode.ops, from, |state, program, at, op| {
                state.exec_static(program, op, at >= mode.direct_from)
            }),
            None => self.run_ops(program, &program.ops, from, |state, program, _, op| {
                state.exec(program, op)
            }),
        };
        if let Err((at, stall)) = run {
            match stall {
                Stall::NeedInput(_) => self.resume = Some((mode, at)),
                Stall::Fault(_) => self.discard(),
            }
            return Err(stall);
        }
        // Commit: consume inputs, append outputs and latch registers only
        // once the whole reaction ran.
        for &queue in &self.consumed {
            self.queues[queue as usize].pop_front();
        }
        for &(output, v) in &self.pending_writes {
            self.flows[output as usize].push(v);
        }
        for &(register, v) in &self.latches {
            self.registers[register as usize] = v;
        }
        self.discard();
        self.steps += 1;
        self.next_mode = self.mode(program);
        Ok(())
    }

    /// Executes `ops[from..]`, stopping at the first op that stalls.
    #[inline(always)]
    fn run_ops(
        &mut self,
        program: &CompiledProgram,
        ops: &[Op],
        from: usize,
        exec: impl Fn(&mut Self, &CompiledProgram, usize, &Op) -> Result<(), Stall>,
    ) -> Result<(), (usize, Stall)> {
        for (at, op) in ops.iter().enumerate().skip(from) {
            exec(self, program, at, op).map_err(|stall| (at, stall))?;
        }
        Ok(())
    }

    /// The mode the registers select; `None` when the program has none or
    /// a mode register holds a non-boolean.
    fn mode(&self, program: &CompiledProgram) -> Option<usize> {
        if program.modes.is_empty() {
            return None;
        }
        let mut mode = 0;
        for (i, &register) in program.mode_registers.iter().enumerate() {
            match self.registers[register as usize] {
                Value::Bool(b) => mode |= usize::from(b) << i,
                Value::Int(_) => return None,
            }
        }
        Some(mode)
    }

    /// Drops the staged effects of a committed or discarded reaction.
    fn discard(&mut self) {
        self.consumed.clear();
        self.pending_writes.clear();
        self.latches.clear();
    }

    #[inline(always)]
    fn exec(&mut self, program: &CompiledProgram, op: &Op) -> Result<(), Stall> {
        match *op {
            Op::Leaf { slot, leaf } => self.set_present(slot, self.leaf(leaf)),
            Op::Clock { slot, start, end } => {
                let mut stack = std::mem::take(&mut self.clock_stack);
                let p = eval_postfix(
                    &program.clock_pool[start as usize..end as usize],
                    &mut stack,
                    |leaf| Some(self.leaf(leaf)),
                );
                self.clock_stack = stack;
                self.set_present(slot, p.expect("well-formed clock program"));
            }
            Op::Read { slot, queue } => {
                if self.present(slot) {
                    match self.queues[queue as usize].front() {
                        Some(&v) => {
                            self.define(slot, v);
                            self.consumed.push(queue);
                        }
                        None => return Err(Stall::NeedInput(queue)),
                    }
                }
            }
            Op::Delay { slot, register } => {
                if self.present(slot) {
                    self.define(slot, self.registers[register as usize]);
                }
            }
            Op::Unary { slot, op, arg } => {
                if self.present(slot) {
                    let a = self.operand(program, slot, arg)?;
                    let v = eval_op(op, &[a]).map_err(fault)?;
                    self.define(slot, v);
                }
            }
            Op::Binary {
                slot,
                op,
                left,
                right,
            } => {
                if self.present(slot) {
                    let a = self.operand(program, slot, left)?;
                    let b = self.operand(program, slot, right)?;
                    let v = eval_op(op, &[a, b]).map_err(fault)?;
                    self.define(slot, v);
                }
            }
            Op::Func {
                slot,
                op,
                start,
                end,
            } => {
                if self.present(slot) {
                    self.args_buf.clear();
                    for a in &program.arg_pool[start as usize..end as usize] {
                        let v = self.operand(program, slot, *a)?;
                        self.args_buf.push(v);
                    }
                    let v = eval_op(op, &self.args_buf).map_err(fault)?;
                    self.define(slot, v);
                }
            }
            Op::Copy { slot, arg } => {
                if self.present(slot) {
                    let v = self.operand(program, slot, arg)?;
                    self.define(slot, v);
                }
            }
            Op::Select {
                slot,
                left,
                left_guard,
                right,
            } => {
                if self.present(slot) {
                    let left_present = left_guard.is_none_or(|g| self.present(g));
                    let chosen = if left_present { left } else { right };
                    let v = self.operand(program, slot, chosen)?;
                    self.define(slot, v);
                }
            }
            Op::Write { slot, output } => {
                if self.present(slot) {
                    let v = self.operand(program, slot, Operand::Slot(slot))?;
                    self.pending_writes.push((output, v));
                }
            }
            Op::Update { register, source } => {
                if self.flags[source as usize] == PRESENT | HAS_VALUE {
                    self.latches.push((register, self.values[source as usize]));
                }
            }
            Op::Missing { slot } => return Err(missing(program, slot)),
        }
        Ok(())
    }

    /// Executes one op of a [`Mode`]: every op there is of a present
    /// signal whose operands hold values, so it reads and writes `values`
    /// alone, without presence flags.  A `direct` op is past the last
    /// point the reaction could stop: it consumes, writes or latches at
    /// once instead of staging.
    #[inline(always)]
    fn exec_static(
        &mut self,
        program: &CompiledProgram,
        op: &Op,
        direct: bool,
    ) -> Result<(), Stall> {
        match *op {
            Op::Read { slot, queue } => {
                let input = &mut self.queues[queue as usize];
                let head = if direct {
                    input.pop_front()
                } else {
                    input.front().copied()
                };
                match head {
                    Some(v) => {
                        self.values[slot as usize] = v;
                        if !direct {
                            self.consumed.push(queue);
                        }
                    }
                    None => return Err(Stall::NeedInput(queue)),
                }
            }
            Op::Delay { slot, register } => {
                self.values[slot as usize] = self.registers[register as usize];
            }
            Op::Unary { slot, op, arg } => {
                let v = eval_op(op, &[self.fixed(arg)]).map_err(fault)?;
                self.values[slot as usize] = v;
            }
            Op::Binary {
                slot,
                op,
                left,
                right,
            } => {
                let v = eval_op(op, &[self.fixed(left), self.fixed(right)]).map_err(fault)?;
                self.values[slot as usize] = v;
            }
            Op::Func {
                slot,
                op,
                start,
                end,
            } => {
                self.args_buf.clear();
                for &a in &program.arg_pool[start as usize..end as usize] {
                    let v = self.fixed(a);
                    self.args_buf.push(v);
                }
                let v = eval_op(op, &self.args_buf).map_err(fault)?;
                self.values[slot as usize] = v;
            }
            Op::Copy { slot, arg } => self.values[slot as usize] = self.fixed(arg),
            Op::Write { slot, output } => {
                let v = self.values[slot as usize];
                if direct {
                    self.flows[output as usize].push(v);
                } else {
                    self.pending_writes.push((output, v));
                }
            }
            Op::Update { register, source } => {
                let v = self.values[source as usize];
                if direct {
                    self.registers[register as usize] = v;
                } else {
                    self.latches.push((register, v));
                }
            }
            Op::Missing { slot } => return Err(missing(program, slot)),
            Op::Leaf { .. } | Op::Clock { .. } | Op::Select { .. } => {
                unreachable!("a mode decides every clock and every default statically")
            }
        }
        Ok(())
    }

    /// An operand known to hold a value.
    #[inline]
    fn fixed(&self, operand: Operand) -> Value {
        match operand {
            Operand::Const(v) => v,
            Operand::Slot(slot) => self.values[slot as usize],
        }
    }

    /// The value of an operand of the equation defining `slot`.
    #[inline]
    fn operand(
        &self,
        program: &CompiledProgram,
        slot: u32,
        operand: Operand,
    ) -> Result<Value, Stall> {
        self.value_of(operand).ok_or_else(|| missing(program, slot))
    }

    /// The bit of one clock leaf at this point of the reaction (`true`
    /// for the root clock; an operator is never a leaf).
    #[inline]
    fn leaf(&self, leaf: ClockOp) -> bool {
        match leaf {
            ClockOp::Present(slot) => self.present(slot),
            ClockOp::SampleTrue(slot) => self.sampled(slot, Value::Bool(true)),
            ClockOp::SampleFalse(slot) => self.sampled(slot, Value::Bool(false)),
            ClockOp::True | ClockOp::And | ClockOp::Or | ClockOp::Diff => true,
        }
    }
}

/// Compiled step machines deploy on the GALS runtime exactly like the
/// interpreter does — the engine never sees the difference, except that
/// a refused step here keeps its partial reaction and resumes it.
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

    fn feed(&mut self, port: usize, value: Value) {
        if let Some(queue) = self.state.queues.get_mut(port) {
            queue.push_back(value);
        }
    }

    fn try_step(&mut self) -> Result<(), gals_rt::StepFault> {
        self.state
            .react(&self.program)
            .map_err(|stall| match stall {
                Stall::NeedInput(queue) => gals_rt::StepFault::NeedInput(queue as usize),
                Stall::Fault(error) => gals_rt::StepFault::Fault(error.to_string()),
            })
    }

    fn output(&self, port: usize) -> &[Value] {
        self.state.flows.get(port).map_or(&[], Vec::as_slice)
    }

    /// The first read of the next reaction's mode, while its queue is
    /// empty: that reaction can only suspend there.  A suspended reaction,
    /// or one without a mode, demands nothing in advance.
    fn demand(&self) -> Option<usize> {
        if self.state.resume.is_some() {
            return None;
        }
        let queue = self.program.modes[self.state.next_mode?].demand? as usize;
        self.state.queues[queue].is_empty().then_some(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SequentialRuntime;
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
    fn the_buffer_runs_one_straight_line_program_per_phase() {
        let compiled = CompiledProgram::compile(&generate_from_kernel(
            &stdlib::buffer().normalize().unwrap(),
        ));
        // `s` alone decides every clock: the read phase and the write
        // phase, each without clock ops or the other phase's ops.
        assert_eq!(compiled.mode_registers.len(), 1);
        assert_eq!(compiled.modes.len(), 2);
        for mode in &compiled.modes {
            assert!(
                mode.ops.len() < compiled.ops.len() / 2 + 2,
                "{:?}",
                mode.ops
            );
            assert!(mode.ops.iter().all(|op| clocked_slot(op).is_none()));
        }
        // The filter samples its input: no valuation of registers decides
        // its clocks.
        let filter = CompiledProgram::compile(&generate_from_kernel(
            &stdlib::filter().normalize().unwrap(),
        ));
        assert!(filter.modes.is_empty());
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
        let caps = |rt: &CompiledRuntime| {
            (
                rt.state.clock_stack.capacity(),
                rt.state.consumed.capacity(),
                rt.state.latches.capacity(),
                rt.state.pending_writes.capacity(),
                rt.state.args_buf.capacity(),
            )
        };
        let before = caps(&rt);
        assert!(rt.run(100) >= 10);
        assert_eq!(
            before,
            caps(&rt),
            "per-step scratch reallocated on the hot path"
        );
    }
}
