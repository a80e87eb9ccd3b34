//! The synchronous reaction-by-reaction interpreter.
//!
//! Each call to [`Simulator::step`] executes one instant of the process: the
//! caller *drives* a subset of the signals (typically the inputs and the
//! activation clocks) and the interpreter solves the presence and the value
//! of every other signal by propagating the kernel equations and the clock
//! constraints to a fixed point.  For every autonomous state clock (delay
//! register) the drives leave undetermined, the interpreter then tries a
//! tick, keeping only the ticks that extend to a complete valid instant —
//! this is how self-paced processes such as the one-place buffer advance,
//! alone or composed with input-driven components whose signals are
//! already present.  Signals whose presence still cannot be derived are
//! absent — the silent reaction remains legal whenever no consistent
//! non-silent one exists, and an empty drive is silent outright — and the
//! completed instant is validated against every constraint before the delay
//! registers are committed, so that an ill-driven instant is rejected
//! instead of silently corrupting the state.
//!
//! The kernel is interned once, when the simulator is built: signals get
//! dense ids (in name order), and the equations, constraint clocks and
//! registers are rewritten over them, so an instant works on flat arrays.
//! Failures inside an instant are kept as ids too and rendered into a
//! [`SimError`] only when they escape the step, so a speculative tick
//! that fails costs no formatting.

use std::collections::BTreeMap;

use moc::{Reaction, Tag};
use signal_lang::{Atom, ClockAst, KernelEq, KernelProcess, Name, PrimOp, Value};

use crate::error::SimError;

/// How the caller drives one signal for one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// The signal is present and carries this value.
    Present(Value),
    /// The signal is present; its value is computed by the process (used for
    /// activation clocks and state signals).
    Tick,
    /// The signal is absent at this instant.
    Absent,
    /// The signal is available with this value, but only becomes present if
    /// the process requires it (demand-driven input, as a blocking read
    /// would provide).
    Available(Value),
}

/// Presence and value knowledge about one signal during resolution.
#[derive(Debug, Clone, Copy, Default)]
struct Knowledge {
    presence: Option<bool>,
    value: Option<Value>,
}

/// An operand of an interned equation.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Const(Value),
    Var(usize),
}

impl Operand {
    fn of(atom: &Atom, ids: &BTreeMap<Name, usize>) -> Operand {
        match atom {
            Atom::Const(v) => Operand::Const(*v),
            Atom::Var(n) => Operand::Var(ids[n]),
        }
    }

    fn var(self) -> Option<usize> {
        match self {
            Operand::Const(_) => None,
            Operand::Var(id) => Some(id),
        }
    }

    fn presence(self, know: &[Knowledge]) -> Option<bool> {
        match self {
            Operand::Const(_) => Some(true),
            Operand::Var(id) => know[id].presence,
        }
    }

    fn value(self, know: &[Knowledge]) -> Option<Value> {
        match self {
            Operand::Const(v) => Some(v),
            Operand::Var(id) => know[id].value,
        }
    }
}

/// A kernel equation over signal ids.
#[derive(Debug, Clone)]
enum Equation {
    Func {
        out: usize,
        op: PrimOp,
        args: Vec<Operand>,
    },
    /// `out = arg $ init`, whose current value is `state[register]`.
    Delay {
        out: usize,
        arg: usize,
        register: usize,
    },
    When {
        out: usize,
        arg: Operand,
        cond: usize,
    },
    Default {
        out: usize,
        left: Operand,
        right: Operand,
    },
}

impl Equation {
    fn defined(&self) -> usize {
        match self {
            Equation::Func { out, .. }
            | Equation::Delay { out, .. }
            | Equation::When { out, .. }
            | Equation::Default { out, .. } => *out,
        }
    }
}

/// A clock expression over signal ids; `None` is a name the process does
/// not declare, whose clock is unknown.
#[derive(Debug, Clone)]
enum Clock {
    Zero,
    Of(Option<usize>),
    Sample(Option<usize>, bool),
    And(Box<Clock>, Box<Clock>),
    Or(Box<Clock>, Box<Clock>),
    Diff(Box<Clock>, Box<Clock>),
}

impl Clock {
    fn of(clock: &ClockAst, ids: &BTreeMap<Name, usize>) -> Clock {
        let of = |c: &ClockAst| Box::new(Clock::of(c, ids));
        match clock {
            ClockAst::Zero => Clock::Zero,
            ClockAst::Of(n) => Clock::Of(ids.get(n).copied()),
            ClockAst::WhenTrue(n) => Clock::Sample(ids.get(n).copied(), true),
            ClockAst::WhenFalse(n) => Clock::Sample(ids.get(n).copied(), false),
            ClockAst::And(a, b) => Clock::And(of(a), of(b)),
            ClockAst::Or(a, b) => Clock::Or(of(a), of(b)),
            ClockAst::Diff(a, b) => Clock::Diff(of(a), of(b)),
        }
    }
}

/// A kernel process interned once over dense signal ids (in name order),
/// so that an instant indexes flat arrays instead of name-keyed maps.
#[derive(Debug, Clone)]
struct Code {
    /// Signal names by id.
    names: Vec<Name>,
    ids: BTreeMap<Name, usize>,
    equations: Vec<Equation>,
    constraints: Vec<(Clock, Clock)>,
    /// `(out, arg)` of every delay register, in `KernelProcess::registers`
    /// order; the register's index is its position here.
    registers: Vec<(usize, usize)>,
    inputs: Vec<usize>,
}

impl Code {
    fn new(kernel: &KernelProcess) -> Code {
        let names: Vec<Name> = kernel.signal_set().into_iter().collect();
        let ids: BTreeMap<Name, usize> = names
            .iter()
            .enumerate()
            .map(|(id, name)| (name.clone(), id))
            .collect();
        let mut registers = Vec::new();
        let equations = kernel
            .equations()
            .iter()
            .map(|eq| match eq {
                KernelEq::Func { out, op, args } => Equation::Func {
                    out: ids[out],
                    op: *op,
                    args: args.iter().map(|a| Operand::of(a, &ids)).collect(),
                },
                KernelEq::Delay { out, arg, .. } => {
                    registers.push((ids[out], ids[arg]));
                    Equation::Delay {
                        out: ids[out],
                        arg: ids[arg],
                        register: registers.len() - 1,
                    }
                }
                KernelEq::When { out, arg, cond } => Equation::When {
                    out: ids[out],
                    arg: Operand::of(arg, &ids),
                    cond: ids[cond],
                },
                KernelEq::Default { out, left, right } => Equation::Default {
                    out: ids[out],
                    left: Operand::of(left, &ids),
                    right: Operand::of(right, &ids),
                },
            })
            .collect();
        let constraints = kernel
            .constraints()
            .iter()
            .map(|(l, r)| (Clock::of(l, &ids), Clock::of(r, &ids)))
            .collect();
        let inputs = kernel.inputs().map(|n| ids[n]).collect();
        Code {
            names,
            ids,
            equations,
            constraints,
            registers,
            inputs,
        }
    }
}

/// Why resolution failed, by id; rendered into a [`SimError`] only when
/// it escapes a step, so speculative ticks that fail format nothing.
#[derive(Debug)]
enum Fail {
    Contradiction(usize),
    Constraint(usize),
    Equation(usize),
    ZeroForced,
    Unresolved(usize),
    Evaluation(SimError),
}

/// The synchronous interpreter of a kernel process.
#[derive(Debug, Clone)]
pub struct Simulator {
    kernel: KernelProcess,
    code: Code,
    registers: BTreeMap<Name, Value>,
    /// The register values by register index (the mirror of `registers`
    /// the hot path reads).
    state: Vec<Value>,
    /// The activation signals by id, or the first one the process does not
    /// declare.
    activation: Result<Vec<usize>, Name>,
    instant: u64,
    /// The completed knowledge of the last successful instant.
    last: Vec<Knowledge>,
}

impl Simulator {
    /// Creates a simulator with every delay register set to its declared
    /// initial value.
    pub fn new(kernel: &KernelProcess) -> Self {
        let initial = kernel.registers();
        let registers = initial
            .iter()
            .map(|(out, _, init)| (out.clone(), *init))
            .collect();
        Simulator {
            kernel: kernel.clone(),
            code: Code::new(kernel),
            registers,
            state: initial.into_iter().map(|(_, _, init)| init).collect(),
            activation: Ok(Vec::new()),
            instant: 0,
            last: Vec::new(),
        }
    }

    /// Creates a simulator that additionally forces the given signals to be
    /// present (`Drive::Tick`) at every step — the idiom for processes paced
    /// by an internal state clock, such as the paper's one-place buffer.
    pub fn with_activation<I, N>(kernel: &KernelProcess, activation: I) -> Self
    where
        I: IntoIterator<Item = N>,
        N: Into<Name>,
    {
        let mut sim = Simulator::new(kernel);
        sim.activation = activation
            .into_iter()
            .map(|name| {
                let name = name.into();
                sim.code.ids.get(&name).copied().ok_or(name)
            })
            .collect();
        sim
    }

    /// The process being executed.
    pub fn kernel(&self) -> &KernelProcess {
        &self.kernel
    }

    /// The current contents of the delay registers.
    pub fn registers(&self) -> &BTreeMap<Name, Value> {
        &self.registers
    }

    /// The number of instants executed so far.
    pub fn instants(&self) -> u64 {
        self.instant
    }

    /// Executes one instant.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the driven instant contradicts the clock
    /// constraints or the equations of the process; in that case the state
    /// of the simulator is unchanged, so the caller may retry with a
    /// different drive (this is how the asynchronous network models a
    /// blocking read).
    pub fn step(&mut self, drives: &[(&str, Drive)]) -> Result<Reaction, SimError> {
        if let Err(name) = &self.activation {
            return Err(SimError::UnknownSignal(name.clone()));
        }
        let mut interned = Vec::with_capacity(drives.len());
        for (name, drive) in drives {
            let Some(&id) = self.code.ids.get(*name) else {
                return Err(SimError::UnknownSignal(Name::from(*name)));
            };
            interned.push((id, *drive));
        }
        self.react(&interned)?;

        let mut reaction = Reaction::empty_on(self.code.names.iter().cloned());
        let mut any = false;
        for (id, k) in self.last.iter().enumerate() {
            if k.presence == Some(true) {
                let value = k
                    .value
                    .expect("complete_instant guarantees present signals carry values");
                reaction.insert(self.code.names[id].clone(), value);
                any = true;
            }
        }
        if any {
            reaction.set_tag(Tag::new(self.instant - 1));
        }
        Ok(reaction)
    }

    /// Convenience: runs one instant with every *input* of the process made
    /// available with the provided value (demand-driven), plus the explicit
    /// drives.
    pub fn step_with_inputs(&mut self, inputs: &[(&str, Value)]) -> Result<Reaction, SimError> {
        let drives: Vec<(&str, Drive)> = inputs
            .iter()
            .map(|(n, v)| (*n, Drive::Available(*v)))
            .collect();
        self.step(&drives)
    }

    /// The id of a declared signal.
    pub(crate) fn signal_id(&self, name: &str) -> Option<usize> {
        self.code.ids.get(name).copied()
    }

    /// The value of signal `id` at the last successful instant, when it
    /// was present.
    pub(crate) fn last_value(&self, id: usize) -> Option<Value> {
        let k = self.last[id];
        if k.presence == Some(true) {
            k.value
        } else {
            None
        }
    }

    /// Executes one instant driven by signal id — [`Simulator::step`]
    /// without the name lookups and without building a [`Reaction`]: the
    /// completed instant is kept for [`Simulator::last_value`].
    pub(crate) fn react(&mut self, drives: &[(usize, Drive)]) -> Result<(), SimError> {
        let activation = match &self.activation {
            Ok(ids) => ids,
            Err(name) => return Err(SimError::UnknownSignal(name.clone())),
        };
        let n = self.code.names.len();
        let mut know = vec![Knowledge::default(); n];
        let mut available: Vec<Option<Value>> = vec![None; n];

        // Inputs the environment actually offered a token for this instant;
        // a speculative tick may consume these and nothing else.
        let mut provided = vec![false; n];
        for &id in activation {
            know[id].presence = Some(true);
            provided[id] = true;
        }
        for &(id, drive) in drives {
            let k = &mut know[id];
            match drive {
                Drive::Present(v) => {
                    k.presence = Some(true);
                    k.value = Some(v);
                    provided[id] = true;
                }
                Drive::Tick => {
                    k.presence = Some(true);
                    provided[id] = true;
                }
                Drive::Absent => k.presence = Some(false),
                Drive::Available(v) => {
                    available[id] = Some(v);
                    provided[id] = true;
                }
            }
        }

        // Fixed-point propagation.
        let max_rounds = 4 * (self.code.equations.len() + self.code.constraints.len() + 4);
        self.propagate_to_fixpoint(&mut know, &available, max_rounds)
            .map_err(|fail| self.render(fail))?;

        // The caller drove an instant, but some autonomous state clocks
        // (delay registers whose presence is still undetermined) were not
        // decided by the drives: try to tick each of them, so that
        // self-paced processes like the one-place buffer advance instead of
        // degenerating to absence — also when they are composed with
        // input-driven components whose signals are already present.  Each
        // register is tried separately and a tick is accepted only when the
        // tick set so far still extends to a *complete* valid instant —
        // independent state clocks may be in incompatible phases, and one
        // inconsistent register must not spoil the others' legal reactions.
        // When no tick is accepted the instant falls back to the un-ticked
        // resolution (for an otherwise-silent drive, the always-legal silent
        // reaction).  An empty drive list is silent outright.
        let mut completed: Option<Vec<Knowledge>> = None;
        let any_undetermined_register = self
            .code
            .registers
            .iter()
            .any(|&(out, _)| know[out].presence.is_none());
        if !drives.is_empty() && any_undetermined_register {
            // `accepted` is the growing tick set before completion (so later
            // registers can still tick); `completed` tracks the completed
            // instant of the last accepted set.  The scan repeats until no
            // further tick is accepted, so a register whose tick only
            // becomes consistent once a partner clock has ticked is
            // retried.  (Mutually exclusive ticks remain first-wins in
            // register order — the greedy choice is deterministic but not
            // order-free.)
            let mut accepted = know.clone();
            loop {
                let mut progressed = false;
                for &(out, _) in &self.code.registers {
                    if accepted[out].presence.is_some() {
                        continue;
                    }
                    let mut trial = accepted.clone();
                    Self::set_presence(&mut trial, out, true, &available)
                        .expect("the register's presence was undetermined");
                    if self
                        .propagate_to_fixpoint(&mut trial, &available, max_rounds)
                        .is_err()
                    {
                        continue;
                    }
                    // Ticks are speculative: any failure to extend the tick
                    // set to a complete valid instant — an inconsistent
                    // phase or a runtime fault on the ticked path — means
                    // the tick is not taken, never that the step fails.
                    // Faults surface when the faulting instant is actually
                    // driven.
                    let Ok(done) = self.complete_instant(trial.clone(), &available, max_rounds)
                    else {
                        continue;
                    };
                    // A tick whose instant consumes an input token the
                    // environment did not offer models a blocked read.  The
                    // presence check is not enough: forcing a sampled clock
                    // like `[a]` fabricates both the presence and the value
                    // of `a`, so the trial is checked against the drives
                    // themselves — except for inputs the *base* resolution
                    // already made present (backward propagation from the
                    // caller's own drives), which the no-tick fallback
                    // would contain just the same.
                    let phantom_input = self.code.inputs.iter().any(|&id| {
                        done[id].presence == Some(true)
                            && !provided[id]
                            && know[id].presence != Some(true)
                    });
                    if !phantom_input {
                        accepted = trial;
                        completed = Some(done);
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        let know = match completed {
            Some(k) => k,
            None => self
                .complete_instant(know, &available, max_rounds)
                .map_err(|fail| self.render(fail))?,
        };

        // Commit the registers and the instant counter: the instant is
        // complete, so nothing below can fail.
        for (register, &(out, arg)) in self.code.registers.iter().enumerate() {
            let arg_know = &know[arg];
            if arg_know.presence == Some(true) {
                let v = arg_know
                    .value
                    .expect("complete_instant guarantees present signals carry values");
                self.state[register] = v;
                self.registers.insert(self.code.names[out].clone(), v);
            }
        }
        self.instant += 1;
        self.last = know;
        Ok(())
    }

    /// The [`SimError`] a failed resolution reports.
    fn render(&self, fail: Fail) -> SimError {
        match fail {
            Fail::Contradiction(id) => SimError::Contradiction {
                signal: self.code.names[id].clone(),
            },
            Fail::Constraint(index) => {
                let (l, r) = &self.kernel.constraints()[index];
                SimError::ClockConstraintViolation {
                    constraint: format!("{l} ^= {r}"),
                }
            }
            Fail::Equation(index) => SimError::ClockConstraintViolation {
                constraint: format!("{}", self.kernel.equations()[index]),
            },
            Fail::ZeroForced => SimError::ClockConstraintViolation {
                constraint: "^0 forced present".into(),
            },
            Fail::Unresolved(id) => SimError::Unresolved {
                signal: self.code.names[id].clone(),
            },
            Fail::Evaluation(error) => error,
        }
    }

    // ---- propagation ------------------------------------------------------

    /// Completes a partially-resolved instant: unknown presence resolves to
    /// absence, one more equation pass computes values that become derivable
    /// once absences are settled, and the completed instant is checked —
    /// every constraint must hold and every present signal must carry a
    /// value.  Errors leave the simulator untouched (the knowledge is
    /// consumed, not the state).
    fn complete_instant(
        &self,
        mut know: Vec<Knowledge>,
        available: &[Option<Value>],
        max_rounds: usize,
    ) -> Result<Vec<Knowledge>, Fail> {
        for k in &mut know {
            if k.presence.is_none() {
                k.presence = Some(false);
            }
        }
        // Equations only: with every presence settled, the constraints can
        // derive nothing more and are instead checked by `validate`.
        self.propagate_equations_to_fixpoint(&mut know, available, max_rounds)?;
        self.validate(&know)?;
        if let Some(id) = know
            .iter()
            .position(|k| k.presence == Some(true) && k.value.is_none())
        {
            return Err(Fail::Unresolved(id));
        }
        Ok(know)
    }

    /// Propagates equations and constraints until no new fact is derived.
    fn propagate_to_fixpoint(
        &self,
        know: &mut [Knowledge],
        available: &[Option<Value>],
        max_rounds: usize,
    ) -> Result<(), Fail> {
        for _ in 0..max_rounds {
            let mut changed = self.propagate_equations_once(know, available)?;
            for (index, (l, r)) in self.code.constraints.iter().enumerate() {
                changed |= Self::propagate_constraint(index, l, r, know, available)?;
            }
            if !changed {
                break;
            }
        }
        Ok(())
    }

    /// Propagates the equations alone until no new fact is derived.
    fn propagate_equations_to_fixpoint(
        &self,
        know: &mut [Knowledge],
        available: &[Option<Value>],
        max_rounds: usize,
    ) -> Result<(), Fail> {
        for _ in 0..max_rounds {
            if !self.propagate_equations_once(know, available)? {
                break;
            }
        }
        Ok(())
    }

    /// One pass over every equation; reports whether anything was derived.
    fn propagate_equations_once(
        &self,
        know: &mut [Knowledge],
        available: &[Option<Value>],
    ) -> Result<bool, Fail> {
        let mut changed = false;
        for eq in &self.code.equations {
            changed |= self.propagate_equation(eq, know, available)?;
        }
        Ok(changed)
    }

    fn set_presence(
        know: &mut [Knowledge],
        id: usize,
        presence: bool,
        available: &[Option<Value>],
    ) -> Result<bool, Fail> {
        let k = &mut know[id];
        match k.presence {
            Some(p) if p == presence => Ok(false),
            Some(_) => Err(Fail::Contradiction(id)),
            None => {
                k.presence = Some(presence);
                if presence {
                    if let (None, Some(v)) = (k.value, available[id]) {
                        k.value = Some(v);
                    }
                }
                Ok(true)
            }
        }
    }

    fn set_value(know: &mut [Knowledge], id: usize, value: Value) -> Result<bool, Fail> {
        let k = &mut know[id];
        match k.value {
            Some(v) if v == value => Ok(false),
            Some(_) => Err(Fail::Contradiction(id)),
            None => {
                k.value = Some(value);
                Ok(true)
            }
        }
    }

    fn propagate_equation(
        &self,
        eq: &Equation,
        know: &mut [Knowledge],
        available: &[Option<Value>],
    ) -> Result<bool, Fail> {
        let mut changed = false;
        match eq {
            Equation::Func { out, op, args } => {
                let out = *out;
                // All variable operands and the output are synchronous.
                let group = || std::iter::once(out).chain(args.iter().filter_map(|a| a.var()));
                let known: Option<bool> = group().find_map(|id| know[id].presence);
                if let Some(p) = known {
                    for id in group() {
                        changed |= Self::set_presence(know, id, p, available)?;
                    }
                }
                if know[out].presence == Some(true) {
                    let vals: Option<Vec<Value>> = args.iter().map(|a| a.value(know)).collect();
                    if let Some(vals) = vals {
                        let v = eval_op(*op, &vals).map_err(Fail::Evaluation)?;
                        changed |= Self::set_value(know, out, v)?;
                    }
                }
            }
            Equation::Delay { out, arg, register } => {
                let (out, arg) = (*out, *arg);
                let known = know[out].presence.or(know[arg].presence);
                if let Some(p) = known {
                    changed |= Self::set_presence(know, out, p, available)?;
                    changed |= Self::set_presence(know, arg, p, available)?;
                }
                if know[out].presence == Some(true) {
                    changed |= Self::set_value(know, out, self.state[*register])?;
                }
            }
            Equation::When { out, arg, cond } => {
                let (out, cond) = (*out, *cond);
                let cond_presence = know[cond].presence;
                let cond_value = know[cond].value;
                let cond_true = match (cond_presence, cond_value) {
                    (Some(false), _) => Some(false),
                    (Some(true), Some(v)) => Some(v.is_true()),
                    _ => None,
                };
                match cond_true {
                    Some(false) => {
                        changed |= Self::set_presence(know, out, false, available)?;
                    }
                    Some(true) => match *arg {
                        Operand::Const(v) => {
                            changed |= Self::set_presence(know, out, true, available)?;
                            changed |= Self::set_value(know, out, v)?;
                        }
                        Operand::Var(y) => {
                            if let Some(p) = know[y].presence.or(know[out].presence) {
                                changed |= Self::set_presence(know, out, p, available)?;
                                changed |= Self::set_presence(know, y, p, available)?;
                            }
                            if know[out].presence == Some(true) {
                                if let Some(v) = know[y].value {
                                    changed |= Self::set_value(know, out, v)?;
                                }
                            }
                        }
                    },
                    None => {}
                }
                // Backward: if the output is present, the condition is
                // present and true, and a variable operand is present.
                if know[out].presence == Some(true) {
                    changed |= Self::set_presence(know, cond, true, available)?;
                    changed |= Self::set_value(know, cond, Value::Bool(true))?;
                    if let Operand::Var(y) = *arg {
                        changed |= Self::set_presence(know, y, true, available)?;
                    }
                }
            }
            Equation::Default { out, left, right } => {
                let (out, left, right) = (*out, *left, *right);
                let rp = right.presence(know);
                // Forward presence.
                match (left, left.presence(know)) {
                    (Operand::Var(_), Some(true)) => {
                        changed |= Self::set_presence(know, out, true, available)?;
                        if let Some(v) = left.value(know) {
                            changed |= Self::set_value(know, out, v)?;
                        }
                    }
                    (Operand::Var(_), Some(false)) => {
                        if let Operand::Var(z) = right {
                            if let Some(p) = know[z].presence {
                                changed |= Self::set_presence(know, out, p, available)?;
                                if p {
                                    if let Some(v) = know[z].value {
                                        changed |= Self::set_value(know, out, v)?;
                                    }
                                }
                            }
                            // If out is known present and left absent, the
                            // alternative must be present.
                            if know[out].presence == Some(true) {
                                changed |= Self::set_presence(know, z, true, available)?;
                                if let Some(v) = know[z].value {
                                    changed |= Self::set_value(know, out, v)?;
                                }
                            }
                        } else if know[out].presence == Some(true) {
                            if let Some(v) = right.value(know) {
                                changed |= Self::set_value(know, out, v)?;
                            }
                        }
                    }
                    (Operand::Const(v), _) => {
                        // A constant priority operand: the output carries it
                        // whenever present.
                        if know[out].presence == Some(true) {
                            changed |= Self::set_value(know, out, v)?;
                        }
                    }
                    (Operand::Var(_), None) => {}
                }
                // Backward presence: out absent => both variable operands
                // absent; out present with both operands variables and
                // right absent => left present.
                if know[out].presence == Some(false) {
                    if let Operand::Var(y) = left {
                        changed |= Self::set_presence(know, y, false, available)?;
                    }
                    if let Operand::Var(z) = right {
                        changed |= Self::set_presence(know, z, false, available)?;
                    }
                }
                if know[out].presence == Some(true) && rp == Some(false) {
                    if let Operand::Var(y) = left {
                        changed |= Self::set_presence(know, y, true, available)?;
                        if let Some(v) = know[y].value {
                            changed |= Self::set_value(know, out, v)?;
                        }
                    }
                }
            }
        }
        Ok(changed)
    }

    fn propagate_constraint(
        index: usize,
        left: &Clock,
        right: &Clock,
        know: &mut [Knowledge],
        available: &[Option<Value>],
    ) -> Result<bool, Fail> {
        let lv = eval_clock(left, know);
        let rv = eval_clock(right, know);
        let mut changed = false;
        match (lv, rv) {
            (Some(a), Some(b)) if a != b => return Err(Fail::Constraint(index)),
            (Some(v), None) => changed |= force_clock(right, v, know, available)?,
            (None, Some(v)) => changed |= force_clock(left, v, know, available)?,
            _ => {}
        }
        Ok(changed)
    }

    /// Validates the completed instant: every clock constraint must hold and
    /// every equation must be presence-consistent.
    fn validate(&self, know: &[Knowledge]) -> Result<(), Fail> {
        for (index, (l, r)) in self.code.constraints.iter().enumerate() {
            let lv = eval_clock(l, know);
            let rv = eval_clock(r, know);
            if lv.is_some() && rv.is_some() && lv != rv {
                return Err(Fail::Constraint(index));
            }
        }
        let on = |id: usize| know[id].presence == Some(true);
        for (index, eq) in self.code.equations.iter().enumerate() {
            let out_present = on(eq.defined());
            let consistent = match eq {
                Equation::Func { args, .. } => args
                    .iter()
                    .filter_map(|a| a.var())
                    .all(|id| on(id) == out_present),
                Equation::Delay { arg, .. } => on(*arg) == out_present,
                Equation::When { arg, cond, .. } => {
                    let cond_on =
                        on(*cond) && know[*cond].value.map(Value::is_true).unwrap_or(false);
                    let arg_on = arg.var().is_none_or(on);
                    out_present == (cond_on && arg_on)
                }
                Equation::Default { left, right, .. } => {
                    let left_on = left.var().is_none_or(on);
                    let right_on = right.var().map_or(out_present, on);
                    out_present == (left_on || right_on) || (out_present && (left_on || right_on))
                }
            };
            if !consistent {
                return Err(Fail::Equation(index));
            }
        }
        Ok(())
    }
}

/// Three-valued evaluation of a clock expression under partial knowledge.
fn eval_clock(clock: &Clock, know: &[Knowledge]) -> Option<bool> {
    match clock {
        Clock::Zero => Some(false),
        Clock::Of(id) => know[(*id)?].presence,
        Clock::Sample(id, polarity) => {
            let k = know[(*id)?];
            match k.presence {
                Some(false) => Some(false),
                Some(true) => k.value.map(|v| v.is_true() == *polarity),
                None => None,
            }
        }
        Clock::And(a, b) => kleene_and(eval_clock(a, know), eval_clock(b, know)),
        Clock::Or(a, b) => kleene_or(eval_clock(a, know), eval_clock(b, know)),
        Clock::Diff(a, b) => kleene_and(eval_clock(a, know), eval_clock(b, know).map(|v| !v)),
    }
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Best-effort forcing of a clock expression to a truth value.
fn force_clock(
    clock: &Clock,
    target: bool,
    know: &mut [Knowledge],
    available: &[Option<Value>],
) -> Result<bool, Fail> {
    let declared = |id: &Option<usize>| id.expect("declared signal");
    let mut changed = false;
    match clock {
        Clock::Zero => {
            if target {
                return Err(Fail::ZeroForced);
            }
        }
        Clock::Of(id) => {
            changed |= Simulator::set_presence(know, declared(id), target, available)?;
        }
        Clock::Sample(id, polarity) => {
            let (n, polarity) = (declared(id), *polarity);
            if target {
                changed |= Simulator::set_presence(know, n, true, available)?;
                changed |= Simulator::set_value(know, n, Value::Bool(polarity))?;
            } else {
                // Not (present ∧ value=polarity): only conclusive when one
                // half is already known.
                let k = know[n];
                if k.presence == Some(true) {
                    changed |= Simulator::set_value(know, n, Value::Bool(!polarity))?;
                } else if k.value.map(|v| v.is_true() == polarity).unwrap_or(false) {
                    changed |= Simulator::set_presence(know, n, false, available)?;
                }
            }
        }
        Clock::And(a, b) => {
            if target {
                changed |= force_clock(a, true, know, available)?;
                changed |= force_clock(b, true, know, available)?;
            } else {
                // ¬(a ∧ b): conclusive only if one side is known true.
                if eval_clock(a, know) == Some(true) {
                    changed |= force_clock(b, false, know, available)?;
                } else if eval_clock(b, know) == Some(true) {
                    changed |= force_clock(a, false, know, available)?;
                }
            }
        }
        Clock::Or(a, b) => {
            if !target {
                changed |= force_clock(a, false, know, available)?;
                changed |= force_clock(b, false, know, available)?;
            } else if eval_clock(a, know) == Some(false) {
                changed |= force_clock(b, true, know, available)?;
            } else if eval_clock(b, know) == Some(false) {
                changed |= force_clock(a, true, know, available)?;
            }
        }
        Clock::Diff(a, b) => {
            if target {
                changed |= force_clock(a, true, know, available)?;
                changed |= force_clock(b, false, know, available)?;
            } else if eval_clock(a, know) == Some(true) {
                changed |= force_clock(b, true, know, available)?;
            } else if eval_clock(b, know) == Some(false) {
                changed |= force_clock(a, false, know, available)?;
            }
        }
    }
    Ok(changed)
}

/// Evaluates a primitive operator on concrete values.
fn eval_op(op: PrimOp, args: &[Value]) -> Result<Value, SimError> {
    let int = |v: &Value| {
        v.as_int().ok_or_else(|| SimError::Evaluation {
            message: format!("expected an integer, found {v}"),
        })
    };
    let boolean = |v: &Value| {
        v.as_bool().ok_or_else(|| SimError::Evaluation {
            message: format!("expected a boolean, found {v}"),
        })
    };
    let value = match (op, args) {
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
                return Err(SimError::Evaluation {
                    message: "division by zero".into(),
                });
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
            return Err(SimError::Evaluation {
                message: format!("operator {op} applied to {} operands", args.len()),
            })
        }
    };
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_lang::stdlib;

    fn bool_drive(v: bool) -> Drive {
        Drive::Present(Value::Bool(v))
    }

    #[test]
    fn filter_reproduces_the_paper_trace() {
        // y: 1 0 0 1 1 0  =>  x at positions 2, 4, 6 (value changes).
        let kernel = stdlib::filter().normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        let inputs = [true, false, false, true, true, false];
        let mut xs = Vec::new();
        for v in inputs {
            let r = sim.step(&[("y", bool_drive(v))]).expect("steps");
            xs.push(r.is_present("x"));
        }
        assert_eq!(xs, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn buffer_alternates_between_reading_and_writing() {
        let kernel = stdlib::buffer().normalize().unwrap();
        let mut sim = Simulator::with_activation(&kernel, ["t"]);
        let mut written = Vec::new();
        let mut read = Vec::new();
        for i in 0..8 {
            let r = sim
                .step(&[("y", Drive::Available(Value::Int(i)))])
                .expect("steps");
            if r.is_present("x") {
                written.push(r.value("x").unwrap());
            }
            if r.is_present("y") {
                read.push(r.value("y").unwrap());
            }
            // x and y are mutually exclusive.
            assert!(!(r.is_present("x") && r.is_present("y")));
        }
        // The buffer starts by emitting (t is initially true since s starts
        // at true and t = not s... the first instant emits or reads depending
        // on the initial state), then alternates strictly.
        assert_eq!(written.len() + read.len(), 8);
        assert_eq!(written.len(), 4);
        assert_eq!(read.len(), 4);
        // Every written value was read one activation earlier.
        for (w, r) in written.iter().zip(read.iter()) {
            assert_eq!(w, r);
        }
    }

    #[test]
    fn producer_counts_separately_on_each_branch() {
        let kernel = stdlib::producer().normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        // a = true, true, false, true, false
        let expected_u = [1, 2, 2, 3, 3];
        let expected_x = [0, 0, 1, 1, 2];
        let mut u = 0;
        let mut x = 0;
        for (i, a) in [true, true, false, true, false].into_iter().enumerate() {
            let r = sim.step(&[("a", bool_drive(a))]).expect("steps");
            if let Some(v) = r.value("u") {
                u = v.as_int().unwrap();
            }
            if let Some(v) = r.value("x") {
                x = v.as_int().unwrap();
            }
            assert_eq!(u, expected_u[i], "u at instant {i}");
            assert_eq!(x, expected_x[i], "x at instant {i}");
        }
    }

    #[test]
    fn consumer_accumulates_x_or_one() {
        let kernel = stdlib::consumer().normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        // b=true with x=5: v=5 ; b=false: v=6 ; b=true with x=2: v=8.
        let r = sim
            .step(&[
                ("b", bool_drive(true)),
                ("x", Drive::Present(Value::Int(5))),
            ])
            .expect("step 1");
        assert_eq!(r.value("v"), Some(Value::Int(5)));
        let r = sim
            .step(&[("b", bool_drive(false)), ("x", Drive::Absent)])
            .expect("step 2");
        assert_eq!(r.value("v"), Some(Value::Int(6)));
        let r = sim
            .step(&[
                ("b", bool_drive(true)),
                ("x", Drive::Present(Value::Int(2))),
            ])
            .expect("step 3");
        assert_eq!(r.value("v"), Some(Value::Int(8)));
    }

    #[test]
    fn violating_a_clock_constraint_is_an_error_and_preserves_state() {
        let kernel = stdlib::consumer().normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        // x must be present iff b is true; drive x while b is false.
        let err = sim
            .step(&[
                ("b", bool_drive(false)),
                ("x", Drive::Present(Value::Int(1))),
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::ClockConstraintViolation { .. } | SimError::Contradiction { .. }
        ));
    }

    #[test]
    fn self_paced_state_clocks_tick_on_explicitly_driven_instants() {
        // Regression: the buffer's state clock s/t is autonomous — no input
        // forces it.  Driving an instant with y explicitly absent must still
        // advance the state and emit x at a writing instant, instead of
        // degenerating to the silent reaction; and a failed (ill-driven)
        // step must leave the state untouched so that this recovery works.
        let kernel = stdlib::buffer().normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        // Reading instant: y is consumed.
        let r = sim
            .step(&[("y", Drive::Present(Value::Bool(true)))])
            .expect("reading instant");
        assert!(r.is_present("y"));
        assert!(!r.is_present("x"));
        // Writing instant, ill-driven: y forced present is a clock violation.
        sim.step(&[("y", Drive::Present(Value::Bool(false)))])
            .expect_err("y forced present at a writing instant");
        // Writing instant, correctly driven: y absent, x carries the value.
        let r = sim.step(&[("y", Drive::Absent)]).expect("writing instant");
        assert!(r.is_present("x"), "state clock ticks and x is emitted");
        assert_eq!(r.value("x"), Some(Value::Bool(true)));
        // The empty drive list still yields the silent reaction.
        let r = sim.step(&[]).expect("silence stays legal");
        assert!(r.is_silent());
    }

    #[test]
    fn inconsistent_ticks_fall_back_to_the_silent_reaction() {
        // Regression: at a *reading* instant (the buffer's initial state)
        // driving y absent admits no consistent tick — ticking the state
        // clock would demand y present.  The instant must degrade to the
        // always-legal silent reaction, not to an error.
        let kernel = stdlib::buffer().normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        let r = sim
            .step(&[("y", Drive::Absent)])
            .expect("silence is legal when no tick is consistent");
        assert!(r.is_silent());
        // The state did not advance: the buffer still reads y first.
        let r = sim
            .step(&[("y", Drive::Present(Value::Bool(true)))])
            .expect("reading instant");
        assert!(r.is_present("y"));
    }

    #[test]
    fn self_paced_components_tick_alongside_driven_ones() {
        // Regression: presence elsewhere in a composed kernel must not
        // suppress the autonomous tick of an unrelated component.  Here a
        // buffer (self-paced) is composed with a stateless input-driven
        // adder; at the buffer's writing instant the adder's input is
        // present, and the buffer must still emit x.
        let def = signal_lang::ProcessBuilder::new("mixed")
            .include(&stdlib::buffer())
            .define(
                "w",
                signal_lang::Expr::var("p").add(signal_lang::Expr::cst(1)),
            )
            .input("p")
            .output("w")
            .build()
            .unwrap();
        let kernel = def.normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        // Reading instant: the buffer consumes y while the adder runs.
        let r = sim
            .step(&[
                ("y", Drive::Present(Value::Bool(true))),
                ("p", Drive::Present(Value::Int(1))),
            ])
            .expect("reading instant");
        assert!(r.is_present("y"));
        assert_eq!(r.value("w"), Some(Value::Int(2)));
        // Writing instant: p present must not stop the buffer's state clock.
        let r = sim
            .step(&[("y", Drive::Absent), ("p", Drive::Present(Value::Int(2)))])
            .expect("writing instant");
        assert_eq!(r.value("w"), Some(Value::Int(3)));
        assert_eq!(r.value("x"), Some(Value::Bool(true)), "x emitted: {r:?}");
    }

    #[test]
    fn uncompletable_ticks_fall_back_to_silence_in_composed_kernels() {
        // Regression: in the LTTA bus the tick trial can be fixpoint-
        // consistent yet fail validation once the remaining unknowns
        // resolve to absence.  Such a tick must be dropped in favour of the
        // silent reaction, not surface as a ClockConstraintViolation.
        let kernel = stdlib::ltta_bus().normalize().unwrap();
        let inputs: Vec<String> = kernel.inputs().map(|n| n.to_string()).collect();
        let mut sim = Simulator::new(&kernel);
        let drives: Vec<(&str, Drive)> =
            inputs.iter().map(|n| (n.as_str(), Drive::Absent)).collect();
        let r = sim
            .step(&drives)
            .expect("all-absent drives stay a legal instant");
        assert!(r.is_silent());
    }

    #[test]
    fn speculative_ticks_cannot_fabricate_undriven_inputs() {
        // Regression: in the producer/consumer pair, driving only b must
        // not let the producer's register ticks invent the undriven input
        // a — forcing the sampled clock [a] would fabricate both a's
        // presence and its value.  Only the consumer's own accumulator may
        // advance (b = false means v := 1 + previous).
        let kernel = stdlib::producer_consumer().normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        let r = sim
            .step(&[("b", Drive::Present(Value::Bool(false)))])
            .expect("a legal instant for the consumer half");
        assert!(!r.is_present("a"), "undriven input a fabricated: {r:?}");
        assert!(!r.is_present("u"), "u runs on [a], which did not tick");
        assert_eq!(r.value("v"), Some(Value::Int(1)));
    }

    #[test]
    fn inputs_forced_by_the_base_drives_do_not_veto_ticks() {
        // Regression: an input made present by backward propagation from
        // the caller's own drives (here c, forced by driving the `when`
        // output o) is not a phantom — the no-tick fallback would contain
        // it just the same, so it must not veto the buffer's state tick.
        let def = signal_lang::ProcessBuilder::new("mixed2")
            .include(&stdlib::buffer())
            .define(
                "o",
                signal_lang::Expr::var("k").when(signal_lang::Expr::var("c")),
            )
            .inputs(["k", "c"])
            .output("o")
            .build()
            .unwrap();
        let kernel = def.normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        let drives = |y: Drive| {
            [
                ("y", y),
                ("k", Drive::Present(Value::Int(7))),
                ("o", Drive::Tick),
            ]
        };
        // Reading instant: o is computed while the buffer consumes y.
        let r = sim
            .step(&drives(Drive::Present(Value::Bool(true))))
            .expect("reading instant");
        assert_eq!(r.value("o"), Some(Value::Int(7)));
        assert!(r.is_present("y"));
        // Writing instant: c present-but-unprovided must not stall x.
        let r = sim.step(&drives(Drive::Absent)).expect("writing instant");
        assert_eq!(r.value("o"), Some(Value::Int(7)));
        assert_eq!(r.value("x"), Some(Value::Bool(true)), "x stalled: {r:?}");
    }

    #[test]
    fn failed_steps_do_not_commit_the_delay_registers() {
        // Regression: a step that fails late (present signal without a
        // value) must not have flipped the state registers, otherwise the
        // documented retry contract is broken and the simulator wedges.
        let kernel = stdlib::buffer().normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        let registers_before = sim.registers().clone();
        // y ticked without a value: the instant resolves but y's value is
        // unresolvable, which must be an error...
        let err = sim.step(&[("y", Drive::Tick)]).expect_err("y has no value");
        assert!(matches!(err, SimError::Unresolved { .. }), "got {err}");
        // ...that left the delay registers exactly as they were...
        assert_eq!(
            sim.registers(),
            &registers_before,
            "a failed step must not commit the registers"
        );
        // ...so the buffer still reads, and the successful step advances.
        let r = sim
            .step(&[("y", Drive::Present(Value::Bool(true)))])
            .expect("the reading instant still works after the failure");
        assert!(r.is_present("y"));
        assert_ne!(
            sim.registers(),
            &registers_before,
            "the successful step advances the state"
        );
    }

    #[test]
    fn independent_state_clocks_are_not_forced_into_lockstep() {
        // Regression: the chained buffer pair has two autonomous flip
        // states in opposite phases.  Ticking every register at once would
        // contradict itself and make the composed kernel permanently
        // unsteppable; per-register ticking must keep it executable.
        let kernel = stdlib::buffer_pair().normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        let mut progressed = false;
        for i in 0..8 {
            let r = sim
                .step(&[
                    ("y", Drive::Available(Value::Int(i))),
                    ("b", Drive::Available(Value::Bool(true))),
                ])
                .expect("the composed kernel stays steppable");
            progressed |= !r.is_silent();
        }
        assert!(progressed, "the buffer pair makes progress");
    }

    #[test]
    fn unknown_signals_are_rejected() {
        let kernel = stdlib::filter().normalize().unwrap();
        let mut sim = Simulator::new(&kernel);
        assert!(matches!(
            sim.step(&[("nope", Drive::Tick)]),
            Err(SimError::UnknownSignal(_))
        ));
    }

    #[test]
    fn silence_is_always_a_legal_reaction() {
        for def in [stdlib::filter(), stdlib::producer(), stdlib::consumer()] {
            let kernel = def.normalize().unwrap();
            let mut sim = Simulator::new(&kernel);
            let r = sim.step(&[]).expect("silent step");
            assert!(r.is_silent());
        }
    }

    #[test]
    fn eval_op_covers_arithmetic_and_logic() {
        assert_eq!(
            eval_op(PrimOp::Add, &[Value::Int(2), Value::Int(3)]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_op(PrimOp::Ne, &[Value::Bool(true), Value::Bool(false)]).unwrap(),
            Value::Bool(true)
        );
        assert!(eval_op(PrimOp::Div, &[Value::Int(1), Value::Int(0)]).is_err());
        assert!(eval_op(PrimOp::And, &[Value::Int(1), Value::Bool(true)]).is_err());
    }
}
