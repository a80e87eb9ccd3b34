//! Trickle-fed differential testing of the compiled runtime's suspended
//! reactions against the interpreter (`SequentialRuntime`).
//!
//! A `CompiledRuntime` whose read finds its queue empty keeps the partial
//! reaction and resumes it at that read once fed; the interpreter starts
//! the reaction over.  Both must be indistinguishable.  Every machine here
//! starts with empty queues and is fed exactly one token each time it
//! refuses a step with `NeedInput(port)`, so every read of every reaction
//! is a suspension followed by a resume — the path that
//! `tests/compiled_differential.rs`, which preloads every feed, never
//! takes.  The two machines must agree on every produced flow, on the
//! reaction count, and on the whole sequence of stall boundaries (which
//! port each refusal named, after how many reactions, and how the drive
//! ended); and a refusal must leave every observable of the compiled
//! machine unchanged.
//!
//! The same drive is repeated led by the machine's demand
//! (`StepMachine::demand`), the way the deployment driver feeds a member
//! before stepping it: every demand must name exactly the port the step
//! would refuse on, with nothing observable changed by that refusal, and
//! feeding by demand must reproduce the refusal-driven run.
//!
//! The nightly fuzz lane raises the case count:
//!
//! ```text
//! PROPTEST_CASES=256 cargo test --release --test compiled_resume
//! ```

use std::collections::BTreeMap;

use polychrony::codegen::{signal_types, CompiledRuntime, SequentialRuntime, SigType, StepProgram};
use polychrony::gals_rt::{StepFault, StepMachine};
use polychrony::isochron::{library, Component};
use polychrony::moc::{Name, Value};
use polychrony::signal_lang::stdlib;
use proptest::prelude::*;

/// Every paper process plus the stages of a deployed buffer pipeline, as
/// generated step programs with their inferred interface types.
fn cases() -> Vec<(StepProgram, BTreeMap<Name, SigType>)> {
    stdlib::all_paper_processes()
        .into_iter()
        .chain(library::buffer_pipeline(2))
        .map(|def| {
            let name = def.name.clone();
            let program = Component::new(def)
                .unwrap_or_else(|e| panic!("process {name} fails to analyze: {e}"))
                .step_program();
            let types = signal_types(&program);
            (program, types)
        })
        .collect()
}

/// SplitMix64, so each (seed, process) pair draws its own value stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Random feeds per input port, typed by inference (untyped inputs get
/// `Int`).
fn random_feeds(
    program: &StepProgram,
    types: &BTreeMap<Name, SigType>,
    seed: u64,
    base_len: usize,
) -> Vec<Vec<Value>> {
    let mut state = seed ^ 0x7e57_0f5e_ed00_0000;
    program
        .inputs
        .iter()
        .map(|input| {
            let len = (mix(&mut state) as usize) % (base_len + 1);
            (0..len)
                .map(|_| match types.get(input) {
                    Some(SigType::Bool) => Value::Bool(mix(&mut state) & 1 == 1),
                    _ => Value::Int((mix(&mut state) % 17) as i64 - 8),
                })
                .collect()
        })
        .collect()
}

/// How a trickle-fed drive went: every refusal as (reactions so far,
/// port), how it ended, the reaction count and every output flow.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    stalls: Vec<(u64, usize)>,
    end: End,
    reactions: u64,
    flows: Vec<Vec<Value>>,
}

#[derive(Debug, PartialEq, Eq)]
enum End {
    /// The port whose feed ran out.
    NeedInput(usize),
    Fault,
}

/// Every observable of a machine: its output flows.  (Queue lengths and
/// step counts are checked on the compiled runtime directly.)
fn flows(machine: &dyn StepMachine) -> Vec<Vec<Value>> {
    (0..machine.output_signals().len())
        .map(|port| machine.output(port).to_vec())
        .collect()
}

/// Starts from empty queues and feeds one token per refusal, on the port
/// the refusal names, until a refusal names a port whose feed is spent.
/// Also reports whether some refusal changed what `observe` sees.
fn trickle<M: StepMachine, S: PartialEq>(
    machine: &mut M,
    feeds: &[Vec<Value>],
    observe: impl Fn(&M) -> S,
) -> (Run, bool) {
    let mut cursors = vec![0usize; feeds.len()];
    let mut stalls = Vec::new();
    let mut reactions = 0u64;
    let mut refusals_were_silent = true;
    let end = loop {
        let before = observe(machine);
        match machine.try_step() {
            Ok(()) => reactions += 1,
            Err(StepFault::NeedInput(port)) => {
                refusals_were_silent &= observe(machine) == before;
                stalls.push((reactions, port));
                let Some(&value) = feeds[port].get(cursors[port]) else {
                    break End::NeedInput(port);
                };
                cursors[port] += 1;
                machine.feed(port, value);
            }
            Err(StepFault::Fault(_)) => break End::Fault,
        }
        assert!(
            reactions < 10_000,
            "{} never exhausted its feeds",
            machine.machine_name()
        );
    };
    let run = Run {
        stalls,
        end,
        reactions,
        flows: flows(machine),
    };
    (run, refusals_were_silent)
}

/// [`trickle`], led by the machine's demand: whenever the compiled
/// runtime demands a port, a clone of it must refuse the step with
/// exactly `NeedInput` on that port and change nothing, and the demanded
/// port is fed before the step instead of after the refusal.  The demand
/// counts as the stall it spares.  Also returns how many feeds a demand
/// led.
fn demand_fed(
    machine: &mut CompiledRuntime,
    program: &StepProgram,
    feeds: &[Vec<Value>],
) -> (Run, u64) {
    let mut cursors = vec![0usize; feeds.len()];
    let mut stalls = Vec::new();
    let mut reactions = 0u64;
    let mut demanded = 0u64;
    let end = loop {
        let port = match machine.demand() {
            Some(port) => {
                let mut probe = machine.clone();
                let before = snapshot(&probe, program);
                assert_eq!(machine.pending(program.inputs[port].as_str()), 0);
                assert_eq!(
                    probe.try_step(),
                    Err(StepFault::NeedInput(port)),
                    "{}: the demand named port {port}",
                    program.name
                );
                assert_eq!(snapshot(&probe, program), before, "{}", program.name);
                demanded += 1;
                port
            }
            None => match machine.try_step() {
                Ok(()) => {
                    reactions += 1;
                    continue;
                }
                Err(StepFault::NeedInput(port)) => port,
                Err(StepFault::Fault(_)) => break End::Fault,
            },
        };
        stalls.push((reactions, port));
        let Some(&value) = feeds[port].get(cursors[port]) else {
            break End::NeedInput(port);
        };
        cursors[port] += 1;
        StepMachine::feed(machine, port, value);
        assert!(
            reactions < 10_000,
            "{} never exhausted its feeds",
            program.name
        );
    };
    let run = Run {
        stalls,
        end,
        reactions,
        flows: flows(machine),
    };
    (run, demanded)
}

/// The observables of a compiled runtime a refusal must not change.
fn snapshot(machine: &CompiledRuntime, program: &StepProgram) -> (u64, Vec<usize>, Vec<usize>) {
    (
        machine.steps(),
        program
            .inputs
            .iter()
            .map(|input| machine.pending(input.as_str()))
            .collect(),
        program
            .outputs
            .iter()
            .map(|output| machine.output(output.as_str()).len())
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::cases_from_env(16)))]

    /// Suspending and resuming a compiled reaction at every read is
    /// indistinguishable from the interpreter's restarted reactions.
    #[test]
    fn trickle_fed_compiled_runs_match_the_interpreter(
        seed in any::<u64>(),
        base_len in 0usize..12,
    ) {
        for (program, types) in cases() {
            let feeds = random_feeds(&program, &types, seed, base_len);
            let (reference, _) =
                trickle(&mut SequentialRuntime::new(program.clone()), &feeds, |_| ());
            let (run, silent) = trickle(
                &mut CompiledRuntime::from_program(&program),
                &feeds,
                |machine| snapshot(machine, &program),
            );
            prop_assert!(silent, "{}: a refused step changed observable state", program.name);
            prop_assert_eq!(
                &run,
                &reference,
                "{}: trickle-fed CompiledRuntime diverged from the interpreter on {:?}",
                program.name,
                feeds
            );
        }
    }

    /// A demand names exactly the port the next step would refuse on, and
    /// feeding by demand drives the machine through the same flows,
    /// reactions and stall boundaries as feeding after each refusal.
    #[test]
    fn demand_fed_runs_match_refusal_fed_runs(
        seed in any::<u64>(),
        base_len in 0usize..12,
    ) {
        for (program, types) in cases() {
            let feeds = random_feeds(&program, &types, seed, base_len);
            let (refused, _) =
                trickle(&mut CompiledRuntime::from_program(&program), &feeds, |_| ());
            let (demanded, _) =
                demand_fed(&mut CompiledRuntime::from_program(&program), &program, &feeds);
            prop_assert_eq!(
                &demanded,
                &refused,
                "{}: feeding by demand diverged from feeding by refusal on {:?}",
                program.name,
                feeds
            );
        }
    }

    /// The inherent stepping API suspends too: `step` reports the exhausted
    /// input by name, and a feed by name resumes the reaction.
    #[test]
    fn named_feeds_resume_a_suspended_step(
        seed in any::<u64>(),
        base_len in 0usize..8,
    ) {
        for (program, types) in cases() {
            let feeds = random_feeds(&program, &types, seed, base_len);
            let mut compiled = CompiledRuntime::from_program(&program);
            let mut interpreted = SequentialRuntime::new(program.clone());
            let mut cursors = vec![0usize; feeds.len()];
            let outcome = loop {
                let (a, b) = (compiled.step(), interpreted.step().map(|_| ()));
                prop_assert_eq!(&a, &b, "{}: step outcomes diverge", program.name);
                let Err(polychrony::codegen::RuntimeError::InputExhausted(signal)) = a else {
                    if a.is_err() {
                        break a;
                    }
                    prop_assert!(compiled.steps() < 10_000);
                    continue;
                };
                let port = program.inputs.iter().position(|i| *i == signal).expect("an input");
                let Some(&value) = feeds[port].get(cursors[port]) else {
                    break Err(polychrony::codegen::RuntimeError::InputExhausted(signal));
                };
                cursors[port] += 1;
                compiled.feed(signal.as_str(), [value]);
                interpreted.feed(signal.as_str(), [value]);
            };
            prop_assert!(outcome.is_err());
            prop_assert_eq!(compiled.steps(), interpreted.steps());
            for output in &program.outputs {
                prop_assert_eq!(compiled.output(output.as_str()), interpreted.output(output.as_str()));
            }
        }
    }
}

#[test]
fn a_pipeline_stage_demands_every_read_before_it_refuses_one() {
    // A buffer stage's read phase reads first: each of its reads is known
    // before the attempt, so a demand-led drive names every one of them,
    // the end of the stream included, and never steps into a refusal.
    let stage = library::buffer_pipeline(2)
        .into_iter()
        .next()
        .expect("a stage");
    let program = Component::new(stage).expect("analyzes").step_program();
    let feeds = vec![(0..8).map(|i| Value::Bool(i % 3 == 0)).collect::<Vec<_>>()];
    let (run, demanded) = demand_fed(
        &mut CompiledRuntime::from_program(&program),
        &program,
        &feeds,
    );
    assert_eq!(run.reactions, 16, "{run:?}");
    assert_eq!(
        demanded, 9,
        "eight tokens and the end of the stream: {run:?}"
    );
    assert_eq!(run.stalls.len(), 9, "every stall was a demand: {run:?}");
    assert_eq!(run.end, End::NeedInput(0));
}
