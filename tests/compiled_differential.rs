//! Differential testing of the three execution strategies for generated
//! step programs: the tree-walking interpreter (`SequentialRuntime`), the
//! slot-indexed `CompiledRuntime`, and the emitted-Rust machine (the
//! `emit_rust` module compiled with `rustc` and driven over a pipe behind
//! `StepMachine`).
//!
//! Every paper process is driven over proptest-generated feeds by all
//! three machines; they must agree on every produced flow, on the number
//! of completed reactions, and on the stall boundary — which input ran
//! out (`NeedInput`) or whether the step faulted.  The emitted binaries
//! are compiled once per process (a `OnceLock` cache) and respawned per
//! case, so the fuzz loop pays only a process fork.
//!
//! The default case count is kept small (each case drives 15 processes
//! × 3 machines); the nightly fuzz lane cranks it up:
//!
//! ```text
//! PROPTEST_CASES=64 cargo test --test compiled_differential
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use polychrony::codegen::emitted::{compile_binary, EmittedMachine};
use polychrony::codegen::{machine_of, signal_types, SigType, StepProgram};
use polychrony::gals_rt::{MachineKind, StepFault, StepMachine};
use polychrony::isochron::Component;
use polychrony::moc::Value;
use polychrony::signal_lang::stdlib;
use proptest::prelude::*;

/// One process under differential test: its generated step program, the
/// inferred interface types, and the emitted-Rust binary.
struct Case {
    program: StepProgram,
    types: BTreeMap<polychrony::moc::Name, SigType>,
    binary: PathBuf,
}

/// All paper processes, their programs compiled to emitted-Rust binaries
/// exactly once for the whole test binary.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        stdlib::all_paper_processes()
            .into_iter()
            .map(|def| {
                let name = def.name.clone();
                let component = Component::new(def)
                    .unwrap_or_else(|e| panic!("process {name} fails to analyze: {e}"));
                let program = component.step_program();
                let types = signal_types(&program);
                let binary = compile_binary(&program)
                    .unwrap_or_else(|e| panic!("process {name} fails to compile: {e}"));
                Case {
                    program,
                    types,
                    binary,
                }
            })
            .collect()
    })
}

/// How a drive ended: an input ran out, or the step faulted.  Fault
/// *messages* differ across the strategies (the emitted protocol carries
/// none), so only the kind and the stalling signal are compared.
#[derive(Debug, PartialEq, Eq)]
enum Stop {
    NeedInput(String),
    Fault,
}

/// Feeds the machine and steps it to exhaustion; returns the reaction
/// count, the stall boundary, and every produced output flow.
fn drive(
    machine: &mut dyn StepMachine,
    feeds: &[(String, Vec<Value>)],
) -> (u64, Stop, BTreeMap<String, Vec<Value>>) {
    for (signal, values) in feeds {
        for value in values {
            machine.feed_value(signal, *value);
        }
    }
    let mut steps = 0u64;
    let stop = loop {
        match machine.try_step() {
            Ok(()) => steps += 1,
            Err(StepFault::NeedInput(signal)) => break Stop::NeedInput(signal.to_string()),
            Err(StepFault::Fault(_)) => break Stop::Fault,
        }
        assert!(
            steps < 10_000,
            "{} never exhausted its feeds",
            machine.machine_name()
        );
    };
    let flows = machine
        .output_signals()
        .iter()
        .map(|signal| {
            (
                signal.to_string(),
                machine.produced(signal.as_str()).to_vec(),
            )
        })
        .collect();
    (steps, stop, flows)
}

/// SplitMix64, so each (seed, process) pair draws its own value stream
/// without threading the proptest rng through the helper.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Random feeds for the case's inputs, typed by inference.  Untyped
/// (value-polymorphic) inputs are fed `Int` — the emitted-Rust module
/// monomorphizes them to `i64` (the documented fallback), so `Int` is the
/// one value kind all three machines accept there.
fn random_feeds(case: &Case, seed: u64, base_len: usize) -> Vec<(String, Vec<Value>)> {
    let mut state = seed ^ 0x5ca1_ab1e_0000_0000;
    case.program
        .inputs
        .iter()
        .map(|input| {
            let len = (mix(&mut state) as usize) % (base_len + 1);
            let values = (0..len)
                .map(|_| match case.types.get(input) {
                    Some(SigType::Bool) => Value::Bool(mix(&mut state) & 1 == 1),
                    _ => Value::Int((mix(&mut state) % 17) as i64 - 8),
                })
                .collect();
            (input.to_string(), values)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::cases_from_env(8)))]

    /// The interpreter, the compiled runtime and the emitted-Rust machine
    /// observe identical flows, reaction counts and stall boundaries on
    /// every paper process over random typed feeds.
    #[test]
    fn all_three_strategies_agree_on_every_paper_process(
        seed in any::<u64>(),
        base_len in 0usize..10,
    ) {
        for case in cases() {
            let feeds = random_feeds(case, seed, base_len);
            let mut interpreted = machine_of(MachineKind::Interpreted, &case.program);
            let mut compiled = machine_of(MachineKind::Compiled, &case.program);
            let mut emitted = EmittedMachine::spawn(&case.program, &case.binary)
                .expect("the emitted binary spawns");
            let reference = drive(interpreted.as_mut(), &feeds);
            let compiled_run = drive(compiled.as_mut(), &feeds);
            let emitted_run = drive(&mut emitted, &feeds);
            prop_assert_eq!(
                &compiled_run,
                &reference,
                "{}: CompiledRuntime diverged from the interpreter on {:?}",
                case.program.name,
                feeds
            );
            prop_assert_eq!(
                &emitted_run,
                &reference,
                "{}: the emitted-Rust machine diverged from the interpreter on {:?}",
                case.program.name,
                feeds
            );
        }
    }
}
