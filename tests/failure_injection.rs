//! Failure-injection tests: every layer of the stack must report faults —
//! ill-formed processes, violated clock constraints, exhausted input
//! streams, broken compositions — as typed errors, not panics, and keep its
//! state usable afterwards.

use polychrony::clocks::ClockAnalysis;
use polychrony::codegen::{seq, RuntimeError, SequentialRuntime};
use polychrony::isochron::{Design, DesignError};
use polychrony::moc::Value;
use polychrony::signal_lang::{parser, stdlib, Expr, ProcessBuilder, SignalError};
use polychrony::sim::{Drive, SimError, Simulator};

#[test]
fn defining_a_signal_twice_is_rejected() {
    let err = ProcessBuilder::new("twice")
        .define("x", Expr::var("y"))
        .define("x", Expr::var("z"))
        .build()
        .and_then(|def| def.normalize())
        .expect_err("double definition must be rejected");
    assert!(matches!(err, SignalError::MultipleDefinitions(ref n) if n.as_str() == "x"));
    assert!(err.to_string().contains('x'));
}

#[test]
fn hiding_a_never_defined_signal_is_rejected() {
    let err = ProcessBuilder::new("ghost")
        .define("x", Expr::var("y"))
        .hide(["w"])
        .build()
        .expect_err("hiding an undefined signal must be rejected");
    assert!(matches!(err, SignalError::HiddenUndefined(ref n) if n.as_str() == "w"));
}

#[test]
fn parse_errors_carry_a_position() {
    let err = parser::parse_process("process broken (? y ! x)\n  x := when\nend")
        .expect_err("syntax error");
    match err {
        SignalError::Parse { line, column, .. } => {
            assert!(line >= 2, "line {line}");
            assert!(column >= 1);
        }
        other => panic!("expected a parse error, got {other}"),
    }
}

#[test]
fn driving_an_unknown_signal_is_an_error() {
    let kernel = stdlib::filter().normalize().unwrap();
    let mut sim = Simulator::new(&kernel);
    let err = sim
        .step(&[("nosuchsignal", Drive::Present(Value::Bool(true)))])
        .expect_err("unknown signal");
    assert!(matches!(err, SimError::UnknownSignal(_)));
}

#[test]
fn violating_a_clock_constraint_is_reported_and_recoverable() {
    // In the buffer, x (the output) and y (the input) alternate: forcing y
    // present at an x-instant violates ^y = [not t].
    let kernel = stdlib::buffer().normalize().unwrap();
    let mut sim = Simulator::new(&kernel);
    // First instant: t = not s = false, so the buffer reads y.
    sim.step(&[("y", Drive::Present(Value::Bool(true)))])
        .expect("first instant reads y");
    // Second instant: t = true, the buffer emits x and must not read y.
    let err = sim
        .step(&[("y", Drive::Present(Value::Bool(false)))])
        .expect_err("y forced present at an x instant");
    assert!(
        matches!(
            err,
            SimError::ClockConstraintViolation { .. } | SimError::Contradiction { .. }
        ),
        "unexpected error {err}"
    );
    // The simulator state survives: the correct drive still works.
    let reaction = sim.step(&[("y", Drive::Absent)]).expect("recovers");
    assert!(reaction.is_present("x"), "x is emitted after recovery");
}

#[test]
fn exhausted_input_streams_stop_the_generated_code() {
    let analysis = ClockAnalysis::analyze(&stdlib::buffer().normalize().unwrap());
    let mut runtime = SequentialRuntime::new(seq::generate(&analysis));
    runtime.feed("y", [true]);
    // One full write/read cycle works, then the input queue is empty at the
    // next reading instant: the step reports the exhausted stream, exactly
    // like the generated C returning FALSE from `r_buffer_y`.
    let executed = runtime.run(10);
    assert!(executed >= 1);
    let mut saw_exhaustion = false;
    for _ in 0..4 {
        match runtime.step() {
            Ok(_) => {}
            Err(RuntimeError::InputExhausted(signal)) => {
                assert_eq!(signal.as_str(), "y");
                saw_exhaustion = true;
                break;
            }
            Err(other) => panic!("unexpected runtime error {other}"),
        }
    }
    assert!(
        saw_exhaustion,
        "the exhausted input stream must be reported"
    );
}

#[test]
fn empty_designs_and_broken_components_are_rejected() {
    assert!(matches!(
        Design::compose("empty", Vec::<polychrony::signal_lang::ProcessDef>::new()),
        Err(DesignError::Empty)
    ));
    // A component whose normalization fails propagates the Signal error.
    let broken = ProcessBuilder::new("broken")
        .define("x", Expr::var("y"))
        .define("x", Expr::var("z"))
        .build();
    // The builder itself may reject it; if not, Design::compose must.
    if let Ok(def) = broken {
        assert!(matches!(
            Design::compose("bad", [def]),
            Err(DesignError::Signal(_))
        ));
    }
}

#[test]
fn cyclic_and_ill_clocked_compositions_fail_the_criterion_not_the_api() {
    // An instantaneous dependency cycle between two endochronous-looking
    // halves: each is fine alone, the composition is rejected by the
    // acyclicity check but still returns a verdict.
    let left = ProcessBuilder::new("left")
        .define("x", Expr::var("y").add(Expr::cst(1)))
        .input("y")
        .output("x")
        .build()
        .unwrap();
    let right = ProcessBuilder::new("right")
        .define("y", Expr::var("x").add(Expr::cst(1)))
        .input("x")
        .output("y")
        .build()
        .unwrap();
    let design = Design::compose("loop", [left, right]).expect("composes");
    let verdict = design.verdict();
    assert!(!verdict.acyclic);
    assert!(!verdict.weakly_hierarchic);
    assert!(!verdict.isochronous);
}

#[test]
fn deploying_an_unverified_design_is_refused() {
    // A lone default over unrelated inputs is not hierarchic: the design
    // fails the static criterion and the deployment API refuses it.
    let loose = ProcessBuilder::new("loose")
        .define("d", Expr::var("y").default(Expr::var("z")))
        .build()
        .unwrap();
    let design = Design::compose("bad", [loose, stdlib::filter()]).expect("builds");
    let err = design.deploy().expect_err("unverified");
    assert!(matches!(err, DesignError::NotVerified(ref n) if n == "bad"));
    assert!(err.to_string().contains("bad"));
}

#[test]
fn deployment_divergence_of_a_non_isochronous_design_is_detected() {
    // The paper's consumer *without* the clock constraint `^x = [b]` on the
    // shared signal: its generated code falls back to reading x at every
    // step instead of only at the b-true instants.  Deployed asynchronously
    // it pairs the producer's tokens with the wrong instants — exactly the
    // divergence Theorem 1 rules out for verified designs — and the dynamic
    // conformance checker must report it rather than silently accept it.
    let consumer_nosync = ProcessBuilder::new("consumer_nosync")
        .synchro("v", "b")
        .define(
            "v",
            Expr::var("v")
                .pre(0)
                .add(Expr::var("x").default(Expr::cst(1))),
        )
        .inputs(["b", "x"])
        .output("v")
        .build()
        .unwrap();
    let design =
        Design::compose("unsynchronized", [stdlib::producer(), consumer_nosync]).expect("builds");
    assert!(!design.verdict().weakly_hierarchic);
    assert!(matches!(design.deploy(), Err(DesignError::NotVerified(_))));

    // Forcing the deployment anyway: the run completes, but the flows
    // diverge from the synchronous reference and the checker says so.
    let mut deployment = design.deploy_unchecked();
    deployment.feed("a", [true, false, true, false]);
    deployment.feed("b", [false, true, false, true]);
    let outcome = deployment.run().expect("the deployment still runs");
    let report = outcome.check_conformance().expect("reference registered");
    assert!(
        !report.is_isochronous(),
        "the divergence went undetected: {report}"
    );
    assert!(!report.mismatches().is_empty());
    assert!(report.to_string().contains("NOT conformant"));
}

#[test]
fn error_messages_are_lowercase_and_name_the_culprit() {
    let errors: Vec<String> = vec![
        SignalError::MultipleDefinitions("x".into()).to_string(),
        SimError::UnknownSignal("y".into()).to_string(),
        RuntimeError::InputExhausted("z".into()).to_string(),
        DesignError::Empty.to_string(),
        polychrony::gals_rt::DeployError::ZeroCapacity(None).to_string(),
        polychrony::gals_rt::DeployError::ZeroCapacity(Some("w".into())).to_string(),
    ];
    for message in errors {
        let first = message.chars().next().unwrap();
        assert!(
            first.is_lowercase() || !first.is_alphabetic(),
            "error messages start lowercase: {message}"
        );
        assert!(
            !message.ends_with('.'),
            "no trailing punctuation: {message}"
        );
    }
}
