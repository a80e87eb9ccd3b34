//! Conformance fuzzing: proptest-generated designs and environment
//! streams replayed through `Deployment` and the dynamic isochrony
//! checker, under **both** execution modes, with both fixed and
//! clock-derived channel sizing.
//!
//! Every verified scenario must conform (Theorem 1); the deliberately
//! unverified scenario must diverge *detectably* — the checker reports
//! the mismatch instead of silently accepting it.  This is the suite the
//! nightly `fuzz` CI lane cranks up via `PROPTEST_CASES` (the default
//! here is kept small so the tier-1 gate stays fast):
//!
//! ```text
//! PROPTEST_CASES=64 cargo test --test conformance_fuzz
//! ```

mod support;

use polychrony::gals_rt::{Deployment, ExecutionMode, StopReason};
use polychrony::isochron::{design::chain_of_pairs, library, Design};
use polychrony::moc::Value;
use proptest::prelude::*;
use support::bools;

/// The execution modes of this suite: the shared pair, with the pool
/// yielding every 3 reactions instead of 4, so the fuzzed streams meet
/// interleavings the fixed scenarios do not.
const MODES: [ExecutionMode; 2] = support::modes(3);

/// Replays the design under every (mode × sizing) combination and
/// asserts conformance plus deadlock-freedom for each; all runs must
/// observe identical flows.
fn assert_conformant_everywhere(design: &Design, feeds: &[(&str, Vec<Value>)], capacity: usize) {
    // Derive once per case: the clock inference + BDD work is a
    // per-design cost, not a per-combination one.
    let analysis = design.capacity_analysis().expect("the design is verified");
    let mut reference: Option<polychrony::sim::Flows> = None;
    for mode in MODES {
        for derived in [false, true] {
            let mut deployment: Deployment = design.deploy().expect("the design is verified");
            if derived {
                deployment.set_capacity_analysis(&analysis);
            } else {
                deployment.set_capacity(capacity).expect("nonzero");
            }
            deployment.set_execution_mode(mode).expect("valid mode");
            for (signal, values) in feeds {
                deployment.feed(*signal, values.iter().copied());
            }
            let outcome = deployment.run().expect("the deployment runs");
            for component in &outcome.stats().components {
                assert_ne!(
                    component.stop,
                    StopReason::Deadlocked,
                    "{} deadlocked ({mode}, derived {derived})",
                    design.name()
                );
            }
            let report = outcome.check_conformance().expect("reference registered");
            assert!(
                report.is_isochronous(),
                "{} diverged ({mode}, derived {derived}, capacity {capacity}): \
                 {report}\nstats:\n{}",
                design.name(),
                outcome.stats()
            );
            match &reference {
                None => reference = Some(outcome.flows().clone()),
                Some(flows) => assert_eq!(
                    outcome.flows(),
                    flows,
                    "{} observed different flows across combinations",
                    design.name()
                ),
            }
        }
    }
}

/// A parametric multi-rate burst pair under interface abstraction: the
/// source reads `a` every tick of a `k`-phase one-hot ring and emits `x`
/// during phases `1..=h` (word `1^h 0^(k-h)`), the sink reads `x` during
/// phases `k-h+1..=k` (word `0^(k-h) 1^h`) and decimates to `y` on the
/// last phase.  The abstraction hides `x` and every ring, so the global
/// algebra proves nothing about the edge — its bound (`h`, the full
/// burst) comes from the components' local k-periodic words alone.
fn burst_design(k: usize, h: usize) -> Design {
    use polychrony::signal_lang::{stdlib::one_hot_ring, ClockAst, Expr, ProcessBuilder};
    assert!(0 < h && h <= k && 2 <= k);
    let phase_or = |prefix: &str, lo: usize, hi: usize| {
        (lo + 1..=hi).fold(Expr::var(format!("{prefix}{lo}")), |e, i| {
            e.or(Expr::var(format!("{prefix}{i}")))
        })
    };
    let hidden = |prefix: &str, extra: &[&str]| {
        (1..=k)
            .map(|i| format!("{prefix}{i}"))
            .chain(extra.iter().map(|s| (*s).to_string()))
            .collect::<Vec<_>>()
    };
    let source = one_hot_ring(ProcessBuilder::new("burst_source"), "p", k)
        .synchro("a", "w")
        .define("w", phase_or("p", 1, h))
        .define("x", Expr::var("a").when(Expr::var("w")))
        .hide(hidden("p", &["w"]))
        .input("a")
        .output("x")
        .build()
        .expect("well-formed");
    let sink = one_hot_ring(ProcessBuilder::new("burst_sink"), "c", k)
        .define("v", phase_or("c", k - h + 1, k))
        .constraint_eq("x", ClockAst::when_true("v"))
        .define("y", Expr::var("x").when(Expr::var(format!("c{k}"))))
        .hide(hidden("c", &["v"]))
        .input("x")
        .output("y")
        .build()
        .expect("well-formed");
    let main = one_hot_ring(ProcessBuilder::new("burst_main"), "m", k)
        .synchro("a", "g")
        .define("g", phase_or("m", 1, h))
        .define("x", Expr::var("a").when(Expr::var("g")))
        .define("y", Expr::var("x").when(Expr::var(format!("m{h}"))))
        .hide(hidden("m", &["g", "x"]))
        .input("a")
        .output("y")
        .build()
        .expect("well-formed");
    Design::from_parts(main, [source, sink]).expect("weakly hierarchic")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::cases_from_env(16)))]

    /// Buffer pipelines of fuzzed depth forward fuzzed streams unchanged,
    /// conformantly, at fuzzed capacities.
    #[test]
    fn buffer_pipelines_conform(
        n in 1usize..5,
        stream in prop::collection::vec(any::<bool>(), 0..24),
        capacity in 1usize..5,
    ) {
        let design = library::buffer_pipeline_design(n).expect("builds");
        assert_conformant_everywhere(&design, &[("p0", bools(&stream))], capacity);
    }

    /// Multi-rate burst pipelines of fuzzed ring length and burst width
    /// conform on fuzzed streams: the edge bound is the k-periodic
    /// backlog (the full burst), derivable only from the local words,
    /// and the decimated output must still match the synchronous
    /// reference under every mode and sizing.
    #[test]
    fn multirate_burst_pipelines_conform(
        k in 2usize..7,
        width in 1usize..6,
        stream in prop::collection::vec(any::<bool>(), 0..24),
        capacity in 1usize..5,
    ) {
        let h = width.min(k);
        let design = burst_design(k, h);
        assert_conformant_everywhere(&design, &[("a", bools(&stream))], capacity);
    }

    /// The producer/consumer pair conforms on every environment stream
    /// satisfying its coupling `[not a] = [b]` (b drawn as the pointwise
    /// negation of a fuzzed a).
    #[test]
    fn producer_consumer_streams_conform(
        a in prop::collection::vec(any::<bool>(), 0..24),
        capacity in 1usize..5,
    ) {
        let b: Vec<bool> = a.iter().map(|&v| !v).collect();
        let design = library::producer_consumer_design().expect("builds");
        assert_conformant_everywhere(
            &design,
            &[("a", bools(&a)), ("b", bools(&b))],
            capacity,
        );
    }

    /// Chains of producer/consumer pairs conform pair by pair, each pair
    /// on its own fuzzed stream slice.
    #[test]
    fn chains_of_pairs_conform(
        pattern in prop::collection::vec(any::<bool>(), 0..16),
        pairs in 1usize..3,
    ) {
        let design = Design::compose(format!("chain{pairs}"), chain_of_pairs(pairs))
            .expect("builds");
        let negated: Vec<bool> = pattern.iter().map(|&v| !v).collect();
        let mut feeds: Vec<(String, Vec<Value>)> = Vec::new();
        for pair in 0..pairs {
            feeds.push((format!("a{pair}"), bools(&pattern)));
            feeds.push((format!("b{pair}"), bools(&negated)));
        }
        let feeds: Vec<(&str, Vec<Value>)> = feeds
            .iter()
            .map(|(signal, values)| (signal.as_str(), values.clone()))
            .collect();
        assert_conformant_everywhere(&design, &feeds, 2);
    }

    /// The LTTA conforms on fuzzed device activation clocks: the writer
    /// input carries one token per true instant of its fuzzed clock `cw`,
    /// and the reader's clock `cr` is fuzzed independently.
    #[test]
    fn ltta_streams_conform(
        cw in prop::collection::vec(any::<bool>(), 0..24),
        cr in prop::collection::vec(any::<bool>(), 0..24),
    ) {
        let writes = cw.iter().filter(|&&v| v).count() as i64;
        let xw: Vec<Value> = (1..=writes).map(Value::Int).collect();
        let design = library::ltta_design().expect("builds");
        assert_conformant_everywhere(
            &design,
            &[("xw", xw), ("cw", bools(&cw)), ("cr", bools(&cr))],
            1,
        );
    }

    /// The negative control: an unverified design (the consumer without
    /// the `^x = [b]` coupling) must diverge *detectably* — the checker
    /// reports the mismatch under every mode.
    #[test]
    fn divergence_of_an_unverified_design_is_detected(rounds in 2usize..8) {
        use polychrony::signal_lang::{stdlib, Expr, ProcessBuilder};
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
        let design = Design::compose("unsynchronized", [stdlib::producer(), consumer_nosync])
            .expect("builds");
        prop_assert!(!design.verdict().weakly_hierarchic);
        // No capacity bound may be derived from an unverified design.
        prop_assert!(design.capacity_analysis().is_err());
        let a: Vec<bool> = (0..2 * rounds).map(|i| i % 2 == 0).collect();
        let b: Vec<bool> = a.iter().map(|&v| !v).collect();
        for mode in MODES {
            let mut deployment = design.deploy_unchecked();
            deployment.set_execution_mode(mode).expect("valid mode");
            deployment.feed("a", bools(&a));
            deployment.feed("b", bools(&b));
            let outcome = deployment.run().expect("the deployment still runs");
            let report = outcome.check_conformance().expect("reference registered");
            prop_assert!(
                !report.is_isochronous(),
                "the divergence went undetected ({mode}): {report}"
            );
            prop_assert!(!report.mismatches().is_empty());
        }
    }
}
