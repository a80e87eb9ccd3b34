//! The static throughput/latency predictor, validated against execution.
//!
//! `Design::performance_prediction` derives — from the same k-periodic
//! clock words that bound the channels — each component's steady-state
//! reactions per environment token, the per-edge traffic, the
//! pipeline-fill latency and the bottleneck edge, all before a single
//! reaction runs.  This suite checks the model in three escalating ways:
//!
//! * **analytic** — on the E13 buffer pipelines the rates are exact:
//!   every stage performs two reactions per environment token, so an
//!   `n`-stage pipeline predicts `2n` reactions per input and a fill
//!   latency of `2(n-1)` instants;
//! * **counted** — the predicted total reaction count matches the
//!   measured `total_reactions` of a real run, exactly (the model and
//!   the machine agree token for token);
//! * **timed** — the acceptance criterion of the predictor: calibrate a
//!   per-reaction cost on one pipeline length, predict the throughput of
//!   *longer* pipelines from statics alone, and require the prediction
//!   to land within 2x of the wall-clock measurement.

mod support;

use polychrony::gals_rt::{ExecutionMode, StopReason};
use polychrony::isochron::library;
use polychrony::moc::Value;
use support::MODES;

#[test]
fn the_pipeline_prediction_matches_the_analytic_rate_model() {
    for n in [1usize, 2, 4, 8] {
        let design = library::buffer_pipeline_design(n).expect("builds");
        let prediction = design.performance_prediction().expect("derives");
        // Each buffer stage reads its input at (10) and emits at (01):
        // two reactions per environment token, one token forwarded.
        assert_eq!(
            prediction.reactions_per_input(),
            (2 * n) as f64,
            "pipe{n} reactions per input"
        );
        for component in &prediction.components {
            assert_eq!(
                component.reactions_per_input, 2.0,
                "{} in pipe{n}",
                component.name
            );
        }
        // Each interior stage delays the first token by two instants.
        assert_eq!(prediction.fill_latency, 2 * (n - 1), "pipe{n} fill latency");
        // Every edge carries exactly one token per input; the bottleneck
        // (if any edge exists) reflects that.
        for edge in &prediction.edges {
            assert_eq!(edge.tokens_per_input, 1.0, "pipe{n} edge {}", edge.signal);
        }
        if n > 1 {
            let bottleneck = prediction.bottleneck().expect("has edges");
            assert_eq!(bottleneck.tokens_per_input, 1.0);
        }
    }
}

#[test]
fn the_multirate_prediction_reflects_the_burst_words() {
    let design = library::multirate_design().expect("builds");
    let prediction = design.performance_prediction().expect("derives");
    // Source and sink are both paced by the same 6-phase ring: one
    // reaction per environment token each.
    assert_eq!(prediction.reactions_per_input(), 2.0);
    // The x edge moves three tokens per six instants.
    let edge = prediction
        .edges
        .iter()
        .find(|e| e.signal.as_str() == "x")
        .expect("x edge predicted");
    assert!((edge.tokens_per_input - 0.5).abs() < 1e-9, "{edge:?}");
    // Under derived sizing the prediction reports the derived capacity.
    assert_eq!(edge.capacity, 3, "k-periodic bound rides into the report");
}

#[test]
fn the_predicted_reaction_count_matches_the_measured_run() {
    const TOKENS: usize = 64;
    for n in [2usize, 4] {
        let design = library::buffer_pipeline_design(n).expect("builds");
        let prediction = design.performance_prediction().expect("derives");
        for mode in MODES {
            let mut deployment = design.deploy_derived().expect("verified");
            deployment.set_execution_mode(mode).expect("valid mode");
            deployment.set_prediction(prediction.clone());
            deployment.feed("p0", (0..TOKENS).map(|i| Value::Int(i as i64)));
            let outcome = deployment.run().expect("the deployment runs");
            let stats = outcome.stats();
            for component in &stats.components {
                assert_ne!(component.stop, StopReason::Deadlocked, "pipe{n}, {mode}");
            }
            let predicted = prediction.predicted_reactions(TOKENS as u64);
            let measured = stats.total_reactions() as f64;
            // The steady-state model is exact on the pipeline; allow the
            // drain of the final partial wave as slop.
            let slop = (2 * n) as f64;
            assert!(
                (measured - predicted).abs() <= slop,
                "pipe{n}, {mode}: predicted {predicted}, measured {measured}"
            );
        }
    }
}

#[test]
fn the_calibrated_throughput_prediction_lands_within_2x_of_e13() {
    // The acceptance gate: calibrate the per-reaction cost on the
    // 2-stage pipeline, then predict the throughput of the 4- and
    // 8-stage pipelines from the static model alone and compare against
    // the measured wall clock under the same scheduler configuration.
    // The host's speed can swing for seconds at a time, so the three
    // lengths run back to back in each round (one swing hits calibration
    // and measurement alike) and each keeps its best round.
    const TOKENS: usize = 256;
    const LENGTHS: [usize; 3] = [2, 4, 8];
    let mode = ExecutionMode::Pool {
        workers: 2,
        quantum: 4,
    };
    let designs = LENGTHS.map(|n| library::buffer_pipeline_design(n).expect("builds"));

    // Per length: (input tokens per second, seconds per reaction).
    let mut best: [Option<(f64, f64)>; 3] = [None; 3];
    for _ in 0..3 {
        for (design, best) in designs.iter().zip(&mut best) {
            let mut deployment = design.deploy_derived().expect("verified");
            deployment.set_execution_mode(mode).expect("valid mode");
            deployment.feed("p0", (0..TOKENS).map(|i| Value::Int(i as i64)));
            let outcome = deployment.run().expect("the deployment runs");
            let stats = outcome.stats();
            let Some(rps) = stats.reactions_per_second() else {
                continue;
            };
            let tokens_per_sec = TOKENS as f64 / stats.elapsed.as_secs_f64();
            if best.is_none_or(|(t, _)| tokens_per_sec > t) {
                *best = Some((tokens_per_sec, 1.0 / rps));
            }
        }
    }
    let best = best.map(|b| b.expect("at least one measurable run"));

    let (_, seconds_per_reaction) = best[0];
    for ((n, design), (measured, _)) in LENGTHS.into_iter().zip(&designs).zip(best).skip(1) {
        let prediction = design.performance_prediction().expect("derives");
        let predicted = prediction
            .predicted_throughput(seconds_per_reaction)
            .expect("positive rate");
        let ratio = predicted / measured;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "pipe{n}: predicted {predicted:.0} tokens/s, measured {measured:.0} \
             tokens/s (ratio {ratio:.2} outside 2x)"
        );
    }
}

#[test]
fn the_prediction_rides_in_the_deployment_stats_report() {
    let design = library::buffer_pipeline_design(2).expect("builds");
    let prediction = design.performance_prediction().expect("derives");
    let mut deployment = design.deploy_derived().expect("verified");
    deployment.set_prediction(prediction);
    deployment.feed("p0", (0..8).map(Value::Int));
    let outcome = deployment.run().expect("the deployment runs");
    let stats = outcome.stats();
    let report = stats.prediction.as_ref().expect("prediction installed");
    assert_eq!(report.reactions_per_input(), 4.0);
    let rendered = stats.to_string();
    assert!(
        rendered.contains("predicted steady state"),
        "stats report the prediction:\n{rendered}"
    );
}
