//! The deployment tracing subsystem, end to end: a traced run of a
//! verified design yields a merged per-thread timeline whose timestamps
//! are monotonic per component, whose events balance (every
//! `ReactionBegin` has an `End`, every `BlockedOn` an `Unblocked` or a
//! terminal stop), whose per-edge occupancy high-water marks respect the
//! derived capacity bounds (an empirical witness for the clock calculus),
//! whose drift report agrees with the static performance predictor on the
//! analytic pipelines, and whose Chrome trace-event export is valid JSON.

mod support;

use polychrony::gals_rt::{ExecutionMode, Trace, TraceConfig, TraceEvent};
use polychrony::isochron::{library, Design};
use polychrony::moc::Value;
use proptest::prelude::*;
use support::{bools, MODES};

/// A minimal JSON validity checker (no serde in the offline image): parses
/// the full grammar and panics with position context on the first
/// violation.  Returns the number of elements in the top-level
/// `traceEvents` array when present.
mod json {
    pub fn assert_valid(text: &str) {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        parse_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing garbage at byte {pos}");
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, byte: u8) {
        assert!(
            *pos < bytes.len() && bytes[*pos] == byte,
            "expected {:?} at byte {pos:?}",
            byte as char
        );
        *pos += 1;
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) {
        skip_ws(bytes, pos);
        assert!(*pos < bytes.len(), "unexpected end of input");
        match bytes[*pos] {
            b'{' => parse_object(bytes, pos),
            b'[' => parse_array(bytes, pos),
            b'"' => parse_string(bytes, pos),
            b't' => parse_literal(bytes, pos, b"true"),
            b'f' => parse_literal(bytes, pos, b"false"),
            b'n' => parse_literal(bytes, pos, b"null"),
            _ => parse_number(bytes, pos),
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) {
        expect(bytes, pos, b'{');
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return;
        }
        loop {
            skip_ws(bytes, pos);
            parse_string(bytes, pos);
            skip_ws(bytes, pos);
            expect(bytes, pos, b':');
            parse_value(bytes, pos);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(&b',') => *pos += 1,
                Some(&b'}') => {
                    *pos += 1;
                    return;
                }
                other => panic!("expected ',' or '}}' at byte {pos:?}, found {other:?}"),
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) {
        expect(bytes, pos, b'[');
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return;
        }
        loop {
            parse_value(bytes, pos);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(&b',') => *pos += 1,
                Some(&b']') => {
                    *pos += 1;
                    return;
                }
                other => panic!("expected ',' or ']' at byte {pos:?}, found {other:?}"),
            }
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) {
        expect(bytes, pos, b'"');
        while *pos < bytes.len() {
            match bytes[*pos] {
                b'"' => {
                    *pos += 1;
                    return;
                }
                b'\\' => {
                    *pos += 1;
                    assert!(*pos < bytes.len(), "dangling escape");
                    match bytes[*pos] {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => *pos += 1,
                        b'u' => {
                            assert!(*pos + 4 < bytes.len(), "short unicode escape");
                            for _ in 0..4 {
                                *pos += 1;
                                assert!(
                                    bytes[*pos].is_ascii_hexdigit(),
                                    "bad unicode escape at byte {pos:?}"
                                );
                            }
                            *pos += 1;
                        }
                        other => panic!("bad escape {:?} at byte {pos:?}", other as char),
                    }
                }
                c if c < 0x20 => panic!("raw control byte {c:#x} in string at byte {pos:?}"),
                _ => *pos += 1,
            }
        }
        panic!("unterminated string");
    }

    fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &[u8]) {
        assert!(
            bytes[*pos..].starts_with(literal),
            "bad literal at byte {pos:?}"
        );
        *pos += literal.len();
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let digits = |bytes: &[u8], pos: &mut usize| {
            let from = *pos;
            while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                *pos += 1;
            }
            assert!(*pos > from, "expected digits at byte {:?}", *pos);
        };
        digits(bytes, pos);
        if bytes.get(*pos) == Some(&b'.') {
            *pos += 1;
            digits(bytes, pos);
        }
        if matches!(bytes.get(*pos), Some(&b'e') | Some(&b'E')) {
            *pos += 1;
            if matches!(bytes.get(*pos), Some(&b'+') | Some(&b'-')) {
                *pos += 1;
            }
            digits(bytes, pos);
        }
        assert!(*pos > start, "empty number at byte {:?}", *pos);
    }
}

/// Checks the structural invariants of one merged timeline: monotonic
/// timestamps, balanced reaction pairs, and blocked episodes that close
/// with an `Unblocked` or a terminal stop.
fn assert_timeline_invariants(trace: &Trace, context: &str) {
    for component in trace.components().iter().chain(trace.workers()) {
        let mut last_ts = 0u64;
        let mut in_reaction = false;
        let mut reaction_begins = 0u64;
        let mut reaction_ends = 0u64;
        let mut open_block: Option<&polychrony::moc::Name> = None;
        let mut blocked = 0u64;
        let mut unblocked = 0u64;
        let mut stopped = false;
        for record in component.records() {
            assert!(
                record.ts_ns >= last_ts,
                "{context}: {}: timestamps regress ({} after {last_ts})",
                component.name(),
                record.ts_ns
            );
            last_ts = record.ts_ns;
            assert!(
                !stopped,
                "{context}: {}: event after the terminal stop",
                component.name()
            );
            match &record.event {
                TraceEvent::ReactionBegin => {
                    assert!(
                        !in_reaction,
                        "{context}: {}: nested ReactionBegin",
                        component.name()
                    );
                    in_reaction = true;
                    reaction_begins += 1;
                }
                TraceEvent::ReactionEnd => {
                    assert!(
                        in_reaction,
                        "{context}: {}: ReactionEnd without Begin",
                        component.name()
                    );
                    in_reaction = false;
                    reaction_ends += 1;
                }
                TraceEvent::BlockedOn { signal, .. } => {
                    assert!(
                        open_block.is_none(),
                        "{context}: {}: BlockedOn while an episode is open",
                        component.name()
                    );
                    open_block = Some(signal);
                    blocked += 1;
                }
                TraceEvent::Unblocked { signal } => {
                    assert_eq!(
                        open_block,
                        Some(signal),
                        "{context}: {}: Unblocked without a matching BlockedOn",
                        component.name()
                    );
                    open_block = None;
                    unblocked += 1;
                }
                TraceEvent::Stop { .. } => stopped = true,
                TraceEvent::TokenSent { .. }
                | TraceEvent::TokenReceived { .. }
                | TraceEvent::Dispatch { .. }
                | TraceEvent::Park => {}
            }
        }
        assert_eq!(
            reaction_begins,
            reaction_ends,
            "{context}: {}: unbalanced reactions",
            component.name()
        );
        if component.dropped() == 0 {
            assert_eq!(
                reaction_begins,
                component.reactions(),
                "{context}: {}: timeline disagrees with the exact counter",
                component.name()
            );
        }
        // Every BlockedOn closes with an Unblocked, or terminally: at most
        // one episode may stay open, and only on a stopped component.
        assert!(
            blocked == unblocked || (blocked == unblocked + 1 && stopped),
            "{context}: {}: {blocked} BlockedOn vs {unblocked} Unblocked (stopped: {stopped})",
            component.name()
        );
    }
}

/// Runs the design traced under the given mode and returns the outcome
/// (panics when tracing produced nothing).
fn traced_run(
    design: &Design,
    feeds: &[(&str, Vec<Value>)],
    mode: ExecutionMode,
    derived: bool,
) -> polychrony::gals_rt::DeploymentOutcome {
    let mut deployment = if derived {
        design.deploy_derived().expect("verified design")
    } else {
        design.deploy().expect("verified design")
    };
    deployment.set_execution_mode(mode).expect("valid mode");
    deployment.set_tracing(true);
    for (signal, values) in feeds {
        deployment.feed(*signal, values.iter().copied());
    }
    deployment.run().expect("the deployment runs")
}

#[test]
fn a_traced_pipeline_exports_parseable_chrome_json_within_capacity_bounds() {
    // The acceptance scenario: a verified stdlib pipeline, traced, under
    // both execution modes with derived capacities.
    const TOKENS: usize = 32;
    let n = 4usize;
    let design = library::buffer_pipeline_design(n).expect("builds");
    let stream: Vec<bool> = (0..TOKENS).map(|i| i % 3 == 0).collect();
    for mode in MODES {
        let outcome = traced_run(&design, &[("p0", bools(&stream))], mode, true);
        let trace = outcome.trace().expect("tracing was on");
        assert_timeline_invariants(trace, &format!("pipe{n} {mode}"));
        assert_eq!(trace.dropped(), 0, "default buffers hold this run");

        // The Chrome trace-event export is valid JSON, and carries the
        // thread-name metadata Perfetto uses to label the rows.
        let json = trace.to_chrome_json();
        json::assert_valid(&json);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("stage0"), "component rows labeled");

        // Occupancy witness: the ring reports every edge's high-water
        // mark, and it never exceeds the derived bound.
        let summary = trace.summary();
        assert_eq!(summary.edges.len(), n - 1);
        for edge in &summary.edges {
            let hw = edge.high_water.expect("the ring reports occupancy");
            assert!(
                hw <= edge.capacity,
                "{mode}: edge {} high water {hw} exceeds derived capacity {}",
                edge.signal,
                edge.capacity
            );
            assert_eq!(edge.within_capacity(), Some(true));
            // The pipeline drains completely: every token sent crossed.
            assert_eq!(edge.tokens_sent, TOKENS as u64, "{mode}: {}", edge.signal);
            assert_eq!(edge.tokens_received, TOKENS as u64);
        }
        assert!(summary.occupancy_within_capacity());

        // The summary's exact counters agree with the end-of-run stats.
        let stats = outcome.stats();
        assert_eq!(
            summary.components.iter().map(|c| c.reactions).sum::<u64>(),
            stats.total_reactions()
        );
        assert_eq!(
            summary.edges.iter().map(|e| e.tokens_sent).sum::<u64>(),
            stats.total_tokens()
        );
        assert_eq!(
            summary.edges.iter().map(|e| e.tokens_received).sum::<u64>(),
            stats.total_tokens_received()
        );
        let rendered = stats.to_string();
        assert!(
            rendered.contains("trace:"),
            "the summary rides in the stats report:\n{rendered}"
        );
    }
}

#[test]
fn the_drift_report_matches_the_analytic_pipeline_model() {
    // tests/performance_prediction.rs establishes the analytic facts:
    // every stage of an n-stage buffer pipeline performs exactly 2
    // reactions per environment token and every edge carries exactly 1.
    // The drift report must reproduce them edge by edge: zero edge drift
    // (the pipeline drains completely) and per-component reaction drift
    // within the final partial wave.
    const TOKENS: usize = 64;
    for n in [2usize, 4] {
        let design = library::buffer_pipeline_design(n).expect("builds");
        let prediction = design.performance_prediction().expect("derives");
        let stream: Vec<bool> = (0..TOKENS).map(|i| i % 2 == 0).collect();
        for mode in MODES {
            let outcome = traced_run(&design, &[("p0", bools(&stream))], mode, true);
            let trace = outcome.trace().expect("tracing was on");
            let report = trace.drift_report(&prediction, TOKENS as u64);
            assert_eq!(report.components.len(), n);
            for component in &report.components {
                assert_eq!(
                    component.predicted,
                    (2 * TOKENS) as f64,
                    "pipe{n} {mode}: {} analytic rate",
                    component.name
                );
                assert!(
                    component.drift().abs() <= 2.0,
                    "pipe{n} {mode}: {} predicted {} measured {}",
                    component.name,
                    component.predicted,
                    component.measured
                );
            }
            assert_eq!(report.edges.len(), n - 1);
            for edge in &report.edges {
                assert_eq!(
                    edge.predicted, TOKENS as f64,
                    "pipe{n} {mode}: {}",
                    edge.signal
                );
                assert_eq!(
                    edge.drift(),
                    0.0,
                    "pipe{n} {mode}: edge {} sent {} received {}",
                    edge.signal,
                    edge.sent,
                    edge.received
                );
            }
            assert!(report.within((2 * n) as f64), "pipe{n} {mode}:\n{report}");
            assert_eq!(report.max_edge_drift(), 0.0);
            let rendered = report.to_string();
            assert!(rendered.contains("drift report over 64 input token(s)"));
        }
    }
}

#[test]
fn an_untraced_run_carries_no_trace() {
    let design = library::buffer_pipeline_design(2).expect("builds");
    let mut deployment = design.deploy().expect("verified");
    deployment.feed("p0", [true, false, true].map(Value::Bool));
    assert!(!deployment.tracing());
    let outcome = deployment.run().expect("runs");
    assert!(outcome.trace().is_none());
    assert!(outcome.stats().trace.is_none());
}

#[test]
fn a_tiny_trace_buffer_truncates_the_timeline_but_not_the_aggregates() {
    const TOKENS: usize = 48;
    let design = library::buffer_pipeline_design(3).expect("builds");
    let mut deployment = design.deploy().expect("verified");
    deployment.set_trace_config(TraceConfig { buffer_capacity: 8 });
    deployment.feed("p0", (0..TOKENS).map(|i| Value::Bool(i % 2 == 0)));
    let outcome = deployment.run().expect("runs");
    let trace = outcome.trace().expect("tracing on");
    assert!(trace.dropped() > 0, "48 tokens overflow 8-record buffers");
    for component in trace.components() {
        assert!(component.records().len() <= 8);
    }
    // The summary is computed from the exact aggregates, not the
    // truncated timeline: it still agrees with the end-of-run counters.
    let summary = trace.summary();
    let stats = outcome.stats();
    assert_eq!(
        summary.components.iter().map(|c| c.reactions).sum::<u64>(),
        stats.total_reactions()
    );
    assert_eq!(
        summary.edges.iter().map(|e| e.tokens_received).sum::<u64>(),
        stats.total_tokens_received()
    );
    assert_eq!(summary.dropped, trace.dropped());
    // The truncated timeline still exports valid JSON.
    json::assert_valid(&trace.to_chrome_json());
}

#[test]
fn pool_workers_record_their_scheduling_timeline() {
    let design = library::buffer_pipeline_design(8).expect("builds");
    let mode = ExecutionMode::Pool {
        workers: 2,
        quantum: 4,
    };
    let stream: Vec<bool> = (0..16).map(|i| i % 2 == 0).collect();
    let outcome = traced_run(&design, &[("p0", bools(&stream))], mode, false);
    let trace = outcome.trace().expect("tracing on");
    assert_eq!(trace.workers().len(), 2);
    let dispatch_records: u64 = trace
        .workers()
        .iter()
        .map(|w| {
            w.records()
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::Dispatch { .. }))
                .count() as u64
        })
        .sum();
    if trace.dropped() == 0 {
        assert_eq!(
            dispatch_records,
            outcome.stats().total_dispatches(),
            "every dispatch leaves a record"
        );
    }
    json::assert_valid(&trace.to_chrome_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::cases_from_env(8)))]

    /// The recorder's structural invariants hold on fuzzed verified
    /// pipelines across modes and capacities: merged buffers are
    /// timestamp-monotonic per component, events balance, and every
    /// high-water mark the ring reports respects the resolved capacity.
    #[test]
    fn traced_runs_keep_their_invariants(
        n in 1usize..5,
        stream in prop::collection::vec(any::<bool>(), 0..24),
        capacity in 1usize..5,
        derived in any::<bool>(),
    ) {
        let design = library::buffer_pipeline_design(n).expect("builds");
        for mode in MODES {
            let mut deployment = if derived {
                design.deploy_derived().expect("verified")
            } else {
                let mut d = design.deploy().expect("verified");
                d.set_capacity(capacity).expect("nonzero");
                d
            };
            deployment.set_execution_mode(mode).expect("valid mode");
            deployment.set_tracing(true);
            deployment.feed("p0", bools(&stream));
            let outcome = deployment.run().expect("runs");
            let trace = outcome.trace().expect("tracing on");
            let context = format!("pipe{n} ({mode}, derived {derived}, capacity {capacity})");
            assert_timeline_invariants(trace, &context);
            let summary = trace.summary();
            for edge in &summary.edges {
                if let Some(hw) = edge.high_water {
                    assert!(
                        hw <= edge.capacity,
                        "{context}: edge {} high water {hw} > capacity {}",
                        edge.signal,
                        edge.capacity
                    );
                }
            }
            prop_assert!(summary.occupancy_within_capacity());
            // Exact aggregates agree with the end-of-run counters.
            let stats = outcome.stats();
            prop_assert_eq!(
                summary.components.iter().map(|c| c.reactions).sum::<u64>(),
                stats.total_reactions()
            );
            prop_assert_eq!(
                summary.edges.iter().map(|e| e.tokens_sent).sum::<u64>(),
                stats.total_tokens()
            );
        }
    }

    /// The multirate burst pair (uneven words, derived bound > 1) also
    /// keeps the occupancy witness within its derived capacity.
    #[test]
    fn multirate_traced_runs_respect_their_derived_bounds(
        stream in prop::collection::vec(any::<bool>(), 0..18),
    ) {
        let design = library::multirate_design().expect("builds");
        for mode in MODES {
            let outcome = traced_run(
                &design,
                &[("a", bools(&stream))],
                mode,
                    true,
            );
            let trace = outcome.trace().expect("tracing on");
            assert_timeline_invariants(trace, &format!("multirate {mode}"));
            let summary = trace.summary();
            for edge in &summary.edges {
                // Short streams may never move a token, leaving no
                // occupancy sample; when one exists it obeys the bound.
                if let Some(hw) = edge.high_water {
                    prop_assert!(
                        hw <= edge.capacity,
                        "multirate {}: edge {} high water {} > derived capacity {}",
                        mode, edge.signal, hw, edge.capacity
                    );
                }
                prop_assert!(edge.within_capacity() != Some(false));
            }
        }
    }
}
