//! Metric names, the per-run report, and the result printer.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! crate's tests check the two lists agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::Ctx;

/// End-to-end metrics: every workload reports every one, from untraced
/// runs only.  Per workload, "throughput" is environment tokens delivered
/// at the last stage per second (batch-pipe8, split-uds; on serve-64x at
/// the fixed offered rate, a keep-up check); "latency" is, per token,
/// from its due time to the poll that returns it (serve-64x), or, per
/// job, from wiring the deployment to holding its checked output
/// (batch-pipe8, split-uds).
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run of every workload.  A
/// counter of a run layer the workload does not drive (say `serve.*` on
/// batch-pipe8) reads 0.
pub const LAYERS: [(&str, &str); 54] = [
    ("error_rate", "ratio"),
    ("signal.parse_ms", "ms"),
    ("core.compose_ms", "ms"),
    ("core.capacity_ms", "ms"),
    ("core.predict_ms", "ms"),
    ("codegen.compile_ms", "ms"),
    ("verify.main_ms", "ms"),
    ("verify.filter_merge_ms", "ms"),
    ("verify.ltta_ms", "ms"),
    ("verify.multirate_ms", "ms"),
    ("verify.primed_loop_ms", "ms"),
    ("verify.pipe2_ms", "ms"),
    ("verify.pipe4_ms", "ms"),
    ("verify.pipe8_ms", "ms"),
    ("verify.pipe16_ms", "ms"),
    ("verify.chain1_ms", "ms"),
    ("verify.chain2_ms", "ms"),
    ("verify.chain4_ms", "ms"),
    ("verify.generated_ms", "ms"),
    ("verify.unprimed_loop_ms", "ms"),
    ("verify.loose_default_ms", "ms"),
    ("codegen.step_ns", "ns"),
    ("ring.handoff_ns", "ns"),
    ("net.frame_ns", "ns"),
    ("net.credit_rtt_us", "us"),
    ("host.stalls_per_s", "1/s"),
    ("rt.run_s", "s"),
    ("rt.reactions_per_token", "count"),
    ("rt.blocked_reads_per_token", "count"),
    ("rt.busy_share", "ratio"),
    ("rt.blocked_share", "ratio"),
    ("sched.dispatches_per_token", "count"),
    ("sched.steals_per_token", "count"),
    ("sched.parks_per_token", "count"),
    ("sched.speedup_vs_1w", "ratio"),
    ("acct.predicted_s", "s"),
    ("acct.residual_share", "ratio"),
    ("acct.reactions_per_token_predicted", "count"),
    ("serve.admit_us", "us"),
    ("serve.feed_ns", "ns"),
    ("serve.poll_ns", "ns"),
    ("serve.tail_p99_us", "us"),
    ("serve.tail_max_us", "us"),
    ("serve.over_1ms_share", "ratio"),
    ("client.late_max_us", "us"),
    ("net.plan_ms", "ms"),
    ("net.partition_s", "s"),
    ("self.signal_share", "ratio"),
    ("self.core_share", "ratio"),
    ("self.codegen_share", "ratio"),
    ("self.rt_share", "ratio"),
    ("self.serve_share", "ratio"),
    ("self.net_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Checked operations (designs verified, tokens delivered,
    /// admissions, finishes, conformance replays).
    pub attempted: u64,
    /// Checked operations whose known answer did not hold.
    pub failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    /// Workload parameters, carried in the run metadata.
    params: Vec<(&'static str, String)>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            E2E.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.e2e.insert(name, value);
    }

    pub fn has_e2e(&self, name: &str) -> bool {
        self.e2e.contains_key(name)
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Records a workload parameter for the run metadata.
    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    /// Adds a human-readable line to the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation; a failure is counted and described,
    /// never panicked on, so the run's other metrics still print.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // A broken build can fail every token: keep the first few.
            if self.failed <= 20 {
                self.notes.push(format!("check failed: {}", what()));
            }
        }
    }

    /// Counts `n` checked operations of which `bad` failed.
    pub fn check_many(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.notes
                .push(format!("check failed ({bad} of {n}): {}", what()));
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    E2E.iter()
        .chain(LAYERS.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| *unit)
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; measured values are always finite, anything else is a
/// bug in the benchmark and reads as 0 with a warning line.
fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        println!("# warning: non-finite value {value} reported as 0");
        "0".into()
    }
}

/// The commit being measured, read from `.git` without running git (the
/// benchmark may run in an exported tree, which has none).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "none (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|line| {
            let (rev, name) = line.split_once(' ')?;
            (name == reference).then(|| rev.to_string())
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Prints the metadata, every metric with its unit, the failed checks,
/// and — as the last line — the result object.
pub fn print(workload: &str, ctx: &Ctx, stalls_per_s: f64, report: &Report) {
    let nproc = ctx.nproc;
    let mut meta = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"git_rev\":{},\
         \"profile\":{},\"nproc\":{nproc},\"rustc\":{},\"host_stalls_per_s\":{}",
        json_str(workload),
        ctx.seed,
        ctx.seconds.as_secs(),
        u8::from(ctx.trace),
        json_str(&git_rev()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(env!("PERFBENCH_RUSTC")),
        json_num(stalls_per_s),
    );
    for (name, value) in &report.params {
        let _ = write!(meta, ",{}:{}", json_str(name), json_str(value));
    }
    meta.push('}');
    println!("# meta {meta}");
    for (name, value) in &report.e2e {
        println!("# {name} = {value} {}", unit_of(name));
    }
    for (name, value) in &report.layers {
        println!("# {name} = {value} {}", unit_of(name));
    }
    for line in &report.notes {
        println!("# {line}");
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# error_rate = {error_rate} ({} failed of {} attempted)",
        report.failed, report.attempted
    );

    let mut metrics = String::new();
    let mut emit = |name: &str, value: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        );
    };
    if ctx.trace {
        for (name, unit) in LAYERS {
            let value = match name {
                "error_rate" => error_rate,
                _ => report.layers.get(name).copied().unwrap_or(0.0),
            };
            emit(name, value, unit);
        }
    } else {
        for (name, unit) in E2E {
            let value = *report
                .e2e
                .get(name)
                .unwrap_or_else(|| panic!("workload {workload} did not measure {name}"));
            emit(name, value, unit);
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed
    );
}
