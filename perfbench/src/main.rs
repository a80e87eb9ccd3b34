//! The repository's benchmark: one command runs one workload of the
//! verified GALS pipeline (Signal source → verdict → compiled machines →
//! deployed → tokens out), checks its outputs against known answers, and
//! prints its metrics by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-pipe8 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, measured from spans the
//! benchmark records around every call into a layer's public API.  The
//! last line of standard output is the result object; the lines before it
//! are `#`-prefixed human-readable detail (run metadata, every metric with
//! its unit, failed checks).  See `perfbench/README.md` for why each
//! workload exists and which layer metrics should move it.

mod census;
mod designs;
mod metrics;
mod probes;
mod quiet;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// What every workload receives: its seed, its measuring time, whether to
/// trace (with the layer probes a traced run takes first), and a scratch
/// directory inside the working directory.
pub struct Ctx {
    pub seed: u64,
    /// Cores available to the process, read before any thread is pinned.
    pub nproc: usize,
    pub seconds: Duration,
    pub trace: bool,
    pub probes: Option<probes::Probes>,
    pub out_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["batch-pipe8", "serve-64x", "split-uds"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let began = (std::time::Instant::now(), quiet::steal_ticks());
    // Taken before the run, so a run on a noisy host can be told apart
    // from a slow change.
    let stalls_per_s = probes::host_stalls_per_s(Duration::from_millis(250));
    let ctx = Ctx {
        seed: args.seed,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        probes: args.trace.then(|| probes::run(&out_dir)),
        out_dir,
    };
    // Records spans only in the traced stretches of a traced run.
    let mut tr = trace::Tracer::default();
    let mut report = match args.workload.as_str() {
        "batch-pipe8" => workloads::batch::run(&ctx, &mut tr),
        "serve-64x" => workloads::serve::run(&ctx, &mut tr),
        "split-uds" => workloads::split::run(&ctx, &mut tr),
        _ => unreachable!("validated in parse_args"),
    };
    if !report.has_e2e("peak_rss_mb") {
        report.e2e("peak_rss_mb", probes::peak_rss_mb());
    }
    census::run(&ctx, &mut tr, &mut report);
    if ctx.trace {
        workloads::self_time_metrics(&mut report, &tr, &ctx, &args.workload);
    }
    if let Some(probes) = ctx.probes {
        report.layer("host.stalls_per_s", stalls_per_s);
        report.layer("codegen.step_ns", probes.step_ns);
        report.layer("ring.handoff_ns", probes.handoff_ns);
        report.layer("net.frame_ns", probes.frame_ns);
        report.layer("net.credit_rtt_us", probes.credit_rtt_us);
    }
    // The share of the run's CPU time the host stole (see `quiet`).
    let steal_share = quiet::steal_ticks().saturating_sub(began.1) as f64
        / (100.0 * ctx.nproc as f64 * began.0.elapsed().as_secs_f64());
    report.param("host_steal_share", format!("{steal_share:.4}"));
    metrics::print(&args.workload, &ctx, stalls_per_s, &report);
    ExitCode::SUCCESS
}
