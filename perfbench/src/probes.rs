//! Host probes and the per-layer micro-measurements every traced run
//! takes: one compiled reaction, one ring hand-off, one wire frame, one
//! credit round trip.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use polychrony::codegen::CompiledRuntime;
use polychrony::gals_net::{Frame, FrameReader, NetReceiver, NetSender, RetryPolicy};
use polychrony::gals_rt::{ring::ring, TokenRx, TokenTx};
use polychrony::gals_serve::affinity;
use polychrony::isochron::library;
use polychrony::signal_lang::Value;

use crate::stats;

/// Repetitions of each micro-measurement; the median is reported.
const REPS: usize = 5;

/// The micro-measurements, shared by every traced run.
#[derive(Clone, Copy)]
pub struct Probes {
    pub step_ns: f64,
    pub handoff_ns: f64,
    pub frame_ns: f64,
    pub credit_rtt_us: f64,
}

fn median_of(mut sample: impl FnMut() -> f64) -> f64 {
    let mut values: Vec<f64> = (0..REPS).map(|_| sample()).collect();
    stats::median(&mut values)
}

pub fn run(scratch: &Path) -> Probes {
    Probes {
        step_ns: median_of(step_ns),
        handoff_ns: median_of(handoff_ns),
        frame_ns: median_of(frame_ns),
        credit_rtt_us: median_of(|| credit_rtt_us(scratch)),
    }
}

/// One reaction of a buffer stage's compiled program, stepped bare.
fn step_ns() -> f64 {
    const TOKENS: i64 = 100_000;
    let design = library::buffer_pipeline_design(1).expect("the one-stage pipeline builds");
    let mut machine = CompiledRuntime::from_program(&design.components()[0].step_program());
    machine.feed("p0", (0..TOKENS).map(Value::Int));
    let start = Instant::now();
    let steps = machine.run(4 * TOKENS as usize);
    let elapsed = start.elapsed();
    assert_eq!(
        machine.output("p1").len(),
        TOKENS as usize,
        "the stage forwards every token"
    );
    elapsed.as_nanos() as f64 / steps.max(1) as f64
}

/// One token through a capacity-1 ring between two threads.
fn handoff_ns() -> f64 {
    const TOKENS: i64 = 100_000;
    let (tx, rx) = ring(1);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..TOKENS {
                tx.send(Value::Int(i))
                    .expect("the receiver outlives the sender");
            }
        });
        for i in 0..TOKENS {
            assert_eq!(rx.recv(), Ok(Value::Int(i)), "the ring keeps order");
        }
    });
    start.elapsed().as_nanos() as f64 / TOKENS as f64
}

/// Encoding one `Data` frame and decoding it back.
fn frame_ns() -> f64 {
    const FRAMES: u64 = 200_000;
    let mut reader = FrameReader::new();
    let start = Instant::now();
    for seq in 0..FRAMES {
        let bytes = Frame::Data {
            seq,
            value: Value::Int(seq as i64),
        }
        .encode();
        reader.push(black_box(&bytes));
        let frame = reader.next_frame().expect("a well-formed frame");
        black_box(frame);
    }
    start.elapsed().as_nanos() as f64 / FRAMES as f64
}

/// One token over a window-1 Unix-socket link: send, receive, and the
/// acknowledgement that frees the next credit.
fn credit_rtt_us(scratch: &Path) -> f64 {
    const TOKENS: i64 = 2_000;
    let path = scratch.join(format!("credit-{}.sock", std::process::id()));
    let rx = NetReceiver::bind(&path, "x", 1).expect("the probe socket binds");
    let tx = NetSender::connect(&path, "x", 1, RetryPolicy::default()).expect("the probe dials");
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..TOKENS {
                tx.send(Value::Int(i))
                    .expect("the receiver outlives the sender");
            }
        });
        for i in 0..TOKENS {
            assert_eq!(rx.recv(), Ok(Value::Int(i)), "the link keeps order");
        }
    });
    let elapsed = start.elapsed();
    drop(rx);
    let _ = std::fs::remove_file(&path);
    elapsed.as_secs_f64() * 1e6 / TOKENS as f64
}

/// Stalls longer than 1 ms seen by a thread spinning on each core, per
/// core-second: a quiet host reads near 0.
pub fn host_stalls_per_s(window: Duration) -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let stalls: u64 = std::thread::scope(|scope| {
        let spinners: Vec<_> = (0..cores)
            .map(|core| {
                scope.spawn(move || {
                    affinity::pin_to_core(core);
                    let start = Instant::now();
                    let mut last = start;
                    let mut stalls = 0u64;
                    while last - start < window {
                        let now = Instant::now();
                        if now - last > Duration::from_millis(1) {
                            stalls += 1;
                        }
                        last = now;
                    }
                    stalls
                })
            })
            .collect();
        spinners
            .into_iter()
            .map(|s| s.join().expect("the spinner does not panic"))
            .sum()
    });
    stalls as f64 / (cores as f64 * window.as_secs_f64())
}

/// The process's peak resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
