//! Helpers shared by the integration suites: the execution modes every
//! deployment scenario replays under, and value-stream constructors.
//!
//! Each suite pulls this in with `mod support;` and uses only part of it.
#![allow(dead_code)]

use polychrony::gals_rt::ExecutionMode;
use polychrony::moc::Value;

/// The two schedules every scenario is replayed under, both on a
/// deliberately undersized pool (2 workers) that forces multiplexing and
/// stealing: a batched quantum, and a quantum of 1, which re-queues an
/// island after every member reaction so that islands interleave as
/// finely as the pool allows.  The pool is the only executor and the
/// scheduler that also serves `gals-serve` tenants, so every scenario
/// covers the serving path's dispatch, wake and park.
pub const MODES: [ExecutionMode; 2] = modes(4);

/// [`MODES`] with another batched quantum.  The fuzz suite yields every 3
/// reactions so that its interleavings differ from the fixed scenarios'.
pub const fn modes(quantum: u64) -> [ExecutionMode; 2] {
    [
        ExecutionMode::Pool {
            workers: 2,
            quantum,
        },
        ExecutionMode::Pool {
            workers: 2,
            quantum: 1,
        },
    ]
}

/// A stream of boolean values.
pub fn bools(values: &[bool]) -> Vec<Value> {
    values.iter().map(|&b| Value::Bool(b)).collect()
}

/// A stream of integer values.
pub fn ints(values: impl IntoIterator<Item = i64>) -> Vec<Value> {
    values.into_iter().map(Value::Int).collect()
}
