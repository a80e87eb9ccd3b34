//! Helpers shared by the integration suites: the execution modes every
//! deployment scenario replays under, and value-stream constructors.
//!
//! Each suite pulls this in with `mod support;` and uses only part of it.
#![allow(dead_code)]

use polychrony::gals_rt::ExecutionMode;
use polychrony::moc::Value;

/// The execution modes every scenario is replayed under: the classic
/// dedicated-thread mode and a deliberately undersized pool (2 workers,
/// small quantum) that forces component multiplexing and stealing.  The
/// pool is the scheduler that also serves `gals-serve` tenants, so every
/// pool scenario covers the serving path's dispatch, wake and park.
pub const MODES: [ExecutionMode; 2] = modes(4);

/// [`MODES`] with another pool quantum.  The fuzz suite yields every 3
/// reactions so that its interleavings differ from the fixed scenarios'.
pub const fn modes(quantum: u64) -> [ExecutionMode; 2] {
    [
        ExecutionMode::ThreadPerComponent,
        ExecutionMode::Pool {
            workers: 2,
            quantum,
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
