//! E4 — Section 3: the buffer example through the whole tool chain —
//! inference, hierarchy, disjunctive forms, scheduling, code generation and
//! execution of the generated transition function: interpreted, compiled,
//! and written by hand (`floor_1k`, the paper's `buffer_iterate` as plain
//! Rust — the floor a compiled step is measured against).

use std::collections::VecDeque;

use bench::boolean_flow;
use clocks::ClockAnalysis;
use codegen::{emit, seq, CompiledProgram, CompiledRuntime, SequentialRuntime};
use criterion::{criterion_group, criterion_main, Criterion};
use signal_lang::{stdlib, Value};

/// The buffer's step function written by hand: `s` alternates the read of
/// `y` and the write of `x`, and `e` holds the value in between.
struct HandBuffer {
    s: bool,
    e: Value,
    y: VecDeque<Value>,
    x: Vec<Value>,
}

impl HandBuffer {
    /// One reaction; `false` when the read of `y` finds it empty.
    fn step(&mut self) -> bool {
        let mut r = self.e;
        if self.s {
            match self.y.pop_front() {
                Some(v) => r = v,
                None => return false,
            }
        } else {
            self.x.push(r);
        }
        self.s = !self.s;
        self.e = r;
        true
    }
}

fn bench(c: &mut Criterion) {
    let kernel = stdlib::buffer().normalize().unwrap();
    let mut group = c.benchmark_group("e4_buffer_pipeline");
    group.sample_size(20);

    group.bench_function("clock_analysis", |b| {
        b.iter(|| {
            let a = ClockAnalysis::analyze(&kernel);
            assert!(a.is_endochronous());
            a.hierarchy().class_count()
        })
    });
    group.bench_function("code_generation", |b| {
        let analysis = ClockAnalysis::analyze(&kernel);
        b.iter(|| {
            let program = seq::generate(&analysis);
            emit::emit_c(&program).len()
        })
    });
    group.bench_function("generated_execution_1k", |b| {
        let program = seq::generate(&ClockAnalysis::analyze(&kernel));
        let flow = boolean_flow(512, 4);
        b.iter(|| {
            let mut rt = SequentialRuntime::new(program.clone());
            rt.feed("y", flow.iter().copied());
            rt.run(1024);
            rt.output("x").len()
        })
    });
    group.bench_function("compiled_execution_1k", |b| {
        let program = std::sync::Arc::new(CompiledProgram::compile(&seq::generate(
            &ClockAnalysis::analyze(&kernel),
        )));
        let flow = boolean_flow(512, 4);
        b.iter(|| {
            let mut rt = CompiledRuntime::new(std::sync::Arc::clone(&program));
            rt.feed("y", flow.iter().copied());
            rt.run(1024);
            rt.output("x").len()
        })
    });
    group.bench_function("floor_1k", |b| {
        let flow = boolean_flow(512, 4);
        b.iter(|| {
            let mut rt = HandBuffer {
                s: true,
                e: Value::Bool(false),
                y: flow.iter().copied().map(Value::Bool).collect(),
                x: Vec::new(),
            };
            for _ in 0..1024 {
                if !std::hint::black_box(&mut rt).step() {
                    break;
                }
            }
            rt.x.len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench
}
criterion_main!(benches);
