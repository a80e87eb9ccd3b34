//! E9 — Section 5: concurrent code generation.  The producer and the
//! consumer run as separate components of one deployment and exchange the
//! shared variable through a one-place rendez-vous (a slot of their pool
//! island); the benchmark compares this against the sequential controlled
//! execution on the same streams.

use bench::paired_streams;
use clocks::ClockAnalysis;
use codegen::controller::{ControlledPair, SharedLink};
use codegen::{concurrent, seq};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use signal_lang::stdlib;

fn bench(c: &mut Criterion) {
    let producer = seq::generate(&ClockAnalysis::analyze(
        &stdlib::producer().normalize().unwrap(),
    ));
    let consumer = seq::generate(&ClockAnalysis::analyze(
        &stdlib::consumer().normalize().unwrap(),
    ));
    let mut group = c.benchmark_group("e9_concurrent_runtime");
    group.sample_size(10);
    for len in [64usize, 256] {
        let (a, b) = paired_streams(len);
        group.bench_with_input(BenchmarkId::new("sequential", len), &len, |bencher, _| {
            bencher.iter(|| {
                let mut pair = ControlledPair::new(
                    producer.clone(),
                    consumer.clone(),
                    SharedLink::producer_consumer(),
                );
                pair.feed_left(a.iter().copied());
                pair.feed_right(b.iter().copied());
                pair.run(4 * len);
                pair.right_output("v").len()
            })
        });
        group.bench_with_input(BenchmarkId::new("two_threads", len), &len, |bencher, _| {
            bencher.iter(|| {
                let outcome =
                    concurrent::run_producer_consumer(producer.clone(), consumer.clone(), &a, &b);
                outcome.v.len()
            })
        });
    }
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
