//! E11 — compositionality of the methodology (the paper's `main2`):
//! extending an already-checked design with one more endochronous
//! component, and the cost of checking a design as it grows.
//!
//! `Design::extend` does not reuse the checked design: it recomposes every
//! component from scratch, so it re-analyzes each component and each prefix
//! of the composition (Definition 12), and one extension costs a whole
//! `Design::compose`.  Making it one step — checking the new prefix on
//! interface summaries of the components — is the incremental half of
//! ROADMAP item F.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isochron::design::chain_of_pairs;
use isochron::Design;
use signal_lang::stdlib;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_incremental_composition");
    group.sample_size(10);

    // Extend the producer/consumer design with an extra consumer, as in
    // Section 5.2.
    group.bench_function("extend_main_with_consumer2", |b| {
        let base =
            Design::compose("main", [stdlib::producer(), stdlib::consumer()]).expect("base design");
        let extra =
            stdlib::consumer().instantiate("consumer2", &[("b", "c"), ("x", "v"), ("v", "w")]);
        b.iter(|| {
            let extended = base.extend(extra.clone()).expect("extends");
            assert!(extended.verdict().weakly_hierarchic);
            extended.components().len()
        })
    });

    // Cost of checking a design as a function of its size.
    for n in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("check_chain", n), &n, |b, &n| {
            let components = chain_of_pairs(n);
            b.iter(|| {
                Design::compose(format!("chain{n}"), components.clone())
                    .expect("builds")
                    .verdict()
                    .weakly_hierarchic
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
