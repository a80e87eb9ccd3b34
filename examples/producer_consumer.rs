//! Experiments E8/E9 — the producer/consumer pair of Section 5: separate
//! compilation, controller synthesis and concurrent execution.
//!
//! ```text
//! cargo run --example producer_consumer
//! ```

use polychrony::codegen::controller::{emit_controlled_main_c, ControlledPair, SharedLink};
use polychrony::codegen::{concurrent, seq};
use polychrony::isochron::library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = library::producer_consumer_design()?;
    println!(
        "== Static criterion (Definition 12 / Theorem 1) ==\n{}",
        design.verdict()
    );

    let producer = seq::generate(design.components()[0].analysis());
    let consumer = seq::generate(design.components()[1].analysis());

    // The synthesized controller (Section 5.2).
    println!(
        "== Synthesized controller ==\n{}",
        emit_controlled_main_c(&SharedLink::producer_consumer(), "producer", "consumer")
    );

    // Sequential controlled execution.
    let a = [true, false, true, false, true, true, false];
    let b = [false, true, false, true, false, false, true];
    let mut pair = ControlledPair::new(
        producer.clone(),
        consumer.clone(),
        SharedLink::producer_consumer(),
    );
    pair.feed_left(a);
    pair.feed_right(b);
    pair.run(1000);
    println!(
        "sequential: u = {:?}, x = {:?}, v = {:?} ({} rendez-vous)",
        pair.left_output("u"),
        pair.left_output("x"),
        pair.right_output("v"),
        pair.rendezvous()
    );

    // Concurrent execution: separately deployed components exchanging
    // the shared signal through a one-place channel (Section 5).
    let outcome = concurrent::run_producer_consumer(producer, consumer, &a, &b);
    println!(
        "concurrent: u = {:?}, shared = {:?}, v = {:?}",
        outcome.u, outcome.shared, outcome.v
    );
    assert_eq!(outcome.v, pair.right_output("v"));
    println!("concurrent and sequential flows agree (weak isochrony).");
    Ok(())
}
