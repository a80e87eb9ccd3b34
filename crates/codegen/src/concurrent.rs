//! Concurrent code generation scheme (Section 5).
//!
//! The producer and the consumer are compiled separately and run on their
//! own threads; the rendez-vous on the shared variable is implemented with
//! a synchronization primitive.  The paper protects a shared variable with
//! a pair of pthread barriers; here the pair is deployed on the general
//! multi-threaded GALS engine (`gals_rt`) with the channel capacity set to
//! **one**: a one-place bounded channel realizes the same rendez-vous (the
//! producer blocks until the consumer has taken the previous value and vice
//! versa) without the deadlock pitfalls of mis-matched barrier counts, and
//! the same engine scales the scheme to arbitrary component counts and
//! buffer depths.

use gals_rt::Deployment;
use signal_lang::Value;

use crate::ir::StepProgram;
use crate::runtime::SequentialRuntime;

/// The result of a concurrent producer/consumer run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurrentOutcome {
    /// Values of `u` produced by the producer thread.
    pub u: Vec<Value>,
    /// Values of the shared signal exchanged through the rendez-vous.
    pub shared: Vec<Value>,
    /// Values of `v` produced by the consumer thread.
    pub v: Vec<Value>,
    /// Number of steps executed by the producer thread.
    pub producer_steps: u64,
    /// Number of steps executed by the consumer thread.
    pub consumer_steps: u64,
}

/// Runs the producer and consumer step programs concurrently, the producer
/// paced by `a_values` and the consumer by `b_values`, exchanging the shared
/// signal through a one-place rendez-vous — the `capacity = 1` special case
/// of a [`gals_rt::Deployment`].
///
/// The streams must be *compatible*: the number of `false` values in
/// `a_values` should not be smaller than the number of `true` values in
/// `b_values`, otherwise the consumer stops early when the producer side of
/// the channel closes (which is also how the generated code behaves when an
/// input stream ends).
pub fn run_producer_consumer(
    producer: StepProgram,
    consumer: StepProgram,
    a_values: &[bool],
    b_values: &[bool],
) -> ConcurrentOutcome {
    let mut deployment = Deployment::new();
    deployment
        .set_capacity(1)
        .expect("capacity 1 is always accepted");
    deployment.add_machine(Box::new(SequentialRuntime::new(producer)));
    deployment.add_machine(Box::new(SequentialRuntime::new(consumer)));
    deployment.feed("a", a_values.iter().copied());
    deployment.feed("b", b_values.iter().copied());
    let outcome = deployment
        .run()
        .expect("the producer/consumer pair is a well-formed deployment");
    ConcurrentOutcome {
        u: outcome.flow("u").to_vec(),
        shared: outcome.flow("x").to_vec(),
        v: outcome.flow("v").to_vec(),
        producer_steps: outcome.stats().components[0].reactions,
        consumer_steps: outcome.stats().components[1].reactions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::generate_from_kernel;
    use signal_lang::stdlib;

    fn programs() -> (StepProgram, StepProgram) {
        (
            generate_from_kernel(&stdlib::producer().normalize().unwrap()),
            generate_from_kernel(&stdlib::consumer().normalize().unwrap()),
        )
    }

    #[test]
    fn concurrent_flows_match_the_sequential_controller() {
        let a = [true, false, true, false, true];
        let b = [false, true, false, true, false];
        let (p, c) = programs();
        let outcome = run_producer_consumer(p, c, &a, &b);
        assert_eq!(outcome.shared, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(outcome.u.len(), 3);
        let v: Vec<i64> = outcome.v.iter().map(|x| x.as_int().unwrap()).collect();
        assert_eq!(v, vec![1, 2, 3, 5, 6]);
        assert_eq!(outcome.producer_steps, 5);
        assert_eq!(outcome.consumer_steps, 5);
    }

    #[test]
    fn interleaving_does_not_change_the_flows() {
        // The same logical streams split differently between the two sides:
        // the consumer asks for x long before the producer computes it.
        let a = [true, true, true, false];
        let b = [true, false, false, false];
        let (p, c) = programs();
        let outcome = run_producer_consumer(p, c, &a, &b);
        assert_eq!(outcome.shared, vec![Value::Int(1)]);
        let v: Vec<i64> = outcome.v.iter().map(|x| x.as_int().unwrap()).collect();
        // v = x1, +1, +1, +1 = 1, 2, 3, 4.
        assert_eq!(v, vec![1, 2, 3, 4]);
    }

    #[test]
    fn consumer_stops_cleanly_when_the_producer_cannot_deliver() {
        // b asks for x twice but a only provides one false: the consumer
        // stops after the channel closes.
        let a = [false];
        let b = [true, true, false];
        let (p, c) = programs();
        let outcome = run_producer_consumer(p, c, &a, &b);
        assert_eq!(outcome.shared.len(), 1);
        assert_eq!(outcome.v.len(), 1);
    }

    #[test]
    fn wider_buffers_preserve_the_flows_of_the_rendez_vous() {
        // The rendez-vous is the capacity-1 special case: re-running the
        // same streams through the general engine with a deeper buffer must
        // produce identical flows (only the interleaving changes).
        let a = [true, false, true, false, true, false];
        let b = [false, true, false, true, false, true];
        let (p, c) = programs();
        let narrow = run_producer_consumer(p.clone(), c.clone(), &a, &b);
        let mut deployment = Deployment::new();
        deployment.set_capacity(64).expect("nonzero");
        deployment.add_machine(Box::new(SequentialRuntime::new(p)));
        deployment.add_machine(Box::new(SequentialRuntime::new(c)));
        deployment.feed("a", a.iter().copied());
        deployment.feed("b", b.iter().copied());
        let wide = deployment.run().expect("runs");
        assert_eq!(narrow.u, wide.flow("u").to_vec());
        assert_eq!(narrow.shared, wide.flow("x").to_vec());
        assert_eq!(narrow.v, wide.flow("v").to_vec());
    }
}
