//! Cross-process GALS: the wire protocol, the partitioner and the socket
//! endpoints of `gals-net`.
//!
//! The contract under test is Theorem 1's medium-independence made
//! executable: frames survive arbitrary re-chunking of the byte stream,
//! the socket observes the ring's close-then-drain semantics, a cut
//! edge's flow-control window is exactly the derived capacity bound, a
//! partitioned run conforms to the synchronous reference of the whole
//! design, every partition runs on the pool with its cut edges linked
//! straight to its components, and a crashed-and-restarted sender resumes
//! without loss or duplication.  (CI's release stress lane re-runs the
//! pooled partition tests and the reconnect test repeatedly with
//! `GALS_TRACE_DIR` set: the link wakes are the raciest code here.)

mod support;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use polychrony::gals_net::runner::run_partition;
use polychrony::gals_net::{
    merge_flows, merged_conformance, plan, plan_with_overrides, Frame, FrameReader, MergedStats,
    NetReceiver, NetSender, PartitionError, RetryPolicy, UdsLinks,
};
use polychrony::gals_rt::ring::ring;
use polychrony::gals_rt::{DeployError, StopReason, TokenRx, TokenTx, TryRecvError, TrySendError};
use polychrony::isochron::library;
use polychrony::moc::{Name, Value};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gals-net-it-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Builds one frame of each kind from drawn words, deterministically.
fn frame_from(kind: u8, a: u64, b: u64, flag: bool) -> Frame {
    match kind % 5 {
        0 => Frame::Hello {
            version: (a % 7) as u16,
            signal: format!("sig{}", b % 100),
            window: a,
            start_seq: b,
        },
        1 => Frame::HelloAck {
            next_expected: a,
            consumed: b,
        },
        2 => Frame::Data {
            seq: a,
            value: if flag {
                Value::Bool(b.is_multiple_of(2))
            } else {
                Value::Int(b as i64)
            },
        },
        3 => Frame::Ack { consumed: a },
        _ => Frame::Close { final_seq: a },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of frames, encoded back to back and delivered in
    /// arbitrary-sized chunks (including single bytes and chunks spanning
    /// frame boundaries), decodes to exactly the sent sequence.
    #[test]
    fn frames_survive_arbitrary_rechunking(
        kinds in prop::collection::vec(any::<u8>(), 1..10),
        words in prop::collection::vec(any::<u64>(), 20..21),
        flags in prop::collection::vec(any::<bool>(), 10..11),
        chunk in 1usize..23,
    ) {
        let frames: Vec<Frame> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| frame_from(k, words[i % words.len()], words[(i + 7) % words.len()], flags[i % flags.len()]))
            .collect();
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.extend_from_slice(&frame.encode());
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for piece in bytes.chunks(chunk) {
            reader.push(piece);
            while let Some(frame) = reader.next_frame().expect("well-formed bytes") {
                decoded.push(frame);
            }
        }
        prop_assert!(reader.at_boundary(), "stream must end on a frame boundary");
        prop_assert_eq!(decoded, frames);
    }
}

/// Both endpoint media — the in-process SPSC ring and the socket speaking
/// the wire protocol — observe the same close-then-drain sequence:
/// buffered tokens survive the producer's close, and only the drained
/// buffer reports the channel closed.
#[test]
fn every_transport_observes_close_then_drain() {
    let (tx, rx) = ring(4);
    assert_close_then_drain("ring", tx, &rx);
    let dir = temp_dir("drain");
    let path = dir.join("x.sock");
    let rx = NetReceiver::bind(&path, "x", 4).expect("binds");
    let tx = NetSender::connect(&path, "x", 4, RetryPolicy::default()).expect("dials");
    assert_close_then_drain("socket", tx, &rx);
    drop(rx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends three tokens, closes the sender and drains the receiver.
fn assert_close_then_drain(medium: &str, tx: impl TokenTx, rx: &impl TokenRx) {
    for i in 0..3 {
        tx.send(Value::Int(i)).expect("receiver alive");
    }
    drop(tx);
    let mut observed = Vec::new();
    while let Ok(value) = rx.recv() {
        observed.push(value);
    }
    assert_eq!(
        observed,
        (0..3).map(Value::Int).collect::<Vec<_>>(),
        "{medium}: buffered tokens must survive the close"
    );
    assert_eq!(
        rx.try_recv(),
        Err(TryRecvError::Closed),
        "{medium}: a drained closed channel stays closed"
    );
}

/// The flow-control window of every cut edge is exactly the capacity
/// bound the clock calculus derived for it — the acceptance criterion of
/// the distributed subsystem, asserted directly.
#[test]
fn every_cut_window_equals_the_derived_bound() {
    let design = library::buffer_pipeline_design(4).expect("builds");
    let analysis = design.capacity_analysis().expect("verified");
    let plan = plan(&design, &[0, 0, 1, 1]).expect("plans");
    assert_eq!(plan.processes(), 2);
    assert!(!plan.cuts().is_empty(), "the assignment cuts an edge");
    for cut in plan.cuts() {
        let derived = analysis.bound_for(&cut.signal).expect("bounded edge");
        assert_eq!(
            cut.window, derived.bound,
            "cut {}: window must equal the derived bound",
            cut.signal
        );
    }
    // The same override-beats-derivation rule as the in-process policy.
    let mut overrides = BTreeMap::new();
    let cut_signal = plan.cuts()[0].signal.clone();
    overrides.insert(cut_signal.clone(), 7usize);
    let overridden = plan_with_overrides(&design, &[0, 0, 1, 1], &overrides).expect("plans");
    let cut = overridden
        .cuts()
        .iter()
        .find(|c| c.signal == cut_signal)
        .expect("still cut");
    assert_eq!(
        cut.window, 7,
        "an explicit override wins over the derivation"
    );
    // A zero window could never pass a token: planning refuses it with
    // the error an in-process zero capacity gets.
    overrides.insert(cut_signal.clone(), 0);
    let err = plan_with_overrides(&design, &[0, 0, 1, 1], &overrides).unwrap_err();
    assert_eq!(
        err,
        PartitionError::Deploy(DeployError::ZeroCapacity(Some(cut_signal)).to_string())
    );
}

/// A four-stage pipeline split across two partitions over real Unix
/// domain sockets: the merged flows pass the end-to-end conformance
/// check against the synchronous reference of the whole design, and the
/// cut signal's two observations agree.
#[test]
fn a_partitioned_pipeline_conforms_over_real_sockets() {
    let design = library::buffer_pipeline_design(4).expect("builds");
    let plan = plan(&design, &[0, 0, 1, 1]).expect("plans");
    let stream = [true, false, true, true, false, false, true, false];
    let mut feeds: BTreeMap<Name, Vec<Value>> = BTreeMap::new();
    feeds.insert(
        Name::from("p0"),
        stream.iter().map(|&b| Value::Bool(b)).collect(),
    );
    let dir = temp_dir("partition");
    let reports: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.processes())
            .map(|process| {
                let (design, plan, feeds, dir) = (&design, &plan, &feeds, &dir);
                scope.spawn(move || {
                    let links = UdsLinks::new(dir);
                    run_partition(design, plan, process, &links, feeds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partition thread").expect("partition runs"))
            .collect()
    });
    let merged = MergedStats::merge(reports).expect("flows agree on the cut");
    assert_eq!(merged.reports.len(), 2);
    let report = merged_conformance(&design, &feeds, &merged.flows);
    assert!(report.is_isochronous(), "{report}");
    // The pipeline is a FIFO: the last stage re-emits the stream, across
    // the process boundary.
    assert_eq!(
        merged.flows.get(&Name::from("p4")).map(Vec::as_slice),
        Some(
            stream
                .iter()
                .map(|&b| Value::Bool(b))
                .collect::<Vec<_>>()
                .as_slice()
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A two-way cut on the pool: the primed loop split `[0 | 1]` puts `p0`
/// and `p1` on links in opposite directions, so each partition's only
/// island both waits on an incoming link and publishes into an outgoing
/// one's credit window — where a step blocking on the medium would stall
/// its island for good.  Under each schedule both partitions run to a
/// step budget, and the merged cut flows are prefixes of an in-process
/// run.  A lost wake parks an island forever: a 30 s watchdog fails it.
#[test]
fn a_two_way_cut_runs_both_partitions_on_the_pool() {
    const STEPS: u64 = 200;
    let design = library::primed_loop_design().expect("builds");
    let mut in_process = design.deploy_derived().expect("verified");
    in_process.set_max_steps(2 * STEPS).expect("nonzero");
    let in_process = in_process.run().expect("runs");
    let plan = plan(&design, &[0, 1]).expect("plans");
    assert_eq!(plan.cuts().len(), 2, "one link each way");
    for mode in support::MODES {
        let dir = temp_dir("two-way");
        let (tx, rx) = mpsc::channel();
        for process in 0..plan.processes() {
            let (plan, dir, tx) = (plan.clone(), dir.clone(), tx.clone());
            thread::spawn(move || {
                let design = library::primed_loop_design().expect("builds");
                let mut deployment = plan
                    .deployment(&design, process, &UdsLinks::new(dir))
                    .expect("links");
                deployment.set_execution_mode(mode).expect("valid mode");
                deployment.set_max_steps(STEPS).expect("nonzero");
                let _ = tx.send(deployment.run().expect("the partition runs"));
            });
        }
        let flows: Vec<_> = (0..plan.processes())
            .map(|_| {
                let outcome = rx
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|e| {
                        panic!("{mode}: a partition never stopped, a wake was lost ({e})")
                    });
                let stops: Vec<_> = outcome.stats().components.iter().map(|c| &c.stop).collect();
                assert_eq!(stops, [&StopReason::StepLimit], "{mode}");
                outcome.flows().clone()
            })
            .collect();
        // Each partition observed both cut signals, one as its output and
        // one as taken from its link; the merge cross-checks the copies.
        let merged = merge_flows(&flows).expect("both copies of each cut signal agree");
        for signal in [Name::from("p0"), Name::from("p1")] {
            assert!(
                flows.iter().all(|part| part.contains_key(&signal)),
                "{mode}"
            );
            let got = &merged[&signal];
            assert_eq!(got.len() as u64, STEPS / 2, "{mode}: {signal}");
            assert_eq!(
                got.as_slice(),
                &in_process.flow(signal.as_str())[..got.len()]
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The reconnect path: a sender dies mid-stream without the closing
/// handshake (the wire's `SIGKILL`), a fresh sender replays the stream
/// from the beginning, and the receiver still observes every token
/// exactly once — idempotent resume via the per-edge sequence numbers.
#[test]
fn a_restarted_sender_resumes_without_loss_or_duplication() {
    let dir = temp_dir("resume");
    let path = dir.join("x.sock");
    let rx = NetReceiver::bind(&path, "x", 3).expect("binds");
    let tx = NetSender::connect(&path, "x", 3, RetryPolicy::default()).expect("dials");
    let stream: Vec<Value> = (0..12).map(Value::Int).collect();
    // First life: a prefix is sent, part of it consumed, then the sender
    // vanishes without a Close frame.
    for value in &stream[..3] {
        tx.send(*value).expect("receiver alive");
    }
    assert_eq!(rx.recv(), Ok(stream[0]));
    assert_eq!(rx.recv(), Ok(stream[1]));
    tx.abandon();
    assert_eq!(tx.try_send(Value::Int(99)), Err(TrySendError::Closed));
    drop(tx);
    // Second life: the restarted producer replays the whole stream; the
    // handshake watermark makes the overlap idempotent.  The consumer
    // drains concurrently — the credit window (3) is far smaller than the
    // stream, so the producer must block on it repeatedly.
    let tx2 = NetSender::connect(&path, "x", 3, RetryPolicy::default()).expect("redials");
    let replay = stream.clone();
    let producer = thread::spawn(move || {
        for value in &replay {
            tx2.send(*value).expect("receiver alive");
        }
    });
    let mut rest = vec![stream[0], stream[1]];
    while let Ok(value) = rx.recv() {
        rest.push(value);
    }
    producer.join().expect("producer thread");
    assert_eq!(rest, stream, "no loss, no duplication, order preserved");
    assert!(rx.fault().is_none(), "clean resume leaves no fault");
    drop(rx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A partition plan refuses an out-of-range process and a short
/// assignment with typed errors, and reports its cut topology.
#[test]
fn malformed_partition_requests_are_typed_errors() {
    let design = library::buffer_pipeline_design(2).expect("builds");
    let err = plan(&design, &[0]).expect_err("wrong length");
    assert!(err.to_string().contains("assignment"), "{err}");
    let err = plan(&design, &[0, 2]).expect_err("gap in process ids");
    assert!(err.to_string().contains("owns no component"), "{err}");
}
