//! A lock-free fixed-capacity SPSC ring buffer for [`Value`] tokens.
//!
//! The ring carries what a deployment mints to cross threads: a staged
//! deployment's ingress and egress, between the client and the pool.  An
//! edge between two components is a plain slot of the island both of its
//! ends run in instead (see `crate::worker`).  Every channel has one
//! producer and one consumer, so the general mpsc machinery — and its
//! per-operation mutex in `std::sync::mpsc` — would be pure overhead.
//! This ring exploits the SPSC restriction:
//!
//! * `head` and `tail` are monotonically increasing atomic counters, each
//!   written by exactly one side; a send is one slot write plus one
//!   `Release` store, a receive one slot read plus one `Release` store —
//!   no locks, no syscalls while tokens flow;
//! * [`Value`] is a `Copy` sum of `bool` and `i64`, so a slot is a pair of
//!   `AtomicU64`s (tag + payload) and the whole ring is safe code — the
//!   crate-level `#![forbid(unsafe_code)]` stands;
//! * a side finding the ring full/empty waits in three escalating phases:
//!   spin (skipped on single-core machines, where busy-waiting only delays
//!   the peer), `yield_now` (a scheduling hand-off to the runnable peer —
//!   the common case of a capacity-1 ping-pong), and finally a park on a
//!   `Condvar` that the peer only touches when someone is actually parked
//!   (a `SeqCst` handshake avoids lost wakeups; a 1 ms park bound makes
//!   even a hypothetically missed notify a stall, never a hang);
//! * dropping either endpoint closes the ring: a parked or later `send`
//!   observes [`ChannelClosed`] immediately, a `recv` after the buffered
//!   tokens are drained (close-then-drain, like `std::sync::mpsc`).

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use signal_lang::Value;

use crate::channel::{ChannelClosed, TokenRx, TokenTx, TryRecvError, TrySendError};

/// Spins before yielding: a handful of iterations rides out the common
/// case where the peer is mid-operation **on another core**.  On a
/// single-core machine the peer cannot make progress while we spin, so
/// the spin phase is skipped entirely (see [`spin_limit`]).
const SPIN_LIMIT: u32 = 128;

/// `yield_now` calls before parking.  A capacity-1 ring ping-pongs one
/// token per scheduling hand-off; yielding to the runnable peer costs a
/// fraction of a futex sleep/wake round, so the park below is the cold
/// path reserved for genuinely idle peers.
const YIELD_LIMIT: u32 = 64;

/// The spin budget, computed once: zero on single-core machines (where
/// busy-waiting only delays the peer), [`SPIN_LIMIT`] elsewhere.  The
/// pool's hot wait after a dispatch spins the same budget.
pub(crate) fn spin_limit() -> u32 {
    static LIMIT: OnceLock<u32> = OnceLock::new();
    *LIMIT.get_or_init(|| match std::thread::available_parallelism() {
        Ok(cores) if cores.get() > 1 => SPIN_LIMIT,
        _ => 0,
    })
}

/// Upper bound on one park: a missed wakeup (ruled out by the `SeqCst`
/// handshake, but cheap to insure against) costs a retry, not a hang.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

const TAG_BOOL: u64 = 0;
const TAG_INT: u64 = 1;

fn encode(token: Value) -> (u64, u64) {
    match token {
        Value::Bool(b) => (TAG_BOOL, u64::from(b)),
        Value::Int(i) => (TAG_INT, i as u64),
    }
}

fn decode(tag: u64, bits: u64) -> Value {
    if tag == TAG_INT {
        Value::Int(bits as i64)
    } else {
        Value::Bool(bits != 0)
    }
}

/// One ring slot: the token's tag and payload.  `Relaxed` slot accesses
/// are published by the `Release`/`Acquire` pair on `tail`.
struct Slot {
    tag: AtomicU64,
    bits: AtomicU64,
}

struct Shared {
    slots: Box<[Slot]>,
    /// Next slot to read; written only by the consumer.
    head: AtomicUsize,
    /// Next slot to write; written only by the producer.  The counters
    /// increase monotonically (indices are taken modulo the capacity), so
    /// `tail - head` is the occupancy.  A counter wrapping `usize::MAX`
    /// keeps the occupancy arithmetic correct (`wrapping_sub`), but for a
    /// non-power-of-two capacity the slot mapping would alias across the
    /// wrap; at one token per nanosecond that point is ~584 years away, so
    /// a channel is assumed to carry fewer than 2^64 tokens over its life.
    tail: AtomicUsize,
    tx_dropped: AtomicBool,
    rx_dropped: AtomicBool,
    /// How many threads are parked (0..=2).  The fast path only takes the
    /// mutex when this is nonzero.
    parked: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Notifies the peer after a state change, but only pays for the mutex
    /// when someone is parked.  The `SeqCst` fence pairs with the one in
    /// [`block_until`](Self::block_until): either this side sees `parked >
    /// 0` and notifies under the lock, or the parking side's re-check sees
    /// the state change and never sleeps.
    fn wake_peer(&self) {
        fence(SeqCst);
        if self.parked.load(Relaxed) > 0 {
            let _guard = self.lock();
            self.wake.notify_all();
        }
    }

    /// Unconditional wake for close paths (the peer may be parking right
    /// now).
    fn wake_always(&self) {
        let _guard = self.lock();
        self.wake.notify_all();
    }

    /// Spin, then yield, then park until `ready()` holds.  `ready` must
    /// read the shared state with at least `Acquire` ordering.
    fn block_until(&self, ready: impl Fn() -> bool) {
        for _ in 0..spin_limit() {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELD_LIMIT {
            if ready() {
                return;
            }
            std::thread::yield_now();
        }
        let mut guard = self.lock();
        self.parked.fetch_add(1, SeqCst);
        loop {
            fence(SeqCst);
            if ready() {
                break;
            }
            let (next, _timed_out) = self
                .wake
                .wait_timeout(guard, PARK_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner());
            guard = next;
        }
        self.parked.fetch_sub(1, SeqCst);
    }
}

/// Creates a connected SPSC ring of `capacity` slots.
///
/// # Panics
///
/// Panics when `capacity` is 0 (`Deployment::set_stream_capacity`
/// rejects zero before it can reach a ring).
pub fn ring(capacity: usize) -> (RingSender, RingReceiver) {
    assert!(capacity > 0, "an SPSC ring needs at least one slot");
    let slots = (0..capacity)
        .map(|_| Slot {
            tag: AtomicU64::new(0),
            bits: AtomicU64::new(0),
        })
        .collect();
    let shared = Arc::new(Shared {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        tx_dropped: AtomicBool::new(false),
        rx_dropped: AtomicBool::new(false),
        parked: AtomicUsize::new(0),
        lock: Mutex::new(()),
        wake: Condvar::new(),
    });
    (
        RingSender {
            shared: Arc::clone(&shared),
            _single_thread: PhantomData,
        },
        RingReceiver {
            shared,
            _single_thread: PhantomData,
        },
    )
}

/// The producing endpoint of an SPSC ring.  Deliberately neither `Clone`
/// nor `Sync` (the `PhantomData<Cell<()>>` marker suppresses the auto
/// impl while keeping `Send`): exactly one thread may send, which is what
/// lets `send` read `tail` relaxed as its private counter.
pub struct RingSender {
    shared: Arc<Shared>,
    _single_thread: PhantomData<Cell<()>>,
}

impl RingSender {
    /// Delivers one token, blocking (spin, yield, park) while the ring is
    /// full.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelClosed`] when the receiver is gone — including
    /// while blocked on a full ring (the close unparks this side).
    pub fn send(&self, token: Value) -> Result<(), ChannelClosed> {
        let shared = &*self.shared;
        let capacity = shared.slots.len();
        // Single producer: this thread is the only writer of `tail`.
        let tail = shared.tail.load(Relaxed);
        loop {
            if shared.rx_dropped.load(Acquire) {
                return Err(ChannelClosed);
            }
            let head = shared.head.load(Acquire);
            if tail.wrapping_sub(head) < capacity {
                let slot = &shared.slots[tail % capacity];
                let (tag, bits) = encode(token);
                slot.tag.store(tag, Relaxed);
                slot.bits.store(bits, Relaxed);
                // Publishes the slot contents to the consumer's Acquire
                // load of `tail`.
                shared.tail.store(tail.wrapping_add(1), Release);
                shared.wake_peer();
                return Ok(());
            }
            shared.block_until(|| {
                shared.head.load(Acquire) != head || shared.rx_dropped.load(Acquire)
            });
        }
    }

    /// Delivers one token without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TrySendError::Full`] when every slot is occupied and
    /// [`TrySendError::Closed`] when the receiver is gone.
    pub fn try_send(&self, token: Value) -> Result<(), TrySendError> {
        let shared = &*self.shared;
        let capacity = shared.slots.len();
        if shared.rx_dropped.load(Acquire) {
            return Err(TrySendError::Closed);
        }
        // Single producer: this thread is the only writer of `tail`.
        let tail = shared.tail.load(Relaxed);
        let head = shared.head.load(Acquire);
        if tail.wrapping_sub(head) >= capacity {
            return Err(TrySendError::Full);
        }
        let slot = &shared.slots[tail % capacity];
        let (tag, bits) = encode(token);
        slot.tag.store(tag, Relaxed);
        slot.bits.store(bits, Relaxed);
        // Publishes the slot contents to the consumer's Acquire load of
        // `tail`.
        shared.tail.store(tail.wrapping_add(1), Release);
        shared.wake_peer();
        Ok(())
    }

    /// The fixed slot count of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// How many tokens are currently buffered.
    pub fn len(&self) -> usize {
        let shared = &*self.shared;
        shared
            .tail
            .load(Acquire)
            .wrapping_sub(shared.head.load(Acquire))
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the receiving endpoint has been dropped.
    pub fn is_closed(&self) -> bool {
        self.shared.rx_dropped.load(Acquire)
    }
}

impl Drop for RingSender {
    fn drop(&mut self) {
        self.shared.tx_dropped.store(true, SeqCst);
        self.shared.wake_always();
    }
}

impl TokenTx for RingSender {
    fn send(&self, token: Value) -> Result<(), ChannelClosed> {
        RingSender::send(self, token)
    }

    fn try_send(&self, token: Value) -> Result<(), TrySendError> {
        RingSender::try_send(self, token)
    }

    fn occupancy(&self) -> Option<usize> {
        // `tail` is this thread's private counter and `head` only grows,
        // so the snapshot is exact-or-stale-high on the head side and can
        // never exceed the ring capacity.
        Some(self.len())
    }
}

/// The consuming endpoint of an SPSC ring.  Deliberately neither `Clone`
/// nor `Sync` (the `PhantomData<Cell<()>>` marker suppresses the auto
/// impl while keeping `Send`): exactly one thread may receive, which is
/// what lets `poll` read `head` relaxed as its private counter.
pub struct RingReceiver {
    shared: Arc<Shared>,
    _single_thread: PhantomData<Cell<()>>,
}

/// Outcome of one non-blocking poll of the ring.
enum Poll {
    Ready(Value),
    Empty,
    Closed,
}

impl RingReceiver {
    fn poll(&self) -> Poll {
        let shared = &*self.shared;
        let capacity = shared.slots.len();
        // Single consumer: this thread is the only writer of `head`.
        let head = shared.head.load(Relaxed);
        loop {
            if shared.tail.load(Acquire) != head {
                let slot = &shared.slots[head % capacity];
                let token = decode(slot.tag.load(Relaxed), slot.bits.load(Relaxed));
                // Releases the slot back to the producer.
                shared.head.store(head.wrapping_add(1), Release);
                shared.wake_peer();
                return Poll::Ready(token);
            }
            if !shared.tx_dropped.load(Acquire) {
                return Poll::Empty;
            }
            // The producer is gone, but it may have published a last token
            // between the emptiness check and the flag load: loop once
            // more so close-then-drain never loses a token.
            if shared.tail.load(Acquire) == head {
                return Poll::Closed;
            }
        }
    }

    /// Takes the next token, blocking (spin, yield, park) while the ring is
    /// empty.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelClosed`] once the ring is drained and the sender
    /// is gone — including while blocked on an empty ring (the close
    /// unparks this side).
    pub fn recv(&self) -> Result<Value, ChannelClosed> {
        let shared = &*self.shared;
        loop {
            match self.poll() {
                Poll::Ready(token) => return Ok(token),
                Poll::Closed => return Err(ChannelClosed),
                Poll::Empty => {
                    let head = shared.head.load(Relaxed);
                    shared.block_until(|| {
                        shared.tail.load(Acquire) != head || shared.tx_dropped.load(Acquire)
                    });
                }
            }
        }
    }

    /// Takes the next token without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] while the producer may still deliver,
    /// [`TryRecvError::Closed`] once the ring is drained and closed.
    pub fn try_recv(&self) -> Result<Value, TryRecvError> {
        match self.poll() {
            Poll::Ready(token) => Ok(token),
            Poll::Empty => Err(TryRecvError::Empty),
            Poll::Closed => Err(TryRecvError::Closed),
        }
    }

    /// The fixed slot count of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// How many tokens are currently buffered.
    pub fn len(&self) -> usize {
        let shared = &*self.shared;
        shared
            .tail
            .load(Acquire)
            .wrapping_sub(shared.head.load(Acquire))
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the sending endpoint has been dropped (buffered tokens may
    /// remain receivable).
    pub fn is_closed(&self) -> bool {
        self.shared.tx_dropped.load(Acquire)
    }
}

impl Drop for RingReceiver {
    fn drop(&mut self) {
        self.shared.rx_dropped.store(true, SeqCst);
        self.shared.wake_always();
    }
}

impl TokenRx for RingReceiver {
    fn recv(&self) -> Result<Value, ChannelClosed> {
        RingReceiver::recv(self)
    }

    fn try_recv(&self) -> Result<Value, TryRecvError> {
        RingReceiver::try_recv(self)
    }

    fn occupancy(&self) -> Option<usize> {
        // Mirror of the sender-side argument: `head` is private here, and
        // the producer only advances `tail` while `tail - head < capacity`
        // against a head it read at or before ours, so `len()` is a true
        // occupancy bounded by the capacity.
        Some(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn values_round_trip_through_the_encoding() {
        for token in [
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
        ] {
            let (tag, bits) = encode(token);
            assert_eq!(decode(tag, bits), token);
        }
    }

    #[test]
    fn tokens_flow_in_order_within_one_thread() {
        let (tx, rx) = ring(4);
        assert!(rx.is_empty());
        tx.send(Value::Int(1)).unwrap();
        tx.send(Value::Bool(true)).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.recv(), Ok(Value::Int(1)));
        assert_eq!(rx.try_recv(), Ok(Value::Bool(true)));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(rx.capacity(), 4);
    }

    #[test]
    fn a_capacity_one_ring_alternates_across_threads() {
        let (tx, rx) = ring(1);
        let producer = thread::spawn(move || {
            for i in 0..10_000i64 {
                tx.send(Value::Int(i)).expect("receiver alive");
            }
        });
        for i in 0..10_000i64 {
            assert_eq!(rx.recv(), Ok(Value::Int(i)));
        }
        producer.join().unwrap();
        assert_eq!(rx.recv(), Err(ChannelClosed));
    }

    #[test]
    fn wrap_around_preserves_fifo_order() {
        let (tx, rx) = ring(3);
        for round in 0..100i64 {
            tx.send(Value::Int(2 * round)).unwrap();
            tx.send(Value::Int(2 * round + 1)).unwrap();
            assert_eq!(rx.recv(), Ok(Value::Int(2 * round)));
            assert_eq!(rx.recv(), Ok(Value::Int(2 * round + 1)));
        }
    }

    #[test]
    fn try_send_reports_full_without_parking() {
        let (tx, rx) = ring(2);
        assert_eq!(tx.try_send(Value::Int(1)), Ok(()));
        assert_eq!(tx.try_send(Value::Int(2)), Ok(()));
        assert_eq!(tx.try_send(Value::Int(3)), Err(TrySendError::Full));
        assert_eq!(rx.recv(), Ok(Value::Int(1)));
        assert_eq!(tx.try_send(Value::Int(3)), Ok(()));
        assert_eq!(rx.recv(), Ok(Value::Int(2)));
        assert_eq!(rx.recv(), Ok(Value::Int(3)));
        drop(rx);
        assert_eq!(tx.try_send(Value::Int(4)), Err(TrySendError::Closed));
    }

    #[test]
    fn close_then_drain_keeps_buffered_tokens() {
        let (tx, rx) = ring(4);
        tx.send(Value::Int(1)).unwrap();
        tx.send(Value::Int(2)).unwrap();
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.recv(), Ok(Value::Int(1)));
        assert_eq!(rx.try_recv(), Ok(Value::Int(2)));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Closed));
        assert_eq!(rx.recv(), Err(ChannelClosed));
    }

    #[test]
    fn dropping_the_receiver_fails_and_unblocks_the_sender() {
        let (tx, rx) = ring(1);
        tx.send(Value::Int(0)).unwrap();
        let blocked = thread::spawn(move || {
            // The ring is full: this send parks until the drop below.
            let refused = tx.send(Value::Int(1));
            assert_eq!(refused, Err(ChannelClosed));
            assert!(tx.is_closed());
        });
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        blocked.join().unwrap();
    }

    #[test]
    fn dropping_the_sender_unblocks_a_parked_receiver() {
        let (tx, rx) = ring(1);
        let blocked = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(blocked.join().unwrap(), Err(ChannelClosed));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rings_are_refused() {
        let _ = ring(0);
    }
}
