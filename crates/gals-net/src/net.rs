//! A Unix-domain-socket transport speaking the [`crate::wire`] protocol.
//!
//! One socket carries one edge.  The consumer side ([`NetReceiver`])
//! binds and accepts; the producer side ([`NetSender`]) dials and opens
//! with a `Hello` carrying the protocol version, the edge signal and the
//! flow-control window.  The receiver refuses a peer whose version,
//! signal or window disagrees — both sides derive the window from the
//! same capacity analysis, so a mismatch means the partitions were built
//! from different designs.
//!
//! **Credit flow control.**  The sender may have at most `window`
//! unconsumed tokens outstanding: `next_seq − consumed < window`, where
//! `consumed` is the receiver's cumulative *consumption* watermark
//! (advanced when the worker pops a token, not when the frame arrives,
//! and acknowledged with `Ack` frames).  Because delivery precedes
//! consumption, the receiver's queue occupancy never exceeds the window
//! — the socket inherits exactly the bound the clock calculus derived
//! for the edge, and the receiver enforces it against a buggy peer by
//! dropping any connection that overruns its credit.
//!
//! **Close-then-drain.**  A finished sender emits `Close` and the
//! receiver keeps serving its buffered tokens, reporting the channel
//! closed only once drained — the same contract as the in-process ring.
//!
//! **Waking the island.**  The receiver's acceptor and the sender's ack
//! reader run on threads of their own, so each endpoint calls the waker
//! of the pool island that uses it after every event that can unblock
//! it: a queued `Data` or `Close` or a fault, an `Ack` or a broken
//! connection.  That is what lets a partition run on the pool.
//!
//! **Reconnect and idempotent resume.**  Sequence numbers are assigned
//! once, when the application pushes a token.  If the connection drops,
//! the sender redials (bounded by its [`RetryPolicy`]); the fresh
//! handshake returns the receiver's `next_expected` watermark, the
//! sender discards retained tokens below it and retransmits the rest.  A
//! *restarted* sender that replays its stream from the beginning skips
//! every sequence number below the watermark locally, so the receiver
//! sees each token exactly once: no loss, no duplication.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io;
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::Waker;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gals_rt::{
    ChannelClosed, Endpoints, TokenRx, TokenTx, Transport, TransportError, TryRecvError,
    TrySendError,
};
use signal_lang::Value;

use crate::wire::{Frame, FrameReader, PROTOCOL_VERSION};
use crate::NetError;

/// How a [`NetSender`] behaves when its connection fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect attempts before the peer is declared gone for good.
    pub max_attempts: u32,
    /// Base delay between attempts; attempt `n` sleeps `n × backoff`.
    pub backoff: Duration,
    /// How long the *initial* dial waits for the receiver to start
    /// listening — partitions are separate processes with independent
    /// startup latencies.
    pub connect_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            backoff: Duration::from_millis(25),
            connect_timeout: Duration::from_secs(10),
        }
    }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

struct RxState {
    queue: VecDeque<Value>,
    /// Next sequence number expected — everything below it was delivered.
    delivered: u64,
    /// Cumulative tokens popped by the consuming worker.
    consumed: u64,
    /// Write half of the live connection, for `Ack` frames.
    ack_stream: Option<UnixStream>,
    /// `Close` observed (or a fatal fault): drain, then report closed.
    closed: bool,
    fault: Option<NetError>,
    shutdown: bool,
    /// The waker of the island reading this edge, once installed.
    waker: Option<Waker>,
}

struct RxShared {
    state: Mutex<RxState>,
    ready: Condvar,
}

enum ConnExit {
    /// Clean `Close`: stop accepting, the edge is finished.
    Finished,
    /// Connection lost mid-stream: go back to `accept` for a reconnect.
    Lost,
    /// Handshake refused: the fault is recorded, stop accepting.
    Refused,
}

/// The consuming endpoint of a socket edge.  Binds the socket path,
/// accepts (re)connections on a background thread and hands tokens to
/// the worker through the ordinary [`TokenRx`] interface.
pub struct NetReceiver {
    shared: Arc<RxShared>,
    path: PathBuf,
    acceptor: Option<JoinHandle<()>>,
}

impl NetReceiver {
    /// Binds `path` and starts accepting senders for `signal` with the
    /// given flow-control `window` (the edge's derived capacity bound).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the socket cannot be bound.
    pub fn bind(path: &Path, signal: &str, window: u64) -> Result<Self, NetError> {
        // A stale socket file from a crashed previous run refuses binds.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let shared = Arc::new(RxShared {
            state: Mutex::new(RxState {
                queue: VecDeque::new(),
                delivered: 0,
                consumed: 0,
                ack_stream: None,
                closed: false,
                fault: None,
                shutdown: false,
                waker: None,
            }),
            ready: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_signal = signal.to_string();
        let acceptor = std::thread::spawn(move || {
            accept_loop(&listener, &thread_shared, &thread_signal, window);
        });
        Ok(NetReceiver {
            shared,
            path: path.to_path_buf(),
            acceptor: Some(acceptor),
        })
    }

    /// The typed fault recorded by the acceptor, if any — a version,
    /// signal or window mismatch, or a malformed peer.
    pub fn fault(&self) -> Option<NetError> {
        self.shared
            .state
            .lock()
            .expect("receiver state")
            .fault
            .clone()
    }
}

/// Releases the receiver state and wakes whoever waits on it: a blocking
/// `recv`, and the island reading the edge.
fn notify_reader(shared: &RxShared, st: MutexGuard<'_, RxState>) {
    let waker = st.waker.clone();
    drop(st);
    shared.ready.notify_all();
    if let Some(waker) = waker {
        waker.wake();
    }
}

fn accept_loop(listener: &UnixListener, shared: &Arc<RxShared>, signal: &str, window: u64) {
    loop {
        if shared.state.lock().expect("receiver state").shutdown {
            return;
        }
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if shared.state.lock().expect("receiver state").shutdown {
            return;
        }
        match serve_connection(stream, shared, signal, window) {
            ConnExit::Lost => continue,
            ConnExit::Finished | ConnExit::Refused => return,
        }
    }
}

/// Runs one sender connection: handshake, then `Data`/`Close` frames.
fn serve_connection(
    mut stream: UnixStream,
    shared: &Arc<RxShared>,
    signal: &str,
    window: u64,
) -> ConnExit {
    let mut reader = FrameReader::new();
    let hello = match reader.read_frame(&mut stream) {
        Ok(Some(frame)) => frame,
        Ok(None) | Err(_) => return ConnExit::Lost,
    };
    let refusal = match hello {
        Frame::Hello {
            version,
            signal: theirs,
            window: their_window,
            ..
        } => {
            if version != PROTOCOL_VERSION {
                Some(NetError::VersionMismatch {
                    ours: PROTOCOL_VERSION,
                    theirs: version,
                })
            } else if theirs != signal {
                Some(NetError::SignalMismatch {
                    expected: signal.to_string(),
                    got: theirs,
                })
            } else if their_window != window {
                Some(NetError::WindowMismatch {
                    ours: window,
                    theirs: their_window,
                })
            } else {
                None
            }
        }
        other => Some(NetError::MalformedFrame(format!(
            "expected Hello to open the connection, got {other:?}"
        ))),
    };
    if let Some(fault) = refusal {
        let mut st = shared.state.lock().expect("receiver state");
        st.fault.get_or_insert(fault);
        st.closed = true;
        notify_reader(shared, st);
        return ConnExit::Refused;
    }
    {
        let mut st = shared.state.lock().expect("receiver state");
        let ack = Frame::HelloAck {
            next_expected: st.delivered,
            consumed: st.consumed,
        };
        if ack.write_to(&mut stream).is_err() {
            return ConnExit::Lost;
        }
        st.ack_stream = stream.try_clone().ok();
    }
    loop {
        let frame = match reader.read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => {
                shared.state.lock().expect("receiver state").ack_stream = None;
                return ConnExit::Lost;
            }
        };
        match frame {
            Frame::Data { seq, value } => {
                let mut st = shared.state.lock().expect("receiver state");
                if seq < st.delivered {
                    // A retransmission of something already delivered.
                    continue;
                }
                if seq > st.delivered || st.queue.len() as u64 >= window {
                    // A sequence gap (the stream lost tokens?) or a
                    // credit overrun: drop the connection and let the
                    // sender redo the handshake from our watermark.
                    st.ack_stream = None;
                    return ConnExit::Lost;
                }
                st.queue.push_back(value);
                st.delivered += 1;
                notify_reader(shared, st);
            }
            Frame::Close { final_seq } => {
                let mut st = shared.state.lock().expect("receiver state");
                let delivered = st.delivered;
                if delivered != final_seq {
                    st.fault.get_or_insert(NetError::MalformedFrame(format!(
                        "Close watermark {final_seq} but {delivered} tokens delivered"
                    )));
                }
                st.closed = true;
                st.ack_stream = None;
                notify_reader(shared, st);
                return ConnExit::Finished;
            }
            // `Ack` and further handshake frames have no business
            // arriving here; a confused peer loses its connection.
            _ => {
                shared.state.lock().expect("receiver state").ack_stream = None;
                return ConnExit::Lost;
            }
        }
    }
}

impl TokenRx for NetReceiver {
    fn recv(&self) -> Result<Value, ChannelClosed> {
        loop {
            match self.try_recv() {
                Ok(value) => return Ok(value),
                Err(TryRecvError::Closed) => return Err(ChannelClosed),
                Err(TryRecvError::Empty) => {
                    let st = self.shared.state.lock().expect("receiver state");
                    if st.queue.is_empty() && !st.closed {
                        // Bounded nap: re-check even if a notify races us.
                        let _ = self
                            .shared
                            .ready
                            .wait_timeout(st, Duration::from_millis(50))
                            .expect("receiver state");
                    }
                }
            }
        }
    }

    fn try_recv(&self) -> Result<Value, TryRecvError> {
        let mut st = self.shared.state.lock().expect("receiver state");
        if let Some(value) = st.queue.pop_front() {
            st.consumed += 1;
            let ack = Frame::Ack {
                consumed: st.consumed,
            };
            // Credit is advisory for us (the sender blocks on it); if the
            // ack cannot be written the reconnect handshake will carry
            // the watermark instead.
            let lost = match st.ack_stream.as_mut() {
                Some(stream) => ack.write_to(stream).is_err(),
                None => false,
            };
            if lost {
                st.ack_stream = None;
            }
            return Ok(value);
        }
        if st.closed {
            return Err(TryRecvError::Closed);
        }
        Err(TryRecvError::Empty)
    }

    fn occupancy(&self) -> Option<usize> {
        Some(
            self.shared
                .state
                .lock()
                .expect("receiver state")
                .queue
                .len(),
        )
    }

    fn set_waker(&self, waker: &Waker) -> bool {
        self.shared.state.lock().expect("receiver state").waker = Some(waker.clone());
        true
    }
}

impl Drop for NetReceiver {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("receiver state");
            st.shutdown = true;
            st.closed = true;
            if let Some(stream) = st.ack_stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            self.shared.ready.notify_all();
        }
        // Wake the acceptor if it is parked in `accept`.
        let _ = UnixStream::connect(&self.path);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

struct TxState {
    /// Receiver's cumulative consumption watermark (from `Ack` frames).
    consumed: u64,
    /// The live connection died; the next send redials.
    broken: bool,
    /// The waker of the island sending on this edge, once installed.
    waker: Option<Waker>,
}

struct TxShared {
    state: Mutex<TxState>,
    credit: Condvar,
    /// Bumped on every successful (re)connect so a stale ack-reader
    /// thread cannot mark the *new* connection broken.
    generation: AtomicU64,
}

/// The producing endpoint of a socket edge.  Dials the receiver, opens
/// with the protocol handshake and enforces the credit window on every
/// send; a lost connection is redialed (bounded by the [`RetryPolicy`])
/// with retained unacknowledged tokens retransmitted from the
/// receiver's watermark.
pub struct NetSender {
    path: PathBuf,
    signal: String,
    window: u64,
    retry: RetryPolicy,
    shared: Arc<TxShared>,
    conn: RefCell<Option<UnixStream>>,
    next_seq: Cell<u64>,
    /// Sequence numbers below this were delivered before this sender
    /// existed (a restarted process): skipped locally, never re-sent.
    resume_floor: Cell<u64>,
    /// Sent but not yet consumed tokens, retained for retransmission.
    /// Never longer than `window` — that is what the credit check means.
    unacked: RefCell<VecDeque<(u64, Value)>>,
    /// Gone for good: the retry budget is spent or `abandon` was called.
    defunct: Cell<bool>,
}

impl NetSender {
    /// Dials the receiver at `path` and performs the opening handshake
    /// for `signal` with the given flow-control `window`.
    ///
    /// # Errors
    ///
    /// [`NetError::PeerGone`] when no receiver appears within the
    /// policy's connect timeout or the handshake is refused; I/O and
    /// malformed-frame errors from the handshake itself.
    pub fn connect(
        path: &Path,
        signal: &str,
        window: u64,
        retry: RetryPolicy,
    ) -> Result<Self, NetError> {
        let sender = NetSender {
            path: path.to_path_buf(),
            signal: signal.to_string(),
            window,
            retry,
            shared: Arc::new(TxShared {
                state: Mutex::new(TxState {
                    consumed: 0,
                    broken: true,
                    waker: None,
                }),
                credit: Condvar::new(),
                generation: AtomicU64::new(0),
            }),
            conn: RefCell::new(None),
            next_seq: Cell::new(0),
            resume_floor: Cell::new(0),
            unacked: RefCell::new(VecDeque::new()),
            defunct: Cell::new(false),
        };
        sender.establish()?;
        Ok(sender)
    }

    /// Dials, handshakes, retransmits retained tokens.  On success the
    /// connection is live and the ack-reader thread is running.
    fn establish(&self) -> Result<(), NetError> {
        let deadline = Instant::now() + self.retry.connect_timeout;
        let mut stream = loop {
            match UnixStream::connect(&self.path) {
                Ok(stream) => break stream,
                Err(err) => {
                    if Instant::now() >= deadline {
                        return Err(NetError::PeerGone(format!(
                            "no receiver at {}: {err}",
                            self.path.display()
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            signal: self.signal.clone(),
            window: self.window,
            start_seq: self.next_seq.get(),
        };
        hello.write_to(&mut stream)?;
        let mut reader = FrameReader::new();
        let (next_expected, consumed) = match reader.read_frame(&mut stream)? {
            Some(Frame::HelloAck {
                next_expected,
                consumed,
            }) => (next_expected, consumed),
            Some(other) => {
                return Err(NetError::MalformedFrame(format!(
                    "expected HelloAck, got {other:?}"
                )))
            }
            None => {
                return Err(NetError::PeerGone(
                    "receiver refused the handshake".to_string(),
                ))
            }
        };
        // Everything below the watermark was delivered in a previous
        // life: drop retained copies, and if the watermark is ahead of
        // our own counter we are a restarted sender replaying its stream
        // — skip those sequence numbers locally as they come.
        let mut unacked = self.unacked.borrow_mut();
        while unacked.front().is_some_and(|(seq, _)| *seq < next_expected) {
            unacked.pop_front();
        }
        if next_expected > self.next_seq.get() {
            self.resume_floor.set(next_expected);
        }
        // Retransmit the survivors in order (idempotent: the receiver
        // ignores anything its watermark already covers).
        for (seq, value) in unacked.iter() {
            Frame::Data {
                seq: *seq,
                value: *value,
            }
            .write_to(&mut stream)?;
        }
        drop(unacked);
        let generation = self.shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
        {
            let mut st = self.shared.state.lock().expect("sender state");
            st.consumed = st.consumed.max(consumed);
            st.broken = false;
        }
        let reader_stream = stream.try_clone()?;
        let shared = Arc::clone(&self.shared);
        std::thread::spawn(move || ack_reader(reader_stream, &shared, generation));
        *self.conn.borrow_mut() = Some(stream);
        Ok(())
    }

    /// Redials within the retry budget.  Failure is permanent: the
    /// sender becomes defunct and every later send reports closed.
    fn reestablish(&self) -> Result<(), NetError> {
        let mut last = NetError::PeerGone("no reconnect attempted".to_string());
        for attempt in 1..=self.retry.max_attempts {
            std::thread::sleep(self.retry.backoff * attempt);
            match self.establish() {
                Ok(()) => return Ok(()),
                Err(err) => last = err,
            }
        }
        self.defunct.set(true);
        Err(NetError::PeerGone(format!(
            "retry budget ({} attempts) spent: {last}",
            self.retry.max_attempts
        )))
    }

    fn connection_is_broken(&self) -> bool {
        self.shared.state.lock().expect("sender state").broken
    }

    /// Severs the connection *without* the closing handshake — the wire
    /// equivalent of `SIGKILL`.  A test hook: the receiver observes a
    /// mid-stream loss, and a fresh sender (or process) can resume from
    /// the receiver's watermark.
    pub fn abandon(&self) {
        self.defunct.set(true);
        if let Some(stream) = self.conn.borrow_mut().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Releases the sender state and wakes whoever waits for credit: a
/// blocking `send`, and the island sending on the edge.
fn notify_writer(shared: &TxShared, st: MutexGuard<'_, TxState>) {
    let waker = st.waker.clone();
    drop(st);
    shared.credit.notify_all();
    if let Some(waker) = waker {
        waker.wake();
    }
}

fn ack_reader(mut stream: UnixStream, shared: &Arc<TxShared>, generation: u64) {
    let mut reader = FrameReader::new();
    loop {
        match reader.read_frame(&mut stream) {
            Ok(Some(Frame::Ack { consumed })) => {
                let mut st = shared.state.lock().expect("sender state");
                st.consumed = st.consumed.max(consumed);
                notify_writer(shared, st);
            }
            Ok(Some(_)) | Ok(None) | Err(_) => {
                // Only the *current* connection's reader may declare it
                // broken; a stale thread draining a dead socket must not
                // poison its successor.
                if shared.generation.load(Ordering::SeqCst) == generation {
                    let mut st = shared.state.lock().expect("sender state");
                    st.broken = true;
                    notify_writer(shared, st);
                }
                return;
            }
        }
    }
}

impl TokenTx for NetSender {
    fn send(&self, token: Value) -> Result<(), ChannelClosed> {
        loop {
            match self.try_send(token) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Closed) => return Err(ChannelClosed),
                Err(TrySendError::Full) => {
                    let st = self.shared.state.lock().expect("sender state");
                    if !st.broken && self.next_seq.get() - st.consumed >= self.window {
                        // Bounded nap: woken by the next Ack, or re-check.
                        let _ = self
                            .shared
                            .credit
                            .wait_timeout(st, Duration::from_millis(50))
                            .expect("sender state");
                    }
                }
            }
        }
    }

    fn try_send(&self, token: Value) -> Result<(), TrySendError> {
        if self.defunct.get() {
            return Err(TrySendError::Closed);
        }
        let seq = self.next_seq.get();
        if seq < self.resume_floor.get() {
            // Replayed prefix of a restarted stream: the receiver already
            // delivered this token in a previous life.
            self.next_seq.set(seq + 1);
            return Ok(());
        }
        if self.conn.borrow().is_none() || self.connection_is_broken() {
            self.conn.borrow_mut().take();
            if self.reestablish().is_err() {
                return Err(TrySendError::Closed);
            }
            // A fresh watermark may swallow this very token.
            if seq < self.resume_floor.get() {
                self.next_seq.set(seq + 1);
                return Ok(());
            }
        }
        {
            let st = self.shared.state.lock().expect("sender state");
            if seq - st.consumed >= self.window {
                return Err(TrySendError::Full);
            }
            // Retained copies the receiver has consumed are dead weight.
            let mut unacked = self.unacked.borrow_mut();
            while unacked.front().is_some_and(|(s, _)| *s < st.consumed) {
                unacked.pop_front();
            }
        }
        let frame = Frame::Data { seq, value: token };
        let wrote = match self.conn.borrow_mut().as_mut() {
            Some(stream) => frame.write_to(stream).is_ok(),
            None => false,
        };
        if !wrote {
            // The connection died under us; reconnect (which retransmits
            // the retained window) and try this token on the new stream.
            self.conn.borrow_mut().take();
            if self.reestablish().is_err() {
                return Err(TrySendError::Closed);
            }
            if seq < self.resume_floor.get() {
                self.next_seq.set(seq + 1);
                return Ok(());
            }
            let retried = match self.conn.borrow_mut().as_mut() {
                Some(stream) => frame.write_to(stream).is_ok(),
                None => false,
            };
            if !retried {
                self.defunct.set(true);
                return Err(TrySendError::Closed);
            }
        }
        self.unacked.borrow_mut().push_back((seq, token));
        self.next_seq.set(seq + 1);
        Ok(())
    }

    fn occupancy(&self) -> Option<usize> {
        let st = self.shared.state.lock().expect("sender state");
        let in_flight = self.next_seq.get().saturating_sub(st.consumed);
        Some(
            usize::try_from(in_flight)
                .unwrap_or(usize::MAX)
                .min(self.window as usize),
        )
    }

    fn set_waker(&self, waker: &Waker) -> bool {
        self.shared.state.lock().expect("sender state").waker = Some(waker.clone());
        true
    }
}

impl Drop for NetSender {
    fn drop(&mut self) {
        if self.defunct.get() {
            return;
        }
        if let Some(stream) = self.conn.borrow_mut().as_mut() {
            let close = Frame::Close {
                final_seq: self.next_seq.get(),
            };
            let _ = close.write_to(stream);
        }
        // Dropping the stream EOFs the ack-reader thread, which exits.
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// A [`Transport`] minting connected socket pairs: every channel of a
/// deployment becomes a Unix domain socket in the transport's directory,
/// its flow-control window set to the channel's resolved capacity.  Used
/// in-process it is the protocol witness — same deployment, every token
/// framed, sequenced and credit-controlled; across processes the two
/// halves are [`NetReceiver::bind`] and [`NetSender::connect`].
pub struct NetTransport {
    dir: PathBuf,
    counter: AtomicU64,
    retry: RetryPolicy,
}

impl NetTransport {
    /// The backend name reported in topologies and statistics.
    pub const NAME: &'static str = "uds";

    /// A transport minting sockets in a fresh per-process subdirectory
    /// of the system temp directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new() -> io::Result<Self> {
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let n = INSTANCE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("gals-uds-{}-{}", std::process::id(), n));
        std::fs::create_dir_all(&dir)?;
        Ok(NetTransport {
            dir,
            counter: AtomicU64::new(0),
            retry: RetryPolicy::default(),
        })
    }

    /// A transport minting sockets inside an existing directory.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        NetTransport {
            dir: dir.into(),
            counter: AtomicU64::new(0),
            retry: RetryPolicy::default(),
        }
    }

    /// Replaces the reconnect policy used by minted senders.
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The directory the socket files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Transport for NetTransport {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn open(&self, capacity: usize) -> Result<Endpoints, TransportError> {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("edge-{n}.sock"));
        let signal = format!("edge-{n}");
        let window = capacity as u64;
        let rx = NetReceiver::bind(&path, &signal, window).map_err(TransportError::from)?;
        let tx =
            NetSender::connect(&path, &signal, window, self.retry).map_err(TransportError::from)?;
        Ok((Box::new(tx), Box::new(rx)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_sock(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "gals-net-test-{}-{}-{tag}.sock",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn tokens_round_trip_in_order() {
        let path = temp_sock("roundtrip");
        let rx = NetReceiver::bind(&path, "x", 4).unwrap();
        let tx = NetSender::connect(&path, "x", 4, RetryPolicy::default()).unwrap();
        for i in 0..50 {
            tx.send(Value::Int(i)).unwrap();
            assert_eq!(rx.recv(), Ok(Value::Int(i)));
        }
        drop(tx);
        assert_eq!(rx.recv(), Err(ChannelClosed));
    }

    #[test]
    fn the_credit_window_limits_tokens_in_flight() {
        let path = temp_sock("credit");
        let rx = NetReceiver::bind(&path, "x", 2).unwrap();
        let tx = NetSender::connect(&path, "x", 2, RetryPolicy::default()).unwrap();
        tx.send(Value::Int(0)).unwrap();
        tx.send(Value::Int(1)).unwrap();
        // Two unconsumed tokens: the window is spent.
        assert_eq!(tx.try_send(Value::Int(2)), Err(TrySendError::Full));
        assert!(rx.occupancy().unwrap() <= 2);
        assert_eq!(rx.recv(), Ok(Value::Int(0)));
        // Consumption restores credit (the ack needs a moment to travel).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match tx.try_send(Value::Int(2)) {
                Ok(()) => break,
                Err(TrySendError::Full) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => panic!("expected credit to return, got {other:?}"),
            }
        }
        assert_eq!(rx.recv(), Ok(Value::Int(1)));
        assert_eq!(rx.recv(), Ok(Value::Int(2)));
    }

    #[test]
    fn a_mismatched_handshake_is_refused_with_a_typed_fault() {
        let path = temp_sock("mismatch");
        let rx = NetReceiver::bind(&path, "x", 4).unwrap();
        // Window disagrees: the receiver refuses, the sender's retry
        // budget drains against a peer that keeps hanging up.
        let retry = RetryPolicy {
            max_attempts: 1,
            backoff: Duration::from_millis(1),
            connect_timeout: Duration::from_secs(2),
        };
        let err = match NetSender::connect(&path, "x", 3, retry) {
            Err(err) => err,
            Ok(_) => panic!("a mismatched window must be refused"),
        };
        assert!(matches!(err, NetError::PeerGone(_)), "got {err:?}");
        assert_eq!(
            rx.fault(),
            Some(NetError::WindowMismatch { ours: 4, theirs: 3 })
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Closed));
    }

    #[test]
    fn an_abandoned_sender_is_resumed_without_loss_or_duplication() {
        let path = temp_sock("resume");
        let rx = NetReceiver::bind(&path, "x", 3).unwrap();
        let tx = NetSender::connect(&path, "x", 3, RetryPolicy::default()).unwrap();
        tx.send(Value::Int(0)).unwrap();
        tx.send(Value::Int(1)).unwrap();
        assert_eq!(rx.recv(), Ok(Value::Int(0)));
        // The wire's SIGKILL: no Close frame, connection just dies.
        tx.abandon();
        assert_eq!(tx.try_send(Value::Int(9)), Err(TrySendError::Closed));
        drop(tx);
        // A restarted producer replays its stream from the beginning; the
        // consumer drains concurrently (the credit window is smaller than
        // the stream, so the producer must block on it mid-way).
        let tx2 = NetSender::connect(&path, "x", 3, RetryPolicy::default()).unwrap();
        let producer = std::thread::spawn(move || {
            for i in 0..5 {
                tx2.send(Value::Int(i)).unwrap();
            }
        });
        // Exactly the unseen suffix arrives: 1 was delivered before the
        // crash (never consumed), 0 is skipped at the resume floor.
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (1..5).map(Value::Int).collect::<Vec<_>>());
    }

    #[test]
    fn the_transport_mints_working_pairs() {
        let transport = NetTransport::new().unwrap();
        let (tx, rx) = transport.open(2).unwrap();
        tx.send(Value::Bool(true)).unwrap();
        assert_eq!(rx.recv(), Ok(Value::Bool(true)));
        assert_eq!(transport.name(), "uds");
        drop(tx);
        assert_eq!(rx.recv(), Err(ChannelClosed));
        let _ = std::fs::remove_dir_all(transport.dir());
    }
}
