//! `StoreClient`: remote writers with the nonblocking,
//! backpressure-policy-aware API of the local [`StoreWriter`], and
//! remote readers for the epoch-pinned RPCs.
//!
//! [`StoreWriter`]: ac_engine::StoreWriter

use crate::conn::FrameConn;
use crate::error::NetError;
use crate::wire::{Frame, Identity, Query, Reply, Role, NEW_PRODUCER, PROTO_VERSION};
use ac_engine::BackpressurePolicy;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Client-side knobs for a [`NetWriter`].
#[derive(Debug, Clone)]
pub struct WriterConfig {
    /// What to do when the outbox is full — the same vocabulary as the
    /// local writer's ring.
    pub policy: BackpressurePolicy,
    /// Pairs per auto-flushed batch.
    pub batch_pairs: usize,
    /// Maximum batches in flight (queued locally + sent-but-unacked).
    pub outbox_batches: usize,
}

impl Default for WriterConfig {
    fn default() -> Self {
        WriterConfig {
            policy: BackpressurePolicy::Block,
            batch_pairs: 256,
            outbox_batches: 64,
        }
    }
}

/// A connection factory bound to one server address and identity.
#[derive(Debug, Clone)]
pub struct StoreClient {
    addr: SocketAddr,
    identity: Identity,
}

impl StoreClient {
    /// Binds the factory to `addr` with the identity every connection
    /// will present (and be checked against).
    ///
    /// # Errors
    ///
    /// Address resolution failures.
    pub fn new(addr: impl ToSocketAddrs, identity: Identity) -> Result<StoreClient, NetError> {
        let addr = addr.to_socket_addrs()?.next().ok_or(NetError::Malformed {
            what: "address resolves to nothing",
        })?;
        Ok(StoreClient { addr, identity })
    }

    /// The identity this client presents.
    #[must_use]
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// Opens a writer under a freshly minted producer id.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures, including [`NetError::Refused`] on
    /// identity or version mismatch.
    pub fn writer(&self, config: WriterConfig) -> Result<NetWriter, NetError> {
        NetWriter::open(self.addr, &self.identity, NEW_PRODUCER, config)
    }

    /// Reclaims an existing producer id — the reconnect half of
    /// exactly-once. The returned writer's [`NetWriter::resume_after`]
    /// is the last sequence number the server holds; replay your
    /// stream strictly after it.
    ///
    /// # Errors
    ///
    /// Everything [`StoreClient::writer`] returns, plus
    /// [`NetError::Refused`] with [`RefuseCode::Busy`] when the id is
    /// attached to a live connection.
    ///
    /// [`RefuseCode::Busy`]: crate::RefuseCode::Busy
    pub fn writer_resuming(
        &self,
        producer: u64,
        config: WriterConfig,
    ) -> Result<NetWriter, NetError> {
        NetWriter::open(self.addr, &self.identity, producer, config)
    }

    /// Opens a remote read handle.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures.
    pub fn reader(&self) -> Result<RemoteReader, NetError> {
        let mut conn = connect(self.addr, &self.identity, Role::Reader, NEW_PRODUCER, 0)?;
        let (_, _, epoch) = expect_hello_ok(&mut conn)?;
        Ok(RemoteReader {
            conn,
            next_id: 1,
            epoch,
        })
    }
}

pub(crate) fn connect(
    addr: SocketAddr,
    identity: &Identity,
    role: Role,
    producer: u64,
    acked_chain: u64,
) -> Result<FrameConn, NetError> {
    let stream = TcpStream::connect(addr)?;
    let mut conn = FrameConn::new(stream)?;
    conn.send(&Frame::Hello {
        proto: PROTO_VERSION,
        role,
        fingerprint: identity.fingerprint(),
        identity: identity.clone(),
        producer,
        acked_chain,
    })?;
    Ok(conn)
}

pub(crate) fn expect_hello_ok(conn: &mut FrameConn) -> Result<(u64, u64, u64), NetError> {
    match conn.recv()? {
        Frame::HelloOk {
            producer,
            resume_after,
            epoch,
        } => Ok((producer, resume_after, epoch)),
        Frame::Refused { code, reason } => Err(NetError::Refused { code, reason }),
        _ => Err(NetError::UnexpectedFrame {
            what: "expected HelloOk",
        }),
    }
}

/// One queued-or-inflight wire batch.
#[derive(Debug)]
struct WireBatch {
    seq: u64,
    pairs: Vec<(u64, u64)>,
}

#[derive(Debug, Default)]
struct WriterState {
    /// Batches not yet written to the socket.
    outbox: VecDeque<WireBatch>,
    /// Batches written but not yet acknowledged — kept whole so a
    /// reconnect can replay them.
    inflight: VecDeque<WireBatch>,
    /// Server-acknowledged high-water mark.
    acked: u64,
    /// Set when the session dies; renders the root cause.
    dead: Option<String>,
    /// Set by `close` so the I/O threads drain and exit.
    closing: bool,
}

#[derive(Debug)]
struct WriterShared {
    state: Mutex<WriterState>,
    /// Signaled when the outbox gains work or the writer is closing.
    work: Condvar,
    /// Signaled when capacity frees up or acks advance.
    room: Condvar,
}

/// A remote [`StoreWriter`]: `record` coalesces into batches,
/// full batches auto-flush under the configured
/// [`BackpressurePolicy`], and a background sender/ack pair keeps the
/// pipe full without blocking the recording thread. Unacknowledged
/// batches are retained, so a dropped connection can be resumed
/// ([`NetWriter::reconnect`]) without losing or duplicating a single
/// event.
///
/// [`StoreWriter`]: ac_engine::StoreWriter
/// [`BackpressurePolicy`]: ac_engine::BackpressurePolicy
#[derive(Debug)]
pub struct NetWriter {
    addr: SocketAddr,
    identity: Identity,
    config: WriterConfig,
    producer: u64,
    resume_after: u64,
    next_seq: u64,
    buf: Vec<(u64, u64)>,
    dropped_events: u64,
    shared: Arc<WriterShared>,
    conn: FrameConn,
    sender: Option<JoinHandle<()>>,
    acker: Option<JoinHandle<()>>,
}

impl NetWriter {
    fn open(
        addr: SocketAddr,
        identity: &Identity,
        producer: u64,
        config: WriterConfig,
    ) -> Result<NetWriter, NetError> {
        let mut conn = connect(addr, identity, Role::Ingest, producer, 0)?;
        let (producer, resume_after, _) = expect_hello_ok(&mut conn)?;
        let shared = Arc::new(WriterShared {
            state: Mutex::new(WriterState {
                acked: resume_after,
                ..WriterState::default()
            }),
            work: Condvar::new(),
            room: Condvar::new(),
        });
        let mut writer = NetWriter {
            addr,
            identity: identity.clone(),
            config,
            producer,
            resume_after,
            next_seq: resume_after + 1,
            buf: Vec::new(),
            dropped_events: 0,
            shared,
            conn,
            sender: None,
            acker: None,
        };
        writer.spawn_io()?;
        Ok(writer)
    }

    fn spawn_io(&mut self) -> Result<(), NetError> {
        let mut send_conn = self.conn.try_clone()?;
        let shared = Arc::clone(&self.shared);
        self.sender = Some(
            std::thread::Builder::new()
                .name("ac-net-sender".into())
                .spawn(move || sender_loop(&shared, &mut send_conn))
                .expect("spawn sender"),
        );
        let mut ack_conn = self.conn.try_clone()?;
        let shared = Arc::clone(&self.shared);
        self.acker = Some(
            std::thread::Builder::new()
                .name("ac-net-acker".into())
                .spawn(move || acker_loop(&shared, &mut ack_conn))
                .expect("spawn acker"),
        );
        Ok(())
    }

    /// The producer id this writer records under — persist it to
    /// resume after a crash ([`StoreClient::writer_resuming`]).
    #[must_use]
    pub fn producer_id(&self) -> u64 {
        self.producer
    }

    /// The server-side high-water mark at handshake time: the last
    /// sequence number the server already holds for this producer.
    /// Replay strictly after it.
    #[must_use]
    pub fn resume_after(&self) -> u64 {
        self.resume_after
    }

    /// The sequence number of the last batch this writer queued.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Records `delta` increments to `key` (coalesced; full batches
    /// auto-flush under the configured policy).
    pub fn record(&mut self, key: u64, delta: u64) {
        if delta == 0 {
            return;
        }
        if let Some(last) = self.buf.last_mut() {
            if last.0 == key {
                last.1 = last.1.saturating_add(delta);
                return;
            }
        }
        if self.buf.len() >= self.config.batch_pairs {
            self.auto_flush();
        }
        self.buf.push((key, delta));
    }

    fn auto_flush(&mut self) {
        let pairs = std::mem::take(&mut self.buf);
        match self.config.policy {
            BackpressurePolicy::DropNewest => {
                if let Err(NetSendError::Closed(pairs) | NetSendError::Full(pairs)) =
                    self.enqueue(pairs, false)
                {
                    self.dropped_events += events_of(&pairs);
                }
            }
            BackpressurePolicy::Fail => {
                // Mirror the local writer: refusal is surfaced at
                // `try_send`, with the data still in hand — keep
                // buffering past the batch size rather than dropping.
                match self.enqueue(pairs, false) {
                    Ok(()) => {}
                    Err(NetSendError::Full(pairs) | NetSendError::Closed(pairs)) => {
                        self.buf = pairs;
                    }
                }
            }
            // `Block`, and any future policy: waiting is the only
            // choice that loses nothing.
            _ => {
                if let Err(NetSendError::Closed(pairs) | NetSendError::Full(pairs)) =
                    self.enqueue(pairs, true)
                {
                    self.dropped_events += events_of(&pairs);
                }
            }
        }
    }

    /// Queues the buffered batch without blocking — the nonblocking
    /// foreground of the writer API, mirroring the local
    /// [`StoreWriter::try_send`].
    ///
    /// # Errors
    ///
    /// [`NetSendError::Full`] when the outbox is at capacity,
    /// [`NetSendError::Closed`] after the session died — both carry
    /// the batch so the caller can hold, spill, or shed it.
    ///
    /// [`StoreWriter::try_send`]: ac_engine::StoreWriter::try_send
    pub fn try_send(&mut self) -> Result<(), NetSendError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let pairs = std::mem::take(&mut self.buf);
        match self.enqueue(pairs, false) {
            Ok(()) => Ok(()),
            Err(e) => {
                match &e {
                    NetSendError::Full(pairs) | NetSendError::Closed(pairs) => {
                        self.buf = pairs.clone();
                    }
                }
                Err(e)
            }
        }
    }

    /// Queues the buffered batch, blocking while the outbox is full.
    ///
    /// # Errors
    ///
    /// [`NetSendError::Closed`] if the session dies first.
    pub fn send(&mut self) -> Result<(), NetSendError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let pairs = std::mem::take(&mut self.buf);
        self.enqueue(pairs, true)
    }

    /// Queues one *prepared* batch under the next sequence number,
    /// blocking while the outbox is full; returns the sequence number
    /// assigned. (The replay path after a crash: regenerate the
    /// batches past [`NetWriter::resume_after`] and submit them in
    /// order.)
    ///
    /// # Errors
    ///
    /// [`NetSendError::Closed`] if the session dies first.
    pub fn submit_batch(&mut self, pairs: Vec<(u64, u64)>) -> Result<u64, NetSendError> {
        self.send()?;
        let seq = self.next_seq;
        self.enqueue(pairs, true).map(|()| seq)
    }

    fn enqueue(&mut self, mut pairs: Vec<(u64, u64)>, park: bool) -> Result<(), NetSendError> {
        pairs.retain(|&(_, d)| d != 0);
        if pairs.is_empty() {
            return Ok(());
        }
        let mut state = self.shared.state.lock().expect("writer state");
        loop {
            if state.dead.is_some() {
                return Err(NetSendError::Closed(pairs));
            }
            if state.outbox.len() + state.inflight.len() < self.config.outbox_batches {
                break;
            }
            if !park {
                return Err(NetSendError::Full(pairs));
            }
            state = self.shared.room.wait(state).expect("writer state");
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        state.outbox.push_back(WireBatch { seq, pairs });
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Flushes the partial batch, waits until **every** queued batch
    /// is server-acknowledged, then reports any silent losses after
    /// the fact (mirroring the local writer's `flush`).
    ///
    /// # Errors
    ///
    /// [`NetError::EventsDropped`] when the `DropNewest` policy shed
    /// batches since the last flush; [`NetError::ConnectionLost`] when
    /// the session died with batches unacknowledged.
    pub fn flush(&mut self) -> Result<(), NetError> {
        if !self.buf.is_empty() {
            self.auto_flush();
        }
        let mut state = self.shared.state.lock().expect("writer state");
        while state.dead.is_none() && (!state.outbox.is_empty() || !state.inflight.is_empty()) {
            state = self.shared.room.wait(state).expect("writer state");
        }
        if let Some(detail) = &state.dead {
            return Err(NetError::ConnectionLost {
                detail: detail.clone(),
            });
        }
        drop(state);
        if self.dropped_events > 0 {
            let events = std::mem::take(&mut self.dropped_events);
            return Err(NetError::EventsDropped { events });
        }
        Ok(())
    }

    /// Re-dials the server after a connection loss and replays every
    /// unacknowledged batch — exactly-once by construction: the
    /// handshake reports what the server already holds, the replay
    /// starts strictly after it, and the server acknowledges (without
    /// re-applying) anything it had seen.
    ///
    /// # Errors
    ///
    /// Connect/handshake failures; the writer is left dead (but
    /// retryable) on error.
    pub fn reconnect(&mut self) -> Result<(), NetError> {
        self.teardown_io();
        let mut conn = connect(self.addr, &self.identity, Role::Ingest, self.producer, 0)?;
        let (producer, resume_after, _) = expect_hello_ok(&mut conn)?;
        debug_assert_eq!(producer, self.producer, "server must honor the claimed id");
        {
            let mut state = self.shared.state.lock().expect("writer state");
            // Everything at or below the server's mark is durable
            // server-side: drop it. Everything after it replays, in
            // order, ahead of any still-queued batches.
            let mut replay: Vec<WireBatch> = state.inflight.drain(..).collect();
            replay.retain(|b| b.seq > resume_after);
            for batch in replay.into_iter().rev() {
                state.outbox.push_front(batch);
            }
            state.outbox.retain(|b| b.seq > resume_after);
            state.acked = resume_after;
            state.dead = None;
            state.closing = false;
        }
        self.conn = conn;
        self.spawn_io()?;
        self.shared.work.notify_all();
        Ok(())
    }

    fn teardown_io(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("writer state");
            if state.dead.is_none() {
                state.dead = Some("reconnecting".into());
            }
        }
        self.shared.work.notify_all();
        self.shared.room.notify_all();
        self.conn.shutdown();
        if let Some(h) = self.sender.take() {
            let _ = h.join();
        }
        if let Some(h) = self.acker.take() {
            let _ = h.join();
        }
    }

    /// Flushes, says goodbye, and tears the session down.
    ///
    /// # Errors
    ///
    /// Everything [`NetWriter::flush`] returns.
    pub fn close(mut self) -> Result<(), NetError> {
        let flushed = self.flush();
        {
            let mut state = self.shared.state.lock().expect("writer state");
            state.closing = true;
        }
        self.shared.work.notify_all();
        let _ = self.conn.send(&Frame::Bye);
        self.teardown_io();
        flushed
    }
}

impl Drop for NetWriter {
    fn drop(&mut self) {
        self.teardown_io();
    }
}

fn events_of(pairs: &[(u64, u64)]) -> u64 {
    pairs.iter().map(|&(_, d)| d).fold(0, u64::saturating_add)
}

fn sender_loop(shared: &WriterShared, conn: &mut FrameConn) {
    loop {
        let batch = {
            let mut state = shared.state.lock().expect("writer state");
            loop {
                if state.dead.is_some() {
                    return;
                }
                if let Some(batch) = state.outbox.pop_front() {
                    let frame = Frame::Batch {
                        seq: batch.seq,
                        pairs: batch.pairs.clone(),
                    };
                    state.inflight.push_back(batch);
                    break frame;
                }
                if state.closing {
                    return;
                }
                state = shared.work.wait(state).expect("writer state");
            }
        };
        if let Err(e) = conn.send(&batch) {
            let mut state = shared.state.lock().expect("writer state");
            if state.dead.is_none() {
                state.dead = Some(e.to_string());
            }
            drop(state);
            shared.room.notify_all();
            return;
        }
    }
}

fn acker_loop(shared: &WriterShared, conn: &mut FrameConn) {
    loop {
        let outcome = conn.recv();
        let mut state = shared.state.lock().expect("writer state");
        match outcome {
            Ok(Frame::BatchAck { seq }) => {
                state.acked = state.acked.max(seq);
                let acked = state.acked;
                while state.inflight.front().is_some_and(|b| b.seq <= acked) {
                    state.inflight.pop_front();
                }
                drop(state);
                shared.room.notify_all();
            }
            Ok(Frame::Refused { code, reason }) => {
                if state.dead.is_none() {
                    state.dead = Some(format!("refused ({code}): {reason}"));
                }
                drop(state);
                shared.room.notify_all();
                return;
            }
            Ok(_) => {
                if state.dead.is_none() {
                    state.dead = Some("unexpected frame on ingest connection".into());
                }
                drop(state);
                shared.room.notify_all();
                return;
            }
            Err(e) => {
                if state.dead.is_none() {
                    state.dead = Some(e.to_string());
                }
                drop(state);
                shared.room.notify_all();
                return;
            }
        }
    }
}

/// A refused or impossible queue attempt, carrying the batch so the
/// caller decides its fate — the remote mirror of [`SendError`].
///
/// [`SendError`]: ac_engine::SendError
#[derive(Debug)]
pub enum NetSendError {
    /// The outbox is at capacity.
    Full(Vec<(u64, u64)>),
    /// The session is dead (reconnect or shed).
    Closed(Vec<(u64, u64)>),
}

impl NetSendError {
    /// Reclaims the batch.
    #[must_use]
    pub fn into_pairs(self) -> Vec<(u64, u64)> {
        match self {
            NetSendError::Full(p) | NetSendError::Closed(p) => p,
        }
    }

    /// True for the capacity case.
    #[must_use]
    pub fn is_full(&self) -> bool {
        matches!(self, NetSendError::Full(_))
    }
}

impl std::fmt::Display for NetSendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetSendError::Full(_) => f.write_str("outbox full"),
            NetSendError::Closed(_) => f.write_str("session closed"),
        }
    }
}

impl std::error::Error for NetSendError {}

/// A remote read handle: every query is served against one pinned
/// snapshot server-side and the reply's epoch is recorded here
/// ([`RemoteReader::epoch`]).
#[derive(Debug)]
pub struct RemoteReader {
    conn: FrameConn,
    next_id: u64,
    epoch: u64,
}

impl RemoteReader {
    fn ask(&mut self, query: Query) -> Result<Reply, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.conn.send(&Frame::ReadReq { id, query })?;
        match self.conn.recv()? {
            Frame::ReadResp {
                id: got,
                epoch,
                reply,
            } => {
                if got != id {
                    return Err(NetError::UnexpectedFrame {
                        what: "reply correlation id mismatch",
                    });
                }
                self.epoch = epoch;
                match reply {
                    Reply::Error(reason) => Err(NetError::Remote { reason }),
                    other => Ok(other),
                }
            }
            Frame::Refused { code, reason } => Err(NetError::Refused { code, reason }),
            _ => Err(NetError::UnexpectedFrame {
                what: "expected ReadResp",
            }),
        }
    }

    /// The snapshot epoch the last reply was served at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Remote [`StoreReader::estimate`].
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    ///
    /// [`StoreReader::estimate`]: ac_engine::StoreReader::estimate
    pub fn estimate(&mut self, key: u64) -> Result<Option<f64>, NetError> {
        match self.ask(Query::Estimate { key })? {
            Reply::Absent => Ok(None),
            Reply::F64(x) => Ok(Some(x)),
            _ => Err(NetError::UnexpectedFrame {
                what: "estimate reply shape",
            }),
        }
    }

    /// Remote [`StoreReader::merged_estimate`].
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    ///
    /// [`StoreReader::merged_estimate`]: ac_engine::StoreReader::merged_estimate
    pub fn merged_estimate(&mut self) -> Result<f64, NetError> {
        match self.ask(Query::MergedEstimate)? {
            Reply::F64(x) => Ok(x),
            _ => Err(NetError::UnexpectedFrame {
                what: "merged estimate reply shape",
            }),
        }
    }

    /// Remote [`StoreReader::total_events`].
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    ///
    /// [`StoreReader::total_events`]: ac_engine::StoreReader::total_events
    pub fn total_events(&mut self) -> Result<u64, NetError> {
        match self.ask(Query::TotalEvents)? {
            Reply::U64(x) => Ok(x),
            _ => Err(NetError::UnexpectedFrame {
                what: "total events reply shape",
            }),
        }
    }

    /// Remote [`StoreReader::len`].
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    ///
    /// [`StoreReader::len`]: ac_engine::StoreReader::len
    pub fn len(&mut self) -> Result<u64, NetError> {
        match self.ask(Query::Len)? {
            Reply::U64(x) => Ok(x),
            _ => Err(NetError::UnexpectedFrame {
                what: "len reply shape",
            }),
        }
    }

    /// True when the store holds no keys (remote [`StoreReader::len`]
    /// of zero).
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    ///
    /// [`StoreReader::len`]: ac_engine::StoreReader::len
    pub fn is_empty(&mut self) -> Result<bool, NetError> {
        Ok(self.len()? == 0)
    }

    /// Remote stats summary: `(keys, events)`.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn stats(&mut self) -> Result<(u64, u64), NetError> {
        match self.ask(Query::Stats)? {
            Reply::Stats { keys, events } => Ok((keys, events)),
            _ => Err(NetError::UnexpectedFrame {
                what: "stats reply shape",
            }),
        }
    }

    /// The primary's replication chain-tip digest (0 before the first
    /// cut). Compare against a replica's folded digest to observe
    /// convergence from outside.
    ///
    /// # Errors
    ///
    /// Transport and protocol failures.
    pub fn repl_tip(&mut self) -> Result<u64, NetError> {
        match self.ask(Query::ReplTip)? {
            Reply::U64(x) => Ok(x),
            _ => Err(NetError::UnexpectedFrame {
                what: "repl tip reply shape",
            }),
        }
    }

    /// Says goodbye and closes the connection.
    pub fn close(mut self) {
        let _ = self.conn.send(&Frame::Bye);
        self.conn.shutdown();
    }
}
