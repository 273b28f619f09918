//! `StoreServer`: multi-client exactly-once ingest, epoch-pinned read
//! RPCs, and the replication source — one acceptor thread, one
//! connection thread per peer, one chain-cutter thread.
//!
//! ## Exactly-once ingest
//!
//! A remote writer *is* an [`IngestProducer`]: the producer id and
//! per-producer sequence marks that the durable checkpoint format
//! already records flow over the wire unchanged. The server maps each
//! wire batch to exactly one ring batch
//! ([`StoreWriter::submit_batch`]), so the client's numbering and the
//! durable [`ProducerMark`]s are the same numbering. On reconnect the
//! `HELLO` handshake returns the server-side high-water mark; the
//! client replays strictly after it. Duplicates (≤ the mark) are
//! acknowledged without being applied; a gap is a protocol error —
//! batches can be repeated, never skipped or reordered.
//!
//! After a server restart, writers are recreated in producer-id order
//! from [`RecoveryReport::last_applied`] before the listener opens, so
//! the durable marks and the live ring numbering stay interchangeable
//! ([`Store::writer_resuming`]).
//!
//! ## Replication
//!
//! A cutter thread samples published snapshots and maintains one
//! global chain of checkpoint segments — a full base, then deltas cut
//! with [`checkpoint_delta`] (see [`ServerConfig`] for the cadence),
//! compacted through [`compact_snapshot`] from the tip's own snapshot
//! when the chain grows long. Replica connections stream the chain and
//! resume from the last chain digest the replica acknowledged; a
//! digest that fell out of the chain (compaction) triggers a full
//! resend, which the replica folds as a reset. Chain digests make
//! every segment self-validating, so replication inherits the
//! checkpoint format's integrity story wholesale.
//!
//! [`IngestProducer`]: ac_engine::IngestProducer
//! [`ProducerMark`]: ac_engine::ProducerMark
//! [`RecoveryReport::last_applied`]: ac_engine::RecoveryReport

use crate::conn::FrameConn;
use crate::error::{NetError, RefuseCode};
use crate::wire::{Frame, Identity, Query, Reply, Role, NEW_PRODUCER, PROTO_VERSION};
use ac_bitio::{BitVec, BitWriter};
use ac_core::StateCodec;
use ac_engine::{
    checkpoint_delta, checkpoint_snapshot, compact_snapshot, Checkpoint, CheckpointHeader, Store,
    StoreReport, StoreWriter,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for the server's replication source.
///
/// The cut cadence itself is not a knob: the cutter cuts a delta once
/// the events past the chain tip reach the number of keys the previous
/// cut encoded (so replication encodes at most one key per ingested
/// event, amortized), and cuts whatever remains once the store has
/// quiesced — it accepted no new events since the last poll and the
/// published snapshot holds them all.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How often the cutter samples the published snapshot and the
    /// store's ingest counter.
    pub cut_poll: Duration,
    /// Compact the chain into a single full base once it holds more
    /// than this many segments. Replicas whose acknowledged digest
    /// falls out of the chain receive a full resend, so this also
    /// bounds how many segments a replica can trail by.
    pub max_chain_segments: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cut_poll: Duration::from_millis(2),
            max_chain_segments: 16,
        }
    }
}

/// One segment of the replication chain.
#[derive(Debug, Clone)]
struct Segment {
    chain: u64,
    bytes: Arc<Vec<u8>>,
}

/// The replication source: the chain, its tip header, and a
/// generation counter bumped whenever the chain is rewritten
/// (compaction) rather than appended to.
#[derive(Debug, Default)]
struct ReplChain {
    segments: Vec<Segment>,
    tip: Option<CheckpointHeader>,
    generation: u64,
    failed: Option<String>,
}

#[derive(Debug)]
struct ReplSource {
    chain: Mutex<ReplChain>,
    grew: Condvar,
}

#[derive(Debug)]
struct ServerInner {
    store: Store,
    identity: Identity,
    fingerprint: u64,
    tiered: bool,
    config: ServerConfig,
    /// Writer slots not currently attached to a connection, by
    /// producer id.
    parked: Mutex<HashMap<u64, StoreWriter>>,
    /// Producer ids attached to a live connection.
    active: Mutex<std::collections::HashSet<u64>>,
    repl: ReplSource,
    stop: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// The wire front-end of one [`Store`]: owns the store, accepts
/// ingest / reader / replica connections on a TCP listener, and feeds
/// the replication chain. See the module docs for the protocol.
#[derive(Debug)]
pub struct StoreServer {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    cutter: Option<JoinHandle<()>>,
}

impl StoreServer {
    /// [`StoreServer::start_with`] under the default [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Everything [`StoreServer::start_with`] returns.
    pub fn start(store: Store, addr: impl ToSocketAddrs) -> Result<StoreServer, NetError> {
        StoreServer::start_with(store, addr, ServerConfig::default())
    }

    /// Takes ownership of `store`, recreates writers for every
    /// recovered producer mark (the restart half of exactly-once),
    /// binds `addr`, and starts serving.
    ///
    /// # Errors
    ///
    /// Bind/listen failures as [`NetError::Io`];
    /// [`NetError::Malformed`] if the store's spec cannot rebuild its
    /// counter template (impossible for a store that started).
    pub fn start_with(
        store: Store,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<StoreServer, NetError> {
        let spec = store.spec();
        let template = spec.build().map_err(|_| NetError::Malformed {
            what: "store spec does not rebuild",
        })?;
        let engine_config = store.config();
        let identity = Identity {
            spec,
            shards: engine_config.shards as u32,
            seed: engine_config.seed,
        };
        let fingerprint = template.params_fingerprint();
        let tiered = store.stats().tier_budget_bits.is_some();

        // Recreate a writer per recovered producer mark, in producer-id
        // order, each resuming at its durable applied mark — producer
        // ids are ring-registry indices, so creation order IS identity.
        let mut parked = HashMap::new();
        if let Some(report) = store.recovery() {
            let mut marks = report.last_applied.clone();
            marks.sort_unstable_by_key(|m| m.producer);
            for mark in marks {
                let writer = store.writer_resuming(mark.applied_seq);
                assert_eq!(
                    writer.producer_id(),
                    mark.producer,
                    "recovered producer marks must be dense in id order"
                );
                parked.insert(mark.producer, writer);
            }
        }

        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(ServerInner {
            store,
            identity,
            fingerprint,
            tiered,
            config,
            parked: Mutex::new(parked),
            active: Mutex::new(std::collections::HashSet::new()),
            repl: ReplSource {
                chain: Mutex::new(ReplChain::default()),
                grew: Condvar::new(),
            },
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });

        let cutter = if tiered {
            // Version-2 replication segments have nowhere to put tier
            // tags; replica connections are refused instead.
            None
        } else {
            let inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("ac-net-cutter".into())
                    .spawn(move || cutter_loop(&inner))
                    .expect("spawn replication cutter"),
            )
        };

        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("ac-net-accept".into())
                .spawn(move || accept_loop(&inner, &listener))
                .expect("spawn acceptor")
        };

        Ok(StoreServer {
            inner,
            addr: local,
            accept: Some(accept),
            cutter,
        })
    }

    /// The bound listen address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The identity connections must present.
    #[must_use]
    pub fn identity(&self) -> Identity {
        self.inner.identity.clone()
    }

    /// The replication chain's current tip digest (0 before the first
    /// segment is cut). Replicas converge to exactly this digest.
    #[must_use]
    pub fn tip_chain(&self) -> u64 {
        let chain = self.inner.repl.chain.lock().expect("repl chain");
        chain.segments.last().map_or(0, |s| s.chain)
    }

    /// A read handle over the served store (in-process fast path).
    #[must_use]
    pub fn reader(&self) -> ac_engine::StoreReader {
        self.inner.store.reader()
    }

    /// Stops accepting, drains every connection thread, and closes the
    /// store (flushing its final checkpoint, for durable stores).
    ///
    /// # Errors
    ///
    /// Store close failures, rendered as [`NetError::Remote`].
    pub fn shutdown(mut self) -> Result<StoreReport, NetError> {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.repl.grew.notify_all();
        // Poke the acceptor out of `accept()`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.cutter.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self
            .inner
            .conns
            .lock()
            .expect("conn registry")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        // Parked writers hold ring handles; drop them before close so
        // the ingest queue can drain and seal.
        self.inner.parked.lock().expect("parked writers").clear();
        let inner = Arc::try_unwrap(self.inner).expect("all server threads joined");
        inner.store.close().map_err(|e| NetError::Remote {
            reason: e.to_string(),
        })
    }
}

fn accept_loop(inner: &Arc<ServerInner>, listener: &TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let inner2 = Arc::clone(inner);
        let handle = std::thread::Builder::new()
            .name("ac-net-conn".into())
            .spawn(move || {
                let _ = serve_connection(&inner2, stream);
            })
            .expect("spawn connection thread");
        inner.conns.lock().expect("conn registry").push(handle);
    }
}

/// Validates the peer's `HELLO` against ours; `Err` carries the
/// refusal already sent.
fn check_hello(
    inner: &ServerInner,
    conn: &mut FrameConn,
    proto: u16,
    fingerprint: u64,
    identity: &Identity,
) -> Result<(), NetError> {
    let refuse = |conn: &mut FrameConn, code, reason: &str| {
        let _ = conn.send(&Frame::Refused {
            code,
            reason: reason.into(),
        });
        Err(NetError::Refused {
            code,
            reason: reason.into(),
        })
    };
    if proto != PROTO_VERSION {
        return refuse(conn, RefuseCode::Version, "protocol version mismatch");
    }
    if fingerprint != inner.fingerprint
        || identity.spec != inner.identity.spec
        || identity.shards != inner.identity.shards
        || identity.seed != inner.identity.seed
    {
        return refuse(
            conn,
            RefuseCode::Identity,
            "counter spec / engine config mismatch",
        );
    }
    Ok(())
}

fn serve_connection(inner: &Arc<ServerInner>, stream: TcpStream) -> Result<(), NetError> {
    let mut conn = FrameConn::new(stream)?;
    let stop = || inner.stop.load(Ordering::SeqCst);
    let hello = conn.recv_interruptible(&stop)?;
    let Frame::Hello {
        proto,
        role,
        fingerprint,
        identity,
        producer,
        acked_chain,
    } = hello
    else {
        let _ = conn.send(&Frame::Refused {
            code: RefuseCode::Protocol,
            reason: "expected HELLO".into(),
        });
        return Err(NetError::UnexpectedFrame {
            what: "non-HELLO opener",
        });
    };
    check_hello(inner, &mut conn, proto, fingerprint, &identity)?;
    match role {
        Role::Ingest => serve_ingest(inner, conn, producer),
        Role::Reader => serve_reader(inner, conn),
        Role::Replica => serve_replica(inner, conn, acked_chain),
    }
}

/// Claims (or mints) the writer for `producer`. Producer ids are dense
/// ring indices, so a claim beyond the current population mints
/// writers forward until the id exists — those intermediate producers
/// have no durable state, which is exactly what a fresh mark says.
fn claim_writer(inner: &ServerInner, producer: u64) -> Result<StoreWriter, RefuseCode> {
    let mut active = inner.active.lock().expect("active producers");
    let mut parked = inner.parked.lock().expect("parked writers");
    if producer == NEW_PRODUCER {
        let writer = inner.store.writer();
        active.insert(writer.producer_id());
        return Ok(writer);
    }
    if active.contains(&producer) {
        return Err(RefuseCode::Busy);
    }
    if let Some(writer) = parked.remove(&producer) {
        active.insert(producer);
        return Ok(writer);
    }
    // Mint forward to the claimed id (bounded: a claim absurdly far
    // past the population is a protocol error, not a minting loop).
    let mut minted = Vec::new();
    for _ in 0..4096 {
        let writer = inner.store.writer();
        let id = writer.producer_id();
        if id == producer {
            for w in minted {
                parked.insert(w_id(&w), w);
            }
            active.insert(id);
            return Ok(writer);
        }
        if id > producer {
            // The id existed but is neither parked nor active — only
            // possible via in-process writers the server doesn't own.
            for w in minted {
                parked.insert(w_id(&w), w);
            }
            parked.insert(id, writer);
            return Err(RefuseCode::Busy);
        }
        minted.push(writer);
    }
    for w in minted {
        parked.insert(w_id(&w), w);
    }
    Err(RefuseCode::Protocol)
}

fn w_id(w: &StoreWriter) -> u64 {
    w.producer_id()
}

fn park_writer(inner: &ServerInner, writer: StoreWriter) {
    let id = writer.producer_id();
    inner
        .parked
        .lock()
        .expect("parked writers")
        .insert(id, writer);
    inner.active.lock().expect("active producers").remove(&id);
}

fn serve_ingest(
    inner: &Arc<ServerInner>,
    mut conn: FrameConn,
    producer: u64,
) -> Result<(), NetError> {
    let mut writer = match claim_writer(inner, producer) {
        Ok(w) => w,
        Err(code) => {
            let _ = conn.send(&Frame::Refused {
                code,
                reason: format!("producer {producer} unavailable"),
            });
            return Err(NetError::Refused {
                code,
                reason: "producer unavailable".into(),
            });
        }
    };
    conn.send(&Frame::HelloOk {
        producer: writer.producer_id(),
        resume_after: writer.last_seq(),
        epoch: inner.store.reader().epoch(),
    })?;
    let stop = || inner.stop.load(Ordering::SeqCst);
    let result = loop {
        let frame = match conn.recv_interruptible(&stop) {
            Ok(f) => f,
            Err(e) => break Err(e),
        };
        match frame {
            Frame::Batch { seq, pairs } => {
                let accepted = writer.last_seq();
                if seq <= accepted {
                    // Replay of a batch we already hold: acknowledge,
                    // never re-apply — the dedup half of exactly-once.
                    if conn.send(&Frame::BatchAck { seq: accepted }).is_err() {
                        break Err(NetError::Closed);
                    }
                    continue;
                }
                if seq != accepted + 1 {
                    let _ = conn.send(&Frame::Refused {
                        code: RefuseCode::Protocol,
                        reason: format!("sequence gap: expected {}, got {seq}", accepted + 1),
                    });
                    break Err(NetError::SequenceGap {
                        expected: accepted + 1,
                        got: seq,
                    });
                }
                if pairs.is_empty() || pairs.iter().any(|&(_, d)| d == 0) {
                    let _ = conn.send(&Frame::Refused {
                        code: RefuseCode::Protocol,
                        reason: "batch must carry nonzero events".into(),
                    });
                    break Err(NetError::Malformed {
                        what: "eventless wire batch",
                    });
                }
                match writer.submit_batch(pairs) {
                    Ok(got) => {
                        debug_assert_eq!(got, seq, "wire and ring numbering must agree");
                        if conn.send(&Frame::BatchAck { seq }).is_err() {
                            break Err(NetError::Closed);
                        }
                    }
                    Err(_) => {
                        let _ = conn.send(&Frame::Refused {
                            code: RefuseCode::Shutdown,
                            reason: "store is shutting down".into(),
                        });
                        break Err(NetError::Closed);
                    }
                }
            }
            Frame::Bye => break Ok(()),
            _ => {
                let _ = conn.send(&Frame::Refused {
                    code: RefuseCode::Protocol,
                    reason: "unexpected frame on ingest connection".into(),
                });
                break Err(NetError::UnexpectedFrame {
                    what: "non-batch frame on ingest connection",
                });
            }
        }
    };
    park_writer(inner, writer);
    result
}

fn serve_reader(inner: &Arc<ServerInner>, mut conn: FrameConn) -> Result<(), NetError> {
    conn.send(&Frame::HelloOk {
        producer: NEW_PRODUCER,
        resume_after: 0,
        epoch: inner.store.reader().epoch(),
    })?;
    let mut reader = inner.store.reader();
    let stop = || inner.stop.load(Ordering::SeqCst);
    loop {
        let frame = conn.recv_interruptible(&stop)?;
        match frame {
            Frame::ReadReq { id, query } => {
                // Each query pins the newest published replica; the
                // reply reports the epoch it was served at.
                reader.refresh();
                let reply = serve_query(inner, &reader, query);
                conn.send(&Frame::ReadResp {
                    id,
                    epoch: reader.epoch(),
                    reply,
                })?;
            }
            Frame::Bye => return Ok(()),
            _ => {
                let _ = conn.send(&Frame::Refused {
                    code: RefuseCode::Protocol,
                    reason: "unexpected frame on read connection".into(),
                });
                return Err(NetError::UnexpectedFrame {
                    what: "non-query frame on read connection",
                });
            }
        }
    }
}

fn serve_query(inner: &ServerInner, reader: &ac_engine::StoreReader, query: Query) -> Reply {
    match query {
        Query::Estimate { key } => reader.estimate(key).map_or(Reply::Absent, Reply::F64),
        Query::MergedEstimate => match reader.merged_estimate() {
            Ok(x) => Reply::F64(x),
            Err(e) => Reply::Error(e.to_string()),
        },
        Query::MergedTotal => match reader.merged_total() {
            Ok(counter) => {
                let mut v = BitVec::new();
                let mut w = BitWriter::new(&mut v);
                counter.encode_state(&mut w);
                Reply::State(v.to_bytes())
            }
            Err(e) => Reply::Error(e.to_string()),
        },
        Query::MergedEstimateTiered { tiers } => {
            match reader.merged_estimate_tiered(tiers as usize) {
                Ok(x) => Reply::F64(x),
                Err(e) => Reply::Error(e.to_string()),
            }
        }
        Query::TotalEvents => Reply::U64(reader.total_events()),
        Query::Len => Reply::U64(reader.len() as u64),
        Query::Stats => Reply::Stats {
            keys: reader.len() as u64,
            events: reader.total_events(),
        },
        Query::ReplTip => {
            let chain = inner.repl.chain.lock().expect("repl chain");
            Reply::U64(chain.segments.last().map_or(0, |s| s.chain))
        }
    }
}

fn serve_replica(
    inner: &Arc<ServerInner>,
    mut conn: FrameConn,
    acked_chain: u64,
) -> Result<(), NetError> {
    if inner.tiered {
        let _ = conn.send(&Frame::Refused {
            code: RefuseCode::Unsupported,
            reason: "tiered stores do not replicate".into(),
        });
        return Err(NetError::Refused {
            code: RefuseCode::Unsupported,
            reason: "tiered store".into(),
        });
    }
    conn.send(&Frame::HelloOk {
        producer: NEW_PRODUCER,
        resume_after: 0,
        epoch: inner.store.reader().epoch(),
    })?;
    let stop = || inner.stop.load(Ordering::SeqCst);
    let mut last_acked = acked_chain;
    let (mut cursor, mut generation) = {
        let chain = inner.repl.chain.lock().expect("repl chain");
        (resume_cursor(&chain, last_acked), chain.generation)
    };
    loop {
        let next = {
            let chain = inner.repl.chain.lock().expect("repl chain");
            if let Some(reason) = &chain.failed {
                let reason = reason.clone();
                drop(chain);
                let _ = conn.send(&Frame::Refused {
                    code: RefuseCode::Shutdown,
                    reason: reason.clone(),
                });
                return Err(NetError::Remote { reason });
            }
            if chain.generation != generation {
                // Compaction rewrote the chain under us: resume from
                // the last digest the replica acknowledged, or from
                // the (full) base when that digest was folded away.
                cursor = resume_cursor(&chain, last_acked);
                generation = chain.generation;
            }
            if cursor < chain.segments.len() {
                Some(chain.segments[cursor].clone())
            } else {
                let (guard, _) = inner
                    .repl
                    .grew
                    .wait_timeout(chain, Duration::from_millis(100))
                    .expect("repl chain");
                drop(guard);
                if stop() {
                    return Ok(());
                }
                None
            }
        };
        let Some(segment) = next else { continue };
        conn.send(&Frame::ReplSegment {
            bytes: segment.bytes.as_ref().clone(),
        })?;
        match conn.recv_interruptible(&stop)? {
            Frame::ReplAck { chain } if chain == segment.chain => {
                last_acked = segment.chain;
                cursor += 1;
            }
            Frame::Bye => return Ok(()),
            _ => {
                return Err(NetError::UnexpectedFrame {
                    what: "expected ReplAck",
                })
            }
        }
    }
}

/// Where to resume a replica that has folded up to `acked`: right
/// after that digest if it is still in the chain, else from the start
/// (segment 0 is always a full base, which the replica folds as a
/// reset).
fn resume_cursor(chain: &ReplChain, acked: u64) -> usize {
    if acked == 0 {
        return 0;
    }
    chain
        .segments
        .iter()
        .position(|s| s.chain == acked)
        .map_or(0, |idx| idx + 1)
}

/// When the cutter cuts the next delta: see [`ServerConfig`].
#[derive(Debug)]
struct CutCadence {
    /// Events the store held before its ingest counter started (a
    /// reopened store's recovered state).
    recovered: u64,
    /// The store's ingest counter at the previous poll.
    last_enqueued: Option<u64>,
    /// Keys the previous cut encoded.
    last_cut_keys: u64,
}

impl CutCadence {
    fn new(recovered: u64) -> Self {
        CutCadence {
            recovered,
            last_enqueued: None,
            last_cut_keys: 0,
        }
    }

    /// One poll: `enqueued` is the store's ingest counter, read before
    /// the snapshot (`snap_epoch`, `snap_events`) was refreshed.
    fn due(
        &mut self,
        enqueued: u64,
        snap_epoch: u64,
        snap_events: u64,
        tip: &CheckpointHeader,
    ) -> bool {
        let quiesced =
            self.last_enqueued == Some(enqueued) && snap_events >= self.recovered + enqueued;
        self.last_enqueued = Some(enqueued);
        let advanced = snap_events.saturating_sub(tip.events);
        snap_epoch > tip.epoch && advanced > 0 && (quiesced || advanced >= self.last_cut_keys)
    }

    fn cut(&mut self, written: &Checkpoint) {
        self.last_cut_keys = written.stats().keys;
    }
}

fn cutter_loop(inner: &Arc<ServerInner>) {
    let mut reader = inner.store.reader();
    let mut cadence = CutCadence::new(inner.store.recovery().map_or(0, |r| r.events));
    while !inner.stop.load(Ordering::SeqCst) {
        std::thread::sleep(inner.config.cut_poll);
        let enqueued = inner.store.stats().ingest.enqueued_events;
        reader.refresh();
        let snap = reader.snapshot();
        let mut chain = inner.repl.chain.lock().expect("repl chain");
        if chain.failed.is_some() {
            return;
        }
        let cut = match chain.tip {
            None => Ok(checkpoint_snapshot(snap)),
            Some(tip) if cadence.due(enqueued, snap.epoch(), snap.total_events(), &tip) => {
                checkpoint_delta(snap, &tip)
            }
            Some(_) => continue,
        };
        // The tip was just cut from `snap`, so a long chain compacts
        // from `snap` itself — one full encode, no chain restore.
        let result = cut.and_then(|segment| {
            cadence.cut(&segment);
            push_segment(&mut chain, segment);
            if chain.segments.len() <= inner.config.max_chain_segments {
                return Ok(());
            }
            let tip = chain.tip.expect("a segment was just cut");
            let base = compact_snapshot(snap, &tip)?;
            chain.segments.clear();
            push_segment(&mut chain, base);
            chain.generation += 1;
            Ok(())
        });
        if let Err(e) = result {
            chain.failed = Some(format!("replication cut failed: {e}"));
            inner.repl.grew.notify_all();
            return;
        }
        inner.repl.grew.notify_all();
    }
}

fn push_segment(chain: &mut ReplChain, segment: Checkpoint) {
    let header = segment.header();
    chain.tip = Some(header);
    chain.segments.push(Segment {
        chain: header.chain,
        bytes: Arc::new(segment.into_bytes()),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tip(epoch: u64, events: u64) -> CheckpointHeader {
        CheckpointHeader {
            version: ac_engine::CHECKPOINT_VERSION,
            kind: ac_engine::CheckpointKind::Delta,
            params_fingerprint: 0,
            config: ac_engine::EngineConfig::new(),
            epoch,
            parent_chain: 0,
            keys: 0,
            events,
            payload_bits: 0,
            chain: 0,
        }
    }

    #[test]
    fn publish_gaps_under_a_steady_stream_do_not_cut() {
        // The stream keeps arriving (enqueued grows every poll) while
        // the published snapshot sits still between publishes: no cut
        // until the events past the tip reach the previous cut's keys.
        let mut c = CutCadence::new(0);
        c.last_cut_keys = 1_000;
        let t = tip(5, 10_000);
        assert!(!c.due(10_500, 6, 10_400, &t));
        assert!(
            !c.due(10_600, 6, 10_400, &t),
            "publish gap is not quiescence"
        );
        assert!(!c.due(10_900, 6, 10_400, &t));
        assert!(!c.due(11_100, 7, 10_999, &t));
        assert!(c.due(11_300, 8, 11_000, &t), "one key per event, amortized");
    }

    #[test]
    fn quiescence_needs_an_idle_intake_and_a_caught_up_snapshot() {
        let mut c = CutCadence::new(100);
        c.last_cut_keys = 1_000_000;
        let t = tip(5, 100);
        assert!(!c.due(50, 6, 140, &t), "first poll has no history");
        assert!(!c.due(50, 6, 140, &t), "snapshot behind the intake");
        assert!(c.due(50, 7, 150, &t), "idle intake, snapshot holds it all");
        assert!(!c.due(50, 5, 150, &t), "nothing newer than the tip");
        let at_tip = tip(7, 150);
        assert!(!c.due(50, 7, 150, &at_tip), "nothing past the tip");
    }
}
