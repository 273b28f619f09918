//! `ReplicaNode`: a warm read-only mirror fed by the primary's delta
//! checkpoint stream.
//!
//! The replica keeps one resident engine and the header of the segment
//! it folded last. A full [`ReplSegment`] replaces the engine through
//! [`restore_checkpoint`]; a delta folds into it in place through
//! [`fold_checkpoint_delta`], the per-delta validator crash recovery
//! runs, so every delta is decoded once. The replica acknowledges the
//! segment's chain digest and republishes the folded snapshot for local
//! reads. A delta that does not cite the replica's tip is refused by the
//! fold, leaving the engine untouched; the acknowledged digest is what a
//! reconnect resumes from, and when the primary has compacted past it
//! the primary re-sends a full frame, which the replica folds as a reset.
//!
//! [`ReplSegment`]: crate::wire::Frame::ReplSegment
//! [`restore_checkpoint`]: ac_engine::restore_checkpoint
//! [`fold_checkpoint_delta`]: ac_engine::fold_checkpoint_delta

use crate::client::{connect, expect_hello_ok};
use crate::conn::FrameConn;
use crate::error::{NetError, RefuseCode};
use crate::wire::{Frame, Identity, Role, NEW_PRODUCER};
use ac_engine::{
    fold_checkpoint_delta, read_header, restore_checkpoint, CheckpointHeader, CheckpointKind,
    CounterEngine, EngineSnapshot,
};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Replica-side knobs.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Backoff between reconnect attempts after a lost feed.
    pub retry: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            retry: Duration::from_millis(200),
        }
    }
}

/// What local reads see: the tip folded last and its snapshot.
#[derive(Debug, Default)]
struct Mirror {
    tip: Option<CheckpointHeader>,
    snap: Option<Arc<EngineSnapshot>>,
    folds: u64,
}

/// The feed thread's engine and the header of the segment folded last.
type Resident = Option<(CounterEngine, CheckpointHeader)>;

#[derive(Debug)]
struct ReplicaInner {
    addr: SocketAddr,
    identity: Identity,
    config: ReplicaConfig,
    mirror: RwLock<Mirror>,
    stop: AtomicBool,
    failed: Mutex<Option<String>>,
}

/// A node-to-node replica of a remote [`Store`]: connects to a
/// [`StoreServer`], folds its delta checkpoint stream, and serves
/// local reads from the folded snapshots.
///
/// [`Store`]: ac_engine::Store
/// [`StoreServer`]: crate::StoreServer
#[derive(Debug)]
pub struct ReplicaNode {
    inner: Arc<ReplicaInner>,
    feed: Option<JoinHandle<()>>,
}

impl ReplicaNode {
    /// Connects to the primary at `addr` with default knobs.
    ///
    /// # Errors
    ///
    /// Everything [`ReplicaNode::connect_with`] returns.
    pub fn connect(addr: impl ToSocketAddrs, identity: Identity) -> Result<ReplicaNode, NetError> {
        ReplicaNode::connect_with(addr, identity, ReplicaConfig::default())
    }

    /// Connects to the primary at `addr`, performing the `HELLO`
    /// handshake in the foreground (so identity mismatches and
    /// unsupported-store refusals surface here, not in a log), then
    /// hands the feed to a background thread.
    ///
    /// # Errors
    ///
    /// Connect failures and handshake refusals.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        identity: Identity,
        config: ReplicaConfig,
    ) -> Result<ReplicaNode, NetError> {
        let addr = addr.to_socket_addrs()?.next().ok_or(NetError::Malformed {
            what: "address resolves to nothing",
        })?;
        identity.spec.build().map_err(|_| NetError::Malformed {
            what: "replica spec does not build",
        })?;
        let mut conn = connect(addr, &identity, Role::Replica, NEW_PRODUCER, 0)?;
        expect_hello_ok(&mut conn)?;
        let inner = Arc::new(ReplicaInner {
            addr,
            identity,
            config,
            mirror: RwLock::new(Mirror::default()),
            stop: AtomicBool::new(false),
            failed: Mutex::new(None),
        });
        let feed_inner = Arc::clone(&inner);
        let feed = std::thread::Builder::new()
            .name("ac-net-replica".into())
            .spawn(move || feed_loop(&feed_inner, conn))
            .expect("spawn replica feed");
        Ok(ReplicaNode {
            inner,
            feed: Some(feed),
        })
    }

    /// The chain digest of the last segment folded and acknowledged
    /// (0 before the first). Equal digests on primary and replica mean
    /// the replica's state *is* the primary's checkpointed state.
    #[must_use]
    pub fn chain_digest(&self) -> u64 {
        let mirror = self.inner.mirror.read().expect("mirror");
        mirror.tip.map_or(0, |t| t.chain)
    }

    /// How many segments have been folded since connecting.
    #[must_use]
    pub fn folds(&self) -> u64 {
        self.inner.mirror.read().expect("mirror").folds
    }

    /// The freeze epoch of the folded snapshot (0 before the first
    /// fold) — the epoch the primary cut the mirrored checkpoint at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        let mirror = self.inner.mirror.read().expect("mirror");
        mirror.tip.map_or(0, |t| t.epoch)
    }

    /// Per-key estimate against the folded snapshot; `None` before the
    /// first fold or for a key never seen.
    #[must_use]
    pub fn estimate(&self, key: u64) -> Option<f64> {
        let mirror = self.inner.mirror.read().expect("mirror");
        mirror.snap.as_ref()?.estimate(key)
    }

    /// Exact total events in the folded snapshot (0 before the first
    /// fold).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        let mirror = self.inner.mirror.read().expect("mirror");
        mirror.snap.as_ref().map_or(0, |s| s.total_events())
    }

    /// Distinct keys in the folded snapshot.
    #[must_use]
    pub fn len(&self) -> u64 {
        let mirror = self.inner.mirror.read().expect("mirror");
        mirror.snap.as_ref().map_or(0, |s| s.len() as u64)
    }

    /// True before the first fold or while the mirror holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The folded snapshot's total, summed from the per-key unbiased
    /// counts exactly like the primary's [`StoreReader::merged_estimate`]:
    /// `O(shards)` for Exact and Nelson–Yu keys, no RNG and no seed. A
    /// replica and a primary reader holding the same counters return the
    /// same `f64`, whatever order the keys reached either side.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] before the first fold.
    ///
    /// [`StoreReader::merged_estimate`]: ac_engine::StoreReader::merged_estimate
    pub fn merged_estimate(&self) -> Result<f64, NetError> {
        let mirror = self.inner.mirror.read().expect("mirror");
        let snap = mirror.snap.as_ref().ok_or(NetError::Malformed {
            what: "replica has not folded a snapshot yet",
        })?;
        Ok(snap.merged_estimate())
    }

    /// Why the feed died, if it did (fold failures and permanent
    /// refusals land here; transient connection losses do not — the
    /// feed retries those).
    #[must_use]
    pub fn failed(&self) -> Option<String> {
        self.inner.failed.lock().expect("failed slot").clone()
    }

    /// Blocks until the folded snapshot reports at least `events`
    /// total events, or `timeout` passes. True on success.
    #[must_use]
    pub fn wait_for_events(&self, events: u64, timeout: Duration) -> bool {
        self.wait(timeout, || self.total_events() >= events)
    }

    /// Blocks until the acknowledged chain digest equals `digest`, or
    /// `timeout` passes. True on success. Pair with the primary's tip
    /// digest to observe convergence.
    #[must_use]
    pub fn wait_for_chain(&self, digest: u64, timeout: Duration) -> bool {
        self.wait(timeout, || self.chain_digest() == digest)
    }

    fn wait(&self, timeout: Duration, done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if done() {
                return true;
            }
            if Instant::now() >= deadline || self.failed().is_some() {
                return done();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops the feed and joins it. The folded state stays readable
    /// through this handle until drop.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(h) = self.feed.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn feed_loop(inner: &ReplicaInner, mut conn: FrameConn) {
    let stop = || inner.stop.load(Ordering::Acquire);
    let mut resident: Resident = None;
    loop {
        match conn.recv_interruptible(&stop) {
            Ok(Frame::ReplSegment { bytes }) => {
                let chain = match fold_segment(inner, &mut resident, &bytes) {
                    Ok(chain) => chain,
                    Err(e) => {
                        // A segment that does not fold is corruption or
                        // a protocol bug, not weather — stop rather
                        // than ack state we do not hold.
                        fail(inner, &format!("segment fold failed: {e}"));
                        return;
                    }
                };
                if conn.send(&Frame::ReplAck { chain }).is_err() {
                    // Ack lost with the connection; the reconnect
                    // handshake re-presents the digest instead.
                    if !reconnect(inner, &mut conn) {
                        return;
                    }
                }
            }
            Ok(Frame::Bye) => return,
            Ok(_) => {
                fail(inner, "unexpected frame on replication connection");
                return;
            }
            Err(NetError::Closed) if stop() => return,
            Err(_) => {
                if !reconnect(inner, &mut conn) {
                    return;
                }
            }
        }
    }
}

/// Folds one segment into the resident engine, publishes the result to
/// local reads, and returns the digest to ack. A refused segment leaves
/// the engine and the published mirror as they were.
fn fold_segment(
    inner: &ReplicaInner,
    resident: &mut Resident,
    bytes: &[u8],
) -> Result<u64, NetError> {
    let refused = |e: ac_engine::CheckpointError| NetError::Remote {
        reason: e.to_string(),
    };
    let header = read_header(bytes).map_err(refused)?;
    let (engine, tip) = if header.kind == CheckpointKind::Full {
        // A full frame starts a fresh chain — the primary restarted the
        // stream (first contact, or compaction passed our ack).
        let ladder = std::slice::from_ref(&inner.identity.spec);
        let engine = restore_checkpoint(ladder, &[bytes]).map_err(refused)?;
        let (engine, tip) = resident.insert((engine, header));
        (engine, tip)
    } else {
        let (engine, tip) = resident.as_mut().ok_or(NetError::Malformed {
            what: "delta segment before any base",
        })?;
        let ladder = std::slice::from_ref(&inner.identity.spec);
        *tip = fold_checkpoint_delta(engine, ladder, tip, bytes).map_err(refused)?;
        (engine, tip)
    };
    // Pin the folded snapshot to the primary's freeze epoch so merged
    // reads here agree with a primary reader pinned to the same epoch.
    let snap = Arc::new(engine.snapshot().with_epoch(tip.epoch));
    let mut mirror = inner.mirror.write().expect("mirror");
    mirror.snap = Some(snap);
    mirror.tip = Some(*tip);
    mirror.folds += 1;
    Ok(tip.chain)
}

fn fail(inner: &ReplicaInner, reason: &str) {
    let mut slot = inner.failed.lock().expect("failed slot");
    if slot.is_none() {
        *slot = Some(reason.to_string());
    }
}

/// Re-dials the primary with the acknowledged digest until it answers
/// or the node is stopped. True when `conn` is a fresh live feed.
fn reconnect(inner: &ReplicaInner, conn: &mut FrameConn) -> bool {
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return false;
        }
        sleep_interruptible(inner, inner.config.retry);
        if inner.stop.load(Ordering::Acquire) {
            return false;
        }
        let acked = inner.mirror.read().expect("mirror").tip;
        let acked = acked.map_or(0, |t| t.chain);
        if let Ok(mut fresh) = connect(
            inner.addr,
            &inner.identity,
            Role::Replica,
            NEW_PRODUCER,
            acked,
        ) {
            match expect_hello_ok(&mut fresh) {
                Ok(_) => {
                    *conn = fresh;
                    return true;
                }
                Err(NetError::Refused { code, reason }) if code != RefuseCode::Busy => {
                    // Identity or capability refusals will not heal on
                    // retry; record and stop.
                    fail(inner, &format!("refused ({code}): {reason}"));
                    return false;
                }
                Err(_) => {}
            }
        }
    }
}

fn sleep_interruptible(inner: &ReplicaInner, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
