//! The background checkpointer: a dedicated writer thread that turns
//! periodically-submitted snapshots into a durable **base + deltas**
//! chain, so the appliers' only durability cost is the `O(shards)` freeze
//! itself.
//!
//! The applier loop (a
//! [`IngestQueue::drain_routed`](crate::IngestQueue::drain_routed) burst
//! hook on a [`CheckpointCadence`](crate::CheckpointCadence), as the
//! [`Store`](crate::Store) runs it) cuts a copy-on-write snapshot at a
//! burst boundary every [`CheckpointerConfig::every_events`] applied
//! events and hands it over a channel — nanoseconds of work. This thread
//! serializes it on its own time: the first snapshot (and every
//! [`CheckpointerConfig::max_deltas_per_base`]-th thereafter) becomes a
//! full checkpoint, the rest become deltas against the previous frame via
//! [`checkpoint_delta`]. Because snapshots share unwritten slabs with the
//! live engine, serialization reads the same memory the readers do —
//! never blocking, never copying more than the writers already did.
//!
//! ## Manifest
//!
//! When configured with a directory *and* a [`ManifestInfo`]
//! ([`CheckpointerConfig::with_manifest`]), the writer thread also keeps
//! the directory's [`Manifest`](crate::Manifest) up to date: the header
//! (spec + config) is ensured at spawn, and one checksummed frame line is
//! appended after each frame file lands — file name, chain digests, and
//! the per-producer applied sequence marks that rode in with the
//! snapshot. `Store::open` reads that manifest to discover the newest
//! intact chain after a crash.
//!
//! ## Off-thread compaction
//!
//! A base + deltas chain grows with *history*, so recovery replay time
//! grows with uptime, not with state size — the opposite of the repo's
//! thesis. When a chain-length or chain-bytes trigger is configured
//! ([`CheckpointerConfig::with_max_chain_len`] /
//! [`CheckpointerConfig::with_max_chain_bytes`]) and the checkpointer
//! has a directory + manifest, the writer thread owns a second
//! **compactor** thread. When the live chain crosses a trigger, the
//! writer hands the chain's frame files to the compactor and keeps
//! writing; the compactor folds them (parallel restore) into one fresh
//! full frame ([`compact_chain`](crate::compact_chain)) whose header
//! pins the folded tip's epoch and chain digest, writes + fsyncs it,
//! and hands the result back. The writer — still the only manifest
//! writer — then **commits** by atomically rewriting the manifest
//! (tmp file + rename, both fsynced) to list the compacted base plus
//! whatever deltas landed while the fold ran; the old chain stays valid
//! until the rename, so a crash at any point recovers from one chain or
//! the other, never neither. Superseded frame files are pruned after
//! the commit, subject to [`CheckpointerConfig::with_retention`]'s TTL.
//! Producer high-water marks ride the folded tip's manifest line onto
//! the compacted base's, so exactly-once replay cursors survive
//! compaction. If a fresh full frame landed mid-fold (rebase, foreign
//! snapshot), the result no longer extends the live chain and is
//! discarded — the orphan base file is deleted and never referenced.

use crate::checkpoint::{
    checkpoint_delta, checkpoint_delta_with, checkpoint_snapshot, checkpoint_snapshot_with,
    compact_chain_with_workers, compact_chain_workers, Checkpoint, CheckpointHeader,
    CheckpointKind,
};
use crate::ingest::ProducerMark;
use crate::manifest::{Manifest, ManifestFrame, ManifestInfo};
use crate::snapshot::EngineSnapshot;
use ac_core::StateCodec;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Background checkpointer construction parameters. Construct with the
/// builder surface: `CheckpointerConfig::new().with_every_events(…)`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct CheckpointerConfig {
    /// Applied-event cadence between snapshot submissions (read by the
    /// applier's [`CheckpointCadence`](crate::CheckpointCadence) hook; the
    /// checkpointer itself serializes whatever it is handed).
    pub every_events: u64,
    /// After this many deltas, the next frame is a fresh full checkpoint
    /// (bounds chain length, and therefore worst-case restore work and
    /// the blast radius of a lost segment).
    pub max_deltas_per_base: usize,
    /// When set, each frame is also written to
    /// `<directory>/ckpt-<session>-<seq>-<kind>.bin`.
    pub directory: Option<PathBuf>,
    /// Keep each frame's bytes in its [`CheckpointRecord`] (the
    /// in-memory chain lets tests and benches fold the chain back
    /// without disk). **Off by default**: retained buffers accumulate
    /// for the checkpointer's whole lifetime, which is an unbounded
    /// memory cost for a long-running service.
    pub retain_bytes: bool,
    /// When set (together with [`CheckpointerConfig::directory`]), the
    /// writer maintains the directory's store manifest; see the module
    /// docs.
    pub manifest: Option<ManifestInfo>,
    /// When set, a background compactor folds the live chain into a
    /// fresh full frame whenever the chain holds more than this many
    /// frames (base included). Requires a directory *and* manifest;
    /// see the module docs.
    pub compact_max_chain_len: Option<usize>,
    /// When set, the compactor also triggers whenever the live chain's
    /// frame files exceed this many bytes in total.
    pub compact_max_chain_bytes: Option<u64>,
    /// How long superseded frame files linger on disk after a
    /// compaction commit stops referencing them. `Duration::ZERO`
    /// (default) prunes them immediately.
    pub retention: Duration,
}

impl CheckpointerConfig {
    /// The default configuration (full frame every 15 deltas, 1M-event
    /// cadence, no directory, bytes not retained).
    #[must_use]
    pub fn new() -> Self {
        Self {
            every_events: 1_000_000,
            max_deltas_per_base: 15,
            directory: None,
            retain_bytes: false,
            manifest: None,
            compact_max_chain_len: None,
            compact_max_chain_bytes: None,
            retention: Duration::ZERO,
        }
    }

    /// Sets the applied-event cadence between snapshots.
    #[must_use]
    pub fn with_every_events(mut self, every_events: u64) -> Self {
        self.every_events = every_events;
        self
    }

    /// Sets how many deltas may follow a base before rebasing.
    #[must_use]
    pub fn with_max_deltas_per_base(mut self, max: usize) -> Self {
        self.max_deltas_per_base = max;
        self
    }

    /// Writes each frame to a file under `dir`.
    #[must_use]
    pub fn with_directory(mut self, dir: impl Into<PathBuf>) -> Self {
        self.directory = Some(dir.into());
        self
    }

    /// Keeps (or drops) each frame's bytes in its record.
    #[must_use]
    pub fn with_retain_bytes(mut self, retain: bool) -> Self {
        self.retain_bytes = retain;
        self
    }

    /// Maintains the durability directory's store manifest (requires
    /// [`CheckpointerConfig::with_directory`] to have any effect).
    #[must_use]
    pub fn with_manifest(mut self, info: ManifestInfo) -> Self {
        self.manifest = Some(info);
        self
    }

    /// Compacts the chain off-thread once it holds more than `max`
    /// frames (base included); see the module docs. Only effective
    /// together with a directory and manifest.
    #[must_use]
    pub fn with_max_chain_len(mut self, max: usize) -> Self {
        self.compact_max_chain_len = Some(max);
        self
    }

    /// Compacts the chain off-thread once its frame files exceed `max`
    /// total bytes; see the module docs. Only effective together with a
    /// directory and manifest.
    #[must_use]
    pub fn with_max_chain_bytes(mut self, max: u64) -> Self {
        self.compact_max_chain_bytes = Some(max);
        self
    }

    /// Keeps superseded frame files on disk for `ttl` after a
    /// compaction commit stops referencing them (a grace window for
    /// external backup tooling). The default is immediate pruning.
    #[must_use]
    pub fn with_retention(mut self, ttl: Duration) -> Self {
        self.retention = ttl;
        self
    }
}

impl Default for CheckpointerConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One frame the checkpointer wrote.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CheckpointRecord {
    /// Position in submission order (0 = first).
    pub seq: usize,
    /// Full or delta.
    pub kind: CheckpointKind,
    /// Engine events at the frame's freeze.
    pub events: u64,
    /// Freeze epoch of the frame.
    pub epoch: u64,
    /// Shard sections serialized (engine shards for a full frame, dirty
    /// shards for a delta).
    pub shards_written: usize,
    /// Serialized size in bytes.
    pub bytes_len: u64,
    /// Wall-clock seconds spent serializing (and writing, if a directory
    /// is configured) — paid on this thread, not the appliers'.
    pub write_seconds: f64,
    /// Where the frame landed on disk, when a directory is configured.
    pub path: Option<PathBuf>,
    /// The frame itself, when [`CheckpointerConfig::retain_bytes`] is on.
    pub bytes: Option<Vec<u8>>,
    /// Per-producer applied sequence marks that rode in with the
    /// snapshot ([`BackgroundCheckpointer::submit_with_marks`]); empty
    /// for plain [`BackgroundCheckpointer::submit`] submissions.
    pub producer_marks: Vec<ProducerMark>,
}

/// Everything the checkpointer produced, returned by
/// [`BackgroundCheckpointer::finish`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CheckpointerReport {
    /// Every written frame, in submission order.
    pub records: Vec<CheckpointRecord>,
}

impl CheckpointerReport {
    /// The newest restorable chain: the last full frame and every delta
    /// after it, ready for
    /// [`restore_checkpoint_chain`](crate::restore_checkpoint_chain).
    /// `None` when nothing was written or bytes were not retained.
    #[must_use]
    pub fn latest_chain(&self) -> Option<Vec<&[u8]>> {
        let base = self
            .records
            .iter()
            .rposition(|r| r.kind == CheckpointKind::Full)?;
        self.records[base..]
            .iter()
            .map(|r| r.bytes.as_deref())
            .collect()
    }
}

/// Live counters shared between the writer thread and stats readers.
#[derive(Debug, Default)]
struct Totals {
    submitted: AtomicU64,
    written: AtomicU64,
    full_frames: AtomicU64,
    delta_frames: AtomicU64,
    bytes_written: AtomicU64,
    last_checkpoint_events: AtomicU64,
    last_write_ns: AtomicU64,
    compactions: AtomicU64,
    compacted_frames: AtomicU64,
    pruned_files: AtomicU64,
    last_compact_ns: AtomicU64,
}

fn totals_stats(t: &Totals) -> CheckpointerStats {
    CheckpointerStats {
        submitted: t.submitted.load(Ordering::Relaxed),
        written: t.written.load(Ordering::Acquire),
        full_frames: t.full_frames.load(Ordering::Relaxed),
        delta_frames: t.delta_frames.load(Ordering::Relaxed),
        bytes_written: t.bytes_written.load(Ordering::Relaxed),
        last_checkpoint_events: t.last_checkpoint_events.load(Ordering::Relaxed),
        last_write_ns: t.last_write_ns.load(Ordering::Relaxed),
        compactions: t.compactions.load(Ordering::Relaxed),
        compacted_frames: t.compacted_frames.load(Ordering::Relaxed),
        pruned_files: t.pruned_files.load(Ordering::Relaxed),
        last_compact_ns: t.last_compact_ns.load(Ordering::Relaxed),
    }
}

/// A point-in-time summary of the background checkpointer. Feed it to
/// [`EngineStats::with_checkpointer`](crate::EngineStats::with_checkpointer)
/// to expose the durability lag in a whole-pipeline summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CheckpointerStats {
    /// Snapshots handed to the writer thread so far.
    pub submitted: u64,
    /// Frames fully serialized so far.
    pub written: u64,
    /// Full frames among them.
    pub full_frames: u64,
    /// Delta frames among them.
    pub delta_frames: u64,
    /// Total serialized bytes across all frames.
    pub bytes_written: u64,
    /// Engine events covered by the newest durable frame — the quantity
    /// behind
    /// [`EngineStats::checkpoint_lag_events`](crate::EngineStats::checkpoint_lag_events).
    pub last_checkpoint_events: u64,
    /// Wall-clock nanoseconds the newest frame took to serialize.
    pub last_write_ns: u64,
    /// Chain compactions committed (manifest atomically rewritten to a
    /// compacted base plus any trailing deltas).
    pub compactions: u64,
    /// Frames folded away across all committed compactions.
    pub compacted_frames: u64,
    /// Superseded frame files deleted after compaction commits.
    pub pruned_files: u64,
    /// Wall-clock nanoseconds the newest committed compaction spent
    /// folding and writing its base (paid on the compactor thread).
    pub last_compact_ns: u64,
}

/// A cheap, cloneable, read-only view of a checkpointer's live counters —
/// for stats from threads that do not own the checkpointer (the `Store`
/// facade hands the checkpointer to its applier thread and keeps a probe).
#[derive(Debug, Clone)]
pub struct CheckpointerProbe {
    totals: Arc<Totals>,
}

impl CheckpointerProbe {
    /// Diagnostics snapshot; cheap, safe to call from any thread.
    #[must_use]
    pub fn stats(&self) -> CheckpointerStats {
        totals_stats(&self.totals)
    }
}

/// One unit of work for the writer thread.
struct Submission<C> {
    snap: EngineSnapshot<C>,
    marks: Vec<ProducerMark>,
}

/// A chain handed to the compactor thread: the live chain's manifest
/// frames (base first) at the moment the trigger fired, plus the
/// untiered template the fold restores against.
struct CompactJob<C> {
    frames: Vec<ManifestFrame>,
    template: C,
    session: u64,
    seq: u64,
}

/// What the compactor hands back after folding a [`CompactJob`] and
/// fsyncing the compacted base file. The writer commits it only if the
/// live chain still *extends* the job (same first frame); otherwise the
/// base file is an orphan and is deleted.
struct CompactOutcome {
    /// `frames[0].file` of the job — the extend check.
    first_file: String,
    /// How many frames the fold consumed.
    folded: usize,
    /// Manifest line for the compacted base (kind full, tip's epoch /
    /// totals / marks, `parent_chain` = the folded tip's chain digest).
    frame: ManifestFrame,
    /// Size of the compacted base file.
    bytes: u64,
    /// Wall-clock nanoseconds spent folding + writing.
    nanos: u64,
}

fn compactor_loop<C: StateCodec + Clone + Send + Sync + 'static>(
    dir: &Path,
    templates: Option<&[C]>,
    jobs: &Receiver<CompactJob<C>>,
    results: &Sender<Option<CompactOutcome>>,
) {
    while let Ok(job) = jobs.recv() {
        let outcome = run_compaction(dir, templates, &job);
        if results.send(outcome).is_err() {
            break;
        }
    }
}

/// Folds one chain into a compacted base file. Any failure (a frame
/// file already gone, a corrupt segment, an I/O error) yields `None`:
/// the old chain stays authoritative and nothing was published.
fn run_compaction<C: StateCodec + Clone + Send + Sync + 'static>(
    dir: &Path,
    templates: Option<&[C]>,
    job: &CompactJob<C>,
) -> Option<CompactOutcome> {
    let start = Instant::now();
    let tip = job.frames.last()?;
    let first_file = job.frames.first()?.file.clone();
    let mut buffers = Vec::with_capacity(job.frames.len());
    for frame in &job.frames {
        buffers.push(std::fs::read(dir.join(&frame.file)).ok()?);
    }
    let segments: Vec<&[u8]> = buffers.iter().map(Vec::as_slice).collect();
    let ck: Checkpoint = match templates {
        Some(t) => compact_chain_with_workers(t, &segments, 0).ok()?,
        None => compact_chain_workers(&job.template, &segments, 0).ok()?,
    };
    let header = ck.header();
    let name = format!("ckpt-{:03}-c{:05}-full.bin", job.session, job.seq);
    let path = dir.join(&name);
    let written = (|| -> std::io::Result<()> {
        let mut file = std::fs::File::create(&path)?;
        std::io::Write::write_all(&mut file, ck.bytes())?;
        file.sync_all()
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&path);
        return None;
    }
    Some(CompactOutcome {
        first_file,
        folded: job.frames.len(),
        bytes: ck.bytes().len() as u64,
        nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        frame: ManifestFrame {
            session: job.session,
            file: name,
            kind: CheckpointKind::Full,
            epoch: header.epoch,
            events: header.events,
            keys: header.keys,
            chain: header.chain,
            parent_chain: header.parent_chain,
            marks: tip.marks.clone(),
        },
    })
}

/// The writer thread's record of the live (restorable-from-disk) chain:
/// each frame's manifest line plus its file size.
type LiveChain = Vec<(ManifestFrame, u64)>;

/// Commits a compaction on the writer thread: atomically rewrites the
/// manifest to `[compacted base] + deltas landed since the job`, then
/// prunes frame files the new manifest no longer references. If a full
/// frame reset the chain mid-fold, the outcome no longer applies and
/// its orphan base file is deleted instead.
fn commit_compaction(
    dir: &Path,
    info: &ManifestInfo,
    retention: Duration,
    outcome: CompactOutcome,
    chain: &mut LiveChain,
    deltas_since_base: &mut usize,
    totals: &Totals,
) {
    let extends = chain.len() >= outcome.folded
        && chain
            .first()
            .is_some_and(|(f, _)| f.file == outcome.first_file);
    if !extends {
        let _ = std::fs::remove_file(dir.join(&outcome.frame.file));
        return;
    }
    let mut new_chain: LiveChain = Vec::with_capacity(chain.len() - outcome.folded + 1);
    new_chain.push((outcome.frame, outcome.bytes));
    new_chain.extend(chain.drain(outcome.folded..));
    let frames: Vec<ManifestFrame> = new_chain.iter().map(|(f, _)| f.clone()).collect();
    Manifest::rewrite(
        dir,
        &info.spec,
        &info.config,
        info.tiering.as_ref(),
        &frames,
    )
    .expect("rewrite manifest for compacted chain");
    *chain = new_chain;
    // The next rebase counts deltas from the compacted base onward.
    *deltas_since_base = chain.len() - 1;
    let live: HashSet<&str> = chain.iter().map(|(f, _)| f.file.as_str()).collect();
    let pruned = prune_stale_frames(dir, &live, retention);
    totals.compactions.fetch_add(1, Ordering::Relaxed);
    totals
        .compacted_frames
        .fetch_add(outcome.folded as u64, Ordering::Relaxed);
    totals.pruned_files.fetch_add(pruned, Ordering::Relaxed);
    totals
        .last_compact_ns
        .store(outcome.nanos, Ordering::Relaxed);
}

/// Deletes `ckpt-*.bin` files the live chain no longer references, once
/// they are at least `retention` old. Failures are ignored — a file
/// that survives a prune pass is retried after the next compaction.
fn prune_stale_frames(dir: &Path, live: &HashSet<&str>, retention: Duration) -> u64 {
    let mut pruned = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("ckpt-") || !name.ends_with(".bin") || live.contains(name.as_str()) {
            continue;
        }
        let old_enough = retention.is_zero()
            || entry
                .metadata()
                .ok()
                .and_then(|m| m.modified().ok())
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age >= retention);
        if old_enough && std::fs::remove_file(entry.path()).is_ok() {
            pruned += 1;
        }
    }
    pruned
}

/// A dedicated checkpoint-writer thread; see the module docs.
///
/// Submissions never block (unbounded channel of `O(shards)`-sized
/// snapshots); [`BackgroundCheckpointer::finish`] drains and joins.
/// Snapshots are expected to come from one engine lineage; a submission
/// that cannot extend the current delta chain (different counter
/// schedule, different config, older epoch) is written as a fresh full
/// frame rather than an error — interleaving *multiple* engines through
/// one checkpointer therefore still persists every frame, but produces
/// chains that restore each lineage only from its own full frames.
#[derive(Debug)]
pub struct BackgroundCheckpointer<C: StateCodec + Clone + Send + Sync + 'static> {
    tx: Sender<Submission<C>>,
    handle: JoinHandle<Vec<CheckpointRecord>>,
    totals: Arc<Totals>,
    config: CheckpointerConfig,
}

impl<C: StateCodec + Clone + Send + Sync + 'static> BackgroundCheckpointer<C> {
    /// Starts the writer thread.
    ///
    /// # Panics
    ///
    /// Panics if `every_events` is zero or, in
    /// [`BackgroundCheckpointer::finish`], if a configured directory or
    /// manifest turns out not to be writable or belongs to a different
    /// deployment (durability failures are not swallowed; the `Store`
    /// facade pre-validates both to return typed errors instead).
    #[must_use]
    pub fn spawn(config: CheckpointerConfig) -> Self {
        Self::spawn_with(config, None)
    }

    /// [`BackgroundCheckpointer::spawn`] for a **tiered** engine: frames
    /// are serialized against `templates` (the tier ladder, rung 0 =
    /// default) via
    /// [`checkpoint_snapshot_with`](crate::checkpoint_snapshot_with) /
    /// [`checkpoint_delta_with`](crate::checkpoint_delta_with), so
    /// snapshots carrying tier tags land as version-3 frames instead of
    /// panicking the writer. `None` is the plain version-2 writer.
    ///
    /// # Panics
    ///
    /// As [`BackgroundCheckpointer::spawn`], plus if `templates` is
    /// `Some` but empty.
    #[must_use]
    pub fn spawn_with(config: CheckpointerConfig, templates: Option<Vec<C>>) -> Self {
        assert!(config.every_events > 0, "cadence must be positive");
        assert!(
            templates.as_ref().is_none_or(|t| !t.is_empty()),
            "a tier ladder needs at least the default template"
        );
        let (tx, rx) = channel::<Submission<C>>();
        let totals = Arc::new(Totals::default());
        let thread_totals = Arc::clone(&totals);
        let thread_config = config.clone();
        let handle = std::thread::spawn(move || {
            if let (Some(dir), Some(info)) = (&thread_config.directory, &thread_config.manifest) {
                Manifest::ensure(dir, &info.spec, &info.config, info.tiering.as_ref())
                    .expect("usable store manifest");
            }
            let mut records: Vec<CheckpointRecord> = Vec::new();
            // Only the parent's header is needed to chain the next delta
            // (80 bytes, `Copy`) — never the parent's serialized buffer.
            let mut parent: Option<CheckpointHeader> = None;
            let mut deltas_since_base = 0usize;
            // Compaction needs on-disk frames and a manifest to swap.
            let compaction = match (&thread_config.directory, &thread_config.manifest) {
                (Some(dir), Some(_))
                    if thread_config.compact_max_chain_len.is_some()
                        || thread_config.compact_max_chain_bytes.is_some() =>
                {
                    let (job_tx, job_rx) = channel::<CompactJob<C>>();
                    let (result_tx, result_rx) = channel::<Option<CompactOutcome>>();
                    let compactor_dir = dir.clone();
                    let compactor_templates = templates.clone();
                    let handle = std::thread::spawn(move || {
                        compactor_loop(
                            &compactor_dir,
                            compactor_templates.as_deref(),
                            &job_rx,
                            &result_tx,
                        );
                    });
                    Some((job_tx, result_rx, handle))
                }
                _ => None,
            };
            let mut chain: LiveChain = Vec::new();
            let mut in_flight = false;
            let mut compact_seq: u64 = 0;
            while let Ok(Submission { snap, marks }) = rx.recv() {
                if let Some((_, results, _)) = &compaction {
                    while let Ok(result) = results.try_recv() {
                        in_flight = false;
                        if let (Some(outcome), Some(dir), Some(info)) = (
                            result,
                            thread_config.directory.as_ref(),
                            thread_config.manifest.as_ref(),
                        ) {
                            commit_compaction(
                                dir,
                                info,
                                thread_config.retention,
                                outcome,
                                &mut chain,
                                &mut deltas_since_base,
                                &thread_totals,
                            );
                        }
                    }
                }
                let start = Instant::now();
                let full = |snap: &EngineSnapshot<C>| match &templates {
                    Some(t) => checkpoint_snapshot_with(snap, t),
                    None => checkpoint_snapshot(snap),
                };
                let delta = |snap: &EngineSnapshot<C>, base: &CheckpointHeader| match &templates {
                    Some(t) => checkpoint_delta_with(snap, t, base),
                    None => checkpoint_delta(snap, base),
                };
                let (ck, kind) = match &parent {
                    Some(base) if deltas_since_base < thread_config.max_deltas_per_base => {
                        // A snapshot that cannot extend the current chain
                        // (different schedule/config/lineage, or an
                        // epoch not strictly newer than the parent's)
                        // rebases onto a fresh full frame instead of
                        // killing the writer thread: every full frame is
                        // self-contained, so durability degrades to
                        // "larger", never to "lost".
                        match delta(&snap, base) {
                            Ok(d) => (d, CheckpointKind::Delta),
                            Err(_) => (full(&snap), CheckpointKind::Full),
                        }
                    }
                    _ => (full(&snap), CheckpointKind::Full),
                };
                let header = ck.header();
                let stats = ck.stats();
                let bytes_len = ck.bytes().len() as u64;
                let seq = records.len();
                let session = thread_config.manifest.as_ref().map_or(0, |m| m.session);
                let mut path = None;
                if let Some(dir) = thread_config.directory.as_ref() {
                    let kind_tag = match kind {
                        CheckpointKind::Full => "full",
                        CheckpointKind::Delta => "delta",
                    };
                    let name = format!("ckpt-{session:03}-{seq:05}-{kind_tag}.bin");
                    let frame_path = dir.join(&name);
                    // Write + fsync before the manifest line lands: a
                    // listed frame's bytes must already be durable.
                    let mut file =
                        std::fs::File::create(&frame_path).expect("create checkpoint frame");
                    std::io::Write::write_all(&mut file, ck.bytes())
                        .expect("write checkpoint frame");
                    file.sync_all().expect("sync checkpoint frame");
                    if thread_config.manifest.is_some() {
                        let frame = ManifestFrame {
                            session,
                            file: name,
                            kind,
                            epoch: header.epoch,
                            events: header.events,
                            keys: header.keys,
                            chain: header.chain,
                            parent_chain: header.parent_chain,
                            marks: marks.clone(),
                        };
                        Manifest::append_frame(dir, &frame).expect("append manifest frame line");
                        // A full frame starts a fresh chain; a delta
                        // extends the current one.
                        if kind == CheckpointKind::Full {
                            chain.clear();
                        }
                        chain.push((frame, bytes_len));
                    }
                    path = Some(frame_path);
                }
                let write_seconds = start.elapsed().as_secs_f64();
                match kind {
                    CheckpointKind::Full => {
                        deltas_since_base = 0;
                        thread_totals.full_frames.fetch_add(1, Ordering::Relaxed);
                    }
                    CheckpointKind::Delta => {
                        deltas_since_base += 1;
                        thread_totals.delta_frames.fetch_add(1, Ordering::Relaxed);
                    }
                }
                thread_totals
                    .bytes_written
                    .fetch_add(bytes_len, Ordering::Relaxed);
                thread_totals
                    .last_checkpoint_events
                    .store(header.events, Ordering::Relaxed);
                thread_totals.last_write_ns.store(
                    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    Ordering::Relaxed,
                );
                // Published last, pairing with the Acquire load in
                // `totals_stats`: a reader that sees this frame counted
                // also sees its bytes, events and write time.
                thread_totals.written.fetch_add(1, Ordering::Release);
                records.push(CheckpointRecord {
                    seq,
                    kind,
                    events: header.events,
                    epoch: header.epoch,
                    shards_written: stats.shards_written,
                    bytes_len,
                    write_seconds,
                    path,
                    // Move the buffer, don't copy it; drop it otherwise.
                    bytes: thread_config.retain_bytes.then(|| ck.into_bytes()),
                    producer_marks: marks,
                });
                parent = Some(header);
                // One fold in flight at a time: a job is the whole live
                // chain, so overlapping folds would only duplicate work.
                if let Some((jobs, _, _)) = &compaction {
                    if !in_flight && chain.len() >= 2 {
                        let chain_bytes: u64 = chain.iter().map(|(_, b)| b).sum();
                        let over_len = thread_config
                            .compact_max_chain_len
                            .is_some_and(|m| chain.len() > m.max(1));
                        let over_bytes = thread_config
                            .compact_max_chain_bytes
                            .is_some_and(|m| chain_bytes > m);
                        if over_len || over_bytes {
                            let job = CompactJob {
                                frames: chain.iter().map(|(f, _)| f.clone()).collect(),
                                template: snap.template.clone(),
                                session,
                                seq: compact_seq,
                            };
                            compact_seq += 1;
                            if jobs.send(job).is_ok() {
                                in_flight = true;
                            }
                        }
                    }
                }
            }
            // Drain the in-flight fold (if any) so a chain compacted
            // moments before shutdown still commits, then retire the
            // compactor.
            if let Some((jobs, results, handle)) = compaction {
                drop(jobs);
                if in_flight {
                    if let (Ok(Some(outcome)), Some(dir), Some(info)) = (
                        results.recv(),
                        thread_config.directory.as_ref(),
                        thread_config.manifest.as_ref(),
                    ) {
                        commit_compaction(
                            dir,
                            info,
                            thread_config.retention,
                            outcome,
                            &mut chain,
                            &mut deltas_since_base,
                            &thread_totals,
                        );
                    }
                }
                handle.join().expect("compactor thread");
            }
            records
        });
        Self {
            tx,
            handle,
            totals,
            config,
        }
    }

    /// The configuration (the drain loop reads the cadence from here).
    #[must_use]
    pub fn config(&self) -> &CheckpointerConfig {
        &self.config
    }

    /// Hands a frozen snapshot to the writer thread. Never blocks on
    /// serialization; the snapshot is `O(shards)` of `Arc`s.
    pub fn submit(&self, snap: EngineSnapshot<C>) {
        self.submit_with_marks(snap, Vec::new());
    }

    /// [`BackgroundCheckpointer::submit`] with the per-producer applied
    /// sequence marks at the snapshot's freeze, recorded in the frame's
    /// [`CheckpointRecord`] and manifest line — the exactly-once replay
    /// cursor a recovered store reports.
    pub fn submit_with_marks(&self, snap: EngineSnapshot<C>, marks: Vec<ProducerMark>) {
        self.totals.submitted.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(Submission { snap, marks })
            .expect("checkpointer thread alive");
    }

    /// Diagnostics snapshot; cheap, safe to call from any thread.
    #[must_use]
    pub fn stats(&self) -> CheckpointerStats {
        totals_stats(&self.totals)
    }

    /// A cloneable read-only stats handle that outlives ownership
    /// transfers of the checkpointer itself.
    #[must_use]
    pub fn probe(&self) -> CheckpointerProbe {
        CheckpointerProbe {
            totals: Arc::clone(&self.totals),
        }
    }

    /// Closes the channel, drains every pending snapshot, and returns the
    /// full write history.
    ///
    /// # Panics
    ///
    /// Propagates a writer-thread panic (e.g. an unwritable directory).
    #[must_use]
    pub fn finish(self) -> CheckpointerReport {
        drop(self.tx);
        let records = self.handle.join().expect("checkpointer thread");
        CheckpointerReport { records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::restore_checkpoint_chain;
    use crate::registry::{CounterEngine, EngineConfig};
    use ac_core::{NelsonYuCounter, NyParams};

    fn template() -> NelsonYuCounter {
        NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap())
    }

    fn small_cfg() -> CheckpointerConfig {
        CheckpointerConfig::new()
            .with_every_events(100)
            .with_max_deltas_per_base(3)
            .with_retain_bytes(true)
    }

    #[test]
    fn base_then_deltas_then_rebase() {
        let mut e = CounterEngine::new(template(), EngineConfig::new().with_shards(4).with_seed(9));
        let ckpt = BackgroundCheckpointer::spawn(small_cfg());
        for round in 0..6u64 {
            let batch: Vec<(u64, u64)> = (0..50u64).map(|k| (k + 10 * round, 3)).collect();
            e.apply(&batch);
            ckpt.submit(e.snapshot());
        }
        let stats_before_finish = ckpt.stats();
        assert_eq!(stats_before_finish.submitted, 6);
        let report = ckpt.finish();
        let kinds: Vec<CheckpointKind> = report.records.iter().map(|r| r.kind).collect();
        // Frame 0 full, 1–3 deltas, then a rebase at 4, delta at 5.
        assert_eq!(
            kinds,
            vec![
                CheckpointKind::Full,
                CheckpointKind::Delta,
                CheckpointKind::Delta,
                CheckpointKind::Delta,
                CheckpointKind::Full,
                CheckpointKind::Delta,
            ]
        );
        // The newest chain folds back to the engine at its last freeze.
        let chain = report.latest_chain().expect("bytes retained");
        assert_eq!(chain.len(), 2, "last full + one delta");
        let back = restore_checkpoint_chain(&template(), &chain).unwrap();
        assert_eq!(back.total_events(), e.total_events());
        for (key, counter) in e.iter() {
            assert_eq!(
                back.counter(key).map(NelsonYuCounter::state_parts),
                Some(counter.state_parts()),
                "key {key}"
            );
        }
    }

    #[test]
    fn foreign_snapshot_rebases_to_a_full_frame_instead_of_panicking() {
        // Two engines through one checkpointer: the second submission
        // cannot extend the first's chain, so it must land as a
        // self-contained full frame, not kill the writer thread or
        // produce a chimeric chain. Covered both ways: a different
        // config (refused by the config check) and — the subtler
        // accident — an identical config from a *different lineage*
        // (e.g. a restarted process), refused by the strict epoch
        // ordering because the fresh engine's epoch clock restarted.
        let cfg_a = EngineConfig::new().with_shards(2).with_seed(1);
        let mut a = CounterEngine::new(template(), cfg_a);
        let mut b = CounterEngine::new(template(), EngineConfig::new().with_shards(4).with_seed(2));
        let mut twin = CounterEngine::new(template(), cfg_a);
        a.apply(&[(1, 10)]);
        b.apply(&[(2, 20)]);
        twin.apply(&[(3, 30)]);
        let ckpt = BackgroundCheckpointer::spawn(small_cfg());
        ckpt.submit(a.snapshot());
        ckpt.submit(b.snapshot());
        ckpt.submit(twin.snapshot());
        let report = ckpt.finish();
        let kinds: Vec<CheckpointKind> = report.records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                CheckpointKind::Full,
                CheckpointKind::Full,
                CheckpointKind::Full
            ]
        );
        let chain = report.latest_chain().expect("bytes retained");
        let back = restore_checkpoint_chain(&template(), &chain).unwrap();
        assert_eq!(back.total_events(), 30, "latest chain is the twin's");
    }

    #[test]
    fn stats_track_lag() {
        let mut e = CounterEngine::new(template(), EngineConfig::new().with_shards(2).with_seed(1));
        let ckpt = BackgroundCheckpointer::spawn(small_cfg());
        let probe = ckpt.probe();
        e.apply(&[(1, 500)]);
        ckpt.submit(e.snapshot());
        e.apply(&[(2, 41)]);
        let report_stats = loop {
            let s = ckpt.stats();
            if s.written == 1 {
                break s;
            }
            std::thread::yield_now();
        };
        assert_eq!(report_stats.last_checkpoint_events, 500);
        assert_eq!(probe.stats(), report_stats, "probe mirrors the owner");
        let stats = e.stats().with_checkpointer(&report_stats);
        assert_eq!(stats.checkpoint_lag_events, 41);
        let _ = ckpt.finish();
    }

    #[test]
    fn writes_frames_and_manifest_to_a_directory() {
        use ac_core::CounterSpec;

        let dir = std::env::temp_dir().join(format!(
            "ac-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = CounterSpec::NelsonYu {
            eps: 0.2,
            delta_log2: 8,
        };
        let config = EngineConfig::new().with_shards(2).with_seed(4);
        let mut e = CounterEngine::new(template(), config);
        let ckpt =
            BackgroundCheckpointer::spawn(small_cfg().with_directory(dir.clone()).with_manifest(
                ManifestInfo {
                    spec,
                    config,
                    session: 0,
                    tiering: None,
                },
            ));
        e.apply(&[(1, 10)]);
        ckpt.submit_with_marks(
            e.snapshot(),
            vec![ProducerMark {
                producer: 0,
                enqueued_seq: 1,
                applied_seq: 1,
            }],
        );
        e.apply(&[(2, 20)]);
        ckpt.submit(e.snapshot());
        let report = ckpt.finish();
        let chain: Vec<Vec<u8>> = report
            .records
            .iter()
            .map(|r| std::fs::read(r.path.as_ref().expect("path set")).unwrap())
            .collect();
        let chain_refs: Vec<&[u8]> = chain.iter().map(Vec::as_slice).collect();
        let back = restore_checkpoint_chain(&template(), &chain_refs).unwrap();
        assert_eq!(back.total_events(), 30);

        // The manifest mirrors the frames, marks included.
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.spec, spec);
        assert_eq!(m.config, config);
        assert_eq!(m.frames.len(), 2);
        assert_eq!(m.frames[0].kind, CheckpointKind::Full);
        assert_eq!(m.frames[0].marks.len(), 1);
        assert_eq!(m.frames[0].marks[0].applied_seq, 1);
        assert_eq!(m.frames[1].marks, vec![]);
        for (frame, record) in m.frames.iter().zip(&report.records) {
            assert_eq!(frame.events, record.events);
            assert_eq!(frame.epoch, record.epoch);
            assert_eq!(
                dir.join(&frame.file),
                *record.path.as_ref().unwrap(),
                "manifest names the frame file"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compactor_folds_the_chain_rewrites_the_manifest_and_prunes() {
        use ac_core::CounterSpec;

        let dir = std::env::temp_dir().join(format!(
            "ac-ckpt-compact-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = CounterSpec::NelsonYu {
            eps: 0.2,
            delta_log2: 8,
        };
        let config = EngineConfig::new().with_shards(4).with_seed(21);
        let mut e = CounterEngine::new(template(), config);
        // A high rebase budget keeps the cadence from cutting fresh
        // fulls on its own — every fold here is the compactor's.
        let ckpt = BackgroundCheckpointer::spawn(
            small_cfg()
                .with_max_deltas_per_base(100)
                .with_directory(dir.clone())
                .with_max_chain_len(2)
                .with_manifest(ManifestInfo {
                    spec,
                    config,
                    session: 0,
                    tiering: None,
                }),
        );
        let probe = ckpt.probe();
        for round in 0..6u64 {
            let batch: Vec<(u64, u64)> = (0..40u64).map(|k| (k + 7 * round, 2 + round)).collect();
            e.apply(&batch);
            ckpt.submit_with_marks(
                e.snapshot(),
                vec![ProducerMark {
                    producer: 0,
                    enqueued_seq: round + 1,
                    applied_seq: round + 1,
                }],
            );
        }
        let report = ckpt.finish();
        assert_eq!(report.records.len(), 6, "every submission wrote a frame");

        let stats = probe.stats();
        assert!(
            stats.compactions >= 1,
            "chain of 6 must trip max_chain_len=2"
        );
        assert!(stats.compacted_frames >= 3, "a fold covers at least base+2");
        assert!(stats.pruned_files >= 3, "superseded frames deleted");
        assert!(stats.last_compact_ns > 0);

        // The manifest now opens with a compacted base and stays shorter
        // than the raw six-frame history.
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.frames[0].kind, CheckpointKind::Full);
        assert!(
            m.frames[0].file.contains("-c"),
            "newest base is a compactor fold: {}",
            m.frames[0].file
        );
        assert!(m.frames.len() < 6, "chain bounded by state, not history");
        assert_eq!(
            m.frames[0].marks.len(),
            1,
            "folded tip's replay cursor survives on the compacted base"
        );
        assert!(m.frames[0].marks[0].applied_seq >= 3);

        // Only manifest-listed frames remain on disk — the fold pruned
        // everything it superseded (retention defaults to immediate).
        let live: std::collections::HashSet<String> =
            m.frames.iter().map(|f| f.file.clone()).collect();
        let on_disk: std::collections::HashSet<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| {
                let name = entry.unwrap().file_name().to_string_lossy().into_owned();
                (name.starts_with("ckpt-") && name.ends_with(".bin")).then_some(name)
            })
            .collect();
        assert_eq!(on_disk, live);

        // The compacted chain restores the engine bit-exactly.
        let segments: Vec<Vec<u8>> = m
            .frames
            .iter()
            .map(|f| std::fs::read(dir.join(&f.file)).unwrap())
            .collect();
        let refs: Vec<&[u8]> = segments.iter().map(Vec::as_slice).collect();
        let back = restore_checkpoint_chain(&template(), &refs).unwrap();
        assert_eq!(back.total_events(), e.total_events());
        assert_eq!(back.len(), e.len());
        for (key, counter) in e.iter() {
            assert_eq!(
                back.counter(key).map(NelsonYuCounter::state_parts),
                Some(counter.state_parts()),
                "key {key}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_ttl_keeps_superseded_frames_until_they_age_out() {
        use ac_core::CounterSpec;

        let dir = std::env::temp_dir().join(format!(
            "ac-ckpt-retention-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = CounterSpec::NelsonYu {
            eps: 0.2,
            delta_log2: 8,
        };
        let config = EngineConfig::new().with_shards(2).with_seed(3);
        let mut e = CounterEngine::new(template(), config);
        let ckpt = BackgroundCheckpointer::spawn(
            small_cfg()
                .with_max_deltas_per_base(100)
                .with_directory(dir.clone())
                .with_max_chain_len(2)
                .with_retention(Duration::from_secs(3600))
                .with_manifest(ManifestInfo {
                    spec,
                    config,
                    session: 0,
                    tiering: None,
                }),
        );
        let probe = ckpt.probe();
        for round in 0..6u64 {
            e.apply(&[(round, 10)]);
            ckpt.submit(e.snapshot());
        }
        let _ = ckpt.finish();
        let stats = probe.stats();
        assert!(stats.compactions >= 1);
        assert_eq!(stats.pruned_files, 0, "frames younger than the TTL stay");

        // Superseded frames are still on disk alongside the live chain.
        let m = Manifest::load(&dir).unwrap();
        let frames_on_disk = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|entry| {
                let name = entry.as_ref().unwrap().file_name();
                let name = name.to_string_lossy();
                name.starts_with("ckpt-") && name.ends_with(".bin")
            })
            .count();
        assert!(frames_on_disk > m.frames.len(), "old chain retained by TTL");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
