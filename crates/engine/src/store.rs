//! The [`Store`]: the engine pipeline under one roof, as a running
//! service.
//!
//! The layered API (ingest → engine → snapshot → checkpoint) stays public
//! as the expert surface, but deploying it means hand-wiring four layers,
//! fixing the counter family at compile time, and writing your own crash
//! recovery. The store is the service-shaped answer:
//!
//! * **one builder** — [`Store::builder`] takes a runtime
//!   [`CounterSpec`] (family + parameters as data) plus shard, ingest,
//!   and durability knobs, and [`StoreBuilder::start`] yields a running
//!   service that owns the applier loop and the background checkpointer
//!   internally;
//! * **handles, not layers** — cloneable [`StoreWriter`]s (wrapping
//!   [`IngestProducer`]s, each with its own producer id and sequence
//!   numbers) and epoch-pinned [`StoreReader`]s (wrapping published
//!   [`EngineSnapshot`]s with `estimate` / `merged_total`);
//! * **crash recovery** — [`Store::open`] reads the directory's
//!   [`Manifest`], rebuilds the family from the recorded spec, discovers
//!   the newest intact base + delta chain (falling back past a truncated
//!   or corrupt tail), and resumes counters, shard RNG streams, and the
//!   epoch clock bit-exactly; the [`RecoveryReport`] carries each
//!   producer's last-applied sequence number so callers can replay
//!   exactly once;
//! * **one error type** — every fallible path returns
//!   [`EngineError`].
//!
//! ```
//! use ac_core::CounterSpec;
//! use ac_engine::Store;
//!
//! let store = Store::builder(CounterSpec::NelsonYu { eps: 0.2, delta_log2: 8 })
//!     .with_shards(8)
//!     .with_snapshot_every_events(1_000)
//!     .start()
//!     .unwrap();
//! let mut writer = store.writer();
//! for key in 0..100u64 {
//!     writer.record(key, 1_000);
//! }
//! writer.flush().unwrap();
//! let report = store.close().unwrap();
//! assert_eq!(report.stats.events, 100_000);
//! ```

use crate::checkpoint::{fold_delta, read_header, restore_checkpoint_chain_with_workers};
use crate::checkpointer::{
    BackgroundCheckpointer, CheckpointerConfig, CheckpointerProbe, CheckpointerReport,
    CheckpointerStats,
};
use crate::error::EngineError;
#[cfg(test)]
use crate::ingest::BackpressurePolicy;
use crate::ingest::{
    CheckpointCadence, IngestConfig, IngestProducer, IngestQueue, IngestStats, PairTap,
    ProducerMark, SendError,
};
use crate::manifest::{Manifest, ManifestInfo, ManifestTiering};
use crate::registry::{CounterEngine, EngineConfig, EngineStats};
use crate::snapshot::EngineSnapshot;
use ac_core::{
    ApproxCounter, BudgetController, CounterFamily, CounterSpec, ExactCounter, TierPolicy,
};
use ac_randkit::{mix64, RandomSource, SplitMix64, Xoshiro256PlusPlus};
use ac_streams::SpaceSaving;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

/// Runtime knobs shared by [`StoreBuilder`] and [`Store::open_with`]:
/// everything about *how* the service runs, none of it part of the
/// engine's durable identity (which is the [`CounterSpec`] +
/// [`EngineConfig`] recorded in the manifest).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct StoreOptions {
    /// Ingest queue configuration.
    pub ingest: IngestConfig,
    /// Applied-event cadence between published read snapshots. Each
    /// publish is an `O(shards)` copy-on-write freeze whose splits are
    /// amortized into subsequent writes; smaller values mean fresher
    /// readers, larger values less copy-on-write traffic.
    pub snapshot_every_events: u64,
    /// Applied-event cadence between durable checkpoint frames (only
    /// meaningful with a durability directory).
    pub checkpoint_every_events: u64,
    /// Deltas per base before the checkpointer rebases.
    pub max_deltas_per_base: usize,
    /// Slots in the applier's SpaceSaving hot-key detector (tiered
    /// stores only). A few times the number of keys a migration round
    /// can plausibly promote is enough: the detector only has to rank
    /// the head of the distribution, not hold the tail.
    pub detector_slots: usize,
    /// When set, the checkpointer's off-thread compactor folds the live
    /// base + deltas chain into a fresh base whenever it holds more than
    /// this many frames — bounding recovery time by state size instead
    /// of history (see
    /// [`CheckpointerConfig::with_max_chain_len`](crate::CheckpointerConfig::with_max_chain_len)).
    pub compact_max_chain_len: Option<usize>,
    /// Byte-size companion trigger for the compactor (see
    /// [`CheckpointerConfig::with_max_chain_bytes`](crate::CheckpointerConfig::with_max_chain_bytes)).
    pub compact_max_chain_bytes: Option<u64>,
    /// How long superseded frame files linger after a compaction commit
    /// stops referencing them (see
    /// [`CheckpointerConfig::with_retention`](crate::CheckpointerConfig::with_retention)).
    pub retention: std::time::Duration,
}

impl StoreOptions {
    /// The default runtime knobs (publish every 65 536 events,
    /// checkpoint every 1 000 000, rebase after 15 deltas, 1024
    /// detector slots).
    #[must_use]
    pub fn new() -> Self {
        Self {
            ingest: IngestConfig::new(),
            snapshot_every_events: 65_536,
            checkpoint_every_events: 1_000_000,
            max_deltas_per_base: 15,
            detector_slots: 1024,
            compact_max_chain_len: None,
            compact_max_chain_bytes: None,
            retention: std::time::Duration::ZERO,
        }
    }

    /// Sets the ingest queue configuration.
    #[must_use]
    pub fn with_ingest(mut self, ingest: IngestConfig) -> Self {
        self.ingest = ingest;
        self
    }

    /// Sets the read-snapshot publish cadence, in applied events.
    #[must_use]
    pub fn with_snapshot_every_events(mut self, every: u64) -> Self {
        self.snapshot_every_events = every;
        self
    }

    /// Sets the checkpoint cadence, in applied events.
    #[must_use]
    pub fn with_checkpoint_every_events(mut self, every: u64) -> Self {
        self.checkpoint_every_events = every;
        self
    }

    /// Sets how many deltas may follow a base before rebasing.
    #[must_use]
    pub fn with_max_deltas_per_base(mut self, max: usize) -> Self {
        self.max_deltas_per_base = max;
        self
    }

    /// Sets the hot-key detector's SpaceSaving slot count (tiered
    /// stores only).
    #[must_use]
    pub fn with_detector_slots(mut self, slots: usize) -> Self {
        self.detector_slots = slots;
        self
    }

    /// Compacts the durable chain off-thread once it holds more than
    /// `max` frames (durable stores only).
    #[must_use]
    pub fn with_max_chain_len(mut self, max: usize) -> Self {
        self.compact_max_chain_len = Some(max);
        self
    }

    /// Compacts the durable chain off-thread once its frame files
    /// exceed `max` total bytes (durable stores only).
    #[must_use]
    pub fn with_max_chain_bytes(mut self, max: u64) -> Self {
        self.compact_max_chain_bytes = Some(max);
        self
    }

    /// Keeps superseded frame files for `ttl` after a compaction commit
    /// stops referencing them (default: pruned immediately).
    #[must_use]
    pub fn with_retention(mut self, ttl: std::time::Duration) -> Self {
        self.retention = ttl;
        self
    }
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Configures and starts a [`Store`]; created by [`Store::builder`].
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    spec: CounterSpec,
    engine: EngineConfig,
    opts: StoreOptions,
    durability: Option<PathBuf>,
    tiering: Option<(TierPolicy, u64)>,
}

impl StoreBuilder {
    /// Sets the shard count (part of the engine's durable identity).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.engine = self.engine.with_shards(shards);
        self
    }

    /// Sets the RNG/routing seed (part of the engine's durable identity).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.engine = self.engine.with_seed(seed);
        self
    }

    /// Sets the ingest configuration (per-producer ring capacity, batch
    /// size, and the [`BackpressurePolicy`](crate::BackpressurePolicy)).
    #[must_use]
    pub fn with_ingest(mut self, ingest: IngestConfig) -> Self {
        self.opts.ingest = ingest;
        self
    }

    /// Sets the read-snapshot publish cadence, in applied events.
    #[must_use]
    pub fn with_snapshot_every_events(mut self, every: u64) -> Self {
        self.opts.snapshot_every_events = every;
        self
    }

    /// Enables durability: checkpoint frames and the store manifest are
    /// written under `dir` (created if absent), and [`Store::open`] can
    /// later resume from it.
    #[must_use]
    pub fn with_durability(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability = Some(dir.into());
        self
    }

    /// Sets the checkpoint cadence, in applied events.
    #[must_use]
    pub fn with_checkpoint_every_events(mut self, every: u64) -> Self {
        self.opts.checkpoint_every_events = every;
        self
    }

    /// Sets how many deltas may follow a base before rebasing.
    #[must_use]
    pub fn with_max_deltas_per_base(mut self, max: usize) -> Self {
        self.opts.max_deltas_per_base = max;
        self
    }

    /// Sets the hot-key detector's SpaceSaving slot count (meaningful
    /// with [`StoreBuilder::with_tiering`]).
    #[must_use]
    pub fn with_detector_slots(mut self, slots: usize) -> Self {
        self.opts.detector_slots = slots;
        self
    }

    /// Compacts the durable chain off-thread once it holds more than
    /// `max` frames; see [`StoreOptions::compact_max_chain_len`].
    #[must_use]
    pub fn with_max_chain_len(mut self, max: usize) -> Self {
        self.opts.compact_max_chain_len = Some(max);
        self
    }

    /// Compacts the durable chain off-thread once its frame files
    /// exceed `max` total bytes; see
    /// [`StoreOptions::compact_max_chain_bytes`].
    #[must_use]
    pub fn with_max_chain_bytes(mut self, max: u64) -> Self {
        self.opts.compact_max_chain_bytes = Some(max);
        self
    }

    /// Keeps superseded frame files for `ttl` after compaction; see
    /// [`StoreOptions::retention`].
    #[must_use]
    pub fn with_retention(mut self, ttl: std::time::Duration) -> Self {
        self.opts.retention = ttl;
        self
    }

    /// Enables **tiered accuracy**: keys live on `policy`'s ladder of
    /// counter specs (rung 0 — which must equal the store's
    /// [`CounterSpec`] — is where every key starts), and the applier
    /// thread migrates hot keys up / cold keys down between ingest
    /// bursts so total counter state stays under `budget_bits`.
    ///
    /// A SpaceSaving detector taps the applied stream; each
    /// snapshot-cadence boundary runs one
    /// [`BudgetController::plan`] round and applies the estimate-
    /// preserving migrations before the replica is published. With
    /// durability, checkpoints become version-3 frames carrying the
    /// per-key tier tags, the manifest pins the ladder and budget, and
    /// [`Store::open`] restores tier assignments bit-exactly.
    #[must_use]
    pub fn with_tiering(mut self, policy: TierPolicy, budget_bits: u64) -> Self {
        self.tiering = Some((policy, budget_bits));
        self
    }

    /// Builds the engine from the spec and starts the service (applier
    /// thread, and — with durability — the background checkpointer and
    /// manifest).
    ///
    /// # Errors
    ///
    /// [`EngineError::Core`] for an invalid spec,
    /// [`EngineError::ManifestCorrupt`] when the durability directory
    /// already belongs to a different deployment, and I/O errors from
    /// directory creation.
    ///
    /// # Panics
    ///
    /// Panics if a cadence or ingest capacity is zero.
    pub fn start(self) -> Result<Store, EngineError> {
        let template = self.spec.build()?;
        let engine = CounterEngine::new(template, self.engine);
        let tiering = self
            .tiering
            .map(|(policy, budget_bits)| -> Result<TierSetup, EngineError> {
                if *policy.default_spec() != self.spec {
                    return Err(EngineError::Core(ac_core::CoreError::InvalidState {
                        what: "tier ladder's default rung must be the store's counter spec",
                    }));
                }
                TierSetup::new(policy, budget_bits, self.opts.detector_slots)
            })
            .transpose()?;
        let (durability, lock) = match self.durability {
            None => (None, None),
            Some(dir) => {
                std::fs::create_dir_all(&dir)?;
                let lock = DirLock::acquire(&dir)?;
                let manifest_tiering = tiering.as_ref().map(TierSetup::manifest_tiering);
                Manifest::ensure(&dir, &self.spec, &self.engine, manifest_tiering.as_ref())?;
                let session = Manifest::load(&dir)?.next_session();
                (Some((dir, session)), Some(lock))
            }
        };
        Ok(Store::launch(
            self.spec,
            self.engine,
            self.opts,
            durability,
            engine,
            None,
            lock,
            tiering,
        ))
    }
}

/// What [`Store::open`] found and did; see the module docs on recovery.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// The durability directory that was opened.
    pub directory: PathBuf,
    /// Frames listed (intact) in the manifest.
    pub frames_in_manifest: usize,
    /// Frames of the chosen chain actually folded into the engine.
    pub frames_used: usize,
    /// Manifest frames *after* the restored tip that could not be used
    /// (truncated/corrupt/missing tail, or frames of an abandoned
    /// chain). Non-zero means the store resumed from an earlier moment
    /// than the newest frame claims — exactly the window
    /// [`RecoveryReport::last_applied`] lets producers replay.
    pub frames_skipped: usize,
    /// Exact events in the restored engine.
    pub events: u64,
    /// Distinct keys in the restored engine.
    pub keys: usize,
    /// Freeze epoch of the restored tip (the resumed engine's clock
    /// continues at `epoch + 1`).
    pub epoch: u64,
    /// Per-producer sequence marks at the restored tip's freeze: for
    /// each producer, `applied_seq` is the last batch the restored state
    /// contains — replay everything after it for exactly-once recovery.
    pub last_applied: Vec<ProducerMark>,
    /// The writer session this reopened store records frames under.
    pub session: u64,
}

/// A point-in-time summary of the whole service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct StoreStats {
    /// Engine stats as of the last published snapshot (with ingest and
    /// checkpointer diagnostics folded in at publish time).
    pub engine: EngineStats,
    /// Live ingest-layer stats.
    pub ingest: IngestStats,
    /// Live checkpointer stats (durable stores only).
    pub checkpointer: Option<CheckpointerStats>,
    /// The tiering bit budget (tiered stores only). Compare against
    /// [`EngineStats::state_bits_total`] — the engine gauge rides in
    /// [`StoreStats::engine`], along with the per-tier key counts.
    pub tier_budget_bits: Option<u64>,
}

/// What [`Store::close`] returns: the final engine summary and, for
/// durable stores, the full checkpoint write history.
#[derive(Debug)]
#[non_exhaustive]
pub struct StoreReport {
    /// Final engine stats (ingest diagnostics folded in).
    pub stats: EngineStats,
    /// Every checkpoint frame written, in order (durable stores only).
    pub checkpoints: Option<CheckpointerReport>,
}

/// File name of the single-writer lock inside a durability directory.
const LOCK_FILE: &str = "store.lock";

/// An advisory single-writer lock over a durability directory: a
/// `store.lock` file holding the owner's pid, created exclusively and
/// removed on drop. Two live stores over one directory would clobber
/// each other's frame files and interleave manifest lines, so the
/// second acquirer gets [`EngineError::StoreBusy`]. A lock left by a
/// crashed process is detected by pid liveness and cleared (liveness
/// probing is Linux-`/proc`-based; elsewhere a foreign lock is treated
/// as stale — advisory, like the rest of the scheme).
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
}

fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        false
    }
}

impl DirLock {
    fn acquire(dir: &Path) -> Result<Self, EngineError> {
        let path = dir.join(LOCK_FILE);
        for _ in 0..16 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use std::io::Write as _;
                    let _ = write!(f, "{}", std::process::id());
                    let _ = f.sync_all();
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid_alive(pid) => {
                            return Err(EngineError::StoreBusy { path, pid })
                        }
                        // Stale (dead owner) or unreadable: clear, retry.
                        _ => {
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(EngineError::StoreBusy { path, pid: 0 })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Everything the applier thread needs to run tier migrations: the
/// planner, the ladder's built templates (also handed to the
/// checkpointer so frames serialize as version 3), the SpaceSaving
/// detector fed from the ingest tap, and the resident map of keys
/// currently above the default tier (rebuilt from the engine's tier
/// tags on recovery — migrations only ever run on this thread, so the
/// map stays exact).
struct TierSetup {
    controller: BudgetController,
    templates: Vec<CounterFamily>,
    detector: SpaceSaving<ExactCounter>,
    rng: SplitMix64,
    resident: HashMap<u64, u8>,
}

impl std::fmt::Debug for TierSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierSetup")
            .field("controller", &self.controller)
            .field("resident_keys", &self.resident.len())
            .finish_non_exhaustive()
    }
}

impl TierSetup {
    fn new(
        policy: TierPolicy,
        budget_bits: u64,
        detector_slots: usize,
    ) -> Result<Self, EngineError> {
        let templates = policy.templates()?;
        let controller = BudgetController::new(policy, budget_bits)?;
        Ok(Self {
            controller,
            templates,
            // The detector needs no entropy for exact slot counters, but
            // the trait takes a source; any fixed seed keeps the applier
            // deterministic for a given arrival order.
            detector: SpaceSaving::new(detector_slots, &ExactCounter::new()),
            rng: SplitMix64::new(0x7157_0000_D1CE_C7ED),
            resident: HashMap::new(),
        })
    }

    fn manifest_tiering(&self) -> ManifestTiering {
        ManifestTiering {
            ladder: self.controller.policy().specs().to_vec(),
            budget_bits: self.controller.budget_bits(),
        }
    }

    /// Feeds one applied batch to the hot-key detector (the ingest tap).
    fn observe(&mut self, pairs: &[(u64, u64)]) {
        for &(key, delta) in pairs {
            self.detector.offer_by(key, delta, &mut self.rng);
        }
    }

    /// One migration round, run between ingest bursts while the engine
    /// is quiescent: rank the window's heavy hitters, close the detector
    /// epoch, plan promotions/demotions under the budget, and apply the
    /// estimate-preserving migrations.
    fn round(&mut self, engine: &mut CounterEngine<CounterFamily>) {
        let hot: Vec<(u64, f64)> = self
            .detector
            .report()
            .into_iter()
            .map(|h| (h.item, h.estimate))
            .collect();
        let _ = self.detector.decay();
        let resident: Vec<(u64, u8, f64)> = self
            .resident
            .iter()
            .map(|(&key, &tier)| {
                let est = engine.counter(key).map_or(0.0, ApproxCounter::estimate);
                (key, tier, est)
            })
            .collect();
        let plan = self
            .controller
            .plan(engine.state_bits_total(), &hot, &resident);
        if plan.is_empty() {
            return;
        }
        engine
            .apply_migrations(self.controller.policy().specs(), &plan.moves)
            .expect("planned tier moves stay inside the ladder");
        for m in &plan.moves {
            if m.tier == 0 {
                self.resident.remove(&m.key);
            } else {
                self.resident.insert(m.key, m.tier);
            }
        }
    }
}

/// State shared between the service, its applier thread, and every
/// reader handle.
#[derive(Debug)]
struct Shared {
    /// The newest published read replica.
    snap: RwLock<Arc<EngineSnapshot<CounterFamily>>>,
    /// Engine stats as of the newest publish.
    stats: Mutex<EngineStats>,
    /// Whether shutdown should cut a final durable frame (`close`) or
    /// leave the disk exactly as the crash left it (`kill`).
    finalize: AtomicBool,
}

/// Publishes a fresh read replica + stats snapshot. Runs on the applier
/// thread at batch boundaries (and once at launch / shutdown).
fn publish(
    shared: &Shared,
    engine: &mut CounterEngine<CounterFamily>,
    queue: &IngestQueue,
    probe: Option<&CheckpointerProbe>,
) {
    let snap = engine.snapshot();
    let mut stats = engine.stats().with_ingest(&queue.stats());
    if let Some(p) = probe {
        stats = stats.with_checkpointer(&p.stats());
    }
    *shared.snap.write().expect("snapshot slot") = Arc::new(snap);
    *shared.stats.lock().expect("stats slot") = stats;
}

/// The running service: one facade over ingest, the sharded engine,
/// published read replicas, and (optionally) durable checkpoints with a
/// crash-recovery manifest. See the module docs.
#[derive(Debug)]
pub struct Store {
    spec: CounterSpec,
    config: EngineConfig,
    queue: IngestQueue,
    shared: Arc<Shared>,
    #[allow(clippy::type_complexity)]
    applier: Option<JoinHandle<(CounterEngine<CounterFamily>, Option<CheckpointerReport>)>>,
    probe: Option<CheckpointerProbe>,
    directory: Option<PathBuf>,
    recovery: Option<RecoveryReport>,
    tier_budget_bits: Option<u64>,
    /// The single-writer directory lock; released (in `Drop`, after the
    /// applier joins) when the store shuts down — including `kill`, so
    /// a same-process reopen works; a *real* crash leaves the file and
    /// the staleness check clears it.
    _lock: Option<DirLock>,
}

impl Store {
    /// Starts configuring a new store for the given runtime family.
    #[must_use]
    pub fn builder(spec: CounterSpec) -> StoreBuilder {
        StoreBuilder {
            spec,
            engine: EngineConfig::new(),
            opts: StoreOptions::new(),
            durability: None,
            tiering: None,
        }
    }

    /// Reopens a durability directory after a shutdown or crash, with
    /// default runtime options; see [`Store::open_with`].
    ///
    /// # Errors
    ///
    /// See [`Store::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, EngineError> {
        Self::open_with(dir, StoreOptions::new())
    }

    /// Reopens a durability directory: loads and verifies the
    /// [`Manifest`], rebuilds the counter family from the recorded
    /// [`CounterSpec`], restores the newest intact base + delta chain
    /// (dropping a truncated or corrupt tail frame by frame, and falling
    /// back to earlier chains if a base itself is damaged), and resumes
    /// the service — counters, shard RNG streams, and the epoch clock
    /// bit-identical to a clean restore of the same chain. The
    /// [`RecoveryReport`] (via [`Store::recovery`]) tells producers the
    /// last applied sequence numbers so they can replay exactly once.
    ///
    /// # Errors
    ///
    /// [`EngineError::ManifestMissing`] / [`EngineError::ManifestCorrupt`]
    /// for an unusable manifest, [`EngineError::NoRestorableChain`] when
    /// frames are listed but nothing on disk restores, plus I/O errors.
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Self, EngineError> {
        let dir = dir.as_ref();
        if !Manifest::path_in(dir).exists() {
            return Err(EngineError::ManifestMissing {
                path: Manifest::path_in(dir),
            });
        }
        // Take the single-writer lock *before* recovery reads anything,
        // so a still-live writer can't mutate the chain under us.
        let lock = DirLock::acquire(dir)?;
        let manifest = Manifest::load(dir)?;
        let (engine, report) = recover(dir, &manifest)?;
        // A tiered directory resumes tiered: rebuild the planner from the
        // manifest's ladder + budget and the resident map from the
        // restored engine's own tier tags (the durable source of truth).
        let tiering = manifest
            .tiering
            .as_ref()
            .map(|t| -> Result<TierSetup, EngineError> {
                let policy = TierPolicy::new(t.ladder.clone())?;
                let mut setup = TierSetup::new(policy, t.budget_bits, opts.detector_slots)?;
                setup.resident = engine
                    .iter()
                    .filter_map(|(key, _)| {
                        engine.tier_of(key).filter(|&t| t != 0).map(|t| (key, t))
                    })
                    .collect();
                Ok(setup)
            })
            .transpose()?;
        let durability = Some((dir.to_path_buf(), report.session));
        Ok(Self::launch(
            manifest.spec,
            manifest.config,
            opts,
            durability,
            engine,
            Some(report),
            Some(lock),
            tiering,
        ))
    }

    /// Spawns the applier thread (and checkpointer) around a built or
    /// restored engine — the one construction path behind `start` and
    /// `open`.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        spec: CounterSpec,
        config: EngineConfig,
        opts: StoreOptions,
        durability: Option<(PathBuf, u64)>,
        mut engine: CounterEngine<CounterFamily>,
        recovery: Option<RecoveryReport>,
        lock: Option<DirLock>,
        tiering: Option<TierSetup>,
    ) -> Self {
        let tier_budget_bits = tiering.as_ref().map(|t| t.controller.budget_bits());
        // Bound applier bursts at the tightest cadence so the
        // burst-boundary hook can actually fire that often — otherwise a
        // backlog (producers racing far ahead of the applier) would be
        // swallowed in one burst and cross every cadence point with a
        // single frame. The drain bounds bursts in *batches*, so the
        // event cadence converts at the batch capacity (a full batch
        // carries at least batch_pairs events).
        let burst_cap = opts.snapshot_every_events.min(if durability.is_some() {
            opts.checkpoint_every_events
        } else {
            u64::MAX
        });
        let batches_for_cap = usize::try_from(
            (burst_cap / u64::try_from(opts.ingest.batch_pairs).unwrap_or(u64::MAX)).max(1),
        )
        .unwrap_or(usize::MAX);
        let ingest = opts
            .ingest
            .with_burst_batches(opts.ingest.burst_batches.min(batches_for_cap));
        let queue = IngestQueue::new(ingest, engine.router());
        let checkpointer: Option<BackgroundCheckpointer<CounterFamily>> =
            durability.as_ref().map(|(dir, session)| {
                // A tiered store's checkpointer serializes against the
                // ladder so tier-tagged snapshots land as version-3
                // frames (and the manifest header pins the ladder).
                let mut ck_config = CheckpointerConfig::new()
                    .with_every_events(opts.checkpoint_every_events)
                    .with_max_deltas_per_base(opts.max_deltas_per_base)
                    .with_directory(dir.clone())
                    .with_retain_bytes(false)
                    .with_retention(opts.retention)
                    .with_manifest(ManifestInfo {
                        spec,
                        config,
                        session: *session,
                        tiering: tiering.as_ref().map(TierSetup::manifest_tiering),
                    });
                if let Some(max) = opts.compact_max_chain_len {
                    ck_config = ck_config.with_max_chain_len(max);
                }
                if let Some(max) = opts.compact_max_chain_bytes {
                    ck_config = ck_config.with_max_chain_bytes(max);
                }
                BackgroundCheckpointer::spawn_with(
                    ck_config,
                    tiering.as_ref().map(|t| t.templates.clone()),
                )
            });
        let probe = checkpointer.as_ref().map(BackgroundCheckpointer::probe);
        let shared = Arc::new(Shared {
            snap: RwLock::new(Arc::new(engine.snapshot())),
            stats: Mutex::new(engine.stats().with_ingest(&queue.stats())),
            finalize: AtomicBool::new(true),
        });

        let thread_shared = Arc::clone(&shared);
        let thread_queue = queue.clone();
        let snapshot_every = opts.snapshot_every_events;
        let applier = std::thread::Builder::new()
            .name("ac-store-applier".into())
            .spawn(move || {
                let mut engine = engine;
                let thread_probe = checkpointer.as_ref().map(BackgroundCheckpointer::probe);
                let mut snap_due = CheckpointCadence::new(snapshot_every);
                let mut published_at = 0u64;
                let mut ckpt_due = checkpointer
                    .as_ref()
                    .map(|c| CheckpointCadence::new(c.config().every_events));
                // The tap and the burst hook both run on this thread,
                // never reentrantly; the RefCell lets them share the
                // tiering state across the two closures. Only a tiered
                // store taps: without one the lane workers collect no
                // pairs at all.
                let tiered = tiering.is_some();
                let tiering = std::cell::RefCell::new(tiering);
                let mut observe = |pairs: &[(u64, u64)]| {
                    if let Some(t) = tiering.borrow_mut().as_mut() {
                        t.observe(pairs);
                    }
                };
                let tap: Option<PairTap<'_>> = if tiered { Some(&mut observe) } else { None };
                // The routed drain: producers already routed every pair
                // into per-(producer, shard) lanes, each persistent
                // shard worker drains its own lane set, and hooks run at
                // burst boundaries (the cadences catch up across a burst
                // without double-firing).
                thread_queue.drain_routed(&mut engine, tap, |engine, applied| {
                    // Publish on cadence, or on quiesce: when the
                    // burst drained the lanes dry, the stream tail
                    // below the cadence boundary would otherwise
                    // stay invisible to readers (and to replication
                    // cutters) until close.
                    let due = snap_due.is_due(applied);
                    if due || (applied > published_at && thread_queue.pending_events() == 0) {
                        // Migrate before publishing (and before any
                        // checkpoint below) so the replica and the
                        // frame both see this round's tier moves.
                        if let Some(t) = tiering.borrow_mut().as_mut() {
                            t.round(engine);
                        }
                        publish(&thread_shared, engine, &thread_queue, thread_probe.as_ref());
                        published_at = applied;
                    }
                    if let (Some(due), Some(ck)) = (ckpt_due.as_mut(), checkpointer.as_ref()) {
                        if due.is_due(applied) {
                            ck.submit_with_marks(engine.snapshot(), thread_queue.applied_marks());
                        }
                    }
                });
                // Queue closed and drained: cut the final durable frame
                // (unless this is a simulated crash), publish the final
                // replica, and drain the writer thread.
                let report = checkpointer.map(|ck| {
                    if thread_shared.finalize.load(Ordering::SeqCst) {
                        ck.submit_with_marks(engine.snapshot(), thread_queue.applied_marks());
                    }
                    ck.finish()
                });
                // `finish` drained the writer thread, so the probe now
                // reflects the final durable frame — fold it into the
                // published stats instead of freezing a stale lag gauge.
                publish(
                    &thread_shared,
                    &mut engine,
                    &thread_queue,
                    thread_probe.as_ref(),
                );
                (engine, report)
            })
            .expect("spawn applier thread");

        Self {
            spec,
            config,
            queue,
            shared,
            applier: Some(applier),
            probe,
            directory: durability.map(|(dir, _)| dir),
            recovery,
            tier_budget_bits,
            _lock: lock,
        }
    }

    /// The runtime family the store was built (or reopened) with.
    #[must_use]
    pub fn spec(&self) -> CounterSpec {
        self.spec
    }

    /// The engine configuration (part of the durable identity).
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The durability directory, when configured.
    #[must_use]
    pub fn directory(&self) -> Option<&Path> {
        self.directory.as_deref()
    }

    /// What [`Store::open`] recovered; `None` for a store built fresh.
    #[must_use]
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Creates a writer handle with its own producer id and sequence
    /// numbering. Any number may exist, on any threads.
    #[must_use]
    pub fn writer(&self) -> StoreWriter {
        StoreWriter {
            producer: self.queue.producer(),
            queue: self.queue.clone(),
        }
    }

    /// Creates a writer handle whose sequence numbering resumes *after*
    /// `start_seq` instead of starting at 1 — the server-restart half of
    /// exactly-once ingest. A process that recreates its writers in
    /// producer-id order after [`Store::open`], seeding each from the
    /// recovered [`ProducerMark::applied_seq`], keeps the durable marks
    /// and the live ring numbering interchangeable: a remote client that
    /// replays from its acknowledged high-water mark lands exactly where
    /// recovery left off, with no gap and no overlap.
    #[must_use]
    pub fn writer_resuming(&self, start_seq: u64) -> StoreWriter {
        StoreWriter {
            producer: self.queue.producer_resuming(start_seq),
            queue: self.queue.clone(),
        }
    }

    /// Creates a reader pinned to the newest published replica (see
    /// [`StoreReader::refresh`] to re-pin later). Queries are lock-free
    /// against the pinned snapshot and never contend with writers.
    #[must_use]
    pub fn reader(&self) -> StoreReader {
        let snap = Arc::clone(&self.shared.snap.read().expect("snapshot slot"));
        StoreReader {
            shared: Arc::clone(&self.shared),
            seed: self.config.seed,
            snap,
        }
    }

    /// A point-in-time summary of the whole pipeline: engine stats as of
    /// the last publish, live ingest stats (queue depth, drops,
    /// per-producer sequence marks), live checkpointer stats.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            engine: self.shared.stats.lock().expect("stats slot").clone(),
            ingest: self.queue.stats(),
            checkpointer: self.probe.as_ref().map(CheckpointerProbe::stats),
            tier_budget_bits: self.tier_budget_bits,
        }
    }

    /// Stops the intake, drains every queued batch, cuts a final durable
    /// checkpoint frame (durable stores), publishes the final replica,
    /// and returns the service report. Readers created before or after
    /// `close` keep serving the final state.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; the `Result` reserves the right
    /// to surface final-flush failures without an API break.
    pub fn close(mut self) -> Result<StoreReport, EngineError> {
        let (engine, checkpoints) = self.shutdown(true);
        let mut stats = engine.stats().with_ingest(&self.queue.stats());
        // The final close-time frame is durable by now; fold it in so
        // the report's lag gauge reflects the disk, not the last
        // mid-run publish.
        if let Some(probe) = self.probe.as_ref() {
            stats = stats.with_checkpointer(&probe.stats());
        }
        Ok(StoreReport { stats, checkpoints })
    }

    /// Crash simulation (tests, chaos drills): stops without the final
    /// close-time checkpoint frame, leaving the directory exactly as the
    /// last cadence frame left it — the state [`Store::open`] must
    /// recover from. In-flight cadence frames already handed to the
    /// writer thread are still written (a real crash may also tear the
    /// newest frame file; tests simulate that by truncating it).
    pub fn kill(mut self) {
        let _ = self.shutdown(false);
    }

    /// Common shutdown: close the queue, join the applier, return the
    /// engine and checkpoint history.
    fn shutdown(
        &mut self,
        finalize: bool,
    ) -> (CounterEngine<CounterFamily>, Option<CheckpointerReport>) {
        self.shared.finalize.store(finalize, Ordering::SeqCst);
        self.queue.close();
        let handle = self.applier.take().expect("store not yet shut down");
        handle.join().expect("applier thread")
    }
}

impl Drop for Store {
    /// Best-effort clean close (final frame included) when the store is
    /// dropped without [`Store::close`].
    fn drop(&mut self) {
        if self.applier.is_some() {
            let _ = self.shutdown(true);
        }
    }
}

/// A write handle: coalesces increments locally and flushes batches into
/// the store's ingest queue under its own producer id. Cloning creates a
/// *new* producer (fresh id, fresh sequence) sharing the same store.
#[derive(Debug)]
pub struct StoreWriter {
    producer: IngestProducer,
    queue: IngestQueue,
}

impl StoreWriter {
    /// Records `delta` increments to `key` (coalesced; auto-flushes full
    /// batches, honoring the store's backpressure policy).
    pub fn record(&mut self, key: u64, delta: u64) {
        self.producer.record(key, delta);
    }

    /// Publishes the buffered batch (if any) into this writer's ring
    /// without ever blocking — the foreground of the nonblocking writer
    /// API. Pair with [`BackpressurePolicy::Fail`](crate::BackpressurePolicy::Fail) for a pipeline in
    /// which no event can be lost without the code that produced it
    /// finding out.
    ///
    /// # Errors
    ///
    /// [`SendError::Full`] when the ring has no free slot,
    /// [`SendError::Closed`] after shutdown — both *carry the rejected
    /// batch*, so the caller can hold it and
    /// [`resubmit`](StoreWriter::resubmit) later, spill it, or shed it
    /// deliberately. (Convert to the service error with `?` via
    /// `EngineError::from` when the batch itself is expendable.)
    pub fn try_send(&mut self) -> Result<(), SendError> {
        self.producer.try_send()
    }

    /// Publishes the buffered batch (if any), parking on the ring's
    /// doorbell while it is full — the lossless blocking path.
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] (with the batch) if the store shuts down
    /// before a slot frees up.
    pub fn send(&mut self) -> Result<(), SendError> {
        self.producer.send()
    }

    /// Re-offers a batch returned inside a [`SendError`]; nonblocking.
    ///
    /// # Errors
    ///
    /// [`SendError::Full`] / [`SendError::Closed`], carrying the batch
    /// again.
    ///
    /// # Panics
    ///
    /// Panics if the batch came from a different writer (sequence
    /// provenance is per-producer).
    pub fn resubmit(&mut self, batch: crate::Batch) -> Result<(), SendError> {
        self.producer.resubmit(batch)
    }

    /// Publishes one *prepared* batch — exactly these pairs under exactly
    /// one sequence number — parking while the ring is full, and returns
    /// the sequence number assigned. This is the wire-ingest path: a
    /// server replaying a remote client's batch stream maps each wire
    /// batch to one ring batch, so the client's numbering and the durable
    /// [`ProducerMark`]s stay interchangeable.
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] (with the batch) if the store shuts down
    /// before a slot frees up.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` carries no events (see
    /// [`IngestProducer::submit_batch`](crate::IngestProducer::submit_batch)).
    pub fn submit_batch(&mut self, pairs: Vec<(u64, u64)>) -> Result<u64, SendError> {
        self.producer.submit_batch(pairs)
    }

    /// Flushes the partial batch, if any, honoring the backpressure
    /// policy, then reports any silent losses after the fact.
    ///
    /// # Errors
    ///
    /// [`EngineError::BatchRefused`] when anything this writer submitted
    /// since the last `flush` was dropped (queue closed, or full under
    /// [`BackpressurePolicy::DropNewest`](crate::BackpressurePolicy::DropNewest)) — including batches
    /// [`StoreWriter::record`] auto-flushed silently; `dropped_events`
    /// totals every lost event. Under [`BackpressurePolicy::Fail`](crate::BackpressurePolicy::Fail)
    /// nothing is ever dropped silently, so this after-the-fact path
    /// cannot fire: refusals surface at [`StoreWriter::try_send`]
    /// instead, with the data still in hand.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        let _ = self.producer.flush_policy();
        let dropped_events = self.producer.take_refused_events();
        if dropped_events == 0 {
            Ok(())
        } else {
            Err(EngineError::BatchRefused { dropped_events })
        }
    }

    /// This writer's producer id (stamped on every batch it flushes).
    #[must_use]
    pub fn producer_id(&self) -> u64 {
        self.producer.id()
    }

    /// The sequence number of this writer's last accepted batch (0
    /// before the first) — compare against
    /// [`RecoveryReport::last_applied`] to replay exactly once.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.producer.last_seq()
    }

    /// The exactly-once resume cursor for this writer after a
    /// [`Store::open`]: the recovered mark for this writer's producer
    /// id, or an all-zero mark when the restored state never saw it.
    /// Producer ids are assigned in creation order per store, so a
    /// process that recreates its writers in the same order it did
    /// before the crash gets each writer's own cursor back — replay
    /// everything after [`ProducerMark::applied_seq`] and nothing else:
    ///
    /// ```no_run
    /// # use ac_engine::Store;
    /// # fn replay(from_seq: u64) {}
    /// let store = Store::open("/var/lib/ac-store").unwrap();
    /// let report = store.recovery().unwrap().clone();
    /// let writer = store.writer();
    /// replay(writer.resume_from(&report).applied_seq);
    /// ```
    #[must_use]
    pub fn resume_from(&self, report: &RecoveryReport) -> ProducerMark {
        let id = self.producer.id();
        report
            .last_applied
            .iter()
            .find(|m| m.producer == id)
            .copied()
            .unwrap_or(ProducerMark {
                producer: id,
                enqueued_seq: 0,
                applied_seq: 0,
            })
    }

    /// Pairs buffered in the batch under construction.
    #[must_use]
    pub fn pending_pairs(&self) -> usize {
        self.producer.pending_pairs()
    }
}

impl Clone for StoreWriter {
    /// A clone is a new, independent producer over the same store (its
    /// own id and sequence numbering; nothing buffered is shared).
    fn clone(&self) -> Self {
        Self {
            producer: self.queue.producer(),
            queue: self.queue.clone(),
        }
    }
}

/// A read handle pinned to one published replica: every query sees one
/// consistent freeze epoch, immune to concurrent writes, until
/// [`StoreReader::refresh`] re-pins. Cloning preserves the pin; handles
/// are cheap (`O(shards)` of `Arc`s) and lock-free on the query path.
#[derive(Debug, Clone)]
pub struct StoreReader {
    shared: Arc<Shared>,
    snap: Arc<EngineSnapshot<CounterFamily>>,
    seed: u64,
}

impl StoreReader {
    /// The estimate for `key` at the pinned freeze, or `None` if the key
    /// had never been touched.
    #[must_use]
    pub fn estimate(&self, key: u64) -> Option<f64> {
        self.snap.estimate(key)
    }

    /// Read-only access to `key`'s frozen counter.
    #[must_use]
    pub fn counter(&self, key: u64) -> Option<&CounterFamily> {
        self.snap.counter(key)
    }

    /// The cross-shard merged aggregate (Remark 2.4) of the pinned
    /// replica, folded with a deterministic RNG derived from the store
    /// seed and the pinned epoch — so two readers pinned to the same
    /// epoch with the same cache warmth agree. For explicit randomness
    /// use [`StoreReader::merged_total_with`].
    ///
    /// # Errors
    ///
    /// Propagates merge errors as [`EngineError::Core`] (unreachable for
    /// a store's homogeneous counters).
    pub fn merged_total(&self) -> Result<CounterFamily, EngineError> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(mix64(self.seed ^ mix64(self.epoch())));
        self.merged_total_with(&mut rng)
    }

    /// [`StoreReader::merged_total`] with caller-supplied randomness.
    ///
    /// # Errors
    ///
    /// Propagates merge errors as [`EngineError::Core`].
    pub fn merged_total_with(
        &self,
        rng: &mut dyn RandomSource,
    ) -> Result<CounterFamily, EngineError> {
        Ok(self.snap.merged_total(rng)?)
    }

    /// The merged aggregate's estimate — the service's one-number answer
    /// to "how many events, in total?".
    ///
    /// # Errors
    ///
    /// See [`StoreReader::merged_total`].
    pub fn merged_estimate(&self) -> Result<f64, EngineError> {
        Ok(self.merged_total()?.estimate())
    }

    /// The merged aggregate of a **tiered** store: counters merge within
    /// each tier under the family merge law and the per-tier totals'
    /// estimates sum (see [`EngineSnapshot::merged_estimate_tiered`]).
    /// `tiers` is the ladder length the store was started with. Uses the
    /// same deterministic epoch-derived randomness as
    /// [`StoreReader::merged_total`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Core`] when a key carries a tier tag at or beyond
    /// `tiers`.
    pub fn merged_estimate_tiered(&self, tiers: usize) -> Result<f64, EngineError> {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(mix64(self.seed ^ mix64(self.epoch())));
        Ok(self.snap.merged_estimate_tiered(tiers, &mut rng)?)
    }

    /// Exact total events at the pinned freeze.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.snap.total_events()
    }

    /// Distinct keys at the pinned freeze.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snap.len()
    }

    /// True when the pinned replica holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snap.is_empty()
    }

    /// The freeze epoch this reader is pinned to.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.snap.epoch()
    }

    /// The pinned frozen replica itself (the expert API underneath).
    #[must_use]
    pub fn snapshot(&self) -> &EngineSnapshot<CounterFamily> {
        &self.snap
    }

    /// Re-pins to the newest published replica.
    pub fn refresh(&mut self) {
        self.snap = Arc::clone(&self.shared.snap.read().expect("snapshot slot"));
    }
}

/// Restores the newest intact chain a manifest describes; see
/// [`Store::open_with`].
fn recover(
    dir: &Path,
    manifest: &Manifest,
) -> Result<(CounterEngine<CounterFamily>, RecoveryReport), EngineError> {
    use crate::checkpoint::CheckpointKind;

    // For a tiered directory, restore against the manifest's ladder —
    // version-3 frames decode each key's state with its tier's template.
    // An untiered directory restores with the one-rung "ladder", which
    // is exactly the classic single-template restore.
    let templates: Vec<CounterFamily> = match &manifest.tiering {
        Some(t) => {
            if t.ladder.first() != Some(&manifest.spec) {
                return Err(EngineError::ManifestCorrupt {
                    what: "manifest ladder's default rung disagrees with its spec".into(),
                });
            }
            t.ladder
                .iter()
                .map(CounterSpec::build)
                .collect::<Result<_, _>>()?
        }
        None => vec![manifest.spec.build()?],
    };
    let frames = &manifest.frames;
    if frames.is_empty() {
        // A store that never reached its first checkpoint: resume empty.
        let engine = CounterEngine::new(templates[0].clone(), manifest.config);
        let report = RecoveryReport {
            directory: dir.to_path_buf(),
            frames_in_manifest: 0,
            frames_used: 0,
            frames_skipped: 0,
            events: 0,
            keys: 0,
            epoch: 0,
            last_applied: Vec::new(),
            session: manifest.next_session(),
        };
        return Ok((engine, report));
    }

    // Candidate chains, newest base first: each run [full, delta…] up to
    // the next full frame.
    let fulls: Vec<usize> = frames
        .iter()
        .enumerate()
        .filter(|(_, f)| f.kind == CheckpointKind::Full)
        .map(|(i, _)| i)
        .collect();
    let mut chains_tried = 0usize;
    for &base in fulls.iter().rev() {
        chains_tried += 1;
        let end = fulls
            .iter()
            .find(|&&i| i > base)
            .copied()
            .unwrap_or(frames.len());
        // Read segment files up to the first unreadable one.
        let mut segments: Vec<Vec<u8>> = Vec::new();
        for frame in &frames[base..end] {
            match std::fs::read(dir.join(&frame.file)) {
                Ok(bytes) => segments.push(bytes),
                Err(_) => break,
            }
        }
        // Fold the longest restorable prefix: the first truncated or
        // corrupt delta ends the chain there; a damaged base sends us
        // to the previous chain. Worker count 0 = auto: recovery
        // decodes shard sections in parallel on big states, serially on
        // small ones.
        let Some((first, rest)) = segments.split_first() else {
            continue;
        };
        let Ok(mut engine) = restore_checkpoint_chain_with_workers(&templates, &[first], 0) else {
            continue;
        };
        let mut tip = read_header(first).expect("a restored base has a valid header");
        let mut used = 1;
        for delta in rest {
            let Ok(header) = fold_delta(&templates, &mut engine, &tip, delta, 0) else {
                break;
            };
            tip = header;
            used += 1;
        }
        let tip = &frames[base + used - 1];
        let report = RecoveryReport {
            directory: dir.to_path_buf(),
            frames_in_manifest: frames.len(),
            frames_used: used,
            frames_skipped: frames.len() - (base + used),
            events: engine.total_events(),
            keys: engine.len(),
            epoch: tip.epoch,
            last_applied: tip.marks.clone(),
            session: manifest.next_session(),
        };
        return Ok((engine, report));
    }
    Err(EngineError::NoRestorableChain {
        frames: frames.len(),
        chains_tried,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CounterSpec {
        CounterSpec::NelsonYu {
            eps: 0.2,
            delta_log2: 8,
        }
    }

    #[test]
    fn store_runs_writes_and_serves_reads() {
        let store = Store::builder(spec())
            .with_shards(4)
            .with_seed(11)
            .with_snapshot_every_events(100)
            .start()
            .unwrap();
        let mut w = store.writer();
        for key in 0..50u64 {
            w.record(key, 200);
        }
        w.flush().unwrap();

        // A reader pinned before close may lag; after close the final
        // replica is published.
        let report = store.close().unwrap();
        assert_eq!(report.stats.events, 10_000);
        assert_eq!(report.stats.keys, 50);
        assert!(report.checkpoints.is_none(), "no durability configured");
    }

    #[test]
    fn readers_are_epoch_pinned_until_refreshed() {
        let store = Store::builder(CounterSpec::Exact)
            .with_snapshot_every_events(1) // publish at every batch
            .start()
            .unwrap();
        let early = store.reader();
        assert_eq!(early.total_events(), 0);

        let mut w = store.writer();
        w.record(1, 5);
        w.flush().unwrap();
        // Wait for the applier to publish the new replica: a wall-clock
        // deadline, not a yield count, so a loaded host cannot starve
        // the applier past the wait.
        let mut fresh = store.reader();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while fresh.total_events() != 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
            fresh.refresh();
        }
        assert_eq!(fresh.total_events(), 5);
        assert_eq!(fresh.estimate(1), Some(5.0));
        assert_eq!(early.total_events(), 0, "pin held");
        let mut early = early;
        early.refresh();
        assert_eq!(early.total_events(), 5, "refresh re-pins");
        assert!(fresh.epoch() > 0);
        let _ = store.close().unwrap();
    }

    #[test]
    fn merged_estimate_tracks_totals() {
        let store = Store::builder(spec())
            .with_shards(8)
            .with_snapshot_every_events(1_000)
            .start()
            .unwrap();
        let mut w = store.writer();
        for key in 0..500u64 {
            w.record(key, 1_000);
        }
        w.flush().unwrap();
        let _ = store.stats(); // exercisable mid-run
        let mut reader = store.reader();
        let report = store.close().unwrap();
        assert_eq!(report.stats.events, 500_000);

        // After close the final replica is published: the merged
        // aggregate concentrates around the exact total, and repeated
        // calls on the same pin agree (deterministic seed + warm cache).
        reader.refresh();
        assert_eq!(reader.total_events(), 500_000);
        let merged = reader.merged_estimate().unwrap();
        let rel = (merged - 500_000.0).abs() / 500_000.0;
        assert!(rel < 0.4, "merged relative error {rel}");
        let again = reader.merged_estimate().unwrap();
        assert_eq!(merged, again, "same pin, same fold");
    }

    #[test]
    fn writer_clones_are_independent_producers() {
        let store = Store::builder(CounterSpec::Exact).start().unwrap();
        let mut a = store.writer();
        let b = a.clone();
        assert_ne!(a.producer_id(), b.producer_id());
        a.record(1, 1);
        assert_eq!(b.pending_pairs(), 0, "buffers are not shared");
        let _ = store.close().unwrap();
    }

    #[test]
    fn fail_policy_makes_silent_loss_unreachable() {
        let store = Store::builder(CounterSpec::Exact)
            .with_ingest(
                IngestConfig::new()
                    .with_ring_batches(1)
                    .with_batch_pairs(1)
                    .with_policy(BackpressurePolicy::Fail),
            )
            .start()
            .unwrap();
        let mut w = store.writer();
        // Slam records into a one-slot ring: the lagging applier forces
        // refusals, but under Fail a refusal can only retain the buffer
        // or surface at try_send — never discard.
        for key in 0..1_000u64 {
            w.record(key, 1);
        }
        // Drive the retained buffer in through the nonblocking path.
        // Full is the only acceptable refusal while the store runs, and
        // it hands the batch back — hold it and resubmit, as a real
        // lossless caller must. Nothing here can shed data invisibly.
        let mut held: Option<crate::Batch> = None;
        loop {
            let res = match held.take() {
                Some(batch) => w.resubmit(batch),
                None if w.pending_pairs() > 0 => w.try_send(),
                None => break,
            };
            if let Err(e) = res {
                assert!(e.is_full(), "unexpected refusal: {e}");
                held = Some(e.into_batch());
                std::thread::yield_now();
            }
        }
        // The after-the-fact reporter has nothing to report — the old
        // silent-loss path is unreachable under Fail.
        w.flush().unwrap();
        let report = store.close().unwrap();
        assert_eq!(report.stats.events, 1_000, "every event accounted for");
        assert_eq!(report.stats.dropped_events, 0);
        assert_eq!(report.stats.dropped_batches, 0);
    }

    #[test]
    fn invalid_spec_is_a_typed_error() {
        let err = Store::builder(CounterSpec::Morris { a: -3.0 })
            .start()
            .unwrap_err();
        assert!(matches!(err, EngineError::Core(_)));
    }

    /// A skewed ladder for tier tests: Morris default, exact top rung.
    fn ladder() -> TierPolicy {
        TierPolicy::new(vec![
            CounterSpec::Morris { a: 8.0 },
            spec(),
            CounterSpec::Exact,
        ])
        .unwrap()
    }

    fn tier_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ac-store-tier-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn tiering_requires_the_ladder_to_start_at_the_store_spec() {
        let err = Store::builder(CounterSpec::Exact)
            .with_tiering(ladder(), 1 << 20)
            .start()
            .unwrap_err();
        assert!(matches!(err, EngineError::Core(_)));
    }

    #[test]
    fn tiered_store_promotes_hot_keys_within_budget() {
        let store = Store::builder(CounterSpec::Morris { a: 8.0 })
            .with_shards(4)
            .with_seed(7)
            .with_snapshot_every_events(2_000)
            .with_tiering(ladder(), 1 << 20)
            .start()
            .unwrap();
        let mut w = store.writer();
        // Two blazing-hot keys over a cold tail, across enough cadence
        // boundaries for detection and promotion to both happen.
        for round in 0..40 {
            for hot in 0..2u64 {
                w.record(hot, 2_000);
            }
            for key in 0..100u64 {
                w.record(1_000 + key + 100 * round, 1);
            }
            w.flush().unwrap();
        }
        let report = store.close().unwrap();
        let counts = &report.stats.tier_keys;
        assert_eq!(counts.len(), 3, "one gauge per rung");
        let promoted: u64 = counts[1..].iter().sum();
        assert!(promoted >= 2, "hot keys promoted, got {counts:?}");
        assert!(
            report.stats.state_bits_total <= 1 << 20,
            "budget respected: {} bits",
            report.stats.state_bits_total
        );
        assert!(report.stats.bits_per_key() > 0.0);
    }

    #[test]
    fn tiered_store_survives_close_and_reopens_with_tiers_intact() {
        let dir = tier_dir("reopen");
        let budget = 1 << 20;
        let (tiers_before, estimates_before) = {
            let store = Store::builder(CounterSpec::Morris { a: 8.0 })
                .with_shards(4)
                .with_seed(7)
                .with_snapshot_every_events(1_000)
                .with_checkpoint_every_events(2_000)
                .with_tiering(ladder(), budget)
                .with_durability(&dir)
                .start()
                .unwrap();
            let mut w = store.writer();
            for _ in 0..30 {
                for hot in 0..2u64 {
                    w.record(hot, 1_500);
                }
                for key in 100..150u64 {
                    w.record(key, 1);
                }
                w.flush().unwrap();
            }
            let mut reader = store.reader();
            let _ = store.close().unwrap();
            reader.refresh();
            let snap = reader.snapshot();
            let mut tiers = Vec::new();
            let mut estimates = Vec::new();
            for shard in &snap.shards {
                for (key, counter, tier) in shard.entries_tagged() {
                    tiers.push((key, tier));
                    estimates.push((key, counter.estimate()));
                }
            }
            tiers.sort_unstable();
            estimates.sort_by_key(|&(key, _)| key);
            (tiers, estimates)
        };
        assert!(
            tiers_before.iter().any(|&(_, t)| t != 0),
            "test needs at least one promoted key to be meaningful"
        );

        let store = Store::open(&dir).unwrap();
        assert_eq!(
            store.stats().tier_budget_bits,
            Some(budget),
            "manifest restores the budget"
        );
        let reader = store.reader();
        let snap = reader.snapshot();
        let mut tiers_after = Vec::new();
        let mut estimates_after = Vec::new();
        for shard in &snap.shards {
            for (key, counter, tier) in shard.entries_tagged() {
                tiers_after.push((key, tier));
                estimates_after.push((key, counter.estimate()));
            }
        }
        tiers_after.sort_unstable();
        estimates_after.sort_by_key(|&(key, _)| key);
        assert_eq!(tiers_before, tiers_after, "tier assignments round-trip");
        assert_eq!(
            estimates_before, estimates_after,
            "estimates round-trip bit-exactly"
        );

        // The reopened store keeps migrating (same ladder, same planner).
        let mut w = store.writer();
        for _ in 0..10 {
            for hot in 0..2u64 {
                w.record(hot, 1_500);
            }
            w.flush().unwrap();
        }
        let report = store.close().unwrap();
        assert!(report.stats.state_bits_total <= budget);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_a_tiered_directory_untiered_is_refused() {
        let dir = tier_dir("mismatch");
        {
            let store = Store::builder(CounterSpec::Morris { a: 8.0 })
                .with_tiering(ladder(), 1 << 20)
                .with_durability(&dir)
                .start()
                .unwrap();
            let _ = store.close().unwrap();
        }
        // Same spec/config but no tiering: the ladder is part of the
        // durable identity, so the builder must refuse the directory.
        let err = Store::builder(CounterSpec::Morris { a: 8.0 })
            .with_durability(&dir)
            .start()
            .unwrap_err();
        assert!(matches!(err, EngineError::ManifestCorrupt { .. }));
        // Store::open, by contrast, resumes tiered from the manifest.
        let store = Store::open(&dir).unwrap();
        assert!(store.stats().tier_budget_bits.is_some());
        store.kill();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
