//! The four workloads. Each runs in rounds: a round sets up a fresh
//! store (or server), drives it for `round_ns`, shuts it down, and checks
//! every output against the oracle. Metrics are recorded per round in a
//! [`Rec`] and aggregated across rounds by the caller.

use crate::gen::{Keys, Oracle, Pool};
use crate::measure::{self, SamplerCtl, Samples, Source};
use crate::trace::{Trace, Tracer};
use ac_core::CounterSpec;
use ac_engine::{
    CheckpointKind, CounterEngine, EngineConfig, Store, StoreReader, StoreReport, StoreWriter,
};
use ac_net::{NetWriter, ReplicaNode, ServerConfig, StoreClient, StoreServer, WriterConfig};
use ac_randkit::mix64;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The paper's Algorithm 1 at `ε = 0.2`, `δ = 2⁻⁸`, on every workload.
pub const SPEC: CounterSpec = CounterSpec::NelsonYu {
    eps: 0.2,
    delta_log2: 8,
};
pub const EPS: f64 = 0.2;
pub const DELTA: f64 = 1.0 / 256.0;

const SHARDS: usize = 16;
const ZIPF_S: f64 = 1.1;
const ZIPF_KEYS: u64 = 1_000_000;
/// Four times the Zipf keyspace: no producer coalescing, and a working
/// set far beyond the L2 cache.
const UNIFORM_KEYS: u64 = 4_000_000;
const POOL_EVENTS: usize = 1 << 22;
/// Records per explicit `send()` on a `StoreWriter` (a batch holds up
/// to 4096 pairs, so `send` publishes a partial batch).
const STORE_GROUP: usize = 1024;
/// Records per explicit `send()` on a `NetWriter` (batches of 256).
const NET_GROUP: usize = 192;
/// The remote writer's `flush()` barrier, in sends.
const NET_FLUSH_EVERY: u64 = 1024;
/// The open-loop writer's fixed schedule on `uniform-read-write`: one
/// batch of `UNIFORM_BATCH` events every `UNIFORM_BATCH / UNIFORM_RATE`
/// seconds, never adapted to measured throughput.
const UNIFORM_RATE: f64 = 250_000.0;
const UNIFORM_BATCH: usize = 512;
/// Point estimates per timed group (keeps clock overhead out).
const READ_GROUP: usize = 256;
/// The concurrent reader's mix: one `refresh` per estimate group, and
/// one `merged_estimate` each time the visible total passes a multiple
/// of this many events. A merge folds every key, so its cost grows with
/// the keys present; merging at fixed totals has every round merge the
/// same key sets.
const MERGE_EVERY_EVENTS: u64 = 1 << 13;
const POST_READ_GROUPS: usize = 4000;
const RPC_ESTIMATES: usize = 2000;
const RPC_STATS: usize = 100;
/// Half the Store's default cadence (1M events): rounds last under a
/// second, and this still writes several frames per round, so the
/// compactor folds the chain every round.
const CHECKPOINT_EVERY: u64 = 500_000;
/// Low enough that the compactor folds the chain early in every round.
const MAX_CHAIN_LEN: usize = 2;
const REOPEN_AUDIT_KEYS: usize = 4096;
/// Throwaway set-ups per round beside the round's own; `setup_s` is the
/// median over all of them.
const EXTRA_SETUPS: usize = 7;
/// How long to wait for the full total on the reader after `close()`
/// published it: one sampler tick suffices, so only a run whose events
/// were lost waits this out.
const SETTLE: Duration = Duration::from_secs(1);
/// How long the primary and the replica may take to catch up after the
/// remote writer's last ack.
const TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZipfMem,
    ZipfDurable,
    UniformReadWrite,
    ZipfNet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZipfMem,
        Workload::ZipfDurable,
        Workload::UniformReadWrite,
        Workload::ZipfNet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfMem => "zipf-mem",
            Workload::ZipfDurable => "zipf-durable",
            Workload::UniformReadWrite => "uniform-read-write",
            Workload::ZipfNet => "zipf-net",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The pre-drawn inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    pub keys: Keys,
    /// One pool per writer (the Zipf workloads draw two; the net writer
    /// and the open-loop writer use the first).
    pub pools: Vec<Pool>,
    /// Keys for timed point reads.
    pub read_keys: Vec<u64>,
    pub store_seed: u64,
}

impl Inputs {
    pub fn draw(w: Workload, seed: u64, small: bool) -> Self {
        let scale = if small { 16 } else { 1 };
        let pool_len = POOL_EVENTS / scale;
        let salt = mix64(seed ^ 0x5A17);
        let (keys, writers) = match w {
            Workload::UniformReadWrite => (
                Keys::Uniform {
                    keyspace: UNIFORM_KEYS / scale as u64,
                    salt,
                },
                1,
            ),
            _ => (Keys::zipf(ZIPF_KEYS / scale as u64, ZIPF_S, salt), 2),
        };
        let pools: Vec<Pool> = (0..writers)
            .map(|i| keys.pool(pool_len, mix64(seed ^ (0x9001 + i))))
            .collect();
        let read_keys = match w {
            // Point reads over the whole keyspace: hits and misses.
            Workload::UniformReadWrite => keys.pool(1 << 16, mix64(seed ^ 0x4EAD)).keys,
            // Distinct keys from the stream's head, which every round
            // records, in random order: each read is a cold lookup. A
            // Zipf-ordered read list mixes cache-hot and cold keys, and
            // its latency then swings ±25% with each store's memory
            // layout.
            _ => pools[0].distinct_head(1 << 18, 1 << 16, mix64(seed ^ 0x4EAD)),
        };
        Self {
            keys,
            pools,
            read_keys,
            store_seed: mix64(seed ^ 0x5707E),
        }
    }

    pub fn digest(&self) -> u64 {
        self.pools
            .iter()
            .fold(self.keys.keyspace(), |h, p| mix64(h ^ p.digest()))
    }
}

/// Counts operations and oracle checks; every failure is named.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` already-attempted operations as failed.
    pub fn fail_ops(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.failures.push(what());
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail_ops(1, what);
        }
    }
}

/// One round's measurements: scalars (one value per round, aggregated
/// by median) and samples (pooled across rounds).
#[derive(Debug, Default)]
pub struct Rec {
    pub scalars: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub trace: Trace,
    /// The round's ingest window (first record until the full total is
    /// visible), in ns since the round's epoch: the base of the layer
    /// shares.
    pub window: (u64, u64),
}

impl Rec {
    pub fn wall_ns(&self) -> u64 {
        self.window.1.saturating_sub(self.window.0)
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.scalars.insert(name, v);
    }

    pub fn extend(&mut self, name: &'static str, v: impl IntoIterator<Item = f64>) {
        self.samples.entry(name).or_default().extend(v);
    }
}

/// Per-round settings.
#[derive(Debug)]
pub struct RoundCtx<'a> {
    pub inp: &'a Inputs,
    pub traced: bool,
    pub round: usize,
    pub round_ns: u64,
    /// Drop one group of records while still counting it as generated,
    /// so the oracle must reject the round.
    pub inject_drop: bool,
    pub work_dir: &'a Path,
}

/// Starts the round's store: in memory, or durable under `dir` with
/// checkpoint cadence and chain compaction on.
fn start_store(inp: &Inputs, dir: Option<&Path>) -> Store {
    let b = Store::builder(SPEC)
        .with_shards(SHARDS)
        .with_seed(inp.store_seed);
    let b = match dir {
        Some(dir) => b
            .with_durability(dir)
            .with_checkpoint_every_events(CHECKPOINT_EVERY)
            .with_max_chain_len(MAX_CHAIN_LEN),
        None => b,
    };
    b.start().expect("store starts")
}

/// Starts an in-memory store behind a loopback `StoreServer` and
/// connects one replica.
fn start_server(inp: &Inputs) -> (StoreServer, ReplicaNode) {
    let server = StoreServer::start_with(
        start_store(inp, None),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server binds");
    let replica =
        ReplicaNode::connect(server.local_addr(), server.identity()).expect("replica connects");
    (server, replica)
}

/// Times `EXTRA_SETUPS` throwaway set-ups (`once` returns the ns of its
/// set-up and tears it down untimed) as `setup_s` samples; the round's
/// own set-up adds one more.
fn extra_setups(rec: &mut Rec, mut once: impl FnMut(usize) -> u64) {
    for j in 0..EXTRA_SETUPS {
        let ns = once(j);
        rec.extend("setup_s", [ns as f64 / 1e9]);
    }
}

/// A writer handle the closed loop can drive.
trait Sink {
    const RECORD: &'static str;
    const SEND: &'static str;
    fn record(&mut self, key: u64);
    fn send(&mut self) -> bool;
    /// A periodic barrier (the remote writer's `flush`).
    fn barrier(&mut self, _tr: &mut Tracer) -> bool {
        true
    }
}

impl Sink for StoreWriter {
    const RECORD: &'static str = "ingest.record";
    const SEND: &'static str = "ingest.send";
    #[inline]
    fn record(&mut self, key: u64) {
        StoreWriter::record(self, key, 1);
    }
    fn send(&mut self) -> bool {
        StoreWriter::send(self).is_ok()
    }
}

impl Sink for NetWriter {
    const RECORD: &'static str = "client.record";
    const SEND: &'static str = "client.send";
    #[inline]
    fn record(&mut self, key: u64) {
        NetWriter::record(self, key, 1);
    }
    fn send(&mut self) -> bool {
        NetWriter::send(self).is_ok()
    }
    fn barrier(&mut self, tr: &mut Tracer) -> bool {
        tr.time("client.flush", || self.flush().is_ok()).0
    }
}

#[derive(Debug, Default)]
struct WriterOut {
    /// Events generated (including a deliberately dropped group).
    events: u64,
    first_ns: u64,
    last_send_ns: u64,
    /// `(ns, events)` per send; the open loop logs the scheduled time.
    sends: Vec<(u64, u64)>,
    failures: u64,
    late_ns: Vec<f64>,
}

impl WriterOut {
    fn log_send(&mut self, t: u64, events: u64) {
        self.events += events;
        self.sends.push((t, events));
        self.last_send_ns = t;
    }
}

/// Records `group` keys from `pool` (cycling) into `sink`, unless the
/// group is the one to drop.
fn record_group<S: Sink>(sink: &mut S, keys: &[u64], pos: &mut usize, group: usize, drop: bool) {
    for _ in 0..group {
        if !drop {
            sink.record(keys[*pos]);
        }
        *pos += 1;
        if *pos == keys.len() {
            *pos = 0;
        }
    }
}

/// A closed loop: record a group, `send()` it, repeat until the deadline.
fn closed_loop<S: Sink>(
    sink: &mut S,
    pool: &Pool,
    group: usize,
    deadline_ns: u64,
    tr: &mut Tracer,
    drop_group: Option<u64>,
) -> WriterOut {
    let root = tr.begin("gen.writer");
    let mut out = WriterOut {
        first_ns: tr.now(),
        ..WriterOut::default()
    };
    let mut pos = 0usize;
    let mut groups = 0u64;
    while tr.now() < deadline_ns {
        let drop = drop_group == Some(groups);
        tr.time(S::RECORD, || {
            record_group(sink, &pool.keys, &mut pos, group, drop)
        });
        let t = tr.now();
        if !tr.time(S::SEND, || sink.send()).0 {
            out.failures += 1;
        }
        out.log_send(t, group as u64);
        groups += 1;
        if groups % NET_FLUSH_EVERY == 0 && !sink.barrier(tr) {
            out.failures += 1;
        }
    }
    tr.end(root);
    out
}

/// An open loop: one batch per period on a fixed schedule, each logged
/// at its scheduled time.
fn open_loop(
    sink: &mut StoreWriter,
    pool: &Pool,
    deadline_ns: u64,
    tr: &mut Tracer,
    drop_group: Option<u64>,
) -> WriterOut {
    let root = tr.begin("gen.writer");
    let period_ns = UNIFORM_BATCH as f64 / UNIFORM_RATE * 1e9;
    let start = tr.now();
    let mut out = WriterOut {
        first_ns: start,
        ..WriterOut::default()
    };
    let mut pos = 0usize;
    for i in 0u64.. {
        let due = start + (i as f64 * period_ns) as u64;
        if due >= deadline_ns {
            break;
        }
        let now = tr.now();
        if due > now {
            tr.time("idle.sleep", || {
                std::thread::sleep(Duration::from_nanos(due - now))
            });
        }
        out.late_ns.push(tr.now().saturating_sub(due) as f64);
        let drop = drop_group == Some(i);
        tr.time(StoreWriter::RECORD, || {
            record_group(sink, &pool.keys, &mut pos, UNIFORM_BATCH, drop);
        });
        if !tr.time(StoreWriter::SEND, || Sink::send(sink)).0 {
            out.failures += 1;
        }
        out.log_send(due, UNIFORM_BATCH as u64);
    }
    tr.end(root);
    out
}

/// Times `groups` groups of point estimates; returns ns per call.
fn timed_estimates(
    tr: &mut Tracer,
    name: &'static str,
    keys: &[u64],
    groups: usize,
    estimate: impl Fn(u64) -> Option<f64>,
) -> Vec<f64> {
    let mut pos = 0usize;
    (0..groups)
        .map(|_| {
            let (sum, ns) = tr.time(name, || {
                let mut sum = 0.0;
                for _ in 0..READ_GROUP {
                    sum += estimate(keys[pos]).unwrap_or(0.0);
                    pos = (pos + 1) % keys.len();
                }
                sum
            });
            black_box(sum);
            ns as f64 / READ_GROUP as f64
        })
        .collect()
}

/// Checks one merged estimate against the exact total. Missing the
/// `(1±ε)` band is recorded as a `core.merge_miss` sample (0 or 1) and
/// reported; the run fails only past `(1±2ε)` or on an error, because a
/// correct NelsonYu(0.2, 2⁻⁸) merge outputs values about 1.2× apart and
/// lands near 1.21×N on a few percent of totals.
fn merge_check(rec: &mut Rec, checks: &mut Checks, merged: Option<f64>, exact: u64) {
    let err = match merged {
        Some(m) if exact == 0 => m.abs(),
        Some(m) => (m - exact as f64).abs() / exact as f64,
        None => f64::INFINITY,
    };
    rec.extend("core.merge_miss", [f64::from(u8::from(err > EPS))]);
    checks.check(err <= 2.0 * EPS, || {
        format!("merged estimate {merged:?} outside (1±2ε) of {exact}")
    });
}

/// One `merged_estimate`, in a span; returns the estimate and the
/// calling thread's CPU time for it in µs. A merge runs for milliseconds
/// on the calling thread alone, so its wall time mostly adds how long
/// the host preempted it.
fn timed_merge(tr: &mut Tracer, reader: &StoreReader) -> (Option<f64>, f64) {
    let cpu = measure::thread_cpu_ns();
    let (merged, _) = tr.time("snapshot.merged_estimate", || reader.merged_estimate());
    (merged.ok(), (measure::thread_cpu_ns() - cpu) as f64 / 1e3)
}

/// Reads against the final snapshot: timed point estimates and one
/// merged estimate (the first on a snapshot; later ones hit its cache),
/// checked against the exact total.
fn post_reads(
    rec: &mut Rec,
    checks: &mut Checks,
    tr: &mut Tracer,
    reader: &StoreReader,
    keys: &[u64],
    total: u64,
) {
    let est = timed_estimates(tr, "snapshot.estimate", keys, POST_READ_GROUPS, |k| {
        reader.estimate(k)
    });
    checks.ops(POST_READ_GROUPS as u64);
    rec.extend("snapshot.estimate_ns", est);
    let (merged, us) = timed_merge(tr, reader);
    rec.extend("snapshot.merged_estimate_us", [us]);
    merge_check(rec, checks, merged, total);
}

/// The per-key accuracy audit against the oracle.
fn audit(
    rec: &mut Rec,
    checks: &mut Checks,
    inp: &Inputs,
    oracle: &Oracle,
    estimate: impl Fn(u64) -> Option<f64>,
) {
    let a = oracle.audit(&inp.keys, EPS, estimate);
    rec.set(
        "core.audit_out_of_band_frac",
        a.out_of_band as f64 / a.audited.max(1) as f64,
    );
    rec.set("core.audit_rel_error_p99", a.rel_error_p99);
    checks.check(a.wilson_hi <= DELTA, || {
        format!(
            "{} of {} keys outside (1±ε): Wilson upper bound {:.5} exceeds δ",
            a.out_of_band, a.audited, a.wilson_hi
        )
    });
}

/// Metrics every store-backed round derives the same way from its
/// writers, its sampler and the close report.
fn ingest_metrics(
    rec: &mut Rec,
    checks: &mut Checks,
    outs: &[WriterOut],
    samples: &Samples,
    report: &StoreReport,
    visible: &[(u64, u64)],
    oracle: &Oracle,
) {
    let generated = oracle.total();
    rec.set("events", generated as f64);
    let sends: u64 = outs.iter().map(|o| o.sends.len() as u64).sum();
    checks.ops(sends);
    let failures: u64 = outs.iter().map(|o| o.failures).sum();
    checks.fail_ops(failures, || format!("{failures} sends or flushes refused"));
    let dropped = report.stats.dropped_events;
    checks.check(dropped == 0, || {
        format!("{dropped} events dropped by the store")
    });
    checks.check(report.stats.events == generated, || {
        format!(
            "applied {} events, generated {generated}",
            report.stats.events
        )
    });
    checks.check(report.stats.keys as u64 == oracle.keys(), || {
        format!(
            "store holds {} keys, oracle {}",
            report.stats.keys,
            oracle.keys()
        )
    });

    let mut all: Vec<(u64, u64)> = outs.iter().flat_map(|o| o.sends.iter().copied()).collect();
    let (delays, never) = measure::visibility_delays(&mut all, visible);
    checks.fail_ops(never, || format!("{never} sends never became visible"));
    // Catch-up is the readers' mean staleness (the tail after the last
    // send is one sample, set by where the rings were when the writers
    // stopped). A durable store's close and reopen are printed apart
    // (`close_s`, `recover_s`): close waits for any compaction in flight,
    // so last send to reopened store swings by a third between rounds.
    let mean_ns = delays.iter().sum::<f64>() / delays.len().max(1) as f64;
    rec.set("catchup_ms", mean_ns / 1e6);
    rec.extend("visible_ms", delays.iter().map(|d| d / 1e6));

    let stats = &report.stats;
    rec.set(
        "bits_per_key",
        stats.state_bits_total as f64 / stats.keys.max(1) as f64,
    );
    rec.set("core.state_bits_total", stats.state_bits_total as f64);
    rec.set(
        "shard.max_keys_ratio",
        stats.max_shard_keys as f64 * stats.shards as f64 / stats.keys.max(1) as f64,
    );
    let batches: u64 = stats.producers.iter().map(|m| m.enqueued_seq).sum();
    rec.set(
        "ingest.events_per_batch",
        generated as f64 / batches.max(1) as f64,
    );
    rec.set("ingest.dropped_events", dropped as f64);
    rec.extend("applier.backlog_events", samples.backlog.iter().copied());
    rec.extend("ingest.queue_depth", samples.queue_depth.iter().copied());
    rec.extend("snapshot.freeze_ns", samples.freeze_ns.iter().copied());
    rec.extend(
        "snapshot.dirty_shards",
        samples.dirty_shards.iter().copied(),
    );
    if samples.publish_window_ns > 0 {
        rec.set(
            "snapshot.publishes_per_s",
            samples.publishes as f64 / samples.publish_window_ns as f64 * 1e9,
        );
    }

    let first = outs.iter().map(|o| o.first_ns).min().unwrap_or(0);
    let last_send = outs.iter().map(|o| o.last_send_ns).max().unwrap_or(0);
    let full_at = visible
        .iter()
        .find(|&&(_, v)| v >= generated)
        .map(|&(t, _)| t);
    checks.check(full_at.is_some(), || {
        "the full total never became visible".into()
    });
    if let Some(full_at) = full_at {
        rec.window = (first, full_at);
        rec.set(
            "ingest_eps",
            generated as f64 / (full_at - first) as f64 * 1e9,
        );
        rec.set("applier.drain_tail_ms", (full_at - last_send) as f64 / 1e6);
    }
}

fn oracle_of(inp: &Inputs, outs: &[WriterOut]) -> Oracle {
    let mut oracle = Oracle::new(inp.keys.keyspace());
    for (pool, out) in inp.pools.iter().zip(outs) {
        oracle.add_prefix(pool, out.events);
    }
    oracle
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `zipf-mem` (no directory) and `zipf-durable` (with one): two
/// closed-loop writers, then `close()`, reads on the final snapshot,
/// the audit and, when durable, a timed `Store::open`.
pub fn store_round(ctx: &RoundCtx<'_>, checks: &mut Checks, durable: bool) -> Rec {
    let inp = ctx.inp;
    let traced = ctx.traced;
    let mut rec = Rec::default();
    let dir = ctx.work_dir.join(format!("store-{}", ctx.round));
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let mut tr = Tracer::new(traced, t0, 0);
    extra_setups(&mut rec, |j| {
        let d = ctx.work_dir.join(format!("setup-{}-{j}", ctx.round));
        let start = Instant::now();
        let store = start_store(inp, durable.then_some(d.as_path()));
        let ns = start.elapsed().as_nanos() as u64;
        store.close().expect("empty store closes");
        let _ = std::fs::remove_dir_all(&d);
        ns
    });
    let (store, setup_ns) = tr.time("store.start", || {
        start_store(inp, durable.then_some(dir.as_path()))
    });
    rec.extend("setup_s", [setup_ns as f64 / 1e9]);
    let mut reader = store.reader();
    let writers: Vec<StoreWriter> = inp.pools.iter().map(|_| store.writer()).collect();
    let slot = Arc::new(Mutex::new(Some(store)));
    let ctl = SamplerCtl::new();
    let deadline = tr.now() + ctx.round_ns;
    let drop = ctx.inject_drop && ctx.round == 0;

    let (outs, samples, report, close_ns) = std::thread::scope(|s| {
        let src = Source {
            reader: reader.clone(),
            store: Some(Arc::clone(&slot)),
            replica: None,
        };
        let ctl_ref = &ctl;
        let sampler = s.spawn(move || {
            let mut str = Tracer::new(traced, t0, 1);
            (measure::sample(src, ctl_ref, &mut str), str)
        });
        let handles: Vec<_> = writers
            .into_iter()
            .zip(&inp.pools)
            .enumerate()
            .map(|(w, (mut writer, pool))| {
                s.spawn(move || {
                    let mut wtr = Tracer::new(traced, t0, 2 + w as u32);
                    let drop_group = (drop && w == 0).then_some(3);
                    let mut out = closed_loop(
                        &mut writer,
                        pool,
                        STORE_GROUP,
                        deadline,
                        &mut wtr,
                        drop_group,
                    );
                    if wtr.time("ingest.flush", || writer.flush()).0.is_err() {
                        out.failures += 1;
                    }
                    (out, wtr)
                })
            })
            .collect();
        let mut outs = Vec::new();
        for h in handles {
            let (out, wtr) = h.join().expect("writer thread");
            rec.trace.add(wtr);
            outs.push(out);
        }
        ctl.set_target(outs.iter().map(|o| o.events).sum());
        let store = slot
            .lock()
            .expect("store slot")
            .take()
            .expect("store still open");
        let (report, close_ns) = tr.time("store.close", || store.close().expect("store closes"));
        ctl.wait_full(SETTLE);
        ctl.stop();
        let (samples, str) = sampler.join().expect("sampler thread");
        rec.trace.add(str);
        (outs, samples, report, close_ns)
    });
    rec.set("close_s", close_ns as f64 / 1e9);

    let oracle = oracle_of(inp, &outs);
    let generated = oracle.total();
    ingest_metrics(
        &mut rec,
        checks,
        &outs,
        &samples,
        &report,
        &samples.visible,
        &oracle,
    );
    reader.refresh();
    checks.check(reader.total_events() == generated, || {
        format!(
            "reader sees {} events, generated {generated}",
            reader.total_events()
        )
    });
    post_reads(
        &mut rec,
        checks,
        &mut tr,
        &reader,
        &inp.read_keys,
        generated,
    );
    audit(&mut rec, checks, inp, &oracle, |k| reader.estimate(k));

    if let Some(ck) = &samples.ckpt_last {
        rec.set("checkpointer.compactions", ck.compactions as f64);
        rec.set("checkpointer.pruned_files", ck.pruned_files as f64);
        rec.extend(
            "checkpointer.compact_ms",
            samples.compact_ns.iter().map(|n| n / 1e6),
        );
        rec.extend("checkpointer.lag_events", samples.ckpt_lag.iter().copied());
    }
    if let Some(cks) = &report.checkpoints {
        let records = &cks.records;
        rec.set("checkpointer.frames", records.len() as f64);
        rec.set(
            "checkpointer.delta_frames",
            records
                .iter()
                .filter(|r| r.kind == CheckpointKind::Delta)
                .count() as f64,
        );
        rec.set(
            "checkpointer.bytes_written",
            records.iter().map(|r| r.bytes_len).sum::<u64>() as f64,
        );
        rec.extend(
            "checkpointer.write_ms",
            records.iter().map(|r| r.write_seconds * 1e3),
        );
    }

    if durable {
        rec.set(
            "disk_bytes_per_key",
            dir_bytes(&dir) as f64 / oracle.keys().max(1) as f64,
        );
        let (reopened, open_ns) = tr.time("store.open", || Store::open(&dir));
        match reopened {
            Ok(store) => {
                rec.set("recover_s", open_ns as f64 / 1e9);
                if let Some(r) = store.recovery() {
                    rec.set("store.open_frames_used", r.frames_used as f64);
                    rec.set("store.open_frames_skipped", r.frames_skipped as f64);
                    checks.check(
                        r.events == generated && r.keys as u64 == oracle.keys(),
                        || format!("reopened store holds {} events / {} keys", r.events, r.keys),
                    );
                }
                let reopened = store.reader();
                let differ = oracle
                    .touched()
                    .take(REOPEN_AUDIT_KEYS)
                    .map(|(i, _)| inp.keys.key_of(i))
                    .filter(|&k| reopened.estimate(k) != reader.estimate(k))
                    .count();
                checks.check(differ == 0, || {
                    format!("{differ} audited keys differ after reopen")
                });
                store.kill();
            }
            Err(e) => checks.check(false, || format!("Store::open failed: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    rec.trace.add(tr);
    rec
}

/// `uniform-read-write`: one open-loop writer at a fixed rate and one
/// closed-loop reader (estimates, refresh, merged estimates), then
/// `close()` and the audit.
pub fn read_write_round(ctx: &RoundCtx<'_>, checks: &mut Checks) -> Rec {
    let inp = ctx.inp;
    let traced = ctx.traced;
    let mut rec = Rec::default();
    let t0 = Instant::now();
    let mut tr = Tracer::new(traced, t0, 0);
    extra_setups(&mut rec, |_| {
        let start = Instant::now();
        let store = start_store(inp, None);
        let ns = start.elapsed().as_nanos() as u64;
        store.close().expect("empty store closes");
        ns
    });
    let (store, setup_ns) = tr.time("store.start", || start_store(inp, None));
    rec.extend("setup_s", [setup_ns as f64 / 1e9]);
    let mut reader = store.reader();
    let mut writer = store.writer();
    let slot = Arc::new(Mutex::new(Some(store)));
    let ctl = SamplerCtl::new();
    let stop_reader = AtomicBool::new(false);
    let deadline = tr.now() + ctx.round_ns;
    let drop_group = (ctx.inject_drop && ctx.round == 0).then_some(3);

    struct ReaderOut {
        visible: Vec<(u64, u64)>,
        read_ns: Vec<f64>,
        merge_us: Vec<f64>,
        /// `(estimate, exact)` of each merged estimate.
        merges: Vec<(Option<f64>, u64)>,
    }

    let (out, rout, samples, report, close_ns) = std::thread::scope(|s| {
        let src = Source {
            reader: reader.clone(),
            store: Some(Arc::clone(&slot)),
            replica: None,
        };
        let ctl_ref = &ctl;
        let sampler = s.spawn(move || {
            let mut str = Tracer::new(traced, t0, 1);
            (measure::sample(src, ctl_ref, &mut str), str)
        });
        let mut rreader = reader.clone();
        let stop = &stop_reader;
        let read_keys = &inp.read_keys;
        let reader_thread = s.spawn(move || {
            let mut rtr = Tracer::new(traced, t0, 3);
            let root = rtr.begin("gen.reader");
            let mut out = ReaderOut {
                visible: Vec::new(),
                read_ns: Vec::new(),
                merge_us: Vec::new(),
                merges: Vec::new(),
            };
            let mut last_total = u64::MAX;
            let mut next_merge = MERGE_EVERY_EVENTS;
            let mut pos = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let keys = &read_keys[pos..pos + READ_GROUP];
                pos = (pos + READ_GROUP) % read_keys.len();
                let r = &rreader;
                let ns = timed_estimates(&mut rtr, "snapshot.estimate", keys, 1, |k| r.estimate(k));
                out.read_ns.extend(ns);
                rtr.time("snapshot.refresh", || rreader.refresh());
                let total = rreader.total_events();
                if total != last_total {
                    out.visible.push((rtr.now(), total));
                    last_total = total;
                }
                if total >= next_merge {
                    next_merge = (total / MERGE_EVERY_EVENTS + 1) * MERGE_EVERY_EVENTS;
                    let (m, us) = timed_merge(&mut rtr, &rreader);
                    out.merge_us.push(us);
                    out.merges.push((m, total));
                }
            }
            rtr.end(root);
            (out, rtr)
        });
        let mut wtr = Tracer::new(traced, t0, 2);
        let mut out = open_loop(&mut writer, &inp.pools[0], deadline, &mut wtr, drop_group);
        if wtr.time("ingest.flush", || writer.flush()).0.is_err() {
            out.failures += 1;
        }
        drop(writer);
        rec.trace.add(wtr);
        stop_reader.store(true, Ordering::SeqCst);
        let (rout, rtr) = reader_thread.join().expect("reader thread");
        rec.trace.add(rtr);
        ctl.set_target(out.events);
        let store = slot
            .lock()
            .expect("store slot")
            .take()
            .expect("store still open");
        let (report, close_ns) = tr.time("store.close", || store.close().expect("store closes"));
        ctl.wait_full(SETTLE);
        ctl.stop();
        let (samples, str) = sampler.join().expect("sampler thread");
        rec.trace.add(str);
        (out, rout, samples, report, close_ns)
    });
    rec.set("close_s", close_ns as f64 / 1e9);

    let outs = [out];
    let oracle = oracle_of(inp, &outs);
    let generated = oracle.total();
    // A total is visible from the first time the reader or the sampler
    // saw it. The reader refreshes between estimate groups but not while
    // it merges, for milliseconds; the sampler's 1 ms polls cover those
    // gaps and the tail after the reader stopped.
    let mut visible: Vec<(u64, u64)> = rout
        .visible
        .iter()
        .chain(&samples.visible)
        .copied()
        .collect();
    visible.sort_unstable();
    let mut seen = 0;
    visible.retain(|&(_, total)| {
        let new = total > seen;
        seen = seen.max(total);
        new
    });
    ingest_metrics(
        &mut rec, checks, &outs, &samples, &report, &visible, &oracle,
    );
    rec.extend("gen.late_ms", outs[0].late_ns.iter().map(|n| n / 1e6));
    checks.ops(rout.read_ns.len() as u64);
    for &(m, exact) in &rout.merges {
        merge_check(&mut rec, checks, m, exact);
    }
    rec.extend("snapshot.estimate_ns", rout.read_ns);
    rec.extend("snapshot.merged_estimate_us", rout.merge_us);

    reader.refresh();
    checks.check(reader.total_events() == generated, || {
        format!(
            "reader sees {} events, generated {generated}",
            reader.total_events()
        )
    });
    audit(&mut rec, checks, inp, &oracle, |k| reader.estimate(k));
    rec.trace.add(tr);
    rec
}

/// `zipf-net`: a `StoreServer` with one `ReplicaNode`; one `NetWriter`
/// runs the closed loop, then the replica converges and one
/// `RemoteReader` issues a fixed RPC mix.
pub fn net_round(ctx: &RoundCtx<'_>, checks: &mut Checks) -> Rec {
    let inp = ctx.inp;
    let traced = ctx.traced;
    let mut rec = Rec::default();
    let t0 = Instant::now();
    let mut tr = Tracer::new(traced, t0, 0);
    extra_setups(&mut rec, |_| {
        let start = Instant::now();
        let (server, replica) = start_server(inp);
        let ns = start.elapsed().as_nanos() as u64;
        drop(replica);
        server.shutdown().expect("idle server shuts down");
        ns
    });
    let ((server, replica), setup_ns) = tr.time("server.start", || start_server(inp));
    rec.extend("setup_s", [setup_ns as f64 / 1e9]);
    let replica = Arc::new(replica);
    let client = StoreClient::new(server.local_addr(), server.identity()).expect("client");
    let mut writer = client
        .writer(WriterConfig::default())
        .expect("writer connects");
    let mut primary = server.reader();
    let ctl = SamplerCtl::new();
    let deadline = tr.now() + ctx.round_ns;
    let drop_group = (ctx.inject_drop && ctx.round == 0).then_some(3);

    let (out, samples) = std::thread::scope(|s| {
        let src = Source {
            reader: primary.clone(),
            store: None,
            replica: Some(Arc::clone(&replica)),
        };
        let ctl_ref = &ctl;
        let sampler = s.spawn(move || {
            let mut str = Tracer::new(traced, t0, 1);
            (measure::sample(src, ctl_ref, &mut str), str)
        });
        let mut wtr = Tracer::new(traced, t0, 2);
        let mut out = closed_loop(
            &mut writer,
            &inp.pools[0],
            NET_GROUP,
            deadline,
            &mut wtr,
            drop_group,
        );
        if wtr.time("client.close", || writer.close()).0.is_err() {
            out.failures += 1;
        }
        let close_end = wtr.now();
        rec.trace.add(wtr);
        ctl.set_target(out.events);
        ctl.wait_full(TIMEOUT);
        // Keep sampling fold times until the replica converges on what
        // the primary holds (the oracle checks that against the input).
        primary.refresh();
        let converged = replica.wait_for_events(primary.total_events(), TIMEOUT)
            && replica.wait_for_chain(server.tip_chain(), TIMEOUT);
        let lag_end = tr.now();
        ctl.stop();
        let (samples, str) = sampler.join().expect("sampler thread");
        rec.trace.add(str);
        checks.check(
            converged && replica.chain_digest() == server.tip_chain(),
            || {
                format!(
                    "replica digest {:#x} != primary tip {:#x} ({:?})",
                    replica.chain_digest(),
                    server.tip_chain(),
                    replica.failed()
                )
            },
        );
        rec.set(
            "replica_lag_ms",
            lag_end.saturating_sub(close_end) as f64 / 1e6,
        );
        (out, samples)
    });

    let outs = [out];
    let oracle = oracle_of(inp, &outs);
    let generated = oracle.total();
    rec.set("events", generated as f64);
    let sends = outs[0].sends.len() as u64;
    checks.ops(sends);
    checks.fail_ops(outs[0].failures, || {
        format!("{} remote sends refused", outs[0].failures)
    });
    let first = outs[0].first_ns;
    let last_send = outs[0].last_send_ns;
    let full_at = samples
        .visible
        .iter()
        .find(|&&(_, v)| v >= generated)
        .map(|&(t, _)| t);
    checks.check(full_at.is_some(), || {
        "the primary never saw the full total".into()
    });
    if let Some(full_at) = full_at {
        rec.window = (first, full_at);
        rec.set(
            "ingest_eps",
            generated as f64 / (full_at - first) as f64 * 1e9,
        );
        rec.set("applier.drain_tail_ms", (full_at - last_send) as f64 / 1e6);
    }
    let mut all = outs[0].sends.clone();
    let (delays, never) = measure::visibility_delays(&mut all, &samples.visible);
    checks.fail_ops(never, || {
        format!("{never} remote sends never became visible")
    });
    // The primary is an in-memory store: its catch-up is its readers'
    // mean staleness, as on zipf-mem. The replica's lag after close is
    // printed, not gated: it is bimodal (0.4 s or 1.5 s, by where the
    // fold chain was when the writer closed).
    let mean_ns = delays.iter().sum::<f64>() / delays.len().max(1) as f64;
    rec.set("catchup_ms", mean_ns / 1e6);
    rec.extend("visible_ms", delays.iter().map(|d| d / 1e6));
    // Backlog over the wire: events sent but not yet visible, at each
    // sample of the visible curve.
    let mut cum = 0u64;
    let mut si = 0usize;
    let sends_log = &outs[0].sends;
    let backlog: Vec<f64> = samples
        .visible
        .iter()
        .map(|&(t, v)| {
            while si < sends_log.len() && sends_log[si].0 <= t {
                cum += sends_log[si].1;
                si += 1;
            }
            cum.saturating_sub(v) as f64
        })
        .collect();
    rec.extend("applier.backlog_events", backlog);
    rec.set(
        "ingest.events_per_batch",
        generated as f64 / sends.max(1) as f64,
    );
    if samples.publish_window_ns > 0 {
        rec.set(
            "snapshot.publishes_per_s",
            samples.publishes as f64 / samples.publish_window_ns as f64 * 1e9,
        );
    }
    rec.set("replica.folds", replica.folds() as f64);
    rec.extend(
        "replica.fold_interval_ms",
        samples
            .fold_at_ns
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6),
    );

    primary.refresh();
    // The RPC mix, over one reader connection.
    match client.reader() {
        Ok(mut remote) => {
            let mut rpc_errors = 0u64;
            let mut pos = 0usize;
            for _ in 0..RPC_ESTIMATES {
                pos = (pos + 1) % inp.read_keys.len();
                let key = inp.read_keys[pos];
                let (r, ns) = tr.time("server.rpc_estimate", || remote.estimate(key));
                rec.extend("server.rpc_estimate_us", [ns as f64 / 1e3]);
                if !r.is_ok_and(|est| est == primary.estimate(key)) {
                    rpc_errors += 1;
                }
            }
            let (r, ns) = tr.time("server.rpc_merged_estimate", || remote.merged_estimate());
            rec.extend("server.rpc_merged_estimate_us", [ns as f64 / 1e3]);
            if r.is_err() {
                rpc_errors += 1;
            }
            merge_check(&mut rec, checks, r.ok(), generated);
            for _ in 0..RPC_STATS {
                let (r, ns) = tr.time("server.rpc_stats", || remote.stats());
                rec.extend("server.rpc_stats_us", [ns as f64 / 1e3]);
                if r.map_or(true, |(_, events)| events != generated) {
                    rpc_errors += 1;
                }
            }
            let tip = remote.repl_tip();
            checks.check(
                tip.as_ref().is_ok_and(|&t| t == replica.chain_digest()),
                || format!("remote repl tip {tip:?} != replica digest"),
            );
            remote.close();
            checks.ops((RPC_ESTIMATES + 1 + RPC_STATS) as u64);
            checks.fail_ops(rpc_errors, || {
                format!("{rpc_errors} RPCs failed or disagreed")
            });
        }
        Err(e) => checks.check(false, || format!("remote reader failed to connect: {e}")),
    }

    let rep = &replica;
    let est = timed_estimates(
        &mut tr,
        "replica.estimate",
        &inp.read_keys,
        POST_READ_GROUPS,
        |k| rep.estimate(k),
    );
    rec.extend("replica.estimate_ns", est);
    let differ = inp
        .read_keys
        .iter()
        .filter(|&&k| replica.estimate(k) != primary.estimate(k))
        .count();
    checks.check(differ == 0, || {
        format!("{differ} keys differ between replica and primary")
    });
    checks.check(primary.total_events() == generated, || {
        format!(
            "primary holds {} events, generated {generated}",
            primary.total_events()
        )
    });

    drop(Arc::try_unwrap(replica).map(|mut r| r.shutdown()));
    let (report, close_ns) = tr.time("server.shutdown", || server.shutdown());
    rec.set("close_s", close_ns as f64 / 1e9);
    match report {
        Ok(report) => {
            let stats = &report.stats;
            checks.check(
                stats.events == generated && stats.dropped_events == 0,
                || {
                    format!(
                        "server store applied {} events, generated {generated}",
                        stats.events
                    )
                },
            );
            rec.set(
                "bits_per_key",
                stats.state_bits_total as f64 / stats.keys.max(1) as f64,
            );
            rec.set("core.state_bits_total", stats.state_bits_total as f64);
            rec.set(
                "shard.max_keys_ratio",
                stats.max_shard_keys as f64 * stats.shards as f64 / stats.keys.max(1) as f64,
            );
        }
        Err(e) => checks.check(false, || format!("server shutdown failed: {e}")),
    }
    // The primary's reader outlives the server: its reads run after the
    // server's and the replica's threads have stopped, as on the other
    // workloads after `close()`.
    post_reads(
        &mut rec,
        checks,
        &mut tr,
        &primary,
        &inp.read_keys,
        generated,
    );
    audit(&mut rec, checks, inp, &oracle, |k| primary.estimate(k));
    rec.trace.add(tr);
    rec
}

/// The same pairs through `CounterEngine::apply` on one thread (no
/// rings, no applier): the single-threaded baseline, in events/s.
pub fn registry_apply_rate(inp: &Inputs) -> f64 {
    let template = SPEC.build().expect("spec builds");
    let mut engine = CounterEngine::new(
        template,
        EngineConfig::new()
            .with_shards(SHARDS)
            .with_seed(inp.store_seed),
    );
    let pairs: Vec<(u64, u64)> = inp.pools[0].keys.iter().map(|&k| (k, 1)).collect();
    let start = Instant::now();
    for chunk in pairs.chunks(STORE_GROUP) {
        engine.apply(chunk);
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(engine.total_events());
    pairs.len() as f64 / secs
}
