//! The two drains behind [`IngestQueue::drain_routed`] (one persistent
//! worker thread per shard) and [`IngestQueue::drain_into`] (the same
//! bursts, serially on the calling thread — the reference the threaded
//! drain is held to).
//!
//! ## Why not scoped-spawn per batch
//!
//! [`CounterEngine::apply_parallel`](crate::CounterEngine::apply_parallel)
//! spawns one scoped thread per touched shard *per batch* — fine for the
//! occasional large batch, ruinous at pipeline rates where a batch is a
//! few thousand pairs and spawn/join costs rival application. The
//! threaded drain spawns its workers once and ships work over channels.
//!
//! ## The burst protocol
//!
//! Producers already routed every pair into per-(producer, shard) lanes
//! at send time, so the drain thread is only a burst *coordinator*. Per
//! burst it:
//!
//! 1. snapshots the producer rings and fixes a **consistent cut** per
//!    producer — `min(committed, applied + burst_batches)`, where
//!    `committed` only ever covers fully-published batches,
//! 2. moves *every* shard out of the engine and ships it to its worker
//!    with the cut table; each worker pops its own lane set up to the
//!    cuts (producer-id order) and applies only if it drew work — an
//!    idle shard is never `make_mut` (which would copy-on-write-split a
//!    slab snapshots still share) and never stamped into the burst era,
//! 3. collects every reply, reinstalls the shards, hands the per-shard
//!    tap collections (shard order) to the tap, advances the applied
//!    marks to the cuts, and runs the burst hook.
//!
//! The serial drain runs step 2 shard by shard on the calling thread.
//! Between bursts the engine is whole and quiescent, so hooks can freeze
//! snapshots. Workers perform the copy-on-write `Arc::make_mut` split
//! themselves, in parallel.
//!
//! Determinism: both drains preserve each producer's batch order per
//! shard, and each shard consumes only its own RNG stream — so both are
//! bit-identical to `engine.apply` on a single producer's stream, and to
//! each other (with several producers the interleaving is
//! scheduling-dependent in either).

use crate::ingest::{IngestQueue, LaneBatch, PairTap, ProducerRing};
use crate::registry::CounterEngine;
use crate::shard::Shard;
use ac_core::ApproxCounter;
use std::sync::mpsc;
use std::sync::Arc;

/// One burst's consistent cut: each producer ring with the highest
/// sequence number the burst drains from it.
type Cuts = Arc<Vec<(Arc<ProducerRing>, u64)>>;

/// A consistent cut per producer: only fully-published batches
/// (committed is stored after every lane slice of the batch), at most
/// `burst_batches` new ones.
fn cut_burst(rings: &[Arc<ProducerRing>], burst_batches: u64) -> Cuts {
    Arc::new(
        rings
            .iter()
            .map(|ring| {
                let cut = ring
                    .committed()
                    .min(ring.applied().saturating_add(burst_batches));
                (Arc::clone(ring), cut)
            })
            .collect(),
    )
}

/// Pops shard `slot`'s lanes up to the cuts (producer-id order) and
/// applies them, returning the events applied and — when `collect` — the
/// applied pairs for the tap.
fn apply_lanes<C: ApproxCounter + Clone>(
    queue: &IngestQueue,
    shard: &mut Arc<Shard<C>>,
    slot: usize,
    epoch: u64,
    cuts: &[(Arc<ProducerRing>, u64)],
    template: &C,
    collect: bool,
) -> (u64, Vec<(u64, u64)>) {
    let mut batches: Vec<LaneBatch> = Vec::new();
    for (ring, cut) in cuts {
        let lane = ring.lane(slot);
        while let Some(batch) = lane.pop_if(|b| b.seq <= *cut) {
            queue.notify_space();
            batches.push(batch);
        }
    }
    let mut events = 0u64;
    let mut tapped: Vec<(u64, u64)> = Vec::new();
    if !batches.is_empty() {
        // Only a shard that drew work joins the burst era: make_mut on an
        // idle shard would copy-on-write-split slabs that live snapshots
        // still share, and touch would mis-stamp its dirty epoch.
        let s = Arc::make_mut(shard);
        s.touch(epoch);
        for batch in &mut batches {
            events += batch.pairs.iter().map(|&(_, delta)| delta).sum::<u64>();
            s.apply_pairs(template, &batch.pairs);
            if collect {
                tapped.append(&mut batch.pairs);
            }
        }
    }
    (events, tapped)
}

/// Advances every producer's applied mark to its cut and counts the
/// burst's events.
fn finish_burst(queue: &IngestQueue, cuts: &[(Arc<ProducerRing>, u64)], events: u64) {
    for (ring, cut) in cuts {
        ring.note_applied_seq(*cut);
    }
    queue.note_applied_events(events);
}

fn assert_same_partition<C: ApproxCounter + Clone>(queue: &IngestQueue, engine: &CounterEngine<C>) {
    assert_eq!(
        queue.router(),
        engine.router(),
        "ingest queue and engine disagree on the key-to-shard partition"
    );
}

/// The drain loop behind [`IngestQueue::drain_into`].
pub(crate) fn drain_serial<C: ApproxCounter + Clone>(
    queue: &IngestQueue,
    engine: &mut CounterEngine<C>,
) -> u64 {
    assert_same_partition(queue, engine);
    let burst_batches = queue.config().burst_batches as u64;
    let mut applied = 0u64;
    while let Some(rings) = queue.next_burst() {
        let cuts = cut_burst(&rings, burst_batches);
        let epoch = engine.epoch();
        let mut burst_events = 0u64;
        for slot in 0..engine.shards().len() {
            let mut shard = engine.take_shard(slot);
            let (events, _) = apply_lanes(
                queue,
                &mut shard,
                slot,
                epoch,
                &cuts,
                engine.template(),
                false,
            );
            engine.put_shard(slot, shard);
            burst_events += events;
        }
        finish_burst(queue, &cuts, burst_events);
        applied += burst_events;
    }
    applied
}

/// One burst's unit of work for a shard worker: the shard (moved out of
/// the engine for the burst), the epoch to stamp, and the per-producer
/// sequence cuts bounding the lane sweep.
struct LaneJob<C> {
    slot: usize,
    shard: Arc<Shard<C>>,
    epoch: u64,
    cuts: Cuts,
}

/// A lane worker's reply: the shard back, the events it applied this
/// burst, and (when collecting) the applied pairs for the tap.
struct LaneDone<C> {
    slot: usize,
    shard: Arc<Shard<C>>,
    events: u64,
    tapped: Vec<(u64, u64)>,
}

fn lane_worker<C: ApproxCounter + Clone>(
    queue: IngestQueue,
    jobs: mpsc::Receiver<LaneJob<C>>,
    done: mpsc::Sender<LaneDone<C>>,
    template: C,
    collect: bool,
) {
    while let Ok(LaneJob {
        slot,
        mut shard,
        epoch,
        cuts,
    }) = jobs.recv()
    {
        let (events, tapped) =
            apply_lanes(&queue, &mut shard, slot, epoch, &cuts, &template, collect);
        if done
            .send(LaneDone {
                slot,
                shard,
                events,
                tapped,
            })
            .is_err()
        {
            return;
        }
    }
}

/// The drain loop behind [`IngestQueue::drain_routed`]. See the module
/// docs for the burst protocol; a `tap` turns on per-shard pair
/// collection.
pub(crate) fn drain_threaded<C, F>(
    queue: &IngestQueue,
    engine: &mut CounterEngine<C>,
    mut tap: Option<PairTap<'_>>,
    mut hook: F,
) -> u64
where
    C: ApproxCounter + Clone + Send + Sync,
    F: FnMut(&mut CounterEngine<C>, u64),
{
    assert_same_partition(queue, engine);
    let shards = engine.shards().len();
    let collect = tap.is_some();
    let burst_batches = queue.config().burst_batches as u64;
    let template = engine.template().clone();
    let mut applied = 0u64;

    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<LaneDone<C>>();
        let job_txs: Vec<mpsc::Sender<LaneJob<C>>> = (0..shards)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<LaneJob<C>>();
                let done = done_tx.clone();
                let template = template.clone();
                let queue = queue.clone();
                scope.spawn(move || lane_worker(queue, rx, done, template, collect));
                tx
            })
            .collect();
        drop(done_tx);

        while let Some(rings) = queue.next_burst() {
            // Tiny-burst pacing: the coordinator does no per-pair work,
            // so left alone it outruns the producers and degenerates into
            // one full worker barrier per freshly-committed batch. Yield
            // scheduling slots to the producers while the backlog is
            // still growing toward a full burst; stop as soon as a yield
            // buys no new batches, so an idle or slow stream never stalls
            // the burst hooks.
            let backlog = |rings: &[Arc<ProducerRing>]| -> u64 {
                rings
                    .iter()
                    .map(|r| r.committed().saturating_sub(r.applied()))
                    .sum()
            };
            let burst_target = burst_batches.saturating_mul(rings.len() as u64);
            let mut pending = backlog(&rings);
            for _ in 0..64 {
                if pending >= burst_target {
                    break;
                }
                std::thread::yield_now();
                let now = backlog(&rings);
                if now == pending {
                    break;
                }
                pending = now;
            }
            let cuts = cut_burst(&rings, burst_batches);
            let epoch = engine.epoch();
            for (slot, tx) in job_txs.iter().enumerate() {
                tx.send(LaneJob {
                    slot,
                    shard: engine.take_shard(slot),
                    epoch,
                    cuts: Arc::clone(&cuts),
                })
                .expect("lane worker alive");
            }

            let mut dones: Vec<LaneDone<C>> = (0..shards)
                .map(|_| done_rx.recv().expect("lane worker reply"))
                .collect();
            dones.sort_unstable_by_key(|d| d.slot);
            let mut burst_events = 0u64;
            for done in dones {
                engine.put_shard(done.slot, done.shard);
                burst_events += done.events;
                if let Some(tap) = tap.as_mut() {
                    if !done.tapped.is_empty() {
                        tap(&done.tapped);
                    }
                }
            }
            finish_burst(queue, &cuts, burst_events);
            applied += burst_events;
            hook(engine, applied);
        }
        drop(job_txs);
    });
    applied
}
