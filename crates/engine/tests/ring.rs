//! Ingest guarantees, proven under real concurrency:
//!
//! * **per-producer FIFO, gapless, exactly-once** — a tap watching the
//!   applied stream of a 1-shard queue sees every producer's batches
//!   arrive in sequence order with no gap and no repeat, and each
//!   burst's applied marks match the last payload it delivered;
//! * **no loss under stress** — many producers hammering tiny lanes
//!   through the lossless `Block` policy conserve every event into the
//!   engine, through both drains, for all five counter families built
//!   via [`CounterSpec`];
//! * **bit-identical durability** — the threaded routed drain, the serial
//!   `drain_into`, and `CounterEngine::apply` on the flattened stream
//!   produce identical checkpoint *bytes* (property test).

use ac_core::CounterSpec;
use ac_engine::{
    checkpoint_snapshot, BackpressurePolicy, CounterEngine, EngineConfig, IngestConfig, IngestQueue,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::thread;

fn all_specs() -> [CounterSpec; 5] {
    [
        CounterSpec::Exact,
        CounterSpec::Morris { a: 0.5 },
        CounterSpec::MorrisPlus {
            eps: 0.2,
            delta_log2: 6,
        },
        CounterSpec::NelsonYu {
            eps: 0.2,
            delta_log2: 6,
        },
        CounterSpec::Csuros { mantissa_bits: 4 },
    ]
}

/// A tap on a 1-shard queue sees every applied batch's pairs, in lane
/// order, which proves the ordering contract directly: each batch carries
/// one pair derived from `(producer, seq)`, so for every producer the
/// payloads must arrive strictly `1, 2, 3, …` (FIFO and gapless — a
/// reorder, loss, or duplicate anywhere in the lane path would break the
/// chain), and at every burst boundary the producer's applied mark must
/// equal the last sequence number its payloads delivered. Violations are
/// recorded and asserted after the drain, so a broken stream fails the
/// test instead of leaving producers parked on full lanes.
#[test]
fn per_producer_streams_arrive_fifo_gapless_exactly_once() {
    const PRODUCERS: u64 = 3;
    const BATCHES: u64 = 400;

    let mut engine = CounterEngine::new(
        CounterSpec::Exact.build().expect("valid spec"),
        EngineConfig::new().with_shards(1),
    );
    // Tiny lanes force constant wraparound and producer parking.
    let queue = IngestQueue::new(
        IngestConfig::new()
            .with_ring_batches(4)
            .with_batch_pairs(1_024)
            .with_policy(BackpressurePolicy::Block),
        engine.router(),
    );

    // producer -> payload sequence numbers, in arrival order.
    let arrivals: RefCell<HashMap<u64, Vec<u64>>> = RefCell::new(HashMap::new());
    let mut mangled = 0u64;
    let mut mark_mismatches: Vec<(u64, u64, u64)> = Vec::new();
    thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..PRODUCERS {
            let mut prod = queue.producer();
            handles.push(s.spawn(move || {
                let id = prod.id();
                for seq in 1..=BATCHES {
                    // One pair per batch, derived from (id, seq): the
                    // tap can verify the payload belongs to the sequence
                    // number, not just its position.
                    prod.record(id * 1_000_000 + seq, seq);
                    prod.send().expect("queue open");
                }
            }));
        }
        s.spawn(|| {
            for h in handles {
                h.join().expect("producer");
            }
            queue.close();
        });

        let mut tap = |pairs: &[(u64, u64)]| {
            let mut arrivals = arrivals.borrow_mut();
            for &(key, seq) in pairs {
                let producer = key / 1_000_000;
                if key != producer * 1_000_000 + seq {
                    mangled += 1;
                }
                arrivals.entry(producer).or_default().push(seq);
            }
        };
        queue.drain_routed(&mut engine, Some(&mut tap), |_, _| {
            let arrivals = arrivals.borrow();
            for mark in queue.applied_marks() {
                let delivered = arrivals
                    .get(&mark.producer)
                    .and_then(|seqs| seqs.last().copied())
                    .unwrap_or(0);
                if mark.applied_seq != delivered {
                    mark_mismatches.push((mark.producer, mark.applied_seq, delivered));
                }
            }
        });
    });

    assert_eq!(mangled, 0, "payload does not match its sequence stamp");
    assert!(
        mark_mismatches.is_empty(),
        "applied marks disagree with delivered payloads (producer, mark, delivered): \
         {mark_mismatches:?}"
    );
    let arrivals = arrivals.into_inner();
    assert_eq!(arrivals.len() as u64, PRODUCERS, "a producer never arrived");
    let expected: Vec<u64> = (1..=BATCHES).collect();
    for (producer, seqs) in &arrivals {
        assert_eq!(
            seqs, &expected,
            "producer {producer} stream has a gap, repeat, reorder, or truncation"
        );
    }
}

/// Concurrent multi-producer stress through the serial drain, one run
/// per counter family: under `Block` nothing may be lost, whatever
/// family the shards hold — `total_events` counts applied deltas
/// exactly even when the counters themselves are approximate.
#[test]
fn lossless_stress_conserves_events_for_all_five_families() {
    const PRODUCERS: u64 = 4;
    const RECORDS: u64 = 2_000;

    for spec in all_specs() {
        let family = spec.build().expect("valid spec");
        let mut engine =
            CounterEngine::new(family, EngineConfig::new().with_shards(4).with_seed(9));
        let queue = IngestQueue::new(
            IngestConfig::new()
                .with_ring_batches(2)
                .with_batch_pairs(8)
                .with_policy(BackpressurePolicy::Block),
            engine.router(),
        );

        let mut expected = 0u64;
        for p in 0..PRODUCERS {
            for i in 0..RECORDS {
                expected += 1 + (p + i) % 7;
            }
        }

        let applied = thread::scope(|s| {
            let mut handles = Vec::new();
            for p in 0..PRODUCERS {
                let mut prod = queue.producer();
                handles.push(s.spawn(move || {
                    for i in 0..RECORDS {
                        prod.record(i % 61, 1 + (p + i) % 7);
                    }
                    prod.send().expect("queue open");
                }));
            }
            s.spawn(|| {
                for h in handles {
                    h.join().expect("producer");
                }
                queue.close();
            });
            queue.drain_into(&mut engine)
        });

        assert_eq!(applied, expected, "{spec:?}: drain undercounted");
        assert_eq!(
            engine.total_events(),
            expected,
            "{spec:?}: events lost in the lane path"
        );
        let stats = queue.stats();
        assert_eq!(stats.dropped_events, 0, "{spec:?}: Block must be lossless");
        for mark in &stats.producers {
            assert_eq!(
                mark.applied_seq, mark.enqueued_seq,
                "{spec:?}: producer {} not fully applied",
                mark.producer
            );
        }
    }
}

/// The stream `IngestProducer::record` hands the lanes, flattened:
/// repeat keys coalesce within a batch in first-touch order, and a batch
/// closes once it holds `batch_pairs` distinct keys.
fn coalesce(events: &[(u64, u64)], batch_pairs: usize) -> Vec<(u64, u64)> {
    let mut flat = Vec::new();
    let mut batch: Vec<(u64, u64)> = Vec::new();
    for &(key, delta) in events {
        match batch.iter_mut().find(|pair| pair.0 == key) {
            Some(pair) => pair.1 += delta,
            None => batch.push((key, delta)),
        }
        if batch.len() == batch_pairs {
            flat.append(&mut batch);
        }
    }
    flat.append(&mut batch);
    flat
}

/// One engine fed `events` by a single producer through a fresh queue
/// with `burst_batches`, emptied by `drain` after close.
fn drain_with(
    spec: CounterSpec,
    seed: u64,
    events: &[(u64, u64)],
    burst_batches: usize,
    drain: impl FnOnce(&IngestQueue, &mut CounterEngine<ac_core::CounterFamily>),
) -> CounterEngine<ac_core::CounterFamily> {
    let mut engine = CounterEngine::new(
        spec.build().expect("valid spec"),
        EngineConfig::new().with_shards(4).with_seed(seed),
    );
    let queue = IngestQueue::new(
        IngestConfig::new()
            .with_ring_batches(256)
            .with_batch_pairs(16)
            .with_burst_batches(burst_batches),
        engine.router(),
    );
    let mut prod = queue.producer();
    for &(key, delta) in events {
        prod.record(key, delta);
    }
    drop(prod);
    queue.close();
    drain(&queue, &mut engine);
    engine
}

proptest! {
    /// The ingest layer's durability contract against the legacy-queue
    /// baseline: a single FIFO of coalesced batches applied in arrival
    /// order, which is `apply` on the flattened coalesced stream. The
    /// lanes emptied by the serial `drain_into` must give the same
    /// checkpoint *bytes*. Same single-producer stream, one engine each,
    /// same seed — identical frames, for every family.
    #[test]
    fn ring_ingest_checkpoints_bit_identical_to_legacy_queue(
        seed in 0u64..1_000,
        spec_idx in 0usize..5,
        events in proptest::collection::vec((0u64..200u64, 1u64..50u64), 1..300),
    ) {
        let spec = all_specs()[spec_idx];
        let mut serial = drain_with(spec, seed, &events, 64, |q, engine| {
            q.drain_into(engine);
        });
        let mut legacy = CounterEngine::new(
            spec.build().expect("valid spec"),
            EngineConfig::new().with_shards(4).with_seed(seed),
        );
        legacy.apply(&coalesce(&events, 16));

        let expected: u64 = events.iter().map(|&(_, d)| d).sum();
        prop_assert_eq!(serial.total_events(), expected);
        prop_assert_eq!(legacy.total_events(), expected);
        let a = checkpoint_snapshot(&legacy.snapshot());
        let b = checkpoint_snapshot(&serial.snapshot());
        prop_assert_eq!(
            a.bytes(),
            b.bytes(),
            "serial drain checkpoint bytes diverged from in-order apply for {:?}",
            spec
        );
    }

    /// Routing on the send side (per-(producer, shard) lanes emptied by
    /// the threaded routed drain, in bursts of any size) must not move the
    /// checkpoint *bytes* against the single-threaded baseline that drains
    /// the same lanes one batch at a time (`drain_into`, the pooled
    /// drain's stand-in). Same single-producer stream, one engine each,
    /// same seed — identical frames, for every family.
    #[test]
    fn routed_ingest_checkpoints_bit_identical_to_pooled(
        seed in 0u64..1_000,
        spec_idx in 0usize..5,
        burst in 1usize..8,
        events in proptest::collection::vec((0u64..200u64, 1u64..50u64), 1..300),
    ) {
        let spec = all_specs()[spec_idx];
        let mut routed = drain_with(spec, seed, &events, burst, |q, engine| {
            q.drain_routed(engine, None, |_, _| {});
        });
        let mut serial = drain_with(spec, seed, &events, 64, |q, engine| {
            q.drain_into(engine);
        });

        let expected: u64 = events.iter().map(|&(_, d)| d).sum();
        prop_assert_eq!(routed.total_events(), expected);
        prop_assert_eq!(serial.total_events(), expected);
        let a = checkpoint_snapshot(&serial.snapshot());
        let b = checkpoint_snapshot(&routed.snapshot());
        prop_assert_eq!(
            a.bytes(),
            b.bytes(),
            "routed drain checkpoint bytes diverged from serial for {:?}",
            spec
        );
    }
}

/// The threaded twin of the serial stress test: many producers hammering
/// tiny per-shard lanes through `Block` must still conserve every event,
/// for all five families, with every producer's applied mark caught up.
#[test]
fn routed_lossless_stress_conserves_events_for_all_five_families() {
    const PRODUCERS: u64 = 4;
    const RECORDS: u64 = 2_000;

    for spec in all_specs() {
        let family = spec.build().expect("valid spec");
        let mut engine =
            CounterEngine::new(family, EngineConfig::new().with_shards(4).with_seed(9));
        let queue = IngestQueue::new(
            IngestConfig::new()
                .with_ring_batches(2)
                .with_batch_pairs(8)
                .with_policy(BackpressurePolicy::Block),
            engine.router(),
        );

        let mut expected = 0u64;
        for p in 0..PRODUCERS {
            for i in 0..RECORDS {
                expected += 1 + (p + i) % 7;
            }
        }

        let applied = thread::scope(|s| {
            let mut handles = Vec::new();
            for p in 0..PRODUCERS {
                let mut prod = queue.producer();
                handles.push(s.spawn(move || {
                    for i in 0..RECORDS {
                        prod.record(i % 61, 1 + (p + i) % 7);
                    }
                    prod.send().expect("queue open");
                }));
            }
            s.spawn(|| {
                for h in handles {
                    h.join().expect("producer");
                }
                queue.close();
            });
            queue.drain_routed(&mut engine, None, |_, _| {})
        });

        assert_eq!(applied, expected, "{spec:?}: routed drain undercounted");
        assert_eq!(
            engine.total_events(),
            expected,
            "{spec:?}: events lost in the routed lane path"
        );
        let stats = queue.stats();
        assert_eq!(stats.dropped_events, 0, "{spec:?}: Block must be lossless");
        for mark in &stats.producers {
            assert_eq!(
                mark.applied_seq, mark.enqueued_seq,
                "{spec:?}: producer {} not fully applied",
                mark.producer
            );
        }
    }
}

/// `Fail` under per-shard lane backpressure: a batch is refused
/// all-or-nothing when *any* of its destination lanes is full, the
/// refusal hands back the batch with pairs in their original first-touch
/// order, and the producer's speculative sequence mark rolls back
/// exactly — a later resubmit reuses the same sequence number, so once a
/// drain starts, totals are conserved with nothing dropped.
#[test]
fn routed_fail_policy_rolls_back_and_conserves_under_lane_backpressure() {
    let mut engine = CounterEngine::new(
        CounterSpec::Exact.build().expect("valid spec"),
        EngineConfig::new().with_shards(4).with_seed(3),
    );
    let router = engine.router();
    // Two keys on one shard, one key on a different shard: enough to
    // build a cross-lane batch whose refusal must be all-or-nothing.
    let same_shard: Vec<u64> = (0..1_000u64)
        .filter(|&k| router.shard_of(k) == router.shard_of(0))
        .take(2)
        .collect();
    let other = (0..1_000u64)
        .find(|&k| router.shard_of(k) != router.shard_of(0))
        .expect("4 shards hold more than one lane");

    let queue = IngestQueue::new(
        IngestConfig::new()
            .with_ring_batches(1) // one-slot lanes
            .with_batch_pairs(4)
            .with_policy(BackpressurePolicy::Fail),
        router,
    );
    let mut prod = queue.producer();

    // Fill shard-0's lane (no drain running yet).
    prod.record(same_shard[0], 5);
    prod.try_send().expect("first batch fits the empty lane");
    assert_eq!(prod.last_seq(), 1);

    // A batch straddling a full lane and an empty one: refused whole.
    prod.record(other, 7);
    prod.record(same_shard[1], 9);
    prod.record(other, 4); // coalesces with the first `other` pair
    let err = prod.try_send().expect_err("shard-0 lane is full");
    assert!(err.is_full());
    let batch = err.into_batch();
    assert_eq!(
        batch.pairs,
        vec![(other, 11), (same_shard[1], 9)],
        "refusal hands back the batch in first-touch order"
    );
    assert_eq!(batch.seq, 2, "the refused sequence number was reserved");
    let mark = &queue.stats().producers[0];
    assert_eq!(
        mark.enqueued_seq, 1,
        "speculative mark rolled back exactly on refusal"
    );

    // With a drain running the held batch eventually lands — same seq,
    // nothing dropped, empty-lane pairs never applied twice.
    thread::scope(|s| {
        s.spawn(|| {
            let mut held = Some(batch);
            while let Some(b) = held.take() {
                match prod.resubmit(b) {
                    Ok(()) => break,
                    Err(e) => {
                        assert!(e.is_full(), "only Full is acceptable while open");
                        held = Some(e.into_batch());
                        thread::yield_now();
                    }
                }
            }
            assert_eq!(prod.last_seq(), 2, "resubmit reused the rolled-back seq");
            queue.close();
        });
        queue.drain_routed(&mut engine, None, |_, _| {});
    });

    assert_eq!(
        engine.total_events(),
        5 + 11 + 9,
        "every event applied once"
    );
    let stats = queue.stats();
    assert_eq!(stats.dropped_events, 0, "Fail never drops silently");
    assert_eq!(stats.producers[0].applied_seq, 2);
    assert_eq!(stats.producers[0].enqueued_seq, 2);
}
