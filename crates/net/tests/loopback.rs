//! Loopback integration: exactly-once ingest over TCP, epoch-pinned
//! read RPCs, identity-checked handshakes, and delta-checkpoint
//! replication converging to the primary's chain digests.

use ac_core::{ApproxCounter, CounterFamily, CounterSpec, TierPolicy};
use ac_engine::{checkpoint, read_header, CheckpointKind, IngestConfig, Store};
use ac_net::wire::NEW_PRODUCER;
use ac_net::{
    Frame, FrameConn, Identity, NetError, RefuseCode, ReplicaNode, Role, ServerConfig, StoreClient,
    StoreServer, WriterConfig, PROTO_VERSION,
};
use std::net::TcpStream;
use std::time::Duration;

fn ny_spec() -> CounterSpec {
    CounterSpec::NelsonYu {
        eps: 0.2,
        delta_log2: 8,
    }
}

fn start_server(spec: CounterSpec, seed: u64) -> StoreServer {
    let store = Store::builder(spec)
        .with_shards(4)
        .with_seed(seed)
        .with_ingest(IngestConfig::new().with_batch_pairs(256))
        // Publish a read replica at every batch boundary so RPCs and
        // the replication cutter see progress without close().
        .with_snapshot_every_events(1)
        .start()
        .expect("store starts");
    StoreServer::start_with(
        store,
        "127.0.0.1:0",
        ServerConfig {
            cut_poll: Duration::from_millis(2),
            max_chain_segments: 4,
        },
    )
    .expect("server starts")
}

fn hello(identity: &Identity, role: Role, producer: u64) -> Frame {
    Frame::Hello {
        proto: PROTO_VERSION,
        role,
        fingerprint: identity.fingerprint(),
        identity: identity.clone(),
        producer,
        acked_chain: 0,
    }
}

fn dial(server: &StoreServer) -> FrameConn {
    FrameConn::new(TcpStream::connect(server.local_addr()).expect("connect")).expect("frame conn")
}

#[test]
fn writers_readers_and_replicas_agree_over_loopback() {
    let server = start_server(ny_spec(), 99);
    let identity = server.identity();
    let client = StoreClient::new(server.local_addr(), identity.clone()).expect("client");

    let replica_a = ReplicaNode::connect(server.local_addr(), identity.clone()).expect("replica a");
    let replica_b = ReplicaNode::connect(server.local_addr(), identity.clone()).expect("replica b");

    // Three remote writers, each its own producer, concurrently.
    let mut expected = 0u64;
    let handles: Vec<_> = (0..3u64)
        .map(|w| {
            let client = client.clone();
            std::thread::spawn(move || {
                let mut writer = client.writer(WriterConfig::default()).expect("writer");
                for round in 0..40u64 {
                    for key in 0..25u64 {
                        writer.record(w * 1_000 + key, 1 + (round + key) % 5);
                    }
                }
                writer.close().expect("clean close");
            })
        })
        .collect();
    for w in 0..3u64 {
        for round in 0..40u64 {
            for key in 0..25u64 {
                let _ = w;
                expected += 1 + (round + key) % 5;
            }
        }
    }
    for h in handles {
        h.join().expect("writer thread");
    }

    // Read RPCs see the exact totals once the pipeline drains.
    let mut remote = client.reader().expect("reader");
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while remote.total_events().expect("total") < expected {
        assert!(
            std::time::Instant::now() < deadline,
            "pipeline never drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(remote.total_events().expect("total"), expected);
    assert_eq!(remote.len().expect("len"), 75);
    assert_eq!(remote.stats().expect("stats"), (75, expected));

    // The merged aggregate is within the NelsonYu (eps, delta) band.
    let merged = remote.merged_estimate().expect("merged estimate");
    let rel = (merged - expected as f64).abs() / expected as f64;
    assert!(rel < 0.2, "merged estimate off by {rel}");

    // Per-key reads agree with the in-process reader at the same epoch.
    let local = server.reader();
    let key = 1_007;
    assert_eq!(
        remote.estimate(key).expect("estimate"),
        local.estimate(key),
        "remote and local estimates diverge"
    );
    assert!(remote.estimate(999_999).expect("estimate").is_none());

    // Replicas fold the delta stream to the primary's exact digest and
    // serve the same totals.
    assert!(
        replica_a.wait_for_events(expected, Duration::from_secs(20)),
        "replica a never converged: {:?}",
        replica_a.failed()
    );
    assert!(
        replica_b.wait_for_events(expected, Duration::from_secs(20)),
        "replica b never converged: {:?}",
        replica_b.failed()
    );
    let tip = server.tip_chain();
    assert_ne!(tip, 0, "primary cut no chain");
    assert!(
        replica_a.wait_for_chain(tip, Duration::from_secs(20)),
        "replica a digest {} != primary tip {tip}",
        replica_a.chain_digest()
    );
    assert!(
        replica_b.wait_for_chain(tip, Duration::from_secs(20)),
        "replica b digest {} != primary tip {tip}",
        replica_b.chain_digest()
    );
    assert_eq!(replica_a.total_events(), expected);
    assert_eq!(replica_b.total_events(), expected);
    assert_eq!(replica_a.len(), 75);
    let merged_a = replica_a.merged_estimate().expect("replica merge");
    let merged_b = replica_b.merged_estimate().expect("replica merge");
    assert_eq!(merged_a, merged_b, "replicas at one digest must agree");
    let rel_a = (merged_a - expected as f64).abs() / expected as f64;
    assert!(rel_a < 0.2, "replica estimate off by {rel_a}");

    drop(replica_a);
    drop(replica_b);
    let report = server.shutdown().expect("shutdown");
    assert_eq!(report.stats.events, expected);
}

/// A primary reader, the remote reader, a replica pinned to one digest
/// and the store reopened from its directory give the same merged
/// estimate, to the bit, with no seed passed to any of them. The replica
/// restores its shards in key order while the primary's slabs fill in
/// arrival order; the estimate is a sum of per-key counts, so neither
/// order matters. A short exact epoch makes a Zipf stream push a few
/// dozen keys out of it, so the merged total's ε band is checked on
/// sampled counts, not only exact ones.
#[test]
fn primary_replica_and_reopened_store_give_equal_merged_estimates() {
    let spec = CounterSpec::NelsonYu {
        eps: 0.3,
        delta_log2: 2,
    };
    let dir = std::env::temp_dir().join(format!("ac-net-loopback-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::builder(spec)
        .with_shards(4)
        .with_seed(17)
        .with_ingest(IngestConfig::new().with_batch_pairs(256))
        .with_snapshot_every_events(1)
        .with_durability(&dir)
        .start()
        .expect("store starts");
    let server = StoreServer::start_with(
        store,
        "127.0.0.1:0",
        ServerConfig {
            cut_poll: Duration::from_millis(2),
            max_chain_segments: 4,
        },
    )
    .expect("server starts");
    let identity = server.identity();
    let replica = ReplicaNode::connect(server.local_addr(), identity.clone()).expect("replica");
    let client = StoreClient::new(server.local_addr(), identity).expect("client");
    let mut writer = client.writer(WriterConfig::default()).expect("writer");
    let zipf = ac_randkit::Zipf::new(20_000, 1.1).expect("zipf");
    let mut rng = ac_randkit::Xoshiro256PlusPlus::seed_from_u64(17);
    let events = 60_000u64;
    for _ in 0..events {
        writer.record(ac_randkit::mix64(zipf.sample(&mut rng)), 1);
    }
    writer.close().expect("clean close");

    assert!(
        replica.wait_for_events(events, Duration::from_secs(30)),
        "replica never converged: {:?}",
        replica.failed()
    );
    let tip = server.tip_chain();
    assert!(
        replica.wait_for_chain(tip, Duration::from_secs(30)),
        "replica digest {} != primary tip {tip}",
        replica.chain_digest()
    );
    let reader = server.reader();
    assert_eq!(reader.total_events(), events);
    assert_eq!(reader.epoch(), replica.epoch(), "pinned to one freeze");
    let sampled = reader
        .snapshot()
        .iter()
        .filter(|(_, c)| c.exact_count().is_none())
        .count();
    assert!(sampled >= 10, "only {sampled} sampled keys");
    let merged = reader.merged_estimate().expect("primary merge");
    // With sampled keys in the sum, the band check sees the estimator:
    // the merged total stays within the spec's ε of the true count.
    let rel = (merged - events as f64).abs() / events as f64;
    assert!(
        rel <= 0.3,
        "merged estimate {merged} off by {rel} of {events}"
    );
    assert_eq!(merged, replica.merged_estimate().expect("replica merge"));
    let mut remote = client.reader().expect("remote reader");
    assert_eq!(merged, remote.merged_estimate().expect("remote merge"));
    drop(remote);
    drop(replica);
    server.shutdown().expect("shutdown");

    let reopened = Store::open(&dir).expect("reopen");
    let again = reopened.reader();
    assert_eq!(again.total_events(), events);
    assert_eq!(merged, again.merged_estimate().expect("reopened merge"));
    reopened.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A default-ladder store serves the `MergedEstimate` RPC once its hot
/// keys sit on the Nelson–Yu rung past the exact epoch: one merged
/// counter cannot hold Morris and Nelson–Yu keys together, but the sum
/// of per-key counts crosses tiers.
#[test]
fn tiered_store_serves_the_merged_estimate_rpc() {
    let store = Store::builder(CounterSpec::Morris { a: 1.0 })
        .with_shards(4)
        .with_seed(3)
        .with_ingest(IngestConfig::new().with_batch_pairs(256))
        .with_snapshot_every_events(2_000)
        .with_tiering(TierPolicy::default_ladder(), 1 << 20)
        .start()
        .expect("store starts");
    let server = StoreServer::start_with(
        store,
        "127.0.0.1:0",
        ServerConfig {
            cut_poll: Duration::from_millis(2),
            max_chain_segments: 4,
        },
    )
    .expect("server starts");
    let client = StoreClient::new(server.local_addr(), server.identity()).expect("client");
    let mut writer = client.writer(WriterConfig::default()).expect("writer");
    let mut total = 0u64;
    for round in 0..40u64 {
        for hot in 0..4u64 {
            writer.record(hot, 500);
        }
        for key in 0..50u64 {
            writer.record(1_000 + key + 50 * round, 2);
        }
        total += 4 * 500 + 50 * 2;
        writer.flush().expect("flush");
    }
    writer.close().expect("clean close");

    let mut remote = client.reader().expect("reader");
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while remote.total_events().expect("total") < total {
        assert!(
            std::time::Instant::now() < deadline,
            "pipeline never drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let merged = remote.merged_estimate().expect("merged estimate RPC");
    let reader = server.reader();
    assert_eq!(reader.epoch(), remote.epoch(), "pinned to one freeze");
    let sampled_ny = reader
        .snapshot()
        .iter()
        .filter(|(_, c)| matches!(c, CounterFamily::NelsonYu(_)) && c.exact_count().is_none())
        .count();
    assert!(sampled_ny > 0, "a Nelson-Yu key left its exact epoch");
    assert_eq!(merged, reader.merged_estimate().expect("local merge"));
    let rel = (merged - total as f64).abs() / total as f64;
    assert!(rel < 0.25, "merged estimate {merged} vs {total}");
    drop(remote);
    server.shutdown().expect("shutdown");
}

#[test]
fn reconnect_replays_exactly_once() {
    let server = start_server(ny_spec(), 7);
    let identity = server.identity();

    // Speak the protocol by hand for precise control over sequence
    // numbers: apply batches 1..=3, "crash", then replay 2..=6 — the
    // replayed 2 and 3 must be acknowledged without being re-applied.
    let batch = |seq: u64| Frame::Batch {
        seq,
        pairs: vec![(seq, 10), (100 + seq, 1)],
    };
    let mut conn = dial(&server);
    conn.send(&hello(&identity, Role::Ingest, NEW_PRODUCER))
        .expect("send hello");
    let Frame::HelloOk {
        producer,
        resume_after,
        ..
    } = conn.recv().expect("hello ok")
    else {
        panic!("expected HelloOk");
    };
    assert_eq!(resume_after, 0);
    for seq in 1..=3u64 {
        conn.send(&batch(seq)).expect("send");
        assert_eq!(conn.recv().expect("ack"), Frame::BatchAck { seq });
    }
    conn.shutdown(); // crash: no Bye, acks for nothing lost here

    // Reclaim the producer. The server may need a moment to notice the
    // dead connection and park the writer.
    let mut conn = loop {
        let mut retry = dial(&server);
        retry
            .send(&hello(&identity, Role::Ingest, producer))
            .expect("send hello");
        match retry.recv().expect("handshake") {
            Frame::HelloOk {
                producer: got,
                resume_after,
                ..
            } => {
                assert_eq!(got, producer);
                assert_eq!(resume_after, 3, "server holds exactly batches 1..=3");
                break retry;
            }
            Frame::Refused {
                code: RefuseCode::Busy,
                ..
            } => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("unexpected handshake reply: {other:?}"),
        }
    };
    for seq in 2..=6u64 {
        conn.send(&batch(seq)).expect("send");
        let Frame::BatchAck { seq: acked } = conn.recv().expect("ack") else {
            panic!("expected ack");
        };
        assert!(acked >= seq.min(3), "ack regressed");
    }
    conn.send(&Frame::Bye).expect("bye");

    // Exactly the six distinct batches, no duplicates: 6 * 11 events.
    let mut local = server.reader();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        local.refresh();
        if local.total_events() == 66 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "events settled at {} != 66",
            local.total_events()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn sequence_gaps_are_refused() {
    let server = start_server(ny_spec(), 11);
    let identity = server.identity();
    let mut conn = dial(&server);
    conn.send(&hello(&identity, Role::Ingest, NEW_PRODUCER))
        .expect("send hello");
    assert!(matches!(
        conn.recv().expect("handshake"),
        Frame::HelloOk { .. }
    ));
    // Skipping seq 1 is a protocol error: batches may repeat, never
    // skip or reorder.
    conn.send(&Frame::Batch {
        seq: 2,
        pairs: vec![(1, 1)],
    })
    .expect("send");
    match conn.recv().expect("refusal") {
        Frame::Refused {
            code: RefuseCode::Protocol,
            ..
        } => {}
        other => panic!("expected protocol refusal, got {other:?}"),
    }
    server.shutdown().expect("shutdown");
}

#[test]
fn mismatched_identities_are_refused_at_hello() {
    let server = start_server(ny_spec(), 5);
    let good = server.identity();

    // A different spec (different parameters) is turned away with the
    // identity code — counters would not be interchangeable.
    let mut wrong_spec = good.clone();
    wrong_spec.spec = CounterSpec::Morris { a: 1.0 };
    let mut conn = dial(&server);
    conn.send(&hello(&wrong_spec, Role::Ingest, NEW_PRODUCER))
        .expect("send");
    match conn.recv().expect("reply") {
        Frame::Refused {
            code: RefuseCode::Identity,
            ..
        } => {}
        other => panic!("expected identity refusal, got {other:?}"),
    }

    // Same spec, different shard count: also identity.
    let mut wrong_shards = good.clone();
    wrong_shards.shards += 1;
    let mut conn = dial(&server);
    conn.send(&hello(&wrong_shards, Role::Reader, NEW_PRODUCER))
        .expect("send");
    match conn.recv().expect("reply") {
        Frame::Refused {
            code: RefuseCode::Identity,
            ..
        } => {}
        other => panic!("expected identity refusal, got {other:?}"),
    }

    // A wrong protocol version is refused before identity is examined.
    let mut conn = dial(&server);
    conn.send(&Frame::Hello {
        proto: PROTO_VERSION + 1,
        role: Role::Reader,
        fingerprint: good.fingerprint(),
        identity: good.clone(),
        producer: NEW_PRODUCER,
        acked_chain: 0,
    })
    .expect("send");
    match conn.recv().expect("reply") {
        Frame::Refused {
            code: RefuseCode::Version,
            ..
        } => {}
        other => panic!("expected version refusal, got {other:?}"),
    }

    // The high-level client surfaces the refusal as a typed error.
    let client = StoreClient::new(server.local_addr(), wrong_spec).expect("client");
    match client.writer(WriterConfig::default()) {
        Err(NetError::Refused {
            code: RefuseCode::Identity,
            ..
        }) => {}
        other => panic!("expected refusal, got {other:?}"),
    }
    server.shutdown().expect("shutdown");
}

/// Replay-after-reconnect must land the store in *byte-identical*
/// checkpoint state for every counter family: the stream with a crash,
/// a reconnect, and duplicate re-sends serializes to the same full
/// checkpoint as the clean run (epochs normalized — flush cadence may
/// differ, state may not).
#[test]
fn replayed_streams_checkpoint_byte_identical_across_families() {
    let families = [
        CounterSpec::Exact,
        CounterSpec::Morris { a: 8.0 },
        CounterSpec::MorrisPlus {
            eps: 0.2,
            delta_log2: 8,
        },
        ny_spec(),
        CounterSpec::Csuros { mantissa_bits: 8 },
    ];
    for spec in families {
        let batch = |seq: u64| Frame::Batch {
            seq,
            pairs: vec![(seq % 7, 3 + seq), (50 + seq, 1)],
        };

        // Clean run: batches 1..=6 on one connection.
        let clean = start_server(spec, 4242);
        let identity = clean.identity();
        let mut conn = dial(&clean);
        conn.send(&hello(&identity, Role::Ingest, NEW_PRODUCER))
            .expect("hello");
        assert!(matches!(conn.recv().expect("ok"), Frame::HelloOk { .. }));
        for seq in 1..=6u64 {
            conn.send(&batch(seq)).expect("send");
            conn.recv().expect("ack");
        }
        conn.send(&Frame::Bye).expect("bye");
        let clean_bytes = settled_checkpoint(&clean, spec);
        clean.shutdown().expect("shutdown");

        // Crashy run: 1..=3, drop the socket, reclaim, replay 2..=6.
        let crashy = start_server(spec, 4242);
        let identity = crashy.identity();
        let mut conn = dial(&crashy);
        conn.send(&hello(&identity, Role::Ingest, NEW_PRODUCER))
            .expect("hello");
        let Frame::HelloOk { producer, .. } = conn.recv().expect("ok") else {
            panic!("expected HelloOk");
        };
        for seq in 1..=3u64 {
            conn.send(&batch(seq)).expect("send");
            conn.recv().expect("ack");
        }
        conn.shutdown();
        let mut conn = loop {
            let mut retry = dial(&crashy);
            retry
                .send(&hello(&identity, Role::Ingest, producer))
                .expect("hello");
            match retry.recv().expect("handshake") {
                Frame::HelloOk { resume_after, .. } => {
                    assert_eq!(resume_after, 3);
                    break retry;
                }
                Frame::Refused {
                    code: RefuseCode::Busy,
                    ..
                } => std::thread::sleep(Duration::from_millis(20)),
                other => panic!("unexpected handshake reply: {other:?}"),
            }
        };
        for seq in 2..=6u64 {
            conn.send(&batch(seq)).expect("send");
            conn.recv().expect("ack");
        }
        conn.send(&Frame::Bye).expect("bye");
        let crashy_bytes = settled_checkpoint(&crashy, spec);
        crashy.shutdown().expect("shutdown");

        assert_eq!(
            clean_bytes, crashy_bytes,
            "family {spec:?}: replayed stream is not byte-identical"
        );
    }
}

/// Waits for the applied stream to settle, then serializes the final
/// snapshot with its epoch normalized to 0 (epochs count flushes, which
/// legitimately differ between a clean and a crashy run).
fn settled_checkpoint(server: &StoreServer, spec: CounterSpec) -> Vec<u8> {
    let expected: u64 = (1..=6u64).map(|seq| 3 + seq + 1).sum();
    let mut reader = server.reader();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        reader.refresh();
        if reader.total_events() == expected {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "family {spec:?}: events settled at {} != {expected}",
            reader.total_events()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = reader.snapshot().clone().with_epoch(0);
    checkpoint(&snap, None, None).unwrap().into_bytes()
}

#[test]
fn replica_survives_primary_side_compaction() {
    // A tiny chain cap forces the primary to compact repeatedly; a
    // replica connecting mid-stream and one connected from the start
    // must both converge to the same digest regardless.
    let server = start_server(ny_spec(), 31);
    let identity = server.identity();
    let early = ReplicaNode::connect(server.local_addr(), identity.clone()).expect("early replica");

    let client = StoreClient::new(server.local_addr(), identity.clone()).expect("client");
    let mut writer = client.writer(WriterConfig::default()).expect("writer");
    let mut expected = 0u64;
    for round in 0..30u64 {
        for key in 0..40u64 {
            writer.record(key, 1 + (round * key) % 3);
            expected += 1 + (round * key) % 3;
        }
        writer.flush().expect("flush");
        // A pause the cutter sees as quiescence: every round becomes a
        // segment, so the chain outgrows its cap again and again.
        std::thread::sleep(Duration::from_millis(6));
    }
    let late = ReplicaNode::connect(server.local_addr(), identity).expect("late replica");
    writer.close().expect("close");

    assert!(
        early.wait_for_events(expected, Duration::from_secs(20)),
        "early replica stalled: {:?}",
        early.failed()
    );
    assert!(
        late.wait_for_events(expected, Duration::from_secs(20)),
        "late replica stalled: {:?}",
        late.failed()
    );
    let tip = server.tip_chain();
    assert!(early.wait_for_chain(tip, Duration::from_secs(20)));
    assert!(late.wait_for_chain(tip, Duration::from_secs(20)));
    assert_eq!(early.total_events(), late.total_events());
    assert_eq!(
        early.merged_estimate().expect("merge"),
        late.merged_estimate().expect("merge")
    );

    // Compaction really fired: a replica starting from scratch now is
    // sent a compacted base, which names the tip it folded (an
    // uncompacted chain starts with an ordinary full frame, parent 0).
    let mut conn = dial(&server);
    conn.send(&hello(&server.identity(), Role::Replica, NEW_PRODUCER))
        .expect("send hello");
    assert!(matches!(
        conn.recv().expect("hello ok"),
        Frame::HelloOk { .. }
    ));
    let Frame::ReplSegment { bytes } = conn.recv().expect("first segment") else {
        panic!("expected a segment");
    };
    let base = read_header(&bytes).expect("segment header");
    assert_eq!(base.kind, CheckpointKind::Full);
    assert_ne!(
        base.parent_chain, 0,
        "the primary never compacted its chain"
    );
    conn.shutdown();

    drop(early);
    drop(late);
    server.shutdown().expect("shutdown");
}

/// The cut cadence under a steady stream. Two writers keep the applier
/// busy, so it publishes on its 1024-event cadence or when it drains
/// dry, and the published snapshot can stand still for longer than the
/// 1 ms poll while the stream keeps arriving. None of those gaps may
/// cut: a mid-stream delta waits until the events past the tip reach
/// the keys the previous cut encoded.
#[test]
fn steady_streams_cut_at_most_one_key_per_event() {
    const KEYS: u64 = 4_096;
    const ROUNDS: u64 = 32;
    let store = Store::builder(CounterSpec::Exact)
        .with_shards(4)
        .with_seed(3)
        .with_ingest(IngestConfig::new().with_batch_pairs(256))
        .with_snapshot_every_events(1_024)
        .start()
        .expect("store starts");
    let server = StoreServer::start_with(
        store,
        "127.0.0.1:0",
        ServerConfig {
            cut_poll: Duration::from_millis(1),
            max_chain_segments: 1 << 20,
        },
    )
    .expect("server starts");
    let replica = ReplicaNode::connect(server.local_addr(), server.identity()).expect("replica");
    let client = StoreClient::new(server.local_addr(), server.identity()).expect("client");
    // Writer `w` owns the keys `k` with `k % 2 == w`, round-robin, so
    // any window of KEYS events dirties every shard and a cut encodes
    // all KEYS keys.
    let write = |rounds: u64| {
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let client = client.clone();
                s.spawn(move || {
                    let mut writer = client.writer(WriterConfig::default()).expect("writer");
                    for _ in 0..rounds {
                        for key in (w..KEYS).step_by(2) {
                            writer.record(key, 1);
                        }
                    }
                    writer.close().expect("close");
                });
            }
        });
    };

    // Warm-up: every key once, then let the chain settle on it.
    write(1);
    assert!(replica.wait_for_events(KEYS, Duration::from_secs(20)));
    assert!(replica.wait_for_chain(server.tip_chain(), Duration::from_secs(20)));
    let warm_folds = replica.folds();

    write(ROUNDS);
    let expected = KEYS * (ROUNDS + 1);
    assert!(
        replica.wait_for_events(expected, Duration::from_secs(30)),
        "replica stalled: {:?}",
        replica.failed()
    );
    assert!(replica.wait_for_chain(server.tip_chain(), Duration::from_secs(20)));

    // Every mid-stream cut after the first is preceded by >= KEYS new
    // events (the first may follow a smaller warm-up cut), so at most
    // ROUNDS + 1 of them, plus the final quiescent cut.
    let cuts = replica.folds() - warm_folds;
    assert!(
        cuts <= ROUNDS + 2,
        "{cuts} segments for {ROUNDS} rounds of {KEYS} keys"
    );
    drop(replica);
    server.shutdown().expect("shutdown");
}
