//! A replicated counting cluster over loopback TCP — the networked
//! Store end to end, including a client crash and an exactly-once
//! replay.
//!
//! Two modes:
//!
//! * no arguments — an in-process drill: one `StoreServer`, two
//!   `ReplicaNode` mirrors, three clean remote writers on threads, and
//!   one writer that **crashes mid-stream** (socket dropped, no
//!   goodbye) and is resumed by a fresh client via the high-water-mark
//!   handshake. The drill proves exactly-once totals, (ε, δ)-band
//!   merged estimates, and digest-identical replica convergence.
//! * `cluster` — the same story with **separate processes**: the
//!   parent runs the server and re-spawns itself as writer, crashing
//!   writer, resuming writer, and replica children (CI wires this
//!   mode as the cross-process replication smoke).
//!
//! The remaining subcommands (`writer`, `crash-writer`,
//! `resume-writer`, `mirror`) are the child roles `cluster` spawns;
//! they are not meant to be invoked by hand.
//!
//! ```console
//! $ cargo run --release --example replicated_cluster
//! $ cargo run --release --example replicated_cluster -- cluster
//! ```

use approx_counting::prelude::*;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SHARDS: u32 = 8;
const SEED: u64 = 0xC0DE_CAFE;
const BATCH_PAIRS: usize = 64;

fn spec() -> CounterSpec {
    CounterSpec::NelsonYu {
        eps: 0.2,
        delta_log2: 8,
    }
}

/// The identity every peer must present at `HELLO`. A peer built with
/// a different spec, shard count, or seed is refused — the same rule
/// the manifest applies to checkpoint restores.
fn identity() -> Identity {
    Identity {
        spec: spec(),
        shards: SHARDS,
        seed: SEED,
    }
}

fn start_server() -> StoreServer {
    let store = Store::builder(spec())
        .with_shards(SHARDS as usize)
        .with_seed(SEED)
        .with_ingest(IngestConfig::new().with_batch_pairs(256))
        // Publish read replicas at a tight cadence so RPCs and the
        // replication cutter see progress mid-burst; the stream tail
        // below the cadence is published on quiesce.
        .with_snapshot_every_events(512)
        .start()
        .expect("store starts");
    StoreServer::start_with(
        store,
        "127.0.0.1:0",
        ServerConfig {
            cut_poll: Duration::from_millis(2),
            max_chain_segments: 8,
        },
    )
    .expect("server starts")
}

/// Writer `wid`'s deterministic workload: keys collide across writers
/// (every node counts the same hot set) and deltas vary per event.
fn workload(wid: u64) -> Vec<(u64, u64)> {
    (0..6_000u64)
        .map(|i| ((wid * 131 + i) % 900, 1 + (i + wid) % 7))
        .collect()
}

/// The workload pre-sliced into wire batches, so a crashed writer and
/// its resumer agree on what sequence number `n` contains.
fn batches(wid: u64) -> Vec<Vec<(u64, u64)>> {
    workload(wid)
        .chunks(BATCH_PAIRS)
        .map(<[(u64, u64)]>::to_vec)
        .collect()
}

fn events_of(wid: u64) -> u64 {
    workload(wid).iter().map(|&(_, d)| d).sum()
}

/// Claims a parked producer, retrying while the server still thinks
/// the crashed session is alive (it notices the dead socket within
/// one poll tick).
fn claim_parked(client: &StoreClient, producer: u64) -> NetWriter {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.writer_resuming(producer, WriterConfig::default()) {
            Ok(writer) => return writer,
            Err(NetError::Refused {
                code: RefuseCode::Busy,
                ..
            }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("claiming parked producer {producer}: {e}"),
        }
    }
}

/// Streams the first `upto` batches of `wid`'s workload and returns
/// the producer id — then the caller "crashes" (drops the socket with
/// batches beyond the flush never sent).
fn crash_partway(client: &StoreClient, wid: u64, upto: usize) -> u64 {
    let mut writer = client
        .writer(WriterConfig::default())
        .expect("writer connects");
    let producer = writer.producer_id();
    for batch in batches(wid).into_iter().take(upto) {
        writer.submit_batch(batch).expect("batch queued");
    }
    writer.flush().expect("queued batches acknowledged");
    // Dropping without `close()` sends no goodbye: to the server this
    // is a dead socket, and the producer parks at its durable mark.
    drop(writer);
    producer
}

/// Resumes `producer` and replays `wid`'s batches strictly after the
/// server's high-water mark — the exactly-once contract: nothing below
/// the mark is re-applied, nothing above it is skipped.
fn resume_and_finish(client: &StoreClient, wid: u64, producer: u64) -> u64 {
    let mut writer = claim_parked(client, producer);
    let resume_after = writer.resume_after();
    for batch in batches(wid).into_iter().skip(resume_after as usize) {
        writer.submit_batch(batch).expect("replayed batch queued");
    }
    writer.close().expect("clean close");
    resume_after
}

fn stream_clean(client: &StoreClient, wid: u64) {
    let mut writer = client
        .writer(WriterConfig::default())
        .expect("writer connects");
    for (key, delta) in workload(wid) {
        writer.record(key, delta);
    }
    writer.close().expect("clean close");
}

fn wait_for_total(reader: &mut RemoteReader, expected: u64, timeout: Duration) -> u64 {
    let deadline = Instant::now() + timeout;
    loop {
        let total = reader.total_events().expect("total RPC");
        if total >= expected || Instant::now() >= deadline {
            return total;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn in_process_drill() {
    let server = start_server();
    let addr = server.local_addr();
    println!("primary serving on {addr}");

    // Replicas attach before any data exists: they receive the full
    // base and then live delta segments.
    let replica_a = ReplicaNode::connect(addr, identity()).expect("replica A connects");
    let replica_b = ReplicaNode::connect(addr, identity()).expect("replica B connects");

    // Three clean writers stream concurrently from threads...
    let clean: Vec<u64> = vec![0, 1, 2];
    std::thread::scope(|s| {
        for &wid in &clean {
            s.spawn(move || {
                let client = StoreClient::new(addr, identity()).expect("client connects");
                stream_clean(&client, wid);
            });
        }
    });

    // ...and a fourth crashes mid-stream, then a fresh client resumes
    // its producer and replays the tail.
    let crashy_wid = 3u64;
    let client = StoreClient::new(addr, identity()).expect("client connects");
    let producer = crash_partway(&client, crashy_wid, batches(crashy_wid).len() / 2);
    println!("writer {crashy_wid} (producer {producer}) crashed mid-stream; resuming");
    let resume_after = resume_and_finish(&client, crashy_wid, producer);
    println!("server held seqs 1..={resume_after}; replayed the rest exactly once");

    // Exactly-once: the total is the *exact* sum of all four
    // workloads — a lost batch or a double-applied replay both break
    // this equality.
    let expected: u64 = (0..4).map(events_of).sum();
    let mut reader = client.reader().expect("reader connects");
    let total = wait_for_total(&mut reader, expected, Duration::from_secs(30));
    assert_eq!(total, expected, "exactly-once totals over the wire");

    let est = reader.merged_estimate().expect("merged estimate RPC");
    let rel = (est - expected as f64).abs() / expected as f64;
    println!(
        "remote reader at epoch {}: {total} events, merged estimate {est:.0} \
         (relative error {:.2}%)",
        reader.epoch(),
        100.0 * rel
    );
    assert!(rel < 0.2, "merged estimate within the (eps, delta) band");

    // Replicas converge to the primary's exact chain tip — digest
    // equality is byte-level equality of the replicated state.
    for (name, replica) in [("A", &replica_a), ("B", &replica_b)] {
        assert!(
            replica.wait_for_events(expected, Duration::from_secs(30)),
            "replica {name} converges"
        );
        assert!(
            replica.wait_for_chain(server.tip_chain(), Duration::from_secs(30)),
            "replica {name} reaches the tip digest"
        );
        println!(
            "replica {name}: {} events over {} keys, chain {:#018x}, {} folds",
            replica.total_events(),
            replica.len(),
            replica.chain_digest(),
            replica.folds()
        );
    }
    assert_eq!(replica_a.chain_digest(), replica_b.chain_digest());
    let merged_a = replica_a.merged_estimate().expect("replica A merge");
    let merged_b = replica_b.merged_estimate().expect("replica B merge");
    assert_eq!(
        merged_a.to_bits(),
        merged_b.to_bits(),
        "identical state + identical epoch => identical merged estimate"
    );

    reader.close();
    drop(replica_a);
    drop(replica_b);
    let report = server.shutdown().expect("server shutdown");
    assert_eq!(report.stats.events, expected);
    println!("in-process drill OK: {expected} events, exactly once, on 3 nodes");
}

/// Spawns this example again as a child in `role` with `args`.
fn spawn_child(role: &str, args: &[String]) -> std::process::Child {
    let exe = std::env::current_exe().expect("current exe");
    Command::new(exe)
        .arg(role)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {role}: {e}"))
}

fn wait_child(mut child: std::process::Child, role: &str) -> String {
    let mut out = String::new();
    if let Some(stdout) = child.stdout.as_mut() {
        let _ = stdout.read_to_string(&mut out);
    }
    let status = child.wait().expect("child reaped");
    assert!(status.success(), "{role} failed: {status}\n{out}");
    print!("{out}");
    out
}

/// Extracts `key=value` from a child's stdout.
fn field(out: &str, key: &str) -> u64 {
    out.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("child output missing {key}=: {out:?}"))
}

fn cluster_drill() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    println!("primary serving on {addr}; spawning child processes");

    // The replica child attaches first and waits for the whole load.
    let expected: u64 = (0..3).map(events_of).sum();
    let mirror = spawn_child("mirror", &[addr.clone(), expected.to_string()]);

    // Two clean writer processes, plus one that crashes mid-stream.
    let writers: Vec<_> = (0..2)
        .map(|wid| spawn_child("writer", &[addr.clone(), wid.to_string()]))
        .collect();
    let crashy = wait_child(
        spawn_child("crash-writer", &[addr.clone(), "2".into()]),
        "crash-writer",
    );
    let producer = field(&crashy, "producer");
    let resume = wait_child(
        spawn_child(
            "resume-writer",
            &[addr.clone(), "2".into(), producer.to_string()],
        ),
        "resume-writer",
    );
    assert!(
        field(&resume, "resumed_after") > 0,
        "a real mid-stream mark"
    );
    for (wid, child) in writers.into_iter().enumerate() {
        wait_child(child, &format!("writer {wid}"));
    }

    // The mirror process exits zero only after reaching the expected
    // total; its printed digest must equal the primary's tip.
    let mirror_out = wait_child(mirror, "mirror");
    assert_eq!(field(&mirror_out, "events"), expected);

    let mut local = server.reader();
    let deadline = Instant::now() + Duration::from_secs(30);
    while local.total_events() < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        local.refresh();
    }
    assert_eq!(
        local.total_events(),
        expected,
        "exactly-once totals across process boundaries"
    );
    assert_eq!(
        field(&mirror_out, "chain"),
        server.tip_chain(),
        "replica process converged to the primary's chain digest"
    );
    let report = server.shutdown().expect("server shutdown");
    assert_eq!(report.stats.events, expected);
    println!("cluster drill OK: {expected} events, exactly once, across processes");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    match argv.as_slice() {
        [_] => in_process_drill(),
        [_, "cluster"] => cluster_drill(),
        [_, "writer", addr, wid] => {
            let wid: u64 = wid.parse().expect("writer id");
            let client = StoreClient::new(addr, identity()).expect("client connects");
            stream_clean(&client, wid);
            println!("writer {wid} done: events={}", events_of(wid));
        }
        [_, "crash-writer", addr, wid] => {
            let wid: u64 = wid.parse().expect("writer id");
            let client = StoreClient::new(addr, identity()).expect("client connects");
            let upto = batches(wid).len() / 2;
            let producer = crash_partway(&client, wid, upto);
            println!("crash-writer {wid} dying mid-stream: producer={producer}");
            // A real crash: no destructors, no goodbye, the OS reaps
            // the socket.
            std::process::exit(0);
        }
        [_, "resume-writer", addr, wid, producer] => {
            let wid: u64 = wid.parse().expect("writer id");
            let producer: u64 = producer.parse().expect("producer id");
            let client = StoreClient::new(addr, identity()).expect("client connects");
            let resume_after = resume_and_finish(&client, wid, producer);
            println!("resume-writer {wid} done: resumed_after={resume_after}");
        }
        [_, "mirror", addr, expected] => {
            let expected: u64 = expected.parse().expect("expected events");
            let replica = ReplicaNode::connect(addr, identity()).expect("replica connects");
            assert!(
                replica.wait_for_events(expected, Duration::from_secs(60)),
                "replica converges to the full load (saw {} of {expected}; {:?})",
                replica.total_events(),
                replica.failed()
            );
            println!(
                "mirror done: events={} keys={} chain={} folds={}",
                replica.total_events(),
                replica.len(),
                replica.chain_digest(),
                replica.folds()
            );
        }
        _ => {
            eprintln!("usage: replicated_cluster [cluster]");
            std::process::exit(2);
        }
    }
}
