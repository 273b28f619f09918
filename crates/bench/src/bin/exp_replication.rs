//! **E16** — the replicated store over loopback TCP: one primary
//! serving four remote writers under a concurrent Zipf workload, two
//! replica nodes folding delta checkpoint frames as they are cut, and
//! a remote reader querying mid-stream. Gates: exactly-once totals
//! over the wire (the applied total equals the generated total to the
//! event), both replicas converging to the primary's exact chain
//! digest, the merged aggregate staying within the (ε, δ) band of the
//! exact total on primary and replicas alike — and the TCP path's
//! throughput measured against the same workload pushed through
//! in-process writers, so the framing + checksum + ack overhead is a
//! number, not a feeling.
//!
//! Emits `BENCH_replication.json` via `--json` (uploaded by CI).

use ac_bench::{header, json::JsonObject, section, sized, verdict, write_json_report};
use ac_core::CounterSpec;
use ac_engine::{IngestConfig, Store};
use ac_net::{Identity, ReplicaNode, StoreClient, StoreServer, WriterConfig};
use ac_randkit::SplitMix64;
use ac_sim::ZipfKeys;
use std::time::{Duration, Instant};

const EPS: f64 = 0.2;
const DELTA_LOG2: u32 = 8;
const SHARDS: u32 = 8;
const SEED: u64 = 0xE16;
const WRITERS: u64 = 4;
const ZIPF_S: f64 = 1.1;

fn spec() -> CounterSpec {
    CounterSpec::NelsonYu {
        eps: EPS,
        delta_log2: DELTA_LOG2,
    }
}

fn identity() -> Identity {
    Identity {
        spec: spec(),
        shards: SHARDS,
        seed: SEED,
    }
}

fn start_store() -> Store {
    Store::builder(spec())
        .with_shards(SHARDS as usize)
        .with_seed(SEED)
        .with_ingest(IngestConfig::new().with_batch_pairs(256))
        .with_snapshot_every_events(4_096)
        .start()
        .expect("store starts")
}

/// Pre-draws each writer's key stream (one event per key draw) so the
/// timed sections measure the pipeline, not the Zipf sampler.
fn draw_streams(keys: u64, events_per_writer: u64) -> Vec<Vec<u64>> {
    let zipf = ZipfKeys::new(keys, ZIPF_S, SEED).expect("valid zipf");
    (0..WRITERS)
        .map(|w| {
            let mut rng = SplitMix64::new(0x05EE_DE16 ^ w);
            (0..events_per_writer)
                .map(|_| zipf.key_of_rank(zipf.sample_rank(&mut rng)))
                .collect()
        })
        .collect()
}

/// The same four streams through local `StoreWriter`s — the in-process
/// baseline the TCP path is measured against.
fn run_in_process(streams: &[Vec<u64>]) -> (f64, u64) {
    let store = start_store();
    let start = Instant::now();
    std::thread::scope(|s| {
        for stream in streams {
            let mut writer = store.writer();
            s.spawn(move || {
                for &key in stream {
                    writer.record(key, 1);
                }
                writer.flush().expect("lossless flush");
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let report = store.close().expect("clean close");
    (elapsed, report.stats.events)
}

fn main() {
    header(
        "E16",
        "replicated store over loopback TCP",
        "a merged aggregate served over the wire from a primary and its \
         delta-fed replicas stays within the (eps, delta) band of the exact \
         total under concurrent multi-writer Zipf load, with exactly-once \
         totals and digest-identical replica state",
    );

    let keys = sized(50_000, 5_000) as u64;
    let events_per_writer = sized(1_000_000, 50_000) as u64;
    let expected = WRITERS * events_per_writer;
    println!(
        "{WRITERS} writers x {events_per_writer} events over {keys} Zipf(s={ZIPF_S}) keys, \
         NelsonYu(eps={EPS}, delta=2^-{DELTA_LOG2}), {SHARDS} shards\n"
    );
    let streams = draw_streams(keys, events_per_writer);

    // ----- in-process baseline ------------------------------------------
    section("baseline: four local writers, no wire");
    let (local_s, local_events) = run_in_process(&streams);
    let local_eps = local_events as f64 / local_s;
    println!(
        "{local_events} events in {:.2} s -> {:.2} M events/s",
        local_s,
        local_eps / 1e6
    );
    assert_eq!(local_events, expected, "local ingest lost events");

    // ----- the cluster: primary + 2 replicas + 4 remote writers ---------
    section("cluster: primary + 2 replicas + 4 remote writers over loopback");
    let server = StoreServer::start(start_store(), "127.0.0.1:0").expect("server starts");
    let addr = server.local_addr();
    let replica_a = ReplicaNode::connect(addr, identity()).expect("replica A");
    let replica_b = ReplicaNode::connect(addr, identity()).expect("replica B");

    let start = Instant::now();
    let mid_estimate = std::thread::scope(|s| {
        for stream in &streams {
            s.spawn(move || {
                let client = StoreClient::new(addr, identity()).expect("client connects");
                let mut writer = client
                    .writer(WriterConfig::default())
                    .expect("writer connects");
                for &key in stream {
                    writer.record(key, 1);
                }
                writer.close().expect("clean close");
            });
        }
        // A reader RPCs mid-stream: reads must be servable while every
        // writer is pushing. Poll until a publish lands so the probe
        // reports a live number, not the pre-traffic empty replica.
        let probe = s.spawn(move || {
            let client = StoreClient::new(addr, identity()).expect("reader client");
            let mut reader = client.reader().expect("reader connects");
            let mut est = 0.0;
            for _ in 0..200 {
                est = reader.merged_estimate().expect("mid-stream merge RPC");
                if est > 0.0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            reader.close();
            est
        });
        probe.join().expect("probe thread")
    });
    let tcp_s = start.elapsed().as_secs_f64();
    let tcp_eps = expected as f64 / tcp_s;
    println!(
        "{expected} events in {:.2} s -> {:.2} M events/s over TCP \
         ({:.1}% of in-process; mid-stream merged estimate RPC answered {mid_estimate:.0})",
        tcp_s,
        tcp_eps / 1e6,
        100.0 * tcp_eps / local_eps,
    );

    // ----- exactly-once totals ------------------------------------------
    section("convergence: exactly-once totals, replicas at the tip digest");
    let mut local = server.reader();
    let deadline = Instant::now() + Duration::from_secs(120);
    while local.total_events() < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        local.refresh();
    }
    let applied = local.total_events();
    let exactly_once = applied == expected;
    println!("primary applied {applied} of {expected} generated (exactly once: {exactly_once})");

    let replicas_converged = replica_a.wait_for_events(expected, Duration::from_secs(120))
        && replica_b.wait_for_events(expected, Duration::from_secs(120))
        && replica_a.wait_for_chain(server.tip_chain(), Duration::from_secs(120))
        && replica_b.wait_for_chain(server.tip_chain(), Duration::from_secs(120));
    let digests_identical = replicas_converged
        && replica_a.chain_digest() == server.tip_chain()
        && replica_b.chain_digest() == server.tip_chain();
    println!(
        "replica A: {} events, chain {:#018x}, {} folds; replica B: {} events, \
         chain {:#018x}, {} folds (digest-identical to primary: {digests_identical})",
        replica_a.total_events(),
        replica_a.chain_digest(),
        replica_a.folds(),
        replica_b.total_events(),
        replica_b.chain_digest(),
        replica_b.folds(),
    );

    // ----- the (eps, delta) band ----------------------------------------
    section("accuracy: merged aggregate vs exact total, primary and replicas");
    let client = StoreClient::new(addr, identity()).expect("reader client");
    let mut reader = client.reader().expect("reader connects");
    let primary_est = reader.merged_estimate().expect("merge RPC");
    let a_est = replica_a.merged_estimate().expect("replica A merge");
    let b_est = replica_b.merged_estimate().expect("replica B merge");
    reader.close();
    let rel = |est: f64| (est - expected as f64).abs() / expected as f64;
    let in_band = rel(primary_est) <= EPS && rel(a_est) <= EPS && rel(b_est) <= EPS;
    println!(
        "exact {expected}: primary {primary_est:.0} ({:+.2}%), replica A {a_est:.0} \
         ({:+.2}%), replica B {b_est:.0} ({:+.2}%) — all within eps={EPS}: {in_band}",
        100.0 * (primary_est / expected as f64 - 1.0),
        100.0 * (a_est / expected as f64 - 1.0),
        100.0 * (b_est / expected as f64 - 1.0),
    );

    let (a_folds, b_folds) = (replica_a.folds(), replica_b.folds());
    drop(replica_a);
    drop(replica_b);
    let report = server.shutdown().expect("server shutdown");
    let server_total_ok = report.stats.events == expected;

    // ----- Report -------------------------------------------------------
    let ok = exactly_once && replicas_converged && digests_identical && in_band && server_total_ok;
    let json = JsonObject::new()
        .str("experiment", "E16")
        .str("title", "replicated store over loopback TCP")
        .bool("quick", ac_bench::quick_mode())
        .obj(
            "workload",
            JsonObject::new()
                .int("writers", WRITERS)
                .int("events_per_writer", events_per_writer)
                .int("events_total", expected)
                .int("keys", keys)
                .num("zipf_s", ZIPF_S)
                .num("eps", EPS)
                .int("delta_log2", u64::from(DELTA_LOG2)),
        )
        .obj(
            "throughput",
            JsonObject::new()
                .num("in_process_events_per_second", local_eps)
                .num("tcp_events_per_second", tcp_eps)
                .num("tcp_to_in_process_ratio", tcp_eps / local_eps),
        )
        .obj(
            "replication",
            JsonObject::new()
                .int("replicas", 2)
                .int("replica_a_folds", a_folds)
                .int("replica_b_folds", b_folds)
                .bool("converged", replicas_converged)
                .bool("digest_identical", digests_identical),
        )
        .obj(
            "accuracy",
            JsonObject::new()
                .num("primary_estimate", primary_est)
                .num("replica_a_estimate", a_est)
                .num("replica_b_estimate", b_est)
                .num("primary_rel_error", rel(primary_est))
                .bool("within_band", in_band),
        )
        .bool("exactly_once", exactly_once && server_total_ok)
        .bool("reproduced", ok);
    write_json_report(&json);

    verdict(
        ok,
        "four remote writers, one primary, two delta-fed replicas: totals are \
         exactly-once over the wire, replicas converge to the primary's chain \
         digest, and every node's merged aggregate lands within the (eps, \
         delta) band of the exact total",
    );
    if !ok {
        std::process::exit(1);
    }
}
