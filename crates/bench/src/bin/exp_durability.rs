//! **E15** — the durability lifecycle: checkpoint encode and chain
//! restore at a million keys (a restored engine re-encodes to the very
//! bytes it was restored from, and a chain restore equals folding its
//! deltas one at a time), recovery time as a function of chain length
//! with and without off-thread compaction (compacted recovery is bounded
//! by state size, not history), and steady-state ingest throughput with
//! the compactor running against the same store with compaction
//! disabled.
//!
//! Emits `BENCH_durability.json` via `--json` (uploaded by CI).
//!
//! The ingest-overhead gate only binds at full size on hosts with at
//! least 4 cores — on smaller runners (CI is often 1-2 vCPUs) the
//! compactor competes with ingest for the same core, so that leg is
//! recorded but the verdict rests on the identity and flat-recovery
//! gates.

use ac_bench::{header, json::JsonObject, section, sized, verdict, write_json_report};
use ac_core::CounterSpec;
use ac_engine::{
    checkpoint, compact_checkpoint, fold_checkpoint_delta, read_header, restore_checkpoint,
    Checkpoint, CheckpointKind, CounterEngine, EngineConfig, IngestConfig, Manifest, Store,
};
use ac_randkit::{RandomSource, SplitMix64};
use ac_sim::report::Table;
use std::time::Instant;

const EPS: f64 = 0.2;
const DELTA_LOG2: u32 = 8;

fn engine_config() -> EngineConfig {
    EngineConfig::new().with_shards(32).with_seed(0xE15)
}

/// A full frame of `engine`'s state pinned to freeze epoch `epoch`: two
/// engines with equal counters, RNG streams and totals give equal bytes.
fn frame_at(engine: &mut CounterEngine, epoch: u64) -> Checkpoint {
    checkpoint(&engine.snapshot().with_epoch(epoch), None, None).expect("full frame")
}

fn spec() -> CounterSpec {
    CounterSpec::NelsonYu {
        eps: EPS,
        delta_log2: DELTA_LOG2,
    }
}

/// Minimum wall time over `n` runs of `f` (loaded hosts deschedule
/// single runs; the minimum is the least-noisy estimator of true cost).
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut value = None;
    for _ in 0..n {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64());
        value = Some(v);
    }
    (best, value.expect("n >= 1"))
}

/// Drives `events` through a durable store one record at a time and
/// returns events/s over record + flush + close (the close drains the
/// queue and the checkpoint writer, so a lagging compactor shows up).
fn run_store_ingest(tag: &str, events: u64, keys: u64, compact: bool) -> (f64, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ac-e15-{tag}-{}-{compact}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut builder = Store::builder(spec())
        .with_shards(32)
        .with_seed(0xE15A)
        .with_ingest(IngestConfig::default())
        .with_snapshot_every_events(events / 16)
        .with_durability(&dir)
        .with_checkpoint_every_events(events / 16)
        .with_max_deltas_per_base(1_000);
    if compact {
        builder = builder.with_max_chain_len(4);
    }
    let store = builder.start().expect("fresh durable store");
    let mut writer = store.writer();
    let mut gen = SplitMix64::new(0x05EE_DE15);
    let start = Instant::now();
    let mut remaining = events;
    while remaining > 0 {
        let key = gen.next_u64() % keys;
        let delta = (1 + gen.next_u64() % 8).min(remaining);
        writer.record(key, delta);
        remaining -= delta;
    }
    writer.flush().expect("final flush");
    let report = store.close().expect("clean close");
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(report.stats.events, events, "ingest lost events");
    (events as f64 / elapsed, dir)
}

#[allow(clippy::too_many_lines)]
fn main() {
    header(
        "E15",
        "durability: checkpoint encode/restore + off-thread chain compaction",
        "a restored engine re-encodes to the bytes it was restored from and a \
         chain restore equals a delta-by-delta fold; an off-thread compactor \
         folds base+delta chains into a fresh base behind an atomic manifest \
         swap, so recovery time is bounded by state size, not history length, \
         at steady-state ingest cost within 5% of the uncompacted store",
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let keys = sized(1_000_000, 50_000) as u64;
    let max_chain = sized(16, 8);
    let reps = sized(3, 2);
    let ladder = [spec()];
    println!("{keys} keys, NelsonYu(eps={EPS}, delta=2^-{DELTA_LOG2}), {cores} cores\n");

    // ----- the shared chain: one base + deltas over real traffic --------
    let mut engine = CounterEngine::new(spec().build().unwrap(), engine_config());
    let seed_batch: Vec<(u64, u64)> = (0..keys).map(|k| (k, 1 + k % 7)).collect();
    engine.apply(&seed_batch);
    let snap = engine.snapshot();

    // ----- Part 1: encode, and re-encode of the restored engine ---------
    section("encode: per-shard sections, spliced to one frame");
    let (encode_s, base) = best_of(reps, || checkpoint(&snap, None, None).expect("full frame"));
    let mut restored = restore_checkpoint(&ladder, &[base.bytes()]).expect("restore base");
    let reencode_identical = frame_at(&mut restored, snap.epoch()).bytes() == base.bytes();
    println!(
        "{keys} keys -> {} bytes in {:.1} ms (restored engine re-encodes identically: \
         {reencode_identical})",
        base.bytes().len(),
        encode_s * 1e3,
    );

    // Deltas extend the chain to max_chain frames, each touching ~5% of
    // the key space so every frame carries real per-shard sections.
    let mut segments: Vec<Vec<u8>> = vec![base.bytes().to_vec()];
    let mut parent = base.header();
    let mut gen = SplitMix64::new(0xD0_E15);
    for _ in 1..max_chain {
        let delta_batch: Vec<(u64, u64)> = (0..keys / 20)
            .map(|_| (gen.next_u64() % keys, 1 + gen.next_u64() % 16))
            .collect();
        engine.apply(&delta_batch);
        let delta = checkpoint(&engine.snapshot(), None, Some(&parent)).expect("own lineage");
        parent = delta.header();
        segments.push(delta.bytes().to_vec());
    }
    let refs: Vec<&[u8]> = segments.iter().map(Vec::as_slice).collect();

    // ----- Part 2: chain restore, and the delta-by-delta fold -----------
    section("restore: the full chain, against folding it one delta at a time");
    let (restore_s, mut chain_engine) = best_of(reps, || {
        restore_checkpoint(&ladder, &refs).expect("chain restore")
    });
    let mut folded = restore_checkpoint(&ladder, &refs[..1]).expect("restore base");
    let mut tip = read_header(refs[0]).expect("base header");
    for delta in &refs[1..] {
        tip = fold_checkpoint_delta(&mut folded, &ladder, &tip, delta).expect("fold delta");
    }
    // Same counters, same shard RNG streams, same totals -> same bytes.
    let fold_identical = chain_engine.total_events() == engine.total_events()
        && frame_at(&mut chain_engine, tip.epoch).bytes()
            == frame_at(&mut folded, tip.epoch).bytes();
    println!(
        "{}-frame chain restored in {:.1} ms (equal to the delta-by-delta fold: \
         {fold_identical})",
        refs.len(),
        restore_s * 1e3,
    );

    // ----- Part 3: recovery time vs chain length, +/- compaction --------
    section("recovery curve: chain walk vs compacted base, by chain length");
    let lens: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&l| l <= max_chain)
        .collect();
    let mut curve: Vec<JsonObject> = Vec::new();
    let mut table = Table::new(vec![
        "chain frames",
        "restore (chain)",
        "compact (fold)",
        "restore (compacted)",
    ]);
    let mut compact_identical = true;
    let mut compacted_restore: Vec<f64> = Vec::new();
    let mut chain_restore: Vec<f64> = Vec::new();
    for &len in &lens {
        let prefix = &refs[..len];
        let tip = read_header(prefix[prefix.len() - 1]).expect("tip header");
        let (chain_s, mut folded) = best_of(reps, || {
            restore_checkpoint(&ladder, prefix).expect("chain restore")
        });
        let (compact_s, cbase) = best_of(1, || {
            let mut engine = restore_checkpoint(&ladder, prefix).expect("chain restore");
            compact_checkpoint(&engine.snapshot().with_epoch(tip.epoch), None, &tip)
                .expect("compact")
        });
        let (cbase_s, mut via_cbase) = best_of(reps, || {
            restore_checkpoint(&ladder, &[cbase.bytes()]).expect("compacted restore")
        });
        compact_identical &= via_cbase.total_events() == folded.total_events()
            && frame_at(&mut via_cbase, tip.epoch).bytes()
                == frame_at(&mut folded, tip.epoch).bytes();
        table.row(vec![
            format!("{len}"),
            format!("{:.1} ms", chain_s * 1e3),
            format!("{:.1} ms", compact_s * 1e3),
            format!("{:.1} ms", cbase_s * 1e3),
        ]);
        curve.push(
            JsonObject::new()
                .int("chain_frames", len as u64)
                .int(
                    "chain_bytes",
                    prefix.iter().map(|s| s.len() as u64).sum::<u64>(),
                )
                .num("chain_restore_seconds", chain_s)
                .num("compact_seconds", compact_s)
                .int("compacted_bytes", cbase.bytes().len() as u64)
                .num("compacted_restore_seconds", cbase_s),
        );
        chain_restore.push(chain_s);
        compacted_restore.push(cbase_s);
    }
    print!("{}", table.to_markdown());
    // Flat after compaction: every compacted restore decodes one frame of
    // ~the same state, so the slowest point stays within noise (2x) of
    // the fastest — while the chain walk grows with history.
    let flat_min = compacted_restore
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let flat_max = compacted_restore.iter().copied().fold(0.0f64, f64::max);
    let flat_ratio = flat_max / flat_min.max(1e-12);
    let longest_cut = chain_restore.last().copied().unwrap_or(0.0)
        / compacted_restore.last().copied().unwrap_or(1.0).max(1e-12);
    let flat_ok = flat_ratio <= 2.0 && compacted_restore.last() <= chain_restore.last();
    println!(
        "\ncompacted recovery spread {flat_ratio:.2}x across chain lengths (gate <=2x); at \
         {} frames the compacted base restores {longest_cut:.2}x faster than the chain walk \
         (compacted state identical to the chain restore: {compact_identical})",
        lens.last().unwrap_or(&0),
    );

    // ----- Part 4: steady-state ingest with the compactor live ----------
    section("ingest: durable store, compactor on vs off");
    let ingest_events = sized(4_000_000, 400_000) as u64;
    let ingest_keys = keys.min(200_000);
    let (plain_eps, plain_dir) = run_store_ingest("plain", ingest_events, ingest_keys, false);
    let (compact_eps, compact_dir) = run_store_ingest("compact", ingest_events, ingest_keys, true);
    let ingest_ratio = compact_eps / plain_eps.max(1e-12);

    // The compactor must actually have fired: the manifest opens on a
    // folded base and lists fewer frames than the cadence cut.
    let plain_frames = Manifest::load(&plain_dir).expect("plain manifest").frames;
    let compact_manifest = Manifest::load(&compact_dir).expect("compacted manifest");
    let compaction_fired = compact_manifest.frames[0].kind == CheckpointKind::Full
        && compact_manifest.frames[0].file.contains("-c")
        && compact_manifest.frames.len() < plain_frames.len();

    // End-to-end recovery: reopening the compacted directory walks a
    // short chain; the uncompacted one replays the whole session.
    let (plain_open_s, plain_store) = best_of(1, || Store::open(&plain_dir).expect("reopen plain"));
    let plain_events = plain_store.reader().total_events();
    plain_store.kill();
    let (compact_open_s, compact_store) =
        best_of(1, || Store::open(&compact_dir).expect("reopen compacted"));
    let compact_events = compact_store.reader().total_events();
    compact_store.kill();
    let recovery_identical = plain_events == ingest_events && compact_events == ingest_events;
    println!(
        "{ingest_events} events / {ingest_keys} keys: compactor off {:.2} M events/s, on \
         {:.2} M events/s ({:.1}% of uncompacted); manifest {} -> {} frames \
         (compaction fired: {compaction_fired}); reopen: uncompacted {:.1} ms, compacted \
         {:.1} ms, both recover every event: {recovery_identical}",
        plain_eps / 1e6,
        compact_eps / 1e6,
        ingest_ratio * 100.0,
        plain_frames.len(),
        compact_manifest.frames.len(),
        plain_open_s * 1e3,
        compact_open_s * 1e3,
    );
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&compact_dir);

    // ----- Report -------------------------------------------------------
    // Identity and flatness are host-independent hard gates; the <=5%
    // ingest overhead is stated at full size and only binds there, on
    // hosts with >=4 cores, where the compactor has a core of its own.
    let overhead_binds = cores >= 4 && !ac_bench::quick_mode();
    let overhead_ok = !overhead_binds || ingest_ratio >= 0.95;
    let ok = reencode_identical
        && fold_identical
        && compact_identical
        && flat_ok
        && compaction_fired
        && recovery_identical
        && overhead_ok;
    let report = JsonObject::new()
        .str("experiment", "E15")
        .str(
            "title",
            "durability: checkpoint encode/restore + off-thread compaction",
        )
        .bool("quick", ac_bench::quick_mode())
        .int("cores", cores as u64)
        .obj(
            "encode",
            JsonObject::new()
                .int("keys", keys)
                .int("bytes", base.bytes().len() as u64)
                .num("seconds", encode_s)
                .bool("reencode_identical", reencode_identical),
        )
        .obj(
            "restore",
            JsonObject::new()
                .int("keys", keys)
                .int("frames", refs.len() as u64)
                .num("seconds", restore_s)
                .bool("fold_identical", fold_identical),
        )
        .rows("recovery_curve", curve)
        .obj(
            "compaction",
            JsonObject::new()
                .num("flat_ratio", flat_ratio)
                .num("longest_chain_speedup", longest_cut)
                .bool("flat_after_compaction", flat_ok)
                .bool("byte_identical_to_serial_fold", compact_identical),
        )
        .obj(
            "ingest",
            JsonObject::new()
                .int("events", ingest_events)
                .int("keys", ingest_keys)
                .num("uncompacted_events_per_second", plain_eps)
                .num("compacted_events_per_second", compact_eps)
                .num("compact_to_plain_ratio", ingest_ratio)
                .int("uncompacted_frames", plain_frames.len() as u64)
                .int("compacted_frames", compact_manifest.frames.len() as u64)
                .bool("compaction_fired", compaction_fired)
                .num("uncompacted_open_seconds", plain_open_s)
                .num("compacted_open_seconds", compact_open_s)
                .bool("recovery_identical", recovery_identical),
        )
        .bool("overhead_gate_binds", overhead_binds)
        .bool("reproduced", ok);
    write_json_report(&report);

    verdict(
        ok,
        "a restored engine re-encodes to the bytes it came from, a chain \
         restore equals the delta-by-delta fold, the compacted base matches \
         the fold of the chain and keeps recovery time flat across chain \
         lengths, the compactor fires under live ingest and both directories \
         reopen losslessly (the overhead gate binds at full size on >=4 cores)",
    );
    if !ok {
        std::process::exit(1);
    }
}
