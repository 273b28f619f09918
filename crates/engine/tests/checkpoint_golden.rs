//! Golden checkpoint frames: the chain digest and byte length of every
//! frame kind, pinned to constants.
//!
//! Each counter family runs a fixed-seed engine of 5,000 keys (large
//! enough for the section encoder and decoder to fan out across cores)
//! through a full frame, two partial deltas, and the compacted base of
//! that chain, cut both by restoring the chain and from the tip's own
//! snapshot. A tiered ladder adds the version-3 frames: a full frame, a
//! delta on a version-2 parent, and a compacted base. A frame's chain
//! digest covers every header field and every payload byte, so equal
//! digests mean equal bytes. Any change to the encoding — or to who
//! encodes which section — that moves a single bit fails here.

use ac_core::{CounterSpec, TierMove, TierPolicy};
use ac_engine::{
    checkpoint, compact_checkpoint, restore_checkpoint, Checkpoint, CheckpointKind, CounterEngine,
    EngineConfig, EngineSnapshot,
};
use ac_randkit::{RandomSource, SplitMix64};

// ---- the public checkpoint API, in one place ---------------------------

fn full(snap: &EngineSnapshot) -> Checkpoint {
    checkpoint(snap, None, None).unwrap()
}

fn delta(snap: &EngineSnapshot, parent: &Checkpoint) -> Checkpoint {
    checkpoint(snap, None, Some(&parent.header())).unwrap()
}

fn compact_from_chain(spec: &CounterSpec, chain: &[&Checkpoint]) -> Checkpoint {
    compact_tiered_from_chain(std::slice::from_ref(spec), chain, None)
}

fn compact_from_tip(snap: &EngineSnapshot, tip: &Checkpoint) -> Checkpoint {
    compact_checkpoint(snap, None, &tip.header()).unwrap()
}

fn full_tiered(snap: &EngineSnapshot, ladder: &[CounterSpec]) -> Checkpoint {
    checkpoint(snap, Some(ladder), None).unwrap()
}

fn delta_tiered(snap: &EngineSnapshot, ladder: &[CounterSpec], parent: &Checkpoint) -> Checkpoint {
    checkpoint(snap, Some(ladder), Some(&parent.header())).unwrap()
}

/// Restores `chain` through `ladder` and writes its compacted base,
/// tiered when `tiers` is given.
fn compact_tiered_from_chain(
    ladder: &[CounterSpec],
    chain: &[&Checkpoint],
    tiers: Option<&[CounterSpec]>,
) -> Checkpoint {
    let segments: Vec<&[u8]> = chain.iter().map(|f| f.bytes()).collect();
    let tip = chain.last().unwrap().header();
    let mut engine = restore_checkpoint(ladder, &segments).unwrap();
    compact_checkpoint(&engine.snapshot().with_epoch(tip.epoch), tiers, &tip).unwrap()
}

// ---- the engines -------------------------------------------------------

const KEYS: u64 = 5_000;

fn config() -> EngineConfig {
    EngineConfig::new().with_shards(8).with_seed(0x601D)
}

fn key(k: u64) -> u64 {
    k * 7_919 + 3
}

fn seed_traffic(seed: u64) -> Vec<(u64, u64)> {
    let mut gen = SplitMix64::new(seed);
    (0..KEYS)
        .map(|k| (key(k), 1 + gen.next_u64() % 3_000))
        .collect()
}

/// Traffic confined to `shards`, half on existing keys and half on new
/// ones, so a delta writes exactly those shards.
fn shard_traffic(e: &CounterEngine, shards: &[usize], seed: u64) -> Vec<(u64, u64)> {
    let mut gen = SplitMix64::new(seed);
    (0..2 * KEYS)
        .filter(|&k| shards.contains(&e.shard_of(key(k))))
        .step_by(5)
        .map(|k| (key(k), 1 + gen.next_u64() % 900))
        .collect()
}

/// `(label, chain digest, byte length)` of one frame.
type Golden = (&'static str, u64, usize);

fn golden(label: &'static str, frame: &Checkpoint) -> Golden {
    (label, frame.header().chain, frame.bytes().len())
}

/// Full, two deltas, and the compacted base from both routes.
fn untiered_frames(spec: CounterSpec, seed: u64) -> Vec<Golden> {
    let mut e = CounterEngine::new(spec.build().unwrap(), config());
    e.apply(&seed_traffic(seed));
    let base = full(&e.snapshot());
    e.apply(&shard_traffic(&e, &[0, 3], seed + 1));
    let d1 = delta(&e.snapshot(), &base);
    e.apply(&shard_traffic(&e, &[2, 5, 6], seed + 2));
    let tip_snap = e.snapshot();
    let d2 = delta(&tip_snap, &d1);
    assert_eq!(d1.stats().shards_written, 2);
    assert_eq!(d2.stats().shards_written, 3);

    let from_chain = compact_from_chain(&spec, &[&base, &d1, &d2]);
    let from_tip = compact_from_tip(&tip_snap, &d2);
    assert_eq!(
        from_chain.bytes(),
        from_tip.bytes(),
        "both compaction routes"
    );
    vec![
        golden("full", &base),
        golden("delta 1", &d1),
        golden("delta 2", &d2),
        golden("compacted", &from_chain),
    ]
}

/// A version-2 base cut before tiering, then the version-3 frames.
fn tiered_frames() -> Vec<Golden> {
    let policy = TierPolicy::default_ladder();
    let ladder = policy.specs();
    let mut e = CounterEngine::new(ladder[0].build().unwrap(), config());
    e.apply(&seed_traffic(50));
    let v2_base = full(&e.snapshot());
    let moves: Vec<TierMove> = (0..KEYS)
        .step_by(3)
        .map(|k| TierMove {
            key: key(k),
            tier: u8::try_from(1 + (k / 3) % 3).unwrap(),
        })
        .collect();
    e.apply_migrations(policy.specs(), &moves).unwrap();
    e.apply(&shard_traffic(&e, &[1, 4], 51));
    let snap = e.snapshot();
    let v3_delta = delta_tiered(&snap, ladder, &v2_base);
    let v3_full = full_tiered(&snap, ladder);
    let v3_compacted = compact_tiered_from_chain(ladder, &[&v2_base, &v3_delta], Some(ladder));
    for frame in [&v3_delta, &v3_full, &v3_compacted] {
        assert_eq!(frame.header().version, 3);
    }
    assert_eq!(v3_delta.header().kind, CheckpointKind::Delta);
    vec![
        golden("v2 base", &v2_base),
        golden("v3 delta on v2", &v3_delta),
        golden("v3 full", &v3_full),
        golden("v3 compacted", &v3_compacted),
    ]
}

fn assert_golden(family: &str, got: &[Golden], want: &[Golden]) {
    assert_eq!(got, want, "{family}: frames moved; got {got:#x?}");
}

#[test]
fn exact_frames_are_golden() {
    let got = untiered_frames(CounterSpec::Exact, 10);
    assert_golden("exact", &got, &EXACT);
}

#[test]
fn morris_frames_are_golden() {
    let got = untiered_frames(CounterSpec::Morris { a: 0.25 }, 20);
    assert_golden("morris", &got, &MORRIS);
}

#[test]
fn morris_plus_frames_are_golden() {
    let spec = CounterSpec::MorrisPlus {
        eps: 0.2,
        delta_log2: 8,
    };
    let got = untiered_frames(spec, 30);
    assert_golden("morris+", &got, &MORRIS_PLUS);
}

#[test]
fn nelson_yu_frames_are_golden() {
    let spec = CounterSpec::NelsonYu {
        eps: 0.2,
        delta_log2: 8,
    };
    let got = untiered_frames(spec, 40);
    assert_golden("nelson-yu", &got, &NELSON_YU);
}

#[test]
fn csuros_frames_are_golden() {
    let got = untiered_frames(CounterSpec::Csuros { mantissa_bits: 8 }, 50);
    assert_golden("csuros", &got, &CSUROS);
}

#[test]
fn tiered_frames_are_golden() {
    assert_golden("tiered", &tiered_frames(), &TIERED);
}

// ---- the constants -----------------------------------------------------

const EXACT: [Golden; 4] = [
    ("full", 0x5B60EBA96AEFFF3C, 21785),
    ("delta 1", 0xD4B9976AF1953CD4, 6718),
    ("delta 2", 0x4B60B09977EA78C2, 10015),
    ("compacted", 0x4F682D90928CA4D2, 24676),
];

const MORRIS: [Golden; 4] = [
    ("full", 0x251EB819EA0BF9BC, 17036),
    ("delta 1", 0xF71B88F01F07B20C, 5322),
    ("delta 2", 0x7353F7CE1603CED4, 7930),
    ("compacted", 0x33742D55CD90EE87, 19439),
];

const MORRIS_PLUS: [Golden; 4] = [
    ("full", 0x28C789858C028D3A, 31699),
    ("delta 1", 0x2CDD67593DBF99FC, 9663),
    ("delta 2", 0x55DA5E8B571EE15D, 14455),
    ("compacted", 0x8698D48C4F05D4E0, 35745),
];

const NELSON_YU: [Golden; 4] = [
    ("full", 0xC87CAFBA5984B5F9, 23014),
    ("delta 1", 0x8BFF11FD9AFA2B38, 7093),
    ("delta 2", 0xC677CA7F97A366BA, 10584),
    ("compacted", 0xD131F5D7B6713763, 26066),
];

const CSUROS: [Golden; 4] = [
    ("full", 0xC07A479026E6C02E, 21091),
    ("delta 1", 0x298895D5FC98BADA, 6530),
    ("delta 2", 0xE92A1E1E750641F7, 9728),
    ("compacted", 0x5BDFD3CBEF8729C9, 23942),
];

const TIERED: [Golden; 4] = [
    ("v2 base", 0x9D2E6490BF2DA0B5, 16341),
    ("v3 delta on v2", 0x5EC6817232166F46, 21649),
    ("v3 full", 0xFBDF21A5F482C227, 21649),
    ("v3 compacted", 0x2590AA26E29E1F3B, 21649),
];
