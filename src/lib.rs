//! # `approx-counting` — Optimal Bounds for Approximate Counting
//!
//! A complete, production-quality Rust reproduction of
//!
//! > Jelani Nelson, Huacheng Yu.
//! > *Optimal Bounds for Approximate Counting.* PODS 2022
//! > (arXiv:2010.02116)
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`core`] — the counters: [`MorrisCounter`](core::MorrisCounter),
//!   [`MorrisPlus`](core::MorrisPlus),
//!   [`NelsonYuCounter`](core::NelsonYuCounter) (**Algorithm 1**),
//!   [`CsurosCounter`](core::CsurosCounter), planners and merge.
//! * [`randkit`] — deterministic PRNGs and exact samplers.
//! * [`bitio`] — bit-level storage and the [`StateBits`](bitio::StateBits)
//!   memory accounting.
//! * [`stats`] — ECDFs, KS tests, tail-bound calculators.
//! * [`automaton`] — the Theorem 3.1 lower bound, executable.
//! * [`streams`] — counter arrays, dictionaries, frequency moments,
//!   reservoir sampling, heavy hitters.
//! * [`engine`] — the sharded keyed-counter engine: the
//!   [`Store`](engine::Store) service facade (runtime family selection
//!   via [`CounterSpec`](core::CounterSpec), cloneable writer/reader
//!   handles with a nonblocking `try_send`/`send` surface and explicit
//!   [`BackpressurePolicy`](engine::BackpressurePolicy), manifest-driven
//!   crash recovery) over four layers — lock-free per-producer ingest
//!   rings with per-producer sequence numbers and a background checkpoint
//!   writer (both inside the store), and, public as the expert API, the
//!   copy-on-write batch-update [`CounterEngine`](engine::CounterEngine),
//!   its `O(shards)` snapshot read replicas with an `O(shards)` merged
//!   estimate summed from per-shard books, and bit-exact full + delta checkpoint chains through
//!   `ac-bitio` taking `CounterSpec` tier ladders.
//! * [`net`] — the wire-protocol front-end: a framed TCP protocol with
//!   per-frame checksums and identity-checked handshakes, the
//!   [`StoreServer`](net::StoreServer) (exactly-once multi-client
//!   ingest, epoch-pinned read RPCs), delta-checkpoint replication to
//!   [`ReplicaNode`](net::ReplicaNode) mirrors, and the
//!   [`StoreClient`](net::StoreClient)/[`NetWriter`](net::NetWriter)
//!   handles mirroring the local nonblocking writer API.
//! * [`sim`] — the parallel experiment harness.
//!
//! ## Quick start
//!
//! ```
//! use approx_counting::prelude::*;
//!
//! // Approximate a count of one million increments to within 10 % with
//! // failure probability 2^-10, in a few dozen bits of state.
//! let params = NyParams::new(0.1, 10).unwrap();
//! let mut counter = NelsonYuCounter::new(params);
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
//! counter.increment_by(1_000_000, &mut rng);
//!
//! let err = (counter.estimate() - 1.0e6).abs() / 1.0e6;
//! assert!(err < 0.2, "relative error {err}");
//! assert!(counter.state_bits() < 40, "bits: {}", counter.state_bits());
//! ```
//!
//! See `README.md` for the architecture overview, build instructions,
//! and the experiment/CI workflow (each `ac-bench` binary reproduces one
//! figure or claim and prints a `VERDICT:` line).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ac_automaton as automaton;
pub use ac_bitio as bitio;
pub use ac_core as core;
pub use ac_engine as engine;
pub use ac_net as net;
pub use ac_randkit as randkit;
pub use ac_sim as sim;
pub use ac_stats as stats;
pub use ac_streams as streams;

/// One-line import for the common types.
pub mod prelude {
    pub use ac_bitio::StateBits;
    pub use ac_core::{
        budget, exact_level_distribution, morris_a, morris_plus_cutoff, ApproxCounter,
        AveragedMorris, CoreError, CounterFamily, CounterSpec, CsurosCounter, ExactAlphaNelsonYu,
        ExactCounter, Mergeable, MorrisCounter, MorrisPlus, NelsonYuCounter, NyParams,
        PromiseAnswer, PromiseDecider, StateCodec,
    };
    pub use ac_engine::{
        checkpoint, compact_checkpoint, fold_checkpoint_delta, restore_checkpoint,
        BackpressurePolicy, Checkpoint, CheckpointError, CheckpointKind, CheckpointStats,
        CounterEngine, EngineConfig, EngineError, EngineSnapshot, EngineStats, IngestConfig,
        IngestStats, Manifest, ProducerMark, RecoveryReport, SendError, Store, StoreBuilder,
        StoreOptions, StoreReader, StoreStats, StoreWriter,
    };
    pub use ac_net::{
        Identity, NetError, NetWriter, RefuseCode, RemoteReader, ReplicaConfig, ReplicaNode,
        ServerConfig, StoreClient, StoreServer, WriterConfig,
    };
    pub use ac_randkit::{trial_seed, RandomSource, SplitMix64, Xoshiro256PlusPlus};
    pub use ac_sim::{ExecutionMode, TrialRunner, Workload};
    pub use ac_streams::{ApproxCountingDict, CountMinSketch, CounterArray, SpaceSaving};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_whole_stack() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut c = MorrisPlus::new(0.2, 8).unwrap();
        c.increment_by(10_000, &mut rng);
        assert!(c.estimate() > 0.0);
        let _bits = c.state_bits();
    }
}
