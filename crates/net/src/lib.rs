//! # ac-net — a wire-protocol front-end and replication layer for `Store`
//!
//! Everything the engine does in-process — exactly-once ingest under
//! per-producer sequence marks, epoch-pinned reads, delta checkpoint
//! chains with digest integrity — this crate carries across a TCP
//! connection without weakening any of it. There are three moving
//! parts:
//!
//! * **Framing** ([`wire`], [`FrameConn`]): length-prefixed binary frames
//!   whose bodies reuse the `ac-bitio` section discipline checkpoints
//!   are written with, each closed by a checksum. A flipped bit, a
//!   truncation, or a reordered batch is always a *typed* error —
//!   never a panic, never a silently wrong frame. Connections open
//!   with a version-negotiating `HELLO` that carries the full
//!   [`CounterSpec`]/engine-config identity; a mismatched peer is
//!   refused at the door, the same rule the manifest applies to
//!   checkpoint frames.
//! * **Serving** ([`StoreServer`]): one listener multiplexing ingest
//!   sessions (each remote writer is a [`Store`] producer; its wire
//!   sequence numbers *are* the durable sequence marks, so
//!   crash/reconnect replay is exactly-once by the same argument the
//!   local ring makes), read sessions (every query answered against a
//!   pinned snapshot, epoch attached), and replication sessions.
//! * **Replicating** ([`ReplicaNode`]): the primary cuts delta
//!   checkpoint frames off its published snapshots and streams them to
//!   replicas, which fold them through `fold_checkpoint_delta` and
//!   acknowledge chain digests; a reconnect resumes from the last
//!   acknowledged digest, or from a fresh full frame when compaction
//!   has passed it.
//!
//! [`StoreClient`] is the writer/reader factory; its [`NetWriter`]
//! mirrors the local nonblocking writer API, [`BackpressurePolicy`]
//! and all.
//!
//! [`Store`]: ac_engine::Store
//! [`CounterSpec`]: ac_core::CounterSpec
//! [`BackpressurePolicy`]: ac_engine::BackpressurePolicy

mod client;
mod conn;
mod error;
mod replica;
mod server;
pub mod wire;

pub use client::{NetSendError, NetWriter, RemoteReader, StoreClient, WriterConfig};
pub use conn::FrameConn;
pub use error::{NetError, RefuseCode};
pub use replica::{ReplicaConfig, ReplicaNode};
pub use server::{ServerConfig, StoreServer};
pub use wire::{Frame, Identity, Query, Reply, Role, PROTO_VERSION};
