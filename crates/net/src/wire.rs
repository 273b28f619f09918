//! Frame codec: every message is `[len: u32 LE][body][fnv64: u64 LE]`,
//! where `len` counts the body *and* the trailing checksum. Bodies are
//! `ac-bitio` bit streams — a tag byte, then one length-prefixed
//! section (the same `begin_section` / `read_section` discipline the
//! checkpoint format uses) holding the tag's fields — so a reader can
//! prove the declared payload is exactly the payload it parsed.
//!
//! Integrity story: a flipped bit anywhere in the body fails the FNV
//! checksum; a truncation fails either the length prefix or the
//! section length; a reordered ingest frame fails the per-producer
//! sequence contract one layer up. All three are *typed* rejections
//! ([`NetError`]), never a silently wrong frame.

use crate::error::{NetError, RefuseCode};
use ac_bitio::frame::{begin_section, end_section, read_label, read_section, write_label};
use ac_bitio::{BitReader, BitVec};
use ac_core::CounterSpec;

/// The one protocol version this build speaks. `HELLO` carries it; a
/// disagreement is refused with [`RefuseCode::Version`].
pub const PROTO_VERSION: u16 = 1;

/// Hard cap on a frame body (checkpoint segments ride inside frames,
/// so this bounds replication frame size too).
pub const MAX_FRAME_BYTES: u64 = 1 << 26;

/// The producer-id wildcard a fresh ingest client sends in `HELLO` to
/// ask the server to mint a new producer.
pub const NEW_PRODUCER: u64 = u64::MAX;

/// FNV-1a 64 over the body bytes — cheap, dependency-free, and plenty
/// for *corruption* detection (integrity against tampering is not a
/// goal of the framing layer).
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a connecting peer claims to be in `HELLO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A remote writer: streams `Batch` frames, gets `BatchAck`s.
    Ingest,
    /// A remote reader: streams `Query` frames, gets `Reply`s.
    Reader,
    /// A replica: receives checkpoint segments, returns `ReplAck`s.
    Replica,
}

impl Role {
    fn to_bits(self) -> u64 {
        match self {
            Role::Ingest => 0,
            Role::Reader => 1,
            Role::Replica => 2,
        }
    }

    fn from_bits(bits: u64) -> Option<Self> {
        Some(match bits {
            0 => Role::Ingest,
            1 => Role::Reader,
            2 => Role::Replica,
            _ => return None,
        })
    }
}

/// The store identity a connection must agree on before anything else
/// flows: the counter spec (exact parameter words), the shard count,
/// and the shard-placement seed. This mirrors the manifest-identity
/// rule for checkpoint directories — state is only interchangeable
/// between engines built from the same spec words and config.
#[derive(Debug, Clone, PartialEq)]
pub struct Identity {
    /// The counter family and parameters.
    pub spec: CounterSpec,
    /// Shard count of the engine.
    pub shards: u32,
    /// Shard-placement / merge seed.
    pub seed: u64,
}

impl Identity {
    /// The spec's parameter fingerprint (the same digest checkpoint
    /// headers carry), or 0 for a spec that fails to build — such a
    /// spec can never match a live server's.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use ac_core::StateCodec;
        self.spec
            .build()
            .map(|c| c.params_fingerprint())
            .unwrap_or(0)
    }
}

/// A read RPC, served against one pinned snapshot of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Per-key estimate.
    Estimate {
        /// The key to look up.
        key: u64,
    },
    /// The total's estimate: the sum of the per-key unbiased counts.
    MergedEstimate,
    /// Exact total events at the pinned freeze.
    TotalEvents,
    /// Distinct keys at the pinned freeze.
    Len,
    /// Key/event counts (a small stats summary).
    Stats,
    /// The primary's current replication chain-tip digest (0 if no
    /// chain has been cut yet).
    ReplTip,
}

impl Query {
    fn encode(self, v: &mut BitVec) {
        match self {
            Query::Estimate { key } => {
                v.push_bits(0, 8);
                v.push_bits(key, 64);
            }
            Query::MergedEstimate => v.push_bits(1, 8),
            // Codes 2 (merged counter state) and 3 (tiered merge) are
            // retired: they decode as unknown and are never reused.
            Query::TotalEvents => v.push_bits(4, 8),
            Query::Len => v.push_bits(5, 8),
            Query::Stats => v.push_bits(6, 8),
            Query::ReplTip => v.push_bits(7, 8),
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, NetError> {
        let kind = take(r, 8)?;
        Ok(match kind {
            0 => Query::Estimate { key: take(r, 64)? },
            1 => Query::MergedEstimate,
            4 => Query::TotalEvents,
            5 => Query::Len,
            6 => Query::Stats,
            7 => Query::ReplTip,
            _ => {
                return Err(NetError::Malformed {
                    what: "unknown query kind",
                })
            }
        })
    }
}

/// A read RPC's result body.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The key had never been touched.
    Absent,
    /// A floating-point answer.
    F64(f64),
    /// An integer answer.
    U64(u64),
    /// The small stats summary.
    Stats {
        /// Distinct keys.
        keys: u64,
        /// Exact total events.
        events: u64,
    },
    /// The server could not serve the query.
    Error(String),
}

impl Reply {
    fn encode(&self, v: &mut BitVec) {
        match self {
            Reply::Absent => v.push_bits(0, 8),
            Reply::F64(x) => {
                v.push_bits(1, 8);
                v.push_bits(x.to_bits(), 64);
            }
            Reply::U64(x) => {
                v.push_bits(2, 8);
                v.push_bits(*x, 64);
            }
            Reply::Stats { keys, events } => {
                v.push_bits(3, 8);
                v.push_bits(*keys, 64);
                v.push_bits(*events, 64);
            }
            // Code 4 (encoded counter state) is retired: it decodes as
            // unknown and is never reused.
            Reply::Error(reason) => {
                v.push_bits(5, 8);
                write_label(v, reason);
            }
        }
    }

    fn decode(r: &mut BitReader<'_>) -> Result<Self, NetError> {
        let kind = take(r, 8)?;
        Ok(match kind {
            0 => Reply::Absent,
            1 => Reply::F64(f64::from_bits(take(r, 64)?)),
            2 => Reply::U64(take(r, 64)?),
            3 => Reply::Stats {
                keys: take(r, 64)?,
                events: take(r, 64)?,
            },
            5 => Reply::Error(read_label(r).ok_or(NetError::Malformed {
                what: "undecodable error label",
            })?),
            _ => {
                return Err(NetError::Malformed {
                    what: "unknown reply kind",
                })
            }
        })
    }
}

/// Every message the protocol speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection opener: version + identity + role claims. Everything
    /// else is refused until a `Hello` has been accepted.
    Hello {
        /// The protocol version the peer speaks.
        proto: u16,
        /// What the peer wants to be.
        role: Role,
        /// The peer's spec fingerprint (cheap pre-check).
        fingerprint: u64,
        /// The peer's full identity (authoritative check).
        identity: Identity,
        /// For [`Role::Ingest`]: the producer id to reclaim, or
        /// [`NEW_PRODUCER`] to mint a fresh one.
        producer: u64,
        /// For [`Role::Replica`]: the chain digest of the last segment
        /// the replica folded (0 = nothing yet).
        acked_chain: u64,
    },
    /// Handshake acceptance.
    HelloOk {
        /// The producer id this connection writes under (ingest only;
        /// [`NEW_PRODUCER`] otherwise).
        producer: u64,
        /// The last sequence number the server holds for this producer
        /// — the client replays strictly after it, which is the whole
        /// exactly-once contract.
        resume_after: u64,
        /// The server's published snapshot epoch at accept time.
        epoch: u64,
    },
    /// Handshake (or session) rejection; the connection closes after.
    Refused {
        /// Machine-readable cause.
        code: RefuseCode,
        /// Human-readable explanation.
        reason: String,
    },
    /// One ingest batch under the producer's own sequence numbering.
    Batch {
        /// Per-producer sequence number (starts at 1, gapless).
        seq: u64,
        /// `(key, delta)` pairs; never empty, deltas never zero.
        pairs: Vec<(u64, u64)>,
    },
    /// The server has durably accepted everything up to `seq`.
    BatchAck {
        /// High-water mark of accepted batches.
        seq: u64,
    },
    /// A read RPC request.
    ReadReq {
        /// Client-chosen correlation id.
        id: u64,
        /// The query.
        query: Query,
    },
    /// A read RPC response.
    ReadResp {
        /// Correlation id of the request.
        id: u64,
        /// The snapshot epoch the query was served at.
        epoch: u64,
        /// The result.
        reply: Reply,
    },
    /// One checkpoint segment (full or delta) of the primary's
    /// replication chain, verbatim — the checkpoint format's own
    /// header checksums and chain digests ride along unchanged.
    ReplSegment {
        /// The raw checkpoint bytes.
        bytes: Vec<u8>,
    },
    /// The replica has folded the segment whose chain digest this is.
    ReplAck {
        /// Chain digest of the folded tip.
        chain: u64,
    },
    /// Clean goodbye.
    Bye,
}

const TAG_HELLO: u64 = 1;
const TAG_HELLO_OK: u64 = 2;
const TAG_REFUSED: u64 = 3;
const TAG_BATCH: u64 = 4;
const TAG_BATCH_ACK: u64 = 5;
const TAG_READ_REQ: u64 = 6;
const TAG_READ_RESP: u64 = 7;
const TAG_REPL_SEGMENT: u64 = 8;
const TAG_REPL_ACK: u64 = 9;
const TAG_BYE: u64 = 10;

fn take(r: &mut BitReader<'_>, width: u32) -> Result<u64, NetError> {
    r.try_read_bits(width).ok_or(NetError::Truncated)
}

/// Byte blobs ride as a 32-bit length plus packed 64-bit words (the
/// tail word zero-padded), so multi-megabyte checkpoint segments cost
/// one `push_bits` per eight bytes rather than per byte.
fn push_bytes(v: &mut BitVec, bytes: &[u8]) {
    v.push_bits(bytes.len() as u64, 32);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        v.push_bits(u64::from_le_bytes(word), 64);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut word = [0u8; 8];
        word[..rem.len()].copy_from_slice(rem);
        v.push_bits(u64::from_le_bytes(word), (rem.len() * 8) as u32);
    }
}

fn take_bytes(r: &mut BitReader<'_>) -> Result<Vec<u8>, NetError> {
    let len = take(r, 32)? as usize;
    if len as u64 > MAX_FRAME_BYTES {
        return Err(NetError::Oversize { len: len as u64 });
    }
    let mut out = Vec::with_capacity(len);
    let mut left = len;
    while left >= 8 {
        out.extend_from_slice(&take(r, 64)?.to_le_bytes());
        left -= 8;
    }
    if left > 0 {
        let word = take(r, (left * 8) as u32)?.to_le_bytes();
        out.extend_from_slice(&word[..left]);
    }
    Ok(out)
}

fn push_spec(v: &mut BitVec, spec: &CounterSpec) {
    let words = spec.encode_words();
    v.push_bits(words.len() as u64, 8);
    for w in words {
        v.push_bits(w, 64);
    }
}

fn take_spec(r: &mut BitReader<'_>) -> Result<CounterSpec, NetError> {
    let count = take(r, 8)? as usize;
    if count > 16 {
        return Err(NetError::Malformed {
            what: "implausible spec word count",
        });
    }
    let mut words = Vec::with_capacity(count);
    for _ in 0..count {
        words.push(take(r, 64)?);
    }
    CounterSpec::decode_words(&words).map_err(|_| NetError::Malformed {
        what: "undecodable counter spec",
    })
}

impl Frame {
    /// Serializes the frame into its complete wire bytes:
    /// `[len][body][checksum]`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut v = BitVec::new();
        match self {
            Frame::Hello {
                proto,
                role,
                fingerprint,
                identity,
                producer,
                acked_chain,
            } => {
                v.push_bits(TAG_HELLO, 8);
                let tok = begin_section(&mut v);
                v.push_bits(u64::from(*proto), 16);
                v.push_bits(role.to_bits(), 8);
                v.push_bits(*fingerprint, 64);
                push_spec(&mut v, &identity.spec);
                v.push_bits(u64::from(identity.shards), 32);
                v.push_bits(identity.seed, 64);
                v.push_bits(*producer, 64);
                v.push_bits(*acked_chain, 64);
                end_section(&mut v, tok);
            }
            Frame::HelloOk {
                producer,
                resume_after,
                epoch,
            } => {
                v.push_bits(TAG_HELLO_OK, 8);
                let tok = begin_section(&mut v);
                v.push_bits(*producer, 64);
                v.push_bits(*resume_after, 64);
                v.push_bits(*epoch, 64);
                end_section(&mut v, tok);
            }
            Frame::Refused { code, reason } => {
                v.push_bits(TAG_REFUSED, 8);
                let tok = begin_section(&mut v);
                v.push_bits(code.to_bits(), 8);
                write_label(&mut v, reason);
                end_section(&mut v, tok);
            }
            Frame::Batch { seq, pairs } => {
                v.push_bits(TAG_BATCH, 8);
                let tok = begin_section(&mut v);
                v.push_bits(*seq, 64);
                v.push_bits(pairs.len() as u64, 32);
                for &(key, delta) in pairs {
                    v.push_bits(key, 64);
                    v.push_bits(delta, 64);
                }
                end_section(&mut v, tok);
            }
            Frame::BatchAck { seq } => {
                v.push_bits(TAG_BATCH_ACK, 8);
                let tok = begin_section(&mut v);
                v.push_bits(*seq, 64);
                end_section(&mut v, tok);
            }
            Frame::ReadReq { id, query } => {
                v.push_bits(TAG_READ_REQ, 8);
                let tok = begin_section(&mut v);
                v.push_bits(*id, 64);
                query.encode(&mut v);
                end_section(&mut v, tok);
            }
            Frame::ReadResp { id, epoch, reply } => {
                v.push_bits(TAG_READ_RESP, 8);
                let tok = begin_section(&mut v);
                v.push_bits(*id, 64);
                v.push_bits(*epoch, 64);
                reply.encode(&mut v);
                end_section(&mut v, tok);
            }
            Frame::ReplSegment { bytes } => {
                v.push_bits(TAG_REPL_SEGMENT, 8);
                let tok = begin_section(&mut v);
                push_bytes(&mut v, bytes);
                end_section(&mut v, tok);
            }
            Frame::ReplAck { chain } => {
                v.push_bits(TAG_REPL_ACK, 8);
                let tok = begin_section(&mut v);
                v.push_bits(*chain, 64);
                end_section(&mut v, tok);
            }
            Frame::Bye => {
                v.push_bits(TAG_BYE, 8);
                let tok = begin_section(&mut v);
                end_section(&mut v, tok);
            }
        }
        let mut body = v.to_bytes();
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parses one frame body (`[body][checksum]`, the bytes after the
    /// length prefix).
    ///
    /// # Errors
    ///
    /// [`NetError::ChecksumMismatch`] / [`NetError::Truncated`] /
    /// [`NetError::Malformed`] / [`NetError::UnknownFrame`] — every
    /// corruption is a typed rejection.
    pub fn parse_body(body: &[u8]) -> Result<Frame, NetError> {
        if body.len() < 9 {
            return Err(NetError::Truncated);
        }
        let (payload, sum_bytes) = body.split_at(body.len() - 8);
        let declared = u64::from_le_bytes(sum_bytes.try_into().expect("8-byte checksum"));
        if checksum(payload) != declared {
            return Err(NetError::ChecksumMismatch);
        }
        let v = BitVec::from_bytes(payload);
        let mut r = BitReader::new(&v);
        let tag = take(&mut r, 8)?;
        let section_bits = read_section(&mut r).ok_or(NetError::Truncated)?;
        let start = r.position();
        if section_bits > v.len().saturating_sub(start) {
            return Err(NetError::Truncated);
        }
        let frame = match tag {
            TAG_HELLO => {
                let proto = take(&mut r, 16)? as u16;
                let role = Role::from_bits(take(&mut r, 8)?).ok_or(NetError::Malformed {
                    what: "unknown role",
                })?;
                let fingerprint = take(&mut r, 64)?;
                let spec = take_spec(&mut r)?;
                let shards = take(&mut r, 32)? as u32;
                let seed = take(&mut r, 64)?;
                let producer = take(&mut r, 64)?;
                let acked_chain = take(&mut r, 64)?;
                Frame::Hello {
                    proto,
                    role,
                    fingerprint,
                    identity: Identity { spec, shards, seed },
                    producer,
                    acked_chain,
                }
            }
            TAG_HELLO_OK => Frame::HelloOk {
                producer: take(&mut r, 64)?,
                resume_after: take(&mut r, 64)?,
                epoch: take(&mut r, 64)?,
            },
            TAG_REFUSED => {
                let code = RefuseCode::from_bits(take(&mut r, 8)?).ok_or(NetError::Malformed {
                    what: "unknown refuse code",
                })?;
                let reason = read_label(&mut r).ok_or(NetError::Malformed {
                    what: "undecodable refuse reason",
                })?;
                Frame::Refused { code, reason }
            }
            TAG_BATCH => {
                let seq = take(&mut r, 64)?;
                let count = take(&mut r, 32)? as usize;
                // Each pair costs 128 bits; a count the section cannot
                // hold is corruption, not something to allocate for.
                if count as u64 > section_bits / 128 + 1 {
                    return Err(NetError::Malformed {
                        what: "batch pair count exceeds section",
                    });
                }
                let mut pairs = Vec::with_capacity(count);
                for _ in 0..count {
                    pairs.push((take(&mut r, 64)?, take(&mut r, 64)?));
                }
                Frame::Batch { seq, pairs }
            }
            TAG_BATCH_ACK => Frame::BatchAck {
                seq: take(&mut r, 64)?,
            },
            TAG_READ_REQ => Frame::ReadReq {
                id: take(&mut r, 64)?,
                query: Query::decode(&mut r)?,
            },
            TAG_READ_RESP => {
                let id = take(&mut r, 64)?;
                let epoch = take(&mut r, 64)?;
                let reply = Reply::decode(&mut r)?;
                Frame::ReadResp { id, epoch, reply }
            }
            TAG_REPL_SEGMENT => Frame::ReplSegment {
                bytes: take_bytes(&mut r)?,
            },
            TAG_REPL_ACK => Frame::ReplAck {
                chain: take(&mut r, 64)?,
            },
            TAG_BYE => Frame::Bye,
            other => {
                return Err(NetError::UnknownFrame { tag: other as u8 });
            }
        };
        if r.position() - start != section_bits {
            return Err(NetError::Malformed {
                what: "section length disagrees with fields",
            });
        }
        Ok(frame)
    }
}
