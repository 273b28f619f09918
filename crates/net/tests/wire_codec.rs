//! Property tests for the frame codec: round trips are exact, and
//! every corruption — a flipped bit, a truncation, an oversize
//! declaration, a spliced body — is a *typed* rejection, never a
//! panic and never a silently different frame.

use ac_core::CounterSpec;
use ac_net::wire::{checksum, MAX_FRAME_BYTES};
use ac_net::{Frame, Identity, NetError, Query, RefuseCode, Reply, Role, PROTO_VERSION};
use proptest::prelude::*;

/// Mirrors `FrameConn`'s framing logic on a byte slice (no socket):
/// length prefix, oversize guard, then body parse.
fn parse_wire(bytes: &[u8]) -> Result<Frame, NetError> {
    if bytes.len() < 4 {
        return Err(NetError::Truncated);
    }
    let len = u64::from(u32::from_le_bytes(
        bytes[..4].try_into().expect("4-byte prefix"),
    ));
    if len > MAX_FRAME_BYTES {
        return Err(NetError::Oversize { len });
    }
    if len < 9 || (bytes.len() as u64) < 4 + len {
        return Err(NetError::Truncated);
    }
    Frame::parse_body(&bytes[4..4 + len as usize])
}

fn spec_from(sel: u64) -> CounterSpec {
    match sel % 5 {
        0 => CounterSpec::Exact,
        1 => CounterSpec::Morris {
            a: 1.0 + (sel / 5 % 8) as f64,
        },
        2 => CounterSpec::MorrisPlus {
            eps: 0.1 + 0.1 * (sel / 5 % 3) as f64,
            delta_log2: 4 + (sel / 40 % 6) as u32,
        },
        3 => CounterSpec::NelsonYu {
            eps: 0.1 + 0.1 * (sel / 5 % 3) as f64,
            delta_log2: 4 + (sel / 40 % 6) as u32,
        },
        _ => CounterSpec::Csuros {
            mantissa_bits: 4 + (sel / 5 % 8) as u32,
        },
    }
}

fn label_from(blob: &[u8]) -> String {
    blob.iter()
        .map(|&b| char::from(b'a' + b % 26))
        .collect::<String>()
}

fn refuse_code_from(sel: u64) -> RefuseCode {
    match sel % 6 {
        0 => RefuseCode::Version,
        1 => RefuseCode::Identity,
        2 => RefuseCode::Busy,
        3 => RefuseCode::Protocol,
        4 => RefuseCode::Shutdown,
        _ => RefuseCode::Unsupported,
    }
}

fn query_from(sel: u64, x: u64) -> Query {
    match sel % 6 {
        0 => Query::Estimate { key: x },
        1 => Query::MergedEstimate,
        2 => Query::TotalEvents,
        3 => Query::Len,
        4 => Query::Stats,
        _ => Query::ReplTip,
    }
}

fn reply_from(sel: u64, x: u64, blob: &[u8]) -> Reply {
    match sel % 5 {
        0 => Reply::Absent,
        // Mask the exponent so the value is finite (NaN breaks the
        // round-trip equality this test relies on).
        1 => Reply::F64(f64::from_bits(x & !(0x7ff << 52))),
        2 => Reply::U64(x),
        3 => Reply::Stats {
            keys: x,
            events: x.rotate_left(17),
        },
        _ => Reply::Error(label_from(blob)),
    }
}

/// Deterministically builds one frame of any kind from drawn raw
/// material — the stub proptest has no union strategy, so selection
/// rides in `kind`.
fn frame_from(kind: u64, a: u64, b: u64, pairs: &[(u64, u64)], blob: &[u8]) -> Frame {
    match kind % 10 {
        0 => {
            let identity = Identity {
                spec: spec_from(a),
                shards: 1 + (b % 64) as u32,
                seed: a ^ b,
            };
            Frame::Hello {
                proto: PROTO_VERSION,
                role: match b % 3 {
                    0 => Role::Ingest,
                    1 => Role::Reader,
                    _ => Role::Replica,
                },
                fingerprint: identity.fingerprint(),
                identity,
                producer: a,
                acked_chain: b,
            }
        }
        1 => Frame::HelloOk {
            producer: a,
            resume_after: b,
            epoch: a ^ b,
        },
        2 => Frame::Refused {
            code: refuse_code_from(a),
            reason: label_from(blob),
        },
        3 => Frame::Batch {
            seq: a,
            pairs: pairs.to_vec(),
        },
        4 => Frame::BatchAck { seq: a },
        5 => Frame::ReadReq {
            id: a,
            query: query_from(b, a),
        },
        6 => Frame::ReadResp {
            id: a,
            epoch: b,
            reply: reply_from(b, a, blob),
        },
        7 => Frame::ReplSegment {
            bytes: blob.to_vec(),
        },
        8 => Frame::ReplAck { chain: a },
        _ => Frame::Bye,
    }
}

proptest! {
    #[test]
    fn every_frame_round_trips_exactly(
        kind in 0u64..10,
        a in proptest::arbitrary::any::<u64>(),
        b in proptest::arbitrary::any::<u64>(),
        pairs in prop::collection::vec((proptest::arbitrary::any::<u64>(), 1u64..1_000_000), 1..40),
        blob in prop::collection::vec(proptest::arbitrary::any::<u8>(), 0..200),
    ) {
        let frame = frame_from(kind, a, b, &pairs, &blob);
        let bytes = frame.encode();
        let parsed = parse_wire(&bytes).expect("clean bytes parse");
        prop_assert_eq!(parsed, frame);
    }

    /// A single flipped bit anywhere — length prefix, tag, fields,
    /// checksum — surfaces as a typed error. (A length-prefix flip may
    /// also leave the stream waiting for bytes that never arrive,
    /// which the harness reports as `Truncated`.)
    #[test]
    fn any_single_bit_flip_is_rejected(
        kind in 0u64..10,
        a in proptest::arbitrary::any::<u64>(),
        b in proptest::arbitrary::any::<u64>(),
        pairs in prop::collection::vec((proptest::arbitrary::any::<u64>(), 1u64..1_000_000), 1..40),
        blob in prop::collection::vec(proptest::arbitrary::any::<u8>(), 0..200),
        pos_seed in proptest::arbitrary::any::<u64>(),
    ) {
        let frame = frame_from(kind, a, b, &pairs, &blob);
        let mut bytes = frame.encode();
        let bit = (pos_seed % (bytes.len() as u64 * 8)) as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            parse_wire(&bytes).is_err(),
            "bit {bit} of a {}-byte {:?} frame flipped unnoticed",
            bytes.len(),
            kind % 10
        );
    }

    /// Every strict prefix of a frame is rejected — never a frame.
    #[test]
    fn any_truncation_is_rejected(
        kind in 0u64..10,
        a in proptest::arbitrary::any::<u64>(),
        b in proptest::arbitrary::any::<u64>(),
        pairs in prop::collection::vec((proptest::arbitrary::any::<u64>(), 1u64..1_000_000), 1..40),
        blob in prop::collection::vec(proptest::arbitrary::any::<u8>(), 0..200),
        cut_seed in proptest::arbitrary::any::<u64>(),
    ) {
        let frame = frame_from(kind, a, b, &pairs, &blob);
        let bytes = frame.encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(
            parse_wire(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte frame parsed",
            bytes.len()
        );
    }

    /// Splicing one frame's length prefix onto another frame's body is
    /// caught by the length contract (and the checksum, which covers
    /// the body the length actually delimits).
    #[test]
    fn spliced_bodies_never_invent_a_third_frame(
        ka in 0u64..10,
        kb in 0u64..10,
        a in proptest::arbitrary::any::<u64>(),
        b in proptest::arbitrary::any::<u64>(),
        blob in prop::collection::vec(proptest::arbitrary::any::<u8>(), 0..60),
    ) {
        let pairs = [(a, 1 + b % 100)];
        let fa = frame_from(ka, a, b, &pairs, &blob);
        let fb = frame_from(kb, b, a, &pairs, &blob);
        let xa = fa.encode();
        let xb = fb.encode();
        let mut spliced = xa[..4].to_vec();
        spliced.extend_from_slice(&xb[4..]);
        // Only a splice that preserves the byte-exact body may parse,
        // and then only to the donor frame.
        if let Ok(parsed) = parse_wire(&spliced) {
            prop_assert_eq!(parsed, fb, "splice invented a third frame");
        }
    }
}

#[test]
fn checksum_is_fnv1a64() {
    // Reference vectors for the FNV-1a 64 constants, so the checksum
    // can never drift silently between protocol versions.
    assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(checksum(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn oversize_declarations_are_rejected_without_allocation() {
    let mut bytes = (u32::MAX).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 16]);
    assert!(matches!(
        parse_wire(&bytes),
        Err(NetError::Oversize { len }) if len == u64::from(u32::MAX)
    ));
}

/// `frame`'s wire bytes with the 8-bit kind field that distinguishes it
/// from `other` set to `kind`, and the checksum recomputed: a
/// well-formed frame carrying any kind byte. `other` has the same shape
/// and a kind differing from `frame`'s in its lowest bit.
fn with_kind(frame: &Frame, other: &Frame, kind: u8) -> Vec<u8> {
    let mut bytes = frame.encode();
    let theirs = other.encode();
    assert_eq!(bytes.len(), theirs.len(), "frames of one shape");
    // Fields pack least-significant bit first, so the lowest differing
    // bit is the kind field's first.
    let first = (0..bytes.len() * 8)
        .find(|&bit| (bytes[bit / 8] ^ theirs[bit / 8]) >> (bit % 8) & 1 == 1)
        .expect("the frames differ");
    for i in 0..8 {
        let bit = first + i;
        bytes[bit / 8] &= !(1 << (bit % 8));
        bytes[bit / 8] |= ((kind >> i) & 1) << (bit % 8);
    }
    let end = bytes.len() - 8;
    let sum = checksum(&bytes[4..end]);
    bytes[end..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn retired_query_and_reply_kinds_are_typed_rejections() {
    let ask = |query| Frame::ReadReq { id: 9, query };
    let (merged, total) = (ask(Query::MergedEstimate), ask(Query::TotalEvents));
    assert_eq!(
        parse_wire(&with_kind(&merged, &total, 5)).unwrap(),
        ask(Query::Len)
    );
    // Codes 2 (the merged counter state) and 3 (the tiered merge) stay
    // reserved: the other codes keep their numbers.
    for code in [2, 3] {
        assert!(
            matches!(
                parse_wire(&with_kind(&merged, &total, code)),
                Err(NetError::Malformed { .. })
            ),
            "query code {code}"
        );
    }

    let answer = |reply| Frame::ReadResp {
        id: 9,
        epoch: 3,
        reply,
    };
    let (counted, float) = (answer(Reply::U64(0)), answer(Reply::F64(0.0)));
    assert_eq!(parse_wire(&with_kind(&counted, &float, 1)).unwrap(), float);
    assert!(
        matches!(
            parse_wire(&with_kind(&counted, &float, 4)),
            Err(NetError::Malformed { .. })
        ),
        "reply code 4 (encoded counter state)"
    );
}
