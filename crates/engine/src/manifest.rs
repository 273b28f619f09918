//! The on-disk store manifest: a small, append-only, line-checksummed
//! index of a durability directory, written by the
//! [`BackgroundCheckpointer`](crate::checkpointer::BackgroundCheckpointer) and read by
//! `Store::open` to discover what a directory holds without parsing every
//! frame.
//!
//! ## Format
//!
//! A text file (`store.manifest`) of one header line plus one line per
//! written frame, each line ending in its own FNV-1a checksum:
//!
//! ```text
//! acstore v1 spec=<hex,…> shards=<n> seed=<hex> [tiers=<hex,…;…> budget=<n>] sum=<hex>
//! frame session=<n> file=<name> kind=<full|delta> epoch=<n> events=<n>
//!       keys=<n> chain=<hex> parent=<hex> marks=<p:enq:app,…|-> sum=<hex>
//! ```
//!
//! The header records the [`CounterSpec`] (as its stable word encoding)
//! and the [`EngineConfig`] — everything `Store::open` needs to rebuild
//! the template before any frame is touched. A **tiered** store
//! additionally records its tier ladder (each rung's spec word-encoded,
//! rungs `;`-separated) and bit budget: `Store::open` must know the
//! ladder before parsing any version-3 frame. The tokens are trailing
//! and optional, so pre-tiering loaders (which ignore tokens past
//! `seed=`) still read a tiered manifest's spec and config. Frame lines
//! carry the frame file name, its chain digests (so candidate chains are
//! discoverable without reading frame files), and the per-producer
//! applied sequence marks at the frame's freeze (the exactly-once replay
//! cursor).
//!
//! ## Crash behavior
//!
//! Frame files are fsynced before their line is appended, and the append
//! itself is fsynced, so a listed frame's bytes are durable before the
//! listing is. A crash mid-append leaves a torn final line, which fails
//! its per-line checksum; the loader **skips** any bad frame line and
//! keeps parsing — every line seals itself, so later intact lines are
//! still trustworthy, and a new session appending after a torn tail
//! (the appender starts a fresh line when the file does not end in a
//! newline) stays discoverable. Frame-level integrity never rests on
//! the manifest alone: chains are re-validated by their own checksums
//! and chain digests at restore. A bad **header** is unrecoverable and
//! surfaces as [`EngineError::ManifestCorrupt`].

use crate::checkpoint::CheckpointKind;
use crate::error::EngineError;
use crate::ingest::ProducerMark;
use crate::registry::EngineConfig;
use ac_core::CounterSpec;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File name of the manifest inside a durability directory.
pub(crate) const MANIFEST_FILE: &str = "store.manifest";

/// The tiering identity a manifest header pins for a tiered store: the
/// ladder's specs (rung 0 = default) and the global bit budget. Part of
/// the durable identity — a directory written under one ladder cannot be
/// reopened under another, because its version-3 frames are fingerprinted
/// (and their states encoded) against that exact ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestTiering {
    /// The tier ladder, cheapest first.
    pub ladder: Vec<CounterSpec>,
    /// The global ceiling on total counter-state bits.
    pub budget_bits: u64,
}

/// What the checkpointer needs to know to keep a manifest: the spec and
/// config the header pins, and this process's session number (frame
/// files are namespaced per session so restarted stores never clobber
/// earlier frames).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ManifestInfo {
    /// The runtime family specification recorded in the header.
    pub(crate) spec: CounterSpec,
    /// The engine configuration recorded in the header.
    pub(crate) config: EngineConfig,
    /// This writer session's number (0 for the first; `Store::open`
    /// continues at [`Manifest::next_session`]).
    pub(crate) session: u64,
    /// The tier ladder and budget, for a tiered store.
    pub(crate) tiering: Option<ManifestTiering>,
}

/// One frame line of the manifest.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ManifestFrame {
    /// The writer session that produced the frame.
    pub session: u64,
    /// Frame file name, relative to the directory.
    pub file: String,
    /// Full or delta.
    pub kind: CheckpointKind,
    /// Freeze epoch of the frame.
    pub epoch: u64,
    /// Engine events at the frame's freeze.
    pub events: u64,
    /// Engine keys at the frame's freeze.
    pub keys: u64,
    /// The frame's own chain digest.
    pub chain: u64,
    /// The parent's chain digest (0 for a full frame).
    pub parent_chain: u64,
    /// Per-producer sequence marks at the frame's freeze — the replay
    /// cursor for exactly-once recovery.
    pub marks: Vec<ProducerMark>,
}

/// A parsed manifest: the header plus every intact frame line, in write
/// order.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Manifest {
    /// The runtime family specification from the header.
    pub spec: CounterSpec,
    /// The engine configuration from the header.
    pub config: EngineConfig,
    /// The tier ladder and budget from the header, when the directory
    /// belongs to a tiered store.
    pub tiering: Option<ManifestTiering>,
    /// Intact frame lines, oldest first (a torn tail line and anything
    /// after it are dropped at load).
    pub frames: Vec<ManifestFrame>,
}

/// FNV-1a over a line's content — the same cheap integrity check the
/// checkpoint payloads use, applied per line.
fn line_checksum(content: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in content.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn seal(mut line: String) -> String {
    let sum = line_checksum(&line);
    let _ = write!(line, " sum={sum:016x}");
    line
}

/// Splits a sealed line into (content, stored checksum); `None` when the
/// seal is missing or unparseable.
fn unseal(line: &str) -> Option<&str> {
    let (content, sum) = line.rsplit_once(" sum=")?;
    let stored = u64::from_str_radix(sum, 16).ok()?;
    (stored == line_checksum(content)).then_some(content)
}

fn field<'a>(tokens: &mut impl Iterator<Item = &'a str>, key: &str) -> Option<&'a str> {
    tokens.next()?.strip_prefix(key)
}

fn parse_u64(s: &str) -> Option<u64> {
    s.parse().ok()
}

fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

impl Manifest {
    /// The manifest path inside `dir`.
    #[must_use]
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// The session number a new writer over this directory should use.
    #[must_use]
    pub fn next_session(&self) -> u64 {
        self.frames.iter().map(|f| f.session + 1).max().unwrap_or(0)
    }

    /// Loads and verifies the manifest in `dir`.
    ///
    /// # Errors
    ///
    /// [`EngineError::ManifestMissing`] when no manifest file exists,
    /// [`EngineError::ManifestCorrupt`] for an empty file or a bad
    /// header, [`EngineError::Io`] for underlying read failures. Torn or
    /// corrupt **frame** lines are not errors: the intact prefix loads
    /// (see the module docs).
    pub fn load(dir: &Path) -> Result<Self, EngineError> {
        let path = Self::path_in(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(EngineError::ManifestMissing { path })
            }
            Err(e) => return Err(e.into()),
        };
        let corrupt = |what: &str| EngineError::ManifestCorrupt { what: what.into() };
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| corrupt("empty manifest"))?;
        let header = unseal(header).ok_or_else(|| corrupt("header checksum mismatch"))?;
        let mut tokens = header.split_whitespace();
        if tokens.next() != Some("acstore") || tokens.next() != Some("v1") {
            return Err(corrupt("bad magic or version"));
        }
        let spec_words: Vec<u64> = field(&mut tokens, "spec=")
            .ok_or_else(|| corrupt("missing spec"))?
            .split(',')
            .map(parse_hex)
            .collect::<Option<_>>()
            .ok_or_else(|| corrupt("unparseable spec words"))?;
        let spec = CounterSpec::decode_words(&spec_words)
            .map_err(|e| corrupt(&format!("invalid counter spec: {e}")))?;
        let shards = field(&mut tokens, "shards=")
            .and_then(parse_u64)
            .ok_or_else(|| corrupt("missing shard count"))?;
        let seed = field(&mut tokens, "seed=")
            .and_then(parse_hex)
            .ok_or_else(|| corrupt("missing seed"))?;
        let config = EngineConfig::new()
            .with_shards(shards as usize)
            .with_seed(seed);

        // Trailing tokens are the extension point: pre-tiering headers
        // stop at seed=, tiered headers add tiers= and budget=. Either
        // both tokens appear or neither — half a tiering is corrupt.
        let tiering = match field(&mut tokens, "tiers=") {
            None => None,
            Some(rungs) => {
                let ladder: Vec<CounterSpec> = rungs
                    .split(';')
                    .map(|rung| {
                        let words: Vec<u64> =
                            rung.split(',').map(parse_hex).collect::<Option<_>>()?;
                        CounterSpec::decode_words(&words).ok()
                    })
                    .collect::<Option<_>>()
                    .ok_or_else(|| corrupt("unparseable tier ladder"))?;
                let budget_bits = field(&mut tokens, "budget=")
                    .and_then(parse_u64)
                    .ok_or_else(|| corrupt("tier ladder without a budget"))?;
                Some(ManifestTiering {
                    ladder,
                    budget_bits,
                })
            }
        };

        let mut frames = Vec::new();
        for line in lines {
            // A torn or corrupt frame line is skipped, not fatal: each
            // line carries its own checksum, so the lines around it stay
            // trustworthy (see the module docs on crash behavior).
            if let Some(frame) = unseal(line).and_then(Self::parse_frame) {
                frames.push(frame);
            }
        }
        Ok(Self {
            spec,
            config,
            tiering,
            frames,
        })
    }

    fn parse_frame(content: &str) -> Option<ManifestFrame> {
        let mut t = content.split_whitespace();
        if t.next() != Some("frame") {
            return None;
        }
        let session = field(&mut t, "session=").and_then(parse_u64)?;
        let file = field(&mut t, "file=")?.to_string();
        let kind = match field(&mut t, "kind=")? {
            "full" => CheckpointKind::Full,
            "delta" => CheckpointKind::Delta,
            _ => return None,
        };
        let epoch = field(&mut t, "epoch=").and_then(parse_u64)?;
        let events = field(&mut t, "events=").and_then(parse_u64)?;
        let keys = field(&mut t, "keys=").and_then(parse_u64)?;
        let chain = field(&mut t, "chain=").and_then(parse_hex)?;
        let parent_chain = field(&mut t, "parent=").and_then(parse_hex)?;
        let marks_str = field(&mut t, "marks=")?;
        let marks = if marks_str == "-" {
            Vec::new()
        } else {
            marks_str
                .split(',')
                .map(|m| {
                    let mut parts = m.split(':');
                    let producer = parse_u64(parts.next()?)?;
                    let enqueued_seq = parse_u64(parts.next()?)?;
                    let applied_seq = parse_u64(parts.next()?)?;
                    parts.next().is_none().then_some(ProducerMark {
                        producer,
                        enqueued_seq,
                        applied_seq,
                    })
                })
                .collect::<Option<_>>()?
        };
        t.next().is_none().then_some(ManifestFrame {
            session,
            file,
            kind,
            epoch,
            events,
            keys,
            chain,
            parent_chain,
            marks,
        })
    }

    /// Renders the header line for `spec`/`config` (sealed), with the
    /// optional trailing tiering tokens.
    fn header_line(
        spec: &CounterSpec,
        config: &EngineConfig,
        tiering: Option<&ManifestTiering>,
    ) -> String {
        let hex_words = |s: &CounterSpec| {
            s.encode_words()
                .iter()
                .map(|w| format!("{w:x}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut line = format!(
            "acstore v1 spec={} shards={} seed={:x}",
            hex_words(spec),
            config.shards,
            config.seed
        );
        if let Some(t) = tiering {
            let rungs: Vec<String> = t.ladder.iter().map(hex_words).collect();
            let _ = write!(line, " tiers={} budget={}", rungs.join(";"), t.budget_bits);
        }
        seal(line)
    }

    /// Creates the manifest header in `dir` if absent; if present,
    /// verifies the existing header pins the same spec and config.
    ///
    /// # Errors
    ///
    /// [`EngineError::ManifestCorrupt`] when an existing manifest
    /// disagrees (a directory must never silently serve two different
    /// deployments), plus load/I/O errors.
    pub(crate) fn ensure(
        dir: &Path,
        spec: &CounterSpec,
        config: &EngineConfig,
        tiering: Option<&ManifestTiering>,
    ) -> Result<(), EngineError> {
        match Self::load(dir) {
            Ok(existing) => {
                if existing.spec != *spec {
                    return Err(EngineError::ManifestCorrupt {
                        what: format!(
                            "directory belongs to family {}, store configured for {}",
                            existing.spec, spec
                        ),
                    });
                }
                if existing.config != *config {
                    return Err(EngineError::ManifestCorrupt {
                        what: format!(
                            "directory pins config {:?}, store configured with {:?}",
                            existing.config, config
                        ),
                    });
                }
                if existing.tiering.as_ref() != tiering {
                    // The ladder is part of the durable identity: v3
                    // frames encode states against it, so a directory
                    // cannot change (or gain, or lose) tiering in place.
                    return Err(EngineError::ManifestCorrupt {
                        what: format!(
                            "directory pins tiering {:?}, store configured with {:?}",
                            existing.tiering, tiering
                        ),
                    });
                }
                Ok(())
            }
            Err(EngineError::ManifestMissing { .. }) => {
                let line = Self::header_line(spec, config, tiering);
                let mut f = std::fs::File::create(Self::path_in(dir))?;
                writeln!(f, "{line}")?;
                f.sync_all()?;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Renders one sealed frame line.
    fn frame_line(frame: &ManifestFrame) -> String {
        let marks = if frame.marks.is_empty() {
            "-".to_string()
        } else {
            frame
                .marks
                .iter()
                .map(|m| format!("{}:{}:{}", m.producer, m.enqueued_seq, m.applied_seq))
                .collect::<Vec<_>>()
                .join(",")
        };
        let kind = match frame.kind {
            CheckpointKind::Full => "full",
            CheckpointKind::Delta => "delta",
        };
        seal(format!(
            "frame session={} file={} kind={kind} epoch={} events={} keys={} \
             chain={:016x} parent={:016x} marks={marks}",
            frame.session,
            frame.file,
            frame.epoch,
            frame.events,
            frame.keys,
            frame.chain,
            frame.parent_chain
        ))
    }

    /// Appends one frame line (after the frame file is durably written).
    pub(crate) fn append_frame(dir: &Path, frame: &ManifestFrame) -> std::io::Result<()> {
        let line = Self::frame_line(frame);
        let path = Manifest::path_in(dir);
        // A crash can leave the file without a trailing newline (torn
        // final line); start a fresh line so this frame's line seals on
        // its own instead of merging into the torn fragment.
        let torn_tail = !std::fs::read(&path)?.ends_with(b"\n");
        let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
        if torn_tail {
            writeln!(f)?;
        }
        writeln!(f, "{line}")?;
        // The line is the commit point of the frame: make it durable
        // before the writer moves on (the frame file was synced first).
        f.sync_all()
    }

    /// Atomically replaces the whole manifest with `frames` under the
    /// same header — the compaction commit point. The new text is
    /// written to a temp file, fsynced, then renamed over
    /// the manifest file (and the directory fsynced), so readers see
    /// either the old chain or the new one in full; a crash anywhere
    /// before the rename leaves the old manifest — and the chain it
    /// lists — untouched and valid.
    pub(crate) fn rewrite(
        dir: &Path,
        spec: &CounterSpec,
        config: &EngineConfig,
        tiering: Option<&ManifestTiering>,
        frames: &[ManifestFrame],
    ) -> std::io::Result<()> {
        let mut text = Self::header_line(spec, config, tiering);
        text.push('\n');
        for frame in frames {
            text.push_str(&Self::frame_line(frame));
            text.push('\n');
        }
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, Self::path_in(dir))?;
        // Rename durability needs the *directory* entry synced.
        std::fs::File::open(dir)?.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CounterSpec {
        CounterSpec::NelsonYu {
            eps: 0.2,
            delta_log2: 8,
        }
    }

    fn cfg() -> EngineConfig {
        EngineConfig::new().with_shards(4).with_seed(0xABCD)
    }

    fn frame(session: u64, seq: u64, kind: CheckpointKind) -> ManifestFrame {
        ManifestFrame {
            session,
            file: format!("ckpt-{session:03}-{seq:05}.bin"),
            kind,
            epoch: seq + 1,
            events: 100 * (seq + 1),
            keys: 10 * (seq + 1),
            chain: 0xDEAD_0000 + seq,
            parent_chain: if kind == CheckpointKind::Full {
                0
            } else {
                0xDEAD_0000 + seq - 1
            },
            marks: vec![ProducerMark {
                producer: 0,
                enqueued_seq: seq + 2,
                applied_seq: seq + 1,
            }],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ac-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn header_and_frames_round_trip() {
        let dir = tmp_dir("roundtrip");
        Manifest::ensure(&dir, &spec(), &cfg(), None).unwrap();
        let f0 = frame(0, 0, CheckpointKind::Full);
        let f1 = frame(0, 1, CheckpointKind::Delta);
        Manifest::append_frame(&dir, &f0).unwrap();
        Manifest::append_frame(&dir, &f1).unwrap();

        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.spec, spec());
        assert_eq!(m.config, cfg());
        assert_eq!(m.frames, vec![f0, f1]);
        assert_eq!(m.next_session(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_swaps_the_whole_chain_atomically() {
        let dir = tmp_dir("rewrite");
        Manifest::ensure(&dir, &spec(), &cfg(), None).unwrap();
        for seq in 0..4 {
            let kind = if seq == 0 {
                CheckpointKind::Full
            } else {
                CheckpointKind::Delta
            };
            Manifest::append_frame(&dir, &frame(0, seq, kind)).unwrap();
        }

        // The compaction commit: a folded base aliasing the old tip,
        // plus the one delta that was cut while the fold ran.
        let mut cbase = frame(0, 9, CheckpointKind::Full);
        cbase.file = "ckpt-000-c00009-full.bin".to_string();
        cbase.parent_chain = 0xDEAD_0002; // folded tip's chain digest
        let tail = frame(0, 3, CheckpointKind::Delta);
        Manifest::rewrite(&dir, &spec(), &cfg(), None, &[cbase.clone(), tail.clone()]).unwrap();

        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.spec, spec(), "header survives the swap");
        assert_eq!(m.config, cfg());
        assert_eq!(m.frames, vec![cbase, tail.clone()]);
        assert_eq!(m.next_session(), 1);
        assert!(
            !dir.join("store.manifest.tmp").exists(),
            "temp file consumed by the rename"
        );

        // Appends after a rewrite keep working on the swapped file.
        let f4 = frame(0, 4, CheckpointKind::Delta);
        Manifest::append_frame(&dir, &f4).unwrap();
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.frames.len(), 3);
        assert_eq!(m.frames[2], f4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_empty_manifests_are_typed() {
        let dir = tmp_dir("missing");
        assert!(matches!(
            Manifest::load(&dir),
            Err(EngineError::ManifestMissing { .. })
        ));
        std::fs::write(Manifest::path_in(&dir), "").unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(EngineError::ManifestCorrupt { .. })
        ));
        std::fs::write(Manifest::path_in(&dir), "not a manifest at all\n").unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(EngineError::ManifestCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_frame_line_is_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        Manifest::ensure(&dir, &spec(), &cfg(), None).unwrap();
        let f0 = frame(0, 0, CheckpointKind::Full);
        Manifest::append_frame(&dir, &f0).unwrap();
        // Simulate a crash mid-append: write half a line, no newline.
        let mut text = std::fs::read_to_string(Manifest::path_in(&dir)).unwrap();
        text.push_str("frame session=0 file=ckpt-000-00001.bin kind=delta epo");
        std::fs::write(Manifest::path_in(&dir), text).unwrap();

        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.frames, vec![f0.clone()], "torn tail line is skipped");

        // A new session appending after the torn fragment must start a
        // fresh line: its frame stays discoverable, and the fragment
        // stays an isolated bad line.
        let f1 = frame(1, 1, CheckpointKind::Full);
        Manifest::append_frame(&dir, &f1).unwrap();
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.frames, vec![f0, f1], "post-crash appends are visible");
        assert_eq!(m.next_session(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_mid_file_line_is_skipped_not_poisoning() {
        let dir = tmp_dir("midbad");
        Manifest::ensure(&dir, &spec(), &cfg(), None).unwrap();
        let f0 = frame(0, 0, CheckpointKind::Full);
        Manifest::append_frame(&dir, &f0).unwrap();
        // Corrupt the f0 line in place, then append an intact line.
        let path = Manifest::path_in(&dir);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("events=100", "events=999");
        std::fs::write(&path, text).unwrap();
        let f1 = frame(0, 1, CheckpointKind::Delta);
        Manifest::append_frame(&dir, &f1).unwrap();
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.frames, vec![f1], "bad line skipped, later line kept");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ensure_refuses_a_different_deployment() {
        let dir = tmp_dir("mismatch");
        Manifest::ensure(&dir, &spec(), &cfg(), None).unwrap();
        // Same spec + config: idempotent.
        Manifest::ensure(&dir, &spec(), &cfg(), None).unwrap();
        // Different family: refused.
        assert!(matches!(
            Manifest::ensure(&dir, &CounterSpec::Exact, &cfg(), None),
            Err(EngineError::ManifestCorrupt { .. })
        ));
        // Different config: refused.
        assert!(matches!(
            Manifest::ensure(&dir, &spec(), &cfg().with_shards(8), None),
            Err(EngineError::ManifestCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_header_byte_is_detected() {
        let dir = tmp_dir("flip");
        Manifest::ensure(&dir, &spec(), &cfg(), None).unwrap();
        let mut text = std::fs::read_to_string(Manifest::path_in(&dir)).unwrap();
        // Flip one character inside the spec words.
        let at = text.find("spec=").unwrap() + 5;
        let mut bytes = text.clone().into_bytes();
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        text = String::from_utf8(bytes).unwrap();
        std::fs::write(Manifest::path_in(&dir), text).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(EngineError::ManifestCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
