//! Snapshot files: a validated header wrapping an opaque payload.
//!
//! Writing is atomic: the bytes go to a temp file in the same directory,
//! the temp file is fsync'd, then renamed over the target. A crash at any
//! point leaves either the old snapshot or the new one — never a torn mix.
//!
//! Reading validates, in order: magic bytes, format version, snapshot
//! kind, payload length against the actual file size, and the payload's
//! CRC32 — and only then hands the payload to the caller's decoder.

use crate::crc32::crc32;
use crate::error::PersistError;
use equitls_obs::sink::Obs;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// First four bytes of every snapshot file.
pub const MAGIC: [u8; 4] = *b"EQTP";

/// Format version this build writes and reads.
pub const VERSION: u32 = 1;

/// Header length in bytes: magic + version + kind + created + len + crc.
const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 8 + 4;

/// What a snapshot holds. The tag is stored in the header so a file can
/// never be decoded as the wrong kind of state. Tags are never reused:
/// tag 3 belonged to a retired lint cache and now reads as unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// The mc explorer's BFS progress (states, frontier, tallies).
    Explorer,
    /// The prover's per-obligation outcome ledger.
    ProverLedger,
    /// The serve daemon's job journal: accepted jobs in admission order
    /// with their completed responses, replayed on restart so a killed
    /// daemon resumes its queue.
    JobJournal,
    /// One shard of the explorer's spilled visited set: the shard's
    /// encoded states in slot order, length-prefixed, written when the
    /// shard is evicted to disk under memory pressure (Murφ-style).
    VisitedShard,
}

impl SnapshotKind {
    /// The on-disk tag byte.
    pub fn tag(self) -> u8 {
        match self {
            SnapshotKind::Explorer => 1,
            SnapshotKind::ProverLedger => 2,
            SnapshotKind::JobJournal => 4,
            SnapshotKind::VisitedShard => 5,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(SnapshotKind::Explorer),
            2 => Some(SnapshotKind::ProverLedger),
            4 => Some(SnapshotKind::JobJournal),
            5 => Some(SnapshotKind::VisitedShard),
            _ => None,
        }
    }
}

/// Header fields of a snapshot, available without decoding the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Format version found in the file.
    pub version: u32,
    /// What the snapshot holds.
    pub kind: SnapshotKind,
    /// Unix timestamp (seconds) when the snapshot was written.
    pub created_unix_secs: u64,
    /// Payload size in bytes.
    pub payload_len: u64,
}

impl SnapshotMeta {
    /// Seconds elapsed since the snapshot was written (0 if the clock has
    /// gone backwards).
    pub fn age_secs(&self) -> u64 {
        now_unix_secs().saturating_sub(self.created_unix_secs)
    }
}

fn now_unix_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn encode_header(kind: SnapshotKind, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&VERSION.to_le_bytes());
    header[8] = kind.tag();
    header[9..17].copy_from_slice(&now_unix_secs().to_le_bytes());
    header[17..25].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[25..29].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Parse and validate everything that can be checked from the header
/// alone. `expected_kind` is `None` when any kind is acceptable (peek).
fn parse_header(
    bytes: &[u8],
    expected_kind: Option<SnapshotKind>,
) -> Result<(SnapshotMeta, u32), PersistError> {
    if bytes.len() < 8 || bytes[0..4] != MAGIC {
        // Distinguish "not a snapshot" from "snapshot cut off mid-header":
        // a file shorter than the magic cannot prove it ever was one.
        if bytes.len() >= 4 && bytes[0..4] == MAGIC {
            return Err(PersistError::Truncated {
                expected: HEADER_LEN as u64,
                found: bytes.len() as u64,
            });
        }
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            expected: VERSION,
        });
    }
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Truncated {
            expected: HEADER_LEN as u64,
            found: bytes.len() as u64,
        });
    }
    let kind_tag = bytes[8];
    let kind = SnapshotKind::from_tag(kind_tag).ok_or(PersistError::Malformed(format!(
        "unknown snapshot kind tag {kind_tag}"
    )))?;
    if let Some(expected) = expected_kind {
        if kind != expected {
            return Err(PersistError::WrongKind {
                found: kind_tag,
                expected: expected.tag(),
            });
        }
    }
    let created = u64::from_le_bytes([
        bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15], bytes[16],
    ]);
    let payload_len = u64::from_le_bytes([
        bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23], bytes[24],
    ]);
    let crc = u32::from_le_bytes([bytes[25], bytes[26], bytes[27], bytes[28]]);
    Ok((
        SnapshotMeta {
            version,
            kind,
            created_unix_secs: created,
            payload_len,
        },
        crc,
    ))
}

/// Atomically write `payload` as a snapshot of `kind` at `path`.
///
/// Returns the total bytes written. Emits a `persist.write` span and the
/// `persist.snapshot_written` / `persist.bytes` counters.
pub fn write_snapshot(
    path: &Path,
    kind: SnapshotKind,
    payload: &[u8],
    obs: &Obs,
) -> Result<u64, PersistError> {
    let _span = obs.span("persist.write");
    let header = encode_header(kind, payload);
    let total = (header.len() + payload.len()) as u64;

    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        PersistError::Io(format!(
            "checkpoint path {} has no file name",
            path.display()
        ))
    })?;
    let mut tmp = std::ffi::OsString::from(".");
    tmp.push(file_name);
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp_path = match dir {
        Some(d) => d.join(&tmp),
        None => std::path::PathBuf::from(&tmp),
    };

    let result = (|| {
        let mut f =
            fs::File::create(&tmp_path).map_err(|e| PersistError::io("create", &tmp_path, &e))?;
        f.write_all(&header)
            .map_err(|e| PersistError::io("write", &tmp_path, &e))?;
        f.write_all(payload)
            .map_err(|e| PersistError::io("write", &tmp_path, &e))?;
        f.sync_all()
            .map_err(|e| PersistError::io("fsync", &tmp_path, &e))?;
        drop(f);
        fs::rename(&tmp_path, path).map_err(|e| PersistError::io("rename", path, &e))?;
        // Best-effort directory fsync so the rename itself is durable;
        // not all platforms/filesystems support it, so failures are ignored.
        if let Some(d) = dir {
            if let Ok(dirf) = fs::File::open(d) {
                let _ = dirf.sync_all();
            }
        }
        Ok(total)
    })();

    match &result {
        Ok(total) => {
            obs.counter("persist.snapshot_written", 1);
            obs.counter("persist.bytes", *total);
        }
        Err(_) => {
            let _ = fs::remove_file(&tmp_path);
        }
    }
    result
}

/// Read the header of the snapshot at `path` without validating or
/// decoding the payload. Cheap; used for the "resumed from checkpoint
/// (age …)" report line.
pub fn peek_meta(path: &Path) -> Result<SnapshotMeta, PersistError> {
    let bytes = fs::read(path).map_err(|e| PersistError::io("read", path, &e))?;
    let (meta, _) = parse_header(&bytes, None)?;
    Ok(meta)
}

/// Read and fully validate the snapshot at `path`, returning its header
/// and payload. A file shorter or longer than its header claims is
/// refused. Emits a `persist.load` span.
pub fn read_snapshot(
    path: &Path,
    kind: SnapshotKind,
    obs: &Obs,
) -> Result<(SnapshotMeta, Vec<u8>), PersistError> {
    let _span = obs.span("persist.load");
    let mut bytes = fs::read(path).map_err(|e| PersistError::io("read", path, &e))?;
    let (meta, crc) = parse_header(&bytes, Some(kind))?;
    let found = (bytes.len() - HEADER_LEN) as u64;
    if found < meta.payload_len {
        return Err(PersistError::Truncated {
            expected: meta.payload_len,
            found,
        });
    }
    if found > meta.payload_len {
        return Err(PersistError::TrailingBytes {
            expected: meta.payload_len,
            found,
        });
    }
    if crc32(&bytes[HEADER_LEN..]) != crc {
        return Err(PersistError::ChecksumMismatch);
    }
    // The file buffer becomes the payload: one copy of the bytes, not two.
    bytes.drain(..HEADER_LEN);
    Ok((meta, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("equitls_persist_{}_{name}", std::process::id()))
    }

    #[test]
    fn write_then_read_roundtrips() {
        let path = tmp_file("roundtrip.snap");
        let payload = b"frontier: 12 states".to_vec();
        let obs = Obs::noop();
        let written = write_snapshot(&path, SnapshotKind::Explorer, &payload, &obs).unwrap();
        assert_eq!(written, (HEADER_LEN + payload.len()) as u64);
        let (meta, back) = read_snapshot(&path, SnapshotKind::Explorer, &obs).unwrap();
        assert_eq!(back, payload);
        assert_eq!(meta.version, VERSION);
        assert_eq!(meta.kind, SnapshotKind::Explorer);
        assert_eq!(meta.payload_len, payload.len() as u64);
        let peeked = peek_meta(&path).unwrap();
        assert_eq!(peeked, meta);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let path = tmp_file("bitflip.snap");
        let obs = Obs::noop();
        write_snapshot(&path, SnapshotKind::ProverLedger, b"0123456789", &obs).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_snapshot(&path, SnapshotKind::ProverLedger, &obs),
            Err(PersistError::ChecksumMismatch)
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_a_truncation_error() {
        let path = tmp_file("trunc.snap");
        let obs = Obs::noop();
        write_snapshot(&path, SnapshotKind::Explorer, &[9u8; 64], &obs).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..HEADER_LEN + 10]).unwrap();
        assert!(matches!(
            read_snapshot(&path, SnapshotKind::Explorer, &obs),
            Err(PersistError::Truncated { .. })
        ));
        // Cut inside the header as well.
        fs::write(&path, &bytes[..12]).unwrap();
        assert!(matches!(
            read_snapshot(&path, SnapshotKind::Explorer, &obs),
            Err(PersistError::Truncated { .. })
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn bytes_appended_after_the_payload_are_refused() {
        let path = tmp_file("appended.snap");
        let obs = Obs::noop();
        write_snapshot(&path, SnapshotKind::Explorer, &[9u8; 64], &obs).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"tail");
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_snapshot(&path, SnapshotKind::Explorer, &obs),
            Err(PersistError::TrailingBytes {
                expected: 64,
                found: 68
            })
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn wrong_version_and_wrong_kind_are_typed() {
        let path = tmp_file("version.snap");
        let obs = Obs::noop();
        write_snapshot(&path, SnapshotKind::Explorer, b"x", &obs).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_snapshot(&path, SnapshotKind::Explorer, &obs),
            Err(PersistError::UnsupportedVersion {
                found: 99,
                expected: VERSION
            })
        );
        write_snapshot(&path, SnapshotKind::Explorer, b"x", &obs).unwrap();
        assert_eq!(
            read_snapshot(&path, SnapshotKind::ProverLedger, &obs),
            Err(PersistError::WrongKind {
                found: SnapshotKind::Explorer.tag(),
                expected: SnapshotKind::ProverLedger.tag(),
            })
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn retired_tag_is_malformed_and_live_tags_keep_their_numbers() {
        use SnapshotKind::{Explorer, JobJournal, ProverLedger, VisitedShard};
        let path = tmp_file("retired.snap");
        let obs = Obs::noop();
        write_snapshot(&path, Explorer, b"cache", &obs).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 3;
        fs::write(&path, &bytes).unwrap();
        let unknown = PersistError::Malformed("unknown snapshot kind tag 3".to_string());
        assert_eq!(peek_meta(&path), Err(unknown.clone()));
        assert_eq!(read_snapshot(&path, Explorer, &obs), Err(unknown));
        let _ = fs::remove_file(&path);

        let live = [Explorer, ProverLedger, JobJournal, VisitedShard];
        assert_eq!(live.map(SnapshotKind::tag), [1, 2, 4, 5]);
        assert_eq!([1, 2, 4, 5].map(SnapshotKind::from_tag), live.map(Some));
    }

    #[test]
    fn garbage_file_is_bad_magic() {
        let path = tmp_file("garbage.snap");
        fs::write(&path, b"definitely not a snapshot").unwrap();
        assert_eq!(
            read_snapshot(&path, SnapshotKind::Explorer, &Obs::noop()),
            Err(PersistError::BadMagic)
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = tmp_file("missing.snap");
        let _ = fs::remove_file(&path);
        assert!(matches!(
            read_snapshot(&path, SnapshotKind::Explorer, &Obs::noop()),
            Err(PersistError::Io(_))
        ));
    }
}
