//! Typed errors for snapshot I/O and decoding.
//!
//! Every way a snapshot can be unusable has its own variant, so callers
//! (and users reading a CLI message) can tell a missing file from a
//! truncated one from a bit-flip. The type is `Clone + PartialEq + Eq`
//! so it can ride inside `CoreError` and be asserted on in tests; I/O
//! errors are therefore carried as rendered strings rather than as
//! `std::io::Error` values.

use std::fmt;

/// Why a snapshot could not be written, read, or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// An operating-system I/O failure (open, read, write, fsync, rename),
    /// rendered as `"<operation> <path>: <os error>"`.
    Io(String),
    /// The file does not start with the snapshot magic bytes — it is not a
    /// snapshot at all.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// Version number found in the file header.
        found: u32,
        /// Version number this build understands.
        expected: u32,
    },
    /// The snapshot holds a different kind of state than the caller asked
    /// for (e.g. a prover ledger offered to the explorer).
    WrongKind {
        /// Kind tag found in the file header.
        found: u8,
        /// Kind tag the caller expected.
        expected: u8,
    },
    /// The file is shorter than its header claims — an interrupted write
    /// or an external truncation.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The file is longer than its header claims: bytes were appended
    /// after a complete snapshot.
    TrailingBytes {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The payload's CRC32 does not match the header — the file was
    /// corrupted after it was written.
    ChecksumMismatch,
    /// The payload passed the checksum but does not decode to a valid
    /// snapshot of the expected shape (internal inconsistency).
    Malformed(String),
    /// A resume was requested but no checkpoint path was configured.
    MissingPath,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "snapshot i/o error: {msg}"),
            PersistError::BadMagic => {
                write!(f, "not a snapshot file (missing magic bytes)")
            }
            PersistError::UnsupportedVersion { found, expected } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {expected})"
            ),
            PersistError::WrongKind { found, expected } => {
                write!(f, "snapshot holds kind {found}, expected kind {expected}")
            }
            PersistError::Truncated { expected, found } => write!(
                f,
                "snapshot truncated: header promises {expected} payload bytes, file has {found}"
            ),
            PersistError::TrailingBytes { expected, found } => write!(
                f,
                "snapshot has trailing bytes: header promises {expected} payload bytes, file has {found}"
            ),
            PersistError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (file corrupted)")
            }
            PersistError::Malformed(msg) => write!(f, "malformed snapshot payload: {msg}"),
            PersistError::MissingPath => {
                write!(f, "resume requested but no checkpoint path configured")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// Wrap an OS error with the operation and path that produced it.
    pub fn io(op: &str, path: &std::path::Path, err: &std::io::Error) -> Self {
        PersistError::Io(format!("{op} {}: {err}", path.display()))
    }
}
