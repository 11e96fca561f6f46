//! The shard files on disk: their names and encoding, the checks a
//! read must pass, and the store's section of a manifest checkpoint,
//! which records what the files must hold. Nothing outside
//! [`crate::visited`] reads, writes or digests a shard file.

use super::{fold_entry, VisitedStore, FNV_OFFSET};
use equitls_obs::sink::Obs;
use equitls_persist::codec::{Reader, Writer};
use equitls_persist::{read_snapshot, PersistError, SnapshotKind};
use std::path::Path;

/// The stable file name of one spilled shard inside the spill directory.
pub(super) fn shard_file_name(shard: u32) -> String {
    format!("shard{shard:04}.vshard")
}

/// A shard file's payload: the shard id, then its entries in slot
/// order, length-prefixed.
pub(super) fn encode_shard<'a>(
    shard_id: u32,
    entries: impl ExactSizeIterator<Item = &'a [u8]>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(shard_id);
    w.usize(entries.len());
    for e in entries {
        w.bytes(e);
    }
    w.into_bytes()
}

/// The manifest digest of a run of entries, in slot order.
pub(super) fn digest_entries<B: AsRef<[u8]>>(entries: impl IntoIterator<Item = B>) -> u64 {
    entries
        .into_iter()
        .fold(FNV_OFFSET, |acc, e| fold_entry(acc, e.as_ref()))
}

impl VisitedStore {
    /// Bytes [`write_checkpoint_section`](Self::write_checkpoint_section)
    /// writes, or with `inline` the length-prefixed entries an inline
    /// checkpoint holds instead.
    pub(crate) fn checkpoint_section_len(&self, inline: bool) -> usize {
        let words = 8 * self.locator.len();
        if inline {
            words
                + self
                    .shards
                    .iter()
                    .map(|s| s.total_bytes as usize)
                    .sum::<usize>()
        } else {
            words + 8 + 16 * self.shards.len()
        }
    }

    /// Write the store's section of a manifest checkpoint: the global
    /// `(shard, slot)` locator, then the shard count and each shard's
    /// `(entry count, file digest)`. The state bytes stay in the shard
    /// files, which [`flush_all`](Self::flush_all) must update first.
    pub(crate) fn write_checkpoint_section(&self, w: &mut Writer) {
        for &(shard, slot) in &self.locator {
            w.u32(shard);
            w.u32(slot);
        }
        w.usize(self.shards.len());
        for s in &self.shards {
            debug_assert_eq!(s.file_len, s.len, "flush_all wrote every shard file");
            w.u64(s.len as u64);
            w.u64(s.file_digest);
        }
    }

    /// Read a manifest checkpoint's store section for `n_states` states
    /// and return every state's bytes in global order. The locator must
    /// number each shard's slots `0..`, making `(shard, slot)` → global
    /// index a bijection; the manifest must have this store's shard count,
    /// which places entries; each file must pass [`read_shard_prefix`].
    pub(crate) fn read_checkpoint_section(
        &self,
        r: &mut Reader<'_>,
        n_states: usize,
        obs: &Obs,
    ) -> Result<impl Iterator<Item = Vec<u8>>, PersistError> {
        let mut slots = vec![0u32; self.shards.len()];
        let mut shard_of = Vec::with_capacity(n_states);
        for _ in 0..n_states {
            let (shard, slot) = (r.u32()?, r.u32()?);
            let Some(next) = slots.get_mut(shard as usize) else {
                return Err(PersistError::Malformed(
                    "locator references a shard past the manifest".into(),
                ));
            };
            if slot != *next {
                return Err(PersistError::Malformed(format!(
                    "shard {shard} slots are not contiguous (slot {slot}, expected {next})"
                )));
            }
            *next += 1;
            shard_of.push(shard);
        }
        let n_shards = r.seq_len(16)?;
        if n_shards != slots.len() {
            return Err(PersistError::Malformed(format!(
                "checkpoint manifest has {n_shards} shards, the store has {}",
                slots.len()
            )));
        }
        let mut shard_entries = Vec::with_capacity(n_shards);
        for (shard, &counted) in (0u32..).zip(&slots) {
            let (len, digest) = (r.u64()?, r.u64()?);
            if len != counted as u64 {
                return Err(PersistError::Malformed(format!(
                    "shard {shard} manifest length {len} does not match {counted} locator slots"
                )));
            }
            let entries = match &self.spill {
                _ if len == 0 => Vec::new(),
                Some(spill) => {
                    let path = spill.dir.join(shard_file_name(shard));
                    read_shard_prefix(&path, shard, len, digest, obs)?
                }
                None => {
                    return Err(PersistError::Malformed(
                        "checkpoint references spilled shards but no spill dir is configured"
                            .into(),
                    ))
                }
            };
            shard_entries.push(entries.into_iter());
        }
        // Each entry moves out to the caller, so the shard files' bytes
        // are held once, shrinking as the store fills.
        Ok(shard_of.into_iter().map(move |shard| {
            shard_entries[shard as usize]
                .next()
                .expect("the manifest length equals the shard's locator slots")
        }))
    }
}

/// Read shard `shard_id`'s first `len` entries back from its file, for a
/// demand reload and for a resume alike: the file CRC, the shard id, and
/// `digest` over those entries must all check. The file may be *longer*
/// — a later flush appended slots — but never different.
pub(super) fn read_shard_prefix(
    path: &Path,
    shard_id: u32,
    len: u64,
    digest: u64,
    obs: &Obs,
) -> Result<Vec<Vec<u8>>, PersistError> {
    let mut entries = read_shard_file(path, shard_id, obs)?;
    if (entries.len() as u64) < len {
        return Err(PersistError::Malformed(format!(
            "shard {shard_id} file holds {} entries, {len} expected",
            entries.len()
        )));
    }
    entries.truncate(len as usize);
    if digest_entries(&entries) != digest {
        return Err(PersistError::Malformed(format!(
            "shard {shard_id} file does not match its recorded digest"
        )));
    }
    Ok(entries)
}

/// Read and decode one shard file: CRC-validated by `read_snapshot`,
/// then shape-validated (shard id, trailing bytes).
pub(super) fn read_shard_file(
    path: &Path,
    shard_id: u32,
    obs: &Obs,
) -> Result<Vec<Vec<u8>>, PersistError> {
    let (_meta, payload) = read_snapshot(path, SnapshotKind::VisitedShard, obs)?;
    let mut r = Reader::new(&payload);
    let found = r.u32()?;
    if found != shard_id {
        return Err(PersistError::Malformed(format!(
            "shard file {} holds shard {found}, expected {shard_id}",
            path.display()
        )));
    }
    let n = r.seq_len(8)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(r.bytes()?.to_vec());
    }
    if !r.is_empty() {
        return Err(PersistError::Malformed(format!(
            "{} trailing bytes after shard file",
            r.remaining()
        )));
    }
    Ok(entries)
}

/// Write `entries` as shard `shard`'s file under `dir`: the shard files
/// of hand-built checkpoints in tests.
#[cfg(test)]
pub(crate) fn forge_shard_file(dir: &Path, shard: u32, entries: &[&[u8]]) {
    use equitls_persist::write_snapshot;
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join(shard_file_name(shard));
    let payload = encode_shard(shard, entries.iter().copied());
    write_snapshot(&path, SnapshotKind::VisitedShard, &payload, &Obs::noop()).unwrap();
}

/// The manifest entry `(entry count, digest)` of a shard holding
/// `entries`, for hand-built checkpoints in tests.
#[cfg(test)]
pub(crate) fn manifest_entry(entries: &[&[u8]]) -> (u64, u64) {
    (entries.len() as u64, digest_entries(entries))
}
