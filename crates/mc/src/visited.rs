//! Sharded compact visited set with a Murφ-style disk spill tier.
//!
//! The explorer's dedup set is the memory bottleneck of bounded checking:
//! the paper's §6 baseline (Mitchell et al.'s Murφ analysis) reached big
//! scopes precisely by spilling the visited set to disk. This module is
//! that tier, rebuilt on the workspace's own pieces:
//!
//! * **Compact states.** States are stored as their canonical encoded
//!   bytes ([`crate::model::Model::encode_state`]), not as hashed Rust
//!   values — a fraction of the in-memory footprint, and directly
//!   writable to disk.
//! * **Shards.** Entries are sharded by state hash; a shard is the unit
//!   that spills to disk and reloads.
//! * **Disk spill.** Under memory pressure whole shards are evicted to
//!   checksummed snapshot files ([`SnapshotKind::VisitedShard`], written
//!   atomically by `equitls-persist`) and reloaded on demand. The
//!   per-entry *hash index stays resident*, so a brand-new state never
//!   needs a reload to be inserted — only a successor that hash-matches
//!   a spilled entry forces one.
//!
//! The store owns its spill policy (whether to spill at a level barrier)
//! and its shard files, whose format only its `shard_file` module knows.
//!
//! ## Determinism
//!
//! Inserts and reloads happen in frontier order; spill decisions are
//! taken only at level barriers, in shard-id order, driven purely by
//! byte estimates — never by wall clock. Verdicts, counts, and traces
//! are therefore bit-identical whether the store spills or not.
//!
//! ## Failure containment
//!
//! A failed shard *write* (disk full, injected [`FaultSite::SpillWrite`])
//! keeps the shard resident and degrades to backpressure — it is counted
//! and disclosed, never fatal. A failed shard *read* (corruption,
//! truncation, injected [`FaultSite::SpillRead`]) is a typed
//! [`SpillError`]: the search cannot soundly continue without its dedup
//! set, so the explorer stops with `StopReason::SpillFailed` — but never
//! panics and never decodes garbage states.

mod shard_file;

use equitls_obs::sink::Obs;
use equitls_persist::{write_snapshot, PersistError, SnapshotKind};
use equitls_rewrite::budget::{Budget, FaultKind, FaultPlan, FaultSite, StopReason};
use shard_file::{encode_shard, read_shard_prefix, shard_file_name};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::PathBuf;

/// The explorer's shard count: one spilled shard is a usefully small
/// eviction unit. Entries are placed by hash over it, so a checkpoint
/// manifest records it and a resume with another count is refused.
pub(crate) const SHARDS: usize = 64;

/// Barrier spill trigger: spill when the heap estimate crosses this
/// fraction of the budget's memory ceiling, *before* the ceiling itself
/// trips mid-level.
const SPILL_PRESSURE: f64 = 0.7;

/// Coarse bookkeeping overhead per *resident* entry, on top of the
/// entry's payload bytes. A nominal figure (the store keeps a 4-byte end
/// offset per entry), kept so that a memory ceiling cuts a search where
/// it always has.
const ENTRY_OVERHEAD_BYTES: u64 = 48;

/// Coarse always-resident overhead per entry: the locator pair plus the
/// hash-index slot, which stay in memory even when the shard is spilled.
const SLOT_INDEX_BYTES: u64 = 40;

/// Coarse per-state estimate of what the explorer keeps beside each
/// entry and never spills: the state's parent edge and label.
const PARENT_EDGE_BYTES: u64 = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte slice — the store's shard-placement hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold_bytes(FNV_OFFSET, bytes)
}

fn fold_bytes(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc = (acc ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    acc
}

/// Fold one entry into a running shard digest: the length first, then
/// the bytes, so `("a","bc")` and `("ab","c")` digest differently.
fn fold_entry(acc: u64, bytes: &[u8]) -> u64 {
    fold_bytes(fold_bytes(acc, &(bytes.len() as u64).to_le_bytes()), bytes)
}

/// A hasher for keys that already are hashes: it passes the FNV value
/// through, rotated so that its well-mixed high bits become the low bits a
/// table's bucket index reads (FNV-1a's low bits are its weakest, and
/// `hash % shards` makes them alike across one shard).
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("PassThrough only hashes u64 keys")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// End of a slot chain.
const NO_SLOT: u32 = u32::MAX;

/// Where (and how) the store may spill shards.
#[derive(Debug, Clone)]
pub struct SpillSettings {
    /// Directory for shard files (created on first write).
    pub dir: PathBuf,
    /// Deterministic fault injection for spill I/O (scope `"visited"`;
    /// [`FaultSite::SpillWrite`] by write-attempt index,
    /// [`FaultSite::SpillRead`] by shard id).
    pub fault_plan: Option<FaultPlan>,
}

/// A spill-tier read failure: the shard that could not be read back and
/// the typed persistence error that stopped it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillError {
    /// The shard whose bytes were needed.
    pub shard: u32,
    /// Why the read failed.
    pub error: PersistError,
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "visited shard {}: {}", self.shard, self.error)
    }
}

/// The outcome of [`VisitedStore::lookup_or_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The state was already in the store (a dedup hit).
    Known,
    /// The state was new and stored under this global index.
    Inserted(usize),
    /// The state was new but the cap refused it (nothing was stored).
    CapRefused,
}

/// Spill-tier counters, also surfaced as `mc.spill_*` obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Shards evicted from memory (with or without a fresh file write).
    pub spills: u64,
    /// Payload bytes written to shard files.
    pub spill_bytes: u64,
    /// Shards read back on demand.
    pub reloads: u64,
    /// Shard writes that failed (the shard stayed resident).
    pub write_failures: u64,
}

/// The result of one spill pass.
#[derive(Debug, Clone, Copy, Default)]
struct SpillOutcome {
    /// Shards evicted by this pass.
    pub spilled: usize,
    /// Shard writes that failed during this pass.
    pub write_failures: usize,
}

/// A run of entries, their bytes back to back in one buffer.
#[derive(Debug, Default)]
struct Entries {
    bytes: Vec<u8>,
    /// The end offset of each entry in `bytes`.
    ends: Vec<u32>,
}

impl Entries {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn get(&self, i: usize) -> Option<&[u8]> {
        let end = *self.ends.get(i)? as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        Some(&self.bytes[start..end])
    }

    fn push(&mut self, entry: &[u8]) {
        self.bytes.extend_from_slice(entry);
        let end = u32::try_from(self.bytes.len()).expect("a shard's resident bytes fit in u32");
        self.ends.push(end);
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i).expect("i < len"))
    }
}

/// One shard: a slice of the entry space selected by state hash.
///
/// Invariants: slots are append-only and numbered `0..len` in insertion
/// order; the on-disk file (if any) holds exactly the slot prefix
/// `0..file_len`, digested by `file_digest`; when `resident` is false,
/// `entries` holds only the tail `file_len..len` and the prefix bytes
/// live on disk alone. The hash index covers all `len` slots and never
/// leaves memory.
#[derive(Debug, Default)]
struct Shard {
    /// Resident entry bytes (all slots when `resident`, else the tail).
    entries: Entries,
    /// Hash → the newest slot with that hash; `older[slot]` links each
    /// slot to the next older one sharing its hash. The chain is the
    /// candidate list for a full byte compare.
    newest_by_hash: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    older: Vec<u32>,
    /// Total slots ever inserted.
    len: u32,
    /// Slots the on-disk shard file holds (always a prefix).
    file_len: u32,
    /// Whether every slot's bytes are in memory.
    resident: bool,
    /// Payload bytes across all `len` slots.
    total_bytes: u64,
    /// Payload bytes of resident slots only.
    resident_bytes: u64,
    /// FNV digest of `(len, bytes)` per slot over the file's `file_len`
    /// slots, in slot order — the manifest value checkpoints record and
    /// reloads revalidate. Folded only when the file is written.
    file_digest: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            resident: true,
            file_digest: FNV_OFFSET,
            ..Shard::default()
        }
    }

    /// The bytes of `slot`, or `None` when they live only on disk.
    fn slot_bytes(&self, slot: u32) -> Option<&[u8]> {
        let base = if self.resident { 0 } else { self.file_len };
        if slot < base {
            None
        } else {
            self.entries.get((slot - base) as usize)
        }
    }

    fn push_entry(&mut self, hash: u64, bytes: &[u8]) -> u32 {
        let slot = self.len;
        self.len += 1;
        self.total_bytes += bytes.len() as u64;
        self.resident_bytes += bytes.len() as u64;
        let older = self.newest_by_hash.insert(hash, slot).unwrap_or(NO_SLOT);
        self.older.push(older);
        self.entries.push(bytes);
        slot
    }

    /// Look `bytes` up among the slots hashed `hash`: `Some(true)` when a
    /// resident slot holds them, `Some(false)` when none does but a
    /// spilled one might, `None` when no slot can.
    fn find(&self, hash: u64, bytes: &[u8]) -> Option<bool> {
        let mut cur = self.newest_by_hash.get(&hash).copied().unwrap_or(NO_SLOT);
        let mut spilled_candidate = false;
        while cur != NO_SLOT {
            match self.slot_bytes(cur) {
                Some(stored) if stored == bytes => return Some(true),
                Some(_) => {}
                None => spilled_candidate = true,
            }
            cur = self.older[cur as usize];
        }
        spilled_candidate.then_some(false)
    }
}

/// The sharded visited set. See the module docs for the design.
#[derive(Debug)]
pub struct VisitedStore {
    shards: Vec<Shard>,
    /// Global state index → `(shard, slot)`.
    locator: Vec<(u32, u32)>,
    spill: Option<SpillSettings>,
    /// Shard-file write attempts, counted in barrier order (the
    /// deterministic index for injected [`FaultSite::SpillWrite`]).
    write_attempts: u64,
    stats: SpillStats,
    /// Set when a mid-level memory-ceiling trip was deferred to the next
    /// barrier's spill pass instead of truncating the search.
    memory_stop_deferred: bool,
    /// Disclosed degradations (`"visited-spilled"`,
    /// `"spill-write-failed"`), in the order they first happened.
    pub(crate) degradation: Vec<String>,
}

impl VisitedStore {
    /// An empty store with `shard_count` shards and an optional spill
    /// tier.
    pub fn new(shard_count: usize, spill: Option<SpillSettings>) -> Self {
        VisitedStore {
            shards: (0..shard_count).map(|_| Shard::new()).collect(),
            locator: Vec::new(),
            spill,
            write_attempts: 0,
            stats: SpillStats::default(),
            memory_stop_deferred: false,
            degradation: Vec::new(),
        }
    }

    /// Number of distinct states stored.
    pub fn len(&self) -> usize {
        self.locator.len()
    }

    /// Whether the store holds no states.
    pub fn is_empty(&self) -> bool {
        self.locator.is_empty()
    }

    /// The shard holding global state `idx`.
    pub fn shard_of(&self, idx: usize) -> u32 {
        self.locator[idx].0
    }

    /// Spill-tier counters so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    fn shard_mut(&mut self, shard: u32) -> &mut Shard {
        &mut self.shards[shard as usize]
    }

    fn place(&self, bytes: &[u8]) -> (u32, u64) {
        let hash = fnv1a(bytes);
        ((hash % self.shards.len() as u64) as u32, hash)
    }

    /// Coarse heap estimate of the parts of a search that never leave
    /// memory: the locator, the per-entry hash-index slots and the
    /// explorer's parent edges.
    fn unspillable_estimate(&self) -> u64 {
        self.locator.len() as u64 * (SLOT_INDEX_BYTES + PARENT_EDGE_BYTES)
    }

    /// Coarse heap estimate of a search, for the budget's memory
    /// tripwire: the unspillable part (locator, hash index, parent edges)
    /// plus the resident entry payloads and their bookkeeping. It
    /// *drops* when shards spill — that is the degradation: the same
    /// ceiling that would truncate a resident run instead steers the
    /// store onto disk.
    pub fn resident_estimate(&self) -> u64 {
        let mut total = self.unspillable_estimate();
        for s in &self.shards {
            total += s.resident_bytes + s.entries.len() as u64 * ENTRY_OVERHEAD_BYTES;
        }
        total
    }

    /// Shards with at least one resident entry.
    fn resident_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| !s.entries.is_empty()).count()
    }

    /// Whether more than `max_resident_shards` shards keep resident
    /// entries; `0` sets no cap.
    fn over_shard_cap(&self, max_resident_shards: usize) -> bool {
        max_resident_shards > 0 && self.resident_shard_count() > max_resident_shards
    }

    /// Dedup-or-store one encoded state.
    ///
    /// A new state is refused (nothing stored) once the store holds
    /// `cap` states; duplicates are always recognized, even at the cap.
    /// Reloads the target shard only when the state hash-matches a
    /// spilled slot and no resident slot already matches.
    pub fn lookup_or_insert(
        &mut self,
        bytes: &[u8],
        cap: usize,
        obs: &Obs,
    ) -> Result<Lookup, SpillError> {
        let (shard_id, hash) = self.place(bytes);
        match self.shards[shard_id as usize].find(hash, bytes) {
            Some(true) => return Ok(Lookup::Known),
            Some(false) => {
                self.reload_shard(shard_id, obs)?;
                if self.shards[shard_id as usize].find(hash, bytes) == Some(true) {
                    return Ok(Lookup::Known);
                }
            }
            None => {}
        }
        if self.locator.len() >= cap {
            return Ok(Lookup::CapRefused);
        }
        let slot = self.shard_mut(shard_id).push_entry(hash, bytes);
        self.locator.push((shard_id, slot));
        Ok(Lookup::Inserted(self.locator.len() - 1))
    }

    /// The encoded bytes of global state `idx`, reloading its shard from
    /// disk if it was spilled.
    pub fn fetch(&mut self, idx: usize, obs: &Obs) -> Result<&[u8], SpillError> {
        let (shard_id, slot) = self.locator[idx];
        if self.shard_mut(shard_id).slot_bytes(slot).is_none() {
            self.reload_shard(shard_id, obs)?;
        }
        Ok(self.shards[shard_id as usize]
            .slot_bytes(slot)
            .expect("a reloaded shard holds every slot"))
    }

    fn shard_path(&self, shard: u32) -> PathBuf {
        self.spill
            .as_ref()
            .expect("spill path requested without spill settings")
            .dir
            .join(shard_file_name(shard))
    }

    /// Read one shard back into memory through [`read_shard_prefix`]:
    /// its file must hold the `file_len` slots digested as the file was
    /// written.
    fn reload_shard(&mut self, shard_id: u32, obs: &Obs) -> Result<(), SpillError> {
        let fail = |error: PersistError| SpillError {
            shard: shard_id,
            error,
        };
        if self.shard_mut(shard_id).resident {
            return Ok(());
        }
        let plan = self.spill.as_ref().and_then(|s| s.fault_plan.as_ref());
        match plan.and_then(|p| p.fault_for(FaultSite::SpillRead, "visited", shard_id as u64)) {
            Some(FaultKind::Corruption) => {
                obs.counter("persist.fault_injected", 1);
                return Err(fail(PersistError::ChecksumMismatch));
            }
            Some(_) => {
                obs.counter("persist.fault_injected", 1);
                return Err(fail(PersistError::Io(format!(
                    "injected spill-read fault at shard {shard_id}"
                ))));
            }
            None => {}
        }
        let path = self.shard_path(shard_id);
        let shard = &self.shards[shard_id as usize];
        let (len, digest) = (shard.file_len as u64, shard.file_digest);
        let entries = read_shard_prefix(&path, shard_id, len, digest, obs).map_err(fail)?;
        let shard = self.shard_mut(shard_id);
        let mut all = Entries::default();
        for entry in entries
            .iter()
            .map(Vec::as_slice)
            .chain(shard.entries.iter())
        {
            all.push(entry);
        }
        shard.entries = all;
        shard.resident = true;
        shard.resident_bytes = shard.total_bytes;
        self.stats.reloads += 1;
        obs.counter("mc.spill_reloads", 1);
        Ok(())
    }

    /// Bring the shard file up to date with all `len` entries, without
    /// evicting. Counts a write attempt (the injection index) only when
    /// a write is actually needed. Returns `false` on failure (counted;
    /// the shard is unchanged apart from a possible reload).
    fn write_shard_file(&mut self, shard_id: u32, obs: &Obs) -> bool {
        let up_to_date = {
            let s = self.shard_mut(shard_id);
            s.file_len == s.len
        };
        if up_to_date {
            return true;
        }
        let fail = |store: &mut Self| {
            store.stats.write_failures += 1;
            obs.counter("mc.spill_write_failed", 1);
            false
        };
        // A stale file under a non-resident shard means the prefix bytes
        // exist only on disk: reload before the full rewrite.
        if !self.shard_mut(shard_id).resident && self.reload_shard(shard_id, obs).is_err() {
            return fail(self);
        }
        let n = self.write_attempts;
        self.write_attempts += 1;
        let plan = self.spill.as_ref().and_then(|s| s.fault_plan.as_ref());
        if plan.is_some_and(|p| p.fault_for(FaultSite::SpillWrite, "visited", n).is_some()) {
            obs.counter("persist.fault_injected", 1);
            return fail(self);
        }
        let path = self.shard_path(shard_id);
        if let Some(dir) = path.parent() {
            if std::fs::create_dir_all(dir).is_err() {
                return fail(self);
            }
        }
        // The shard is resident here, so the slots new to the file are
        // its entries from `file_len` on.
        let s = &self.shards[shard_id as usize];
        let payload = encode_shard(shard_id, s.entries.iter());
        let tail = s.entries.iter().skip(s.file_len as usize);
        let digest = tail.fold(s.file_digest, fold_entry);
        match write_snapshot(&path, SnapshotKind::VisitedShard, &payload, obs) {
            Ok(_) => {
                let s = self.shard_mut(shard_id);
                s.file_len = s.len;
                s.file_digest = digest;
                self.stats.spill_bytes += payload.len() as u64;
                obs.counter("mc.spill_bytes", payload.len() as u64);
                true
            }
            Err(_) => fail(self),
        }
    }

    /// Evict one shard: write its file if stale, then drop the resident
    /// entry bytes (the hash index stays). Returns `false` if the write
    /// failed — the shard stays resident (backpressure, not data loss).
    fn spill_one(&mut self, shard_id: u32, obs: &Obs) -> bool {
        if !self.write_shard_file(shard_id, obs) {
            return false;
        }
        let s = self.shard_mut(shard_id);
        s.entries = Entries::default();
        s.resident = false;
        s.resident_bytes = 0;
        self.stats.spills += 1;
        obs.counter("mc.spill_shards", 1);
        true
    }

    /// Whether a mid-level `MemoryExceeded` may be deferred to the next
    /// barrier's spill pass, and if so, arm that pass. There must be
    /// somewhere to spill *to*, and the unspillable part must itself fit
    /// the ceiling — otherwise spilling cannot help and the honest
    /// answer is to stop.
    pub(crate) fn defer_memory_stop(&mut self, budget: &Budget) -> bool {
        let max = budget.max_heap_bytes().unwrap_or(u64::MAX);
        let defer = self.spill.is_some() && self.unspillable_estimate() <= max;
        self.memory_stop_deferred |= defer;
        defer
    }

    /// The barrier spill pass — the only place shards go to disk, so
    /// spill decisions are a function of the search alone. Spills (in
    /// shard order) when a mid-level ceiling trip was deferred, when the heap
    /// estimate crosses [`SPILL_PRESSURE`] of the ceiling, or when more
    /// than `max_resident_shards` shards are resident; the goal is half
    /// the ceiling, leaving headroom for the next level. If the estimate
    /// still exceeds the ceiling after the pass (e.g. every write failed
    /// on a full disk), the honest answer is the typed `MemoryExceeded`
    /// stop — degradation is disclosed, never silent.
    pub(crate) fn barrier_spill(
        &mut self,
        budget: &Budget,
        max_resident_shards: usize,
        obs: &Obs,
    ) -> Option<StopReason> {
        self.spill.as_ref()?;
        let deferred = std::mem::take(&mut self.memory_stop_deferred);
        let over_pressure = budget
            .memory_pressure(self.resident_estimate())
            .is_some_and(|p| p >= SPILL_PRESSURE);
        if !(deferred || over_pressure || self.over_shard_cap(max_resident_shards)) {
            return None;
        }
        let goal = match budget.max_heap_bytes() {
            Some(max) => max / 2,
            None => u64::MAX,
        };
        let outcome = self.spill_until(goal, max_resident_shards, obs);
        if outcome.spilled > 0 {
            self.disclose("visited-spilled");
        }
        if outcome.write_failures > 0 {
            self.disclose("spill-write-failed");
        }
        budget.check(self.resident_estimate()).err()
    }

    fn disclose(&mut self, degradation: &str) {
        if !self.degradation.iter().any(|d| d == degradation) {
            self.degradation.push(degradation.into());
        }
    }

    /// Evict shards **in shard-id order** until the resident estimate is
    /// at most `resident_goal` bytes and the shard cap holds. Purely a
    /// function of the store's contents — no clocks — so the pass is
    /// identical on every run. Failed writes are counted and skipped;
    /// the pass moves on to the next shard.
    fn spill_until(
        &mut self,
        resident_goal: u64,
        max_resident_shards: usize,
        obs: &Obs,
    ) -> SpillOutcome {
        let mut outcome = SpillOutcome::default();
        for shard_id in 0..self.shards.len() as u32 {
            let over_bytes = self.resident_estimate() > resident_goal;
            if !over_bytes && !self.over_shard_cap(max_resident_shards) {
                break;
            }
            if self.shard_mut(shard_id).entries.is_empty() {
                continue;
            }
            if self.spill_one(shard_id, obs) {
                outcome.spilled += 1;
            } else {
                outcome.write_failures += 1;
            }
        }
        outcome
    }

    /// Bring every shard file up to date without evicting anything —
    /// the precondition for a checkpoint manifest that references them.
    /// Returns `false` if any write failed (the checkpoint must then be
    /// skipped; the search itself is unaffected).
    pub fn flush_all(&mut self, obs: &Obs) -> bool {
        if self.spill.is_none() {
            return false;
        }
        let mut ok = true;
        for shard_id in 0..self.shards.len() as u32 {
            if self.shard_mut(shard_id).len > 0 && !self.write_shard_file(shard_id, obs) {
                ok = false;
            }
        }
        ok
    }
}

#[cfg(test)]
pub(crate) use shard_file::{forge_shard_file, manifest_entry};

#[cfg(test)]
mod tests;
