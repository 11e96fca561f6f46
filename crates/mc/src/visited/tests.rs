//! Unit tests of the visited store: dedup, spill and reload, fault
//! injection, manifests, and its bookkeeping against a recount.

use super::shard_file::{digest_entries, read_shard_file};
use super::*;
use equitls_rewrite::budget::Fault;

impl VisitedStore {
    /// Shards whose bytes live (at least partly) only on disk.
    fn spilled_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| !s.resident).count()
    }

    /// The per-shard manifest a checkpoint records: `(entry count,
    /// file digest)` for every shard, in shard-id order.
    fn manifest(&self) -> Vec<(u64, u64)> {
        self.shards
            .iter()
            .map(|s| (s.len as u64, s.file_digest))
            .collect()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("equitls_visited_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn entry(i: u32) -> Vec<u8> {
    format!("state-{i:06}").into_bytes()
}

fn fill(store: &mut VisitedStore, n: u32) {
    let obs = Obs::noop();
    for i in 0..n {
        let got = store.lookup_or_insert(&entry(i), usize::MAX, &obs).unwrap();
        assert_eq!(got, Lookup::Inserted(i as usize));
    }
}

#[test]
fn insert_dedup_and_fetch_without_spill() {
    let obs = Obs::noop();
    let mut store = VisitedStore::new(4, None);
    fill(&mut store, 50);
    assert_eq!(store.len(), 50);
    // Duplicates are recognized, even at a cap.
    assert_eq!(
        store.lookup_or_insert(&entry(7), 50, &obs).unwrap(),
        Lookup::Known
    );
    // New states are refused at the cap, without storage.
    assert_eq!(
        store.lookup_or_insert(&entry(99), 50, &obs).unwrap(),
        Lookup::CapRefused
    );
    assert_eq!(store.len(), 50);
    // Fetch returns the exact bytes, in global insertion order.
    for i in 0..50 {
        assert_eq!(store.fetch(i as usize, &obs).unwrap(), entry(i));
    }
}

#[test]
fn one_hash_chains_distinct_entries_resident_and_spilled() {
    let obs = Obs::noop();
    let dir = tmp_dir("collision");
    let mut store = VisitedStore::new(
        1,
        Some(SpillSettings {
            dir: dir.clone(),
            fault_plan: None,
        }),
    );
    fill(&mut store, 3);
    // Forge a collision: a different entry filed under entry 0's hash.
    let hash = fnv1a(&entry(0));
    let collider = b"collider".as_slice();
    let slot = store.shards[0].push_entry(hash, collider);
    store.locator.push((0, slot));
    assert_eq!(
        store.shards[0].older[slot as usize], 0,
        "chained to entry 0"
    );
    // Resident: the chain is walked newest first, by full bytes.
    assert_eq!(store.shards[0].find(hash, &entry(0)), Some(true));
    assert_eq!(store.shards[0].find(hash, collider), Some(true));
    assert_eq!(store.shards[0].find(hash, &entry(1)), None);
    assert_eq!(
        store.lookup_or_insert(&entry(0), usize::MAX, &obs).unwrap(),
        Lookup::Known
    );
    // Spilled: both slots are candidates, and a lookup reloads the
    // shard to tell them apart.
    assert_eq!(store.spill_until(0, 0, &obs).spilled, 1);
    assert_eq!(store.shards[0].find(hash, &entry(0)), Some(false));
    assert_eq!(store.shards[0].find(hash, b"absent"), Some(false));
    assert_eq!(
        store.lookup_or_insert(&entry(0), usize::MAX, &obs).unwrap(),
        Lookup::Known
    );
    assert_eq!(store.stats().reloads, 1);
    assert_eq!(store.fetch(3, &obs).unwrap(), collider);
    assert_eq!(store.fetch(0, &obs).unwrap(), &entry(0)[..]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_evicts_and_reloads_transparently() {
    let obs = Obs::noop();
    let dir = tmp_dir("roundtrip");
    let mut store = VisitedStore::new(
        4,
        Some(SpillSettings {
            dir: dir.clone(),
            fault_plan: None,
        }),
    );
    fill(&mut store, 60);
    let before = store.resident_estimate();
    let outcome = store.spill_until(0, 0, &obs);
    assert_eq!(outcome.spilled, 4, "every non-empty shard evicts");
    assert_eq!(outcome.write_failures, 0);
    assert!(store.resident_estimate() < before);
    assert_eq!(store.spilled_shard_count(), 4);
    // Fetch transparently reloads; bytes are exact.
    for i in [0usize, 17, 59] {
        assert_eq!(store.fetch(i, &obs).unwrap(), entry(i as u32));
    }
    // Old duplicates are still recognized after a reload...
    assert_eq!(
        store.lookup_or_insert(&entry(3), usize::MAX, &obs).unwrap(),
        Lookup::Known
    );
    // ...and brand-new states never need one: the hash index is
    // resident, so a fresh hash inserts straight into the tail.
    assert!(matches!(
        store
            .lookup_or_insert(&entry(100), usize::MAX, &obs)
            .unwrap(),
        Lookup::Inserted(_)
    ));
    assert!(store.stats().reloads >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lookup_finds_a_spilled_entry_by_reloading_its_shard() {
    let obs = Obs::noop();
    let dir = tmp_dir("spilled_lookup");
    let mut store = VisitedStore::new(
        2,
        Some(SpillSettings {
            dir: dir.clone(),
            fault_plan: None,
        }),
    );
    fill(&mut store, 20);
    store.spill_until(0, 0, &obs);
    let reloads = store.stats().reloads;
    assert_eq!(
        store.lookup_or_insert(&entry(5), usize::MAX, &obs).unwrap(),
        Lookup::Known,
        "the lookup finds a spilled entry"
    );
    assert_eq!(store.stats().reloads, reloads + 1, "by reloading its shard");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_write_fault_keeps_the_shard_resident() {
    let obs = Obs::noop();
    let dir = tmp_dir("wfault");
    let plan = FaultPlan::new()
        .with_fault(Fault::new(FaultSite::SpillWrite, FaultKind::IoError, 0).in_scope("visited"));
    let mut store = VisitedStore::new(
        2,
        Some(SpillSettings {
            dir: dir.clone(),
            fault_plan: Some(plan),
        }),
    );
    fill(&mut store, 20);
    let outcome = store.spill_until(0, 0, &obs);
    // The first write attempt fails; the pass moves on and spills
    // the other shard. Nothing is lost either way.
    assert_eq!(outcome.write_failures, 1);
    assert_eq!(outcome.spilled, 1);
    assert_eq!(store.stats().write_failures, 1);
    for i in 0..20 {
        assert_eq!(store.fetch(i as usize, &obs).unwrap(), entry(i));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_read_faults_are_typed_never_garbage() {
    let obs = Obs::noop();
    let dir = tmp_dir("rfault");
    let plan = FaultPlan::new()
        .with_fault(Fault::new(FaultSite::SpillRead, FaultKind::Corruption, 0).in_scope("visited"))
        .with_fault(Fault::new(FaultSite::SpillRead, FaultKind::IoError, 1).in_scope("visited"));
    let mut store = VisitedStore::new(
        2,
        Some(SpillSettings {
            dir: dir.clone(),
            fault_plan: Some(plan),
        }),
    );
    fill(&mut store, 20);
    store.spill_until(0, 0, &obs);
    // Shard 0 reads back "corrupted", shard 1 hits an "I/O error".
    let idx0 = (0..20).find(|&i| store.shard_of(i) == 0).unwrap();
    let idx1 = (0..20).find(|&i| store.shard_of(i) == 1).unwrap();
    let e0 = store.fetch(idx0, &obs).unwrap_err();
    assert_eq!(e0.shard, 0);
    assert_eq!(e0.error, PersistError::ChecksumMismatch);
    let e1 = store.fetch(idx1, &obs).unwrap_err();
    assert_eq!(e1.shard, 1);
    assert!(matches!(e1.error, PersistError::Io(_)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_shard_file_fails_the_checksum_typed() {
    let obs = Obs::noop();
    let dir = tmp_dir("corrupt");
    let mut store = VisitedStore::new(
        1,
        Some(SpillSettings {
            dir: dir.clone(),
            fault_plan: None,
        }),
    );
    fill(&mut store, 10);
    store.spill_until(0, 0, &obs);
    // Flip one payload byte on disk.
    let path = dir.join(shard_file_name(0));
    let mut raw = std::fs::read(&path).unwrap();
    let last = raw.len() - 1;
    raw[last] ^= 0x40;
    std::fs::write(&path, &raw).unwrap();
    let err = store.fetch(0, &obs).unwrap_err();
    assert_eq!(err.error, PersistError::ChecksumMismatch);
    // Truncation is its own typed error.
    let raw = std::fs::read(&path).unwrap();
    std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
    let err = store.fetch(0, &obs).unwrap_err();
    assert!(matches!(err.error, PersistError::Truncated { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_and_manifest_validate_on_reread() {
    let obs = Obs::noop();
    let dir = tmp_dir("manifest");
    let mut store = VisitedStore::new(
        3,
        Some(SpillSettings {
            dir: dir.clone(),
            fault_plan: None,
        }),
    );
    fill(&mut store, 30);
    assert!(store.flush_all(&obs));
    let manifest = store.manifest();
    assert_eq!(manifest.len(), 3);
    assert_eq!(manifest.iter().map(|&(n, _)| n).sum::<u64>(), 30);
    for (id, &(len, fnv)) in manifest.iter().enumerate() {
        let entries =
            read_shard_file(&dir.join(shard_file_name(id as u32)), id as u32, &obs).unwrap();
        assert_eq!(entries.len() as u64, len);
        assert_eq!(digest_entries(&entries), fnv);
    }
    // Growing the store after a flush keeps the file a valid prefix:
    // the manifest taken *before* still verifies against the new file.
    for i in 30..40 {
        assert!(matches!(
            store.lookup_or_insert(&entry(i), usize::MAX, &obs).unwrap(),
            Lookup::Inserted(_)
        ));
    }
    assert!(store.flush_all(&obs));
    for (id, &(len, fnv)) in manifest.iter().enumerate() {
        let entries =
            read_shard_file(&dir.join(shard_file_name(id as u32)), id as u32, &obs).unwrap();
        assert!(entries.len() as u64 >= len);
        assert_eq!(digest_entries(&entries[..len as usize]), fnv);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store's bookkeeping against a recount: the resident estimate
/// equals a sum over the entries actually resident, and each shard
/// file holds exactly the `file_len` entries its recorded digest
/// covers.
fn assert_bookkeeping(store: &VisitedStore, dir: &std::path::Path) {
    let obs = Obs::noop();
    let resident: u64 = store
        .shards
        .iter()
        .flat_map(|s| s.entries.iter())
        .map(|e| e.len() as u64 + ENTRY_OVERHEAD_BYTES)
        .sum();
    let unspillable = store.len() as u64 * (SLOT_INDEX_BYTES + PARENT_EDGE_BYTES);
    assert_eq!(store.resident_estimate(), unspillable + resident);
    for (id, s) in (0u32..).zip(&store.shards) {
        if s.file_len == 0 {
            assert_eq!(s.file_digest, FNV_OFFSET, "shard {id} has no file");
            continue;
        }
        let entries = read_shard_file(&dir.join(shard_file_name(id)), id, &obs).unwrap();
        assert_eq!(entries.len(), s.file_len as usize, "shard {id}");
        assert_eq!(digest_entries(&entries), s.file_digest, "shard {id}");
    }
}

#[test]
fn estimate_and_digests_match_a_recount_through_spill_and_reload() {
    let obs = Obs::noop();
    let dir = tmp_dir("recount");
    // Write attempts 0–3 are the first spill pass; attempt 4, the
    // first write of the second pass, fails.
    let plan = FaultPlan::new()
        .with_fault(Fault::new(FaultSite::SpillWrite, FaultKind::IoError, 4).in_scope("visited"));
    let mut store = VisitedStore::new(
        4,
        Some(SpillSettings {
            dir: dir.clone(),
            fault_plan: Some(plan),
        }),
    );
    let insert = |store: &mut VisitedStore, range: std::ops::Range<u32>| {
        for i in range {
            let got = store.lookup_or_insert(&entry(i), usize::MAX, &obs);
            assert_eq!(got.unwrap(), Lookup::Inserted(i as usize));
        }
    };
    insert(&mut store, 0..40);
    assert_bookkeeping(&store, &dir);
    assert_eq!(store.spill_until(0, 0, &obs).spilled, 4);
    assert_bookkeeping(&store, &dir);
    assert_eq!(store.fetch(7, &obs).unwrap(), entry(7));
    assert_eq!(store.stats().reloads, 1);
    assert_bookkeeping(&store, &dir);
    insert(&mut store, 40..70);
    assert_bookkeeping(&store, &dir);
    let outcome = store.spill_until(0, 0, &obs);
    assert_eq!((outcome.spilled, outcome.write_failures), (3, 1));
    assert_bookkeeping(&store, &dir);
    assert!(store.flush_all(&obs));
    assert_bookkeeping(&store, &dir);
    for i in 0..70 {
        assert_eq!(store.fetch(i as usize, &obs).unwrap(), entry(i));
    }
    assert_bookkeeping(&store, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_cap_bounds_resident_shards() {
    let obs = Obs::noop();
    let dir = tmp_dir("cap");
    let mut store = VisitedStore::new(
        8,
        Some(SpillSettings {
            dir: dir.clone(),
            fault_plan: None,
        }),
    );
    fill(&mut store, 200);
    store.spill_until(u64::MAX, 2, &obs);
    assert!(store.resident_shard_count() <= 2);
    let _ = std::fs::remove_dir_all(&dir);
}
