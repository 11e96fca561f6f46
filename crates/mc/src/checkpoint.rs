//! Explorer checkpoints: the snapshot of a search at a level barrier
//! (a deterministic prefix of the full run), its writer, and the resume
//! that decodes it into the same [`SearchSeed`] a fresh search starts
//! from. The visited store writes and checks its own section.

use crate::explorer::{
    empty_store, explore_driver, Exploration, ExploreConfig, Limits, Monitor, Search, SearchSeed,
};
use crate::model::{Label, Model};
use crate::visited::{Lookup, VisitedStore};
use equitls_obs::sink::Obs;
use equitls_persist::codec::{Reader, Writer};
use equitls_persist::{read_snapshot, write_snapshot, PersistError, SnapshotKind};
use equitls_rewrite::budget::WorkerFault;
use std::borrow::Cow;
use std::time::Instant;

/// Serialize the search at its level barrier into a snapshot payload.
/// Returns `None` when a state cannot be fetched from the visited store
/// — the checkpoint is skipped, the search continues.
///
/// Two formats, distinguished by a leading byte:
///
/// * **0 (inline)** — every state's encoded bytes live in the snapshot
///   itself; used whenever no spill directory is configured.
/// * **1 (manifest)** — the snapshot stores only parent edges and the
///   visited store's section (its locator and per-shard manifest); the
///   state bytes live in the shard files, which the caller must flush
///   first ([`VisitedStore::flush_all`]). Resume revalidates every shard
///   file against the manifest before trusting a byte of it.
fn encode_checkpoint<S>(search: &mut Search<'_, S>, obs: &Obs) -> Option<Vec<u8>> {
    let inline = search.config.spill_dir.is_none();
    // A search keeps its labels compact: each is rendered here once, for
    // both the payload's size and its bytes.
    let labels: Vec<Cow<'_, str>> = search.parents.iter().map(|(_, l)| l.text()).collect();
    let len = encoded_len(search, &labels, inline);
    let mut w = Writer::with_capacity(len);
    w.u8(if inline { 0 } else { 1 });
    w.usize(search.depth);
    w.usize(search.dedup_hits);
    w.usize(search.states_per_depth.len());
    for &n in &search.states_per_depth {
        w.usize(n);
    }
    w.usize(search.len());
    for (idx, ((parent, _), label)) in search.parents.iter().zip(&labels).enumerate() {
        if inline {
            w.bytes(search.visited.fetch(idx, obs).ok()?);
        }
        w.u64(if *parent == usize::MAX {
            u64::MAX
        } else {
            *parent as u64
        });
        w.str(label);
    }
    if !inline {
        search.visited.write_checkpoint_section(&mut w);
    }
    w.usize(search.frontier.len());
    for &idx in &search.frontier {
        w.usize(idx);
    }
    // Violations are stored as (property, depth, violating-state index);
    // the witness trace is rebuilt from the parent edges on load.
    w.usize(search.violations.len());
    for (v, &idx) in search.violations.iter().zip(&search.violation_indices) {
        w.str(&v.property);
        w.usize(v.depth);
        w.usize(idx);
    }
    w.usize(search.faults.len());
    for f in &search.faults {
        w.str(&f.site);
        w.str(&f.message);
    }
    let payload = w.into_bytes();
    debug_assert_eq!(payload.len(), len, "encoded_len is exact");
    Some(payload)
}

/// The size of the payload [`encode_checkpoint`] writes, so that its
/// buffer is allocated once: grown by doubling, it would peak at up to
/// twice the payload.
fn encoded_len<S>(search: &Search<'_, S>, labels: &[Cow<'_, str>], inline: bool) -> usize {
    let words = 7 + search.states_per_depth.len() + search.frontier.len();
    let parents: usize = labels.iter().map(|l| 16 + l.len()).sum();
    let violations: usize = search
        .violations
        .iter()
        .map(|v| 24 + v.property.len())
        .sum();
    let faults: usize = search
        .faults
        .iter()
        .map(|f| 16 + f.site.len() + f.message.len())
        .sum();
    1 + 8 * words + parents + violations + faults + search.visited.checkpoint_section_len(inline)
}

/// Decode and validate a snapshot payload back into a [`SearchSeed`].
/// Every index is bounds-checked and every parent edge must point
/// backwards (the BFS insertion order), so a payload that passed the CRC
/// but is internally inconsistent still yields a typed error.
///
/// Each stored state's bytes go straight into the seed's visited store,
/// in global order. A state is decoded only to check it, and must
/// re-encode to the same bytes, so distinct bytes are distinct states: a
/// repeat is a duplicate the store itself reports.
fn decode_checkpoint<M: Model>(
    model: &M,
    payload: &[u8],
    config: &ExploreConfig,
    obs: &Obs,
) -> Result<SearchSeed, PersistError> {
    let mut r = Reader::new(payload);
    let format = r.u8()?;
    if format > 1 {
        return Err(PersistError::Malformed(format!(
            "unknown snapshot format {format}"
        )));
    }
    let depth = r.usize()?;
    let dedup_hits = r.usize()?;
    let mut states_per_depth = Vec::new();
    for _ in 0..r.seq_len(8)? {
        states_per_depth.push(r.usize()?);
    }
    if states_per_depth.len() != depth + 1 {
        return Err(PersistError::Malformed(format!(
            "{} per-level tallies for depth {depth}",
            states_per_depth.len()
        )));
    }
    let n_states = r.seq_len(if format == 1 { 16 } else { 17 })?;
    let mut visited = empty_store(config);
    let seed_state = |visited: &mut VisitedStore, i: usize, bytes: &[u8]| {
        let malformed = |what: &str| PersistError::Malformed(format!("state {i} {what}"));
        let state = model
            .decode_state(bytes)
            .ok_or_else(|| malformed("does not decode for this model"))?;
        if model.encode_state(&state).as_deref() != Some(bytes) {
            return Err(malformed("does not re-encode to its stored bytes"));
        }
        match visited.lookup_or_insert(bytes, usize::MAX, obs) {
            Ok(Lookup::Inserted(_)) => Ok(()),
            Ok(Lookup::Known) => Err(malformed("duplicates an earlier state")),
            Ok(Lookup::CapRefused) => unreachable!("an uncapped insert is never refused"),
            Err(e) => Err(e.error),
        }
    };
    let mut parents = Vec::with_capacity(n_states);
    for i in 0..n_states {
        if format == 0 {
            seed_state(&mut visited, i, r.bytes()?)?;
        }
        let parent = match r.u64()? {
            u64::MAX if i == 0 => usize::MAX,
            _ if i == 0 => {
                return Err(PersistError::Malformed("root state has a parent".into()));
            }
            parent if parent < i as u64 => parent as usize,
            parent => {
                return Err(PersistError::Malformed(format!(
                    "state {i} has forward parent {parent}"
                )))
            }
        };
        parents.push((parent, Label::Text(r.str()?)));
    }
    if format == 1 {
        let entries = visited.read_checkpoint_section(&mut r, n_states, obs)?;
        for (i, bytes) in entries.enumerate() {
            seed_state(&mut visited, i, &bytes)?;
        }
    }
    if states_per_depth.iter().sum::<usize>() != n_states {
        return Err(PersistError::Malformed(
            "per-level tallies do not sum to the state count".into(),
        ));
    }
    let read_idx = |r: &mut Reader, what: &str| -> Result<usize, PersistError> {
        let idx = r.usize()?;
        if idx >= n_states {
            return Err(PersistError::Malformed(format!(
                "{what} index {idx} out of range ({n_states} states)"
            )));
        }
        Ok(idx)
    };
    let mut frontier = Vec::new();
    for _ in 0..r.seq_len(8)? {
        frontier.push(read_idx(&mut r, "frontier")?);
    }
    let mut violations = Vec::new();
    for _ in 0..r.seq_len(24)? {
        let property = r.str()?;
        let vdepth = r.usize()?;
        violations.push((property, vdepth, read_idx(&mut r, "violation")?));
    }
    let mut faults = Vec::new();
    for _ in 0..r.seq_len(16)? {
        faults.push(WorkerFault {
            site: r.str()?,
            message: r.str()?,
        });
    }
    if !r.is_empty() {
        return Err(PersistError::Malformed(format!(
            "{} trailing bytes after snapshot",
            r.remaining()
        )));
    }
    Ok(SearchSeed {
        visited,
        parents,
        violations,
        dedup_hits,
        faults,
        frontier,
        states_per_depth,
        depth,
        resumed: true,
    })
}

/// The checkpoint writer of one search: the throttle clock, the count of
/// write attempts (the index of an injected persist fault) and the
/// barrier the snapshot on disk holds.
pub(crate) struct Checkpointer {
    last_write: Instant,
    attempts: u64,
    on_disk: Option<usize>,
}

impl Checkpointer {
    /// A writer whose snapshot on disk holds the barrier at depth
    /// `on_disk`: a resumed seed's own, or none for a fresh search.
    pub(crate) fn new(on_disk: Option<usize>) -> Self {
        Checkpointer {
            last_write: Instant::now(),
            attempts: 0,
            on_disk,
        }
    }

    /// Checkpoint the search's level barrier, honoring the throttle; at
    /// the clean `end` of a search (space exhausted or depth-capped)
    /// whatever the throttle, so the snapshot replays to the finished
    /// result, unless the snapshot on disk already holds this barrier.
    /// Write failures are contained (the result is correct without a
    /// snapshot) and counted as `persist.snapshot_failed`.
    pub(crate) fn write<S>(&mut self, search: &mut Search<'_, S>, end: bool, obs: &Obs) {
        let Some(path) = search.config.checkpoint_path.clone() else {
            return;
        };
        let every = search.config.checkpoint_every_secs;
        let throttled = every > 0 && self.last_write.elapsed().as_secs() < every;
        if (end && self.on_disk == Some(search.depth)) || (!end && throttled) {
            return;
        }
        // A manifest checkpoint references the shard files, so they must
        // be brought up to date first. A failed flush skips this
        // checkpoint — the previous snapshot stays valid, the search is
        // unaffected.
        if search.config.spill_dir.is_some() && !search.visited.flush_all(obs) {
            obs.counter("persist.snapshot_failed", 1);
            return;
        }
        let Some(payload) = encode_checkpoint(search, obs) else {
            return;
        };
        // Deterministic persist-fault injection: the write index counts
        // *attempts* (in barrier order), so a planned
        // `FaultSite::PersistWrite` at scope "explorer" fails the same
        // barrier's snapshot on every run. Like a real write error, an
        // injected one degrades crash-safety only — counted, not raised.
        let n = self.attempts;
        self.attempts += 1;
        let injected = search
            .config
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.persist_write_fails("explorer", n));
        if injected {
            obs.counter("persist.fault_injected", 1);
            obs.counter("persist.snapshot_failed", 1);
            return;
        }
        if write_snapshot(&path, SnapshotKind::Explorer, &payload, obs).is_ok() {
            self.last_write = Instant::now();
            self.on_disk = Some(search.depth);
        } else {
            obs.counter("persist.snapshot_failed", 1);
        }
    }
}

/// Resume an exploration from the snapshot at `config.checkpoint_path`,
/// continuing to checkpoint as it goes.
///
/// The search restarts at the checkpointed level barrier and finishes the
/// run; because checkpoints only land at barriers (deterministic prefixes
/// of the full run), the final [`Exploration`] is bit-identical to an
/// uninterrupted run. Errors are typed: a missing path, an unreadable
/// file, a truncated or corrupted snapshot, and an internally
/// inconsistent payload are each reported as their own [`PersistError`]
/// — never deserialized into garbage.
pub fn explore_resume_with_config_jobs<M: Model>(
    model: &M,
    monitors: &[Monitor<'_, M::State>],
    limits: &Limits,
    config: &ExploreConfig,
    obs: &Obs,
) -> Result<Exploration<M::State>, PersistError> {
    let path = config
        .checkpoint_path
        .as_ref()
        .ok_or(PersistError::MissingPath)?;
    let (_meta, payload) = read_snapshot(path, SnapshotKind::Explorer, obs)?;
    let seed = decode_checkpoint(model, &payload, config, obs)?;
    drop(payload);
    Ok(explore_driver(model, monitors, limits, config, obs, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visited::{forge_shard_file, manifest_entry, SHARDS};
    use std::path::{Path, PathBuf};

    /// A 5×5 grid walked right/down.
    struct Grid;

    impl Model for Grid {
        type State = (u8, u8);

        fn initial(&self) -> (u8, u8) {
            (0, 0)
        }

        fn successors(&self, &(x, y): &(u8, u8)) -> Vec<(String, (u8, u8))> {
            let mut out = Vec::new();
            if x < 4 {
                out.push((format!("right@{x},{y}"), (x + 1, y)));
            }
            if y < 4 {
                out.push((format!("down@{x},{y}"), (x, y + 1)));
            }
            out
        }

        fn encode_state(&self, &(x, y): &(u8, u8)) -> Option<Vec<u8>> {
            Some(vec![x, y])
        }

        fn decode_state(&self, bytes: &[u8]) -> Option<(u8, u8)> {
            match bytes {
                [x, y] => Some((*x, *y)),
                _ => None,
            }
        }
    }

    /// Limits deep enough for the grid to drain its frontier completely.
    fn full_limits() -> Limits {
        Limits {
            max_states: 200_000,
            max_depth: 16,
        }
    }

    fn bfs<M: Model>(model: &M) -> Exploration<M::State> {
        let config = ExploreConfig::default();
        crate::explorer::explore_with_config_jobs(
            model,
            &[],
            &full_limits(),
            &config,
            1,
            &Obs::noop(),
        )
    }

    fn tmp_snapshot(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("equitls_ckpt_{}_{name}.snap", std::process::id()))
    }

    fn tmp_spill_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("equitls_ckpt_spill_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_same_result(a: &Exploration<(u8, u8)>, b: &Exploration<(u8, u8)>, tag: &str) {
        assert_eq!(a.states, b.states, "{tag}");
        assert_eq!(a.complete, b.complete, "{tag}");
        assert_eq!(a.depth_reached, b.depth_reached, "{tag}");
        assert_eq!(a.states_per_depth, b.states_per_depth, "{tag}");
        assert_eq!(a.dedup_hits, b.dedup_hits, "{tag}");
        assert_eq!(a.unexpanded, b.unexpanded, "{tag}");
        assert_eq!(a.stop_reason, b.stop_reason, "{tag}");
        assert_eq!(a.violations.len(), b.violations.len(), "{tag}");
        for (av, bv) in a.violations.iter().zip(&b.violations) {
            assert_eq!(av.property, bv.property, "{tag}");
            assert_eq!(av.depth, bv.depth, "{tag}");
            assert_eq!(av.trace, bv.trace, "{tag}");
        }
    }

    /// A hand-built explorer checkpoint of the grid at the depth-1
    /// barrier: states `(0,0)`, `(1,0)`, `(0,1)`, both non-root states on
    /// the frontier. Each field can be bent on its own to exercise one
    /// validation of the resume path.
    struct GridCheckpoint {
        format: u8,
        depth: usize,
        tallies: Vec<usize>,
        /// `(bytes, parent, label)` per state; the bytes go inline
        /// (format 0) or into the shard files (format 1).
        states: Vec<(Vec<u8>, u64, &'static str)>,
        /// Format 1 only: the `(shard, slot)` locator and the manifest.
        locator: Vec<(u32, u32)>,
        manifest: Vec<(u64, u64)>,
        frontier: Vec<usize>,
        violations: Vec<(&'static str, usize, usize)>,
        trailing: Vec<u8>,
    }

    impl GridCheckpoint {
        fn inline() -> Self {
            GridCheckpoint {
                format: 0,
                depth: 1,
                tallies: vec![1, 2],
                states: vec![
                    (vec![0, 0], u64::MAX, ""),
                    (vec![1, 0], 0, "right@0,0"),
                    (vec![0, 1], 0, "down@0,0"),
                ],
                locator: Vec::new(),
                manifest: Vec::new(),
                frontier: vec![1, 2],
                violations: Vec::new(),
                trailing: Vec::new(),
            }
        }

        /// The same checkpoint in the manifest format: every state in
        /// shard 0 of the store's 64, whose file
        /// [`GridCheckpoint::resume`] writes.
        fn spilled() -> Self {
            let mut c = Self::inline();
            c.format = 1;
            c.locator = vec![(0, 0), (0, 1), (0, 2)];
            c.manifest = vec![manifest_entry(&c.entries())];
            c.manifest.resize(SHARDS, manifest_entry(&[]));
            c
        }

        fn entries(&self) -> Vec<&[u8]> {
            self.states.iter().map(|(b, ..)| &b[..]).collect()
        }

        /// Write the snapshot to `path` (and, in format 1, shard 0's file
        /// under `dir`) and resume from it.
        fn resume(&self, path: &Path, dir: &Path) -> Result<Exploration<(u8, u8)>, PersistError> {
            let mut w = Writer::new();
            w.u8(self.format);
            w.usize(self.depth);
            w.usize(0);
            w.usize(self.tallies.len());
            for &n in &self.tallies {
                w.usize(n);
            }
            w.usize(self.states.len());
            for (bytes, parent, label) in &self.states {
                if self.format == 0 {
                    w.bytes(bytes);
                }
                w.u64(*parent);
                w.str(label);
            }
            if self.format == 1 {
                for &(shard, slot) in &self.locator {
                    w.u32(shard);
                    w.u32(slot);
                }
                w.usize(self.manifest.len());
                for &(len, fnv) in &self.manifest {
                    w.u64(len);
                    w.u64(fnv);
                }
                forge_shard_file(dir, 0, &self.entries());
            }
            w.usize(self.frontier.len());
            for &idx in &self.frontier {
                w.usize(idx);
            }
            w.usize(self.violations.len());
            for &(property, depth, idx) in &self.violations {
                w.str(property);
                w.usize(depth);
                w.usize(idx);
            }
            w.usize(0);
            let mut payload = w.into_bytes();
            payload.extend_from_slice(&self.trailing);
            write_snapshot(path, SnapshotKind::Explorer, &payload, &Obs::noop()).unwrap();
            let config = ExploreConfig {
                checkpoint_path: Some(path.to_path_buf()),
                spill_dir: (self.format == 1).then(|| dir.to_path_buf()),
                ..Default::default()
            };
            explore_resume_with_config_jobs(&Padded, &[], &full_limits(), &config, &Obs::noop())
        }
    }

    /// The grid, except that its decoder also takes a state's bytes with
    /// a zero byte appended: two byte strings for one state, which only
    /// the resume path's re-encode check tells apart.
    struct Padded;

    impl Model for Padded {
        type State = (u8, u8);
        fn initial(&self) -> (u8, u8) {
            Grid.initial()
        }
        fn successors(&self, s: &(u8, u8)) -> Vec<(String, (u8, u8))> {
            Grid.successors(s)
        }
        fn encode_state(&self, s: &(u8, u8)) -> Option<Vec<u8>> {
            Grid.encode_state(s)
        }
        fn decode_state(&self, bytes: &[u8]) -> Option<(u8, u8)> {
            match bytes {
                [x, y] | [x, y, 0] => Some((*x, *y)),
                _ => None,
            }
        }
    }

    #[test]
    fn every_checkpoint_validation_is_a_typed_malformed_error() {
        let path = tmp_snapshot("validation");
        let dir = tmp_spill_dir("validation");
        // The unbent checkpoints resume to the full grid.
        for base in [GridCheckpoint::inline(), GridCheckpoint::spilled()] {
            let resumed = base
                .resume(&path, &dir)
                .expect("a consistent checkpoint resumes");
            assert_same_result(&resumed, &bfs(&Grid), "unbent");
        }
        type Bend = fn(&mut GridCheckpoint);
        let cases: [(&str, bool, Bend, &str); 17] = [
            (
                "root parent",
                false,
                |c| c.states[0].1 = 0,
                "root state has a parent",
            ),
            (
                "forward parent",
                false,
                |c| c.states[1].1 = 2,
                "forward parent",
            ),
            (
                "tally count",
                false,
                |c| c.depth = 2,
                "per-level tallies for depth",
            ),
            ("tally sum", false, |c| c.tallies[1] = 3, "do not sum"),
            (
                "frontier index",
                false,
                |c| c.frontier[1] = 3,
                "frontier index 3",
            ),
            (
                "violation index",
                false,
                |c| c.violations.push(("p", 1, 7)),
                "violation index 7",
            ),
            (
                "undecodable",
                false,
                |c| c.states[2].0 = vec![0, 1, 9],
                "does not decode",
            ),
            (
                "duplicate",
                false,
                |c| c.states[2].0 = vec![1, 0],
                "duplicates an earlier state",
            ),
            (
                "non-canonical",
                false,
                |c| c.states[2].0 = vec![0, 1, 0],
                "does not re-encode",
            ),
            (
                "trailing",
                false,
                |c| c.trailing = vec![0],
                "trailing bytes",
            ),
            ("slots", true, |c| c.locator[2] = (0, 3), "not contiguous"),
            (
                "past manifest",
                true,
                |c| c.locator[2] = (64, 0),
                "past the manifest",
            ),
            (
                "manifest length",
                true,
                |c| c.manifest[1].0 = 1,
                "manifest length",
            ),
            (
                "shard count",
                true,
                |c| c.manifest.push(manifest_entry(&[])),
                "65 shards, the store has 64",
            ),
            (
                "spilled undecodable",
                true,
                |c| c.states[2].0 = vec![9],
                "does not decode",
            ),
            (
                "spilled duplicate",
                true,
                |c| c.states[2].0 = vec![0, 0],
                "duplicates an earlier",
            ),
            (
                "spilled non-canonical",
                true,
                |c| c.states[2].0 = vec![1, 0, 0],
                "does not re-encode",
            ),
        ];
        for (name, spilled, bend, needle) in cases {
            let mut checkpoint = if spilled {
                GridCheckpoint::spilled()
            } else {
                GridCheckpoint::inline()
            };
            bend(&mut checkpoint);
            if name.starts_with("spilled") {
                // The manifest covers the bent shard file: only the
                // entry itself is wrong.
                checkpoint.manifest[0] = manifest_entry(&checkpoint.entries());
            }
            match checkpoint.resume(&path, &dir) {
                Err(PersistError::Malformed(msg)) => {
                    assert!(msg.contains(needle), "{name}: {msg:?} lacks {needle:?}")
                }
                other => panic!(
                    "{name}: expected Malformed, got {:?}",
                    other.map(|e| e.states)
                ),
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
