//! The crash-resumable job journal.
//!
//! Every accepted job is recorded *before* it runs; every completed
//! job's stable response is recorded when it finishes. The journal is a
//! single [`SnapshotKind::JobJournal`] snapshot rewritten atomically at
//! each transition (accept / complete), so a `kill -9` at any instant
//! leaves a journal describing exactly which jobs were admitted, in what
//! order, with which effective (post-degradation) parameters, and which
//! already finished. A restarted daemon re-enqueues the unfinished
//! suffix and re-executes it; since every job is a deterministic pure
//! function of its effective request, the replayed responses are
//! byte-identical to the ones the uninterrupted run would have produced
//! — the PR 5 determinism contract lifted to the service tier.
//!
//! Journal write failures (real or injected at
//! `FaultSite::PersistWrite`, scope `"journal"`) degrade crash-safety
//! only: the daemon keeps serving and counts
//! `persist.snapshot_failed`, matching the ledger and explorer writers.

use std::path::{Path, PathBuf};

use equitls_obs::json::JsonValue;
use equitls_obs::sink::Obs;
use equitls_persist::prelude::*;
use equitls_rewrite::budget::FaultPlan;

use crate::proto::JobRequest;

/// One admitted job: its sequence number (admission order), effective
/// request, disclosed degradation steps, and — once finished — the
/// rendered stable response line.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Admission order, dense from 0.
    pub seq: u64,
    /// The effective request (degradation already applied).
    pub request: JobRequest,
    /// Degradation steps applied at admission (e.g. `"scope-shrunk"`),
    /// disclosed in the response.
    pub degradation: Vec<String>,
    /// The stable response line, once the job completed.
    pub response: Option<String>,
}

/// The journal: in-memory entries mirrored to an atomic snapshot.
#[derive(Debug)]
pub struct JobJournal {
    path: Option<PathBuf>,
    entries: Vec<JournalEntry>,
    fault_plan: Option<FaultPlan>,
    writes: u64,
}

impl JobJournal {
    /// An empty journal persisting to `path` (`None` = in-memory only,
    /// for tests and ephemeral daemons).
    pub fn new(path: Option<PathBuf>, fault_plan: Option<FaultPlan>) -> Self {
        JobJournal {
            path,
            entries: Vec::new(),
            fault_plan,
            writes: 0,
        }
    }

    /// Load a journal snapshot from `path`. The entries come back in
    /// admission order with their completion state intact.
    pub fn load(
        path: &Path,
        fault_plan: Option<FaultPlan>,
        obs: &Obs,
    ) -> Result<Self, PersistError> {
        let (_meta, payload) = read_snapshot(path, SnapshotKind::JobJournal, obs)?;
        let mut r = Reader::new(&payload);
        let n = r.seq_len(10)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let seq = r.u64()?;
            let request_line = r.str()?;
            let request = JobRequest::from_line(&request_line).map_err(|e| {
                PersistError::Malformed(format!("journal entry {seq}: bad request ({e})"))
            })?;
            let n_deg = r.seq_len(1)?;
            let mut degradation = Vec::with_capacity(n_deg);
            for _ in 0..n_deg {
                degradation.push(r.str()?);
            }
            let response = if r.bool()? { Some(r.str()?) } else { None };
            entries.push(JournalEntry {
                seq,
                request,
                degradation,
                response,
            });
        }
        if !r.is_empty() {
            return Err(PersistError::Malformed(
                "trailing bytes after journal entries".to_string(),
            ));
        }
        Ok(JobJournal {
            path: Some(path.to_path_buf()),
            entries,
            fault_plan,
            writes: 0,
        })
    }

    /// The entries, in admission order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// The next sequence number to assign.
    pub fn next_seq(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Record an admitted job and persist the transition.
    pub fn record_accept(
        &mut self,
        request: JobRequest,
        degradation: Vec<String>,
        obs: &Obs,
    ) -> u64 {
        let seq = self.next_seq();
        self.entries.push(JournalEntry {
            seq,
            request,
            degradation,
            response: None,
        });
        self.save(obs);
        seq
    }

    /// Record a completed job's stable response line and persist.
    pub fn record_done(&mut self, seq: u64, response_line: String, obs: &Obs) {
        if let Some(entry) = self.entries.get_mut(seq as usize) {
            entry.response = Some(response_line);
        }
        self.save(obs);
    }

    /// The completed responses, one line per job, in admission order.
    /// This is the byte-comparable "results" artifact: it contains only
    /// stable payloads, so an interrupted-then-resumed queue renders
    /// identically to a straight-through one.
    pub fn results_lines(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter_map(|e| e.response.as_deref())
            .collect()
    }

    /// Render the journal as a JSON summary (for `stats` responses).
    pub fn summary_json(&self) -> JsonValue {
        let done = self.entries.iter().filter(|e| e.response.is_some()).count();
        JsonValue::Object(vec![
            (
                "accepted".to_string(),
                JsonValue::Number(self.entries.len() as f64),
            ),
            ("completed".to_string(), JsonValue::Number(done as f64)),
        ])
    }

    /// Atomically rewrite the snapshot (warn-and-continue on failure;
    /// see the module docs). In-memory journals are a no-op.
    fn save(&mut self, obs: &Obs) {
        let Some(path) = self.path.clone() else {
            return;
        };
        let n = self.writes;
        self.writes += 1;
        let injected = self
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.persist_write_fails("journal", n));
        if injected {
            obs.counter("persist.fault_injected", 1);
            obs.counter("persist.snapshot_failed", 1);
            return;
        }
        let mut w = Writer::new();
        w.usize(self.entries.len());
        for entry in &self.entries {
            w.u64(entry.seq);
            w.str(&entry.request.to_json().to_string());
            w.usize(entry.degradation.len());
            for d in &entry.degradation {
                w.str(d);
            }
            match &entry.response {
                Some(line) => {
                    w.bool(true);
                    w.str(line);
                }
                None => w.bool(false),
            }
        }
        if write_snapshot(&path, SnapshotKind::JobJournal, &w.into_bytes(), obs).is_err() {
            obs.counter("persist.snapshot_failed", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::JobKind;
    use equitls_rewrite::budget::{Fault, FaultKind, FaultSite};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "equitls_journal_{}_{name}.snap",
            std::process::id()
        ))
    }

    #[test]
    fn journal_roundtrips_through_the_snapshot_layer() {
        let path = tmp("roundtrip");
        let obs = Obs::noop();
        let mut journal = JobJournal::new(Some(path.clone()), None);
        let mut req = JobRequest::new("a-1", JobKind::Prove);
        req.property = "inv1".to_string();
        let seq = journal.record_accept(req.clone(), vec!["scope-shrunk".to_string()], &obs);
        journal.record_done(seq, r#"{"id":"a-1","status":"ok"}"#.to_string(), &obs);
        let mut req2 = JobRequest::new("a-2", JobKind::Lint);
        req2.target = "standard".to_string();
        journal.record_accept(req2.clone(), Vec::new(), &obs);

        let back = JobJournal::load(&path, None, &obs).expect("journal loads");
        assert_eq!(back.entries().len(), 2);
        assert_eq!(back.entries()[0].request, req);
        assert_eq!(back.entries()[0].degradation, vec!["scope-shrunk"]);
        assert_eq!(
            back.entries()[0].response.as_deref(),
            Some(r#"{"id":"a-1","status":"ok"}"#)
        );
        assert_eq!(back.entries()[1].request, req2);
        assert!(back.entries()[1].response.is_none());
        assert_eq!(back.results_lines(), vec![r#"{"id":"a-1","status":"ok"}"#]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn entry_with_a_retired_request_field_fails_load_as_malformed() {
        let path = tmp("retired-field");
        let obs = Obs::noop();
        // One pending entry in the journal's own encoding, but carrying
        // the retired `shared_cache` request field.
        let mut w = Writer::new();
        w.usize(1);
        w.u64(0);
        w.str(r#"{"id":"a-1","kind":"prove","property":"inv1","shared_cache":true}"#);
        w.usize(0);
        w.bool(false);
        write_snapshot(&path, SnapshotKind::JobJournal, &w.into_bytes(), &obs).unwrap();

        match JobJournal::load(&path, None, &obs) {
            Err(PersistError::Malformed(msg)) => {
                assert!(
                    msg.contains("unknown request field `shared_cache`"),
                    "{msg}"
                );
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_write_fault_degrades_without_losing_prior_snapshot() {
        let path = tmp("fault");
        let obs = Obs::noop();
        // Fail the second write (index 1): the first accept lands, the
        // completion transition does not — exactly a crash between the
        // two, which resume already handles.
        let plan = FaultPlan::new().with_fault(
            Fault::new(FaultSite::PersistWrite, FaultKind::IoError, 1).in_scope("journal"),
        );
        let mut journal = JobJournal::new(Some(path.clone()), Some(plan));
        let req = JobRequest::new("a-1", JobKind::Lint);
        let seq = journal.record_accept(req, Vec::new(), &obs);
        journal.record_done(seq, "{}".to_string(), &obs);

        let back = JobJournal::load(&path, None, &obs).expect("prior snapshot intact");
        assert_eq!(back.entries().len(), 1);
        assert!(
            back.entries()[0].response.is_none(),
            "the faulted write must not have landed"
        );
        std::fs::remove_file(&path).ok();
    }
}
