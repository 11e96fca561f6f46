//! Spill-tier end-to-end: the memory-resilience guarantees of the
//! sharded visited set on the real TLS scope check.
//!
//! Three contracts, pinned over the §5 counterexample scope:
//!
//! 1. **Determinism** — a run that spills cold visited-set shards to
//!    disk produces *bit-identical* results to an all-resident run, at
//!    every `jobs` value. Spill decisions happen only at level barriers
//!    in shard order, so the disk tier changes wall-clock and resident
//!    bytes, never a count, verdict, or trace.
//! 2. **Crash-safety** — a run interrupted mid-spill (deterministic
//!    injected fault standing in for `kill -9`; the script-level smoke
//!    does the real kill) resumes from its manifest checkpoint and lands
//!    byte-identical to a straight-through run.
//! 3. **Typed corruption** — a truncated or byte-flipped shard file
//!    fails the resume with a typed [`PersistError`], never a panic and
//!    never silently-wrong states.

use equitls::mc::prelude::*;
use equitls::obs::sink::Obs;
use equitls::tls::concrete::{Scope, State};
use std::path::{Path, PathBuf};

const JOBS: [usize; 3] = [1, 2, 4];

fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("join")
}

/// A fresh spill directory under the system temp dir.
fn tmp_spill_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("equitls_spill_it_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tmp_snapshot(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "equitls_spill_it_{}_{name}.snap",
        std::process::id()
    ))
}

/// The §5 counterexample scope bounded to two messages: wide frontiers,
/// sub-second runtime.
fn small_scope() -> (Scope, Limits) {
    let mut scope = Scope::counterexample();
    scope.max_messages = 2;
    let limits = Limits {
        max_states: 100_000,
        max_depth: 3,
    };
    (scope, limits)
}

fn assert_same_exploration(a: &Exploration<State>, b: &Exploration<State>, ctx: &str) {
    assert_eq!(a.states, b.states, "states {ctx}");
    assert_eq!(a.depth_reached, b.depth_reached, "depth {ctx}");
    assert_eq!(a.complete, b.complete, "complete {ctx}");
    assert_eq!(a.stop_reason, b.stop_reason, "stop reason {ctx}");
    assert_eq!(a.states_per_depth, b.states_per_depth, "per-level {ctx}");
    assert_eq!(a.dedup_hits, b.dedup_hits, "dedup {ctx}");
    assert_eq!(a.unexpanded, b.unexpanded, "unexpanded {ctx}");
    assert_eq!(a.violations.len(), b.violations.len(), "violations {ctx}");
    for (av, bv) in a.violations.iter().zip(&b.violations) {
        assert_eq!(av.property, bv.property, "property {ctx}");
        assert_eq!(av.depth, bv.depth, "violation depth {ctx}");
        assert_eq!(av.trace, bv.trace, "witness trace {ctx}");
    }
}

/// A spill-everything configuration: one resident shard at most after
/// each barrier, so the disk tier is genuinely exercised even without a
/// memory ceiling.
fn spill_config(dir: &Path, fault_plan: Option<FaultPlan>) -> ExploreConfig {
    ExploreConfig {
        fault_plan,
        spill_dir: Some(dir.to_path_buf()),
        max_resident_shards: 1,
        spill_shards: 8,
        ..ExploreConfig::default()
    }
}

/// The all-resident, single-worker reference run.
fn resident_check(scope: &Scope, limits: &Limits) -> Exploration<State> {
    check_scope_config_obs(scope, limits, 1, &ExploreConfig::default(), &Obs::noop())
}

#[test]
fn spilled_scope_check_is_bit_identical_at_jobs_1_2_4() {
    on_big_stack(|| {
        let (scope, limits) = small_scope();
        let resident = resident_check(&scope, &limits);
        assert!(resident.complete, "the resident baseline finishes");
        assert!(
            resident.violation("prop2p-cf-authentic").is_some(),
            "the paper's 2' violation is found"
        );
        for jobs in JOBS {
            let dir = tmp_spill_dir(&format!("identical_j{jobs}"));
            let spilled = check_scope_config_obs(
                &scope,
                &limits,
                jobs,
                &spill_config(&dir, None),
                &Obs::noop(),
            );
            assert_same_exploration(&spilled, &resident, &format!("jobs={jobs}"));
            assert!(
                spilled.spill_shards > 0,
                "jobs={jobs}: shards actually went to disk"
            );
            assert!(
                spilled.degradation.iter().any(|d| d == "visited-spilled"),
                "jobs={jobs}: degradation disclosed, got {:?}",
                spilled.degradation
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    });
}

#[test]
fn interrupted_spilled_run_resumes_byte_identical() {
    on_big_stack(|| {
        let (scope, limits) = small_scope();
        let straight = resident_check(&scope, &limits);
        for jobs in JOBS {
            let dir = tmp_spill_dir(&format!("resume_j{jobs}"));
            let path = tmp_snapshot(&format!("resume_j{jobs}"));
            let _ = std::fs::remove_file(&path);
            // Interrupt mid-level, after barriers that both spilled
            // shards and wrote a manifest checkpoint.
            let mut interrupt = spill_config(
                &dir,
                Some(FaultPlan::new().with_fault(Fault::new(
                    FaultSite::Successor,
                    FaultKind::DeadlineExpiry,
                    40,
                ))),
            );
            interrupt.checkpoint_path = Some(path.clone());
            let interrupted =
                check_scope_config_obs(&scope, &limits, jobs, &interrupt, &Obs::noop());
            assert!(!interrupted.complete, "the fault interrupts the search");
            assert!(
                interrupted.spill_shards > 0,
                "shards were on disk at the interrupt"
            );
            assert!(path.exists(), "a manifest checkpoint was written");
            // Resume without the fault: revalidates every spilled
            // shard's checksum and digest, finishes, and matches the
            // uninterrupted all-resident run exactly.
            let mut resume = spill_config(&dir, None);
            resume.checkpoint_path = Some(path.clone());
            let resumed = check_scope_resume_obs(&scope, &limits, jobs, &resume, &Obs::noop())
                .expect("manifest snapshot resumes");
            assert_same_exploration(&resumed, &straight, &format!("resume jobs={jobs}"));
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_dir_all(&dir);
        }
    });
}

#[test]
fn corrupt_shard_file_fails_resume_with_typed_error() {
    on_big_stack(|| {
        let (scope, limits) = small_scope();
        let dir = tmp_spill_dir("corrupt");
        let path = tmp_snapshot("corrupt");
        let _ = std::fs::remove_file(&path);
        let mut interrupt = spill_config(
            &dir,
            Some(FaultPlan::new().with_fault(Fault::new(
                FaultSite::Successor,
                FaultKind::DeadlineExpiry,
                40,
            ))),
        );
        interrupt.checkpoint_path = Some(path.clone());
        let interrupted = check_scope_config_obs(&scope, &limits, 1, &interrupt, &Obs::noop());
        assert!(interrupted.spill_shards > 0 && path.exists());
        let shard_files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("spill dir exists")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "vshard"))
            .collect();
        assert!(!shard_files.is_empty(), "shard files on disk");

        // Byte-flip: the CRC catches it, typed, no panic, no states.
        let victim = &shard_files[0];
        let pristine = std::fs::read(victim).unwrap();
        let mut flipped = pristine.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(victim, &flipped).unwrap();
        let mut resume = spill_config(&dir, None);
        resume.checkpoint_path = Some(path.clone());
        let err = check_scope_resume_obs(&scope, &limits, 1, &resume, &Obs::noop())
            .expect_err("a byte-flipped shard cannot resume");
        assert_eq!(err, PersistError::ChecksumMismatch, "typed, not a panic");

        // Truncation: typed too.
        std::fs::write(victim, &pristine[..pristine.len() / 2]).unwrap();
        let err = check_scope_resume_obs(&scope, &limits, 1, &resume, &Obs::noop())
            .expect_err("a truncated shard cannot resume");
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. } | PersistError::ChecksumMismatch
            ),
            "typed, got {err}"
        );

        // Restored bytes resume cleanly: the revalidation really was
        // checking content, not rejecting the resume path wholesale.
        std::fs::write(victim, &pristine).unwrap();
        let resumed = check_scope_resume_obs(&scope, &limits, 1, &resume, &Obs::noop())
            .expect("pristine bytes resume");
        let straight = resident_check(&scope, &limits);
        assert_same_exploration(&resumed, &straight, "after restore");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn injected_spill_write_fault_never_changes_the_verdicts() {
    on_big_stack(|| {
        let (scope, limits) = small_scope();
        let resident = resident_check(&scope, &limits);
        let dir = tmp_spill_dir("wfault");
        // Every spill write fails "disk full": all shards stay resident
        // (graceful backpressure), the check completes with identical
        // results, and the degradation is disclosed.
        let mut plan = FaultPlan::new();
        for attempt in 0..64 {
            plan.push(
                Fault::new(FaultSite::SpillWrite, FaultKind::IoError, attempt).in_scope("visited"),
            );
        }
        let faulted = check_scope_config_obs(
            &scope,
            &limits,
            1,
            &spill_config(&dir, Some(plan)),
            &Obs::noop(),
        );
        assert!(faulted.complete, "write faults never wedge the search");
        assert_same_exploration(&faulted, &resident, "under write faults");
        assert!(
            faulted
                .degradation
                .iter()
                .any(|d| d == "spill-write-failed"),
            "got {:?}",
            faulted.degradation
        );
        let _ = std::fs::remove_dir_all(&dir);
    });
}
