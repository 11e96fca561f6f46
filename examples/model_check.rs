//! Experiment E10: bounded exhaustive checking à la Mitchell et al.
//!
//! The paper's related work (§6) used the Murφ model checker with two
//! clients, one server and bounded sessions. This binary runs the same
//! style of analysis over the concrete model: all §5 monitors, increasing
//! network bounds, with a states/depth table — properties 1–5 hold, the
//! refuted 2′/3′ are violated.
//!
//! ```text
//! cargo run --release --example model_check [-- --jobs N] [--deadline-ms N] [--max-mem-mb N]
//!     [--checkpoint <path>] [--checkpoint-every-secs N] [--resume]
//!     [--profile <out.json>] [--heartbeat-every-secs N]
//!     [--spill-dir <dir>] [--max-resident-shards N]
//! ```
//!
//! `--jobs N` explores each BFS level on N worker threads (0 = all
//! cores); results are identical for every N. `--deadline-ms` and
//! `--max-mem-mb` bound the whole run: a tripped budget reports a
//! *partial* but internally consistent tally with a typed stop reason
//! instead of running away — unless `--spill-dir <dir>` gives the
//! visited set a disk tier, in which case cold shards spill there (one
//! `m<bound>` subdirectory per network bound) and the search completes
//! under the same ceiling, bit-identical to an unconstrained run, with
//! the degradation disclosed. `--max-resident-shards N` additionally
//! caps how many shards stay resident after each level barrier.
//! `--checkpoint <path>` snapshots each bound's BFS at level barriers
//! (one file per network bound, `<path>.m<bound>`); `--resume` picks
//! every bound up from its snapshot — the final tables are identical to
//! an uninterrupted run. `--profile <out.json>` records per-level
//! successor/dedup timing and writes a Chrome trace (open in Perfetto);
//! `--heartbeat-every-secs N` prints a progress line to stderr at level
//! barriers. Neither changes any verdict or count.
//! `--inject-spill-write-fault N` (testing) fails the N-th spill write
//! "disk full": the affected shard stays resident and the run completes
//! with identical results, disclosing `spill-write-failed`.

use equitls::mc::prelude::*;
use equitls::obs::sink::{Obs, RecordingSink};
use equitls::obs::trace::Trace;
use equitls::tls::concrete::Scope;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    jobs: usize,
    deadline_ms: Option<u64>,
    max_mem_mb: Option<u64>,
    checkpoint: Option<std::path::PathBuf>,
    checkpoint_every_secs: u64,
    resume: bool,
    profile: Option<std::path::PathBuf>,
    heartbeat_every_secs: u64,
    spill_dir: Option<std::path::PathBuf>,
    max_resident_shards: usize,
    inject_spill_write_fault: Option<u64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        jobs: 0,
        deadline_ms: None,
        max_mem_mb: None,
        checkpoint: None,
        checkpoint_every_secs: 0,
        resume: false,
        profile: None,
        heartbeat_every_secs: 0,
        spill_dir: None,
        max_resident_shards: 0,
        inject_spill_write_fault: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut numeric = |hint: &str| {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{arg} needs {hint}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--jobs" => parsed.jobs = numeric("a thread count (0 = all cores)") as usize,
            "--deadline-ms" => parsed.deadline_ms = Some(numeric("a duration in milliseconds")),
            "--max-mem-mb" => parsed.max_mem_mb = Some(numeric("a size in mebibytes")),
            "--checkpoint-every-secs" => {
                parsed.checkpoint_every_secs = numeric("a duration in seconds");
            }
            "--heartbeat-every-secs" => {
                parsed.heartbeat_every_secs = numeric("a duration in seconds");
            }
            "--checkpoint" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--checkpoint needs a file path");
                    std::process::exit(2);
                });
                parsed.checkpoint = Some(path.into());
            }
            "--profile" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--profile needs a file path");
                    std::process::exit(2);
                });
                parsed.profile = Some(path.into());
            }
            "--resume" => parsed.resume = true,
            "--spill-dir" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--spill-dir needs a directory path");
                    std::process::exit(2);
                });
                parsed.spill_dir = Some(path.into());
            }
            "--max-resident-shards" => {
                parsed.max_resident_shards = numeric("a shard cap") as usize;
            }
            "--inject-spill-write-fault" => {
                parsed.inject_spill_write_fault = Some(numeric("a write-attempt index"));
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if parsed.resume && parsed.checkpoint.is_none() {
        eprintln!("--resume needs --checkpoint <path>");
        std::process::exit(2);
    }
    parsed
}

fn main() {
    let args = parse_args();
    let jobs = args.jobs;
    let mut budget = Budget::unlimited();
    if let Some(ms) = args.deadline_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(mb) = args.max_mem_mb {
        budget = budget.with_max_mem_mb(mb);
    }
    // Signal-drain: SIGINT/SIGTERM cancel the shared budget token; the
    // BFS stops at the next level barrier, the per-bound checkpoints
    // keep their last barrier snapshot, and the process exits 130 so
    // scripts resume with `--resume` instead of reporting a failure.
    equitls::persist::signal::install_term_flag();
    let term_token = budget.cancel_token();
    std::thread::Builder::new()
        .name("term-watcher".into())
        .spawn(move || {
            while !equitls::persist::signal::term_requested() {
                std::thread::sleep(Duration::from_millis(25));
            }
            term_token.cancel();
        })
        .expect("spawn term watcher");
    println!(
        "== bounded exhaustive check (Mitchell-et-al.-style scope, {} worker threads) ==\n",
        resolve_jobs(jobs)
    );
    let recorder = args
        .profile
        .as_ref()
        .map(|_| Arc::new(RecordingSink::new()));
    let obs = match &recorder {
        Some(rec) => Obs::new(rec.clone()),
        None => Obs::noop(),
    };
    for max_messages in [1, 2, 3] {
        let mut scope = Scope::counterexample();
        scope.max_messages = max_messages;
        let limits = Limits {
            max_states: 150_000,
            max_depth: max_messages + 1,
        };
        // One snapshot file per network bound: the bounds are independent
        // searches, so each gets its own resumable checkpoint — and its
        // own spill subdirectory, so shard files never mix across bounds.
        let config = ExploreConfig {
            budget: budget.clone(),
            fault_plan: args.inject_spill_write_fault.map(|n| {
                FaultPlan::new().with_fault(
                    Fault::new(FaultSite::SpillWrite, FaultKind::IoError, n).in_scope("visited"),
                )
            }),
            checkpoint_path: args.checkpoint.as_ref().map(|p| {
                let mut path = p.clone().into_os_string();
                path.push(format!(".m{max_messages}"));
                path.into()
            }),
            checkpoint_every_secs: args.checkpoint_every_secs,
            heartbeat_every_secs: args.heartbeat_every_secs,
            spill_dir: args
                .spill_dir
                .as_ref()
                .map(|d| d.join(format!("m{max_messages}"))),
            max_resident_shards: args.max_resident_shards,
            spill_shards: 0,
        };
        let result = if args.resume {
            match check_scope_resume_obs(&scope, &limits, jobs, &config, &obs) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("cannot resume network bound {max_messages}: {e}");
                    std::process::exit(2);
                }
            }
        } else {
            check_scope_config_obs(&scope, &limits, jobs, &config, &obs)
        };
        println!(
            "network bound {max_messages}: {} states, depth {}, {:?}, complete: {}{}",
            result.states,
            result.depth_reached,
            result.duration,
            result.complete,
            match result.stop_reason {
                Some(reason) => format!(" (stopped: {reason})"),
                None => String::new(),
            }
        );
        print!("  states/depth:");
        for (d, n) in result.states_per_depth.iter().enumerate() {
            print!(" {d}:{n}");
        }
        println!();
        if result.unexpanded > 0 {
            println!(
                "  unexpanded: {} (states enqueued but never expanded)",
                result.unexpanded
            );
        }
        if result.spill_shards > 0 || !result.degradation.is_empty() {
            println!(
                "  spill: {} shards, {} bytes, {} reloads; degradation: [{}]",
                result.spill_shards,
                result.spill_bytes,
                result.spill_reloads,
                result.degradation.join(", ")
            );
        }
        for (name, expected_to_hold) in expected_outcomes() {
            let violated = result.violation(name);
            let status = match (expected_to_hold, violated.is_some()) {
                (true, false) => "holds (as the paper proves)",
                (false, true) => "VIOLATED (as the paper's counterexample shows)",
                (true, true) => "VIOLATED — disagreement with the paper!",
                (false, false) => "no violation in this bound (needs a larger scope)",
            };
            println!("  {name:<24} {status}");
            if let Some(v) = violated {
                if !expected_to_hold {
                    println!("    trace ({} steps):", v.trace.len());
                    for (label, _) in &v.trace {
                        println!("      {label}");
                    }
                }
            }
        }
        println!();
    }
    if let (Some(path), Some(rec)) = (&args.profile, &recorder) {
        let chrome = Trace::from_events(rec.timed_events()).chrome_trace();
        match std::fs::write(path, chrome.to_string()) {
            Ok(()) => eprintln!(
                "Chrome trace written to {} (open in Perfetto)",
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write profile {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if equitls::persist::signal::term_requested() {
        let checkpointed = args
            .checkpoint
            .as_ref()
            .map(|p| {
                format!(
                    "; checkpoints under {} written, resume with --resume",
                    p.display()
                )
            })
            .unwrap_or_default();
        eprintln!(
            "model_check: {} received, search drained{checkpointed}",
            equitls::persist::signal::term_signal_name().unwrap_or("termination signal"),
        );
        std::process::exit(equitls::persist::signal::TERM_EXIT_CODE);
    }
}
