//! Experiment E10: bounded exhaustive checking à la Mitchell et al.
//!
//! The paper's related work (§6) used the Murφ model checker with two
//! clients, one server and bounded sessions. This binary runs the same
//! style of analysis over the concrete model: all §5 monitors, increasing
//! network bounds, with a states/depth table — properties 1–5 hold, the
//! refuted 2′/3′ are violated.
//!
//! ```text
//! cargo run --release --example model_check [-- --deadline-ms N] [--max-mem-mb N]
//!     [--checkpoint <path>] [--checkpoint-every-secs N] [--resume]
//!     [--profile <out.json>] [--heartbeat-every-secs N]
//!     [--spill-dir <dir>] [--max-resident-shards N]
//! ```
//!
//! The README's "Command line" section lists the shared flags and exit
//! codes. Each network bound checkpoints to `<path>.m<bound>` and spills
//! under `<dir>/m<bound>`.
//! `--heartbeat-every-secs N` prints a progress line to stderr at level
//! barriers. `--inject-spill-write-fault N` (testing) fails the N-th
//! spill write "disk full": the shard stays resident and the run
//! completes with identical results, disclosing `spill-write-failed`.

use equitls::mc::prelude::*;
use equitls::tls::cli::{self, Flags, RunFlags, UsageError};
use equitls::tls::concrete::Scope;
use equitls::tls::{out, outln};

/// The shared run flags `model_check` takes.
const RUN_FLAGS: &str = "--deadline-ms --max-mem-mb --checkpoint --checkpoint-every-secs \
    --resume --profile --spill-dir --max-resident-shards";

struct Args {
    run: RunFlags,
    heartbeat_every_secs: u64,
    inject_spill_write_fault: Option<u64>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, UsageError> {
    let mut args = Args {
        run: RunFlags::accepting(RUN_FLAGS),
        heartbeat_every_secs: 0,
        inject_spill_write_fault: None,
    };
    while let Some(arg) = flags.next() {
        if args.run.parse(&arg, flags)? {
            continue;
        }
        match arg.as_str() {
            "--heartbeat-every-secs" => {
                args.heartbeat_every_secs = flags.value(&arg, "a duration in seconds")?;
            }
            "--inject-spill-write-fault" => {
                args.inject_spill_write_fault = Some(flags.value(&arg, "a write-attempt index")?);
            }
            other => return Err(cli::unknown_flag(other)),
        }
    }
    args.run.validate()?;
    Ok(args)
}

fn main() {
    let args = cli::parse_env("", parse_args);
    let run = &args.run;
    let budget = run.interruptible_budget();
    outln!("== bounded exhaustive check (Mitchell-et-al.-style scope) ==\n");
    let (obs, recorder) = run.obs();
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
            checkpoint_path: run.checkpoint.as_ref().map(|p| {
                let mut path = p.clone().into_os_string();
                path.push(format!(".m{max_messages}"));
                path.into()
            }),
            checkpoint_every_secs: run.checkpoint_every_secs,
            heartbeat_every_secs: args.heartbeat_every_secs,
            spill_dir: run
                .spill_dir
                .as_ref()
                .map(|d| d.join(format!("m{max_messages}"))),
            max_resident_shards: run.max_resident_shards,
        };
        let result = if run.resume {
            check_scope_resume_obs(&scope, &limits, &config, &obs).unwrap_or_else(|e| {
                cli::fail(format!("cannot resume network bound {max_messages}: {e}"))
            })
        } else {
            check_scope_config_obs(&scope, &limits, 1, &config, &obs)
        };
        outln!(
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
        out!("  states/depth:");
        for (d, n) in result.states_per_depth.iter().enumerate() {
            out!(" {d}:{n}");
        }
        outln!();
        if result.unexpanded > 0 {
            outln!(
                "  unexpanded: {} (states enqueued but never expanded)",
                result.unexpanded
            );
        }
        if result.spill_shards > 0 || !result.degradation.is_empty() {
            outln!(
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
            outln!("  {name:<24} {status}");
            if let Some(v) = violated {
                if !expected_to_hold {
                    outln!("    trace ({} steps):", v.trace.len());
                    for (label, _) in &v.trace {
                        outln!("      {label}");
                    }
                }
            }
        }
        outln!();
    }
    run.write_profile(recorder.as_deref());
    run.exit_if_drained("model_check", "search");
}
