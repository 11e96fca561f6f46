//! The command-line layer every binary and example shares: [`Flags`]
//! parses each flag value into its type with [`FromStr`], [`RunFlags`]
//! holds the run knobs several binaries take together with the code
//! around them (budget and signal watcher, sink stack, Chrome profile,
//! drain-and-exit-130), [`outln!`](crate::outln) writes to stdout and
//! stops quietly with [`CLOSED_PIPE_EXIT`] when stdout is closed, and
//! [`run_on_big_stack`] gives the prover its 512 MiB stack.
//!
//! A missing, malformed or out-of-range value and an unknown flag are a
//! [`UsageError`] naming the flag; [`parse_env`] prints it and exits 2.
//! The README's "Command line" section tabulates the shared flags, each
//! binary's defaults and every exit code.

use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use equitls_obs::sink::{EventSink, JsonlSink, Obs, RecordingSink, TeeSink};
use equitls_obs::trace::Trace;
use equitls_persist::signal;
use equitls_rewrite::budget::{Budget, MAX_JOBS};

/// Exit status when stdout closed early: 128 + SIGPIPE, what a shell
/// reports for a tool killed by SIGPIPE.
pub const CLOSED_PIPE_EXIT: i32 = 141;

/// A bad command line: the message names the flag and what it needs.
pub type UsageError = String;

/// The error for a flag no parser took.
pub fn unknown_flag(flag: &str) -> UsageError {
    format!("unknown flag {flag}")
}

/// Print `message` to stderr and exit 2: a usage or startup error.
pub fn fail(message: impl fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Parse this process's arguments with `parse`. A usage error is printed,
/// followed by `usage` unless that is empty, and the process exits 2.
pub fn parse_env<T>(usage: &str, parse: impl FnOnce(&mut Flags) -> Result<T, UsageError>) -> T {
    let mut flags = Flags(std::env::args().skip(1).collect::<Vec<_>>().into_iter());
    parse(&mut flags).unwrap_or_else(|e| match usage {
        "" => fail(e),
        _ => fail(format!("{e}\n{usage}")),
    })
}

/// The arguments of one command line. As an iterator it yields the next
/// argument; [`Flags::value`] takes the one after a flag.
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// Parse the value that must follow `flag`; `hint` says what it needs.
    pub fn value<T: FromStr>(&mut self, flag: &str, hint: &str) -> Result<T, UsageError> {
        self.0
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs {hint}"))
    }

    /// Parse a thread count for `flag`, refusing more than [`MAX_JOBS`].
    pub fn threads(&mut self, flag: &str, hint: &str) -> Result<usize, UsageError> {
        match self.value(flag, hint)? {
            n if n > MAX_JOBS => Err(format!(
                "{flag} needs {hint}; {n} is over the limit of {MAX_JOBS}"
            )),
            n => Ok(n),
        }
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// Run knobs shared across binaries. A binary names the flags it takes
/// in [`RunFlags::accepting`]; the rest keep their defaults and parse as
/// unknown.
#[derive(Debug, Clone, Default)]
pub struct RunFlags {
    accepted: &'static str,
    /// `--jobs N`: worker threads, `0` = all cores.
    pub jobs: usize,
    /// `--deadline-ms N`: wall-clock budget for the whole run.
    pub deadline_ms: Option<u64>,
    /// `--max-mem-mb N`: heap-estimate ceiling.
    pub max_mem_mb: Option<u64>,
    /// `--fuel N`: rewrite steps per reduction.
    pub fuel: Option<u64>,
    /// `--checkpoint PATH`: snapshot path.
    pub checkpoint: Option<PathBuf>,
    /// `--checkpoint-every-secs N`: least seconds between snapshot writes.
    pub checkpoint_every_secs: u64,
    /// `--resume`: pick the run up from its snapshot.
    pub resume: bool,
    /// `--trace PATH`: stream every event as JSONL.
    pub trace: Option<PathBuf>,
    /// `--profile PATH`: write the run as Chrome trace-event JSON.
    pub profile: Option<PathBuf>,
    /// `--metrics`: print summary tables at the end.
    pub metrics: bool,
    /// `--variant`: the §5.3 variant model.
    pub variant: bool,
    /// `--spill-dir DIR`: disk tier for the visited set.
    pub spill_dir: Option<PathBuf>,
    /// `--max-resident-shards N`: visited shards kept in memory.
    pub max_resident_shards: usize,
}

impl RunFlags {
    /// Defaults, taking the space-separated flags in `accepted` (e.g.
    /// `"--jobs --fuel"`).
    pub fn accepting(accepted: &'static str) -> Self {
        RunFlags {
            accepted,
            ..RunFlags::default()
        }
    }

    /// Parse a command line of nothing but the run flags in `accepted`.
    pub fn parse_only(accepted: &'static str, flags: &mut Flags) -> Result<Self, UsageError> {
        let mut run = RunFlags::accepting(accepted);
        while let Some(arg) = flags.next() {
            if !run.parse(&arg, flags)? {
                return Err(unknown_flag(&arg));
            }
        }
        run.validate()?;
        Ok(run)
    }

    /// Take `flag` and its value if it is an accepted run flag; `Ok(false)`
    /// leaves it to the binary's own flags.
    pub fn parse(&mut self, flag: &str, flags: &mut Flags) -> Result<bool, UsageError> {
        if !self.takes(flag) {
            return Ok(false);
        }
        match flag {
            "--jobs" => self.jobs = flags.threads(flag, "a thread count (0 = all cores)")?,
            "--deadline-ms" => self.deadline_ms = Some(flags.value(flag, "milliseconds")?),
            "--max-mem-mb" => self.max_mem_mb = Some(flags.value(flag, "mebibytes")?),
            "--fuel" => self.fuel = Some(flags.value(flag, "a rewrite-step budget")?),
            "--checkpoint" => self.checkpoint = Some(flags.value(flag, "a file path")?),
            "--checkpoint-every-secs" => {
                self.checkpoint_every_secs = flags.value(flag, "seconds")?
            }
            "--resume" => self.resume = true,
            "--trace" => self.trace = Some(flags.value(flag, "a file path")?),
            "--profile" => self.profile = Some(flags.value(flag, "a file path")?),
            "--metrics" => self.metrics = true,
            "--variant" => self.variant = true,
            "--spill-dir" => self.spill_dir = Some(flags.value(flag, "a directory path")?),
            "--max-resident-shards" => {
                self.max_resident_shards = flags.value(flag, "a shard cap")?
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn takes(&self, flag: &str) -> bool {
        self.accepted.split(' ').any(|f| f == flag)
    }

    /// Where the binary takes `--checkpoint`, `--resume` needs it.
    pub fn validate(&self) -> Result<(), UsageError> {
        if self.resume && self.checkpoint.is_none() && self.takes("--checkpoint") {
            return Err("--resume needs --checkpoint <path> (the snapshot to resume from)".into());
        }
        Ok(())
    }

    /// The run's budget, limited by `--deadline-ms` and `--max-mem-mb`.
    /// SIGINT/SIGTERM cancel it from a watcher thread: the engines stop at
    /// their next cooperative check, the last checkpoint stays on disk,
    /// and [`RunFlags::exit_if_drained`] exits 130.
    pub fn interruptible_budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(mb) = self.max_mem_mb {
            budget = budget.with_max_mem_mb(mb);
        }
        signal::install_term_flag();
        let token = budget.cancel_token();
        std::thread::Builder::new()
            .name("term-watcher".into())
            .spawn(move || {
                while !signal::term_requested() {
                    std::thread::sleep(Duration::from_millis(25));
                }
                token.cancel();
            })
            .expect("spawn term watcher");
        budget
    }

    /// The sink stack: a JSONL stream for `--trace`, a recorder for
    /// `--metrics` or `--profile` (returned for the summary and profile),
    /// a tee when both. A trace file that cannot be created exits 2.
    pub fn obs(&self) -> (Obs, Option<Arc<RecordingSink>>) {
        let recorder =
            (self.metrics || self.profile.is_some()).then(|| Arc::new(RecordingSink::new()));
        let mut sinks: Vec<Arc<dyn EventSink>> = Vec::new();
        if let Some(path) = &self.trace {
            match JsonlSink::create(path) {
                Ok(sink) => sinks.push(Arc::new(sink)),
                Err(e) => fail(format!("cannot open trace file {}: {e}", path.display())),
            }
        }
        sinks.extend(recorder.iter().map(|rec| rec.clone() as Arc<dyn EventSink>));
        let obs = match sinks.len() {
            0 => Obs::noop(),
            1 => Obs::new(sinks.pop().expect("one sink")),
            _ => Obs::new(Arc::new(TeeSink::new(sinks))),
        };
        (obs, recorder)
    }

    /// Write `recorder`'s events to `--profile` as Chrome trace-event JSON
    /// (open in Perfetto). A write failure exits 2.
    pub fn write_profile(&self, recorder: Option<&RecordingSink>) {
        let (Some(path), Some(rec)) = (&self.profile, recorder) else {
            return;
        };
        let chrome = Trace::from_events(rec.timed_events()).chrome_trace();
        match std::fs::write(path, chrome.to_string()) {
            Ok(()) => eprintln!(
                "Chrome trace written to {} (open in Perfetto)",
                path.display()
            ),
            Err(e) => fail(format!("cannot write profile {}: {e}", path.display())),
        }
    }

    /// After a SIGINT/SIGTERM drain, say so on stderr and exit 130: the
    /// run is open by interruption, not refuted, so this outranks the
    /// verdict's exit code.
    pub fn exit_if_drained(&self, tool: &str, what: &str) {
        if !signal::term_requested() {
            return;
        }
        let checkpointed = self
            .checkpoint
            .as_ref()
            .map(|p| format!("; checkpoint {} written, resume with --resume", p.display()))
            .unwrap_or_default();
        eprintln!(
            "{tool}: {} received, {what} drained{checkpointed}",
            signal::term_signal_name().unwrap_or("termination signal"),
        );
        std::process::exit(signal::TERM_EXIT_CODE);
    }
}

/// Run `job` on a thread with a 512 MiB stack (deep proof searches and
/// critical-pair joins recurse far past the main thread's) and wait for
/// it. A panic in `job` exits 101, as it would on the main thread.
pub fn run_on_big_stack(job: impl FnOnce() + Send + 'static) {
    let worker = std::thread::Builder::new()
        .stack_size(512 * 1024 * 1024)
        .spawn(job)
        .expect("spawn the big-stack thread");
    if worker.join().is_err() {
        std::process::exit(101);
    }
}

/// Write to stdout. A closed stdout exits [`CLOSED_PIPE_EXIT`] with
/// nothing on stderr; any other write error panics, as `print!` does.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(CLOSED_PIPE_EXIT);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`cli::write_stdout`](crate::cli::write_stdout).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`cli::write_stdout`](crate::cli::write_stdout).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &str = "--jobs --deadline-ms --fuel --checkpoint --resume --metrics";

    fn parse(accepted: &'static str, args: &[&str]) -> Result<RunFlags, UsageError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        RunFlags::parse_only(accepted, &mut Flags(args.into_iter()))
    }

    #[test]
    fn accepted_flags_parse_into_their_types() {
        let run = parse(
            ALL,
            &[
                "--jobs",
                "3",
                "--fuel",
                "20",
                "--checkpoint",
                "c.snap",
                "--resume",
            ],
        )
        .unwrap();
        assert_eq!(run.jobs, 3);
        assert_eq!(run.fuel, Some(20));
        assert_eq!(run.checkpoint, Some(PathBuf::from("c.snap")));
        assert!(run.resume && !run.metrics);
    }

    #[test]
    fn a_flag_the_binary_does_not_accept_is_unknown() {
        assert_eq!(
            parse("--jobs", &["--fuel", "20"]).unwrap_err(),
            "unknown flag --fuel"
        );
        assert_eq!(
            parse(ALL, &["--frobnicate"]).unwrap_err(),
            "unknown flag --frobnicate"
        );
    }

    #[test]
    fn a_missing_value_names_the_flag_and_its_hint() {
        assert_eq!(
            parse(ALL, &["--deadline-ms"]).unwrap_err(),
            "--deadline-ms needs milliseconds"
        );
    }

    #[test]
    fn a_malformed_number_names_the_flag() {
        assert_eq!(
            parse(ALL, &["--jobs", "x"]).unwrap_err(),
            "--jobs needs a thread count (0 = all cores)"
        );
        assert_eq!(
            parse(ALL, &["--fuel", "-1"]).unwrap_err(),
            "--fuel needs a rewrite-step budget"
        );
    }

    #[test]
    fn jobs_over_the_bound_are_refused() {
        assert_eq!(parse(ALL, &["--jobs", "256"]).unwrap().jobs, MAX_JOBS);
        assert_eq!(
            parse(ALL, &["--jobs", "257"]).unwrap_err(),
            "--jobs needs a thread count (0 = all cores); 257 is over the limit of 256"
        );
        assert!(parse(ALL, &["--jobs", "100000000000000000000"]).is_err());
    }

    #[test]
    fn resume_needs_checkpoint_where_the_binary_takes_one() {
        let err = parse(ALL, &["--resume"]).unwrap_err();
        assert!(err.starts_with("--resume needs --checkpoint"), "{err}");
        // A binary whose `--resume` replays something else checks it itself.
        assert!(parse("--resume", &["--resume"]).unwrap().resume);
    }
}
