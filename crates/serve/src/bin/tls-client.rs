//! `tls-client`: submit verification jobs to a running `equitls-serve`.
//!
//! ```text
//! tls-client --socket /tmp/equitls.sock prove inv1
//! tls-client --socket s.sock check --max-depth 2
//! tls-client --socket s.sock lint --target standard
//! tls-client --socket s.sock ping | stats | drain | shutdown
//! tls-client --socket s.sock --stdin < jobs.jsonl
//! ```
//!
//! On a `busy` reply the client retries with capped exponential backoff
//! and seeded jitter (`--backoff-seed`, deterministic under test),
//! floored by the daemon's `retry_after_ms` hint. `--ack` submits
//! asynchronously (the daemon answers `accepted` immediately and the
//! result lands in the journal/results file).
//!
//! The README's "Command line" section lists the flags and exit codes.

use std::io::{BufRead, BufReader, Read, Write};

use equitls_obs::json::{self, JsonValue};
use equitls_serve::backoff::Backoff;
use equitls_serve::endpoint::Endpoint;
use equitls_serve::proto::{JobKind, JobRequest};
use equitls_tls::cli::{self, Flags, RunFlags, UsageError};
use equitls_tls::outln;

struct Options {
    endpoint: Endpoint,
    max_retries: u32,
    backoff: Backoff,
    stdin: bool,
    /// The request line built from the positional command, if any.
    request: String,
}

/// The positional command: a job, or a control verb the daemon answers
/// inline.
enum Command {
    Job(JobKind),
    Control(&'static str),
}

fn parse_args(flags: &mut Flags) -> Result<Options, UsageError> {
    let mut endpoint = None;
    let mut run = RunFlags::accepting("--jobs --deadline-ms --fuel --variant");
    let mut req = JobRequest::new("", JobKind::Prove);
    let mut command = None;
    let (mut max_retries, mut backoff_seed) = (5, 0);
    let (mut backoff_base_ms, mut backoff_cap_ms) = (50, 2_000);
    let mut stdin = false;
    while let Some(arg) = flags.next() {
        if run.parse(&arg, flags)? || Endpoint::parse(&arg, flags, &mut endpoint)? {
            continue;
        }
        match arg.as_str() {
            "--max-retries" => max_retries = flags.value(&arg, "a count")?,
            "--backoff-seed" => backoff_seed = flags.value(&arg, "a seed")?,
            "--backoff-base-ms" => backoff_base_ms = flags.value(&arg, "milliseconds")?,
            "--backoff-cap-ms" => backoff_cap_ms = flags.value(&arg, "milliseconds")?,
            "--stdin" => stdin = true,
            "--id" => req.id = flags.value(&arg, "a request id")?,
            "--ack" => req.ack = true,
            "--trace-events" => req.trace = true,
            "--max-messages" => req.max_messages = Some(flags.value(&arg, "a message bound")?),
            "--max-depth" => req.max_depth = Some(flags.value(&arg, "a depth bound")?),
            "--max-states" => req.max_states = Some(flags.value(&arg, "a state bound")?),
            "--target" => req.target = flags.value(&arg, "standard|variant")?,
            "prove" => {
                req.property = flags.value(&arg, "a property name (e.g. prove inv1)")?;
                command = Some(Command::Job(JobKind::Prove));
            }
            "check" => command = Some(Command::Job(JobKind::Check)),
            "lint" => command = Some(Command::Job(JobKind::Lint)),
            "ping" => command = Some(Command::Control("ping")),
            "stats" => command = Some(Command::Control("stats")),
            "drain" => command = Some(Command::Control("drain")),
            "shutdown" => command = Some(Command::Control("shutdown")),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let Some(endpoint) = endpoint else {
        return Err("need a daemon address: --socket <path> or --tcp <addr>".into());
    };
    if req.id.is_empty() {
        req.id = "cli".to_string();
    }
    let request = match command {
        Some(Command::Job(kind)) => {
            req.kind = kind;
            req.variant = run.variant;
            req.jobs = run.jobs;
            req.deadline_ms = run.deadline_ms;
            req.fuel = run.fuel;
            req.to_json().to_string()
        }
        Some(Command::Control(kind)) => JsonValue::Object(vec![
            ("id".to_string(), JsonValue::String(req.id)),
            ("kind".to_string(), JsonValue::String(kind.to_string())),
        ])
        .to_string(),
        None if stdin => String::new(),
        None => {
            return Err(
                "need a command (prove|check|lint|ping|stats|drain|shutdown) or --stdin".into(),
            )
        }
    };
    Ok(Options {
        endpoint,
        max_retries,
        backoff: Backoff::new(backoff_seed, backoff_base_ms, backoff_cap_ms),
        stdin,
        request,
    })
}

fn main() {
    let mut opts = cli::parse_env("", parse_args);
    let lines: Vec<String> = if opts.stdin {
        let mut input = String::new();
        if std::io::stdin().read_to_string(&mut input).is_err() {
            cli::fail("tls-client: cannot read stdin");
        }
        input
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect()
    } else {
        vec![opts.request.clone()]
    };

    let worst = lines
        .iter()
        .map(|line| submit_with_retry(&mut opts, line))
        .max()
        .unwrap_or(0);
    std::process::exit(worst);
}

/// Send one request line, retrying through `busy` replies. Prints every
/// reply (including the intermediate `busy` ones) to stdout.
fn submit_with_retry(opts: &mut Options, line: &str) -> i32 {
    for attempt in 0..=opts.max_retries {
        let reply = match exchange(&opts.endpoint, line) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("tls-client: connection failed: {e}");
                return 2;
            }
        };
        outln!("{reply}");
        let status = json::parse(&reply)
            .ok()
            .and_then(|v| v.get("status").and_then(|s| s.as_str()).map(str::to_string))
            .unwrap_or_default();
        match status.as_str() {
            "busy" => {
                let hint = json::parse(&reply)
                    .ok()
                    .and_then(|v| match v.get("retry_after_ms") {
                        Some(JsonValue::Number(n)) => Some(*n as u64),
                        _ => None,
                    })
                    .unwrap_or(0);
                let delay = opts.backoff.delay_with_hint_ms(attempt, hint);
                eprintln!("tls-client: busy, retrying in {delay} ms (attempt {attempt})");
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
            "ok" | "accepted" => return 0,
            _ => return 1,
        }
    }
    eprintln!("tls-client: still busy after {} retries", opts.max_retries);
    3
}

/// One connect / send / receive round trip.
fn exchange(endpoint: &Endpoint, line: &str) -> std::io::Result<String> {
    let (reader, mut writer) = endpoint.connect()?;
    writeln!(writer, "{line}")?;
    writer.flush()?;
    let mut reply = String::new();
    BufReader::new(reader).read_line(&mut reply)?;
    if reply.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection without replying",
        ));
    }
    Ok(reply.trim_end().to_string())
}
