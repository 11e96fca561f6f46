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
//! Exit codes: **0** every reply `ok`/`accepted`/control, **1** a typed
//! error or shed reply, **2** usage or connection error, **3** still
//! busy after `--max-retries`.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;

use equitls_obs::json::{self, JsonValue};
use equitls_serve::backoff::Backoff;

struct Options {
    socket: Option<PathBuf>,
    tcp: Option<String>,
    max_retries: u32,
    backoff_seed: u64,
    backoff_base_ms: u64,
    backoff_cap_ms: u64,
    stdin: bool,
    /// The request built from the positional command, if any.
    request: Vec<(String, JsonValue)>,
}

fn numeric_flag(args: &mut impl Iterator<Item = String>, flag: &str, hint: &str) -> u64 {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs {hint}");
        std::process::exit(2);
    })
}

fn parse_args() -> Options {
    let mut opts = Options {
        socket: None,
        tcp: None,
        max_retries: 5,
        backoff_seed: 0,
        backoff_base_ms: 50,
        backoff_cap_ms: 2_000,
        stdin: false,
        request: Vec::new(),
    };
    let mut fields: Vec<(String, JsonValue)> = Vec::new();
    let mut id = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                opts.socket = args.next().map(PathBuf::from);
                if opts.socket.is_none() {
                    eprintln!("--socket needs a path");
                    std::process::exit(2);
                }
            }
            "--tcp" => {
                opts.tcp = args.next();
                if opts.tcp.is_none() {
                    eprintln!("--tcp needs an address (e.g. --tcp 127.0.0.1:7878)");
                    std::process::exit(2);
                }
            }
            "--max-retries" => {
                opts.max_retries =
                    numeric_flag(&mut args, "--max-retries", "a count (e.g. --max-retries 5)")
                        as u32;
            }
            "--backoff-seed" => {
                opts.backoff_seed = numeric_flag(
                    &mut args,
                    "--backoff-seed",
                    "a seed (e.g. --backoff-seed 7)",
                );
            }
            "--backoff-base-ms" => {
                opts.backoff_base_ms = numeric_flag(
                    &mut args,
                    "--backoff-base-ms",
                    "milliseconds (e.g. --backoff-base-ms 50)",
                );
            }
            "--backoff-cap-ms" => {
                opts.backoff_cap_ms = numeric_flag(
                    &mut args,
                    "--backoff-cap-ms",
                    "milliseconds (e.g. --backoff-cap-ms 2000)",
                );
            }
            "--stdin" => opts.stdin = true,
            "--id" => {
                id = args.next().unwrap_or_else(|| {
                    eprintln!("--id needs a request id");
                    std::process::exit(2);
                });
            }
            "--variant" => fields.push(("variant".into(), JsonValue::Bool(true))),
            "--ack" => fields.push(("ack".into(), JsonValue::Bool(true))),
            "--trace-events" => fields.push(("trace".into(), JsonValue::Bool(true))),
            "--jobs" => {
                let n = numeric_flag(&mut args, "--jobs", "a thread count (e.g. --jobs 2)");
                fields.push(("jobs".into(), JsonValue::Number(n as f64)));
            }
            "--deadline-ms" => {
                let n = numeric_flag(&mut args, "--deadline-ms", "milliseconds");
                fields.push(("deadline_ms".into(), JsonValue::Number(n as f64)));
            }
            "--fuel" => {
                let n = numeric_flag(&mut args, "--fuel", "a rewrite-step budget");
                fields.push(("fuel".into(), JsonValue::Number(n as f64)));
            }
            "--max-messages" => {
                let n = numeric_flag(&mut args, "--max-messages", "a message bound");
                fields.push(("max_messages".into(), JsonValue::Number(n as f64)));
            }
            "--max-depth" => {
                let n = numeric_flag(&mut args, "--max-depth", "a depth bound");
                fields.push(("max_depth".into(), JsonValue::Number(n as f64)));
            }
            "--max-states" => {
                let n = numeric_flag(&mut args, "--max-states", "a state bound");
                fields.push(("max_states".into(), JsonValue::Number(n as f64)));
            }
            "--target" => {
                let t = args.next().unwrap_or_else(|| {
                    eprintln!("--target needs standard|variant");
                    std::process::exit(2);
                });
                fields.push(("target".into(), JsonValue::String(t)));
            }
            "prove" => {
                let property = args.next().unwrap_or_else(|| {
                    eprintln!("prove needs a property name (e.g. prove inv1)");
                    std::process::exit(2);
                });
                fields.insert(0, ("kind".into(), JsonValue::String("prove".into())));
                fields.push(("property".into(), JsonValue::String(property)));
            }
            cmd @ ("check" | "lint" | "ping" | "stats" | "drain" | "shutdown") => {
                fields.insert(0, ("kind".into(), JsonValue::String(cmd.into())));
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if opts.socket.is_none() && opts.tcp.is_none() {
        eprintln!("need a daemon address: --socket <path> or --tcp <addr>");
        std::process::exit(2);
    }
    if !opts.stdin {
        if fields.iter().all(|(k, _)| k != "kind") {
            eprintln!("need a command (prove|check|lint|ping|stats|drain|shutdown) or --stdin");
            std::process::exit(2);
        }
        if id.is_empty() {
            id = "cli".to_string();
        }
        fields.insert(0, ("id".into(), JsonValue::String(id)));
    }
    opts.request = fields;
    opts
}

fn main() {
    let opts = parse_args();
    let lines: Vec<String> = if opts.stdin {
        let mut input = String::new();
        if std::io::stdin().read_to_string(&mut input).is_err() {
            eprintln!("tls-client: cannot read stdin");
            std::process::exit(2);
        }
        input
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect()
    } else {
        vec![JsonValue::Object(opts.request.clone()).to_string()]
    };

    let mut backoff = Backoff::new(opts.backoff_seed, opts.backoff_base_ms, opts.backoff_cap_ms);
    let mut worst = 0;
    for line in &lines {
        let code = submit_with_retry(&opts, line, &mut backoff);
        worst = worst.max(code);
    }
    std::process::exit(worst);
}

/// Send one request line, retrying through `busy` replies. Prints every
/// reply (including the intermediate `busy` ones) to stdout.
fn submit_with_retry(opts: &Options, line: &str, backoff: &mut Backoff) -> i32 {
    for attempt in 0..=opts.max_retries {
        let reply = match exchange(opts, line) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("tls-client: connection failed: {e}");
                return 2;
            }
        };
        println!("{reply}");
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
                let delay = backoff.delay_with_hint_ms(attempt, hint);
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
fn exchange(opts: &Options, line: &str) -> std::io::Result<String> {
    match (&opts.socket, &opts.tcp) {
        (Some(path), _) => {
            let stream = std::os::unix::net::UnixStream::connect(path)?;
            roundtrip(stream, line)
        }
        (None, Some(addr)) => {
            let stream = std::net::TcpStream::connect(addr)?;
            roundtrip(stream, line)
        }
        (None, None) => unreachable!("parse_args requires an address"),
    }
}

fn roundtrip<S: Read + Write + Clone2>(stream: S, line: &str) -> std::io::Result<String> {
    let mut writer = stream.clone2()?;
    writeln!(writer, "{line}")?;
    writer.flush()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    if reply.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "daemon closed the connection without replying",
        ));
    }
    Ok(reply.trim_end().to_string())
}

/// `try_clone` unified across `UnixStream` and `TcpStream`.
trait Clone2: Sized {
    fn clone2(&self) -> std::io::Result<Self>;
}

impl Clone2 for std::os::unix::net::UnixStream {
    fn clone2(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
}

impl Clone2 for std::net::TcpStream {
    fn clone2(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
}
