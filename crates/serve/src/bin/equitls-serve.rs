//! `equitls-serve`: the always-warm verification daemon.
//!
//! ```text
//! equitls-serve --socket /tmp/equitls.sock --journal queue.snap
//! equitls-serve --socket s.sock --journal queue.snap --resume --results out.jsonl
//! equitls-serve --tcp 127.0.0.1:7878 --workers 4
//! ```
//!
//! Speaks newline-delimited JSON over a Unix socket (`--socket`) or,
//! optionally, TCP (`--tcp`). Each line is one request; each reply is one
//! line. Job kinds `prove` / `check` / `lint` run on the supervised
//! worker pool; control kinds `ping` / `stats` / `drain` / `shutdown`
//! are answered inline.
//!
//! Robustness behaviour:
//!
//! * a full queue answers `busy` with `retry_after_ms` (never blocks,
//!   never buffers unboundedly);
//! * under load the daemon degrades gracefully — lint shed at ≥ 50%,
//!   check scopes shrunk at ≥ 75% — and every degradation is disclosed
//!   in the affected response;
//! * a panicking job becomes a typed `worker-fault` response and the
//!   supervisor restarts the worker; the daemon survives;
//! * SIGTERM/SIGINT drain the queue, checkpoint the journal, write the
//!   results file, and exit **130**;
//! * `kill -9` loses nothing that was admitted: restart with `--resume`
//!   and the journal replays the unfinished suffix bit-identically.
//!
//! Exit codes: **0** clean shutdown (drain or `shutdown` request),
//! **130** signal-initiated drain, **2** usage or startup error.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use equitls_obs::json::JsonValue;
use equitls_obs::sink::{EventSink, JsonlSink, Obs};
use equitls_persist::signal;
use equitls_serve::engine::{Admission, ServeConfig, ServeEngine};
use equitls_serve::proto::{self, JobRequest};

struct Options {
    socket: Option<PathBuf>,
    tcp: Option<String>,
    workers: usize,
    queue_cap: usize,
    journal: Option<PathBuf>,
    resume: bool,
    results: Option<PathBuf>,
    retry_after_ms: u64,
    allow_test_jobs: bool,
    trace: Option<PathBuf>,
    spill_dir: Option<PathBuf>,
    max_resident_shards: usize,
}

fn numeric_flag(args: &mut impl Iterator<Item = String>, flag: &str, hint: &str) -> u64 {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs {hint}");
        std::process::exit(2);
    })
}

fn path_flag(args: &mut impl Iterator<Item = String>, flag: &str, hint: &str) -> PathBuf {
    args.next().map(PathBuf::from).unwrap_or_else(|| {
        eprintln!("{flag} needs {hint}");
        std::process::exit(2);
    })
}

fn parse_args() -> Options {
    let mut opts = Options {
        socket: None,
        tcp: None,
        workers: 2,
        queue_cap: 32,
        journal: None,
        resume: false,
        results: None,
        retry_after_ms: 200,
        allow_test_jobs: false,
        trace: None,
        spill_dir: None,
        max_resident_shards: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                opts.socket = Some(path_flag(
                    &mut args,
                    "--socket",
                    "a path (e.g. --socket /tmp/equitls.sock)",
                ));
            }
            "--tcp" => {
                opts.tcp = args.next();
                if opts.tcp.is_none() {
                    eprintln!("--tcp needs an address (e.g. --tcp 127.0.0.1:7878)");
                    std::process::exit(2);
                }
            }
            "--workers" => {
                opts.workers = numeric_flag(
                    &mut args,
                    "--workers",
                    "a worker-thread count (e.g. --workers 4)",
                ) as usize;
                if opts.workers == 0 {
                    eprintln!("--workers must be at least 1 (manual mode is library-only)");
                    std::process::exit(2);
                }
            }
            "--queue-cap" => {
                opts.queue_cap = numeric_flag(
                    &mut args,
                    "--queue-cap",
                    "a queue bound (e.g. --queue-cap 32)",
                ) as usize;
            }
            "--journal" => {
                opts.journal = Some(path_flag(
                    &mut args,
                    "--journal",
                    "a snapshot path (e.g. --journal queue.snap)",
                ));
            }
            "--resume" => opts.resume = true,
            "--results" => {
                opts.results = Some(path_flag(
                    &mut args,
                    "--results",
                    "an output path (e.g. --results out.jsonl)",
                ));
            }
            "--retry-after-ms" => {
                opts.retry_after_ms = numeric_flag(
                    &mut args,
                    "--retry-after-ms",
                    "a backoff hint in milliseconds (e.g. --retry-after-ms 200)",
                );
            }
            "--allow-test-jobs" => opts.allow_test_jobs = true,
            "--spill-dir" => {
                opts.spill_dir = Some(path_flag(
                    &mut args,
                    "--spill-dir",
                    "a directory for visited-set spill files (e.g. --spill-dir /tmp/equitls-spill)",
                ));
            }
            "--max-resident-shards" => {
                opts.max_resident_shards = numeric_flag(
                    &mut args,
                    "--max-resident-shards",
                    "a shard cap (e.g. --max-resident-shards 8)",
                ) as usize;
            }
            "--trace" => {
                opts.trace = Some(path_flag(
                    &mut args,
                    "--trace",
                    "a file path (e.g. --trace serve.jsonl)",
                ));
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if opts.socket.is_none() && opts.tcp.is_none() {
        eprintln!("need a listener: --socket <path> or --tcp <addr>");
        std::process::exit(2);
    }
    if opts.resume && opts.journal.is_none() {
        eprintln!("--resume needs --journal <path> (the queue snapshot to replay)");
        std::process::exit(2);
    }
    opts
}

/// A `shutdown`/`drain` request arrived over a connection.
static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

fn main() {
    let opts = parse_args();
    let obs = match &opts.trace {
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => Obs::new(Arc::new(sink) as Arc<dyn EventSink>),
            Err(e) => {
                eprintln!("cannot open trace file {}: {e}", path.display());
                std::process::exit(2);
            }
        },
        None => Obs::noop(),
    };
    signal::install_term_flag();

    let config = ServeConfig {
        workers: opts.workers,
        queue_cap: opts.queue_cap,
        journal_path: opts.journal.clone(),
        resume: opts.resume,
        retry_after_ms: opts.retry_after_ms,
        fault_plan: None,
        allow_test_jobs: opts.allow_test_jobs,
        spill_dir: opts.spill_dir.clone(),
        max_resident_shards: opts.max_resident_shards,
    };
    let engine = match ServeEngine::start(config, obs) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("equitls-serve: cannot start: {e}");
            std::process::exit(2);
        }
    };

    serve_connections(&opts, &engine);

    // Drain: stop admitting, finish the queue, checkpoint, report.
    engine.drain();
    if let Some(path) = &opts.results {
        if let Err(e) = engine.write_results(path) {
            eprintln!(
                "equitls-serve: warning: cannot write results {} ({e})",
                path.display()
            );
        }
    }
    engine.shutdown();
    if let Some(path) = &opts.socket {
        std::fs::remove_file(path).ok();
    }
    if signal::term_requested() {
        eprintln!(
            "equitls-serve: drained after {}; journal checkpointed",
            signal::term_signal_name().unwrap_or("signal")
        );
        std::process::exit(signal::TERM_EXIT_CODE);
    }
}

/// Accept connections until a signal or a `drain`/`shutdown` request.
fn serve_connections(opts: &Options, engine: &Arc<ServeEngine>) {
    let stop = || signal::term_requested() || STOP_REQUESTED.load(Ordering::SeqCst);
    match (&opts.socket, &opts.tcp) {
        (Some(path), _) => {
            std::fs::remove_file(path).ok(); // stale socket from a kill -9
            let listener = std::os::unix::net::UnixListener::bind(path).unwrap_or_else(|e| {
                eprintln!("equitls-serve: cannot bind {}: {e}", path.display());
                std::process::exit(2);
            });
            listener
                .set_nonblocking(true)
                .expect("nonblocking listener");
            eprintln!("equitls-serve: listening on {}", path.display());
            while !stop() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).ok();
                        let engine = Arc::clone(engine);
                        std::thread::spawn(move || {
                            let reader = match stream.try_clone() {
                                Ok(clone) => BufReader::new(clone),
                                Err(_) => return,
                            };
                            handle_connection(reader, stream, &engine);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(e) => {
                        eprintln!("equitls-serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
        }
        (None, Some(addr)) => {
            let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
                eprintln!("equitls-serve: cannot bind {addr}: {e}");
                std::process::exit(2);
            });
            listener
                .set_nonblocking(true)
                .expect("nonblocking listener");
            eprintln!("equitls-serve: listening on {addr}");
            while !stop() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).ok();
                        let engine = Arc::clone(engine);
                        std::thread::spawn(move || {
                            let reader = match stream.try_clone() {
                                Ok(clone) => BufReader::new(clone),
                                Err(_) => return,
                            };
                            handle_connection(reader, stream, &engine);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(e) => {
                        eprintln!("equitls-serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
        }
        (None, None) => unreachable!("parse_args requires a listener"),
    }
}

/// One connection: a line in, a line out, until EOF.
fn handle_connection<R: BufRead, W: Write>(reader: R, mut writer: W, engine: &ServeEngine) {
    for line in reader.lines() {
        let Ok(line) = line else { return };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let reply = dispatch_line(line, engine);
        if writeln!(writer, "{reply}").is_err() || writer.flush().is_err() {
            return;
        }
        if STOP_REQUESTED.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Route one request line: control kinds inline, job kinds through
/// admission.
fn dispatch_line(line: &str, engine: &ServeEngine) -> String {
    let id = equitls_obs::json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(|v| v.as_str()).map(str::to_string))
        .unwrap_or_default();
    let kind = equitls_obs::json::parse(line)
        .ok()
        .and_then(|v| v.get("kind").and_then(|v| v.as_str()).map(str::to_string))
        .unwrap_or_default();
    match kind.as_str() {
        "ping" => control_response(&id, "ping", None),
        "stats" => control_response(&id, "stats", Some(engine.stats_json())),
        "drain" | "shutdown" => {
            STOP_REQUESTED.store(true, Ordering::SeqCst);
            control_response(&id, &kind, None)
        }
        _ => match JobRequest::from_line(line) {
            Ok(request) => {
                let ack = request.ack;
                match engine.submit(request) {
                    Admission::Accepted { seq } => {
                        if ack {
                            JsonValue::Object(vec![
                                ("id".to_string(), JsonValue::String(id)),
                                (
                                    "status".to_string(),
                                    JsonValue::String("accepted".to_string()),
                                ),
                                ("seq".to_string(), JsonValue::Number(seq as f64)),
                            ])
                            .to_string()
                        } else {
                            engine.wait_response(seq)
                        }
                    }
                    Admission::Busy { line }
                    | Admission::Shed { line }
                    | Admission::Rejected { line } => line,
                }
            }
            Err(e) => proto::error_response(&id, "bad-request", &e).to_string(),
        },
    }
}

fn control_response(id: &str, kind: &str, payload: Option<JsonValue>) -> String {
    let mut fields = vec![
        ("id".to_string(), JsonValue::String(id.to_string())),
        ("status".to_string(), JsonValue::String("ok".to_string())),
        ("kind".to_string(), JsonValue::String(kind.to_string())),
    ];
    if let Some(payload) = payload {
        fields.push(("stats".to_string(), payload));
    }
    JsonValue::Object(fields).to_string()
}
