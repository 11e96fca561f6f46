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
//! are answered inline. The README's "Service" section describes the
//! robustness behaviour (busy replies, disclosed degradation, supervised
//! workers, signal drain, `--resume` replay after `kill -9`); its
//! "Command line" section lists the flags and exit codes.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use equitls_obs::json::JsonValue;
use equitls_persist::signal;
use equitls_serve::endpoint::Endpoint;
use equitls_serve::engine::{Admission, ServeConfig, ServeEngine};
use equitls_serve::proto::{self, JobRequest};
use equitls_tls::cli::{self, Flags, RunFlags, UsageError};

struct Options {
    endpoint: Endpoint,
    config: ServeConfig,
    /// `--trace PATH`.
    run: RunFlags,
    results: Option<PathBuf>,
}

fn parse_args(flags: &mut Flags) -> Result<Options, UsageError> {
    let mut endpoint = None;
    let mut run = RunFlags::accepting("--resume --trace --spill-dir --max-resident-shards");
    let mut config = ServeConfig::default();
    let mut results = None;
    while let Some(arg) = flags.next() {
        if run.parse(&arg, flags)? || Endpoint::parse(&arg, flags, &mut endpoint)? {
            continue;
        }
        match arg.as_str() {
            "--workers" => {
                config.workers = flags.threads(&arg, "a worker-thread count (e.g. --workers 4)")?;
                if config.workers == 0 {
                    return Err("--workers must be at least 1 (manual mode is library-only)".into());
                }
            }
            "--queue-cap" => config.queue_cap = flags.value(&arg, "a queue bound")?,
            "--journal" => config.journal_path = Some(flags.value(&arg, "a snapshot path")?),
            "--results" => results = Some(flags.value(&arg, "an output path")?),
            "--retry-after-ms" => config.retry_after_ms = flags.value(&arg, "milliseconds")?,
            "--allow-test-jobs" => config.allow_test_jobs = true,
            other => return Err(cli::unknown_flag(other)),
        }
    }
    let Some(endpoint) = endpoint else {
        return Err("need a listener: --socket <path> or --tcp <addr>".into());
    };
    if run.resume && config.journal_path.is_none() {
        return Err("--resume needs --journal <path> (the queue snapshot to replay)".into());
    }
    config.resume = run.resume;
    config.spill_dir = run.spill_dir.clone();
    config.max_resident_shards = run.max_resident_shards;
    Ok(Options {
        endpoint,
        config,
        run,
        results,
    })
}

/// A `shutdown`/`drain` request arrived over a connection.
static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

fn main() {
    let opts = cli::parse_env("", parse_args);
    let (obs, _) = opts.run.obs();
    signal::install_term_flag();

    let engine = ServeEngine::start(opts.config, obs)
        .unwrap_or_else(|e| cli::fail(format!("equitls-serve: cannot start: {e}")));

    serve_connections(&opts.endpoint, &engine);

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
    opts.endpoint.unbind();
    if signal::term_requested() {
        eprintln!(
            "equitls-serve: drained after {}; journal checkpointed",
            signal::term_signal_name().unwrap_or("signal")
        );
        std::process::exit(signal::TERM_EXIT_CODE);
    }
}

/// Accept connections until a signal or a `drain`/`shutdown` request.
fn serve_connections(endpoint: &Endpoint, engine: &Arc<ServeEngine>) {
    let accept = endpoint
        .bind()
        .unwrap_or_else(|e| cli::fail(format!("equitls-serve: cannot bind {endpoint}: {e}")));
    eprintln!("equitls-serve: listening on {endpoint}");
    while !signal::term_requested() && !STOP_REQUESTED.load(Ordering::SeqCst) {
        match accept() {
            Ok((reader, writer)) => {
                let engine = Arc::clone(engine);
                std::thread::spawn(move || {
                    handle_connection(BufReader::new(reader), writer, &engine)
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
    let value = equitls_obs::json::parse(line).ok();
    let field = |name| {
        value
            .as_ref()
            .and_then(|v| v.get(name)?.as_str())
            .unwrap_or_default()
    };
    let (id, kind) = (field("id").to_string(), field("kind"));
    match kind {
        "ping" => control_response(&id, "ping", None),
        "stats" => control_response(&id, "stats", Some(engine.stats_json())),
        "drain" | "shutdown" => {
            STOP_REQUESTED.store(true, Ordering::SeqCst);
            control_response(&id, kind, None)
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
