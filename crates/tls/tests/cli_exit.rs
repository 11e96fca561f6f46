//! Exit statuses the shared command-line layer promises, end to end: a
//! closed stdout stops a binary quietly with 141 (128 + SIGPIPE) instead
//! of a panic, and a malformed or over-bound `--jobs`, an unknown
//! property name or `--all` given with names is a usage error (exit 2)
//! named on stderr before any work starts.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Run `bin` with `args` and its stdout already closed at the read end,
/// so the first write fails with a broken pipe.
fn run_into_closed_pipe(bin: &str, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs")
}

fn assert_stops_quietly(bin: &str, args: &[&str]) {
    let out = run_into_closed_pipe(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "{bin} {args:?}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}:\n{stderr}");
}

/// A two-line `.jsonl` trace: one span round trip.
fn write_trace_fixture() -> PathBuf {
    let path = std::env::temp_dir().join(format!("equitls_cli_exit_{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        concat!(
            r#"{"t_us":0,"tid":1,"type":"span_enter","name":"prover.obligation:base"}"#,
            "\n",
            r#"{"t_us":2000,"tid":1,"type":"span_exit","name":"prover.obligation:base","dur_us":2000}"#,
            "\n",
        ),
    )
    .expect("fixture written");
    path
}

#[test]
fn a_closed_stdout_exits_141_without_a_panic() {
    assert_stops_quietly(
        env!("CARGO_BIN_EXE_tls-prove"),
        &["lem-src-honest", "--fuel", "64", "--jobs", "1"],
    );
    assert_stops_quietly(env!("CARGO_BIN_EXE_tls-lint"), &["bool"]);
    let trace = write_trace_fixture();
    assert_stops_quietly(
        env!("CARGO_BIN_EXE_tls-trace"),
        &["summarize", trace.to_str().expect("utf-8 path")],
    );
    let _ = std::fs::remove_file(trace);
}

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_malformed_jobs_value_exits_2_naming_the_flag() {
    for bin in [
        env!("CARGO_BIN_EXE_tls-prove"),
        env!("CARGO_BIN_EXE_tls-lint"),
    ] {
        let (code, stderr) = run(bin, &["--jobs", "x"]);
        assert_eq!(code, Some(2), "{bin}:\n{stderr}");
        assert!(stderr.contains("--jobs"), "{bin}:\n{stderr}");
    }
}

#[test]
fn jobs_over_the_bound_exit_2_before_any_work() {
    for (bin, target) in [
        (env!("CARGO_BIN_EXE_tls-prove"), "lem-src-honest"),
        (env!("CARGO_BIN_EXE_tls-lint"), "bool"),
    ] {
        let (code, stderr) = run(bin, &[target, "--jobs", "257"]);
        assert_eq!(code, Some(2), "{bin}:\n{stderr}");
        assert!(stderr.contains("--jobs"), "{bin}:\n{stderr}");
        assert!(stderr.contains("over the limit of 256"), "{bin}:\n{stderr}");
    }
}

#[test]
fn an_unknown_property_or_all_with_names_exits_2_before_any_proof() {
    for (args, message) in [
        (&["inv4", "bogus"][..], "unknown property bogus"),
        (&["--all", "inv4"][..], "--all"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tls-prove"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(stderr.contains(message), "{args:?}:\n{stderr}");
        // Rejected while parsing: inv4 was not proved first.
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
