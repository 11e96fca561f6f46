//! `tls-client` and `equitls-serve` usage errors: every numeric flag is
//! parsed into its own type, so a malformed or out-of-range value exits 2
//! before any connection is made.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn client_malformed_jobs_exits_2_naming_the_flag() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_tls-client"),
        &["--socket", "/nonexistent.sock", "--jobs", "x", "check"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--jobs"), "{stderr}");
}

#[test]
fn client_max_retries_past_u32_is_a_usage_error_not_zero_retries() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_tls-client"),
        &[
            "--socket",
            "/nonexistent.sock",
            "--max-retries",
            "4294967296",
            "ping",
        ],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--max-retries"), "{stderr}");
}

#[test]
fn daemon_workers_over_the_bound_exit_2_before_binding() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_equitls-serve"),
        &["--socket", "/nonexistent/equitls.sock", "--workers", "257"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--workers"), "{stderr}");
    assert!(!stderr.contains("cannot bind"), "{stderr}");
}
