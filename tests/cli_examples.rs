//! The shared command-line layer in the examples: `model_check` stops
//! quietly with 141 when its stdout is closed, and a malformed flag value
//! or an unknown argument is a usage error (exit 2) named on stderr.
//!
//! `cargo test` builds the examples beside the test binaries, under
//! `target/<profile>/examples/`.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn example(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let profile_dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("target/<profile>/deps/<test>");
    let path = profile_dir.join("examples").join(name);
    assert!(
        path.exists(),
        "{} is missing; `cargo test` builds the examples (a `--test` filter does not)",
        path.display()
    );
    path
}

#[test]
fn model_check_into_a_closed_pipe_exits_141_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(example("model_check"))
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("model_check runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_malformed_flag_exits_2_naming_the_flag() {
    for (name, args) in [
        ("model_check", &["--max-mem-mb", "x"][..]),
        ("find_attack", &["--no-such-flag"][..]),
    ] {
        let out = Command::new(example(name))
            .args(args)
            .output()
            .expect("example runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}:\n{stderr}");
        assert!(stderr.contains(args[0]), "{name}:\n{stderr}");
    }
}
