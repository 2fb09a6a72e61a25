//! The `gluon-run` binary end to end: bad input ends in the usage error
//! (exit status 2) before anything runs, and `--verify` passes for every
//! algorithm on a small generated input.

use std::process::{Command, Output};

fn gluon_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gluon-run"))
        .args(args)
        .output()
        .expect("gluon-run starts")
}

/// Asserts that `args` is refused with the usage message and status 2.
fn assert_usage_error(args: &[&str]) {
    let out = gluon_run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: gluon-run"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn zero_hosts_is_a_usage_error() {
    assert_usage_error(&["--hosts", "0", "--gen", "rmat:4:4"]);
    assert_usage_error(&["--hosts", "-1", "--gen", "rmat:4:4"]);
}

#[test]
fn a_generator_field_that_is_not_a_number_is_a_usage_error() {
    for spec in [
        "rmat:abc:4",
        "rmat:8:x",
        "kron::4",
        "web:100:2.5",
        "twitter:-3:4",
    ] {
        assert_usage_error(&["--hosts", "2", "--gen", spec]);
    }
}

#[test]
fn verify_passes_for_every_algorithm_on_three_hosts() {
    for algo in ["bfs", "sssp", "cc", "pr", "kcore"] {
        let out = gluon_run(&[
            "--algo", algo, "--hosts", "3", "--gen", "rmat:8:4", "--verify",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{algo}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("on 3 hosts"), "{algo}: {stdout}");
        assert!(stdout.contains("verification: PASS"), "{algo}: {stdout}");
    }
}
