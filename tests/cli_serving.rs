//! Drives the built `problp` binary through its serving commands, the
//! same way the CI smoke steps do: each self-checks its answers
//! bit-identical to per-request evaluation and exits non-zero on any
//! divergence, so exit 0 is the verdict.

use std::process::{Command, Output};

fn problp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_problp"))
        .args(args)
        .output()
        .expect("the problp binary runs")
}

fn assert_success(out: &Output) {
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_sim_with_cache_and_mid_trace_reload_self_checks() {
    let out = problp(&[
        "serve-sim",
        "--models",
        "sprinkler,asia",
        "--requests",
        "64",
        "--cache-capacity",
        "512",
        "--reload-mid-trace",
    ]);
    assert_success(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("64/64 admitted answers bit-identical"),
        "{stdout}"
    );
    assert!(stdout.contains("mid-trace reload: model sprinkler cut over to version 2"));
    assert!(
        stdout.contains("cache replay: 32 resubmissions, 32 hits"),
        "{stdout}"
    );
}

#[test]
fn serve_http_self_drive_self_checks() {
    let out = problp(&[
        "serve-http",
        "--models",
        "sprinkler,asia",
        "--self-drive",
        "32",
    ]);
    assert_success(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("32/32 socket answers bit-identical"),
        "{stdout}"
    );
    assert!(
        stdout.contains("probe quota: 429 quota_exceeded"),
        "{stdout}"
    );
}

#[test]
fn a_valued_flag_without_its_value_is_a_usage_error() {
    let out = problp(&["run", "--network", "F", "--out-dir"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    let out = problp(&["serve-sim", "--models", "sprinkler,asia", "--requests"]);
    assert_eq!(out.status.code(), Some(2));
    // `export` needs `--dot`; the file named by `--network` is never read.
    let out = problp(&["export", "--network", "F"]);
    assert_eq!(out.status.code(), Some(2));
}
