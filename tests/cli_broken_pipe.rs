//! A closed stdout ends the `rbp` CLI quietly: piping its output into
//! `head -1` must leave it with a success exit, not a broken-pipe panic.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, ExitStatus, Stdio};

/// Runs `rbp args…`, reads the first line of its output, closes the
/// pipe, and returns the exit status and everything written to stderr.
fn first_line_then_close(args: &[&str]) -> (ExitStatus, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rbp"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rbp");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the first line");
    assert!(!line.is_empty(), "rbp {args:?} printed nothing");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (child.wait().expect("wait for rbp"), stderr)
}

#[test]
fn closed_stdout_ends_the_cli_with_success() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/grid_3x3.dag");
    for args in [
        // ~3 MB of DAG text, far more than a pipe buffers: the writer
        // always meets the closed pipe.
        &["gen", "grid", "300", "300"][..],
        &["solve", fixture, "2", "4", "3"][..],
    ] {
        let (status, stderr) = first_line_then_close(args);
        assert!(status.success(), "rbp {args:?}: {status}, stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "rbp {args:?}: {stderr}");
    }
}
