//! Behaviour of the `ifet` binary itself, beyond what [`ifet_cli::run`]
//! returns: help after any subcommand, and a reader that closes the pipe
//! early.

use std::process::{Command, Stdio};

fn ifet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ifet"))
}

#[test]
fn help_after_a_subcommand_prints_usage_and_exits_zero() {
    for args in [&["track", "--help"][..], &["session", "save", "--help"]] {
        let out = ifet().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("USAGE"), "{args:?}: {stdout}");
    }
}

#[test]
fn closed_stdout_pipe_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("ifet_bin_epipe_{}", std::process::id()));
    let d = dir.to_str().unwrap();
    let gen = ifet()
        .args(["generate", "turbulent-vortex", "--out", d, "--dims", "12"])
        .output()
        .unwrap();
    assert!(gen.status.success(), "{gen:?}");

    // Close the read end before `info` gets to write: its output then hits
    // EPIPE, which must end the process quietly rather than panic.
    let mut child = ifet()
        .args(["info", "--data", d])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{out:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
