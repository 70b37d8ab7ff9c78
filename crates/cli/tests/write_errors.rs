//! A failed write must fail the command. Each case points one output
//! file at `/dev/full`, whose every write fails with ENOSPC, and runs
//! the real binary: it must exit nonzero and name the file.

#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("satwatch-write-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn simulate(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_satwatch"))
        .args(["simulate", "--customers", "4", "--seed", "3"])
        .args(extra)
        .output()
        .expect("spawn satwatch")
}

#[test]
fn log_write_error_fails_simulate() {
    // `enrichment.tsv` is a few hundred bytes — smaller than one
    // `BufWriter` buffer — so its only write(2) happens at the final
    // flush: a writer dropped unflushed would lose the error
    let dir = scratch("logs");
    std::os::unix::fs::symlink("/dev/full", dir.join("enrichment.tsv")).unwrap();
    let out = simulate(&["--out", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "simulate exited 0 on a full disk; stderr: {stderr}");
    assert!(stderr.contains("enrichment.tsv"), "error does not name the file: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pcap_write_error_fails_simulate() {
    let dir = scratch("pcap");
    let out = simulate(&["--pcap", "/dev/full", "--out", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "simulate exited 0 on a full disk; stderr: {stderr}");
    assert!(stderr.contains("/dev/full"), "error does not name the file: {stderr}");
    assert!(!stderr.contains("pcap: "), "a failed capture reported a packet count: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
