//! The `gcol-bench` CLI rejects out-of-range option values with a typed
//! `error:` line and exit status 2, before any experiment runs.

use std::process::Command;

#[test]
fn out_of_range_block_sizes_die_with_a_message() {
    for block in ["0", "2048"] {
        let out = Command::new(env!("CARGO_BIN_EXE_gcol-bench"))
            .args(["fig7", "--scale", "8", "--block", block])
            .output()
            .expect("spawn gcol-bench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--block {block}: {stderr}");
        assert!(
            stderr.starts_with("error: --block needs an integer in 1..=1024"),
            "--block {block}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--block {block}: {stderr}");
    }
}
