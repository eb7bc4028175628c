//! The soak binaries and `fig6_load_balance` refuse an out-of-range flag
//! value with exit 2 and their usage line before simulating anything,
//! instead of truncating, wrapping or ignoring it into a different run.

use std::process::Command;
use turbine_bench::{MAX_HOURS, MAX_MINS};

fn refused(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
}

#[test]
fn out_of_range_soak_flags_exit_2() {
    let hours = (MAX_HOURS + 1).to_string();
    let mins = (MAX_MINS + 1).to_string();
    // 2^32 + 30, which a truncating cast would read as a 30-minute soak.
    refused(env!("CARGO_BIN_EXE_snap_soak"), &["--mins", "4294967326"]);
    refused(env!("CARGO_BIN_EXE_snap_soak"), &["--mins", "29"]);
    refused(env!("CARGO_BIN_EXE_chaos_soak"), &["--hours", &hours]);
    refused(env!("CARGO_BIN_EXE_chaos_soak"), &["--mins", &mins]);
    refused(env!("CARGO_BIN_EXE_sched_soak"), &["--hours", &hours]);
    refused(env!("CARGO_BIN_EXE_scale_soak"), &["--max-wall-secs", "0"]);
    refused(env!("CARGO_BIN_EXE_scale_soak"), &["--hours", "12"]);
    refused(env!("CARGO_BIN_EXE_scale_soak"), &["--days", "1"]);
    // Not a number, and a zero-host (zero-shard) platform.
    refused(env!("CARGO_BIN_EXE_fig6_load_balance"), &["--hosts", "abc"]);
    refused(env!("CARGO_BIN_EXE_fig6_load_balance"), &["--hosts", "0"]);
    let days = (MAX_HOURS / 24 + 1).to_string();
    refused(env!("CARGO_BIN_EXE_fig6_load_balance"), &["--days", &days]);
}
