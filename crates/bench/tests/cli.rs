//! The `rpav-bench` command line, driven as a process. No test here runs a
//! simulating suite: dev-profile simulations are ~5× slower, and CI's
//! release loop (`for s in …; do cargo run … -- $s --smoke`) covers them.

use std::process::{Command, Output};

/// The 23 suites — the file stems of the one-binary-per-figure layout this
/// executable replaced, which DESIGN.md §3 and EXPERIMENTS.md still name.
const SUITES: [&str; 23] = [
    "ablation_ackspan",
    "ablation_jitter_target",
    "ablation_jitterbuffer",
    "ablation_mobility",
    "bonded_matrix",
    "chaos_matrix",
    "ext_multipath",
    "failover_matrix",
    "fig04_handover",
    "fig05_latency_cdf",
    "fig06_goodput",
    "fig07_video_perf",
    "fig08_flight_trace",
    "fig09_ho_latency_ratio",
    "fig10_operators",
    "fig11_trajectory",
    "fig12_mno_video",
    "fig13_rtt_altitude",
    "nleg_matrix",
    "paper_stats",
    "perf_matrix",
    "repair_matrix",
    "resilience_matrix",
];

fn rpav_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rpav-bench"))
        .args(args)
        .output()
        .expect("run rpav-bench")
}

#[test]
fn list_prints_exactly_the_suite_names() {
    let out = rpav_bench(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().collect::<Vec<_>>(), SUITES);
}

#[test]
fn unknown_suite_exits_2_and_prints_the_list() {
    let out = rpav_bench(&["fig99_nothing"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "errors belong on stderr");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown suite fig99_nothing"), "{stderr}");
    for name in SUITES {
        assert!(stderr.contains(name), "{name} missing from:\n{stderr}");
    }
}

#[test]
fn help_exits_0() {
    let out = rpav_bench(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("usage: rpav-bench <suite> [--smoke]"));
}
