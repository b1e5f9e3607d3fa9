//! The suite table. Every suite is one file with a `run(&Args)`; its name
//! is the name the DESIGN.md §3 figure map and EXPERIMENTS.md use.

use crate::Args;

/// `(name, about, entry point)`.
pub type Suite = (&'static str, &'static str, fn(&Args));

/// Declares each suite's module and its [`SUITES`] row from one line, so
/// a suite's name cannot drift from its file.
macro_rules! suites {
    ($($name:ident: $about:literal,)*) => {
        $(mod $name;)*

        /// Every suite, in `rpav-bench list` order.
        pub const SUITES: &[Suite] = &[$((stringify!($name), $about, $name::run)),*];
    };
}

suites! {
    ablation_ackspan: "§4.2.1: SCReAM ack span 64 vs 256",
    ablation_jitter_target: "§4.2: jitter-buffer sizing",
    ablation_jitterbuffer: "App. A.4: drop-on-latency",
    ablation_mobility: "§5: hysteresis x TTT sweep",
    bonded_matrix: "bonding + adaptive FEC acceptance",
    chaos_matrix: "outage-survival acceptance",
    ext_multipath: "§5 future work: P1+P2 duplication",
    failover_matrix: "multi-operator failover acceptance",
    fig04_handover: "HO frequency and HET, air vs ground",
    fig05_latency_cdf: "one-way latency CDFs",
    fig06_goodput: "goodput boxplots per method",
    fig07_video_perf: "FPS / SSIM / playback-latency CDFs",
    fig08_flight_trace: "one GCC flight, joined time series (CSV)",
    fig09_ho_latency_ratio: "latency ratio around aerial handovers",
    fig10_operators: "P1 vs P2 rural",
    fig11_trajectory: "the measurement flight trajectory",
    fig12_mno_video: "P1 vs P2 video performance",
    fig13_rtt_altitude: "RTT by altitude bin",
    nleg_matrix: "N-leg bonding / RS burst-repair acceptance",
    paper_stats: "the in-text headline numbers",
    perf_matrix: "deterministic work counts; writes BENCH_PIPELINE.json",
    repair_matrix: "NACK/RTX loss-repair acceptance",
    resilience_matrix: "crash-safe campaign engine + rpavd acceptance",
}
