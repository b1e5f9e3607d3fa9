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

#[cfg(test)]
mod tests {
    use rpav_bench::acceptance::Column;
    use rpav_bench::bonding_columns;
    use rpav_core::metrics::OutageRecord;
    use rpav_core::prelude::*;
    use rpav_core::table::malformed;
    use rpav_sim::{SimDuration, SimTime};

    /// Two runs through one blackout: one recovered, one never came back.
    fn runs() -> Vec<RunMetrics> {
        let at = SimTime::from_secs;
        let run = |recovered: Option<SimTime>| {
            let outage = OutageRecord {
                from: at(10),
                until: at(12),
                baseline_bps: 4e6,
                first_arrival_after: recovered,
                first_frame_after: recovered,
                rate_half_recovered_at: recovered,
                rate_recovered_at: recovered,
            };
            RunMetrics {
                duration: SimDuration::from_secs(30),
                media_sent: 1_000,
                media_received: 990,
                outages: vec![outage],
                ..Default::default()
            }
        };
        vec![run(Some(at(13))), run(None)]
    }

    /// Every acceptance suite's column list renders well-formed tables,
    /// as `table::tests::every_column_list_is_well_formed` checks the
    /// core crate's lists.
    #[test]
    fn every_acceptance_column_list_is_well_formed() {
        let lists: [Vec<Column>; 5] = [
            super::chaos_matrix::COLUMNS.to_vec(),
            super::repair_matrix::COLUMNS.to_vec(),
            super::failover_matrix::COLUMNS.to_vec(),
            bonding_columns(super::bonded_matrix::EXTRA),
            bonding_columns(super::nleg_matrix::EXTRA),
        ];
        let runs = runs();
        for columns in &lists {
            let headers: Vec<&str> = columns.iter().map(|c| c.0).collect();
            assert_eq!(malformed(columns, &runs), None, "{headers:?}");
        }
    }
}
