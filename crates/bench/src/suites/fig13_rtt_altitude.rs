//! Figure 13 — RTT by altitude bin (ICMP-like echoes, no cross traffic),
//! urban (a) and rural (b).
//!
//! Paper shape: no clear altitude trend below 100 m; above that the
//! proportion of high-RTT outliers increases.

use rpav_bench::{banner, master_seed, print_cdf_quantiles, runs_per_config};
use rpav_core::ping::{bin_by_altitude, run_ping};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner(
        "Figure 13",
        "RTT by altitude (echo probes, no cross traffic)",
    );
    for env in [Environment::Urban, Environment::Rural] {
        println!("\n{}:", env.name());
        let mut samples = Vec::new();
        for run in 0..runs_per_config() {
            // The CC is irrelevant: the ping workload carries no video.
            let cfg = ExperimentConfig::builder()
                .environment(env)
                .cc(CcMode::Gcc)
                .seed(master_seed())
                .run_index(run)
                .build();
            samples.extend(run_ping(&cfg));
        }
        for (label, rtts) in bin_by_altitude(&samples) {
            print_cdf_quantiles(&label, &rtts);
            if !rtts.is_empty() {
                println!(
                    "{:<28} above 100 ms: {:.2}%",
                    "",
                    (1.0 - stats::fraction_at_or_below(&rtts, 100.0)) * 100.0
                );
            }
        }
    }
}
