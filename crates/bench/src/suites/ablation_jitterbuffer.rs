//! Ablation App. A.4 — the `drop-on-latency` jitter-buffer strategy.
//!
//! The paper proposes that for remote piloting the player should always
//! show the freshest frame: setting `drop-on-latency` on the jitter buffer
//! discards frames older than the target instead of delivering them late.
//! Expected trade-off: lower and faster-recovering playback latency at the
//! cost of more skipped frames.

use rpav_bench::{banner, config_campaign, master_seed, print_cdf_quantiles};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner(
        "Ablation A-2",
        "jitter buffer: stock vs drop-on-latency (App. A.4)",
    );
    for env in [Environment::Urban, Environment::Rural] {
        println!("\n{} (GCC):", env.name());
        for drop_on_latency in [false, true] {
            let cfg = ExperimentConfig::builder()
                .environment(env)
                .cc(CcMode::Gcc)
                .seed(master_seed())
                .drop_on_latency(drop_on_latency)
                .build();
            let c = config_campaign(cfg);
            let lat = c.playback_latency_ms();
            let label = if drop_on_latency {
                "drop-on-latency"
            } else {
                "stock buffering"
            };
            print_cdf_quantiles(label, &lat);
            let skipped: u64 = c
                .runs
                .iter()
                .map(|r| r.frames.iter().filter(|f| !f.displayed).count() as u64)
                .sum();
            let frames: u64 = c.runs.iter().map(|r| r.frames.len() as u64).sum();
            println!(
                "{:<28} within 300 ms {:.1}% | skipped frames {:.2}% | stalls/min {:.2}",
                "",
                stats::fraction_at_or_below(&lat, 300.0) * 100.0,
                skipped as f64 / frames.max(1) as f64 * 100.0,
                c.stalls_per_minute()
            );
        }
    }
}
