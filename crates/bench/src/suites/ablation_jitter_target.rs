//! Ablation §4.2 — jitter-buffer sizing.
//!
//! "The RTP jitter buffer size can be adjusted to reduce playback latency
//! further" (§4.2, Analysis Overview). This sweep runs the urban GCC
//! workload across buffer targets and reports the classic trade-off:
//! smaller buffers cut the structural playback-latency floor but expose
//! the player to jitter (late frames, skips, stalls).

use rpav_bench::{banner, config_campaign, master_seed};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner(
        "Ablation A-4",
        "jitter-buffer target sweep (paper default: 150 ms), urban GCC",
    );
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "target ms", "lat p50", "lat p95", "<300ms %", "skipped %", "stalls/mn"
    );
    for target_ms in [50u64, 100, 150, 250, 400] {
        let mut lat = Vec::new();
        let mut within = Vec::new();
        let mut skipped = (0u64, 0u64);
        let mut stalls = Vec::new();
        let cfg = ExperimentConfig::builder()
            .environment(Environment::Urban)
            .cc(CcMode::Gcc)
            .seed(master_seed())
            .jitter_target_ms(target_ms)
            .build();
        for m in &config_campaign(cfg).runs {
            lat.extend(m.playback_latency_ms());
            within.push(m.playback_within(300.0));
            skipped.0 += m.frames.iter().filter(|f| !f.displayed).count() as u64;
            skipped.1 += m.frames.len() as u64;
            stalls.push(m.stalls_per_minute());
        }
        println!(
            "{:>9} {:>10.0} {:>10.0} {:>9.1}% {:>9.2}% {:>10.2}",
            target_ms,
            stats::quantile(&lat, 0.5),
            stats::quantile(&lat, 0.95),
            stats::mean(&within) * 100.0,
            skipped.0 as f64 / skipped.1.max(1) as f64 * 100.0,
            stats::mean(&stalls),
        );
    }
    println!(
        "\n(The 150 ms paper default buys jitter immunity for ≈150 ms of latency \
         floor; RP deployments could trade some of it back.)"
    );
}
