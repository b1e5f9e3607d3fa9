//! Figure 7 — adaptive video delivery performance:
//! (a) FPS CDF (log-scaled tail), (b) SSIM CDF, (c) playback-latency CDF,
//! for the three methods × two environments.
//!
//! Paper shape: CCs deviate from 30 FPS more than static; SCReAM minimises
//! SSIM-below-0.5 time; GCC meets the 300 ms playback threshold ≈90 % in
//! the urban area while SCReAM is better in the rural area.

use rpav_bench::{banner, campaign, paper_ccs, print_cdf};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner(
        "Figure 7",
        "FPS (a), SSIM (b) and playback latency (c) CDFs",
    );
    let fps_grid = stats::lin_grid(0.0, 40.0, 21);
    let ssim_grid = stats::lin_grid(0.0, 1.0, 21);
    let lat_grid = stats::lin_grid(0.0, 1_000.0, 21);

    for env in [Environment::Urban, Environment::Rural] {
        for cc in paper_ccs(env) {
            let c = campaign(env, Operator::P1, Mobility::Air, cc);
            let label = format!("{} - {}", cc.name(), env.name());
            println!("\n### {label}");

            let fps = c.fps_samples();
            println!(
                "(a) FPS: at 30 FPS {:.1}% of windows; below 10 FPS {:.2}%",
                (1.0 - stats::fraction_at_or_below(&fps, 29.0)) * 100.0,
                stats::fraction_at_or_below(&fps, 10.0) * 100.0,
            );
            print_cdf("FPS", &fps, &fps_grid);

            let ssim = c.ssim();
            println!(
                "(b) SSIM: below the 0.5 usability threshold {:.2}% of frames; above 0.9 {:.1}%",
                stats::fraction_below_strict(&ssim, 0.5) * 100.0,
                (1.0 - stats::fraction_at_or_below(&ssim, 0.9)) * 100.0,
            );
            print_cdf("SSIM", &ssim, &ssim_grid);

            let lat = c.playback_latency_ms();
            println!(
                "(c) playback latency: within 300 ms {:.1}% of frames (threshold line)",
                stats::fraction_at_or_below(&lat, 300.0) * 100.0,
            );
            print_cdf("playback latency (ms)", &lat, &lat_grid);

            println!(
                "    stalls/min {:.2}  (paper: Static 0.11, SCReAM 0.89, GCC 1.37)",
                c.stalls_per_minute()
            );
        }
    }
}
