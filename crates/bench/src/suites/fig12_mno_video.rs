//! Figure 12 — video delivery vs. operator in the rural environment:
//! (a) goodput boxplots, (b) FPS CDF, (c) playback-latency CDF, (d) SSIM
//! CDF, for P1 vs P2 × the three methods.
//!
//! Paper shape: P2's extra rural capacity lifts goodput and SSIM, but does
//! not automatically improve playback latency/FPS — SCReAM in particular
//! suffers at the higher rates (the §4.2.1 ack-span limitation).

use rpav_bench::{banner, campaign, paper_ccs, print_box, print_cdf_quantiles};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner("Figure 12", "rural video performance, P1 vs P2");
    for cc in paper_ccs(Environment::Rural) {
        for op in [Operator::P1, Operator::P2] {
            let c = campaign(Environment::Rural, op, Mobility::Air, cc);
            let label = format!("{} - {}", cc.name(), op.name());
            println!("\n### {label}");
            let goodput: Vec<f64> = c.goodput_samples().iter().map(|b| b / 1e6).collect();
            print_box("(a) goodput (Mbps)", &goodput);
            print_cdf_quantiles("(b) FPS", &c.fps_samples());
            let lat = c.playback_latency_ms();
            print_cdf_quantiles("(c) playback latency (ms)", &lat);
            println!(
                "{:<28} within 300 ms: {:.1}%",
                "",
                stats::fraction_at_or_below(&lat, 300.0) * 100.0
            );
            let ssim = c.ssim();
            print_cdf_quantiles("(d) SSIM", &ssim);
            println!(
                "{:<28} below 0.5: {:.2}%",
                "",
                stats::fraction_below_strict(&ssim, 0.5) * 100.0
            );
        }
    }
}
