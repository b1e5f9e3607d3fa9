//! Figure 6 — goodput boxplots per bitrate-adaptation method × environment.
//!
//! Paper shape: urban 20–25 Mbps (Static ≳ SCReAM ≈ 21 ≳ GCC ≈ 19);
//! rural 8–10.5 Mbps with SCReAM best at exploiting the fluctuating link
//! (≈10.5) over GCC (≈8.5) and Static (8).

use rpav_bench::{banner, campaign, paper_ccs, print_box};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner("Figure 6", "achieved goodput per method and environment");
    for env in [Environment::Urban, Environment::Rural] {
        println!("\n{}:", env.name());
        for cc in paper_ccs(env) {
            let c = campaign(env, Operator::P1, Mobility::Air, cc);
            // 1 s-windowed goodput samples in Mbps (the boxplot points).
            let samples: Vec<f64> = c.goodput_samples().iter().map(|b| b / 1e6).collect();
            print_box(&format!("{} - {}", cc.name(), env.name()), &samples);
            let means: Vec<f64> = c.runs.iter().map(|r| r.goodput_bps() / 1e6).collect();
            println!(
                "{:<28} per-run mean goodput: {:.1} Mbps",
                "",
                stats::mean(&means)
            );
        }
    }
}
